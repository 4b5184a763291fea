//! A JIT-style compilation pipeline: the paper's motivating use case.
//!
//! "This may make graph-coloring register allocation more practical in
//! just-in-time and other time-critical compilers." This example plays a
//! tiny JIT: it compiles a hot function, destructs SSA with the New
//! coalescer (no interference graph on the critical path), then colours
//! registers with the Chaitin/Briggs allocator — timing every phase — and
//! finally "executes the compiled code" through the interpreter, spills
//! and all.
//!
//! Run: `cargo run --release --example jit_pipeline`

use std::time::Instant;

use fcc::interp::{run_with_memory, RunConfig};
use fcc::prelude::*;

fn main() {
    // The hot method our "JIT" has decided to compile: a dot-product-ish
    // loop with enough live scalars to pressure a small register file.
    let src = "
        fn hot(n) {
            let acc0 = 0; let acc1 = 0; let acc2 = 0; let acc3 = 0;
            for i = 0 to n {
                mem[i] = i * 3 % 17;
                mem[n + i] = i * 5 % 13;
            }
            for i = 0 to n {
                let a = mem[i];
                let b = mem[n + i];
                acc0 = acc0 + a * b;
                acc1 = acc1 + a - b;
                acc2 = acc2 + (a ^ b);
                acc3 = acc3 + (a & b);
            }
            return acc0 * 7 + acc1 * 5 + acc2 * 3 + acc3;
        }";

    let t_front = Instant::now();
    let mut func = fcc::frontend::compile(src).expect("front end");
    let front_us = t_front.elapsed().as_secs_f64() * 1e6;

    let config = RunConfig {
        memory_words: (1 << 20) + 64,
        fuel: 50_000_000,
    };
    let reference = run_with_memory(&func, &[64], vec![0; config.memory_words], config.fuel)
        .expect("reference");

    let t_ssa = Instant::now();
    build_ssa(&mut func, SsaFlavor::Pruned, true);
    let ssa_us = t_ssa.elapsed().as_secs_f64() * 1e6;

    let t_coal = Instant::now();
    let stats = coalesce_ssa(&mut func);
    let coal_us = t_coal.elapsed().as_secs_f64() * 1e6;

    let t_ra = Instant::now();
    let k = 6;
    let alloc = allocate(&mut func, &AllocOptions { registers: k }).expect("allocation converges");
    let ra_us = t_ra.elapsed().as_secs_f64() * 1e6;

    println!("JIT pipeline phase times:");
    println!("  front end            {front_us:>9.1} us");
    println!("  SSA construction     {ssa_us:>9.1} us   (copies folded)");
    println!(
        "  SSA->CFG + coalesce  {coal_us:>9.1} us   ({} copies inserted, {} bytes peak, no interference graph)",
        stats.copies_inserted, stats.peak_bytes
    );
    println!(
        "  register allocation  {ra_us:>9.1} us   ({k} registers, {} spilled, {} rounds)",
        alloc.spilled.len(),
        alloc.rounds
    );

    let diags = audit_allocation(&func, &alloc.coloring, k as u32, func.spill_slot_count());
    assert!(diags.is_empty(), "infeasible allocation: {diags:?}");
    let out = run_with_memory(&func, &[64], vec![0; config.memory_words], config.fuel)
        .expect("compiled code runs");
    assert_eq!(
        out.ret, reference.ret,
        "the JIT must not change observable behaviour"
    );
    println!(
        "\nexecuted 'compiled' code: hot(64) = {:?} ({} instructions, {} dynamic copies)",
        out.ret, out.executed, out.dynamic_copies
    );
    println!("matches the pre-compilation reference: {:?}", reference.ret);
}
