//! End-to-end register allocation on coalesced kernels: the paper's
//! "future work" pipeline (New coalescing feeding a Chaitin/Briggs
//! allocator), certified by the feasibility auditor and checked for
//! semantics.

use fcc::interp::run_with_memory;
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, kernels};

const SPILL_MEM: usize = (1 << 20) + 256;
const FUEL: u64 = 100_000_000;

fn run_spilled(f: &Function, args: &[i64]) -> (Option<i64>, u64) {
    let out = run_with_memory(f, args, vec![0; SPILL_MEM], FUEL).expect("runs");
    (out.ret, out.dynamic_copies)
}

/// The feasibility auditor accepts `alloc` of `f` for `regs` registers.
fn assert_certified(f: &Function, alloc: &fcc::regalloc::Allocation, regs: usize, name: &str) {
    let diags = audit_allocation(f, &alloc.coloring, regs as u32, f.spill_slot_count());
    assert!(diags.is_empty(), "{name} k={regs}: {diags:?}");
}

#[test]
fn allocate_after_new_coalescing() {
    for k in kernels().iter().take(8) {
        let mut f = compile_kernel(k);
        let (reference, _) = run_spilled(&f, k.args);
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        coalesce_ssa(&mut f);
        for regs in [4usize, 8] {
            let mut g = f.clone();
            let alloc = allocate(&mut g, &AllocOptions { registers: regs })
                .unwrap_or_else(|e| panic!("{} k={regs}: {e}", k.name));
            assert_certified(&g, &alloc, regs, k.name);
            let (out, _) = run_spilled(&g, k.args);
            assert_eq!(out, reference, "{} k={regs}", k.name);
        }
    }
}

#[test]
fn coalescing_reduces_register_pressure_work() {
    // Coalesced code has fewer names and fewer moves; the allocator
    // should never need *more* spills than on Standard-destructed code
    // with the same register count for these kernels.
    let k = fcc::workloads::kernel("jacld").unwrap();
    let regs = 6;

    let mut std_f = compile_kernel(k);
    build_ssa(&mut std_f, SsaFlavor::Pruned, true);
    destruct_standard(&mut std_f);
    let std_alloc = allocate(&mut std_f, &AllocOptions { registers: regs }).unwrap();

    let mut new_f = compile_kernel(k);
    build_ssa(&mut new_f, SsaFlavor::Pruned, true);
    coalesce_ssa(&mut new_f);
    let new_alloc = allocate(&mut new_f, &AllocOptions { registers: regs }).unwrap();

    assert!(
        new_alloc.spilled.len() <= std_alloc.spilled.len() + 1,
        "coalescing should not explode spills: new {} vs std {}",
        new_alloc.spilled.len(),
        std_alloc.spilled.len()
    );
}

#[test]
fn tiny_register_files_still_converge() {
    let k = fcc::workloads::kernel("fpppp").unwrap();
    let mut f = compile_kernel(k);
    let (reference, _) = run_spilled(&f, k.args);
    build_ssa(&mut f, SsaFlavor::Pruned, true);
    coalesce_ssa(&mut f);
    let alloc =
        allocate(&mut f, &AllocOptions { registers: 3 }).expect("k=3 converges via spilling");
    assert!(!alloc.spilled.is_empty(), "fpppp at k=3 must spill");
    assert_certified(&f, &alloc, 3, k.name);
    let (out, _) = run_spilled(&f, k.args);
    assert_eq!(out, reference);
}
