//! The heavy artillery: hundreds of generated programs through every
//! pipeline, checked against the φ-aware reference interpreter.
//!
//! Random structured programs (terminating and strict by construction)
//! have historically been the most effective bug-finders for SSA
//! destruction — they produced the swap/lost-copy literature in the first
//! place. A failure here prints the seed, which reproduces the program
//! deterministically.

use fcc::prelude::*;
use fcc::workloads::{generate, GenConfig, SplitMix64};

const FUEL: u64 = 20_000_000;
const MEM: usize = 256;

fn compile_seed(seed: u64, cfg: &GenConfig) -> Function {
    let prog = generate(seed, cfg);
    fcc::frontend::lower_program(&prog).expect("generated programs always lower")
}

fn run_f(f: &Function, args: &[i64]) -> (Option<i64>, Vec<i64>) {
    let out = fcc::interp::run_with_memory(f, args, vec![0; MEM], FUEL)
        .expect("generated programs terminate");
    (out.ret, out.memory)
}

fn check_seed(seed: u64, cfg: &GenConfig) {
    let base = compile_seed(seed, cfg);
    let args = [seed as i64 % 17, (seed as i64 / 3) % 11];
    let reference = run_f(&base, &args);

    // SSA itself must already be behaviour-preserving.
    let mut ssa = base.clone();
    build_ssa(&mut ssa, SsaFlavor::Pruned, true);
    verify_ssa(&ssa).unwrap_or_else(|e| panic!("seed {seed}: invalid SSA: {e}"));
    assert_eq!(
        reference,
        run_f(&ssa, &args),
        "seed {seed}: SSA changed behaviour"
    );

    // New algorithm (default and ablated configurations).
    for (label, opts) in [
        ("default", CoalesceOptions::default()),
        (
            "nofilters",
            CoalesceOptions {
                early_filters: false,
                ..Default::default()
            },
        ),
        (
            "alwayschild",
            CoalesceOptions {
                split_heuristic: fcc::core::SplitHeuristic::AlwaysChild,
                ..Default::default()
            },
        ),
        (
            "alwaysparent",
            CoalesceOptions {
                split_heuristic: fcc::core::SplitHeuristic::AlwaysParent,
                ..Default::default()
            },
        ),
        (
            "edgecut",
            CoalesceOptions {
                split_strategy: fcc::core::SplitStrategy::EdgeCut,
                ..Default::default()
            },
        ),
    ] {
        let mut f = ssa.clone();
        coalesce_ssa_with(&mut f, &opts);
        assert!(!f.has_phis(), "seed {seed}/{label}: phis left");
        fcc::ir::verify::verify_function(&f).unwrap_or_else(|e| panic!("seed {seed}/{label}: {e}"));
        assert_eq!(
            reference,
            run_f(&f, &args),
            "seed {seed}/{label}: miscompiled\n{f}"
        );
    }

    // Standard instantiation.
    let mut std_f = ssa.clone();
    destruct_standard(&mut std_f);
    assert_eq!(
        reference,
        run_f(&std_f, &args),
        "seed {seed}: standard miscompiled"
    );

    // Sreedhar Method I (CSSA isolation).
    let mut cssa_f = ssa.clone();
    fcc::ssa::destruct_sreedhar_i(&mut cssa_f);
    assert!(!cssa_f.has_phis(), "seed {seed}: cssa left phis");
    fcc::ir::verify::verify_function(&cssa_f).unwrap_or_else(|e| panic!("seed {seed} cssa: {e}"));
    assert_eq!(
        reference,
        run_f(&cssa_f, &args),
        "seed {seed}: sreedhar-i miscompiled"
    );

    // Briggs pipelines from unfolded SSA.
    let mut webs = base.clone();
    build_ssa(&mut webs, SsaFlavor::Pruned, false);
    destruct_via_webs(&mut webs);
    assert_eq!(
        reference,
        run_f(&webs, &args),
        "seed {seed}: webs miscompiled"
    );
    for mode in [GraphMode::Full, GraphMode::Restricted] {
        let mut f = webs.clone();
        coalesce_copies(&mut f, &BriggsOptions { mode });
        assert_eq!(
            reference,
            run_f(&f, &args),
            "seed {seed}/{mode:?}: miscompiled\n{f}"
        );
    }
}

#[test]
fn seed_sweep_default_shape() {
    let cfg = GenConfig::default();
    for seed in 0..150 {
        check_seed(seed, &cfg);
    }
}

#[test]
fn seed_sweep_deep_control_flow() {
    let cfg = GenConfig {
        stmts: 20,
        max_depth: 5,
        vars: 8,
        ..Default::default()
    };
    for seed in 1000..1080 {
        check_seed(seed, &cfg);
    }
}

#[test]
fn seed_sweep_wide_flat_programs() {
    let cfg = GenConfig {
        stmts: 60,
        max_depth: 2,
        vars: 16,
        ..Default::default()
    };
    for seed in 2000..2040 {
        check_seed(seed, &cfg);
    }
}

#[test]
fn seed_sweep_no_memory_pure_scalar() {
    let cfg = GenConfig {
        memory_ops: false,
        stmts: 25,
        ..Default::default()
    };
    for seed in 3000..3060 {
        check_seed(seed, &cfg);
    }
}

/// The same seeds and interpreter oracle, but batch-compiled as one
/// module through the parallel driver: the output must be independent
/// of the job count and must still match the reference per function.
#[test]
fn seed_sweep_through_the_parallel_driver() {
    let cfg = GenConfig::default();
    let seeds: Vec<u64> = (0..32).collect();
    let funcs: Vec<Function> = seeds
        .iter()
        .map(|&seed| {
            let mut f = compile_seed(seed, &cfg);
            f.name = format!("gen{seed}");
            f
        })
        .collect();
    let module = Module::from_functions(funcs.clone()).expect("unique names");
    let req = CompileRequest::new().opt(true);
    let serial = compile_module(module.clone(), &req.clone().jobs(1)).expect("request is valid");
    let wide = compile_module(module, &req.clone().jobs(4)).expect("request is valid");
    for batch in [&serial, &wide] {
        assert!(batch.first_error().is_none(), "{:?}", batch.first_error());
    }
    assert_eq!(
        serial.clone().into_surviving_module().to_string(),
        wide.into_surviving_module().to_string(),
        "job count changed the batch output"
    );
    for ((&seed, base), out) in seeds.iter().zip(&funcs).zip(serial.outcomes()) {
        let args = [seed as i64 % 17, (seed as i64 / 3) % 11];
        let reference = run_f(base, &args);
        assert!(!out.func.has_phis(), "seed {seed}: driver left phis");
        assert_eq!(
            reference,
            run_f(&out.func, &args),
            "seed {seed}: driver miscompiled"
        );
    }
}

/// Arbitrary seeds and shapes, drawn from a seeded meta-PRNG — a failure
/// prints the case index, which reproduces the (seed, shape) pair
/// deterministically.
#[test]
fn arbitrary_seed_and_shape() {
    let cases = 64;
    let mut rng = SplitMix64::seed_from_u64(0x5EED_5EED);
    for case in 0..cases {
        let seed = rng.gen_range(0u64..1_000_000);
        let cfg = GenConfig {
            stmts: rng.gen_range(4usize..30),
            max_depth: rng.gen_range(1usize..5),
            vars: rng.gen_range(2usize..10),
            ..Default::default()
        };
        eprint_on_panic(case, seed, &cfg);
    }
}

fn eprint_on_panic(case: usize, seed: u64, cfg: &GenConfig) {
    let r = std::panic::catch_unwind(|| check_seed(seed, cfg));
    if let Err(e) = r {
        eprintln!("case {case}: seed {seed}, shape {cfg:?}");
        std::panic::resume_unwind(e);
    }
}
