//! `Liveness::compute` against a path search for every (value, block)
//! pair, at each stage a function passes through: pre-SSA (many
//! definitions per value), pruned SSA, spilled SSA, and φ-free after
//! each of the New and Standard destructions. The inputs are the
//! kernels and a seeded set of generated programs.

use fcc::analysis::Liveness;
use fcc::ir::ControlFlowGraph;
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, generate, kernels, GenConfig};

fn assert_live_exact(f: &Function, stage: &str) {
    let cfg = ControlFlowGraph::compute(f);
    if let Err(e) = Liveness::compute(f, &cfg).check_by_search(f, &cfg) {
        panic!("@{} {stage}: {e}\n{f}", f.name);
    }
}

/// Check `pre` and every later stage of it.
fn check_stages(pre: &Function, k: u32) {
    assert_live_exact(pre, "pre-SSA");
    let mut ssa = pre.clone();
    build_ssa(&mut ssa, SsaFlavor::Pruned, true);
    assert_live_exact(&ssa, "SSA");
    spill_to_k(&mut ssa, k, SpillStrategy::CostGuided);
    assert_live_exact(&ssa, "spilled");
    let mut new = ssa.clone();
    coalesce_ssa(&mut new);
    assert_live_exact(&new, "New");
    destruct_standard(&mut ssa);
    assert_live_exact(&ssa, "Standard");
}

#[test]
fn liveness_matches_path_search_on_every_kernel_stage() {
    for k in kernels() {
        check_stages(&compile_kernel(k), 4);
    }
}

#[test]
fn liveness_matches_path_search_on_generated_program_stages() {
    let cfg = GenConfig {
        stmts: 16,
        ..GenConfig::default()
    };
    for seed in 0..40 {
        let pre = fcc::frontend::lower_program(&generate(seed, &cfg)).expect("lowers");
        check_stages(&pre, 3);
    }
}
