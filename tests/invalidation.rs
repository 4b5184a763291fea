//! Invalidation correctness for the epoch-cached `AnalysisManager`.
//!
//! The cache is only sound if every mutation either bumps the function's
//! epoch or is covered by an honest `PreservedAnalyses` declaration.
//! These tests run every optimiser pass (under the `PassManager`
//! invalidation protocol), both stock pipelines, and all four SSA
//! destruction paths, asserting after each step that whatever the
//! manager hands out equals a freshly computed analysis — catching both
//! stale-cache and missing-epoch-bump bugs.

use fcc::analysis::{DomTree, Liveness, LoopNesting};
use fcc::dataflow::{Lattice, Solution};
use fcc::ir::ControlFlowGraph;
use fcc::opt::{
    aggressive_pipeline, standard_pipeline, ConstFold, CopyProp, Dce, DeadStoreElim, Gvn, Pass,
    RangeFold, RedundantLoadElim, SimplifyCfg, StoreForward,
};
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, kernels};

fn assert_same_solution<F: Lattice>(func: &Function, got: &Solution<F>, want: &Solution<F>) {
    for v in (0..func.num_values()).map(Value::new) {
        assert_eq!(got.fact(v), want.fact(v), "stale dataflow fact for {v}");
    }
    for b in func.blocks() {
        assert_eq!(got.block_executable(b), want.block_executable(b), "{b}");
        for s in func.successors(b) {
            assert_eq!(got.edge_executable(b, s), want.edge_executable(b, s));
        }
    }
}

/// Prime every analysis through the manager and compare each against a
/// from-scratch computation. `check_ssa_liveness` additionally checks
/// the SSA-only analyses, the SSA liveness slot and the dataflow memo
/// (only meaningful while the function is in SSA form).
fn assert_cache_fresh(func: &Function, am: &mut AnalysisManager, check_ssa_liveness: bool) {
    let cfg = am.cfg(func);
    assert_eq!(*cfg, ControlFlowGraph::compute(func), "stale CFG in cache");
    let dt = am.domtree(func);
    assert_eq!(
        *dt,
        DomTree::compute(func, &cfg),
        "stale dominator tree in cache"
    );
    let live = am.liveness(func);
    assert_eq!(
        *live,
        Liveness::compute(func, &cfg),
        "stale liveness in cache"
    );
    if check_ssa_liveness {
        let live_ssa = am.liveness_ssa(func);
        assert_eq!(
            *live_ssa,
            Liveness::compute(func, &cfg),
            "stale SSA liveness in cache"
        );
        // The dataflow memo: whatever survived the last step must be the
        // fixpoint of the function as it is now.
        let fa = FunctionAnalysis::of(func, am);
        let fresh = FunctionAnalysis::compute(func, &mut AnalysisManager::new());
        assert_same_solution(func, &fa.ranges, &fresh.ranges);
        assert_same_solution(func, &fa.bits, &fresh.bits);
    }
    let loops = am.loops(func);
    assert_eq!(
        *loops,
        LoopNesting::compute(&cfg, &dt),
        "stale loop nesting in cache"
    );
}

fn suite() -> impl Iterator<Item = Function> {
    kernels().iter().take(4).map(compile_kernel)
}

#[test]
fn each_pass_leaves_cache_consistent() {
    let passes: Vec<Box<dyn Pass>> = vec![
        Box::new(Dce),
        Box::new(ConstFold),
        Box::new(CopyProp),
        Box::new(Gvn),
        Box::new(RangeFold),
        Box::new(StoreForward::default()),
        Box::new(StoreForward::web_safe()),
        Box::new(RedundantLoadElim),
        Box::new(DeadStoreElim),
        Box::new(SimplifyCfg),
    ];
    for base in suite() {
        let mut f = base;
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        assert_cache_fresh(&f, &mut am, true);
        for pass in &passes {
            // The PassManager's invalidation protocol: a pass that
            // reports no change preserves everything (recovering from
            // conservative epoch bumps), otherwise its declared mask
            // decides what survives.
            let before = f.epoch();
            let effect = pass.run(&mut f, &mut am);
            let preserved = if effect.changed {
                effect.preserved
            } else {
                PreservedAnalyses::all()
            };
            am.invalidate(&f, before, preserved);
            verify_ssa(&f).unwrap_or_else(|e| panic!("{} broke SSA: {e}", pass.name()));
            assert_cache_fresh(&f, &mut am, true);
        }
    }
}

#[test]
fn stock_pipelines_leave_cache_consistent() {
    for base in suite() {
        for aggressive in [false, true] {
            let mut f = base.clone();
            let mut am = AnalysisManager::new();
            build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
            let pm = if aggressive {
                aggressive_pipeline()
            } else {
                standard_pipeline()
            };
            pm.run(&mut f, &mut am);
            verify_ssa(&f).expect("pipeline keeps SSA valid");
            assert_cache_fresh(&f, &mut am, true);
        }
    }
}

#[test]
fn destruction_paths_leave_cache_consistent() {
    for base in suite() {
        // Standard: naive phi instantiation.
        let mut f = base.clone();
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        destruct_standard_with(&mut f, &mut am);
        assert_cache_fresh(&f, &mut am, false);

        // New: the paper's dominance-forest coalescer.
        let mut f = base.clone();
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        coalesce_ssa_managed(&mut f, &CoalesceOptions::default(), &mut am);
        assert_cache_fresh(&f, &mut am, false);

        // Briggs and Briggs*: phi webs + iterated interference-graph
        // coalescing.
        for mode in [GraphMode::Full, GraphMode::Restricted] {
            let mut f = base.clone();
            let mut am = AnalysisManager::new();
            build_ssa_with(&mut f, SsaFlavor::Pruned, false, &mut am);
            destruct_via_webs(&mut f);
            coalesce_copies_managed(&mut f, &BriggsOptions { mode }, &mut am);
            assert_cache_fresh(&f, &mut am, false);
        }

        // The colouring allocator on top of the New pipeline's output.
        let mut f = base.clone();
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        coalesce_ssa_managed(&mut f, &CoalesceOptions::default(), &mut am);
        allocate_managed(&mut f, &AllocOptions { registers: 8 }, &mut am)
            .expect("8 registers suffice for the small kernels");
        assert_cache_fresh(&f, &mut am, false);
    }
}
