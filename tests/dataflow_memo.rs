//! The `FunctionAnalysis` memo: one dataflow fixpoint per function
//! state, shared by every client through the `AnalysisManager`, dropped
//! on any edit and when the optimiser returns.

use std::rc::Rc;

use fcc::analysis::HitMiss;
use fcc::ir::parse::parse_function;
use fcc::opt::{Dce, Pass, PassManager, RangeFold, StoreForward};
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, kernels};

fn func() -> Function {
    parse_function(
        "function @m(1) {
         b0:
             v0 = param 0
             v1 = const 8
             store v1, v0
             v2 = load v1
             v3 = add v2, v1
             v4 = mul v3, v1
             return v2
         }",
    )
    .unwrap()
}

fn cached(f: &Function, am: &AnalysisManager) -> Option<Rc<FunctionAnalysis>> {
    am.cached_dataflow::<FunctionAnalysis>(f)
}

#[test]
fn same_epoch_shares_one_fixpoint() {
    let f = func();
    let mut am = AnalysisManager::new();
    let a = FunctionAnalysis::of(&f, &mut am);
    let b = FunctionAnalysis::of(&f, &mut am);
    assert!(Rc::ptr_eq(&a, &b));
    assert_eq!(am.counters().dataflow, HitMiss { hits: 1, misses: 1 });
    assert!(Rc::ptr_eq(&a, &cached(&f, &am).unwrap()));
}

#[test]
fn any_edit_forces_a_recompute_even_after_cfg_core() {
    let mut f = func();
    let mut am = AnalysisManager::new();
    let a = FunctionAnalysis::of(&f, &mut am);
    am.domtree(&f);

    // DCE deletes the dead `mul` and reports cfg_core(): the dominator
    // tree is carried over, the dataflow facts are not.
    let before = f.epoch();
    let effect = Dce.run(&mut f, &mut am);
    assert!(effect.changed);
    assert_eq!(effect.preserved, PreservedAnalyses::cfg_core());
    am.invalidate(&f, before, effect.preserved);
    assert!(am.cached_domtree(&f).is_some());
    assert!(cached(&f, &am).is_none());

    let b = FunctionAnalysis::of(&f, &mut am);
    assert!(!Rc::ptr_eq(&a, &b));
    assert_eq!(am.counters().dataflow, HitMiss { hits: 0, misses: 2 });
}

#[test]
fn passes_share_the_fixpoint_and_the_manager_drops_it_on_return() {
    let mut f = func();
    let mut am = AnalysisManager::new();
    // Round 1: range-fold solves and folds nothing, store-forward reuses
    // that solve and forwards the load. Round 2 confirms: range-fold
    // solves the edited function, store-forward reuses it.
    let pm = PassManager::new()
        .with(RangeFold)
        .with(StoreForward::default());
    let summary = pm.run(&mut f, &mut am);
    assert_eq!(summary.rounds, 2);
    assert_eq!(summary.applications("store-forward"), 1);
    assert_eq!(am.counters().dataflow, HitMiss { hits: 2, misses: 2 });
    assert!(cached(&f, &am).is_none(), "memo outlived the optimiser");

    let mut f = func();
    let mut am = AnalysisManager::new();
    standard_pipeline()
        .run_verified(&mut f, &mut am, LintStage::Ssa)
        .unwrap();
    assert!(cached(&f, &am).is_none(), "memo outlived run_verified");
}

/// Solves per pipeline over the kernel suite at `--opt --k-registers 16`.
/// Before the memo every dataflow-backed pass solved for itself: the
/// hits + misses below (258 / 258 / 274) are exactly those solves.
#[test]
fn kernel_suite_memo_misses_are_pinned() {
    let want = [
        (
            PipelineSpec::New,
            HitMiss {
                hits: 193,
                misses: 65,
            },
        ),
        (
            PipelineSpec::Standard,
            HitMiss {
                hits: 193,
                misses: 65,
            },
        ),
        (
            PipelineSpec::BriggsStar,
            HitMiss {
                hits: 200,
                misses: 74,
            },
        ),
    ];
    for (spec, want) in want {
        let req = CompileRequest::new()
            .pipeline(spec)
            .fold(!spec.needs_no_fold())
            .opt(true)
            .k_registers(Some(16));
        let mut got = HitMiss::default();
        for k in kernels() {
            let out = compile_function(compile_kernel(k), &req).unwrap();
            for p in &out.phases {
                got += p.counters.dataflow;
            }
        }
        assert_eq!(got, want, "{spec}");
    }
}
