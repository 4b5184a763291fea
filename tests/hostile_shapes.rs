//! Defined answers for input outside the comfortable subset: a variable
//! read on a path that never assigns it (non-strict input), and a loop
//! with two entries (an irreducible CFG).
//!
//! Non-strict input: `build_ssa` zero-initialises every variable live
//! into the entry, so a read that no assignment reaches sees 0. These
//! inits go in front of the parameters, and the spiller must still put
//! a spilled parameter's `spill` after the parameter.
//!
//! Irreducible input: Theorems 2.1 and 2.2 need strictness and
//! dominance, not reducibility, so every pipeline must compile a
//! two-entry loop, pass both audits and keep its meaning. Liveness is
//! checked against a path search at every stage on the way.

use fcc::analysis::{AnalysisManager, Liveness};
use fcc::driver::{allocation_stage, spill_stage};
use fcc::ir::parse::parse_function;
use fcc::ir::ControlFlowGraph;
use fcc::prelude::*;
use fcc::ssa::SsaStats;

/// `x` is assigned only when `c > 0`, yet read on every path.
const NON_STRICT: &str =
    "fn f(c) { if c > 0 { let x = 7; } let y = 1; let z = 2; return y + z + x + c; }";

/// [`NON_STRICT`] as textual IR: `v3` is `x`.
const NON_STRICT_IR: &str = "function @f(1) {
b0:
    v0 = param 0
    v1 = const 0
    v2 = gt v0, v1
    branch v2, b1, b2
b1:
    v3 = const 7
    jump b2
b2:
    v4 = const 1
    v5 = const 2
    v6 = add v4, v5
    v7 = add v6, v3
    v8 = add v7, v0
    return v8
}";

/// A loop entered at b1 or at b2, which branch to each other: neither
/// dominates the other, so the loop has no header.
const TWO_ENTRY_LOOP: &str = "function @irr(2) {
b0:
    v0 = param 0
    v2 = param 1
    v1 = const 0
    v3 = lt v0, v2
    branch v3, b1, b2
b1:
    v1 = add v1, v0
    v4 = lt v1, v2
    branch v4, b2, b3
b2:
    v1 = add v1, v2
    v5 = lt v1, v2
    branch v5, b1, b3
b3:
    return v1
}";

const PIPELINES: [PipelineSpec; 3] = [
    PipelineSpec::New,
    PipelineSpec::Standard,
    PipelineSpec::BriggsStar,
];

fn request(pipeline: PipelineSpec, k: Option<u32>) -> CompileRequest {
    CompileRequest::new()
        .pipeline(pipeline)
        .fold(pipeline != PipelineSpec::BriggsStar)
        .k_registers(k)
}

fn assert_live_exact(f: &Function, stage: &str) {
    let cfg = ControlFlowGraph::compute(f);
    if let Err(e) = Liveness::compute(f, &cfg).check_by_search(f, &cfg) {
        panic!("@{} {stage}: {e}\n{f}", f.name);
    }
}

/// `func` through the driver's stages as `compile_function` runs them,
/// with the destruction traced and audited and, under `k`, the
/// allocation audited. Liveness is checked at every stage.
fn compile_audited(
    func: &Function,
    pipeline: PipelineSpec,
    k: Option<u32>,
) -> (Function, SsaStats) {
    let what = format!("@{} {} k={k:?}", func.name, pipeline.label());
    let req = request(pipeline, k);
    let mut f = func.clone();
    let mut am = AnalysisManager::new();
    let mut phases = Vec::new();
    assert_live_exact(&f, "pre-SSA");
    let ssa = ssa_stage(&mut f, &req, &mut am, &mut phases).expect("no --verify-each");
    verify_ssa(&f).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_live_exact(&f, "SSA");
    if let Some(k) = k {
        spill_stage(&mut f, k, SpillStrategy::CostGuided, &mut am, &mut phases)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_live_exact(&f, "spilled");
    }
    let trace = destruction_stage(&mut f, pipeline, true, &mut am, &mut phases)
        .trace
        .expect("traced");
    let diags = audit_destruction(&trace);
    assert!(diags.is_empty(), "{what}: {diags:?}");
    assert_live_exact(&f, "destructed");
    if let Some(k) = k {
        let alloc = allocation_stage(&mut f, k, &mut am, &mut phases)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let diags = audit_allocation(&f, &alloc.coloring, k, f.spill_slot_count());
        assert!(diags.is_empty(), "{what}: {diags:?}");
    }
    (f, ssa.stats)
}

fn ret(f: &Function, args: &[i64]) -> Option<i64> {
    run(f, args)
        .unwrap_or_else(|e| panic!("@{} on {args:?}: {e:?}", f.name))
        .ret
}

#[test]
fn a_spilled_param_of_non_strict_input_compiles_at_every_k() {
    let inputs = [
        fcc::frontend::compile(NON_STRICT).expect("parses"),
        parse_function(NON_STRICT_IR).expect("parses"),
    ];
    for func in &inputs {
        for pipeline in PIPELINES {
            for k in [2, 3, 4] {
                let what = format!("{} k={k}", pipeline.label());
                let out = compile_function(func.clone(), &request(pipeline, Some(k)))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let (audited, stats) = compile_audited(func, pipeline, Some(k));
                assert_eq!(stats.strictness_inits, 1, "{what}: one zero-init, for x");
                assert_eq!(out.func.to_string(), audited.to_string(), "{what}");
                for c in [-3, 0, 1, 5] {
                    let want = if c > 0 { 1 + 2 + 7 + c } else { 1 + 2 + c };
                    assert_eq!(ret(&out.func, &[c]), Some(want), "{what}, c={c}");
                }
            }
        }
    }
}

#[test]
fn a_two_entry_loop_compiles_audits_and_runs_under_every_pipeline() {
    let func = parse_function(TWO_ENTRY_LOOP).expect("parses");
    let cfg = ControlFlowGraph::compute(&func);
    let (b1, b2) = (Block::new(1), Block::new(2));
    assert!(cfg.preds(b1).contains(&b2) && cfg.preds(b2).contains(&b1));
    let argsets: [[i64; 2]; 4] = [[3, 50], [1, 10], [5, 7], [9, 4]];
    let want: Vec<Option<i64>> = argsets.iter().map(|a| ret(&func, a)).collect();
    for pipeline in PIPELINES {
        for k in [None, Some(4)] {
            let what = format!("{} k={k:?}", pipeline.label());
            let out = compile_function(func.clone(), &request(pipeline, k))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let (audited, _) = compile_audited(&func, pipeline, k);
            assert_eq!(out.func.to_string(), audited.to_string(), "{what}");
            for (args, want) in argsets.iter().zip(&want) {
                assert_eq!(ret(&out.func, args), *want, "{what} on {args:?}");
            }
        }
    }
}
