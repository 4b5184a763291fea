//! `fcc fuzz` — differential fuzzing of the destruction pipelines.
//!
//! Thousands of seeded MiniLang programs per second are pushed through
//! the three pipeline families (New with folding, Standard with folding,
//! Briggs\* φ-webs without) — the driver's own [`ssa_stage`] and
//! [`destruction_stage`], so the fuzzer checks exactly what `fcc`
//! compiles — each checked four ways:
//!
//! 1. **Differential interpreter oracle** — the rewritten code must
//!    produce the reference CFG's exact return value and memory.
//! 2. **Destruction audit** — `fcc_lint::audit_destruction` over the
//!    recorded trace (congruence classes, Waiting-copy discipline).
//! 3. **Structural verification** — no surviving φs, `verify_function`
//!    clean.
//! 4. **Failure containment** — each seed runs under the batch driver's
//!    own [`crate::recover::contain`] boundary (`catch_unwind` plus an
//!    optional [`FuzzConfig::fuel`] budget), so a panicking phase or a
//!    non-terminating fixpoint loop counts as a failure for that seed
//!    instead of killing the run. Fuzz and batch share one containment
//!    mechanism.
//! 5. **k-register dimension** — every seed is additionally compiled at
//!    k ∈ {4, 8, 16} through the driver's [`spill_stage`] (cost-guided),
//!    the family's own destruction and [`allocation_stage`] (a hard
//!    bound of k registers, certified by `audit_allocation`), and the
//!    final (possibly residually spilled) code re-run against the same
//!    interpreter oracle. These findings shrink in their own `"spill"`
//!    class.
//!
//! On failure the greedy AST shrinker (`fcc_workloads::shrink`) re-runs
//! the same oracle on ever-smaller candidates and reports a minimal
//! MiniLang repro, printable with [`fcc_frontend::to_source`]. A
//! candidate only counts when it fails in the same [`failure_class`]
//! (lowering / fuel exhaustion / pipeline) as the original finding.

use fcc_analysis::AnalysisManager;
use fcc_frontend::{ast::Program, lower_program};
use fcc_interp::run_with_memory;
use fcc_ir::{verify::verify_function, Function};
use fcc_lint::audit_destruction;
use fcc_regalloc::SpillStrategy;
use fcc_ssa::verify_ssa;
use fcc_workloads::{generate, shrink, GenConfig};

use crate::compile::{allocation_stage, destruction_stage, spill_stage, ssa_stage, PipelineSpec};
use crate::pool::{par_map, BatchTiming};
use crate::request::CompileRequest;

/// Interpreter memory cells per run (matches the generated-program
/// tests; generator addresses are masked well below this).
const MEM: usize = 256;
/// Interpreter fuel per run (generated programs terminate fast).
const FUEL: u64 = 20_000_000;
/// Register bounds for the k-constrained dimension: tight enough to
/// force spilling on most seeds (k = 4), a realistic machine width
/// (k = 8), and a bound most seeds fit without spilling (k = 16).
const K_SWEEP: [u32; 3] = [4, 8, 16];
/// The three pipeline families, by finding label: New and Standard on
/// folded SSA, Briggs\* on the unfolded SSA its φ webs need.
const FAMILIES: [(&str, PipelineSpec); 3] = [
    ("new", PipelineSpec::New),
    ("standard", PipelineSpec::Standard),
    ("briggs", PipelineSpec::BriggsStar),
];

/// Fuzzing campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of seeds to check.
    pub seeds: u64,
    /// First seed (campaigns are deterministic in `start..start+seeds`).
    pub start: u64,
    /// Worker threads (`0` = available parallelism).
    pub jobs: usize,
    /// Run the optimiser between SSA construction and destruction.
    pub opt: bool,
    /// Program shape.
    pub shape: GenConfig,
    /// Max oracle evaluations the shrinker may spend per failure.
    pub shrink_budget: usize,
    /// Per-seed fuel budget for the compile pipelines (`None` =
    /// unlimited); exhaustion is its own shrinkable failure class.
    pub fuel: Option<u64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 1000,
            start: 0,
            jobs: 0,
            opt: true,
            shape: GenConfig::default(),
            shrink_budget: 4000,
            fuel: None,
        }
    }
}

/// One failing seed, with its shrunk repro.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The failing seed.
    pub seed: u64,
    /// What the oracle saw (first check that failed).
    pub detail: String,
    /// The generated program as-is.
    pub program: Program,
    /// The shrunk repro (still failing).
    pub shrunk: Program,
    /// Oracle evaluations the shrinker spent.
    pub shrink_evals: usize,
    /// Whether shrinking reached a fixpoint within budget.
    pub shrink_converged: bool,
}

/// A whole campaign's result.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Seeds checked.
    pub checked: u64,
    /// Failures in seed order (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
    /// Pool timing of the sweep (excludes shrinking).
    pub timing: BatchTiming,
}

/// The differential oracle: `Ok(())` when every pipeline preserves the
/// program, `Err(detail)` naming the first violated check.
///
/// The oracle is deliberately total: lowering failures and panics are
/// reported as `Err`, a program whose *reference* execution traps is
/// reported as `Ok` (nothing to differentiate against — the shrinker
/// relies on this to reject candidates it broke itself, e.g. by
/// rewriting a divisor to zero).
pub fn check_program(prog: &Program, opt: bool) -> Result<(), String> {
    check_program_with(prog, opt, None)
}

/// [`check_program`] with an explicit per-seed fuel budget, run under
/// the batch driver's containment boundary ([`crate::recover::contain`])
/// so panics and fuel stops are classified exactly as batch compilation
/// classifies them.
pub fn check_program_with(prog: &Program, opt: bool, fuel: Option<u64>) -> Result<(), String> {
    let prog = prog.clone();
    let (result, _spent) = crate::recover::contain(fuel, move || check_program_inner(&prog, opt));
    result.map_err(|e| e.to_string())
}

/// The shrinker's failure classes. Dropping a `let` orphans its uses and
/// such a candidate fails to *lower*; likewise a candidate that merely
/// runs out of fuel is a different finding than a miscompile, and a
/// pipeline whose output traps out-of-bounds where the reference ran
/// clean ("memory") is a different finding than a wrong return value,
/// and anything the k-register dimension flags — broken spill code, an
/// audit violation, a post-allocation miscompile — is a "spill" finding
/// distinct from the unconstrained pipelines. A shrink candidate only
/// counts when its failure class matches the original's.
pub fn failure_class(detail: &str) -> &'static str {
    if detail.starts_with("lowering failed") {
        "lowering"
    } else if detail.starts_with("fuel exhausted") {
        "fuel"
    } else if detail.starts_with("spill ") {
        // Checked before "memory": an out-of-bounds trap introduced by
        // the spill path is a spill-dimension finding.
        "spill"
    } else if detail.contains("out-of-bounds memory access") {
        "memory"
    } else {
        "pipeline"
    }
}

fn oracle_args(prog: &Program) -> Vec<i64> {
    // Small mixed-sign values, deterministic in the arity alone so the
    // shrinker's candidates are judged by the same inputs.
    (0..prog.params.len())
        .map(|i| [5, -3, 9, 2, 7, -1][i % 6])
        .collect()
}

fn run_f(f: &Function, args: &[i64]) -> Result<(Option<i64>, Vec<i64>), String> {
    let out = run_with_memory(f, args, vec![0; MEM], FUEL).map_err(|e| e.to_string())?;
    Ok((out.ret, out.memory))
}

fn check_program_inner(prog: &Program, opt: bool) -> Result<(), String> {
    let base = match lower_program(prog) {
        Ok(f) => f,
        Err(e) => return Err(format!("lowering failed: {e}")),
    };
    verify_function(&base).map_err(|e| format!("front-end CFG invalid: {e}"))?;
    let args = oracle_args(prog);
    // A trapping or diverging reference leaves nothing to compare.
    let Ok(reference) = run_f(&base, &args) else {
        return Ok(());
    };

    let check = |label: &str, func: &Function| -> Result<(), String> {
        if func.has_phis() {
            return Err(format!("{label}: phis survived destruction"));
        }
        verify_function(func).map_err(|e| format!("{label}: invalid output: {e}"))?;
        let got = run_f(func, &args).map_err(|e| format!("{label}: execution failed: {e}"))?;
        if got != reference {
            return Err(format!(
                "{label}: behaviour changed (expected {:?}, got {:?})",
                reference.0, got.0
            ));
        }
        Ok(())
    };
    // Each family's SSA, optionally optimised with its pass set. The
    // stages' phase labels keep panic / fuel attribution accurate here
    // exactly as in batch compilation.
    let ssa_of = |spec: PipelineSpec, what: &str| -> Result<Function, String> {
        let req = CompileRequest::new()
            .pipeline(spec)
            .fold(!spec.needs_no_fold())
            .opt(opt);
        let mut f = base.clone();
        ssa_stage(&mut f, &req, &mut AnalysisManager::new(), &mut Vec::new())
            .map_err(|v| format!("{what}: {v}"))?;
        verify_ssa(&f).map_err(|e| format!("{what}: {e}"))?;
        Ok(f)
    };
    let ssa = ssa_of(PipelineSpec::New, "ssa")?;
    let mut briggs_ssa: Option<Function> = None;
    for (label, spec) in FAMILIES {
        let src = if spec.needs_no_fold() {
            briggs_ssa.insert(ssa_of(spec, "briggs ssa")?)
        } else {
            &ssa
        };
        let mut f = src.clone();
        let d = destruction_stage(
            &mut f,
            spec,
            true,
            &mut AnalysisManager::new(),
            &mut Vec::new(),
        );
        let trace = d.trace.expect("traced destruction records its run");
        if let Some(d) = audit_destruction(&trace).iter().find(|d| d.is_error()) {
            return Err(format!("{label}: audit: {}", d.render(&trace.pre)));
        }
        check(label, &f)?;
    }
    let briggs_ssa = briggs_ssa.expect("the briggs family ran");

    // The k-register dimension: each family's SSA through the driver's
    // own k-register stages (spill, the family's destruction, audited
    // allocation), then the residually-spilled code re-run against the
    // reference. The stages' phase labels attribute panics and fuel
    // exactly as in batch compilation.
    for k in K_SWEEP {
        for (family, spec) in FAMILIES {
            let label = format!("spill {family} k={k}");
            let src = if spec.needs_no_fold() {
                &briggs_ssa
            } else {
                &ssa
            };
            let mut f = src.clone();
            let mut am = AnalysisManager::new();
            let phases = &mut Vec::new();
            spill_stage(&mut f, k, SpillStrategy::CostGuided, &mut am, phases)
                .map_err(|e| format!("{label}: {e}"))?;
            destruction_stage(&mut f, spec, false, &mut am, phases);
            allocation_stage(&mut f, k, &mut am, phases).map_err(|e| format!("{label}: {e}"))?;
            // The final run covers the whole path: SSA spill code,
            // destruction copies, and the allocator's residual spills.
            check(&label, &f)?;
        }
    }
    Ok(())
}

/// Run a fuzzing campaign: sweep the seed range on the pool, then
/// shrink every failure serially (deterministic order and results).
pub fn fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    // The oracle treats panics as findings; silence the default hook's
    // backtrace spam for the duration (the shrinker may re-panic the
    // same bug hundreds of times).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (results, timing) = par_map(cfg.seeds as usize, cfg.jobs, |i| {
        let seed = cfg.start + i as u64;
        let prog = generate(seed, &cfg.shape);
        check_program_with(&prog, cfg.opt, cfg.fuel)
            .err()
            .map(|detail| (seed, prog, detail))
    });

    let failures = results
        .into_iter()
        .flatten()
        .map(|(seed, program, detail)| {
            let class = failure_class(&detail);
            let r = shrink(&program, cfg.shrink_budget, |p| {
                matches!(check_program_with(p, cfg.opt, cfg.fuel),
                         Err(e) if failure_class(&e) == class)
            });
            FuzzFailure {
                seed,
                detail,
                program,
                shrunk: r.program,
                shrink_evals: r.evals,
                shrink_converged: r.converged,
            }
        })
        .collect();
    std::panic::set_hook(hook);

    FuzzOutcome {
        checked: cfg.seeds,
        failures,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_sweep_is_clean() {
        let out = fuzz(&FuzzConfig {
            seeds: 40,
            jobs: 2,
            ..Default::default()
        });
        assert_eq!(out.checked, 40);
        assert!(
            out.failures.is_empty(),
            "unexpected failures: {:?}",
            out.failures
                .iter()
                .map(|f| (f.seed, &f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_accepts_known_good_programs() {
        for seed in [0, 1, 17, 99] {
            let prog = generate(seed, &GenConfig::default());
            check_program(&prog, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_program(&prog, false).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn spill_findings_have_their_own_class() {
        assert_eq!(
            failure_class("spill new k=4: internal: k=4 allocation failed its audit ..."),
            "spill"
        );
        // Even a trap introduced by the spill path stays in the spill
        // class, so the shrinker cannot drift into a "memory" repro.
        assert_eq!(
            failure_class("spill briggs k=8: execution failed: out-of-bounds memory access"),
            "spill"
        );
        assert_eq!(
            failure_class("new: execution failed: out-of-bounds memory access"),
            "memory"
        );
        assert_eq!(failure_class("fuel exhausted in allocate"), "fuel");
    }

    #[test]
    fn oracle_flags_a_program_that_does_not_lower() {
        use fcc_frontend::ast::{Expr, Stmt};
        let prog = Program {
            name: "bad".into(),
            params: vec![],
            body: vec![Stmt::Return {
                value: Some(Expr::Var("undefined_variable".into())),
            }],
        };
        let err = check_program(&prog, false).unwrap_err();
        assert!(err.contains("lowering failed"), "got: {err}");
    }
}
