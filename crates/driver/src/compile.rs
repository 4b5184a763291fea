//! Per-function pipeline execution and the parallel batch driver.
//!
//! [`PipelineSpec`] is the one pipeline enum, and four stages hold the
//! one definition of each pipeline's recipe and of the k-register path:
//!
//! * [`ssa_stage`] builds pruned SSA with the request's copy folding,
//!   then runs the pipeline's optimiser pass set;
//! * [`spill_stage`] lowers the SSA form's MaxLive towards k;
//! * [`destruction_stage`] takes the SSA form back out of SSA by the
//!   pipeline's algorithm — the single `match` over [`PipelineSpec`];
//! * [`allocation_stage`] colours the result with k registers and hands
//!   it on only when the feasibility auditor certifies it.
//!
//! [`compile_function`] composes them and is the code path behind `fcc`
//! and `fcc serve`; [`lint_pipeline`] drives the SSA and destruction
//! stages for `fcc lint` and the bench tables' certification gate; the
//! fuzzer and the bench tables call the stages directly. The CLI calls
//! [`compile_function`] once for a single-function file and through
//! [`crate::compile_module`] for multi-function files, where the
//! module's functions are sharded across a scoped thread pool.
//!
//! Parallelism never changes output. Each worker invocation builds its
//! own [`AnalysisManager`] and pass manager (per-function analyses share
//! no mutable state — the managers are keyed to one function's
//! modification epoch), and [`crate::compile_module`] merges results in
//! module order, so `--jobs 1` and `--jobs 64` print byte-identical IR
//! and diagnostics.

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use fcc_analysis::AnalysisManager;
use fcc_core::{coalesce_ssa_managed, coalesce_ssa_traced, CoalesceOptions};
use fcc_ir::Function;
use fcc_lint::{audit_destruction, lint_function, LintReport, LintStage};
use fcc_opt::{
    copy_preserving_pipeline, simplify_cfg_with, standard_pipeline, PipelineViolation, RunSummary,
};
use fcc_pressure::audit_allocation;
use fcc_regalloc::{
    allocate_managed, coalesce_copies_managed, destruct_via_webs, destruct_via_webs_traced,
    spill_to_k_managed, AllocOptions, Allocation, BriggsOptions, GraphMode, SpillStats,
    SpillStrategy,
};
use fcc_ssa::{
    build_ssa_with, destruct_standard_traced, destruct_standard_with, verify_ssa, DestructionTrace,
    SsaFlavor, SsaStats,
};

use crate::report::{PhaseRecord, PhaseTimer};
use crate::request::{CompileRequest, RequestError};

/// The destruction pipeline to run: every algorithm `fcc`, `fcc serve`,
/// the paper tables, `fcc lint` and `fcc fuzz` can name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineSpec {
    /// The paper's dominance-forest coalescer.
    New,
    /// Naive Briggs et al. φ instantiation (no coalescing).
    Standard,
    /// φ-web unioning + the iterated interference-graph coalescer over
    /// copy-related names (Briggs\*; the full-namespace graph gives the
    /// same code, so no pipeline builds it).
    BriggsStar,
}

impl PipelineSpec {
    /// Every pipeline, in the CLI's listing order.
    pub const ALL: [PipelineSpec; 3] = [
        PipelineSpec::New,
        PipelineSpec::Standard,
        PipelineSpec::BriggsStar,
    ];

    /// The canonical spelling, shared by the CLI, the serve protocol,
    /// and the cache key (also what [`Display`](fmt::Display) prints).
    pub fn label(self) -> &'static str {
        match self {
            PipelineSpec::New => "new",
            PipelineSpec::Standard => "standard",
            PipelineSpec::BriggsStar => "briggs-star",
        }
    }

    /// Briggs\* destructs by φ-web unioning, which requires copies kept
    /// un-folded (webs must be interference-free).
    pub fn needs_no_fold(self) -> bool {
        self == PipelineSpec::BriggsStar
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PipelineSpec {
    type Err = RequestError;

    fn from_str(s: &str) -> Result<Self, RequestError> {
        Self::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| RequestError::UnknownPipeline(s.to_string()))
    }
}

/// What the SSA stage did to one function.
#[derive(Clone, Debug)]
pub struct SsaOutcome {
    /// The SSA builder's counters.
    pub stats: SsaStats,
    /// The optimiser's summary when [`CompileRequest::opt`] was set.
    pub opt: Option<RunSummary>,
}

/// The SSA stage of every pipeline: pruned SSA built with `req.fold`,
/// then, under `req.opt`, the pipeline's optimiser pass set, checked
/// pass by pass against the SSA-stage lint suite under
/// `req.verify_each`. Each phase is appended to `phases`.
///
/// The stage does not verify its output; callers that hand the function
/// on run `verify_ssa` themselves, outside any timed interval.
///
/// # Errors
/// The first optimiser pass whose output fails the SSA-stage lint suite
/// (only under `req.verify_each`).
pub fn ssa_stage(
    func: &mut Function,
    req: &CompileRequest,
    am: &mut AnalysisManager,
    phases: &mut Vec<PhaseRecord>,
) -> Result<SsaOutcome, PipelineViolation> {
    let timer = PhaseTimer::start("build-ssa", am);
    let stats = build_ssa_with(func, SsaFlavor::Pruned, req.fold, am);
    phases.push(timer.finish_with(am, &stats));
    if !req.opt {
        return Ok(SsaOutcome { stats, opt: None });
    }
    let timer = PhaseTimer::start("optimise", am);
    // φ-web destruction (briggs-star) needs copies kept alive;
    // copy propagation is standalone copy folding and would merge
    // interfering webs (see fcc_opt::copy_preserving_pipeline).
    let pm = if req.pipeline.needs_no_fold() {
        copy_preserving_pipeline()
    } else {
        standard_pipeline()
    };
    let summary = if req.verify_each {
        pm.run_verified(func, am, LintStage::Ssa)?
    } else {
        pm.run(func, am)
    };
    phases.push(timer.finish(am));
    Ok(SsaOutcome {
        stats,
        opt: Some(summary),
    })
}

/// The spill stage of the k-register path: lower the strict-SSA
/// `func`'s MaxLive towards `k` by `strategy`, recorded as one "spill"
/// phase. MaxLive, the CFG, the dominator tree and the liveness come
/// from `am`, so a function that already fits in `k` registers costs
/// one cached pressure lookup. Reloads define fresh names, so the
/// program stays strict SSA (and therefore chordal) and the destruction
/// stage after it is unchanged; the stage checks that with
/// `verify_ssa`, outside the timed interval.
///
/// # Errors
/// The spilled function is not valid SSA.
pub fn spill_stage(
    func: &mut Function,
    k: u32,
    strategy: SpillStrategy,
    am: &mut AnalysisManager,
    phases: &mut Vec<PhaseRecord>,
) -> Result<SpillStats, String> {
    let timer = PhaseTimer::start("spill", am);
    let stats = spill_to_k_managed(func, k, strategy, am);
    phases.push(timer.finish(am));
    verify_ssa(func).map_err(|e| format!("internal: spilling broke SSA: {e}"))?;
    Ok(stats)
}

/// What the destruction stage did to one function.
#[derive(Clone, Debug)]
pub struct Destruction {
    /// The `--stats` line describing the run (without the leading `; `).
    pub stat_line: String,
    /// The recorded run for `audit_destruction`, when one was asked for.
    pub trace: Option<DestructionTrace>,
}

/// The destruction stage: take SSA `func` out of SSA form by
/// `pipeline`'s algorithm, recording the run's [`DestructionTrace`] when
/// `traced`. Each phase is appended to `phases`; briggs-star records
/// two (φ webs, then the coalescer), every other pipeline one.
pub fn destruction_stage(
    func: &mut Function,
    pipeline: PipelineSpec,
    traced: bool,
    am: &mut AnalysisManager,
    phases: &mut Vec<PhaseRecord>,
) -> Destruction {
    let mut trace: Option<DestructionTrace> = None;
    let stat_line = match pipeline {
        PipelineSpec::New => {
            let opts = CoalesceOptions::default();
            let timer = PhaseTimer::start("coalesce-new", am);
            let s = if traced {
                let (s, t) = coalesce_ssa_traced(func, &opts, am);
                trace = Some(t);
                s
            } else {
                coalesce_ssa_managed(func, &opts, am)
            };
            phases.push(timer.finish_with(am, &s));
            format!(
                "new: {} copies, {} filter, {} forest splits, {} local splits, {} B peak",
                s.copies_inserted, s.filter_copies, s.forest_splits, s.local_splits, s.peak_bytes
            )
        }
        PipelineSpec::Standard => {
            let timer = PhaseTimer::start("destruct-standard", am);
            let s = if traced {
                let (s, t) = destruct_standard_traced(func, am);
                trace = Some(t);
                s
            } else {
                destruct_standard_with(func, am)
            };
            phases.push(timer.finish_with(am, &s));
            format!(
                "standard: {} copies, {} cycle temps",
                s.copies_inserted, s.cycle_temps
            )
        }
        PipelineSpec::BriggsStar => {
            let timer = PhaseTimer::start("webs", am);
            let w = if traced {
                let (w, t) = destruct_via_webs_traced(func);
                trace = Some(t);
                w
            } else {
                destruct_via_webs(func)
            };
            phases.push(timer.finish_with(am, &w));
            let timer = PhaseTimer::start("briggs-coalesce", am);
            let opts = BriggsOptions {
                mode: GraphMode::Restricted,
            };
            let s = coalesce_copies_managed(func, &opts, am);
            phases.push(timer.finish_with(am, &s));
            format!(
                "{}: {} removed, {} remaining, {} passes, {} B peak matrix",
                pipeline.label(),
                s.copies_removed,
                s.copies_remaining,
                s.passes.len(),
                s.peak_matrix_bytes()
            )
        }
    };
    Destruction { stat_line, trace }
}

/// The allocation stage of the k-register path: colour the φ-free `func`
/// with exactly `k` registers, spilling residually where it must,
/// recorded as one "allocate" phase. Outside the timed interval the
/// auditor certifies the hard bound from the program text alone: it
/// recomputes liveness and checks that every point fits in `k`
/// registers with no clashes and that the spill code obeys the
/// one-slot-one-value discipline.
///
/// # Errors
/// The allocator did not converge, or its result failed the audit.
pub fn allocation_stage(
    func: &mut Function,
    k: u32,
    am: &mut AnalysisManager,
    phases: &mut Vec<PhaseRecord>,
) -> Result<Allocation, String> {
    let timer = PhaseTimer::start("allocate", am);
    let opts = AllocOptions {
        registers: k as usize,
    };
    let alloc = allocate_managed(func, &opts, am).map_err(|e| format!("allocation failed: {e}"))?;
    phases.push(timer.finish(am));
    let diags = audit_allocation(func, &alloc.coloring, k, func.spill_slot_count());
    if let Some(first) = diags.first() {
        return Err(format!(
            "internal: k={k} allocation failed its audit with {} violation(s); first: {first}",
            diags.len()
        ));
    }
    Ok(alloc)
}

/// One function linted through a pipeline by [`lint_pipeline`].
#[derive(Debug)]
pub struct LintOutcome {
    /// The function as last linted.
    pub func: Function,
    /// One report per stage boundary reached (Cfg, Ssa, Final), in
    /// order; the Final report carries `audit_destruction`'s findings.
    pub reports: Vec<LintReport>,
    /// Under `opt`, the optimiser pass whose output failed the SSA-stage
    /// suite; linting stops there, short of the Ssa boundary.
    pub violation: Option<PipelineViolation>,
}

/// Lint `func` through `req`'s pipeline: the `fcc-lint` suite at the
/// Cfg, Ssa and Final boundaries, the optimiser (under `req.opt`)
/// verified after every pass, and the destruction run audited by
/// `audit_destruction`. This is `fcc lint` and the bench tables'
/// certification gate.
pub fn lint_pipeline(mut func: Function, req: &CompileRequest) -> LintOutcome {
    let mut am = AnalysisManager::new();
    let mut phases = Vec::new();
    let mut reports = vec![lint_function(&func, &mut am, LintStage::Cfg)];
    let req = req.clone().verify_each(true);
    if let Err(v) = ssa_stage(&mut func, &req, &mut am, &mut phases) {
        // Later stages would lint a function already known bad.
        return LintOutcome {
            func,
            reports,
            violation: Some(v),
        };
    }
    reports.push(lint_function(&func, &mut am, LintStage::Ssa));
    let trace = destruction_stage(&mut func, req.pipeline, true, &mut am, &mut phases)
        .trace
        .expect("traced destruction records its run");
    reports.push(final_report(&func, &trace));
    LintOutcome {
        func,
        reports,
        violation: None,
    }
}

/// The Final-boundary lint report of a destructed function, carrying
/// the audit of the run's congruence classes and Waiting copies. Linted
/// against a fresh manager, so no cached analysis can hide a break.
fn final_report(func: &Function, trace: &DestructionTrace) -> LintReport {
    let mut report = lint_function(func, &mut AnalysisManager::new(), LintStage::Final);
    report.diagnostics.extend(audit_destruction(trace));
    report
}

/// What the k-register path did to one function: the SSA-level spiller's
/// work plus the allocator's residual spills, as the bench tables and the
/// CLI `--stats` lines report them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillSummary {
    /// The hard register bound compiled against.
    pub k: u32,
    /// `spill` instructions the SSA-level spiller inserted.
    pub ssa_spills: usize,
    /// `reload` instructions the SSA-level spiller inserted.
    pub ssa_reloads: usize,
    /// MaxLive before any spilling.
    pub maxlive_before: u32,
    /// MaxLive after the SSA-level spiller (φ-parallelism and operand
    /// pins can keep this above `k`; the allocator's residual spilling
    /// closes the gap and the auditor certifies the final result).
    pub maxlive_after: u32,
    /// Values the allocator spilled residually after destruction.
    pub residual_spills: usize,
    /// Total spill slots in the final program (SSA + residual).
    pub slots: u32,
}

/// The result of compiling one function: rewritten code plus everything
/// the CLI may print about it.
#[derive(Clone, Debug)]
pub struct FunctionOutcome {
    /// The rewritten function.
    pub func: Function,
    /// Instrumented phases in execution order.
    pub phases: Vec<PhaseRecord>,
    /// Optimiser summary when [`CompileRequest::opt`] was set.
    pub opt_summary: Option<RunSummary>,
    /// The `--stats` commentary lines, in emission order (without the
    /// leading `; `).
    pub stat_lines: Vec<String>,
    /// Peak bytes held by this function's analysis cache.
    pub analysis_peak_bytes: usize,
    /// SSA-build → rewrite wall time for this function.
    pub compile_time: Duration,
    /// Function-level MaxLive measured on the optimised SSA form, just
    /// before destruction — the certified register demand (see
    /// `fcc-pressure`).
    pub maxlive: u32,
    /// Spill accounting when [`CompileRequest::k_registers`] was set.
    pub spill: Option<SpillSummary>,
}

/// Run the configured pipeline on one pre-SSA function.
///
/// This is `fcc`'s whole middle: SSA construction (with optional
/// optimisation and `--verify-each` gating), spilling under
/// `--k-registers`, destruction by the chosen algorithm, optional CFG
/// simplification, then under `--k-registers` audited allocation.
///
/// # Errors
/// Any phase failure — invalid SSA, a failing `--verify-each` lint
/// report, an unsatisfiable allocation — aborts with a message naming
/// the phase. Precondition violations are caught up front by
/// [`CompileRequest::validate`] (the serve daemon rejects them at the
/// protocol boundary without ever reaching this function).
pub fn compile_function(
    mut func: Function,
    cfg: &CompileRequest,
) -> Result<FunctionOutcome, String> {
    cfg.validate().map_err(|e| e.to_string())?;

    // One manager serves every phase of this function; workers never
    // share managers, so batch compilation has no cross-thread state.
    let mut am = AnalysisManager::new();
    let mut phases: Vec<PhaseRecord> = Vec::new();
    let mut stat_lines: Vec<String> = Vec::new();

    let t0 = Instant::now();
    let ssa = ssa_stage(&mut func, cfg, &mut am, &mut phases)
        .map_err(|v| format!("--verify-each: {v}\n{}", v.report.render_text(&func)))?;
    if let Some(summary) = &ssa.opt {
        stat_lines.push(format!("optimiser: {} rounds to fixpoint", summary.rounds));
    }
    verify_ssa(&func).map_err(|e| format!("internal: invalid SSA: {e}"))?;
    let timer = PhaseTimer::start("maxlive", &am);
    let maxlive = am.pressure(&func).maxlive();
    phases.push(timer.finish(&am));

    // The k-register path spills on strict SSA, before destruction.
    let mut spill_summary: Option<SpillSummary> = None;
    if let Some(k) = cfg.k_registers {
        let s = spill_stage(
            &mut func,
            k,
            SpillStrategy::CostGuided,
            &mut am,
            &mut phases,
        )?;
        stat_lines.push(format!(
            "spill: k={k}, {} spills, {} reloads, {} slots, maxlive {} -> {} in {} round(s)",
            s.spills, s.reloads, s.slots, s.maxlive_before, s.maxlive_after, s.rounds
        ));
        spill_summary = Some(SpillSummary {
            k,
            ssa_spills: s.spills,
            ssa_reloads: s.reloads,
            maxlive_before: s.maxlive_before,
            maxlive_after: s.maxlive_after,
            residual_spills: 0,
            slots: s.slots,
        });
    }

    let destruction = destruction_stage(
        &mut func,
        cfg.pipeline,
        cfg.verify_each,
        &mut am,
        &mut phases,
    );
    stat_lines.push(destruction.stat_line);
    if let Some(trace) = &destruction.trace {
        // --verify-each: lint the destructed function and audit the run.
        let report = final_report(&func, trace);
        if report.has_errors() {
            return Err(format!(
                "--verify-each: destruction pipeline '{}' failed the lint suite\n{}",
                cfg.pipeline.label(),
                report.render_text(&func)
            ));
        }
        if cfg.deny_warnings && report.warning_count() > 0 {
            return Err(format!(
                "--verify-each: destruction pipeline '{}' emitted {} warning(s) \
                 under --deny-warnings\n{}",
                cfg.pipeline.label(),
                report.warning_count(),
                report.render_text(&func)
            ));
        }
        stat_lines.push(format!(
            "verify-each: destruction audit clean ({} warning(s))",
            report.warning_count()
        ));
    }
    if cfg.simplify {
        let timer = PhaseTimer::start("simplify-cfg", &am);
        simplify_cfg_with(&mut func, &mut am);
        phases.push(timer.finish(&am));
    }
    let compile_time = t0.elapsed();
    stat_lines.push(format!(
        "{} phis inserted, {} copies folded during SSA; {} static copies in output; \
         compiled in {:.1} us",
        ssa.stats.phis_inserted,
        ssa.stats.copies_folded,
        func.static_copy_count(),
        compile_time.as_secs_f64() * 1e6
    ));

    if let Some(summary) = spill_summary.as_mut() {
        let k = summary.k;
        let alloc = allocation_stage(&mut func, k, &mut am, &mut phases)?;
        summary.residual_spills = alloc.spilled.len();
        summary.slots = func.spill_slot_count();
        stat_lines.push(format!(
            "allocated {k} registers, {} spilled in {} rounds",
            alloc.spilled.len(),
            alloc.rounds
        ));
        stat_lines.push(format!(
            "audit: allocation certified for k={k} ({} slot(s))",
            summary.slots
        ));
    }

    Ok(FunctionOutcome {
        func,
        phases,
        opt_summary: ssa.opt,
        stat_lines,
        analysis_peak_bytes: am.peak_bytes(),
        compile_time,
        maxlive,
        spill: spill_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::compile_module as compile_module_req;
    use fcc_ir::Module;

    fn module_of(n: usize) -> Module {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!(
                "fn f{i}(n) {{ let s = {i}; for j = 0 to n {{ s = s + j * {}; }} return s; }}\n",
                i + 1
            ));
        }
        fcc_frontend::compile_module(&src).unwrap()
    }

    #[test]
    fn parallel_output_matches_serial_byte_for_byte() {
        let req = CompileRequest::new().opt(true);
        let serial = compile_module_req(module_of(12), &req.clone().jobs(1)).unwrap();
        let parallel = compile_module_req(module_of(12), &req.jobs(4)).unwrap();
        for batch in [&serial, &parallel] {
            assert!(batch.first_error().is_none(), "{:?}", batch.first_error());
        }
        assert_eq!(serial.merged_phases().len(), parallel.merged_phases().len());
        assert_eq!(
            serial.into_surviving_module().to_string(),
            parallel.into_surviving_module().to_string()
        );
    }

    #[test]
    fn every_pipeline_spec_compiles_a_module() {
        for spec in PipelineSpec::ALL {
            let req = CompileRequest::new()
                .pipeline(spec)
                .fold(!spec.needs_no_fold())
                .verify_each(true)
                .jobs(2);
            let out =
                compile_module_req(module_of(3), &req).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(
                out.first_error().is_none(),
                "{spec}: {:?}",
                out.first_error()
            );
            for o in out.outcomes() {
                assert!(!o.func.has_phis(), "{spec}: phis left");
            }
        }
    }

    #[test]
    fn merged_summary_accumulates_pass_applications() {
        let req = CompileRequest::new().opt(true).jobs(3);
        let out = compile_module_req(module_of(6), &req).unwrap();
        assert!(out.first_error().is_none(), "{:?}", out.first_error());
        let merged = out.merged_summary().expect("opt ran");
        assert!(!merged.passes.is_empty());
        let per_fn: usize = out
            .outcomes()
            .filter_map(|o| o.opt_summary.as_ref())
            .flat_map(|s| s.passes.iter().map(|p| p.applications))
            .sum();
        let total: usize = merged.passes.iter().map(|p| p.applications).sum();
        assert_eq!(per_fn, total);
    }

    #[test]
    fn the_maxlive_solve_is_its_own_phase() {
        let func = module_of(1).into_functions().remove(0);
        for (req, before, after) in [
            (CompileRequest::new(), "build-ssa", "coalesce-new"),
            (
                CompileRequest::new().opt(true).k_registers(Some(8)),
                "optimise",
                "spill",
            ),
        ] {
            let out = compile_function(func.clone(), &req).unwrap();
            let labels: Vec<&str> = out.phases.iter().map(|p| p.label).collect();
            let at = labels.iter().position(|&l| l == "maxlive").unwrap();
            assert_eq!((labels[at - 1], labels[at + 1]), (before, after));
            // The solve and the liveness it reads are charged to it.
            let counters = out.phases[at].counters;
            assert_eq!(counters.pressure.misses, 1, "{labels:?}");
            assert_eq!(counters.liveness.hits + counters.liveness.misses, 1);
        }
    }

    #[test]
    fn k_registers_spills_allocates_and_audits() {
        let module = module_of(4);
        for k in [4u32, 8] {
            let req = CompileRequest::new().opt(true).k_registers(Some(k));
            let out = compile_module_req(module.clone(), &req).unwrap();
            assert!(
                out.first_error().is_none(),
                "k={k}: {:?}",
                out.first_error()
            );
            for o in out.outcomes() {
                let s = o.spill.expect("spill summary present");
                assert_eq!(s.k, k);
                assert_eq!(s.slots, o.func.spill_slot_count());
                assert!(
                    o.stat_lines
                        .iter()
                        .any(|l| l.contains("audit: allocation certified")),
                    "k={k}: audit line missing: {:?}",
                    o.stat_lines
                );
            }
        }
    }
}
