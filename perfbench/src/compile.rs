//! The compile path: MiniLang source → final module, per function,
//! through `fcc_driver::compile_module` with `jobs = 1`.
//!
//! The untraced run times that call and checks every output. The
//! traced run replays `compile_function` layer by layer through the
//! layers' public entry points, in `compile_function`'s order, with a
//! timing wrapper around each optimiser pass, and asserts that the
//! replay prints the same IR and the same optimiser summary as the
//! untraced call.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fcc_analysis::AnalysisManager;
use fcc_core::{coalesce_prepared, CoalesceOptions, CoalesceStats};
use fcc_driver::{
    compile_function, compile_function_report, CompileRequest, FailMode, FnStatus, FunctionReport,
    PipelineSpec,
};
use fcc_interp::{run_with_memory, Outcome};
use fcc_ir::Function;
use fcc_opt::{
    ConstFold, CopyProp, Dce, DeadStoreElim, Pass, PassEffect, PassManager, RangeFold,
    RedundantLoadElim, RunSummary, SimplifyCfg, StoreForward,
};
use fcc_pressure::audit_allocation;
use fcc_regalloc::{
    allocate_managed, coalesce_copies_managed, destruct_via_webs, spill_to_k,
    weighted_spill_traffic, AllocOptions, BriggsOptions, GraphMode, SpillStrategy,
};
use fcc_serve::cache_key;
use fcc_ssa::{
    build_ssa_with, destruct_standard_with, split_critical_edges_with, verify_ssa, SsaFlavor,
};

use crate::corpus::{Corpus, Input, RUN_FUEL};
use crate::trace::Tracer;
use crate::{median, Tally};

/// The measured pipelines and their metric-name suffixes.
pub const PIPES: [(PipelineSpec, &str); 3] = [
    (PipelineSpec::New, "new"),
    (PipelineSpec::Standard, "standard"),
    (PipelineSpec::BriggsStar, "briggs_star"),
];

/// The request every compile of `corpus` uses for `spec`; also the
/// serve daemon's defaults (with `spec = New`).
pub fn request(corpus: &Corpus, spec: PipelineSpec) -> CompileRequest {
    CompileRequest::new()
        .pipeline(spec)
        .fold(!spec.needs_no_fold())
        .opt(corpus.opt)
        .k_registers(corpus.k)
        .jobs(1)
}

/// One input lowered once, with its reference run.
pub struct Prepared {
    /// Pre-SSA IR from the front end.
    pub func: Result<Function, String>,
    /// Input IR instructions (the `ns_per_inst` denominator).
    pub insts: usize,
    /// The pre-SSA interpreter run every output must reproduce.
    pub reference: Result<Outcome, String>,
}

/// Lower every input and run it on the interpreter.
pub fn prepare(corpus: &Corpus) -> Vec<Prepared> {
    corpus
        .inputs
        .iter()
        .map(|input| {
            let func = lower(&input.source);
            let insts = func.as_ref().map_or(1, |f| f.live_inst_count().max(1));
            let reference = func.as_ref().map_err(Clone::clone).and_then(|f| {
                run_with_memory(f, &input.args, vec![0; input.memory_words], RUN_FUEL)
                    .map_err(|e| format!("reference run: {e}"))
            });
            Prepared {
                func,
                insts,
                reference,
            }
        })
        .collect()
}

fn lower(source: &str) -> Result<Function, String> {
    let module = fcc_frontend::compile_module(source)?;
    module
        .into_functions()
        .into_iter()
        .next()
        .ok_or_else(|| "empty source".to_string())
}

/// Check one output: φ-free, verifier-clean, and the same return value
/// and memory as the reference run. Returns the dynamic copy count.
fn check_output(out: &Function, input: &Input, prep: &Prepared) -> Result<u64, String> {
    if out.has_phis() {
        return Err(format!("@{}: phis survived destruction", input.name));
    }
    fcc_ir::verify::verify_function(out)
        .map_err(|e| format!("@{}: invalid output: {e}", input.name))?;
    let reference = prep
        .reference
        .as_ref()
        .map_err(|e| format!("@{}: {e}", input.name))?;
    let got = run_with_memory(out, &input.args, vec![0; input.memory_words], RUN_FUEL)
        .map_err(|e| format!("@{}: output run: {e}", input.name))?;
    if got.behavior() != reference.behavior() {
        return Err(format!(
            "@{}: output differs from the reference run",
            input.name
        ));
    }
    Ok(got.dynamic_copies)
}

/// Copies, spills and reloads, each weighted `10^min(loop depth, 6)` —
/// the cost model of [`weighted_spill_traffic`], extended to copies.
pub fn weighted_moves(func: &Function) -> f64 {
    let mut am = AnalysisManager::new();
    let cfg = am.cfg(func);
    let loops = am.loops(func);
    let mut total = weighted_spill_traffic(func);
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let copies = func
            .block_insts(b)
            .iter()
            .filter(|&&i| func.inst(i).kind.is_copy())
            .count();
        total += copies as f64 * 10f64.powi(loops.depth(b).min(6) as i32);
    }
    total
}

/// Everything the untraced compile path measured.
#[derive(Default)]
pub struct CompileRun {
    /// Per pipeline, per function: the fastest of the corpus passes, in
    /// ns per input instruction. Every pass does the same work, so the
    /// fastest is the one least slowed by other load on the machine.
    pub ns_per_inst: [Vec<f64>; 3],
    /// Complete passes over the corpus.
    pub passes: usize,
    /// Per pipeline: Σ over functions of the peak tracked bytes (the
    /// algorithm's structures plus the analysis cache).
    pub peak_bytes: [u64; 3],
    /// Σ static copies in New's output.
    pub static_copies_new: u64,
    /// Per pipeline: Σ copies executed on the standard inputs.
    pub dyn_copies: [u64; 3],
    /// Σ [`weighted_moves`] of New's output.
    pub weighted_moves_new: f64,
    /// New-pipeline reports of the primed inputs, under their serve
    /// cache keys.
    pub primed: Vec<(String, FunctionReport)>,
}

fn peak_bytes(report: &FunctionReport) -> u64 {
    report.outcome.as_ref().map_or(0, |o| {
        let phase = o.phases.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
        (phase + o.analysis_peak_bytes) as u64
    })
}

/// The untraced compile path, one corpus pass at a time.
pub struct CompileBench<'a> {
    corpus: &'a Corpus,
    prepared: &'a [Prepared],
    force_failure: bool,
    samples: Vec<[Vec<f64>; 3]>,
    run: CompileRun,
}

impl<'a> CompileBench<'a> {
    /// Nothing measured yet. With `force_failure`, the first pass
    /// compiles the first input's first pipeline with `fuel: 1` under the
    /// degrade ladder.
    pub fn new(corpus: &'a Corpus, prepared: &'a [Prepared], force_failure: bool) -> Self {
        CompileBench {
            corpus,
            prepared,
            force_failure,
            samples: vec![Default::default(); corpus.inputs.len()],
            run: CompileRun::default(),
        }
    }

    /// One pass over the corpus. The first compiles and checks every
    /// input; later ones only time the same compiles again.
    pub fn pass(&mut self, tally: &mut Tally) {
        let (corpus, run) = (self.corpus, &mut self.run);
        let first = run.passes == 0;
        let serve_req = request(corpus, PipelineSpec::New);
        for (i, (input, prep)) in corpus.inputs.iter().zip(self.prepared).enumerate() {
            for (p, &(spec, _)) in PIPES.iter().enumerate() {
                let mut req = request(corpus, spec);
                if first && self.force_failure && i == 0 && p == 0 {
                    req = req.fuel(Some(1)).fail_mode(FailMode::Degrade);
                }
                let t0 = Instant::now();
                let batch = fcc_frontend::compile_module(&input.source)
                    .and_then(|m| fcc_driver::compile_module(m, &req).map_err(|e| e.to_string()));
                let ns = t0.elapsed().as_nanos() as f64;
                self.samples[i][p].push(ns / prep.insts as f64);
                if !first {
                    continue;
                }
                let report = batch.and_then(|b| {
                    b.functions
                        .into_iter()
                        .next()
                        .ok_or_else(|| format!("@{}: no function compiled", input.name))
                });
                let verdict = report.and_then(|r| {
                    if r.status != FnStatus::Ok {
                        let why = r
                            .attempts
                            .first()
                            .map(|a| a.error.to_string())
                            .unwrap_or_default();
                        return Err(format!("@{} [{}]: {why}", input.name, spec.label()));
                    }
                    let out = &r
                        .outcome
                        .as_ref()
                        .expect("ok reports carry an outcome")
                        .func;
                    let dyn_copies = check_output(out, input, prep)?;
                    run.dyn_copies[p] += dyn_copies;
                    run.peak_bytes[p] += peak_bytes(&r);
                    if p == 0 {
                        run.static_copies_new += out.static_copy_count() as u64;
                        run.weighted_moves_new += weighted_moves(out);
                        if let Ok(f) = &prep.func {
                            run.primed.push((cache_key(&f.to_string(), &serve_req), r));
                        }
                    }
                    Ok(())
                });
                tally.record(verdict);
            }
        }
        run.passes += 1;
    }

    /// New-pipeline reports of the primed inputs (after the first pass).
    pub fn primed(&self) -> &[(String, FunctionReport)] {
        &self.run.primed
    }

    /// The measurements so far.
    pub fn finish(mut self) -> CompileRun {
        for s in &self.samples {
            for (fastest, passes) in self.run.ns_per_inst.iter_mut().zip(s) {
                fastest.push(passes.iter().copied().fold(f64::INFINITY, f64::min));
            }
        }
        self.run
    }
}

/// An optimiser pass behind a span: same name, same effect.
struct Timed {
    inner: Box<dyn Pass>,
    span: &'static str,
    tracer: Rc<Tracer>,
}

impl Pass for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn run(&self, func: &mut Function, am: &mut fcc_analysis::AnalysisManager) -> PassEffect {
        self.tracer.span(self.span, || self.inner.run(func, am))
    }
}

fn pass_span(name: &str) -> &'static str {
    match name {
        "constfold" => "opt.constfold.ms",
        "copyprop" => "opt.copyprop.ms",
        "range-fold" => "opt.range-fold.ms",
        "store-forward" => "opt.store-forward.ms",
        "redundant-load-elim" => "opt.redundant-load-elim.ms",
        "dead-store-elim" => "opt.dead-store-elim.ms",
        "dce" => "opt.dce.ms",
        "simplify-cfg" => "opt.simplify-cfg.ms",
        _ => "opt.other.ms",
    }
}

fn applied_metric(name: &str) -> &'static str {
    match name {
        "constfold" => "opt.constfold.applied",
        "copyprop" => "opt.copyprop.applied",
        "range-fold" => "opt.range-fold.applied",
        "store-forward" => "opt.store-forward.applied",
        "redundant-load-elim" => "opt.redundant-load-elim.applied",
        "dead-store-elim" => "opt.dead-store-elim.applied",
        "dce" => "opt.dce.applied",
        "simplify-cfg" => "opt.simplify-cfg.applied",
        _ => "opt.other.applied",
    }
}

/// `standard_pipeline()` (or, for the briggs pipelines,
/// `copy_preserving_pipeline()`) with every pass behind a span. The
/// fidelity check compares its `RunSummary` with the real pipeline's,
/// so a drift in either list fails the run.
fn timed_pipeline(web_safe: bool, tracer: &Rc<Tracer>) -> PassManager {
    let passes: Vec<Box<dyn Pass>> = if web_safe {
        vec![
            Box::new(ConstFold),
            Box::new(RangeFold),
            Box::new(StoreForward::web_safe()),
            Box::new(RedundantLoadElim),
            Box::new(DeadStoreElim),
            Box::new(Dce),
            Box::new(SimplifyCfg),
        ]
    } else {
        vec![
            Box::new(ConstFold),
            Box::new(CopyProp),
            Box::new(RangeFold),
            Box::new(StoreForward::default()),
            Box::new(RedundantLoadElim),
            Box::new(DeadStoreElim),
            Box::new(Dce),
            Box::new(SimplifyCfg),
        ]
    };
    passes.into_iter().fold(PassManager::new(), |pm, inner| {
        pm.with(Timed {
            span: pass_span(inner.name()),
            inner,
            tracer: Rc::clone(tracer),
        })
    })
}

type Counts = BTreeMap<&'static str, f64>;

fn add(counts: &mut Counts, key: &'static str, n: usize) {
    *counts.entry(key).or_insert(0.0) += n as f64;
}

fn max_into(counts: &mut Counts, key: &'static str, n: usize) {
    let e = counts.entry(key).or_insert(0.0);
    *e = e.max(n as f64);
}

/// `compile_function`, call for call, with a span around each layer.
fn replica(
    mut func: Function,
    req: &CompileRequest,
    tr: &Rc<Tracer>,
    counts: &mut Counts,
) -> Result<(Function, Option<RunSummary>), String> {
    req.validate().map_err(|e| e.to_string())?;
    let mut am = AnalysisManager::new();
    let ssa = tr.span("ssa.build_ms", || {
        build_ssa_with(&mut func, SsaFlavor::Pruned, req.fold, &mut am)
    });
    add(counts, "ssa.phis", ssa.phis_inserted);
    add(counts, "ssa.copies_folded", ssa.copies_folded);

    let mut summary = None;
    if req.opt {
        let pm = timed_pipeline(req.pipeline.needs_no_fold(), tr);
        let s = tr.span("opt.ms", || pm.run(&mut func, &mut am));
        add(counts, "opt.rounds", s.rounds);
        *counts.entry("opt.insts_removed").or_insert(0.0) += s.total_insts_removed() as f64;
        for p in &s.passes {
            add(counts, applied_metric(p.name), p.applications);
        }
        summary = Some(s);
    }
    tr.span("ssa.verify_ms", || verify_ssa(&func))
        .map_err(|e| format!("invalid SSA: {e}"))?;
    // MaxLive pulls SSA liveness itself; that nested analysis is charged
    // here, as in compile_function's call.
    tr.span("analysis.pressure_ms", || am.pressure(&func).maxlive());

    if let Some(k) = req.k_registers {
        let s = tr.span("spill.ms", || {
            spill_to_k(&mut func, k, SpillStrategy::CostGuided)
        });
        tr.span("ssa.verify_ms", || verify_ssa(&func))
            .map_err(|e| format!("spilling broke SSA: {e}"))?;
        add(counts, "spill.spills", s.spills);
        add(counts, "spill.reloads", s.reloads);
        add(counts, "spill.rounds", s.rounds);
    }

    match req.pipeline {
        PipelineSpec::New => {
            // coalesce_ssa_managed, opened up: its own work is the edge
            // split plus coalesce_prepared; the analyses it pulls are
            // charged to the analysis layer.
            let edges_split = tr.span("destruct.new.ms", || {
                split_critical_edges_with(&mut func, &mut am)
            });
            let (cfg, dt) = tr.span("analysis.domtree_ms", || (am.cfg(&func), am.domtree(&func)));
            let live = tr.span("analysis.liveness_ms", || am.liveness_ssa(&func));
            let s = tr.span("destruct.new.ms", || {
                coalesce_prepared(
                    &mut func,
                    &cfg,
                    &dt,
                    &live,
                    None,
                    &CoalesceOptions::default(),
                    CoalesceStats {
                        edges_split,
                        ..Default::default()
                    },
                )
            });
            add(counts, "destruct.new.copies", s.copies_inserted);
            max_into(counts, "destruct.new.peak_bytes", s.peak_bytes);
        }
        PipelineSpec::Standard => {
            let s = tr.span("destruct.standard.ms", || {
                destruct_standard_with(&mut func, &mut am)
            });
            add(counts, "destruct.standard.copies", s.copies_inserted);
        }
        PipelineSpec::BriggsStar => {
            tr.span("destruct.webs.ms", || destruct_via_webs(&mut func));
            let opts = BriggsOptions {
                mode: GraphMode::Restricted,
                ..Default::default()
            };
            let s = tr.span("destruct.briggs_star.ms", || {
                coalesce_copies_managed(&mut func, &opts, &mut am)
            });
            max_into(
                counts,
                "destruct.briggs_star.matrix_bytes",
                s.peak_matrix_bytes(),
            );
            add(counts, "destruct.briggs_star.passes", s.passes.len());
        }
        other => {
            return Err(format!(
                "the benchmark does not replay the {other} pipeline"
            ))
        }
    }

    if let Some(k) = req.k_registers {
        let opts = AllocOptions {
            registers: k as usize,
            ..Default::default()
        };
        let alloc = tr
            .span("colour.ms", || allocate_managed(&mut func, &opts, &mut am))
            .map_err(|e| format!("allocation failed: {e}"))?;
        let slots = func.spill_slot_count();
        let diags = tr.span("audit.alloc_ms", || {
            audit_allocation(&func, &alloc.coloring, k, slots)
        });
        add(counts, "colour.rounds", alloc.rounds);
        add(counts, "colour.residual_spills", alloc.spilled.len());
        add(counts, "audit.violations", diags.len());
        if !diags.is_empty() {
            return Err(format!("allocation failed its audit: {}", diags[0]));
        }
    }
    let c = am.counters();
    add(counts, "analysis.hits", c.total_hits() as usize);
    add(counts, "analysis.misses", c.total_misses() as usize);
    Ok((func, summary))
}

/// `f()` and its wall time in ns.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_nanos())
}

/// What the traced compile path measured.
pub struct TracedCompile {
    /// Per-layer values: self-time ms per corpus pass (median over
    /// passes) and counts from the first pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// New-pipeline reports of the primed inputs, for the serve path.
    pub primed: Vec<(String, FunctionReport)>,
}

/// Replay the compile path layer by layer for `budget` (at least one
/// pass), asserting fidelity to the untraced entry points.
///
/// # Errors
/// A fidelity violation: the replay's IR or optimiser summary differs
/// from `compile_function`'s.
pub fn run_traced(
    corpus: &Corpus,
    prepared: &[Prepared],
    budget: Duration,
    tally: &mut Tally,
) -> Result<TracedCompile, String> {
    let tr = Rc::new(Tracer::default());
    let serve_req = request(corpus, PipelineSpec::New);
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_counts = Counts::new();
    let mut primed = Vec::new();
    let (mut replica_ns, mut untraced_ns) = (0u128, 0u128);
    // Per compile, the fastest compile_function and compile_function_report
    // over the passes: the ladder's cost is small beside either, so the
    // difference is taken between the least-disturbed timings.
    let mut fastest = vec![(u128::MAX, u128::MAX); corpus.inputs.len() * PIPES.len()];
    let start = Instant::now();
    loop {
        let first = per_pass.is_empty();
        tr.clear();
        let mut counts = Counts::new();
        let (mut pass_untraced, mut pass_replica) = (0u128, 0u128);
        for (i, (input, prep)) in corpus.inputs.iter().zip(prepared).enumerate() {
            tr.set_group(i as u64);
            let func = match tr.span("frontend.pass_ms", || lower(&input.source)) {
                Ok(f) => f,
                Err(e) => {
                    if first {
                        for _ in PIPES {
                            tally.record(Err(format!("@{}: {e}", input.name)));
                        }
                    }
                    continue;
                }
            };
            for (p, &(spec, _)) in PIPES.iter().enumerate() {
                let req = request(corpus, spec);
                // Odd passes make the three calls in reverse, so that no
                // timing always runs on caches the call before it warmed.
                let ((replayed, t_replica), (direct, t_fn), (report, t_report)) =
                    if per_pass.len() % 2 == 0 {
                        let a = timed(|| replica(func.clone(), &req, &tr, &mut counts));
                        let b = timed(|| compile_function(func.clone(), &req));
                        (a, b, timed(|| compile_function_report(&func, &req)))
                    } else {
                        let c = timed(|| compile_function_report(&func, &req));
                        let b = timed(|| compile_function(func.clone(), &req));
                        (timed(|| replica(func.clone(), &req, &tr, &mut counts)), b, c)
                    };
                pass_replica += t_replica;
                pass_untraced += t_fn;
                let f = &mut fastest[i * PIPES.len() + p];
                *f = (f.0.min(t_fn), f.1.min(t_report));

                let verdict = match (&replayed, &direct) {
                    (Ok((f, summary)), Ok(outcome)) => {
                        let text = outcome.func.to_string();
                        if f.to_string() != text {
                            return Err(format!(
                                "fidelity: @{} [{spec}]: the traced replay printed different IR",
                                input.name
                            ));
                        }
                        if *summary != outcome.opt_summary {
                            return Err(format!(
                                "fidelity: @{} [{spec}]: the traced optimiser summary differs \
                                 from the pipeline's",
                                input.name
                            ));
                        }
                        match &report.outcome {
                            Some(o) if o.func.to_string() == text => {
                                check_output(&o.func, input, prep).map(|_| ())
                            }
                            _ => Err(format!(
                                "@{} [{spec}]: the ladder's output differs",
                                input.name
                            )),
                        }
                    }
                    (Err(a), Err(b)) => Err(format!("@{} [{spec}]: {b} (replay: {a})", input.name)),
                    _ => {
                        return Err(format!(
                        "fidelity: @{} [{spec}]: replay and compile_function disagree on failure",
                        input.name
                    ))
                    }
                };
                if first {
                    if spec == PipelineSpec::New {
                        primed.push((cache_key(&func.to_string(), &serve_req), report));
                    }
                    tally.record(verdict);
                }
            }
        }
        per_pass.push(
            tr.self_times()
                .into_iter()
                .map(|(k, ns)| (k, ns as f64 / 1e6))
                .collect(),
        );
        replica_ns += pass_replica;
        untraced_ns += pass_untraced;
        if first {
            first_counts = counts;
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names: Vec<&'static str> = per_pass.iter().flat_map(|m| m.keys().copied()).collect();
    for name in names {
        let xs: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        layers.insert(name, median(&xs));
    }
    let layer_ms: f64 = layers
        .iter()
        .filter(|(k, _)| k.ends_with("ms") && **k != "frontend.pass_ms")
        .map(|(_, v)| v)
        .sum();
    let ladder_ns: i128 = fastest
        .iter()
        .map(|&(direct, report)| report as i128 - direct as i128)
        .sum();
    layers.insert("driver.ladder_ms", ladder_ns as f64 / 1e6);
    let untraced_ms = untraced_ns as f64 / 1e6 / per_pass.len() as f64;
    layers.insert("trace.coverage_ratio", layer_ms / untraced_ms.max(1e-9));
    layers.insert(
        "trace.overhead_ratio",
        (replica_ns as f64 - untraced_ns as f64) / (untraced_ns as f64).max(1.0),
    );
    layers.extend(first_counts);
    Ok(TracedCompile { layers, primed })
}
