//! # fcc-perfbench — the fcc benchmark
//!
//! One run measures one workload along both of the system's end-to-end
//! paths:
//!
//! * **compile** — MiniLang source text to the final module through
//!   `fcc_driver::compile_module` with `jobs = 1`, once per destruction
//!   pipeline (New, Standard, Briggs\*), every output checked on the
//!   interpreter against the pre-SSA reference run;
//! * **serve** — request lines through `fcc serve --socket`, two
//!   closed-loop client connections, the daemon warm-started from a
//!   primed `--cache-dir`, every response checked byte-for-byte against
//!   an in-process `Daemon::handle_line` replay of the same stream.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]). A
//! traced run instead replays the same work layer by layer through the
//! public entry points, timing each call from the benchmark's side
//! ([`trace`]), and reports the per-layer metrics ([`PER_LAYER`]).
//! See `README.md` in this directory for the workloads and the
//! layer → end-to-end map.

pub mod compile;
pub mod corpus;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads; each puts a different layer in charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The bundled kernel corpus, `--opt --k-registers 16`.
    Kernels,
    /// Mid-size generated functions under `--k-registers 8`.
    SpillK8,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Kernels, Workload::SpillK8];

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::SpillK8 => "spill-k8",
        }
    }

    /// Parse the command-line spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input scale: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is tuned for.
    Full,
    /// A few small functions and requests.
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (split between the compile and serve paths).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Compile the first function's first pipeline with `fuel: 1`
    /// under the degrade ladder, so it fails on every rung (the
    /// failure-accounting self-test).
    pub force_failure: bool,
    /// Directory for cache directories and sockets; created and
    /// removed by the run.
    pub scratch: PathBuf,
}

/// Whether a metric is a measured time or a deterministic count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock derived; varies run to run.
    Time,
    /// Depends only on the inputs; identical across runs of one seed.
    Count,
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Time or count.
    pub kind: Kind,
}

/// End-to-end metrics: name, unit, kind.
pub const END_TO_END: [(&str, &str, Kind); 16] = [
    ("setup_s", "s", Kind::Time),
    ("ns_per_inst.new", "ns/inst", Kind::Time),
    ("ns_per_inst.standard", "ns/inst", Kind::Time),
    ("ns_per_inst.briggs_star", "ns/inst", Kind::Time),
    ("ns_per_inst_p90.new", "ns/inst", Kind::Time),
    ("peak_bytes.new", "bytes", Kind::Count),
    ("peak_bytes.briggs_star", "bytes", Kind::Count),
    ("static_copies.new", "count", Kind::Count),
    ("dyn_copies.new", "count", Kind::Count),
    ("dyn_copies.briggs_star", "count", Kind::Count),
    ("weighted_moves.new", "count", Kind::Count),
    ("ok_ratio", "ratio", Kind::Count),
    ("serve_fns_per_s", "fn/s", Kind::Time),
    ("serve_p50_ms", "ms", Kind::Time),
    ("serve_p90_ms", "ms", Kind::Time),
    ("serve_hit_rate", "ratio", Kind::Count),
];

/// Per-layer metrics: name, unit, kind. Times are self times: per
/// corpus pass for the compile layers, per request for the serve
/// layers.
pub const PER_LAYER: [(&str, &str, Kind); 63] = [
    ("frontend.ms", "ms", Kind::Time),
    ("frontend.pass_ms", "ms", Kind::Time),
    ("ssa.build_ms", "ms", Kind::Time),
    ("ssa.verify_ms", "ms", Kind::Time),
    ("ssa.phis", "count", Kind::Count),
    ("ssa.copies_folded", "count", Kind::Count),
    ("analysis.pressure_ms", "ms", Kind::Time),
    ("analysis.liveness_ms", "ms", Kind::Time),
    ("analysis.domtree_ms", "ms", Kind::Time),
    ("analysis.hits", "count", Kind::Count),
    ("analysis.misses", "count", Kind::Count),
    ("opt.ms", "ms", Kind::Time),
    ("opt.rounds", "count", Kind::Count),
    ("opt.insts_removed", "count", Kind::Count),
    ("opt.constfold.ms", "ms", Kind::Time),
    ("opt.constfold.applied", "count", Kind::Count),
    ("opt.copyprop.ms", "ms", Kind::Time),
    ("opt.copyprop.applied", "count", Kind::Count),
    ("opt.range-fold.ms", "ms", Kind::Time),
    ("opt.range-fold.applied", "count", Kind::Count),
    ("opt.store-forward.ms", "ms", Kind::Time),
    ("opt.store-forward.applied", "count", Kind::Count),
    ("opt.redundant-load-elim.ms", "ms", Kind::Time),
    ("opt.redundant-load-elim.applied", "count", Kind::Count),
    ("opt.dead-store-elim.ms", "ms", Kind::Time),
    ("opt.dead-store-elim.applied", "count", Kind::Count),
    ("opt.dce.ms", "ms", Kind::Time),
    ("opt.dce.applied", "count", Kind::Count),
    ("opt.simplify-cfg.ms", "ms", Kind::Time),
    ("opt.simplify-cfg.applied", "count", Kind::Count),
    ("destruct.new.ms", "ms", Kind::Time),
    ("destruct.new.copies", "count", Kind::Count),
    ("destruct.new.peak_bytes", "bytes", Kind::Count),
    ("destruct.standard.ms", "ms", Kind::Time),
    ("destruct.standard.copies", "count", Kind::Count),
    ("destruct.webs.ms", "ms", Kind::Time),
    ("destruct.briggs_star.ms", "ms", Kind::Time),
    ("destruct.briggs_star.matrix_bytes", "bytes", Kind::Count),
    ("destruct.briggs_star.passes", "count", Kind::Count),
    ("spill.ms", "ms", Kind::Time),
    ("spill.spills", "count", Kind::Count),
    ("spill.reloads", "count", Kind::Count),
    ("spill.rounds", "count", Kind::Count),
    ("colour.ms", "ms", Kind::Time),
    ("colour.rounds", "count", Kind::Count),
    ("colour.residual_spills", "count", Kind::Count),
    ("audit.alloc_ms", "ms", Kind::Time),
    ("audit.violations", "count", Kind::Count),
    ("driver.ladder_ms", "ms", Kind::Time),
    ("serve.parse_ms", "ms", Kind::Time),
    ("serve.key_ms", "ms", Kind::Time),
    ("serve.lookup_ms", "ms", Kind::Time),
    ("serve.compile_ms", "ms", Kind::Time),
    ("serve.insert_ms", "ms", Kind::Time),
    ("serve.encode_ms", "ms", Kind::Time),
    ("serve.render_ms", "ms", Kind::Time),
    ("serve.queue_ms", "ms", Kind::Time),
    ("serve.warm_ms", "ms", Kind::Time),
    ("serve.hits", "count", Kind::Count),
    ("serve.misses", "count", Kind::Count),
    ("trace.overhead_ratio", "ratio", Kind::Time),
    ("trace.coverage_ratio", "ratio", Kind::Time),
    ("serve.trace_coverage_ratio", "ratio", Kind::Time),
];

/// Attempts and failures across both paths. A failure is a typed
/// compile error, a wrong output, or a non-ok / mismatching response.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Function compiles (compile path) plus requests (serve path).
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub first_failures: Vec<String>,
}

impl Tally {
    /// Count one attempt and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(e);
            }
        }
    }
}

/// What one run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output checked out.
    pub correct: bool,
    /// See [`Tally::attempted`].
    pub attempted: u64,
    /// See [`Tally::failed`].
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Derived lines printed before the result (paper ratios).
    pub notes: Vec<String>,
    /// Failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Share of the run's seconds given to the compile path; the serve path
/// gets the rest.
const COMPILE_SHARE: f64 = 0.5;

/// A scratch directory removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload.
///
/// # Errors
/// A failure of the benchmark's own machinery (cache directory, socket,
/// a broken input). Compile failures and wrong outputs are not errors:
/// they are counted in the report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let scratch = Scratch(cfg.scratch.clone());
    let corpus = corpus::build(cfg.workload, cfg.size, cfg.seed);
    let prepared = compile::prepare(&corpus);
    let seconds = cfg.seconds.max(0.0);
    let primed_dir = scratch.0.join("primed");
    let mut tally = Tally::default();

    // Both paths repeat identical work (a corpus pass, a serve round),
    // at least once each, until their share of the run is spent.
    let (metrics, notes) = if cfg.trace {
        let budget = Duration::from_secs_f64(seconds * COMPILE_SHARE);
        let c = compile::run_traced(&corpus, &prepared, budget, &mut tally)?;
        serve::prime(&primed_dir, &c.primed)?;
        let mut s = serve::ServeBench::new(&corpus, &primed_dir, &scratch.0)?;
        let start = Instant::now();
        loop {
            s.round(&mut tally)?;
            if start.elapsed().as_secs_f64() >= seconds * (1.0 - COMPILE_SHARE) {
                break;
            }
        }
        (per_layer(&c.layers, &s.finish(true)?), Vec::new())
    } else {
        let mut c = compile::CompileBench::new(&corpus, &prepared, cfg.force_failure);
        let t = Instant::now();
        c.pass(&mut tally);
        let mut compile_s = t.elapsed().as_secs_f64();
        serve::prime(&primed_dir, c.primed())?;
        let mut s = serve::ServeBench::new(&corpus, &primed_dir, &scratch.0)?;
        let t = Instant::now();
        s.round(&mut tally)?;
        let mut serve_s = t.elapsed().as_secs_f64();
        // The paths take turns, so each samples the whole run: a slow
        // stretch on a shared host then slows some passes and rounds of
        // each, not every one of either.
        while compile_s + serve_s < seconds {
            let t = Instant::now();
            if compile_s / COMPILE_SHARE <= serve_s / (1.0 - COMPILE_SHARE) {
                c.pass(&mut tally);
                compile_s += t.elapsed().as_secs_f64();
            } else {
                s.round(&mut tally)?;
                serve_s += t.elapsed().as_secs_f64();
            }
        }
        let s = s.finish(false)?;
        let c = c.finish();
        let notes = vec![paper_ratios(cfg.workload, &c)];
        (end_to_end(&c, &s, &tally), notes)
    };
    drop(scratch);
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        failures: tally.first_failures,
    })
}

fn fill(table: &[(&'static str, &'static str, Kind)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit, kind)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
            kind,
        })
        .collect()
}

fn end_to_end(c: &compile::CompileRun, s: &serve::ServeRun, tally: &Tally) -> Vec<Metric> {
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("setup_s", median(&s.setup_s));
    for (i, &(_, label)) in compile::PIPES.iter().enumerate() {
        let key = match label {
            "new" => "ns_per_inst.new",
            "standard" => "ns_per_inst.standard",
            _ => "ns_per_inst.briggs_star",
        };
        v.insert(key, median(&c.ns_per_inst[i]));
    }
    v.insert("ns_per_inst_p90.new", percentile(&c.ns_per_inst[0], 90.0));
    v.insert("peak_bytes.new", c.peak_bytes[0] as f64);
    v.insert("peak_bytes.briggs_star", c.peak_bytes[2] as f64);
    v.insert("static_copies.new", c.static_copies_new as f64);
    v.insert("dyn_copies.new", c.dyn_copies[0] as f64);
    v.insert("dyn_copies.briggs_star", c.dyn_copies[2] as f64);
    v.insert("weighted_moves.new", c.weighted_moves_new);
    let ok = tally.attempted.saturating_sub(tally.failed) as f64 / tally.attempted.max(1) as f64;
    v.insert("ok_ratio", ok);
    // Like the compile timings, the serve timings come from the round
    // least slowed by other load.
    v.insert("serve_fns_per_s", s.fns_per_s.iter().copied().fold(0.0, f64::max));
    v.insert("serve_p50_ms", s.p50_ms.iter().copied().fold(f64::INFINITY, f64::min));
    v.insert("serve_p90_ms", s.p90_ms.iter().copied().fold(f64::INFINITY, f64::min));
    v.insert("serve_hit_rate", s.hit_rate);
    fill(&END_TO_END, &v)
}

fn per_layer(compile_layers: &BTreeMap<&'static str, f64>, s: &serve::ServeRun) -> Vec<Metric> {
    let mut v: BTreeMap<&str, f64> = compile_layers.clone();
    for (k, x) in &s.layers {
        v.insert(k, *x);
    }
    fill(&PER_LAYER, &v)
}

/// The paper's Table 2 ratios, derived from this run's `ns_per_inst.*`.
fn paper_ratios(w: Workload, c: &compile::CompileRun) -> String {
    let (new, std, bs) = (
        median(&c.ns_per_inst[0]),
        median(&c.ns_per_inst[1]),
        median(&c.ns_per_inst[2]),
    );
    format!(
        "paper-ratio {}: new/standard = {:.3} (paper Table 2: ~1.8; EXPERIMENTS.md: 1.69) \
         new/briggs_star = {:.3} (paper: New faster than Briggs*, ratio < 1)",
        w.name(),
        new / std.max(1e-9),
        new / bs.max(1e-9)
    )
}

/// Recursively copy a flat cache directory (entries, index, sidecars).
pub(crate) fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
