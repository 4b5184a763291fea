//! # fcc-bench — the experiment harness
//!
//! One binary per table of the paper's evaluation (run with
//! `cargo run --release -p fcc-bench --bin tableN`), plus a `scaling`
//! binary for the §3.7 complexity claim and plain-`main` micro-benchmarks.
//!
//! This library crate holds the *measurement* machinery: best-of-N
//! timing over the kernel suite, the shared table-comparison path, and
//! the lint certification gate every table passes first. It defines no
//! pipeline of its own: [`measure`] times `fcc-driver`'s two pipeline
//! stages ([`ssa_stage`] then [`destruction_stage`]) — the recipe `fcc`
//! and `fcc serve` ship — and [`certify_or_die`] lints through the
//! driver's [`lint_pipeline`], the recipe `fcc lint` checks. The
//! driver's instrumentation layer ([`PhaseTimer`], [`PhaseRecord`],
//! [`Table`]) is re-exported here.
//!
//! ## The measured pipelines
//!
//! Timing follows the paper (§4.2): "the timer was started immediately
//! before building SSA form, and its value is recorded immediately after
//! the code is rewritten". Nothing else — no verification, no pressure
//! measurement — runs inside that interval.
//!
//! * **Standard** — pruned SSA *with* copy folding, then naive Briggs et
//!   al. φ instantiation (no coalescing attempt).
//! * **New** — pruned SSA *with* copy folding, then the paper's
//!   dominance-forest coalescer (`fcc_core::coalesce_ssa`).
//! * **Briggs / Briggs\*** — pruned SSA *without* folding, φ-web live
//!   ranges, then the iterated interference-graph coalescer with the
//!   full / restricted graph.
//!
//! Every pipeline shares one `AnalysisManager` across its phases, so
//! the CFG computed while building SSA is a cache *hit* when the
//! destruction phase asks for it again — the shape of the paper's §3.7
//! accounting ("liveness and dominators are assumed available") made
//! real and measurable.

use std::time::{Duration, Instant};

use fcc_analysis::{AnalysisCounters, AnalysisManager};
use fcc_driver::{destruction_stage, lint_pipeline, ssa_stage, CompileRequest};
use fcc_ir::Function;
use fcc_workloads::{compile_kernel, reference_run, Kernel};

pub use fcc_driver::report::{
    merge_phases, render_phases, us, PhaseRecord, PhaseStats, PhaseTimer, Table,
};
pub use fcc_driver::PipelineSpec;

/// The request a table measures `pipeline` under: the pipeline's own
/// copy folding (the briggs pipelines need it off), nothing else.
fn table_request(pipeline: PipelineSpec) -> CompileRequest {
    CompileRequest::new()
        .pipeline(pipeline)
        .fold(!pipeline.needs_no_fold())
}

// ---------------------------------------------------------------------------
// Lint certification — the fcc-lint gate in front of every evaluation run.
// ---------------------------------------------------------------------------

/// Lint `func` through `pipeline` with the driver's [`lint_pipeline`]:
/// the `fcc-lint` suite at every stage boundary plus the destruction
/// audit, outside any timed region. Returns the first report with
/// errors, rendered.
pub fn certify(func: &Function, pipeline: PipelineSpec) -> Result<(), String> {
    let out = lint_pipeline(func.clone(), &table_request(pipeline));
    match out.reports.iter().find(|r| r.has_errors()) {
        Some(r) => Err(r.render_text(&out.func)),
        None => Ok(()),
    }
}

/// [`certify`] every kernel through each of `pipelines`, exiting the
/// process with an error message on the first failure — the shared
/// preamble of every evaluation binary: a table regenerated from an
/// unsound run is worse than no table.
pub fn certify_or_die(pipelines: &[PipelineSpec]) {
    let mut n = 0;
    for k in fcc_workloads::kernels() {
        let func = compile_kernel(k);
        for &p in pipelines {
            if let Err(e) = certify(&func, p) {
                eprintln!("lint certification failed: {} / {p}: {e}", k.name);
                std::process::exit(1);
            }
            n += 1;
        }
    }
    eprintln!(
        "; lint: certified {n} kernel x pipeline runs ({} rules + destruction audit)",
        fcc_lint::default_rules().len()
    );
}

// ---------------------------------------------------------------------------
// Measurement — best-of-N timing over a kernel.
// ---------------------------------------------------------------------------

/// A measured pipeline run on one kernel.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Kernel name.
    pub name: String,
    /// SSA-build → rewrite wall-clock time (best of `repeats`).
    pub time: Duration,
    /// Peak bytes of the destruction's data structures plus the
    /// rewritten function — the paper's Table 3 metric.
    pub peak_bytes: usize,
    /// Copy instructions left in the rewritten code (Table 5).
    pub static_copies: usize,
    /// Copy instructions executed on the standard inputs (Table 4).
    pub dynamic_copies: u64,
    /// The phase records of one run.
    pub phases: Vec<PhaseRecord>,
}

impl Measurement {
    /// Analysis-cache hit/miss counters of one run.
    pub fn counters(&self) -> AnalysisCounters {
        let mut total = AnalysisCounters::default();
        for p in &self.phases {
            total += p.counters;
        }
        total
    }
}

/// Measure `pipeline` on `kernel`: best-of-`repeats` wall time of the
/// driver's SSA and destruction stages, peak bytes, cache counters, and
/// the static/dynamic copy counts of the final code.
///
/// # Panics
/// Panics if the rewritten kernel fails to execute or behaves
/// differently from the unconverted one — a miscompile, which the test
/// suite rules out.
pub fn measure(pipeline: PipelineSpec, kernel: &Kernel, repeats: usize) -> Measurement {
    let base = compile_kernel(kernel);
    let req = table_request(pipeline);
    let mut best = Duration::MAX;
    let mut last: Option<(Function, Vec<PhaseRecord>, usize)> = None;
    for _ in 0..repeats.max(1) {
        let mut func = base.clone();
        let mut am = AnalysisManager::new();
        let mut phases = Vec::new();
        let t0 = Instant::now();
        ssa_stage(&mut func, &req, &mut am, &mut phases).expect("unverified stages cannot fail");
        let ssa_phases = phases.len();
        destruction_stage(&mut func, pipeline, false, &mut am, &mut phases);
        best = best.min(t0.elapsed());
        last = Some((func, phases, ssa_phases));
    }
    let (func, phases, ssa_phases) = last.expect("at least one repeat");
    let destruct_peak = phases[ssa_phases..]
        .iter()
        .map(|p| p.peak_bytes)
        .max()
        .unwrap_or(0);
    let reference = reference_run(&base, kernel).expect("kernel runs");
    let run = reference_run(&func, kernel)
        .unwrap_or_else(|e| panic!("{} under {pipeline}: {e}", kernel.name));
    assert_eq!(
        reference.behavior(),
        run.behavior(),
        "{} miscompiled by {pipeline}",
        kernel.name
    );
    Measurement {
        name: kernel.name.to_string(),
        time: best,
        peak_bytes: destruct_peak + func.bytes(),
        static_copies: func.static_copy_count(),
        dynamic_copies: run.dynamic_copies,
        phases,
    }
}

// ---------------------------------------------------------------------------
// Shared comparison path for the table binaries.
// ---------------------------------------------------------------------------

/// How the last row of a comparison table summarises the suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Summary {
    /// Geometric mean of the per-kernel ratios (tables 2 and 3).
    Geomean,
    /// Suite totals with the ratio of totals (tables 4 and 5).
    Total,
}

/// The one reporting path shared by the table2–table5 binaries: certify
/// Standard / New / Briggs\* on every kernel ([`certify_or_die`]), then
/// measure them, extract one metric, rank by the paper's selection rule
/// (largest Standard metric first, ten rows), and append the
/// AVERAGE/TOTAL summary row.
///
/// Returns the rendered table plus the suite-wide analysis-cache
/// counters (summed over all three pipelines and kernels).
/// `sort_key`, applied to the **Standard** measurement, implements the
/// selection rule (e.g. Table 5 ranks by *dynamic* copies while showing
/// static counts).
pub fn compare_pipelines(
    headers: [&str; 3],
    repeats: usize,
    value: impl Fn(&Measurement) -> f64,
    cell: impl Fn(&Measurement) -> String,
    sort_key: impl Fn(&Measurement) -> f64,
    summary: Summary,
) -> (Table, AnalysisCounters) {
    let decimals = match summary {
        Summary::Geomean => 2,
        Summary::Total => 3,
    };
    let mut rows: Vec<(f64, Vec<String>)> = Vec::new();
    let mut r_new_std = Vec::new();
    let mut r_new_star = Vec::new();
    let (mut tot_std, mut tot_new, mut tot_star) = (0f64, 0f64, 0f64);
    let mut counters = AnalysisCounters::default();

    let [std, new, star] = [
        PipelineSpec::Standard,
        PipelineSpec::New,
        PipelineSpec::BriggsStar,
    ];
    certify_or_die(&[std, new, star]);
    for k in fcc_workloads::kernels() {
        let std_m = measure(std, k, repeats);
        let new_m = measure(new, k, repeats);
        let star_m = measure(star, k, repeats);
        let (vs, vn, vb) = (value(&std_m), value(&new_m), value(&star_m));
        // A ratio over zero has no place in a geometric mean.
        if vs != 0.0 {
            r_new_std.push(vn / vs);
        }
        if vb != 0.0 {
            r_new_star.push(vn / vb);
        }
        tot_std += vs;
        tot_new += vn;
        tot_star += vb;
        for m in [&std_m, &new_m, &star_m] {
            counters += m.counters();
        }
        rows.push((
            sort_key(&std_m),
            vec![
                k.name.to_string(),
                cell(&std_m),
                cell(&new_m),
                cell(&star_m),
                ratio(vn, vs, decimals),
                ratio(vn, vb, decimals),
            ],
        ));
    }

    // The paper lists the ten largest kernels under its selection rule.
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut table = Table::new(&[
        "File",
        headers[0],
        headers[1],
        headers[2],
        "New/Standard",
        "New/Briggs*",
    ]);
    for (_, cells) in rows.iter().take(10) {
        table.row(cells.clone());
    }
    match summary {
        Summary::Geomean => table.row(vec![
            "AVERAGE".to_string(),
            String::new(),
            String::new(),
            String::new(),
            ratio(geomean(&r_new_std), 1.0, decimals),
            ratio(geomean(&r_new_star), 1.0, decimals),
        ]),
        Summary::Total => table.row(vec![
            "TOTAL".to_string(),
            format!("{}", tot_std as u64),
            format!("{}", tot_new as u64),
            format!("{}", tot_star as u64),
            ratio(tot_new, tot_std, decimals),
            ratio(tot_new, tot_star, decimals),
        ]),
    }
    (table, counters)
}

/// One-line suite-wide cache summary for the table binaries' footers.
pub fn cache_line(counters: &AnalysisCounters) -> String {
    let mut s = format!(
        "analysis cache: {} hits / {} misses (",
        counters.total_hits(),
        counters.total_misses()
    );
    for (i, (name, hits, misses)) in counters.rows().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{name} {hits}/{misses}"));
    }
    s.push(')');
    s
}

// ---------------------------------------------------------------------------
// Numeric helpers.
// ---------------------------------------------------------------------------

/// Format `a / b` with `decimals` places: `inf` for a nonzero value
/// over zero, `-` for 0/0, where no ratio exists.
pub fn ratio(a: f64, b: f64, decimals: usize) -> String {
    if b != 0.0 {
        format!("{:.*}", decimals, a / b)
    } else if a != 0.0 {
        "inf".to_string()
    } else {
        "-".to_string()
    }
}

/// Geometric-mean helper for the AVERAGE rows.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).sum();
    let n = xs.iter().filter(|&&x| x > 0.0).count().max(1);
    (s / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_workloads::kernel;

    #[test]
    fn all_pipelines_preserve_saxpy() {
        // `measure` checks each rewrite against the interpreter.
        let k = kernel("saxpy").unwrap();
        let by = |p: PipelineSpec| measure(p, k, 1);
        assert!(by(PipelineSpec::New).static_copies <= by(PipelineSpec::Standard).static_copies);
        assert_eq!(
            by(PipelineSpec::Briggs).static_copies,
            by(PipelineSpec::BriggsStar).static_copies
        );
        assert!(by(PipelineSpec::New).counters().total_hits() > 0);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(us(Duration::from_micros(1500)), "1500.0");
        assert_eq!(ratio(3.0, 2.0, 2), "1.50");
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_print_inf_or_dash() {
        // Table 4's tomcatv New/Briggs* is 3872 over 0 copies, and svd's
        // is 0 over 0: neither has a finite ratio to print.
        assert_eq!(ratio(3872.0, 0.0, 3), "inf");
        assert_eq!(ratio(0.0, 0.0, 3), "-");
        assert_eq!(ratio(0.0, 7298.0, 3), "0.000");
        assert_eq!(ratio(4739.0, 609.0, 3), "7.782");
    }
}
