//! Pipeline instrumentation: phase timing, cache counters, tables.
//!
//! Every phase of the driver's two pipeline stages
//! ([`crate::compile::ssa_stage`], [`crate::compile::destruction_stage`])
//! and of [`crate::compile::compile_function`] is bracketed by a
//! [`PhaseTimer`], which yields one [`PhaseRecord`]: wall time, the
//! phase's own peak bytes and copy counts, and the analysis-cache hits
//! and misses it caused. `fcc --report`, `fcc serve` and the bench
//! tables all read these records; `fcc-bench` re-exports this module.
//!
//! Timing follows the paper (§4.2): "the timer was started immediately
//! before building SSA form, and its value is recorded immediately after
//! the code is rewritten". Every pipeline shares one
//! [`AnalysisManager`] across its phases, so the CFG computed while
//! building SSA is a cache *hit* when the destruction phase asks for it
//! again.

use std::time::{Duration, Instant};

use fcc_analysis::{AnalysisCounters, AnalysisManager};
use fcc_core::CoalesceStats;
use fcc_regalloc::{BriggsStats, WebStats};
use fcc_ssa::{DestructStats, SsaStats};

// ---------------------------------------------------------------------------
// PhaseStats — the one interface every per-algorithm stats struct speaks.
// ---------------------------------------------------------------------------

/// Common surface over the per-algorithm statistics structs
/// ([`SsaStats`], [`DestructStats`], [`CoalesceStats`], [`WebStats`],
/// [`BriggsStats`]), so every phase record is filled in one way.
pub trait PhaseStats {
    /// Peak bytes of the algorithm's own data structures.
    fn peak_bytes(&self) -> usize {
        0
    }
    /// Copy instructions inserted by this phase.
    fn copies_inserted(&self) -> usize {
        0
    }
    /// Copy instructions removed (folded or coalesced away).
    fn copies_removed(&self) -> usize {
        0
    }
}

impl PhaseStats for SsaStats {
    fn copies_removed(&self) -> usize {
        self.copies_folded
    }
}

impl PhaseStats for DestructStats {
    fn copies_inserted(&self) -> usize {
        self.copies_inserted
    }
}

impl PhaseStats for CoalesceStats {
    fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
    fn copies_inserted(&self) -> usize {
        self.copies_inserted
    }
}

impl PhaseStats for WebStats {}

impl PhaseStats for BriggsStats {
    fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
    fn copies_removed(&self) -> usize {
        self.copies_removed
    }
}

// ---------------------------------------------------------------------------
// PhaseTimer / PhaseRecord — the instrumentation layer.
// ---------------------------------------------------------------------------

/// Wall-time + cache-counter bracket around one pipeline phase.
///
/// Snapshot the manager's counters with [`PhaseTimer::start`], run the
/// phase, then [`PhaseTimer::finish`] (or [`PhaseTimer::finish_with`] to
/// fold in a [`PhaseStats`]) to get the phase's [`PhaseRecord`].
pub struct PhaseTimer {
    label: &'static str,
    start: Instant,
    counters: AnalysisCounters,
}

impl PhaseTimer {
    /// Start timing a phase named `label`.
    ///
    /// Also registers `label` as the thread's current pass (for panic /
    /// fuel-exhaustion attribution) and services the panic-injection
    /// hook, making phase entry the single instrumentation point shared
    /// by the report, the fault-tolerance layer, and the injection
    /// matrix.
    pub fn start(label: &'static str, am: &AnalysisManager) -> Self {
        fcc_analysis::fuel::set_pass(label);
        fcc_analysis::fault::maybe_panic(label);
        PhaseTimer {
            label,
            start: Instant::now(),
            counters: am.counters(),
        }
    }

    /// Close the bracket; the record carries the elapsed time and the
    /// cache hit/miss delta this phase caused.
    pub fn finish(self, am: &AnalysisManager) -> PhaseRecord {
        PhaseRecord {
            label: self.label,
            time: self.start.elapsed(),
            peak_bytes: 0,
            copies_inserted: 0,
            copies_removed: 0,
            counters: am.counters() - self.counters,
        }
    }

    /// [`PhaseTimer::finish`], folding in the phase's own statistics.
    pub fn finish_with(self, am: &AnalysisManager, stats: &dyn PhaseStats) -> PhaseRecord {
        let mut rec = self.finish(am);
        rec.peak_bytes = stats.peak_bytes();
        rec.copies_inserted = stats.copies_inserted();
        rec.copies_removed = stats.copies_removed();
        rec
    }
}

/// One instrumented pipeline phase.
#[derive(Clone, Debug)]
pub struct PhaseRecord {
    /// Phase label (e.g. `build-ssa`, `coalesce-new`).
    pub label: &'static str,
    /// Wall-clock time of the phase.
    pub time: Duration,
    /// Peak bytes of the phase's own data structures.
    pub peak_bytes: usize,
    /// Copy instructions inserted by the phase.
    pub copies_inserted: usize,
    /// Copy instructions removed by the phase.
    pub copies_removed: usize,
    /// Analysis-cache hits/misses charged to this phase.
    pub counters: AnalysisCounters,
}

/// Sum phase records by label, preserving first-appearance order — the
/// shape a batch compilation reports: one row per phase kind with times,
/// copy counts, and cache counters accumulated over every function.
pub fn merge_phases(per_function: &[Vec<PhaseRecord>]) -> Vec<PhaseRecord> {
    let mut merged: Vec<PhaseRecord> = Vec::new();
    for phases in per_function {
        for p in phases {
            match merged.iter_mut().find(|m| m.label == p.label) {
                Some(m) => {
                    m.time += p.time;
                    m.peak_bytes = m.peak_bytes.max(p.peak_bytes);
                    m.copies_inserted += p.copies_inserted;
                    m.copies_removed += p.copies_removed;
                    m.counters += p.counters;
                }
                None => merged.push(p.clone()),
            }
        }
    }
    merged
}

/// Render per-phase records as a fixed-width table: wall time, peak
/// bytes, copies in/out, and cache hit/miss counts, with a TOTAL row and
/// a per-analysis hit/miss breakdown underneath.
pub fn render_phases(phases: &[PhaseRecord]) -> String {
    let mut t = Table::new(&[
        "phase", "time(us)", "peak(B)", "copies+", "copies-", "hits", "misses",
    ]);
    let mut total = AnalysisCounters::default();
    let mut time = Duration::ZERO;
    for p in phases {
        t.row(vec![
            p.label.to_string(),
            us(p.time),
            p.peak_bytes.to_string(),
            p.copies_inserted.to_string(),
            p.copies_removed.to_string(),
            p.counters.total_hits().to_string(),
            p.counters.total_misses().to_string(),
        ]);
        total += p.counters;
        time += p.time;
    }
    t.row(vec![
        "TOTAL".to_string(),
        us(time),
        String::new(),
        String::new(),
        String::new(),
        total.total_hits().to_string(),
        total.total_misses().to_string(),
    ]);
    let mut out = t.render();
    out.push_str("per-analysis hit/miss:");
    for (name, hits, misses) in total.rows() {
        out.push_str(&format!(" {name} {hits}/{misses}"));
    }
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Table rendering + numeric helpers shared with the bench binaries.
// ---------------------------------------------------------------------------

/// Fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with padded columns: first column left-aligned, the rest
    /// right-aligned.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = width[i]));
                } else {
                    line.push_str(&format!("  {:>w$}", c, w = width[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }
}

/// Format a duration in microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{destruction_stage, ssa_stage, PipelineSpec};
    use crate::request::CompileRequest;
    use fcc_workloads::{compile_kernel, kernel};

    /// Run the two pipeline stages on a kernel, as the bench tables do.
    fn run_stages(spec: PipelineSpec) -> (Vec<PhaseRecord>, AnalysisManager) {
        let mut func = compile_kernel(kernel("saxpy").unwrap());
        let req = CompileRequest::new()
            .pipeline(spec)
            .fold(!spec.needs_no_fold());
        let mut am = AnalysisManager::new();
        let mut phases = Vec::new();
        ssa_stage(&mut func, &req, &mut am, &mut phases).unwrap();
        destruction_stage(&mut func, spec, false, &mut am, &mut phases);
        (phases, am)
    }

    #[test]
    fn stages_show_cache_hits() {
        // Sharing one manager across the build/destruct phases must
        // produce structural cache hits on every pipeline (e.g. the
        // domtree query re-using the CFG computed for liveness).
        for spec in PipelineSpec::ALL {
            let (phases, am) = run_stages(spec);
            let mut total = AnalysisCounters::default();
            for p in &phases {
                total += p.counters;
            }
            assert!(total.total_hits() > 0, "{spec}: no analysis-cache hits");
            assert_eq!(total, am.counters(), "{spec}: records miss a query");
            assert!(am.peak_bytes() > 0);
            let rendered = render_phases(&phases);
            assert!(rendered.contains("TOTAL"));
            assert!(rendered.contains("per-analysis hit/miss:"));
        }
    }

    #[test]
    fn phase_records_cover_every_phase() {
        let (phases, _) = run_stages(PipelineSpec::BriggsStar);
        let labels: Vec<&str> = phases.iter().map(|p| p.label).collect();
        assert_eq!(labels, ["build-ssa", "webs", "briggs-coalesce"]);
        assert!(phases.iter().map(|p| p.time).sum::<Duration>() > Duration::ZERO);
    }

    #[test]
    fn merge_phases_sums_by_label_in_first_appearance_order() {
        let (a, _) = run_stages(PipelineSpec::New);
        let (b, _) = run_stages(PipelineSpec::New);
        let merged = merge_phases(&[a.clone(), b.clone()]);
        let labels: Vec<&str> = merged.iter().map(|p| p.label).collect();
        assert_eq!(labels, ["build-ssa", "coalesce-new"]);
        assert_eq!(
            merged[1].copies_inserted,
            a[1].copies_inserted + b[1].copies_inserted
        );
        assert_eq!(merged[0].time, a[0].time + b[0].time);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["File", "A", "B"]);
        t.row(vec!["x".into(), "1".into(), "22".into()]);
        t.row(vec!["longer".into(), "333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("x     "));
    }

    #[test]
    fn us_formats() {
        assert_eq!(us(Duration::from_micros(1500)), "1500.0");
    }
}
