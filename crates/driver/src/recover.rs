//! Fault tolerance: panic isolation, fuel enforcement, and the
//! graceful-degradation ladder that makes batch compilation total.
//!
//! Each function compiles inside [`contain`]: a `catch_unwind` boundary
//! with a per-attempt [`Fuel`] budget installed for the worker thread.
//! Anything that goes wrong — a pass panic, a fuel stop, a verifier
//! rejection — comes back as a structured [`CompileError`] attributed to
//! the pass that was running (the same thread-local label stream the
//! phase timers and `--verify-each` maintain), never as a dead batch.
//!
//! On failure, [`run_ladder`] retries the function down a degradation
//! ladder:
//!
//! 1. the requested configuration;
//! 2. the `standard` destruction pipeline (naive φ instantiation — no
//!    coalescer, the component most likely to be the culprit), with
//!    `--verify-each` forced on so recovered output is lint-checked and
//!    `audit_destruction`-audited before it is trusted;
//! 3. bare straight SSA destruction: `standard`, optimiser off, copy
//!    folding off, again fully verified.
//!
//! Every attempt gets a *fresh* fuel budget (degrading and re-running
//! with a half-spent tank would make recovery depend on how far the
//! previous rung got). The per-function [`FunctionReport`] records each
//! failed attempt and the final [`FnStatus`].
//!
//! **Determinism under partial failure** is preserved by construction:
//! the ladder runs entirely inside the worker that owns the function, a
//! function's rung sequence depends only on its own code and the policy,
//! and [`par_map`] already merges results in module order — so outcomes,
//! reports, and surviving output are byte-identical at every `--jobs`
//! width.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use fcc_analysis::fuel::{self, Fuel};
use fcc_core::CompileError;
use fcc_ir::diagnostic::json_escape;
use fcc_ir::{Function, Module};

use crate::compile::{compile_function, FunctionOutcome, ModuleOutcome, PipelineSpec};
use crate::pool::BatchTiming;
use crate::report::Table;
use crate::request::{CompileRequest, RequestError};

/// What the batch does with a function whose compile fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FailMode {
    /// Report the first failure and abort the batch (the pre-existing
    /// `compile_module` contract).
    #[default]
    Abort,
    /// Quarantine the function (drop it from the output module) and keep
    /// going.
    Skip,
    /// Retry down the degradation ladder; quarantine only a function
    /// that exhausts every rung.
    Degrade,
}

impl FailMode {
    /// The canonical spelling, shared by the CLI, the serve protocol,
    /// and the cache key (also what [`Display`](std::fmt::Display)
    /// prints).
    pub fn label(self) -> &'static str {
        match self {
            FailMode::Abort => "abort",
            FailMode::Skip => "skip",
            FailMode::Degrade => "degrade",
        }
    }
}

impl std::fmt::Display for FailMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for FailMode {
    type Err = RequestError;

    fn from_str(s: &str) -> Result<Self, RequestError> {
        [FailMode::Abort, FailMode::Skip, FailMode::Degrade]
            .into_iter()
            .find(|m| m.label() == s)
            .ok_or_else(|| RequestError::UnknownFailMode(s.to_string()))
    }
}

thread_local! {
    /// Depth of active [`contain`] frames on this thread. While > 0 the
    /// process panic hook stays silent: the panic is expected, caught,
    /// and classified — a backtrace per recovered function is noise.
    static CONTAINING: Cell<usize> = const { Cell::new(0) };
}

/// Install (once, process-wide) a panic hook that defers to the previous
/// hook except while the current thread is inside [`contain`].
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAINING.with(|c| c.get()) == 0 {
                prev(info);
            }
        }));
    });
}

/// Run `f` under the shared containment boundary: a fresh [`Fuel`]
/// budget of `fuel_limit` steps installed for this thread, inside
/// `catch_unwind`. Returns the classified result plus the steps spent.
///
/// This is the one mechanism behind both the batch driver and `fcc
/// fuzz`: a panic payload is downcast — a typed
/// [`fcc_analysis::FuelExhausted`] becomes
/// [`CompileError::FuelExhausted`], anything else a
/// [`CompileError::Panic`] attributed to the thread's current pass
/// label.
pub fn contain<T>(
    fuel_limit: Option<u64>,
    f: impl FnOnce() -> Result<T, String>,
) -> (Result<T, CompileError>, u64) {
    let tank = match fuel_limit {
        Some(limit) => Fuel::limited(limit),
        None => Fuel::unlimited(),
    };
    fuel::set_pass("<start>");
    install_quiet_hook();
    let caught = {
        CONTAINING.with(|c| c.set(c.get() + 1));
        struct Uncontain;
        impl Drop for Uncontain {
            fn drop(&mut self) {
                CONTAINING.with(|c| c.set(c.get() - 1));
            }
        }
        let _guard = Uncontain;
        fuel::with_fuel(&tank, || catch_unwind(AssertUnwindSafe(f)))
    };
    let result = match caught {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(detail)) => Err(CompileError::Rejected { detail }),
        Err(payload) => Err(CompileError::from_panic(payload, fuel::current_pass())),
    };
    (result, tank.spent())
}

/// [`compile_function`] under [`contain`]: one attempt, isolated.
pub fn compile_function_guarded(
    func: Function,
    req: &CompileRequest,
    fuel_limit: Option<u64>,
) -> (Result<FunctionOutcome, CompileError>, u64) {
    contain(fuel_limit, move || compile_function(func, req))
}

/// One failed rung of the ladder.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The rung's label (`"new"`, `"standard"`, `"bare"`, …).
    pub rung: String,
    /// Why it failed.
    pub error: CompileError,
}

/// Final disposition of one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FnStatus {
    /// The requested configuration succeeded first try.
    Ok,
    /// A lower rung succeeded after `attempts` total tries (≥ 2).
    Recovered { attempts: usize },
    /// Every rung failed; the function is quarantined.
    Failed,
}

impl FnStatus {
    /// Fixed spelling for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FnStatus::Ok => "ok",
            FnStatus::Recovered { .. } => "recovered",
            FnStatus::Failed => "failed",
        }
    }
}

/// Everything the ladder learned about one function.
#[derive(Clone, Debug)]
pub struct FunctionReport {
    /// The function's name.
    pub name: String,
    /// Final disposition.
    pub status: FnStatus,
    /// The failed attempts, in rung order (empty for [`FnStatus::Ok`]).
    pub attempts: Vec<Attempt>,
    /// Fuel steps spent across all attempts (counted even without a
    /// limit).
    pub fuel_spent: u64,
    /// The surviving compile, for `Ok` / `Recovered`.
    pub outcome: Option<FunctionOutcome>,
}

impl FunctionReport {
    /// Did any attempt die to the request's wall-clock deadline? Such a
    /// report is a statement about machine load, not about the function
    /// — caches must never store it, and the serve daemon turns it into
    /// a request-level `deadline-exceeded` error rather than a
    /// per-function quarantine.
    pub fn hit_deadline(&self) -> bool {
        self.attempts.iter().any(|a| a.error.is_deadline())
    }
}

fn same_rung(a: &CompileRequest, b: &CompileRequest) -> bool {
    a.pipeline == b.pipeline
        && a.fold == b.fold
        && a.opt == b.opt
        && a.verify_each == b.verify_each
        && a.simplify == b.simplify
}

/// The rung sequence for `req` (per its `fail_mode`). Rung 0 is always
/// the requested configuration; `Degrade` appends the `standard`
/// pipeline and then bare SSA destruction, both with `--verify-each`
/// forced on (recovered output is only trusted once the lint suite and
/// the destruction audit have passed). Rungs identical to an earlier
/// one are dropped.
pub fn ladder(req: &CompileRequest) -> Vec<(String, CompileRequest)> {
    let mut rungs: Vec<(String, CompileRequest)> =
        vec![(req.pipeline.label().to_string(), req.clone())];
    if req.fail_mode == FailMode::Degrade {
        let standard = req
            .clone()
            .pipeline(PipelineSpec::Standard)
            .verify_each(true);
        let bare = req
            .clone()
            .pipeline(PipelineSpec::Standard)
            .fold(false)
            .opt(false)
            .verify_each(true)
            .simplify(false);
        for (label, rung) in [("standard", standard), ("bare", bare)] {
            if !rungs.iter().any(|(_, r)| same_rung(r, &rung)) {
                rungs.push((label.to_string(), rung));
            }
        }
    }
    rungs
}

/// Compile `func` down the ladder until a rung succeeds. Every attempt
/// is contained and gets a fresh fuel budget of `req.fuel` steps.
///
/// This is the per-function engine behind the unified
/// [`crate::request::compile_module`] entry point; the serve daemon also
/// calls it for cache misses.
pub fn run_ladder(func: &Function, req: &CompileRequest) -> FunctionReport {
    let rungs = ladder(req);
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut fuel_spent = 0u64;
    for (tried, (label, rung)) in rungs.iter().enumerate() {
        let (result, spent) = compile_function_guarded(func.clone(), rung, req.fuel);
        fuel_spent += spent;
        match result {
            Ok(outcome) => {
                let status = if tried == 0 {
                    FnStatus::Ok
                } else {
                    FnStatus::Recovered {
                        attempts: tried + 1,
                    }
                };
                return FunctionReport {
                    name: func.name.clone(),
                    status,
                    attempts,
                    fuel_spent,
                    outcome: Some(outcome),
                };
            }
            Err(error) => {
                // A missed deadline ends the ladder: the clock that
                // killed this rung has already expired, so lower rungs
                // can only burn more wall time past the budget.
                let stop = error.is_deadline();
                attempts.push(Attempt {
                    rung: label.clone(),
                    error,
                });
                if stop {
                    break;
                }
            }
        }
    }
    FunctionReport {
        name: func.name.clone(),
        status: FnStatus::Failed,
        attempts,
        fuel_spent,
        outcome: None,
    }
}

/// One fault-tolerant batch: a report per function, in module order.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-function reports, index-aligned with the input module.
    pub functions: Vec<FunctionReport>,
    /// Pool timing for the batch.
    pub timing: BatchTiming,
}

impl BatchOutcome {
    /// `(ok, recovered, failed)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for f in &self.functions {
            match f.status {
                FnStatus::Ok => c.0 += 1,
                FnStatus::Recovered { .. } => c.1 += 1,
                FnStatus::Failed => c.2 += 1,
            }
        }
        c
    }

    /// The quarantined functions' names, in module order.
    pub fn failed_names(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.status == FnStatus::Failed)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// The first quarantined function (module order — deterministic at
    /// every `--jobs` width) and its first error.
    pub fn first_error(&self) -> Option<(&str, &CompileError)> {
        self.functions.iter().find_map(|f| {
            (f.status == FnStatus::Failed)
                .then(|| f.attempts.first().map(|a| (f.name.as_str(), &a.error)))
                .flatten()
        })
    }

    /// Convert to the strict [`ModuleOutcome`] contract: any quarantined
    /// function aborts with its name prefixed, exactly as the
    /// pre-fault-tolerance `compile_module` did.
    pub fn into_module_outcome(self) -> Result<ModuleOutcome, String> {
        if let Some((name, e)) = self.first_error() {
            return Err(format!("@{name}: {e}"));
        }
        Ok(ModuleOutcome {
            functions: self
                .functions
                .into_iter()
                .map(|f| f.outcome.expect("no failures: every report has an outcome"))
                .collect(),
            timing: self.timing,
        })
    }

    /// The surviving functions reassembled as a module; quarantined
    /// functions are skipped (the skip set depends only on per-function
    /// results, so the module is identical at every `--jobs` width).
    pub fn into_surviving_module(self) -> Module {
        Module::from_functions(
            self.functions
                .into_iter()
                .filter_map(|f| f.outcome)
                .map(|o| o.func)
                .collect(),
        )
        .expect("compilation preserves the input module's unique names")
    }

    /// The surviving [`FunctionOutcome`]s, in module order.
    pub fn outcomes(&self) -> impl Iterator<Item = &FunctionOutcome> {
        self.functions.iter().filter_map(|f| f.outcome.as_ref())
    }

    /// Phase records summed by label over the surviving functions.
    pub fn merged_phases(&self) -> Vec<crate::report::PhaseRecord> {
        let per: Vec<_> = self.outcomes().map(|o| o.phases.clone()).collect();
        crate::report::merge_phases(&per)
    }

    /// Optimiser summaries merged over the surviving functions.
    pub fn merged_summary(&self) -> Option<fcc_opt::RunSummary> {
        crate::compile::merge_summaries(self.outcomes())
    }

    /// Peak analysis-cache bytes over the workers.
    pub fn analysis_peak_bytes(&self) -> usize {
        self.outcomes()
            .map(|o| o.analysis_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The per-function outcome table (`--report`, text form).
    pub fn outcome_table_text(&self) -> String {
        let mut t = Table::new(&[
            "function",
            "status",
            "maxlive",
            "attempts",
            "fuel",
            "last error",
        ]);
        for f in &self.functions {
            let tried = f.attempts.len() + usize::from(f.outcome.is_some());
            let last = match f.attempts.last() {
                Some(a) => format!("[{}] {}", a.rung, first_line(&a.error.to_string())),
                None => "-".to_string(),
            };
            let maxlive = match &f.outcome {
                Some(o) => o.maxlive.to_string(),
                None => "-".to_string(),
            };
            t.row(vec![
                format!("@{}", f.name),
                f.status.label().to_string(),
                maxlive,
                tried.to_string(),
                f.fuel_spent.to_string(),
                last,
            ]);
        }
        let (ok, recovered, failed) = self.counts();
        format!(
            "{}\n{} ok, {} recovered, {} failed\n",
            t.render().trim_end(),
            ok,
            recovered,
            failed
        )
    }

    /// The outcome table as a JSON document (`--report --format json`).
    pub fn outcome_table_json(&self, fail_mode: FailMode) -> String {
        let (ok, recovered, failed) = self.counts();
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"fail_mode\": \"{}\",\n  \"jobs\": {},\n  \"wall_ms\": {:.3},\n",
            fail_mode.label(),
            self.timing.jobs,
            self.timing.wall.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"ok\": {ok},\n  \"recovered\": {recovered},\n  \"failed\": {failed},\n"
        ));
        out.push_str("  \"functions\": [\n");
        for (i, f) in self.functions.iter().enumerate() {
            let tried = f.attempts.len() + usize::from(f.outcome.is_some());
            let maxlive = match &f.outcome {
                Some(o) => o.maxlive.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"status\": \"{}\", \"maxlive\": {maxlive}, \"attempts\": {}, \"fuel_spent\": {}, \"errors\": [",
                json_escape(&f.name),
                f.status.label(),
                tried,
                f.fuel_spent
            ));
            for (j, a) in f.attempts.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"rung\": \"{}\", \"kind\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}",
                    json_escape(&a.rung),
                    a.error.kind(),
                    match a.error.pass() {
                        Some(p) => format!("\"{}\"", json_escape(p)),
                        None => "null".to_string(),
                    },
                    json_escape(&a.error.to_string())
                ));
                if j + 1 < f.attempts.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("]}");
            if i + 1 < self.functions.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_deduplicates_rungs() {
        // Requesting `standard` already matches rung 1 except for
        // verify_each; a fully-bare request collapses rung 2 too.
        let bare = CompileRequest::new()
            .pipeline(PipelineSpec::Standard)
            .fold(false)
            .verify_each(true)
            .fail_mode(FailMode::Degrade);
        let rungs = ladder(&bare);
        assert_eq!(rungs.len(), 1, "bare request has nowhere to degrade to");
        let degrade = CompileRequest::new().fail_mode(FailMode::Degrade);
        let rungs = ladder(&degrade);
        assert_eq!(rungs.len(), 3);
        assert_eq!(rungs[0].0, "new");
        assert_eq!(rungs[1].0, "standard");
        assert_eq!(rungs[2].0, "bare");
        assert!(rungs[1].1.verify_each && rungs[2].1.verify_each);
        assert_eq!(
            ladder(&CompileRequest::new()).len(),
            1,
            "abort and skip never degrade"
        );
    }

    #[test]
    fn contain_classifies_all_three_failure_shapes() {
        let (r, _) = contain(None, || Ok::<_, String>(7));
        assert_eq!(r.unwrap(), 7);

        let (r, _) = contain(None, || Err::<(), _>("nope".to_string()));
        assert!(matches!(r, Err(CompileError::Rejected { .. })));

        let (r, _) = contain(None, || -> Result<(), String> { panic!("kaboom") });
        match r {
            Err(CompileError::Panic { payload, .. }) => assert!(payload.contains("kaboom")),
            other => panic!("expected Panic, got {other:?}"),
        }

        let (r, spent) = contain(Some(3), || {
            for _ in 0..10 {
                fuel::checkpoint(1);
            }
            Ok::<_, String>(())
        });
        assert!(matches!(r, Err(CompileError::FuelExhausted { .. })));
        assert!(spent > 3, "the spent counter survives the unwind");
    }

    #[test]
    fn a_missed_deadline_ends_the_ladder_without_retries() {
        let module = fcc_frontend::compile_module("fn a(x) { return x + 1; }").unwrap();
        let func = &module.into_functions()[0];
        let req = CompileRequest::new()
            .fail_mode(FailMode::Degrade)
            .deadline_ms(Some(0));
        let deadline = crate::request::request_deadline(&req);
        let report = fuel::with_deadline(deadline, || run_ladder(func, &req));
        assert_eq!(report.status, FnStatus::Failed);
        assert_eq!(
            report.attempts.len(),
            1,
            "degrade must not retry past an expired clock"
        );
        assert!(report.hit_deadline());
        assert_eq!(report.attempts[0].error.kind(), "deadline");
    }
}
