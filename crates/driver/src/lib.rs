//! # fcc-driver — batch compilation, instrumentation, and fuzzing
//!
//! The layer between the per-function compiler crates and their
//! front-ends (`fcc`, the bench binaries):
//!
//! * [`pool`] — a std-only scoped work-stealing pool ([`par_map`]) with
//!   wall-vs-cpu [`BatchTiming`];
//! * [`report`] — the pipeline instrumentation layer ([`PhaseTimer`],
//!   [`PhaseRecord`], [`merge_phases`]) and the table printer, shared
//!   with `fcc-bench`;
//! * [`request`] — [`CompileRequest`], the one description of a
//!   compilation (pipeline knobs, fail mode, fuel, jobs, report format)
//!   shared by the library API, the CLI, the serve protocol, and the
//!   serve cache key, plus the unified batch entry point
//!   [`compile_module`]`(module, &req)`;
//! * [`compile`] — [`PipelineSpec`], the one pipeline enum, and the one
//!   definition of each pipeline's recipe: [`ssa_stage`] (SSA build with
//!   the pipeline's folding, then its optimiser pass set) and
//!   [`destruction_stage`] (the pipeline's destruction), and of the
//!   k-register path around them: [`spill_stage`] before destruction and
//!   [`allocation_stage`] (colouring plus its audit) after. They compose
//!   into [`compile_function`], the code path behind `fcc` and `fcc
//!   serve`, and into [`lint_pipeline`], behind `fcc lint` and the bench
//!   tables' certification gate; the bench tables and the fuzzer call
//!   them directly;
//! * [`fuzz`] — the `fcc fuzz` campaign driver: seeded program
//!   generation, a differential interpreter + audit oracle, and greedy
//!   shrinking of failures to minimal MiniLang repros;
//! * [`recover`] — the fault-tolerance layer: per-function panic
//!   isolation ([`recover::contain`]), fuel enforcement, and the
//!   graceful-degradation ladder ([`run_ladder`]) whose per-function
//!   [`FunctionReport`]s the batch entry point aggregates into a
//!   [`BatchOutcome`] (every function ok / recovered / failed).
//!
//! Determinism is the design invariant throughout: workers own their
//! analysis state, results merge in input order, and recovery decisions
//! depend only on the owning function — so any `--jobs` value produces
//! byte-identical output, even under partial failure.
//!
//! ## Example
//!
//! ```
//! use fcc_driver::{compile_module, CompileRequest};
//!
//! let module = fcc_frontend::compile_module(
//!     "fn a(x) { return x + 1; }\nfn b(x) { return x * 2; }",
//! ).unwrap();
//! let batch = compile_module(module, &CompileRequest::new().jobs(2)).unwrap();
//! assert_eq!(batch.counts(), (2, 0, 0));
//! assert!(batch.first_error().is_none());
//! assert!(batch.outcomes().all(|o| !o.func.has_phis()));
//! ```

pub mod compile;
pub mod fuzz;
pub mod pool;
pub mod recover;
pub mod report;
pub mod request;

pub use compile::{
    allocation_stage, compile_function, destruction_stage, lint_pipeline, spill_stage, ssa_stage,
    Destruction, FunctionOutcome, LintOutcome, PipelineSpec, SpillSummary, SsaOutcome,
};
pub use fuzz::{
    check_program, check_program_with, failure_class, fuzz, FuzzConfig, FuzzFailure, FuzzOutcome,
};
pub use pool::{par_map, resolve_jobs, BatchTiming};
pub use recover::{
    compile_function_guarded, run_ladder, Attempt, BatchOutcome, FailMode, FnStatus, FunctionReport,
};
pub use report::{merge_phases, render_phases, us, PhaseRecord, PhaseStats, PhaseTimer, Table};
pub use request::{
    compile_function_report, compile_module, request_deadline, CompileRequest, ReportFormat,
    RequestError, SetError, SetValue,
};

// Deadline plumbing, re-exported so transport layers (fcc-serve) can
// install a request's wall-clock bound around per-function compiles
// without depending on fcc-analysis directly.
pub use fcc_analysis::{fuel::with_deadline, Deadline};
