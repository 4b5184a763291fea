//! # fcc — Fast Copy Coalescing and Live-Range Identification
//!
//! A from-scratch Rust reproduction of **Budimlić, Cooper, Harvey,
//! Kennedy, Oberg, Reeves: "Fast Copy Coalescing and Live-Range
//! Identification" (PLDI 2002)**: converting SSA back to executable CFG
//! form while coalescing φ-related copies in `O(n·α(n))`, with **no
//! interference graph** — interference is decided from liveness and
//! dominance alone, organised by the paper's *dominance forest*.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`ir`] | entity-indexed IR, builder, verifier, textual format |
//! | [`analysis`] | dominators (+O(1) queries), liveness, loops, bitsets, union-find |
//! | [`dataflow`] | sparse abstract interpretation: value ranges, known bits (`fcc analyze`) |
//! | [`alias`] | memory/alias analysis on those fixpoints: alias verdicts, memory-state lattice, `mem-*` checkers |
//! | [`ssa`] | SSA construction (3 flavours, copy folding), parallel copies, Standard destruction |
//! | [`core`] | **the paper's algorithm**: dominance forest + coalescing SSA destruction |
//! | [`driver`] | the one pipeline definition (`PipelineSpec`, `ssa_stage`, `spill_stage`, `destruction_stage`, `allocation_stage`), batch compilation on a work-stealing pool, differential fuzzer, fault-tolerant degradation ladder, the unified `CompileRequest` entry point (`fcc --jobs`, `fcc lint`, `fcc fuzz`, `--fail-mode`) |
//! | [`serve`] | the compile service: JSONL daemon, content-addressed incremental function cache, crash-safe persistent store (`fcc serve`) |
//! | [`regalloc`] | interference graphs, Briggs / Briggs\* coalescers, colouring allocator |
//! | [`pressure`] | register pressure: MaxLive, chordality certificates (MaxLive = χ), spill costs, k-feasibility audit (`fcc pressure`) |
//! | [`interp`] | φ-aware reference interpreter with dynamic-copy accounting |
//! | [`opt`] | scalar optimiser: DCE, constant folding, copy propagation, CFG simplify |
//! | [`lint`] | invariant-checking rule suite + coalescing soundness auditor (`fcc lint`, `--verify-each`) |
//! | [`frontend`] | MiniLang: a small imperative language lowering to copy-rich CFGs |
//! | [`workloads`] | the kernel suite (synthetic analogs of the paper's corpus) + program generator |
//!
//! ## Quick start
//!
//! ```
//! use fcc::prelude::*;
//!
//! // A little source program, compiled to copy-rich CFG code ...
//! let mut func = fcc::frontend::compile(
//!     "fn sum(n) { let s = 0; for i = 0 to n { s = s + i; } return s; }",
//! ).unwrap();
//! let reference = fcc::interp::run(&func, &[10]).unwrap();
//!
//! // One AnalysisManager serves the whole pipeline: CFG, dominators,
//! // and liveness are computed lazily and reused across phases.
//! let mut am = AnalysisManager::new();
//!
//! // ... into pruned SSA with copies folded ...
//! build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
//!
//! // ... and back out, coalescing: zero copies survive here.
//! let stats = coalesce_ssa_managed(&mut func, &CoalesceOptions::default(), &mut am);
//! assert!(!func.has_phis());
//! assert_eq!(stats.copies_inserted, 0);
//!
//! // The destruction phase re-used analyses the SSA builder cached.
//! assert!(am.counters().total_hits() > 0);
//!
//! // Semantics are untouched.
//! let out = fcc::interp::run(&func, &[10]).unwrap();
//! assert_eq!(out.ret, reference.ret);
//! ```
//!
//! See `examples/` for runnable walkthroughs, `crates/bench` for the
//! binaries that regenerate every table of the paper's evaluation, and
//! DESIGN.md / EXPERIMENTS.md for the reproduction notes.

pub use fcc_alias as alias;
pub use fcc_analysis as analysis;
pub use fcc_bench as bench;
pub use fcc_core as core;
pub use fcc_dataflow as dataflow;
pub use fcc_driver as driver;
pub use fcc_frontend as frontend;
pub use fcc_interp as interp;
pub use fcc_ir as ir;
pub use fcc_lint as lint;
pub use fcc_opt as opt;
pub use fcc_pressure as pressure;
pub use fcc_regalloc as regalloc;
pub use fcc_serve as serve;
pub use fcc_ssa as ssa;
pub use fcc_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use fcc_alias::{alias_verdict, memory_diagnostics, solve_memory, AliasVerdict};
    pub use fcc_analysis::{
        AnalysisCounters, AnalysisManager, Fuel, FuelExhausted, PreservedAnalyses,
    };
    pub use fcc_bench::{measure, Measurement, PhaseStats};
    pub use fcc_core::{
        coalesce_ssa, coalesce_ssa_managed, coalesce_ssa_traced, coalesce_ssa_with,
        CoalesceOptions, CoalesceStats,
    };
    pub use fcc_dataflow::{FunctionAnalysis, Interval, RangeAnalysis};
    pub use fcc_driver::{
        compile_function, compile_function_guarded, compile_function_report, compile_module,
        destruction_stage, lint_pipeline, par_map, resolve_jobs, ssa_stage, BatchOutcome,
        BatchTiming, CompileRequest, Destruction, FailMode, FnStatus, FunctionOutcome,
        FunctionReport, LintOutcome, PipelineSpec, ReportFormat, RequestError, SsaOutcome,
    };
    pub use fcc_interp::{run, run_with_memory, Outcome};
    pub use fcc_ir::{
        Block, Diagnostic, Function, FunctionBuilder, Inst, InstKind, Module, Severity, Value,
    };
    pub use fcc_lint::{
        audit_destruction, lint_function, lint_with_rules, pressure_rules, LintReport, LintStage,
    };
    pub use fcc_opt::{
        aggressive_pipeline, copy_preserving_pipeline, standard_pipeline, PassEffect,
        PipelineViolation,
    };
    pub use fcc_pressure::{
        audit_allocation, certify, summarize, ChordalityCertificate, InterferenceRelation,
        PressureSummary, SpillCosts,
    };
    pub use fcc_regalloc::{
        allocate, allocate_managed, coalesce_copies, coalesce_copies_managed, destruct_via_webs,
        destruct_via_webs_traced, spill_to_k, weighted_spill_traffic, AllocOptions, BriggsOptions,
        GraphMode, SpillStats, SpillStrategy,
    };
    pub use fcc_ssa::{
        build_ssa, build_ssa_with, destruct_standard, destruct_standard_traced,
        destruct_standard_with, split_critical_edges, split_critical_edges_with, verify_ssa,
        DestructionTrace, SsaFlavor,
    };
}
