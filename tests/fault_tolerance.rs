//! Integration tests for the fault-tolerance layer: panic isolation,
//! fuel budgets, and the graceful-degradation ladder — through the
//! unified `CompileRequest` entry point (`fail_mode` selects the
//! abort/skip/degrade behaviour that used to take three functions).
//!
//! Faults are process-global, so every test holds a
//! `fcc::analysis::fault::Guard`, which serialises the tests and
//! disarms every fault when it drops, even on assertion failure.

use fcc::analysis::fault::{self, Fault, Guard};
use fcc::core::CompileError;
use fcc::driver::{
    compile_function_report, compile_module, failure_class, fuzz, CompileRequest, FailMode,
    FnStatus, FuzzConfig, PipelineSpec,
};
use fcc::ir::verify::verify_function;
use fcc::ir::Module;
use fcc::workloads::{compile_kernel, kernels};

/// A small batch: the first few paper kernels as one module.
fn module() -> Module {
    let funcs: Vec<_> = kernels().iter().take(6).map(compile_kernel).collect();
    Module::from_functions(funcs).expect("kernel names are unique")
}

#[test]
fn injected_panic_recovers_to_standard_at_every_jobs_width() {
    let _armed = Guard::arm(Fault::Panic("coalesce-new".into()));
    let req = CompileRequest::new().opt(true).fail_mode(FailMode::Degrade);

    let mut rendered = Vec::new();
    for jobs in [1, 2, 8] {
        let batch = compile_module(module(), &req.clone().jobs(jobs)).expect("valid request");
        let (ok, recovered, failed) = batch.counts();
        assert_eq!((ok, failed), (0, 0), "jobs={jobs}");
        assert_eq!(recovered, batch.functions.len(), "jobs={jobs}");
        for f in &batch.functions {
            assert_eq!(f.status, FnStatus::Recovered { attempts: 2 }, "@{}", f.name);
            assert_eq!(f.attempts.len(), 1);
            assert_eq!(f.attempts[0].error.kind(), "panic");
            assert_eq!(f.attempts[0].error.pass(), Some("coalesce-new"));
            // Recovered output is real code: φ-free, verifier-clean, and
            // certified by the forced --verify-each lint + audit.
            let out = f.outcome.as_ref().expect("recovered outcome");
            assert!(!out.func.has_phis());
            verify_function(&out.func).expect("recovered function verifies");
            assert!(out
                .stat_lines
                .iter()
                .any(|l| l.contains("destruction audit clean")));
        }
        rendered.push(batch.into_surviving_module().to_string());
    }
    assert_eq!(rendered[0], rendered[1], "jobs=1 vs jobs=2");
    assert_eq!(rendered[0], rendered[2], "jobs=1 vs jobs=8");

    // And the recovered module is byte-identical to an honest compile on
    // the rung the ladder landed on (standard, verify forced).
    fault::clear();
    let standard = CompileRequest::new()
        .pipeline(PipelineSpec::Standard)
        .opt(true)
        .verify_each(true)
        .jobs(2);
    let plain = compile_module(module(), &standard).expect("standard compiles");
    assert!(plain.first_error().is_none(), "{:?}", plain.first_error());
    assert_eq!(rendered[0], plain.into_surviving_module().to_string());
}

#[test]
fn solver_spin_trips_fuel_exhaustion_naming_the_pass() {
    let _armed = Guard::arm(Fault::SolverSpin);
    let req = CompileRequest::new()
        .opt(true)
        .fail_mode(FailMode::Degrade)
        .fuel(Some(200_000));

    let func = compile_kernel(&kernels()[0]);
    let report = compile_function_report(&func, &req);

    // Rung 0 (new) and rung 1 (standard, verify forced — its lint also
    // runs the solver) both burn their budget inside the spinning solver;
    // the bare rung never invokes it and lands the function.
    assert_eq!(report.status, FnStatus::Recovered { attempts: 3 });
    assert_eq!(report.attempts.len(), 2);
    match &report.attempts[0].error {
        CompileError::FuelExhausted { pass, spent } => {
            assert_eq!(pass, "range-fold");
            assert!(*spent > 200_000, "spent={spent}");
        }
        other => panic!("expected fuel exhaustion, got: {other}"),
    }
    assert_eq!(report.attempts[1].error.kind(), "fuel");
    assert!(report.fuel_spent > 400_000, "fresh tank per attempt");
    let out = report.outcome.expect("bare rung succeeds");
    assert!(!out.func.has_phis());
    verify_function(&out.func).expect("recovered function verifies");
}

#[test]
fn verifier_violation_after_pass_is_rejected_and_recovers() {
    let _armed = Guard::arm(Fault::VerifierViolation("range-fold".into()));
    let req = CompileRequest::new()
        .opt(true)
        .verify_each(true)
        .fail_mode(FailMode::Degrade);

    let func = compile_kernel(&kernels()[1]);
    let report = compile_function_report(&func, &req);

    // Both optimising rungs run range-fold, get corrupted after it, and
    // are rejected by --verify-each; the bare rung runs no passes.
    assert_eq!(report.status, FnStatus::Recovered { attempts: 3 });
    assert_eq!(report.attempts.len(), 2);
    for attempt in &report.attempts {
        assert_eq!(attempt.error.kind(), "rejected");
        let msg = attempt.error.to_string();
        assert!(msg.contains("range-fold"), "names the pass: {msg}");
    }
    let out = report.outcome.expect("bare rung succeeds");
    verify_function(&out.func).expect("recovered function verifies");
}

#[test]
fn abort_mode_names_the_offending_function_and_pass() {
    let _armed = Guard::arm(Fault::Panic("coalesce-new".into()));
    let batch = compile_module(module(), &CompileRequest::new().jobs(2)).expect("request is valid");
    let (name, err) = batch.first_error().expect("abort surfaces the panic");
    assert_eq!(
        name,
        module().functions()[0].name,
        "names the first function"
    );
    let err = err.to_string();
    assert!(err.contains("coalesce-new"), "{err}");
    assert!(err.contains("panic"), "{err}");
}

#[test]
fn skip_mode_quarantines_deterministically() {
    let _armed = Guard::arm(Fault::Panic("coalesce-new".into()));
    let req = CompileRequest::new().fail_mode(FailMode::Skip);

    let mut outputs = Vec::new();
    for jobs in [1, 4] {
        let batch = compile_module(module(), &req.clone().jobs(jobs)).expect("valid request");
        assert!(batch.functions.iter().all(|f| f.status == FnStatus::Failed));
        assert_eq!(batch.failed_names().len(), batch.functions.len());
        assert!(batch.first_error().is_some());
        outputs.push(batch.into_surviving_module().to_string());
    }
    // Every function used the new pipeline, so all are quarantined, at
    // any width, leaving the same (empty) surviving module.
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn fuzz_reports_fuel_exhaustion_as_a_shrinkable_failure_class() {
    let _armed = Guard::arm(Fault::SolverSpin);
    let cfg = FuzzConfig {
        seeds: 4,
        jobs: 1,
        opt: true,
        fuel: Some(50_000),
        shrink_budget: 200,
        ..Default::default()
    };
    let out = fuzz(&cfg);
    // Seeds whose reference run completes must all hit the spinning
    // solver and be classified as fuel exhaustion, not miscompiles.
    assert!(!out.failures.is_empty(), "spin injection must surface");
    for f in &out.failures {
        assert_eq!(failure_class(&f.detail), "fuel", "{}", f.detail);
        assert!(f.detail.contains("range-fold"), "{}", f.detail);
        // The shrunk repro still fails, in the same class.
        let err = fcc::driver::check_program_with(&f.shrunk, true, Some(50_000))
            .expect_err("shrunk repro reproduces");
        assert_eq!(failure_class(&err), "fuel", "{err}");
    }
}
