//! The lint suite over the whole corpus: every MiniLang example file,
//! every bundled kernel, and a sweep of generated programs, driven
//! through all four destruction paths with the stage-matched rule suite
//! at each boundary plus the coalescing soundness audit. No
//! error-severity diagnostic may survive anywhere.

use fcc::prelude::*;

/// All four traced destruction paths over a pre-SSA function, each on
/// its own clone; returns `(label, destructed function, trace)`.
fn destruct_all_paths(base: &Function) -> Vec<(&'static str, Function, DestructionTrace)> {
    let mut out = Vec::new();

    let mut f = base.clone();
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
    let (_, t) = coalesce_ssa_traced(&mut f, &CoalesceOptions::default(), &mut am);
    out.push(("new", f, t));

    let mut f = base.clone();
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
    let (_, t) = destruct_standard_traced(&mut f, &mut am);
    out.push(("standard", f, t));

    let mut f = base.clone();
    build_ssa(&mut f, SsaFlavor::Pruned, true);
    let (_, t) = fcc::ssa::destruct_sreedhar_i_traced(&mut f);
    out.push(("sreedhar", f, t));

    // φ-web unioning is only sound on SSA built without copy folding.
    let mut f = base.clone();
    build_ssa(&mut f, SsaFlavor::Pruned, false);
    let (_, t) = destruct_via_webs_traced(&mut f);
    out.push(("webs", f, t));

    out
}

/// Lint one pre-SSA function end to end; `what` labels failures.
fn lint_everything(base: &Function, what: &str) {
    let mut am = AnalysisManager::new();
    let r = lint_function(base, &mut am, LintStage::Cfg);
    assert!(
        !r.has_errors(),
        "{what}: cfg stage\n{}",
        r.render_text(base)
    );

    // SSA stage, both with and without copy folding.
    for fold in [true, false] {
        let mut f = base.clone();
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, fold, &mut am);
        let r = lint_function(&f, &mut am, LintStage::Ssa);
        assert!(
            !r.has_errors(),
            "{what}: ssa stage (fold={fold})\n{}",
            r.render_text(&f)
        );
    }

    // The optimiser in --verify-each mode: every pass must keep the
    // suite green, and the violation (if any) names the pass.
    for (label, pm) in [
        ("standard", standard_pipeline()),
        ("aggressive", aggressive_pipeline()),
    ] {
        let mut f = base.clone();
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        if let Err(v) = pm.run_verified(&mut f, &mut am, LintStage::Ssa) {
            panic!(
                "{what}: {label} pipeline: {v}\n{}",
                v.report.render_text(&f)
            );
        }
    }

    // All four destruction paths: final-stage lint plus the audit.
    for (label, f, trace) in destruct_all_paths(base) {
        assert_clean_destruction(what, label, &f, &trace);
    }

    // Optimise-then-destruct: the coalescer after the standard pipeline
    // on folded SSA, and φ-web unioning after the copy-preserving
    // pipeline on unfolded SSA (running CopyProp before the webs path
    // is the miscompile tests/opt_webs_soundness.rs pins down).
    let mut f = base.clone();
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
    standard_pipeline().run(&mut f, &mut am);
    let (_, t) = coalesce_ssa_traced(&mut f, &CoalesceOptions::default(), &mut am);
    assert_clean_destruction(what, "opt+new", &f, &t);

    let mut f = base.clone();
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut f, SsaFlavor::Pruned, false, &mut am);
    copy_preserving_pipeline().run(&mut f, &mut am);
    let (_, t) = destruct_via_webs_traced(&mut f);
    assert_clean_destruction(what, "opt+webs", &f, &t);
}

/// Final-stage lint plus the destruction audit, with no error findings.
fn assert_clean_destruction(what: &str, label: &str, f: &Function, trace: &DestructionTrace) {
    let mut am = AnalysisManager::new();
    let r = lint_function(f, &mut am, LintStage::Final);
    assert!(
        !r.has_errors(),
        "{what}: {label}: final stage\n{}",
        r.render_text(f)
    );
    let audit = audit_destruction(trace);
    let errors: Vec<String> = audit
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.render(&trace.pre))
        .collect();
    assert!(
        errors.is_empty(),
        "{what}: {label}: destruction audit\n{}",
        errors.join("\n")
    );
}

#[test]
fn examples_directory_lints_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut found = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("ml") {
            continue;
        }
        found += 1;
        let src = std::fs::read_to_string(&path).expect("readable example");
        let func =
            fcc::frontend::compile(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        lint_everything(&func, &path.display().to_string());
    }
    assert!(found >= 6, "expected the .ml example corpus, found {found}");
}

/// The two range-analysis showcase examples must keep producing exactly
/// the warnings they were written to demonstrate: `range_guard.ml` has
/// one provably-dead defensive re-check, `dead_branch.ml` has two.
#[test]
fn range_examples_pin_expected_warnings() {
    for (file, rule, count) in [
        ("range_guard.ml", "range-unreachable-branch", 1),
        ("dead_branch.ml", "range-unreachable-branch", 2),
    ] {
        let path = format!("{}/examples/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("readable example");
        let mut func = fcc::frontend::compile(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
        let r = lint_function(&func, &mut am, LintStage::Ssa);
        assert!(!r.has_errors(), "{file}:\n{}", r.render_text(&func));
        let hits = r.diagnostics.iter().filter(|d| d.rule == rule).count();
        assert_eq!(
            hits,
            count,
            "{file}: expected {count} `{rule}` warning(s)\n{}",
            r.render_text(&func)
        );
    }
}

#[test]
fn kernel_suite_lints_clean() {
    for k in fcc::workloads::kernels() {
        let func = fcc::workloads::compile_kernel(k);
        lint_everything(&func, k.name);
    }
}

#[test]
fn generated_corpus_lints_clean() {
    let seeds: u64 = 8;
    for seed in 0..seeds {
        let cfg = fcc::workloads::GenConfig {
            stmts: 30 + (seed as usize % 4) * 25,
            max_depth: 4,
            vars: 6,
            max_loop: 4,
            params: 2,
            memory_ops: true,
        };
        let prog = fcc::workloads::generate(seed, &cfg);
        let func = fcc::frontend::lower_program(&prog).expect("generated program lowers");
        lint_everything(&func, &format!("generated seed {seed}"));
    }
}
