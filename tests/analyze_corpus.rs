//! The `fcc analyze` surface over the whole corpus: every MiniLang
//! example and every bundled kernel must yield a nonempty range/safety
//! summary, the JSON rendering must stay well-formed, and no analysis
//! may ever report an error-severity finding (provable hazards are
//! warnings — the code still runs if the bad path is never taken).
//! What the analysis concludes is pinned too: a digest of the JSON
//! report over four corpora.

use fcc::prelude::*;
use fcc::workloads::{compile_kernel, generate, kernels, GenConfig};

/// Compile, build pruned SSA, and run the sparse solvers plus the
/// memory/alias diagnostics — the same set `fcc analyze` surfaces.
fn analyze(func: &Function) -> (Function, FunctionAnalysis, Vec<Diagnostic>) {
    let f = ssa(func.clone());
    let (fa, diags) = findings(&f, &mut AnalysisManager::new());
    (f, fa, diags)
}

/// The sparse solvers over the SSA function `f`, with their safety and
/// memory findings.
fn findings(f: &Function, am: &mut AnalysisManager) -> (FunctionAnalysis, Vec<Diagnostic>) {
    let fa = FunctionAnalysis::compute(f, am);
    let mut diags = fa.safety_diagnostics(f);
    diags.extend(fcc::alias::memory_diagnostics(f, &fa, None));
    (fa, diags)
}

fn assert_summary_nonempty(what: &str, f: &Function, fa: &FunctionAnalysis, diags: &[Diagnostic]) {
    let text = fa.render_text(f, diags);
    assert!(
        text.contains("reachable") && text.contains("value(s)"),
        "{what}: summary missing range/reachability lines:\n{text}"
    );
    // Every analysis run must classify at least one SSA value.
    assert!(!text.trim().is_empty(), "{what}: empty analyze summary");
    let json = fa.render_json(f, diags);
    for key in [
        "\"function\"",
        "\"blocks\"",
        "\"values\"",
        "\"diagnostics\"",
    ] {
        assert!(json.contains(key), "{what}: JSON missing {key}:\n{json}");
    }
    assert!(
        diags.iter().all(|d| !d.is_error()),
        "{what}: analyze produced error-severity findings"
    );
}

#[test]
fn examples_analyze_nonempty() {
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
        let (f, fa, diags) = analyze(&func);
        assert_summary_nonempty(&path.display().to_string(), &f, &fa, &diags);
    }
    assert!(found >= 6, "expected the .ml example corpus, found {found}");
}

/// The two memory showcase examples carry pinned `mem-*` warnings, and
/// nothing else in the corpus does: the lints fire exactly where the
/// examples document they should.
#[test]
fn example_memory_warnings_are_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let expect = |name: &str| -> &'static [&'static str] {
        match name {
            "alias_guard.ml" => &["mem-oob-access"],
            "dead_store.ml" => &["mem-dead-store", "mem-uninit-load"],
            _ => &[],
        }
    };
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("ml") {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let src = std::fs::read_to_string(&path).expect("readable example");
        let func =
            fcc::frontend::compile(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (_, _, diags) = analyze(&func);
        let mut mem_rules: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule.starts_with("mem-"))
            .map(|d| d.rule)
            .collect();
        mem_rules.sort_unstable();
        assert_eq!(mem_rules, expect(&name), "{name}: mem-* findings drifted");
    }
}

#[test]
fn kernels_analyze_nonempty() {
    for k in fcc::workloads::kernels() {
        let func = fcc::workloads::compile_kernel(k);
        let (f, fa, diags) = analyze(&func);
        assert_summary_nonempty(k.name, &f, &fa, &diags);
    }
}

/// The analysis must agree with itself after optimization: whatever the
/// standard pipeline (which includes `range_fold`) does to a function,
/// re-running the solvers on the result still produces a clean,
/// nonempty report — the pass cannot out-run its own analysis.
#[test]
fn analysis_survives_optimization() {
    for k in fcc::workloads::kernels() {
        let mut f = fcc::workloads::compile_kernel(k);
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        standard_pipeline().run(&mut f, &mut am);
        verify_ssa(&f).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let fa = FunctionAnalysis::compute(&f, &mut am);
        let diags = fa.safety_diagnostics(&f);
        assert_summary_nonempty(k.name, &f, &fa, &diags);
    }
}

/// FNV-1a, 64-bit, over each SSA function's JSON report: reachability
/// counts, every live definition's range, constant and known bits, and
/// every safety and memory finding.
fn verdict_digest(ssa_funcs: impl IntoIterator<Item = Function>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in ssa_funcs {
        let (fa, diags) = findings(&f, &mut AnalysisManager::new());
        for &byte in fa.render_json(&f, &diags).as_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn ssa(mut f: Function) -> Function {
    build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut AnalysisManager::new());
    f
}

/// The combined verdicts `fcc analyze`, the `range-*` and `mem-*` lints
/// and the optimiser read, pinned over the examples, the kernels before
/// and after the standard pipeline, and 200 generated programs. Any
/// change to what the analysis proves moves one of these digests.
#[test]
fn combined_verdicts_are_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ml"))
        .collect();
    paths.sort();
    let examples = paths.iter().map(|p| {
        let src = std::fs::read_to_string(p).expect("readable example");
        ssa(fcc::frontend::compile(&src).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
    });
    let optimised = kernels().iter().map(compile_kernel).map(|mut f| {
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
        standard_pipeline().run(&mut f, &mut am);
        f
    });
    let cfg = GenConfig::default();
    let generated = (0..200).map(|seed| {
        let prog = generate(seed, &cfg);
        ssa(fcc::frontend::lower_program(&prog).expect("generated programs lower"))
    });
    let got = [
        verdict_digest(examples),
        verdict_digest(kernels().iter().map(compile_kernel).map(ssa)),
        verdict_digest(optimised),
        verdict_digest(generated),
    ];
    let want = [
        0x628b_0e4a_cb80_0791,
        0xfdad_efc2_e248_3502,
        0x1855_48b5_858e_88c0,
        0xdcf3_8424_ba23_522e,
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
