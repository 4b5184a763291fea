//! Determinism of the batch driver: `--jobs` must never change output.
//!
//! A 64-function generated module is compiled at widths 1, 2, and 8;
//! the printed IR must be byte-identical, the per-function commentary
//! (the `--stats` lines, which carry every diagnostic the CLI prints)
//! must come back in the same order with the same content, and the copy
//! counts must match exactly. The same holds for the lint path: reports
//! rendered on the pool arrive in module order regardless of width.

use fcc::prelude::*;
use fcc::workloads::{generate, GenConfig};

fn generated_module(n: u64) -> Module {
    let shape = GenConfig::default();
    let funcs = (0..n)
        .map(|seed| {
            let mut f = fcc::frontend::lower_program(&generate(seed, &shape))
                .expect("generated programs lower");
            f.name = format!("gen{seed}");
            f
        })
        .collect();
    Module::from_functions(funcs).expect("seed-derived names are unique")
}

#[test]
fn job_width_never_changes_compiled_output() {
    let module = generated_module(64);
    let req = CompileRequest::new().opt(true).verify_each(true);
    let outcomes: Vec<BatchOutcome> = [1usize, 2, 8]
        .into_iter()
        .map(|jobs| {
            let out = compile_module(module.clone(), &req.clone().jobs(jobs))
                .unwrap_or_else(|e| panic!("--jobs {jobs}: {e}"));
            assert!(
                out.first_error().is_none(),
                "--jobs {jobs}: {:?}",
                out.first_error()
            );
            assert_eq!(out.timing.jobs, jobs.clamp(1, 64));
            out
        })
        .collect();

    let serial = &outcomes[0];
    let serial_text = serial.clone().into_surviving_module().to_string();
    for (out, jobs) in outcomes[1..].iter().zip([2usize, 8]) {
        assert_eq!(
            serial_text,
            out.clone().into_surviving_module().to_string(),
            "--jobs {jobs}: printed IR differs from serial"
        );
        // Wall times inside the commentary lines are the one thing
        // allowed to differ between runs.
        let detimed = |lines: &[String]| {
            lines
                .iter()
                .map(|l| l.split("compiled in").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        for (a, b) in serial.outcomes().zip(out.outcomes()) {
            assert_eq!(
                detimed(&a.stat_lines),
                detimed(&b.stat_lines),
                "--jobs {jobs}: @{} stats/diagnostics differ",
                a.func.name
            );
            assert_eq!(
                a.func.static_copy_count(),
                b.func.static_copy_count(),
                "--jobs {jobs}: @{} copy count differs",
                a.func.name
            );
        }
        // The merged report is a deterministic fold over module order
        // (times vary run to run; everything else must not).
        let shape = |o: &BatchOutcome| {
            o.merged_phases()
                .iter()
                .map(|p| (p.label, p.peak_bytes, p.copies_inserted, p.copies_removed))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            shape(serial),
            shape(out),
            "--jobs {jobs}: merged phase report differs"
        );
    }
}

#[test]
fn job_width_never_changes_lint_reports() {
    let module = generated_module(24);
    let funcs = module.into_functions();
    let render_all = |jobs: usize| -> Vec<String> {
        let (reports, _) = par_map(funcs.len(), jobs, |i| {
            let mut func = funcs[i].clone();
            let mut am = AnalysisManager::new();
            let mut out = lint_function(&func, &mut am, LintStage::Cfg).render_text(&func);
            build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
            out.push_str(&lint_function(&func, &mut am, LintStage::Ssa).render_text(&func));
            out
        });
        reports
    };
    let serial = render_all(1);
    assert_eq!(serial, render_all(2), "--jobs 2 reordered lint reports");
    assert_eq!(serial, render_all(8), "--jobs 8 reordered lint reports");
}

#[test]
fn pool_timing_accounts_for_every_function() {
    let module = generated_module(16);
    let out = compile_module(module, &CompileRequest::new().jobs(4)).unwrap();
    assert!(out.first_error().is_none(), "{:?}", out.first_error());
    // cpu is the sum of per-function work; it can't be less than the
    // slowest single function, and utilization is a sane fraction.
    let max_fn = out.outcomes().map(|f| f.compile_time).max().unwrap();
    assert!(out.timing.cpu >= max_fn);
    let u = out.timing.utilization();
    assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
}
