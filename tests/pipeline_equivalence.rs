//! Cross-crate integration: every kernel, through every SSA-destruction
//! pipeline, must behave exactly like the φ-aware reference.

use fcc::prelude::*;
use fcc::workloads::{compile_kernel, generate, kernels, reference_run, GenConfig};

type NamedPipeline = (&'static str, fn(Function) -> Function);

fn pipelines() -> Vec<NamedPipeline> {
    fn standard(mut f: Function) -> Function {
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        destruct_standard(&mut f);
        f
    }
    fn new_alg(mut f: Function) -> Function {
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        coalesce_ssa(&mut f);
        f
    }
    fn briggs(mut f: Function) -> Function {
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut f);
        coalesce_copies(
            &mut f,
            &BriggsOptions {
                mode: GraphMode::Full,
            },
        );
        f
    }
    fn briggs_star(mut f: Function) -> Function {
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut f);
        coalesce_copies(
            &mut f,
            &BriggsOptions {
                mode: GraphMode::Restricted,
            },
        );
        f
    }
    vec![
        ("standard", standard),
        ("new", new_alg),
        ("briggs", briggs),
        ("briggs*", briggs_star),
    ]
}

#[test]
fn all_kernels_all_pipelines_preserve_behavior() {
    for k in kernels() {
        let base = compile_kernel(k);
        let reference = reference_run(&base, k).expect("kernel runs");
        for (name, pipe) in pipelines() {
            let f = pipe(base.clone());
            assert!(!f.has_phis(), "{}/{name}: phis remain", k.name);
            fcc::ir::verify::verify_function(&f)
                .unwrap_or_else(|e| panic!("{}/{name}: {e}", k.name));
            let out = reference_run(&f, k).unwrap_or_else(|e| panic!("{}/{name}: {e}", k.name));
            assert_eq!(
                reference.behavior(),
                out.behavior(),
                "{}/{name}: wrong behaviour",
                k.name
            );
        }
    }
}

#[test]
fn briggs_variants_agree_exactly_on_all_kernels() {
    // The paper's Briggs* claim: identical results, smaller graph. Both
    // graphs answer every query about copy-related names alike, so the
    // two coalescers make the same merges and print the same code.
    for k in kernels() {
        let base = compile_kernel(k);
        let pipes = pipelines();
        let full = pipes.iter().find(|(n, _)| *n == "briggs").unwrap().1(base.clone());
        let star = pipes.iter().find(|(n, _)| *n == "briggs*").unwrap().1(base.clone());
        assert_eq!(
            full.to_string(),
            star.to_string(),
            "{}: Briggs and Briggs* code differs",
            k.name
        );
        let df = reference_run(&full, k).unwrap();
        let ds = reference_run(&star, k).unwrap();
        assert_eq!(df.dynamic_copies, ds.dynamic_copies, "{}", k.name);
    }
    // Generated programs, each with and without the web-safe optimiser.
    for seed in 0..120 {
        let prog = generate(seed, &GenConfig::default());
        let base = fcc::frontend::lower_program(&prog).expect("generated programs always lower");
        for optimise in [false, true] {
            let mut webs = base.clone();
            build_ssa(&mut webs, SsaFlavor::Pruned, false);
            if optimise {
                copy_preserving_pipeline().run(&mut webs, &mut AnalysisManager::new());
            }
            destruct_via_webs(&mut webs);
            let [full, star] = [GraphMode::Full, GraphMode::Restricted].map(|mode| {
                let mut f = webs.clone();
                coalesce_copies(&mut f, &BriggsOptions { mode });
                f.to_string()
            });
            assert_eq!(
                full, star,
                "seed {seed} (optimised: {optimise}): Briggs and Briggs* code differs"
            );
        }
    }
}

#[test]
fn new_beats_standard_on_every_kernel_with_copies() {
    for k in kernels() {
        let base = compile_kernel(k);
        let pipes = pipelines();
        let std_f = pipes.iter().find(|(n, _)| *n == "standard").unwrap().1(base.clone());
        let new_f = pipes.iter().find(|(n, _)| *n == "new").unwrap().1(base.clone());
        let std_run = reference_run(&std_f, k).unwrap();
        let new_run = reference_run(&new_f, k).unwrap();
        assert!(
            new_run.dynamic_copies <= std_run.dynamic_copies,
            "{}: new {} > standard {} dynamic copies",
            k.name,
            new_run.dynamic_copies,
            std_run.dynamic_copies
        );
        assert!(
            new_f.static_copy_count() <= std_f.static_copy_count(),
            "{}",
            k.name
        );
    }
}

#[test]
fn ssa_flavors_all_work_on_kernels() {
    for k in kernels().iter().take(6) {
        let base = compile_kernel(k);
        let reference = reference_run(&base, k).unwrap();
        for flavor in [SsaFlavor::Minimal, SsaFlavor::SemiPruned, SsaFlavor::Pruned] {
            let mut f = base.clone();
            build_ssa(&mut f, flavor, true);
            verify_ssa(&f).unwrap_or_else(|e| panic!("{}/{flavor:?}: {e}", k.name));
            coalesce_ssa(&mut f);
            let out = reference_run(&f, k).unwrap();
            assert_eq!(
                reference.behavior(),
                out.behavior(),
                "{}/{flavor:?}",
                k.name
            );
        }
    }
}
