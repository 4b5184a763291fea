//! The textual IR format must round-trip at every pipeline stage, for
//! every kernel — print → parse → print is a fixpoint and preserves
//! behaviour.

use fcc::ir::parse::parse_function;
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, kernels, reference_run};

fn assert_roundtrip(f: &Function, what: &str) {
    let printed = f.to_string();
    let reparsed = parse_function(&printed)
        .unwrap_or_else(|e| panic!("{what}: reparse failed: {e}\n{printed}"));
    assert_eq!(
        printed,
        reparsed.to_string(),
        "{what}: print/parse not a fixpoint"
    );
}

#[test]
fn kernels_roundtrip_at_every_stage() {
    for k in kernels() {
        let mut f = compile_kernel(k);
        assert_roundtrip(&f, &format!("{} (cfg)", k.name));
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        assert_roundtrip(&f, &format!("{} (ssa)", k.name));
        coalesce_ssa(&mut f);
        assert_roundtrip(&f, &format!("{} (coalesced)", k.name));
    }
}

#[test]
fn reparsed_kernel_behaves_identically() {
    for k in kernels().iter().take(5) {
        let f = compile_kernel(k);
        let reference = reference_run(&f, k).unwrap();
        let g = parse_function(&f.to_string()).unwrap();
        let out = reference_run(&g, k).unwrap();
        assert_eq!(reference.behavior(), out.behavior(), "{}", k.name);
        assert_eq!(reference.executed, out.executed, "{}", k.name);
    }
}

#[test]
fn reparsed_ssa_still_verifies() {
    for k in kernels().iter().take(5) {
        let mut f = compile_kernel(k);
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        let g = parse_function(&f.to_string()).unwrap();
        verify_ssa(&g).unwrap_or_else(|e| panic!("{}: {e}", k.name));
    }
}

/// Destruction-stage output is dense with the sequentialized parallel
/// copies the other stages never show (including the cycle-breaking
/// temps the swap idioms force); it must round-trip like any other IR.
#[test]
fn destruction_stage_copies_roundtrip() {
    for k in kernels() {
        let mut ssa = compile_kernel(k);
        build_ssa(&mut ssa, SsaFlavor::Pruned, true);

        let mut std_f = ssa.clone();
        let stats = destruct_standard(&mut std_f);
        assert_roundtrip(&std_f, &format!("{} (standard destruction)", k.name));
        if stats.cycle_temps > 0 {
            // A parallel-copy cycle was broken here; the reparse must
            // preserve the temp-chain exactly.
            let g = parse_function(&std_f.to_string()).unwrap();
            let reference = reference_run(&std_f, k).unwrap();
            let out = reference_run(&g, k).unwrap();
            assert_eq!(
                reference.behavior(),
                out.behavior(),
                "{} cycle temps",
                k.name
            );
        }

        let mut cssa = ssa.clone();
        fcc::ssa::destruct_sreedhar_i(&mut cssa);
        assert_roundtrip(&cssa, &format!("{} (sreedhar isolation)", k.name));
    }
}

/// Multi-function files: a module prints as its functions separated by
/// blank lines and must round-trip through `parse_module` at the CFG
/// stage and after destruction, in both the IR and MiniLang formats.
#[test]
fn multi_function_modules_roundtrip() {
    use fcc::ir::parse::parse_module;

    let names = ["saxpy", "tomcatv", "clampx"];
    let funcs: Vec<Function> = names
        .iter()
        .map(|n| compile_kernel(fcc::workloads::kernel(n).unwrap()))
        .collect();
    let module = Module::from_functions(funcs).unwrap();
    let printed = module.to_string();
    let reparsed = parse_module(&printed).unwrap();
    assert_eq!(printed, reparsed.to_string(), "cfg module not a fixpoint");
    assert_eq!(reparsed.len(), 3);

    // After batch destruction the module must still round-trip.
    let out = compile_module(module, &CompileRequest::new().jobs(2)).unwrap();
    assert!(out.first_error().is_none(), "{:?}", out.first_error());
    let compiled = out.into_surviving_module();
    let printed = compiled.to_string();
    let reparsed = parse_module(&printed).unwrap();
    assert_eq!(
        printed,
        reparsed.to_string(),
        "destructed module not a fixpoint"
    );
    for (f, n) in reparsed.functions().iter().zip(names) {
        assert_eq!(f.name, n, "module order changed");
        assert!(!f.has_phis());
    }

    // The MiniLang frontend accepts multi-function sources too, and the
    // frontend printer round-trips them.
    let src = "fn double(x) { return x * 2; }\n\nfn quad(x) { return x * 4; }\n";
    let programs = fcc::frontend::parse_module(src).unwrap();
    assert_eq!(programs.len(), 2);
    let reprinted: Vec<String> = programs.iter().map(fcc::frontend::to_source).collect();
    let reparsed = fcc::frontend::parse_module(&reprinted.join("\n\n")).unwrap();
    assert_eq!(
        reparsed
            .iter()
            .map(fcc::frontend::to_source)
            .collect::<Vec<_>>(),
        reprinted,
        "frontend print/parse not a fixpoint"
    );
    let module = fcc::frontend::compile_module(src).unwrap();
    assert_eq!(module.len(), 2);
    assert!(module.get("quad").is_some());
}
