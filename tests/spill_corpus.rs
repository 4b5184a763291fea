//! Spill corpus — pinned k-constrained spilling over the kernel suite.
//!
//! The cost-guided spiller is deterministic, so its behaviour on the 34
//! kernels is pinned exactly: `(spills, reloads, maxlive_after)` at each
//! k ∈ {4, 8, 16}, measured on the folded, `standard_pipeline`-optimised
//! pruned SSA (the same text the `new` and `standard` pipeline families
//! spill in `fcc build --k-registers`). A change to victim selection,
//! rewrite placement, or the portfolio rule shows up here as a diff of
//! the table, not as a silent behaviour drift.
//!
//! Beyond the pins, the sweep asserts the two properties the bench's
//! exit code enforces, per kernel rather than in aggregate:
//!
//! - **cost-guided never loses**: its loop-weighted spill traffic
//!   ([`weighted_spill_traffic`]) is ≤ spill-everywhere's on every
//!   kernel at every k. This holds by construction — `spill_to_k`
//!   runs both plans and keeps the cheaper — and the test keeps the
//!   construction honest.
//! - **every allocation audits clean**: the full spill → destruct →
//!   allocate path at every k, through all three destruction families,
//!   is certified by [`audit_allocation`] from the text alone.
//!
//! Finally, spilling must not break batch determinism: a 64-function
//! module compiled under `--k-registers 4` with `--jobs 1` and
//! `--jobs 8` must render byte-identically.

use fcc::prelude::*;

const KS: [u32; 3] = [4, 8, 16];

/// The folded SSA every non-briggs pipeline family spills: pruned form,
/// copies folded, `standard_pipeline` run to fixpoint.
fn folded_ssa(kernel: &fcc_workloads::Kernel) -> Function {
    let mut func = fcc_workloads::compile_kernel(kernel);
    let mut am = AnalysisManager::new();
    build_ssa_with(&mut func, fcc_ssa::SsaFlavor::Pruned, true, &mut am);
    fcc_opt::standard_pipeline().run(&mut func, &mut am);
    verify_ssa(&func).expect("optimised kernel must stay valid SSA");
    func
}

/// Pinned `(kernel, k, spills, reloads, maxlive_after)` for the
/// cost-guided strategy on the folded SSA. `maxlive_after` can sit above
/// k (zeroin and rkf45 at k=4): the spiller is best-effort and the
/// allocator's own spill rounds absorb the residue.
const PINS: [(&str, u32, usize, usize, u32); 102] = [
    ("saxpy", 4, 3, 3, 4),
    ("saxpy", 8, 0, 0, 6),
    ("saxpy", 16, 0, 0, 6),
    ("tomcatv", 4, 39, 98, 4),
    ("tomcatv", 8, 23, 44, 8),
    ("tomcatv", 16, 8, 14, 16),
    ("blts", 4, 5, 19, 4),
    ("blts", 8, 0, 0, 8),
    ("blts", 16, 0, 0, 8),
    ("buts", 4, 7, 28, 4),
    ("buts", 8, 0, 0, 8),
    ("buts", 16, 0, 0, 8),
    ("getbx", 4, 4, 8, 4),
    ("getbx", 8, 0, 0, 7),
    ("getbx", 16, 0, 0, 7),
    ("twldrv", 4, 9, 23, 4),
    ("twldrv", 8, 2, 3, 8),
    ("twldrv", 16, 0, 0, 10),
    ("smoothx", 4, 4, 5, 4),
    ("smoothx", 8, 0, 0, 8),
    ("smoothx", 16, 0, 0, 8),
    ("rhs", 4, 15, 31, 4),
    ("rhs", 8, 2, 2, 8),
    ("rhs", 16, 0, 0, 10),
    ("parmvrx", 4, 8, 37, 4),
    ("parmvrx", 8, 0, 0, 8),
    ("parmvrx", 16, 0, 0, 8),
    ("initx", 4, 3, 3, 4),
    ("initx", 8, 0, 0, 5),
    ("initx", 16, 0, 0, 5),
    ("fieldx", 4, 9, 27, 4),
    ("fieldx", 8, 0, 0, 8),
    ("fieldx", 16, 0, 0, 8),
    ("parmovx", 4, 3, 6, 4),
    ("parmovx", 8, 0, 0, 6),
    ("parmovx", 16, 0, 0, 6),
    ("radfgx", 4, 6, 16, 4),
    ("radfgx", 8, 0, 0, 6),
    ("radfgx", 16, 0, 0, 6),
    ("radbgx", 4, 6, 16, 4),
    ("radbgx", 8, 0, 0, 6),
    ("radbgx", 16, 0, 0, 6),
    ("parmvex", 4, 6, 14, 4),
    ("parmvex", 8, 0, 0, 8),
    ("parmvex", 16, 0, 0, 8),
    ("jacld", 4, 15, 31, 4),
    ("jacld", 8, 4, 5, 8),
    ("jacld", 16, 0, 0, 11),
    ("fpppp", 4, 6, 16, 4),
    ("fpppp", 8, 0, 0, 8),
    ("fpppp", 16, 0, 0, 8),
    ("advbndx", 4, 11, 24, 4),
    ("advbndx", 8, 0, 0, 7),
    ("advbndx", 16, 0, 0, 7),
    ("deseco", 4, 6, 21, 4),
    ("deseco", 8, 0, 0, 8),
    ("deseco", 16, 0, 0, 8),
    ("zeroin", 4, 20, 53, 5),
    ("zeroin", 8, 9, 9, 8),
    ("zeroin", 16, 0, 0, 11),
    ("fmin", 4, 6, 20, 4),
    ("fmin", 8, 0, 0, 8),
    ("fmin", 16, 0, 0, 8),
    ("spline", 4, 11, 17, 4),
    ("spline", 8, 1, 1, 8),
    ("spline", 16, 0, 0, 9),
    ("seval", 4, 7, 17, 4),
    ("seval", 8, 1, 1, 8),
    ("seval", 16, 0, 0, 9),
    ("quanc8", 4, 8, 22, 4),
    ("quanc8", 8, 4, 7, 8),
    ("quanc8", 16, 0, 0, 11),
    ("rkf45", 4, 21, 50, 5),
    ("rkf45", 8, 5, 8, 8),
    ("rkf45", 16, 0, 0, 12),
    ("decomp", 4, 18, 58, 4),
    ("decomp", 8, 4, 5, 8),
    ("decomp", 16, 0, 0, 12),
    ("solve", 4, 8, 35, 4),
    ("solve", 8, 0, 0, 7),
    ("solve", 16, 0, 0, 7),
    ("urand", 4, 12, 19, 4),
    ("urand", 8, 1, 1, 8),
    ("urand", 16, 0, 0, 9),
    ("svd", 4, 20, 59, 4),
    ("svd", 8, 9, 15, 8),
    ("svd", 16, 0, 0, 12),
    ("smooth", 4, 15, 35, 4),
    ("smooth", 8, 0, 0, 8),
    ("smooth", 16, 0, 0, 8),
    ("clampx", 4, 3, 4, 4),
    ("clampx", 8, 0, 0, 6),
    ("clampx", 16, 0, 0, 6),
    ("spillx", 4, 0, 0, 4),
    ("spillx", 8, 0, 0, 4),
    ("spillx", 16, 0, 0, 4),
    ("scratchx", 4, 2, 3, 4),
    ("scratchx", 8, 0, 0, 5),
    ("scratchx", 16, 0, 0, 5),
    ("stencilx", 4, 2, 3, 4),
    ("stencilx", 8, 0, 0, 6),
    ("stencilx", 16, 0, 0, 6),
];

#[test]
fn cost_guided_spill_counts_are_pinned() {
    let kernels = fcc_workloads::kernels();
    assert_eq!(
        PINS.len(),
        kernels.len() * KS.len(),
        "one pin per kernel per k — extend PINS when the suite grows"
    );
    let mut mismatches = Vec::new();
    for kernel in kernels {
        let ssa = folded_ssa(kernel);
        for k in KS {
            let mut func = ssa.clone();
            let stats = spill_to_k(&mut func, k, SpillStrategy::CostGuided);
            let pin = PINS
                .iter()
                .find(|&&(name, pk, ..)| name == kernel.name && pk == k)
                .unwrap_or_else(|| panic!("no pin for {} at k={k}", kernel.name));
            let got = (
                kernel.name,
                k,
                stats.spills,
                stats.reloads,
                stats.maxlive_after,
            );
            if got != *pin {
                mismatches.push(format!("pinned {pin:?}, got {got:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "spiller behaviour drifted on {} cell(s); if the change is intended, \
         re-pin from the new output:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn cost_guided_never_exceeds_spill_everywhere_traffic() {
    for kernel in fcc_workloads::kernels() {
        let ssa = folded_ssa(kernel);
        for k in KS {
            let mut ev = ssa.clone();
            spill_to_k(&mut ev, k, SpillStrategy::Everywhere);
            let mut cg = ssa.clone();
            spill_to_k(&mut cg, k, SpillStrategy::CostGuided);
            let (ev_w, cg_w) = (weighted_spill_traffic(&ev), weighted_spill_traffic(&cg));
            assert!(
                cg_w <= ev_w,
                "{} at k={k}: cost-guided weighted traffic {cg_w} exceeds \
                 spill-everywhere's {ev_w} — the portfolio in spill_to_k must \
                 have stopped comparing plans",
                kernel.name
            );
        }
    }
}

/// Every spill → destruct → allocate path, at every k, through all three
/// destruction families, must produce an allocation the auditor accepts
/// from the text alone.
#[test]
fn audit_accepts_every_k_constrained_allocation() {
    for kernel in fcc_workloads::kernels() {
        for family in ["new", "standard", "briggs"] {
            let ssa = {
                let mut func = fcc_workloads::compile_kernel(kernel);
                let mut am = AnalysisManager::new();
                if family == "briggs" {
                    build_ssa_with(&mut func, fcc_ssa::SsaFlavor::Pruned, false, &mut am);
                    fcc_opt::copy_preserving_pipeline().run(&mut func, &mut am);
                } else {
                    build_ssa_with(&mut func, fcc_ssa::SsaFlavor::Pruned, true, &mut am);
                    fcc_opt::standard_pipeline().run(&mut func, &mut am);
                }
                func
            };
            for k in KS {
                let mut func = ssa.clone();
                spill_to_k(&mut func, k, SpillStrategy::CostGuided);
                verify_ssa(&func)
                    .unwrap_or_else(|e| panic!("{} ({family}, k={k}): {e}", kernel.name));
                let mut am = AnalysisManager::new();
                match family {
                    "new" => {
                        coalesce_ssa_managed(&mut func, &CoalesceOptions::default(), &mut am);
                    }
                    "standard" => {
                        destruct_standard(&mut func);
                    }
                    _ => {
                        destruct_via_webs(&mut func);
                        coalesce_copies_managed(
                            &mut func,
                            &BriggsOptions {
                                mode: GraphMode::Restricted,
                            },
                            &mut am,
                        );
                    }
                }
                let alloc = allocate(
                    &mut func,
                    &AllocOptions {
                        registers: k as usize,
                    },
                )
                .unwrap_or_else(|e| {
                    panic!("{} ({family}, k={k}): allocation failed: {e}", kernel.name)
                });
                let diags = audit_allocation(&func, &alloc.coloring, k, func.spill_slot_count());
                assert!(
                    diags.is_empty(),
                    "{} ({family}, k={k}): auditor rejected the allocation:\n{}",
                    kernel.name,
                    diags
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }
}

#[test]
fn k_constrained_module_compile_is_jobs_deterministic() {
    let mut src = String::new();
    for i in 0..64 {
        src.push_str(&format!(
            "fn f{i}(n) {{ let s = {i}; for j = 0 to n {{ s = s + j * {}; }} return s; }}\n",
            i + 1
        ));
    }
    let module = fcc_frontend::compile_module(&src).unwrap();
    let req = CompileRequest::new().opt(true).k_registers(Some(4));
    let render = |jobs: usize| {
        compile_module(module.clone(), &req.clone().jobs(jobs))
            .expect("module must compile")
            .into_module_outcome()
            .expect("no function may fail")
            .into_module()
            .to_string()
    };
    assert_eq!(
        render(1),
        render(8),
        "spilling under --k-registers must not depend on worker scheduling"
    );
}
