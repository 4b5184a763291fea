//! SSA-form verification: the *regular program* property.
//!
//! The paper's theory (Section 2) rests on the input being in *regular*
//! form: strict (Definition 2.1) plus the natural SSA properties that
//! every use is dominated by a single definition, and every definition
//! dominates all its uses. This verifier checks exactly that:
//!
//! 1. every value is defined at most once;
//! 2. every ordinary use is dominated by its definition (same-block uses
//!    must come after the definition);
//! 3. every φ argument `[p: v]` is dominated by `v`'s definition at the
//!    *end of `p`* — the paper's footnote 1: the move happens along the
//!    incoming edge, which `v`'s definition block dominates.
//!
//! Findings are reported as [`Diagnostic`]s under three rule ids —
//! [`RULE_SINGLE_DEF`], [`RULE_DOMINANCE`], [`RULE_PHI_EDGE`] — via
//! [`ssa_diagnostics`]; [`verify_ssa`] is the thin historical wrapper
//! returning the first violation as an [`SsaError`].

use fcc_analysis::AnalysisManager;
use fcc_ir::{Block, Diagnostic, Function, InstKind};

/// Rule id: a value is defined more than once.
pub const RULE_SINGLE_DEF: &str = "ssa-single-def";
/// Rule id: an ordinary use is not dominated by its definition.
pub const RULE_DOMINANCE: &str = "ssa-dominance";
/// Rule id: a φ argument's definition does not dominate the incoming
/// edge (the paper's footnote 1).
pub const RULE_PHI_EDGE: &str = "phi-edge-dominance";

/// A violation of the regular-SSA property — a thin wrapper over the
/// [`Diagnostic`] that describes it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SsaError(pub Diagnostic);

impl SsaError {
    /// Description of the violation.
    pub fn message(&self) -> &str {
        &self.0.message
    }
}

impl std::fmt::Display for SsaError {
    // One rendering path for every finding: print exactly what the
    // underlying `Diagnostic` prints (`error[ssa-dominance] in b0:
    // ...`), matching `VerifyError` and the lint report output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for SsaError {}

/// Check that `func` is in regular SSA form.
///
/// # Errors
/// Returns the first violated property (multiple definitions, or a use not
/// dominated by its definition).
pub fn verify_ssa(func: &Function) -> Result<(), SsaError> {
    verify_ssa_with(func, &mut AnalysisManager::new())
}

/// [`verify_ssa`], pulling the CFG and dominator tree from a shared
/// [`AnalysisManager`] — free when the caller's pipeline already has
/// them cached.
pub fn verify_ssa_with(func: &Function, am: &mut AnalysisManager) -> Result<(), SsaError> {
    match ssa_diagnostics(func, am).into_iter().next() {
        Some(d) => Err(SsaError(d)),
        None => Ok(()),
    }
}

/// Report every regular-SSA violation in `func` as a [`Diagnostic`]
/// (all error severity; see the module docs for the rule ids).
pub fn ssa_diagnostics(func: &Function, am: &mut AnalysisManager) -> Vec<Diagnostic> {
    let cfg = am.cfg(func);
    let dt = am.domtree(func);
    let mut out = Vec::new();

    // Definition site (block, position) of every value, by index; a value
    // defined twice keeps its later site.
    let mut def_site: Vec<Option<(Block, usize)>> = vec![None; func.num_values()];
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for (pos, &inst) in func.block_insts(b).iter().enumerate() {
            if let Some(d) = func.inst(inst).dst {
                if let Some((ob, _)) = def_site[d.index()].replace((b, pos)) {
                    out.push(
                        Diagnostic::error(
                            RULE_SINGLE_DEF,
                            format!("{d} defined more than once ({ob} and {b})"),
                        )
                        .in_block(b)
                        .at_inst(inst)
                        .on_value(d),
                    );
                }
            }
        }
    }

    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for (pos, &inst) in func.block_insts(b).iter().enumerate() {
            let data = func.inst(inst);
            data.kind.for_each_use(|v| match def_site[v.index()] {
                None => out.push(
                    Diagnostic::error(RULE_DOMINANCE, format!("{v} used in {b} but never defined"))
                        .in_block(b)
                        .at_inst(inst)
                        .on_value(v),
                ),
                Some((db, dpos)) => {
                    let dominated = if db == b {
                        dpos < pos
                    } else {
                        dt.strictly_dominates(db, b)
                    };
                    if !dominated {
                        out.push(
                            Diagnostic::error(
                                RULE_DOMINANCE,
                                format!(
                                    "use of {v} at {b}[{pos}] not dominated by its definition in {db}"
                                ),
                            )
                            .in_block(b)
                            .at_inst(inst)
                            .on_value(v),
                        );
                    }
                }
            });
            if let InstKind::Phi { args } = &data.kind {
                for a in args {
                    match def_site[a.value.index()] {
                        None => out.push(
                            Diagnostic::error(
                                RULE_PHI_EDGE,
                                format!("phi arg {} in {b} never defined", a.value),
                            )
                            .in_block(b)
                            .at_inst(inst)
                            .on_value(a.value),
                        ),
                        Some((db, _)) => {
                            // The use happens at the end of the a.pred edge:
                            // db must dominate a.pred (reflexively).
                            if !dt.dominates(db, a.pred) {
                                out.push(
                                    Diagnostic::error(
                                        RULE_PHI_EDGE,
                                        format!(
                                            "phi arg {} flowing {} -> {b} not dominated by its definition in {db}",
                                            a.value, a.pred
                                        ),
                                    )
                                    .in_block(b)
                                    .at_inst(inst)
                                    .on_value(a.value),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;

    #[test]
    fn accepts_regular_ssa() {
        let f = parse_function(
            "function @ok(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 jump b1
             b1:
                 v2 = phi [b0: v1], [b1: v3]
                 v3 = add v2, v0
                 v4 = lt v3, v0
                 branch v4, b1, b2
             b2:
                 return v3
             }",
        )
        .unwrap();
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn rejects_double_definition() {
        let f = parse_function(
            "function @dd(0) {
             b0:
                 v0 = const 1
                 v0 = const 2
                 return v0
             }",
        )
        .unwrap();
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.to_string().contains("more than once"), "{e}");
        assert_eq!(e.0.rule, RULE_SINGLE_DEF);
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let f = parse_function(
            "function @ub(0) {
             b0:
                 v1 = copy v0
                 v0 = const 1
                 return v1
             }",
        )
        .unwrap();
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.to_string().contains("not dominated"), "{e}");
    }

    #[test]
    fn rejects_undominated_cross_block_use() {
        // v1 defined only on the b1 path but used in b3.
        let f = parse_function(
            "function @nd(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 jump b3
             b3:
                 return v1
             }",
        )
        .unwrap();
        assert!(verify_ssa(&f).is_err());
    }

    #[test]
    fn rejects_never_defined_use() {
        let f = parse_function(
            "function @nv(0) {
             b0:
                 return v9
             }",
        )
        .unwrap();
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.to_string().contains("never defined"), "{e}");
        assert_eq!(e.0.rule, RULE_DOMINANCE);
    }

    #[test]
    fn phi_arg_defined_in_its_pred_is_fine() {
        // v1's definition (b1) does not dominate the phi block (b3), but
        // it dominates the pred b1 — footnote 1 of the paper.
        let f = parse_function(
            "function @pa(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 v2 = const 3
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v2]
                 return v3
             }",
        )
        .unwrap();
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn rejects_phi_arg_not_dominating_pred() {
        // v2 defined in b2, but claimed to flow along the b1 edge.
        let f = parse_function(
            "function @pb(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 v2 = const 3
                 jump b3
             b3:
                 v3 = phi [b1: v2], [b2: v1]
                 return v3
             }",
        )
        .unwrap();
        let e = verify_ssa(&f).unwrap_err();
        assert_eq!(e.0.rule, RULE_PHI_EDGE, "{e}");
    }

    #[test]
    fn diagnostics_report_all_violations_with_locations() {
        let f = parse_function(
            "function @multi(0) {
             b0:
                 v0 = const 1
                 v0 = const 2
                 v1 = copy v9
                 return v1
             }",
        )
        .unwrap();
        let diags = ssa_diagnostics(&f, &mut AnalysisManager::new());
        assert!(diags.len() >= 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == RULE_SINGLE_DEF));
        assert!(diags.iter().any(|d| d.rule == RULE_DOMINANCE));
        assert!(diags.iter().all(|d| d.block.is_some() && d.inst.is_some()));
    }
}
