//! Stage-aware register-pressure lint rules.
//!
//! Both rules take a register target `k` and warn when the program's
//! pressure story stops fitting it:
//!
//! * [`RULE_PRESSURE_EXCEEDS_K`] (SSA stage): the function's MaxLive
//!   exceeds `k`. Under strict SSA MaxLive equals the chromatic number
//!   of the interference graph (see `fcc-pressure`), so this is not a
//!   heuristic — the function *provably* does not fit `k` registers
//!   without spilling.
//! * [`RULE_COALESCE_RAISES_MAXLIVE`] (final stage): a copy whose
//!   endpoints do not interfere — exactly what a coalescer would merge —
//!   but where the merge would create a clique larger than `k` in the
//!   interference graph even though MaxLive ≤ k. Post-destruction code
//!   is no longer SSA, its interference graph is no longer chordal, and
//!   merging two non-interfering ranges can manufacture a clique no
//!   program point exhibits: the point-based bound here is a genuine
//!   clique in the merged graph, so coalescing the flagged copy would
//!   push the register demand past `k` while leaving MaxLive unchanged —
//!   the paper's coalescing decision made pressure-aware.

use fcc_analysis::pressure::for_each_point;
use fcc_analysis::AnalysisManager;
use fcc_ir::{Diagnostic, Function, Inst, InstKind, Value};
use fcc_pressure::InterferenceRelation;

use crate::rules::LintRule;
use crate::LintStage;

/// MaxLive exceeds the k-register target.
pub const RULE_PRESSURE_EXCEEDS_K: &str = "pressure-exceeds-k";
/// Coalescing a copy would create a clique past the k-register target.
pub const RULE_COALESCE_RAISES_MAXLIVE: &str = "coalesce-raises-maxlive";

/// The pressure rule suite for register target `k`, in execution order.
/// Run alongside [`crate::default_rules`] or on their own via
/// [`crate::lint_with_rules`].
pub fn pressure_rules(k: u32) -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(PressureExceedsK { k }),
        Box::new(CoalesceRaisesMaxlive { k }),
    ]
}

struct PressureExceedsK {
    k: u32,
}

impl LintRule for PressureExceedsK {
    fn id(&self) -> &'static str {
        RULE_PRESSURE_EXCEEDS_K
    }

    fn description(&self) -> &'static str {
        "function MaxLive must fit the k-register target"
    }

    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }

    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let pressure = am.pressure(func);
        let maxlive = pressure.maxlive();
        if maxlive > self.k {
            let mut d = Diagnostic::warning(
                RULE_PRESSURE_EXCEEDS_K,
                format!(
                    "MaxLive {maxlive} exceeds the {k}-register target: \
                     the function cannot be coloured with {k} registers without spilling",
                    k = self.k
                ),
            );
            if let Some(b) = pressure.max_block() {
                d = d.in_block(b);
            }
            out.push(d);
        }
    }
}

struct CoalesceRaisesMaxlive {
    k: u32,
}

impl LintRule for CoalesceRaisesMaxlive {
    fn id(&self) -> &'static str {
        RULE_COALESCE_RAISES_MAXLIVE
    }

    fn description(&self) -> &'static str {
        "coalescing a copy must not push the register demand past k"
    }

    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Final
    }

    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let maxlive = am.pressure(func).maxlive();
        if maxlive > self.k {
            // Already infeasible without any coalescing; the SSA-stage
            // pressure rule owns that report.
            return;
        }
        let cfg = am.cfg(func);
        let live = am.liveness(func);
        let ig = InterferenceRelation::build(func, &cfg, &live);

        // Coalescing candidates: copies whose endpoints never share a
        // program point (what Briggs-style coalescing would merge).
        let mut candidates: Vec<(Inst, Value, Value)> = Vec::new();
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                if let (InstKind::Copy { src }, Some(dst)) = (&data.kind, data.dst) {
                    if dst != *src && ig.occurs(dst) && ig.occurs(*src) && !ig.interferes(dst, *src)
                    {
                        candidates.push((i, dst, *src));
                    }
                }
            }
        }
        if candidates.is_empty() {
            return;
        }

        // For each candidate, the largest clique the merge would create:
        // a point where neither endpoint is live but every live value
        // interferes with one of them extends, after the merge, to a
        // (pressure + 1)-clique containing the merged node.
        let mut bound: Vec<u32> = candidates.iter().map(|_| 0).collect();
        for_each_point(func, &cfg, &live, |_, set, count| {
            let count = count as u32;
            for (ci, &(_, d, s)) in candidates.iter().enumerate() {
                if count < bound[ci] || set.contains(d.index()) || set.contains(s.index()) {
                    continue;
                }
                let all_interfere = set
                    .iter()
                    .all(|v| ig.rows()[v].contains(d.index()) || ig.rows()[v].contains(s.index()));
                if all_interfere {
                    bound[ci] = count + 1;
                }
            }
        });

        for (ci, &(i, d, s)) in candidates.iter().enumerate() {
            if bound[ci] > self.k {
                out.push(
                    Diagnostic::warning(
                        RULE_COALESCE_RAISES_MAXLIVE,
                        format!(
                            "coalescing {s} into {d} would create a {}-clique, past the \
                             {}-register target (MaxLive is only {maxlive})",
                            bound[ci], self.k
                        ),
                    )
                    .at_inst(i)
                    .on_value(d),
                );
            }
        }
    }
}
