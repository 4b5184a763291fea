//! Analysis-guided folding: value ranges + known bits (SSA only).
//!
//! Where [`crate::constfold`] folds what is syntactically constant,
//! this pass folds what the `fcc-dataflow` analyses *prove* constant:
//! φs whose other inputs arrive on dead edges, instructions whose
//! operand ranges pin a single result (`i % 8` under a refined loop
//! counter feeding `t < 0`), and conditional branches with a
//! provably-dead successor edge. The proofs come from the sparse
//! conditional solver, so branch-condition refinement and
//! executable-edge tracking both feed the folds.
//!
//! Copies are deliberately left alone and no uses are rewritten: the
//! φ-web destruction paths behind [`crate::copy_preserving_pipeline`]
//! stay sound in the presence of this pass.

use fcc_analysis::AnalysisManager;
use fcc_dataflow::FunctionAnalysis;
use fcc_ir::{Block, Function, Inst, InstKind};

use crate::constfold::restore_phis_first;

/// Statistics from one `range_fold` run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RangeFoldStats {
    /// Instructions replaced by `const`.
    pub folded: usize,
    /// Conditional branches with a provably-dead edge rewritten to
    /// jumps.
    pub branches_resolved: usize,
    /// Single-argument φs collapsed into copies.
    pub phis_collapsed: usize,
    /// Unreachable blocks removed afterwards.
    pub blocks_removed: usize,
}

/// Fold analysis-proven constants and dead branches to a fixpoint.
pub fn range_fold(func: &mut Function) -> RangeFoldStats {
    range_fold_with(func, &mut AnalysisManager::new())
}

/// [`range_fold`], sharing analyses through `am`.
pub fn range_fold_with(func: &mut Function, am: &mut AnalysisManager) -> RangeFoldStats {
    let mut stats = RangeFoldStats::default();
    while fold_once(func, am, &mut stats) {}
    stats
}

fn fold_once(func: &mut Function, am: &mut AnalysisManager, stats: &mut RangeFoldStats) -> bool {
    let fa = FunctionAnalysis::of(func, am);
    let mut changed = false;

    // Replace every proven-constant definition. Copies stay (φ-web
    // soundness), and what is already `const` needs no work.
    let blocks: Vec<Block> = func.blocks().collect();
    for &b in &blocks {
        if !fa.block_live(b) {
            continue;
        }
        for inst in func.block_insts(b).to_vec() {
            let data = func.inst(inst);
            if data.dst.is_none()
                || matches!(
                    data.kind,
                    InstKind::Const { .. }
                        | InstKind::Copy { .. }
                        | InstKind::Param { .. }
                        | InstKind::Load { .. }
                )
            {
                continue;
            }
            let dst = data.dst.expect("checked above");
            if let Some(imm) = fa.constant_of(dst) {
                func.inst_mut(inst).kind = InstKind::Const { imm };
                stats.folded += 1;
                changed = true;
            }
        }
    }
    // A folded φ leaves a const at the block head; everything below
    // scans φs from the top, so restore the invariant right away.
    if changed {
        restore_phis_first(func);
    }

    // Rewrite branches with a provably-dead successor edge into jumps.
    let mut resolved_any = false;
    for &b in &blocks {
        if !fa.block_live(b) {
            continue;
        }
        let Some(term) = func.terminator(b) else {
            continue;
        };
        if let InstKind::Branch {
            then_dst, else_dst, ..
        } = func.inst(term).kind
        {
            if then_dst == else_dst {
                continue;
            }
            let dst = match (fa.edge_live(b, then_dst), fa.edge_live(b, else_dst)) {
                (true, false) => then_dst,
                (false, true) => else_dst,
                _ => continue,
            };
            func.inst_mut(term).kind = InstKind::Jump { dst };
            stats.branches_resolved += 1;
            resolved_any = true;
            changed = true;
        }
    }

    if resolved_any {
        // Dropped edges invalidate φ keys, exactly as in constfold:
        // retain arguments whose predecessor still has an edge here,
        // after pruning the blocks made unreachable.
        stats.blocks_removed += func.remove_unreachable_blocks();
        let cfg = am.cfg(func);
        for b in func.blocks().collect::<Vec<_>>() {
            let phis: Vec<Inst> = func.block_phis(b).collect();
            for phi in phis {
                let preds: Vec<Block> = cfg.preds(b).to_vec();
                if let InstKind::Phi { args } = &mut func.inst_mut(phi).kind {
                    args.retain(|a| preds.contains(&a.pred));
                }
            }
        }
    }

    // Collapse single-argument φs into copies.
    for &b in &blocks {
        if !func.blocks().any(|x| x == b) {
            continue; // removed above
        }
        let phis: Vec<Inst> = func.block_phis(b).collect();
        for phi in phis {
            if let InstKind::Phi { args } = &func.inst(phi).kind {
                if args.len() == 1 {
                    let src = args[0].value;
                    func.inst_mut(phi).kind = InstKind::Copy { src };
                    stats.phis_collapsed += 1;
                    changed = true;
                }
            }
        }
    }

    // Collapsed φs became copies at the block head; restore the
    // φs-first invariant once more before handing the function back.
    if changed {
        restore_phis_first(func);
    }

    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;

    #[test]
    fn folds_what_plain_constfold_cannot() {
        // t = x % 8 under x ≥ 0: `t < 0` is provably false — no
        // syntactic constant anywhere near the branch.
        let mut f = parse_function(
            "function @g(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 v2 = ge v0, v1
                 branch v2, b1, b5
             b1:
                 v3 = const 8
                 v4 = rem v0, v3
                 v5 = lt v4, v1
                 branch v5, b2, b3
             b2:
                 v6 = const 111
                 jump b4
             b3:
                 v7 = const 222
                 jump b4
             b4:
                 v8 = phi [b2: v6], [b3: v7]
                 jump b5
             b5:
                 return v1
             }",
        )
        .unwrap();
        let before = fcc_interp::run(&f, &[42]).unwrap().ret;
        let stats = range_fold(&mut f);
        assert!(stats.branches_resolved >= 1, "{stats:?}");
        assert!(stats.folded >= 1, "v5 and the φ fold: {stats:?}");
        assert!(stats.blocks_removed >= 1, "b2 removed: {stats:?}");
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[42]).unwrap().ret, before);
        assert_eq!(fcc_interp::run(&f, &[-3]).unwrap().ret, before);
    }

    #[test]
    fn keeps_data_dependent_branches() {
        let mut f = parse_function(
            "function @k(1) {
             b0:
                 v0 = param 0
                 v1 = const 10
                 v2 = lt v0, v1
                 branch v2, b1, b2
             b1:
                 jump b2
             b2:
                 return v0
             }",
        )
        .unwrap();
        let stats = range_fold(&mut f);
        assert_eq!(stats.branches_resolved, 0);
        verify_function(&f).unwrap();
    }

    #[test]
    fn loop_counter_modulo_guard_folds() {
        // for i in 0..n: t = i % 8; if (t > 7) unreachable.
        let mut f = parse_function(
            "function @m(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 jump b1
             b1:
                 v2 = phi [b0: v1], [b4: v4]
                 v3 = lt v2, v0
                 branch v3, b2, b5
             b2:
                 v5 = const 8
                 v6 = rem v2, v5
                 v7 = gt v6, v5
                 branch v7, b3, b4
             b3:
                 v8 = const 1000000
                 jump b4
             b4:
                 v9 = phi [b2: v6], [b3: v8]
                 v10 = const 1
                 v4 = add v2, v10
                 jump b1
             b5:
                 return v2
             }",
        )
        .unwrap();
        let before = fcc_interp::run(&f, &[20]).unwrap().ret;
        let stats = range_fold(&mut f);
        assert!(
            stats.branches_resolved >= 1,
            "the t > 8 guard is provably dead: {stats:?}"
        );
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[20]).unwrap().ret, before);
    }
}
