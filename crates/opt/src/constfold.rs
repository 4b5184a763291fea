//! Sparse constant folding and branch simplification (SSA only).
//!
//! Propagates compile-time constants along SSA def-use chains, folds
//! arithmetic on constants, rewrites constant branches into jumps, prunes
//! φ arguments on deleted edges, collapses single-argument φs into
//! copies, and removes the code made unreachable — a simplified
//! Wegman–Zadeck-style pass providing realistic optimizer context for the
//! coalescing pipeline (constant branches are one way real compilers
//! produce the irregular CFGs the algorithm must handle).

use std::collections::HashMap;

use fcc_analysis::AnalysisManager;
use fcc_ir::{Block, Function, Inst, InstKind, Value};

/// Statistics from one folding run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FoldStats {
    /// Instructions replaced by `const`.
    pub folded: usize,
    /// Conditional branches rewritten into jumps.
    pub branches_resolved: usize,
    /// Single-argument φs collapsed into copies.
    pub phis_collapsed: usize,
    /// Unreachable blocks removed afterwards.
    pub blocks_removed: usize,
}

/// Fold constants in the SSA function `func` to a fixpoint.
///
/// # Panics
/// Panics (in debug builds, via the verifier downstream) if `func` is not
/// in SSA form — the def-use reasoning requires single definitions.
pub fn const_fold(func: &mut Function) -> FoldStats {
    const_fold_with(func, &mut AnalysisManager::new())
}

/// [`const_fold`], pulling the CFG (needed after branch resolution) from
/// a shared [`AnalysisManager`] instead of recomputing it ad hoc.
pub fn const_fold_with(func: &mut Function, am: &mut AnalysisManager) -> FoldStats {
    let mut stats = FoldStats::default();
    loop {
        let changed = fold_once(func, am, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

fn fold_once(func: &mut Function, am: &mut AnalysisManager, stats: &mut FoldStats) -> bool {
    // Map each SSA value to its constant, if its defining instruction is
    // (or folds to) a constant.
    let mut consts: HashMap<Value, i64> = HashMap::new();
    let mut changed = false;

    // Iterate in layout order until stable within this round; dominance
    // guarantees defs precede uses except through φs, which we re-visit
    // on the next round.
    for b in func.blocks().collect::<Vec<_>>() {
        let insts: Vec<Inst> = func.block_insts(b).to_vec();
        for inst in insts {
            let data = func.inst(inst);
            let dst = data.dst;
            let new_const = match &data.kind {
                InstKind::Const { imm } => Some(*imm),
                InstKind::Copy { src } => consts.get(src).copied(),
                InstKind::Unary { op, a } => consts.get(a).map(|&x| op.eval(x)),
                InstKind::Binary { op, a, b } => match (consts.get(a), consts.get(b)) {
                    (Some(&x), Some(&y)) => Some(op.eval(x, y)),
                    _ => None,
                },
                InstKind::Phi { args } => {
                    // A φ whose arguments are all the same constant.
                    let vals: Option<Vec<i64>> =
                        args.iter().map(|a| consts.get(&a.value).copied()).collect();
                    vals.and_then(|v| {
                        if !v.is_empty() && v.iter().all(|&x| x == v[0]) {
                            Some(v[0])
                        } else {
                            None
                        }
                    })
                }
                _ => None,
            };
            if let (Some(c), Some(d)) = (new_const, dst) {
                consts.insert(d, c);
                if !matches!(func.inst(inst).kind, InstKind::Const { .. }) {
                    func.inst_mut(inst).kind = InstKind::Const { imm: c };
                    stats.folded += 1;
                    changed = true;
                }
            }
        }
    }

    // A folded φ leaves a const at the block head, and the φ pruning
    // and collapsing below scan φs from the top — restore the φs-first
    // invariant before they run, not just at the end.
    if changed {
        restore_phis_first(func);
    }

    // Resolve constant branches.
    let blocks: Vec<Block> = func.blocks().collect();
    let mut resolved_any = false;
    for &b in &blocks {
        let Some(term) = func.terminator(b) else {
            continue;
        };
        if let InstKind::Branch {
            cond,
            then_dst,
            else_dst,
        } = func.inst(term).kind
        {
            if let Some(&c) = consts.get(&cond) {
                let dst = if c != 0 { then_dst } else { else_dst };
                func.inst_mut(term).kind = InstKind::Jump { dst };
                stats.branches_resolved += 1;
                resolved_any = true;
                changed = true;
            }
        }
    }

    if resolved_any {
        // Dropped edges invalidate φ keys: retain only arguments whose
        // predecessor still has an edge here, then prune dead blocks.
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

    // Collapse single-argument φs into copies (single-pred blocks after
    // branch resolution).
    for &b in &blocks {
        if !func.blocks().any(|x| x == b) {
            continue; // removed above
        }
        let phis: Vec<Inst> = func.block_phis(b).collect();
        for phi in phis {
            let data = func.inst(phi);
            if let InstKind::Phi { args } = &data.kind {
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
    // φs-first invariant once more (safe: the folded instruction cannot
    // feed a φ argument of its own block, those are edge values).
    if changed {
        restore_phis_first(func);
    }

    changed
}

/// Re-link any block whose φs no longer lead it (a φ rewritten in place
/// to `const`/`copy` leaves a non-φ above its sibling φs).
pub(crate) fn restore_phis_first(func: &mut Function) {
    if fcc_analysis::fault::phi_restore_disabled() {
        return;
    }
    for b in func.blocks().collect::<Vec<_>>() {
        let insts: Vec<Inst> = func.block_insts(b).to_vec();
        let first_nonphi = insts.iter().position(|&i| !func.inst(i).kind.is_phi());
        let needs_fix = match first_nonphi {
            Some(p) => insts[p..].iter().any(|&i| func.inst(i).kind.is_phi()),
            None => false,
        };
        if needs_fix {
            let (phis, rest): (Vec<Inst>, Vec<Inst>) =
                insts.into_iter().partition(|&i| func.inst(i).kind.is_phi());
            func.retain_insts(b, |_, _| false);
            for i in phis.into_iter().chain(rest) {
                func.relink_inst_at_end(b, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;

    #[test]
    fn folds_arithmetic_chains() {
        let mut f = parse_function(
            "function @a(0) {
             b0:
                 v0 = const 6
                 v1 = const 7
                 v2 = mul v0, v1
                 v3 = add v2, v2
                 return v3
             }",
        )
        .unwrap();
        let stats = const_fold(&mut f);
        assert_eq!(stats.folded, 2);
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[]).unwrap().ret, Some(84));
    }

    #[test]
    fn resolves_constant_branch_and_prunes() {
        let mut f = parse_function(
            "function @br(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 10
                 jump b3
             b2:
                 v2 = const 20
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v2]
                 return v3
             }",
        )
        .unwrap();
        let stats = const_fold(&mut f);
        assert!(stats.branches_resolved >= 1);
        assert!(stats.blocks_removed >= 1);
        assert!(stats.phis_collapsed >= 1 || !f.has_phis());
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[]).unwrap().ret, Some(10));
    }

    #[test]
    fn phi_of_equal_constants_folds() {
        let mut f = parse_function(
            "function @pc(1) {
             b0:
                 v0 = param 0
                 v1 = const 4
                 v2 = const 4
                 branch v0, b1, b2
             b1:
                 jump b3
             b2:
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v2]
                 v4 = add v3, v3
                 return v4
             }",
        )
        .unwrap();
        const_fold(&mut f);
        assert_eq!(fcc_interp::run(&f, &[0]).unwrap().ret, Some(8));
        assert_eq!(fcc_interp::run(&f, &[1]).unwrap().ret, Some(8));
        // The φ and the add both became constants.
        verify_function(&f).unwrap();
    }

    #[test]
    fn nonconstant_untouched() {
        let src = "function @n(1) {
             b0:
                 v0 = param 0
                 v1 = const 2
                 v2 = mul v0, v1
                 return v2
             }";
        let mut f = parse_function(src).unwrap();
        let stats = const_fold(&mut f);
        assert_eq!(stats.folded, 0);
        assert_eq!(fcc_interp::run(&f, &[21]).unwrap().ret, Some(42));
    }

    #[test]
    fn loop_carried_phi_not_folded_from_one_side() {
        let mut f = parse_function(
            "function @l(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 jump b1
             b1:
                 v2 = phi [b0: v1], [b1: v3]
                 v4 = const 1
                 v3 = add v2, v4
                 v5 = lt v3, v0
                 branch v5, b1, b2
             b2:
                 return v3
             }",
        )
        .unwrap();
        const_fold(&mut f);
        verify_function(&f).unwrap();
        // The loop must still run: 5 iterations for n=5.
        assert_eq!(fcc_interp::run(&f, &[5]).unwrap().ret, Some(5));
    }
}
