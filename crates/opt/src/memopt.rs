//! Memory-aware transforms gated on `fcc-alias` verdicts.
//!
//! Three classical memory optimisations, each justified purely by
//! [`AliasVerdict`]s and the block-entry facts of the memory-state
//! lattice — never by syntactic address equality:
//!
//! * [`store_forward`] — a load whose address must-alias a still-valid
//!   earlier store reads a value the program already holds in a
//!   register; replace the load with a `copy` of the stored value.
//!   Works in-block through a walking store window and across blocks
//!   through [`fcc_alias::solve_memory`] entry facts.
//! * [`redundant_load_elim`] — a load that must-alias an earlier load
//!   with no possibly-clobbering store in between repeats a read;
//!   replace it with a `copy` of the first load's result.
//! * [`dead_store_elim`] — a store whose **next memory operation** in
//!   its block is a must-alias store is overwritten before any possible
//!   observation; delete it.
//!
//! ## Trap preservation
//!
//! The interpreter's normative rule (`fcc-interp` module docs) makes
//! every out-of-range access trap, so memory instructions cannot be
//! treated as pure. Each transform preserves the trap behaviour
//! exactly:
//!
//! * forwarding and load elimination replace a load with a copy only
//!   when a must-alias access already executed on every path to it —
//!   that access would have trapped first at the same address, so the
//!   replaced load was provably in bounds;
//! * dead-store elimination requires the very next memory operation to
//!   be the killing must-alias store, with only trap-free scalar
//!   instructions in between (`param` is also treated as a barrier —
//!   it traps on missing arguments). A store that would have trapped is
//!   replaced by an identical trap, [`ExecError::OutOfBounds`] with the
//!   same address and bound, at the killing store.
//!
//! Like every deleting pass (DCE included), removing instructions can
//! turn an `OutOfFuel` trap into a completed run; fuel is a resource
//! bound, not an observable, by the differential harness's policy.
//!
//! [`ExecError::OutOfBounds`]: ../fcc_interp/enum.ExecError.html

use std::collections::BTreeMap;

use fcc_alias::{alias_verdict, alias_verdict_const, solve_memory, AliasVerdict};
use fcc_analysis::AnalysisManager;
use fcc_dataflow::FunctionAnalysis;
use fcc_ir::{Function, Inst, InstKind, Value};

/// [`store_forward_with`] against a throwaway analysis cache.
pub fn store_forward(func: &mut Function) -> usize {
    store_forward_with(func, &mut AnalysisManager::new())
}

/// Replace loads that must-alias a dominating still-valid store with a
/// `copy` of the stored value. Returns the number of loads forwarded.
///
/// In-block, a store window tracks `(addr, value)` pairs killed by any
/// later store not provably disjoint; across blocks, an entry fact
/// `k → v` of the memory-state lattice means every executable path last
/// stored `v` to word `k`, which both proves `mem[k] = v` and (by
/// strictness — each path runs a store that uses `v`) that `v`'s
/// definition dominates the block.
pub fn store_forward_with(func: &mut Function, am: &mut AnalysisManager) -> usize {
    store_forward_filtered(func, am, false)
}

/// [`store_forward_with`], refusing to forward any value that appears
/// as a φ definition or argument.
///
/// Forwarding `v` extends `v`'s live range to the replaced load. When
/// `v` belongs to a φ web (code headed into `destruct_via_webs`), the
/// stretched range can newly cross the definition of another member of
/// the *same* web — for instance the web's φ at a loop header, when a
/// value stored before the loop is forwarded to a load inside it — and
/// web unioning would then merge interfering names, the exact
/// miscompile the `class-interference` audit flags. Load results are
/// never φ operands in unfolded SSA, so [`redundant_load_elim_with`]
/// needs no such gate, and deleting stores only shrinks live ranges, so
/// neither does [`dead_store_elim_with`].
pub fn store_forward_web_safe_with(func: &mut Function, am: &mut AnalysisManager) -> usize {
    store_forward_filtered(func, am, true)
}

fn store_forward_filtered(func: &mut Function, am: &mut AnalysisManager, web_safe: bool) -> usize {
    let phi_involved: std::collections::HashSet<Value> = if web_safe {
        let mut set = std::collections::HashSet::new();
        for b in func.blocks() {
            for p in func.block_phis(b) {
                let data = func.inst(p);
                set.extend(data.dst);
                if let InstKind::Phi { args } = &data.kind {
                    set.extend(args.iter().map(|a| a.value));
                }
            }
        }
        set
    } else {
        Default::default()
    };
    let forwardable = |v: Value| !web_safe || !phi_involved.contains(&v);
    let fa = FunctionAnalysis::of(func, am);
    let mem = solve_memory(func, &fa);
    let mut rewrites: Vec<(Inst, Value)> = Vec::new();
    for b in func.blocks() {
        if !fa.block_live(b) {
            continue;
        }
        // Facts on constant words, seeded from the cross-block lattice.
        let mut known: BTreeMap<i64, Value> = mem.entry(b).facts().clone();
        // Stores seen in this block, latest last.
        let mut window: Vec<(Value, Value)> = Vec::new();
        for &i in func.block_insts(b) {
            match &func.inst(i).kind {
                InstKind::Store { addr, val } => {
                    match fa.constant_of(*addr) {
                        Some(k) => {
                            known.insert(k, *val);
                        }
                        None => known.retain(|&k, _| {
                            alias_verdict_const(&fa, *addr, k) == AliasVerdict::Disjoint
                        }),
                    }
                    window.retain(|&(a, _)| alias_verdict(&fa, a, *addr) == AliasVerdict::Disjoint);
                    window.push((*addr, *val));
                }
                InstKind::Load { addr } => {
                    let hit = window
                        .iter()
                        .rev()
                        .find(|&&(a, _)| alias_verdict(&fa, a, *addr) == AliasVerdict::Must)
                        .map(|&(_, v)| v)
                        .or_else(|| fa.constant_of(*addr).and_then(|k| known.get(&k).copied()));
                    if let Some(v) = hit {
                        if forwardable(v) {
                            rewrites.push((i, v));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let n = rewrites.len();
    for (i, v) in rewrites {
        func.inst_mut(i).kind = InstKind::Copy { src: v };
    }
    n
}

/// [`redundant_load_elim_with`] against a throwaway analysis cache.
pub fn redundant_load_elim(func: &mut Function) -> usize {
    redundant_load_elim_with(func, &mut AnalysisManager::new())
}

/// Replace a load that must-alias an earlier load in the same block —
/// with no intervening store that may clobber the word — by a `copy` of
/// the first load's result. Returns the number of loads eliminated.
pub fn redundant_load_elim_with(func: &mut Function, am: &mut AnalysisManager) -> usize {
    let fa = FunctionAnalysis::of(func, am);
    let mut rewrites: Vec<(Inst, Value)> = Vec::new();
    for b in func.blocks() {
        if !fa.block_live(b) {
            continue;
        }
        // Loads still known fresh: (addr, the value that holds mem[addr]).
        let mut fresh: Vec<(Value, Value)> = Vec::new();
        for &i in func.block_insts(b) {
            match &func.inst(i).kind {
                InstKind::Load { addr } => {
                    let dst = func.inst(i).dst.expect("loads define a value");
                    if let Some(&(_, first)) = fresh
                        .iter()
                        .find(|&&(a, _)| alias_verdict(&fa, a, *addr) == AliasVerdict::Must)
                    {
                        rewrites.push((i, first));
                        // dst == first from here on; keep the original
                        // entry, which already covers the address.
                    } else {
                        fresh.push((*addr, dst));
                    }
                }
                InstKind::Store { addr, val } => {
                    fresh.retain(|&(a, _)| alias_verdict(&fa, a, *addr) == AliasVerdict::Disjoint);
                    // The store itself publishes a fresh fact: a later
                    // load of a must-alias address is handled by
                    // store-forwarding, so no entry is needed here.
                    let _ = val;
                }
                _ => {}
            }
        }
    }
    let n = rewrites.len();
    for (i, v) in rewrites {
        func.inst_mut(i).kind = InstKind::Copy { src: v };
    }
    n
}

/// [`dead_store_elim_with`] against a throwaway analysis cache.
pub fn dead_store_elim(func: &mut Function) -> usize {
    dead_store_elim_with(func, &mut AnalysisManager::new())
}

/// Delete stores whose next memory operation in the block is a
/// must-alias store, with only trap-free instructions in between.
/// Returns the number of stores deleted.
///
/// The killing store writes the same runtime address, so the deleted
/// store's value is never observable — and if the deleted store would
/// have trapped, the killing store traps with the identical
/// `OutOfBounds` payload instead (`param` barriers keep any other trap
/// from firing first).
pub fn dead_store_elim_with(func: &mut Function, am: &mut AnalysisManager) -> usize {
    let fa = FunctionAnalysis::of(func, am);
    let mut removals = Vec::new();
    for b in func.blocks() {
        if !fa.block_live(b) {
            continue;
        }
        let insts = func.block_insts(b).to_vec();
        for (pos, &i) in insts.iter().enumerate() {
            let InstKind::Store { addr, .. } = func.inst(i).kind else {
                continue;
            };
            for &j in &insts[pos + 1..] {
                match &func.inst(j).kind {
                    InstKind::Store { addr: a2, .. } => {
                        if alias_verdict(&fa, addr, *a2) == AliasVerdict::Must {
                            removals.push((b, i));
                        }
                        break;
                    }
                    // Barriers: anything that can observe memory or trap.
                    InstKind::Load { .. } | InstKind::Param { .. } => break,
                    _ => {}
                }
            }
        }
    }
    let n = removals.len();
    for (b, i) in removals {
        func.remove_inst(b, i);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;

    fn parsed(src: &str) -> Function {
        parse_function(src).unwrap()
    }

    #[test]
    fn forwards_same_block_constant_and_ssa_addresses() {
        let mut f = parsed(
            "function @f(2) {
             b0:
                 v0 = param 0
                 v1 = param 1
                 v2 = const 5
                 store v2, v0
                 v3 = load v2
                 v4 = const 63
                 v5 = and v1, v4
                 store v5, v1
                 v6 = load v5
                 v7 = add v3, v6
                 return v7
             }",
        );
        assert_eq!(store_forward(&mut f), 2, "{f}");
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[7, 9]).unwrap().ret, Some(16), "{f}");
    }

    #[test]
    fn forwards_across_blocks_when_every_path_agrees() {
        let mut f = parsed(
            "function @g(2) {
             b0:
                 v0 = param 0
                 v1 = param 1
                 v2 = const 3
                 store v2, v1
                 branch v0, b1, b2
             b1:
                 jump b3
             b2:
                 jump b3
             b3:
                 v3 = load v2
                 return v3
             }",
        );
        assert_eq!(store_forward(&mut f), 1, "{f}");
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[1, 42]).unwrap().ret, Some(42));
        assert_eq!(fcc_interp::run(&f, &[0, 42]).unwrap().ret, Some(42));
    }

    #[test]
    fn may_alias_store_blocks_forwarding() {
        let mut f = parsed(
            "function @h(2) {
             b0:
                 v0 = param 0
                 v1 = param 1
                 v2 = const 5
                 store v2, v0
                 store v1, v0
                 v3 = load v2
                 return v3
             }",
        );
        assert_eq!(store_forward(&mut f), 0, "{f}");
    }

    #[test]
    fn disjoint_store_does_not_block_forwarding() {
        let mut f = parsed(
            "function @k(1) {
             b0:
                 v0 = param 0
                 v1 = const 5
                 v2 = const 9
                 store v1, v0
                 store v2, v0
                 v3 = load v1
                 return v3
             }",
        );
        assert_eq!(store_forward(&mut f), 1, "{f}");
        assert_eq!(fcc_interp::run(&f, &[11]).unwrap().ret, Some(11));
    }

    #[test]
    fn eliminates_repeated_loads_not_clobbered_ones() {
        let mut f = parsed(
            "function @r(1) {
             b0:
                 v0 = param 0
                 v1 = const 5
                 v2 = load v1
                 v3 = load v1
                 store v0, v0
                 v4 = load v1
                 v5 = add v2, v3
                 v6 = add v5, v4
                 return v6
             }",
        );
        assert_eq!(redundant_load_elim(&mut f), 1, "v3 only: {f}");
        verify_function(&f).unwrap();
        // v0 = 5 makes the may-alias store actually hit word 5.
        assert_eq!(fcc_interp::run(&f, &[5]).unwrap().ret, Some(5));
    }

    #[test]
    fn deletes_store_killed_by_next_memory_op() {
        let mut f = parsed(
            "function @d(1) {
             b0:
                 v0 = param 0
                 v1 = const 5
                 v2 = const 7
                 store v1, v0
                 v3 = add v0, v0
                 store v1, v3
                 v4 = load v1
                 return v4
             }",
        );
        assert_eq!(dead_store_elim(&mut f), 1, "{f}");
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[3]).unwrap().ret, Some(6));
    }

    #[test]
    fn web_safe_variant_skips_phi_involved_values() {
        let src = "function @ws(1) {
             b0:
                 v0 = param 0
                 branch v0, b1, b2
             b1:
                 v1 = const 1
                 jump b3
             b2:
                 v2 = const 2
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v2]
                 v4 = const 7
                 store v4, v3
                 v5 = load v4
                 return v5
             }";
        // The stored value is a φ definition: forwarding it would
        // stretch a web member's live range, so the web-safe variant
        // refuses while the default forwards.
        let mut f = parsed(src);
        let mut am = fcc_analysis::AnalysisManager::new();
        assert_eq!(store_forward_web_safe_with(&mut f, &mut am), 0, "{f}");
        let mut f = parsed(src);
        assert_eq!(store_forward(&mut f), 1, "{f}");
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[0]).unwrap().ret, Some(2));
    }

    #[test]
    fn intervening_load_keeps_the_store() {
        let mut f = parsed(
            "function @alive(1) {
             b0:
                 v0 = param 0
                 v1 = const 5
                 store v1, v0
                 v2 = load v0
                 store v1, v2
                 v3 = load v1
                 return v3
             }",
        );
        assert_eq!(dead_store_elim(&mut f), 0, "{f}");
    }

    #[test]
    fn oob_dead_store_traps_identically_after_deletion() {
        // Both stores hit the provably-negative word -4: deleting the
        // first preserves the exact OutOfBounds payload.
        let src = "function @t(1) {
             b0:
                 v0 = param 0
                 v1 = const -4
                 store v1, v0
                 v2 = add v0, v0
                 store v1, v2
                 return v0
             }";
        let mut f = parsed(src);
        let before = fcc_interp::run(&f, &[1]).unwrap_err();
        assert_eq!(dead_store_elim(&mut f), 1, "{f}");
        let after = fcc_interp::run(&f, &[1]).unwrap_err();
        assert_eq!(before, after);
    }
}
