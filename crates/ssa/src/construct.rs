//! SSA construction (Cytron et al.) with optional copy folding.
//!
//! φ-nodes are placed at iterated dominance frontiers of each variable's
//! definition blocks; a depth-first walk of the dominator tree then renames
//! every definition to a fresh SSA value. Three flavours are supported:
//!
//! * [`SsaFlavor::Minimal`] — φs at every iterated-DF block;
//! * [`SsaFlavor::SemiPruned`] — φs only for *global* names (live across a
//!   block boundary), Briggs et al.'s compromise;
//! * [`SsaFlavor::Pruned`] — φs only where the variable is live-in; the
//!   paper builds pruned SSA "to make the reasoning simpler" (Section 3).
//!
//! **Copy folding** (`fold_copies`) replays the classical trick from
//! Briggs et al.: while renaming, a `v ← copy u` definition does not mint
//! a new SSA name — the copy is deleted and `v`'s name stack simply
//! borrows `u`'s current name. This deletes every copy in the program and
//! is exactly what creates the interfering φ-webs the paper's algorithm
//! must later break apart.
//!
//! Strictness (Definition 2.1) is imposed up front the way the paper
//! suggests: every variable in the live-in set of the entry block gets a
//! synthetic `const 0` initialisation at the top of the entry.

use fcc_analysis::{AnalysisManager, DomTree, DominanceFrontiers, PreservedAnalyses};
use fcc_ir::{Block, ControlFlowGraph, Function, Inst, InstKind, PhiArg, Value};

/// Which φ-placement discipline to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SsaFlavor {
    /// φs at every iterated dominance-frontier block.
    Minimal,
    /// φs only for names that are live across some block boundary.
    SemiPruned,
    /// φs only where the variable is live-in (requires liveness; the
    /// paper's choice).
    #[default]
    Pruned,
}

/// Counters describing one SSA construction run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SsaStats {
    /// φ-nodes inserted.
    pub phis_inserted: usize,
    /// Copies deleted by folding during renaming.
    pub copies_folded: usize,
    /// Synthetic entry-block initialisations added to impose strictness.
    pub strictness_inits: usize,
    /// SSA values minted.
    pub values_minted: usize,
}

/// Convert `func` (any structurally valid function without φs) into SSA
/// form. Returns statistics about the conversion.
///
/// # Panics
///
/// Panics if `func` already contains φ-nodes.
pub fn build_ssa(func: &mut Function, flavor: SsaFlavor, fold_copies: bool) -> SsaStats {
    build_ssa_with(func, flavor, fold_copies, &mut AnalysisManager::new())
}

/// [`build_ssa`], pulling CFG, liveness, and dominators from a shared
/// [`AnalysisManager`]. The caches end up stale when this returns (the
/// renamer rewrites the whole function), which the manager detects
/// through the epoch — later queries simply recompute.
pub fn build_ssa_with(
    func: &mut Function,
    flavor: SsaFlavor,
    fold_copies: bool,
    am: &mut AnalysisManager,
) -> SsaStats {
    assert!(!func.has_phis(), "build_ssa expects a phi-free function");
    let mut stats = SsaStats::default();

    // Renaming walks the dominator tree, so code in unreachable blocks
    // would survive untouched (stale names, stale copies): drop it.
    func.remove_unreachable_blocks();

    let cfg = am.cfg(func);
    assert!(
        cfg.preds(func.entry()).is_empty(),
        "build_ssa requires an entry block without predecessors"
    );
    // Liveness over the *pre-SSA* variables: used for strictness
    // initialisation and (for pruned SSA) φ placement.
    let live = am.liveness(func);

    // Impose strictness: initialise every variable that is live-in at the
    // entry (i.e. has some upwards-exposed use not covered by a def).
    let entry = func.entry();
    let epoch_before_inits = func.epoch();
    for &vi in live.live_in(entry).iter().rev() {
        func.prepend_inst(
            entry,
            InstKind::Const { imm: 0 },
            Some(Value::new(vi as usize)),
        );
        stats.strictness_inits += 1;
    }
    // Recompute liveness if we changed the code; prepending constants
    // leaves every block and edge in place, so the CFG core survives.
    let live = if stats.strictness_inits > 0 {
        am.invalidate(func, epoch_before_inits, PreservedAnalyses::CfgCore);
        am.liveness(func)
    } else {
        live
    };

    let dt = am.domtree(func);
    let dfs = DominanceFrontiers::compute(&cfg, &dt);

    let num_vars = func.num_values();

    // Definition blocks per variable, and the set of "global" names for
    // semi-pruned placement (used in some block before any local def).
    let mut def_blocks: Vec<Vec<Block>> = vec![Vec::new(); num_vars];
    let mut global: Vec<bool> = vec![false; num_vars];
    // `defined_in[v]` is the index + 1 of the last block seen defining v.
    let mut defined_in: Vec<u32> = vec![0; num_vars];
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let stamp = b.index() as u32 + 1;
        for &inst in func.block_insts(b) {
            let data = func.inst(inst);
            data.kind.for_each_use(|v| {
                if defined_in[v.index()] != stamp {
                    global[v.index()] = true;
                }
            });
            if let Some(d) = data.dst {
                if defined_in[d.index()] != stamp {
                    def_blocks[d.index()].push(b);
                }
                defined_in[d.index()] = stamp;
            }
        }
    }

    // ---- φ insertion at iterated dominance frontiers ----
    // phi_var maps each inserted φ instruction to its source variable.
    let mut phi_var: Vec<Option<Value>> = Vec::new();
    // Per block, the index + 1 of the last variable that placed a φ there
    // (`has_phi`) or queued it (`on_work`).
    let mut has_phi: Vec<u32> = vec![0; func.num_blocks()];
    let mut on_work: Vec<u32> = vec![0; func.num_blocks()];
    let mut work: Vec<Block> = Vec::new();
    for var_idx in 0..num_vars {
        let var = Value::new(var_idx);
        if def_blocks[var_idx].is_empty() {
            continue;
        }
        match flavor {
            SsaFlavor::Minimal | SsaFlavor::Pruned => {}
            SsaFlavor::SemiPruned => {
                if !global[var_idx] {
                    continue;
                }
            }
        }
        let stamp = var_idx as u32 + 1;
        work.clear();
        work.extend_from_slice(&def_blocks[var_idx]);
        for &b in &work {
            on_work[b.index()] = stamp;
        }
        while let Some(d) = work.pop() {
            fcc_analysis::fuel::checkpoint(1);
            for &join in dfs.frontier(d) {
                if has_phi[join.index()] == stamp {
                    continue;
                }
                if flavor == SsaFlavor::Pruned && !live.is_live_in(var, join) {
                    continue;
                }
                has_phi[join.index()] = stamp;
                // Placeholder φ: args are filled in during renaming. The
                // destination is re-pointed to a fresh SSA value then too.
                let phi = func.prepend_phi(join, Vec::new(), var);
                phi_var.resize(func.num_insts(), None);
                phi_var[phi.index()] = Some(var);
                stats.phis_inserted += 1;
                if on_work[join.index()] != stamp {
                    on_work[join.index()] = stamp;
                    work.push(join);
                }
            }
        }
    }
    phi_var.resize(func.num_insts(), None);

    // ---- renaming ----
    let mut renamer = Renamer {
        func,
        dt: &dt,
        cfg: &cfg,
        phi_var: &phi_var,
        stacks: vec![Vec::new(); num_vars],
        fold_copies,
        stats: &mut stats,
        undef_cache: vec![None; num_vars],
        to_delete: Vec::new(),
    };
    renamer.run(entry);
    let to_delete = std::mem::take(&mut renamer.to_delete);

    // Remove folded copies.
    for (block, inst) in to_delete {
        func.remove_inst(block, inst);
    }

    stats
}

struct Renamer<'a> {
    func: &'a mut Function,
    dt: &'a DomTree,
    cfg: &'a ControlFlowGraph,
    /// Each inserted φ's source variable, by instruction.
    phi_var: &'a [Option<Value>],
    /// Name stack per original variable.
    stacks: Vec<Vec<Value>>,
    fold_copies: bool,
    stats: &'a mut SsaStats,
    /// Lazily created `const 0` definitions for paths where a variable is
    /// (semantically dead but) syntactically referenced before any def —
    /// only reachable under Minimal/SemiPruned placement.
    undef_cache: Vec<Option<Value>>,
    to_delete: Vec<(Block, Inst)>,
}

impl Renamer<'_> {
    fn run(&mut self, entry: Block) {
        // Explicit stack to avoid recursion depth limits on deep dominator
        // trees (generated workloads can nest thousands of blocks).
        enum Action {
            Visit(Block),
            Pop(Vec<(usize, usize)>),
        }
        let mut work = vec![Action::Visit(entry)];
        while let Some(action) = work.pop() {
            fcc_analysis::fuel::checkpoint(1);
            match action {
                Action::Visit(b) => {
                    let pops = self.visit_block(b);
                    work.push(Action::Pop(pops));
                    // Children pushed in reverse so they visit in order.
                    for &c in self.dt.children(b).iter().rev() {
                        work.push(Action::Visit(c));
                    }
                }
                Action::Pop(pops) => {
                    for (var, n) in pops {
                        let s = &mut self.stacks[var];
                        s.truncate(s.len() - n);
                    }
                }
            }
        }
    }

    fn cur(&mut self, var: Value) -> Value {
        if let Some(&v) = self.stacks[var.index()].last() {
            return v;
        }
        // No definition on this path: the use must be semantically dead
        // (pruned SSA never gets here). Materialise a `const 0` at the
        // entry so the output is strict.
        if let Some(u) = self.undef_cache[var.index()] {
            return u;
        }
        let u = self.func.new_value();
        self.stats.values_minted += 1;
        let entry = self.func.entry();
        self.func
            .prepend_inst(entry, InstKind::Const { imm: 0 }, Some(u));
        self.undef_cache[var.index()] = Some(u);
        u
    }

    fn visit_block(&mut self, b: Block) -> Vec<(usize, usize)> {
        let mut pops: Vec<(usize, usize)> = Vec::new();
        let push = |stacks: &mut Vec<Vec<Value>>,
                    var: Value,
                    name: Value,
                    pops: &mut Vec<(usize, usize)>| {
            stacks[var.index()].push(name);
            if let Some(e) = pops.iter_mut().find(|(v, _)| *v == var.index()) {
                e.1 += 1;
            } else {
                pops.push((var.index(), 1));
            }
        };

        let insts: Vec<Inst> = self.func.block_insts(b).to_vec();
        for inst in insts {
            let is_phi = self.func.inst(inst).kind.is_phi();
            if is_phi {
                // φs inserted by us carry their variable in phi_var.
                let var = self.phi_var[inst.index()].expect("phi without variable mapping");
                let new = self.func.new_value();
                self.stats.values_minted += 1;
                self.func.inst_mut(inst).dst = Some(new);
                push(&mut self.stacks, var, new, &mut pops);
                continue;
            }

            // Rewrite uses first.
            let mut kind = self.func.inst(inst).kind.clone();
            let mut used: Vec<Value> = Vec::new();
            kind.for_each_use(|v| used.push(v));
            // Resolve each distinct use through the stacks.
            let mut resolved: Vec<(Value, Value)> = Vec::new();
            for v in used {
                if !resolved.iter().any(|(o, _)| *o == v) {
                    let c = self.cur(v);
                    resolved.push((v, c));
                }
            }
            kind.for_each_use_mut(|v| {
                let r = resolved.iter().find(|(o, _)| o == v).expect("resolved");
                *v = r.1;
            });

            // Handle the definition.
            let dst = self.func.inst(inst).dst;
            if let Some(d) = dst {
                if self.fold_copies {
                    if let InstKind::Copy { src } = kind {
                        // Fold: dst's name becomes src's current name and
                        // the copy disappears.
                        push(&mut self.stacks, d, src, &mut pops);
                        self.stats.copies_folded += 1;
                        self.to_delete.push((b, inst));
                        continue;
                    }
                }
                let new = self.func.new_value();
                self.stats.values_minted += 1;
                self.func.inst_mut(inst).kind = kind;
                self.func.inst_mut(inst).dst = Some(new);
                push(&mut self.stacks, d, new, &mut pops);
            } else {
                self.func.inst_mut(inst).kind = kind;
            }
        }

        // Fill φ arguments in successors (duplicate edges keyed once).
        for &s in self.cfg.succs(b) {
            let phis: Vec<Inst> = self.func.block_phis(s).collect();
            for phi in phis {
                let Some(var) = self.phi_var[phi.index()] else {
                    continue;
                };
                // Duplicate edges (branch with both arms to s) still get a
                // single keyed argument.
                let already = match &self.func.inst(phi).kind {
                    InstKind::Phi { args } => args.iter().any(|a| a.pred == b),
                    _ => unreachable!(),
                };
                if already {
                    continue;
                }
                let name = self.cur(var);
                if let InstKind::Phi { args } = &mut self.func.inst_mut(phi).kind {
                    args.push(PhiArg {
                        pred: b,
                        value: name,
                    });
                }
            }
        }

        pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ssa;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;

    /// Classic multi-def program: x set in both arms of a conditional,
    /// then used after the join.
    const JOIN: &str = "
        function @join(1) {
        b0:
            v0 = param 0
            v1 = const 0
            branch v0, b1, b2
        b1:
            v1 = const 10
            jump b3
        b2:
            v1 = const 20
            jump b3
        b3:
            v2 = add v1, v0
            return v2
        }";

    /// A while loop incrementing i: i needs a φ at the header.
    const LOOP: &str = "
        function @loop(1) {
        b0:
            v0 = param 0
            v1 = const 0
            jump b1
        b1:
            v2 = lt v1, v0
            branch v2, b2, b3
        b2:
            v3 = const 1
            v1 = add v1, v3
            jump b1
        b3:
            return v1
        }";

    fn build(text: &str, flavor: SsaFlavor, fold: bool) -> (Function, SsaStats) {
        let mut f = parse_function(text).unwrap();
        verify_function(&f).unwrap();
        let stats = build_ssa(&mut f, flavor, fold);
        verify_function(&f).expect("structurally valid after SSA");
        verify_ssa(&f).expect("regular SSA after construction");
        (f, stats)
    }

    #[test]
    fn join_gets_one_phi() {
        let (f, stats) = build(JOIN, SsaFlavor::Pruned, false);
        assert_eq!(stats.phis_inserted, 1);
        assert_eq!(f.phi_count(), 1);
    }

    #[test]
    fn loop_header_gets_phi() {
        let (f, stats) = build(LOOP, SsaFlavor::Pruned, false);
        assert!(stats.phis_inserted >= 1);
        // The φ lives at the loop header b1.
        assert!(f.block_phis(Block::new(1)).count() >= 1);
    }

    #[test]
    fn all_flavors_produce_regular_ssa() {
        for flavor in [SsaFlavor::Minimal, SsaFlavor::SemiPruned, SsaFlavor::Pruned] {
            for fold in [false, true] {
                build(JOIN, flavor, fold);
                build(LOOP, flavor, fold);
            }
        }
    }

    #[test]
    fn pruned_inserts_no_more_phis_than_minimal() {
        let (_, min) = build(LOOP, SsaFlavor::Minimal, false);
        let (_, semi) = build(LOOP, SsaFlavor::SemiPruned, false);
        let (_, pruned) = build(LOOP, SsaFlavor::Pruned, false);
        assert!(pruned.phis_inserted <= semi.phis_inserted);
        assert!(semi.phis_inserted <= min.phis_inserted);
    }

    #[test]
    fn folding_deletes_copies() {
        let text = "
            function @c(1) {
            b0:
                v0 = param 0
                v1 = copy v0
                v2 = copy v1
                v3 = add v2, v1
                return v3
            }";
        let (f, stats) = build(text, SsaFlavor::Pruned, true);
        assert_eq!(stats.copies_folded, 2);
        assert_eq!(f.static_copy_count(), 0);
    }

    #[test]
    fn without_folding_copies_remain() {
        let text = "
            function @c(1) {
            b0:
                v0 = param 0
                v1 = copy v0
                return v1
            }";
        let (f, stats) = build(text, SsaFlavor::Pruned, false);
        assert_eq!(stats.copies_folded, 0);
        assert_eq!(f.static_copy_count(), 1);
    }

    #[test]
    fn folding_across_join_creates_phi_web() {
        // The paper's virtual-swap setup (Figure 3): x and y take opposite
        // copies of a and b on the two sides of a conditional. With
        // folding, the φs' arguments become a1/b1 directly.
        let text = "
            function @vs(1) {
            b0:
                v0 = param 0
                v1 = const 1
                v2 = const 2
                v3 = const 0
                v4 = const 0
                branch v0, b1, b2
            b1:
                v3 = copy v1
                v4 = copy v2
                jump b3
            b2:
                v3 = copy v2
                v4 = copy v1
                jump b3
            b3:
                v5 = div v3, v4
                return v5
            }";
        let (f, stats) = build(text, SsaFlavor::Pruned, true);
        assert_eq!(stats.copies_folded, 4);
        assert_eq!(f.phi_count(), 2);
        assert_eq!(f.static_copy_count(), 0);
        // Both φs must reference the original a/b SSA names (the consts).
        let mut phi_args = std::collections::HashSet::new();
        for b in f.blocks() {
            for phi in f.block_phis(b) {
                if let InstKind::Phi { args } = &f.inst(phi).kind {
                    for a in args {
                        phi_args.insert(a.value);
                    }
                }
            }
        }
        assert_eq!(phi_args.len(), 2, "both phis draw from the same two names");
    }

    #[test]
    fn strictness_imposed_for_upward_exposed_use() {
        // v1 used before any def on the else path: not strict. The
        // builder initialises it at the entry.
        let text = "
            function @ue(1) {
            b0:
                v0 = param 0
                branch v0, b1, b2
            b1:
                v1 = const 3
                jump b2
            b2:
                return v1
            }";
        let (_, stats) = build(text, SsaFlavor::Pruned, false);
        assert_eq!(stats.strictness_inits, 1);
    }

    #[test]
    fn multiple_assignments_in_one_block_use_last() {
        let text = "
            function @ma(0) {
            b0:
                v0 = const 1
                v0 = const 2
                v0 = const 3
                return v0
            }";
        let (f, _) = build(text, SsaFlavor::Pruned, false);
        // The return must reference the name minted for `const 3`.
        let insts = f.block_insts(f.entry());
        let last_def = f.inst(insts[insts.len() - 2]).dst.unwrap();
        match f.inst(*insts.last().unwrap()).kind {
            InstKind::Return { val } => assert_eq!(val, Some(last_def)),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "phi-free")]
    fn rejects_existing_phis() {
        let mut f = parse_function(
            "function @p(0) {
             b0:
                 v0 = const 1
                 jump b1
             b1:
                 v1 = phi [b0: v0]
                 return v1
             }",
        )
        .unwrap();
        build_ssa(&mut f, SsaFlavor::Pruned, false);
    }
}
