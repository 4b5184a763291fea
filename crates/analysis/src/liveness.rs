//! φ-aware live-variable analysis.
//!
//! A classical backward dataflow over per-block bit sets, with the φ
//! convention the paper relies on (Section 3.1):
//!
//! * a φ argument `v` flowing from predecessor `p` is live-**out** of `p`,
//!   but is **not** live-in to the φ's own block — the move "happens on the
//!   edge";
//! * a φ destination is an ordinary definition at the top of its block.
//!
//! This is what lets the algorithm's first filter distinguish "`aᵢ` is
//! live-in to the φ block" (a real interference: some other use needs the
//! old value) from "`aᵢ` merely flows into the φ" (no interference).

use crate::bitset::BitSet;
use fcc_ir::{Block, ControlFlowGraph, Function, InstKind, SecondaryMap, Value};

/// Per-block live-in/live-out sets over the value universe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Liveness {
    live_in: SecondaryMap<Block, BitSet>,
    live_out: SecondaryMap<Block, BitSet>,
    universe: usize,
    iterations: usize,
}

impl Liveness {
    /// Compute liveness for an **SSA** function by sparse per-variable
    /// backward propagation (Appel/Boissinot style): from each use, walk
    /// predecessors marking live-in/live-out until the (unique) defining
    /// block stops the walk. Visits only blocks where something is
    /// actually live, so it scales with the total size of live ranges
    /// rather than `blocks × values` — the shape a fast SSA-destruction
    /// pass wants.
    ///
    /// Produces exactly the same sets as [`compute`](Self::compute)
    /// (property-checked); behaviour on non-SSA input (multiple
    /// definitions) is *not* meaningful — use the dataflow version there.
    pub fn compute_ssa(func: &Function, cfg: &ControlFlowGraph) -> Self {
        let n = func.num_values();
        let mut live_in: SecondaryMap<Block, BitSet> = SecondaryMap::new();
        let mut live_out: SecondaryMap<Block, BitSet> = SecondaryMap::new();
        for &b in cfg.postorder() {
            live_in[b] = BitSet::new(n);
            live_out[b] = BitSet::new(n);
        }

        // Unique definition block per value.
        let mut def_block: Vec<Option<Block>> = vec![None; n];
        for &b in cfg.postorder() {
            for &inst in func.block_insts(b) {
                if let Some(d) = func.inst(inst).dst {
                    def_block[d.index()] = Some(b);
                }
            }
        }

        // Walk upward from a block where `v` is live-in, marking
        // predecessors' live-out (and transitively their live-in) until
        // the defining block terminates the walk.
        let mut stack: Vec<Block> = Vec::new();
        let up = |v: Value,
                  start: Block,
                  live_in: &mut SecondaryMap<Block, BitSet>,
                  live_out: &mut SecondaryMap<Block, BitSet>,
                  stack: &mut Vec<Block>| {
            let dv = def_block[v.index()];
            if dv == Some(start) {
                return; // defined here: live only inside the block
            }
            if !live_in[start].insert(v.index()) {
                return; // already propagated from here
            }
            stack.push(start);
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    live_out[p].insert(v.index());
                    if dv == Some(p) {
                        continue; // the walk stops at the definition
                    }
                    if live_in[p].insert(v.index()) {
                        stack.push(p);
                    }
                }
            }
        };

        for &b in cfg.postorder() {
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                data.kind.for_each_use(|v| {
                    up(v, b, &mut live_in, &mut live_out, &mut stack);
                });
                if let InstKind::Phi { args } = &data.kind {
                    // φ args are live-out of their predecessor edge; the
                    // upward walk starts *at the predecessor*.
                    for a in args {
                        if !cfg.is_reachable(a.pred) {
                            continue;
                        }
                        live_out[a.pred].insert(a.value.index());
                        up(a.value, a.pred, &mut live_in, &mut live_out, &mut stack);
                    }
                }
            }
        }

        Liveness {
            live_in,
            live_out,
            universe: n,
            iterations: 1,
        }
    }

    /// Compute liveness for `func`.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph) -> Self {
        let n = func.num_values();
        let postorder = cfg.postorder();

        // Per-block defs and upward-exposed uses (φ args excluded from
        // uses; φ dsts are defs).
        let mut defs: SecondaryMap<Block, BitSet> = SecondaryMap::new();
        let mut ue: SecondaryMap<Block, BitSet> = SecondaryMap::new();
        // φ uses per *predecessor* edge: for each block, the values its
        // successors' φs read from it.
        let mut phi_out: SecondaryMap<Block, BitSet> = SecondaryMap::new();

        for &b in postorder {
            let mut d = BitSet::new(n);
            let mut u = BitSet::new(n);
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                if !data.kind.is_phi() {
                    data.kind.for_each_use(|v| {
                        if !d.contains(v.index()) {
                            u.insert(v.index());
                        }
                    });
                }
                if let Some(dst) = data.dst {
                    d.insert(dst.index());
                }
                if let InstKind::Phi { args } = &data.kind {
                    for a in args {
                        if phi_out[a.pred].universe() != n {
                            phi_out[a.pred] = BitSet::new(n);
                        }
                        phi_out[a.pred].insert(a.value.index());
                    }
                }
            }
            defs[b] = d;
            ue[b] = u;
        }
        for &b in postorder {
            if phi_out[b].universe() != n {
                phi_out[b] = BitSet::new(n);
            }
        }

        let mut live_in: SecondaryMap<Block, BitSet> = SecondaryMap::new();
        let mut live_out: SecondaryMap<Block, BitSet> = SecondaryMap::new();
        for &b in postorder {
            live_in[b] = BitSet::new(n);
            live_out[b] = BitSet::new(n);
        }

        // Collect, per block, which successor φs read which of *our*
        // values: live-out(b) ⊇ { v | φ in succ s has arg [b: v] }.
        // phi_out[b] computed above is exactly that union.

        let mut iterations = 0;
        let mut changed = true;
        while changed {
            changed = false;
            iterations += 1;
            // Backward problem: postorder of the forward CFG converges
            // quickly (each block is visited after its successors on
            // acyclic paths).
            for &b in postorder {
                let mut out = phi_out[b].clone();
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s]);
                }
                if out != live_out[b] {
                    live_out[b] = out.clone();
                }
                out.difference_with(&defs[b]);
                out.union_with(&ue[b]);
                if out != live_in[b] {
                    live_in[b] = out;
                    changed = true;
                }
            }
        }

        Liveness {
            live_in,
            live_out,
            universe: n,
            iterations,
        }
    }

    /// Bring the sets up to date after a spill rewrite instead of
    /// recomputing them. The rewrite gives every `spilled` value a
    /// `spill` right after each of its definitions and replaces each of
    /// its uses by a fresh temporary reloaded right before that use.
    /// Afterwards:
    ///
    /// * a spilled value lives only from a definition to the adjacent
    ///   `spill`, inside one block, so it leaves every live-in and
    ///   live-out set;
    /// * a reload temporary lives only from its reload to the adjacent
    ///   use, inside one block, except one that replaces a φ-argument:
    ///   it is reloaded at the bottom of the predecessor and, as a
    ///   φ-argument, is live-out of it. `edge_reloads` lists those as
    ///   `(predecessor, temporary)`;
    /// * no other value gains or loses a definition or a use, and blocks
    ///   and edges are unchanged, so nothing else moves.
    ///
    /// The universe grows to `universe`, the function's new value count.
    /// The result is exactly what [`compute`](Self::compute) (or
    /// [`compute_ssa`](Self::compute_ssa), for strict SSA) gives on the
    /// rewritten function, on every reachable block.
    pub fn spill_rewritten(
        &mut self,
        cfg: &ControlFlowGraph,
        universe: usize,
        spilled: &[Value],
        edge_reloads: &[(Block, Value)],
    ) {
        let mut gone = BitSet::new(universe);
        for v in spilled {
            gone.insert(v.index());
        }
        for &b in cfg.postorder() {
            for set in [&mut self.live_in[b], &mut self.live_out[b]] {
                set.grow(universe);
                set.difference_with(&gone);
            }
        }
        for &(pred, temp) in edge_reloads {
            if cfg.is_reachable(pred) {
                self.live_out[pred].insert(temp.index());
            }
        }
        self.universe = universe;
    }

    /// The live-in set of `block`.
    pub fn live_in(&self, block: Block) -> &BitSet {
        &self.live_in[block]
    }

    /// The live-out set of `block`.
    pub fn live_out(&self, block: Block) -> &BitSet {
        &self.live_out[block]
    }

    /// Whether `v` is live-in at `block`.
    pub fn is_live_in(&self, v: Value, block: Block) -> bool {
        self.live_in[block].contains(v.index())
    }

    /// Whether `v` is live-out of `block`.
    pub fn is_live_out(&self, v: Value, block: Block) -> bool {
        self.live_out[block].contains(v.index())
    }

    /// The value-universe size the sets were computed over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of fixpoint sweeps performed (for the efficiency tables).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Heap bytes used by the live sets.
    pub fn bytes(&self) -> usize {
        let per = |m: &SecondaryMap<Block, BitSet>| -> usize {
            (0..m.len()).map(|i| m[Block::new(i)].bytes()).sum()
        };
        per(&self.live_in) + per(&self.live_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;

    fn live(text: &str) -> (Function, Liveness) {
        let f = parse_function(text).unwrap();
        let cfg = ControlFlowGraph::compute(&f);
        let l = Liveness::compute(&f, &cfg);
        (f, l)
    }

    #[test]
    fn straightline_liveness_is_empty_at_boundaries() {
        let (f, l) = live(
            "function @s(0) {
             b0:
                 v0 = const 1
                 v1 = add v0, v0
                 return v1
             }",
        );
        let b0 = f.entry();
        assert!(l.live_in(b0).is_empty());
        assert!(l.live_out(b0).is_empty());
    }

    #[test]
    fn value_live_across_block() {
        let (_, l) = live(
            "function @a(0) {
             b0:
                 v0 = const 1
                 jump b1
             b1:
                 return v0
             }",
        );
        let b0 = Block::new(0);
        let b1 = Block::new(1);
        let v0 = Value::new(0);
        assert!(l.is_live_out(v0, b0));
        assert!(l.is_live_in(v0, b1));
        assert!(!l.is_live_in(v0, b0));
    }

    #[test]
    fn phi_args_live_out_of_pred_not_live_in_of_phi_block() {
        let (_, l) = live(
            "function @p(0) {
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
        );
        let v1 = Value::new(1);
        let v2 = Value::new(2);
        let b1 = Block::new(1);
        let b2 = Block::new(2);
        let b3 = Block::new(3);
        assert!(l.is_live_out(v1, b1), "phi arg live out of its pred");
        assert!(l.is_live_out(v2, b2));
        assert!(
            !l.is_live_in(v1, b3),
            "phi arg must NOT be live-in at the phi block"
        );
        assert!(!l.is_live_in(v2, b3));
        assert!(!l.is_live_out(v1, b2), "v1 does not flow through b2");
    }

    #[test]
    fn phi_arg_with_other_use_is_live_in() {
        // v1 feeds the φ *and* is used directly in b3 → it must be live-in
        // at b3 (the paper's "latter case").
        let (_, l) = live(
            "function @q(0) {
             b0:
                 v0 = const 1
                 v1 = const 5
                 branch v0, b1, b2
             b1:
                 jump b3
             b2:
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v0]
                 v4 = add v3, v1
                 return v4
             }",
        );
        assert!(l.is_live_in(Value::new(1), Block::new(3)));
        assert!(!l.is_live_in(Value::new(0), Block::new(3)));
    }

    #[test]
    fn loop_carried_value_live_around_backedge() {
        let (_, l) = live(
            "function @loop(1) {
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
        );
        let b1 = Block::new(1);
        // v0 (the param) is used every iteration: live in and out of b1.
        assert!(l.is_live_in(Value::new(0), b1));
        assert!(l.is_live_out(Value::new(0), b1));
        // v3 flows around the backedge into the φ: live-out of b1, and
        // also live-in at b2's predecessor side; but not live-in to b1.
        assert!(l.is_live_out(Value::new(3), b1));
        assert!(!l.is_live_in(Value::new(3), b1));
        // The φ destination v2 is consumed inside b1 only.
        assert!(!l.is_live_out(Value::new(2), b1));
    }

    #[test]
    fn dead_value_nowhere_live() {
        let (f, l) = live(
            "function @d(0) {
             b0:
                 v0 = const 1
                 v1 = const 2
                 jump b1
             b1:
                 return v1
             }",
        );
        for b in f.blocks() {
            assert!(!l.is_live_in(Value::new(0), b));
            assert!(!l.is_live_out(Value::new(0), b));
        }
    }

    #[test]
    fn spill_rewritten_matches_a_fresh_solve() {
        // v0 and v1 are live across b0 → b1 and into the φ; the rewrite
        // below spills both, reloading v1's φ-argument at the bottom of b1.
        let before = "function @s(0) {
             b0:
                 v0 = const 1
                 v1 = const 2
                 jump b1
             b1:
                 v2 = add v0, v1
                 branch v2, b1, b2
             b2:
                 v3 = phi [b1: v1]
                 return v3
             }";
        let after = "function @s(0) {
             b0:
                 v0 = const 1
                 spill 0, v0
                 v1 = const 2
                 spill 1, v1
                 jump b1
             b1:
                 v4 = reload 0
                 v5 = reload 1
                 v2 = add v4, v5
                 v6 = reload 1
                 branch v2, b1, b2
             b2:
                 v3 = phi [b1: v6]
                 return v3
             }";
        let f = parse_function(before).unwrap();
        let cfg = ControlFlowGraph::compute(&f);
        let g = parse_function(after).unwrap();
        assert_eq!(cfg, ControlFlowGraph::compute(&g));
        let spilled = [Value::new(0), Value::new(1)];
        let edge = [(Block::new(1), Value::new(6))];
        for (mut live, fresh) in [
            (Liveness::compute(&f, &cfg), Liveness::compute(&g, &cfg)),
            (
                Liveness::compute_ssa(&f, &cfg),
                Liveness::compute_ssa(&g, &cfg),
            ),
        ] {
            live.spill_rewritten(&cfg, g.num_values(), &spilled, &edge);
            assert_eq!(live.universe(), fresh.universe());
            for b in g.blocks() {
                assert_eq!(live.live_in(b), fresh.live_in(b), "live-in {b}");
                assert_eq!(live.live_out(b), fresh.live_out(b), "live-out {b}");
            }
        }
    }

    #[test]
    fn redefinition_kills_liveness() {
        let (_, l) = live(
            "function @k(0) {
             b0:
                 v0 = const 1
                 jump b1
             b1:
                 v1 = add v0, v0
                 v0 = const 2
                 jump b2
             b2:
                 v2 = add v0, v1
                 return v2
             }",
        );
        let b0 = Block::new(0);
        let b1 = Block::new(1);
        // v0 is used at the head of b1 (upward exposed) → live-out of b0.
        assert!(l.is_live_out(Value::new(0), b0));
        // v0 is also redefined in b1 and used in b2 → live-out of b1.
        assert!(l.is_live_out(Value::new(0), b1));
        // v1 live across b1→b2.
        assert!(l.is_live_out(Value::new(1), b1));
        assert!(!l.is_live_in(Value::new(1), b1));
    }
}
