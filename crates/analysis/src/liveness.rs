//! φ-aware live-variable analysis.
//!
//! Per-block live-in and live-out sets, with the φ convention the paper
//! relies on (Section 3.1):
//!
//! * a φ argument `v` flowing from predecessor `p` is live-**out** of `p`,
//!   but is **not** live-in to the φ's own block — the move "happens on the
//!   edge";
//! * a φ destination is an ordinary definition at the top of its block.
//!
//! This is what lets the algorithm's first filter distinguish "`aᵢ` is
//! live-in to the φ block" (a real interference: some other use needs the
//! old value) from "`aᵢ` merely flows into the φ" (no interference).
//!
//! One solver serves every stage, SSA or not: [`Liveness::compute`]
//! explores paths backward from each value's uses, one value at a time
//! (Boissinot et al., "Computing Liveness Sets for SSA-Form Programs",
//! INRIA RR-7503), and keeps each block's sets as sorted lists of value
//! numbers, so the sets cost what they hold rather than blocks × values
//! bits.

use fcc_ir::{Block, ControlFlowGraph, Function, InstKind, Value};

/// Per-block live-in/live-out sets over the value universe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Liveness {
    live_in: BlockLists,
    live_out: BlockLists,
    universe: usize,
}

/// One sorted list of value numbers per block, stored back to back:
/// block `b`'s members are `members[start[b]..start[b + 1]]`.
#[derive(Clone, PartialEq, Eq, Debug)]
struct BlockLists {
    start: Vec<u32>,
    members: Vec<u32>,
}

impl BlockLists {
    fn get(&self, block: Block) -> &[u32] {
        let b = block.index();
        match self.start.get(b..b + 2) {
            Some(&[lo, hi]) => &self.members[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The lists without the members `keep` rejects, each followed by
    /// the `(block, value)` entries of `extra` for its block. `extra` is
    /// sorted, and its values exceed every member. Pushes each block
    /// whose list changes onto `changed`.
    fn rewritten(
        &self,
        keep: impl Fn(u32) -> bool,
        extra: &[(u32, u32)],
        changed: &mut Vec<Block>,
    ) -> BlockLists {
        let len = self.members.iter().filter(|&&v| keep(v)).count() + extra.len();
        let mut members = Vec::with_capacity(len);
        let mut start = Vec::with_capacity(self.start.len());
        let mut extra = extra.iter().peekable();
        start.push(0);
        for w in self.start.windows(2) {
            let b = start.len() - 1;
            let old = &self.members[w[0] as usize..w[1] as usize];
            let first = members.len();
            members.extend(old.iter().copied().filter(|&v| keep(v)));
            let kept = members.len() - first;
            members.extend(std::iter::from_fn(|| {
                extra.next_if(|e| e.0 as usize == b).map(|e| e.1)
            }));
            // Members only leave and extras only arrive, so the list is
            // unchanged iff nothing left and nothing arrived.
            if kept != old.len() || members.len() != first + kept {
                changed.push(Block::new(b));
            }
            start.push(members.len() as u32);
        }
        BlockLists { start, members }
    }

    /// Heap bytes, counted as [`crate::BitSet::bytes`] counts its words.
    fn bytes(&self) -> usize {
        (self.start.capacity() + self.members.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The memberships the walk finds for one side (live-in or live-out),
/// value after value: `blocks` holds each membership's block, and
/// `runs` has `(value, offset)` where each value that is a member
/// anywhere begins in `blocks`. A membership's value is implicit, so it
/// costs 4 bytes, not 8 for a `(block, value)` pair.
#[derive(Default)]
struct Found {
    blocks: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl Found {
    /// `v` is a member at `b`; values arrive in increasing order.
    fn push(&mut self, v: u32, b: Block) {
        if self.runs.last().is_none_or(|&(last, _)| last != v) {
            self.runs.push((v, self.blocks.len() as u32));
        }
        self.blocks.push(b.index() as u32);
    }

    /// The lists of `nb` blocks. A stable counting sort, as [`group`]
    /// is, over values in index order, so each list comes out sorted.
    /// Neither vector has spare capacity.
    fn into_lists(self, nb: usize) -> BlockLists {
        let mut start = vec![0u32; nb + 1];
        for &b in &self.blocks {
            start[b as usize] += 1;
        }
        let mut end = 0u32;
        for s in &mut start {
            end += *s;
            *s = end;
        }
        let mut members = vec![0u32; self.blocks.len()];
        let mut to = self.blocks.len();
        for &(v, from) in self.runs.iter().rev() {
            for &b in &self.blocks[from as usize..to] {
                let s = &mut start[b as usize];
                *s -= 1;
                members[*s as usize] = v;
            }
            to = from as usize;
        }
        BlockLists { start, members }
    }
}

/// Stable counting sort: `(start, items)` with the items of `pairs` whose
/// key is `k`, in their order in `pairs`, at `items[start[k]..start[k +
/// 1]]`. Neither vector has spare capacity.
pub fn group<T: Copy>(keys: usize, pairs: &[(u32, T)]) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; keys + 1];
    for &(k, _) in pairs {
        start[k as usize] += 1;
    }
    let mut end = 0u32;
    for s in &mut start {
        end += *s;
        *s = end;
    }
    // Every slot is overwritten below; the input only sizes the vector.
    let mut items: Vec<T> = pairs.iter().map(|&(_, item)| item).collect();
    for &(k, item) in pairs.iter().rev() {
        let s = &mut start[k as usize];
        *s -= 1;
        items[*s as usize] = item;
    }
    (start, items)
}

/// Where a value's walk starts or stops, by block index.
#[derive(Clone, Copy)]
enum Site {
    /// The block defines the value: the walk stops there.
    Def,
    /// The block uses the value before any definition of it in the
    /// block: the value is live-in there.
    Use,
    /// A φ reads the value on an edge out of the block: the value is
    /// live-out there.
    PhiArg,
}

/// Marks blocks as value `tag`'s walk reaches them. A mark equal to the
/// tag of the value being walked means "yes"; anything else, "not yet".
struct Walk<'a> {
    cfg: &'a ControlFlowGraph,
    tag: u32,
    defines: Vec<u32>,
    live_in: Vec<u32>,
    live_out: Vec<u32>,
    stack: Vec<Block>,
    /// Every live-in (live-out) membership found.
    ins: Found,
    outs: Found,
}

impl Walk<'_> {
    fn enter(&mut self, b: Block) {
        let mark = &mut self.live_in[b.index()];
        if *mark != self.tag {
            *mark = self.tag;
            self.ins.push(self.tag, b);
            self.stack.push(b);
        }
    }

    fn leave(&mut self, b: Block) {
        let mark = &mut self.live_out[b.index()];
        if *mark != self.tag {
            *mark = self.tag;
            self.outs.push(self.tag, b);
            if self.defines[b.index()] != self.tag {
                self.enter(b);
            }
        }
    }

    /// Follow every block the walk has entered up to its predecessors.
    fn propagate(&mut self) {
        while let Some(b) = self.stack.pop() {
            for &p in self.cfg.preds(b) {
                self.leave(p);
            }
        }
    }
}

impl Liveness {
    /// Compute liveness for `func`, SSA or not, over its reachable
    /// blocks.
    ///
    /// One scan lists, per value, the blocks that define it, the blocks
    /// that use it before defining it, and the predecessors whose edges
    /// carry it into a φ. Then, for each value in index order, a walk
    /// marks it live-in where it is used and live-out where a φ reads
    /// it, and climbs predecessors from every block it enters, until a
    /// block that defines it stops the climb. This is the textbook
    /// definition — live-in at `b` iff some path from `b` reaches a use
    /// with no definition on the way — read backward, so it is exact for
    /// code with many definitions per value as well as for strict SSA,
    /// irreducible loops included. The cost is the scan plus the total
    /// size of the live ranges, in blocks; there is no fixpoint.
    ///
    /// A block's lists come out sorted because values are walked in
    /// order, and are stored back to back with no spare capacity.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph) -> Self {
        const NONE: u32 = u32::MAX;
        let n = func.num_values();
        let nb = func.num_blocks();

        let mut sites: Vec<(u32, (u32, Site))> = Vec::new();
        let mut defined_in = vec![NONE; n];
        let mut used_in = vec![NONE; n];
        for &b in cfg.postorder() {
            let bi = b.index() as u32;
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                if let InstKind::Phi { args } = &data.kind {
                    for a in args.iter().filter(|a| cfg.is_reachable(a.pred)) {
                        let site = (a.pred.index() as u32, Site::PhiArg);
                        sites.push((a.value.index() as u32, site));
                    }
                }
                data.kind.for_each_use(|v| {
                    let vi = v.index();
                    if defined_in[vi] != bi && used_in[vi] != bi {
                        used_in[vi] = bi;
                        sites.push((vi as u32, (bi, Site::Use)));
                    }
                });
                if let Some(d) = data.dst {
                    if defined_in[d.index()] != bi {
                        defined_in[d.index()] = bi;
                        sites.push((d.index() as u32, (bi, Site::Def)));
                    }
                }
            }
        }
        let (site_start, sites) = group(n, &sites);

        let mut walk = Walk {
            cfg,
            tag: NONE,
            defines: vec![NONE; nb],
            live_in: vec![NONE; nb],
            live_out: vec![NONE; nb],
            stack: Vec::new(),
            ins: Found::default(),
            outs: Found::default(),
        };
        for v in 0..n {
            walk.tag = v as u32;
            let here = &sites[site_start[v] as usize..site_start[v + 1] as usize];
            for &(b, site) in here {
                if let Site::Def = site {
                    walk.defines[b as usize] = walk.tag;
                }
            }
            for &(b, site) in here {
                match site {
                    Site::Def => continue,
                    Site::Use => walk.enter(Block::new(b as usize)),
                    Site::PhiArg => walk.leave(Block::new(b as usize)),
                }
                walk.propagate();
            }
        }

        // Each `into_lists` frees its blocks, so the live-in blocks are
        // gone before the live-out lists are laid out.
        Liveness {
            live_in: walk.ins.into_lists(nb),
            live_out: walk.outs.into_lists(nb),
            universe: n,
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
    /// The result is exactly what [`compute`](Self::compute) gives on the
    /// rewritten function: one pass over the lists drops the spilled
    /// values and appends the temporaries, which are newer than every
    /// member.
    ///
    /// Returns the blocks whose live-in or live-out set changed, in
    /// index order. Together with the blocks the rewrite put code in,
    /// they are the only blocks whose program points can have changed.
    pub fn spill_rewritten(
        &mut self,
        cfg: &ControlFlowGraph,
        universe: usize,
        spilled: &[Value],
        edge_reloads: &[(Block, Value)],
    ) -> Vec<Block> {
        let mut gone = vec![false; self.universe];
        for v in spilled {
            gone[v.index()] = true;
        }
        let keep = |v: u32| !gone[v as usize];
        let mut temps: Vec<(u32, u32)> = edge_reloads
            .iter()
            .filter(|&&(pred, _)| cfg.is_reachable(pred))
            .map(|&(pred, t)| (pred.index() as u32, t.index() as u32))
            .collect();
        temps.sort_unstable();
        temps.dedup();
        let mut changed = Vec::new();
        self.live_in = self.live_in.rewritten(keep, &[], &mut changed);
        self.live_out = self.live_out.rewritten(keep, &temps, &mut changed);
        self.universe = universe;
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// The live-in set of `block`, as sorted value numbers.
    pub fn live_in(&self, block: Block) -> &[u32] {
        self.live_in.get(block)
    }

    /// The live-out set of `block`, as sorted value numbers.
    pub fn live_out(&self, block: Block) -> &[u32] {
        self.live_out.get(block)
    }

    /// Whether `v` is live-in at `block`.
    pub fn is_live_in(&self, v: Value, block: Block) -> bool {
        contains(self.live_in(block), v)
    }

    /// Whether `v` is live-out of `block`.
    pub fn is_live_out(&self, v: Value, block: Block) -> bool {
        contains(self.live_out(block), v)
    }

    /// The value-universe size the sets were computed over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Heap bytes used by the live sets.
    pub fn bytes(&self) -> usize {
        self.live_in.bytes() + self.live_out.bytes()
    }
}

fn contains(list: &[u32], v: Value) -> bool {
    list.binary_search(&(v.index() as u32)).is_ok()
}

impl Liveness {
    /// Check these sets against the definition of liveness, deciding
    /// each (value, reachable block) pair by its own search: `v` is
    /// live-out of `b` iff a φ reads it on an edge out of `b`, or some
    /// path from `b`'s end reaches a block whose first mention of `v` is
    /// a use, or whose out-edge a φ reads `v` on, with no block on the
    /// way defining `v` first; it is live-in iff `b` uses it before
    /// defining it, or neither uses nor defines it and it is live-out.
    /// Unreachable blocks must have empty sets.
    ///
    /// Shares nothing with [`compute`](Self::compute) but the φ
    /// convention. The cost is values × blocks searches, each linear in
    /// the CFG: a test oracle, not an analysis.
    pub fn check_by_search(&self, func: &Function, cfg: &ControlFlowGraph) -> Result<(), String> {
        const USE: u8 = 1;
        const DEF: u8 = 2;
        let n = func.num_values();
        if self.universe != n {
            return Err(format!("universe {} for {n} values", self.universe));
        }
        let nb = func.num_blocks();
        // Per (block, value): what the block does with the value first,
        // and whether a φ reads the value on an edge out of the block.
        let mut first = vec![0u8; nb * n];
        let mut phi_read = vec![false; nb * n];
        for b in func.blocks().filter(|&b| cfg.is_reachable(b)) {
            let row = &mut first[b.index() * n..][..n];
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                data.kind.for_each_use(|v| {
                    if row[v.index()] == 0 {
                        row[v.index()] = USE;
                    }
                });
                if let Some(d) = data.dst {
                    if row[d.index()] == 0 {
                        row[d.index()] = DEF;
                    }
                }
                if let InstKind::Phi { args } = &data.kind {
                    for a in args {
                        phi_read[a.pred.index() * n + a.value.index()] = true;
                    }
                }
            }
        }

        let mut seen = vec![usize::MAX; nb];
        let mut stack: Vec<Block> = Vec::new();
        let mut live_out = |v: usize, b: Block, query: usize| {
            if phi_read[b.index() * n + v] {
                return true;
            }
            stack.clear();
            stack.extend(cfg.succs(b));
            while let Some(s) = stack.pop() {
                if std::mem::replace(&mut seen[s.index()], query) == query {
                    continue;
                }
                match first[s.index() * n + v] {
                    USE => return true,
                    DEF => continue,
                    _ if phi_read[s.index() * n + v] => return true,
                    _ => stack.extend(cfg.succs(s)),
                }
            }
            false
        };
        // A value that no block reads before defining it, and no φ
        // reads, is live nowhere: its searches would all fail.
        let mut read = vec![false; n];
        for (i, (&f, &p)) in first.iter().zip(&phi_read).enumerate() {
            read[i % n] |= f == USE || p;
        }
        for b in func.blocks() {
            let (mut want_in, mut want_out) = (Vec::new(), Vec::new());
            if cfg.is_reachable(b) {
                for v in (0..n).filter(|&v| read[v]) {
                    let out = live_out(v, b, b.index() * n + v);
                    let here = first[b.index() * n + v];
                    if here == USE || (here == 0 && out) {
                        want_in.push(v as u32);
                    }
                    if out {
                        want_out.push(v as u32);
                    }
                }
            }
            for (what, got, want) in [
                ("live-in", self.live_in(b), want_in),
                ("live-out", self.live_out(b), want_out),
            ] {
                if got != want {
                    return Err(format!(
                        "{what} of {b} is {got:?}; the search finds {want:?}"
                    ));
                }
            }
        }
        Ok(())
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
        let mut live = Liveness::compute(&f, &cfg);
        let changed = live.spill_rewritten(&cfg, g.num_values(), &spilled, &edge);
        // b2's sets were empty and stay so.
        assert_eq!(changed, [Block::new(0), Block::new(1)]);
        assert_eq!(live, Liveness::compute(&g, &cfg));
        assert_eq!(live.bytes(), Liveness::compute(&g, &cfg).bytes());
        assert_eq!(live.live_out(Block::new(1)), [6]);
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
