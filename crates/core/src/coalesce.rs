//! The paper's algorithm: SSA-to-CFG conversion with copy coalescing and
//! **no interference graph** (Section 3).
//!
//! The four steps, as published:
//!
//! 1. **Build initial live ranges** (§3.1): union every φ destination with
//!    its arguments, screened by five fast liveness filters that catch
//!    copies the SSA construction folded "in error". A filtered argument
//!    stays out of the union — the final rewrite gives it an edge copy.
//! 2. **Dominance forests** (§3.2): group the φ-named values into their
//!    candidate classes in one linear pass
//!    ([`fcc_analysis::UnionFind::into_sets`]), order each class's members
//!    by (dominator preorder, position) and map the class onto the
//!    [`crate::dforest::DominanceForest`], reducing intra-class
//!    interference checking to forest edges (Lemma 3.1).
//! 3. **Walk the forests** (§3.3, Figure 2): along each effective
//!    parent→child edge, `liveout(parent, child's block)` proves a real
//!    interference — split the cheaper member out of the class;
//!    `livein(parent, child's block)` or a shared defining block defers to
//!    a **local interference** check (§3.4) that compares the parent's
//!    last use against the child's definition point inside the block.
//! 4. **Rename and insert copies** (§3.5–3.6): every surviving class gets
//!    one name; for each φ whose argument's class differs from its
//!    destination's, a copy is queued in the `Waiting` array of the
//!    predecessor block ("From" block). Each block's queued copies form a
//!    parallel copy sequentialised with cycle temporaries, which is what
//!    makes the swap and *virtual swap* examples (Figures 3–4) come out
//!    correct. Critical edges are split before anything else (lost-copy
//!    problem).
//!
//! Two documented departures from the letter of the paper:
//!
//! * the paper queues local-interference candidates and resolves them in
//!   one backward sweep per block after all forests are walked; we
//!   resolve each candidate *immediately* (against a lazily built
//!   per-block last-use table, sorted by value, so each block is still
//!   walked once).
//!   Immediate resolution keeps the walk's parent-promotion reasoning
//!   exact when a local split removes a chain member;
//! * [`SplitStrategy::EdgeCut`] is an *extension* in the direction of the
//!   paper's future work ("several heuristics to improve the precision"):
//!   instead of evicting a whole member — which turns **every** φ edge of
//!   that member into a copy — the candidate class is partitioned along a
//!   minimum loop-depth-weighted cut of its φ-connection graph, so only
//!   the cheapest φ edges materialise as copies. The default remains the
//!   paper's member-removal rule.

use std::collections::HashMap;

use fcc_analysis::{AnalysisManager, DomTree, Liveness, LoopNesting, UnionFind};
use fcc_ir::{Block, ControlFlowGraph, Function, Inst, InstKind, Value};
use fcc_ssa::edges::split_critical_edges_with;
use fcc_ssa::parcopy::sequentialize;
use fcc_ssa::trace::DestructionTrace;

use crate::dforest::DominanceForest;
use crate::mincut::min_cut;

/// How to pick the victim when two class members interfere (member
/// removal strategy).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SplitHeuristic {
    /// The paper's Figure 2 rule: split the child only when the parent
    /// cannot interfere with its other children *and* the child has fewer
    /// pending copies; otherwise split the parent.
    #[default]
    CopyCost,
    /// Always split the child (ablation).
    AlwaysChild,
    /// Always split the parent (ablation).
    AlwaysParent,
}

/// How to break a candidate congruence class when members interfere.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SplitStrategy {
    /// The paper's rule: remove one member; every φ edge between the
    /// member and the rest of the class becomes a copy.
    #[default]
    RemoveMember,
    /// Extension: partition the class along a minimum-weight cut of its
    /// φ-connection graph (edge weight `10^loop-depth` of the copy's
    /// placement block), so the interference is broken by the cheapest
    /// set of copies instead of by all of one member's edges.
    EdgeCut,
}

/// Tuning knobs, mainly for the ablation benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoalesceOptions {
    /// Apply the five §3.1 filters while building the initial unions.
    /// Disabling them lets erroneously folded copies into the classes, to
    /// be discovered (at greater cost in copies) by the forest walk — the
    /// paper's motivation for filtering early.
    pub early_filters: bool,
    /// Victim-selection rule for member-removal splits.
    pub split_heuristic: SplitHeuristic,
    /// Class-breaking strategy.
    pub split_strategy: SplitStrategy,
}

impl Default for CoalesceOptions {
    fn default() -> Self {
        CoalesceOptions {
            early_filters: true,
            split_heuristic: SplitHeuristic::CopyCost,
            split_strategy: SplitStrategy::RemoveMember,
        }
    }
}

/// Counters and byte accounting for one coalescing run (feeds Tables 2–5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoalesceStats {
    /// φ arguments excluded by the §3.1 filters.
    pub filter_copies: usize,
    /// Members split out by the forest walk's liveout test.
    pub forest_splits: usize,
    /// Members split out by the local (in-block) interference check.
    pub local_splits: usize,
    /// Class bipartitions performed by the edge-cut strategy.
    pub cut_splits: usize,
    /// Local candidate pairs examined.
    pub local_pairs_checked: usize,
    /// Candidate classes with at least two members.
    pub classes: usize,
    /// `copy` instructions inserted into the rewritten function.
    pub copies_inserted: usize,
    /// Temporaries minted to break parallel-copy cycles.
    pub cycle_temps: usize,
    /// Critical edges split.
    pub edges_split: usize,
    /// φ-nodes removed.
    pub phis_removed: usize,
    /// Peak bytes of the algorithm's data structures (liveness sets,
    /// union-find, dominator tree, forests, waiting lists) — the Table 3
    /// metric. No interference graph appears here; that is the point.
    pub peak_bytes: usize,
}

/// Convert `func` out of SSA, coalescing φ-related names, with default
/// options. See the module docs for the algorithm.
pub fn coalesce_ssa(func: &mut Function) -> CoalesceStats {
    coalesce_ssa_with(func, &CoalesceOptions::default())
}

/// "No reachable definition" in the coalescer's `def_block` table.
const NO_BLOCK: u32 = u32::MAX;

/// Shared per-run context for the interference machinery.
struct Ctx<'a> {
    func: &'a Function,
    dt: &'a DomTree,
    live: &'a Liveness,
    /// Each value's reachable defining block, or [`NO_BLOCK`].
    def_block: &'a [u32],
    def_pos: &'a [u32],
    phi_degree: &'a [u32],
    last_uses: LastUses,
    /// Per forest node of the class being resolved: split out yet?
    removed: Vec<bool>,
    stats: &'a mut CoalesceStats,
}

/// Per block, the position of each value's last use in it, built the
/// first time the local check (§3.4) asks about the block: a run of
/// `(value, position)` pairs sorted by value, found by binary search.
#[derive(Default)]
struct LastUses {
    /// Each block's run in `entries` (a `(length, 0)` header, then the
    /// pairs), or `u32::MAX` until asked; empty until the first query.
    start: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl LastUses {
    fn get(&mut self, func: &Function, b: Block, v: Value) -> Option<u32> {
        if self.start.is_empty() {
            self.start = vec![u32::MAX; func.num_blocks()];
        }
        if self.start[b.index()] == u32::MAX {
            let mut run: Vec<(u32, u32)> = Vec::new();
            for (pos, &inst) in func.block_insts(b).iter().enumerate() {
                func.inst(inst)
                    .kind
                    .for_each_use(|u| run.push((u.index() as u32, pos as u32)));
            }
            // Latest position first, so dedup keeps each value's last use.
            run.sort_unstable_by_key(|&(u, pos)| (u, std::cmp::Reverse(pos)));
            run.dedup_by_key(|&mut (u, _)| u);
            self.start[b.index()] = self.entries.len() as u32;
            self.entries.push((run.len() as u32, 0));
            self.entries.extend(run);
        }
        let head = self.start[b.index()] as usize;
        let run = &self.entries[head + 1..][..self.entries[head].0 as usize];
        let at = run.binary_search_by_key(&(v.index() as u32), |&(u, _)| u);
        at.ok().map(|i| run[i].1)
    }

    fn bytes(&self) -> usize {
        (self.start.capacity() + self.entries.capacity() * 2) * 4
    }
}

impl Ctx<'_> {
    /// The definition site of `v`, which must be reachable.
    fn site(&self, v: Value) -> (Value, Block, u32) {
        (
            v,
            Block::new(self.def_block[v.index()] as usize),
            self.def_pos[v.index()],
        )
    }

    /// The §3.3/§3.4 interference test for a forest edge p→c. `c_block` /
    /// `c_pos` locate c's definition.
    fn edge_interferes(&mut self, p: Value, p_block: Block, c_block: Block, c_pos: u32) -> bool {
        if p_block != c_block && self.live.is_live_out(p, c_block) {
            return true;
        }
        if p_block == c_block || self.live.is_live_in(p, c_block) {
            self.stats.local_pairs_checked += 1;
            let p_live_out_same = p_block == c_block && self.live.is_live_out(p, c_block);
            let last = self.last_uses.get(self.func, c_block, p);
            return p_live_out_same || last.is_some_and(|u| u > c_pos);
        }
        false
    }
}

/// Convert `func` out of SSA with explicit [`CoalesceOptions`].
///
/// On return `func` contains no φ-nodes and computes the same function
/// (checked exhaustively by the integration suite against the φ-aware
/// reference interpreter).
pub fn coalesce_ssa_with(func: &mut Function, opts: &CoalesceOptions) -> CoalesceStats {
    coalesce_ssa_managed(func, opts, &mut AnalysisManager::new())
}

/// [`coalesce_ssa_with`], pulling every supporting analysis from a shared
/// [`AnalysisManager`] — cache hits whenever the caller's pipeline
/// already computed them for the unmodified function.
pub fn coalesce_ssa_managed(
    func: &mut Function,
    opts: &CoalesceOptions,
    am: &mut AnalysisManager,
) -> CoalesceStats {
    coalesce_ssa_managed_impl(func, opts, am, false).0
}

/// [`coalesce_ssa_managed`], additionally returning the
/// [`DestructionTrace`] (pre-destruction snapshot, congruence-class
/// map, and the `Waiting` array) for the `fcc-lint` soundness auditor.
pub fn coalesce_ssa_traced(
    func: &mut Function,
    opts: &CoalesceOptions,
    am: &mut AnalysisManager,
) -> (CoalesceStats, DestructionTrace) {
    let (stats, trace) = coalesce_ssa_managed_impl(func, opts, am, true);
    (stats, trace.expect("trace requested"))
}

fn coalesce_ssa_managed_impl(
    func: &mut Function,
    opts: &CoalesceOptions,
    am: &mut AnalysisManager,
    want_trace: bool,
) -> (CoalesceStats, Option<DestructionTrace>) {
    let stats = CoalesceStats {
        edges_split: split_critical_edges_with(func, am),
        ..Default::default()
    };

    let cfg = am.cfg(func);
    let dt = am.domtree(func);
    let live = am.liveness(func);
    // Loop nesting is only consulted by the edge-cut strategy's weights.
    let loops = match opts.split_strategy {
        SplitStrategy::EdgeCut => Some(am.loops(func)),
        SplitStrategy::RemoveMember => None,
    };
    coalesce_prepared_impl(
        func,
        &cfg,
        &dt,
        &live,
        loops.as_deref(),
        opts,
        stats,
        want_trace,
    )
}

/// The conversion proper, with the supporting analyses supplied by the
/// caller — the shape a real compiler uses (analyses are shared between
/// passes) and the granularity at which the paper's `O(n·α(n))` bound
/// applies (Section 3.7 counts the union-find, forest, and rewrite work;
/// liveness and dominators are assumed, as in the paper).
///
/// Requirements: critical edges already split, and `cfg`/`dt`/`live`
/// computed for the *current* `func`. `loops` is consulted only by the
/// edge-cut strategy; pass `None` to have it computed on demand.
/// [`coalesce_ssa_managed`] wraps this with the right preparation.
pub fn coalesce_prepared(
    func: &mut Function,
    cfg: &ControlFlowGraph,
    dt: &DomTree,
    live: &Liveness,
    loops: Option<&LoopNesting>,
    opts: &CoalesceOptions,
    stats: CoalesceStats,
) -> CoalesceStats {
    coalesce_prepared_impl(func, cfg, dt, live, loops, opts, stats, false).0
}

#[allow(clippy::too_many_arguments)]
fn coalesce_prepared_impl(
    func: &mut Function,
    cfg: &ControlFlowGraph,
    dt: &DomTree,
    live: &Liveness,
    loops: Option<&LoopNesting>,
    opts: &CoalesceOptions,
    mut stats: CoalesceStats,
    want_trace: bool,
) -> (CoalesceStats, Option<DestructionTrace>) {
    // Requirement: critical edges already split, so the snapshot and the
    // final function agree on block structure.
    let pre = want_trace.then(|| func.clone());
    let n = func.num_values();

    // Definition sites: block + instruction index, for forest building and
    // the local interference check.
    let mut def_block: Vec<u32> = vec![NO_BLOCK; n];
    let mut def_pos: Vec<u32> = vec![0; n];
    let mut is_phi_def: Vec<bool> = vec![false; n];
    // φ connectivity degree: the "copies to insert" cost in Figure 2's
    // victim heuristic — how many φ edges would turn into copies if the
    // value were split out.
    let mut phi_degree: Vec<u32> = vec![0; n];
    // Total uses per value (ordinary + φ-argument). A φ destination with
    // zero uses is dead; its edge moves are skipped so they cannot clash
    // with a live class-mate's moves.
    let mut use_count: Vec<u32> = vec![0; n];
    let mut phis: Vec<(Block, Inst)> = Vec::new();
    // Every value a φ names: the only ones step 1 can union.
    let mut phi_values: Vec<u32> = Vec::new();

    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for (pos, &inst) in func.block_insts(b).iter().enumerate() {
            let data = func.inst(inst);
            if let Some(d) = data.dst {
                def_block[d.index()] = b.index() as u32;
                def_pos[d.index()] = pos as u32;
                is_phi_def[d.index()] = data.kind.is_phi();
            }
            data.kind.for_each_use(|v| use_count[v.index()] += 1);
            if let InstKind::Phi { args } = &data.kind {
                let d = data.dst.expect("phi defines");
                phi_degree[d.index()] += args.len() as u32;
                phi_values.push(d.index() as u32);
                for a in args {
                    phi_degree[a.value.index()] += 1;
                    use_count[a.value.index()] += 1;
                    phi_values.push(a.value.index() as u32);
                }
                phis.push((b, inst));
            }
        }
    }

    // ---- Step 1: initial unions with the five filters (§3.1) ----
    let mut uf = UnionFind::new(n);
    {
        // Values already pulled into some φ's union in the current block
        // (test 4): `seen[v]` holds the block's index + 1.
        let mut seen: Vec<u32> = vec![0; n];
        for &(b, phi) in &phis {
            let stamp = b.index() as u32 + 1;
            let data = func.inst(phi);
            let p = data.dst.expect("phi defines");
            let InstKind::Phi { args } = &data.kind else {
                unreachable!()
            };
            // Defining blocks of arguments admitted to this φ's union
            // (test 5).
            let mut admitted_blocks: Vec<u32> = Vec::new();
            for arg in args {
                let a = arg.value;
                if a == p || uf.same(a.index(), p.index()) {
                    seen[a.index()] = stamp;
                    continue;
                }
                let ab = def_block[a.index()];
                assert!(ab != NO_BLOCK, "phi arg has a def");
                let interferes = opts.early_filters
                    && (
                        // Test 1: aᵢ live-in at the φ block means some use
                        // of aᵢ other than the φ needs the old value.
                        live.is_live_in(a, b)
                        // Test 2: p live out of aᵢ's defining block.
                        || live.is_live_out(p, Block::new(ab as usize))
                        // Test 3: aᵢ is itself a φ and p is live into its
                        // block.
                        || (is_phi_def[a.index()] && live.is_live_in(p, Block::new(ab as usize)))
                        // Test 4: aᵢ already joined another φ's set in
                        // this block.
                        || seen[a.index()] == stamp
                        // Test 5: two arguments of this φ share a defining
                        // block.
                        || admitted_blocks.contains(&ab)
                    );
                if interferes {
                    stats.filter_copies += 1;
                    continue;
                }
                uf.union(a.index(), p.index());
                admitted_blocks.push(ab);
                seen[a.index()] = stamp;
            }
            seen[p.index()] = stamp;
        }
    }

    // ---- Steps 2–3: dominance forests and interference resolution ----
    let uf_bytes = uf.bytes();
    let sets = uf.into_sets(phi_values);
    let mut forest_bytes = 0usize;
    // Final congruence classes: `name[v]` maps every value to the name of
    // its class (identity for singletons and split-off members).
    let mut name: Vec<Value> = (0..n).map(Value::new).collect();

    // Fallback loop nesting for direct callers that passed `None`.
    let mut loops_owned: Option<LoopNesting> = None;
    let mut ctx = Ctx {
        func,
        dt,
        live,
        def_block: &def_block,
        def_pos: &def_pos,
        phi_degree: &phi_degree,
        last_uses: LastUses::default(),
        removed: Vec::new(),
        stats: &mut stats,
    };

    // One fuel step per union-find set in first-member order, singletons
    // included: walk the values, and start each of `sets` at its least
    // member. A value no φ names is a set of its own; any other value
    // that does not start the next set belongs to an earlier one.
    let mut sets_left = sets.iter().peekable();
    // The reachable members of the current set, ascending by value.
    let mut sites: Vec<(Value, Block, u32)> = Vec::new();
    for (x, &degree) in phi_degree.iter().enumerate() {
        let Some(set) = sets_left.next_if(|set| set[0] as usize == x) else {
            if degree == 0 {
                fcc_analysis::fuel::checkpoint(1);
            }
            continue;
        };
        fcc_analysis::fuel::checkpoint(1);
        sites.clear();
        sites.extend(
            set.iter()
                .filter(|&&vi| def_block[vi as usize] != NO_BLOCK)
                .map(|&vi| ctx.site(Value::new(vi as usize))),
        );
        if sites.len() < 2 {
            continue;
        }
        ctx.stats.classes += 1;
        let final_parts = match opts.split_strategy {
            SplitStrategy::RemoveMember => {
                sites.sort_unstable_by_key(|&(_, b, pos)| (dt.preorder(b), pos));
                let survivors =
                    resolve_by_removal(&mut ctx, &sites, opts.split_heuristic, &mut forest_bytes);
                vec![survivors]
            }
            SplitStrategy::EdgeCut => {
                let lp: &LoopNesting = match loops {
                    Some(l) => l,
                    None => loops_owned.get_or_insert_with(|| LoopNesting::compute(cfg, dt)),
                };
                let members: Vec<Value> = sites.iter().map(|&(v, _, _)| v).collect();
                resolve_by_cutting(&mut ctx, &members, lp, &phis, &mut forest_bytes)
            }
        };
        for part in final_parts {
            if part.len() < 2 {
                continue;
            }
            let rep = *part.iter().min().expect("nonempty class");
            for &m in &part {
                name[m.index()] = rep;
            }
        }
    }
    let last_use_bytes = ctx.last_uses.bytes();
    drop(ctx);

    // ---- Step 4: renaming (§3.5) and copy insertion (§3.6) ----
    // The Waiting array (§3.6): pending copies per predecessor block,
    // queued in φ order, then grouped by block with each block's copies
    // kept in queue order.
    let mut waiting: Vec<(Block, Value, Value)> = Vec::new();
    for &(_, phi) in &phis {
        let data = func.inst(phi);
        let p = data.dst.expect("phi defines");
        if use_count[p.index()] == 0 {
            continue; // dead φ: no moves needed
        }
        let pn = name[p.index()];
        let InstKind::Phi { args } = &data.kind else {
            unreachable!()
        };
        for arg in args {
            let an = name[arg.value.index()];
            if an != pn {
                waiting.push((arg.pred, pn, an));
            }
        }
    }
    waiting.sort_by_key(|&(b, _, _)| b);

    // Rewrite every instruction into the class namespace, one fuel step
    // per block.
    for _ in func.blocks() {
        fcc_analysis::fuel::checkpoint(1);
    }
    func.rename_values(|v| name[v.index()]);

    // Insert the pending copies, sequentialising each block's parallel
    // copy (swap / virtual-swap safety); a copy queued twice is one move.
    let mut recorded_waiting = want_trace.then(Vec::new);
    let mut copies: Vec<(Value, Value)> = Vec::new();
    for run in waiting.chunk_by(|x, y| x.0 == y.0) {
        let b = run[0].0;
        copies.clear();
        for &(_, pn, an) in run {
            if !copies.contains(&(pn, an)) {
                copies.push((pn, an));
            }
        }
        let mut temps = 0usize;
        let seq = {
            let func_cell = std::cell::RefCell::new(&mut *func);
            sequentialize(&copies, || {
                temps += 1;
                func_cell.borrow_mut().new_value()
            })
        };
        stats.cycle_temps += temps;
        for (dst, src) in seq {
            func.insert_before_terminator(b, InstKind::Copy { src }, Some(dst));
            stats.copies_inserted += 1;
        }
        if let Some(rec) = recorded_waiting.as_mut() {
            rec.push((b, copies.clone()));
        }
    }
    let waiting_bytes = waiting.capacity() * std::mem::size_of::<(Block, Value, Value)>()
        + copies.capacity() * std::mem::size_of::<(Value, Value)>();

    // Delete the φs.
    for (b, phi) in phis {
        func.remove_inst(b, phi);
        stats.phis_removed += 1;
    }

    stats.peak_bytes = live.bytes()
        + uf_bytes
        + sets.bytes()
        + dt.bytes()
        + forest_bytes
        + waiting_bytes
        + last_use_bytes
        + n * (std::mem::size_of::<u32>() + 4 + 2 + std::mem::size_of::<Value>());
    let trace = pre.map(|pre| DestructionTrace {
        pre,
        class_of: name,
        waiting: recorded_waiting,
    });
    (stats, trace)
}

/// The paper's resolution: walk the forest once, evicting one member per
/// interference (Figure 2 + the §3.4 local check). Returns the surviving
/// class; every evicted member is a class of its own. `sites` come in
/// forest order: (dominator preorder, position).
fn resolve_by_removal(
    ctx: &mut Ctx<'_>,
    sites: &[(Value, Block, u32)],
    heuristic: SplitHeuristic,
    forest_bytes: &mut usize,
) -> Vec<Value> {
    let df = DominanceForest::build(sites, ctx.dt);
    *forest_bytes = (*forest_bytes).max(df.bytes());
    let nodes = df.nodes();
    ctx.removed.clear();
    ctx.removed.resize(nodes.len(), false);

    // Nodes come out in a valid preorder, so ancestors are processed (and
    // possibly marked removed) before descendants.
    for idx in 0..nodes.len() {
        fcc_analysis::fuel::checkpoint(1);
        let c = &nodes[idx];
        // Effective parent: nearest non-removed forest ancestor.
        let mut anc = c.parent;
        while let Some(ai) = anc {
            if ctx.removed[ai] {
                anc = nodes[ai].parent;
            } else {
                break;
            }
        }
        let Some(p_idx) = anc else { continue };
        let p = &nodes[p_idx];

        let local = p.block == c.block || !ctx.live.is_live_out(p.value, c.block);
        if ctx.edge_interferes(p.value, p.block, c.block, c.def_pos) {
            let victim = pick_victim(
                heuristic,
                ctx.phi_degree,
                nodes,
                p_idx,
                idx,
                &ctx.removed,
                ctx.live,
            );
            ctx.removed[victim] = true;
            if local {
                ctx.stats.local_splits += 1;
            } else {
                ctx.stats.forest_splits += 1;
            }
        }
        // else: no interference; Lemma 3.1 spares the descendants.
    }

    nodes
        .iter()
        .zip(&ctx.removed)
        .filter(|(_, &gone)| !gone)
        .map(|(node, _)| node.value)
        .collect()
}

/// Extension: repeatedly find an interfering pair and bipartition the
/// class along the min-weight cut of its φ-connection graph, until every
/// part is interference-free.
fn resolve_by_cutting(
    ctx: &mut Ctx<'_>,
    members: &[Value],
    loops: &LoopNesting,
    phis: &[(Block, Inst)],
    forest_bytes: &mut usize,
) -> Vec<Vec<Value>> {
    let mut done: Vec<Vec<Value>> = Vec::new();
    let mut work: Vec<Vec<Value>> = vec![members.to_vec()];

    while let Some(class) = work.pop() {
        fcc_analysis::fuel::checkpoint(1);
        if class.len() < 2 {
            done.push(class);
            continue;
        }
        match first_interference(ctx, &class, forest_bytes) {
            None => done.push(class),
            Some((p, c)) => {
                // φ-connection edges inside this class, weighted by the
                // loop depth of the block the cut copy would land in.
                let index: HashMap<Value, usize> =
                    class.iter().enumerate().map(|(i, &v)| (v, i)).collect();
                let mut edges: Vec<(usize, usize, u64)> = Vec::new();
                for &(_, phi) in phis {
                    let data = ctx.func.inst(phi);
                    let d = data.dst.expect("phi defines");
                    let Some(&di) = index.get(&d) else { continue };
                    if let InstKind::Phi { args } = &data.kind {
                        for a in args {
                            if let Some(&ai) = index.get(&a.value) {
                                if ai != di {
                                    let w = 10u64.saturating_pow(loops.depth(a.pred).min(6));
                                    edges.push((di, ai, w));
                                }
                            }
                        }
                    }
                }
                let (_, side) = min_cut(class.len(), &edges, index[&p], index[&c]);
                ctx.stats.cut_splits += 1;
                let (left, right): (Vec<Value>, Vec<Value>) =
                    class.iter().partition(|&&v| side[index[&v]]);
                debug_assert!(!left.is_empty() && !right.is_empty());
                work.push(left);
                work.push(right);
            }
        }
    }
    done
}

/// Walk the class's dominance forest; return the first interfering
/// (parent, child) pair, if any.
fn first_interference(
    ctx: &mut Ctx<'_>,
    class: &[Value],
    forest_bytes: &mut usize,
) -> Option<(Value, Value)> {
    let sites: Vec<(Value, Block, u32)> = class.iter().map(|&v| ctx.site(v)).collect();
    let df = DominanceForest::build(&sites, ctx.dt);
    *forest_bytes = (*forest_bytes).max(df.bytes());
    let nodes = df.nodes();
    for c in nodes {
        let Some(p_idx) = c.parent else { continue };
        let p = &nodes[p_idx];
        if ctx.edge_interferes(p.value, p.block, c.block, c.def_pos) {
            return Some((p.value, c.value));
        }
    }
    None
}

/// Figure 2's victim-selection heuristic.
///
/// Split the child only when the parent cannot (by the live-out test)
/// interfere with any of its other live children and the child is cheaper
/// to split; otherwise split the parent, which resolves all of its
/// pending interferences at once.
fn pick_victim(
    heuristic: SplitHeuristic,
    phi_degree: &[u32],
    nodes: &[crate::dforest::DfNode],
    p_idx: usize,
    c_idx: usize,
    removed: &[bool],
    live: &Liveness,
) -> usize {
    let p = &nodes[p_idx];
    let c = &nodes[c_idx];
    match heuristic {
        SplitHeuristic::AlwaysChild => c_idx,
        SplitHeuristic::AlwaysParent => p_idx,
        SplitHeuristic::CopyCost => {
            // "If p can not interfere with any of its other children and c
            // has fewer copies to insert than p" — split c; otherwise
            // split p. Low-degree leaves are the usual victims, which
            // keeps each split at one or two materialised copies.
            let p_hits_other_children = nodes[p_idx].children.iter().any(|&other| {
                other != c_idx
                    && !removed[other]
                    && nodes[other].block != p.block
                    && live.is_live_out(p.value, nodes[other].block)
            });
            if !p_hits_other_children && phi_degree[c.value.index()] < phi_degree[p.value.index()] {
                c_idx
            } else {
                p_idx
            }
        }
    }
}
