//! SSA-level spilling: lower MaxLive to ≤ k before destruction.
//!
//! Under strict SSA the interference graph is chordal and MaxLive equals
//! the chromatic number, so "will k registers suffice?" is decided by
//! pressure alone. This module *changes the answer*: it rewrites a
//! strict-SSA function so that its MaxLive drops to (at most) k, by
//! storing selected values to spill slots right after their definition
//! and reloading them into **fresh SSA names** immediately before each
//! use. Fresh names keep the program strict SSA — every reload is a new
//! definition dominating its single adjacent use — so chordality (and
//! with it the MaxLive = χ certificate) survives spilling.
//!
//! Two strategies, mirroring "On the Complexity of Spill Everywhere under
//! SSA Form":
//!
//! * [`SpillStrategy::Everywhere`] — the classic baseline: at every
//!   over-pressure point, spill *all* eligible live values.
//! * [`SpillStrategy::CostGuided`] — walk the over-pressure points
//!   (worst first) and evict only `pressure − k` victims per point,
//!   chosen by minimal loop-depth-weighted [`SpillCosts`]. The greedy
//!   walk is not monotone: at very tight k its reload temporaries can
//!   recreate pressure and force extra rounds, ending up pricier than
//!   the baseline. Cost-guided therefore runs as a portfolio — it also
//!   prices the everywhere plan and keeps whichever rewrite has the
//!   lower loop-weighted spill traffic, so by construction it is never
//!   worse than the baseline on the metric it optimises.
//!
//! Spilling is best-effort: some pressure is irreducible at the SSA
//! level (φ-destinations are defined in parallel and reload temporaries
//! must live *somewhere*), so [`SpillStats::maxlive_after`] can stay
//! above k on extreme inputs. The colourer's own iterated spilling
//! (post-destruction, where φs have become sequenced copies) closes the
//! remaining gap; `audit_allocation` certifies the final result either
//! way.
//!
//! A round's walk and rewrite cost what its victims touched, not the
//! function. Spilling inserts only straight-line instructions, so the
//! CFG, dominator tree, loop nesting and the input's SSA liveness are
//! read once per [`spill_to_k`] call (from the caller's
//! [`AnalysisManager`] where it holds them) and shared by both portfolio
//! plans, and so is an index of every input value's def, use and
//! φ-argument sites. A function whose MaxLive already fits costs one
//! pressure lookup. Each plan's first
//! walk visits every reachable block and keeps each block's maximum
//! pressure; after that a round rewrites each victim's own sites, with
//! positions computed only in the blocks that hold them, carries the
//! liveness over with [`Liveness::spill_rewritten`], and re-walks only
//! the blocks it touched: those holding a victim's def, a use or a
//! φ-edge reload, and those whose live-in or live-out set changed.
//!
//! Skipping the other blocks cannot change the result. Such a block
//! kept its instructions and its live-out set, so its points and their
//! sets are those of the walk that last visited it. That walk picked no
//! victim there (a victim live in a block puts a site in it or leaves
//! its boundary sets), so no point of it over k had an eligible value;
//! eligibility only shrinks from round to round (`no_spill` grows; use
//! counts and pins are fixed), so a new walk would pick nothing there
//! either.

use std::rc::Rc;

use fcc_analysis::liveness::{group, Liveness};
use fcc_analysis::loops::LoopNesting;
use fcc_analysis::pressure::{for_each_point_in, LiveSet, Point};
use fcc_analysis::{AnalysisManager, DomTree};
use fcc_ir::{Block, ControlFlowGraph, Function, Inst, InstKind, Value};
use fcc_pressure::SpillCosts;

/// Victim-selection policy for [`spill_to_k`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpillStrategy {
    /// Spill every eligible value live at any over-pressure point.
    Everywhere,
    /// Spill only enough victims per point, cheapest (by loop-depth
    /// weighted cost) first.
    CostGuided,
}

impl SpillStrategy {
    /// Stable lowercase label for tables and stat lines.
    pub fn label(self) -> &'static str {
        match self {
            SpillStrategy::Everywhere => "everywhere",
            SpillStrategy::CostGuided => "cost-guided",
        }
    }
}

/// What one [`spill_to_k`] run did to the function.
#[derive(Clone, Debug, Default)]
pub struct SpillStats {
    /// Values evicted to slots, in ascending index order.
    pub spilled: Vec<Value>,
    /// `spill` instructions inserted (one per spilled value).
    pub spills: usize,
    /// `reload` instructions inserted.
    pub reloads: usize,
    /// Spill slots allocated by this run (one per spilled value).
    pub slots: u32,
    /// MaxLive on entry.
    pub maxlive_before: u32,
    /// MaxLive after rewriting. Usually ≤ k; can exceed k when pressure
    /// is irreducible at the SSA level (see module docs).
    pub maxlive_after: u32,
    /// Rewrite rounds executed.
    pub rounds: usize,
}

/// Maximum spill/recompute rounds before declaring the residual pressure
/// irreducible. Each round spills at least one new value, so this bounds
/// pathological cases only.
const MAX_ROUNDS: usize = 64;

/// Rewrite strict-SSA `func` so MaxLive drops to ≤ `k` where possible.
///
/// The input must verify as strict SSA (φs present are fine); the output
/// does too. Slot numbering continues from [`Function::spill_slot_count`],
/// so repeated spilling (e.g. the allocator's residual pass) never reuses
/// a slot.
///
/// # Panics
/// Panics if `k == 0`.
pub fn spill_to_k(func: &mut Function, k: u32, strategy: SpillStrategy) -> SpillStats {
    spill_to_k_managed(func, k, strategy, &mut AnalysisManager::new())
}

/// [`spill_to_k`], pulling MaxLive, the CFG, the dominator tree and the
/// liveness from a shared [`AnalysisManager`]: they hit the cache when
/// the caller's pipeline already analysed the unmodified function. When
/// MaxLive is already ≤ `k`, the call returns at once and leaves `func`,
/// and its epoch, untouched.
pub fn spill_to_k_managed(
    func: &mut Function,
    k: u32,
    strategy: SpillStrategy,
    am: &mut AnalysisManager,
) -> SpillStats {
    spill_to_k_observed(func, k, strategy, am, |_, _, _| {})
}

/// [`spill_to_k_managed`], handing `observe` what each walk reads: the
/// function, its carried liveness and the blocks the walk visits — every
/// reachable block at the start of each portfolio plan, then after every
/// round's rewrite the blocks that round touched. Public but
/// undocumented so the test suite can check every round against a fresh
/// solve and every untouched block against the round before;
/// [`spill_to_k_managed`] passes a closure that does nothing.
#[doc(hidden)]
pub fn spill_to_k_observed(
    func: &mut Function,
    k: u32,
    strategy: SpillStrategy,
    am: &mut AnalysisManager,
    mut observe: impl FnMut(&Function, &Liveness, &[Block]),
) -> SpillStats {
    assert!(k > 0, "cannot spill to zero registers");
    let maxlive = am.pressure(func).maxlive();
    if maxlive <= k {
        return SpillStats {
            maxlive_before: maxlive,
            maxlive_after: maxlive,
            ..SpillStats::default()
        };
    }
    let frame = Frame::compute(func, am);
    match strategy {
        SpillStrategy::Everywhere => spill_once(func, k, strategy, &frame, &mut observe),
        SpillStrategy::CostGuided => {
            let input = func.clone();
            let cg_stats = spill_once(func, k, SpillStrategy::CostGuided, &frame, &mut observe);
            if cg_stats.spills == 0 {
                return cg_stats;
            }
            // Portfolio step: price the baseline plan too and keep the
            // cheaper rewrite. Meeting the pressure target outranks
            // traffic; ties keep the cost-guided plan.
            let mut ev = input;
            let ev_stats = spill_once(&mut ev, k, SpillStrategy::Everywhere, &frame, &mut observe);
            let price = |f: &Function| traffic(f, &frame.cfg, &frame.loops);
            let cg_key = (cg_stats.maxlive_after > k, price(func));
            let ev_key = (ev_stats.maxlive_after > k, price(&ev));
            if cg_key <= ev_key {
                cg_stats
            } else {
                *func = ev;
                ev_stats
            }
        }
    }
}

/// Loop-weighted cost of all `spill`/`reload` instructions in `func`:
/// each contributes `10^min(depth, 6)` — the same model [`SpillCosts`]
/// prices victims with, and the metric [`SpillStrategy::CostGuided`]'s
/// portfolio guarantee is stated in: on the same input, the cost-guided
/// rewrite never exceeds the everywhere rewrite.
pub fn weighted_spill_traffic(func: &Function) -> f64 {
    let cfg = ControlFlowGraph::compute(func);
    let loops = LoopNesting::compute(&cfg, &DomTree::compute(func, &cfg));
    traffic(func, &cfg, &loops)
}

fn traffic(func: &Function, cfg: &ControlFlowGraph, loops: &LoopNesting) -> f64 {
    let mut total = 0f64;
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let w = 10f64.powi(loops.depth(b).min(6) as i32);
        for &i in func.block_insts(b) {
            if matches!(
                func.inst(i).kind,
                InstKind::Spill { .. } | InstKind::Reload { .. }
            ) {
                total += w;
            }
        }
    }
    total
}

/// What one [`spill_to_k`] call computes once from its input and every
/// round of both plans reuses. Rounds only insert straight-line code and
/// rename victims' uses, so none of it goes stale: victims are always
/// input values, only a victim's own rewrite changes its sites, and the
/// facts below about a value that is still eligible never change.
struct Frame {
    cfg: Rc<ControlFlowGraph>,
    loops: LoopNesting,
    /// The input's SSA liveness: each plan starts from a copy and carries
    /// it across its rounds with [`Liveness::spill_rewritten`].
    live: Rc<Liveness>,
    /// Loop-weighted cost of each input value.
    costs: SpillCosts,
    /// Values that must never be victims: spilled by an earlier pass, or
    /// defined by a reload.
    no_spill: Vec<bool>,
    /// Uses per value, φ-arguments included. Spilling a never-used value
    /// only lengthens its range, so such values are never victims.
    use_count: Vec<usize>,
    /// φ-arguments on the edges out of each block, by block index. They
    /// stay live at that block's Exit after spilling (the reload temp
    /// takes their place), so they are pinned there.
    exit_pinned: Vec<Vec<usize>>,
    /// Each block's place in the layout, the order walks visit blocks in.
    rank: Vec<u32>,
    /// Each input value's defining instruction and its block.
    def: Vec<Option<(Block, Inst)>>,
    /// Each input value's ordinary uses as `(block, instruction)`, one
    /// per using instruction, in layout order, unreachable blocks
    /// included.
    uses: ByValue<(Block, Inst)>,
    /// Each input value's φ-argument uses as `(φ, predecessor)`, in
    /// layout order.
    phi_uses: ByValue<(Inst, Block)>,
}

impl Frame {
    fn compute(func: &Function, am: &mut AnalysisManager) -> Frame {
        let cfg = am.cfg(func);
        let loops = LoopNesting::compute(&cfg, &am.domtree(func));
        let costs = SpillCosts::compute(func, &cfg, &loops);
        let live = am.liveness(func);
        let n = func.num_values();
        let mut no_spill = vec![false; n];
        let mut use_count = vec![0usize; n];
        let mut exit_pinned = vec![Vec::new(); func.num_blocks()];
        let mut rank = vec![u32::MAX; func.num_blocks()];
        let mut def = vec![None; n];
        let mut uses = Vec::new();
        let mut phi_uses = Vec::new();
        let mut last_user: Vec<Option<Inst>> = vec![None; n];
        for (r, b) in func.blocks().enumerate() {
            rank[b.index()] = r as u32;
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                if let Some(d) = data.dst {
                    def[d.index()] = Some((b, i));
                }
                data.kind.for_each_use(|u| {
                    use_count[u.index()] += 1;
                    // `add v, v` is one site.
                    if last_user[u.index()].replace(i) != Some(i) {
                        uses.push((u.index() as u32, (b, i)));
                    }
                });
                match &data.kind {
                    InstKind::Phi { args } => {
                        for a in args {
                            use_count[a.value.index()] += 1;
                            exit_pinned[a.pred.index()].push(a.value.index());
                            phi_uses.push((a.value.index() as u32, (i, a.pred)));
                        }
                    }
                    InstKind::Spill { val, .. } => no_spill[val.index()] = true,
                    InstKind::Reload { .. } => {
                        if let Some(d) = data.dst {
                            no_spill[d.index()] = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        Frame {
            cfg,
            loops,
            live,
            costs,
            no_spill,
            use_count,
            exit_pinned,
            rank,
            def,
            uses: ByValue::group(n, &uses),
            phi_uses: ByValue::group(n, &phi_uses),
        }
    }
}

/// Items keyed by value, stored back to back: value `v`'s items are
/// `items[start[v]..start[v + 1]]`, in the order they were found.
struct ByValue<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> ByValue<T> {
    fn group(n: usize, pairs: &[(u32, T)]) -> ByValue<T> {
        let (start, items) = group(n, pairs);
        ByValue { start, items }
    }

    fn get(&self, v: Value) -> &[T] {
        &self.items[self.start[v.index()] as usize..self.start[v.index() + 1] as usize]
    }
}

/// One portfolio plan: rounds of `strategy` on `func`, whose MaxLive
/// exceeds `k`, until it fits, no victim is left, or [`MAX_ROUNDS`].
fn spill_once(
    func: &mut Function,
    k: u32,
    strategy: SpillStrategy,
    frame: &Frame,
    observe: &mut impl FnMut(&Function, &Liveness, &[Block]),
) -> SpillStats {
    // Values minted by this pass (reload temporaries) join `no_spill` as
    // they appear.
    let mut no_spill = frame.no_spill.clone();
    let mut live = (*frame.live).clone();
    let mut next_slot = func.spill_slot_count();
    let mut walker = Walker {
        k: k as usize,
        strategy,
        block_max: vec![0; func.num_blocks()],
        chosen: Vec::new(),
        set: SparseSet::default(),
    };
    // The blocks the next walk visits: all reachable ones first, then
    // those the last round touched.
    let mut blocks: Vec<Block> = func
        .blocks()
        .filter(|&b| frame.cfg.is_reachable(b))
        .collect();
    observe(func, &live, &blocks);
    let (maxlive, mut victims) = walker.walk(func, frame, &live, &no_spill, &blocks);
    let mut stats = SpillStats {
        maxlive_before: maxlive,
        maxlive_after: maxlive,
        ..SpillStats::default()
    };

    // Instruction positions, valid in the blocks the last rewrite indexed.
    let mut at: Vec<u32> = Vec::new();
    while stats.rounds < MAX_ROUNDS {
        stats.rounds += 1;
        if victims.is_empty() {
            break; // converged, or residual pressure is irreducible
        }
        let mut edge_reloads = Vec::new();
        blocks.clear();
        stats.reloads += rewrite(
            func,
            &victims,
            next_slot,
            frame,
            &mut at,
            &mut blocks,
            &mut edge_reloads,
        );
        blocks.extend(live.spill_rewritten(&frame.cfg, func.num_values(), &victims, &edge_reloads));
        blocks.sort_unstable_by_key(|b| frame.rank[b.index()]);
        blocks.dedup();
        observe(func, &live, &blocks);
        next_slot += victims.len() as u32;
        stats.spills += victims.len();
        stats.slots += victims.len() as u32;
        for &v in &victims {
            no_spill[v.index()] = true;
        }
        stats.spilled.extend_from_slice(&victims);
        no_spill.resize(func.num_values(), true);
        (stats.maxlive_after, victims) = walker.walk(func, frame, &live, &no_spill, &blocks);
        if stats.maxlive_after <= k {
            break;
        }
    }
    stats.spilled.sort();
    stats
}

/// One plan's walk state, kept from round to round.
struct Walker {
    k: usize,
    strategy: SpillStrategy,
    /// Each block's maximum pressure, as of the last walk that visited
    /// it (0 for unreachable blocks).
    block_max: Vec<u32>,
    /// The values the running walk has picked; all clear between walks.
    chosen: Vec<bool>,
    /// The walk's live set.
    set: SparseSet,
}

impl Walker {
    /// One round's analysis: one point walk over `blocks` of `live`,
    /// giving MaxLive (the maximum of the per-block maxima) and the
    /// round's victims in ascending order. Only points over k look at
    /// their live set; each picks victims as if the ones already picked
    /// this round were gone.
    fn walk(
        &mut self,
        func: &Function,
        frame: &Frame,
        live: &Liveness,
        no_spill: &[bool],
        blocks: &[Block],
    ) -> (u32, Vec<Value>) {
        let Walker {
            k,
            strategy,
            block_max,
            chosen,
            set,
        } = self;
        let k = *k;
        chosen.resize(func.num_values(), false);
        set.at.resize(func.num_values(), 0);
        for &b in blocks {
            block_max[b.index()] = 0;
        }
        let mut picks: Vec<Value> = Vec::new();
        let mut pinned: Vec<usize> = Vec::new();
        let mut cands: Vec<usize> = Vec::new();
        let blocks = blocks.iter().copied();
        for_each_point_in(func, &frame.cfg, live, blocks, set, |p, set, count| {
            let max = &mut block_max[p.block().index()];
            *max = (*max).max(count as u32);
            if count <= k {
                return;
            }
            // A victim must actually lose its range when spilled: values
            // whose presence at a point is pinned by an adjacent use stay
            // ineligible *at that point*.
            pinned.clear();
            match p {
                Point::Before(_, i) | Point::DeadDef(_, i) => {
                    let data = func.inst(i);
                    data.kind.for_each_use(|u| pinned.push(u.index()));
                    if let Some(d) = data.dst {
                        pinned.push(d.index());
                    }
                }
                Point::Exit(b) => pinned.extend_from_slice(&frame.exit_pinned[b.index()]),
                Point::PhiDefs(_) => return, // φ-defs are parallel: irreducible here
            }
            // Count pressure as if already-picked victims were gone. Most
            // points over k end here, so candidates are only listed at
            // the points that pick.
            let residual = count - set.iter().filter(|&v| chosen[v]).count();
            if residual <= k {
                return;
            }
            cands.clear();
            cands.extend(set.iter().filter(|&v| {
                !chosen[v] && !no_spill[v] && frame.use_count[v] > 0 && !pinned.contains(&v)
            }));
            let need = match *strategy {
                SpillStrategy::Everywhere => cands.len(),
                SpillStrategy::CostGuided => {
                    let costs = &frame.costs;
                    cands.sort_by(|&a, &b| {
                        costs
                            .cost(Value::new(a))
                            .partial_cmp(&costs.cost(Value::new(b)))
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    });
                    residual - k
                }
            };
            for &v in cands.iter().take(need) {
                chosen[v] = true;
                picks.push(Value::new(v));
            }
        });
        for &v in &picks {
            chosen[v.index()] = false;
        }
        picks.sort();
        (block_max.iter().copied().max().unwrap_or(0), picks)
    }
}

/// The spiller's live set: Briggs and Torczon's sparse set. Its members
/// are a list, so a point over k reads them in time proportional to how
/// many there are, not to the function's value count. Clearing it only
/// empties the list.
#[derive(Default)]
struct SparseSet {
    /// The members, in no particular order.
    members: Vec<u32>,
    /// Each member's index in `members`; anything for other values.
    at: Vec<u32>,
}

impl SparseSet {
    fn contains(&self, v: usize) -> bool {
        let i = self.at[v] as usize;
        self.members.get(i) == Some(&(v as u32))
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|&v| v as usize)
    }
}

impl LiveSet for SparseSet {
    fn clear(&mut self) {
        self.members.clear();
    }

    fn insert(&mut self, v: usize) -> bool {
        if self.contains(v) {
            return false;
        }
        self.at[v] = self.members.len() as u32;
        self.members.push(v as u32);
        true
    }

    fn remove(&mut self, v: usize) -> bool {
        if !self.contains(v) {
            return false;
        }
        let i = self.at[v];
        let last = self.members.pop().expect("a member");
        if last as usize != v {
            self.members[i as usize] = last;
            self.at[last as usize] = i;
        }
        true
    }
}

/// Evict each of `victims` (ascending) to its own slot, numbered from
/// `first_slot`: one `spill` after its definition, one fresh-name
/// `reload` in front of every use. Returns the number of reloads, pushes
/// every block it puts code in onto `touched` (once each), and pushes
/// each reload that replaces a φ-argument onto `edge_reloads` as
/// `(predecessor, temporary)`.
///
/// Each victim rewrites only its own sites, read from the frame's
/// index, in the order one-victim-at-a-time insertion would, so values,
/// instruction ids and positions come out the same. Positions are taken
/// in the round's starting layout, and only in the touched blocks; `at`
/// holds them by instruction. New instructions are linked by
/// [`link_placed`].
fn rewrite(
    func: &mut Function,
    victims: &[Value],
    first_slot: u32,
    frame: &Frame,
    at: &mut Vec<u32>,
    touched: &mut Vec<Block>,
    edge_reloads: &mut Vec<(Block, Value)>,
) -> usize {
    for &v in victims {
        touched.extend(frame.def[v.index()].map(|(b, _)| b));
        touched.extend(frame.uses.get(v).iter().map(|&(b, _)| b));
        touched.extend(frame.phi_uses.get(v).iter().map(|&(_, pred)| pred));
    }
    touched.sort_unstable();
    touched.dedup();
    at.resize(func.num_insts(), 0);
    for &b in touched.iter() {
        for (pos, &i) in func.block_insts(b).iter().enumerate() {
            at[i.index()] = pos as u32;
        }
    }

    let mut placed: Vec<Placed> = Vec::new();
    let mut reloads = 0usize;
    for (j, &v) in victims.iter().enumerate() {
        let slot = first_slot + j as u32;
        // A def site is the gap its spill goes into: right after an
        // ordinary definition, but after the whole group for a φ (φs are
        // defined in parallel) or a param (a run of params stays
        // unbroken). The params need not start the entry: strictness
        // inits go in front of them.
        let (def_block, d) = frame.def[v.index()].expect("spill victim must have a definition");
        let insts = func.block_insts(def_block);
        let pos = at[d.index()] as usize;
        let gap = match func.inst(d).kind {
            InstKind::Phi { .. } => group_end(func, insts, InstKind::is_phi),
            InstKind::Param { .. } => {
                pos + group_end(func, &insts[pos..], |k| matches!(k, InstKind::Param { .. }))
            }
            _ => pos + 1,
        };
        let spill = func.create_inst(InstKind::Spill { slot, val: v }, None);
        placed.push((def_block, gap, false, spill));

        // Ordinary uses: fresh temp per using instruction (a double
        // operand like `add v, v` shares the one temp).
        for &(b, i) in frame.uses.get(v) {
            let t = func.new_value();
            let reload = func.create_inst(InstKind::Reload { slot }, Some(t));
            placed.push((b, at[i.index()] as usize, true, reload));
            reloads += 1;
            func.inst_mut(i).kind.for_each_use_mut(|u| {
                if *u == v {
                    *u = t;
                }
            });
        }

        // φ-argument uses: reload at the bottom of the predecessor, one
        // temp per (pred) edge shared across all φs consuming `v` on that
        // edge.
        let mut edge_temp: Vec<(Block, Value)> = Vec::new();
        for &(phi, pred) in frame.phi_uses.get(v) {
            let t = match edge_temp.iter().find(|&&(p, _)| p == pred) {
                Some(&(_, t)) => t,
                None => {
                    let t = func.new_value();
                    assert!(
                        func.terminator(pred).is_some(),
                        "predecessor must have a terminator"
                    );
                    let term = func.block_insts(pred).len() - 1;
                    let reload = func.create_inst(InstKind::Reload { slot }, Some(t));
                    placed.push((pred, term, true, reload));
                    reloads += 1;
                    edge_temp.push((pred, t));
                    edge_reloads.push((pred, t));
                    t
                }
            };
            if let InstKind::Phi { args } = &mut func.inst_mut(phi).kind {
                for a in args.iter_mut() {
                    if a.pred == pred && a.value == v {
                        a.value = t;
                    }
                }
            }
        }
    }

    link_placed(func, placed);
    reloads
}

/// A new spill-code instruction waiting to be linked: `(block, gap,
/// is-reload, inst)`, where the gap is the position, in the block's list
/// as the rewrite found it, of the instruction it goes in front of (the
/// list's length for the very end).
pub(crate) type Placed = (Block, usize, bool, Inst);

/// Link `placed` into their blocks, one pass per touched block, exactly
/// where inserting them one at a time, in creation order, would have
/// put them. Such insertion puts each spill at the front of its gap and
/// each reload at the back, so within a gap spills run newest first and
/// reloads oldest first. Shared by the SSA spiller and the colourer's
/// residual rewrite.
pub(crate) fn link_placed(func: &mut Function, mut placed: Vec<Placed>) {
    placed.sort_unstable_by_key(|&(b, gap, is_reload, i)| {
        let age = if is_reload {
            i.index()
        } else {
            usize::MAX - i.index()
        };
        (b.index(), gap, is_reload, age)
    });
    for here in placed.chunk_by(|x, y| x.0 == y.0) {
        let b = here[0].0;
        let old = func.block_insts(b);
        let mut list = Vec::with_capacity(old.len() + here.len());
        let mut new = here.iter().peekable();
        for (pos, &i) in old.iter().enumerate() {
            while let Some(e) = new.next_if(|e| e.1 == pos) {
                list.push(e.3);
            }
            list.push(i);
        }
        list.extend(new.map(|e| e.3));
        func.set_block_insts(b, list);
    }
}

/// Position of the first instruction of `insts` outside the leading
/// group `in_group` describes.
fn group_end(func: &Function, insts: &[Inst], in_group: impl Fn(&InstKind) -> bool) -> usize {
    insts
        .iter()
        .position(|&i| !in_group(&func.inst(i).kind))
        .unwrap_or(insts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;
    use fcc_ssa::verify_ssa;

    // Eight long-lived constants summed at the end: MaxLive 8, every
    // value spillable.
    const WIDE: &str = "function @wide(0) {
        b0:
            v0 = const 1
            v1 = const 2
            v2 = const 3
            v3 = const 4
            v4 = const 5
            v5 = const 6
            v6 = const 7
            v7 = const 8
            v8 = add v0, v1
            v9 = add v8, v2
            v10 = add v9, v3
            v11 = add v10, v4
            v12 = add v11, v5
            v13 = add v12, v6
            v14 = add v13, v7
            return v14
        }";

    fn check(text: &str, k: u32, strategy: SpillStrategy) -> (Function, SpillStats) {
        let mut f = parse_function(text).unwrap();
        let before = fcc_interp::run(&f, &[]).unwrap();
        let stats = spill_to_k(&mut f, k, strategy);
        verify_function(&f).unwrap();
        verify_ssa(&f).expect("spilled code must stay strict SSA");
        let after = fcc_interp::run(&f, &[]).unwrap();
        assert_eq!(before.behavior(), after.behavior(), "{f}");
        (f, stats)
    }

    #[test]
    fn lowers_maxlive_to_k() {
        for k in [4u32, 8, 16] {
            for strat in [SpillStrategy::Everywhere, SpillStrategy::CostGuided] {
                let (_, stats) = check(WIDE, k, strat);
                assert!(
                    stats.maxlive_after <= k.max(3),
                    "k={k} {strat:?}: {} -> {}",
                    stats.maxlive_before,
                    stats.maxlive_after
                );
            }
        }
    }

    #[test]
    fn cost_guided_spills_no_more_than_everywhere() {
        let (_, cg) = check(WIDE, 4, SpillStrategy::CostGuided);
        let (_, ev) = check(WIDE, 4, SpillStrategy::Everywhere);
        assert!(cg.spills <= ev.spills, "{} > {}", cg.spills, ev.spills);
        assert!(cg.reloads <= ev.reloads, "{} > {}", cg.reloads, ev.reloads);
        assert!(cg.spills > 0, "k=4 must force spilling");
    }

    #[test]
    fn noop_when_pressure_fits() {
        let (f, stats) = check(WIDE, 16, SpillStrategy::CostGuided);
        assert_eq!(stats.spills, 0);
        assert_eq!(stats.reloads, 0);
        assert_eq!(f.spill_slot_count(), 0);
    }

    #[test]
    fn phi_arguments_reload_in_the_predecessor() {
        let text = "function @loop(1) {
            b0:
                v0 = param 0
                v1 = const 10
                v2 = const 20
                v3 = const 30
                v4 = const 40
                jump b1
            b1:
                v5 = phi [b0: v1], [b1: v6]
                v7 = const 1
                v6 = sub v5, v7
                branch v6, b1, b2
            b2:
                v8 = add v2, v3
                v9 = add v8, v4
                v10 = add v9, v0
                return v10
            }";
        let mut f = parse_function(text).unwrap();
        let before = fcc_interp::run(&f, &[7]).unwrap();
        let stats = spill_to_k(&mut f, 4, SpillStrategy::CostGuided);
        verify_function(&f).unwrap();
        verify_ssa(&f).unwrap();
        let after = fcc_interp::run(&f, &[7]).unwrap();
        assert_eq!(before.behavior(), after.behavior(), "{f}");
        assert!(stats.spills > 0);
        assert!(stats.maxlive_after <= 4, "{}", stats.maxlive_after);
    }

    #[test]
    fn loop_resident_values_cost_more_and_stay() {
        // v1 is hammered inside the loop; v2..v4 idle across it. The
        // cost-guided spiller must evict the idle values, not v1.
        let text = "function @hot(1) {
            b0:
                v0 = param 0
                v1 = const 1
                v2 = const 100
                v3 = const 200
                v4 = const 300
                v12 = const 0
                jump b1
            b1:
                v5 = phi [b0: v0], [b1: v6]
                v13 = phi [b0: v12], [b1: v14]
                v6 = sub v5, v1
                v14 = add v13, v1
                branch v6, b1, b2
            b2:
                v8 = add v2, v3
                v9 = add v8, v4
                v10 = add v9, v14
                return v10
            }";
        let mut f = parse_function(text).unwrap();
        let stats = spill_to_k(&mut f, 4, SpillStrategy::CostGuided);
        assert!(
            !stats.spilled.contains(&Value::new(1)),
            "v1 is loop-resident and must not be the victim: {:?}",
            stats.spilled
        );
    }

    #[test]
    fn slot_numbering_continues_past_existing_slots() {
        let text = "function @pre(0) {
            b0:
                v0 = const 1
                spill 2, v0
                v1 = reload 2
                v2 = const 3
                v3 = const 4
                v4 = const 5
                v5 = const 6
                v6 = add v1, v2
                v7 = add v6, v3
                v8 = add v7, v4
                v9 = add v8, v5
                return v9
            }";
        let mut f = parse_function(text).unwrap();
        let stats = spill_to_k(&mut f, 3, SpillStrategy::CostGuided);
        if stats.spills > 0 {
            assert!(f.spill_slot_count() > 3, "fresh slots start after slot 2");
        }
    }
}
