//! A Chaitin/Briggs graph-colouring register allocator.
//!
//! The paper positions its coalescer as a drop-in phase for exactly this
//! allocator (and names "a fast register-allocation algorithm that uses
//! the results presented in this paper" as future work), so the library
//! ships one: simplify/select with Briggs-style *optimistic* colouring
//! and iterated spilling.
//!
//! * **simplify** — repeatedly remove nodes of degree < K; when none
//!   remains, push the cheapest spill candidate anyway (optimism: it may
//!   still colour).
//! * **select** — pop nodes, giving each the lowest colour unused by its
//!   already-coloured neighbours; a node with no free colour becomes an
//!   actual spill.
//! * **spill** — spilled values are rewritten through dedicated spill
//!   slots (disjoint from program memory): a `spill` after each
//!   definition, a `reload` into a fresh temporary before each use. The
//!   allocator then retries on the rewritten program. Slot numbering
//!   continues past any slots an earlier SSA-level spilling pass used.
//!
//! Spill costs follow the classical `(defs + uses) · 10^depth / degree`
//! estimate, with the numerator from [`fcc_pressure::SpillCosts`].
//!
//! Every round is linear in the function. Colouring decisions depend
//! only on each value's neighbour *set*, which nothing ever queries
//! pairwise, so a round builds no Table 1 bit matrix: its graph is
//! deduplicated compressed rows over value indices (`Graph`), from the
//! same backward scan and copy rule as
//! [`InterferenceGraph::build`](crate::InterferenceGraph::build).
//! Spill code is straight-line, so the CFG and loop nesting are pulled
//! once per call and the liveness is carried from round to round by
//! [`Liveness::spill_rewritten`]. Residual victims are rewritten in one
//! indexed sweep. [`InterferenceGraph`](crate::InterferenceGraph) stays
//! the graph of the Briggs coalescers.

use std::collections::HashMap;
use std::rc::Rc;

use fcc_analysis::{AnalysisManager, BitSet, Liveness};
use fcc_ir::{Block, ControlFlowGraph, Function, Inst, InstKind, Value};
use fcc_pressure::SpillCosts;

use crate::spill::{link_placed, Placed};

/// Safety bound on build/spill rounds.
const MAX_ROUNDS: usize = 16;

/// Options for [`allocate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AllocOptions {
    /// Number of machine registers (colours) available.
    pub registers: usize,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions { registers: 8 }
    }
}

/// A successful allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Allocation {
    /// Colour (register number) per value that occurs in the function.
    pub coloring: HashMap<Value, u32>,
    /// Values spilled to slots across all rounds.
    pub spilled: Vec<Value>,
    /// Spill slots consumed by the allocator itself (slots an earlier
    /// SSA-level spilling pass used are not counted here).
    pub spill_slots: usize,
    /// Slot index per value the allocator spilled.
    pub slot_of: HashMap<Value, u32>,
    /// Build/colour rounds performed.
    pub rounds: usize,
}

impl Allocation {
    /// Number of distinct registers the coloring actually uses — the
    /// figure the feasibility auditor compares against a k target.
    pub fn registers_used(&self) -> u32 {
        let mut regs: Vec<u32> = self.coloring.values().copied().collect();
        regs.sort_unstable();
        regs.dedup();
        regs.len() as u32
    }
}

/// Allocation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// Even after 16 rounds of spilling the graph would not colour.
    DidNotConverge,
    /// Fewer than two registers requested. A binary instruction needs two
    /// operand registers at once even after maximal spilling, so K < 2
    /// can spill forever (each round's fresh temporaries re-spill),
    /// growing the program instead of converging.
    TooFewRegisters,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::DidNotConverge => write!(f, "spilling did not converge"),
            AllocError::TooFewRegisters => {
                write!(
                    f,
                    "at least 2 registers are required (a binary op needs two operands live)"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Colour the φ-free function `func` with `opts.registers` registers,
/// inserting spill code as needed. On success every value in the function
/// has a colour and no two interfering values share one (certified by
/// `fcc_pressure::audit_allocation`, from the program text alone).
///
/// # Errors
/// [`AllocError::TooFewRegisters`] if `opts.registers < 2`;
/// [`AllocError::DidNotConverge`] if 16 rounds of spilling do
/// not reach a colourable graph (with K ≥ 2 this indicates a degenerate
/// input, since spilled ranges become tiny).
///
/// # Panics
/// Panics if `func` contains φ-nodes.
pub fn allocate(func: &mut Function, opts: &AllocOptions) -> Result<Allocation, AllocError> {
    allocate_managed(func, opts, &mut AnalysisManager::new())
}

/// [`allocate`], pulling the CFG, loop nesting and liveness from a
/// shared [`AnalysisManager`] once: they hit the cache when the caller's
/// pipeline already analysed the unmodified function. Later rounds carry
/// the liveness across their spill rewrites instead of recomputing it.
pub fn allocate_managed(
    func: &mut Function,
    opts: &AllocOptions,
    am: &mut AnalysisManager,
) -> Result<Allocation, AllocError> {
    allocate_observed(func, opts, am, |_, _, _| {})
}

/// [`allocate_managed`], handing `observe` the function, its carried
/// liveness and the round's graph at the start of every round. Public
/// but undocumented so the test suite can check every round against
/// fresh analyses; [`allocate_managed`] passes a closure that does
/// nothing.
#[doc(hidden)]
pub fn allocate_observed(
    func: &mut Function,
    opts: &AllocOptions,
    am: &mut AnalysisManager,
    mut observe: impl FnMut(&Function, &Liveness, &Graph),
) -> Result<Allocation, AllocError> {
    assert!(!func.has_phis(), "allocate expects phi-free code");
    if opts.registers < 2 {
        return Err(AllocError::TooFewRegisters);
    }
    let k = opts.registers;
    let mut spilled_all: Vec<Value> = Vec::new();
    let mut spill_slots = 0usize;
    let mut slot_of: HashMap<Value, u32> = HashMap::new();
    // Never reuse a slot an earlier spilling pass (or a previous round)
    // already claimed.
    let slot_base = func.spill_slot_count();

    // Values whose live range is already minimal — reload temporaries and
    // once-spilled originals (def → spill, reload → use). Spilling one
    // again reproduces the identical one-instruction range, so the
    // retry loop would livelock; select diverts their spills instead.
    let mut no_respill = vec![false; func.num_values()];
    let cfg = am.cfg(func);
    let loops = am.loops(func);
    let mut live = Rc::unwrap_or_clone(am.liveness(func));

    for round in 1..=MAX_ROUNDS {
        let graph = Graph::build(func, &cfg, &live);
        observe(func, &live, &graph);

        // Spill costs. A value is a node iff it has a def or use site in
        // reachable code, i.e. iff its cost is positive. Every endpoint
        // of an edge is one: the scan only meets values defined or used
        // in reachable code.
        let costs = SpillCosts::compute(func, &cfg, &loops);
        let cost = |v: usize| costs.cost(Value::new(v));
        let n = func.num_values();
        let nodes: Vec<usize> = (0..n).filter(|&v| cost(v) > 0.0).collect();

        // ---- simplify ----
        // Peel nodes of degree < k in ascending sweeps over `nodes`, each
        // sweep restarting from the lowest after any progress; when none
        // is left, push the first cheapest node optimistically. `ready`
        // holds the unremoved nodes of degree < k (degrees only fall, so
        // a ready node stays ready), so a sweep is a cursor over it.
        let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
        let mut alive = BitSet::new(n);
        let mut ready = BitSet::new(n);
        for &v in &nodes {
            alive.insert(v);
            if degree[v] < k {
                ready.insert(v);
            }
        }
        let mut stack: Vec<usize> = Vec::with_capacity(nodes.len());
        let mut take = |v: usize, degree: &mut [usize], alive: &mut BitSet, ready: &mut BitSet| {
            alive.remove(v);
            ready.remove(v);
            stack.push(v);
            for &nb in graph.row(v) {
                let nb = nb as usize;
                degree[nb] = degree[nb].saturating_sub(1);
                if degree[nb] < k && alive.contains(nb) {
                    ready.insert(nb);
                }
            }
        };
        loop {
            while let Some(mut v) = ready.next_from(0) {
                loop {
                    take(v, &mut degree, &mut alive, &mut ready);
                    match ready.next_from(v + 1) {
                        Some(next) => v = next,
                        None => break,
                    }
                }
            }
            // Optimistic push of the cheapest spill candidate.
            let Some(v) = alive.iter().min_by(|&a, &b| {
                let ca = cost(a) / (degree[a].max(1) as f64);
                let cb = cost(b) / (degree[b].max(1) as f64);
                ca.partial_cmp(&cb).unwrap()
            }) else {
                break;
            };
            take(v, &mut degree, &mut alive, &mut ready);
        }

        // ---- select ----
        const UNCOLORED: u32 = u32::MAX;
        let mut color = vec![UNCOLORED; n];
        let mut used = vec![false; k];
        let mut to_spill: Vec<usize> = Vec::new();
        while let Some(v) = stack.pop() {
            used.fill(false);
            for &nb in graph.row(v) {
                let c = color[nb as usize];
                if c != UNCOLORED {
                    used[c as usize] = true;
                }
            }
            match used.iter().position(|&u| !u) {
                Some(c) => color[v] = c as u32,
                None => to_spill.push(v),
            }
        }

        if to_spill.is_empty() {
            let coloring = nodes
                .iter()
                .filter(|&&v| color[v] != UNCOLORED)
                .map(|&v| (Value::new(v), color[v]))
                .collect();
            return Ok(Allocation {
                coloring,
                spilled: spilled_all,
                spill_slots,
                slot_of,
                rounds: round,
            });
        }

        // A minimal-range value that failed to colour marks a point that
        // is genuinely over k; the value actually worth spilling there is
        // a live-through neighbour whose range a spill can still break.
        // Divert to the cheapest such neighbour.
        let mut chosen = vec![false; n];
        for &v in &to_spill {
            chosen[v] = true;
        }
        let mut final_spill: Vec<Value> = Vec::new();
        for v in to_spill {
            if !no_respill[v] {
                final_spill.push(Value::new(v));
                continue;
            }
            let alt = graph
                .row(v)
                .iter()
                .map(|&nb| nb as usize)
                .filter(|&nb| !no_respill[nb] && !chosen[nb])
                .min_by(|&a, &b| {
                    let ca = cost(a) / (graph.degree(a).max(1) as f64);
                    let cb = cost(b) / (graph.degree(b).max(1) as f64);
                    ca.partial_cmp(&cb).unwrap().then(a.cmp(&b))
                });
            if let Some(a) = alt {
                chosen[a] = true;
                final_spill.push(Value::new(a));
            }
        }
        if final_spill.is_empty() {
            // Nothing spillable remains around the failing points: the
            // graph is identical next round, so retrying cannot help.
            return Err(AllocError::DidNotConverge);
        }

        // ---- spill rewrite ----
        final_spill.sort();
        let first_slot = slot_base + spill_slots as u32;
        for (j, &v) in final_spill.iter().enumerate() {
            spilled_all.push(v);
            slot_of.insert(v, first_slot + j as u32);
            no_respill[v.index()] = true;
        }
        spill_slots += final_spill.len();
        rewrite_residual(func, &final_spill, first_slot);
        // Every value the rewrite minted is a reload temporary.
        no_respill.resize(func.num_values(), true);
        live.spill_rewritten(&cfg, func.num_values(), &final_spill, &[]);
    }
    Err(AllocError::DidNotConverge)
}

/// One colour round's interference graph over value indices, as
/// deduplicated compressed rows: `v`'s neighbours are
/// `adj[start[v]..start[v + 1]]`, in no particular order. It has exactly
/// the edges of [`InterferenceGraph::build`](crate::InterferenceGraph::build)
/// with every value tracked — the same backward scan from each reachable
/// block's live-out, with Chaitin's copy rule — but stores each edge
/// twice instead of keeping an `n²/2`-bit matrix to deduplicate.
#[doc(hidden)]
pub struct Graph {
    start: Vec<u32>,
    adj: Vec<u32>,
}

impl Graph {
    fn build(func: &Function, cfg: &ControlFlowGraph, live: &Liveness) -> Graph {
        const NONE: u32 = u32::MAX;
        let n = func.num_values();
        // Every (def, live) pair the scan meets, duplicates included.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        // The scan's live set, sparse: its members in any order, and each
        // member's position among them, so a definition visits only what
        // is live.
        let mut members: Vec<u32> = Vec::new();
        let mut at: Vec<u32> = vec![NONE; n];
        let insert = |members: &mut Vec<u32>, at: &mut [u32], v: usize| {
            if at[v] == NONE {
                at[v] = members.len() as u32;
                members.push(v as u32);
            }
        };
        let remove = |members: &mut Vec<u32>, at: &mut [u32], v: usize| {
            let p = std::mem::replace(&mut at[v], NONE);
            if p != NONE {
                let last = members.pop().expect("a member");
                if last as usize != v {
                    members[p as usize] = last;
                    at[last as usize] = p;
                }
            }
        };
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for v in members.drain(..) {
                at[v as usize] = NONE;
            }
            for &v in live.live_out(b) {
                insert(&mut members, &mut at, v as usize);
            }
            for &inst in func.block_insts(b).iter().rev() {
                let data = func.inst(inst);
                if let InstKind::Copy { src } = data.kind {
                    remove(&mut members, &mut at, src.index());
                }
                if let Some(d) = data.dst {
                    let d = d.index() as u32;
                    pairs.extend(members.iter().filter(|&&z| z != d).map(|&z| (d, z)));
                    remove(&mut members, &mut at, d as usize);
                }
                data.kind
                    .for_each_use(|u| insert(&mut members, &mut at, u.index()));
            }
        }

        // Bucket both directions of every pair by row, then drop repeats
        // within each row while compacting. `start[v]` first counts row
        // `v`, then marks its end, and after the fill its beginning.
        let mut start = vec![0u32; n + 1];
        for &(a, b) in &pairs {
            start[a as usize] += 1;
            start[b as usize] += 1;
        }
        let mut end = 0u32;
        for s in &mut start {
            end += *s;
            *s = end;
        }
        let mut adj = vec![0u32; end as usize];
        for (a, b) in pairs {
            for (row, z) in [(a, b), (b, a)] {
                start[row as usize] -= 1;
                adj[start[row as usize] as usize] = z;
            }
        }
        let mut seen_in = vec![NONE; n];
        let mut out = 0u32;
        for v in 0..n {
            let row = start[v] as usize..start[v + 1] as usize;
            start[v] = out;
            for i in row {
                let z = adj[i];
                if seen_in[z as usize] != v as u32 {
                    seen_in[z as usize] = v as u32;
                    adj[out as usize] = z;
                    out += 1;
                }
            }
        }
        start[n] = out;
        adj.truncate(out as usize);
        Graph { start, adj }
    }

    /// The neighbours of value index `v`.
    pub fn row(&self, v: usize) -> &[u32] {
        &self.adj[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The number of neighbours of value index `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.start[v + 1] - self.start[v]) as usize
    }
}

/// An instruction that names a residual victim, at `pos` in `block`.
#[derive(Clone, Copy)]
struct Site {
    block: Block,
    pos: usize,
    inst: Inst,
    uses: bool,
    defines: bool,
}

/// Rewrite each of `victims` (ascending) through its own slot, numbered
/// from `first_slot`: a `spill` after every definition (post-destruction
/// code can define a value more than once) and a `reload` into a fresh
/// temporary before every instruction that uses it.
///
/// One sweep indexes every victim's sites; each victim then rewrites
/// only its own, in program order, so values, instruction ids, slots and
/// positions are those of rewriting one victim at a time with a scan of
/// the whole function each. New instructions are linked by
/// [`link_placed`].
fn rewrite_residual(func: &mut Function, victims: &[Value], first_slot: u32) {
    const NONE: u32 = u32::MAX;
    let mut victim_of = vec![NONE; func.num_values()];
    for (j, &v) in victims.iter().enumerate() {
        victim_of[v.index()] = j as u32;
    }
    let victim = |v: Value| match victim_of[v.index()] {
        NONE => None,
        j => Some(j as usize),
    };

    // Per victim, its sites in program order. An instruction is one site
    // however often it names the victim.
    let mut sites: Vec<Vec<Site>> = vec![Vec::new(); victims.len()];
    for b in func.blocks() {
        for (pos, &i) in func.block_insts(b).iter().enumerate() {
            let data = func.inst(i);
            let site = Site {
                block: b,
                pos,
                inst: i,
                uses: false,
                defines: false,
            };
            data.kind.for_each_use(|u| {
                if let Some(j) = victim(u) {
                    if sites[j].last().is_none_or(|s| s.inst != i) {
                        sites[j].push(Site { uses: true, ..site });
                    }
                }
            });
            if let Some(j) = data.dst.and_then(victim) {
                match sites[j].last_mut() {
                    Some(s) if s.inst == i => s.defines = true,
                    _ => sites[j].push(Site {
                        defines: true,
                        ..site
                    }),
                }
            }
        }
    }

    let mut placed: Vec<Placed> = Vec::new();
    for (j, &v) in victims.iter().enumerate() {
        let slot = first_slot + j as u32;
        for &Site {
            block: b,
            pos,
            inst: i,
            uses,
            defines,
        } in &sites[j]
        {
            if uses {
                let t = func.new_value();
                let reload = func.create_inst(InstKind::Reload { slot }, Some(t));
                placed.push((b, pos, true, reload));
                func.inst_mut(i).kind.for_each_use_mut(|u| {
                    if *u == v {
                        *u = t;
                    }
                });
            }
            if defines {
                let spill = func.create_inst(InstKind::Spill { slot, val: v }, None);
                placed.push((b, pos + 1, false, spill));
            }
        }
    }
    link_placed(func, placed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_interp::{run_with, RunConfig};
    use fcc_ir::parse::parse_function;
    use fcc_pressure::audit_allocation;

    /// `alloc` of `f` is feasible for `k` registers.
    fn assert_certified(f: &Function, alloc: &Allocation, k: usize) {
        let diags = audit_allocation(f, &alloc.coloring, k as u32, f.spill_slot_count());
        assert!(diags.is_empty(), "k={k}: {diags:?}");
    }

    fn alloc_config() -> RunConfig {
        RunConfig {
            memory_words: (1 << 20) + 64,
            fuel: 10_000_000,
        }
    }

    const PRESSURE: &str = "
        function @pressure(1) {
        b0:
            v0 = param 0
            v1 = add v0, v0
            v2 = add v1, v0
            v3 = add v2, v1
            v4 = add v3, v2
            v5 = add v4, v3
            v6 = add v5, v4
            v7 = add v1, v2
            v8 = add v3, v4
            v9 = add v5, v6
            v10 = add v7, v8
            v11 = add v10, v9
            v12 = add v11, v1
            return v12
        }";

    #[test]
    fn colors_without_spills_when_k_large() {
        let mut f = parse_function(PRESSURE).unwrap();
        let alloc = allocate(&mut f, &AllocOptions { registers: 16 }).unwrap();
        assert!(alloc.spilled.is_empty());
        assert_eq!(alloc.rounds, 1);
        assert_certified(&f, &alloc, 16);
    }

    #[test]
    fn spills_under_pressure_and_stays_correct() {
        let mut f = parse_function(PRESSURE).unwrap();
        let reference = run_with(&f, &[3], &alloc_config()).unwrap();
        let alloc = allocate(&mut f, &AllocOptions { registers: 3 }).unwrap();
        assert!(!alloc.spilled.is_empty(), "k=3 must force spills");
        assert_certified(&f, &alloc, 3);
        let out = run_with(&f, &[3], &alloc_config()).unwrap();
        assert_eq!(
            reference.ret, out.ret,
            "spill code preserves semantics:\n{f}"
        );
    }

    #[test]
    fn loop_program_allocates() {
        let src = "
            function @loopy(1) {
            b0:
                v0 = param 0
                v1 = const 0
                v2 = const 0
                jump b1
            b1:
                v3 = lt v2, v0
                branch v3, b2, b3
            b2:
                v1 = add v1, v2
                v4 = const 1
                v2 = add v2, v4
                jump b1
            b3:
                return v1
            }";
        let f = parse_function(src).unwrap();
        let reference = run_with(&f, &[10], &alloc_config()).unwrap();
        for k in [2usize, 3, 8] {
            let mut g = f.clone();
            let alloc = allocate(&mut g, &AllocOptions { registers: k })
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_certified(&g, &alloc, k);
            let out = run_with(&g, &[10], &alloc_config()).unwrap();
            assert_eq!(reference.ret, out.ret, "k={k}");
        }
    }

    #[test]
    fn too_few_registers_is_a_clean_error() {
        let mut f = parse_function(PRESSURE).unwrap();
        for k in [0usize, 1] {
            let e = allocate(&mut f, &AllocOptions { registers: k }).unwrap_err();
            assert_eq!(e, AllocError::TooFewRegisters, "k={k}");
        }
    }

    #[test]
    fn coloring_uses_at_most_k_colors() {
        let mut f = parse_function(PRESSURE).unwrap();
        let k = 4;
        let alloc = allocate(&mut f, &AllocOptions { registers: k }).unwrap();
        let max = alloc.coloring.values().max().copied().unwrap_or(0);
        assert!((max as usize) < k);
    }
}
