//! Allocation feasibility auditor.
//!
//! In the spirit of `fcc_lint::audit_destruction`: given an allocator's
//! coloring and a register target `k`, recompute liveness from scratch
//! (the φ-aware dataflow flavour, so post-destruction non-SSA code is
//! fine) and re-derive, from the program text alone, that the allocation
//! is feasible — no trust in the allocator's own interference graph,
//! worklists, or bookkeeping:
//!
//! * [`RULE_ALLOC_PRESSURE`]: no program point may need more than `k`
//!   registers (pressure itself proves infeasibility for `k`). A point
//!   needs one register per class of live values [`CopyEquality`]
//!   proves equal — the copy rule below, applied to counting — which
//!   is its raw live count whenever no copy pair is available there;
//! * [`RULE_ALLOC_CLASH`]: no two values live at the same point may
//!   share a register — the per-point form of "no interfering values
//!   share a color", which covers def-vs-live-after because a
//!   definition's destination is in the point's set (dead definitions
//!   via their dedicated point). One exemption keeps the rule in step
//!   with Chaitin's copy rule: after `d = copy s`, `d` and `s` hold the
//!   same value until either is redefined, so sharing a register there
//!   is harmless. The auditor re-derives that equality from the text
//!   with its own forward available-copies must-analysis
//!   ([`CopyEquality`]) rather than trusting the allocator's graph;
//! * [`RULE_ALLOC_UNCOLORED`]: every value live anywhere must have a
//!   register;
//! * [`RULE_ALLOC_RANGE`]: every assigned register must be `< k`.
//!
//! Spill slots are audited by the same from-the-text-alone standard.
//! The spill discipline in this workspace dedicates each slot to exactly
//! one value (the slot analogue of SSA), which makes the contract
//! checkable without trusting any allocator bookkeeping:
//!
//! * [`RULE_ALLOC_SLOT_RANGE`]: every slot index named by a `spill` or
//!   `reload` must be below the allocator's claimed slot count;
//! * [`RULE_ALLOC_SLOT_CLASH`]: no two `spill`s may write different
//!   values to the same slot — the slot form of "no two live values
//!   share a location" (a second value's spill would clobber the first
//!   while its reloads still want it);
//! * [`RULE_ALLOC_SLOT_UNINIT`]: every `reload` of a slot must be
//!   reached by a `spill` of that slot on **every** path from entry
//!   (forward must-analysis), otherwise some execution reads a value
//!   that was never saved.
//!
//! Each violation is reported once (deduplicated by value, pair, or
//! slot), in deterministic program order.

use std::collections::{HashMap, HashSet};

use fcc_analysis::liveness::Liveness;
use fcc_analysis::pressure::{for_each_point, Point};
use fcc_analysis::UnionFind;
use fcc_ir::{ControlFlowGraph, Diagnostic, Function, InstKind, Value};

/// A program point needs more than `k` registers: more than `k` live
/// values, counting values proven equal by a copy once.
pub const RULE_ALLOC_PRESSURE: &str = "alloc-pressure-exceeds-k";
/// Two values live at the same point share a register.
pub const RULE_ALLOC_CLASH: &str = "alloc-register-clash";
/// A live value has no register assigned.
pub const RULE_ALLOC_UNCOLORED: &str = "alloc-uncolored-value";
/// An assigned register is outside `0..k`.
pub const RULE_ALLOC_RANGE: &str = "alloc-register-range";
/// A `spill`/`reload` names a slot outside the claimed slot count.
pub const RULE_ALLOC_SLOT_RANGE: &str = "alloc-slot-range";
/// Two different values are spilled to the same slot.
pub const RULE_ALLOC_SLOT_CLASH: &str = "alloc-slot-clash";
/// A `reload` can execute before any `spill` of its slot.
pub const RULE_ALLOC_SLOT_UNINIT: &str = "alloc-slot-uninit";

/// Audit `coloring` against target `k`, and the program's spill code
/// against the claimed slot budget `slots` (pass
/// [`Function::spill_slot_count`] for an honest program, or the
/// allocator's claimed total). Returns an empty vector iff the
/// allocation is feasible: every point fits in `k` registers, no two
/// co-live values share one, and spill slots obey the one-slot-one-value
/// discipline.
pub fn audit_allocation(
    func: &Function,
    coloring: &HashMap<Value, u32>,
    k: u32,
    slots: u32,
) -> Vec<Diagnostic> {
    let cfg = ControlFlowGraph::compute(func);
    let live = Liveness::compute(func, &cfg);
    let equal = CopyEquality::compute(func, &cfg);

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut over_blocks: HashSet<usize> = HashSet::new();
    let mut clashes: HashSet<(usize, usize)> = HashSet::new();
    let mut uncolored: HashSet<usize> = HashSet::new();
    let mut out_of_range: HashSet<usize> = HashSet::new();
    let mut by_color: HashMap<u32, Value> = HashMap::new();

    for_each_point(func, &cfg, &live, |point, set, count| {
        let b = point.block();
        let count = count as u32;
        // The class count costs a pairwise pass, so only points over k
        // by raw count pay for it.
        if count > k && !over_blocks.contains(&b.index()) {
            let live: Vec<Value> = set.iter().map(Value::new).collect();
            let regs = equal.classes(func, point, &live);
            if regs > k {
                over_blocks.insert(b.index());
                let mut d = Diagnostic::error(
                    RULE_ALLOC_PRESSURE,
                    format!(
                        "{count} values live at one point need {regs} registers \
                         but only {k} exist"
                    ),
                )
                .in_block(b);
                if let Point::Before(_, i) | Point::DeadDef(_, i) = point {
                    d = d.at_inst(i);
                }
                diags.push(d);
            }
        }
        by_color.clear();
        for vi in set.iter() {
            let v = Value::new(vi);
            match coloring.get(&v) {
                None => {
                    if uncolored.insert(vi) {
                        diags.push(
                            Diagnostic::error(
                                RULE_ALLOC_UNCOLORED,
                                format!("{v} is live but has no register"),
                            )
                            .in_block(b)
                            .on_value(v),
                        );
                    }
                }
                Some(&c) => {
                    if c >= k && out_of_range.insert(vi) {
                        diags.push(
                            Diagnostic::error(
                                RULE_ALLOC_RANGE,
                                format!("{v} assigned r{c}, outside the {k}-register target"),
                            )
                            .in_block(b)
                            .on_value(v),
                        );
                    }
                    if let Some(&other) = by_color.get(&c) {
                        if equal.equal_at(func, point, other, v) {
                            continue;
                        }
                        let key = (other.index().min(vi), other.index().max(vi));
                        if clashes.insert(key) {
                            diags.push(
                                Diagnostic::error(
                                    RULE_ALLOC_CLASH,
                                    format!("{other} and {v} are both live here but share r{c}"),
                                )
                                .in_block(b)
                                .on_value(v),
                            );
                        }
                    } else {
                        by_color.insert(c, v);
                    }
                }
            }
        }
    });
    audit_slots(func, &cfg, slots, &mut diags);
    diags
}

/// Forward available-copies must-analysis: at which program points does
/// `d == s` provably hold for a copy `d = copy s`?
///
/// A pair becomes available right after its copy executes and dies when
/// either side is redefined; the meet over join points is intersection
/// (the equality must hold on *every* incoming path). This is exactly
/// the condition under which Chaitin's copy rule lets an allocator give
/// the two values one register while both are live, so the clash rule
/// consults it before reporting. Pairs are tracked per syntactic copy
/// (no transitive closure) — strictly more conservative than true value
/// equality, hence still sound: every exemption granted is a genuine
/// equality.
struct CopyEquality {
    /// Normalised `(low, high)` copy pair → bit index.
    pair_idx: HashMap<(Value, Value), usize>,
    /// Bit indices of the pairs each value participates in (kill sets).
    by_value: HashMap<Value, Vec<usize>>,
    /// Bitset width in 64-bit words (`0` means "no copies anywhere").
    words: usize,
    /// Available pairs immediately before each instruction executes.
    before: Vec<Vec<u64>>,
    /// Available pairs at each block's exit (after the terminator).
    out: Vec<Vec<u64>>,
    /// Available pairs just after each block's φ-destinations are
    /// written (φs only kill — a φ is not a copy).
    after_phis: Vec<Vec<u64>>,
}

impl CopyEquality {
    fn compute(func: &Function, cfg: &ControlFlowGraph) -> CopyEquality {
        let mut pair_idx: HashMap<(Value, Value), usize> = HashMap::new();
        let mut by_value: HashMap<Value, Vec<usize>> = HashMap::new();
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                if let (InstKind::Copy { src }, Some(d)) = (&data.kind, data.dst) {
                    let src = *src;
                    if d == src {
                        continue;
                    }
                    let key = (d.min(src), d.max(src));
                    let next = pair_idx.len();
                    let idx = *pair_idx.entry(key).or_insert(next);
                    if idx == next {
                        by_value.entry(d).or_default().push(idx);
                        by_value.entry(src).or_default().push(idx);
                    }
                }
            }
        }
        let words = pair_idx.len().div_ceil(64);
        let nb = func.num_blocks();
        let mut this = CopyEquality {
            pair_idx,
            by_value,
            words,
            before: vec![Vec::new(); func.num_insts()],
            out: vec![vec![0; words]; nb],
            after_phis: vec![vec![0; words]; nb],
        };
        if words == 0 {
            return this;
        }

        // Fixpoint on block-entry sets: entry starts empty, everything
        // else starts full, meet is intersection.
        let full = vec![u64::MAX; words];
        let mut in_sets: Vec<Vec<u64>> = vec![full; nb];
        in_sets[func.entry().index()] = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in func.blocks() {
                if !cfg.is_reachable(b) {
                    continue;
                }
                let mut out = in_sets[b.index()].clone();
                for &i in func.block_insts(b) {
                    this.step(&mut out, func, i);
                }
                for s in func.successors(b) {
                    let si = s.index();
                    for w in 0..words {
                        let next = in_sets[si][w] & out[w];
                        if next != in_sets[si][w] {
                            in_sets[si][w] = next;
                            changed = true;
                        }
                    }
                }
            }
        }

        // Materialise the per-point sets the clash rule will query.
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let mut avail = in_sets[b.index()].clone();
            let mut in_phis = true;
            for &i in func.block_insts(b) {
                if in_phis && !func.inst(i).kind.is_phi() {
                    this.after_phis[b.index()] = avail.clone();
                    in_phis = false;
                }
                this.before[i.index()] = avail.clone();
                this.step(&mut avail, func, i);
            }
            if in_phis {
                this.after_phis[b.index()] = avail.clone();
            }
            this.out[b.index()] = avail;
        }
        this
    }

    /// Apply one instruction: a definition kills every pair naming its
    /// destination; a copy then makes its own pair available.
    fn step(&self, set: &mut [u64], func: &Function, i: fcc_ir::Inst) {
        let data = func.inst(i);
        if let Some(d) = data.dst {
            if let Some(killed) = self.by_value.get(&d) {
                for &pi in killed {
                    set[pi / 64] &= !(1u64 << (pi % 64));
                }
            }
            if let InstKind::Copy { src } = data.kind {
                if d != src {
                    let pi = self.pair_idx[&(d.min(src), d.max(src))];
                    set[pi / 64] |= 1u64 << (pi % 64);
                }
            }
        }
    }

    /// How many registers the values `live` need at `point`: one per
    /// class of values provably equal there.
    fn classes(&self, func: &Function, point: Point, live: &[Value]) -> u32 {
        let mut uf = UnionFind::new(live.len());
        let mut classes = live.len() as u32;
        for (i, &a) in live.iter().enumerate() {
            for (j, &b) in live.iter().enumerate().skip(i + 1) {
                if uf.find(i) != uf.find(j) && self.equal_at(func, point, a, b) {
                    uf.union(i, j);
                    classes -= 1;
                }
            }
        }
        classes
    }

    /// Whether `a == b` provably holds at `point`.
    fn equal_at(&self, func: &Function, point: Point, a: Value, b: Value) -> bool {
        if self.words == 0 {
            return false;
        }
        let Some(&pi) = self.pair_idx.get(&(a.min(b), a.max(b))) else {
            return false;
        };
        let has = |set: &[u64]| set[pi / 64] >> (pi % 64) & 1 == 1;
        match point {
            Point::Exit(b) => has(&self.out[b.index()]),
            Point::Before(_, i) => has(&self.before[i.index()]),
            Point::DeadDef(_, i) => {
                // The point sits just *after* `i` executes.
                let mut tmp = self.before[i.index()].clone();
                self.step(&mut tmp, func, i);
                has(&tmp)
            }
            Point::PhiDefs(b) => has(&self.after_phis[b.index()]),
        }
    }
}

/// The slot rules: index validity, one-slot-one-value, and forward
/// must-initialisation. Text-only — no allocator metadata survives SSA
/// destruction's renaming, so nothing here trusts any.
fn audit_slots(func: &Function, cfg: &ControlFlowGraph, slots: u32, diags: &mut Vec<Diagnostic>) {
    // The analysis universe must cover every slot actually named, even
    // out-of-range ones, so the other rules still run on corrupt input.
    let universe = slots.max(func.spill_slot_count()) as usize;

    let mut range_flagged: HashSet<u32> = HashSet::new();
    let mut clash_flagged: HashSet<u32> = HashSet::new();
    let mut uninit_flagged: HashSet<u32> = HashSet::new();
    // slot -> the one value every spill of it must carry.
    let mut slot_value: HashMap<u32, Value> = HashMap::new();

    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for &i in func.block_insts(b) {
            let (slot, spilled) = match func.inst(i).kind {
                InstKind::Spill { slot, val } => (slot, Some(val)),
                InstKind::Reload { slot } => (slot, None),
                _ => continue,
            };
            if slot >= slots && range_flagged.insert(slot) {
                diags.push(
                    Diagnostic::error(
                        RULE_ALLOC_SLOT_RANGE,
                        format!("slot {slot} is outside the claimed {slots}-slot spill area"),
                    )
                    .in_block(b)
                    .at_inst(i),
                );
            }
            if let Some(val) = spilled {
                match slot_value.get(&slot) {
                    Some(&first) if first != val => {
                        if clash_flagged.insert(slot) {
                            diags.push(
                                Diagnostic::error(
                                    RULE_ALLOC_SLOT_CLASH,
                                    format!(
                                        "slot {slot} holds both {first} and {val}: \
                                         two values share one spill slot"
                                    ),
                                )
                                .in_block(b)
                                .at_inst(i)
                                .on_value(val),
                            );
                        }
                    }
                    Some(_) => {}
                    None => {
                        slot_value.insert(slot, val);
                    }
                }
            }
        }
    }

    if universe == 0 {
        return;
    }

    // Forward must-analysis: which slots are definitely spilled on entry
    // to each block? Meet is intersection; the entry starts empty.
    let words = universe.div_ceil(64);
    let full = vec![u64::MAX; words];
    let nb = func.num_blocks();
    let mut in_sets: Vec<Vec<u64>> = vec![full.clone(); nb];
    in_sets[func.entry().index()] = vec![0u64; words];

    let block_gen: Vec<Vec<u64>> = (0..nb)
        .map(|bi| {
            let mut g = vec![0u64; words];
            let b = fcc_ir::Block::new(bi);
            if cfg.is_reachable(b) {
                for &i in func.block_insts(b) {
                    if let InstKind::Spill { slot, .. } = func.inst(i).kind {
                        g[slot as usize / 64] |= 1u64 << (slot % 64);
                    }
                }
            }
            g
        })
        .collect();

    let mut changed = true;
    while changed {
        changed = false;
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let bi = b.index();
            let mut out = in_sets[bi].clone();
            for w in 0..words {
                out[w] |= block_gen[bi][w];
            }
            for s in func.successors(b) {
                let si = s.index();
                for w in 0..words {
                    let next = in_sets[si][w] & out[w];
                    if next != in_sets[si][w] {
                        in_sets[si][w] = next;
                        changed = true;
                    }
                }
            }
        }
    }

    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut ready = in_sets[b.index()].clone();
        for &i in func.block_insts(b) {
            match func.inst(i).kind {
                InstKind::Spill { slot, .. } => {
                    ready[slot as usize / 64] |= 1u64 << (slot % 64);
                }
                InstKind::Reload { slot } => {
                    let ok = ready[slot as usize / 64] >> (slot % 64) & 1 == 1;
                    if !ok && uninit_flagged.insert(slot) {
                        diags.push(
                            Diagnostic::error(
                                RULE_ALLOC_SLOT_UNINIT,
                                format!(
                                    "reload of slot {slot} is not preceded by a spill \
                                     on every path from entry"
                                ),
                            )
                            .in_block(b)
                            .at_inst(i),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}
