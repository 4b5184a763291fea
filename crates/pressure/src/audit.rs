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
//!
//! The audit is linear in the function plus its copy pairs. The
//! colouring is indexed by value once; at each point the first value
//! seen in each register sits in a k-wide row stamped with the point
//! (registers at or above k, or above the function's value count, go in
//! a short list), and `CopyEquality` keeps its sets in flat word arrays.
//! The CFG and liveness are the auditor's own, computed from the text:
//! nothing is shared with the allocator under audit.

use std::collections::{HashMap, HashSet};

use fcc_analysis::liveness::Liveness;
use fcc_analysis::pressure::{for_each_point, Point};
use fcc_analysis::{BitSet, UnionFind};
use fcc_ir::{ControlFlowGraph, Diagnostic, Function, Inst, InstKind, Value};

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
    let n = func.num_values();

    // The colouring by value index. Keys for values the function does
    // not have are never live, so never consulted.
    let mut reg: Vec<Option<u32>> = vec![None; n];
    for (&v, &c) in coloring {
        if let Some(r) = reg.get_mut(v.index()) {
            *r = Some(c);
        }
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut over_block = vec![false; func.num_blocks()];
    let mut clashes: HashSet<(usize, usize)> = HashSet::new();
    // A value is either uncoloured or has one register, so one flag per
    // value dedups both the uncoloured and the range rule.
    let mut reported = vec![false; n];
    // The first value seen in each register at the current point:
    // `first[r] = (point, value)` counts only while `point` is current.
    // The row is at most as wide as the function has values, so a huge k
    // costs nothing; registers beyond it (out of range, or unusually
    // high) go in `high`, emptied at every point.
    let width = (k as usize).min(n);
    let mut first: Vec<(usize, usize)> = vec![(0, 0); width];
    let mut high: Vec<(u32, usize)> = Vec::new();
    let mut point_no = 0usize;

    for_each_point(func, &cfg, &live, |point, set, count| {
        point_no += 1;
        high.clear();
        let b = point.block();
        let count = count as u32;
        // The class count costs a pass over the point's copy pairs, so
        // only points over k by raw count pay for it.
        if count > k && !over_block[b.index()] {
            let regs = equal.classes(func, point, set);
            if regs > k {
                over_block[b.index()] = true;
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
        for vi in set.iter() {
            let v = Value::new(vi);
            let Some(c) = reg[vi] else {
                if !reported[vi] {
                    reported[vi] = true;
                    diags.push(
                        Diagnostic::error(
                            RULE_ALLOC_UNCOLORED,
                            format!("{v} is live but has no register"),
                        )
                        .in_block(b)
                        .on_value(v),
                    );
                }
                continue;
            };
            if c >= k && !reported[vi] {
                reported[vi] = true;
                diags.push(
                    Diagnostic::error(
                        RULE_ALLOC_RANGE,
                        format!("{v} assigned r{c}, outside the {k}-register target"),
                    )
                    .in_block(b)
                    .on_value(v),
                );
            }
            let holder = if (c as usize) < width {
                match first[c as usize] {
                    (p, other) if p == point_no => Some(other),
                    _ => {
                        first[c as usize] = (point_no, vi);
                        None
                    }
                }
            } else {
                match high.iter().find(|&&(r, _)| r == c) {
                    Some(&(_, other)) => Some(other),
                    None => {
                        high.push((c, vi));
                        None
                    }
                }
            };
            let Some(other) = holder else {
                continue;
            };
            if equal.equal_at(func, point, other, vi) {
                continue;
            }
            let key = (other.min(vi), other.max(vi));
            if clashes.insert(key) {
                let other = Value::new(other);
                diags.push(
                    Diagnostic::error(
                        RULE_ALLOC_CLASH,
                        format!("{other} and {v} are both live here but share r{c}"),
                    )
                    .in_block(b)
                    .on_value(v),
                );
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
///
/// Each distinct pair is one bit; every set is `words` words in a flat
/// array indexed by instruction or block.
struct CopyEquality {
    /// The two values of each pair, by bit index.
    pairs: Vec<(usize, usize)>,
    /// The pair each instruction's copy makes available, by instruction
    /// index (`NO_PAIR` for anything but a non-self copy in reachable
    /// code).
    gen: Vec<u32>,
    /// The pairs naming each value — its kill row — are
    /// `kills[kill_start[v]..kill_start[v + 1]]`.
    kill_start: Vec<u32>,
    kills: Vec<u32>,
    /// Set width in 64-bit words (`0` means "no copies anywhere").
    words: usize,
    /// Available pairs immediately before each instruction executes.
    before: Vec<u64>,
    /// Available pairs at each block's exit (after the terminator).
    out: Vec<u64>,
    /// Available pairs just after each block's φ-destinations are
    /// written (φs only kill — a φ is not a copy).
    after_phis: Vec<u64>,
}

const NO_PAIR: u32 = u32::MAX;

impl CopyEquality {
    fn compute(func: &Function, cfg: &ControlFlowGraph) -> CopyEquality {
        // Every non-self copy in reachable code, as (low, high, inst).
        let mut copies: Vec<(usize, usize, Inst)> = Vec::new();
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                if let (InstKind::Copy { src }, Some(d)) = (&data.kind, data.dst) {
                    if d != *src {
                        let (d, s) = (d.index(), src.index());
                        copies.push((d.min(s), d.max(s), i));
                    }
                }
            }
        }
        copies.sort_unstable_by_key(|&(lo, hi, _)| (lo, hi));
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut gen = vec![NO_PAIR; func.num_insts()];
        for &(lo, hi, i) in &copies {
            if pairs.last() != Some(&(lo, hi)) {
                pairs.push((lo, hi));
            }
            gen[i.index()] = (pairs.len() - 1) as u32;
        }
        let n = func.num_values();
        let mut kill_start = vec![0u32; n + 1];
        for &(lo, hi) in &pairs {
            kill_start[lo + 1] += 1;
            kill_start[hi + 1] += 1;
        }
        for v in 0..n {
            kill_start[v + 1] += kill_start[v];
        }
        let mut fill = kill_start.clone();
        let mut kills = vec![0u32; 2 * pairs.len()];
        for (pi, &(lo, hi)) in pairs.iter().enumerate() {
            for v in [lo, hi] {
                kills[fill[v] as usize] = pi as u32;
                fill[v] += 1;
            }
        }

        let words = pairs.len().div_ceil(64);
        let nb = func.num_blocks();
        let mut this = CopyEquality {
            pairs,
            gen,
            kill_start,
            kills,
            words,
            before: vec![0; func.num_insts() * words],
            out: vec![0; nb * words],
            after_phis: vec![0; nb * words],
        };
        if words == 0 {
            return this;
        }

        // Each block's transfer as one kill and one gen set: a pair
        // survives the block unless some definition kills it, and leaves
        // it available if its copy runs after the last such kill — which
        // is what the block's steps make of the empty set.
        let mut kill_b = vec![0u64; nb * words];
        let mut gen_b = vec![0u64; nb * words];
        for b in func.blocks().filter(|&b| cfg.is_reachable(b)) {
            let at = b.index() * words;
            for &i in func.block_insts(b) {
                this.step(&mut gen_b[at..at + words], func, i);
                if let Some(d) = func.inst(i).dst {
                    for &pi in this.kill_row(d.index()) {
                        kill_b[at + pi as usize / 64] |= 1u64 << (pi % 64);
                    }
                }
            }
        }

        // Fixpoint on block-entry sets: entry starts empty, everything
        // else starts full, meet is intersection.
        let mut in_sets = vec![u64::MAX; nb * words];
        let entry = func.entry().index();
        in_sets[entry * words..(entry + 1) * words].fill(0);
        let mut avail = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in func.blocks().filter(|&b| cfg.is_reachable(b)) {
                let at = b.index() * words;
                for (w, a) in avail.iter_mut().enumerate() {
                    *a = in_sets[at + w] & !kill_b[at + w] | gen_b[at + w];
                }
                for &s in cfg.succs(b) {
                    let si = s.index();
                    for (slot, &w) in in_sets[si * words..(si + 1) * words].iter_mut().zip(&avail) {
                        let next = *slot & w;
                        if next != *slot {
                            *slot = next;
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
            let bi = b.index();
            avail.copy_from_slice(&in_sets[bi * words..(bi + 1) * words]);
            let mut in_phis = true;
            for &i in func.block_insts(b) {
                if in_phis && !func.inst(i).kind.is_phi() {
                    this.after_phis[bi * words..(bi + 1) * words].copy_from_slice(&avail);
                    in_phis = false;
                }
                let ii = i.index();
                this.before[ii * words..(ii + 1) * words].copy_from_slice(&avail);
                this.step(&mut avail, func, i);
            }
            if in_phis {
                this.after_phis[bi * words..(bi + 1) * words].copy_from_slice(&avail);
            }
            this.out[bi * words..(bi + 1) * words].copy_from_slice(&avail);
        }
        this
    }

    /// The pairs naming value index `v`.
    fn kill_row(&self, v: usize) -> &[u32] {
        &self.kills[self.kill_start[v] as usize..self.kill_start[v + 1] as usize]
    }

    /// Apply one instruction: a definition kills every pair naming its
    /// destination; a copy then makes its own pair available.
    fn step(&self, set: &mut [u64], func: &Function, i: Inst) {
        if let Some(d) = func.inst(i).dst {
            for &pi in self.kill_row(d.index()) {
                set[pi as usize / 64] &= !(1u64 << (pi % 64));
            }
            let pi = self.gen[i.index()];
            if pi != NO_PAIR {
                set[pi as usize / 64] |= 1u64 << (pi % 64);
            }
        }
    }

    /// Whether pair `pi` is available at `point`.
    fn holds(&self, func: &Function, point: Point, pi: u32) -> bool {
        let w = self.words;
        let pi = pi as usize;
        let has = |sets: &[u64], at: usize| sets[at * w + pi / 64] >> (pi % 64) & 1 == 1;
        match point {
            Point::Exit(b) => has(&self.out, b.index()),
            Point::Before(_, i) => has(&self.before, i.index()),
            Point::DeadDef(_, i) => {
                // The point sits just *after* `i` executes: `i`'s own
                // copy holds, and any other pair naming its destination
                // is dead.
                if self.gen[i.index()] as usize == pi {
                    return true;
                }
                let (lo, hi) = self.pairs[pi];
                let d = func.inst(i).dst.map(Value::index);
                d != Some(lo) && d != Some(hi) && has(&self.before, i.index())
            }
            Point::PhiDefs(b) => has(&self.after_phis, b.index()),
        }
    }

    /// How many registers the values live at `point` need: one per class
    /// of values provably equal there.
    fn classes(&self, func: &Function, point: Point, set: &BitSet) -> u32 {
        let live: Vec<usize> = set.iter().collect();
        let mut uf = UnionFind::new(live.len());
        let mut classes = live.len() as u32;
        for (j, &a) in live.iter().enumerate() {
            for &pi in self.kill_row(a) {
                let (lo, hi) = self.pairs[pi as usize];
                let b = if lo == a { hi } else { lo };
                if b < a || !self.holds(func, point, pi) {
                    continue;
                }
                if let Ok(jb) = live.binary_search(&b) {
                    if uf.find(j) != uf.find(jb) {
                        uf.union(j, jb);
                        classes -= 1;
                    }
                }
            }
        }
        classes
    }

    /// Whether values `a == b` provably holds at `point`.
    fn equal_at(&self, func: &Function, point: Point, a: usize, b: usize) -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        self.kill_row(a)
            .iter()
            .find(|&&pi| self.pairs[pi as usize] == (lo, hi))
            .is_some_and(|&pi| self.holds(func, point, pi))
    }
}

/// The slot rules: index validity, one-slot-one-value, and forward
/// must-initialisation. Text-only — no allocator metadata survives SSA
/// destruction's renaming, so nothing here trusts any.
fn audit_slots(func: &Function, cfg: &ControlFlowGraph, slots: u32, diags: &mut Vec<Diagnostic>) {
    // The analysis universe covers every slot actually named, out-of-range
    // ones included, so the other rules still run on corrupt input. A
    // claimed budget beyond that names no slot the analysis could see.
    let universe = func.spill_slot_count() as usize;

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
    // to each block? Meet is intersection; the entry starts empty. Sets
    // are `words` words, flat by block index.
    let words = universe.div_ceil(64);
    let nb = func.num_blocks();
    let mut in_sets = vec![u64::MAX; nb * words];
    let entry = func.entry().index();
    in_sets[entry * words..(entry + 1) * words].fill(0);
    let mut block_gen = vec![0u64; nb * words];
    for b in func.blocks().filter(|&b| cfg.is_reachable(b)) {
        for &i in func.block_insts(b) {
            if let InstKind::Spill { slot, .. } = func.inst(i).kind {
                block_gen[b.index() * words + slot as usize / 64] |= 1u64 << (slot % 64);
            }
        }
    }

    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in func.blocks().filter(|&b| cfg.is_reachable(b)) {
            let at = b.index() * words;
            for (w, o) in out.iter_mut().enumerate() {
                *o = in_sets[at + w] | block_gen[at + w];
            }
            for &s in cfg.succs(b) {
                let si = s.index();
                for (slot, &w) in in_sets[si * words..(si + 1) * words].iter_mut().zip(&out) {
                    let next = *slot & w;
                    if next != *slot {
                        *slot = next;
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
        let at = b.index() * words;
        let ready = &mut in_sets[at..at + words];
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

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;

    #[test]
    fn a_dead_redefinition_ends_a_copy_equality() {
        // `v1 = copy v0` lets v0 and v1 share r0 while both are live. The
        // dead `v1 = const 7` then writes r0 while v0 is still live: at
        // that point the pair no longer holds, so the sharing clashes.
        let f = parse_function(
            "function @d(1) {
             b0:
                 v0 = param 0
                 v1 = copy v0
                 v2 = add v0, v1
                 v1 = const 7
                 v3 = add v0, v2
                 return v3
             }",
        )
        .unwrap();
        let coloring: HashMap<Value, u32> = [(0, 0), (1, 0), (2, 1), (3, 0)]
            .into_iter()
            .map(|(v, c)| (Value::new(v), c))
            .collect();
        let diags = audit_allocation(&f, &coloring, 3, 0);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_ALLOC_CLASH);
        assert_eq!(
            diags[0].message,
            "v0 and v1 are both live here but share r0"
        );
    }
}
