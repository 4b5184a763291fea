//! # fcc-alias — sparse memory/alias analysis over strict SSA
//!
//! The paper's live-range machinery (liveness + dominance, Theorem 2.2)
//! covers registers only; this crate extends the same sparse-analysis
//! discipline to the IR's flat memory. Addresses are plain `i64` SSA
//! values, so the interval and known-bits fixpoints that
//! `fcc-dataflow` already computes *are* an address abstraction — no
//! new solver is needed to answer "can these two accesses touch the
//! same word?":
//!
//! * [`alias_verdict`] classifies any two `load`/`store` addresses as
//!   [`AliasVerdict::Must`] (provably the same word),
//!   [`AliasVerdict::Disjoint`] (provably different words), or
//!   [`AliasVerdict::May`] (no proof either way), from the interval
//!   and known-bits facts of a [`FunctionAnalysis`];
//! * [`solve_memory`] runs a per-block **memory-state lattice** —
//!   last-store-wins over must-known constant addresses, havoc on
//!   stores the abstraction cannot place — to a forward fixpoint using
//!   the same worklist discipline as the sparse conditional solver,
//!   restricted to the CFG edges that solver proved executable;
//! * [`memory_diagnostics`] derives the `mem-*` safety findings behind
//!   `fcc analyze` and the lint registry: [`RULE_MEM_OOB`],
//!   [`RULE_MEM_UNINIT`], [`RULE_MEM_DEAD_STORE`], and
//!   [`RULE_MEM_OVERLAP`].
//!
//! The three memory-aware transforms in `fcc-opt` (store-to-load
//! forwarding, redundant-load elimination, dead-store elimination) are
//! gated exclusively on these verdicts; DESIGN.md §13 carries the
//! soundness argument, which leans on the interpreter's normative
//! out-of-bounds rule (`fcc-interp` module docs): an access outside
//! `[0, words)` traps, so a dominating must-alias access proves the
//! shared address in bounds for everything it dominates.
//!
//! ## Example
//!
//! ```
//! use fcc_alias::{alias_verdict, AliasVerdict};
//! use fcc_analysis::AnalysisManager;
//! use fcc_dataflow::FunctionAnalysis;
//! use fcc_ir::parse::parse_function;
//! use fcc_ir::Value;
//!
//! // mem[x & 7] and mem[(x & 7) + 8] can never collide.
//! let f = parse_function(
//!     "function @two(1) {
//!      b0:
//!          v0 = param 0
//!          v1 = const 7
//!          v2 = and v0, v1
//!          v3 = const 8
//!          v4 = add v2, v3
//!          v5 = load v2
//!          v6 = load v4
//!          v7 = add v5, v6
//!          return v7
//!      }",
//! ).unwrap();
//! let fa = FunctionAnalysis::compute(&f, &mut AnalysisManager::new());
//! assert_eq!(
//!     alias_verdict(&fa, Value::new(2), Value::new(4)),
//!     AliasVerdict::Disjoint
//! );
//! ```

use std::collections::BTreeMap;

use fcc_dataflow::{FunctionAnalysis, Interval, Lattice};
use fcc_ir::{Block, Diagnostic, Function, InstKind, Value};

/// A `load`/`store` address provably outside the memory the program
/// runs against: every execution of the access traps (the interpreter's
/// normative out-of-bounds rule).
pub const RULE_MEM_OOB: &str = "mem-oob-access";
/// A load of a provably-constant address that no reachable store may
/// ever write: it can only observe the initial zero image, which almost
/// surely diverges from source intent.
pub const RULE_MEM_UNINIT: &str = "mem-uninit-load";
/// A store whose value is overwritten by a later must-alias store in
/// the same block before any possible read.
pub const RULE_MEM_DEAD_STORE: &str = "mem-dead-store";
/// Two adjacent stores in one block whose small, statically-bounded
/// address windows partially overlap without being provably equal —
/// the classic shape of an off-by-one or unintended index aliasing.
pub const RULE_MEM_OVERLAP: &str = "mem-overlapping-store";

/// The relation between two access addresses, judged statically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasVerdict {
    /// The addresses are provably the same word on every execution
    /// (identical SSA value, or both provably the same constant).
    Must,
    /// The addresses are provably different words on every execution
    /// (unequal constants, empty interval intersection, or a bit known
    /// to differ).
    Disjoint,
    /// No proof either way.
    May,
}

impl std::fmt::Display for AliasVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AliasVerdict::Must => "must-alias",
            AliasVerdict::Disjoint => "disjoint",
            AliasVerdict::May => "may-alias",
        })
    }
}

/// Classify the addresses `a` and `b` using the two sparse fixpoints
/// of `fa`. Sound over-approximation: `Must` and `Disjoint` are proofs,
/// `May` is the absence of one. A ⊥ fact (the definition was never
/// reached by the conditional solver) yields `Disjoint` vacuously — the
/// access cannot execute.
pub fn alias_verdict(fa: &FunctionAnalysis, a: Value, b: Value) -> AliasVerdict {
    if a == b {
        return AliasVerdict::Must;
    }
    let (ca, cb) = (fa.constant_of(a), fa.constant_of(b));
    if let (Some(x), Some(y)) = (ca, cb) {
        return if x == y {
            AliasVerdict::Must
        } else {
            AliasVerdict::Disjoint
        };
    }
    let (ra, rb) = (fa.range_of(a), fa.range_of(b));
    if ra.is_empty() || rb.is_empty() || ra.meet(&rb).is_empty() {
        return AliasVerdict::Disjoint;
    }
    let (ba, bb) = (*fa.bits.fact(a), *fa.bits.fact(b));
    if !ba.is_bottom() && !bb.is_bottom() && (ba.ones & bb.zeros) | (ba.zeros & bb.ones) != 0 {
        return AliasVerdict::Disjoint;
    }
    AliasVerdict::May
}

/// [`alias_verdict`] against a known-constant address `k` — the form
/// the memory-state lattice needs when deciding which tracked words a
/// store of address `a` can clobber.
pub fn alias_verdict_const(fa: &FunctionAnalysis, a: Value, k: i64) -> AliasVerdict {
    match fa.constant_of(a) {
        Some(x) if x == k => AliasVerdict::Must,
        Some(_) => AliasVerdict::Disjoint,
        None => {
            let r = fa.range_of(a);
            if r.is_empty() || !r.contains(k) {
                return AliasVerdict::Disjoint;
            }
            let b = *fa.bits.fact(a);
            if !b.is_bottom() && (b.ones & !(k as u64)) | (b.zeros & (k as u64)) != 0 {
                return AliasVerdict::Disjoint;
            }
            AliasVerdict::May
        }
    }
}

// ---------------------------------------------------------------------
// The per-block memory-state lattice
// ---------------------------------------------------------------------

/// Abstract memory at one program point: which constant addresses hold
/// which SSA value.
///
/// The lattice is ordered by information content: [`Unreached`] (⊥) is
/// below everything, and among reached states `m1 ≤ m2` iff `m1 ⊇ m2`
/// (more facts = lower). [`join`](MemoryState::join) at control joins
/// keeps exactly the entries both sides agree on, so a surviving entry
/// `k → v` means **every** path to the point last stored `v` to word
/// `k` — which is also the dominance argument the forwarding transform
/// needs (see DESIGN.md §13).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemoryState {
    /// ⊥ — no execution reaches this point (the conditional solver
    /// never marked an edge into it executable).
    Unreached,
    /// Reached, with `k → v` meaning `mem[k]` provably holds `v`. The
    /// empty map is ⊤: reached, nothing known.
    Known(BTreeMap<i64, Value>),
}

impl MemoryState {
    /// Least upper bound: intersection of agreeing facts.
    pub fn join(&self, other: &MemoryState) -> MemoryState {
        match (self, other) {
            (MemoryState::Unreached, s) | (s, MemoryState::Unreached) => s.clone(),
            (MemoryState::Known(a), MemoryState::Known(b)) => MemoryState::Known(
                a.iter()
                    .filter(|(k, v)| b.get(k) == Some(v))
                    .map(|(&k, &v)| (k, v))
                    .collect(),
            ),
        }
    }

    /// The tracked facts, empty when unreached.
    pub fn facts(&self) -> &BTreeMap<i64, Value> {
        static EMPTY: BTreeMap<i64, Value> = BTreeMap::new();
        match self {
            MemoryState::Unreached => &EMPTY,
            MemoryState::Known(m) => m,
        }
    }

    /// Abstract semantics of `store addr, val`: last-store-wins on a
    /// provably-constant address; otherwise havoc every tracked word
    /// the store cannot be proven disjoint from.
    pub fn apply_store(&mut self, fa: &FunctionAnalysis, addr: Value, val: Value) {
        let m = match self {
            MemoryState::Unreached => {
                *self = MemoryState::Known(BTreeMap::new());
                let MemoryState::Known(m) = self else {
                    unreachable!()
                };
                m
            }
            MemoryState::Known(m) => m,
        };
        match fa.constant_of(addr) {
            Some(k) => {
                // Every other tracked key is a different constant, so
                // the store touches exactly word k.
                m.insert(k, val);
            }
            None => {
                m.retain(|&k, _| alias_verdict_const(fa, addr, k) == AliasVerdict::Disjoint);
            }
        }
    }
}

/// The block-entry memory states of one function.
pub struct MemorySolution {
    entry: Vec<MemoryState>,
}

impl MemorySolution {
    /// The abstract memory on entry to `b` (⊥ for unreachable blocks).
    pub fn entry(&self, b: Block) -> &MemoryState {
        &self.entry[b.index()]
    }
}

/// Solve the memory-state lattice to a forward fixpoint over the
/// executable region of `func`.
///
/// The propagation discipline is the sparse conditional solver's,
/// lifted from def–use edges to block edges: start from the entry only,
/// follow exactly the CFG edges `fa` proved executable, and re-enqueue
/// a successor when its entry state drops in the lattice. Joins shrink
/// fact maps monotonically, so the walk terminates.
pub fn solve_memory(func: &Function, fa: &FunctionAnalysis) -> MemorySolution {
    let mut entry = vec![MemoryState::Unreached; func.num_blocks()];
    let e = func.entry();
    entry[e.index()] = MemoryState::Known(BTreeMap::new());
    let mut work = vec![e];
    while let Some(b) = work.pop() {
        let mut state = entry[b.index()].clone();
        for &i in func.block_insts(b) {
            if let InstKind::Store { addr, val } = &func.inst(i).kind {
                state.apply_store(fa, *addr, *val);
            }
        }
        for s in func.successors(b) {
            if !fa.edge_live(b, s) {
                continue;
            }
            let joined = entry[s.index()].join(&state);
            if joined != entry[s.index()] {
                entry[s.index()] = joined;
                work.push(s);
            }
        }
    }
    MemorySolution { entry }
}

// ---------------------------------------------------------------------
// The mem-* safety checkers
// ---------------------------------------------------------------------

/// Maximum window width (in words) for the overlapping-store heuristic:
/// wider windows are loop-carried array sweeps, where partial overlap
/// is the norm rather than a smell.
const OVERLAP_WINDOW: i64 = 64;

/// The statically-provable memory findings for `func`, all
/// warning-severity (like the `range-*` family: the flagged code runs —
/// or traps — fine under the IR semantics, but almost surely diverges
/// from source intent).
///
/// `memory_words` bounds the flat memory when the caller knows it (the
/// kernel registry and `fcc analyze --memory-words` do); without it the
/// out-of-bounds check still fires on provably-negative addresses,
/// which trap at every memory size.
pub fn memory_diagnostics(
    func: &Function,
    fa: &FunctionAnalysis,
    memory_words: Option<i64>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Every store address in live code, for the uninit-load check.
    let mut store_addrs: Vec<Value> = Vec::new();
    for b in func.blocks() {
        if !fa.block_live(b) {
            continue;
        }
        for &i in func.block_insts(b) {
            if let InstKind::Store { addr, .. } = &func.inst(i).kind {
                store_addrs.push(*addr);
            }
        }
    }

    for b in func.blocks() {
        if !fa.block_live(b) {
            continue;
        }
        let insts = func.block_insts(b);
        for (pos, &i) in insts.iter().enumerate() {
            let (addr, is_store) = match &func.inst(i).kind {
                InstKind::Load { addr } => (*addr, false),
                InstKind::Store { addr, .. } => (*addr, true),
                _ => continue,
            };

            // mem-oob-access: mirrors the interpreter's trap rule
            // `a < 0 || a >= words` on its statically-provable side.
            let r = fa.range_of(addr);
            if !r.is_empty() && (r.hi < 0 || memory_words.is_some_and(|w| r.lo >= w)) {
                let what = if is_store { "store to" } else { "load of" };
                let bound = match memory_words {
                    Some(w) => format!("[0, {w})"),
                    None => "[0, words)".to_string(),
                };
                out.push(
                    Diagnostic::warning(
                        RULE_MEM_OOB,
                        format!(
                            "{what} mem[{addr}] with {addr} ∈ {r} provably outside \
                             {bound}: every execution of this access traps",
                        ),
                    )
                    .in_block(b)
                    .at_inst(i)
                    .on_value(addr),
                );
            }

            if is_store {
                // mem-dead-store: a later must-alias store in this
                // block overwrites the value before any possible read.
                // Intervening stores (of any verdict) cannot read, so
                // only a may-aliasing load keeps the value observable.
                for &j in &insts[pos + 1..] {
                    match &func.inst(j).kind {
                        InstKind::Load { addr: a2 }
                            if alias_verdict(fa, addr, *a2) != AliasVerdict::Disjoint =>
                        {
                            break;
                        }
                        InstKind::Store { addr: a2, .. }
                            if alias_verdict(fa, addr, *a2) == AliasVerdict::Must =>
                        {
                            out.push(
                                Diagnostic::warning(
                                    RULE_MEM_DEAD_STORE,
                                    format!(
                                        "store to mem[{addr}] is overwritten by a \
                                         must-alias store later in {b} before any \
                                         possible read",
                                    ),
                                )
                                .in_block(b)
                                .at_inst(i)
                                .on_value(addr),
                            );
                            break;
                        }
                        _ => {}
                    }
                }

                // mem-overlapping-store: the previous store in this
                // block writes a different small bounded window that
                // partially overlaps this one.
                if let Some(&p) = insts[..pos]
                    .iter()
                    .rev()
                    .find(|&&p| matches!(func.inst(p).kind, InstKind::Store { .. }))
                {
                    let InstKind::Store { addr: a1, .. } = func.inst(p).kind else {
                        unreachable!()
                    };
                    let r1 = fa.range_of(a1);
                    let narrow = |r: Interval| {
                        !r.is_empty()
                            && r.lo > i64::MIN
                            && r.hi < i64::MAX
                            && r.hi - r.lo < OVERLAP_WINDOW
                    };
                    if alias_verdict(fa, a1, addr) == AliasVerdict::May
                        && narrow(r1)
                        && narrow(r)
                        && r1 != r
                    {
                        out.push(
                            Diagnostic::warning(
                                RULE_MEM_OVERLAP,
                                format!(
                                    "store window {addr} ∈ {r} partially overlaps the \
                                     distinct window {a1} ∈ {r1} of the preceding store \
                                     in {b}; if they were meant to be the same word or \
                                     separate words, neither is provable",
                                ),
                            )
                            .in_block(b)
                            .at_inst(i)
                            .on_value(addr),
                        );
                    }
                }
            } else if let Some(k) = fa.constant_of(addr) {
                // mem-uninit-load: a fixed word no reachable store may
                // ever write — only the initial zero image is readable.
                let never_written = store_addrs
                    .iter()
                    .all(|&s| alias_verdict_const(fa, s, k) == AliasVerdict::Disjoint);
                if never_written {
                    out.push(
                        Diagnostic::warning(
                            RULE_MEM_UNINIT,
                            format!(
                                "load of mem[{k}] which no reachable store may write: \
                                 it can only observe the initial zero image",
                            ),
                        )
                        .in_block(b)
                        .at_inst(i)
                        .on_value(addr),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_analysis::AnalysisManager;
    use fcc_ir::parse::parse_function;

    fn analyse(src: &str) -> (Function, FunctionAnalysis) {
        let f = parse_function(src).unwrap();
        let fa = FunctionAnalysis::compute(&f, &mut AnalysisManager::new());
        (f, fa)
    }

    #[test]
    fn constant_addresses_classify_exactly() {
        let (_, fa) = analyse(
            "function @c(0) {
             b0:
                 v0 = const 5
                 v1 = const 5
                 v2 = const 9
                 v3 = load v0
                 v4 = load v1
                 v5 = load v2
                 return v3
             }",
        );
        assert_eq!(
            alias_verdict(&fa, Value::new(0), Value::new(1)),
            AliasVerdict::Must
        );
        assert_eq!(
            alias_verdict(&fa, Value::new(0), Value::new(2)),
            AliasVerdict::Disjoint
        );
        assert_eq!(
            alias_verdict_const(&fa, Value::new(0), 5),
            AliasVerdict::Must
        );
        assert_eq!(
            alias_verdict_const(&fa, Value::new(0), 6),
            AliasVerdict::Disjoint
        );
    }

    #[test]
    fn interval_separation_is_disjoint_same_value_is_must() {
        // x & 7 vs (x & 7) + 8: windows [0,7] and [8,15].
        let (_, fa) = analyse(
            "function @w(1) {
             b0:
                 v0 = param 0
                 v1 = const 7
                 v2 = and v0, v1
                 v3 = const 8
                 v4 = add v2, v3
                 v5 = load v2
                 v6 = load v4
                 v7 = add v5, v6
                 return v7
             }",
        );
        assert_eq!(
            alias_verdict(&fa, Value::new(2), Value::new(4)),
            AliasVerdict::Disjoint
        );
        assert_eq!(
            alias_verdict(&fa, Value::new(2), Value::new(2)),
            AliasVerdict::Must
        );
        // Unknown vs unknown overlapping windows: no proof.
        assert_eq!(
            alias_verdict_const(&fa, Value::new(2), 3),
            AliasVerdict::May
        );
    }

    #[test]
    fn known_bits_prove_parity_disjointness() {
        // 2x vs 2x + 1: the interval hulls overlap, but bit 0 differs.
        let (_, fa) = analyse(
            "function @p(1) {
             b0:
                 v0 = param 0
                 v1 = const 1
                 v2 = shl v0, v1
                 v3 = or v2, v1
                 v4 = load v2
                 v5 = load v3
                 v6 = add v4, v5
                 return v6
             }",
        );
        assert_eq!(
            alias_verdict(&fa, Value::new(2), Value::new(3)),
            AliasVerdict::Disjoint
        );
    }

    #[test]
    fn memory_state_forwards_across_blocks_and_havocs_on_unknown() {
        // Both paths store v0 to word 3; the join keeps the fact. The
        // later unknown-address store havocs it.
        let (f, fa) = analyse(
            "function @m(2) {
             b0:
                 v0 = param 0
                 v1 = param 1
                 v2 = const 3
                 branch v0, b1, b2
             b1:
                 store v2, v0
                 jump b3
             b2:
                 store v2, v0
                 jump b3
             b3:
                 store v1, v0
                 jump b4
             b4:
                 v3 = load v2
                 return v3
             }",
        );
        let mem = solve_memory(&f, &fa);
        let b3 = Block::new(3);
        let b4 = Block::new(4);
        assert_eq!(mem.entry(b3).facts().get(&3), Some(&Value::new(0)));
        assert!(mem.entry(b4).facts().is_empty(), "{:?}", mem.entry(b4));
    }

    #[test]
    fn memory_state_join_drops_disagreeing_words() {
        let (f, fa) = analyse(
            "function @j(1) {
             b0:
                 v0 = param 0
                 v1 = const 3
                 v2 = const 7
                 branch v0, b1, b2
             b1:
                 store v1, v0
                 store v2, v0
                 jump b3
             b2:
                 store v1, v2
                 store v2, v0
                 jump b3
             b3:
                 v3 = load v1
                 return v3
             }",
        );
        let mem = solve_memory(&f, &fa);
        let facts = mem.entry(Block::new(3)).facts();
        assert_eq!(facts.get(&7), Some(&Value::new(0)), "{facts:?}");
        assert!(!facts.contains_key(&3), "word 3 disagrees: {facts:?}");
    }

    #[test]
    fn memory_state_skips_dead_edges() {
        // branch on const 0: only the else edge executes, so b3's entry
        // keeps b2's store fact even though b1 would clobber it.
        let (f, fa) = analyse(
            "function @dead(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 v2 = const 3
                 branch v1, b1, b2
             b1:
                 store v2, v1
                 jump b3
             b2:
                 store v2, v0
                 jump b3
             b3:
                 v3 = load v2
                 return v3
             }",
        );
        let mem = solve_memory(&f, &fa);
        assert_eq!(
            mem.entry(Block::new(3)).facts().get(&3),
            Some(&Value::new(0))
        );
    }

    #[test]
    fn oob_diagnostics_mirror_the_trap_rule() {
        let (f, fa) = analyse(
            "function @oob(1) {
             b0:
                 v0 = param 0
                 v1 = const -2
                 v2 = load v1
                 v3 = const 100
                 store v3, v0
                 v4 = const 63
                 v5 = and v0, v4
                 v6 = load v5
                 v7 = add v2, v6
                 return v7
             }",
        );
        // Without a memory bound only the negative address is provable.
        let d = memory_diagnostics(&f, &fa, None);
        assert_eq!(
            d.iter().filter(|d| d.rule == RULE_MEM_OOB).count(),
            1,
            "{d:?}"
        );
        // With 64 words the store to word 100 is provably out too.
        let d = memory_diagnostics(&f, &fa, Some(64));
        assert_eq!(
            d.iter().filter(|d| d.rule == RULE_MEM_OOB).count(),
            2,
            "{d:?}"
        );
        assert!(d.iter().all(|d| !d.is_error()), "all warnings: {d:?}");
    }

    #[test]
    fn dead_store_and_uninit_load_flagged() {
        let (f, fa) = analyse(
            "function @ds(1) {
             b0:
                 v0 = param 0
                 v1 = const 5
                 store v1, v0
                 store v1, v1
                 v2 = const 9
                 v3 = load v2
                 v4 = load v1
                 v5 = add v3, v4
                 return v5
             }",
        );
        let d = memory_diagnostics(&f, &fa, None);
        assert_eq!(
            d.iter().filter(|d| d.rule == RULE_MEM_DEAD_STORE).count(),
            1,
            "{d:?}"
        );
        // mem[9] is never written (both stores hit word 5).
        assert_eq!(
            d.iter().filter(|d| d.rule == RULE_MEM_UNINIT).count(),
            1,
            "{d:?}"
        );
    }

    #[test]
    fn intervening_may_load_keeps_the_store_alive() {
        let (f, fa) = analyse(
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
        let d = memory_diagnostics(&f, &fa, None);
        assert!(
            d.iter().all(|d| d.rule != RULE_MEM_DEAD_STORE),
            "the load of the unknown address v0 may read word 5: {d:?}"
        );
    }

    #[test]
    fn overlapping_windows_warn_identical_windows_do_not() {
        // [0,7] vs [4,11]: partial overlap of two small windows.
        let (f, fa) = analyse(
            "function @ov(1) {
             b0:
                 v0 = param 0
                 v1 = const 7
                 v2 = and v0, v1
                 v3 = const 4
                 v4 = add v2, v3
                 store v2, v0
                 store v4, v0
                 return v0
             }",
        );
        let d = memory_diagnostics(&f, &fa, None);
        assert_eq!(
            d.iter().filter(|d| d.rule == RULE_MEM_OVERLAP).count(),
            1,
            "{d:?}"
        );

        // Identical windows (same mask, different executions) stay quiet.
        let (f, fa) = analyse(
            "function @same(2) {
             b0:
                 v0 = param 0
                 v1 = param 1
                 v2 = const 7
                 v3 = and v0, v2
                 v4 = and v1, v2
                 store v3, v0
                 store v4, v1
                 return v0
             }",
        );
        let d = memory_diagnostics(&f, &fa, None);
        assert!(d.iter().all(|d| d.rule != RULE_MEM_OVERLAP), "{d:?}");
    }
}
