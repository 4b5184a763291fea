//! Parallel-copy sequentialisation.
//!
//! When φ-nodes are instantiated, all copies destined for one CFG edge
//! form a *parallel copy*: conceptually, every source is read before any
//! destination is written. Emitting them naively as sequential `copy`
//! instructions is wrong whenever a destination is also a source — the
//! *swap problem* of Briggs et al., and the paper's *virtual swap*
//! (Figures 3–4) is the same phenomenon surfacing after aggressive
//! coalescing. This module emits a correct sequential order, inserting a
//! fresh temporary only when a genuine cycle forces one.
//!
//! The algorithm is the classical worklist sequentialisation: emit copies
//! whose destination is not needed as a source ("ready"), and when only
//! cycles remain, break one by saving a cycle member into a temporary.

use std::collections::HashMap;

use fcc_ir::Value;

/// One `dst ← src` move of a parallel copy.
pub type Move = (Value, Value);

/// Sequentialise the parallel copy `copies` into an equivalent ordered
/// list of moves.
///
/// `fresh` is called to mint a temporary register each time a cycle must
/// be broken. Self-moves are dropped. Duplicate *sources* are fine (one
/// value may feed many destinations); each *destination* must appear at
/// most once.
///
/// # Panics
///
/// Panics if a destination appears twice — a parallel copy assigning one
/// register two values is meaningless.
///
/// # Examples
///
/// A swap needs one temporary:
///
/// ```
/// use fcc_ir::Value;
/// use fcc_ssa::parcopy::sequentialize;
///
/// let a = Value::new(0);
/// let b = Value::new(1);
/// let mut next = 2;
/// let seq = sequentialize(&[(a, b), (b, a)], || {
///     next += 1;
///     Value::new(next - 1)
/// });
/// assert_eq!(seq.len(), 3); // t = a; a = b; b = t
/// ```
pub fn sequentialize(copies: &[Move], mut fresh: impl FnMut() -> Value) -> Vec<Move> {
    // The copies by destination, stably: a repeated destination sits
    // right after its first occurrence. Report the repeat that a scan in
    // input order meets first.
    let mut by_dst: Vec<usize> = (0..copies.len()).collect();
    by_dst.sort_by_key(|&j| copies[j].0);
    let repeat = by_dst
        .windows(2)
        .filter(|w| copies[w[0]].0 == copies[w[1]].0)
        .map(|w| w[1])
        .min();
    if let Some(j) = repeat {
        panic!(
            "destination {} assigned twice in parallel copy",
            copies[j].0
        );
    }

    // Moves are named by their index in `copies`; self-moves are dropped.
    let pending: Vec<usize> = (0..copies.len())
        .filter(|&j| copies[j].0 != copies[j].1)
        .collect();
    let mut by_src = pending.clone();
    by_src.sort_by_key(|&j| copies[j].1);
    // The pending move that writes `v`, if any.
    let writer = |v: Value| {
        let i = by_dst.partition_point(|&j| copies[j].0 < v);
        by_dst
            .get(i)
            .copied()
            .filter(|&j| copies[j].0 == v && copies[j].1 != v)
    };
    // The first pending move that reads `v`, if any: it names `v` as a
    // source.
    let reader = |v: Value| {
        let i = by_src.partition_point(|&j| copies[j].1 < v);
        by_src.get(i).copied().filter(|&j| copies[j].1 == v)
    };

    let mut emitted: Vec<Move> = Vec::with_capacity(pending.len() + 1);
    // loc[reader(a)] = where source a's original content currently lives.
    let mut loc: Vec<Value> = copies.iter().map(|&(_, a)| a).collect();
    // Moves already emitted (each destination is written exactly once).
    let mut done = vec![false; copies.len()];
    // If nothing needs to read a destination, it can be overwritten
    // immediately.
    let mut ready: Vec<usize> = pending
        .iter()
        .copied()
        .filter(|&j| reader(copies[j].0).is_none())
        .collect();
    let mut todo = pending.iter().rev();
    loop {
        while let Some(j) = ready.pop() {
            fcc_analysis::fuel::checkpoint(1);
            let (b, a) = copies[j];
            let home = reader(a).expect("a pending move reads its source");
            let c = loc[home];
            emitted.push((b, c));
            done[j] = true;
            loc[home] = b;
            // If a's content was still in a itself, a has now been
            // saved elsewhere — if a is also a destination, it is free
            // to be overwritten.
            if a == c {
                ready.extend(writer(a).filter(|&w| !done[w]));
            }
        }
        let Some(&j) = todo.next() else { break };
        fcc_analysis::fuel::checkpoint(1);
        if done[j] {
            continue;
        }
        // Every remaining destination is part of a cycle: break it by
        // saving one member into a fresh temporary.
        let b = copies[j].0;
        let t = fresh();
        emitted.push((t, b));
        loc[reader(b).expect("a cycle member is read")] = t;
        ready.push(j);
    }
    emitted
}

/// Interpret `moves` sequentially over an environment — test helper used
/// to validate sequentialisation against parallel semantics.
pub fn apply_sequential(moves: &[Move], env: &mut HashMap<Value, i64>) {
    for &(dst, src) in moves {
        let v = *env.get(&src).unwrap_or(&0);
        env.insert(dst, v);
    }
}

/// Interpret `copies` with parallel semantics (all reads before any
/// write) over an environment.
pub fn apply_parallel(copies: &[Move], env: &mut HashMap<Value, i64>) {
    let reads: Vec<(Value, i64)> = copies
        .iter()
        .map(|&(dst, src)| (dst, *env.get(&src).unwrap_or(&0)))
        .collect();
    for (dst, v) in reads {
        env.insert(dst, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(copies: &[(usize, usize)]) -> usize {
        let copies: Vec<Move> = copies
            .iter()
            .map(|&(d, s)| (Value::new(d), Value::new(s)))
            .collect();
        let max = copies
            .iter()
            .flat_map(|&(a, b)| [a.index(), b.index()])
            .max()
            .unwrap_or(0);
        let mut next = max + 1;
        let seq = sequentialize(&copies, || {
            next += 1;
            Value::new(next - 1)
        });

        // Environment with distinct initial values for every register.
        let mut par_env: HashMap<Value, i64> = HashMap::new();
        for i in 0..next {
            par_env.insert(Value::new(i), 100 + i as i64);
        }
        let mut seq_env = par_env.clone();
        apply_parallel(&copies, &mut par_env);
        apply_sequential(&seq, &mut seq_env);
        for i in 0..=max {
            let v = Value::new(i);
            assert_eq!(
                par_env[&v], seq_env[&v],
                "mismatch at {v} for {copies:?} -> {seq:?}"
            );
        }
        seq.len()
    }

    #[test]
    fn empty_and_self_moves() {
        assert_eq!(check(&[]), 0);
        assert_eq!(check(&[(0, 0)]), 0, "self move elided");
    }

    #[test]
    fn disjoint_moves_stay_cheap() {
        let n = check(&[(0, 1), (2, 3), (4, 5)]);
        assert_eq!(n, 3);
    }

    #[test]
    fn chain_is_emitted_in_dependency_order() {
        // a<-b, b<-c: must emit a<-b before b<-c.
        let n = check(&[(0, 1), (1, 2)]);
        assert_eq!(n, 2, "chains need no temporary");
    }

    #[test]
    fn long_chain() {
        let copies: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 1)).collect();
        assert_eq!(check(&copies), 10);
    }

    #[test]
    fn swap_uses_one_temp() {
        assert_eq!(check(&[(0, 1), (1, 0)]), 3);
    }

    #[test]
    fn three_cycle_uses_one_temp() {
        assert_eq!(check(&[(0, 1), (1, 2), (2, 0)]), 4);
    }

    #[test]
    fn cycle_plus_tail() {
        // Cycle {0,1} with an extra reader of 0: the tail destination
        // doubles as the cycle breaker, so no temp is needed (2←0, 0←1,
        // 1←2).
        assert_eq!(check(&[(0, 1), (1, 0), (2, 0)]), 3);
    }

    #[test]
    fn fan_out_from_one_source() {
        assert_eq!(check(&[(1, 0), (2, 0), (3, 0)]), 3);
    }

    #[test]
    fn fan_out_plus_overwrite_of_source() {
        // 0 feeds 1 and 2, and is itself overwritten from 3.
        check(&[(1, 0), (2, 0), (0, 3)]);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_destination_panics() {
        check(&[(0, 1), (0, 2)]);
    }

    /// The paper's *virtual swap* (Figure 4): after coalescing, the
    /// copy-chain `x' = x; x = y; y = x'` collapses so the φ moves on
    /// the backedge become a genuine two-cycle between the merged
    /// names. At the parallel-copy level that cycle looks exactly like
    /// a swap and must be broken with one temporary — this is the move
    /// set the coalescer hands to the sequentialiser for that loop.
    #[test]
    fn virtual_swap_after_coalescing_needs_one_temp() {
        // Merged names: class(x) = 0, class(y) = 1. The backedge
        // parallel copy is {0 <- 1, 1 <- 0}.
        assert_eq!(check(&[(0, 1), (1, 0)]), 3);
        // The same cycle extended with the loop counter's move riding
        // along: independent moves must not pick up extra temps.
        assert_eq!(check(&[(0, 1), (1, 0), (2, 3)]), 4);
    }

    /// The lost-copy shape: the φ destination is also the source of a
    /// move on the same edge (`y = φ(...); ... y1 = y + 1` gives the
    /// backedge moves `y <- y1` with `y` still feeding a later use
    /// through another destination). Sequentialisation must read `y`
    /// before overwriting it.
    #[test]
    fn lost_copy_shape_reads_before_overwriting() {
        // 1 <- 0 (save the old value), 0 <- 2 (overwrite): the save
        // must be emitted first; no temp needed.
        assert_eq!(check(&[(1, 0), (0, 2)]), 2);
        // With the reader in a cycle with the overwriter the temp comes
        // back: 1 <- 0, 0 <- 1 plus an independent observer 2 <- 0.
        assert_eq!(check(&[(1, 0), (0, 1), (2, 0)]), 3);
    }

    /// Random permutation instances, cross-checked parallel vs
    /// sequential semantics. Permutations are the worst case for cycle
    /// structure (every destination is also a source), and SplitMix64
    /// keeps the sweep deterministic and offline.
    #[test]
    fn random_permutations_match_parallel_semantics() {
        use fcc_workloads::SplitMix64;
        let rounds = 100;
        let mut rng = SplitMix64::seed_from_u64(0xC0A1E5CE);
        for _ in 0..rounds {
            let n = rng.gen_range(1..=9usize);
            // Fisher-Yates shuffle of 0..n.
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            let copies: Vec<(usize, usize)> = (0..n).map(|i| (i, perm[i])).collect();
            let emitted = check(&copies);
            // A permutation with c non-trivial cycles covering m
            // elements sequentialises into m + c moves (one temp save
            // per cycle), never more.
            let mut seen = vec![false; n];
            let (mut m, mut c) = (0usize, 0usize);
            for start in 0..n {
                if seen[start] || perm[start] == start {
                    continue;
                }
                c += 1;
                let mut i = start;
                while !seen[i] {
                    seen[i] = true;
                    m += 1;
                    i = perm[i];
                }
            }
            assert_eq!(emitted, m + c, "perm {perm:?}");
        }
    }

    /// Random *functional* move sets (duplicate sources allowed),
    /// cross-checked the same way — chains, fan-outs and cycles mixed.
    #[test]
    fn random_move_sets_match_parallel_semantics() {
        use fcc_workloads::SplitMix64;
        let rounds = 200;
        let mut rng = SplitMix64::seed_from_u64(0x5E9_0E17);
        for _ in 0..rounds {
            let universe = rng.gen_range(2..=8usize);
            let k = rng.gen_range(1..=universe);
            // k distinct destinations, arbitrary sources.
            let mut dsts: Vec<usize> = (0..universe).collect();
            for i in (1..universe).rev() {
                let j = rng.gen_range(0..=i);
                dsts.swap(i, j);
            }
            let copies: Vec<(usize, usize)> = dsts[..k]
                .iter()
                .map(|&d| (d, rng.gen_range(0..universe)))
                .collect();
            check(&copies);
        }
    }

    #[test]
    fn exhaustive_small_functions() {
        // Every parallel copy with dsts {0,1,2} and srcs drawn from 0..5.
        for s0 in 0..5usize {
            for s1 in 0..5usize {
                for s2 in 0..5usize {
                    check(&[(0, s0), (1, s1), (2, s2)]);
                }
            }
        }
    }
}
