//! Property-based tests: every analysis checked against an independent,
//! naive model on randomly generated structures and CFGs.

use std::collections::HashSet;

use fcc_analysis::{BitSet, DomTree, DominanceFrontiers, Liveness, TriangularBitMatrix, UnionFind};
use fcc_ir::{Block, ControlFlowGraph, Function, InstKind, Value};
use fcc_workloads::SplitMix64;

/// Seeded-case count.
const CASES: u64 = 256;

// ---------- BitSet vs HashSet ----------

#[test]
fn bitset_behaves_like_hashset() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xB1_0000 + case);
        let mut bs = BitSet::new(200);
        let mut hs: HashSet<usize> = HashSet::new();
        for _ in 0..rng.gen_range(0usize..120) {
            match rng.gen_range(0usize..5) {
                0 | 1 => {
                    let i = rng.gen_range(0usize..200);
                    assert_eq!(bs.insert(i), hs.insert(i), "case {case}");
                }
                2 | 3 => {
                    let i = rng.gen_range(0usize..200);
                    assert_eq!(bs.remove(i), hs.remove(&i), "case {case}");
                }
                _ => {
                    bs.clear();
                    hs.clear();
                }
            }
            assert_eq!(bs.count(), hs.len(), "case {case}");
        }
        let got: HashSet<usize> = bs.iter().collect();
        assert_eq!(got, hs, "case {case}");
    }
}

#[test]
fn bitset_algebra_matches_sets() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xB2_0000 + case);
        let draw = |rng: &mut SplitMix64| -> HashSet<usize> {
            (0..rng.gen_range(0usize..40))
                .map(|_| rng.gen_range(0usize..128))
                .collect()
        };
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        let mk = |s: &HashSet<usize>| {
            let mut x = BitSet::new(128);
            for &e in s {
                x.insert(e);
            }
            x
        };
        let (ba, bb) = (mk(&a), mk(&b));

        let mut u = ba.clone();
        u.union_with(&bb);
        assert_eq!(
            u.iter().collect::<HashSet<_>>(),
            a.union(&b).copied().collect::<HashSet<_>>(),
            "case {case}"
        );

        let mut i = ba.clone();
        i.intersect_with(&bb);
        assert_eq!(
            i.iter().collect::<HashSet<_>>(),
            a.intersection(&b).copied().collect::<HashSet<_>>(),
            "case {case}"
        );

        let mut d = ba.clone();
        d.difference_with(&bb);
        assert_eq!(
            d.iter().collect::<HashSet<_>>(),
            a.difference(&b).copied().collect::<HashSet<_>>(),
            "case {case}"
        );

        assert_eq!(ba.intersects(&bb), !a.is_disjoint(&b), "case {case}");
    }
}

// ---------- UnionFind vs naive partition ----------

#[test]
fn unionfind_matches_naive_partition() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xB3_0000 + case);
        let n = 60;
        let mut uf = UnionFind::new(n);
        // Naive model: partition id per element, merged by relabelling.
        let mut label: Vec<usize> = (0..n).collect();
        for _ in 0..rng.gen_range(0usize..80) {
            let (a, b) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
            uf.union(a, b);
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                for l in label.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for x in 0..n {
            for y in 0..n {
                assert_eq!(uf.same(x, y), label[x] == label[y], "case {case}: {x} {y}");
            }
        }
    }
}

#[test]
fn sets_match_naive_partition() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xB5_0000 + case);
        let n = 60;
        let mut uf = UnionFind::new(n);
        let mut label: Vec<usize> = (0..n).collect();
        // Union only among `elems` (with repeats, in random order), the
        // way φ destinations and arguments are unioned.
        let mut elems: Vec<u32> = Vec::new();
        for _ in 0..rng.gen_range(0usize..80) {
            let (a, b) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
            elems.extend([a as u32, b as u32]);
            uf.union(a, b);
            let (la, lb) = (label[a], label[b]);
            for l in label.iter_mut() {
                if *l == lb {
                    *l = la;
                }
            }
        }
        for _ in 0..rng.gen_range(0usize..10) {
            elems.push(rng.gen_range(0..n as u32));
        }
        // Naive: each given element's set, sets by least member, members
        // ascending.
        let mut given: Vec<u32> = elems.clone();
        given.sort_unstable();
        given.dedup();
        let mut expect: Vec<Vec<u32>> = Vec::new();
        for &x in &given {
            if !expect.iter().any(|set| set.contains(&x)) {
                let set: Vec<u32> = given
                    .iter()
                    .copied()
                    .filter(|&y| label[y as usize] == label[x as usize])
                    .collect();
                expect.push(set);
            }
        }
        let got: Vec<Vec<u32>> = uf.into_sets(elems).iter().map(<[u32]>::to_vec).collect();
        assert_eq!(got, expect, "case {case}");
    }
}

// ---------- Triangular matrix vs HashSet of pairs ----------

#[test]
fn bitmatrix_matches_pair_set() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xB4_0000 + case);
        let mut m = TriangularBitMatrix::new(40);
        let mut model: HashSet<(usize, usize)> = HashSet::new();
        for _ in 0..rng.gen_range(0usize..120) {
            let (a, b) = (rng.gen_range(0usize..40), rng.gen_range(0usize..40));
            m.add(a, b);
            if a != b {
                model.insert((a.min(b), a.max(b)));
            }
        }
        assert_eq!(m.count(), model.len(), "case {case}");
        for a in 0..40 {
            for b in 0..40 {
                assert_eq!(
                    m.relates(a, b),
                    model.contains(&(a.min(b), a.max(b))),
                    "case {case}: ({a}, {b})"
                );
            }
        }
    }
}

// ---------- Random CFGs for dominator / liveness checks ----------

/// Build a random function: `n` blocks, each defining a couple of values
/// and ending in a random terminator. Every value definition/use index is
/// valid; structure is otherwise arbitrary (unreachable blocks, self
/// loops, shared targets all occur).
fn random_function(seed: u64, n_blocks: usize, n_vals: usize) -> Function {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut f = Function::new(format!("r{seed}"));
    let blocks: Vec<Block> = (0..n_blocks).map(|_| f.add_block()).collect();
    for _ in 0..n_vals {
        f.new_value();
    }
    for (bi, &b) in blocks.iter().enumerate() {
        // A few defs and uses.
        for _ in 0..rng.gen_range(0..3) {
            let dst = Value::new(rng.gen_range(0..n_vals));
            match rng.gen_range(0..3) {
                0 => {
                    f.append_inst(
                        b,
                        InstKind::Const {
                            imm: rng.gen_range(-5i64..5),
                        },
                        Some(dst),
                    );
                }
                1 => {
                    let src = Value::new(rng.gen_range(0..n_vals));
                    f.append_inst(b, InstKind::Copy { src }, Some(dst));
                }
                _ => {
                    let a = Value::new(rng.gen_range(0..n_vals));
                    let c = Value::new(rng.gen_range(0..n_vals));
                    f.append_inst(
                        b,
                        InstKind::Binary {
                            op: fcc_ir::BinOp::Add,
                            a,
                            b: c,
                        },
                        Some(dst),
                    );
                }
            }
        }
        let term = if bi + 1 == n_blocks {
            2
        } else {
            rng.gen_range(0..3)
        };
        match term {
            0 => {
                let dst = blocks[rng.gen_range(0..n_blocks)];
                f.append_inst(b, InstKind::Jump { dst }, None);
            }
            1 => {
                let cond = Value::new(rng.gen_range(0..n_vals));
                let t = blocks[rng.gen_range(0..n_blocks)];
                let e = blocks[rng.gen_range(0..n_blocks)];
                f.append_inst(
                    b,
                    InstKind::Branch {
                        cond,
                        then_dst: t,
                        else_dst: e,
                    },
                    None,
                );
            }
            _ => {
                let v = Value::new(rng.gen_range(0..n_vals));
                f.append_inst(b, InstKind::Return { val: Some(v) }, None);
            }
        }
    }
    f
}

/// Naive dominance: `a` dominates `b` iff removing `a` disconnects `b`
/// from the entry (checked by DFS avoiding `a`).
fn naive_dominates(cfg: &ControlFlowGraph, entry: Block, a: Block, b: Block) -> bool {
    if !cfg.is_reachable(b) || !cfg.is_reachable(a) {
        return false;
    }
    if a == b {
        return true;
    }
    if b == entry {
        return false; // only the entry dominates the entry
    }
    // DFS from entry avoiding a; if b reached, a does not dominate b.
    let mut seen = HashSet::new();
    let mut stack = vec![entry];
    if entry == a {
        return true; // entry dominates everything reachable
    }
    seen.insert(entry);
    while let Some(x) = stack.pop() {
        for &s in cfg.succs(x) {
            if s == a || seen.contains(&s) {
                continue;
            }
            if s == b {
                return false;
            }
            seen.insert(s);
            stack.push(s);
        }
    }
    true
}

#[test]
fn dominators_match_naive_on_random_cfgs() {
    for seed in 0..120u64 {
        let f = random_function(seed, 3 + (seed as usize % 8), 6);
        let cfg = ControlFlowGraph::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let blocks: Vec<Block> = f.blocks().collect();
        for &a in &blocks {
            for &b in &blocks {
                if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
                    assert!(!dt.dominates(a, b), "seed {seed}: unreachable {a}->{b}");
                    continue;
                }
                let expect = naive_dominates(&cfg, f.entry(), a, b);
                assert_eq!(
                    dt.dominates(a, b),
                    expect,
                    "seed {seed}: dominates({a},{b})"
                );
            }
        }
    }
}

#[test]
fn dominance_frontiers_match_definition() {
    // b' ∈ DF(b) iff b dominates a predecessor of b' but not strictly b'.
    for seed in 0..120u64 {
        let f = random_function(seed, 3 + (seed as usize % 8), 6);
        let cfg = ControlFlowGraph::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let dfs = DominanceFrontiers::compute(&cfg, &dt);
        let blocks: Vec<Block> = f.blocks().filter(|&b| cfg.is_reachable(b)).collect();
        for &b in &blocks {
            let frontier: HashSet<Block> = dfs.frontier(b).iter().copied().collect();
            for &j in &blocks {
                let in_df = cfg.preds(j).iter().any(|&p| dt.dominates(b, p))
                    && !dt.strictly_dominates(b, j);
                assert_eq!(frontier.contains(&j), in_df, "seed {seed}: DF({b}) vs {j}");
            }
        }
    }
}

/// The solver against the definition, on random φ-free CFGs: values
/// defined many times or never, unreachable blocks, and jumps anywhere,
/// so loops with several entries.
#[test]
fn liveness_matches_naive_path_search() {
    for seed in 200..400u64 {
        let f = random_function(seed, 3 + (seed as usize % 8), 5);
        let cfg = ControlFlowGraph::compute(&f);
        if let Err(e) = Liveness::compute(&f, &cfg).check_by_search(&f, &cfg) {
            panic!("seed {seed}: {e}\n{f}");
        }
    }
}

#[test]
fn preorder_brackets_are_consistent_on_random_cfgs() {
    for seed in 300..360u64 {
        let f = random_function(seed, 4 + (seed as usize % 10), 4);
        let cfg = ControlFlowGraph::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        for b in f.blocks() {
            if !dt.is_reachable(b) {
                continue;
            }
            // max_preorder brackets must nest: child's bracket inside
            // parent's.
            for &c in dt.children(b) {
                assert!(dt.preorder(c) > dt.preorder(b), "seed {seed}");
                assert!(dt.max_preorder(c) <= dt.max_preorder(b), "seed {seed}");
            }
        }
    }
}
