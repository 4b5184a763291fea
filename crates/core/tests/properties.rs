//! Property tests for the dominance forest and the coalescer on random
//! control flow.

use fcc_analysis::DomTree;
use fcc_core::{
    coalesce_ssa, coalesce_ssa_with, CoalesceOptions, DominanceForest, SplitHeuristic,
    SplitStrategy,
};
use fcc_ir::{Block, ControlFlowGraph, Function, InstKind, Value};
use fcc_ssa::{build_ssa, verify_ssa, SsaFlavor};
use fcc_workloads::SplitMix64;

/// Random function with arbitrary control flow; same scheme as the SSA
/// property tests (forward-biased so most seeds terminate).
fn random_function(seed: u64, n_blocks: usize, n_vals: usize) -> Function {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut f = Function::new(format!("r{seed}"));
    let blocks: Vec<Block> = (0..n_blocks).map(|_| f.add_block()).collect();
    for _ in 0..n_vals {
        f.new_value();
    }
    for (bi, &b) in blocks.iter().enumerate() {
        for _ in 0..rng.gen_range(1..4) {
            let dst = Value::new(rng.gen_range(0..n_vals));
            match rng.gen_range(0..3) {
                0 => {
                    f.append_inst(
                        b,
                        InstKind::Const {
                            imm: rng.gen_range(-9i64..9),
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
        let term = rng.gen_range(0..4);
        if bi + 1 == n_blocks || term == 0 {
            let v = Value::new(rng.gen_range(0..n_vals));
            f.append_inst(b, InstKind::Return { val: Some(v) }, None);
        } else if term == 1 {
            let dst = blocks[rng.gen_range((bi + 1).max(1)..n_blocks)];
            f.append_inst(b, InstKind::Jump { dst }, None);
        } else {
            // Branch targets never include the entry (block 0), keeping
            // the entry predecessor-free as the verifier requires.
            let cond = Value::new(rng.gen_range(0..n_vals));
            let t = blocks[rng.gen_range(1..n_blocks)];
            let e = blocks[rng.gen_range((bi + 1).max(1).min(n_blocks - 1)..n_blocks)];
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
    }
    f
}

fn bounded_run(f: &Function) -> Option<(Option<i64>, Vec<i64>)> {
    fcc_interp::run_with_memory(f, &[], vec![0; 32], 200_000)
        .ok()
        .map(|o| (o.ret, o.memory))
}

// ---------- dominance forest vs naive ----------

/// Naive parent: the member with the nearest strictly-dominating (or
/// earlier-in-same-block) definition.
fn naive_parent(members: &[(Value, Block, u32)], i: usize, dt: &DomTree) -> Option<Value> {
    let (_, bi, pi) = members[i];
    let mut best: Option<(usize, (u32, u32))> = None;
    for (j, &(_, bj, pj)) in members.iter().enumerate() {
        if j == i {
            continue;
        }
        let dominates = if bj == bi {
            pj < pi
        } else {
            dt.strictly_dominates(bj, bi)
        };
        if !dominates {
            continue;
        }
        let key = (dt.preorder(bj), pj);
        if best.is_none_or(|(_, bk)| key > bk) {
            best = Some((j, key));
        }
    }
    best.map(|(j, _)| members[j].0)
}

#[test]
fn dominance_forest_matches_naive_on_random_cfgs() {
    let mut rng = SplitMix64::seed_from_u64(99);
    for seed in 0..150u64 {
        let f = random_function(seed, 4 + (seed as usize % 8), 4);
        let cfg = ControlFlowGraph::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let reachable: Vec<Block> = f.blocks().filter(|&b| cfg.is_reachable(b)).collect();
        if reachable.is_empty() {
            continue;
        }
        // Random member sets over reachable blocks.
        for _ in 0..4 {
            let m = rng.gen_range(1..=reachable.len().min(8));
            let mut members: Vec<(Value, Block, u32)> = (0..m)
                .map(|i| {
                    let b = reachable[rng.gen_range(0..reachable.len())];
                    (Value::new(1000 + i), b, rng.gen_range(0..5u32))
                })
                .collect();
            // Distinct (block, pos) pairs keep the naive parent unique.
            members.sort_by_key(|&(_, b, p)| (b, p));
            members.dedup_by_key(|&mut (_, b, p)| (b, p));

            let df = DominanceForest::build(&members, &dt);
            assert_eq!(df.nodes().len(), members.len());
            for node in df.nodes() {
                let i = members
                    .iter()
                    .position(|&(v, _, _)| v == node.value)
                    .unwrap();
                let expect = naive_parent(&members, i, &dt);
                let got = node.parent.map(|p| df.nodes()[p].value);
                assert_eq!(got, expect, "seed {seed}, members {members:?}");
            }
            // Children lists must be consistent with parents.
            for (i, node) in df.nodes().iter().enumerate() {
                for &c in &node.children {
                    assert_eq!(df.nodes()[c].parent, Some(i));
                }
            }
            // The coalescer hands members over in (preorder, position)
            // order; that builds the same forest as any shuffle of them.
            let mut ordered = members.clone();
            ordered.sort_by_key(|&(_, b, p)| (dt.preorder(b), p));
            assert_eq!(DominanceForest::build(&ordered, &dt), df);
            let mut shuffle = SplitMix64::seed_from_u64(seed);
            for i in (1..members.len()).rev() {
                members.swap(i, shuffle.gen_range(0..=i));
            }
            assert_eq!(DominanceForest::build(&members, &dt), df, "seed {seed}");
        }
    }
}

// ---------- coalescer correctness on random SSA ----------

#[test]
fn coalescer_preserves_random_functions_all_heuristics() {
    let opts = [
        CoalesceOptions::default(),
        CoalesceOptions {
            early_filters: false,
            ..Default::default()
        },
        CoalesceOptions {
            split_heuristic: SplitHeuristic::AlwaysChild,
            ..Default::default()
        },
        CoalesceOptions {
            split_heuristic: SplitHeuristic::AlwaysParent,
            ..Default::default()
        },
        CoalesceOptions {
            split_strategy: SplitStrategy::EdgeCut,
            ..Default::default()
        },
        CoalesceOptions {
            split_strategy: SplitStrategy::EdgeCut,
            early_filters: false,
            ..Default::default()
        },
    ];
    let mut checked = 0;
    for seed in 0..350u64 {
        let base = random_function(seed, 3 + (seed as usize % 8), 6);
        let Some(reference) = bounded_run(&base) else {
            continue;
        };
        let mut ssa = base.clone();
        build_ssa(&mut ssa, SsaFlavor::Pruned, true);
        verify_ssa(&ssa).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (oi, o) in opts.iter().enumerate() {
            let mut f = ssa.clone();
            coalesce_ssa_with(&mut f, o);
            assert!(!f.has_phis(), "seed {seed} opt {oi}");
            fcc_ir::verify::verify_function(&f)
                .unwrap_or_else(|e| panic!("seed {seed} opt {oi}: {e}"));
            let out = bounded_run(&f).expect("same termination");
            assert_eq!(
                reference, out,
                "seed {seed} opt {oi}: miscompiled\n{ssa}\n=>\n{f}"
            );
        }
        checked += 1;
    }
    assert!(checked > 80, "only {checked} random functions terminated");
}

#[test]
fn coalescer_output_never_repeats_a_phi_or_breaks_structure() {
    for seed in 400..520u64 {
        let base = random_function(seed, 5, 5);
        let mut f = base.clone();
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        let stats = coalesce_ssa(&mut f);
        assert!(!f.has_phis(), "seed {seed}");
        assert!(stats.phis_removed > 0 || stats.copies_inserted == 0);
        fcc_ir::verify::verify_function(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn minimal_ssa_coalesces_correctly_too() {
    // The paper: "the algorithm we present should work for minimal or
    // semi-pruned SSA as well", possibly with extra copies.
    let mut checked = 0;
    for seed in 600..720u64 {
        let base = random_function(seed, 5, 5);
        let Some(reference) = bounded_run(&base) else {
            continue;
        };
        for flavor in [SsaFlavor::Minimal, SsaFlavor::SemiPruned] {
            let mut f = base.clone();
            build_ssa(&mut f, flavor, true);
            coalesce_ssa(&mut f);
            let out = bounded_run(&f).expect("same termination");
            assert_eq!(reference, out, "seed {seed} {flavor:?}\n{f}");
        }
        checked += 1;
    }
    assert!(checked > 30);
}
