//! Property tests for SSA construction, destruction, and parallel-copy
//! sequentialisation on randomly generated (arbitrary, even non-strict)
//! functions.

use std::collections::HashMap;

use fcc_ir::{Block, Function, InstKind, Value};
use fcc_ssa::parcopy::{apply_parallel, apply_sequential, sequentialize};
use fcc_ssa::{build_ssa, destruct_standard, verify_ssa, SsaFlavor};
use fcc_workloads::SplitMix64;

/// Seeded-case count.
const CASES: u64 = 256;

// ---------- parallel copies ----------

/// Random parallel copies (unique dsts, arbitrary srcs, self-moves,
/// cycles): sequentialisation must match parallel semantics exactly.
#[test]
fn parcopy_sequentialization_is_semantics_preserving() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xA11C_0000 + case);
        let n = rng.gen_range(0usize..12);
        let copies: Vec<(Value, Value)> = (0..n)
            .map(|d| (Value::new(d), Value::new(rng.gen_range(0usize..12))))
            .collect();
        let mut next = 100;
        let seq = sequentialize(&copies, || {
            next += 1;
            Value::new(next - 1)
        });
        // At most one temp per cycle; cycles are disjoint, so bounded by
        // half the moves.
        assert!(
            seq.len() <= copies.len() + copies.len() / 2 + 1,
            "case {case}"
        );

        let mut par_env: HashMap<Value, i64> = HashMap::new();
        for i in 0..next {
            par_env.insert(Value::new(i), 1000 + i as i64);
        }
        let mut seq_env = par_env.clone();
        apply_parallel(&copies, &mut par_env);
        apply_sequential(&seq, &mut seq_env);
        for d in 0..12 {
            let v = Value::new(d);
            assert_eq!(par_env[&v], seq_env[&v], "case {case}: dst {v}");
        }
    }
}

/// Permutations are the worst case (every dst is a src): check all
/// registers, not just dsts.
#[test]
fn parcopy_on_permutations() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xBEE5_0000 + case);
        let len = rng.gen_range(1usize..9);
        let keys: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        // argsort of random keys = a uniformly random permutation.
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| (keys[i], i));
        let perm = idx;
        let copies: Vec<(Value, Value)> = perm
            .iter()
            .enumerate()
            .map(|(d, &s)| (Value::new(d), Value::new(s)))
            .collect();
        let mut next = 50;
        let seq = sequentialize(&copies, || {
            next += 1;
            Value::new(next - 1)
        });
        let mut par_env: HashMap<Value, i64> = HashMap::new();
        for i in 0..next {
            par_env.insert(Value::new(i), 7 * i as i64 + 3);
        }
        let mut seq_env = par_env.clone();
        apply_parallel(&copies, &mut par_env);
        apply_sequential(&seq, &mut seq_env);
        for d in 0..perm.len() {
            assert_eq!(
                par_env[&Value::new(d)],
                seq_env[&Value::new(d)],
                "case {case}"
            );
        }
    }
}

// ---------- SSA round-trips on random functions ----------

/// Random function with arbitrary control flow and (possibly non-strict)
/// value usage. Terminating is NOT guaranteed, so runs are fuel-bounded
/// and non-terminating seeds are skipped.
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
            match rng.gen_range(0..4) {
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
                2 => {
                    let a = Value::new(rng.gen_range(0..n_vals));
                    let c = Value::new(rng.gen_range(0..n_vals));
                    f.append_inst(
                        b,
                        InstKind::Binary {
                            op: fcc_ir::BinOp::Sub,
                            a,
                            b: c,
                        },
                        Some(dst),
                    );
                }
                _ => {
                    let a = Value::new(rng.gen_range(0..n_vals));
                    let c = Value::new(rng.gen_range(0..n_vals));
                    f.append_inst(
                        b,
                        InstKind::Binary {
                            op: fcc_ir::BinOp::Xor,
                            a,
                            b: c,
                        },
                        Some(dst),
                    );
                }
            }
        }
        // Bias terminators toward forward edges so many seeds terminate.
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

#[test]
fn ssa_roundtrip_preserves_random_functions() {
    let mut checked = 0;
    for seed in 0..400u64 {
        let base = random_function(seed, 3 + (seed as usize % 7), 5);
        let Some(reference) = bounded_run(&base) else {
            continue;
        };
        for flavor in [SsaFlavor::Minimal, SsaFlavor::SemiPruned, SsaFlavor::Pruned] {
            for fold in [false, true] {
                let mut f = base.clone();
                build_ssa(&mut f, flavor, fold);
                verify_ssa(&f)
                    .unwrap_or_else(|e| panic!("seed {seed} {flavor:?} fold={fold}: {e}"));
                let ssa_run = bounded_run(&f).expect("same termination");
                assert_eq!(
                    reference, ssa_run,
                    "seed {seed} {flavor:?} fold={fold}: SSA changed behaviour\n{f}"
                );
                destruct_standard(&mut f);
                assert!(!f.has_phis());
                fcc_ir::verify::verify_function(&f)
                    .unwrap_or_else(|e| panic!("seed {seed} {flavor:?} fold={fold}: {e}"));
                let out = bounded_run(&f).expect("same termination");
                assert_eq!(
                    reference, out,
                    "seed {seed} {flavor:?} fold={fold}: destruction changed behaviour\n{f}"
                );
            }
        }
        checked += 1;
    }
    assert!(
        checked > 100,
        "only {checked} seeds terminated — generator bias is off"
    );
}

#[test]
fn folding_always_removes_all_copies() {
    for seed in 500..600u64 {
        let base = random_function(seed, 4, 5);
        let mut f = base.clone();
        build_ssa(&mut f, SsaFlavor::Pruned, true);
        assert_eq!(
            f.static_copy_count(),
            0,
            "seed {seed}: folding left a copy\n{f}"
        );
    }
}

#[test]
fn pruned_never_more_phis_than_semipruned_than_minimal() {
    for seed in 700..800u64 {
        let base = random_function(seed, 5, 5);
        let count = |flavor: SsaFlavor| {
            let mut f = base.clone();
            let stats = build_ssa(&mut f, flavor, false);
            stats.phis_inserted
        };
        let minimal = count(SsaFlavor::Minimal);
        let semi = count(SsaFlavor::SemiPruned);
        let pruned = count(SsaFlavor::Pruned);
        assert!(pruned <= semi, "seed {seed}: pruned {pruned} > semi {semi}");
        assert!(
            semi <= minimal,
            "seed {seed}: semi {semi} > minimal {minimal}"
        );
    }
}

#[test]
fn liveness_matches_path_search_on_ssa() {
    use fcc_analysis::Liveness;
    use fcc_ir::ControlFlowGraph;
    for seed in 900..1100u64 {
        let mut f = random_function(seed, 3 + (seed as usize % 8), 6);
        build_ssa(&mut f, SsaFlavor::Pruned, seed % 2 == 0);
        let cfg = ControlFlowGraph::compute(&f);
        if let Err(e) = Liveness::compute(&f, &cfg).check_by_search(&f, &cfg) {
            panic!("seed {seed}: {e}\n{f}");
        }
    }
}
