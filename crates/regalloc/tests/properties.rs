//! Property tests: the interference graph against a brute-force
//! point-by-point liveness model, and the Briggs/Briggs\* equivalence on
//! random programs.

use std::collections::HashSet;

use fcc_analysis::Liveness;
use fcc_ir::{Block, ControlFlowGraph, Function, InstKind, Value};
use fcc_regalloc::{
    coalesce_copies, destruct_via_webs, BriggsOptions, GraphMode, InterferenceGraph,
};
use fcc_ssa::{build_ssa, SsaFlavor};
use fcc_workloads::{generate, GenConfig};

fn lower(seed: u64, cfg: &GenConfig) -> Function {
    let prog = generate(seed, cfg);
    fcc_frontend::lower_program(&prog).expect("generated programs lower")
}

/// Brute-force interference: simulate the backward scan per block and
/// record, at every definition point, the set of simultaneously live
/// values (excluding a copy's source at the copy itself — Chaitin's
/// rule). This reimplements the graph builder with sets instead of the
/// matrix, independently.
fn brute_force_edges(func: &Function) -> HashSet<(usize, usize)> {
    let cfg = ControlFlowGraph::compute(func);
    let live = Liveness::compute(func, &cfg);
    let mut edges = HashSet::new();
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut live_now: HashSet<usize> = live.live_out(b).iter().map(|&v| v as usize).collect();
        for &inst in func.block_insts(b).iter().rev() {
            let data = func.inst(inst);
            if let InstKind::Copy { src } = data.kind {
                live_now.remove(&src.index());
            }
            if let Some(d) = data.dst {
                for &z in &live_now {
                    if z != d.index() {
                        let (a, c) = (d.index().min(z), d.index().max(z));
                        edges.insert((a, c));
                    }
                }
                live_now.remove(&d.index());
            }
            data.kind.for_each_use(|u| {
                live_now.insert(u.index());
            });
        }
    }
    edges
}

#[test]
fn igraph_matches_brute_force_on_generated_programs() {
    let gcfg = GenConfig {
        stmts: 8,
        vars: 5,
        ..Default::default()
    };
    for seed in 0..30u64 {
        let mut f = lower(seed, &gcfg);
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut f);
        let cfg = ControlFlowGraph::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let ig = InterferenceGraph::build(&f, &cfg, &live, None);
        let expect = brute_force_edges(&f);
        let n = f.num_values();
        for a in 0..n {
            for b in (a + 1)..n {
                assert_eq!(
                    ig.interferes(Value::new(a), Value::new(b)),
                    expect.contains(&(a, b)),
                    "seed {seed}: edge (v{a}, v{b})"
                );
            }
        }
        // Degrees must be consistent with the edge set.
        for a in 0..n {
            let deg = expect.iter().filter(|&&(x, y)| x == a || y == a).count();
            assert_eq!(ig.degree(Value::new(a)), deg, "seed {seed}: degree v{a}");
        }
    }
}

#[test]
fn restricted_graph_agrees_on_tracked_pairs() {
    let gcfg = GenConfig::default();
    for seed in 100..140u64 {
        let mut f = lower(seed, &gcfg);
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut f);
        let cfg = ControlFlowGraph::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        // Track exactly the copy-related values.
        let mut tracked: Vec<Value> = Vec::new();
        for b in f.blocks() {
            for &inst in f.block_insts(b) {
                if let InstKind::Copy { src } = f.inst(inst).kind {
                    tracked.push(f.inst(inst).dst.unwrap());
                    tracked.push(src);
                }
            }
        }
        let full = InterferenceGraph::build(&f, &cfg, &live, None);
        let small = InterferenceGraph::build(&f, &cfg, &live, Some(&tracked));
        for &a in &tracked {
            for &b in &tracked {
                assert_eq!(
                    full.interferes(a, b),
                    small.interferes(a, b),
                    "seed {seed}: ({a}, {b})"
                );
            }
        }
    }
}

#[test]
fn briggs_and_briggs_star_identical_on_generated_programs() {
    let gcfg = GenConfig {
        stmts: 18,
        ..Default::default()
    };
    for seed in 200..280u64 {
        let mut f = lower(seed, &gcfg);
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut f);
        let mut full = f.clone();
        let mut star = f.clone();
        let fs = coalesce_copies(
            &mut full,
            &BriggsOptions {
                mode: GraphMode::Full,
            },
        );
        let ss = coalesce_copies(
            &mut star,
            &BriggsOptions {
                mode: GraphMode::Restricted,
            },
        );
        assert_eq!(fs.copies_removed, ss.copies_removed, "seed {seed}");
        assert_eq!(fs.copies_remaining, ss.copies_remaining, "seed {seed}");
        assert_eq!(
            full.static_copy_count(),
            star.static_copy_count(),
            "seed {seed}: different residual copies"
        );
        // And the restricted graph never allocates a larger matrix.
        assert!(
            ss.peak_matrix_bytes() <= fs.peak_matrix_bytes(),
            "seed {seed}: restricted matrix larger"
        );
    }
}

#[test]
fn interference_is_symmetric_and_irreflexive_at_scale() {
    let gcfg = GenConfig {
        stmts: 40,
        vars: 12,
        ..Default::default()
    };
    let mut f = lower(999, &gcfg);
    build_ssa(&mut f, SsaFlavor::Pruned, false);
    destruct_via_webs(&mut f);
    let cfg = ControlFlowGraph::compute(&f);
    let live = Liveness::compute(&f, &cfg);
    let ig = InterferenceGraph::build(&f, &cfg, &live, None);
    let n = f.num_values();
    for a in 0..n {
        assert!(!ig.interferes(Value::new(a), Value::new(a)));
        for b in 0..n {
            assert_eq!(
                ig.interferes(Value::new(a), Value::new(b)),
                ig.interferes(Value::new(b), Value::new(a))
            );
        }
    }
    let _ = Block::new(0);
}
