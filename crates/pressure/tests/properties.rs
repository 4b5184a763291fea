//! Property tests for the chordality machinery: the PEO verifier and the
//! certifier against the brute-force chordless-cycle oracle, and the
//! certificate's clique witness against independently recomputed
//! per-point pressure on generated programs.

use std::collections::HashSet;

use fcc_analysis::bitset::BitSet;
use fcc_analysis::{AnalysisManager, Liveness};
use fcc_ir::{ControlFlowGraph, Function};
use fcc_pressure::{find_chordless_cycle, summarize, verify_peo, InterferenceRelation};
use fcc_ssa::{build_ssa_with, verify_ssa, SsaFlavor};
use fcc_workloads::{generate, GenConfig};

/// Build symmetric adjacency rows from an edge list.
fn graph(n: usize, edges: &[(usize, usize)]) -> Vec<BitSet> {
    let mut adj = vec![BitSet::new(n); n];
    for &(a, b) in edges {
        assert_ne!(a, b);
        adj[a].insert(b);
        adj[b].insert(a);
    }
    adj
}

/// Check that `cycle` really is a chordless cycle of `adj`: length ≥ 4,
/// consecutive vertices adjacent (wrapping), all others non-adjacent.
fn assert_chordless_cycle(adj: &[BitSet], cycle: &[usize]) {
    assert!(cycle.len() >= 4, "cycle too short: {cycle:?}");
    let k = cycle.len();
    assert_eq!(
        cycle.iter().collect::<HashSet<_>>().len(),
        k,
        "repeated vertex in {cycle:?}"
    );
    for i in 0..k {
        for j in (i + 1)..k {
            let consecutive = j == i + 1 || (i == 0 && j == k - 1);
            assert_eq!(
                adj[cycle[i]].contains(cycle[j]),
                consecutive,
                "cycle {cycle:?}: pair ({}, {})",
                cycle[i],
                cycle[j]
            );
        }
    }
}

/// Maximum cardinality search: returns an elimination order that is a
/// PEO iff the graph is chordal (Tarjan & Yannakakis). The independent
/// way to order vertices, used to tie `verify_peo` to the cycle oracle.
fn mcs_order(adj: &[BitSet]) -> Vec<usize> {
    let n = adj.len();
    let mut weight = vec![0usize; n];
    let mut numbered = vec![false; n];
    let mut visit = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !numbered[v])
            .max_by_key(|&v| weight[v])
            .unwrap();
        numbered[v] = true;
        visit.push(v);
        for w in adj[v].iter() {
            if !numbered[w] {
                weight[w] += 1;
            }
        }
    }
    visit.reverse(); // elimination order = reverse of the visit order
    visit
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..=p.len() {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

#[test]
fn no_order_certifies_a_four_cycle() {
    let c4 = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    for order in permutations(4) {
        assert!(
            verify_peo(&c4, &order).is_err(),
            "C4 admitted a PEO: {order:?}"
        );
    }
    let cycle = find_chordless_cycle(&c4).expect("C4 has a chordless cycle");
    assert_chordless_cycle(&c4, &cycle);
}

#[test]
fn longer_cycles_and_embedded_holes_are_caught() {
    // C5, C6, and a C4 hidden inside a denser graph.
    let c5 = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let c6 = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    // Two triangles bridged so that 1-2-4-3 closes an induced C4.
    let embedded = graph(
        6,
        &[
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (1, 3),
            (2, 4),
        ],
    );
    for (name, g) in [("C5", &c5), ("C6", &c6), ("embedded", &embedded)] {
        let cycle =
            find_chordless_cycle(g).unwrap_or_else(|| panic!("{name}: oracle missed the hole"));
        assert_chordless_cycle(g, &cycle);
        assert!(
            verify_peo(g, &mcs_order(g)).is_err(),
            "{name}: MCS order verified on a non-chordal graph"
        );
    }
}

#[test]
fn crafted_chordal_graphs_certify() {
    // Complete graph: any order is a PEO.
    let k4 = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    assert!(verify_peo(&k4, &[0, 1, 2, 3]).is_ok());
    assert!(find_chordless_cycle(&k4).is_none());

    // A tree (star) plus an isolated vertex.
    let star = graph(5, &[(0, 1), (0, 2), (0, 3)]);
    assert!(verify_peo(&star, &[1, 2, 3, 4, 0]).is_ok());
    assert!(find_chordless_cycle(&star).is_none());

    // Two triangles sharing an edge: eliminate the simplicial tips first.
    let diamond = graph(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
    assert!(verify_peo(&diamond, &[0, 3, 1, 2]).is_ok());
    // The same graph with the shared edge eliminated first fails — a PEO
    // must take simplicial vertices first.
    assert!(verify_peo(&diamond, &[1, 0, 3, 2]).is_err());
    assert!(find_chordless_cycle(&diamond).is_none());
}

#[test]
fn mcs_verdict_matches_cycle_oracle_on_random_graphs() {
    // Deterministic xorshift-style stream; no external RNG crates.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut chordal_seen, mut holed_seen) = (0, 0);
    for round in 0..400 {
        let n = 4 + (next() % 9) as usize; // 4..=12 vertices
        let density = 16 + next() % 80; // edge probability density/128
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if next() % 128 < density {
                    edges.push((a, b));
                }
            }
        }
        let adj = graph(n, &edges);
        let order = mcs_order(&adj);
        let peo_ok = verify_peo(&adj, &order).is_ok();
        match find_chordless_cycle(&adj) {
            None => {
                chordal_seen += 1;
                assert!(peo_ok, "round {round}: chordal graph, MCS order rejected");
            }
            Some(cycle) => {
                holed_seen += 1;
                assert_chordless_cycle(&adj, &cycle);
                assert!(!peo_ok, "round {round}: hole {cycle:?}, MCS order verified");
            }
        }
    }
    // The stream must actually exercise both sides of the equivalence.
    assert!(chordal_seen > 20, "only {chordal_seen} chordal graphs seen");
    assert!(holed_seen > 20, "only {holed_seen} non-chordal graphs seen");
}

/// Independent per-point pressure: the same point conventions as
/// `fcc_analysis::pressure::for_each_point`, re-derived with hash sets
/// and scalar code instead of bitset walks.
fn brute_force_maxlive(func: &Function) -> u32 {
    let cfg = ControlFlowGraph::compute(func);
    let live = Liveness::compute(func, &cfg);
    let mut max = 0usize;
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut now: HashSet<usize> = live.live_out(b).iter().map(|&v| v as usize).collect();
        max = max.max(now.len());
        let insts = func.block_insts(b);
        let phis = insts
            .iter()
            .take_while(|&&i| func.inst(i).kind.is_phi())
            .count();
        for &i in insts[phis..].iter().rev() {
            let data = func.inst(i);
            if let Some(d) = data.dst {
                if !now.contains(&d.index()) {
                    max = max.max(now.len() + 1); // dead definition point
                }
                now.remove(&d.index());
            }
            data.kind.for_each_use(|u| {
                now.insert(u.index());
            });
            max = max.max(now.len());
        }
        if phis > 0 {
            let mut any_dead = false;
            for &i in &insts[..phis] {
                if let Some(d) = func.inst(i).dst {
                    any_dead |= now.insert(d.index());
                }
            }
            if any_dead {
                max = max.max(now.len());
            }
        }
    }
    max as u32
}

#[test]
fn certificates_match_brute_force_pressure_on_generated_programs() {
    let sizes = [
        GenConfig {
            stmts: 6,
            vars: 4,
            ..Default::default()
        },
        GenConfig::default(),
        GenConfig {
            stmts: 28,
            vars: 10,
            max_depth: 4,
            ..Default::default()
        },
    ];
    for (si, gcfg) in sizes.iter().enumerate() {
        for seed in 0..25u64 {
            let prog = generate(seed * 31 + si as u64, gcfg);
            let mut func = fcc_frontend::lower_program(&prog).expect("generated programs lower");
            let mut am = AnalysisManager::new();
            build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
            verify_ssa(&func).expect("valid SSA");

            let s = summarize(&func, &mut am)
                .unwrap_or_else(|e| panic!("size {si} seed {seed}: certification failed: {e}"));
            let brute = brute_force_maxlive(&func);
            assert_eq!(s.maxlive, brute, "size {si} seed {seed}: pressure walk");
            assert_eq!(s.omega, brute, "size {si} seed {seed}: clique witness");
            assert_eq!(s.colors, brute, "size {si} seed {seed}: greedy colouring");

            // The clique witness must be a genuine clique.
            let cfg = am.cfg(&func);
            let live = am.liveness_ssa(&func);
            let ig = InterferenceRelation::build(&func, &cfg, &live);
            let cert = fcc_pressure::certify(&func, &cfg, &am.domtree(&func), &ig)
                .expect("already certified above");
            for (i, &a) in cert.max_clique.iter().enumerate() {
                for &b in &cert.max_clique[i + 1..] {
                    assert!(
                        ig.interferes(a, b),
                        "size {si} seed {seed}: witness pair {a}, {b} does not interfere"
                    );
                }
            }
        }
    }
}

#[test]
fn ssa_interference_graphs_are_chordal_by_the_oracle() {
    // The O(n·deg²·E) cycle search is only affordable on small graphs,
    // so this cross-check runs on a dedicated tiny configuration
    // (interference graphs of ~40-140 occurring values).
    let tiny = GenConfig {
        stmts: 3,
        vars: 3,
        max_depth: 1,
        params: 1,
        max_loop: 4,
        memory_ops: true,
    };
    for seed in 0..20u64 {
        let prog = generate(seed, &tiny);
        let mut func = fcc_frontend::lower_program(&prog).expect("generated programs lower");
        let mut am = AnalysisManager::new();
        build_ssa_with(&mut func, SsaFlavor::Pruned, true, &mut am);
        verify_ssa(&func).expect("valid SSA");
        let cfg = am.cfg(&func);
        let live = am.liveness_ssa(&func);
        let ig = InterferenceRelation::build(&func, &cfg, &live);
        assert!(
            find_chordless_cycle(ig.rows()).is_none(),
            "seed {seed}: SSA interference graph has a hole"
        );
        // And certify() agrees, as it must on a chordal graph.
        let cert = fcc_pressure::certify(&func, &cfg, &am.domtree(&func), &ig)
            .unwrap_or_else(|e| panic!("seed {seed}: certification failed: {e}"));
        assert_eq!(cert.omega(), cert.colors, "seed {seed}");
    }
}
