//! The classical interference-graph copy coalescer (Briggs) and the
//! paper's improved variant (Briggs\*).
//!
//! Section 4.1 of the paper: the Chaitin/Briggs build/coalesce loop
//! repeatedly (1) builds the interference graph, (2) coalesces every copy
//! whose source and destination do not interfere — innermost loops first —
//! merging adjacency as it goes, and (3) rewrites the code; it stops when
//! a pass coalesces nothing. The flaw the paper identifies: the graph is
//! rebuilt over the **full** live-range namespace every pass, although
//! only names involved in copies can ever be queried. **Briggs\*** builds
//! each pass's graph over just the copy-related names through a compact
//! mapping array — same results, a fraction of the memory and time
//! (Table 1).

use std::time::{Duration, Instant};

use fcc_analysis::{AnalysisManager, UnionFind};
use fcc_ir::{Block, Function, Inst, InstKind, Value};

use crate::igraph::InterferenceGraph;

/// Which graph layout the coalescer builds each pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GraphMode {
    /// Full namespace — the original Briggs formulation.
    #[default]
    Full,
    /// Copy-related names only (the paper's Briggs\* improvement).
    Restricted,
}

/// Safety bound on build/coalesce iterations.
const MAX_PASSES: usize = 64;

/// Options for [`coalesce_copies`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BriggsOptions {
    /// Full (Briggs) or restricted (Briggs\*) graph construction.
    pub mode: GraphMode,
}

/// Per-pass measurements (Table 1 reports the first two passes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PassStats {
    /// Copies coalesced in this pass.
    pub coalesced: usize,
    /// Interference-graph nodes this pass.
    pub graph_dim: usize,
    /// Bytes of the bit matrix this pass.
    pub matrix_bytes: usize,
    /// Total graph bytes (matrix + adjacency + mapping).
    pub graph_bytes: usize,
    /// Wall-clock time of the pass (build + coalesce + rewrite).
    pub time: Duration,
}

/// Aggregate results of a coalescing run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BriggsStats {
    /// One entry per build/coalesce pass (the final, no-op pass included).
    pub passes: Vec<PassStats>,
    /// Copy instructions deleted.
    pub copies_removed: usize,
    /// Copy instructions remaining afterwards.
    pub copies_remaining: usize,
    /// Peak bytes across passes (graph + liveness), the Table 3 metric.
    pub peak_bytes: usize,
}

impl BriggsStats {
    /// Total wall-clock time across passes.
    pub fn total_time(&self) -> Duration {
        self.passes.iter().map(|p| p.time).sum()
    }

    /// Peak bit-matrix bytes across passes — the paper's Table 1 memory
    /// number.
    pub fn peak_matrix_bytes(&self) -> usize {
        self.passes
            .iter()
            .map(|p| p.matrix_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Coalesce the copy instructions of the φ-free function `func` with the
/// iterated build/coalesce loop. Returns per-pass statistics.
///
/// # Panics
/// Panics if `func` contains φ-nodes (destruct first, e.g. with
/// [`crate::webs::destruct_via_webs`]).
pub fn coalesce_copies(func: &mut Function, opts: &BriggsOptions) -> BriggsStats {
    coalesce_copies_managed(func, opts, &mut AnalysisManager::new())
}

/// [`coalesce_copies`], pulling the per-pass analyses from a shared
/// [`AnalysisManager`]. The first pass hits the cache when the caller's
/// pipeline already analysed the unmodified function; later passes
/// recompute because each rewrite bumps the epoch — exactly the repeated
/// re-analysis cost the paper charges against the Briggs loop.
pub fn coalesce_copies_managed(
    func: &mut Function,
    opts: &BriggsOptions,
    am: &mut AnalysisManager,
) -> BriggsStats {
    assert!(!func.has_phis(), "coalesce_copies expects phi-free code");
    let mut stats = BriggsStats::default();

    for _pass in 0..MAX_PASSES {
        let t0 = Instant::now();
        let cfg = am.cfg(func);
        let live = am.liveness(func);
        let loops = am.loops(func);

        // Collect copies with their loop depth.
        let mut copies: Vec<(Block, Inst, Value, Value, u32)> = Vec::new();
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &inst in func.block_insts(b) {
                if let InstKind::Copy { src } = func.inst(inst).kind {
                    let dst = func.inst(inst).dst.expect("copy defines");
                    copies.push((b, inst, dst, src, loops.depth(b)));
                }
            }
        }
        if copies.is_empty() {
            break;
        }

        let restrict: Option<Vec<Value>> = match opts.mode {
            GraphMode::Full => None,
            GraphMode::Restricted => {
                // The Briggs* mapping array: only names touched by copies
                // become graph nodes.
                let mut vals = Vec::with_capacity(copies.len() * 2);
                for &(_, _, d, s, _) in &copies {
                    vals.push(d);
                    vals.push(s);
                }
                Some(vals)
            }
        };
        let mut ig = InterferenceGraph::build(func, &cfg, &live, restrict.as_deref());

        // Coalesce, innermost loops first (the heuristic the paper notes
        // "sometimes fails ... but also sometimes wins").
        copies.sort_by_key(|c| std::cmp::Reverse(c.4));
        let mut uf = UnionFind::new(func.num_values());
        let mut coalesced = 0usize;
        for &(_, _, dst, src, _) in &copies {
            let x = Value::new(uf.find(dst.index()));
            let y = Value::new(uf.find(src.index()));
            if x == y {
                continue;
            }
            if !ig.interferes(x, y) {
                let rep = Value::new(uf.union(x.index(), y.index()));
                let loser = if rep == x { y } else { x };
                ig.merge_into(rep, loser);
                coalesced += 1;
            }
        }

        let pass_bytes = ig.bytes() + live.bytes();
        stats.peak_bytes = stats.peak_bytes.max(pass_bytes);
        stats.passes.push(PassStats {
            coalesced,
            graph_dim: ig.dim(),
            matrix_bytes: ig.matrix_bytes(),
            graph_bytes: ig.bytes(),
            time: t0.elapsed(),
        });

        if coalesced == 0 {
            break;
        }

        // Rewrite into the coalesced namespace and delete self-copies.
        func.rename_values(|v| Value::new(uf.find_immutable(v.index())));
        let blocks: Vec<Block> = func.blocks().collect();
        for b in &blocks {
            let mut removed_here = 0usize;
            func.retain_insts(*b, |_, data| {
                let drop = matches!(data.kind, InstKind::Copy { src } if data.dst == Some(src));
                if drop {
                    removed_here += 1;
                }
                !drop
            });
            stats.copies_removed += removed_here;
        }
    }

    stats.copies_remaining = func.static_copy_count();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webs::destruct_via_webs;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;
    use fcc_ssa::{build_ssa, SsaFlavor};

    /// Pipeline used by the paper's Briggs comparator: SSA without copy
    /// folding, φ-web live ranges, then iterated coalescing.
    fn briggs_pipeline(src: &str, mode: GraphMode) -> (Function, BriggsStats) {
        let mut f = parse_function(src).unwrap();
        build_ssa(&mut f, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut f);
        let stats = coalesce_copies(&mut f, &BriggsOptions { mode });
        verify_function(&f).unwrap();
        (f, stats)
    }

    const SUM: &str = "
        function @sum(1) {
        b0:
            v0 = param 0
            v1 = const 0
            v2 = const 0
            jump b1
        b1:
            v3 = lt v2, v0
            branch v3, b2, b3
        b2:
            v4 = copy v1
            v1 = add v4, v2
            v5 = const 1
            v2 = add v2, v5
            jump b1
        b3:
            return v1
        }";

    #[test]
    fn coalesces_removable_copy() {
        let (f, stats) = briggs_pipeline(SUM, GraphMode::Full);
        // v4 = copy v1 is removable: v4's range ends where v1 is redefined.
        assert_eq!(stats.copies_removed, 1);
        assert_eq!(f.static_copy_count(), 0);
        let out = fcc_interp::run(&f, &[6]).unwrap();
        assert_eq!(out.ret, Some(15));
    }

    #[test]
    fn briggs_star_identical_results() {
        let (ff, fs) = briggs_pipeline(SUM, GraphMode::Full);
        let (rf, rs) = briggs_pipeline(SUM, GraphMode::Restricted);
        assert_eq!(fs.copies_removed, rs.copies_removed);
        assert_eq!(fs.copies_remaining, rs.copies_remaining);
        assert_eq!(ff.static_copy_count(), rf.static_copy_count());
        // And the restricted graph is no larger.
        assert!(rs.peak_matrix_bytes() <= fs.peak_matrix_bytes());
    }

    #[test]
    fn copy_of_still_live_same_value_coalesces() {
        // v1 stays live after the copy, but v1 and v2 always hold the same
        // value — Chaitin's copy rule records no edge, the pair coalesces,
        // and semantics are preserved. This is the rule working as
        // designed, not a missed interference.
        let src = "
            function @samev(1) {
            b0:
                v0 = param 0
                v1 = const 3
                v2 = copy v1
                v3 = add v2, v0
                v4 = mul v3, v1
                v5 = add v4, v2
                return v5
            }";
        let mut f = parse_function(src).unwrap();
        let reference = fcc_interp::run(&f, &[4]).unwrap();
        let stats = coalesce_copies(&mut f, &BriggsOptions::default());
        assert_eq!(stats.copies_removed, 1);
        assert_eq!(f.static_copy_count(), 0);
        let out = fcc_interp::run(&f, &[4]).unwrap();
        assert_eq!(reference.behavior(), out.behavior());
    }

    #[test]
    fn necessary_copy_is_kept() {
        // The copy source v1 is REDEFINED while the destination v2 is
        // still live: the second definition of v1 records the (v1, v2)
        // interference edge, so the copy must stay.
        let src = "
            function @keep(1) {
            b0:
                v0 = param 0
                v1 = const 3
                v2 = copy v1
                v1 = add v0, v0
                v3 = add v1, v2
                return v3
            }";
        let mut f = parse_function(src).unwrap();
        let reference = fcc_interp::run(&f, &[4]).unwrap();
        let stats = coalesce_copies(&mut f, &BriggsOptions::default());
        assert_eq!(stats.copies_removed, 0);
        assert_eq!(f.static_copy_count(), 1);
        let out = fcc_interp::run(&f, &[4]).unwrap();
        assert_eq!(reference.behavior(), out.behavior());
        assert_eq!(out.ret, Some(11));
    }

    #[test]
    fn copy_chains_collapse_via_union_find() {
        // chain: v1 -> v2 -> v3. Union-find chaining lets one pass
        // coalesce both copies (find(v2) already points at v1's set when
        // the second copy is examined).
        let src = "
            function @chain(1) {
            b0:
                v0 = param 0
                v1 = add v0, v0
                v2 = copy v1
                v3 = copy v2
                v4 = add v3, v0
                return v4
            }";
        let mut f = parse_function(src).unwrap();
        let reference = fcc_interp::run(&f, &[5]).unwrap();
        let stats = coalesce_copies(&mut f, &BriggsOptions::default());
        assert_eq!(stats.copies_removed, 2);
        assert_eq!(f.static_copy_count(), 0);
        assert_eq!(stats.passes[0].coalesced, 2);
        let out = fcc_interp::run(&f, &[5]).unwrap();
        assert_eq!(reference.behavior(), out.behavior());
    }

    #[test]
    fn restricted_graph_is_much_smaller_at_scale() {
        // Many values, few copies: the Briggs* matrix should be tiny.
        let mut body = String::from("function @wide(1) {\nb0:\n v0 = param 0\n");
        let n = 200;
        for i in 1..=n {
            body.push_str(&format!(" v{i} = add v0, v0\n"));
        }
        body.push_str(&format!(" v{} = copy v{}\n", n + 1, n));
        body.push_str(&format!(" return v{}\n}}\n", n + 1));
        let mut f_full = parse_function(&body).unwrap();
        let mut f_star = f_full.clone();
        let fs = coalesce_copies(
            &mut f_full,
            &BriggsOptions {
                mode: GraphMode::Full,
            },
        );
        let rs = coalesce_copies(
            &mut f_star,
            &BriggsOptions {
                mode: GraphMode::Restricted,
            },
        );
        assert_eq!(fs.copies_removed, rs.copies_removed);
        assert!(
            rs.peak_matrix_bytes() * 100 < fs.peak_matrix_bytes(),
            "restricted {} vs full {}",
            rs.peak_matrix_bytes(),
            fs.peak_matrix_bytes()
        );
    }

    #[test]
    fn loop_depth_orders_coalescing() {
        // Two copies of the same source where only one can be coalesced;
        // the one in the loop must win under the innermost-first rule.
        let src = "
            function @depth(1) {
            b0:
                v0 = param 0
                v1 = const 7
                v6 = copy v1
                v7 = const 0
                jump b1
            b1:
                v2 = copy v1
                v8 = add v7, v2
                v7 = copy v8
                v3 = lt v7, v0
                branch v3, b1, b2
            b2:
                v5 = add v6, v7
                return v5
            }";
        let mut f = parse_function(src).unwrap();
        let reference = fcc_interp::run(&f, &[20]).unwrap();
        coalesce_copies(&mut f, &BriggsOptions::default());
        let out = fcc_interp::run(&f, &[20]).unwrap();
        assert_eq!(reference.behavior(), out.behavior());
        // The loop-resident copy v2 = copy v1 must be gone.
        let printed = f.to_string();
        let b1_section = printed
            .split("b1:")
            .nth(1)
            .unwrap()
            .split("b2:")
            .next()
            .unwrap();
        assert!(
            !b1_section.contains("copy v1"),
            "innermost copy should be coalesced:\n{printed}"
        );
    }
}
