//! Chaitin-style interference-graph construction.
//!
//! The triangular bit matrix plus adjacency vectors of a classical
//! graph-colouring allocator, built by the standard backward scan: at each
//! definition, the defined value interferes with everything currently
//! live; the source of a `copy` is removed from the live set first so
//! move-related values do not get a spurious edge (Chaitin's rule, which
//! is what makes copy coalescing possible at all).
//!
//! Two build modes, mirroring Section 4.1 of the paper:
//!
//! * **full** — one node per value in the function, the textbook layout
//!   whose `n²/2`-bit matrix dominates the allocator's memory;
//! * **restricted** (the Briggs\* insight) — during the build/coalesce
//!   loop, only names involved in copy instructions can ever be queried,
//!   so the matrix is built over just those names via a compact mapping
//!   array, shrinking memory by orders of magnitude with *identical*
//!   coalescing results.
//!
//! The graph-colouring allocator does not build this graph: colouring
//! only ever asks for a value's neighbours, never whether two given
//! values interfere, so each colour round keeps deduplicated compressed
//! rows from the same scan and no matrix (`color::Graph`;
//! `tests/spill_pin.rs` checks it against `build(.., None)` every
//! round). The full layout stays the Briggs baseline's graph and the
//! Table 1 memory figure; allocations are checked by
//! `fcc_pressure::audit_allocation`, which builds no graph at all.

use fcc_analysis::{BitSet, Liveness, TriangularBitMatrix};
use fcc_ir::{ControlFlowGraph, Function, InstKind, Value};

/// An interference graph over (a subset of) a function's values.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    matrix: TriangularBitMatrix,
    adj: Vec<Vec<u32>>,
    /// value index → compact node id (`u32::MAX` = untracked).
    map: Vec<u32>,
}

const UNTRACKED: u32 = u32::MAX;

impl InterferenceGraph {
    /// Build the interference graph of the φ-free function `func`.
    ///
    /// With `restrict_to = None` every value is a node; with
    /// `Some(values)` only the given values are tracked and all other
    /// interference pairs are discarded during the scan.
    ///
    /// # Panics
    /// Panics if `func` still contains φ-nodes.
    pub fn build(
        func: &Function,
        cfg: &ControlFlowGraph,
        live: &Liveness,
        restrict_to: Option<&[Value]>,
    ) -> Self {
        assert!(
            !func.has_phis(),
            "interference graphs are built on phi-free code"
        );
        let n = func.num_values();
        let (map, dim) = match restrict_to {
            None => ((0..n as u32).collect(), n),
            Some(values) => {
                let mut map = vec![UNTRACKED; n];
                let mut dim = 0;
                for &v in values {
                    if map[v.index()] == UNTRACKED {
                        map[v.index()] = dim as u32;
                        dim += 1;
                    }
                }
                (map, dim)
            }
        };
        let mut g = InterferenceGraph {
            matrix: TriangularBitMatrix::new(dim),
            adj: vec![Vec::new(); dim],
            map,
        };

        let mut live_set = BitSet::new(n);
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            live_set.clear();
            for &v in live.live_out(b) {
                live_set.insert(v as usize);
            }
            for &inst in func.block_insts(b).iter().rev() {
                let data = func.inst(inst);
                // Chaitin's copy rule: the move source does not interfere
                // with the move destination merely because of the move.
                if let InstKind::Copy { src } = data.kind {
                    live_set.remove(src.index());
                }
                if let Some(d) = data.dst {
                    let dn = g.map[d.index()];
                    if dn != UNTRACKED {
                        for z in live_set.iter() {
                            if z == d.index() {
                                continue;
                            }
                            let zn = g.map[z];
                            if zn != UNTRACKED {
                                g.add_edge_compact(dn as usize, zn as usize);
                            }
                        }
                    }
                    live_set.remove(d.index());
                }
                data.kind.for_each_use(|u| {
                    live_set.insert(u.index());
                });
            }
        }
        g
    }

    fn add_edge_compact(&mut self, a: usize, b: usize) {
        if self.matrix.add(a, b) {
            self.adj[a].push(b as u32);
            self.adj[b].push(a as u32);
        }
    }

    /// Whether `a` and `b` are tracked and interfere.
    pub fn interferes(&self, a: Value, b: Value) -> bool {
        let an = self.map[a.index()];
        let bn = self.map[b.index()];
        an != UNTRACKED && bn != UNTRACKED && self.matrix.relates(an as usize, bn as usize)
    }

    /// Whether `v` is a node of this graph.
    pub fn is_tracked(&self, v: Value) -> bool {
        v.index() < self.map.len() && self.map[v.index()] != UNTRACKED
    }

    /// Fold `loser`'s interferences into `winner` (Chaitin's adjacency
    /// merge after coalescing the pair). Both must be tracked.
    pub fn merge_into(&mut self, winner: Value, loser: Value) {
        let w = self.map[winner.index()] as usize;
        let l = self.map[loser.index()] as usize;
        assert!(w != UNTRACKED as usize && l != UNTRACKED as usize);
        let neighbors = std::mem::take(&mut self.adj[l]);
        for &z in &neighbors {
            if z as usize != w {
                self.add_edge_compact(w, z as usize);
            }
        }
        self.adj[l] = neighbors;
    }

    /// Degree of `v` (0 if untracked).
    pub fn degree(&self, v: Value) -> usize {
        let n = self.map[v.index()];
        if n == UNTRACKED {
            0
        } else {
            self.adj[n as usize].len()
        }
    }

    /// Number of graph nodes (the matrix dimension) — `n` in the paper's
    /// `n²/2` memory analysis.
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// Number of interference edges.
    pub fn edge_count(&self) -> usize {
        self.matrix.count()
    }

    /// Bytes held by the bit matrix alone — the Table 1 metric.
    pub fn matrix_bytes(&self) -> usize {
        self.matrix.bytes()
    }

    /// Total bytes (matrix + adjacency vectors + mapping array).
    pub fn bytes(&self) -> usize {
        self.matrix.bytes()
            + self.adj.iter().map(|a| a.capacity() * 4).sum::<usize>()
            + self.adj.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.map.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;

    fn graph(text: &str, restrict: Option<&[usize]>) -> (Function, InterferenceGraph) {
        let f = parse_function(text).unwrap();
        let cfg = ControlFlowGraph::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let vals: Option<Vec<Value>> = restrict.map(|r| r.iter().map(|&i| Value::new(i)).collect());
        let g = InterferenceGraph::build(&f, &cfg, &live, vals.as_deref());
        (f, g)
    }

    const OVERLAP: &str = "
        function @o(0) {
        b0:
            v0 = const 1
            v1 = const 2
            v2 = add v0, v1
            v3 = add v2, v1
            return v3
        }";

    #[test]
    fn simultaneous_values_interfere() {
        let (_, g) = graph(OVERLAP, None);
        let v = Value::new;
        assert!(g.interferes(v(0), v(1)), "v0 and v1 both live at v2's def");
        assert!(g.interferes(v(2), v(1)), "v1 still live at v2's def");
        assert!(!g.interferes(v(0), v(3)), "v0 dead before v3");
        assert!(!g.interferes(v(0), v(2)), "v0 dies at v2's def");
    }

    #[test]
    fn copy_source_does_not_interfere_with_dest() {
        let (_, g) = graph(
            "function @c(0) {
             b0:
                 v0 = const 1
                 v1 = copy v0
                 v2 = add v1, v0
                 return v2
             }",
            None,
        );
        // v0 is used after the copy, so it IS live at v1's def — but the
        // Chaitin rule removes the move source before recording edges.
        // (A later use of v0 would re-add the interference via a later
        // def, but there is none here.)
        assert!(!g.interferes(Value::new(0), Value::new(1)));
    }

    #[test]
    fn copy_source_interferes_if_dest_redefined_region_overlaps() {
        let (_, g) = graph(
            "function @c2(0) {
             b0:
                 v0 = const 1
                 v1 = copy v0
                 v2 = add v1, v1
                 v3 = add v2, v0
                 return v3
             }",
            None,
        );
        // v0 live past v2's def: edge (v0, v2) exists even though (v0, v1)
        // is suppressed by the copy rule.
        assert!(g.interferes(Value::new(0), Value::new(2)));
        assert!(!g.interferes(Value::new(0), Value::new(1)));
    }

    #[test]
    fn cross_block_interference() {
        let (_, g) = graph(
            "function @x(0) {
             b0:
                 v0 = const 1
                 v1 = const 2
                 jump b1
             b1:
                 v2 = add v0, v1
                 return v2
             }",
            None,
        );
        assert!(g.interferes(Value::new(0), Value::new(1)));
    }

    #[test]
    fn restricted_graph_tracks_subset_only() {
        let (_, g) = graph(OVERLAP, Some(&[0, 1]));
        assert_eq!(g.dim(), 2);
        assert!(g.interferes(Value::new(0), Value::new(1)));
        assert!(!g.is_tracked(Value::new(2)));
        assert!(!g.interferes(Value::new(2), Value::new(1)));
    }

    #[test]
    fn restricted_matrix_is_smaller() {
        let (_, full) = graph(OVERLAP, None);
        let (_, small) = graph(OVERLAP, Some(&[0, 1]));
        assert!(small.matrix_bytes() <= full.matrix_bytes());
        assert!(small.dim() < full.dim());
    }

    #[test]
    fn merge_into_unions_adjacency() {
        let (_, mut g) = graph(OVERLAP, None);
        let v = Value::new;
        // v0–v1 interfere; v2–v1 interfere. Merge v2 into v0: v0 keeps its
        // edge to v1 and the degree grows by v2's other neighbours.
        assert!(!g.interferes(v(0), v(2)));
        g.merge_into(v(0), v(2));
        assert!(g.interferes(v(0), v(1)));
        // v2's only other neighbour is v1, already v0's: v1 is listed once.
        assert_eq!(g.degree(v(0)), 1);
    }

    #[test]
    fn degree_counts_unique_neighbors() {
        let (_, g) = graph(OVERLAP, None);
        assert_eq!(g.degree(Value::new(1)), 2); // v0 and v2
        assert_eq!(g.degree(Value::new(3)), 0);
    }
}
