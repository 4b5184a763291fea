//! Point-based interference: two values interfere iff they are live at a
//! common program point.
//!
//! Built directly from the canonical [`for_each_point`] walk, so "the
//! same point" means exactly what it means to the [`Pressure`] analysis
//! and the feasibility auditor. Under strict SSA this coincides with the
//! Chaitin construction (edges from each definition to the values live
//! after it): every co-live pair is live at the later definition, and
//! dead definitions get their own point.
//!
//! [`Pressure`]: fcc_analysis::pressure::Pressure

use fcc_analysis::bitset::BitSet;
use fcc_analysis::liveness::Liveness;
use fcc_analysis::pressure::for_each_point;
use fcc_ir::{ControlFlowGraph, Function, Value};

/// The symmetric interference relation, one adjacency row per value.
#[derive(Clone, Debug)]
pub struct InterferenceRelation {
    adj: Vec<BitSet>,
    occurs: BitSet,
    edges: usize,
}

impl InterferenceRelation {
    /// Build the relation from `live`, [`Liveness::compute`] of `func`,
    /// before destruction or after it.
    pub fn build(func: &Function, cfg: &ControlFlowGraph, live: &Liveness) -> Self {
        let n = func.num_values();
        let mut adj = vec![BitSet::new(n); n];
        let mut occurs = BitSet::new(n);
        for_each_point(func, cfg, live, |_, set, _| {
            for v in set.iter() {
                occurs.insert(v);
                adj[v].union_with(set);
            }
        });
        for v in occurs.iter() {
            adj[v].remove(v);
        }
        let edges = adj.iter().map(|row| row.count()).sum::<usize>() / 2;
        InterferenceRelation { adj, occurs, edges }
    }

    /// Do `a` and `b` interfere (share a program point)?
    pub fn interferes(&self, a: Value, b: Value) -> bool {
        self.adj[a.index()].contains(b.index())
    }

    /// Adjacency row of `v`, as a bitset over value indices.
    pub fn neighbors(&self, v: Value) -> &BitSet {
        &self.adj[v.index()]
    }

    /// Does `v` appear at any program point (i.e. is it defined in
    /// reachable code)?
    pub fn occurs(&self, v: Value) -> bool {
        self.occurs.contains(v.index())
    }

    /// Values that appear at some program point, ascending.
    pub fn occurring(&self) -> impl Iterator<Item = Value> + '_ {
        self.occurs.iter().map(Value::new)
    }

    /// Number of values the relation is defined over (the function's
    /// value-space size, occurring or not).
    pub fn dim(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected interference edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Borrow the raw adjacency rows (index = value index), for the
    /// graph-theoretic helpers in [`crate::chordal`].
    pub fn rows(&self) -> &[BitSet] {
        &self.adj
    }
}
