//! # fcc-dataflow — sparse abstract interpretation over strict SSA
//!
//! A generic dataflow engine in the style of Wegman–Zadeck SCCP,
//! generalised over a [`Lattice`] the way "Parameterized Construction
//! of Program Representations for Sparse Dataflow Analyses" (Tavares,
//! Boissinot, Pereira, Rastello) describes: strict SSA gives every name
//! a single definition dominating all uses, so facts propagate along
//! def–use edges instead of being iterated block-by-block over the
//! whole CFG — the same sparsity the paper's Theorem 2.2 exploits to
//! decide interference from per-block liveness alone.
//!
//! Two production analyses ship on the engine:
//!
//! * [`interval::RangeAnalysis`] — integer value ranges, with widening
//!   at loop headers and branch-condition refinement on CFG edges.
//!   Its transfer is exact on points, so it also does everything
//!   classic SCCP does: constants through φs whose other inputs arrive
//!   on provably-dead edges, and branch feasibility fed back into
//!   reachability;
//! * [`bits::BitsAnalysis`] — known-bits / definite-value tracking.
//!
//! [`FunctionAnalysis`] bundles both with the safety checkers
//! (provable division by zero, out-of-range shifts, unreachable branch
//! edges, dead φ inputs) that back `fcc analyze` and the `range-*` lint
//! rules; `fcc-opt`'s `range_fold` pass folds what they prove.
//!
//! ## Example
//!
//! ```
//! use fcc_ir::parse::parse_function;
//! use fcc_analysis::AnalysisManager;
//! use fcc_dataflow::{solve, Interval, RangeAnalysis};
//!
//! // if (x >= 0) { y = x % 8 } — refinement bounds y to [0, 7].
//! let f = parse_function(
//!     "function @g(1) {
//!      b0:
//!          v0 = param 0
//!          v1 = const 0
//!          v2 = ge v0, v1
//!          branch v2, b1, b2
//!      b1:
//!          v3 = const 8
//!          v4 = rem v0, v3
//!          jump b2
//!      b2:
//!          return v1
//!      }",
//! ).unwrap();
//! let mut am = AnalysisManager::new();
//! let sol = solve(&f, &mut am, &RangeAnalysis);
//! let y = fcc_ir::Value::new(4);
//! assert_eq!(*sol.fact(y), Interval { lo: 0, hi: 7 });
//! ```

pub mod bits;
pub mod interval;
pub mod lattice;
pub mod report;
pub mod solver;

pub use bits::{BitsAnalysis, KnownBits};
pub use interval::{Interval, RangeAnalysis};
pub use lattice::Lattice;
pub use report::{
    FunctionAnalysis, RULE_DEAD_PHI_INPUT, RULE_DIV_BY_ZERO, RULE_SHIFT_RANGE,
    RULE_UNREACHABLE_BRANCH,
};
pub use solver::{solve, Feasible, Solution, Transfer};

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_analysis::AnalysisManager;
    use fcc_ir::parse::parse_function;
    use fcc_ir::Value;

    #[test]
    fn ranges_fold_through_phis_on_dead_edges() {
        // branch on const 1: only the then edge executes, so the φ
        // sees one input and stays a point.
        let f = parse_function(
            "function @s(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 10
                 jump b3
             b2:
                 v2 = const 20
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v2]
                 return v3
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let sol = solve(&f, &mut am, &RangeAnalysis);
        assert_eq!(sol.fact(Value::new(3)).as_point(), Some(10));
        assert!(!sol.block_executable(fcc_ir::Block::new(2)));
    }

    #[test]
    fn interval_widens_then_refines_loop_counter() {
        // i = φ(0, i + 1) bounded by i < n: the header widens i to
        // [0, +inf], the guard caps the body view at n - 1 ≤ MAX - 1,
        // so i + 1 never wraps and the φ keeps lo = 0.
        let f = parse_function(
            "function @l(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 jump b1
             b1:
                 v2 = phi [b0: v1], [b2: v4]
                 v3 = lt v2, v0
                 branch v3, b2, b3
             b2:
                 v5 = const 1
                 v4 = add v2, v5
                 jump b1
             b3:
                 return v2
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let sol = solve(&f, &mut am, &RangeAnalysis);
        let i = sol.fact(Value::new(2));
        assert_eq!(i.lo, 0, "loop counter keeps its lower bound: {i}");
        let inc = sol.fact(Value::new(4));
        assert_eq!(inc.lo, 1, "increment stays above zero: {inc}");
    }

    #[test]
    fn refinement_proves_branch_dead() {
        // t = x % 8 with x ≥ 0 refined in: t ∈ [0,7], so `t < 0` is
        // provably false and b2 unreachable.
        let f = parse_function(
            "function @r(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 v2 = ge v0, v1
                 branch v2, b1, b4
             b1:
                 v3 = const 8
                 v4 = rem v0, v3
                 v5 = lt v4, v1
                 branch v5, b2, b3
             b2:
                 v6 = const 111
                 jump b4
             b3:
                 jump b4
             b4:
                 return v1
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let sol = solve(&f, &mut am, &RangeAnalysis);
        assert_eq!(*sol.fact(Value::new(4)), Interval { lo: 0, hi: 7 });
        assert_eq!(*sol.fact(Value::new(5)), Interval::point(0));
        assert!(!sol.block_executable(fcc_ir::Block::new(2)));
    }

    #[test]
    fn known_bits_see_through_masks() {
        let f = parse_function(
            "function @m(1) {
             b0:
                 v0 = param 0
                 v1 = const 63
                 v2 = and v0, v1
                 return v2
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let sol = solve(&f, &mut am, &BitsAnalysis);
        assert_eq!(sol.fact(Value::new(2)).zeros, !63u64);
    }

    #[test]
    fn safety_report_flags_provable_hazards() {
        let f = parse_function(
            "function @h(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 v2 = div v0, v1
                 v3 = const 100
                 v4 = shl v0, v3
                 v5 = const 1
                 branch v5, b1, b2
             b1:
                 v6 = const 7
                 jump b2
             b2:
                 v7 = phi [b0: v2], [b1: v6]
                 return v7
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let fa = FunctionAnalysis::compute(&f, &mut am);
        let diags = fa.safety_diagnostics(&f);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_DIV_BY_ZERO), "{rules:?}");
        assert!(rules.contains(&RULE_SHIFT_RANGE), "{rules:?}");
        assert!(rules.contains(&RULE_UNREACHABLE_BRANCH), "{rules:?}");
        assert!(rules.contains(&RULE_DEAD_PHI_INPUT), "{rules:?}");
        assert!(diags.iter().all(|d| !d.is_error()), "all warnings");
        let json = fa.render_json(&f, &diags);
        assert!(json.contains("\"errors\":0"), "{json}");
        let text = fa.render_text(&f, &diags);
        assert!(text.contains("reachable"), "{text}");
    }
}
