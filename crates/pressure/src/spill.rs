//! Loop-depth-weighted spill-cost estimates per live range.
//!
//! The classic Chaitin/Briggs cost model, shared by both spillers in
//! `fcc-regalloc` (the SSA-level `spill_to_k` and the colourer's
//! iterated spilling): every definition or use site of a value
//! contributes `10^min(depth, 6)` where `depth` is the loop-nesting
//! depth of the site's block. φ-arguments are uses *on the incoming
//! edge* and are charged at the predecessor's depth; φ-destinations are
//! charged at the φ's own block. These estimates are the input a
//! cost-guided spiller consumes: spilling a value saves one register at
//! every point it is live, at a runtime price proportional to its cost.

use fcc_analysis::loops::LoopNesting;
use fcc_ir::{ControlFlowGraph, Function, InstKind, Value};

/// Per-value spill-cost estimates. Costs are exact integers (sums of
/// powers of ten ≤ 10⁶) represented as `f64` for ratio comparisons.
#[derive(Clone, Debug)]
pub struct SpillCosts {
    cost: Vec<f64>,
}

impl SpillCosts {
    /// Accumulate the cost of every definition and use site in
    /// reachable blocks.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph, loops: &LoopNesting) -> SpillCosts {
        let mut cost = vec![0f64; func.num_values()];
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let w = 10f64.powi(loops.depth(b).min(6) as i32);
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                if let Some(d) = data.dst {
                    cost[d.index()] += w;
                }
                if let InstKind::Phi { args } = &data.kind {
                    for arg in args {
                        if cfg.is_reachable(arg.pred) {
                            let wp = 10f64.powi(loops.depth(arg.pred).min(6) as i32);
                            cost[arg.value.index()] += wp;
                        }
                    }
                } else {
                    data.kind.for_each_use(|u| {
                        cost[u.index()] += w;
                    });
                }
            }
        }
        SpillCosts { cost }
    }

    /// Estimated runtime cost of spilling `v`.
    pub fn cost(&self, v: Value) -> f64 {
        self.cost.get(v.index()).copied().unwrap_or(0.0)
    }

    /// Sum over all values — the corpus-pinning aggregate.
    pub fn total(&self) -> f64 {
        self.cost.iter().sum()
    }
}
