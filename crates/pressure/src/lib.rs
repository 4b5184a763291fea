//! # fcc-pressure — certifiable static register pressure
//!
//! The paper's live-range identification machinery (dominance forests,
//! Thm 2.2 interference) supports reasoning statically about register
//! *pressure*, not just copies. Under strict SSA the interference graph
//! is chordal, so the maximum number of simultaneously live values
//! (**MaxLive**, from [`fcc_analysis::pressure::Pressure`]) equals the
//! chromatic number — pressure is a certificate of colourability, not a
//! heuristic. This crate layers on top of the cached analyses:
//!
//! * [`interference::InterferenceRelation`] — point-based interference
//!   built from the same canonical walk as the pressure analysis;
//! * [`chordal`] — derives a perfect elimination order from dominance,
//!   verifies chordality, and produces a max-clique witness plus an
//!   ω-colour greedy colouring ([`chordal::ChordalityCertificate`]),
//!   cross-checked against the brute-force
//!   [`chordal::find_chordless_cycle`] oracle in tests;
//! * [`spill::SpillCosts`] — loop-depth-weighted spill-cost estimates,
//!   the input a future cost-guided spiller consumes;
//! * [`audit::audit_allocation`] — the allocation feasibility auditor:
//!   recomputes from liveness alone that an allocator's output fits a
//!   k-register target.
//!
//! [`summarize`] bundles the per-function pipeline (pressure →
//! certificate → spill costs) behind one call for the `fcc pressure`
//! subcommand and the bench tables.

pub mod audit;
pub mod chordal;
pub mod interference;
pub mod spill;

pub use audit::{
    audit_allocation, RULE_ALLOC_CLASH, RULE_ALLOC_PRESSURE, RULE_ALLOC_RANGE,
    RULE_ALLOC_SLOT_CLASH, RULE_ALLOC_SLOT_RANGE, RULE_ALLOC_SLOT_UNINIT, RULE_ALLOC_UNCOLORED,
};
pub use chordal::{
    certify, find_chordless_cycle, verify_peo, ChordalityCertificate, ChordalityError,
};
pub use interference::InterferenceRelation;
pub use spill::SpillCosts;

use fcc_analysis::AnalysisManager;
use fcc_ir::{Block, Function};

/// Everything `fcc pressure` reports about one function.
#[derive(Clone, Debug)]
pub struct PressureSummary {
    /// Function name.
    pub name: String,
    /// Function-level maximum pressure (= χ for a certified function).
    pub maxlive: u32,
    /// First block attaining `maxlive`, if any point exists.
    pub max_block: Option<Block>,
    /// Program points visited.
    pub points: usize,
    /// Per-reachable-block maximum pressure, in layout order.
    pub block_max: Vec<(Block, u32)>,
    /// Interference edges.
    pub edges: usize,
    /// Clique number from the certificate (equals `maxlive`).
    pub omega: u32,
    /// Greedy colours along the certified order (equals `omega`).
    pub colors: u32,
    /// Sum of spill-cost estimates over all values.
    pub spill_total: f64,
}

/// Run the full pressure pipeline on one strict-SSA function, pulling
/// every analysis through the manager's cache.
///
/// # Errors
/// Propagates [`ChordalityError`] from [`certify`] — impossible on
/// well-formed strict SSA input.
pub fn summarize(
    func: &Function,
    am: &mut AnalysisManager,
) -> Result<PressureSummary, ChordalityError> {
    let cfg = am.cfg(func);
    let pressure = am.pressure(func);
    let dt = am.domtree(func);
    let loops = am.loops(func);
    let live = am.liveness(func);
    let ig = InterferenceRelation::build(func, &cfg, &live);
    let cert = certify(func, &cfg, &dt, &ig)?;
    let costs = SpillCosts::compute(func, &cfg, &loops);
    let block_max = func
        .blocks()
        .filter(|&b| cfg.is_reachable(b))
        .map(|b| (b, pressure.block_max(b)))
        .collect();
    Ok(PressureSummary {
        name: func.name.clone(),
        maxlive: pressure.maxlive(),
        max_block: pressure.max_block(),
        points: pressure.points(),
        block_max,
        edges: ig.edge_count(),
        omega: cert.omega(),
        colors: cert.colors,
        spill_total: costs.total(),
    })
}
