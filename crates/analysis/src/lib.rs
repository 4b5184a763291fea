//! # fcc-analysis — program analyses and core data structures
//!
//! Everything the coalescing algorithms consume:
//!
//! * [`bitset::BitSet`] — dense sets for interference rows and scan
//!   state;
//! * [`bitmatrix::TriangularBitMatrix`] — the `n²/2`-bit symmetric relation
//!   underlying Chaitin-style interference graphs;
//! * [`unionfind::UnionFind`] — `O(n·α(n))` disjoint sets for φ-webs and
//!   live-range identification;
//! * [`domtree::DomTree`] — Cooper–Harvey–Kennedy dominators, with the
//!   preorder / max-preorder numbering (Tarjan) that gives the O(1)
//!   dominance test used throughout the paper;
//! * [`domtree::DominanceFrontiers`] — for SSA φ placement;
//! * [`liveness::Liveness`] — φ-aware liveness by per-value path
//!   exploration, held as sorted per-block lists: φ arguments are
//!   live-out of their predecessor, never live-in at the φ's block;
//! * [`loops::LoopNesting`] — natural-loop depths for the Briggs
//!   "innermost loops first" coalescing heuristic;
//! * [`pressure::Pressure`] — per-point register pressure via the shared
//!   [`pressure::for_each_point`] walk: per-block maxima and the
//!   function-level MaxLive that certifies colourability under SSA;
//! * [`manager::AnalysisManager`] — epoch-keyed caching of all of the
//!   above (one liveness slot for SSA and φ-free code alike), with
//!   [`manager::PreservedAnalyses`]-driven invalidation, so pipelines
//!   recompute an analysis only when the function changed;
//! * [`fuel::Fuel`] — thread-installed step budgets that bound every
//!   fixpoint loop in the workspace, unwinding with a typed
//!   [`fuel::FuelExhausted`] payload the batch driver catches;
//! * [`fault`] — the one process-global fault-injection registry: every
//!   injectable failure, from a panic in a pass to a torn cache write,
//!   with the guard that tests hold while one is armed.
//!
//! ## Example
//!
//! ```
//! use fcc_ir::{parse::parse_function, ControlFlowGraph};
//! use fcc_analysis::{domtree::DomTree, liveness::Liveness};
//!
//! let f = parse_function(
//!     "function @f(0) {
//!      b0:
//!          v0 = const 1
//!          jump b1
//!      b1:
//!          return v0
//!      }",
//! ).unwrap();
//! let cfg = ControlFlowGraph::compute(&f);
//! let dt = DomTree::compute(&f, &cfg);
//! let live = Liveness::compute(&f, &cfg);
//! assert!(dt.dominates(f.entry(), fcc_ir::Block::new(1)));
//! assert!(live.is_live_out(fcc_ir::Value::new(0), f.entry()));
//! ```

pub mod bitmatrix;
pub mod bitset;
pub mod domtree;
pub mod fault;
pub mod fuel;
pub mod liveness;
pub mod loops;
pub mod manager;
pub mod pressure;
pub mod unionfind;

pub use bitmatrix::TriangularBitMatrix;
pub use bitset::BitSet;
pub use domtree::{DomTree, DominanceFrontiers};
pub use fuel::{Deadline, DeadlineExceeded, Fuel, FuelExhausted};
pub use liveness::Liveness;
pub use loops::LoopNesting;
pub use manager::{AnalysisCounters, AnalysisManager, HitMiss, PreservedAnalyses};
pub use pressure::Pressure;
pub use unionfind::{Sets, UnionFind};
