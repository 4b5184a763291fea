//! # fcc-regalloc — the classical interference-graph machinery
//!
//! Everything the paper's evaluation compares the New algorithm against,
//! plus the register allocator that consumes it:
//!
//! * [`webs::destruct_via_webs`] — live-range identification by φ-web
//!   unioning (sound on SSA built *without* copy folding);
//! * [`igraph::InterferenceGraph`] — triangular-bit-matrix interference
//!   graph with Chaitin's copy rule, in **full** or **restricted**
//!   (copy-related-names-only) layout, for the coalescers below;
//! * [`briggs::coalesce_copies`] — the iterated build/coalesce loop:
//!   [`briggs::GraphMode::Full`] is the paper's **Briggs** baseline,
//!   [`briggs::GraphMode::Restricted`] is the improved **Briggs\***
//!   (Section 4.1) with identical results and a fraction of the memory;
//! * [`color::allocate`] — a Chaitin/Briggs graph-colouring allocator
//!   with optimistic colouring and iterated spilling. It never builds the
//!   Table 1 matrix: each round colours deduplicated compressed
//!   neighbour rows, and liveness is carried across its spill rounds;
//! * [`spill::spill_to_k`] — the SSA-level spiller that lowers MaxLive to
//!   k before destruction, with one SSA liveness per call carried across
//!   its rounds, each of which re-walks only the blocks the last one
//!   touched.
//!
//! ## Example: the Briggs* pipeline
//!
//! ```
//! use fcc_ir::parse::parse_function;
//! use fcc_ssa::{build_ssa, SsaFlavor};
//! use fcc_regalloc::{destruct_via_webs, coalesce_copies, BriggsOptions, GraphMode};
//!
//! let mut f = parse_function(
//!     "function @inc(1) {
//!      b0:
//!          v0 = param 0
//!          v1 = copy v0
//!          v2 = add v1, v1
//!          return v2
//!      }",
//! ).unwrap();
//! build_ssa(&mut f, SsaFlavor::Pruned, false);
//! destruct_via_webs(&mut f);
//! let stats = coalesce_copies(&mut f, &BriggsOptions {
//!     mode: GraphMode::Restricted,
//! });
//! assert_eq!(stats.copies_removed, 1);
//! assert_eq!(f.static_copy_count(), 0);
//! ```

pub mod briggs;
pub mod color;
pub mod igraph;
pub mod spill;
pub mod webs;

pub use briggs::{
    coalesce_copies, coalesce_copies_managed, BriggsOptions, BriggsStats, GraphMode, PassStats,
};
pub use color::{allocate, allocate_managed, AllocError, AllocOptions, Allocation};
pub use igraph::InterferenceGraph;
pub use spill::{
    spill_to_k, spill_to_k_managed, weighted_spill_traffic, SpillStats, SpillStrategy,
};
pub use webs::{destruct_via_webs, destruct_via_webs_traced, WebStats};
