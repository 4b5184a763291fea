//! Property tests for the SSA spiller on random programs.
//!
//! Three properties, checked over generated programs at several k:
//!
//! - **Strict SSA is preserved.** Spilling inserts `spill` after defs
//!   and fresh-named `reload`s before uses; both respect dominance, so
//!   the verifier must accept every output of both strategies.
//! - **The reported MaxLive is certified.** `SpillStats::maxlive_after`
//!   must equal the pressure analysis' MaxLive, which the chordality
//!   certifier independently confirms as the clique number ω (strict
//!   SSA interference graphs are chordal, so MaxLive = ω = χ). When the
//!   spiller claims success (`maxlive_after ≤ k`), that claim is
//!   therefore a *certificate* that k registers suffice.
//! - **Spilling is deterministic.** The same input spilled twice gives
//!   byte-identical text and identical stats — a precondition for the
//!   driver's jobs-independence guarantee and the serve cache.
//! - **The managed entry point is the same function.** `spill_to_k` and
//!   `spill_to_k_managed` on a manager that already holds the input's
//!   pressure, as `compile_function`'s does, give the same text and stats.
//! - **A function that fits is left alone.** At any k ≥ MaxLive the
//!   call changes neither the text nor the epoch and reports MaxLive
//!   before and after.

use fcc_analysis::AnalysisManager;
use fcc_ir::Function;
use fcc_pressure::summarize;
use fcc_regalloc::{spill_to_k, spill_to_k_managed, SpillStrategy};
use fcc_ssa::{build_ssa, verify_ssa, SsaFlavor};
use fcc_workloads::{generate, GenConfig};

const KS: [u32; 3] = [2, 4, 8];
const STRATEGIES: [SpillStrategy; 2] = [SpillStrategy::Everywhere, SpillStrategy::CostGuided];

fn ssa_program(seed: u64) -> Function {
    let prog = generate(seed, &GenConfig::default());
    let mut f = fcc_frontend::lower_program(&prog).expect("generated programs lower");
    build_ssa(&mut f, SsaFlavor::Pruned, true);
    verify_ssa(&f).expect("built SSA verifies");
    f
}

#[test]
fn spilling_preserves_strict_ssa() {
    for seed in 0..40u64 {
        let ssa = ssa_program(seed);
        for k in KS {
            for strategy in STRATEGIES {
                let mut f = ssa.clone();
                spill_to_k(&mut f, k, strategy);
                verify_ssa(&f).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}, k={k}, {}: spilling broke SSA: {e}",
                        strategy.label()
                    )
                });
            }
        }
    }
}

#[test]
fn post_spill_maxlive_is_certified_by_chordality() {
    for seed in 0..40u64 {
        let ssa = ssa_program(seed);
        for k in KS {
            for strategy in STRATEGIES {
                let mut f = ssa.clone();
                let stats = spill_to_k(&mut f, k, strategy);
                let mut am = AnalysisManager::new();
                let summary = summarize(&f, &mut am).unwrap_or_else(|e| {
                    panic!("seed {seed}, k={k}: post-spill SSA must stay chordal: {e}")
                });
                assert_eq!(
                    summary.maxlive,
                    stats.maxlive_after,
                    "seed {seed}, k={k}, {}: the spiller's reported MaxLive must \
                     match the pressure analysis",
                    strategy.label()
                );
                assert_eq!(
                    summary.omega, summary.maxlive,
                    "seed {seed}, k={k}: certificate ω must equal MaxLive"
                );
                // The spiller is best-effort, but when it claims success the
                // claim is certified: ω ≤ k means k registers suffice.
                if stats.maxlive_after <= k {
                    assert!(
                        summary.omega <= k,
                        "seed {seed}, k={k}: certified ω exceeds k"
                    );
                }
            }
        }
    }
}

#[test]
fn spilling_is_deterministic() {
    for seed in 0..40u64 {
        let ssa = ssa_program(seed);
        for k in KS {
            for strategy in STRATEGIES {
                let mut a = ssa.clone();
                let mut b = ssa.clone();
                let sa = spill_to_k(&mut a, k, strategy);
                let sb = spill_to_k(&mut b, k, strategy);
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "seed {seed}, k={k}, {}: spilling must be a pure function of \
                     its input",
                    strategy.label()
                );
                assert_eq!(
                    (sa.spills, sa.reloads, sa.maxlive_after),
                    (sb.spills, sb.reloads, sb.maxlive_after)
                );
            }
        }
    }
}

#[test]
fn the_managed_entry_point_matches_spill_to_k() {
    for seed in 0..40u64 {
        let ssa = ssa_program(seed);
        for k in KS {
            for strategy in STRATEGIES {
                let mut plain = ssa.clone();
                let plain_stats = spill_to_k(&mut plain, k, strategy);
                let mut managed = ssa.clone();
                let mut am = AnalysisManager::new();
                am.pressure(&managed);
                let managed_stats = spill_to_k_managed(&mut managed, k, strategy, &mut am);
                assert_eq!(
                    plain.to_string(),
                    managed.to_string(),
                    "seed {seed}, k={k}, {}",
                    strategy.label()
                );
                assert_eq!(
                    format!("{plain_stats:?}"),
                    format!("{managed_stats:?}"),
                    "seed {seed}, k={k}, {}",
                    strategy.label()
                );
            }
        }
    }
}

#[test]
fn a_function_that_fits_is_left_untouched() {
    for seed in 0..40u64 {
        let ssa = ssa_program(seed);
        let maxlive = AnalysisManager::new().pressure(&ssa).maxlive();
        for k in [maxlive.max(1), maxlive + 1, maxlive + 8] {
            for strategy in STRATEGIES {
                let mut f = ssa.clone();
                let epoch = f.epoch();
                let stats = spill_to_k(&mut f, k, strategy);
                let what = format!("seed {seed}, k={k}, {}", strategy.label());
                assert_eq!(f.epoch(), epoch, "{what}");
                assert_eq!(f.to_string(), ssa.to_string(), "{what}");
                assert_eq!(
                    (stats.maxlive_before, stats.maxlive_after),
                    (maxlive, maxlive),
                    "{what}"
                );
                assert!(stats.spilled.is_empty(), "{what}");
                assert_eq!(
                    (stats.spills, stats.reloads, stats.slots, stats.rounds),
                    (0, 0, 0, 0),
                    "{what}"
                );
            }
        }
    }
}
