//! # fcc-opt — scalar optimisation passes
//!
//! The optimizer context the paper's algorithm slots into ("It can be
//! used as a standalone pass of an optimizer. It can replace the current
//! copy-insertion phase of an optimizer's SSA implementation."):
//!
//! * [`dce::dead_code_elim`] — the pass the paper invokes to clean up
//!   strictness initialisations (Section 2);
//! * [`constfold::const_fold`] — sparse constant folding with branch
//!   resolution and φ pruning (SSA);
//! * [`copyprop::copy_propagate`] — standalone copy folding (SSA);
//! * [`gvn::value_number`] — dominator-based global value numbering
//!   (Briggs–Cooper–Simpson scoped-table DVNT);
//! * [`range_fold::range_fold`] — analysis-guided folding on top of the
//!   `fcc-dataflow` sparse engine: value ranges and known bits prove
//!   constants and dead branches that syntactic folding cannot see
//!   (SSA);
//! * [`memopt`] — store-to-load forwarding, redundant-load
//!   elimination, and dead-store elimination, gated on the `fcc-alias`
//!   verdicts (SSA);
//! * [`simplify_cfg::simplify_cfg`] — block merging / jump threading,
//!   undoing the critical-edge splits once destruction no longer needs
//!   them;
//! * [`Pass`] / [`PassManager`] — a fixpoint pipeline driver that
//!   threads a shared [`fcc_analysis::AnalysisManager`] through the
//!   passes and invalidates it according to each pass's [`PassEffect`].
//!
//! ## Example
//!
//! ```
//! use fcc_ir::parse::parse_function;
//! use fcc_opt::{standard_pipeline, PassManager};
//!
//! let mut f = parse_function(
//!     "function @x(0) {
//!      b0:
//!          v0 = const 6
//!          v1 = const 7
//!          v2 = mul v0, v1
//!          v3 = add v2, v2  ; dead
//!          return v2
//!      }",
//! ).unwrap();
//! standard_pipeline().run_standalone(&mut f);
//! assert_eq!(f.live_inst_count(), 2, "const 42 + return");
//! ```

pub mod constfold;
pub mod copyprop;
pub mod dce;
pub mod gvn;
pub mod memopt;
pub mod range_fold;
pub mod simplify_cfg;

pub use constfold::{const_fold, const_fold_with, FoldStats};
pub use copyprop::copy_propagate;
pub use dce::dead_code_elim;
pub use gvn::{value_number, value_number_with, GvnStats};
pub use memopt::{
    dead_store_elim, dead_store_elim_with, redundant_load_elim, redundant_load_elim_with,
    store_forward, store_forward_web_safe_with, store_forward_with,
};
pub use range_fold::{range_fold, range_fold_with, RangeFoldStats};
pub use simplify_cfg::{simplify_cfg, simplify_cfg_with};

use fcc_analysis::{AnalysisManager, PreservedAnalyses};
use fcc_ir::Function;

/// What a pass did to the function, and which analyses it left intact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PassEffect {
    /// Whether anything changed.
    pub changed: bool,
    /// The analyses still valid for the post-pass function. Ignored when
    /// `changed` is false (everything is preserved then — even if the
    /// pass conservatively bumped the epoch, e.g. through `inst_mut`).
    pub preserved: PreservedAnalyses,
}

impl PassEffect {
    /// The pass did not touch the function.
    pub fn unchanged() -> Self {
        PassEffect {
            changed: false,
            preserved: PreservedAnalyses::All,
        }
    }

    /// The pass changed the function, keeping `preserved` valid.
    pub fn changed(preserved: PreservedAnalyses) -> Self {
        PassEffect {
            changed: true,
            preserved,
        }
    }
}

/// A named transformation over a function.
///
/// Passes pull whatever analyses they need from the [`AnalysisManager`]
/// and report what they preserved; the [`PassManager`] applies the
/// matching invalidation after each run, so a CFG-preserving rewrite
/// (constant folding without branch resolution, copy propagation, value
/// numbering) hands the still-valid dominator tree to the next pass.
pub trait Pass {
    /// Human-readable pass name, for logs and stats.
    fn name(&self) -> &'static str;
    /// Run once; report what changed and what survived.
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect;
}

/// A [`Pass`] wrapper; see [`dce::dead_code_elim`].
pub struct Dce;
impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }
    fn run(&self, func: &mut Function, _am: &mut AnalysisManager) -> PassEffect {
        if dead_code_elim(func) > 0 {
            // Deletes instructions only: every edge stays.
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// A [`Pass`] wrapper; see [`constfold::const_fold`].
pub struct ConstFold;
impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        let s = const_fold_with(func, am);
        if s.folded + s.branches_resolved + s.phis_collapsed == 0 {
            PassEffect::unchanged()
        } else if s.branches_resolved + s.blocks_removed == 0 {
            // Pure instruction rewrites: the CFG shape is untouched.
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::changed(PreservedAnalyses::None)
        }
    }
}

/// A [`Pass`] wrapper; see [`copyprop::copy_propagate`].
pub struct CopyProp;
impl Pass for CopyProp {
    fn name(&self) -> &'static str {
        "copyprop"
    }
    fn run(&self, func: &mut Function, _am: &mut AnalysisManager) -> PassEffect {
        if copy_propagate(func) > 0 {
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// A [`Pass`] wrapper; see [`gvn::value_number`].
pub struct Gvn;
impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        let s = value_number_with(func, am);
        if s.redundant_removed + s.copies_forwarded + s.phis_collapsed > 0 {
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// A [`Pass`] wrapper; see [`range_fold::range_fold`].
pub struct RangeFold;
impl Pass for RangeFold {
    fn name(&self) -> &'static str {
        "range-fold"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        let s = range_fold_with(func, am);
        if s.folded + s.branches_resolved + s.phis_collapsed == 0 {
            PassEffect::unchanged()
        } else if s.branches_resolved + s.blocks_removed == 0 {
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::changed(PreservedAnalyses::None)
        }
    }
}

/// A [`Pass`] wrapper; see [`memopt::store_forward`]. The default is
/// unrestricted; [`StoreForward::web_safe`] refuses to forward
/// φ-involved values (see [`memopt::store_forward_web_safe_with`]) and
/// is what [`copy_preserving_pipeline`] registers.
#[derive(Default)]
pub struct StoreForward {
    web_safe: bool,
}
impl StoreForward {
    /// The φ-web-preserving variant for code headed into
    /// `destruct_via_webs`.
    pub fn web_safe() -> StoreForward {
        StoreForward { web_safe: true }
    }
}
impl Pass for StoreForward {
    fn name(&self) -> &'static str {
        "store-forward"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        let n = if self.web_safe {
            memopt::store_forward_web_safe_with(func, am)
        } else {
            store_forward_with(func, am)
        };
        if n > 0 {
            // Loads become copies in place: every block and edge stays.
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// A [`Pass`] wrapper; see [`memopt::redundant_load_elim`].
pub struct RedundantLoadElim;
impl Pass for RedundantLoadElim {
    fn name(&self) -> &'static str {
        "redundant-load-elim"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        if redundant_load_elim_with(func, am) > 0 {
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// A [`Pass`] wrapper; see [`memopt::dead_store_elim`].
pub struct DeadStoreElim;
impl Pass for DeadStoreElim {
    fn name(&self) -> &'static str {
        "dead-store-elim"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        if dead_store_elim_with(func, am) > 0 {
            PassEffect::changed(PreservedAnalyses::CfgCore)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// A [`Pass`] wrapper; see [`simplify_cfg::simplify_cfg`].
pub struct SimplifyCfg;
impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplify-cfg"
    }
    fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> PassEffect {
        if simplify_cfg_with(func, am) > 0 {
            PassEffect::changed(PreservedAnalyses::None)
        } else {
            PassEffect::unchanged()
        }
    }
}

/// Per-pass totals across one pipeline run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassStat {
    /// The pass name, as reported by [`Pass::name`].
    pub name: &'static str,
    /// Rounds in which the pass reported a change.
    pub applications: usize,
    /// Net live instructions removed while this pass ran — negative
    /// when the pass grew the function (e.g. edge splitting).
    pub insts_removed: i64,
}

/// What [`PassManager::run`] reports: rounds to fixpoint plus per-pass
/// application counts and instruction deltas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Full pipeline iterations until the confirming (no-change) round.
    pub rounds: usize,
    /// One entry per pipeline pass, in pipeline order.
    pub passes: Vec<PassStat>,
}

impl RunSummary {
    /// How many rounds the named pass changed the function.
    pub fn applications(&self, name: &str) -> usize {
        self.passes
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.applications)
    }

    /// Net live instructions the named pass removed.
    pub fn insts_removed(&self, name: &str) -> i64 {
        self.passes
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.insts_removed)
    }

    /// Net live instructions removed by the whole pipeline.
    pub fn total_insts_removed(&self) -> i64 {
        self.passes.iter().map(|p| p.insts_removed).sum()
    }

    /// A one-pass-per-line breakdown for `fcc --report`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "optimiser: {} round(s), {} instruction(s) removed",
            self.rounds,
            self.total_insts_removed()
        );
        for p in &self.passes {
            let _ = writeln!(
                s,
                "  {:<12} applied {}x, removed {} instruction(s)",
                p.name, p.applications, p.insts_removed
            );
        }
        s
    }
}

/// Safety bound on full-pipeline iterations.
const MAX_ROUNDS: usize = 8;

/// Runs a pass list repeatedly until no pass changes anything.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a pass.
    pub fn with(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Run to fixpoint against a shared analysis cache. After each pass
    /// the cache is invalidated according to the pass's [`PassEffect`].
    /// The passes share one dataflow fixpoint per function state through
    /// the manager's memo, which is empty again on return.
    pub fn run(&self, func: &mut Function, am: &mut AnalysisManager) -> RunSummary {
        self.drive(func, am, |_, _, _| Ok::<(), std::convert::Infallible>(()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`Self::run`] with a private, throwaway analysis cache — for
    /// callers that have no manager of their own.
    pub fn run_standalone(&self, func: &mut Function) -> RunSummary {
        let mut am = AnalysisManager::new();
        self.run(func, &mut am)
    }

    fn fresh_stats(&self) -> Vec<PassStat> {
        self.passes
            .iter()
            .map(|p| PassStat {
                name: p.name(),
                applications: 0,
                insts_removed: 0,
            })
            .collect()
    }

    /// The fixpoint loop behind [`Self::run`] and [`Self::run_verified`]:
    /// `check(func, pass, round)` runs after every pass that changed the
    /// function, and its first error ends the run. Either way the
    /// dataflow memo is dropped before it returns.
    fn drive<E>(
        &self,
        func: &mut Function,
        am: &mut AnalysisManager,
        mut check: impl FnMut(&Function, &'static str, usize) -> Result<(), E>,
    ) -> Result<RunSummary, E> {
        let mut passes = self.fresh_stats();
        let mut rounds = MAX_ROUNDS;
        let mut outcome = Ok(());
        'rounds: for round in 1..=MAX_ROUNDS {
            let mut changed = false;
            for (i, p) in self.passes.iter().enumerate() {
                let before = func.epoch();
                let live_before = func.live_inst_count() as i64;
                fcc_analysis::fuel::set_pass(p.name());
                fcc_analysis::fault::maybe_panic(p.name());
                let effect = p.run(func, am);
                fcc_analysis::fuel::checkpoint(1);
                let mut pass_changed = effect.changed;
                let mut preserved = if pass_changed {
                    effect.preserved
                } else {
                    PreservedAnalyses::All
                };
                if fcc_analysis::fault::maybe_corrupt(p.name(), func) {
                    pass_changed = true;
                    preserved = PreservedAnalyses::None;
                }
                am.invalidate(func, before, preserved);
                if pass_changed {
                    passes[i].applications += 1;
                    passes[i].insts_removed += live_before - func.live_inst_count() as i64;
                    changed = true;
                    outcome = check(func, p.name(), round);
                    if outcome.is_err() {
                        break 'rounds;
                    }
                }
            }
            if !changed {
                rounds = round;
                break;
            }
        }
        am.clear_dataflow();
        outcome.map(|()| RunSummary { rounds, passes })
    }

    /// [`Self::run`] in `--verify-each` mode: the `fcc-lint` rule suite
    /// runs over the function before the first pass and again after
    /// every pass that changed it, at `stage`. The first error-severity
    /// diagnostic aborts the pipeline and names the offending pass (or
    /// `"<input>"` when the function was broken on arrival).
    ///
    /// Each check uses a fresh analysis cache, deliberately: a pass that
    /// lied about its [`PreservedAnalyses`] would otherwise hand the
    /// linter the same stale analyses it handed the next pass, masking
    /// the breakage the mode exists to catch.
    pub fn run_verified(
        &self,
        func: &mut Function,
        am: &mut AnalysisManager,
        stage: fcc_lint::LintStage,
    ) -> Result<RunSummary, PipelineViolation> {
        let lint = |func: &Function, pass: &'static str, round: usize| {
            let report = fcc_lint::lint_function(func, &mut AnalysisManager::new(), stage);
            if report.has_errors() {
                Err(PipelineViolation {
                    pass,
                    round,
                    report,
                })
            } else {
                Ok(())
            }
        };
        fcc_analysis::fuel::set_pass("<input>");
        if let Err(v) = lint(func, "<input>", 0) {
            am.clear_dataflow();
            return Err(v);
        }
        self.drive(func, am, lint)
    }
}

/// A `--verify-each` pipeline abort: `pass` left the function violating
/// the lint suite in `round`.
#[derive(Debug)]
pub struct PipelineViolation {
    /// The pass that broke the invariant, or `"<input>"` when the
    /// function failed the suite before any pass ran.
    pub pass: &'static str,
    /// The 1-based fixpoint round (0 for `"<input>"`).
    pub round: usize,
    /// The failing lint report.
    pub report: fcc_lint::LintReport,
}

impl std::fmt::Display for PipelineViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pass == "<input>" {
            write!(
                f,
                "function failed the lint suite before any pass ran ({} error(s))",
                self.report.error_count()
            )
        } else {
            write!(
                f,
                "pass '{}' broke a lint invariant in round {} ({} error(s))",
                self.pass,
                self.round,
                self.report.error_count()
            )
        }
    }
}

impl std::error::Error for PipelineViolation {}

/// The standard SSA optimisation pipeline: fold → propagate →
/// range-fold → memory (forward → load-elim → dead-store) → DCE →
/// simplify, to fixpoint.
pub fn standard_pipeline() -> PassManager {
    PassManager::new()
        .with(ConstFold)
        .with(CopyProp)
        .with(RangeFold)
        .with(StoreForward::default())
        .with(RedundantLoadElim)
        .with(DeadStoreElim)
        .with(Dce)
        .with(SimplifyCfg)
}

/// The standard pipeline minus copy propagation, for code headed into
/// φ-web live-range identification (`fcc_regalloc::destruct_via_webs`,
/// the Chaitin/Briggs comparator). That path is only sound while every
/// φ web corresponds to one source variable, which holds exactly as
/// long as no copy has been folded into a φ argument — `CopyProp` is
/// standalone copy folding and re-creates the interfering webs the
/// `--no-fold` flag exists to avoid, so it must stay out of this
/// pipeline. The coalescing destruction paths don't need the
/// restriction; use [`standard_pipeline`] there.
///
/// The memory passes stay in: they *introduce* plain copies (of a
/// stored or previously-loaded value) but never fold one away, and
/// φ-web unioning follows φ arguments only, so a fresh copy cannot
/// merge two source variables' webs.
pub fn copy_preserving_pipeline() -> PassManager {
    PassManager::new()
        .with(ConstFold)
        .with(RangeFold)
        .with(StoreForward::web_safe())
        .with(RedundantLoadElim)
        .with(DeadStoreElim)
        .with(Dce)
        .with(SimplifyCfg)
}

/// The aggressive SSA pipeline: value numbering added in front of the
/// standard passes.
pub fn aggressive_pipeline() -> PassManager {
    PassManager::new()
        .with(Gvn)
        .with(ConstFold)
        .with(CopyProp)
        .with(RangeFold)
        .with(StoreForward::default())
        .with(RedundantLoadElim)
        .with(DeadStoreElim)
        .with(Dce)
        .with(SimplifyCfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::verify::verify_function;

    #[test]
    fn pipeline_reaches_fixpoint_and_reports() {
        let mut f = parse_function(
            "function @p(0) {
             b0:
                 v0 = const 2
                 v1 = const 3
                 v2 = mul v0, v1
                 v3 = copy v2
                 v4 = add v3, v0
                 jump b1
             b1:
                 return v4
             }",
        )
        .unwrap();
        let summary = standard_pipeline().run_standalone(&mut f);
        assert!(summary.rounds >= 2, "fixpoint requires a confirming round");
        assert!(summary.applications("constfold") > 0);
        assert!(summary.total_insts_removed() > 0);
        verify_function(&f).unwrap();
        assert_eq!(fcc_interp::run(&f, &[]).unwrap().ret, Some(8));
        // Everything folds to `const 8; return`.
        assert_eq!(f.live_inst_count(), 2, "{f}");
        assert_eq!(f.blocks().count(), 1);
    }

    #[test]
    fn verify_each_accepts_a_clean_pipeline() {
        let mut f = parse_function(
            "function @v(1) {
             b0:
                 v0 = param 0
                 v1 = const 1
                 v2 = add v0, v1
                 v3 = copy v2
                 return v3
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let r = standard_pipeline().run_verified(&mut f, &mut am, fcc_lint::LintStage::Ssa);
        assert!(r.is_ok(), "{}", r.unwrap_err());
        verify_function(&f).unwrap();
    }

    #[test]
    fn verify_each_rejects_broken_input() {
        // Use before any definition: the input itself fails the suite.
        let mut f = parse_function(
            "function @b(0) {
             b0:
                 v1 = add v0, v0
                 return v1
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let err = standard_pipeline()
            .run_verified(&mut f, &mut am, fcc_lint::LintStage::Ssa)
            .unwrap_err();
        assert_eq!(err.pass, "<input>");
        assert_eq!(err.round, 0);
    }

    /// A deliberately wrong "φ elimination": replaces every φ with its
    /// first argument, which does not dominate the join. Seeds the
    /// dominance violation `--verify-each` exists to attribute.
    struct BogusPhiElim;
    impl Pass for BogusPhiElim {
        fn name(&self) -> &'static str {
            "bogus-phi-elim"
        }
        fn run(&self, func: &mut Function, _am: &mut AnalysisManager) -> PassEffect {
            use fcc_ir::InstKind;
            let mut replaced = false;
            let blocks: Vec<_> = func.blocks().collect();
            for b in &blocks {
                let phis: Vec<_> = func.block_phis(*b).collect();
                for phi in phis {
                    let data = func.inst(phi);
                    let dst = data.dst.expect("phi defines");
                    let InstKind::Phi { args } = &data.kind else {
                        continue;
                    };
                    let rep = args[0].value;
                    for &bb in &blocks {
                        for i in func.block_insts(bb).to_vec() {
                            let kind = &mut func.inst_mut(i).kind;
                            kind.for_each_use_mut(|v| {
                                if *v == dst {
                                    *v = rep;
                                }
                            });
                            if let InstKind::Phi { args } = kind {
                                for a in args.iter_mut() {
                                    if a.value == dst {
                                        a.value = rep;
                                    }
                                }
                            }
                        }
                    }
                    func.remove_inst(*b, phi);
                    replaced = true;
                }
            }
            if replaced {
                PassEffect::changed(PreservedAnalyses::None)
            } else {
                PassEffect::unchanged()
            }
        }
    }

    #[test]
    fn verify_each_names_the_offending_pass() {
        let mut f = parse_function(
            "function @d(1) {
             b0:
                 v0 = param 0
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 v2 = const 3
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v2]
                 return v3
             }",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let err = PassManager::new()
            .with(BogusPhiElim)
            .with(Dce)
            .run_verified(&mut f, &mut am, fcc_lint::LintStage::Ssa)
            .unwrap_err();
        assert_eq!(err.pass, "bogus-phi-elim");
        assert_eq!(err.round, 1);
        assert!(
            err.report
                .diagnostics
                .iter()
                .any(|d| d.rule == "ssa-dominance"),
            "{:?}",
            err.report
        );
        assert!(err.to_string().contains("bogus-phi-elim"));
    }

    #[test]
    fn pipeline_is_idempotent() {
        let mut f = parse_function(
            "function @i(1) {
             b0:
                 v0 = param 0
                 v1 = const 1
                 v2 = add v0, v1
                 return v2
             }",
        )
        .unwrap();
        standard_pipeline().run_standalone(&mut f);
        let once = f.to_string();
        standard_pipeline().run_standalone(&mut f);
        assert_eq!(once, f.to_string());
    }
}
