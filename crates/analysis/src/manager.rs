//! Epoch-keyed analysis caching with preservation-aware invalidation.
//!
//! The paper's §3.7 `O(n·α(n))` bound counts only union-find / forest /
//! rewrite work: liveness and dominators are *assumed available*, the
//! shape a real compiler uses, where analyses are shared between passes.
//! [`AnalysisManager`] makes that assumption real: every consumer pulls
//! `ControlFlowGraph`, `DomTree`, [`Liveness`] (one slot for SSA and
//! φ-free code alike), [`Pressure`] and [`LoopNesting`] from one cache
//! keyed on the function's modification [epoch](fcc_ir::Function::epoch),
//! so a phase that did not change the code pays nothing for the next
//! phase's analyses.
//!
//! Passes report what they kept intact as one of three
//! [`PreservedAnalyses`] levels: a pass that rewrites instructions but
//! leaves every edge alone (constant folding without branch resolution,
//! copy propagation, GVN) reports `CfgCore`, which keeps the CFG,
//! dominator tree, and loop nesting — only liveness and pressure are
//! recomputed. [`AnalysisManager::invalidate`] re-stamps the
//! preserved entries to the post-pass epoch and drops the rest.
//!
//! Analyses are handed out as `Rc<T>` so a caller can hold several at
//! once (and keep them across further `&mut` manager calls) without
//! fighting the borrow checker; hit/miss counters and a peak-bytes
//! high-water mark make cache behaviour observable per phase (see
//! `fcc_driver::PhaseRecord`, one per pipeline phase).
//!
//! One more slot memoises a whole-function dataflow result
//! ([`AnalysisManager::dataflow`]) for a crate downstream of this one
//! (`fcc_dataflow::FunctionAnalysis`, which this crate cannot name).
//! Its facts depend on every instruction, so it is valid for exactly
//! one epoch: no [`PreservedAnalyses`] level carries it across an edit.

use std::any::Any;
use std::rc::Rc;

use fcc_ir::{ControlFlowGraph, Function};

use crate::domtree::DomTree;
use crate::liveness::Liveness;
use crate::loops::LoopNesting;
use crate::pressure::Pressure;

/// What a pass left valid, at the three levels passes report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreservedAnalyses {
    /// Nothing survives: the pass restructured control flow.
    None,
    /// The pass rewrote instructions but kept every block and edge: the
    /// CFG-derived structures (CFG, dominator tree, loop nesting) stand,
    /// while liveness — and pressure, which derives from it — is dropped.
    CfgCore,
    /// Everything survives: the pass did not change the function.
    All,
}

/// Cache hit/miss counts for one analysis kind.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct HitMiss {
    pub hits: u64,
    pub misses: u64,
}

impl std::ops::Sub for HitMiss {
    type Output = HitMiss;
    fn sub(self, rhs: HitMiss) -> HitMiss {
        HitMiss {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
        }
    }
}

impl std::ops::AddAssign for HitMiss {
    fn add_assign(&mut self, rhs: HitMiss) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
    }
}

/// Per-analysis cache counters; subtract two snapshots for a phase delta.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct AnalysisCounters {
    pub cfg: HitMiss,
    pub domtree: HitMiss,
    pub liveness: HitMiss,
    pub loops: HitMiss,
    pub pressure: HitMiss,
    /// The whole-function dataflow memo ([`AnalysisManager::dataflow`]).
    pub dataflow: HitMiss,
}

impl AnalysisCounters {
    /// Total cache hits across all analysis kinds.
    pub fn total_hits(&self) -> u64 {
        self.cfg.hits
            + self.domtree.hits
            + self.liveness.hits
            + self.loops.hits
            + self.pressure.hits
            + self.dataflow.hits
    }

    /// Total cache misses (= full recomputations) across all kinds.
    pub fn total_misses(&self) -> u64 {
        self.cfg.misses
            + self.domtree.misses
            + self.liveness.misses
            + self.loops.misses
            + self.pressure.misses
            + self.dataflow.misses
    }

    /// `(label, hits, misses)` per analysis kind, for table printers.
    pub fn rows(&self) -> [(&'static str, u64, u64); 6] {
        [
            ("cfg", self.cfg.hits, self.cfg.misses),
            ("domtree", self.domtree.hits, self.domtree.misses),
            ("liveness", self.liveness.hits, self.liveness.misses),
            ("loops", self.loops.hits, self.loops.misses),
            ("pressure", self.pressure.hits, self.pressure.misses),
            ("dataflow", self.dataflow.hits, self.dataflow.misses),
        ]
    }
}

impl std::ops::Sub for AnalysisCounters {
    type Output = AnalysisCounters;
    fn sub(self, rhs: AnalysisCounters) -> AnalysisCounters {
        AnalysisCounters {
            cfg: self.cfg - rhs.cfg,
            domtree: self.domtree - rhs.domtree,
            liveness: self.liveness - rhs.liveness,
            loops: self.loops - rhs.loops,
            pressure: self.pressure - rhs.pressure,
            dataflow: self.dataflow - rhs.dataflow,
        }
    }
}

impl std::ops::AddAssign for AnalysisCounters {
    fn add_assign(&mut self, rhs: AnalysisCounters) {
        self.cfg += rhs.cfg;
        self.domtree += rhs.domtree;
        self.liveness += rhs.liveness;
        self.loops += rhs.loops;
        self.pressure += rhs.pressure;
        self.dataflow += rhs.dataflow;
    }
}

/// One cached analysis: the epoch it was computed (or re-stamped) at,
/// plus the shared result.
struct Slot<T> {
    entry: Option<(u64, Rc<T>)>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot { entry: None }
    }
}

impl<T> Slot<T> {
    fn get(&self, epoch: u64) -> Option<Rc<T>> {
        match &self.entry {
            Some((e, rc)) if *e == epoch => Some(Rc::clone(rc)),
            _ => None,
        }
    }

    fn put(&mut self, epoch: u64, value: T) -> Rc<T> {
        let rc = Rc::new(value);
        self.entry = Some((epoch, Rc::clone(&rc)));
        rc
    }

    /// If `preserved`, keep the entry but declare it valid for `epoch`
    /// too (the pass that moved the function to `epoch` preserved this
    /// analysis); otherwise drop it.
    ///
    /// Only an entry stamped `valid_at` — the epoch the function had
    /// when the pass started — may be carried forward. An older stamp
    /// means the entry was already stale before the pass ran (e.g. an
    /// analysis computed mid-mutation by an earlier phase), and
    /// re-stamping it would launder it as fresh; such entries are
    /// dropped instead.
    fn carry(&mut self, preserved: bool, valid_at: u64, epoch: u64) {
        match &mut self.entry {
            Some((e, _)) if preserved && *e == valid_at => *e = epoch,
            _ => self.entry = None,
        }
    }

    fn clear(&mut self) {
        self.entry = None;
    }
}

/// Lazily computes and caches the standard function analyses, keyed on
/// [`Function::epoch`].
///
/// One manager serves **one function's pipeline** (clones included while
/// they stay unmodified — epochs are globally unique, so a manager can
/// never confuse two diverged functions; at worst it recomputes).
#[derive(Default)]
pub struct AnalysisManager {
    cfg: Slot<ControlFlowGraph>,
    domtree: Slot<DomTree>,
    liveness: Slot<Liveness>,
    loops: Slot<LoopNesting>,
    pressure: Slot<Pressure>,
    /// The dataflow memo: the epoch it was computed at, type-erased.
    dataflow: Option<(u64, Rc<dyn Any>)>,
    counters: AnalysisCounters,
    peak_bytes: usize,
}

impl AnalysisManager {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The control-flow graph (predecessors, successors, postorder).
    pub fn cfg(&mut self, func: &Function) -> Rc<ControlFlowGraph> {
        let epoch = func.epoch();
        if let Some(hit) = self.cfg.get(epoch) {
            self.counters.cfg.hits += 1;
            return hit;
        }
        self.counters.cfg.misses += 1;
        let rc = self.cfg.put(epoch, ControlFlowGraph::compute(func));
        self.note_bytes();
        rc
    }

    /// The dominator tree (computes and caches the CFG on the way).
    pub fn domtree(&mut self, func: &Function) -> Rc<DomTree> {
        let epoch = func.epoch();
        if let Some(hit) = self.domtree.get(epoch) {
            self.counters.domtree.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        self.counters.domtree.misses += 1;
        let rc = self.domtree.put(epoch, DomTree::compute(func, &cfg));
        self.note_bytes();
        rc
    }

    /// φ-aware liveness, one slot for SSA and φ-free code alike, so a
    /// request after destruction replaces the SSA-stage lists.
    pub fn liveness(&mut self, func: &Function) -> Rc<Liveness> {
        let epoch = func.epoch();
        if let Some(hit) = self.liveness.get(epoch) {
            self.counters.liveness.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        self.counters.liveness.misses += 1;
        let rc = self.liveness.put(epoch, Liveness::compute(func, &cfg));
        self.note_bytes();
        rc
    }

    /// [`Self::liveness`] under its old SSA-stage name; its one caller
    /// is `perfbench/src/compile.rs`.
    pub fn liveness_ssa(&mut self, func: &Function) -> Rc<Liveness> {
        self.liveness(func)
    }

    /// Natural-loop nesting (computes and caches CFG + dominators).
    pub fn loops(&mut self, func: &Function) -> Rc<LoopNesting> {
        let epoch = func.epoch();
        if let Some(hit) = self.loops.get(epoch) {
            self.counters.loops.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        let dt = self.domtree(func);
        self.counters.loops.misses += 1;
        let rc = self.loops.put(epoch, LoopNesting::compute(&cfg, &dt));
        self.note_bytes();
        rc
    }

    /// Per-point register pressure from the liveness slot (computes and
    /// caches CFG + liveness on the way), for SSA and φ-free code alike.
    pub fn pressure(&mut self, func: &Function) -> Rc<Pressure> {
        let epoch = func.epoch();
        if let Some(hit) = self.pressure.get(epoch) {
            self.counters.pressure.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        let live = self.liveness(func);
        self.counters.pressure.misses += 1;
        let rc = self
            .pressure
            .put(epoch, Pressure::compute(func, &cfg, &live));
        self.note_bytes();
        rc
    }

    /// The whole-function dataflow result of `func` at its current
    /// epoch: `compute` runs on a miss and its result is kept until the
    /// function changes. There is one slot, so a request for another
    /// type `T` replaces the entry.
    ///
    /// The entry holds the same solver state a client would otherwise
    /// allocate and free per request, so it is not tracked in
    /// [`Self::current_bytes`] or [`Self::peak_bytes`]; clients that
    /// memoise (the pass manager) drop it when they finish with
    /// [`Self::clear_dataflow`].
    pub fn dataflow<T: Any>(
        &mut self,
        func: &Function,
        compute: impl FnOnce(&Function, &mut AnalysisManager) -> T,
    ) -> Rc<T> {
        if let Some(hit) = self.cached_dataflow(func) {
            self.counters.dataflow.hits += 1;
            return hit;
        }
        self.counters.dataflow.misses += 1;
        let rc = Rc::new(compute(func, self));
        self.dataflow = Some((func.epoch(), Rc::clone(&rc) as Rc<dyn Any>));
        rc
    }

    /// Drop the dataflow memo.
    pub fn clear_dataflow(&mut self) {
        self.dataflow = None;
    }

    /// Apply a pass's preservation promise after it mutated `func`:
    /// preserved analyses are re-stamped to the new epoch, the rest are
    /// dropped. Call with the *post-pass* function; `valid_at` is the
    /// epoch the function had **before** the pass ran (snapshot it with
    /// [`Function::epoch`]). Entries stamped earlier than `valid_at`
    /// were stale before the pass started and are dropped even when
    /// nominally preserved — re-stamping them would present an analysis
    /// of some older function state as current.
    ///
    /// The dataflow memo survives only if the function did not change at
    /// all: it depends on every instruction, so no level preserves it.
    pub fn invalidate(&mut self, func: &Function, valid_at: u64, preserved: PreservedAnalyses) {
        let epoch = func.epoch();
        if matches!(self.dataflow, Some((e, _)) if e != epoch) {
            self.dataflow = None;
        }
        let (cfg_core, live) = match preserved {
            PreservedAnalyses::None => (false, false),
            PreservedAnalyses::CfgCore => (true, false),
            PreservedAnalyses::All => (true, true),
        };
        self.cfg.carry(cfg_core, valid_at, epoch);
        self.domtree.carry(cfg_core, valid_at, epoch);
        self.loops.carry(cfg_core, valid_at, epoch);
        self.liveness.carry(live, valid_at, epoch);
        self.pressure.carry(live, valid_at, epoch);
    }

    /// Drop every cached analysis (counters and peak survive).
    pub fn clear(&mut self) {
        self.dataflow = None;
        self.cfg.clear();
        self.domtree.clear();
        self.liveness.clear();
        self.loops.clear();
        self.pressure.clear();
    }

    /// Cumulative hit/miss counters.
    pub fn counters(&self) -> AnalysisCounters {
        self.counters
    }

    /// High-water mark of the cache's heap footprint, in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Current heap footprint of all cached analyses, in bytes. The
    /// dataflow memo is not counted (see [`Self::dataflow`]).
    pub fn current_bytes(&self) -> usize {
        let mut total = 0;
        if let Some((_, c)) = &self.cfg.entry {
            total += c.bytes();
        }
        if let Some((_, d)) = &self.domtree.entry {
            total += d.bytes();
        }
        if let Some((_, l)) = &self.liveness.entry {
            total += l.bytes();
        }
        if let Some((_, l)) = &self.loops.entry {
            total += l.bytes();
        }
        if let Some((_, p)) = &self.pressure.entry {
            total += p.bytes();
        }
        total
    }

    // ----- non-computing accessors (for invalidation tests) --------------

    /// The cached CFG, if one is valid for `func`'s current epoch.
    pub fn cached_cfg(&self, func: &Function) -> Option<Rc<ControlFlowGraph>> {
        self.cfg.get(func.epoch())
    }

    /// The cached dominator tree, if valid for `func`'s current epoch.
    pub fn cached_domtree(&self, func: &Function) -> Option<Rc<DomTree>> {
        self.domtree.get(func.epoch())
    }

    /// The cached liveness, if valid for `func`'s current epoch.
    pub fn cached_liveness(&self, func: &Function) -> Option<Rc<Liveness>> {
        self.liveness.get(func.epoch())
    }

    /// The cached loop nesting, if valid for `func`'s current epoch.
    pub fn cached_loops(&self, func: &Function) -> Option<Rc<LoopNesting>> {
        self.loops.get(func.epoch())
    }

    /// The memoised dataflow result, if one of type `T` is valid for
    /// `func`'s current epoch.
    pub fn cached_dataflow<T: Any>(&self, func: &Function) -> Option<Rc<T>> {
        match &self.dataflow {
            Some((e, rc)) if *e == func.epoch() => Rc::clone(rc).downcast().ok(),
            _ => None,
        }
    }

    fn note_bytes(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.current_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::InstKind;

    fn diamond() -> Function {
        parse_function(
            "function @d(1) {
             b0:
                 v0 = param 0
                 branch v0, b1, b2
             b1:
                 v1 = const 1
                 jump b3
             b2:
                 v2 = const 2
                 jump b3
             b3:
                 return v0
             }",
        )
        .unwrap()
    }

    #[test]
    fn second_query_hits() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let a = am.cfg(&f);
        let b = am.cfg(&f);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(am.counters().cfg, HitMiss { hits: 1, misses: 1 });
    }

    #[test]
    fn mutation_invalidates() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let a = am.domtree(&f);
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v));
        let b = am.domtree(&f);
        assert!(!Rc::ptr_eq(&a, &b), "stale domtree served after mutation");
        assert_eq!(am.counters().domtree.misses, 2);
    }

    #[test]
    fn domtree_primes_cfg() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.domtree(&f);
        // The CFG was computed as a dependency; asking for it now hits.
        am.cfg(&f);
        assert_eq!(am.counters().cfg, HitMiss { hits: 1, misses: 1 });
    }

    #[test]
    fn preservation_restamps() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let dt_before = am.domtree(&f);
        am.liveness(&f);
        let before = f.epoch();

        // An instruction-only rewrite: epoch moves, CFG shape intact.
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v));
        am.invalidate(&f, before, PreservedAnalyses::CfgCore);

        // Dominator tree survived (same Rc), liveness did not.
        let dt_after = am.domtree(&f);
        assert!(Rc::ptr_eq(&dt_before, &dt_after));
        assert_eq!(am.counters().domtree, HitMiss { hits: 1, misses: 1 });
        assert!(am.cached_liveness(&f).is_none());
        am.liveness(&f);
        assert_eq!(am.counters().liveness.misses, 2);
    }

    #[test]
    fn invalidate_none_drops_everything() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.cfg(&f);
        am.domtree(&f);
        am.loops(&f);
        let before = f.epoch();
        f.bump_epoch();
        am.invalidate(&f, before, PreservedAnalyses::None);
        assert!(am.cached_cfg(&f).is_none());
        assert!(am.cached_domtree(&f).is_none());
        assert!(am.cached_loops(&f).is_none());
    }

    #[test]
    fn invalidate_never_launders_pre_stale_entries() {
        // An analysis computed, then invalidated by a mutation, must not
        // be re-stamped as fresh by a later invalidate whose `valid_at`
        // postdates it — only entries valid at the pass's start epoch
        // may be carried forward.
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.liveness(&f); // stamped at epoch E0
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v)); // E1
        let before = f.epoch();
        f.bump_epoch(); // a "pass" conservatively bumps without changing anything
        am.invalidate(&f, before, PreservedAnalyses::All);
        // The liveness entry was stale already at `before`; it must be
        // dropped, not presented as valid for the current epoch.
        assert!(
            am.cached_liveness(&f).is_none(),
            "stale liveness was laundered"
        );
    }

    #[test]
    fn one_liveness_solve_serves_every_stage() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let live = am.liveness(&f);
        let alias = am.liveness_ssa(&f);
        let pressure = am.pressure(&f);
        assert!(Rc::ptr_eq(&live, &alias));
        assert_eq!(am.counters().liveness, HitMiss { hits: 2, misses: 1 });
        // The lists are counted once, beside the CFG and pressure.
        let cfg = am.cfg(&f);
        assert_eq!(
            am.current_bytes(),
            cfg.bytes() + live.bytes() + pressure.bytes()
        );
    }

    #[test]
    fn peak_bytes_grows_with_cache() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        assert_eq!(am.peak_bytes(), 0);
        am.cfg(&f);
        let after_cfg = am.peak_bytes();
        assert!(after_cfg > 0);
        am.liveness(&f);
        assert!(am.peak_bytes() >= after_cfg);
        assert!(am.current_bytes() <= am.peak_bytes());
    }

    /// A stand-in for a dataflow result: what it saw, and a compute
    /// count so the tests can tell a hit from a recompute.
    fn insts_memo(f: &Function, am: &mut AnalysisManager, computes: &mut u32) -> Rc<usize> {
        am.dataflow(f, |f, _| {
            *computes += 1;
            f.live_inst_count()
        })
    }

    #[test]
    fn dataflow_memo_is_shared_within_an_epoch() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let mut computes = 0;
        let a = insts_memo(&f, &mut am, &mut computes);
        let b = insts_memo(&f, &mut am, &mut computes);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(computes, 1);
        assert_eq!(am.counters().dataflow, HitMiss { hits: 1, misses: 1 });
        // Untracked: the memo is outside the Table 3 byte figures.
        assert_eq!(am.current_bytes(), 0);
        assert_eq!(am.peak_bytes(), 0);
    }

    #[test]
    fn no_level_restamps_the_dataflow_memo() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let mut computes = 0;
        insts_memo(&f, &mut am, &mut computes);
        am.domtree(&f);

        // An edit that keeps every edge: the domtree is carried over,
        // the memo is not, even under `All`.
        for preserved in [PreservedAnalyses::CfgCore, PreservedAnalyses::All] {
            let before = f.epoch();
            let v = f.new_value();
            f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v));
            am.invalidate(&f, before, preserved);
            assert!(am.cached_domtree(&f).is_some());
            assert!(am.cached_dataflow::<usize>(&f).is_none());
        }
        assert_eq!(*insts_memo(&f, &mut am, &mut computes), f.live_inst_count());
        assert_eq!(computes, 2);

        // An unchanged function keeps its entry through invalidate.
        let before = f.epoch();
        am.invalidate(&f, before, PreservedAnalyses::None);
        assert!(am.cached_dataflow::<usize>(&f).is_some());
        am.clear_dataflow();
        assert!(am.cached_dataflow::<usize>(&f).is_none());
    }

    #[test]
    fn distinct_functions_never_share_entries() {
        // Two structurally identical functions have different epochs, so
        // one manager recomputes rather than serving the wrong cache.
        let f = diamond();
        let g = diamond();
        let mut am = AnalysisManager::new();
        am.cfg(&f);
        assert!(am.cached_cfg(&g).is_none());
        am.cfg(&g);
        assert_eq!(am.counters().cfg, HitMiss { hits: 0, misses: 2 });
    }
}
