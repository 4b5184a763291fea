//! The lint rule registry.
//!
//! Each rule turns one of the paper's correctness premises into an
//! executable check over a [`Function`]. Rules pull cached analyses from
//! the shared [`AnalysisManager`] where possible and report through the
//! unified [`Diagnostic`] model; DESIGN.md maps every rule id to the
//! theorem or figure it enforces.

use std::collections::{HashMap, HashSet};

use fcc_analysis::{AnalysisManager, BitSet, UnionFind};
use fcc_core::dforest::DominanceForest;
use fcc_dataflow::FunctionAnalysis;
use fcc_ir::{Block, Diagnostic, Function, InstKind, Value};

use crate::LintStage;

/// One invariant check. Implementations must not mutate the function;
/// the manager is `&mut` only so cached analyses can be materialised.
pub trait LintRule {
    /// Stable rule identifier, used in diagnostics and JSON output.
    fn id(&self) -> &'static str;

    /// One-line description of the invariant the rule enforces.
    fn description(&self) -> &'static str;

    /// Whether the rule applies to functions at `stage`.
    fn applies(&self, stage: LintStage) -> bool;

    /// Structural rules run unconditionally and gate the rest of the
    /// suite: if one reports an error, non-structural rules are skipped.
    fn structural(&self) -> bool {
        false
    }

    /// Run the check, appending findings to `out`.
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>);
}

/// The default rule suite, in execution order. The four `range-*` and
/// four `mem-*` rules share one `fcc-dataflow` fixpoint per function
/// through the manager's memo ([`FunctionAnalysis::of`]).
pub fn default_rules() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(StructureRule),
        Box::new(PhiFreeRule),
        Box::new(StrictSsaRule),
        Box::new(PhiLivenessRule),
        Box::new(CriticalEdgeRule),
        Box::new(PhiPruningRule),
        Box::new(ParallelCopyRule),
        Box::new(DominanceForestRule),
        Box::new(DefiniteInitRule),
        Box::new(RangeSafetyRule::div_by_zero()),
        Box::new(RangeSafetyRule::shift_bounds()),
        Box::new(RangeSafetyRule::unreachable_branch()),
        Box::new(RangeSafetyRule::dead_phi_input()),
        Box::new(MemSafetyRule::oob_access()),
        Box::new(MemSafetyRule::uninit_load()),
        Box::new(MemSafetyRule::dead_store()),
        Box::new(MemSafetyRule::overlapping_store()),
    ]
}

/// Where `v`'s definition sits: its block and instruction position.
type DefSite = (Block, u32);

/// Collect each value's unique definition site over reachable blocks.
/// Multiply-defined values keep their *first* site (strict-SSA flags
/// them separately); the returned map has `None` for undefined values.
fn def_sites(func: &Function, am: &mut AnalysisManager) -> Vec<Option<DefSite>> {
    let cfg = am.cfg(func);
    let mut sites: Vec<Option<DefSite>> = vec![None; func.num_values()];
    for b in func.blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for (pos, &inst) in func.block_insts(b).iter().enumerate() {
            if let Some(d) = func.inst(inst).dst {
                if sites[d.index()].is_none() {
                    sites[d.index()] = Some((b, pos as u32));
                }
            }
        }
    }
    sites
}

/// Does the definition at `a` strictly precede (dominate) the one at `b`?
fn site_dominates(a: DefSite, b: DefSite, dt: &fcc_analysis::DomTree) -> bool {
    if a.0 == b.0 {
        a.1 < b.1
    } else {
        dt.strictly_dominates(a.0, b.0)
    }
}

// ---------------------------------------------------------------------
// structure
// ---------------------------------------------------------------------

/// Rule `structure`: the function is well-shaped (entry block, one
/// terminator per block at the end, φs at block heads, φ keys matching
/// predecessors, in-range entity references). Wraps
/// [`fcc_ir::verify::structural_diagnostics`].
pub struct StructureRule;

impl LintRule for StructureRule {
    fn id(&self) -> &'static str {
        fcc_ir::verify::RULE_STRUCTURE
    }
    fn description(&self) -> &'static str {
        "blocks, terminators, phi placement and entity references are well-formed"
    }
    fn applies(&self, _stage: LintStage) -> bool {
        true
    }
    fn structural(&self) -> bool {
        true
    }
    fn check(&self, func: &Function, _am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        out.extend(fcc_ir::verify::structural_diagnostics(func));
    }
}

// ---------------------------------------------------------------------
// phi-free
// ---------------------------------------------------------------------

/// Rule `phi-free`: after SSA destruction no φ-node may survive — a
/// leftover φ means a destruction path forgot an edge (Section 2).
pub struct PhiFreeRule;

impl LintRule for PhiFreeRule {
    fn id(&self) -> &'static str {
        "phi-free"
    }
    fn description(&self) -> &'static str {
        "destructed code contains no phi-nodes"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Final
    }
    fn check(&self, func: &Function, _am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        for b in func.blocks() {
            for phi in func.block_phis(b) {
                let dst = func.inst(phi).dst;
                let mut d =
                    Diagnostic::error(self.id(), format!("phi survived SSA destruction in {b}"))
                        .in_block(b)
                        .at_inst(phi);
                if let Some(v) = dst {
                    d = d.on_value(v);
                }
                out.push(d);
            }
        }
    }
}

// ---------------------------------------------------------------------
// strict SSA (ssa-single-def / ssa-dominance / phi-edge-dominance)
// ---------------------------------------------------------------------

/// Rules `ssa-single-def`, `ssa-dominance` and `phi-edge-dominance`:
/// every name has one reachable definition, each ordinary use is
/// strictly dominated by it, and each φ argument's definition dominates
/// the exit of the matching predecessor (Theorem 2.1). Wraps
/// [`fcc_ssa::verify::ssa_diagnostics`].
pub struct StrictSsaRule;

impl LintRule for StrictSsaRule {
    fn id(&self) -> &'static str {
        fcc_ssa::verify::RULE_DOMINANCE
    }
    fn description(&self) -> &'static str {
        "the function is strict dominance-respecting SSA"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        out.extend(fcc_ssa::verify::ssa_diagnostics(func, am));
    }
}

// ---------------------------------------------------------------------
// phi-operand-liveness
// ---------------------------------------------------------------------

/// Rule `phi-operand-liveness`: every φ argument `[p: v]` must be
/// live-out of predecessor `p` — φ uses happen at predecessor exits
/// (Section 2), and the liveness analysis must agree or interference
/// answers derived from it (Theorem 2.2) are wrong.
pub struct PhiLivenessRule;

impl LintRule for PhiLivenessRule {
    fn id(&self) -> &'static str {
        "phi-operand-liveness"
    }
    fn description(&self) -> &'static str {
        "phi operands are live-out of their predecessor blocks"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let cfg = am.cfg(func);
        let live = am.liveness(func);
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for phi in func.block_phis(b) {
                if let InstKind::Phi { args } = &func.inst(phi).kind {
                    for a in args {
                        if !live.is_live_out(a.value, a.pred) {
                            out.push(
                                Diagnostic::error(
                                    self.id(),
                                    format!(
                                        "phi operand [{}: {}] is not live-out of {}",
                                        a.pred, a.value, a.pred
                                    ),
                                )
                                .in_block(b)
                                .at_inst(phi)
                                .on_value(a.value),
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// critical-edge
// ---------------------------------------------------------------------

/// Rule `critical-edge`: a critical edge into a φ-carrying block cannot
/// host copy insertion — placing the copies in the predecessor clobbers
/// its other successors (the lost-copy problem). Destruction paths must
/// split these first, so their presence in SSA headed for destruction is
/// a warning.
pub struct CriticalEdgeRule;

impl LintRule for CriticalEdgeRule {
    fn id(&self) -> &'static str {
        "critical-edge"
    }
    fn description(&self) -> &'static str {
        "no critical edge leads into a phi-carrying block"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let cfg = am.cfg(func);
        for (p, s) in cfg.critical_edges() {
            if func.block_phis(s).next().is_some() {
                out.push(
                    Diagnostic::warning(
                        self.id(),
                        format!(
                            "critical edge {p} -> {s} carries phi moves; it must be split \
                             before copy insertion (lost-copy hazard)"
                        ),
                    )
                    .in_block(p),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// phi-pruning
// ---------------------------------------------------------------------

/// Rule `phi-pruning`: dead φs (destination never used outside the φ's
/// own self-reference) and redundant φs (all incoming values identical)
/// cost coalescing work for nothing — pruned/semi-pruned construction
/// (Section 2) should have avoided them. Warnings, not errors.
pub struct PhiPruningRule;

impl LintRule for PhiPruningRule {
    fn id(&self) -> &'static str {
        "phi-pruning"
    }
    fn description(&self) -> &'static str {
        "no dead or redundant phi-nodes"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let cfg = am.cfg(func);
        // Use counts over reachable code: ordinary uses plus φ-argument
        // uses, except that a φ referencing its own destination does not
        // keep itself alive.
        let mut uses = vec![0usize; func.num_values()];
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                data.kind.for_each_use(|v| uses[v.index()] += 1);
                if let InstKind::Phi { args } = &data.kind {
                    for a in args {
                        if Some(a.value) != data.dst {
                            uses[a.value.index()] += 1;
                        }
                    }
                }
            }
        }
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for phi in func.block_phis(b) {
                let data = func.inst(phi);
                let Some(dst) = data.dst else { continue };
                let InstKind::Phi { args } = &data.kind else {
                    continue;
                };
                if uses[dst.index()] == 0 {
                    out.push(
                        Diagnostic::warning(
                            self.id(),
                            format!("dead phi: {dst} has no uses (pruned SSA would omit it)"),
                        )
                        .in_block(b)
                        .at_inst(phi)
                        .on_value(dst),
                    );
                    continue;
                }
                let mut distinct: Vec<Value> = Vec::new();
                for a in args {
                    if a.value != dst && !distinct.contains(&a.value) {
                        distinct.push(a.value);
                    }
                }
                if distinct.len() == 1 {
                    out.push(
                        Diagnostic::warning(
                            self.id(),
                            format!("redundant phi: every operand of {dst} is {}", distinct[0]),
                        )
                        .in_block(b)
                        .at_inst(phi)
                        .on_value(dst),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// parallel-copy
// ---------------------------------------------------------------------

/// Rule `parallel-copy`: the implicit parallel copy on each edge into a
/// φ-carrying block must be well-formed — no two φs may write the same
/// destination on one edge — and cycles (swaps) are reported as notes,
/// including *virtual* swaps only visible after resolving copy chains
/// (Figure 4): the sequentialiser must break these with a temporary.
pub struct ParallelCopyRule;

impl ParallelCopyRule {
    /// Cycles of length ≥ 2 in the functional graph `dst -> src`,
    /// restricted to sources that are themselves destinations.
    fn move_cycles(moves: &[(Value, Value)]) -> Vec<Vec<Value>> {
        let dst_to_src: HashMap<Value, Value> = moves.iter().copied().collect();
        let mut state: HashMap<Value, u8> = HashMap::new(); // 1 = in path, 2 = done
        let mut cycles = Vec::new();
        for &(start, _) in moves {
            if state.contains_key(&start) {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            loop {
                match state.get(&cur) {
                    Some(1) => {
                        let pos = path.iter().position(|&v| v == cur).unwrap();
                        if path.len() - pos >= 2 {
                            cycles.push(path[pos..].to_vec());
                        }
                        break;
                    }
                    Some(_) => break,
                    None => {}
                }
                state.insert(cur, 1);
                path.push(cur);
                match dst_to_src.get(&cur) {
                    Some(&s) if s != cur && dst_to_src.contains_key(&s) => cur = s,
                    _ => break,
                }
            }
            for v in path {
                state.insert(v, 2);
            }
        }
        cycles
    }

    fn fmt_cycle(cycle: &[Value]) -> String {
        let names: Vec<String> = cycle.iter().map(|v| v.to_string()).collect();
        names.join(" <- ")
    }
}

impl LintRule for ParallelCopyRule {
    fn id(&self) -> &'static str {
        "parallel-copy"
    }
    fn description(&self) -> &'static str {
        "per-edge phi parallel copies are well-formed; swap cycles are surfaced"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let cfg = am.cfg(func);
        // Copy chains for virtual-swap resolution: dst -> src of every
        // reachable `copy`.
        let mut copy_src: HashMap<Value, Value> = HashMap::new();
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                if let (InstKind::Copy { src }, Some(d)) = (&data.kind, data.dst) {
                    copy_src.insert(d, *src);
                }
            }
        }
        let resolve = |mut v: Value| -> Value {
            let mut seen = HashSet::new();
            while let Some(&s) = copy_src.get(&v) {
                if !seen.insert(v) {
                    break;
                }
                v = s;
            }
            v
        };

        for b in func.blocks() {
            if !cfg.is_reachable(b) || func.block_phis(b).next().is_none() {
                continue;
            }
            // preds() lists one entry per edge; a branch with both arms
            // on this block contributes two identical entries.
            let mut preds: Vec<Block> = cfg.preds(b).to_vec();
            preds.sort_unstable();
            preds.dedup();
            for p in preds {
                let mut moves: Vec<(Value, Value)> = Vec::new();
                let mut dests: HashSet<Value> = HashSet::new();
                for phi in func.block_phis(b) {
                    let data = func.inst(phi);
                    let Some(dst) = data.dst else { continue };
                    let InstKind::Phi { args } = &data.kind else {
                        continue;
                    };
                    let Some(a) = args.iter().find(|a| a.pred == p) else {
                        continue; // structure rule reports the missing key
                    };
                    if !dests.insert(dst) {
                        out.push(
                            Diagnostic::error(
                                self.id(),
                                format!("parallel copy on edge {p} -> {b} writes {dst} twice"),
                            )
                            .in_block(b)
                            .at_inst(phi)
                            .on_value(dst),
                        );
                        continue;
                    }
                    moves.push((dst, a.value));
                }
                for cycle in Self::move_cycles(&moves) {
                    out.push(
                        Diagnostic::note(
                            self.id(),
                            format!(
                                "parallel copy on edge {p} -> {b} contains a swap cycle \
                                 ({}); sequentialisation needs a temporary",
                                Self::fmt_cycle(&cycle)
                            ),
                        )
                        .in_block(b),
                    );
                }
                // Virtual swaps (Figure 4): cycles that appear only after
                // substituting copy chains into the sources.
                let raw_count = Self::move_cycles(&moves).len();
                let resolved: Vec<(Value, Value)> =
                    moves.iter().map(|&(d, s)| (d, resolve(s))).collect();
                let virt = Self::move_cycles(&resolved);
                if virt.len() > raw_count {
                    for cycle in virt.into_iter().skip(raw_count) {
                        out.push(
                            Diagnostic::note(
                                self.id(),
                                format!(
                                    "parallel copy on edge {p} -> {b} contains a virtual \
                                     swap through copy chains ({}); Figure 4 applies",
                                    Self::fmt_cycle(&cycle)
                                ),
                            )
                            .in_block(b),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// dominance-forest
// ---------------------------------------------------------------------

/// Rule `dominance-forest`: for every φ web, the dominance forest
/// (Definition 3.1, Figure 1) must agree with a naive nearest-dominating-
/// member computation — each node's parent is exactly the closest other
/// member whose definition site dominates it. Lemma 3.1's edge-only
/// interference walk is sound only if this holds.
pub struct DominanceForestRule;

impl LintRule for DominanceForestRule {
    fn id(&self) -> &'static str {
        "dominance-forest"
    }
    fn description(&self) -> &'static str {
        "dominance forests match the naive nearest-dominating-member relation"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let cfg = am.cfg(func);
        let dt = am.domtree(func);
        let sites = def_sites(func, am);

        // φ webs: union each φ destination with its arguments.
        let mut uf = UnionFind::new(func.num_values());
        let mut in_web = BitSet::new(func.num_values());
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for phi in func.block_phis(b) {
                let data = func.inst(phi);
                let Some(dst) = data.dst else { continue };
                let InstKind::Phi { args } = &data.kind else {
                    continue;
                };
                in_web.insert(dst.index());
                for a in args {
                    in_web.insert(a.value.index());
                    uf.union(dst.index(), a.value.index());
                }
            }
        }

        for group in uf.groups() {
            if group.len() < 2 || !group.iter().any(|&m| in_web.contains(m)) {
                continue;
            }
            // Every member needs a reachable definition site; strict-SSA
            // reports the ones that do not, so skip the web here.
            let mut members: Vec<(Value, Block, u32)> = Vec::with_capacity(group.len());
            let mut complete = true;
            for &m in &group {
                match sites[m] {
                    Some((b, pos)) => members.push((Value::new(m), b, pos)),
                    None => complete = false,
                }
            }
            if !complete || members.len() < 2 {
                continue;
            }
            let forest = DominanceForest::build(&members, &dt);
            let nodes = forest.nodes();
            for (i, node) in nodes.iter().enumerate() {
                // Naive expected parent: the nearest member (other than
                // the node itself) whose site dominates the node's site.
                // Dominators of a site form a chain, so "nearest" is the
                // maximum under site dominance.
                let here = (node.block, node.def_pos);
                let mut expected: Option<usize> = None;
                for (j, other) in nodes.iter().enumerate() {
                    if i == j || !site_dominates((other.block, other.def_pos), here, &dt) {
                        continue;
                    }
                    expected = match expected {
                        None => Some(j),
                        Some(e)
                            if site_dominates(
                                (nodes[e].block, nodes[e].def_pos),
                                (other.block, other.def_pos),
                                &dt,
                            ) =>
                        {
                            Some(j)
                        }
                        Some(e) => Some(e),
                    };
                }
                if node.parent != expected {
                    let fmt = |idx: Option<usize>| match idx {
                        Some(k) => nodes[k].value.to_string(),
                        None => "none".to_string(),
                    };
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            format!(
                                "dominance forest disagrees with naive dominance for {}: \
                                 forest parent {}, nearest dominating member {}",
                                node.value,
                                fmt(node.parent),
                                fmt(expected)
                            ),
                        )
                        .in_block(node.block)
                        .on_value(node.value),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// definite-init
// ---------------------------------------------------------------------

/// Rule `definite-init`: every use is definitely assigned on all paths
/// from entry — forward must-dataflow over reachable blocks. In SSA this
/// is implied by dominance (Theorem 2.1), so the rule runs on pre-SSA
/// and destructed code, where it catches use-after-destruction of
/// renamed names that the SSA rules can no longer see.
pub struct DefiniteInitRule;

impl LintRule for DefiniteInitRule {
    fn id(&self) -> &'static str {
        "definite-init"
    }
    fn description(&self) -> &'static str {
        "every use is definitely assigned on all paths from entry"
    }
    fn applies(&self, stage: LintStage) -> bool {
        stage != LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let cfg = am.cfg(func);
        let n = func.num_values();
        let nb = func.num_blocks();
        let entry = func.entry();

        // Per-block kill sets (everything the block defines).
        let mut defs: Vec<BitSet> = (0..nb).map(|_| BitSet::new(n)).collect();
        for b in func.blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &inst in func.block_insts(b) {
                if let Some(d) = func.inst(inst).dst {
                    defs[b.index()].insert(d.index());
                }
            }
        }

        // Forward must-analysis: OUT[b] = (∩ OUT[preds]) ∪ defs[b], with
        // unvisited blocks at top (None). The sets shrink monotonically,
        // so a count comparison detects change exactly.
        let rpo = cfg.reverse_postorder();
        let mut outs: Vec<Option<BitSet>> = vec![None; nb];
        loop {
            let mut changed = false;
            for &b in &rpo {
                let mut inn: Option<BitSet> = if b == entry {
                    Some(BitSet::new(n))
                } else {
                    None
                };
                for &p in cfg.preds(b) {
                    if let Some(o) = &outs[p.index()] {
                        match &mut inn {
                            None => inn = Some(o.clone()),
                            Some(i) => i.intersect_with(o),
                        }
                    }
                }
                let Some(mut set) = inn else { continue };
                set.union_with(&defs[b.index()]);
                let same = outs[b.index()]
                    .as_ref()
                    .is_some_and(|old| old.count() == set.count());
                if !same {
                    outs[b.index()] = Some(set);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Check every use against the definitely-assigned-so-far set.
        for &b in &rpo {
            let mut assigned = match b == entry {
                true => BitSet::new(n),
                false => {
                    let mut inn: Option<BitSet> = None;
                    for &p in cfg.preds(b) {
                        if let Some(o) = &outs[p.index()] {
                            match &mut inn {
                                None => inn = Some(o.clone()),
                                Some(i) => i.intersect_with(o),
                            }
                        }
                    }
                    inn.unwrap_or_else(|| BitSet::new(n))
                }
            };
            for &inst in func.block_insts(b) {
                let data = func.inst(inst);
                if let InstKind::Phi { args } = &data.kind {
                    // φ uses happen at predecessor exits.
                    for a in args {
                        let ok = outs
                            .get(a.pred.index())
                            .and_then(|o| o.as_ref())
                            .is_none_or(|o| o.contains(a.value.index()));
                        if !ok {
                            out.push(
                                Diagnostic::error(
                                    self.id(),
                                    format!(
                                        "phi operand [{}: {}] is not definitely assigned \
                                         at the exit of {}",
                                        a.pred, a.value, a.pred
                                    ),
                                )
                                .in_block(b)
                                .at_inst(inst)
                                .on_value(a.value),
                            );
                        }
                    }
                } else {
                    data.kind.for_each_use(|v| {
                        if !assigned.contains(v.index()) {
                            out.push(
                                Diagnostic::error(
                                    self.id(),
                                    format!(
                                        "{v} used in {b} but not definitely assigned on \
                                         every path from entry"
                                    ),
                                )
                                .in_block(b)
                                .at_inst(inst)
                                .on_value(v),
                            );
                        }
                    });
                }
                if let Some(d) = data.dst {
                    assigned.insert(d.index());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// range-* (fcc-dataflow safety checkers)
// ---------------------------------------------------------------------

/// Rules `range-div-by-zero`, `range-shift-bounds`,
/// `range-unreachable-branch` and `range-dead-phi-input`: the
/// `fcc-dataflow` safety checkers (value ranges + known bits)
/// surfaced as stage-aware lint findings. All warning severity: the IR's
/// total semantics execute the flagged code fine, but it almost surely
/// diverges from source intent (a provably-zero divisor, a shift amount
/// outside `[0, 63]`, a branch edge or φ input no execution can take).
pub struct RangeSafetyRule {
    id: &'static str,
    description: &'static str,
}

impl RangeSafetyRule {
    fn div_by_zero() -> RangeSafetyRule {
        RangeSafetyRule {
            id: fcc_dataflow::RULE_DIV_BY_ZERO,
            description: "no division or remainder has a provably-zero divisor",
        }
    }
    fn shift_bounds() -> RangeSafetyRule {
        RangeSafetyRule {
            id: fcc_dataflow::RULE_SHIFT_RANGE,
            description: "no shift amount is provably outside [0, 63]",
        }
    }
    fn unreachable_branch() -> RangeSafetyRule {
        RangeSafetyRule {
            id: fcc_dataflow::RULE_UNREACHABLE_BRANCH,
            description: "no conditional branch has a provably-dead successor edge",
        }
    }
    fn dead_phi_input() -> RangeSafetyRule {
        RangeSafetyRule {
            id: fcc_dataflow::RULE_DEAD_PHI_INPUT,
            description: "no phi input arrives along a provably-dead edge from a live block",
        }
    }
}

impl LintRule for RangeSafetyRule {
    fn id(&self) -> &'static str {
        self.id
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn applies(&self, stage: LintStage) -> bool {
        // The sparse solvers key facts on SSA names (single defs); on
        // pre-SSA or destructed code a name has many defs and the
        // verdicts would be meaningless joins.
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        let fa = FunctionAnalysis::of(func, am);
        let diags = fa.safety_diagnostics(func);
        out.extend(diags.into_iter().filter(|d| d.rule == self.id));
    }
}

// ---------------------------------------------------------------------
// mem-* (fcc-alias memory checkers)
// ---------------------------------------------------------------------

/// Rules `mem-oob-access`, `mem-uninit-load`, `mem-dead-store` and
/// `mem-overlapping-store`: the `fcc-alias` memory checkers surfaced as
/// stage-aware lint findings. All warning severity, like the `range-*`
/// family — the flagged access runs (or traps, per the interpreter's
/// normative out-of-bounds rule) under the IR semantics, but almost
/// surely diverges from source intent.
pub struct MemSafetyRule {
    id: &'static str,
    description: &'static str,
}

impl MemSafetyRule {
    fn oob_access() -> MemSafetyRule {
        MemSafetyRule {
            id: fcc_alias::RULE_MEM_OOB,
            description: "no load or store address is provably outside memory (every \
                          execution would trap)",
        }
    }
    fn uninit_load() -> MemSafetyRule {
        MemSafetyRule {
            id: fcc_alias::RULE_MEM_UNINIT,
            description: "no load reads a fixed word that no reachable store may write",
        }
    }
    fn dead_store() -> MemSafetyRule {
        MemSafetyRule {
            id: fcc_alias::RULE_MEM_DEAD_STORE,
            description: "no store is overwritten by a must-alias store before any \
                          possible read",
        }
    }
    fn overlapping_store() -> MemSafetyRule {
        MemSafetyRule {
            id: fcc_alias::RULE_MEM_OVERLAP,
            description: "no two adjacent stores write partially-overlapping small \
                          address windows without being provably equal",
        }
    }
}

impl LintRule for MemSafetyRule {
    fn id(&self) -> &'static str {
        self.id
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn applies(&self, stage: LintStage) -> bool {
        // Alias verdicts come from the same sparse SSA fixpoints as the
        // range-* rules, with the same staging constraint.
        stage == LintStage::Ssa
    }
    fn check(&self, func: &Function, am: &mut AnalysisManager, out: &mut Vec<Diagnostic>) {
        // The memory bound is unknown at lint time, so the findings are
        // the size-independent subset (`mem-oob-access` still proves
        // negative addresses; `fcc analyze --memory-words` adds the
        // upper bound).
        let fa = FunctionAnalysis::of(func, am);
        let diags = fcc_alias::memory_diagnostics(func, &fa, None);
        out.extend(diags.into_iter().filter(|d| d.rule == self.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_function, LintStage};
    use fcc_ir::parse::parse_function;

    fn lint(src: &str, stage: LintStage) -> Vec<Diagnostic> {
        let f = parse_function(src).unwrap();
        lint_function(&f, &mut AnalysisManager::new(), stage).diagnostics
    }

    #[test]
    fn phi_liveness_flags_dead_operand() {
        // v1 is not live-out of b2: the φ in b3 names it for the b1 edge
        // only, so on the b2 edge the named value v2 is fine but we
        // corrupt it to use v1's slot via a dead self path. Simplest
        // direct corruption: operand defined on the *other* side.
        let src = "function @f(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 v2 = const 3
                 jump b3
             b3:
                 v3 = phi [b1: v1], [b2: v1]
                 return v3
             }";
        let diags = lint(src, LintStage::Ssa);
        // The b2 edge operand is not dominated (strict-SSA) and not
        // live-out of b2 (liveness): both rules agree something is wrong.
        assert!(diags.iter().any(|d| d.rule == "phi-edge-dominance"));
    }

    #[test]
    fn phi_liveness_clean_on_good_phi() {
        let src = "function @f(0) {
             b0:
                 v0 = const 1
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
             }";
        let diags = lint(src, LintStage::Ssa);
        assert!(
            diags.iter().all(|d| d.rule != "phi-operand-liveness"),
            "{diags:?}"
        );
    }

    #[test]
    fn critical_edge_with_phi_warns() {
        // b0 -> b2 is critical (b0 branches, b2 has two preds) and b2
        // carries a φ.
        let src = "function @f(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b2
             b2:
                 v2 = phi [b0: v0], [b1: v1]
                 return v2
             }";
        let diags = lint(src, LintStage::Ssa);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "critical-edge" && d.severity == fcc_ir::Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_and_redundant_phis_warn() {
        let src = "function @f(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 jump b3
             b2:
                 jump b3
             b3:
                 v1 = phi [b1: v0], [b2: v0]
                 v2 = phi [b1: v0], [b2: v0]
                 return v2
             }";
        let diags = lint(src, LintStage::Ssa);
        // v1 is dead (never used); v2 is redundant (both operands v0).
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "phi-pruning" && d.message.contains("dead phi")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "phi-pruning" && d.message.contains("redundant phi")),
            "{diags:?}"
        );
    }

    #[test]
    fn parallel_copy_swap_cycle_noted() {
        // Classic swap: on the backedge b1 -> b1 the two φs exchange
        // values.
        let src = "function @swap(1) {
             b0:
                 v0 = param 0
                 v1 = const 1
                 v2 = const 2
                 jump b1
             b1:
                 v3 = phi [b0: v1], [b1: v4]
                 v4 = phi [b0: v2], [b1: v3]
                 v5 = add v3, v4
                 v6 = lt v5, v0
                 branch v6, b1, b2
             b2:
                 return v5
             }";
        let diags = lint(src, LintStage::Ssa);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "parallel-copy" && d.message.contains("swap cycle")),
            "{diags:?}"
        );
    }

    #[test]
    fn parallel_copy_duplicate_destination_is_error() {
        // Hand-build two φs with the same destination value: the parser
        // would reject it, so construct directly.
        let mut f = fcc_ir::Function::new("dup");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let v0 = f.new_value();
        let v1 = f.new_value();
        let vd = f.new_value();
        f.append_inst(b0, InstKind::Const { imm: 1 }, Some(v0));
        f.append_inst(
            b0,
            InstKind::Branch {
                cond: v0,
                then_dst: b1,
                else_dst: b2,
            },
            None,
        );
        f.append_inst(b1, InstKind::Const { imm: 2 }, Some(v1));
        f.append_inst(b1, InstKind::Jump { dst: b2 }, None);
        f.prepend_phi(
            b2,
            vec![
                fcc_ir::PhiArg {
                    pred: b0,
                    value: v0,
                },
                fcc_ir::PhiArg {
                    pred: b1,
                    value: v1,
                },
            ],
            vd,
        );
        // Second φ writing the same destination. prepend order puts it
        // first; both φs share dst vd.
        f.prepend_phi(
            b2,
            vec![
                fcc_ir::PhiArg {
                    pred: b0,
                    value: v0,
                },
                fcc_ir::PhiArg {
                    pred: b1,
                    value: v1,
                },
            ],
            vd,
        );
        f.append_inst(b2, InstKind::Return { val: Some(vd) }, None);
        let diags = lint_function(&f, &mut AnalysisManager::new(), LintStage::Ssa).diagnostics;
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "parallel-copy" && d.message.contains("twice")),
            "{diags:?}"
        );
    }

    #[test]
    fn definite_init_catches_one_sided_def() {
        // Pre-SSA shape: v1 assigned on one arm only.
        let src = "function @f(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 jump b3
             b3:
                 return v1
             }";
        let diags = lint(src, LintStage::Cfg);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "definite-init" && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn definite_init_accepts_both_sided_def() {
        let src = "function @f(0) {
             b0:
                 v0 = const 1
                 branch v0, b1, b2
             b1:
                 v1 = const 2
                 jump b3
             b2:
                 v1 = const 3
                 jump b3
             b3:
                 return v1
             }";
        let diags = lint(src, LintStage::Cfg);
        assert!(diags.iter().all(|d| d.rule != "definite-init"), "{diags:?}");
    }

    #[test]
    fn definite_init_handles_loops() {
        let src = "function @f(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 jump b1
             b1:
                 v1 = add v1, v0
                 v2 = lt v1, v0
                 branch v2, b1, b2
             b2:
                 return v1
             }";
        let diags = lint(src, LintStage::Cfg);
        assert!(diags.iter().all(|d| d.rule != "definite-init"), "{diags:?}");
    }

    #[test]
    fn dominance_forest_rule_clean_on_loops() {
        let src = "function @f(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 jump b1
             b1:
                 v2 = phi [b0: v1], [b1: v3]
                 v3 = add v2, v0
                 v4 = lt v3, v0
                 branch v4, b1, b2
             b2:
                 return v3
             }";
        let diags = lint(src, LintStage::Ssa);
        assert!(
            diags.iter().all(|d| d.rule != "dominance-forest"),
            "{diags:?}"
        );
    }

    #[test]
    fn rule_metadata_is_populated() {
        for rule in default_rules() {
            assert!(!rule.id().is_empty());
            assert!(!rule.description().is_empty());
        }
    }

    #[test]
    fn range_rules_flag_provable_hazards_as_warnings() {
        // x % 8 under x ≥ 0 is in [0, 7]: `t < 0` takes its else edge
        // only, and the divisor of the second div is provably zero.
        let src = "function @hazard(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 v2 = ge v0, v1
                 branch v2, b1, b3
             b1:
                 v3 = const 8
                 v4 = rem v0, v3
                 v5 = lt v4, v1
                 v6 = sub v3, v3
                 v7 = div v0, v6
                 branch v5, b2, b3
             b2:
                 v8 = const 111
                 jump b3
             b3:
                 return v1
             }";
        let diags = lint(src, LintStage::Ssa);
        for rule in [
            fcc_dataflow::RULE_DIV_BY_ZERO,
            fcc_dataflow::RULE_UNREACHABLE_BRANCH,
        ] {
            assert!(
                diags
                    .iter()
                    .any(|d| d.rule == rule && d.severity == fcc_ir::Severity::Warning),
                "{rule}: {diags:?}"
            );
        }
    }

    #[test]
    fn range_rules_stay_quiet_on_clean_code() {
        let src = "function @clean(1) {
             b0:
                 v0 = param 0
                 v1 = const 2
                 v2 = div v0, v1
                 v3 = const 63
                 v4 = and v2, v3
                 return v4
             }";
        let diags = lint(src, LintStage::Ssa);
        assert!(
            diags.iter().all(|d| !d.rule.starts_with("range-")),
            "{diags:?}"
        );
    }

    #[test]
    fn range_rules_skip_non_ssa_stages() {
        // Multiply-defined names: the sparse verdicts would be garbage,
        // so the rules must not apply at the Cfg/Final stages.
        let src = "function @multi(1) {
             b0:
                 v0 = param 0
                 v1 = const 0
                 v1 = div v0, v1
                 return v1
             }";
        for stage in [LintStage::Cfg, LintStage::Final] {
            let diags = lint(src, stage);
            assert!(
                diags.iter().all(|d| !d.rule.starts_with("range-")),
                "{stage}: {diags:?}"
            );
        }
    }
}
