//! The combined per-function analysis result and the safety checkers.
//!
//! [`FunctionAnalysis`] runs both shipped analyses (intervals, known
//! bits) over one function and exposes the combined verdicts: per-value
//! constants/ranges, edge/block reachability (the intersection of the
//! two solutions — each is a sound over-approximation, so their
//! intersection is too), and the safety report behind `fcc analyze` and
//! the `range-*` lint rules.
//!
//! [`FunctionAnalysis::of`] is the shared entry point: one fixpoint per
//! function state, memoised in the [`AnalysisManager`] and handed to
//! every client until the function changes.

use std::rc::Rc;

use fcc_analysis::AnalysisManager;
use fcc_ir::diagnostic::json_escape;
use fcc_ir::instr::BinOp;
use fcc_ir::{Block, Diagnostic, Function, InstKind, Value};

use crate::bits::{BitsAnalysis, KnownBits};
use crate::interval::{Interval, RangeAnalysis};
use crate::solver::{solve_on, Solution, SparseGraph};

/// A `div`/`rem` whose divisor is provably zero (the IR's total
/// division makes the result 0, but the source almost surely did not
/// mean it).
pub const RULE_DIV_BY_ZERO: &str = "range-div-by-zero";
/// A shift whose amount is provably outside `[0, 63]` (hardware-masked
/// to `amount & 63`, which is rarely what the source meant).
pub const RULE_SHIFT_RANGE: &str = "range-shift-bounds";
/// A conditional branch with one provably-dead successor edge.
pub const RULE_UNREACHABLE_BRANCH: &str = "range-unreachable-branch";
/// A φ argument arriving along a provably-dead edge from a live block.
pub const RULE_DEAD_PHI_INPUT: &str = "range-dead-phi-input";

/// The two fixpoints plus combined accessors.
pub struct FunctionAnalysis {
    /// The interval solution (branch-refined).
    pub ranges: Solution<Interval>,
    /// The known-bits solution.
    pub bits: Solution<KnownBits>,
}

impl FunctionAnalysis {
    /// Run both analyses over a strict-SSA `func`, sharing one def–use
    /// graph between them. Prefer [`Self::of`], which solves once per
    /// function state.
    pub fn compute(func: &Function, am: &mut AnalysisManager) -> FunctionAnalysis {
        let g = SparseGraph::build(func, am);
        FunctionAnalysis {
            ranges: solve_on(func, &g, &RangeAnalysis),
            bits: solve_on(func, &g, &BitsAnalysis),
        }
    }

    /// The analysis of `func` as it is now: computed on the first
    /// request, then shared through `am`'s dataflow memo until `func`
    /// changes (see [`AnalysisManager::dataflow`]).
    pub fn of(func: &Function, am: &mut AnalysisManager) -> Rc<FunctionAnalysis> {
        am.dataflow(func, FunctionAnalysis::compute)
    }

    /// The constant `v` is proven to hold, by either domain.
    pub fn constant_of(&self, v: Value) -> Option<i64> {
        self.ranges
            .fact(v)
            .as_point()
            .or_else(|| self.bits.fact(v).as_const())
    }

    /// The value range of `v` (⊥ in unreachable code).
    pub fn range_of(&self, v: Value) -> Interval {
        *self.ranges.fact(v)
    }

    /// Whether some execution may reach `b` — the intersection verdict.
    pub fn block_live(&self, b: Block) -> bool {
        self.ranges.block_executable(b) && self.bits.block_executable(b)
    }

    /// Whether some execution may traverse `from → to`.
    pub fn edge_live(&self, from: Block, to: Block) -> bool {
        self.ranges.edge_executable(from, to) && self.bits.edge_executable(from, to)
    }

    /// The statically-provable safety findings, all warning-severity:
    /// each flags code that executes fine under the IR's total
    /// semantics but almost surely diverges from source intent.
    pub fn safety_diagnostics(&self, func: &Function) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for b in func.blocks() {
            if !self.block_live(b) {
                continue;
            }
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                match &data.kind {
                    InstKind::Binary { op, b: rhs, .. }
                        if matches!(op, BinOp::Div | BinOp::Rem)
                            && self.constant_of(*rhs) == Some(0) =>
                    {
                        out.push(
                            Diagnostic::warning(
                                RULE_DIV_BY_ZERO,
                                format!(
                                    "divisor {rhs} is provably zero; `{op:?}` evaluates \
                                     to 0 under total division",
                                ),
                            )
                            .in_block(b)
                            .at_inst(i)
                            .on_value(*rhs),
                        );
                    }
                    InstKind::Binary {
                        op: BinOp::Shl | BinOp::Shr,
                        b: rhs,
                        ..
                    } => {
                        let r = self.range_of(*rhs);
                        if !r.is_empty() && (r.hi < 0 || r.lo > 63) {
                            out.push(
                                Diagnostic::warning(
                                    RULE_SHIFT_RANGE,
                                    format!(
                                        "shift amount {rhs} ∈ {r} is provably outside \
                                         [0, 63]; hardware masks it to `{rhs} & 63`",
                                    ),
                                )
                                .in_block(b)
                                .at_inst(i)
                                .on_value(*rhs),
                            );
                        }
                    }
                    InstKind::Phi { args } => {
                        for a in args {
                            if self.block_live(a.pred) && !self.edge_live(a.pred, b) {
                                out.push(
                                    Diagnostic::warning(
                                        RULE_DEAD_PHI_INPUT,
                                        format!(
                                            "phi input {} arrives along the provably-dead \
                                             edge {} -> {b}",
                                            a.value, a.pred,
                                        ),
                                    )
                                    .in_block(b)
                                    .at_inst(i)
                                    .on_value(a.value),
                                );
                            }
                        }
                    }
                    InstKind::Branch {
                        cond,
                        then_dst,
                        else_dst,
                    } if then_dst != else_dst => {
                        let then_live = self.edge_live(b, *then_dst);
                        let else_live = self.edge_live(b, *else_dst);
                        if then_live != else_live {
                            let (verdict, dead) = if then_live {
                                ("nonzero", *else_dst)
                            } else {
                                ("zero", *then_dst)
                            };
                            out.push(
                                Diagnostic::warning(
                                    RULE_UNREACHABLE_BRANCH,
                                    format!(
                                        "branch condition {cond} is provably {verdict}; \
                                         the edge to {dead} can never be taken",
                                    ),
                                )
                                .in_block(b)
                                .at_inst(i)
                                .on_value(*cond),
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Per-value summary counts: `(constant, bounded, top)` over values
    /// defined in live blocks.
    fn value_census(&self, func: &Function) -> (usize, usize, usize) {
        let (mut constant, mut bounded, mut top) = (0, 0, 0);
        for (v, _) in self.live_defs(func) {
            if self.constant_of(v).is_some() {
                constant += 1;
            } else if self.range_of(v) != Interval::TOP || self.bits.fact(v).known() != 0 {
                bounded += 1;
            } else {
                top += 1;
            }
        }
        (constant, bounded, top)
    }

    /// Values defined in live blocks, in layout order.
    fn live_defs(&self, func: &Function) -> Vec<(Value, Block)> {
        let mut out = Vec::new();
        for b in func.blocks() {
            if !self.block_live(b) {
                continue;
            }
            for &i in func.block_insts(b) {
                if let Some(d) = func.inst(i).dst {
                    out.push((d, b));
                }
            }
        }
        out
    }

    /// The human-readable report `fcc analyze` prints.
    pub fn render_text(&self, func: &Function, diags: &[Diagnostic]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let total: usize = func.blocks().count();
        let live = func.blocks().filter(|&b| self.block_live(b)).count();
        let (constant, bounded, top) = self.value_census(func);
        let _ = writeln!(
            s,
            "function @{}: {live}/{total} blocks reachable; \
             {constant} constant, {bounded} bounded, {top} unbounded value(s)",
            func.name
        );
        for (v, b) in self.live_defs(func) {
            let range = self.range_of(v);
            let mut line = format!("  {v} in {b}: {range}");
            if let Some(c) = self.constant_of(v) {
                if range.as_point().is_none() {
                    let _ = write!(line, " = const {c}");
                }
            } else {
                let kb = self.bits.fact(v);
                if kb.known() != 0 && !kb.is_bottom() {
                    let _ = write!(line, " ({kb})");
                }
            }
            let _ = writeln!(s, "{line}");
        }
        if diags.is_empty() {
            let _ = writeln!(s, "safety: no findings");
        } else {
            let _ = writeln!(s, "safety: {} finding(s)", diags.len());
            for d in diags {
                let _ = writeln!(s, "  {}", d.render(func));
            }
        }
        s
    }

    /// The machine-readable report for `fcc analyze --format json`.
    pub fn render_json(&self, func: &Function, diags: &[Diagnostic]) -> String {
        use std::fmt::Write;
        let total: usize = func.blocks().count();
        let live = func.blocks().filter(|&b| self.block_live(b)).count();
        let (constant, bounded, top) = self.value_census(func);
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"function\":\"{}\",\"blocks\":{total},\"reachableBlocks\":{live},\
             \"constantValues\":{constant},\"boundedValues\":{bounded},\
             \"unboundedValues\":{top},\"values\":[",
            json_escape(&func.name)
        );
        for (k, (v, b)) in self.live_defs(func).into_iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let range = self.range_of(v);
            let _ = write!(
                s,
                "{{\"value\":\"{v}\",\"block\":\"{b}\",\"range\":{}",
                if range.is_empty() {
                    "\"empty\"".to_string()
                } else if range == Interval::TOP {
                    "\"top\"".to_string()
                } else {
                    format!("[{},{}]", range.lo, range.hi)
                }
            );
            if let Some(c) = self.constant_of(v) {
                let _ = write!(s, ",\"const\":{c}");
            }
            let kb = self.bits.fact(v);
            if kb.known() != 0 && !kb.is_bottom() && kb.as_const().is_none() {
                let _ = write!(
                    s,
                    ",\"knownZeros\":\"{:#x}\",\"knownOnes\":\"{:#x}\"",
                    kb.zeros, kb.ones
                );
            }
            s.push('}');
        }
        let errors = diags.iter().filter(|d| d.is_error()).count();
        let _ = write!(
            s,
            "],\"errors\":{errors},\"warnings\":{},\"diagnostics\":[",
            diags.len() - errors
        );
        for (k, d) in diags.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json(Some(func)));
        }
        s.push_str("]}");
        s
    }
}
