//! The sparse conditional worklist solver (Wegman–Zadeck style).
//!
//! Facts live on SSA names, not on program points: strict SSA gives
//! every name one definition that dominates all uses, so a fact can
//! propagate straight down def–use edges instead of being re-merged at
//! every block — the same sparsity argument that lets the paper decide
//! interference from per-block liveness alone (Theorem 2.2).
//!
//! The solver is *conditional*: it starts from the entry block only and
//! marks CFG edges executable as branch conditions admit them, so code
//! behind a provably-one-sided branch is never evaluated and φ-nodes
//! join over executable incoming edges only. On top of the classic
//! scheme it adds **branch-condition refinement**: when a conditional
//! branch tests a comparison, the taken edge implies a constraint on the
//! compared values, which is met (∧) into their facts — on the edge
//! itself for φ arguments, and over the whole dominated region when the
//! edge is the target's sole entry.
//!
//! Everything that does not depend on the lattice — def–use lists, the
//! instruction → block map, the edge numbering, the branch-refinement
//! terms and the loop headers — lives in a `SparseGraph` built once
//! per function and shared by every lattice solved over it (the shape
//! Tavares et al. describe: one sparse program representation, many
//! analyses). All of it is indexed by dense entity numbers.

use std::rc::Rc;

use fcc_analysis::AnalysisManager;
use fcc_ir::instr::BinOp;
use fcc_ir::{Block, Function, Inst, InstKind, Value};

use crate::lattice::Lattice;

/// Which successors of a conditional branch remain feasible given the
/// condition's fact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Feasible {
    /// The condition may be zero or nonzero: both edges stay live.
    Both,
    /// Provably nonzero: only the then edge.
    ThenOnly,
    /// Provably zero: only the else edge.
    ElseOnly,
    /// No evidence yet (condition still ⊥): mark nothing.
    Neither,
}

/// The abstract semantics of one analysis: a transfer function over
/// instructions, a branch-feasibility test, and (optionally) the
/// constraint a taken comparison places on its operands.
pub trait Transfer {
    /// The fact domain.
    type Fact: Lattice;

    /// Abstract semantics of one non-φ instruction. `env` yields the
    /// current (refinement-adjusted) fact of an operand; implementations
    /// should return ⊥ when any operand is still ⊥ (its definition has
    /// not been reached) and ⊤ for anything they do not model.
    fn transfer(&self, kind: &InstKind, env: &mut dyn FnMut(Value) -> Self::Fact) -> Self::Fact;

    /// Feasible successors of `branch cond, …` given `cond`'s fact.
    fn branch(&self, cond: &Self::Fact) -> Feasible;

    /// The set of values `x` may hold given that `x op other` (when
    /// `lhs`) or `other op x` (otherwise) evaluated to `taken`, as a
    /// lattice element to be met with `x`'s fact. `None` means the
    /// domain cannot express the constraint. Must be monotone in
    /// `other`: a larger `other` fact must yield a larger constraint.
    fn constraint(
        &self,
        op: BinOp,
        lhs: bool,
        taken: bool,
        other: &Self::Fact,
    ) -> Option<Self::Fact> {
        let _ = (op, lhs, taken, other);
        None
    }
}

/// A fixpoint of one analysis over one function.
pub struct Solution<F> {
    facts: Vec<F>,
    exec_block: Vec<bool>,
    /// By edge number (see [`Edges`]).
    exec_edge: Vec<bool>,
    edges: Rc<Edges>,
    /// Work items processed before the fixpoint (a cost/diagnostic
    /// figure; bounded by the saturation cap).
    pub steps: usize,
}

impl<F: Lattice> Solution<F> {
    /// The fact for `v`. Values defined in unreachable code keep ⊥.
    pub fn fact(&self, v: Value) -> &F {
        &self.facts[v.index()]
    }

    /// Whether any execution can reach `b`.
    pub fn block_executable(&self, b: Block) -> bool {
        self.exec_block.get(b.index()).copied().unwrap_or(false)
    }

    /// Whether any execution can traverse the CFG edge `from → to`.
    pub fn edge_executable(&self, from: Block, to: Block) -> bool {
        self.edges.find(from, to).is_some_and(|e| self.exec_edge[e])
    }
}

/// Lists keyed by a dense index, stored back to back: key `k` owns
/// `items[start[k]..start[k + 1]]`.
struct Lists<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Lists<T> {
    /// Group `(key, item)` pairs by key, keeping each key's items in
    /// the order given.
    fn group(keys: usize, pairs: &[(usize, T)]) -> Lists<T> {
        let mut start = vec![0u32; keys + 1];
        for &(k, _) in pairs {
            start[k + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        // Every slot is overwritten below; the input order only sizes it.
        let mut items: Vec<T> = pairs.iter().map(|&(_, item)| item).collect();
        let mut next = start.clone();
        for &(k, item) in pairs {
            items[next[k] as usize] = item;
            next[k] += 1;
        }
        Lists { start, items }
    }

    /// The positions of key `k`'s items.
    fn span(&self, k: usize) -> std::ops::Range<usize> {
        self.start[k] as usize..self.start[k + 1] as usize
    }

    fn get(&self, k: usize) -> &[T] {
        &self.items[self.span(k)]
    }
}

/// The CFG edges: each block's distinct successors in terminator order,
/// numbered by their position in these lists, so an edge set is a
/// `Vec<bool>`.
struct Edges(Lists<Block>);

impl Edges {
    fn of(func: &Function) -> Edges {
        let mut succs = Vec::with_capacity(2 * func.num_blocks());
        for b in func.blocks() {
            match func.terminator(b).map(|t| &func.inst(t).kind) {
                Some(&InstKind::Jump { dst }) => succs.push((b.index(), dst)),
                Some(&InstKind::Branch {
                    then_dst, else_dst, ..
                }) => {
                    succs.push((b.index(), then_dst));
                    if else_dst != then_dst {
                        succs.push((b.index(), else_dst));
                    }
                }
                _ => {}
            }
        }
        Edges(Lists::group(func.num_blocks(), &succs))
    }

    fn count(&self) -> usize {
        self.0.items.len()
    }

    /// The edges leaving `b`.
    fn leaving(&self, b: Block) -> std::ops::Range<usize> {
        self.0.span(b.index())
    }

    /// The edge `from → to`, if the CFG has it.
    fn find(&self, from: Block, to: Block) -> Option<usize> {
        if from.index() >= self.0.start.len() - 1 {
            return None;
        }
        self.leaving(from).find(|&e| self.0.items[e] == to)
    }
}

/// One branch-implied constraint on `value`.
#[derive(Clone, Copy)]
struct RefTerm {
    value: Value,
    op: BinOp,
    /// Whether `value` is the left operand of the comparison.
    lhs: bool,
    /// The truth value the comparison took along the edge.
    taken: bool,
    other: RefOther,
}

#[derive(Clone, Copy)]
enum RefOther {
    Val(Value),
    /// The literal zero the branch itself tests against.
    Zero,
}

fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// φ updates widen early at loop headers, late everywhere else (the
/// safety net for shapes the loop analysis does not classify).
const WIDEN_AT_HEADER: u16 = 3;
const WIDEN_ANYWHERE: u16 = 16;

/// The lattice-independent half of a solve over one strict-SSA
/// function: built once, then shared by every lattice solved over it.
/// It depends on every instruction, so it is only valid for the
/// function state it was built from.
pub(crate) struct SparseGraph {
    /// Dominator-tree preorder number of each block; `u32::MAX` for
    /// unreachable ones.
    preorder: Vec<u32>,
    edges: Rc<Edges>,
    /// Instructions reading each value (φs included), in layout order.
    uses: Lists<Inst>,
    /// The block of each linked instruction, by instruction number.
    inst_block: Vec<Option<Block>>,
    /// Constraints on each value, each valid in the region dominated by
    /// its root block: at the blocks whose preorder number lies in the
    /// root's `[preorder, max_preorder]` span.
    region_refs: Lists<([u32; 2], RefTerm)>,
    /// Constraints applying to φ arguments along each edge.
    edge_refs: Lists<RefTerm>,
    /// `other → refined values`: when `other`'s fact rises, every use of
    /// the refined value must be revisited.
    refine_deps: Lists<Value>,
    is_header: Vec<bool>,
}

impl SparseGraph {
    /// Build the shared structure of `func`, pulling the CFG, dominator
    /// tree, and loop nesting from `am`.
    pub(crate) fn build(func: &Function, am: &mut AnalysisManager) -> SparseGraph {
        let cfg = am.cfg(func);
        let dt = am.domtree(func);
        let loops = am.loops(func);

        let nv = func.num_values();
        let nb = func.num_blocks();
        let mut uses: Vec<(usize, Inst)> = Vec::with_capacity(2 * func.num_insts());
        let mut inst_block = vec![None; func.num_insts()];
        let mut def_of: Vec<Option<Inst>> = vec![None; nv];
        for b in func.blocks() {
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                inst_block[i.index()] = Some(b);
                if let Some(d) = data.dst {
                    def_of[d.index()] = Some(i);
                }
                data.kind.for_each_use(|v| uses.push((v.index(), i)));
                if let InstKind::Phi { args } = &data.kind {
                    for a in args {
                        uses.push((a.value.index(), i));
                    }
                }
            }
        }
        let edges = Edges::of(func);

        // Harvest branch-implied constraints once: they depend only on
        // the instructions and CFG shape.
        let mut region_refs: Vec<(usize, ([u32; 2], RefTerm))> = Vec::new();
        let mut edge_refs: Vec<(usize, RefTerm)> = Vec::new();
        let mut refine_deps: Vec<(usize, Value)> = Vec::new();
        for b in func.blocks() {
            let Some(term) = func.terminator(b) else {
                continue;
            };
            let InstKind::Branch {
                cond,
                then_dst,
                else_dst,
            } = func.inst(term).kind
            else {
                continue;
            };
            if then_dst == else_dst {
                continue;
            }
            for (succ, edge_taken) in [(then_dst, true), (else_dst, false)] {
                let mut terms = vec![RefTerm {
                    value: cond,
                    op: if edge_taken { BinOp::Ne } else { BinOp::Eq },
                    lhs: true,
                    taken: true,
                    other: RefOther::Zero,
                }];
                if let Some(di) = def_of[cond.index()] {
                    if let InstKind::Binary { op, a, b: rhs } = func.inst(di).kind {
                        if is_comparison(op) && a != rhs {
                            terms.push(RefTerm {
                                value: a,
                                op,
                                lhs: true,
                                taken: edge_taken,
                                other: RefOther::Val(rhs),
                            });
                            terms.push(RefTerm {
                                value: rhs,
                                op,
                                lhs: false,
                                taken: edge_taken,
                                other: RefOther::Val(a),
                            });
                        }
                    }
                }
                for t in &terms {
                    if let RefOther::Val(o) = t.other {
                        refine_deps.push((o.index(), t.value));
                    }
                }
                let e = edges.find(b, succ).expect("a branch target is an edge");
                edge_refs.extend(terms.iter().map(|&t| (e, t)));
                // The constraint holds throughout the region the edge is
                // the only way into: SSA values are immutable and their
                // defs dominate the branch, so the tested value is the
                // same at every block the edge target dominates.
                let preds = cfg.preds(succ);
                if preds.len() == 1 && preds[0] == b {
                    // An unreachable root dominates nothing: an empty span.
                    let span = if dt.is_reachable(succ) {
                        [dt.preorder(succ), dt.max_preorder(succ)]
                    } else {
                        [1, 0]
                    };
                    region_refs.extend(terms.iter().map(|&t| (t.value.index(), (span, t))));
                }
            }
        }

        let mut is_header = vec![false; nb];
        for &h in loops.headers() {
            is_header[h.index()] = true;
        }
        let mut preorder = vec![u32::MAX; nb];
        for &b in dt.preorder_seq() {
            preorder[b.index()] = dt.preorder(b);
        }

        SparseGraph {
            preorder,
            uses: Lists::group(nv, &uses),
            inst_block,
            region_refs: Lists::group(nv, &region_refs),
            edge_refs: Lists::group(edges.count(), &edge_refs),
            refine_deps: Lists::group(nv, &refine_deps),
            edges: Rc::new(edges),
            is_header,
        }
    }
}

/// Run `t` to fixpoint over the strict-SSA function `func`, pulling the
/// CFG, dominator tree, and loop nesting from `am`.
pub fn solve<T: Transfer>(func: &Function, am: &mut AnalysisManager, t: &T) -> Solution<T::Fact> {
    solve_on(func, &SparseGraph::build(func, am), t)
}

/// [`solve`] over a prebuilt `g`, which must describe `func` as it is.
pub(crate) fn solve_on<T: Transfer>(func: &Function, g: &SparseGraph, t: &T) -> Solution<T::Fact> {
    // Fault-injection point: an armed solver-spin models a transfer
    // function that never converges. Only the installed fuel budget
    // bounds it — with unlimited fuel this genuinely hangs, which is
    // exactly the failure mode the budget exists to contain.
    while fcc_analysis::fault::solver_spin() {
        fcc_analysis::fuel::checkpoint(1);
        std::hint::spin_loop();
    }
    let nv = func.num_values();
    let nb = func.num_blocks();
    let zero = t.transfer(&InstKind::Const { imm: 0 }, &mut |_| T::Fact::bottom());
    let mut s = Solver {
        func,
        g,
        t,
        facts: vec![T::Fact::bottom(); nv],
        exec_block: vec![false; nb],
        visited: vec![false; nb],
        exec_edge: vec![false; g.edges.count()],
        raises: vec![0; nv],
        zero,
        flow: Vec::new(),
        ssa: Vec::new(),
        steps: 0,
    };
    s.run();

    Solution {
        facts: s.facts,
        exec_block: s.exec_block,
        exec_edge: s.exec_edge,
        edges: Rc::clone(&g.edges),
        steps: s.steps,
    }
}

/// The per-lattice state of one solve.
struct Solver<'a, T: Transfer> {
    func: &'a Function,
    g: &'a SparseGraph,
    t: &'a T,
    facts: Vec<T::Fact>,
    exec_block: Vec<bool>,
    visited: Vec<bool>,
    exec_edge: Vec<bool>,
    raises: Vec<u16>,
    zero: T::Fact,
    /// Targets of newly executable edges.
    flow: Vec<Block>,
    ssa: Vec<Inst>,
    steps: usize,
}

impl<T: Transfer> Solver<'_, T> {
    fn run(&mut self) {
        let func = self.func;
        let cap = 10_000 + 200 * func.num_insts();
        let entry = func.entry();
        self.exec_block[entry.index()] = true;
        self.visited[entry.index()] = true;
        self.process_block(entry);

        while !self.flow.is_empty() || !self.ssa.is_empty() {
            if self.steps > cap {
                self.saturate();
                return;
            }
            while let Some(to) = self.flow.pop() {
                self.steps += 1;
                if !self.visited[to.index()] {
                    self.visited[to.index()] = true;
                    self.process_block(to);
                } else {
                    // A new incoming edge only changes the φ joins.
                    for phi in func.block_phis(to) {
                        self.process_inst(to, phi);
                    }
                }
            }
            while let Some(i) = self.ssa.pop() {
                self.steps += 1;
                let b = self.g.inst_block[i.index()].expect("uses are linked");
                if self.exec_block[b.index()] {
                    self.process_inst(b, i);
                }
                if !self.flow.is_empty() {
                    break;
                }
            }
        }
    }

    /// Defensive fallback for a non-terminating chain (a domain whose
    /// `widen` is too weak): degrade to the sound answer — every fact
    /// ⊤, every edge executable — rather than loop or return an
    /// unsound partial state.
    fn saturate(&mut self) {
        debug_assert!(false, "sparse solver hit the saturation cap");
        for f in &mut self.facts {
            *f = T::Fact::top();
        }
        for b in self.func.blocks() {
            self.exec_block[b.index()] = true;
            for e in self.g.edges.leaving(b) {
                self.exec_edge[e] = true;
            }
        }
        self.flow.clear();
        self.ssa.clear();
    }

    fn process_block(&mut self, b: Block) {
        let func = self.func;
        for &i in func.block_insts(b) {
            self.steps += 1;
            self.process_inst(b, i);
        }
    }

    fn process_inst(&mut self, b: Block, i: Inst) {
        fcc_analysis::fuel::checkpoint(1);
        let (func, g, t) = (self.func, self.g, self.t);
        let data = func.inst(i);
        match (&data.kind, data.dst) {
            (InstKind::Phi { args }, Some(dst)) => {
                let mut acc = T::Fact::bottom();
                for a in args {
                    let Some(e) = g.edges.find(a.pred, b) else {
                        continue;
                    };
                    if !self.exec_edge[e] {
                        continue;
                    }
                    // The argument as known at the end of its edge:
                    // region constraints valid in the predecessor plus
                    // the edge's own constraints.
                    let mut f = self.refined(a.value, a.pred);
                    for term in g.edge_refs.get(e) {
                        if term.value == a.value {
                            f = f.meet(&constraint_fact_in(&self.facts, t, &self.zero, term));
                        }
                    }
                    acc = acc.join(&f);
                }
                self.raise(dst, acc, g.is_header[b.index()]);
            }
            (kind, _) if kind.is_terminator() => self.eval_terminator(b, kind),
            (kind, Some(dst)) => {
                let (facts, zero) = (&self.facts, &self.zero);
                let new = t.transfer(kind, &mut |v| refined_in(facts, g, t, zero, v, b));
                self.raise(dst, new, false);
            }
            _ => {}
        }
    }

    fn eval_terminator(&mut self, b: Block, kind: &InstKind) {
        match *kind {
            InstKind::Jump { dst } => self.mark_edge(b, dst),
            InstKind::Branch {
                cond,
                then_dst,
                else_dst,
            } => {
                let f = self.refined(cond, b);
                match self.t.branch(&f) {
                    Feasible::Both => {
                        self.mark_edge(b, then_dst);
                        self.mark_edge(b, else_dst);
                    }
                    Feasible::ThenOnly => self.mark_edge(b, then_dst),
                    Feasible::ElseOnly => self.mark_edge(b, else_dst),
                    Feasible::Neither => {}
                }
            }
            _ => {}
        }
    }

    fn mark_edge(&mut self, from: Block, to: Block) {
        let e = self
            .g
            .edges
            .find(from, to)
            .expect("a terminator target is an edge");
        if !self.exec_edge[e] {
            self.exec_edge[e] = true;
            self.exec_block[to.index()] = true;
            self.flow.push(to);
        }
    }

    /// `v`'s fact met with every region constraint whose root dominates
    /// `at`.
    fn refined(&self, v: Value, at: Block) -> T::Fact {
        refined_in(&self.facts, self.g, self.t, &self.zero, v, at)
    }

    /// Raise `dst`'s fact to cover `new`, widening φ joins that keep
    /// rising. Enqueues the uses of `dst` and of every value whose
    /// branch constraint mentions `dst`.
    fn raise(&mut self, dst: Value, new: T::Fact, at_header: bool) {
        let old = &self.facts[dst.index()];
        if new.leq(old) {
            return;
        }
        let joined = old.join(&new);
        let count = self.raises[dst.index()];
        let widen = count >= WIDEN_ANYWHERE || (at_header && count >= WIDEN_AT_HEADER);
        let next = if widen { old.widen(&joined) } else { joined };
        if next == *old {
            return;
        }
        self.facts[dst.index()] = next;
        self.raises[dst.index()] = count.saturating_add(1);
        let g = self.g;
        self.ssa.extend_from_slice(g.uses.get(dst.index()));
        for v in g.refine_deps.get(dst.index()) {
            self.ssa.extend_from_slice(g.uses.get(v.index()));
        }
    }
}

/// Free-function core of [`Solver::refined`], usable while `facts` is
/// immutably borrowed inside a transfer-function environment.
fn refined_in<T: Transfer>(
    facts: &[T::Fact],
    g: &SparseGraph,
    t: &T,
    zero: &T::Fact,
    v: Value,
    at: Block,
) -> T::Fact {
    let mut f = facts[v.index()].clone();
    let at = g.preorder[at.index()];
    for ([lo, hi], term) in g.region_refs.get(v.index()) {
        if *lo <= at && at <= *hi {
            f = f.meet(&constraint_fact_in(facts, t, zero, term));
        }
    }
    f
}

fn constraint_fact_in<T: Transfer>(
    facts: &[T::Fact],
    t: &T,
    zero: &T::Fact,
    term: &RefTerm,
) -> T::Fact {
    let bottom = T::Fact::bottom();
    let other = match term.other {
        RefOther::Val(o) => {
            let of = &facts[o.index()];
            // Monotonicity guard: while the compared value is still ⊥
            // the constraint must be ⊥ too, so the met result can only
            // rise as the other side's fact rises.
            if *of == bottom {
                return bottom;
            }
            of.clone()
        }
        RefOther::Zero => zero.clone(),
    };
    t.constraint(term.op, term.lhs, term.taken, &other)
        .unwrap_or_else(T::Fact::top)
}
