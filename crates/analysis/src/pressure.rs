//! Per-program-point register pressure.
//!
//! Pressure at a program point is the number of values simultaneously
//! live there — the number of registers any allocation must hold at that
//! point. The maximum over a whole function, **MaxLive**, is the central
//! quantity of register-constrained allocation: under strict SSA the
//! interference graph is chordal, so MaxLive equals the chromatic number
//! and is a *certificate* of colourability, not a heuristic (see
//! `fcc-pressure` for the certifier that proves this per function).
//!
//! The module exposes two layers:
//!
//! * [`for_each_point`] — the canonical backward walk that enumerates
//!   every program point of a function together with its live set. The
//!   walk is shared by the [`Pressure`] analysis, the interference
//!   builder in `fcc-pressure`, the allocation feasibility auditor and
//!   the SSA spiller, so "a program point" means the same thing
//!   everywhere. [`for_each_point_in`] is the same walk over chosen
//!   blocks: the spiller re-walks only the blocks a round changed.
//! * [`Pressure`] — per-block maximum pressure plus the function-level
//!   MaxLive, cached by `AnalysisManager::pressure`.
//!
//! Point conventions (matching [`crate::liveness::Liveness`]):
//!
//! * φ-arguments are uses *on the incoming edge*: they count at the
//!   predecessor's [`Point::Exit`], never inside the φ's own block.
//! * φ-destinations are defined in parallel at the top of their block.
//! * A dead definition still occupies a register at the instant it is
//!   written: the walk visits a dedicated [`Point::DeadDef`] with the
//!   destination force-inserted so pressure accounts for it.

use fcc_ir::{Block, ControlFlowGraph, Function, Inst};

use crate::bitset::BitSet;
use crate::liveness::Liveness;

/// A program point of the backward walk, paired by [`for_each_point`]
/// with the set of values live there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Point {
    /// After the block's terminator: the block's live-out set (φ-args of
    /// successors included, since they are uses on the outgoing edges).
    Exit(Block),
    /// Immediately before a (non-φ) instruction: everything live
    /// between the previous instruction and this one.
    Before(Block, Inst),
    /// Just after a dead definition: the destination is written and
    /// occupies a register even though nothing reads it. Only visited
    /// when the destination is not live afterwards.
    DeadDef(Block, Inst),
    /// Just after the block's φ-destinations are defined (in parallel).
    /// Only visited when at least one φ-destination is dead — otherwise
    /// the point's set equals the first [`Point::Before`] of the block.
    PhiDefs(Block),
}

impl Point {
    /// The block this point belongs to.
    pub fn block(self) -> Block {
        match self {
            Point::Exit(b) | Point::Before(b, _) | Point::DeadDef(b, _) | Point::PhiDefs(b) => b,
        }
    }
}

/// Enumerate every program point of `func` (reachable blocks only) with
/// its live set and that set's size, walking each block backward from
/// `live.live_out`.
///
/// `live` is [`Liveness::compute`] of `func`, SSA or φ-free. The set
/// passed to `visit` is reused between calls — copy out what must be
/// kept. The count is kept up to date through every insert and remove,
/// so a visitor that only needs the pressure never scans the set.
pub fn for_each_point(
    func: &Function,
    cfg: &ControlFlowGraph,
    live: &Liveness,
    visit: impl FnMut(Point, &BitSet, usize),
) {
    let mut set = BitSet::new(func.num_values());
    for_each_point_in(func, cfg, live, func.blocks(), &mut set, visit);
}

/// The set [`for_each_point_in`] keeps the live values in, emptied at
/// the start of every block. A [`BitSet`] lists its members in value
/// order; a caller that only needs them in some order can pass a set
/// that lists them in time proportional to how many there are.
pub trait LiveSet {
    /// Remove every member.
    fn clear(&mut self);
    /// Add `v`; whether it was absent.
    fn insert(&mut self, v: usize) -> bool;
    /// Remove `v`; whether it was present.
    fn remove(&mut self, v: usize) -> bool;
}

impl LiveSet for BitSet {
    fn clear(&mut self) {
        BitSet::clear(self);
    }
    fn insert(&mut self, v: usize) -> bool {
        BitSet::insert(self, v)
    }
    fn remove(&mut self, v: usize) -> bool {
        BitSet::remove(self, v)
    }
}

/// [`for_each_point`] restricted to `blocks`, visited in the order
/// given, keeping the live values in `set`, whose universe must cover
/// `func`'s values. A block's points and sets depend only on its
/// instructions and its live-out set, so each block yields exactly what
/// the whole-function walk yields there; unreachable blocks yield
/// nothing.
pub fn for_each_point_in<S: LiveSet>(
    func: &Function,
    cfg: &ControlFlowGraph,
    live: &Liveness,
    blocks: impl IntoIterator<Item = Block>,
    set: &mut S,
    mut visit: impl FnMut(Point, &S, usize),
) {
    for b in blocks {
        if !cfg.is_reachable(b) {
            continue;
        }
        set.clear();
        for &v in live.live_out(b) {
            set.insert(v as usize);
        }
        let mut count = live.live_out(b).len();
        visit(Point::Exit(b), set, count);

        let insts = func.block_insts(b);
        let mut phi_end = 0;
        while phi_end < insts.len() && func.inst(insts[phi_end]).kind.is_phi() {
            phi_end += 1;
        }
        for &i in insts[phi_end..].iter().rev() {
            let data = func.inst(i);
            if let Some(d) = data.dst {
                if set.insert(d.index()) {
                    // Dead definition: it still occupies a register at
                    // the instant it is written.
                    count += 1;
                    visit(Point::DeadDef(b, i), set, count);
                }
                set.remove(d.index());
                count -= 1;
            }
            data.kind.for_each_use(|u| {
                count += usize::from(set.insert(u.index()));
            });
            visit(Point::Before(b, i), set, count);
        }
        if phi_end > 0 {
            // φ-destinations are parallel definitions at the block's
            // top. Dead ones are absent from the set here but still
            // occupy registers at the definition point.
            let before = count;
            for &i in &insts[..phi_end] {
                if let Some(d) = func.inst(i).dst {
                    count += usize::from(set.insert(d.index()));
                }
            }
            if count > before {
                visit(Point::PhiDefs(b), set, count);
            }
        }
    }
}

/// Per-block and per-function maximum register pressure.
///
/// Compute with [`Pressure::compute`], or pull the cached copy from
/// `AnalysisManager::pressure`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pressure {
    block_max: Vec<u32>,
    maxlive: u32,
    max_block: Option<Block>,
    points: usize,
}

impl Pressure {
    /// Walk every program point of `func` and record the pressure maxima.
    pub fn compute(func: &Function, cfg: &ControlFlowGraph, live: &Liveness) -> Pressure {
        let mut block_max = vec![0u32; func.num_blocks()];
        let mut points = 0usize;
        for_each_point(func, cfg, live, |p, _, count| {
            points += 1;
            let c = count as u32;
            let slot = &mut block_max[p.block().index()];
            if c > *slot {
                *slot = c;
            }
        });
        let mut maxlive = 0u32;
        let mut max_block = None;
        for b in func.blocks() {
            let c = block_max[b.index()];
            if c > maxlive {
                maxlive = c;
                max_block = Some(b);
            }
        }
        Pressure {
            block_max,
            maxlive,
            max_block,
            points,
        }
    }

    /// Maximum pressure anywhere in the function.
    pub fn maxlive(&self) -> u32 {
        self.maxlive
    }

    /// First block (in layout order) that attains [`Pressure::maxlive`].
    /// `None` only for functions with no reachable points.
    pub fn max_block(&self) -> Option<Block> {
        self.max_block
    }

    /// Maximum pressure within `b` (0 for unreachable blocks).
    pub fn block_max(&self, b: Block) -> u32 {
        self.block_max.get(b.index()).copied().unwrap_or(0)
    }

    /// Number of program points visited.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Approximate heap footprint, for `AnalysisManager` accounting.
    pub fn bytes(&self) -> usize {
        self.block_max.capacity() * std::mem::size_of::<u32>()
    }
}
