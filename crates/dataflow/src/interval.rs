//! Integer interval (value-range) analysis.
//!
//! Facts are closed intervals `[lo, hi]` over `i64`. All arithmetic is
//! hulled in `i128`; whenever the exact hull leaves the representable
//! range the result degrades to ⊤, which keeps the transfer functions
//! sound under the IR's wrapping semantics (`BinOp::eval` wraps, and
//! division is total with `x / 0 = 0`, `x % 0 = 0`).
//!
//! Intervals are the one infinite-ascending-chain domain shipped here,
//! so [`Lattice::widen`] is real: a bound that keeps moving is thrown
//! to its extreme. Precision around loop counters survives widening
//! because the solver re-narrows the counter through the loop guard's
//! branch constraint (`i < n` caps the in-body view of `i`), so the
//! incremented value stays representable instead of wrapping to ⊤.

use fcc_ir::instr::{BinOp, UnaryOp};
use fcc_ir::{InstKind, Value};

use crate::lattice::Lattice;
use crate::solver::{Feasible, Transfer};

/// A closed interval of `i64` values; empty (⊥) iff `lo > hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Least possible value.
    pub lo: i64,
    /// Greatest possible value.
    pub hi: i64,
}

impl Interval {
    /// The empty interval (⊥): no execution has produced this value.
    pub const EMPTY: Interval = Interval {
        lo: i64::MAX,
        hi: i64::MIN,
    };
    /// The full interval (⊤).
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The singleton `[c, c]`.
    pub fn point(c: i64) -> Interval {
        Interval { lo: c, hi: c }
    }

    /// Whether no value is contained.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// The single contained value, if there is exactly one.
    pub fn as_point(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `c` is contained.
    pub fn contains(self, c: i64) -> bool {
        self.lo <= c && c <= self.hi
    }

    /// The exact `i128` hull clamped to representability: anything
    /// outside `i64` (a potential wrap) degrades to ⊤.
    fn from_i128(lo: i128, hi: i128) -> Interval {
        if lo > hi {
            return Interval::EMPTY;
        }
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            return Interval::TOP;
        }
        Interval {
            lo: lo as i64,
            hi: hi as i64,
        }
    }

    fn hull4(a: i128, b: i128, c: i128, d: i128) -> Interval {
        Interval::from_i128(a.min(b).min(c).min(d), a.max(b).max(c).max(d))
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "empty")
        } else if *self == Interval::TOP {
            write!(f, "top")
        } else if let Some(c) = self.as_point() {
            write!(f, "[{c}]")
        } else if self.lo == i64::MIN {
            write!(f, "[-inf, {}]", self.hi)
        } else if self.hi == i64::MAX {
            write!(f, "[{}, +inf]", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl Lattice for Interval {
    fn bottom() -> Self {
        Interval::EMPTY
    }
    fn top() -> Self {
        Interval::TOP
    }
    fn join(&self, other: &Self) -> Self {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
    fn meet(&self, other: &Self) -> Self {
        let r = Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        };
        if r.is_empty() {
            Interval::EMPTY
        } else {
            r
        }
    }
    fn leq(&self, other: &Self) -> bool {
        self.is_empty() || (!other.is_empty() && other.lo <= self.lo && self.hi <= other.hi)
    }
    fn widen(&self, next: &Self) -> Self {
        if self.is_empty() {
            return *next;
        }
        if next.is_empty() {
            return *self;
        }
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }
}

/// Interval division with same-sign divisor range `[d1, d2]` (no zero):
/// truncating division is monotone per operand over such a box, so the
/// hull of the four corners is exact.
fn div_box(a: Interval, d1: i64, d2: i64) -> Interval {
    let (al, ah) = (a.lo as i128, a.hi as i128);
    let (d1, d2) = (d1 as i128, d2 as i128);
    Interval::hull4(al / d1, al / d2, ah / d1, ah / d2)
}

fn interval_div(a: Interval, b: Interval) -> Interval {
    let mut acc = Interval::EMPTY;
    if b.contains(0) {
        // Total division: x / 0 = 0.
        acc = acc.join(&Interval::point(0));
    }
    if b.hi >= 1 {
        acc = acc.join(&div_box(a, b.lo.max(1), b.hi));
    }
    if b.lo <= -1 {
        acc = acc.join(&div_box(a, b.lo, b.hi.min(-1)));
    }
    acc
}

fn interval_rem(a: Interval, b: Interval) -> Interval {
    // |x % d| ≤ max(|d|) - 1 and ≤ |x|, with the sign of x; x % 0 = 0.
    let m = (b.lo as i128).abs().max((b.hi as i128).abs()) - 1;
    if m < 0 {
        return Interval::point(0);
    }
    let m = m.min(i64::MAX as i128) as i64;
    Interval {
        lo: if a.lo >= 0 { 0 } else { (-m).max(a.lo) },
        hi: if a.hi <= 0 { 0 } else { m.min(a.hi) },
    }
}

/// Evaluate a comparison over intervals into `[0,0]`, `[1,1]`, or the
/// undecided `[0,1]`.
fn interval_cmp(op: BinOp, a: Interval, b: Interval) -> Interval {
    let (t, f) = (Interval::point(1), Interval::point(0));
    let both = Interval { lo: 0, hi: 1 };
    match op {
        BinOp::Lt if a.hi < b.lo => t,
        BinOp::Lt if a.lo >= b.hi => f,
        BinOp::Le if a.hi <= b.lo => t,
        BinOp::Le if a.lo > b.hi => f,
        BinOp::Gt if a.lo > b.hi => t,
        BinOp::Gt if a.hi <= b.lo => f,
        BinOp::Ge if a.lo >= b.hi => t,
        BinOp::Ge if a.hi < b.lo => f,
        BinOp::Eq if a.as_point().is_some() && a == b => t,
        BinOp::Eq if a.hi < b.lo || b.hi < a.lo => f,
        BinOp::Ne if a.hi < b.lo || b.hi < a.lo => t,
        BinOp::Ne if a.as_point().is_some() && a == b => f,
        _ => both,
    }
}

/// Abstract binary arithmetic; every case is an over-approximation of
/// `BinOp::eval`'s wrapping semantics (exact on singletons, ⊤ on any
/// potential wrap).
pub fn interval_binop(op: BinOp, a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::EMPTY;
    }
    if let (Some(x), Some(y)) = (a.as_point(), b.as_point()) {
        return Interval::point(op.eval(x, y));
    }
    let (al, ah) = (a.lo as i128, a.hi as i128);
    let (bl, bh) = (b.lo as i128, b.hi as i128);
    match op {
        BinOp::Add => Interval::from_i128(al + bl, ah + bh),
        BinOp::Sub => Interval::from_i128(al - bh, ah - bl),
        BinOp::Mul => Interval::hull4(al * bl, al * bh, ah * bl, ah * bh),
        BinOp::Div => interval_div(a, b),
        BinOp::Rem => interval_rem(a, b),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            interval_cmp(op, a, b)
        }
        // x & m for nonnegative m is a submask of m: nonnegative (m's
        // sign bit is clear) and at most m — the other operand's sign
        // does not matter.
        BinOp::And if a.lo >= 0 || b.lo >= 0 => {
            let mut hi = i64::MAX;
            if a.lo >= 0 {
                hi = hi.min(a.hi);
            }
            if b.lo >= 0 {
                hi = hi.min(b.hi);
            }
            Interval { lo: 0, hi }
        }
        // For nonnegative x, y: max(x,y) ≤ x|y ≤ x+y and x^y ≤ x+y.
        BinOp::Or if a.lo >= 0 && b.lo >= 0 => Interval::from_i128(al.max(bl), ah + bh),
        BinOp::Xor if a.lo >= 0 && b.lo >= 0 => Interval::from_i128(0, ah + bh),
        BinOp::Shl => match b.as_point() {
            Some(k) => {
                let k = (k & 63) as u32;
                Interval::from_i128(al << k, ah << k)
            }
            None => Interval::TOP,
        },
        BinOp::Shr if b.lo >= 0 && b.hi <= 63 => {
            // Arithmetic shift is monotone in both the operand and the
            // amount's direction, so the corners bound the result.
            let k1 = b.lo as u32;
            let k2 = b.hi as u32;
            Interval::hull4(
                (a.lo >> k1) as i128,
                (a.lo >> k2) as i128,
                (a.hi >> k1) as i128,
                (a.hi >> k2) as i128,
            )
        }
        BinOp::Min => Interval {
            lo: a.lo.min(b.lo),
            hi: a.hi.min(b.hi),
        },
        BinOp::Max => Interval {
            lo: a.lo.max(b.lo),
            hi: a.hi.max(b.hi),
        },
        _ => Interval::TOP,
    }
}

fn interval_unop(op: UnaryOp, a: Interval) -> Interval {
    if a.is_empty() {
        return Interval::EMPTY;
    }
    if let Some(x) = a.as_point() {
        return Interval::point(op.eval(x));
    }
    match op {
        UnaryOp::Neg => Interval::from_i128(-(a.hi as i128), -(a.lo as i128)),
        // !x = -x - 1, monotone decreasing.
        UnaryOp::Not => Interval::from_i128(-(a.hi as i128) - 1, -(a.lo as i128) - 1),
    }
}

/// The interval analysis, for [`crate::solver::solve`].
pub struct RangeAnalysis;

impl Transfer for RangeAnalysis {
    type Fact = Interval;

    fn transfer(&self, kind: &InstKind, env: &mut dyn FnMut(Value) -> Interval) -> Interval {
        match kind {
            InstKind::Const { imm } => Interval::point(*imm),
            InstKind::Copy { src } => env(*src),
            InstKind::Unary { op, a } => interval_unop(*op, env(*a)),
            InstKind::Binary { op, a, b } => interval_binop(*op, env(*a), env(*b)),
            InstKind::Param { .. } | InstKind::Load { .. } => Interval::TOP,
            _ => Interval::TOP,
        }
    }

    fn branch(&self, cond: &Interval) -> Feasible {
        if cond.is_empty() {
            Feasible::Neither
        } else if !cond.contains(0) {
            Feasible::ThenOnly
        } else if cond.as_point() == Some(0) {
            Feasible::ElseOnly
        } else {
            Feasible::Both
        }
    }

    fn constraint(&self, op: BinOp, lhs: bool, taken: bool, other: &Interval) -> Option<Interval> {
        if other.is_empty() {
            return Some(Interval::EMPTY);
        }
        let below = |hi: i128| Some(Interval::from_i128(i64::MIN as i128, hi));
        let above = |lo: i128| Some(Interval::from_i128(lo, i64::MAX as i128));
        let (ol, oh) = (other.lo as i128, other.hi as i128);
        // Normalise to a bound on x: `x op other = taken` (lhs) or
        // `other op x = taken` (mirrored).
        match (op, lhs, taken) {
            (BinOp::Lt, true, true) | (BinOp::Le, false, false) => below(oh - 1),
            (BinOp::Le, true, true) | (BinOp::Lt, false, false) => below(oh),
            (BinOp::Gt, true, true) | (BinOp::Ge, false, false) => above(ol + 1),
            (BinOp::Ge, true, true) | (BinOp::Gt, false, false) => above(ol),
            (BinOp::Lt, true, false) | (BinOp::Le, false, true) => above(ol),
            (BinOp::Le, true, false) | (BinOp::Lt, false, true) => above(ol + 1),
            (BinOp::Gt, true, false) | (BinOp::Ge, false, true) => below(oh),
            (BinOp::Ge, true, false) | (BinOp::Gt, false, true) => below(oh - 1),
            (BinOp::Eq, _, true) | (BinOp::Ne, _, false) => Some(*other),
            // `x ≠ point` only bites at an interval endpoint.
            (BinOp::Ne, _, true) | (BinOp::Eq, _, false) => None,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_hulls() {
        let a = Interval { lo: 2, hi: 5 };
        let b = Interval { lo: -1, hi: 3 };
        assert_eq!(interval_binop(BinOp::Add, a, b), Interval { lo: 1, hi: 8 });
        assert_eq!(interval_binop(BinOp::Sub, a, b), Interval { lo: -1, hi: 6 });
        assert_eq!(
            interval_binop(BinOp::Mul, a, b),
            Interval { lo: -5, hi: 15 }
        );
    }

    #[test]
    fn wrap_degrades_to_top() {
        let a = Interval {
            lo: i64::MAX - 1,
            hi: i64::MAX,
        };
        let b = Interval { lo: 1, hi: 2 };
        assert_eq!(interval_binop(BinOp::Add, a, b), Interval::TOP);
    }

    #[test]
    fn rem_is_bounded_by_divisor_magnitude() {
        let a = Interval {
            lo: 0,
            hi: i64::MAX,
        };
        let d = Interval::point(8);
        assert_eq!(interval_binop(BinOp::Rem, a, d), Interval { lo: 0, hi: 7 });
        let m = Interval { lo: -10, hi: 10 };
        assert_eq!(interval_binop(BinOp::Rem, m, d), Interval { lo: -7, hi: 7 });
    }

    #[test]
    fn div_covers_zero_divisor() {
        let a = Interval { lo: 10, hi: 20 };
        let d = Interval { lo: 0, hi: 2 };
        // d = 0 contributes 0; d ∈ [1,2] contributes [5,20].
        assert_eq!(interval_binop(BinOp::Div, a, d), Interval { lo: 0, hi: 20 });
        assert_eq!(
            interval_binop(BinOp::Div, a, Interval::point(0)),
            Interval::point(0)
        );
        // The one wrapping case: MIN / -1.
        assert_eq!(
            interval_binop(
                BinOp::Div,
                Interval {
                    lo: i64::MIN,
                    hi: i64::MIN
                },
                Interval::point(-1)
            ),
            Interval::point(i64::MIN.wrapping_div(-1))
        );
    }

    #[test]
    fn comparisons_decide_or_hedge() {
        let a = Interval { lo: 0, hi: 7 };
        let z = Interval::point(0);
        assert_eq!(interval_binop(BinOp::Lt, a, z), Interval::point(0));
        assert_eq!(interval_binop(BinOp::Ge, a, z), Interval::point(1));
        assert_eq!(interval_binop(BinOp::Eq, a, z), Interval { lo: 0, hi: 1 });
    }

    #[test]
    fn widen_throws_moving_bounds() {
        let old = Interval { lo: 0, hi: 1 };
        let next = Interval { lo: 0, hi: 2 };
        let w = old.widen(&next);
        assert_eq!(w.lo, 0);
        assert_eq!(w.hi, i64::MAX);
    }

    #[test]
    fn constraint_caps_loop_counters() {
        let c = RangeAnalysis
            .constraint(BinOp::Lt, true, true, &Interval::TOP)
            .unwrap();
        assert_eq!(c.hi, i64::MAX - 1);
        let i = Interval {
            lo: 0,
            hi: i64::MAX,
        };
        assert_eq!(
            i.meet(&c),
            Interval {
                lo: 0,
                hi: i64::MAX - 1
            }
        );
    }
}
