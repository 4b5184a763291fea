//! Property tests for the sparse engine, driven entirely by the
//! in-tree [`SplitMix64`] generator — no external crates.
//!
//! Three layers, matching the soundness argument in DESIGN.md:
//!
//! 1. **Lattice laws** (what [`Lattice`] documents and the solver
//!    relies on) for both shipped domains, over randomly drawn
//!    elements biased toward the boundary values where bugs live.
//! 2. **Transfer soundness**: abstract arithmetic contains the concrete
//!    wrapping result for random intervals and random sample points
//!    inside them, and is exact when every operand is a point.
//! 3. **Whole-solver soundness** on random loopy programs from
//!    `fcc-workloads`: the interpreter's observed return value must lie
//!    inside the hull of the analysis' predictions for the live return
//!    sites, and a value the solver calls constant must be that value.

use fcc_analysis::AnalysisManager;
use fcc_dataflow::interval::interval_binop;
use fcc_dataflow::{FunctionAnalysis, Interval, KnownBits, Lattice, RangeAnalysis, Transfer};
use fcc_ir::instr::{BinOp, UnaryOp};
use fcc_ir::{InstKind, Value};
use fcc_ssa::{build_ssa, SsaFlavor};
use fcc_workloads::{generate, GenConfig, SplitMix64};

// ----- random element generators -------------------------------------------

/// Integers biased toward lattice-boundary trouble: extremes, powers of
/// two and their neighbours, zero, and a spread of signed magnitudes.
fn rand_i64(rng: &mut SplitMix64) -> i64 {
    const POOL: &[i64] = &[
        i64::MIN,
        i64::MIN + 1,
        -1_000_000,
        -64,
        -8,
        -2,
        -1,
        0,
        1,
        2,
        7,
        8,
        63,
        64,
        1_000_000,
        i64::MAX - 1,
        i64::MAX,
    ];
    match rng.gen_range(0..4u32) {
        0 => POOL[rng.gen_range(0..POOL.len())],
        1 => rng.gen_range(-100..100i64),
        2 => rng.next_u64() as i64 >> rng.gen_range(0..63u32),
        _ => rng.next_u64() as i64,
    }
}

/// A random interval: canonical ⊥ and ⊤, singletons, and general boxes.
/// Empties are canonicalised to [`Interval::EMPTY`] because that is the
/// only empty the domain's own constructors ever produce.
fn rand_interval(rng: &mut SplitMix64) -> Interval {
    match rng.gen_range(0..8u32) {
        0 => Interval::EMPTY,
        1 => Interval::TOP,
        2 => Interval::point(rand_i64(rng)),
        _ => {
            let a = rand_i64(rng);
            let b = rand_i64(rng);
            Interval {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
    }
}

/// A random known-bits fact respecting the reachable-state invariant
/// `zeros & ones == 0` (plus the canonical contradictory ⊥).
fn rand_bits(rng: &mut SplitMix64) -> KnownBits {
    match rng.gen_range(0..8u32) {
        0 => KnownBits::bottom(),
        1 => KnownBits::top(),
        2 => KnownBits::constant(rand_i64(rng)),
        _ => {
            let value = rng.next_u64();
            let known = rng.next_u64() & rng.next_u64();
            KnownBits {
                zeros: !value & known,
                ones: value & known,
            }
        }
    }
}

// ----- lattice laws ---------------------------------------------------------

/// Check every law [`Lattice`] documents over the given elements:
/// unary laws and the `leq`/`join` consistency on all pairs,
/// associativity on all triples (keep `elems` small).
fn check_lattice_laws<L: Lattice>(domain: &str, elems: &[L]) {
    let bot = L::bottom();
    let top = L::top();
    assert!(bot.leq(&top), "{domain}: bottom ≤ top");
    for a in elems {
        assert_eq!(&a.join(a), a, "{domain}: join idempotent on {a:?}");
        assert_eq!(&bot.join(a), a, "{domain}: bottom is join identity");
        assert_eq!(a.join(&top), top, "{domain}: top absorbs join");
        assert_eq!(&a.meet(&top), a, "{domain}: top is meet identity");
        assert!(a.leq(a), "{domain}: leq reflexive on {a:?}");
        assert!(bot.leq(a) && a.leq(&top), "{domain}: {a:?} in bounds");
    }
    for a in elems {
        for b in elems {
            let ab = a.join(b);
            assert_eq!(ab, b.join(a), "{domain}: join commutes on {a:?}, {b:?}");
            assert!(
                a.leq(&ab) && b.leq(&ab),
                "{domain}: join is an upper bound of {a:?}, {b:?}"
            );
            assert_eq!(
                a.leq(b),
                &a.join(b) == b,
                "{domain}: leq({a:?}, {b:?}) must agree with join"
            );
            let m = a.meet(b);
            assert!(
                m.leq(a) && m.leq(b),
                "{domain}: meet is a lower bound of {a:?}, {b:?}"
            );
        }
    }
    for a in elems {
        for b in elems {
            for c in elems {
                assert_eq!(
                    a.join(b).join(c),
                    a.join(&b.join(c)),
                    "{domain}: join associates on {a:?}, {b:?}, {c:?}"
                );
            }
        }
    }
}

#[test]
fn interval_lattice_laws() {
    let mut rng = SplitMix64::seed_from_u64(0x1A77);
    let elems: Vec<Interval> = (0..24).map(|_| rand_interval(&mut rng)).collect();
    check_lattice_laws("interval", &elems);
}

#[test]
fn bits_lattice_laws() {
    let mut rng = SplitMix64::seed_from_u64(0xB175);
    let elems: Vec<KnownBits> = (0..24).map(|_| rand_bits(&mut rng)).collect();
    check_lattice_laws("bits", &elems);
}

/// Widening chains stabilise fast and stay sound: each bound can move
/// at most once (to its extreme), so any chain settles after at most
/// two strict growths, and the fixpoint bounds every input it saw.
#[test]
fn interval_widening_converges_and_bounds_inputs() {
    let mut rng = SplitMix64::seed_from_u64(0x51DE);
    for _ in 0..200 {
        let inputs: Vec<Interval> = (0..20).map(|_| rand_interval(&mut rng)).collect();
        let mut x = Interval::EMPTY;
        let mut growths = 0;
        for r in &inputs {
            let next = x.widen(r);
            assert!(
                x.leq(&next) && r.leq(&next),
                "widen({x:?}, {r:?}) = {next:?} must bound both arguments"
            );
            if next != x && !x.is_empty() {
                growths += 1;
            }
            x = next;
        }
        assert!(
            growths <= 2,
            "widening chain changed {growths} times after seeding: {inputs:?}"
        );
        for r in &inputs {
            assert!(r.leq(&x), "fixpoint {x:?} must bound input {r:?}");
        }
    }
}

// ----- transfer soundness ---------------------------------------------------

/// Sample points inside an interval: the corners plus clamped draws.
fn points_in(iv: Interval, rng: &mut SplitMix64) -> Vec<i64> {
    if iv.is_empty() {
        return Vec::new();
    }
    let mut pts = vec![iv.lo, iv.hi];
    for _ in 0..3 {
        pts.push(rand_i64(rng).clamp(iv.lo, iv.hi));
    }
    pts
}

const BINARY_OPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Min,
    BinOp::Max,
];

const UNARY_OPS: &[UnaryOp] = &[UnaryOp::Neg, UnaryOp::Not];

/// `op a` through the interval analysis' transfer function.
fn unary_transfer(op: UnaryOp, a: Interval) -> Interval {
    let kind = InstKind::Unary {
        op,
        a: Value::new(0),
    };
    RangeAnalysis.transfer(&kind, &mut |_| a)
}

/// `a op b` through the interval analysis' transfer function.
fn binary_transfer(op: BinOp, a: Interval, b: Interval) -> Interval {
    let kind = InstKind::Binary {
        op,
        a: Value::new(0),
        b: Value::new(1),
    };
    RangeAnalysis.transfer(&kind, &mut |v| if v.index() == 0 { a } else { b })
}

#[test]
fn interval_binop_contains_concrete_results() {
    let mut rng = SplitMix64::seed_from_u64(0x0b0e);
    let cases = 4_000;
    for _ in 0..cases {
        let a = rand_interval(&mut rng);
        let b = rand_interval(&mut rng);
        let op = BINARY_OPS[rng.gen_range(0..BINARY_OPS.len())];
        let out = interval_binop(op, a, b);
        for x in points_in(a, &mut rng) {
            for y in points_in(b, &mut rng) {
                let c = op.eval(x, y);
                assert!(
                    out.contains(c),
                    "{op:?}: {a} op {b} = {out} misses {x} op {y} = {c}"
                );
            }
        }
    }
}

#[test]
fn interval_unop_contains_concrete_results() {
    let mut rng = SplitMix64::seed_from_u64(0x1e9);
    for _ in 0..2_000 {
        let a = rand_interval(&mut rng);
        let op = UNARY_OPS[rng.gen_range(0..UNARY_OPS.len())];
        let out = unary_transfer(op, a);
        for x in points_in(a, &mut rng) {
            let c = op.eval(x);
            assert!(
                out.contains(c),
                "{op:?} {a} = {out} misses {op:?} {x} = {c}"
            );
        }
    }
}

/// On points the interval transfer is exact: every operator yields the
/// point that `eval` gives, wrapping included. This is what lets the
/// interval domain prove every constant a flat constant lattice would.
#[test]
fn interval_transfer_is_exact_on_points() {
    let mut rng = SplitMix64::seed_from_u64(0x9017);
    let mut xs = vec![i64::MIN, -1, 0, 1, i64::MAX];
    xs.extend((0..16).map(|_| rand_i64(&mut rng)));
    for &x in &xs {
        let a = Interval::point(x);
        for &op in UNARY_OPS {
            let want = Interval::point(op.eval(x));
            assert_eq!(unary_transfer(op, a), want, "{op:?} {x}");
        }
        for &y in &xs {
            let b = Interval::point(y);
            for &op in BINARY_OPS {
                let want = Interval::point(op.eval(x, y));
                assert_eq!(binary_transfer(op, a, b), want, "{x} {op:?} {y}");
            }
        }
    }
}

// ----- whole-solver soundness on random loopy programs ----------------------

/// The hull of the analysis' predictions over every live `return v`
/// site, with the strongest constant claim when there is only one.
fn return_prediction(func: &fcc_ir::Function, fa: &FunctionAnalysis) -> (Interval, Option<i64>) {
    let mut hull = Interval::EMPTY;
    let mut consts = Vec::new();
    let mut sites = 0;
    for b in func.blocks() {
        if !fa.block_live(b) {
            continue;
        }
        let Some(t) = func.terminator(b) else {
            continue;
        };
        if let InstKind::Return { val: Some(v) } = func.inst(t).kind {
            sites += 1;
            hull = hull.join(&fa.range_of(v));
            consts.push(fa.constant_of(v));
        }
    }
    let forced = (sites > 0 && consts.iter().all(|c| c.is_some() && *c == consts[0]))
        .then(|| consts[0])
        .flatten();
    (hull, forced)
}

#[test]
fn solver_is_sound_on_generated_loopy_programs() {
    let seeds: u64 = 40;
    for seed in 0..seeds {
        let cfg = GenConfig {
            stmts: 20 + (seed as usize % 5) * 15,
            max_depth: 4,
            vars: 5,
            max_loop: 6,
            params: 2,
            memory_ops: true,
        };
        let prog = generate(seed, &cfg);
        let mut func = fcc_frontend::lower_program(&prog).expect("generated program lowers");
        build_ssa(&mut func, SsaFlavor::Pruned, true);

        // The fixpoint must exist (the solver terminates — widening
        // plus saturation make every chain finite) and must keep the
        // entry reachable.
        let mut am = AnalysisManager::new();
        let fa = FunctionAnalysis::compute(&func, &mut am);
        assert!(fa.block_live(func.entry()), "seed {seed}: entry not live");

        // Every concrete execution must land inside the abstraction.
        let (hull, forced) = return_prediction(&func, &fa);
        for args in [[0, 0], [1, 5], [6, 2], [-3, 7]] {
            let out = fcc_interp::run(&func, &args)
                .unwrap_or_else(|e| panic!("seed {seed}: interp failed: {e}"));
            let Some(ret) = out.ret else { continue };
            assert!(
                hull.contains(ret),
                "seed {seed} args {args:?}: return {ret} outside predicted hull {hull}"
            );
            if let Some(c) = forced {
                assert_eq!(
                    ret, c,
                    "seed {seed} args {args:?}: solver proved return constant {c}"
                );
            }
        }
    }
}
