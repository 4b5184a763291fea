//! Pins the k-register back end's exact output: what `spill_to_k` makes
//! of a function under each strategy, what `allocate` makes of the
//! spilled result after each destruction, and what `audit_allocation`
//! says about those allocations and about corrupted copies of them.
//!
//! Four corpora, each at k ∈ {3, 4, 8}:
//!
//! - the 34 kernels as folded, `standard_pipeline`-optimised pruned SSA
//!   (what the `new` and `standard` families spill);
//! - the same kernels as unfolded pruned SSA (copies kept);
//! - four generated functions in the shape of the benchmark's spill-k8
//!   workload (30–60 statements, nesting depth 4, memory on);
//! - 100 small generated programs (8 top-level statements each); the
//!   Standard and Briggs\* allocation pins and the audit pins take every
//!   fourth, to keep this file's debug run short.
//!
//! Per corpus, k and strategy the pin holds every [`SpillStats`] field,
//! summed over the corpus, and an FNV digest of each spilled function's
//! printed IR and victim list. Per corpus, k and destruction (New,
//! Standard, Briggs\*) of the cost-guided result it holds the
//! allocator's round and spill totals and a digest of its rewritten IR,
//! its colouring (sorted by value), its spilled values and its slot map.
//! Per corpus and k it holds the auditor's diagnostic counts for the
//! Standard allocation (the one with the most residual colouring) and
//! five corruptions of it (see [`audits`]), summed over the corpus, and
//! a digest of every diagnostic in the order the auditor reports them.
//!
//! Briggs\*'s web destruction is sound only on SSA built without copy
//! folding, so on the folded corpora its output is not a program to run;
//! it is still a deterministic φ-free function, which is all the
//! allocator and auditor pins need.
//!
//! The numbers are those of the reference back end: the spiller that
//! rewrote one victim at a time with a whole-function scan each, the
//! colourer that built a bit matrix per round and rescanned the function
//! per residual victim, and the auditor that kept its per-point state in
//! hash maps. Value numbers, instruction order, slot numbers, colours
//! and diagnostic order all feed the digests, so any rework of the
//! spiller, colourer or auditor must reproduce them bit for bit. A
//! deliberate change to what they compute re-pins here: a mismatch
//! prints the full table to paste back.
//!
//! Every round is also checked on the way. The spiller and the colourer
//! each compute liveness once per call and carry it across their spill
//! rewrites, and the colourer colours its own compressed-row graph, not
//! an [`InterferenceGraph`]; their `_observed` entry points hand each
//! round's state to a closure:
//!
//! - after every `spill_to_k` round, in both portfolio plans, the
//!   carried liveness equals a fresh [`Liveness::compute`], and every
//!   block the round did not mark for the next walk kept its live-in
//!   and live-out sets and its program points with their set sizes;
//! - at every colour round the carried liveness equals a fresh
//!   [`Liveness::compute`], and the graph gives every value exactly the
//!   neighbour set and degree of `InterferenceGraph::build(.., None)`.
//!
//! A last test allocates the unfolded kernels and every fourth generated
//! program straight after destruction, with no SSA spilling first, so
//! that the colourer's own spill rewrite runs in most rounds.

use std::collections::HashMap;

use fcc::analysis::pressure::{for_each_point, Point};
use fcc::analysis::Liveness;
use fcc::ir::ControlFlowGraph;
use fcc::regalloc::color::{allocate_observed, AllocError};
use fcc::regalloc::spill::spill_to_k_observed;
use fcc::regalloc::{Allocation, InterferenceGraph};

use fcc::prelude::*;
use fcc::workloads::{compile_kernel, generate, kernels, GenConfig, SplitMix64};

const KS: [u32; 3] = [3, 4, 8];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }
}

/// One `spill_to_k` pin: `[spills, reloads, slots, maxlive_before,
/// maxlive_after, rounds]` summed over the corpus, and the digest. A
/// corpus has one per k in `KS` and strategy (everywhere first).
type SpillPin = ([usize; 6], u64);

/// One `allocate` pin: `[rounds, spilled, failures]` summed over the
/// corpus, and the digest. A corpus has one per k in `KS` and entry of
/// `DESTRUCTIONS`.
type AllocPin = ([usize; 3], u64);

/// One `audit_allocation` pin: the diagnostic count of each of the six
/// colourings [`audits`] checks on the Standard allocation, summed over
/// the corpus, and the digest. A corpus has one per k in `KS`.
type AuditPin = ([usize; 6], u64);

fn new_destruction(f: &mut Function) {
    coalesce_ssa_managed(f, &CoalesceOptions::default(), &mut AnalysisManager::new());
}

fn standard_destruction(f: &mut Function) {
    destruct_standard(f);
}

fn briggs_star_destruction(f: &mut Function) {
    destruct_via_webs(f);
    coalesce_copies(
        f,
        &BriggsOptions {
            mode: GraphMode::Restricted,
        },
    );
}

/// A destruction by name.
type Destruction = (&'static str, fn(&mut Function));

/// The destructions whose output `allocate` is pinned on, in pin order.
const DESTRUCTIONS: [Destruction; 3] = [
    ("new", new_destruction),
    ("standard", standard_destruction),
    ("briggs-star", briggs_star_destruction),
];

fn ssa(mut func: Function, fold: bool) -> Function {
    build_ssa_with(
        &mut func,
        SsaFlavor::Pruned,
        fold,
        &mut AnalysisManager::new(),
    );
    func
}

fn folded_kernels() -> Vec<Function> {
    kernels()
        .iter()
        .map(|k| {
            let mut func = ssa(compile_kernel(k), true);
            standard_pipeline().run(&mut func, &mut AnalysisManager::new());
            func
        })
        .collect()
}

fn unfolded_kernels() -> Vec<Function> {
    kernels()
        .iter()
        .map(|k| ssa(compile_kernel(k), false))
        .collect()
}

fn lower(seed: u64, cfg: &GenConfig) -> Function {
    let prog = generate(seed, cfg);
    ssa(
        fcc::frontend::lower_program(&prog).expect("generated programs lower"),
        true,
    )
}

/// The spill-k8 generator shape at a drawn statement count.
fn spill_k8_shape() -> Vec<Function> {
    let mut rng = SplitMix64::seed_from_u64(0x5b11_c0de);
    (0..4)
        .map(|_| {
            let stmts = rng.gen_range(30usize..=60);
            let cfg = GenConfig {
                stmts,
                max_depth: 4,
                vars: 8 + stmts / 50,
                max_loop: 4,
                params: 2,
                memory_ops: true,
            };
            lower(rng.next_u64(), &cfg)
        })
        .collect()
}

fn small_programs() -> Vec<Function> {
    let cfg = GenConfig {
        stmts: 8,
        ..GenConfig::default()
    };
    (0..100).map(|seed| lower(seed, &cfg)).collect()
}

/// Rounds the observers checked: spill rounds, colour rounds, and the
/// colour rounds that followed the colourer's own spill rewrite.
#[derive(Default)]
struct Checked {
    spill: usize,
    colour: usize,
    respilled: usize,
}

/// Assert `carried` and `fresh` agree on every reachable block.
fn assert_same_sets(f: &Function, cfg: &ControlFlowGraph, carried: &Liveness, fresh: &Liveness) {
    assert_eq!(carried.universe(), fresh.universe(), "{}", f.name);
    for b in f.blocks().filter(|&b| cfg.is_reachable(b)) {
        assert_eq!(
            carried.live_in(b),
            fresh.live_in(b),
            "{}: live-in of {b}",
            f.name
        );
        assert_eq!(
            carried.live_out(b),
            fresh.live_out(b),
            "{}: live-out of {b}",
            f.name
        );
    }
}

/// What a walk sees of one block: its live-in and live-out sets, and
/// its program points in walk order, each with its set's size.
type BlockView = (Vec<u32>, Vec<u32>, Vec<(Point, usize)>);

/// Every block's [`BlockView`] of `f` under `live`, by block index.
fn block_views(f: &Function, cfg: &ControlFlowGraph, live: &Liveness) -> Vec<BlockView> {
    let mut views: Vec<BlockView> = (0..f.num_blocks())
        .map(|b| {
            let b = Block::new(b);
            (
                live.live_in(b).to_vec(),
                live.live_out(b).to_vec(),
                Vec::new(),
            )
        })
        .collect();
    for_each_point(f, cfg, live, |p, _, count| {
        views[p.block().index()].2.push((p, count));
    });
    views
}

/// `spill_to_k(f, k, strategy)`, checking every round: spilling inserts
/// straight-line code only, so the input's CFG still holds and the
/// carried liveness must equal a fresh SSA solve. Each walk after a
/// plan's first visits only the blocks the round before it marked, so
/// every block left unmarked must have kept its live-in and live-out
/// sets and its points with their set sizes. (A plan's first walk
/// marks every reachable block.)
fn spill_checked(
    f: &mut Function,
    k: u32,
    strategy: SpillStrategy,
    checked: &mut Checked,
) -> SpillStats {
    let cfg = ControlFlowGraph::compute(f);
    let mut before: Vec<BlockView> = Vec::new();
    let mut am = AnalysisManager::new();
    spill_to_k_observed(f, k, strategy, &mut am, |g, live, marked| {
        assert_eq!(
            cfg,
            ControlFlowGraph::compute(g),
            "{}: spilling moved an edge",
            g.name
        );
        assert_same_sets(g, &cfg, live, &Liveness::compute(g, &cfg));
        let now = block_views(g, &cfg, live);
        for b in g.blocks().filter(|b| !marked.contains(b)) {
            let i = b.index();
            assert!(
                before.is_empty() || before[i] == now[i],
                "{}: {b} changed but the round left it unmarked",
                g.name
            );
        }
        before = now;
        checked.spill += 1;
    })
}

/// `allocate` of `f` with `k` registers, checking every colour round: the carried
/// liveness must equal a fresh dataflow solve, and the graph must have
/// exactly the reference graph's neighbour sets and degrees.
fn allocate_checked(
    f: &mut Function,
    k: u32,
    checked: &mut Checked,
) -> Result<Allocation, AllocError> {
    let opts = AllocOptions {
        registers: k as usize,
    };
    let mut round = 0;
    allocate_observed(f, &opts, &mut AnalysisManager::new(), |g, live, graph| {
        let cfg = ControlFlowGraph::compute(g);
        let fresh = Liveness::compute(g, &cfg);
        assert_same_sets(g, &cfg, live, &fresh);
        // The same neighbour set: as many neighbours as the
        // reference gives, none repeated, each a reference neighbour.
        let reference = InterferenceGraph::build(g, &cfg, &fresh, None);
        let mut seen_in = vec![usize::MAX; g.num_values()];
        for v in 0..g.num_values() {
            let value = Value::new(v);
            assert_eq!(
                graph.degree(v),
                reference.degree(value),
                "{}: degree of v{v}",
                g.name
            );
            for &w in graph.row(v) {
                let w = w as usize;
                assert!(
                    seen_in[w] != v && reference.interferes(value, Value::new(w)),
                    "{}: v{v}–v{w} is not one reference edge",
                    g.name
                );
                seen_in[w] = v;
            }
        }
        round += 1;
        checked.colour += 1;
        checked.respilled += usize::from(round > 1);
    })
}

/// `audit_allocation`'s verdicts on `alloc` for `f` at target `k`: the
/// real colouring, then five corruptions of it, each audited against
/// the function's own slot count unless noted:
///
/// 1. every third value (in value order) flattened to r0;
/// 2. every fifth value dropped;
/// 3. every fourth value moved to r(k + i), the last to `u32::MAX`, plus
///    a key for a value the function does not have;
/// 4. the real colouring against a target of k − 2;
/// 5. the real colouring against a slot budget one short.
fn audits(f: &Function, alloc: &Allocation, k: u32) -> [Vec<Diagnostic>; 6] {
    let slots = f.spill_slot_count();
    let mut sorted: Vec<(Value, u32)> = alloc.coloring.iter().map(|(&v, &c)| (v, c)).collect();
    sorted.sort();
    let remap = |g: &dyn Fn(usize, u32) -> Option<u32>| -> HashMap<Value, u32> {
        sorted
            .iter()
            .enumerate()
            .filter_map(|(i, &(v, c))| g(i, c).map(|c| (v, c)))
            .collect()
    };
    let flattened = remap(&|i, c| Some(if i % 3 == 0 { 0 } else { c }));
    let dropped = remap(&|i, c| (i % 5 != 0).then_some(c));
    let mut ranged = remap(&|i, c| Some(if i % 4 == 0 { k + i as u32 } else { c }));
    if let Some(&(v, _)) = sorted.last() {
        ranged.insert(v, u32::MAX);
    }
    ranged.insert(Value::new(f.num_values() + 7), 1);
    [
        audit_allocation(f, &alloc.coloring, k, slots),
        audit_allocation(f, &flattened, k, slots),
        audit_allocation(f, &dropped, k, slots),
        audit_allocation(f, &ranged, k, slots),
        audit_allocation(f, &alloc.coloring, k - 2, slots),
        audit_allocation(f, &alloc.coloring, k, slots.saturating_sub(1)),
    ]
}

/// The `spill_to_k` pins of `funcs`, the `allocate` pins after New
/// destruction of all of them and after Standard and Briggs\* destruction
/// of every `step`-th, and the `audit_allocation` pins of every
/// `step`-th, in `KS` order. Every round is checked on the way.
fn pins(
    funcs: &[Function],
    step: usize,
    checked: &mut Checked,
) -> (Vec<SpillPin>, Vec<AllocPin>, Vec<AuditPin>) {
    let mut spills = Vec::new();
    let mut allocs = Vec::new();
    let mut audit_pins = Vec::new();
    for k in KS {
        let mut cost_guided: Vec<Function> = Vec::new();
        for strategy in [SpillStrategy::Everywhere, SpillStrategy::CostGuided] {
            let mut sums = [0usize; 6];
            let mut h = Fnv::new();
            for func in funcs {
                let mut f = func.clone();
                let s = spill_checked(&mut f, k, strategy, checked);
                for (sum, x) in sums.iter_mut().zip([
                    s.spills,
                    s.reloads,
                    s.slots as usize,
                    s.maxlive_before as usize,
                    s.maxlive_after as usize,
                    s.rounds,
                ]) {
                    *sum += x;
                }
                h.text(&f.to_string());
                h.text(&format!("{:?}", s.spilled));
                if strategy == SpillStrategy::CostGuided {
                    cost_guided.push(f);
                }
            }
            spills.push((sums, h.0));
        }

        let mut diag_sums = [0usize; 6];
        let mut audit_h = Fnv::new();
        for (name, destruct) in DESTRUCTIONS {
            let mut sums = [0usize; 3];
            let mut h = Fnv::new();
            let step = if name == "new" { 1 } else { step };
            for spilled in cost_guided.iter().step_by(step) {
                let mut f = spilled.clone();
                destruct(&mut f);
                match allocate_checked(&mut f, k, checked) {
                    Ok(alloc) => {
                        if name == "standard" {
                            for (sum, diags) in diag_sums.iter_mut().zip(audits(&f, &alloc, k)) {
                                *sum += diags.len();
                                for d in &diags {
                                    audit_h.text(&format!("{d:?}"));
                                }
                                audit_h.text("--");
                            }
                        }
                        sums[0] += alloc.rounds;
                        sums[1] += alloc.spilled.len();
                        let mut coloring: Vec<_> = alloc.coloring.into_iter().collect();
                        coloring.sort();
                        let mut slot_of: Vec<_> = alloc.slot_of.into_iter().collect();
                        slot_of.sort();
                        h.text(&f.to_string());
                        h.text(&format!(
                            "{coloring:?} {:?} {slot_of:?} {}",
                            alloc.spilled, alloc.spill_slots
                        ));
                    }
                    Err(e) => {
                        sums[2] += 1;
                        h.text(&format!("error: {e}"));
                    }
                }
            }
            allocs.push((sums, h.0));
        }
        audit_pins.push((diag_sums, audit_h.0));
    }
    (spills, allocs, audit_pins)
}

fn check(
    corpus: &str,
    funcs: &[Function],
    step: usize,
    spill_want: &[SpillPin],
    alloc_want: &[AllocPin],
    audit_want: &[AuditPin],
) {
    let mut checked = Checked::default();
    let (spills, allocs, audit_pins) = pins(funcs, step, &mut checked);
    assert!(
        checked.spill > 0 && checked.colour > 0,
        "{corpus}: no round reached the checks"
    );
    if spills == spill_want && allocs == alloc_want && audit_pins == audit_want {
        return;
    }
    let strategies = KS
        .iter()
        .flat_map(|k| [(k, "everywhere"), (k, "cost-guided")]);
    let mut table = String::new();
    for ((sums, digest), (k, strategy)) in spills.iter().zip(strategies) {
        table.push_str(&format!(
            "    ({sums:?}, 0x{digest:016x}), // k={k} {strategy}\n"
        ));
    }
    table.push('\n');
    let destructions = KS
        .iter()
        .flat_map(|k| DESTRUCTIONS.iter().map(move |(name, _)| (k, name)));
    for ((sums, digest), (k, name)) in allocs.iter().zip(destructions) {
        table.push_str(&format!(
            "    ({sums:?}, 0x{digest:016x}), // k={k} {name}\n"
        ));
    }
    table.push('\n');
    for ((sums, digest), k) in audit_pins.iter().zip(KS) {
        table.push_str(&format!("    ({sums:?}, 0x{digest:016x}), // k={k}\n"));
    }
    panic!(
        "{corpus}: the back end's output drifted; if the change is intended, re-pin from:\n{table}"
    );
}

#[test]
fn folded_kernels_reproduce_the_pinned_output() {
    let funcs = folded_kernels();
    assert_eq!(funcs.len(), 34);
    check(
        "kernels-folded",
        &funcs,
        1,
        &[
            ([450, 1500, 450, 289, 109, 60], 0xc6f5d76878499fff), // k=3 everywhere
            ([458, 1314, 458, 289, 109, 67], 0xba643f14ecaa8e17), // k=3 cost-guided
            ([314, 1243, 314, 289, 134, 42], 0xae16ca29df92dd8a), // k=4 everywhere
            ([318, 821, 318, 289, 138, 46], 0xcb16acff53081209),  // k=4 cost-guided
            ([109, 453, 109, 289, 216, 12], 0xba0a206c9c8217c4),  // k=8 everywhere
            ([65, 101, 65, 289, 247, 12], 0x6012e58a022a07af),    // k=8 cost-guided
        ],
        &[
            ([43, 18, 0], 0x0ae6610f16875c8c), // k=3 new
            ([44, 40, 0], 0x3b5ccd4368aefe9e), // k=3 standard
            ([43, 18, 0], 0xce2870e156ef3d85), // k=3 briggs-star
            ([38, 6, 0], 0xc5a6493895fefdfe),  // k=4 new
            ([38, 12, 0], 0x1549dec05ec556db), // k=4 standard
            ([38, 6, 0], 0xab189b3fbea3a566),  // k=4 briggs-star
            ([34, 0, 0], 0x6c9ecb512703233d),  // k=8 new
            ([34, 0, 0], 0x6b6b729d03480cbc),  // k=8 standard
            ([34, 0, 0], 0xf7b4580972ff43c3),  // k=8 briggs-star
        ],
        &[
            ([0, 1003, 787, 1004, 2664, 34], 0xb39fba9210df7cf6), // k=3
            ([0, 1316, 682, 875, 1628, 33], 0x50cde209d8d73626),  // k=4
            ([0, 1344, 537, 693, 451, 12], 0x8a2cbc71b51a38fd),   // k=8
        ],
    );
}

#[test]
fn unfolded_kernels_reproduce_the_pinned_output() {
    check(
        "kernels-unfolded",
        &unfolded_kernels(),
        1,
        &[
            ([462, 1511, 462, 291, 108, 59], 0x942f65ab7501372c), // k=3 everywhere
            ([469, 1322, 469, 291, 108, 66], 0x6e6628211ba21a5d), // k=3 cost-guided
            ([328, 1266, 328, 291, 134, 42], 0x8feb0d4312bd84c8), // k=4 everywhere
            ([341, 831, 341, 291, 138, 49], 0xe10a7761a69a0e0c),  // k=4 cost-guided
            ([111, 460, 111, 291, 218, 12], 0xa0ce2c9008c1d223),  // k=8 everywhere
            ([71, 107, 71, 291, 247, 12], 0x42dea74df5a9ccc8),    // k=8 cost-guided
        ],
        &[
            ([41, 13, 0], 0xd6dc0c347927f7b7), // k=3 new
            ([43, 35, 0], 0x15a694a7e16f38af), // k=3 standard
            ([41, 13, 0], 0x52c326603f5421b7), // k=3 briggs-star
            ([38, 4, 0], 0x9f3594a4ae29839f),  // k=4 new
            ([39, 11, 0], 0xf34d1142e1a962dc), // k=4 standard
            ([38, 4, 0], 0x1e3da2418a3e44e3),  // k=4 briggs-star
            ([34, 0, 0], 0xfd8f110c4c6b62c1),  // k=8 new
            ([34, 0, 0], 0x50cde5043efc1ff4),  // k=8 standard
            ([34, 0, 0], 0xafd9279c6d2eff40),  // k=8 briggs-star
        ],
        &[
            ([0, 1108, 931, 1185, 2822, 34], 0x0961b1be2001df78), // k=3
            ([0, 1291, 827, 1056, 1858, 33], 0x61b2cc8fe125bf0d), // k=4
            ([0, 1401, 679, 871, 454, 12], 0x4c87d706efad82be),   // k=8
        ],
    );
}

#[test]
fn spill_k8_shaped_functions_reproduce_the_pinned_output() {
    check(
        "spill-k8-shape",
        &spill_k8_shape(),
        1,
        &[
            ([1790, 4084, 1790, 145, 35, 12], 0x69e6feb666e958fe), // k=3 everywhere
            ([1874, 4094, 1874, 145, 35, 18], 0x97b3b5ebc29c4ab3), // k=3 cost-guided
            ([1362, 3588, 1362, 145, 35, 13], 0x2d5e8b8abaf77d93), // k=4 everywhere
            ([1572, 3697, 1572, 145, 35, 24], 0x00603668806ffacf), // k=4 cost-guided
            ([660, 2575, 660, 145, 35, 10], 0xee26c194391e38a5),   // k=8 everywhere
            ([1018, 2849, 1018, 145, 35, 14], 0x9dc001d8552da705), // k=8 cost-guided
        ],
        &[
            ([12, 353, 0], 0x3cf5693fb849d897),  // k=3 new
            ([12, 1060, 0], 0x49716711474544b1), // k=3 standard
            ([12, 343, 0], 0x90e38f85213a8b74),  // k=3 briggs-star
            ([12, 199, 0], 0xbd32728ff34f4ab5),  // k=4 new
            ([12, 594, 0], 0xfc5f56e5f2fba400),  // k=4 standard
            ([12, 191, 0], 0x08cef2af430aa8e2),  // k=4 briggs-star
            ([8, 7, 0], 0xbe4634e2603fd496),     // k=8 new
            ([9, 20, 0], 0x2fda1d366bb97755),    // k=8 standard
            ([8, 7, 0], 0x037d17b11055cd9a),     // k=8 briggs-star
        ],
        &[
            ([0, 3119, 2709, 3388, 8170, 4], 0x1cbf516893b80f2c), // k=3
            ([0, 3417, 2537, 3173, 4080, 4], 0xe90936d6e6ceca5c), // k=4
            ([0, 4252, 2251, 2817, 336, 4], 0xb28985f5a5929466),  // k=8
        ],
    );
}

#[test]
fn small_generated_programs_reproduce_the_pinned_output() {
    check(
        "generated",
        &small_programs(),
        4,
        &[
            ([5872, 13477, 5872, 1474, 483, 267], 0xe7e9cdacbb36bc1b), // k=3 everywhere
            ([6089, 13426, 6089, 1474, 483, 314], 0xd0b09b9b37fc7446), // k=3 cost-guided
            ([4407, 11747, 4407, 1474, 508, 238], 0x60d820bbbe380d4e), // k=4 everywhere
            ([4809, 11693, 4809, 1474, 508, 324], 0xa24103711efda6cf), // k=4 cost-guided
            ([1963, 7719, 1963, 1474, 718, 107], 0x1e8b9ad1a7e75a1b),  // k=8 everywhere
            ([2457, 6057, 2457, 1474, 798, 137], 0x03d3c10c1171d609),  // k=8 cost-guided
        ],
        &[
            ([248, 692, 0], 0xc66dec370325a1a9), // k=3 new
            ([61, 472, 0], 0xc6864ea77cbd001e),  // k=3 standard
            ([58, 148, 0], 0xc9b79f8b41d620f0),  // k=3 briggs-star
            ([218, 290, 0], 0x19e7a700b358b515), // k=4 new
            ([57, 199, 0], 0xf5f8031b28474dcc),  // k=4 standard
            ([50, 66, 0], 0xa34848d63b08440b),   // k=4 briggs-star
            ([100, 0, 0], 0x620bb5b4bc5102f4),   // k=8 new
            ([30, 8, 0], 0x01f16ca1e369ea3c),    // k=8 standard
            ([25, 0, 0], 0xc74c242ac103979f),    // k=8 briggs-star
        ],
        &[
            ([0, 2444, 2372, 2977, 6939, 25], 0x1241d79ae34b971b), // k=3
            ([0, 2786, 2236, 2808, 3328, 25], 0x655fcb1b25694812), // k=4
            ([0, 3764, 1915, 2406, 1550, 25], 0x9daa5103a8002cff), // k=8
        ],
    );
}

#[test]
fn residual_colour_rounds_match_fresh_analyses() {
    let generated: Vec<Function> = small_programs().into_iter().step_by(4).collect();
    let mut checked = Checked::default();
    for func in unfolded_kernels().iter().chain(&generated) {
        for k in KS {
            for (_, destruct) in DESTRUCTIONS {
                let mut f = func.clone();
                destruct(&mut f);
                let _ = allocate_checked(&mut f, k, &mut checked);
            }
        }
    }
    assert!(
        checked.respilled > 500,
        "only {} of {} colour rounds followed a residual rewrite",
        checked.respilled,
        checked.colour
    );
}
