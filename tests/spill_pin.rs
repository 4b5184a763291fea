//! Pins the k-register back end's exact output: what `spill_to_k` makes
//! of a function under each strategy, and what `allocate` makes of the
//! spilled, New-destructed result.
//!
//! Four corpora, each at k ∈ {3, 4, 8}:
//!
//! - the 34 kernels as folded, `standard_pipeline`-optimised pruned SSA
//!   (what the `new` and `standard` families spill);
//! - the same kernels as unfolded pruned SSA (copies kept);
//! - four generated functions in the shape of the benchmark's spill-k8
//!   workload (30–60 statements, nesting depth 4, memory on);
//! - 100 small generated programs (8 top-level statements each).
//!
//! Per corpus, k and strategy the pin holds every [`SpillStats`] field,
//! summed over the corpus, and an FNV digest of each spilled function's
//! printed IR and victim list. Per corpus and k it holds the allocator's
//! round and spill totals and a digest of its rewritten IR, its colouring
//! (sorted by value), its spilled values and its slot map.
//!
//! The numbers are those of the reference back end: the spiller that
//! rewrote one victim at a time with a whole-function scan each, and the
//! colourer that kept its state in hash maps. Value numbers, instruction
//! order, slot numbers and colours all feed the digests, so any rework
//! of the spiller or colourer must reproduce them bit for bit. A
//! deliberate change to what they compute re-pins here: a mismatch
//! prints the full table to paste back.

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
/// corpus, and the digest. A corpus has one per k in `KS`.
type AllocPin = ([usize; 3], u64);

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

/// The `spill_to_k` and `allocate` pins of `funcs`, in `KS` order.
fn pins(funcs: &[Function]) -> (Vec<SpillPin>, Vec<AllocPin>) {
    let mut spills = Vec::new();
    let mut allocs = Vec::new();
    for k in KS {
        for strategy in [SpillStrategy::Everywhere, SpillStrategy::CostGuided] {
            let mut sums = [0usize; 6];
            let mut h = Fnv::new();
            for func in funcs {
                let mut f = func.clone();
                let s = spill_to_k(&mut f, k, strategy);
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
            }
            spills.push((sums, h.0));
        }

        let mut sums = [0usize; 3];
        let mut h = Fnv::new();
        for func in funcs {
            let mut f = func.clone();
            spill_to_k(&mut f, k, SpillStrategy::CostGuided);
            coalesce_ssa_managed(
                &mut f,
                &CoalesceOptions::default(),
                &mut AnalysisManager::new(),
            );
            let opts = AllocOptions {
                registers: k as usize,
                ..Default::default()
            };
            match allocate(&mut f, &opts) {
                Ok(alloc) => {
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
    (spills, allocs)
}

fn check(corpus: &str, funcs: &[Function], spill_want: &[SpillPin], alloc_want: &[AllocPin]) {
    let (spills, allocs) = pins(funcs);
    if spills == spill_want && allocs == alloc_want {
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
    for ((sums, digest), k) in allocs.iter().zip(KS) {
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
        &[
            ([450, 1500, 450, 289, 109, 60], 0xc6f5d76878499fff), // k=3 everywhere
            ([458, 1314, 458, 289, 109, 67], 0xba643f14ecaa8e17), // k=3 cost-guided
            ([314, 1243, 314, 289, 134, 42], 0xae16ca29df92dd8a), // k=4 everywhere
            ([318, 821, 318, 289, 138, 46], 0xcb16acff53081209),  // k=4 cost-guided
            ([109, 453, 109, 289, 216, 12], 0xba0a206c9c8217c4),  // k=8 everywhere
            ([65, 101, 65, 289, 247, 12], 0x6012e58a022a07af),    // k=8 cost-guided
        ],
        &[
            ([43, 18, 0], 0x0ae6610f16875c8c), // k=3
            ([38, 6, 0], 0xc5a6493895fefdfe),  // k=4
            ([34, 0, 0], 0x6c9ecb512703233d),  // k=8
        ],
    );
}

#[test]
fn unfolded_kernels_reproduce_the_pinned_output() {
    check(
        "kernels-unfolded",
        &unfolded_kernels(),
        &[
            ([462, 1511, 462, 291, 108, 59], 0x942f65ab7501372c), // k=3 everywhere
            ([469, 1322, 469, 291, 108, 66], 0x6e6628211ba21a5d), // k=3 cost-guided
            ([328, 1266, 328, 291, 134, 42], 0x8feb0d4312bd84c8), // k=4 everywhere
            ([341, 831, 341, 291, 138, 49], 0xe10a7761a69a0e0c),  // k=4 cost-guided
            ([111, 460, 111, 291, 218, 12], 0xa0ce2c9008c1d223),  // k=8 everywhere
            ([71, 107, 71, 291, 247, 12], 0x42dea74df5a9ccc8),    // k=8 cost-guided
        ],
        &[
            ([41, 13, 0], 0xd6dc0c347927f7b7), // k=3
            ([38, 4, 0], 0x9f3594a4ae29839f),  // k=4
            ([34, 0, 0], 0xfd8f110c4c6b62c1),  // k=8
        ],
    );
}

#[test]
fn spill_k8_shaped_functions_reproduce_the_pinned_output() {
    check(
        "spill-k8-shape",
        &spill_k8_shape(),
        &[
            ([1790, 4084, 1790, 145, 35, 12], 0x69e6feb666e958fe), // k=3 everywhere
            ([1874, 4094, 1874, 145, 35, 18], 0x97b3b5ebc29c4ab3), // k=3 cost-guided
            ([1362, 3588, 1362, 145, 35, 13], 0x2d5e8b8abaf77d93), // k=4 everywhere
            ([1572, 3697, 1572, 145, 35, 24], 0x00603668806ffacf), // k=4 cost-guided
            ([660, 2575, 660, 145, 35, 10], 0xee26c194391e38a5),   // k=8 everywhere
            ([1018, 2849, 1018, 145, 35, 14], 0x9dc001d8552da705), // k=8 cost-guided
        ],
        &[
            ([12, 353, 0], 0x3cf5693fb849d897), // k=3
            ([12, 199, 0], 0xbd32728ff34f4ab5), // k=4
            ([8, 7, 0], 0xbe4634e2603fd496),    // k=8
        ],
    );
}

#[test]
fn small_generated_programs_reproduce_the_pinned_output() {
    check(
        "generated",
        &small_programs(),
        &[
            ([5872, 13477, 5872, 1474, 483, 267], 0xe7e9cdacbb36bc1b), // k=3 everywhere
            ([6089, 13426, 6089, 1474, 483, 314], 0xd0b09b9b37fc7446), // k=3 cost-guided
            ([4407, 11747, 4407, 1474, 508, 238], 0x60d820bbbe380d4e), // k=4 everywhere
            ([4809, 11693, 4809, 1474, 508, 324], 0xa24103711efda6cf), // k=4 cost-guided
            ([1963, 7719, 1963, 1474, 718, 107], 0x1e8b9ad1a7e75a1b),  // k=8 everywhere
            ([2457, 6057, 2457, 1474, 798, 137], 0x03d3c10c1171d609),  // k=8 cost-guided
        ],
        &[
            ([248, 692, 0], 0xc66dec370325a1a9), // k=3
            ([218, 290, 0], 0x19e7a700b358b515), // k=4
            ([100, 0, 0], 0x620bb5b4bc5102f4),   // k=8
        ],
    );
}
