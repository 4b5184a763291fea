//! Workload inputs, made from the run's seed.
//!
//! Every workload is a corpus of MiniLang functions plus the compile
//! knobs it is built with, and a serve plan: the request lines two
//! client connections send through `fcc serve --socket`. The daemon's
//! cache directory holds every corpus function before it starts. The
//! same seed always gives the same inputs; the program under test only
//! ever sees the generated text.
//!
//! The programs themselves form a fixed suite, as in the paper's
//! tables: the kernels, and generator output from [`SUITE_SEED`]. So do
//! the serve requests. The run's seed draws the order of both — the
//! compile order and each connection's send order — so a different seed
//! is a different workload over the same programs, and quality counts
//! stay comparable between runs.

use fcc_serve::json::escape;
use fcc_workloads::{generate, GenConfig, SplitMix64};

use crate::{Size, Workload};

/// Seed of the generated program suites and request mixes (fixed, like
/// the kernels).
pub const SUITE_SEED: u64 = 0x00fc_c5ee_d000_0001;

/// Interpreter fuel for reference and output runs.
pub const RUN_FUEL: u64 = 50_000_000;

/// One function of the corpus.
#[derive(Clone, Debug)]
pub struct Input {
    /// The function's name (unique within the corpus).
    pub name: String,
    /// Its MiniLang source: exactly one function.
    pub source: String,
    /// Arguments for the interpreter runs.
    pub args: Vec<i64>,
    /// Flat memory the interpreter runs need.
    pub memory_words: usize,
}

/// The serve half of a workload.
#[derive(Clone, Debug, Default)]
pub struct ServePlan {
    /// Request lines per client connection, in send order.
    pub streams: [Vec<String>; 2],
    /// Functions submitted by each line, index-aligned with `streams`.
    pub fns_per_line: [Vec<usize>; 2],
}

/// Everything one workload runs.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The functions the compile path compiles, one at a time.
    pub inputs: Vec<Input>,
    /// `--opt` for every compile of this workload.
    pub opt: bool,
    /// `--k-registers` for every compile of this workload.
    pub k: Option<u32>,
    /// The request streams for the serve path.
    pub serve: ServePlan,
}

/// The generator shape of `scaling.rs`, at `stmts` top-level statements.
fn large_shape(stmts: usize) -> GenConfig {
    GenConfig {
        stmts,
        max_depth: 4,
        vars: 8 + stmts / 50,
        max_loop: 4,
        params: 2,
        memory_ops: true,
    }
}

fn compile_line(conn: usize, i: usize, source: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":\"c{conn}-{i}\",\"verb\":\"compile\",\"source\":\"{}\"}}",
        escape(source)
    )
}

/// `source` with a dead `let edit_{n} = {n};` at the top of its body: a
/// new version of the function, so a different cache key (the lowered
/// text carries the constant, not the name), that compiles to the same
/// code.
fn edited(source: &str, n: usize) -> String {
    let header = source.find("fn ").unwrap_or(0);
    let body = source[header..].find('{').map_or(source.len(), |b| header + b + 1);
    format!("{} let edit_{n} = {n};{}", &source[..body], &source[body..])
}

/// The edit-compile stream of `fcc bench-serve`: each request submits a
/// fresh module (20%), resubmits a cached one with one function edited
/// (25%), or resubmits a cached one unchanged (55%).
///
/// Each connection draws its modules (1 to `max_fns` functions) from its
/// own half of `inputs`, so the two pools are disjoint. Every input is in
/// the primed cache; edits and fresh modules carry a number naming the
/// connection, request and function, so each of their functions misses
/// exactly once and the hit count does not depend on how the connections
/// interleave. The requests come from [`SUITE_SEED`]; the run's seed
/// shuffles each connection's send order.
fn edit_compile(
    inputs: &[Input],
    max_fns: usize,
    requests: usize,
    rng: &mut SplitMix64,
) -> ServePlan {
    let mut suite = SplitMix64::seed_from_u64(SUITE_SEED ^ 0x5e_12e);
    let mut plan = ServePlan::default();
    for conn in 0..2 {
        let own: Vec<&str> = inputs
            .iter()
            .skip(conn)
            .step_by(2)
            .map(|i| i.source.as_str())
            .collect();
        let module = |suite: &mut SplitMix64| -> Vec<String> {
            let mut picks: Vec<usize> = (0..own.len()).collect();
            shuffle(&mut picks, suite);
            picks.truncate(suite.gen_range(1..=max_fns.min(own.len())));
            picks.into_iter().map(|p| own[p].to_string()).collect()
        };
        let fresh = requests / 5;
        let edits = requests / 4;
        // A number per connection, request and function.
        let tag = |i: usize, f: usize| 1_000_000 + conn * 100_000 + i * 100 + f;
        let mut lines: Vec<(String, usize)> = (0..requests)
            .map(|i| {
                let mut funcs = module(&mut suite);
                if i < fresh {
                    for (f, src) in funcs.iter_mut().enumerate() {
                        *src = edited(src, tag(i, f));
                    }
                } else if i < fresh + edits {
                    let f = suite.gen_range(0..funcs.len());
                    funcs[f] = edited(&funcs[f], tag(i, f));
                }
                (funcs.join("\n"), funcs.len())
            })
            .collect();
        shuffle(&mut lines, rng);
        for (i, (source, n)) in lines.into_iter().enumerate() {
            plan.streams[conn].push(compile_line(conn, i, &source));
            plan.fns_per_line[conn].push(n);
        }
    }
    plan
}

/// Build `workload`'s inputs from `seed`.
pub fn build(workload: Workload, size: Size, seed: u64) -> Corpus {
    let tiny = size == Size::Tiny;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_fcc0_0000_0000);
    let (mut inputs, opt, k, max_fns, requests) = match workload {
        Workload::Kernels => {
            let take = if tiny { 4 } else { usize::MAX };
            let inputs: Vec<Input> = fcc_workloads::kernels()
                .iter()
                .take(take)
                .map(|k| Input {
                    name: k.name.to_string(),
                    source: k.source.to_string(),
                    args: k.args.to_vec(),
                    memory_words: k.memory_words,
                })
                .collect();
            (inputs, true, Some(16), 6, if tiny { 10 } else { 200 })
        }
        Workload::SpillK8 => {
            let mut suite = SplitMix64::seed_from_u64(SUITE_SEED);
            let (count, stmts) = if tiny { (2, 10usize..=16) } else { (14, 30..=60) };
            let inputs: Vec<Input> = (0..count)
                .map(|i| {
                    let cfg = large_shape(suite.gen_range(stmts.clone()));
                    let mut prog = generate(suite.next_u64(), &cfg);
                    prog.name = format!("spill{i}");
                    Input {
                        name: prog.name.clone(),
                        source: fcc_frontend::to_source(&prog),
                        args: vec![5, -3],
                        memory_words: 256,
                    }
                })
                .collect();
            (inputs, false, Some(8), 3, if tiny { 10 } else { 80 })
        }
    };
    let serve = edit_compile(&inputs, max_fns, requests, &mut rng);
    // The corpus is fixed; the seed picks the compile order.
    shuffle(&mut inputs, &mut rng);
    Corpus {
        inputs,
        opt,
        k,
        serve,
    }
}

/// Fisher–Yates with the benchmark's RNG.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}
