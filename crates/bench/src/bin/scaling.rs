//! §3.7 — the `O(n·α(n))` complexity claim.
//!
//! Generates structured programs of geometrically increasing size,
//! converts each out of SSA with the New algorithm, and reports time per
//! φ-node argument. Near-linear scaling shows up as a roughly constant
//! ns/φ-arg column (inverse Ackermann is constant for any feasible n);
//! the interference-graph coalescer's quadratic bit matrix is shown
//! alongside for contrast.
//!
//! A second section measures the batch driver: a generated module is
//! compiled at increasing `--jobs`, checking that the printed IR is
//! byte-identical to the serial run and reporting wall time, speedup,
//! and pool utilization. Pass `--jobs N` to cap the sweep.
//!
//! Run: `cargo run --release -p fcc-bench --bin scaling [-- --jobs N]`

use std::time::Instant;

use fcc_analysis::AnalysisManager;
use fcc_bench::{PipelineSpec, Table};
use fcc_core::{coalesce_prepared, CoalesceOptions, CoalesceStats};
use fcc_driver::{compile_module, resolve_jobs, CompileRequest};
use fcc_ir::{InstKind, Module};
use fcc_regalloc::{coalesce_copies, destruct_via_webs, BriggsOptions, GraphMode};
use fcc_ssa::{build_ssa, split_critical_edges_with, SsaFlavor};
use fcc_workloads::{generate, GenConfig};

fn phi_args(f: &fcc_ir::Function) -> usize {
    let mut n = 0;
    for b in f.blocks() {
        for phi in f.block_phis(b) {
            if let InstKind::Phi { args } = &f.inst(phi).kind {
                n += args.len();
            }
        }
    }
    n
}

fn main() {
    fcc_bench::certify_or_die(&[PipelineSpec::New, PipelineSpec::BriggsStar]);
    let mut table = Table::new(&[
        "stmts",
        "insts",
        "phi args",
        "analyses(us)",
        "convert(us)",
        "ns/phi-arg",
        "Briggs(us)",
        "B matrix(B)",
    ]);

    for scale in [25usize, 50, 100, 200, 400, 800, 1600] {
        let cfg = GenConfig {
            stmts: scale,
            max_depth: 4,
            vars: 8 + scale / 50,
            max_loop: 4,
            params: 2,
            memory_ops: true,
        };
        // Average a few seeds per size for stability.
        let seeds = [1u64, 2, 3];
        let mut tot_args = 0usize;
        let mut tot_insts = 0usize;
        let mut analysis_time = 0f64;
        let mut new_time = 0f64;
        let mut briggs_time = 0f64;
        let mut briggs_matrix = 0usize;
        for &seed in &seeds {
            let prog = generate(seed, &cfg);
            let base = fcc_frontend::lower_program(&prog).expect("generated program lowers");
            // Lint gate outside every timed region: an unsound run must
            // not contribute a row.
            if let Err(e) = fcc_bench::certify(&base, PipelineSpec::New) {
                eprintln!("lint certification failed (seed {seed}, {scale} stmts): {e}");
                std::process::exit(1);
            }

            let mut f = base.clone();
            build_ssa(&mut f, SsaFlavor::Pruned, true);
            tot_args += phi_args(&f);
            tot_insts += f.live_inst_count();
            // Analyses (assumed as given by the paper) vs the conversion
            // proper, which carries the O(n*alpha(n)) claim.
            let mut stats = CoalesceStats::default();
            let mut am = AnalysisManager::new();
            let ta = Instant::now();
            stats.edges_split = split_critical_edges_with(&mut f, &mut am);
            let cfg_ = am.cfg(&f);
            let dt = am.domtree(&f);
            let live = am.liveness(&f);
            analysis_time += ta.elapsed().as_secs_f64();
            let t0 = Instant::now();
            coalesce_prepared(
                &mut f,
                &cfg_,
                &dt,
                &live,
                None,
                &CoalesceOptions::default(),
                stats,
            );
            new_time += t0.elapsed().as_secs_f64();

            let mut g = base.clone();
            build_ssa(&mut g, SsaFlavor::Pruned, false);
            destruct_via_webs(&mut g);
            let t1 = Instant::now();
            let stats = coalesce_copies(
                &mut g,
                &BriggsOptions {
                    mode: GraphMode::Full,
                },
            );
            briggs_time += t1.elapsed().as_secs_f64();
            briggs_matrix = briggs_matrix.max(stats.peak_matrix_bytes());
        }
        let per_arg = if tot_args > 0 {
            new_time * 1e9 / tot_args as f64
        } else {
            0.0
        };
        table.row(vec![
            scale.to_string(),
            (tot_insts / seeds.len()).to_string(),
            (tot_args / seeds.len()).to_string(),
            format!("{:.1}", analysis_time * 1e6 / seeds.len() as f64),
            format!("{:.1}", new_time * 1e6 / seeds.len() as f64),
            format!("{per_arg:.0}"),
            format!("{:.1}", briggs_time * 1e6 / seeds.len() as f64),
            briggs_matrix.to_string(),
        ]);
    }

    println!("Scaling study (Section 3.7): New coalescing vs program size\n");
    print!("{}", table.render());
    println!(
        "\nclaim: O(n*alpha(n)) for the conversion proper (ns/phi-arg roughly flat). Analyses \
         use the path-exploration liveness; the interference-graph coalescer's time and bit matrix \
         grow quadratically"
    );

    batch_scaling(max_jobs());
}

/// `--jobs N` caps the parallel sweep; default is available parallelism.
fn max_jobs() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .map(|n: usize| resolve_jobs(n))
                .unwrap_or_else(|| resolve_jobs(0));
        }
    }
    resolve_jobs(0)
}

/// Batch-driver section: one module of generated functions, compiled at
/// doubling `--jobs`, output checked byte-identical to the serial run.
fn batch_scaling(max_jobs: usize) {
    let shape = GenConfig {
        stmts: 120,
        max_depth: 4,
        vars: 10,
        max_loop: 4,
        params: 2,
        memory_ops: true,
    };
    let funcs: Vec<_> = (0..64u64)
        .map(|seed| {
            let mut f = fcc_frontend::lower_program(&generate(seed, &shape))
                .expect("generated program lowers");
            f.name = format!("gen{seed}");
            f
        })
        .collect();
    let module = Module::from_functions(funcs).expect("unique names");
    let req = CompileRequest::new().opt(true);

    let serial =
        compile_module(module.clone(), &req.clone().jobs(1)).expect("serial batch compiles");
    let serial_text = serial.clone().into_surviving_module().to_string();
    let serial_wall = serial.timing.wall;

    let mut table = Table::new(&["jobs", "wall(ms)", "speedup", "utilization", "identical"]);
    table.row(vec![
        "1".into(),
        format!("{:.1}", serial_wall.as_secs_f64() * 1e3),
        "1.00".into(),
        "100%".into(),
        "yes".into(),
    ]);
    let mut jobs = 2;
    while jobs <= max_jobs {
        let out = compile_module(module.clone(), &req.clone().jobs(jobs))
            .expect("parallel batch compiles");
        let text = out.clone().into_surviving_module().to_string();
        table.row(vec![
            jobs.to_string(),
            format!("{:.1}", out.timing.wall.as_secs_f64() * 1e3),
            format!(
                "{:.2}",
                serial_wall.as_secs_f64() / out.timing.wall.as_secs_f64().max(1e-12)
            ),
            format!("{:.0}%", out.timing.utilization() * 100.0),
            if text == serial_text {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        if text != serial_text {
            eprintln!("batch scaling: --jobs {jobs} output differs from serial run");
            std::process::exit(1);
        }
        jobs *= 2;
    }

    println!("\nBatch driver scaling: 64-function module, --opt, per-worker analysis state\n");
    print!("{}", table.render());
    println!(
        "\nclaim: functions are independent, so the batch driver's speedup tracks the job \
              count until the module runs out of stragglers; output is byte-identical at every \
              width"
    );
}
