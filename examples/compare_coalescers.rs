//! Compare the three SSA-destruction pipelines on one benchmark kernel.
//!
//! Standard (no coalescing), New (the paper's dominance-forest
//! algorithm) and Briggs\* (φ webs and the interference-graph coalescer
//! over copy-related names), each through the driver's pipeline stages — reporting wall
//! time, peak data-structure bytes, the static/dynamic copy counts the
//! paper's Tables 2–5 are built from, and the analysis-cache hits each
//! pipeline gets from sharing one `AnalysisManager` across its phases.
//!
//! Run: `cargo run --release --example compare_coalescers [kernel]`
//! (default kernel: tomcatv; list: `--example compare_coalescers list`)

use fcc::bench::render_phases;
use fcc::prelude::*;
use fcc::workloads::{compile_kernel, kernel, kernels, reference_run};

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tomcatv".to_string());
    if arg == "list" {
        for k in kernels() {
            println!("{:10} - {}", k.name, k.description);
        }
        return;
    }
    let k = kernel(&arg).unwrap_or_else(|| {
        eprintln!("unknown kernel {arg:?}; try `--example compare_coalescers list`");
        std::process::exit(1);
    });

    let base = compile_kernel(k);
    let reference = reference_run(&base, k).expect("kernel runs");
    println!(
        "kernel {}: {} insts, {} source copies, reference checksum {:?}\n",
        k.name,
        base.live_inst_count(),
        base.static_copy_count(),
        reference.ret
    );
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>15} {:>12}",
        "pipeline", "time(us)", "peak bytes", "static copies", "dynamic copies", "cache h/m"
    );

    // `measure` runs the driver's SSA and destruction stages — the
    // recipe `fcc` ships — and checks the result against the
    // interpreter.
    let mut new_phases = Vec::new();
    for p in [
        PipelineSpec::Standard,
        PipelineSpec::New,
        PipelineSpec::BriggsStar,
    ] {
        let m = measure(p, k, 1);
        let counters = m.counters();
        println!(
            "{:<12} {:>10.1} {:>12} {:>14} {:>15} {:>12}",
            p.label(),
            m.time.as_secs_f64() * 1e6,
            m.peak_bytes,
            m.static_copies,
            m.dynamic_copies,
            format!("{}/{}", counters.total_hits(), counters.total_misses()),
        );
        if p == PipelineSpec::New {
            new_phases = m.phases;
        }
    }

    println!("\nper-phase breakdown of the New pipeline:");
    print!("{}", render_phases(&new_phases));
}
