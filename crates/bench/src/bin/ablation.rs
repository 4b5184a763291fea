//! Ablation study: the design choices inside the New algorithm.
//!
//! DESIGN.md calls out three knobs worth isolating:
//!
//! * the five §3.1 **early filters** (paper's claim: filtering while
//!   unioning needs fewer copies than discovering the interference later);
//! * the Figure 2 **victim heuristic** vs naive always-child /
//!   always-parent;
//! * the **edge-cut** split strategy (this library's extension along the
//!   paper's "heuristics to improve precision" future work) vs the
//!   paper's member removal.
//!
//! For each configuration: total static and dynamic copies over the whole
//! kernel suite, and total coalescing time. Briggs\* anchors the
//! comparison.
//!
//! Run: `cargo run --release -p fcc-bench --bin ablation`

use std::time::Instant;

use fcc_analysis::{AnalysisCounters, AnalysisManager};
use fcc_bench::{PipelineSpec, Table};
use fcc_core::{coalesce_ssa_managed, CoalesceOptions, SplitHeuristic, SplitStrategy};
use fcc_regalloc::{coalesce_copies_managed, destruct_via_webs, BriggsOptions, GraphMode};
use fcc_ssa::{build_ssa_with, destruct_sreedhar_i, SsaFlavor};
use fcc_workloads::{compile_kernel, kernels, reference_run};

fn main() {
    fcc_bench::certify_or_die(&[PipelineSpec::New, PipelineSpec::BriggsStar]);
    let configs: Vec<(&str, CoalesceOptions)> = vec![
        ("New (paper defaults)", CoalesceOptions::default()),
        (
            "New, no early filters",
            CoalesceOptions {
                early_filters: false,
                ..Default::default()
            },
        ),
        (
            "New, always split child",
            CoalesceOptions {
                split_heuristic: SplitHeuristic::AlwaysChild,
                ..Default::default()
            },
        ),
        (
            "New, always split parent",
            CoalesceOptions {
                split_heuristic: SplitHeuristic::AlwaysParent,
                ..Default::default()
            },
        ),
        (
            "New + edge-cut splitting",
            CoalesceOptions {
                split_strategy: SplitStrategy::EdgeCut,
                ..Default::default()
            },
        ),
    ];

    let mut table = Table::new(&[
        "configuration",
        "static copies",
        "dynamic copies",
        "time(us)",
        "cache h/m",
    ]);
    let hm = |c: &AnalysisCounters| format!("{}/{}", c.total_hits(), c.total_misses());

    for (label, opts) in &configs {
        let mut static_copies = 0usize;
        let mut dynamic_copies = 0u64;
        let mut time = 0f64;
        let mut counters = AnalysisCounters::default();
        for k in kernels() {
            let mut f = compile_kernel(k);
            let mut am = AnalysisManager::new();
            build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
            let t0 = Instant::now();
            coalesce_ssa_managed(&mut f, opts, &mut am);
            time += t0.elapsed().as_secs_f64();
            counters += am.counters();
            static_copies += f.static_copy_count();
            dynamic_copies += reference_run(&f, k).expect("runs").dynamic_copies;
        }
        table.row(vec![
            label.to_string(),
            static_copies.to_string(),
            dynamic_copies.to_string(),
            format!("{:.1}", time * 1e6),
            hm(&counters),
        ]);
    }

    // Sreedhar Method I + Briggs* cleanup: the era's other destruction
    // algorithm, which deliberately over-inserts copies (n+1 per phi) and
    // leans on the coalescer.
    {
        let mut static_copies = 0usize;
        let mut dynamic_copies = 0u64;
        let mut time = 0f64;
        let mut counters = AnalysisCounters::default();
        for k in kernels() {
            let mut f = compile_kernel(k);
            let mut am = AnalysisManager::new();
            build_ssa_with(&mut f, SsaFlavor::Pruned, true, &mut am);
            let t0 = Instant::now();
            destruct_sreedhar_i(&mut f);
            coalesce_copies_managed(
                &mut f,
                &BriggsOptions {
                    mode: GraphMode::Restricted,
                },
                &mut am,
            );
            time += t0.elapsed().as_secs_f64();
            counters += am.counters();
            static_copies += f.static_copy_count();
            dynamic_copies += reference_run(&f, k).expect("runs").dynamic_copies;
        }
        table.row(vec![
            "Sreedhar I + Briggs*".to_string(),
            static_copies.to_string(),
            dynamic_copies.to_string(),
            format!("{:.1}", time * 1e6),
            hm(&counters),
        ]);
    }

    // Briggs* anchor.
    {
        let mut static_copies = 0usize;
        let mut dynamic_copies = 0u64;
        let mut time = 0f64;
        let mut counters = AnalysisCounters::default();
        for k in kernels() {
            let mut f = compile_kernel(k);
            let mut am = AnalysisManager::new();
            build_ssa_with(&mut f, SsaFlavor::Pruned, false, &mut am);
            destruct_via_webs(&mut f);
            let t0 = Instant::now();
            coalesce_copies_managed(
                &mut f,
                &BriggsOptions {
                    mode: GraphMode::Restricted,
                },
                &mut am,
            );
            time += t0.elapsed().as_secs_f64();
            counters += am.counters();
            static_copies += f.static_copy_count();
            dynamic_copies += reference_run(&f, k).expect("runs").dynamic_copies;
        }
        table.row(vec![
            "Briggs* (anchor)".to_string(),
            static_copies.to_string(),
            dynamic_copies.to_string(),
            format!("{:.1}", time * 1e6),
            hm(&counters),
        ]);
    }

    println!("Ablation over the full kernel suite (totals)\n");
    print!("{}", table.render());
    println!(
        "\nexpected shape: filters help copy counts; Figure 2's victim rule beats the naive\n\
         rules; edge-cut splitting closes the dynamic-copy gap to Briggs* entirely."
    );
}
