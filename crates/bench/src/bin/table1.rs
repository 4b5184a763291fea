//! Table 1 — engineering the interference-graph coalescer.
//!
//! Reproduces the paper's comparison of **Briggs** (full-namespace
//! interference graph every pass) against **Briggs\*** (graph restricted
//! to copy-related names): bit-matrix bytes for the first and second
//! build/coalesce passes, and total coalescing time. The paper reports
//! up-to-three-orders-of-magnitude memory savings and ~2× time savings
//! with identical results; the harness asserts the identical-results part
//! outright.
//!
//! Run: `cargo run --release -p fcc-bench --bin table1`

use fcc_analysis::{AnalysisCounters, AnalysisManager};
use fcc_bench::{cache_line, certify_or_die, geomean, ratio, us, PipelineSpec, Table};
use fcc_regalloc::{coalesce_copies_managed, destruct_via_webs, BriggsOptions, GraphMode};
use fcc_ssa::{build_ssa, SsaFlavor};
use fcc_workloads::{compile_kernel, kernels};

fn main() {
    certify_or_die(&[PipelineSpec::BriggsStar]);
    let repeats = 5;
    let mut table = Table::new(&[
        "File",
        "B mem1",
        "B* mem1",
        "B mem2",
        "B* mem2",
        "B time(us)",
        "B* time(us)",
        "time B/B*",
        "mem B/B*",
    ]);
    let mut time_ratios = Vec::new();
    let mut mem_ratios = Vec::new();
    let mut counters = AnalysisCounters::default();

    let mut rows: Vec<(String, Vec<String>, f64, f64)> = Vec::new();
    for k in kernels() {
        // Shared prefix: un-folded SSA + φ-web live ranges.
        let mut pre = compile_kernel(k);
        build_ssa(&mut pre, SsaFlavor::Pruned, false);
        destruct_via_webs(&mut pre);

        let mut run = |mode: GraphMode| {
            let mut best_time = f64::MAX;
            let mut stats = None;
            for _ in 0..repeats {
                let mut f = pre.clone();
                let mut am = AnalysisManager::new();
                let s = coalesce_copies_managed(&mut f, &BriggsOptions { mode }, &mut am);
                let t = s.total_time().as_secs_f64();
                if t < best_time {
                    best_time = t;
                }
                counters += am.counters();
                stats = Some((s, f.static_copy_count()));
            }
            let (s, copies) = stats.expect("repeats >= 1");
            (s, copies, best_time)
        };
        let (full, full_copies, full_t) = run(GraphMode::Full);
        let (star, star_copies, star_t) = run(GraphMode::Restricted);
        assert_eq!(
            full_copies, star_copies,
            "{}: Briggs and Briggs* must produce identical results",
            k.name
        );

        let pass_mem = |s: &fcc_regalloc::BriggsStats, i: usize| {
            s.passes.get(i).map(|p| p.matrix_bytes).unwrap_or(0)
        };
        let fm1 = pass_mem(&full, 0);
        let sm1 = pass_mem(&star, 0);
        let fm2 = pass_mem(&full, 1);
        let sm2 = pass_mem(&star, 1);
        let t_ratio = full_t / star_t.max(1e-12);
        let m_ratio = fm1 as f64 / (sm1.max(1)) as f64;
        time_ratios.push(t_ratio);
        mem_ratios.push(m_ratio);

        rows.push((
            k.name.to_string(),
            vec![
                k.name.to_string(),
                fm1.to_string(),
                sm1.to_string(),
                fm2.to_string(),
                sm2.to_string(),
                us(std::time::Duration::from_secs_f64(full_t)),
                us(std::time::Duration::from_secs_f64(star_t)),
                format!("{t_ratio:.2}"),
                format!("{m_ratio:.1}"),
            ],
            fm1 as f64,
            full_t,
        ));
    }

    // The paper lists the ten largest; sort by full-graph memory.
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    for (_, cells, _, _) in rows.iter().take(10) {
        table.row(cells.clone());
    }
    table.row(vec![
        "AVERAGE".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.2}", geomean(&time_ratios)),
        format!("{:.1}", geomean(&mem_ratios)),
    ]);

    println!("Table 1: interference-graph coalescer, Briggs vs Briggs*");
    println!("(bit-matrix bytes per pass; total coalescing time; identical results asserted)\n");
    print!("{}", table.render());
    println!("\n{}", cache_line(&counters));
    println!(
        "paper: Briggs* memory smaller by up to 3 orders of magnitude, time ~2x better, \
         results identical; measured geomean mem ratio {} and time ratio {} (see EXPERIMENTS.md)",
        ratio(geomean(&mem_ratios), 1.0, 2),
        ratio(geomean(&time_ratios), 1.0, 2),
    );
}
