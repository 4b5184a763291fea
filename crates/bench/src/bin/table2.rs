//! Table 2 — comparison of compilation times.
//!
//! Standard (naive φ instantiation) vs New (the paper's algorithm) vs
//! Briggs\* (improved interference-graph coalescer), timed from the start
//! of SSA construction to the final rewrite, exactly as in §4.2. The
//! paper's shape: New is slower than Standard (it pays for the analysis)
//! but about 3× faster than Briggs\*.
//!
//! Run: `cargo run --release -p fcc-bench --bin table2`

use fcc_bench::{cache_line, compare_pipelines, us, Summary};

fn main() {
    let repeats = 9;
    let (table, counters) = compare_pipelines(
        ["Standard(us)", "New(us)", "Briggs*(us)"],
        repeats,
        |m| m.time.as_secs_f64(),
        |m| us(m.time),
        |m| m.time.as_secs_f64(),
        Summary::Geomean,
    );

    println!("Table 2: compilation times (SSA build -> rewrite; best of {repeats})\n");
    print!("{}", table.render());
    println!("\n{}", cache_line(&counters));
    println!(
        "paper: New/Standard ~1.8 (extra analysis), New/Briggs* ~0.33 (3x faster than the \
         interference-graph coalescer); see EXPERIMENTS.md for the measured comparison"
    );
}
