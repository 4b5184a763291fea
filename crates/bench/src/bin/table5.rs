//! Table 5 — static copies left in the code.
//!
//! Copy instructions remaining after each pipeline's rewrite. The paper's
//! shape: New leaves about three percent more static copies than the
//! interference-graph coalescer on average, with per-kernel variance —
//! both algorithms are heuristic.
//!
//! Run: `cargo run --release -p fcc-bench --bin table5`

use fcc_bench::{cache_line, compare_pipelines, Summary};

fn main() {
    let (table, counters) = compare_pipelines(
        ["Standard", "New", "Briggs*"],
        1,
        |m| m.static_copies as f64,
        |m| m.static_copies.to_string(),
        |m| m.dynamic_copies as f64, // the paper ranks Table 5 by dynamic copies too
        Summary::Total,
    );

    println!("Table 5: static copies remaining after rewrite\n");
    print!("{}", table.render());
    println!("\n{}", cache_line(&counters));
    println!(
        "paper: New leaves ~3% more static copies than the interference-graph coalescer on \
         average; results vary significantly per kernel (heuristics on both sides)"
    );
}
