//! Table 4 — dynamic copies executed.
//!
//! Each kernel's rewritten code runs in the interpreter on its standard
//! inputs; the interpreter counts executed `copy` instructions. The
//! paper's shape: New removes the vast majority of Standard's dynamic
//! copies and lands within ~1% of the interference-graph coalescer on
//! average, with per-kernel variance in both directions (the innermost-
//! loop-first heuristic "sometimes fails, as in the case of initx, but it
//! also sometimes wins").
//!
//! Run: `cargo run --release -p fcc-bench --bin table4`

use fcc_bench::{cache_line, compare_pipelines, Summary};

fn main() {
    let (table, counters) = compare_pipelines(
        ["Standard", "New", "Briggs*"],
        1,
        |m| m.dynamic_copies as f64,
        |m| m.dynamic_copies.to_string(),
        |m| m.dynamic_copies as f64,
        Summary::Total,
    );

    println!("Table 4: dynamic copies executed (interpreter, standard inputs)\n");
    print!("{}", table.render());
    println!("\n{}", cache_line(&counters));
    println!(
        "paper: New executes ~1% fewer dynamic copies than the interference-graph coalescer \
         on average, with large per-kernel variance in both directions"
    );
}
