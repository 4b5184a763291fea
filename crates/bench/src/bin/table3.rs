//! Table 3 — comparison of compiler memory usage.
//!
//! Peak bytes of each pipeline's data structures (liveness sets,
//! union-find, dominator tree, forests / interference graph) plus the
//! rewritten function. The paper reports New using ~40% more memory than
//! Standard and ~21% more than Briggs\* on average — memory is where
//! Briggs\* already closed most of the old gap, while the *time* gap
//! (Table 2) remains.
//!
//! Run: `cargo run --release -p fcc-bench --bin table3`

use fcc_bench::{cache_line, compare_pipelines, Summary};

fn main() {
    let repeats = 3;
    let (table, counters) = compare_pipelines(
        ["Standard(B)", "New(B)", "Briggs*(B)"],
        repeats,
        |m| m.peak_bytes as f64,
        |m| m.peak_bytes.to_string(),
        |m| m.peak_bytes as f64,
        Summary::Geomean,
    );

    println!("Table 3: peak data-structure memory (bytes)\n");
    print!("{}", table.render());
    println!("\n{}", cache_line(&counters));
    println!(
        "paper: New uses ~1.4x Standard's memory and ~1.21x Briggs*'s; memory alone does not \
         determine total running time (cf. Table 2)"
    );
}
