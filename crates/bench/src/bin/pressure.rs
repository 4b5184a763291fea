//! Pressure table — MaxLive, chordality certificates, and spill costs.
//!
//! For every kernel of the suite, this prints the per-function register
//! pressure measured on optimised pruned SSA: MaxLive (the maximum number
//! of values live at any program point), the certified clique number ω of
//! the SSA interference graph (which equals the chromatic number χ — the
//! graph is chordal), and the loop-depth-weighted spill-cost total. On
//! every kernel the certifier must accept and ω must equal MaxLive; the
//! binary exits non-zero otherwise.
//!
//! Run: `cargo run --release -p fcc-bench --bin pressure`

use fcc_analysis::AnalysisManager;
use fcc_driver::report::Table;
use fcc_driver::{ssa_stage, CompileRequest};
use fcc_ssa::verify_ssa;

fn main() {
    let mut table = Table::new(&[
        "kernel",
        "maxlive",
        "omega",
        "chi",
        "points",
        "edges",
        "spill cost",
    ]);
    let mut failures = 0usize;
    let (mut max_maxlive, mut max_name) = (0u32, "");

    let req = CompileRequest::new().opt(true);
    for k in fcc_workloads::kernels() {
        let mut func = fcc_workloads::compile_kernel(k);
        let mut am = AnalysisManager::new();
        ssa_stage(&mut func, &req, &mut am, &mut Vec::new())
            .expect("unverified stages cannot fail");
        verify_ssa(&func).expect("optimised kernel must stay valid SSA");

        match fcc_pressure::summarize(&func, &mut am) {
            Ok(s) => {
                if s.omega != s.maxlive || s.colors != s.maxlive {
                    eprintln!(
                        "{}: certificate disagrees with pressure (maxlive {}, omega {}, chi {})",
                        k.name, s.maxlive, s.omega, s.colors
                    );
                    failures += 1;
                }
                if s.maxlive > max_maxlive {
                    max_maxlive = s.maxlive;
                    max_name = k.name;
                }
                table.row(vec![
                    k.name.to_string(),
                    s.maxlive.to_string(),
                    s.omega.to_string(),
                    s.colors.to_string(),
                    s.points.to_string(),
                    s.edges.to_string(),
                    format!("{:.0}", s.spill_total),
                ]);
            }
            Err(e) => {
                eprintln!("{}: chordality certification failed: {e}", k.name);
                failures += 1;
            }
        }
    }

    println!("Pressure: MaxLive and chordality certificates (optimised SSA)\n");
    print!("{}", table.render());
    println!("\nsuite max: MaxLive {max_maxlive} ({max_name})");
    println!(
        "every SSA interference graph is chordal, so MaxLive = omega = chi: \
         the greedy colouring along the dominance-derived elimination order is optimal"
    );
    if failures > 0 {
        eprintln!("{failures} kernel(s) failed certification");
        std::process::exit(1);
    }
}
