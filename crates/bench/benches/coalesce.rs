//! Micro-benchmark: the SSA-destruction pipelines on representative
//! kernels, backing Tables 2–3. Plain best-of-N timing loops — no
//! external harness, so the workspace builds with no registry access.
//!
//! Run: `cargo bench -p fcc-bench --bench coalesce`

use fcc_bench::{measure, us, PipelineSpec};
use fcc_workloads::kernel;

fn main() {
    const REPEATS: usize = 20;
    println!("{:<12} {:<10} {:>12}", "pipeline", "kernel", "best");
    for name in ["saxpy", "tomcatv", "twldrv", "parmvrx", "fpppp"] {
        let k = kernel(name).expect("kernel exists");
        for p in [
            PipelineSpec::Standard,
            PipelineSpec::New,
            PipelineSpec::BriggsStar,
        ] {
            let best = measure(p, k, REPEATS).time;
            println!("{:<12} {:<10} {:>12}", p.label(), name, us(best));
        }
    }
}
