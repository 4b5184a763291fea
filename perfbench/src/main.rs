//! `fcc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). Exits 1
//! when any output was wrong, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use fcc_perfbench::{run, Config, Size, Workload};

/// Where runs keep their cache directories and sockets, relative to the
/// working directory (socket paths must stay short).
const SCRATCH_ROOT: &str = ".perfbench-tmp";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: fcc-perfbench --workload <kernels|spill-k8> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not {value:?}")),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        force_failure: false,
        scratch: PathBuf::from(SCRATCH_ROOT).join(std::process::id().to_string()),
    };
    let result = run(&cfg);
    // Leave no empty scratch root behind (another run may still use it).
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fcc-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    if trace {
        for m in &report.metrics {
            eprintln!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
