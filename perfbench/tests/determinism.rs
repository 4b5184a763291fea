//! Seeds and determinism: every count-type metric of a workload must be
//! a function of its seed alone, traced or not, and a forced failure
//! must be counted exactly once.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::PathBuf;

use fcc_perfbench::{run, Config, Kind, Report, Size, Workload};

fn config(workload: Workload, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        force_failure: false,
        scratch: PathBuf::from(format!(
            ".perfbench-tmp/test-{}-{tag}-{}",
            workload.name(),
            std::process::id()
        )),
    }
}

/// Peak-byte figures include `HashMap` capacities, which depend on the
/// per-process hash seed; they are compared within 1% (one capacity
/// step of one map is ~0.1% of the tiny kernel corpus).
fn is_peak_bytes(name: &str) -> bool {
    name.contains("peak_bytes")
}

fn counts(r: &Report) -> Vec<(&'static str, f64)> {
    r.metrics
        .iter()
        .filter(|m| m.kind == Kind::Count && !is_peak_bytes(m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

fn assert_peak_bytes_close(a: &Report, b: &Report, w: Workload) {
    for (x, y) in a.metrics.iter().zip(&b.metrics) {
        if is_peak_bytes(x.name) {
            let tolerance = 1e-2 * x.value.max(y.value);
            assert!(
                (x.value - y.value).abs() <= tolerance,
                "{}: {} {} vs {}",
                w.name(),
                x.name,
                x.value,
                y.value
            );
        }
    }
}

fn twice(trace: bool) {
    for w in Workload::ALL {
        let a = run(&config(w, trace, "a")).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let b = run(&config(w, trace, "b")).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(a.correct, "{}: {:?}", w.name(), a.failures);
        assert!(a.attempted > 0, "{}", w.name());
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{}",
            w.name()
        );
        assert_eq!(counts(&a), counts(&b), "{}", w.name());
        assert_peak_bytes_close(&a, &b, w);
    }
}

#[test]
fn untraced_counts_repeat_for_every_workload() {
    twice(false);
}

#[test]
fn traced_counts_repeat_for_every_workload() {
    twice(true);
}

#[test]
fn every_metric_is_reported_and_none_is_zero() {
    // Full size: the tiny kernel set can leave New without copies.
    let mut cfg = config(Workload::Kernels, false, "names");
    cfg.size = Size::Full;
    let r = run(&cfg).unwrap();
    let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = fcc_perfbench::END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    for m in &r.metrics {
        assert!(m.value > 0.0, "{} is {}", m.name, m.value);
    }
}

#[test]
fn a_forced_failure_is_counted_exactly_once() {
    // fuel 1 under the degrade ladder: every rung fails, one attempt.
    let mut cfg = config(Workload::Kernels, false, "fail");
    cfg.force_failure = true;
    let r = run(&cfg).unwrap();
    assert_eq!(r.failed, 1, "{:?}", r.failures);
    assert!(!r.correct);
    let ok = r.metric("ok_ratio").unwrap();
    assert_eq!(ok, (r.attempted - 1) as f64 / r.attempted as f64);
}
