//! The serve load generator behind `fcc bench-serve`.
//!
//! Replays a seeded stream of compile requests against an in-process
//! [`Daemon`] — the exact `handle_line` byte path `fcc serve` runs, with
//! process spawn and pipe transport factored out so the numbers measure
//! the service, not the OS. The workload models an edit-compile loop:
//!
//! * a pool of mixed-size modules (1 to `max_fns` generated functions
//!   each, sizes drawn per module from the seeded RNG);
//! * each request either *resubmits* an already-seen module (probability
//!   `resubmit` — a cache-hit opportunity) or submits the next fresh one;
//!   once the pool is exhausted every request is a resubmission.
//!
//! Reported: functions/sec over the whole run, per-request wall-time
//! p50/p99, and the daemon's cache counters. [`BenchReport::to_json`]
//! renders the `BENCH_serve.json` document; the `requests`, `functions`,
//! and cache-counter fields are deterministic per (seed, config) — CI
//! re-runs the bench and requires them to match the committed file
//! exactly, while the timing fields only need to be positive.

use std::time::Instant;

use fcc_workloads::{generate, GenConfig, SplitMix64};

use crate::daemon::{Daemon, ServeOptions};
use crate::json::escape;

/// Shape of one load-generation run.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Distinct modules in the pool.
    pub modules: usize,
    /// Total compile requests replayed.
    pub requests: usize,
    /// Probability a request resubmits an already-seen module.
    pub resubmit: f64,
    /// Largest module size; sizes are drawn from `1..=max_fns`.
    pub max_fns: usize,
    /// RNG seed for the pool and the request sequence.
    pub seed: u64,
    /// Worker threads per compile (`0` = available parallelism).
    pub jobs: usize,
    /// Daemon cache byte budget.
    pub cache_budget: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            modules: 200,
            requests: 1000,
            resubmit: 0.75,
            max_fns: 12,
            seed: 42,
            jobs: 0,
            cache_budget: 256 << 20,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// The configuration that produced it.
    pub config: BenchConfig,
    /// Requests answered `ok` (deterministic per seed+config).
    pub ok_responses: usize,
    /// Functions submitted across all requests (deterministic).
    pub functions: usize,
    /// Functions answered from the cache (deterministic).
    pub cache_hits: u64,
    /// Functions actually compiled (deterministic).
    pub cache_misses: u64,
    /// Cache entries evicted (deterministic).
    pub cache_evictions: u64,
    /// End-of-run hit rate (deterministic).
    pub hit_rate: f64,
    /// Whole-run wall time in seconds.
    pub wall_s: f64,
    /// Functions submitted per second of wall time.
    pub fns_per_sec: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
}

/// Build the pool: `modules` MiniLang sources with seeded sizes and
/// shapes, paired with each module's function count.
fn build_pool(cfg: &BenchConfig, rng: &mut SplitMix64) -> Vec<(String, usize)> {
    let mut pool = Vec::with_capacity(cfg.modules);
    for m in 0..cfg.modules {
        let fns = rng.gen_range(1..=cfg.max_fns.max(1));
        let mut src = String::new();
        for i in 0..fns {
            let gen_cfg = GenConfig {
                stmts: rng.gen_range(4usize..=16),
                max_depth: 2,
                ..GenConfig::default()
            };
            let mut prog = generate(rng.next_u64(), &gen_cfg);
            prog.name = format!("m{m}_f{i}");
            src.push_str(&fcc_frontend::to_source(&prog));
            src.push('\n');
        }
        pool.push((src, fns));
    }
    pool
}

/// Run the load generator and collect the report.
pub fn run(cfg: &BenchConfig) -> BenchReport {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let pool = build_pool(cfg, &mut rng);

    let defaults = fcc_driver::CompileRequest::new().jobs(cfg.jobs);
    let daemon = Daemon::new(ServeOptions {
        defaults,
        cache_budget: cfg.cache_budget,
        ..ServeOptions::default()
    })
    .expect("memory-only daemon cannot fail to open");

    let mut sent: Vec<usize> = Vec::new();
    let mut next_fresh = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(cfg.requests);
    let mut functions = 0usize;
    let mut ok_responses = 0usize;

    let start = Instant::now();
    for _ in 0..cfg.requests {
        let idx = if next_fresh < pool.len() && (sent.is_empty() || !rng.gen_bool(cfg.resubmit)) {
            let idx = next_fresh;
            next_fresh += 1;
            idx
        } else {
            sent[rng.gen_range(0..sent.len())]
        };
        sent.push(idx);
        let (source, fns) = &pool[idx];
        functions += fns;
        let line = format!(
            "{{\"v\":1,\"verb\":\"compile\",\"source\":\"{}\"}}",
            escape(source)
        );
        let t0 = Instant::now();
        let (resp, _) = daemon.handle_line(&line);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ok_responses += usize::from(resp.contains("\"ok\":true"));
    }
    let wall_s = start.elapsed().as_secs_f64();

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let stats = daemon.cache_stats();
    BenchReport {
        config: cfg.clone(),
        ok_responses,
        functions,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        hit_rate: stats.hit_rate(),
        wall_s,
        fns_per_sec: functions as f64 / wall_s.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl BenchReport {
    /// Render the `BENCH_serve.json` document. Deterministic fields
    /// first, timing last; member order is fixed so diffs stay readable.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"serve\",\n",
                "  \"config\": {{\"modules\": {}, \"requests\": {}, \"resubmit\": {}, ",
                "\"max_fns\": {}, \"seed\": {}, \"jobs\": {}, \"cache_budget\": {}}},\n",
                "  \"requests_ok\": {},\n",
                "  \"functions\": {},\n",
                "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n",
                "  \"timing\": {{\"wall_s\": {:.3}, \"fns_per_sec\": {:.1}, ",
                "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}\n",
                "}}\n"
            ),
            c.modules,
            c.requests,
            c.resubmit,
            c.max_fns,
            c.seed,
            c.jobs,
            c.cache_budget,
            self.ok_responses,
            self.functions,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.hit_rate,
            self.wall_s,
            self.fns_per_sec,
            self.p50_ms,
            self.p99_ms
        )
    }

    /// One-line human summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} requests ({} ok), {} functions in {:.2}s — {:.0} fns/s, p50 {:.2}ms, p99 {:.2}ms, hit rate {:.1}%",
            self.config.requests,
            self.ok_responses,
            self.functions,
            self.wall_s,
            self.fns_per_sec,
            self.p50_ms,
            self.p99_ms,
            self.hit_rate * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BenchConfig {
        BenchConfig {
            modules: 6,
            requests: 30,
            resubmit: 0.7,
            max_fns: 3,
            seed: 7,
            jobs: 1,
            cache_budget: 64 << 20,
        }
    }

    #[test]
    fn the_deterministic_fields_are_deterministic() {
        let (a, b) = (run(&small()), run(&small()));
        assert_eq!(a.ok_responses, b.ok_responses);
        assert_eq!(a.functions, b.functions);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.cache_evictions, b.cache_evictions);
    }

    #[test]
    fn resubmission_produces_cache_hits() {
        let report = run(&small());
        assert_eq!(report.ok_responses, 30, "every generated module compiles");
        assert!(report.cache_hits > 0, "resubmitted modules hit the cache");
        assert!(report.hit_rate > 0.3, "hit_rate={}", report.hit_rate);
        assert!(report.fns_per_sec > 0.0 && report.p99_ms >= report.p50_ms);
    }

    #[test]
    fn the_report_renders_as_one_json_document() {
        let doc = crate::json::parse(&run(&small()).to_json()).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("serve"));
        assert!(doc.get("cache").unwrap().get("hit_rate").is_some());
        assert_eq!(
            doc.get("config").unwrap().get("requests").unwrap().as_u64(),
            Some(30)
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
