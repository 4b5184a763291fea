//! The serve path: request lines through `fcc serve --socket`.
//!
//! Each round copies the primed cache directory, starts the socket
//! daemon on it (the time until it answers a `ping` is one set-up
//! sample), and lets two closed-loop client connections send their
//! request streams, each round in another order. Every response must
//! match, byte for byte, an in-process `Daemon::handle_line` replay of
//! the same lines. The traced run also replays each request layer by
//! layer through the serve crate's public entry points.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use fcc_driver::{compile_function_report, FnStatus, FunctionReport};
use fcc_ir::Module;
use fcc_serve::cache::fnv64;
use fcc_serve::json::{self, Json};
use fcc_serve::protocol::ResponseBuilder;
use fcc_serve::{
    cache_key, encode_report, parse_request, serve_socket, Daemon, FnCache, ServeOptions,
};
use fcc_workloads::SplitMix64;

use crate::compile::request;
use crate::corpus::{shuffle, Corpus};
use crate::trace::Tracer;
use crate::{copy_dir, median, percentile, Tally};

/// Cache byte budget: far above any workload, so nothing is evicted
/// and hit counts do not depend on how the two connections interleave.
const CACHE_BUDGET: usize = 1 << 30;

/// How long a round may wait for the daemon to come up.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything the serve path measured.
#[derive(Default)]
pub struct ServeRun {
    /// Per round: seconds from starting the daemon to its first answer.
    pub setup_s: Vec<f64>,
    /// Per round: median request latency (both connections), ms.
    pub p50_ms: Vec<f64>,
    /// Per round: 90th-percentile request latency, ms (the highest
    /// percentile with at least ten of a round's requests beyond it).
    /// Every round sends the same lines, each in another order.
    pub p90_ms: Vec<f64>,
    /// Per round: functions submitted per second the clients were busy.
    pub fns_per_s: Vec<f64>,
    /// Function-cache hit rate of one round (every round is the same).
    pub hit_rate: f64,
    /// Per-layer values of the traced run (empty when untraced).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Write `entries` into a fresh cache directory at `dir`.
///
/// # Errors
/// The directory cannot be created.
pub fn prime(dir: &Path, entries: &[(String, FunctionReport)]) -> Result<(), String> {
    let mut cache = FnCache::with_budget(CACHE_BUDGET);
    cache
        .attach_disk(dir)
        .map_err(|e| format!("priming {}: {e}", dir.display()))?;
    for (key, report) in entries {
        cache.insert(key, report);
    }
    cache.flush_disk_index();
    Ok(())
}

fn options(corpus: &Corpus, dir: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        defaults: request(corpus, fcc_driver::PipelineSpec::New),
        cache_budget: CACHE_BUDGET,
        cache_dir: dir,
        ..ServeOptions::default()
    }
}

/// One connection's answers.
#[derive(Default)]
struct Answers {
    latencies_ms: Vec<f64>,
    hashes: Vec<u64>,
    ok: Vec<bool>,
}

/// Send every line, one at a time, waiting for each answer.
fn client(stream: &UnixStream, lines: &[&String]) -> std::io::Result<Answers> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out = Answers::default();
    let mut resp = String::new();
    for line in lines {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let t0 = Instant::now();
        writer.write_all(&buf)?;
        writer.flush()?;
        resp.clear();
        reader.read_line(&mut resp)?;
        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let body = resp.trim_end_matches('\n');
        out.hashes.push(fnv64(body.as_bytes()));
        out.ok.push(body.contains("\"ok\":true"));
    }
    Ok(out)
}

fn ask_body(stream: &UnixStream, line: &str) -> std::io::Result<String> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writer.write_all(format!("{line}\n").as_bytes())?;
    writer.flush()?;
    let mut resp = String::new();
    reader.read_line(&mut resp)?;
    Ok(resp.trim_end().to_string())
}

fn connect(path: &Path, deadline: Instant) -> Result<UnixStream, String> {
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("daemon at {} never came up: {e}", path.display()))
            }
            Err(_) => thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// The in-process `handle_line` replay every socket response must match.
struct Replay {
    hashes: [Vec<u64>; 2],
    service_ms: [Vec<f64>; 2],
    warm_ms: f64,
}

fn replay(corpus: &Corpus, primed: &Path, scratch: &Path) -> Result<Replay, String> {
    let dir = scratch.join("replay");
    copy_dir(primed, &dir).map_err(|e| format!("copying the primed cache: {e}"))?;
    let t = Instant::now();
    let mut daemon = Daemon::new(options(corpus, Some(dir.clone()))).map_err(|e| e.to_string())?;
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut out = Replay {
        hashes: Default::default(),
        service_ms: Default::default(),
        warm_ms,
    };
    for conn in 0..2 {
        for line in &corpus.serve.streams[conn] {
            let t = Instant::now();
            let (resp, _) = daemon.handle_line(line);
            out.service_ms[conn].push(t.elapsed().as_secs_f64() * 1e3);
            out.hashes[conn].push(fnv64(resp.as_bytes()));
        }
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// One round's measurements.
struct Round {
    ready_s: f64,
    busy_s: f64,
    answers: [Answers; 2],
    hits: u64,
    misses: u64,
}

fn round(
    corpus: &Corpus,
    lines: &[Vec<&String>; 2],
    primed: &Path,
    scratch: &Path,
    n: usize,
) -> Result<Round, String> {
    let dir = scratch.join(format!("round{n}"));
    copy_dir(primed, &dir).map_err(|e| format!("copying the primed cache: {e}"))?;
    let sock = scratch.join(format!("r{n}.sock"));
    let opts = options(corpus, Some(dir.clone()));
    let result = thread::scope(|s| {
        let t0 = Instant::now();
        let server = s.spawn(|| serve_socket(&sock, opts));
        let drive = || -> Result<Round, String> {
            let deadline = t0 + READY_TIMEOUT;
            let c0 = connect(&sock, deadline)?;
            let pong = ask_body(&c0, r#"{"v":1,"verb":"ping"}"#).map_err(|e| e.to_string())?;
            let ready_s = t0.elapsed().as_secs_f64();
            if !pong.contains("\"ok\":true") {
                return Err("the daemon did not answer its ping".into());
            }
            let c1 = connect(&sock, deadline)?;
            let t = Instant::now();
            let (a0, a1) = thread::scope(|cs| {
                let h0 = cs.spawn(|| client(&c0, &lines[0]));
                let h1 = cs.spawn(|| client(&c1, &lines[1]));
                (h0.join(), h1.join())
            });
            let busy_s = t.elapsed().as_secs_f64();
            let a0 = a0
                .map_err(|_| "client thread panicked")?
                .map_err(|e| e.to_string())?;
            let a1 = a1
                .map_err(|_| "client thread panicked")?
                .map_err(|e| e.to_string())?;
            let stats = ask_body(&c0, r#"{"v":1,"verb":"stats"}"#).map_err(|e| e.to_string())?;
            let doc = json::parse(&stats).map_err(|e| format!("stats: {e}"))?;
            let cache = doc.get("cache").ok_or("stats without cache counters")?;
            let count = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
            Ok(Round {
                ready_s,
                busy_s,
                answers: [a0, a1],
                hits: count("hits"),
                misses: count("misses"),
            })
        };
        let result = drive();
        // Always stop the daemon, whatever happened above, so the scope
        // can join it.
        if let Ok(c) = connect(&sock, Instant::now() + READY_TIMEOUT) {
            let _ = ask_body(&c, r#"{"v":1,"verb":"shutdown"}"#);
        }
        match server.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("serve_socket: {e}")),
            Err(_) => Err("the daemon thread panicked".into()),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The serve path, one round at a time.
pub struct ServeBench<'a> {
    corpus: &'a Corpus,
    primed: &'a Path,
    scratch: &'a Path,
    expected: Replay,
    out: ServeRun,
    first_latencies: Option<[Vec<f64>; 2]>,
    rounds: usize,
}

impl<'a> ServeBench<'a> {
    /// Replay the streams in process (the reference every socket
    /// response must match); no round has run yet.
    ///
    /// # Errors
    /// The primed directory cannot be copied or opened.
    pub fn new(corpus: &'a Corpus, primed: &'a Path, scratch: &'a Path) -> Result<Self, String> {
        Ok(ServeBench {
            corpus,
            primed,
            scratch,
            expected: replay(corpus, primed, scratch)?,
            out: ServeRun::default(),
            first_latencies: None,
            rounds: 0,
        })
    }

    /// One round: start the daemon, send both streams (the first round
    /// in stream order, later ones in an order drawn from the round
    /// number), check every response.
    ///
    /// # Errors
    /// The daemon could not be started or reached.
    pub fn round(&mut self, tally: &mut Tally) -> Result<(), String> {
        let streams = &self.corpus.serve.streams;
        let mut rng = SplitMix64::seed_from_u64(self.rounds as u64);
        let order: [Vec<usize>; 2] = std::array::from_fn(|conn| {
            let mut o: Vec<usize> = (0..streams[conn].len()).collect();
            if self.rounds > 0 {
                shuffle(&mut o, &mut rng);
            }
            o
        });
        let lines: [Vec<&String>; 2] = std::array::from_fn(|conn| {
            order[conn].iter().map(|&i| &streams[conn][i]).collect()
        });
        let r = round(self.corpus, &lines, self.primed, self.scratch, self.rounds)?;
        let out = &mut self.out;
        let mut latencies = Vec::new();
        let mut fns = 0usize;
        for conn in 0..2 {
            let a = &r.answers[conn];
            for ((&h, &ok), &i) in a.hashes.iter().zip(&a.ok).zip(&order[conn]) {
                let verdict = if !ok {
                    Err(format!("c{conn}-{i}: non-ok response"))
                } else if self.expected.hashes[conn].get(i) != Some(&h) {
                    Err(format!(
                        "c{conn}-{i}: response differs from the in-process replay"
                    ))
                } else {
                    Ok(())
                };
                tally.record(verdict);
            }
            latencies.extend_from_slice(&a.latencies_ms);
            fns += self.corpus.serve.fns_per_line[conn].iter().sum::<usize>();
        }
        out.setup_s.push(r.ready_s);
        out.p50_ms.push(median(&latencies));
        out.p90_ms.push(percentile(&latencies, 90.0));
        out.fns_per_s.push(fns as f64 / r.busy_s.max(1e-9));
        if self.rounds == 0 {
            out.hit_rate = r.hits as f64 / (r.hits + r.misses).max(1) as f64;
            out.layers.insert("serve.hits", r.hits as f64);
            out.layers.insert("serve.misses", r.misses as f64);
            let [a0, a1] = r.answers;
            self.first_latencies = Some([a0.latencies_ms, a1.latencies_ms]);
        }
        self.rounds += 1;
        Ok(())
    }

    /// The measurements so far; with `traced`, also replay the streams
    /// layer by layer.
    ///
    /// # Errors
    /// The traced replay rendered a response that differs from the
    /// daemon's.
    pub fn finish(mut self, traced: bool) -> Result<ServeRun, String> {
        if traced {
            let latencies = self.first_latencies.as_ref().ok_or("no serve round ran")?;
            let layers = traced_replay(
                self.corpus,
                self.primed,
                self.scratch,
                &self.expected,
                latencies,
            )?;
            self.out.layers.extend(layers);
        }
        Ok(self.out)
    }
}

/// `Daemon::handle_compile`'s response, rebuilt from the reports.
fn render(id: &Json, reports: &[FunctionReport]) -> String {
    let (mut ok, mut recovered, mut failed) = (0, 0, 0);
    let mut functions = String::from("[");
    for (i, f) in reports.iter().enumerate() {
        match f.status {
            FnStatus::Ok => ok += 1,
            FnStatus::Recovered { .. } => recovered += 1,
            FnStatus::Failed => failed += 1,
        }
        if i > 0 {
            functions.push(',');
        }
        let tried = f.attempts.len() + usize::from(f.outcome.is_some());
        functions.push_str(&format!(
            "{{\"name\":\"{}\",\"status\":\"{}\",\"attempts\":{tried}}}",
            json::escape(&f.name),
            f.status.label()
        ));
    }
    functions.push(']');
    let counts = format!("{{\"ok\":{ok},\"recovered\":{recovered},\"failed\":{failed}}}");
    let output = Module::from_functions(
        reports
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(|o| o.func.clone())
            .collect(),
    )
    .map(|m| m.to_string())
    .unwrap_or_default();
    ResponseBuilder::new(id, true)
        .str("verb", "compile")
        .raw("functions", &functions)
        .raw("counts", &counts)
        .str("output", &output)
        .finish()
}

/// Replay every request through the serve layers' public entry points
/// with a span around each call; per-layer values are self-time ms per
/// request. Each request also goes through `Daemon::handle_line` on its
/// own copy of the primed cache just before, so the layers' coverage is
/// taken against service time measured under the same disk load.
fn traced_replay(
    corpus: &Corpus,
    primed: &Path,
    scratch: &Path,
    expected: &Replay,
    socket_ms: &[Vec<f64>; 2],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let dir = scratch.join("traced");
    copy_dir(primed, &dir).map_err(|e| format!("copying the primed cache: {e}"))?;
    let mut cache = FnCache::with_budget(CACHE_BUDGET);
    cache.attach_disk(&dir).map_err(|e| e.to_string())?;
    let twin = scratch.join("twin");
    copy_dir(primed, &twin).map_err(|e| format!("copying the primed cache: {e}"))?;
    let mut daemon = Daemon::new(options(corpus, Some(twin.clone()))).map_err(|e| e.to_string())?;
    let defaults = request(corpus, fcc_driver::PipelineSpec::New);
    let tr = Tracer::default();
    let mut requests = 0usize;
    let mut service_ns = 0u128;
    for conn in 0..2 {
        for (i, line) in corpus.serve.streams[conn].iter().enumerate() {
            let t = Instant::now();
            daemon.handle_line(line);
            service_ns += t.elapsed().as_nanos();
            tr.set_group(requests as u64);
            requests += 1;
            let req = tr
                .span("serve.parse_ms", || parse_request(line, &defaults))
                .map_err(|e| format!("c{conn}-{i}: {e}"))?;
            let body = req
                .compile
                .as_ref()
                .ok_or("a non-compile request in the stream")?;
            let module = tr
                .span("frontend.ms", || fcc_frontend::compile_module(&body.source))
                .map_err(|e| format!("c{conn}-{i}: {e}"))?;
            let funcs = module.into_functions();
            let keys: Vec<String> = tr.span("serve.key_ms", || {
                funcs
                    .iter()
                    .map(|f| cache_key(&f.to_string(), &body.req))
                    .collect()
            });
            let mut slots: Vec<Option<FunctionReport>> = tr.span("serve.lookup_ms", || {
                keys.iter().map(|k| cache.get(k)).collect()
            });
            for (j, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() {
                    let report = tr.span("serve.compile_ms", || {
                        compile_function_report(&funcs[j], &body.req)
                    });
                    tr.span("serve.encode_ms", || encode_report(&report));
                    tr.span("serve.insert_ms", || cache.insert(&keys[j], &report));
                    *slot = Some(report);
                }
            }
            let reports: Vec<FunctionReport> = slots.into_iter().flatten().collect();
            let resp = tr.span("serve.render_ms", || render(&req.id, &reports));
            if expected.hashes[conn].get(i) != Some(&fnv64(resp.as_bytes())) {
                return Err(format!(
                    "fidelity: c{conn}-{i}: the traced serve replay rendered a different response"
                ));
            }
        }
    }
    drop(cache);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin);

    let n = requests.max(1) as f64;
    let mut layers: BTreeMap<&'static str, f64> = tr
        .self_times()
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / 1e6 / n))
        .collect();
    // FnCache::insert encodes the report itself (disk write-through);
    // the separate encode_report call measured that share, so the
    // insert layer keeps only the rest.
    let encode = layers.get("serve.encode_ms").copied().unwrap_or(0.0);
    if let Some(insert) = layers.get_mut("serve.insert_ms") {
        *insert = (*insert - encode).max(0.0);
    }
    let in_process: f64 = expected.service_ms.iter().flatten().sum();
    let socket: f64 = socket_ms.iter().flatten().sum();
    layers.insert("serve.queue_ms", (socket - in_process) / n);
    layers.insert(
        "serve.warm_ms",
        median(&warm_samples(corpus, primed, scratch, expected.warm_ms)?),
    );
    // Per-request layer self times, as a share of handle_line's own
    // per-request service time.
    let layer_ms: f64 = layers
        .iter()
        .filter(|(k, _)| k.ends_with("ms") && **k != "serve.queue_ms" && **k != "serve.warm_ms")
        .map(|(_, v)| v)
        .sum();
    layers.insert(
        "serve.trace_coverage_ratio",
        layer_ms * n / (service_ns as f64 / 1e6).max(1e-9),
    );
    Ok(layers)
}

/// Three timed `Daemon::new` warm starts over copies of the primed
/// directory (the replay's own start is the first).
fn warm_samples(
    corpus: &Corpus,
    primed: &Path,
    scratch: &Path,
    first_ms: f64,
) -> Result<Vec<f64>, String> {
    let mut samples = vec![first_ms];
    for n in 0..2 {
        let dir = scratch.join(format!("warm{n}"));
        copy_dir(primed, &dir).map_err(|e| format!("copying the primed cache: {e}"))?;
        let t = Instant::now();
        let daemon = Daemon::new(options(corpus, Some(dir.clone()))).map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(samples)
}
