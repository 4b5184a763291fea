//! The long-running compile service behind `fcc serve`.
//!
//! [`Daemon`] owns the state a service accumulates across requests: the
//! daemon-default [`CompileRequest`] (what `fcc serve --opt --jobs 8`
//! sets; per-request `request` objects override field-by-field), the
//! content-addressed [`FnCache`] — optionally mirrored to a crash-safe
//! on-disk store (`--cache-dir`) and shared between concurrent requests
//! as a [`SharedCache`] — and the admission gate that admits compile
//! requests and accumulates the service counters. One request
//! line maps to one response line and never panics the process:
//! per-function faults are contained by the driver's ladder, wall-clock
//! overruns surface as typed 504s, a full admission queue sheds with a
//! typed 503, and every protocol-level failure renders as an error
//! response.
//!
//! [`serve_loop`] is the stdio transport: any `BufRead`/`Write` pair,
//! which is stdin/stdout under `fcc serve` and an in-memory buffer in
//! the tests and the load generator — the protocol tests exercise the
//! *exact* production byte path without spawning a process. Lines are
//! read through a byte-capped reader (`read_capped_line`): a line
//! that exceeds the cap is answered with `400 line-too-long` and
//! discarded without ever being buffered whole, so a hostile or broken
//! client cannot balloon the daemon's memory. The socket transport
//! ([`crate::socket`]) runs the same line loop from one thread per
//! connection over one shared `&Daemon`, which is what makes socket and
//! stdio responses byte-identical. Its requests are served in parallel:
//! the only lock is the function cache's, held to probe, insert and
//! count, never to parse, key, compile or render.

use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use fcc_driver::{BatchOutcome, CompileRequest, FailMode};
use fcc_ir::Module;

use crate::cache::{compile_module_cached, FnCache, SharedCache};
use crate::json::Json;
use crate::protocol::{
    error_response, parse_request, CompileBody, Lang, Request, ResponseBuilder, ServeError, Verb,
};

/// How a daemon starts: the default request, the cache budget, and the
/// transport limits.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Defaults applied to every compile (overridable per request).
    pub defaults: CompileRequest,
    /// Function-cache byte budget (bounds disk occupancy too).
    pub cache_budget: usize,
    /// Directory for the persistent cache; `None` keeps it memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Compile requests admitted concurrently (each compiling or waiting
    /// on another's compile) before shedding with 503. `0` sheds every
    /// compile (useful for drain/tests); stdio's sequential loop never
    /// queues, so any value ≥ 1 never sheds there.
    pub max_queue: usize,
    /// Request-line byte cap; longer lines answer `400 line-too-long`.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            defaults: CompileRequest::new(),
            cache_budget: 256 << 20,
            cache_dir: None,
            max_queue: 64,
            max_line_bytes: 16 << 20,
        }
    }
}

/// Admission control and service counters: atomics, so connection
/// threads shed load and count without taking any lock.
struct Gate {
    capacity: usize,
    started: Instant,
    in_service: AtomicUsize,
    shed: AtomicU64,
    compiles: AtomicU64,
    errors: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Gate {
    fn new(capacity: usize) -> Gate {
        Gate {
            capacity,
            started: Instant::now(),
            in_service: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        }
    }

    /// Try to admit one compile request. `Err` is the shed path: the
    /// queue is at capacity, and the value is the `retry_after_ms` hint
    /// (proportional to the queue depth, so a fixed request sequence
    /// produces a fixed hint). `Ok` is a ticket whose drop releases the
    /// slot.
    fn try_admit(&self) -> Result<Ticket<'_>, u64> {
        loop {
            let cur = self.in_service.load(Ordering::SeqCst);
            if cur >= self.capacity {
                self.shed.fetch_add(1, Ordering::SeqCst);
                return Err(100 * (cur as u64 + 1));
            }
            if self
                .in_service
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(Ticket(self));
            }
        }
    }

    /// Compile requests admitted and answered (including failures).
    fn count_compile(&self) {
        self.compiles.fetch_add(1, Ordering::SeqCst);
    }

    /// Error responses sent (400/422/500/504 — shed 503s count in
    /// `shed`, not here).
    fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::SeqCst);
    }

    fn count_deadline(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
    }

    /// Admitted compile requests not yet answered.
    fn in_service(&self) -> usize {
        self.in_service.load(Ordering::SeqCst)
    }
}

/// An admission slot; dropping it releases the slot.
struct Ticket<'a>(&'a Gate);

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.0.in_service.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The compile service's state machine: one instance per process. The
/// stdio transport drives it one request at a time; the socket
/// transport shares it between connection threads, which serve their
/// requests concurrently. Either way each response is a pure function
/// of its request line: a compile is a pure function of its cache key,
/// and [`compile_module_cached`] compiles each key once however many
/// requests need it at the same moment.
pub struct Daemon {
    defaults: CompileRequest,
    /// The function cache and its single-flight table, behind one lock.
    cache: SharedCache,
    gate: Gate,
    max_line_bytes: usize,
}

impl Daemon {
    /// A fresh daemon. With `opts.cache_dir` set this opens the
    /// persistent store and warms the cache from it (quarantining any
    /// corrupt entries); the only error path is failing to create the
    /// store's directories.
    pub fn new(opts: ServeOptions) -> io::Result<Self> {
        let mut cache = FnCache::with_budget(opts.cache_budget);
        if let Some(dir) = &opts.cache_dir {
            cache.attach_disk(dir)?;
        }
        Ok(Daemon {
            defaults: opts.defaults,
            cache: SharedCache::new(cache),
            gate: Gate::new(opts.max_queue),
            max_line_bytes: opts.max_line_bytes,
        })
    }

    /// Graceful-exit hook: flush the advisory LRU index so the next
    /// start warms in recency order. Skipped by a crash — by design the
    /// store needs nothing from this to stay correct.
    pub fn finish(&self) {
        self.cache.with(FnCache::flush_disk_index);
    }

    /// Answer one request line with one response line; the flag asks the
    /// caller to stop reading (a `shutdown` verb was acknowledged).
    /// A compile is admitted here, before anything else of it runs.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let request = match parse_request(line, &self.defaults) {
            Ok(r) => r,
            Err(e) => {
                self.gate.count_error();
                // A malformed line has no trustworthy id to echo.
                let id = json_id_of(line).unwrap_or(Json::Null);
                return (error_response(&id, &e), false);
            }
        };
        if request.verb == Verb::Compile {
            return match self.gate.try_admit() {
                Ok(_ticket) => self.handle_request(request),
                Err(retry_after_ms) => (
                    error_response(&request.id, &ServeError::overloaded(retry_after_ms)),
                    false,
                ),
            };
        }
        self.handle_request(request)
    }

    /// Answer lines from `reader` on `writer`, one response line per
    /// request line, until EOF, `stop()` or a `shutdown` verb; true for
    /// the last. Both transports serve through this, so they answer
    /// byte-identically.
    pub(crate) fn serve_lines(
        &self,
        mut reader: impl BufRead,
        mut writer: impl Write,
        stop: impl Fn() -> bool,
    ) -> io::Result<bool> {
        let cap = self.max_line_bytes;
        while !stop() {
            let (response, shutdown) = match read_capped_line(&mut reader, cap)? {
                ReadLine::Eof => break,
                ReadLine::TooLong => {
                    self.gate.count_error();
                    let e = ServeError::line_too_long(cap);
                    (error_response(&Json::Null, &e), false)
                }
                ReadLine::Line(line) if line.trim().is_empty() => continue,
                ReadLine::Line(line) => self.handle_line(&line),
            };
            writeln!(writer, "{response}")?;
            writer.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Dispatch an already-parsed (and, for compiles, already-admitted)
    /// request.
    pub fn handle_request(&self, request: Request) -> (String, bool) {
        let Request { id, verb, compile } = request;
        match verb {
            Verb::Ping => (
                ResponseBuilder::new(&id, true).str("verb", "ping").finish(),
                false,
            ),
            Verb::Shutdown => (
                ResponseBuilder::new(&id, true)
                    .str("verb", "shutdown")
                    .finish(),
                true,
            ),
            Verb::Stats => (self.stats_response(&id), false),
            Verb::Compile => {
                let body = compile.expect("parse_request pairs Compile with a body");
                match self.handle_compile(&id, &body) {
                    Ok(resp) => (resp, false),
                    Err(e) => {
                        self.gate.count_error();
                        (error_response(&id, &e), false)
                    }
                }
            }
        }
    }

    /// Parse, compile through the shared cache and render. Only the
    /// cache's own probe and insert steps take its lock; parsing,
    /// keying, compiling and rendering run alongside other requests.
    fn handle_compile(&self, id: &Json, body: &CompileBody) -> Result<String, ServeError> {
        let module = parse_source(&body.source, body.lang)?;
        self.gate.count_compile();
        let cached = compile_module_cached(module, &body.req, &self.cache);
        let (hits, misses) = (cached.hits, cached.misses);
        let batch = BatchOutcome {
            functions: cached.functions,
            timing: cached.timing,
        };

        // A blown wall-clock budget fails the whole request with a 504
        // — checked before fail-mode mapping so a deadline is never
        // misreported as a 500. The message renders the first affected
        // function (module order) and the *configured* budget, so the
        // response text is stable under replay.
        if let Some(f) = batch.functions.iter().find(|f| f.hit_deadline()) {
            self.gate.count_deadline();
            let e = f
                .attempts
                .iter()
                .find(|a| a.error.is_deadline())
                .expect("hit_deadline implies a deadline attempt");
            return Err(ServeError::deadline_exceeded(format!(
                "@{}: {}",
                f.name, e.error
            )));
        }

        if body.req.fail_mode == FailMode::Abort {
            if let Some((name, e)) = batch.first_error() {
                return Err(ServeError::compile_failed(format!("@{name}: {e}")));
            }
        }

        let (ok, recovered, failed) = batch.counts();
        let mut functions = String::from("[");
        for (i, f) in batch.functions.iter().enumerate() {
            if i > 0 {
                functions.push(',');
            }
            let tried = f.attempts.len() + usize::from(f.outcome.is_some());
            functions.push_str(&format!(
                "{{\"name\":\"{}\",\"status\":\"{}\",\"attempts\":{tried}}}",
                crate::json::escape(&f.name),
                f.status.label()
            ));
        }
        functions.push(']');
        let counts = format!("{{\"ok\":{ok},\"recovered\":{recovered},\"failed\":{failed}}}");

        // Everything appended up to here is replay-stable: statuses,
        // counts, and output depend only on the request sequence, never
        // on wall time or scheduling. The opt-in sections below are not.
        let mut resp = ResponseBuilder::new(id, true)
            .str("verb", "compile")
            .raw("functions", &functions)
            .raw("counts", &counts);

        let report = body.want_report.then(|| match body.req.format {
            fcc_driver::ReportFormat::Text => batch.outcome_table_text(),
            fcc_driver::ReportFormat::Json => batch.outcome_table_json(body.req.fail_mode),
        });
        let wall_ms = batch.timing.wall.as_secs_f64() * 1e3;
        let output = batch.into_surviving_module().to_string();
        resp = resp.str("output", &output);
        if let Some(report) = report {
            resp = resp.str("report", &report);
        }
        if body.want_cache {
            resp = resp.raw("cache", &format!("{{\"hits\":{hits},\"misses\":{misses}}}"));
        }
        if body.want_timing {
            resp = resp.raw("timing", &format!("{{\"wall_ms\":{wall_ms:.3}}}"));
        }
        Ok(resp.finish())
    }

    fn stats_response(&self, id: &Json) -> String {
        let (cache, d) = self.cache.with(|c| {
            let s = c.stats();
            let cache = format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"collisions\":{},\"insertions\":{},\"entries\":{},\"bytes\":{},\"budget\":{}}}",
                s.hits,
                s.misses,
                s.evictions,
                s.collisions,
                s.insertions,
                c.len(),
                c.held_bytes(),
                c.budget()
            );
            (cache, c.disk_stats())
        });
        let disk = format!(
            "{{\"warmed\":{},\"quarantined\":{},\"writes\":{},\"write_errors\":{},\"removals\":{}}}",
            d.warmed, d.quarantined, d.writes, d.write_errors, d.removals
        );
        let g = &self.gate;
        let in_flight = g.in_service();
        ResponseBuilder::new(id, true)
            .str("verb", "stats")
            .raw("cache", &cache)
            .raw("disk", &disk)
            .num("compiles", g.compiles.load(Ordering::SeqCst))
            .num("errors", g.errors.load(Ordering::SeqCst))
            .num("shed", g.shed.load(Ordering::SeqCst))
            .num(
                "deadline_exceeded",
                g.deadline_exceeded.load(Ordering::SeqCst),
            )
            .num("in_flight", in_flight as u64)
            .num("queued", self.cache.waiting() as u64)
            .num("uptime_ms", g.started.elapsed().as_millis() as u64)
            .finish()
    }
}

/// Parse the module text per its declared language.
fn parse_source(source: &str, lang: Lang) -> Result<Module, ServeError> {
    match lang {
        Lang::MiniLang => fcc_frontend::compile_module(source).map_err(ServeError::parse_error),
        Lang::Ir => {
            let module = fcc_ir::parse::parse_module(source)
                .map_err(|e| ServeError::parse_error(e.to_string()))?;
            module.functions().iter().try_for_each(check_ssa_input)?;
            Ok(module)
        }
    }
}

/// The shape SSA construction requires of textual IR, checked before
/// anything compiles: an entry block, no φ anywhere (the builder places
/// every φ itself), and no reachable block branching back to the entry
/// (renaming starts there). Unreachable blocks are dropped before
/// construction, so their edges do not count.
fn check_ssa_input(func: &fcc_ir::Function) -> Result<(), ServeError> {
    if func.blocks().next().is_none() {
        return Err(ServeError::invalid_ir(
            "ir-no-entry-block",
            format!("@{}: the function has no blocks", func.name),
        ));
    }
    if let Some((b, phi)) = func
        .blocks()
        .find_map(|b| func.block_phis(b).next().map(|phi| (b, phi)))
    {
        return Err(ServeError::invalid_ir(
            "ir-phi-in-input",
            format!(
                "@{}: {b} holds a phi ({}); IR input must be phi-free, the compiler builds SSA itself",
                func.name,
                func.display_inst(phi)
            ),
        ));
    }
    let cfg = fcc_ir::ControlFlowGraph::compute(func);
    if let Some(p) = cfg.preds(func.entry()).first() {
        return Err(ServeError::invalid_ir(
            "ir-entry-has-predecessor",
            format!(
                "@{}: {p} branches to the entry block {}; the entry must have no reachable predecessor",
                func.name,
                func.entry()
            ),
        ));
    }
    Ok(())
}

/// Best-effort id recovery from a line that failed request validation
/// (but did parse as a JSON object).
fn json_id_of(line: &str) -> Option<Json> {
    crate::json::parse(line).ok()?.get("id").cloned()
}

/// One read from the byte-capped line reader.
enum ReadLine {
    /// End of stream (no partial line pending).
    Eof,
    /// A complete line within the cap (lossily decoded; invalid UTF-8
    /// simply fails JSON parsing downstream).
    Line(String),
    /// The line exceeded the cap. Its bytes were discarded up to and
    /// including the newline (or EOF), so the next read starts clean.
    TooLong,
}

/// Read one newline-terminated line holding at most `cap` bytes in
/// memory. Unlike `BufRead::lines`, an oversized line is *streamed to
/// the bin* — the daemon answers `400 line-too-long` having buffered no
/// more than `cap` bytes of it.
fn read_capped_line(reader: &mut impl BufRead, cap: usize) -> io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let (used, result) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                let result = if overflow {
                    Some(ReadLine::TooLong)
                } else if buf.is_empty() {
                    Some(ReadLine::Eof)
                } else {
                    // A final unterminated line still gets an answer.
                    Some(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
                };
                (0, result)
            } else if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                let result = if overflow || buf.len() > cap {
                    Some(ReadLine::TooLong)
                } else {
                    Some(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
                };
                (pos + 1, result)
            } else {
                if !overflow {
                    buf.extend_from_slice(chunk);
                    if buf.len() > cap {
                        overflow = true;
                        buf = Vec::new(); // stop holding the flood
                    }
                }
                (chunk.len(), None)
            }
        };
        reader.consume(used);
        if let Some(r) = result {
            return Ok(r);
        }
    }
}

/// Run the daemon over a transport until EOF or a `shutdown` verb.
/// Blank lines are ignored; every other line gets exactly one response
/// line, flushed immediately (clients block on the reply). Both exits
/// are graceful: in-flight work finishes (the loop is sequential) and
/// the persistent cache's advisory index is flushed.
pub fn serve_loop(reader: impl BufRead, writer: impl Write, opts: ServeOptions) -> io::Result<()> {
    let daemon = Daemon::new(opts)?;
    daemon.serve_lines(reader, writer, || false)?;
    daemon.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn daemon() -> Daemon {
        Daemon::new(ServeOptions::default()).unwrap()
    }

    fn compile_line(source: &str) -> String {
        format!(
            "{{\"v\":1,\"id\":1,\"verb\":\"compile\",\"source\":\"{}\"}}",
            json::escape(source)
        )
    }

    #[test]
    fn compile_ping_stats_shutdown_round_trip() {
        let d = daemon();
        let (resp, stop) = d.handle_line(&compile_line("fn f(x) { return x + 1; }"));
        assert!(!stop);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let counts = doc.get("counts").unwrap();
        assert_eq!(counts.get("ok").unwrap().as_u64(), Some(1));
        assert!(doc
            .get("output")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("function @f"));
        assert!(doc.get("cache").is_none(), "cache counters are opt-in");
        assert!(doc.get("timing").is_none(), "timing is opt-in");

        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
        assert!(resp.contains("\"ok\":true"));

        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(1));

        let (resp, stop) = d.handle_line(r#"{"v":1,"id":"bye","verb":"shutdown"}"#);
        assert!(stop);
        assert!(resp.contains("\"id\":\"bye\""));
    }

    #[test]
    fn warm_responses_are_byte_identical_to_cold() {
        let d = daemon();
        let line = compile_line("fn f(x) { return x + 1; }\nfn g(y) { return y * 2; }");
        let (cold, _) = d.handle_line(&line);
        let (warm, _) = d.handle_line(&line);
        assert_eq!(cold, warm);
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let cache = json::parse(&resp).unwrap().get("cache").unwrap().clone();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(2));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn abort_mode_maps_failures_to_500() {
        let d = daemon();
        let line = format!(
            "{{\"v\":1,\"verb\":\"compile\",\"source\":\"{}\",\"request\":{{\"fuel\":1}}}}",
            json::escape("fn f(x) { return x + 1; }")
        );
        let (resp, stop) = d.handle_line(&line);
        assert!(!stop, "a failed compile does not kill the daemon");
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(500));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("compile-failed"));
    }

    #[test]
    fn parse_errors_are_422_and_echo_the_id() {
        let d = daemon();
        let (resp, _) = d.handle_line(r#"{"v":1,"id":9,"verb":"compile","source":"fn oops"}"#);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(9));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(422));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("parse-error"));
    }

    #[test]
    fn serve_loop_speaks_jsonl_end_to_end() {
        let input = format!(
            "{}\n\n{}\n{}\n",
            compile_line("fn f(x) { return x; }"),
            r#"{"v":1,"verb":"stats"}"#,
            r#"{"v":1,"verb":"shutdown"}"#
        );
        let mut out = Vec::new();
        serve_loop(input.as_bytes(), &mut out, ServeOptions::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank line ignored, three replies");
        assert!(lines.iter().all(|l| json::parse(l).is_ok()));
    }

    #[test]
    fn ir_lang_parses_the_textual_format() {
        let d = daemon();
        let func = fcc_frontend::compile("fn f(x) { return x + 1; }").unwrap();
        let line = format!(
            "{{\"v\":1,\"verb\":\"compile\",\"lang\":\"ir\",\"source\":\"{}\"}}",
            json::escape(&func.to_string())
        );
        let (resp, _) = d.handle_line(&line);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true), "{resp}");
    }

    #[test]
    fn an_oversized_line_is_400_and_the_daemon_lives_on() {
        let opts = ServeOptions {
            max_line_bytes: 128,
            ..ServeOptions::default()
        };
        let long = compile_line(&format!("fn f(x) {{ return x + {}; }}", "1".repeat(4096)));
        assert!(long.len() > 128);
        let input = format!(
            "{long}\n{}\n{}\n",
            compile_line("fn g(x) { return x; }"),
            r#"{"v":1,"verb":"stats"}"#
        );
        let mut out = Vec::new();
        serve_loop(input.as_bytes(), &mut out, opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = json::parse(lines[0]).unwrap();
        let err = first.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(400));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("line-too-long"));
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("ok").unwrap().as_bool(),
            Some(true),
            "the next request compiles normally"
        );
        let stats = json::parse(lines[2]).unwrap();
        assert_eq!(stats.get("errors").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn a_zero_queue_sheds_every_compile_deterministically() {
        let opts = ServeOptions {
            max_queue: 0,
            ..ServeOptions::default()
        };
        let d = Daemon::new(opts).unwrap();
        let line = compile_line("fn f(x) { return x; }");
        let (first, _) = d.handle_line(&line);
        let (second, _) = d.handle_line(&line);
        assert_eq!(first, second, "shedding is replay-stable");
        let doc = json::parse(&first).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(503));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(100));
        // Control verbs are never shed.
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
        assert!(resp.contains("\"ok\":true"));
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("shed").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn a_blown_deadline_is_a_504_and_counted() {
        let d = daemon();
        let line = format!(
            "{{\"v\":1,\"id\":4,\"verb\":\"compile\",\"source\":\"{}\",\"request\":{{\"deadline_ms\":0}}}}",
            json::escape("fn f(x) { return x + 1; }\nfn g(y) { return y; }")
        );
        let (first, stop) = d.handle_line(&line);
        assert!(!stop, "a deadline does not kill the daemon");
        let (second, _) = d.handle_line(&line);
        assert_eq!(
            first, second,
            "the 504 names the configured budget, never elapsed time"
        );
        let doc = json::parse(&first).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_u64(), Some(504));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("deadline-exceeded"));
        let msg = err.get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("@f") && msg.contains("budget 0ms"), "{msg}");
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("deadline_exceeded").unwrap().as_u64(), Some(2));
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("insertions")
                .unwrap()
                .as_u64(),
            Some(0),
            "deadline results are never cached"
        );
    }

    #[test]
    fn stats_carries_the_full_service_shape() {
        let d = daemon();
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = json::parse(&resp).unwrap();
        for key in [
            "cache",
            "disk",
            "compiles",
            "errors",
            "shed",
            "deadline_exceeded",
            "in_flight",
            "queued",
            "uptime_ms",
        ] {
            assert!(doc.get(key).is_some(), "stats is missing {key:?}");
        }
        let disk = doc.get("disk").unwrap();
        for key in [
            "warmed",
            "quarantined",
            "writes",
            "write_errors",
            "removals",
        ] {
            assert_eq!(disk.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
    }

    #[test]
    fn the_capped_reader_recovers_cleanly_after_an_overflow() {
        let mut input = Vec::new();
        input.extend_from_slice(&vec![b'x'; 1000]);
        input.push(b'\n');
        input.extend_from_slice(b"short\n");
        input.extend_from_slice(b"tail-no-newline");
        let mut r = io::BufReader::with_capacity(16, &input[..]);
        assert!(matches!(
            read_capped_line(&mut r, 64).unwrap(),
            ReadLine::TooLong
        ));
        match read_capped_line(&mut r, 64).unwrap() {
            ReadLine::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected the post-overflow line"),
        }
        match read_capped_line(&mut r, 64).unwrap() {
            ReadLine::Line(l) => assert_eq!(l, "tail-no-newline"),
            _ => panic!("unterminated final line still answers"),
        }
        assert!(matches!(
            read_capped_line(&mut r, 64).unwrap(),
            ReadLine::Eof
        ));
    }
}
