//! End-to-end tests of the `fcc serve` protocol: the daemon state
//! machine driven through the exact production byte path
//! (`Daemon::handle_line` / `serve_loop`), covering the error taxonomy,
//! cache determinism, fault degradation, and eviction — and, over the
//! socket transport, connections served in parallel with each key
//! compiled once.
//!
//! Faults are process-global, so every test holds a
//! `fcc::analysis::fault::Guard` while it runs, which disarms every fault
//! when it drops: a compile in another test must never run while one is
//! armed (cargo runs separate test binaries one after another, so
//! cross-binary races cannot happen). The socket tests use the armed
//! solver spin as a barrier: an `opt` compile holds inside the dataflow
//! solver until the test disarms it, so what they check does not depend
//! on timing.

use fcc::analysis::fault::{self, Fault, Guard};
use fcc::serve::{serve_loop, serve_socket, Daemon, ServeOptions, PROTOCOL_VERSION};
use fcc::workloads::{generate, GenConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

fn daemon() -> Daemon {
    Daemon::new(ServeOptions::default()).expect("memory-only daemon")
}

/// Parse a response line (every daemon reply must be valid JSON).
fn parse(line: &str) -> fcc::serve::json::Json {
    fcc::serve::json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn compile_line(source: &str, extra: &str) -> String {
    format!(
        "{{\"v\":1,\"verb\":\"compile\",\"source\":\"{}\"{extra}}}",
        fcc::serve::json::escape(source)
    )
}

/// A deterministic 64-function MiniLang module.
fn module_64() -> String {
    let shape = GenConfig {
        stmts: 6,
        max_depth: 2,
        ..GenConfig::default()
    };
    let mut src = String::new();
    for seed in 0..64u64 {
        let mut prog = generate(seed, &shape);
        prog.name = format!("gen{seed}");
        src.push_str(&fcc::frontend::to_source(&prog));
        src.push('\n');
    }
    src
}

#[test]
fn malformed_and_unversioned_requests_get_400_and_the_daemon_lives() {
    let _quiet = Guard::lock();
    let d = daemon();
    for (line, kind) in [
        ("{nope", "malformed-json"),
        ("[1,2,3]", "bad-request"),
        (r#"{"verb":"ping"}"#, "bad-request"),
        (r#"{"v":99,"verb":"ping"}"#, "unsupported-version"),
        (r#"{"v":1,"verb":"frobnicate"}"#, "unknown-verb"),
        (r#"{"v":1,"verb":"compile"}"#, "bad-request"),
        (r#"{"v":1,"verb":"ping","bogus":1}"#, "bad-request"),
    ] {
        let (resp, stop) = d.handle_line(line);
        assert!(!stop, "{line}: protocol errors never stop the daemon");
        let doc = parse(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false), "{line}");
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some(kind), "{line}");
        assert_eq!(err.get("code").unwrap().as_u64(), Some(400), "{line}");
    }
    // The unsupported-version reply names the version this build speaks.
    let (resp, _) = d.handle_line(r#"{"v":99,"verb":"ping"}"#);
    assert!(resp.contains(&PROTOCOL_VERSION.to_string()));
    // After all that abuse, an honest request still works.
    let (resp, _) = d.handle_line(&compile_line("fn f(x) { return x; }", ""));
    assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn briggs_with_folding_is_a_422_typed_rejection() {
    let _quiet = Guard::lock();
    let d = daemon();
    let line = compile_line(
        "fn f(x) { return x; }",
        ",\"request\":{\"pipeline\":\"briggs\"}",
    );
    let (resp, stop) = d.handle_line(&line);
    assert!(!stop);
    let doc = parse(&resp);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(422));
    assert_eq!(
        err.get("kind").unwrap().as_str(),
        Some("briggs-needs-no-fold")
    );
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("--no-fold"));
    // And the corrected request compiles.
    let line = compile_line(
        "fn f(x) { return x; }",
        ",\"request\":{\"pipeline\":\"briggs\",\"fold\":false}",
    );
    let (resp, _) = d.handle_line(&line);
    assert_eq!(
        parse(&resp).get("ok").unwrap().as_bool(),
        Some(true),
        "{resp}"
    );
}

#[test]
fn too_few_registers_is_a_422_typed_rejection_for_both_bounds() {
    let _quiet = Guard::lock();
    let d = daemon();
    for k in [0, 1] {
        let line = compile_line(
            "fn f(x) { return x; }",
            &format!(",\"request\":{{\"k_registers\":{k}}}"),
        );
        let (resp, stop) = d.handle_line(&line);
        assert!(!stop);
        let err = parse(&resp).get("error").cloned().expect("a typed error");
        assert_eq!(err.get("code").unwrap().as_u64(), Some(422), "{resp}");
        assert_eq!(
            err.get("kind").unwrap().as_str(),
            Some("k-registers-too-few"),
            "{resp}"
        );
    }
    // Two registers is the floor, and it compiles.
    let line = compile_line("fn f(x) { return x; }", ",\"request\":{\"k_registers\":2}");
    let (resp, _) = d.handle_line(&line);
    assert_eq!(
        parse(&resp).get("ok").unwrap().as_bool(),
        Some(true),
        "{resp}"
    );
}

#[test]
fn the_removed_alloc_field_is_a_400_unknown_field() {
    // `k_registers` is the one allocation knob; `alloc` is no longer a
    // request field, so a line that sets it is not understood.
    let _quiet = Guard::lock();
    let d = daemon();
    let line = compile_line("fn f(x) { return x; }", ",\"request\":{\"alloc\":2}");
    let (resp, stop) = d.handle_line(&line);
    assert!(!stop);
    let err = parse(&resp).get("error").cloned().expect("a typed error");
    assert_eq!(err.get("code").unwrap().as_u64(), Some(400), "{resp}");
    assert_eq!(err.get("kind").unwrap().as_str(), Some("bad-request"));
    assert_eq!(
        err.get("message").unwrap().as_str(),
        Some("unknown compile-request field \"alloc\"")
    );
}

#[test]
fn resubmitting_64_functions_compiles_zero_and_replays_bytes() {
    let _quiet = Guard::lock();
    let src = module_64();
    // Byte-identical across jobs widths AND across cold/warm cache.
    let mut responses = Vec::new();
    for jobs in [1usize, 8] {
        let d = daemon();
        let line = compile_line(&src, &format!(",\"request\":{{\"jobs\":{jobs}}}"));
        let (cold, _) = d.handle_line(&line);
        let (warm, _) = d.handle_line(&line);
        assert_eq!(
            cold, warm,
            "jobs={jobs}: warm replay must be byte-identical"
        );

        // The stats verb proves the second pass compiled nothing.
        let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
        let doc = parse(&stats);
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(64));
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(64));

        // Per-request counters agree (opt-in response field).
        let probe = compile_line(
            &src,
            &format!(",\"request\":{{\"jobs\":{jobs}}},\"cache\":true"),
        );
        let (third, _) = d.handle_line(&probe);
        let counters = parse(&third);
        let c = counters.get("cache").unwrap();
        assert_eq!(c.get("hits").unwrap().as_u64(), Some(64));
        assert_eq!(c.get("misses").unwrap().as_u64(), Some(0));

        // Strip the jobs-specific request so widths can be compared:
        // the response text itself must not depend on jobs at all.
        let doc = parse(&cold);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("counts").unwrap().get("ok").unwrap().as_u64(),
            Some(64)
        );
        responses.push(cold);
    }
    assert_eq!(
        responses[0], responses[1],
        "jobs=1 and jobs=8 responses must be byte-identical"
    );
}

#[test]
fn editing_one_function_recompiles_only_that_function() {
    let _quiet = Guard::lock();
    let d = daemon();
    let src = module_64();
    let (_, _) = d.handle_line(&compile_line(&src, ""));
    // "Edit" one function by renaming a generated one — new canonical
    // text, same module shape.
    let edited = src.replacen("fn gen7(", "fn gen7_edited(", 1);
    let (resp, _) = d.handle_line(&compile_line(&edited, ",\"cache\":true"));
    let doc = parse(&resp);
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(63));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
}

#[test]
fn injected_panic_degrades_per_fail_mode_without_killing_the_daemon() {
    let _armed = Guard::arm(Fault::Panic("coalesce-new".into()));
    let d = daemon();
    let src = "fn f(x) { return x + 1; }\nfn g(y) { return y * 2; }";

    // abort (the default): 500, daemon alive.
    let (resp, stop) = d.handle_line(&compile_line(src, ""));
    assert!(!stop);
    let doc = parse(&resp);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(500));
    assert_eq!(err.get("kind").unwrap().as_str(), Some("compile-failed"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("coalesce-new"));

    // skip: quarantines both, succeeds with an empty surviving module.
    let (resp, _) = d.handle_line(&compile_line(src, ",\"request\":{\"fail_mode\":\"skip\"}"));
    let doc = parse(&resp);
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    let counts = doc.get("counts").unwrap();
    assert_eq!(counts.get("failed").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("output").unwrap().as_str(), Some(""));

    // degrade: both functions recover on the standard rung.
    let (resp, _) = d.handle_line(&compile_line(
        src,
        ",\"request\":{\"fail_mode\":\"degrade\"}",
    ));
    let doc = parse(&resp);
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    let counts = doc.get("counts").unwrap();
    assert_eq!(counts.get("recovered").unwrap().as_u64(), Some(2));
    let funcs = doc.get("functions").unwrap();
    if let fcc::serve::json::Json::Arr(items) = funcs {
        for f in items {
            assert_eq!(f.get("status").unwrap().as_str(), Some("recovered"));
            assert_eq!(f.get("attempts").unwrap().as_u64(), Some(2));
        }
    } else {
        panic!("functions is not an array");
    }
    assert!(doc.get("output").unwrap().as_str().unwrap().contains("@f"));

    // The daemon survives it all and still answers.
    fault::clear();
    let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
    assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn a_tiny_byte_budget_forces_eviction_but_not_wrong_answers() {
    let _quiet = Guard::lock();
    // Big enough for a handful of the 64 entries, far too small for all
    // of them — every pass must insert and evict.
    let budget = 64 << 10;
    let d = Daemon::new(ServeOptions {
        defaults: fcc::driver::CompileRequest::new(),
        cache_budget: budget,
        ..ServeOptions::default()
    })
    .expect("memory-only daemon");
    let src = module_64();
    let line = compile_line(&src, "");
    let (cold, _) = d.handle_line(&line);
    let (warm, _) = d.handle_line(&line);
    assert_eq!(cold, warm, "evicted entries recompile to the same bytes");
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    let cache = doc.get("cache").unwrap();
    assert!(
        cache.get("insertions").unwrap().as_u64().unwrap() > 0,
        "entries must fit the budget individually: {stats}"
    );
    assert!(
        cache.get("evictions").unwrap().as_u64().unwrap() > 0,
        "{stats}"
    );
    assert!(cache.get("bytes").unwrap().as_u64().unwrap() <= budget as u64);
}

#[test]
fn the_stats_verb_shape_is_pinned() {
    let _quiet = Guard::lock();
    // The CI durability harness scrapes these fields; adding is fine,
    // renaming or dropping any of them is a breaking change.
    let d = daemon();
    d.handle_line(&compile_line("fn f(x) { return x; }", ""));
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    assert_eq!(doc.get("verb").unwrap().as_str(), Some("stats"));
    let cache = doc.get("cache").unwrap();
    for key in [
        "hits",
        "misses",
        "evictions",
        "collisions",
        "insertions",
        "entries",
        "bytes",
        "budget",
    ] {
        assert!(cache.get(key).is_some(), "cache.{key} missing: {stats}");
    }
    let disk = doc.get("disk").unwrap();
    for key in [
        "warmed",
        "quarantined",
        "writes",
        "write_errors",
        "removals",
    ] {
        assert!(disk.get(key).is_some(), "disk.{key} missing: {stats}");
    }
    assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("errors").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("shed").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("deadline_exceeded").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("in_flight").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("queued").unwrap().as_u64(), Some(0));
    assert!(doc.get("uptime_ms").is_some());
}

#[test]
fn an_expired_deadline_is_a_deterministic_504() {
    let _quiet = Guard::lock();
    let d = daemon();
    let line = compile_line(
        "fn f(x) { return x + 1; }\nfn g(y) { return y; }",
        ",\"request\":{\"deadline_ms\":0}",
    );
    let (first, stop) = d.handle_line(&line);
    assert!(!stop, "a 504 never kills the daemon");
    let (second, _) = d.handle_line(&line);
    assert_eq!(first, second, "504s render the budget, never elapsed time");
    let doc = parse(&first);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(504));
    assert_eq!(err.get("kind").unwrap().as_str(), Some("deadline-exceeded"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("budget 0ms"));
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    assert_eq!(doc.get("deadline_exceeded").unwrap().as_u64(), Some(2));
    // The same module with the deadline lifted compiles cleanly: the
    // timeouts left nothing poisoned in the cache.
    let clean = compile_line(
        "fn f(x) { return x + 1; }\nfn g(y) { return y; }",
        ",\"request\":{\"deadline_ms\":null},\"cache\":true",
    );
    let (resp, _) = d.handle_line(&clean);
    let doc = parse(&resp);
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        doc.get("cache").unwrap().get("misses").unwrap().as_u64(),
        Some(2),
        "deadline-failed attempts were never cached"
    );
}

#[test]
fn a_full_admission_queue_sheds_with_a_typed_503() {
    let _quiet = Guard::lock();
    let d = Daemon::new(ServeOptions {
        max_queue: 0,
        ..ServeOptions::default()
    })
    .expect("memory-only daemon");
    let line = compile_line("fn f(x) { return x; }", "");
    let (first, stop) = d.handle_line(&line);
    assert!(!stop);
    let (second, _) = d.handle_line(&line);
    assert_eq!(first, second, "shedding is deterministic");
    let doc = parse(&first);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_u64(), Some(503));
    assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
    assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(100));
    // ping/stats/shutdown are control plane: never shed.
    let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
    assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
    let (stats, _) = d.handle_line(r#"{"v":1,"verb":"stats"}"#);
    let doc = parse(&stats);
    assert_eq!(doc.get("shed").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("compiles").unwrap().as_u64(), Some(0));
}

#[test]
fn oversized_lines_get_400_without_buffering_the_flood() {
    let _quiet = Guard::lock();
    let opts = ServeOptions {
        max_line_bytes: 256,
        ..ServeOptions::default()
    };
    let giant = compile_line(
        &format!("fn f(x) {{ return x + {}; }}", "9".repeat(1 << 16)),
        "",
    );
    let ok_line = compile_line("fn f(x) { return x; }", "");
    let input = format!(
        "{giant}\n{ok_line}\n{}\n{}\n",
        r#"{"v":1,"verb":"stats"}"#, r#"{"v":1,"verb":"shutdown"}"#
    );
    let mut out = Vec::new();
    serve_loop(input.as_bytes(), &mut out, opts).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    let err = parse(lines[0]);
    let e = err.get("error").unwrap();
    assert_eq!(e.get("code").unwrap().as_u64(), Some(400));
    assert_eq!(e.get("kind").unwrap().as_str(), Some("line-too-long"));
    assert_eq!(
        parse(lines[1]).get("ok").unwrap().as_bool(),
        Some(true),
        "the daemon reads cleanly past the flood"
    );
    assert_eq!(
        parse(lines[2]).get("errors").unwrap().as_u64(),
        Some(1),
        "the oversized line is counted"
    );
}

#[test]
fn serve_loop_replays_the_kernel_suite_deterministically() {
    let _quiet = Guard::lock();
    // The CI serve job does this through the real binary; here the same
    // double replay runs in-process over the loop transport.
    let suite: Vec<&str> = fcc::workloads::kernels().iter().map(|k| k.source).collect();
    let src = suite.join("\n\n");
    let line = compile_line(&src, "");
    let input = format!("{line}\n{line}\n{}\n", r#"{"v":1,"verb":"shutdown"}"#);
    let mut out = Vec::new();
    serve_loop(input.as_bytes(), &mut out, ServeOptions::default()).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[0], lines[1], "second pass must replay byte-for-byte");
    assert!(parse(lines[0]).get("ok").unwrap().as_bool() == Some(true));
}

#[test]
fn ir_that_ssa_construction_cannot_take_is_a_422_naming_its_rule() {
    let _quiet = Guard::lock();
    let ir_line = |id: u64, source: &str, extra: &str| {
        format!(
            "{{\"v\":1,\"id\":{id},\"verb\":\"compile\",\"lang\":\"ir\",\"source\":\"{}\"{extra}}}",
            fcc::serve::json::escape(source)
        )
    };
    let phi = "function @f(1) {\nb0:\n    v0 = param 0\n    jump b1\nb1:\n    \
               v1 = phi [b0: v0]\n    return v1\n}\n";
    let back_to_entry = "function @f(1) {\nb0:\n    v0 = param 0\n    v1 = const 0\n    \
                         v2 = gt v0, v1\n    branch v2, b1, b2\nb1:\n    v0 = sub v0, v0\n    \
                         jump b0\nb2:\n    return v0\n}\n";
    let d = daemon();
    for (id, source, kind) in [
        (40, "function @f(0) {\n}\n", "ir-no-entry-block"),
        (41, phi, "ir-phi-in-input"),
        (42, back_to_entry, "ir-entry-has-predecessor"),
    ] {
        for extra in ["", ",\"request\":{\"fail_mode\":\"degrade\"}"] {
            let (resp, stop) = d.handle_line(&ir_line(id, source, extra));
            assert!(!stop);
            let doc = parse(&resp);
            assert_eq!(doc.get("id").unwrap().as_u64(), Some(id), "{resp}");
            let err = doc.get("error").cloned().expect("a typed error");
            assert_eq!(err.get("code").unwrap().as_u64(), Some(422), "{resp}");
            assert_eq!(err.get("kind").unwrap().as_str(), Some(kind), "{resp}");
        }
        let (resp, _) = d.handle_line(r#"{"v":1,"verb":"ping"}"#);
        assert_eq!(parse(&resp).get("ok").unwrap().as_bool(), Some(true));
    }

    // Only reachable predecessors count: construction drops the dead
    // block that jumps back to the entry, so this compiles.
    let dead_jump = "function @f(1) {\nb0:\n    v0 = param 0\n    return v0\nb1:\n    jump b0\n}\n";
    let (resp, _) = d.handle_line(&ir_line(43, dead_jump, ""));
    assert_eq!(
        parse(&resp).get("ok").unwrap().as_bool(),
        Some(true),
        "{resp}"
    );
}

/// How long any socket answer may take once nothing holds it back.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// A socket daemon on a fresh path, served from a background thread.
fn start_socket(tag: &str) -> (PathBuf, thread::JoinHandle<std::io::Result<()>>) {
    let path = std::env::temp_dir().join(format!("fcc-proto-{tag}-{}.sock", std::process::id()));
    let server = {
        let path = path.clone();
        thread::spawn(move || serve_socket(&path, ServeOptions::default()))
    };
    (path, server)
}

/// One client connection whose every read gives up after
/// [`ANSWER_TIMEOUT`].
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(path: &Path) -> Conn {
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => panic!("socket {path:?}: {e}"),
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        };
        stream.set_read_timeout(Some(ANSWER_TIMEOUT)).unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .unwrap_or_else(|e| panic!("no answer within {ANSWER_TIMEOUT:?}: {e}"));
        resp.trim_end().to_string()
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Poll `stats` until `ready` holds of it, and return that reply.
    fn stats_when(
        &mut self,
        ready: impl Fn(&fcc::serve::json::Json) -> bool,
    ) -> fcc::serve::json::Json {
        let deadline = Instant::now() + 4 * ANSWER_TIMEOUT;
        loop {
            let doc = parse(&self.ask(r#"{"v":1,"verb":"stats"}"#));
            if ready(&doc) {
                return doc;
            }
            assert!(Instant::now() < deadline, "stats never got there: {doc:?}");
            thread::sleep(Duration::from_millis(2));
        }
    }
}

fn count(doc: &fcc::serve::json::Json, path: &[&str]) -> u64 {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("{path:?} missing: {doc:?}"));
    }
    v.as_u64().unwrap()
}

/// Replay `lines` through the stdio transport.
fn stdio_replay(lines: &[&str]) -> Vec<String> {
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut out = Vec::new();
    serve_loop(input.as_bytes(), &mut out, ServeOptions::default()).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Send `shutdown` and join the daemon.
fn stop_socket(conn: &mut Conn, server: thread::JoinHandle<std::io::Result<()>>) {
    assert!(conn
        .ask(r#"{"v":1,"verb":"shutdown"}"#)
        .contains("\"ok\":true"));
    server.join().unwrap().unwrap();
}

#[test]
fn a_hit_is_answered_while_two_other_connections_compile() {
    let _armed = Guard::lock();
    let cached = compile_line("fn f(x) { return x + 1; }\nfn g(y) { return y * 2; }", "");
    let opt = ",\"request\":{\"opt\":true,\"jobs\":1}";
    let slow_a = compile_line(
        "fn h(n) { let s = 0; for i = 0 to n { s = s + i; } return s; }",
        opt,
    );
    let slow_c = compile_line(
        "fn k(n) { let p = 1; while n > 0 { p = p * 2; n = n - 1; } return p; }",
        opt,
    );
    let expected = stdio_replay(&[&cached, &slow_a, &slow_c]);

    let (path, server) = start_socket("hit");
    let mut b = Conn::open(&path);
    let first = b.ask(&cached);
    assert_eq!(first, expected[0]);

    fault::inject(Fault::SolverSpin);
    let (mut a, mut c) = (Conn::open(&path), Conn::open(&path));
    a.send(&slow_a);
    c.send(&slow_c);
    // Both compiles are admitted and held in the solver; two different
    // modules share no key, so neither waits on the other.
    let doc = b.stats_when(|d| count(d, &["in_flight"]) == 2);
    assert_eq!(count(&doc, &["queued"]), 0, "{doc:?}");

    assert_eq!(
        b.ask(&cached),
        first,
        "the all-hit resubmit answers mid-compile"
    );
    assert!(b.ask(r#"{"v":1,"verb":"ping"}"#).contains("\"ok\":true"));
    let doc = parse(&b.ask(r#"{"v":1,"verb":"stats"}"#));
    assert_eq!(
        count(&doc, &["in_flight"]),
        2,
        "both compiles still held: {doc:?}"
    );
    assert_eq!(count(&doc, &["cache", "hits"]), 2, "{doc:?}");

    fault::clear();
    assert_eq!(
        a.recv(),
        expected[1],
        "a compile served in parallel replays stdio's bytes"
    );
    assert_eq!(c.recv(), expected[2]);
    stop_socket(&mut b, server);
}

#[test]
fn four_clients_missing_one_module_compile_each_function_once() {
    let _armed = Guard::lock();
    let line = compile_line(
        "fn h(n) { let s = 0; for i = 0 to n { s = s + i; } return s; }\n\
         fn k(n) { let p = 1; while n > 0 { p = p * 2; n = n - 1; } return p; }",
        ",\"request\":{\"opt\":true,\"jobs\":1},\"cache\":true",
    );
    let (path, server) = start_socket("four");
    let mut monitor = Conn::open(&path);
    let mut clients: Vec<Conn> = (0..4).map(|_| Conn::open(&path)).collect();

    fault::inject(Fault::SolverSpin);
    for c in &mut clients {
        c.send(&line);
    }
    // One client owns both keys and is held compiling them; the other
    // three wait on its flights.
    let doc = monitor.stats_when(|d| count(d, &["queued"]) == 3);
    assert_eq!(count(&doc, &["in_flight"]), 4, "{doc:?}");
    fault::clear();

    let mut per_request = Vec::new();
    let mut bodies = Vec::new();
    for c in &mut clients {
        let resp = c.recv();
        let doc = parse(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        let (hits, misses) = (
            count(&doc, &["cache", "hits"]),
            count(&doc, &["cache", "misses"]),
        );
        per_request.push((hits, misses));
        // Only the opt-in per-request counters may differ.
        let counters = format!(",\"cache\":{{\"hits\":{hits},\"misses\":{misses}}}");
        bodies.push(resp.replacen(&counters, "", 1));
    }
    per_request.sort_unstable();
    assert_eq!(per_request, [(0, 2), (2, 0), (2, 0), (2, 0)]);
    assert!(bodies.iter().all(|b| b == &bodies[0]), "{bodies:#?}");

    let doc = parse(&monitor.ask(r#"{"v":1,"verb":"stats"}"#));
    assert_eq!(count(&doc, &["cache", "hits"]), 6, "{doc:?}");
    assert_eq!(count(&doc, &["cache", "misses"]), 2, "{doc:?}");
    assert_eq!(count(&doc, &["compiles"]), 4, "{doc:?}");
    assert_eq!(count(&doc, &["queued"]), 0, "{doc:?}");
    stop_socket(&mut monitor, server);
}
