//! The versioned JSONL request/response protocol.
//!
//! One request per line, one response per line, over stdin/stdout. Every
//! request names the protocol version; every response echoes the
//! request's `id` so clients can pipeline. The grammar (DESIGN.md §11
//! has the full reference):
//!
//! ```text
//! request  = { "v": 1, "id"?: <any>, "verb": "compile" | "stats"
//!                                          | "ping" | "shutdown",
//!              -- compile only:
//!              "source": string, "lang"?: "minilang" | "ir",
//!              "request"?: { pipeline?, fold?, opt?, verify_each?,
//!                            simplify?, k_registers?, fail_mode?,
//!                            fuel?, deadline_ms?, jobs?, format? },
//!              "report"?: bool, "cache"?: bool, "timing"?: bool }
//! response = { "v": 1, "id": <echo>, "ok": true, ... }
//!          | { "v": 1, "id": <echo>, "ok": false,
//!              "error": { "code": int, "kind": string, "message": string,
//!                         -- 503 only:
//!                         "retry_after_ms"?: int } }
//! ```
//!
//! Error codes follow HTTP's split: `400` the line could not be
//! understood (bad JSON, wrong types, unknown verb/field, unsupported
//! version, or a line longer than the transport's `--max-line-bytes`
//! cap — `kind: "line-too-long"`), `422` the line was understood but
//! cannot be compiled as written (source parse errors, and every typed
//! [`RequestError`] from [`CompileRequest::validate`] — the
//! briggs-needs-`--no-fold` precondition arrives here as
//! `kind: "briggs-needs-no-fold"`), `500` compilation itself failed
//! under `fail_mode: "abort"`, `503` the daemon's admission queue is
//! full (`kind: "overloaded"`, with a `retry_after_ms` hint), `504` a
//! function blew the request's wall-clock `deadline_ms`
//! (`kind: "deadline-exceeded"`; the message names the configured
//! budget, never the elapsed time, so the response is replay-stable).
//! The daemon answers *every* line — a protocol error is a response,
//! never a dead process.
//!
//! **Determinism:** the default compile response carries only
//! replay-stable fields (function statuses, counts, output text). Wall
//! times and cumulative cache counters vary run to run, so they are
//! opt-in (`"timing": true`, `"cache": true`) and the `stats` verb —
//! which is what lets the CI replay harness require *byte-identical*
//! response streams from a cold and a warm daemon.

use std::fmt::Write as _;

use fcc_driver::{CompileRequest, RequestError, SetError, SetValue};

use crate::json::{self, escape, Json};

/// The protocol version this build speaks. A request naming any other
/// version is rejected with `kind: "unsupported-version"` (and the
/// response says which versions are supported).
pub const PROTOCOL_VERSION: u64 = 1;

/// A protocol-level failure: everything the daemon can say "no" with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP-style class: 400 unintelligible, 422 invalid, 500 failed,
    /// 503 overloaded, 504 deadline exceeded.
    pub code: u16,
    /// Stable machine-readable discriminant.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// `Some` only for 503: how long the client should back off. Part
    /// of the error struct (not the message) so clients can read it
    /// without parsing prose.
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    fn new(code: u16, kind: &str, message: impl Into<String>) -> Self {
        ServeError {
            code,
            kind: kind.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// The line is not a JSON object.
    pub fn malformed(detail: impl Into<String>) -> Self {
        Self::new(400, "malformed-json", detail)
    }

    /// The line is JSON but not a well-formed request.
    pub fn bad_request(detail: impl Into<String>) -> Self {
        Self::new(400, "bad-request", detail)
    }

    /// The request names a protocol version this build does not speak.
    pub fn unsupported_version(got: &Json) -> Self {
        Self::new(
            400,
            "unsupported-version",
            format!(
                "protocol version {got} is not supported (this daemon speaks {PROTOCOL_VERSION})"
            ),
        )
    }

    /// The request's `verb` is not in the protocol.
    pub fn unknown_verb(verb: &str) -> Self {
        Self::new(
            400,
            "unknown-verb",
            format!("unknown verb {verb:?} (expected compile, stats, ping, or shutdown)"),
        )
    }

    /// The source text does not parse.
    pub fn parse_error(detail: impl Into<String>) -> Self {
        Self::new(422, "parse-error", detail)
    }

    /// Textual IR that parses but breaks a precondition of SSA
    /// construction; `rule` names which.
    pub fn invalid_ir(rule: &str, detail: impl Into<String>) -> Self {
        Self::new(422, rule, detail)
    }

    /// The compile request fails [`CompileRequest::validate`].
    pub fn invalid_request(e: &RequestError) -> Self {
        Self::new(422, e.kind(), e.to_string())
    }

    /// A function failed and `fail_mode` is `abort`.
    pub fn compile_failed(detail: impl Into<String>) -> Self {
        Self::new(500, "compile-failed", detail)
    }

    /// The line exceeded the transport's byte cap before a newline.
    pub fn line_too_long(cap: usize) -> Self {
        Self::new(
            400,
            "line-too-long",
            format!("request line exceeds the {cap}-byte transport cap"),
        )
    }

    /// The admission queue is full; the client should retry later. The
    /// hint is derived from the queue depth at shed time, so under a
    /// fixed request sequence it is deterministic.
    pub fn overloaded(retry_after_ms: u64) -> Self {
        let mut e = Self::new(
            503,
            "overloaded",
            format!("compile queue is full, retry in {retry_after_ms}ms"),
        );
        e.retry_after_ms = Some(retry_after_ms);
        e
    }

    /// A function blew the request's wall-clock budget. The message
    /// carries the *configured* budget — never the elapsed time — so
    /// identical requests render identical 504s.
    pub fn deadline_exceeded(detail: impl Into<String>) -> Self {
        Self::new(504, "deadline-exceeded", detail)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.code, self.kind, self.message)
    }
}

/// What a request asks the daemon to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Compile a module; the payload is in [`Request::compile`].
    Compile,
    /// Report cumulative cache and request counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Answer, then exit the serve loop.
    Shutdown,
}

/// The source language of a compile request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Lang {
    /// MiniLang source, lowered through the frontend.
    #[default]
    MiniLang,
    /// The IR's textual format, parsed directly.
    Ir,
}

/// The compile-specific half of a request.
#[derive(Clone, Debug)]
pub struct CompileBody {
    /// The module text.
    pub source: String,
    /// How to read it.
    pub lang: Lang,
    /// The full compile configuration (daemon defaults + overrides).
    pub req: CompileRequest,
    /// Include the rendered outcome report in the response.
    pub want_report: bool,
    /// Include this request's cache hit/miss counts in the response.
    pub want_cache: bool,
    /// Include wall-time in the response (never replay-stable).
    pub want_timing: bool,
}

/// One parsed, version-checked protocol request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request's `id`, echoed verbatim in the response.
    pub id: Json,
    /// What to do.
    pub verb: Verb,
    /// Present iff `verb` is [`Verb::Compile`].
    pub compile: Option<CompileBody>,
}

/// The fields a request line may carry at the top level, per verb.
const TOP_FIELDS: &[&str] = &[
    "v", "id", "verb", "source", "lang", "request", "report", "cache", "timing",
];

/// Parse and validate one request line. `defaults` seeds the
/// [`CompileRequest`]; the line's `request` object overrides
/// field-by-field, so a daemon started with `--opt` compiles `opt`
/// unless a request says otherwise.
pub fn parse_request(line: &str, defaults: &CompileRequest) -> Result<Request, ServeError> {
    let doc = json::parse(line).map_err(|e| ServeError::malformed(e.to_string()))?;
    let Json::Obj(members) = &doc else {
        return Err(ServeError::bad_request("request must be a JSON object"));
    };
    for (key, _) in members {
        if !TOP_FIELDS.contains(&key.as_str()) {
            return Err(ServeError::bad_request(format!(
                "unknown request field {key:?}"
            )));
        }
    }

    let v = doc
        .get("v")
        .ok_or_else(|| ServeError::bad_request("missing protocol version field \"v\""))?;
    if v.as_u64() != Some(PROTOCOL_VERSION) {
        return Err(ServeError::unsupported_version(v));
    }

    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let verb_str = doc
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::bad_request("missing or non-string \"verb\""))?;
    let verb = match verb_str {
        "compile" => Verb::Compile,
        "stats" => Verb::Stats,
        "ping" => Verb::Ping,
        "shutdown" => Verb::Shutdown,
        other => return Err(ServeError::unknown_verb(other)),
    };

    if verb != Verb::Compile {
        for key in ["source", "lang", "request", "report", "cache", "timing"] {
            if doc.get(key).is_some() {
                return Err(ServeError::bad_request(format!(
                    "field {key:?} is only valid with verb \"compile\""
                )));
            }
        }
        return Ok(Request {
            id,
            verb,
            compile: None,
        });
    }

    let source = doc
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::bad_request("compile needs a string \"source\""))?
        .to_string();
    let lang = match doc.get("lang") {
        None => Lang::MiniLang,
        Some(Json::Str(s)) if s == "minilang" => Lang::MiniLang,
        Some(Json::Str(s)) if s == "ir" => Lang::Ir,
        Some(other) => {
            return Err(ServeError::bad_request(format!(
                "unknown lang {other} (expected \"minilang\" or \"ir\")"
            )))
        }
    };
    let req = match doc.get("request") {
        None => defaults.clone(),
        Some(obj) => apply_overrides(defaults.clone(), obj)?,
    };
    req.validate()
        .map_err(|e| ServeError::invalid_request(&e))?;

    let flag = |key: &str| -> Result<bool, ServeError> {
        match doc.get(key) {
            None => Ok(false),
            Some(Json::Bool(b)) => Ok(*b),
            Some(other) => Err(ServeError::bad_request(format!(
                "field {key:?} must be a bool, got {other}"
            ))),
        }
    };

    Ok(Request {
        id,
        verb,
        compile: Some(CompileBody {
            source,
            lang,
            req,
            want_report: flag("report")?,
            want_cache: flag("cache")?,
            want_timing: flag("timing")?,
        }),
    })
}

/// Overlay a request object's fields onto the daemon defaults, each
/// through [`CompileRequest::set`], the setter behind the CLI flags too.
/// A value of the wrong type or range is a 400; a spelling the field does
/// not know is the 422 of its [`RequestError`].
fn apply_overrides(mut req: CompileRequest, obj: &Json) -> Result<CompileRequest, ServeError> {
    let Json::Obj(members) = obj else {
        return Err(ServeError::bad_request("\"request\" must be a JSON object"));
    };
    for (key, value) in members {
        let set_value = match value {
            Json::Null => SetValue::Null,
            Json::Bool(b) => SetValue::Bool(*b),
            Json::Str(s) => SetValue::Str(s),
            v => v.as_u64().map_or(SetValue::Other, SetValue::Int),
        };
        // `deny_warnings` can fail a compile but is outside the cache
        // signature, so the wire does not take it (DESIGN.md §11).
        let set = match key.as_str() {
            "deny_warnings" => Err(SetError::UnknownKey),
            _ => req.set(key, set_value),
        };
        set.map_err(|e| match e {
            SetError::UnknownKey => {
                ServeError::bad_request(format!("unknown compile-request field {key:?}"))
            }
            SetError::Invalid(e) => ServeError::invalid_request(&e),
            e => ServeError::bad_request(format!("field {key:?} {e}, got {value}")),
        })?;
    }
    Ok(req)
}

/// A response line under construction: members render in insertion
/// order, starting with the fixed `v` / `id` / `ok` prefix.
pub struct ResponseBuilder {
    buf: String,
}

impl ResponseBuilder {
    /// Start a response echoing `id`.
    pub fn new(id: &Json, ok: bool) -> Self {
        let mut buf = String::with_capacity(256);
        let _ = write!(buf, "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"ok\":{ok}");
        ResponseBuilder { buf }
    }

    /// Append a pre-rendered JSON value under `key`.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        let _ = write!(self.buf, ",\"{}\":{json}", escape(key));
        self
    }

    /// Append a string member.
    pub fn str(self, key: &str, value: &str) -> Self {
        let quoted = format!("\"{}\"", escape(value));
        self.raw(key, &quoted)
    }

    /// Append an integer member.
    pub fn num(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    /// Close the object; the result is one response line (no newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render the error response for `err`.
pub fn error_response(id: &Json, err: &ServeError) -> String {
    let mut body = format!(
        "{{\"code\":{},\"kind\":\"{}\",\"message\":\"{}\"",
        err.code,
        escape(&err.kind),
        escape(&err.message)
    );
    if let Some(ms) = err.retry_after_ms {
        let _ = write!(body, ",\"retry_after_ms\":{ms}");
    }
    body.push('}');
    ResponseBuilder::new(id, false).raw("error", &body).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_driver::{FailMode, PipelineSpec};

    #[test]
    fn parses_a_minimal_compile_request() {
        let req = parse_request(
            r#"{"v":1,"id":7,"verb":"compile","source":"fn f(x){ return x; }"}"#,
            &CompileRequest::new(),
        )
        .unwrap();
        assert_eq!(req.id, Json::Num(7.0));
        assert_eq!(req.verb, Verb::Compile);
        let body = req.compile.unwrap();
        assert_eq!(body.lang, Lang::MiniLang);
        assert_eq!(body.req, CompileRequest::new());
        assert!(!body.want_report && !body.want_cache);
    }

    #[test]
    fn overrides_share_the_cli_spellings() {
        let req = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"pipeline":"briggs-star","fold":false,"fail_mode":"degrade","fuel":100,"jobs":4}}"#,
            &CompileRequest::new(),
        )
        .unwrap();
        let body = req.compile.unwrap();
        assert_eq!(body.req.pipeline, PipelineSpec::BriggsStar);
        assert!(!body.req.fold);
        assert_eq!(body.req.fail_mode, FailMode::Degrade);
        assert_eq!(body.req.fuel, Some(100));
        assert_eq!(body.req.jobs, 4);
    }

    #[test]
    fn k_registers_rides_the_wire_and_validates() {
        let req = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"k_registers":4}}"#,
            &CompileRequest::new(),
        )
        .unwrap();
        assert_eq!(req.compile.unwrap().req.k_registers, Some(4));
        let e = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"k_registers":1}}"#,
            &CompileRequest::new(),
        )
        .unwrap_err();
        assert_eq!((e.code, e.kind.as_str()), (422, "k-registers-too-few"));
        // Above u32::MAX is a 400 naming the key and the value sent, not
        // a k truncated to its low 32 bits.
        for sent in ["4294967296", "4294967297", "4294967298"] {
            let e = parse_request(
                &format!(
                    r#"{{"v":1,"verb":"compile","source":"","request":{{"k_registers":{sent}}}}}"#
                ),
                &CompileRequest::new(),
            )
            .unwrap_err();
            assert_eq!((e.code, e.kind.as_str()), (400, "bad-request"), "{sent}");
            assert_eq!(
                e.message,
                format!("field \"k_registers\" must be at most 4294967295, got {sent}")
            );
        }
    }

    #[test]
    fn version_and_verb_are_enforced() {
        let defaults = CompileRequest::new();
        let e = parse_request(r#"{"verb":"ping"}"#, &defaults).unwrap_err();
        assert_eq!((e.code, e.kind.as_str()), (400, "bad-request"));
        let e = parse_request(r#"{"v":2,"verb":"ping"}"#, &defaults).unwrap_err();
        assert_eq!(e.kind, "unsupported-version");
        let e = parse_request(r#"{"v":1,"verb":"dance"}"#, &defaults).unwrap_err();
        assert_eq!(e.kind, "unknown-verb");
        let e = parse_request("{nope", &defaults).unwrap_err();
        assert_eq!(e.kind, "malformed-json");
    }

    #[test]
    fn validation_errors_surface_as_422_with_typed_kinds() {
        let e = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"pipeline":"briggs-star"}}"#,
            &CompileRequest::new(),
        )
        .unwrap_err();
        assert_eq!((e.code, e.kind.as_str()), (422, "briggs-needs-no-fold"));
        assert!(e.message.contains("--no-fold"));
        let e = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"pipeline":"fancy"}}"#,
            &CompileRequest::new(),
        )
        .unwrap_err();
        assert_eq!((e.code, e.kind.as_str()), (422, "unknown-pipeline"));
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        let e = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"optimize":true}}"#,
            &CompileRequest::new(),
        )
        .unwrap_err();
        assert!(e.message.contains("optimize"));
        // deny_warnings can fail a compile but is not in the cache
        // signature: the wire must not take it.
        let e = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"deny_warnings":true}}"#,
            &CompileRequest::new(),
        )
        .unwrap_err();
        assert_eq!((e.code, e.kind.as_str()), (400, "bad-request"));
        assert_eq!(e.message, "unknown compile-request field \"deny_warnings\"");
        let e = parse_request(
            r#"{"v":1,"verb":"stats","source":"x"}"#,
            &CompileRequest::new(),
        )
        .unwrap_err();
        assert!(e.message.contains("only valid with verb"));
    }

    #[test]
    fn deadline_ms_rides_the_wire_and_is_nullable() {
        let req = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"deadline_ms":250}}"#,
            &CompileRequest::new(),
        )
        .unwrap();
        assert_eq!(req.compile.unwrap().req.deadline_ms, Some(250));
        // null clears a daemon-level default.
        let defaults = CompileRequest::new().deadline_ms(Some(5));
        let req = parse_request(
            r#"{"v":1,"verb":"compile","source":"","request":{"deadline_ms":null}}"#,
            &defaults,
        )
        .unwrap();
        assert_eq!(req.compile.unwrap().req.deadline_ms, None);
    }

    #[test]
    fn overload_and_deadline_errors_carry_their_contracts() {
        let e = ServeError::overloaded(300);
        assert_eq!((e.code, e.kind.as_str()), (503, "overloaded"));
        let line = error_response(&Json::Null, &e);
        let doc = json::parse(&line).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(300));

        let e = ServeError::deadline_exceeded("budget 10ms");
        assert_eq!((e.code, e.kind.as_str()), (504, "deadline-exceeded"));
        assert!(e.retry_after_ms.is_none());
        let line = error_response(&Json::Null, &e);
        assert!(
            !line.contains("retry_after_ms"),
            "retry hint is 503-only: {line}"
        );

        let e = ServeError::line_too_long(1024);
        assert_eq!((e.code, e.kind.as_str()), (400, "line-too-long"));
        assert!(e.message.contains("1024"));
    }

    #[test]
    fn responses_echo_ids_and_render_errors() {
        let id = Json::Str("req-1".to_string());
        let line = error_response(&id, &ServeError::parse_error("bad token"));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("req-1"));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("parse-error"));
    }
}
