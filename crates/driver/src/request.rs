//! `CompileRequest` — the one description of a compilation.
//!
//! Before this module, "how to compile" was scattered across four
//! surfaces that could drift apart: `CompileConfig` (the per-function
//! pipeline knobs), `FaultPolicy` (failure disposition + fuel), the
//! `--jobs` width passed positionally, and the report `--format` string
//! parsed ad hoc by the CLI — all four deleted now that every caller
//! speaks [`CompileRequest`], one builder-style value that is
//! simultaneously:
//!
//! * the **library entry point** — [`compile_module`]`(module, &req)`
//!   replaces the old `compile_module` / `compile_module_guarded` /
//!   `compile_with_ladder` trio, with guarded/ladder behaviour selected
//!   by [`CompileRequest::fail_mode`], not by which function you call;
//! * the **CLI flag target** and the **protocol body** — `fcc`'s request
//!   flags and the members of a serve protocol `"request"` object set
//!   fields through one keyed setter, [`CompileRequest::set`];
//! * the **cache-key input** — [`CompileRequest::cache_signature`] is
//!   the canonical spelling hashed into the serve daemon's
//!   content-addressed function cache (only fields that can change the
//!   output participate; `jobs` and `format` are display concerns).
//!
//! Preconditions are data, not stringly errors: [`CompileRequest::validate`]
//! returns a typed [`RequestError`], so the serve daemon can reject a
//! bad request as a 4xx-style protocol error before any worker spawns.
//!
//! Everything parses and prints through one shared [`FromStr`]/
//! [`Display`] pair per enum ([`PipelineSpec`], [`FailMode`],
//! [`ReportFormat`]) — the CLI, the wire protocol, and the cache key
//! cannot disagree about spellings, and [`CompileRequest::set`] range-checks
//! every integer into its field's type for both.

use std::fmt;
use std::num::IntErrorKind;
use std::str::FromStr;

use fcc_ir::{Function, Module};

use crate::compile::PipelineSpec;
use crate::pool::par_map;
use crate::recover::{BatchOutcome, FailMode, FunctionReport};

/// Where a report is rendered: the CLI `--format` flag, the serve
/// protocol's `format` field, and the outcome-table renderers all speak
/// this enum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReportFormat {
    /// Fixed-width tables for humans.
    #[default]
    Text,
    /// A JSON document for tooling.
    Json,
}

impl ReportFormat {
    /// The canonical spelling (also what [`Display`] prints).
    pub fn label(self) -> &'static str {
        match self {
            ReportFormat::Text => "text",
            ReportFormat::Json => "json",
        }
    }
}

impl fmt::Display for ReportFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ReportFormat {
    type Err = RequestError;

    fn from_str(s: &str) -> Result<Self, RequestError> {
        match s {
            "text" => Ok(ReportFormat::Text),
            "json" => Ok(ReportFormat::Json),
            other => Err(RequestError::UnknownFormat(other.to_string())),
        }
    }
}

/// A request that cannot be compiled as written. The typed counterpart
/// of the stringly precondition errors the entry points used to return:
/// the serve daemon maps each variant to a 4xx-style protocol error
/// (`kind` = [`RequestError::kind`]) before spawning any worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// `--pipeline` value not in the canonical set.
    UnknownPipeline(String),
    /// `--fail-mode` value not in the canonical set.
    UnknownFailMode(String),
    /// `--format` value not in the canonical set.
    UnknownFormat(String),
    /// The briggs pipelines destruct by φ-web unioning, which requires
    /// copies kept un-folded (webs must be interference-free).
    BriggsNeedsNoFold(PipelineSpec),
    /// `--k-registers` below 2: a binary instruction needs two operand
    /// registers at once even after maximal spilling.
    KRegistersTooFew(u32),
}

impl RequestError {
    /// Stable machine-readable discriminant (the protocol's error
    /// `kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            RequestError::UnknownPipeline(_) => "unknown-pipeline",
            RequestError::UnknownFailMode(_) => "unknown-fail-mode",
            RequestError::UnknownFormat(_) => "unknown-format",
            RequestError::BriggsNeedsNoFold(_) => "briggs-needs-no-fold",
            RequestError::KRegistersTooFew(_) => "k-registers-too-few",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnknownPipeline(s) => write!(
                f,
                "unknown pipeline {s:?} (expected new, standard, briggs, or briggs-star)"
            ),
            RequestError::UnknownFailMode(s) => write!(
                f,
                "unknown fail mode {s:?} (expected abort, skip, or degrade)"
            ),
            RequestError::UnknownFormat(s) => {
                write!(f, "unknown report format {s:?} (expected text or json)")
            }
            RequestError::BriggsNeedsNoFold(p) => write!(
                f,
                "the {p} pipeline needs --no-fold (phi webs must be interference-free)"
            ),
            RequestError::KRegistersTooFew(k) => write!(
                f,
                "--k-registers {k} is too few: a binary op needs two operand registers \
                 even after maximal spilling"
            ),
        }
    }
}

impl std::error::Error for RequestError {}

/// A value for [`CompileRequest::set`]: typed, as a protocol line
/// carries it, or the text of a command-line argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetValue<'a> {
    /// `null`: clears an optional field.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A string, spelled as the field's type parses it.
    Str(&'a str),
    /// Any other protocol value (a negative, fractional or too-large
    /// number, an array, an object): no field takes one.
    Other,
    /// A command-line argument, parsed as the field's type.
    Arg(&'a str),
}

/// Why [`CompileRequest::set`] refused a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetError {
    /// No request field has this key.
    UnknownKey,
    /// The value is not of the field's type, named here (`"a bool"`).
    WrongType(&'static str),
    /// An integer above the field's largest value, given here.
    TooLarge(u64),
    /// A string the field's type does not spell.
    Invalid(RequestError),
}

impl fmt::Display for SetError {
    /// The refusal as a predicate on the field ("must be a bool"); each
    /// surface names the field and shows the value in its own spelling.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetError::UnknownKey => f.write_str("is not a compile-request field"),
            SetError::WrongType(ty) => write!(f, "must be {ty}"),
            SetError::TooLarge(max) => write!(f, "must be at most {max}"),
            SetError::Invalid(e) => e.fmt(f),
        }
    }
}

impl SetValue<'_> {
    fn bool(self) -> Result<bool, SetError> {
        match self {
            SetValue::Bool(b) => Ok(b),
            _ => Err(SetError::WrongType("a bool")),
        }
    }

    fn spelled<T: FromStr<Err = RequestError>>(self) -> Result<T, SetError> {
        match self {
            SetValue::Str(s) | SetValue::Arg(s) => s.parse().map_err(SetError::Invalid),
            _ => Err(SetError::WrongType("a string")),
        }
    }

    /// A non-negative integer that fits `T` (every integer field is
    /// unsigned and at most 64 bits wide).
    fn int<T: TryFrom<u64>>(self) -> Result<T, SetError> {
        let too_large = || SetError::TooLarge(u64::MAX >> (64 - 8 * std::mem::size_of::<T>()));
        let not_int = SetError::WrongType("a non-negative integer");
        let n = match self {
            SetValue::Int(n) => n,
            SetValue::Arg(s) => match s.parse::<u64>() {
                Ok(n) => n,
                Err(e) if *e.kind() == IntErrorKind::PosOverflow => return Err(too_large()),
                Err(_) => return Err(not_int),
            },
            _ => return Err(not_int),
        };
        T::try_from(n).map_err(|_| too_large())
    }

    /// `null` clears an optional field; anything else must be an integer.
    fn optional_int<T: TryFrom<u64>>(self) -> Result<Option<T>, SetError> {
        match self {
            SetValue::Null => Ok(None),
            v => v.int().map(Some),
        }
    }
}

/// Everything a compilation needs to know, in one place.
///
/// Construct with the builder methods and finish with
/// [`CompileRequest::validate`] (the batch entry point validates again,
/// so a hand-assembled struct literal is also safe):
///
/// ```
/// use fcc_driver::{compile_module, CompileRequest, FailMode};
///
/// let req = CompileRequest::new()
///     .opt(true)
///     .fail_mode(FailMode::Degrade)
///     .jobs(2);
/// let module = fcc_frontend::compile_module("fn a(x) { return x + 1; }").unwrap();
/// let batch = compile_module(module, &req).unwrap();
/// assert_eq!(batch.counts(), (1, 0, 0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileRequest {
    /// Which destruction pipeline to run.
    pub pipeline: PipelineSpec,
    /// Fold copies while building SSA.
    pub fold: bool,
    /// Run the optimiser pipeline on the SSA (briggs pipelines get the
    /// copy-preserving variant).
    pub opt: bool,
    /// Lint between phases and audit the destruction trace.
    pub verify_each: bool,
    /// Simplify the CFG after destruction.
    pub simplify: bool,
    /// Compile under a hard k-register bound: spill the SSA form down to
    /// pressure ≤ k (cost-guided), destruct, allocate with exactly `k`
    /// colours, and certify the result with the feasibility auditor.
    pub k_registers: Option<u32>,
    /// What to do when a function's compile fails.
    pub fail_mode: FailMode,
    /// Per-attempt fuel budget; `None` = unlimited (counting only).
    pub fuel: Option<u64>,
    /// Wall-clock deadline for the whole request in milliseconds;
    /// `None` = no deadline. Enforced at the same checkpoints as fuel
    /// (every function of the batch shares one absolute deadline fixed
    /// when the batch starts). Deliberately **outside** the cache
    /// signature: whether a compile beats the clock depends on machine
    /// load, not on the input, so a deadline can never select a
    /// different cached answer — and deadline-failed results are never
    /// cached at all (see [`FunctionReport::hit_deadline`]).
    pub deadline_ms: Option<u64>,
    /// Worker threads for batch compilation (`0` = available
    /// parallelism). Never affects output, only wall time.
    pub jobs: usize,
    /// How reports are rendered. Never affects compiled output.
    pub format: ReportFormat,
    /// Treat `--verify-each` lint warnings as compile failures. Under
    /// `verify_each` this can fail a function that compiles without it,
    /// yet it is outside [`cache_signature`](Self::cache_signature). That
    /// is safe only because nothing that caches takes it: the serve
    /// protocol rejects the key and `fcc serve` has no flag for it.
    pub deny_warnings: bool,
}

impl Default for CompileRequest {
    fn default() -> Self {
        CompileRequest {
            pipeline: PipelineSpec::New,
            fold: true,
            opt: false,
            verify_each: false,
            simplify: false,
            k_registers: None,
            fail_mode: FailMode::Abort,
            fuel: None,
            deadline_ms: None,
            jobs: 0,
            format: ReportFormat::Text,
            deny_warnings: false,
        }
    }
}

impl CompileRequest {
    /// The default request: `new` pipeline, folding on, everything else
    /// off, abort on failure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the destruction pipeline.
    pub fn pipeline(mut self, p: PipelineSpec) -> Self {
        self.pipeline = p;
        self
    }

    /// Fold copies during SSA construction (`--no-fold` = `fold(false)`).
    pub fn fold(mut self, on: bool) -> Self {
        self.fold = on;
        self
    }

    /// Run the optimiser pipeline.
    pub fn opt(mut self, on: bool) -> Self {
        self.opt = on;
        self
    }

    /// Lint between phases and audit destruction.
    pub fn verify_each(mut self, on: bool) -> Self {
        self.verify_each = on;
        self
    }

    /// Simplify the CFG after destruction.
    pub fn simplify(mut self, on: bool) -> Self {
        self.simplify = on;
        self
    }

    /// Compile under a hard k-register bound (spill → allocate → audit).
    pub fn k_registers(mut self, k: Option<u32>) -> Self {
        self.k_registers = k;
        self
    }

    /// Failure disposition (abort / skip / degrade).
    pub fn fail_mode(mut self, m: FailMode) -> Self {
        self.fail_mode = m;
        self
    }

    /// Per-attempt fuel budget.
    pub fn fuel(mut self, fuel: Option<u64>) -> Self {
        self.fuel = fuel;
        self
    }

    /// Wall-clock deadline for the whole request, in milliseconds.
    pub fn deadline_ms(mut self, ms: Option<u64>) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Worker threads (`0` = available parallelism).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Report rendering format.
    pub fn format(mut self, f: ReportFormat) -> Self {
        self.format = f;
        self
    }

    /// Promote `--verify-each` lint warnings to compile failures.
    pub fn deny_warnings(mut self, on: bool) -> Self {
        self.deny_warnings = on;
        self
    }

    /// Set the field named by its protocol key — the one way the CLI and
    /// the serve protocol write a request. Integers are range-checked
    /// into the field's type; enum spellings go through their `FromStr`.
    /// Preconditions across fields are [`validate`](Self::validate)'s.
    pub fn set(&mut self, key: &str, value: SetValue<'_>) -> Result<(), SetError> {
        match key {
            "pipeline" => self.pipeline = value.spelled()?,
            "fold" => self.fold = value.bool()?,
            "opt" => self.opt = value.bool()?,
            "verify_each" => self.verify_each = value.bool()?,
            "simplify" => self.simplify = value.bool()?,
            "k_registers" => self.k_registers = value.optional_int()?,
            "fail_mode" => self.fail_mode = value.spelled()?,
            "fuel" => self.fuel = value.optional_int()?,
            "deadline_ms" => self.deadline_ms = value.optional_int()?,
            "jobs" => self.jobs = value.int()?,
            "format" => self.format = value.spelled()?,
            "deny_warnings" => self.deny_warnings = value.bool()?,
            _ => return Err(SetError::UnknownKey),
        }
        Ok(())
    }

    /// Check the request's preconditions, returning the first violation
    /// as a typed error.
    ///
    /// This is where the briggs-needs-`--no-fold` rule lives now: the
    /// serve daemon rejects an invalid request at the protocol boundary,
    /// and the batch entry point re-checks before any worker spawns.
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.pipeline.needs_no_fold() && self.fold {
            return Err(RequestError::BriggsNeedsNoFold(self.pipeline));
        }
        if let Some(k) = self.k_registers.filter(|&k| k < 2) {
            return Err(RequestError::KRegistersTooFew(k));
        }
        Ok(())
    }

    /// The canonical cache-key spelling of every field that can change
    /// compiled output. `jobs` and `format` are deliberately absent
    /// (parallelism and rendering never change bytes), and so is
    /// `deadline_ms` — a deadline changes *whether* a result is
    /// produced in time, never *which* result, and results that missed
    /// the deadline are excluded from caching rather than keyed; a
    /// schema revision is prepended by the cache itself so key layout
    /// changes invalidate cleanly.
    pub fn cache_signature(&self) -> String {
        format!(
            "pipeline={} fold={} opt={} verify={} simplify={} k={} fail={} fuel={}",
            self.pipeline,
            self.fold,
            self.opt,
            self.verify_each,
            self.simplify,
            match self.k_registers {
                Some(k) => k.to_string(),
                None => "-".to_string(),
            },
            self.fail_mode,
            match self.fuel {
                Some(n) => n.to_string(),
                None => "-".to_string(),
            },
        )
    }
}

/// Compile one function per the request: a contained, ladder-retried
/// attempt sequence whose shape depends only on the function and the
/// request (never on sibling functions or worker scheduling).
///
/// This is the per-function unit behind [`compile_module`]; the serve
/// daemon also calls it directly for cache misses. Deadline enforcement
/// is the *caller's* concern — batch entry points fix one absolute
/// [`fcc_analysis::Deadline`] per request (see [`request_deadline`]) and
/// install it around this call on each worker thread.
pub fn compile_function_report(func: &Function, req: &CompileRequest) -> FunctionReport {
    crate::recover::run_ladder(func, req)
}

/// Fix the request's wall-clock deadline as an absolute instant, *now*.
/// Call once when the batch starts and install the result around every
/// per-function compile with [`fcc_analysis::fuel::with_deadline`], so
/// all functions of a request race the same clock.
pub fn request_deadline(req: &CompileRequest) -> Option<fcc_analysis::Deadline> {
    req.deadline_ms.map(fcc_analysis::Deadline::after_ms)
}

/// Compile every function of `module` per the request — **the** batch
/// entry point.
///
/// Failure handling is selected by [`CompileRequest::fail_mode`], not by
/// which function you call:
///
/// * [`FailMode::Abort`] — the returned [`BatchOutcome`] still records
///   every function; callers that want abort-on-first-error check
///   [`BatchOutcome::first_error`];
/// * [`FailMode::Skip`] — failed functions are quarantined;
/// * [`FailMode::Degrade`] — failed functions retry down the
///   degradation ladder before quarantine.
///
/// # Errors
/// Only [`CompileRequest::validate`] failures — compilation itself is
/// total; per-function failure is data in the outcome.
pub fn compile_module(module: Module, req: &CompileRequest) -> Result<BatchOutcome, RequestError> {
    req.validate()?;
    let deadline = request_deadline(req);
    let funcs = module.into_functions();
    let (functions, timing) = par_map(funcs.len(), req.jobs, |i| {
        fcc_analysis::fuel::with_deadline(deadline, || compile_function_report(&funcs[i], req))
    });
    Ok(BatchOutcome { functions, timing })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_briggs_with_folding_typed() {
        let req = CompileRequest::new().pipeline(PipelineSpec::Briggs);
        let err = req.validate().unwrap_err();
        assert_eq!(err.kind(), "briggs-needs-no-fold");
        assert!(err.to_string().contains("--no-fold"));
        assert!(req.fold(false).validate().is_ok());
    }

    #[test]
    fn validate_rejects_too_few_k_registers() {
        for k in [0, 1] {
            let err = CompileRequest::new()
                .k_registers(Some(k))
                .validate()
                .unwrap_err();
            assert_eq!(err, RequestError::KRegistersTooFew(k));
            assert_eq!(err.kind(), "k-registers-too-few");
        }
        assert!(CompileRequest::new()
            .k_registers(Some(2))
            .validate()
            .is_ok());
    }

    #[test]
    fn set_range_checks_integers_into_each_fields_type() {
        let mut req = CompileRequest::new();
        let too_large = SetError::TooLarge(u32::MAX.into());
        let above = u64::from(u32::MAX) + 1;
        assert_eq!(
            req.set("k_registers", SetValue::Int(above)),
            Err(too_large.clone())
        );
        assert_eq!(
            req.set("k_registers", SetValue::Arg("4294967298")),
            Err(too_large)
        );
        assert_eq!(
            req.set("fuel", SetValue::Arg("18446744073709551616")),
            Err(SetError::TooLarge(u64::MAX))
        );
        assert_eq!(req.k_registers, None, "a refused value leaves the field");
        req.set("k_registers", SetValue::Int(u32::MAX.into()))
            .unwrap();
        assert_eq!(req.k_registers, Some(u32::MAX));
        req.set("k_registers", SetValue::Null).unwrap();
        assert_eq!(req.k_registers, None);
        let not_int = Err(SetError::WrongType("a non-negative integer"));
        assert_eq!(req.set("jobs", SetValue::Null), not_int);
        assert_eq!(req.set("k_registers", SetValue::Arg("-1")), not_int);
        assert_eq!(req.set("fuel", SetValue::Other), not_int);
    }

    #[test]
    fn set_takes_protocol_values_and_arguments_alike() {
        let mut by_value = CompileRequest::new();
        let mut by_arg = CompileRequest::new();
        for (key, text) in [
            ("pipeline", "briggs"),
            ("fail_mode", "degrade"),
            ("format", "json"),
            ("k_registers", "4"),
            ("fuel", "900"),
            ("deadline_ms", "60"),
            ("jobs", "3"),
        ] {
            let value = match text.parse() {
                Ok(n) => SetValue::Int(n),
                Err(_) => SetValue::Str(text),
            };
            by_value.set(key, value).unwrap();
            by_arg.set(key, SetValue::Arg(text)).unwrap();
        }
        assert_eq!(by_arg, by_value);
        for key in ["opt", "verify_each", "simplify", "deny_warnings"] {
            by_value.set(key, SetValue::Bool(true)).unwrap();
        }
        by_value.set("fold", SetValue::Bool(false)).unwrap();
        let built = CompileRequest::new()
            .pipeline(PipelineSpec::Briggs)
            .fold(false)
            .opt(true)
            .verify_each(true)
            .simplify(true)
            .k_registers(Some(4))
            .fail_mode(FailMode::Degrade)
            .fuel(Some(900))
            .deadline_ms(Some(60))
            .jobs(3)
            .format(ReportFormat::Json)
            .deny_warnings(true);
        assert_eq!(by_value, built);
        assert_eq!(
            by_value.set("pipeline", SetValue::Arg("fancy")),
            Err(SetError::Invalid(RequestError::UnknownPipeline(
                "fancy".into()
            )))
        );
        assert_eq!(
            by_value.set("opt", SetValue::Arg("true")),
            Err(SetError::WrongType("a bool"))
        );
        assert_eq!(
            by_value.set("optimize", SetValue::Bool(true)),
            Err(SetError::UnknownKey)
        );
    }

    #[test]
    fn cache_signature_covers_k_registers() {
        let plain = CompileRequest::new();
        let k4 = CompileRequest::new().k_registers(Some(4));
        let k8 = CompileRequest::new().k_registers(Some(8));
        assert_ne!(plain.cache_signature(), k4.cache_signature());
        assert_ne!(k4.cache_signature(), k8.cache_signature());
    }

    #[test]
    fn cache_signature_ignores_jobs_and_format() {
        let a = CompileRequest::new().jobs(1).format(ReportFormat::Text);
        let b = CompileRequest::new().jobs(8).format(ReportFormat::Json);
        assert_eq!(a.cache_signature(), b.cache_signature());
        let c = CompileRequest::new().opt(true);
        assert_ne!(a.cache_signature(), c.cache_signature());
    }

    #[test]
    fn entry_point_validates_before_spawning() {
        let module = fcc_frontend::compile_module("fn a(x) { return x; }").unwrap();
        let req = CompileRequest::new().pipeline(PipelineSpec::Briggs);
        assert_eq!(
            compile_module(module, &req).unwrap_err().kind(),
            "briggs-needs-no-fold"
        );
    }

    #[test]
    fn cache_signature_ignores_the_deadline() {
        let a = CompileRequest::new();
        let b = CompileRequest::new().deadline_ms(Some(1));
        assert_eq!(a.cache_signature(), b.cache_signature());
    }

    #[test]
    fn an_expired_deadline_fails_the_batch_with_a_typed_error() {
        let module =
            fcc_frontend::compile_module("fn a(x) { return x + 1; } fn b(y) { return y * 2; }")
                .unwrap();
        let req = CompileRequest::new().deadline_ms(Some(0));
        let batch = compile_module(module, &req).unwrap();
        assert_eq!(batch.counts(), (0, 0, 2));
        for f in &batch.functions {
            assert!(f.hit_deadline());
            assert_eq!(f.attempts.len(), 1);
        }
        let (_, err) = batch.first_error().unwrap();
        assert_eq!(err.kind(), "deadline");
        assert!(err.to_string().contains("budget 0ms"));
    }

    #[test]
    fn fail_mode_selects_the_ladder() {
        // One batch entry point, three behaviours: the briggs check above
        // covers abort; here degrade recovers a function that the
        // requested pipeline cannot compile (injection-free: fuel 1 makes
        // every rung's first checkpoint trip, so all rungs fail).
        let module = fcc_frontend::compile_module("fn a(x) { return x + 1; }").unwrap();
        let req = CompileRequest::new()
            .fail_mode(FailMode::Degrade)
            .fuel(Some(1));
        let batch = compile_module(module, &req).unwrap();
        assert_eq!(batch.counts(), (0, 0, 1));
        assert_eq!(batch.functions[0].attempts.len(), 3, "all rungs tried");
    }
}
