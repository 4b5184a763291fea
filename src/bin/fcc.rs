//! `fcc` — the command-line driver.
//!
//! Compiles MiniLang source (one function or a whole multi-function
//! module, or named benchmark kernels) through a selectable
//! SSA-destruction pipeline and prints the result, the statistics, or an
//! execution. Modules are batch-compiled on a worker pool (`--jobs`),
//! with byte-identical output at any width.
//!
//! ```text
//! Usage: fcc [build] <file.ml | kernel:NAME | kernel:* | -> [options]
//!
//!   --pipeline P    new (default) | standard | briggs | briggs-star
//!   --no-fold       do not fold copies during SSA construction
//!   --opt           run the optimiser pipeline on the SSA (the briggs
//!                   pipelines get the copy-preserving variant: copy
//!                   propagation would re-fold copies into φ webs)
//!   --verify-each   run the fcc-lint suite between phases; the first
//!                   error aborts and names the offending phase/pass
//!   --deny-warnings promote --verify-each lint warnings to compile
//!                   failures (never changes compiled output)
//!   --simplify      simplify the CFG after destruction
//!   --alloc K       colour with K registers after destruction
//!   --k-registers K compile under a hard K-register bound: spill the
//!                   SSA form down to pressure <= K (cost-guided, loop-
//!                   depth-weighted victims), destruct, allocate with
//!                   exactly K colours, and certify the result with the
//!                   feasibility auditor (implies allocation; K >= 2)
//!   --jobs N        compile module functions on N threads (0 = auto,
//!                   the default); output is independent of N
//!   --fail-mode M   abort (default) | skip | degrade — what to do when
//!                   a function's compile fails (panic, fuel stop, or
//!                   verifier rejection): abort the batch naming the
//!                   offending pass, quarantine the function, or retry
//!                   it down the degradation ladder (new → standard →
//!                   bare SSA destruction, recovery rungs fully
//!                   verified); functions still failing are quarantined,
//!                   shrunk to .ml repros, and fail the exit code
//!   --fuel N        per-attempt step budget for the iterative
//!                   algorithms; exhaustion is a recoverable failure
//!                   naming the spinning pass
//!   --repro-dir DIR where quarantined functions' shrunk repros are
//!                   written (default .)
//!   --emit STAGE    print IR at: cfg | ssa | final (default: final)
//!   --run ARGS      execute the final code, ARGS comma-separated
//!   --entry NAME    which function --run executes (default: the only
//!                   one; required for multi-function modules)
//!   --stats         print phase statistics
//!   --report        print the per-phase pipeline report (time, peak
//!                   bytes, analysis-cache hits/misses) and the
//!                   per-function outcome table (ok/recovered/failed,
//!                   attempts, fuel spent)
//!   --format F      text (default) | json — outcome-table format
//!   --inject-panic PASS        (testing) panic at entry to PASS
//!   --inject-solver-spin       (testing) make the dataflow solver spin
//!   --inject-verifier-violation PASS  (testing) corrupt the IR after PASS
//!   --list-kernels  list bundled kernels and exit
//! ```
//!
//! There is also a lint subcommand, which never prints IR — it drives
//! each function through CFG → SSA → destruction, runs the stage-matched
//! rule suite at each point plus the coalescing soundness audit, and
//! exits 1 on any error-severity finding:
//!
//! ```text
//! Usage: fcc lint <file.ml | kernel:NAME | kernel:* | -> [options]
//!
//!   --format F      text (default) | json
//!   --pipeline P    new (default) | new-cut | standard | sreedhar | briggs | briggs-star
//!   --no-fold       do not fold copies during SSA construction
//!   --opt           run (and verify) the optimiser pipeline on the SSA
//!   --jobs N        lint module functions on N threads (0 = auto)
//!   --deny-warnings promote warning findings to the failing exit code
//! ```
//!
//! An analyze subcommand: the `fcc-dataflow` sparse abstract
//! interpreter (SCCP, value ranges, known bits) over the SSA form,
//! printing per-value ranges and the safety report — including the
//! `fcc-alias` memory findings (`mem-oob-access`, `mem-uninit-load`,
//! `mem-dead-store`, `mem-overlapping-store`). Exit code 1 iff any
//! error-severity finding (with `--deny-warnings`, any finding at all):
//!
//! ```text
//! Usage: fcc analyze <file.ml | kernel:NAME | kernel:* | -> [options]
//!
//!   --format F      text (default) | json
//!   --no-fold       do not fold copies during SSA construction
//!   --opt           run the optimiser pipeline before analysing
//!   --jobs N        analyse module functions on N threads (0 = auto)
//!   --memory-words N  memory size for the out-of-bounds upper bound
//!                   (without it only negative addresses are provable)
//!   --deny-warnings promote warning findings to the failing exit code
//! ```
//!
//! A pressure subcommand: static register-pressure report per function —
//! MaxLive (per block and per function), the chordality certificate
//! proving MaxLive equals the chromatic number of the SSA interference
//! graph, loop-weighted spill-cost totals, and the stage-aware
//! `pressure-*` lint rules against a k-register target (the post-
//! destruction form is measured too, so the coalescing-aware rule sees
//! the code the allocator will). Exit code 1 iff any error-severity
//! finding (with `--deny-warnings`, any finding at all):
//!
//! ```text
//! Usage: fcc pressure <file.ml | kernel:NAME | kernel:* | -> [options]
//!
//!   --format F      text (default) | json
//!   --k N           register target for the pressure-* rules (default 8)
//!   --spill         also run both SSA-level spillers (spill-everywhere
//!                   and cost-guided) against the k target and report
//!                   spill/reload counts and the post-spill MaxLive
//!   --no-fold       do not fold copies during SSA construction
//!   --opt           run the optimiser pipeline before measuring
//!   --jobs N        process module functions on N threads (0 = auto)
//!   --deny-warnings promote warning findings to the failing exit code
//! ```
//!
//! And a fuzz subcommand: seeded generated programs through all three
//! pipeline families with a differential interpreter oracle and the
//! destruction soundness audit; failures are shrunk to a minimal
//! MiniLang repro file. Exit code 1 on any failure:
//!
//! ```text
//! Usage: fcc fuzz [options]
//!
//!   --seeds N        seeds to check (default 1000)
//!   --start N        first seed (default 0)
//!   --jobs N         worker threads (0 = auto, the default)
//!   --no-opt         skip the optimiser between SSA and destruction
//!   --shrink-budget N   max oracle evaluations per failure (default 4000)
//!   --fuel N         per-seed step budget; exhaustion is its own
//!                    shrinkable failure class
//!   --repro-dir DIR  where to write repro-<seed>.ml files (default .)
//!   --inject-phi-bug re-open a known φ-ordering miscompile (testing
//!                    the oracle and shrinker themselves)
//!   --inject-solver-spin  make the dataflow solver spin (with --fuel:
//!                    exercises the fuel failure class end to end)
//! ```
//!
//! A serve subcommand: the long-running compile service. One JSONL
//! request per stdin line, one response per stdout line (or per
//! connection line with `--socket`), with a content-addressed function
//! cache between requests so resubmitting a module recompiles only the
//! functions that changed (DESIGN.md §11 has the protocol reference,
//! §15 the durability design):
//!
//! ```text
//! Usage: fcc serve [options]
//!
//!   --pipeline / --no-fold / --opt / --verify-each / --simplify /
//!   --alloc / --fail-mode / --fuel / --jobs / --format
//!                   daemon-default compile request; each request line's
//!                   "request" object overrides field-by-field
//!   --deadline-ms N  default per-request wall-clock budget; overruns
//!                    answer 504 deadline-exceeded (overridable per
//!                    request, nullable with "deadline_ms": null)
//!   --cache-budget BYTES   function-cache byte budget (default 256 MiB)
//!   --cache-dir DIR  crash-safe persistent cache: entries survive
//!                    restarts, corrupt files are quarantined to
//!                    DIR/quarantine and re-compiled, the memory budget
//!                    bounds disk occupancy
//!   --socket PATH    listen on a Unix domain socket instead of stdio;
//!                    concurrent connections share one daemon and one
//!                    cache, responses stay byte-identical to stdio
//!   --max-queue N    compile requests admitted concurrently before
//!                    shedding with 503 overloaded (default 64; 0 sheds
//!                    every compile)
//!   --max-line-bytes N   request-line cap; longer lines answer
//!                    400 line-too-long (default 16 MiB)
//!   --inject-disk-fault torn-write|short-write|enospc|bit-flip
//!                    arm the disk-fault shim (the CI durability matrix)
//! ```
//!
//! And a bench-serve subcommand: the serve load generator. Replays a
//! seeded stream of mixed-size modules (with a configurable resubmission
//! ratio) against an in-process daemon and reports functions/sec,
//! p50/p99 latency, and cache hit rate:
//!
//! ```text
//! Usage: fcc bench-serve [options]
//!
//!   --modules N      distinct modules in the pool (default 200)
//!   --requests N     compile requests to replay (default 1000)
//!   --resubmit R     resubmission probability in [0,1] (default 0.75)
//!   --max-fns N      max functions per module (default 12)
//!   --seed S         RNG seed (default 42)
//!   --jobs N         worker threads per compile (0 = auto)
//!   --cache-budget BYTES   daemon cache budget (default 256 MiB)
//!   --out FILE       write the JSON report here (default: stdout)
//! ```
//!
//! Examples:
//!
//! ```text
//! fcc kernel:saxpy --stats --run 64,3
//! fcc kernel:* --opt --jobs 4 --report
//! echo 'fn f(x){ return x*2; }' | fcc - --emit ssa
//! fcc prog.ml --pipeline briggs-star --alloc 8 --run 10
//! fcc lint kernel:saxpy --opt --format json
//! fcc analyze prog.ml --format json --deny-warnings
//! fcc pressure kernel:* --opt --k 8 --format json
//! fcc fuzz --seeds 500 --jobs 2
//! echo '{"v":1,"verb":"compile","source":"fn f(x){ return x; }"}' | fcc serve
//! fcc bench-serve --requests 2000 --out BENCH_serve.json
//! ```

use std::io::{Read, Write};
use std::process::ExitCode;

use fcc::driver::{fuzz as run_fuzz, par_map, render_phases, FuzzConfig};
use fcc::ir::Module;
use fcc::prelude::*;

struct Options {
    input: String,
    pipeline: String,
    fold: bool,
    opt: bool,
    verify_each: bool,
    simplify: bool,
    alloc: Option<usize>,
    k_registers: Option<u32>,
    jobs: usize,
    fail_mode: FailMode,
    fuel: Option<u64>,
    repro_dir: String,
    emit: String,
    run: Option<Vec<i64>>,
    entry: Option<String>,
    stats: bool,
    report: bool,
    format: String,
    deny_warnings: bool,
    inject_panic: Option<String>,
    inject_spin: bool,
    inject_violation: Option<String>,
}

fn usage() -> &'static str {
    "usage: fcc [build] <file.ml | kernel:NAME | kernel:* | -> [--pipeline new|new-cut|standard|sreedhar|briggs|briggs-star] \
     [--no-fold] [--opt] [--verify-each] [--simplify] [--alloc K] [--k-registers K] [--jobs N] \
     [--fail-mode abort|skip|degrade] [--fuel N] [--repro-dir DIR] [--emit cfg|ssa|final] \
     [--run a,b,...] [--entry NAME] [--stats] [--report] [--format text|json] [--deny-warnings] \
     [--list-kernels] [--inject-panic PASS] [--inject-solver-spin] [--inject-verifier-violation PASS]\n       \
     fcc lint <file.ml | kernel:NAME | kernel:* | -> [--format text|json] [--pipeline P] [--no-fold] \
     [--opt] [--jobs N] [--deny-warnings]\n       \
     fcc analyze <file.ml | kernel:NAME | kernel:* | -> [--format text|json] [--no-fold] [--opt] \
     [--jobs N] [--memory-words N] [--deny-warnings]\n       \
     fcc pressure <file.ml | kernel:NAME | kernel:* | -> [--format text|json] [--k N] [--spill] \
     [--no-fold] [--opt] [--jobs N] [--deny-warnings]\n       \
     fcc fuzz [--seeds N] [--start N] [--jobs N] [--no-opt] [--shrink-budget N] [--fuel N] \
     [--repro-dir DIR] [--inject-phi-bug] [--inject-solver-spin]\n       \
     fcc serve [build options as daemon defaults] [--deadline-ms N] [--cache-budget BYTES] \
     [--cache-dir DIR] [--socket PATH] [--max-queue N] [--max-line-bytes N] \
     [--inject-disk-fault torn-write|short-write|enospc|bit-flip]\n       \
     fcc bench-serve [--modules N] [--requests N] [--resubmit R] [--max-fns N] [--seed S] \
     [--jobs N] [--cache-budget BYTES] [--out FILE]"
}

fn parse_args(raw: Vec<String>) -> Result<Options, String> {
    let mut args = raw.into_iter();
    let mut o = Options {
        input: String::new(),
        pipeline: "new".into(),
        fold: true,
        opt: false,
        verify_each: false,
        simplify: false,
        alloc: None,
        k_registers: None,
        jobs: 0,
        fail_mode: FailMode::Abort,
        fuel: None,
        repro_dir: ".".into(),
        emit: "final".into(),
        run: None,
        entry: None,
        stats: false,
        report: false,
        format: "text".into(),
        deny_warnings: false,
        inject_panic: None,
        inject_spin: false,
        inject_violation: None,
    };
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pipeline" => o.pipeline = need(&mut args, "--pipeline")?,
            "--no-fold" => o.fold = false,
            "--opt" => o.opt = true,
            "--verify-each" => o.verify_each = true,
            "--simplify" => o.simplify = true,
            "--alloc" => {
                o.alloc = Some(
                    need(&mut args, "--alloc")?
                        .parse()
                        .map_err(|e| format!("--alloc: {e}"))?,
                )
            }
            "--k-registers" => {
                o.k_registers = Some(
                    need(&mut args, "--k-registers")?
                        .parse()
                        .map_err(|e| format!("--k-registers: {e}"))?,
                )
            }
            "--jobs" => {
                o.jobs = need(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--fail-mode" => {
                let m = need(&mut args, "--fail-mode")?;
                o.fail_mode = m.parse().map_err(|e: RequestError| e.to_string())?
            }
            "--fuel" => {
                o.fuel = Some(
                    need(&mut args, "--fuel")?
                        .parse()
                        .map_err(|e| format!("--fuel: {e}"))?,
                )
            }
            "--repro-dir" => o.repro_dir = need(&mut args, "--repro-dir")?,
            "--format" => o.format = need(&mut args, "--format")?,
            "--inject-panic" => o.inject_panic = Some(need(&mut args, "--inject-panic")?),
            "--inject-solver-spin" => o.inject_spin = true,
            "--inject-verifier-violation" => {
                o.inject_violation = Some(need(&mut args, "--inject-verifier-violation")?)
            }
            "--emit" => o.emit = need(&mut args, "--emit")?,
            "--run" => {
                let list = need(&mut args, "--run")?;
                let vals: Result<Vec<i64>, _> = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect();
                o.run = Some(vals.map_err(|e| format!("--run: {e}"))?);
            }
            "--entry" => o.entry = Some(need(&mut args, "--entry")?),
            "--stats" => o.stats = true,
            "--deny-warnings" => o.deny_warnings = true,
            "--report" => o.report = true,
            "--list-kernels" => {
                for k in fcc::workloads::kernels() {
                    emit(format_args!("{:10} {}", k.name, k.description));
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if o.input.is_empty() && !other.starts_with('-') || other == "-" => {
                o.input = other.to_string();
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if o.input.is_empty() {
        return Err(usage().to_string());
    }
    Ok(o)
}

/// Print to stdout, ignoring a closed pipe (`fcc ... | head` must not
/// panic).
fn emit(text: impl std::fmt::Display) {
    let _ = writeln!(std::io::stdout(), "{text}");
}

fn load_source(input: &str) -> Result<String, String> {
    if let Some(name) = input.strip_prefix("kernel:") {
        if name == "*" {
            // The whole suite as one module — the batch driver's
            // standard workload.
            let all: Vec<&str> = fcc::workloads::kernels().iter().map(|k| k.source).collect();
            return Ok(all.join("\n\n"));
        }
        let k = fcc::workloads::kernel(name)
            .ok_or_else(|| format!("unknown kernel {name:?}; try --list-kernels"))?;
        return Ok(k.source.to_string());
    }
    if input == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| e.to_string())?;
        return Ok(s);
    }
    std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))
}

fn main() -> ExitCode {
    let sub = std::env::args().nth(1);
    if let Some(name @ ("lint" | "analyze" | "pressure" | "fuzz" | "serve" | "bench-serve")) =
        sub.as_deref()
    {
        let run = match name {
            "lint" => lint_main,
            "analyze" => analyze_main,
            "pressure" => pressure_main,
            "fuzz" => fuzz_main,
            "serve" => serve_main,
            _ => bench_serve_main,
        };
        return match run(std::env::args().skip(2).collect()) {
            Ok(clean) => {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("fcc {name}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // "build" is an optional explicit subcommand for the default action.
    let skip = if sub.as_deref() == Some("build") {
        2
    } else {
        1
    };
    match real_main(std::env::args().skip(skip).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fcc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `fcc lint`: drive every function through every stage on the worker
/// pool, run the stage-matched rule suite at each, and audit the
/// destruction run. Returns `Ok(false)` when any error-severity finding
/// was reported.
fn lint_main(args: Vec<String>) -> Result<bool, String> {
    let mut input = String::new();
    let mut format = "text".to_string();
    let mut pipeline = "new".to_string();
    let mut fold = true;
    let mut opt = false;
    let mut jobs = 0usize;
    let mut deny_warnings = false;
    let mut args = args.into_iter();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => format = need(&mut args, "--format")?,
            "--pipeline" => pipeline = need(&mut args, "--pipeline")?,
            "--no-fold" => fold = false,
            "--opt" => opt = true,
            "--jobs" => {
                jobs = need(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if input.is_empty() && !other.starts_with('-') || other == "-" => {
                input = other.to_string();
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if input.is_empty() {
        return Err(usage().to_string());
    }
    if !matches!(format.as_str(), "text" | "json") {
        return Err(format!("--format must be text or json, got {format}"));
    }
    // Same spelling + precondition rules as `fcc build` and the serve
    // protocol: parse through the shared FromStr, validate typed.
    let spec: PipelineSpec = pipeline.parse().map_err(|e: RequestError| e.to_string())?;
    let req = CompileRequest::new().pipeline(spec).fold(fold).opt(opt);
    req.validate().map_err(|e| e.to_string())?;

    let src = load_source(&input)?;
    let module = fcc::frontend::compile_module(&src)?;

    // Each worker lints one function with its own managers; results are
    // merged in module order, so the printed findings are independent of
    // --jobs.
    let funcs = module.into_functions();
    let (results, _timing) = par_map(funcs.len(), jobs, |i| lint_pipeline(funcs[i].clone(), &req));

    let mut clean = true;
    let mut emitted: Vec<(Function, Vec<LintReport>)> = Vec::new();
    for LintOutcome {
        func,
        mut reports,
        violation,
    } in results
    {
        if let Some(v) = violation {
            // The offending pass and its report; the report also fails
            // the run.
            eprintln!("fcc lint: @{}: {v}", func.name);
            clean = false;
            reports.push(v.report);
        }
        clean &= reports
            .iter()
            .all(|r| !r.has_errors() && (!deny_warnings || r.warning_count() == 0));
        emitted.push((func, reports));
    }
    if format == "json" {
        let objs: Vec<String> = emitted
            .iter()
            .flat_map(|(func, reports)| reports.iter().map(|r| r.render_json(func)))
            .collect();
        emit(format_args!("[{}]", objs.join(",")));
    } else {
        for (func, reports) in &emitted {
            for r in reports {
                emit(r.render_text(func));
            }
        }
    }
    Ok(clean)
}

/// `fcc analyze`: compile, build SSA (optionally optimise), run the
/// `fcc-dataflow` sparse analyses per function on the worker pool, and
/// print per-value ranges plus the safety report. Returns `Ok(false)`
/// when the findings warrant a failing exit code.
fn analyze_main(args: Vec<String>) -> Result<bool, String> {
    let mut input = String::new();
    let mut format = "text".to_string();
    let mut fold = true;
    let mut opt = false;
    let mut jobs = 0usize;
    let mut deny_warnings = false;
    let mut memory_words: Option<i64> = None;
    let mut args = args.into_iter();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => format = need(&mut args, "--format")?,
            "--no-fold" => fold = false,
            "--opt" => opt = true,
            "--jobs" => {
                jobs = need(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--memory-words" => {
                memory_words = Some(
                    need(&mut args, "--memory-words")?
                        .parse()
                        .map_err(|e| format!("--memory-words: {e}"))?,
                )
            }
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if input.is_empty() && !other.starts_with('-') || other == "-" => {
                input = other.to_string();
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if input.is_empty() {
        return Err(usage().to_string());
    }
    if !matches!(format.as_str(), "text" | "json") {
        return Err(format!("--format must be text or json, got {format}"));
    }

    let src = load_source(&input)?;
    let module = fcc::frontend::compile_module(&src)?;
    let single = module.len() == 1;
    let funcs = module.into_functions();
    let json = format == "json";
    let req = CompileRequest::new().fold(fold).opt(opt);
    let (results, _timing) = par_map(funcs.len(), jobs, |i| {
        let mut func = funcs[i].clone();
        let mut am = AnalysisManager::new();
        ssa_stage(&mut func, &req, &mut am, &mut Vec::new()).map_err(|v| v.to_string())?;
        verify_ssa(&func).map_err(|e| format!("internal: invalid SSA: {e}"))?;
        let fa = FunctionAnalysis::of(&func, &mut am);
        let mut diags = fa.safety_diagnostics(&func);
        diags.extend(fcc::alias::memory_diagnostics(&func, &fa, memory_words));
        let rendered = if json {
            fa.render_json(&func, &diags)
        } else {
            fa.render_text(&func, &diags).trim_end().to_string()
        };
        let failing = diags
            .iter()
            .filter(|d| d.is_error() || deny_warnings)
            .count();
        Ok::<(String, bool), String>((rendered, failing == 0))
    });

    let mut clean = true;
    let mut rendered = Vec::with_capacity(results.len());
    for r in results {
        let (text, ok) = r?;
        clean &= ok;
        rendered.push(text);
    }
    if json && !single {
        emit(format_args!("[{}]", rendered.join(",")));
    } else {
        for text in rendered {
            emit(text);
        }
    }
    Ok(clean)
}

/// `fcc fuzz`: a deterministic differential-fuzzing campaign over
/// generated programs. Returns `Ok(false)` (failing exit) when any seed
/// fails its oracle; each failure's shrunk repro is written to disk.
fn pressure_main(args: Vec<String>) -> Result<bool, String> {
    let mut input = String::new();
    let mut format = "text".to_string();
    let mut fold = true;
    let mut opt = false;
    let mut jobs = 0usize;
    let mut k = 8u32;
    let mut spill = false;
    let mut deny_warnings = false;
    let mut args = args.into_iter();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => format = need(&mut args, "--format")?,
            "--no-fold" => fold = false,
            "--opt" => opt = true,
            "--jobs" => {
                jobs = need(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--k" => {
                k = need(&mut args, "--k")?
                    .parse()
                    .map_err(|e| format!("--k: {e}"))?
            }
            "--spill" => spill = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if input.is_empty() && !other.starts_with('-') || other == "-" => {
                input = other.to_string();
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if input.is_empty() {
        return Err(usage().to_string());
    }
    if !matches!(format.as_str(), "text" | "json") {
        return Err(format!("--format must be text or json, got {format}"));
    }
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    if spill && k < 2 {
        return Err("--spill needs --k of at least 2".to_string());
    }

    let src = load_source(&input)?;
    let module = fcc::frontend::compile_module(&src)?;
    let single = module.len() == 1;
    let funcs = module.into_functions();
    let json = format == "json";
    let req = CompileRequest::new().fold(fold).opt(opt);
    let (results, _timing) = par_map(funcs.len(), jobs, |i| {
        pressure_one(funcs[i].clone(), &req, k, spill, json)
    });

    let mut clean = true;
    let mut rendered = Vec::with_capacity(results.len());
    for r in results {
        let (text, errors, warnings) = r?;
        clean &= errors == 0 && (!deny_warnings || warnings == 0);
        rendered.push(text);
    }
    if json && !single {
        emit(format_args!("[{}]", rendered.join(",")));
    } else {
        for text in rendered {
            emit(text);
        }
    }
    Ok(clean)
}

/// One function's pressure report: SSA MaxLive with chordality
/// certificate and spill costs, the SSA-stage pressure rules, then the
/// same function destructed by the paper's coalescer for the
/// final-stage rule and the post-destruction MaxLive. Returns
/// (rendered, errors, warnings).
fn pressure_one(
    mut func: Function,
    req: &CompileRequest,
    k: u32,
    spill: bool,
    json: bool,
) -> Result<(String, usize, usize), String> {
    let mut am = AnalysisManager::new();
    ssa_stage(&mut func, req, &mut am, &mut Vec::new()).map_err(|v| v.to_string())?;
    verify_ssa(&func).map_err(|e| format!("internal: invalid SSA: {e}"))?;
    let summary = fcc::pressure::summarize(&func, &mut am)
        .map_err(|e| format!("@{}: chordality certification failed: {e}", func.name))?;
    // --spill: both SSA-level spillers against the same k target, on
    // clones (the report below measures the unspilled function).
    let spill_stats: Option<[(SpillStrategy, SpillStats); 2]> = spill.then(|| {
        [SpillStrategy::Everywhere, SpillStrategy::CostGuided].map(|strategy| {
            let mut clone = func.clone();
            (strategy, spill_to_k(&mut clone, k, strategy))
        })
    });
    let rules = pressure_rules(k);
    let render = |report: &LintReport, func: &Function| -> Vec<String> {
        let one = |d: &Diagnostic| {
            if json {
                d.to_json(Some(func))
            } else {
                d.render(func)
            }
        };
        report.diagnostics.iter().map(one).collect()
    };
    let ssa_report = lint_with_rules(&func, &mut am, LintStage::Ssa, &rules);
    let mut diags = render(&ssa_report, &func);
    destruction_stage(&mut func, req.pipeline, false, &mut am, &mut Vec::new());
    let final_report = lint_with_rules(&func, &mut am, LintStage::Final, &rules);
    diags.extend(render(&final_report, &func));
    let cfg = am.cfg(&func);
    let live = am.liveness(&func);
    let final_maxlive = fcc::analysis::Pressure::compute(&func, &cfg, &live).maxlive();

    let errors = ssa_report.error_count() + final_report.error_count();
    let warnings = ssa_report.warning_count() + final_report.warning_count();
    let spill_member = spill_stats
        .as_ref()
        .map(|stats| {
            let objs: Vec<String> = stats
                .iter()
                .map(|(strategy, s)| {
                    format!(
                        "\"{}\":{{\"spills\":{},\"reloads\":{},\"slots\":{},\
                         \"maxlive_after\":{},\"rounds\":{}}}",
                        strategy.label().replace('-', "_"),
                        s.spills,
                        s.reloads,
                        s.slots,
                        s.maxlive_after,
                        s.rounds
                    )
                })
                .collect();
            format!("\"spill\":{{{}}},", objs.join(","))
        })
        .unwrap_or_default();
    let rendered = if json {
        let blocks: Vec<String> = summary
            .block_max
            .iter()
            .map(|(b, m)| format!("{{\"block\":\"{b}\",\"maxlive\":{m}}}"))
            .collect();
        format!(
            "{{\"function\":\"{}\",\"k\":{k},\"maxlive\":{},\"max_block\":{},\"points\":{},\
             \"edges\":{},\"omega\":{},\"chi\":{},\"spill_total\":{:.0},\"final_maxlive\":{},\
             {spill_member}\"errors\":{errors},\"warnings\":{warnings},\"blocks\":[{}],\"diagnostics\":[{}]}}",
            fcc::ir::diagnostic::json_escape(&summary.name),
            summary.maxlive,
            match summary.max_block {
                Some(b) => format!("\"{b}\""),
                None => "null".to_string(),
            },
            summary.points,
            summary.edges,
            summary.omega,
            summary.colors,
            summary.spill_total,
            final_maxlive,
            blocks.join(","),
            diags.join(",")
        )
    } else {
        let blocks: Vec<String> = summary
            .block_max
            .iter()
            .map(|(b, m)| format!("{b}={m}"))
            .collect();
        let mut out = format!(
            "@{}: maxlive {} ({}), certified omega {} = chi {}, {} points, {} edges, \
             spill cost {:.0}, final maxlive {}\n  blocks: {}",
            summary.name,
            summary.maxlive,
            match summary.max_block {
                Some(b) => b.to_string(),
                None => "-".to_string(),
            },
            summary.omega,
            summary.colors,
            summary.points,
            summary.edges,
            summary.spill_total,
            final_maxlive,
            blocks.join(" ")
        );
        if let Some(stats) = &spill_stats {
            for (strategy, s) in stats {
                out.push_str(&format!(
                    "\n  spill {} (k={k}): {} spills, {} reloads, {} slots, \
                     maxlive {} -> {} in {} round(s)",
                    strategy.label(),
                    s.spills,
                    s.reloads,
                    s.slots,
                    s.maxlive_before,
                    s.maxlive_after,
                    s.rounds
                ));
            }
        }
        for d in &diags {
            out.push('\n');
            out.push_str(d);
        }
        out.push_str(&format!(
            "\n@{}: pressure vs k={k}: {errors} error(s), {warnings} warning(s)",
            summary.name
        ));
        out
    };
    Ok((rendered, errors, warnings))
}

fn fuzz_main(args: Vec<String>) -> Result<bool, String> {
    let mut cfg = FuzzConfig::default();
    let mut repro_dir = ".".to_string();
    let mut inject = false;
    let mut args = args.into_iter();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn parse<T: std::str::FromStr>(v: String, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{flag}: {e}"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = parse(need(&mut args, "--seeds")?, "--seeds")?,
            "--start" => cfg.start = parse(need(&mut args, "--start")?, "--start")?,
            "--jobs" => cfg.jobs = parse(need(&mut args, "--jobs")?, "--jobs")?,
            "--no-opt" => cfg.opt = false,
            "--shrink-budget" => {
                cfg.shrink_budget = parse(need(&mut args, "--shrink-budget")?, "--shrink-budget")?
            }
            "--fuel" => cfg.fuel = Some(parse(need(&mut args, "--fuel")?, "--fuel")?),
            "--repro-dir" => repro_dir = need(&mut args, "--repro-dir")?,
            "--inject-phi-bug" => inject = true,
            "--inject-solver-spin" => fcc::opt::fault::inject_solver_spin(true),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if inject {
        fcc::opt::fault::disable_phi_restore(true);
    }

    let out = run_fuzz(&cfg);
    let rate = out.checked as f64 / out.timing.wall.as_secs_f64().max(1e-9);
    eprintln!(
        "; fuzz: {} seeds (start {}) through new/standard/briggs{} — {} failure(s); {}; {rate:.0} seeds/s",
        out.checked,
        cfg.start,
        if cfg.opt { " with --opt" } else { "" },
        out.failures.len(),
        out.timing.render(),
    );

    for f in &out.failures {
        let src = fcc::frontend::to_source(&f.shrunk);
        let stmts = fcc::workloads::statement_count(&f.shrunk);
        let path = format!("{repro_dir}/repro-{}.ml", f.seed);
        eprintln!(
            "seed {}: {} (shrunk to {stmts} statement(s) in {} oracle runs{})",
            f.seed,
            f.detail,
            f.shrink_evals,
            if f.shrink_converged {
                ""
            } else {
                ", budget exhausted"
            },
        );
        match std::fs::write(&path, format!("{src}\n")) {
            Ok(()) => eprintln!("  repro written to {path}"),
            Err(e) => eprintln!("  could not write {path}: {e}"),
        }
        emit(&src);
    }
    Ok(out.failures.is_empty())
}

/// `fcc serve`: run the compile service over stdin/stdout (default) or a
/// Unix socket (`--socket PATH`) until EOF or a `shutdown` request. The
/// build flags set the daemon-default [`CompileRequest`]; request lines
/// override field-by-field. `--cache-dir` makes the function cache
/// survive restarts; `--inject-disk-fault` arms the disk-fault shim for
/// the durability test matrix.
fn serve_main(args: Vec<String>) -> Result<bool, String> {
    let mut req = CompileRequest::new();
    let mut opts = fcc::serve::ServeOptions::default();
    let mut socket: Option<std::path::PathBuf> = None;
    let mut args = args.into_iter();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pipeline" => {
                req.pipeline = need(&mut args, "--pipeline")?
                    .parse()
                    .map_err(|e: RequestError| e.to_string())?
            }
            "--no-fold" => req.fold = false,
            "--opt" => req.opt = true,
            "--verify-each" => req.verify_each = true,
            "--simplify" => req.simplify = true,
            "--alloc" => {
                req.alloc = Some(
                    need(&mut args, "--alloc")?
                        .parse()
                        .map_err(|e| format!("--alloc: {e}"))?,
                )
            }
            "--k-registers" => {
                req.k_registers = Some(
                    need(&mut args, "--k-registers")?
                        .parse()
                        .map_err(|e| format!("--k-registers: {e}"))?,
                )
            }
            "--fail-mode" => {
                req.fail_mode = need(&mut args, "--fail-mode")?
                    .parse()
                    .map_err(|e: RequestError| e.to_string())?
            }
            "--fuel" => {
                req.fuel = Some(
                    need(&mut args, "--fuel")?
                        .parse()
                        .map_err(|e| format!("--fuel: {e}"))?,
                )
            }
            "--jobs" => {
                req.jobs = need(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--format" => {
                req.format = need(&mut args, "--format")?
                    .parse()
                    .map_err(|e: RequestError| e.to_string())?
            }
            "--deadline-ms" => {
                req.deadline_ms = Some(
                    need(&mut args, "--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--cache-budget" => {
                opts.cache_budget = need(&mut args, "--cache-budget")?
                    .parse()
                    .map_err(|e| format!("--cache-budget: {e}"))?
            }
            "--cache-dir" => {
                opts.cache_dir = Some(std::path::PathBuf::from(need(&mut args, "--cache-dir")?))
            }
            "--socket" => socket = Some(std::path::PathBuf::from(need(&mut args, "--socket")?)),
            "--max-queue" => {
                opts.max_queue = need(&mut args, "--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?
            }
            "--max-line-bytes" => {
                opts.max_line_bytes = need(&mut args, "--max-line-bytes")?
                    .parse()
                    .map_err(|e| format!("--max-line-bytes: {e}"))?
            }
            "--inject-disk-fault" => {
                let fault: fcc::serve::DiskFault =
                    need(&mut args, "--inject-disk-fault")?.parse()?;
                fcc::serve::fsio::inject(fault);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    req.validate().map_err(|e| e.to_string())?;
    opts.defaults = req;
    match socket {
        Some(path) => fcc::serve::serve_socket(&path, opts).map_err(|e| e.to_string())?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            fcc::serve::serve_loop(stdin.lock(), stdout.lock(), opts).map_err(|e| e.to_string())?
        }
    }
    Ok(true)
}

/// `fcc bench-serve`: the serve load generator. Prints the human summary
/// to stderr and the JSON report to `--out` (or stdout).
fn bench_serve_main(args: Vec<String>) -> Result<bool, String> {
    let mut cfg = fcc::serve::BenchConfig::default();
    let mut out_path: Option<String> = None;
    let mut args = args.into_iter();
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn parse<T: std::str::FromStr>(v: String, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{flag}: {e}"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--modules" => cfg.modules = parse(need(&mut args, "--modules")?, "--modules")?,
            "--requests" => cfg.requests = parse(need(&mut args, "--requests")?, "--requests")?,
            "--resubmit" => cfg.resubmit = parse(need(&mut args, "--resubmit")?, "--resubmit")?,
            "--max-fns" => cfg.max_fns = parse(need(&mut args, "--max-fns")?, "--max-fns")?,
            "--seed" => cfg.seed = parse(need(&mut args, "--seed")?, "--seed")?,
            "--jobs" => cfg.jobs = parse(need(&mut args, "--jobs")?, "--jobs")?,
            "--cache-budget" => {
                cfg.cache_budget = parse(need(&mut args, "--cache-budget")?, "--cache-budget")?
            }
            "--out" => out_path = Some(need(&mut args, "--out")?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !(0.0..=1.0).contains(&cfg.resubmit) {
        return Err(format!("--resubmit must be in [0,1], got {}", cfg.resubmit));
    }
    if cfg.modules == 0 || cfg.requests == 0 {
        return Err("--modules and --requests must be positive".into());
    }
    let report = fcc::serve::run_bench(&cfg);
    eprintln!("; bench-serve: {}", report.summary());
    let json = report.to_json();
    match out_path {
        Some(path) => std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?,
        None => emit(json.trim_end()),
    }
    Ok(report.ok_responses == cfg.requests)
}

fn real_main(raw: Vec<String>) -> Result<(), String> {
    let o = parse_args(raw)?;
    if !matches!(o.format.as_str(), "text" | "json") {
        return Err(format!("--format must be text or json, got {}", o.format));
    }
    // Arm any requested fault injections before anything compiles.
    if o.inject_panic.is_some() {
        fcc::opt::fault::inject_panic_in(o.inject_panic.as_deref());
    }
    if o.inject_spin {
        fcc::opt::fault::inject_solver_spin(true);
    }
    if o.inject_violation.is_some() {
        fcc::opt::fault::inject_verifier_violation_after(o.inject_violation.as_deref());
    }
    let src = load_source(&o.input)?;
    let module = fcc::frontend::compile_module(&src)?;
    let single = module.len() == 1;

    if o.emit == "cfg" {
        emit(&module);
        return Ok(());
    }
    let pipeline: PipelineSpec = o
        .pipeline
        .parse()
        .map_err(|e: RequestError| e.to_string())?;
    if !matches!(o.emit.as_str(), "ssa" | "final") {
        return Err(format!("unknown emit stage {}\n{}", o.emit, usage()));
    }
    let req = CompileRequest::new()
        .pipeline(pipeline)
        .fold(o.fold)
        .opt(o.opt)
        .verify_each(o.verify_each)
        .simplify(o.simplify)
        .alloc(o.alloc)
        .k_registers(o.k_registers)
        .fail_mode(o.fail_mode)
        .fuel(o.fuel)
        .jobs(o.jobs)
        .format(o.format.parse().map_err(|e: RequestError| e.to_string())?)
        .deny_warnings(o.deny_warnings);

    if o.emit == "ssa" {
        // Stop the pipeline at verified SSA, per function on the pool.
        let funcs = module.into_functions();
        let (results, _timing) = par_map(funcs.len(), o.jobs, |i| {
            let mut func = funcs[i].clone();
            ssa_stage(
                &mut func,
                &req,
                &mut AnalysisManager::new(),
                &mut Vec::new(),
            )
            .map_err(|v| format!("--verify-each: {v}\n{}", v.report.render_text(&func)))?;
            verify_ssa(&func).map_err(|e| format!("internal: invalid SSA: {e}"))?;
            Ok::<Function, String>(func)
        });
        let mut funcs = Vec::with_capacity(results.len());
        for r in results {
            funcs.push(r?);
        }
        emit(Module::from_functions(funcs).expect("names unchanged"));
        return Ok(());
    }

    let batch = compile_module(module, &req).map_err(|e| e.to_string())?;
    if o.fail_mode == FailMode::Abort {
        if let Some((name, e)) = batch.first_error() {
            return Err(format!("@{name}: {e}"));
        }
    }
    let (ok_n, recovered_n, failed_n) = batch.counts();

    if o.stats {
        for f in &batch.functions {
            match &f.outcome {
                Some(out) => {
                    for line in &out.stat_lines {
                        if single {
                            eprintln!("; {line}");
                        } else {
                            eprintln!("; @{}: {line}", f.name);
                        }
                    }
                }
                None => eprintln!(
                    "; @{}: quarantined ({} attempt(s))",
                    f.name,
                    f.attempts.len()
                ),
            }
            if let FnStatus::Recovered { attempts } = f.status {
                eprintln!("; @{}: recovered on attempt {attempts}", f.name);
            }
        }
        if !single {
            eprintln!("; batch: {}", batch.timing.render());
        }
    }

    if o.report {
        if o.format == "json" {
            emit(batch.outcome_table_json(o.fail_mode).trim_end());
        } else {
            emit(format_args!(
                "pipeline report ({}; analysis cache peak {} B):\n{}",
                o.pipeline,
                batch.analysis_peak_bytes(),
                render_phases(&batch.merged_phases())
            ));
            if let Some(summary) = &batch.merged_summary() {
                emit(summary.render().trim_end());
            }
            emit(format_args!(
                "outcomes ({}):\n{}",
                o.fail_mode.label(),
                batch.outcome_table_text().trim_end()
            ));
            if !single {
                emit(format_args!("batch: {}", batch.timing.render()));
            }
        }
    }

    if failed_n > 0 {
        quarantine_repros(&batch, &src, &req, &o.repro_dir);
    }

    match o.run {
        Some(args) => {
            let final_module = batch.into_surviving_module();
            let func = match (&o.entry, final_module.len()) {
                (Some(name), _) => final_module
                    .get(name)
                    .ok_or_else(|| format!("--entry: no function @{name} in the module"))?,
                (None, 1) => &final_module.functions()[0],
                (None, n) => {
                    return Err(format!("--run on a {n}-function module needs --entry NAME"))
                }
            };
            let out = run_with_memory(func, &args, vec![0; 1 << 21], 1_000_000_000)
                .map_err(|e| format!("execution failed: {e}"))?;
            emit(format_args!("{:?}", out.ret));
            if o.stats {
                eprintln!(
                    "; executed {} instructions, {} dynamic copies",
                    out.executed, out.dynamic_copies
                );
            }
        }
        None => emit(batch.into_surviving_module()),
    }
    if failed_n > 0 {
        return Err(format!(
            "{failed_n} function(s) failed every rung ({ok_n} ok, {recovered_n} recovered); repros in {}",
            o.repro_dir
        ));
    }
    Ok(())
}

/// Shrink each quarantined function to a minimal `.ml` repro (via the
/// fuzz shrinker) and write it to `repro_dir`. Best-effort: failures to
/// parse or write are reported on stderr, never fatal.
fn quarantine_repros(
    batch: &fcc::driver::BatchOutcome,
    src: &str,
    req: &CompileRequest,
    repro_dir: &str,
) {
    let programs = match fcc::frontend::parse_module(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("; quarantine: could not re-parse source for repros: {e}");
            return;
        }
    };
    for f in batch
        .functions
        .iter()
        .filter(|f| f.status == FnStatus::Failed)
    {
        let last = f
            .attempts
            .last()
            .map(|a| format!("[{}] {}", a.rung, a.error))
            .unwrap_or_default();
        eprintln!("; @{}: failed every rung: {last}", f.name);
        let Some(prog) = programs.iter().find(|p| p.name == f.name) else {
            continue;
        };
        let still_fails = |p: &fcc::frontend::Program| match fcc::frontend::lower_program(p) {
            Ok(func) => compile_function_report(&func, req).status == FnStatus::Failed,
            Err(_) => false,
        };
        let shrunk = fcc::workloads::shrink(prog, 600, still_fails);
        let path = format!("{}/repro-{}.ml", repro_dir, f.name);
        match std::fs::write(&path, fcc::frontend::to_source(&shrunk.program)) {
            Ok(()) => eprintln!(
                ";   repro written to {path} ({} statement(s))",
                fcc::workloads::statement_count(&shrunk.program)
            ),
            Err(e) => eprintln!(";   could not write {path}: {e}"),
        }
    }
}
