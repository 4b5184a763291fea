//! `fcc` — the command-line driver.
//!
//! Compiles MiniLang source (one function, a multi-function module, or
//! the bundled kernels) through a selectable SSA-destruction pipeline,
//! and hosts the `lint`, `analyze`, `pressure`, `fuzz` and `serve`
//! subcommands. `fcc --help` and `fcc <subcommand> --help` list every
//! flag; [`COMMANDS`] and [`REQUEST_FLAGS`] are their one definition,
//! and the help text is generated from them.
//!
//! A request flag sets one [`CompileRequest`] field through
//! [`CompileRequest::set`], the setter behind the serve protocol's
//! `"request"` object too, so a flag and its wire key cannot drift.
//!
//! ```text
//! fcc kernel:saxpy --stats --run 64,3
//! fcc kernel:* --opt --jobs 4 --report
//! echo 'fn f(x){ return x*2; }' | fcc - --emit ssa
//! fcc lint kernel:saxpy --opt --format json
//! fcc pressure kernel:* --opt --k 8 --format json
//! echo '{"v":1,"verb":"compile","source":"fn f(x){ return x; }"}' | fcc serve
//! ```

use std::fmt::Display;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::str::FromStr;

use fcc::analysis::fault::{self, Fault};
use fcc::driver::{fuzz as run_fuzz, par_map, render_phases, FuzzConfig, SetError, SetValue};
use fcc::ir::Module;
use fcc::prelude::*;

/// A flag as its help line spells it, without the leading `--`:
/// `"name METAVAR: help"`, or `"name: help"` for a switch.
type Flag = &'static str;

/// A flag's name, metavar (`None` for a switch) and help.
fn parts(flag: Flag) -> (&'static str, Option<&'static str>, &'static str) {
    let (spelled, help) = flag.split_once(": ").expect("a flag has a line of help");
    let mut words = spelled.split(' ');
    (words.next().unwrap_or_default(), words.next(), help)
}

/// The flags that set a [`CompileRequest`] field. A flag's name is its
/// field's key with `-` for `_`; a switch sets its field to true, or to
/// false behind a `no-` prefix.
const REQUEST_FLAGS: &[Flag] = &[
    "pipeline P: new (default) | standard | briggs-star",
    "no-fold: do not fold copies while building SSA (briggs-star needs this)",
    "opt: run the optimiser on the SSA (copy-preserving for briggs-star)",
    "verify-each: lint between phases and audit the destruction, naming the failing pass",
    "simplify: simplify the CFG after destruction",
    "k-registers K: spill to pressure <= K, colour with exactly K >= 2 registers, audit",
    "fail-mode M: abort (default) | skip | degrade: what a failed function does to the batch",
    "fuel N: per-attempt step budget; running out fails the function, naming the pass",
    "deadline-ms N: wall-clock budget per request; an overrun answers 504",
    "jobs N: worker threads (0, the default: all cores); output does not depend on N",
    "format F: text (default) | json",
    "deny-warnings: treat lint warnings as failures",
];

/// The one fault-injection flag of `build`, `fuzz` and `serve`.
const INJECT: Flag = "inject FAULT: (testing) arm one fault: panic:PASS | solver-spin | \
                      verifier-violation:PASS | phi-ordering-bug | torn-write | short-write | \
                      enospc | bit-flip";

/// A subcommand: what it does, the request flags it takes, its own
/// flags, and what runs once they parse (`Ok(false)` exits 1).
struct Command {
    name: &'static str,
    /// Takes `<file.ml | kernel:NAME | kernel:* | ->`.
    input: bool,
    about: &'static str,
    /// Names of [`REQUEST_FLAGS`] rows, space-separated.
    request: &'static str,
    flags: &'static [Flag],
    run: fn(Args) -> Result<bool, String>,
}

/// The subcommands; the first runs when none is named.
const COMMANDS: &[Command] = &[
    Command {
        name: "build",
        input: true,
        about: "Compile MiniLang source (one function, a module, a bundled kernel, or kernel:*\n\
                for the whole suite) and print the final IR. `build` may be omitted. The\n\
                subcommands are lint, analyze, pressure, fuzz and serve (fcc <name> --help).",
        request: "pipeline no-fold opt verify-each simplify k-registers \
                  jobs fail-mode fuel format deny-warnings",
        flags: &[
            "emit STAGE: print IR at cfg | ssa | final (the default)",
            "run ARGS: execute the final code on comma-separated integer ARGS",
            "entry NAME: the function --run executes (needed for a multi-function module)",
            "stats: print phase statistics on standard error",
            "report: print the per-phase pipeline report and the per-function outcomes",
            "repro-dir DIR: where shrunk repros of failed functions go (default .)",
            "list-kernels: list the bundled kernels and exit",
            INJECT,
        ],
        run: build_main,
    },
    Command {
        name: "lint",
        input: true,
        about: "Drive each function through CFG, SSA and destruction, run the stage-matched\n\
                rule suite at each point and audit the coalescing. Exits 1 on any error.",
        request: "format pipeline no-fold opt jobs deny-warnings",
        flags: &[],
        run: lint_main,
    },
    Command {
        name: "analyze",
        input: true,
        about: "Run the sparse abstract interpreter (value ranges, known bits) and the memory\n\
                checkers over the SSA form; print per-value ranges and the safety report.\n\
                Exits 1 on any error finding.",
        request: "format no-fold opt jobs deny-warnings",
        flags: &["memory-words N: memory size for the out-of-bounds check (else only negative addresses)"],
        run: analyze_main,
    },
    Command {
        name: "pressure",
        input: true,
        about: "Report MaxLive per block and function with its chordality certificate,\n\
                loop-weighted spill costs, and the pressure-* rules against a k-register\n\
                target, before and after destruction. Exits 1 on any error finding.",
        request: "format no-fold opt jobs deny-warnings",
        flags: &[
            "k N: register target for the pressure-* rules (default 8)",
            "spill: also run both SSA spillers against k and report their counts",
        ],
        run: pressure_main,
    },
    Command {
        name: "fuzz",
        input: false,
        about: "Check seeded generated programs through new, standard and briggs against the\n\
                interpreter oracle and the destruction audit, and shrink each failure to a\n\
                minimal MiniLang repro. Exits 1 on any failure.",
        request: "jobs fuel",
        flags: &[
            "seeds N: seeds to check (default 1000)",
            "start N: first seed (default 0)",
            "no-opt: skip the optimiser between SSA and destruction",
            "shrink-budget N: oracle runs the shrinker may spend per failure (default 4000)",
            "repro-dir DIR: where repro-<seed>.ml files go (default .)",
            INJECT,
        ],
        run: fuzz_main,
    },
    Command {
        name: "serve",
        input: false,
        about: "Run the compile service: one JSONL request per line of standard input (or of\n\
                each --socket connection), one response per line, with a content-addressed\n\
                function cache between requests (DESIGN.md §11, §15). The request flags set\n\
                the daemon defaults; a request line's \"request\" object overrides them.",
        request: "pipeline no-fold opt verify-each simplify k-registers \
                  fail-mode fuel jobs format deadline-ms",
        flags: &[
            "cache-budget BYTES: function-cache byte budget (default 256 MiB)",
            "cache-dir DIR: keep the cache here across restarts, quarantining corrupt entries",
            "socket PATH: listen on a Unix domain socket instead of standard input",
            "max-queue N: compiles admitted at once before shedding with 503 (default 64)",
            "max-line-bytes N: longer request lines answer 400 line-too-long (default 16 MiB)",
            INJECT,
        ],
        run: serve_main,
    },
];

/// One parsed command line.
struct Args {
    req: CompileRequest,
    input: Option<String>,
    /// The command's own flags as given: name and argument.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether switch `name` was given.
    fn on(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The argument of flag `name` (the last one, if repeated).
    fn get(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().rev().find(|(n, _)| *n == name);
        given.and_then(|(_, v)| v.as_deref())
    }

    /// That argument, parsed.
    fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parsed = self.get(name).map(|v| v.parse().map_err(|e| bad(name, e)));
        parsed.transpose()
    }

    fn input(&self) -> Result<&str, String> {
        let missing = || "no input given; --help lists the usage".to_string();
        self.input.as_deref().ok_or_else(missing)
    }
}

/// An error about flag `name`.
fn bad(name: &str, e: impl Display) -> String {
    format!("--{name}: {e}")
}

/// The one argument loop: request flags go through
/// [`CompileRequest::set`] as they are read, the command's own flags are
/// kept for it, and `--help` prints the help generated from the tables.
fn parse(cmd: &Command, mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        req: CompileRequest::new(),
        input: None,
        flags: Vec::new(),
    };
    while let Some(arg) = raw.next() {
        if arg == "--help" || arg == "-h" {
            print!("{}", help(cmd));
            std::process::exit(0);
        }
        let name = arg.strip_prefix("--").unwrap_or_default();
        let request = cmd.request.split_whitespace().any(|n| n == name);
        let table = if request { REQUEST_FLAGS } else { cmd.flags };
        let Some((name, metavar, _)) = table.iter().map(|f| parts(f)).find(|p| p.0 == name) else {
            if cmd.input && (args.input.is_none() && !arg.starts_with('-') || arg == "-") {
                args.input = Some(arg);
                continue;
            }
            return Err(format!("unknown argument {arg}; --help lists the flags"));
        };
        let value = match metavar {
            Some(_) => Some(raw.next().ok_or_else(|| bad(name, "needs a value"))?),
            None => None,
        };
        if !request {
            args.flags.push((name, value));
            continue;
        }
        let (key, on) = match name.strip_prefix("no-") {
            Some(key) => (key, false),
            None => (name, true),
        };
        let set_to = value.as_deref().map_or(SetValue::Bool(on), SetValue::Arg);
        let set = args.req.set(&key.replace('-', "_"), set_to);
        set.map_err(|e| match e {
            SetError::Invalid(e) => bad(name, e),
            e => bad(name, format!("{e}, got {:?}", value.unwrap_or_default())),
        })?;
    }
    Ok(args)
}

/// `--help`, generated from the command's tables.
fn help(cmd: &Command) -> String {
    let input = if cmd.input {
        " <file.ml | kernel:NAME | kernel:* | ->"
    } else {
        ""
    };
    let request = cmd.request.split_whitespace().map(|name| {
        let row = REQUEST_FLAGS.iter().find(|f| parts(f).0 == name);
        *row.expect("a command's request flags are rows of REQUEST_FLAGS")
    });
    let sections = [
        ("Compile request:", request.collect()),
        ("Options:", cmd.flags.to_vec()),
    ];
    let spell = |f: Flag| format!("--{}", f.split_once(": ").unwrap_or_default().0);
    let width = sections.iter().flat_map(|s| &s.1).map(|f| spell(f).len());
    let width = width.max().unwrap_or(0);
    let mut out = format!(
        "Usage: fcc {}{input} [options]\n\n{}\n",
        cmd.name, cmd.about
    );
    for (title, flags) in sections.iter().filter(|s| !s.1.is_empty()) {
        out.push_str(&format!("\n{title}\n"));
        for f in flags {
            out.push_str(&format!("  {:width$}  {}\n", spell(f), parts(f).2));
        }
    }
    out
}

/// Arm the `--inject` fault, if one was given: one fault per run. A
/// solver spin ends only when fuel runs out, so a command whose request
/// carries no fuel by default (`fuel_needed`) refuses it without
/// `--fuel`; a serve request line can carry its own.
fn arm_fault(a: &Args, fuel_needed: bool) -> Result<(), String> {
    if a.flags.iter().filter(|(name, _)| *name == "inject").count() > 1 {
        return Err(bad("inject", "one fault per run"));
    }
    let Some(fault) = a.parse::<Fault>("inject")? else {
        return Ok(());
    };
    if fault == Fault::SolverSpin && fuel_needed && a.req.fuel.is_none() {
        return Err(bad(
            "inject",
            "solver-spin spins until fuel runs out; give --fuel N",
        ));
    }
    fault::inject(fault);
    Ok(())
}

/// Print to stdout, ignoring a closed pipe (`fcc ... | head` must not
/// panic).
fn emit(text: impl std::fmt::Display) {
    let _ = writeln!(std::io::stdout(), "{text}");
}

/// `eprintln!` that ignores a closed pipe, as [`emit`] does for stdout
/// (`fcc ... 2>&1 | head` must not panic either).
macro_rules! note {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
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
    let mut raw = std::env::args().skip(1).peekable();
    let named = raw
        .peek()
        .and_then(|sub| COMMANDS.iter().find(|c| c.name == sub));
    let cmd = match named {
        Some(cmd) => {
            raw.next();
            cmd
        }
        None => &COMMANDS[0],
    };
    match parse(cmd, raw).and_then(cmd.run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            match cmd.name {
                "build" => note!("fcc: {e}"),
                name => note!("fcc {name}: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}

/// `fcc lint`: drive every function through every stage on the worker
/// pool, run the stage-matched rule suite at each, and audit the
/// destruction run. Returns `Ok(false)` when any error-severity finding
/// was reported.
fn lint_main(a: Args) -> Result<bool, String> {
    let input = a.input()?;
    let req = &a.req;
    req.validate().map_err(|e| e.to_string())?;

    let src = load_source(input)?;
    let module = fcc::frontend::compile_module(&src)?;

    // Each worker lints one function with its own managers; results are
    // merged in module order, so the printed findings are independent of
    // --jobs.
    let funcs = module.into_functions();
    let (results, _timing) = par_map(funcs.len(), req.jobs, |i| {
        lint_pipeline(funcs[i].clone(), req)
    });

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
            note!("fcc lint: @{}: {v}", func.name);
            clean = false;
            reports.push(v.report);
        }
        clean &= reports
            .iter()
            .all(|r| !r.has_errors() && (!req.deny_warnings || r.warning_count() == 0));
        emitted.push((func, reports));
    }
    if req.format == ReportFormat::Json {
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
fn analyze_main(a: Args) -> Result<bool, String> {
    let memory_words: Option<i64> = a.parse("memory-words")?;
    if memory_words.is_some_and(|m| m < 0) {
        return Err(bad("memory-words", "must not be negative"));
    }
    let src = load_source(a.input()?)?;
    let module = fcc::frontend::compile_module(&src)?;
    let single = module.len() == 1;
    let funcs = module.into_functions();
    let req = &a.req;
    let json = req.format == ReportFormat::Json;
    let (results, _timing) = par_map(funcs.len(), req.jobs, |i| {
        let mut func = funcs[i].clone();
        let mut am = AnalysisManager::new();
        ssa_stage(&mut func, req, &mut am, &mut Vec::new()).map_err(|v| v.to_string())?;
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
            .filter(|d| d.is_error() || req.deny_warnings)
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

/// `fcc pressure`: the static register-pressure report of every
/// function against a k-register target, on the worker pool. Returns
/// `Ok(false)` when any error-severity finding (or, under
/// `--deny-warnings`, any finding) was reported.
fn pressure_main(a: Args) -> Result<bool, String> {
    let k: u32 = a.parse("k")?.unwrap_or(8);
    let spill = a.on("spill");
    if k == 0 {
        return Err(bad("k", "must be at least 1"));
    }
    if spill && k < 2 {
        return Err(bad("spill", "needs a k of at least 2"));
    }

    let src = load_source(a.input()?)?;
    let module = fcc::frontend::compile_module(&src)?;
    let single = module.len() == 1;
    let funcs = module.into_functions();
    let req = &a.req;
    let json = req.format == ReportFormat::Json;
    let (results, _timing) = par_map(funcs.len(), req.jobs, |i| {
        pressure_one(funcs[i].clone(), req, k, spill, json)
    });

    let mut clean = true;
    let mut rendered = Vec::with_capacity(results.len());
    for r in results {
        let (text, errors, warnings) = r?;
        clean &= errors == 0 && (!req.deny_warnings || warnings == 0);
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
    let final_maxlive = am.pressure(&func).maxlive();

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

/// `fcc fuzz`: a deterministic differential-fuzzing campaign over
/// generated programs. Returns `Ok(false)` (failing exit) when any seed
/// fails its oracle; each failure's shrunk repro is written to disk.
fn fuzz_main(a: Args) -> Result<bool, String> {
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        seeds: a.parse("seeds")?.unwrap_or(defaults.seeds),
        start: a.parse("start")?.unwrap_or(defaults.start),
        jobs: a.req.jobs,
        opt: !a.on("no-opt"),
        shrink_budget: a.parse("shrink-budget")?.unwrap_or(defaults.shrink_budget),
        fuel: a.req.fuel,
        ..defaults
    };
    let repro_dir = a.get("repro-dir").unwrap_or(".");
    arm_fault(&a, true)?;

    let out = run_fuzz(&cfg);
    let rate = out.checked as f64 / out.timing.wall.as_secs_f64().max(1e-9);
    note!(
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
        note!(
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
            Ok(()) => note!("  repro written to {path}"),
            Err(e) => note!("  could not write {path}: {e}"),
        }
        emit(&src);
    }
    Ok(out.failures.is_empty())
}

/// `fcc serve`: run the compile service over stdin/stdout (default) or a
/// Unix socket (`--socket PATH`) until EOF or a `shutdown` request. The
/// request flags set the daemon-default [`CompileRequest`]; request lines
/// override field-by-field. `--cache-dir` makes the function cache
/// survive restarts; `--inject` arms a fault, such as a disk fault for
/// the durability test matrix.
fn serve_main(a: Args) -> Result<bool, String> {
    a.req.validate().map_err(|e| e.to_string())?;
    let defaults = fcc::serve::ServeOptions::default();
    let opts = fcc::serve::ServeOptions {
        defaults: a.req.clone(),
        cache_budget: a.parse("cache-budget")?.unwrap_or(defaults.cache_budget),
        cache_dir: a.get("cache-dir").map(std::path::PathBuf::from),
        max_queue: a.parse("max-queue")?.unwrap_or(defaults.max_queue),
        max_line_bytes: a
            .parse("max-line-bytes")?
            .unwrap_or(defaults.max_line_bytes),
    };
    arm_fault(&a, false)?;
    match a.get("socket") {
        Some(path) => {
            fcc::serve::serve_socket(std::path::Path::new(path), opts).map_err(|e| e.to_string())?
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            fcc::serve::serve_loop(stdin.lock(), stdout.lock(), opts).map_err(|e| e.to_string())?
        }
    }
    Ok(true)
}

/// `fcc [build]`: compile the input through the request's pipeline and
/// print the final IR, an execution (`--run`) or the reports.
fn build_main(a: Args) -> Result<bool, String> {
    if a.on("list-kernels") {
        for k in fcc::workloads::kernels() {
            emit(format_args!("{:10} {}", k.name, k.description));
        }
        return Ok(true);
    }
    let run: Option<Vec<i64>> = a
        .get("run")
        .map(|list| {
            let args = list.split(',').filter(|s| !s.is_empty());
            args.map(str::parse).collect::<Result<_, _>>()
        })
        .transpose()
        .map_err(|e| bad("run", e))?;
    let repro_dir = a.get("repro-dir").unwrap_or(".");
    let req = &a.req;
    arm_fault(&a, true)?;
    let src = load_source(a.input()?)?;
    let module = fcc::frontend::compile_module(&src)?;
    let single = module.len() == 1;

    let stage = a.get("emit").unwrap_or("final");
    if stage == "cfg" {
        emit(&module);
        return Ok(true);
    }
    if !matches!(stage, "ssa" | "final") {
        return Err(bad(
            "emit",
            format!("unknown stage {stage} (expected cfg, ssa or final)"),
        ));
    }

    if stage == "ssa" {
        // Stop the pipeline at verified SSA, per function on the pool.
        let funcs = module.into_functions();
        let (results, _timing) = par_map(funcs.len(), req.jobs, |i| {
            let mut func = funcs[i].clone();
            ssa_stage(&mut func, req, &mut AnalysisManager::new(), &mut Vec::new()).map_err(
                |v| {
                    bad(
                        "verify-each",
                        format!("{v}\n{}", v.report.render_text(&func)),
                    )
                },
            )?;
            verify_ssa(&func).map_err(|e| format!("internal: invalid SSA: {e}"))?;
            Ok::<Function, String>(func)
        });
        let mut funcs = Vec::with_capacity(results.len());
        for r in results {
            funcs.push(r?);
        }
        emit(Module::from_functions(funcs).expect("names unchanged"));
        return Ok(true);
    }

    let batch = compile_module(module, req).map_err(|e| e.to_string())?;
    if req.fail_mode == FailMode::Abort {
        if let Some((name, e)) = batch.first_error() {
            return Err(format!("@{name}: {e}"));
        }
    }
    let (ok_n, recovered_n, failed_n) = batch.counts();

    if a.on("stats") {
        for f in &batch.functions {
            match &f.outcome {
                Some(out) => {
                    for line in &out.stat_lines {
                        if single {
                            note!("; {line}");
                        } else {
                            note!("; @{}: {line}", f.name);
                        }
                    }
                }
                None => note!(
                    "; @{}: quarantined ({} attempt(s))",
                    f.name,
                    f.attempts.len()
                ),
            }
            if let FnStatus::Recovered { attempts } = f.status {
                note!("; @{}: recovered on attempt {attempts}", f.name);
            }
        }
        if !single {
            note!("; batch: {}", batch.timing.render());
        }
    }

    if a.on("report") {
        if req.format == ReportFormat::Json {
            emit(batch.outcome_table_json(req.fail_mode).trim_end());
        } else {
            emit(format_args!(
                "pipeline report ({}; analysis cache peak {} B):\n{}",
                req.pipeline,
                batch.analysis_peak_bytes(),
                render_phases(&batch.merged_phases())
            ));
            if let Some(summary) = &batch.merged_summary() {
                emit(summary.render().trim_end());
            }
            emit(format_args!(
                "outcomes ({}):\n{}",
                req.fail_mode.label(),
                batch.outcome_table_text().trim_end()
            ));
            if !single {
                emit(format_args!("batch: {}", batch.timing.render()));
            }
        }
    }

    if failed_n > 0 {
        quarantine_repros(&batch, &src, req, repro_dir);
    }

    match run {
        Some(args) => {
            let final_module = batch.into_surviving_module();
            let func = match (a.get("entry"), final_module.len()) {
                (Some(name), _) => final_module
                    .get(name)
                    .ok_or_else(|| bad("entry", format!("no function @{name} in the module")))?,
                (None, 1) => &final_module.functions()[0],
                (None, n) => {
                    return Err(bad(
                        "run",
                        format!("a {n}-function module needs --entry NAME"),
                    ))
                }
            };
            let out = run_with_memory(func, &args, vec![0; 1 << 21], 1_000_000_000)
                .map_err(|e| format!("execution failed: {e}"))?;
            emit(format_args!("{:?}", out.ret));
            if a.on("stats") {
                note!(
                    "; executed {} instructions, {} dynamic copies",
                    out.executed,
                    out.dynamic_copies
                );
            }
        }
        None => emit(batch.into_surviving_module()),
    }
    if failed_n > 0 {
        return Err(format!(
            "{failed_n} function(s) failed every rung ({ok_n} ok, {recovered_n} recovered); repros in {repro_dir}",
        ));
    }
    Ok(true)
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
            note!("; quarantine: could not re-parse source for repros: {e}");
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
        note!("; @{}: failed every rung: {last}", f.name);
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
            Ok(()) => note!(
                ";   repro written to {path} ({} statement(s))",
                fcc::workloads::statement_count(&shrunk.program)
            ),
            Err(e) => note!(";   could not write {path}: {e}"),
        }
    }
}
