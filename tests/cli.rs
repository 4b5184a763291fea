//! The `fcc` command line, run as a process: every flag a subcommand's
//! `--help` lists is accepted, a request flag a subcommand does not take
//! is refused, each `fcc serve` request flag sets its daemon default
//! exactly as the same key does on the wire, and `--inject` is the one
//! fault-injection flag, honoured by `fcc fuzz` in every pass it runs.

use fcc::analysis::fault::Fault;
use std::io::Write;
use std::process::{Command, Output, Stdio};

const FCC: &str = env!("CARGO_BIN_EXE_fcc");

const SUBCOMMANDS: &[&str] = &["build", "lint", "analyze", "pressure", "fuzz", "serve"];

fn fcc(args: &[&str]) -> Output {
    Command::new(FCC)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("fcc runs")
}

fn fcc_fed(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(FCC)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fcc runs");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    pipe.write_all(stdin.as_bytes())
        .expect("fcc reads its input");
    drop(pipe);
    child.wait_with_output().expect("fcc exits")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The flags `fcc <sub> --help` lists under `section` (every section
/// when `None`), as (flag, metavar).
fn listed(sub: &str, section: Option<&str>) -> Vec<(String, Option<String>)> {
    let out = fcc(&[sub, "--help"]);
    assert!(out.status.success(), "fcc {sub} --help exits 0");
    let text = String::from_utf8(out.stdout).expect("help is UTF-8");
    let mut current = "";
    let mut flags = Vec::new();
    for line in text.lines() {
        if line.ends_with(':') && !line.starts_with(' ') {
            current = line;
        }
        let Some(entry) = line.strip_prefix("  --") else {
            continue;
        };
        if section.is_some_and(|s| s != current) {
            continue;
        }
        // A flag and its metavar are separated from the help by two
        // spaces or more.
        let spelled = entry.split("  ").next().expect("an entry names a flag");
        let mut words = spelled.split(' ');
        let flag = format!("--{}", words.next().expect("a flag name"));
        flags.push((flag, words.next().map(str::to_string)));
    }
    assert!(!flags.is_empty(), "fcc {sub} --help lists flags");
    flags
}

#[test]
fn each_subcommand_accepts_every_flag_its_help_lists() {
    assert_eq!(fcc(&["--help"]).stdout, fcc(&["build", "--help"]).stdout);
    for sub in SUBCOMMANDS {
        for (flag, metavar) in listed(sub, None) {
            // A valid argument for the request flags, which check theirs
            // as they parse; the trailing unknown flag stops the command
            // before it acts on anything.
            let value = match metavar.as_deref() {
                None => None,
                Some("P") => Some("standard"),
                Some("M") => Some("skip"),
                Some("F") => Some("json"),
                Some(_) => Some("4"),
            };
            let mut args = vec![*sub, flag.as_str()];
            args.extend(value);
            args.push("--not-a-flag");
            let out = fcc(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert!(
                stderr(&out).contains("unknown argument --not-a-flag"),
                "{args:?} must get past {flag}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn a_request_flag_a_subcommand_does_not_take_exits_1() {
    for args in [
        &["lint", "kernel:saxpy", "--k-registers", "4"][..],
        &["kernel:saxpy", "--deadline-ms", "5"],
        &["analyze", "kernel:saxpy", "--pipeline", "standard"],
        &["pressure", "kernel:saxpy", "--verify-each"],
        &["fuzz", "--opt"],
        // deny_warnings can fail a compile but is outside the cache
        // signature, so the daemon must not take it.
        &["serve", "--deny-warnings"],
        // --k-registers is the one allocation flag; no command takes
        // --alloc.
        &["--alloc", "8"],
        &["serve", "--alloc", "8"],
    ] {
        let out = fcc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            stderr(&out).contains(&format!("unknown argument {flag}")),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn request_flag_values_are_checked_whatever_the_stage() {
    // --emit cfg stops before any pipeline runs, but the spelling is
    // still checked.
    assert!(fcc(&["kernel:saxpy", "--emit", "cfg"]).status.success());
    let out = fcc(&["kernel:saxpy", "--emit", "cfg", "--pipeline", "fancy"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--pipeline") && stderr(&out).contains("\"fancy\""));
    // Integers are range-checked into the field's type, not truncated.
    let out = fcc(&["kernel:saxpy", "--k-registers", "4294967298"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("--k-registers") && stderr(&out).contains("4294967298"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn each_serve_request_flag_answers_as_its_wire_key() {
    let source = "fn f(x) { let s = 0; for i = 0 to x { s = s + i * x; } return s; }";
    let compile =
        |request: &str| format!(r#"{{"v":1,"verb":"compile","source":"{source}"{request}}}"#);
    let cases: &[(&[&str], &str)] = &[
        (&["--pipeline", "standard"], r#""pipeline":"standard""#),
        (&["--no-fold"], r#""fold":false"#),
        (&["--opt"], r#""opt":true"#),
        (&["--verify-each"], r#""verify_each":true"#),
        (&["--simplify"], r#""simplify":true"#),
        (&["--k-registers", "3"], r#""k_registers":3"#),
        (&["--fail-mode", "degrade"], r#""fail_mode":"degrade""#),
        (&["--fuel", "40"], r#""fuel":40"#),
        (&["--jobs", "2"], r#""jobs":2"#),
        (&["--format", "json"], r#""format":"json""#),
        (&["--deadline-ms", "60000"], r#""deadline_ms":60000"#),
    ];
    // The cases cover every request flag `fcc serve` takes.
    let mut covered: Vec<&str> = cases.iter().map(|(args, _)| args[0]).collect();
    let mut taken: Vec<String> = listed("serve", Some("Compile request:"))
        .into_iter()
        .map(|(flag, _)| flag)
        .collect();
    covered.sort_unstable();
    taken.sort_unstable();
    assert_eq!(covered, taken);

    for (args, member) in cases {
        let by_flag = fcc_fed(&[&["serve"], *args].concat(), &format!("{}\n", compile("")));
        let by_wire = fcc_fed(
            &["serve"],
            &format!("{}\n", compile(&format!(r#","request":{{{member}}}"#))),
        );
        assert!(
            by_flag.status.success() && by_wire.status.success(),
            "{args:?}"
        );
        assert!(!by_flag.stdout.is_empty(), "{args:?} answered");
        assert_eq!(
            String::from_utf8_lossy(&by_flag.stdout),
            String::from_utf8_lossy(&by_wire.stdout),
            "fcc serve {args:?} vs \"request\":{{{member}}}"
        );
    }
}

#[test]
fn inject_is_the_one_fault_flag_and_names_every_fault_it_takes() {
    for sub in ["build", "fuzz", "serve"] {
        let flags: Vec<String> = listed(sub, None)
            .into_iter()
            .map(|(flag, _)| flag)
            .filter(|flag| flag.starts_with("--inject"))
            .collect();
        assert_eq!(flags, ["--inject"], "fcc {sub}");

        // The help and the refusal of an unknown fault both list every
        // spelling the registry accepts.
        let help = String::from_utf8(fcc(&[sub, "--help"]).stdout).expect("help is UTF-8");
        let out = fcc(&[sub, "--inject", "bogus"]);
        assert_eq!(out.status.code(), Some(1), "fcc {sub} --inject bogus");
        for fault in Fault::every("PASS") {
            let spelled = fault.to_string();
            assert!(help.contains(&spelled), "fcc {sub} --help lists {spelled}");
            assert!(stderr(&out).contains(&spelled), "{}", stderr(&out));
        }
    }
    for args in [
        &["build", "--inject-panic", "coalesce-new"][..],
        &["build", "--inject-solver-spin"],
        &["build", "--inject-verifier-violation", "range-fold"],
        &["fuzz", "--inject-phi-bug"],
        &["serve", "--inject-disk-fault", "enospc"],
    ] {
        let out = fcc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(
            stderr(&out).contains("unknown argument --inject-"),
            "{args:?}"
        );
    }
}

#[test]
fn a_solver_spin_without_fuel_is_refused_naming_fuel() {
    // The spin ends only when fuel runs out, and neither command sets
    // any by default: without the refusal both would never return.
    for args in [
        &["build", "kernel:saxpy", "--opt", "--inject", "solver-spin"][..],
        &["fuzz", "--seeds", "1", "--inject", "solver-spin"],
    ] {
        let out = fcc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(
            stderr(&out).contains("--fuel"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let fueled = [
        "build",
        "kernel:saxpy",
        "--opt",
        "--fail-mode",
        "degrade",
        "--inject",
        "solver-spin",
        "--fuel",
        "100000",
    ];
    let out = fcc(&fueled);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn fuzz_honours_an_injected_panic_in_the_k_register_stages() {
    // The fuzzer's k-register sweep runs the driver's own spill and
    // allocation stages, so a panic injected into either pass is found
    // there exactly as `fcc build --k-registers` finds it.
    let dir = std::env::temp_dir().join(format!("fcc-cli-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let repro_dir = dir.to_str().expect("a UTF-8 path");
    let campaign = [
        "fuzz",
        "--seeds",
        "2",
        "--shrink-budget",
        "1",
        "--repro-dir",
        repro_dir,
    ];
    let clean = fcc(&campaign);
    assert!(clean.status.success(), "{}", stderr(&clean));
    assert!(
        stderr(&clean).contains(" 0 failure(s)"),
        "{}",
        stderr(&clean)
    );
    for pass in ["spill", "allocate"] {
        let fault = format!("panic:{pass}");
        let out = fcc(&[&campaign[..], &["--inject", &fault]].concat());
        assert_eq!(out.status.code(), Some(1), "{fault}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("'{pass}'")),
            "{fault} names its pass: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_standard_error_is_not_a_panic() {
    // `fcc fuzz ... 2>&1 | head -1`: the reader of standard error goes
    // away, and the failing campaign must still exit 1 rather than
    // panic on its next report line.
    let dir = std::env::temp_dir().join(format!("fcc-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let status = Command::new(FCC)
        .args([
            "fuzz",
            "--seeds",
            "2",
            "--shrink-budget",
            "1",
            "--repro-dir",
        ])
        .arg(&dir)
        .args(["--inject", "panic:coalesce-new"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("fcc runs");
    assert_eq!(status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
