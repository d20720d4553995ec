//! The `lint` subcommand as a spawned process: which stream carries the
//! report, and which exit code carries the verdict.
//!
//! * `--format json` writes its JSON report to stdout whether linting
//!   passes or fails; the exit code alone says which (0 clean or below
//!   `--deny`, 1 at or above it).
//! * Rendered text reports of a failing lint stay on stderr.
//! * Times no shared `i64` tick lattice can hold are rejected with an
//!   `error:` line naming the send and exit code 1 — never a panic
//!   (exit 101) — in batch mode and with `--stream`.
//! * So is a λ no such lattice can hold, in every subcommand that takes
//!   one.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_input(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write test input");
    path
}

fn lint(path: &PathBuf, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .arg("lint")
        .arg(path)
        .args(flags)
        .output()
        .expect("spawn postal-cli")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(o: &Output) -> String {
    String::from_utf8(o.stderr.clone()).expect("utf-8 stderr")
}

/// A clean two-send broadcast at λ = 5/2.
const CLEAN: &str =
    r#"{"n":3,"lambda":"5/2","sends":[{"src":0,"dst":1,"at":0},{"src":0,"dst":2,"at":1}]}"#;

/// A lazy relay line: no errors, but P0006 and P0007 warnings.
const WARNING: &str =
    r#"{"n":3,"lambda":"5/2","sends":[{"src":0,"dst":1,"at":0},{"src":1,"dst":2,"at":"5/2"}]}"#;

/// Two sends half a unit apart from one output port: a P0001 error.
const ERROR: &str =
    r#"{"n":3,"lambda":"2","sends":[{"src":0,"dst":1,"at":0},{"src":0,"dst":2,"at":"1/2"}]}"#;

#[test]
fn json_reports_go_to_stdout_and_the_exit_code_keeps_the_verdict() {
    let cases = [
        ("clean.json", CLEAN, &[][..], 0, None),
        ("warning.json", WARNING, &[][..], 0, Some("P0006")),
        (
            "warning.json",
            WARNING,
            &["--deny", "warn"][..],
            1,
            Some("P0006"),
        ),
        ("error.json", ERROR, &[][..], 1, Some("P0001")),
    ];
    for (name, input, deny, code, finding) in cases {
        let path = write_input(name, input);
        let mut flags = vec!["--format", "json"];
        flags.extend_from_slice(deny);
        let out = lint(&path, &flags);
        let (so, se) = (stdout(&out), stderr(&out));
        assert_eq!(out.status.code(), Some(code), "{name} {deny:?}: {se}");
        assert!(
            se.is_empty(),
            "{name} {deny:?}: stderr must stay empty, got {se:?}"
        );
        let json = so.trim();
        assert!(
            json.starts_with('[') && json.ends_with(']'),
            "{name} {deny:?}: stdout is not a JSON array: {so:?}"
        );
        match finding {
            Some(code) => assert!(json.contains(code), "{name}: {json}"),
            None => assert_eq!(json.lines().filter(|l| l.contains("code")).count(), 0),
        }
    }
}

#[test]
fn text_reports_of_a_failing_lint_stay_on_stderr() {
    let path = write_input("error-text.json", ERROR);
    let out = lint(&path, &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).is_empty());
    assert!(stderr(&out).contains("P0001"), "{}", stderr(&out));
}

/// The largest `i128` as a start time, and its reciprocal: neither lies
/// on an `i64` tick lattice, and both used to overflow `Ratio`.
const HUGE_TIMES: [&str; 2] = [
    "170141183460469231731687303715884105727",
    "1/170141183460469231731687303715884105727",
];

fn assert_rejected(out: &Output, names: &str) {
    let se = stderr(out);
    assert_eq!(out.status.code(), Some(1), "{se}");
    assert!(se.starts_with("error: "), "{se}");
    assert!(se.contains(names), "error must name {names}: {se}");
    assert!(se.contains("out of range"), "{se}");
    assert!(!se.contains("panicked"), "{se}");
}

#[test]
fn out_of_range_schedule_times_are_rejected_not_panicked_on() {
    for (i, at) in HUGE_TIMES.iter().enumerate() {
        let path = write_input(
            &format!("huge-{i}.json"),
            &format!(
                r#"{{"n":3,"lambda":"2","sends":[{{"src":0,"dst":1,"at":0}},{{"src":0,"dst":2,"at":"{at}"}}]}}"#
            ),
        );
        assert_rejected(&lint(&path, &[]), "sends[1]");
        assert_rejected(&lint(&path, &["--format", "json"]), "sends[1]");
    }
}

#[test]
fn out_of_range_log_times_are_rejected_in_batch_and_stream_mode() {
    for (i, at) in HUGE_TIMES.iter().enumerate() {
        let log = format!(
            "{{\"type\":\"run\",\"engine\":\"event\",\"n\":3,\"lambda\":\"2\",\"messages\":1}}\n\
             {{\"type\":\"send\",\"seq\":0,\"src\":0,\"dst\":1,\"start\":\"0\",\"finish\":\"1\"}}\n\
             {{\"type\":\"send\",\"seq\":1,\"src\":0,\"dst\":2,\"start\":\"{at}\",\"finish\":\"1\"}}\n"
        );
        let path = write_input(&format!("huge-{i}.jsonl"), &log);
        assert_rejected(&lint(&path, &[]), "line 3");
        assert_rejected(&lint(&path, &["--stream"]), "line 3");
    }
}

/// A λ whose tick lattice needs a denominator past `i64`.
const HUGE_LAMBDA: &str = "1000000000000000000001/1000000000000000000000";

#[test]
fn a_lambda_off_every_i64_lattice_is_rejected_by_every_subcommand() {
    let l = HUGE_LAMBDA;
    let range = format!("1..{l}");
    let cases: [&[&str]; 11] = [
        &["tree", "14", l],
        &["gantt", "8", l],
        &["fib", l, "8"],
        &["svg", "8", l],
        &["optimal", "3", "2", l],
        &["plan", "512", "16", l],
        &["simulate", "bcast", "8", "1", l],
        &["stats", "pipeline", "8", "3", l],
        &["check", "--algo", "bcast", "--n", "8", "--lambda", l],
        &["analyze", "--algo", "line", "--n", "8", "--lambda-range", l],
        &[
            "analyze",
            "--algo",
            "all",
            "--n",
            "8",
            "--lambda-range",
            &range,
        ],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
            .args(args)
            .output()
            .expect("spawn postal-cli");
        let se = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {se}");
        assert!(se.starts_with("error: bad lambda"), "{args:?}: {se}");
        assert!(se.contains("out of range"), "{args:?}: {se}");
        assert!(!se.contains("panicked"), "{args:?}: {se}");
    }
}
