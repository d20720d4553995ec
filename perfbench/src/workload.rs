//! The benchmark's workloads: the `postal-cli` command each one runs,
//! the inputs it generates from the seed, the oracle answers worked out
//! at set-up, and the checker every invocation's output must pass.

use postal_algos::{BroadcastTree, ToSchedule};
use postal_model::lint::reference::lint_schedule_reference;
use postal_model::lint::{LintOptions, Severity};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{runtimes, Latency, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `simulate bcast n 1 2 --format json`: the integer-lattice,
    /// single-message engine with the whole trace kept, then turned into
    /// an event log and rendered by all three exporters.
    SimBcastTrace,
    /// `simulate pipeline n 4 7/3 --lint-inline`: multi-message, every
    /// event on the exact-`Ratio` fallback, trace discarded, the
    /// streaming linter riding the run as its recorder.
    SimPipelineInline,
    /// `lint FILE --format json` on a BCAST-tree schedule at λ = 5/2
    /// with seeded port and causality errors: parse, index, passes and
    /// JSON output, no engine at all.
    LintFile,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimBcastTrace,
        Workload::SimPipelineInline,
        Workload::LintFile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBcastTrace => "sim-bcast-trace",
            Workload::SimPipelineInline => "sim-pipeline-inline",
            Workload::LintFile => "lint-file",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(base n, width of the seeded band above it)` at full size; the
    /// self-test runs the same code at tiny sizes.
    fn size(self, tiny: bool) -> (usize, usize) {
        match (self, tiny) {
            (Workload::SimBcastTrace, false) => (150_000, 1_500),
            (Workload::SimPipelineInline, false) => (40_000, 400),
            (Workload::LintFile, false) => (300_000, 3_000),
            (Workload::SimBcastTrace, true) => (40, 8),
            (Workload::SimPipelineInline, true) => (30, 8),
            (Workload::LintFile, true) => (3_000, 100),
        }
    }
}

/// What a correct invocation must print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `simulate`: the completion time as an exact rational string, the
    /// message count, and no model violations or error diagnostics.
    Simulate { completion: String, messages: u64 },
    /// `lint`: the exit code and the set of error codes the seed linter
    /// (`lint_schedule_reference`) reports for the generated schedule.
    Lint {
        exit_code: i32,
        error_codes: BTreeSet<String>,
    },
}

/// One workload instance, generated from a seed.
#[derive(Debug, Clone)]
pub struct Setup {
    pub workload: Workload,
    pub n: usize,
    pub m: u32,
    pub lambda: Latency,
    /// The `postal-cli` arguments.
    pub args: Vec<String>,
    /// The schedule file `lint-file` reads.
    pub input: Option<PathBuf>,
    /// Messages simulated, or sends linted, per invocation.
    pub work: u64,
    pub expect: Expect,
}

/// splitmix64: the seed's only use is through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Generates `workload`'s inputs for `seed` and works out the oracle
/// answers. `lint-file` writes its schedule into `dir`.
pub fn setup(workload: Workload, seed: u64, dir: &Path, tiny: bool) -> Result<Setup, String> {
    let mut rng = Rng::new(seed ^ 0x706f_7374_616c);
    let (base, band) = workload.size(tiny);
    let n = base + rng.below(band);
    let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match workload {
        Workload::SimBcastTrace => {
            let lambda = Latency::from_int(2);
            Ok(Setup {
                workload,
                n,
                m: 1,
                lambda,
                args: args(&[
                    "simulate",
                    "bcast",
                    &n.to_string(),
                    "1",
                    "2",
                    "--format",
                    "json",
                ]),
                input: None,
                work: n as u64 - 1,
                expect: Expect::Simulate {
                    completion: runtimes::bcast_time(n as u128, lambda).to_string(),
                    messages: n as u64 - 1,
                },
            })
        }
        Workload::SimPipelineInline => {
            let (m, lambda) = (4, Latency::from_ratio(7, 3));
            let messages = u64::from(m) * (n as u64 - 1);
            Ok(Setup {
                workload,
                n,
                m,
                lambda,
                args: args(&[
                    "simulate",
                    "pipeline",
                    &n.to_string(),
                    "4",
                    "7/3",
                    "--lint-inline",
                ]),
                input: None,
                work: messages,
                expect: Expect::Simulate {
                    completion: runtimes::pipeline_time(n as u128, u64::from(m), lambda)
                        .to_string(),
                    messages,
                },
            })
        }
        Workload::LintFile => {
            let lambda = Latency::from_ratio(5, 2);
            let sends = perturbed_tree(n, lambda, &mut rng);
            let path = dir.join("lint-file.json");
            write_schedule(&path, n, lambda, &sends)?;
            let work = sends.len() as u64;
            let diags = lint_schedule_reference(
                &Schedule::new(n as u32, lambda, sends),
                &LintOptions::broadcast_of(1),
            );
            let error_codes: BTreeSet<String> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.code.to_string())
                .collect();
            let path_arg = path.to_string_lossy().into_owned();
            Ok(Setup {
                workload,
                n,
                m: 1,
                lambda,
                args: args(&["lint", &path_arg, "--format", "json"]),
                input: Some(path),
                work,
                expect: Expect::Lint {
                    exit_code: if error_codes.is_empty() { 0 } else { 1 },
                    error_codes,
                },
            })
        }
    }
}

/// The optimal BCAST tree's sends over `n` processors, with one send in
/// a thousand (chosen by `rng`) moved half a unit: earlier when it can
/// be, which breaks the sender's port spacing (P0001) or sends before
/// the sender is informed (P0003); later for a send at t < 1/2.
fn perturbed_tree(n: usize, lambda: Latency, rng: &mut Rng) -> Vec<TimedSend> {
    let mut sends = BroadcastTree::build(n as u64, lambda)
        .to_schedule()
        .sends()
        .to_vec();
    let half = Time::new(1, 2);
    let mut moved = vec![false; sends.len()];
    for _ in 0..(sends.len() / 1000).max(1) {
        let i = rng.below(sends.len());
        if std::mem::replace(&mut moved[i], true) {
            continue;
        }
        let s = &mut sends[i];
        s.send_start = if s.send_start >= half {
            s.send_start - half
        } else {
            s.send_start + half
        };
    }
    sends
}

/// Writes the `postal lint` schedule format.
fn write_schedule(
    path: &Path,
    n: usize,
    lambda: Latency,
    sends: &[TimedSend],
) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    writeln!(w, "{{\"n\": {n}, \"lambda\": \"{lambda}\", \"sends\": [").map_err(fail)?;
    for (i, s) in sends.iter().enumerate() {
        let sep = if i + 1 == sends.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"src\": {}, \"dst\": {}, \"at\": \"{}\"}}{sep}",
            s.src, s.dst, s.send_start
        )
        .map_err(fail)?;
    }
    writeln!(w, "]}}").map_err(fail)?;
    w.flush().map_err(fail)
}

/// Checks one invocation against the oracle, returning the diagnostics
/// per lint code that it printed. The verdict comes from the exit code;
/// the report is read from whichever stream carries it, so moving
/// `lint`'s JSON from stderr to stdout changes nothing here.
pub fn check(
    s: &Setup,
    exit_code: Option<i32>,
    stdout: &str,
    stderr: &str,
) -> Result<BTreeMap<String, u64>, String> {
    match (&s.expect, s.workload) {
        (
            Expect::Simulate {
                completion,
                messages,
            },
            Workload::SimBcastTrace,
        ) => {
            expect_exit(exit_code, 0, stderr)?;
            let v = json::parse(stdout.trim()).map_err(|e| format!("summary is not JSON: {e}"))?;
            let field = |k: &str| v.get(k).ok_or_else(|| format!("summary lacks {k:?}"));
            let str_field = |k: &str| {
                field(k)?
                    .as_str()
                    .ok_or_else(|| format!("{k:?} is not a string"))
            };
            let num_field = |k: &str| {
                field(k)?
                    .as_u64()
                    .ok_or_else(|| format!("{k:?} is not a count"))
            };
            same("algo", str_field("algo")?, "bcast")?;
            same("n", num_field("n")?, s.n as u64)?;
            same(
                "lambda",
                str_field("lambda")?,
                s.lambda.to_string().as_str(),
            )?;
            same("completion", str_field("completion")?, completion.as_str())?;
            same("messages", num_field("messages")?, *messages)?;
            same("violations", num_field("violations")?, 0)?;
            Ok(BTreeMap::new())
        }
        (
            Expect::Simulate {
                completion,
                messages,
            },
            _,
        ) => {
            expect_exit(exit_code, 0, stderr)?;
            let line = |prefix: &str| {
                stdout
                    .lines()
                    .find_map(|l| l.strip_prefix(prefix))
                    .map(str::trim)
                    .ok_or_else(|| format!("output lacks a {prefix:?} line"))
            };
            let got = line("completion:")?;
            same(
                "completion",
                got.strip_suffix(" units").unwrap_or(got),
                completion.as_str(),
            )?;
            same("sends", line("sends:")?, messages.to_string().as_str())?;
            same("model violations", line("model violations:")?, "0")?;
            let listed: u64 = line("inline lint:")?
                .split_whitespace()
                .next()
                .and_then(|k| k.parse().ok())
                .ok_or("unreadable inline lint count")?;
            let mut diags = BTreeMap::new();
            for l in stdout.lines() {
                if let Some((severity, code)) = diagnostic_head(l) {
                    if severity == "error" {
                        return Err(format!("error diagnostic in output: {l}"));
                    }
                    *diags.entry(code.to_string()).or_insert(0) += 1;
                }
            }
            same("rendered diagnostics", diags.values().sum::<u64>(), listed)?;
            Ok(diags)
        }
        (
            Expect::Lint {
                exit_code: want,
                error_codes,
            },
            _,
        ) => {
            expect_exit(exit_code, *want, "")?;
            let report = [stdout, stderr]
                .into_iter()
                .find_map(|t| match json::parse(t.trim()) {
                    Ok(Value::Arr(items)) => Some(items),
                    _ => None,
                })
                .ok_or("neither stream holds a JSON diagnostics array")?;
            let mut diags = BTreeMap::new();
            let mut errors = BTreeSet::new();
            for d in &report {
                let code = d
                    .get("code")
                    .and_then(Value::as_str)
                    .ok_or("diagnostic without code")?;
                let severity = d
                    .get("severity")
                    .and_then(Value::as_str)
                    .ok_or("diagnostic without severity")?;
                if severity == "error" {
                    errors.insert(code.to_string());
                }
                *diags.entry(code.to_string()).or_insert(0) += 1;
            }
            same("error codes", errors, error_codes.clone())?;
            Ok(diags)
        }
    }
}

/// `(severity, code)` of a rendered diagnostic's first line, such as
/// `warning[P0006]: …`.
fn diagnostic_head(line: &str) -> Option<(&str, &str)> {
    let (severity, rest) = line.split_once('[')?;
    let (code, tail) = rest.split_once(']')?;
    let is_code =
        code.len() == 5 && code.starts_with('P') && code[1..].bytes().all(|b| b.is_ascii_digit());
    (matches!(severity, "error" | "warning" | "info") && is_code && tail.starts_with(':'))
        .then_some((severity, code))
}

fn expect_exit(got: Option<i32>, want: i32, stderr: &str) -> Result<(), String> {
    if got == Some(want) {
        return Ok(());
    }
    let tail: String = stderr.chars().take(300).collect();
    Err(format!(
        "exit code {got:?}, expected {want}; stderr: {tail}"
    ))
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use postal_cli::CliError;

    /// `postal-cli`'s `main`, in-process: exit code, stdout, stderr.
    pub fn cli(args: &[String]) -> (Option<i32>, String, String) {
        match postal_cli::run(args) {
            Ok(out) => (Some(0), format!("{out}\n"), String::new()),
            Err(CliError::Usage(msg)) => (Some(2), String::new(), format!("{msg}\n")),
            Err(CliError::Invalid(msg)) => (Some(1), String::new(), format!("error: {msg}\n")),
            Err(CliError::LintFailed(report)) => (Some(1), String::new(), report),
        }
    }

    /// A directory for test inputs, beside the test binary.
    pub fn scratch(name: &str) -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        let dir = exe
            .parent()
            .expect("test binary directory")
            .join("perfbench-selftest")
            .join(name);
        std::fs::create_dir_all(&dir).expect("create the self-test directory");
        dir
    }

    #[test]
    fn seeds_move_n_within_the_band_and_repeat() {
        let dir = scratch("seeds");
        let a = setup(Workload::SimBcastTrace, 7, &dir, false).unwrap();
        let b = setup(Workload::SimBcastTrace, 7, &dir, false).unwrap();
        assert_eq!((a.n, a.args), (b.n, b.args));
        let ns: BTreeSet<usize> = (0..20)
            .map(|seed| {
                setup(Workload::SimPipelineInline, seed, &dir, false)
                    .unwrap()
                    .n
            })
            .collect();
        assert!(ns.len() > 10 && ns.iter().all(|n| (40_000..40_400).contains(n)));
    }

    #[test]
    fn checkers_pass_real_output_and_reject_doctored_output() {
        for w in Workload::ALL {
            let s = setup(w, 3, &scratch(&format!("checkers-{}", w.name())), true).unwrap();
            let (code, out, err) = cli(&s.args);
            check(&s, code, &out, &err).unwrap_or_else(|e| panic!("{}: {e}", w.name()));

            let wrong_exit = if code == Some(0) { Some(1) } else { Some(0) };
            assert!(
                check(&s, wrong_exit, &out, &err).is_err(),
                "{}: exit code",
                w.name()
            );
            assert!(check(&s, None, &out, &err).is_err(), "{}: killed", w.name());

            let (doctored_out, doctored_err) = match &s.expect {
                Expect::Simulate { completion, .. } => {
                    let wrong = format!("{completion}1");
                    let out = match w {
                        Workload::SimBcastTrace => out.replace(
                            &format!("\"completion\": \"{completion}\""),
                            &format!("\"completion\": \"{wrong}\""),
                        ),
                        _ => out.replace(
                            &format!("completion: {completion} units"),
                            &format!("completion: {wrong} units"),
                        ),
                    };
                    (out, err.clone())
                }
                Expect::Lint { error_codes, .. } => {
                    assert!(error_codes.contains("P0001") || error_codes.contains("P0003"));
                    (
                        out.clone(),
                        err.replace("\"P0001\"", "\"P0002\"")
                            .replace("\"P0003\"", "\"P0002\""),
                    )
                }
            };
            assert!(
                check(&s, code, &doctored_out, &doctored_err).is_err(),
                "{}: doctored output passed",
                w.name()
            );
        }
    }

    #[test]
    fn lint_verdict_does_not_depend_on_the_stream() {
        let s = setup(Workload::LintFile, 5, &scratch("stream"), true).unwrap();
        let (code, out, err) = cli(&s.args);
        assert_eq!(code, Some(1));
        assert!(out.is_empty() && err.trim_start().starts_with('['));
        check(&s, code, &out, &err).unwrap();
        check(&s, code, &err, &out).unwrap();
    }

    #[test]
    fn simulate_checker_rejects_error_diagnostics_and_miscounts() {
        let s = setup(Workload::SimPipelineInline, 9, &scratch("pipe"), true).unwrap();
        let (code, out, err) = cli(&s.args);
        check(&s, code, &out, &err).unwrap();
        let with_error = format!("{out}\nerror[P0003]: sends before it is informed\n");
        assert!(check(&s, code, &with_error, &err).is_err());
        let Expect::Simulate { messages, .. } = s.expect else {
            unreachable!()
        };
        let miscounted = out.replace(&format!("{messages}"), &format!("{}", messages + 1));
        assert!(check(&s, code, &miscounted, &err).is_err());
    }
}
