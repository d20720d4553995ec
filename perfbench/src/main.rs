//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-bcast-trace --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the root of a checkout. It builds the release `postal-cli`
//! binary from source, generates the workload's inputs from `--seed`,
//! works out the oracle answers, and then:
//!
//! * `--trace 0`: runs the user's own `postal-cli` command as a child
//!   process, over and over for `--seconds`, checks every output, and
//!   reports the end-to-end metrics as medians;
//! * `--trace 1`: times a few untraced invocations, then repeats the
//!   CLI's call sequence in-process with a span around each layer call
//!   (see `layers.rs`) and reports the per-layer metrics.
//!
//! The last line of stdout is the result object; the line before it
//! carries the provenance stamp and sample counts. Everything the run
//! writes (inputs, child output, spans) goes under
//! `$CARGO_TARGET_DIR/perfbench/` (`target/perfbench/` by default).

mod json;
mod layers;
mod spawn;
mod stats;
mod tracer;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use workload::{Setup, Workload};

/// Every end-to-end metric, as `(name, unit, better)`; `BENCHMARK.json`
/// lists the same set with its bounds.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "lower"),
    ("msgs_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Set-up runs this often; `setup_s` is the median of its durations.
/// One set-up generates the inputs, works out the oracle answers and
/// runs the command once, checked, as a warm-up: so work that a change
/// moves out of the measured runs and into a first run still shows.
const SETUP_REPS: usize = 3;

/// A measuring loop stops once more checks than this have failed: the
/// numbers would no longer describe a working run.
const MAX_FAILED_CHECKS: u64 = 3;

/// Share of `--seconds` a traced run spends on untraced invocations.
const TRACE_UNTRACED_SHARE: f64 = 0.3;

const USAGE: &str = "usage: perfbench --workload <sim-bcast-trace|sim-pipeline-inline|lint-file> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or_else(|| format!("missing {k}"));
    let workload = take("--workload")?;
    let parsed = Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: take("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
            .ok_or("--seconds must be in (0, 120]")?,
        trace: match take("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(parsed),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Tallies of checked runs.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed on {what}: {e}");
        }
    }
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("perfbench").join("Cargo.toml").is_file() {
        return Err("run from the root of a checkout".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let scratch = target.join("perfbench");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let bin = spawn::build_cli(&root, &target)?;

    let mut checks = Checks::default();
    let mut detail = BTreeMap::new();
    let (setup, setup_s) = set_up(args, &bin, &scratch, &mut checks, &mut detail)?;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        traced(args, &setup, &bin, &scratch, &mut checks, &mut detail)?
    } else {
        untraced(
            args,
            &setup,
            &bin,
            &scratch,
            &setup_s,
            &mut checks,
            &mut detail,
        )?
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        metrics
            .iter()
            .map(|(name, unit, v)| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(*v),
                json::quote(unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    detail.insert(
        "error_rate",
        json::num(checks.failed as f64 / checks.attempted.max(1) as f64),
    );
    let stamp = stamp(&root, args, &setup, detail);
    Ok(vec![stamp, result])
}

/// Runs the set-up [`SETUP_REPS`] times, returning the last set-up and
/// every duration.
fn set_up(
    args: &Args,
    bin: &Path,
    scratch: &Path,
    checks: &mut Checks,
    detail: &mut BTreeMap<&'static str, String>,
) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let setup = workload::setup(args.workload, args.seed, scratch, false)?;
        invoke(&setup, bin, scratch, checks, detail)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(setup);
    }
    Ok((last.expect("SETUP_REPS is positive"), times))
}

/// Runs the user's command once and checks its output, returning the
/// outcome when the check passed. The last passing run's diagnostic
/// counts go into `detail`.
fn invoke(
    setup: &Setup,
    bin: &Path,
    scratch: &Path,
    checks: &mut Checks,
    detail: &mut BTreeMap<&'static str, String>,
) -> Result<Option<spawn::Outcome>, String> {
    let out = spawn::run(bin, &setup.args, scratch)?;
    let verdict = workload::check(setup, out.exit_code, &out.stdout, &out.stderr).map(|seen| {
        let counts: Vec<String> = seen
            .iter()
            .map(|(code, k)| format!("{}: {k}", json::quote(code)))
            .collect();
        detail.insert("diagnostics", format!("{{{}}}", counts.join(", ")));
    });
    let ok = verdict.is_ok();
    checks.record(setup.workload.name(), verdict);
    Ok(ok.then_some(out))
}

/// End-to-end: the user's command as a child process, repeated for
/// `--seconds`.
fn untraced(
    args: &Args,
    setup: &Setup,
    bin: &Path,
    scratch: &Path,
    setup_s: &[f64],
    checks: &mut Checks,
    detail: &mut BTreeMap<&'static str, String>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let (mut wall, mut rate, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while (wall.is_empty() || started.elapsed().as_secs_f64() < args.seconds)
        && checks.failed <= MAX_FAILED_CHECKS
    {
        if let Some(out) = invoke(setup, bin, scratch, checks, detail)? {
            wall.push(out.wall_s);
            rate.push(setup.work as f64 / out.wall_s);
            rss.push(out.peak_rss_kib as f64 / 1024.0);
        }
    }
    let quartiles = |xs: &[f64]| {
        format!(
            "[{}, {}, {}]",
            json::num(stats::quantile(xs, 0.25)),
            json::num(stats::median(xs)),
            json::num(stats::quantile(xs, 0.75))
        )
    };
    detail.insert("samples", wall.len().to_string());
    detail.insert("wall_s_quartiles", quartiles(&wall));
    detail.insert("setup_s_quartiles", quartiles(setup_s));
    let values = [
        stats::median(&wall),
        stats::median(&rate),
        stats::median(&rss),
        stats::median(setup_s),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), v)| (*name, *unit, v))
        .collect())
}

/// Per-layer: a share of `--seconds` on untraced invocations, then
/// in-process iterations of the CLI sequence, alternately with spans
/// and the ladder, and bare (to measure the tracing overhead).
fn traced(
    args: &Args,
    setup: &Setup,
    bin: &Path,
    scratch: &Path,
    checks: &mut Checks,
    detail: &mut BTreeMap<&'static str, String>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    while (walls.is_empty()
        || started.elapsed().as_secs_f64() < TRACE_UNTRACED_SHARE * args.seconds)
        && checks.failed <= MAX_FAILED_CHECKS
    {
        if let Some(out) = invoke(setup, bin, scratch, checks, detail)? {
            walls.push(out.wall_s);
        }
    }
    let mut tr = tracer::Tracer::new(true);
    let mut bare = tracer::Tracer::new(false);
    let (mut iters, mut bare_s) = (Vec::new(), Vec::new());
    while iters.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        tr.iter = iters.len();
        let traced = layers::iteration(&mut tr, setup, true);
        let t = Instant::now();
        let untraced = layers::iteration(&mut bare, setup, false);
        bare_s.push(t.elapsed().as_secs_f64());
        let failed = traced.is_err() || untraced.is_err();
        checks.record("untraced iteration", untraced.map(|_| ()));
        match traced {
            Ok(counts) => {
                iters.push(counts);
                checks.record("traced iteration", Ok(()));
            }
            Err(e) => checks.record("traced iteration", Err(e)),
        }
        if failed {
            break;
        }
    }
    if iters.is_empty() {
        return Err("no traced iteration passed its checks".into());
    }
    let spans_path = scratch.join(format!(
        "spans-{}-{}.jsonl",
        setup.workload.name(),
        args.seed
    ));
    tr.write(&spans_path)?;
    detail.insert("spans_file", json::quote(&spans_path.to_string_lossy()));
    detail.insert("samples", iters.len().to_string());
    detail.insert("untraced_samples", walls.len().to_string());
    let metrics = layers::per_layer(&tr, &iters, stats::median(&walls), &bare_s);
    Ok(layers::PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, *unit, metrics[name]))
        .collect())
}

/// The provenance line printed before the result.
fn stamp(
    root: &Path,
    args: &Args,
    setup: &Setup,
    detail: BTreeMap<&'static str, String>,
) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let sha = if root.join(".git").exists() {
        std::process::Command::new("git")
            .current_dir(root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", json::quote(setup.workload.name())),
        ("seed", args.seed.to_string()),
        ("n", setup.n.to_string()),
        ("m", setup.m.to_string()),
        ("lambda", json::quote(&setup.lambda.to_string())),
        (
            "run",
            json::quote(if args.trace { "traced" } else { "untraced" }),
        ),
        ("git_sha", sha.map_or("null".into(), |s| json::quote(&s))),
        (
            "source_fnv64",
            json::quote(&format!("{:016x}", source_digest(root))),
        ),
        ("rustc", json::quote(&rustc)),
        ("nproc", nproc.to_string()),
        ("profile", json::quote("release, codegen-units = 1")),
        ("seconds", json::num(args.seconds)),
    ];
    fields.extend(detail);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::quote(k)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

/// FNV-1a over the paths and bytes of the sources the program builds
/// from, so results name the code they measured even outside git.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn manifest() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Arr(items)) = v.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                let f = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_manifest_matches_the_code() {
        let v = manifest();
        let own = |t: &[(&str, &str, &str)]| {
            t.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&v, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload lint-file --seed 3 --seconds 2.5 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 2.5 && ok.workload == Workload::LintFile);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload lint-file --seed 1 --seconds 0 --trace 0",
            "--workload lint-file --seed 1 --seconds 1 --trace 2",
            "--workload lint-file --seed 1 --seconds 1",
            "--workload lint-file --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload lint-file --seed 1 --seed 2 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }
}
