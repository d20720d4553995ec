//! The traced run: each workload's `postal-cli` call sequence repeated
//! in-process with a span around every call into a layer, then every
//! other layer run on the same workload's data, so each per-layer
//! metric is measured on each workload.
//!
//! `postal-cli` depends on this repository's bench crate, so nothing the
//! CLI links can call it back; the sequences below mirror its code path
//! call for call instead, under the root span [`ROOT`]:
//!
//! * `simulate bcast … --format json`: `bcast_programs` →
//!   `Simulation::run` (trace kept) → `log_from_report` → the Chrome,
//!   JSONL and Prometheus exporters (rendered even with no `--*-out`).
//! * `simulate pipeline … --lint-inline`: `pipeline_programs` →
//!   `Simulation::run` with a `LintSink` recorder and the trace
//!   discarded → `LintStream::finish` → `render_report`.
//! * `lint FILE --format json`: `parse_schedule_reader` →
//!   `ScheduleIndex::build` + the standard pass sweep (what
//!   `lint_schedule` does) → `diagnostics_to_json`.
//!
//! Outside the root, the ladder runs what the command did not: the
//! engine four ways (`sim.run_trace` keeps the trace, `sim.run_discard`
//! calls `discard_trace()`, `sim.run_null` observes a `NullRecorder`,
//! `sim.run_lint` a `LintSink`), the event log and exporters on the kept
//! trace, and the batch linter on that run's schedule as JSON; on
//! `lint-file` the engine runs the BCAST tree the file holds. Then each
//! `P0001`–`P0007` pass alone over a prebuilt index, the streaming
//! linter, and the text renderer. Derived metrics:
//! `sim.trace_s` = `sim.run_trace_s` − `sim.run_discard_s`;
//! `obs.lint_sink_s` = `sim.run_lint` − `sim.run_null`;
//! `sim.events_per_s` = `sim.events` / `sim.run_discard_s`;
//! `model.lint.stream_batch_ratio` = `model.lint.stream_s` /
//! `model.lint.batch_s`; `sim.queue_s` replays the run's event count
//! through a bare `CalendarQueue`; `cli.unattributed_s` is the untraced
//! `wall_s` minus the self times of every layer span under the root.
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! | per-layer metrics | moves | workload | elsewhere |
//! |---|---|---|---|
//! | `algos.build_s` | `wall_s` | both `sim-*` | — |
//! | `sim.run_discard_s`, `sim.events`, `sim.events_per_s`, `sim.queue_s` | `msgs_per_s` | both `sim-*` | no change on `lint-file` |
//! | `sim.trace_s`, `sim.obs.log_s`, `obs.events`, `obs.export.*` | `wall_s`, `peak_rss_mib` | `sim-bcast-trace` | no change |
//! | `obs.lint_sink_s`, `model.lint.stream_bytes`, `model.lint.stream_sends` | `wall_s` | `sim-pipeline-inline` | none on `sim-bcast-trace` |
//! | `verify.parse_*`, `model.lint.index_s`, `model.lint.pass.*`, `model.lint.batch_s`, `model.lint.stream_batch_ratio` | `wall_s` | `lint-file` | none on `sim-*` |
//! | `verify.render_s`, `verify.render_bytes`, `verify.json_s` | `wall_s` | `lint-file`, `sim-pipeline-inline` | — |

use postal_algos::{bcast_programs, pipeline::pipeline_programs};
use postal_model::lint::passes::{
    CausalityPass, CoveragePass, IdlePortPass, InputWindowPass, MalformedSendPass, OptimalityPass,
    OutputPortPass,
};
use postal_model::lint::{
    lint_schedule_streaming, Diagnostic, LintOptions, LintPass, PassManager, ScheduleIndex,
    Severity,
};
use postal_model::schedule::Schedule;
use postal_model::{FastTime, Latency};
use postal_obs::{to_chrome_trace, to_jsonl, to_prometheus, LintSink, NullRecorder};
use postal_sim::{log_from_report, CalendarQueue, Lane, Program, RunReport, Simulation, Uniform};
use postal_verify::{json, render};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::BufRead;

use crate::tracer::Tracer;
use crate::workload::{Expect, Setup, Workload};

/// Every per-layer metric, as `(name, unit, better)`. `BENCHMARK.json`
/// lists the same set; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("algos.build_s", "s", "lower"),
    ("algos.peak_mib", "MiB", "lower"),
    ("sim.run_trace_s", "s", "lower"),
    ("sim.run_discard_s", "s", "lower"),
    ("sim.trace_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.queue_s", "s", "lower"),
    ("sim.peak_mib", "MiB", "lower"),
    ("sim.obs.log_s", "s", "lower"),
    ("sim.obs.peak_mib", "MiB", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.export.chrome_s", "s", "lower"),
    ("obs.export.jsonl_s", "s", "lower"),
    ("obs.export.prometheus_s", "s", "lower"),
    ("obs.export.bytes", "B", "lower"),
    ("obs.export.peak_mib", "MiB", "lower"),
    ("obs.lint_sink_s", "s", "lower"),
    ("model.lint.stream_bytes", "B", "lower"),
    ("model.lint.stream_sends", "count", "lower"),
    ("model.lint.stream_finish_s", "s", "lower"),
    ("verify.parse_s", "s", "lower"),
    ("verify.parse_mib_per_s", "MiB/s", "higher"),
    ("verify.parse.peak_mib", "MiB", "lower"),
    ("model.lint.index_s", "s", "lower"),
    ("model.lint.sweep_s", "s", "lower"),
    ("model.lint.batch_s", "s", "lower"),
    ("model.lint.pass.P0001_s", "s", "lower"),
    ("model.lint.pass.P0002_s", "s", "lower"),
    ("model.lint.pass.P0003_s", "s", "lower"),
    ("model.lint.pass.P0004_s", "s", "lower"),
    ("model.lint.pass.P0005_s", "s", "lower"),
    ("model.lint.pass.P0006_s", "s", "lower"),
    ("model.lint.pass.P0007_s", "s", "lower"),
    ("model.lint.stream_s", "s", "lower"),
    ("model.lint.stream_batch_ratio", "ratio", "lower"),
    ("model.lint.peak_mib", "MiB", "lower"),
    ("model.lint.diag.P0001", "count", "lower"),
    ("model.lint.diag.P0002", "count", "lower"),
    ("model.lint.diag.P0003", "count", "lower"),
    ("model.lint.diag.P0004", "count", "lower"),
    ("model.lint.diag.P0005", "count", "lower"),
    ("model.lint.diag.P0006", "count", "lower"),
    ("model.lint.diag.P0007", "count", "lower"),
    ("verify.render_s", "s", "lower"),
    ("verify.render_bytes", "B", "lower"),
    ("verify.json_s", "s", "lower"),
    ("verify.render.peak_mib", "MiB", "lower"),
    ("cli.traced_s", "s", "lower"),
    ("cli.untraced_wall_s", "s", "lower"),
    ("cli.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Spans whose self time is reported as `<name>_s`.
const TIMED_SPANS: &[&str] = &[
    "algos.build",
    "sim.run_trace",
    "sim.run_discard",
    "sim.queue",
    "sim.obs.log",
    "obs.export.chrome",
    "obs.export.jsonl",
    "obs.export.prometheus",
    "model.lint.stream_finish",
    "verify.parse",
    "model.lint.index",
    "model.lint.sweep",
    "model.lint.pass.P0001",
    "model.lint.pass.P0002",
    "model.lint.pass.P0003",
    "model.lint.pass.P0004",
    "model.lint.pass.P0005",
    "model.lint.pass.P0006",
    "model.lint.pass.P0007",
    "model.lint.stream",
    "verify.render",
    "verify.json",
];

/// `<layer>.peak_mib` is the largest peak among these spans.
const PEAKS: &[(&str, &[&str])] = &[
    ("algos.peak_mib", &["algos.build"]),
    (
        "sim.peak_mib",
        &[
            "sim.run_trace",
            "sim.run_discard",
            "sim.run_null",
            "sim.run_lint",
        ],
    ),
    ("sim.obs.peak_mib", &["sim.obs.log"]),
    (
        "obs.export.peak_mib",
        &[
            "obs.export.chrome",
            "obs.export.jsonl",
            "obs.export.prometheus",
        ],
    ),
    ("verify.parse.peak_mib", &["verify.parse"]),
    (
        "model.lint.peak_mib",
        &["model.lint.batch", "model.lint.stream_finish"],
    ),
    ("verify.render.peak_mib", &["verify.render", "verify.json"]),
];

/// The root span around one in-process repetition of the CLI sequence.
pub const ROOT: &str = "cli";

/// Counts one iteration produced, keyed by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Runs one iteration: the CLI sequence under [`ROOT`], then, when
/// `ladder` is set, every other layer (see the module docs). Returns the
/// iteration's counts, or a message when its results disagree with the
/// oracle.
pub fn iteration(tr: &mut Tracer, s: &Setup, ladder: bool) -> Result<Counts, String> {
    let mut c = Counts::new();
    match s.workload {
        Workload::SimBcastTrace => {
            let build = || bcast_programs(s.n, s.lambda);
            let (report, _) = tr.span(ROOT, |tr| {
                let programs = tr.span("algos.build", |_| build());
                let run = engine(tr, s, Run::Trace, programs, &mut c)?;
                export(tr, s, &run.0, &mut c);
                Ok::<_, String>(run)
            })?;
            expect_run(s, &report, report.messages() as u64)?;
            if ladder {
                let inline = complete(tr, s, build, Some(report), None, &mut c)?;
                count_diags(&mut c, &inline)?;
            }
        }
        Workload::SimPipelineInline => {
            let build = || pipeline_programs(s.n, s.m, s.lambda);
            let (report, diags) = tr.span(ROOT, |tr| {
                let programs = tr.span("algos.build", |_| build());
                let (report, diags) = engine(tr, s, Run::Lint, programs, &mut c)?;
                let text = tr.span("verify.render", |_| {
                    render::render_report(&diags, "pipeline")
                });
                c.insert("verify.render_bytes", text.len() as f64);
                Ok::<_, String>((report, diags))
            })?;
            expect_run(s, &report, c["model.lint.stream_sends"] as u64)?;
            count_diags(&mut c, &diags)?;
            if ladder {
                complete(tr, s, build, None, None, &mut c)?;
            }
        }
        Workload::LintFile => {
            let path = s.input.as_ref().ok_or("lint-file has no input file")?;
            let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
            c.insert("verify.parse_bytes", bytes as f64);
            let open = || std::fs::File::open(path).map(std::io::BufReader::new);
            let linted = tr.span(ROOT, |tr| batch_lint(tr, open))?;
            count_diags(&mut c, &linted.2)?;
            let errors: BTreeSet<String> = linted
                .2
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.code.to_string())
                .collect();
            match &s.expect {
                Expect::Lint { error_codes, .. } if *error_codes == errors => {}
                want => {
                    return Err(format!(
                        "in-process lint gave errors {errors:?}, oracle says {want:?}"
                    ))
                }
            }
            if ladder {
                let build = || bcast_programs(s.n, s.lambda);
                complete(tr, s, build, None, Some(linted), &mut c)?;
            }
        }
    }
    Ok(c)
}

fn expect_run<P>(s: &Setup, report: &RunReport<P>, messages: u64) -> Result<(), String> {
    if !report.violations.is_empty() {
        return Err(format!("{} model violations", report.violations.len()));
    }
    let want = Expect::Simulate {
        completion: report.completion.to_string(),
        messages,
    };
    if want == s.expect {
        Ok(())
    } else {
        Err(format!(
            "in-process run gave {want:?}, oracle says {:?}",
            s.expect
        ))
    }
}

/// The four ways the ladder runs the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Trace kept, no recorder: what `simulate` does without flags.
    Trace,
    /// `discard_trace()`, no recorder.
    Discard,
    /// `discard_trace()`, observed by a `NullRecorder`.
    Null,
    /// `discard_trace()`, observed by a `LintSink`: `--lint-inline`.
    Lint,
}

impl Run {
    const ALL: [Run; 4] = [Run::Trace, Run::Discard, Run::Null, Run::Lint];

    fn span(self) -> &'static str {
        match self {
            Run::Trace => "sim.run_trace",
            Run::Discard => "sim.run_discard",
            Run::Null => "sim.run_null",
            Run::Lint => "sim.run_lint",
        }
    }
}

/// One engine run of `programs`, plus the inline linter's diagnostics
/// for [`Run::Lint`] (empty otherwise).
fn engine<P: Clone>(
    tr: &mut Tracer,
    s: &Setup,
    run: Run,
    programs: Vec<Box<dyn Program<P>>>,
    c: &mut Counts,
) -> Result<(RunReport<P>, Vec<Diagnostic>), String> {
    let model = Uniform(s.lambda);
    let sink = (run == Run::Lint).then(|| {
        LintSink::new(
            s.n as u32,
            s.lambda,
            LintOptions::broadcast_of(u64::from(s.m)),
        )
    });
    let report = tr.span(run.span(), |_| {
        let sim = Simulation::new(s.n, &model);
        match (run, &sink) {
            (Run::Trace, _) => sim.run(programs),
            (Run::Discard, _) => sim.discard_trace().run(programs),
            (Run::Null, _) => sim.observe(&NullRecorder).discard_trace().run(programs),
            (Run::Lint, Some(sink)) => sim.observe(sink).discard_trace().run(programs),
            (Run::Lint, None) => unreachable!("the sink is built for Run::Lint"),
        }
    });
    let report = report.map_err(|e| format!("simulation failed: {e}"))?;
    c.insert("sim.events", report.events as f64);
    let diags = match sink {
        Some(sink) => tr.span("model.lint.stream_finish", |_| {
            let stream = sink.finish();
            c.insert("model.lint.stream_bytes", stream.memory_bytes() as f64);
            c.insert("model.lint.stream_sends", stream.sends_observed() as f64);
            stream.finish()
        }),
        None => Vec::new(),
    };
    Ok((report, diags))
}

/// The event log and the three exporters over a trace-kept run.
fn export<P>(tr: &mut Tracer, s: &Setup, report: &RunReport<P>, c: &mut Counts) {
    let log = tr.span("sim.obs.log", |_| {
        log_from_report(
            report,
            "event",
            s.n as u32,
            Some(s.lambda),
            Some(u64::from(s.m)),
        )
    });
    let bytes = tr.span("obs.export.chrome", |_| to_chrome_trace(&log).len())
        + tr.span("obs.export.jsonl", |_| to_jsonl(&log).len())
        + tr.span("obs.export.prometheus", |_| to_prometheus(&log).len());
    c.insert("obs.events", log.events().len() as f64);
    c.insert("obs.export.bytes", bytes as f64);
}

/// A parsed schedule, its lint options and its batch diagnostics.
type Linted = (Schedule, LintOptions, Vec<Diagnostic>);

/// `lint --format json`: parse what `open` reads, index, sweep, JSON.
fn batch_lint<R: BufRead>(
    tr: &mut Tracer,
    open: impl FnOnce() -> std::io::Result<R>,
) -> Result<Linted, String> {
    let parsed = tr.span("verify.parse", |_| {
        json::parse_schedule_reader(open().map_err(|e| e.to_string())?).map_err(|e| e.to_string())
    })?;
    let opts = LintOptions::broadcast_of(parsed.messages.unwrap_or(1));
    let schedule = parsed.schedule;
    let diags = tr.span("model.lint.batch", |tr| {
        let index = tr.span("model.lint.index", |_| ScheduleIndex::build(&schedule));
        tr.span("model.lint.sweep", |_| {
            PassManager::standard().run_with_index(&index, &schedule, &opts)
        })
    });
    tr.span("verify.json", |_| json::diagnostics_to_json(&diags).len());
    Ok((schedule, opts, diags))
}

/// The ladder: every layer the workload's command did not call, on the
/// workload's own data. `kept` is the command's trace-kept run and
/// `linted` its batch lint, when it made them. Returns the inline
/// linter's diagnostics when the ladder ran it.
fn complete<P: Clone>(
    tr: &mut Tracer,
    s: &Setup,
    build: impl Fn() -> Vec<Box<dyn Program<P>>>,
    mut kept: Option<RunReport<P>>,
    linted: Option<Linted>,
    c: &mut Counts,
) -> Result<Vec<Diagnostic>, String> {
    let mut inline = Vec::new();
    for run in Run::ALL {
        if tr.ran(run.span()) {
            continue;
        }
        let programs = if tr.ran("algos.build") {
            build()
        } else {
            tr.span("algos.build", |_| build())
        };
        let (report, diags) = engine(tr, s, run, programs, c)?;
        match run {
            Run::Trace => kept = Some(report),
            Run::Lint => inline = diags,
            Run::Discard | Run::Null => {}
        }
    }
    let kept = kept.ok_or("no trace-kept run")?;
    tr.span("sim.queue", |_| queue_replay(kept.events, s.lambda));
    if !tr.ran("sim.obs.log") {
        export(tr, s, &kept, c);
    }
    let (schedule, opts, diags) = match linted {
        Some(linted) => linted,
        None => {
            let schedule = kept.trace.to_schedule(s.n as u32, s.lambda);
            drop(kept);
            let text = json::schedule_to_json(&schedule, Some(u64::from(s.m)));
            c.insert("verify.parse_bytes", text.len() as f64);
            batch_lint(tr, || Ok(text.as_bytes()))?
        }
    };
    let index = ScheduleIndex::build(&schedule);
    let passes: [(&'static str, Box<dyn LintPass>); 7] = [
        ("model.lint.pass.P0001", Box::new(OutputPortPass)),
        ("model.lint.pass.P0002", Box::new(InputWindowPass)),
        ("model.lint.pass.P0003", Box::new(CausalityPass)),
        ("model.lint.pass.P0004", Box::new(MalformedSendPass)),
        ("model.lint.pass.P0005", Box::new(CoveragePass)),
        ("model.lint.pass.P0006", Box::new(IdlePortPass)),
        ("model.lint.pass.P0007", Box::new(OptimalityPass)),
    ];
    for (name, pass) in passes {
        let alone = PassManager::empty().with_pass(pass);
        tr.span(name, |_| {
            black_box(alone.run_with_index(&index, &schedule, &opts)).len()
        });
    }
    drop(index);
    tr.span("model.lint.stream", |_| {
        black_box(lint_schedule_streaming(&schedule, &opts)).len()
    });
    if !tr.ran("verify.render") {
        let text = tr.span("verify.render", |_| {
            render::render_report(&diags, s.workload.name())
        });
        c.insert("verify.render_bytes", text.len() as f64);
    }
    Ok(inline)
}

/// Adds `model.lint.diag.<code>` counts; a code outside P0001–P0007
/// means the run did something this benchmark does not expect.
fn count_diags(c: &mut Counts, diags: &[Diagnostic]) -> Result<(), String> {
    for d in diags {
        let name = PER_LAYER
            .iter()
            .map(|(name, _, _)| *name)
            .find(|name| name.strip_prefix("model.lint.diag.") == Some(d.code.as_str()))
            .ok_or_else(|| format!("unexpected diagnostic {}", d.code))?;
        *c.entry(name).or_insert(0.0) += 1.0;
    }
    Ok(())
}

/// Pushes and pops `events` items through a [`CalendarQueue`] in a
/// BCAST-like pattern at latency `lambda`: every popped item re-arms its
/// port one unit later and delivers λ later. Off the half-unit lattice
/// (λ = 7/3) every push takes the queue's exact-time fallback, as the
/// engine's own events do.
fn queue_replay(events: u64, lambda: Latency) -> u64 {
    let mut q = CalendarQueue::new();
    let lat = lambda.as_fast_time();
    q.push(FastTime::ZERO, Lane::Arrival, 0u32);
    let (mut pushed, mut popped) = (1u64, 0u64);
    while let Some((t, _, x)) = q.pop() {
        popped += 1;
        for (dt, lane) in [(FastTime::ONE, Lane::Wake), (lat, Lane::Deliver)] {
            if pushed < events {
                q.push(t + dt, lane, x.wrapping_add(1));
                pushed += 1;
            }
        }
    }
    popped
}

/// Folds the iterations' spans and counts into the per-layer metrics:
/// the median over iterations of each value.
pub fn per_layer(
    tr: &Tracer,
    iters: &[Counts],
    untraced_wall_s: f64,
    untraced_inprocess_s: &[f64],
) -> BTreeMap<&'static str, f64> {
    let own = tr.self_times();
    let mut per_iter: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); iters.len()];
    for (span, own) in tr.spans().iter().zip(&own) {
        // Spans of an iteration that failed its checks have no counts.
        let Some(m) = per_iter.get_mut(span.iter) else {
            continue;
        };
        if let Some(name) = TIMED_SPANS.iter().find(|n| **n == span.name) {
            *m.entry(metric_name(name, "_s")).or_insert(0.0) += own;
        }
        for (metric, spans) in PEAKS {
            if spans.contains(&span.name) {
                let mib = span.peak_bytes as f64 / (1024.0 * 1024.0);
                let e = m.entry(metric).or_insert(0.0);
                *e = e.max(mib);
            }
        }
        match span.name {
            "model.lint.batch" => *m.entry("model.lint.batch_s").or_insert(0.0) += span.duration(),
            "sim.run_null" => *m.entry("sim.run_null_s").or_insert(0.0) += own,
            "sim.run_lint" => *m.entry("sim.run_lint_s").or_insert(0.0) += own,
            ROOT => {
                *m.entry("cli.traced_s").or_insert(0.0) += span.duration();
                *m.entry("cli.layers_s").or_insert(0.0) += span.duration() - own;
            }
            _ => {}
        }
    }
    for (m, counts) in per_iter.iter_mut().zip(iters) {
        m.extend(counts.iter().map(|(k, v)| (*k, *v)));
        let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let ratio = |m: &BTreeMap<&str, f64>, a: &str, b: &str| {
            let (a, b) = (get(m, a), get(m, b));
            if b > 0.0 {
                a / b
            } else {
                0.0
            }
        };
        let derived = [
            (
                "sim.trace_s",
                get(m, "sim.run_trace_s") - get(m, "sim.run_discard_s"),
            ),
            (
                "obs.lint_sink_s",
                get(m, "sim.run_lint_s") - get(m, "sim.run_null_s"),
            ),
            (
                "sim.events_per_s",
                ratio(m, "sim.events", "sim.run_discard_s"),
            ),
            (
                "verify.parse_mib_per_s",
                ratio(m, "verify.parse_bytes", "verify.parse_s") / (1024.0 * 1024.0),
            ),
            (
                "model.lint.stream_batch_ratio",
                ratio(m, "model.lint.stream_s", "model.lint.batch_s"),
            ),
        ];
        m.extend(derived);
    }
    let median_of = |k: &str| {
        let xs: Vec<f64> = per_iter.iter().filter_map(|m| m.get(k).copied()).collect();
        if xs.is_empty() {
            0.0
        } else {
            crate::stats::median(&xs)
        }
    };
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, median_of(name)))
        .collect();
    out.insert("cli.untraced_wall_s", untraced_wall_s);
    out.insert(
        "cli.unattributed_s",
        untraced_wall_s - median_of("cli.layers_s"),
    );
    out.insert(
        "trace.overhead_s",
        median_of("cli.traced_s") - crate::stats::median(untraced_inprocess_s),
    );
    out
}

/// The `PER_LAYER` entry spelled `<span><suffix>`.
fn metric_name(span: &str, suffix: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _, _)| *name)
        .find(|name| name.strip_suffix(suffix) == Some(span))
        .unwrap_or_else(|| panic!("no per-layer metric for span {span}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{setup, tests::scratch};

    #[test]
    fn traced_iterations_give_every_metric_at_tiny_size() {
        for w in Workload::ALL {
            let s = setup(w, 4, &scratch(&format!("layers-{}", w.name())), true).unwrap();
            let mut tr = Tracer::new(true);
            let iters: Vec<Counts> = (0..2)
                .map(|i| {
                    tr.iter = i;
                    iteration(&mut tr, &s, true).unwrap()
                })
                .collect();
            let bare = iteration(&mut Tracer::new(false), &s, false).unwrap();
            let spanned = iteration(&mut Tracer::new(true), &s, false).unwrap();
            assert_eq!(bare, spanned, "{}: counts depend on tracing", w.name());
            let m = per_layer(&tr, &iters, 0.5, &[0.1]);
            assert_eq!(m.len(), PER_LAYER.len());
            assert!(m.values().all(|v| v.is_finite()), "{}: {m:?}", w.name());
            // Every layer is timed on every workload; only differences
            // of two timings may come out at or below zero.
            let differences = [
                "sim.trace_s",
                "obs.lint_sink_s",
                "cli.unattributed_s",
                "trace.overhead_s",
            ];
            for (name, unit, _) in PER_LAYER {
                if *unit == "s" && !differences.contains(name) {
                    assert!(m[name] > 0.0, "{}: {name} = {}", w.name(), m[name]);
                }
            }
            for k in [
                "sim.events",
                "obs.events",
                "obs.export.bytes",
                "verify.render_bytes",
            ] {
                assert!(m[k] > 0.0, "{}: {k} = {}", w.name(), m[k]);
            }
            let messages = f64::from(s.m) * (s.n as f64 - 1.0);
            assert_eq!(m["sim.events"], 2.0 * messages, "{}", w.name());
            assert_eq!(m["model.lint.stream_sends"], messages, "{}", w.name());
            assert_eq!(m["cli.untraced_wall_s"], 0.5);
        }
    }

    #[test]
    fn queue_replay_pops_every_push() {
        assert_eq!(queue_replay(1_000, Latency::from_int(2)), 1_000);
        assert_eq!(queue_replay(999, Latency::from_ratio(7, 3)), 999);
    }
}
