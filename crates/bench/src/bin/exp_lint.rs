//! Experiment LNT: million-send lint throughput.
//!
//! Generates broadcast-tree schedules at n ∈ {10³, 10⁴, 10⁵, 10⁶}
//! (λ = 5/2, the paper's running example), serializes each to the
//! `postal lint` JSON format, and times the full CLI-equivalent path —
//! streaming parse → every `P0001`–`P0007` pass → rendered summary —
//! reporting a sends/sec series to `BENCH_lint.json`, plus the parse
//! alone at n = 10⁶ (`parse_secs_n1000000`, `parse_mib_per_s_n1000000`).
//!
//! Two budget gates make this a regression tripwire, not just a report:
//!
//! * the n = 10⁶ end-to-end lint must finish under
//!   `$LINT_BUDGET_SECS` (default 10) seconds;
//! * the epoch race detector at 10⁵ flights must allocate under
//!   `$RACE_BUDGET_MIB` (default 64) MiB at peak — O(E + n), not the
//!   old O(E·n) vector-clock footprint.
//!
//! Peak footprint is measured by a counting global allocator (the
//! entire workspace's libraries are `#![forbid(unsafe_code)]`; this
//! binary hosts the one `unsafe impl` the measurement needs).

use postal_algos::{BroadcastTree, ToSchedule};
use postal_bench::report::BenchReport;
use postal_bench::table::Table;
use postal_model::Latency;
use postal_verify::{json, lint_schedule, render, Flight, LintOptions, Severity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// System allocator wrapped with live/peak byte counters.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper
// only maintains counters on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// Runs `f`, returning its result plus the peak allocation delta (bytes
/// above the live heap at entry) it caused.
fn with_peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = ALLOC.live.load(Ordering::Relaxed);
    ALLOC.peak.store(baseline, Ordering::Relaxed);
    let out = f();
    let peak = ALLOC.peak.load(Ordering::Relaxed);
    (out, peak.saturating_sub(baseline))
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let lam = Latency::from_ratio(5, 2);
    let lint_budget_secs = env_f64("LINT_BUDGET_SECS", 10.0);
    let race_budget_mib = env_f64("RACE_BUDGET_MIB", 64.0);

    let mut table = Table::new(
        "LNT: single-sweep lint throughput, BCAST tree schedules, λ = 5/2",
        &["n", "sends", "parse s", "lint s", "total s", "sends/sec"],
    );
    let mut report = BenchReport::new("lint");
    let mut worst_total = 0.0f64;

    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        let schedule = BroadcastTree::build(n, lam).to_schedule();
        let sends = schedule.len();
        let text = json::schedule_to_json(&schedule, Some(1));
        drop(schedule);

        // The CLI-equivalent path: streaming parse from a reader, the
        // full pass sweep, then the rendered verdict line.
        let parse_start = Instant::now();
        let parsed = json::parse_schedule_reader(std::io::Cursor::new(text.as_bytes()))
            .expect("generated schedule parses");
        let parse_secs = parse_start.elapsed().as_secs_f64();

        let lint_start = Instant::now();
        let diags = lint_schedule(&parsed.schedule, &LintOptions::default());
        let lint_secs = lint_start.elapsed().as_secs_f64();
        // The tree can warn (P0006 idle ports off the Fibonacci lattice)
        // but must never error — same bar as `postal lint`'s exit code.
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        assert!(
            errors == 0,
            "broadcast tree must lint error-free at n = {n}:\n{}",
            render::render_report(&diags, "exp_lint")
        );
        let summary = format!(
            "{} warnings, completes at t = {}",
            diags.len(),
            parsed.schedule.completion()
        );

        let total = parse_secs + lint_secs;
        worst_total = worst_total.max(total);
        let rate = sends as f64 / total;
        println!(
            "n = {n:>9}: {sends:>9} sends, parse {parse_secs:.3}s + lint {lint_secs:.3}s \
             = {total:.3}s  ({rate:.0} sends/sec)  [{summary:.60}]"
        );
        table.row(vec![
            n.to_string(),
            sends.to_string(),
            format!("{parse_secs:.3}"),
            format!("{lint_secs:.3}"),
            format!("{total:.3}"),
            format!("{rate:.0}"),
        ]);
        report.num(&format!("sends_per_sec_n{n}"), rate);
        if n == 1_000_000 {
            // The parse cost on its own: reported, not gated.
            let parse_mib_per_s = text.len() as f64 / (1024.0 * 1024.0) / parse_secs;
            println!("parse at n = 10^6: {parse_secs:.3}s, {parse_mib_per_s:.1} MiB/s");
            report
                .num("e2e_secs_n1000000", total)
                .num("lint_budget_secs", lint_budget_secs)
                .num("parse_secs_n1000000", parse_secs)
                .num("parse_mib_per_s_n1000000", parse_mib_per_s);
        }
    }

    // Race-detector footprint gate: 10⁵ flights through the epoch
    // detector must stay O(E + n), far under the old O(E·n) clocks.
    let n_race = 100_000u32;
    let flights: Vec<Flight> = BroadcastTree::build(n_race as u64, lam)
        .to_schedule()
        .sends()
        .iter()
        .enumerate()
        .map(|(i, s)| Flight {
            src: s.src,
            dst: s.dst,
            send_at: s.send_start.to_f64(),
            recv_at: (s.send_start + lam.as_time()).to_f64(),
            label: format!("s{i}"),
        })
        .collect();
    let (races, race_peak) = with_peak_delta(|| postal_verify::detect_races(n_race, &flights));
    let race_mib = race_peak as f64 / (1024.0 * 1024.0);
    println!(
        "race detector: {} flights, {} races, peak allocation {race_mib:.1} MiB \
         (budget {race_budget_mib} MiB)",
        flights.len(),
        races.len()
    );
    assert!(races.is_empty(), "broadcast tree flights must be race-free");

    println!("{table}");
    report
        .int("race_flights", flights.len() as i128)
        .num("race_peak_mib", race_mib)
        .num("race_budget_mib", race_budget_mib)
        .table(&table);
    postal_bench::report::emit_json(&report);

    let mut failed = false;
    if worst_total > lint_budget_secs {
        eprintln!(
            "error: n = 10^6 end-to-end lint took {worst_total:.3}s \
             (budget {lint_budget_secs}s)"
        );
        failed = true;
    }
    if race_mib > race_budget_mib {
        eprintln!(
            "error: race detector peaked at {race_mib:.1} MiB (budget {race_budget_mib} MiB)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
