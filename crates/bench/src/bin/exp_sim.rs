//! Experiment SIM: calendar-queue engine throughput at scale.
//!
//! Runs the paper's BCAST workload on the fast engine
//! ([`Simulation::run`]: `i64` lattice ticks, O(1) bucket queue)
//! across n ∈ {10³, 10⁴, 10⁵, 10⁶}, reporting wall-clock and events/sec
//! to `BENCH_sim.json`. Every run's completion time is checked against
//! the paper's closed form `f_λ(n)` by exact rational equality — the
//! speed ladder doubles as a correctness sweep.
//!
//! Two gates make this a regression tripwire:
//!
//! * BCAST at n = 10⁶ (two million engine events) must finish under
//!   `$SIM_BUDGET_SECS` (default 60) — the headline "million processors
//!   in seconds" property of the calendar-queue rewrite;
//! * at λ = 7/3, off the half-unit lattice (the fast engine counts
//!   sixths of a unit there), the fast engine must agree with the seed
//!   reference engine ([`Simulation::run_reference`]) on completion,
//!   event count, message count, and per-processor statistics. The full
//!   trace-identity pin lives in `tests/engine_differential.rs`; this
//!   gate keeps the release-mode refined-lattice path honest in CI.
//!
//! The reference engine is also timed at n ≤ 10⁵ for a speedup column;
//! at 10⁶ only the fast engine runs (the point of the rewrite).
//!
//! Memory is measured by a counting global allocator, so it is a count
//! and free of wall-clock noise. At every n a trace-free run (the mode
//! `simulate` uses) reports:
//!
//! * `heap_bytes_per_proc_n{n}` — peak heap above the baseline while
//!   building the programs and running them, per processor;
//! * `run_allocs_n{n}` — allocations (reallocations included) made
//!   inside `Simulation::run`, the programs built beforehand.
//!
//! At n = 10⁶ both are gated, against `heap_budget_bytes_per_proc`
//! and `run_allocs_budget`, which the report carries beside the values.

use postal_algos::bcast_programs;
use postal_bench::report::BenchReport;
use postal_bench::table::Table;
use postal_model::{runtimes, Latency};
use postal_sim::{Simulation, Uniform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Peak heap per processor allowed for BCAST at n = 10⁶.
const HEAP_BUDGET_BYTES_PER_PROC: usize = 256;
/// Allocations allowed inside `Simulation::run` for BCAST at n = 10⁶.
const RUN_ALLOCS_BUDGET: usize = 1_000;

/// System allocator wrapped with live/peak byte and allocation counters.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicUsize,
}

impl CountingAlloc {
    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper
// only maintains counters on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
    allocs: AtomicUsize::new(0),
};

/// BCAST(n, λ) built and run trace-free under the counting allocator:
/// `(peak heap bytes per processor, allocations inside the run)`.
fn bcast_memory(n: usize, lam: Latency) -> (usize, usize) {
    let uni = Uniform(lam);
    let sim = Simulation::new(n, &uni).discard_trace();
    let baseline = ALLOC.live.load(Ordering::Relaxed);
    ALLOC.peak.store(baseline, Ordering::Relaxed);
    let programs = bcast_programs(n, lam);
    let before = ALLOC.allocs.load(Ordering::Relaxed);
    let report = sim.run(programs).expect("bcast simulates");
    let run_allocs = ALLOC.allocs.load(Ordering::Relaxed) - before;
    let peak = ALLOC.peak.load(Ordering::Relaxed) - baseline;
    assert_eq!(report.messages(), n - 1);
    assert_eq!(report.completion, runtimes::bcast_time(n as u128, lam));
    (peak / n, run_allocs)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let budget_secs = env_f64("SIM_BUDGET_SECS", 60.0);
    let lam = Latency::from_int(2);

    let mut table = Table::new(
        "SIM: BCAST on the calendar-queue engine, λ = 2",
        &[
            "n",
            "fast secs",
            "fast ev/s",
            "ref secs",
            "speedup ×",
            "heap B/proc",
            "run allocs",
        ],
    );
    let mut report = BenchReport::new("sim");
    let mut fast_secs_at_million = f64::NAN;
    let mut memory_at_million = (0, 0);

    let uni = Uniform(lam);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let sim = Simulation::new(n, &uni);

        let start = Instant::now();
        let fast = sim.run(bcast_programs(n, lam)).expect("bcast simulates");
        let fast_secs = start.elapsed().as_secs_f64().max(1e-9);
        fast.assert_model_clean();
        assert_eq!(
            fast.completion,
            runtimes::bcast_time(n as u128, lam),
            "fast engine missed the closed form at n = {n}"
        );
        assert_eq!(fast.messages(), n - 1);
        let rate = fast.events as f64 / fast_secs;

        // The reference engine is the seed implementation; timing it at
        // 10⁶ would roughly double this job's wall-clock for a number
        // the differential tests already pin, so the ladder stops it at
        // 10⁵.
        let (ref_cell, speedup_cell) = if n <= 100_000 {
            let start = Instant::now();
            let reference = sim
                .run_reference(bcast_programs(n, lam))
                .expect("bcast simulates on the reference engine");
            let ref_secs = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(reference.completion, fast.completion);
            assert_eq!(reference.events, fast.events);
            report.num(&format!("ref_secs_n{n}"), ref_secs);
            report.num(&format!("speedup_x_n{n}"), ref_secs / fast_secs);
            (
                format!("{ref_secs:.3}"),
                format!("{:.2}", ref_secs / fast_secs),
            )
        } else {
            fast_secs_at_million = fast_secs;
            ("-".to_string(), "-".to_string())
        };

        let events = fast.events;
        drop(fast);
        let (heap_per_proc, run_allocs) = bcast_memory(n, lam);
        if n == 1_000_000 {
            memory_at_million = (heap_per_proc, run_allocs);
        }

        println!(
            "n = {n:>9}: fast {fast_secs:>8.3} s  ({rate:>12.0} ev/s)  ref {ref_cell:>8}  \
             heap {heap_per_proc} B/proc  run allocs {run_allocs}"
        );
        table.row(vec![
            n.to_string(),
            format!("{fast_secs:.3}"),
            format!("{rate:.0}"),
            ref_cell,
            speedup_cell,
            heap_per_proc.to_string(),
            run_allocs.to_string(),
        ]);
        report.num(&format!("fast_secs_n{n}"), fast_secs);
        report.num(&format!("events_per_sec_fast_n{n}"), rate);
        report.int(&format!("events_n{n}"), events as i128);
        report.int(&format!("heap_bytes_per_proc_n{n}"), heap_per_proc as i128);
        report.int(&format!("run_allocs_n{n}"), run_allocs as i128);
    }

    assert!(
        fast_secs_at_million < budget_secs,
        "BCAST at n = 10⁶ took {fast_secs_at_million:.1} s, over the {budget_secs:.0} s budget"
    );
    let (heap_per_proc, run_allocs) = memory_at_million;
    assert!(
        heap_per_proc <= HEAP_BUDGET_BYTES_PER_PROC,
        "BCAST at n = 10⁶ peaked at {heap_per_proc} B of heap per processor, \
         over the {HEAP_BUDGET_BYTES_PER_PROC} B budget"
    );
    assert!(
        run_allocs <= RUN_ALLOCS_BUDGET,
        "BCAST at n = 10⁶ made {run_allocs} allocations inside the run, \
         over the {RUN_ALLOCS_BUDGET} budget"
    );

    // Parity gate off half-unit ticks: λ = 7/3 puts the fast engine on
    // sixths of a unit (D = lcm(2, 3)), which must behave exactly like
    // the reference engine. The report keys keep their historical
    // `fallback_` names.
    let lam_off = Latency::from_ratio(7, 3);
    let n_off = 20_000usize;
    let uni_off = Uniform(lam_off);
    let sim = Simulation::new(n_off, &uni_off);
    let start = Instant::now();
    let fast = sim
        .run(bcast_programs(n_off, lam_off))
        .expect("off-lattice bcast simulates");
    let fast_off_secs = start.elapsed().as_secs_f64().max(1e-9);
    let start = Instant::now();
    let reference = sim
        .run_reference(bcast_programs(n_off, lam_off))
        .expect("off-lattice bcast simulates on the reference engine");
    let ref_off_secs = start.elapsed().as_secs_f64().max(1e-9);

    let mut mismatches = 0u32;
    mismatches += u32::from(fast.completion != reference.completion);
    mismatches += u32::from(fast.events != reference.events);
    mismatches += u32::from(fast.messages() != reference.messages());
    mismatches += u32::from(fast.proc_stats != reference.proc_stats);
    assert_eq!(
        mismatches, 0,
        "the fast engine diverged from the reference engine at λ = 7/3"
    );
    assert_eq!(
        fast.completion,
        runtimes::bcast_time(n_off as u128, lam_off)
    );
    println!(
        "λ = 7/3 parity: BCAST({n_off}, 7/3) fast {fast_off_secs:.3} s vs ref {ref_off_secs:.3} s, \
         completion {} on both engines",
        fast.completion
    );

    println!("{table}");
    report.num("sim_budget_secs", budget_secs);
    report.int(
        "heap_budget_bytes_per_proc",
        HEAP_BUDGET_BYTES_PER_PROC as i128,
    );
    report.int("run_allocs_budget", RUN_ALLOCS_BUDGET as i128);
    report.num("fallback_fast_secs", fast_off_secs);
    report.num("fallback_ref_secs", ref_off_secs);
    report.int("fallback_parity_mismatches", mismatches as i128);
    report.table(&table);
    postal_bench::report::emit_json(&report);
}
