//! Allocation budgets for the broadcast programs and the fast engine.
//!
//! A counting global allocator pins two properties of the hot path:
//!
//! * `Simulation::run` allocates per run, not per event. BCAST's
//!   cascades are sent straight from the split loop, the engine reuses
//!   one callback context, and drained calendar chunks are recycled,
//!   so a run's allocations are a handful of growing buffers.
//! * A program set shares one `F_λ` table. Building `n` programs costs
//!   the `n` boxes plus O(1), not one table per processor.
//!
//! Counts are per thread, so the harness's parallel tests do not
//! disturb each other.

use postal_algos::bcast_programs;
use postal_algos::pack::pack_programs;
use postal_algos::pipeline::pipeline_programs;
use postal_algos::repeat::{repeat_programs, Pacing};
use postal_model::Latency;
use postal_sim::{Program, Simulation, Uniform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator that counts the allocations of the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper
// only bumps a thread-local counter, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations (and
/// reallocations) it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const N: usize = 20_000;

/// Allocations made by `Simulation::run` alone, programs built first.
fn run_allocs<P: Clone>(n: usize, lam: Latency, programs: Vec<Box<dyn Program<P>>>) -> usize {
    let model = Uniform(lam);
    let sim = Simulation::new(n, &model);
    let (report, allocs) = counted(|| sim.run(programs).expect("simulates"));
    report.assert_model_clean();
    assert_eq!(report.messages(), report.trace.len());
    allocs
}

#[test]
fn bcast_run_allocates_per_run_not_per_event() {
    for lam in [Latency::from_int(2), Latency::from_ratio(7, 3)] {
        let allocs = run_allocs(N, lam, bcast_programs(N, lam));
        assert!(
            allocs < N / 100,
            "BCAST(n = {N}, λ = {lam}): {allocs} allocations inside run (budget < {})",
            N / 100
        );
    }
}

#[test]
fn pipeline_run_allocates_at_most_one_target_list_per_processor() {
    let lam = Latency::from_ratio(7, 3);
    let allocs = run_allocs(N, lam, pipeline_programs(N, 4, lam));
    assert!(
        allocs <= N,
        "PIPELINE(n = {N}, m = 4, λ = {lam}): {allocs} allocations inside run (budget ≤ {N})"
    );
}

#[test]
fn program_sets_share_one_table() {
    // One box per program, plus the program vector, the shared table
    // and its `Arc`: anything per-processor beyond the box would cost
    // another N.
    const SLACK: usize = 16;
    let lam = Latency::from_ratio(7, 3);
    let builds: [(&str, usize); 4] = [
        ("BCAST", counted(|| bcast_programs(N, lam)).1),
        ("PACK", counted(|| pack_programs(N, 4, lam)).1),
        ("PIPELINE", counted(|| pipeline_programs(N, 4, lam)).1),
        (
            "REPEAT",
            counted(|| repeat_programs(N, 4, lam, Pacing::PaperExact)).1,
        ),
    ];
    for (name, allocs) in builds {
        assert!(
            allocs <= N + SLACK,
            "building {name} for n = {N}: {allocs} allocations (budget ≤ n + {SLACK})"
        );
    }
}
