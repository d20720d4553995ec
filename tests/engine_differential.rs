//! Differential harness pinning the fast calendar-queue engine to the
//! seed binary-heap engine.
//!
//! [`Simulation::run`] (fast: `i64` ticks on the run's tick lattice,
//! O(1) bucket queue, u32 processor ids) and [`Simulation::run_reference`]
//! (the original exact-`Ratio` engine, kept verbatim) must be
//! *behaviorally indistinguishable*: same completion time, same trace
//! (every transfer field, in the same order), same violations, same
//! per-processor statistics, same per-port occupancy, and the same
//! observability event stream — across every paper algorithm, both
//! port-contention modes, fault plans, jittered, hierarchical and
//! time-varying latency, λ with denominators 3 and 5 (which move the
//! fast engine off half-unit ticks), off-lattice wake-ups (which refine
//! its lattice mid-run), and event-budget truncation. Uniform runs are
//! also pinned to the time-stepped [`run_lockstep`] engine.
//!
//! Any future change to the fast path that shifts an event by half a
//! tick, reorders a tie, or drops an observability record fails here
//! with the first diverging case named in the panic message.

use postal::algos::dtree::dtree_programs;
use postal::algos::pack::pack_programs;
use postal::algos::pipeline::pipeline_programs;
use postal::algos::repeat::repeat_programs;
use postal::algos::{bcast_programs, replay_programs, Pacing};
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{runtimes, Latency, TickScale, Time};
use postal::sim::prelude::*;
use postal::sim::run_lockstep;
use postal::sim::SimError;
use postal_obs::{MemoryRecorder, ObsEvent, RunMeta};

/// Everything that configures a run besides the programs themselves.
struct Setup<'a> {
    n: usize,
    latency: &'a dyn LatencyModel,
    port_mode: PortMode,
    faults: FaultPlan,
    max_events: Option<u64>,
}

impl<'a> Setup<'a> {
    fn strict(n: usize, latency: &'a dyn LatencyModel) -> Setup<'a> {
        Setup {
            n,
            latency,
            port_mode: PortMode::Strict,
            faults: FaultPlan::none(),
            max_events: None,
        }
    }

    fn build(&self, rec: &'a dyn postal_obs::Recorder) -> Simulation<'a> {
        let mut sim = Simulation::new(self.n, self.latency)
            .port_mode(self.port_mode)
            .faults(self.faults.clone())
            .observe(rec);
        if let Some(cap) = self.max_events {
            sim = sim.max_events(cap);
        }
        sim
    }
}

/// Runs the same program set on both engines and asserts that every
/// observable output is identical. Returns the two recorded streams so
/// callers can make extra, case-specific assertions.
fn assert_engines_agree<P, F>(label: &str, setup: &Setup, mk: F) -> (Vec<ObsEvent>, Vec<ObsEvent>)
where
    P: Clone + std::fmt::Debug,
    F: Fn() -> Vec<Box<dyn Program<P>>>,
{
    let fast_rec = MemoryRecorder::new();
    let fast = setup.build(&fast_rec).run(mk());
    let ref_rec = MemoryRecorder::new();
    let reference = setup.build(&ref_rec).run_reference(mk());

    match (&fast, &reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.completion, r.completion, "completion diverged: {label}");
            assert_eq!(f.events, r.events, "event count diverged: {label}");
            assert_eq!(f.violations, r.violations, "violations diverged: {label}");
            assert_eq!(f.proc_stats, r.proc_stats, "proc stats diverged: {label}");
            assert_eq!(
                f.trace.len(),
                r.trace.len(),
                "trace length diverged: {label}"
            );
            for (i, (a, b)) in f
                .trace
                .transfers()
                .iter()
                .zip(r.trace.transfers())
                .enumerate()
            {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "transfer {i} diverged: {label}"
                );
            }
            assert_eq!(
                f.trace.port_busy_times(setup.n),
                r.trace.port_busy_times(setup.n),
                "per-port occupancy diverged: {label}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged: {label}"),
        (f, r) => panic!("engines disagree on success: {label}\nfast: {f:?}\nreference: {r:?}"),
    }

    let fast_log = fast_rec.snapshot(RunMeta::new("event", setup.n as u32));
    let ref_log = ref_rec.snapshot(RunMeta::new("event", setup.n as u32));
    assert_eq!(
        fast_log.events(),
        ref_log.events(),
        "observability streams diverged: {label}"
    );
    (fast_log.events().to_vec(), ref_log.events().to_vec())
}

/// The CLI spellings of the nine paper workloads, in grid order.
const ALGOS: [&str; 9] = [
    "bcast",
    "repeat",
    "repeat-greedy",
    "pack",
    "pipeline",
    "line",
    "binary",
    "star",
    "dtree",
];

/// Mirrors the model checker's degree clamp (`postal-mc`): a tree
/// degree is at least 1 and at most `n − 1`.
fn degree(n: usize, d: u64) -> u64 {
    d.clamp(1, (n as u64).saturating_sub(1).max(1))
}

/// Instantiates one named workload and runs it through both engines.
fn run_case(algo: &str, m: u32, lam: Latency, setup: &Setup) {
    let n = setup.n;
    let label = format!(
        "{algo} n={n} m={m} lam={lam:?} mode={:?} faults={} jitter/exact per-latency",
        setup.port_mode,
        !setup.faults.is_empty(),
    );
    match algo {
        "bcast" => {
            assert_engines_agree(&label, setup, || bcast_programs(n, lam));
        }
        "repeat" => {
            assert_engines_agree(&label, setup, || {
                repeat_programs(n, m, lam, Pacing::PaperExact)
            });
        }
        "repeat-greedy" => {
            assert_engines_agree(&label, setup, || repeat_programs(n, m, lam, Pacing::Greedy));
        }
        "pack" => {
            assert_engines_agree(&label, setup, || pack_programs(n, m, lam));
        }
        "pipeline" => {
            assert_engines_agree(&label, setup, || pipeline_programs(n, m, lam));
        }
        "line" => {
            assert_engines_agree(&label, setup, || dtree_programs(n, m, degree(n, 1)));
        }
        "binary" => {
            assert_engines_agree(&label, setup, || dtree_programs(n, m, degree(n, 2)));
        }
        "star" => {
            assert_engines_agree(&label, setup, || dtree_programs(n, m, degree(n, n as u64)));
        }
        "dtree" => {
            let d = degree(n, runtimes::latency_matched_degree(n as u128, lam) as u64);
            assert_engines_agree(&label, setup, || dtree_programs(n, m, d));
        }
        other => panic!("unknown algo {other}"),
    }
}

fn lambdas() -> [Latency; 6] {
    [
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        // Off the half-unit lattice: the fast engine counts sixths and
        // tenths of a unit.
        Latency::from_ratio(7, 3),
        Latency::from_ratio(8, 3),
        Latency::from_ratio(13, 5),
    ]
}

/// The full grid: 9 algorithms × n ≤ 64 × λ ∈ {1, 2, 5/2, 7/3, 8/3, 13/5} × m ≤ 4,
/// strict ports, no faults. BCAST ignores `m`, so it runs once per
/// `(n, λ)`.
#[test]
fn full_grid_matches_reference() {
    for n in [2usize, 3, 5, 8, 13, 33, 64] {
        for lam in lambdas() {
            let uni = Uniform(lam);
            let setup = Setup::strict(n, &uni);
            for algo in ALGOS {
                for m in [1u32, 2, 4] {
                    if algo == "bcast" && m > 1 {
                        continue;
                    }
                    run_case(algo, m, lam, &setup);
                }
            }
        }
    }
}

/// Queued input ports change receive times (contention delays instead
/// of violations); both engines must queue identically.
#[test]
fn queued_ports_match_reference() {
    for n in [5usize, 16, 33] {
        for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
            let uni = Uniform(lam);
            let mut setup = Setup::strict(n, &uni);
            setup.port_mode = PortMode::Queued;
            for algo in ALGOS {
                run_case(algo, 2, lam, &setup);
            }
        }
    }
}

/// Message drops and crashes prune different subtrees of the event
/// cascade; the engines must prune the same ones.
#[test]
fn fault_plans_match_reference() {
    for n in [8usize, 33] {
        for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
            let uni = Uniform(lam);
            let faults = FaultPlan::none()
                .dropping(0)
                .dropping(3)
                .dropping(7)
                .crashing(ProcId(1), Time::from_int(2))
                .crashing(ProcId(n as u32 / 2), Time::new(5, 2));
            let mut setup = Setup::strict(n, &uni);
            setup.faults = faults;
            for algo in ["bcast", "pipeline", "dtree", "star", "repeat"] {
                run_case(algo, 2, lam, &setup);
            }
        }
    }
}

/// Deterministic bounded jitter perturbs per-message latency, so tie
/// patterns shift run to run; the engines must still agree event for
/// event.
#[test]
fn jittered_latency_matches_reference() {
    for n in [8usize, 33] {
        for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
            for seed in [1u64, 0xDEAD_BEEF] {
                let jit = Jittered::new(lam, 3, seed);
                let setup = Setup::strict(n, &jit);
                for algo in ["bcast", "star", "repeat-greedy", "binary"] {
                    run_case(algo, 2, lam, &setup);
                }
            }
        }
    }
}

/// λ = 7/3 leaves the half-unit lattice entirely, so the fast engine
/// runs on sixths of a unit (`D = lcm(2, 3)`) — the run must still be
/// reference-identical (covered by the grid) and the latency really
/// must be off the half-unit lattice (guarded here, so the grid cannot
/// silently stop exercising the refined lattice).
#[test]
fn off_lattice_lambda_runs_on_a_refined_tick_lattice() {
    let lam = Latency::from_ratio(7, 3);
    assert_eq!(
        TickScale::HALF.to_tick(lam.as_time()),
        None,
        "7/3 must be off the half-unit lattice"
    );
    assert_eq!(TickScale::for_latency(lam).map(|s| s.den()), Some(6));
    let uni = Uniform(lam);
    let setup = Setup::strict(33, &uni);
    run_case("bcast", 1, lam, &setup);
    run_case("pipeline", 3, lam, &setup);
}

/// Asserts the fast engine and the time-stepped lockstep engine produce
/// the same completion, violations and transfers. The lockstep engine
/// may number same-instant sends differently, so transfers compare as
/// sorted `(src, dst, send_start, arrival, recv_finish)` tuples.
fn assert_lockstep_agrees<P, F>(label: &str, n: usize, lam: Latency, mk: F)
where
    P: Clone,
    F: Fn() -> Vec<Box<dyn Program<P>>>,
{
    fn canon<P>(report: &RunReport<P>) -> Vec<(ProcId, ProcId, Time, Time, Time)> {
        let mut v: Vec<_> = report
            .trace
            .transfers()
            .iter()
            .map(|t| (t.src, t.dst, t.send_start, t.arrival, t.recv_finish))
            .collect();
        v.sort();
        v
    }
    let uni = Uniform(lam);
    let fast = Simulation::new(n, &uni).run(mk()).expect(label);
    let lock = run_lockstep(n, lam, mk(), 1_000_000).expect(label);
    assert_eq!(
        fast.completion, lock.completion,
        "completion diverged: {label}"
    );
    assert_eq!(
        fast.violations, lock.violations,
        "violations diverged: {label}"
    );
    assert_eq!(canon(&fast), canon(&lock), "transfers diverged: {label}");
}

/// Denominators 3 and 5 put the fast engine on sixths and tenths of a
/// unit; the lockstep engine walks the same λ lattice one tick at a
/// time, by a structurally different method.
#[test]
fn rational_lambdas_match_lockstep() {
    for lam in [
        Latency::from_ratio(7, 3),
        Latency::from_ratio(8, 3),
        Latency::from_ratio(13, 5),
    ] {
        for n in [5usize, 33] {
            let label = format!("n={n} lam={lam}");
            assert_lockstep_agrees(&label, n, lam, || bcast_programs(n, lam));
            assert_lockstep_agrees(&label, n, lam, || pipeline_programs(n, 3, lam));
            assert_lockstep_agrees(&label, n, lam, || {
                repeat_programs(n, 2, lam, Pacing::PaperExact)
            });
        }
    }
}

/// Two latencies on different lattices in one run: 7/3 inside a
/// cluster, 5/2 between clusters, so `D = lcm(2, 3, 2) = 6`.
#[test]
fn hierarchical_mixed_lattices_match_reference() {
    let (local, remote) = (Latency::from_ratio(7, 3), Latency::from_ratio(5, 2));
    for n in [8usize, 33] {
        let model = Hierarchical::blocks(n, 4, local, remote);
        assert_eq!(model.tick_denominator(), 6);
        let setup = Setup::strict(n, &model);
        for algo in ["bcast", "pipeline", "star", "binary"] {
            run_case(algo, 2, remote, &setup);
        }
    }
}

/// λ steps from 2 to 8/3 partway through the run; the model declares
/// the step's denominator up front, so the run starts on sixths.
#[test]
fn time_varying_thirds_step_matches_reference() {
    for n in [8usize, 33] {
        let model = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(2)),
            (Time::from_int(3), Latency::from_ratio(8, 3)),
        ]);
        assert_eq!(model.tick_denominator(), 3);
        let setup = Setup::strict(n, &model);
        for algo in ["bcast", "pipeline", "repeat-greedy", "line"] {
            run_case(algo, 2, Latency::from_int(2), &setup);
        }
    }
}

/// A replayed schedule whose send times no latency lattice holds: the
/// wake-ups at 1/7 and 5/11 refine the lattice mid-run (from halves to
/// fourteenths, then to 154ths), rescaling everything already queued.
fn off_lattice_replay(lam: Latency) -> Schedule {
    let at = Time::new;
    let sends = [
        (0, 1, at(0, 1)),
        (0, 2, at(8, 7)),
        (1, 3, at(9, 2)),
        (2, 4, at(48, 11)),
        (0, 5, at(16, 7)),
        (3, 6, at(15, 2)),
        (4, 7, at(113, 14)),
    ];
    Schedule::new(
        8,
        lam,
        sends
            .into_iter()
            .map(|(src, dst, send_start)| TimedSend {
                src,
                dst,
                send_start,
            })
            .collect(),
    )
}

#[test]
fn off_lattice_wakes_refine_the_lattice_and_match_reference() {
    for lam in [Latency::from_int(2), Latency::from_ratio(7, 3)] {
        let schedule = off_lattice_replay(lam);
        let uni = Uniform(lam);
        let (fast, _) = assert_engines_agree(
            &format!("off-lattice replay lam={lam}"),
            &Setup::strict(8, &uni),
            || replay_programs(&schedule),
        );
        let wakes: Vec<Time> = fast
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Wake { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        assert!(wakes.contains(&Time::new(8, 7)), "{wakes:?}");
        assert!(wakes.contains(&Time::new(48, 11)), "{wakes:?}");
    }
    // Crash times refine the lattice too.
    let uni = Uniform(Latency::from_int(2));
    let mut setup = Setup::strict(33, &uni);
    setup.faults = FaultPlan::none().crashing(ProcId(5), Time::new(25, 7));
    run_case("bcast", 1, Latency::from_int(2), &setup);
}

/// Times no `i64` tick can hold end the run with a typed error, never
/// a panic or a wrapped tick: a wake-up beyond the tick range, and one
/// whose denominator pushes the lattice past `i64`.
#[test]
fn tick_overflow_is_a_sim_error() {
    let lam = Latency::from_int(2);
    let uni = Uniform(lam);
    for far in [
        Time::from_int(i64::MAX as i128),
        // An odd denominator above 2^62: twice it leaves the i64 range.
        Time::new(1, 9_223_372_036_854_775_783),
    ] {
        let schedule = Schedule::new(
            2,
            lam,
            vec![TimedSend {
                src: 0,
                dst: 1,
                send_start: far,
            }],
        );
        let got = Simulation::new(2, &uni).run(replay_programs(&schedule));
        assert!(
            matches!(got, Err(SimError::TickOverflow { .. })),
            "{far:?}: {got:?}"
        );
    }
    // A crash time the lattice cannot hold fails before any event.
    let got = Simulation::new(2, &uni)
        .faults(FaultPlan::none().crashing(ProcId(1), Time::new(1, i128::MAX)))
        .run(bcast_programs(2, lam));
    assert!(matches!(got, Err(SimError::TickOverflow { .. })), "{got:?}");
}

/// Hitting `max_events` must surface identically on both engines: the
/// same `EventLimitExceeded` error and a `truncated` marker in the
/// recorded stream, so a cut-short trace can never read as a quietly
/// finished run.
#[test]
fn truncation_matches_reference_and_is_recorded() {
    let lam = Latency::from_int(2);
    let uni = Uniform(lam);
    let mut setup = Setup::strict(16, &uni);
    setup.max_events = Some(10);

    let fast_rec = MemoryRecorder::new();
    let fast = setup.build(&fast_rec).run(bcast_programs(16, lam));
    let ref_rec = MemoryRecorder::new();
    let reference = setup.build(&ref_rec).run_reference(bcast_programs(16, lam));

    assert!(matches!(
        fast,
        Err(SimError::EventLimitExceeded { limit: 10 })
    ));
    assert!(matches!(
        reference,
        Err(SimError::EventLimitExceeded { limit: 10 })
    ));

    let fast_log = fast_rec.snapshot(RunMeta::new("event", 16));
    let ref_log = ref_rec.snapshot(RunMeta::new("event", 16));
    assert_eq!(
        fast_log.events(),
        ref_log.events(),
        "truncated streams diverged"
    );
    let marker = fast_log
        .events()
        .iter()
        .find_map(|e| match *e {
            ObsEvent::Truncated {
                processed, limit, ..
            } => Some((processed, limit)),
            _ => None,
        })
        .expect("truncated run must record an ObsEvent::Truncated marker");
    assert_eq!(marker.1, 10);
    assert!(marker.0 > 10, "processed count includes the fatal event");

    // And the summary layer flags it as partial.
    let summary = postal_obs::MetricsSummary::from_log(&fast_log);
    assert!(summary.truncated);
    assert!(summary.is_partial());
}
