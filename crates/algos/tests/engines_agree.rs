//! Cross-engine validation: the event-driven engine and the lockstep
//! engine are independent implementations of the postal model and must
//! produce transfer-for-transfer identical traces for every algorithm
//! in the paper. The threaded runtime runs the same programs on real
//! threads; wall jitter forbids exact-time comparison, so it is held to
//! structural agreement (same message multiset) and completion bounds.

use postal_algos::bcast::{BcastPayload, BcastProgram};
use postal_algos::ext::combine::{combine_programs, run_combine};
use postal_algos::repeat::RepeatProgram;
use postal_algos::{
    bcast_programs, dtree::dtree_programs, pack::pack_programs, pipeline::pipeline_programs,
    repeat::repeat_programs, Pacing,
};
use postal_model::{Latency, Time};
use postal_obs::{MemoryRecorder, ObsEvent, RunMeta};
use postal_runtime::{run_threaded, send_programs_from, RuntimeConfig};
use postal_sim::lockstep::run_lockstep_observed;
use postal_sim::{ProcId, Program, RunReport, Simulation, Uniform};

/// Canonical form of a trace: sorted (src, dst, send_start, recv_finish).
fn canon<P>(report: &RunReport<P>) -> Vec<(u32, u32, Time, Time)> {
    let mut v: Vec<_> = report
        .trace
        .transfers()
        .iter()
        .map(|t| (t.src.0, t.dst.0, t.send_start, t.recv_finish))
        .collect();
    v.sort();
    v
}

/// Canonical form of an observability log's message events, seq-blind
/// (the engines may number identical same-instant sends differently).
fn canon_obs(log: &postal_obs::ObsLog) -> Vec<(u32, u32, Time, Time, bool)> {
    let mut v: Vec<_> = log
        .events()
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::Send {
                src,
                dst,
                start,
                finish,
                ..
            } => Some((src, dst, start, finish, false)),
            ObsEvent::Recv {
                src,
                dst,
                start,
                finish,
                queued,
                ..
            } => Some((src, dst, start, finish, queued)),
            _ => None,
        })
        .collect();
    v.sort();
    v
}

fn assert_engines_agree<P: Clone>(
    n: usize,
    lam: Latency,
    build: impl Fn() -> Vec<Box<dyn Program<P>>>,
    label: &str,
) {
    let model = Uniform(lam);
    let rec_event = MemoryRecorder::new();
    let event = Simulation::new(n, &model)
        .observe(&rec_event)
        .run(build())
        .unwrap();
    let rec_lock = MemoryRecorder::new();
    let lock = run_lockstep_observed(n, lam, build(), 1_000_000, &rec_lock).unwrap();
    assert_eq!(event.completion, lock.completion, "{label}: completion");
    assert_eq!(
        event.violations.len(),
        lock.violations.len(),
        "{label}: violations"
    );
    assert_eq!(canon(&event), canon(&lock), "{label}: traces");
    // Both engines must also emit the same observability stream: the
    // exporters downstream see one truth regardless of substrate.
    let meta = RunMeta::new("x", n as u32).latency(lam);
    assert_eq!(
        canon_obs(&rec_event.into_log(meta.clone())),
        canon_obs(&rec_lock.into_log(meta)),
        "{label}: obs streams"
    );
}

#[test]
fn bcast_agrees() {
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
        Latency::from_int(4),
    ] {
        for n in [1usize, 2, 5, 14, 64] {
            assert_engines_agree(n, lam, || bcast_programs(n, lam), "bcast");
        }
    }
}

#[test]
fn repeat_agrees_both_pacings() {
    for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
        for (n, m) in [(5usize, 3u32), (14, 4), (33, 2)] {
            for pacing in [Pacing::PaperExact, Pacing::Greedy] {
                assert_engines_agree(n, lam, || repeat_programs(n, m, lam, pacing), "repeat");
            }
        }
    }
}

#[test]
fn pack_agrees() {
    for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
        for (n, m) in [(5usize, 3u32), (14, 4)] {
            assert_engines_agree(n, lam, || pack_programs(n, m, lam), "pack");
        }
    }
}

#[test]
fn pipeline_agrees_both_regimes() {
    for (lam, m) in [
        (Latency::from_int(4), 2u32), // PIPELINE-1
        (Latency::from_int(2), 6),    // PIPELINE-2
        (Latency::from_ratio(5, 2), 5),
    ] {
        for n in [5usize, 14, 33] {
            assert_engines_agree(n, lam, || pipeline_programs(n, m, lam), "pipeline");
        }
    }
}

#[test]
fn dtree_agrees() {
    for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
        for d in [1u64, 2, 3, 7] {
            assert_engines_agree(15, lam, || dtree_programs(15, 3, d), "dtree");
        }
    }
}

#[test]
fn combine_agrees() {
    // Combine is the wake-up-heavy algorithm: both engines must agree on
    // the reversed-tree schedule exactly.
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_int(3),
    ] {
        for n in [1usize, 2, 5, 14, 33] {
            let values: Vec<u64> = (0..n as u64).collect();
            assert_engines_agree(n, lam, || combine_programs(&values, lam), "combine");
        }
    }
    // And the event-engine outcome is the documented optimum.
    let lam = Latency::from_ratio(5, 2);
    let values: Vec<u64> = (0..14).collect();
    let event = run_combine(&values, lam);
    event.report.assert_model_clean();
    assert_eq!(event.report.completion, Time::new(15, 2));
}

/// Structural agreement between the event engine and a threaded run:
/// identical (src, dst) edge multisets and per-destination counts, with
/// the threaded completion bounded below by the model time (sleeps
/// enforce minimums) and above by a generous jitter allowance.
fn assert_threaded_agrees<P: Clone + Send + 'static>(
    n: usize,
    lam: Latency,
    build_sim: impl Fn() -> Vec<Box<dyn Program<P>>>,
    build_threaded: impl Fn() -> Vec<Box<dyn Program<P> + Send>>,
    label: &str,
) {
    let model = Uniform(lam);
    let event = Simulation::new(n, &model).run(build_sim()).unwrap();
    event.assert_model_clean();
    let threaded = run_threaded(lam, RuntimeConfig::default(), build_threaded());

    let mut sim_edges: Vec<(u32, u32)> = event
        .trace
        .transfers()
        .iter()
        .map(|t| (t.src.0, t.dst.0))
        .collect();
    let mut thr_edges: Vec<(u32, u32)> = threaded
        .deliveries
        .iter()
        .map(|d| (d.from.0, d.to.0))
        .collect();
    sim_edges.sort_unstable();
    thr_edges.sort_unstable();
    assert_eq!(sim_edges, thr_edges, "{label}: edge multisets");

    let model_t = event.completion.to_f64();
    let wall_t = threaded.completion.to_f64();
    assert!(
        wall_t >= model_t - 0.01,
        "{label}: threaded finished impossibly fast ({wall_t} < {model_t})"
    );
    assert!(
        wall_t < model_t * 3.0 + 5.0,
        "{label}: threaded far too slow ({wall_t} vs {model_t})"
    );
}

#[test]
fn threaded_runtime_agrees_on_bcast() {
    for (n, lam) in [
        (5usize, Latency::from_int(2)),
        (14, Latency::from_ratio(5, 2)),
    ] {
        assert_threaded_agrees(
            n,
            lam,
            || bcast_programs(n, lam),
            || {
                let fib = BcastProgram::evaluator(n, lam);
                send_programs_from(n, |id| {
                    Box::new(BcastProgram::new(
                        fib.clone(),
                        (id == ProcId::ROOT).then_some(n as u64),
                    )) as Box<dyn Program<BcastPayload> + Send>
                })
            },
            "bcast",
        );
    }
}

#[test]
fn threaded_runtime_agrees_on_repeat() {
    let (n, m) = (8usize, 3u32);
    let lam = Latency::from_int(2);
    assert_threaded_agrees(
        n,
        lam,
        || repeat_programs(n, m, lam, Pacing::Greedy),
        || {
            let fib = BcastProgram::evaluator(n, lam);
            send_programs_from(n, |id| {
                Box::new(RepeatProgram::new(
                    fib.clone(),
                    Pacing::Greedy,
                    (id == ProcId::ROOT).then_some((n as u64, m)),
                )) as Box<dyn Program<postal_algos::MultiPacket> + Send>
            })
        },
        "repeat",
    );
}
