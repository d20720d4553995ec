//! The acceptance grid: every paper algorithm, model-checked clean.
//!
//! For each workload × `n ≤ 12` × `λ ∈ {1, 2, 5/2}` × `m ≤ 3`, the
//! checker must explore the state space without any diagnostic and
//! observe a completion equal to the reference simulator's. The paper's
//! algorithms are conflict-free, so DPOR collapses every grid point to
//! a single execution while the naive interleaving estimate grows — the
//! grid asserts that reduction too.

use postal_algos::registry::Algo;
use postal_mc::{check_algo, McConfig};
use postal_model::runtimes;
use postal_model::Latency;

fn lambdas() -> [Latency; 3] {
    [
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
    ]
}

#[test]
fn all_algorithms_check_clean_across_the_grid() {
    let cfg = McConfig::default();
    let mut points = 0u32;
    for algo in Algo::all() {
        for n in [2u32, 3, 5, 8, 12] {
            for lam in lambdas() {
                for m in 1..=3u32 {
                    if algo == Algo::Bcast && m > 1 {
                        continue; // single-message algorithm
                    }
                    let rep = check_algo(algo, n, m, lam, None, &cfg);
                    assert!(
                        rep.is_clean(),
                        "{algo} n={n} m={m} lambda={lam}: {:?}",
                        rep.diagnostics
                    );
                    assert_eq!(
                        rep.completions,
                        vec![rep.reference_completion],
                        "{algo} n={n} m={m} lambda={lam}: completion drifted from reference"
                    );
                    assert!(
                        !rep.stats.truncated && !rep.stats.bounded,
                        "{algo} n={n} m={m} lambda={lam}: grid points must be exhaustive"
                    );
                    // Conflict-free algorithms: one Mazurkiewicz class.
                    assert_eq!(
                        rep.stats.executions, 1,
                        "{algo} n={n} m={m} lambda={lam}: expected a single execution"
                    );
                    points += 1;
                }
            }
        }
    }
    assert!(points > 100, "grid unexpectedly small: {points}");
}

#[test]
fn bcast_completion_matches_closed_form_everywhere() {
    let cfg = McConfig::default();
    for n in 2..=12u32 {
        for lam in lambdas() {
            let rep = check_algo(Algo::Bcast, n, 1, lam, None, &cfg);
            assert!(rep.is_clean(), "n={n} lambda={lam}: {:?}", rep.diagnostics);
            assert_eq!(
                rep.completions,
                vec![runtimes::bcast_time(n as u128, lam)],
                "n={n} lambda={lam}"
            );
        }
    }
}

#[test]
fn dpor_reduction_is_real_for_bcast() {
    // At n = 12, λ = 5/2 many deliveries are concurrently schedulable;
    // naive enumeration faces a combinatorial set while DPOR visits one.
    let rep = check_algo(
        Algo::Bcast,
        12,
        1,
        Latency::from_ratio(5, 2),
        None,
        &McConfig::default(),
    );
    assert!(rep.is_clean());
    assert_eq!(rep.stats.executions, 1);
    assert!(
        rep.stats.naive_interleavings >= 8.0,
        "naive estimate too small: {}",
        rep.stats.naive_interleavings
    );
    assert!(rep.stats.reduction_ratio() <= 0.125);
}

#[test]
fn conflict_free_runs_report_no_races() {
    for algo in [Algo::Bcast, Algo::Repeat, Algo::Pack, Algo::Dtree] {
        let rep = check_algo(algo, 8, 2, Latency::from_int(2), None, &McConfig::default());
        assert_eq!(rep.races, 0, "{algo}: conflict-free schedule raced");
    }
}
