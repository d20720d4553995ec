//! The ISSUE's acceptance criteria, verbatim:
//!
//! * for every acceptance-grid point (all 9 algorithms × n ≤ 12 ×
//!   λ ∈ {1, 2, 5/2} × m ≤ 3), the abstract completion interval
//!   contains the reference simulator's and the model checker's
//!   concrete completion times;
//! * all 9 paper algorithms analyze clean (no `P0012`–`P0016`) over
//!   λ ∈ [1, 4];
//! * each seeded mutation (dead send, orphaned receive, detached
//!   subtree, inflated DTREE degree) triggers exactly its designated
//!   code.

use postal_abs::{
    analyze_algo, analyze_dtree_inflated, cross_check_point, cross_check_range, AbsConfig,
    AbsMutation,
};
use postal_algos::registry::Algo;
use postal_model::lint::LintCode;
use postal_model::{Interval, Latency, Ratio, Time};

fn grid_lambdas() -> [Latency; 3] {
    [
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
    ]
}

#[test]
fn abstract_interval_contains_concrete_completions_on_the_grid() {
    let cfg = AbsConfig::default();
    // To keep the model-checking side of the cross-check tractable the
    // full n-sweep runs a coarse bounded exploration; the DPOR engine
    // still visits every Mazurkiewicz class for the small n.
    for algo in Algo::all() {
        for n in 2..=12u32 {
            for m in 1..=3u32 {
                for lam in grid_lambdas() {
                    let out = cross_check_point(algo, n, m, lam, &cfg);
                    assert!(
                        out.sound(),
                        "{algo} n={n} m={m} λ={lam}: abstract {} misses concrete {}",
                        out.bracket,
                        out.reference
                    );
                    // The degenerate range must also collapse to a point:
                    // the analysis at [λ, λ] is exact.
                    assert!(out.bracket.is_point(), "{algo} n={n} m={m} λ={lam}");
                }
            }
        }
    }
}

#[test]
fn range_subintervals_contain_concrete_completions() {
    let cfg = AbsConfig::default();
    let range = Interval::new(Ratio::ONE, Ratio::from_int(4));
    for algo in Algo::all() {
        for lam in grid_lambdas() {
            let out = cross_check_range(algo, 8, 2, lam, range, &cfg);
            assert!(
                out.sound(),
                "{algo} λ={lam} over {range}: abstract {} misses concrete {}",
                out.bracket,
                out.reference
            );
        }
    }
}

#[test]
fn all_nine_algorithms_are_clean_over_one_to_four() {
    let cfg = AbsConfig::default();
    let range = Interval::new(Ratio::ONE, Ratio::from_int(4));
    for algo in Algo::all() {
        for n in [2u32, 7, 12] {
            for m in 1..=3u32 {
                let report = analyze_algo(algo, n, m, range, None, &cfg);
                assert!(
                    report.is_clean(),
                    "{algo} n={n} m={m}: {:?}",
                    report.diagnostics
                );
                assert!(!report.truncated, "{algo} n={n} m={m}");
            }
        }
    }
}

fn codes_of(algo: Algo, n: u32, m: u32, mutation: AbsMutation) -> Vec<LintCode> {
    let report = analyze_algo(
        algo,
        n,
        m,
        Interval::new(Ratio::ONE, Ratio::from_int(2)),
        Some(mutation),
        &AbsConfig::default(),
    );
    let mut codes: Vec<LintCode> = report.diagnostics.iter().map(|d| d.code).collect();
    codes.dedup();
    codes
}

#[test]
fn dead_send_triggers_exactly_p0012() {
    assert_eq!(
        codes_of(Algo::Bcast, 8, 1, AbsMutation::DeadSend { seq: 0 }),
        vec![LintCode::DeadSend]
    );
}

#[test]
fn orphaned_receive_triggers_exactly_p0016() {
    assert_eq!(
        codes_of(Algo::Bcast, 8, 1, AbsMutation::OrphanReceive { proc: 5 }),
        vec![LintCode::UnboundedWait]
    );
}

#[test]
fn detached_subtree_triggers_exactly_p0013() {
    assert_eq!(
        codes_of(Algo::Binary, 8, 2, AbsMutation::DetachSubtree { proc: 1 }),
        vec![LintCode::UnreachableProcessor]
    );
}

#[test]
fn stalled_start_triggers_exactly_p0014() {
    assert_eq!(
        codes_of(
            Algo::Bcast,
            8,
            1,
            AbsMutation::StallStart {
                proc: 0,
                by: Time::from_int(10),
            }
        ),
        vec![LintCode::SymbolicOptimalityGap]
    );
}

#[test]
fn inflated_degree_triggers_exactly_p0015() {
    let report = analyze_dtree_inflated(
        8,
        2,
        Interval::new(Ratio::ONE, Ratio::from_int(2)),
        &AbsConfig::default(),
    );
    let codes: Vec<LintCode> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![LintCode::DegreeBoundViolation]);
}

#[test]
fn mutated_reports_carry_witness_intervals() {
    let report = analyze_algo(
        Algo::Bcast,
        8,
        1,
        Interval::new(Ratio::ONE, Ratio::from_int(2)),
        Some(AbsMutation::DeadSend { seq: 0 }),
        &AbsConfig::default(),
    );
    for d in &report.diagnostics {
        let w = d.witness.expect("symbolic diagnostics carry a witness");
        assert!(Interval::new(Ratio::ONE, Ratio::from_int(2)).contains_interval(w));
    }
}
