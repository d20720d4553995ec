//! End-to-end integration tests: every numbered result of the paper,
//! asserted across crate boundaries through the `postal` facade.

use postal::algos::{run_bcast, run_dtree, run_pack, run_pipeline, run_repeat, BroadcastTree};
use postal::model::{bounds, runtimes, GenFib, Latency, Time};

const LAMBDAS: &[(i128, i128)] = &[(1, 1), (3, 2), (2, 1), (5, 2), (7, 3), (4, 1), (10, 1)];

fn lambdas() -> impl Iterator<Item = Latency> {
    LAMBDAS.iter().map(|&(p, q)| Latency::from_ratio(p, q))
}

#[test]
fn figure1_full_reproduction() {
    // The paper's one figure: MPS(14, 5/2), completion 7½, root split 9.
    let lam = Latency::from_ratio(5, 2);
    let fib = GenFib::new(lam);
    assert_eq!(fib.index(14), Time::new(15, 2));
    assert_eq!(fib.bcast_split(14), 9);

    let tree = BroadcastTree::build(14, lam);
    assert_eq!(tree.completion(), Time::new(15, 2));

    let report = run_bcast(14, lam);
    report.assert_model_clean();
    assert_eq!(report.completion, Time::new(15, 2));
}

#[test]
fn theorem6_bcast_is_optimal_and_exact() {
    for lam in lambdas() {
        for n in [1usize, 2, 3, 4, 7, 13, 14, 32, 100, 255, 512] {
            let report = run_bcast(n, lam);
            report.assert_model_clean();
            assert_eq!(report.completion, runtimes::bcast_time(n as u128, lam));
            assert_eq!(report.messages(), n - 1);
        }
    }
}

#[test]
fn theorem7_sandwich_holds_end_to_end() {
    for lam in lambdas() {
        let g = GenFib::covering(lam, 100_000);
        for n in [2u128, 10, 100, 1000, 100_000] {
            let f = g.index(n).to_f64();
            assert!(bounds::index_lower_bound(n, lam) <= f + 1e-9);
            assert!(f <= bounds::index_upper_bound(n, lam) + 1e-9);
        }
    }
}

#[test]
fn lemma8_no_algorithm_beats_the_lower_bound() {
    for lam in lambdas() {
        for n in [2usize, 5, 14, 33] {
            for m in [1u32, 2, 5, 9] {
                let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
                for (name, t) in [
                    ("REPEAT", run_repeat(n, m, lam).completion()),
                    ("PACK", run_pack(n, m, lam).completion()),
                    ("PIPELINE", run_pipeline(n, m, lam).completion()),
                    ("LINE", run_dtree(n, m, lam, 1).completion()),
                    ("STAR", run_dtree(n, m, lam, n as u64 - 1).completion()),
                ] {
                    assert!(t >= lb, "{name} beat Lemma 8 at n={n} m={m} λ={lam}");
                }
            }
        }
    }
}

#[test]
fn lemmas_10_12_14_16_exact_equalities() {
    for lam in lambdas() {
        for n in [2usize, 5, 14, 33] {
            for m in [1u32, 2, 5, 9] {
                let (n1, m1) = (n as u128, m as u64);
                let r = run_repeat(n, m, lam);
                r.verify().unwrap();
                assert_eq!(r.completion(), runtimes::repeat_time(n1, m1, lam));

                let r = run_pack(n, m, lam);
                r.verify().unwrap();
                assert_eq!(r.completion(), runtimes::pack_time(n1, m1, lam));

                let r = run_pipeline(n, m, lam);
                r.verify().unwrap();
                assert_eq!(r.completion(), runtimes::pipeline_time(n1, m1, lam));
            }
        }
    }
}

#[test]
fn lemma18_dtree_bound_and_exact_degenerate_degrees() {
    for lam in lambdas() {
        for n in [2usize, 7, 20] {
            for m in [1u32, 3, 6] {
                for d in 1..n as u64 {
                    let r = run_dtree(n, m, lam, d);
                    r.verify().unwrap();
                    assert!(
                        r.completion()
                            <= runtimes::dtree_time_bound(n as u128, m as u64, lam, d as u128)
                    );
                }
                assert_eq!(
                    run_dtree(n, m, lam, 1).completion(),
                    runtimes::line_time(n as u128, m as u64, lam)
                );
                assert_eq!(
                    run_dtree(n, m, lam, n as u64 - 1).completion(),
                    runtimes::star_time(n as u128, m as u64, lam)
                );
            }
        }
    }
}

#[test]
fn section43_degree_regimes() {
    // d = 1 best for m → ∞; d = n−1 best for λ → ∞; d = ⌈λ⌉+1 within 3×
    // of optimal for m ≤ log n / log(⌈λ⌉+1).
    let n = 16usize;
    let best = |m: u32, lam: Latency| -> u64 {
        (1..n as u64)
            .min_by_key(|&d| run_dtree(n, m, lam, d).completion())
            .unwrap()
    };
    assert_eq!(best(128, Latency::from_int(2)), 1);
    assert_eq!(best(1, Latency::from_int(100)), n as u64 - 1);

    let lam = Latency::from_ratio(5, 2);
    let d = runtimes::latency_matched_degree(n as u128, lam) as u64;
    // m ≤ log₂16/log₂4 = 2.
    for m in [1u32, 2] {
        let t = run_dtree(n, m, lam, d).completion();
        let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
        assert!(
            t.to_f64() <= 3.0 * lb.to_f64(),
            "latency-matched DTREE exceeded 3× optimal: {t} vs {lb}"
        );
    }
}

#[test]
fn order_preservation_is_universal() {
    // "All the algorithms described in this paper are practical
    // event-driven algorithms that preserve the order of messages."
    let lam = Latency::from_ratio(5, 2);
    let (n, m) = (40usize, 7u32);
    run_repeat(n, m, lam).verify().unwrap();
    run_pack(n, m, lam).verify().unwrap();
    run_pipeline(n, m, lam).verify().unwrap();
    for d in [1u64, 2, 4, 39] {
        run_dtree(n, m, lam, d).verify().unwrap();
    }
}

#[test]
fn telephone_model_reduction() {
    // "For λ = 1, the postal model reduces to the telephone model":
    // binomial-tree broadcast in ⌈log₂ n⌉ rounds.
    for n in 2usize..=64 {
        let report = run_bcast(n, Latency::TELEPHONE);
        let expected = (n as f64).log2().ceil() as i128;
        assert_eq!(report.completion, Time::from_int(expected), "n={n}");
    }
}

#[test]
fn exhaustive_small_space_theorem6() {
    // Every n ≤ 40 and every λ = p/q with q ≤ 4, λ ≤ 5: simulation,
    // closed form, tree, and flood all agree. This is a deterministic
    // exhaustive sweep complementing the randomized property tests.
    for q in 1i128..=4 {
        for p in q..=(5 * q) {
            let lam = Latency::from_ratio(p, q);
            let fib = GenFib::covering(lam, 40);
            for n in 1usize..=40 {
                let expected = fib.index(n as u128);
                assert_eq!(run_bcast(n, lam).completion, expected, "sim λ={lam} n={n}");
                assert_eq!(
                    BroadcastTree::build(n as u64, lam).completion(),
                    expected,
                    "tree λ={lam} n={n}"
                );
                assert_eq!(
                    postal::algos::flood_schedule(n as u64, lam).completion(),
                    if n == 1 { Time::ZERO } else { expected },
                    "flood λ={lam} n={n}"
                );
            }
        }
    }
}

#[test]
fn facade_reexports_are_usable() {
    // The `postal` crate is the one-stop dependency downstream users take.
    let lam = postal::model::Latency::from_ratio(5, 2);
    let fib = postal::model::GenFib::new(lam);
    assert_eq!(fib.bcast_split(14), 9);
    let tree = postal::algos::BroadcastTree::build(14, lam);
    assert!(tree.render().contains("p9"));
}
