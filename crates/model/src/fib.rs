//! The generalized Fibonacci function `F_λ(t)` and its index function
//! `f_λ(n)`.
//!
//! Section 3 of the paper defines, for any λ ≥ 1,
//!
//! ```text
//! F_λ(t) = 1                          if 0 ≤ t < λ
//! F_λ(t) = F_λ(t−1) + F_λ(t−λ)        if t ≥ λ
//! ```
//!
//! `F_λ(t)` is the maximum number of processors that can know a message `t`
//! time units after a broadcast starts in MPS(·, λ) (proof of Lemma 5), and
//! its index function `f_λ(n) = min{t : F_λ(t) ≥ n}` is the exact optimal
//! broadcast time (Theorem 6). For λ = 1 these are powers of two and
//! ⌈log₂ n⌉ (binomial trees); for λ = 2 they are the Fibonacci numbers.
//!
//! # Exact evaluation on the tick lattice
//!
//! With λ = p/q in lowest terms, `F_λ` is a step function that is constant
//! on every interval `[k/q, (k+1)/q)`: this holds trivially on `[0, λ)` and
//! inductively for t ≥ λ because both recurrence arguments `t−1` and `t−λ`
//! shift by whole ticks. So `F_λ` is fully described by the integer sequence
//! `F[k] = F_λ(k/q)` with
//!
//! ```text
//! F[k] = 1                 for k < p
//! F[k] = F[k−q] + F[k−p]   for k ≥ p
//! ```
//!
//! Values saturate at `u128::MAX`, far beyond any representable processor
//! count.
//!
//! # One immutable table per program set
//!
//! [`GenFib`] holds `F[0..=H]` for a horizon `H` fixed at construction and
//! never mutates it afterwards, so one evaluator is `Send + Sync` and is
//! shared, behind an `Arc`, by every program of a broadcast program set:
//! every processor's cascade depends on λ alone. [`GenFib::covering`]
//! builds through `H = f_λ(n)` ticks, which answers every `F_λ`, `f_λ` and
//! BCAST-split query for a range of at most `n` processors with a table
//! load. A query past the horizon continues the recurrence in a scratch
//! buffer that is dropped with the answer; [`GenFib::new`] has no table at
//! all and suits one-off analytic queries only.

use crate::latency::Latency;
use crate::ratio::Ratio;
use crate::time::Time;

/// Evaluator for `F_λ` and `f_λ` at a fixed latency λ, backed by an
/// immutable table through a horizon chosen at construction.
///
/// Within the horizon every query is a table load or a binary search
/// over the table; past it the recurrence is continued in a scratch
/// buffer, leaving the table untouched. Theorem 7 bounds the horizon
/// [`GenFib::covering`] needs: `f_λ(n) ≤ 2λ + 2λ·log₂(n)/log₂(⌈λ⌉+1)`
/// units, i.e. a few hundred ticks for any realistic `n`.
///
/// ```
/// use postal_model::{GenFib, Latency, Time};
///
/// // λ = 2 yields the Fibonacci numbers: F_2(t) = Fib(t+1).
/// let fib = GenFib::covering(Latency::from_int(2), 8);
/// assert_eq!(fib.value(Time::from_int(5)), 8);
/// // Broadcasting to 8 processors at λ = 2 takes f_2(8) = 5 units.
/// assert_eq!(fib.index(8), Time::from_int(5));
/// ```
#[derive(Debug, Clone)]
pub struct GenFib {
    latency: Latency,
    /// λ in ticks (numerator p of λ = p/q).
    p: usize,
    /// Ticks per unit (denominator q of λ = p/q).
    q: usize,
    /// `table[k] = F_λ(k/q)` for every tick `k` through the horizon,
    /// saturating at `u128::MAX`.
    table: Vec<u128>,
}

impl GenFib {
    /// An evaluator without a table: every query runs the recurrence
    /// from tick 0. Meant for one-off queries; build with
    /// [`GenFib::covering`] or [`GenFib::through_ticks`] to query many
    /// points.
    pub fn new(latency: Latency) -> GenFib {
        GenFib {
            latency,
            p: latency.lambda_ticks() as usize,
            q: latency.ticks_per_unit() as usize,
            table: Vec::new(),
        }
    }

    /// An evaluator whose table runs through `f_λ(n)` ticks: every
    /// `F_λ`, `f_λ` and [`GenFib::bcast_split`] query for a range of at
    /// most `n` processors is answered from the table.
    pub fn covering(latency: Latency, n: u128) -> GenFib {
        let mut fib = GenFib::new(latency);
        while fib.push_next() < n {}
        fib
    }

    /// An evaluator whose table holds `F_λ` at ticks `0..=k`.
    pub fn through_ticks(latency: Latency, k: usize) -> GenFib {
        let mut fib = GenFib::new(latency);
        fib.table.reserve_exact(k + 1);
        while fib.table.len() <= k {
            fib.push_next();
        }
        fib
    }

    /// The latency λ this evaluator is specialized for.
    pub fn latency(&self) -> Latency {
        self.latency
    }

    /// Appends the next tick's value to the table and returns it;
    /// construction only.
    fn push_next(&mut self) -> u128 {
        let i = self.table.len();
        let v = self.next_value(i, |j| self.table[j]);
        self.table.push(v);
        v
    }

    /// `F[i]` by the recurrence, given the earlier values.
    fn next_value(&self, i: usize, at: impl Fn(usize) -> u128) -> u128 {
        if i < self.p {
            1
        } else {
            at(i - self.q).saturating_add(at(i - self.p))
        }
    }

    /// Walks the recurrence from the first tick past the table and
    /// returns the first `(tick, F[tick])` that `stop` accepts. The
    /// values past the table live in a scratch buffer, so the shared
    /// table never changes.
    fn continue_until(&self, mut stop: impl FnMut(usize, u128) -> bool) -> (usize, u128) {
        let base = self.table.len();
        let mut scratch: Vec<u128> = Vec::new();
        loop {
            let i = base + scratch.len();
            let v = self.next_value(i, |j| {
                if j < base {
                    self.table[j]
                } else {
                    scratch[j - base]
                }
            });
            if stop(i, v) {
                return (i, v);
            }
            scratch.push(v);
        }
    }

    /// `F_λ` evaluated at an integer number of ticks (k/q time units).
    ///
    /// # Panics
    /// Panics if `k < 0`; `F_λ` is defined on nonnegative time only.
    pub fn value_at_ticks(&self, k: i128) -> u128 {
        assert!(k >= 0, "F_λ(t) is defined for t ≥ 0 only (got {k} ticks)");
        let k = k as usize;
        match self.table.get(k) {
            Some(&v) => v,
            None => self.continue_until(|i, _| i == k).1,
        }
    }

    /// `F_λ(t)` for an arbitrary nonnegative time `t`.
    ///
    /// `F_λ` is right-continuous and constant on tick intervals, so this is
    /// the table value at `⌊t·q⌋` ticks.
    ///
    /// # Panics
    /// Panics if `t < 0`.
    pub fn value(&self, t: Time) -> u128 {
        let ticks = (t.as_ratio() * Ratio::from_int(self.q as i128)).floor();
        self.value_at_ticks(ticks)
    }

    /// `f_λ(n) = min{t : F_λ(t) ≥ n}` in ticks.
    ///
    /// `F_λ` is nondecreasing and only increases at tick boundaries, so
    /// the minimal real `t` is itself a tick: a binary search over the
    /// table when `n` is within it, else the first tick of the continued
    /// recurrence that reaches `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`; the index function is defined for n ≥ 1.
    pub fn index_ticks(&self, n: u128) -> i128 {
        assert!(n >= 1, "f_λ(n) is defined for n ≥ 1 only");
        let k = match self.table.last() {
            Some(&top) if top >= n => self.table.partition_point(|&v| v < n),
            _ => self.continue_until(|_, v| v >= n).0,
        };
        k as i128
    }

    /// `f_λ(n)` as exact model time.
    ///
    /// This is the optimal single-message broadcast time in MPS(n, λ)
    /// (Theorem 6).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&self, n: u128) -> Time {
        Time(Ratio::new(self.index_ticks(n), self.q as i128))
    }

    /// The BCAST split `j = F_λ(f_λ(n) − 1)` from item (a) of Algorithm
    /// BCAST: out of a range of `n` processors, the originator keeps the
    /// first `j` and delegates the remaining `n − j` to processor `p_j`.
    ///
    /// Lemma 3 guarantees `1 ≤ j ≤ n−1` for all `n ≥ 2`.
    ///
    /// # Panics
    /// Panics if `n < 2` (a singleton range has nothing to split).
    pub fn bcast_split(&self, n: u128) -> u128 {
        assert!(n >= 2, "bcast_split requires n ≥ 2 (got {n})");
        let f = self.index_ticks(n);
        debug_assert!(
            f >= self.q as i128,
            "f_λ(n) ≥ λ ≥ 1 unit must hold for n ≥ 2"
        );
        self.value_at_ticks(f - self.q as i128)
    }

    /// Number of ticks per time unit (the lattice resolution q).
    pub fn ticks_per_unit(&self) -> usize {
        self.q
    }

    /// λ in ticks (the lattice value p).
    pub fn lambda_ticks(&self) -> usize {
        self.p
    }
}

/// Convenience: `f_λ(n)` for a one-off query.
///
/// Runs the recurrence without keeping a table; build a
/// [`GenFib::covering`] evaluator for loops.
pub fn optimal_broadcast_time(n: u128, latency: Latency) -> Time {
    GenFib::new(latency).index(n)
}

/// Convenience: `F_λ(t)` for a one-off query.
pub fn gen_fib_value(t: Time, latency: Latency) -> u128 {
    GenFib::new(latency).value(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short table, so the tests below query both the table and the
    /// continued recurrence past it.
    fn fib(latency: Latency) -> GenFib {
        GenFib::through_ticks(latency, 64)
    }

    const LAMBDAS: [(i128, i128); 6] = [(1, 1), (3, 2), (2, 1), (5, 2), (7, 3), (10, 1)];

    #[test]
    fn evaluator_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<GenFib>();
    }

    #[test]
    fn table_and_continued_recurrence_agree() {
        for (p, q) in LAMBDAS {
            let lam = Latency::from_ratio(p, q);
            let bare = GenFib::new(lam);
            let covering = GenFib::covering(lam, 5_000);
            for k in 0..300i128 {
                assert_eq!(
                    bare.value_at_ticks(k),
                    covering.value_at_ticks(k),
                    "λ={lam} k={k}"
                );
            }
            for n in 1..=6_000u128 {
                assert_eq!(
                    bare.index_ticks(n),
                    covering.index_ticks(n),
                    "λ={lam} n={n}"
                );
                if n >= 2 {
                    assert_eq!(
                        bare.bcast_split(n),
                        covering.bcast_split(n),
                        "λ={lam} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn covering_table_ends_at_the_index_of_n() {
        // The horizon is exactly f_λ(n): the least table that answers
        // every query for ranges of at most n processors.
        for (p, q) in LAMBDAS {
            let lam = Latency::from_ratio(p, q);
            for n in [1u128, 2, 14, 1_000, 150_963, 1 << 40] {
                let g = GenFib::covering(lam, n);
                assert_eq!(g.table.len() as i128, g.index_ticks(n) + 1, "λ={lam} n={n}");
            }
        }
        assert_eq!(GenFib::new(Latency::TELEPHONE).table.len(), 0);
        assert_eq!(GenFib::through_ticks(Latency::TELEPHONE, 9).table.len(), 10);
    }

    #[test]
    fn lambda_one_is_powers_of_two() {
        let g = fib(Latency::TELEPHONE);
        for t in 0..40i128 {
            assert_eq!(g.value(Time::from_int(t)), 1u128 << t, "t={t}");
        }
        // F_1 is a step function: constant between integers.
        assert_eq!(g.value(Time::new(7, 2)), 8); // F_1(3.5) = 2^3
    }

    #[test]
    fn lambda_one_index_is_ceil_log2() {
        let g = fib(Latency::TELEPHONE);
        for n in 1..=1025u128 {
            let expected = (n as f64).log2().ceil() as i128;
            // Guard against float edge cases at exact powers of two.
            let expected = if 1u128 << (expected as u32) < n {
                expected + 1
            } else if expected > 0 && 1u128 << ((expected - 1) as u32) >= n {
                expected - 1
            } else {
                expected
            };
            assert_eq!(g.index(n), Time::from_int(expected), "n={n}");
        }
    }

    #[test]
    fn lambda_two_is_fibonacci() {
        let g = fib(Latency::from_int(2));
        // F_2(t) = Fib(⌊t⌋ + 1) with Fib(1) = Fib(2) = 1.
        let mut fib_nums = vec![1u128, 1];
        for i in 2..40 {
            let v = fib_nums[i - 1] + fib_nums[i - 2];
            fib_nums.push(v);
        }
        for t in 0..39i128 {
            assert_eq!(g.value(Time::from_int(t)), fib_nums[t as usize], "t={t}");
        }
    }

    #[test]
    fn paper_example_n14_lambda_5_2() {
        // Figure 1: MPS(14, 5/2) completes at t = 15/2, and the root's
        // first split is j = 9.
        let g = fib(Latency::from_ratio(5, 2));
        assert_eq!(g.index(14), Time::new(15, 2));
        assert_eq!(g.bcast_split(14), 9);
        // The recursion from the figure: p0 then broadcasts in MPS(9, 5/2),
        // p9 in MPS(5, 5/2).
        assert_eq!(g.index(9), Time::new(13, 2));
        assert_eq!(g.bcast_split(9), 6);
        assert_eq!(g.index(5), Time::from_int(5));
        assert_eq!(g.bcast_split(5), 3);
    }

    #[test]
    fn base_case_is_one_below_lambda() {
        let g = fib(Latency::from_ratio(5, 2));
        assert_eq!(g.value(Time::ZERO), 1);
        assert_eq!(g.value(Time::ONE), 1);
        assert_eq!(g.value(Time::new(2, 1)), 1);
        assert_eq!(g.value(Time::new(9, 4)), 1); // 2.25 < 2.5
        assert_eq!(g.value(Time::new(5, 2)), 2); // exactly λ: F = F(λ−1)+F(0) = 2
    }

    #[test]
    fn value_is_nondecreasing_and_unbounded() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_ratio(5, 2),
            Latency::from_int(7),
        ] {
            let g = fib(lam);
            let mut prev = 0u128;
            for k in 0..400i128 {
                let v = g.value_at_ticks(k);
                assert!(v >= prev, "λ={lam} k={k}");
                prev = v;
            }
            assert!(prev > 1_000, "λ={lam} should grow beyond 1000 by 400 ticks");
        }
    }

    #[test]
    fn claim1_index_function_properties() {
        // Claim 1 of the paper, instantiated for G = F_λ, I_G = f_λ.
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(3),
            Latency::from_ratio(7, 3),
        ] {
            let g = fib(lam);
            let q = g.ticks_per_unit() as i128;
            // (2) f_λ(F_λ(t)) ≤ t for all t.
            for k in 0..120i128 {
                let v = g.value_at_ticks(k);
                assert!(g.index_ticks(v) <= k, "λ={lam} k={k}");
            }
            for n in 1..300u128 {
                let f = g.index_ticks(n);
                // (1) nondecreasing.
                if n > 1 {
                    assert!(f >= g.index_ticks(n - 1));
                }
                // (3) F_λ(f_λ(n)) ≥ n.
                assert!(g.value_at_ticks(f) >= n, "λ={lam} n={n}");
                // (4) F_λ(f_λ(n) − ε) < n for any ε > 0 (one tick suffices).
                if f > 0 {
                    assert!(g.value_at_ticks(f - 1) < n, "λ={lam} n={n}");
                }
            }
            let _ = q;
        }
    }

    #[test]
    fn bcast_split_is_valid_and_dominant() {
        // Lemma 3: 1 ≤ j ≤ n−1. Also j ≥ n − j: the originator always keeps
        // at least as many processors as it delegates (F(f−1) ≥ F(f−λ) since
        // λ ≥ 1 and F is nondecreasing).
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
            Latency::from_int(10),
        ] {
            let g = fib(lam);
            for n in 2..=600u128 {
                let j = g.bcast_split(n);
                assert!(j >= 1 && j < n, "λ={lam} n={n} j={j}");
                assert!(j >= n - j, "λ={lam} n={n} j={j}");
            }
        }
    }

    #[test]
    fn index_grows_with_latency() {
        // Claim 2: pointwise-larger step functions have pointwise-smaller
        // index functions; larger λ makes F_λ smaller, hence f_λ larger.
        let lams = [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_int(2),
            Latency::from_ratio(5, 2),
            Latency::from_int(3),
        ];
        for w in lams.windows(2) {
            let (a, b) = (fib(w[0]), fib(w[1]));
            for n in 1..200u128 {
                assert!(
                    a.index(n) <= b.index(n),
                    "f_{}({n}) > f_{}({n})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn one_off_helpers_match_evaluator() {
        let lam = Latency::from_ratio(5, 2);
        assert_eq!(optimal_broadcast_time(14, lam), Time::new(15, 2));
        assert_eq!(gen_fib_value(Time::new(15, 2), lam), 14);
        let g = fib(lam);
        assert_eq!(g.value(Time::new(15, 2)), 14);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let g = fib(Latency::TELEPHONE);
        // 2^127 < u128::MAX < 2^128: ticks beyond 127 saturate.
        assert_eq!(g.value_at_ticks(200), u128::MAX);
    }

    #[test]
    fn index_of_one_is_zero() {
        for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
            assert_eq!(fib(lam).index(1), Time::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "n ≥ 1")]
    fn index_of_zero_panics() {
        let _ = fib(Latency::TELEPHONE).index(0);
    }

    #[test]
    #[should_panic(expected = "t ≥ 0")]
    fn negative_time_panics() {
        let _ = fib(Latency::TELEPHONE).value_at_ticks(-1);
    }

    #[test]
    fn large_n_stays_fast_and_exact() {
        let g = fib(Latency::from_ratio(5, 2));
        let n = 10u128.pow(18);
        let f = g.index_ticks(n);
        // Theorem 7(2) sandwich, in ticks (q = 2).
        let log_n = (n as f64).log2();
        let lam = 2.5f64;
        let lower = lam * log_n / (3f64).log2();
        let upper = 2.0 * lam + 2.0 * lam * log_n / (3f64).log2();
        let f_units = f as f64 / 2.0;
        assert!(f_units >= lower - 1e-9 && f_units <= upper + 1e-9);
    }
}
