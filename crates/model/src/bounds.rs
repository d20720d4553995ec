//! Analytic bounds from Theorem 7 and the paper's appendix.
//!
//! Theorem 7 sandwiches the generalized Fibonacci function and its index
//! function:
//!
//! 1. `(⌈λ⌉+1)^⌊t/2λ⌋ ≤ F_λ(t) ≤ (⌈λ⌉+1)^⌊t/λ⌋` (Lemmas 19, 21),
//! 2. `λ·log n / log(⌈λ⌉+1) ≤ f_λ(n) ≤ 2λ + 2λ·log n / log(⌈λ⌉+1)`
//!    (Lemmas 20, 22),
//! 3. `F_λ(t) ≥ (λ+1)^{t/(αλ) − 1}` for sufficiently large λ (Lemma 25),
//! 4. `f_λ(n) ≤ (1 + h(λ))·λ·log n / log(λ+1)` for sufficiently large λ and
//!    `n ≥ 2^λ`, with `h(λ) → 0` (Lemma 26),
//!
//! where `α = 1 + (ln ln(λ+1) + 1)/(ln(λ+1) − (ln ln(λ+1) + 1))`.
//!
//! Parts (1) are computed exactly in saturating `u128`; parts (2)–(4) are
//! inherently real-valued and returned as `f64`.

use crate::latency::Latency;
use crate::ratio::Ratio;
use crate::time::Time;

/// Saturating integer power `base^exp` in `u128`.
fn sat_pow(base: u128, exp: u64) -> u128 {
    let mut acc: u128 = 1;
    let mut base = base;
    let mut exp = exp;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.saturating_mul(base);
        }
        exp >>= 1;
        if exp > 0 {
            base = base.saturating_mul(base);
        }
    }
    acc
}

/// Theorem 7(1), lower half: `(⌈λ⌉+1)^⌊t/2λ⌋ ≤ F_λ(t)` (Lemma 21). Exact.
///
/// # Panics
/// Panics if `t < 0`.
pub fn fib_lower_bound(t: Time, latency: Latency) -> u128 {
    assert!(t >= Time::ZERO, "bounds are defined for t ≥ 0");
    let base = (latency.ceil() + 1) as u128;
    let exp = (t.as_ratio() / (latency.value() * Ratio::from_int(2))).floor();
    sat_pow(base, exp as u64)
}

/// Theorem 7(1), upper half: `F_λ(t) ≤ (⌈λ⌉+1)^⌊t/λ⌋` (Lemma 19). Exact.
///
/// # Panics
/// Panics if `t < 0`.
pub fn fib_upper_bound(t: Time, latency: Latency) -> u128 {
    assert!(t >= Time::ZERO, "bounds are defined for t ≥ 0");
    let base = (latency.ceil() + 1) as u128;
    let exp = (t.as_ratio() / latency.value()).floor();
    sat_pow(base, exp as u64)
}

/// Theorem 7(2), lower half: `f_λ(n) ≥ λ·log₂ n / log₂(⌈λ⌉+1)` (Lemma 20).
///
/// # Panics
/// Panics if `n == 0`.
pub fn index_lower_bound(n: u128, latency: Latency) -> f64 {
    assert!(n >= 1, "f_λ(n) is defined for n ≥ 1");
    let lam = latency.to_f64();
    let base = (latency.ceil() + 1) as f64;
    lam * (n as f64).log2() / base.log2()
}

/// Theorem 7(2), upper half:
/// `f_λ(n) ≤ 2λ + 2λ·log₂ n / log₂(⌈λ⌉+1)` (Lemma 22).
///
/// # Panics
/// Panics if `n == 0`.
pub fn index_upper_bound(n: u128, latency: Latency) -> f64 {
    assert!(n >= 1, "f_λ(n) is defined for n ≥ 1");
    let lam = latency.to_f64();
    2.0 * lam + 2.0 * index_lower_bound(n, latency)
}

/// Lemmas 25/26 hold only "for sufficiently large λ" (they rest on the
/// unproven-for-small-λ Claims 23/24, and near λ + 1 = e the denominator of
/// α vanishes). We gate at λ ≥ 16, below which `None` is returned; the
/// bound tests in this module verify the gate empirically. The comparison
/// is exact on the latency's rational value, so λ = 16 − 1/10⁶ is still
/// rejected.
const ALPHA_MIN_LAMBDA: Ratio = Ratio::from_int(16);

/// The α of Lemma 25:
/// `α = 1 + (ln ln(λ+1) + 1)/(ln(λ+1) − (ln ln(λ+1) + 1))`.
///
/// Returns `None` when λ is below the asymptotic regime (λ < 16) or the
/// denominator is nonpositive.
pub fn lemma25_alpha(latency: Latency) -> Option<f64> {
    if latency.value() < ALPHA_MIN_LAMBDA {
        return None;
    }
    let lam = latency.to_f64();
    let inner = (lam + 1.0).ln().ln() + 1.0;
    let denom = (lam + 1.0).ln() - inner;
    if denom <= 0.0 {
        None
    } else {
        Some(1.0 + inner / denom)
    }
}

/// Theorem 7(3): the asymptotic lower bound `(λ+1)^{t/(αλ) − 1} ≤ F_λ(t)`
/// (Lemma 25). Returns `None` outside the large-λ regime where α is
/// defined.
pub fn fib_asymptotic_lower_bound(t: Time, latency: Latency) -> Option<f64> {
    let alpha = lemma25_alpha(latency)?;
    let lam = latency.to_f64();
    Some((lam + 1.0).powf(t.to_f64() / (alpha * lam) - 1.0))
}

/// Theorem 7(4): the asymptotic upper bound
/// `f_λ(n) ≤ (1 + h(λ))·λ·log n / log(λ+1)` with
/// `1 + h(λ) = α + α·log(λ+1)/log n` (the ε of Lemma 26 taken → 0).
/// Returns `None` outside the large-λ regime.
pub fn index_asymptotic_upper_bound(n: u128, latency: Latency) -> Option<f64> {
    if n < 2 {
        return Some(0.0);
    }
    let alpha = lemma25_alpha(latency)?;
    let lam = latency.to_f64();
    let log_n = (n as f64).log2();
    let log_l = (lam + 1.0).log2();
    let one_plus_h = alpha + alpha * log_l / log_n;
    Some(one_plus_h * lam * log_n / log_l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::GenFib;

    const LAMBDAS: &[(i128, i128)] = &[(1, 1), (3, 2), (2, 1), (5, 2), (4, 1), (10, 1), (7, 3)];

    #[test]
    fn sat_pow_basics() {
        assert_eq!(sat_pow(3, 0), 1);
        assert_eq!(sat_pow(3, 4), 81);
        assert_eq!(sat_pow(2, 127), 1u128 << 127);
        assert_eq!(sat_pow(2, 200), u128::MAX);
        assert_eq!(sat_pow(u128::MAX, 3), u128::MAX);
    }

    #[test]
    fn theorem7_part1_sandwiches_exact_values() {
        for &(p, q) in LAMBDAS {
            let lam = Latency::from_ratio(p, q);
            let g = GenFib::through_ticks(lam, 60 * q as usize);
            for k in 0..(60 * q) {
                let t = Time::new(k, q);
                let v = g.value(t);
                let lo = fib_lower_bound(t, lam);
                let hi = fib_upper_bound(t, lam);
                assert!(lo <= v, "λ={lam} t={t}: lower {lo} > F={v}");
                assert!(v <= hi, "λ={lam} t={t}: F={v} > upper {hi}");
            }
        }
    }

    #[test]
    fn theorem7_part2_sandwiches_index() {
        for &(p, q) in LAMBDAS {
            let lam = Latency::from_ratio(p, q);
            let g = GenFib::covering(lam, 500);
            for n in 1..500u128 {
                let f = g.index(n).to_f64();
                let lo = index_lower_bound(n, lam);
                let hi = index_upper_bound(n, lam);
                assert!(lo <= f + 1e-9, "λ={lam} n={n}: lower {lo} > f_λ(n)={f}");
                assert!(f <= hi + 1e-9, "λ={lam} n={n}: f_λ(n)={f} > upper {hi}");
            }
        }
    }

    #[test]
    fn alpha_defined_only_for_large_lambda() {
        assert!(lemma25_alpha(Latency::from_int(2)).is_none());
        assert!(lemma25_alpha(Latency::from_ratio(5, 2)).is_none());
        assert!(lemma25_alpha(Latency::from_int(15)).is_none());
        assert!(lemma25_alpha(Latency::from_int(16)).is_some());
        assert!(lemma25_alpha(Latency::from_int(100)).is_some());
        let a = lemma25_alpha(Latency::from_int(1000)).unwrap();
        let b = lemma25_alpha(Latency::from_int(100_000)).unwrap();
        // α decreases toward 1 as λ grows.
        assert!(a > b && b > 1.0);
    }

    #[test]
    fn lemma25_lower_bound_holds_beyond_the_gate() {
        // Empirically verify the λ ≥ 16 gate: the Lemma 25 bound must hold
        // for every gated λ we expose.
        for lam_i in [16i128, 20, 30, 64, 200] {
            let lam = Latency::from_int(lam_i);
            let g = GenFib::through_ticks(lam, 15 * lam_i as usize);
            for t in (0..(15 * lam_i)).step_by(7) {
                let tt = Time::from_int(t);
                let lb = fib_asymptotic_lower_bound(tt, lam).unwrap();
                let v = g.value(tt) as f64;
                assert!(lb <= v * (1.0 + 1e-9), "λ={lam} t={t}: {lb} > {v}");
            }
        }
    }

    #[test]
    fn lemma26_upper_bound_holds_for_large_lambda_and_n() {
        // Lemma 26 requires n ≥ 2^λ; with λ = 100 that overflows u128, so
        // use the largest-n-representable regime and the observed slack:
        // the bound needs only to hold asymptotically, and for n = 2^120,
        // λ = 30 it already does.
        let lam = Latency::from_int(30);
        let g = GenFib::new(lam);
        let n = 1u128 << 120;
        let f = g.index(n).to_f64();
        let ub = index_asymptotic_upper_bound(n, lam).unwrap();
        assert!(f <= ub, "f={f} ub={ub}");
    }

    #[test]
    fn asymptotic_upper_bound_tighter_than_part2_for_huge_lambda() {
        // Section 5 remarks that Theorem 7's simple bounds have a factor-2
        // gap; the Lemma 26 bound removes most of it, but only once λ is
        // genuinely large — α < 2 needs roughly λ ≳ e^8.
        let lam = Latency::from_int(100_000);
        let n = 1u128 << 120;
        let simple = index_upper_bound(n, lam);
        let asym = index_asymptotic_upper_bound(n, lam).unwrap();
        assert!(asym < simple, "asym={asym} simple={simple}");
        // At moderate λ the asymptotic form is *looser* — worth pinning so
        // nobody "simplifies" the bounds module to always use it.
        let lam = Latency::from_int(50);
        let simple = index_upper_bound(n, lam);
        let asym = index_asymptotic_upper_bound(n, lam).unwrap();
        assert!(asym > simple);
    }

    #[test]
    #[should_panic(expected = "t ≥ 0")]
    fn negative_time_panics() {
        let _ = fib_lower_bound(Time::from_int(-1), Latency::TELEPHONE);
    }
}
