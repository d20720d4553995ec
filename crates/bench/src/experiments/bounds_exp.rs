//! Experiment T7: the Theorem 7 sandwich bounds on `F_λ(t)` and `f_λ(n)`
//! plus the appendix's asymptotic refinements (Lemmas 25/26).

use crate::table::Table;
use postal_model::bounds;
use postal_model::{GenFib, Latency, Time};

/// Theorem 7(1): `(⌈λ⌉+1)^⌊t/2λ⌋ ≤ F_λ(t) ≤ (⌈λ⌉+1)^⌊t/λ⌋`.
pub fn fib_bounds() -> Table {
    let mut table = Table::new(
        "T7(1): bounds on the generalized Fibonacci function F_λ(t)",
        &["λ", "t", "lower", "F_λ(t)", "upper"],
    );
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_int(4),
        Latency::from_int(10),
    ] {
        let g = GenFib::through_ticks(lam, 80 * lam.ticks_per_unit() as usize);
        for t in [0i128, 5, 10, 20, 40, 80] {
            let tt = Time::from_int(t);
            let (lo, v, hi) = (
                bounds::fib_lower_bound(tt, lam),
                g.value(tt),
                bounds::fib_upper_bound(tt, lam),
            );
            assert!(lo <= v && v <= hi);
            table.row(vec![
                lam.to_string(),
                t.to_string(),
                lo.to_string(),
                v.to_string(),
                hi.to_string(),
            ]);
        }
    }
    table
}

/// Theorem 7(2): `λ log n / log(⌈λ⌉+1) ≤ f_λ(n) ≤ 2λ + 2λ log n / log(⌈λ⌉+1)`.
pub fn index_bounds() -> Table {
    let mut table = Table::new(
        "T7(2): bounds on the index function f_λ(n); ratio = f/lower shows the ≤2 gap",
        &["λ", "n", "lower", "f_λ(n)", "upper", "f/lower"],
    );
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_int(4),
        Latency::from_int(10),
    ] {
        let g = GenFib::covering(lam, 1 << 40);
        for n in [2u128, 16, 256, 4096, 1 << 20, 1 << 40] {
            let f = g.index(n).to_f64();
            let lo = bounds::index_lower_bound(n, lam);
            let hi = bounds::index_upper_bound(n, lam);
            assert!(lo <= f + 1e-9 && f <= hi + 1e-9);
            table.row(vec![
                lam.to_string(),
                n.to_string(),
                format!("{lo:.2}"),
                format!("{f:.2}"),
                format!("{hi:.2}"),
                format!("{:.3}", f / lo.max(1e-9)),
            ]);
        }
    }
    table
}

/// Theorem 7(3)/(4): the large-λ asymptotic bounds of Lemmas 25/26 close
/// most of the factor-2 gap noted in Section 5.
pub fn asymptotic_bounds() -> Table {
    let mut table = Table::new(
        "T7(3,4): asymptotic refinement (large λ): f_λ(n) vs simple and Lemma 26 bounds",
        &["λ", "n", "f_λ(n)", "simple upper", "Lemma 26 upper", "α"],
    );
    for lam_i in [30i128, 100, 1000, 100_000] {
        let lam = Latency::from_int(lam_i);
        let g = GenFib::covering(lam, 1 << 120);
        let alpha = bounds::lemma25_alpha(lam).expect("λ ≥ 16 is in the gated regime");
        for n in [1u128 << 40, 1 << 90, 1 << 120] {
            let f = g.index(n).to_f64();
            let simple = bounds::index_upper_bound(n, lam);
            let asym = bounds::index_asymptotic_upper_bound(n, lam)
                .expect("λ ≥ 16 is in the gated regime");
            assert!(f <= simple + 1e-6 && f <= asym + 1e-6);
            table.row(vec![
                lam.to_string(),
                format!("2^{}", n.ilog2()),
                format!("{f:.0}"),
                format!("{simple:.0}"),
                format!("{asym:.0}"),
                format!("{alpha:.3}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bounds_tables_populate() {
        assert_eq!(fib_bounds().len(), 24);
        assert_eq!(index_bounds().len(), 24);
        assert_eq!(asymptotic_bounds().len(), 12);
    }

    #[test]
    fn index_ratio_stays_under_upper_gap() {
        // The f/lower ratio in T7(2) must respect the theorem: at most
        // 2 + 2λ/lower (finite slack); spot-check it stays under 3 on
        // this grid for n ≥ 16.
        let table = index_bounds();
        for row in table.rows() {
            let n: u128 = row[1].parse().unwrap();
            if n >= 16 {
                let ratio: f64 = row[5].parse().unwrap();
                assert!(ratio < 3.0, "row {row:?}");
            }
        }
    }
}
