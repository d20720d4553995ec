//! Property tests for `Ratio`'s order.
//!
//! `Ratio::cmp` compares numerators when the denominators agree and
//! plain cross-products when those fit an `i128`; only when a product
//! overflows does it cross-reduce by the gcds first. These properties
//! pin it to the cross-reduced comparison on every input that
//! comparison can order, including operands whose unreduced products
//! overflow, and pin the panic on the ones it cannot.

use postal_model::ratio::Ratio;
use proptest::prelude::*;
use std::cmp::Ordering;

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a as i128
}

/// The reference order: cross-reduce by the gcds of the numerators and
/// of the denominators, then compare cross-products. `None` when a
/// reduced product still overflows.
fn cross_reduced(a: Ratio, b: Ratio) -> Option<Ordering> {
    let g_num = gcd(a.numer(), b.numer()).max(1);
    let g_den = gcd(a.denom(), b.denom());
    let lhs = (a.numer() / g_num).checked_mul(b.denom() / g_den)?;
    let rhs = (b.numer() / g_num).checked_mul(a.denom() / g_den)?;
    Some(lhs.cmp(&rhs))
}

fn assert_orders_like_reference(a: Ratio, b: Ratio) {
    let want = cross_reduced(a, b).expect("reference orders the pair");
    assert_eq!(a.cmp(&b), want, "{a} vs {b}");
    assert_eq!(b.cmp(&a), want.reverse(), "{b} vs {a}");
}

/// Numerators whose products with a denominator can overflow, and
/// small ones, of either sign.
fn arb_num() -> impl Strategy<Value = i128> {
    (any::<bool>(), any::<i128>(), -1000i128..=1000).prop_map(
        |(wide, x, small)| {
            if wide {
                x >> 1
            } else {
                small
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Over a prime denominator a wide numerator almost never cancels,
    /// so the pair keeps equal denominators; the order is the
    /// numerators' even where every cross-product would overflow.
    #[test]
    fn equal_denominators_order_by_numerator(a in arb_num(), b in arb_num(), pick in 0usize..4) {
        let den = [2, 3, 1_000_003, (1i128 << 61) - 1][pick];
        let (x, y) = (Ratio::new(a, den), Ratio::new(b, den));
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        assert_orders_like_reference(x, y);
    }

    #[test]
    fn integers_order_like_i128(a in arb_num(), b in arb_num()) {
        prop_assert_eq!(Ratio::from_int(a).cmp(&Ratio::from_int(b)), a.cmp(&b));
    }

    #[test]
    fn small_fractions_order_like_the_reference(
        a in -100_000i128..=100_000,
        b in 1i128..=100_000,
        c in -100_000i128..=100_000,
        d in 1i128..=100_000,
    ) {
        assert_orders_like_reference(Ratio::new(a, b), Ratio::new(c, d));
        // The order agrees with f64 wherever f64 separates the values.
        let (x, y) = (a as f64 / b as f64, c as f64 / d as f64);
        if (x - y).abs() > 1e-9 {
            prop_assert_eq!(Ratio::new(a, b).cmp(&Ratio::new(c, d)), x.partial_cmp(&y).unwrap());
        }
    }

    /// `±x·2^61 / (u·3^38)` against `y·2^61 / (v·3^38)`, with `x`, `y`
    /// products of 5s and 11s and `u`, `v` of 7s and 13s: every
    /// unreduced cross-product overflows an `i128`, every reduced one
    /// fits.
    #[test]
    fn overflowing_products_fall_back_to_the_reduced_order(
        ea in (0u32..3, 0u32..3, 1u32..3, 1u32..3),
        eb in (0u32..3, 0u32..3, 1u32..3, 1u32..3),
        neg in any::<bool>(),
    ) {
        let (g, h) = (1i128 << 61, 3i128.pow(38));
        let part = |(i, j, k, l): (u32, u32, u32, u32)| {
            (5i128.pow(i) * 11i128.pow(j) * g, 7i128.pow(k) * 13i128.pow(l) * h)
        };
        let ((an, ad), (bn, bd)) = (part(ea), part(eb));
        let a = Ratio::new(if neg { -an } else { an }, ad);
        let b = Ratio::new(bn, bd);
        prop_assert!(a.numer().checked_mul(b.denom()).is_none());
        assert_orders_like_reference(a, b);
        assert_orders_like_reference(a, a);
    }
}

#[test]
fn pinned_overflowing_pair_orders_by_its_reduced_products() {
    // 5·2^61 / (11·3^38) vs 7·2^61 / (13·3^38): the unreduced products
    // are about 2·10^38, past i128::MAX; reduced, 65 < 77.
    let (g, h) = (1i128 << 61, 3i128.pow(38));
    let a = Ratio::new(5 * g, 11 * h);
    let b = Ratio::new(7 * g, 13 * h);
    assert!(a.numer().checked_mul(b.denom()).is_none());
    assert_eq!(a.cmp(&b), Ordering::Less);
    assert_eq!(b.cmp(&a), Ordering::Greater);
    assert_eq!((-a).cmp(&b), Ordering::Less);
    assert_eq!(a.cmp(&a), Ordering::Equal);
}

#[test]
#[should_panic(expected = "Ratio overflow in cmp")]
fn a_pair_no_i128_product_orders_panics() {
    // Coprime numerators near i128::MAX over coprime denominators: the
    // cross-products overflow even after reduction.
    let a = Ratio::new(i128::MAX, 2);
    let b = Ratio::new(i128::MAX - 2, 3);
    let _ = a.cmp(&b);
}
