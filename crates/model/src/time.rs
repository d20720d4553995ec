//! Model time.
//!
//! Postal-model time is measured in *units*: one unit is the time a
//! processor spends sending (or receiving) one atomic message. [`Time`] is a
//! thin newtype over [`Ratio`] so that times and arbitrary rationals cannot
//! be mixed up in signatures; all times in this workspace are exact.
//!
//! Hot loops run on a second representation of the same values:
//! [`TickScale`] maps times to plain `i64` counts of `1/D`-unit ticks
//! on the lattice a run's λ induces (see its docs for the `D` rule),
//! and back. Conversions are checked, so a value the lattice cannot
//! hold is reported, never rounded.

use crate::latency::Latency;
use crate::ratio::{gcd_u64, Ratio};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or duration of) model time, in postal-model units.
///
/// `Time` is allowed to be negative in intermediate arithmetic (e.g. when
/// computing `f_λ(n) − λ`), but all schedule times produced by the crates in
/// this workspace are non-negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub Ratio);

impl Time {
    /// Time zero.
    pub const ZERO: Time = Time(Ratio::ZERO);
    /// One time unit (the cost of one send or one receive).
    pub const ONE: Time = Time(Ratio::ONE);

    /// Creates a time from an integer number of units.
    pub const fn from_int(units: i128) -> Time {
        Time(Ratio::from_int(units))
    }

    /// Creates a time of `num/den` units.
    pub fn new(num: i128, den: i128) -> Time {
        Time(Ratio::new(num, den))
    }

    /// The underlying exact rational value, in units.
    pub const fn as_ratio(self) -> Ratio {
        self.0
    }

    /// Approximate value in units, for display and plotting.
    pub fn to_f64(self) -> f64 {
        self.0.to_f64()
    }

    /// Returns `true` if this time is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// Maximum of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Minimum of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Multiplies this time by an integer factor.
    pub fn mul_int(self, k: i128) -> Time {
        Time(self.0.mul_int(k))
    }

    /// Multiplies this time by a rational factor.
    pub fn scale(self, k: Ratio) -> Time {
        Time(self.0 * k)
    }
}

/// Former name of the simulator's event-time type, kept as an alias of
/// [`Time`] for code written against it. Hot paths count [`TickScale`]
/// ticks instead.
pub type FastTime = Time;

/// Largest tick magnitude [`TickScale::to_tick`] accepts. The headroom
/// means the sum of two converted values can never overflow an `i64`,
/// so one comparison or addition of them needs no checked arithmetic.
pub const TICK_LIMIT: i64 = i64::MAX / 4;

/// The time lattice of one run: `i64` ticks of `1/D` unit.
///
/// In MPS(n, λ) with λ = p/q every send lasts one unit and every message
/// takes λ, so every event time a run produces is a multiple of `1/q`.
/// A run fixes `D = lcm(2, every λ denominator it can see)` — keeping
/// the factor 2 puts every integer and half-integer λ on half-unit
/// ticks — and its hot loops compare and add tick counts instead of
/// reduced 128-bit rationals. [`Time`] stays what programs, traces and
/// reports see; the scale converts at those edges.
///
/// Conversions are checked: [`TickScale::to_tick`] returns `None` for a
/// value off the lattice or beyond [`TICK_LIMIT`], and the caller either
/// refines the lattice ([`TickScale::refine`]) or takes an exact path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TickScale {
    den: i64,
}

impl TickScale {
    /// Half-unit ticks (`D = 2`): the lattice of every integer and
    /// half-integer λ.
    pub const HALF: TickScale = TickScale { den: 2 };

    /// The lattice of `den` ticks per unit; `None` unless `den ≥ 1`.
    pub fn new(den: i64) -> Option<TickScale> {
        (den >= 1).then_some(TickScale { den })
    }

    /// `D = lcm(2, d₁, d₂, …)` over the given denominators. `None` when
    /// a denominator is not positive or `D` overflows an `i64`.
    pub fn for_denominators(dens: impl IntoIterator<Item = i128>) -> Option<TickScale> {
        dens.into_iter()
            .try_fold(TickScale::HALF, TickScale::with_denominator)
    }

    /// The lattice of a run at one λ = p/q: `D = lcm(2, q)`.
    pub fn for_latency(lam: Latency) -> Option<TickScale> {
        TickScale::for_denominators([lam.ticks_per_unit()])
    }

    /// Ticks per unit, `D`. One unit — a send — is `den()` ticks.
    pub const fn den(self) -> i64 {
        self.den
    }

    /// The coarsest lattice that refines this one and holds `t`:
    /// `D' = lcm(D, denominator of t)`. `None` if `D'` overflows.
    pub fn refine(self, t: Time) -> Option<TickScale> {
        self.with_denominator(t.0.denom())
    }

    /// How many of this lattice's ticks make one tick of `coarser`, when
    /// this lattice refines it (`coarser.den()` divides `den()`).
    pub fn factor_over(self, coarser: TickScale) -> Option<i64> {
        (self.den % coarser.den == 0).then_some(self.den / coarser.den)
    }

    fn with_denominator(self, d: i128) -> Option<TickScale> {
        let d = i64::try_from(d).ok().filter(|&d| d >= 1)?;
        let g = gcd_u64(self.den as u64, d as u64) as i64;
        Some(TickScale {
            den: self.den.checked_mul(d / g)?,
        })
    }

    /// `t` as a tick count, or `None` when `t` is off this lattice or
    /// its count exceeds [`TICK_LIMIT`] in magnitude.
    pub fn to_tick(self, t: Time) -> Option<i64> {
        let den = i64::try_from(t.0.denom()).ok()?;
        let per = self.den / den;
        if per * den != self.den {
            return None;
        }
        let tick = i64::try_from(t.0.numer()).ok()?.checked_mul(per)?;
        (tick.unsigned_abs() <= TICK_LIMIT as u64).then_some(tick)
    }

    /// The exact time `tick / D`. Total: every `i64` tick is a time.
    pub fn to_time(self, tick: i64) -> Time {
        let g = gcd_u64(tick.unsigned_abs(), self.den as u64) as i64;
        Time(Ratio::from_reduced(
            (tick / g) as i128,
            (self.den / g) as i128,
        ))
    }
}

impl From<Ratio> for Time {
    fn from(r: Ratio) -> Time {
        Time(r)
    }
}

impl From<i128> for Time {
    fn from(n: i128) -> Time {
        Time::from_int(n)
    }
}

impl From<u32> for Time {
    fn from(n: u32) -> Time {
        Time::from_int(n as i128)
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Add<Ratio> for Time {
    type Output = Time;
    fn add(self, rhs: Ratio) -> Time {
        Time(self.0 + rhs)
    }
}

impl Sub<Ratio> for Time {
    type Output = Time;
    fn sub(self, rhs: Ratio) -> Time {
        Time(self.0 - rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::ratio;

    #[test]
    fn construction_and_accessors() {
        let t = Time::new(5, 2);
        assert_eq!(t.as_ratio(), ratio(5, 2));
        assert!((t.to_f64() - 2.5).abs() < 1e-15);
        assert!(Time::ZERO.is_zero());
        assert!(!Time::ONE.is_zero());
    }

    #[test]
    fn arithmetic() {
        let a = Time::new(5, 2);
        let b = Time::ONE;
        assert_eq!(a + b, Time::new(7, 2));
        assert_eq!(a - b, Time::new(3, 2));
        assert_eq!(a + ratio(1, 2), Time::from_int(3));
        assert_eq!(a - ratio(1, 2), Time::from_int(2));
        let mut c = a;
        c += b;
        c -= Time::new(1, 2);
        assert_eq!(c, Time::from_int(3));
    }

    #[test]
    fn ordering_and_extrema() {
        let a = Time::new(5, 2);
        let b = Time::from_int(3);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scaling() {
        assert_eq!(Time::new(5, 2).mul_int(2), Time::from_int(5));
        assert_eq!(Time::from_int(3).scale(ratio(1, 3)), Time::ONE);
    }

    #[test]
    fn display() {
        assert_eq!(Time::new(15, 2).to_string(), "15/2");
        assert_eq!(format!("{:?}", Time::from_int(4)), "t=4");
    }

    #[test]
    fn tick_scale_follows_the_lcm_rule() {
        let den = |num, den| TickScale::for_latency(Latency::from_ratio(num, den)).map(|s| s.den());
        assert_eq!(den(2, 1), Some(2));
        assert_eq!(den(5, 2), Some(2));
        assert_eq!(den(7, 3), Some(6));
        assert_eq!(den(13, 5), Some(10));
        assert_eq!(den(8, 3), Some(6));
        assert_eq!(
            TickScale::for_denominators([2, 3]).map(|s| s.den()),
            Some(6)
        );
        assert_eq!(TickScale::for_denominators([0]), None);
        assert_eq!(TickScale::for_denominators([i128::MAX]), None);
        assert_eq!(TickScale::new(0), None);
    }

    #[test]
    fn tick_round_trips_and_rejects_off_lattice_values() {
        let six = TickScale::new(6).unwrap();
        assert_eq!(six.to_tick(Time::new(7, 3)), Some(14));
        assert_eq!(six.to_tick(Time::new(5, 2)), Some(15));
        assert_eq!(six.to_tick(Time::new(-1, 2)), Some(-3));
        assert_eq!(six.to_tick(Time::new(1, 4)), None);
        assert_eq!(six.to_time(14), Time::new(7, 3));
        assert_eq!(six.to_time(0), Time::ZERO);
        assert_eq!(six.to_time(-3), Time::new(-1, 2));
        assert_eq!(TickScale::HALF.to_tick(Time::new(7, 3)), None);
        assert_eq!(TickScale::HALF.to_tick(Time::from_int(3)), Some(6));
    }

    #[test]
    fn tick_range_is_checked() {
        let half = TickScale::HALF;
        assert_eq!(half.to_tick(half.to_time(TICK_LIMIT)), Some(TICK_LIMIT));
        assert_eq!(half.to_tick(half.to_time(TICK_LIMIT + 1)), None);
        assert_eq!(half.to_tick(Time::from_int(i64::MAX as i128)), None);
        assert_eq!(half.to_tick(Time::new(1, i128::MAX)), None);
        // Every i64 tick converts back exactly, extremes included.
        assert_eq!(half.to_time(i64::MIN), Time::from_int(i64::MIN as i128 / 2));
    }

    #[test]
    fn refinement_takes_the_lcm() {
        let six = TickScale::new(6).unwrap();
        let r = six.refine(Time::new(1, 7)).unwrap();
        assert_eq!(r.den(), 42);
        assert_eq!(r.factor_over(six), Some(7));
        assert_eq!(six.factor_over(r), None);
        assert_eq!(six.refine(Time::new(5, 2)), Some(six));
        assert_eq!(six.refine(Time::new(1, i128::MAX)), None);
    }
}
