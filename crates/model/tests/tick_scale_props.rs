//! Property tests for the `i64` tick lattice ([`TickScale`]).
//!
//! Hot loops count time in ticks of `1/D` unit, `D = lcm(2, q)` for
//! λ = p/q, with an exact-`Ratio` fallback only for values off the
//! lattice or out of range. These properties pin the contract:
//!
//! * conversions round-trip exactly on every lattice, refuse values
//!   off it, and survive refinement;
//! * on random rational-λ schedules, the index's tick lane agrees with
//!   exact arithmetic on **every** comparison and index predicate, and
//!   the linter's diagnostics match the reference engine byte for byte;
//! * tick arithmetic and ordering match [`Time`] exactly, through
//!   `Display`;
//! * values past [`TICK_LIMIT`] have no tick — never a wrapped one —
//!   and refusing them keeps the exact value intact.

use postal_model::lint::reference::lint_schedule_reference;
use postal_model::lint::{lint_schedule, LintOptions, ScheduleIndex};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::TICK_LIMIT;
use postal_model::{Latency, TickScale, Time};
use proptest::prelude::*;

/// Random rational λ = p/q with q ≤ 6 and 1 ≤ λ ≤ 8.
fn arb_lambda() -> impl Strategy<Value = Latency> {
    (1i128..=6, 0i128..=42).prop_map(|(q, extra)| Latency::from_ratio(q + extra % (7 * q), q))
}

/// Random schedules over up to 8 processors whose send starts lie on
/// λ's tick lattice.
fn arb_lattice_schedule() -> impl Strategy<Value = Schedule> {
    (
        arb_lambda(),
        2u32..=8,
        collection::vec((0u32..8, 0u32..8, 0i64..=96), 0..24),
    )
        .prop_map(|(lam, n, raw)| {
            let scale = TickScale::for_latency(lam).expect("small denominators");
            let sends = raw
                .into_iter()
                .map(|(src, dst, tick)| TimedSend {
                    src: src % n,
                    dst: dst % n,
                    send_start: scale.to_time(tick),
                })
                .collect();
            Schedule::new(n, lam, sends)
        })
}

/// A random lattice: `D` in 1..=60.
fn arb_scale() -> impl Strategy<Value = TickScale> {
    (1i64..=60).prop_map(|d| TickScale::new(d).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ticks_round_trip_and_refuse_off_lattice_values(
        scale in arb_scale(), tick in -100_000i64..=100_000, den in 1i128..=60,
    ) {
        let t = scale.to_time(tick);
        prop_assert_eq!(scale.to_tick(t), Some(tick));
        prop_assert_eq!(t, Time::new(tick as i128, scale.den() as i128));
        // An arbitrary value is on the lattice iff its denominator
        // divides D — and then it converts exactly.
        let v = Time::new(tick as i128, den);
        let on = scale.den() as i128 % v.as_ratio().denom() == 0;
        prop_assert_eq!(scale.to_tick(v).is_some(), on);
        if let Some(h) = scale.to_tick(v) {
            prop_assert_eq!(scale.to_time(h), v);
        }
        // Refining onto v's lattice keeps every old tick, scaled.
        let finer = scale.refine(v).expect("small denominators");
        let k = finer.factor_over(scale).expect("refinement");
        prop_assert_eq!(finer.to_tick(t), Some(tick * k));
        prop_assert!(finer.to_tick(v).is_some());
    }

    #[test]
    fn tick_lane_predicates_agree_with_exact_arithmetic(s in arb_lattice_schedule()) {
        let idx = ScheduleIndex::build(&s);
        prop_assert!(idx.has_fast_lane(), "lattice schedule must take the tick lane");
        let arena = idx.arena();
        for i in 0..arena.len() {
            for j in 0..arena.len() {
                prop_assert_eq!(
                    idx.lt_one_apart(i, j),
                    arena[j].send_start < arena[i].send_start + Time::ONE,
                    "lt_one_apart({}, {})", i, j
                );
            }
            let exact_informed = match idx.first_receipt(arena[i].src) {
                Some(t) => t <= arena[i].send_start,
                None => false,
            };
            prop_assert_eq!(idx.sender_informed(i), exact_informed, "sender_informed({})", i);
        }
    }

    #[test]
    fn diagnostics_agree_byte_for_byte_on_the_lattice(s in arb_lattice_schedule(), m in 1u64..=4) {
        for opts in [
            LintOptions::broadcast_of(m),
            LintOptions::ports_only(),
        ] {
            let fast = lint_schedule(&s, &opts);
            let slow = lint_schedule_reference(&s, &opts);
            prop_assert_eq!(&fast, &slow);
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert_eq!(&a.message, &b.message);
                prop_assert_eq!(a.to_string(), b.to_string());
            }
        }
    }

    #[test]
    fn tick_arithmetic_matches_time(
        scale in arb_scale(), a in -1000i64..=1000, b in -1000i64..=1000,
    ) {
        let (ta, tb) = (scale.to_time(a), scale.to_time(b));
        prop_assert_eq!(scale.to_time(a + b), ta + tb);
        prop_assert_eq!(scale.to_time(a - b), ta - tb);
        prop_assert_eq!(a.cmp(&b), ta.cmp(&tb));
        prop_assert_eq!(scale.to_time(a.max(b)), ta.max(tb));
        prop_assert_eq!(scale.to_time(a.min(b)), ta.min(tb));
        prop_assert_eq!(scale.to_time(a + scale.den()), ta + Time::ONE);
        prop_assert_eq!(scale.to_time(a).to_string(), ta.to_string());
    }

    #[test]
    fn values_past_the_limit_have_no_tick(
        scale in arb_scale(), delta in 0i64..=8, step in 1i64..=1000,
    ) {
        // h sits within `step` of the tick ceiling: the exact sum must
        // convert iff it stays in range, and never to a wrapped tick.
        let h = TICK_LIMIT - delta;
        let big = scale.to_time(h);
        prop_assert_eq!(scale.to_tick(big), Some(h));
        let sum = big + scale.to_time(step);
        let expect = (h + step <= TICK_LIMIT).then_some(h + step);
        prop_assert_eq!(scale.to_tick(sum), expect);
        // The exact value survives the refusal: subtracting back lands
        // on the lattice again.
        prop_assert_eq!(scale.to_tick(sum - scale.to_time(step)), Some(h));
        prop_assert_eq!(scale.to_tick(Time::ZERO - sum), expect.map(|e| -e));
    }

    #[test]
    fn off_lattice_schedules_skip_the_lane_but_lint_identically(
        s in arb_lattice_schedule(), seventh in 1i128..=5
    ) {
        // Push one send off every lattice with q ≤ 6 (numerator chosen
        // ≢ 0 mod 7 so the fraction never reduces): the lane must
        // disengage and the exact path must still match the reference.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        sends.push(TimedSend { src: 0, dst: 1, send_start: Time::new(7 * seventh + 1, 7) });
        let off = Schedule::new(s.n(), s.latency(), sends);
        prop_assert!(!ScheduleIndex::build(&off).has_fast_lane());
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&off, &opts),
            lint_schedule_reference(&off, &opts)
        );
    }

    #[test]
    fn oversized_times_disable_the_lane_entirely(s in arb_lattice_schedule()) {
        // One start past the tick range disables the all-or-nothing
        // lane; diagnostics still match the reference through the exact
        // path.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        let scale = TickScale::for_latency(s.latency()).expect("small denominators");
        sends.push(TimedSend {
            src: 0,
            dst: 1,
            send_start: scale.to_time(TICK_LIMIT) + Time::ONE,
        });
        let huge = Schedule::new(s.n(), s.latency(), sends);
        prop_assert!(!ScheduleIndex::build(&huge).has_fast_lane());
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&huge, &opts),
            lint_schedule_reference(&huge, &opts)
        );
    }
}
