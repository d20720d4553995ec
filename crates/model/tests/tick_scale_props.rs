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
//!   both lint drivers' diagnostics match the reference engine byte for
//!   byte, malformed sends and any originator included;
//! * tick arithmetic and ordering match [`Time`] exactly, through
//!   `Display`;
//! * values past [`TICK_LIMIT`] have no tick — never a wrapped one —
//!   and refusing them keeps the exact value intact.

use postal_model::lint::reference::lint_schedule_reference;
use postal_model::lint::{lint_schedule, lint_schedule_streaming, LintOptions, ScheduleIndex};
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

/// [`arb_lattice_schedule`] plus up to four more sends on the lattice
/// that may be malformed: endpoints up to two past the largest `n`,
/// starts down to −4 ticks.
fn arb_messy_schedule() -> impl Strategy<Value = Schedule> {
    (
        arb_lattice_schedule(),
        collection::vec((0u32..10, 0u32..10, -4i64..=96), 0..4),
    )
        .prop_map(|(s, extra)| {
            let scale = TickScale::for_latency(s.latency()).expect("small denominators");
            let mut sends = s.sends().to_vec();
            sends.extend(extra.into_iter().map(|(src, dst, tick)| TimedSend {
                src,
                dst,
                send_start: scale.to_time(tick),
            }));
            Schedule::new(s.n(), s.latency(), sends)
        })
}

/// Checks the index's two predicates — the `P0001`/`P0002` port-window
/// check and `P0003`'s first-receipt causality — against exact
/// arithmetic on every pair of `s`'s send starts plus `extra`, and its
/// first receipts against a direct scan of the well-formed sends.
fn predicates_match_exact(s: &Schedule, extra: Time) -> Result<(), TestCaseError> {
    let idx = ScheduleIndex::build(s);
    let lam = s.latency();
    let n = s.n();
    let well_formed =
        |t: &&TimedSend| t.src < n && t.dst < n && t.src != t.dst && t.send_start >= Time::ZERO;
    let mut starts: Vec<Time> = s.sends().iter().map(|t| t.send_start).collect();
    starts.push(extra);
    for &a in &starts {
        for &b in &starts {
            prop_assert_eq!(
                idx.lt_one_apart(a, b),
                b < a + Time::ONE,
                "lt_one_apart({}, {})",
                a,
                b
            );
        }
    }
    for p in 0..n {
        let exact_receipt = s
            .sends()
            .iter()
            .filter(well_formed)
            .filter(|t| t.dst == p)
            .map(|t| t.recv_finish(lam))
            .min();
        prop_assert_eq!(idx.first_receipt(p), exact_receipt, "first_receipt({})", p);
        for &t in &starts {
            let exact_informed = exact_receipt.is_some_and(|r| r <= t);
            prop_assert_eq!(
                idx.informed_by(p, t),
                exact_informed,
                "informed_by({}, {})",
                p,
                t
            );
        }
    }
    Ok(())
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
        // Every start — and a probe one tick past the largest — sits on
        // the index's lattice, so the predicates answer on ticks.
        let idx = ScheduleIndex::build(&s);
        let probe = idx.scale().to_time(97);
        prop_assert!(
            s.sends().iter().all(|t| idx.scale().to_tick(t.send_start).is_some()),
            "lattice schedule must take the tick lane"
        );
        predicates_match_exact(&s, probe)?;
    }

    #[test]
    fn diagnostics_agree_byte_for_byte_on_the_lattice(
        s in arb_messy_schedule(), m in 1u64..=4, orig in 0u32..8,
    ) {
        let originator = orig % s.n();
        for opts in [
            LintOptions::broadcast_of(m),
            LintOptions { originator, ..LintOptions::broadcast_of(m) },
            LintOptions { originator, ..LintOptions::ports_only() },
        ] {
            let sorted = lint_schedule(&s, &opts);
            let streamed = lint_schedule_streaming(&s, &opts);
            let slow = lint_schedule_reference(&s, &opts);
            prop_assert_eq!(&sorted, &slow);
            prop_assert_eq!(&streamed, &slow);
            for ((a, b), c) in sorted.iter().zip(&slow).zip(&streamed) {
                prop_assert_eq!(&a.message, &b.message);
                prop_assert_eq!(a.to_string(), b.to_string());
                prop_assert_eq!(c.to_string(), b.to_string());
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
        // ≢ 0 mod 7 so the fraction never reduces): its comparisons and
        // p1's first receipt must take the exact path and still match
        // exact arithmetic and the reference.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        let seventh = Time::new(7 * seventh + 1, 7);
        sends.push(TimedSend { src: 0, dst: 1, send_start: seventh });
        let off = Schedule::new(s.n(), s.latency(), sends);
        prop_assert!(ScheduleIndex::build(&off).scale().to_tick(seventh).is_none());
        predicates_match_exact(&off, seventh)?;
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&off, &opts),
            lint_schedule_reference(&off, &opts)
        );
    }

    #[test]
    fn oversized_times_disable_the_lane_entirely(s in arb_lattice_schedule()) {
        // One start past the tick range has no tick; its comparisons and
        // p1's first receipt take the exact path, and diagnostics still
        // match the reference.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        let scale = TickScale::for_latency(s.latency()).expect("small denominators");
        let past = scale.to_time(TICK_LIMIT) + Time::ONE;
        sends.push(TimedSend { src: 0, dst: 1, send_start: past });
        let huge = Schedule::new(s.n(), s.latency(), sends);
        prop_assert!(ScheduleIndex::build(&huge).scale().to_tick(past).is_none());
        predicates_match_exact(&huge, past)?;
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&huge, &opts),
            lint_schedule_reference(&huge, &opts)
        );
    }
}
