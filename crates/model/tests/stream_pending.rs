//! Differential tests for the watermark driver's pending queue.
//!
//! [`StreamingLint`] parks each observed send until the watermark
//! passes its start, then finalizes it in canonical `(send_start, src,
//! dst)` order: on-lattice sends in per-start-tick buckets, off-lattice
//! ones in an exact heap. Every feed below is one a live engine could
//! produce — each send observed no later than its start, the watermark
//! following the observation times — and the streamed report must equal
//! the sorted driver's ([`lint_schedule`]) byte for byte, however the
//! feed orders, duplicates or books its sends ahead.
//!
//! Also pinned: a late send only raises [`StreamingLint::out_of_order`],
//! the pending high-water mark counts the backlog, and drained buckets
//! give their memory back.

use postal_model::lint::{lint_schedule, Diagnostic, LintOptions, StreamingLint};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{Latency, TickScale, Time};
use proptest::prelude::*;

fn send(src: u32, dst: u32, start: Time) -> TimedSend {
    TimedSend {
        src,
        dst,
        send_start: start,
    }
}

/// The option sets every case is linted under.
fn all_opts() -> [LintOptions; 3] {
    [
        LintOptions::default(),
        LintOptions::ports_only(),
        LintOptions::broadcast_of(2),
    ]
}

/// Replays `feed` — `(observed_at, send)` in observation order — the way
/// a live engine does: the watermark rises to each observation time
/// before the send is observed.
fn stream(
    n: u32,
    lam: Latency,
    opts: LintOptions,
    feed: &[(Time, TimedSend)],
) -> (Vec<Diagnostic>, bool) {
    let mut lint = StreamingLint::new(n, lam, opts);
    for (at, s) in feed {
        lint.advance_watermark(*at);
        lint.observe_send(s.src, s.dst, s.send_start);
    }
    let late = lint.out_of_order();
    (lint.finish(), late)
}

/// Checks that streaming `feed` and sorting its sends report the same
/// diagnostics, rendered identically.
fn check(n: u32, lam: Latency, feed: &[(Time, TimedSend)]) -> Result<(), TestCaseError> {
    let sends: Vec<TimedSend> = feed.iter().map(|(_, s)| *s).collect();
    let schedule = Schedule::new(n, lam, sends);
    for opts in all_opts() {
        let (streamed, late) = stream(n, lam, opts, feed);
        prop_assert!(!late, "a live feed is never late");
        let sorted = lint_schedule(&schedule, &opts);
        prop_assert_eq!(&streamed, &sorted, "{:?}", opts);
        for (a, b) in streamed.iter().zip(&sorted) {
            prop_assert_eq!(a.to_string(), b.to_string());
        }
    }
    Ok(())
}

fn assert_matches(n: u32, lam: Latency, feed: &[(Time, TimedSend)]) {
    if let Err(e) = check(n, lam, feed) {
        panic!("{e}");
    }
}

#[test]
fn same_tick_bursts_observed_in_reverse_order() {
    // Every ordered pair of 6 processors sends at the same instant, for
    // three instants, observed in reverse (src, dst) order: P0001 and
    // P0002 fire on every port, in canonical order only.
    let lam = Latency::from_ratio(5, 2);
    let mut feed = Vec::new();
    for t in [Time::ZERO, Time::new(1, 2), Time::from_int(3)] {
        let mut burst = Vec::new();
        for src in 0..6 {
            for dst in 0..6 {
                if src != dst {
                    burst.push((t, send(src, dst, t)));
                }
            }
        }
        burst.reverse();
        feed.extend(burst);
    }
    assert_matches(6, lam, &feed);
}

#[test]
fn duplicate_identical_sends() {
    let lam = Latency::from_int(2);
    let feed: Vec<(Time, TimedSend)> = [
        send(0, 1, Time::ZERO),
        send(0, 1, Time::ZERO),
        send(0, 2, Time::ONE),
        send(1, 2, Time::from_int(2)),
        send(0, 2, Time::ONE),
        send(1, 2, Time::from_int(2)),
    ]
    .iter()
    .map(|&s| (Time::ZERO, s))
    .collect();
    assert_matches(3, lam, &feed);
}

#[test]
fn sends_booked_far_ahead_of_the_watermark() {
    // p0 books a send a million units ahead, then the watermark creeps
    // forward in half units while a relay line runs beneath it.
    let lam = Latency::from_int(2);
    let mut feed = vec![(Time::ZERO, send(0, 9, Time::from_int(1_000_000)))];
    for k in 0..8u32 {
        let at = Time::new(i128::from(k), 2);
        feed.push((at, send(k, k + 1, at + Time::from_int(2))));
    }
    feed.push((Time::from_int(5), send(8, 7, Time::from_int(999_999))));
    assert_matches(10, lam, &feed);
}

#[test]
fn exact_and_tick_lanes_interleave() {
    // λ = 4/3 runs on sixths: thirds and halves take the tick lane,
    // fifths the exact one. Watermarks land on both kinds of time.
    let lam = Latency::from_ratio(4, 3);
    let t = Time::new;
    let feed = [
        (t(0, 1), send(0, 1, t(0, 1))),
        (t(0, 1), send(0, 2, t(6, 5))),
        (t(0, 1), send(0, 3, t(1, 5))),
        (t(1, 5), send(1, 2, t(4, 3))),
        (t(1, 5), send(0, 4, t(7, 3))),
        (t(4, 3), send(1, 3, t(7, 3))),
        (t(6, 5), send(2, 4, t(13, 5))),
        (t(6, 5), send(2, 3, t(13, 5))),
        (t(7, 3), send(3, 1, t(7, 3))),
        (t(12, 5), send(4, 0, t(5, 2))),
    ];
    assert_matches(5, lam, &feed);
}

#[test]
fn a_late_send_only_flags_the_stream() {
    let lam = Latency::from_int(2);
    for late_start in [Time::ONE, Time::new(1, 3)] {
        let mut lint = StreamingLint::new(3, lam, LintOptions::default());
        lint.observe_send(0, 1, Time::ZERO);
        lint.observe_send(0, 2, Time::from_int(4));
        lint.advance_watermark(Time::from_int(3));
        assert!(!lint.out_of_order());
        lint.observe_send(1, 2, late_start);
        assert!(lint.out_of_order(), "{late_start}");
        // The late send is finalized at the next step; nothing panics.
        lint.advance_watermark(Time::from_int(3));
        assert_eq!(lint.pending_len(), 1);
        assert!(!lint.finish().is_empty());
    }
}

#[test]
fn the_high_water_mark_counts_the_backlog() {
    let mut lint = StreamingLint::new(5, Latency::from_int(2), LintOptions::default());
    assert_eq!(lint.pending_high_water(), 0);
    for dst in 1..5 {
        lint.observe_send(0, dst, Time::from_int(i128::from(dst)));
    }
    lint.observe_send(1, 2, Time::new(1, 5));
    assert_eq!(lint.pending_high_water(), 5);
    lint.advance_watermark(Time::from_int(10));
    assert_eq!(lint.pending_len(), 0);
    lint.observe_send(2, 3, Time::from_int(10));
    assert_eq!(lint.pending_high_water(), 5);
}

#[test]
fn drained_buckets_give_their_memory_back() {
    // p0 sends to everyone and then hears back from everyone, one unit
    // apart (clean), all booked ahead: pending memory grows with the
    // backlog and returns to the empty-queue figure once the watermark
    // passes everything.
    let n = 1001;
    let opts = LintOptions::ports_only();
    let mut lint = StreamingLint::new(n, Latency::from_int(2), opts);
    let empty = lint.memory_bytes();
    for dst in 1..n {
        lint.observe_send(0, dst, Time::from_int(i128::from(dst)));
    }
    for src in 1..n {
        lint.observe_send(src, 0, Time::from_int(5_000 + i128::from(src)));
    }
    assert!(lint.memory_bytes() >= empty + 2_000 * 8);
    lint.advance_watermark(Time::from_int(10_000));
    assert_eq!(lint.pending_len(), 0);
    assert_eq!(lint.memory_bytes(), empty);
    assert!(lint.finish().is_empty());
}

/// Random rational λ = p/q with q ≤ 6 and 1 ≤ λ ≤ 8.
fn arb_lambda() -> impl Strategy<Value = Latency> {
    (1i128..=6, 0i128..=42).prop_map(|(q, extra)| Latency::from_ratio(q + extra % (7 * q), q))
}

/// A live feed over up to 8 processors: each send starts on λ's lattice
/// or a fifth past it, is observed up to 48 ticks ahead of its start
/// (never before time zero), and ties in observation time fall in a
/// random order. Endpoints may be out of range or equal.
fn arb_feed() -> impl Strategy<Value = (Latency, u32, Vec<(Time, TimedSend)>)> {
    (
        arb_lambda(),
        2u32..=8,
        collection::vec(
            (
                0u32..9,
                0u32..9,
                0i64..=96,
                0i64..=48,
                0u32..5,
                any::<u32>(),
            ),
            0..40,
        ),
    )
        .prop_map(|(lam, n, raw)| {
            let scale = TickScale::for_latency(lam).expect("small denominators");
            let mut feed: Vec<(Time, u32, TimedSend)> = raw
                .into_iter()
                .map(|(src, dst, tick, lead, kind, key)| {
                    let mut start = scale.to_time(tick);
                    if kind == 0 {
                        start += Time::new(1, 5);
                    }
                    let at = (start - scale.to_time(lead)).max(Time::ZERO);
                    (at, key, send(src % (n + 1), dst % (n + 1), start))
                })
                .collect();
            feed.sort_by_key(|&(at, key, _)| (at, key));
            let feed = feed.into_iter().map(|(at, _, s)| (at, s)).collect();
            (lam, n, feed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn live_feeds_match_the_sorted_driver(input in arb_feed()) {
        let (lam, n, feed) = input;
        check(n, lam, &feed)?;
    }
}
