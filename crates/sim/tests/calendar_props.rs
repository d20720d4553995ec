//! Property tests pinning [`CalendarQueue`] to a binary-heap oracle.
//!
//! The oracle is the seed engine's priority structure: a
//! `BinaryHeap` ordered by exact `(Time, lane, push counter)`. The
//! calendar queue must pop the *same payloads in the same order* for
//! any monotone push/pop interleaving — including same-timestamp
//! bursts (tie-breaking by lane, then push order), pushes beyond the
//! ring window (overflow heap), any starting lattice `1/D`, and times
//! off that lattice (which refine it mid-stream, rescaling everything
//! queued).

use postal_model::{TickScale, Time};
use postal_sim::{CalendarQueue, Lane};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn lane_of(code: u8) -> Lane {
    match code % 3 {
        0 => Lane::Arrival,
        1 => Lane::Deliver,
        _ => Lane::Wake,
    }
}

/// One generated operation: `kind == 0` pops, anything else pushes at
/// `frontier + delta`, where the delta mixes half-units, thirds and
/// sevenths (off most starting lattices, forcing refinement).
type Op = (u8, u16, u8, u8);

/// Replays `ops` against both structures and asserts every pop agrees.
///
/// Pushes are offsets from the pop frontier, so the calendar queue's
/// monotonicity contract holds by construction — exactly how the
/// engine uses it.
fn replay(den: i64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue: CalendarQueue<u64> = CalendarQueue::with_scale(TickScale::new(den).unwrap());
    let mut oracle: BinaryHeap<Reverse<(Time, Lane, u64)>> = BinaryHeap::new();
    let mut payload_of_counter: Vec<u64> = Vec::new();
    let mut frontier = Time::ZERO;
    let mut counter = 0u64;
    let mut next_payload = 0u64;

    for &(kind, delta, lane_code, third) in ops {
        if kind == 0 {
            let got = queue.pop();
            let want = oracle.pop();
            match (got, want) {
                (None, None) => {}
                (Some((ft, lane, item)), Some(Reverse((t, olane, ocounter)))) => {
                    prop_assert_eq!(ft, t, "pop time diverged from oracle");
                    prop_assert_eq!(lane, olane, "pop lane diverged from oracle");
                    prop_assert_eq!(
                        item,
                        payload_of_counter[ocounter as usize],
                        "pop payload diverged from oracle"
                    );
                    frontier = t;
                }
                (g, w) => {
                    return Err(TestCaseError::fail(format!(
                        "emptiness diverged: queue {g:?}, oracle {w:?}"
                    )))
                }
            }
        } else {
            // Bias the deltas: kind 1 clusters events on the same few
            // instants (ties), kind 2 reaches past the ring window
            // (overflow), kind 3 stays mid-window.
            let half = match kind {
                1 => (delta % 4) as i128,
                2 => delta as i128,
                _ => (delta % 64) as i128,
            };
            let off = match third % 4 {
                3 => Time::new(1, 7),
                k => Time::new(k as i128, 3),
            };
            let t = frontier + Time::new(half, 2) + off;
            let lane = lane_of(lane_code);
            queue.push(t, lane, next_payload);
            prop_assert_eq!(
                queue.scale().den() % den,
                0,
                "refinement must keep the old lattice"
            );
            oracle.push(Reverse((t, lane, counter)));
            payload_of_counter.push(next_payload);
            counter += 1;
            next_payload += 1;
        }
        prop_assert_eq!(queue.len(), oracle.len(), "lengths diverged");
    }

    // Drain the remainder: the full pop order must match.
    while let Some(Reverse((t, olane, ocounter))) = oracle.pop() {
        let (ft, lane, item) = match queue.pop() {
            Some(x) => x,
            None => return Err(TestCaseError::fail("queue drained before oracle")),
        };
        prop_assert_eq!(ft, t, "drain time diverged");
        prop_assert_eq!(lane, olane, "drain lane diverged");
        prop_assert_eq!(
            item,
            payload_of_counter[ocounter as usize],
            "drain payload diverged"
        );
    }
    prop_assert!(queue.pop().is_none(), "queue longer than oracle");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary monotone interleavings on a random starting lattice,
    /// mixing ties, window overflow, and off-lattice thirds and
    /// sevenths.
    #[test]
    fn matches_heap_oracle(
        den in 1i64..=12,
        ops in proptest::collection::vec((0u8..4, 0u16..600, 0u8..3, 0u8..4), 1..120),
    ) {
        replay(den, &ops)?;
    }

    /// Everything at one instant: order must reduce to (lane, push
    /// order) exactly as the heap's `(time, kind_rank, counter)` key
    /// does.
    #[test]
    fn same_timestamp_bursts_break_ties_like_the_heap(
        den in 1i64..=12,
        lanes in proptest::collection::vec(0u8..3, 1..40),
    ) {
        let ops: Vec<Op> = lanes
            .iter()
            .map(|&l| (1u8, 0u16, l, 0u8))
            .chain(lanes.iter().map(|_| (0u8, 0, 0, 0)))
            .collect();
        replay(den, &ops)?;
    }

    /// Thirds and sevenths on half-unit ticks: pushes refine the
    /// lattice with events still queued, and order still matches the
    /// oracle.
    #[test]
    fn off_lattice_streams_refine_the_lattice(
        ops in proptest::collection::vec((0u8..2, 0u16..30, 0u8..3), 1..80),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, delta, lane)| (kind, delta, lane, 1 + (delta % 3) as u8))
            .collect();
        replay(2, &ops)?;
    }

    /// Far-future pushes land in the overflow heap and must flush back
    /// into the ring in push order as the window slides over them.
    #[test]
    fn window_overflow_preserves_order(
        den in 1i64..=12,
        deltas in proptest::collection::vec(0u16..2000, 1..60),
    ) {
        let ops: Vec<Op> = deltas
            .iter()
            .map(|&d| (2u8, d.min(599), (d % 3) as u8, 0u8))
            .chain(deltas.iter().map(|_| (0u8, 0, 0, 0)))
            .collect();
        replay(den, &ops)?;
    }
}
