//! The per-run facts every lint pass reads: the run's tick lattice, each
//! processor's first receipt, and the completion maximum.
//!
//! A [`StreamIndex`] folds sends in one at a time. Times count `i64`
//! ticks of the run's [`TickScale`] (`D = lcm(2, q)` for λ = p/q), so the
//! hot comparisons run on machine integers for every rational λ; an
//! exact [`Time`] side table holds the values off that lattice or out of
//! its range (only possible in an externally supplied schedule or log),
//! so every answer is exact either way. Agreement of the two paths is
//! property-tested in `crates/model/tests/tick_scale_props.rs`.
//!
//! The two drivers fold sends in at different times:
//!
//! * the watermark driver ([`StreamingLint`](super::StreamingLint))
//!   folds each send as it is observed, so its passes read a *running*
//!   index;
//! * the sorted driver ([`PassManager::run`](super::PassManager::run))
//!   folds a whole [`Schedule`] first ([`ScheduleIndex::build`]) and
//!   sweeps the passes over an index that is already final.
//!
//! No report depends on the difference. A receipt that informs a send
//! finishes by the send's start, so its own send started at least λ
//! earlier and both drivers have folded it in before the passes see the
//! later send: the `P0003` answer is the same. `P0006` reads a port's
//! informed time at its first send, which is final in both drivers
//! unless that send breaks causality — and then the `P0003` error
//! suppresses `P0006`.

use crate::latency::Latency;
use crate::schedule::{Schedule, TimedSend};
use crate::time::{TickScale, Time};
use std::collections::HashMap;
use std::mem::size_of;

/// Sentinel for "no value" in a [`TimeSlots`] tick lane. Larger than
/// any representable tick count.
const EMPTY: i64 = i64::MAX;
/// Sentinel for "value lives in the exact side table".
const EXACT: i64 = i64::MAX - 1;

/// One time as a pass stores or compares it: its tick on the run's
/// lattice when it has one, else the exact value. Two ticks compare as
/// integers; anything else compares exactly.
#[derive(Clone, Copy)]
pub(crate) enum Stamp {
    Tick(i64),
    Exact(Time),
}

impl Stamp {
    /// `t`, given `tick` = its tick on the run's lattice, if any (as
    /// [`StreamIndex::classify`] and the watermark driver supply it).
    pub(crate) fn of(t: Time, tick: Option<i64>) -> Stamp {
        tick.map_or(Stamp::Exact(t), Stamp::Tick)
    }

    pub(crate) fn time(self, scale: TickScale) -> Time {
        match self {
            Stamp::Tick(h) => scale.to_time(h),
            Stamp::Exact(t) => t,
        }
    }
}

/// Per-processor time storage: an `i64` tick lane with an exact side
/// table for off-lattice values. Costs 8 bytes per processor plus one
/// hash entry per processor that ever held an off-lattice time (none
/// for a stream the simulator produced).
pub(crate) struct TimeSlots {
    ticks: Vec<i64>,
    exact: HashMap<u32, Time>,
}

impl TimeSlots {
    pub(crate) fn new(n: usize) -> TimeSlots {
        TimeSlots {
            ticks: vec![EMPTY; n],
            exact: HashMap::new(),
        }
    }

    /// Slot `p`, if set.
    pub(crate) fn stamp(&self, p: u32) -> Option<Stamp> {
        match self.ticks[p as usize] {
            EMPTY => None,
            EXACT => self.exact.get(&p).copied().map(Stamp::Exact),
            h => Some(Stamp::Tick(h)),
        }
    }

    pub(crate) fn get(&self, p: u32, scale: TickScale) -> Option<Time> {
        self.stamp(p).map(|s| s.time(scale))
    }

    /// Overwrites slot `p` with `t`, whose tick is `tick` when it has one.
    pub(crate) fn put(&mut self, p: u32, t: Time, tick: Option<i64>) {
        match tick {
            Some(h) => self.put_tick(p, h),
            None => {
                self.ticks[p as usize] = EXACT;
                self.exact.insert(p, t);
            }
        }
    }

    /// Overwrites slot `p` with tick `h`. A stale side-table entry is
    /// left behind; the tick lane decides which value is live.
    pub(crate) fn put_tick(&mut self, p: u32, h: i64) {
        self.ticks[p as usize] = h;
    }

    /// Lowers slot `p` toward tick `h` without leaving the integer lane
    /// (`EMPTY` is `i64::MAX`, so the bare `min` covers the unset case).
    fn set_min_tick(&mut self, p: u32, h: i64, scale: TickScale) {
        let slot = &mut self.ticks[p as usize];
        if *slot == EXACT {
            let t = scale.to_time(h);
            let e = self.exact.get_mut(&p).expect("EXACT slot has an entry");
            if t < *e {
                *e = t;
            }
        } else if h < *slot {
            *slot = h;
        }
    }

    /// Lowers slot `p` toward `t`.
    fn set_min(&mut self, p: u32, t: Time, scale: TickScale) {
        match scale.to_tick(t) {
            Some(h) => self.set_min_tick(p, h, scale),
            None => match self.get(p, scale) {
                Some(c) if c <= t => {}
                _ => self.put(p, t, None),
            },
        }
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.ticks.capacity() * size_of::<i64>()
            + self.exact.capacity() * (size_of::<(u32, Time)>() + size_of::<u64>())
    }
}

/// The facts every pass shares: processor count, λ and its lattice,
/// per-processor first-receipt times (the minimum is order-independent)
/// and the completion maximum over *all* folded sends, malformed
/// included (mirroring [`Schedule::completion`]).
pub struct StreamIndex {
    n: u32,
    latency: Latency,
    scale: TickScale,
    lam_tick: Option<i64>,
    first_receipt: TimeSlots,
    completion_tick: i64,
    completion_exact: Option<Time>,
    sends: u64,
    malformed: u64,
}

/// The sorted driver's precomputed facts: a [`StreamIndex`] with a
/// whole schedule folded in by [`StreamIndex::build`], so every first
/// receipt and the completion are final before the sweep. The name
/// stays because the repository benchmark (`perfbench/`) builds one to
/// time the index and sweep apart.
pub type ScheduleIndex = StreamIndex;

impl StreamIndex {
    pub(crate) fn new(n: u32, latency: Latency) -> StreamIndex {
        // A λ whose lattice overflows an i64 keeps half-unit ticks: its
        // own times then take the exact lanes.
        let scale = TickScale::for_latency(latency).unwrap_or(TickScale::HALF);
        StreamIndex {
            n,
            latency,
            scale,
            lam_tick: scale.to_tick(latency.as_time()),
            first_receipt: TimeSlots::new(n as usize),
            completion_tick: i64::MIN,
            completion_exact: None,
            sends: 0,
            malformed: 0,
        }
    }

    /// Folds every send of `schedule` into a fresh index. O(E + n).
    pub fn build(schedule: &Schedule) -> ScheduleIndex {
        let mut index = StreamIndex::new(schedule.n(), schedule.latency());
        for s in schedule.sends() {
            index.record(s);
        }
        index
    }

    /// `s`'s start in ticks, when it has one, and whether `s` is well
    /// formed: distinct endpoints below n and a non-negative start. A
    /// malformed send is `P0004` material.
    pub(crate) fn classify(&self, s: &TimedSend) -> (Option<i64>, bool) {
        let tick = self.scale.to_tick(s.send_start);
        let non_negative = match tick {
            Some(h) => h >= 0,
            None => s.send_start >= Time::ZERO,
        };
        let n = self.n;
        (
            tick,
            s.src < n && s.dst < n && s.src != s.dst && non_negative,
        )
    }

    /// Classifies `s` ([`StreamIndex::classify`]) and folds it into the
    /// aggregates.
    pub(crate) fn record(&mut self, s: &TimedSend) -> (Option<i64>, bool) {
        let (start_tick, well_formed) = self.classify(s);
        let finish = match (self.lam_tick, start_tick) {
            // Both ≤ TICK_LIMIT = i64::MAX/4 in magnitude: no overflow.
            (Some(l), Some(h)) => Some(h + l),
            _ => None,
        };
        match finish {
            Some(h) => self.completion_tick = self.completion_tick.max(h),
            None => {
                let rf = s.recv_finish(self.latency);
                self.completion_exact = Some(match self.completion_exact {
                    Some(c) => c.max(rf),
                    None => rf,
                });
            }
        }
        if well_formed {
            self.sends += 1;
            match finish {
                Some(h) => self.first_receipt.set_min_tick(s.dst, h, self.scale),
                None => self
                    .first_receipt
                    .set_min(s.dst, s.recv_finish(self.latency), self.scale),
            }
        } else {
            self.malformed += 1;
        }
        (start_tick, well_formed)
    }

    /// Processor count of the run under lint.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// λ of the run under lint.
    pub fn latency(&self) -> Latency {
        self.latency
    }

    /// The tick lattice the run's times are counted on.
    pub fn scale(&self) -> TickScale {
        self.scale
    }

    /// When processor `p` first finishes receiving anything folded in
    /// so far, if ever. Final once every send is folded in.
    pub fn first_receipt(&self, p: u32) -> Option<Time> {
        self.first_receipt.get(p, self.scale)
    }

    /// Processor `p`'s first receipt so far as a [`Stamp`].
    pub(crate) fn first_receipt_stamp(&self, p: u32) -> Option<Stamp> {
        self.first_receipt.stamp(p)
    }

    /// `t` as a [`Stamp`] on this run's lattice.
    fn stamp(&self, t: Time) -> Stamp {
        Stamp::of(t, self.scale.to_tick(t))
    }

    /// Whether `b` starts less than one unit after `a` (`b < a + 1`):
    /// the `P0001` condition on one sender's consecutive sends and the
    /// `P0002` condition on one receiver's (receive windows are starts
    /// shifted by the constant λ). On ticks whenever both times have
    /// one.
    pub fn lt_one_apart(&self, a: Time, b: Time) -> bool {
        self.stamps_lt_one_apart(self.stamp(a), self.stamp(b))
    }

    /// [`StreamIndex::lt_one_apart`] on stamps.
    pub(crate) fn stamps_lt_one_apart(&self, a: Stamp, b: Stamp) -> bool {
        match (a, b) {
            (Stamp::Tick(x), Stamp::Tick(y)) => y < x + self.scale.den(),
            _ => b.time(self.scale) < a.time(self.scale) + Time::ONE,
        }
    }

    /// Whether processor `p` holds the message by time `t` — its first
    /// receipt finishes at or before `t` — the `P0003` causality
    /// condition. On ticks whenever both values have one.
    pub fn informed_by(&self, p: u32, t: Time) -> bool {
        self.informed_by_stamp(p, self.stamp(t))
    }

    /// [`StreamIndex::informed_by`] on a stamp.
    pub(crate) fn informed_by_stamp(&self, p: u32, t: Stamp) -> bool {
        match (self.first_receipt.stamp(p), t) {
            (None, _) => false,
            (Some(Stamp::Tick(r)), Stamp::Tick(h)) => r <= h,
            (Some(r), t) => r.time(self.scale) <= t.time(self.scale),
        }
    }

    /// The latest receive finish over every folded send (malformed
    /// included), or zero when there is none — the image of
    /// [`Schedule::completion`].
    pub fn completion(&self) -> Time {
        let fast =
            (self.completion_tick != i64::MIN).then(|| self.scale.to_time(self.completion_tick));
        match (fast, self.completion_exact) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => Time::ZERO,
        }
    }

    /// Well-formed sends folded in so far.
    pub fn sends_observed(&self) -> u64 {
        self.sends
    }

    /// Malformed sends folded in so far.
    pub fn malformed_observed(&self) -> u64 {
        self.malformed
    }

    /// Currently reserved heap bytes, by container capacity.
    pub fn memory_bytes(&self) -> usize {
        self.first_receipt.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(src: u32, dst: u32, num: i128, den: i128) -> TimedSend {
        TimedSend {
            src,
            dst,
            send_start: Time::new(num, den),
        }
    }

    #[test]
    fn build_partitions_malformed_sends_and_finds_first_receipts() {
        let s = Schedule::new(
            3,
            Latency::from_ratio(5, 2),
            vec![
                send(0, 1, 0, 1),
                send(0, 2, 1, 1),
                send(1, 2, 7, 2),
                send(1, 1, 0, 1),  // self-send: malformed
                send(0, 9, 0, 1),  // out of range: malformed
                send(0, 1, -1, 1), // negative: malformed
            ],
        );
        let idx = ScheduleIndex::build(&s);
        assert_eq!(idx.sends_observed(), 3);
        assert_eq!(idx.malformed_observed(), 3);
        // Malformed sends inform no one: p1's first receipt is 0 + 5/2,
        // not the negative send's 3/2.
        assert_eq!(idx.first_receipt(1), Some(Time::new(5, 2)));
        assert_eq!(idx.first_receipt(2), Some(Time::new(7, 2)));
        assert_eq!(idx.first_receipt(0), None);
        // ...but count toward completion, like Schedule::completion.
        assert_eq!(idx.completion(), s.completion());
    }

    #[test]
    fn every_rational_lambda_has_a_tick_lattice() {
        // λ's own lattice holds its schedule's starts; a start off it
        // keeps an exact first receipt instead.
        for (lam, start, on_lattice) in [
            (Latency::from_ratio(5, 2), Time::new(3, 2), true),
            (Latency::from_ratio(4, 3), Time::new(1, 3), true),
            (Latency::from_ratio(4, 3), Time::new(1, 5), false),
            (Latency::from_int(2), Time::new(1, 3), false),
        ] {
            let s = Schedule::new(
                2,
                lam,
                vec![TimedSend {
                    src: 0,
                    dst: 1,
                    send_start: start,
                }],
            );
            let idx = ScheduleIndex::build(&s);
            assert_eq!(idx.scale().to_tick(start).is_some(), on_lattice, "{lam}");
            assert_eq!(idx.first_receipt(1), Some(start + lam.as_time()));
        }
    }

    #[test]
    fn predicates_agree_between_lanes() {
        let s = Schedule::new(
            4,
            Latency::from_ratio(5, 2),
            vec![
                send(0, 1, 0, 1),
                send(0, 2, 1, 2),
                send(0, 3, 2, 1),
                send(1, 3, 7, 2),
            ],
        );
        let idx = ScheduleIndex::build(&s);
        // Lattice starts compare on ticks, a 1/3 start exactly; both
        // must match direct Time arithmetic.
        let mut starts: Vec<Time> = s.sends().iter().map(|t| t.send_start).collect();
        starts.push(Time::new(1, 3));
        for &a in &starts {
            for &b in &starts {
                assert_eq!(idx.lt_one_apart(a, b), b < a + Time::ONE, "({a}, {b})");
            }
        }
        // p1 is informed at 5/2: not at 7/3 (exact) or 2 (ticks), yes at
        // 7/2. p0 is the originator and never receives.
        assert!(idx.informed_by(1, Time::new(7, 2)));
        assert!(idx.informed_by(1, Time::new(5, 2)));
        assert!(!idx.informed_by(1, Time::new(7, 3)));
        assert!(!idx.informed_by(1, Time::from_int(2)));
        assert!(!idx.informed_by(0, Time::from_int(9)));
    }

    #[test]
    fn time_slots_mix_lattice_and_exact_values() {
        let half = TickScale::HALF;
        let mut slots = TimeSlots::new(2);
        assert_eq!(slots.get(0, half), None);
        slots.set_min(0, Time::new(5, 2), half);
        assert_eq!(slots.get(0, half), Some(Time::new(5, 2)));
        assert!(matches!(slots.stamp(0), Some(Stamp::Tick(5))));
        // An off-lattice minimum migrates the slot to the side table...
        slots.set_min(0, Time::new(1, 3), half);
        assert_eq!(slots.get(0, half), Some(Time::new(1, 3)));
        assert!(matches!(slots.stamp(0), Some(Stamp::Exact(_))));
        // ...and later lattice values keep comparing exactly.
        slots.set_min(0, Time::new(1, 4), half);
        assert_eq!(slots.get(0, half), Some(Time::new(1, 4)));
        slots.set_min(0, Time::from_int(7), half);
        assert_eq!(slots.get(0, half), Some(Time::new(1, 4)));
        slots.put(1, Time::new(1, 3), None);
        slots.put(1, Time::from_int(2), Some(4));
        assert_eq!(slots.get(1, half), Some(Time::from_int(2)));
        // On sixths, thirds are lattice values.
        let sixths = TickScale::new(6).unwrap();
        let mut slots = TimeSlots::new(1);
        slots.set_min(0, Time::new(7, 3), sixths);
        assert!(matches!(slots.stamp(0), Some(Stamp::Tick(14))));
    }
}
