//! The watermark driver: the lint pass set run online over a send
//! stream, with bounded memory and no materialized schedule.
//!
//! The sorted driver ([`PassManager::run`](super::PassManager::run))
//! needs the whole [`Schedule`] in memory. At n = 10⁶ that schedule *is*
//! the scale bottleneck — the simulator itself runs in flat arrays.
//! [`StreamingLint`] removes it: callers push sends one at a time
//! ([`StreamingLint::observe_send`]), advance a **watermark**
//! ([`StreamingLint::advance_watermark`]) as simulated time progresses,
//! and collect the final report from [`StreamingLint::finish`]. Memory
//! is O(n + pending + findings), independent of the total send count.
//! The passes are the same ones the sorted driver runs — one
//! implementation per code, listed by
//! [`PassManager::standard`](super::PassManager::standard) — and so is
//! the staged finish.
//!
//! ## How order is recovered
//!
//! The report is tied to *canonical schedule order* — sends sorted by
//! `(send_start, src, dst)`, the order a [`Schedule`] already holds. A
//! live event stream is ordered by simulation time instead, and a send
//! is observed when it is *issued*, which can precede its start time
//! (output-port serialization). The driver therefore parks observed
//! sends as pending and **finalizes** — feeds to the passes, in
//! `(send_start, src, dst)` order — every send starting strictly below
//! the watermark. As long as the caller only advances
//! the watermark to times `t` such that every send starting before `t`
//! has already been observed (true for the engine's clock and for
//! timestamp-sorted logs), finalization order is exactly canonical
//! order, and each pass sees precisely the sweep the sorted driver
//! would hand it. A send observed *late* — starting below the current
//! watermark — sets [`StreamingLint::out_of_order`]; callers should
//! treat the report as unreliable and fall back to the sorted driver.
//!
//! Each send is folded into the run's [`StreamIndex`] when it is
//! observed, so passes read a running index; the [`index`](super::index)
//! module explains why no report depends on that.
//!
//! ## The pending queue
//!
//! A postal-model processor books its sends ahead through one output
//! port, one unit apart, so a live backlog is large but sits on few
//! distinct start times. Pending sends are therefore **bucketed by start
//! tick** on the stream's lattice (`D = lcm(2, q)` for λ = p/q): 8 bytes
//! of `(src, dst)` per send, appended in observation order. When the
//! watermark passes a tick, its bucket is sorted by `(src, dst)` once —
//! exactly canonical order for that instant — dispatched whole and
//! dropped, so pending memory follows the live backlog. An exact
//! [`Time`] heap remains only for externally supplied send times off
//! that lattice; it merges with the buckets by exact comparison.
//!
//! Each dispatched [`StreamEvent::Send`] carries the start tick the
//! driver already holds (the bucket key), so the passes compare and
//! store integers and never convert a tick back and forth. The
//! [`StreamingLint::pending_high_water`] mark reports the largest
//! backlog.
//!
//! `tests/lint_stream_differential.rs` pins the streamed diagnostics
//! byte-identical (rendered and JSON) to the sorted driver's over the
//! full acceptance grid.

use super::passes::{PassManager, StartedPasses, StreamContext, StreamEvent};
use super::{Diagnostic, LintOptions};
use crate::latency::Latency;
use crate::lint::index::StreamIndex;
use crate::schedule::{Schedule, TimedSend};
use crate::time::Time;
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::mem::size_of;

/// The watermark driver: feeds observed sends through the started
/// passes in canonical order, with bounded memory.
///
/// See the [module docs](self) for the watermark/finalization protocol.
pub struct StreamingLint {
    opts: LintOptions,
    index: StreamIndex,
    passes: StartedPasses,
    /// Pending sends on the stream's lattice: `(src, dst)` pairs
    /// bucketed by start tick, each bucket in observation order.
    pending_fast: BTreeMap<i64, Vec<(u32, u32)>>,
    /// Sends across every `pending_fast` bucket.
    pending_fast_len: usize,
    /// Pending off-lattice sends, keyed `(start, src, dst)`.
    pending_exact: BinaryHeap<Reverse<(Time, u32, u32)>>,
    /// The most sends ever pending at once.
    pending_high_water: usize,
    watermark: Time,
    /// The watermark in ticks, when it lies on the lattice.
    watermark_tick: Option<i64>,
    out_of_order: bool,
}

impl StreamingLint {
    /// Creates a driver over `MPS(n, λ)` with the passes of
    /// [`PassManager::standard`](super::PassManager::standard).
    pub fn new(n: u32, latency: Latency, opts: LintOptions) -> StreamingLint {
        StreamingLint::with_passes(&PassManager::standard(), n, latency, opts)
    }

    /// A driver with the passes of
    /// [`PassManager::standard_with_topology`](super::PassManager::standard_with_topology).
    /// On the complete graph the extra passes are vacuous and the
    /// output is byte-identical to [`StreamingLint::new`]'s.
    pub fn with_topology(
        n: u32,
        latency: Latency,
        opts: LintOptions,
        topology: &Topology,
    ) -> StreamingLint {
        let passes = PassManager::standard_with_topology(topology);
        StreamingLint::with_passes(&passes, n, latency, opts)
    }

    fn with_passes(
        passes: &PassManager,
        n: u32,
        latency: Latency,
        opts: LintOptions,
    ) -> StreamingLint {
        StreamingLint {
            opts,
            index: StreamIndex::new(n, latency),
            passes: passes.start(n, &opts),
            pending_fast: BTreeMap::new(),
            pending_fast_len: 0,
            pending_exact: BinaryHeap::new(),
            pending_high_water: 0,
            watermark: Time::ZERO,
            watermark_tick: Some(0),
            out_of_order: false,
        }
    }

    /// Observes one send. Malformed sends are classified and dispatched
    /// immediately; well-formed sends are parked until the watermark
    /// passes their start time.
    pub fn observe_send(&mut self, src: u32, dst: u32, send_start: Time) {
        let s = TimedSend {
            src,
            dst,
            send_start,
        };
        let (start_tick, well_formed) = self.index.record(&s);
        if !well_formed {
            self.dispatch(&StreamEvent::Malformed(&s));
            return;
        }
        let late = match (start_tick, self.watermark_tick) {
            (Some(h), Some(w)) => h < w,
            _ => send_start < self.watermark,
        };
        if late {
            // The watermark already passed this start: finalization
            // order can no longer be canonical.
            self.out_of_order = true;
        }
        match start_tick {
            Some(h) => {
                self.pending_fast.entry(h).or_default().push((src, dst));
                self.pending_fast_len += 1;
            }
            None => self.pending_exact.push(Reverse((send_start, src, dst))),
        }
        self.pending_high_water = self.pending_high_water.max(self.pending_len());
    }

    /// Raises the watermark to `t` (never lowers it) and finalizes
    /// every pending send starting strictly before it. The caller
    /// guarantees that all sends starting before `t` have been
    /// observed; the engine's simulation clock and the timestamps of a
    /// sorted event log both satisfy this.
    pub fn advance_watermark(&mut self, t: Time) {
        let tick = self.index.scale().to_tick(t);
        let later = match (tick, self.watermark_tick) {
            (Some(h), Some(w)) => h > w,
            _ => t > self.watermark,
        };
        if later {
            self.watermark_tick = tick;
            self.watermark = t;
        }
        // Everything pending already starts at or after an unmoved
        // watermark, unless a late send slipped below it.
        if later || self.out_of_order {
            self.finalize(false);
        }
    }

    /// Dispatches pending sends in canonical order: those starting
    /// below the watermark, or every one when `all`. The fast lane
    /// goes a whole start-tick bucket at a time. The two lanes merge by
    /// exact comparison; a fast-lane and an exact-lane send can never
    /// share a start time (a time either has a tick on the stream's
    /// lattice or it does not), so the merge is unambiguous.
    fn finalize(&mut self, all: bool) {
        let scale = self.index.scale();
        loop {
            let exact = self.pending_exact.peek().map(|&Reverse((t, _, _))| t);
            let fast = self
                .pending_fast
                .first_key_value()
                .map(|(&h, _)| h)
                .filter(|&h| exact.is_none_or(|e| scale.to_time(h) < e));
            match (fast, exact) {
                (Some(h), _) => {
                    let below = match self.watermark_tick {
                        Some(w) => h < w,
                        None => scale.to_time(h) < self.watermark,
                    };
                    if !(all || below) {
                        return;
                    }
                    let (_, bucket) = self.pending_fast.pop_first().expect("peeked");
                    self.dispatch_bucket(h, bucket);
                }
                (None, Some(e)) => {
                    if !(all || e < self.watermark) {
                        return;
                    }
                    let Reverse((send_start, src, dst)) = self.pending_exact.pop().expect("peeked");
                    let send = TimedSend {
                        src,
                        dst,
                        send_start,
                    };
                    self.dispatch(&StreamEvent::Send {
                        send: &send,
                        tick: None,
                    });
                }
                (None, None) => return,
            }
        }
    }

    /// Dispatches every send starting at tick `h`. Sorting the bucket
    /// by `(src, dst)` puts it in canonical order; the bucket is then
    /// dropped, so pending memory follows the live backlog.
    fn dispatch_bucket(&mut self, h: i64, mut bucket: Vec<(u32, u32)>) {
        self.pending_fast_len -= bucket.len();
        bucket.sort_unstable();
        let send_start = self.index.scale().to_time(h);
        for (src, dst) in bucket {
            let send = TimedSend {
                src,
                dst,
                send_start,
            };
            self.dispatch(&StreamEvent::Send {
                send: &send,
                tick: Some(h),
            });
        }
    }

    fn dispatch(&mut self, ev: &StreamEvent<'_>) {
        let cx = StreamContext {
            index: &self.index,
            opts: &self.opts,
        };
        self.passes.on_event(&cx, ev);
    }

    /// True when a send was observed after the watermark had already
    /// passed its start: the streamed report is unreliable and the
    /// caller should fall back to the sorted driver.
    pub fn out_of_order(&self) -> bool {
        self.out_of_order
    }

    /// The running aggregates (processor count, λ, first receipts,
    /// completion).
    pub fn index(&self) -> &StreamIndex {
        &self.index
    }

    /// Sends observed but not yet finalized.
    pub fn pending_len(&self) -> usize {
        self.pending_fast_len + self.pending_exact.len()
    }

    /// The most sends ever pending at once: how far ahead of the
    /// watermark the feed booked its sends.
    pub fn pending_high_water(&self) -> usize {
        self.pending_high_water
    }

    /// Currently reserved linter heap bytes, by container capacity:
    /// pending sends, the shared index, and every pass's state. This is
    /// the number the `exp_stream_lint` budget gates. Tree nodes are
    /// counted as one key and one `Vec` header per bucket.
    pub fn memory_bytes(&self) -> usize {
        let buckets = self.pending_fast.len() * size_of::<(i64, Vec<(u32, u32)>)>()
            + self
                .pending_fast
                .values()
                .map(|b| b.capacity() * size_of::<(u32, u32)>())
                .sum::<usize>();
        buckets
            + self.pending_exact.capacity() * size_of::<Reverse<(Time, u32, u32)>>()
            + self.index.memory_bytes()
            + self.passes.memory_bytes()
    }

    /// Finalizes every pending send and runs the staged finish the
    /// sorted driver runs (see [`passes`](super::passes)).
    pub fn finish(mut self) -> Vec<Diagnostic> {
        // Drain: everything still pending is final now.
        self.finalize(true);
        let cx = StreamContext {
            index: &self.index,
            opts: &self.opts,
        };
        self.passes.finish(&cx)
    }
}

/// Drives [`StreamingLint`] over a materialized schedule: the
/// differential harness for pinning streamed output byte-identical to
/// [`lint_schedule`](super::lint_schedule).
pub fn lint_schedule_streaming(schedule: &Schedule, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut lint = StreamingLint::new(schedule.n(), schedule.latency(), *opts);
    for s in schedule.sends() {
        lint.advance_watermark(s.send_start);
        lint.observe_send(s.src, s.dst, s.send_start);
    }
    lint.finish()
}

/// [`lint_schedule_streaming`] with the topology-grounded passes of
/// [`StreamingLint::with_topology`]: the streaming counterpart of
/// [`lint_schedule_with_topology`](super::lint_schedule_with_topology),
/// pinned byte-identical to it by `tests/topology_differential.rs`.
pub fn lint_schedule_streaming_with_topology(
    schedule: &Schedule,
    opts: &LintOptions,
    topology: &Topology,
) -> Vec<Diagnostic> {
    let mut lint = StreamingLint::with_topology(schedule.n(), schedule.latency(), *opts, topology);
    for s in schedule.sends() {
        lint.advance_watermark(s.send_start);
        lint.observe_send(s.src, s.dst, s.send_start);
    }
    lint.finish()
}

#[cfg(test)]
mod tests {
    use super::super::{lint_schedule, LintCode, PassManager};
    use super::*;

    fn send(src: u32, dst: u32, num: i128, den: i128) -> TimedSend {
        TimedSend {
            src,
            dst,
            send_start: Time::new(num, den),
        }
    }

    fn lam52() -> Latency {
        Latency::from_ratio(5, 2)
    }

    /// A messy schedule exercising every pass at once.
    fn messy() -> Schedule {
        Schedule::new(
            5,
            lam52(),
            vec![
                send(0, 1, 0, 1),
                send(0, 2, 1, 2), // P0001 + P0002 pressure
                send(1, 3, 1, 1), // P0003: p1 not yet informed
                send(2, 2, 0, 1), // P0004 self-send
                send(0, 7, 2, 1), // P0004 out of range
                                  // p4 never informed: P0005
            ],
        )
    }

    #[test]
    fn streaming_matches_batch_on_a_messy_schedule() {
        for opts in [
            LintOptions::default(),
            LintOptions::ports_only(),
            LintOptions::broadcast_of(3),
        ] {
            assert_eq!(
                lint_schedule_streaming(&messy(), &opts),
                PassManager::standard().run(&messy(), &opts),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_batch_on_clean_and_lazy_broadcasts() {
        // Optimal two-hop (clean), then a lazy line (P0006 + P0007).
        for sends in [
            vec![send(0, 1, 0, 1), send(0, 2, 1, 1)],
            vec![send(0, 1, 0, 1), send(1, 2, 5, 2)],
        ] {
            let s = Schedule::new(3, lam52(), sends);
            let opts = LintOptions::default();
            assert_eq!(lint_schedule_streaming(&s, &opts), lint_schedule(&s, &opts));
        }
    }

    #[test]
    fn streaming_matches_batch_off_the_half_unit_lattice() {
        // λ = 4/3 runs on sixths; the 1/3 start is a lattice tick there,
        // and a 1/5 start takes the exact pending lane and exact slots.
        // Both must agree with batch.
        let s = Schedule::new(
            3,
            Latency::from_ratio(4, 3),
            vec![
                send(0, 1, 0, 1),
                send(0, 2, 1, 3),
                send(1, 2, 2, 1),
                send(2, 0, 11, 5),
            ],
        );
        for opts in [LintOptions::default(), LintOptions::ports_only()] {
            assert_eq!(lint_schedule_streaming(&s, &opts), lint_schedule(&s, &opts));
        }
    }

    #[test]
    fn observation_order_within_a_watermark_step_is_immaterial() {
        // Three same-instant sends observed in reverse processor order:
        // sorting their bucket restores canonical order before any pass
        // sees them.
        let sends = [send(2, 3, 0, 1), send(1, 2, 0, 1), send(0, 1, 0, 1)];
        let mut lint = StreamingLint::new(4, Latency::from_int(2), LintOptions::ports_only());
        for s in &sends {
            lint.observe_send(s.src, s.dst, s.send_start);
        }
        assert_eq!(lint.pending_len(), 3);
        let streamed = lint.finish();
        let batch = lint_schedule(
            &Schedule::new(4, Latency::from_int(2), sends.to_vec()),
            &LintOptions::ports_only(),
        );
        assert_eq!(streamed, batch);
    }

    #[test]
    fn late_send_sets_the_out_of_order_flag() {
        let mut lint = StreamingLint::new(4, Latency::from_int(2), LintOptions::default());
        lint.observe_send(0, 1, Time::ZERO);
        lint.advance_watermark(Time::from_int(3));
        assert!(!lint.out_of_order());
        lint.observe_send(0, 2, Time::ONE); // starts below the watermark
        assert!(lint.out_of_order());
    }

    #[test]
    fn a_send_starting_at_the_watermark_is_not_late() {
        let mut lint = StreamingLint::new(3, Latency::from_int(2), LintOptions::default());
        lint.advance_watermark(Time::ZERO);
        lint.observe_send(0, 1, Time::ZERO);
        lint.advance_watermark(Time::ONE);
        lint.observe_send(0, 2, Time::ONE);
        assert!(!lint.out_of_order());
    }

    #[test]
    fn zero_event_stream_reports_coverage_errors_only() {
        let diags = StreamingLint::new(4, lam52(), LintOptions::default()).finish();
        assert_eq!(diags.len(), 3);
        assert!(diags
            .iter()
            .all(|d| d.code == LintCode::UninformedProcessor));
        let batch = lint_schedule(
            &Schedule::new(4, lam52(), Vec::new()),
            &LintOptions::default(),
        );
        assert_eq!(diags, batch);
        // n = 1 with nothing to inform is clean.
        assert!(StreamingLint::new(1, lam52(), LintOptions::default())
            .finish()
            .is_empty());
    }

    #[test]
    fn index_tracks_completion_and_counts() {
        let mut lint = StreamingLint::new(3, lam52(), LintOptions::default());
        lint.observe_send(0, 1, Time::ZERO);
        lint.observe_send(1, 1, Time::ONE); // malformed self-send
        assert_eq!(lint.index().sends_observed(), 1);
        assert_eq!(lint.index().malformed_observed(), 1);
        // Completion counts malformed sends too, like
        // Schedule::completion: 1 + 5/2 = 7/2.
        assert_eq!(lint.index().completion(), Time::new(7, 2));
        assert!(lint.memory_bytes() > 0);
    }
}
