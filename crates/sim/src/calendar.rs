//! A calendar (bucket) event queue keyed on `i64` lattice ticks.
//!
//! The discrete-event engine's hot path is queue traffic: every message
//! costs one arrival push, one deliver push and two pops. The seed
//! engine paid `O(log n)` exact-rational comparisons per operation on a
//! [`BinaryHeap`]; this queue exploits the postal model's time structure
//! instead. With λ = p/q every event time of a run is a multiple of
//! `1/D` for the run's [`TickScale`] (`D = lcm(2, q, …)`), so each time
//! is a plain `i64` tick count and the queue becomes a classic calendar:
//! a ring of one-tick buckets over a sliding window `[cur, cur + W)`,
//! with `O(1)` amortized push and pop and no per-event comparisons.
//!
//! Events beyond the window (`≥ cur + W`) wait in an **overflow** heap
//! ordered by `(tick, lane, push counter)` and are flushed into the ring
//! when the window slides over them.
//!
//! The queue owns its run's scale. A time off the lattice — a wake-up at
//! 1/7 under `D = 6`, say — does not leave the integer domain: the
//! caller refines `D` to the lcm and [`CalendarQueue::rescale_to`]
//! multiplies every queued tick by the refinement factor, so there is no
//! exact-`Ratio` side path at all.
//!
//! # Lane storage and its free list
//!
//! Every bucket has one FIFO per lane, and all of them share one pool of
//! fixed-size chunks (`CHUNK` items each). A lane is a linked run of
//! chunks: pushes fill its tail chunk, pops empty its head chunk, and a
//! chunk the pops have drained goes onto the pool's **free list** at
//! once. A lane that needs a chunk draws from the free list and only
//! grows the pool when the list is empty. So the queue's storage tracks
//! the events live at one time, not the sum over every bucket a run
//! touches, and a run allocates only when its live-event count reaches a
//! new high: the pool is one buffer that grows by doubling. (Per-bucket
//! deques would each grow from empty: a BCAST run keeps dozens of
//! future buckets growing at once, each doubling about ten times.)
//!
//! # Ordering contract
//!
//! Pops come out ordered by `(time, lane, push counter)` — exactly the
//! `(time, kind_rank, counter)` order of the seed engine's heap — under
//! one precondition the engine naturally satisfies: **pushes are
//! monotone**, i.e. never earlier than the last popped time (asserted).
//! Within one bucket each lane is a FIFO, which equals counter order
//! because a bucket only receives direct pushes while its tick is inside
//! the window, and the overflow heap is drained into it in counter order
//! at the moment the window first covers that tick.

use postal_model::{TickScale, Time};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Number of one-tick buckets in the ring (a power of two). At half-unit
/// ticks that is 256 time units of lookahead, far beyond any λ the
/// paper's grid uses, so overflow traffic is rare.
const WINDOW: usize = 512;

/// Items per storage chunk. Each nonempty lane holds at most two
/// partly used chunks, so this bounds the storage a sparse run wastes;
/// a lane crosses a chunk boundary once per `CHUNK` pushes.
const CHUNK: usize = 32;

/// The null chunk id.
const NIL: u32 = u32::MAX;

/// Same-instant event class, in drain order. Mirrors the engine's
/// `kind_rank`: port bookings first, then completed receives, then
/// timer wake-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// A message arrival (books the input port).
    Arrival = 0,
    /// A receive completing (delivers the payload).
    Deliver = 1,
    /// A timer wake-up.
    Wake = 2,
}

const LANES: [Lane; 3] = [Lane::Arrival, Lane::Deliver, Lane::Wake];

/// One lane's FIFO: a linked run of chunks in the [`Chunks`] pool.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    /// Chunk holding the oldest item, and that item's slot in it.
    head: u32,
    head_slot: u32,
    /// Chunk taking pushes, and how many of its slots are filled.
    tail: u32,
    tail_fill: u32,
    /// Items queued.
    len: usize,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        head_slot: 0,
        tail: NIL,
        tail_fill: 0,
        len: 0,
    };

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One ring slot: three FIFO lanes, one per event class.
type Bucket = [Fifo; 3];

/// The chunk pool every lane's items live in.
#[derive(Debug)]
struct Chunks<T> {
    /// Chunk `c` is `slots[c·CHUNK .. (c+1)·CHUNK]`.
    slots: Vec<Option<T>>,
    /// The chunk after `c` in its lane, once one is linked.
    next: Vec<u32>,
    /// Drained chunks, reused before the pool grows.
    free: Vec<u32>,
}

impl<T> Chunks<T> {
    fn new() -> Chunks<T> {
        Chunks {
            slots: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A chunk off the free list, or a new one at the end of the pool.
    fn take(&mut self) -> u32 {
        if let Some(c) = self.free.pop() {
            return c;
        }
        let c = u32::try_from(self.next.len())
            .ok()
            .filter(|&c| c != NIL)
            .expect("calendar queue chunk pool exhausted");
        self.slots.resize_with(self.slots.len() + CHUNK, || None);
        self.next.push(NIL);
        c
    }

    fn push(&mut self, fifo: &mut Fifo, item: T) {
        if fifo.is_empty() {
            let c = self.take();
            *fifo = Fifo {
                head: c,
                tail: c,
                ..Fifo::EMPTY
            };
        } else if fifo.tail_fill as usize == CHUNK {
            let c = self.take();
            self.next[fifo.tail as usize] = c;
            (fifo.tail, fifo.tail_fill) = (c, 0);
        }
        self.slots[fifo.tail as usize * CHUNK + fifo.tail_fill as usize] = Some(item);
        fifo.tail_fill += 1;
        fifo.len += 1;
    }

    /// Pops the lane's oldest item, returning every chunk it empties to
    /// the free list.
    fn pop(&mut self, fifo: &mut Fifo) -> Option<T> {
        if fifo.is_empty() {
            return None;
        }
        let item = self.slots[fifo.head as usize * CHUNK + fifo.head_slot as usize].take();
        fifo.head_slot += 1;
        fifo.len -= 1;
        if fifo.is_empty() {
            // The last item sat in the tail chunk, which is the head.
            self.free.push(fifo.head);
            *fifo = Fifo::EMPTY;
        } else if fifo.head_slot as usize == CHUNK {
            self.free.push(fifo.head);
            (fifo.head, fifo.head_slot) = (self.next[fifo.head as usize], 0);
        }
        debug_assert!(item.is_some(), "a queued slot holds its item");
        item
    }
}

/// An overflow-heap entry, ordered by `(tick, lane, counter)` — the
/// global event order restricted to the events beyond the window.
#[derive(Debug)]
struct Keyed<T> {
    tick: i64,
    lane: Lane,
    counter: u64,
    item: T,
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.tick, self.lane, self.counter).cmp(&(other.tick, other.lane, other.counter))
    }
}

/// The bucket of `tick` in the ring.
fn slot(tick: i64) -> usize {
    (tick & (WINDOW as i64 - 1)) as usize
}

/// The calendar queue. See the module docs for the design and the
/// ordering contract.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Bucket>,
    /// Storage of every item in the ring.
    chunks: Chunks<T>,
    /// Tick of the window start; bucket for tick `h` is
    /// `buckets[h & mask]`.
    cur: i64,
    /// Items currently in the ring (fast membership test for pop).
    ring_len: usize,
    /// Events at ticks `≥ cur + WINDOW`.
    overflow: BinaryHeap<Reverse<Keyed<T>>>,
    /// Next push counter — the global tie-break of the seed heap.
    counter: u64,
    /// Total queued items.
    len: usize,
    /// The monotone floor: no push may be earlier than this tick.
    frontier: i64,
    /// The lattice every queued tick is counted on.
    scale: TickScale,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue on half-unit ticks, its window starting at time
    /// zero.
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue::with_scale(TickScale::HALF)
    }

    /// An empty queue on the given lattice, its window starting at time
    /// zero.
    pub fn with_scale(scale: TickScale) -> CalendarQueue<T> {
        CalendarQueue {
            buckets: vec![[Fifo::EMPTY; 3]; WINDOW],
            chunks: Chunks::new(),
            cur: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            counter: 0,
            len: 0,
            frontier: 0,
            scale,
        }
    }

    /// The lattice queued ticks are counted on.
    pub fn scale(&self) -> TickScale {
        self.scale
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` at `time` in `lane`, refining the lattice first
    /// when `time` lies off it (queued items keep their payloads; only
    /// their keys are rescaled).
    ///
    /// # Panics
    /// Panics if `time` precedes the last popped time, or if it has no
    /// tick on any lattice within `i64` range. A caller that must not
    /// panic converts with [`TickScale::to_tick`] and uses
    /// [`CalendarQueue::push_tick`].
    pub fn push(&mut self, time: Time, lane: Lane, item: T) {
        if self.scale.to_tick(time).is_none() {
            let finer = self
                .scale
                .refine(time)
                .expect("time denominator outside the i64 tick range");
            self.rescale_to(finer, |_, _| {})
                .expect("queued ticks overflow the refined lattice");
        }
        let tick = self
            .scale
            .to_tick(time)
            .expect("time outside the i64 tick range");
        self.push_tick(tick, lane, item);
    }

    /// Dequeues the earliest event under `(time, lane, counter)` order.
    pub fn pop(&mut self) -> Option<(Time, Lane, T)> {
        let (tick, lane, item) = self.pop_tick()?;
        Some((self.scale.to_time(tick), lane, item))
    }

    /// Enqueues `item` at `tick` (on [`CalendarQueue::scale`]) in `lane`.
    ///
    /// # Panics
    /// Panics if `tick` precedes the last popped tick (the queue is
    /// monotone; a discrete-event engine never schedules into the past).
    pub fn push_tick(&mut self, tick: i64, lane: Lane, item: T) {
        assert!(
            tick >= self.frontier,
            "calendar queue is monotone: push at tick {tick} precedes frontier {}",
            self.frontier,
        );
        let counter = self.counter;
        self.counter += 1;
        self.len += 1;
        self.place(tick, lane, counter, item);
    }

    /// Routes one entry to its ring bucket or the overflow heap. The
    /// difference cannot overflow: `cur ≤ frontier ≤ tick`.
    fn place(&mut self, tick: i64, lane: Lane, counter: u64, item: T) {
        if tick - self.cur < WINDOW as i64 {
            let fifo = &mut self.buckets[slot(tick)][lane as usize];
            self.chunks.push(fifo, item);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(Keyed {
                tick,
                lane,
                counter,
                item,
            }));
        }
    }

    /// Dequeues the earliest event, with its time in ticks.
    pub fn pop_tick(&mut self) -> Option<(i64, Lane, T)> {
        // The ring always precedes the overflow, whose ticks are
        // ≥ cur + WINDOW.
        let tick = if self.ring_len > 0 {
            let mut h = self.cur;
            while self.buckets[slot(h)].iter().all(Fifo::is_empty) {
                h += 1;
            }
            h
        } else {
            self.overflow.peek()?.0.tick
        };
        if tick != self.cur {
            self.advance_to(tick);
        }
        self.len -= 1;
        self.frontier = tick;
        let bucket = &mut self.buckets[slot(tick)];
        for lane in LANES {
            if let Some(item) = self.chunks.pop(&mut bucket[lane as usize]) {
                self.ring_len -= 1;
                return Some((tick, lane, item));
            }
        }
        unreachable!("a nonempty or overflow-fed bucket was selected")
    }

    /// Slides the window start to `tick` and drains every overflow
    /// entry the window now covers into its bucket. Draining in heap
    /// order keeps each bucket lane's FIFO equal to counter order.
    fn advance_to(&mut self, tick: i64) {
        self.cur = tick;
        while let Some(Reverse(k)) = self.overflow.peek() {
            if k.tick - tick >= WINDOW as i64 {
                break;
            }
            let Reverse(k) = self.overflow.pop().expect("peeked");
            let fifo = &mut self.buckets[slot(k.tick)][k.lane as usize];
            self.chunks.push(fifo, k.item);
            self.ring_len += 1;
        }
    }

    /// Moves the queue onto `finer`, a refinement of its lattice:
    /// every queued tick and the frontier are multiplied by the factor
    /// `k = finer.den() / scale.den()`, and `rescale` is called on each
    /// queued item with `k` so payload ticks can follow. Pop order is
    /// unchanged.
    ///
    /// Returns `None`, leaving the queue untouched, when a rescaled
    /// tick would overflow an `i64` or `finer` does not refine the
    /// current lattice.
    pub fn rescale_to(
        &mut self,
        finer: TickScale,
        mut rescale: impl FnMut(&mut T, i64),
    ) -> Option<()> {
        let k = finer.factor_over(self.scale)?;
        // Every tick is ≥ 0 (pushes are monotone from time zero), and
        // the frontier and ring ticks lie below the window's end.
        let top = self.overflow.iter().map(|Reverse(e)| e.tick);
        top.fold(self.cur + WINDOW as i64, i64::max)
            .checked_mul(k)?;

        // Ring entries leave in (tick, lane, FIFO) order, numbered in
        // that order: an entry that lands in the overflow heap then
        // sorts before every later push at its tick and lane (no later
        // push can carry a smaller counter, since `ring_len ≤ counter`).
        // Overflow entries keep their counters; their ticks stay beyond
        // the rescaled window, so they never share a tick with the ring.
        let mut ring: Vec<(i64, Lane, T)> = Vec::with_capacity(self.ring_len);
        for h in self.cur..self.cur + WINDOW as i64 {
            let bucket = &mut self.buckets[slot(h)];
            for lane in LANES {
                let fifo = &mut bucket[lane as usize];
                while let Some(x) = self.chunks.pop(fifo) {
                    ring.push((h, lane, x));
                }
            }
        }
        let overflow = std::mem::take(&mut self.overflow);
        self.cur *= k;
        self.frontier *= k;
        self.ring_len = 0;
        self.scale = finer;
        for (seq, (tick, lane, mut item)) in ring.into_iter().enumerate() {
            rescale(&mut item, k);
            self.place(tick * k, lane, seq as u64, item);
        }
        for Reverse(mut e) in overflow {
            rescale(&mut e.item, k);
            self.place(e.tick * k, e.lane, e.counter, e.item);
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_lane_counter_order() {
        let mut q = CalendarQueue::new();
        q.push_tick(4, Lane::Wake, "w2");
        q.push_tick(2, Lane::Deliver, "d1");
        q.push_tick(2, Lane::Arrival, "a1");
        q.push_tick(2, Lane::Arrival, "a2");
        q.push_tick(4, Lane::Arrival, "a3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_tick().map(|(_, _, x)| x)).collect();
        assert_eq!(order, vec!["a1", "a2", "d1", "a3", "w2"]);
    }

    #[test]
    fn same_tick_push_during_drain_is_seen_before_later_lanes() {
        // A heap pops an arrival pushed mid-drain before the remaining
        // delivers of the same tick; the ring must do the same.
        let mut q = CalendarQueue::new();
        q.push_tick(2, Lane::Deliver, "d1");
        q.push_tick(2, Lane::Deliver, "d2");
        assert_eq!(q.pop_tick().unwrap(), (2, Lane::Deliver, "d1"));
        q.push_tick(2, Lane::Arrival, "a-late");
        assert_eq!(q.pop_tick().unwrap().2, "a-late");
        assert_eq!(q.pop_tick().unwrap().2, "d2");
        assert!(q.pop_tick().is_none());
    }

    #[test]
    fn overflow_flushes_into_the_window_in_counter_order() {
        let far = WINDOW as i64 + 10;
        let mut q = CalendarQueue::new();
        q.push_tick(far, Lane::Deliver, 0u32);
        q.push_tick(far, Lane::Deliver, 1);
        q.push_tick(1, Lane::Deliver, 2);
        assert_eq!(q.pop_tick().unwrap().2, 2);
        // Window slides to `far`; both overflow entries must come out
        // FIFO, and a direct push lands after them.
        assert_eq!(q.pop_tick().unwrap(), (far, Lane::Deliver, 0));
        q.push_tick(far, Lane::Deliver, 3);
        assert_eq!(q.pop_tick().unwrap().2, 1);
        assert_eq!(q.pop_tick().unwrap().2, 3);
    }

    #[test]
    fn off_lattice_push_refines_the_scale_in_order() {
        // 7/3 is off the half-unit lattice: the queue moves to sixths
        // and pops it between 2 and 5/2.
        let mut q = CalendarQueue::new();
        q.push(Time::new(5, 2), Lane::Arrival, "half");
        q.push(Time::new(7, 3), Lane::Arrival, "third");
        q.push(Time::from_int(2), Lane::Arrival, "two");
        assert_eq!(q.scale().den(), 6);
        assert_eq!(q.pop().unwrap(), (Time::from_int(2), Lane::Arrival, "two"));
        assert_eq!(q.pop().unwrap(), (Time::new(7, 3), Lane::Arrival, "third"));
        assert_eq!(q.pop().unwrap(), (Time::new(5, 2), Lane::Arrival, "half"));
    }

    #[test]
    fn rescale_keeps_order_across_ring_and_overflow() {
        // Same-tick ring entries, a window edge that the factor pushes
        // into overflow, and a far overflow entry, all keep their order.
        let mut q = CalendarQueue::new();
        let edge = WINDOW as i64 - 1;
        q.push_tick(3, Lane::Deliver, (3, 0));
        q.push_tick(3, Lane::Arrival, (3, 1));
        q.push_tick(3, Lane::Deliver, (3, 2));
        q.push_tick(edge, Lane::Wake, (edge, 0));
        q.push_tick(edge, Lane::Wake, (edge, 1));
        q.push_tick(5 * WINDOW as i64, Lane::Wake, (5 * WINDOW as i64, 0));
        let finer = TickScale::new(14).unwrap();
        q.rescale_to(finer, |item, k| item.0 *= k).unwrap();
        q.push_tick(edge * 7, Lane::Wake, (edge * 7, 2));
        let order: Vec<(i64, i64)> = std::iter::from_fn(|| {
            q.pop_tick().map(|(t, _, x)| {
                assert_eq!(t, x.0, "payload ticks follow the keys");
                x
            })
        })
        .collect();
        assert_eq!(
            order,
            vec![
                (21, 1),
                (21, 0),
                (21, 2),
                (edge * 7, 0),
                (edge * 7, 1),
                (edge * 7, 2),
                (35 * WINDOW as i64, 0),
            ]
        );
    }

    #[test]
    fn rescale_overflow_leaves_the_queue_untouched() {
        let mut q = CalendarQueue::new();
        q.push_tick(i64::MAX / 2, Lane::Wake, ());
        assert!(q
            .rescale_to(TickScale::new(6).unwrap(), |_, _| {})
            .is_none());
        assert_eq!(q.scale(), TickScale::HALF);
        // Not a refinement of half-units.
        assert!(q
            .rescale_to(TickScale::new(3).unwrap(), |_, _| {})
            .is_none());
        assert_eq!(q.pop_tick().unwrap().0, i64::MAX / 2);
    }

    #[test]
    fn lanes_stay_fifo_across_chunk_boundaries() {
        // Interleave pushes and pops on one tick's lanes so every lane
        // crosses several chunk boundaries, against a VecDeque model.
        use std::collections::VecDeque;
        let mut q = CalendarQueue::new();
        let mut model: [VecDeque<u32>; 3] = Default::default();
        let mut next = 0u32;
        for round in 0..(5 * CHUNK) {
            for lane in LANES {
                for _ in 0..(1 + (round + lane as usize) % 3) {
                    q.push_tick(7, lane, next);
                    model[lane as usize].push_back(next);
                    next += 1;
                }
            }
            if round % 2 == 1 {
                let (tick, lane, item) = q.pop_tick().unwrap();
                assert_eq!(tick, 7);
                let want = LANES
                    .iter()
                    .find_map(|&l| model[l as usize].pop_front().map(|x| (l, x)));
                assert_eq!(Some((lane, item)), want);
            }
        }
        while let Some((_, lane, item)) = q.pop_tick() {
            let want = LANES
                .iter()
                .find_map(|&l| model[l as usize].pop_front().map(|x| (l, x)));
            assert_eq!(Some((lane, item)), want);
        }
        assert!(model.iter().all(VecDeque::is_empty));
    }

    #[test]
    fn drained_chunks_are_reused_before_the_pool_grows() {
        // Tick after tick the same number of events is live, so after
        // the first tick every chunk comes off the free list.
        let mut q = CalendarQueue::new();
        for i in 0..(3 * CHUNK as u32) {
            q.push_tick(1, Lane::Arrival, i);
        }
        let pool = q.chunks.next.len();
        for tick in 2..40i64 {
            for i in 0..(3 * CHUNK as u32) {
                q.push_tick(tick, Lane::Deliver, i);
            }
            for _ in 0..(3 * CHUNK) {
                assert_eq!(q.pop_tick().unwrap().0, tick - 1);
            }
        }
        // One tick's events live at a time, plus the next tick's.
        assert!(
            q.chunks.next.len() <= 2 * pool,
            "pool grew to {}",
            q.chunks.next.len()
        );
        assert_eq!(q.len(), 3 * CHUNK);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn push_into_the_past_panics() {
        let mut q = CalendarQueue::new();
        q.push_tick(10, Lane::Wake, ());
        let _ = q.pop_tick();
        q.push_tick(4, Lane::Wake, ());
    }

    #[test]
    fn len_tracks_ring_and_overflow() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        assert!(q.is_empty());
        q.push_tick(0, Lane::Arrival, 0);
        q.push_tick(WINDOW as i64 * 3, Lane::Arrival, 1);
        q.push(Time::new(1, 3), Lane::Arrival, 2);
        assert_eq!(q.len(), 3);
        let mut n = 0;
        while q.pop_tick().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(q.is_empty());
    }
}
