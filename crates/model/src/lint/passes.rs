//! The lint pass set — every `P0001`–`P0007` and `P0017`–`P0019` check,
//! written once — and the sorted driver that sweeps it over a schedule.
//!
//! A [`LintPass`] is a stateless rule: it names itself and its
//! [`PassStage`], and [`LintPass::start`] creates its per-run state, a
//! [`StreamingLintPass`] that consumes the run's sends one
//! [`StreamEvent`] at a time and appends its findings at `finish`. Two
//! drivers feed the same passes:
//!
//! * **sorted** — [`PassManager::run`], behind
//!   [`lint_schedule`](super::lint_schedule). A [`Schedule`] is already
//!   in canonical `(send_start, src, dst)` order, so the driver folds it
//!   into a [`ScheduleIndex`] and hands `schedule.sends()` straight to
//!   the passes, with no pending queue.
//! * **watermark** — [`StreamingLint`](super::StreamingLint), for a live
//!   run or a logged stream, which per-start-tick pending buckets
//!   restore to canonical order (see the [`stream`](super::stream)
//!   module).
//!
//! Both drivers hand each send over with its start tick on the run's
//! lattice ([`StreamEvent::Send`]), so passes run on `i64` ticks and
//! fall back to exact [`Time`] only for a start off that lattice.
//!
//! Both end in one staged finish:
//!
//! 1. **Shape** (`P0004`, `P0001`, `P0002`, `P0017`) — always run; for
//!    non-broadcast lints ([`LintOptions::ports_only`]) the report stops
//!    here, in emission order (the engine's historical contract), and
//!    no later-stage pass is even started.
//! 2. **Broadcast** (`P0003`, `P0005`, `P0019`) — run when
//!    [`LintOptions::broadcast`] is set. Any error so far suppresses
//!    the quality stage: a broken schedule's completion time is
//!    meaningless.
//! 3. **Quality** (`P0006`, `P0007`, `P0018`) — warnings and notes about
//!    schedules that are valid but wasteful.
//!
//! Passes emit into one shared diagnostic vector, sorted once at the end
//! (broadcast mode only, matching the seed engine). Output is
//! byte-identical to
//! [`reference::lint_schedule_reference`](super::reference::lint_schedule_reference),
//! which the differential suites assert over the full acceptance grid
//! for both drivers.

use super::index::{ScheduleIndex, Stamp, StreamIndex, TimeSlots};
use super::{diag_order, Diagnostic, LintCode, LintOptions, Severity};
use crate::fib::GenFib;
use crate::runtimes;
use crate::schedule::{Schedule, TimedSend};
use crate::time::Time;
use crate::topology::{Topology, UNREACHABLE};
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::Add;

/// When in the staged finish a pass reports (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassStage {
    /// Port and shape rules; always run.
    Shape,
    /// Broadcast validity rules; run when `opts.broadcast`.
    Broadcast,
    /// Quality lints; run only when no error was found.
    Quality,
}

/// One unit of input, handed to every started pass.
pub enum StreamEvent<'a> {
    /// A well-formed send, in canonical `(send_start, src, dst)` order.
    Send {
        /// The send itself.
        send: &'a TimedSend,
        /// `send.send_start` in ticks of the run's lattice
        /// ([`StreamIndex::scale`]), when it lies on it: computed once by
        /// the driver, so passes compare and store integers and fall back
        /// to the exact `Time` only when this is `None`.
        tick: Option<i64>,
    },
    /// A structurally malformed send (`P0004` material): in schedule
    /// order from the sorted driver, at observation time in stream
    /// order from the watermark driver.
    Malformed(&'a TimedSend),
}

/// What a pass may look at alongside each event: the run's shared
/// index and the caller's options.
pub struct StreamContext<'a> {
    /// The shared per-run facts (running or final; see
    /// [`index`](super::index)).
    pub index: &'a StreamIndex,
    /// What the run is being linted as.
    pub opts: &'a LintOptions,
}

/// One lint rule: its name, its stage, and a constructor for its
/// per-run state.
pub trait LintPass {
    /// Short stable name, e.g. `"output-port"`.
    fn name(&self) -> &'static str;
    /// When in the staged finish this pass reports.
    fn stage(&self) -> PassStage;
    /// Creates this pass's state for one run over `n` processors.
    fn start(&self, n: u32) -> Box<dyn StreamingLintPass + Send>;
}

/// A [`LintPass`]'s state over one run.
///
/// `on_event` is called once per send — well-formed sends in canonical
/// order, malformed ones as the driver meets them — and `finish` once
/// at the end. A pass must emit its diagnostics in the engine's
/// canonical *emission* order for its code (by processor, then send
/// order): the final stable sort keeps equal-key diagnostics in
/// emission order, which is part of the byte-identical contract.
pub trait StreamingLintPass {
    /// Consumes one send.
    fn on_event(&mut self, _cx: &StreamContext<'_>, _ev: &StreamEvent<'_>) {}
    /// Appends this pass's findings to `out` at end of run.
    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>);
    /// Currently reserved heap bytes, by container capacity.
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// An ordered list of [`LintPass`]es, and the sorted driver over it.
pub struct PassManager {
    passes: Vec<Box<dyn LintPass>>,
}

impl PassManager {
    /// The full engine: `P0004`, `P0001`, `P0002`, `P0003`, `P0005`,
    /// `P0006`, `P0007`, in canonical emission order.
    pub fn standard() -> PassManager {
        PassManager {
            passes: vec![
                Box::new(MalformedSendPass),
                Box::new(OutputPortPass),
                Box::new(InputWindowPass),
                Box::new(CausalityPass),
                Box::new(CoveragePass),
                Box::new(IdlePortPass),
                Box::new(OptimalityPass),
            ],
        }
    }

    /// [`PassManager::standard`] plus the topology-grounded passes:
    /// `P0017` (Shape, after `P0002`), `P0019` (Broadcast, after
    /// `P0005`, which it root-cause-suppresses), and `P0018` (Quality,
    /// after `P0007`). On the complete graph all three are vacuous —
    /// every pair is an edge, every processor is reachable, and the
    /// BFS bound defers to the stronger `f_λ(n)` of `P0007` — so the
    /// output is byte-identical to [`PassManager::standard`].
    ///
    /// `topology` must be instantiated for the schedule's processor
    /// count (out-of-range processors read as non-edges/unreachable).
    pub fn standard_with_topology(topology: &Topology) -> PassManager {
        let topo = *topology;
        PassManager::standard()
            .with_pass(Box::new(NonEdgeSendPass { topo }))
            .with_pass(Box::new(TopologyReachabilityPass { topo }))
            .with_pass(Box::new(TopologyOptimalityPass { topo }))
    }

    /// An empty manager, for assembling a custom pass list.
    pub fn empty() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// Appends a pass (builder style). Passes report stage by stage,
    /// in list order within a stage.
    #[must_use]
    pub fn with_pass(mut self, pass: Box<dyn LintPass>) -> PassManager {
        self.passes.push(pass);
        self
    }

    /// The registered passes, in list order.
    pub fn passes(&self) -> &[Box<dyn LintPass>] {
        &self.passes
    }

    /// Builds the [`ScheduleIndex`] and runs the sorted driver.
    pub fn run(&self, schedule: &Schedule, opts: &LintOptions) -> Vec<Diagnostic> {
        self.run_with_index(&ScheduleIndex::build(schedule), schedule, opts)
    }

    /// The sorted driver over a prebuilt `index`, which must be
    /// [`ScheduleIndex::build`] of the same schedule: starts the passes,
    /// hands them `schedule.sends()` in order, and runs the staged
    /// finish. Lets callers amortize the index across several option
    /// sets or pass lists.
    pub fn run_with_index(
        &self,
        index: &ScheduleIndex,
        schedule: &Schedule,
        opts: &LintOptions,
    ) -> Vec<Diagnostic> {
        let cx = StreamContext { index, opts };
        let mut passes = self.start(index.n(), opts);
        for s in schedule.sends() {
            let ev = match index.classify(s) {
                (tick, true) => StreamEvent::Send { send: s, tick },
                (_, false) => StreamEvent::Malformed(s),
            };
            passes.on_event(&cx, &ev);
        }
        passes.finish(&cx)
    }

    /// Starts every pass the run can report: the Shape passes alone for
    /// a non-broadcast lint, the whole list otherwise.
    pub(crate) fn start(&self, n: u32, opts: &LintOptions) -> StartedPasses {
        StartedPasses(
            self.passes
                .iter()
                .filter(|p| opts.broadcast || p.stage() == PassStage::Shape)
                .map(|p| (p.stage(), p.start(n)))
                .collect(),
        )
    }
}

/// The passes of one run, each with its stage.
pub(crate) struct StartedPasses(Vec<(PassStage, Box<dyn StreamingLintPass + Send>)>);

impl StartedPasses {
    pub(crate) fn on_event(&mut self, cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        for (_, pass) in &mut self.0 {
            pass.on_event(cx, ev);
        }
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.0.iter().map(|(_, p)| p.memory_bytes()).sum()
    }

    /// The one staged finish (see the module docs).
    pub(crate) fn finish(mut self, cx: &StreamContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        self.finish_stage(PassStage::Shape, cx, &mut diags);
        if !cx.opts.broadcast {
            return diags;
        }
        self.finish_stage(PassStage::Broadcast, cx, &mut diags);
        if !diags.iter().any(|d| d.severity == Severity::Error) {
            self.finish_stage(PassStage::Quality, cx, &mut diags);
        }
        diags.sort_by_key(diag_order);
        diags
    }

    fn finish_stage(
        &mut self,
        stage: PassStage,
        cx: &StreamContext<'_>,
        out: &mut Vec<Diagnostic>,
    ) {
        for (s, pass) in &mut self.0 {
            if *s == stage {
                pass.finish(cx, out);
            }
        }
    }
}

/// `P0004` — structurally malformed sends, in schedule order.
pub struct MalformedSendPass;

impl LintPass for MalformedSendPass {
    fn name(&self) -> &'static str {
        "malformed-send"
    }

    fn stage(&self) -> PassStage {
        PassStage::Shape
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(MalformedRun { found: Vec::new() })
    }
}

/// `P0004` per run: malformed sends buffer as they arrive and replay in
/// schedule order at `finish`.
struct MalformedRun {
    found: Vec<TimedSend>,
}

impl StreamingLintPass for MalformedRun {
    fn on_event(&mut self, _cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        if let StreamEvent::Malformed(s) = ev {
            self.found.push(**s);
        }
    }

    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        // Schedule order: `Schedule::new` sorts by (start, src, dst);
        // the watermark driver meets malformed sends in stream order.
        self.found.sort_by_key(|s| (s.send_start, s.src, s.dst));
        let n = cx.index.n();
        let lam = cx.index.latency();
        for s in &self.found {
            let what = if s.src == s.dst {
                "self-send"
            } else if s.src >= n || s.dst >= n {
                "endpoint out of range"
            } else {
                "negative start time"
            };
            out.push(Diagnostic {
                code: LintCode::MalformedSend,
                severity: Severity::Error,
                witness: None,
                proc: Some(s.src),
                sends: vec![*s],
                related_time: None,
                message: format!(
                    "{what}: p{} -> p{} at t = {} in MPS({n}, {lam})",
                    s.src, s.dst, s.send_start
                ),
            });
        }
    }

    fn memory_bytes(&self) -> usize {
        self.found.capacity() * size_of::<TimedSend>()
    }
}

/// `P0001` — output-port overlap: consecutive sends from one processor
/// start less than one unit apart.
pub struct OutputPortPass;

impl LintPass for OutputPortPass {
    fn name(&self) -> &'static str {
        "output-port"
    }

    fn stage(&self) -> PassStage {
        PassStage::Shape
    }

    fn start(&self, n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(OutputPortRun {
            prev_start: TimeSlots::new(n as usize),
            prev_dst: vec![0; n as usize],
            found: Vec::new(),
        })
    }
}

/// `P0001` per run: one previous send per output port; overlaps are
/// detected as sends arrive and grouped by processor at `finish`.
struct OutputPortRun {
    prev_start: TimeSlots,
    prev_dst: Vec<u32>,
    found: Vec<(u32, Diagnostic)>,
}

impl StreamingLintPass for OutputPortRun {
    fn on_event(&mut self, cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        let &StreamEvent::Send { send: b, tick } = ev else {
            return;
        };
        let src = b.src;
        if let Some(a_start) = self.prev_start.stamp(src) {
            if cx
                .index
                .stamps_lt_one_apart(a_start, Stamp::of(b.send_start, tick))
            {
                let a = TimedSend {
                    src,
                    dst: self.prev_dst[src as usize],
                    send_start: a_start.time(cx.index.scale()),
                };
                self.found.push((
                    src,
                    Diagnostic {
                        code: LintCode::OutputPortOverlap,
                        severity: Severity::Error,
                        witness: None,
                        proc: Some(src),
                        sends: vec![a, *b],
                        related_time: None,
                        message: format!(
                            "p{src} starts sends at t = {} and t = {} ({} < 1 unit apart)",
                            a.send_start,
                            b.send_start,
                            b.send_start - a.send_start,
                        ),
                    },
                ));
            }
        }
        self.prev_start.put(src, b.send_start, tick);
        self.prev_dst[src as usize] = b.dst;
    }

    fn finish(&mut self, _cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        // Emission order is per src, ascending; the stable sort keeps
        // each processor's overlaps in send order.
        self.found.sort_by_key(|(src, _)| *src);
        out.extend(self.found.drain(..).map(|(_, d)| d));
    }

    fn memory_bytes(&self) -> usize {
        self.prev_start.memory_bytes()
            + self.prev_dst.capacity() * size_of::<u32>()
            + self.found.capacity() * size_of::<(u32, Diagnostic)>()
    }
}

/// `P0002` — input-window overlap: two receive windows
/// `[s+λ−1, s+λ]` at one processor finish less than one unit apart.
pub struct InputWindowPass;

impl LintPass for InputWindowPass {
    fn name(&self) -> &'static str {
        "input-window"
    }

    fn stage(&self) -> PassStage {
        PassStage::Shape
    }

    fn start(&self, n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(InputWindowRun {
            prev_start: TimeSlots::new(n as usize),
            prev_src: vec![0; n as usize],
            found: Vec::new(),
        })
    }
}

/// `P0002` per run: one previous receive window per input port;
/// overlaps are detected as sends arrive and grouped by processor at
/// `finish`.
struct InputWindowRun {
    prev_start: TimeSlots,
    prev_src: Vec<u32>,
    found: Vec<(u32, Diagnostic)>,
}

impl StreamingLintPass for InputWindowRun {
    fn on_event(&mut self, cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        let &StreamEvent::Send { send: b, tick } = ev else {
            return;
        };
        let dst = b.dst;
        if let Some(a_start) = self.prev_start.stamp(dst) {
            if cx
                .index
                .stamps_lt_one_apart(a_start, Stamp::of(b.send_start, tick))
            {
                let a = TimedSend {
                    src: self.prev_src[dst as usize],
                    dst,
                    send_start: a_start.time(cx.index.scale()),
                };
                let lam = cx.index.latency();
                let (f0, f1) = (a.recv_finish(lam), b.recv_finish(lam));
                self.found.push((
                    dst,
                    Diagnostic {
                        code: LintCode::InputWindowOverlap,
                        severity: Severity::Error,
                        witness: None,
                        proc: Some(dst),
                        sends: vec![a, *b],
                        related_time: None,
                        message: format!(
                            "p{dst}'s receive windows [{}, {}] and [{}, {}] overlap",
                            f0 - Time::ONE,
                            f0,
                            f1 - Time::ONE,
                            f1,
                        ),
                    },
                ));
            }
        }
        self.prev_start.put(dst, b.send_start, tick);
        self.prev_src[dst as usize] = b.src;
    }

    fn finish(&mut self, _cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        self.found.sort_by_key(|(dst, _)| *dst);
        out.extend(self.found.drain(..).map(|(_, d)| d));
    }

    fn memory_bytes(&self) -> usize {
        self.prev_start.memory_bytes()
            + self.prev_src.capacity() * size_of::<u32>()
            + self.found.capacity() * size_of::<(u32, Diagnostic)>()
    }
}

/// `P0003` — causality: a non-originator must hold the message before
/// its first send of it.
pub struct CausalityPass;

impl LintPass for CausalityPass {
    fn name(&self) -> &'static str {
        "causality"
    }

    fn stage(&self) -> PassStage {
        PassStage::Broadcast
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(CausalityRun { found: Vec::new() })
    }
}

/// `P0003` per run: the violation is decided as each send arrives — a
/// receipt that informs it finishes by its start, so its own send
/// started at least λ earlier and is already folded into the index
/// (see [`index`](super::index)). The message needs the sender's
/// eventual first receipt, so violations buffer in send order and
/// render at `finish`.
struct CausalityRun {
    found: Vec<TimedSend>,
}

impl StreamingLintPass for CausalityRun {
    fn on_event(&mut self, cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        let &StreamEvent::Send { send: s, tick } = ev else {
            return;
        };
        if s.src != cx.opts.originator
            && !cx
                .index
                .informed_by_stamp(s.src, Stamp::of(s.send_start, tick))
        {
            self.found.push(*s);
        }
    }

    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        for s in &self.found {
            let knows_at = cx.index.first_receipt(s.src);
            out.push(Diagnostic {
                code: LintCode::CausalityViolation,
                severity: Severity::Error,
                witness: None,
                proc: Some(s.src),
                sends: vec![*s],
                related_time: knows_at,
                message: match knows_at {
                    Some(t) => format!(
                        "p{} sends at t = {} but first holds the message at t = {}",
                        s.src, s.send_start, t
                    ),
                    None => format!(
                        "p{} sends at t = {} but never receives the message",
                        s.src, s.send_start
                    ),
                },
            });
        }
    }

    fn memory_bytes(&self) -> usize {
        self.found.capacity() * size_of::<TimedSend>()
    }
}

/// `P0005` — coverage: every processor but the originator must receive.
/// A pure `finish`-time sweep of the first-receipt table.
#[derive(Clone, Copy)]
pub struct CoveragePass;

impl LintPass for CoveragePass {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn stage(&self) -> PassStage {
        PassStage::Broadcast
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(*self)
    }
}

impl StreamingLintPass for CoveragePass {
    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        let idx = cx.index;
        for p in 0..idx.n() {
            if p != cx.opts.originator && idx.first_receipt(p).is_none() {
                out.push(Diagnostic {
                    code: LintCode::UninformedProcessor,
                    severity: Severity::Error,
                    witness: None,
                    proc: Some(p),
                    sends: Vec::new(),
                    related_time: None,
                    message: format!("p{p} never receives the broadcast message"),
                });
            }
        }
    }
}

/// `P0006` — idle-port waste: an informed output port idles although a
/// send in the gap would inform someone strictly earlier.
pub struct IdlePortPass;

impl LintPass for IdlePortPass {
    fn name(&self) -> &'static str {
        "idle-port"
    }

    fn stage(&self) -> PassStage {
        PassStage::Quality
    }

    fn start(&self, n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(IdlePortRun {
            cursor: TimeSlots::new(n as usize),
            first_gap: HashMap::new(),
        })
    }
}

/// `P0006` per run: tracks each output port's busy cursor and its
/// *first* idle gap as sends arrive, and resolves that gap against the
/// coverage horizon at `finish`.
///
/// Only the first gap matters: the report names the earliest gap whose
/// hypothetical delivery beats some processor's actual receipt, and
/// that test is monotone — the receipt it compares against does not
/// depend on the gap, so if the earliest gap fails the test every later
/// (larger) gap fails too.
///
/// A port's cursor opens at its processor's informed time, read when
/// the port's first send arrives; that value is final in both drivers
/// unless the send breaks causality, which suppresses this stage.
struct IdlePortRun {
    cursor: TimeSlots,
    first_gap: HashMap<u32, Time>,
}

impl IdlePortRun {
    /// The `finish` sweep over one time representation `T`: `to` maps
    /// a time into `T` (`None` aborts the sweep) and `time` maps back
    /// for reporting.
    fn scan<T: Copy + Ord + Add<Output = T>>(
        &self,
        cx: &StreamContext<'_>,
        to: impl Fn(Time) -> Option<T>,
        time: impl Fn(T) -> Time,
    ) -> Option<Vec<Diagnostic>> {
        let idx = cx.index;
        let scale = idx.scale();
        let n = idx.n();
        let lam = to(idx.latency().as_time())?;
        let zero = to(Time::ZERO)?;
        let mut receipts: Vec<Option<T>> = Vec::with_capacity(n as usize);
        for p in 0..n {
            receipts.push(match idx.first_receipt(p) {
                Some(t) => Some(to(t)?),
                None => None,
            });
        }

        // The coverage horizon and the two latest first-receipts
        // (distinct processors): enough to answer "does any processor
        // other than `src` first receive after time x?" in O(1).
        let mut completion_of_coverage = zero;
        let mut latest: Option<(T, u32)> = None;
        let mut second: Option<(T, u32)> = None;
        for (p, t) in (0..n).zip(&receipts) {
            let Some(t) = *t else {
                continue;
            };
            completion_of_coverage = completion_of_coverage.max(t);
            if latest.is_none_or(|(lt, lp)| (t, p) > (lt, lp)) {
                second = latest;
                latest = Some((t, p));
            } else if second.is_none_or(|(st, sp)| (t, p) > (st, sp)) {
                second = Some((t, p));
            }
        }
        let receipt_after = |x: T, src: u32| -> Option<(T, u32)> {
            match latest {
                Some((t, q)) if q != src && t > x => Some((t, q)),
                Some((_, q)) if q == src => second.filter(|&(t, _)| t > x),
                _ => None,
            }
        };

        let mut out = Vec::new();
        for src in 0..n {
            let informed_at = if src == cx.opts.originator {
                Some(zero)
            } else {
                receipts[src as usize]
            };
            let Some(informed_at) = informed_at else {
                continue;
            };
            // The candidate gap: the first recorded idle gap, else the
            // open-ended gap after the last send (the port's whole
            // informed life, for a port that never sent).
            let gap = match self.cursor.get(src, scale) {
                None => (informed_at < completion_of_coverage).then_some(informed_at),
                Some(c) => match self.first_gap.get(&src) {
                    Some(&g) => Some(to(g)?),
                    None => {
                        let c = to(c)?;
                        (c < completion_of_coverage).then_some(c)
                    }
                },
            };
            let Some(g) = gap else {
                continue;
            };
            let hypothetical = g + lam;
            // An uninformed-at-g processor whose eventual receipt
            // is strictly later than the hypothetical delivery.
            if let Some((t, q)) = receipt_after(hypothetical, src) {
                let (g, hypothetical, t) = (time(g), time(hypothetical), time(t));
                out.push(Diagnostic {
                    code: LintCode::IdlePortWaste,
                    severity: Severity::Warn,
                    witness: None,
                    proc: Some(src),
                    sends: Vec::new(),
                    related_time: Some(g),
                    message: format!(
                        "p{src} is informed and idle from t = {g} although a send then \
                         would reach p{q} at t = {hypothetical}, earlier than its actual \
                         receipt at t = {t}"
                    ),
                });
            }
        }
        Some(out)
    }
}

impl StreamingLintPass for IdlePortRun {
    fn on_event(&mut self, cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        let &StreamEvent::Send { send: s, tick } = ev else {
            return;
        };
        let src = s.src;
        let scale = cx.index.scale();
        let start = Stamp::of(s.send_start, tick);
        let cur = match self.cursor.stamp(src) {
            Some(c) => c,
            // First send from this port: the cursor opens at the
            // processor's informed time (garbage-tolerant when the
            // sender is not yet informed — that is a P0003 error and
            // suppresses this stage).
            None if src == cx.opts.originator => Stamp::Tick(0),
            None => cx.index.first_receipt_stamp(src).unwrap_or(start),
        };
        match (start, cur) {
            // Hot path: both times are ticks.
            (Stamp::Tick(start), Stamp::Tick(cur)) => {
                if start > cur {
                    self.first_gap
                        .entry(src)
                        .or_insert_with(|| scale.to_time(cur));
                }
                self.cursor.put_tick(src, cur.max(start + scale.den()));
            }
            (start, cur) => {
                let (start, cur) = (start.time(scale), cur.time(scale));
                if start > cur {
                    self.first_gap.entry(src).or_insert(cur);
                }
                let next = cur.max(start + Time::ONE);
                self.cursor.put(src, next, scale.to_tick(next));
            }
        }
    }

    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        // On ticks when every time involved has one — always, for a
        // run the simulator produced — else exactly.
        let scale = cx.index.scale();
        let found = self
            .scan(cx, |t| scale.to_tick(t), |h| scale.to_time(h))
            .or_else(|| self.scan(cx, Some, |t| t))
            .expect("the exact scan converts every time");
        out.extend(found);
    }

    fn memory_bytes(&self) -> usize {
        self.cursor.memory_bytes()
            + self.first_gap.capacity() * (size_of::<(u32, Time)>() + size_of::<u64>())
    }
}

/// `P0007` — optimality gap against `f_λ(n)` (m = 1) or the Lemma 8
/// lower bound (m > 1). A pure `finish`-time check of the completion
/// maximum.
#[derive(Clone, Copy)]
pub struct OptimalityPass;

impl LintPass for OptimalityPass {
    fn name(&self) -> &'static str {
        "optimality"
    }

    fn stage(&self) -> PassStage {
        PassStage::Quality
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(*self)
    }
}

impl StreamingLintPass for OptimalityPass {
    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        let n = cx.index.n();
        let lam = cx.index.latency();
        // Only sensible when there is something to broadcast to.
        if n < 2 {
            return;
        }
        let completion = cx.index.completion();
        let m = cx.opts.messages.max(1);
        let optimal = if m == 1 {
            GenFib::new(lam).index(n as u128)
        } else {
            runtimes::multi_lower_bound(n as u128, m, lam)
        };
        if completion < optimal {
            out.push(Diagnostic {
                code: LintCode::OptimalityGap,
                severity: Severity::Error,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(optimal),
                message: format!(
                    "completes at t = {completion}, beating the proven lower bound {optimal} \
                     for {m} message(s) in MPS({n}, {lam}) — the schedule cannot be a full \
                     broadcast"
                ),
            });
        } else if completion > optimal {
            let (severity, bound_name) = if m == 1 {
                (Severity::Warn, "the optimum f_lambda(n)")
            } else {
                // The Lemma 8 bound is not always attainable, so a gap
                // against it is informational, not a defect.
                (
                    Severity::Info,
                    "the Lemma 8 lower bound (m-1) + f_lambda(n)",
                )
            };
            out.push(Diagnostic {
                code: LintCode::OptimalityGap,
                severity,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(optimal),
                message: format!(
                    "completes at t = {completion}; {bound_name} is {optimal} \
                     (gap {} units)",
                    completion - optimal
                ),
            });
        }
    }
}

/// `P0017` — non-edge send: a transfer connects two processors that are
/// not adjacent in the communication graph. Checks well-formed sends in
/// canonical order; malformed sends (`P0004`) have no defined endpoints
/// on the graph and are not re-reported here.
pub struct NonEdgeSendPass {
    /// The communication graph to check adjacency against.
    pub topo: Topology,
}

impl LintPass for NonEdgeSendPass {
    fn name(&self) -> &'static str {
        "non-edge"
    }

    fn stage(&self) -> PassStage {
        PassStage::Shape
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(NonEdgeRun {
            topo: self.topo,
            found: Vec::new(),
        })
    }
}

/// `P0017` per run: findings are detected as sends arrive, already in
/// emission order, and appended verbatim at `finish`.
struct NonEdgeRun {
    topo: Topology,
    found: Vec<Diagnostic>,
}

impl StreamingLintPass for NonEdgeRun {
    fn on_event(&mut self, _cx: &StreamContext<'_>, ev: &StreamEvent<'_>) {
        let &StreamEvent::Send { send: s, .. } = ev else {
            return;
        };
        if self.topo.is_complete() || self.topo.is_edge(s.src, s.dst) {
            return;
        }
        let spec = self.topo.spec();
        self.found.push(Diagnostic {
            code: LintCode::NonEdgeSend,
            severity: Severity::Error,
            witness: None,
            proc: Some(s.src),
            sends: vec![*s],
            related_time: None,
            message: format!(
                "p{} sends to p{} at t = {}, but p{}-p{} is not an edge \
                 of the {spec} topology",
                s.src, s.dst, s.send_start, s.src, s.dst
            ),
        });
    }

    fn finish(&mut self, _cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        out.append(&mut self.found);
    }

    fn memory_bytes(&self) -> usize {
        self.found.capacity() * size_of::<Diagnostic>()
    }
}

/// `P0019` — topology partition: a processor with no path from the
/// originator in the graph can never be informed, by any schedule.
/// Root-cause-suppresses the timing-level `P0005` for the same
/// processor (the graph-level fact explains the timing-level absence),
/// mirroring how `P0012` silences downstream findings in `postal-abs`.
/// A pure `finish`-time BFS, registered after `P0005` in its stage.
#[derive(Clone, Copy)]
pub struct TopologyReachabilityPass {
    /// The communication graph to check reachability over.
    pub topo: Topology,
}

impl LintPass for TopologyReachabilityPass {
    fn name(&self) -> &'static str {
        "topology-reachability"
    }

    fn stage(&self) -> PassStage {
        PassStage::Broadcast
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(*self)
    }
}

impl StreamingLintPass for TopologyReachabilityPass {
    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        if self.topo.is_complete() {
            return;
        }
        let n = cx.index.n();
        let orig = cx.opts.originator;
        let spec = self.topo.spec();
        let dist = self.topo.bfs_distances(orig);
        let cut: Vec<u32> = (0..n)
            .filter(|&p| {
                p != orig && dist.get(p as usize).copied().unwrap_or(UNREACHABLE) == UNREACHABLE
            })
            .collect();
        if cut.is_empty() {
            return;
        }
        // The graph-level finding replaces the timing-level one: drop
        // the P0005 already emitted for each partitioned processor.
        let mut suppressed: Vec<u32> = Vec::new();
        out.retain(|d| {
            let cover = d.code == LintCode::UninformedProcessor
                && d.proc.is_some_and(|p| cut.binary_search(&p).is_ok());
            if cover {
                suppressed.push(d.proc.unwrap_or(u32::MAX));
            }
            !cover
        });
        for p in cut {
            let note = if suppressed.contains(&p) {
                " (suppresses the timing-level P0005)"
            } else {
                ""
            };
            out.push(Diagnostic {
                code: LintCode::TopologyPartitionUnreachable,
                severity: Severity::Error,
                witness: None,
                proc: Some(p),
                sends: Vec::new(),
                related_time: None,
                message: format!(
                    "p{p} has no path from the originator p{orig} in the {spec} \
                     topology — no schedule can inform it{note}"
                ),
            });
        }
    }
}

/// `P0018` — topology optimality gap against the static BFS lower
/// bound `(m−1) + λ·ecc(originator)`: a message reaching a processor
/// at graph distance `d` traverses `d` edges at λ per hop. The
/// sparse-graph analogue of `P0007`'s Lemma 8 gap; never emitted for
/// the complete graph, where `P0007`'s `f_λ(n)` bound is stronger.
#[derive(Clone, Copy)]
pub struct TopologyOptimalityPass {
    /// The communication graph whose eccentricity grounds the bound.
    pub topo: Topology,
}

impl LintPass for TopologyOptimalityPass {
    fn name(&self) -> &'static str {
        "topology-optimality"
    }

    fn stage(&self) -> PassStage {
        PassStage::Quality
    }

    fn start(&self, _n: u32) -> Box<dyn StreamingLintPass + Send> {
        Box::new(*self)
    }
}

impl StreamingLintPass for TopologyOptimalityPass {
    fn finish(&mut self, cx: &StreamContext<'_>, out: &mut Vec<Diagnostic>) {
        let n = cx.index.n();
        if self.topo.is_complete() || n < 2 {
            return;
        }
        let lam = cx.index.latency();
        let spec = self.topo.spec();
        let orig = cx.opts.originator;
        let completion = cx.index.completion();
        let m = cx.opts.messages.max(1);
        let ecc = self.topo.eccentricity(orig);
        let bound = Time::from_int(m as i128 - 1) + lam.as_time().mul_int(ecc as i128);
        if completion < bound {
            out.push(Diagnostic {
                code: LintCode::TopologyOptimalityGap,
                severity: Severity::Error,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(bound),
                message: format!(
                    "completes at t = {completion}, beating the {spec} topology \
                     lower bound {bound} for {m} message(s) from p{orig} — some \
                     transfer must bypass the graph"
                ),
            });
        } else if completion > bound {
            // Like the Lemma 8 bound, λ·ecc is not always attainable:
            // a gap is suspect for one message, informational beyond.
            let severity = if m == 1 {
                Severity::Warn
            } else {
                Severity::Info
            };
            out.push(Diagnostic {
                code: LintCode::TopologyOptimalityGap,
                severity,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(bound),
                message: format!(
                    "completes at t = {completion}; the {spec} topology lower \
                     bound (m-1) + lambda*ecc(p{orig}) is {bound} (gap {} units)",
                    completion - bound
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference::lint_schedule_reference;
    use super::*;
    use crate::latency::Latency;

    fn send(src: u32, dst: u32, num: i128, den: i128) -> TimedSend {
        TimedSend {
            src,
            dst,
            send_start: Time::new(num, den),
        }
    }

    /// A messy schedule exercising every pass at once.
    fn messy() -> Schedule {
        Schedule::new(
            5,
            Latency::from_ratio(5, 2),
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
    fn manager_matches_reference_on_a_messy_schedule() {
        for opts in [
            LintOptions::default(),
            LintOptions::ports_only(),
            LintOptions::broadcast_of(3),
        ] {
            let fast = PassManager::standard().run(&messy(), &opts);
            let slow = lint_schedule_reference(&messy(), &opts);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn manager_matches_reference_off_the_half_integer_lattice() {
        // λ = 4/3 runs on sixths; the 1/5 start has no tick there, so
        // its comparisons and first receipt take the exact path.
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
            assert_eq!(
                PassManager::standard().run(&s, &opts),
                lint_schedule_reference(&s, &opts)
            );
        }
    }

    fn topo(spec: &str, n: u32) -> Topology {
        spec.parse::<crate::topology::TopologySpec>()
            .unwrap()
            .instantiate(n)
            .unwrap()
    }

    #[test]
    fn topology_passes_are_vacuous_on_complete() {
        let complete = Topology::complete(5);
        for opts in [
            LintOptions::default(),
            LintOptions::ports_only(),
            LintOptions::broadcast_of(3),
        ] {
            assert_eq!(
                PassManager::standard_with_topology(&complete).run(&messy(), &opts),
                PassManager::standard().run(&messy(), &opts),
            );
        }
    }

    #[test]
    fn p0017_fires_on_a_ring_chord() {
        // 0 -> 2 is a chord of the 4-ring; 0 -> 1 is an edge.
        let s = Schedule::new(
            4,
            Latency::from_int(2),
            vec![send(0, 1, 0, 1), send(0, 2, 1, 1)],
        );
        let diags = PassManager::standard_with_topology(&topo("ring", 4))
            .run(&s, &LintOptions::ports_only());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::NonEdgeSend);
        assert_eq!(diags[0].proc, Some(0));
        assert_eq!(
            diags[0].message,
            "p0 sends to p2 at t = 1, but p0-p2 is not an edge of the ring topology"
        );
    }

    #[test]
    fn p0018_warns_on_a_gap_and_errors_below_the_bound() {
        // Ring of 3 = triangle, ecc = 1, bound = λ = 1; the two-hop line
        // completes at 2 → warn with gap 1. (f_1(3) = 2, so P0007 stays
        // silent — the graph bound is the only finding.)
        let lam = Latency::from_int(1);
        let s = Schedule::new(3, lam, vec![send(0, 1, 0, 1), send(1, 2, 1, 1)]);
        let diags =
            PassManager::standard_with_topology(&topo("ring", 3)).run(&s, &LintOptions::default());
        assert_eq!(
            diags.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![LintCode::TopologyOptimalityGap]
        );
        assert_eq!(diags[0].severity, Severity::Warn);
        assert_eq!(diags[0].related_time, Some(Time::from_int(1)));

        // Beating λ·ecc requires bypassing the graph; drive the pass
        // alone so the P0017 error does not suppress the quality stage.
        let fast = Schedule::new(
            4,
            Latency::from_ratio(5, 2),
            vec![send(0, 1, 0, 1), send(0, 3, 1, 1), send(0, 2, 2, 1)],
        );
        let only = PassManager::empty().with_pass(Box::new(TopologyOptimalityPass {
            topo: topo("ring", 4),
        }));
        let diags = only.run(&fast, &LintOptions::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::TopologyOptimalityGap);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn p0019_suppresses_p0005_for_partitioned_processors() {
        // A 2-ring oracle against a 3-processor schedule: p2 is outside
        // the graph entirely, the degenerate image of a partition. The
        // timing-level P0005 must fold into the graph-level P0019.
        let s = Schedule::new(3, Latency::from_int(2), vec![send(0, 1, 0, 1)]);
        let diags =
            PassManager::standard_with_topology(&topo("ring", 2)).run(&s, &LintOptions::default());
        assert_eq!(
            diags.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![LintCode::TopologyPartitionUnreachable]
        );
        assert_eq!(diags[0].proc, Some(2));
        assert!(
            diags[0]
                .message
                .ends_with("(suppresses the timing-level P0005)"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn custom_manager_runs_a_subset() {
        let only_ports = PassManager::empty()
            .with_pass(Box::new(MalformedSendPass))
            .with_pass(Box::new(OutputPortPass));
        let diags = only_ports.run(&messy(), &LintOptions::ports_only());
        assert!(diags.iter().all(|d| matches!(
            d.code,
            LintCode::MalformedSend | LintCode::OutputPortOverlap
        )));
        assert_eq!(only_ports.passes().len(), 2);
        assert_eq!(only_ports.passes()[1].name(), "output-port");
        assert_eq!(only_ports.passes()[1].stage(), PassStage::Shape);
    }
}
