//! The single-sweep pass manager driving every `P0001`–`P0007` check.
//!
//! A [`PassManager`] builds one [`ScheduleIndex`] and runs each
//! registered [`LintPass`] over it, in three stages that reproduce the
//! engine's staged semantics exactly:
//!
//! 1. **Shape** (`P0004`, `P0001`, `P0002`) — always run; for
//!    non-broadcast lints ([`LintOptions::ports_only`]) the sweep stops
//!    here and returns the findings in emission order (the engine's
//!    historical contract).
//! 2. **Broadcast** (`P0003`, `P0005`) — run when
//!    [`LintOptions::broadcast`] is set. Any error so far suppresses
//!    the quality stage: a broken schedule's completion time is
//!    meaningless.
//! 3. **Quality** (`P0006`, `P0007`) — warnings and notes about
//!    schedules that are valid but wasteful.
//!
//! Passes emit into one shared diagnostic vector; the manager sorts it
//! once at the end (broadcast mode only, matching the seed engine).
//! Output is byte-identical to
//! [`reference::lint_schedule_reference`](super::reference::lint_schedule_reference),
//! which the differential suite asserts over the full acceptance grid.

use super::index::{ScheduleIndex, NEVER};
use super::{diag_order, Diagnostic, LintCode, LintOptions, Severity};
use crate::fib::GenFib;
use crate::runtimes;
use crate::schedule::Schedule;
use crate::time::Time;
use crate::topology::{Topology, UNREACHABLE};
use std::ops::Add;

/// When in the sweep a pass runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassStage {
    /// Port and shape rules; always run.
    Shape,
    /// Broadcast validity rules; run when `opts.broadcast`.
    Broadcast,
    /// Quality lints; run only when no error was found.
    Quality,
}

/// Everything a pass may look at: the one-time index, the raw schedule
/// (for `completion`), and the caller's options.
pub struct PassContext<'a> {
    /// The shared CSR index over the schedule's sends.
    pub index: &'a ScheduleIndex,
    /// The schedule under lint.
    pub schedule: &'a Schedule,
    /// What to lint the schedule as.
    pub opts: &'a LintOptions,
}

/// One check over the shared [`ScheduleIndex`].
///
/// A pass must emit its diagnostics in the engine's canonical
/// *emission* order (by processor, then bucket order) — the manager
/// relies on stable sorting to keep equal-key diagnostics in emission
/// order, which is part of the byte-identical output contract.
pub trait LintPass {
    /// Short stable name, e.g. `"output-port"`.
    fn name(&self) -> &'static str;
    /// When in the sweep this pass runs.
    fn stage(&self) -> PassStage;
    /// Appends this pass's findings to `out`.
    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>);
}

/// Drives a configured sequence of [`LintPass`]es in one sweep over a
/// schedule.
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
        PassManager {
            passes: vec![
                Box::new(MalformedSendPass),
                Box::new(OutputPortPass),
                Box::new(InputWindowPass),
                Box::new(NonEdgeSendPass { topo }),
                Box::new(CausalityPass),
                Box::new(CoveragePass),
                Box::new(TopologyReachabilityPass { topo }),
                Box::new(IdlePortPass),
                Box::new(OptimalityPass),
                Box::new(TopologyOptimalityPass { topo }),
            ],
        }
    }

    /// An empty manager, for assembling a custom pass list.
    pub fn empty() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// Appends a pass (builder style).
    #[must_use]
    pub fn with_pass(mut self, pass: Box<dyn LintPass>) -> PassManager {
        self.passes.push(pass);
        self
    }

    /// The registered passes, in sweep order.
    pub fn passes(&self) -> &[Box<dyn LintPass>] {
        &self.passes
    }

    /// Builds the [`ScheduleIndex`] and runs the sweep.
    pub fn run(&self, schedule: &Schedule, opts: &LintOptions) -> Vec<Diagnostic> {
        let index = ScheduleIndex::build(schedule);
        self.run_with_index(&index, schedule, opts)
    }

    /// Runs the sweep over a prebuilt index (lets callers amortize the
    /// index across several option sets).
    pub fn run_with_index(
        &self,
        index: &ScheduleIndex,
        schedule: &Schedule,
        opts: &LintOptions,
    ) -> Vec<Diagnostic> {
        let cx = PassContext {
            index,
            schedule,
            opts,
        };
        let mut diags = Vec::new();
        self.run_stage(PassStage::Shape, &cx, &mut diags);
        if !opts.broadcast {
            // Historical contract: port-only lints return in emission
            // order, unsorted.
            return diags;
        }
        self.run_stage(PassStage::Broadcast, &cx, &mut diags);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            diags.sort_by_key(diag_order);
            return diags;
        }
        self.run_stage(PassStage::Quality, &cx, &mut diags);
        diags.sort_by_key(diag_order);
        diags
    }

    fn run_stage(&self, stage: PassStage, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        for pass in &self.passes {
            if pass.stage() == stage {
                pass.run(cx, out);
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let n = cx.index.n();
        let lam = cx.index.latency();
        for s in cx.index.malformed() {
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let idx = cx.index;
        let arena = idx.arena();
        for src in 0..idx.n() {
            for pair in idx.by_src(src).windows(2) {
                let (i, j) = (pair[0] as usize, pair[1] as usize);
                if idx.lt_one_apart(i, j) {
                    let (a, b) = (arena[i], arena[j]);
                    out.push(Diagnostic {
                        code: LintCode::OutputPortOverlap,
                        severity: Severity::Error,
                        witness: None,
                        proc: Some(src),
                        sends: vec![a, b],
                        related_time: None,
                        message: format!(
                            "p{src} starts sends at t = {} and t = {} ({} < 1 unit apart)",
                            a.send_start,
                            b.send_start,
                            b.send_start - a.send_start,
                        ),
                    });
                }
            }
        }
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let idx = cx.index;
        let arena = idx.arena();
        let lam = idx.latency();
        for dst in 0..idx.n() {
            for pair in idx.by_dst(dst).windows(2) {
                let (i, j) = (pair[0] as usize, pair[1] as usize);
                // Receive finishes are send starts shifted by the
                // constant λ, so the window condition is the same
                // less-than-one-unit-apart comparison.
                if idx.lt_one_apart(i, j) {
                    let (a, b) = (arena[i], arena[j]);
                    let (f0, f1) = (a.recv_finish(lam), b.recv_finish(lam));
                    out.push(Diagnostic {
                        code: LintCode::InputWindowOverlap,
                        severity: Severity::Error,
                        witness: None,
                        proc: Some(dst),
                        sends: vec![a, b],
                        related_time: None,
                        message: format!(
                            "p{dst}'s receive windows [{}, {}] and [{}, {}] overlap",
                            f0 - Time::ONE,
                            f0,
                            f1 - Time::ONE,
                            f1,
                        ),
                    });
                }
            }
        }
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let idx = cx.index;
        for (i, s) in idx.arena().iter().enumerate() {
            if s.src == cx.opts.originator || idx.sender_informed(i) {
                continue;
            }
            let knows_at = idx.first_receipt(s.src);
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
}

/// `P0005` — coverage: every processor but the originator must receive.
pub struct CoveragePass;

impl LintPass for CoveragePass {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn stage(&self) -> PassStage {
        PassStage::Broadcast
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
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
///
/// The gap scan runs on the index's `i64` tick lane when it is active —
/// every λ with on-lattice send starts — and on exact [`Time`] off it;
/// one generic sweep serves both.
pub struct IdlePortPass;

impl LintPass for IdlePortPass {
    fn name(&self) -> &'static str {
        "idle-port"
    }

    fn stage(&self) -> PassStage {
        PassStage::Quality
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let idx = cx.index;
        match idx.tick_lane() {
            Some(lane) => {
                let scale = lane.scale;
                idle_port_scan(
                    cx,
                    out,
                    [0, scale.den(), lane.lambda],
                    |i| lane.start[i],
                    |p| Some(lane.first_receipt[p as usize]).filter(|&h| h != NEVER),
                    |h| scale.to_time(h),
                );
            }
            None => {
                let arena = idx.arena();
                idle_port_scan(
                    cx,
                    out,
                    [Time::ZERO, Time::ONE, idx.latency().as_time()],
                    |i| arena[i].send_start,
                    |p| idx.first_receipt(p),
                    |t| t,
                );
            }
        }
    }
}

/// The `P0006` sweep over one time representation `T`: `[zero, one, λ]`
/// in `T`, each arena send's start, each processor's first receipt, and
/// the exact image of a `T` for reporting.
fn idle_port_scan<T: Copy + Ord + Add<Output = T>>(
    cx: &PassContext<'_>,
    out: &mut Vec<Diagnostic>,
    [zero, one, lam]: [T; 3],
    start_of: impl Fn(usize) -> T,
    receipt_of: impl Fn(u32) -> Option<T>,
    time: impl Fn(T) -> Time,
) {
    let idx = cx.index;
    let n = idx.n();

    // The coverage horizon and the two latest first-receipts (distinct
    // processors): enough to answer "does any processor other than
    // `src` first receive after time x?" in O(1).
    let mut completion_of_coverage = zero;
    let mut latest: Option<(T, u32)> = None;
    let mut second: Option<(T, u32)> = None;
    for p in 0..n {
        let Some(t) = receipt_of(p) else {
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

    let mut gap_starts: Vec<T> = Vec::new();
    'procs: for src in 0..n {
        let informed_at = if src == cx.opts.originator {
            Some(zero)
        } else {
            receipt_of(src)
        };
        let Some(informed_at) = informed_at else {
            continue;
        };
        // Idle gaps: [informed_at, first send), between consecutive
        // sends, and after the last send (open-ended).
        gap_starts.clear();
        let mut cursor = informed_at;
        for &i in idx.by_src(src) {
            let start = start_of(i as usize);
            if start > cursor {
                gap_starts.push(cursor);
            }
            cursor = cursor.max(start + one);
        }
        if cursor < completion_of_coverage {
            gap_starts.push(cursor);
        }
        for &g in &gap_starts {
            let hypothetical = g + lam;
            // An uninformed-at-g processor whose eventual receipt is
            // strictly later than the hypothetical delivery.
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
                continue 'procs;
            }
        }
    }
}

/// `P0007` — optimality gap against `f_λ(n)` (m = 1) or the Lemma 8
/// lower bound (m > 1).
pub struct OptimalityPass;

impl LintPass for OptimalityPass {
    fn name(&self) -> &'static str {
        "optimality"
    }

    fn stage(&self) -> PassStage {
        PassStage::Quality
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let n = cx.index.n();
        let lam = cx.index.latency();
        // Only sensible when there is something to broadcast to.
        if n < 2 {
            return;
        }
        let completion = cx.schedule.completion();
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
/// not adjacent in the communication graph. Sweeps the well-formed
/// arena in canonical order; malformed sends (`P0004`) have no defined
/// endpoints on the graph and are not re-reported here.
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        if self.topo.is_complete() {
            return;
        }
        let spec = self.topo.spec();
        for s in cx.index.arena() {
            if !self.topo.is_edge(s.src, s.dst) {
                out.push(Diagnostic {
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
        }
    }
}

/// `P0019` — topology partition: a processor with no path from the
/// originator in the graph can never be informed, by any schedule.
/// Root-cause-suppresses the timing-level `P0005` for the same
/// processor (the graph-level fact explains the timing-level absence),
/// mirroring how `P0012` silences downstream findings in `postal-abs`.
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
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

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let n = cx.index.n();
        if self.topo.is_complete() || n < 2 {
            return;
        }
        let lam = cx.index.latency();
        let spec = self.topo.spec();
        let orig = cx.opts.originator;
        let completion = cx.schedule.completion();
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
    use crate::schedule::TimedSend;

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
        // λ = 4/3 disables the fast lane; the exact path must agree.
        let s = Schedule::new(
            3,
            Latency::from_ratio(4, 3),
            vec![send(0, 1, 0, 1), send(0, 2, 1, 3), send(1, 2, 2, 1)],
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
