//! # postal-mc
//!
//! A model checker for postal-model programs: runs a
//! [`postal_sim::Program`] under a controlled scheduler and explores
//! every Mazurkiewicz-distinct interleaving via dynamic partial-order
//! reduction (sleep sets + persistent-set pruning over the same
//! happens-before forcedness criterion as `postal_verify::race`), with
//! a bounded-preemption fallback for large systems.
//!
//! `postal-verify` lints *one observed* schedule; the Bar-Noy–Kipnis
//! claims quantify over **every** admissible execution — BCAST
//! completes in exactly `f_λ(n)` however concurrent receives land
//! within their `[t+λ−1, t+λ]` windows. The checker closes that gap by
//! asserting four whole-state-space properties, each carrying a stable
//! lint code from [`postal_model::lint`]:
//!
//! | property | code |
//! |---|---|
//! | no execution deadlocks | `P0008` |
//! | every flight is received | `P0009` |
//! | completion time is interleaving-independent and equals the reference simulator's | `P0010` |
//! | every receive lands exactly λ after its send | `P0011` |
//!
//! Every explored execution is additionally round-tripped through the
//! `postal-obs` JSONL pipeline and re-linted (`P0001`–`P0007`), so a
//! model-checking run certifies the schedule rules too.
//!
//! ## Quick example
//!
//! ```
//! use postal_algos::registry::Algo;
//! use postal_mc::{check_algo, McConfig};
//! use postal_model::Latency;
//!
//! let report = check_algo(
//!     Algo::Bcast, 8, 1, Latency::from_ratio(5, 2), None, &McConfig::default(),
//! );
//! assert!(report.is_clean());
//! // Conflict-free: one execution covers the whole state space.
//! assert_eq!(report.stats.executions, 1);
//! assert!(report.stats.naive_interleavings > 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod explore;
pub mod mutation;
pub mod workload;

pub use explore::{ExploreStats, McConfig};
pub use mutation::Mutation;
pub use workload::check_algo;

use explore::explore;
use postal_model::lint::{Diagnostic, LintCode, LintOptions, Severity};
use postal_model::schedule::TimedSend;
use postal_model::{Latency, Time};
use postal_obs::{to_jsonl, ObsEvent, ObsLog, RunMeta};
use postal_sim::{Program, Simulation, Uniform};
use postal_verify::{detect_races, lint_jsonl, Flight};
use std::collections::{BTreeMap, BTreeSet};

/// The result of model-checking one workload.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Workload tag (algorithm name).
    pub name: String,
    /// Processor count.
    pub n: u32,
    /// Message count `m`.
    pub m: u64,
    /// Latency λ.
    pub lambda: Latency,
    /// Exploration statistics (executions, pruning, reduction ratio).
    pub stats: ExploreStats,
    /// Distinct completion times observed across complete executions.
    pub completions: Vec<Time>,
    /// The single-run discrete-event simulator's completion.
    pub reference_completion: Time,
    /// Delivery races `postal_verify::race` finds in the canonical
    /// execution (informational: races without a `P0010` mean the
    /// program's outcome is order-insensitive).
    pub races: u64,
    /// Error-severity findings: synthesized `P0008`–`P0011` plus any
    /// schedule-rule errors from re-linting explored executions.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// True when no property was violated.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Multi-line human-readable exploration summary (without the
    /// diagnostics, which callers render separately).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "model check: {} n = {} m = {} lambda = {}\n",
            self.name, self.n, self.m, self.lambda
        ));
        out.push_str(&format!(
            "  executions explored   {}{}{}\n",
            self.stats.executions,
            if self.stats.truncated {
                " (truncated)"
            } else {
                ""
            },
            if self.stats.bounded {
                " (preemption-bounded)"
            } else {
                ""
            },
        ));
        out.push_str(&format!(
            "  naive interleavings   {:.0}\n",
            self.stats.naive_interleavings
        ));
        out.push_str(&format!(
            "  reduction ratio       {:.3e}\n",
            self.stats.reduction_ratio()
        ));
        out.push_str(&format!(
            "  branch points         {}   sleep-set pruned {}   deadlocks {}\n",
            self.stats.branch_points, self.stats.pruned, self.stats.deadlocks
        ));
        let comps: Vec<String> = self.completions.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!(
            "  completion            {} (reference {})\n",
            if comps.is_empty() {
                "-".to_string()
            } else {
                comps.join(", ")
            },
            self.reference_completion
        ));
        out.push_str(&format!("  canonical races       {}\n", self.races));
        out
    }
}

/// Model-checks an arbitrary program workload.
///
/// `factory` builds a fresh program vector per explored execution (the
/// explorer replays prefixes from scratch). The reference completion is
/// taken from one `postal-sim` strict run of the same factory; `opts`
/// selects which schedule rules the per-execution re-lint applies
/// (broadcast workloads use [`LintOptions::broadcast_of`], arbitrary
/// traffic [`LintOptions::ports_only`]).
///
/// # Panics
/// Panics if the reference simulation itself fails to run (a broken
/// workload, not a model-checking finding).
#[allow(clippy::too_many_arguments)]
pub fn check_programs<P, F>(
    name: &str,
    n: u32,
    m: u64,
    lam: Latency,
    factory: F,
    mutation: Option<Mutation>,
    opts: &LintOptions,
    cfg: &McConfig,
) -> CheckReport
where
    P: Clone + 'static,
    F: Fn() -> Vec<Box<dyn Program<P>>>,
{
    let uniform = Uniform(lam);
    let reference = Simulation::new(n as usize, &uniform)
        .run(factory())
        .expect("reference simulation failed");
    let reference_completion = reference.completion;

    let mut completions: BTreeSet<Time> = BTreeSet::new();
    let mut lost: Vec<(u64, u32, u32, Time)> = Vec::new();
    let mut window: Vec<(u64, u32, u32, Time, Time)> = Vec::new();
    let mut deadlock_evidence: Option<(u32, Time)> = None;
    let mut relint: Vec<Diagnostic> = Vec::new();
    let mut races = 0u64;
    let mut canonical_done = false;

    let stats = explore(n, lam, &factory, mutation, cfg, |ex| {
        if !ex.stuck.is_empty() {
            if deadlock_evidence.is_none() {
                deadlock_evidence = Some(ex.stuck[0]);
            }
            return; // partial executions are not re-linted
        }
        let log = ObsLog::new(RunMeta::new("mc", n).latency(lam).messages(m), ex.log);
        completions.insert(log.completion_time());

        // Match sends to receives by sequence number.
        let mut sends: BTreeMap<u64, (u32, u32, Time)> = BTreeMap::new();
        let mut flights: Vec<Flight> = Vec::new();
        for e in log.events() {
            if let ObsEvent::Send {
                seq,
                src,
                dst,
                start,
                ..
            } = *e
            {
                sends.insert(seq, (src, dst, start));
            }
        }
        let mut received: BTreeSet<u64> = BTreeSet::new();
        for e in log.events() {
            if let ObsEvent::Recv {
                seq,
                src,
                dst,
                finish,
                ..
            } = *e
            {
                received.insert(seq);
                let Some(&(_, _, send_start)) = sends.get(&seq) else {
                    continue;
                };
                if finish != send_start + lam.as_time() && !window.iter().any(|w| w.0 == seq) {
                    window.push((seq, src, dst, send_start, finish));
                }
                flights.push(Flight {
                    src,
                    dst,
                    send_at: send_start.to_f64(),
                    recv_at: finish.to_f64(),
                    label: format!("#{seq}"),
                });
            }
        }
        for (&seq, &(src, dst, start)) in &sends {
            if !received.contains(&seq) && !lost.iter().any(|l| l.0 == seq) {
                lost.push((seq, src, dst, start));
            }
        }

        // Round-trip through the JSONL pipeline and re-lint.
        if let Ok(diags) = lint_jsonl(&to_jsonl(&log), opts) {
            for d in diags {
                if d.severity >= Severity::Error && !relint.contains(&d) {
                    relint.push(d);
                }
            }
        }
        if !canonical_done {
            canonical_done = true;
            races = detect_races(n, &flights).len() as u64;
        }
    });

    let lam_t = lam.as_time();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    if let Some((proc, at)) = deadlock_evidence {
        diagnostics.push(Diagnostic {
            code: LintCode::Deadlock,
            severity: Severity::Error,
            witness: None,
            proc: Some(proc),
            sends: vec![],
            related_time: Some(at),
            message: format!(
                "{} of {} explored executions deadlock: p{proc} still has a \
                 pending event at t = {at} that can never fire",
                stats.deadlocks, stats.executions
            ),
        });
    }
    if let Some(&(seq, src, dst, start)) = lost.first() {
        diagnostics.push(Diagnostic {
            code: LintCode::LostFlight,
            severity: Severity::Error,
            witness: None,
            proc: Some(dst),
            sends: vec![TimedSend {
                src,
                dst,
                send_start: start,
            }],
            related_time: Some(start + lam_t),
            message: format!(
                "message #{seq} from p{src} to p{dst} (sent at t = {start}) is \
                 never received ({} lost flight{} in total)",
                lost.len(),
                if lost.len() == 1 { "" } else { "s" }
            ),
        });
    }
    if completions.len() > 1 {
        let list: Vec<String> = completions.iter().map(|c| c.to_string()).collect();
        diagnostics.push(Diagnostic {
            code: LintCode::NondeterministicCompletion,
            severity: Severity::Error,
            witness: None,
            proc: None,
            sends: vec![],
            related_time: completions.iter().next_back().copied(),
            message: format!(
                "completion time depends on the interleaving: {} distinct values \
                 observed ({}) across {} executions",
                completions.len(),
                list.join(", "),
                stats.executions
            ),
        });
    } else if let Some(&c) = completions.iter().next() {
        // A uniform-but-wrong completion with an innocent event stream
        // still breaks interleaving-independence against the reference
        // run; when flights were lost or windows breached, those codes
        // already explain the shift.
        if c != reference_completion && lost.is_empty() && window.is_empty() {
            diagnostics.push(Diagnostic {
                code: LintCode::NondeterministicCompletion,
                severity: Severity::Error,
                witness: None,
                proc: None,
                sends: vec![],
                related_time: Some(c),
                message: format!(
                    "every explored execution completes at t = {c}, but the \
                     reference simulator completes at t = {reference_completion}"
                ),
            });
        }
    }
    if let Some(&(seq, src, dst, start, finish)) = window.first() {
        diagnostics.push(Diagnostic {
            code: LintCode::LatencyWindowViolation,
            severity: Severity::Error,
            witness: None,
            proc: Some(dst),
            sends: vec![TimedSend {
                src,
                dst,
                send_start: start,
            }],
            related_time: Some(finish),
            message: format!(
                "message #{seq} from p{src} to p{dst} sent at t = {start} \
                 completes its receive at t = {finish}, outside the postal \
                 window [{}, {}]",
                start + lam_t - Time::ONE,
                start + lam_t
            ),
        });
    }
    diagnostics.extend(relint);

    CheckReport {
        name: name.to_string(),
        n,
        m,
        lambda: lam,
        stats,
        completions: completions.into_iter().collect(),
        reference_completion,
        races,
        diagnostics,
    }
}
