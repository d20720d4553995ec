//! Broadcasting under time-varying latency (Section 5 extension).
//!
//! The paper assumes a single system-wide λ and asks, as further research,
//! for algorithms that "adapt to changing λ". This module provides two
//! strategies over a piecewise-constant latency profile:
//!
//! * [`run_static_under_profile`] — plain BCAST whose tree was computed
//!   for one *assumed* λ, executed while the actual latency follows the
//!   profile. When the assumption is wrong the schedule loses either time
//!   (assumed λ too large ⇒ too-shallow tree) or model cleanliness
//!   (assumed λ too small ⇒ receive-port overlaps), so these runs use the
//!   queued port mode.
//! * [`run_adaptive`] — a greedy adaptive BCAST: a processor responsible
//!   for a range re-evaluates the *current* λ before every single send
//!   and picks that instant's optimal Fibonacci split. Decisions are made
//!   one send at a time via timer wake-ups instead of being frozen at
//!   range-acquisition time.
//!
//! The adaptive strategy uses the profile as an oracle for the current λ;
//! a deployed system would estimate it from acknowledgements. The oracle
//! isolates the scheduling question from the estimation question.

use crate::bcast::{bcast_programs, BcastPayload};
use postal_model::{GenFib, Latency, Time};
use postal_sim::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Runs a λ0-optimal BCAST tree while the real latency follows `profile`.
/// Queued port mode: wrong assumptions may cause receive contention,
/// which delays instead of faulting.
pub fn run_static_under_profile(
    n: usize,
    assumed: Latency,
    profile: &TimeVarying,
) -> RunReport<BcastPayload> {
    Simulation::new(n, profile)
        .port_mode(PortMode::Queued)
        .run(bcast_programs(n, assumed))
        .expect("static broadcast cannot diverge")
}

/// The adaptive broadcast payload: the delegated range size.
pub type AdaptivePayload = BcastPayload;

/// Per-processor adaptive BCAST program.
pub struct AdaptiveProgram {
    profile: TimeVarying,
    /// One Fibonacci evaluator per λ of the profile (profiles have few
    /// steps), shared by the whole program set.
    fibs: Arc<HashMap<Latency, GenFib>>,
    /// Remaining range this processor is responsible for (itself
    /// included); sends are decided one at a time.
    pending: u64,
    /// `Some(n)` on the originator.
    root_range: Option<u64>,
}

impl AdaptiveProgram {
    /// The evaluators a set of `n` processors under `profile` shares:
    /// one per step latency, each covering every range up to `n`.
    pub fn evaluators(n: usize, profile: &TimeVarying) -> Arc<HashMap<Latency, GenFib>> {
        let fibs = profile
            .steps()
            .iter()
            .map(|&(_, lam)| (lam, GenFib::covering(lam, n as u128)));
        Arc::new(fibs.collect())
    }

    /// Creates the program for one processor from the set's shared
    /// [`AdaptiveProgram::evaluators`]; `root_range` is `Some(n)` on
    /// `p_0`.
    pub fn new(
        profile: TimeVarying,
        fibs: Arc<HashMap<Latency, GenFib>>,
        root_range: Option<u64>,
    ) -> AdaptiveProgram {
        AdaptiveProgram {
            profile,
            fibs,
            pending: 1,
            root_range,
        }
    }

    /// Performs the one send due now (if any) and schedules the next
    /// decision one unit later.
    fn step(&mut self, ctx: &mut dyn Context<BcastPayload>) {
        if self.pending <= 1 {
            return;
        }
        let lam = self.profile.at(ctx.now());
        let j = self.fibs[&lam].bcast_split(self.pending as u128) as u64;
        // Standard orientation: keep [0, j), delegate [j, pending).
        let me = ctx.me().index() as u64;
        ctx.send(
            ProcId::from((me + j) as usize),
            BcastPayload {
                range_size: self.pending - j,
            },
        );
        self.pending = j;
        if self.pending > 1 {
            ctx.wake_at(ctx.now() + Time::ONE);
        }
    }
}

impl Program<BcastPayload> for AdaptiveProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<BcastPayload>) {
        if let Some(n) = self.root_range {
            self.pending = n;
            self.step(ctx);
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<BcastPayload>,
        _from: ProcId,
        payload: BcastPayload,
    ) {
        self.pending = payload.range_size;
        self.step(ctx);
    }

    fn on_wake(&mut self, ctx: &mut dyn Context<BcastPayload>) {
        self.step(ctx);
    }
}

/// Builds the adaptive programs for MPS(n, λ(t)).
pub fn adaptive_programs(n: usize, profile: &TimeVarying) -> Vec<Box<dyn Program<BcastPayload>>> {
    let fibs = AdaptiveProgram::evaluators(n, profile);
    programs_from(n, |id| {
        Box::new(AdaptiveProgram::new(
            profile.clone(),
            fibs.clone(),
            (id == ProcId::ROOT).then_some(n as u64),
        ))
    })
}

/// Runs the adaptive broadcast under `profile` (queued ports: adaptivity
/// is greedy, not clairvoyant, so contention can still occur when λ
/// changes mid-flight).
pub fn run_adaptive(n: usize, profile: &TimeVarying) -> RunReport<BcastPayload> {
    Simulation::new(n, profile)
        .port_mode(PortMode::Queued)
        .run(adaptive_programs(n, profile))
        .expect("adaptive broadcast cannot diverge")
}

/// Checks that a broadcast run delivered the message to all `n`
/// processors exactly once.
pub fn delivered_everywhere(report: &RunReport<BcastPayload>, n: usize) -> bool {
    (1..n).all(|i| report.trace.received_by(ProcId::from(i)).count() == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::runtimes;

    fn constant(lam: Latency) -> TimeVarying {
        TimeVarying::new(vec![(Time::ZERO, lam)])
    }

    #[test]
    fn adaptive_equals_bcast_on_constant_profile() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [1usize, 2, 5, 14, 60] {
                let r = run_adaptive(n, &constant(lam));
                assert!(delivered_everywhere(&r, n));
                assert_eq!(
                    r.completion,
                    runtimes::bcast_time(n as u128, lam),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn static_with_correct_assumption_is_optimal() {
        let lam = Latency::from_ratio(5, 2);
        let r = run_static_under_profile(14, lam, &constant(lam));
        assert!(delivered_everywhere(&r, 14));
        assert_eq!(r.completion, runtimes::bcast_time(14, lam));
    }

    #[test]
    fn everyone_delivered_under_changing_profile() {
        let profile = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(4)),
            (Time::from_int(3), Latency::TELEPHONE),
            (Time::from_int(8), Latency::from_ratio(5, 2)),
        ]);
        for n in [2usize, 9, 33, 100] {
            let r = run_adaptive(n, &profile);
            assert!(delivered_everywhere(&r, n), "n={n}");
            let s = run_static_under_profile(n, Latency::from_int(4), &profile);
            assert!(delivered_everywhere(&s, n), "n={n}");
        }
    }

    #[test]
    fn adaptive_beats_stale_assumption_when_latency_drops() {
        // λ starts at 8 but drops to 1 at t = 2: a static λ=8 tree keeps
        // its conservatively shallow shape (root over-delegates), while
        // the adaptive tree switches to aggressive binomial splitting.
        let profile = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(8)),
            (Time::from_int(2), Latency::TELEPHONE),
        ]);
        let n = 200;
        let adaptive = run_adaptive(n, &profile).completion;
        let stale = run_static_under_profile(n, Latency::from_int(8), &profile).completion;
        assert!(
            adaptive < stale,
            "adaptive {adaptive} should beat stale {stale}"
        );
    }

    #[test]
    fn adaptive_avoids_overload_when_latency_rises() {
        // λ rises mid-broadcast: the static λ=1 tree's dense schedule
        // now has deep relay chains; adaptive re-plans with the large λ.
        let profile = TimeVarying::new(vec![
            (Time::ZERO, Latency::TELEPHONE),
            (Time::from_int(2), Latency::from_int(6)),
        ]);
        let n = 300;
        let adaptive = run_adaptive(n, &profile).completion;
        let stale = run_static_under_profile(n, Latency::TELEPHONE, &profile).completion;
        assert!(
            adaptive <= stale,
            "adaptive {adaptive} should not lose to stale {stale}"
        );
    }

    #[test]
    fn singleton_is_instant() {
        let r = run_adaptive(1, &constant(Latency::from_int(3)));
        assert_eq!(r.completion, Time::ZERO);
    }
}
