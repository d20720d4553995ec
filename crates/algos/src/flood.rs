//! FLOOD — the greedy schedule behind Lemma 5, made executable.
//!
//! The optimality proof of Algorithm BCAST (Lemma 5) defines `N(t)` as
//! the maximum number of processors reachable in `t` units and argues
//! `N(t) = N(t−1) + N(t−λ)`, i.e. `N = F_λ`: the best any algorithm can
//! do is have *every* informed processor send to a *new* processor every
//! unit of time. This module implements exactly that greedy flood as a
//! schedule generator, giving a machine-checkable version of the
//! argument:
//!
//! * the number of informed processors at every lattice instant `t`
//!   equals `min(F_λ(t), n)` ([`FloodOutcome::informed_curve_matches`]);
//! * the completion time is `f_λ(n)`, independently re-deriving
//!   Theorem 6's optimality without the Fibonacci tree construction;
//! * the generated schedule passes the postal-model validator.
//!
//! FLOOD and BCAST reach the same completion time with different
//! schedules: BCAST is range-recursive (and therefore needs no global
//! coordination), while FLOOD assigns targets from a shared frontier —
//! fine for a precomputed schedule, impossible for an online distributed
//! algorithm. The pair demonstrates *why* the paper wants the tree: it
//! decentralizes the flood without losing a single time unit.

use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{GenFib, Latency, Time};
use std::collections::VecDeque;

/// The result of generating a flood schedule.
#[derive(Debug)]
pub struct FloodOutcome {
    /// The generated schedule.
    pub schedule: Schedule,
    /// `informed[k]` = number of processors informed at tick `k`
    /// (index 0 = time 0), up to and including the completion tick.
    pub informed: Vec<u64>,
    /// The latency used.
    pub latency: Latency,
}

impl FloodOutcome {
    /// Checks the Lemma 5 identity: informed(k ticks) = min(F_λ, n).
    pub fn informed_curve_matches(&self, n: u64) -> bool {
        let horizon = self.informed.len().saturating_sub(1);
        let fib = GenFib::through_ticks(self.latency, horizon);
        self.informed
            .iter()
            .enumerate()
            .all(|(k, &count)| count as u128 == fib.value_at_ticks(k as i128).min(n as u128))
    }

    /// Completion time of the flood.
    pub fn completion(&self) -> Time {
        self.schedule.completion()
    }
}

/// Generates the greedy flood schedule for MPS(n, λ): every informed
/// processor sends to the next uninformed processor every unit of time
/// until none remain.
///
/// ```
/// use postal_algos::flood_schedule;
/// use postal_model::{Latency, Time};
///
/// let flood = flood_schedule(14, Latency::from_ratio(5, 2));
/// assert_eq!(flood.completion(), Time::new(15, 2)); // = f_λ(14)
/// assert!(flood.informed_curve_matches(14));        // Lemma 5
/// ```
///
/// # Panics
/// Panics if `n == 0`.
pub fn flood_schedule(n: u64, latency: Latency) -> FloodOutcome {
    assert!(n >= 1, "flooding needs at least one processor");
    let q = latency.ticks_per_unit();
    let p = latency.lambda_ticks();

    // Frontier of uninformed processors, taken in index order.
    let mut uninformed: VecDeque<u32> = (1..n as u32).collect();
    // Informed processors with the tick at which their port frees.
    // Processor 0 is informed at tick 0 with a free port.
    let mut informed: Vec<(u32, i128)> = vec![(0, 0)];
    // (inform_tick, proc): sorted by construction (arrivals are issued
    // in nondecreasing send-tick order and latency is constant).
    let mut pending: VecDeque<(i128, u32)> = VecDeque::new();
    let mut sends: Vec<TimedSend> = Vec::with_capacity(n as usize - 1);
    let mut informed_curve: Vec<u64> = Vec::new();

    let mut tick: i128 = 0;
    while !uninformed.is_empty() || !pending.is_empty() {
        // Arrivals first: processors informed exactly at this tick.
        while let Some(&(at, proc)) = pending.front() {
            if at > tick {
                break;
            }
            pending.pop_front();
            informed.push((proc, at));
        }
        // Every informed processor with a free port sends to a fresh
        // target (in the order they became informed, for determinism).
        for (proc, out_free) in informed.iter_mut() {
            if *out_free > tick {
                continue;
            }
            let Some(target) = uninformed.pop_front() else {
                break;
            };
            sends.push(TimedSend {
                src: *proc,
                dst: target,
                send_start: Time(postal_model::Ratio::new(tick, q)),
            });
            *out_free = tick + q;
            pending.push_back((tick + p, target));
        }
        informed_curve.push(informed.len() as u64);
        tick += 1;
    }
    // Record the final plateau tick (everyone informed).
    informed_curve.push(informed.len() as u64);

    FloodOutcome {
        schedule: Schedule::new(n as u32, latency, sends),
        informed: informed_curve,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::runtimes;

    const LAMBDAS: &[(i128, i128)] = &[(1, 1), (3, 2), (2, 1), (5, 2), (7, 3), (4, 1)];

    #[test]
    fn flood_completes_in_optimal_time() {
        for &(pp, qq) in LAMBDAS {
            let lam = Latency::from_ratio(pp, qq);
            for n in [1u64, 2, 3, 5, 14, 50, 200] {
                let flood = flood_schedule(n, lam);
                let expected = if n == 1 {
                    Time::ZERO
                } else {
                    runtimes::bcast_time(n as u128, lam)
                };
                assert_eq!(flood.completion(), expected, "λ={lam} n={n}");
            }
        }
    }

    #[test]
    fn informed_curve_is_the_generalized_fibonacci_function() {
        // Lemma 5, executably: greedy flooding informs exactly F_λ(t)
        // processors by time t (capped at n).
        for &(pp, qq) in LAMBDAS {
            let lam = Latency::from_ratio(pp, qq);
            for n in [2u64, 5, 14, 100] {
                let flood = flood_schedule(n, lam);
                assert!(
                    flood.informed_curve_matches(n),
                    "λ={lam} n={n}: curve {:?}",
                    flood.informed
                );
            }
        }
    }

    #[test]
    fn flood_schedule_is_model_valid() {
        for &(pp, qq) in LAMBDAS {
            let lam = Latency::from_ratio(pp, qq);
            for n in [1u64, 2, 14, 64] {
                let flood = flood_schedule(n, lam);
                postal_verify::assert_broadcast_clean(
                    &flood.schedule,
                    &format!("flood λ={lam} n={n}"),
                );
                assert_eq!(flood.schedule.len(), n as usize - 1);
            }
        }
    }

    #[test]
    fn flood_replays_exactly_on_the_engine() {
        let lam = Latency::from_ratio(5, 2);
        let flood = flood_schedule(30, lam);
        let report = crate::replay::replay(&flood.schedule);
        report.assert_model_clean();
        assert_eq!(report.completion, flood.completion());
    }

    #[test]
    fn flood_and_bcast_agree_on_time_but_not_shape() {
        // Same optimal completion; different sender multiset (the flood
        // reassigns targets globally).
        let lam = Latency::from_ratio(5, 2);
        let n = 14;
        let flood = flood_schedule(n, lam);
        let bcast = crate::fib_tree::BroadcastTree::build(n, lam);
        assert_eq!(flood.completion(), bcast.completion());
    }
}
