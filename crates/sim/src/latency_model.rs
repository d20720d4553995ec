//! Latency models: how long a message takes from send-start to
//! receive-finish.
//!
//! The paper's postal model assumes a single system-wide λ ([`Uniform`]).
//! Section 5 proposes two relaxations as further research, both of which
//! this simulator supports so the extension algorithms in `postal-algos`
//! can be evaluated:
//!
//! * [`TimeVarying`] — λ changes over time (piecewise-constant in the send
//!   start time);
//! * [`Hierarchical`] — processors are grouped into clusters with a fast
//!   intra-cluster latency and a slow inter-cluster latency.

use crate::ids::ProcId;
use postal_model::{Latency, Time};

/// Determines the communication latency for a message sent from `src` to
/// `dst` whose send starts at `send_start`.
///
/// Implementations must return λ ≥ 1 (enforced by the [`Latency`] type).
pub trait LatencyModel {
    /// The latency applied to this send.
    fn latency(&self, src: ProcId, dst: ProcId, send_start: Time) -> Latency;

    /// The largest latency this model can ever return, if known.
    ///
    /// Used only for reporting; defaults to `None`.
    fn max_latency(&self) -> Option<Latency> {
        None
    }

    /// A denominator `q ≥ 1` such that every latency this model returns
    /// is a multiple of `1/q` — the model's contribution to the run's
    /// tick lattice (see [`postal_model::TickScale`]).
    ///
    /// The engine counts time in ticks of `1/D` with `D` a multiple of
    /// this value, so an accurate answer keeps every event on the
    /// lattice from the first one. The default, 1, declares nothing:
    /// a latency off the lattice then refines `D` when it first
    /// appears, at the cost of rescaling the queued events once.
    fn tick_denominator(&self) -> i128 {
        1
    }
}

/// `lcm` of the latencies' denominators. Saturates at `i128::MAX`, a
/// value no `i64` tick lattice holds, so the engine reports it as a
/// tick overflow.
pub(crate) fn lcm_of_denominators(lams: impl IntoIterator<Item = Latency>) -> i128 {
    lams.into_iter().fold(1i128, |acc, l| {
        let q = l.ticks_per_unit();
        let (mut a, mut b) = (acc, q);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        acc.checked_mul(q / a).unwrap_or(i128::MAX)
    })
}

/// The paper's model: one system-wide λ for every pair and every time.
#[derive(Debug, Clone, Copy)]
pub struct Uniform(pub Latency);

impl LatencyModel for Uniform {
    fn latency(&self, _src: ProcId, _dst: ProcId, _send_start: Time) -> Latency {
        self.0
    }

    fn max_latency(&self) -> Option<Latency> {
        Some(self.0)
    }

    fn tick_denominator(&self) -> i128 {
        self.0.ticks_per_unit()
    }
}

/// Piecewise-constant time-varying latency (Section 5: "explore
/// time-changing values of λ").
///
/// The latency of a send is the value of the last step at or before the
/// send's start time.
#[derive(Debug, Clone)]
pub struct TimeVarying {
    /// `(from_time, λ)` steps, sorted by time; the first entry must be at
    /// time 0.
    steps: Vec<(Time, Latency)>,
}

impl TimeVarying {
    /// Builds a piecewise-constant profile from `(from_time, λ)` steps.
    ///
    /// # Panics
    /// Panics if `steps` is empty, unsorted, or does not start at time 0.
    pub fn new(steps: Vec<(Time, Latency)>) -> TimeVarying {
        assert!(!steps.is_empty(), "profile needs at least one step");
        assert!(
            steps[0].0 == Time::ZERO,
            "profile must define λ from time 0"
        );
        assert!(
            steps.windows(2).all(|w| w[0].0 < w[1].0),
            "profile steps must be strictly increasing in time"
        );
        TimeVarying { steps }
    }

    /// The λ in effect at time `t`.
    pub fn at(&self, t: Time) -> Latency {
        // Last step with step_time ≤ t (partition_point gives the first
        // index where the predicate fails).
        let idx = self.steps.partition_point(|&(st, _)| st <= t);
        self.steps[idx - 1].1
    }

    /// The profile's steps.
    pub fn steps(&self) -> &[(Time, Latency)] {
        &self.steps
    }
}

impl LatencyModel for TimeVarying {
    fn latency(&self, _src: ProcId, _dst: ProcId, send_start: Time) -> Latency {
        self.at(send_start)
    }

    fn max_latency(&self) -> Option<Latency> {
        self.steps.iter().map(|&(_, l)| l).max()
    }

    fn tick_denominator(&self) -> i128 {
        lcm_of_denominators(self.steps.iter().map(|&(_, l)| l))
    }
}

/// Two-level latency hierarchy (Section 5: "hierarchies of latency
/// parameters ... to model subsystems within a larger system").
///
/// Processors belong to clusters; messages within a cluster travel at
/// `local` λ, messages between clusters at `remote` λ.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    cluster_of: Vec<u32>,
    local: Latency,
    remote: Latency,
}

impl Hierarchical {
    /// Builds a hierarchy from an explicit cluster assignment.
    ///
    /// # Panics
    /// Panics if `cluster_of` is empty or `local > remote` (a hierarchy
    /// where remote messages are faster than local ones is a modeling
    /// error).
    pub fn new(cluster_of: Vec<u32>, local: Latency, remote: Latency) -> Hierarchical {
        assert!(!cluster_of.is_empty(), "at least one processor required");
        assert!(
            local <= remote,
            "intra-cluster latency must not exceed inter-cluster latency"
        );
        Hierarchical {
            cluster_of,
            local,
            remote,
        }
    }

    /// Builds a hierarchy of `n` processors split into consecutive blocks
    /// of `cluster_size`.
    ///
    /// # Panics
    /// Panics if `cluster_size == 0`.
    pub fn blocks(n: usize, cluster_size: usize, local: Latency, remote: Latency) -> Hierarchical {
        assert!(cluster_size > 0, "cluster size must be positive");
        let cluster_of = (0..n).map(|i| (i / cluster_size) as u32).collect();
        Hierarchical::new(cluster_of, local, remote)
    }

    /// The cluster index of a processor.
    pub fn cluster(&self, p: ProcId) -> u32 {
        self.cluster_of[p.index()]
    }

    /// The intra-cluster latency.
    pub fn local(&self) -> Latency {
        self.local
    }

    /// The inter-cluster latency.
    pub fn remote(&self) -> Latency {
        self.remote
    }

    /// Number of distinct clusters.
    pub fn num_clusters(&self) -> usize {
        (self.cluster_of.iter().copied().max().unwrap_or(0) + 1) as usize
    }
}

impl LatencyModel for Hierarchical {
    fn latency(&self, src: ProcId, dst: ProcId, _send_start: Time) -> Latency {
        if self.cluster(src) == self.cluster(dst) {
            self.local
        } else {
            self.remote
        }
    }

    fn max_latency(&self) -> Option<Latency> {
        Some(self.remote)
    }

    fn tick_denominator(&self) -> i128 {
        lcm_of_denominators([self.local, self.remote])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_constant() {
        let m = Uniform(Latency::from_ratio(5, 2));
        assert_eq!(
            m.latency(ProcId(0), ProcId(3), Time::ZERO),
            Latency::from_ratio(5, 2)
        );
        assert_eq!(m.max_latency(), Some(Latency::from_ratio(5, 2)));
    }

    #[test]
    fn time_varying_steps() {
        let m = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(2)),
            (Time::from_int(10), Latency::from_int(5)),
            (Time::from_int(20), Latency::from_int(3)),
        ]);
        assert_eq!(m.at(Time::ZERO), Latency::from_int(2));
        assert_eq!(m.at(Time::new(19, 2)), Latency::from_int(2));
        assert_eq!(m.at(Time::from_int(10)), Latency::from_int(5));
        assert_eq!(m.at(Time::from_int(15)), Latency::from_int(5));
        assert_eq!(m.at(Time::from_int(100)), Latency::from_int(3));
        assert_eq!(m.max_latency(), Some(Latency::from_int(5)));
    }

    #[test]
    #[should_panic(expected = "time 0")]
    fn time_varying_must_start_at_zero() {
        let _ = TimeVarying::new(vec![(Time::ONE, Latency::TELEPHONE)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn time_varying_must_be_sorted() {
        let _ = TimeVarying::new(vec![
            (Time::ZERO, Latency::TELEPHONE),
            (Time::from_int(5), Latency::from_int(2)),
            (Time::from_int(5), Latency::from_int(3)),
        ]);
    }

    #[test]
    fn hierarchical_blocks() {
        let m = Hierarchical::blocks(10, 4, Latency::TELEPHONE, Latency::from_int(8));
        assert_eq!(m.num_clusters(), 3);
        assert_eq!(m.cluster(ProcId(0)), 0);
        assert_eq!(m.cluster(ProcId(3)), 0);
        assert_eq!(m.cluster(ProcId(4)), 1);
        assert_eq!(m.cluster(ProcId(9)), 2);
        assert_eq!(
            m.latency(ProcId(0), ProcId(3), Time::ZERO),
            Latency::TELEPHONE
        );
        assert_eq!(
            m.latency(ProcId(0), ProcId(4), Time::ZERO),
            Latency::from_int(8)
        );
        assert_eq!(m.max_latency(), Some(Latency::from_int(8)));
    }

    #[test]
    fn tick_denominators_cover_every_latency() {
        assert_eq!(Uniform(Latency::from_ratio(7, 3)).tick_denominator(), 3);
        let tv = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_ratio(5, 2)),
            (Time::new(1, 7), Latency::from_ratio(8, 3)),
        ]);
        assert_eq!(tv.tick_denominator(), 6);
        let h = Hierarchical::blocks(4, 2, Latency::from_ratio(7, 3), Latency::from_ratio(5, 2));
        assert_eq!(h.tick_denominator(), 6);
        // Coprime to 5, so the lcm overflows and saturates.
        let big = Latency::from_ratio(i128::MAX, i128::MAX - 1);
        assert_eq!(
            lcm_of_denominators([big, Latency::from_ratio(6, 5)]),
            i128::MAX
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn hierarchical_rejects_inverted_latencies() {
        let _ = Hierarchical::blocks(4, 2, Latency::from_int(8), Latency::TELEPHONE);
    }
}
