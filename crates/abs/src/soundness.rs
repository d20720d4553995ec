//! Soundness glue: the abstract bracket must contain every concrete
//! completion the other engines produce.
//!
//! Two checks, both used by the acceptance-grid test suite and the
//! `exp_abs` bench:
//!
//! * [`cross_check_point`] — analyze at the degenerate range `[λ, λ]`
//!   and require the bracket to contain the reference simulator's
//!   completion *and* every completion the model checker observes
//!   across interleavings;
//! * [`cross_check_range`] — analyze over a wide range, find the
//!   sub-interval containing a concrete λ, and require both that
//!   sub-interval's bracket and the global hull to contain the
//!   reference completion.

use crate::analyze::AbsConfig;
use crate::workload::analyze_algo;
use postal_algos::registry::Algo;
use postal_mc::{check_algo, McConfig};
use postal_model::{Interval, Latency, Time};

/// The verdict of one abstract-vs-concrete comparison.
#[derive(Debug, Clone)]
pub struct SoundnessOutcome {
    /// Workload tag.
    pub algo: Algo,
    /// Grid point.
    pub n: u32,
    /// Grid point.
    pub m: u32,
    /// The concrete λ checked.
    pub lambda: Latency,
    /// The abstract completion bracket that was tested.
    pub bracket: Interval,
    /// The reference simulator's completion.
    pub reference: Time,
    /// Whether the bracket contains the reference completion.
    pub contains_reference: bool,
    /// Whether the bracket contains every model-checker completion.
    pub contains_all_mc: bool,
}

impl SoundnessOutcome {
    /// True when the abstract bracket contains every concrete completion.
    pub fn sound(&self) -> bool {
        self.contains_reference && self.contains_all_mc
    }
}

/// Point check: analyze at `[λ, λ]` and compare against the simulator
/// and the model checker at the same grid point.
pub fn cross_check_point(
    algo: Algo,
    n: u32,
    m: u32,
    lam: Latency,
    cfg: &AbsConfig,
) -> SoundnessOutcome {
    let mc = check_algo(algo, n, m, lam, None, &McConfig::default());
    let abs = analyze_algo(algo, n, m, Interval::point(lam.value()), None, cfg);
    SoundnessOutcome {
        algo,
        n,
        m,
        lambda: lam,
        bracket: abs.completion,
        reference: mc.reference_completion,
        contains_reference: abs.completion.contains(mc.reference_completion.as_ratio()),
        contains_all_mc: mc
            .completions
            .iter()
            .all(|t| abs.completion.contains(t.as_ratio())),
    }
}

/// Range check: analyze over `range` and require the sub-interval
/// containing `lam` (and the global hull) to contain the reference
/// simulator's completion at `lam`.
pub fn cross_check_range(
    algo: Algo,
    n: u32,
    m: u32,
    lam: Latency,
    range: Interval,
    cfg: &AbsConfig,
) -> SoundnessOutcome {
    assert!(range.contains(lam.value()), "λ must lie inside the range");
    let mc = check_algo(algo, n, m, lam, None, &McConfig::default());
    let abs = analyze_algo(algo, n, m, range, None, cfg);
    let sub = abs
        .subintervals
        .iter()
        .find(|s| s.lambda.contains(lam.value()))
        .expect("sub-intervals cover the range");
    let contained = sub.completion.contains(mc.reference_completion.as_ratio())
        && abs.completion.contains(mc.reference_completion.as_ratio());
    SoundnessOutcome {
        algo,
        n,
        m,
        lambda: lam,
        bracket: sub.completion,
        reference: mc.reference_completion,
        contains_reference: contained,
        contains_all_mc: mc
            .completions
            .iter()
            .all(|t| abs.completion.contains(t.as_ratio())),
    }
}
