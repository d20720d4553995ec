//! Analysis entry points for the nine paper workloads.
//!
//! Mirrors `postal_mc::workload`: the same registry [`Algo`], the same
//! program factories, but analyzed abstractly over a λ-range instead of
//! model-checked at a point. Each family is held to the registry's
//! proven envelope — BCAST to Theorem 6's `f_λ(n)`, REPEAT/PACK/PIPELINE
//! to Lemmas 10–16, and the DTREE shapes to Lemma 18 — and every
//! workload to the Lemma 8 lower bound `(m−1) + f_λ(n)`.

use crate::analyze::{analyze, AbsConfig, AbsReport, TreeSpec, Workload};
use crate::mutation::AbsMutation;
use postal_algos::registry::{Algo, ProgramsVisitor};
use postal_model::{Interval, Latency, Time, Topology};
use postal_sim::Program;

/// Abstractly analyzes one paper algorithm over the λ-range `lambda`.
///
/// `Bcast` ignores `m` (it is the single-message algorithm); the tree
/// shapes take the registry's degree rule, exactly as
/// [`postal_mc::check_algo`] does, so the two analyses always see the
/// same programs at any witness λ.
pub fn analyze_algo(
    algo: Algo,
    n: u32,
    m: u32,
    lambda: Interval,
    mutation: Option<AbsMutation>,
    cfg: &AbsConfig,
) -> AbsReport {
    analyze_algo_with_topology(algo, n, m, lambda, mutation, None, cfg)
}

/// Like [`analyze_algo`], but holds the workload to a sparse
/// communication graph: processors the topology cuts off from the
/// originator are reported as `P0019` (suppressing the per-run `P0013`
/// for them), and quality envelopes are suppressed under a partition.
/// `topology: None` (or the complete graph) recovers [`analyze_algo`]
/// exactly.
pub fn analyze_algo_with_topology(
    algo: Algo,
    n: u32,
    m: u32,
    lambda: Interval,
    mutation: Option<AbsMutation>,
    topology: Option<&Topology>,
    cfg: &AbsConfig,
) -> AbsReport {
    let visitor = Analyze {
        name: &algo.name(),
        declared: algo,
        n,
        m,
        lambda,
        mutation,
        topology,
        cfg,
    };
    algo.programs(n as usize, m, visitor)
}

/// The workload-level `P0015` defect: builds a binary tree (`d = 2`)
/// while declaring a line (`d = 1`), so the observed fan-out exceeds
/// the declared degree bound at every λ.
pub fn analyze_dtree_inflated(n: u32, m: u32, lambda: Interval, cfg: &AbsConfig) -> AbsReport {
    assert!(
        n >= 3,
        "an inflated-degree tree needs at least 3 processors"
    );
    let visitor = Analyze {
        name: "dtree-inflated",
        declared: Algo::Line,
        n,
        m,
        lambda,
        mutation: None,
        topology: None,
        cfg,
    };
    Algo::Binary.programs(n as usize, m, visitor)
}

/// Analyzes the programs it is handed against the registry contract of
/// `declared`: its `m` rule, and its envelope (non-tree) or its degree
/// and Lemma 18 bound (tree shapes).
struct Analyze<'a> {
    name: &'a str,
    declared: Algo,
    n: u32,
    m: u32,
    lambda: Interval,
    mutation: Option<AbsMutation>,
    topology: Option<&'a Topology>,
    cfg: &'a AbsConfig,
}

impl ProgramsVisitor for Analyze<'_> {
    type Output = AbsReport;
    fn visit<P: Clone + 'static>(
        self,
        factory: &dyn Fn(Latency) -> Vec<Box<dyn Program<P>>>,
    ) -> AbsReport {
        let (algo, nu) = (self.declared, self.n as usize);
        let bound = |lam| algo.envelope(nu, self.m, lam).bound;
        let degree = |lam| algo.degree(nu, lam).expect("a tree shape has a degree");
        let tree = algo.is_tree();
        let workload = Workload {
            name: self.name,
            n: self.n,
            m: u64::from(algo.messages(self.m)),
            factory,
            envelope: (!tree).then_some(&bound as &dyn Fn(Latency) -> Time),
            tree: tree.then_some(TreeSpec {
                degree: &degree,
                bound: &bound,
            }),
            mutation: self.mutation,
            topology: self.topology,
        };
        analyze(&workload, self.lambda, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::lint::LintCode;
    use postal_model::Ratio;

    #[test]
    fn all_algorithms_analyze_clean_over_the_paper_range() {
        let lambda = Interval::new(Ratio::ONE, Ratio::from_int(4));
        for algo in Algo::all() {
            let report = analyze_algo(algo, 8, 2, lambda, None, &AbsConfig::default());
            assert!(report.is_clean(), "{algo}: {:?}", report.diagnostics);
        }
    }

    #[test]
    fn inflated_degree_trips_p0015_only() {
        let report = analyze_dtree_inflated(
            8,
            2,
            Interval::new(Ratio::ONE, Ratio::from_int(2)),
            &AbsConfig::default(),
        );
        let codes: Vec<LintCode> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![LintCode::DegreeBoundViolation], "{codes:?}");
    }
}
