//! Named paper workloads for the checker's grid and the CLI.

use crate::explore::McConfig;
use crate::mutation::Mutation;
use crate::{check_programs, CheckReport};
use postal_algos::registry::{Algo, ProgramsVisitor};
use postal_model::lint::LintOptions;
use postal_model::Latency;
use postal_sim::Program;

/// Model-checks one paper algorithm at `(n, m, λ)`.
///
/// The registry supplies the programs: `Bcast` ignores `m` (it is the
/// single-message algorithm) and the tree shapes take the registry's
/// degree rule.
pub fn check_algo(
    algo: Algo,
    n: u32,
    m: u32,
    lam: Latency,
    mutation: Option<Mutation>,
    cfg: &McConfig,
) -> CheckReport {
    struct Check<'a> {
        name: String,
        n: u32,
        m: u64,
        lam: Latency,
        mutation: Option<Mutation>,
        cfg: &'a McConfig,
    }
    impl ProgramsVisitor for Check<'_> {
        type Output = CheckReport;
        fn visit<P: Clone + 'static>(
            self,
            factory: &dyn Fn(Latency) -> Vec<Box<dyn Program<P>>>,
        ) -> CheckReport {
            check_programs(
                &self.name,
                self.n,
                self.m,
                self.lam,
                || factory(self.lam),
                self.mutation,
                &LintOptions::broadcast_of(self.m),
                self.cfg,
            )
        }
    }
    let check = Check {
        name: algo.name(),
        n,
        m: u64::from(algo.messages(m)),
        lam,
        mutation,
        cfg,
    };
    algo.programs(n as usize, m, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::runtimes;

    #[test]
    fn bcast_check_is_clean_and_matches_closed_form() {
        let lam = Latency::from_ratio(5, 2);
        let rep = check_algo(Algo::Bcast, 8, 1, lam, None, &McConfig::default());
        assert!(rep.is_clean(), "diagnostics: {:?}", rep.diagnostics);
        assert_eq!(rep.completions, vec![runtimes::bcast_time(8, lam)]);
        assert_eq!(rep.reference_completion, runtimes::bcast_time(8, lam));
        assert_eq!(rep.stats.executions, 1);
    }
}
