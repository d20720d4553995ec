//! The paper's broadcast family as one table.
//!
//! Every consumer that turns an algorithm name into programs — the
//! CLI's `simulate`/`stats`, the model checker and the abstract
//! interpreter — goes through [`Algo`]: its spelling, its `m` rule, its
//! tree degree, its proven envelope and its program factory live here
//! and nowhere else.
//!
//! ```
//! use postal_algos::registry::Algo;
//! use postal_model::{runtimes, Latency};
//!
//! let (lam, algo) = (Latency::from_ratio(5, 2), Algo::parse("star").unwrap());
//! assert_eq!(algo.messages(3), 3);
//! assert_eq!(algo.degree(14, lam), Some(13));
//! assert_eq!(algo.envelope(14, 3, lam).lemma, "Lemma 18");
//! assert_eq!(Algo::Bcast.messages(3), 1); // BCAST carries one message
//! assert_eq!(Algo::Bcast.envelope(14, 3, lam).bound, runtimes::bcast_time(14, lam));
//! ```
//!
//! The programs reach their consumer through a [`ProgramsVisitor`],
//! because the payload type differs between BCAST and the
//! multi-message algorithms.

use crate::bcast::bcast_programs;
use crate::dtree::dtree_programs;
use crate::pack::pack_programs;
use crate::pipeline::pipeline_programs;
use crate::repeat::{repeat_programs, Pacing};
use postal_model::{runtimes, Latency, Time};
use postal_sim::Program;
use std::fmt;

/// A broadcast algorithm of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Single-message broadcast (BCAST), `m` forced to 1.
    Bcast,
    /// Multi-message REPEAT with the paper's exact pacing.
    Repeat,
    /// REPEAT with greedy pacing (sends as early as the port allows).
    RepeatGreedy,
    /// Multi-message PACK (messages travel as one packet).
    Pack,
    /// Multi-message PIPELINE (regime 1/2 chosen per `(m, λ)`).
    Pipeline,
    /// Degree-1 tree (the line): `DTREE` with `d = 1`.
    Line,
    /// Degree-2 tree: `DTREE` with `d = 2`.
    Binary,
    /// Degree-`n−1` tree (the star): `DTREE` with `d = n − 1`.
    Star,
    /// `DTREE` at the latency-matched degree `d = min(⌈λ⌉ + 1, n − 1)`.
    Dtree,
    /// `DTREE` at a fixed degree `d ≥ 1`, spelled `dtree:<d>`.
    Degree(u64),
}

/// The nine paper workloads and their CLI spellings, in grid order.
const NAMED: [(Algo, &str); 9] = [
    (Algo::Bcast, "bcast"),
    (Algo::Repeat, "repeat"),
    (Algo::RepeatGreedy, "repeat-greedy"),
    (Algo::Pack, "pack"),
    (Algo::Pipeline, "pipeline"),
    (Algo::Line, "line"),
    (Algo::Binary, "binary"),
    (Algo::Star, "star"),
    (Algo::Dtree, "dtree"),
];

/// A proven upper envelope on an algorithm's completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// The bound at the requested `(n, m, λ)`.
    pub bound: Time,
    /// Where the paper proves it.
    pub lemma: &'static str,
}

/// Receives an algorithm's program factory. The factory is generic over
/// the payload type, so it reaches its consumer through a visitor.
pub trait ProgramsVisitor {
    /// What the visit produces.
    type Output;
    /// Consumes `factory`, which builds one program per processor at a
    /// given λ.
    fn visit<P: Clone + 'static>(
        self,
        factory: &dyn Fn(Latency) -> Vec<Box<dyn Program<P>>>,
    ) -> Self::Output;
}

impl Algo {
    /// The nine paper workloads, in grid order.
    pub fn all() -> [Algo; 9] {
        NAMED.map(|(algo, _)| algo)
    }

    /// Parses a CLI spelling: a paper workload's name or `dtree:<d>`
    /// with `d ≥ 1`.
    pub fn parse(s: &str) -> Option<Algo> {
        match s.strip_prefix("dtree:") {
            Some(d) => d.parse().ok().filter(|&d| d >= 1).map(Algo::Degree),
            None => NAMED.iter().find(|(_, name)| *name == s).map(|(a, _)| *a),
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Every accepted spelling, `|`-separated, for usage and error text.
    pub fn spellings() -> String {
        let mut names: Vec<&str> = NAMED.iter().map(|(_, name)| *name).collect();
        names.push("dtree:<d>");
        names.join("|")
    }

    /// The `m` rule: BCAST carries exactly one message; every other
    /// algorithm carries `m` (at least 1).
    pub fn messages(self, m: u32) -> u32 {
        if self == Algo::Bcast {
            1
        } else {
            m.max(1)
        }
    }

    /// True for the `DTREE` shapes, which have a [`degree`](Self::degree).
    pub fn is_tree(self) -> bool {
        matches!(
            self,
            Algo::Line | Algo::Binary | Algo::Star | Algo::Dtree | Algo::Degree(_)
        )
    }

    /// The degree rule for the `DTREE` shapes: line 1, binary 2, star
    /// `n − 1`, dtree latency-matched, `dtree:<d>` its `d` — clamped to
    /// `[1, n − 1]`. `None` for the non-tree algorithms.
    pub fn degree(self, n: usize, lam: Latency) -> Option<u64> {
        let n = n as u64;
        let d = match self {
            Algo::Line => 1,
            Algo::Binary => 2,
            Algo::Star => n.saturating_sub(1),
            Algo::Dtree => runtimes::latency_matched_degree(n as u128, lam) as u64,
            Algo::Degree(d) => d,
            Algo::Bcast | Algo::Repeat | Algo::RepeatGreedy | Algo::Pack | Algo::Pipeline => {
                return None
            }
        };
        Some(d.clamp(1, n.saturating_sub(1).max(1)))
    }

    /// The proven envelope: Theorem 6's `f_λ(n)` for BCAST, the closed
    /// forms of Lemmas 10–16 for REPEAT/PACK/PIPELINE, and Lemma 18's
    /// bound at the tree's degree for the `DTREE` shapes.
    pub fn envelope(self, n: usize, m: u32, lam: Latency) -> Envelope {
        let (nn, m) = (n as u128, u64::from(self.messages(m)));
        let (bound, lemma) = match self {
            Algo::Bcast => (runtimes::bcast_time(nn, lam), "Theorem 6"),
            Algo::Repeat | Algo::RepeatGreedy => (runtimes::repeat_time(nn, m, lam), "Lemma 10"),
            Algo::Pack => (runtimes::pack_time(nn, m, lam), "Lemma 12"),
            Algo::Pipeline => (runtimes::pipeline_time(nn, m, lam), "Lemmas 14/16"),
            tree => {
                let d = tree.degree(n, lam).expect("a tree shape has a degree");
                (
                    runtimes::dtree_time_bound(nn, m, lam, u128::from(d)),
                    "Lemma 18",
                )
            }
        };
        Envelope { bound, lemma }
    }

    /// Hands the algorithm's program factory for `n` processors and `m`
    /// messages (after the [`messages`](Self::messages) rule) to
    /// `visitor`.
    pub fn programs<V: ProgramsVisitor>(self, n: usize, m: u32, visitor: V) -> V::Output {
        let m = self.messages(m);
        match self {
            Algo::Bcast => visitor.visit(&|lam| bcast_programs(n, lam)),
            Algo::Repeat => visitor.visit(&|lam| repeat_programs(n, m, lam, Pacing::PaperExact)),
            Algo::RepeatGreedy => visitor.visit(&|lam| repeat_programs(n, m, lam, Pacing::Greedy)),
            Algo::Pack => visitor.visit(&|lam| pack_programs(n, m, lam)),
            Algo::Pipeline => visitor.visit(&|lam| pipeline_programs(n, m, lam)),
            tree => visitor.visit(&|lam| {
                let d = tree.degree(n, lam).expect("a tree shape has a degree");
                dtree_programs(n, m, d)
            }),
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algo::Degree(d) => write!(f, "dtree:{d}"),
            algo => {
                let (_, name) = NAMED.iter().find(|(a, _)| a == algo).expect("named");
                f.write_str(name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for a in Algo::all() {
            assert_eq!(Algo::parse(&a.name()), Some(a));
        }
        assert_eq!(Algo::parse("dtree:3"), Some(Algo::Degree(3)));
        assert_eq!(Algo::Degree(3).name(), "dtree:3");
        for bad in ["nope", "dtree:", "dtree:0", "dtree:x", "dtree:-1"] {
            assert_eq!(Algo::parse(bad), None, "{bad}");
        }
        assert_eq!(
            Algo::spellings(),
            "bcast|repeat|repeat-greedy|pack|pipeline|line|binary|star|dtree|dtree:<d>"
        );
    }

    #[test]
    fn degree_rule_clamps_to_the_processor_count() {
        let lam = Latency::from_ratio(5, 2);
        let degrees = |n| Algo::all().map(|a| a.degree(n, lam));
        let (none, s) = (None, Some);
        assert_eq!(
            degrees(8),
            [none, none, none, none, none, s(1), s(2), s(7), s(4)]
        );
        // A star over one processor, and a degree past n − 1, clamp.
        assert_eq!(Algo::Star.degree(1, lam), Some(1));
        assert_eq!(Algo::Degree(99).degree(5, lam), Some(4));
        assert!(Algo::all()
            .iter()
            .all(|a| a.is_tree() == a.degree(8, lam).is_some()));
    }

    /// Simulates the factory once at λ.
    struct Complete(usize, Latency);

    impl ProgramsVisitor for Complete {
        type Output = Time;
        fn visit<P: Clone + 'static>(
            self,
            factory: &dyn Fn(Latency) -> Vec<Box<dyn Program<P>>>,
        ) -> Time {
            let Complete(n, lam) = self;
            let report = postal_sim::Simulation::new(n, &postal_sim::Uniform(lam))
                .run(factory(lam))
                .expect("paper algorithms cannot diverge");
            report.completion
        }
    }

    #[test]
    fn programs_meet_their_envelopes() {
        for lam in [Latency::from_int(1), Latency::from_ratio(5, 2)] {
            for n in [1usize, 2, 9] {
                for m in [1u32, 3] {
                    for algo in Algo::all().into_iter().chain([Algo::Degree(3)]) {
                        let t = algo.programs(n, m, Complete(n, lam));
                        let envelope = algo.envelope(n, m, lam);
                        // The closed forms are exact past one processor;
                        // the rest are upper bounds.
                        let exact = n > 1
                            && matches!(
                                algo,
                                Algo::Bcast | Algo::Repeat | Algo::Pack | Algo::Pipeline
                            );
                        assert!(
                            t == envelope.bound || (!exact && t <= envelope.bound),
                            "{algo} n={n} m={m} λ={lam}: {t} vs {envelope:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn envelopes_name_their_lemmas() {
        let lam = Latency::from_int(2);
        let lemmas = Algo::all().map(|a| a.envelope(8, 2, lam).lemma);
        assert_eq!(
            lemmas,
            [
                "Theorem 6",
                "Lemma 10",
                "Lemma 10",
                "Lemma 12",
                "Lemmas 14/16",
                "Lemma 18",
                "Lemma 18",
                "Lemma 18",
                "Lemma 18"
            ]
        );
        // BCAST's envelope ignores m, like its programs.
        assert_eq!(
            Algo::Bcast.envelope(8, 5, lam),
            Algo::Bcast.envelope(8, 1, lam)
        );
    }
}
