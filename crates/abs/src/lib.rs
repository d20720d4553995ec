//! # postal-abs
//!
//! An abstract interpreter for postal-model programs: interval-domain
//! analysis over the `postal_sim::Program` IR, parametric over an exact
//! rational λ-range `[λ_lo, λ_hi]`, with no simulation of any single
//! execution.
//!
//! Every existing analysis in this workspace judges one grid point —
//! `postal-verify` lints one observed schedule (`P0001`–`P0007`),
//! `postal-mc` explores one state space (`P0008`–`P0011`) — but the
//! paper's claims (Theorem 6, Lemmas 8–18) quantify over *all* λ. This
//! crate closes that gap: it propagates per-processor busy intervals,
//! per-port send/receive occupancy, in-flight message counts, and
//! reachability through the program IR with every clock an
//! [`postal_model::Interval`] over exact rationals, and surfaces five
//! symbolic properties as stable codes in [`postal_model::lint`]:
//!
//! | property | code |
//! |---|---|
//! | every send is eventually received | `P0012` |
//! | every processor is abstractly reachable | `P0013` |
//! | completion respects Lemma 8 and the family envelope over the whole range | `P0014` |
//! | DTREE fan-out and Lemma 18's envelope hold over the whole range | `P0015` |
//! | no processor waits on a receive nothing can match | `P0016` |
//!
//! Under a sparse [`postal_model::Topology`] (see
//! [`analyze_algo_with_topology`]), processors the graph cuts off from
//! the originator are additionally reported as `P0019`, which
//! suppresses the per-run `P0013` for them — the partition, not any
//! particular run, is the root cause.
//!
//! Each finding carries a **witness λ sub-interval** in
//! [`Diagnostic::witness`](postal_model::lint::Diagnostic), rendered by
//! `postal-verify` as `= witness: lambda in [a, b]`.
//!
//! ## How it stays sound
//!
//! Programs are opaque code, so the engine drives callbacks at a
//! concrete *witness* λ while propagating interval clocks
//! ([`engine::AbsEngine`]). The analysis layer ([`mod@analyze`]) runs both
//! endpoints of every λ sub-interval and compares structure signatures:
//! equal signatures mean the program's decisions are constant on the
//! sub-interval, and since every clock is a monotone nondecreasing
//! function of λ (constants and nonnegative multiples of λ combined
//! through `+` and `max`), the endpoint completions bracket the whole
//! sub-interval exactly. Disagreeing sub-intervals are bisected, then
//! widened at maximum depth. The soundness glue ([`soundness`])
//! cross-checks the bracket against the concrete simulator and the
//! model checker on the acceptance grid.
//!
//! ## Quick example
//!
//! ```
//! use postal_abs::{analyze_algo, AbsConfig};
//! use postal_algos::registry::Algo;
//! use postal_model::{Interval, Ratio};
//!
//! let report = analyze_algo(
//!     Algo::Bcast,
//!     8,
//!     1,
//!     Interval::new(Ratio::ONE, Ratio::from_int(4)),
//!     None,
//!     &AbsConfig::default(),
//! );
//! assert!(report.is_clean());
//! // The completion hull brackets f_λ(8) for every λ in [1, 4].
//! assert!(report.completion.contains(
//!     postal_model::runtimes::bcast_time(8, postal_model::Latency::from_int(2)).as_ratio()
//! ));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod engine;
pub mod mutation;
pub mod soundness;
pub mod workload;

pub use analyze::{analyze, AbsConfig, AbsReport, SubReport, TreeSpec, Workload};
pub use engine::{AbsEngine, AbsRun, AbsSend, Signature};
pub use mutation::AbsMutation;
pub use soundness::{cross_check_point, cross_check_range, SoundnessOutcome};
pub use workload::{analyze_algo, analyze_algo_with_topology, analyze_dtree_inflated};
