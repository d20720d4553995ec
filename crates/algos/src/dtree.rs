//! Algorithm DTREE — multi-message broadcast over a fixed-degree tree
//! (Section 4.3, Lemma 18).
//!
//! For `1 ≤ d ≤ n−1`, processors form a *left-to-right, almost-full,
//! degree-d tree* in BFS order: the children of node `i` are
//! `d·i + 1, …, d·i + d` (those below `n`). The root sends `d` copies of
//! `M_1` to its children left to right, then proceeds with `M_2`, and so
//! on; every other node forwards each received message to its own
//! children left to right. Lemma 18:
//! `T_DT ≤ d(m−1) + (d−1+λ)·⌈log_d n⌉`.
//!
//! The family interpolates between the paper's two pure strategies:
//! `d = n−1` (STAR) is REPEAT-like — saturate one message before the
//! next — while `d = 1` (LINE) is PIPELINE-like — stream messages down a
//! chain. Section 4.3 discusses `d = 2` (BINARY) and the latency-matched
//! `d = ⌈λ⌉+1`.

use crate::multi::{run_multi, MultiPacket, MultiReport};
use postal_model::Latency;
use postal_sim::prelude::*;

/// Children of node `i` in the left-to-right almost-full degree-d tree
/// over `n` nodes.
pub fn dtree_children(i: u64, d: u64, n: u64) -> impl Iterator<Item = u64> {
    let first = i.saturating_mul(d).saturating_add(1);
    let last = i.saturating_mul(d).saturating_add(d);
    (first..=last.min(n.saturating_sub(1))).filter(move |_| first < n)
}

/// Parent of node `i > 0` in the degree-d tree.
pub fn dtree_parent(i: u64, d: u64) -> u64 {
    debug_assert!(i > 0);
    (i - 1) / d
}

/// Per-processor DTREE program.
pub struct DtreeProgram {
    d: u64,
    n: u64,
    /// `Some(m)` on the root.
    root_m: Option<u32>,
}

impl DtreeProgram {
    /// Creates the program for one processor of a degree-`d` tree over
    /// `n` nodes; `root_m` is `Some(m)` on `p_0`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64, n: u64, root_m: Option<u32>) -> DtreeProgram {
        assert!(d >= 1, "tree degree must be at least 1");
        DtreeProgram { d, n, root_m }
    }

    fn forward(&self, ctx: &mut dyn Context<MultiPacket>, msg: u32) {
        let me = ctx.me().index() as u64;
        for child in dtree_children(me, self.d, self.n) {
            ctx.send(
                ProcId::from(child as usize),
                MultiPacket { msg, range_size: 0 },
            );
        }
    }
}

impl Program<MultiPacket> for DtreeProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
        if let Some(m) = self.root_m {
            for msg in 1..=m {
                self.forward(ctx, msg);
            }
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<MultiPacket>,
        _from: ProcId,
        packet: MultiPacket,
    ) {
        self.forward(ctx, packet.msg);
    }
}

/// The *exact* running time of DTREE(d) — a sharpening of Lemma 18's
/// upper bound, derived from the structure of the event-driven run.
///
/// Every node forwards each message immediately on receipt, and (in the
/// BFS almost-full tree) a node's degree never exceeds its parent's, so
/// no output port ever backlogs. Message `M_k` therefore reaches node
/// `v` at
///
/// ```text
/// a_k(v) = (k−1)·deg(root) + Σ_{edges (u→w) on the path} (idx(w) + λ)
/// ```
///
/// where `idx(w)` is `w`'s 0-based position among `u`'s children, and
/// the completion time is `(m−1)·deg(root) + max_v Σ(idx + λ)`. Lemma
/// 18 upper-bounds `idx ≤ d−1` and the path length by `⌈log_d n⌉`.
///
/// # Panics
/// Panics if `n == 0`, `m == 0`, or `d == 0`.
pub fn dtree_exact_time(n: u128, m: u64, latency: Latency, d: u128) -> postal_model::Time {
    use postal_model::Time;
    assert!(n >= 1 && m >= 1 && d >= 1);
    if n == 1 {
        return Time::ZERO;
    }
    let n = n as u64;
    let d = d as u64;
    let deg_root = d.min(n - 1);
    // BFS over the tree accumulating per-node path cost c(v).
    let mut cost: Vec<Time> = vec![Time::ZERO; n as usize];
    let mut max_cost = Time::ZERO;
    for v in 0..n {
        for (idx, child) in dtree_children(v, d, n).enumerate() {
            let c = cost[v as usize] + Time::from_int(idx as i128) + latency.as_time();
            cost[child as usize] = c;
            max_cost = max_cost.max(c);
        }
    }
    Time::from_int((m as i128 - 1) * deg_root as i128) + max_cost
}

/// Builds the DTREE(d) programs for broadcasting `m` messages in
/// MPS(n, λ).
pub fn dtree_programs(n: usize, m: u32, d: u64) -> Vec<Box<dyn Program<MultiPacket>>> {
    programs_from(n, |id| {
        Box::new(DtreeProgram::new(
            d,
            n as u64,
            (id == ProcId::ROOT).then_some(m),
        ))
    })
}

/// Runs DTREE(d) and returns the verified-ready report.
pub fn run_dtree(n: usize, m: u32, latency: Latency, d: u64) -> MultiReport {
    run_multi(n, m, latency, dtree_programs(n, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{runtimes, Time};

    #[test]
    fn tree_structure() {
        assert_eq!(dtree_children(0, 3, 10).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(dtree_children(1, 3, 10).collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(dtree_children(2, 3, 10).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(
            dtree_children(3, 3, 10).collect::<Vec<_>>(),
            Vec::<u64>::new()
        );
        assert_eq!(dtree_parent(9, 3), 2);
        assert_eq!(dtree_parent(1, 3), 0);
        // Degree 1: a chain.
        assert_eq!(dtree_children(4, 1, 6).collect::<Vec<_>>(), vec![5]);
        // Star: all nodes are root's children.
        assert_eq!(
            dtree_children(0, 9, 10).collect::<Vec<_>>(),
            (1..=9).collect::<Vec<_>>()
        );
    }

    #[test]
    fn respects_lemma18_bound() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [2usize, 3, 7, 20, 50] {
                for m in [1u32, 2, 5] {
                    for d in [1u64, 2, 3, (n as u64 - 1).max(1)] {
                        let r = run_dtree(n, m, lam, d);
                        r.verify().unwrap();
                        let bound = runtimes::dtree_time_bound(n as u128, m as u64, lam, d as u128);
                        assert!(
                            r.completion() <= bound,
                            "λ={lam} n={n} m={m} d={d}: {} > {bound}",
                            r.completion()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn line_matches_closed_form_exactly() {
        for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
            for n in [2usize, 5, 17] {
                for m in [1u32, 4, 9] {
                    let r = run_dtree(n, m, lam, 1);
                    r.verify().unwrap();
                    assert_eq!(
                        r.completion(),
                        runtimes::line_time(n as u128, m as u64, lam),
                        "λ={lam} n={n} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn star_matches_closed_form_exactly() {
        for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
            for n in [2usize, 5, 17] {
                for m in [1u32, 4, 9] {
                    let r = run_dtree(n, m, lam, n as u64 - 1);
                    r.verify().unwrap();
                    assert_eq!(
                        r.completion(),
                        runtimes::star_time(n as u128, m as u64, lam),
                        "λ={lam} n={n} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_binary_tree_timing() {
        // n = 7, d = 2, m = 1, λ = 2: root sends at 0, 1 → p1, p2 receive
        // at 2, 3; they forward at 2, 3 and 3, 4 → the rightmost leaf p6
        // receives at 4 + λ = 6. The Lemma 18 bound gives
        // (d−1+λ)·⌈log₂ 7⌉ = 3·3 = 9 ≥ 6.
        let r = run_dtree(7, 1, Latency::from_int(2), 2);
        r.verify().unwrap();
        assert_eq!(r.completion(), Time::from_int(6));
    }

    #[test]
    fn line_is_best_degree_for_many_messages() {
        // d = 1 near-optimal when m → ∞ with n, λ fixed.
        let lam = Latency::from_int(2);
        let (n, m) = (8usize, 64u32);
        let line = run_dtree(n, m, lam, 1).completion();
        for d in [2u64, 3, 7] {
            let other = run_dtree(n, m, lam, d).completion();
            assert!(line <= other, "line {line} vs d={d} {other}");
        }
    }

    #[test]
    fn star_is_best_degree_for_huge_latency() {
        // d = n−1 near-optimal when λ → ∞ with n, m fixed.
        let lam = Latency::from_int(64);
        let (n, m) = (8usize, 2u32);
        let star = run_dtree(n, m, lam, n as u64 - 1).completion();
        for d in [1u64, 2, 3] {
            let other = run_dtree(n, m, lam, d).completion();
            assert!(star <= other, "star {star} vs d={d} {other}");
        }
    }

    #[test]
    fn latency_matched_degree_runs_clean() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(6),
        ] {
            let d = runtimes::latency_matched_degree(30, lam) as u64;
            let r = run_dtree(30, 4, lam, d);
            r.verify().unwrap();
        }
    }

    #[test]
    fn exact_analysis_matches_simulation() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_ratio(7, 3),
            Latency::from_int(4),
        ] {
            for n in [1usize, 2, 3, 7, 15, 16, 17, 40, 64] {
                for m in [1u32, 2, 5] {
                    for d in 1..=(n as u64).max(2) - 1 {
                        if n == 1 {
                            continue;
                        }
                        let r = run_dtree(n, m, lam, d);
                        let exact = dtree_exact_time(n as u128, m as u64, lam, d as u128);
                        assert_eq!(r.completion(), exact, "λ={lam} n={n} m={m} d={d}");
                        // The exact analysis sits below Lemma 18.
                        assert!(
                            exact
                                <= runtimes::dtree_time_bound(n as u128, m as u64, lam, d as u128)
                        );
                    }
                }
            }
        }
        assert_eq!(dtree_exact_time(1, 5, Latency::from_int(2), 3), Time::ZERO);
    }

    #[test]
    fn order_preserved_along_every_path() {
        let r = run_dtree(40, 6, Latency::from_ratio(5, 2), 3);
        r.verify().unwrap();
    }
}
