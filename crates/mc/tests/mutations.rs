//! Mutation tests: each fault-injection class must be flagged with its
//! specific lint code — and with *only* the codes its fault implies.

use postal_algos::registry::Algo;
use postal_mc::{check_algo, check_programs, McConfig, Mutation};
use postal_model::lint::{LintCode, LintOptions};
use postal_model::{Latency, Time};
use postal_sim::{Context, ProcId, Program};

fn codes(rep: &postal_mc::CheckReport) -> Vec<LintCode> {
    rep.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn drop_delivery_is_flagged_p0009() {
    let m = Mutation::DropDelivery { seq: 0 };
    assert_eq!(m.expected_code(), LintCode::LostFlight);
    let rep = check_algo(
        Algo::Bcast,
        6,
        1,
        Latency::from_int(2),
        Some(m),
        &McConfig::default(),
    );
    assert!(
        codes(&rep).contains(&LintCode::LostFlight),
        "diagnostics: {:?}",
        rep.diagnostics
    );
    // The drop is not a deadlock and not a window breach.
    assert!(!codes(&rep).contains(&LintCode::Deadlock));
    assert!(!codes(&rep).contains(&LintCode::LatencyWindowViolation));
}

#[test]
fn stall_port_is_flagged_p0008() {
    let m = Mutation::StallPort {
        proc: 1,
        after: Time::ZERO,
    };
    assert_eq!(m.expected_code(), LintCode::Deadlock);
    let rep = check_algo(
        Algo::Bcast,
        6,
        1,
        Latency::from_int(2),
        Some(m),
        &McConfig::default(),
    );
    assert!(
        codes(&rep).contains(&LintCode::Deadlock),
        "diagnostics: {:?}",
        rep.diagnostics
    );
    let d = rep
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::Deadlock)
        .unwrap();
    assert_eq!(d.proc, Some(1), "the stuck processor is named");
}

#[test]
fn shift_delivery_earlier_is_flagged_p0011() {
    let m = Mutation::ShiftDeliveryEarlier {
        seq: 0,
        by: Time::new(1, 2),
    };
    assert_eq!(m.expected_code(), LintCode::LatencyWindowViolation);
    let rep = check_algo(
        Algo::Bcast,
        6,
        1,
        Latency::from_ratio(5, 2),
        Some(m),
        &McConfig::default(),
    );
    assert!(
        codes(&rep).contains(&LintCode::LatencyWindowViolation),
        "diagnostics: {:?}",
        rep.diagnostics
    );
    assert!(!codes(&rep).contains(&LintCode::LostFlight));
    assert!(!codes(&rep).contains(&LintCode::Deadlock));
}

/// Two peers fire at p0 in the same instant: the minimal racy workload.
/// (Its overlapping input windows also carry the schedule-level
/// `P0002`, which is expected and asserted — the point of the model
/// checker is the *additional* whole-state-space codes.)
struct Fire;
impl Program<u32> for Fire {
    fn on_start(&mut self, ctx: &mut dyn Context<u32>) {
        if ctx.me() != ProcId::ROOT {
            ctx.send(ProcId::ROOT, ctx.me().0);
        }
    }
    fn on_receive(&mut self, _: &mut dyn Context<u32>, _: ProcId, _: u32) {}
}

fn racy_factory() -> Vec<Box<dyn Program<u32>>> {
    (0..3)
        .map(|_| Box::new(Fire) as Box<dyn Program<u32>>)
        .collect()
}

#[test]
fn order_sensitive_receiver_is_flagged_p0010() {
    let m = Mutation::OrderSensitiveReceiver { proc: 0 };
    assert_eq!(m.expected_code(), LintCode::NondeterministicCompletion);
    let rep = check_programs(
        "racy",
        3,
        1,
        Latency::from_int(2),
        racy_factory,
        Some(m),
        &LintOptions::ports_only(),
        &McConfig::default(),
    );
    assert!(
        codes(&rep).contains(&LintCode::NondeterministicCompletion),
        "diagnostics: {:?}",
        rep.diagnostics
    );
    assert!(rep.completions.len() > 1, "expected divergent completions");
    assert!(rep.stats.executions >= 2);
}

#[test]
fn racy_baseline_without_mutation_has_no_p0010() {
    // The same racing workload, unmutated: both orders are explored,
    // the race is reported, but completion is order-insensitive — no
    // P0010. The overlapping windows still carry P0002 from the re-lint.
    let rep = check_programs(
        "racy",
        3,
        1,
        Latency::from_int(2),
        racy_factory,
        None,
        &LintOptions::ports_only(),
        &McConfig::default(),
    );
    assert_eq!(rep.stats.executions, 2);
    assert!(rep.races > 0, "the delivery race itself is visible");
    assert!(!codes(&rep).contains(&LintCode::NondeterministicCompletion));
    assert!(!codes(&rep).contains(&LintCode::Deadlock));
    assert!(!codes(&rep).contains(&LintCode::LostFlight));
    assert!(codes(&rep).contains(&LintCode::InputWindowOverlap));
}

#[test]
fn every_mutation_class_maps_to_a_distinct_code() {
    let all = [
        Mutation::DropDelivery { seq: 0 },
        Mutation::StallPort {
            proc: 0,
            after: Time::ZERO,
        },
        Mutation::ShiftDeliveryEarlier {
            seq: 0,
            by: Time::ONE,
        },
        Mutation::OrderSensitiveReceiver { proc: 0 },
    ];
    let mut seen: Vec<LintCode> = all.iter().map(|m| m.expected_code()).collect();
    seen.sort_by_key(|c| c.as_str());
    seen.dedup();
    assert_eq!(seen.len(), 4);
    for m in all {
        assert!(!m.name().is_empty());
    }
}
