//! Golden-report digests for the storage-heavy runs.
//!
//! Each test hashes the exact binary snapshot encoding of a finished
//! run's report with FNV-1a and compares it with a digest pinned before
//! the storage stations learned to skip their idle sub-queues. The three
//! Ch. 5 validation experiments route every file read through shared
//! SANs; the churned run drives per-server RAIDs and, under a hot churn
//! model with `Drop` semantics, evicts in-flight disk work. Any change to
//! simulated results (a utilization's last bit, a response time, a
//! completion order) moves a digest, so a kernel optimisation that
//! claims to be bit-identical must leave all four untouched.

use gdisim_core::scenarios::{churned, validation};
use gdisim_core::{ChurnModel, ChurnProcess, InFlightPolicy, Report, Simulation};
use gdisim_types::SimTime;
use gdisim_workload::RetryPolicy;

/// FNV-1a over a byte stream: stable across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(report: &Report) -> u64 {
    fnv1a(&gdisim_snap::to_bytes(report))
}

fn validation_digest(experiment: usize) -> u64 {
    let mut sim = validation::build(validation::EXPERIMENTS[experiment], 42);
    sim.run_until(SimTime::ZERO + validation::HORIZON);
    digest(sim.report())
}

/// Servers fail about every two minutes and WAN links about every four;
/// `Drop` evicts whatever a failed server's RAID holds.
fn hot_churn_model() -> ChurnModel {
    ChurnModel {
        seed: 11,
        servers: Some(ChurnProcess {
            mtbf_secs: 120.0,
            mttr_secs: 20.0,
            fail_shape: Some(1.5),
            repair_shape: None,
        }),
        wan_links: Some(ChurnProcess {
            mtbf_secs: 240.0,
            mttr_secs: 15.0,
            fail_shape: None,
            repair_shape: None,
        }),
        domains: vec![],
        in_flight: Some(InFlightPolicy::Drop),
        retry: Some(RetryPolicy {
            timeout_secs: 30.0,
            max_retries: 3,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
            backoff_cap_secs: 10.0,
        }),
        slo_target: Some(0.99),
    }
}

fn churned_sim() -> Simulation {
    let mut sim = churned::build(42);
    sim.set_churn_model(hot_churn_model())
        .expect("the hot model names only churned-topology components");
    sim.set_resilience(churned::demo_resilience())
        .expect("the demo resilience bundle is valid");
    sim
}

#[test]
fn validation_experiment_1_report_is_pinned() {
    assert_eq!(validation_digest(0), 0x8552_f02d_29f9_4983);
}

#[test]
fn validation_experiment_2_report_is_pinned() {
    assert_eq!(validation_digest(1), 0x9589_6c06_685b_4f72);
}

#[test]
fn validation_experiment_3_report_is_pinned() {
    assert_eq!(validation_digest(2), 0xcd27_0884_2489_679a);
}

#[test]
fn churned_raid_run_with_evictions_is_pinned() {
    let mut sim = churned_sim();
    sim.run_until(SimTime::from_secs(20 * 60));
    assert!(
        sim.report().faults.dropped_messages > 0,
        "the hot model must evict in-flight work within 20 minutes"
    );
    assert_eq!(digest(sim.report()), 0x75c4_4dc2_f3c3_6fa0);
}
