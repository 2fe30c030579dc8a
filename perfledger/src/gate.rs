//! The correctness gate: result digests, pinned digests, and the
//! conservation identities the public report exposes.

use crate::workload::Workload;
use gdisim_core::{Report, Simulation};

/// The seed `gdisim` runs with by default, and one held out from tuning.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 7;

/// Unit digests pinned at the commit that introduced this benchmark.
/// A change of simulated results shows here first; re-pinning is a
/// benchmark change of its own.
const PINNED: [(Workload, u64, u64); 6] = [
    (
        Workload::ConsolidatedDay,
        DEFAULT_SEED,
        0xa947_db3b_1c32_eaee,
    ),
    (
        Workload::ConsolidatedDay,
        HELD_OUT_SEED,
        0x49d7_ff33_0827_7727,
    ),
    (Workload::ChurnedHot, DEFAULT_SEED, 0xd76a_5edf_872e_96e4),
    (Workload::ChurnedHot, HELD_OUT_SEED, 0x941c_cb7d_315a_f298),
    // The Ch. 5 series sources draw no randomness: every seed gives the
    // same simulated run (the seed varies only the testbed reference).
    (
        Workload::ValidationSuite,
        DEFAULT_SEED,
        0x61b6_7bfd_eb41_62f9,
    ),
    (
        Workload::ValidationSuite,
        HELD_OUT_SEED,
        0x61b6_7bfd_eb41_62f9,
    ),
];

/// The pinned digest of `workload` at `seed`, if one is pinned.
fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}

/// FNV-1a over a byte stream: stable across toolchains, unlike std's
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of one report: a hash of its exact binary snapshot encoding.
pub fn report_digest(report: &Report) -> u64 {
    fnv1a(&gdisim_snap::to_bytes(report))
}

/// Digest of a unit: the segment digests hashed in order.
pub fn unit_digest(segments: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = segments.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Checks a unit's digest against the pin for its seed, if any.
pub fn check_pin(workload: Workload, seed: u64, digest: u64, failures: &mut Vec<String>) {
    if let Some(pin) = pinned(workload, seed) {
        if pin != digest {
            failures.push(format!(
                "digest {digest:#018x} differs from the pinned {pin:#018x} for seed {seed}"
            ));
        }
    }
}

/// Conservation identities and sanity bounds of one finished segment.
/// Every identity reads only the public report and engine accessors.
pub fn check_segment(
    workload: Workload,
    sim: &Simulation,
    end: gdisim_types::SimTime,
) -> Vec<String> {
    let r = sim.report();
    let mut bad = Vec::new();
    if sim.now() != end {
        bad.push(format!("run stopped at {} instead of {end}", sim.now()));
    }
    // Every failed attempt of a non-hedged operation is counted once by
    // cause (fault, shed, breaker) and once by verdict (retry, abandon).
    let by_cause =
        r.faults.failed_operations + r.resilience.shed_operations + r.resilience.breaker_rejections;
    let by_verdict = r.faults.retried_operations + r.faults.abandoned_operations;
    if by_cause != by_verdict {
        bad.push(format!(
            "failed attempts by cause ({by_cause}) != by verdict ({by_verdict})"
        ));
    }
    let h = &r.resilience;
    if h.hedge_wins > h.hedges_launched || h.hedges_cancelled > h.hedges_launched {
        bad.push(format!(
            "hedges: {} wins and {} cancelled out of {} launched",
            h.hedge_wins, h.hedges_cancelled, h.hedges_launched
        ));
    }
    if r.churn.repairs > r.churn.incidents {
        bad.push(format!(
            "churn: {} repairs of {} incidents",
            r.churn.repairs, r.churn.incidents
        ));
    }
    if r.responses.total_recorded() == 0 {
        bad.push("no response was recorded".into());
    }
    let utilizations = r
        .tier_cpu
        .values()
        .chain(r.tier_disk.values())
        .chain(r.wan_util.values())
        .chain(r.client_link_util.values());
    for series in utilizations {
        if let Some(v) = series
            .values()
            .iter()
            .find(|v| !(0.0..=1.0 + 1e-9).contains(*v))
        {
            bad.push(format!("utilization sample {v} outside [0, 1]"));
            break;
        }
    }
    for series in [&r.concurrent_clients, &r.active_operations] {
        if let Some(v) = series
            .values()
            .iter()
            .find(|v| !(v.is_finite() && **v >= 0.0))
        {
            bad.push(format!("population sample {v} is negative or not finite"));
        }
    }
    if workload == Workload::ChurnedHot && (r.churn.incidents == 0 || h.hedges_launched == 0) {
        bad.push("churned_hot exercised no churn incident or no hedge".into());
    }
    bad
}
