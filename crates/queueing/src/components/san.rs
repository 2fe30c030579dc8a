//! Storage Area Network (Fig. 3-8).
//!
//! Like the RAID, a SAN is an `n`-way fork-join of `Qdcc → Qhdd` disk
//! pipelines, but the fork is preceded by three queues: the fibre-channel
//! switch `Qfcsw`, the disk-array controller cache `Qdacc`, and the
//! fibre-channel arbitrated loop `Qfcal`. A cache hit in `Qdacc` bypasses
//! the loop and the fork-join structure. The fork-join back end is the
//! `DiskArray` the RAID shares.

use super::disk_array::{DiskArray, Disks};
use crate::discipline::Station;
use crate::job::JobToken;
use gdisim_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Datasheet specification of a SAN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanSpec {
    /// Number of disks `n`.
    pub disks: u32,
    /// Fibre-channel switch (`Qfcsw`) rate in bytes/second.
    pub fc_switch_rate: f64,
    /// Disk-array controller (`Qdacc`) rate in bytes/second.
    pub array_ctrl_rate: f64,
    /// `Qdacc` cache hit rate.
    pub array_cache_hit: f64,
    /// Fibre-channel arbitrated loop (`Qfcal`) rate in bytes/second.
    pub fc_loop_rate: f64,
    /// Per-disk controller (`Qdcc`) rate in bytes/second.
    pub disk_ctrl_rate: f64,
    /// `Qdcc` cache hit rate.
    pub disk_cache_hit: f64,
    /// Drive (`Qhdd`) sustained rate in bytes/second.
    pub disk_rate: f64,
}

impl SanSpec {
    /// Creates a spec, clamping hit rates to `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        disks: u32,
        fc_switch_rate: f64,
        array_ctrl_rate: f64,
        array_cache_hit: f64,
        fc_loop_rate: f64,
        disk_ctrl_rate: f64,
        disk_cache_hit: f64,
        disk_rate: f64,
    ) -> Self {
        assert!(disks > 0, "SAN needs at least one disk");
        assert!(
            fc_switch_rate > 0.0
                && array_ctrl_rate > 0.0
                && fc_loop_rate > 0.0
                && disk_ctrl_rate > 0.0
                && disk_rate > 0.0,
            "SAN rates must be positive"
        );
        SanSpec {
            disks,
            fc_switch_rate,
            array_ctrl_rate,
            array_cache_hit: array_cache_hit.clamp(0.0, 1.0),
            fc_loop_rate,
            disk_ctrl_rate,
            disk_cache_hit: disk_cache_hit.clamp(0.0, 1.0),
            disk_rate,
        }
    }
}

/// Runtime SAN model: switch, array controller cache and loop in front
/// of the disk array.
#[derive(Clone)]
pub struct SanModel {
    spec: SanSpec,
    pub(super) array: DiskArray,
}

impl SanModel {
    /// Builds the model from its spec with a deterministic seed.
    pub fn new(spec: SanSpec, seed: u64) -> Self {
        let front = [spec.fc_switch_rate, spec.array_ctrl_rate, spec.fc_loop_rate];
        let disks = Disks {
            count: spec.disks,
            ctrl_rate: spec.disk_ctrl_rate,
            cache_hit: spec.disk_cache_hit,
            rate: spec.disk_rate,
        };
        SanModel {
            array: DiskArray::new(&front, 1, spec.array_cache_hit, disks, seed),
            spec,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &SanSpec {
        &self.spec
    }

    /// Average drive utilization since the last collection (resets).
    pub fn collect_drive_utilization(&mut self) -> f64 {
        self.array.collect_drive_utilization()
    }

    /// Nominal zero-contention service time for `bytes`: the expected
    /// cache-weighted sum over the switch → controller → loop →
    /// disk-controller → drive pipeline with `bytes / n` stripes
    /// (optrace attribution; an expectation, since cache hits are
    /// drawn per request).
    pub fn nominal_service_secs(&self, bytes: f64) -> f64 {
        let stripe = bytes / self.spec.disks as f64;
        let miss = 1.0 - self.spec.array_cache_hit;
        let disk_miss = 1.0 - self.spec.disk_cache_hit;
        bytes / self.spec.fc_switch_rate
            + bytes / self.spec.array_ctrl_rate
            + miss
                * (bytes / self.spec.fc_loop_rate
                    + stripe / self.spec.disk_ctrl_rate
                    + disk_miss * stripe / self.spec.disk_rate)
    }
}

impl Station for SanModel {
    fn enqueue(&mut self, token: JobToken, bytes: f64, now: SimTime) {
        self.array.enqueue(token, bytes, now);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        self.array.tick(now, dt, completed);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.array.account_idle(ticks, dt);
    }

    fn quiet_ticks(&self, next: SimTime, dt: SimDuration) -> u64 {
        self.array.quiet_ticks(next, dt)
    }

    fn replay_quiet(&mut self, ticks: u64, dt: SimDuration) {
        self.array.replay_quiet(ticks, dt);
    }

    fn collect_utilization(&mut self) -> f64 {
        // Report the fibre-channel switch, the SAN's entry bottleneck;
        // the controller and loop meters reset alongside it, and drives
        // are exposed separately.
        self.array.collect_utilization()
    }

    fn in_system(&self) -> usize {
        self.array.in_system()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        self.array.evict_all(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::{gbps, mb_per_s};

    const DT: SimDuration = SimDuration::from_millis(10);

    fn run(s: &mut SanModel, ticks: u64) -> Vec<JobToken> {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            s.tick(now, DT, &mut done);
            now += DT;
        }
        done
    }

    fn spec_no_cache(disks: u32) -> SanSpec {
        SanSpec::new(
            disks,
            gbps(8.0),
            gbps(4.0),
            0.0,
            gbps(4.0),
            gbps(2.0),
            0.0,
            mb_per_s(120.0),
        )
    }

    #[test]
    fn full_path_is_five_stages() {
        // 1.2 MB request, 2 disks: every front queue serves < 10 ms, the
        // 0.6 MB stripes take 5 ms at the drive. Path length = 5 ticks
        // (switch, ctrl, loop, disk ctrl, drive).
        let mut s = SanModel::new(spec_no_cache(2), 3);
        s.enqueue(JobToken(1), 1.2e6, SimTime::ZERO);
        assert!(run(&mut s, 4).is_empty());
        assert_eq!(run(&mut s, 1), vec![JobToken(1)]);
    }

    #[test]
    fn array_cache_hit_skips_loop_and_disks() {
        let spec = SanSpec {
            array_cache_hit: 1.0,
            ..spec_no_cache(2)
        };
        let mut s = SanModel::new(spec, 3);
        s.enqueue(JobToken(1), 1.2e6, SimTime::ZERO);
        // switch (tick 1) + array ctrl (tick 2) only.
        assert!(run(&mut s, 1).is_empty());
        assert_eq!(run(&mut s, 1), vec![JobToken(1)]);
    }

    #[test]
    fn many_jobs_complete_exactly_once() {
        let mut s = SanModel::new(spec_no_cache(4), 3);
        for i in 0..10 {
            s.enqueue(JobToken(i), 1.2e6, SimTime::ZERO);
        }
        let done = run(&mut s, 200);
        assert_eq!(done.len(), 10);
        let mut sorted: Vec<u64> = done.iter().map(|t| t.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(s.in_system(), 0);
    }

    #[test]
    fn partial_cache_mixes_paths() {
        let spec = SanSpec {
            array_cache_hit: 0.5,
            ..spec_no_cache(2)
        };
        let mut s = SanModel::new(spec, 42);
        for i in 0..100 {
            s.enqueue(JobToken(i), 1.2e6, SimTime::ZERO);
        }
        let done = run(&mut s, 5000);
        assert_eq!(done.len(), 100);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(SanSpec {
    disks,
    fc_switch_rate,
    array_ctrl_rate,
    array_cache_hit,
    fc_loop_rate,
    disk_ctrl_rate,
    disk_cache_hit,
    disk_rate,
});
gdisim_snap::snap_struct!(SanModel { spec, array });
