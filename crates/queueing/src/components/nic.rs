//! Network Interface Card: `M/M/1 – FCFS` (Fig. 3-6, left).

use crate::discipline::{FcfsMulti, Station};
use crate::job::JobToken;
use gdisim_types::{Kendall, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Datasheet specification of a NIC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicSpec {
    /// Line rate in bytes per second ("typically an order of magnitude
    /// slower than the network switch").
    pub rate_bytes_per_sec: f64,
}

impl NicSpec {
    /// Creates a spec from a byte rate.
    pub fn new(rate_bytes_per_sec: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0, "NIC rate must be positive");
        NicSpec { rate_bytes_per_sec }
    }

    /// The Kendall descriptor of this model.
    pub fn kendall(&self) -> Kendall {
        Kendall::mm1_fcfs()
    }
}

/// Runtime NIC model.
#[derive(Debug, Clone)]
pub struct NicModel {
    spec: NicSpec,
    queue: FcfsMulti,
}

impl NicModel {
    /// Builds the model from its spec.
    pub fn new(spec: NicSpec) -> Self {
        NicModel {
            queue: FcfsMulti::new(1, spec.rate_bytes_per_sec),
            spec,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &NicSpec {
        &self.spec
    }

    /// Nominal zero-contention service time for `bytes` at line rate
    /// (optrace attribution).
    pub fn nominal_service_secs(&self, bytes: f64) -> f64 {
        bytes / self.spec.rate_bytes_per_sec
    }
}

impl Station for NicModel {
    fn enqueue(&mut self, token: JobToken, bytes: f64, now: SimTime) {
        self.queue.enqueue(token, bytes, now);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        self.queue.tick(now, dt, completed);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.queue.account_idle(ticks, dt);
    }

    fn quiet_ticks(&self, next: SimTime, dt: SimDuration) -> u64 {
        self.queue.quiet_ticks(next, dt)
    }

    fn replay_quiet(&mut self, ticks: u64, dt: SimDuration) {
        self.queue.replay_quiet(ticks, dt);
    }

    fn collect_utilization(&mut self) -> f64 {
        self.queue.collect_utilization()
    }

    fn in_system(&self) -> usize {
        self.queue.in_system()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        self.queue.evict_all(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::units::mbps;

    #[test]
    fn transfer_time_matches_rate() {
        // 100 Mbps NIC = 12.5 MB/s; 125 KB takes 10 ms.
        let mut nic = NicModel::new(NicSpec::new(mbps(100.0)));
        nic.enqueue(JobToken(1), 125_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        nic.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)]);
        assert_eq!(nic.spec().kendall().to_string(), "M/M/1 - FCFS");
    }

    #[test]
    fn serializes_transfers() {
        let mut nic = NicModel::new(NicSpec::new(mbps(100.0)));
        nic.enqueue(JobToken(1), 125_000.0, SimTime::ZERO);
        nic.enqueue(JobToken(2), 125_000.0, SimTime::ZERO);
        let mut done = Vec::new();
        nic.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)], "single server serializes");
        assert_eq!(nic.in_system(), 1);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(NicSpec { rate_bytes_per_sec });
gdisim_snap::snap_struct!(NicModel { spec, queue });
