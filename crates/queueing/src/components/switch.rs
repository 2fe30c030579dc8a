//! Network switch: `M/M/1 – FCFS` (Fig. 3-6, center).

use crate::discipline::{FcfsMulti, Station};
use crate::job::JobToken;
use gdisim_types::{Kendall, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Datasheet specification of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchSpec {
    /// Backplane rate in bytes per second.
    pub rate_bytes_per_sec: f64,
}

impl SwitchSpec {
    /// Creates a spec from a byte rate.
    pub fn new(rate_bytes_per_sec: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0, "switch rate must be positive");
        SwitchSpec { rate_bytes_per_sec }
    }

    /// The Kendall descriptor of this model.
    pub fn kendall(&self) -> Kendall {
        Kendall::mm1_fcfs()
    }
}

/// Runtime switch model.
#[derive(Debug, Clone)]
pub struct SwitchModel {
    spec: SwitchSpec,
    queue: FcfsMulti,
}

impl SwitchModel {
    /// Builds the model from its spec.
    pub fn new(spec: SwitchSpec) -> Self {
        SwitchModel {
            queue: FcfsMulti::new(1, spec.rate_bytes_per_sec),
            spec,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &SwitchSpec {
        &self.spec
    }

    /// Nominal zero-contention service time for `bytes` at backplane
    /// rate (optrace attribution).
    pub fn nominal_service_secs(&self, bytes: f64) -> f64 {
        bytes / self.spec.rate_bytes_per_sec
    }
}

impl Station for SwitchModel {
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
    use gdisim_types::units::gbps;

    #[test]
    fn switch_is_faster_than_nic() {
        // A 10 Gbps switch moves 12.5 MB in 10 ms.
        let mut sw = SwitchModel::new(SwitchSpec::new(gbps(10.0)));
        sw.enqueue(JobToken(1), 12.5e6, SimTime::ZERO);
        let mut done = Vec::new();
        sw.tick(SimTime::ZERO, SimDuration::from_millis(10), &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(SwitchSpec { rate_bytes_per_sec });
gdisim_snap::snap_struct!(SwitchModel { spec, queue });
