//! Infinite-server station (`M/G/∞`).
//!
//! Client holons do not contend with each other: every client runs on its
//! own machine, so client-side `Rp` cycles translate into a pure service
//! time with no queueing. An infinite-server station serves every job in
//! parallel at the configured rate — the natural model for a population
//! of client machines aggregated into one agent.

use super::{quiet_horizon, Station, EPS};
use crate::job::{JobEntry, JobToken};
use gdisim_metrics::GaugeMeter;
use gdisim_types::{SimDuration, SimTime};

/// Serves all jobs simultaneously, each at `rate` units/second.
#[derive(Debug, Clone)]
pub struct InfiniteServer {
    jobs: Vec<JobEntry>,
    rate: f64,
    gauge: GaugeMeter,
    /// The least remaining demand among `jobs` (infinite when none),
    /// kept exact: every job loses the same budget, and rounding is
    /// monotone, so the least stays least.
    min_job: f64,
}

impl InfiniteServer {
    /// Creates an infinite-server station with per-job service `rate`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "service rate must be positive"
        );
        InfiniteServer {
            jobs: Vec::new(),
            rate,
            gauge: GaugeMeter::new(),
            min_job: f64::INFINITY,
        }
    }

    /// Per-job service rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Station for InfiniteServer {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        let job = JobEntry::new(token, demand, now);
        self.min_job = self.min_job.min(job.remaining);
        self.jobs.push(job);
    }

    fn tick(&mut self, _now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        let budget = self.rate * dt.as_secs_f64();
        let mut min_left = f64::INFINITY;
        self.jobs.retain_mut(|j| {
            j.remaining -= budget;
            if j.remaining <= EPS {
                completed.push(j.token);
                false
            } else {
                min_left = min_left.min(j.remaining);
                true
            }
        });
        self.min_job = min_left;
        self.gauge.set(self.jobs.len() as f64);
        self.gauge.advance(dt);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        // Empty station: the gauge already sits at zero, so only time advances.
        self.gauge.advance_by(dt, ticks);
    }

    fn quiet_ticks(&self, _next: SimTime, dt: SimDuration) -> u64 {
        if self.jobs.is_empty() {
            return u64::MAX;
        }
        quiet_horizon(self.min_job, self.rate * dt.as_secs_f64())
    }

    fn replay_quiet(&mut self, ticks: u64, dt: SimDuration) {
        let budget = self.rate * dt.as_secs_f64();
        for j in &mut self.jobs {
            for _ in 0..ticks {
                j.remaining -= budget;
            }
        }
        if !self.jobs.is_empty() {
            for _ in 0..ticks {
                self.min_job -= budget;
            }
        }
        let level = self.jobs.len() as f64;
        for _ in 0..ticks {
            self.gauge.set(level);
            self.gauge.advance(dt);
        }
    }

    fn collect_utilization(&mut self) -> f64 {
        // No finite capacity: report the average number of jobs in service.
        self.gauge.collect()
    }

    fn in_system(&self) -> usize {
        self.jobs.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        into.extend(self.jobs.drain(..).map(|j| j.token));
        self.gauge.set(0.0);
        self.min_job = f64::INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn all_jobs_progress_in_parallel() {
        let mut s = InfiniteServer::new(100.0);
        for i in 0..50 {
            s.enqueue(JobToken(i), 1.0, SimTime::ZERO);
        }
        let mut done = Vec::new();
        s.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done.len(), 50, "no contention: everyone finishes together");
    }

    #[test]
    fn service_time_is_demand_over_rate() {
        let mut s = InfiniteServer::new(100.0);
        s.enqueue(JobToken(1), 2.5, SimTime::ZERO);
        let mut done = Vec::new();
        for _ in 0..2 {
            s.tick(SimTime::ZERO, DT, &mut done);
        }
        assert!(done.is_empty());
        s.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn gauge_tracks_population() {
        let mut s = InfiniteServer::new(1.0);
        s.enqueue(JobToken(1), 100.0, SimTime::ZERO);
        s.enqueue(JobToken(2), 100.0, SimTime::ZERO);
        let mut done = Vec::new();
        s.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(s.in_system(), 2);
        assert!((s.collect_utilization() - 2.0).abs() < 1e-9);
    }
}

// Checkpoint support.
gdisim_snap::snap_struct!(InfiniteServer {
    jobs,
    rate,
    gauge,
    min_job,
});
