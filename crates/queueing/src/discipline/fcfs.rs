//! Multi-server FCFS fluid queue — the `M/M/c – FCFS` workhorse used by
//! the CPU (Fig. 3-4), NIC and switch (Fig. 3-6) models.

use super::{quiet_horizon, Station, EPS};
use crate::job::{JobEntry, JobToken};
use gdisim_metrics::UtilizationMeter;
use gdisim_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A first-come-first-served queue with `c` identical servers, each
/// serving `rate` demand units per second.
#[derive(Debug, Clone)]
pub struct FcfsMulti {
    servers: Vec<Option<JobEntry>>,
    waiting: VecDeque<JobEntry>,
    rate: f64,
    meter: UtilizationMeter,
    /// Owner tick up to which the meter holds this queue's idle time.
    /// Only owners that tick the queue lazily (the storage stations'
    /// disk array) advance it; a queue ticked every step leaves it at 0.
    pub(crate) credited: u64,
    /// The least remaining demand in service (infinite when none), as
    /// left by the last tick: every in-service job then loses the same
    /// budget per quiet tick, and rounding is monotone, so the least
    /// stays least while the queue sleeps.
    least_in_service: f64,
    /// Whether the last tick left a server free.
    free_server: bool,
}

impl FcfsMulti {
    /// Creates a queue with `servers` servers of `rate` units/second each.
    ///
    /// # Panics
    /// Panics if `servers == 0` or `rate` is not positive — a mute queue
    /// is always a configuration bug.
    pub fn new(servers: u32, rate: f64) -> Self {
        assert!(servers > 0, "FCFS queue needs at least one server");
        assert!(
            rate > 0.0 && rate.is_finite(),
            "FCFS service rate must be positive"
        );
        FcfsMulti {
            servers: vec![None; servers as usize],
            waiting: VecDeque::new(),
            rate,
            meter: UtilizationMeter::new(),
            credited: 0,
            least_in_service: f64::INFINITY,
            free_server: true,
        }
    }

    /// Service rate per server, in demand units per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Jobs waiting (not yet in service).
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether the queue holds no job (cheaper than `in_system() == 0`).
    pub(crate) fn is_empty(&self) -> bool {
        self.waiting.is_empty() && self.least_in_service == f64::INFINITY
    }

    /// Whether a waiter sits behind a free server, so the next tick
    /// admits it.
    fn admits_next(&self) -> bool {
        self.free_server && !self.waiting.is_empty()
    }

    /// The least remaining demand in service (infinite when every server
    /// is free), or `None` when the next tick admits a waiter. O(1): the
    /// tick that shaped the servers recorded both.
    pub(crate) fn quiet_demand(&self) -> Option<f64> {
        (!self.admits_next()).then_some(self.least_in_service)
    }

    /// Credits the owner ticks `[credited, upto)`, all of which the queue
    /// spent empty, in one bulk idle addition, and moves the stamp to
    /// `upto`.
    pub(crate) fn credit_idle_to(&mut self, upto: u64, dt: SimDuration) {
        if upto > self.credited {
            self.account_idle(upto - self.credited, dt);
            self.credited = upto;
        }
    }

    /// Runs owner tick number `tick` lazily: an empty queue is skipped and
    /// its tick stays owed; a busy one first settles the idle ticks it is
    /// owed, then ticks. Bit-identical to ticking every step, since an
    /// empty tick records +0.0 busy time and whole microseconds of
    /// elapsed time.
    pub(crate) fn tick_lazy(
        &mut self,
        tick: u64,
        now: SimTime,
        dt: SimDuration,
        completed: &mut Vec<JobToken>,
    ) {
        if !self.is_empty() {
            self.tick_at(tick, now, dt, completed);
        }
    }

    /// Settles the owed idle ticks, then runs owner tick number `tick`.
    pub(crate) fn tick_at(
        &mut self,
        tick: u64,
        now: SimTime,
        dt: SimDuration,
        completed: &mut Vec<JobToken>,
    ) {
        self.credit_idle_to(tick, dt);
        self.tick(now, dt, completed);
        self.credited = tick + 1;
    }
}

impl Station for FcfsMulti {
    fn enqueue(&mut self, token: JobToken, demand: f64, now: SimTime) {
        self.waiting.push_back(JobEntry::new(token, demand, now));
    }

    fn tick(&mut self, _now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        let per_server_budget = self.rate * dt.as_secs_f64();
        if per_server_budget <= 0.0 {
            self.meter.record(0.0, self.servers.len() as f64, dt);
            return;
        }
        let mut used_units = 0.0;
        let (mut least, mut free) = (f64::INFINITY, false);
        for slot in &mut self.servers {
            let mut budget = per_server_budget;
            while budget > EPS {
                let job = match slot {
                    Some(j) => j,
                    None => match self.waiting.pop_front() {
                        Some(j) => slot.insert(j),
                        None => break,
                    },
                };
                let take = job.remaining.min(budget);
                job.remaining -= take;
                budget -= take;
                used_units += take;
                if job.remaining <= EPS {
                    completed.push(job.token);
                    *slot = None;
                }
            }
            match slot {
                Some(job) => least = least.min(job.remaining),
                None => free = true,
            }
        }
        self.least_in_service = least;
        self.free_server = free;
        let busy_servers = used_units / per_server_budget;
        self.meter
            .record(busy_servers, self.servers.len() as f64, dt);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        self.meter.record_idle(self.servers.len() as f64, dt, ticks);
    }

    fn quiet_ticks(&self, _next: SimTime, dt: SimDuration) -> u64 {
        match self.quiet_demand() {
            None => 0,
            Some(least) if least == f64::INFINITY => u64::MAX,
            Some(least) => quiet_horizon(least, self.rate * dt.as_secs_f64()),
        }
    }

    fn replay_quiet(&mut self, ticks: u64, dt: SimDuration) {
        // A quiet tick serves every busy server a full budget and leaves
        // the free ones free, so `tick`'s arithmetic reduces to this.
        let per_server_budget = self.rate * dt.as_secs_f64();
        let mut used_units = 0.0;
        for job in self.servers.iter_mut().flatten() {
            for _ in 0..ticks {
                job.remaining -= per_server_budget;
            }
            used_units += per_server_budget;
        }
        if self.least_in_service < f64::INFINITY {
            for _ in 0..ticks {
                self.least_in_service -= per_server_budget;
            }
        }
        let busy_servers = if per_server_budget > 0.0 {
            used_units / per_server_budget
        } else {
            0.0
        };
        let total = self.servers.len() as f64;
        for _ in 0..ticks {
            self.meter.record(busy_servers, total, dt);
        }
    }

    fn collect_utilization(&mut self) -> f64 {
        self.meter.collect()
    }

    fn in_system(&self) -> usize {
        self.waiting.len() + self.servers.iter().filter(|s| s.is_some()).count()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        for slot in &mut self.servers {
            if let Some(j) = slot.take() {
                into.push(j.token);
            }
        }
        into.extend(self.waiting.drain(..).map(|j| j.token));
        self.least_in_service = f64::INFINITY;
        self.free_server = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    fn drain(q: &mut FcfsMulti, ticks: u64) -> Vec<JobToken> {
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            q.tick(now, DT, &mut done);
            now += DT;
        }
        done
    }

    #[test]
    fn single_job_takes_demand_over_rate() {
        // rate 100 units/s, demand 1 unit -> 10 ms = exactly one tick.
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
        assert_eq!(q.in_system(), 0);
    }

    #[test]
    fn fifo_order_is_respected() {
        let mut q = FcfsMulti::new(1, 100.0);
        for i in 0..5 {
            q.enqueue(JobToken(i), 1.0, SimTime::ZERO);
        }
        let done = drain(&mut q, 5);
        assert_eq!(done, (0..5).map(JobToken).collect::<Vec<_>>());
    }

    #[test]
    fn work_conserving_within_tick() {
        // Two 0.5-unit jobs fit in one 1-unit tick budget on one server.
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 0.5, SimTime::ZERO);
        q.enqueue(JobToken(2), 0.5, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1), JobToken(2)]);
    }

    #[test]
    fn parallel_servers_serve_concurrently() {
        let mut q = FcfsMulti::new(2, 100.0);
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        q.enqueue(JobToken(2), 1.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(
            done.len(),
            2,
            "both servers should finish their job in one tick"
        );
    }

    #[test]
    fn long_job_spans_ticks() {
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 2.5, SimTime::ZERO);
        assert!(drain(&mut q, 2).is_empty());
        let done = drain(&mut q, 1);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut q = FcfsMulti::new(2, 100.0);
        // One server busy for one tick out of two ticks on two servers:
        // busy fraction = 1 / (2 * 2) = 0.25.
        q.enqueue(JobToken(1), 1.0, SimTime::ZERO);
        drain(&mut q, 2);
        let u = q.collect_utilization();
        assert!((u - 0.25).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn zero_demand_job_completes_immediately() {
        let mut q = FcfsMulti::new(1, 100.0);
        q.enqueue(JobToken(1), 0.0, SimTime::ZERO);
        let mut done = Vec::new();
        q.tick(SimTime::ZERO, DT, &mut done);
        assert_eq!(done, vec![JobToken(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        FcfsMulti::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        FcfsMulti::new(1, 0.0);
    }
}

// Checkpoint support: in-service slots, the waiting line, the
// mid-interval meter, the idle-credit stamp and the quiet-horizon inputs
// all roundtrip exactly.
gdisim_snap::snap_struct!(FcfsMulti {
    servers,
    waiting,
    rate,
    meter,
    credited,
    least_in_service,
    free_server,
});
