//! The fork-join disk array behind the RAID (Fig. 3-7) and SAN (Fig. 3-8)
//! models.
//!
//! A request first passes a chain of front-end FCFS stages. One of them
//! is the disk-array controller cache `Qdacc`: a hit there completes the
//! request at once. A request that leaves the last front stage is
//! striped equally over `n` disks, each a two-stage pipeline of its
//! controller cache `Qdcc` (whose hits bypass the platter) and the drive
//! `Qhdd`. The request completes when every stripe has been served.
//!
//! # Ticking only the busy sub-queues
//!
//! A request occupies one front stage, or one stage per disk, at a time,
//! so on most ticks most sub-queues of a busy array are empty. The array
//! applies the engine's active-set rule (DESIGN §4.1) inside itself: it
//! ticks a sub-queue only while the sub-queue holds work. Each sub-queue
//! carries the array tick up to which its meter has been credited; the
//! empty ticks it skipped are added in one bulk idle record when it next
//! runs with work or when its meter is collected. An empty tick records
//! exactly +0.0 busy time and a whole number of microseconds of elapsed
//! time, so every meter ends bit-identical to ticking each sub-queue on
//! every step. Cache draws happen only on stage completions, which keep
//! their order: drives `0..n`, then controllers `0..n`, then the front
//! stages from last to first.

use crate::discipline::{shortest_horizon, FcfsMulti, Station};
use crate::job::JobToken;
use crate::rng::SplitMix64;
use gdisim_types::{SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One in-flight request.
#[derive(Debug, Clone, Copy)]
struct ArrayJob {
    /// Request size in bytes; each stripe is `bytes / n`.
    bytes: f64,
    /// Stripes not yet served (0 until the request forks).
    outstanding: u32,
}

/// Front-end chain plus `n`-way `Qdcc → Qhdd` fork-join, ticked lazily.
#[derive(Clone)]
pub(crate) struct DiskArray {
    /// Front-end stages in path order.
    front: Vec<FcfsMulti>,
    /// Index in `front` of the array controller cache.
    cache_stage: usize,
    array_cache_hit: f64,
    disk_cache_hit: f64,
    disk_ctrl: Vec<FcfsMulti>,
    disk_drive: Vec<FcfsMulti>,
    jobs: HashMap<JobToken, ArrayJob>,
    rng: SplitMix64,
    /// Ticks elapsed on this array, skipped idle ticks included.
    ticks: u64,
    /// Length of every tick owed to a sub-queue's meter.
    dt: SimDuration,
    /// Completions of the sub-queue being ticked (reused allocation).
    scratch: Vec<JobToken>,
}

/// Datasheet figures of the disks behind the fork.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Disks {
    pub count: u32,
    pub ctrl_rate: f64,
    pub cache_hit: f64,
    pub rate: f64,
}

impl DiskArray {
    /// An idle array: one single-server front stage per rate in
    /// `front_rates`, the array cache at `cache_stage`, then `disks`.
    pub(crate) fn new(
        front_rates: &[f64],
        cache_stage: usize,
        array_cache_hit: f64,
        disks: Disks,
        seed: u64,
    ) -> Self {
        assert!(cache_stage < front_rates.len());
        DiskArray {
            front: front_rates.iter().map(|&r| FcfsMulti::new(1, r)).collect(),
            cache_stage,
            array_cache_hit,
            disk_cache_hit: disks.cache_hit,
            disk_ctrl: (0..disks.count)
                .map(|_| FcfsMulti::new(1, disks.ctrl_rate))
                .collect(),
            disk_drive: (0..disks.count)
                .map(|_| FcfsMulti::new(1, disks.rate))
                .collect(),
            jobs: HashMap::new(),
            rng: SplitMix64::new(seed),
            ticks: 0,
            dt: SimDuration::ZERO,
            scratch: Vec::new(),
        }
    }

    /// Settles every sub-queue's owed idle ticks if the tick length
    /// changes, so owed ticks are always credited at the length they had.
    fn use_dt(&mut self, dt: SimDuration) {
        if dt != self.dt {
            let (upto, old) = (self.ticks, self.dt);
            for q in self.queues_mut() {
                q.credit_idle_to(upto, old);
            }
            self.dt = dt;
        }
    }

    fn queues(&self) -> impl Iterator<Item = &FcfsMulti> {
        self.front
            .iter()
            .chain(self.disk_ctrl.iter())
            .chain(self.disk_drive.iter())
    }

    fn queues_mut(&mut self) -> impl Iterator<Item = &mut FcfsMulti> {
        self.front
            .iter_mut()
            .chain(self.disk_ctrl.iter_mut())
            .chain(self.disk_drive.iter_mut())
    }

    /// One stripe of `token` finished; completes the request on its last.
    fn join_stripe(
        jobs: &mut HashMap<JobToken, ArrayJob>,
        token: JobToken,
        completed: &mut Vec<JobToken>,
    ) {
        let Entry::Occupied(mut job) = jobs.entry(token) else {
            panic!("stripe completed without a join entry");
        };
        job.get_mut().outstanding -= 1;
        if job.get().outstanding == 0 {
            job.remove();
            completed.push(token);
        }
    }

    /// Advances one tick. `EAGER` ticks every sub-queue (the reference
    /// the tests compare against); the model itself skips empty ones.
    fn advance<const EAGER: bool>(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        completed: &mut Vec<JobToken>,
    ) {
        self.use_dt(dt);
        let tick = self.ticks;
        let run = |q: &mut FcfsMulti, scratch: &mut Vec<JobToken>| {
            scratch.clear();
            if EAGER {
                q.tick_at(tick, now, dt, scratch);
            } else {
                q.tick_lazy(tick, now, dt, scratch);
            }
        };
        let n = self.disk_drive.len();
        // Back to front, so a request advances at most one stage per tick.
        for i in 0..n {
            run(&mut self.disk_drive[i], &mut self.scratch);
            for &token in &self.scratch {
                Self::join_stripe(&mut self.jobs, token, completed);
            }
        }
        for i in 0..n {
            run(&mut self.disk_ctrl[i], &mut self.scratch);
            for &token in &self.scratch {
                if self.rng.bernoulli(self.disk_cache_hit) {
                    Self::join_stripe(&mut self.jobs, token, completed);
                } else {
                    let stripe = self.jobs[&token].bytes / n as f64;
                    self.disk_drive[i].enqueue(token, stripe, now);
                }
            }
        }
        for stage in (0..self.front.len()).rev() {
            run(&mut self.front[stage], &mut self.scratch);
            for &token in &self.scratch {
                if stage == self.cache_stage && self.rng.bernoulli(self.array_cache_hit) {
                    self.jobs.remove(&token);
                    completed.push(token);
                } else if let Some(next) = self.front.get_mut(stage + 1) {
                    next.enqueue(token, self.jobs[&token].bytes, now);
                } else {
                    let job = self.jobs.get_mut(&token).expect("forked job has an entry");
                    job.outstanding = n as u32;
                    let stripe = job.bytes / n as f64;
                    for ctrl in &mut self.disk_ctrl {
                        ctrl.enqueue(token, stripe, now);
                    }
                }
            }
        }
        self.ticks += 1;
    }

    /// Average drive utilization since the last collection (resets).
    pub(crate) fn collect_drive_utilization(&mut self) -> f64 {
        let (upto, dt) = (self.ticks, self.dt);
        let n = self.disk_drive.len() as f64;
        self.disk_drive
            .iter_mut()
            .map(|d| {
                d.credit_idle_to(upto, dt);
                d.collect_utilization()
            })
            .sum::<f64>()
            / n
    }
}

impl Station for DiskArray {
    fn enqueue(&mut self, token: JobToken, bytes: f64, now: SimTime) {
        self.jobs.insert(
            token,
            ArrayJob {
                bytes,
                outstanding: 0,
            },
        );
        self.front[0].enqueue(token, bytes, now);
    }

    fn tick(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        self.advance::<false>(now, dt, completed);
    }

    fn account_idle(&mut self, ticks: u64, dt: SimDuration) {
        // Every sub-queue is empty: the ticks become owed credit.
        self.use_dt(dt);
        self.ticks += ticks;
    }

    /// The shortest horizon of the busy sub-queues: any stage completion
    /// is a hand-off (and a cache draw) that must run for real.
    fn quiet_ticks(&self, next: SimTime, dt: SimDuration) -> u64 {
        shortest_horizon(
            self.queues()
                .filter(|q| !q.is_empty())
                .map(|q| q.quiet_ticks(next, dt)),
        )
    }

    /// Replays the busy sub-queues exactly as `tick_lazy` would have run
    /// them; the empty ones stay empty and keep their ticks owed.
    fn replay_quiet(&mut self, ticks: u64, dt: SimDuration) {
        if ticks > 0 {
            // A quiet tick leaves the last sub-queue's completions empty.
            self.scratch.clear();
        }
        self.use_dt(dt);
        let tick = self.ticks;
        for q in self.queues_mut().filter(|q| !q.is_empty()) {
            q.credit_idle_to(tick, dt);
            q.replay_quiet(ticks, dt);
            q.credited = tick + ticks;
        }
        self.ticks += ticks;
    }

    /// Utilization of the entry stage since the last collection; every
    /// front stage's meter resets.
    fn collect_utilization(&mut self) -> f64 {
        let (upto, dt) = (self.ticks, self.dt);
        let mut entry = 0.0;
        for (stage, q) in self.front.iter_mut().enumerate() {
            q.credit_idle_to(upto, dt);
            let u = q.collect_utilization();
            if stage == 0 {
                entry = u;
            }
        }
        entry
    }

    fn in_system(&self) -> usize {
        self.jobs.len()
    }

    fn evict_all(&mut self, into: &mut Vec<JobToken>) {
        let mut discard = std::mem::take(&mut self.scratch);
        for q in self.queues_mut() {
            q.evict_all(&mut discard);
        }
        discard.clear();
        self.scratch = discard;
        // `jobs` holds every in-flight request exactly once; sort for
        // determinism (it is hash-ordered).
        let start = into.len();
        into.extend(self.jobs.drain().map(|(t, _)| t));
        into[start..].sort_unstable();
    }
}

// Checkpoint support. Between steps `scratch` holds at most the last
// sub-queue's completions, which the next tick clears; it still
// roundtrips so the struct stays fully covered.
gdisim_snap::snap_struct!(ArrayJob { bytes, outstanding });
gdisim_snap::snap_struct!(DiskArray {
    front,
    cache_stage,
    array_cache_hit,
    disk_cache_hit,
    disk_ctrl,
    disk_drive,
    jobs,
    rng,
    ticks,
    dt,
    scratch,
});

#[cfg(test)]
impl DiskArray {
    /// The reference model: ticks every sub-queue on every step.
    fn tick_eager(&mut self, now: SimTime, dt: SimDuration, completed: &mut Vec<JobToken>) {
        self.advance::<true>(now, dt, completed);
    }

    /// The reference model: credits an idle span to every sub-queue at
    /// once.
    fn account_idle_eager(&mut self, ticks: u64, dt: SimDuration) {
        self.account_idle(ticks, dt);
        let upto = self.ticks;
        for q in self.queues_mut() {
            q.credit_idle_to(upto, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{RaidModel, RaidSpec, SanModel, SanSpec};
    use gdisim_types::units::{gbps, mb_per_s};
    use proptest::prelude::*;

    const DT: SimDuration = SimDuration::from_millis(10);

    /// Drives a lazy array and its eager reference through the same
    /// operations and asserts they never differ observably. Each op is
    /// `(kind, count, size)`.
    fn check_against_eager(mut lazy: DiskArray, ops: &[(u8, u64, f64)]) {
        let mut eager = lazy.clone();
        let (mut lazy_done, mut eager_done) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let mut next_token = 0;
        for &(kind, count, size) in ops {
            match kind {
                0..=3 => {
                    for _ in 0..count % 4 + 1 {
                        let token = JobToken(next_token);
                        next_token += 1;
                        lazy.enqueue(token, size * 4e6, now);
                        eager.enqueue(token, size * 4e6, now);
                    }
                }
                4..=6 => {
                    // Odd sizes tick at half length, which settles the
                    // owed credit at the old length first.
                    let dt = if size < 0.1 { DT / 2 } else { DT };
                    for _ in 0..count % 20 + 1 {
                        lazy.tick(now, dt, &mut lazy_done);
                        eager.tick_eager(now, dt, &mut eager_done);
                        now += dt;
                    }
                }
                7 if lazy.in_system() == 0 => {
                    // The engine credits idle gaps only to empty agents.
                    let ticks = count % 500 + 1;
                    lazy.account_idle(ticks, DT);
                    eager.account_idle_eager(ticks, DT);
                    now += DT * ticks;
                }
                7 | 8 => {
                    assert_eq!(
                        lazy.collect_utilization().to_bits(),
                        eager.collect_utilization().to_bits()
                    );
                    assert_eq!(
                        lazy.collect_drive_utilization().to_bits(),
                        eager.collect_drive_utilization().to_bits()
                    );
                }
                9 => {
                    lazy.evict_all(&mut lazy_done);
                    eager.evict_all(&mut eager_done);
                }
                _ => {
                    // Checkpoint mid-run, idle credit possibly still owed.
                    lazy = gdisim_snap::from_bytes(&gdisim_snap::to_bytes(&lazy))
                        .expect("disk array roundtrips");
                }
            }
            assert_eq!(lazy_done, eager_done, "completion order");
            assert_eq!(lazy.in_system(), eager.in_system());
        }
        assert_eq!(
            lazy.collect_utilization().to_bits(),
            eager.collect_utilization().to_bits()
        );
        assert_eq!(
            lazy.collect_drive_utilization().to_bits(),
            eager.collect_drive_utilization().to_bits()
        );
    }

    fn raid(disks: u32, array_hit: f64, disk_hit: f64, seed: u64) -> DiskArray {
        let spec = RaidSpec::new(
            disks,
            gbps(4.0),
            array_hit,
            gbps(2.0),
            disk_hit,
            mb_per_s(120.0),
        );
        RaidModel::new(spec, seed).array
    }

    fn san(disks: u32, array_hit: f64, disk_hit: f64, seed: u64) -> DiskArray {
        let spec = SanSpec::new(
            disks,
            gbps(8.0),
            gbps(4.0),
            array_hit,
            gbps(4.0),
            gbps(2.0),
            disk_hit,
            mb_per_s(120.0),
        );
        SanModel::new(spec, seed).array
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Ticking only busy sub-queues is observably identical to
        /// ticking all of them, for both station shapes.
        #[test]
        fn lazy_array_matches_eager_reference(
            disks in 1u32..24,
            array_hit in 0.0f64..1.0,
            disk_hit in 0.0f64..1.0,
            seed in 0u64..1_000,
            ops in proptest::collection::vec((0u8..11, 0u64..1_000, 0.0f64..1.0), 1..120),
        ) {
            check_against_eager(raid(disks, array_hit, disk_hit, seed), &ops);
            check_against_eager(san(disks, array_hit, disk_hit, seed), &ops);
        }
    }

    #[test]
    fn idle_sub_queues_are_not_ticked() {
        // A request in the SAN's switch leaves the other 2 + 2n queues
        // untouched: their stamps stay at 0 while the switch's advances.
        let mut a = san(4, 0.0, 0.0, 1);
        a.enqueue(JobToken(1), 1e3, SimTime::ZERO);
        a.tick(SimTime::ZERO, DT, &mut Vec::new());
        assert_eq!(a.front[0].credited, 1);
        assert!(a.queues_mut().skip(1).all(|q| q.credited == 0));
        // Collection settles the front stages only.
        a.collect_utilization();
        assert!(a.front.iter().all(|q| q.credited == 1));
        assert!(a.disk_ctrl.iter().all(|q| q.credited == 0));
    }

    #[test]
    fn one_entry_per_request() {
        let mut a = raid(3, 0.0, 0.0, 1);
        for i in 0..5 {
            a.enqueue(JobToken(i), 1e6, SimTime::ZERO);
        }
        assert_eq!(a.jobs.len(), 5);
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        while done.len() < 5 {
            a.tick(now, DT, &mut done);
            now += DT;
        }
        assert!(a.jobs.is_empty());
        assert_eq!(done, (0..5).map(JobToken).collect::<Vec<_>>());
    }
}
