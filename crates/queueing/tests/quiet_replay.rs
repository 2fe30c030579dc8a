//! Sleeping through quiet ticks is invisible: for every station kind, a
//! copy driven the way the engine drives a busy agent — ticked for real
//! while awake, asleep through the horizon `quiet_ticks` promises, and
//! caught up with `replay_quiet` before anything touches it — must match
//! a copy ticked on every step. Completions must agree in order and
//! tick, every collected utilization must agree bit for bit, and so must
//! the final encoded state. Whenever the sleeping copy falls asleep, a
//! probe also ticks straight through the promised horizon and checks
//! that no tick completes or admits a job.

use gdisim_queueing::{
    CpuModel, CpuSpec, DelayLine, FcfsMulti, InfiniteServer, JobToken, LinkModel, LinkSpec,
    PsQueue, RaidModel, RaidSpec, SanModel, SanSpec, Station,
};
use gdisim_snap::Snap;
use gdisim_types::units::{gbps, mb_per_s};
use gdisim_types::{SimDuration, SimTime};
use proptest::prelude::*;

const DT: SimDuration = SimDuration::from_millis(10);

/// Longest stretch of a promised horizon the probe ticks through.
const PROBE_CAP: u64 = 5_000;

fn at(tick: u64) -> SimTime {
    SimTime::ZERO + DT * tick
}

/// Ticks a clone of `s` through up to [`PROBE_CAP`] ticks of its
/// promised horizon `h` from tick `from` and replays the same ticks on
/// another clone: no real tick may complete a job, and the two must end
/// in the same encoded state, so no job was admitted either.
fn probe_horizon<S: Station + Clone + Snap>(s: &S, from: u64, h: u64) {
    let n = h.min(PROBE_CAP);
    let mut ticked = s.clone();
    let mut done = Vec::new();
    for i in 0..n {
        ticked.tick(at(from + i), DT, &mut done);
        assert!(
            done.is_empty(),
            "tick {i} of a promised {h}-tick horizon completed {done:?}"
        );
    }
    let mut replayed = s.clone();
    replayed.replay_quiet(n, DT);
    assert_eq!(ticked.in_system(), replayed.in_system());
    assert!(
        gdisim_snap::to_bytes(&ticked) == gdisim_snap::to_bytes(&replayed),
        "{n} real ticks and their replay left different states"
    );
}

/// A station driven like an engine agent. `window` is the sleep window
/// `(first owed tick, wake tick)`.
struct Agent<S> {
    station: S,
    window: Option<(u64, u64)>,
}

impl<S: Station + Clone + Snap> Agent<S> {
    /// Replays the ticks owed before `tick`; the agent stays asleep.
    fn catch_up(&mut self, tick: u64) {
        if let Some((from, wake)) = self.window {
            assert!(tick <= wake, "touched after its wake tick");
            self.station.replay_quiet(tick - from, DT);
            self.window = Some((tick, wake));
        }
    }

    fn wake(&mut self, tick: u64) {
        self.catch_up(tick);
        self.window = None;
    }

    /// The engine's end-of-step sweep at boundary `tick`: an awake
    /// agent holding work falls asleep when its horizon is non-zero.
    fn sweep(&mut self, tick: u64) {
        if self.window.is_some() || self.station.in_system() == 0 {
            return;
        }
        let h = self.station.quiet_ticks(at(tick), DT);
        assert_ne!(h, u64::MAX, "a station holding work promised forever");
        if h > 0 {
            probe_horizon(&self.station, tick, h);
            self.window = Some((tick, tick + h));
        }
    }

    /// Step `tick`: skipped while asleep, woken on its wake tick, and
    /// swept after a real tick.
    fn step(&mut self, tick: u64, done: &mut Vec<JobToken>) {
        match self.window {
            Some((_, wake)) if tick < wake => return,
            Some(_) => self.wake(tick),
            None => {}
        }
        self.station.tick(at(tick), DT, done);
        self.sweep(tick + 1);
    }
}

/// Drives an every-step copy and a sleeping copy of `station` through
/// the same operations. Each op is `(kind, count, size)`; enqueued jobs
/// have demand `size * scale`.
fn check<S: Station + Clone + Snap>(station: S, scale: f64, ops: &[(u8, u64, f64)]) {
    let mut eager = station.clone();
    let mut lazy = Agent {
        station,
        window: None,
    };
    let (mut eager_done, mut lazy_done) = (Vec::new(), Vec::new());
    let (mut tick, mut next_token) = (0u64, 0u64);
    for &(kind, count, size) in ops {
        match kind {
            0..=3 => {
                for _ in 0..count % 4 + 1 {
                    let token = JobToken(next_token);
                    next_token += 1;
                    eager.enqueue(token, size * scale, at(tick));
                    lazy.wake(tick);
                    lazy.station.enqueue(token, size * scale, at(tick));
                }
                // Routing enqueues right before the sweep.
                lazy.sweep(tick);
            }
            4..=6 => {
                for _ in 0..count % 60 + 1 {
                    let mut done = Vec::new();
                    eager.tick(at(tick), DT, &mut done);
                    eager_done.extend(done.drain(..).map(|t| (tick, t)));
                    lazy.step(tick, &mut done);
                    lazy_done.extend(done.drain(..).map(|t| (tick, t)));
                    tick += 1;
                }
            }
            7 => {
                lazy.catch_up(tick);
                assert_eq!(
                    eager.collect_utilization().to_bits(),
                    lazy.station.collect_utilization().to_bits(),
                    "collected utilization at tick {tick}"
                );
            }
            8 => {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                lazy.wake(tick);
                eager.evict_all(&mut a);
                lazy.station.evict_all(&mut b);
                assert_eq!(a, b, "eviction order at tick {tick}");
            }
            _ => {
                // Checkpoint mid-run, possibly with ticks owed.
                lazy.station = gdisim_snap::from_bytes(&gdisim_snap::to_bytes(&lazy.station))
                    .expect("station roundtrips");
            }
        }
        assert_eq!(eager_done, lazy_done, "completions (tick, token)");
        assert_eq!(eager.in_system(), lazy.station.in_system());
    }
    lazy.catch_up(tick);
    assert_eq!(
        eager.collect_utilization().to_bits(),
        lazy.station.collect_utilization().to_bits()
    );
    assert!(
        gdisim_snap::to_bytes(&eager) == gdisim_snap::to_bytes(&lazy.station),
        "final states differ"
    );
}

/// Demand scale that keeps a job in service for up to ~40 ticks of
/// `rate` units per second.
fn scale_for(rate: f64) -> f64 {
    rate * DT.as_secs_f64() * 40.0
}

fn ops() -> impl Strategy<Value = Vec<(u8, u64, f64)>> {
    proptest::collection::vec((0u8..10, 0u64..1_000, 0.0f64..1.0), 1..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fcfs_multi_sleeps_invisibly(servers in 1u32..9, rate in 1e2f64..1e10, ops in ops()) {
        check(FcfsMulti::new(servers, rate), scale_for(rate), &ops);
    }

    #[test]
    fn ps_queue_sleeps_invisibly(k in 1u32..9, rate in 1e2f64..1e10, ops in ops()) {
        check(PsQueue::new(rate, k), scale_for(rate), &ops);
    }

    #[test]
    fn infinite_server_sleeps_invisibly(rate in 1e2f64..1e10, ops in ops()) {
        check(InfiniteServer::new(rate), scale_for(rate), &ops);
    }

    #[test]
    fn delay_line_sleeps_invisibly(delay_us in 0u64..500_000, ops in ops()) {
        check(DelayLine::new(SimDuration(delay_us)), 1.0, &ops);
    }

    #[test]
    fn link_sleeps_invisibly(
        k in 1u32..9,
        rate in 1e3f64..1e9,
        latency_us in 0u64..300_000,
        ops in ops(),
    ) {
        let spec = LinkSpec::new(rate, SimDuration(latency_us), k);
        check(LinkModel::new(spec), scale_for(rate), &ops);
    }

    #[test]
    fn multi_socket_cpu_sleeps_invisibly(
        sockets in 2u32..5,
        cores in 1u32..5,
        clock in 1e8f64..4e9,
        ops in ops(),
    ) {
        check(CpuModel::new(CpuSpec::new(sockets, cores, clock)), scale_for(clock), &ops);
    }

    #[test]
    fn raid_sleeps_invisibly(
        disks in 1u32..9,
        hit in 0.0f64..1.0,
        seed in 0u64..1_000,
        ops in ops(),
    ) {
        let spec = RaidSpec::new(disks, gbps(4.0), hit, gbps(2.0), hit, mb_per_s(120.0));
        check(RaidModel::new(spec, seed), scale_for(mb_per_s(120.0)), &ops);
    }

    #[test]
    fn san_sleeps_invisibly(
        disks in 1u32..9,
        hit in 0.0f64..1.0,
        seed in 0u64..1_000,
        ops in ops(),
    ) {
        let spec = SanSpec::new(
            disks,
            gbps(8.0),
            gbps(4.0),
            hit,
            gbps(4.0),
            gbps(2.0),
            hit,
            mb_per_s(120.0),
        );
        check(SanModel::new(spec, seed), scale_for(mb_per_s(120.0)), &ops);
    }
}

/// The stations really do sleep: a long job on a busy FCFS server
/// promises most of its service time as quiet, so the property tests
/// above exercise replay rather than ticking every step.
#[test]
fn a_long_job_promises_most_of_its_service_as_quiet() {
    let mut q = FcfsMulti::new(1, 100.0);
    q.enqueue(JobToken(1), 50.0, SimTime::ZERO);
    q.tick(SimTime::ZERO, DT, &mut Vec::new());
    // 49 units left at 1 unit per tick: 49 ticks to go, the last of which
    // completes it; the bound keeps a two-tick margin.
    assert_eq!(q.quiet_ticks(at(1), DT), 46);
    // A waiter behind a free server must be admitted next tick.
    let mut q = FcfsMulti::new(2, 100.0);
    q.enqueue(JobToken(1), 50.0, SimTime::ZERO);
    q.tick(SimTime::ZERO, DT, &mut Vec::new());
    q.enqueue(JobToken(2), 50.0, at(1));
    assert_eq!(q.quiet_ticks(at(1), DT), 0);
    // Nothing to finish: an empty station promises forever.
    assert_eq!(FcfsMulti::new(1, 100.0).quiet_ticks(at(0), DT), u64::MAX);
}
