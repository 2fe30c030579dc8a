//! Property-based invariants across the queueing, workload and
//! background crates: conservation laws that must hold for *any* input,
//! not just the scenario configurations.

use gdisim_background::{DataGrowth, GrowthCurve};
use gdisim_queueing::{FcfsMulti, JobToken, PsQueue, Station};
use gdisim_types::TierKind;
use gdisim_types::{SimDuration, SimTime};
use gdisim_workload::{DiurnalCurve, Endpoint, OperationShape, RateCard, Site, StepShape};
use proptest::prelude::*;

const DT: SimDuration = SimDuration::from_millis(10);

fn drain(q: &mut dyn Station, max_ticks: u64) -> Vec<JobToken> {
    let mut done = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..max_ticks {
        q.tick(now, DT, &mut done);
        now += DT;
        if q.in_system() == 0 {
            break;
        }
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FCFS never loses or duplicates a job, and completes in FIFO order
    /// on a single server.
    #[test]
    fn fcfs_conserves_jobs_in_order(
        demands in proptest::collection::vec(0.0f64..50.0, 1..40),
        rate in 10.0f64..1000.0,
    ) {
        let mut q = FcfsMulti::new(1, rate);
        for (i, d) in demands.iter().enumerate() {
            q.enqueue(JobToken(i as u64), *d, SimTime::ZERO);
        }
        let done = drain(&mut q, 1_000_000);
        prop_assert_eq!(done.len(), demands.len(), "every job completes exactly once");
        let ids: Vec<u64> = done.iter().map(|t| t.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&ids, &sorted, "single-server FCFS preserves order");
        prop_assert_eq!(q.in_system(), 0);
    }

    /// Multi-server FCFS still conserves jobs (order may interleave).
    #[test]
    fn fcfs_multi_server_conserves_jobs(
        demands in proptest::collection::vec(0.0f64..50.0, 1..60),
        servers in 1u32..8,
    ) {
        let mut q = FcfsMulti::new(servers, 100.0);
        for (i, d) in demands.iter().enumerate() {
            q.enqueue(JobToken(i as u64), *d, SimTime::ZERO);
        }
        let done = drain(&mut q, 1_000_000);
        let mut ids: Vec<u64> = done.iter().map(|t| t.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), demands.len());
    }

    /// PS conserves jobs and its per-tick service never exceeds capacity.
    #[test]
    fn ps_conserves_jobs_and_capacity(
        demands in proptest::collection::vec(0.1f64..20.0, 1..50),
        k in 1u32..16,
        rate in 50.0f64..500.0,
    ) {
        let mut q = PsQueue::new(rate, k);
        let total_demand: f64 = demands.iter().sum();
        for (i, d) in demands.iter().enumerate() {
            q.enqueue(JobToken(i as u64), *d, SimTime::ZERO);
        }
        // Minimum ticks needed if the queue ran at full capacity; the
        // queue must not beat it (work conservation upper bound).
        let min_ticks = (total_demand / (rate * DT.as_secs_f64())).floor() as u64;
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        let mut ticks = 0u64;
        while q.in_system() > 0 && ticks < 1_000_000 {
            q.tick(now, DT, &mut done);
            now += DT;
            ticks += 1;
        }
        prop_assert_eq!(done.len(), demands.len());
        prop_assert!(ticks >= min_ticks, "finished faster than capacity allows: {} < {}", ticks, min_ticks);
    }

    /// Calibration inverts the forward timing model for arbitrary shapes.
    #[test]
    fn calibration_roundtrips_for_random_shapes(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..10),
        target_secs in 1.0f64..200.0,
    ) {
        // Normalize the random shares to sum to 1.
        let total: f64 = raw.iter().map(|(a, b, c)| a + b + c).sum();
        prop_assume!(total > 1e-6);
        let c_ep = Endpoint::client();
        let app = Endpoint::tier(TierKind::App, Site::Master);
        let steps: Vec<StepShape> = raw
            .iter()
            .map(|(cpu, net, disk)| {
                StepShape::new(c_ep, app, cpu / total, net / total, disk / total)
            })
            .collect();
        let shape = OperationShape::new("PROP", steps);
        let rates = RateCard {
            client_clock_hz: 2e9,
            server_clock_hz: 2.5e9,
            net_secs_per_byte: 2.48e-8,
            disk_bytes_per_sec: 1.9e8,
            per_message_overhead: SimDuration::from_millis(1),
        };
        let target = SimDuration::from_secs_f64(target_secs);
        let template = shape.calibrate(target, &rates);
        let forward = OperationShape::unloaded_duration(&template, &rates);
        let err = (forward.as_secs_f64() - target.as_secs_f64()).abs();
        prop_assert!(err < 1e-5, "forward {} vs target {}", forward, target);
        for s in &template.steps {
            prop_assert!(s.r.is_valid());
        }
    }

    /// Growth integration is additive over adjacent windows.
    #[test]
    fn growth_integration_is_additive(
        peak in 100.0f64..10000.0,
        split_min in 1u64..119,
    ) {
        let growth = DataGrowth {
            sites: vec![GrowthCurve {
                site: "X".into(),
                curve: DiurnalCurve::business_day(0.0, peak * 0.1, peak).into(),
            }],
            avg_file_bytes: 50e6,
        };
        let a = SimTime::from_hours(8); // spans the ramp-up
        let m = SimTime::from_secs(8 * 3600 + split_min * 60);
        let b = SimTime::from_hours(10);
        let whole = growth.generated_bytes(0, a, b);
        let parts = growth.generated_bytes(0, a, m) + growth.generated_bytes(0, m, b);
        prop_assert!((whole - parts).abs() <= 1e-6 * whole.max(1.0),
            "additivity violated: {} vs {}", whole, parts);
    }

    /// Diurnal populations never leave the [base, peak] envelope.
    #[test]
    fn diurnal_population_stays_in_envelope(
        tz in -12.0f64..12.0,
        base in 0.0f64..100.0,
        extra in 0.0f64..2000.0,
        hour in 0.0f64..24.0,
    ) {
        let peak = base + extra;
        let c = DiurnalCurve::business_day(tz, base, peak);
        let p = c.population_at_local_hour(hour);
        prop_assert!(p >= base - 1e-9 && p <= peak + 1e-9, "population {} outside [{}, {}]", p, base, peak);
    }
}

/// Scenario `i` of the always-tick equivalence property: the three
/// Ch. 5 validation experiments, a churned run whose hot `Drop` churn
/// evicts in-flight work from servers (sleepers included), and a faulted
/// run whose flapping server and WAN link bounce work off the failed
/// components.
fn fast_path_scenario(i: usize, seed: u64) -> gdisim_core::Simulation {
    use gdisim_core::scenarios::{churned, faulted, validation};
    use gdisim_core::InFlightPolicy;
    use gdisim_core::{ChurnModel, ChurnProcess, FaultAction, FaultEvent, FaultPlan, FaultTarget};
    match i {
        0..=2 => validation::build(validation::EXPERIMENTS[i], seed),
        3 => {
            let mut sim = churned::build(seed);
            sim.set_churn_model(ChurnModel {
                seed,
                servers: Some(ChurnProcess {
                    mtbf_secs: 30.0,
                    mttr_secs: 5.0,
                    fail_shape: None,
                    repair_shape: None,
                }),
                wan_links: Some(ChurnProcess {
                    mtbf_secs: 60.0,
                    mttr_secs: 5.0,
                    fail_shape: None,
                    repair_shape: None,
                }),
                domains: vec![],
                in_flight: Some(InFlightPolicy::Drop),
                retry: Some(faulted::demo_retry_policy()),
                slo_target: None,
            })
            .expect("the hot model names only churned-topology components");
            sim.set_resilience(churned::demo_resilience())
                .expect("the demo resilience bundle is valid");
            sim
        }
        _ => {
            // The NA app server and the primary link flap every 7 s.
            let server = FaultTarget::Server {
                site: "NA".into(),
                tier: gdisim_types::TierKind::App,
                server: 0,
            };
            let link = FaultTarget::WanLink {
                label: faulted::PRIMARY_LINK.into(),
            };
            let mut events = Vec::new();
            for cycle in 0..20u32 {
                let base = 5.0 + 7.0 * f64::from(cycle);
                for target in [&server, &link] {
                    for (at_secs, action) in [
                        (base, FaultAction::Fail),
                        (base + 3.0, FaultAction::Recover),
                    ] {
                        events.push(FaultEvent {
                            at_secs,
                            target: target.clone(),
                            action,
                        });
                    }
                }
            }
            let mut sim = faulted::build(seed);
            sim.set_fault_plan(FaultPlan {
                events,
                in_flight: InFlightPolicy::Bounce,
                retry: Some(faulted::demo_retry_policy()),
            })
            .expect("the plan names faulted-topology components");
            sim
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The active-set fast path — idle agents skipped, busy agents asleep
    /// through their quiet ticks — and the always-tick loop are the same
    /// simulation: for random scenarios (evictions and faults included),
    /// seeds and horizons, response histories, every utilization series
    /// and the whole encoded report must match bit for bit.
    #[test]
    fn active_set_matches_always_tick_for_random_scenarios(
        scenario in 0usize..5,
        seed in 0u64..1_000,
        horizon_secs in 30u64..120,
    ) {
        let run = |always_tick: bool| {
            let mut sim = fast_path_scenario(scenario, seed);
            sim.set_always_tick(always_tick);
            sim.run_until(SimTime::from_secs(horizon_secs));
            let report = sim.report();
            let responses: Vec<_> = report
                .responses
                .history_keys()
                .map(|k| (k, report.responses.history(k).to_vec()))
                .collect();
            let mut series: Vec<(String, Vec<f64>)> = Vec::new();
            for ((dc, tier), s) in &report.tier_cpu {
                series.push((format!("cpu {dc}/{tier}"), s.values().to_vec()));
            }
            for ((dc, tier), s) in &report.tier_disk {
                series.push((format!("disk {dc}/{tier}"), s.values().to_vec()));
            }
            for (label, s) in &report.wan_util {
                series.push((format!("wan {label}"), s.values().to_vec()));
            }
            (
                responses,
                series,
                report.concurrent_clients.values().to_vec(),
                gdisim_snap::to_bytes(report),
            )
        };

        let fast = run(false);
        let full = run(true);
        prop_assert_eq!(fast.0, full.0, "response histories diverged");
        prop_assert_eq!(fast.1, full.1, "utilization series diverged");
        prop_assert_eq!(fast.2, full.2, "client series diverged");
        prop_assert!(fast.3 == full.3, "encoded reports diverged");
    }
}

/// The churned and faulted cases of the property above really evict
/// in-flight work (the sleep/eviction interplay they exist to cover).
#[test]
fn fast_path_scenarios_evict_work() {
    for scenario in [3, 4] {
        let mut sim = fast_path_scenario(scenario, 5);
        sim.run_until(SimTime::from_secs(60));
        assert!(
            sim.report().faults.dropped_messages > 0,
            "scenario {scenario} evicted nothing"
        );
    }
}

/// `run_until` must stop exactly on the last step boundary not past
/// `until` — never overshoot, even when `until` is not a multiple of dt.
#[test]
fn run_until_never_overshoots() {
    use gdisim_core::scenarios::validation::{self, EXPERIMENTS};

    // 10 ms steps: a multiple lands exactly...
    let mut sim = validation::build(EXPERIMENTS[0], 7);
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.now(), SimTime::from_secs(5));

    // ...a non-multiple stops at the boundary below it (time is integer
    // microseconds)...
    let mut sim = validation::build(EXPERIMENTS[0], 7);
    sim.run_until(SimTime(5_004_999));
    assert_eq!(sim.now(), SimTime::from_millis(5_000));

    // ...and a second call with the same target is a no-op.
    sim.run_until(SimTime(5_004_999));
    assert_eq!(sim.now(), SimTime::from_millis(5_000));
}

/// Deterministic conservation check at the whole-engine level: launch a
/// short burst, drain, and verify the infrastructure is empty.
#[test]
fn engine_conserves_operations_end_to_end() {
    use gdisim_core::scenarios::validation::{self, EXPERIMENTS};
    let mut sim = validation::build(EXPERIMENTS[2], 21);
    sim.run_until(SimTime::from_secs(90));
    let in_flight = sim.active_operations();
    assert!(in_flight > 0);
    // Count completions + live instances: every launch is accounted for.
    let report = sim.report();
    let completed: usize = report
        .responses
        .history_keys()
        .map(|k| report.responses.history(k).len())
        .sum();
    // Launches: series every 10/24/40 s from t=0, ops per series chain
    // counted as individual operations as they start sequentially. We
    // can't observe raw launches directly, but conservation demands
    // completed + in-flight >= number of chains started (10 light + 4
    // average + 3 heavy = 17 at t=90).
    assert!(
        completed + in_flight >= 17,
        "completed {completed} + live {in_flight}"
    );
}
