//! Observability must be a pure observer: enabling the step-loop
//! profiler, the trace log and histogram-mode response aggregation
//! must not perturb the simulation by a single bit, for every scenario
//! family and executor. Alongside the equivalence proptest, golden
//! checks pin the three export formats (profile JSON, Perfetto trace,
//! trace JSONL) at the integration level.

use gdisim_core::scenarios::{consolidated, faulted, validation};
use gdisim_core::{FaultAction, FaultEvent, FaultPlan, FaultTarget, Simulation};
use gdisim_metrics::LogHistogram;
use gdisim_obs::{NUM_CLASSES, PHASE_NAMES};
use gdisim_ports::Executor;
use gdisim_types::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn executor_for(choice: usize) -> Executor {
    match choice {
        0 => Executor::serial(),
        1 => Executor::scatter_gather(4),
        _ => Executor::hdispatch(4, 16),
    }
}

/// The staged WAN outage of the `faulted` scenario, compressed so the
/// fault, retry and timeout machinery all fire inside a short horizon.
fn compressed_fault_plan() -> FaultPlan {
    let link = |label: &str| FaultTarget::WanLink {
        label: label.into(),
    };
    use FaultAction::{Fail, Recover};
    FaultPlan {
        events: vec![
            FaultEvent {
                at_secs: 20.0,
                target: link(faulted::PRIMARY_LINK),
                action: Fail,
            },
            FaultEvent {
                at_secs: 40.0,
                target: link(faulted::BACKUP_LINK),
                action: Fail,
            },
            FaultEvent {
                at_secs: 60.0,
                target: link(faulted::PRIMARY_LINK),
                action: Recover,
            },
            FaultEvent {
                at_secs: 60.0,
                target: link(faulted::BACKUP_LINK),
                action: Recover,
            },
        ],
        in_flight: gdisim_core::InFlightPolicy::Bounce,
        retry: Some(faulted::demo_retry_policy()),
    }
}

fn build_scenario(scenario: usize, seed: u64) -> Simulation {
    match scenario {
        0 => {
            let mut sim = faulted::build(seed);
            sim.set_fault_plan(compressed_fault_plan())
                .expect("compressed plan matches the faulted topology");
            sim
        }
        1 => validation::build(validation::EXPERIMENTS[0], seed),
        _ => consolidated::build(seed),
    }
}

/// Everything a run observes besides response times: utilization
/// series, the concurrent-client series and the fault counters.
type CoreSignature = (Vec<(String, Vec<f64>)>, Vec<f64>, (u64, u64, u64, u64, u64));

fn core_signature(sim: &Simulation) -> CoreSignature {
    let report = sim.report();
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
    let f = &report.faults;
    (
        series,
        report.concurrent_clients.values().to_vec(),
        (
            f.failed_operations,
            f.retried_operations,
            f.abandoned_operations,
            f.dropped_messages,
            f.skipped_events,
        ),
    )
}

/// Runs with every observability feature off (the exact-history
/// default) and returns the signature plus per-key response
/// histograms rebuilt from the exact history — the reference the
/// histogram-mode run must reproduce.
fn run_baseline(
    scenario: usize,
    seed: u64,
    executor: usize,
    horizon_secs: u64,
) -> (CoreSignature, BTreeMap<String, LogHistogram>) {
    let mut sim = build_scenario(scenario, seed);
    sim.set_executor(executor_for(executor));
    sim.run_until(SimTime::from_secs(horizon_secs));
    let mut rebuilt = BTreeMap::new();
    let report = sim.report();
    for key in report.responses.history_keys() {
        let h: &mut LogHistogram = rebuilt.entry(format!("{key:?}")).or_default();
        for &(_, secs) in report.responses.history(key) {
            // `record` fed the histogram `duration.as_micros()`; the
            // history stored `as_secs_f64()` of the same duration, so
            // the round-trip is exact for any realistic response time.
            h.record(SimDuration::from_secs_f64(secs).as_micros());
        }
    }
    (core_signature(&sim), rebuilt)
}

/// Runs with every observability feature ON: profiler with span
/// recording, trace log and histogram-mode responses.
fn run_observed(
    scenario: usize,
    seed: u64,
    executor: usize,
    horizon_secs: u64,
) -> (CoreSignature, BTreeMap<String, LogHistogram>) {
    let mut sim = build_scenario(scenario, seed);
    sim.set_executor(executor_for(executor));
    sim.enable_profiler(50_000);
    sim.enable_trace(50_000);
    sim.enable_response_histograms();
    sim.run_until(SimTime::from_secs(horizon_secs));
    let report = sim.report();
    let hists = report
        .responses
        .histogram_keys()
        .map(|k| {
            let h = report
                .responses
                .histogram(k)
                .expect("key came from histogram_keys")
                .clone();
            (format!("{k:?}"), h)
        })
        .collect();
    (core_signature(&sim), hists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random seeds, horizons, executors and scenario families, a
    /// fully-instrumented run (profiler + trace + response histograms)
    /// observes exactly what an uninstrumented run observes.
    #[test]
    fn observed_and_bare_runs_are_bit_identical(
        seed in 0u64..1_000,
        horizon_secs in 90u64..150,
        executor in 0usize..3,
        scenario in 0usize..3,
    ) {
        let (bare, rebuilt) = run_baseline(scenario, seed, executor, horizon_secs);
        let (observed, hists) = run_observed(scenario, seed, executor, horizon_secs);
        prop_assert_eq!(&bare.0, &observed.0, "utilization diverged under observation");
        prop_assert_eq!(&bare.1, &observed.1, "clients diverged under observation");
        prop_assert_eq!(bare.2, observed.2, "fault counters diverged under observation");
        prop_assert_eq!(&rebuilt, &hists, "response histograms diverged under observation");
    }
}

/// One fully-instrumented faulted run shared by the export checks.
fn observed_faulted_run() -> Simulation {
    let mut sim = faulted::build(42);
    sim.set_fault_plan(compressed_fault_plan())
        .expect("compressed plan matches the faulted topology");
    sim.enable_profiler(100_000);
    sim.enable_trace(100_000);
    sim.run_until(SimTime::from_secs(120));
    sim
}

#[test]
fn profile_export_parses_with_required_keys_and_exact_phase_sum() {
    let sim = observed_faulted_run();
    let profile = sim.step_profile().expect("profiler enabled");
    let json = gdisim_obs::export::profile_json(&profile, Some(&sim.metrics_snapshot()));
    let v = serde_json::parse_value(&json).expect("profile JSON parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("gdisim.profile.v1")
    );
    for key in [
        "steps",
        "wall_ns",
        "phases",
        "step_ns",
        "drains",
        "active_set",
        "registry",
    ] {
        assert!(v.get(key).is_some(), "profile JSON lacks '{key}'");
    }
    // The acceptance bar is "phase totals within 10% of step wall
    // time"; the span protocol makes the sum exact by construction, so
    // assert both the bar and the stronger identity.
    let wall = v.get("wall_ns").and_then(|w| w.as_u64()).expect("wall_ns");
    let phases = v.get("phases").and_then(|p| p.as_object()).expect("phases");
    let phase_sum: u64 = phases
        .iter()
        .map(|(_, p)| {
            p.get("wall_ns")
                .and_then(|w| w.as_u64())
                .expect("phase wall_ns")
        })
        .sum();
    assert_eq!(
        phase_sum, wall,
        "phase wall totals must sum to step wall time"
    );
    assert!((phase_sum as f64 - wall as f64).abs() <= 0.10 * wall as f64);
    // Every drain class is reported, and the gates actually let some
    // drains through while skipping most — the run is not vacuously idle.
    let drains = v.get("drains").and_then(|d| d.as_object()).expect("drains");
    assert_eq!(drains.len(), NUM_CLASSES);
    let total = |field: &str| -> u64 {
        drains
            .iter()
            .map(|(_, d)| d.get(field).and_then(|x| x.as_u64()).unwrap_or(0))
            .sum()
    };
    assert!(total("gated") > 0, "no drain was ever gated");
    assert!(total("skipped") > 0, "no drain was ever skipped");
    assert!(total("events") > 0, "no drain ever processed an event");
}

#[test]
fn profile_counts_every_agent_tick_by_kind() {
    // Active-set path: the per-kind counts add up to the occupancy the
    // profiler already reports, and storage stations show up by kind.
    let mut sim = validation::build(validation::EXPERIMENTS[0], 42);
    sim.enable_profiler(0);
    sim.run_until(SimTime::from_secs(120));
    let p = sim.step_profile().expect("profiler enabled");
    let total: u64 = p.ticks_by_kind.iter().sum();
    assert_eq!(total as f64, (p.occupancy_mean * p.steps as f64).round());
    let by_name = |name: &str| {
        let slot = gdisim_obs::KIND_NAMES.iter().position(|k| *k == name);
        p.ticks_by_kind[slot.expect("known kind")]
    };
    assert!(by_name("cpu") > 0 && by_name("san") > 0 && by_name("raid") > 0);

    // Always-tick path: every agent is counted on every step.
    let mut all = validation::build(validation::EXPERIMENTS[0], 42);
    all.set_always_tick(true);
    all.enable_profiler(0);
    all.run_until(SimTime::from_secs(10));
    let p = all.step_profile().expect("profiler enabled");
    let total: u64 = p.ticks_by_kind.iter().sum();
    assert_eq!(total, p.steps * p.occupancy_max);
}

#[test]
fn replayed_ticks_complete_the_member_step_count() {
    // Busy agents sleep through quiet ticks and replay them when next
    // touched. After the last collection every debt is settled, so real
    // plus replayed ticks must equal, kind by kind, the steps agents
    // spent holding work: the counts of the loop that ticked every
    // member on every step, pinned here for two simulated minutes of
    // validation experiment 1.
    let member_steps: [u64; gdisim_obs::NUM_KINDS] = [26082, 949, 157, 1943, 728, 2976, 11101];
    let mut sim = validation::build(validation::EXPERIMENTS[0], 42);
    sim.enable_profiler(0);
    sim.run_until(SimTime::from_secs(120));
    let p = sim.step_profile().expect("profiler enabled");
    for (kind, name) in gdisim_obs::KIND_NAMES.iter().enumerate() {
        assert_eq!(
            p.ticks_by_kind[kind] + p.replayed_by_kind[kind],
            member_steps[kind],
            "{name}: real + replayed ticks"
        );
    }
    let real: u64 = p.ticks_by_kind.iter().sum();
    let total: u64 = member_steps.iter().sum();
    assert!(
        real * 10 <= total * 3,
        "{real} real ticks exceed 30% of {total} member steps"
    );

    // The dense loop never sleeps, so it never replays.
    let mut all = validation::build(validation::EXPERIMENTS[0], 42);
    all.set_always_tick(true);
    all.enable_profiler(0);
    all.run_until(SimTime::from_secs(10));
    let p = all.step_profile().expect("profiler enabled");
    assert_eq!(p.replayed_by_kind, [0; gdisim_obs::NUM_KINDS]);
}

#[test]
fn perfetto_export_is_wellformed_chrome_trace_json() {
    let sim = observed_faulted_run();
    let spans = sim.profiler().expect("profiler enabled").spans();
    assert!(!spans.is_empty(), "no spans recorded");
    let json = gdisim_obs::perfetto::render_trace(spans);
    let v = serde_json::parse_value(&json).expect("perfetto JSON parses");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    let first = &events[0];
    assert!(PHASE_NAMES.contains(&first.get("name").and_then(|n| n.as_str()).expect("name")));
    assert_eq!(first.get("ph").and_then(|p| p.as_str()), Some("X"));
    assert_eq!(first.get("pid").and_then(|p| p.as_u64()), Some(1));
    assert!(first.get("ts").is_some() && first.get("dur").is_some());
    assert_eq!(
        v.get("displayTimeUnit").and_then(|d| d.as_str()),
        Some("ms")
    );
}

#[test]
fn jsonl_export_parses_line_by_line_with_drop_trailer() {
    let sim = observed_faulted_run();
    let trace = sim.trace().expect("trace enabled");
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        trace.events().len() + 1,
        "one line per event + trailer"
    );
    for (i, line) in lines.iter().enumerate().take(lines.len() - 1) {
        let v = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON: {e}"));
        assert!(v.get("t_us").is_some(), "line {i} lacks t_us");
        assert!(v.get("event").is_some(), "line {i} lacks event");
    }
    let trailer =
        serde_json::parse_value(lines.last().expect("trailer line")).expect("trailer parses");
    let by_kind = trailer
        .get("dropped_by_kind")
        .and_then(|d| d.as_object())
        .expect("dropped_by_kind object");
    assert_eq!(by_kind.len(), 7, "all seven event kinds reported");
    for (kind, entry) in by_kind {
        assert!(
            entry.get("count").is_some(),
            "trailer entry '{kind}' lacks count"
        );
    }
}

/// A trace that overflows its capacity records when each kind first
/// dropped, and the trailer surfaces it.
#[test]
fn jsonl_trailer_reports_first_drop_time_when_capacity_overflows() {
    let mut sim = faulted::build(7);
    sim.enable_trace(16); // tiny capacity: drops guaranteed
    sim.run_until(SimTime::from_secs(120));
    let trace = sim.trace().expect("trace enabled");
    assert!(trace.dropped_by_kind().total() > 0, "run never overflowed");
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("JSONL is UTF-8");
    let trailer = serde_json::parse_value(text.lines().last().expect("trailer")).expect("parses");
    let by_kind = trailer
        .get("dropped_by_kind")
        .and_then(|d| d.as_object())
        .expect("dropped_by_kind object");
    let overflowed = by_kind.iter().any(|(_, entry)| {
        entry.get("count").and_then(|c| c.as_u64()).unwrap_or(0) > 0
            && entry.get("first_dropped_us").is_some()
    });
    assert!(
        overflowed,
        "no kind reported a first_dropped_us despite drops"
    );
}
