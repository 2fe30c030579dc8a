//! Gate-refresh equivalence under heavy timer churn, the companion of
//! `wheel_equivalence.rs`. Each phase-1 class's next-due gate is reset
//! from its canonical store's head after its drain runs, and the timeout
//! and hedge gates also after every instance leaves the flight table
//! (once the heaps' dead prefix is popped). Every refresh must be
//! invisible to the simulation: a gate is never later than its store's
//! earliest live event, so no drain runs late.
//!
//! The scenario here is deliberately refresh-heavy: a short per-attempt
//! timeout with `InFlightPolicy::Drop` on a link that fails and recovers
//! in quick cycles, so operations constantly complete before their
//! (armed) timeouts, time out for real, retry and complete again —
//! thousands of dead timeout entries per run. Gated runs are compared
//! bit-for-bit against `set_always_poll(true)` runs across all three
//! executors, down to the message-level hop trace.

use gdisim_core::scenarios::faulted;
use gdisim_core::{FaultAction, FaultEvent, FaultPlan, FaultTarget, Simulation};
use gdisim_ports::Executor;
use gdisim_types::SimTime;
use gdisim_workload::RetryPolicy;
use proptest::prelude::*;

fn executor_for(choice: usize) -> Executor {
    match choice {
        0 => Executor::serial(),
        1 => Executor::scatter_gather(4),
        _ => Executor::hdispatch(4, 16),
    }
}

/// A retry policy whose per-attempt timeout is short enough to actually
/// expire inside the proptest horizon (the demo policy's 300 s timeout
/// never fires there), with fast backoff so retries land quickly.
fn churn_retry_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_secs: 8.0,
        max_retries: 3,
        backoff_base_secs: 1.0,
        backoff_factor: 2.0,
        backoff_cap_secs: 10.0,
    }
}

/// Repeated fail/recover cycles of the primary WAN link under
/// `InFlightPolicy::Drop`: in-flight operations caught by a failure hang
/// silently until their short timeout reaps them, exercising the real
/// timeout path (not just completion-side cancellation) every cycle.
fn churn_fault_plan() -> FaultPlan {
    let link = || FaultTarget::WanLink {
        label: faulted::PRIMARY_LINK.into(),
    };
    let mut events = Vec::new();
    for cycle in 0..6u32 {
        let base = 10.0 + 13.0 * f64::from(cycle);
        events.push(FaultEvent {
            at_secs: base,
            target: link(),
            action: FaultAction::Fail,
        });
        events.push(FaultEvent {
            at_secs: base + 6.0,
            target: link(),
            action: FaultAction::Recover,
        });
    }
    FaultPlan {
        events,
        in_flight: gdisim_core::InFlightPolicy::Drop,
        retry: Some(churn_retry_policy()),
    }
}

fn build(seed: u64) -> Simulation {
    let mut sim = faulted::build(seed);
    sim.set_fault_plan(churn_fault_plan())
        .expect("churn plan matches the faulted topology");
    sim
}

/// Everything a run observes — response histories, utilization series,
/// client series, fault counters, and the rendered message-level trace
/// (hops, launches, completions, failures, fault applications) with its
/// drop counters.
type Signature = (
    Vec<(String, Vec<(SimTime, f64)>)>,
    Vec<(String, Vec<f64>)>,
    Vec<f64>,
    (u64, u64, u64, u64, u64),
    Vec<String>,
    u64,
);

fn run(seed: u64, executor: usize, horizon_secs: u64, poll: bool) -> Signature {
    let mut sim = build(seed);
    sim.set_executor(executor_for(executor));
    sim.enable_trace(20_000);
    if poll {
        sim.set_always_poll(true);
    }
    sim.run_until(SimTime::from_secs(horizon_secs));
    let report = sim.report();
    let responses: Vec<_> = report
        .responses
        .history_keys()
        .map(|k| (format!("{k:?}"), report.responses.history(k).to_vec()))
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
    let trace = sim.trace().expect("trace enabled");
    let hops: Vec<String> = trace
        .events()
        .iter()
        .map(|(t, e)| format!("{t:?} {e:?}"))
        .collect();
    let dropped = trace.dropped();
    let f = &report.faults;
    (
        responses,
        series,
        report.concurrent_clients.values().to_vec(),
        (
            f.failed_operations,
            f.retried_operations,
            f.abandoned_operations,
            f.dropped_messages,
            f.skipped_events,
        ),
        hops,
        dropped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random seeds, horizons and executors, a cancellation-enabled
    /// wheel-gated run of the churn scenario is bit-identical to a
    /// polled run — responses, utilization, client counts, fault
    /// counters and the full message-level hop trace.
    #[test]
    fn cancellation_enabled_runs_match_polled_runs(
        seed in 0u64..1_000,
        horizon_secs in 90u64..150,
        executor in 0usize..3,
    ) {
        let wheel = run(seed, executor, horizon_secs, false);
        let poll = run(seed, executor, horizon_secs, true);
        prop_assert_eq!(&wheel.0, &poll.0, "responses diverged");
        prop_assert_eq!(&wheel.1, &poll.1, "utilization diverged");
        prop_assert_eq!(&wheel.2, &poll.2, "clients diverged");
        prop_assert_eq!(wheel.3, poll.3, "fault counters diverged");
        prop_assert_eq!(&wheel.4, &poll.4, "hop traces diverged");
        prop_assert_eq!(wheel.5, poll.5, "trace drop counts diverged");
    }
}

/// The equivalence above is not vacuous, and the gates are never stale:
/// a deterministic churn run actually times out, retries and drops
/// in-flight work, yet its Timeouts drain — where every completion
/// leaves a dead heap entry behind — never wakes for nothing and skips
/// far more steps than it runs.
#[test]
fn churn_scenario_never_wakes_a_stale_timeout_gate() {
    let mut sim = build(42);
    sim.enable_profiler(0);
    sim.run_until(SimTime::from_secs(120));
    let f = &sim.report().faults;
    assert!(f.failed_operations > 0, "no operations failed");
    assert!(f.retried_operations > 0, "no retries launched");
    assert!(f.dropped_messages > 0, "no in-flight messages dropped");
    let p = sim.profiler().expect("profiler enabled");
    let timeouts = p.drain_stats(gdisim_core::EventClass::Timeouts.index());
    assert!(timeouts.runs() > 0, "the timeout drain never ran");
    assert_eq!(timeouts.noop, 0, "a timeout drain woke on a stale gate");
    assert!(
        timeouts.skipped > timeouts.runs(),
        "timeout drains are not gated: {} skipped vs {} runs",
        timeouts.skipped,
        timeouts.runs()
    );
}
