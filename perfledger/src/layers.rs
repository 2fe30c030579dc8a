//! The traced run: per-layer metrics, timed from outside around calls
//! into each crate's public functions. Nothing inside the crates is
//! instrumented for it; the engine's own profiler (`enable_profiler` /
//! `step_profile`), a small-capacity `TraceLog` and the public counters
//! are only read.

use crate::workload::Workload;
use crate::{
    alloc, branch_unit, fastest, finish_unit, gate, median, run_minutes, run_window, tail, Ledger,
};
use gdisim_core::{EventClass, ShardedSimulation, Simulation, TraceEvent};
use gdisim_infra::Infrastructure;
use gdisim_ports::Executor;
use gdisim_types::SimTime;
use std::time::Instant;

/// Events the traced run's `TraceLog` keeps; every further event is
/// only counted (by kind), which is all the router counts need.
const TRACE_CAPACITY: usize = 1024;

/// Traced repetitions, compared counter by counter.
const TRACED_REPS: usize = 2;

/// (serial, variant) pairs behind each per-layer ratio.
const PAIRS: usize = 3;

/// Timings taken for each setup layer metric.
const SETUP_SAMPLES: usize = 41;

/// One per-layer number. `exact` marks a count that must repeat across
/// runs of the same input.
struct Layer {
    name: String,
    value: f64,
    unit: &'static str,
    exact: bool,
    note: String,
}

fn exact(name: &str, value: f64, unit: &'static str) -> Layer {
    Layer {
        name: name.to_string(),
        value,
        unit,
        exact: true,
        note: String::new(),
    }
}

fn timing(name: &str, value: f64, unit: &'static str) -> Layer {
    Layer {
        name: name.to_string(),
        value,
        unit,
        exact: false,
        note: String::new(),
    }
}

/// Engine counters the window is measured against (they are cumulative
/// from time zero).
struct Baseline {
    live: u64,
    background: usize,
    counters: [u64; 11],
}

fn report_counters(sim: &Simulation) -> [u64; 11] {
    let r = sim.report();
    [
        r.churn.incidents,
        r.churn.repairs,
        r.faults.failed_operations,
        r.faults.retried_operations,
        r.faults.abandoned_operations,
        r.resilience.hedges_launched,
        r.resilience.hedge_wins,
        r.resilience.breaker_trips,
        r.resilience.shed_operations,
        r.resilience.hedges_cancelled,
        r.responses.total_recorded(),
    ]
}

const COUNTER_NAMES: [&str; 9] = [
    "churn.incidents",
    "churn.repairs",
    "faults.failed_ops",
    "faults.retried_ops",
    "faults.abandoned_ops",
    "resilience.hedges_launched",
    "resilience.hedge_wins",
    "resilience.breaker_trips",
    "resilience.shed_ops",
];
const HEDGES_CANCELLED: usize = 9;
const RESPONSES: usize = 10;

/// Trace events by kind, recorded plus dropped: launches, hops,
/// completed and failed operations.
fn trace_counts(sim: &Simulation) -> [u64; 4] {
    let log = sim.trace().expect("tracing enabled");
    let d = log.dropped_by_kind();
    let mut c = [d.launches, d.hops, d.operations_done, d.operations_failed];
    for (_, event) in log.events() {
        match event {
            TraceEvent::Launch { .. } => c[0] += 1,
            TraceEvent::Hop { .. } => c[1] += 1,
            TraceEvent::OperationDone { .. } => c[2] += 1,
            TraceEvent::OperationFailed { .. } => c[3] += 1,
            _ => {}
        }
    }
    c
}

/// One traced repetition of the unit over the workload's window.
fn traced_unit(
    workload: Workload,
    mut sims: Vec<Simulation>,
    failures: &mut Vec<String>,
) -> (Vec<f64>, u64, Vec<Layer>) {
    let (start, end) = workload.window();
    let mut base = Vec::new();
    let mut steps = 0usize;
    for sim in &mut sims {
        sim.enable_profiler(0);
        sim.enable_trace(TRACE_CAPACITY);
        base.push(Baseline {
            live: sim.active_operations() as u64,
            background: sim.report().background.len(),
            counters: report_counters(sim),
        });
        steps += ((end - sim.now()).as_micros() / sim.dt().as_micros()) as usize;
    }
    let mut step_us = Vec::with_capacity(steps);
    let (mut ticks, mut active_max, mut live_sum, mut live_max) = (0u64, 0u64, 0u64, 0u64);
    // Host time minute by minute, as in the untraced runs; within each
    // minute every step is timed on its own. Both sample vectors are
    // sized up front, so that the allocator counts only the simulator.
    let mut minute_ms =
        Vec::with_capacity(sims.len() * (end - start).as_secs_f64() as usize / 60 + 1);
    let ((), allocs, alloc_bytes) = alloc::measure(|| {
        for sim in &mut sims {
            let dt = sim.dt();
            let advance = |at| {
                while sim.now() + dt <= at {
                    let t = Instant::now();
                    sim.step();
                    step_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let active = sim.active_agent_count() as u64;
                    let live = sim.active_operations() as u64;
                    ticks += active;
                    active_max = active_max.max(active);
                    live_sum += live;
                    live_max = live_max.max(live);
                }
            };
            run_minutes(start, end, advance, |ms| minute_ms.push(ms));
        }
    });

    let snapshot_start = Instant::now();
    for sim in &sims {
        std::hint::black_box(sim.metrics_snapshot());
    }
    let digest = finish_unit(workload, &sims, failures);
    let snapshot_ms = snapshot_start.elapsed().as_secs_f64() * 1e3;

    let mut phase_ns = [0u64; 4];
    let mut drains = [gdisim_obs::DrainStats::default(); 9];
    let mut trace = [0u64; 4];
    let mut deltas = [0u64; 11];
    let mut background_runs = 0;
    for (i, sim) in sims.iter().enumerate() {
        let p = sim.step_profile().expect("profiler enabled");
        for (acc, ns) in phase_ns.iter_mut().zip(p.phase_ns) {
            *acc += ns;
        }
        for (acc, (_, d)) in drains.iter_mut().zip(&p.drains) {
            acc.skipped += d.skipped;
            acc.gated += d.gated;
            acc.polled += d.polled;
            acc.noop += d.noop;
            acc.events += d.events;
            acc.cancelled += d.cancelled;
        }
        let t = trace_counts(sim);
        for (acc, v) in trace.iter_mut().zip(t) {
            *acc += v;
        }
        let now = report_counters(sim);
        for (k, acc) in deltas.iter_mut().enumerate() {
            *acc += now[k] - base[i].counters[k];
        }
        background_runs += sim.report().background.len() - base[i].background;
        // Every attempt launched in the window, or live at its start,
        // ends completed, failed, cancelled as a hedge loser, or live.
        let live_end = sim.active_operations() as u64;
        let hedge_cancels = now[HEDGES_CANCELLED] - base[i].counters[HEDGES_CANCELLED];
        let (lhs, rhs) = (base[i].live + t[0], t[2] + t[3] + hedge_cancels + live_end);
        if lhs != rhs {
            failures.push(format!(
                "attempt conservation: {} live + {} launched != {} completed + {} failed + \
                 {hedge_cancels} cancelled + {live_end} live",
                base[i].live, t[0], t[2], t[3]
            ));
        }
    }

    let n_steps = step_us.len() as f64;
    let phase_total = phase_ns.iter().sum::<u64>().max(1) as f64;
    let (step_tail, step_tail_pct) = tail(&step_us);
    let mut out = vec![
        exact("engine.steps", n_steps, "count"),
        timing("engine.step_us_p50", median(&step_us), "us"),
        Layer {
            note: format!("p{step_tail_pct:.4} of {n_steps} steps; "),
            ..timing("engine.step_us_tail", step_tail, "us")
        },
    ];
    for (i, phase) in ["drain", "advance", "route", "collect"].iter().enumerate() {
        out.push(timing(
            &format!("engine.phase.{phase}_share"),
            phase_ns[i] as f64 / phase_total,
            "ratio",
        ));
    }
    out.extend([
        exact("infra.agent_ticks", ticks as f64, "count"),
        exact("infra.active_set_mean", ticks as f64 / n_steps, "agents"),
        exact("infra.active_set_max", active_max as f64, "agents"),
        exact("router.launches", trace[0] as f64, "count"),
        exact("router.hops", trace[1] as f64, "count"),
        exact("router.completions", trace[2] as f64, "count"),
        exact("flight.live_ops_mean", live_sum as f64 / n_steps, "ops"),
        exact("flight.live_ops_max", live_max as f64, "ops"),
        exact(
            "flight.useful_ratio",
            trace[2] as f64 / trace[0].max(1) as f64,
            "ratio",
        ),
    ]);
    for class in EventClass::ALL {
        let d = drains[class.index()];
        let label = class.label();
        out.extend([
            exact(&format!("drain.{label}.events"), d.events as f64, "count"),
            exact(&format!("drain.{label}.ran"), d.runs() as f64, "count"),
            exact(&format!("drain.{label}.noop"), d.noop as f64, "count"),
            exact(
                &format!("drain.{label}.cancelled"),
                d.cancelled as f64,
                "count",
            ),
        ]);
    }
    out.push(exact(
        "workload.arrivals",
        drains[EventClass::Series.index()].events as f64,
        "count",
    ));
    for (k, name) in COUNTER_NAMES.iter().enumerate() {
        out.push(exact(name, deltas[k] as f64, "count"));
    }
    out.extend([
        exact("background.runs", background_runs as f64, "count"),
        exact(
            "metrics.responses_recorded",
            deltas[RESPONSES] as f64,
            "count",
        ),
        timing("report.snapshot_ms", snapshot_ms, "ms"),
        exact("alloc.count", allocs as f64, "count"),
        exact("alloc.bytes", alloc_bytes as f64, "bytes"),
    ]);
    (minute_ms, digest, out)
}

/// Sharded engine (2 shards, 2 workers) from time zero.
struct ShardedRun {
    minute_ms: Vec<f64>,
    digest: u64,
    wait_ns: u64,
    busy_ns: u64,
    mail_sent: u64,
    ordering_violations: u64,
}

fn sharded_run(workload: Workload, seed: u64) -> ShardedRun {
    let end = workload.sharded_end();
    let mut shardeds: Vec<ShardedSimulation> = workload
        .build(seed)
        .into_iter()
        .map(|sim| ShardedSimulation::new(sim, 2, None, Some(2)).expect("valid shard config"))
        .collect();
    let mut minute_ms = Vec::new();
    for s in &mut shardeds {
        run_minutes(
            SimTime::ZERO,
            end,
            |at| s.run_until(at),
            |ms| minute_ms.push(ms),
        );
    }
    let mut run = ShardedRun {
        minute_ms,
        digest: gate::unit_digest(shardeds.iter().map(|s| gate::report_digest(&s.report()))),
        wait_ns: 0,
        busy_ns: 0,
        mail_sent: 0,
        ordering_violations: 0,
    };
    for stat in shardeds.iter().flat_map(ShardedSimulation::stats) {
        run.wait_ns += stat.barrier_wait_ns;
        run.busy_ns += stat.window_wall_ns;
        run.mail_sent += stat.mail_sent;
        run.ordering_violations += stat.ordering_violations;
    }
    run
}

/// The serial engine from time zero to `sharded_end`: the base of the
/// sharded comparison.
fn serial_from_zero(workload: Workload, seed: u64) -> (Vec<f64>, u64) {
    let end = workload.sharded_end();
    let mut sims = workload.build(seed);
    let mut minute_ms = Vec::new();
    for sim in &mut sims {
        run_minutes(
            SimTime::ZERO,
            end,
            |at| sim.run_until(at),
            |ms| minute_ms.push(ms),
        );
    }
    let digest = gate::unit_digest(sims.iter().map(|s| gate::report_digest(s.report())));
    (minute_ms, digest)
}

/// The layer window: branches of the prepared unit, run from the
/// window start to [`Workload::layer_end`].
struct LayerWindow<'a> {
    prepared: &'a [Simulation],
    start: SimTime,
    end: SimTime,
}

impl LayerWindow<'_> {
    /// Host ms per minute and digest of one branch of the prepared unit
    /// over the window, after `configure` set it up. The finished unit
    /// is returned for its counters.
    fn run(&self, configure: impl Fn(&mut Simulation)) -> (Vec<f64>, u64, Vec<Simulation>) {
        let mut sims = branch_unit(self.prepared);
        sims.iter_mut().for_each(&configure);
        let mut minute_ms = Vec::new();
        for sim in &mut sims {
            run_minutes(
                self.start,
                self.end,
                |at| sim.run_until(at),
                |ms| minute_ms.push(ms),
            );
        }
        let digest = gate::unit_digest(sims.iter().map(|s| gate::report_digest(s.report())));
        (minute_ms, digest, sims)
    }
}

/// Host-time ratio of `variant` to `base` over [`PAIRS`] interleaved
/// (base, variant) runs. Each side costs, as in the untraced runs, the
/// fastest of its runs minute by minute. Both closures return host ms
/// per minute and their failures. Returns the ratio and the base in
/// host seconds.
fn ratio(
    ledger: &mut Ledger,
    label: &str,
    mut base: impl FnMut() -> (Vec<f64>, Vec<String>),
    mut variant: impl FnMut() -> (Vec<f64>, Vec<String>),
) -> (f64, f64) {
    let (mut bases, mut variants) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (minutes, failures) = base();
        ledger.check("serial base", failures);
        bases.push(minutes);
        let (minutes, failures) = variant();
        ledger.check(label, failures);
        variants.push(minutes);
    }
    let host_s = |runs: &[Vec<f64>]| fastest(runs).iter().sum::<f64>() / 1e3;
    let base_s = host_s(&bases);
    (host_s(&variants) / base_s, base_s)
}

/// A failure unless `digest` equals `expected`.
fn same_digest(label: &str, digest: u64, expected: u64) -> Vec<String> {
    if digest == expected {
        Vec::new()
    } else {
        vec![format!(
            "{label} digest {digest:#018x} != serial {expected:#018x}"
        )]
    }
}

fn median_ms(samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// An observational feature: metric name, label, and how to switch it on.
type Feature = (&'static str, &'static str, fn(&mut Simulation));

pub fn run_layers(workload: Workload, seed: u64, ledger: &mut Ledger) {
    // core::scenarios and infra::build: the two halves of set-up.
    let topology_ms = median_ms(SETUP_SAMPLES, || {
        std::hint::black_box(workload.topologies());
    });
    let specs = workload.topologies();
    let infra_build_ms = median_ms(SETUP_SAMPLES, || {
        for spec in &specs {
            std::hint::black_box(Infrastructure::build(spec, seed).expect("valid topology"));
        }
    });

    // The untraced base, then the traced repetitions, all from the
    // same prepared state. Both sides cost the fastest of their
    // [`TRACED_REPS`] runs minute by minute.
    let prepared = workload.prepare(seed);
    let timed = run_window(workload, branch_unit(&prepared), TRACED_REPS, None);
    let untraced_s = timed.host_s();
    let mut failures = Vec::new();
    let digest = finish_unit(workload, &timed.sims, &mut failures);
    drop(timed);
    gate::check_pin(workload, seed, digest, &mut failures);
    ledger.check("untraced run", failures);
    println!("digest {digest:#018x} ({} seed {seed})", workload.name());

    let mut traced_runs = Vec::new();
    let mut reps: Vec<Vec<Layer>> = Vec::new();
    for _ in 0..TRACED_REPS {
        let mut failures = Vec::new();
        let (minute_ms, d, layers) = traced_unit(workload, branch_unit(&prepared), &mut failures);
        if d != digest {
            failures.push(format!(
                "traced digest {d:#018x} differs from untraced {digest:#018x}"
            ));
        }
        ledger.check("traced run", failures);
        traced_runs.push(minute_ms);
        reps.push(layers);
    }
    let traced_s = fastest(&traced_runs).iter().sum::<f64>() / 1e3;

    let setup_note = format!("median of {SETUP_SAMPLES}");
    ledger.metric("setup.topology_ms", topology_ms, "ms", &setup_note);
    ledger.metric("setup.infra_build_ms", infra_build_ms, "ms", &setup_note);
    for (i, layer) in reps[0].iter().enumerate() {
        let values: Vec<f64> = reps.iter().map(|r| r[i].value).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        let spread = match (layer.exact, lo == hi) {
            (true, true) => format!("exact, repeats across {TRACED_REPS} runs"),
            (true, false) => format!("VARIES across runs: {lo}..{hi}, not a gate"),
            (false, _) => format!("median of {TRACED_REPS} runs, spread {lo:.4}..{hi:.4}"),
        };
        let value = if layer.exact {
            layer.value
        } else {
            median(&values)
        };
        ledger.metric(
            &layer.name,
            value,
            layer.unit,
            &(layer.note.clone() + &spread),
        );
    }

    // The layer window: every executor and feature against the serial
    // engine, on branches of the prepared unit over a steady part of the
    // timed window.
    let (start, end) = (workload.window().0, workload.layer_end());
    let window = LayerWindow {
        prepared: &prepared,
        start,
        end,
    };
    let (_, serial_digest, _) = window.run(|_| {});
    let serial = || {
        let (s, d, _) = window.run(|_| {});
        (s, same_digest("repeated serial", d, serial_digest))
    };
    let base_note = |base_s: f64| {
        format!("{PAIRS} pairs, fastest per minute; base: serial {base_s:.4} host s over {start}..{end}")
    };

    let mut sg_stats = None;
    let (r, base_s) = ratio(ledger, "scatter-gather(2)", serial, || {
        let sg = Executor::scatter_gather(2);
        let (s, d, _) = window.run(|sim| sim.set_executor(sg.clone()));
        sg_stats = sg.stats();
        (s, same_digest("scatter-gather(2)", d, serial_digest))
    });
    ledger.metric("ports.sg2_ratio", r, "ratio", &base_note(base_s));
    let (r, base_s) = ratio(ledger, "h-dispatch(2)", serial, || {
        let (s, d, _) = window.run(|sim| sim.set_executor(Executor::hdispatch(2, 64)));
        (s, same_digest("h-dispatch(2)", d, serial_digest))
    });
    ledger.metric("ports.hd2_ratio", r, "ratio", &base_note(base_s));
    let stats = sg_stats.expect("pooled executor keeps stats");
    ledger.metric(
        "ports.items_per_phase",
        stats.items as f64 / stats.phases.max(1) as f64,
        "items",
        &format!(
            "scatter-gather(2): {} items / {} phases",
            stats.items, stats.phases
        ),
    );

    // Sharded engine: it can only be split before its first step, so it
    // and its serial base run from time zero. Its digest must repeat for
    // a fixed shard count (it differs from the serial one by design:
    // merged reports).
    let mut sharded: Vec<ShardedRun> = Vec::new();
    let zero_digest = serial_from_zero(workload, seed).1;
    let (r, base_s) = ratio(
        ledger,
        "sharded(2x2)",
        || {
            let (s, d) = serial_from_zero(workload, seed);
            (s, same_digest("repeated serial", d, zero_digest))
        },
        || {
            let run = sharded_run(workload, seed);
            let mut failures = Vec::new();
            if let Some(first) = sharded.first() {
                if first.digest != run.digest {
                    failures.push(format!(
                        "sharded digest {:#018x} does not repeat ({:#018x})",
                        run.digest, first.digest
                    ));
                }
            }
            if run.ordering_violations != 0 {
                failures.push(format!("{} ordering violations", run.ordering_violations));
            }
            let minutes = run.minute_ms.clone();
            sharded.push(run);
            (minutes, failures)
        },
    );
    let first = &sharded[0];
    ledger.metric(
        "shard.s2_ratio",
        r,
        "ratio",
        &format!(
            "2 shards x 2 workers; {PAIRS} pairs, fastest per minute; base: serial {base_s:.4} host s \
             over {}..{}",
            SimTime::ZERO,
            workload.sharded_end()
        ),
    );
    ledger.metric(
        "shard.barrier_wait_share",
        first.wait_ns as f64 / (first.wait_ns + first.busy_ns).max(1) as f64,
        "ratio",
        "barrier wait over shard busy + wait time",
    );
    ledger.metric("shard.mail_sent", first.mail_sent as f64, "count", "");
    ledger.metric(
        "shard.ordering_violations",
        first.ordering_violations as f64,
        "count",
        "",
    );

    // Feature costs. Each feature is observational, so the digest holds.
    let features: [Feature; 4] = [
        ("obs.flat_trace_ratio", "trace", |s| s.enable_trace(100_000)),
        ("obs.optrace_1pct_ratio", "optrace 1%", |s| {
            s.enable_optrace(0.01)
        }),
        ("obs.optrace_full_ratio", "optrace 100%", |s| {
            s.enable_optrace(1.0)
        }),
        ("audit.paranoid_ratio", "paranoid", |s| s.set_paranoid(true)),
    ];
    for (name, label, configure) in features {
        let (r, base_s) = ratio(ledger, label, serial, || {
            let (s, d, sims) = window.run(configure);
            let mut failures = same_digest(label, d, serial_digest);
            let violations: u64 = sims
                .iter()
                .filter_map(|s| s.audit_state().map(|a| a.violations))
                .sum();
            if violations != 0 {
                failures.push(format!("{violations} invariant violations"));
            }
            (s, failures)
        });
        ledger.metric(name, r, "ratio", &base_note(base_s));
    }

    // Checkpoint: encode at mid-window, decode, resume to the end.
    let mid = start + (end - start) / 2;
    let mut sims = branch_unit(&prepared);
    let (mut bytes, mut encode_ms, mut decode_ms) = (0usize, 0.0, 0.0);
    let mut resumed = Vec::new();
    for sim in &mut sims {
        sim.run_until(mid);
        let t = Instant::now();
        let encoded = gdisim_snap::to_bytes(&*sim);
        encode_ms += t.elapsed().as_secs_f64() * 1e3;
        bytes += encoded.len();
        let t = Instant::now();
        let decoded = gdisim_snap::from_bytes::<Simulation>(&encoded);
        decode_ms += t.elapsed().as_secs_f64() * 1e3;
        resumed.push(decoded);
    }
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    for decoded in resumed {
        match decoded {
            Ok(mut sim) => {
                sim.run_until(end);
                digests.push(gate::report_digest(sim.report()));
            }
            Err(e) => failures.push(format!("snapshot decode failed: {e}")),
        }
    }
    if failures.is_empty() {
        failures = same_digest("resumed", gate::unit_digest(digests), serial_digest);
    }
    ledger.check("checkpoint resume", failures);
    let at = format!("state at {mid}");
    ledger.metric("snap.checkpoint_bytes", bytes as f64, "bytes", &at);
    ledger.metric("snap.encode_ms", encode_ms, "ms", &at);
    ledger.metric("snap.decode_ms", decode_ms, "ms", &at);

    let accuracy = crate::accuracy::validation_rmse(seed);
    ledger.metric(
        "testbed.run_s",
        accuracy.testbed_s,
        "s",
        "reference instrument, experiments 1-3",
    );
    ledger.metric(
        "trace.overhead",
        traced_s / untraced_s,
        "ratio",
        &format!("traced {traced_s:.4} over untraced {untraced_s:.4} host s, fastest per minute"),
    );
}
