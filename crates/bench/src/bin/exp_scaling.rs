//! E1/E2 — Tables 4.1/4.2, Figs. 4-4/4-6: multicore scalability of the
//! classic Scatter-Gather mechanism vs. H-Dispatch.
//!
//! The paper runs its full consolidated scenario (hundreds of hardware
//! agents, thousands of clients) for each thread count. This harness
//! builds a scaled-up rig — one data center with 32 servers per tier and
//! sixteen concurrent series streams — and reports wall time plus
//! speedup vs. one thread for both mechanisms. Like the paper's engine,
//! the rig ticks every agent every step (`set_always_tick`): with the
//! active-set fast path the indexed phase sees only the few busy agents
//! and dispatch has nothing to parallelize. Each thread count runs
//! `TRIALS` times, interleaved across counts so host drift hits every
//! count alike; the tables report the median and the min–max spread.
//!
//! The claim is the *shape*: classic Scatter-Gather pays a queue
//! round-trip per agent per signal, so adding threads does not help (the
//! paper measured ≈1.0× at every count — Table 4.1); H-Dispatch batches
//! agents into sets and scales with hardware threads (1.71×/3.20×/5.17×/
//! 8.06× at 2/4/8/16 threads on the paper's 24-core host — Table 4.2).
//! On hosts with fewer cores the H-Dispatch curve saturates at the
//! hardware limit while the Scatter-Gather penalty remains visible.
//!
//! `--check` runs the CI smoke assertions instead of the timed tables:
//! a few simulated seconds of the same rig under serial, SG(2), SG(4),
//! HD(2, 64) and HD(4, 64) must encode byte-identical reports, and each
//! pooled run must dispatch exactly the work items its construction
//! defines — one per agent per phase for Scatter-Gather, one per
//! 64-agent set per phase for H-Dispatch.

use gdisim_bench::{print_table, write_csv};
use gdisim_core::scenarios::rates;
use gdisim_core::{MasterPolicy, Simulation, SimulationConfig};
use gdisim_infra::{
    ClientAccessSpec, DataCenterSpec, Infrastructure, TierSpec, TierStorageSpec, TopologySpec,
};
use gdisim_ports::Executor;
use gdisim_queueing::SwitchSpec;
use gdisim_types::units::gbps;
use gdisim_types::{AppId, SimDuration, SimTime, TierKind};
use gdisim_workload::{Catalog, SeriesKind};
use std::time::Instant;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
const AGENT_SET: usize = 64;
const SLICE_SECS: u64 = 60;
const STREAMS: u64 = 16;
const TRIALS: usize = 5;
/// Simulated seconds of the `--check` run.
const CHECK_SECS: u64 = 10;

fn scaling_topology() -> TopologySpec {
    let tier = |kind| TierSpec {
        kind,
        servers: 32,
        cpu: rates::cpu(1, 2),
        memory: rates::memory(32.0, 0.0),
        nic: rates::nic(),
        lan: rates::lan(),
        storage: TierStorageSpec::PerServerRaid(rates::raid(0.0)),
    };
    TopologySpec {
        data_centers: vec![DataCenterSpec {
            name: "NA".into(),
            switch: SwitchSpec::new(gbps(100.0)),
            tiers: vec![
                tier(TierKind::App),
                tier(TierKind::Db),
                tier(TierKind::Fs),
                tier(TierKind::Idx),
            ],
            clients: ClientAccessSpec {
                link: rates::client_access(),
                client_clock_hz: rates::CLIENT_CLOCK_HZ,
            },
        }],
        relay_sites: vec![],
        wan_links: vec![],
    }
}

/// The scaling rig under `executor`, with every stream installed.
fn build_rig(executor: Executor) -> Simulation {
    let infra = Infrastructure::build(&scaling_topology(), 42).expect("topology");
    let mut config = SimulationConfig::validation();
    config.executor = executor;
    let mut sim = Simulation::new(infra, vec!["NA".into()], config);
    sim.set_always_tick(true);
    sim.set_master_policy(MasterPolicy::Local);
    let rc = rates::lab_rate_card();
    for i in 0..STREAMS {
        let templates = Catalog::cad_series(SeriesKind::Average, &rc);
        sim.add_series_source(
            AppId(i as u32),
            templates,
            SimDuration::from_secs(8),
            "NA",
            SimTime::from_millis(i * 137),
            None,
        );
    }
    sim
}

fn run_with(executor: Executor) -> f64 {
    let mut sim = build_rig(executor);
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(SLICE_SECS));
    t0.elapsed().as_secs_f64()
}

/// CI smoke assertions (`--check`): deterministic, no timing.
fn check() {
    let run = |executor: Executor| {
        let mut sim = build_rig(executor);
        sim.run_until(SimTime::from_secs(CHECK_SECS));
        sim
    };
    let sim = run(Executor::serial());
    let serial = gdisim_snap::to_bytes(sim.report());
    let agents = sim.infra_ref().agent_count() as u64;
    let responses = sim.report().responses.total_recorded();
    println!(
        "check: serial {CHECK_SECS} sim-s over {agents} agents: {responses} responses, {} report bytes",
        serial.len()
    );
    assert!(
        responses > 0,
        "no operation completed: the report pins nothing"
    );
    // Every step of the always-tick rig is one full phase.
    let sets = agents.div_ceil(AGENT_SET as u64);
    for (executor, per_phase) in [
        (Executor::scatter_gather(2), agents),
        (Executor::scatter_gather(4), agents),
        (Executor::hdispatch(2, AGENT_SET), sets),
        (Executor::hdispatch(4, AGENT_SET), sets),
    ] {
        let label = format!("{}({})", executor.name(), executor.threads());
        let report = gdisim_snap::to_bytes(run(executor.clone()).report());
        assert!(
            report == serial,
            "{label}: report differs from the serial run"
        );
        let stats = executor.stats().expect("pooled executor has stats");
        println!(
            "check: {label}: report identical; {} items / {} phases ({per_phase} per phase)",
            stats.items, stats.phases
        );
        assert!(stats.phases > 0, "{label}: no phase dispatched");
        assert_eq!(
            stats.items,
            stats.phases * per_phase,
            "{label}: dispatch count differs from the Table 4.1/4.2 construction"
        );
    }
    println!("check: OK");
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }
    println!("E1/E2 — engine scalability (Tables 4.1/4.2)");
    println!(
        "  host hardware threads: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "  rig: 128 servers (~650 agents, all ticked every step), {STREAMS} series streams, \
         {SLICE_SECS} simulated seconds, median of {TRIALS} interleaved trials"
    );

    let headers = vec![
        "# of Threads",
        "Sim time (s)",
        "Speedup (x)",
        "Min (s)",
        "Max (s)",
    ];
    for (name, file, make) in [
        (
            "Table 4.1 — classic Scatter-Gather",
            "table_4_1_scatter_gather.csv",
            (|threads: usize| {
                if threads == 1 {
                    Executor::serial()
                } else {
                    Executor::scatter_gather(threads)
                }
            }) as fn(usize) -> Executor,
        ),
        (
            "Table 4.2 — H-Dispatch (Agent Set=64)",
            "table_4_2_hdispatch.csv",
            (|threads: usize| {
                if threads == 1 {
                    Executor::serial()
                } else {
                    Executor::hdispatch(threads, AGENT_SET)
                }
            }) as fn(usize) -> Executor,
        ),
    ] {
        let mut trials = vec![Vec::with_capacity(TRIALS); THREADS.len()];
        for _ in 0..TRIALS {
            for (times, &threads) in trials.iter_mut().zip(&THREADS) {
                times.push(run_with(make(threads)));
            }
        }
        let median = |times: &mut Vec<f64>| {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let base = median(&mut trials[0]);
        let rows: Vec<Vec<String>> = THREADS
            .iter()
            .zip(&mut trials)
            .map(|(threads, times)| {
                let t = median(times);
                vec![
                    threads.to_string(),
                    format!("{t:.3}"),
                    format!("{:.2}", base / t),
                    format!("{:.3}", times[0]),
                    format!("{:.3}", times[times.len() - 1]),
                ]
            })
            .collect();
        print_table(name, &headers, &rows);
        write_csv(file, &headers, &rows);
    }

    println!(
        "\n  Paper's 24-core host: Scatter-Gather ≈1.0x throughout; H-Dispatch\n  \
         1.00/1.71/3.20/5.17/8.06x at 1/2/4/8/16 threads. Fewer hardware threads\n  \
         cap the H-Dispatch curve; the Scatter-Gather per-item overhead is\n  \
         host-independent and visible at every scale."
    );
}
