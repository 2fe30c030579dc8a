//! The three workloads: the paper's own runs, built through the same
//! public `gdisim-core` calls the `gdisim` subcommands make.
//!
//! A workload *unit* is one or more simulations (segments) that all run
//! over the same simulated window.

use gdisim_core::scenarios::{churned, consolidated, validation};
use gdisim_core::{ChurnModel, ChurnProcess, Simulation};
use gdisim_infra::TopologySpec;
use gdisim_types::SimTime;
use gdisim_workload::RetryPolicy;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ch. 6: the six-DC consolidation study over its 12:00–16:00 GMT
    /// overlap peak, on the default serial engine.
    ConsolidatedDay,
    /// The churned two-DC scenario under a hot churn model and the demo
    /// resilience bundle: evictions, retries and hedges dominate.
    ChurnedHot,
    /// Ch. 5 experiments 1–3: mostly idle steps, fixed per-step cost.
    ValidationSuite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ConsolidatedDay,
        Workload::ChurnedHot,
        Workload::ValidationSuite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConsolidatedDay => "consolidated_day",
            Workload::ChurnedHot => "churned_hot",
            Workload::ValidationSuite => "validation_suite",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated window every segment is timed over. Consolidated
    /// warms up (untimed) from midnight to the window start.
    pub fn window(self) -> (SimTime, SimTime) {
        match self {
            Workload::ConsolidatedDay => (SimTime::from_hours(12), SimTime::from_hours(16)),
            Workload::ChurnedHot => (SimTime::ZERO, SimTime::from_hours(1)),
            Workload::ValidationSuite => (SimTime::ZERO, SimTime::ZERO + validation::HORIZON),
        }
    }

    /// Passes over the window in a run of `seconds`: one per fixed
    /// share of the budget, so the work done depends only on `seconds`,
    /// never on the host. On a 2-vCPU x86-64 VM a pass takes about 8 s
    /// on `consolidated_day` and 0.3 s on the others.
    pub fn passes(self, seconds: u64) -> usize {
        let secs_per_pass = match self {
            Workload::ConsolidatedDay => 3.4,
            Workload::ChurnedHot => 0.4,
            Workload::ValidationSuite => 0.5,
        };
        ((seconds as f64 / secs_per_pass).ceil() as usize).max(3)
    }

    /// Simulated end of the layer window, which starts with the timed
    /// window: the per-layer executor and feature comparisons run over
    /// it on branches of the prepared unit. On `consolidated_day` it is
    /// the first 40 minutes of the peak, to keep the traced run short.
    pub fn layer_end(self) -> SimTime {
        match self {
            Workload::ConsolidatedDay => SimTime::from_secs(12 * 3600 + 40 * 60),
            Workload::ChurnedHot => SimTime::from_hours(1),
            Workload::ValidationSuite => SimTime::ZERO + validation::HORIZON,
        }
    }

    /// Simulated end of the sharded comparison, which runs from time
    /// zero because a sharded engine can only be split before its first
    /// step.
    pub fn sharded_end(self) -> SimTime {
        match self {
            Workload::ConsolidatedDay => SimTime::from_secs(20 * 60),
            _ => self.layer_end(),
        }
    }

    /// The topologies `build` instantiates, one per segment.
    pub fn topologies(self) -> Vec<TopologySpec> {
        match self {
            Workload::ConsolidatedDay => vec![consolidated::topology()],
            Workload::ChurnedHot => vec![churned::topology()],
            Workload::ValidationSuite => validation::EXPERIMENTS
                .iter()
                .map(|_| validation::downscaled_topology())
                .collect(),
        }
    }

    /// Builds the unit's segments at time zero, policies installed:
    /// exactly the work `setup_s` times.
    pub fn build(self, seed: u64) -> Vec<Simulation> {
        match self {
            Workload::ConsolidatedDay => vec![consolidated::build(seed)],
            Workload::ChurnedHot => {
                let mut sim = churned::build(seed);
                sim.set_churn_model(hot_churn_model(seed))
                    .expect("the hot model names only churned-topology components");
                sim.set_resilience(churned::demo_resilience())
                    .expect("the demo resilience bundle is valid");
                vec![sim]
            }
            Workload::ValidationSuite => validation::EXPERIMENTS
                .iter()
                .map(|p| validation::build(*p, seed))
                .collect(),
        }
    }

    /// Builds the unit and runs it, untimed, to the window start.
    pub fn prepare(self, seed: u64) -> Vec<Simulation> {
        let start = self.window().0;
        let mut sims = self.build(seed);
        for sim in &mut sims {
            sim.run_until(start);
        }
        sims
    }
}

/// The hot churn model of `churned_hot`, drawn from the seed: servers
/// fail about every 120 s and repair in about 20 s, WAN links fail about
/// every 240 s and repair in about 15 s (each mean within ±5%), and
/// retries time out after 30 s.
pub fn hot_churn_model(seed: u64) -> ChurnModel {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut about = |mean: f64| mean * (0.95 + 0.1 * unit_interval(&mut state));
    let process = |mtbf_secs: f64, mttr_secs: f64| ChurnProcess {
        mtbf_secs,
        mttr_secs,
        fail_shape: Some(1.5),
        repair_shape: None,
    };
    let mut model = churned::demo_churn_model();
    model.servers = Some(process(about(120.0), about(20.0)));
    model.wan_links = Some(process(about(240.0), about(15.0)));
    model.domains.clear();
    model.retry = Some(RetryPolicy {
        timeout_secs: 30.0,
        max_retries: 3,
        backoff_base_secs: 1.0,
        backoff_factor: 2.0,
        backoff_cap_secs: 10.0,
    });
    model
}

/// SplitMix64 step mapped to `[0, 1)`.
fn unit_interval(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}
