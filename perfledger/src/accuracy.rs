//! Model accuracy: GDISim against the independent event-driven testbed
//! on the Ch. 5 validation experiments (Table 5.3).

use gdisim_core::scenarios::rates::lab_rate_card;
use gdisim_core::scenarios::validation::{self, APP_SERIES, EXPERIMENTS};
use gdisim_metrics::{mean_stddev, rmse_between, ResponseKey};
use gdisim_testbed::{run_validation, TestbedConfig};
use gdisim_types::{DcId, OpTypeId, SimTime, TierKind};
use gdisim_workload::{Catalog, SeriesKind};
use std::time::Instant;

/// The paper holds its Table 5.3 columns to 5–13%.
pub const RMSE_LIMIT_PCT: f64 = 13.0;

pub struct Accuracy {
    /// Mean RMSE in percent over experiments 1–3 and the columns CPU
    /// Tapp/Tdb/Tidx, #clients and response time. Tfs is left out: the
    /// two instruments' independently jittered disk bursts misalign
    /// pointwise although their means agree (EXPERIMENTS.md).
    pub rmse_pct: f64,
    /// Host seconds spent in the testbed instrument alone.
    pub testbed_s: f64,
}

/// Runs both instruments on experiments 1–3 with inputs drawn from
/// `seed`, outside any timed window.
pub fn validation_rmse(seed: u64) -> Accuracy {
    let rc = lab_rate_card();
    let mut columns = Vec::new();
    let mut testbed_s = 0.0;
    for periods in EXPERIMENTS {
        let mut sim = validation::build(periods, seed);
        sim.run_until(SimTime::ZERO + validation::HORIZON);
        let report = sim.into_report();
        let series = [SeriesKind::Light, SeriesKind::Average, SeriesKind::Heavy]
            .map(|k| Catalog::cad_series(k, &rc));
        let config = TestbedConfig {
            periods: (periods.light, periods.average, periods.heavy),
            launch_window: validation::LAUNCH_WINDOW,
            horizon: validation::HORIZON,
            seed: seed ^ 0x7E57_BED5,
            ..TestbedConfig::default()
        };
        let start = Instant::now();
        let phys = run_validation(series, APP_SERIES, &rc, &config);
        testbed_s += start.elapsed().as_secs_f64();

        for tier in [TierKind::App, TierKind::Db, TierKind::Idx] {
            let sim_cpu = report.cpu("NA", tier).map_or(&[][..], |s| s.values());
            columns.push(rmse_between(phys.tier_cpu[tier.label()].values(), sim_cpu));
        }
        let (mean_clients, _) = mean_stddev(phys.concurrent.values());
        columns.push(
            rmse_between(phys.concurrent.values(), report.concurrent_clients.values())
                / mean_clients.max(1.0),
        );
        // Response time: relative error per (series, operation), as RMSE.
        let mut rel = Vec::new();
        for app in APP_SERIES {
            for op in 0..8 {
                let key = ResponseKey {
                    app,
                    op: OpTypeId(op),
                    dc: DcId(0),
                };
                let p = phys.responses.history_mean(key).unwrap_or(0.0);
                let s = report.responses.history_mean(key).unwrap_or(0.0);
                if p > 0.0 && s > 0.0 {
                    rel.push((s - p) / p);
                }
            }
        }
        columns.push((rel.iter().map(|e| e * e).sum::<f64>() / rel.len().max(1) as f64).sqrt());
    }
    Accuracy {
        rmse_pct: 100.0 * columns.iter().sum::<f64>() / columns.len() as f64,
        testbed_s,
    }
}
