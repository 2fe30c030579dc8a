//! Perf ledger: the benchmark every performance or simplicity claim on
//! GDISim is measured with.
//!
//! ```text
//! perfledger --workload <consolidated_day|churned_hot|validation_suite|all>
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload untraced and reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics from separately
//! instrumented runs. Both check correctness. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The process exits non-zero on any correctness failure. See README.md
//! for every metric and workload.

mod accuracy;
mod alloc;
mod gate;
mod layers;
mod workload;

use gdisim_core::Simulation;
use gdisim_types::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up builds timed per run, whatever the number of passes.
const SETUP_BUILDS: usize = 512;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gate::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Reported metrics plus the run's correctness verdict.
pub struct Ledger {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            metrics: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric and prints it by name with its unit, plus a
    /// human-readable note (base of a ratio, sample count, ...).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        println!("{name:<30} {value:>20.6} {unit:<6} {note}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one checked run: attempted, and failed if any check did.
    pub fn check(&mut self, label: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures {
            println!("FAIL: {label}: {f}");
            self.failures.push(f);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the value
/// of rank `n - 11` (0-based) in ascending order, with its percentile.
/// Short samples fall back to the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let k = if n > 11 { n - 11 } else { n.saturating_sub(1) };
    (
        v.get(k).copied().unwrap_or(0.0),
        100.0 * (k + 1) as f64 / n.max(1) as f64,
    )
}

/// Host seconds of one `build` of the unit (scenario build plus policy
/// install).
fn setup_build(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let sims = std::hint::black_box(workload.build(seed));
    let secs = start.elapsed().as_secs_f64();
    drop(sims);
    secs
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time of one unit over the workload's window.
pub struct Timed {
    /// Host ms of every simulated minute: the fastest of its passes.
    pub minute_ms: Vec<f64>,
    /// Set-up builds timed between passes, in host seconds.
    pub setup_s: Vec<f64>,
    pub sims: Vec<Simulation>,
}

impl Timed {
    pub fn host_s(&self) -> f64 {
        self.minute_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs the unit over the window, untraced, one simulated minute per
/// `run_until` call, and times every minute in plain host time.
///
/// The window runs `passes` times, all but the last on branches of the
/// prepared state (branching is not timed), and each minute costs the
/// fastest of its passes: interference from other work on the host only
/// ever slows a minute down, and the passes of one minute lie seconds
/// apart, so the fastest is the one least disturbed. With `seed`,
/// [`SETUP_BUILDS`] set-up builds are spread evenly over the passes, so
/// set-up is sampled across the run in the same way.
pub fn run_window(
    workload: Workload,
    mut sims: Vec<Simulation>,
    passes: usize,
    seed: Option<u64>,
) -> Timed {
    let (start, end) = workload.window();
    let mut runs = Vec::with_capacity(passes);
    let mut setup_s = Vec::new();
    for pass in 0..passes {
        if let Some(seed) = seed {
            let builds = (pass + 1) * SETUP_BUILDS / passes - pass * SETUP_BUILDS / passes;
            setup_s.extend((0..builds).map(|_| setup_build(workload, seed)));
        }
        let mut minutes = Vec::new();
        for sim in &mut sims {
            let mut branch = (pass + 1 < passes).then(|| sim.branch());
            let target = branch.as_mut().unwrap_or(sim);
            run_minutes(start, end, |at| target.run_until(at), |ms| minutes.push(ms));
        }
        runs.push(minutes);
    }
    Timed {
        minute_ms: fastest(&runs),
        setup_s,
        sims,
    }
}

/// The fastest time of every minute over several runs of the same
/// minutes.
pub fn fastest(runs: &[Vec<f64>]) -> Vec<f64> {
    let mut best = runs[0].clone();
    for run in &runs[1..] {
        for (b, ms) in best.iter_mut().zip(run) {
            *b = b.min(*ms);
        }
    }
    best
}

/// Advances an engine from `start` to `end`, one simulated minute per
/// call of `advance`, and passes the host ms of every minute to `record`.
pub fn run_minutes(
    start: SimTime,
    end: SimTime,
    mut advance: impl FnMut(SimTime),
    mut record: impl FnMut(f64),
) {
    let minute = SimDuration::from_secs(60);
    let mut at = start;
    while at < end {
        at = (at + minute).min(end);
        let t = Instant::now();
        advance(at);
        record(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Simulated seconds of one unit.
pub fn unit_sim_seconds(workload: Workload, segments: usize) -> f64 {
    let (start, end) = workload.window();
    (end - start).as_secs_f64() * segments as f64
}

/// Digest of a finished unit, after its identity checks.
pub fn finish_unit(workload: Workload, sims: &[Simulation], failures: &mut Vec<String>) -> u64 {
    let end = workload.window().1;
    for sim in sims {
        failures.extend(gate::check_segment(workload, sim, end));
    }
    gate::unit_digest(sims.iter().map(|s| gate::report_digest(s.report())))
}

/// A copy of every segment of a prepared unit.
pub fn branch_unit(prepared: &[Simulation]) -> Vec<Simulation> {
    prepared.iter().map(Simulation::branch).collect()
}

/// The untraced run: end-to-end metrics.
fn run_end_to_end(workload: Workload, seed: u64, seconds: u64, ledger: &mut Ledger) {
    let prepared = workload.prepare(seed);
    let sim_s = unit_sim_seconds(workload, prepared.len());
    let passes = workload.passes(seconds);
    let timed = run_window(workload, prepared, passes, Some(seed));
    let rss = peak_rss_mb();
    let mut failures = Vec::new();
    let digest = finish_unit(workload, &timed.sims, &mut failures);
    println!("digest {digest:#018x} ({} seed {seed})", workload.name());
    gate::check_pin(workload, seed, digest, &mut failures);
    let accuracy = accuracy::validation_rmse(seed);
    if accuracy.rmse_pct > accuracy::RMSE_LIMIT_PCT {
        failures.push(format!(
            "validation RMSE {:.2}% exceeds the paper's {}% band",
            accuracy.rmse_pct,
            accuracy::RMSE_LIMIT_PCT
        ));
    }
    ledger.check("workload run", failures);

    let minute_ms = &timed.minute_ms;
    let (tail_ms, tail_pct) = tail(minute_ms);
    ledger.metric(
        "sim_rate",
        sim_s / timed.host_s(),
        "1/s",
        &format!("simulated s per host s, fastest of {passes} passes per minute"),
    );
    ledger.metric(
        "sim_minute_ms_p50",
        median(minute_ms),
        "ms",
        &format!("host ms per simulated minute, {} minutes", minute_ms.len()),
    );
    ledger.metric(
        "sim_minute_ms_tail",
        tail_ms,
        "ms",
        &format!("p{tail_pct:.2} of {} minutes", minute_ms.len()),
    );
    ledger.metric(
        "setup_s",
        timed.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
        &format!(
            "host s, fastest of {} builds spread over the run (median {:.3e})",
            timed.setup_s.len(),
            median(&timed.setup_s)
        ),
    );
    ledger.metric(
        "peak_rss_mb",
        rss,
        "MiB",
        "VmHWM after the timed window (one branch copy included)",
    );
    ledger.metric(
        "validation_rmse_pct",
        accuracy.rmse_pct,
        "%",
        "GDISim vs testbed, Table 5.3 columns without Tfs",
    );
}

/// `--workload all`: every workload in its own child process, so peak
/// memory stays isolated per run.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfledger: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed += 1;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0,
        Workload::ALL.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfledger: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "perfledger: {} seed {} seconds {} trace {} ({} threads available)",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut ledger = Ledger::new();
    // A panic anywhere in the run is a failed run, still reported.
    let run = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            layers::run_layers(workload, args.seed, &mut ledger);
        } else {
            run_end_to_end(workload, args.seed, args.seconds, &mut ledger);
        }
    }));
    if let Err(payload) = run {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        ledger.check("run", vec![format!("panicked: {message}")]);
    }
    println!("{}", ledger.json());
    if ledger.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
