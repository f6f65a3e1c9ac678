//! The four workloads and the measurement loop they share.
//!
//! Every workload is closed loop: one caller issues a pass, waits for
//! it, checks its outputs, and only then starts the next. An untraced
//! run sets the workload up [`SETUP_REPS`] times (reporting the median)
//! and then repeats audit passes for the run's time budget (reporting
//! the median pass). A traced run sets up once, makes a warm-up pass,
//! one untraced and one traced pass, and replays the traced pass's
//! captured inputs through single layers.

pub mod delivery;
pub mod pipeline;
pub mod remote;
pub mod restricted;
pub mod segmented;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use adcomp_obs::metrics::{duration_us_buckets, HistogramData, Registry};
use adcomp_platform::{build_facebook, AdPlatform, Catalog, PlatformConfig, SimScale};
use adcomp_population::{Universe, UniverseConfig};

use crate::report::{median, peak_rss_mib, Checks, Metrics};

/// Setups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest audit passes an untraced run makes, whatever its budget.
pub const MIN_PASSES: usize = 2;

/// Engine worker threads (the host's two hardware threads).
pub const WORKERS: usize = 2;

/// Seed of every workload's attribute catalog. The catalog (each
/// attribute's popularity and skew) is fixed so that every run seed asks
/// the same amount of work; the run seed draws the users and the audit's
/// samples.
pub const CATALOG_SEED: u64 = 0x5eed;

/// Facebook's interface settings, attribute catalog and universe shape
/// at one scale, fixed across run seeds.
pub struct FacebookTemplate {
    config: PlatformConfig,
    catalog: Catalog,
    universe: UniverseConfig,
}

impl FacebookTemplate {
    /// The template of `build_facebook(CATALOG_SEED, scale)`.
    pub fn new(scale: SimScale) -> FacebookTemplate {
        let facebook = build_facebook(CATALOG_SEED, scale);
        FacebookTemplate {
            config: facebook.config().clone(),
            catalog: facebook.catalog().clone(),
            universe: facebook.universe().config().clone(),
        }
    }

    /// Facebook over users drawn from `seed`: user generation and
    /// audience materialisation, the setup an audit of it waits for.
    pub fn build(&self, seed: u64) -> AdPlatform {
        let universe = UniverseConfig {
            seed,
            ..self.universe.clone()
        };
        AdPlatform::new(
            self.config.clone(),
            Arc::new(Universe::generate(&universe)),
            self.catalog.clone(),
        )
    }
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Budget for the audit passes of an untraced run, in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of an untraced (end-to-end) one.
    pub trace: bool,
    /// Scratch directory for stores and segments; removed afterwards.
    pub work: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Output checks.
    pub checks: Checks,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: &[&str] = &[
    "restricted-audit",
    "remote-recorded",
    "segmented-thrash",
    "delivery-bootstrap",
];

/// One run of a workload: records what it measured and checked into the
/// outcome, and returns the error that stopped it, if any.
type Run = fn(&RunConfig, &mut Outcome) -> Result<(), String>;

/// Runs the named workload; `None` for an unknown name. An error that
/// stops the run counts as a failed check.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    let (untraced, traced): (Run, Run) = match name {
        "restricted-audit" => (restricted::untraced, restricted::traced),
        "remote-recorded" => (remote::untraced, remote::traced),
        "segmented-thrash" => (segmented::untraced, segmented::traced),
        "delivery-bootstrap" => (delivery::untraced, delivery::traced),
        _ => return None,
    };
    let mut outcome = Outcome::default();
    let run = if cfg.trace { traced } else { untraced };
    if let Err(e) = run(cfg, &mut outcome) {
        outcome.checks.error(name, e);
    }
    Some(outcome)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Sets up [`SETUP_REPS`] times, dropping each environment before the
/// next is built, and returns the last with the median setup time.
pub fn timed_setups<E>(
    mut setup: impl FnMut(usize) -> Result<E, String>,
) -> Result<(E, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let start = Instant::now();
        env = Some(setup(rep)?);
        times.push(secs(start));
    }
    Ok((env.expect("at least one setup"), median(&times)))
}

/// Repeats `pass` until starting another would overrun `seconds` (but
/// at least [`MIN_PASSES`] times) and returns each pass's wall time.
/// `pass` reports its own errors into the checks; it returns `false`
/// to stop early.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(usize) -> bool) -> Vec<f64> {
    let loop_start = Instant::now();
    let mut times: Vec<f64> = Vec::new();
    loop {
        let start = Instant::now();
        let keep_going = pass(times.len());
        times.push(secs(start));
        if !keep_going {
            break;
        }
        let next = times.iter().copied().fold(0.0, f64::max);
        if times.len() >= MIN_PASSES && secs(loop_start) + next > seconds {
            break;
        }
    }
    times
}

/// Records the end-to-end metrics of an untraced run: the median setup
/// time, the median audit time (one `audit_s` per pass), and the
/// process's peak resident set.
pub fn end_to_end(outcome: &mut Outcome, setup_s: f64, audit_s: &[f64]) {
    outcome.metrics.set("setup_s", setup_s);
    outcome.metrics.set("audit_s", median(audit_s));
    outcome.metrics.set("peak_rss_mib", peak_rss_mib());
    outcome.notes.push(format!(
        "passes: {} (audit s: {})",
        audit_s.len(),
        audit_s
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// A histogram's buckets minus an earlier reading of the same histogram.
pub fn histogram_delta(after: &HistogramData, before: &HistogramData) -> HistogramData {
    HistogramData {
        bounds: after.bounds.clone(),
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        saturated: after.saturated - before.saturated,
    }
}

/// Readings of the program's own engine metrics, for deltas around a
/// pass.
pub struct EngineReading(HistogramData);

impl EngineReading {
    /// Reads `adcomp_engine_batch_latency_us` now.
    pub fn now() -> EngineReading {
        EngineReading(
            Registry::global()
                .histogram("adcomp_engine_batch_latency_us", duration_us_buckets())
                .data(),
        )
    }

    /// Batches, p50 and p99 batch latency (bucket upper bounds, µs) and
    /// total caller wait (s) since `self`.
    pub fn since(&self) -> (u64, f64, f64, f64) {
        let delta = histogram_delta(&EngineReading::now().0, &self.0);
        (
            delta.count,
            delta.quantile(0.50).unwrap_or(0) as f64,
            delta.quantile(0.99).unwrap_or(0) as f64,
            delta.sum as f64 / 1e6,
        )
    }

    /// Sets the `engine.*` batch metrics from the delta since `self`;
    /// returns the caller's total wait in seconds.
    pub fn record(&self, metrics: &mut Metrics) -> f64 {
        let (batches, p50, p99, wall) = self.since();
        metrics.set("engine.batches", batches as f64);
        metrics.set("engine.batch_p50_us", p50);
        metrics.set("engine.batch_p99_us", p99);
        metrics.set("engine.wall_s", wall);
        wall
    }
}

/// Traced-versus-untraced figures every traced run reports.
pub fn trace_overhead(
    metrics: &mut Metrics,
    untraced_s: f64,
    traced_s: f64,
    attributed_s: f64,
    cpu_s: f64,
) {
    metrics.set("trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    metrics.set("trace.pass_s", traced_s);
    metrics.set("trace.attributed_share", attributed_s / traced_s);
    metrics.set("process.cpu_s", cpu_s);
}
