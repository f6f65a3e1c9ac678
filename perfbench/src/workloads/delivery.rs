//! `delivery-bootstrap`: a paired job/baseline delivery on the
//! paper-scale Facebook universe, then confident representation ratios
//! for both creatives under noisy inferred demographics, with the
//! bootstrap replicates dispatched through a 2-worker engine.

use std::sync::Arc;
use std::time::Instant;

use adcomp_core::experiments::delivery_exp::{paired_campaigns, PairedAdConfig};
use adcomp_core::{
    bootstrap_ratios, confident_rep_ratio, measure_spec, AuditTarget, ClassChannel, EngineConfig,
    EstimateSource, MeasuredPair, QueryEngine, SensitiveClass, UncertaintyConfig,
};
use adcomp_delivery::{deliver, DeliveryConfig, DeliveryOutcome, DeliverySetup};
use adcomp_infer::RatioVerdict;
use adcomp_platform::{AdPlatform, SimScale};
use adcomp_population::{AttributeInference, Gender};
use adcomp_targeting::TargetingSpec;

use super::{end_to_end, secs, timed_passes, timed_setups, trace_overhead, EngineReading};
use super::{FacebookTemplate, Outcome, RunConfig, WORKERS};
use crate::probe::{repeat_share, Counts, Probes};
use crate::report::process_cpu_s;

/// Sizes of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Simulation scale (paper: 220k Facebook users).
    pub scale: SimScale,
    /// Auction rounds per delivery.
    pub rounds: u64,
    /// Pacing window in rounds.
    pub window: u64,
    /// Bootstrap replicates per creative.
    pub replicates: u32,
}

impl Sizes {
    /// The benchmark's sizes: 2M rounds, window 4,000, and 200k
    /// replicates per creative (the size `BENCH_uncertainty.json` uses).
    pub const BENCH: Sizes = Sizes {
        scale: SimScale::Paper,
        rounds: 2_000_000,
        window: 4_000,
        replicates: 200_000,
    };
    /// Sizes for the self-tests.
    pub const SMALL: Sizes = Sizes {
        scale: SimScale::Test,
        rounds: 100_000,
        window: 2_000,
        replicates: 5_000,
    };
}

/// Scoring threads of the delivery.
const SCORING_THREADS: usize = 2;

/// The class whose representation the audit reports.
const CLASS: SensitiveClass = SensitiveClass::Gender(Gender::Female);

/// The platform with its inferred view, the resolved campaigns, and
/// the engine.
pub struct Env {
    /// Facebook with a noisy inferred demographic view attached.
    pub facebook: Arc<AdPlatform>,
    /// The paired campaigns with their audiences resolved.
    pub setup: DeliverySetup,
    /// The 2-worker pool.
    pub engine: Arc<QueryEngine>,
    inference: AttributeInference,
    sizes: Sizes,
    seed: u64,
}

/// One creative's confident ratio, as bits for exact comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Point estimate bits.
    pub point: u64,
    /// Interval endpoint bits.
    pub interval: (u64, u64),
    /// Four-fifths verdict.
    pub verdict: RatioVerdict,
    /// Whether the interval contains the point.
    pub contains_point: bool,
}

/// The outputs of one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivered {
    /// Impression-log digest.
    pub digest: u64,
    /// Rounds left unfilled.
    pub unfilled: u64,
    /// The job creative's ratio.
    pub job: Ratio,
    /// The baseline creative's ratio.
    pub baseline: Ratio,
}

impl Env {
    /// Generates the users, attaches the inferred view, and resolves the
    /// campaigns' audiences.
    pub fn setup(facebook: &FacebookTemplate, seed: u64, sizes: Sizes) -> Result<Env, String> {
        let inference = AttributeInference::noisy(seed ^ 0x1A7E5, 0.08, 0.12);
        let facebook = facebook.build(seed);
        let view = Arc::new(inference.view(facebook.universe()));
        let facebook = Arc::new(facebook.with_inferred_view(view));
        let setup = resolve(&facebook, seed, sizes)?;
        Ok(Env {
            facebook,
            setup,
            engine: Arc::new(QueryEngine::new(EngineConfig::with_workers(WORKERS))),
            inference,
            sizes,
            seed,
        })
    }

    fn delivery_config(&self, threads: usize) -> DeliveryConfig {
        DeliveryConfig::new(self.sizes.rounds, self.seed)
            .window(self.sizes.window)
            .threads(threads)
            .label("perfbench")
    }

    /// Runs the delivery.
    pub fn deliver(&self, threads: usize) -> DeliveryOutcome {
        let universe = self.facebook.universe();
        deliver(
            universe,
            universe.everyone(),
            &self.setup,
            &self.delivery_config(threads),
        )
    }

    /// The inputs of one creative's confident ratio: its delivered
    /// users re-classified through the inferred view, and the measured
    /// base population.
    pub fn pairs(
        &self,
        outcome: &DeliveryOutcome,
        measurement: Arc<dyn EstimateSource>,
    ) -> Result<[(MeasuredPair, MeasuredPair); 2], String> {
        let target = AuditTarget::direct(measurement);
        let base = measure_spec(&target, &TargetingSpec::everyone()).map_err(|e| e.to_string())?;
        let base = MeasuredPair::of(&base, CLASS, self.facebook.config().rounding);
        let view = self
            .facebook
            .inferred_view()
            .expect("setup attaches an inferred view");
        let pair = |index: usize| {
            let users = outcome.delivered_users(index, &self.setup);
            let f = users.intersection_len(view.gender_audience(Gender::Female));
            let m = users.intersection_len(view.gender_audience(Gender::Male));
            (
                MeasuredPair::exact(f, m, users.len().saturating_sub(f + m)),
                base,
            )
        };
        Ok([pair(0), pair(1)])
    }

    /// The bootstrap seed of creative `index`.
    fn bootstrap_seed(&self, index: usize) -> u64 {
        self.seed ^ 0xB007 ^ index as u64
    }

    /// The observation channel of the audited class.
    pub fn channel(&self) -> ClassChannel {
        ClassChannel::for_class(Some(&self.inference), CLASS)
    }

    /// Confident ratio of creative `index`, pooled on the engine.
    pub fn ratio(&self, index: usize, pair: &(MeasuredPair, MeasuredPair)) -> Ratio {
        let ucfg = UncertaintyConfig {
            replicates: self.sizes.replicates,
            confidence: 0.95,
        };
        let r = confident_rep_ratio(
            &pair.0,
            &pair.1,
            &self.channel(),
            self.bootstrap_seed(index),
            &ucfg,
            Some(&self.engine),
        );
        Ratio {
            point: r.point.to_bits(),
            interval: (r.interval.lo.to_bits(), r.interval.hi.to_bits()),
            verdict: r.verdict(),
            contains_point: r.interval.contains(r.point),
        }
    }

    /// The bootstrap sample of creative `index`, pooled or serial.
    pub fn bootstrap(
        &self,
        index: usize,
        pair: &(MeasuredPair, MeasuredPair),
        pooled: bool,
    ) -> Vec<f64> {
        bootstrap_ratios(
            self.bootstrap_seed(index),
            &pair.0,
            &pair.1,
            &self.channel(),
            self.sizes.replicates,
            pooled.then_some(&self.engine),
        )
    }

    /// One pass: delivery, base measurement, two confident ratios.
    /// `span` opens a probe span around each layer call when traced.
    pub fn pass(
        &self,
        measurement: Arc<dyn EstimateSource>,
        probes: Option<&Probes>,
    ) -> Result<Delivered, String> {
        let span = |name: &str| probes.map(|p| p.span(name));
        let guard = span("delivery:deliver");
        let outcome = self.deliver(SCORING_THREADS);
        drop(guard);
        let pairs = self.pairs(&outcome, measurement)?;
        let guard = span("infer:confident_rep_ratio");
        let job = self.ratio(0, &pairs[0]);
        let baseline = self.ratio(1, &pairs[1]);
        drop(guard);
        Ok(Delivered {
            digest: outcome.digest(),
            unfilled: outcome.unfilled,
            job,
            baseline,
        })
    }
}

fn resolve(facebook: &AdPlatform, seed: u64, sizes: Sizes) -> Result<DeliverySetup, String> {
    // The paired-ad roster at audit configuration, with budgets scaled
    // to the round count so pacing stays engaged.
    let mut campaigns = paired_campaigns(seed, &PairedAdConfig::for_scale(sizes.scale));
    for c in &mut campaigns {
        c.budget_micros = sizes.rounds.saturating_mul(4_000);
    }
    DeliverySetup::for_platform(facebook, campaigns).map_err(|e| format!("resolve audiences: {e}"))
}

/// Checks the audit's verdict on one pass's outputs.
fn check_verdict(out: &mut Outcome, delivered: &Delivered) {
    out.checks.check(
        "job creative is under-represented",
        delivered.job.verdict == RatioVerdict::Under,
    );
    out.checks.check(
        "job interval contains its point",
        delivered.job.contains_point,
    );
}

/// The end-to-end run: setups and timed passes.
pub fn untraced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let template = FacebookTemplate::new(Sizes::BENCH.scale);
    let (env, setup_s) = timed_setups(|_| Env::setup(&template, cfg.seed, Sizes::BENCH))
        .map_err(|e| format!("setup: {e}"))?;
    let mut first: Option<Delivered> = None;
    let passes = timed_passes(cfg.seconds, |_| {
        match env.pass(env.facebook.clone(), None) {
            Ok(d) => {
                check_verdict(out, &d);
                match &first {
                    None => {
                        out.notes.push(format!(
                            "impression log {:016x}, job ratio {:.4} ({:?}), baseline {:.4} ({:?})",
                            d.digest,
                            f64::from_bits(d.job.point),
                            d.job.verdict,
                            f64::from_bits(d.baseline.point),
                            d.baseline.verdict
                        ));
                        first = Some(d);
                    }
                    Some(f) => out
                        .checks
                        .check("delivery and ratios identical across passes", *f == d),
                }
                true
            }
            Err(e) => {
                out.checks.error("audit pass", e);
                false
            }
        }
    });
    end_to_end(out, setup_s, &passes);
    Ok(())
}

/// The per-layer run: reference, traced and replayed passes.
pub fn traced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let template = FacebookTemplate::new(Sizes::BENCH.scale);
    let env = Env::setup(&template, cfg.seed, Sizes::BENCH).map_err(|e| format!("setup: {e}"))?;
    let start = Instant::now();
    let resolved = resolve(&env.facebook, cfg.seed, Sizes::BENCH);
    let resolve_s = secs(start);
    drop(resolved);

    // A warm-up pass, then the untraced reference pass.
    let _ = env.pass(env.facebook.clone(), None);
    let (stats, cpu) = (env.facebook.stats(), process_cpu_s());
    let start = Instant::now();
    let reference = env.pass(env.facebook.clone(), None);
    let untraced_s = secs(start);
    let cpu_s = process_cpu_s() - cpu;
    let reference_estimates = env.facebook.stats().estimates - stats.estimates;
    let reference = reference.map_err(|e| format!("untraced pass: {e}"))?;
    check_verdict(out, &reference);

    // Traced pass.
    let probes = Probes::new();
    let measured = Counts::logging();
    let stats = env.facebook.stats();
    let start = Instant::now();
    let root = probes.span("audit:pass");
    let traced = env.pass(
        probes.source("platform", env.facebook.clone(), &measured),
        Some(&probes),
    );
    drop(root);
    let traced_s = secs(start);
    match traced {
        Ok(d) => out
            .checks
            .check("traced outputs equal untraced", d == reference),
        Err(e) => out.checks.error("traced pass", e),
    }
    out.checks.check(
        "traced pass issues the same platform queries",
        env.facebook.stats().estimates - stats.estimates == reference_estimates,
    );
    let att = probes.attribution("audit:pass");

    // Delivery at one scoring thread: same log, and the thread speedup.
    let start = Instant::now();
    let serial = env.deliver(1);
    let serial_deliver_s = secs(start);
    let start = Instant::now();
    let threaded = env.deliver(SCORING_THREADS);
    let threaded_s = secs(start);
    out.checks.check(
        "impression log identical at 1 and 2 scoring threads",
        serial.digest() == threaded.digest() && threaded.digest() == reference.digest,
    );

    // Bootstrap pooled against serial, on the job creative.
    let pairs = env
        .pairs(&threaded, env.facebook.clone())
        .map_err(|e| format!("base measurement: {e}"))?;
    let engine = EngineReading::now();
    let (cpu, start) = (process_cpu_s(), Instant::now());
    let pooled = env.bootstrap(0, &pairs[0], true);
    let pooled_s = secs(start);
    let pooled_cpu_s = process_cpu_s() - cpu;
    engine.record(&mut out.metrics);
    let start = Instant::now();
    let serial_sample = env.bootstrap(0, &pairs[0], false);
    let serial_s = secs(start);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    out.checks.check(
        "pooled and serial bootstrap bits equal",
        bits(&pooled) == bits(&serial_sample),
    );

    let m = &mut out.metrics;
    let busy = att.layer("platform");
    m.set("platform.estimates", measured.calls() as f64);
    m.set("platform.busy_s", busy);
    m.set(
        "platform.us_per_estimate",
        busy * 1e6 / measured.calls().max(1) as f64,
    );
    m.set("platform.errors", measured.errors() as f64);
    m.set(
        "engine.utilization",
        pooled_cpu_s / (pooled_s * WORKERS as f64),
    );
    m.set("engine.fine_speedup", serial_s / pooled_s);
    m.set(
        "delivery.rounds_per_s",
        Sizes::BENCH.rounds as f64 / threaded_s,
    );
    m.set(
        "delivery.fill_share",
        1.0 - threaded.unfilled as f64 / Sizes::BENCH.rounds as f64,
    );
    m.set("delivery.resolve_s", resolve_s);
    m.set("delivery.thread_speedup", serial_deliver_s / threaded_s);
    m.set("infer.replicates", 2.0 * f64::from(Sizes::BENCH.replicates));
    m.set("infer.bootstrap_s", pooled_s);
    m.set("infer.bootstrap_serial_s", serial_s);
    m.set(
        "infer.dropped_share",
        1.0 - pooled.len() as f64 / f64::from(Sizes::BENCH.replicates),
    );
    m.set("repeat_share", repeat_share(&measured.log()));
    trace_overhead(m, untraced_s, traced_s, att.root_attributed_s, cpu_s);
    out.notes.push(format!(
        "untraced {untraced_s:.3} s, traced {traced_s:.3} s; delivery {threaded_s:.3} s at 2 \
         threads, {serial_deliver_s:.3} s at 1; bootstrap {pooled_s:.3} s pooled, \
         {serial_s:.3} s serial"
    ));
    Ok(())
}
