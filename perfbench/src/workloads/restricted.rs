//! `restricted-audit`: the Table-1 pipeline on the paper-scale
//! FB-restricted interface, measured through its Facebook parent, with
//! a 2-worker query engine.

use std::sync::Arc;
use std::time::Instant;

use adcomp_core::{AuditTarget, EngineConfig, EstimateSource, QueryEngine};
use adcomp_platform::{build_facebook_restricted, AdPlatform, SimScale};
use adcomp_targeting::AttributeId;

use super::pipeline::{discovery_config, replay_targeting, table1_pass, Table};
use super::{end_to_end, secs, timed_passes, timed_setups, trace_overhead, EngineReading};
use super::{FacebookTemplate, Outcome, RunConfig, WORKERS};
use crate::probe::{repeat_share, Counts, Probes};
use crate::report::process_cpu_s;

/// Sizes of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Simulation scale (paper: 220k Facebook users).
    pub scale: SimScale,
    /// Compositions each discovery samples.
    pub top_k: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        scale: SimScale::Paper,
        top_k: 1_000,
    };
    /// Sizes for the self-tests.
    pub const SMALL: Sizes = Sizes {
        scale: SimScale::Test,
        top_k: 60,
    };
}

/// The built interfaces and the engine.
pub struct Env {
    /// Facebook's normal interface (the measurement side).
    pub facebook: Arc<AdPlatform>,
    /// The restricted interface (the audited side).
    pub restricted: Arc<AdPlatform>,
    /// The 2-worker pool.
    pub engine: Arc<QueryEngine>,
    sizes: Sizes,
}

impl Env {
    /// Generates the users and both interfaces and starts the engine.
    pub fn setup(facebook: &FacebookTemplate, seed: u64, sizes: Sizes) -> Env {
        let facebook = Arc::new(facebook.build(seed));
        let restricted = Arc::new(build_facebook_restricted(&facebook, sizes.scale));
        Env {
            facebook,
            restricted,
            engine: Arc::new(QueryEngine::new(EngineConfig::with_workers(WORKERS))),
            sizes,
        }
    }

    /// The audit target over (possibly decorated) sources, pooled on the
    /// engine when `pooled`.
    pub fn target(
        &self,
        targeting: Arc<dyn EstimateSource>,
        measurement: Arc<dyn EstimateSource>,
        pooled: bool,
    ) -> AuditTarget {
        let ids: Vec<AttributeId> = self
            .restricted
            .catalog()
            .ids()
            .map(|id| {
                self.restricted
                    .parent_id(id)
                    .expect("restricted ids map to parent")
            })
            .collect();
        let target = AuditTarget::via(targeting, measurement, ids);
        if pooled {
            target.with_engine(self.engine.clone())
        } else {
            target
        }
    }

    /// The undecorated target the end-to-end runs measure.
    pub fn plain_target(&self, pooled: bool) -> AuditTarget {
        self.target(self.restricted.clone(), self.facebook.clone(), pooled)
    }

    /// One pass over `target`.
    pub fn pass(&self, target: &AuditTarget, queries: Option<&Counts>) -> Result<Table, String> {
        table1_pass(target, &discovery_config(self.sizes.top_k), queries)
            .map(|(table, _)| table)
            .map_err(|e| e.to_string())
    }
}

/// The end-to-end run: setups and timed passes.
pub fn untraced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let template = FacebookTemplate::new(Sizes::BENCH.scale);
    let (env, setup_s) = timed_setups(|_| Ok(Env::setup(&template, cfg.seed, Sizes::BENCH)))
        .map_err(|e| format!("setup: {e}"))?;
    let target = env.plain_target(true);
    let mut first: Option<Table> = None;
    let mut estimates = Vec::new();
    let passes = timed_passes(cfg.seconds, |_| {
        let before = env.facebook.stats().estimates;
        match env.pass(&target, None) {
            Ok(table) => {
                estimates.push(env.facebook.stats().estimates - before);
                match &first {
                    None => {
                        out.checks
                            .check("table1 has four populations", table.rows.len() == 4);
                        out.notes
                            .push(format!("table1 digest {:016x}", table.digest()));
                        first = Some(table);
                    }
                    Some(f) => out
                        .checks
                        .check("table1 identical across passes", *f == table),
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
    out.notes
        .push(format!("platform estimates per pass: {estimates:?}"));
    Ok(())
}

/// The per-layer run: reference, traced and replayed passes.
pub fn traced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let template = FacebookTemplate::new(Sizes::BENCH.scale);
    let env = Env::setup(&template, cfg.seed, Sizes::BENCH);

    // A warm-up pass, then the untraced reference pass: wall time,
    // engine counters, platform query count and CPU time.
    let target = env.plain_target(true);
    let _ = env.pass(&target, None);
    let engine = EngineReading::now();
    let (stats, cpu) = (env.facebook.stats(), process_cpu_s());
    let start = Instant::now();
    let reference = env.pass(&target, None);
    let untraced_s = secs(start);
    let cpu_s = process_cpu_s() - cpu;
    let reference_estimates = env.facebook.stats().estimates - stats.estimates;
    engine.record(&mut out.metrics);
    let reference = reference.map_err(|e| format!("untraced pass: {e}"))?;

    // Traced pass through decorated sources.
    let probes = Probes::new();
    let measured = Counts::logging();
    let audited = Counts::new();
    let target = env.target(
        probes.source("platform", env.restricted.clone(), &audited),
        probes.source("platform", env.facebook.clone(), &measured),
        true,
    );
    let engine = EngineReading::now();
    let stats = env.facebook.stats();
    let start = Instant::now();
    let root = probes.span("core.discovery:pass");
    let traced = table1_pass(
        &target,
        &discovery_config(Sizes::BENCH.top_k),
        Some(&measured),
    );
    drop(root);
    let traced_s = secs(start);
    let (_, _, _, engine_wall_s) = engine.since();
    let traced_estimates = env.facebook.stats().estimates - stats.estimates;
    let (traced, counts) = traced.map_err(|e| format!("traced pass: {e}"))?;
    out.checks
        .check("traced table1 equals untraced", traced == reference);
    out.checks.check(
        "traced pass issues the same platform queries",
        traced_estimates == reference_estimates,
    );

    // The serial path: same cells, and the engine's coarse-grain speedup.
    let start = Instant::now();
    let serial = env.pass(&env.plain_target(false), None);
    let serial_s = secs(start);
    match serial {
        Ok(t) => out
            .checks
            .check("serial table1 equals pooled", t == reference),
        Err(e) => out.checks.error("serial pass", e),
    }

    let att = probes.attribution("core.discovery:pass");
    let m = &mut out.metrics;
    let busy = att.layer("platform");
    let estimates = measured.calls() + audited.calls();
    m.set("platform.estimates", estimates as f64);
    m.set("platform.busy_s", busy);
    m.set(
        "platform.us_per_estimate",
        busy * 1e6 / estimates.max(1) as f64,
    );
    m.set(
        "platform.errors",
        (measured.errors() + audited.errors()) as f64,
    );
    m.set("engine.utilization", busy / (traced_s * WORKERS as f64));
    m.set("engine.coarse_speedup", serial_s / untraced_s);
    m.set(
        "discovery.self_s",
        att.layer("core.discovery") - engine_wall_s,
    );
    m.set("discovery.candidates", counts.candidates as f64);
    m.set("discovery.survivors", counts.survivors as f64);
    let log = measured.log();
    m.set("repeat_share", repeat_share(&log));
    replay_targeting(&env.facebook, &log, m);
    trace_overhead(m, untraced_s, traced_s, att.root_attributed_s, cpu_s);
    m.set("failed_share", out.checks.failed_share());
    out.notes.push(format!(
        "untraced {untraced_s:.3} s, traced {traced_s:.3} s, serial {serial_s:.3} s; \
         {reference_estimates} platform estimates per pass"
    ));
    Ok(())
}
