//! `segmented-thrash`: a serial survey, greedy search and bounded search
//! on a disk-backed `SegmentedPlatform` whose decoded working set is
//! larger than its audience cache.
//!
//! Every pass reopens the segment store with a cold cache, so each pass
//! pays the same decode misses.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use adcomp_core::{
    rank_individuals, survey_individuals, top_compositions, top_compositions_bounded, ApiSource,
    AuditTarget, Direction, DiscoveryConfig, EstimateSource, MeasuredTargeting, SensitiveClass,
    QUERIES_PER_SPEC,
};
use adcomp_platform::{
    Catalog, CategorySpec, EstimateKind, InterfaceKind, Objective, PlatformConfig, ReachOracle,
    RoundingRule, SegmentedPlatform, SkewProfile,
};
use adcomp_population::{
    DemographicProfile, Gender, SegmentAudience, SegmentStore, UniverseConfig, SEGMENT_ALIGN,
};
use adcomp_targeting::{Capabilities, FeatureId};

use super::{
    end_to_end, secs, timed_passes, timed_setups, trace_overhead, Outcome, RunConfig, CATALOG_SEED,
};
use crate::probe::{repeat_share, Counts, Probes};
use crate::report::process_cpu_s;

/// Sizes of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Segments in the store.
    pub segments: u32,
    /// Users per segment (a multiple of [`SEGMENT_ALIGN`]).
    pub segment_users: u32,
    /// Attributes per catalog category (two categories).
    pub per_category: u32,
    /// Log-uniform attribute popularity range.
    pub popularity: (f64, f64),
    /// Discovery reach floor.
    pub min_reach: u64,
    /// Decoded-audience cache budget in bytes.
    pub cache_bytes: usize,
    /// Compositions each discovery samples.
    pub top_k: usize,
}

impl Sizes {
    /// The benchmark's sizes: 4 × 1 Mi users, 56 attributes, the paper's
    /// 10k floor scaled by 4.19M / 20.97M, and a 4 MiB cache against a
    /// ~9.9 MB decoded working set.
    pub const BENCH: Sizes = Sizes {
        segments: 4,
        segment_users: 16 * SEGMENT_ALIGN,
        per_category: 28,
        popularity: (0.0008, 0.045),
        min_reach: 2_000,
        cache_bytes: 4 << 20,
        top_k: 1_000,
    };
    /// Sizes for the self-tests.
    pub const SMALL: Sizes = Sizes {
        segments: 3,
        segment_users: SEGMENT_ALIGN,
        per_category: 12,
        popularity: (0.01, 0.3),
        min_reach: 3_000,
        cache_bytes: 1 << 20,
        top_k: 60,
    };

    fn users(&self) -> u32 {
        self.segments * self.segment_users
    }
}

/// A generated segment store on disk and the catalog it was built from.
pub struct Env {
    dir: PathBuf,
    catalog: Catalog,
    sizes: Sizes,
    seed: u64,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Candidates of one pass's searches, counted by the probe on the
/// estimate source.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchCounts {
    /// Candidates the greedy search measured.
    pub candidates: u64,
    /// Candidates the bounded search measured (the rest it pruned).
    pub measured: u64,
}

/// The outputs of one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Searched {
    /// The survey's measurements.
    pub survey: Vec<MeasuredTargeting>,
    /// Greedy search result.
    pub greedy: Vec<MeasuredTargeting>,
    /// Bounded search result.
    pub bounded: Vec<MeasuredTargeting>,
}

fn catalog_for(seed: u64, sizes: Sizes) -> Catalog {
    let skew = |lean: f32| {
        let mut s = SkewProfile::neutral().lean_male(lean);
        s.popularity_range = sizes.popularity;
        s
    };
    Catalog::generate(
        seed,
        &[
            CategorySpec {
                name: "Interests",
                domain: "interests",
                feature: FeatureId(0),
                count: sizes.per_category,
                skew: skew(0.35),
            },
            CategorySpec {
                name: "Lifestyle",
                domain: "lifestyle",
                feature: FeatureId(1),
                count: sizes.per_category,
                skew: skew(-0.2),
            },
        ],
    )
}

fn platform_config() -> PlatformConfig {
    PlatformConfig {
        kind: InterfaceKind::FacebookNormal,
        capabilities: Capabilities::permissive(),
        rounding: RoundingRule::facebook(),
        estimate_kind: EstimateKind::Users,
        supported_objectives: vec![Objective::Reach],
        default_objective: Objective::Reach,
    }
}

impl Env {
    /// Generates the segmented universe under `dir`.
    pub fn setup(seed: u64, sizes: Sizes, dir: &Path) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(dir);
        let catalog = catalog_for(CATALOG_SEED, sizes);
        let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
        let config = UniverseConfig {
            n_users: sizes.users(),
            seed,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        };
        SegmentStore::create(
            dir,
            &config,
            sizes.segment_users,
            &models,
            sizes.cache_bytes,
        )
        .map_err(|e| format!("generate segments: {e}"))?;
        Ok(Env {
            dir: dir.to_path_buf(),
            catalog,
            sizes,
            seed,
        })
    }

    /// A platform over a fresh, cold-cache handle on the store.
    pub fn open(&self) -> Result<Arc<SegmentedPlatform>, String> {
        let store = SegmentStore::open(&self.dir, self.sizes.cache_bytes)
            .map_err(|e| format!("open segments: {e}"))?;
        Ok(Arc::new(SegmentedPlatform::new(
            platform_config(),
            store,
            self.catalog.clone(),
        )))
    }

    /// Discovery parameters of the pass.
    pub fn discovery(&self) -> DiscoveryConfig {
        DiscoveryConfig {
            top_k: self.sizes.top_k,
            min_reach: self.sizes.min_reach,
            arity: 2,
            seed: self.seed,
        }
    }

    /// One pass: survey, greedy search, bounded search. `source` is the
    /// platform as the audit sees it, `oracle` the pruning oracle, and
    /// `queries` the probe on `source`, when traced.
    pub fn pass(
        &self,
        source: Arc<dyn EstimateSource>,
        oracle: &dyn ReachOracle,
        queries: Option<&Counts>,
    ) -> Result<(Searched, SearchCounts), String> {
        let calls = || queries.map_or(0, Counts::calls) / QUERIES_PER_SPEC as u64;
        let target = AuditTarget::direct(source);
        let cfg = self.discovery();
        let survey = survey_individuals(&target).map_err(|e| e.to_string())?;
        let ranked = rank_individuals(
            &survey,
            SensitiveClass::Gender(Gender::Male),
            Direction::Toward,
            cfg.min_reach,
        );
        let before = calls();
        let greedy =
            top_compositions(&target, &survey, &ranked, &cfg).map_err(|e| e.to_string())?;
        let candidates = calls() - before;
        let before = calls();
        let bounded = top_compositions_bounded(&target, &survey, &ranked, &cfg, oracle)
            .map_err(|e| e.to_string())?;
        let counts = SearchCounts {
            candidates,
            measured: calls() - before,
        };
        let searched = Searched {
            survey: survey.entries,
            greedy,
            bounded,
        };
        Ok((searched, counts))
    }

    /// Mean microseconds of [`SegmentStore::load`] on a cold handle, over
    /// every attribute audience of every segment.
    fn load_us(&self) -> f64 {
        let Ok(store) = SegmentStore::open(&self.dir, self.sizes.cache_bytes) else {
            return 0.0;
        };
        let mut loads = 0u32;
        let start = Instant::now();
        for segment in 0..store.n_segments() {
            for attribute in 0..store.n_attributes() {
                if store
                    .load(segment, SegmentAudience::Attribute(attribute))
                    .is_ok()
                {
                    loads += 1;
                }
            }
        }
        secs(start) * 1e6 / f64::from(loads.max(1))
    }
}

/// The end-to-end run: setups and timed passes.
pub fn untraced(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let setup = |rep: usize| {
        Env::setup(
            cfg.seed,
            Sizes::BENCH,
            &cfg.work.join(format!("segments-{rep}")),
        )
    };
    let (env, setup_s) = timed_setups(setup).map_err(|e| format!("setup: {e}"))?;
    let mut first: Option<Searched> = None;
    let passes = timed_passes(cfg.seconds, |_| {
        let searched = env
            .open()
            .and_then(|p| env.pass(Arc::new(ApiSource(p.clone())), p.as_ref(), None));
        match searched {
            Ok((s, _)) => {
                out.checks
                    .check("greedy and bounded search agree", s.greedy == s.bounded);
                match &first {
                    None => {
                        out.notes.push(format!(
                            "{} compositions above the reach floor",
                            s.greedy.len()
                        ));
                        first = Some(s);
                    }
                    Some(f) => out
                        .checks
                        .check("searches identical across passes", *f == s),
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
    let start = Instant::now();
    let env = Env::setup(cfg.seed, Sizes::BENCH, &cfg.work.join("segments"))
        .map_err(|e| format!("setup: {e}"))?;
    let generate_s = secs(start);

    // A warm-up pass, then the untraced reference pass, with the cache
    // counters it leaves.
    let _ = env
        .open()
        .and_then(|p| env.pass(Arc::new(ApiSource(p.clone())), p.as_ref(), None));
    let cpu = process_cpu_s();
    let start = Instant::now();
    let reference = env.open().and_then(|p| {
        Ok((
            env.pass(Arc::new(ApiSource(p.clone())), p.as_ref(), None)?
                .0,
            p,
        ))
    });
    let untraced_s = secs(start);
    let cpu_s = process_cpu_s() - cpu;
    let (reference, plain) = reference.map_err(|e| format!("untraced pass: {e}"))?;
    out.checks.check(
        "greedy and bounded search agree",
        reference.greedy == reference.bounded,
    );
    let cache = plain.store().cache_stats();
    let plain_stats = plain.stats();

    // Traced pass: decorated estimate source and oracle.
    let probes = Probes::new();
    let estimates = Counts::logging();
    let oracle_calls = Counts::new();
    let platform = env.open().map_err(|e| format!("traced setup: {e}"))?;
    let source = probes.source(
        "platform",
        Arc::new(ApiSource(platform.clone())),
        &estimates,
    );
    let oracle = probes.oracle("platform.oracle", platform.clone(), &oracle_calls);
    let start = Instant::now();
    let root = probes.span("core.discovery:pass");
    let traced = env.pass(source, &oracle, Some(&estimates));
    drop(root);
    let traced_s = secs(start);
    let (traced, counts) = traced.map_err(|e| format!("traced pass: {e}"))?;
    out.checks
        .check("traced searches equal untraced", traced == reference);
    out.checks.check(
        "traced pass issues the same platform queries",
        platform.stats() == plain_stats,
    );

    let att = probes.attribution("core.discovery:pass");
    let m = &mut out.metrics;
    let busy = att.layer("platform");
    m.set("platform.estimates", estimates.calls() as f64);
    m.set("platform.busy_s", busy);
    m.set(
        "platform.us_per_estimate",
        busy * 1e6 / estimates.calls().max(1) as f64,
    );
    m.set("platform.errors", estimates.errors() as f64);
    m.set("discovery.self_s", att.layer("core.discovery"));
    m.set("discovery.candidates", counts.candidates as f64);
    m.set("discovery.survivors", reference.bounded.len() as f64);
    m.set(
        "discovery.pruned_share",
        1.0 - counts.measured as f64 / counts.candidates.max(1) as f64,
    );
    m.set("repeat_share", repeat_share(&estimates.log()));
    m.set("oracle.calls", oracle_calls.calls() as f64);
    m.set("oracle.busy_s", att.layer("platform.oracle"));
    m.set("segment.cache_hits", cache.hits as f64);
    m.set("segment.cache_misses", cache.misses as f64);
    m.set(
        "segment.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    m.set("segment.resident_bytes", cache.resident_bytes as f64);
    m.set("segment.load_us", env.load_us());
    m.set(
        "segment.generate_users_per_s",
        f64::from(Sizes::BENCH.users()) / generate_s,
    );
    trace_overhead(m, untraced_s, traced_s, att.root_attributed_s, cpu_s);
    out.checks.check(
        "layer self times sum within 5% of the traced pass",
        (att.root_attributed_s / traced_s - 1.0).abs() <= 0.05,
    );
    out.notes.push(format!(
        "generate {generate_s:.3} s, untraced {untraced_s:.3} s, traced {traced_s:.3} s; \
         {} platform estimates, {} compositions",
        plain_stats.estimates,
        reference.greedy.len()
    ));
    Ok(())
}
