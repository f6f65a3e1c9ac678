//! A platform interface served from an on-disk segment store.
//!
//! [`AdPlatform`](crate::AdPlatform) materialises every catalog audience
//! in memory, which caps universes at a few million users. A
//! [`SegmentedPlatform`] serves the identical advertiser surface from a
//! [`SegmentStore`]: audiences live on disk as per-segment bitsets, a
//! bounded cache keeps the hot ones resident, and every estimate is
//! computed segment-at-a-time — so resident memory stays flat no matter
//! how many users the universe holds.
//!
//! Because segment boundaries are aligned to bitset chunk boundaries
//! (`SEGMENT_ALIGN`), per-segment audiences occupy disjoint chunk ranges
//! of the same global id space, and a spec's per-segment evaluation
//! partitions its monolithic evaluation exactly. Summing the per-segment
//! counts therefore reproduces [`AdPlatform::reach_estimate`] bit for
//! bit: same audience length in, same scale-multiply-round pipeline out.
//! The tests pin that equivalence against a monolithic platform built
//! from the same universe config and catalog.

use std::sync::{Mutex, PoisonError};

use adcomp_bitset::Bitset;
use adcomp_population::{SegmentAudience, SegmentError, SegmentStore};
use adcomp_targeting::{validate, AttributeId, EvalError, TargetingSpec};

use crate::catalog::Catalog;
use crate::estimate::{EstimateKind, SizeEstimate};
use crate::interface::PlatformMetrics;
use crate::interface::{EstimateRequest, InterfaceKind, PlatformConfig, PlatformError};
use crate::oracle::{min_len_reaching, ReachOracle};
use crate::ratelimit::QueryStats;

/// Storage failures surface as transient platform errors: the estimate
/// itself is well-formed, the backing store hiccuped, and a retry may
/// succeed — the same contract remote platforms give their clients.
fn store_err(e: SegmentError) -> PlatformError {
    PlatformError::Transient(format!("segment store: {e}"))
}

/// An advertiser interface over a streamed, disk-backed universe.
pub struct SegmentedPlatform {
    config: PlatformConfig,
    catalog: Catalog,
    store: SegmentStore,
    stats: Mutex<QueryStats>,
    metrics: PlatformMetrics,
}

impl SegmentedPlatform {
    /// Builds a platform over an existing segment store. The catalog must
    /// describe the same attributes the store was generated from, in the
    /// same order (entry `i` ↔ `SegmentAudience::Attribute(i)`).
    pub fn new(config: PlatformConfig, store: SegmentStore, catalog: Catalog) -> SegmentedPlatform {
        assert!(
            config
                .supported_objectives
                .contains(&config.default_objective),
            "default objective must be supported"
        );
        assert_eq!(
            catalog.len() as u32,
            store.n_attributes(),
            "one catalog entry per stored attribute audience"
        );
        SegmentedPlatform {
            metrics: PlatformMetrics::for_kind(config.kind),
            config,
            catalog,
            store,
            stats: Mutex::new(QueryStats::default()),
        }
    }

    /// The advertiser-visible reach estimate — the same pipeline as
    /// [`AdPlatform::reach_estimate`](crate::AdPlatform::reach_estimate),
    /// with the audience length computed segment-at-a-time instead of
    /// from resident bitsets.
    pub fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        if !self
            .config
            .supported_objectives
            .contains(&request.objective)
        {
            return Err(PlatformError::UnsupportedObjective(request.objective));
        }
        if let Err(e) = validate(&request.spec, &self.config.capabilities, &self.catalog) {
            self.stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .validation_failures += 1;
            self.metrics.validation_failures.inc();
            return Err(e.into());
        }
        let len = self.audience_len(&request.spec)?;
        let mut value = len as f64 * self.store.config().scale;
        if self.config.estimate_kind == EstimateKind::Impressions {
            value *= request.frequency_cap.impressions_multiplier();
        }
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .estimates += 1;
        let raw = value.round() as u64;
        let rounded = self.config.rounding.apply(raw);
        self.metrics.estimates.inc();
        self.metrics.estimate_size.observe(rounded);
        if rounded != raw {
            self.metrics.rounding_applied.inc();
        }
        Ok(SizeEstimate {
            value: rounded,
            kind: self.config.estimate_kind,
        })
    }

    /// Validates a spec without estimating.
    pub fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        validate(spec, &self.config.capabilities, &self.catalog).map_err(Into::into)
    }

    /// Interface configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The interface's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Which interface this simulates.
    pub fn kind(&self) -> InterfaceKind {
        self.config.kind
    }

    /// The backing segment store (cache statistics, manifest access).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> QueryStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a rate-limited request (called by the serving layer).
    pub fn note_rate_limited(&self) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rate_limited += 1;
        self.metrics.rate_limited.inc();
    }

    /// Exact audience length of a spec, summed over segments. Mirrors
    /// `adcomp_targeting::evaluate` exactly: OR within include groups
    /// (an empty group matches nobody), AND across groups, demographics
    /// ANDed on, exclusions subtracted.
    fn audience_len(&self, spec: &TargetingSpec) -> Result<u64, PlatformError> {
        let n = self.store.n_attributes();
        for group in &spec.include {
            for &id in &group.attributes {
                if id.0 >= n {
                    return Err(EvalError::UnknownAttribute(id).into());
                }
            }
        }
        for &id in &spec.exclude {
            if id.0 >= n {
                return Err(EvalError::UnknownAttribute(id).into());
            }
        }
        if spec.include.iter().any(|g| g.attributes.is_empty()) {
            return Ok(0);
        }
        // Pure "everyone" needs no segment I/O at all.
        if spec.include.is_empty()
            && spec.exclude.is_empty()
            && spec.demographics.genders.is_none()
            && spec.demographics.ages.is_none()
        {
            return self
                .store
                .total_cardinality(SegmentAudience::Everyone)
                .map_err(store_err);
        }
        let mut total = 0u64;
        for seg in 0..self.store.n_segments() {
            total += self.segment_len(seg, spec)?;
        }
        Ok(total)
    }

    /// The spec's audience length within one segment.
    fn segment_len(&self, seg: u32, spec: &TargetingSpec) -> Result<u64, PlatformError> {
        // Manifest pre-check, zero I/O: an AND over a group whose
        // attributes are all empty in this segment is empty here.
        for group in &spec.include {
            let mut attainable = 0u64;
            for &id in &group.attributes {
                attainable += self
                    .store
                    .cardinality(seg, SegmentAudience::Attribute(id.0))
                    .map_err(store_err)?;
            }
            if attainable == 0 {
                return Ok(0);
            }
        }
        // OR within each group.
        let mut group_sets: Vec<Bitset> = Vec::with_capacity(spec.include.len());
        for group in &spec.include {
            let mut acc: Option<Bitset> = None;
            for &id in &group.attributes {
                let audience = self
                    .store
                    .load(seg, SegmentAudience::Attribute(id.0))
                    .map_err(store_err)?;
                acc = Some(match acc {
                    None => (*audience).clone(),
                    Some(cur) => cur.or(audience.as_ref()),
                });
            }
            group_sets.push(acc.unwrap_or_default());
        }
        // AND across groups, smallest first.
        group_sets.sort_by_key(|s| s.len());
        let mut audience: Option<Bitset> = None;
        for set in group_sets {
            audience = Some(match audience {
                None => set,
                Some(cur) => cur.and(&set),
            });
            if audience.as_ref().is_some_and(|a| a.is_empty()) {
                break;
            }
        }
        let mut audience = match audience {
            Some(a) => a,
            None => (*self
                .store
                .load(seg, SegmentAudience::Everyone)
                .map_err(store_err)?)
            .clone(),
        };
        // Demographics.
        if let Some(genders) = &spec.demographics.genders {
            let mut demo = Bitset::new();
            for g in genders {
                let set = self
                    .store
                    .load(seg, SegmentAudience::Gender(*g))
                    .map_err(store_err)?;
                demo = demo.or(set.as_ref());
            }
            audience = audience.and(&demo);
        }
        if let Some(ages) = &spec.demographics.ages {
            let mut demo = Bitset::new();
            for a in ages {
                let set = self
                    .store
                    .load(seg, SegmentAudience::Age(*a))
                    .map_err(store_err)?;
                demo = demo.or(set.as_ref());
            }
            audience = audience.and(&demo);
        }
        // Exclusions.
        for &id in &spec.exclude {
            if audience.is_empty() {
                break;
            }
            let excluded = self
                .store
                .load(seg, SegmentAudience::Attribute(id.0))
                .map_err(store_err)?;
            audience = audience.and_not(excluded.as_ref());
        }
        Ok(audience.len())
    }
}

impl crate::api::PlatformApi for SegmentedPlatform {
    fn config(&self) -> &PlatformConfig {
        SegmentedPlatform::config(self)
    }

    fn catalog(&self) -> &Catalog {
        SegmentedPlatform::catalog(self)
    }

    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        SegmentedPlatform::reach_estimate(self, request)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        SegmentedPlatform::check(self, spec)
    }

    fn stats(&self) -> QueryStats {
        SegmentedPlatform::stats(self)
    }

    fn note_rate_limited(&self) {
        SegmentedPlatform::note_rate_limited(self)
    }
}

impl ReachOracle for SegmentedPlatform {
    fn attribute_len(&self, id: AttributeId) -> Option<u64> {
        if id.0 >= self.store.n_attributes() {
            return None;
        }
        self.store
            .total_cardinality(SegmentAudience::Attribute(id.0))
            .ok()
    }

    fn min_len_for_estimate(&self, min_estimate: u64) -> u64 {
        min_len_reaching(
            &self.config,
            self.store.config().scale,
            self.store.config().n_users as u64,
            min_estimate,
        )
    }

    fn and_reaches(&self, attrs: &[AttributeId], threshold_len: u64) -> bool {
        if attrs.iter().any(|id| id.0 >= self.store.n_attributes()) {
            return true; // undecidable: let measurement decide
        }
        if attrs.is_empty() {
            return self.store.config().n_users as u64 >= threshold_len;
        }
        // Phase 1, zero I/O: per-segment upper bounds from the manifest
        // (`|∧| ≤ min over attrs of the segment cardinality`).
        let n_segments = self.store.n_segments();
        let mut bounds = Vec::with_capacity(n_segments as usize);
        let mut total_bound = 0u64;
        for seg in 0..n_segments {
            let mut bound = u64::MAX;
            for &id in attrs {
                match self
                    .store
                    .cardinality(seg, SegmentAudience::Attribute(id.0))
                {
                    Ok(c) => bound = bound.min(c),
                    Err(_) => return true, // undecidable
                }
            }
            bounds.push((seg, bound));
            total_bound = total_bound.saturating_add(bound);
        }
        if total_bound < threshold_len {
            return false;
        }
        // Phase 2: exact per-segment counts, biggest bound first so the
        // accumulator crosses the threshold (or the residual bound falls
        // below it) as early as possible.
        bounds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut acc = 0u64;
        let mut remaining = total_bound;
        for (seg, bound) in bounds {
            if bound == 0 {
                break; // sorted: the rest are empty too
            }
            remaining -= bound;
            let mut sets = Vec::with_capacity(attrs.len());
            for &id in attrs {
                match self.store.load(seg, SegmentAudience::Attribute(id.0)) {
                    Ok(s) => sets.push(s),
                    Err(_) => return true, // undecidable
                }
            }
            sets.sort_by_key(|s| s.len());
            let seg_count = match sets.len() {
                1 => sets[0].len(),
                2 => sets[0].intersection_len(sets[1].as_ref()),
                _ => {
                    let mut cur = sets[0].and(sets[1].as_ref());
                    for s in &sets[2..] {
                        if cur.is_empty() {
                            break;
                        }
                        cur = cur.and(s.as_ref());
                    }
                    cur.len()
                }
            };
            acc += seg_count;
            if acc >= threshold_len {
                return true;
            }
            if acc.saturating_add(remaining) < threshold_len {
                return false;
            }
        }
        acc >= threshold_len
    }
}

impl std::fmt::Debug for SegmentedPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedPlatform")
            .field("kind", &self.config.kind)
            .field("catalog", &self.catalog.len())
            .field("users", &self.store.config().n_users)
            .field("segments", &self.store.n_segments())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CategorySpec, SkewProfile};
    use crate::estimate::RoundingRule;
    use crate::interface::AdPlatform;
    use crate::objective::Objective;
    use adcomp_population::{
        AgeBucket, DemographicProfile, Gender, Universe, UniverseConfig, SEGMENT_ALIGN,
    };
    use adcomp_targeting::{Capabilities, FeatureId};
    use std::sync::Arc;

    fn config() -> PlatformConfig {
        PlatformConfig {
            kind: InterfaceKind::FacebookNormal,
            capabilities: Capabilities::permissive(),
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::Reach, Objective::Traffic],
            default_objective: Objective::Reach,
        }
    }

    fn catalog() -> Catalog {
        Catalog::generate(
            13,
            &[
                CategorySpec {
                    name: "Games",
                    domain: "games",
                    feature: FeatureId(0),
                    count: 10,
                    skew: SkewProfile::neutral().lean_male(0.7),
                },
                CategorySpec {
                    name: "Topics",
                    domain: "media",
                    feature: FeatureId(1),
                    count: 10,
                    skew: SkewProfile::neutral().lean_old(0.4),
                },
            ],
        )
    }

    /// A segmented and a monolithic platform over the same universe. The
    /// segment store lives in a temp dir of its own per `test`, so tests
    /// running in parallel never delete each other's store.
    fn pair(test: &str, n_users: u32) -> (SegmentedPlatform, AdPlatform, tempdir::Guard) {
        let ucfg = UniverseConfig {
            n_users,
            seed: 77,
            scale: 1_000.0,
            profile: DemographicProfile::balanced(),
        };
        let catalog = catalog();
        let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
        let guard = tempdir::Guard::new(&format!("adcomp-segmented-platform-{test}"));
        let store =
            SegmentStore::create(&guard.path, &ucfg, SEGMENT_ALIGN, &models, 1 << 22).unwrap();
        let segmented = SegmentedPlatform::new(config(), store, catalog.clone());
        let mono = AdPlatform::new(config(), Arc::new(Universe::generate(&ucfg)), catalog);
        (segmented, mono, guard)
    }

    /// Minimal scoped temp dir.
    mod tempdir {
        pub struct Guard {
            pub path: std::path::PathBuf,
        }
        impl Guard {
            pub fn new(tag: &str) -> Guard {
                let path = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&path);
                Guard { path }
            }
        }
        impl Drop for Guard {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }
    }

    fn specs() -> Vec<TargetingSpec> {
        vec![
            TargetingSpec::everyone(),
            TargetingSpec::and_of([AttributeId(0)]),
            TargetingSpec::and_of([AttributeId(0), AttributeId(11)]),
            TargetingSpec::and_of([AttributeId(2), AttributeId(5), AttributeId(14)]),
            TargetingSpec::builder()
                .any_of([AttributeId(1), AttributeId(12)])
                .attribute(AttributeId(3))
                .build(),
            TargetingSpec::builder()
                .gender(Gender::Female)
                .attribute(AttributeId(4))
                .build(),
            TargetingSpec::builder()
                .ages([AgeBucket::A18_24, AgeBucket::A55Plus])
                .any_of([AttributeId(6), AttributeId(16)])
                .exclude([AttributeId(9)])
                .build(),
            TargetingSpec::builder().exclude([AttributeId(0)]).build(),
            TargetingSpec::builder()
                .gender(Gender::Male)
                .ages([AgeBucket::A25_34])
                .build(),
        ]
    }

    #[test]
    fn estimates_match_the_monolithic_platform() {
        let (segmented, mono, _guard) = pair(
            "estimates_match_the_monolithic_platform",
            SEGMENT_ALIGN * 2 + 12_345,
        );
        for spec in specs() {
            let req = EstimateRequest::new(spec.clone(), Objective::Reach);
            assert_eq!(
                segmented.reach_estimate(&req).unwrap(),
                mono.reach_estimate(&req).unwrap(),
                "spec: {spec}"
            );
        }
        assert_eq!(segmented.stats().estimates, specs().len() as u64);
    }

    #[test]
    fn error_paths_match_the_monolithic_platform() {
        let (segmented, mono, _guard) =
            pair("error_paths_match_the_monolithic_platform", SEGMENT_ALIGN);
        let bad_objective =
            EstimateRequest::new(TargetingSpec::everyone(), Objective::BrandAwareness);
        assert_eq!(
            segmented.reach_estimate(&bad_objective),
            mono.reach_estimate(&bad_objective)
        );
        let unknown =
            EstimateRequest::new(TargetingSpec::and_of([AttributeId(999)]), Objective::Reach);
        assert_eq!(
            segmented.reach_estimate(&unknown),
            mono.reach_estimate(&unknown)
        );
        assert_eq!(segmented.stats().validation_failures, 1);
        // An empty include group evaluates (nobody), matching `evaluate`.
        let empty_group = TargetingSpec {
            include: vec![adcomp_targeting::OrGroup { attributes: vec![] }],
            ..Default::default()
        };
        let req = EstimateRequest::new(empty_group, Objective::Reach);
        assert_eq!(segmented.reach_estimate(&req), mono.reach_estimate(&req));
    }

    #[test]
    fn oracle_agrees_with_the_monolithic_oracle() {
        let (segmented, mono, _guard) = pair(
            "oracle_agrees_with_the_monolithic_oracle",
            SEGMENT_ALIGN * 2 + 999,
        );
        for min_estimate in [1u64, 10_000, 2_000_000, 40_000_000] {
            assert_eq!(
                ReachOracle::min_len_for_estimate(&segmented, min_estimate),
                ReachOracle::min_len_for_estimate(&mono, min_estimate),
            );
        }
        let t = ReachOracle::min_len_for_estimate(&segmented, 2_000_000);
        for a in 0..5u32 {
            assert_eq!(
                ReachOracle::attribute_len(&segmented, AttributeId(a)),
                ReachOracle::attribute_len(&mono, AttributeId(a)),
            );
            for b in 10..15u32 {
                let pair = [AttributeId(a), AttributeId(b)];
                assert_eq!(
                    segmented.and_reaches(&pair, t),
                    mono.and_reaches(&pair, t),
                    "pair ({a},{b}) at threshold {t}"
                );
            }
        }
        // Triple through the materialising path.
        let triple = [AttributeId(0), AttributeId(1), AttributeId(10)];
        for threshold in [1u64, 100, 10_000, u64::MAX] {
            assert_eq!(
                segmented.and_reaches(&triple, threshold),
                mono.and_reaches(&triple, threshold)
            );
        }
    }

    #[test]
    fn serves_through_the_api_trait() {
        use crate::api::PlatformApi;
        let (segmented, _mono, _guard) = pair("serves_through_the_api_trait", SEGMENT_ALIGN);
        let api: Arc<dyn PlatformApi> = Arc::new(segmented);
        assert_eq!(api.label(), "Facebook");
        let req = EstimateRequest::new(TargetingSpec::everyone(), api.config().default_objective);
        assert!(api.reach_estimate(&req).unwrap().value > 0);
        assert_eq!(api.stats().estimates, 1);
        api.note_rate_limited();
        assert_eq!(api.stats().rate_limited, 1);
    }
}
