//! Layer probes: decorators over the program's public layer traits.
//!
//! Each decorator forwards every trait method to the wrapped layer
//! unchanged; the measured calls (`estimate`, `estimate_batch`,
//! `reach_estimate`, the oracle queries) additionally open a span named
//! `<layer>:<method>` on a benchmark-owned [`Tracer`] and count the
//! queries and errors that pass through. The spans are folded into
//! exclusive time per layer by [`adcomp_obs::latency_attribution`], so
//! the category of a span — the part of its name before `:` — is the
//! layer it is charged to.
//!
//! The benchmark uses its own tracers instead of the process-global
//! one: the program's own spans (wire round trips, server
//! continuations) stay in the global ring and never mix with, or evict,
//! the spans measured here.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use adcomp_core::{EstimateSource, SourceError};
use adcomp_obs::trace::{SpanGuard, Tracer};
use adcomp_platform::{
    Catalog, EstimateRequest, PlatformApi, PlatformConfig, PlatformError, QueryStats, ReachOracle,
    SizeEstimate,
};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

/// Ring capacity of a probe tracer: room for every span of the largest
/// traced pass (about 130k spans, two events each).
const RING_EVENTS: usize = 1 << 20;

/// Queries and errors seen by one decorator, plus an optional log of
/// the specs it was asked to estimate.
#[derive(Default)]
pub struct Counts {
    calls: AtomicU64,
    errors: AtomicU64,
    log: Option<Mutex<Vec<TargetingSpec>>>,
}

impl Counts {
    /// Counters without a query log.
    pub fn new() -> Arc<Counts> {
        Arc::new(Counts::default())
    }

    /// Counters that also keep every estimated spec, in arrival order.
    pub fn logging() -> Arc<Counts> {
        Arc::new(Counts {
            log: Some(Mutex::new(Vec::new())),
            ..Counts::default()
        })
    }

    /// Queries (specs, oracle questions) seen so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Queries that returned an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The logged specs (empty for a non-logging probe).
    pub fn log(&self) -> Vec<TargetingSpec> {
        self.log
            .as_ref()
            .map(|log| log.lock().expect("query log lock").clone())
            .unwrap_or_default()
    }

    fn note_one(&self, failed: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(u64::from(failed), Ordering::Relaxed);
    }

    fn note(&self, specs: &[TargetingSpec], errors: usize) {
        self.calls.fetch_add(specs.len() as u64, Ordering::Relaxed);
        self.errors.fetch_add(errors as u64, Ordering::Relaxed);
        if let Some(log) = &self.log {
            log.lock().expect("query log lock").extend_from_slice(specs);
        }
    }
}

/// The tracers of one traced pass.
pub struct Probes {
    /// Spans recorded on the auditor's threads (caller and engine
    /// workers).
    pub tracer: Arc<Tracer>,
    /// Spans recorded on wire-server threads. Kept apart because the
    /// server runs concurrently with the client span that waits for it.
    pub server: Arc<Tracer>,
}

impl Default for Probes {
    fn default() -> Self {
        Probes::new()
    }
}

impl Probes {
    /// Fresh, empty tracers.
    pub fn new() -> Probes {
        Probes {
            tracer: Arc::new(Tracer::new(RING_EVENTS)),
            server: Arc::new(Tracer::new(RING_EVENTS)),
        }
    }

    /// Opens a span on the auditor-side tracer.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.tracer.span(name)
    }

    /// Wraps an estimate source, charging its calls to `layer`.
    pub fn source(
        &self,
        layer: &str,
        inner: Arc<dyn EstimateSource>,
        counts: &Arc<Counts>,
    ) -> Arc<dyn EstimateSource> {
        Arc::new(ProbedSource {
            inner,
            span: format!("{layer}:estimate"),
            tracer: self.tracer.clone(),
            counts: counts.clone(),
        })
    }

    /// Wraps a platform served over the wire; its spans go to the
    /// server-side tracer.
    pub fn server_api(
        &self,
        layer: &str,
        inner: Arc<dyn PlatformApi>,
        counts: &Arc<Counts>,
    ) -> Arc<dyn PlatformApi> {
        Arc::new(ProbedApi {
            inner,
            span: format!("{layer}:reach_estimate"),
            tracer: self.server.clone(),
            counts: counts.clone(),
        })
    }

    /// Wraps a reach oracle, charging its calls to `layer`.
    pub fn oracle(
        &self,
        layer: &str,
        inner: Arc<dyn ReachOracle>,
        counts: &Arc<Counts>,
    ) -> ProbedOracle {
        ProbedOracle {
            inner,
            spans: [
                format!("{layer}:attribute_len"),
                format!("{layer}:min_len_for_estimate"),
                format!("{layer}:and_reaches"),
            ],
            tracer: self.tracer.clone(),
            counts: counts.clone(),
        }
    }

    /// Exclusive seconds per layer over every trace on the auditor-side
    /// tracer, plus the duration of the root span named `root` (zero when
    /// absent).
    pub fn attribution(&self, root: &str) -> Attribution {
        attribution_of(&self.tracer, root)
    }

    /// Exclusive seconds per layer on the server-side tracer.
    pub fn server_attribution(&self) -> Attribution {
        attribution_of(&self.server, "")
    }
}

/// Exclusive time per layer, folded from a tracer's spans.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Seconds per layer (span-name category).
    pub self_s: BTreeMap<String, f64>,
    /// Duration of the named root span, in seconds.
    pub root_s: f64,
    /// Exclusive seconds summed over the root span's own trace — equal
    /// to `root_s` when every span of the trace nests without overlap.
    pub root_attributed_s: f64,
}

impl Attribution {
    /// Exclusive seconds of one layer (zero when it recorded nothing).
    pub fn layer(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }
}

fn attribution_of(tracer: &Tracer, root: &str) -> Attribution {
    let mut out = Attribution::default();
    for trace in adcomp_obs::latency_attribution(&tracer.ring_events()) {
        if trace.root == root {
            out.root_s += trace.total_us as f64 / 1e6;
            out.root_attributed_s += trace.attributed_us() as f64 / 1e6;
        }
        for (layer, us) in &trace.segments {
            *out.self_s.entry(layer.clone()).or_default() += *us as f64 / 1e6;
        }
    }
    out
}

/// Share of queries in `log` that repeat an earlier query, comparing
/// specs in normalized form (the form the run store keys on).
pub fn repeat_share(log: &[TargetingSpec]) -> f64 {
    if log.is_empty() {
        return 0.0;
    }
    let distinct: HashSet<TargetingSpec> = log.iter().map(|s| s.normalized()).collect();
    1.0 - distinct.len() as f64 / log.len() as f64
}

/// An [`EstimateSource`] decorator; see the [module docs](self).
pub struct ProbedSource {
    inner: Arc<dyn EstimateSource>,
    span: String,
    tracer: Arc<Tracer>,
    counts: Arc<Counts>,
}

impl EstimateSource for ProbedSource {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        let span = self.tracer.span(&self.span);
        let result = self.inner.estimate(spec);
        drop(span);
        self.counts
            .note(std::slice::from_ref(spec), usize::from(result.is_err()));
        result
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        let span = self.tracer.span(&self.span);
        let results = self.inner.estimate_batch(specs);
        drop(span);
        self.counts
            .note(specs, results.iter().filter(|r| r.is_err()).count());
        results
    }

    fn batch_window(&self) -> usize {
        self.inner.batch_window()
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        self.inner.check(spec)
    }

    fn catalog_len(&self) -> u32 {
        self.inner.catalog_len()
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.inner.attribute_name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.inner.attribute_feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.inner.can_compose(a, b)
    }

    fn supports_demographics(&self) -> bool {
        self.inner.supports_demographics()
    }
}

/// A [`PlatformApi`] decorator; see the [module docs](self).
pub struct ProbedApi {
    inner: Arc<dyn PlatformApi>,
    span: String,
    tracer: Arc<Tracer>,
    counts: Arc<Counts>,
}

impl PlatformApi for ProbedApi {
    fn config(&self) -> &PlatformConfig {
        self.inner.config()
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        let span = self.tracer.span(&self.span);
        let result = self.inner.reach_estimate(request);
        drop(span);
        self.counts.note_one(result.is_err());
        result
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        self.inner.check(spec)
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn note_rate_limited(&self) {
        self.inner.note_rate_limited()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// A [`ReachOracle`] decorator; see the [module docs](self).
pub struct ProbedOracle {
    inner: Arc<dyn ReachOracle>,
    spans: [String; 3],
    tracer: Arc<Tracer>,
    counts: Arc<Counts>,
}

impl ProbedOracle {
    fn timed<T>(&self, method: usize, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.span(&self.spans[method]);
        let out = f();
        drop(span);
        self.counts.note_one(false);
        out
    }
}

impl ReachOracle for ProbedOracle {
    fn attribute_len(&self, id: AttributeId) -> Option<u64> {
        self.timed(0, || self.inner.attribute_len(id))
    }

    fn min_len_for_estimate(&self, min_estimate: u64) -> u64 {
        self.timed(1, || self.inner.min_len_for_estimate(min_estimate))
    }

    fn and_reaches(&self, attrs: &[AttributeId], threshold_len: u64) -> bool {
        self.timed(2, || self.inner.and_reaches(attrs, threshold_len))
    }
}
