//! Parallel estimate execution and memoization.
//!
//! The audit workload is thousands of independent, rounded size
//! estimates. Two properties make it safe to parallelise and cache
//! without touching the methodology:
//!
//! 1. **Estimates are pure.** A platform's answer is a deterministic
//!    function of the spec (the simulators are referentially transparent;
//!    a real platform is *assumed* consistent — and [`consistency_probe`]
//!    (crate::probe::consistency_probe) exists precisely to test that
//!    assumption, which is why memoization stays off by default there).
//! 2. **Order only matters for presentation.** Every derived quantity
//!    (ratios, recall, inclusion–exclusion sums) consumes estimates by
//!    *position*, not by arrival time.
//!
//! [`QueryEngine`] fans a batch of specs out over scoped worker threads
//! against any [`EstimateSource`] and returns results **in submission
//! order**, so parallel runs are bit-identical to serial ones. Its
//! ordered fan-out, [`QueryEngine::map_ranges`], also serves work that is
//! not a platform query (the bootstrap replicates of the uncertainty
//! audit). [`MemoCache`]/[`MemoizedSource`] dedupe repeated specs (the
//! base population and class-constraint queries every experiment
//! re-issues) behind a sharded, capacity-bounded map keyed on
//! canonicalized specs.
//!
//! Everything is observable: a batch-latency histogram, a query counter,
//! and memo hit/miss/eviction counters, all in the global [`Registry`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use adcomp_obs::metrics::{duration_us_buckets, Counter, Histogram, Registry};
use adcomp_targeting::TargetingSpec;

use crate::source::{EstimateSource, SourceError};

/// Engine parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads (0 → available parallelism).
    pub workers: usize,
}

impl EngineConfig {
    /// An engine running each batch on exactly `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

/// Executes estimate batches across worker threads in deterministic
/// submission order.
///
/// Each batch runs on its own scoped threads, which end with the batch:
/// nothing outlives a call, so a panicking source fails only the batch
/// it panicked in. [`run_on`](QueryEngine::run_on) may be called
/// concurrently from any number of threads; each call gets its own
/// `workers` threads.
pub struct QueryEngine {
    workers: usize,
    batch_latency_us: Arc<Histogram>,
    queries: Arc<Counter>,
}

impl QueryEngine {
    /// An engine running each batch on `config.workers` threads.
    pub fn new(config: EngineConfig) -> QueryEngine {
        let reg = Registry::global();
        QueryEngine {
            workers: config.resolved_workers(),
            batch_latency_us: reg
                .histogram("adcomp_engine_batch_latency_us", duration_us_buckets()),
            queries: reg.counter("adcomp_engine_queries_total"),
        }
    }

    /// Worker threads per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `specs` against `source` and returns one result per spec,
    /// **in submission order** regardless of completion order.
    ///
    /// The batch is split into contiguous chunks; each worker runs its
    /// chunk through [`EstimateSource::estimate_batch`], so natively
    /// batching sources (the pipelined wire client) keep their window
    /// while plain sources fall back to a serial loop per chunk.
    pub fn run_on(
        &self,
        source: Arc<dyn EstimateSource>,
        specs: Vec<TargetingSpec>,
    ) -> Vec<Result<u64, SourceError>> {
        self.queries.add(specs.len() as u64);
        let chunk = self.chunk_size(specs.len(), source.batch_window());
        self.map_ranges(specs.len(), chunk, |range| {
            source.estimate_batch(&specs[range])
        })
    }

    /// Runs `f` over `0..len` cut into contiguous ranges of `chunk`
    /// indices (the last one may be shorter) and concatenates the
    /// outputs **in range order**, whichever thread ran which range.
    ///
    /// Up to [`workers`](QueryEngine::workers) scoped threads claim
    /// ranges from a shared cursor until none are left; the call returns
    /// when every range is done, and a panic in `f` reaches the caller.
    /// `f` must return one output per index for the result to line up
    /// with `0..len`. The call is one observation of
    /// `adcomp_engine_batch_latency_us`.
    pub fn map_ranges<T: Send>(
        &self,
        len: usize,
        chunk: usize,
        f: impl Fn(Range<usize>) -> Vec<T> + Sync,
    ) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        let start = Instant::now();
        let chunk = chunk.max(1);
        let cursor = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                // The cursor hands out indices only; outputs come back
                // through `join`, which orders them before the merge.
                let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                if lo >= len {
                    return done;
                }
                done.push((lo, f(lo..(lo + chunk).min(len))));
            }
        };
        // Every range runs on a spawned thread, never the caller's, so
        // no work inherits the caller's ambient trace context.
        let threads = self.workers.min(len.div_ceil(chunk));
        let mut parts: Vec<(usize, Vec<T>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        parts.sort_unstable_by_key(|&(lo, _)| lo);
        let out = parts.into_iter().flat_map(|(_, part)| part).collect();
        self.batch_latency_us.observe_duration(start.elapsed());
        out
    }

    fn chunk_size(&self, total: usize, window: usize) -> usize {
        if window > 1 {
            return window;
        }
        // Several ranges per worker for load balance, but big enough
        // that claiming one is noise next to the estimates themselves.
        (total / (self.workers * 4)).clamp(1, 64)
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryEngine(workers={})", self.workers)
    }
}

const MEMO_SHARDS: usize = 16;

/// A sharded, capacity-bounded map from canonicalized specs to rounded
/// estimates.
///
/// Keys are [`TargetingSpec::normalized`] forms, so syntactically
/// different but semantically identical specs share an entry. Eviction is
/// FIFO per shard — the workload is dominated by a stable set of repeated
/// specs (base population, class constraints), for which insertion order
/// is as good as LRU and much cheaper.
pub struct MemoCache {
    shards: Vec<Mutex<MemoShard>>,
    per_shard_capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

#[derive(Default)]
struct MemoShard {
    map: HashMap<TargetingSpec, u64>,
    order: VecDeque<TargetingSpec>,
}

impl MemoCache {
    /// A cache holding at most `capacity` entries (rounded up to a
    /// multiple of the shard count).
    pub fn new(capacity: usize) -> MemoCache {
        let reg = Registry::global();
        MemoCache {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(MemoShard::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(MEMO_SHARDS).max(1),
            hits: reg.counter("adcomp_memo_hits_total"),
            misses: reg.counter("adcomp_memo_misses_total"),
            evictions: reg.counter("adcomp_memo_evictions_total"),
        }
    }

    fn shard(&self, key: &TargetingSpec) -> &Mutex<MemoShard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % MEMO_SHARDS]
    }

    /// Cached estimate for a canonicalized key, counting the hit/miss.
    pub fn get(&self, key: &TargetingSpec) -> Option<u64> {
        let shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let value = shard.map.get(key).copied();
        match value {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        value
    }

    /// Records an estimate, evicting the shard's oldest entry at
    /// capacity.
    pub fn insert(&self, key: TargetingSpec, value: u64) {
        let mut shard = self
            .shard(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.map.insert(key.clone(), value).is_none() {
            shard.order.push_back(key);
            if shard.order.len() > self.per_shard_capacity {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.map.remove(&oldest);
                    self.evictions.inc();
                }
            }
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits recorded (process-wide counter).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses recorded (process-wide counter).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Fraction of lookups served from cache (0 when none were made).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

/// An [`EstimateSource`] wrapper answering repeated specs from a
/// [`MemoCache`].
///
/// Only successful estimates are cached; errors always propagate and are
/// retried on the next ask. The inner source still receives the
/// *original* (un-normalized) spec on a miss, so the platform sees
/// exactly the queries the serial, uncached path would send.
///
/// **Soundness**: caching assumes estimates are deterministic per spec —
/// true for the simulators, an explicit assumption for live platforms.
/// Consistency probes must run uncached (a cache would trivially make any
/// platform look consistent), which is why memoization is opt-in via
/// [`AuditTarget::with_memo`](crate::source::AuditTarget::with_memo) and
/// never applied by default.
pub struct MemoizedSource {
    inner: Arc<dyn EstimateSource>,
    cache: Arc<MemoCache>,
}

impl MemoizedSource {
    /// Wraps `inner` with `cache`.
    pub fn new(inner: Arc<dyn EstimateSource>, cache: Arc<MemoCache>) -> MemoizedSource {
        MemoizedSource { inner, cache }
    }

    /// The shared cache (for hit-ratio reporting).
    pub fn cache(&self) -> &Arc<MemoCache> {
        &self.cache
    }

    /// Seeds the cache with every estimate a
    /// [`RunStore`](adcomp_store::RunStore) recorded for this source's
    /// interface (matched by label), returning how many entries were
    /// loaded. A warm audit can then start from a previous run's
    /// answers: recorded specs hit the cache instead of the platform.
    ///
    /// Recorded specs are stored normalized — exactly the form
    /// [`MemoCache`] keys on — so the preload is a straight insert.
    pub fn preload_from_replay(&self, store: &adcomp_store::RunStore) -> usize {
        let label = self.inner.label();
        let index = store.snapshot();
        let mut loaded = 0usize;
        crate::recording::each_estimate_in(&index, &label, |spec, value| {
            self.cache.insert(spec, value);
            loaded += 1;
        });
        loaded
    }
}

impl EstimateSource for MemoizedSource {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        let key = spec.normalized();
        if let Some(value) = self.cache.get(&key) {
            return Ok(value);
        }
        let value = self.inner.estimate(spec)?;
        self.cache.insert(key, value);
        Ok(value)
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        // Resolve hits up front; duplicates *within* the batch collapse
        // onto the first occurrence's query, exactly as a serial
        // memoized loop would behave.
        let keys: Vec<TargetingSpec> = specs.iter().map(|s| s.normalized()).collect();
        let mut results: Vec<Option<Result<u64, SourceError>>> = vec![None; specs.len()];
        let mut missing: Vec<usize> = Vec::new();
        let mut first_seen: HashMap<&TargetingSpec, usize> = HashMap::new();
        let mut follower_of: Vec<Option<usize>> = vec![None; specs.len()];
        for (i, key) in keys.iter().enumerate() {
            if let Some(value) = self.cache.get(key) {
                results[i] = Some(Ok(value));
            } else if let Some(&leader) = first_seen.get(key) {
                follower_of[i] = Some(leader);
            } else {
                first_seen.insert(key, i);
                missing.push(i);
            }
        }
        if !missing.is_empty() {
            let queries: Vec<TargetingSpec> = missing.iter().map(|&i| specs[i].clone()).collect();
            let answers = self.inner.estimate_batch(&queries);
            for (&i, answer) in missing.iter().zip(answers) {
                if let Ok(value) = answer {
                    self.cache.insert(keys[i].clone(), value);
                }
                results[i] = Some(answer);
            }
        }
        for i in 0..specs.len() {
            if let Some(leader) = follower_of[i] {
                results[i] = results[leader].clone();
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    fn batch_window(&self) -> usize {
        self.inner.batch_window()
    }

    fn wraps(&self) -> Option<&dyn EstimateSource> {
        Some(self.inner.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::AuditTarget;
    use adcomp_platform::{SimScale, Simulation};
    use adcomp_targeting::AttributeId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(52, SimScale::Test))
    }

    fn specs(n: u32) -> Vec<TargetingSpec> {
        (0..n)
            .map(|i| {
                TargetingSpec::and_of([AttributeId(i % sim().linkedin.catalog().len() as u32)])
            })
            .collect()
    }

    #[test]
    fn engine_matches_serial_in_submission_order() {
        let engine = QueryEngine::new(EngineConfig::with_workers(4));
        let source: Arc<dyn EstimateSource> = sim().linkedin.clone();
        let batch = specs(40);
        let serial: Vec<_> = batch.iter().map(|s| source.estimate(s)).collect();
        let pooled = engine.run_on(source.clone(), batch.clone());
        assert_eq!(pooled, serial);
        // Repeat runs are stable (no order sensitivity).
        assert_eq!(engine.run_on(source, batch), serial);
    }

    /// A free, pure estimate (distinct per attribute id) with a chosen
    /// batch window.
    struct Synthetic(usize);
    impl EstimateSource for Synthetic {
        fn label(&self) -> String {
            "synthetic".to_string()
        }
        fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
            let id = spec.include[0].attributes[0].0;
            Ok(u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
        fn batch_window(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn engine_keeps_submission_order_across_partial_chunks() {
        // Unbatched sources get a share of the batch (8, 63, 64 and 64
        // specs at 2 workers), windowed ones their window; every case
        // leaves a partial last chunk or has more workers than chunks.
        for (workers, totals) in [(2, &[65, 511, 513, 100_003][..]), (5, &[3][..])] {
            let engine = QueryEngine::new(EngineConfig::with_workers(workers));
            for window in [1, 512] {
                let source: Arc<dyn EstimateSource> = Arc::new(Synthetic(window));
                for &total in totals {
                    let chunk = engine.chunk_size(total, window);
                    let case = format!("{workers} workers, window {window}, batch {total}");
                    assert!(
                        total % chunk != 0 || total.div_ceil(chunk) < workers,
                        "{case}"
                    );
                    let batch: Vec<TargetingSpec> = (0..total as u32)
                        .map(|i| TargetingSpec::and_of([AttributeId(i)]))
                        .collect();
                    let serial = source.estimate_batch(&batch);
                    assert_eq!(engine.run_on(source.clone(), batch), serial, "{case}");
                }
            }
        }
    }

    /// Answers like [`Synthetic`] but panics on one attribute id.
    struct PanicsOn(u32);
    impl EstimateSource for PanicsOn {
        fn label(&self) -> String {
            "panics".to_string()
        }
        fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
            let id = spec.include[0].attributes[0].0;
            assert_ne!(id, self.0, "source fails on attribute {id}");
            Synthetic(1).estimate(spec)
        }
    }

    #[test]
    fn engine_survives_a_panicking_source() {
        let engine = QueryEngine::new(EngineConfig::with_workers(1));
        let batch: Vec<TargetingSpec> = (0..8)
            .map(|i| TargetingSpec::and_of([AttributeId(i)]))
            .collect();
        let failing: Arc<dyn EstimateSource> = Arc::new(PanicsOn(3));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_on(failing, batch.clone())
        }));
        let payload = caught.expect_err("the source's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("source fails on attribute 3"), "{message}");
        // The same engine still answers, with every worker.
        let source: Arc<dyn EstimateSource> = Arc::new(PanicsOn(u32::MAX));
        assert_eq!(
            engine.run_on(source.clone(), batch.clone()),
            source.estimate_batch(&batch)
        );
    }

    #[test]
    fn engine_handles_empty_and_single_batches() {
        let engine = QueryEngine::new(EngineConfig::with_workers(2));
        let source: Arc<dyn EstimateSource> = sim().linkedin.clone();
        assert!(engine.run_on(source.clone(), Vec::new()).is_empty());
        let one = engine.run_on(source, specs(1));
        assert_eq!(one.len(), 1);
        assert!(one[0].is_ok());
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Arc::new(QueryEngine::new(EngineConfig::with_workers(3)));
        let source: Arc<dyn EstimateSource> = sim().linkedin.clone();
        let expected: Vec<_> = specs(20).iter().map(|s| source.estimate(s)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let engine = engine.clone();
                let source = source.clone();
                let expected = expected.clone();
                s.spawn(move || {
                    assert_eq!(engine.run_on(source, specs(20)), expected);
                });
            }
        });
    }

    struct CountingSource(Arc<dyn EstimateSource>, AtomicU64);
    impl EstimateSource for CountingSource {
        fn label(&self) -> String {
            self.0.label()
        }
        fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.estimate(spec)
        }
        fn wraps(&self) -> Option<&dyn EstimateSource> {
            Some(self.0.as_ref())
        }
    }

    #[test]
    fn memo_cache_dedupes_and_reports_hit_ratio() {
        let counting = Arc::new(CountingSource(sim().linkedin.clone(), AtomicU64::new(0)));
        let issued = || counting.1.load(Ordering::Relaxed);
        let memo = MemoizedSource::new(counting.clone(), Arc::new(MemoCache::new(256)));
        let spec = TargetingSpec::and_of([AttributeId(1)]);
        let first = memo.estimate(&spec).unwrap();
        assert_eq!(issued(), 1);
        assert_eq!(memo.estimate(&spec).unwrap(), first);
        assert_eq!(issued(), 1, "second ask is a cache hit");
        // Batch with intra-batch duplicates: one real query per distinct
        // *normalized* spec.
        let other = TargetingSpec::and_of([AttributeId(2)]);
        let results =
            memo.estimate_batch(&[other.clone(), spec.clone(), other.clone(), other.clone()]);
        assert_eq!(issued(), 2, "spec was cached; `other` queried once");
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(results[0], results[2]);
        assert_eq!(results[0], results[3]);
        assert!(memo.cache().hit_ratio() > 0.0);
    }

    #[test]
    fn memo_cache_respects_capacity() {
        let cache = MemoCache::new(MEMO_SHARDS); // one entry per shard
        for i in 0..200u32 {
            cache.insert(TargetingSpec::and_of([AttributeId(i)]), u64::from(i));
        }
        assert!(cache.len() <= MEMO_SHARDS);
    }

    #[test]
    fn memoized_survey_matches_uncached_survey() {
        let direct = AuditTarget::direct(sim().linkedin.clone());
        let cached = direct.with_memo(4096);
        let plain = crate::discovery::survey_individuals(&direct).unwrap();
        let memo = crate::discovery::survey_individuals(&cached).unwrap();
        assert_eq!(plain.entries, memo.entries);
    }

    #[test]
    fn preload_from_replay_serves_recorded_specs_without_queries() {
        use crate::source::RecordingSource;
        let dir =
            std::env::temp_dir().join(format!("adcomp-engine-preload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(adcomp_store::RunStore::open(&dir).unwrap());
        // Epoch one: record a handful of answered queries.
        let recorder = RecordingSource::new(sim().linkedin.clone(), store.clone()).unwrap();
        let batch = specs(12);
        let recorded: Vec<u64> = batch
            .iter()
            .map(|s| recorder.estimate(s).unwrap())
            .collect();
        // Epoch two: a cold cache warmed purely from the store.
        let counting = Arc::new(CountingSource(sim().linkedin.clone(), AtomicU64::new(0)));
        let memo = MemoizedSource::new(counting.clone(), Arc::new(MemoCache::new(256)));
        let loaded = memo.preload_from_replay(&store);
        assert!(loaded >= 12, "all recorded estimates load, got {loaded}");
        let hits_before = memo.cache().hits();
        for (spec, expected) in batch.iter().zip(&recorded) {
            assert_eq!(memo.estimate(spec).unwrap(), *expected);
        }
        assert_eq!(
            counting.1.load(Ordering::Relaxed),
            0,
            "every preloaded spec must hit the cache, not the platform"
        );
        assert_eq!(
            memo.cache().hits() - hits_before,
            batch.len() as u64,
            "hit-rate accounting reflects the preload"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
