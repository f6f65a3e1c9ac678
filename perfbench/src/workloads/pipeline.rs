//! The paper's Table-1 pipeline as one audit pass, shared by
//! `restricted-audit` and `remote-recorded`, and the replay of a pass's
//! captured queries through the targeting, bitset and rounding layers.

use std::hint::black_box;
use std::time::Instant;

use adcomp_core::experiments::table1::favoured_populations;
use adcomp_core::metrics::SpecMeasurement;
use adcomp_core::{
    median_pairwise_overlap, rank_individuals, survey_individuals, top_compositions, union_recall,
    AuditTarget, Direction, DiscoveryConfig, MeasuredTargeting, Selector, SourceError,
    QUERIES_PER_SPEC,
};
use adcomp_platform::AdPlatform;
use adcomp_targeting::{validate, TargetingSpec};

use crate::probe::Counts;
use crate::report::Metrics;

/// One favoured population's Table-1 cell group.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Favoured population label.
    pub favoured: String,
    /// Discovered compositions, most skewed first.
    pub compositions: Vec<TargetingSpec>,
    /// Median pairwise overlap of the top 100, as IEEE-754 bits.
    pub median_overlap: Option<u64>,
    /// Recall of the most skewed composition.
    pub top1: u64,
    /// Inclusion–exclusion union recall of the top 10.
    pub top10: u64,
    /// Size of the favoured population.
    pub population: u64,
    /// Queries the union estimate spent.
    pub union_queries: u64,
}

/// The outputs of one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// The individual survey's measurements.
    pub survey: Vec<MeasuredTargeting>,
    /// The base-population measurement.
    pub base: SpecMeasurement,
    /// One row per favoured population.
    pub rows: Vec<Row>,
}

impl Table {
    /// FNV-1a digest of the table's rendering, for the run log.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{self:?}").bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Candidate and survivor counts of one pass's discoveries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiscoveryCounts {
    /// Sampled candidates measured across the four discoveries.
    pub candidates: u64,
    /// Compositions that passed the reach floor.
    pub survivors: u64,
}

/// Discovery parameters of the pass: the paper's top-1000 arity-2
/// search, or a smaller one for the self-tests.
pub fn discovery_config(top_k: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        top_k,
        ..DiscoveryConfig::default()
    }
}

/// One pass: survey, then per favoured population a greedy discovery,
/// the median pairwise overlap of the top 100 and the union recall of
/// the top 10. `queries` (the probe on the source the target queries
/// first, when traced) yields the discoveries' candidate counts.
pub fn table1_pass(
    target: &AuditTarget,
    cfg: &DiscoveryConfig,
    queries: Option<&Counts>,
) -> Result<(Table, DiscoveryCounts), SourceError> {
    let survey = survey_individuals(target)?;
    let mut counts = DiscoveryCounts::default();
    let mut rows = Vec::new();
    for favoured in favoured_populations() {
        let (class, direction) = match favoured {
            Selector::Class(c) => (c, Direction::Toward),
            Selector::Complement(c) => (c, Direction::Against),
        };
        let ranked = rank_individuals(&survey, class, direction, cfg.min_reach);
        let before = queries.map_or(0, Counts::calls);
        let mut compositions = top_compositions(target, &survey, &ranked, cfg)?;
        counts.candidates += (queries.map_or(0, Counts::calls) - before) / QUERIES_PER_SPEC as u64;
        counts.survivors += compositions.len() as u64;
        compositions.sort_by(|a, b| {
            let ra = a.ratio(&survey.base, class).unwrap_or(1.0);
            let rb = b.ratio(&survey.base, class).unwrap_or(1.0);
            match direction {
                Direction::Toward => rb.total_cmp(&ra),
                Direction::Against => ra.total_cmp(&rb),
            }
        });
        let specs: Vec<TargetingSpec> = compositions.into_iter().map(|c| c.spec).collect();
        // The paper's top 100; the small self-test sizes cap at 20, as
        // the repository's Table-1 experiment does below top-1000.
        let limit = specs.len().min(if cfg.top_k < 1000 { 20 } else { 100 });
        let median_overlap =
            median_pairwise_overlap(target, &specs, favoured, limit)?.map(f64::to_bits);
        let population = target.selector_estimate(&TargetingSpec::everyone(), favoured)?;
        let (top1, top10, union_queries) = match specs.first() {
            None => (0, 0, 0),
            Some(first) => {
                let top1 = target.selector_estimate(first, favoured)?;
                let top10 = &specs[..specs.len().min(10)];
                let union = union_recall(target, top10, favoured, top10.len())?;
                (top1, union.recall, union.queries)
            }
        };
        rows.push(Row {
            favoured: favoured.label(),
            compositions: specs,
            median_overlap,
            top1,
            top10,
            population,
            union_queries,
        });
    }
    let table = Table {
        survey: survey.entries,
        base: survey.base,
        rows,
    };
    Ok((table, counts))
}

/// Most specs one targeting replay evaluates: enough for a steady mean,
/// few enough that the replay stays well under a second at paper scale.
const REPLAY_SPECS: usize = 8_000;

/// Replays an evenly spaced sample of `log` (specs as the platform
/// received them) through the targeting, bitset and rounding layers of
/// `platform`, setting the mean microseconds per call.
pub fn replay_targeting(platform: &AdPlatform, log: &[TargetingSpec], metrics: &mut Metrics) {
    let stride = log.len().div_ceil(REPLAY_SPECS).max(1);
    let sample: Vec<&TargetingSpec> = log.iter().step_by(stride).collect();
    if sample.is_empty() {
        return;
    }
    let per_call_us =
        |start: Instant, calls: usize| start.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64;
    let config = platform.config();

    let start = Instant::now();
    for spec in &sample {
        let _ = black_box(validate(spec, &config.capabilities, platform.catalog()));
    }
    metrics.set("targeting.validate_us", per_call_us(start, sample.len()));

    let mut raw = Vec::with_capacity(sample.len());
    let start = Instant::now();
    for spec in &sample {
        if let Ok(audience) = black_box(adcomp_targeting::evaluate(platform, spec)) {
            raw.push(audience.len());
        }
    }
    metrics.set("targeting.evaluate_us", per_call_us(start, sample.len()));

    // The pairwise kernel on the first two member audiences of every
    // composed spec.
    let pairs: Vec<_> = sample
        .iter()
        .filter_map(|spec| {
            let mut members = spec.referenced_attributes();
            let a = platform.attribute_audience_raw(members.next()?.0 as usize)?;
            let b = platform.attribute_audience_raw(members.next()?.0 as usize)?;
            Some((a, b))
        })
        .collect();
    if !pairs.is_empty() {
        let start = Instant::now();
        for (a, b) in &pairs {
            black_box(a.intersection_len(b));
        }
        metrics.set(
            "bitset.intersection_len_us",
            per_call_us(start, pairs.len()),
        );
    }

    let scale = platform.universe().scale();
    let raw: Vec<u64> = raw
        .iter()
        .map(|&len| (len as f64 * scale).round() as u64)
        .collect();
    let start = Instant::now();
    for &value in &raw {
        black_box(config.rounding.apply(black_box(value)));
    }
    metrics.set("platform.round_us", per_call_us(start, raw.len()));
}
