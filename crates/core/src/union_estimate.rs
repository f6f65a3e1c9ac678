//! Audience overlap and union-recall estimation.
//!
//! Platforms support a logical-AND of OR-groups but **not** a logical-OR
//! of ANDs, so an advertiser (and the paper) cannot directly query the
//! union of several compositions. §4.3 therefore:
//!
//! 1. measures *pairwise overlaps* between skewed composition audiences
//!    (each intersection is itself an AND-of-ORs, hence queryable), and
//! 2. estimates the union's recall via the **inclusion–exclusion
//!    principle**, adding higher-order intersection terms until the
//!    estimate converges (footnote 13 and Appendix A).
//!
//! Overlaps are "conservatively measured by comparing the size of the
//! intersection to the size of the smaller set in the pair"
//! (footnote 12).
//!
//! Query budget of [`median_pairwise_overlap`] over `limit` specs:
//! `limit` class audiences plus at most `limit·(limit−1)/2` pair
//! intersections per population (one per pair whose smaller side is
//! non-empty and whose intersection is not contradictory). Calling
//! [`pairwise_overlap`] once per pair would re-measure both sides every
//! time, `3·limit·(limit−1)/2` queries.

use crate::source::{AuditTarget, Selector, SourceError};
use adcomp_targeting::TargetingSpec;

/// Pairwise overlap of two composition audiences restricted to a class:
/// `|A ∧ B ∧ s| / min(|A ∧ s|, |B ∧ s|)` — `None` when either class
/// audience is empty (below the platform's reporting floor).
pub fn pairwise_overlap(
    target: &AuditTarget,
    a: &TargetingSpec,
    b: &TargetingSpec,
    selector: Selector,
) -> Result<Option<f64>, SourceError> {
    let size_a = target.selector_estimate(a, selector)?;
    let size_b = target.selector_estimate(b, selector)?;
    let smaller = size_a.min(size_b);
    if smaller == 0 {
        return Ok(None);
    }
    let both = match a.intersect(b) {
        Some(ab) => target.selector_estimate(&ab, selector)?,
        None => 0,
    };
    Ok(Some(both as f64 / smaller as f64))
}

/// Median pairwise overlap among the first `limit` specs (the paper uses
/// the top 100 most skewed compositions). Pairs whose smaller audience is
/// below the reporting floor are skipped; contradictory pairs count as
/// overlap 0 without spending a query.
///
/// The result equals folding [`pairwise_overlap`] over every `i < j`
/// pair, but each class audience is measured once and the pair
/// intersections go out as a second batch, so an attached engine or a
/// pipelined wire client carries both.
pub fn median_pairwise_overlap(
    target: &AuditTarget,
    specs: &[TargetingSpec],
    selector: Selector,
    limit: usize,
) -> Result<Option<f64>, SourceError> {
    let specs = &specs[..specs.len().min(limit)];
    if specs.len() < 2 {
        // No pairs, so no audience needs measuring.
        return Ok(None);
    }
    let measure = |queries: Vec<TargetingSpec>| -> Result<Vec<u64>, SourceError> {
        target.run_measurement_batch(queries).into_iter().collect()
    };
    let sizes = measure(
        specs
            .iter()
            .map(|s| selector.constrain(&target.translate(s)))
            .collect(),
    )?;
    // Every pair with a non-empty smaller side, in `i < j` order: its
    // smaller size and whether its intersection is queried.
    let mut pairs: Vec<(u64, bool)> = Vec::new();
    let mut intersections: Vec<TargetingSpec> = Vec::new();
    for i in 0..specs.len() {
        for j in i + 1..specs.len() {
            let smaller = sizes[i].min(sizes[j]);
            if smaller == 0 {
                continue;
            }
            let ab = specs[i].intersect(&specs[j]);
            if let Some(ab) = &ab {
                intersections.push(selector.constrain(&target.translate(ab)));
            }
            pairs.push((smaller, ab.is_some()));
        }
    }
    let mut answers = measure(intersections)?.into_iter();
    let overlaps: Vec<f64> = pairs
        .into_iter()
        .map(|(smaller, queried)| {
            let both = if queried {
                answers.next().expect("one answer per queried pair")
            } else {
                0
            };
            both as f64 / smaller as f64
        })
        .collect();
    Ok(crate::stats::median(&overlaps))
}

/// Result of an inclusion–exclusion union estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct UnionEstimate {
    /// The final estimate (last partial sum, clamped at 0).
    pub recall: u64,
    /// Partial sums after each order (order 1 = sum of singles, …),
    /// recorded so callers can check convergence as the paper did
    /// ("we confirmed that the estimated recalls converged as we
    /// successively added the higher-order terms").
    pub partial_sums: Vec<i128>,
    /// Number of estimate queries spent.
    pub queries: u64,
}

impl UnionEstimate {
    /// Largest change between the last two partial sums, as a fraction of
    /// the final estimate (0 when fewer than two orders were computed).
    pub fn final_correction(&self) -> f64 {
        match self.partial_sums.len() {
            0 | 1 => 0.0,
            n => {
                let last = self.partial_sums[n - 1] as f64;
                let prev = self.partial_sums[n - 2] as f64;
                if last == 0.0 {
                    0.0
                } else {
                    ((last - prev) / last).abs()
                }
            }
        }
    }
}

/// Estimates `|A₁ ∨ … ∨ A_k ∧ class|` by inclusion–exclusion over
/// AND-queries, up to `max_order` (use `specs.len()` for the exact
/// expansion; the paper combines the top 10 compositions, i.e. up to
/// 2¹⁰ − 1 queries).
///
/// Intersections with contradictory demographics contribute zero without
/// spending a query.
pub fn union_recall(
    target: &AuditTarget,
    specs: &[TargetingSpec],
    selector: Selector,
    max_order: usize,
) -> Result<UnionEstimate, SourceError> {
    let k = specs.len();
    assert!(k > 0, "union of zero audiences");
    assert!(
        k <= 20,
        "inclusion–exclusion over {k} sets is 2^{k} queries; cap is 20"
    );
    let max_order = max_order.min(k);

    let mut partial_sums = Vec::with_capacity(max_order);
    let mut acc: i128 = 0;
    let mut queries = 0u64;
    for order in 1..=max_order {
        let sign: i128 = if order % 2 == 1 { 1 } else { -1 };
        // Collect every non-contradictory intersection of this order,
        // then measure them as one batch — the same queries, in the same
        // enumeration order, the serial loop issued one at a time; an
        // attached engine spreads each order across its workers.
        let mut order_queries: Vec<TargetingSpec> = Vec::new();
        let mut subset: Vec<usize> = (0..order).collect();
        loop {
            // Intersect the subset's specs.
            let mut spec = specs[subset[0]].clone();
            let mut contradictory = false;
            for &idx in &subset[1..] {
                match spec.intersect(&specs[idx]) {
                    Some(s) => spec = s,
                    None => {
                        contradictory = true;
                        break;
                    }
                }
            }
            if !contradictory {
                order_queries.push(selector.constrain(&target.translate(&spec)));
            }
            if !next_combination(&mut subset, k) {
                break;
            }
        }
        queries += order_queries.len() as u64;
        let mut order_total: i128 = 0;
        for result in target.run_measurement_batch(order_queries) {
            order_total += result? as i128;
        }
        acc += sign * order_total;
        partial_sums.push(acc);
    }
    Ok(UnionEstimate {
        recall: acc.max(0) as u64,
        partial_sums,
        queries,
    })
}

/// Advances `subset` to the next `|subset|`-combination of `0..k` in
/// lexicographic order; `false` when `subset` was the last one.
fn next_combination(subset: &mut [usize], k: usize) -> bool {
    let order = subset.len();
    let mut i = order;
    while i > 0 {
        i -= 1;
        if subset[i] != i + k - order {
            subset[i] += 1;
            for j in i + 1..order {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{rank_individuals, survey_individuals, Direction, DEFAULT_MIN_REACH};
    use crate::engine::{EngineConfig, QueryEngine};
    use crate::source::{AuditTarget, EstimateSource};
    use adcomp_platform::{SimScale, Simulation};
    use adcomp_population::Gender;
    use adcomp_targeting::AttributeId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(43, SimScale::Test))
    }

    const FEMALE: Selector = Selector::Class(crate::source::SensitiveClass::Gender(Gender::Female));

    #[test]
    fn overlap_of_identical_specs_is_one() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let spec = TargetingSpec::and_of([AttributeId(0)]);
        let o = pairwise_overlap(&target, &spec, &spec, FEMALE)
            .unwrap()
            .unwrap();
        assert!((o - 1.0).abs() < 1e-9, "overlap {o}");
    }

    #[test]
    fn overlap_is_at_most_one_and_nonnegative() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        for (a, b) in [(0u32, 1u32), (2, 3), (4, 10)] {
            let sa = TargetingSpec::and_of([AttributeId(a)]);
            let sb = TargetingSpec::and_of([AttributeId(b)]);
            if let Some(o) = pairwise_overlap(&target, &sa, &sb, FEMALE).unwrap() {
                // Rounding can push the measured intersection slightly past
                // the smaller rounded side; allow a small margin.
                assert!((0.0..=1.05).contains(&o), "overlap {o} for ({a},{b})");
            }
        }
    }

    /// The serial definition: [`pairwise_overlap`] folded over every
    /// `i < j` pair of the first `limit` specs.
    fn reference_median(
        target: &AuditTarget,
        specs: &[TargetingSpec],
        selector: Selector,
        limit: usize,
    ) -> Option<f64> {
        let specs = &specs[..specs.len().min(limit)];
        let mut overlaps = Vec::new();
        for i in 0..specs.len() {
            for j in i + 1..specs.len() {
                if let Some(v) = pairwise_overlap(target, &specs[i], &specs[j], selector).unwrap() {
                    overlaps.push(v);
                }
            }
        }
        crate::stats::median(&overlaps)
    }

    /// Skewed individual specs and their compositions, plus a pair with
    /// contradictory genders and a composition below the reporting floor.
    fn overlap_specs(target: &AuditTarget) -> Vec<TargetingSpec> {
        let survey = survey_individuals(target).unwrap();
        let female_class = crate::source::SensitiveClass::Gender(Gender::Female);
        let ranked = rank_individuals(&survey, female_class, Direction::Toward, DEFAULT_MIN_REACH);
        let top: Vec<TargetingSpec> = ranked
            .iter()
            .take(6)
            .map(|&i| survey.entries[i].spec.clone())
            .collect();
        let mut specs = top.clone();
        for other in &top[1..4] {
            specs.push(top[0].intersect(other).unwrap());
        }
        for gender in [Gender::Male, Gender::Female] {
            let mut spec = top[1].clone();
            spec.demographics.genders = Some(vec![gender]);
            specs.push(spec);
        }
        specs.push(top.iter().fold(TargetingSpec::everyone(), |acc, s| {
            acc.intersect(s).unwrap()
        }));
        specs
    }

    #[test]
    fn batched_median_overlap_matches_pairwise_fold() {
        let engine = Arc::new(QueryEngine::new(EngineConfig::with_workers(2)));
        let not_18_24 = Selector::Complement(crate::source::SensitiveClass::Age(
            adcomp_population::AgeBucket::A18_24,
        ));
        for serial in [
            AuditTarget::for_platform(&sim().facebook, sim()),
            AuditTarget::for_platform(&sim().facebook_restricted, sim()),
        ] {
            let specs = overlap_specs(&serial);
            for selector in [FEMALE, not_18_24] {
                // The set covers both kinds of pair the fold treats
                // specially.
                assert!(specs
                    .iter()
                    .any(|s| serial.selector_estimate(s, selector).unwrap() == 0));
                let (male, female) = (&specs[specs.len() - 3], &specs[specs.len() - 2]);
                assert!(male.intersect(female).is_none());
                for target in [serial.clone(), serial.with_engine(engine.clone())] {
                    for limit in [0, 1, 2, 6, specs.len()] {
                        let batched = median_pairwise_overlap(&target, &specs, selector, limit)
                            .unwrap()
                            .map(f64::to_bits);
                        let reference =
                            reference_median(&serial, &specs, selector, limit).map(f64::to_bits);
                        assert_eq!(
                            batched,
                            reference,
                            "{:?}, {selector}, limit {limit}, engine {}",
                            target,
                            target.engine().is_some()
                        );
                    }
                }
            }
        }
    }

    /// Counts estimates and fails the one spec it is told to.
    struct Probe {
        inner: Arc<dyn EstimateSource>,
        estimates: AtomicU64,
        fail_on: Option<TargetingSpec>,
    }

    impl EstimateSource for Probe {
        fn label(&self) -> String {
            self.inner.label()
        }
        fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
            self.estimates.fetch_add(1, Ordering::Relaxed);
            if self.fail_on.as_ref() == Some(spec) {
                return Err(SourceError::Transport("injected".into()));
            }
            self.inner.estimate(spec)
        }
        fn wraps(&self) -> Option<&dyn EstimateSource> {
            Some(self.inner.as_ref())
        }
    }

    fn probed(fail_on: Option<TargetingSpec>) -> (Arc<Probe>, AuditTarget) {
        let probe = Arc::new(Probe {
            inner: sim().facebook.clone(),
            estimates: AtomicU64::new(0),
            fail_on,
        });
        (probe.clone(), AuditTarget::direct(probe))
    }

    #[test]
    fn median_overlap_spends_one_query_per_audience_and_measured_pair() {
        let plain = AuditTarget::for_platform(&sim().facebook, sim());
        let specs = overlap_specs(&plain);
        let sizes: Vec<u64> = specs
            .iter()
            .map(|s| plain.selector_estimate(s, FEMALE).unwrap())
            .collect();
        let mut measured_pairs = 0;
        for i in 0..specs.len() {
            for j in i + 1..specs.len() {
                if sizes[i].min(sizes[j]) > 0 && specs[i].intersect(&specs[j]).is_some() {
                    measured_pairs += 1;
                }
            }
        }
        let (probe, target) = probed(None);
        median_pairwise_overlap(&target, &specs, FEMALE, specs.len()).unwrap();
        assert_eq!(
            probe.estimates.load(Ordering::Relaxed),
            (specs.len() + measured_pairs) as u64
        );

        // An error in either batch is the function's error.
        let single = FEMALE.constrain(&specs[3]);
        let pair = FEMALE.constrain(&specs[0].intersect(&specs[1]).unwrap());
        for fail_on in [single, pair] {
            let (_, target) = probed(Some(fail_on));
            assert_eq!(
                median_pairwise_overlap(&target, &specs, FEMALE, specs.len()),
                Err(SourceError::Transport("injected".into()))
            );
        }
    }

    #[test]
    fn union_recall_two_sets_matches_manual_ie() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let a = TargetingSpec::and_of([AttributeId(0)]);
        let b = TargetingSpec::and_of([AttributeId(1)]);
        let est = union_recall(&target, &[a.clone(), b.clone()], FEMALE, 2).unwrap();
        let sa = target.selector_estimate(&a, FEMALE).unwrap();
        let sb = target.selector_estimate(&b, FEMALE).unwrap();
        let sab = target
            .selector_estimate(&a.intersect(&b).unwrap(), FEMALE)
            .unwrap();
        assert_eq!(est.recall as i128, sa as i128 + sb as i128 - sab as i128);
        assert_eq!(est.partial_sums.len(), 2);
        assert_eq!(est.queries, 3);
    }

    #[test]
    fn union_recall_converges_with_order() {
        // Union over several skewed compositions: successive partial sums
        // oscillate toward the final value (alternating-series behaviour).
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let survey = survey_individuals(&target).unwrap();
        let female_class = crate::source::SensitiveClass::Gender(Gender::Female);
        let ranked = rank_individuals(&survey, female_class, Direction::Toward, DEFAULT_MIN_REACH);
        let specs: Vec<TargetingSpec> = ranked
            .iter()
            .take(5)
            .map(|&i| survey.entries[i].spec.clone())
            .collect();
        let full = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();
        assert!(full.recall > 0);
        // The exact expansion's final correction is small relative to the
        // total (convergence), and partial sums bracket the final value.
        assert!(
            full.final_correction() < 0.35,
            "correction {}",
            full.final_correction()
        );
        let final_sum = *full.partial_sums.last().unwrap();
        let odd = full.partial_sums[0];
        assert!(odd >= final_sum, "order-1 overestimates the union");
    }

    #[test]
    fn union_recall_at_least_max_single_and_at_most_sum() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let specs: Vec<TargetingSpec> = (0..4)
            .map(|i| TargetingSpec::and_of([AttributeId(i)]))
            .collect();
        let singles: Vec<u64> = specs
            .iter()
            .map(|s| target.selector_estimate(s, FEMALE).unwrap())
            .collect();
        let est = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();
        let max_single = *singles.iter().max().unwrap();
        let sum: u64 = singles.iter().sum();
        // Rounded estimates make exact bracketing approximate; allow 5 %.
        assert!(
            est.recall as f64 >= max_single as f64 * 0.95,
            "union {} below max single {max_single}",
            est.recall
        );
        assert!(est.recall <= sum, "union {} above sum {sum}", est.recall);
    }

    #[test]
    fn combination_enumeration_counts() {
        for (k, order, expect) in [(5usize, 2usize, 10), (6, 3, 20), (4, 4, 1), (10, 1, 10)] {
            let mut subset: Vec<usize> = (0..order).collect();
            let mut n = 1;
            while super::next_combination(&mut subset, k) {
                n += 1;
            }
            assert_eq!(n, expect, "C({k},{order})");
        }
    }

    #[test]
    #[should_panic(expected = "union of zero audiences")]
    fn empty_union_panics() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let _ = union_recall(&target, &[], FEMALE, 1);
    }
}
