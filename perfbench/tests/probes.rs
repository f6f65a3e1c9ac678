//! The layer probes measure the same program: a decorated pass of each
//! workload returns byte-identical outputs and issues the same
//! platform-side queries as an undecorated pass. Run at small sizes.

use std::path::PathBuf;
use std::sync::Arc;

use adcomp_core::ApiSource;
use perfbench::probe::{Counts, Probes};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{delivery, remote, restricted, segmented, FacebookTemplate, WORKLOADS};

const SEED: u64 = 7;

fn small_facebook() -> FacebookTemplate {
    FacebookTemplate::new(adcomp_platform::SimScale::Test)
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn restricted_audit_probes_change_nothing() {
    let env = restricted::Env::setup(&small_facebook(), SEED, restricted::Sizes::SMALL);
    let before = env.facebook.stats();
    let plain = env.pass(&env.plain_target(true), None).unwrap();
    let plain_stats = env.facebook.stats().estimates - before.estimates;

    let probes = Probes::new();
    let counts = Counts::logging();
    let target = env.target(
        probes.source("platform", env.restricted.clone(), &Counts::new()),
        probes.source("platform", env.facebook.clone(), &counts),
        true,
    );
    let before = env.facebook.stats();
    let root = probes.span("core.discovery:pass");
    let traced = env.pass(&target, Some(&counts)).unwrap();
    drop(root);
    assert_eq!(plain, traced);
    assert_eq!(
        env.facebook.stats().estimates - before.estimates,
        plain_stats
    );
    assert_eq!(
        counts.calls(),
        plain_stats,
        "the probe sees every platform query"
    );
    assert_eq!(counts.log().len() as u64, plain_stats);
    assert!(probes.attribution("core.discovery:pass").layer("platform") > 0.0);
}

#[test]
fn remote_recorded_probes_change_nothing() {
    let env = remote::Env::setup(&small_facebook(), SEED, remote::Sizes::SMALL).unwrap();
    let dir = test_dir("remote");
    let before = env.platform.stats();
    let plain = env
        .record(env.served.remote.clone(), &dir, |s| s, None)
        .unwrap();
    let plain_stats = env.platform.stats().estimates - before.estimates;
    let resumed = env.resume(&dir).unwrap();
    assert_eq!(resumed.table, plain.table);
    assert_eq!(resumed.platform_estimates, 0);

    let probes = Probes::new();
    let served_counts = Counts::new();
    let served =
        remote::Served::start(probes.server_api("platform", env.platform.clone(), &served_counts))
            .unwrap();
    let recorded = Counts::logging();
    let before = env.platform.stats();
    let root = probes.span("core.discovery:pass");
    let traced = env
        .record(
            probes.source("wire", served.remote.clone(), &Counts::new()),
            &dir,
            |s| probes.source("core.recording", s, &recorded),
            Some(&recorded),
        )
        .unwrap();
    drop(root);
    drop(served);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(plain.table, traced.table);
    assert_eq!(
        env.platform.stats().estimates - before.estimates,
        plain_stats
    );
    assert_eq!(served_counts.calls(), plain_stats);
    let att = probes.attribution("core.discovery:pass");
    assert!((att.root_attributed_s / att.root_s - 1.0).abs() < 0.05);
}

#[test]
fn segmented_thrash_probes_change_nothing() {
    let dir = test_dir("segments");
    let env = segmented::Env::setup(SEED, segmented::Sizes::SMALL, &dir).unwrap();
    let plain = env.open().unwrap();
    let (reference, _) = env
        .pass(Arc::new(ApiSource(plain.clone())), plain.as_ref(), None)
        .unwrap();
    assert_eq!(reference.greedy, reference.bounded);

    let probes = Probes::new();
    let estimates = Counts::new();
    let platform = env.open().unwrap();
    let source = probes.source(
        "platform",
        Arc::new(ApiSource(platform.clone())),
        &estimates,
    );
    let oracle = probes.oracle("platform.oracle", platform.clone(), &Counts::new());
    let (traced, counts) = env.pass(source, &oracle, Some(&estimates)).unwrap();
    assert_eq!(reference, traced);
    assert_eq!(platform.stats(), plain.stats());
    assert_eq!(platform.store().cache_stats(), plain.store().cache_stats());
    assert!(counts.candidates >= counts.measured);
}

#[test]
fn delivery_bootstrap_probes_change_nothing() {
    let env = delivery::Env::setup(&small_facebook(), SEED, delivery::Sizes::SMALL).unwrap();
    let before = env.facebook.stats();
    let plain = env.pass(env.facebook.clone(), None).unwrap();
    let plain_stats = env.facebook.stats().estimates - before.estimates;

    let probes = Probes::new();
    let counts = Counts::new();
    let before = env.facebook.stats();
    let traced = env
        .pass(
            probes.source("platform", env.facebook.clone(), &counts),
            Some(&probes),
        )
        .unwrap();
    assert_eq!(plain, traced);
    assert_eq!(
        env.facebook.stats().estimates - before.estimates,
        plain_stats
    );
    assert_eq!(counts.calls(), plain_stats);
    assert!(probes.attribution("").layer("delivery") > 0.0);
}

/// Every metric and workload the code reports is declared in
/// `BENCHMARK.json`, and nothing else is.
#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let declared: Vec<&str> = json
        .match_indices("\"name\": \"")
        .map(|(i, m)| {
            let rest = &json[i + m.len()..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    let mut reported: Vec<&str> = WORKLOADS.to_vec();
    reported.extend(END_TO_END.iter().chain(PER_LAYER).map(|(name, _)| *name));
    assert_eq!(declared, reported);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} must be declared with unit {unit}"
        );
    }
}
