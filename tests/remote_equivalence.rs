//! The audit must be transport-agnostic: running it through the wire
//! protocol ([`RemoteSource`]) must produce the same measurements as
//! running it in-process.

use std::sync::Arc;

use discrimination_via_composition::audit::recording::InterfaceMeta;
use discrimination_via_composition::audit::{
    measure_spec, rank_individuals, survey_individuals, top_compositions, AuditTarget, Direction,
    DiscoveryConfig, EstimateSource, SensitiveClass,
};
use discrimination_via_composition::platform::{RetryPolicy, SimScale, Simulation};
use discrimination_via_composition::population::Gender;
use discrimination_via_composition::targeting::{AttributeId, TargetingSpec};
use discrimination_via_composition::wire::{
    serve, Client, ClientConfig, ConnectionFault, ConnectionFaultHook, ServerConfig,
};
use discrimination_via_composition::RemoteSource;

#[test]
fn remote_audit_equals_in_process_audit() {
    let sim = Simulation::build(555, SimScale::Test);
    let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = Arc::new(RemoteSource::connect(handle.addr()).unwrap());

    // Source-level equivalence.
    assert_eq!(remote.label(), "LinkedIn");
    assert_eq!(remote.catalog_len() as usize, sim.linkedin.catalog().len());
    assert_eq!(
        remote.attribute_name(AttributeId(3)),
        Some(
            sim.linkedin
                .catalog()
                .get(AttributeId(3))
                .unwrap()
                .name
                .clone()
        )
    );
    assert!(remote.supports_demographics());
    assert!(remote.can_compose(AttributeId(0), AttributeId(1)));
    assert!(!remote.can_compose(AttributeId(0), AttributeId(0)));

    // Measurement-level equivalence on a composed, demographically
    // constrained spec.
    let remote_target = AuditTarget::direct(remote);
    let local_target = AuditTarget::for_platform(&sim.linkedin, &sim);
    let spec = TargetingSpec::and_of([AttributeId(0), AttributeId(5)]);
    assert_eq!(
        measure_spec(&remote_target, &spec).unwrap(),
        measure_spec(&local_target, &spec).unwrap()
    );

    // Pipeline-level equivalence: discovery finds the same compositions
    // with the same measurements.
    let male = SensitiveClass::Gender(Gender::Male);
    let cfg = DiscoveryConfig {
        top_k: 20,
        ..DiscoveryConfig::default()
    };
    let remote_survey = survey_individuals(&remote_target).unwrap();
    let local_survey = survey_individuals(&local_target).unwrap();
    assert_eq!(remote_survey.base, local_survey.base);
    let rr = rank_individuals(&remote_survey, male, Direction::Toward, cfg.min_reach);
    let lr = rank_individuals(&local_survey, male, Direction::Toward, cfg.min_reach);
    assert_eq!(rr, lr, "rankings must be identical");
    let rt = top_compositions(&remote_target, &remote_survey, &rr, &cfg).unwrap();
    let lt = top_compositions(&local_target, &local_survey, &lr, &cfg).unwrap();
    assert_eq!(rt.len(), lt.len());
    for (r, l) in rt.iter().zip(&lt) {
        assert_eq!(r.attrs, l.attrs);
        assert_eq!(r.measurement, l.measurement);
    }

    handle.shutdown();
}

#[test]
fn prefetch_catalog_matches_per_id_fetches() {
    let sim = Simulation::build(558, SimScale::Test);
    let handle = serve(sim.facebook.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let bulk = RemoteSource::connect(handle.addr()).unwrap();
    let fetched = bulk.prefetch_catalog().unwrap();
    assert_eq!(fetched as u32, bulk.catalog_len());
    // Without the prefetch, the first metadata call pages the catalog in.
    let lazy = RemoteSource::connect(handle.addr()).unwrap();
    let served: Arc<dyn EstimateSource> = sim.facebook.clone();
    assert_eq!(served.catalog_len(), bulk.catalog_len());
    for remote in [&bulk, &lazy] {
        let unknown = served.catalog_len();
        for id in (0..unknown).step_by(17).chain([unknown]) {
            let id = AttributeId(id);
            assert_eq!(remote.attribute_name(id), served.attribute_name(id));
            assert_eq!(remote.attribute_feature(id), served.attribute_feature(id));
        }
        assert_eq!(
            InterfaceMeta::capture(remote),
            InterfaceMeta::capture(served.as_ref())
        );
    }
    handle.shutdown();
}

/// Drops the one request with the given index (0 is `Describe`).
struct DropRequest(u64);

impl ConnectionFaultHook for DropRequest {
    fn fault_for(&self, index: u64) -> Option<ConnectionFault> {
        (index == self.0).then_some(ConnectionFault::Drop)
    }
}

#[test]
fn failed_catalog_fetch_is_not_kept() {
    let sim = Simulation::build(559, SimScale::Test);
    let config = ServerConfig::default().with_fault_hook(Arc::new(DropRequest(1)));
    let handle = serve(sim.google.clone(), "127.0.0.1:0", config).unwrap();
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            retry: RetryPolicy::none(),
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let remote = RemoteSource::new(client).unwrap();
    let id = AttributeId(0);
    assert_eq!(remote.attribute_feature(id), None, "first fetch is dropped");
    let served = sim.google.catalog().get(id).unwrap().feature;
    assert_eq!(remote.attribute_feature(id), Some(served));
    handle.shutdown();
}

#[test]
fn remote_source_respects_interface_policy() {
    let sim = Simulation::build(556, SimScale::Test);
    let handle = serve(
        sim.facebook_restricted.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let remote = RemoteSource::connect(handle.addr()).unwrap();
    // Restricted interface: no demographics over the wire either.
    assert!(!remote.supports_demographics());
    let gendered = TargetingSpec::builder().gender(Gender::Male).build();
    assert!(remote.check(&gendered).is_err());
    assert!(remote.estimate(&gendered).is_err());
    assert!(remote
        .estimate(&TargetingSpec::and_of([AttributeId(0)]))
        .is_ok());
    handle.shutdown();
}

#[test]
fn remote_google_exposes_cross_feature_rule() {
    let sim = Simulation::build(557, SimScale::Test);
    let handle = serve(sim.google.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = RemoteSource::connect(handle.addr()).unwrap();
    // Find attributes in both features via the wire metadata.
    let mut first_by_feature = std::collections::HashMap::new();
    for id in 0..remote.catalog_len() {
        let id = AttributeId(id);
        if let Some(f) = remote.attribute_feature(id) {
            first_by_feature.entry(f).or_insert(id);
        }
        if first_by_feature.len() == 2 {
            break;
        }
    }
    let ids: Vec<AttributeId> = first_by_feature.values().copied().collect();
    assert_eq!(ids.len(), 2);
    assert!(remote.can_compose(ids[0], ids[1]));
    let same_feature_pair = [AttributeId(0), AttributeId(1)];
    let same_feature = remote.attribute_feature(same_feature_pair[0])
        == remote.attribute_feature(same_feature_pair[1]);
    if same_feature {
        assert!(!remote.can_compose(same_feature_pair[0], same_feature_pair[1]));
    }
    handle.shutdown();
}
