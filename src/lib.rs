//! Umbrella crate for the reproduction of *On the Potential for
//! Discrimination via Composition* (Venkatadri & Mislove, IMC 2020).
//!
//! Re-exports the workspace crates under stable module names and provides
//! the glue that lets the audit pipeline run against a platform behind
//! the wire protocol ([`RemoteSource`]).
//!
//! See the repository README for the architecture overview and
//! EXPERIMENTS.md for the paper-versus-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adcomp_agg as agg;
pub use adcomp_bitset as bitset;
pub use adcomp_core as audit;
pub use adcomp_delivery as delivery;
pub use adcomp_infer as infer;
pub use adcomp_obs as obs;
pub use adcomp_platform as platform;
pub use adcomp_population as population;
pub use adcomp_sched as sched;
pub use adcomp_serve as serve;
pub use adcomp_store as store;
pub use adcomp_targeting as targeting;
pub use adcomp_wire as wire;

pub mod fleet;
pub use fleet::Fleet;

use std::sync::{Arc, Mutex, PoisonError};

use adcomp_core::recording::InterfaceMeta;
use adcomp_core::{EstimateSource, SourceError};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};
use adcomp_wire::{Client, ClientError, InterfaceDescription};

/// Catalog entries requested per page (the server's page cap).
const CATALOG_PAGE: u32 = 1_000;

/// An [`EstimateSource`] backed by a wire-protocol [`Client`], letting
/// every audit in `adcomp-core` run unchanged against a *remote*
/// platform — the audit cannot tell the difference, just as the paper's
/// scripts only saw HTTP endpoints.
///
/// The catalog's metadata is paged in whole on the first call that
/// needs it (or on [`prefetch_catalog`](RemoteSource::prefetch_catalog))
/// and answered from then on the way a [`ReplaySource`] answers; a
/// failed download is not kept, so the next call tries again. Checks
/// and estimates always go to the server.
///
/// [`ReplaySource`]: adcomp_core::ReplaySource
pub struct RemoteSource {
    client: Client,
    description: InterfaceDescription,
    meta: Mutex<Option<Arc<InterfaceMeta>>>,
}

impl RemoteSource {
    /// Wraps a connected client, fetching the interface description.
    pub fn new(client: Client) -> Result<RemoteSource, ClientError> {
        let description = client.describe()?;
        Ok(RemoteSource {
            client,
            description,
            meta: Mutex::new(None),
        })
    }

    /// Downloads the whole catalog's metadata now, so no later
    /// `attribute_name`/`attribute_feature`/`can_compose` call touches
    /// the wire. Returns the number of catalog entries held.
    pub fn prefetch_catalog(&self) -> Result<usize, ClientError> {
        Ok(self.catalog()?.names.len())
    }

    /// Connects and wraps in one step.
    pub fn connect<A: std::net::ToSocketAddrs>(addr: A) -> Result<RemoteSource, ClientError> {
        let client = Client::connect(addr)
            .map_err(|e| ClientError::Transport(adcomp_wire::FrameError::Io(e)))?;
        RemoteSource::new(client)
    }

    /// The cached interface description.
    pub fn description(&self) -> &InterfaceDescription {
        &self.description
    }

    /// The catalog metadata, paged in on first use. The lock is held
    /// across the download so concurrent first callers share one fetch.
    fn catalog(&self) -> Result<Arc<InterfaceMeta>, ClientError> {
        let mut slot = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(meta) = slot.as_ref() {
            return Ok(meta.clone());
        }
        let d = &self.description;
        let mut names = Vec::with_capacity(d.catalog_len as usize);
        let mut features = Vec::with_capacity(d.catalog_len as usize);
        let mut start = 0u32;
        loop {
            let (entries, next) = self.client.catalog_page(start, CATALOG_PAGE)?;
            for (name, feature) in entries {
                names.push(name);
                features.push(feature);
            }
            match next {
                Some(n) => start = n,
                None => break,
            }
        }
        let meta = Arc::new(InterfaceMeta {
            label: d.label.clone(),
            supports_demographics: d.gender_targeting && d.age_targeting,
            same_feature_and: d.same_feature_and,
            names,
            features,
        });
        *slot = Some(meta.clone());
        Ok(meta)
    }
}

/// Maps a wire-client failure onto the audit's error taxonomy, so the
/// resilience layer in `adcomp-core` can classify remote failures
/// exactly like local ones (rate limits stay retryable with their hint,
/// policy rejections stay fatal).
fn map_client_error(e: ClientError) -> SourceError {
    use adcomp_wire::ErrorCode;
    match e {
        ClientError::Server {
            code: ErrorCode::RateLimited,
            retry_after,
            ..
        } => SourceError::RateLimited { retry_after },
        ClientError::Server {
            code: ErrorCode::Internal,
            message,
            ..
        } => SourceError::Platform(adcomp_platform::PlatformError::Transient(message)),
        ClientError::CircuitOpen { retry_in } => SourceError::CircuitOpen { retry_in },
        ClientError::Server { code, message, .. } => {
            SourceError::Rejected(format!("server {code:?}: {message}"))
        }
        other => SourceError::Transport(other.to_string()),
    }
}

impl EstimateSource for RemoteSource {
    fn label(&self) -> String {
        self.description.label.clone()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        self.client.estimate(spec).map_err(map_client_error)
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        // Pipelined: the client keeps a window of tagged requests in
        // flight on the one connection instead of paying a round-trip
        // per query.
        self.client
            .estimate_batch(specs)
            .into_iter()
            .map(|r| r.map_err(map_client_error))
            .collect()
    }

    fn batch_window(&self) -> usize {
        self.client.config().pipeline_window.max(1)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        self.client.check(spec).map_err(map_client_error)
    }

    fn catalog_len(&self) -> u32 {
        self.description.catalog_len
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.catalog().ok()?.name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.catalog().ok()?.feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.catalog().is_ok_and(|meta| meta.can_compose(a, b))
    }

    fn supports_demographics(&self) -> bool {
        self.description.gender_targeting && self.description.age_targeting
    }
}
