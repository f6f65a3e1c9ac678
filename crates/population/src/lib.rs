//! Synthetic ad-platform user universes.
//!
//! The paper measures live platforms whose user bases we cannot access, so
//! this crate is the substitute substrate: a deterministic, seeded generator
//! of platform-scale user populations with the two properties the paper's
//! phenomenon depends on:
//!
//! 1. **Demographic structure** — every user has a gender and an age bucket
//!    (the four ranges the paper targets: 18–24, 25–34, 35–54, 55+), drawn
//!    from per-platform priors (LinkedIn skews male, Facebook slightly
//!    female, Google/LinkedIn skew older, …).
//! 2. **Correlated interests** — whether a user matches a targeting
//!    attribute is a Bernoulli draw whose log-odds are a linear function of
//!    the user's *latent interest vector* plus direct demographic bias
//!    terms (see [`AttributeModel`]). Because demographics shift the latent
//!    vector, attributes that load on the same latent directions are
//!    *jointly* more demographically skewed than either is alone — which is
//!    exactly the composition effect the paper studies.
//!
//! Everything is a pure function of `(seed, user id)`, so universes are
//! reproducible bit-for-bit regardless of thread count, and repeated
//! audience-size queries are consistent (the paper verifies this property
//! of the real platforms in §3).
//!
//! # Scale
//!
//! Real platforms have 10⁸–10⁹ users; simulating each would be wasteful.
//! A [`Universe`] simulates `n_users` (typically 10⁵–10⁶) and carries a
//! `scale` factor so that reported audience sizes land in the platform's
//! real range. The scaling is applied by the platform layer when it rounds
//! estimates; all set arithmetic happens at simulation scale.
//!
//! # Example
//!
//! ```
//! use adcomp_population::{
//!     AttributeModel, DemographicProfile, Gender, Universe, UniverseConfig,
//! };
//!
//! let universe = Universe::generate(&UniverseConfig {
//!     n_users: 10_000,
//!     seed: 7,
//!     scale: 1_000.0,
//!     profile: DemographicProfile::balanced(),
//! });
//!
//! // A mildly male-skewed attribute.
//! let model = AttributeModel::new(42).popularity(0.10).gender_bias(0.8);
//! let audience = universe.materialize(&model);
//! let males = universe.gender_audience(Gender::Male);
//! let male_rate = audience.intersection_len(males) as f64 / males.len() as f64;
//! let females = universe.gender_audience(Gender::Female);
//! let female_rate = audience.intersection_len(females) as f64 / females.len() as f64;
//! assert!(male_rate > female_rate);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demographics;
mod hash;
pub mod inference;
mod latent;
pub mod segment;
mod universe;

pub use demographics::{AgeBucket, DemographicProfile, Demographics, Gender};
pub use inference::{AttributeInference, InferredView};
pub use latent::{AttributeModel, LATENT_DIMS};
pub use segment::{CacheStats, SegmentAudience, SegmentError, SegmentStore, SEGMENT_ALIGN};
pub use universe::{Universe, UniverseConfig};

pub(crate) use hash::{mix, normal_f32, uniform_f64};

/// Deterministic hash-based sampling helpers.
///
/// Exposed so downstream catalog generators can draw per-attribute
/// parameters from the same reproducible, stateless streams the universe
/// itself uses. Coordinates `(seed, a, b)` identify a stream position.
/// `splitmix64` is the one 64-bit mixer the crates above this one
/// share (fault schedules, retry jitter, probe spec seeds).
pub mod hash_api {
    pub use crate::hash::splitmix64;

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(seed: u64, a: u64, b: u64) -> f64 {
        crate::hash::uniform_f64(seed, a, b)
    }

    /// Standard normal sample.
    pub fn normal(seed: u64, a: u64, b: u64) -> f32 {
        crate::hash::normal_f32(seed, a, b)
    }
}
