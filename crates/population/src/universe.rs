//! The user universe: generation and attribute-audience materialisation.

use adcomp_bitset::Bitset;

use crate::demographics::{AgeBucket, DemographicProfile, Demographics, Gender};
use crate::latent::{AttributeModel, LATENT_DIMS};
use crate::{mix, normal_f32, uniform_f64};

/// Parameters of a universe.
#[derive(Clone, Debug, PartialEq)]
pub struct UniverseConfig {
    /// Number of simulated users.
    pub n_users: u32,
    /// Master seed; two universes with equal configs are identical.
    pub seed: u64,
    /// Multiplier mapping simulated counts to platform-scale counts
    /// (applied by the platform layer's size estimators, never here).
    pub scale: f64,
    /// Demographic priors of the platform's user base.
    pub profile: DemographicProfile,
}

/// Domains of the per-user random streams (the `a` coordinate of
/// [`mix`]). Keeping them disjoint guarantees the demographic draw never
/// correlates with the latent noise.
mod stream {
    pub const GENDER: u64 = 0x01;
    pub const AGE: u64 = 0x02;
    pub const LATENT_BASE: u64 = 0x10; // .. LATENT_BASE + LATENT_DIMS
}

/// A fully generated synthetic user base.
///
/// Owns, per user: packed demographics (1 byte) and the latent interest
/// vector (`LATENT_DIMS` × f32); plus pre-built demographic audiences.
/// Attribute audiences are *not* stored — platforms materialise and cache
/// what their catalogs need via [`Universe::materialize`].
pub struct Universe {
    config: UniverseConfig,
    /// Packed [`Demographics`], one per user.
    demographics: Vec<u8>,
    /// Row-major `n_users × LATENT_DIMS`.
    latent: Vec<f32>,
    by_gender: [Bitset; 2],
    by_age: [Bitset; 4],
    everyone: Bitset,
}

impl Universe {
    /// Generates the universe described by `config`, in parallel.
    ///
    /// Deterministic in `config` alone — thread count does not matter,
    /// because every per-user quantity is a pure function of
    /// `(seed, user id)`.
    ///
    /// # Panics
    /// Panics when `n_users == 0` or `scale <= 0`.
    pub fn generate(config: &UniverseConfig) -> Universe {
        assert!(config.n_users > 0, "universe must have at least one user");
        assert!(config.scale > 0.0, "scale must be positive");
        let n = config.n_users as usize;
        let mut demographics = vec![0u8; n];
        let mut latent = vec![0f32; n * LATENT_DIMS];

        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let chunk = n.div_ceil(threads).max(1024);

        std::thread::scope(|scope| {
            let demo_chunks = demographics.chunks_mut(chunk);
            let latent_chunks = latent.chunks_mut(chunk * LATENT_DIMS);
            for (idx, (dchunk, lchunk)) in demo_chunks.zip(latent_chunks).enumerate() {
                let start = idx * chunk;
                let config = &config;
                scope.spawn(move || {
                    fill_users(config, start as u32, dchunk, lchunk);
                });
            }
        });

        let mut gender_ids: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut age_ids: [Vec<u32>; 4] = Default::default();
        for (user, &packed) in demographics.iter().enumerate() {
            let d = Demographics::unpack(packed);
            gender_ids[d.gender.index()].push(user as u32);
            age_ids[d.age.index()].push(user as u32);
        }
        let mut by_gender = gender_ids.map(Bitset::from_sorted_iter);
        let mut by_age = age_ids.map(Bitset::from_sorted_iter);
        let mut everyone = Bitset::from_sorted_iter(0..config.n_users);
        // Demographic audiences are heavily clustered (everyone is one
        // contiguous run); run encoding shrinks them where it helps and
        // is a no-op where it does not.
        for b in by_gender.iter_mut().chain(by_age.iter_mut()) {
            b.run_optimize();
        }
        everyone.run_optimize();

        Universe {
            config: config.clone(),
            demographics,
            latent,
            by_gender,
            by_age,
            everyone,
        }
    }

    /// Number of simulated users.
    pub fn n_users(&self) -> u32 {
        self.config.n_users
    }

    /// The configured simulation-to-platform scale factor.
    pub fn scale(&self) -> f64 {
        self.config.scale
    }

    /// The generation config.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// Demographics of one user.
    ///
    /// # Panics
    /// Panics when `user >= n_users`.
    pub fn demographics(&self, user: u32) -> Demographics {
        Demographics::unpack(self.demographics[user as usize])
    }

    /// Latent interest vector of one user.
    pub fn latent(&self, user: u32) -> &[f32] {
        let start = user as usize * LATENT_DIMS;
        &self.latent[start..start + LATENT_DIMS]
    }

    /// All users of one gender.
    pub fn gender_audience(&self, gender: Gender) -> &Bitset {
        &self.by_gender[gender.index()]
    }

    /// All users in one age bucket.
    pub fn age_audience(&self, age: AgeBucket) -> &Bitset {
        &self.by_age[age.index()]
    }

    /// Every simulated user (the paper's relevant audience `RA`: all
    /// US-based users of the platform).
    pub fn everyone(&self) -> &Bitset {
        &self.everyone
    }

    /// Materialises the audience of an attribute model: the set of users
    /// whose Bernoulli draw (log-odds from [`AttributeModel::logit`])
    /// succeeds. Deterministic per `(universe seed, model seed, user)`.
    pub fn materialize(&self, model: &AttributeModel) -> Bitset {
        let n = self.config.n_users as usize;
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let chunk = n.div_ceil(threads).max(4096);
        let n_chunks = n.div_ceil(chunk);
        let mut per_chunk: Vec<Vec<u32>> = vec![Vec::new(); n_chunks];

        std::thread::scope(|scope| {
            for (idx, out) in per_chunk.iter_mut().enumerate() {
                let start = idx * chunk;
                let end = (start + chunk).min(n);
                scope.spawn(move || {
                    *out = self.materialize_range(model, start as u32, end as u32);
                });
            }
        });

        Bitset::from_sorted_iter(per_chunk.into_iter().flatten())
    }

    /// Sequential kernel over `users ∈ [start, end)`.
    fn materialize_range(&self, model: &AttributeModel, start: u32, end: u32) -> Vec<u32> {
        let mut members = Vec::new();
        // Attribute draws live in their own seed space so they can never
        // collide with the universe's demographic/latent streams.
        let draw_seed = mix(self.config.seed, 0xA77B, model.seed);
        for user in start..end {
            let demo = Demographics::unpack(self.demographics[user as usize]);
            let z = self.latent(user);
            let p = model.probability(z, demo);
            if uniform_f64(draw_seed, user as u64, 0) < p {
                members.push(user);
            }
        }
        members
    }

    /// Exact membership probability of one user for a model (used by tests
    /// and the calibration tooling; the platforms only see realised sets).
    pub fn membership_probability(&self, model: &AttributeModel, user: u32) -> f64 {
        model.probability(self.latent(user), self.demographics(user))
    }
}

impl std::fmt::Debug for Universe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Universe")
            .field("n_users", &self.config.n_users)
            .field("seed", &self.config.seed)
            .field("scale", &self.config.scale)
            .field("males", &self.by_gender[0].len())
            .field("females", &self.by_gender[1].len())
            .finish_non_exhaustive()
    }
}

/// Fills demographics and latent vectors for users starting at `start`.
///
/// Shared with the streamed segment generator ([`crate::segment`]): every
/// per-user quantity is a pure function of `(seed, user id)`, so any
/// partition of the id space produces byte-identical users.
pub(crate) fn fill_users(
    config: &UniverseConfig,
    start: u32,
    demos: &mut [u8],
    latents: &mut [f32],
) {
    let age_cdf = config.profile.age_cdf();
    for (offset, packed) in demos.iter_mut().enumerate() {
        let user = start + offset as u32;
        let gender = if uniform_f64(config.seed, stream::GENDER, user as u64)
            < config.profile.male_fraction
        {
            Gender::Male
        } else {
            Gender::Female
        };
        let age_u = uniform_f64(config.seed, stream::AGE, user as u64);
        let age_idx = age_cdf.iter().position(|&c| age_u < c).unwrap_or(3);
        let age = AgeBucket::from_index(age_idx);
        let demo = Demographics { gender, age };
        *packed = demo.pack();

        let z = &mut latents[offset * LATENT_DIMS..(offset + 1) * LATENT_DIMS];
        for (dim, zi) in z.iter_mut().enumerate() {
            *zi = normal_f32(config.seed, stream::LATENT_BASE + dim as u64, user as u64);
        }
        // Demographic shifts on the correlated axes.
        z[0] += gender.signal() * config.profile.gender_signal;
        z[1] += age.signal() * config.profile.age_signal;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Universe {
        Universe::generate(&UniverseConfig {
            n_users: 20_000,
            seed,
            scale: 100.0,
            profile: DemographicProfile::balanced(),
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(3);
        let b = small(3);
        assert_eq!(a.demographics, b.demographics);
        assert_eq!(a.latent, b.latent);
        let m = AttributeModel::new(5).popularity(0.1);
        assert_eq!(a.materialize(&m), b.materialize(&m));
    }

    #[test]
    fn different_seeds_differ() {
        let a = small(3);
        let b = small(4);
        assert_ne!(a.demographics, b.demographics);
    }

    #[test]
    fn demographic_partitions_cover_everyone() {
        let u = small(1);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        assert_eq!(males.len() + females.len(), u.n_users() as u64);
        assert!(males.is_disjoint(females));
        let age_total: u64 = AgeBucket::ALL
            .iter()
            .map(|a| u.age_audience(*a).len())
            .sum();
        assert_eq!(age_total, u.n_users() as u64);
        assert_eq!(u.everyone().len(), u.n_users() as u64);
    }

    #[test]
    fn demographic_priors_are_respected() {
        let u = Universe::generate(&UniverseConfig {
            n_users: 50_000,
            seed: 9,
            scale: 1.0,
            profile: DemographicProfile {
                male_fraction: 0.7,
                age_weights: [0.1, 0.2, 0.3, 0.4],
                gender_signal: 1.0,
                age_signal: 1.0,
            },
        });
        let male_frac = u.gender_audience(Gender::Male).len() as f64 / 50_000.0;
        assert!((male_frac - 0.7).abs() < 0.01, "male fraction {male_frac}");
        let old_frac = u.age_audience(AgeBucket::A55Plus).len() as f64 / 50_000.0;
        assert!((old_frac - 0.4).abs() < 0.01, "55+ fraction {old_frac}");
    }

    #[test]
    fn materialized_popularity_matches_target() {
        let u = small(2);
        for p in [0.02, 0.1, 0.4] {
            let m = AttributeModel::new((p * 1000.0) as u64).popularity(p);
            let audience = u.materialize(&m);
            let observed = audience.len() as f64 / u.n_users() as f64;
            // Logistic over N(0, I) latents keeps the mean near the target
            // (slight attenuation from Jensen is expected; allow 30 %).
            assert!(
                (observed - p).abs() / p < 0.3,
                "target {p} observed {observed}"
            );
        }
    }

    #[test]
    fn gender_biased_attribute_skews_and_composition_amplifies() {
        let u = small(11);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        let rate = |s: &Bitset, base: &Bitset| s.intersection_len(base) as f64 / base.len() as f64;
        let ratio = |s: &Bitset| rate(s, males) / rate(s, females);

        let a = u.materialize(&AttributeModel::new(1).popularity(0.2).gender_bias(0.8));
        let b = u.materialize(&AttributeModel::new(2).popularity(0.2).gender_bias(0.8));
        let ra = ratio(&a);
        let rb = ratio(&b);
        let rab = ratio(&a.and(&b));
        assert!(ra > 1.2 && rb > 1.2, "individual skews: {ra} {rb}");
        assert!(
            rab > ra.max(rb),
            "composition must amplify: {rab} vs {ra}, {rb}"
        );
    }

    #[test]
    fn latent_loading_composition_amplifies_via_shared_axis() {
        // Two attributes with no direct demographic bias, loading on the
        // gender-correlated axis 0: facially neutral but jointly skewed.
        let u = small(12);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        let rate = |s: &Bitset, base: &Bitset| s.intersection_len(base) as f64 / base.len() as f64;
        let ratio = |s: &Bitset| rate(s, males) / rate(s, females);

        let a = u.materialize(&AttributeModel::new(21).popularity(0.15).loading(0, 0.7));
        let b = u.materialize(&AttributeModel::new(22).popularity(0.15).loading(0, 0.7));
        let rab = ratio(&a.and(&b));
        assert!(ratio(&a) > 1.1 && ratio(&b) > 1.1);
        assert!(
            rab > ratio(&a) && rab > ratio(&b),
            "shared-axis amplification"
        );
    }

    #[test]
    fn materialize_matches_sequential_reference() {
        let u = small(13);
        let m = AttributeModel::new(77)
            .popularity(0.3)
            .gender_bias(-0.5)
            .loading(4, 1.0);
        let parallel = u.materialize(&m);
        let sequential = Bitset::from_sorted_iter(u.materialize_range(&m, 0, u.n_users()));
        assert_eq!(parallel, sequential);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let _ = Universe::generate(&UniverseConfig {
            n_users: 0,
            seed: 0,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        });
    }
}
