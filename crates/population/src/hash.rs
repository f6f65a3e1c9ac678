//! Deterministic, stateless pseudo-randomness.
//!
//! All sampling in the universe is a pure function of integer inputs so
//! that (a) generation parallelises without coordination, (b) results are
//! independent of thread scheduling, and (c) repeated audience-size queries
//! are perfectly consistent — a property of the real platforms the paper
//! verifies and that the audit pipeline's consistency probe re-checks
//! against our simulators.
//!
//! The mixer is SplitMix64 (Steele et al., "Fast splittable pseudorandom
//! number generators"), which passes BigCrush when used as a stream and is
//! more than sufficient as a hash-to-uniform here.

/// SplitMix64 finalizer over an arbitrary 64-bit input.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a 64 — stable across runs, platforms, and Rust
/// versions (`DefaultHasher` guarantees none of that). Feeding bytes in
/// several [`write`](Fnv1a::write)s digests the same as one
/// [`fnv1a`] over their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A digest of no bytes yet.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the digest.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a 64 of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// Combines a seed and two stream coordinates into one well-mixed word.
#[inline]
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407)) ^ b)
}

/// Uniform in `[0, 1)` from `(seed, a, b)`.
#[inline]
pub(crate) fn uniform_f64(seed: u64, a: u64, b: u64) -> f64 {
    // 53 top bits → exactly representable dyadic rationals in [0,1).
    (mix(seed, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard normal from `(seed, a, b)` via Box–Muller.
#[inline]
pub(crate) fn normal_f32(seed: u64, a: u64, b: u64) -> f32 {
    let u1 = uniform_f64(seed, a, b.wrapping_mul(2));
    let u2 = uniform_f64(seed, a, b.wrapping_mul(2).wrapping_add(1));
    // Guard u1 == 0 (probability 2⁻⁵³ but ln(0) would be -inf).
    let u1 = u1.max(f64::MIN_POSITIVE);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of Vigna's reference `splitmix64.c` seeded
        // with 0: output i is the finalizer applied to i · golden gamma.
        let reference = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        for (i, &want) in reference.iter().enumerate() {
            let state = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(splitmix64(state), want, "output {i}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
        let mut streamed = Fnv1a::new();
        streamed.write(b"foo");
        streamed.write(b"bar");
        assert_eq!(streamed.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn deterministic() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_eq!(uniform_f64(9, 8, 7), uniform_f64(9, 8, 7));
        assert_eq!(normal_f32(9, 8, 7), normal_f32(9, 8, 7));
    }

    #[test]
    fn distinct_inputs_decorrelate() {
        // All pairwise-distinct coordinates give distinct outputs.
        let outs = [mix(1, 0, 0), mix(2, 0, 0), mix(1, 1, 0), mix(1, 0, 1)];
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                assert_ne!(outs[i], outs[j]);
            }
        }
    }

    #[test]
    fn uniform_range_and_mean() {
        let n = 100_000u64;
        let mut sum = 0.0;
        for i in 0..n {
            let u = uniform_f64(1234, i, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} not ~0.5");
    }

    #[test]
    fn normal_moments() {
        let n = 100_000u64;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for i in 0..n {
            let z = normal_f32(77, i, 3) as f64;
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean} not ~0");
        assert!((var - 1.0).abs() < 0.05, "var {var} not ~1");
    }
}
