//! Property tests for the run store's record codecs: `decode_spec` and
//! `decode_estimate` are total on garbage. Arbitrary bytes, every strict
//! prefix of a valid encoding and valid encodings with one byte flipped
//! all decode to an `Err` or a value, never a panic, and a strict prefix
//! is always an `Err`.

use adcomp_core::recording::{decode_estimate, decode_spec, encode_estimate, encode_spec};
use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{AttributeId, DemographicSpec, Location, OrGroup, TargetingSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = TargetingSpec> {
    (
        proptest::option::of(proptest::collection::vec(0u8..2, 0..=2)),
        proptest::option::of(proptest::collection::vec(0u8..4, 0..=4)),
        proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..5), 0..4),
        proptest::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(genders, ages, include, exclude)| TargetingSpec {
            demographics: DemographicSpec {
                genders: genders.map(|gs| {
                    gs.into_iter()
                        .map(|i| if i == 0 { Gender::Male } else { Gender::Female })
                        .collect()
                }),
                ages: ages.map(|a| {
                    a.into_iter()
                        .map(|i| AgeBucket::from_index(i as usize))
                        .collect()
                }),
                location: Location::UnitedStates,
            },
            include: include
                .into_iter()
                .map(|g| OrGroup {
                    attributes: g.into_iter().map(AttributeId).collect(),
                })
                .collect(),
            exclude: exclude.into_iter().map(AttributeId).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_are_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must never panic; errors are fine.
        let _ = decode_spec(&bytes);
        let _ = decode_estimate(&bytes);
    }

    #[test]
    fn every_strict_prefix_is_an_error(spec in arb_spec(), value in any::<u64>()) {
        let spec_bytes = encode_spec(&spec);
        prop_assert!(decode_spec(&spec_bytes).is_ok());
        for cut in 0..spec_bytes.len() {
            prop_assert!(decode_spec(&spec_bytes[..cut]).is_err(), "spec prefix {cut}");
        }
        let estimate_bytes = encode_estimate(&spec, value);
        prop_assert_eq!(decode_estimate(&estimate_bytes).unwrap().1, value);
        for cut in 0..estimate_bytes.len() {
            prop_assert!(
                decode_estimate(&estimate_bytes[..cut]).is_err(),
                "estimate prefix {cut}"
            );
        }
    }

    #[test]
    fn one_flipped_byte_never_panics(
        spec in arb_spec(),
        value in any::<u64>(),
        at in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut spec_bytes = encode_spec(&spec);
        let i = at.index(spec_bytes.len());
        spec_bytes[i] ^= flip;
        let _ = decode_spec(&spec_bytes);

        let mut estimate_bytes = encode_estimate(&spec, value);
        let i = at.index(estimate_bytes.len());
        estimate_bytes[i] ^= flip;
        let _ = decode_estimate(&estimate_bytes);
    }
}
