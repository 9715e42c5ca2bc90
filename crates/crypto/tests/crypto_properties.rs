//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;

use snd_crypto::sha256::Sha256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..600),
        split in 0usize..600,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}
