//! Property test: the slicing-by-16 `crc32c` equals a bit-at-a-time
//! CRC-32C over arbitrary byte vectors, so no table entry, block count or
//! tail length can change a digest.

use proptest::prelude::*;
use rmwire::crc32c;

/// CRC-32C one bit per step from the reflected polynomial alone, sharing
/// nothing with the table-driven kernel.
fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn crc32c_matches_bitwise(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(crc32c(&data), crc32c_bitwise(&data));
    }
}
