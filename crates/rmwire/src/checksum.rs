//! Self-contained payload integrity checksum.
//!
//! CRC-32C (Castagnoli, polynomial `0x1EDC6F41`, reflected form
//! `0x82F63B78`) — the same polynomial used by iSCSI, SCTP and ext4 —
//! computed by slicing-by-16: sixteen 256-entry tables generated at
//! compile time fold sixteen input bytes per step, and the classic
//! one-byte-per-step loop over the first table finishes the tail. No
//! external dependencies, no hardware intrinsics, no `unsafe`: the
//! simulator and the real-socket backend compute identical digests on
//! every platform.
//!
//! The wire integration lives one layer up: a packet whose header carries
//! [`crate::PacketFlags::CKSUM`] is followed by a big-endian `u32` CRC-32C
//! trailer computed over every preceding byte (header *and* body). The
//! flag bit was reserved in the original layout, so checksummed and
//! legacy packets coexist: an old decoder rejects the unknown bit (fails
//! closed), a new decoder accepts legacy packets unchanged.

/// The reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-16 lookup tables. `TABLES[0]` is the classic one-byte table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes, so one step combines sixteen independent lookups.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc; // rmlint: allow(index-unguarded): i < 256 by the loop bound
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // rmlint: allow(index-unguarded): k < 16 and i < 256 by the loop bounds
            let prev = tables[k - 1][i];
            // rmlint: allow(index-unguarded): k < 16, i < 256, and the & 0xff mask keeps the index below 256
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One table lookup. Indexing by a `u8` keeps every lookup in range
/// without a bounds check.
#[inline(always)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table[byte as usize] // rmlint: allow(index-unguarded): a u8 index is always below 256
}

/// CRC-32C digest of `data` (init `!0`, final xor `!0` — the standard
/// Castagnoli parameterisation).
pub fn crc32c(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut crc = !0u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = lookup(t15, c0 ^ b0)
            ^ lookup(t14, c1 ^ b1)
            ^ lookup(t13, c2 ^ b2)
            ^ lookup(t12, c3 ^ b3)
            ^ lookup(t11, b4)
            ^ lookup(t10, b5)
            ^ lookup(t9, b6)
            ^ lookup(t8, b7)
            ^ lookup(t7, b8)
            ^ lookup(t6, b9)
            ^ lookup(t5, b10)
            ^ lookup(t4, b11)
            ^ lookup(t3, b12)
            ^ lookup(t2, b13)
            ^ lookup(t1, b14)
            ^ lookup(t0, b15);
    }
    for &b in tail {
        crc = (crc >> 8) ^ lookup(t0, crc as u8 ^ b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop over `TABLES[0]`: the reference the
    /// slicing-by-16 kernel must match digest for digest.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// `len` deterministic pseudo-random bytes (xorshift32, fixed seed).
    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn matches_bytewise_at_every_length_and_offset() {
        let buf = seeded_bytes(16 + 300);
        for offset in 0..16 {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32c(data),
                    crc32c_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn matches_bytewise_on_a_delivery_sized_buffer() {
        // One 500 KB message: the simulator's delivery witness size.
        let buf = seeded_bytes(500_000);
        assert_eq!(crc32c(&buf), crc32c_bytewise(&buf));
    }

    /// Known-answer tests from RFC 3720 appendix B.4 and the common
    /// CRC-32C check value.
    #[test]
    fn known_answers() {
        // The canonical CRC-32C check: crc("123456789").
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // RFC 3720 B.4: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // RFC 3720 B.4: 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        // RFC 3720 B.4: bytes 0..=31 ascending.
        let asc: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&asc), 0x46DD_794E);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn single_bit_sensitivity() {
        // Every single-bit flip of a sample buffer changes the digest.
        let base = b"reliable multicast over ethernet".to_vec();
        let orig = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32c(&mutated), orig, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
