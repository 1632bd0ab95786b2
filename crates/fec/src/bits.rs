//! Bit/byte conversion helpers.
//!
//! 802.11 serializes each octet least-significant bit first; every
//! bit-oriented stage in this crate (scrambler, encoder, interleaver)
//! operates on `u8` values that are 0 or 1, produced and consumed by these
//! helpers.

/// Expands bytes into bits, LSB first, one bit per output `u8` (0 or 1).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in 0..8 {
            out.push((b >> k) & 1);
        }
    }
    out
}

/// Packs bits (LSB first) back into bytes.
///
/// # Panics
///
/// Panics if `bits.len()` is not a multiple of 8 or any value is not 0/1.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    assert!(
        bits.len().is_multiple_of(8),
        "bit count {} is not a whole number of octets",
        bits.len()
    );
    bits.chunks(8)
        .map(|chunk| {
            let mut b = 0u8;
            for (k, &bit) in chunk.iter().enumerate() {
                assert!(bit <= 1, "bit value {bit} is not 0 or 1");
                b |= bit << k;
            }
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0x00u8, 0xFF, 0xA5, 0x3C, 0x01, 0x80];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn lsb_first_order() {
        // 0x01 -> bit 0 set -> first bit out is 1.
        assert_eq!(bytes_to_bits(&[0x01]), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        // 0x80 -> bit 7 set -> last bit out is 1.
        assert_eq!(bytes_to_bits(&[0x80]), vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "whole number of octets")]
    fn rejects_ragged_bits() {
        bits_to_bytes(&[1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "not 0 or 1")]
    fn rejects_non_binary() {
        bits_to_bytes(&[2, 0, 0, 0, 0, 0, 0, 0]);
    }
}
