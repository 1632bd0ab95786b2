//! SIGNAL fields: the legacy L-SIG (802.11-2012 §18.3.4) and the
//! two-symbol HT-SIG (802.11n §20.3.9.4.3).
//!
//! These carry the rate/length information the receiver needs before it can
//! demodulate the HT-Data portion. Bit layouts are faithful to the standard
//! (including L-SIG even parity and the HT-SIG CRC-8), so a decoding failure
//! here is a genuine error event that the PER instrumentation counts.

// Index-based loops here are the clearer expression of the math
// (matrix/carrier indexing); silence the iterator-style suggestion.
#![allow(clippy::needless_range_loop)]
use crate::mcs::Mcs;

/// Errors when decoding SIGNAL fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigError {
    /// Wrong number of bits supplied.
    Length { got: usize, want: usize },
    /// L-SIG parity check failed.
    Parity,
    /// Unknown legacy RATE code.
    BadRate(u8),
    /// LENGTH field is zero or otherwise out of range.
    BadLength(u16),
    /// HT-SIG CRC-8 mismatch.
    Crc,
    /// HT-SIG carries an MCS outside the supported 0–15 range.
    BadMcs(u8),
    /// Non-zero tail bits (decoder state corruption upstream).
    Tail,
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::Length { got, want } => {
                write!(f, "SIGNAL field has {got} bits, expected {want}")
            }
            SigError::Parity => write!(f, "L-SIG parity check failed"),
            SigError::BadRate(r) => write!(f, "unknown legacy RATE code {r:#06b}"),
            SigError::BadLength(l) => write!(f, "invalid LENGTH {l}"),
            SigError::Crc => write!(f, "HT-SIG CRC-8 mismatch"),
            SigError::BadMcs(m) => write!(f, "unsupported MCS {m} in HT-SIG"),
            SigError::Tail => write!(f, "non-zero SIGNAL tail bits"),
        }
    }
}

impl std::error::Error for SigError {}

/// Legacy rates and their 4-bit RATE codes (Table 18-6), 20 MHz.
pub const LEGACY_RATE_CODES: [(u8, f64); 8] = [
    (0b1101, 6.0),
    (0b1111, 9.0),
    (0b0101, 12.0),
    (0b0111, 18.0),
    (0b1001, 24.0),
    (0b1011, 36.0),
    (0b0001, 48.0),
    (0b0011, 54.0),
];

/// Decoded L-SIG contents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LSig {
    /// Legacy rate in Mb/s (6–54).
    pub rate_mbps: f64,
    /// LENGTH field in octets (1..=4095).
    pub length: u16,
}

impl LSig {
    /// Number of bits in the encoded field.
    pub const BITS: usize = 24;

    /// Creates an L-SIG announcing `length` octets at `rate_mbps`.
    ///
    /// # Panics
    ///
    /// Panics on a rate not in the legacy set or a length outside 1..=4095.
    pub fn new(rate_mbps: f64, length: u16) -> Self {
        assert!(
            LEGACY_RATE_CODES.iter().any(|&(_, r)| r == rate_mbps),
            "{rate_mbps} Mb/s is not a legacy rate"
        );
        assert!(
            (1..=4095).contains(&length),
            "L-SIG LENGTH {length} out of range"
        );
        Self { rate_mbps, length }
    }

    /// Encodes to 24 bits in transmission order.
    pub fn encode(&self) -> Vec<u8> {
        self.bits().to_vec()
    }

    /// [`Self::encode`] into a fixed array, without allocating.
    pub fn bits(&self) -> [u8; Self::BITS] {
        let code = LEGACY_RATE_CODES
            .iter()
            .find(|&&(_, r)| r == self.rate_mbps)
            .map(|&(c, _)| c)
            .expect("validated in new()");
        let mut bits = [0u8; Self::BITS];
        // RATE: 4 bits, transmitted MSB (R1) first = bit 3 of the code.
        for (i, b) in bits[..4].iter_mut().enumerate() {
            *b = (code >> (3 - i)) & 1;
        }
        // bits[4]: reserved. LENGTH: 12 bits, LSB first.
        for (i, b) in bits[5..17].iter_mut().enumerate() {
            *b = ((self.length >> i) & 1) as u8;
        }
        // Even parity over bits 0..17; bits 18..24 are the tail.
        bits[17] = bits[..17].iter().sum::<u8>() & 1;
        bits
    }

    /// Decodes 24 received bits.
    pub fn decode(bits: &[u8]) -> Result<Self, SigError> {
        if bits.len() != Self::BITS {
            return Err(SigError::Length {
                got: bits.len(),
                want: Self::BITS,
            });
        }
        let parity: u8 = bits[..18].iter().sum::<u8>() & 1;
        if parity != 0 {
            return Err(SigError::Parity);
        }
        let code = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3];
        let rate = LEGACY_RATE_CODES
            .iter()
            .find(|&&(c, _)| c == code)
            .map(|&(_, r)| r)
            .ok_or(SigError::BadRate(code))?;
        let mut length = 0u16;
        for i in 0..12 {
            length |= (bits[5 + i] as u16) << i;
        }
        if length == 0 {
            return Err(SigError::BadLength(length));
        }
        if bits[18..].iter().any(|&b| b != 0) {
            return Err(SigError::Tail);
        }
        Ok(Self {
            rate_mbps: rate,
            length,
        })
    }
}

/// Decoded HT-SIG contents (the subset this transceiver uses; remaining
/// standard fields are carried but fixed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HtSig {
    /// HT MCS index (0–15 supported).
    pub mcs: u8,
    /// PSDU length in octets (0..=65535).
    pub length: u16,
    /// Smoothing-recommended bit (channel estimate smoothing allowed).
    pub smoothing: bool,
    /// Aggregation (A-MPDU) bit.
    pub aggregation: bool,
}

impl HtSig {
    /// Number of bits across the two HT-SIG symbols.
    pub const BITS: usize = 48;

    /// Creates an HT-SIG.
    pub fn new(mcs: u8, length: u16) -> Self {
        Self {
            mcs,
            length,
            smoothing: true,
            aggregation: false,
        }
    }

    /// CRC-8 over the first 34 bits (x⁸+x²+x+1, init all ones, output
    /// complemented), per §20.3.9.4.3.
    fn crc8(bits: &[u8]) -> u8 {
        let mut reg = 0xFFu8;
        for &b in bits {
            let fb = ((reg >> 7) & 1) ^ b;
            reg <<= 1;
            if fb != 0 {
                reg ^= 0x07; // x^2 + x + 1
            }
        }
        !reg
    }

    /// Encodes to 48 bits in transmission order.
    pub fn encode(&self) -> Vec<u8> {
        self.bits().to_vec()
    }

    /// [`Self::encode`] into a fixed array, without allocating.
    pub fn bits(&self) -> [u8; Self::BITS] {
        let mut bits = [0u8; Self::BITS];
        // MCS: 7 bits LSB first.
        for (i, b) in bits[..7].iter_mut().enumerate() {
            *b = (self.mcs >> i) & 1;
        }
        // bits[7]: CBW 20/40, 0 = 20 MHz. HT LENGTH: 16 bits LSB first.
        for (i, b) in bits[8..24].iter_mut().enumerate() {
            *b = ((self.length >> i) & 1) as u8;
        }
        bits[24] = self.smoothing as u8;
        bits[25] = 1; // not sounding
        bits[26] = 1; // reserved, always 1
        bits[27] = self.aggregation as u8;
        // bits[28..34]: STBC none (2), BCC (1), long GI (1), no
        // extension spatial streams (2) — all zero.
        let crc = Self::crc8(&bits[..34]);
        // CRC transmitted MSB (c7) first; bits 42..48 are the tail.
        for (i, b) in bits[34..42].iter_mut().enumerate() {
            *b = (crc >> (7 - i)) & 1;
        }
        bits
    }

    /// Decodes 48 received bits, checking the CRC and MCS validity.
    pub fn decode(bits: &[u8]) -> Result<Self, SigError> {
        if bits.len() != Self::BITS {
            return Err(SigError::Length {
                got: bits.len(),
                want: Self::BITS,
            });
        }
        let crc_got = bits[34..42].iter().fold(0u8, |acc, &b| (acc << 1) | b);
        if Self::crc8(&bits[..34]) != crc_got {
            return Err(SigError::Crc);
        }
        let mut mcs = 0u8;
        for i in 0..7 {
            mcs |= bits[i] << i;
        }
        if Mcs::from_index(mcs).is_err() {
            return Err(SigError::BadMcs(mcs));
        }
        let mut length = 0u16;
        for i in 0..16 {
            length |= (bits[8 + i] as u16) << i;
        }
        Ok(Self {
            mcs,
            length,
            smoothing: bits[24] != 0,
            aggregation: bits[27] != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsig_roundtrip() {
        for (_, rate) in LEGACY_RATE_CODES {
            for len in [1u16, 100, 1500, 4095] {
                let sig = LSig::new(rate, len);
                let bits = sig.encode();
                assert_eq!(bits.len(), 24);
                assert_eq!(LSig::decode(&bits), Ok(sig));
            }
        }
    }

    #[test]
    fn lsig_parity_detects_single_flip_in_protected_bits() {
        let bits = LSig::new(6.0, 256).encode();
        for i in 0..18 {
            let mut bad = bits.clone();
            bad[i] ^= 1;
            // Either parity fails or (never) decodes to the same value.
            match LSig::decode(&bad) {
                Err(_) => {}
                Ok(sig) => panic!("flip at {i} undetected: {sig:?}"),
            }
        }
    }

    #[test]
    fn lsig_rejects_bad_inputs() {
        assert!(matches!(
            LSig::decode(&[0; 23]),
            Err(SigError::Length { got: 23, want: 24 })
        ));
        // Tail violation.
        let mut bits = LSig::new(6.0, 7).encode();
        bits[23] = 1;
        // Parity is over bits 0..18 so the tail flip hits the Tail check.
        assert_eq!(LSig::decode(&bits), Err(SigError::Tail));
    }

    #[test]
    #[should_panic(expected = "not a legacy rate")]
    fn lsig_rejects_nonlegacy_rate() {
        LSig::new(6.5, 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lsig_rejects_zero_length() {
        LSig::new(6.0, 0);
    }

    #[test]
    fn lsig_known_rate_code() {
        // 6 Mb/s = 1101 transmitted R1..R4 = 1,1,0,1.
        let bits = LSig::new(6.0, 1).encode();
        assert_eq!(&bits[..4], &[1, 1, 0, 1]);
    }

    #[test]
    fn htsig_roundtrip() {
        for mcs in 0..16u8 {
            for len in [0u16, 1, 1000, 65535] {
                let sig = HtSig::new(mcs, len);
                let bits = sig.encode();
                assert_eq!(bits.len(), 48);
                assert_eq!(HtSig::decode(&bits), Ok(sig));
            }
        }
    }

    #[test]
    fn htsig_crc_detects_any_single_flip() {
        let bits = HtSig::new(11, 1234).encode();
        for i in 0..42 {
            let mut bad = bits.clone();
            bad[i] ^= 1;
            assert!(HtSig::decode(&bad).is_err(), "flip at {i} undetected");
        }
    }

    #[test]
    fn htsig_rejects_unsupported_mcs() {
        // Build bits for MCS 33 manually (bypassing the constructor) and
        // verify the decoder flags it even with a valid CRC.
        let mut sig = HtSig::new(0, 10);
        sig.mcs = 33;
        let bits = sig.encode();
        assert_eq!(HtSig::decode(&bits), Err(SigError::BadMcs(33)));
    }

    #[test]
    fn htsig_flags() {
        let mut sig = HtSig::new(8, 99);
        sig.aggregation = true;
        sig.smoothing = false;
        let got = HtSig::decode(&sig.encode()).unwrap();
        assert!(got.aggregation);
        assert!(!got.smoothing);
    }

    #[test]
    fn error_display() {
        assert_eq!(SigError::Parity.to_string(), "L-SIG parity check failed");
        assert!(SigError::BadRate(3).to_string().contains("RATE"));
    }
}
