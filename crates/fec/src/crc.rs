//! CRC-32 (IEEE 802.3 / 802.11 FCS).
//!
//! The MIMONet packet format appends this FCS to every PSDU so the receiver
//! can count packet errors (PER) exactly as the paper's instrumentation
//! does. Parameters: polynomial 0x04C11DB7 (reflected 0xEDB88320), init
//! 0xFFFFFFFF, reflected input/output, final XOR 0xFFFFFFFF.

/// Slicing-by-8 lookup tables for the reflected polynomial, built at
/// compile time. `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[s][b]` is the CRC contribution of byte `b` followed by `s`
/// zero bytes, so one step folds eight input bytes with eight lookups.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Streaming CRC-32 accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh accumulator.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes, eight per step (slicing-by-8), the tail one at a
    /// time.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finalizes and returns the CRC value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Appends the FCS to `data` in the 802.11 wire order (little-endian).
pub fn append_fcs(data: &mut Vec<u8>) {
    let fcs = crc32(data);
    data.extend_from_slice(&fcs.to_le_bytes());
}

/// Checks a frame that ends with a little-endian FCS; returns the payload
/// on success.
pub fn check_fcs(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < 4 {
        return None;
    }
    let (payload, fcs_bytes) = frame.split_at(frame.len() - 4);
    let got = u32::from_le_bytes([fcs_bytes[0], fcs_bytes[1], fcs_bytes[2], fcs_bytes[3]]);
    if crc32(payload) == got {
        Some(payload)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut c = Crc32::new();
        c.update(&data[..100]);
        c.update(&data[100..]);
        assert_eq!(c.finalize(), crc32(&data));
    }

    /// Bit-serial shift-register CRC-32: the definition the tables
    /// must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn random_bytes(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc_matches_the_bitwise_reference() {
        for len in 0..=64 {
            for seed in 1..=4u64 {
                let data = random_bytes(len, seed * 0x9E37_79B9 + len as u64);
                assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
            }
        }
        // One IqChunk-sized buffer (2 antennas x 4096 complex f64).
        let big = random_bytes(131_072, 0xC0FFEE);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn update_over_any_split_equals_oneshot() {
        let data = random_bytes(300, 77);
        let want = crc32(&data);
        for a in 0..=data.len() {
            for b in [a, a + 1, a + 7, a + 8, a + 9, a + 64] {
                let b = b.min(data.len());
                let mut c = Crc32::new();
                c.update(&data[..a]);
                c.update(&data[a..b]);
                c.update(&data[b..]);
                assert_eq!(c.finalize(), want, "splits at {a}, {b}");
            }
        }
    }

    #[test]
    fn fcs_roundtrip() {
        let mut frame = b"hello mimo world".to_vec();
        append_fcs(&mut frame);
        assert_eq!(frame.len(), 20);
        assert_eq!(check_fcs(&frame), Some(b"hello mimo world".as_slice()));
    }

    #[test]
    fn fcs_detects_single_bit_flip_anywhere() {
        let mut frame = vec![0x42u8; 64];
        append_fcs(&mut frame);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(check_fcs(&bad).is_none(), "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn short_frames_rejected() {
        assert!(check_fcs(&[]).is_none());
        assert!(check_fcs(&[1, 2, 3]).is_none());
        // Exactly 4 bytes: empty payload; valid only if the 4 bytes are the
        // CRC of nothing (0).
        let mut empty = Vec::new();
        append_fcs(&mut empty);
        assert_eq!(check_fcs(&empty), Some(&[][..]));
    }
}
