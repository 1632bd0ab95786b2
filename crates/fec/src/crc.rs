//! CRC-32 (IEEE 802.3 / 802.11 FCS).
//!
//! The MIMONet packet format appends this FCS to every PSDU so the receiver
//! can count packet errors (PER) exactly as the paper's instrumentation
//! does. Parameters: polynomial 0x04C11DB7 (reflected 0xEDB88320), init
//! 0xFFFFFFFF, reflected input/output, final XOR 0xFFFFFFFF.
//!
//! [`Crc32::update`] has two forms with the same values. On x86-64 CPUs
//! with PCLMULQDQ (picked at run time), inputs of 64 bytes or more fold
//! 16 bytes at a time by carry-less multiplication; short inputs, the
//! last few bytes of long ones and every other CPU take the
//! slicing-by-8 loop.

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

    /// Absorbs bytes: 16 per fold where the CPU has PCLMULQDQ and 64 or
    /// more arrive at once, else eight per step (slicing-by-8), the tail
    /// one at a time.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let data = clmul::fold(&mut self.state, data);
        self.state = update_sliced(self.state, data);
    }

    /// Finalizes and returns the CRC value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Runs the register `crc` over `data` eight bytes per step
/// (slicing-by-8), the tail one at a time.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// The folding form (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009), bit-reflected.
/// Four 128-bit accumulators each fold in every fourth 16-byte block;
/// they then fold into one, which takes the remaining whole blocks, and
/// a Barrett reduction brings the 128-bit remainder back to the 32-bit
/// register. Carry-less products of the same polynomials give the same
/// remainder as the tables, so every value is unchanged.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Folding keys: `x^n mod P(x)`, bit-reflected and shifted up one bit,
    // for the distance each fold spans.
    /// n = 4·128 + 32: the low half of a four-block fold.
    const K1: i64 = 0x1_5444_2BD4;
    /// n = 4·128 − 32: the high half of a four-block fold.
    const K2: i64 = 0x1_C6E4_1596;
    /// n = 128 + 32: the low half of a one-block fold.
    const K3: i64 = 0x1_7519_97D0;
    /// n = 128 − 32: the high half of a one-block fold, and 128 → 96 bits.
    const K4: i64 = 0x0_CCAA_009E;
    /// n = 64: 96 → 64 bits.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x), bit-reflected over its 33 coefficients.
    const P: i64 = 0x1_DB71_0641;
    /// ⌊x^64 / P(x)⌋, bit-reflected over its 33 coefficients.
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU runs the folding form.
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("pclmulqdq")
    }

    /// Folds the whole 16-byte blocks of `data` into the register `crc`
    /// if `data` holds at least 64 bytes and the CPU has PCLMULQDQ, and
    /// returns the bytes left for the sliced loop: the last `len % 16`,
    /// or all of `data` when nothing was folded.
    pub(super) fn fold<'a>(crc: &mut u32, data: &'a [u8]) -> &'a [u8] {
        if data.len() < 64 || !detected() {
            return data;
        }
        let (blocks, tail) = data.split_at(data.len() / 16 * 16);
        // SAFETY: the CPU has PCLMULQDQ, checked just above.
        *crc = unsafe { fold_blocks(*crc, blocks) };
        tail
    }

    /// The register after `blocks`, a whole number (at least four) of
    /// 16-byte blocks. Code without PCLMULQDQ enabled may call it only
    /// after checking that the CPU has it, as [`fold`] does.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_blocks(crc: u32, blocks: &[u8]) -> u32 {
        let (first, rest) = blocks.split_at(64);
        let mut x = [0, 16, 32, 48].map(|at| load(&first[at..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut fours = rest.chunks_exact(64);
        for four in &mut fours {
            for (acc, at) in x.iter_mut().zip([0, 16, 32, 48]) {
                *acc = fold_into(*acc, load(&four[at..]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], x[1], k3k4);
        acc = fold_into(acc, x[2], k3k4);
        acc = fold_into(acc, x[3], k3k4);
        for block in fours.remainder().chunks_exact(16) {
            acc = fold_into(acc, load(block), k3k4);
        }
        reduce(acc, k3k4)
    }

    /// The first 16 bytes of `b` as one register.
    fn load(b: &[u8]) -> __m128i {
        let b = &b[..16];
        // SAFETY: `b` is 16 readable bytes (the slice above checks it);
        // the load needs no alignment.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `a` carried forward onto `b` across the distance of `keys`: its
    /// low half times the low key plus its high half times the high key.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The 32-bit register for the 128-bit remainder `x`: folded to 96
    /// and then 64 bits, then reduced mod P(x) by Barrett's method.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 → 96 bits: the low 64 times K4, plus the high 64.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        // 96 → 64 bits: the low 32 times K5, plus the high 64.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // T1 = (x mod x^32)·µ, T2 = (T1 mod x^32)·P; reflected, the
        // register is bits 32..64 of x ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
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

    /// The folding form and the sliced loop on the same inputs: every
    /// length 0–1,100 at every start offset 0–15 from two registers, one
    /// 2 MiB buffer, and three-way splits through [`Crc32::update`].
    /// Skips the folding form, with a note, on CPUs without PCLMULQDQ.
    #[test]
    fn pclmulqdq_form_matches_the_sliced_form() {
        #[cfg(target_arch = "x86_64")]
        {
            if !clmul::detected() {
                println!("crc forms: this CPU lacks PCLMULQDQ; the folding form was not run");
                return;
            }
            // What `update` runs: the fold, then the sliced loop on the tail.
            let folded = |mut crc: u32, data: &[u8]| {
                let tail = clmul::fold(&mut crc, data);
                update_sliced(crc, tail)
            };
            let (mut inputs, mut bytes) = (0, 0);
            let data = random_bytes(1_100 + 15, 0xF01D);
            for offset in 0..16 {
                for len in 0..=1_100 {
                    let d = &data[offset..offset + len];
                    for crc in [!0, 0x0BAD_CAFE] {
                        let want = update_sliced(crc, d);
                        assert_eq!(folded(crc, d), want, "offset {offset}, len {len}");
                    }
                    inputs += 2;
                    bytes += 2 * len;
                }
            }
            let big = random_bytes(2 << 20, 0xB16);
            assert_eq!(folded(!0, &big), update_sliced(!0, &big), "2 MiB");
            assert_eq!(crc32(&big), crc32_bitwise(&big), "2 MiB, bitwise");
            inputs += 1;
            bytes += big.len();
            let want = update_sliced(!0, &data) ^ !0;
            for a in (0..=data.len()).step_by(5) {
                for b in [a, a + 1, a + 15, a + 63, a + 64, a + 65, a + 300, a + 1_000] {
                    let b = b.min(data.len());
                    let mut c = Crc32::new();
                    c.update(&data[..a]);
                    c.update(&data[a..b]);
                    c.update(&data[b..]);
                    assert_eq!(c.finalize(), want, "splits at {a}, {b}");
                    inputs += 1;
                    bytes += data.len();
                }
            }
            println!(
                "crc forms: pclmulqdq crc compared with the sliced form \
                 on {inputs} inputs, {bytes} bytes"
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("crc forms: not x86-64; only the sliced form exists");
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
