//! PSDU construction: a compact MAC-style header, FCS concatenation, and
//! the PHY DATA-field bit assembly (SERVICE + PSDU + tail + pad) with
//! frame-synchronous scrambling.
//!
//! This is the "concatenation of FEC in the packet construction" half that
//! sits above the codec: every MPDU carries a CRC-32 FCS so the receiver
//! can attribute packet errors exactly, and the DATA field framing follows
//! IEEE 802.11-2012 §18.3.5.2–18.3.5.4.

use mimonet_fec::bits::bytes_to_bits;
use mimonet_fec::crc::{append_fcs, check_fcs};
use mimonet_fec::scrambler::{keystream_words, Scrambler, PERIOD};

use crate::mcs::Mcs;

/// Number of SERVICE bits prepended to the PSDU (all zero before
/// scrambling; the first 7 reveal the scrambler seed to the receiver).
pub const SERVICE_BITS: usize = 16;
/// Number of encoder tail bits.
pub const TAIL_BITS: usize = 6;
/// Length of the MAC-style header in octets.
pub const HEADER_LEN: usize = 18;
/// FCS length in octets.
pub const FCS_LEN: usize = 4;

/// Frame types carried in the header's first octet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameType {
    /// User data.
    Data,
    /// Acknowledgement.
    Ack,
    /// Network beacon / probe.
    Beacon,
}

impl FrameType {
    fn to_code(self) -> u8 {
        match self {
            FrameType::Data => 0x08,
            FrameType::Ack => 0x1D,
            FrameType::Beacon => 0x80,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0x08 => Some(FrameType::Data),
            0x1D => Some(FrameType::Ack),
            0x80 => Some(FrameType::Beacon),
            _ => None,
        }
    }
}

/// Compact MAC header: type, duration, destination, source, sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacHeader {
    /// Frame type.
    pub frame_type: FrameType,
    /// Duration/ID field (microseconds, NAV-style).
    pub duration: u16,
    /// Destination address.
    pub dst: [u8; 6],
    /// Source address.
    pub src: [u8; 6],
    /// Sequence number (12 bits used).
    pub seq: u16,
}

impl MacHeader {
    /// Serializes to [`HEADER_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0] = self.frame_type.to_code();
        out[1] = 0; // flags, unused
        out[2..4].copy_from_slice(&self.duration.to_le_bytes());
        out[4..10].copy_from_slice(&self.dst);
        out[10..16].copy_from_slice(&self.src);
        out[16..18].copy_from_slice(&(self.seq & 0x0FFF).to_le_bytes());
        out
    }

    /// Parses from bytes; `None` on short input or unknown type code.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < HEADER_LEN {
            return None;
        }
        Some(Self {
            frame_type: FrameType::from_code(b[0])?,
            duration: u16::from_le_bytes([b[2], b[3]]),
            dst: b[4..10].try_into().unwrap(),
            src: b[10..16].try_into().unwrap(),
            seq: u16::from_le_bytes([b[16], b[17]]) & 0x0FFF,
        })
    }
}

/// A MAC protocol data unit: header + payload (FCS added on serialization).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mpdu {
    /// The MAC header.
    pub header: MacHeader,
    /// The payload octets.
    pub payload: Vec<u8>,
}

impl Mpdu {
    /// Builds a data MPDU between two addresses.
    pub fn data(src: [u8; 6], dst: [u8; 6], seq: u16, payload: Vec<u8>) -> Self {
        Self {
            header: MacHeader {
                frame_type: FrameType::Data,
                duration: 0,
                dst,
                src,
                seq,
            },
            payload,
        }
    }

    /// Serializes header + payload + FCS — the PSDU handed to the PHY.
    pub fn to_psdu(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + FCS_LEN);
        out.extend_from_slice(&self.header.to_bytes());
        out.extend_from_slice(&self.payload);
        append_fcs(&mut out);
        out
    }

    /// Parses and FCS-checks a received PSDU.
    pub fn from_psdu(psdu: &[u8]) -> Option<Self> {
        let inner = check_fcs(psdu)?;
        let header = MacHeader::from_bytes(inner)?;
        Some(Self {
            header,
            payload: inner[HEADER_LEN..].to_vec(),
        })
    }

    /// PSDU length in octets for this MPDU.
    pub fn psdu_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + FCS_LEN
    }
}

/// Assembles the pre-scrambling DATA-field bit stream for a PSDU:
/// `SERVICE (16 zeros) | PSDU bits | 6 tail zeros | pad zeros`, padded to a
/// whole number of OFDM symbols for `mcs`.
pub fn assemble_data_bits(psdu: &[u8], mcs: &Mcs) -> Vec<u8> {
    let psdu_bits = bytes_to_bits(psdu);
    let pad = mcs.pad_bits(psdu_bits.len());
    let mut bits = Vec::with_capacity(SERVICE_BITS + psdu_bits.len() + TAIL_BITS + pad);
    bits.extend_from_slice(&[0u8; SERVICE_BITS]);
    bits.extend_from_slice(&psdu_bits);
    bits.extend(std::iter::repeat_n(0u8, TAIL_BITS + pad));
    bits
}

/// Scrambles an assembled DATA field and re-zeroes the six tail bits
/// (§18.3.5.3: the tail must be zero *after* scrambling so the encoder
/// terminates).
pub fn scramble_data_bits(bits: &mut [u8], psdu_len_octets: usize, seed: u8) {
    let mut s = Scrambler::new(seed);
    s.scramble_in_place(bits);
    let tail_start = SERVICE_BITS + psdu_len_octets * 8;
    for b in &mut bits[tail_start..tail_start + TAIL_BITS] {
        *b = 0;
    }
}

/// Descrambles a received DATA field (seed recovered from the first seven
/// bits, which descramble the all-zero SERVICE prefix) and extracts the
/// PSDU octets. Returns `None` when the seed is unrecoverable.
pub fn descramble_data_bits(bits: &[u8], psdu_len_octets: usize) -> Option<Vec<u8>> {
    let mut psdu = Vec::new();
    descramble_data_bits_into(bits, psdu_len_octets, &mut psdu).then_some(psdu)
}

/// [`descramble_data_bits`] into a caller-owned vector (cleared first;
/// capacity is reused) — the allocation-free path for the RX FEC stage.
/// Returns `false` (leaving `psdu` empty) when the seed is unrecoverable
/// or the input is too short.
///
/// Works an octet at a time: packs eight decoded bits into a byte and
/// XORs it with the keystream octet at that bit's phase, the low byte of
/// the seed's [`keystream_words`] entry.
pub fn descramble_data_bits_into(bits: &[u8], psdu_len_octets: usize, psdu: &mut Vec<u8>) -> bool {
    psdu.clear();
    let used = SERVICE_BITS + psdu_len_octets * 8;
    if bits.len() < used {
        return false;
    }
    let first7: [u8; 7] = bits[..7].try_into().expect("seven bits");
    let Some(seed) = mimonet_fec::scrambler::recover_seed(&first7) else {
        return false;
    };
    let keystream = keystream_words(seed);
    let mut phase = SERVICE_BITS;
    psdu.extend(bits[SERVICE_BITS..used].chunks_exact(8).map(|eight| {
        // Bit 0 of byte k to bit 56 + k; no two products share a bit.
        let eight: [u8; 8] = eight.try_into().expect("chunks of eight");
        let lsbs = u64::from_le_bytes(eight) & 0x0101_0101_0101_0101;
        let octet = (lsbs.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8;
        let key = keystream[phase] as u8;
        phase += 8;
        if phase >= PERIOD {
            phase -= PERIOD;
        }
        octet ^ key
    }));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(x: u8) -> [u8; 6] {
        [x; 6]
    }

    #[test]
    fn header_roundtrip() {
        let h = MacHeader {
            frame_type: FrameType::Beacon,
            duration: 314,
            dst: addr(0xFF),
            src: addr(0x42),
            seq: 0x0ABC,
        };
        assert_eq!(MacHeader::from_bytes(&h.to_bytes()), Some(h));
    }

    #[test]
    fn header_rejects_garbage() {
        assert_eq!(MacHeader::from_bytes(&[0u8; 17]), None);
        let mut b = [0u8; 18];
        b[0] = 0x77; // unknown type code
        assert_eq!(MacHeader::from_bytes(&b), None);
    }

    #[test]
    fn seq_is_twelve_bits() {
        let h = MacHeader {
            frame_type: FrameType::Data,
            duration: 0,
            dst: addr(1),
            src: addr(2),
            seq: 0xFFFF,
        };
        assert_eq!(MacHeader::from_bytes(&h.to_bytes()).unwrap().seq, 0x0FFF);
    }

    #[test]
    fn mpdu_psdu_roundtrip() {
        let m = Mpdu::data(addr(1), addr(2), 7, b"the quick brown fox".to_vec());
        let psdu = m.to_psdu();
        assert_eq!(psdu.len(), m.psdu_len());
        assert_eq!(Mpdu::from_psdu(&psdu), Some(m));
    }

    #[test]
    fn corrupted_psdu_fails_fcs() {
        let m = Mpdu::data(addr(1), addr(2), 7, vec![0xAA; 64]);
        let mut psdu = m.to_psdu();
        psdu[20] ^= 0x10;
        assert_eq!(Mpdu::from_psdu(&psdu), None);
    }

    #[test]
    fn data_bits_assembly_length() {
        let mcs = Mcs::from_index(8).unwrap(); // 52 data bits/symbol
        let psdu = vec![0x5Au8; 25]; // 200 bits
        let bits = assemble_data_bits(&psdu, &mcs);
        // 16 + 200 + 6 = 222 → 5 symbols of 52 = 260 bits.
        assert_eq!(bits.len(), 260);
        assert_eq!(&bits[..16], &[0u8; 16]);
        // Tail + pad are zero.
        assert!(bits[216..].iter().all(|&b| b == 0));
    }

    #[test]
    fn scramble_descramble_recovers_psdu() {
        let mcs = Mcs::from_index(3).unwrap();
        let psdu: Vec<u8> = (0..100u8).collect();
        let mut bits = assemble_data_bits(&psdu, &mcs);
        scramble_data_bits(&mut bits, psdu.len(), 0x35);
        // Tail bits must be zero after scrambling.
        let tail_start = SERVICE_BITS + psdu.len() * 8;
        assert!(bits[tail_start..tail_start + TAIL_BITS]
            .iter()
            .all(|&b| b == 0));
        let got = descramble_data_bits(&bits, psdu.len()).unwrap();
        assert_eq!(got, psdu);
    }

    #[test]
    fn every_seed_is_recoverable() {
        let mcs = Mcs::from_index(0).unwrap();
        let psdu = vec![0u8; 10];
        for seed in 1..0x80u8 {
            let mut bits = assemble_data_bits(&psdu, &mcs);
            scramble_data_bits(&mut bits, psdu.len(), seed);
            assert_eq!(
                descramble_data_bits(&bits, psdu.len()),
                Some(psdu.clone()),
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn descramble_rejects_short_input() {
        assert_eq!(descramble_data_bits(&[0u8; 10], 10), None);
    }

    /// The descrambler against the per-bit form: recover the seed, run
    /// [`Scrambler::scramble_in_place`] over the prefix and pack each
    /// octet bit by bit.
    fn descramble_oracle(bits: &[u8], psdu_len: usize) -> Option<Vec<u8>> {
        let used = SERVICE_BITS + psdu_len * 8;
        if bits.len() < used {
            return None;
        }
        let seed = mimonet_fec::scrambler::recover_seed(&bits[..7].try_into().unwrap())?;
        let mut prefix = bits[..used].to_vec();
        Scrambler::new(seed).scramble_in_place(&mut prefix);
        let octets = prefix[SERVICE_BITS..].chunks_exact(8);
        Some(
            octets
                .map(|c| (0..8).fold(0u8, |b, k| b | c[k] << k))
                .collect(),
        )
    }

    /// Every seed, every PSDU length 0–300 plus 1500 and 4095 B, on
    /// scrambled frames followed by stray decoded bits and on random
    /// decoded streams; one bit short and an all-zero seed prefix are
    /// refused.
    #[test]
    fn descramble_matches_the_per_bit_oracle() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand_bit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8 & 1
        };
        let lens = (0..=300).chain([1500, 4095]);
        for len in lens {
            let psdu: Vec<u8> = (0..len).map(|i| (i * 73 + len) as u8).collect();
            for seed in 1..0x80u8 {
                let mut bits = vec![0u8; SERVICE_BITS];
                bits.extend(psdu.iter().flat_map(|&b| (0..8).map(move |k| (b >> k) & 1)));
                Scrambler::new(seed).scramble_in_place(&mut bits);
                let stray = (seed % 9) as usize;
                bits.extend((0..stray).map(|_| rand_bit()));
                assert_eq!(descramble_data_bits(&bits, len), Some(psdu.clone()));
                assert_eq!(
                    descramble_data_bits(&bits, len),
                    descramble_oracle(&bits, len),
                    "{len} B seed {seed:#x}"
                );
                let used = SERVICE_BITS + len * 8;
                assert_eq!(descramble_data_bits(&bits[..used - 1], len), None);

                let noise: Vec<u8> = (0..used + stray).map(|_| rand_bit()).collect();
                assert_eq!(
                    descramble_data_bits(&noise, len),
                    descramble_oracle(&noise, len),
                    "{len} B random stream {seed:#x}"
                );
            }
            let mut zero_seed = vec![0u8; 7];
            zero_seed.extend((7..SERVICE_BITS + len * 8).map(|_| rand_bit()));
            assert_eq!(descramble_data_bits(&zero_seed, len), None, "{len} B");
        }
    }

    #[test]
    fn descramble_into_matches_and_reuses() {
        let mcs = Mcs::from_index(3).unwrap();
        let mut psdu = Vec::new();
        for seed in [0x11u8, 0x35, 0x7F] {
            let want: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(seed)).collect();
            let mut bits = assemble_data_bits(&want, &mcs);
            scramble_data_bits(&mut bits, want.len(), seed);
            assert!(descramble_data_bits_into(&bits, want.len(), &mut psdu));
            assert_eq!(psdu, want, "seed {seed:#x}");
            assert_eq!(descramble_data_bits(&bits, want.len()), Some(want));
        }
        // Short input clears the output and reports failure.
        assert!(!descramble_data_bits_into(&[0u8; 10], 10, &mut psdu));
        assert!(psdu.is_empty());
    }
}
