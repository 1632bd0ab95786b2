//! Property-based tests of the FEC pipeline: every stage must be exactly
//! invertible on a clean channel, for arbitrary data and all code rates,
//! and the Viterbi decoder must match its oracle, the forward scatter in
//! `mimonet_oracle::viterbi`, on any stream, hostile ones included.

use mimonet_fec::bits::{bits_to_bytes, bytes_to_bits};
use mimonet_fec::conv::encode_terminated;
use mimonet_fec::crc::{append_fcs, check_fcs};
use mimonet_fec::interleaver::Interleaver;
use mimonet_fec::puncture::{
    depuncture_hard, depuncture_soft, depuncture_soft_into, puncture, CodeRate,
};
use mimonet_fec::scrambler::Scrambler;
use mimonet_fec::viterbi::{
    decode_hard, decode_hard_unterminated, decode_soft, Symbol, ViterbiDecoder,
};
use mimonet_fec::ConvEncoder;
use mimonet_oracle::viterbi;
use proptest::prelude::*;
use std::cell::RefCell;

fn bits(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, len)
}

fn rate() -> impl Strategy<Value = CodeRate> {
    prop_oneof![
        Just(CodeRate::R1_2),
        Just(CodeRate::R2_3),
        Just(CodeRate::R3_4),
        Just(CodeRate::R5_6),
    ]
}

proptest! {
    #[test]
    fn bytes_bits_roundtrip(data in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn scrambler_is_an_involution(data in bits(0..512), seed in 1u8..0x80) {
        let mut s1 = Scrambler::new(seed);
        let scrambled = s1.scramble(&data);
        let mut s2 = Scrambler::new(seed);
        prop_assert_eq!(s2.scramble(&scrambled), data);
    }

    #[test]
    fn scrambler_outputs_stay_binary(data in bits(0..256), seed in 1u8..0x80) {
        let mut s = Scrambler::new(seed);
        for b in s.scramble(&data) {
            prop_assert!(b <= 1);
        }
    }

    #[test]
    fn crc_roundtrip_and_tamper_detection(
        mut data in prop::collection::vec(any::<u8>(), 1..128),
        flip_byte in 0usize..128,
        flip_bit in 0u8..8,
    ) {
        let original = data.clone();
        append_fcs(&mut data);
        prop_assert_eq!(check_fcs(&data), Some(original.as_slice()));
        let idx = flip_byte % data.len();
        data[idx] ^= 1 << flip_bit;
        prop_assert_eq!(check_fcs(&data), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn viterbi_inverts_encoder_terminated(data in bits(0..300)) {
        let coded = encode_terminated(&data);
        let symbols: Vec<Symbol> = coded.iter().map(|&b| Symbol::Bit(b)).collect();
        prop_assert_eq!(decode_hard(&symbols).unwrap(), data);
    }

    #[test]
    fn viterbi_inverts_encoder_unterminated(data in bits(20..300)) {
        let coded = ConvEncoder::new().encode(&data);
        let symbols: Vec<Symbol> = coded.iter().map(|&b| Symbol::Bit(b)).collect();
        prop_assert_eq!(decode_hard_unterminated(&symbols).unwrap(), data);
    }

    #[test]
    fn soft_viterbi_with_any_positive_confidence(data in bits(0..150), conf in 0.1..20.0f64) {
        let coded = encode_terminated(&data);
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { conf } else { -conf }).collect();
        prop_assert_eq!(decode_soft(&llrs).unwrap(), data);
    }

    #[test]
    fn viterbi_corrects_two_errors_anywhere(
        data in bits(30..120),
        p1 in 0usize..1000,
        p2 in 0usize..1000,
    ) {
        let mut coded = encode_terminated(&data);
        let n = coded.len();
        coded[p1 % n] ^= 1;
        coded[p2 % n] ^= 1;
        let symbols: Vec<Symbol> = coded.iter().map(|&b| Symbol::Bit(b)).collect();
        // d_free = 10 ⇒ any 2 errors always correctable.
        prop_assert_eq!(decode_hard(&symbols).unwrap(), data);
    }

    #[test]
    fn puncture_depuncture_positions_are_consistent(
        data in bits(1..200),
        r in rate(),
        cut in 0usize..10,
        llrs in prop::collection::vec(prop_oneof![-8.0..8.0f64, hostile_llr()], 410),
        stale in prop::collection::vec(prop_oneof![-8.0..8.0f64, hostile_llr()], 0..600),
    ) {
        let coded = encode_terminated(&data);
        let tx = puncture(&coded, r);
        prop_assert_eq!(tx.len(), r.coded_len(coded.len()));
        let rx = depuncture_hard(&tx, r, coded.len());
        prop_assert_eq!(rx.len(), coded.len());
        // Every non-erased symbol matches the original coded bit.
        for (i, s) in rx.iter().enumerate() {
            if let Symbol::Bit(b) = s {
                prop_assert_eq!(*b, coded[i]);
            }
        }
        // Erasure count matches the rate arithmetic.
        let erased = rx.iter().filter(|s| matches!(s, Symbol::Erased)).count();
        prop_assert_eq!(erased, coded.len() - tx.len());

        // Soft depuncturing of a mother length that may end mid-period,
        // into a reused vector of stale values: the hard stream's kept
        // positions carry the LLRs in order with their bits (−0.0 and NaN
        // included), and its erasures are +0.0.
        let mother_len = coded.len() - cut;
        let llrs = &llrs[..r.coded_len(mother_len)];
        let mut out = stale;
        depuncture_soft_into(llrs, r, mother_len, &mut out);
        prop_assert_eq!(out.len(), mother_len);
        let mut kept = llrs.iter();
        for (i, (x, s)) in out.iter().zip(&rx).enumerate() {
            let want = match s {
                Symbol::Bit(_) => *kept.next().expect("one LLR per kept position"),
                Symbol::Erased => 0.0,
            };
            prop_assert_eq!(x.to_bits(), want.to_bits(), "position {}", i);
        }
        prop_assert_eq!(kept.len(), 0);
    }

    #[test]
    fn punctured_roundtrip_all_rates(data in bits(1..200), r in rate()) {
        let coded = encode_terminated(&data);
        let tx = puncture(&coded, r);
        let llrs: Vec<f64> = tx.iter().map(|&b| if b == 0 { 2.0 } else { -2.0 }).collect();
        let rx = depuncture_soft(&llrs, r, coded.len());
        let decoded = mimonet_fec::viterbi::decode_soft(&rx).unwrap();
        prop_assert_eq!(decoded, data);
    }
}

/// LLRs that break ordinary arithmetic: signed zeros, infinities, NaN,
/// the largest finite values (metrics overflow within two steps) and
/// subnormals.
fn hostile_llr() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(f64::MAX),
        Just(-f64::MAX),
        Just(5e-324),
        Just(-5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
    ]
}

/// An LLR stream of length 0..600, odd and shorter than a terminated
/// block included. Values are finite in [-8, 8] or half-integers (exact
/// metric ties), with a per-stream share of hostile values (none, 1 in
/// 64, 1 in 8 or 1 in 2). Some coded pairs have equal magnitudes,
/// `b = ±a`, so one of the branch rewards `a0 ± b0` is an exact zero.
fn llr_stream() -> impl Strategy<Value = Vec<f64>> {
    (0usize..600, 0usize..4).prop_flat_map(|(len, share)| {
        let cut = [0u32, 1, 8, 32][share];
        let llr = (
            0u32..64,
            -8.0..8.0f64,
            -16i32..17,
            any::<bool>(),
            hostile_llr(),
        )
            .prop_map(move |(roll, x, k, half, hostile)| {
                if roll < cut {
                    hostile
                } else if half {
                    k as f64 * 0.5
                } else {
                    x
                }
            });
        // 0: independent, 1: b = a, 2: b = -a (applied to odd positions).
        prop::collection::vec((llr, 0u8..3), len).prop_map(|draws| {
            let mut llrs: Vec<f64> = draws.iter().map(|&(x, _)| x).collect();
            for i in (1..llrs.len()).step_by(2) {
                match draws[i].1 {
                    1 => llrs[i] = llrs[i - 1],
                    2 => llrs[i] = -llrs[i - 1],
                    _ => {}
                }
            }
            llrs
        })
    })
}

/// A hard stream of length 0..600: `Bit(0)`, `Bit(1)`, `Erased` and
/// out-of-range `Bit(b ≥ 2)`.
fn symbol_stream() -> impl Strategy<Value = Vec<Symbol>> {
    let symbol = prop_oneof![
        Just(Symbol::Bit(0)),
        Just(Symbol::Bit(0)),
        Just(Symbol::Bit(1)),
        Just(Symbol::Bit(1)),
        Just(Symbol::Erased),
        (2u16..256).prop_map(|b| Symbol::Bit(b as u8)),
    ];
    prop::collection::vec(symbol, 0..600)
}

thread_local! {
    /// One decoder for every case of a property, so its grow-only
    /// survivor buffer sees blocks that shrink and grow.
    static DECODER: RefCell<(ViterbiDecoder, Vec<u8>)> =
        RefCell::new((ViterbiDecoder::new(), Vec::new()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn soft_decoder_matches_reference(llrs in llr_stream()) {
        DECODER.with(|d| {
            let (dec, out) = &mut *d.borrow_mut();
            let got = dec.decode_soft_into(&llrs, out).map(|()| out.clone());
            prop_assert_eq!(got, viterbi::decode_soft(&llrs), "terminated, {:?}", llrs);
            let got = dec.decode_soft_unterminated_into(&llrs, out).map(|()| out.clone());
            prop_assert_eq!(
                got,
                viterbi::decode_soft_unterminated(&llrs),
                "unterminated, {:?}",
                llrs
            );
            Ok(())
        })?;
    }

    #[test]
    fn hard_decoder_matches_reference(syms in symbol_stream()) {
        DECODER.with(|d| {
            let (dec, out) = &mut *d.borrow_mut();
            let got = dec.decode_hard_into(&syms, out).map(|()| out.clone());
            prop_assert_eq!(got, viterbi::decode_hard(&syms), "terminated, {:?}", syms);
            let got = dec.decode_hard_unterminated_into(&syms, out).map(|()| out.clone());
            prop_assert_eq!(
                got,
                viterbi::decode_hard_unterminated(&syms),
                "unterminated, {:?}",
                syms
            );
            Ok(())
        })?;
    }
}

fn interleaver_geometry() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    // (n_bpsc, n_col = 13 HT, stream, n_streams)
    (
        prop_oneof![Just(1usize), Just(2), Just(4), Just(6)],
        Just(13usize),
        0usize..2,
        1usize..3,
    )
        .prop_filter("stream < n_streams", |(_, _, s, n)| s < n)
}

proptest! {
    #[test]
    fn interleaver_roundtrip((n_bpsc, n_col, stream, n_streams) in interleaver_geometry(),
                             seed in any::<u64>()) {
        let n_cbpss = 52 * n_bpsc;
        let il = Interleaver::new(n_cbpss, n_bpsc, n_col, stream, n_streams);
        let mut x = seed | 1;
        let data: Vec<u8> = (0..n_cbpss).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 1) as u8
        }).collect();
        prop_assert_eq!(il.deinterleave(&il.interleave(&data)), data);
    }

    #[test]
    fn interleaving_preserves_bit_population((n_bpsc, n_col, stream, n_streams) in interleaver_geometry()) {
        let n_cbpss = 52 * n_bpsc;
        let il = Interleaver::new(n_cbpss, n_bpsc, n_col, stream, n_streams);
        let data: Vec<u8> = (0..n_cbpss).map(|i| (i % 2) as u8).collect();
        let out = il.interleave(&data);
        let ones_in: usize = data.iter().map(|&b| b as usize).sum();
        let ones_out: usize = out.iter().map(|&b| b as usize).sum();
        prop_assert_eq!(ones_in, ones_out);
    }
}
