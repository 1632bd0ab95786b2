//! Pins the generation half's sample bits.
//!
//! The goldens in `results/golden/` pin decoded bytes and PER. A
//! sign-of-zero or one-ulp change in the transmitter or the channel
//! simulator can leave those unchanged, so these tests hash the raw
//! `f64::to_bits` of every generated sample (FNV-1a, 64-bit):
//!
//! * `Transmitter::transmit` for MCS 0–31, five PSDU sizes and two
//!   scrambler seeds;
//! * consecutive `ChannelSim::apply` bursts for every fading model, three
//!   timing offsets and each receiver impairment off and on, with and
//!   without noise, plus one burst carrying non-finite samples;
//! * `build_link_capture`'s received streams and PSDUs;
//! * over a million `ChaCha8Rng` words from three seeds.
//!
//! A digest that moves means some sample's bits moved. NaN payloads are
//! folded to one value, so the pins do not depend on which NaN a CPU
//! produces for `0 · inf`.

use mimonet::config::TxConfig;
use mimonet::tx::Transmitter;
use mimonet_channel::{ChannelConfig, ChannelSim, Fading, TgnModel};
use mimonet_dsp::complex::Complex64;
use mimonet_io::session::build_link_capture;
use mimonet_io::wire::SessionConfig;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn real(&mut self, x: f64) {
        self.word(if x.is_nan() {
            0x7ff8_0000_0000_0000
        } else {
            x.to_bits()
        });
    }

    fn samples(&mut self, xs: &[Complex64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.real(x.re);
            self.real(x.im);
        }
    }

    fn streams(&mut self, streams: &[Vec<Complex64>]) {
        self.word(streams.len() as u64);
        for s in streams {
            self.samples(s);
        }
    }
}

/// Asserts `got == want`, printing the whole table when they differ so a
/// deliberate change can be re-pinned in one step.
fn check(name: &str, got: &[u64], want: &[u64]) {
    if got != want {
        let rows: Vec<String> = got.iter().map(|d| format!("    {d:#018x},")).collect();
        panic!("{name} digests moved; got:\n{}", rows.join("\n"));
    }
}

/// Deterministic PSDU bytes covering every byte value.
fn psdu(len: usize, salt: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B5 ^ salt);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

const TX_SIZES: [usize; 5] = [1, 40, 500, 1500, 4095];
const TX_SEEDS: [u8; 2] = [0x5D, 0x01];

const TX_DIGESTS: [u64; 32] = [
    0x59c56d298a2204a3,
    0xd59c00d12ddd6fba,
    0x9ea152c1aff58c01,
    0xaf85db3ec96a98f3,
    0xeccf7d9bb7c110ab,
    0x005219e47b2a2e33,
    0x181a56d465cbe787,
    0xaff3846c49882f9d,
    0x1ba7061c0bee5b10,
    0xf22ff2c32ed217fa,
    0xe69236161c27de75,
    0x93fa5741cef4f902,
    0x61a56ebf344a68e5,
    0x51b3cc41d3ca2501,
    0x6cf0676bb1140415,
    0x22f9dc93d1ce7644,
    0x924cb5329814ce80,
    0xfacb2e11f4cc8a15,
    0xca1e30efe51e2bab,
    0x8a07861aa7df7914,
    0x292cad36b5988c69,
    0xd6ddd1d4badfc5f6,
    0x818f37bfc1b3c9b7,
    0x27e935d8b34634a8,
    0xf83dc5849fd309fb,
    0x734756af0a2b4688,
    0x22decaa665b9aa19,
    0xa09d9b8de9e2a079,
    0xcf8de099b721b33d,
    0xadd9b7fc3a472557,
    0x39b5f561a9503f8a,
    0x25830abfdf686056,
];

#[test]
fn transmitter_waveforms_are_pinned() {
    let got: Vec<u64> = (0..32u8)
        .map(|mcs| {
            let mut h = Fnv::new();
            for seed in TX_SEEDS {
                let mut cfg = TxConfig::new(mcs).unwrap();
                cfg.scrambler_seed = seed;
                let tx = Transmitter::new(cfg);
                for len in TX_SIZES {
                    let streams = tx.transmit(&psdu(len, u64::from(mcs))).unwrap();
                    h.streams(&streams);
                }
            }
            h.0
        })
        .collect();
    check("transmitter", &got, &TX_DIGESTS);
}

/// A two-antenna test burst: a tone pair with explicit ±0 samples at the
/// edges, the values the identity channel's sign-of-zero handling sees.
fn channel_input(n_tx: usize, len: usize) -> Vec<Vec<Complex64>> {
    (0..n_tx)
        .map(|a| {
            (0..len)
                .map(|i| match i % 97 {
                    0 => Complex64::new(-0.0, 0.0),
                    1 => Complex64::new(0.0, -0.0),
                    2 => Complex64::new(-0.0, -0.0),
                    3 => Complex64::ZERO,
                    _ => Complex64::cis(0.05 * (a + 1) as f64 * i as f64).scale(0.7),
                })
                .collect()
        })
        .collect()
}

/// Receiver impairment sets: none, each alone, then all together.
fn impairments(cfg: &mut ChannelConfig, which: usize) {
    let all = which == 6;
    if which == 1 || all {
        cfg.cfo_norm = 0.13;
    }
    if which == 2 || all {
        cfg.sfo_ppm = 40.0;
    }
    if which == 3 || all {
        cfg.iq_epsilon = 0.05;
        cfg.iq_phi = 0.02;
    }
    if which == 4 || all {
        cfg.dc_offset = Complex64::new(0.01, -0.02);
    }
    if which == 5 || all {
        cfg.adc_bits = Some(10);
    }
}

const CHANNEL_DIGESTS: [u64; 5] = [
    0x52399823844e8e17,
    0x7a429e5e35dac5d5,
    0xe4f32a22f5b69c09,
    0x2b6edef11c46c900,
    0x480734e63224646c,
];

#[test]
fn channel_bursts_are_pinned() {
    let fadings = [
        Fading::Ideal,
        Fading::RayleighFlat,
        Fading::Tgn(TgnModel::B),
        Fading::Tgn(TgnModel::D),
        Fading::Jakes { fd_norm: 2e-4 },
    ];
    let mut got = Vec::new();
    for (f, &fading) in fadings.iter().enumerate() {
        let mut h = Fnv::new();
        for timing_offset in [0.0, 7.0, 2.5] {
            for which in 0..7 {
                for snr_db in [20.0, f64::INFINITY] {
                    let mut cfg = ChannelConfig::awgn(2, 2, snr_db);
                    cfg.fading = fading;
                    cfg.timing_offset = timing_offset;
                    impairments(&mut cfg, which);
                    let mut sim = ChannelSim::new(cfg, 1000 + f as u64);
                    let tx = channel_input(2, 260);
                    for _ in 0..3 {
                        let (rx, truth) = sim.apply(&tx);
                        h.streams(&rx);
                        h.real(truth.noise_power);
                    }
                }
            }
        }
        if matches!(fading, Fading::Ideal) {
            // Non-finite samples on either antenna: 0 · inf is NaN, so the
            // identity product spreads them across receive antennas.
            let mut tx = channel_input(2, 40);
            tx[0][5] = Complex64::new(f64::INFINITY, 1.0);
            tx[1][9] = Complex64::new(0.5, f64::NEG_INFINITY);
            tx[1][12] = Complex64::new(f64::NAN, 0.0);
            for snr_db in [20.0, f64::INFINITY] {
                let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, snr_db), 77);
                for _ in 0..3 {
                    h.streams(&sim.apply(&tx).0);
                }
            }
        }
        // One single-antenna and one 1x2 run per model (Ideal needs a
        // square channel).
        let shapes: &[(usize, usize)] = if matches!(fading, Fading::Ideal) {
            &[(1, 1), (3, 3)]
        } else {
            &[(1, 1), (1, 2)]
        };
        for &(n_tx, n_rx) in shapes {
            let mut cfg = ChannelConfig::awgn(n_tx, n_rx, 15.0);
            cfg.fading = fading;
            let mut sim = ChannelSim::new(cfg, 3000 + f as u64);
            let tx = channel_input(n_tx, 200);
            for _ in 0..3 {
                h.streams(&sim.apply(&tx).0);
            }
        }
        got.push(h.0);
    }
    check("channel", &got, &CHANNEL_DIGESTS);
}

const CAPTURE_DIGESTS: [u64; 2] = [0x976a15a25def0108, 0x24efd9e69bb93eeb];

#[test]
fn link_captures_are_pinned() {
    let configs = [
        SessionConfig {
            mcs: 15,
            payload_len: 1500,
            n_frames: 2,
            snr_db: 34.0,
            seed: 4242,
            ..SessionConfig::default()
        },
        SessionConfig {
            mcs: 3,
            payload_len: 200,
            n_frames: 3,
            snr_db: 12.0,
            seed: 7,
            ..SessionConfig::default()
        },
    ];
    let got: Vec<u64> = configs
        .iter()
        .map(|cfg| {
            let (rx, psdus) = build_link_capture(cfg).unwrap();
            let mut h = Fnv::new();
            h.streams(&rx);
            for p in &psdus {
                h.word(p.len() as u64);
                for &b in p {
                    h.word(u64::from(b));
                }
            }
            h.0
        })
        .collect();
    check("link capture", &got, &CAPTURE_DIGESTS);
}

const KEYSTREAM_DIGESTS: [u64; 3] = [0x2feba45834dff23c, 0x4837bac6fae56a5e, 0xc3969406300f73a8];

#[test]
fn chacha_keystream_is_pinned() {
    let got: Vec<u64> = [0u64, 1, 0xDEAD_BEEF]
        .iter()
        .map(|&seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut h = Fnv::new();
            // 350,000 words per seed, mixing 32- and 64-bit reads so both
            // alignments within a block are covered; a clone taken
            // mid-block must continue the same stream.
            for i in 0..100_000u32 {
                h.word(u64::from(rng.next_u32()));
                if i % 3 == 0 {
                    h.word(rng.next_u64());
                }
            }
            let mut twin = rng.clone();
            for _ in 0..100_000 {
                let w = rng.next_u64();
                assert_eq!(w, twin.next_u64(), "clone diverged");
                h.word(w);
            }
            h.0
        })
        .collect();
    check("keystream", &got, &KEYSTREAM_DIGESTS);
}
