//! One conformance digest over 2,160 receiver configurations.
//!
//! The grid is 5 channel presets × MCS {0, 3, 7, 8, 9, 11, 12, 13, 15} ×
//! {37, 200, 500, 1500} B × {4, 12, 20, 34} dB × CFO {0, 0.137, −0.31}
//! subcarrier spacings. SFO (40 ppm), fractional timing offsets, ZF and
//! ML detection, pilot tracking off, channel smoothing, hard decoding,
//! the Van de Beek timing fallback and the scrambler seed are mixed in by
//! config index. Each config is a three-frame capture: scanned, then
//! passed once to `receive`. The digest (64-bit FNV-1a) takes every
//! `RxFrame` field (`to_bits` on the `f64`s), each scan's frame offsets
//! and `ScanStats`, and every error; each preset keeps its own digest, so
//! a failure points at a channel.
//!
//! A debug build runs every 71st config (the subset digests); a release
//! build runs the whole grid and checks both tables. Like every golden,
//! the digests depend on the host's glibc `libm` (`sincos`, `ln`, `cos`),
//! whose results the channel simulator and the receiver's phase
//! corrections carry into every sample.

use mimonet::burst::{self, BurstScratch};
use mimonet::config::TxConfig;
use mimonet::tx::Transmitter;
use mimonet::{Receiver, RxConfig, RxError, RxFrame, ScanStats};
use mimonet_channel::presets;
use mimonet_channel::ChannelSim;
use mimonet_detect::DetectorKind;
use mimonet_dsp::complex::Complex64;

const PRESETS: [&str; 5] = ["awgn", "rayleigh", "tgn_b", "tgn_d", "jakes_pedestrian"];
const MCS: [u8; 9] = [0, 3, 7, 8, 9, 11, 12, 13, 15];
const SIZES: [usize; 4] = [37, 200, 500, 1500];
const SNRS_DB: [f64; 4] = [4.0, 12.0, 20.0, 34.0];
const CFOS: [f64; 3] = [0.0, 0.137, -0.31];
/// Configs per preset.
const PER_PRESET: usize = MCS.len() * SIZES.len() * SNRS_DB.len() * CFOS.len();
/// The debug subset takes every `SUBSET_STRIDE`-th config; the stride is
/// prime, so the subset walks every value of each grid axis.
const SUBSET_STRIDE: usize = 71;

/// Per-preset digests of the whole grid.
const FULL: [u64; 5] = [
    0x90050ab9f98e1931,
    0xf74e88d1dfdcdf0a,
    0x7559d740e7ca7773,
    0x09f88608378947a7,
    0x7e99ec7599a3e713,
];
/// Per-preset digests of the debug subset.
const SUBSET: [u64; 5] = [
    0x599ed9988948fc9a,
    0xf4def6cd4ffdb484,
    0xefb53c989d2be084,
    0xaf596ebf6d5afa99,
    0xf26540a24bfd9012,
];

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

    fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.word(u64::from(b));
        }
    }

    /// NaN payloads fold to one value, so a digest does not depend on
    /// which NaN a CPU produces.
    fn real(&mut self, x: f64) {
        self.word(if x.is_nan() {
            0x7ff8_0000_0000_0000
        } else {
            x.to_bits()
        });
    }

    fn frame(&mut self, f: &RxFrame) {
        self.bytes(&f.psdu);
        self.word(u64::from(f.mcs));
        self.real(f.snr_db);
        self.real(f.cfo);
        self.word(f.timing as u64);
        match f.evm_snr_db {
            Some(e) => {
                self.word(1);
                self.real(e);
            }
            None => self.word(0),
        }
        self.word(f.frame_end as u64);
        self.bytes(&f.coded_hard);
    }

    fn stats(&mut self, s: &ScanStats) {
        for v in [
            s.frames,
            s.rescans,
            s.sync_errors,
            s.header_errors,
            s.fec_errors,
        ] {
            self.word(v as u64);
        }
    }

    fn error(&mut self, e: &RxError) {
        self.bytes(format!("{e:?}").as_bytes());
    }
}

/// Runs config `index` of the grid and folds its outcome into `h`.
fn run_config(index: usize, h: &mut Fnv) {
    let mut rest = index % PER_PRESET;
    let cfo = CFOS[rest % CFOS.len()];
    rest /= CFOS.len();
    let snr = SNRS_DB[rest % SNRS_DB.len()];
    rest /= SNRS_DB.len();
    let size = SIZES[rest % SIZES.len()];
    rest /= SIZES.len();
    let mcs = MCS[rest];
    let preset = PRESETS[index / PER_PRESET];
    // The mixed-in options take their own bits of a scrambled index, so
    // none of them moves in step with a grid axis.
    let mix = (index as u64 ^ 0x5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
    let pick = |n: u64, salt: u32| (mix.rotate_right(salt) % n) as usize;

    let mut tx_cfg = TxConfig::new(mcs).unwrap();
    tx_cfg.scrambler_seed = 1 + pick(127, 0) as u8;
    let tx = Transmitter::new(tx_cfg);
    let n_tx = tx.mcs().n_streams;
    // The identity channel needs square dimensions.
    let n_rx = if preset == "awgn" { n_tx } else { 2 };
    let mut chan = presets::channel(preset, n_tx, n_rx, snr).unwrap();
    chan.cfo_norm = cfo;
    if pick(4, 7) == 1 {
        chan.sfo_ppm = 40.0;
    }
    chan.timing_offset = [0.0, 0.37, 0.0, 1.61, 0.5][pick(5, 11)];

    let mut rx_cfg = RxConfig::new(n_rx);
    rx_cfg.detector = [DetectorKind::Mmse, DetectorKind::Zf, DetectorKind::Ml][pick(3, 17)];
    rx_cfg.pilot_tracking = pick(7, 23) != 0;
    rx_cfg.smoothing = [0, 0, 2][pick(3, 29)];
    rx_cfg.soft_decoding = pick(6, 31) != 0;
    rx_cfg.fine_timing = pick(8, 37) != 0;

    let psdus: Vec<Vec<u8>> = (0..3)
        .map(|k| {
            (0..size)
                .map(|i| (i * 131 + k * 71 + index * 29) as u8)
                .collect()
        })
        .collect();
    let mut sim = ChannelSim::new(chan, 0x00D1_6E57 ^ index as u64);
    let mut capture = vec![Vec::<Complex64>::new(); n_rx];
    burst::generate(
        &tx,
        &mut sim,
        &psdus,
        burst::LEAD_IN,
        burst::GAP,
        &mut BurstScratch::default(),
        &mut capture,
    )
    .unwrap();

    let rx = Receiver::new(rx_cfg);
    h.word(index as u64);
    let (frames, stats) = rx.scan(&capture);
    h.word(frames.len() as u64);
    for (offset, frame) in &frames {
        h.word(*offset as u64);
        h.frame(frame);
    }
    h.stats(&stats);
    match rx.receive(&capture) {
        Ok(frame) => {
            h.word(1);
            h.frame(&frame);
        }
        Err(e) => {
            h.word(0);
            h.error(&e);
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

/// The digests of one preset's configs: `(subset, whole)`, the whole
/// grid's only when `full`.
fn preset_digests(preset: usize, full: bool) -> (u64, u64) {
    let (mut subset, mut whole) = (Fnv::new(), Fnv::new());
    for index in preset * PER_PRESET..(preset + 1) * PER_PRESET {
        let in_subset = index % SUBSET_STRIDE == 0;
        if !(full || in_subset) {
            continue;
        }
        let mut h = Fnv::new();
        run_config(index, &mut h);
        whole.word(h.0);
        if in_subset {
            subset.word(h.0);
        }
    }
    (subset.0, whole.0)
}

#[test]
fn rx_config_digests_are_pinned() {
    let full = !cfg!(debug_assertions);
    // One thread per preset: five threads, each with its own digests.
    let digests: Vec<(u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..PRESETS.len())
            .map(|p| s.spawn(move || preset_digests(p, full)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let (subset, whole): (Vec<u64>, Vec<u64>) = digests.into_iter().unzip();
    check("subset", &subset, &SUBSET);
    if full {
        check("full grid", &whole, &FULL);
    }
}
