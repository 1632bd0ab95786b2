//! The MIMO-OFDM receiver state machine.
//!
//! Processing order (the practical pipeline the paper describes):
//!
//! 1. **Packet detection** — STF plateau across antennas, coarse CFO.
//! 2. **Coarse CFO correction**, applied lazily as each stage extends its
//!    reach into the capture.
//! 3. **Fine timing** — L-LTF cross-correlation (or detection geometry
//!    when disabled, the A2 ablation).
//! 4. **Fine CFO** from the two L-LTF repetitions, corrected.
//! 5. **SNR / noise-variance estimation** from the LTF repetitions.
//! 6. **L-SIG**, then **HT-SIG** decode (legacy channel estimate + MRC).
//! 7. **HT-LTF MIMO channel estimation** (P-matrix despreading).
//! 8. Per data symbol: CFO rotation of the FFT window straight into the
//!    FFT input, FFT, **pilot phase tracking**, **ZF/MMSE/ML detection**
//!    (four symbols per lane call), then per-stream deinterleave and
//!    stream deparse as one table gather.
//! 9. Depuncture → Viterbi (soft or hard) → descramble → PSDU.
//!
//! # Hot path & memory discipline
//!
//! The receiver operates on *borrowed* per-antenna sample views
//! (`&[&[Complex64]]`) and keeps every scratch buffer in a reusable
//! [`RxWorkspace`]. After the workspace has warmed up on one frame,
//! [`Receiver::receive_into`] performs **zero heap allocations** (pinned
//! by `tests/alloc_regression.rs`; the ML detector is the one documented
//! exception — its hypothesis table scales with the constellation).
//!
//! Each capability has one entry point. [`Receiver::scan`] and
//! [`Receiver::receive`], and their `_profiled` forms, take one buffer
//! per antenna, owned or borrowed (`&[T]` with `T: AsRef<[Complex64]>`),
//! and run on a thread-local workspace. [`Receiver::receive_into`],
//! [`Receiver::receive_profiled_into`] and [`Receiver::receive_batch`]
//! run on a caller-owned one.
//!
//! Two structural changes make this possible without changing a single
//! output bit (the pre-optimization receiver, kept in the dev-only
//! `mimonet-oracle` crate, is the oracle `tests/equivalence.rs` checks
//! this one against):
//!
//! * **View-based scanning.** [`Receiver::scan`] hands each decode
//!   attempt a window of sub-slices instead of copying up to
//!   [`MAX_FRAME_SPAN`] samples per attempt, which made back-to-back
//!   scans O(capture²) in copied bytes.
//! * **Lazy chunked CFO correction.** The CFO-corrected buffers are
//!   extended only as far as the preamble and headers read. Chunking is
//!   bit-exact because `rotate_antennas` threads the *raw accumulated
//!   phase* across chunk boundaries — the identical sequence of `phase +=
//!   step` additions the old whole-buffer pass performed — and it
//!   computes each sample's phasor once for all antennas. The data
//!   symbols are not buffered: `DataRotation` carries both phase chains
//!   on through each symbol, advancing them over the cyclic prefix and
//!   rotating only the 64 samples the FFT reads, each straight into its
//!   bit-reversed FFT input slot.
//!
//! Per-frame invariants are computed once, not per bit or per antenna:
//! the interleaver permutation and stream deparser are one cached
//! gather table per geometry (`rx_gather`), and each pilot-tracking
//! correction is computed once per data carrier and symbol.

use crate::config::RxConfig;
use crate::telemetry::{RxCaptureProfile, RxStage, StageClock, StageProfile};
use crate::tx::DATA_POLARITY_OFFSET;
use mimonet_detect::chanest::{
    estimate_mimo_htltf_into, estimate_siso_lltf_into, smooth_frequency_into, ChannelEstimate,
};
use mimonet_detect::snr::snr_from_ltf_repetitions;
use mimonet_detect::{prepare as prepare_detector, CMat, EvmSnrEstimator, Prepared};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::stats::lin_to_db;
use mimonet_fec::interleaver::Interleaver;
use mimonet_fec::puncture::{depuncture_soft_into, CodeRate};
use mimonet_fec::{Symbol, ViterbiDecoder};
use mimonet_frame::carriers::{carrier_to_bin, CP_LEN, FFT_LEN, PILOT_CARRIERS, SYM_LEN};
use mimonet_frame::mcs::Mcs;
use mimonet_frame::ofdm::Ofdm;
use mimonet_frame::pilots::{ht_pilots, legacy_pilots};
use mimonet_frame::preamble::num_htltf;
use mimonet_frame::psdu::descramble_data_bits_into;
use mimonet_frame::sig::{HtSig, LSig, SigError};
use mimonet_frame::Layout;
use mimonet_sync::finetiming::{fine_timing_with, FineTimingScratch};
use mimonet_sync::{DetectorConfig, PacketDetector, PhaseTracker, VanDeBeek};
use std::cell::RefCell;

/// A successfully decoded frame plus the receiver's channel measurements —
/// the paper's "fine grained SNR estimation, BER and PER computations"
/// hang off these fields.
///
/// Implements `Default` so callers can recycle one instance across
/// [`Receiver::receive_into`] calls; every field is fully overwritten on
/// success (on error the contents are unspecified).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RxFrame {
    /// The decoded PSDU (length from HT-SIG; FCS *not* checked here — the
    /// MAC layer / link simulator does that).
    pub psdu: Vec<u8>,
    /// MCS announced in HT-SIG.
    pub mcs: u8,
    /// Preamble-based SNR estimate in dB (average over RX antennas).
    pub snr_db: f64,
    /// Total CFO correction applied, in subcarrier spacings.
    pub cfo: f64,
    /// Sample index of the first L-LTF body in the input buffers.
    pub timing: usize,
    /// EVM-based SNR over the equalized data symbols, in dB.
    pub evm_snr_db: Option<f64>,
    /// Sample index just past the last data symbol — where a streaming
    /// receiver resumes its search for the next frame.
    pub frame_end: usize,
    /// Hard decisions on the received coded stream (punctured domain),
    /// for pre-FEC BER instrumentation.
    pub coded_hard: Vec<u8>,
}

/// Receiver failure at a specific pipeline stage — each maps to an error
/// class the PER instrumentation attributes separately.
#[derive(Clone, Debug, PartialEq)]
pub enum RxError {
    /// Antenna count or buffer lengths inconsistent with the config.
    AntennaMismatch { expected: usize, got: usize },
    /// No STF plateau found.
    NoPacket,
    /// The L-LTF could not be located after detection.
    SyncLost,
    /// Buffer ends before the announced frame does.
    BufferTooShort,
    /// L-SIG failed parity/decoding.
    LSig(SigError),
    /// HT-SIG failed CRC/decoding.
    HtSig(SigError),
    /// HT-SIG announces more streams than we have antennas.
    TooManyStreams { streams: usize, antennas: usize },
    /// The MIMO detector failed on a data carrier (singular channel under
    /// ZF).
    Detector,
    /// FEC decode or descramble failed on the data payload (Viterbi
    /// rejected the stream, or the descrambler found too few bits).
    Fec,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::AntennaMismatch { expected, got } => {
                write!(f, "expected {expected} RX streams, got {got}")
            }
            RxError::NoPacket => write!(f, "no packet detected"),
            RxError::SyncLost => write!(f, "synchronization lost after detection"),
            RxError::BufferTooShort => write!(f, "buffer ends before the frame does"),
            RxError::LSig(e) => write!(f, "L-SIG: {e}"),
            RxError::HtSig(e) => write!(f, "HT-SIG: {e}"),
            RxError::TooManyStreams { streams, antennas } => {
                write!(f, "{streams} spatial streams but only {antennas} antennas")
            }
            RxError::Detector => write!(f, "MIMO detection failed"),
            RxError::Fec => write!(f, "FEC decode/descramble failed"),
        }
    }
}

impl std::error::Error for RxError {}

/// Upper bound on the samples one frame can legally span: preamble plus
/// the data symbols of a maximum-length (65535-byte) PSDU at the lowest
/// rate (MCS0, 26 data bits/symbol ⇒ ~20.2k symbols × 80 samples), with
/// headroom for detection lead-in. [`Receiver::scan`] windows each decode
/// attempt to this span so a corrupt length field cannot make the
/// receiver chew through (or allocate proportionally to) an arbitrarily
/// long capture.
pub const MAX_FRAME_SPAN: usize = 1_700_000;

/// Samples the receiver backs its FFT window into the cyclic prefix
/// (standard receiver practice: keeps the window tail away from the
/// symbol transition, where multipath tails and front-end filter smearing
/// live). Must stay below `CP_LEN` minus the channel delay spread.
pub const TIMING_BACKOFF: usize = 3;

/// Nominal SNR, dB, behind the Van de Beek rho weight of the fallback
/// timing refinement (`fine_timing` off). Mild mismatch is harmless.
pub const VDB_SNR_DB: f64 = 10.0;

/// Robustness statistics from one [`Receiver::scan`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Frames successfully decoded.
    pub frames: usize,
    /// Error-driven skip-ahead re-scans (every non-`NoPacket` failure).
    pub rescans: usize,
    /// Failures before the headers: lost sync, short buffer, detector.
    pub sync_errors: usize,
    /// Failures decoding L-SIG / HT-SIG or validating their fields.
    pub header_errors: usize,
    /// Failures in the FEC decode / descramble stage.
    pub fec_errors: usize,
}

/// An HT data-symbol geometry `(n_cbpss, n_bpsc, n_ss)`: the key of the
/// workspace's gather cache.
type Geometry = (usize, usize, usize);

/// Reusable scratch memory for one receive chain.
///
/// Holds every buffer the pipeline needs — the lazily CFO-corrected
/// per-antenna sample buffers, FFT bin arrays, channel estimates,
/// prepared per-carrier detectors, flat stride-indexed LLR slabs and the
/// Viterbi decoder's trellis state. All of it is recycled from frame to
/// frame: once warmed, [`Receiver::receive_into`] allocates nothing.
///
/// Construction is cheap (empty vectors); buffers grow on first use.
pub struct RxWorkspace {
    detector: Option<PacketDetector>,
    /// CFO-corrected copies of the input views, extended lazily through
    /// the preamble and headers (and as far as a timing search window
    /// reached). The data symbols' samples are never copied in: the data
    /// loop rotates each FFT window straight into the FFT input, walking
    /// on from the carries below (`DataRotation`).
    bufs: Vec<Vec<Complex64>>,
    /// Samples copied in and coarse-corrected so far (`bufs`' length).
    corrected_len: usize,
    coarse_corr: f64,
    /// Raw accumulated coarse phase at `corrected_len` — chunk boundary
    /// carry that keeps chunked correction bit-identical to one pass.
    coarse_carry: f64,
    fine_corr: f64,
    /// Raw accumulated fine phase at `fine_len`.
    fine_carry: f64,
    /// Samples fine-corrected so far (fine correction starts at the LTF);
    /// never past `corrected_len`.
    fine_len: usize,
    timing: FineTimingScratch,
    legacy_est: Vec<ChannelEstimate>,
    bins: Vec<[Complex64; FFT_LEN]>,
    ltf_bins: Vec<[Complex64; FFT_LEN]>,
    chan: ChannelEstimate,
    chan_smooth: ChannelEstimate,
    prepared: Vec<Prepared>,
    /// Fused deinterleave + deparse gathers, one per geometry seen.
    gathers: Vec<(Geometry, Vec<u32>)>,
    obs: Vec<(i32, Complex64, Complex64)>,
    /// The data loop's four-symbol slabs, one lane per symbol: FFT bins
    /// (`[lane * n_rx + r]`), equalized symbols in EVM push order
    /// (`[(lane * n_dc + ci) * n_ss + s]`) and stream-major LLRs
    /// (`[lane][s * n_cbpss + ci * n_bpsc + b]`), all in the layout
    /// [`Prepared::apply_x4_into`] reads and writes. A frame's last group
    /// leaves its lanes past `n_sym` stale; their outputs are ignored.
    bins4: Vec<[Complex64; FFT_LEN]>,
    sym_store: Vec<Complex64>,
    stream_llrs: Vec<f64>,
    all_llrs: Vec<f64>,
    full_llrs: Vec<f64>,
    syms: Vec<Symbol>,
    hard_syms: Vec<Symbol>,
    hdr: Vec<u8>,
    viterbi: ViterbiDecoder,
    decoded: Vec<u8>,
}

impl RxWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            detector: None,
            bufs: Vec::new(),
            corrected_len: 0,
            coarse_corr: 0.0,
            coarse_carry: 0.0,
            fine_corr: 0.0,
            fine_carry: 0.0,
            fine_len: 0,
            timing: FineTimingScratch::default(),
            legacy_est: Vec::new(),
            bins: Vec::new(),
            ltf_bins: Vec::new(),
            chan: ChannelEstimate::empty(1, 1),
            chan_smooth: ChannelEstimate::empty(1, 1),
            prepared: Vec::new(),
            gathers: Vec::new(),
            obs: Vec::new(),
            bins4: Vec::new(),
            sym_store: Vec::new(),
            stream_llrs: Vec::new(),
            all_llrs: Vec::new(),
            full_llrs: Vec::new(),
            syms: Vec::new(),
            hard_syms: Vec::new(),
            hdr: Vec::new(),
            viterbi: ViterbiDecoder::new(),
            decoded: Vec::new(),
        }
    }

    /// Resets per-frame state, keeping all capacity.
    fn begin(&mut self, n_rx: usize) {
        if self.bufs.len() < n_rx {
            self.bufs.resize_with(n_rx, Vec::new);
        }
        for b in &mut self.bufs[..n_rx] {
            b.clear();
        }
        self.corrected_len = 0;
        self.coarse_corr = 0.0;
        self.coarse_carry = 0.0;
        self.fine_corr = 0.0;
        self.fine_carry = 0.0;
        self.fine_len = 0;
    }

    /// Copies input samples into the working buffers and coarse-corrects
    /// them, up to (at least) sample `n`. Already-corrected samples are
    /// never touched again, so repeated calls with growing `n` produce
    /// exactly the sample values a single whole-buffer pass would.
    fn ensure_coarse(&mut self, rx: &[&[Complex64]], n: usize) {
        let n = n.min(rx[0].len());
        if n <= self.corrected_len {
            return;
        }
        let lo = self.corrected_len;
        for (b, a) in self.bufs.iter_mut().zip(rx) {
            b.extend_from_slice(&a[lo..n]);
        }
        self.coarse_carry = rotate_antennas(
            &mut self.bufs[..rx.len()],
            lo..n,
            self.coarse_corr,
            self.coarse_carry,
        );
        self.corrected_len = n;
    }

    /// Activates the fine CFO correction from sample `from` onward.
    ///
    /// The old implementation corrected the whole buffer from sample 0;
    /// samples before the LTF are never read again, so only the *phase
    /// accumulator* has to walk the prefix. The walk repeats the exact
    /// `phase += step` additions of the full pass — a closed-form
    /// `step * from` would differ in the last ulps and break bit-identity.
    fn start_fine(&mut self, corr: f64, from: usize) {
        self.fine_corr = corr;
        let step = 2.0 * std::f64::consts::PI * corr / 64.0;
        let mut carry = 0.0;
        for _ in 0..from {
            carry += step;
        }
        self.fine_carry = carry;
        self.fine_len = from;
    }

    /// Extends both corrections (coarse then fine, per sample in that
    /// order — matching the old two whole-buffer passes) up to sample `n`.
    fn ensure_fine(&mut self, rx: &[&[Complex64]], n: usize) {
        self.ensure_coarse(rx, n);
        let n = n.min(self.corrected_len);
        if n <= self.fine_len {
            return;
        }
        self.fine_carry = rotate_antennas(
            &mut self.bufs[..rx.len()],
            self.fine_len..n,
            self.fine_corr,
            self.fine_carry,
        );
        self.fine_len = n;
    }

    /// Hands the CFO correction over to the data loop: fine-corrects the
    /// rest of what the coarse pass covered (a Van de Beek search window
    /// can reach past the data start), so both phase chains stand at
    /// `corrected_len`, and returns them there.
    fn data_rotation(&mut self, rx: &[&[Complex64]]) -> DataRotation {
        self.ensure_fine(rx, self.corrected_len);
        DataRotation {
            coarse_step: 2.0 * std::f64::consts::PI * self.coarse_corr / 64.0,
            fine_step: 2.0 * std::f64::consts::PI * self.fine_corr / 64.0,
            coarse: self.coarse_carry,
            fine: self.fine_carry,
            at: self.corrected_len,
        }
    }
}

/// The two CFO phase chains walking the data symbols, one symbol at a
/// time, from where the workspace's buffered correction stops.
///
/// The chains take the same `phase += step` additions as
/// [`rotate_antennas`], over every sample, cyclic prefixes included, so
/// each sample's phases carry the bits a whole-buffer pass gives them.
/// Only the 64 samples the FFT reads get their two phasors, `(x *
/// coarse) * fine` as the buffered passes apply them, and each corrected
/// sample goes straight to its bit-reversed FFT input slot.
struct DataRotation {
    coarse_step: f64,
    fine_step: f64,
    /// Raw coarse and fine phases at sample `at`.
    coarse: f64,
    fine: f64,
    at: usize,
}

impl DataRotation {
    /// Loads the corrected FFT window of the data symbol starting at
    /// `base` on every antenna into `bins` (one array per antenna), sample
    /// `j` at `slots[j]` ([`Ofdm::window_slots`]). Symbols must come in
    /// order. Samples below `at` are read from `bufs`, where an earlier
    /// stage already corrected them.
    fn window_into(
        &mut self,
        rx: &[&[Complex64]],
        bufs: &[Vec<Complex64>],
        base: usize,
        slots: &[u32],
        bins: &mut [[Complex64; FFT_LEN]],
    ) {
        let end = base + SYM_LEN;
        let buffered = self.at.clamp(base, end) - base;
        for j in CP_LEN..buffered {
            for (b, buf) in bins.iter_mut().zip(bufs) {
                b[slots[j - CP_LEN] as usize] = buf[base + j];
            }
        }
        let (mut coarse, mut fine) = (self.coarse, self.fine);
        for _ in buffered..CP_LEN {
            coarse += self.coarse_step;
            fine += self.fine_step;
        }
        for j in CP_LEN.max(buffered)..SYM_LEN {
            let pc = Complex64::cis(coarse);
            let pf = Complex64::cis(fine);
            coarse += self.coarse_step;
            fine += self.fine_step;
            let slot = slots[j - CP_LEN] as usize;
            for (b, a) in bins.iter_mut().zip(rx) {
                b[slot] = (a[base + j] * pc) * pf;
            }
        }
        if buffered < SYM_LEN {
            (self.coarse, self.fine, self.at) = (coarse, fine, end);
        }
    }
}

/// Rotates samples `range` of every antenna buffer by the CFO phasor
/// chain of `corr` (subcarrier spacings), starting at the raw phase
/// `carry`, and returns the raw phase after the last sample. The step
/// expression and the `phase += step` chain are those of
/// [`mimonet_channel::impairments::apply_cfo_raw`], so the samples are
/// bit-identical to one `apply_cfo_raw` call per antenna; each sample's
/// `cis` is computed once and shared by every antenna.
fn rotate_antennas(
    bufs: &mut [Vec<Complex64>],
    range: std::ops::Range<usize>,
    corr: f64,
    carry: f64,
) -> f64 {
    let step = 2.0 * std::f64::consts::PI * corr / 64.0;
    let mut phase = carry;
    let mut phasors = [Complex64::ZERO; 64];
    let mut at = range.start;
    while at < range.end {
        let m = (range.end - at).min(phasors.len());
        for p in &mut phasors[..m] {
            *p = Complex64::cis(phase);
            phase += step;
        }
        for b in bufs.iter_mut() {
            for (x, &p) in b[at..at + m].iter_mut().zip(&phasors[..m]) {
                *x *= p;
            }
        }
        at += m;
    }
    phase
}

/// The workspace's gather for one HT geometry ([`rx_gather`]), built on
/// first use and kept for every later frame of that geometry, so a
/// warmed receiver allocates nothing here.
fn cached_gather(
    gathers: &mut Vec<(Geometry, Vec<u32>)>,
    n_cbpss: usize,
    n_bpsc: usize,
    n_ss: usize,
) -> &[u32] {
    let key = (n_cbpss, n_bpsc, n_ss);
    let i = match gathers.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            gathers.push((key, rx_gather(n_cbpss, n_bpsc, n_ss)));
            gathers.len() - 1
        }
    };
    &gathers[i].1
}

/// The fused deinterleave + stream-deparse gather of one HT geometry:
/// output LLR `o` of a data symbol is the stream-major detector LLR
/// `idx[o]` (`s * n_cbpss + position`). Equal, value for value, to
/// deinterleaving each stream with [`Interleaver::deinterleave_soft_into`]
/// and merging them with the stream deparser.
fn rx_gather(n_cbpss: usize, n_bpsc: usize, n_ss: usize) -> Vec<u32> {
    let tables: Vec<Vec<u32>> = (0..n_ss)
        .map(|s| Interleaver::ht(n_cbpss, n_bpsc, s, n_ss).table())
        .collect();
    let group = (n_bpsc / 2).max(1);
    let mut idx = Vec::with_capacity(n_ss * n_cbpss);
    for g in 0..n_cbpss / group {
        for (s, t) in tables.iter().enumerate() {
            let base = (s * n_cbpss) as u32;
            idx.extend(t[g * group..(g + 1) * group].iter().map(|&j| base + j));
        }
    }
    idx
}

impl Default for RxWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static WORKSPACE: RefCell<RxWorkspace> = RefCell::new(RxWorkspace::new());
}

/// Runs `f` with this thread's shared receive workspace — the backing
/// store for the convenience APIs ([`Receiver::receive`],
/// [`Receiver::scan`], …), mirroring the FEC crate's thread-local decoder.
fn with_workspace<R>(f: impl FnOnce(&mut RxWorkspace) -> R) -> R {
    WORKSPACE.with(|w| f(&mut w.borrow_mut()))
}

/// Antennas beyond which the view helpers fall back to a heap-allocated
/// slice-of-slices (the stack array covers every realistic MIMO order).
const MAX_STACK_RX: usize = 8;

/// Calls `f` with per-antenna sub-views `[lo..hi)`, building the
/// slice-of-slices on the stack for realistic antenna counts.
fn with_views<T: AsRef<[Complex64]>, R>(
    ants: &[T],
    lo: usize,
    hi: usize,
    f: impl FnOnce(&[&[Complex64]]) -> R,
) -> R {
    if ants.len() <= MAX_STACK_RX {
        let mut store: [&[Complex64]; MAX_STACK_RX] = [&[]; MAX_STACK_RX];
        for (w, a) in store.iter_mut().zip(ants) {
            *w = &a.as_ref()[lo..hi];
        }
        f(&store[..ants.len()])
    } else {
        let v: Vec<&[Complex64]> = ants.iter().map(|a| &a.as_ref()[lo..hi]).collect();
        f(&v)
    }
}

/// Calls `f` with full-length per-antenna views (lengths may differ; the
/// receiver validates them itself).
fn with_full_views<T: AsRef<[Complex64]>, R>(
    ants: &[T],
    f: impl FnOnce(&[&[Complex64]]) -> R,
) -> R {
    if ants.len() <= MAX_STACK_RX {
        let mut store: [&[Complex64]; MAX_STACK_RX] = [&[]; MAX_STACK_RX];
        for (w, a) in store.iter_mut().zip(ants) {
            *w = a.as_ref();
        }
        f(&store[..ants.len()])
    } else {
        let v: Vec<&[Complex64]> = ants.iter().map(|a| a.as_ref()).collect();
        f(&v)
    }
}

/// Per-capture outcomes of [`Receiver::receive_batch`], each with the
/// stage profile of its decode.
///
/// Like [`RxWorkspace`], everything is recycled between calls: after one
/// warming batch of the same shape, `receive_batch` performs no heap
/// allocation (pinned by `tests/alloc_regression.rs`).
#[derive(Default)]
pub struct RxBatch {
    frames: Vec<RxFrame>,
    results: Vec<Option<RxError>>,
    profiles: Vec<StageProfile>,
}

impl RxBatch {
    /// Creates an empty batch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of captures processed by the last `receive_batch` call.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no captures have been processed.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The outcome for capture `i`: the decoded frame, or the error that
    /// stopped its pipeline.
    pub fn result(&self, i: usize) -> Result<&RxFrame, &RxError> {
        match &self.results[i] {
            Some(e) => Err(e),
            None => Ok(&self.frames[i]),
        }
    }

    /// The stage profile of capture `i`'s decode: the calls and wall
    /// time of each stage it ran, the failing one included.
    pub fn profile(&self, i: usize) -> &StageProfile {
        &self.profiles[i]
    }

    /// All outcomes in capture order.
    pub fn results(&self) -> impl Iterator<Item = Result<&RxFrame, &RxError>> {
        (0..self.len()).map(|i| self.result(i))
    }

    /// Successfully decoded captures in capture order, with their batch
    /// indices — the shape cross-session decode planes consume (the
    /// index routes each frame back to its originating session).
    pub fn ok_frames(&self) -> impl Iterator<Item = (usize, &RxFrame)> {
        (0..self.len()).filter_map(|i| self.result(i).ok().map(|f| (i, f)))
    }

    /// Number of captures in the batch that decoded successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_none()).count()
    }

    /// Resets for a new batch of `n` captures, keeping capacity.
    fn reset(&mut self, n: usize) {
        self.frames.resize_with(n, RxFrame::default);
        self.results.clear();
        self.results.resize(n, None);
        self.profiles.clear();
        self.profiles.resize(n, StageProfile::default());
    }
}

/// The receiver. Reusable across frames.
#[derive(Clone, Debug)]
pub struct Receiver {
    cfg: RxConfig,
    ofdm: Ofdm,
}

impl Receiver {
    /// Creates a receiver.
    pub fn new(cfg: RxConfig) -> Self {
        Self {
            cfg,
            ofdm: Ofdm::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RxConfig {
        &self.cfg
    }

    /// Scans a long multi-frame capture, decoding every frame it finds,
    /// and returns the frames with per-capture robustness statistics
    /// (`scan(rx).0` is the frames alone). `rx` holds one buffer per
    /// antenna, owned (`Vec<Complex64>`) or borrowed (`&[Complex64]`).
    ///
    /// The frames are `(offset, frame)` pairs where `offset` is the start
    /// of the slice in which the frame was decoded (its
    /// `timing`/`frame_end` fields are relative to that offset). Decode
    /// failures after a detection advance the scan by a fixed stride so
    /// one broken frame cannot stall the stream; the scan ends at the
    /// first stretch with no detectable packet.
    ///
    /// Hardening over a naive scan loop, all reachable under injected
    /// faults:
    ///
    /// * per-antenna buffers of *unequal* length are scanned up to the
    ///   shortest (a desynchronized or partially-truncated capture must
    ///   degrade, not index out of bounds);
    /// * each `receive` call sees a window of at most [`MAX_FRAME_SPAN`]
    ///   samples, so the work a corrupt HT-SIG can trigger is bounded by
    ///   the longest legal frame, not the capture length — and the window
    ///   is a *view*, so sliding it copies nothing;
    /// * after `SyncLost` / a failed header the scan skips ahead and
    ///   re-scans instead of aborting the capture, and a persistent
    ///   [`RxError::AntennaMismatch`] (a config error, not a channel
    ///   condition) stops the scan instead of looping on it.
    pub fn scan<T: AsRef<[Complex64]>>(&self, rx: &[T]) -> (Vec<(usize, RxFrame)>, ScanStats) {
        self.scan_profiled(rx, &mut RxCaptureProfile::default())
    }

    /// [`Self::scan`] that additionally records telemetry into `cap`:
    /// aggregated per-stage timing spans, plus one `(offset, error)` event
    /// per failed decode attempt (scan order, offsets absolute in the
    /// capture) — the raw material for attributing every lost frame to a
    /// named pipeline stage.
    pub fn scan_profiled<T: AsRef<[Complex64]>>(
        &self,
        rx: &[T],
        cap: &mut RxCaptureProfile,
    ) -> (Vec<(usize, RxFrame)>, ScanStats) {
        with_full_views(rx, |views| {
            with_workspace(|ws| self.scan_with(views, ws, cap))
        })
    }

    fn scan_with(
        &self,
        rx: &[&[Complex64]],
        ws: &mut RxWorkspace,
        cap: &mut RxCaptureProfile,
    ) -> (Vec<(usize, RxFrame)>, ScanStats) {
        const ERROR_STRIDE: usize = 400;
        let len = rx.iter().map(|a| a.len()).min().unwrap_or(0);
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        let mut frame = RxFrame::default();
        let mut offset = 0usize;
        while offset + 640 < len {
            let hi = (offset + MAX_FRAME_SPAN).min(len);
            let res = with_views(rx, offset, hi, |window| {
                self.receive_profiled_into(window, ws, &mut cap.stages, &mut frame)
            });
            match res {
                Ok(()) => {
                    let end = frame.frame_end;
                    out.push((offset, std::mem::take(&mut frame)));
                    offset += end.max(ERROR_STRIDE);
                }
                Err(RxError::NoPacket) => {
                    if hi == len {
                        break;
                    }
                    // Nothing in this window, but the capture continues:
                    // slide forward, overlapping by one detection span so a
                    // frame straddling the boundary is still found.
                    offset = hi - 640;
                }
                Err(e @ RxError::AntennaMismatch { .. }) => {
                    cap.events.push((offset, e));
                    break;
                }
                Err(e) => {
                    stats.rescans += 1;
                    match e {
                        RxError::LSig(_) | RxError::HtSig(_) | RxError::TooManyStreams { .. } => {
                            stats.header_errors += 1
                        }
                        RxError::Fec => stats.fec_errors += 1,
                        _ => stats.sync_errors += 1,
                    }
                    cap.events.push((offset, e));
                    offset += ERROR_STRIDE;
                }
            }
        }
        stats.frames = out.len();
        (out, stats)
    }

    /// Decodes one frame from each of `captures` (each a slice of
    /// per-antenna buffers) into `batch`, in capture order. It is a loop
    /// of [`Self::receive_profiled_into`] calls over one workspace, each
    /// into its slot's own profile, so every slot holds exactly what
    /// [`Self::receive_into`] returns plus the profile that call drops;
    /// the engine's decode plane drains its queued captures through it.
    ///
    /// Like `receive_into`, allocation-free once `ws` and `batch` are
    /// warmed on a batch of the same shape.
    pub fn receive_batch<T: AsRef<[Complex64]>, C: AsRef<[T]>>(
        &self,
        captures: &[C],
        ws: &mut RxWorkspace,
        batch: &mut RxBatch,
    ) {
        batch.reset(captures.len());
        for (slot, cap) in captures.iter().enumerate() {
            let frame = &mut batch.frames[slot];
            let profile = &mut batch.profiles[slot];
            let res = with_full_views(cap.as_ref(), |views| {
                self.receive_profiled_into(views, ws, profile, frame)
            });
            batch.results[slot] = res.err();
        }
    }

    /// Attempts to detect and decode one frame from per-antenna buffers,
    /// owned (`Vec<Complex64>`) or borrowed (`&[Complex64]`), using the
    /// thread-local workspace.
    pub fn receive<T: AsRef<[Complex64]>>(&self, rx: &[T]) -> Result<RxFrame, RxError> {
        self.receive_profiled(rx, &mut StageProfile::default())
    }

    /// The allocation-free receive path: decodes one frame from borrowed
    /// views into a caller-owned workspace and frame. With both warmed
    /// (one prior call of the same shape), this performs no heap
    /// allocation. On `Err` the frame's contents are unspecified.
    pub fn receive_into(
        &self,
        rx: &[&[Complex64]],
        ws: &mut RxWorkspace,
        frame: &mut RxFrame,
    ) -> Result<(), RxError> {
        self.receive_profiled_into(rx, ws, &mut StageProfile::default(), frame)
    }

    /// [`Self::receive`] with per-stage timing spans recorded into
    /// `profile`. On failure the partial span of the stage that errored is
    /// attributed via [`RxStage::of_error`], so a profiled capture's time
    /// is fully accounted whether frames decode or not. The stage *call*
    /// counts are a pure function of the input; only the nanosecond spans
    /// are wall-clock (and stripped from deterministic renderings).
    pub fn receive_profiled<T: AsRef<[Complex64]>>(
        &self,
        rx: &[T],
        profile: &mut StageProfile,
    ) -> Result<RxFrame, RxError> {
        with_full_views(rx, |views| {
            with_workspace(|ws| {
                let mut frame = RxFrame::default();
                self.receive_profiled_into(views, ws, profile, &mut frame)?;
                Ok(frame)
            })
        })
    }

    /// [`Self::receive_into`] with per-stage telemetry — the primitive
    /// every other receive/scan entry point funnels through.
    pub fn receive_profiled_into(
        &self,
        rx: &[&[Complex64]],
        ws: &mut RxWorkspace,
        profile: &mut StageProfile,
        frame: &mut RxFrame,
    ) -> Result<(), RxError> {
        let mut clock = StageClock::start();
        let res = self.receive_inner(rx, ws, profile, &mut clock, frame);
        if let Err(e) = &res {
            clock.lap(profile, RxStage::of_error(e));
        }
        res
    }

    /// The whole pipeline, stages 1–10, decoding one frame into `frame`;
    /// `clock` laps each completed stage into `profile`.
    fn receive_inner(
        &self,
        rx: &[&[Complex64]],
        ws: &mut RxWorkspace,
        profile: &mut StageProfile,
        clock: &mut StageClock,
        frame: &mut RxFrame,
    ) -> Result<(), RxError> {
        let n_rx = self.cfg.n_rx;
        if rx.len() != n_rx {
            return Err(RxError::AntennaMismatch {
                expected: n_rx,
                got: rx.len(),
            });
        }
        let len = rx[0].len();
        if rx.iter().any(|a| a.len() != len) {
            return Err(RxError::AntennaMismatch {
                expected: n_rx,
                got: rx.len(),
            });
        }

        // --- 1. Packet detection + coarse CFO ---
        if ws.detector.as_ref().is_none_or(|d| d.n_antennas() != n_rx) {
            ws.detector = Some(PacketDetector::new(n_rx, DetectorConfig::default()));
        }
        let detector = ws.detector.as_mut().expect("detector just ensured");
        detector.reset();
        let det = detector.detect(rx).ok_or(RxError::NoPacket)?;
        clock.lap(profile, RxStage::Detect);

        // --- 2. Coarse CFO correction (lazily chunked from here on) ---
        ws.begin(n_rx);
        ws.coarse_corr = -det.coarse_cfo;
        let mut total_cfo = det.coarse_cfo;

        // --- 3. Fine timing: locate the first L-LTF body ---
        // Detection confirms ~(warmup + min_run) samples into the STF; the
        // LTF body then starts ≈ 160 + 32 − that far ahead.
        let cfg_det = DetectorConfig::default();
        let approx_stf_start = det
            .confirmed_at
            .saturating_sub(cfg_det.lag + cfg_det.window + cfg_det.min_run - 1);
        let ltf_guess = approx_stf_start + 160 + 32;
        let ltf_start = if self.cfg.fine_timing {
            let win_lo = ltf_guess.saturating_sub(40);
            // The window must contain BOTH 64-sample LTF repetitions past
            // the last candidate offset, or the two-peak pairing inside
            // fine_timing cannot score the true position.
            let win_hi = (ltf_guess + 40 + 128 + 64).min(len);
            if win_hi <= win_lo + 64 {
                return Err(RxError::SyncLost);
            }
            ws.ensure_coarse(rx, win_hi);
            let RxWorkspace { bufs, timing, .. } = &mut *ws;
            let ft = with_views(&bufs[..n_rx], win_lo, win_hi, |w| {
                fine_timing_with(w, timing)
            })
            .ok_or(RxError::SyncLost)?;
            win_lo + ft.ltf_start
        } else {
            // Fallback refinement: the paper's MIMO-extended Van de Beek.
            // Every field from the L-SIG onward is a CP-80 OFDM symbol, so
            // run the joint CP metric over a post-L-LTF window (which
            // starts on a symbol boundary if the guess is right) and fold
            // the strongest boundary's mod-80 residue back into the guess.
            let win_lo = (ltf_guess + 128).min(len);
            let win_hi = (win_lo + 480).min(len);
            if win_hi >= win_lo + 160 {
                ws.ensure_coarse(rx, win_hi);
                let vdb = VanDeBeek::new(64, 16, VDB_SNR_DB);
                match with_views(&ws.bufs[..n_rx], win_lo, win_hi, |w| vdb.estimate(w)) {
                    Some(est) => {
                        // Signed residue in (−40, 40]: how far the detected
                        // boundary sits from the guessed symbol grid.
                        let r = (est.timing % 80) as isize;
                        let delta = if r > 40 { r - 80 } else { r };
                        (ltf_guess as isize + delta).max(0) as usize
                    }
                    None => ltf_guess,
                }
            } else {
                ltf_guess
            }
        };
        // Back the FFT window into the cyclic prefix: every downstream
        // window shifts identically, so the channel estimate absorbs the
        // resulting phase ramp, while the window tail stays clear of the
        // symbol transition.
        let ltf_start = ltf_start.saturating_sub(TIMING_BACKOFF);
        if ltf_start + 128 > len {
            return Err(RxError::BufferTooShort);
        }

        // --- 4. Fine CFO from the LTF repetitions ---
        ws.ensure_coarse(rx, ltf_start + 128);
        let mut gamma = Complex64::ZERO;
        for b in &ws.bufs[..n_rx] {
            let b1 = &b[ltf_start..ltf_start + 64];
            let b2 = &b[ltf_start + 64..ltf_start + 128];
            gamma += mimonet_dsp::complex::dot_conj(b1, b2);
        }
        let fine_cfo = -gamma.arg() / (2.0 * std::f64::consts::PI);
        total_cfo += fine_cfo;
        ws.start_fine(-fine_cfo, ltf_start);
        ws.ensure_fine(rx, ltf_start + 128);
        clock.lap(profile, RxStage::Sync);

        // --- 5. SNR and noise variance from the corrected LTFs ---
        let scale52 = Ofdm::unit_power_scale(52);
        let scale56 = Ofdm::unit_power_scale(56);
        let mut snr_acc = 0.0;
        let mut noise_bin_var = 0.0;
        if ws.legacy_est.len() < n_rx {
            ws.legacy_est
                .resize_with(n_rx, || ChannelEstimate::empty(1, 1));
        }
        {
            let RxWorkspace {
                bufs, legacy_est, ..
            } = &mut *ws;
            for (b, est) in bufs[..n_rx].iter().zip(&mut legacy_est[..n_rx]) {
                let b1 = &b[ltf_start..ltf_start + 64];
                let b2 = &b[ltf_start + 64..ltf_start + 128];
                snr_acc += snr_from_ltf_repetitions(b1, b2).unwrap_or(0.0);
                let f1 = self.ofdm.demodulate_window(b1, scale52);
                let f2 = self.ofdm.demodulate_window(b2, scale52);
                // Frequency-domain noise variance over occupied carriers:
                // E|F1-F2|^2 / 2 per repetition pair.
                let mut acc = 0.0;
                let mut n = 0.0;
                for k in -26..=26i32 {
                    if k == 0 {
                        continue;
                    }
                    let bin = carrier_to_bin(k);
                    acc += f1[bin].dist_sqr(f2[bin]);
                    n += 1.0;
                }
                noise_bin_var += acc / n / 2.0;
                estimate_siso_lltf_into(&f1, &f2, est);
            }
        }
        let snr_db = lin_to_db(snr_acc / n_rx as f64);
        // Per-antenna bin noise at LTF scaling; data symbols use the
        // 56-carrier scale, which raises the per-bin variance by 56/52.
        let noise_var_sig = (noise_bin_var / n_rx as f64).max(1e-12);
        let noise_var_data = noise_var_sig * 56.0 / 52.0;
        clock.lap(profile, RxStage::SnrEst);

        // --- 6. L-SIG and HT-SIG ---
        let lsig_start = ltf_start + 128;
        if lsig_start + 3 * 80 > len {
            return Err(RxError::BufferTooShort);
        }
        ws.ensure_fine(rx, lsig_start + 3 * 80);
        let mut lsig_bits = [0u8; 48];
        self.decode_legacy_symbol_into(ws, n_rx, lsig_start, 0, false, &mut lsig_bits)?;
        {
            let RxWorkspace {
                syms, hdr, viterbi, ..
            } = &mut *ws;
            syms.clear();
            syms.extend(lsig_bits.iter().map(|&b| Symbol::Bit(b)));
            viterbi
                .decode_hard_into(syms, hdr)
                .map_err(|_| RxError::SyncLost)?;
            hdr.extend_from_slice(&[0; 6]);
            let _lsig = LSig::decode(hdr).map_err(RxError::LSig)?;
        }

        let mut ht1 = [0u8; 48];
        let mut ht2 = [0u8; 48];
        self.decode_legacy_symbol_into(ws, n_rx, lsig_start + 80, 1, true, &mut ht1)?;
        self.decode_legacy_symbol_into(ws, n_rx, lsig_start + 160, 2, true, &mut ht2)?;
        let htsig = {
            let RxWorkspace {
                syms, hdr, viterbi, ..
            } = &mut *ws;
            syms.clear();
            syms.extend(ht1.iter().chain(ht2.iter()).map(|&b| Symbol::Bit(b)));
            viterbi
                .decode_hard_into(syms, hdr)
                .map_err(|_| RxError::SyncLost)?;
            hdr.extend_from_slice(&[0; 6]);
            HtSig::decode(hdr).map_err(RxError::HtSig)?
        };
        // Do NOT trust the decode-time validation here: these bits came off
        // the air, and a corrupt-but-CRC-colliding HT-SIG reaching an
        // `expect` would let attacker-controlled input panic the receiver.
        let mcs =
            Mcs::from_index(htsig.mcs).map_err(|_| RxError::HtSig(SigError::BadMcs(htsig.mcs)))?;
        let n_ss = mcs.n_streams;
        if n_ss > n_rx {
            return Err(RxError::TooManyStreams {
                streams: n_ss,
                antennas: n_rx,
            });
        }
        clock.lap(profile, RxStage::Header);

        // --- 7. HT-LTF channel estimation ---
        let n_ltf = num_htltf(n_ss);
        let htltf_start = lsig_start + 240 + 80; // skip HT-STF
        if htltf_start + n_ltf * 80 > len {
            return Err(RxError::BufferTooShort);
        }
        ws.ensure_fine(rx, htltf_start + n_ltf * 80);
        {
            let RxWorkspace {
                bufs,
                ltf_bins,
                chan,
                ..
            } = &mut *ws;
            ltf_bins.clear();
            for i in 0..n_ltf {
                let base = htltf_start + i * 80;
                for b in &bufs[..n_rx] {
                    ltf_bins.push(self.ofdm.demodulate(&b[base..base + 80], scale56));
                }
            }
            estimate_mimo_htltf_into(ltf_bins, n_rx, n_ss, chan);
        }
        let smoothed = self.cfg.smoothing > 0 && htsig.smoothing;
        if smoothed {
            let RxWorkspace {
                chan, chan_smooth, ..
            } = &mut *ws;
            smooth_frequency_into(chan, self.cfg.smoothing, chan_smooth);
        }
        clock.lap(profile, RxStage::ChanEst);

        // --- 8/9. Data symbols ---
        let n_sym = mcs.num_symbols(htsig.length as usize * 8);
        let data_start = htltf_start + n_ltf * 80;
        if data_start + n_sym * 80 > len {
            return Err(RxError::BufferTooShort);
        }
        let mut rotation = ws.data_rotation(rx);

        let data_carriers = Layout::Ht.data_carriers();
        let n_dc = data_carriers.len();
        let n_cbpss = mcs.n_cbpss();
        let n_bpsc = mcs.n_bpsc();
        let sym_llrs = n_ss * n_cbpss;
        let RxWorkspace {
            bufs,
            chan,
            chan_smooth,
            prepared,
            gathers,
            obs,
            bins4,
            sym_store,
            stream_llrs,
            all_llrs,
            full_llrs,
            hard_syms,
            viterbi,
            decoded,
            ..
        } = &mut *ws;
        let chan: &ChannelEstimate = if smoothed { chan_smooth } else { chan };
        let bufs = &bufs[..n_rx];
        let gather = cached_gather(gathers, n_cbpss, n_bpsc, n_ss);
        let slots = self.ofdm.window_slots();

        // The channel is block-fading: hoist the per-carrier detector
        // preparation (matrix inversions, ML hypothesis predictions) out
        // of the per-symbol loop.
        prepared.clear();
        for &k in data_carriers {
            let h = chan.at(k).ok_or(RxError::Detector)?;
            prepared.push(
                prepare_detector(self.cfg.detector, h, noise_var_data, mcs.modulation)
                    .map_err(|_| RxError::Detector)?,
            );
        }
        let mut tracker = PhaseTracker::new(0.5);
        let mut evm = EvmSnrEstimator::new();
        all_llrs.clear();
        all_llrs.reserve(n_sym * mcs.n_cbps());
        bins4.clear();
        bins4.resize(4 * n_rx, [Complex64::ZERO; FFT_LEN]);
        sym_store.clear();
        sym_store.resize(4 * n_dc * n_ss, Complex64::ZERO);
        stream_llrs.clear();
        stream_llrs.resize(4 * sym_llrs, 0.0);

        // Demodulates data symbol `sym` on every antenna into `bins`, then
        // pilot phase tracking: the phase is shared across antennas, so
        // each data carrier's correction is computed once and applied to
        // all. The pilot bins are left as they are: nothing reads them
        // after the tracker has.
        let mut demod = |sym: usize, bins: &mut [[Complex64; FFT_LEN]]| {
            rotation.window_into(rx, bufs, data_start + sym * SYM_LEN, slots, bins);
            for b in bins.iter_mut() {
                self.ofdm.demodulate_loaded(b, scale56);
            }
            if !self.cfg.pilot_tracking {
                return;
            }
            let mut pilots = [[0.0; 4]; CMat::MAX_DIM];
            for (s, p) in pilots[..n_ss].iter_mut().enumerate() {
                *p = ht_pilots(s, n_ss, sym, DATA_POLARITY_OFFSET);
            }
            obs.clear();
            for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
                if let Some(h) = chan.at(k) {
                    for (r, b) in bins.iter().enumerate() {
                        let mut expected = Complex64::ZERO;
                        for (s, p) in pilots[..n_ss].iter().enumerate() {
                            expected += h[(r, s)] * p[i];
                        }
                        obs.push((k, expected, b[carrier_to_bin(k)]));
                    }
                }
            }
            if let Some(est) = tracker.update(obs) {
                for &k in data_carriers {
                    let bin = carrier_to_bin(k);
                    let c = est.correction(k);
                    for b in bins.iter_mut() {
                        b[bin] *= c;
                    }
                }
            }
        };

        // Data symbols four at a time, the last group of a frame with
        // `n_sym mod 4` lanes in use: the sequential stages (rotation,
        // FFT, pilot tracking) run per symbol in order, then each data
        // carrier detects the group's symbols in one lane call. The EVM
        // accumulates in symbol-major (sym, ci, s) order, replayed from
        // `sym_store`, exactly as a symbol-at-a-time loop pushes it.
        let mut sym = 0usize;
        while sym < n_sym {
            let lanes = (n_sym - sym).min(4);
            for (lane, bins) in bins4.chunks_exact_mut(n_rx).take(lanes).enumerate() {
                demod(sym + lane, bins);
            }
            for (ci, (det, &k)) in prepared.iter().zip(data_carriers).enumerate() {
                det.apply_x4_into(bins4, carrier_to_bin(k), ci, sym_store, stream_llrs);
            }
            for &x in &sym_store[..lanes * n_dc * n_ss] {
                evm.push_decided(x, mcs.modulation);
            }
            for sl in stream_llrs.chunks_exact(sym_llrs).take(lanes) {
                all_llrs.extend(gather.iter().map(|&i| sl[i as usize]));
            }
            sym += lanes;
        }
        clock.lap(profile, RxStage::Equalize);

        // --- 10a. The mother-code LLR stream: the slab itself at rate
        // 1/2, else depunctured, erasures +0.0 ---
        let mother: &[f64] = if mcs.code_rate == CodeRate::R1_2 {
            all_llrs
        } else {
            let mother_len = 2 * n_sym * mcs.n_dbps();
            depuncture_soft_into(all_llrs, mcs.code_rate, mother_len, full_llrs);
            full_llrs
        };

        frame.mcs = htsig.mcs;
        frame.snr_db = snr_db;
        frame.cfo = total_cfo;
        frame.timing = ltf_start;
        frame.evm_snr_db = evm.snr_db();
        frame.frame_end = data_start + n_sym * 80;
        // Sized first, then written sixteen decisions at a time: LLVM
        // vectorizes that form, and leaves an element-wise loop scalar.
        let hard = |l: f64| if l > 0.0 { 0 } else { 1 };
        frame.coded_hard.truncate(all_llrs.len());
        frame.coded_hard.resize(all_llrs.len(), 0);
        let mut out = frame.coded_hard.chunks_exact_mut(16);
        let mut llrs = all_llrs.chunks_exact(16);
        for (h, l) in out.by_ref().zip(llrs.by_ref()) {
            h.copy_from_slice(&std::array::from_fn::<u8, 16, _>(|k| hard(l[k])));
        }
        for (h, &l) in out.into_remainder().iter_mut().zip(llrs.remainder()) {
            *h = hard(l);
        }

        // --- 10b. Viterbi → descramble → PSDU ---
        if self.cfg.soft_decoding {
            viterbi
                .decode_soft_unterminated_into(mother, decoded)
                .map_err(|_| RxError::Fec)?;
        } else {
            hard_syms.clear();
            hard_syms.extend(mother.iter().map(|&l| {
                if l == 0.0 {
                    Symbol::Erased
                } else {
                    Symbol::Bit(if l > 0.0 { 0 } else { 1 })
                }
            }));
            viterbi
                .decode_hard_unterminated_into(hard_syms, decoded)
                .map_err(|_| RxError::Fec)?;
        }
        if !descramble_data_bits_into(decoded, htsig.length as usize, &mut frame.psdu) {
            return Err(RxError::Fec);
        }
        clock.lap(profile, RxStage::Fec);
        Ok(())
    }

    /// Demodulates and MRC-equalizes one legacy symbol, writing the 48
    /// deinterleaved coded bits into `out`.
    fn decode_legacy_symbol_into(
        &self,
        ws: &mut RxWorkspace,
        n_rx: usize,
        start: usize,
        sym_index: usize,
        quadrature: bool,
        out: &mut [u8; 48],
    ) -> Result<(), RxError> {
        let scale52 = Ofdm::unit_power_scale(52);
        let RxWorkspace {
            bufs,
            bins,
            legacy_est,
            ..
        } = &mut *ws;
        bins.clear();
        for b in &bufs[..n_rx] {
            bins.push(self.ofdm.demodulate(&b[start..start + 80], scale52));
        }
        let legacy_est = &legacy_est[..n_rx];

        // Common phase correction from the four legacy pilots (MRC over
        // antennas).
        let pil = legacy_pilots(sym_index, 0);
        let mut phase_acc = Complex64::ZERO;
        for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
            for (r, est) in legacy_est.iter().enumerate() {
                if let Some(h) = est.at(k) {
                    let expected = h[(0, 0)] * pil[i];
                    phase_acc += bins[r][carrier_to_bin(k)] * expected.conj();
                }
            }
        }
        let derot = if phase_acc.abs() > 1e-12 {
            Complex64::cis(-phase_acc.arg())
        } else {
            Complex64::ONE
        };

        let rot = if quadrature {
            // Undo the QBPSK 90° rotation.
            Complex64::new(0.0, -1.0)
        } else {
            Complex64::ONE
        };
        let mut hard = [0u8; 48];
        for (slot, &k) in hard.iter_mut().zip(Layout::Legacy.data_carriers()) {
            let bin = carrier_to_bin(k);
            let mut num = Complex64::ZERO;
            let mut den = 0.0;
            for (r, est) in legacy_est.iter().enumerate() {
                if let Some(h) = est.at(k) {
                    let hv = h[(0, 0)];
                    num += bins[r][bin] * hv.conj();
                    den += hv.norm_sqr();
                }
            }
            if den <= 1e-15 {
                return Err(RxError::SyncLost);
            }
            let eq = num.scale(1.0 / den) * derot * rot;
            *slot = if eq.re > 0.0 { 1 } else { 0 };
        }
        Interleaver::legacy(48, 1).deinterleave_into(&hard, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TxConfig;
    use crate::tx::Transmitter;
    use mimonet_channel::{ChannelConfig, ChannelSim};

    fn run_link(
        mcs: u8,
        psdu: &[u8],
        chan: ChannelConfig,
        seed: u64,
        rx_cfg: RxConfig,
    ) -> Result<RxFrame, RxError> {
        let tx = Transmitter::new(TxConfig::new(mcs).unwrap());
        let mut streams = tx.transmit(psdu).unwrap();
        // Lead-in/out silence so detection and channel tails have room.
        for s in &mut streams {
            let mut padded = vec![Complex64::ZERO; 120];
            padded.extend_from_slice(s);
            padded.extend(vec![Complex64::ZERO; 80]);
            *s = padded;
        }
        let mut sim = ChannelSim::new(chan, seed);
        let (rx, _) = sim.apply(&streams);
        Receiver::new(rx_cfg).receive(&rx)
    }

    #[test]
    fn siso_clean_channel_roundtrip() {
        let psdu: Vec<u8> = (0..200u8).collect();
        let frame = run_link(
            0,
            &psdu,
            ChannelConfig::awgn(1, 1, 35.0),
            1,
            RxConfig::new(1),
        )
        .expect("decode");
        assert_eq!(frame.psdu, psdu);
        assert_eq!(frame.mcs, 0);
        assert!((frame.snr_db - 35.0).abs() < 3.0, "snr {}", frame.snr_db);
    }

    #[test]
    fn mimo_clean_channel_roundtrip() {
        let psdu: Vec<u8> = (0..255u8).collect();
        for mcs in [8u8, 9, 11] {
            let frame = run_link(
                mcs,
                &psdu,
                ChannelConfig::awgn(2, 2, 35.0),
                2,
                RxConfig::new(2),
            )
            .unwrap_or_else(|e| panic!("MCS{mcs}: {e}"));
            assert_eq!(frame.psdu, psdu, "MCS{mcs}");
            assert_eq!(frame.mcs, mcs);
        }
    }

    #[test]
    fn survives_cfo_and_timing_offset() {
        let psdu: Vec<u8> = (0..100u8).collect();
        let mut chan = ChannelConfig::awgn(2, 2, 30.0);
        chan.cfo_norm = 0.35;
        chan.timing_offset = 33.0;
        let frame = run_link(9, &psdu, chan, 3, RxConfig::new(2)).expect("decode");
        assert_eq!(frame.psdu, psdu);
        assert!((frame.cfo - 0.35).abs() < 0.02, "cfo {}", frame.cfo);
    }

    #[test]
    fn no_packet_in_noise() {
        let rx = Receiver::new(RxConfig::new(1));
        let mut sim = ChannelSim::new(ChannelConfig::awgn(1, 1, 0.0), 4);
        let silence = vec![vec![Complex64::ZERO; 4000]];
        let (noisy, _) = sim.apply(&silence);
        assert!(matches!(rx.receive(&noisy), Err(RxError::NoPacket)));
    }

    #[test]
    fn antenna_mismatch_detected() {
        let rx = Receiver::new(RxConfig::new(2));
        let buf = vec![vec![Complex64::ZERO; 100]];
        assert!(matches!(
            rx.receive(&buf),
            Err(RxError::AntennaMismatch { .. })
        ));
    }

    #[test]
    fn truncated_frame_reports_short_buffer() {
        let tx = Transmitter::new(TxConfig::new(0).unwrap());
        let psdu = vec![0x42u8; 500];
        let mut s = vec![Complex64::ZERO; 100];
        s.extend(tx.transmit(&psdu).unwrap().remove(0));
        s.truncate(s.len() - 600); // cut into the data symbols
        let rx = Receiver::new(RxConfig::new(1));
        assert!(matches!(rx.receive(&[s]), Err(RxError::BufferTooShort)));
    }

    #[test]
    fn hard_decoding_also_works() {
        let psdu: Vec<u8> = (0..150u8).collect();
        let mut cfg = RxConfig::new(2);
        cfg.soft_decoding = false;
        let frame = run_link(10, &psdu, ChannelConfig::awgn(2, 2, 35.0), 5, cfg).expect("decode");
        assert_eq!(frame.psdu, psdu);
    }

    #[test]
    fn two_stream_frame_needs_two_antennas() {
        // A 2-stream frame received by a 1-antenna receiver must be
        // rejected at HT-SIG (TooManyStreams), not crash the detector.
        let tx = Transmitter::new(TxConfig::new(9).unwrap());
        let streams = tx.transmit(&[7u8; 40]).unwrap();
        // Single-antenna capture: sum of both TX antennas (what one
        // physical antenna would see on an identity-ish channel).
        let mut capture = vec![Complex64::ZERO; 120];
        capture.extend(streams[0].iter().zip(&streams[1]).map(|(&a, &b)| a + b));
        capture.extend(vec![Complex64::ZERO; 80]);
        let rx = Receiver::new(RxConfig::new(1));
        match rx.receive(&[capture]) {
            Err(RxError::TooManyStreams {
                streams: 2,
                antennas: 1,
            }) => {}
            // The summed legacy preamble can also corrupt HT-SIG itself.
            Err(RxError::HtSig(_)) | Err(RxError::SyncLost) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn receive_all_finds_back_to_back_frames() {
        let tx = Transmitter::new(TxConfig::new(9).unwrap());
        let rx = Receiver::new(RxConfig::new(2));
        let psdus: Vec<Vec<u8>> = (0..3u8).map(|k| vec![k; 60 + 10 * k as usize]).collect();
        // Concatenate three frames with inter-frame gaps into one capture.
        let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 150]; 2];
        for psdu in &psdus {
            let streams = tx.transmit(psdu).unwrap();
            for (c, s) in capture.iter_mut().zip(&streams) {
                c.extend_from_slice(s);
                c.extend(vec![Complex64::ZERO; 200]);
            }
        }
        let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 9);
        let (noisy, _) = sim.apply(&capture);
        let frames = rx.scan(&noisy).0;
        assert_eq!(frames.len(), 3, "found {} frames", frames.len());
        for ((off, frame), want) in frames.iter().zip(&psdus) {
            assert_eq!(&frame.psdu, want, "frame at offset {off}");
        }
        // Offsets are strictly increasing.
        assert!(frames.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn receive_all_empty_capture() {
        let rx = Receiver::new(RxConfig::new(1));
        assert!(rx.scan(&[vec![Complex64::ZERO; 5000]]).0.is_empty());
        assert!(rx.scan(&[vec![]]).0.is_empty());
    }

    #[test]
    fn coded_hard_matches_tx_reference_on_clean_channel() {
        let tx = Transmitter::new(TxConfig::new(8).unwrap());
        let psdu: Vec<u8> = (0..64u8).collect();
        let reference = tx.coded_bits(&psdu);
        let frame = run_link(
            8,
            &psdu,
            ChannelConfig::awgn(2, 2, 40.0),
            6,
            RxConfig::new(2),
        )
        .expect("decode");
        assert_eq!(frame.coded_hard.len(), reference.len());
        let errs = frame
            .coded_hard
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(errs, 0, "clean channel must have zero pre-FEC errors");
    }

    #[test]
    fn fused_gather_equals_deinterleave_then_deparse_for_every_ht_mcs() {
        use crate::tx::deparse_streams_soft_flat;
        for index in 0..16u8 {
            let mcs = Mcs::from_index(index).unwrap();
            let (n_cbpss, n_bpsc, n_ss) = (mcs.n_cbpss(), mcs.n_bpsc(), mcs.n_streams);
            // Distinct values per position, so any misrouted LLR shows.
            let stream_llrs: Vec<f64> = (0..n_ss * n_cbpss).map(|i| i as f64 - 0.5).collect();
            let mut deinterleaved = vec![0.0; n_ss * n_cbpss];
            for s in 0..n_ss {
                let band = s * n_cbpss..(s + 1) * n_cbpss;
                Interleaver::ht(n_cbpss, n_bpsc, s, n_ss)
                    .deinterleave_soft_into(&stream_llrs[band.clone()], &mut deinterleaved[band]);
            }
            let mut want = Vec::new();
            deparse_streams_soft_flat(&deinterleaved, n_ss, n_bpsc, &mut want);
            let got: Vec<f64> = rx_gather(n_cbpss, n_bpsc, n_ss)
                .iter()
                .map(|&i| stream_llrs[i as usize])
                .collect();
            assert_eq!(got, want, "MCS{index}");
        }
    }

    #[test]
    fn receive_into_reuses_frame_and_workspace() {
        // Two different frames through the same workspace + RxFrame must
        // decode as if each had a fresh receiver (no state bleed).
        let tx = Transmitter::new(TxConfig::new(9).unwrap());
        let rx = Receiver::new(RxConfig::new(2));
        let mut ws = RxWorkspace::new();
        let mut frame = RxFrame::default();
        for (seed, len) in [(11u64, 120usize), (12, 40)] {
            let psdu: Vec<u8> = (0..len as u8).collect();
            let mut streams = tx.transmit(&psdu).unwrap();
            for s in &mut streams {
                let mut padded = vec![Complex64::ZERO; 120];
                padded.extend_from_slice(s);
                padded.extend(vec![Complex64::ZERO; 80]);
                *s = padded;
            }
            let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 32.0), seed);
            let (noisy, _) = sim.apply(&streams);
            let views: Vec<&[Complex64]> = noisy.iter().map(|a| a.as_slice()).collect();
            rx.receive_into(&views, &mut ws, &mut frame)
                .expect("decode");
            assert_eq!(frame.psdu, psdu, "seed {seed}");
        }
    }

    #[test]
    fn batch_keeps_each_slot_stage_profile() {
        // One decodable burst and one of silence: each slot's profile
        // holds that capture's stage calls alone, the failing stage's
        // partial span included.
        let tx = Transmitter::new(TxConfig::new(9).unwrap());
        let rx = Receiver::new(RxConfig::new(2));
        let mut streams = tx.transmit(&[0x5Au8; 60]).unwrap();
        for s in &mut streams {
            let mut padded = vec![Complex64::ZERO; 120];
            padded.extend_from_slice(s);
            padded.extend(vec![Complex64::ZERO; 80]);
            *s = padded;
        }
        let silence = vec![vec![Complex64::ZERO; streams[0].len()]; 2];
        let captures = [&streams, &silence, &streams];
        let mut batch = RxBatch::new();
        rx.receive_batch(&captures, &mut RxWorkspace::new(), &mut batch);
        for (i, cap) in captures.iter().enumerate() {
            let mut want = StageProfile::default();
            let res = rx.receive_profiled(cap, &mut want);
            assert_eq!(res.is_ok(), batch.result(i).is_ok(), "slot {i}");
            assert_eq!(batch.profile(i).calls, want.calls, "slot {i}");
        }
        assert_eq!(batch.profile(1).total_calls(), 1, "silence fails in detect");
    }
}
