//! Network-scale scenario engine: K concurrent links on one substrate.
//!
//! A scenario file (TOML or JSON) describes a set of named links — each
//! with its own channel preset, SNR/Doppler mobility schedule, seeded
//! chaos faults, transport chunk loss and rate-adaptation policy — plus
//! cross-link interference between links sharing a band. [`ScenarioSpec::run`]
//! executes every link on the [`crate::sweep`] worker pool and merges the
//! per-link [`crate::link::LinkStats`] into a [`ScenarioReport`].
//!
//! # Determinism
//!
//! The report is bit-identical for any `--threads` count *and* any order
//! of the `[[links]]` tables:
//!
//! * every per-link stream derives from
//!   [`seedtree::name_seed`]`(scenario_seed, LINK_TAG, link_name)` — a
//!   hash of the link's *name*, not its list position;
//! * per-round streams split off the link seed with
//!   [`seedtree::trial_seed`]; channel noise, fault placement, transport
//!   loss and payload bytes take disjoint salted branches;
//! * interference a victim receives from link `x` in round `r` is a pure
//!   function of `(scenario_seed, x, r)` — computing it never touches the
//!   interferer's simulation state, so links need no cross-thread
//!   communication;
//! * the report sorts links by name before aggregating, so floating-point
//!   sums always see the same operand order.
//!
//! One modeling choice follows from purity: an interferer's airtime is
//! modeled at its *base* MCS even when it runs rate adaptation. Using the
//! adapted rate would make every link's waveform depend on every other
//! link's delivery history — a fixed-point coupling that serializes the
//! network. The base-rate approximation keeps links embarrassingly
//! parallel and errs toward *more* interference (adaptation only ever
//! shortens frames by raising the rate).
//!
//! Each link is sequential across rounds (the rate controller's state
//! carries between frames), so the unit of parallelism is the link: the
//! engine runs the scenario as a sweep whose grid points are links, one
//! single-trial shard each.

use crate::adapt::{RateController, SnrThresholdTable};
use crate::burst::{self, BurstScratch, GAP, LEAD_IN};
use crate::chaos::{frame_fates, Fate};
use crate::config::{RxConfig, TxConfig};
use crate::link::LinkStats;
use crate::rx::Receiver;
use crate::sweep::{Merge, SweepSpec};
use crate::tx::Transmitter;
use mimonet_channel::{presets, ChannelSim, FaultSchedule, FaultSpec};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::seedtree;
use mimonet_frame::mcs::Mcs;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{json, toml, Serialize, Value};

/// Sample rate the airtime math assumes (20 Msps).
const SAMPLES_PER_US: f64 = 20.0;

/// A failed scenario load or validation, typed.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io(String),
    /// The text was not valid TOML/JSON.
    Parse(String),
    /// The document parsed but violates the schema.
    Invalid(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io(d) => write!(f, "scenario io error: {d}"),
            ScenarioError::Parse(d) => write!(f, "scenario parse error: {d}"),
            ScenarioError::Invalid(d) => write!(f, "invalid scenario: {d}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

/// How links sharing a band couple into each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterferenceModel {
    /// No cross-link coupling (isolated-links baseline).
    None,
    /// Structured co-channel noise: one seeded noise burst per interferer
    /// per round, sized to the interferer's frame airtime. Cheap default.
    Burst,
    /// Full waveform regeneration: the interferer's actual OFDM frame
    /// (base MCS, its own seeded payload) is scaled and summed in.
    Waveform,
}

impl InterferenceModel {
    fn parse(name: &str) -> Result<Self, ScenarioError> {
        match name {
            "none" => Ok(Self::None),
            "burst" => Ok(Self::Burst),
            "waveform" => Ok(Self::Waveform),
            other => Err(invalid(format!(
                "interference model {other:?} (expected none|burst|waveform)"
            ))),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Burst => "burst",
            Self::Waveform => "waveform",
        }
    }
}

/// Cross-link interference configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterferenceSpec {
    /// Coupling model.
    pub model: InterferenceModel,
    /// Interferer power at the victim, dB relative to the victim's unit
    /// signal power (negative = attenuated, the usual case).
    pub coupling_db: f64,
}

impl Default for InterferenceSpec {
    fn default() -> Self {
        Self {
            model: InterferenceModel::None,
            coupling_db: -20.0,
        }
    }
}

/// Transport-layer impairment: the `mimonet-io` stream path drops IQ
/// chunks; a dropped chunk zeroes its sample span at the receiver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransportSpec {
    /// Samples per transport chunk.
    pub chunk_len: usize,
    /// Per-chunk drop probability in `[0, 1]`.
    pub drop_rate: f64,
}

/// One link of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkSpec {
    /// Unique link name — the root of the link's seed derivations.
    pub name: String,
    /// Channel preset name from [`mimonet_channel::presets`].
    pub preset: String,
    /// Base SNR in dB (overridden per round by `mobility`).
    pub snr_db: f64,
    /// Normalized Doppler override: `Some(fd)` replaces the preset's
    /// fading with Jakes at `fd` (overridden per round by `fd_trace`).
    pub fd_norm: Option<f64>,
    /// Carrier frequency offset, subcarrier spacings.
    pub cfo_norm: f64,
    /// Sampling frequency offset, ppm.
    pub sfo_ppm: f64,
    /// Base MCS — the fixed rate without adaptation, the starting point
    /// and interferer-model rate with it.
    pub mcs: u8,
    /// Payload octets per frame.
    pub payload_len: usize,
    /// Band index; links sharing a band interfere.
    pub band: u64,
    /// Fault preset name from [`presets::fault_lookup`].
    pub faults: String,
    /// Run the [`RateController`] adaptation policy.
    pub adapt: bool,
    /// Piecewise-linear SNR schedule: `(round, snr_db)` knots, ascending
    /// in round. Empty = constant `snr_db`.
    pub mobility: Vec<(f64, f64)>,
    /// Piecewise-linear Doppler schedule: `(round, fd_norm)` knots.
    /// Empty = constant `fd_norm` (or the preset's own fading).
    pub fd_trace: Vec<(f64, f64)>,
    /// Transport chunk-loss model, if any.
    pub transport: Option<TransportSpec>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self {
            name: String::new(),
            preset: "awgn".into(),
            snr_db: 25.0,
            fd_norm: None,
            cfo_norm: 0.0,
            sfo_ppm: 0.0,
            mcs: 8,
            payload_len: 256,
            band: 0,
            faults: "none".into(),
            adapt: false,
            mobility: Vec::new(),
            fd_trace: Vec::new(),
            transport: None,
        }
    }
}

/// A full scenario: K links, shared seed, interference policy.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reports, diagnostics).
    pub name: String,
    /// Master seed; every stream in the scenario derives from it.
    pub seed: u64,
    /// Frames per link (the adaptation rounds).
    pub rounds: usize,
    /// Cross-link interference policy.
    pub interference: InterferenceSpec,
    /// The links.
    pub links: Vec<LinkSpec>,
}

impl ScenarioSpec {
    /// Parses a scenario from TOML text.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let value = toml::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Parses a scenario from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let value = json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Loads a scenario file, dispatching on the `.json` extension
    /// (anything else parses as TOML).
    pub fn from_file(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        if path.extension().is_some_and(|e| e == "json") {
            Self::from_json_str(&text)
        } else {
            Self::from_toml_str(&text)
        }
    }

    /// Builds and validates a scenario from a parsed [`Value`] tree.
    ///
    /// Schema: top-level `name` (string, required), `seed` (int, default
    /// 0), `rounds` (int, required), optional `[interference]` table
    /// (`model`, `coupling_db`), optional `[defaults]` table holding any
    /// per-link key, and one `[[links]]` table per link.
    pub fn from_value(root: &Value) -> Result<Self, ScenarioError> {
        check_keys(
            root,
            &[
                "name",
                "seed",
                "rounds",
                "interference",
                "defaults",
                "links",
            ],
            "scenario",
        )?;
        let name = root
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("missing scenario 'name'"))?
            .to_string();
        let seed = match root.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| invalid("'seed' must be a non-negative integer"))?,
        };
        let rounds =
            root.get("rounds")
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid("missing 'rounds' (frames per link)"))? as usize;
        let interference = match root.get("interference") {
            None => InterferenceSpec::default(),
            Some(v) => parse_interference(v)?,
        };
        let defaults = match root.get("defaults") {
            None => LinkSpec::default(),
            Some(v) => parse_link(v, &LinkSpec::default(), true)?,
        };
        let links_value = root
            .get("links")
            .and_then(Value::as_array)
            .ok_or_else(|| invalid("missing [[links]]"))?;
        let mut links = Vec::with_capacity(links_value.len());
        for lv in links_value {
            links.push(parse_link(lv, &defaults, false)?);
        }
        let spec = Self {
            name,
            seed,
            rounds,
            interference,
            links,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the semantic constraints the parser can't express.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid("scenario name must be non-empty"));
        }
        if self.rounds == 0 {
            return Err(invalid("rounds must be >= 1"));
        }
        if self.links.is_empty() {
            return Err(invalid("a scenario needs at least one link"));
        }
        let mut names = std::collections::HashSet::new();
        for link in &self.links {
            if link.name.is_empty() {
                return Err(invalid("every link needs a non-empty 'name'"));
            }
            if !names.insert(link.name.as_str()) {
                return Err(invalid(format!("duplicate link name {:?}", link.name)));
            }
            if presets::lookup(&link.preset).is_none() {
                return Err(invalid(format!(
                    "link {:?}: unknown channel preset {:?}",
                    link.name, link.preset
                )));
            }
            if presets::fault_lookup(&link.faults).is_none() {
                return Err(invalid(format!(
                    "link {:?}: unknown fault preset {:?} (expected one of {:?})",
                    link.name,
                    link.faults,
                    presets::FAULT_PRESETS
                )));
            }
            if TxConfig::new(link.mcs).is_err() {
                return Err(invalid(format!(
                    "link {:?}: invalid MCS {}",
                    link.name, link.mcs
                )));
            }
            if link.adapt && link.mcs < 8 {
                return Err(invalid(format!(
                    "link {:?}: adaptation uses the 2-stream table; base MCS must be 8..=15",
                    link.name
                )));
            }
            if link.payload_len == 0 || link.payload_len > 2048 {
                return Err(invalid(format!(
                    "link {:?}: payload_len outside 1..=2048",
                    link.name
                )));
            }
            if !link.snr_db.is_finite() {
                return Err(invalid(format!(
                    "link {:?}: snr_db must be finite",
                    link.name
                )));
            }
            for (label, trace) in [("mobility", &link.mobility), ("fd_trace", &link.fd_trace)] {
                if !trace.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(invalid(format!(
                        "link {:?}: {label} knots must be ascending in round",
                        link.name
                    )));
                }
            }
            if let Some(t) = &link.transport {
                if t.chunk_len == 0 {
                    return Err(invalid(format!(
                        "link {:?}: transport chunk_len must be >= 1",
                        link.name
                    )));
                }
                if !(0.0..=1.0).contains(&t.drop_rate) {
                    return Err(invalid(format!(
                        "link {:?}: transport drop_rate outside [0, 1]",
                        link.name
                    )));
                }
            }
        }
        if !self.interference.coupling_db.is_finite() {
            return Err(invalid("interference coupling_db must be finite"));
        }
        Ok(())
    }

    /// Runs the scenario on `threads` workers (0 = auto) and returns the
    /// merged report. Bit-identical for any thread count and link order.
    pub fn run(&self, threads: usize) -> ScenarioReport {
        // One grid point per link, one single-trial shard each: the
        // sweep pool schedules links across workers while each link
        // stays sequential (the adaptation state is a chain).
        let sweep = SweepSpec::new(format!("scenario/{}", self.name), self.links.clone(), 1)
            .seed(self.seed)
            .shard_size(1)
            .threads(threads);
        let result = sweep.run(|link: &LinkSpec, _ctx, out: &mut LinkReport| {
            *out = self.run_link(link);
        });
        let mut links = result.stats;
        // Name order, not file order: aggregation below folds floats in
        // a deterministic sequence and the report is order-invariant.
        links.sort_by(|a, b| a.name.cmp(&b.name));
        ScenarioReport {
            name: self.name.clone(),
            seed: self.seed,
            rounds: self.rounds,
            interference: self.interference,
            links,
        }
    }

    /// Runs one link of the scenario, sequentially across rounds.
    pub fn run_link(&self, link: &LinkSpec) -> LinkReport {
        let link_seed = seedtree::name_seed(self.seed, seedtree::LINK_TAG, &link.name);
        let mut controller = link
            .adapt
            .then(|| RateController::new(SnrThresholdTable::default_two_stream()));
        let interferers: Vec<Interferer> = if self.interference.model == InterferenceModel::None {
            Vec::new()
        } else {
            // Name order, not file order: injections add floats into the
            // capture, and float addition is order-sensitive — the same
            // set of interferers must always sum in the same sequence.
            let mut sources: Vec<&LinkSpec> = self
                .links
                .iter()
                .filter(|o| o.band == link.band && o.name != link.name)
                .collect();
            sources.sort_by(|a, b| a.name.cmp(&b.name));
            sources.iter().map(|o| Interferer::new(self, o)).collect()
        };
        let mut report = LinkReport {
            name: link.name.clone(),
            band: link.band,
            final_mcs: link.mcs,
            ..LinkReport::default()
        };
        for round in 0..self.rounds {
            let round_seed = seedtree::trial_seed(link_seed, seedtree::ROUND_TAG, round);
            let mcs = controller
                .as_ref()
                .map(|c| c.current_mcs())
                .unwrap_or(link.mcs);
            let outcome = self.run_round(link, mcs, round, round_seed, &interferers, &mut report);
            if let Some(c) = controller.as_mut() {
                c.update(outcome.delivered, outcome.snr_db);
                report.final_mcs = c.current_mcs();
            }
            report.mcs_sum += mcs as u64;
            report.rounds += 1;
        }
        report
    }

    /// One frame: TX at `mcs` → per-round channel → faults → transport
    /// loss → co-channel interference → scan → score.
    fn run_round(
        &self,
        link: &LinkSpec,
        mcs: u8,
        round: usize,
        round_seed: u64,
        interferers: &[Interferer],
        report: &mut LinkReport,
    ) -> RoundOutcome {
        let built = self.build_round(link, mcs, round, round_seed, interferers, report);
        let n = built.rx.len();
        let receiver = Receiver::new(RxConfig::new(n));
        let (frames, scan) = receiver.scan(&built.rx);
        self.score_round(link, &built, &frames, &scan, report)
    }

    /// The TX half of one round: everything up to (and including) the
    /// impaired capture the receiver will scan.
    fn build_round(
        &self,
        link: &LinkSpec,
        mcs: u8,
        round: usize,
        round_seed: u64,
        interferers: &[Interferer],
        report: &mut LinkReport,
    ) -> BuiltRound {
        let tx = Transmitter::new(TxConfig::new(mcs).expect("validated MCS"));
        let n = tx.mcs().n_streams;

        // Payload bytes: own salted stream, pure in (link, round).
        let mut psdu_rng =
            ChaCha8Rng::seed_from_u64(seedtree::salted(round_seed, seedtree::PSDU_SALT));
        let psdu: Vec<u8> = (0..link.payload_len).map(|_| psdu_rng.gen()).collect();
        let frame_samples = tx.frame_len(psdu.len());

        // Channel for this round: mobility schedules override SNR/Doppler.
        let snr_db = trace_eval(&link.mobility, round, link.snr_db);
        let fd = match (&link.fd_trace[..], link.fd_norm) {
            ([], None) => None,
            ([], Some(fd)) => Some(fd),
            (trace, base) => Some(trace_eval(trace, round, base.unwrap_or(0.0))),
        };
        let mut chan_cfg = match fd {
            Some(fd) => presets::jakes(fd, n, n, snr_db),
            None => presets::channel(&link.preset, n, n, snr_db).expect("validated preset"),
        };
        chan_cfg.cfo_norm = link.cfo_norm;
        chan_cfg.sfo_ppm = link.sfo_ppm;
        let mut chan = ChannelSim::new(
            chan_cfg,
            seedtree::salted(round_seed, seedtree::CHANNEL_SALT),
        );
        let mut rx = vec![Vec::new(); n];
        burst::generate(
            &tx,
            &mut chan,
            std::slice::from_ref(&psdu),
            LEAD_IN,
            GAP,
            &mut BurstScratch::default(),
            &mut rx,
        )
        .expect("valid PSDU");
        let capture_len = rx.iter().map(|a| a.len()).min().unwrap_or(0);

        // Chaos faults on the received samples.
        let fault_spec = presets::fault_lookup(&link.faults).expect("validated fault preset");
        if !matches!(
            fault_spec,
            FaultSpec {
                bursts: 0,
                dropouts: 0,
                impulses: 0,
                desyncs: 0,
                ..
            }
        ) || fault_spec.truncate_frac < 1.0
        {
            let sched = FaultSchedule::generate(
                &fault_spec,
                capture_len,
                seedtree::salted(round_seed, seedtree::FAULT_SALT),
            );
            let fr = sched.apply(&mut rx);
            report.stats.recovery.record_events(fr.events.len() as u64);
        }

        // Transport chunk loss: the io stream path dropping IQ chunks.
        // The decision stream is the shared `netfault::LossSchedule`
        // primitive (same one the netchaos proxy draws from), seeded per
        // round — byte-identical to the historical inline derivation.
        if let Some(t) = &link.transport {
            if t.drop_rate > 0.0 {
                let mut sched = crate::netfault::LossSchedule::for_round(round_seed);
                let mut start = 0;
                while start < capture_len {
                    let end = (start + t.chunk_len).min(capture_len);
                    if sched.drop_next(t.drop_rate) {
                        for ant in rx.iter_mut() {
                            let stop = end.min(ant.len());
                            for s in &mut ant[start.min(stop)..stop] {
                                *s = Complex64::ZERO;
                            }
                        }
                        report.dropped_chunks += 1;
                    }
                    start = end;
                }
            }
        }

        // Co-channel interference from band mates: pure in
        // (scenario seed, interferer name, round).
        for interferer in interferers {
            interferer.inject(&mut rx, round, self.interference.coupling_db);
        }

        BuiltRound {
            psdu,
            frame_samples,
            rx,
        }
    }

    /// The scoring half of one round: the chaos harness's lost-frame rule
    /// over the scan's decoded frames, with no failed-attempt events.
    fn score_round(
        &self,
        link: &LinkSpec,
        built: &BuiltRound,
        frames: &[(usize, crate::rx::RxFrame)],
        scan: &crate::rx::ScanStats,
        report: &mut LinkReport,
    ) -> RoundOutcome {
        let BuiltRound {
            psdu,
            frame_samples,
            ..
        } = built;
        let frame_samples = *frame_samples;
        report.stats.recovery.record_rescans(scan.rescans as u64);
        let span = (LEAD_IN, LEAD_IN + frame_samples);
        let fate = frame_fates(&[(span, psdu)], frames, &[])[0];
        let delivered = matches!(fate, Fate::Delivered(_));
        let snr_feedback = match fate {
            Fate::Delivered(i) => {
                let f = &frames[i].1;
                report.stats.per.record_ok();
                report.stats.outcomes.record_ok();
                report.stats.snr_est_db.push(f.snr_db);
                if let Some(e) = f.evm_snr_db {
                    report.stats.evm_snr_db.push(e);
                }
                report.stats.cfo_error.push(f.cfo - link.cfo_norm);
                report.delivered_octets += link.payload_len as u64;
                Some(f.snr_db)
            }
            Fate::Corrupt(i) => {
                report.stats.per.record_sync_failure();
                report.stats.outcomes.record_payload_fail();
                Some(frames[i].1.snr_db)
            }
            Fate::Rejected(_) | Fate::Missed => {
                report.stats.per.record_sync_failure();
                report.stats.outcomes.record_sync_miss();
                None
            }
        };
        report.airtime_us += frame_samples as f64 / SAMPLES_PER_US;
        RoundOutcome {
            delivered,
            snr_db: snr_feedback,
        }
    }
}

/// What one round feeds back to the rate controller.
struct RoundOutcome {
    delivered: bool,
    snr_db: Option<f64>,
}

/// One round's impaired capture plus what scoring needs to claim it.
struct BuiltRound {
    psdu: Vec<u8>,
    frame_samples: usize,
    rx: Vec<Vec<Complex64>>,
}

/// Precomputed interference source: everything needed to inject link
/// `x`'s round-`r` emission into a victim capture without touching `x`'s
/// simulation state.
struct Interferer {
    /// Seed root: `name_seed(scenario_seed, XLINK_TAG, x.name)`.
    seed: u64,
    /// Interferer frame duration in samples at its base MCS.
    duration: usize,
    /// Base MCS and payload for the waveform model.
    mcs: u8,
    payload_len: usize,
    model: InterferenceModel,
}

impl Interferer {
    fn new(scenario: &ScenarioSpec, x: &LinkSpec) -> Self {
        let mcs = Mcs::from_index(x.mcs).expect("validated MCS");
        Self {
            seed: seedtree::name_seed(scenario.seed, seedtree::XLINK_TAG, &x.name),
            duration: crate::tx::frame_len(&mcs, x.payload_len),
            mcs: x.mcs,
            payload_len: x.payload_len,
            model: scenario.interference.model,
        }
    }

    /// Adds this interferer's round-`round` emission to `rx`.
    fn inject(&self, rx: &mut [Vec<Complex64>], round: usize, coupling_db: f64) {
        let capture_len = rx.iter().map(|a| a.len()).min().unwrap_or(0);
        if capture_len == 0 {
            return;
        }
        let round_seed = seedtree::trial_seed(self.seed, seedtree::ROUND_TAG, round);
        let mut rng = ChaCha8Rng::seed_from_u64(round_seed);
        // Unslotted timing: the interferer's frame is not synchronized to
        // the victim's, so its emission can straddle either edge of the
        // capture — partial collisions, not guaranteed full overlap.
        let start = rng.gen_range(0..capture_len + self.duration) as i64 - self.duration as i64;
        let offset = start.max(0) as usize;
        // How far into the interferer's emission the capture starts.
        let skip = (-start).max(0) as usize;
        let duration = (self.duration - skip).min(capture_len - offset);
        if duration == 0 {
            return;
        }
        let power = 10f64.powf(coupling_db / 10.0);
        match self.model {
            InterferenceModel::None => {}
            InterferenceModel::Burst => {
                // Uniform complex noise; components scaled so the burst's
                // mean power equals the coupling (uniform on [-1,1] has
                // power 1/3 per component).
                let amp = (1.5 * power).sqrt();
                for ant in rx.iter_mut() {
                    let end = (offset + duration).min(ant.len());
                    for s in &mut ant[offset.min(end)..end] {
                        let re: f64 = rng.gen_range(-1.0..1.0);
                        let im: f64 = rng.gen_range(-1.0..1.0);
                        *s += Complex64::new(amp * re, amp * im);
                    }
                }
            }
            InterferenceModel::Waveform => {
                // The interferer's actual frame for this round: its PSDU
                // stream reuses the same derivation its own simulation
                // uses, so the waveform is exactly what it transmitted.
                let mut psdu_rng =
                    ChaCha8Rng::seed_from_u64(seedtree::salted(round_seed, seedtree::PSDU_SALT));
                let psdu: Vec<u8> = (0..self.payload_len).map(|_| psdu_rng.gen()).collect();
                let tx = Transmitter::new(TxConfig::new(self.mcs).expect("validated MCS"));
                let streams = tx.transmit(&psdu).expect("valid PSDU");
                let amp = power.sqrt();
                for (i, ant) in rx.iter_mut().enumerate() {
                    let src = &streams[i % streams.len()];
                    if skip >= src.len() {
                        continue;
                    }
                    let take = duration.min(src.len() - skip);
                    let end = (offset + take).min(ant.len());
                    for (s, x) in ant[offset.min(end)..end].iter_mut().zip(&src[skip..]) {
                        *s += Complex64::new(amp * x.re, amp * x.im);
                    }
                }
            }
        }
    }
}

/// Piecewise-linear evaluation of a `(round, value)` trace at `round`,
/// clamping outside the knot range; `base` when the trace is empty.
pub fn trace_eval(trace: &[(f64, f64)], round: usize, base: f64) -> f64 {
    let r = round as f64;
    match trace {
        [] => base,
        [(r0, v0), ..] if r <= *r0 => *v0,
        [.., (rn, vn)] if r >= *rn => *vn,
        _ => {
            let i = trace.partition_point(|&(k, _)| k <= r);
            let (r0, v0) = trace[i - 1];
            let (r1, v1) = trace[i];
            v0 + (v1 - v0) * (r - r0) / (r1 - r0)
        }
    }
}

/// Per-link results of a scenario run.
#[derive(Clone, Debug, Default)]
pub struct LinkReport {
    /// The link's name.
    pub name: String,
    /// The link's band.
    pub band: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Full link statistics (delivery, BER, estimator accuracy, outcome
    /// taxonomy, recovery accounting).
    pub stats: LinkStats,
    /// Payload octets delivered.
    pub delivered_octets: u64,
    /// Total frame airtime, microseconds.
    pub airtime_us: f64,
    /// Sum of per-round MCS indices (mean = `mcs_sum / rounds`).
    pub mcs_sum: u64,
    /// The rate controller's final MCS (base MCS without adaptation).
    pub final_mcs: u8,
    /// Transport chunks dropped.
    pub dropped_chunks: u64,
}

impl LinkReport {
    /// Delivered payload bits over total airtime, Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        if self.airtime_us > 0.0 {
            (self.delivered_octets * 8) as f64 / self.airtime_us
        } else {
            0.0
        }
    }

    /// Mean MCS across rounds.
    pub fn mean_mcs(&self) -> f64 {
        if self.rounds > 0 {
            self.mcs_sum as f64 / self.rounds as f64
        } else {
            0.0
        }
    }
}

impl Merge for LinkReport {
    /// A link runs as a single shard; merging only ever folds the real
    /// report into the identity.
    fn merge(&mut self, other: &Self) {
        if self.rounds == 0 && self.name.is_empty() {
            *self = other.clone();
        } else if other.rounds > 0 || !other.name.is_empty() {
            panic!("scenario links are single-shard; nothing to merge");
        }
    }
}

impl Serialize for LinkReport {
    fn serialize(&self) -> Value {
        Value::object([
            ("name", Value::Str(self.name.clone())),
            ("band", Value::U64(self.band)),
            ("rounds", Value::U64(self.rounds)),
            ("delivered_octets", Value::U64(self.delivered_octets)),
            ("airtime_us", Value::F64(self.airtime_us)),
            ("goodput_mbps", Value::F64(self.goodput_mbps())),
            ("mean_mcs", Value::F64(self.mean_mcs())),
            ("final_mcs", Value::U64(self.final_mcs as u64)),
            ("dropped_chunks", Value::U64(self.dropped_chunks)),
            ("stats", self.stats.serialize()),
        ])
    }
}

/// The scenario-level report: links (sorted by name) plus aggregates.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Rounds per link.
    pub rounds: usize,
    /// The interference policy that was in force.
    pub interference: InterferenceSpec,
    /// Per-link reports, sorted by link name.
    pub links: Vec<LinkReport>,
}

impl ScenarioReport {
    /// Network aggregate goodput: links are concurrent, so the aggregate
    /// is the sum of per-link goodputs (folded in name order).
    pub fn aggregate_goodput_mbps(&self) -> f64 {
        self.links.iter().map(LinkReport::goodput_mbps).sum()
    }

    /// Frames delivered across all links.
    pub fn delivered(&self) -> u64 {
        self.links.iter().map(|l| l.stats.per.ok()).sum()
    }

    /// Frames sent across all links.
    pub fn sent(&self) -> u64 {
        self.links.iter().map(|l| l.stats.per.sent()).sum()
    }

    /// Network delivery rate.
    pub fn delivery_rate(&self) -> f64 {
        let sent = self.sent();
        if sent > 0 {
            self.delivered() as f64 / sent as f64
        } else {
            0.0
        }
    }

    /// Merged frame-outcome taxonomy, folded in name order.
    pub fn outcomes(&self) -> crate::telemetry::FrameOutcomes {
        let mut out = crate::telemetry::FrameOutcomes::default();
        for link in &self.links {
            Merge::merge(&mut out, &link.stats.outcomes);
        }
        out
    }
}

impl Serialize for ScenarioReport {
    fn serialize(&self) -> Value {
        Value::object([
            ("name", Value::Str(self.name.clone())),
            ("seed", Value::U64(self.seed)),
            ("rounds", Value::U64(self.rounds as u64)),
            (
                "interference",
                Value::object([
                    ("model", Value::Str(self.interference.model.name().into())),
                    ("coupling_db", Value::F64(self.interference.coupling_db)),
                ]),
            ),
            (
                "aggregate",
                Value::object([
                    ("goodput_mbps", Value::F64(self.aggregate_goodput_mbps())),
                    ("delivered", Value::U64(self.delivered())),
                    ("sent", Value::U64(self.sent())),
                    ("delivery_rate", Value::F64(self.delivery_rate())),
                    ("outcomes", self.outcomes().serialize()),
                ]),
            ),
            (
                "links",
                Value::Array(self.links.iter().map(Serialize::serialize).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Value-tree parsing helpers.

/// Rejects unknown keys — typos in scenario files fail loudly instead of
/// silently running defaults.
fn check_keys(value: &Value, allowed: &[&str], what: &str) -> Result<(), ScenarioError> {
    let Some(pairs) = value.as_object() else {
        return Err(invalid(format!("{what} must be a table")));
    };
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(invalid(format!(
                "{what}: unknown key {k:?} (allowed: {allowed:?})"
            )));
        }
    }
    Ok(())
}

fn parse_interference(value: &Value) -> Result<InterferenceSpec, ScenarioError> {
    check_keys(value, &["model", "coupling_db"], "interference")?;
    let mut spec = InterferenceSpec::default();
    if let Some(v) = value.get("model") {
        let name = v
            .as_str()
            .ok_or_else(|| invalid("interference 'model' must be a string"))?;
        spec.model = InterferenceModel::parse(name)?;
    } else {
        // An [interference] table without an explicit model means "on".
        spec.model = InterferenceModel::Burst;
    }
    if let Some(v) = value.get("coupling_db") {
        spec.coupling_db = v
            .as_f64()
            .ok_or_else(|| invalid("interference 'coupling_db' must be a number"))?;
    }
    Ok(spec)
}

fn parse_trace(value: &Value, what: &str) -> Result<Vec<(f64, f64)>, ScenarioError> {
    let items = value
        .as_array()
        .ok_or_else(|| invalid(format!("{what} must be an array of [round, value] pairs")))?;
    let mut trace = Vec::with_capacity(items.len());
    for item in items {
        let pair = item
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| invalid(format!("{what} entries must be [round, value] pairs")))?;
        let r = pair[0]
            .as_f64()
            .ok_or_else(|| invalid(format!("{what}: round must be a number")))?;
        let v = pair[1]
            .as_f64()
            .ok_or_else(|| invalid(format!("{what}: value must be a number")))?;
        trace.push((r, v));
    }
    Ok(trace)
}

/// Parses one link table over `defaults`. `is_defaults` permits the
/// nameless `[defaults]` table itself.
fn parse_link(
    value: &Value,
    defaults: &LinkSpec,
    is_defaults: bool,
) -> Result<LinkSpec, ScenarioError> {
    check_keys(
        value,
        &[
            "name",
            "preset",
            "snr_db",
            "fd_norm",
            "cfo_norm",
            "sfo_ppm",
            "mcs",
            "payload_len",
            "band",
            "faults",
            "adapt",
            "mobility",
            "fd_trace",
            "transport",
        ],
        "link",
    )?;
    let mut link = defaults.clone();
    match value.get("name") {
        Some(v) => {
            link.name = v
                .as_str()
                .ok_or_else(|| invalid("link 'name' must be a string"))?
                .to_string()
        }
        None if is_defaults => {}
        None => return Err(invalid("every [[links]] entry needs a 'name'")),
    }
    if let Some(v) = value.get("preset") {
        link.preset = v
            .as_str()
            .ok_or_else(|| invalid("link 'preset' must be a string"))?
            .to_string();
    }
    if let Some(v) = value.get("snr_db") {
        link.snr_db = v
            .as_f64()
            .ok_or_else(|| invalid("link 'snr_db' must be a number"))?;
    }
    if let Some(v) = value.get("fd_norm") {
        link.fd_norm = Some(
            v.as_f64()
                .ok_or_else(|| invalid("link 'fd_norm' must be a number"))?,
        );
    }
    if let Some(v) = value.get("cfo_norm") {
        link.cfo_norm = v
            .as_f64()
            .ok_or_else(|| invalid("link 'cfo_norm' must be a number"))?;
    }
    if let Some(v) = value.get("sfo_ppm") {
        link.sfo_ppm = v
            .as_f64()
            .ok_or_else(|| invalid("link 'sfo_ppm' must be a number"))?;
    }
    if let Some(v) = value.get("mcs") {
        link.mcs = v
            .as_u64()
            .filter(|&m| m <= u8::MAX as u64)
            .ok_or_else(|| invalid("link 'mcs' must be a small integer"))? as u8;
    }
    if let Some(v) = value.get("payload_len") {
        link.payload_len = v
            .as_u64()
            .ok_or_else(|| invalid("link 'payload_len' must be an integer"))?
            as usize;
    }
    if let Some(v) = value.get("band") {
        link.band = v
            .as_u64()
            .ok_or_else(|| invalid("link 'band' must be a non-negative integer"))?;
    }
    if let Some(v) = value.get("faults") {
        link.faults = v
            .as_str()
            .ok_or_else(|| invalid("link 'faults' must be a fault preset name"))?
            .to_string();
    }
    if let Some(v) = value.get("adapt") {
        link.adapt = v
            .as_bool()
            .ok_or_else(|| invalid("link 'adapt' must be a boolean"))?;
    }
    if let Some(v) = value.get("mobility") {
        link.mobility = parse_trace(v, "mobility")?;
    }
    if let Some(v) = value.get("fd_trace") {
        link.fd_trace = parse_trace(v, "fd_trace")?;
    }
    if let Some(v) = value.get("transport") {
        check_keys(v, &["chunk_len", "drop_rate"], "transport")?;
        let chunk_len = v
            .get("chunk_len")
            .map(|c| {
                c.as_u64()
                    .ok_or_else(|| invalid("transport 'chunk_len' must be an integer"))
            })
            .transpose()?
            .unwrap_or(1024) as usize;
        let drop_rate = v
            .get("drop_rate")
            .map(|d| {
                d.as_f64()
                    .ok_or_else(|| invalid("transport 'drop_rate' must be a number"))
            })
            .transpose()?
            .unwrap_or(0.0);
        link.transport = Some(TransportSpec {
            chunk_len,
            drop_rate,
        });
    }
    Ok(link)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUEL: &str = r#"
        name = "duel"
        seed = 9
        rounds = 4

        [interference]
        model = "burst"
        coupling_db = -14.0

        [defaults]
        mcs = 8
        payload_len = 64
        snr_db = 30.0

        [[links]]
        name = "a"

        [[links]]
        name = "b"
        adapt = true
        mobility = [[0, 30.0], [3, 24.0]]
    "#;

    #[test]
    fn toml_scenario_parses_with_defaults() {
        let spec = ScenarioSpec::from_toml_str(DUEL).unwrap();
        assert_eq!(spec.name, "duel");
        assert_eq!(spec.links.len(), 2);
        assert_eq!(spec.links[0].payload_len, 64);
        assert_eq!(spec.links[1].mobility.len(), 2);
        assert!(spec.links[1].adapt);
        assert_eq!(spec.interference.model, InterferenceModel::Burst);
        assert_eq!(spec.interference.coupling_db, -14.0);
    }

    #[test]
    fn json_scenario_parses() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name":"j","rounds":2,"links":[{"name":"x","snr_db":28.0,"payload_len":40}]}"#,
        )
        .unwrap();
        assert_eq!(spec.links[0].name, "x");
        assert_eq!(spec.links[0].payload_len, 40);
        assert_eq!(spec.interference.model, InterferenceModel::None);
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let cases: &[(&str, &str)] = &[
            ("name = \"x\"\nrounds = 1\n", "no links"),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\n[[links]]\nname = \"a\"\n",
                "duplicate name",
            ),
            (
                "name = \"x\"\nrounds = 0\n[[links]]\nname = \"a\"\n",
                "zero rounds",
            ),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\npreset = \"nope\"\n",
                "unknown preset",
            ),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\nfaults = \"nope\"\n",
                "unknown fault preset",
            ),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\nmcs = 3\nadapt = true\n",
                "1-stream adapt",
            ),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\nbogus_key = 1\n",
                "unknown key",
            ),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\nmobility = [[3, 1.0], [1, 2.0]]\n",
                "descending trace",
            ),
            (
                "name = \"x\"\nrounds = 1\n[[links]]\nname = \"a\"\ntransport = { drop_rate = 1.5 }\n",
                "drop rate out of range",
            ),
        ];
        for (text, why) in cases {
            assert!(
                ScenarioSpec::from_toml_str(text).is_err(),
                "accepted scenario with {why}"
            );
        }
    }

    #[test]
    fn trace_eval_interpolates_and_clamps() {
        let trace = [(2.0, 10.0), (6.0, 30.0)];
        assert_eq!(trace_eval(&trace, 0, 99.0), 10.0);
        assert_eq!(trace_eval(&trace, 2, 99.0), 10.0);
        assert_eq!(trace_eval(&trace, 4, 99.0), 20.0);
        assert_eq!(trace_eval(&trace, 6, 99.0), 30.0);
        assert_eq!(trace_eval(&trace, 9, 99.0), 30.0);
        assert_eq!(trace_eval(&[], 5, 42.0), 42.0);
    }

    #[test]
    fn clean_two_link_scenario_delivers() {
        let spec = ScenarioSpec::from_toml_str(DUEL).unwrap();
        let report = spec.run(1);
        assert_eq!(report.links.len(), 2);
        assert_eq!(report.sent(), 8);
        assert!(
            report.delivery_rate() > 0.7,
            "30 dB duel should mostly deliver: {}",
            report.delivery_rate()
        );
        assert!(report.aggregate_goodput_mbps() > 0.0);
        for link in &report.links {
            assert_eq!(link.rounds, 4);
            assert_eq!(link.stats.outcomes.total(), 4);
        }
    }

    #[test]
    fn thread_count_and_link_order_do_not_change_the_report() {
        let spec = ScenarioSpec::from_toml_str(DUEL).unwrap();
        let mut shuffled = spec.clone();
        shuffled.links.reverse();
        let a = json::to_string(&spec.run(1).serialize());
        let b = json::to_string(&spec.run(4).serialize());
        let c = json::to_string(&shuffled.run(2).serialize());
        assert_eq!(a, b, "thread count changed the report");
        assert_eq!(a, c, "link order changed the report");
    }

    #[test]
    fn interference_degrades_shared_band_links() {
        let base = r#"
            name = "iso"
            seed = 3
            rounds = 6
            [defaults]
            mcs = 8
            payload_len = 96
            snr_db = 26.0
            [[links]]
            name = "a"
            [[links]]
            name = "b"
            [[links]]
            name = "c"
        "#;
        let isolated = ScenarioSpec::from_toml_str(base).unwrap();
        let mut jammed = isolated.clone();
        jammed.interference = InterferenceSpec {
            model: InterferenceModel::Burst,
            coupling_db: 3.0,
        };
        let clean = isolated.run(2);
        let noisy = jammed.run(2);
        assert!(
            noisy.delivered() < clean.delivered(),
            "strong co-channel bursts must cost frames: {} !< {}",
            noisy.delivered(),
            clean.delivered()
        );
    }

    #[test]
    fn waveform_interference_runs_and_differs_from_burst() {
        let mut spec = ScenarioSpec::from_toml_str(DUEL).unwrap();
        spec.interference.model = InterferenceModel::Waveform;
        let w = json::to_string(&spec.run(1).serialize());
        spec.interference.model = InterferenceModel::Burst;
        let b = json::to_string(&spec.run(1).serialize());
        assert_ne!(w, b, "the two interference models must not coincide");
    }

    #[test]
    fn adaptation_climbs_on_a_clean_link() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
            name = "climb"
            seed = 1
            rounds = 12
            [[links]]
            name = "a"
            mcs = 8
            adapt = true
            snr_db = 34.0
            payload_len = 64
        "#,
        )
        .unwrap();
        let report = spec.run(1);
        let link = &report.links[0];
        assert!(
            link.final_mcs > 8,
            "a 34 dB link must climb above the base rate (final {})",
            link.final_mcs
        );
        assert!(link.mean_mcs() > 8.0);
    }

    #[test]
    fn transport_loss_drops_chunks_deterministically() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
            name = "lossy"
            seed = 5
            rounds = 4
            [[links]]
            name = "a"
            snr_db = 30.0
            payload_len = 64
            transport = { chunk_len = 256, drop_rate = 0.5 }
        "#,
        )
        .unwrap();
        let a = spec.run(1);
        let b = spec.run(3);
        assert!(a.links[0].dropped_chunks > 0, "50% chunk loss must drop");
        assert_eq!(a.links[0].dropped_chunks, b.links[0].dropped_chunks);
        assert!(a.delivery_rate() < 1.0, "chunk loss must cost frames");
    }
}
