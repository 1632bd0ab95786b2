//! Link-service sessions: seeded PSDU generation, the TX→channel→RX
//! flowgraph run, capture building for record/replay, and the scoring
//! that folds decode results into `LinkStats`.
//!
//! Everything here is a pure function of a [`SessionConfig`], so a
//! session run in-process, behind `mimonet-linkd`, or replayed from a
//! capture file can be compared field-for-field. Scoring claims decoded
//! frames against the sent PSDUs by exact byte equality (one claim per
//! frame — duplicates don't double count), the same discipline as the
//! chaos harness.

use crate::wire::{DecodedFrame, SessionConfig};
use mimonet::blocks::{build_link_flowgraph, build_link_flowgraph_traced, LinkTracer};
use mimonet::burst::{self, BurstScratch};
use mimonet::config::{RxConfig, TxConfig};
use mimonet::link::LinkStats;
use mimonet::rx::{RxFrame, ScanStats};
use mimonet::tx::Transmitter;
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_runtime::{GraphSnapshot, Message, MessageHub};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::sync::Arc;

/// Hard ceiling on per-frame payload a session may request.
pub const MAX_SESSION_PAYLOAD: u32 = 2048;
/// Hard ceiling on frames per session.
pub const MAX_SESSION_FRAMES: u32 = 4096;

/// Salt between the master seed and the payload RNG, so payload bytes
/// and channel noise never share a stream.
const PSDU_SEED_SALT: u64 = mimonet_dsp::seedtree::PSDU_SALT;
/// Salt for the capture-path channel simulator (mirrors `LinkSim`).
const CHANNEL_SEED_SALT: u64 = mimonet_dsp::seedtree::CHANNEL_SALT;

/// Which scheduler executes the session flowgraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Deterministic single-threaded scheduler (`Flowgraph::run`).
    SingleThread,
    /// Supervised thread-per-block scheduler (`Flowgraph::run_threaded`)
    /// — the in-process reference `mimonet-linkd --assert-local` and
    /// `selftest` compare served sessions against.
    Threaded,
}

/// A failed session, typed.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// The request was invalid (bad MCS, oversized payload, ...).
    BadConfig(String),
    /// The flowgraph failed (block error, panic, stall).
    Graph(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::BadConfig(d) => write!(f, "bad session config: {d}"),
            SessionError::Graph(d) => write!(f, "session flowgraph failed: {d}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Everything a completed session produced.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Decoded frames in decode order.
    pub decoded: Vec<DecodedFrame>,
    /// Delivery statistics scored against the sent PSDUs.
    pub stats: LinkStats,
    /// Per-block scheduler telemetry for the session's flowgraph.
    pub telemetry: GraphSnapshot,
}

/// Validates the knobs a remote client controls.
pub fn validate_config(cfg: &SessionConfig) -> Result<TxConfig, SessionError> {
    let tx_cfg = TxConfig::new(cfg.mcs)
        .map_err(|_| SessionError::BadConfig(format!("invalid MCS index {}", cfg.mcs)))?;
    if cfg.payload_len == 0 || cfg.payload_len > MAX_SESSION_PAYLOAD {
        return Err(SessionError::BadConfig(format!(
            "payload_len {} outside 1..={MAX_SESSION_PAYLOAD}",
            cfg.payload_len
        )));
    }
    if cfg.n_frames == 0 || cfg.n_frames > MAX_SESSION_FRAMES {
        return Err(SessionError::BadConfig(format!(
            "n_frames {} outside 1..={MAX_SESSION_FRAMES}",
            cfg.n_frames
        )));
    }
    if !cfg.snr_db.is_finite() {
        return Err(SessionError::BadConfig("snr_db must be finite".into()));
    }
    Ok(tx_cfg)
}

/// The session's PSDUs — a pure function of the config.
pub fn session_psdus(cfg: &SessionConfig) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ PSDU_SEED_SALT);
    (0..cfg.n_frames)
        .map(|_| (0..cfg.payload_len).map(|_| rng.gen()).collect())
        .collect()
}

/// Telemetry-round callback: `(round, telemetry_json)`.
pub type OnUpdate<'a> = &'a mut dyn FnMut(u32, &str);

/// Observability hooks threaded through a session run.
#[derive(Default)]
pub struct SessionObserver<'a> {
    /// Trace every frame's lifecycle into this collector (trace root
    /// included); `None` runs untraced.
    pub tracer: Option<LinkTracer>,
    /// Called with `(round, telemetry_json)` once per
    /// `SessionConfig::telemetry_every` decoded frames, in round order,
    /// after the graph finishes. Round `r` is `{"round": r, "decoded":
    /// (r + 1) * every, "blocks": ..}` with the graph's final block
    /// snapshot. Ignored when `telemetry_every` is 0.
    pub on_update: Option<OnUpdate<'a>>,
}

/// Runs one session's flowgraph locally and scores it. This is both the
/// daemon's per-connection body and the reference the loopback tests
/// compare a served session against.
pub fn run_session(
    cfg: &SessionConfig,
    scheduler: Scheduler,
) -> Result<SessionOutcome, SessionError> {
    run_session_observed(cfg, scheduler, SessionObserver::default())
}

/// [`run_session`] with the observability plane attached: frame-lifecycle
/// tracing via [`SessionObserver::tracer`] and per-round telemetry via
/// [`SessionObserver::on_update`]. The rounds are computed on the calling
/// thread once the graph finishes, one per `telemetry_every` decoded
/// frames, each carrying the graph's final block snapshot, so the rounds
/// a session emits are a deterministic function of its decode outcome.
pub fn run_session_observed(
    cfg: &SessionConfig,
    scheduler: Scheduler,
    obs: SessionObserver<'_>,
) -> Result<SessionOutcome, SessionError> {
    let tx_cfg = validate_config(cfg)?;
    let n_streams = tx_cfg.mcs.n_streams;
    let psdus = session_psdus(cfg);
    let flat: Vec<u8> = psdus.concat();
    let chan_cfg = ChannelConfig::awgn(n_streams, n_streams, cfg.snr_db);
    let rx_cfg = RxConfig::new(n_streams);
    let traced = obs.tracer.is_some();
    let (mut fg, _sink, _ids) = match obs.tracer {
        Some(tracer) => build_link_flowgraph_traced(
            tx_cfg,
            chan_cfg,
            rx_cfg,
            &flat,
            cfg.payload_len as usize,
            cfg.seed,
            tracer,
        ),
        None => build_link_flowgraph(
            tx_cfg,
            chan_cfg,
            rx_cfg,
            &flat,
            cfg.payload_len as usize,
            cfg.seed,
        ),
    };
    let tel = fg.instrument();
    let hub = Arc::new(MessageHub::new());
    let frames_sub = hub.subscribe("mimonet.frames");
    let snr_sub = hub.subscribe("mimonet.snr");
    let trace_sub = traced.then(|| hub.subscribe("mimonet.trace"));

    match scheduler {
        Scheduler::SingleThread => fg.run(&hub),
        Scheduler::Threaded => fg.run_threaded(hub.clone()),
    }
    .map_err(|e| SessionError::Graph(e.to_string()))?;

    // RxBlock publishes one snr + one frame (+ one trace id when traced)
    // per decode, from one thread, so the topics pair up positionally
    // under either scheduler.
    let frames = frames_sub.drain();
    let snrs = snr_sub.drain();
    let traces: Vec<u64> = trace_sub
        .map(|sub| {
            sub.drain()
                .into_iter()
                .map(|m| match m {
                    Message::Event(hex) => {
                        u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("trace id hex")
                    }
                    other => panic!("unexpected trace message {other:?}"),
                })
                .collect()
        })
        .unwrap_or_default();
    let decoded: Vec<DecodedFrame> = frames
        .into_iter()
        .zip(snrs)
        .enumerate()
        .map(|(i, (f, s))| {
            let psdu = match f {
                Message::Bytes(b) => b,
                other => panic!("unexpected frame message {other:?}"),
            };
            let snr_db = match s {
                Message::F64(v) => v,
                other => panic!("unexpected snr message {other:?}"),
            };
            DecodedFrame {
                index: i as u32,
                snr_db,
                psdu,
                trace: traces.get(i).copied().unwrap_or(0),
            }
        })
        .collect();
    let stats = score_decoded(&psdus, &decoded);
    let telemetry = tel.snapshot();
    if let Some(on_update) = obs.on_update {
        let body = [("blocks", telemetry.to_value(false))];
        for (round, json) in telemetry_rounds(decoded.len(), cfg.telemetry_every, &body) {
            on_update(round, &json);
        }
    }
    Ok(SessionOutcome {
        decoded,
        stats,
        telemetry,
    })
}

/// A finished session's telemetry rounds: `floor(decoded / every)` of
/// them, in order, none when `every` is 0. Round `r` fell due at the
/// `(r + 1) * every`-th decoded frame; its payload is the JSON object
/// `{"round": r, "decoded": (r + 1) * every}` followed by `body`'s
/// fields. A pure function of its inputs, so the engine and the
/// in-process run number and count their rounds alike for the same
/// decode outcome.
pub(crate) fn telemetry_rounds(
    decoded: usize,
    every: u32,
    body: &[(&'static str, Value)],
) -> Vec<(u32, String)> {
    if every == 0 {
        return Vec::new();
    }
    (0..decoded as u32 / every)
        .map(|round| {
            let head = [
                ("round", Value::U64(u64::from(round))),
                ("decoded", Value::U64(u64::from((round + 1) * every))),
            ];
            let json = serde::json::to_string(&Value::object(
                head.into_iter().chain(body.iter().cloned()),
            ));
            (round, json)
        })
        .collect()
}

/// Counts delivered frames whose PSDU bytes do NOT match the PSDU the
/// session's seed generated for that frame index — the soak harness's
/// zero-corruption oracle. A frame that decoded at all but carries the
/// wrong bytes (or an out-of-range index) counts as corrupted; frames
/// the session legitimately lost are absent from `frames` and do not
/// count here.
pub fn corrupted_frames(cfg: &SessionConfig, frames: &[DecodedFrame]) -> u64 {
    let expected = session_psdus(cfg);
    frames
        .iter()
        .filter(|f| {
            expected
                .get(f.index as usize)
                .is_none_or(|want| want != &f.psdu)
        })
        .count() as u64
}

/// Scores streamed/decoded frames against the sent PSDUs.
pub fn score_decoded(sent: &[Vec<u8>], decoded: &[DecodedFrame]) -> LinkStats {
    let mut stats = LinkStats::default();
    let mut claimed = vec![false; decoded.len()];
    for psdu in sent {
        let hit = decoded
            .iter()
            .enumerate()
            .find(|(i, d)| !claimed[*i] && &d.psdu == psdu)
            .map(|(i, _)| i);
        match hit {
            Some(i) => {
                claimed[i] = true;
                stats.per.record_ok();
                stats.outcomes.record_ok();
                stats.snr_est_db.push(decoded[i].snr_db);
            }
            None => {
                stats.per.record_sync_failure();
                stats.outcomes.record_sync_miss();
            }
        }
    }
    stats
}

/// Scores `Receiver::scan` output against the sent PSDUs — the capture
/// replay path's scoring.
pub fn score_scan(sent: &[Vec<u8>], frames: &[(usize, RxFrame)], scan: &ScanStats) -> LinkStats {
    let decoded: Vec<DecodedFrame> = frames
        .iter()
        .enumerate()
        .map(|(i, (_, f))| DecodedFrame {
            index: i as u32,
            snr_db: f.snr_db,
            psdu: f.psdu.clone(),
            trace: 0,
        })
        .collect();
    let mut stats = score_decoded(sent, &decoded);
    stats.recovery.record_rescans(scan.rescans as u64);
    stats
}

/// An over-the-air capture: the received per-antenna streams and the
/// PSDUs that produced them.
pub type LinkCapture = (Vec<Vec<Complex64>>, Vec<Vec<u8>>);

/// Builds a multi-frame over-the-air capture for a session config: the
/// sent PSDUs transmitted back-to-back (with lead-in and inter-frame
/// gaps) through the session's AWGN channel — what a recorder at the
/// receive antennas would have seen. Returns the received streams and
/// the PSDUs that went in.
pub fn build_link_capture(cfg: &SessionConfig) -> Result<LinkCapture, SessionError> {
    let tx_cfg = validate_config(cfg)?;
    let n_streams = tx_cfg.mcs.n_streams;
    let tx = Transmitter::new(tx_cfg);
    let psdus = session_psdus(cfg);
    let chan_cfg = ChannelConfig::awgn(n_streams, n_streams, cfg.snr_db);
    let mut sim = ChannelSim::new(chan_cfg, cfg.seed ^ CHANNEL_SEED_SALT);
    let mut rx_streams = vec![Vec::new(); n_streams];
    burst::generate(
        &tx,
        &mut sim,
        &psdus,
        burst::LEAD_IN,
        burst::GAP,
        &mut BurstScratch::default(),
        &mut rx_streams,
    )
    .expect("validated PSDU");
    Ok((rx_streams, psdus))
}

/// Projects one link of a scenario file onto a [`SessionConfig`]: the
/// link's base MCS, payload and SNR; `n_frames` from the scenario's
/// rounds; and the seed the scenario engine would derive for that link
/// (`seedtree::name_seed(scenario_seed, LINK_TAG, name)`). A session
/// served from this config is the single-link AWGN projection of the
/// scenario link — same rate, same traffic shape, same seed root — so
/// `mimonet-linkd --scenario FILE --link NAME` and the scenario engine
/// agree on what "link NAME" means.
pub fn session_from_scenario(
    path: &std::path::Path,
    link_name: &str,
) -> Result<SessionConfig, SessionError> {
    let spec = mimonet::scenario::ScenarioSpec::from_file(path)
        .map_err(|e| SessionError::BadConfig(e.to_string()))?;
    let link = spec
        .links
        .iter()
        .find(|l| l.name == link_name)
        .ok_or_else(|| {
            let names: Vec<&str> = spec.links.iter().map(|l| l.name.as_str()).collect();
            SessionError::BadConfig(format!(
                "scenario {:?} has no link {link_name:?} (links: {names:?})",
                spec.name
            ))
        })?;
    let cfg = SessionConfig {
        mcs: link.mcs,
        payload_len: link.payload_len as u32,
        n_frames: spec.rounds.min(MAX_SESSION_FRAMES as usize) as u32,
        snr_db: link.snr_db,
        seed: mimonet_dsp::seedtree::name_seed(
            spec.seed,
            mimonet_dsp::seedtree::LINK_TAG,
            &link.name,
        ),
        ..SessionConfig::default()
    };
    validate_config(&cfg)?;
    Ok(cfg)
}

/// Derives `n_clients` session presets from a scenario file for the
/// load generator: client `k` adopts scenario link `k mod links`
/// (round-robin, so a mixed scenario exercises a mixed fleet) but draws
/// its seed from its own independent stream
/// (`seedtree::trial_seed(scenario_seed, CLIENT_TAG, k)`) — same rate
/// and traffic shape per link class, distinct deterministic payloads per
/// client, and adding clients never perturbs existing ones.
pub fn sessions_for_load(
    path: &std::path::Path,
    n_clients: usize,
) -> Result<Vec<SessionConfig>, SessionError> {
    let spec = mimonet::scenario::ScenarioSpec::from_file(path)
        .map_err(|e| SessionError::BadConfig(e.to_string()))?;
    if spec.links.is_empty() {
        return Err(SessionError::BadConfig(format!(
            "scenario {:?} has no links to derive load clients from",
            spec.name
        )));
    }
    (0..n_clients)
        .map(|k| {
            let link = &spec.links[k % spec.links.len()];
            let cfg = SessionConfig {
                mcs: link.mcs,
                payload_len: link.payload_len as u32,
                n_frames: spec.rounds.min(MAX_SESSION_FRAMES as usize) as u32,
                snr_db: link.snr_db,
                seed: mimonet_dsp::seedtree::trial_seed(
                    spec.seed,
                    mimonet_dsp::seedtree::CLIENT_TAG,
                    k,
                ),
                ..SessionConfig::default()
            };
            validate_config(&cfg)?;
            Ok(cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet::rx::Receiver;

    fn cfg() -> SessionConfig {
        SessionConfig {
            mcs: 8,
            payload_len: 60,
            n_frames: 3,
            snr_db: 30.0,
            seed: 7,
            trace: 0,
            telemetry_every: 0,
        }
    }

    #[test]
    fn psdus_are_seed_deterministic() {
        assert_eq!(session_psdus(&cfg()), session_psdus(&cfg()));
        let other = SessionConfig { seed: 8, ..cfg() };
        assert_ne!(session_psdus(&cfg()), session_psdus(&other));
    }

    #[test]
    fn clean_session_delivers_every_frame() {
        let out = run_session(&cfg(), Scheduler::SingleThread).unwrap();
        assert_eq!(out.decoded.len(), 3);
        assert_eq!(out.stats.per.sent(), 3);
        assert_eq!(out.stats.per.ok(), 3);
        assert_eq!(out.stats.outcomes.total(), 3);
        assert!(!out.telemetry.blocks.is_empty());
    }

    #[test]
    fn schedulers_agree_bit_for_bit() {
        let a = run_session(&cfg(), Scheduler::SingleThread).unwrap();
        let b = run_session(&cfg(), Scheduler::Threaded).unwrap();
        assert_eq!(a.decoded, b.decoded);
        assert_eq!(
            serde::json::to_string(&serde::Serialize::serialize(&a.stats)),
            serde::json::to_string(&serde::Serialize::serialize(&b.stats)),
        );
    }

    #[test]
    fn observed_session_traces_and_streams_rounds() {
        use mimonet::obs::VirtualLatency;
        use mimonet::{frame_trace_id, TraceCollector};
        use std::sync::Arc;

        let cfg = SessionConfig {
            n_frames: 6,
            trace: 0xBEEF,
            telemetry_every: 2,
            ..cfg()
        };
        let collector = Arc::new(TraceCollector::deterministic(
            512,
            VirtualLatency::baseline(1),
        ));
        let mut rounds: Vec<u32> = Vec::new();
        let out = run_session_observed(
            &cfg,
            Scheduler::Threaded,
            SessionObserver {
                tracer: Some(LinkTracer {
                    collector: collector.clone(),
                    root: cfg.trace,
                }),
                on_update: Some(&mut |round, json| {
                    assert!(json.starts_with('{'), "telemetry update is JSON");
                    rounds.push(round);
                }),
            },
        )
        .unwrap();
        assert_eq!(out.decoded.len(), 6);
        // 6 decoded frames / every-2 cadence = exactly 3 rounds, 0..3.
        assert_eq!(rounds, vec![0, 1, 2]);
        // Every decoded frame carries the trace id both ends derive
        // independently from the session's trace root.
        for d in &out.decoded {
            assert_eq!(d.trace, frame_trace_id(cfg.trace, d.index));
        }
        #[cfg(not(feature = "telemetry-off"))]
        assert!(!collector.events().is_empty());
    }

    #[test]
    fn telemetry_rounds_are_a_pure_function_of_the_decode_count() {
        let body = [("blocks", Value::Array(Vec::new()))];
        assert!(
            telemetry_rounds(9, 0, &body).is_empty(),
            "every 0: no rounds"
        );
        let rounds = telemetry_rounds(7, 3, &body);
        assert_eq!(
            rounds,
            [
                (0, r#"{"round":0,"decoded":3,"blocks":[]}"#.to_string()),
                (1, r#"{"round":1,"decoded":6,"blocks":[]}"#.to_string()),
            ]
        );
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        for bad in [
            SessionConfig { mcs: 77, ..cfg() },
            SessionConfig {
                payload_len: 0,
                ..cfg()
            },
            SessionConfig {
                payload_len: MAX_SESSION_PAYLOAD + 1,
                ..cfg()
            },
            SessionConfig {
                n_frames: 0,
                ..cfg()
            },
            SessionConfig {
                n_frames: MAX_SESSION_FRAMES + 1,
                ..cfg()
            },
            SessionConfig {
                snr_db: f64::NAN,
                ..cfg()
            },
        ] {
            assert!(matches!(
                run_session(&bad, Scheduler::SingleThread),
                Err(SessionError::BadConfig(_))
            ));
        }
    }

    #[test]
    fn capture_scan_scores_like_the_link() {
        let (streams, psdus) = build_link_capture(&cfg()).unwrap();
        let rx = Receiver::new(RxConfig::new(2));
        let (frames, scan) = rx.scan(&streams);
        let stats = score_scan(&psdus, &frames, &scan);
        assert_eq!(stats.per.sent(), 3);
        assert_eq!(stats.per.ok(), 3, "clean 30 dB capture should decode");
    }

    #[test]
    fn scenario_link_projects_to_session_config() {
        let dir = std::env::temp_dir().join(format!("mimonet_scn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pair.toml");
        std::fs::write(
            &path,
            "name = \"pair\"\nseed = 7\nrounds = 5\n\
             [[links]]\nname = \"uplink\"\nmcs = 9\npayload_len = 100\nsnr_db = 27.0\n\
             [[links]]\nname = \"downlink\"\n",
        )
        .unwrap();
        let cfg = session_from_scenario(&path, "uplink").expect("valid link");
        assert_eq!(cfg.mcs, 9);
        assert_eq!(cfg.payload_len, 100);
        assert_eq!(cfg.n_frames, 5);
        assert_eq!(cfg.snr_db, 27.0);
        assert_eq!(
            cfg.seed,
            mimonet_dsp::seedtree::name_seed(7, mimonet_dsp::seedtree::LINK_TAG, "uplink"),
            "session seed must match the scenario engine's link seed"
        );
        // The projected config must actually run.
        let outcome = run_session(&cfg, Scheduler::SingleThread).expect("runnable");
        assert_eq!(outcome.stats.per.sent(), 5);

        let missing = session_from_scenario(&path, "sidelink");
        assert!(
            matches!(&missing, Err(SessionError::BadConfig(m)) if m.contains("uplink")),
            "unknown link must fail and list the real links: {missing:?}"
        );

        // Load presets: round-robin links, independent per-client seeds.
        let fleet = sessions_for_load(&path, 5).expect("valid fleet");
        assert_eq!(fleet.len(), 5);
        assert_eq!(fleet[0].mcs, 9, "client 0 rides uplink");
        assert_eq!(fleet[2].mcs, 9, "round-robin wraps back to uplink");
        assert_eq!(fleet[1].mcs, fleet[3].mcs, "clients 1 and 3 ride downlink");
        for (k, c) in fleet.iter().enumerate() {
            assert_eq!(
                c.seed,
                mimonet_dsp::seedtree::trial_seed(7, mimonet_dsp::seedtree::CLIENT_TAG, k),
                "client {k} draws its own seedtree stream"
            );
        }
        let seeds: std::collections::HashSet<u64> = fleet.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 5, "client seeds are pairwise distinct");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scoring_never_double_claims() {
        let sent = vec![vec![1u8, 2], vec![1, 2]];
        let decoded = vec![DecodedFrame {
            index: 0,
            snr_db: 20.0,
            psdu: vec![1, 2],
            trace: 0,
        }];
        let stats = score_decoded(&sent, &decoded);
        assert_eq!(stats.per.ok(), 1);
        assert_eq!(stats.per.sent(), 2);
    }
}
