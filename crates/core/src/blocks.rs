//! Flowgraph blocks wrapping the transceiver — the "modified and added
//! blocks" of the paper, expressed against `mimonet-runtime`'s GNU-Radio-
//! like block model.
//!
//! The blocks operate frame-synchronously: [`TxBlock`] consumes fixed-size
//! PSDUs from a byte stream and emits per-antenna sample bursts of a known
//! length; [`ChannelBlock`] and [`RxBlock`] chunk their inputs to that same
//! burst length. [`frame_burst_len`] computes it; the
//! [`build_link_flowgraph`] helper wires a complete TX → channel → RX graph
//! with consistent sizes.

use crate::config::{RxConfig, TxConfig};
use crate::obs::{frame_trace_id, traced_receive_into, TraceCollector, TraceEventKind};
use crate::rx::{Receiver, RxFrame, RxWorkspace};
use crate::telemetry::StageProfile;
use crate::tx::Transmitter;
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_runtime::{
    convert, Block, BlockCtx, BlockId, Flowgraph, InputBuffer, Item, Message, OutputBuffer,
    SinkHandle, TagValue, VectorSink, VectorSource, WorkStatus,
};
use std::sync::Arc;
use std::time::Instant;

/// Shared trace plumbing for the transceiver blocks: the collector every
/// frame-lifecycle event lands in plus the session's trace root, from
/// which each block independently derives per-frame trace ids
/// ([`frame_trace_id`]) — no id passing between blocks.
#[derive(Clone)]
pub struct LinkTracer {
    /// Destination ring for every event.
    pub collector: Arc<TraceCollector>,
    /// Session trace root (`SessionConfig::trace` on the wire).
    pub root: u64,
}

pub use crate::burst::{LEAD_IN, LEAD_OUT};

/// Samples per frame burst (frame + lead-in + lead-out) for a PSDU size.
pub fn frame_burst_len(tx_cfg: &TxConfig, psdu_len: usize) -> usize {
    crate::tx::frame_len(&tx_cfg.mcs, psdu_len) + LEAD_IN + LEAD_OUT
}

/// Byte stream in (whole PSDUs), per-antenna sample bursts out.
pub struct TxBlock {
    tx: Transmitter,
    psdu_len: usize,
    tracer: Option<LinkTracer>,
    frame: u32,
    /// The PSDU and the burst being built, reused burst to burst.
    psdu: Vec<u8>,
    burst: Vec<Vec<Complex64>>,
}

impl TxBlock {
    /// Creates a transmitter block for fixed-size PSDUs.
    pub fn new(cfg: TxConfig, psdu_len: usize) -> Self {
        assert!(psdu_len > 0, "PSDU size must be nonzero");
        Self {
            burst: vec![Vec::new(); cfg.mcs.n_streams],
            tx: Transmitter::new(cfg),
            psdu_len,
            tracer: None,
            frame: 0,
            psdu: Vec::new(),
        }
    }

    /// Same block with a `tx_encode` span recorded per transmitted frame.
    pub fn traced(cfg: TxConfig, psdu_len: usize, tracer: LinkTracer) -> Self {
        let mut b = Self::new(cfg, psdu_len);
        b.tracer = Some(tracer);
        b
    }
}

impl Block for TxBlock {
    fn name(&self) -> &str {
        "mimonet_tx"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        self.tx.mcs().n_streams
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let mut progressed = false;
        while inputs[0].available() >= self.psdu_len {
            self.psdu.clear();
            self.psdu
                .extend((0..self.psdu_len).map(|i| inputs[0].peek(i).expect("available").byte()));
            inputs[0].skip(self.psdu_len);
            let t0 = Instant::now();
            for b in &mut self.burst {
                b.clear();
                b.resize(LEAD_IN, Complex64::ZERO);
            }
            self.tx
                .transmit_into(&self.psdu, LEAD_OUT, &mut self.burst)
                .expect("nonzero PSDU");
            if let Some(tr) = &self.tracer {
                tr.collector.record(
                    frame_trace_id(tr.root, self.frame),
                    TraceEventKind::TxEncode,
                    self.frame,
                    t0.elapsed().as_nanos() as u64,
                    self.psdu_len as u64,
                );
            }
            self.frame += 1;
            for (s, out) in self.burst.iter().zip(outputs.iter_mut()) {
                out.add_tag(
                    out.offset(),
                    "frame_start",
                    TagValue::U64(self.psdu_len as u64),
                );
                for x in s {
                    out.push(Item::Complex(x.re, x.im));
                }
            }
            progressed = true;
        }
        if progressed {
            WorkStatus::Progress
        } else if inputs[0].is_finished() {
            WorkStatus::Done
        } else {
            WorkStatus::Blocked
        }
    }
}

/// Applies the channel simulator burst-by-burst (one fading realization
/// per burst, matching the block-fading link simulator).
pub struct ChannelBlock {
    sim: ChannelSim,
    burst_len: usize,
    n_tx: usize,
    n_rx: usize,
    tracer: Option<LinkTracer>,
    burst: u32,
    /// One burst in and out, reused burst to burst.
    tx_buf: Vec<Vec<Complex64>>,
    rx_buf: Vec<Vec<Complex64>>,
}

impl ChannelBlock {
    /// Creates a channel block operating on bursts of `burst_len` samples.
    pub fn new(cfg: ChannelConfig, seed: u64, burst_len: usize) -> Self {
        assert!(burst_len > 0, "burst length must be nonzero");
        let n_tx = cfg.n_tx;
        let n_rx = cfg.n_rx;
        Self {
            sim: ChannelSim::new(cfg, seed),
            burst_len,
            n_tx,
            n_rx,
            tracer: None,
            burst: 0,
            tx_buf: vec![Vec::new(); n_tx],
            rx_buf: vec![Vec::new(); n_rx],
        }
    }

    /// Same block with a `channel_apply` span recorded per burst. One
    /// burst carries one frame in the link flowgraph, so the burst index
    /// doubles as the frame index for trace-id derivation.
    pub fn traced(cfg: ChannelConfig, seed: u64, burst_len: usize, tracer: LinkTracer) -> Self {
        let mut b = Self::new(cfg, seed, burst_len);
        b.tracer = Some(tracer);
        b
    }
}

impl Block for ChannelBlock {
    fn name(&self) -> &str {
        "mimonet_channel"
    }
    fn num_inputs(&self) -> usize {
        self.n_tx
    }
    fn num_outputs(&self) -> usize {
        self.n_rx
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let mut progressed = false;
        while inputs.iter().all(|i| i.available() >= self.burst_len) {
            for (buf, input) in self.tx_buf.iter_mut().zip(inputs.iter_mut()) {
                buf.clear();
                buf.extend((0..self.burst_len).map(|i| {
                    let (re, im) = input.peek(i).expect("available").complex();
                    Complex64::new(re, im)
                }));
                input.skip(self.burst_len);
            }
            let t0 = Instant::now();
            self.sim.apply_into(&self.tx_buf, &mut self.rx_buf);
            if let Some(tr) = &self.tracer {
                tr.collector.record(
                    frame_trace_id(tr.root, self.burst),
                    TraceEventKind::ChannelApply,
                    self.burst,
                    t0.elapsed().as_nanos() as u64,
                    self.burst_len as u64,
                );
            }
            self.burst += 1;
            for (stream, out) in self.rx_buf.iter().zip(outputs.iter_mut()) {
                // Channel tails may extend the stream; clip to the burst so
                // downstream chunking stays aligned.
                for x in stream.iter().take(self.burst_len) {
                    out.push(Item::Complex(x.re, x.im));
                }
            }
            progressed = true;
        }
        if progressed {
            WorkStatus::Progress
        } else if inputs
            .iter()
            .any(|i| i.is_finished() && i.available() < self.burst_len)
        {
            WorkStatus::Done
        } else {
            WorkStatus::Blocked
        }
    }
}

/// Per-antenna sample bursts in, decoded PSDU bytes out. Publishes
/// `"mimonet.frames"` ([`Message::Bytes`]) per decoded PSDU and
/// `"mimonet.snr"` ([`Message::F64`], dB) per frame on the message hub.
pub struct RxBlock {
    rx: Receiver,
    burst_len: usize,
    tracer: Option<RxTracer>,
    /// Decode scratch, recycled burst to burst on both paths.
    ws: RxWorkspace,
    frame: RxFrame,
    tel: Option<std::sync::Arc<mimonet_runtime::BlockTelemetry>>,
}

/// Trace state for a traced [`RxBlock`]: the collector handle, the
/// burst counter trace ids derive from, and the stage-profile scratch.
struct RxTracer {
    link: LinkTracer,
    frame: u32,
    profile: StageProfile,
}

impl RxBlock {
    /// Creates a receiver block operating on bursts of `burst_len` samples.
    pub fn new(cfg: RxConfig, burst_len: usize) -> Self {
        assert!(burst_len > 0, "burst length must be nonzero");
        Self {
            rx: Receiver::new(cfg),
            burst_len,
            tracer: None,
            ws: RxWorkspace::new(),
            frame: RxFrame::default(),
            tel: None,
        }
    }

    /// Same block with per-stage decode spans (`detect` … `fec`) and a
    /// terminal `frame_ok`/`frame_fail` event recorded per burst.
    pub fn traced(cfg: RxConfig, burst_len: usize, tracer: LinkTracer) -> Self {
        let mut b = Self::new(cfg, burst_len);
        b.tracer = Some(RxTracer {
            link: tracer,
            frame: 0,
            profile: StageProfile::default(),
        });
        b
    }
}

impl Block for RxBlock {
    fn name(&self) -> &str {
        "mimonet_rx"
    }
    fn num_inputs(&self) -> usize {
        self.rx.config().n_rx
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let mut bursts = 0u64;
        while inputs.iter().all(|i| i.available() >= self.burst_len) {
            let bufs: Vec<Vec<Complex64>> = inputs
                .iter_mut()
                .map(|i| convert::to_complex(&i.take(self.burst_len)))
                .collect();
            let views: Vec<&[Complex64]> = bufs.iter().map(Vec::as_slice).collect();
            bursts += 1;
            let decoded = match &mut self.tracer {
                Some(tr) => {
                    let trace_id = frame_trace_id(tr.link.root, tr.frame);
                    let res = traced_receive_into(
                        &self.rx,
                        &views,
                        &mut self.ws,
                        &mut tr.profile,
                        &mut self.frame,
                        &tr.link.collector,
                        trace_id,
                        tr.frame,
                    );
                    tr.frame += 1;
                    if res.is_ok() {
                        // Burst index != decode index under loss, so the
                        // decoded frame's trace id travels with it (hex,
                        // the hub has no u64 payload variant).
                        ctx.msgs
                            .publish("mimonet.trace", Message::Event(format!("{trace_id:#018x}")));
                    }
                    res
                }
                None => self.rx.receive_into(&views, &mut self.ws, &mut self.frame),
            };
            if decoded.is_ok() {
                let frame = &self.frame;
                ctx.msgs.publish("mimonet.snr", Message::F64(frame.snr_db));
                ctx.msgs
                    .publish("mimonet.frames", Message::Bytes(frame.psdu.clone()));
                outputs[0].add_tag(
                    outputs[0].offset(),
                    "frame_start",
                    TagValue::U64(frame.psdu.len() as u64),
                );
                outputs[0].push_slice(&convert::from_bytes(&frame.psdu));
            }
        }
        let progressed = bursts > 0;
        // One `batch_frames` observation per untraced `work` call: the
        // number of bursts it decoded.
        if progressed && self.tracer.is_none() {
            if let Some(tel) = &self.tel {
                tel.batch_frames.record(bursts);
            }
        }
        if progressed {
            WorkStatus::Progress
        } else if inputs
            .iter()
            .any(|i| i.is_finished() && i.available() < self.burst_len)
        {
            WorkStatus::Done
        } else {
            WorkStatus::Blocked
        }
    }

    fn attach_telemetry(&mut self, tel: &Arc<mimonet_runtime::BlockTelemetry>) {
        self.tel = Some(Arc::clone(tel));
    }
}

/// Builds the complete loopback flowgraph
/// `source(psdus) → TxBlock → ChannelBlock → RxBlock → sink` and returns
/// the graph, the sink handle, and the ids of the three transceiver blocks.
pub fn build_link_flowgraph(
    tx_cfg: TxConfig,
    chan_cfg: ChannelConfig,
    rx_cfg: RxConfig,
    psdus: &[u8],
    psdu_len: usize,
    seed: u64,
) -> (Flowgraph, SinkHandle, [BlockId; 3]) {
    build_link_flowgraph_inner(tx_cfg, chan_cfg, rx_cfg, psdus, psdu_len, seed, None)
}

/// [`build_link_flowgraph`] with every transceiver block tracing into
/// `tracer.collector`: `tx_encode` and `channel_apply` spans per frame
/// burst, per-stage decode spans and `frame_ok`/`frame_fail` terminals
/// from the receiver. All three blocks derive per-frame trace ids from
/// `tracer.root` independently, so the events correlate by id without
/// any cross-block coordination.
pub fn build_link_flowgraph_traced(
    tx_cfg: TxConfig,
    chan_cfg: ChannelConfig,
    rx_cfg: RxConfig,
    psdus: &[u8],
    psdu_len: usize,
    seed: u64,
    tracer: LinkTracer,
) -> (Flowgraph, SinkHandle, [BlockId; 3]) {
    build_link_flowgraph_inner(
        tx_cfg,
        chan_cfg,
        rx_cfg,
        psdus,
        psdu_len,
        seed,
        Some(tracer),
    )
}

fn build_link_flowgraph_inner(
    tx_cfg: TxConfig,
    chan_cfg: ChannelConfig,
    rx_cfg: RxConfig,
    psdus: &[u8],
    psdu_len: usize,
    seed: u64,
    tracer: Option<LinkTracer>,
) -> (Flowgraph, SinkHandle, [BlockId; 3]) {
    assert_eq!(
        psdus.len() % psdu_len,
        0,
        "byte stream must hold whole PSDUs"
    );
    let burst = frame_burst_len(&tx_cfg, psdu_len);
    let n_tx = tx_cfg.mcs.n_streams;
    let n_rx = rx_cfg.n_rx;

    let mut fg = Flowgraph::new();
    let src = fg.add(VectorSource::from_bytes(psdus));
    let (tx_b, chan_b, rx_b) = match tracer {
        Some(tr) => (
            TxBlock::traced(tx_cfg, psdu_len, tr.clone()),
            ChannelBlock::traced(chan_cfg, seed, burst, tr.clone()),
            RxBlock::traced(rx_cfg, burst, tr),
        ),
        None => (
            TxBlock::new(tx_cfg, psdu_len),
            ChannelBlock::new(chan_cfg, seed, burst),
            RxBlock::new(rx_cfg, burst),
        ),
    };
    let tx = fg.add(tx_b);
    let chan = fg.add(chan_b);
    let rx = fg.add(rx_b);
    let (sink, handle) = VectorSink::new();
    let sink = fg.add(sink);

    fg.connect(src, 0, tx, 0).expect("topology");
    for p in 0..n_tx {
        fg.connect(tx, p, chan, p).expect("topology");
    }
    for p in 0..n_rx {
        fg.connect(chan, p, rx, p).expect("topology");
    }
    fg.connect(rx, 0, sink, 0).expect("topology");
    (fg, handle, [tx, chan, rx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_runtime::MessageHub;

    #[test]
    fn loopback_flowgraph_delivers_psdus() {
        let psdu_len = 60;
        let psdus: Vec<u8> = (0..3 * psdu_len).map(|i| (i * 7 % 256) as u8).collect();
        let (mut fg, handle, _) = build_link_flowgraph(
            TxConfig::new(8).unwrap(),
            ChannelConfig::awgn(2, 2, 30.0),
            RxConfig::new(2),
            &psdus,
            psdu_len,
            11,
        );
        let hub = MessageHub::new();
        let frames = hub.subscribe("mimonet.frames");
        let snrs = hub.subscribe("mimonet.snr");
        fg.run(&hub).unwrap();
        assert_eq!(handle.bytes(), psdus);
        assert_eq!(frames.drain().len(), 3);
        let snr_msgs = snrs.drain();
        assert_eq!(snr_msgs.len(), 3);
        for m in snr_msgs {
            match m {
                Message::F64(db) => assert!((db - 30.0).abs() < 4.0, "snr {db}"),
                other => panic!("unexpected message {other:?}"),
            }
        }
    }

    #[test]
    fn traced_flowgraph_emits_full_frame_lifecycles() {
        use crate::obs::VirtualLatency;

        let psdu_len = 60;
        let n_frames = 3u32;
        let psdus: Vec<u8> = (0..n_frames as usize * psdu_len)
            .map(|i| (i * 7 % 256) as u8)
            .collect();
        let collector = Arc::new(TraceCollector::deterministic(
            256,
            VirtualLatency::baseline(0x0B5),
        ));
        let root = 0xCAFE;
        let (mut fg, handle, _) = build_link_flowgraph_traced(
            TxConfig::new(8).unwrap(),
            ChannelConfig::awgn(2, 2, 30.0),
            RxConfig::new(2),
            &psdus,
            psdu_len,
            11,
            LinkTracer {
                collector: collector.clone(),
                root,
            },
        );
        fg.run(&MessageHub::new()).unwrap();
        assert_eq!(handle.bytes(), psdus);

        let events = collector.events();
        #[cfg(feature = "telemetry-off")]
        assert!(events.is_empty(), "telemetry-off traces nothing");
        #[cfg(not(feature = "telemetry-off"))]
        for i in 0..n_frames {
            let id = frame_trace_id(root, i);
            let kinds: Vec<TraceEventKind> = events
                .iter()
                .filter(|e| e.trace_id == id)
                .map(|e| e.kind)
                .collect();
            // Every frame traverses the whole lifecycle: encode, channel,
            // the decode stages, and a frame_ok terminal at 30 dB.
            for want in [
                TraceEventKind::TxEncode,
                TraceEventKind::ChannelApply,
                TraceEventKind::Detect,
                TraceEventKind::Fec,
                TraceEventKind::FrameOk,
            ] {
                assert!(kinds.contains(&want), "frame {i} missing {want:?}");
            }
            assert!(events.iter().any(|e| e.trace_id == id && e.frame == i));
        }
    }

    #[test]
    fn siso_loopback_over_threaded_scheduler() {
        let psdu_len = 40;
        let psdus: Vec<u8> = (0..2 * psdu_len).map(|i| i as u8).collect();
        let (fg, handle, _) = build_link_flowgraph(
            TxConfig::new(1).unwrap(),
            ChannelConfig::awgn(1, 1, 28.0),
            RxConfig::new(1),
            &psdus,
            psdu_len,
            12,
        );
        fg.run_threaded(std::sync::Arc::new(MessageHub::new()))
            .unwrap();
        assert_eq!(handle.bytes(), psdus);
    }

    #[test]
    fn noisy_channel_drops_frames_not_the_graph() {
        let psdu_len = 80;
        let psdus: Vec<u8> = vec![0xA5; 4 * psdu_len];
        let (mut fg, handle, _) = build_link_flowgraph(
            TxConfig::new(15).unwrap(),
            ChannelConfig::awgn(2, 2, 2.0), // far below MCS15's threshold
            RxConfig::new(2),
            &psdus,
            psdu_len,
            13,
        );
        fg.run(&MessageHub::new()).unwrap();
        // Graph completes; most/all frames lost.
        assert!(handle.bytes().len() < psdus.len());
    }

    #[test]
    fn burst_length_accounts_for_leads() {
        let cfg = TxConfig::new(0).unwrap();
        let t = Transmitter::new(cfg.clone());
        assert_eq!(
            frame_burst_len(&cfg, 100),
            t.frame_len(100) + LEAD_IN + LEAD_OUT
        );
    }

    #[test]
    #[should_panic(expected = "whole PSDUs")]
    fn ragged_psdu_stream_rejected() {
        build_link_flowgraph(
            TxConfig::new(0).unwrap(),
            ChannelConfig::awgn(1, 1, 20.0),
            RxConfig::new(1),
            &[0u8; 10],
            3,
            0,
        );
    }
}
