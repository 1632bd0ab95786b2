//! Allocation-regression pin for the RX hot path.
//!
//! A counting global allocator wraps `System`; after one warm-up decode
//! through a given `RxWorkspace`/`RxFrame` pair, a second decode of the
//! same capture must perform **zero** heap allocations. Any future change
//! that sneaks a `Vec`, `to_vec` or `collect` back into the per-frame
//! path fails here with the allocation count, not in a profiler weeks
//! later.
//!
//! The ML detector is deliberately *not* pinned: its hypothesis table
//! (`Prepared::Ml::pred`) scales with `points^n_ss` and is rebuilt per
//! frame by design. The default MMSE path — what every benchmark and
//! sweep runs — is the one held to zero.
//!
//! This file must contain exactly one `#[test]`: the libtest harness runs
//! tests on multiple threads, and a concurrent test's allocations would
//! be charged to the counter.

use mimonet::config::TxConfig;
use mimonet::obs::{frame_trace_id, traced_receive_into, TraceCollector, VirtualLatency};
use mimonet::telemetry::StageProfile;
use mimonet::tx::Transmitter;
use mimonet::{Receiver, RxConfig, RxFrame, RxWorkspace};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_receive_into_allocates_nothing() {
    // One 2x2 MCS9 frame through a mild AWGN channel — the standard
    // bench link. Built *before* arming the counter.
    let psdu: Vec<u8> = (0..200u8).collect();
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let mut streams = tx.transmit(&psdu).unwrap();
    for s in &mut streams {
        let mut padded = vec![Complex64::ZERO; 160];
        padded.extend_from_slice(s);
        padded.extend(vec![Complex64::ZERO; 80]);
        *s = padded;
    }
    let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 42);
    let (noisy, _) = sim.apply(&streams);
    let views: Vec<&[Complex64]> = noisy.iter().map(|a| a.as_slice()).collect();

    let rx = Receiver::new(RxConfig::new(2));
    let mut ws = RxWorkspace::new();
    let mut frame = RxFrame::default();

    // Both data decoders are pinned: hard decoding stages its symbols as
    // ±1/0 LLRs in the Viterbi decoder's scratch, which must be reused.
    let hard = Receiver::new(RxConfig {
        soft_decoding: false,
        ..RxConfig::new(2)
    });
    for (mode, rx) in [("soft", &rx), ("hard", &hard)] {
        // Warm up: every scratch buffer grows to its working size, and
        // the decode must actually succeed (a failed decode exercises
        // less of the pipeline and would make the zero-alloc claim
        // vacuous).
        for _ in 0..2 {
            rx.receive_into(&views, &mut ws, &mut frame)
                .unwrap_or_else(|e| panic!("{mode} warm-up decode: {e:?}"));
            assert_eq!(frame.psdu, psdu, "{mode} warm-up decode");
        }

        ALLOCS.store(0, Ordering::SeqCst);
        REALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let res = rx.receive_into(&views, &mut ws, &mut frame);
        ARMED.store(false, Ordering::SeqCst);

        res.unwrap_or_else(|e| panic!("{mode} measured decode: {e:?}"));
        assert_eq!(frame.psdu, psdu, "{mode} measured decode");
        let allocs = ALLOCS.load(Ordering::SeqCst);
        let reallocs = REALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            (allocs, reallocs),
            (0, 0),
            "warmed {mode}-decision Receiver::receive_into must not touch \
             the heap ({allocs} allocations, {reallocs} reallocations)"
        );
    }

    // Same pin for the traced variant: the observability plane's promise
    // is that `traced_receive_into` adds *zero* allocations over the
    // untraced call — the ring buffer is preallocated, event records are
    // `Copy`, and the stage profile accumulates in place.
    let collector = TraceCollector::deterministic(64, VirtualLatency::baseline(0x0B5E));
    let mut profile = StageProfile::default();
    for warm in 0..2u32 {
        traced_receive_into(
            &rx,
            &views,
            &mut ws,
            &mut profile,
            &mut frame,
            &collector,
            frame_trace_id(0x0B5E, warm),
            warm,
        )
        .expect("traced warm-up decode");
        assert_eq!(frame.psdu, psdu);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let res = traced_receive_into(
        &rx,
        &views,
        &mut ws,
        &mut profile,
        &mut frame,
        &collector,
        frame_trace_id(0x0B5E, 2),
        2,
    );
    ARMED.store(false, Ordering::SeqCst);

    res.expect("traced measured decode");
    assert_eq!(frame.psdu, psdu);
    assert!(!collector.is_empty(), "the traced decode must emit events");
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warmed traced_receive_into must not touch the heap \
         ({allocs} allocations, {reallocs} reallocations)"
    );

    // Same pin for the multi-frame batch path: once the workspace and
    // batch are warmed on a batch of the same shape, `receive_batch`
    // (one `receive_into` per capture into the batch's frame slots) must
    // run allocation-free — the contract that lets the engine's compute
    // plane decode every batch without heap churn.
    let captures: Vec<Vec<Vec<Complex64>>> = (0..8u64)
        .map(|k| {
            let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 100 + k);
            let (noisy, _) = sim.apply(&streams);
            noisy
        })
        .collect();
    let mut batch = mimonet::RxBatch::new();
    for _ in 0..2 {
        rx.receive_batch(&captures, &mut ws, &mut batch);
        for i in 0..captures.len() {
            assert_eq!(
                batch.result(i).expect("warm-up batch decode").psdu,
                psdu,
                "batch slot {i}"
            );
        }
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    rx.receive_batch(&captures, &mut ws, &mut batch);
    ARMED.store(false, Ordering::SeqCst);

    for i in 0..captures.len() {
        assert_eq!(
            batch.result(i).expect("measured batch decode").psdu,
            psdu,
            "batch slot {i}"
        );
    }
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "warmed Receiver::receive_batch must not touch the heap \
         ({allocs} allocations, {reallocs} reallocations)"
    );
}
