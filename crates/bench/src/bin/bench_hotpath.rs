//! T3b — RX hot-path before/after: the four optimizations of the
//! zero-copy receiver PR, each measured against the pre-optimization
//! implementation kept as its equivalence oracle in the `mimonet-oracle`
//! crate (the "before" side of every row):
//!
//! 1. **scan** — view-based multi-frame scan ([`Receiver::scan`]) vs the
//!    copy-based [`ReferenceReceiver::scan`], which clones an
//!    O(remaining-capture) window per decode attempt.
//! 2. **link** — one-frame decode from a capture with an idle tail:
//!    warmed [`Receiver::receive_into`] (workspace reuse, lazy chunked
//!    CFO) vs [`ReferenceReceiver::receive`] (fresh allocations,
//!    whole-buffer CFO passes).
//! 3. **viterbi** — state-parallel [`ViterbiDecoder`] with buffer reuse
//!    vs the closure-per-transition [`mimonet_oracle::viterbi`] decoder.
//! 4. **correlate** — O(1)-per-lag sliding window energy in
//!    [`normalized_cross_correlate_into`] vs the O(L)-per-lag
//!    [`normalized_cross_correlate_reference`].
//!
//! Every pair is checked for equivalence before timing — a speedup over
//! an implementation that computes something else is meaningless. The
//! scan/link/viterbi pairs must be *bit-identical* (the contract the
//! `tests/equivalence.rs` proptests enforce); the correlate kernel pair
//! is tolerance-checked (`max_abs_err`, same peak), since the sliding
//! energy update legitimately differs from fresh summation in the last
//! ulps — bit-identity of the RX chain that consumes it is covered by
//! the scan/link rows.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin bench_hotpath [--quick]
//! ```
//!
//! Writes `results/BENCH_hotpath.json`. Timed runs also record which
//! form of the Viterbi search ran (`viterbi_kernel`, see
//! [`viterbi::kernel`]). With `MIMONET_DETERMINISTIC=1` timing is
//! skipped entirely, and every wall-clock field (`*_ns`, `speedup`,
//! `wall_s`, `threads`) and the CPU-dependent `viterbi_kernel` are
//! omitted, so the report is a pure function of the seed — the property
//! the CI job diffs against `results/golden/BENCH_hotpath.json`.

use mimonet::{Receiver, RxConfig, RxFrame, RxWorkspace, Transmitter, TxConfig};
use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::correlate::normalized_cross_correlate_into;
use mimonet_fec::viterbi::{self, ViterbiDecoder};
use mimonet_fec::ConvEncoder;
use mimonet_oracle::correlate::normalized_cross_correlate_reference;
use mimonet_oracle::viterbi as viterbi_reference;
use mimonet_oracle::ReferenceReceiver;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

/// One before/after measurement.
struct BenchRow {
    name: &'static str,
    /// Samples (or coded bits) processed per call — the throughput basis.
    work_items: u64,
    /// Whether before and after agree (bit-identical, or within the
    /// documented tolerance for the correlate row).
    matches: bool,
    /// Worst absolute output difference — only for the tolerance-checked
    /// correlate row (the other rows require exact equality).
    max_abs_err: Option<f64>,
    /// Best-of-reps per-call nanoseconds; `None` in deterministic mode.
    before_ns: Option<f64>,
    after_ns: Option<f64>,
}

impl BenchRow {
    fn speedup(&self) -> Option<f64> {
        match (self.before_ns, self.after_ns) {
            (Some(b), Some(a)) if a > 0.0 => Some(b / a),
            _ => None,
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name", self.name.serialize()),
            ("work_items", self.work_items.serialize()),
            ("matches", self.matches.serialize()),
        ];
        if let Some(e) = self.max_abs_err {
            fields.push(("max_abs_err", e.serialize()));
        }
        if let (Some(b), Some(a)) = (self.before_ns, self.after_ns) {
            fields.push(("before_ns", b.serialize()));
            fields.push(("after_ns", a.serialize()));
            fields.push(("speedup", self.speedup().unwrap().serialize()));
        }
        Value::object(fields)
    }
}

/// Best-of-`reps` mean per-call nanoseconds over `iters` calls.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Transmit one frame with lead-in silence and a trailing pad.
fn padded_frame(tx: &Transmitter, psdu: &[u8], lead: usize, tail: usize) -> Vec<Vec<Complex64>> {
    let mut streams = tx.transmit(psdu).expect("valid PSDU");
    for s in &mut streams {
        let mut p = vec![Complex64::ZERO; lead];
        p.extend_from_slice(s);
        p.extend(vec![Complex64::ZERO; tail]);
        *s = p;
    }
    streams
}

fn bench_scan(det: bool, opts: &BenchOpts) -> BenchRow {
    // Four back-to-back frames separated by long idle gaps: the regime
    // where the reference scan's per-attempt window copy is quadratic in
    // the capture length.
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 200]; 2];
    for k in 0..4usize {
        let psdu: Vec<u8> = (0..220).map(|i| (i + 13 * k) as u8).collect();
        let streams = tx.transmit(&psdu).unwrap();
        for (cap, s) in capture.iter_mut().zip(&streams) {
            cap.extend_from_slice(s);
            cap.extend(vec![Complex64::ZERO; 80_000]);
        }
    }
    let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), seeds::HOTPATH);
    let (noisy, _) = chan.apply(&capture);

    let before_rx = ReferenceReceiver::new(RxConfig::new(2));
    let after_rx = Receiver::new(RxConfig::new(2));
    let want = before_rx.scan(&noisy);
    let got = after_rx.scan(&noisy);
    assert_eq!(want.0.len(), 4, "scan workload must decode all 4 frames");
    let matches = got == want;

    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(5, 1);
        (
            Some(time_ns(3, iters, || {
                black_box(before_rx.scan(&noisy));
            })),
            Some(time_ns(3, iters, || {
                black_box(after_rx.scan(&noisy));
            })),
        )
    };
    BenchRow {
        name: "scan",
        work_items: noisy[0].len() as u64,
        matches,
        max_abs_err: None,
        before_ns,
        after_ns,
    }
}

fn bench_link(det: bool, opts: &BenchOpts) -> BenchRow {
    // One 500-byte MCS9 frame followed by an idle tail, as a streaming
    // receiver sees it: the reference copies and CFO-corrects the whole
    // capture; the workspace path stops at the end of the frame.
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let psdu = vec![0xA5u8; 500];
    let streams = padded_frame(&tx, &psdu, 160, 48_000);
    let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), seeds::HOTPATH ^ 1);
    let (noisy, _) = chan.apply(&streams);
    let views: Vec<&[Complex64]> = noisy.iter().map(|a| a.as_slice()).collect();

    let before_rx = ReferenceReceiver::new(RxConfig::new(2));
    let after_rx = Receiver::new(RxConfig::new(2));
    let want = before_rx.receive(&noisy).expect("reference decodes");
    let mut ws = RxWorkspace::new();
    let mut frame = RxFrame::default();
    after_rx
        .receive_into(&views, &mut ws, &mut frame)
        .expect("workspace decodes");
    let matches = frame == want;

    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(30, 3);
        (
            Some(time_ns(3, iters, || {
                black_box(before_rx.receive(&noisy).unwrap());
            })),
            Some(time_ns(3, iters, || {
                after_rx.receive_into(&views, &mut ws, &mut frame).unwrap();
                black_box(frame.psdu.len());
            })),
        )
    };
    BenchRow {
        name: "link",
        work_items: noisy[0].len() as u64,
        matches,
        max_abs_err: None,
        before_ns,
        after_ns,
    }
}

fn bench_viterbi(det: bool, opts: &BenchOpts) -> BenchRow {
    let data: Vec<u8> = (0..4096)
        .map(|i: usize| ((i * 1103515245 + 12345) >> 16 & 1) as u8)
        .collect();
    let coded = ConvEncoder::new().encode(&data);
    let llrs: Vec<f64> = coded
        .iter()
        .map(|&b| if b == 0 { 4.0 } else { -4.0 })
        .collect();

    let want = viterbi_reference::decode_soft_unterminated(&llrs).unwrap();
    let mut dec = ViterbiDecoder::new();
    let mut out = Vec::new();
    dec.decode_soft_unterminated_into(&llrs, &mut out).unwrap();
    let matches = out == want;

    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(50, 5);
        (
            Some(time_ns(3, iters, || {
                black_box(viterbi_reference::decode_soft_unterminated(&llrs).unwrap());
            })),
            Some(time_ns(3, iters, || {
                dec.decode_soft_unterminated_into(&llrs, &mut out).unwrap();
                black_box(out.len());
            })),
        )
    };
    BenchRow {
        name: "viterbi",
        work_items: llrs.len() as u64,
        matches,
        max_abs_err: None,
        before_ns,
        after_ns,
    }
}

fn bench_correlate(det: bool, opts: &BenchOpts) -> BenchRow {
    let sig: Vec<Complex64> = (0..4096)
        .map(|i| Complex64::cis(i as f64 * 0.37) * (1.0 + 0.1 * (i % 7) as f64))
        .collect();
    let pat: Vec<Complex64> = sig[512..576].to_vec();

    let want = normalized_cross_correlate_reference(&sig, &pat);
    let mut out = Vec::new();
    normalized_cross_correlate_into(&sig, &pat, &mut out);
    let max_abs_err = out
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let same_peak = mimonet_dsp::correlate::argmax(&out) == mimonet_dsp::correlate::argmax(&want);
    let matches = out.len() == want.len() && same_peak && max_abs_err < 1e-9;

    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(300, 30);
        (
            Some(time_ns(3, iters, || {
                black_box(normalized_cross_correlate_reference(&sig, &pat));
            })),
            Some(time_ns(3, iters, || {
                normalized_cross_correlate_into(&sig, &pat, &mut out);
                black_box(out.len());
            })),
        )
    };
    BenchRow {
        name: "correlate",
        work_items: sig.len() as u64,
        matches,
        max_abs_err: Some(max_abs_err),
        before_ns,
        after_ns,
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut report = FigureReport::new(
        "BENCH_hotpath",
        "RX hot path before/after: zero-copy scan, workspace receive, table Viterbi, O(1) correlation",
        "benchmark index",
        seeds::HOTPATH,
        &opts,
    );
    let det = report.is_deterministic();

    let rows = [
        bench_scan(det, &opts),
        bench_link(det, &opts),
        bench_viterbi(det, &opts),
        bench_correlate(det, &opts),
    ];

    println!("# T3b: RX hot-path before/after (best-of-3, release)");
    println!("# viterbi kernel: {}", viterbi::kernel());
    if det {
        println!("{:<10} {:>10} {:>10}", "bench", "items", "matches");
        for r in &rows {
            println!("{:<10} {:>10} {:>10}", r.name, r.work_items, r.matches);
        }
    } else {
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>8}",
            "bench", "items", "before_us", "after_us", "speedup"
        );
        for r in &rows {
            println!(
                "{:<10} {:>10} {:>12.1} {:>12.1} {:>7.2}x",
                r.name,
                r.work_items,
                r.before_ns.unwrap() / 1e3,
                r.after_ns.unwrap() / 1e3,
                r.speedup().unwrap()
            );
        }
    }
    for r in &rows {
        assert!(r.matches, "{}: before/after outputs must agree", r.name);
    }

    let x: Vec<f64> = (0..rows.len()).map(|i| i as f64).collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| f64::from(u8::from(r.matches)))
        .collect();
    report.series("outputs_match", &x, &y);
    report.meta("bench_labels", Value::array(rows.iter().map(|r| r.name)));
    report.meta(
        "benches",
        Value::Array(rows.iter().map(BenchRow::to_value).collect()),
    );
    report.meta(
        "targets",
        Value::object([
            ("scan_min_speedup", 3.0f64.serialize()),
            ("link_min_speedup", 1.5f64.serialize()),
        ]),
    );
    // Which form of the Viterbi search the timings came from; it depends
    // on the CPU, so the deterministic report leaves it out.
    if !det {
        report.meta("viterbi_kernel", viterbi::kernel().serialize());
    }
    report.finish();
}
