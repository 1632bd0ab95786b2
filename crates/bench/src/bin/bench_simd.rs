//! T5 — lane kernels before/after: the three vectorized RX inner loops,
//! each measured against its scalar form:
//!
//! 1. **correlate** — four-lags-per-lane SoA correlation
//!    ([`normalized_cross_correlate_into`]) vs the scalar sliding window
//!    ([`normalized_cross_correlate_scalar_into`], an oracle from the
//!    `mimonet-oracle` crate).
//! 2. **demap** — four-symbols-per-lane soft demapping
//!    ([`Modulation::demap_soft_x4_into`]) vs four scalar
//!    [`Modulation::demap_soft_into`] calls.
//! 3. **detect_x4** — four-observations-per-lane linear detection
//!    ([`Prepared::apply_x4_into`]) vs four scalar
//!    [`Prepared::apply_into`] calls.
//!
//! The scalar demapper and detector are library code: the receiver runs
//! them on the last `n_sym mod 4` symbols of a frame.
//!
//! Every pair is checked for *bit-identical* output before timing (the
//! contract the `tests/simd_equivalence.rs` proptests enforce); a
//! speedup over an implementation that computes something else is
//! meaningless.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin bench_simd [--quick]
//! ```
//!
//! Writes `results/BENCH_simd.json`. With `MIMONET_DETERMINISTIC=1`
//! timing is skipped entirely and every wall-clock field (`*_ns`,
//! `speedup`, `wall_s`, `threads`) is omitted, so the report is a pure
//! function of the seed — the property the CI job diffs against
//! `results/golden/BENCH_simd.json`.

use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_detect::{prepare, CMat, DetectorKind, Prepared};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::correlate::normalized_cross_correlate_into;
use mimonet_frame::Modulation;
use mimonet_oracle::correlate::normalized_cross_correlate_scalar_into;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

/// One before/after measurement (scalar vs lane path).
struct BenchRow {
    name: &'static str,
    /// Outputs produced per call — the throughput basis.
    work_items: u64,
    /// Whether the lane path is bit-identical to the scalar path.
    matches: bool,
    /// Best-of-reps mean per-call nanoseconds; `None` in deterministic
    /// mode.
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

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn complex_bits_eq(a: Complex64, b: Complex64) -> bool {
    bits_eq(a.re, b.re) && bits_eq(a.im, b.im)
}

fn bench_correlate(det: bool, opts: &BenchOpts) -> BenchRow {
    // STF-search shape: a long capture scanned with a short preamble
    // pattern. Lanes are lags, so both paths fold in the same k order.
    let sig: Vec<Complex64> = (0..4096)
        .map(|i| Complex64::cis(i as f64 * 0.37) * (1.0 + 0.1 * (i % 7) as f64))
        .collect();
    let pat: Vec<Complex64> = sig[512..576].to_vec();

    let mut a = Vec::new();
    let mut b = Vec::new();
    normalized_cross_correlate_scalar_into(&sig, &pat, &mut a);
    normalized_cross_correlate_into(&sig, &pat, &mut b);
    let matches = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| bits_eq(*x, *y));

    let mut out = Vec::new();
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(300, 30);
        (
            Some(time_ns(3, iters, || {
                normalized_cross_correlate_scalar_into(&sig, &pat, &mut out);
                black_box(out.len());
            })),
            Some(time_ns(3, iters, || {
                normalized_cross_correlate_into(&sig, &pat, &mut out);
                black_box(out.len());
            })),
        )
    };
    BenchRow {
        name: "correlate",
        work_items: a.len() as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn bench_demap(det: bool, opts: &BenchOpts) -> BenchRow {
    // 64-QAM, the widest axis scan. 512 symbol quads per call.
    const QUADS: usize = 512;
    let m = Modulation::Qam64;
    let bp = m.bits_per_symbol();
    let nv = 0.02;
    let ys: Vec<[Complex64; 4]> = (0..QUADS)
        .map(|q| {
            let mut quad = [Complex64::ZERO; 4];
            for (lane, y) in quad.iter_mut().enumerate() {
                let i = q * 4 + lane;
                *y = Complex64::cis(i as f64 * 0.913) * (0.4 + 0.9 * ((i % 11) as f64 / 10.0));
            }
            quad
        })
        .collect();

    let mut scalar_llrs = vec![0.0f64; QUADS * 4 * bp];
    let mut lane_llrs = vec![0.0f64; QUADS * 4 * bp];
    for (q, quad) in ys.iter().enumerate() {
        for (lane, &y) in quad.iter().enumerate() {
            let at = (q * 4 + lane) * bp;
            m.demap_soft_into(y, nv, &mut scalar_llrs[at..at + bp]);
        }
        let base = q * 4 * bp;
        let (o0, rest) = lane_llrs[base..base + 4 * bp].split_at_mut(bp);
        let (o1, rest) = rest.split_at_mut(bp);
        let (o2, o3) = rest.split_at_mut(bp);
        let _ = m.demap_soft_x4_into(*quad, nv, [o0, o1, o2, o3]);
    }
    let matches = scalar_llrs
        .iter()
        .zip(&lane_llrs)
        .all(|(x, y)| bits_eq(*x, *y));

    let mut out = vec![0.0f64; 4 * bp];
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(500, 50);
        (
            Some(time_ns(3, iters, || {
                for quad in &ys {
                    for (lane, &y) in quad.iter().enumerate() {
                        m.demap_soft_into(y, nv, &mut out[lane * bp..(lane + 1) * bp]);
                    }
                }
                black_box(out[0]);
            })),
            Some(time_ns(3, iters, || {
                for quad in &ys {
                    let (o0, rest) = out.split_at_mut(bp);
                    let (o1, rest) = rest.split_at_mut(bp);
                    let (o2, o3) = rest.split_at_mut(bp);
                    let _ = m.demap_soft_x4_into(*quad, nv, [o0, o1, o2, o3]);
                }
                black_box(out[0]);
            })),
        )
    };
    BenchRow {
        name: "demap",
        work_items: (QUADS * 4 * bp) as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn bench_detect_x4(det: bool, opts: &BenchOpts) -> BenchRow {
    // 2x2 MMSE + 64-QAM across 256 observation quads — the per-carrier
    // inner loop of the blocked data-symbol path.
    const QUADS: usize = 256;
    let h = CMat::new(
        2,
        2,
        [
            Complex64::new(0.92, 0.11),
            Complex64::new(0.21, -0.33),
            Complex64::new(-0.27, 0.18),
            Complex64::new(1.04, -0.06),
        ],
    );
    let prep: Prepared = prepare(DetectorKind::Mmse, &h, 0.01, Modulation::Qam64).unwrap();
    let n_ss = 2usize;
    let bp = Modulation::Qam64.bits_per_symbol();
    let ys: Vec<[Complex64; 2]> = (0..QUADS * 4)
        .map(|i| {
            [
                Complex64::cis(i as f64 * 0.71) * (0.5 + 0.6 * ((i % 13) as f64 / 12.0)),
                Complex64::cis(i as f64 * 1.13) * (0.5 + 0.6 * ((i % 17) as f64 / 16.0)),
            ]
        })
        .collect();

    let mut scalar_syms = vec![Complex64::ZERO; QUADS * 4 * n_ss];
    let mut scalar_llrs = vec![0.0f64; QUADS * 4 * n_ss * bp];
    for (i, y) in ys.iter().enumerate() {
        prep.apply_into(
            y,
            &mut scalar_syms[i * n_ss..(i + 1) * n_ss],
            &mut scalar_llrs[i * n_ss * bp..(i + 1) * n_ss * bp],
        );
    }
    let mut lane_syms = vec![Complex64::ZERO; QUADS * 4 * n_ss];
    let mut lane_llrs = vec![0.0f64; QUADS * 4 * n_ss * bp];
    for q in 0..QUADS {
        let i = q * 4;
        let (s0, rest) = lane_syms[i * n_ss..(i + 4) * n_ss].split_at_mut(n_ss);
        let (s1, rest) = rest.split_at_mut(n_ss);
        let (s2, s3) = rest.split_at_mut(n_ss);
        let (l0, rest) = lane_llrs[i * n_ss * bp..(i + 4) * n_ss * bp].split_at_mut(n_ss * bp);
        let (l1, rest) = rest.split_at_mut(n_ss * bp);
        let (l2, l3) = rest.split_at_mut(n_ss * bp);
        prep.apply_x4_into(
            [&ys[i], &ys[i + 1], &ys[i + 2], &ys[i + 3]],
            [s0, s1, s2, s3],
            [l0, l1, l2, l3],
        );
    }
    let matches = scalar_syms
        .iter()
        .zip(&lane_syms)
        .all(|(x, y)| complex_bits_eq(*x, *y))
        && scalar_llrs
            .iter()
            .zip(&lane_llrs)
            .all(|(x, y)| bits_eq(*x, *y));

    let mut syms = vec![Complex64::ZERO; 4 * n_ss];
    let mut llrs = vec![0.0f64; 4 * n_ss * bp];
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(500, 50);
        (
            Some(time_ns(3, iters, || {
                for (i, y) in ys.iter().enumerate() {
                    let lane = i % 4;
                    prep.apply_into(
                        y,
                        &mut syms[lane * n_ss..(lane + 1) * n_ss],
                        &mut llrs[lane * n_ss * bp..(lane + 1) * n_ss * bp],
                    );
                }
                black_box(llrs[0]);
            })),
            Some(time_ns(3, iters, || {
                for q in 0..QUADS {
                    let i = q * 4;
                    let (s0, rest) = syms.split_at_mut(n_ss);
                    let (s1, rest) = rest.split_at_mut(n_ss);
                    let (s2, s3) = rest.split_at_mut(n_ss);
                    let (l0, rest) = llrs.split_at_mut(n_ss * bp);
                    let (l1, rest) = rest.split_at_mut(n_ss * bp);
                    let (l2, l3) = rest.split_at_mut(n_ss * bp);
                    prep.apply_x4_into(
                        [&ys[i], &ys[i + 1], &ys[i + 2], &ys[i + 3]],
                        [s0, s1, s2, s3],
                        [l0, l1, l2, l3],
                    );
                }
                black_box(llrs[0]);
            })),
        )
    };
    BenchRow {
        name: "detect_x4",
        work_items: (QUADS * 4) as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut report = FigureReport::new(
        "BENCH_simd",
        "Lane kernels before/after: SoA correlation, x4 demap, x4 detect",
        "benchmark index",
        seeds::SIMD,
        &opts,
    );
    let det = report.is_deterministic();

    let rows = [
        bench_correlate(det, &opts),
        bench_demap(det, &opts),
        bench_detect_x4(det, &opts),
    ];

    println!("# T5: lane kernels before/after (best-of-3, release)");
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
        let geomean = rows
            .iter()
            .map(|r| r.speedup().unwrap().ln())
            .sum::<f64>()
            .exp()
            .powf(1.0 / rows.len() as f64);
        println!("kernel speedup geomean: {geomean:.2}x");
        report.meta("kernel_geomean_speedup", geomean.serialize());
    }
    for r in &rows {
        assert!(r.matches, "{}: scalar/lane outputs must agree", r.name);
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
        Value::object([("kernel_min_geomean_speedup", 1.5f64.serialize())]),
    );
    report.finish();
}
