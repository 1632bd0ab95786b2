//! Criterion microbenchmarks of the DSP substrate: the kernels every
//! received sample passes through (part of experiment T3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mimonet_dsp::complex::C64;
use mimonet_dsp::correlate::{
    normalized_cross_correlate, normalized_cross_correlate_into, SlidingAutocorrelator,
};
use mimonet_dsp::fft::Fft;
use mimonet_dsp::resample::resample;
use mimonet_oracle::correlate::normalized_cross_correlate_reference;

fn signal(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::cis(i as f64 * 0.37) * (1.0 + 0.1 * (i % 7) as f64))
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for &n in &[64usize, 256, 1024] {
        let plan = Fft::new(n);
        let x = signal(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            let mut buf = x.clone();
            b.iter(|| {
                plan.forward(&mut buf);
            });
        });
    }
    g.finish();
}

fn bench_autocorrelator(c: &mut Criterion) {
    let x = signal(8192);
    c.benchmark_group("sync")
        .throughput(Throughput::Elements(x.len() as u64))
        .bench_function("sliding_autocorr_16_32", |b| {
            b.iter(|| {
                let mut corr = SlidingAutocorrelator::new(16, 32);
                let mut peak = 0.0f64;
                for &s in &x {
                    corr.push(s);
                    peak = peak.max(corr.metric());
                }
                peak
            });
        });
}

fn bench_cross_correlate(c: &mut Criterion) {
    let x = signal(2048);
    let reference = signal(64);
    c.bench_function("cross_correlate_2048x64", |b| {
        b.iter(|| normalized_cross_correlate(&x, &reference));
    });

    // Before/after pair for the hot-path optimization: per-lag window
    // energy recomputed from scratch vs the O(1) sliding update writing
    // into a reused buffer.
    let mut g = c.benchmark_group("cross_correlate_4096x64");
    g.throughput(Throughput::Elements(4096));
    let x = signal(4096);
    g.bench_function("reference", |b| {
        b.iter(|| normalized_cross_correlate_reference(&x, &reference));
    });
    g.bench_function("sliding_into", |b| {
        let mut out = Vec::new();
        b.iter(|| normalized_cross_correlate_into(&x, &reference, &mut out));
    });
    g.finish();
}

fn bench_resample(c: &mut Criterion) {
    let x = signal(4096);
    c.bench_function("resample_20ppm_4096", |b| {
        b.iter(|| resample(&x, 1.0 / (1.0 + 20e-6), 16));
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_autocorrelator,
    bench_cross_correlate,
    bench_resample
);
criterion_main!(benches);
