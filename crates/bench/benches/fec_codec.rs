//! Criterion benchmarks of the FEC pipeline: encode, interleave and
//! Viterbi decode at frame-realistic sizes (part of experiment T3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mimonet_fec::interleaver::Interleaver;
use mimonet_fec::puncture::{depuncture_soft, puncture, CodeRate};
use mimonet_fec::viterbi::{decode_soft_unterminated, ViterbiDecoder};
use mimonet_fec::{ConvEncoder, Scrambler};
use mimonet_oracle::viterbi as reference;

fn bits(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((i * 1103515245 + 12345) >> 16 & 1) as u8)
        .collect()
}

fn bench_encoder(c: &mut Criterion) {
    let data = bits(8192);
    c.benchmark_group("fec")
        .throughput(Throughput::Elements(data.len() as u64))
        .bench_function("conv_encode_8k", |b| {
            b.iter(|| ConvEncoder::new().encode(&data));
        });
}

fn bench_viterbi(c: &mut Criterion) {
    let mut g = c.benchmark_group("viterbi");
    for &n in &[1024usize, 4096] {
        let data = bits(n);
        let coded = ConvEncoder::new().encode(&data);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 4.0 } else { -4.0 })
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("soft_unterminated", n), &n, |b, _| {
            b.iter(|| decode_soft_unterminated(&llrs).unwrap());
        });
        // Before/after pair for the hot-path optimization: the
        // closure-per-transition reference decoder vs the state-parallel
        // decoder reusing its survivor buffer across calls.
        g.bench_with_input(BenchmarkId::new("soft_reference", n), &n, |b, _| {
            b.iter(|| reference::decode_soft_unterminated(&llrs).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("soft_table_into", n), &n, |b, _| {
            let mut dec = ViterbiDecoder::new();
            let mut out = Vec::new();
            b.iter(|| dec.decode_soft_unterminated_into(&llrs, &mut out).unwrap());
        });
    }
    g.finish();
}

fn bench_punctured_path(c: &mut Criterion) {
    let data = bits(4096);
    let coded = ConvEncoder::new().encode(&data);
    c.bench_function("puncture_depuncture_r34_8k", |b| {
        b.iter(|| {
            let tx = puncture(&coded, CodeRate::R3_4);
            let soft: Vec<f64> = tx
                .iter()
                .map(|&x| if x == 0 { 1.0 } else { -1.0 })
                .collect();
            depuncture_soft(&soft, CodeRate::R3_4, coded.len())
        });
    });
}

fn bench_scrambler(c: &mut Criterion) {
    let data = bits(65536);
    c.benchmark_group("scrambler")
        .throughput(Throughput::Elements(data.len() as u64))
        .bench_function("scramble_64k", |b| {
            b.iter(|| Scrambler::new(0x5D).scramble(&data));
        });
}

fn bench_interleaver(c: &mut Criterion) {
    let il = Interleaver::ht(312, 6, 1, 2); // 64-QAM HT symbol, stream 2
    let data = bits(312);
    c.bench_function("ht_interleave_64qam_symbol", |b| {
        b.iter(|| il.interleave(&data));
    });
}

criterion_group!(
    benches,
    bench_encoder,
    bench_viterbi,
    bench_punctured_path,
    bench_scrambler,
    bench_interleaver
);
criterion_main!(benches);
