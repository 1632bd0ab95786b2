//! Capture fault pin: each way a capture can be damaged reads as one
//! typed `WireError`, and the same one through every reader —
//! `CaptureReader::next_chunk`, `read_capture` and `replay_scan`.
//!
//! The faults sit after a valid header and a valid first chunk: a
//! flipped payload byte (bad CRC), a sequence gap, a wrong antenna
//! count, a sample count that disagrees with the payload, `Bye` with
//! trailing bytes, a message that does not belong in a capture, an
//! unknown type, a cut inside a chunk, a missing `Bye` and a header
//! that claims more than `MAX_PAYLOAD`. Two cases pin the order of the
//! checks where a chunk breaks more than one. A proptest then mutates
//! and cuts a small capture at random: `read_capture` and a
//! `next_chunk` loop must return the same streams bit for bit, or the
//! same error, and neither may panic.

use mimonet::config::RxConfig;
use mimonet_dsp::complex::Complex64;
use mimonet_fec::crc::crc32;
use mimonet_io::capture::{read_capture, replay_scan, CaptureReader, CaptureWriter};
use mimonet_io::wire::{
    encode, CaptureMeta, IqChunk, WireError, WireMsg, HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN,
    WIRE_VERSION,
};
use proptest::prelude::*;
use std::io::Read;
use std::path::PathBuf;

/// Samples per antenna in each chunk of the test capture.
const CHUNK: usize = 24;

fn meta(n_ant: u16) -> CaptureMeta {
    CaptureMeta {
        n_ant,
        sample_rate_hz: 20e6,
        seed: 9,
        description: "fault pin".into(),
    }
}

/// A deterministic, bit-diverse sample row (signed zeros, subnormals,
/// large and small magnitudes).
fn row(n: usize, salt: u64) -> Vec<Complex64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let re = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            match x % 7 {
                0 => Complex64::new(-0.0, f64::MIN_POSITIVE / 4.0),
                1 => Complex64::new(re * 1e300, -re),
                _ => Complex64::new(re, re * -3.25),
            }
        })
        .collect()
}

fn chunk(seq: u64, n_ant: usize) -> WireMsg {
    WireMsg::IqChunk(IqChunk {
        seq,
        samples: (0..n_ant).map(|a| row(CHUNK, seq * 8 + a as u64)).collect(),
    })
}

/// Concatenated wire frames.
fn frames(msgs: &[WireMsg]) -> Vec<u8> {
    msgs.iter().flat_map(encode).collect()
}

/// A valid 2-antenna capture of three chunks, written by `CaptureWriter`.
fn valid_capture() -> Vec<u8> {
    let streams: Vec<Vec<Complex64>> = (0..2).map(|a| row(3 * CHUNK, 100 + a)).collect();
    let mut w = CaptureWriter::new(Vec::new(), &meta(2)).unwrap();
    w.write_streams(&streams, CHUNK).unwrap();
    w.finish().unwrap()
}

/// Rewrites the length field and CRC of the frame at `at` (its payload
/// ends where the next frame would start, `end - TRAILER_LEN`).
fn reseal(bytes: &mut [u8], at: usize, end: usize) {
    let len = (end - TRAILER_LEN - at - HEADER_LEN) as u32;
    bytes[at + 8..at + 12].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&bytes[at + 4..end - TRAILER_LEN]);
    bytes[end - TRAILER_LEN..end].copy_from_slice(&crc.to_le_bytes());
}

/// Start offsets of the whole frames in `bytes`, read from their length
/// fields, stopping at the first that does not fit.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at + HEADER_LEN <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        let end = at + HEADER_LEN + len + TRAILER_LEN;
        if end > bytes.len() {
            break;
        }
        starts.push(at);
        at = end;
    }
    starts
}

/// A capture file holding `bytes`, removed on drop. It sits straight in
/// the temp dir, named by the pid and `name`, so the run leaves nothing
/// behind and no test removes what a parallel sibling is writing.
struct TempCapture(PathBuf);

impl TempCapture {
    fn new(name: &str, bytes: &[u8]) -> Self {
        let path = std::env::temp_dir().join(format!(
            "mimonet_capture_faults_{}_{name}.iqcap",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        Self(path)
    }
}

impl Drop for TempCapture {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Per-antenna samples as bit patterns, so NaNs and signed zeros compare
/// exactly.
type Bits = Vec<Vec<(u64, u64)>>;

fn bits(streams: &[Vec<Complex64>]) -> Bits {
    streams
        .iter()
        .map(|s| s.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect())
        .collect()
}

/// What a reader made of a capture: its metadata (as `Debug`, so a NaN
/// rate compares) and streams, or the error.
type Outcome = Result<(String, Bits), WireError>;

/// Reads `bytes` chunk by chunk through `CaptureReader::next_chunk`.
fn via_next_chunk(bytes: &[u8]) -> Outcome {
    let mut r = CaptureReader::new(bytes)?;
    let mut streams = vec![Vec::new(); r.meta().n_ant as usize];
    while let Some(chunk) = r.next_chunk()? {
        for (s, ant) in streams.iter_mut().zip(&chunk.samples) {
            s.extend_from_slice(ant);
        }
    }
    Ok((format!("{:?}", r.meta()), bits(&streams)))
}

fn via_read_capture(file: &TempCapture) -> Outcome {
    let (meta, streams) = read_capture(&file.0)?;
    Ok((format!("{meta:?}"), bits(&streams)))
}

/// Runs `bytes` through all three readers and checks that each fails
/// with `want`.
fn assert_fault(name: &str, bytes: &[u8], want: WireError) {
    assert_eq!(
        via_next_chunk(bytes),
        Err(want.clone()),
        "{name}: next_chunk"
    );
    let file = TempCapture::new(name, bytes);
    assert_eq!(
        via_read_capture(&file),
        Err(want.clone()),
        "{name}: read_capture"
    );
    let replayed = replay_scan(&file.0, RxConfig::new(2)).map(|_| ());
    assert_eq!(replayed, Err(want), "{name}: replay_scan");
}

#[test]
fn the_valid_capture_reads_the_same_everywhere() {
    let bytes = valid_capture();
    let file = TempCapture::new("valid", &bytes);
    let read = via_next_chunk(&bytes).unwrap();
    assert_eq!(read, via_read_capture(&file).unwrap());
    assert_eq!(read.1[0].len(), 3 * CHUNK);
    let (m, frames, _) = replay_scan(&file.0, RxConfig::new(2)).unwrap();
    assert_eq!(m, meta(2));
    assert!(frames.is_empty(), "noise-like samples hold no frame");
}

#[test]
fn a_flipped_chunk_byte_is_a_bad_crc() {
    let mut bytes = valid_capture();
    let starts = frame_starts(&bytes);
    let (at, end) = (starts[2], starts[3]);
    let carried = u32::from_le_bytes(bytes[end - 4..end].try_into().unwrap());
    bytes[at + HEADER_LEN + 100] ^= 0x20;
    let computed = crc32(&bytes[at + 4..end - TRAILER_LEN]);
    assert_fault(
        "bad_crc",
        &bytes,
        WireError::BadCrc {
            expected: computed,
            got: carried,
        },
    );
}

#[test]
fn a_sequence_gap_is_typed() {
    let bytes = frames(&[
        WireMsg::CaptureHeader(meta(2)),
        chunk(0, 2),
        chunk(2, 2),
        WireMsg::Bye,
    ]);
    assert_fault(
        "seq_gap",
        &bytes,
        WireError::BadPayload("chunk sequence gap"),
    );
}

#[test]
fn a_wrong_antenna_count_is_typed() {
    let bytes = frames(&[
        WireMsg::CaptureHeader(meta(2)),
        chunk(0, 2),
        chunk(1, 1),
        WireMsg::Bye,
    ]);
    assert_fault(
        "n_ant",
        &bytes,
        WireError::BadPayload("chunk antenna count"),
    );
}

#[test]
fn the_antenna_count_is_checked_before_the_sequence() {
    let bytes = frames(&[
        WireMsg::CaptureHeader(meta(2)),
        chunk(0, 2),
        chunk(5, 3),
        WireMsg::Bye,
    ]);
    assert_fault(
        "n_ant_and_gap",
        &bytes,
        WireError::BadPayload("chunk antenna count"),
    );
}

#[test]
fn a_sample_count_off_the_payload_is_typed_before_the_antenna_count() {
    let mut bytes = frames(&[
        WireMsg::CaptureHeader(meta(2)),
        chunk(0, 2),
        chunk(1, 3),
        WireMsg::Bye,
    ]);
    let starts = frame_starts(&bytes);
    // Claim one more sample per antenna than the payload carries.
    let count_at = starts[2] + HEADER_LEN + 10;
    bytes[count_at..count_at + 4].copy_from_slice(&(CHUNK as u32 + 1).to_le_bytes());
    reseal(&mut bytes, starts[2], starts[3]);
    assert_fault(
        "sample_count",
        &bytes,
        WireError::BadPayload("chunk sample count"),
    );
}

#[test]
fn bye_with_trailing_bytes_is_typed() {
    let mut bytes = valid_capture();
    let bye = *frame_starts(&bytes).last().unwrap();
    bytes.splice(bye + HEADER_LEN..bye + HEADER_LEN, [1, 2, 3]);
    let end = bytes.len();
    reseal(&mut bytes, bye, end);
    assert_fault(
        "bye_trailing",
        &bytes,
        WireError::BadPayload("trailing bytes"),
    );
}

#[test]
fn a_message_outside_the_capture_vocabulary_is_typed() {
    let bytes = frames(&[
        WireMsg::CaptureHeader(meta(2)),
        chunk(0, 2),
        WireMsg::Hello {
            version: WIRE_VERSION,
        },
        WireMsg::Bye,
    ]);
    assert_fault(
        "hello",
        &bytes,
        WireError::BadPayload("unexpected message in capture"),
    );
    let bytes = frames(&[
        WireMsg::CaptureHeader(meta(2)),
        chunk(0, 2),
        WireMsg::CaptureHeader(meta(2)),
        WireMsg::Bye,
    ]);
    assert_fault(
        "second_header",
        &bytes,
        WireError::BadPayload("unexpected message in capture"),
    );
}

#[test]
fn an_unknown_type_is_typed() {
    let mut bytes = valid_capture();
    let starts = frame_starts(&bytes);
    let (at, end) = (starts[2], starts[3]);
    bytes[at + 6..at + 8].copy_from_slice(&0x99u16.to_le_bytes());
    reseal(&mut bytes, at, end);
    assert_fault("unknown_type", &bytes, WireError::UnknownType(0x99));
}

#[test]
fn a_cut_inside_a_chunk_reports_the_readable_bytes() {
    let bytes = valid_capture();
    let starts = frame_starts(&bytes);
    for cut in [
        starts[2] + 5,
        starts[2] + HEADER_LEN,
        starts[2] + HEADER_LEN + 301,
        starts[3] - 1,
    ] {
        assert_fault(
            &format!("cut_{cut}"),
            &bytes[..cut],
            WireError::TruncatedCapture {
                bytes_read: cut as u64,
            },
        );
    }
}

#[test]
fn a_missing_bye_reports_the_whole_capture() {
    let bytes = valid_capture();
    let bye = *frame_starts(&bytes).last().unwrap();
    assert_fault(
        "no_bye",
        &bytes[..bye],
        WireError::TruncatedCapture {
            bytes_read: bye as u64,
        },
    );
}

#[test]
fn a_header_over_max_payload_is_too_large() {
    let mut bytes = frames(&[WireMsg::CaptureHeader(meta(2)), chunk(0, 2)]);
    let mut claim = encode(&WireMsg::Bye);
    claim[8..12].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
    bytes.extend_from_slice(&claim);
    assert_fault("too_large", &bytes, WireError::TooLarge(MAX_PAYLOAD + 1));
}

/// Serves `data`, recording the largest buffer it is handed.
struct RecordingReader<'a> {
    data: &'a [u8],
    largest: usize,
}

impl Read for RecordingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        let n = buf.len().min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn a_bare_chunk_header_commits_at_most_64_kib() {
    // A valid capture header and chunk, then a chunk header claiming
    // MAX_PAYLOAD and nothing after it.
    let mut bytes = frames(&[WireMsg::CaptureHeader(meta(2)), chunk(0, 2)]);
    let mut claim = encode(&chunk(1, 2));
    claim.truncate(HEADER_LEN);
    claim[8..12].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
    bytes.extend_from_slice(&claim);
    let mut source = RecordingReader {
        data: &bytes,
        largest: 0,
    };
    let mut r = CaptureReader::new(&mut source).unwrap();
    assert!(r.next_chunk().unwrap().is_some());
    assert_eq!(
        r.next_chunk(),
        Err(WireError::TruncatedCapture {
            bytes_read: bytes.len() as u64
        })
    );
    drop(r);
    assert!(
        source.largest <= 64 << 10,
        "a bare header had the capture reader fill a {}-byte buffer",
        source.largest
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn mutated_captures_read_the_same_through_both_readers(
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        cut in any::<u16>(),
        mode in 0u8..4,
        reseal_frames in any::<bool>(),
    ) {
        let mut bytes = valid_capture();
        for &(at, byte) in &edits {
            let at = at as usize % bytes.len();
            bytes[at] = byte;
        }
        // Re-sealing lets an edit reach the payload checks behind the CRC.
        if reseal_frames {
            for at in frame_starts(&bytes) {
                let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
                reseal(&mut bytes, at, at + HEADER_LEN + len + TRAILER_LEN);
            }
        }
        match mode {
            0 => {}
            1 => bytes.truncate(cut as usize % (bytes.len() + 1)),
            2 => bytes.truncate(bytes.len() - cut as usize % 64),
            _ => bytes.extend_from_slice(&cut.to_le_bytes()),
        }
        let file = TempCapture::new("proptest", &bytes);
        prop_assert_eq!(via_next_chunk(&bytes), via_read_capture(&file));
    }
}
