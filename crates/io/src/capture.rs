//! SigMF-style capture files (`.iqcap`): record multi-antenna IQ once,
//! replay it bit-exactly forever.
//!
//! A capture is an ordinary wire-format stream —
//! [`WireMsg::CaptureHeader`] (the metadata "global segment"), a run of
//! [`WireMsg::IqChunk`]s with contiguous sequence numbers, then
//! [`WireMsg::Bye`] as the explicit terminator. Because it *is* the wire
//! format, the same reader/writer pair records to a file, replays from a
//! file, or streams over a TCP socket unchanged; samples travel as
//! `f64::to_bits`, so a replayed capture drives `Receiver::scan` to
//! bit-identical decodes (the replay-determinism acceptance test).
//!
//! A capture that ends without `Bye` — a torn copy, a killed recorder —
//! is reported as [`WireError::TruncatedCapture`] carrying how many
//! bytes were readable before the cut, never silently shortened.

use crate::wire::{
    decode_payload, read_frame, write_msg, CaptureMeta, ChunkRows, IqChunk, WireError, WireMsg,
    IQ_CHUNK,
};
use mimonet::config::RxConfig;
use mimonet::rx::{Receiver, RxFrame, ScanStats};
use mimonet_dsp::complex::Complex64;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Default samples-per-antenna per chunk when splitting a stream.
pub const DEFAULT_CHUNK_LEN: usize = 4096;
/// Nominal capture sample rate (20 Msps, the 802.11n chains' rate).
pub const CAPTURE_SAMPLE_RATE_HZ: f64 = 20e6;

/// Writes a capture to any byte sink (file, socket, `Vec<u8>`).
pub struct CaptureWriter<W: Write> {
    w: W,
    n_ant: usize,
    seq: u64,
}

impl CaptureWriter<BufWriter<File>> {
    /// Creates a capture file, writing the header immediately.
    pub fn create(path: impl AsRef<Path>, meta: &CaptureMeta) -> Result<Self, WireError> {
        let file = File::create(path).map_err(WireError::from)?;
        Self::new(BufWriter::new(file), meta)
    }
}

impl<W: Write> CaptureWriter<W> {
    /// Wraps a sink, writing the capture header immediately.
    pub fn new(mut w: W, meta: &CaptureMeta) -> Result<Self, WireError> {
        write_msg(&mut w, &WireMsg::CaptureHeader(meta.clone()))?;
        Ok(Self {
            w,
            n_ant: meta.n_ant as usize,
            seq: 0,
        })
    }

    /// Writes one chunk (all antennas, equal lengths).
    pub fn write_chunk(&mut self, streams: &[&[Complex64]]) -> Result<(), WireError> {
        assert_eq!(streams.len(), self.n_ant, "antenna count mismatch");
        let len = streams[0].len();
        assert!(
            streams.iter().all(|s| s.len() == len),
            "ragged antenna streams"
        );
        let chunk = IqChunk {
            seq: self.seq,
            samples: streams.iter().map(|s| s.to_vec()).collect(),
        };
        write_msg(&mut self.w, &WireMsg::IqChunk(chunk))?;
        self.seq += 1;
        Ok(())
    }

    /// Splits full per-antenna streams into `chunk_len`-sample chunks and
    /// writes them all.
    pub fn write_streams(
        &mut self,
        streams: &[Vec<Complex64>],
        chunk_len: usize,
    ) -> Result<(), WireError> {
        assert!(chunk_len > 0, "chunk length must be nonzero");
        let len = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut start = 0;
        while start < len {
            let end = (start + chunk_len).min(len);
            let views: Vec<&[Complex64]> = streams.iter().map(|s| &s[start..end]).collect();
            self.write_chunk(&views)?;
            start = end;
        }
        Ok(())
    }

    /// Chunks written so far.
    pub fn chunks_written(&self) -> u64 {
        self.seq
    }

    /// Writes the `Bye` terminator, flushes, and returns the inner sink.
    pub fn finish(mut self) -> Result<W, WireError> {
        write_msg(&mut self.w, &WireMsg::Bye)?;
        self.w.flush().map_err(WireError::from)?;
        Ok(self.w)
    }
}

/// `Read` wrapper counting consumed bytes — the `bytes_read` a
/// [`WireError::TruncatedCapture`] reports.
struct CountingRead<R> {
    inner: R,
    count: u64,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// Reads a capture from any byte source.
pub struct CaptureReader<R: Read> {
    r: CountingRead<R>,
    meta: CaptureMeta,
    next_seq: u64,
    done: bool,
    /// The last frame's payload, reused from frame to frame.
    payload: Vec<u8>,
}

impl CaptureReader<BufReader<File>> {
    /// Opens a capture file and reads its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WireError> {
        let file = File::open(path).map_err(WireError::from)?;
        Self::new(BufReader::new(file))
    }
}

impl<R: Read> CaptureReader<R> {
    /// Wraps a source, reading the capture header immediately.
    pub fn new(r: R) -> Result<Self, WireError> {
        Self::with_payload(r, Vec::new())
    }

    /// [`Self::new`] reading frames into `payload`, a buffer kept from
    /// an earlier reader.
    fn with_payload(r: R, mut payload: Vec<u8>) -> Result<Self, WireError> {
        let mut r = CountingRead { inner: r, count: 0 };
        match read_frame(&mut r, &mut payload)? {
            Some(type_code) => match decode_payload(type_code, &payload)? {
                WireMsg::CaptureHeader(meta) => Ok(Self {
                    r,
                    meta,
                    next_seq: 0,
                    done: false,
                    payload,
                }),
                _ => Err(WireError::BadPayload("capture must start with a header")),
            },
            None => Err(WireError::Truncated {
                context: "capture header",
            }),
        }
    }

    /// The capture's metadata.
    pub fn meta(&self) -> &CaptureMeta {
        &self.meta
    }

    /// Bytes consumed from the source so far.
    pub fn bytes_read(&self) -> u64 {
        self.r.count
    }

    /// Next chunk, or `None` after the `Bye` terminator. Sequence gaps
    /// are typed errors; a capture cut short (EOF before `Bye`, whether
    /// at a frame boundary or mid-frame) is
    /// [`WireError::TruncatedCapture`] with the readable byte count.
    pub fn next_chunk(&mut self) -> Result<Option<IqChunk>, WireError> {
        Ok(self.next_rows()?.map(|rows| rows.to_chunk()))
    }

    /// [`Self::next_chunk`] with the samples left on the wire, checked in
    /// the same order: the frame, the sample count against the payload,
    /// the antenna count, then the sequence number.
    fn next_rows(&mut self) -> Result<Option<ChunkRows<'_>>, WireError> {
        if self.done {
            return Ok(None);
        }
        let type_code = match read_frame(&mut self.r, &mut self.payload) {
            Ok(Some(type_code)) => type_code,
            // EOF without Bye: the capture was cut short. CRCs cannot see
            // a loss of whole trailing frames, so the terminator must.
            Ok(None) | Err(WireError::Truncated { .. }) => {
                return Err(WireError::TruncatedCapture {
                    bytes_read: self.r.count,
                })
            }
            Err(e) => return Err(e),
        };
        if type_code != IQ_CHUNK {
            return match decode_payload(type_code, &self.payload)? {
                WireMsg::Bye => {
                    self.done = true;
                    Ok(None)
                }
                _ => Err(WireError::BadPayload("unexpected message in capture")),
            };
        }
        let rows = ChunkRows::parse(&self.payload)?;
        if rows.n_ant() != self.meta.n_ant as usize {
            return Err(WireError::BadPayload("chunk antenna count"));
        }
        if rows.seq != self.next_seq {
            return Err(WireError::BadPayload("chunk sequence gap"));
        }
        self.next_seq += 1;
        Ok(Some(rows))
    }

    /// Reads every remaining chunk into contiguous per-antenna streams.
    pub fn read_streams(&mut self) -> Result<Vec<Vec<Complex64>>, WireError> {
        let mut streams = vec![Vec::new(); self.meta.n_ant as usize];
        self.append_streams(&mut streams)?;
        Ok(streams)
    }

    /// Appends every remaining chunk's rows to `streams`, one per
    /// antenna.
    fn append_streams(&mut self, streams: &mut [Vec<Complex64>]) -> Result<(), WireError> {
        while let Some(rows) = self.next_rows()? {
            for (ant, s) in streams.iter_mut().enumerate() {
                rows.append_row(ant, s);
            }
        }
        Ok(())
    }
}

/// Records full per-antenna streams into a capture file in one call.
pub fn write_capture(
    path: impl AsRef<Path>,
    meta: &CaptureMeta,
    streams: &[Vec<Complex64>],
) -> Result<(), WireError> {
    let mut w = CaptureWriter::create(path, meta)?;
    w.write_streams(streams, DEFAULT_CHUNK_LEN)?;
    w.finish()?;
    Ok(())
}

/// Reads a capture file back into contiguous per-antenna streams.
pub fn read_capture(
    path: impl AsRef<Path>,
) -> Result<(CaptureMeta, Vec<Vec<Complex64>>), WireError> {
    let mut streams = Vec::new();
    let meta = read_capture_into(path, &mut Vec::new(), &mut streams)?;
    Ok((meta, streams))
}

/// Reads a capture file into `streams[..n_ant]`, each cleared first;
/// `streams` grows to at least `n_ant` entries. Frames are read through
/// `payload`. Both buffers are the caller's and may come from an earlier
/// read: the streams are reserved from the file's length, which bounds
/// their samples, so a reused buffer that is large enough does not grow.
fn read_capture_into(
    path: impl AsRef<Path>,
    payload: &mut Vec<u8>,
    streams: &mut Vec<Vec<Complex64>>,
) -> Result<CaptureMeta, WireError> {
    let file = File::open(path).map_err(WireError::from)?;
    let file_len = file.metadata().map_err(WireError::from)?.len() as usize;
    let mut r = CaptureReader::with_payload(BufReader::new(file), std::mem::take(payload))?;
    let n_ant = r.meta.n_ant as usize;
    if streams.len() < n_ant {
        streams.resize_with(n_ant, Vec::new);
    }
    // Each sample takes 16 bytes of the file.
    let most = file_len / (16 * n_ant.max(1));
    for s in &mut streams[..n_ant] {
        s.clear();
        s.reserve(most);
    }
    let read = r.append_streams(&mut streams[..n_ant]);
    *payload = std::mem::take(&mut r.payload);
    read?;
    Ok(r.meta)
}

thread_local! {
    /// This thread's [`replay_scan`] buffers: the frame payload and the
    /// per-antenna streams. They keep the capacity of the largest
    /// capture the thread replayed.
    static REPLAY: RefCell<(Vec<u8>, Vec<Vec<Complex64>>)> = RefCell::default();
}

/// What a replayed capture decodes to: the capture metadata, the
/// `(offset, frame)` pairs `Receiver::scan` found, and its scan stats.
pub type ReplayOutcome = (CaptureMeta, Vec<(usize, RxFrame)>, ScanStats);

/// Replays a capture file through `Receiver::scan` — the offline decode
/// path. Bit-identical samples in, bit-identical frames out. The samples
/// are read into buffers this thread keeps across calls, as
/// `Receiver::scan` keeps its workspace.
pub fn replay_scan(path: impl AsRef<Path>, rx_cfg: RxConfig) -> Result<ReplayOutcome, WireError> {
    REPLAY.with(|bufs| {
        let (payload, streams) = &mut *bufs.borrow_mut();
        let meta = read_capture_into(path, payload, streams)?;
        let receiver = Receiver::new(rx_cfg);
        let (frames, stats) = receiver.scan(&streams[..meta.n_ant as usize]);
        Ok((meta, frames, stats))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n_ant: u16) -> CaptureMeta {
        CaptureMeta {
            n_ant,
            sample_rate_hz: CAPTURE_SAMPLE_RATE_HZ,
            seed: 5,
            description: "test capture".into(),
        }
    }

    fn ramp(n: usize, scale: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(i as f64 * scale, -(i as f64) / 3.0))
            .collect()
    }

    #[test]
    fn in_memory_round_trip_is_bit_exact() {
        let streams = vec![ramp(1000, 1.0), ramp(1000, -0.25)];
        let mut buf = Vec::new();
        let mut w = CaptureWriter::new(&mut buf, &meta(2)).unwrap();
        w.write_streams(&streams, 300).unwrap(); // uneven split on purpose
        assert_eq!(w.chunks_written(), 4);
        w.finish().unwrap();

        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert_eq!(r.meta(), &meta(2));
        let back = r.read_streams().unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in streams.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn missing_terminator_is_typed_capture_truncation() {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf, &meta(1)).unwrap();
            w.write_streams(&[ramp(64, 1.0)], 64).unwrap();
            // No finish(): simulate a torn capture.
        }
        let total = buf.len() as u64;
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(r.next_chunk().unwrap().is_some());
        match r.next_chunk() {
            Err(WireError::TruncatedCapture { bytes_read }) => {
                assert_eq!(bytes_read, total, "every stored byte was readable");
            }
            other => panic!("expected TruncatedCapture, got {other:?}"),
        }
    }

    #[test]
    fn mid_frame_cut_reports_readable_bytes() {
        let mut buf = Vec::new();
        {
            let mut w = CaptureWriter::new(&mut buf, &meta(1)).unwrap();
            w.write_streams(&[ramp(64, 1.0)], 32).unwrap();
        }
        // Cut inside the second chunk's frame.
        let cut = buf.len() - 40;
        let mut r = CaptureReader::new(&buf[..cut]).unwrap();
        assert!(r.next_chunk().unwrap().is_some());
        match r.next_chunk() {
            Err(WireError::TruncatedCapture { bytes_read }) => {
                assert_eq!(bytes_read, cut as u64);
            }
            other => panic!("expected TruncatedCapture, got {other:?}"),
        }
    }

    #[test]
    fn sequence_gap_is_detected() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &WireMsg::CaptureHeader(meta(1))).unwrap();
        write_msg(
            &mut buf,
            &WireMsg::IqChunk(IqChunk {
                seq: 3, // should be 0
                samples: vec![ramp(8, 1.0)],
            }),
        )
        .unwrap();
        let mut r = CaptureReader::new(&buf[..]).unwrap();
        assert!(matches!(r.next_chunk(), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn header_is_mandatory() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &WireMsg::Bye).unwrap();
        assert!(matches!(
            CaptureReader::new(&buf[..]),
            Err(WireError::BadPayload(_))
        ));
        assert!(matches!(
            CaptureReader::new(&[][..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("mimonet_io_capture_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.iqcap");
        let streams = vec![ramp(500, 0.5)];
        write_capture(&path, &meta(1), &streams).unwrap();
        let (m, back) = read_capture(&path).unwrap();
        assert_eq!(m.n_ant, 1);
        assert_eq!(back, streams);
        std::fs::remove_file(&path).ok();
    }
}
