//! # mimonet-dsp
//!
//! Numerics substrate for MIMONet-rs, the Rust reproduction of the SRIF'14
//! MIMO-OFDM spatial-multiplexing transceiver. Everything here is
//! implemented from scratch (no external numeric crates): complex
//! arithmetic, a planned radix-2 FFT, correlation kernels for
//! synchronization, FIR filtering, fractional resampling and streaming
//! statistics.
//!
//! The crate is intentionally free of any protocol knowledge; 802.11n
//! specifics live in `mimonet-frame` and above.
//!
//! ## Lane kernels
//!
//! The sliding correlation has one implementation, a lane-per-output
//! vectorized form built on [`simd::F64x4`]. Its scalar twin lives in
//! the dev-only `mimonet-oracle` crate as the test oracle, and the two
//! are bit-identical (see `simd`'s module docs for the rule that makes
//! this true). The FFT has scalar butterflies only: a lane form measured
//! 0.77× the scalar speed at 64 points and was removed.

pub mod complex;
pub mod correlate;
pub mod fft;
pub mod filter;
pub mod resample;
pub mod seedtree;
pub mod simd;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::{Complex64, C64};
pub use fft::Fft;
pub use simd::F64x4;
