//! # mimonet-oracle
//!
//! The reference implementations MIMONet-rs checks its optimized code
//! against, kept out of the library crates so each of those has one
//! implementation per behaviour. Nothing here is fast or reusable on
//! purpose: each oracle is the straightforward form its production
//! counterpart replaced, and its value is that it does not change.
//!
//! * [`ReferenceReceiver`] — the allocate-per-stage receiver that
//!   `mimonet::Receiver` must match bit for bit (`tests/equivalence.rs`),
//!   with the per-bit descramble the word-wide one replaced;
//! * [`viterbi`] — the closure-driven forward-scatter Viterbi decoder
//!   that `mimonet_fec::ViterbiDecoder` must match bit for bit;
//! * [`correlate`] — the per-lag and scalar sliding correlators that
//!   `mimonet_dsp`'s lane correlator is checked against;
//! * [`fft`] — the per-stage-table radix-2 loop that `mimonet_dsp::fft::Fft`
//!   and the OFDM (de)modulator built on it must match bit for bit.
//!
//! Every workspace crate that uses it does so as a dev-dependency, from
//! its integration tests, so no binary or library links it.

pub mod correlate;
pub mod fft;
pub mod receiver;
pub mod viterbi;

pub use receiver::ReferenceReceiver;
