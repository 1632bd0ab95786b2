//! Parallel Monte-Carlo sweep engine.
//!
//! Every figure in EXPERIMENTS.md is a sweep: a grid of points (SNR,
//! detector, payload size, …) with a few hundred seeded trials per point.
//! This module is the single execution path for all of them, replacing
//! the hand-rolled serial `for point { for trial { .. } }` loops that had
//! drifted across the 16 bench binaries.
//!
//! # Determinism
//!
//! Results are **bit-identical for any worker-thread count**. Three
//! mechanisms combine to guarantee that:
//!
//! 1. Trials are grouped into fixed-size *shards* whose boundaries depend
//!    only on the spec (`shard_size`), never on the thread count.
//! 2. Every shard's RNG seed is derived purely from
//!    `(spec.seed, point_index, shard_index)` via SplitMix64 mixing — the
//!    "`seed ^ hash(point)`" scheme: the spec seed is XOR-combined with a
//!    hash of the point/shard coordinates.
//! 3. Per-shard statistics are folded **in shard order** (a completion
//!    frontier per point), so floating-point merges see the same operand
//!    order regardless of which worker finished first.
//!
//! Early stopping ([`SweepSpec::run_until`]) is also deterministic: a
//! point stops after the first shard — in shard order — whose cumulative
//! statistics satisfy the predicate. Workers that already started a
//! later shard simply have their result discarded, so the answer never
//! depends on scheduling.
//!
//! # Example
//!
//! ```
//! use mimonet::link::{LinkConfig, LinkStats};
//! use mimonet::sweep::SweepSpec;
//! use mimonet_channel::ChannelConfig;
//!
//! let points: Vec<f64> = vec![10.0, 20.0];
//! let spec = SweepSpec::new("doc", points, 8).seed(7).threads(2);
//! let result = spec.run(|&snr, ctx, stats: &mut LinkStats| {
//!     let cfg = LinkConfig::new(8, 64, ChannelConfig::awgn(2, 2, snr));
//!     mimonet::sweep::link_shard(cfg, ctx, stats);
//! });
//! assert_eq!(result.stats.len(), 2);
//! assert_eq!(result.stats[1].per.sent(), 8);
//! ```

use crate::link::{LinkConfig, LinkSim, LinkStats};
use mimonet_dsp::seedtree::shard_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Statistics that can be combined across shards. Defined in
/// [`mimonet_dsp::stats`], below every crate that owns a stats type.
pub use mimonet_dsp::stats::Merge;

/// Context handed to the shard worker closure.
#[derive(Clone, Copy, Debug)]
pub struct ShardCtx {
    /// Index of the point in `SweepSpec::points`.
    pub point_index: usize,
    /// Index of this shard within the point.
    pub shard_index: usize,
    /// Deterministic seed for this shard's RNG streams.
    pub seed: u64,
    /// Number of trials this shard must run.
    pub trials: usize,
    /// Global index (within the point) of the shard's first trial.
    pub trial_offset: usize,
}

/// A declarative Monte-Carlo sweep: a grid of points × trials per point.
#[derive(Clone, Debug)]
pub struct SweepSpec<P> {
    /// Name for diagnostics and report files.
    pub name: String,
    /// The sweep grid.
    pub points: Vec<P>,
    /// Trials per point.
    pub trials: usize,
    /// Trials per shard (the unit of parallel work); fixed independently
    /// of thread count to keep results thread-count-invariant.
    pub shard_size: usize,
    /// Master seed; every shard seed is derived from it.
    pub seed: u64,
    /// Worker threads; 0 = one per available CPU.
    pub threads: usize,
}

impl<P> SweepSpec<P> {
    /// A sweep over `points` with `trials` per point and default
    /// sharding (32 trials/shard), seed 0, auto thread count.
    pub fn new(name: impl Into<String>, points: Vec<P>, trials: usize) -> Self {
        Self {
            name: name.into(),
            points,
            trials,
            shard_size: 32,
            seed: 0,
            threads: 0,
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (0 = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard size. Changing this changes RNG stream boundaries
    /// (and therefore exact statistics); changing `threads` does not.
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        self.shard_size = shard_size;
        self
    }

    fn shards_per_point(&self) -> usize {
        self.trials.div_ceil(self.shard_size)
    }

    fn shard_trials(&self, shard_index: usize) -> usize {
        let spp = self.shards_per_point();
        if shard_index + 1 == spp {
            self.trials - shard_index * self.shard_size
        } else {
            self.shard_size
        }
    }

    fn resolve_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Runs the full sweep.
    pub fn run<S, F>(&self, shard_fn: F) -> SweepResult<S>
    where
        P: Sync,
        S: Merge,
        F: Fn(&P, &ShardCtx, &mut S) + Sync,
    {
        self.run_until(shard_fn, |_: &S| false)
    }

    /// Runs with early stopping: a point finishes after the first shard
    /// (in shard order) whose cumulative statistics satisfy `stop`.
    ///
    /// The engine: scoped worker pool over an atomic task queue, with
    /// per-point in-order folding.
    pub fn run_until<S, F, Q>(&self, shard_fn: F, stop: Q) -> SweepResult<S>
    where
        P: Sync,
        S: Merge,
        F: Fn(&P, &ShardCtx, &mut S) + Sync,
        Q: Fn(&S) -> bool + Sync,
    {
        struct PointState<S> {
            /// Completed shards not yet folded, indexed by shard.
            pending: Vec<Option<S>>,
            /// Next shard index to fold.
            frontier: usize,
            /// Cumulative statistics over folded shards.
            merged: S,
            /// Inclusive index of the shard whose fold satisfied `stop`.
            stop_at: Option<usize>,
            /// Trials represented in `merged`.
            folded_trials: usize,
        }

        let start = Instant::now();
        let spp = self.shards_per_point();
        let n_points = self.points.len();
        let total_shards = n_points * spp;
        let threads = self.resolve_threads();

        let states: Vec<Mutex<PointState<S>>> = (0..n_points)
            .map(|_| {
                Mutex::new(PointState {
                    pending: (0..spp).map(|_| None).collect(),
                    frontier: 0,
                    merged: S::default(),
                    stop_at: None,
                    folded_trials: 0,
                })
            })
            .collect();

        let next_task = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| loop {
                    let task = next_task.fetch_add(1, Ordering::Relaxed);
                    if task >= total_shards {
                        break;
                    }
                    let (p, s) = (task / spp, task % spp);

                    // Skip shards past a point's deterministic stop index.
                    {
                        let state = states[p].lock().unwrap();
                        if state.stop_at.is_some_and(|at| s > at) {
                            continue;
                        }
                    }

                    let ctx = ShardCtx {
                        point_index: p,
                        shard_index: s,
                        seed: shard_seed(self.seed, p, s),
                        trials: self.shard_trials(s),
                        trial_offset: s * self.shard_size,
                    };
                    let mut stats = S::default();
                    shard_fn(&self.points[p], &ctx, &mut stats);

                    {
                        let mut state = states[p].lock().unwrap();
                        if state.stop_at.is_some_and(|at| s > at) {
                            continue; // raced with a stop decision
                        }
                        state.pending[s] = Some(stats);
                        // Fold the contiguous completed prefix, in order.
                        while state.stop_at.is_none()
                            && state.frontier < spp
                            && state.pending[state.frontier].is_some()
                        {
                            let f = state.frontier;
                            let shard = state.pending[f].take().expect("checked above");
                            state.merged.merge(&shard);
                            state.folded_trials += self.shard_trials(f);
                            if stop(&state.merged) {
                                state.stop_at = Some(f);
                            }
                            state.frontier += 1;
                        }
                    }
                });
            }
        });

        let mut stats = Vec::with_capacity(n_points);
        let mut trials_run = Vec::with_capacity(n_points);
        for state in states {
            let state = state.into_inner().unwrap();
            debug_assert!(
                state.stop_at.is_some() || state.frontier == spp || self.trials == 0,
                "sweep finished with unfolded shards"
            );
            stats.push(state.merged);
            trials_run.push(state.folded_trials);
        }

        SweepResult {
            stats,
            trials_run,
            wall: start.elapsed(),
            threads,
            total_shards,
        }
    }
}

/// Aggregated outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepResult<S> {
    /// Final statistics per point (same order as `SweepSpec::points`).
    pub stats: Vec<S>,
    /// Trials actually folded per point (less than `spec.trials` when
    /// early stopping triggered).
    pub trials_run: Vec<usize>,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Shards scheduled.
    pub total_shards: usize,
}

impl<S> SweepResult<S> {
    /// Total trials folded across all points.
    pub fn total_trials(&self) -> usize {
        self.trials_run.iter().sum()
    }

    /// Aggregate trials/second over the whole sweep.
    pub fn trials_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.total_trials() as f64 / s
        } else {
            0.0
        }
    }
}

/// Standard shard body for link-level sweeps: a fresh seeded [`LinkSim`]
/// per shard running `ctx.trials` frames into `stats`, one
/// [`LinkSim::run_frame`] each.
pub fn link_shard(cfg: LinkConfig, ctx: &ShardCtx, stats: &mut LinkStats) {
    let mut sim = LinkSim::new(cfg, ctx.seed);
    for _ in 0..ctx.trials {
        sim.run_frame(stats);
    }
}

/// Runs a link-config sweep to completion.
pub fn run_link(spec: &SweepSpec<LinkConfig>) -> SweepResult<LinkStats> {
    spec.run(|cfg, ctx, stats| link_shard(cfg.clone(), ctx, stats))
}

/// Runs a link-config sweep with BER-style early stopping: each point
/// finishes once `min_bit_errors` payload bit errors have accumulated
/// (checked at shard granularity), or its trial budget is exhausted.
pub fn run_link_until_errors(
    spec: &SweepSpec<LinkConfig>,
    min_bit_errors: u64,
) -> SweepResult<LinkStats> {
    spec.run_until(
        |cfg, ctx, stats| link_shard(cfg.clone(), ctx, stats),
        move |s: &LinkStats| s.payload_ber.errors() >= min_bit_errors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_channel::ChannelConfig;

    fn tiny_spec(threads: usize) -> SweepSpec<f64> {
        SweepSpec::new("test", vec![8.0, 14.0, 30.0], 12)
            .seed(99)
            .shard_size(4)
            .threads(threads)
    }

    fn run_tiny(threads: usize) -> SweepResult<LinkStats> {
        tiny_spec(threads).run(|&snr, ctx, stats| {
            link_shard(
                LinkConfig::new(8, 40, ChannelConfig::awgn(2, 2, snr)),
                ctx,
                stats,
            )
        })
    }

    #[test]
    fn all_points_run_all_trials() {
        let r = run_tiny(2);
        assert_eq!(r.stats.len(), 3);
        assert_eq!(r.trials_run, vec![12, 12, 12]);
        for s in &r.stats {
            assert_eq!(s.per.sent(), 12);
        }
        assert_eq!(r.total_trials(), 36);
        assert!(r.trials_per_sec() > 0.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = run_tiny(1);
        let b = run_tiny(3);
        for (x, y) in a.stats.iter().zip(&b.stats) {
            assert_eq!(x.per.ok(), y.per.ok());
            assert_eq!(x.payload_ber.errors(), y.payload_ber.errors());
            assert_eq!(x.snr_est_db.mean().to_bits(), y.snr_est_db.mean().to_bits());
            assert_eq!(
                x.cfo_error.variance().to_bits(),
                y.cfo_error.variance().to_bits()
            );
        }
    }

    #[test]
    fn early_stop_is_deterministic_and_bounded() {
        // Stop each point after >= 20 sent frames (i.e. 2 shards of 16...
        // here 5 shards of 4 → stops at shard index 4 with 20 trials).
        let run = |threads| {
            SweepSpec::new("stop", vec![5.0], 400)
                .seed(3)
                .shard_size(4)
                .threads(threads)
                .run_until(
                    |&snr: &f64, ctx, stats: &mut LinkStats| {
                        link_shard(
                            LinkConfig::new(8, 40, ChannelConfig::awgn(2, 2, snr)),
                            ctx,
                            stats,
                        )
                    },
                    |s: &LinkStats| s.per.sent() >= 20,
                )
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.trials_run, vec![20]);
        assert_eq!(b.trials_run, vec![20]);
        assert_eq!(a.stats[0].per.ok(), b.stats[0].per.ok());
        assert!(a.stats[0].per.sent() == 20);
    }

    #[test]
    fn seed_changes_statistics() {
        let base = tiny_spec(2);
        let a = base.clone().seed(1).run(|&snr, ctx, stats| {
            link_shard(
                LinkConfig::new(8, 40, ChannelConfig::awgn(2, 2, snr)),
                ctx,
                stats,
            )
        });
        let b = base.seed(2).run(|&snr, ctx, stats| {
            link_shard(
                LinkConfig::new(8, 40, ChannelConfig::awgn(2, 2, snr)),
                ctx,
                stats,
            )
        });
        // Same trial counts, different noise realizations.
        assert_eq!(a.stats[0].per.sent(), b.stats[0].per.sent());
        assert_ne!(
            a.stats[0].snr_est_db.mean().to_bits(),
            b.stats[0].snr_est_db.mean().to_bits()
        );
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..10 {
            for s in 0..10 {
                assert!(seen.insert(shard_seed(42, p, s)), "collision at ({p},{s})");
            }
        }
    }

    #[test]
    fn custom_accumulator_types_merge() {
        // Count even trial offsets with a plain u64 accumulator.
        let spec = SweepSpec::new("count", vec![0u8, 1], 10)
            .shard_size(3)
            .threads(2);
        let r = spec.run(|_, ctx, acc: &mut u64| {
            for t in ctx.trial_offset..ctx.trial_offset + ctx.trials {
                if t % 2 == 0 {
                    *acc += 1;
                }
            }
        });
        assert_eq!(r.stats, vec![5, 5]);
    }

    #[test]
    fn zero_points_and_zero_trials_are_fine() {
        let empty: SweepSpec<u8> = SweepSpec::new("empty", vec![], 10);
        let r = empty.run(|_, _, _: &mut u64| {});
        assert!(r.stats.is_empty());
        let none = SweepSpec::new("none", vec![1u8], 0);
        let r = none.run(|_, _, acc: &mut u64| *acc += 1);
        assert_eq!(r.stats, vec![0]);
    }
}
