//! Unified resilience policies for the transport stack: deadlines,
//! jittered retry with a hard budget, circuit breaking, and the typed
//! [`GiveUp`] taxonomy every layer speaks when it stops trying.
//!
//! Before this module each transport layer hand-rolled its own failure
//! handling: the TCP sink had a fixed backoff schedule (a thundering
//! herd when many clients reconnect at once), the daemon had no deadline
//! story, and "we gave up" surfaced as whatever string the layer felt
//! like. Now one vocabulary runs through the chunk blocks, `LinkClient`,
//! capture replay, and the `mimonet-linkd` accept loop:
//!
//! * [`Deadline`] — a monotonic time budget; `check()` turns expiry into
//!   a typed [`GiveUp::DeadlineExceeded`].
//! * [`RetryPolicy`] — exponential backoff with **deterministic** jitter
//!   (a pure function of `(salt, attempt)` via the PR-6 seed tree, so
//!   two clients with different salts never synchronize their retries)
//!   and a hard attempt + sleep budget; exhaustion is a typed
//!   [`GiveUp::RetryBudgetExhausted`].
//! * [`CircuitBreaker`] — consecutive-failure trip, cooldown, half-open
//!   probing; a tripped circuit fails fast with [`GiveUp::CircuitOpen`]
//!   instead of burning the retry budget on a dead peer.
//!
//! Jitter is deterministic on purpose: chaos soaks must be reproducible
//! byte-for-byte, so nothing in this module consults a wall-clock RNG.

use mimonet_dsp::seedtree;
use std::time::{Duration, Instant};

/// Why a resilient operation stopped trying — the terminal taxonomy.
/// Every variant has a stable machine-matchable [`GiveUp::kind`] that
/// travels in `ErrorReport` wire messages and `BlockError`s.
#[derive(Clone, Debug, PartialEq)]
pub enum GiveUp {
    /// The retry budget (attempts or cumulative backoff sleep) ran out.
    RetryBudgetExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// Human-readable cause of the final failure.
        last_error: String,
    },
    /// A deadline expired before the operation completed.
    DeadlineExceeded {
        /// The budget that was configured.
        budget: Duration,
    },
    /// The circuit breaker is open: failing fast, not retrying.
    CircuitOpen {
        /// Consecutive failures that tripped the circuit.
        failures: u32,
    },
    /// The peer shed this request under overload.
    Overloaded {
        /// Peer-supplied detail (queue depths, session counts).
        detail: String,
    },
    /// A non-retryable failure (bad config, resume token unknown, ...).
    Fatal {
        /// Machine-matchable kind from the lower layer.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl GiveUp {
    /// Stable machine-matchable kind string.
    pub fn kind(&self) -> &'static str {
        match self {
            GiveUp::RetryBudgetExhausted { .. } => "give-up-retry-budget",
            GiveUp::DeadlineExceeded { .. } => "give-up-deadline",
            GiveUp::CircuitOpen { .. } => "give-up-circuit-open",
            GiveUp::Overloaded { .. } => "give-up-overload",
            GiveUp::Fatal { .. } => "give-up-fatal",
        }
    }

    /// Parses the wire form written by [`GiveUp::kind`] back into a
    /// variant skeleton; unknown kinds map to [`GiveUp::Fatal`].
    pub fn from_wire(kind: &str, detail: &str) -> Self {
        match kind {
            "give-up-retry-budget" => GiveUp::RetryBudgetExhausted {
                attempts: 0,
                last_error: detail.to_string(),
            },
            "give-up-deadline" => GiveUp::DeadlineExceeded {
                budget: Duration::ZERO,
            },
            "give-up-circuit-open" => GiveUp::CircuitOpen { failures: 0 },
            "give-up-overload" => GiveUp::Overloaded {
                detail: detail.to_string(),
            },
            other => GiveUp::Fatal {
                kind: other.to_string(),
                detail: detail.to_string(),
            },
        }
    }
}

impl std::fmt::Display for GiveUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiveUp::RetryBudgetExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempts: {last_error}"
            ),
            GiveUp::DeadlineExceeded { budget } => {
                write!(f, "deadline of {budget:?} exceeded")
            }
            GiveUp::CircuitOpen { failures } => {
                write!(f, "circuit open after {failures} consecutive failures")
            }
            GiveUp::Overloaded { detail } => write!(f, "peer overloaded: {detail}"),
            GiveUp::Fatal { kind, detail } => write!(f, "fatal [{kind}]: {detail}"),
        }
    }
}

impl std::error::Error for GiveUp {}

/// A monotonic time budget. Cheap to copy; `check()` is the one-line
/// guard every loop iteration calls.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// Starts a deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// Time left, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }

    /// `true` once the budget is spent.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Typed guard: `Err(GiveUp::DeadlineExceeded)` once expired.
    pub fn check(&self) -> Result<(), GiveUp> {
        if self.expired() {
            Err(GiveUp::DeadlineExceeded {
                budget: self.budget,
            })
        } else {
            Ok(())
        }
    }
}

/// Exponential backoff with deterministic jitter and a hard budget.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Attempts before giving up (the first try counts as attempt 0).
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub base: Duration,
    /// Per-delay ceiling.
    pub max_delay: Duration,
    /// Ceiling on *cumulative* backoff sleep across all attempts.
    pub sleep_budget: Duration,
    /// Salt for the deterministic jitter stream. Derive it from a stable
    /// per-client identity (`seedtree::fnv1a(addr)`) so distinct clients
    /// de-synchronize while every run of the same client reproduces the
    /// same schedule.
    pub jitter_salt: u64,
}

impl Default for RetryPolicy {
    /// The crate's one retry default; `TransportConfig::default()`
    /// uses it too.
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
            sleep_budget: Duration::from_secs(10),
            jitter_salt: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (0-based): full jitter in
    /// `[delay/2, delay]`, where `delay = min(base << attempt, max_delay)`.
    /// Pure in `(jitter_salt, attempt)` — no RNG state, no wall clock.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_delay);
        // Deterministic jitter factor in [0.5, 1.0): seed-tree mix of the
        // salt and the attempt index.
        let bits = seedtree::mix(self.jitter_salt ^ seedtree::mix(attempt as u64));
        let frac = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        capped.mul_f64(0.5 + frac / 2.0)
    }

    /// The give-up rule every retry loop in the crate shares. After
    /// attempt `attempt` (0-based) failed, with `slept` of backoff already
    /// spent, returns the delay to sleep before the next attempt, or
    /// `None` to give up: retry only while `attempt + 1 < max_attempts`
    /// and `slept + delay(attempt) <= sleep_budget`.
    pub fn backoff(&self, attempt: u32, slept: Duration) -> Option<Duration> {
        let delay = self.delay(attempt);
        (attempt.saturating_add(1) < self.max_attempts && slept + delay <= self.sleep_budget)
            .then_some(delay)
    }

    /// Runs `op` under this policy: retry with jittered backoff while it
    /// returns `Err`, until success or [`Self::backoff`] gives up. The
    /// error closure's string feeds the typed
    /// [`GiveUp::RetryBudgetExhausted`].
    pub fn run<T, E: std::fmt::Display>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, GiveUp> {
        let mut slept = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let Some(delay) = self.backoff(attempt, slept) else {
                        return Err(GiveUp::RetryBudgetExhausted {
                            attempts: attempt + 1,
                            last_error: e.to_string(),
                        });
                    };
                    std::thread::sleep(delay);
                    slept += delay;
                    attempt += 1;
                }
            }
        }
    }
}

/// Circuit state, for observability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitState {
    /// Requests flow; failures are counted.
    Closed,
    /// Failing fast until the cooldown elapses.
    Open,
    /// One probe request is allowed through; its outcome decides.
    HalfOpen,
}

/// Consecutive-failure circuit breaker with half-open probing.
///
/// Not `Sync` by design — each client/connection owns its breaker; a
/// shared breaker would couple unrelated flows' fates.
#[derive(Debug)]
pub struct CircuitBreaker {
    /// Consecutive failures that trip the circuit.
    threshold: u32,
    /// How long the circuit stays open before a half-open probe.
    cooldown: Duration,
    failures: u32,
    state: CircuitState,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// probing again after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        Self {
            threshold,
            cooldown,
            failures: 0,
            state: CircuitState::Closed,
            opened_at: None,
        }
    }

    /// Current state (recomputing open → half-open on cooldown expiry).
    pub fn state(&mut self) -> CircuitState {
        if self.state == CircuitState::Open {
            if let Some(at) = self.opened_at {
                if at.elapsed() >= self.cooldown {
                    self.state = CircuitState::HalfOpen;
                }
            }
        }
        self.state
    }

    /// Gate a request: `Ok` when the request may proceed (closed, or the
    /// single half-open probe), typed [`GiveUp::CircuitOpen`] otherwise.
    pub fn allow(&mut self) -> Result<(), GiveUp> {
        match self.state() {
            CircuitState::Closed | CircuitState::HalfOpen => Ok(()),
            CircuitState::Open => Err(GiveUp::CircuitOpen {
                failures: self.failures,
            }),
        }
    }

    /// Records a success: closes the circuit and clears the count.
    pub fn record_ok(&mut self) {
        self.failures = 0;
        self.state = CircuitState::Closed;
        self.opened_at = None;
    }

    /// Records a failure; a half-open probe failure re-opens immediately.
    pub fn record_err(&mut self) {
        self.failures += 1;
        if self.state == CircuitState::HalfOpen || self.failures >= self.threshold {
            self.state = CircuitState::Open;
            self.opened_at = Some(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn giveup_kinds_round_trip_the_wire_form() {
        let cases = [
            GiveUp::RetryBudgetExhausted {
                attempts: 3,
                last_error: "x".into(),
            },
            GiveUp::DeadlineExceeded {
                budget: Duration::from_secs(1),
            },
            GiveUp::CircuitOpen { failures: 4 },
            GiveUp::Overloaded { detail: "q".into() },
            GiveUp::Fatal {
                kind: "bad-config".into(),
                detail: "d".into(),
            },
        ];
        for g in cases {
            let back = GiveUp::from_wire(g.kind(), "detail");
            assert_eq!(back.kind(), g.kind(), "{g}");
        }
        assert_eq!(GiveUp::from_wire("bad-config", "d").kind(), "give-up-fatal");
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_desynchronized() {
        let p = RetryPolicy {
            base: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            jitter_salt: 7,
            ..RetryPolicy::default()
        };
        for attempt in 0..6 {
            let d = p.delay(attempt);
            assert_eq!(d, p.delay(attempt), "same (salt, attempt), same delay");
            let nominal = Duration::from_millis(100)
                .saturating_mul(1 << attempt)
                .min(Duration::from_secs(2));
            assert!(d >= nominal / 2 && d <= nominal, "attempt {attempt}: {d:?}");
        }
        // Different salts must land on different schedules.
        let q = RetryPolicy {
            jitter_salt: 8,
            ..p.clone()
        };
        assert!((0..6).any(|a| p.delay(a) != q.delay(a)));
    }

    #[test]
    fn backoff_gives_up_on_the_last_attempt_and_on_a_budget_overrun() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(10),
            max_delay: Duration::from_millis(10),
            sleep_budget: Duration::from_secs(1),
            jitter_salt: 3,
        };
        assert_eq!(p.backoff(0, Duration::ZERO), Some(p.delay(0)));
        assert_eq!(p.backoff(1, p.delay(0)), Some(p.delay(1)));
        assert_eq!(
            p.backoff(2, Duration::ZERO),
            None,
            "the last attempt gives up"
        );
        // The budget admits a delay that lands exactly on it, and no more.
        let at_budget = p.sleep_budget - p.delay(0);
        assert_eq!(p.backoff(0, at_budget), Some(p.delay(0)));
        let over = at_budget + Duration::from_nanos(1);
        assert_eq!(p.backoff(0, over), None, "a budget overrun gives up");
    }

    #[test]
    fn retry_run_succeeds_within_budget_and_gives_up_typed() {
        let p = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            sleep_budget: Duration::from_secs(1),
            jitter_salt: 1,
        };
        let mut calls = 0;
        let out: Result<u32, GiveUp> = p.run(|attempt| {
            calls += 1;
            if attempt >= 2 {
                Ok(99)
            } else {
                Err("not yet")
            }
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(calls, 3);

        let always: Result<(), GiveUp> = p.run(|_| Err::<(), _>("down"));
        match always.unwrap_err() {
            GiveUp::RetryBudgetExhausted {
                attempts,
                last_error,
            } => {
                assert_eq!(attempts, 4);
                assert_eq!(last_error, "down");
            }
            other => panic!("expected retry-budget give-up, got {other}"),
        }
    }

    #[test]
    fn retry_sleep_budget_caps_total_backoff() {
        let p = RetryPolicy {
            max_attempts: 100,
            base: Duration::from_millis(20),
            max_delay: Duration::from_millis(20),
            sleep_budget: Duration::from_millis(30),
            jitter_salt: 2,
        };
        let start = Instant::now();
        let out: Result<(), GiveUp> = p.run(|_| Err::<(), _>("down"));
        assert!(matches!(
            out.unwrap_err(),
            GiveUp::RetryBudgetExhausted { attempts, .. } if attempts < 100
        ));
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn deadline_expires_into_typed_giveup() {
        let d = Deadline::after(Duration::from_millis(10));
        assert!(d.check().is_ok());
        std::thread::sleep(Duration::from_millis(15));
        assert!(d.expired());
        assert!(matches!(
            d.check().unwrap_err(),
            GiveUp::DeadlineExceeded { .. }
        ));
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn breaker_trips_cools_down_and_half_open_probes() {
        let mut b = CircuitBreaker::new(2, Duration::from_millis(20));
        assert!(b.allow().is_ok());
        b.record_err();
        assert!(b.allow().is_ok(), "one failure is below the threshold");
        b.record_err();
        assert!(
            matches!(b.allow().unwrap_err(), GiveUp::CircuitOpen { failures: 2 }),
            "second failure trips"
        );
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        assert!(b.allow().is_ok(), "half-open admits a probe");
        b.record_err();
        assert!(b.allow().is_err(), "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow().is_ok());
        b.record_ok();
        assert_eq!(b.state(), CircuitState::Closed);
        assert!(b.allow().is_ok());
    }
}
