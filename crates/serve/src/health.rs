//! Per-engine health: a circuit breaker driven by a sliding
//! failure-rate window.
//!
//! Every [`BatchEngine`](crate::BatchEngine) carries one [`Breaker`]
//! fed by its serving outcomes. The state machine is the classic three
//! states:
//!
//! * **Closed** — traffic flows; the breaker records each finished
//!   request into a bounded outcome window. When the window holds at
//!   least [`BreakerConfig::min_samples`] outcomes and the failure share
//!   reaches [`BreakerConfig::failure_pct`], the breaker *trips*.
//! * **Open** — the engine stops admitting submissions
//!   (they fail fast as queue-full, so a
//!   [`ShardedRouter`](crate::ShardedRouter) fails over to healthy
//!   shards instead of feeding a failing one). After a cool-down —
//!   [`BreakerConfig::cooldown`], doubled per consecutive trip and
//!   capped at 32x — the breaker moves to half-open.
//! * **HalfOpen** — exactly one *probe* request is admitted. A
//!   successful probe closes the breaker (and resets the trip backoff);
//!   a failed probe re-opens it with a longer cool-down.
//!
//! All transitions are driven by explicit `now` instants, so tests
//! control time instead of sleeping and hoping.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use softermax::{Result, SoftmaxError};

/// Circuit-breaker tuning knobs, part of
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Length of the sliding outcome window the failure rate is computed
    /// over.
    pub window: usize,
    /// Minimum finished requests in the window before the breaker may
    /// trip (a single early failure must not open a cold shard).
    pub min_samples: usize,
    /// Failure percentage (1..=100) at or above which the breaker opens.
    pub failure_pct: u32,
    /// Base cool-down an open breaker waits before allowing a half-open
    /// probe; doubled per consecutive trip (capped at 32x) so a shard
    /// that keeps failing is probed with exponential backoff.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 16,
            min_samples: 8,
            failure_pct: 50,
            cooldown: Duration::from_millis(100),
        }
    }
}

impl BreakerConfig {
    /// Checks the knobs are usable.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] when the window cannot
    /// hold `min_samples`, `min_samples` is zero, or `failure_pct` is
    /// outside `1..=100`.
    pub fn validate(&self) -> Result<()> {
        if self.min_samples == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "breaker needs at least one sample to judge health".to_string(),
            ));
        }
        if self.window < self.min_samples {
            return Err(SoftmaxError::InvalidConfig(format!(
                "breaker window {} cannot hold min_samples {}",
                self.window, self.min_samples
            )));
        }
        if self.failure_pct == 0 || self.failure_pct > 100 {
            return Err(SoftmaxError::InvalidConfig(format!(
                "breaker failure percentage must be in 1..=100, got {}",
                self.failure_pct
            )));
        }
        Ok(())
    }
}

/// Where a shard's circuit breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows and outcomes are being judged.
    Closed,
    /// Tripped: admissions fail fast until the cool-down
    /// passes.
    Open,
    /// Cooled down: exactly one probe request may test the waters.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

impl serde::Serialize for BreakerState {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

/// The per-engine breaker state machine. Time never advances implicitly:
/// every transition is evaluated against a caller-provided `now`.
#[derive(Debug)]
pub(crate) struct Breaker {
    cfg: BreakerConfig,
    /// Recent finished-request outcomes, `true` = failure.
    outcomes: VecDeque<bool>,
    state: BreakerState,
    /// When the breaker last opened (meaningful while `Open`).
    opened_at: Instant,
    /// Trips without an intervening close — drives the cool-down backoff.
    consecutive_trips: u32,
    trips: u64,
    probe_inflight: bool,
}

impl Breaker {
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            outcomes: VecDeque::new(),
            state: BreakerState::Closed,
            opened_at: Instant::now(),
            consecutive_trips: 0,
            trips: 0,
            probe_inflight: false,
        }
    }

    fn cooldown(&self) -> Duration {
        // 1x, 2x, 4x, ... capped at 32x the base cool-down.
        let exp = self.consecutive_trips.saturating_sub(1).min(5);
        self.cfg.cooldown * 2u32.pow(exp)
    }

    /// Applies the lazy Open → HalfOpen transition.
    fn refresh(&mut self, now: Instant) {
        if self.state == BreakerState::Open && now.duration_since(self.opened_at) >= self.cooldown()
        {
            self.state = BreakerState::HalfOpen;
            self.probe_inflight = false;
        }
    }

    pub(crate) fn state_at(&mut self, now: Instant) -> BreakerState {
        self.refresh(now);
        self.state
    }

    pub(crate) fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether a new request *would* be admitted right now, without
    /// claiming the half-open probe slot.
    pub(crate) fn admitting(&mut self, now: Instant) -> bool {
        match self.state_at(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_inflight,
        }
    }

    /// Admits or rejects a new request, claiming the probe slot in
    /// half-open (the caller must guarantee every admission eventually
    /// reports an outcome, or the probe slot would leak).
    pub(crate) fn admit(&mut self, now: Instant) -> bool {
        match self.state_at(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    false
                } else {
                    self.probe_inflight = true;
                    true
                }
            }
        }
    }

    /// Feeds one finished request into the outcome window.
    pub(crate) fn on_outcome(&mut self, failed: bool, now: Instant) {
        self.refresh(now);
        match self.state {
            // A straggler admitted before the trip: the breaker already
            // acted, its verdict stands until the probe.
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                self.probe_inflight = false;
                if failed {
                    self.trip(now);
                } else {
                    self.close();
                }
            }
            BreakerState::Closed => {
                if self.outcomes.len() == self.cfg.window {
                    self.outcomes.pop_front();
                }
                self.outcomes.push_back(failed);
                if self.outcomes.len() >= self.cfg.min_samples {
                    let failures = self.outcomes.iter().filter(|&&f| f).count();
                    if failures * 100 >= self.cfg.failure_pct as usize * self.outcomes.len() {
                        self.trip(now);
                    }
                }
            }
        }
    }

    fn trip(&mut self, now: Instant) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.trips += 1;
        self.consecutive_trips += 1;
        self.outcomes.clear();
        self.probe_inflight = false;
    }

    fn close(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_trips = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cooldown: Duration) -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_pct: 50,
            cooldown,
        }
    }

    #[test]
    fn default_config_validates() {
        assert!(BreakerConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_configs_are_rejected() {
        let base = BreakerConfig::default();
        assert!(BreakerConfig {
            min_samples: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            window: base.min_samples - 1,
            ..base.clone()
        }
        .validate()
        .is_err());
        for failure_pct in [0, 101] {
            assert!(BreakerConfig {
                failure_pct,
                ..base.clone()
            }
            .validate()
            .is_err());
        }
        assert!(BreakerConfig {
            failure_pct: 100,
            ..base
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn failures_below_min_samples_never_trip() {
        let t0 = Instant::now();
        let mut b = Breaker::new(cfg(Duration::from_secs(3600)));
        for _ in 0..3 {
            b.on_outcome(true, t0);
        }
        assert_eq!(b.state_at(t0), BreakerState::Closed);
        assert!(b.admit(t0));
    }

    #[test]
    fn failure_rate_trips_and_cooldown_gates_the_probe() {
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(50);
        let mut b = Breaker::new(cfg(cooldown));
        // 2 successes then 2 failures: 4 samples at exactly 50% failure.
        b.on_outcome(false, t0);
        b.on_outcome(false, t0);
        b.on_outcome(true, t0);
        b.on_outcome(true, t0);
        assert_eq!(b.state_at(t0), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.admit(t0), "open breaker rejects");
        // Before the cool-down: still open. After: half-open, one probe.
        let early = t0 + cooldown / 2;
        assert_eq!(b.state_at(early), BreakerState::Open);
        let later = t0 + cooldown;
        assert_eq!(b.state_at(later), BreakerState::HalfOpen);
        assert!(b.admit(later), "first probe is admitted");
        assert!(!b.admit(later), "second concurrent probe is not");
        // Probe success closes the breaker and resets the backoff.
        b.on_outcome(false, later);
        assert_eq!(b.state_at(later), BreakerState::Closed);
        assert!(b.admit(later));
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(10);
        let mut b = Breaker::new(cfg(cooldown));
        for _ in 0..4 {
            b.on_outcome(true, t0);
        }
        assert_eq!(b.state_at(t0), BreakerState::Open);
        let t1 = t0 + cooldown;
        assert!(b.admit(t1), "probe after first cool-down");
        b.on_outcome(true, t1);
        assert_eq!(b.state_at(t1), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Second trip doubles the cool-down: 1x is not enough, 2x is.
        assert_eq!(b.state_at(t1 + cooldown), BreakerState::Open);
        assert_eq!(b.state_at(t1 + cooldown * 2), BreakerState::HalfOpen);
    }

    #[test]
    fn admitting_does_not_claim_the_probe() {
        let t0 = Instant::now();
        let mut b = Breaker::new(cfg(Duration::ZERO));
        for _ in 0..4 {
            b.on_outcome(true, t0);
        }
        // Zero cool-down: immediately half-open.
        assert!(b.admitting(t0));
        assert!(b.admitting(t0), "admitting() is a read, not a claim");
        assert!(b.admit(t0), "admit() claims the probe");
        assert!(!b.admitting(t0));
    }
}
