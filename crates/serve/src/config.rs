//! Engine geometry: thread count, admission bound, and the
//! fault-tolerance knobs (worker respawn budget, circuit breaker).

use softermax::{Result, SoftmaxError};

use crate::health::BreakerConfig;

/// Configuration of a [`BatchEngine`](crate::BatchEngine): its pool
/// size, admission bound and fault-tolerance knobs.
///
/// # Example
///
/// ```
/// use softermax_serve::ServeConfig;
///
/// let cfg = ServeConfig::new(4);
/// assert_eq!(cfg.threads, 4);
/// assert_eq!(cfg.queue_depth, softermax_serve::DEFAULT_QUEUE_DEPTH);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker threads in the fixed pool.
    pub threads: usize,
    /// Admission bound: the maximum number of batches in flight (queued
    /// or executing) at once. A full engine refuses submissions with
    /// [`SoftmaxError::QueueFull`].
    pub queue_depth: usize,
    /// How many times the pool may respawn a worker whose kernel
    /// panicked before declaring the engine dead. Each panic fails the
    /// panicking batch and revives the worker; past this budget the
    /// worker is lost, and when the last one goes every queued request
    /// is resolved with [`SoftmaxError::EngineShutdown`].
    pub respawn_cap: usize,
    /// Circuit-breaker tuning (see [`BreakerConfig`]).
    pub breaker: BreakerConfig,
}

/// Default admission bound of a [`ServeConfig`]: how many batches may be
/// in flight on one engine before submissions see backpressure.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Default worker respawn budget per engine.
pub const DEFAULT_RESPAWN_CAP: usize = 64;

/// Weighted fair dequeue: how many consecutive
/// [`Priority::Interactive`](crate::Priority) jobs may start while
/// [`Priority::Batch`](crate::Priority) work waits before the next batch
/// job is served. Batch traffic is therefore guaranteed at least one
/// start in every 5 under contention; interactive traffic always goes
/// first otherwise.
pub const INTERACTIVE_WEIGHT: usize = 4;

impl ServeConfig {
    /// An engine of `threads` workers with the default knobs.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            respawn_cap: DEFAULT_RESPAWN_CAP,
            breaker: BreakerConfig::default(),
        }
    }

    /// Overrides the admission bound (maximum batches in flight).
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::InvalidConfig`] when `threads` or
    /// `queue_depth` is zero, or the breaker knobs are invalid.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "serve engine needs at least one worker thread".to_string(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "serve queue must admit at least one batch".to_string(),
            ));
        }
        self.breaker.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_geometry_is_rejected() {
        assert!(ServeConfig::new(0).validate().is_err());
        assert!(ServeConfig::new(1).validate().is_ok());
        assert!(ServeConfig::new(1).with_queue_depth(0).validate().is_err());
        assert!(ServeConfig::new(1).with_queue_depth(1).validate().is_ok());
    }

    #[test]
    fn scheduling_knobs_default_and_validate() {
        let cfg = ServeConfig::new(2);
        assert_eq!(cfg.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(cfg.respawn_cap, DEFAULT_RESPAWN_CAP);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn breaker_knobs_validate_through_the_serve_config() {
        let bad = BreakerConfig {
            failure_pct: 0,
            ..BreakerConfig::default()
        };
        let cfg = ServeConfig {
            breaker: bad,
            ..ServeConfig::new(1)
        };
        assert!(cfg.validate().is_err());
        let cfg = ServeConfig {
            respawn_cap: 0,
            ..ServeConfig::new(1)
        };
        assert!(cfg.validate().is_ok(), "zero respawn budget is legal");
    }
}
