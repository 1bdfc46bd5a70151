//! Engine geometry: thread count, the hardware-derived chunk shape, and
//! the fault-tolerance knobs (admission timeout, worker respawn budget,
//! circuit breaker).

use std::time::Duration;

use softermax::{Result, SoftmaxError};
use softermax_hw::pe::PeConfig;

use crate::health::BreakerConfig;

/// Configuration of a [`BatchEngine`](crate::BatchEngine).
///
/// The chunk geometry is derived from the paper's PE model rather than
/// picked ad hoc: a PE computes [`PeConfig::n_lanes`] score rows in
/// parallel, each feeding a softmax unit that consumes
/// [`PeConfig::softmax_width`] elements per cycle. One engine *chunk* —
/// the unit of scheduling — is therefore `n_lanes` consecutive rows:
/// the block of rows one "software PE" (worker thread turn) owns, exactly
/// as the hardware's unit parallelism partitions a score matrix.
///
/// # Example
///
/// ```
/// use softermax_hw::pe::PeConfig;
/// use softermax_serve::ServeConfig;
///
/// let cfg = ServeConfig::new(4);
/// assert_eq!(cfg.threads, 4);
/// assert_eq!(cfg.chunk_rows, PeConfig::paper_32().n_lanes);
/// assert_eq!(cfg.queue_depth, softermax_serve::DEFAULT_QUEUE_DEPTH);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker threads in the fixed pool.
    pub threads: usize,
    /// Rows per scheduling chunk (the PE's lane parallelism).
    pub chunk_rows: usize,
    /// Admission bound: the maximum number of batches in flight (queued
    /// or executing) at once. A full engine rejects non-blocking
    /// submissions with [`SoftmaxError::QueueFull`] and blocks the
    /// blocking ones until a slot frees up.
    pub queue_depth: usize,
    /// Upper bound on how long a *blocking* admission may wait for a
    /// slot before giving up with [`SoftmaxError::QueueFull`] — a
    /// permanently full engine must never hang its submitters.
    pub admission_timeout: Duration,
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

/// Default bound on blocking admission waits.
pub const DEFAULT_ADMISSION_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// Engine geometry for `threads` workers, with the chunk shape of the
    /// paper's 32-wide PE ([`PeConfig::paper_32`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::from_pe(&PeConfig::paper_32(), threads)
    }

    /// Derives the chunk geometry from an explicit PE model: one chunk is
    /// the `n_lanes`-row block the PE processes in parallel.
    #[must_use]
    pub fn from_pe(pe: &PeConfig, threads: usize) -> Self {
        Self {
            threads,
            chunk_rows: pe.n_lanes,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            admission_timeout: DEFAULT_ADMISSION_TIMEOUT,
            respawn_cap: DEFAULT_RESPAWN_CAP,
            breaker: BreakerConfig::default(),
        }
    }

    /// Overrides the rows-per-chunk geometry (benchmark sweeps).
    #[must_use]
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows;
        self
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
    /// `chunk_rows` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "serve engine needs at least one worker thread".to_string(),
            ));
        }
        if self.chunk_rows == 0 {
            return Err(SoftmaxError::InvalidConfig(
                "serve chunk must hold at least one row".to_string(),
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
    fn paper_pe_geometry_is_the_default() {
        let cfg = ServeConfig::new(2);
        assert_eq!(cfg.chunk_rows, 32);
        let cfg16 = ServeConfig::from_pe(&PeConfig::paper_16(), 2);
        assert_eq!(cfg16.chunk_rows, 16);
    }

    #[test]
    fn zero_geometry_is_rejected() {
        assert!(ServeConfig::new(0).validate().is_err());
        assert!(ServeConfig::new(1).with_chunk_rows(0).validate().is_err());
        assert!(ServeConfig::new(1).with_chunk_rows(1).validate().is_ok());
        assert!(ServeConfig::new(1).with_queue_depth(0).validate().is_err());
        assert!(ServeConfig::new(1).with_queue_depth(1).validate().is_ok());
    }

    #[test]
    fn scheduling_knobs_default_and_validate() {
        let cfg = ServeConfig::new(2);
        assert_eq!(cfg.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(cfg.admission_timeout, DEFAULT_ADMISSION_TIMEOUT);
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
            admission_timeout: Duration::from_millis(5),
            respawn_cap: 0,
            ..ServeConfig::new(1)
        };
        assert!(cfg.validate().is_ok(), "zero respawn budget is legal");
        assert_eq!(cfg.admission_timeout, Duration::from_millis(5));
    }
}
