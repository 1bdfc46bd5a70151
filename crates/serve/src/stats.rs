//! Per-kernel serving accounting: raw work and time counters, latency
//! percentiles, and honest failure counters.

use std::collections::{BTreeMap, VecDeque};

/// Capacity of the per-kernel sliding latency window: percentiles are
/// computed over the most recent `LATENCY_WINDOW` completed batches.
pub const LATENCY_WINDOW: usize = 4096;

/// A sliding window of per-batch latencies (nanoseconds), bounded at
/// [`LATENCY_WINDOW`] samples: old samples fall out as new batches
/// complete, so percentiles always describe recent traffic rather than
/// the whole process lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyWindow {
    samples: VecDeque<u64>,
}

impl LatencyWindow {
    /// Records one completed batch's end-to-end latency.
    pub fn push(&mut self, ns: u64) {
        if self.samples.len() == LATENCY_WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back(ns);
    }

    /// Number of samples currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `qs`-quantile latencies (nearest-rank over the window), in
    /// nanoseconds, from a single sorted copy of the window; each `q` is
    /// clamped into `[0, 1]`. All 0 for an empty window.
    #[must_use]
    pub fn percentiles_ns(&self, qs: &[f64]) -> Vec<u64> {
        if self.samples.is_empty() {
            return vec![0; qs.len()];
        }
        let mut sorted: Vec<u64> = self.samples.iter().copied().collect();
        sorted.sort_unstable();
        qs.iter()
            .map(|&q| {
                let q = q.clamp(0.0, 1.0);
                // Nearest-rank: the smallest sample with at least a `q`
                // fraction of the window at or below it.
                let rank = (sorted.len() as f64 * q).ceil() as usize;
                sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
            })
            .collect()
    }

    /// The window's samples, oldest first, in nanoseconds.
    pub fn samples(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().copied()
    }

    /// Folds another window's samples into this one. When the combined
    /// sample count exceeds the bounded capacity, each side keeps a
    /// share proportional to its size (newest samples first), so merging
    /// two full windows — e.g. a router folding its shards together —
    /// represents both instead of letting the second evict the first
    /// wholesale.
    ///
    /// # Subsampling bias
    ///
    /// The kept share is a **recency-biased subsample**, not a uniform
    /// one: each side contributes its *newest* `len × (LATENCY_WINDOW /
    /// total)` samples and drops its oldest wholesale. That is the same
    /// bias `push` applies to a single overflowing window — percentiles
    /// describe *recent* traffic — but it means a merged window's
    /// quantiles can drift from the exact quantiles of the full union
    /// when either side's latency trended over time: the merged p99
    /// reflects where each shard's latency *ended up*, not its whole
    /// history. For stationary traffic the drift is bounded by the
    /// truncation itself (each side's kept share is within one sample
    /// of proportional), which `tests` pins with an explicit
    /// quantile-drift bound.
    pub fn absorb(&mut self, other: &LatencyWindow) {
        let total = self.samples.len() + other.samples.len();
        if total <= LATENCY_WINDOW {
            self.samples.extend(other.samples.iter().copied());
            return;
        }
        let other_keep = (LATENCY_WINDOW * other.samples.len() / total).min(other.samples.len());
        let self_keep = (LATENCY_WINDOW - other_keep).min(self.samples.len());
        self.samples.drain(..self.samples.len() - self_keep);
        self.samples.extend(
            other
                .samples
                .iter()
                .skip(other.samples.len() - other_keep)
                .copied(),
        );
    }
}

/// Accumulated serving counters for one kernel.
///
/// `wall_ns` is summed end-to-end request time (submission to
/// completion) over **successful** batches only; `busy_ns` is the sum of
/// worker compute time over every batch (failed ones included — the
/// workers really were busy). One worker serves each request, so a
/// request's busy time is its wall time less its queue wait. Failed batches are counted apart
/// (`failed_batches`, with their completed rows in `failed_rows`) so
/// errors can never inflate `rows`, `wall_ns` or the latency window, and
/// so a rate a reader derives from them describes successful work only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelServeStats {
    /// Matrices served to completion (at least one row each).
    pub batches: u64,
    /// Zero-row no-op requests: accepted and accounted here, but kept
    /// out of `batches` and all time counters so they cannot drag the
    /// latency statistics toward zero.
    pub empty_batches: u64,
    /// Matrices that failed: a kernel error or panic, or an engine
    /// shutdown before they started.
    pub failed_batches: u64,
    /// Requests dropped because their deadline passed before they were
    /// served — at admission or at dequeue. Expired work is failure
    /// work (its rows never inflate the rates), but it is counted apart
    /// from `failed_batches` because nothing went *wrong* with the
    /// kernel: the engine was honest about being too late.
    pub expired_requests: u64,
    /// Softmax rows computed by successful batches.
    pub rows: u64,
    /// Rows that completed inside batches which then failed: the rows a
    /// streamed request finished before its failing row (a failed
    /// batch-path call reports none). Real work, but excluded from the
    /// throughput rates.
    pub failed_rows: u64,
    /// Score elements consumed by successful batches.
    pub elements: u64,
    /// Summed worker busy time, nanoseconds (all batches).
    pub busy_ns: u64,
    /// Summed end-to-end latency of successful batches, nanoseconds.
    pub wall_ns: u64,
    /// Summed end-to-end time of failed batches, nanoseconds — kept out
    /// of the rates and latency statistics, but part of the utilization
    /// capacity (the workers really were busy on them).
    pub failed_wall_ns: u64,
    /// Sliding window of recent successful-batch latencies.
    pub latency: LatencyWindow,
}

impl KernelServeStats {
    /// Fraction of finished non-empty requests that succeeded:
    /// `batches / (batches + failed_batches + expired_requests)`. The
    /// serving-layer health number the breaker floor assertions report.
    /// 1.0 when nothing has finished yet.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let finished = self.batches + self.failed_batches + self.expired_requests;
        if finished == 0 {
            1.0
        } else {
            self.batches as f64 / finished as f64
        }
    }

    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: &KernelServeStats) {
        self.batches += other.batches;
        self.empty_batches += other.empty_batches;
        self.failed_batches += other.failed_batches;
        self.expired_requests += other.expired_requests;
        self.rows += other.rows;
        self.failed_rows += other.failed_rows;
        self.elements += other.elements;
        self.busy_ns += other.busy_ns;
        self.wall_ns += other.wall_ns;
        self.failed_wall_ns += other.failed_wall_ns;
        self.latency.absorb(&other.latency);
    }
}

impl serde::Serialize for LatencyWindow {
    /// One honest percentile snapshot: the sample count plus
    /// p50/p95/p99 from a single sorted pass (the raw window is not
    /// shipped — it can be 4096 samples per kernel per snapshot).
    fn to_value(&self) -> serde::Value {
        let ps = self.percentiles_ns(&[0.50, 0.95, 0.99]);
        serde::Value::Object(vec![
            ("samples".into(), serde::Serialize::to_value(&self.len())),
            ("p50_ns".into(), serde::Serialize::to_value(&ps[0])),
            ("p95_ns".into(), serde::Serialize::to_value(&ps[1])),
            ("p99_ns".into(), serde::Serialize::to_value(&ps[2])),
        ])
    }
}

impl serde::Serialize for KernelServeStats {
    /// Every raw counter, plus the derived availability and the latency
    /// percentile snapshot — the per-kernel shape of the network control
    /// plane's `Stats` reply.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("batches".into(), self.batches.to_value()),
            ("empty_batches".into(), self.empty_batches.to_value()),
            ("failed_batches".into(), self.failed_batches.to_value()),
            ("expired_requests".into(), self.expired_requests.to_value()),
            ("rows".into(), self.rows.to_value()),
            ("failed_rows".into(), self.failed_rows.to_value()),
            ("elements".into(), self.elements.to_value()),
            ("busy_ns".into(), self.busy_ns.to_value()),
            ("wall_ns".into(), self.wall_ns.to_value()),
            ("failed_wall_ns".into(), self.failed_wall_ns.to_value()),
            ("availability".into(), self.availability().to_value()),
            ("latency".into(), self.latency.to_value()),
        ])
    }
}

impl serde::Serialize for EngineStats {
    /// An object keyed by kernel name (already in name order — the
    /// snapshot is a `BTreeMap`).
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.per_kernel
                .iter()
                .map(|(k, v)| (k.clone(), serde::Serialize::to_value(v)))
                .collect(),
        )
    }
}

/// A snapshot of every kernel's serving counters, ordered by kernel name.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    per_kernel: BTreeMap<String, KernelServeStats>,
}

impl EngineStats {
    pub(crate) fn from_map(per_kernel: BTreeMap<String, KernelServeStats>) -> Self {
        Self { per_kernel }
    }

    /// Counters for one kernel, if it has been served.
    #[must_use]
    pub fn kernel(&self, name: &str) -> Option<&KernelServeStats> {
        self.per_kernel.get(name)
    }

    /// Counters summed across every kernel (latency windows merged, so
    /// the percentiles describe all kernels' recent batches together).
    #[must_use]
    pub fn total(&self) -> KernelServeStats {
        let mut total = KernelServeStats::default();
        for stats in self.per_kernel.values() {
            total.absorb(stats);
        }
        total
    }

    /// Folds another snapshot into this one, kernel by kernel — how a
    /// [`ShardedRouter`](crate::ShardedRouter) merges its shards' stats.
    pub fn absorb(&mut self, other: &EngineStats) {
        for (kernel, stats) in &other.per_kernel {
            self.per_kernel
                .entry(kernel.clone())
                .or_default()
                .absorb(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn rates_and_latency() {
        // The snapshot carries the raw inputs of every rate a reader
        // derives and the window's percentiles, under the keys of the
        // `Stats` frame.
        let mut s = KernelServeStats {
            batches: 2,
            rows: 1000,
            busy_ns: 1_500_000,
            wall_ns: 1_000_000,
            ..Default::default()
        };
        s.latency.push(400_000);
        s.latency.push(600_000);
        let v = s.to_value();
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| &**k)
            .collect();
        let want = "batches empty_batches failed_batches expired_requests rows failed_rows \
                    elements busy_ns wall_ns failed_wall_ns availability latency";
        assert_eq!(keys, want.split_whitespace().collect::<Vec<_>>());
        assert_eq!(v.get("busy_ns"), Some(&1_500_000u64.to_value()));
        let latency = v.get("latency").expect("latency");
        assert_eq!(latency.get("p50_ns"), Some(&400_000u64.to_value()));
        assert_eq!(latency.get("p99_ns"), Some(&600_000u64.to_value()));
    }

    #[test]
    fn empty_counters_do_not_divide_by_zero() {
        let v = KernelServeStats::default().to_value();
        assert_eq!(v.get("availability"), Some(&1.0f64.to_value()));
        let latency = v.get("latency").expect("latency");
        for q in ["p50_ns", "p95_ns", "p99_ns"] {
            assert_eq!(latency.get(q), Some(&0u64.to_value()), "{q}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut w = LatencyWindow::default();
        for ns in 1..=100 {
            w.push(ns);
        }
        assert_eq!(w.len(), 100);
        assert_eq!(w.percentiles_ns(&[0.50])[0], 50);
        assert_eq!(w.percentiles_ns(&[0.95])[0], 95);
        assert_eq!(w.percentiles_ns(&[0.99])[0], 99);
        assert_eq!(w.percentiles_ns(&[0.0])[0], 1);
        assert_eq!(w.percentiles_ns(&[1.0])[0], 100);
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(w.percentiles_ns(&[7.0])[0], 100);
        assert_eq!(w.percentiles_ns(&[-1.0])[0], 1);
    }

    #[test]
    fn empty_window_returns_zero_at_every_quantile() {
        let w = LatencyWindow::default();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        for q in [-1.0, 0.0, 0.5, 1.0, 7.0] {
            assert_eq!(w.percentiles_ns(&[q])[0], 0, "q={q}");
        }
        assert_eq!(w.percentiles_ns(&[0.0, 0.5, 1.0]), vec![0, 0, 0]);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut w = LatencyWindow::default();
        w.push(42);
        assert_eq!(w.len(), 1);
        for q in [-0.5, 0.0, 0.01, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(w.percentiles_ns(&[q])[0], 42, "q={q}");
        }
    }

    #[test]
    fn exact_capacity_wraparound_evicts_exactly_one() {
        let mut w = LatencyWindow::default();
        for ns in 0..LATENCY_WINDOW as u64 {
            w.push(ns);
        }
        // Exactly full: nothing evicted yet, the oldest sample survives.
        assert_eq!(w.len(), LATENCY_WINDOW);
        assert_eq!(w.percentiles_ns(&[0.0])[0], 0);
        assert_eq!(w.percentiles_ns(&[1.0])[0], LATENCY_WINDOW as u64 - 1);
        // One more push wraps: exactly the single oldest sample falls out.
        w.push(LATENCY_WINDOW as u64);
        assert_eq!(w.len(), LATENCY_WINDOW);
        assert_eq!(w.percentiles_ns(&[0.0])[0], 1);
        assert_eq!(w.percentiles_ns(&[1.0])[0], LATENCY_WINDOW as u64);
    }

    #[test]
    fn quantiles_clamp_at_p0_and_p100() {
        let mut w = LatencyWindow::default();
        for ns in [30, 10, 20] {
            w.push(ns);
        }
        // p0 and p100 hit the extremes; anything beyond [0, 1] clamps to
        // them instead of indexing out of bounds.
        assert_eq!(w.percentiles_ns(&[0.0])[0], 10);
        assert_eq!(w.percentiles_ns(&[1.0])[0], 30);
        assert_eq!(w.percentiles_ns(&[-1e9])[0], 10);
        assert_eq!(w.percentiles_ns(&[1e9])[0], 30);
        assert_eq!(w.percentiles_ns(&[f64::NEG_INFINITY])[0], 10);
        assert_eq!(w.percentiles_ns(&[f64::INFINITY])[0], 30);
    }

    #[test]
    fn availability_separates_expired_from_failed() {
        let mut s = KernelServeStats::default();
        assert_eq!(s.availability(), 1.0, "no traffic yet is healthy");
        s.batches = 6;
        s.failed_batches = 2;
        s.expired_requests = 2;
        assert!((s.availability() - 0.6).abs() < 1e-12);
        // Empty no-ops never move availability.
        s.empty_batches = 100;
        assert!((s.availability() - 0.6).abs() < 1e-12);
        // Absorb carries the expired counter.
        let mut merged = KernelServeStats::default();
        merged.absorb(&s);
        assert_eq!(merged.expired_requests, 2);
    }

    #[test]
    fn window_is_bounded_and_keeps_recent_samples() {
        let mut w = LatencyWindow::default();
        for ns in 0..(LATENCY_WINDOW as u64 + 100) {
            w.push(ns);
        }
        assert_eq!(w.len(), LATENCY_WINDOW);
        // The 100 oldest samples fell out: the minimum is now 100.
        assert_eq!(w.percentiles_ns(&[0.0])[0], 100);
    }

    #[test]
    fn merging_full_windows_keeps_both_sides() {
        let mut a = LatencyWindow::default();
        let mut b = LatencyWindow::default();
        for _ in 0..LATENCY_WINDOW {
            a.push(1_000);
            b.push(2_000);
        }
        a.absorb(&b);
        assert_eq!(a.len(), LATENCY_WINDOW);
        // Proportional shares: half the merged window from each source,
        // not the second source evicting the first wholesale.
        assert_eq!(a.percentiles_ns(&[0.25])[0], 1_000);
        assert_eq!(a.percentiles_ns(&[0.75])[0], 2_000);
    }

    #[test]
    fn absorb_overflow_keeps_proportional_recent_shares_with_bounded_drift() {
        // An asymmetric merge that must overflow: 3/4 of a window of
        // low latencies vs a full window of high latencies. The merge
        // keeps each side's newest samples in proportional shares, so
        // the merged quantiles must stay close to the exact quantiles
        // of the full union.
        let mut a = LatencyWindow::default();
        let mut b = LatencyWindow::default();
        let a_len = LATENCY_WINDOW * 3 / 4;
        for i in 0..a_len {
            a.push(1_000 + i as u64); // oldest 1_000, newest ~1_003_071
        }
        for i in 0..LATENCY_WINDOW {
            b.push(2_000_000 + i as u64);
        }
        let union: Vec<u64> = a.samples().chain(b.samples()).collect();
        a.absorb(&b);
        assert_eq!(a.len(), LATENCY_WINDOW);
        // Proportional shares, within one sample of exact: a holds
        // 3/7 of the merged window, b holds 4/7.
        let total = a_len + LATENCY_WINDOW;
        let want_b = LATENCY_WINDOW * LATENCY_WINDOW / total;
        let got_b = a.samples().filter(|&ns| ns >= 2_000_000).count();
        assert_eq!(got_b, want_b);
        assert_eq!(a.len() - got_b, LATENCY_WINDOW - want_b);
        // Each side kept its NEWEST samples (recency bias, documented):
        // the oldest low-latency samples fell out.
        let min_kept = a.samples().min().expect("non-empty");
        assert!(min_kept > 1_000, "oldest samples must be dropped first");
        // Quantile drift bound: against the exact union quantiles, the
        // merged window's nearest-rank quantiles may shift by at most
        // the truncation share (each side within one sample of
        // proportional) — for this stationary two-level distribution
        // that means every checked quantile lands on the same level
        // (low vs high) as the exact union, and the p50/p99 drift is
        // bounded at 1% of rank.
        let exact = |q: f64| -> u64 {
            let mut sorted = union.clone();
            sorted.sort_unstable();
            let rank = (sorted.len() as f64 * q).ceil() as usize;
            sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
        };
        for q in [0.25, 0.50, 0.75, 0.99] {
            let got = a.percentiles_ns(&[q])[0];
            let want = exact(q);
            let same_level = (got < 2_000_000) == (want < 2_000_000);
            assert!(same_level, "q={q}: merged {got} vs exact {want}");
        }
        // The low/high boundary sits at the a-share: 3/7 ≈ 0.4286. The
        // merged boundary may drift by at most 1/LATENCY_WINDOW of
        // rank from the exact boundary.
        let boundary_exact = a_len as f64 / total as f64;
        let low_share = (a.len() - got_b) as f64 / a.len() as f64;
        assert!(
            (low_share - boundary_exact).abs() <= 1.0 / LATENCY_WINDOW as f64,
            "kept share {low_share} drifted past one sample from {boundary_exact}"
        );
    }

    #[test]
    fn utilization_capacity_spans_failed_batches() {
        // A utilization reader divides `busy_ns` by the wall time of every
        // batch, failed ones included, so a merge keeps both.
        let s = KernelServeStats {
            failed_batches: 1,
            busy_ns: 11,
            failed_wall_ns: 10,
            ..Default::default()
        };
        let mut merged = s.clone();
        merged.absorb(&s);
        assert_eq!((merged.busy_ns, merged.failed_wall_ns), (22, 20));
    }

    #[test]
    fn failed_batches_do_not_skew_rates() {
        let mut s = KernelServeStats {
            batches: 1,
            rows: 100,
            wall_ns: 1_000_000,
            ..Default::default()
        };
        s.latency.push(1_000_000);
        // A failed batch with partial progress moves its own counters and
        // availability, never the success counters or the latency window.
        s.failed_batches += 1;
        s.failed_rows += 37;
        s.failed_wall_ns += 5_000_000;
        let v = s.to_value();
        assert_eq!(v.get("rows"), Some(&100u64.to_value()));
        assert_eq!(v.get("wall_ns"), Some(&1_000_000u64.to_value()));
        assert_eq!(v.get("availability"), Some(&0.5f64.to_value()));
        let latency = v.get("latency").expect("latency");
        assert_eq!(latency.get("samples"), Some(&1usize.to_value()));
        assert_eq!(latency.get("p50_ns"), Some(&1_000_000u64.to_value()));
    }

    #[test]
    fn totals_absorb_every_kernel() {
        let mut map = BTreeMap::new();
        let mut a = KernelServeStats {
            batches: 1,
            rows: 10,
            elements: 100,
            busy_ns: 5,
            wall_ns: 7,
            ..Default::default()
        };
        a.latency.push(7);
        let mut b = KernelServeStats {
            batches: 2,
            failed_batches: 1,
            rows: 20,
            failed_rows: 3,
            elements: 200,
            busy_ns: 6,
            wall_ns: 8,
            ..Default::default()
        };
        b.latency.push(3);
        b.latency.push(5);
        map.insert("a".to_string(), a);
        map.insert("b".to_string(), b);
        let stats = EngineStats::from_map(map);
        let total = stats.total();
        assert_eq!(total.batches, 3);
        assert_eq!(total.failed_batches, 1);
        assert_eq!(total.rows, 30);
        assert_eq!(total.failed_rows, 3);
        assert_eq!(total.elements, 300);
        assert_eq!(total.wall_ns, 15);
        assert_eq!(total.latency.len(), 3);
        assert_eq!(total.latency.percentiles_ns(&[0.50])[0], 5);
    }

    #[test]
    fn snapshots_absorb_for_router_merging() {
        let mut map = BTreeMap::new();
        map.insert(
            "softermax".to_string(),
            KernelServeStats {
                batches: 4,
                rows: 40,
                ..Default::default()
            },
        );
        let mut left = EngineStats::from_map(map.clone());
        map.get_mut("softermax").expect("present").batches = 6;
        let right = EngineStats::from_map(map);
        left.absorb(&right);
        assert_eq!(left.kernel("softermax").expect("merged").batches, 10);
        assert_eq!(left.kernel("softermax").expect("merged").rows, 80);
    }
}
