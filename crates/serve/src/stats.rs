//! Per-kernel serving accounting: raw work and time counters, latency
//! percentiles, and honest failure counters.

use std::collections::BTreeMap;

/// Sub-buckets per power of two, as a bit count: 16 sub-buckets.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// The largest latency told apart, 2^40 − 1 ns (about 18 minutes);
/// longer ones count in the last bucket.
const MAX_NS: u64 = (1 << 40) - 1;
/// Buckets up to and including [`MAX_NS`]'s: 592, 4,736 bytes of counts.
const BUCKETS: usize = bucket(MAX_NS) + 1;

/// The bucket of `ns`: values below 32 get one bucket each; above, each
/// power of two splits into 16 equal sub-buckets, so a bucket is
/// narrower than 1/16 of any value in it.
const fn bucket(ns: u64) -> usize {
    let v = if ns > MAX_NS { MAX_NS } else { ns };
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(SUB_BITS + 1);
    shift as usize * SUB + (v >> shift) as usize
}

/// The largest value that falls in `bucket`.
fn upper_ns(bucket: usize) -> u64 {
    let shift = (bucket / SUB).saturating_sub(1);
    let top = (bucket - shift * SUB) as u64;
    ((top + 1) << shift) - 1
}

/// A log-linear histogram of request latencies (nanoseconds) over the
/// process lifetime, in a fixed inline array: recording adds one to a
/// bucket, and merging adds two histograms bucket by bucket, so a merge
/// equals recording the union, whatever the order.
///
/// A quantile reports the upper bound of the bucket holding the exact
/// nearest-rank sample: never below that sample and less than 1/16 of
/// it above (exact below 32 ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one completed request's end-to-end latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
    }

    /// Number of latencies recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile latency in nanoseconds, `q` clamped into
    /// `[0, 1]`: the upper bound of the bucket holding the nearest-rank
    /// sample. 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        // Nearest rank: the smallest sample with at least a `q`
        // fraction of the samples at or below it. No bucket reaches
        // rank 1 when empty.
        let rank = ((self.count() as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0;
        self.counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .map_or(0, upper_ns)
    }

    /// Adds another histogram's counts into this one, bucket by bucket.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

/// Accumulated serving counters for one kernel.
///
/// `wall_ns` is summed end-to-end request time (submission to
/// completion) over **successful** batches only; `busy_ns` is the sum of
/// worker compute time over every batch (failed ones included — the
/// workers really were busy). One worker serves each request, so a
/// request's busy time is its wall time less its queue wait. Failed
/// batches are counted apart (`failed_batches`) so errors can never
/// inflate `rows`, `wall_ns` or the latency histogram, and so a rate a
/// reader derives from them describes successful work only.
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
    /// Latencies of every successful batch: one sample per `batches`.
    pub latency: LatencyHistogram,
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
        self.elements += other.elements;
        self.busy_ns += other.busy_ns;
        self.wall_ns += other.wall_ns;
        self.failed_wall_ns += other.failed_wall_ns;
        self.latency.absorb(&other.latency);
    }
}

impl serde::Serialize for LatencyHistogram {
    /// The sample count plus p50/p95/p99 (the buckets are not shipped).
    fn to_value(&self) -> serde::Value {
        let q = |q: f64| serde::Serialize::to_value(&self.quantile_ns(q));
        serde::Value::Object(vec![
            ("samples".into(), serde::Serialize::to_value(&self.count())),
            ("p50_ns".into(), q(0.50)),
            ("p95_ns".into(), q(0.95)),
            ("p99_ns".into(), q(0.99)),
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

    /// Counters summed across every kernel (latency histograms merged,
    /// so the percentiles describe all kernels' batches together).
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
    use proptest::prelude::*;
    use serde::Serialize;

    /// The histogram's promise: `got` is the exact value `want` or
    /// above it by less than 1/16 of it.
    fn within_a_16th(got: u64, want: u64) -> bool {
        got >= want && got - want <= want / 16
    }

    #[test]
    fn rates_and_latency() {
        // The snapshot carries the raw inputs of every rate a reader
        // derives and the histogram's percentiles, under the keys of the
        // `Stats` frame.
        let mut s = KernelServeStats {
            batches: 2,
            rows: 1000,
            busy_ns: 1_500_000,
            wall_ns: 1_000_000,
            ..Default::default()
        };
        s.latency.record(400_000);
        s.latency.record(600_000);
        let v = s.to_value();
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| &**k)
            .collect();
        let want = "batches empty_batches failed_batches expired_requests rows elements \
                    busy_ns wall_ns failed_wall_ns availability latency";
        assert_eq!(keys, want.split_whitespace().collect::<Vec<_>>());
        assert_eq!(v.get("busy_ns"), Some(&1_500_000u64.to_value()));
        let latency = v.get("latency").expect("latency");
        assert_eq!(latency.get("samples"), Some(&2u64.to_value()));
        for (key, q) in [("p50_ns", 0.50), ("p99_ns", 0.99)] {
            let want = s.latency.quantile_ns(q).to_value();
            assert_eq!(latency.get(key), Some(&want), "{key}");
        }
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
    fn buckets_tile_the_range_narrower_than_a_16th() {
        // Every bucket starts one past its predecessor's upper bound and
        // spans less than 1/16 of its lowest value, so a reported upper
        // bound is within 1/16 of anything in the bucket.
        let mut lower = 0;
        for b in 0..BUCKETS {
            let upper = upper_ns(b);
            assert_eq!((bucket(lower), bucket(upper)), (b, b), "bucket {b}");
            assert!(within_a_16th(upper, lower), "bucket {b}: {lower}..={upper}");
            lower = upper + 1;
        }
        assert_eq!(lower, MAX_NS + 1);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1, "longer latencies clamp");
        assert!(std::mem::size_of::<LatencyHistogram>() <= 8 * 1024);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // Below 32 ns every value has its own bucket: exact.
        let mut h = LatencyHistogram::default();
        for ns in 1..=30 {
            h.record(ns);
        }
        assert_eq!(h.count(), 30);
        assert_eq!(h.quantile_ns(0.50), 15);
        assert_eq!(h.quantile_ns(0.95), 29);
        assert_eq!(h.quantile_ns(0.99), 30);
        assert_eq!(h.quantile_ns(0.0), 1);
        assert_eq!(h.quantile_ns(1.0), 30);
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(h.quantile_ns(7.0), 30);
        assert_eq!(h.quantile_ns(-1.0), 1);
        assert_eq!(h.quantile_ns(f64::NAN), 1);
    }

    #[test]
    fn empty_window_returns_zero_at_every_quantile() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        for q in [-1.0, 0.0, 0.5, 1.0, 7.0] {
            assert_eq!(h.quantile_ns(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::default();
        h.record(42);
        assert_eq!(h.count(), 1);
        for q in [-0.5, 0.0, 0.01, 0.5, 0.99, 1.0, 2.0] {
            // 42 shares the bucket 42..=43.
            assert_eq!(h.quantile_ns(q), 43, "q={q}");
        }
    }

    #[test]
    fn quantiles_clamp_at_p0_and_p100() {
        let mut h = LatencyHistogram::default();
        for ns in [30, 10, 20] {
            h.record(ns);
        }
        // p0 and p100 hit the extremes; anything beyond [0, 1] clamps to
        // them.
        assert_eq!(h.quantile_ns(0.0), 10);
        assert_eq!(h.quantile_ns(1.0), 30);
        assert_eq!(h.quantile_ns(-1e9), 10);
        assert_eq!(h.quantile_ns(1e9), 30);
        assert_eq!(h.quantile_ns(f64::NEG_INFINITY), 10);
        assert_eq!(h.quantile_ns(f64::INFINITY), 30);
    }

    proptest! {
        /// Two histograms of a sample set split at random merge into the
        /// histogram of the whole set, count for count, in either order,
        /// and its p50/p95/p99 lie within 1/16 above the exact
        /// nearest-rank quantiles. Samples spread over every magnitude
        /// from 0 to 2^40 − 1 ns.
        #[test]
        fn merge_equals_the_union_and_quantiles_are_within_a_16th(
            draws in proptest::collection::vec((any::<bool>(), 0u32..41, any::<u64>()), 1..400),
        ) {
            let mut left = LatencyHistogram::default();
            let mut right = LatencyHistogram::default();
            let mut union = LatencyHistogram::default();
            let mut all = Vec::new();
            for &(to_left, bits, raw) in &draws {
                let ns = raw & ((1 << bits) - 1);
                (if to_left { &mut left } else { &mut right }).record(ns);
                union.record(ns);
                all.push(ns);
            }
            let mut reversed = right.clone();
            reversed.absorb(&left);
            left.absorb(&right);
            prop_assert_eq!(&left, &union);
            prop_assert_eq!(&reversed, &union);
            prop_assert_eq!(union.count(), all.len() as u64);
            all.sort_unstable();
            for q in [0.50, 0.95, 0.99] {
                let nearest_rank = (all.len() as f64 * q).ceil() as usize;
                let (got, want) = (union.quantile_ns(q), all[nearest_rank - 1]);
                prop_assert!(within_a_16th(got, want), "q={}: {} vs exact {}", q, got, want);
            }
        }
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
        s.latency.record(1_000_000);
        // A failed batch moves its own counters and availability, never
        // the success counters or the latency histogram.
        s.failed_batches += 1;
        s.failed_wall_ns += 5_000_000;
        let v = s.to_value();
        assert_eq!(v.get("rows"), Some(&100u64.to_value()));
        assert_eq!(v.get("wall_ns"), Some(&1_000_000u64.to_value()));
        assert_eq!(v.get("availability"), Some(&0.5f64.to_value()));
        let latency = v.get("latency").expect("latency");
        assert_eq!(latency.get("samples"), Some(&1u64.to_value()));
        let p50 = s.latency.quantile_ns(0.50);
        assert!(within_a_16th(p50, 1_000_000));
        assert_eq!(latency.get("p50_ns"), Some(&p50.to_value()));
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
        a.latency.record(7);
        let mut b = KernelServeStats {
            batches: 2,
            failed_batches: 1,
            rows: 20,
            failed_wall_ns: 3,
            elements: 200,
            busy_ns: 6,
            wall_ns: 8,
            ..Default::default()
        };
        b.latency.record(3);
        b.latency.record(5);
        map.insert("a".to_string(), a);
        map.insert("b".to_string(), b);
        let stats = EngineStats::from_map(map);
        let total = stats.total();
        assert_eq!(total.batches, 3);
        assert_eq!(total.failed_batches, 1);
        assert_eq!(total.rows, 30);
        assert_eq!(total.failed_wall_ns, 3);
        assert_eq!(total.elements, 300);
        assert_eq!(total.wall_ns, 15);
        assert_eq!(total.latency.count(), 3);
        assert_eq!(total.latency.quantile_ns(0.50), 5);
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
