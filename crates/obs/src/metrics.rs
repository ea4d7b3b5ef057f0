//! A global metrics registry: named counters, gauges and log-scale
//! histograms.
//!
//! Everything is lock-free on the hot path: looking a metric up by name
//! takes a mutex, but the returned handle is an `Arc` the caller keeps and
//! updates with plain atomic operations. Histograms bucket values by
//! power of two (64 buckets covering the full `u64` range), which is
//! plenty of resolution for latency-style data while keeping `record` to
//! two atomic adds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down: something currently open, queued or
/// held. Moved by whoever opens and closes, so reading it takes no lock.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current level; a `dec` observed ahead of its `inc` reads as 0.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed).max(0) as u64
    }
}

const BUCKETS: usize = 64;

/// A histogram with power-of-two buckets: bucket `i` counts values whose
/// most significant set bit is `i` (value 0 falls in bucket 0).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in.
pub fn bucket_index(value: u64) -> usize {
    (63 - value.max(1).leading_zeros()) as usize
}

/// The inclusive upper bound of a bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (2u64 << index) - 1
    }
}

impl Histogram {
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket holding the
    /// q-th value (`0.0 <= q <= 1.0`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("mean", Json::Float(self.mean())),
            ("p50", Json::UInt(self.quantile(0.50))),
            ("p90", Json::UInt(self.quantile(0.90))),
            ("p99", Json::UInt(self.quantile(0.99))),
            ("max", Json::UInt(self.max)),
        ])
    }
}

/// The registry: a process-wide namespace of counters, gauges and
/// histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap();
        match counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                counters.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(gauges.entry(name.to_string()).or_default())
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap();
        match histograms.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                histograms.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// The `span.<name>.ns` histogram fed automatically at span close.
    pub(crate) fn span_histogram(&self, span_name: &str) -> Arc<Histogram> {
        self.histogram(&format!("span.{span_name}.ns"))
    }

    /// Name-sorted `Arc` handles of every counter. The lock is held only
    /// to clone the map, never while reading values or serializing.
    pub fn counters_snapshot(&self) -> Vec<(String, Arc<Counter>)> {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters
            .iter()
            .map(|(name, c)| (name.clone(), Arc::clone(c)))
            .collect()
    }

    /// Name-sorted `(name, level)` of every gauge.
    pub fn gauges_snapshot(&self) -> Vec<(String, u64)> {
        let gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        gauges
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Name-sorted `Arc` handles of every histogram, cloned under the lock
    /// like [`counters_snapshot`](Registry::counters_snapshot).
    pub fn histograms_snapshot(&self) -> Vec<(String, Arc<Histogram>)> {
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        histograms
            .iter()
            .map(|(name, h)| (name.clone(), Arc::clone(h)))
            .collect()
    }

    /// Snapshot every metric as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count,
    /// sum, ...}}}`.
    /// The registry locks are released before any serialization happens,
    /// so a scrape never stalls concurrent metric registration.
    pub fn snapshot_json(&self) -> Json {
        let counters = self
            .counters_snapshot()
            .into_iter()
            .map(|(name, c)| (name, Json::UInt(c.get())))
            .collect::<Vec<_>>();
        let gauges = self
            .gauges_snapshot()
            .into_iter()
            .map(|(name, level)| (name, Json::UInt(level)))
            .collect::<Vec<_>>();
        let histograms = self
            .histograms_snapshot()
            .into_iter()
            .map(|(name, h)| (name, h.snapshot().to_json()))
            .collect::<Vec<_>>();
        Json::obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::default();
        r.counter("q").inc();
        r.counter("q").add(4);
        assert_eq!(r.counter("q").get(), 5);
    }

    #[test]
    fn gauges_move_both_ways_and_land_in_the_snapshot() {
        let r = Registry::default();
        r.gauge("open").inc();
        r.gauge("open").inc();
        r.gauge("open").dec();
        assert_eq!(r.gauge("open").get(), 1);
        r.gauge("early").dec();
        assert_eq!(r.gauge("early").get(), 0, "never reads negative");
        let snap = r.snapshot_json();
        let open = snap.get("gauges").and_then(|g| g.get("open"));
        assert_eq!(open, Some(&Json::UInt(1)));
    }

    #[test]
    fn bucket_indices_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn snapshot_quantiles_bound_the_data() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 10_000);
        assert!(s.quantile(1.0) == 10_000);
        assert!(s.quantile(0.5) >= 3);
        assert!(s.quantile(0.0) >= 1);
    }
}
