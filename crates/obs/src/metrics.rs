//! The metrics registry: padded counters, gauges, log2 histograms.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::LocalKey;
use std::time::Instant;

use crate::snapshot::{Bucket, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};

/// One counter cell on its own cache line, so two metrics never share one.
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// A monotonic counter: one cache-line padded cell.
///
/// Handles are cheap `Arc` clones; hot paths should obtain one once (at
/// construction) and call [`Counter::inc`] on the cached handle, or count
/// through [`hot_counter_inc!`](crate::hot_counter_inc).
#[derive(Clone)]
pub struct Counter {
    cell: Arc<PaddedCell>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            cell: Arc::new(PaddedCell(AtomicU64::new(0))),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.cell.0.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// Every [`HotTally`] this thread has touched, so a snapshot can drain
    /// tallies it cannot name.
    static HOT_SITES: RefCell<Vec<&'static LocalKey<HotTally>>> =
        const { RefCell::new(Vec::new()) };
}

/// The thread-local half of one [`hot_counter_inc!`](crate::hot_counter_inc)
/// call site: increments collect in a plain cell and reach the shared
/// [`Counter`] every [`HOT_BATCH`](crate::HOT_BATCH) of them, when the
/// thread takes a snapshot, and when the thread exits.
pub struct HotTally {
    pending: Cell<u64>,
    counter: &'static Counter,
}

impl HotTally {
    /// A tally for `counter`, living in the thread-local `site`.
    pub fn new(counter: &'static Counter, site: &'static LocalKey<HotTally>) -> Self {
        // `Err` means the thread is exiting; `Drop` still drains the tally.
        let _ = HOT_SITES.try_with(|sites| sites.borrow_mut().push(site));
        let pending = Cell::new(0);
        HotTally { pending, counter }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.pending.set(self.pending.get() + 1);
        if self.pending.get() >= crate::HOT_BATCH {
            self.flush();
        }
    }

    fn flush(&self) {
        self.counter.add(self.pending.replace(0));
    }
}

impl Drop for HotTally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Flushes every [`HotTally`] of the calling thread ahead of a snapshot.
fn flush_hot_tallies() {
    let sites = HOT_SITES.try_with(|sites| sites.borrow().clone());
    for site in sites.unwrap_or_default() {
        // `Err`: the thread is exiting and the tally flushed in its `Drop`.
        let _ = site.try_with(HotTally::flush);
    }
}

/// A signed gauge (a single atomic cell — gauges are not hot-path).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds zeros, bucket `i` holds values in
/// `[2^(i-1), 2^i)`, up to `i = 64`.
const HIST_BUCKETS: usize = 65;

/// Bucket index for `v`: 0 for 0, otherwise `floor(log2(v)) + 1`.
#[inline]
pub const fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value landing in bucket `i` (0 for bucket 0, else `2^(i-1)`).
#[inline]
pub const fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram for latencies (ns) and sizes (bytes).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Starts an RAII timer that records elapsed nanoseconds on drop.
    #[inline]
    pub fn start_timer(&self) -> Timer<'_> {
        Timer {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Count in bucket `i` (see [`bucket_index`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.core.buckets[i].load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets = (0..HIST_BUCKETS)
            .filter_map(|i| {
                let count = self.bucket(i);
                (count > 0).then(|| Bucket {
                    lo: bucket_lower_bound(i),
                    count,
                })
            })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// RAII timer from [`Histogram::start_timer`]: records ns elapsed on drop.
pub struct Timer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A collection of named metrics. Registration (the first call for a name)
/// takes a lock; the returned handles are lock-free.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry (use [`global`] for the shared one).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(Counter::new)
            .clone()
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(Gauge::new)
            .clone()
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// A point-in-time copy of every metric, sorted by name: exact for the
    /// calling thread and exited ones (see [`HOT_BATCH`](crate::HOT_BATCH)).
    pub fn snapshot(&self) -> Snapshot {
        flush_hot_tallies();
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| CounterSnapshot {
                    name: n.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| GaugeSnapshot {
                    name: n.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        }
    }
}

/// The process-global registry every pipeline stage records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_up() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let r = Registry::new();
        let c = r.counter("contended");
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn same_name_is_same_metric() {
        let r = Registry::new();
        let a = r.counter("n");
        let b = r.counter("n");
        a.add(3);
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(lo * 2 - 1), i, "upper bound of bucket {i}");
            assert_eq!(bucket_lower_bound(i), lo);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_into_log2_buckets() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 2); // 4, 7
        assert_eq!(h.bucket(4), 1); // 8
        assert_eq!(h.bucket(11), 1); // 1024
    }

    #[test]
    fn timer_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t");
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_lists_all_metrics() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(-2);
        r.histogram("h").record(9);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.counter("c"), Some(5));
        assert_eq!((s.gauges[0].name.as_str(), s.gauges[0].value), ("g", -2));
        assert_eq!(s.histograms[0].count, 1);
    }
}
