//! `predator-obs` — observability for the detector pipeline.
//!
//! The PREDATOR evaluation (§4, Figures 7–10) is about *where time and
//! memory go*: instrumentation cost, sampling rate, tracked-line fraction,
//! prediction-unit churn. This crate gives every pipeline stage a shared
//! place to record that:
//!
//! * [`Registry`] — named metrics: monotonic [`Counter`]s (one cache-line
//!   padded cell each, so two metrics never falsely share a line — the
//!   paper's own lesson), [`Gauge`]s, and log2-bucketed [`Histogram`]s for
//!   latencies and sizes.
//! * [`span`] / [`Histogram::start_timer`] — RAII wall-time timers for the
//!   pipeline phases (parse → instrument → interpret → detect → predict →
//!   report), recorded as `span_<phase>_ns` histograms.
//! * [`recorder`] — the flight recorder: a bounded ring of recent per-line
//!   access and invalidation records (who wrote, who got invalidated, which
//!   words, in what order) powering `predator explain` timelines.
//! * [`timeline`] — the one event stream: a bounded Chrome trace-event
//!   buffer (`--trace-timeline`) turning phase spans, interpreter thread
//!   activity, and every detector transition (line promoted, invalidation
//!   recorded, prediction unit spawned/verified/discarded, callsite
//!   attributed, watchdog tick) into a Perfetto-loadable JSON file with flow
//!   arrows from invalidating writes to their victim threads.
//! * [`serve`] — a hand-rolled zero-dep HTTP/1.1 server over `std::net`,
//!   the transport behind `predator serve`'s `/metrics`, `/health`,
//!   `/report` and `/snapshot` endpoints (plus the matching GET client).
//!
//! History, rates and alerting are not kept here: they belong to whatever
//! scrapes `/metrics` (a Prometheus server, its `rate()` and rule groups).
//!
//! Everything hangs off a process-global registry ([`global`]) so call
//! sites in any crate can grab a handle without plumbing; handles are
//! cheap `Arc` clones meant to be cached at construction time on hot paths.

mod metrics;
pub mod mode;
pub mod recorder;
pub mod serve;
mod snapshot;
mod span;
pub mod timeline;

pub use metrics::{
    bucket_index, bucket_lower_bound, global, Counter, Gauge, Histogram, HotTally, Registry, Timer,
};
pub use recorder::{FlightRecorder, Rec, RecKind};
pub use serve::{http_get, http_get_auth, HttpServer, Request, Response, ServerHandle};
pub use snapshot::{
    escape_label_value, prom_info_metric, Bucket, CounterSnapshot, GaugeSnapshot,
    HistogramSnapshot, Snapshot,
};
pub use span::{span, Span};
pub use timeline::{host_lane, timeline, ArgVal, Timeline};

/// A lazily-initialized `&'static Counter` from the global registry —
/// the cached-handle pattern for hot paths without a struct to hang the
/// handle on: `obs::static_counter!("mesi_accesses_total").inc()`.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// How many increments a [`hot_counter_inc!`] call site accumulates in its
/// thread-local [`HotTally`] before flushing to the shared counter. Nothing
/// is lost: the remainder is flushed when the thread takes a snapshot and
/// when it exits; only another, live thread's can be missing from one.
pub const HOT_BATCH: u64 = 64;

/// A batched counter increment for hot paths: counts into a thread-local
/// [`HotTally`] that reaches the shared global counter every [`HOT_BATCH`]
/// increments (and at snapshot and thread exit), so the per-event cost is a
/// TLS increment and a predictable branch instead of an atomic RMW.
#[macro_export]
macro_rules! hot_counter_inc {
    ($name:expr) => {{
        ::std::thread_local! {
            static TALLY: $crate::HotTally =
                $crate::HotTally::new($crate::static_counter!($name), &TALLY);
        }
        TALLY.with($crate::HotTally::inc);
    }};
}

/// A lazily-initialized `&'static Gauge` from the global registry.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A lazily-initialized `&'static Histogram` from the global registry.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod macro_tests {
    #[test]
    fn hot_counter_flushes_in_batches() {
        // One call site: the macro's thread-local tally is per expansion.
        fn bump() {
            crate::hot_counter_inc!("test_hot_counter_flush_total");
        }
        let name = "test_hot_counter_flush_total";
        // Below a full batch nothing reaches the shared counter...
        for _ in 0..crate::HOT_BATCH - 1 {
            bump();
        }
        assert_eq!(crate::global().counter(name).get(), 0);
        // ...the batch-completing increment flushes the whole tally.
        bump();
        assert_eq!(crate::global().counter(name).get(), crate::HOT_BATCH);
    }

    #[test]
    fn hot_counter_is_exact_after_join_and_snapshot() {
        fn bump() {
            crate::hot_counter_inc!("test_hot_counter_exact_total");
        }
        const THREADS: u64 = 4;
        // k·64 + r: each thread exits with a partial batch pending.
        const PER_THREAD: u64 = 3 * crate::HOT_BATCH + 17;
        let workers: Vec<_> = (0..THREADS)
            .map(|_| std::thread::spawn(|| (0..PER_THREAD).for_each(|_| bump())))
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // This thread's own remainder is flushed by the snapshot it takes.
        (0..5).for_each(|_| bump());
        let snap = crate::global().snapshot();
        assert_eq!(
            snap.counter("test_hot_counter_exact_total"),
            Some(THREADS * PER_THREAD + 5)
        );
    }

    #[test]
    fn static_handles_point_at_the_global_registry() {
        crate::static_counter!("test_static_handle_total").add(3);
        assert_eq!(crate::global().counter("test_static_handle_total").get(), 3);
    }
}
