//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms behind cheap cloneable handles, with snapshot + merge and
//! Prometheus-style text exposition.

use crac_sync::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, EventKind, Ring};
use crate::span::Span;

/// Fixed histogram bucket upper bounds (an implicit `+Inf` bucket always
/// follows the last bound).  Bounds are part of a histogram's identity:
/// re-registering a name with different bounds is a programming error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Buckets(pub &'static [u64]);

impl Buckets {
    /// Latency buckets in microseconds: 50µs … 4s, roughly geometric.
    /// Wide enough for a single memcpy stage and a cross-continent RTT.
    pub const LATENCY_US: Buckets = Buckets(&[
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
        1_000_000, 4_000_000,
    ]);

    /// Size buckets in bytes: 4 KiB … 256 MiB, powers of four.  Matches
    /// the chunk/manifest size range the stores actually move.
    pub const SIZE_BYTES: Buckets = Buckets(&[
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
        16 << 20,
        64 << 20,
        256 << 20,
    ]);

    /// Index of the bucket `value` falls into (`bounds.len()` selects the
    /// implicit `+Inf` bucket).  A value lands in the first bucket whose
    /// upper bound is `>= value`, mirroring Prometheus `le` semantics.
    pub fn index_of(&self, value: u64) -> usize {
        self.0.partition_point(|&bound| bound < value)
    }
}

/// A monotonically increasing counter.  Handles are cheap to clone and
/// increment lock-free; the registry only sees the shared cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct GaugeCell {
    current: AtomicU64,
    peak: AtomicU64,
}

/// An up/down quantity with a high-water mark.  `sub` saturates at zero
/// (a mismatched add/sub pair must not wrap `current` to ~`u64::MAX` and
/// poison `peak`); in debug builds the mismatch is asserted.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Raises the gauge by `n`, updating the peak.
    pub fn add(&self, n: u64) {
        let now = self.0.current.fetch_add(n, Ordering::Relaxed) + n;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the gauge by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let prev = self
            .0
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(n))
            })
            // crac-lint: allow(no-unwrap) — fetch_update closure is total — it always returns Some
            .expect("fetch_update closure always returns Some");
        debug_assert!(prev >= n, "gauge sub({n}) underflows current {prev}");
    }

    /// Sets the gauge to an absolute value, updating the peak.
    pub fn set(&self, v: u64) {
        self.0.current.store(v, Ordering::Relaxed);
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.current.load(Ordering::Relaxed)
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Ordering::Relaxed)
    }

    /// Raises the peak to at least `v` without touching the current value
    /// — for folding in a high-water mark tracked elsewhere (for example a
    /// pipeline's internal flow-control gauge).
    pub fn raise_peak(&self, v: u64) {
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }
}

struct HistogramCell {
    bounds: Buckets,
    /// One slot per bound plus the trailing `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram (latency in µs or sizes in bytes).  One
/// observation is three relaxed atomic adds — cheap enough for per-chunk
/// pipeline stages.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let cell = &self.0;
        cell.buckets[cell.bounds.index_of(value)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Inner {
    epoch: Instant,
    metrics: Mutex<BTreeMap<String, Metric>>,
    events: Ring,
}

/// The registry: a shared, thread-safe namespace of metrics plus the
/// structured event ring.  Clones share state — hand one down from the
/// coordinator and every layer records into the same place.
#[derive(Clone)]
pub struct ObsRegistry {
    inner: Arc<Inner>,
}

impl Default for ObsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsRegistry {
    /// An empty registry; its event clock starts now.
    pub fn new() -> Self {
        ObsRegistry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                metrics: Mutex::new("obs.registry.metrics", BTreeMap::new()),
                events: Ring::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        // A panic while holding the registry lock cannot leave metrics
        // half-updated (every mutation is a whole-value insert), and the
        // crac-sync wrapper already recovers from poisoning.
        self.inner.metrics.lock()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.  Panics if the name is already a gauge or histogram.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            // crac-lint: allow(no-unwrap) — metric kind mismatch is a documented API-contract panic
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.  Panics if the name is already a counter or histogram.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge(Arc::new(GaugeCell {
                current: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            })))
        }) {
            Metric::Gauge(g) => g.clone(),
            // crac-lint: allow(no-unwrap) — metric kind mismatch is a documented API-contract panic
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` on first use.  Panics if the name is already registered
    /// as a different metric type or with different bounds.
    pub fn histogram(&self, name: &str, bounds: Buckets) -> Histogram {
        let mut map = self.lock();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCell {
                bounds,
                buckets: (0..=bounds.0.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => {
                assert_eq!(
                    h.0.bounds, bounds,
                    "histogram {name} re-registered with different bounds"
                );
                h.clone()
            }
            // crac-lint: allow(no-unwrap) — metric kind mismatch is a documented API-contract panic
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Enters a latency span recording into the histogram `name` (created
    /// with [`Buckets::LATENCY_US`] on first use).  Prefer holding a
    /// [`Histogram`] handle and [`Span::enter`] on per-chunk hot paths —
    /// this convenience takes the registry lock to resolve the name.
    pub fn span(&self, name: &str) -> Span {
        Span::enter(&self.histogram(name, Buckets::LATENCY_US))
    }

    /// Records a structured event (bounded ring: oldest entries are
    /// dropped once [`EVENT_RING_CAPACITY`](crate::EVENT_RING_CAPACITY)
    /// is exceeded, with the drop count retained).
    pub fn event(&self, kind: EventKind, detail: impl Into<String>) {
        self.inner
            .events
            .push(self.inner.epoch.elapsed(), kind, detail.into());
    }

    /// Drains all buffered events, oldest first.
    pub fn drain_events(&self) -> Vec<Event> {
        self.inner.events.drain()
    }

    /// Events dropped so far because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.inner.events.dropped()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let metrics = map
            .iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(GaugeSnapshot {
                        value: g.get(),
                        peak: g.peak(),
                    }),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(HistogramSnapshot {
                        bounds: h.0.bounds.0.to_vec(),
                        buckets: h
                            .0
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count(),
                        sum: h.sum(),
                    }),
                };
                (name.clone(), snap)
            })
            .collect();
        Snapshot { metrics }
    }

    /// Folds a snapshot into this registry's live metrics: counters and
    /// histogram buckets add, gauge values add and peaks max.  This is
    /// how a per-run registry's totals land in the long-lived one.
    pub fn absorb(&self, snap: &Snapshot) {
        for (name, m) in &snap.metrics {
            match m {
                MetricSnapshot::Counter(v) => self.counter(name).add(*v),
                MetricSnapshot::Gauge(g) => {
                    let gauge = self.gauge(name);
                    gauge.add(g.value);
                    gauge.0.peak.fetch_max(g.peak, Ordering::Relaxed);
                }
                MetricSnapshot::Histogram(h) => {
                    let hist = self.histogram(name, bounds_of(&h.bounds));
                    let cell = &hist.0;
                    for (slot, add) in cell.buckets.iter().zip(&h.buckets) {
                        slot.fetch_add(*add, Ordering::Relaxed);
                    }
                    cell.count.fetch_add(h.count, Ordering::Relaxed);
                    cell.sum.fetch_add(h.sum, Ordering::Relaxed);
                }
            }
        }
    }

    /// Prometheus-style text exposition of the current snapshot, plus
    /// the process-wide lock wait/hold/contention families from
    /// `crac-sync` (empty in uninstrumented builds).  Appended as text
    /// rather than absorbed as metrics because the sync stats are
    /// cumulative globals: merging them into a per-registry snapshot
    /// would double-count on every scrape.
    pub fn render_text(&self) -> String {
        let mut text = self.snapshot().render_text();
        text.push_str(&crac_sync::stats::render_prometheus());
        text
    }
}

/// Maps snapshot-owned bounds back onto the canonical static bucket sets
/// (snapshots are self-contained; live histograms borrow `'static`
/// bounds).  Unknown bound vectors fall back to the latency set — the
/// counts still merge losslessly because `absorb` adds bucketwise.
fn bounds_of(bounds: &[u64]) -> Buckets {
    for canonical in [Buckets::LATENCY_US, Buckets::SIZE_BYTES] {
        if canonical.0 == bounds {
            return canonical;
        }
    }
    debug_assert!(false, "snapshot histogram with non-canonical bounds");
    Buckets::LATENCY_US
}

/// One metric inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value and peak.
    Gauge(GaugeSnapshot),
    /// A histogram's buckets and totals.
    Histogram(HistogramSnapshot),
}

/// Point-in-time gauge state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Current value.
    pub value: u64,
    /// High-water mark.
    pub peak: u64,
}

/// Point-in-time histogram state (self-contained: owns its bounds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the `+Inf` bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts, one per bound plus the trailing `+Inf` slot.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A point-in-time copy of a registry's metrics: cheap to take, merge
/// and diff; renders to Prometheus-style text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricSnapshot>,
}

impl Snapshot {
    /// The value of counter `name` (0 when absent — a counter that was
    /// never registered never counted anything).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricSnapshot::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        match self.metrics.get(name) {
            Some(MetricSnapshot::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricSnapshot)> {
        self.metrics.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Merges `other` into `self`: counters and histogram buckets add,
    /// gauges add values and max peaks.  Merge is associative and
    /// commutative and never loses counts (pinned by property tests) —
    /// the algebra that makes per-run registries foldable in any order.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, theirs) in &other.metrics {
            match self.metrics.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(theirs.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), theirs) {
                        (MetricSnapshot::Counter(mine), MetricSnapshot::Counter(v)) => {
                            *mine += *v;
                        }
                        (MetricSnapshot::Gauge(mine), MetricSnapshot::Gauge(g)) => {
                            mine.value = mine.value.saturating_add(g.value);
                            mine.peak = mine.peak.max(g.peak);
                        }
                        (MetricSnapshot::Histogram(mine), MetricSnapshot::Histogram(h)) => {
                            debug_assert_eq!(
                                mine.bounds, h.bounds,
                                "histogram {name} merged across different bounds"
                            );
                            for (slot, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                                *slot += *add;
                            }
                            mine.count += h.count;
                            mine.sum += h.sum;
                        }
                        (mine, theirs) => {
                            debug_assert!(
                                false,
                                "metric {name} merged across types: {mine:?} vs {theirs:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Renders the snapshot in Prometheus text exposition format:
    /// `# TYPE` lines, `_bucket{le="…"}` / `_sum` / `_count` series for
    /// histograms, and a companion `<name>_peak` gauge for high-water
    /// marks.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            match metric {
                MetricSnapshot::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricSnapshot::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "# TYPE {name} gauge\n{name} {}\n{name}_peak {}",
                        g.value, g.peak
                    );
                }
                MetricSnapshot::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                        cumulative += bucket;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_clones() {
        let reg = ObsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.clone().counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().counter("hits"), 3);
    }

    #[test]
    fn gauge_tracks_peak_and_saturates() {
        let reg = ObsRegistry::new();
        let g = reg.gauge("inflight");
        g.add(10);
        g.sub(4);
        g.add(1);
        assert_eq!(g.get(), 7);
        assert_eq!(g.peak(), 10);
        // A release-build mismatched sub pins to zero instead of wrapping.
        let lopsided = ObsRegistry::new().gauge("x");
        lopsided.add(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lopsided.sub(5)));
        if cfg!(debug_assertions) {
            result.unwrap_err();
        } else {
            result.unwrap();
        }
        assert_eq!(lopsided.get(), 0);
        assert_eq!(lopsided.peak(), 1);
    }

    #[test]
    fn histogram_buckets_follow_le_semantics() {
        let reg = ObsRegistry::new();
        let h = reg.histogram("lat_us", Buckets::LATENCY_US);
        h.observe(50); // lands in the le="50" bucket (inclusive bound)
        h.observe(51); // first value past the bound → next bucket
        h.observe(u64::MAX); // +Inf bucket
        let snap = reg.snapshot();
        let hs = snap.histogram("lat_us").unwrap();
        assert_eq!(hs.buckets[0], 1);
        assert_eq!(hs.buckets[1], 1);
        assert_eq!(*hs.buckets.last().unwrap(), 1);
        assert_eq!(hs.count, 3);
    }

    #[test]
    fn absorb_matches_merge() {
        let run = ObsRegistry::new();
        run.counter("chunks").add(7);
        run.gauge("buf").add(100);
        run.histogram("lat", Buckets::LATENCY_US).observe(123);

        let main = ObsRegistry::new();
        main.counter("chunks").add(1);
        let mut merged = main.snapshot();
        merged.merge(&run.snapshot());

        main.absorb(&run.snapshot());
        assert_eq!(main.snapshot(), merged);
        assert_eq!(main.snapshot().counter("chunks"), 8);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let reg = ObsRegistry::new();
        reg.counter("crac_chunks_total").add(5);
        reg.gauge("crac_buffered_bytes").add(42);
        reg.histogram("crac_stage_io_us", Buckets::LATENCY_US)
            .observe(75);
        let text = reg.render_text();
        assert!(text.contains("# TYPE crac_chunks_total counter"));
        assert!(text.contains("crac_chunks_total 5"));
        assert!(text.contains("crac_buffered_bytes_peak 42"));
        assert!(text.contains("crac_stage_io_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("crac_stage_io_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("crac_stage_io_us_count 1"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_is_refused() {
        let reg = ObsRegistry::new();
        reg.gauge("name");
        reg.counter("name");
    }
}
