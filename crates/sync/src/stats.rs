//! Process-global lock accounting: acquisition/contention counters and
//! fixed-bucket wait/hold histograms.
//!
//! Locks are created everywhere — const contexts, hot loops, per-request
//! structs — long before any observability registry exists, so the
//! accounting lives in lock-free process statics rather than a handed-
//! down registry.  `crac-obs` bridges the totals into every scrape:
//! [`render_prometheus`] emits `crac_lock_*` families in the same text
//! format, and `ObsRegistry::render_text` appends them.
//!
//! The bucket bounds deliberately mirror `crac_obs::Buckets::LATENCY_US`
//! so `crac_lock_wait_us` / `crac_lock_hold_us` read like every other
//! latency family on a dashboard.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds in microseconds — kept identical to
/// `crac_obs::Buckets::LATENCY_US` (asserted by the obs bridge tests).
pub const LATENCY_US_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 4_000_000,
];

const SLOTS: usize = LATENCY_US_BOUNDS.len() + 1; // trailing +Inf bucket

struct AtomicHist {
    buckets: [AtomicU64; SLOTS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHist {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init template
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHist {
            buckets: [ZERO; SLOTS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    // Compiled with the recorders that call it (and for this module's
    // own tests): a passthrough build records nothing.
    #[cfg(any(debug_assertions, feature = "lock-graph", test))]
    fn observe(&self, value_us: u64) {
        let idx = LATENCY_US_BOUNDS.partition_point(|&b| b < value_us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; SLOTS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

static ACQUIRES: AtomicU64 = AtomicU64::new(0);
static CONTENDED: AtomicU64 = AtomicU64::new(0);
static WAIT_US: AtomicHist = AtomicHist::new();
static HOLD_US: AtomicHist = AtomicHist::new();

// The recorders exist exactly when the instrumentation that calls them
// does (see `instrumented`); the statics and readers below always do, so
// a passthrough build still answers a scrape — with zeros.

#[cfg(any(debug_assertions, feature = "lock-graph"))]
pub(crate) fn note_acquire() {
    ACQUIRES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(any(debug_assertions, feature = "lock-graph"))]
pub(crate) fn note_contended() {
    CONTENDED.fetch_add(1, Ordering::Relaxed);
}

#[cfg(any(debug_assertions, feature = "lock-graph"))]
pub(crate) fn record_wait_us(us: u64) {
    WAIT_US.observe(us);
}

#[cfg(any(debug_assertions, feature = "lock-graph"))]
pub(crate) fn record_hold_us(us: u64) {
    HOLD_US.observe(us);
}

/// Point-in-time copy of one lock-latency histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts: one slot per [`LATENCY_US_BOUNDS`] entry plus
    /// the trailing `+Inf` slot.
    pub buckets: [u64; SLOTS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed microseconds.
    pub sum: u64,
}

/// Point-in-time copy of the process-wide lock accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Lock acquisitions observed (mutex locks + rwlock reads/writes).
    pub acquires: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    /// Time spent blocked on contended acquisitions, µs buckets.
    pub wait_us: HistSnapshot,
    /// Guard lifetimes (lock hold times), µs buckets.
    pub hold_us: HistSnapshot,
}

/// A copy of the current totals.  All zeros in passthrough builds.
pub fn snapshot() -> LockStats {
    LockStats {
        acquires: ACQUIRES.load(Ordering::Relaxed),
        contended: CONTENDED.load(Ordering::Relaxed),
        wait_us: WAIT_US.snapshot(),
        hold_us: HOLD_US.snapshot(),
    }
}

/// True when this build records lock instrumentation (debug build or the
/// `lock-graph` feature); false for the release passthrough.
pub const fn instrumented() -> bool {
    cfg!(any(debug_assertions, feature = "lock-graph"))
}

/// Prometheus text exposition of the lock families (`crac_lock_acquires`,
/// `crac_lock_contended`, `crac_lock_wait_us`, `crac_lock_hold_us`).
/// Empty in passthrough builds — there is nothing to report and nothing
/// should pretend otherwise.
pub fn render_prometheus() -> String {
    use std::fmt::Write as _;
    if !instrumented() {
        return String::new();
    }
    let s = snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# TYPE crac_lock_acquires counter\ncrac_lock_acquires {}",
        s.acquires
    );
    let _ = writeln!(
        out,
        "# TYPE crac_lock_contended counter\ncrac_lock_contended {}",
        s.contended
    );
    for (name, h) in [
        ("crac_lock_wait_us", s.wait_us),
        ("crac_lock_hold_us", s.hold_us),
    ] {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (bound, bucket) in LATENCY_US_BOUNDS.iter().zip(&h.buckets) {
            cumulative += bucket;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_follows_le_semantics() {
        let h = AtomicHist::new();
        h.observe(50); // inclusive bound → first bucket
        h.observe(51); // next bucket
        h.observe(u64::MAX); // +Inf
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[SLOTS - 1], 1);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn render_matches_build_mode() {
        let text = render_prometheus();
        if instrumented() {
            assert!(text.contains("# TYPE crac_lock_wait_us histogram"));
            assert!(text.contains("crac_lock_hold_us_bucket{le=\"+Inf\"}"));
        } else {
            assert!(text.is_empty());
        }
    }
}
