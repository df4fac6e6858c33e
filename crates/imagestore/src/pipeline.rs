//! Plumbing shared by the streaming writer, reader and ship pipelines: the
//! payload-bytes-in-flight gauge behind the `peak_buffered_bytes` stats,
//! the first-error-wins latch that turns a multi-threaded failure into
//! one deterministic result while the remaining stages drain, and the one
//! fan-out policy every worker pool sizes itself with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crac_sync::Mutex;

use crate::error::StoreError;

/// Payload-bytes-in-flight gauge shared by every pipeline stage.
///
/// Stages `add` a buffer's bytes when they take ownership of it and `sub`
/// when they release it; `peak` is the high-water mark the bounded-memory
/// integration tests assert against
/// ([`crate::writer::stream_buffer_bound`] /
/// [`crate::reader::restore_buffer_bound`]).
#[derive(Default)]
pub(crate) struct Gauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    pub(crate) fn add(&self, bytes: u64) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Releases bytes, saturating at zero: a mismatched add/sub pair is
    /// a stage-accounting bug (asserted in debug builds), but it must
    /// not wrap `current` to ~`u64::MAX` — one wrap would poison `peak`
    /// for the rest of the run and fail every buffer-bound assertion
    /// after it.
    pub(crate) fn sub(&self, bytes: u64) {
        let prev = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            })
            // crac-lint: allow(no-unwrap) — fetch_update closure is total — it always returns Some
            .expect("fetch_update closure always returns Some");
        debug_assert!(
            prev >= bytes,
            "gauge sub({bytes}) underflows current {prev}: add/sub mismatch"
        );
    }

    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Shared error latch: first failure wins, everything after drains.
pub(crate) type ErrorSlot = Arc<Mutex<Option<StoreError>>>;

pub(crate) fn latch(slot: &ErrorSlot, err: StoreError) {
    slot.lock().get_or_insert(err);
}

/// The one fan-out policy: how many workers a stage runs over `jobs`
/// independent items.  `requested` is the caller's width (0 = one per
/// core, at most 8 — the encoders, the restore's fetch workers and the
/// lazy prefetchers are CPU-bound); never more workers than jobs, never
/// fewer than one.
pub(crate) fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let wanted = if requested > 0 { requested } else { hw.min(8) };
    wanted.clamp(1, jobs.max(1))
}

/// Runs `work` on `threads` scoped threads — the caller's included, so a
/// stage never has more threads alive than its width — and returns once
/// all of them have.
pub(crate) fn run_workers(threads: usize, work: impl Fn() + Sync) {
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(&work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a mismatched add/sub pair must saturate at zero, not
    /// wrap `current` to ~`u64::MAX` and poison `peak` forever.  (The
    /// debug assertion still flags the mismatch in debug builds — the
    /// point here is the release-mode arithmetic.)
    #[test]
    fn gauge_sub_saturates_instead_of_wrapping() {
        let g = Gauge::default();
        g.add(8);
        let over = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.sub(32)));
        if cfg!(debug_assertions) {
            over.expect_err("debug builds assert on the mismatch");
        } else {
            over.expect("release builds saturate silently");
        }
        // current pinned at zero, peak untouched by the bad sub…
        assert_eq!(g.peak(), 8);
        // …and the next add sees a sane baseline, not ~u64::MAX.
        g.add(3);
        assert_eq!(g.peak(), 8, "peak must not jump after a lopsided sub");
    }
}
