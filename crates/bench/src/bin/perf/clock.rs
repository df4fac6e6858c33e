//! The harness's one clock: every timing in the benchmark is a difference
//! of two [`now_ns`] reads, so a trace's spans and the reported metrics
//! share one time base.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // crac-lint: allow(raw-instant) — the benchmark times the program from outside; this is its single clock read
    let now = Instant::now();
    let anchor = *ANCHOR.get_or_init(|| now);
    now.duration_since(anchor).as_nanos() as u64
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
