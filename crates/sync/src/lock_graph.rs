//! The live lock-order detector: thread-local held-lock stacks feeding a
//! process-global [`LockOrderGraph`](crate::LockOrderGraph).
//!
//! Every instrumented blocking acquisition records a `held → acquiring`
//! edge for each lock the thread already holds.  The first edge that
//! closes a cycle is a potential deadlock — the classic ABBA inversion
//! plus every longer variant — and is reported *at the moment the unsafe
//! ordering is first exercised*, with the acquisition site of every lock
//! on the cycle.  By default the acquiring thread panics (so the test
//! suite fails loudly on the exact line); [`set_abort_on_cycle`] turns
//! that into a queued [`CycleReport`] for detectors-of-the-detector.
//!
//! Everything here is compiled only in instrumented builds (debug, or
//! the `lock-graph` feature); the passthrough build keeps the public
//! query surface as no-ops so callers need no `cfg` of their own.

use std::fmt;

/// One hop of a detected cycle: some thread held `held_name` (acquired
/// at `held_site`) while acquiring `acquiring_name` at `acquiring_site`.
#[derive(Clone, Debug)]
pub struct CycleEdge {
    /// Static name of the lock that was held.
    pub held_name: &'static str,
    /// Source location where the held lock was acquired.
    pub held_site: String,
    /// Static name of the lock being acquired.
    pub acquiring_name: &'static str,
    /// Source location of the acquisition that recorded the edge.
    pub acquiring_site: String,
}

/// A potential deadlock: the recorded acquisition orders form a cycle.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// The edges of the cycle, starting with the acquisition that closed
    /// it.
    pub edges: Vec<CycleEdge>,
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lock-order cycle detected (potential deadlock across {} locks):",
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  holding `{}` (acquired at {}) while acquiring `{}` at {}",
                e.held_name, e.held_site, e.acquiring_name, e.acquiring_site
            )?;
        }
        Ok(())
    }
}

#[cfg(any(debug_assertions, feature = "lock-graph"))]
mod imp {
    use super::{CycleEdge, CycleReport};
    use crate::graph::LockOrderGraph;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    // The detector's own state cannot be guarded by the locks it
    // instruments; a raw std mutex with swallowed poisoning is the one
    // place the workspace bottoms out.
    use std::sync::{Mutex, OnceLock}; // crac-lint: allow(raw-lock) — detector-internal state, cannot self-instrument

    static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(0);
    static ABORT_ON_CYCLE: AtomicBool = AtomicBool::new(true);

    pub(crate) fn next_lock_id() -> u64 {
        NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed) + 1
    }

    #[derive(Clone, Copy)]
    struct Held {
        id: u64,
        name: &'static str,
        site: &'static Location<'static>,
    }

    #[derive(Clone, Copy)]
    struct EdgeSites {
        held_name: &'static str,
        held_site: &'static Location<'static>,
        acquiring_name: &'static str,
        acquiring_site: &'static Location<'static>,
    }

    impl EdgeSites {
        fn to_report_edge(self) -> CycleEdge {
            CycleEdge {
                held_name: self.held_name,
                held_site: self.held_site.to_string(),
                acquiring_name: self.acquiring_name,
                acquiring_site: self.acquiring_site.to_string(),
            }
        }
    }

    #[derive(Default)]
    struct GraphState {
        graph: LockOrderGraph,
        sites: HashMap<(u64, u64), EdgeSites>,
        reports: Vec<CycleReport>,
    }

    fn state() -> &'static Mutex<GraphState> {
        static STATE: OnceLock<Mutex<GraphState>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(GraphState::default()))
    }

    fn lock_state() -> std::sync::MutexGuard<'static, GraphState> {
        state().lock().unwrap_or_else(|p| p.into_inner())
    }

    thread_local! {
        /// Locks this thread currently holds, acquisition order.
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        /// Edges this thread has already pushed to the global graph —
        /// a cache so steady-state acquisitions never take the global
        /// detector lock.
        static SEEN: RefCell<std::collections::HashSet<(u64, u64)>> =
            RefCell::new(std::collections::HashSet::new());
    }

    /// Records `held → acquiring` edges for a blocking acquisition that
    /// is about to happen, and checks each new edge for a cycle.
    pub(crate) fn on_acquire_attempt(
        id: u64,
        name: &'static str,
        site: &'static Location<'static>,
    ) {
        let _ = HELD.try_with(|h| {
            let held: Vec<Held> = {
                let held = h.borrow();
                if held.is_empty() {
                    return;
                }
                held.iter().copied().filter(|e| e.id != id).collect()
            };
            for entry in held {
                let novel = SEEN
                    .try_with(|s| s.borrow_mut().insert((entry.id, id)))
                    .unwrap_or(true);
                if !novel {
                    continue;
                }
                record_edge(entry, id, name, site);
            }
        });
    }

    fn record_edge(
        held: Held,
        to: u64,
        to_name: &'static str,
        to_site: &'static Location<'static>,
    ) {
        let report = {
            let mut st = lock_state();
            if st.graph.has_edge(held.id, to) {
                None
            } else {
                let cycle = st.graph.cycle_on_add(held.id, to);
                let sites = EdgeSites {
                    held_name: held.name,
                    held_site: held.site,
                    acquiring_name: to_name,
                    acquiring_site: to_site,
                };
                // Record the edge even when it closes a cycle: the
                // inversion is reported once, not on every later
                // traversal of the same pair.
                st.graph.add_edge(held.id, to);
                st.sites.insert((held.id, to), sites);
                cycle.map(|path| {
                    // `path` is the return path `to → … → held.id`; the
                    // closing edge comes first in the report.
                    let mut edges = vec![sites.to_report_edge()];
                    for pair in path.windows(2) {
                        if let Some(s) = st.sites.get(&(pair[0], pair[1])) {
                            edges.push(s.to_report_edge());
                        }
                    }
                    let report = CycleReport { edges };
                    st.reports.push(report.clone());
                    report
                })
            }
        };
        if let Some(report) = report {
            if ABORT_ON_CYCLE.load(Ordering::Relaxed) {
                // crac-lint: allow(no-unwrap) — the detector's whole job is to fail the run loudly
                panic!("crac-sync: {report}");
            }
        }
    }

    /// Pushes the acquired lock onto the thread's held stack.
    pub(crate) fn on_acquired(id: u64, name: &'static str, site: &'static Location<'static>) {
        let _ = HELD.try_with(|h| h.borrow_mut().push(Held { id, name, site }));
    }

    /// Removes the most recent occurrence of `id` from the held stack
    /// (guards may be dropped in any order, not just LIFO).
    pub(crate) fn on_release(id: u64) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|e| e.id == id) {
                held.remove(pos);
            }
        });
    }

    pub(crate) fn set_abort_on_cycle(on: bool) {
        ABORT_ON_CYCLE.store(on, Ordering::Relaxed);
    }

    pub(crate) fn take_cycle_reports() -> Vec<CycleReport> {
        std::mem::take(&mut lock_state().reports)
    }
}

#[cfg(any(debug_assertions, feature = "lock-graph"))]
pub(crate) use imp::{next_lock_id, on_acquire_attempt, on_acquired, on_release};

/// When `true` (the default), a detected lock-order cycle panics on the
/// acquiring thread so the run fails at the exact inversion site.  When
/// `false`, reports queue for [`take_cycle_reports`] instead — used by
/// the detector's own tests.  No-op in passthrough builds.
pub fn set_abort_on_cycle(on: bool) {
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    imp::set_abort_on_cycle(on);
    #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
    let _ = on;
}

/// Drains the queued cycle reports (empty unless [`set_abort_on_cycle`]
/// disabled the default panic, or a panic was caught). Always empty in
/// passthrough builds.
pub fn take_cycle_reports() -> Vec<CycleReport> {
    #[cfg(any(debug_assertions, feature = "lock-graph"))]
    {
        imp::take_cycle_reports()
    }
    #[cfg(not(any(debug_assertions, feature = "lock-graph")))]
    {
        Vec::new()
    }
}
