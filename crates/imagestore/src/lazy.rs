//! Lazy first-touch restore: resume in O(working set), fault pages in
//! from the store or the wire.
//!
//! The eager restore pipeline ([`crate::reader`]) splices every page of
//! the image before the process resumes, so restart latency is O(image).
//! This module inverts it into a demand-paging path (the CRUM trick):
//!
//! ```text
//!            declare (metadata only)            resume ──► app runs
//! manifest ──► map regions, mark pages absent ──►│
//!                                                │ first touch of an
//!                                                │ absent page
//!                                                ▼
//!                        ┌──────── fault: priority queue ────────┐
//!   background prefetch  │  faulted chunks preempt the sweep;    │
//!   sweep (all workers) ─┤  chunk-level dedup — a chunk is       ├─► verify ─► install
//!                        │  fetched once, fault or prefetch      │
//!                        └──────────────────────────────────────-┘
//! ```
//!
//! A [`LazyRestoreSession`] is the long-lived owner of the fetch plan the
//! eager path would drain in one shot ([`crate::reader::build_fetch_plan`]
//! builds it for both).  Its workers run a **two-priority queue**: chunks
//! a page fault is blocked on jump ahead of a background prefetch sweep
//! that fills in the rest of the plan — the restore completes even if the
//! application never touches everything.  A chunk is fetched **once**, no
//! matter how many faults and the prefetcher race for it (states
//! `NotStarted → Queued/Fetching → Done`; late arrivals wait on the
//! in-flight fetch).  A verified chunk installs *all* the pages it covers
//! ([`crac_addrspace::AddressSpace::install_resident`]), so one fault
//! typically makes a whole chunk's worth of neighbours resident.
//!
//! A session is built from an opened [`StreamReader`]
//! ([`LazyRestoreSession::open`]), so it is source-agnostic exactly like
//! the eager pipeline: the same `fetch_chunk` serves the local store and
//! a remote transport, and the fault path asks for the *priority* lane so
//! a pooled TCP transport can route it past the prefetcher's saturated
//! connections.
//!
//! **Failure semantics** mirror the eager pipeline: transient fetch
//! failures retry with capped exponential backoff
//! ([`crate::transport::MAX_TRANSIENT_RETRIES`]); the first permanent
//! failure is latched, workers shut down, and every access blocked in a
//! fault surfaces [`MemError::NotResident`] — the process's restore
//! source is gone and [`LazyRestoreSession::drain`] reports why.

use crac_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crac_addrspace::{Addr, MemError, PageFaultHandler, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{Coordinator, LazyDeclaration, RegionDescriptor, RestartStats};
use crac_obs::{Buckets, EventKind, Histogram};

use crate::error::StoreError;
use crate::format::CHUNK_HEADER_LEN;
use crate::pipeline::{effective_threads, Gauge};
use crate::reader::{
    build_fetch_plan, fetch_chunk, FetchPlan, ImageSource, ReadStats, ReaderObs, StreamReader,
};
use crate::transport::{with_transient_retry, RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP};

/// The error for an image whose skeleton the address space refused: the
/// manifest validated, yet its regions do not fit — a corrupt image as far
/// as this process is concerned.
pub(crate) fn unmappable(label: &Path, e: MemError) -> StoreError {
    StoreError::corrupt(
        label,
        format!("image does not map into the address space: {e}"),
    )
}

/// Background-prefetch progress events are emitted every this many
/// swept chunks (plus one final event), so a large image cannot flood
/// the bounded event ring with per-chunk noise.
const PREFETCH_EVENT_EVERY: u64 = 16;

/// What one lazy restore did, beyond the [`ReadStats`] I/O accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyRestoreStats {
    /// Declare→resume latency in microseconds: the time from entering
    /// [`LazyRestoreSession::attach`] to the process being resumable —
    /// the headline number lazy restore exists to shrink.
    pub resume_us: u64,
    /// Chunks that had been fetched when the process resumed.  `0` is the
    /// lazy guarantee: resume happened before any page bytes moved.
    pub chunks_at_resume: u64,
    /// First-touch faults serviced (each blocked an application access).
    pub faults_served: u64,
    /// Chunks fetched through the priority (fault) path.
    pub chunks_faulted: u64,
    /// Chunks fetched by the background prefetch sweep.
    pub chunks_prefetched: u64,
    /// Pages made resident by chunk installation (pages of regions the
    /// application unmapped mid-restore are skipped, not counted).
    pub pages_installed: u64,
    /// Distinct chunks in the fetch plan (faulted + prefetched when the
    /// drain completed).
    pub chunks_total: usize,
}

/// Fetch lifecycle of one plan entry.  The single-owner transitions are
/// what make chunk-level dedup hold: only `NotStarted → Queued` (a fault)
/// and `NotStarted`/`Queued` `→ Fetching` (a worker claiming it) exist,
/// so a chunk is fetched at most once no matter how the fault path and
/// the prefetch sweep race.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Not requested yet; the prefetch sweep will reach it.
    NotStarted,
    /// A fault put it on the priority queue; no worker holds it yet.
    Queued,
    /// A worker is fetching it; faulters wait for the broadcast.
    Fetching,
    /// Verified and installed; waiters proceed.
    Done,
}

/// The mutable heart of the session, guarded by one mutex + condvar.
struct LazyQueue {
    state: Vec<ChunkState>,
    /// Fault-requested chunk indices, FIFO.  Workers drain this before
    /// touching the sweep.
    priority: VecDeque<usize>,
    /// Next candidate of the background sweep (monotone cursor over the
    /// plan; skips chunks the fault path already claimed).
    sweep: usize,
    /// Chunks in `Done`.
    done: usize,
    /// Latched on first error (or abort): workers exit, faulters fail.
    shutdown: bool,
}

/// Everything the fault handler, the workers and the session share.
/// Fully owned (`'static`), so the handler can live inside the address
/// space while the session's borrows stay outside.
struct LazyShared {
    /// Set at [`LazyRestoreSession::attach`] — the space does not exist
    /// before the coordinator maps it.
    space: OnceLock<SharedSpace>,
    /// Region start addresses in manifest order (install targets).
    region_starts: Vec<u64>,
    plan: Vec<FetchPlan>,
    /// Every winning run of the plan as `(start address, pages, plan
    /// index)`, sorted by address.  Runs are disjoint (one winner per page,
    /// regions validated non-overlapping), so one table answers both "which
    /// pages are absent" and "which chunk is a faulting page blocked on".
    runs: Vec<(u64, u64, usize)>,
    queue: Mutex<LazyQueue>,
    cv: Condvar,
    error: Mutex<Option<StoreError>>,
    gauge: Gauge,
    obs: ReaderObs,
    fault_us: Histogram,
    retries: AtomicUsize,
    faults_served: AtomicU64,
    chunks_faulted: AtomicU64,
    chunks_prefetched: AtomicU64,
    pages_installed: AtomicU64,
}

impl LazyShared {
    fn q(&self) -> MutexGuard<'_, LazyQueue> {
        self.queue.lock()
    }

    /// The plan entry owning the page containing `addr`, if any.
    fn resolve(&self, addr: Addr) -> Option<usize> {
        let a = addr.as_u64();
        let i = self.runs.partition_point(|&(start, _, _)| start <= a);
        let &(start, pages, idx) = self.runs.get(i.checked_sub(1)?)?;
        (a < start + pages * PAGE_SIZE).then_some(idx)
    }

    /// Blocks until chunk `idx` is `Done`, queueing it at priority if
    /// nobody has requested it yet.  `Err` means the session shut down
    /// (error latched or aborted) before the chunk materialised.
    fn wait_for_chunk(&self, idx: usize) -> Result<(), ()> {
        let mut q = self.q();
        loop {
            match q.state[idx] {
                ChunkState::Done => return Ok(()),
                ChunkState::NotStarted => {
                    q.state[idx] = ChunkState::Queued;
                    q.priority.push_back(idx);
                    self.chunks_faulted.fetch_add(1, Ordering::Relaxed);
                    self.cv.notify_all();
                }
                ChunkState::Queued | ChunkState::Fetching => {}
            }
            if q.shutdown {
                return Err(());
            }
            q = self.cv.wait(q);
        }
    }

    /// One fetch worker: drain the priority queue, else advance the
    /// background sweep, else wait; exit when the plan is done or the
    /// session shut down.
    fn worker(&self, source: ImageSource<'_>, label: &Path) {
        let retry_obs = self.obs.retry("fetch_chunk");
        loop {
            let (idx, prio) = {
                let mut q = self.q();
                loop {
                    if q.shutdown {
                        return;
                    }
                    if let Some(i) = q.priority.pop_front() {
                        q.state[i] = ChunkState::Fetching;
                        break (i, true);
                    }
                    while q.sweep < q.state.len() && q.state[q.sweep] != ChunkState::NotStarted {
                        q.sweep += 1;
                    }
                    if q.sweep < q.state.len() {
                        let i = q.sweep;
                        q.state[i] = ChunkState::Fetching;
                        q.sweep += 1;
                        break (i, false);
                    }
                    if q.done == q.state.len() {
                        return;
                    }
                    q = self.cv.wait(q);
                }
            };
            let entry = &self.plan[idx];
            // Same bounded retry + backoff as the eager pipeline; the
            // shutdown latch doubles as the cancellation probe so one
            // failure stops every other worker's retry loop promptly.
            let fetched = with_transient_retry(
                &self.retries,
                || self.q().shutdown,
                RETRY_BACKOFF_BASE,
                RETRY_BACKOFF_CAP,
                Some(&retry_obs),
                || fetch_chunk(source, label, entry, prio, &self.gauge, &self.obs),
            );
            let file = match fetched {
                Ok(file) => file,
                Err(e) => return self.fail(e),
            };
            let wire_bytes = file.len() as u64;
            let installed = self.install(entry, &file[CHUNK_HEADER_LEN..]);
            drop(file);
            self.gauge.sub(wire_bytes);
            let pages = match installed {
                Ok(p) => p,
                Err(e) => return self.fail(e),
            };
            self.pages_installed.fetch_add(pages, Ordering::Relaxed);
            self.obs.run.gauge("crac_lazy_pages_resident").add(pages);
            self.obs.chunks_read.inc();
            self.obs.chunk_bytes_read.add(wire_bytes);
            let all_done = {
                let mut q = self.q();
                q.state[idx] = ChunkState::Done;
                q.done += 1;
                q.done == q.state.len()
            };
            if !prio {
                let swept = self.chunks_prefetched.fetch_add(1, Ordering::Relaxed) + 1;
                self.obs.run.gauge("crac_lazy_chunks_prefetched").add(1);
                if swept.is_multiple_of(PREFETCH_EVENT_EVERY) || all_done {
                    self.obs.events.event(
                        EventKind::PrefetchRound,
                        format!(
                            "prefetched={swept} faulted={} done={} total={} pages_resident={}",
                            self.chunks_faulted.load(Ordering::Relaxed),
                            self.q().done,
                            self.plan.len(),
                            self.pages_installed.load(Ordering::Relaxed),
                        ),
                    );
                }
            }
            self.cv.notify_all();
        }
    }

    /// Splices one verified chunk: every page it covers, in every target
    /// region, becomes resident (pages of since-unmapped regions are
    /// skipped — their content is dead).  Returns pages installed.
    fn install(&self, entry: &FetchPlan, raw: &[u8]) -> Result<u64, StoreError> {
        let space = self
            .space
            .get()
            // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
            .expect("workers spawn only after attach set the space");
        let mut pages = 0u64;
        for (region, pieces) in &entry.targets {
            let start = self.region_starts[*region];
            for (run, offset) in pieces {
                let addr = Addr(start + run.first * PAGE_SIZE);
                let len = (run.count * PAGE_SIZE) as usize;
                // Copy the pages, and fault their memory in, before taking
                // the lock the application's own accesses wait on.
                let copies: Vec<Arc<[u8]>> = raw[*offset..*offset + len]
                    .chunks_exact(PAGE_SIZE as usize)
                    .map(Arc::from)
                    .collect();
                pages += space
                    .with_mut(|s| s.install_pages(addr, &copies))
                    .map_err(|e| {
                        StoreError::protocol(format!("lazy install failed at {addr}: {e}"))
                    })?;
            }
        }
        Ok(pages)
    }

    /// Latches the first error and shuts the session down: workers exit,
    /// blocked faulters wake and fail with [`MemError::NotResident`].
    fn fail(&self, e: StoreError) {
        {
            let mut err = self.error.lock();
            if err.is_none() {
                *err = Some(e);
            }
        }
        self.q().shutdown = true;
        self.cv.notify_all();
    }
}

/// The [`PageFaultHandler`] a lazy restore installs: resolves the
/// faulting address to its winning chunk, queues that chunk at priority,
/// and blocks until its pages are resident.
struct LazyFaultHandler {
    shared: Arc<LazyShared>,
}

impl PageFaultHandler for LazyFaultHandler {
    fn fault(&self, addr: Addr) -> Result<(), MemError> {
        // crac-lint: allow(raw-instant) — failed faults must not pollute the latency histogram, so the span is manual
        let t0 = Instant::now();
        // A page with no plan owner should never be absent (only planned
        // pages are declared absent); surfacing NotResident keeps a
        // bookkeeping bug loud instead of spinning the retry loop.
        let Some(idx) = self.shared.resolve(addr) else {
            return Err(MemError::NotResident(addr));
        };
        if self.shared.wait_for_chunk(idx).is_err() {
            return Err(MemError::NotResident(addr));
        }
        let us = t0.elapsed().as_micros() as u64;
        self.shared.fault_us.observe(us);
        self.shared.faults_served.fetch_add(1, Ordering::Relaxed);
        self.shared.obs.events.event(
            EventKind::FaultServed,
            format!(
                "addr={addr} chunk={} service_us={us}",
                self.shared.plan[idx].hash
            ),
        );
        Ok(())
    }
}

/// A long-lived demand-paging restore session: the lazy counterpart of
/// driving a [`crate::stream::ChunkSource`] to completion.
///
/// Lifecycle:
///
/// 1. [`open`](LazyRestoreSession::open) — from an opened reader
///    (manifest only, no chunk is touched); validate the manifest, build
///    the fetch plan and the absent-page declaration.
/// 2. [`attach`](LazyRestoreSession::attach) — the coordinator maps the
///    skeleton, declares pages absent, installs the fault handler: the
///    process is resumable *now*.
/// 3. [`spawn_workers`](LazyRestoreSession::spawn_workers) — start the
///    fault-service/prefetch workers on a caller-owned scope.
/// 4. The application runs; first touches fault chunks in at priority
///    while the sweep prefetches the rest.
/// 5. [`drain`](LazyRestoreSession::drain) — block until the whole plan
///    is resident (or the latched error surfaces);
///    [`finish`](LazyRestoreSession::finish) yields the stats.
pub struct LazyRestoreSession<'a> {
    shared: Arc<LazyShared>,
    source: ImageSource<'a>,
    label: PathBuf,
    threads: usize,
    declaration: LazyDeclaration,
    started: Instant,
    resume_latency: Histogram,
    resume_us: AtomicU64,
    chunks_at_resume: AtomicU64,
}

impl<'a> LazyRestoreSession<'a> {
    /// Turns an opened reader into a lazy session: region descriptors,
    /// payloads and the timestamp are available immediately, no chunk is
    /// read.  Fails with [`StoreError::Corrupt`] if the manifest does not
    /// validate.
    pub fn open(reader: StreamReader<'a>) -> Result<Self, StoreError> {
        let StreamReader {
            source,
            manifest,
            label,
            obs,
            ..
        } = reader;
        let (plan, refs_total) = build_fetch_plan(&manifest, &label)?;
        obs.run
            .counter("crac_reader_chunks_cached")
            .add((refs_total - plan.len()) as u64);

        // Region skeleton, plus which pages of each region have image
        // content coming.  Pages with no winner (never dirtied) are left
        // resident: the sparse page store restores them as zeros for free.
        let region_starts: Vec<u64> = manifest.regions.iter().map(|r| r.start).collect();
        let regions = manifest.regions.iter().map(|r| RegionDescriptor {
            start: Addr(r.start),
            len: r.len,
            prot: r.prot,
            label: r.label.clone(),
        });
        let mut runs: Vec<(u64, u64, usize)> = Vec::new();
        for (idx, entry) in plan.iter().enumerate() {
            for (region, pieces) in &entry.targets {
                for (run, _) in pieces {
                    let start = region_starts[*region] + run.first * PAGE_SIZE;
                    runs.push((start, run.count, idx));
                }
            }
        }
        runs.sort_unstable_by_key(|&(start, _, _)| start);
        // The absent declaration is the table with neighbours coalesced.
        let mut absent: Vec<(Addr, u64)> = Vec::new();
        for &(start, pages, _) in &runs {
            match absent.last_mut() {
                Some((s, n)) if s.as_u64() + *n * PAGE_SIZE == start => *n += pages,
                _ => absent.push((Addr(start), pages)),
            }
        }
        let declaration = LazyDeclaration {
            regions: regions.collect(),
            absent,
            payloads: manifest.payloads.clone(),
        };

        let threads = effective_threads(0, plan.len());
        obs.run.gauge("crac_reader_threads").set(threads as u64);
        let fault_us = obs
            .events
            .histogram("crac_fault_service_us", Buckets::LATENCY_US);
        let resume_latency = obs
            .events
            .histogram("crac_restore_resume_latency_us", Buckets::LATENCY_US);
        let state = vec![ChunkState::NotStarted; plan.len()];
        Ok(Self {
            shared: Arc::new(LazyShared {
                space: OnceLock::new(),
                region_starts,
                plan,
                runs,
                queue: Mutex::new(
                    "imagestore.lazy.queue",
                    LazyQueue {
                        state,
                        priority: VecDeque::new(),
                        sweep: 0,
                        done: 0,
                        shutdown: false,
                    },
                ),
                cv: Condvar::new(),
                error: Mutex::new("imagestore.lazy.error", None),
                gauge: Gauge::default(),
                obs,
                fault_us,
                retries: AtomicUsize::new(0),
                faults_served: AtomicU64::new(0),
                chunks_faulted: AtomicU64::new(0),
                chunks_prefetched: AtomicU64::new(0),
                pages_installed: AtomicU64::new(0),
            }),
            source,
            label,
            threads,
            declaration,
            // crac-lint: allow(raw-instant) — wall-clock anchor for session stats, not a stage timing
            started: Instant::now(),
            resume_latency,
            resume_us: AtomicU64::new(0),
            chunks_at_resume: AtomicU64::new(0),
        })
    }

    /// Maps the checkpoint's skeleton into `space`, declares the planned
    /// pages absent, installs the fault handler and fires the plugins'
    /// restart hooks (through [`Coordinator::restart_lazy`]) — metadata
    /// only, **no page bytes move**.  The process is resumable the moment
    /// this returns; call [`spawn_workers`](Self::spawn_workers) next so
    /// faults (and the prefetch sweep) get serviced.
    ///
    /// Fails with [`StoreError::Corrupt`] — no handler installed, no hook
    /// fired — if the address space refuses the image's skeleton.
    pub fn attach(
        &self,
        coordinator: &Coordinator,
        space: &SharedSpace,
    ) -> Result<RestartStats, StoreError> {
        // crac-lint: allow(raw-instant) — resume latency lands in RestartStats, not an obs histogram
        let t0 = Instant::now();
        self.shared
            .space
            .set(space.clone())
            // crac-lint: allow(no-unwrap) — attach-twice is a caller contract violation; failing loudly is the design
            .unwrap_or_else(|_| panic!("attach called twice"));
        let handler: Arc<dyn PageFaultHandler> = Arc::new(LazyFaultHandler {
            shared: Arc::clone(&self.shared),
        });
        let stats = coordinator
            .restart_lazy(space, &self.declaration, handler)
            .map_err(|e| unmappable(&self.label, e))?;
        let us = t0.elapsed().as_micros() as u64;
        self.resume_us.store(us, Ordering::Relaxed);
        self.resume_latency.observe(us);
        self.chunks_at_resume
            .store(self.shared.obs.chunks_read.get(), Ordering::Relaxed);
        self.shared.obs.events.event(
            EventKind::RestoreBegun,
            format!(
                "lazy regions={} chunks={} resume_us={us}",
                self.declaration.regions.len(),
                self.shared.plan.len()
            ),
        );
        Ok(stats)
    }

    /// Spawns the fetch workers onto a caller-owned thread scope.  Must
    /// run after [`attach`](Self::attach) (workers install into the
    /// attached space) and before the application touches absent pages
    /// from threads outside the scope.
    pub fn spawn_workers<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
    ) {
        for _ in 0..self.threads {
            let shared: &LazyShared = &self.shared;
            scope.spawn(move || shared.worker(self.source, &self.label));
        }
    }

    /// Blocks until every chunk of the plan is resident — the lazy
    /// restore is then complete whether or not the application touched
    /// everything — or until a latched failure surfaces.
    pub fn drain(&self) -> Result<(), StoreError> {
        let mut q = self.shared.q();
        while !q.shutdown && q.done < q.state.len() {
            q = self.shared.cv.wait(q);
        }
        drop(q);
        match self.shared.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Shuts the session down without waiting: workers exit, blocked
    /// faulters fail.  Used when the surrounding restart aborts.
    pub fn abort(&self) {
        self.shared.q().shutdown = true;
        self.shared.cv.notify_all();
    }

    /// Ends the session, folding its metrics into the long-lived
    /// registry; returns the I/O accounting plus the lazy-specific stats.
    pub fn finish(self) -> (ReadStats, LazyRestoreStats) {
        self.shared
            .obs
            .run
            .counter("crac_reader_transient_retries")
            .add(self.shared.retries.load(Ordering::Relaxed) as u64);
        let mut stats = self.shared.obs.finish_stats(self.started.elapsed());
        stats.resume_us = self.resume_us.load(Ordering::Relaxed);
        let lazy = LazyRestoreStats {
            resume_us: stats.resume_us,
            chunks_at_resume: self.chunks_at_resume.load(Ordering::Relaxed),
            faults_served: self.shared.faults_served.load(Ordering::Relaxed),
            chunks_faulted: self.shared.chunks_faulted.load(Ordering::Relaxed),
            chunks_prefetched: self.shared.chunks_prefetched.load(Ordering::Relaxed),
            pages_installed: self.shared.pages_installed.load(Ordering::Relaxed),
            chunks_total: self.shared.plan.len(),
        };
        self.shared.obs.events.event(
            EventKind::RestoreFinished,
            format!(
                "lazy ok={} chunks_faulted={} chunks_prefetched={} faults_served={} resume_us={}",
                lazy.chunks_faulted + lazy.chunks_prefetched >= lazy.chunks_total as u64,
                lazy.chunks_faulted,
                lazy.chunks_prefetched,
                lazy.faults_served,
                lazy.resume_us
            ),
        );
        (stats, lazy)
    }
}
