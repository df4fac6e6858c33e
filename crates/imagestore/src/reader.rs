//! The restore-side reader: manifest → parallel chunk fetch/verify →
//! streaming splice, the mirror image of the writer pipeline.
//!
//! ```text
//! fetch workers (threads)               splice (caller thread)
//! ───────────────────────               ──────────────────────
//! read ─► CRC ─► hash-verify ─► [verified q] ─► RegionSink
//!                               bounded
//! ```
//!
//! Every byte read is integrity-checked: the manifest is CRC-framed, each
//! chunk file carries its own CRC over its header and raw payload, and the
//! payload's content hash is recomputed and compared against the name the
//! manifest references — so a flipped bit anywhere in the store surfaces as
//! a [`StoreError::Corrupt`] instead of silently restoring wrong memory.
//! Both checks read the payload where it lies in the fetched buffer, and
//! the splice copies from that same buffer: one copy per restored byte.
//!
//! Fetching is the expensive part (file read + CRC + re-hash per chunk),
//! and chunks are independent, so [`StreamReader`] fans the
//! manifest's *distinct* chunk list out over worker threads; verified
//! chunks flow through a **bounded** queue to the caller's thread, which
//! splices each chunk's page runs into the [`RegionSink`] **as the chunk
//! arrives** — no barrier, no full in-memory image.  A chunk the manifest
//! references many times (deduped repeats) is fetched once and applied to
//! every reference while it is in hand, then dropped.
//!
//! There is **one** reader.  Where the bytes come from is a value —
//! [`ImageSource`]: the chunk directory of a local [`ImageStore`] or the
//! replies of a peer behind a [`Transport`] — consulted in exactly two
//! places: fetching the manifest when the reader opens and fetching one
//! chunk file's bytes (normal or priority lane).  Everything above that —
//! manifest validation, the fetch plan, the verification ladder, the
//! worker/splice pipeline, the lazy session built from an opened reader
//! ([`crate::lazy::LazyRestoreSession::open`]) — is one code path with one
//! bounded-memory proof, and a peer's bytes get exactly the scrutiny a
//! local file's do (plus bounded retry on transient transport faults).
//!
//! Because the queue is bounded and each worker holds at most one chunk,
//! the peak payload the restore ever buffers is a small multiple of the
//! chunk size — *independent of the image size*
//! ([`ReadStats::peak_buffered_bytes`] ≤ [`restore_buffer_bound`]), the
//! restore-side mirror of the writer's guarantee.
//!
//! **Failure semantics**: a worker whose fetch fails *transiently* (a
//! remote timeout, an injected fault — [`StoreError::is_transient`])
//! retries the same chunk a bounded number of times
//! ([`crate::transport::MAX_TRANSIENT_RETRIES`]) before giving up; a
//! permanent failure — corruption above all — is never retried.  The first
//! unrecovered error (a worker's fetch failing for good, the sink
//! rejecting a record) is latched; workers switch to draining so no
//! thread blocks forever, and the latched error is returned once the
//! pipeline has shut down.  A failed streaming restore leaves the sink
//! half-fed — its owner must discard whatever it was building.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_addrspace::space::{SPACE_END, UPPER_BASE};
use crac_addrspace::{Addr, PageRun, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, RegionDescriptor};
use crac_obs::{Buckets, Counter, EventKind, Histogram, ObsRegistry, Span};

use crate::chunk::CHUNK_PAGES;
use crate::error::StoreError;
use crate::format::{parse_chunk, Manifest, CHUNK_HEADER_LEN};
use crate::hash::ContentHash;
use crate::pipeline::{effective_threads, latch, ErrorSlot, Gauge};
use crate::store::{ImageId, ImageStore};
use crate::stream::{ChunkSource, MaterialiseSink, RegionSink};
use crate::transport::{
    with_transient_retry, RetryObs, Transport, RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP,
};

/// Verified chunks the queue holds while the splice consumer is busy
/// (backpressure depth between the fetch workers and the splice).
pub const VERIFY_QUEUE_CHUNKS: usize = 4;

/// Analytic upper bound on [`ReadStats::peak_buffered_bytes`] for a
/// restore that used `threads` fetch workers.
///
/// A chunk is one buffer from fetch to splice: the chunk file as fetched,
/// its raw payload at a fixed [`CHUNK_HEADER_LEN`]-byte offset.  Each
/// worker holds at most one (the file it is verifying), each
/// verified-queue entry holds one, and the splice consumer holds one
/// while applying its runs.
pub fn restore_buffer_bound(threads: usize) -> u64 {
    let slots = threads + VERIFY_QUEUE_CHUNKS + 1;
    slots as u64 * (CHUNK_PAGES * PAGE_SIZE + CHUNK_HEADER_LEN as u64)
}

/// What one image read cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStats {
    /// Chunk files read (each distinct chunk is read exactly once).
    pub chunks_read: usize,
    /// Chunk references served from an already-fetched chunk (an image
    /// that contains the same content many times reads it once).
    pub chunks_cached: usize,
    /// Chunk-file bytes read from disk (or received over the
    /// transport, for a remote restore).
    pub chunk_bytes_read: u64,
    /// Manifest file size.
    pub manifest_bytes: u64,
    /// Worker threads used for fetching/verifying chunks.
    pub threads_used: usize,
    /// Transient fetch failures that were absorbed by the bounded retry
    /// (zero on a healthy local restore; the fault-injection tests prove
    /// the recovery path with it).
    pub transient_retries: usize,
    /// Peak bytes the restore pipeline held at any instant: each worker's
    /// in-flight chunk file, the verified queue, and the chunk being
    /// spliced.  Bounded by [`restore_buffer_bound`],
    /// *not* by the image size — the proof that the streaming restore
    /// never materialises the image.
    pub peak_buffered_bytes: u64,
    /// Wall-clock time until the restored process could resume, in
    /// microseconds.  For the eager paths this equals the full restore
    /// (`elapsed`) — the process only runs once every page landed; a lazy
    /// restore resumes after the metadata-only declaration, so the two
    /// paths' resume latency is comparable from one snapshot.
    pub resume_us: u64,
    /// Wall-clock time of the whole read.
    pub elapsed: Duration,
}

/// Per-restore observability bundle shared by the eager pipeline and the
/// lazy session: a fresh per-run registry whose counters/histograms *are* the authoritative
/// accounting — [`ReadStats`] is built as a view over its final snapshot,
/// so there is no double bookkeeping — plus the long-lived registry that
/// receives events and retry metrics immediately (mid-run visibility).
pub(crate) struct ReaderObs {
    /// Per-run metric namespace; folded into `events` when the run ends.
    pub(crate) run: ObsRegistry,
    /// The long-lived registry handed to [`StreamReader::open`]:
    /// structured events and retry accounting land here
    /// directly, visible while the restore is still in flight.
    pub(crate) events: ObsRegistry,
    pub(crate) stage_fetch: Histogram,
    pub(crate) stage_verify: Histogram,
    pub(crate) stage_splice: Histogram,
    pub(crate) chunks_read: Counter,
    pub(crate) chunk_bytes_read: Counter,
}

impl ReaderObs {
    pub(crate) fn new(events: ObsRegistry) -> Self {
        let run = ObsRegistry::new();
        Self {
            stage_fetch: run.histogram("crac_reader_stage_fetch_us", Buckets::LATENCY_US),
            stage_verify: run.histogram("crac_reader_stage_verify_us", Buckets::LATENCY_US),
            stage_splice: run.histogram("crac_reader_stage_splice_us", Buckets::LATENCY_US),
            chunks_read: run.counter("crac_reader_chunks_read"),
            chunk_bytes_read: run.counter("crac_reader_chunk_bytes_read"),
            run,
            events,
        }
    }

    /// Retry observation for one transport/store operation: cause and
    /// backoff land on the long-lived registry as they happen.
    pub(crate) fn retry(&self, op: &'static str) -> RetryObs {
        RetryObs {
            reg: self.events.clone(),
            op,
        }
    }

    /// Ends the run: folds the run registry into the long-lived one and
    /// returns [`ReadStats`] as a view over the run's final snapshot.
    pub(crate) fn finish_stats(&self, elapsed: Duration) -> ReadStats {
        let snap = self.run.snapshot();
        self.events.absorb(&snap);
        ReadStats {
            chunks_read: snap.counter("crac_reader_chunks_read") as usize,
            chunks_cached: snap.counter("crac_reader_chunks_cached") as usize,
            chunk_bytes_read: snap.counter("crac_reader_chunk_bytes_read"),
            manifest_bytes: snap.counter("crac_reader_manifest_bytes"),
            threads_used: snap
                .gauge("crac_reader_threads")
                .map(|g| g.value as usize)
                .unwrap_or(0),
            transient_retries: snap.counter("crac_reader_transient_retries") as usize,
            peak_buffered_bytes: snap
                .gauge("crac_reader_buffered_bytes")
                .map(|g| g.peak)
                .unwrap_or(0),
            // Eager restores resume only when everything landed; the lazy
            // session overwrites this with its declare→resume latency.
            resume_us: elapsed.as_micros() as u64,
            elapsed,
        }
    }
}

/// Where a stored image's bytes come from: the one thing a restore knows
/// about *location*.
#[derive(Clone, Copy)]
pub enum ImageSource<'a> {
    /// The chunk directory of a local store.
    Store(&'a ImageStore),
    /// A peer behind a transport; first-touch faults of a lazy restore
    /// ride its priority lane ([`Transport::get_chunk_priority`]).
    Peer(&'a dyn Transport),
}

impl ImageSource<'_> {
    /// Verbatim manifest bytes of image `id`.
    fn manifest_bytes(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        match self {
            ImageSource::Store(store) => store.read_manifest_bytes(id),
            ImageSource::Peer(transport) => transport.get_manifest(id),
        }
    }

    /// Verbatim chunk-file bytes of chunk `hash`.  `priority` marks a
    /// fetch the restarted process is blocked on; a local read has nothing
    /// to jump.
    fn chunk_file_bytes(&self, hash: ContentHash, priority: bool) -> Result<Vec<u8>, StoreError> {
        match self {
            ImageSource::Store(store) => store.read_chunk_file_bytes(hash),
            ImageSource::Peer(transport) if priority => transport.get_chunk_priority(hash),
            ImageSource::Peer(transport) => transport.get_chunk(hash),
        }
    }

    /// What corruption errors name as the origin of image `id`: the
    /// manifest's path, or a synthetic `remote:` one.
    fn label(&self, id: ImageId) -> PathBuf {
        match self {
            ImageSource::Store(store) => store.image_path(id),
            ImageSource::Peer(_) => PathBuf::from(format!("remote:{id}")),
        }
    }
}

/// The streaming image reader: the canonical [`ChunkSource`], over a local
/// store or a peer alike.
///
/// Obtain one through [`ImageStore::stream_restore`] or
/// [`StreamReader::open`]; opening fetches and CRC-verifies the manifest
/// (metadata only — no chunk is touched), so region descriptors, payloads
/// and the checkpoint timestamp are available before any content streams.
/// Drive the content with [`ChunkSource::stream_out`] and collect
/// [`StreamReader::stats`], or hand the reader to
/// [`crate::lazy::LazyRestoreSession::open`] for a demand-paged restore.
pub struct StreamReader<'a> {
    pub(crate) source: ImageSource<'a>,
    pub(crate) manifest: Manifest,
    /// Names the image's origin in events and corruption errors.
    pub(crate) label: PathBuf,
    pub(crate) obs: ReaderObs,
    stats: ReadStats,
}

impl<'a> StreamReader<'a> {
    /// Opens image `id` of `source`, recording into `obs`: the restore's
    /// metrics are folded into it when the stream completes, and
    /// restore/retry events land on it live.  A local store adopts `obs`
    /// as its own registry, so every later operation on it is observed
    /// through the same handle.
    pub fn open(
        source: ImageSource<'a>,
        id: ImageId,
        obs: ObsRegistry,
    ) -> Result<Self, StoreError> {
        if let ImageSource::Store(store) = source {
            store.adopt_obs(obs.clone());
        }
        let obs = ReaderObs::new(obs);
        let retries = AtomicUsize::new(0);
        let retry = obs.retry("get_manifest");
        let bytes = with_transient_retry(
            &retries,
            || false,
            RETRY_BACKOFF_BASE,
            RETRY_BACKOFF_CAP,
            Some(&retry),
            || source.manifest_bytes(id),
        )?;
        let label = source.label(id);
        let manifest = Manifest::from_bytes(&bytes).map_err(|e| StoreError::manifest(&label, e))?;
        obs.run
            .counter("crac_reader_manifest_bytes")
            .add(bytes.len() as u64);
        obs.run
            .counter("crac_reader_transient_retries")
            .add(retries.load(Ordering::Relaxed) as u64);
        let stats = ReadStats {
            manifest_bytes: bytes.len() as u64,
            transient_retries: retries.load(Ordering::Relaxed),
            ..Default::default()
        };
        Ok(Self {
            source,
            manifest,
            label,
            obs,
            stats,
        })
    }

    /// Virtual time the stored checkpoint was taken.
    pub fn taken_at_ns(&self) -> u64 {
        self.manifest.taken_at_ns
    }

    /// A named plugin payload (inline manifest data, available without
    /// streaming any chunk).
    pub fn payload(&self, name: &str) -> Option<&[u8]> {
        self.manifest
            .payloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// Number of saved regions the image describes.
    pub fn region_count(&self) -> usize {
        self.manifest.regions.len()
    }

    /// What the read has cost so far (complete once
    /// [`ChunkSource::stream_out`] returned).
    pub fn stats(&self) -> ReadStats {
        self.stats
    }
}

/// One distinct chunk's fetch order: where its verified bytes go.
pub(crate) struct FetchPlan {
    pub(crate) hash: ContentHash,
    pub(crate) raw_len: u64,
    /// Every reference in the manifest that still wins pages after
    /// last-write-wins resolution: `(region index, winning sub-runs each
    /// paired with its byte offset into the chunk's raw bytes)`.
    pub(crate) targets: Vec<(usize, Vec<(PageRun, usize)>)>,
}

/// Declares every region and payload of `manifest` into `sink` — the
/// metadata prologue sent before any content, so the sink knows the full
/// image shape up front.
fn declare_manifest(manifest: &Manifest, sink: &mut dyn RegionSink) -> Result<(), StoreError> {
    for region in &manifest.regions {
        sink.declare_region(&RegionDescriptor {
            start: Addr(region.start),
            len: region.len,
            prot: region.prot,
            label: region.label.clone(),
        })?;
    }
    for (name, data) in &manifest.payloads {
        sink.push_payload(name, data)?;
    }
    Ok(())
}

/// Validates the region table of `manifest`: every region non-empty,
/// page-aligned, inside the upper half, and disjoint from every other.
///
/// A CRC proves a manifest is what its *sender* wrote, not that it is
/// sane — a peer serving `get_manifest` computes its own CRC.  Each of
/// these defects would otherwise reach `mmap(MAP_FIXED)` on the restore
/// path: the first three are refused there, but two overlapping regions
/// silently unmap one another and the survivor receives both regions'
/// pages.
fn validate_regions(manifest: &Manifest, label: &Path) -> Result<(), StoreError> {
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(manifest.regions.len());
    for region in &manifest.regions {
        let bad = |what: &str| {
            StoreError::corrupt(
                label,
                format!(
                    "region '{}' at {:#x}+{:#x} {what}",
                    region.label, region.start, region.len
                ),
            )
        };
        if region.len == 0 {
            return Err(bad("is empty"));
        }
        if !region.start.is_multiple_of(PAGE_SIZE) || !region.len.is_multiple_of(PAGE_SIZE) {
            return Err(bad("is not page-aligned"));
        }
        match region.start.checked_add(region.len) {
            Some(end) if region.start >= UPPER_BASE && end <= SPACE_END => {
                spans.push((region.start, end));
            }
            _ => return Err(bad("lies outside the upper half")),
        }
    }
    spans.sort_unstable();
    if let Some(pair) = spans.windows(2).find(|pair| pair[1].0 < pair[0].1) {
        return Err(StoreError::corrupt(
            label,
            format!("regions at {:#x} and {:#x} overlap", pair[0].0, pair[1].0),
        ));
    }
    Ok(())
}

/// Validates `manifest` — its region table, then every chunk reference —
/// and builds the fetch plan: one entry per *distinct* chunk, carrying
/// every place its pages land (repeats cost a plan target, never a second
/// fetch).  `label` names the manifest's origin in corruption errors — a
/// file path for a local image, a synthetic `remote:` path for a
/// transported one.
///
/// Returns the plan plus the total reference count (for the
/// [`ReadStats::chunks_cached`] accounting).
pub(crate) fn build_fetch_plan(
    manifest: &Manifest,
    label: &Path,
) -> Result<(Vec<FetchPlan>, usize), StoreError> {
    validate_regions(manifest, label)?;
    let mut by_hash: HashMap<ContentHash, usize> = HashMap::new();
    let mut plan: Vec<FetchPlan> = Vec::new();
    let mut refs_total = 0usize;
    for (region_idx, region) in manifest.regions.iter().enumerate() {
        let region_pages = region.len / PAGE_SIZE;
        // Validation pass, plus the last-write-wins winner map: a page a
        // pre-copy round re-emitted appears again in a *later* chunk entry
        // of the same region, and that later entry's content is the page's
        // content.  Entry order in the manifest is emission order, so the
        // highest-indexed entry covering a page wins it.
        let mut winner: HashMap<u64, usize> = HashMap::new();
        for (seq, chunk) in region.chunks.iter().enumerate() {
            refs_total += 1;
            // All arithmetic on manifest-supplied values is checked:
            // an overflow is corruption, not a wrap-around bypass.
            let chunk_pages = chunk
                .runs
                .iter()
                .try_fold(0u64, |acc, r| acc.checked_add(r.count));
            let chunk_bytes = chunk_pages.and_then(|p| p.checked_mul(PAGE_SIZE));
            let Some((chunk_pages, chunk_bytes)) = chunk_pages.zip(chunk_bytes) else {
                return Err(StoreError::corrupt(
                    label,
                    format!("chunk {} page counts overflow", chunk.hash),
                ));
            };
            if chunk_bytes != chunk.raw_len {
                return Err(StoreError::corrupt(
                    label,
                    format!(
                        "chunk {} covers {chunk_pages} pages but holds {} bytes",
                        chunk.hash, chunk.raw_len
                    ),
                ));
            }
            for run in &chunk.runs {
                if run.count > region_pages || run.first > region_pages - run.count {
                    return Err(StoreError::corrupt(
                        label,
                        format!(
                            "chunk {} run [{}+{}) exceeds its {region_pages}-page region",
                            chunk.hash, run.first, run.count
                        ),
                    ));
                }
                for page in run.pages() {
                    winner.insert(page, seq);
                }
            }
        }
        for (seq, chunk) in region.chunks.iter().enumerate() {
            let slot = *by_hash.entry(chunk.hash).or_insert_with(|| {
                plan.push(FetchPlan {
                    hash: chunk.hash,
                    raw_len: chunk.raw_len,
                    targets: Vec::new(),
                });
                plan.len() - 1
            });
            // Identical hash across chunk refs must mean identical
            // length; a manifest violating that is corrupt.
            if plan[slot].raw_len != chunk.raw_len {
                return Err(StoreError::corrupt(
                    label,
                    format!("chunk {} referenced with conflicting lengths", chunk.hash),
                ));
            }
            // Walk the chunk's original run layout (which defines byte
            // offsets into its raw bytes) and keep only the maximal
            // sub-runs this entry still wins.  Writers trim entries that
            // win nothing, but a partially superseded entry stays in the
            // manifest, so the splice must never push its stale pages.
            let mut pieces: Vec<(PageRun, usize)> = Vec::new();
            let mut offset = 0usize;
            for run in &chunk.runs {
                let mut sub_first: Option<u64> = None;
                let flush = |from: u64, to: u64, pieces: &mut Vec<(PageRun, usize)>| {
                    pieces.push((
                        PageRun {
                            first: from,
                            count: to - from,
                        },
                        offset + ((from - run.first) * PAGE_SIZE) as usize,
                    ));
                };
                for page in run.pages() {
                    if winner.get(&page) == Some(&seq) {
                        sub_first.get_or_insert(page);
                    } else if let Some(from) = sub_first.take() {
                        flush(from, page, &mut pieces);
                    }
                }
                if let Some(from) = sub_first {
                    flush(from, run.first + run.count, &mut pieces);
                }
                offset += (run.count * PAGE_SIZE) as usize;
            }
            if !pieces.is_empty() {
                plan[slot].targets.push((region_idx, pieces));
            }
        }
    }
    Ok((plan, refs_total))
}

/// The eager fetch/verify/splice pipeline: workers pull tickets off
/// `plan`, fetch + verify through [`fetch_chunk`] (with bounded retry on
/// transient failures), and push verified chunks through the bounded queue;
/// the calling thread splices each chunk into `sink` the moment it
/// arrives.  Accounts everything into `obs`'s run registry — the caller
/// builds its [`ReadStats`] view from the final snapshot.
fn run_fetch_pipeline(
    plan: &[FetchPlan],
    sink: &mut dyn RegionSink,
    source: ImageSource<'_>,
    label: &Path,
    obs: &ReaderObs,
) -> Result<(), StoreError> {
    let threads = effective_threads(0, plan.len());
    obs.run.gauge("crac_reader_threads").set(threads as u64);
    let gauge = Gauge::default();
    let error: ErrorSlot = Arc::new(crac_sync::Mutex::new("imagestore.reader.error", None));
    let next = AtomicUsize::new(0);
    let retries = AtomicUsize::new(0);
    let retry_obs = obs.retry("fetch_chunk");
    let (tx, rx) = sync_channel::<(usize, Vec<u8>)>(VERIFY_QUEUE_CHUNKS);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, gauge, error, retries) = (&next, &gauge, &error, &retries);
            let retry_obs = &retry_obs;
            scope.spawn(move || loop {
                let ticket = next.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = plan.get(ticket) else {
                    return;
                };
                if error.lock().is_some() {
                    continue; // drain mode: burn the remaining tickets
                }
                // Transient fetch failures (a remote hiccup, an injected
                // fault) are retried here, bounded; one flaky chunk no
                // longer fails the whole restore.  Corruption and other
                // permanent failures still fail fast, and once any worker
                // has latched an error the cancellation probe stops the
                // others' retry loops mid-budget.
                let fetched = with_transient_retry(
                    retries,
                    || error.lock().is_some(),
                    RETRY_BACKOFF_BASE,
                    RETRY_BACKOFF_CAP,
                    Some(retry_obs),
                    || fetch_chunk(source, label, entry, false, gauge, obs),
                );
                match fetched {
                    Ok(file) => {
                        let len = file.len() as u64;
                        if tx.send((ticket, file)).is_err() {
                            // Splice consumer gone: only after a latch.
                            gauge.sub(len);
                            return;
                        }
                    }
                    Err(e) => latch(error, e),
                }
            });
        }
        // The workers hold the only remaining senders: once they all
        // exit, the iterator below ends — clean shutdown, no explicit
        // signalling (the mirror of the writer's teardown).
        drop(tx);

        for (ticket, file) in rx.iter() {
            let len = file.len() as u64;
            if error.lock().is_none() {
                let entry = &plan[ticket];
                let stage = Span::enter(&obs.stage_splice);
                let spliced = splice_chunk(sink, entry, &file[CHUNK_HEADER_LEN..]);
                stage.finish();
                if let Err(e) = spliced {
                    latch(&error, e);
                } else {
                    obs.chunks_read.inc();
                    obs.chunk_bytes_read.add(len);
                }
            }
            gauge.sub(len);
        }
    });

    obs.run
        .gauge("crac_reader_buffered_bytes")
        .raise_peak(gauge.peak());
    obs.run
        .counter("crac_reader_transient_retries")
        .add(retries.load(Ordering::Relaxed) as u64);
    let first_error = error.lock().take();
    match first_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl ChunkSource for StreamReader<'_> {
    fn stream_out(&mut self, sink: &mut dyn RegionSink) -> Result<(), StoreError> {
        // crac-lint: allow(raw-instant) — whole-restore wall time lands in ReadStats via finish_stats
        let start = Instant::now();
        self.obs.events.event(
            EventKind::RestoreBegun,
            format!(
                "source={} regions={}",
                self.label.display(),
                self.manifest.regions.len()
            ),
        );
        // Validate before the sink sees a single declaration, then
        // metadata first: declarations and payloads are manifest-inline,
        // so the sink has the full image shape before content arrives.
        let result = build_fetch_plan(&self.manifest, &self.label).and_then(|(plan, refs)| {
            self.obs
                .run
                .counter("crac_reader_chunks_cached")
                .add((refs - plan.len()) as u64);
            declare_manifest(&self.manifest, sink)?;
            run_fetch_pipeline(&plan, sink, self.source, &self.label, &self.obs)
        });
        self.stats = self.obs.finish_stats(start.elapsed());
        self.obs.events.event(
            EventKind::RestoreFinished,
            format!(
                "source={} ok={} chunks_read={} bytes_read={}",
                self.label.display(),
                result.is_ok(),
                self.stats.chunks_read,
                self.stats.chunk_bytes_read
            ),
        );
        result
    }
}

/// Applies one verified chunk's winning page runs to every target region.
/// The plan pre-resolved last-write-wins, so each sub-run carries its own
/// byte offset into the chunk's raw bytes and a sink never sees a page
/// twice.
fn splice_chunk(
    sink: &mut dyn RegionSink,
    entry: &FetchPlan,
    raw: &[u8],
) -> Result<(), StoreError> {
    for (region, pieces) in &entry.targets {
        for (run, offset) in pieces {
            let len = (run.count * PAGE_SIZE) as usize;
            sink.push_run(*region, *run, &raw[*offset..*offset + len])?;
        }
    }
    Ok(())
}

/// Reads and fully verifies image `id`, reconstructing the checkpoint.
///
/// This is the legacy materialising path ([`ImageStore::read_image`]): the
/// streaming reader driven into a [`MaterialiseSink`], so the two paths
/// cannot diverge.
pub(crate) fn read_image(
    store: &ImageStore,
    id: ImageId,
) -> Result<(CheckpointImage, ReadStats), StoreError> {
    let mut reader = store.stream_restore(id)?;
    let mut sink = MaterialiseSink::default();
    reader.stream_out(&mut sink)?;
    let image = sink.into_image(reader.taken_at_ns());
    Ok((image, reader.stats()))
}

/// CRC-checks and hash-verifies one chunk's *file bytes* (from disk or the
/// wire) where they lie — nothing is copied.  `label` names the source in
/// errors.
pub(crate) fn verify_chunk_file_bytes(
    label: &Path,
    bytes: &[u8],
    hash: ContentHash,
    raw_len: u64,
) -> Result<(), StoreError> {
    let corrupt = |what: String| StoreError::corrupt(label, format!("chunk {hash}: {what}"));
    let raw = parse_chunk(bytes).map_err(corrupt)?;
    if raw.len() as u64 != raw_len {
        return Err(corrupt(format!(
            "raw length {} does not match manifest ({raw_len})",
            raw.len()
        )));
    }
    let actual = ContentHash::of(raw);
    if actual != hash {
        return Err(corrupt(format!("content hashes to {actual}")));
    }
    Ok(())
}

/// Fetches one planned chunk from `source` and runs the verification
/// ladder over it — the one place restore bytes enter, eager or lazy,
/// local or remote: a faulty disk or peer surfaces as corruption, never as
/// wrong memory.  Returns the verified chunk file, whose raw bytes the
/// caller reads from offset [`CHUNK_HEADER_LEN`] on; its length is already
/// `gauge.add`ed — the caller `sub`s it when it drops the file.
pub(crate) fn fetch_chunk(
    source: ImageSource<'_>,
    label: &Path,
    entry: &FetchPlan,
    priority: bool,
    gauge: &Gauge,
    obs: &ReaderObs,
) -> Result<Vec<u8>, StoreError> {
    let stage = Span::enter(&obs.stage_fetch);
    let bytes = source.chunk_file_bytes(entry.hash, priority)?;
    stage.finish();
    let len = bytes.len() as u64;
    gauge.add(len);
    let stage = Span::enter(&obs.stage_verify);
    let verified = verify_chunk_file_bytes(label, &bytes, entry.hash, entry.raw_len);
    stage.finish();
    if verified.is_err() {
        gauge.sub(len);
    }
    verified.map(|()| bytes)
}
