//! The streaming checkpoint writer: a chunk-at-a-time pipeline that
//! overlaps hashing and framing with file I/O.
//!
//! ```text
//! producer (caller thread)          encoder threads            I/O thread
//! ────────────────────────          ───────────────            ──────────
//! push_run ─► chunker ─► [job q] ─► hash ─► dedup ─► frame ─► [write q] ─► chunk file
//!                        bounded                              bounded
//! ```
//!
//! The producer (a [`RegionSource`](crate::stream::RegionSource) or the
//! DMTCP coordinator's streaming walk) feeds page runs into the
//! [`StreamWriter`]; the chunker packs them into ≤[`CHUNK_PAGES`]-page
//! chunks and submits each one to a **bounded** job queue.  Encoder worker
//! threads hash, consult the store's chunk index (plus a write-local claim
//! set) for deduplication, and frame new content as a chunk file (header,
//! CRC and the raw bytes, one copy); the files pass through a second
//! bounded queue to a **dedicated I/O thread** that only writes them under
//! their content-addressed names — so framing chunk *n+1* overlaps writing
//! chunk *n* (the double-buffering the synchronous writer lacked).
//! Durability is batched: the I/O thread lands chunks under temp names
//! without fsync (the kernel writes back behind it), and `finish` syncs
//! and renames the whole batch — in parallel, on as many threads as the
//! pipeline just ran — before publishing the manifest.  The crash-safety
//! invariant (a file only ever appears under its content-hash name with
//! durable bytes) holds with the per-chunk fsync stall gone from the
//! overlap window.
//!
//! Because both queues are bounded, the peak payload the pipeline ever
//! buffers is a small multiple of the chunk size — *independent of the
//! image size*.  [`WriteStats::peak_buffered_bytes`] reports the observed
//! peak and [`stream_buffer_bound`] the analytic bound, which integration
//! tests assert against.
//!
//! **Failure semantics**: the first error (an encoder send failing, the
//! I/O thread hitting a disk error) is latched; later records are drained
//! and discarded so no thread ever blocks forever, the producer's next
//! push returns the latched error, and nothing is published — the
//! manifest is only written and the chunk index only updated when the
//! write finishes cleanly, so a failed write leaves at most orphaned
//! (unreferenced, content-named) chunk files, which are harmless and
//! reclaimed by the next [`ImageStore::delete_image`] sweep.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crac_addrspace::{PageRun, PAGE_SIZE};
use crac_dmtcp::RegionDescriptor;
use crac_obs::{Buckets, Counter, EventKind, Histogram, ObsRegistry, Span};
use crac_sync::Mutex;

use crate::chunk::{ChunkSlot, ManifestBuilder, PackedChunk, CHUNK_PAGES};
use crate::error::StoreError;
use crate::format::{frame_chunk, Manifest};
use crate::hash::ContentHash;
use crate::pipeline::{effective_threads, latch, run_workers, ErrorSlot, Gauge};
use crate::store::{ImageId, ImageStore, SharedIndex};
use crate::stream::ChunkSink;

/// Chunks the job queue holds while every encoder is busy (backpressure
/// depth between the producer and the encoders).
pub const ENCODE_QUEUE_CHUNKS: usize = 8;

/// Chunk files the write queue holds while the I/O thread is busy
/// (double-buffering depth between the encoders and the disk).
pub const WRITE_QUEUE_CHUNKS: usize = 4;

/// Per-write options.  Chunks are always stored raw, and the pipeline
/// sizes its encoder pool the way the reader sizes its fetch pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteOptions {
    /// Parent image for an incremental checkpoint.  Chunks shared with
    /// *any* stored image are deduplicated either way (the chunk store is
    /// content-addressed); the parent records lineage for bookkeeping and
    /// garbage collection.
    pub parent: Option<ImageId>,
}

impl WriteOptions {
    /// Full checkpoint.
    pub fn full() -> Self {
        Self::default()
    }

    /// Incremental checkpoint on top of `parent`.
    pub fn incremental(parent: ImageId) -> Self {
        Self {
            parent: Some(parent),
        }
    }
}

/// What one image write cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteStats {
    /// Chunks the image decomposed into.
    pub chunks_total: usize,
    /// Chunks actually written (new content).
    pub chunks_written: usize,
    /// Chunks already present in the store (dedup hits).
    pub chunks_deduped: usize,
    /// Raw (decoded) bytes across all chunks of the image.
    pub raw_chunk_bytes: u64,
    /// Chunk-file bytes newly written into the chunk store.
    pub chunk_bytes_written: u64,
    /// Size of the manifest file.
    pub manifest_bytes: u64,
    /// Plugin payload bytes (stored inline in the manifest).
    pub payload_bytes: u64,
    /// Worker threads used for hashing and framing.
    pub threads_used: usize,
    /// Peak *page-content* bytes the pipeline held at any instant
    /// (chunker + queues + in-flight encoder/I/O buffers).  Bounded by
    /// [`stream_buffer_bound`], *not* by the image size — the proof that
    /// the streaming path never materialises the image's page data.
    /// Plugin payloads are excluded: they are inline manifest data, held
    /// whole until the manifest is written (their size is
    /// [`WriteStats::payload_bytes`] — kilobytes of CUDA log, not the
    /// gigabytes of page content the bound is about).
    pub peak_buffered_bytes: u64,
    /// Wall-clock time of the whole write.
    pub elapsed: Duration,
}

impl WriteStats {
    /// Total bytes this write added to the store.
    pub fn bytes_written(&self) -> u64 {
        self.chunk_bytes_written + self.manifest_bytes
    }
}

/// Analytic upper bound on [`WriteStats::peak_buffered_bytes`] for a write
/// that used `threads` encoder threads.
///
/// Every pipeline slot (the chunker's staging chunk, each job-queue entry,
/// one job in each encoder's hands, each write-queue entry, one chunk file
/// in the I/O thread's hands) holds one buffer of at most one chunk plus a
/// header, except an encoder, which holds its raw job and the file it
/// frames from it at once; the factor 2 covers that with slack.  The bound
/// covers page content only — inline plugin payloads (manifest data,
/// [`WriteStats::payload_bytes`]) are buffered in full on top of it.
pub fn stream_buffer_bound(threads: usize) -> u64 {
    let slots = 1 + ENCODE_QUEUE_CHUNKS + threads + WRITE_QUEUE_CHUNKS + 1;
    2 * slots as u64 * CHUNK_PAGES * PAGE_SIZE
}

/// A chunk handed from the producer to the encoders.
struct EncodeJob {
    slot: ChunkSlot,
    raw: Vec<u8>,
}

/// A framed chunk file handed from an encoder to the I/O thread.
struct WriteJob {
    slot: ChunkSlot,
    hash: ContentHash,
    file: Vec<u8>,
}

/// Run-registry handles the encoder stages record into (one bundle shared
/// by every encoder thread; all handles are cheap atomics).
struct EncoderObs {
    stage_hash: Histogram,
    stage_dedup: Histogram,
    stage_encode: Histogram,
    chunks_deduped: Counter,
}

/// Run-registry handles the I/O thread records into.
struct IoObs {
    stage_io: Histogram,
    chunks_written: Counter,
    chunk_bytes_written: Counter,
}

/// The hash/dedup verdict for one chunk, reported back to the producer.
struct ChunkOutcome {
    slot: ChunkSlot,
    hash: ContentHash,
    /// Chunk-file bytes written, or `None` for a dedup hit.
    written_bytes: Option<u64>,
}

/// The streaming writer: the store's canonical [`ChunkSink`].
///
/// Obtain one through [`ImageStore::stream_image`], feed it records (or let
/// a [`RegionSource`](crate::stream::RegionSource) / the coordinator do
/// so), and the pipeline frames and writes chunks behind your back; the
/// manifest is assembled and published when the `stream_image` closure
/// returns.
pub struct StreamWriter<'s> {
    store: &'s ImageStore,
    /// Read side of the store's writer gate, held for the writer's whole
    /// lifetime: deletion (the write side) is excluded while any stream
    /// is in flight, with no check-then-act window.
    _writer_guard: crac_sync::RwLockReadGuard<'s, ()>,
    opts: WriteOptions,
    started: Instant,
    gauge: Arc<Gauge>,
    error: ErrorSlot,
    /// Chunk files written to temp names, awaiting the batched
    /// fsync + rename at finish: `(tmp path, final path)`.
    pending_publish: Arc<Mutex<Vec<(PathBuf, PathBuf)>>>,

    // Pipeline plumbing (Options so shutdown can drop senders first).
    job_tx: Option<SyncSender<EncodeJob>>,
    outcome_rx: Option<Receiver<ChunkOutcome>>,
    encoders: Vec<JoinHandle<()>>,
    io_thread: Option<JoinHandle<()>>,

    /// Region/chunk/payload bookkeeping shared with the remote sink.
    book: ManifestBuilder,
    threads: usize,

    /// Per-run registry: the pipeline's single source of truth for write
    /// bookkeeping.  [`WriteStats`] is built *from* its snapshot at finish
    /// (a view, not parallel tallies) and the snapshot is folded into the
    /// store's long-lived registry.
    run: ObsRegistry,
    chunks_total_c: Counter,
    raw_bytes_c: Counter,
}

impl<'s> StreamWriter<'s> {
    pub(crate) fn new(store: &'s ImageStore, opts: WriteOptions) -> Result<Self, StoreError> {
        store.check_writable()?;
        let writer_guard = store.writer_guard();
        if let Some(parent) = opts.parent {
            if !store.contains_image(parent) {
                return Err(StoreError::UnknownImage(parent));
            }
        }
        let threads = effective_threads(0, usize::MAX);
        let gauge = Arc::new(Gauge::default());
        let error: ErrorSlot = Arc::new(Mutex::new("imagestore.writer.error", None));
        let run = ObsRegistry::new();
        run.gauge("crac_writer_threads").set(threads as u64);
        let encoder_obs = Arc::new(EncoderObs {
            stage_hash: run.histogram("crac_writer_stage_hash_us", Buckets::LATENCY_US),
            stage_dedup: run.histogram("crac_writer_stage_dedup_us", Buckets::LATENCY_US),
            stage_encode: run.histogram("crac_writer_stage_encode_us", Buckets::LATENCY_US),
            chunks_deduped: run.counter("crac_writer_chunks_deduped"),
        });
        let io_obs = IoObs {
            stage_io: run.histogram("crac_writer_stage_io_us", Buckets::LATENCY_US),
            chunks_written: run.counter("crac_writer_chunks_written"),
            chunk_bytes_written: run.counter("crac_writer_chunk_bytes_written"),
        };
        store
            .obs()
            .event(EventKind::CheckpointBegun, format!("threads={threads}"));

        let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<EncodeJob>(ENCODE_QUEUE_CHUNKS);
        let (write_tx, write_rx) = std::sync::mpsc::sync_channel::<WriteJob>(WRITE_QUEUE_CHUNKS);
        let (outcome_tx, outcome_rx) = std::sync::mpsc::channel::<ChunkOutcome>();
        let job_rx = Arc::new(Mutex::new("imagestore.writer.job_rx", job_rx));
        // Batch-local claim set: the first encoder to hash unseen content
        // wins the right to write it; the store index only learns about the
        // new chunks at commit time.
        let claimed = Arc::new(Mutex::new(
            "imagestore.writer.claimed",
            std::collections::HashSet::new(),
        ));

        let mut encoders = Vec::with_capacity(threads);
        for _ in 0..threads {
            encoders.push(spawn_encoder(
                Arc::clone(&job_rx),
                write_tx.clone(),
                outcome_tx.clone(),
                store.index_handle(),
                Arc::clone(&claimed),
                Arc::clone(&gauge),
                Arc::clone(&error),
                Arc::clone(&encoder_obs),
            ));
        }
        // The producer holds no write/outcome sender: once `job_tx` drops,
        // the encoders drain and exit, their sender clones drop, and the
        // I/O thread drains and exits — clean pipeline shutdown with no
        // explicit signalling.
        drop(write_tx);
        let pending_publish: Arc<Mutex<Vec<(PathBuf, PathBuf)>>> =
            Arc::new(Mutex::new("imagestore.writer.pending_publish", Vec::new()));
        let io_thread = spawn_io(
            write_rx,
            outcome_tx,
            store.chunks_dir().to_path_buf(),
            Arc::clone(&pending_publish),
            Arc::clone(&gauge),
            Arc::clone(&error),
            io_obs,
        );

        let chunks_total_c = run.counter("crac_writer_chunks_total");
        let raw_bytes_c = run.counter("crac_writer_raw_chunk_bytes");
        Ok(Self {
            store,
            _writer_guard: writer_guard,
            opts,
            // crac-lint: allow(raw-instant) — wall-clock anchor for WriteStats, not a stage timing
            started: Instant::now(),
            gauge,
            error,
            pending_publish,
            job_tx: Some(job_tx),
            outcome_rx: Some(outcome_rx),
            encoders,
            io_thread: Some(io_thread),
            book: ManifestBuilder::default(),
            threads,
            run,
            chunks_total_c,
            raw_bytes_c,
        })
    }

    /// Stamps the manifest's `taken_at_ns` (virtual checkpoint-completion
    /// time).  May be called at any point before the write finishes.
    pub fn set_taken_at(&mut self, ns: u64) {
        self.book.taken_at_ns = ns;
    }

    /// Fails fast if the pipeline has already latched an error.
    fn check_failed(&self) -> Result<(), StoreError> {
        if let Some(err) = self.error.lock().take() {
            return Err(err);
        }
        Ok(())
    }

    /// Submits packed chunks to the encoders (blocking while the job
    /// queue is full — that backpressure is what bounds the producer).
    fn submit_chunks(&mut self, packed: Vec<PackedChunk>) -> Result<(), StoreError> {
        for (slot, raw) in packed {
            self.chunks_total_c.inc();
            self.raw_bytes_c.add(raw.len() as u64);
            self.gauge.add(raw.len() as u64);
            let sent = self
                .job_tx
                .as_ref()
                .is_some_and(|tx| tx.send(EncodeJob { slot, raw }).is_ok());
            if !sent {
                // Every encoder exited early — only happens after a latched
                // error (or a panic, which the latch check turns into Busy).
                self.check_failed()?;
                return Err(StoreError::busy("writer pipeline stalled"));
            }
        }
        Ok(())
    }

    /// Drops the senders and joins every pipeline thread.
    fn shutdown_pipeline(&mut self) {
        self.job_tx.take();
        for h in self.encoders.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.io_thread.take() {
            let _ = h.join();
        }
    }

    /// Completes the write: drains the pipeline, assembles and publishes
    /// the manifest, and commits the new chunks to the store index.
    pub(crate) fn finish(mut self) -> Result<(Manifest, WriteStats), StoreError> {
        self.shutdown_pipeline();
        self.check_failed()?;

        // Batched durability: fsync + rename every chunk written this
        // batch, then sync the directory once.  The data has been writing
        // back since the I/O thread put it down, so these fsyncs mostly
        // find clean pages — the per-chunk fsync stall the synchronous
        // writer paid is gone from the overlap window entirely.
        let pending = std::mem::take(&mut *self.pending_publish.lock());
        let stage = Span::enter(
            &self
                .run
                .histogram("crac_writer_stage_publish_us", Buckets::LATENCY_US),
        );
        if !pending.is_empty() {
            publish_batch(&pending, self.threads + 1, &self.error);
            self.check_failed()?;
            self.store.chunk_renamed();
        }
        // A write that dedups entirely against chunks a peer just shipped
        // renames nothing itself, yet its manifest names them: the store's
        // rule decides, not this batch.
        self.store.sync_chunk_dir_before_manifest();
        stage.finish();

        // The encoder and I/O threads already tallied written/dedup counts
        // into the run registry; the outcome loop only has to collect the
        // hashes the manifest needs and the set of chunks to commit.
        let mut newly_written: Vec<ContentHash> = Vec::new();
        for outcome in self.outcome_rx.take().into_iter().flatten() {
            self.book.set_hash(outcome.slot, outcome.hash);
            if outcome.written_bytes.is_some() {
                newly_written.push(outcome.hash);
            }
        }
        self.run
            .counter("crac_writer_payload_bytes")
            .add(self.book.payload_bytes());

        let image_id = self.store.allocate_image_id();
        let manifest = std::mem::take(&mut self.book).finish(image_id, self.opts.parent)?;
        let manifest_bytes = manifest.to_bytes();
        write_atomically(&self.store.image_path(image_id), &manifest_bytes)?;
        self.run
            .counter("crac_writer_manifest_bytes")
            .add(manifest_bytes.len() as u64);

        // Only now publish the new chunks into the store's index: a failure
        // above leaves the index unchanged (orphan files are harmless —
        // they are re-discovered, re-written or swept, never referenced).
        self.store.commit_chunks(&newly_written);

        // The pipeline gauge's high-water mark lands in the registry too,
        // so `render_text` exposes the bounded-memory evidence.
        self.run
            .gauge("crac_writer_buffered_bytes")
            .raise_peak(self.gauge.peak());

        // WriteStats is a *view* over the run registry — one bookkeeping
        // substrate, two presentations.
        let snap = self.run.snapshot();
        let stats = WriteStats {
            chunks_total: snap.counter("crac_writer_chunks_total") as usize,
            chunks_written: snap.counter("crac_writer_chunks_written") as usize,
            chunks_deduped: snap.counter("crac_writer_chunks_deduped") as usize,
            raw_chunk_bytes: snap.counter("crac_writer_raw_chunk_bytes"),
            chunk_bytes_written: snap.counter("crac_writer_chunk_bytes_written"),
            manifest_bytes: snap.counter("crac_writer_manifest_bytes"),
            payload_bytes: snap.counter("crac_writer_payload_bytes"),
            threads_used: self.threads,
            peak_buffered_bytes: self.gauge.peak(),
            elapsed: self.started.elapsed(),
        };
        debug_assert_eq!(
            stats.chunks_written + stats.chunks_deduped,
            stats.chunks_total
        );

        // Fold the run's totals into the store's long-lived registry and
        // close the narrative.
        let store_obs = self.store.obs();
        store_obs.absorb(&snap);
        store_obs.event(
            EventKind::CheckpointFinished,
            format!(
                "image={image_id} chunks={} written={} deduped={} bytes_written={}",
                stats.chunks_total,
                stats.chunks_written,
                stats.chunks_deduped,
                stats.bytes_written()
            ),
        );
        Ok((manifest, stats))
    }
}

impl Drop for StreamWriter<'_> {
    fn drop(&mut self) {
        // The abort path (producer error or panic): tear the pipeline down
        // without publishing anything, and clear the unpublished temp
        // files (best-effort — anything missed is `.tmp` litter the GC
        // sweep reclaims).  Chunks a failed `finish` already renamed stay:
        // unreferenced but valid, they are re-discovered or swept.
        self.shutdown_pipeline();
        for (tmp, _) in self.pending_publish.lock().drain(..) {
            let _ = fs::remove_file(tmp);
        }
    }
}

impl ChunkSink for StreamWriter<'_> {
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError> {
        self.check_failed()?;
        self.book.begin_region(desc)
    }

    fn push_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), StoreError> {
        self.check_failed()?;
        let packed = self.book.push_run(run, bytes)?;
        self.submit_chunks(packed)
    }

    fn end_region(&mut self) -> Result<(), StoreError> {
        let (region, tail) = self.book.end_region()?;
        self.submit_chunks(tail)?;
        let (desc, chunks) = self.book.region(region);
        self.store.obs().event(
            EventKind::RegionStreamed,
            format!("label={} len={} chunks={chunks}", desc.label, desc.len),
        );
        Ok(())
    }

    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.check_failed()?;
        self.book.push_payload(name, data);
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_encoder(
    job_rx: Arc<Mutex<Receiver<EncodeJob>>>,
    write_tx: SyncSender<WriteJob>,
    outcome_tx: Sender<ChunkOutcome>,
    index: SharedIndex,
    claimed: Arc<Mutex<std::collections::HashSet<ContentHash>>>,
    gauge: Arc<Gauge>,
    error: ErrorSlot,
    obs: Arc<EncoderObs>,
) -> JoinHandle<()> {
    // crac-lint: allow(raw-spawn) — encoder/publisher worker threads are owned by the pipeline and joined at finish()
    std::thread::spawn(move || loop {
        // Holding the mutex across `recv` serialises wakeups but is the
        // std-only way to share one receiver; hash/IO dominate anyway.
        let job = match job_rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // producer dropped the sender: drained
        };
        let raw_len = job.raw.len() as u64;
        if error.lock().is_some() {
            gauge.sub(raw_len);
            continue; // drain mode: keep the producer from blocking
        }
        let hash = {
            let _stage = Span::enter(&obs.stage_hash);
            ContentHash::of(&job.raw)
        };
        // First claimant of unseen content frames it; everyone else is a
        // dedup hit.  The claim set spans one write; the index spans the
        // store's life.
        let is_new = {
            let _stage = Span::enter(&obs.stage_dedup);
            !index.lock().contains(hash) && claimed.lock().insert(hash)
        };
        if is_new {
            let stage = Span::enter(&obs.stage_encode);
            let file = frame_chunk(&job.raw);
            stage.finish();
            gauge.add(file.len() as u64);
            drop(job.raw);
            gauge.sub(raw_len);
            let send = write_tx.send(WriteJob {
                slot: job.slot,
                hash,
                file,
            });
            if let Err(failed) = send {
                // I/O thread gone: only after a latch (or panic).
                gauge.sub(failed.0.file.len() as u64);
                latch(&error, StoreError::busy("chunk I/O thread exited early"));
            }
        } else {
            obs.chunks_deduped.inc();
            gauge.sub(raw_len);
            let _ = outcome_tx.send(ChunkOutcome {
                slot: job.slot,
                hash,
                written_bytes: None,
            });
        }
    })
}

fn spawn_io(
    write_rx: Receiver<WriteJob>,
    outcome_tx: Sender<ChunkOutcome>,
    chunks_dir: PathBuf,
    pending_publish: Arc<Mutex<Vec<(PathBuf, PathBuf)>>>,
    gauge: Arc<Gauge>,
    error: ErrorSlot,
    obs: IoObs,
) -> JoinHandle<()> {
    // crac-lint: allow(raw-spawn) — encoder/publisher worker threads are owned by the pipeline and joined at finish()
    std::thread::spawn(move || {
        for job in write_rx.iter() {
            let file_len = job.file.len() as u64;
            if error.lock().is_some() {
                gauge.sub(file_len);
                continue; // drain mode
            }
            let stage = Span::enter(&obs.stage_io);
            let path = chunks_dir.join(format!("{}.chk", job.hash.to_hex()));
            // Deferred durability: land the bytes under a temp name now (no
            // fsync — the kernel writes back behind us) and queue the
            // fsync + rename for the batched publish at finish.
            let written = write_tmp(&path, &job.file);
            stage.finish();
            match written {
                Ok(tmp) => {
                    pending_publish.lock().push((tmp, path));
                    obs.chunks_written.inc();
                    obs.chunk_bytes_written.add(file_len);
                    let _ = outcome_tx.send(ChunkOutcome {
                        slot: job.slot,
                        hash: job.hash,
                        written_bytes: Some(file_len),
                    });
                }
                Err(e) => latch(&error, e),
            }
            gauge.sub(file_len);
        }
    })
}

/// A unique temp name next to `path` — unique per process *and* per call:
/// two concurrent writers racing on the same content-addressed chunk must
/// not interleave into one shared `.tmp`; each renames a complete file, and
/// whichever rename lands last wins with valid bytes.
fn tmp_name(path: &Path) -> PathBuf {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// Stage 1 of a deferred-durability write: put `bytes` under a unique temp
/// name *without* syncing, returning the temp path.  The kernel writes the
/// data back in the background while the pipeline keeps moving; the
/// batched [`publish_tmp`] calls at finish then find mostly clean pages,
/// so the fsync cost is paid once, overlapped, instead of once per chunk
/// on the I/O thread's critical path.
fn write_tmp(path: &Path, bytes: &[u8]) -> Result<PathBuf, StoreError> {
    use std::io::Write;
    let tmp = tmp_name(path);
    let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    f.write_all(bytes).map_err(|e| StoreError::io(&tmp, e))?;
    Ok(tmp)
}

/// Stage 2: flush the temp file to stable storage, *then* rename it to its
/// final name.  The order is the crash-safety invariant: a file only ever
/// appears under its content-hash name with its bytes durable, so the
/// name-based index can never be tricked into trusting a truncated chunk.
/// (A crash between the stages leaves only `.tmp` litter, which the GC
/// sweep reclaims.)  Directory syncing is the caller's batched job.
fn publish_tmp(tmp: &Path, path: &Path) -> Result<(), StoreError> {
    let f = fs::File::open(tmp).map_err(|e| StoreError::io(tmp, e))?;
    f.sync_all().map_err(|e| StoreError::io(tmp, e))?;
    fs::rename(tmp, path).map_err(|e| StoreError::io(path, e))?;
    Ok(())
}

/// Runs [`publish_tmp`] over the whole batch on `workers` threads (the
/// caller's included): each file is still fsynced *then* renamed, files
/// are merely independent of one another, and a flush is a wait on the
/// device that parallel submitters overlap.  `workers` is the count of
/// pipeline threads that just exited (encoders + I/O), so a write never
/// has more threads alive than it had while streaming.  The first failure
/// latches into `error` and every worker stops at its next file.
fn publish_batch(pending: &[(PathBuf, PathBuf)], workers: usize, error: &ErrorSlot) {
    let next = AtomicUsize::new(0);
    let work = || {
        while error.lock().is_none() {
            // Relaxed: the counter only hands out indices, it publishes
            // no data (the scope's join orders everything else).
            let Some((tmp, path)) = pending.get(next.fetch_add(1, Ordering::Relaxed)) else {
                return;
            };
            if let Err(e) = publish_tmp(tmp, path) {
                latch(error, e);
            }
        }
    };
    run_workers(effective_threads(workers, pending.len()), work);
}

/// Best-effort fsync of a directory, so renames into it survive a crash
/// (not all platforms allow dir fsync).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Both stages in one call: `bytes` appear at `path` only once durable.
/// The rename itself is not — syncing the directory is the caller's job
/// (per manifest for chunk files: [`ImageStore::sync_chunk_dir_before_manifest`]).
pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = write_tmp(path, bytes)?;
    publish_tmp(&tmp, path)
}

/// [`write_durably`] plus the directory sync — for manifests, which are
/// published the moment they are written.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    write_durably(path, bytes)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}
