//! Remote replication over a [`Transport`]: dedup-aware shipping of images
//! and live checkpoints to a peer.
//!
//! Three entry points, all transport-agnostic:
//!
//! * [`ImageStore::replicate_to`] — push one stored image to a peer,
//!   restic/borg-style: batched `has_chunks` negotiation first, then only
//!   the chunks the peer is missing travel (as verbatim chunk files, read
//!   from the chunk directory and shipped as they are), and the manifest is
//!   published strictly last.  Safe to re-run after any interruption: the
//!   negotiation re-skips everything that already landed, so a resumed
//!   replication ships exactly the remainder.
//! * [`ImageStore::replicate_from`] — the pull mirror: fetch a peer's
//!   manifest, fetch + verify the chunks missing locally, adopt the
//!   manifest under a fresh local id.
//! * [`RemoteChunkSink`] — a [`ChunkSink`] whose backing store is a peer:
//!   a live checkpoint streams *directly* to the remote node without ever
//!   touching a local store (the coordinator cannot tell the difference —
//!   same trait the local writer pipeline implements).  Content is
//!   chunked and its manifest assembled by the same
//!   `crate::chunk::ManifestBuilder` as [`crate::writer::StreamWriter`]
//!   (same boundaries ⇒ same hashes ⇒ dedup against anything the peer
//!   already holds, local- or remote-written).
//!
//! `replicate_to` and the sink ship through one loop
//! (`ShipObs::negotiate_and_ship`): one `has_chunks` round trip per
//! [`HAS_CHUNKS_BATCH`] hashes, then the batch's missing chunks are put by
//! a window of [`SHIP_WINDOW`] scoped workers over the transport's
//! connection pool — each produces its own chunk-file bytes and puts them
//! under the bounded retry, the first permanent error latches — and the
//! next batch starts only when the window has drained.  They differ only
//! in where a missing chunk's file bytes come from — the chunk directory,
//! or one framing copy of staged pages.  Memory held: one staged batch plus
//! one chunk file per worker.
//!
//! Restoring *from* a peer is not in this module: it is the one reader
//! ([`crate::reader::StreamReader`]) opened over
//! [`crate::reader::ImageSource::Peer`].
//!
//! Everything that crosses the wire is verified on arrival — the
//! receiving side never trusts the sender (chunk CRC, content hash;
//! manifest CRC; chunks-before-manifest ordering) — so a crashed or
//! faulty replication can never leave a torn image visible.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_addrspace::PageRun;
use crac_dmtcp::RegionDescriptor;
use crac_obs::{Buckets, Counter, EventKind, Histogram, ObsRegistry, Span};
use crac_sync::Mutex;

use crate::chunk::{ManifestBuilder, PackedChunk};
use crate::error::StoreError;
use crate::format::{frame_chunk, Manifest};
use crate::hash::ContentHash;
use crate::pipeline::{effective_threads, latch, run_workers, ErrorSlot};
use crate::reader::verify_chunk_file_bytes;
use crate::store::{ImageId, ImageStore};
use crate::stream::ChunkSink;
use crate::transport::{
    with_transient_retry, RetryObs, Transport, HAS_CHUNKS_BATCH, RETRY_BACKOFF_BASE,
    RETRY_BACKOFF_CAP,
};

/// `put_chunk`s the ship loop keeps in flight — its width under the one
/// fan-out policy ([`effective_threads`]), deliberately not a core count: a
/// put spends its time waiting on the *peer's* flush, so the window is sized
/// to let the peer's concurrent `fsync`s share journal commits (sweep on a
/// 2-core box in CHANGES.md, PR 16).  At most
/// [`crate::net::TcpTransport::DEFAULT_MAX_IDLE`], so every connection the
/// window opens is pooled afterwards.
pub const SHIP_WINDOW: usize = 4;

/// What one replication (or remote-streamed checkpoint) cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicateStats {
    /// *Distinct* chunks the image references (repeated content counts
    /// once, on every path — `chunks_shipped + chunks_deduped` always
    /// equals this).
    pub chunks_total: usize,
    /// Chunks actually shipped across the transport.
    pub chunks_shipped: usize,
    /// Chunks skipped because the peer already held their content — the
    /// dedup negotiation's savings.
    pub chunks_deduped: usize,
    /// Raw bytes across the image's chunk *references*
    /// (repeats included: the image's logical chunk payload).
    pub raw_chunk_bytes: u64,
    /// Chunk-file bytes that actually crossed the transport.
    pub bytes_shipped: u64,
    /// Manifest bytes that crossed the transport.
    pub manifest_bytes: u64,
    /// `has_chunks` negotiation batches sent.
    pub has_batches: usize,
    /// Transient transport failures absorbed by the bounded retry.
    pub transient_retries: usize,
    /// Wall-clock time of the whole operation.
    pub elapsed: Duration,
}

impl ReplicateStats {
    /// Fraction of the image's chunks the negotiation avoided shipping
    /// (1.0 = the peer already had everything).
    pub fn dedup_ratio(&self) -> f64 {
        if self.chunks_total == 0 {
            return 0.0;
        }
        self.chunks_deduped as f64 / self.chunks_total as f64
    }
}

/// A chunk staged in the sink, waiting for its `has_chunks` batch (its
/// manifest entry was already recorded at staging time).
struct StagedChunk {
    hash: ContentHash,
    raw: Vec<u8>,
}

/// Per-operation observability bundle for the ship side (sink and both
/// `replicate_*` paths): a fresh run registry whose counters are the
/// authoritative accounting — [`ReplicateStats`] is a view over its final
/// snapshot — plus the long-lived registry events and retry metrics go
/// to directly.
struct ShipObs {
    /// Per-run metric namespace; folded into `events` when the run ends.
    run: ObsRegistry,
    /// Long-lived registry (the store's, or one attached via
    /// [`RemoteChunkSink::with_obs`]).
    events: ObsRegistry,
    /// Transient transport failures absorbed by the bounded retry.
    retries: AtomicUsize,
    chunks_total: Counter,
    chunks_shipped: Counter,
    chunks_deduped: Counter,
    raw_chunk_bytes: Counter,
    bytes_shipped: Counter,
    has_batches: Counter,
    /// Per-put busy time of a ship worker, retries included.
    stage_put: Histogram,
}

impl ShipObs {
    fn new(events: ObsRegistry) -> Self {
        let run = ObsRegistry::new();
        Self {
            chunks_total: run.counter("crac_remote_chunks_total"),
            chunks_shipped: run.counter("crac_remote_chunks_shipped"),
            chunks_deduped: run.counter("crac_remote_chunks_deduped"),
            raw_chunk_bytes: run.counter("crac_remote_raw_chunk_bytes"),
            bytes_shipped: run.counter("crac_remote_bytes_shipped"),
            has_batches: run.counter("crac_remote_has_batches"),
            stage_put: run.histogram("crac_remote_stage_put_us", Buckets::LATENCY_US),
            retries: AtomicUsize::new(0),
            run,
            events,
        }
    }

    /// Runs one transport operation under the bounded transient retry,
    /// recording each retry's cause and backoff on the long-lived registry.
    fn with_retry<T>(
        &self,
        op: &'static str,
        call: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let retry = RetryObs {
            reg: self.events.clone(),
            op,
        };
        with_transient_retry(
            &self.retries,
            || false,
            RETRY_BACKOFF_BASE,
            RETRY_BACKOFF_CAP,
            Some(&retry),
            call,
        )
    }

    /// One round of the dedup negotiation — the ship loop of both
    /// [`ImageStore::replicate_to`] and [`RemoteChunkSink`]: ask the peer
    /// which of `hashes` (distinct, at most [`HAS_CHUNKS_BATCH`]) it is
    /// missing, ship exactly those, count the rest as dedup hits.
    /// `file_bytes(i)` produces the verbatim chunk-file bytes of
    /// `hashes[i]`; it is only called for chunks that travel, by the worker
    /// that puts them.  Returns only once every put of the batch has
    /// returned, so the caller's `put_manifest` is ordered after all of them.
    fn negotiate_and_ship(
        &self,
        transport: &dyn Transport,
        hashes: &[ContentHash],
        file_bytes: impl Fn(usize) -> Result<Vec<u8>, StoreError> + Sync,
    ) -> Result<(), StoreError> {
        if hashes.is_empty() {
            return Ok(());
        }
        self.has_batches.inc();
        let present = self.with_retry("has_chunks", || transport.has_chunks(hashes))?;
        // A reply of the wrong length is a *protocol* defect in the peer,
        // not weather: it will fail identically on every retry, so it is
        // permanent, never transient.
        if present.len() != hashes.len() {
            return Err(StoreError::protocol(format!(
                "peer answered {} has_chunks flags for {} hashes",
                present.len(),
                hashes.len()
            )));
        }
        let missing: Vec<usize> = (0..hashes.len()).filter(|&i| !present[i]).collect();
        let deduped = hashes.len() - missing.len();
        self.chunks_deduped.add(deduped as u64);

        let threads = effective_threads(SHIP_WINDOW, missing.len());
        self.run
            .gauge("crac_remote_ship_threads")
            .set(threads as u64);
        // The latch is only ever taken to read or set it — never across a
        // transport call.
        let error: ErrorSlot = Arc::new(Mutex::new("imagestore.remote.ship_error", None));
        let next = AtomicUsize::new(0);
        let bytes_before = self.bytes_shipped.get();
        let work = || {
            while error.lock().is_none() {
                // Relaxed: the counter only hands out indices (the scope's
                // join orders everything else).
                let Some(&i) = missing.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                let put = file_bytes(i).and_then(|bytes| {
                    let _stage = Span::enter(&self.stage_put);
                    self.with_retry("put_chunk", || transport.put_chunk(hashes[i], &bytes))?;
                    Ok(bytes.len() as u64)
                });
                match put {
                    Ok(len) => {
                        self.chunks_shipped.inc();
                        self.bytes_shipped.add(len);
                    }
                    Err(e) => latch(&error, e),
                }
            }
        };
        run_workers(threads, work);
        if let Some(e) = error.lock().take() {
            return Err(e);
        }
        // Outcomes surface per batch, not per chunk, so a large image
        // cannot flood the bounded event ring.
        let (shipped, shipped_bytes) = (missing.len(), self.bytes_shipped.get() - bytes_before);
        let batch = self.has_batches.get();
        if shipped > 0 {
            self.events.event(
                EventKind::ChunkShipped,
                format!("batch={batch} chunks={shipped} bytes={shipped_bytes}"),
            );
        }
        if deduped > 0 {
            self.events.event(
                EventKind::ChunkDeduped,
                format!("batch={batch} chunks={deduped}"),
            );
        }
        Ok(())
    }

    /// Publishes `manifest_bytes` on the peer — strictly after every chunk
    /// landed — returning the id the peer assigned.
    fn put_manifest(
        &self,
        transport: &dyn Transport,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        let id = self.with_retry("put_manifest", || {
            transport.put_manifest(manifest_bytes, parent)
        })?;
        self.run
            .counter("crac_remote_manifest_bytes")
            .add(manifest_bytes.len() as u64);
        Ok(id)
    }

    /// Ends the run: folds the run registry into the long-lived one and
    /// returns [`ReplicateStats`] as a view over the final snapshot.
    fn finish_stats(&self, elapsed: Duration) -> ReplicateStats {
        let retries = self.retries.load(Ordering::Relaxed);
        self.run
            .counter("crac_remote_transient_retries")
            .add(retries as u64);
        let snap = self.run.snapshot();
        self.events.absorb(&snap);
        ReplicateStats {
            chunks_total: snap.counter("crac_remote_chunks_total") as usize,
            chunks_shipped: snap.counter("crac_remote_chunks_shipped") as usize,
            chunks_deduped: snap.counter("crac_remote_chunks_deduped") as usize,
            raw_chunk_bytes: snap.counter("crac_remote_raw_chunk_bytes"),
            bytes_shipped: snap.counter("crac_remote_bytes_shipped"),
            manifest_bytes: snap.counter("crac_remote_manifest_bytes"),
            has_batches: snap.counter("crac_remote_has_batches") as usize,
            transient_retries: retries,
            elapsed,
        }
    }
}

/// A [`ChunkSink`] that ships a streaming checkpoint straight to a remote
/// peer: chunks are hashed locally, negotiated in [`HAS_CHUNKS_BATCH`]
/// batches, and only missing content is framed and shipped; the manifest
/// is published last, under an id the *peer* assigns.
///
/// Chunk boundaries and manifest assembly are
/// [`crate::writer::StreamWriter`]'s exactly (one `ManifestBuilder`), so
/// a checkpoint streamed remotely dedups against images the peer received
/// from any source.  Resumable by construction: a failed stream publishes
/// no manifest, and a retried checkpoint re-negotiates — chunks that
/// already landed are skipped, not re-sent.
pub struct RemoteChunkSink<'t> {
    transport: &'t dyn Transport,
    /// Peer-side parent for the published manifest's lineage.
    parent: Option<ImageId>,
    started: Instant,
    /// Region/chunk/payload bookkeeping shared with the local writer.
    book: ManifestBuilder,
    /// Chunks awaiting their negotiation batch (bounded:
    /// [`HAS_CHUNKS_BATCH`] chunks of ≤[`crate::chunk::CHUNK_PAGES`] pages
    /// each).
    staged: Vec<StagedChunk>,
    /// Every distinct hash this stream has seen: the `chunks_total`
    /// accounting, and the in-stream dedup — a hash is staged (and so
    /// negotiated/shipped) at most once per stream.
    seen: HashSet<ContentHash>,
    obs: ShipObs,
}

impl<'t> RemoteChunkSink<'t> {
    /// Opens a remote checkpoint stream over `transport`.  `parent` is the
    /// *peer-side* id recorded as the published manifest's lineage (or
    /// `None` for a fresh chain — chunk-level dedup applies either way).
    pub fn new(transport: &'t dyn Transport, parent: Option<ImageId>) -> Self {
        Self::with_obs(transport, parent, ObsRegistry::new())
    }

    /// Like [`RemoteChunkSink::new`], but recording into `obs`: shipping
    /// metrics are folded into it when the stream finishes, and
    /// ship/dedup/retry events land on it live, so a coordinator-held
    /// registry observes the remote checkpoint while it streams.
    pub fn with_obs(
        transport: &'t dyn Transport,
        parent: Option<ImageId>,
        obs: ObsRegistry,
    ) -> Self {
        Self {
            transport,
            parent,
            // crac-lint: allow(raw-instant) — wall-clock anchor for ship stats, not a stage timing
            started: Instant::now(),
            book: ManifestBuilder::default(),
            staged: Vec::new(),
            seen: HashSet::new(),
            obs: ShipObs::new(obs),
        }
    }

    /// Stamps the manifest's `taken_at_ns` (virtual checkpoint-completion
    /// time).  May be called at any point before [`RemoteChunkSink::finish`].
    pub fn set_taken_at(&mut self, ns: u64) {
        self.book.taken_at_ns = ns;
    }

    /// Hashes packed chunks into the manifest and stages content new to
    /// this stream for negotiation.
    fn stage_chunks(&mut self, packed: Vec<PackedChunk>) -> Result<(), StoreError> {
        for (slot, raw) in packed {
            let hash = ContentHash::of(&raw);
            self.book.set_hash(slot, hash);
            self.obs.raw_chunk_bytes.add(raw.len() as u64);
            // An in-stream twin references content already staged (or
            // shipped or confirmed present): the manifest entry is all it
            // costs.  `chunks_total` counts distinct content, matching
            // [`ImageStore::replicate_to`]'s accounting.
            if !self.seen.insert(hash) {
                continue;
            }
            self.obs.chunks_total.inc();
            self.staged.push(StagedChunk { hash, raw });
            if self.staged.len() >= HAS_CHUNKS_BATCH {
                self.ship_staged()?;
            }
        }
        Ok(())
    }

    /// Negotiates and ships the staged batch; a chunk file is only framed
    /// once the peer said it is missing.
    fn ship_staged(&mut self) -> Result<(), StoreError> {
        let staged = std::mem::take(&mut self.staged);
        let hashes: Vec<ContentHash> = staged.iter().map(|c| c.hash).collect();
        self.obs
            .negotiate_and_ship(self.transport, &hashes, |i| Ok(frame_chunk(&staged[i].raw)))
    }

    /// Completes the stream: ships the final batch, publishes the
    /// manifest on the peer (strictly after every chunk landed) and
    /// returns the peer-assigned image id plus the shipping stats.
    pub fn finish(mut self) -> Result<(ImageId, ReplicateStats), StoreError> {
        // The peer owns id allocation (0 is the "unassigned" sentinel it
        // rewrites on adoption) and records the lineage itself.
        let manifest = std::mem::take(&mut self.book).finish(ImageId(0), None)?;
        self.ship_staged()?;
        let id = self
            .obs
            .put_manifest(self.transport, &manifest.to_bytes(), self.parent)?;
        let stats = self.obs.finish_stats(self.started.elapsed());
        self.obs.events.event(
            EventKind::CheckpointFinished,
            format!(
                "remote image={id} chunks={} shipped={} deduped={} bytes_shipped={}",
                stats.chunks_total, stats.chunks_shipped, stats.chunks_deduped, stats.bytes_shipped
            ),
        );
        Ok((id, stats))
    }
}

impl ChunkSink for RemoteChunkSink<'_> {
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError> {
        self.book.begin_region(desc)
    }

    fn push_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), StoreError> {
        let packed = self.book.push_run(run, bytes)?;
        self.stage_chunks(packed)
    }

    fn end_region(&mut self) -> Result<(), StoreError> {
        let (_, tail) = self.book.end_region()?;
        self.stage_chunks(tail)
    }

    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.book.push_payload(name, data);
        Ok(())
    }
}

impl ImageStore {
    /// Pushes image `id` to the peer behind `transport`, shipping only the
    /// chunks the peer is missing (batched `has_chunks` negotiation) as
    /// verbatim chunk files, then publishing the manifest —
    /// strictly last, so a crashed replication leaves at most orphan
    /// chunks on the peer, never a visible torn image.  Returns the
    /// peer-assigned id of the replica.
    ///
    /// Resumable: re-running after any interruption re-negotiates and
    /// ships exactly the chunks that have not landed yet (a completed
    /// replica re-replicates for the cost of the negotiation alone —
    /// zero chunks travel).  Works on read-only stores: replication out
    /// of a store a live writer holds is a reader-side operation.
    pub fn replicate_to(
        &self,
        id: ImageId,
        transport: &dyn Transport,
    ) -> Result<(ImageId, ReplicateStats), StoreError> {
        // crac-lint: allow(raw-instant) — whole-replication wall time lands in ReplicateStats
        let started = Instant::now();
        // One read serves both the chunk walk and the final publication —
        // the manifest cannot vanish (or change) between the two.
        let manifest_bytes = self.read_manifest_bytes(id)?;
        let manifest = Manifest::from_bytes(&manifest_bytes)
            .map_err(|e| StoreError::manifest(self.image_path(id), e))?;
        let obs = ShipObs::new(self.obs());

        // Distinct hashes in first-reference order.
        let mut hashes: Vec<ContentHash> = Vec::new();
        let mut raw_lens: Vec<u64> = Vec::new();
        let mut seen: HashSet<ContentHash> = HashSet::new();
        for chunk in manifest.chunk_refs() {
            obs.raw_chunk_bytes.add(chunk.raw_len);
            if seen.insert(chunk.hash) {
                hashes.push(chunk.hash);
                raw_lens.push(chunk.raw_len);
            }
        }
        obs.chunks_total.add(hashes.len() as u64);

        for (batch, raw_lens) in hashes
            .chunks(HAS_CHUNKS_BATCH)
            .zip(raw_lens.chunks(HAS_CHUNKS_BATCH))
        {
            obs.negotiate_and_ship(transport, batch, |i| {
                let file_bytes = self.read_chunk_file_bytes(batch[i])?;
                // Never ship bytes we would not accept ourselves: verify
                // the local chunk (in place) before it crosses the wire, so
                // a locally corrupted store fails the replication loudly
                // instead of poisoning the peer.
                let path = self.chunk_path(batch[i]);
                verify_chunk_file_bytes(&path, &file_bytes, batch[i], raw_lens[i])?;
                Ok(file_bytes)
            })?;
        }

        // Chunks all landed: publish the manifest (its verbatim file
        // bytes — the peer re-verifies the CRC and rewrites the identity).
        let remote_id = obs.put_manifest(transport, &manifest_bytes, None)?;
        let stats = obs.finish_stats(started.elapsed());
        Ok((remote_id, stats))
    }

    /// Pulls remote image `remote_id` from the peer behind `transport`
    /// into this store: fetches the manifest, fetches and fully verifies
    /// the chunks missing locally (each made visible only via atomic
    /// rename), then adopts the manifest under a fresh local id — the
    /// pull mirror of [`ImageStore::replicate_to`], equally resumable.
    pub fn replicate_from(
        &self,
        transport: &dyn Transport,
        remote_id: ImageId,
    ) -> Result<(ImageId, ReplicateStats), StoreError> {
        self.check_writable()?;
        // Hold the writer gate for the *whole* pull, exactly like a local
        // streaming write: a concurrent deletion sweep must not reclaim
        // the just-ingested (still manifest-less) chunks mid-replication
        // and fail the final manifest adoption spuriously.
        let _writing = self.writer_guard();
        // crac-lint: allow(raw-instant) — whole-pull wall time lands in ReplicateStats
        let started = Instant::now();
        let obs = ShipObs::new(self.obs());
        let manifest_bytes =
            obs.with_retry("get_manifest", || transport.get_manifest(remote_id))?;
        let label = PathBuf::from(format!("remote:{remote_id}"));
        let manifest =
            Manifest::from_bytes(&manifest_bytes).map_err(|e| StoreError::manifest(&label, e))?;

        let mut seen: HashSet<ContentHash> = HashSet::new();
        for chunk in manifest.chunk_refs() {
            obs.raw_chunk_bytes.add(chunk.raw_len);
            if !seen.insert(chunk.hash) {
                continue;
            }
            obs.chunks_total.inc();
            if self.contains_chunk(chunk.hash) {
                obs.chunks_deduped.inc();
                continue;
            }
            let file_bytes = obs.with_retry("get_chunk", || transport.get_chunk(chunk.hash))?;
            // The locked ingest re-verifies (CRC, content hash)
            // before the atomic rename publishes the chunk; we already
            // hold the writer gate, so the `_locked` variant avoids a
            // recursive read-lock.
            self.ingest_chunk_file_locked(chunk.hash, &file_bytes)?;
            obs.chunks_shipped.inc();
            obs.bytes_shipped.add(file_bytes.len() as u64);
        }

        let id = self.adopt_manifest_locked(&manifest_bytes, None)?;
        obs.run
            .counter("crac_remote_manifest_bytes")
            .add(manifest_bytes.len() as u64);
        let stats = obs.finish_stats(started.elapsed());
        obs.events.event(
            EventKind::ChunkShipped,
            format!(
                "pull remote={remote_id} local={id} chunks={} pulled={} deduped={} bytes={}",
                stats.chunks_total, stats.chunks_shipped, stats.chunks_deduped, stats.bytes_shipped
            ),
        );
        Ok((id, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::transport::LoopbackTransport;
    use crac_addrspace::{Addr, PAGE_SIZE};

    fn descriptor() -> RegionDescriptor {
        RegionDescriptor {
            start: Addr(0x4000_0000_0000),
            len: 4 * PAGE_SIZE,
            prot: crac_addrspace::Prot::RW,
            label: "misuse".into(),
        }
    }

    /// Regression (PR 5 bug): sink misuse used to `expect`-panic (or pass
    /// silently in release, where the `debug_assert!` ordering checks
    /// compiled out).  Every violation must now surface as a
    /// [`StoreError::Protocol`] error — never abort the process.
    #[test]
    fn sink_misuse_is_an_error_not_a_panic() {
        let dir = TempDir::new("sink-misuse");
        let store = ImageStore::open(dir.path()).unwrap();
        let transport = LoopbackTransport::new(&store);
        let page = vec![0u8; PAGE_SIZE as usize];

        // push_run before any begin_region.
        let mut sink = RemoteChunkSink::new(&transport, None);
        let err = sink
            .push_run(PageRun { first: 0, count: 1 }, &page)
            .unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");
        assert!(!err.is_transient() && !err.is_corruption());

        // begin_region while one is already open.
        let mut sink = RemoteChunkSink::new(&transport, None);
        sink.begin_region(&descriptor()).unwrap();
        let err = sink.begin_region(&descriptor()).unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // end_region without begin.
        let mut sink = RemoteChunkSink::new(&transport, None);
        let err = sink.end_region().unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // A run whose payload disagrees with its declared page count.
        let mut sink = RemoteChunkSink::new(&transport, None);
        sink.begin_region(&descriptor()).unwrap();
        let err = sink
            .push_run(PageRun { first: 0, count: 2 }, &page)
            .unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // finish with a region still open.
        let mut sink = RemoteChunkSink::new(&transport, None);
        sink.begin_region(&descriptor()).unwrap();
        sink.push_run(PageRun { first: 0, count: 1 }, &page)
            .unwrap();
        let err = sink.finish().unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // Nothing landed on the peer from any of the broken streams.
        assert_eq!(store.stats().unwrap().images, 0);
        assert_eq!(transport.stats().manifests_put, 0);
    }

    /// A well-formed stream still publishes after the misuse checks.
    #[test]
    fn well_formed_stream_still_finishes() {
        let dir = TempDir::new("sink-ok");
        let store = ImageStore::open(dir.path()).unwrap();
        let transport = LoopbackTransport::new(&store);
        let mut sink = RemoteChunkSink::new(&transport, None);
        sink.begin_region(&descriptor()).unwrap();
        let mut page = vec![7u8; PAGE_SIZE as usize];
        page[0] = 1;
        sink.push_run(PageRun { first: 0, count: 1 }, &page)
            .unwrap();
        sink.end_region().unwrap();
        sink.push_payload("crac", b"payload").unwrap();
        let (id, stats) = sink.finish().unwrap();
        assert_eq!(stats.chunks_shipped, 1);
        assert!(store.contains_image(id));
    }
}
