//! Remote replication over a [`Transport`]: dedup-aware shipping on the
//! write side, verified parallel fetching on the restore side.
//!
//! Four entry points, all transport-agnostic:
//!
//! * [`ImageStore::replicate_to`] — push one stored image to a peer,
//!   restic/borg-style: batched `has_chunks` negotiation first, then only
//!   the chunks the peer is missing travel (as verbatim encoded chunk
//!   files — no decode/re-encode on the hot path), and the manifest is
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
//!   chunked and hashed exactly like [`crate::writer::StreamWriter`]
//!   (same boundaries ⇒ same hashes ⇒ dedup against anything the peer
//!   already holds, local- or remote-written).
//! * [`RemoteChunkSource`] — a [`ChunkSource`] whose chunks arrive via
//!   `get_chunk`: the *same* parallel fetch/verify/splice pipeline as the
//!   local [`crate::reader::StreamReader`] (one code path —
//!   [`crate::reader::run_fetch_pipeline`]), so remote restores get the
//!   bounded-memory guarantee and full integrity checking for free, plus
//!   bounded retry on transient transport faults.
//!
//! Everything that crosses the wire is verified on arrival — the
//! receiving side never trusts the sender (chunk CRC, decode, content
//! hash; manifest CRC; chunks-before-manifest ordering) — so a crashed or
//! faulty replication can never leave a torn image visible.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crac_addrspace::{PageRun, PAGE_SIZE};
use crac_dmtcp::RegionDescriptor;
use crac_obs::{Counter, EventKind, ObsRegistry, Span};

use crate::chunk::RunChunker;
use crate::codec::{encode, Compression};
use crate::error::StoreError;
use crate::format::{ChunkEntry, ChunkFile, Manifest, RegionEntry};
use crate::hash::ContentHash;
use crate::pipeline::Gauge;
use crate::reader::{
    build_fetch_plan, declare_manifest, run_fetch_pipeline, verify_chunk_file_bytes, ChunkFetch,
    ReadStats, ReaderObs,
};
use crate::store::{ImageId, ImageStore};
use crate::stream::{ChunkSink, ChunkSource, RegionSink};
use crate::transport::{with_transient_retry_observed, RetryObs, Transport, HAS_CHUNKS_BATCH};

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
    /// Raw (decoded) bytes across the image's chunk *references*
    /// (repeats included: the image's logical chunk payload).
    pub raw_chunk_bytes: u64,
    /// Encoded chunk-file bytes that actually crossed the transport.
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
    chunks_total: Counter,
    chunks_shipped: Counter,
    chunks_deduped: Counter,
    raw_chunk_bytes: Counter,
    bytes_shipped: Counter,
    has_batches: Counter,
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
            run,
            events,
        }
    }

    /// Retry observation for one transport operation.
    fn retry(&self, op: &'static str) -> RetryObs {
        RetryObs {
            reg: self.events.clone(),
            op,
        }
    }

    /// One negotiation batch settled: count it and surface non-empty
    /// ship/dedup outcomes as events (per batch, not per chunk, so a
    /// large image cannot flood the bounded ring).
    fn batch_settled(&self, shipped: usize, shipped_bytes: u64, deduped: usize) {
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
    }

    /// Ends the run: folds the run registry into the long-lived one and
    /// returns [`ReplicateStats`] as a view over the final snapshot.
    fn finish_stats(&self, retries: &AtomicUsize, elapsed: Duration) -> ReplicateStats {
        self.run
            .counter("crac_remote_transient_retries")
            .add(retries.load(Ordering::Relaxed) as u64);
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
            transient_retries: retries.load(Ordering::Relaxed),
            elapsed,
        }
    }
}

/// A `has_chunks` reply of the wrong length is a *protocol* defect in the
/// peer, not weather: it will fail identically on every retry, so it is
/// classified as permanent ([`StoreError::Protocol`]), never transient.
fn protocol_violation(asked: usize, answered: usize) -> StoreError {
    StoreError::protocol(format!(
        "peer answered {answered} has_chunks flags for {asked} hashes"
    ))
}

/// A [`ChunkSink`] that ships a streaming checkpoint straight to a remote
/// peer: chunks are hashed locally, negotiated in [`HAS_CHUNKS_BATCH`]
/// batches, and only missing content is encoded and shipped; the manifest
/// is published last, under an id the *peer* assigns.
///
/// Chunk boundaries replicate [`crate::writer::StreamWriter`]'s exactly,
/// so a checkpoint streamed remotely dedups against images the peer
/// received from any source.  Resumable by construction: a failed stream
/// publishes no manifest, and a retried checkpoint re-negotiates — chunks
/// that already landed are skipped, not re-sent.
pub struct RemoteChunkSink<'t> {
    transport: &'t dyn Transport,
    compression: Compression,
    /// Peer-side parent for the published manifest's lineage.
    parent: Option<ImageId>,
    taken_at_ns: u64,
    started: Instant,
    retries: AtomicUsize,

    // Chunker for the currently open region: the same shared
    // [`RunChunker`] the local writer uses, so content hashes line up.
    cur_region: Option<usize>,
    chunker: RunChunker,

    /// Chunks awaiting their negotiation batch (bounded:
    /// [`HAS_CHUNKS_BATCH`] chunks of ≤[`crate::chunk::CHUNK_PAGES`] pages
    /// each).
    staged: Vec<StagedChunk>,
    /// Every distinct hash this stream has seen: the `chunks_total`
    /// accounting, and the in-stream dedup — a hash is staged (and so
    /// negotiated/shipped) at most once per stream.
    seen: HashSet<ContentHash>,

    // Manifest accumulation.
    regions: Vec<RegionDescriptor>,
    chunks: Vec<Vec<ChunkEntry>>,
    payloads: Vec<(String, Vec<u8>)>,
    obs: ShipObs,
}

impl<'t> RemoteChunkSink<'t> {
    /// Opens a remote checkpoint stream over `transport`.  `parent` is the
    /// *peer-side* id recorded as the published manifest's lineage (or
    /// `None` for a fresh chain — chunk-level dedup applies either way).
    pub fn new(
        transport: &'t dyn Transport,
        compression: Compression,
        parent: Option<ImageId>,
    ) -> Self {
        Self::with_obs(transport, compression, parent, ObsRegistry::new())
    }

    /// Like [`RemoteChunkSink::new`], but recording into `obs`: shipping
    /// metrics are folded into it when the stream finishes, and
    /// ship/dedup/retry events land on it live, so a coordinator-held
    /// registry observes the remote checkpoint while it streams.
    pub fn with_obs(
        transport: &'t dyn Transport,
        compression: Compression,
        parent: Option<ImageId>,
        obs: ObsRegistry,
    ) -> Self {
        Self {
            transport,
            compression,
            parent,
            taken_at_ns: 0,
            // crac-lint: allow(raw-instant) — wall-clock anchor for ship stats, not a stage timing
            started: Instant::now(),
            retries: AtomicUsize::new(0),
            cur_region: None,
            chunker: RunChunker::default(),
            staged: Vec::new(),
            seen: HashSet::new(),
            regions: Vec::new(),
            chunks: Vec::new(),
            payloads: Vec::new(),
            obs: ShipObs::new(obs),
        }
    }

    /// Stamps the manifest's `taken_at_ns` (virtual checkpoint-completion
    /// time).  May be called at any point before [`RemoteChunkSink::finish`].
    pub fn set_taken_at(&mut self, ns: u64) {
        self.taken_at_ns = ns;
    }

    /// Records one packed chunk into the manifest and, if its content is
    /// new to this stream, stages it for negotiation.
    ///
    /// A chunk emitted outside any region is a producer protocol
    /// violation: it surfaces as [`StoreError::Protocol`] — an error on
    /// the wire, never a process abort (this sink sits behind network
    /// servers, where a misbehaving remote producer must not be able to
    /// take the serving process down).
    fn stage_chunk(&mut self, runs: Vec<PageRun>, raw: Vec<u8>) -> Result<(), StoreError> {
        let region_seq = self
            .cur_region
            .ok_or_else(|| StoreError::protocol("chunk emitted outside any open region"))?;
        let hash = ContentHash::of(&raw);
        self.obs.raw_chunk_bytes.add(raw.len() as u64);
        self.chunks[region_seq].push(ChunkEntry {
            runs,
            hash,
            raw_len: raw.len() as u64,
        });
        // An in-stream twin references content already staged (or shipped
        // or confirmed present): the manifest entry above is all it
        // costs.  `chunks_total` counts distinct content, matching
        // [`ImageStore::replicate_to`]'s accounting.
        if !self.seen.insert(hash) {
            return Ok(());
        }
        self.obs.chunks_total.inc();
        self.staged.push(StagedChunk { hash, raw });
        if self.staged.len() >= HAS_CHUNKS_BATCH {
            self.negotiate_and_ship()?;
        }
        Ok(())
    }

    /// One round of the dedup negotiation: ask the peer which staged
    /// hashes it is missing, ship exactly those, drop the rest.
    fn negotiate_and_ship(&mut self) -> Result<(), StoreError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let staged = std::mem::take(&mut self.staged);
        // Staged hashes are distinct by construction (`seen`), so the
        // whole batch is the query.
        let to_query: Vec<ContentHash> = staged.iter().map(|c| c.hash).collect();
        self.obs.has_batches.inc();
        let transport = self.transport;
        let retry = self.obs.retry("has_chunks");
        let present = with_transient_retry_observed(
            &self.retries,
            || false,
            Some(&retry),
            || transport.has_chunks(&to_query),
        )?;
        if present.len() != to_query.len() {
            return Err(protocol_violation(to_query.len(), present.len()));
        }
        let retry = self.obs.retry("put_chunk");
        let (mut shipped, mut shipped_bytes, mut deduped) = (0usize, 0u64, 0usize);
        for (chunk, is_present) in staged.into_iter().zip(present) {
            if is_present {
                // The peer already had this content.
                self.obs.chunks_deduped.inc();
                deduped += 1;
                continue;
            }
            let raw_len = chunk.raw.len() as u64;
            let (encoding, encoded) = encode(&chunk.raw, self.compression);
            drop(chunk.raw);
            let file_bytes = ChunkFile {
                encoding,
                raw_len,
                encoded,
            }
            .to_bytes();
            with_transient_retry_observed(
                &self.retries,
                || false,
                Some(&retry),
                || transport.put_chunk(chunk.hash, &file_bytes),
            )?;
            self.obs.chunks_shipped.inc();
            self.obs.bytes_shipped.add(file_bytes.len() as u64);
            shipped += 1;
            shipped_bytes += file_bytes.len() as u64;
        }
        self.obs.batch_settled(shipped, shipped_bytes, deduped);
        Ok(())
    }

    /// Completes the stream: ships the final batch, publishes the
    /// manifest on the peer (strictly after every chunk landed) and
    /// returns the peer-assigned image id plus the shipping stats.
    pub fn finish(mut self) -> Result<(ImageId, ReplicateStats), StoreError> {
        if self.cur_region.is_some() || !self.chunker.is_empty() {
            return Err(StoreError::protocol(
                "finish called with a region still open",
            ));
        }
        self.negotiate_and_ship()?;

        // Drop chunk entries fully superseded by later rounds' re-emitted
        // runs (mirrors the local writer's manifest trim; already-shipped
        // content stays on the peer — valid, unreferenced, sweepable).
        for chunks in self.chunks.iter_mut() {
            crate::chunk::trim_superseded(chunks, |c| c.runs.as_slice());
        }

        // Deterministic manifest regardless of producer payload order
        // (mirrors the local writer).
        self.payloads.sort_by(|(a, _), (b, _)| a.cmp(b));
        let manifest = Manifest {
            // The peer owns id allocation; 0 is the "unassigned" sentinel
            // it rewrites on adoption.
            image_id: ImageId(0),
            parent: None,
            taken_at_ns: self.taken_at_ns,
            compression: self.compression,
            regions: self
                .regions
                .iter()
                .zip(self.chunks.iter())
                .map(|(desc, chunks)| RegionEntry {
                    start: desc.start.as_u64(),
                    len: desc.len,
                    prot: desc.prot,
                    label: desc.label.clone(),
                    chunks: chunks.clone(),
                })
                .collect(),
            payloads: std::mem::take(&mut self.payloads),
        };
        let bytes = manifest.to_bytes();
        let parent = self.parent;
        let transport = self.transport;
        let retry = self.obs.retry("put_manifest");
        let id = with_transient_retry_observed(
            &self.retries,
            || false,
            Some(&retry),
            || transport.put_manifest(&bytes, parent),
        )?;
        self.obs
            .run
            .counter("crac_remote_manifest_bytes")
            .add(bytes.len() as u64);
        let stats = self.obs.finish_stats(&self.retries, self.started.elapsed());
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
    // Ordering violations are real errors, not debug assertions: this
    // sink is driven by remote producers (a checkpoint streaming in over
    // a socket), and a misbehaving producer must surface as an error on
    // the wire — release builds used to compile the checks out and then
    // panic (or corrupt the manifest) further down.
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError> {
        if self.cur_region.is_some() {
            return Err(StoreError::protocol(
                "begin_region while a region is already open",
            ));
        }
        // A start address seen before re-opens that region: a pre-copy
        // producer appending a later round's re-dirtied runs (mirrors the
        // local writer — later chunk entries win at restore).
        let existing = self.regions.iter().position(|r| r.start == desc.start);
        self.cur_region = Some(match existing {
            Some(idx) => idx,
            None => {
                self.regions.push(desc.clone());
                self.chunks.push(Vec::new());
                self.regions.len() - 1
            }
        });
        Ok(())
    }

    fn push_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), StoreError> {
        if self.cur_region.is_none() {
            return Err(StoreError::protocol("push_run outside any open region"));
        }
        if bytes.len() as u64 != run.count * PAGE_SIZE {
            return Err(StoreError::protocol(format!(
                "push_run payload is {} bytes but the run declares {} pages",
                bytes.len(),
                run.count
            )));
        }
        // The shared RunChunker guarantees writer-identical boundaries,
        // so content hashes — and therefore cross-node dedup — are
        // stable by construction.
        let mut chunker = std::mem::take(&mut self.chunker);
        let result = chunker.push(run, bytes, &mut |runs, raw| self.stage_chunk(runs, raw));
        self.chunker = chunker;
        result
    }

    fn end_region(&mut self) -> Result<(), StoreError> {
        if self.cur_region.is_none() {
            return Err(StoreError::protocol("end_region without begin_region"));
        }
        let mut chunker = std::mem::take(&mut self.chunker);
        let result = chunker.flush(&mut |runs, raw| self.stage_chunk(runs, raw));
        self.chunker = chunker;
        result?;
        self.cur_region = None;
        Ok(())
    }

    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.payloads.push((name.to_string(), data.to_vec()));
        Ok(())
    }
}

/// [`ChunkFetch`] over a transport: `get_chunk`, then the same
/// verification ladder the local fetch runs (CRC → decode → content
/// hash) — a faulty peer surfaces as corruption, never as wrong memory.
pub(crate) struct RemoteFetch<'t> {
    pub(crate) transport: &'t dyn Transport,
    pub(crate) label: PathBuf,
}

impl RemoteFetch<'_> {
    /// The shared get → verify ladder behind both fetch flavours.
    fn fetch_with(
        &self,
        get: impl FnOnce() -> Result<Vec<u8>, StoreError>,
        hash: ContentHash,
        raw_len: u64,
        gauge: &Gauge,
        obs: &ReaderObs,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        let stage = Span::enter(&obs.stage_fetch);
        let bytes = get()?;
        stage.finish();
        let wire_bytes = bytes.len() as u64;
        gauge.add(wire_bytes);
        let stage = Span::enter(&obs.stage_verify);
        let result = verify_chunk_file_bytes(&self.label, &bytes, hash, raw_len, gauge);
        stage.finish();
        drop(bytes);
        gauge.sub(wire_bytes);
        result.map(|raw| (raw, wire_bytes))
    }
}

impl ChunkFetch for RemoteFetch<'_> {
    fn fetch(
        &self,
        hash: ContentHash,
        raw_len: u64,
        gauge: &Gauge,
        obs: &ReaderObs,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        self.fetch_with(|| self.transport.get_chunk(hash), hash, raw_len, gauge, obs)
    }

    // A fault-path fetch jumps the transport's per-connection queueing
    // (the pooled TCP client reserves a connection for these); the
    // verification ladder is identical.
    fn fetch_priority(
        &self,
        hash: ContentHash,
        raw_len: u64,
        gauge: &Gauge,
        obs: &ReaderObs,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        self.fetch_with(
            || self.transport.get_chunk_priority(hash),
            hash,
            raw_len,
            gauge,
            obs,
        )
    }
}

/// A [`ChunkSource`] streaming a remote image: the restore-side mirror of
/// [`RemoteChunkSink`].  Construction fetches and CRC-verifies the
/// manifest only (descriptors, payloads and the timestamp are available
/// before any content moves); [`ChunkSource::stream_out`] then runs the
/// shared parallel fetch pipeline against the transport — with bounded
/// retry on transient faults — and splices verified chunks into the sink
/// as they arrive, under the same
/// [`crate::reader::restore_buffer_bound`] memory bound as a local
/// restore.
pub struct RemoteChunkSource<'t> {
    pub(crate) transport: &'t dyn Transport,
    pub(crate) manifest: Manifest,
    pub(crate) label: PathBuf,
    pub(crate) obs: ReaderObs,
    pub(crate) stats: ReadStats,
}

impl<'t> RemoteChunkSource<'t> {
    /// Fetches and verifies the manifest of remote image `id`.
    pub fn open(transport: &'t dyn Transport, id: ImageId) -> Result<Self, StoreError> {
        Self::open_with_obs(transport, id, ObsRegistry::new())
    }

    /// Like [`RemoteChunkSource::open`], but recording into `obs`: the
    /// restore's metrics are folded into it when the stream completes,
    /// and restore/retry events land on it live.
    pub fn open_with_obs(
        transport: &'t dyn Transport,
        id: ImageId,
        obs: ObsRegistry,
    ) -> Result<Self, StoreError> {
        let obs = ReaderObs::new(obs);
        let retries = AtomicUsize::new(0);
        let retry = obs.retry("get_manifest");
        let bytes = with_transient_retry_observed(
            &retries,
            || false,
            Some(&retry),
            || transport.get_manifest(id),
        )?;
        let label = PathBuf::from(format!("remote:{id}"));
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
            transport,
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
    /// fetching a single chunk).
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

impl ChunkSource for RemoteChunkSource<'_> {
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
        declare_manifest(&self.manifest, sink)?;
        let (plan, refs_total) = build_fetch_plan(&self.manifest, &self.label)?;
        self.obs
            .run
            .counter("crac_reader_chunks_cached")
            .add((refs_total - plan.len()) as u64);
        let fetcher = RemoteFetch {
            transport: self.transport,
            label: self.label.clone(),
        };
        let result = run_fetch_pipeline(&plan, sink, &fetcher, &self.obs);
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

impl ImageStore {
    /// Pushes image `id` to the peer behind `transport`, shipping only the
    /// chunks the peer is missing (batched `has_chunks` negotiation) as
    /// verbatim encoded chunk files, then publishing the manifest —
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
        let manifest_path = self.image_path(id);
        let manifest_bytes = match std::fs::read(&manifest_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::UnknownImage(id))
            }
            Err(e) => return Err(StoreError::io(&manifest_path, e)),
        };
        let manifest = Manifest::from_bytes(&manifest_bytes)
            .map_err(|e| StoreError::manifest(&manifest_path, e))?;
        let obs = ShipObs::new(self.obs());
        let retries = AtomicUsize::new(0);

        // Distinct hashes in first-reference order.
        let mut hashes: Vec<(ContentHash, u64)> = Vec::new();
        let mut seen: HashSet<ContentHash> = HashSet::new();
        for chunk in manifest.chunk_refs() {
            obs.raw_chunk_bytes.add(chunk.raw_len);
            if seen.insert(chunk.hash) {
                hashes.push((chunk.hash, chunk.raw_len));
            }
        }
        obs.chunks_total.add(hashes.len() as u64);

        for batch in hashes.chunks(HAS_CHUNKS_BATCH) {
            let query: Vec<ContentHash> = batch.iter().map(|(h, _)| *h).collect();
            obs.has_batches.inc();
            let retry = obs.retry("has_chunks");
            let present = with_transient_retry_observed(
                &retries,
                || false,
                Some(&retry),
                || transport.has_chunks(&query),
            )?;
            if present.len() != query.len() {
                return Err(protocol_violation(query.len(), present.len()));
            }
            let retry = obs.retry("put_chunk");
            let (mut shipped, mut shipped_bytes, mut deduped) = (0usize, 0u64, 0usize);
            for (&(hash, raw_len), is_present) in batch.iter().zip(present) {
                if is_present {
                    obs.chunks_deduped.inc();
                    deduped += 1;
                    continue;
                }
                let path = self.chunk_path(hash);
                let file_bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
                // Never ship bytes we would not accept ourselves: verify
                // the local chunk before it crosses the wire, so a locally
                // corrupted store fails the replication loudly instead of
                // poisoning the peer.
                let gauge = Gauge::default();
                verify_chunk_file_bytes(&path, &file_bytes, hash, raw_len, &gauge)?;
                with_transient_retry_observed(
                    &retries,
                    || false,
                    Some(&retry),
                    || transport.put_chunk(hash, &file_bytes),
                )?;
                obs.chunks_shipped.inc();
                obs.bytes_shipped.add(file_bytes.len() as u64);
                shipped += 1;
                shipped_bytes += file_bytes.len() as u64;
            }
            obs.batch_settled(shipped, shipped_bytes, deduped);
        }

        // Chunks all landed: publish the manifest (its verbatim file
        // bytes — the peer re-verifies the CRC and rewrites the identity).
        let retry = obs.retry("put_manifest");
        let remote_id = with_transient_retry_observed(
            &retries,
            || false,
            Some(&retry),
            || transport.put_manifest(&manifest_bytes, None),
        )?;
        obs.run
            .counter("crac_remote_manifest_bytes")
            .add(manifest_bytes.len() as u64);
        let stats = obs.finish_stats(&retries, started.elapsed());
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
        let retries = AtomicUsize::new(0);
        let retry = obs.retry("get_manifest");
        let manifest_bytes = with_transient_retry_observed(
            &retries,
            || false,
            Some(&retry),
            || transport.get_manifest(remote_id),
        )?;
        let label = PathBuf::from(format!("remote:{remote_id}"));
        let manifest =
            Manifest::from_bytes(&manifest_bytes).map_err(|e| StoreError::manifest(&label, e))?;

        let retry = obs.retry("get_chunk");
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
            let file_bytes = with_transient_retry_observed(
                &retries,
                || false,
                Some(&retry),
                || transport.get_chunk(chunk.hash),
            )?;
            // The locked ingest re-verifies (CRC, decode, content hash)
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
        let stats = obs.finish_stats(&retries, started.elapsed());
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
    use crac_addrspace::Addr;

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
        let mut sink = RemoteChunkSink::new(&transport, Compression::None, None);
        let err = sink
            .push_run(PageRun { first: 0, count: 1 }, &page)
            .unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");
        assert!(!err.is_transient() && !err.is_corruption());

        // begin_region while one is already open.
        let mut sink = RemoteChunkSink::new(&transport, Compression::None, None);
        sink.begin_region(&descriptor()).unwrap();
        let err = sink.begin_region(&descriptor()).unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // end_region without begin.
        let mut sink = RemoteChunkSink::new(&transport, Compression::None, None);
        let err = sink.end_region().unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // A run whose payload disagrees with its declared page count.
        let mut sink = RemoteChunkSink::new(&transport, Compression::None, None);
        sink.begin_region(&descriptor()).unwrap();
        let err = sink
            .push_run(PageRun { first: 0, count: 2 }, &page)
            .unwrap_err();
        assert!(matches!(err, StoreError::Protocol { .. }), "got: {err}");

        // finish with a region still open.
        let mut sink = RemoteChunkSink::new(&transport, Compression::None, None);
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
        let mut sink = RemoteChunkSink::new(&transport, Compression::None, None);
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
