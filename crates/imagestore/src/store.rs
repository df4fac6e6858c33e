//! The store: a directory of content-addressed chunks plus image manifests.
//!
//! ```text
//! <root>/
//!   store.lock                          writer-process lock (PID-keyed)
//!   chunks/<32-hex-content-hash>.chk    shared, content-addressed
//!   images/<16-hex-image-id>.crimg      one manifest per checkpoint
//! ```
//!
//! The store is cheap to reopen: `open` scans the two directories to rebuild
//! the chunk index and the next image id, so a store outlives the process
//! that wrote it — the "persistent" in persistent image store.
//!
//! **Concurrency**: one `ImageStore` value is safe to share across threads
//! (`&self` methods; the index is mutex-protected, chunk files are
//! content-addressed and written via unique temp names).  Across
//! *processes*, [`ImageStore::open`] claims the `store.lock` file (see
//! [`crate::lock`]): a second live writer process is refused, a crashed
//! writer's stale lock is stolen, and [`ImageStore::open_read_only`]
//! bypasses the lock for restore-side consumers.
//!
//! **Writing** goes through the streaming pipeline
//! ([`ImageStore::stream_image`] / [`crate::writer::StreamWriter`]); the
//! materialised [`ImageStore::write_image`] is a convenience wrapper that
//! drives a [`CheckpointImage`] through the same pipeline.
//!
//! **Durability**, stated once.  A chunk is visible under its content-hash
//! name only with durable bytes (temp file → `fsync` → rename, on every
//! path).  The rename itself becomes durable with the next sync of the chunk
//! directory, and *every* manifest publication performs that sync first iff
//! a chunk was renamed since the last one
//! ([`ImageStore::sync_chunk_dir_before_manifest`] — the one place that
//! decides; `crac_store_chunk_dir_syncs` counts it).  After a crash:
//!
//! | acknowledged call     | guarantee                                                                                   |
//! |-----------------------|---------------------------------------------------------------------------------------------|
//! | `put_chunk`           | the chunk is whole or absent, never torn; an absent one is re-shipped by the next negotiation |
//! | `put_manifest`        | the manifest and every chunk it names are durable: the image restores                       |
//! | `stream_image` return | same as `put_manifest`, including chunks it only deduplicated against                       |
//!
//! **Deleting** ([`ImageStore::delete_image`], [`ImageStore::retain_last`])
//! reclaims chunks by reachability: after the doomed manifests are gone,
//! every chunk no surviving manifest references is removed — including
//! orphans left by aborted writes.  Deletion is refused while a streaming
//! write is in flight, so a half-written image's chunks can never be swept
//! out from under it.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crac_dmtcp::CheckpointImage;
use crac_obs::{EventKind, ObsRegistry};
use crac_sync::{Mutex, RwLock};

use crate::error::StoreError;
use crate::format::{parse_chunk, Manifest, CHUNK_HEADER_LEN};
use crate::hash::ContentHash;
use crate::lock;
use crate::reader::{self, ReadStats};
use crate::stream::RegionSource;
use crate::writer::{StreamWriter, WriteOptions, WriteStats};

/// Identifier of a stored image.  Ids start at 1 and are monotonically
/// increasing per store; 0 is reserved as the "no parent" sentinel on disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ImageId(pub u64);

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img-{:016x}", self.0)
    }
}

/// Summary of one stored image, as listed by [`ImageStore::list_images`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageInfo {
    /// The image's id.
    pub id: ImageId,
    /// Parent image if the checkpoint was incremental.
    pub parent: Option<ImageId>,
    /// Virtual time the checkpoint was taken.
    pub taken_at_ns: u64,
    /// Number of saved regions.
    pub regions: usize,
    /// Logical (uncompressed) image size in bytes.
    pub logical_bytes: u64,
    /// Distinct chunks the manifest references.
    pub chunk_refs: usize,
}

/// Aggregate store occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Stored images (manifests).
    pub images: usize,
    /// Distinct chunks in the store.
    pub chunks: usize,
    /// Total on-disk bytes of all chunk files.
    pub chunk_bytes: u64,
}

/// What one [`ImageStore::delete_image`] / [`ImageStore::retain_last`]
/// reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeleteStats {
    /// Manifests deleted.
    pub images_deleted: usize,
    /// Chunk files removed (unreferenced after the manifests went away,
    /// including orphans of aborted writes).
    pub chunks_deleted: usize,
    /// On-disk bytes those chunk files occupied.
    pub chunk_bytes_reclaimed: u64,
}

pub(crate) struct StoreIndex {
    known_chunks: HashSet<ContentHash>,
    next_image: u64,
}

impl StoreIndex {
    pub(crate) fn contains(&self, hash: ContentHash) -> bool {
        self.known_chunks.contains(&hash)
    }
}

/// The chunk index handle shared with pipeline worker threads.
pub(crate) type SharedIndex = Arc<Mutex<StoreIndex>>;

/// A persistent, deduplicating checkpoint-image store rooted at a directory.
pub struct ImageStore {
    root: PathBuf,
    chunks_dir: PathBuf,
    images_dir: PathBuf,
    index: SharedIndex,
    read_only: bool,
    /// Serialises streaming writes against deletion *without* a TOCTOU
    /// window: every in-flight [`StreamWriter`] holds a read guard for its
    /// whole lifetime, and deletion takes (tries) the write side — so a
    /// write beginning concurrently with a delete either starts before the
    /// sweep (delete returns `Busy`) or after it (and sees the post-sweep
    /// index), never in between.
    writer_gate: RwLock<()>,
    /// Whether a chunk was renamed into the chunk directory since its last
    /// sync (the module docs' durability rule).  Set at open: a crashed
    /// predecessor's unsynced renames look like any other chunk.  A mutex,
    /// not an atomic: a publisher that finds it clear must not pass while
    /// another publisher's sync is still running.
    chunk_dir_dirty: Mutex<bool>,
    /// The store's observability registry: every write/read pipeline run
    /// folds its metrics in here, GC sweeps and lock steals record events,
    /// and the TCP server's `Stats` op renders it.  Swappable
    /// ([`ImageStore::adopt_obs`]) so a coordinator-owned registry can
    /// observe the whole checkpoint→replicate→restore flow through one
    /// handle.
    obs: Mutex<ObsRegistry>,
}

impl ImageStore {
    /// Opens (creating if necessary) a store rooted at `root` for writing:
    /// claims the cross-process writer lock and rebuilds the in-memory
    /// index from the directory contents.
    ///
    /// Fails with [`StoreError::Locked`] if another live process holds the
    /// store open for writing.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let store = Self::open_unlocked(root.as_ref(), false)?;
        // A writer that crashed between staging its lock-claim file and
        // removing it leaves that file behind forever (the chunk-dir
        // `.tmp` sweep does not cover the store root); clear dead
        // claimants' litter before claiming ourselves.
        lock::sweep_stale_claims(&store.root);
        let steals = lock::acquire(&store.root)?;
        if steals > 0 {
            let obs = store.obs();
            obs.counter("crac_store_lock_steals").add(steals as u64);
            obs.event(
                EventKind::LockSteal,
                format!("root={} stolen={steals}", store.root.display()),
            );
        }
        Ok(store)
    }

    /// Opens a store without claiming the writer lock; every write path
    /// ([`ImageStore::stream_image`], [`ImageStore::write_image`],
    /// [`ImageStore::delete_image`], …) fails with [`StoreError::Busy`].
    ///
    /// Use this for restore-side consumers that must coexist with a live
    /// writer process.
    pub fn open_read_only(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_unlocked(root.as_ref(), true)
    }

    fn open_unlocked(root: &Path, read_only: bool) -> Result<Self, StoreError> {
        let root = root.to_path_buf();
        let chunks_dir = root.join("chunks");
        let images_dir = root.join("images");
        fs::create_dir_all(&chunks_dir).map_err(|e| StoreError::io(&chunks_dir, e))?;
        fs::create_dir_all(&images_dir).map_err(|e| StoreError::io(&images_dir, e))?;

        let mut known_chunks = HashSet::new();
        for entry in fs::read_dir(&chunks_dir).map_err(|e| StoreError::io(&chunks_dir, e))? {
            let entry = entry.map_err(|e| StoreError::io(&chunks_dir, e))?;
            if let Some(hash) = chunk_hash_of(&entry.file_name().to_string_lossy()) {
                known_chunks.insert(hash);
            }
        }
        let mut next_image = 1u64;
        for entry in fs::read_dir(&images_dir).map_err(|e| StoreError::io(&images_dir, e))? {
            let entry = entry.map_err(|e| StoreError::io(&images_dir, e))?;
            if let Some(id) = image_id_of(&entry.file_name().to_string_lossy()) {
                next_image = next_image.max(id.0 + 1);
            }
        }

        Ok(Self {
            root,
            chunks_dir,
            images_dir,
            index: Arc::new(Mutex::new(
                "imagestore.store.index",
                StoreIndex {
                    known_chunks,
                    next_image,
                },
            )),
            read_only,
            writer_gate: RwLock::new("imagestore.store.writer_gate", ()),
            chunk_dir_dirty: Mutex::new("imagestore.store.chunk_dir_dirty", true),
            obs: Mutex::new("imagestore.store.obs", ObsRegistry::new()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's observability registry (a cheap shared handle): write
    /// and read pipeline totals, GC/lock events, everything
    /// [`ObsRegistry::render_text`] exposes.
    pub fn obs(&self) -> ObsRegistry {
        self.obs.lock().clone()
    }

    /// Replaces the store's registry with `reg`, so an externally owned
    /// registry — typically the coordinator's — observes every operation
    /// this store performs from here on.  Metrics already recorded stay
    /// with the old registry.
    pub fn adopt_obs(&self, reg: ObsRegistry) {
        *self.obs.lock() = reg;
    }

    /// Streams one checkpoint image into the store through the writer
    /// pipeline.
    ///
    /// `produce` receives the [`StreamWriter`] (the store's canonical
    /// [`ChunkSink`](crate::stream::ChunkSink)) and pushes regions, runs
    /// and payloads into it; framing and chunk-file I/O proceed on
    /// background threads *while the producer is still walking memory*.
    /// When the closure returns `Ok`, the pipeline is drained and the
    /// manifest published; on `Err` nothing is published and the same
    /// error is returned.
    ///
    /// Returns the new image id, the closure's result, and the write
    /// stats — whose [`WriteStats::peak_buffered_bytes`] demonstrates the
    /// bounded-memory property ([`crate::writer::stream_buffer_bound`]).
    pub fn stream_image<T>(
        &self,
        opts: &WriteOptions,
        produce: impl FnOnce(&mut StreamWriter<'_>) -> Result<T, StoreError>,
    ) -> Result<(ImageId, T, WriteStats), StoreError> {
        let mut writer = StreamWriter::new(self, *opts)?;
        let value = produce(&mut writer)?;
        let (manifest, stats) = writer.finish()?;
        Ok((manifest.image_id, value, stats))
    }

    /// Writes a materialised checkpoint image, returning its new id and
    /// write stats.  This is [`ImageStore::stream_image`] driven by the
    /// image itself (see [`RegionSource`]); in-memory users keep this
    /// API, disk-bound producers should stream and skip the
    /// materialisation entirely.
    ///
    /// Chunks whose content already exists in the store (from any previous
    /// image) are not rewritten; with `opts.parent` set this is what makes a
    /// checkpoint *incremental* — only the chunks covering changed pages
    /// cost I/O.
    pub fn write_image(
        &self,
        image: &CheckpointImage,
        opts: &WriteOptions,
    ) -> Result<(ImageId, WriteStats), StoreError> {
        let (id, (), stats) = self.stream_image(opts, |writer| {
            image.stream_into(writer)?;
            writer.set_taken_at(image.taken_at_ns);
            Ok(())
        })?;
        Ok((id, stats))
    }

    /// Reads and fully verifies image `id`, reconstructing the checkpoint
    /// byte for byte.  This is the streaming reader
    /// ([`ImageStore::stream_restore`]) driven into a materialising sink;
    /// disk-bound consumers should stream and skip the materialisation
    /// entirely.
    pub fn read_image(&self, id: ImageId) -> Result<(CheckpointImage, ReadStats), StoreError> {
        reader::read_image(self, id)
    }

    /// Opens image `id` for a streaming restore: loads and CRC-verifies
    /// the manifest (metadata only), returning a
    /// [`StreamReader`](crate::reader::StreamReader) whose
    /// [`ChunkSource::stream_out`](crate::stream::ChunkSource::stream_out)
    /// fetches and verifies chunks on parallel workers and splices their
    /// page runs into a [`RegionSink`](crate::stream::RegionSink) as they
    /// arrive — peak buffered payload is bounded by
    /// [`crate::reader::restore_buffer_bound`], never the image size.
    pub fn stream_restore(&self, id: ImageId) -> Result<reader::StreamReader<'_>, StoreError> {
        reader::StreamReader::open(reader::ImageSource::Store(self), id, self.obs())
    }

    /// Deletes image `id` and reclaims every chunk no surviving manifest
    /// references.
    ///
    /// Manifests are self-contained (restore never walks parent chains),
    /// so deleting a parent never breaks its children — the children's
    /// recorded lineage simply dangles, which only bookkeeping sees.
    /// Fails with [`StoreError::Busy`] while a streaming write is in
    /// flight in this process.
    pub fn delete_image(&self, id: ImageId) -> Result<DeleteStats, StoreError> {
        self.delete_images(&[id])
    }

    /// Retention policy: keeps the newest `keep` images (by id) and
    /// deletes the rest, returning the deleted ids and what the sweep
    /// reclaimed.
    ///
    /// A half-failed batch does not lose its progress: the
    /// [`StoreError::Partial`] it returns carries the ids that *were*
    /// deleted and the [`DeleteStats`] of everything the sweep reclaimed.
    pub fn retain_last(&self, keep: usize) -> Result<(Vec<ImageId>, DeleteStats), StoreError> {
        let mut ids = self.image_ids()?;
        let cut = ids.len().saturating_sub(keep);
        ids.truncate(cut);
        let stats = self.delete_images(&ids)?;
        Ok((ids, stats))
    }

    fn delete_images(&self, ids: &[ImageId]) -> Result<DeleteStats, StoreError> {
        self.delete_images_with(ids, |path| fs::remove_file(path))
    }

    /// [`ImageStore::delete_images`] with an injectable manifest remover,
    /// so tests can simulate a removal failing halfway through a batch.
    ///
    /// Failures do **not** abandon the batch: every removable manifest is
    /// removed, the reachability sweep runs whenever anything was deleted
    /// (otherwise the deleted manifests' now-unreferenced chunks would
    /// leak until the *next* successful delete), and all failures are
    /// aggregated into a [`StoreError::Partial`] that carries the deleted
    /// ids and the [`DeleteStats`] — the progress is reported, not
    /// discarded.
    fn delete_images_with(
        &self,
        ids: &[ImageId],
        mut remove: impl FnMut(&Path) -> std::io::Result<()>,
    ) -> Result<DeleteStats, StoreError> {
        self.check_writable()?;
        // Exclude every in-flight streaming write for the whole deletion,
        // sweep included: a concurrent write could otherwise dedup against
        // a chunk this sweep is about to remove.
        let _writers_excluded = self.writer_gate.try_write().ok_or_else(|| {
            StoreError::busy("cannot delete images while a streaming write is in flight")
        })?;
        for &id in ids {
            if !self.contains_image(id) {
                return Err(StoreError::UnknownImage(id));
            }
        }
        let mut stats = DeleteStats::default();
        let mut deleted: Vec<ImageId> = Vec::new();
        let mut errors: Vec<StoreError> = Vec::new();
        for &id in ids {
            let path = self.image_path(id);
            match remove(&path) {
                Ok(()) => {
                    stats.images_deleted += 1;
                    deleted.push(id);
                }
                // Unknown ids were rejected above, so NotFound here means
                // the manifest vanished mid-batch (an external actor): the
                // goal state — count it so the sweep still runs.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    stats.images_deleted += 1;
                    deleted.push(id);
                }
                Err(e) => errors.push(StoreError::io(&path, e)),
            }
        }
        if stats.images_deleted > 0 {
            if let Err(e) = self.sweep_unreferenced(&mut stats) {
                errors.push(e);
            }
        }
        if errors.is_empty() {
            Ok(stats)
        } else {
            Err(StoreError::partial(errors, stats, deleted))
        }
    }

    /// Removes every chunk file no surviving manifest references and
    /// rebuilds the chunk index from what was kept.
    ///
    /// This is reachability-based reference counting evaluated lazily: the
    /// per-manifest counts are implicit in the manifests themselves, so
    /// there is no side-car refcount file to corrupt or drift.  If any
    /// surviving manifest is unreadable the sweep aborts without deleting
    /// anything — never trade a corrupt manifest for missing chunks.
    fn sweep_unreferenced(&self, stats: &mut DeleteStats) -> Result<(), StoreError> {
        let (chunks_before, bytes_before) = (stats.chunks_deleted, stats.chunk_bytes_reclaimed);
        let mut live: HashSet<ContentHash> = HashSet::new();
        for id in self.image_ids()? {
            let manifest = self.load_manifest(id)?;
            live.extend(manifest.chunk_refs().map(|c| c.hash));
        }
        let mut kept: HashSet<ContentHash> = HashSet::new();
        for entry in
            fs::read_dir(&self.chunks_dir).map_err(|e| StoreError::io(&self.chunks_dir, e))?
        {
            let entry = entry.map_err(|e| StoreError::io(&self.chunks_dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hash) = chunk_hash_of(&name) else {
                // `.tmp` litter from crashed writers is fair game too.
                if name.contains(".tmp.") {
                    let _ = fs::remove_file(entry.path());
                }
                continue;
            };
            if live.contains(&hash) {
                kept.insert(hash);
            } else {
                let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
                stats.chunks_deleted += 1;
                stats.chunk_bytes_reclaimed += bytes;
            }
        }
        self.index.lock().known_chunks = kept;
        let (chunks, bytes) = (
            stats.chunks_deleted - chunks_before,
            stats.chunk_bytes_reclaimed - bytes_before,
        );
        let obs = self.obs();
        obs.counter("crac_store_gc_sweeps").inc();
        obs.counter("crac_store_gc_chunks_deleted")
            .add(chunks as u64);
        obs.counter("crac_store_gc_bytes_reclaimed").add(bytes);
        obs.event(
            EventKind::GcSweep,
            format!("chunks_deleted={chunks} bytes_reclaimed={bytes}"),
        );
        Ok(())
    }

    /// Summarises one stored image from its manifest.
    pub fn image_info(&self, id: ImageId) -> Result<ImageInfo, StoreError> {
        let manifest = self.load_manifest(id)?;
        Ok(Self::info_of(&manifest))
    }

    /// Lists all stored images, ordered by id.
    pub fn list_images(&self) -> Result<Vec<ImageInfo>, StoreError> {
        self.image_ids()?
            .into_iter()
            .map(|id| self.image_info(id))
            .collect()
    }

    /// Aggregate occupancy of the store.  Counts directory entries only —
    /// it never parses manifests, so it stays cheap on large stores.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut images = 0usize;
        for entry in
            fs::read_dir(&self.images_dir).map_err(|e| StoreError::io(&self.images_dir, e))?
        {
            let entry = entry.map_err(|e| StoreError::io(&self.images_dir, e))?;
            if entry.file_name().to_string_lossy().ends_with(".crimg") {
                images += 1;
            }
        }
        let mut chunks = 0usize;
        let mut chunk_bytes = 0u64;
        for entry in
            fs::read_dir(&self.chunks_dir).map_err(|e| StoreError::io(&self.chunks_dir, e))?
        {
            let entry = entry.map_err(|e| StoreError::io(&self.chunks_dir, e))?;
            if entry.file_name().to_string_lossy().ends_with(".chk") {
                chunks += 1;
                chunk_bytes += entry
                    .metadata()
                    .map_err(|e| StoreError::io(&self.chunks_dir, e))?
                    .len();
            }
        }
        Ok(StoreStats {
            images,
            chunks,
            chunk_bytes,
        })
    }

    /// Returns `true` if image `id` exists in the store.
    pub fn contains_image(&self, id: ImageId) -> bool {
        self.image_path(id).exists()
    }

    /// Returns `true` if a chunk with this content is stored.
    pub fn contains_chunk(&self, hash: ContentHash) -> bool {
        self.index.lock().contains(hash)
    }

    /// Ingests one chunk delivered as verbatim chunk-*file* bytes (header,
    /// CRC, raw payload), verifying it in place — CRC and content hash
    /// against `hash` — before anything lands on disk.
    /// Returns `false` (and writes nothing) if the chunk is already
    /// present.
    ///
    /// This is how replicated chunks enter a store: the bytes appear under
    /// their content-hash name only after full verification, an `fsync` and
    /// an atomic rename, so a crashed or lying sender can never leave a torn
    /// chunk visible.  The directory sync is the manifest publisher's.
    pub(crate) fn ingest_chunk_file(
        &self,
        hash: ContentHash,
        file_bytes: &[u8],
    ) -> Result<bool, StoreError> {
        self.check_writable()?;
        // Hold the writer gate like any other write: a concurrent deletion
        // sweep must not race the index commit below.  (The gate is not
        // re-entrant — callers already holding it use the `_locked`
        // variant directly.)
        let _writing = self.writer_guard();
        self.ingest_chunk_file_locked(hash, file_bytes)
    }

    /// [`ImageStore::ingest_chunk_file`] for callers that already hold the
    /// writer gate for a larger operation (a whole `replicate_from` pull).
    pub(crate) fn ingest_chunk_file_locked(
        &self,
        hash: ContentHash,
        file_bytes: &[u8],
    ) -> Result<bool, StoreError> {
        self.check_writable()?;
        if self.contains_chunk(hash) {
            return Ok(false);
        }
        let path = self.chunk_path(hash);
        let raw = parse_chunk(file_bytes).map_err(|what| StoreError::corrupt(&path, what))?;
        let actual = ContentHash::of(raw);
        if actual != hash {
            return Err(StoreError::corrupt(
                &path,
                format!("replicated chunk hashes to {actual}, expected {hash}"),
            ));
        }
        crate::writer::write_durably(&path, file_bytes)?;
        self.chunk_renamed();
        self.commit_chunks(&[hash]);
        Ok(true)
    }

    /// Records that a chunk file was renamed into the chunk directory.
    pub(crate) fn chunk_renamed(&self) {
        *self.chunk_dir_dirty.lock() = true;
    }

    /// The durability rule's one decision: called by every manifest
    /// publisher before it writes the manifest, syncs the chunk directory
    /// iff a chunk was renamed into it since the last sync — whoever
    /// renamed it, so chunks a manifest merely deduplicated against are
    /// covered too.
    pub(crate) fn sync_chunk_dir_before_manifest(&self) {
        let mut dirty = self.chunk_dir_dirty.lock();
        if std::mem::take(&mut *dirty) {
            crate::writer::sync_dir(&self.chunks_dir);
            self.obs().counter("crac_store_chunk_dir_syncs").inc();
        }
    }

    /// Adopts a manifest replicated from another store: allocates a fresh
    /// local id, rewrites the manifest's identity (`image_id` becomes the
    /// local id, `parent` becomes `parent` — source-store lineage means
    /// nothing here), and publishes it atomically.
    ///
    /// Refuses (without writing) unless every chunk the manifest
    /// references is already present locally — the ship-chunks-first
    /// ordering that keeps a half-replicated image invisible: a manifest
    /// can never appear before the content it names.  The manifest's run
    /// geometry is fully validated first (the same checks a restore
    /// performs), so a lying peer cannot plant a visible-but-unrestorable
    /// image.
    pub(crate) fn adopt_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        self.check_writable()?;
        let _writing = self.writer_guard();
        self.adopt_manifest_locked(manifest_bytes, parent)
    }

    /// [`ImageStore::adopt_manifest`] for callers that already hold the
    /// writer gate.
    pub(crate) fn adopt_manifest_locked(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        self.check_writable()?;
        let incoming = self.images_dir.join("incoming");
        let mut manifest =
            Manifest::from_bytes(manifest_bytes).map_err(|e| StoreError::manifest(&incoming, e))?;
        // Validate run geometry exactly as a restore would (page-count
        // overflows, runs exceeding their region, conflicting lengths):
        // reject the image *before* publication instead of letting every
        // later restore fail on it.
        reader::build_fetch_plan(&manifest, &incoming)?;
        let mut checked: HashSet<ContentHash> = HashSet::new();
        for chunk in manifest.chunk_refs() {
            if !self.contains_chunk(chunk.hash) {
                return Err(StoreError::MissingChunk {
                    hash: chunk.hash.to_hex(),
                });
            }
            // The manifest's declared length must match what the stored
            // chunk actually holds (its file size — cheap), or the
            // image would be visible yet unrestorable.  build_fetch_plan
            // pinned per-hash consistency, so once per distinct hash.
            if checked.insert(chunk.hash) {
                let actual = self.stored_chunk_raw_len(chunk.hash)?;
                if actual != chunk.raw_len {
                    return Err(StoreError::corrupt(
                        &incoming,
                        format!(
                            "manifest declares chunk {} as {} bytes but the stored chunk holds {actual}",
                            chunk.hash, chunk.raw_len
                        ),
                    ));
                }
            }
        }
        if let Some(p) = parent {
            if !self.contains_image(p) {
                return Err(StoreError::UnknownImage(p));
            }
        }
        let id = self.allocate_image_id();
        manifest.image_id = id;
        manifest.parent = parent;
        self.sync_chunk_dir_before_manifest();
        crate::writer::write_atomically(&self.image_path(id), &manifest.to_bytes())?;
        Ok(id)
    }

    /// Reads chunk `hash`'s verbatim file bytes, classifying a vanished
    /// file as [`StoreError::MissingChunk`] — the shared serving path of
    /// [`crate::transport::LoopbackTransport`] and the TCP server
    /// ([`crate::net::server`]), so a `get_chunk` racing chunk GC yields
    /// the *same* error class no matter which transport served it.
    pub(crate) fn read_chunk_file_bytes(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        let path = self.chunk_path(hash);
        match fs::read(&path) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::MissingChunk {
                hash: hash.to_hex(),
            }),
            Err(e) => Err(StoreError::io(&path, e)),
        }
    }

    /// Reads image `id`'s verbatim manifest bytes, classifying a missing
    /// manifest as [`StoreError::UnknownImage`] (see
    /// [`ImageStore::read_chunk_file_bytes`] for why the classification is
    /// centralised).
    pub(crate) fn read_manifest_bytes(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        let path = self.image_path(id);
        match fs::read(&path) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::UnknownImage(id)),
            Err(e) => Err(StoreError::io(&path, e)),
        }
    }

    /// Lists the store's image ids, ascending — the `list_manifests`
    /// serving path.
    pub(crate) fn manifest_ids(&self) -> Result<Vec<ImageId>, StoreError> {
        self.image_ids()
    }

    /// Raw length of the stored chunk `hash`: its file size less the header
    /// (every chunk file was verified whole before it landed).
    fn stored_chunk_raw_len(&self, hash: ContentHash) -> Result<u64, StoreError> {
        let path = self.chunk_path(hash);
        let len = fs::metadata(&path)
            .map_err(|e| StoreError::io(&path, e))?
            .len();
        Ok(len.saturating_sub(CHUNK_HEADER_LEN as u64))
    }

    // -- crate-internal plumbing used by the writer/reader --------------

    fn image_ids(&self) -> Result<Vec<ImageId>, StoreError> {
        let mut ids: Vec<ImageId> = Vec::new();
        for entry in
            fs::read_dir(&self.images_dir).map_err(|e| StoreError::io(&self.images_dir, e))?
        {
            let entry = entry.map_err(|e| StoreError::io(&self.images_dir, e))?;
            if let Some(id) = image_id_of(&entry.file_name().to_string_lossy()) {
                ids.push(id);
            }
        }
        ids.sort();
        Ok(ids)
    }

    pub(crate) fn check_writable(&self) -> Result<(), StoreError> {
        if self.read_only {
            return Err(StoreError::busy("store was opened read-only"));
        }
        Ok(())
    }

    pub(crate) fn index_handle(&self) -> SharedIndex {
        Arc::clone(&self.index)
    }

    pub(crate) fn chunks_dir(&self) -> &Path {
        &self.chunks_dir
    }

    /// Registers a streaming write for its whole lifetime: while any
    /// returned guard is alive, deletion is refused.
    pub(crate) fn writer_guard(&self) -> crac_sync::RwLockReadGuard<'_, ()> {
        self.writer_gate.read()
    }

    pub(crate) fn image_path(&self, id: ImageId) -> PathBuf {
        self.images_dir.join(format!("{:016x}.crimg", id.0))
    }

    pub(crate) fn chunk_path(&self, hash: ContentHash) -> PathBuf {
        self.chunks_dir.join(format!("{}.chk", hash.to_hex()))
    }

    pub(crate) fn commit_chunks(&self, hashes: &[ContentHash]) {
        let mut index = self.index.lock();
        index.known_chunks.extend(hashes.iter().copied());
    }

    pub(crate) fn allocate_image_id(&self) -> ImageId {
        let mut index = self.index.lock();
        let id = ImageId(index.next_image);
        index.next_image += 1;
        id
    }

    pub(crate) fn load_manifest(&self, id: ImageId) -> Result<Manifest, StoreError> {
        Manifest::from_bytes(&self.read_manifest_bytes(id)?)
            .map_err(|e| StoreError::manifest(self.image_path(id), e))
    }

    fn info_of(manifest: &Manifest) -> ImageInfo {
        ImageInfo {
            id: manifest.image_id,
            parent: manifest.parent,
            taken_at_ns: manifest.taken_at_ns,
            regions: manifest.regions.len(),
            logical_bytes: manifest.logical_size(),
            chunk_refs: manifest.chunk_refs().count(),
        }
    }
}

/// Parses `"<32-hex>.chk"` into a content hash.
fn chunk_hash_of(name: &str) -> Option<ContentHash> {
    ContentHash::from_hex(name.strip_suffix(".chk")?)
}

/// Parses `"<16-hex>.crimg"` into an image id.
fn image_id_of(name: &str) -> Option<ImageId> {
    u64::from_str_radix(name.strip_suffix(".crimg")?, 16)
        .ok()
        .map(ImageId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crac_addrspace::{Addr, Prot, PAGE_SIZE};
    use crac_dmtcp::SavedRegion;

    /// An image whose chunks are unique to `seed`.
    fn image(seed: u8) -> CheckpointImage {
        let mut img = CheckpointImage {
            taken_at_ns: seed as u64,
            ..Default::default()
        };
        img.regions.push(SavedRegion {
            start: Addr(0x4000_0000_0000),
            len: 8 * PAGE_SIZE,
            prot: Prot::RW,
            label: format!("del-{seed}"),
            pages: (0..8)
                .map(|i| {
                    let mut page = vec![seed; PAGE_SIZE as usize];
                    page[..8].copy_from_slice(&(((seed as u64) << 32) | i).to_le_bytes());
                    (i, page)
                })
                .collect(),
        });
        img
    }

    /// Regression (PR 2 bug): a `remove_file` failure mid-batch used to
    /// abort the deletion, skipping the sweep — the already-deleted
    /// manifests' chunks leaked until the next successful delete.  The
    /// batch must now finish, run the sweep, and aggregate the errors.
    #[test]
    fn partial_delete_failure_still_sweeps_what_was_deleted() {
        let dir = TempDir::new("gc-partial");
        let store = ImageStore::open(dir.path()).unwrap();
        let (a, _) = store.write_image(&image(1), &WriteOptions::full()).unwrap();
        let (b, _) = store.write_image(&image(2), &WriteOptions::full()).unwrap();
        let (c, _) = store.write_image(&image(3), &WriteOptions::full()).unwrap();
        let before = store.stats().unwrap();
        assert_eq!(before.images, 3);

        // Removal of `b` fails; `a` and `c` must still go, and the sweep
        // must reclaim their chunks immediately.
        let blocked = store.image_path(b);
        let err = store
            .delete_images_with(&[a, b, c], |path| {
                if path == blocked {
                    Err(std::io::Error::other("injected removal failure"))
                } else {
                    fs::remove_file(path)
                }
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("injected removal failure"),
            "got: {err}"
        );
        // Regression (PR 4 bug): the error used to discard the batch's
        // progress — callers could not tell what *was* reclaimed.  The
        // `Partial` variant now carries the delete stats and the ids.
        match &err {
            StoreError::Partial {
                errors,
                stats,
                deleted,
            } => {
                assert_eq!(errors.len(), 1);
                assert_eq!(stats.images_deleted, 2, "a and c were still deleted");
                assert_eq!(deleted, &vec![a, c]);
                assert!(
                    stats.chunks_deleted > 0 && stats.chunk_bytes_reclaimed > 0,
                    "the sweep's progress is reported too: {stats:?}"
                );
            }
            other => panic!("expected Partial carrying progress, got {other:?}"),
        }

        let after = store.stats().unwrap();
        assert_eq!(after.images, 1, "the two removable manifests are gone");
        assert!(
            after.chunks < before.chunks,
            "sweep must reclaim the deleted images' chunks despite the failure"
        );
        // The survivor is intact and fully readable.
        let (back, _) = store.read_image(b).unwrap();
        assert_eq!(back.regions[0].label, "del-2");
        assert!(!store.contains_image(a));
        assert!(!store.contains_image(c));
    }

    /// Several failures in one batch aggregate into `Partial`, which still
    /// reports the one deletion that went through.
    #[test]
    fn multiple_delete_failures_aggregate() {
        let dir = TempDir::new("gc-partial-many");
        let store = ImageStore::open(dir.path()).unwrap();
        let (a, _) = store.write_image(&image(4), &WriteOptions::full()).unwrap();
        let (b, _) = store.write_image(&image(5), &WriteOptions::full()).unwrap();
        let (c, _) = store.write_image(&image(6), &WriteOptions::full()).unwrap();

        let err = store
            .delete_images_with(&[a, b, c], |path| {
                if path == store.image_path(c) {
                    fs::remove_file(path)
                } else {
                    Err(std::io::Error::other("injected"))
                }
            })
            .unwrap_err();
        match err {
            StoreError::Partial {
                errors,
                stats,
                deleted,
            } => {
                assert_eq!(errors.len(), 2);
                assert_eq!(stats.images_deleted, 1);
                assert_eq!(deleted, vec![c]);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        // `c` was deleted and swept regardless.
        assert!(!store.contains_image(c));
        assert_eq!(store.stats().unwrap().images, 2);
    }
}
