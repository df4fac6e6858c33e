//! The two drivers that stitch the DMTCP coordinator to this crate: one
//! checkpoint, one restore.
//!
//! `crac-dmtcp` cannot depend on this crate (the dependency points the
//! other way), so the store-aware halves of a checkpoint and a restart
//! live here, as free functions over a [`Coordinator`].  *Where* the image
//! goes or comes from and *how* the walk runs are values passed in, not
//! reasons for another function:
//!
//! | value | choices |
//! |---|---|
//! | [`CkptTarget`] | a local [`ImageStore`] · a peer behind a [`Transport`] |
//! | `precopy: Option<&PrecopyConfig>` | `None` = stop-the-world · `Some` = pre-copy |
//! | [`ImageSource`](crate::ImageSource) (inside the opened [`StreamReader`]) | store · peer |
//! | `lazy: bool` | `false` = eager splice · `true` = demand paging |
//!
//! [`checkpoint_to`] drives the coordinator's one walk
//! (`Coordinator::checkpoint_walk`) through a [`SinkBridge`] straight into
//! the target's [`ChunkSink`] — no `CheckpointImage` is ever materialised,
//! so the checkpoint's peak memory is the pipeline's bounded buffering
//! ([`crate::writer::stream_buffer_bound`]) instead of the image size.
//!
//! [`restore`] is its mirror: an opened reader feeds the coordinator's
//! restore cursor **directly** through a [`RestoreBridge`] — verified
//! chunks land in the fresh address space as they arrive, bounded by
//! [`crate::reader::restore_buffer_bound`] — or, lazily, becomes a
//! [`LazyRestoreSession`] whose workers serve first-touch faults while the
//! caller's closure already runs.  Eager and lazy stay two arms on
//! measured grounds: on the benchmark's four store and TCP workloads a
//! `crac-core` lazy restart reaches full residency in 1.03–1.09× the
//! eager restart's wall time (`perf` medians of `drain_ms` / `restart_ms`,
//! 10 runs of 20 s each on 2 cores), so "eager = lazy + drain" would
//! regress there; only the CUDA workload drains faster (0.85×).

use crac_addrspace::SharedSpace;
use crac_dmtcp::{
    CkptError, CkptStats, Coordinator, PrecopyConfig, PrecopyStats, RestartStats, RestoreError,
    SinkClosed,
};

use crate::error::StoreError;
use crate::lazy::{unmappable, LazyRestoreSession, LazyRestoreStats};
use crate::reader::{ReadStats, StreamReader};
use crate::remote::{RemoteChunkSink, ReplicateStats};
use crate::store::{ImageId, ImageStore};
use crate::stream::{ChunkSink, ChunkSource, RestoreBridge, SinkBridge};
use crate::transport::Transport;
use crate::writer::{WriteOptions, WriteStats};

/// Where a checkpoint lands: the one thing a checkpoint knows about
/// *location*.
#[derive(Clone, Copy)]
pub enum CkptTarget<'a> {
    /// The writer pipeline of a local store.
    Store(&'a ImageStore, WriteOptions),
    /// Straight to the peer behind `transport` — no local store involved:
    /// chunks are negotiated (batched `has_chunks`) and only missing
    /// content ships.
    Peer {
        /// The wire to the peer.
        transport: &'a dyn Transport,
        /// *Peer-side* id recorded as the published manifest's lineage
        /// (chunk-level dedup applies either way).
        parent: Option<ImageId>,
    },
}

/// What a checkpoint cost at its target: what was written locally and what
/// crossed a transport.  The half the target does not have stays zero — a
/// store checkpoint ships nothing, a peer checkpoint writes nothing here.
#[derive(Clone, Copy, Debug, Default)]
pub struct Landed {
    /// Store-side write statistics.
    pub write: WriteStats,
    /// Transport-side shipping statistics.
    pub replicate: ReplicateStats,
}

/// Takes a checkpoint of `coordinator`'s process and streams it into
/// `target` without materialising an in-memory image.
///
/// `precopy` picks the walk's mode (see `Coordinator::checkpoint_walk`):
/// with `Some(cfg)` bulk content and delta rounds stream while the
/// application keeps running and only the final residual delta is captured
/// with the process stopped; both targets honour the re-open /
/// last-write-wins contract that needs.
///
/// `stamp` is called once, after the walk and before the manifest is
/// assembled, with the walk's stats; it returns the manifest's `taken_at`
/// — the caller owns completion-time semantics (`crac-core` advances its
/// virtual clock by the modelled write time first).
///
/// The coordinator's registry becomes the target's: every layer of this
/// flow (and later operations on a target store) records into it.
///
/// Returns the image id (peer-assigned for a peer), the walk's stats and
/// what landed where.
pub fn checkpoint_to(
    coordinator: &Coordinator,
    target: CkptTarget<'_>,
    precopy: Option<&PrecopyConfig>,
    stamp: impl FnOnce(&CkptStats) -> u64,
) -> Result<(ImageId, PrecopyStats, Landed), StoreError> {
    // The one call of the coordinator's walk outside `crac-dmtcp`.  The
    // bridge parks the sink's real error behind the opaque stop marker.
    let walk = |sink: &mut dyn ChunkSink| {
        let mut bridge = SinkBridge::new(sink);
        let walked = coordinator.checkpoint_walk(&mut bridge, precopy);
        walked.map_err(|e| match e {
            CkptError::Closed => bridge
                .into_error()
                .unwrap_or_else(|| StoreError::busy("checkpoint sink closed without an error")),
            // The process is itself still restoring lazily and its source
            // cannot supply a page: there is no consistent image to take.
            CkptError::Mem(e) => {
                StoreError::busy(format!("checkpoint during a lazy restore failed: {e}"))
            }
        })
    };
    let mut landed = Landed::default();
    match target {
        CkptTarget::Store(store, opts) => {
            store.adopt_obs(coordinator.obs());
            let (id, stats, write) = store.stream_image(&opts, |writer| {
                let stats = walk(writer)?;
                writer.set_taken_at(stamp(&stats.ckpt));
                Ok(stats)
            })?;
            landed.write = write;
            Ok((id, stats, landed))
        }
        CkptTarget::Peer { transport, parent } => {
            let mut sink = RemoteChunkSink::with_obs(transport, parent, coordinator.obs());
            let stats = walk(&mut sink)?;
            sink.set_taken_at(stamp(&stats.ckpt));
            let (id, replicate) = sink.finish()?;
            landed.replicate = replicate;
            Ok((id, stats, landed))
        }
    }
}

/// Restores the image behind `reader` into an address space.
///
/// The address space (and the coordinator whose plugins' `restart` hooks
/// fire) usually do not exist yet when a restart begins, so the caller's
/// `body` builds them and calls the `install` function it is handed —
/// exactly once — with both; what `body` does after `install` returns is
/// the restarted process's first dealings with its memory.
///
/// * `lazy == false` — `install` drives the reader's fetch/verify/splice
///   pipeline to completion: every page is resident when it returns.
/// * `lazy == true` — `install` maps the skeleton, marks the image's pages
///   absent, installs the fault handler and starts the fault-service /
///   prefetch workers: **no page bytes have moved** when it returns, the
///   rest of `body` races the background sweep, and once `body` returns
///   the remaining prefetch is drained and the fault handler uninstalled.
///   The workers stop before this function returns, on every path.
///
/// On failure the real [`StoreError`] comes back (as `E`) and the
/// half-restored space must be discarded; an image the address space
/// refuses to map is [`StoreError::Corrupt`].  Returns `body`'s value, the
/// read's I/O accounting, and the lazy-specific stats (all zero for an
/// eager restore).
pub fn restore<T, E: From<StoreError>>(
    reader: StreamReader<'_>,
    lazy: bool,
    body: impl FnOnce(
        &mut dyn FnMut(&Coordinator, &SharedSpace) -> Result<RestartStats, StoreError>,
    ) -> Result<T, E>,
) -> Result<(T, ReadStats, LazyRestoreStats), E> {
    if !lazy {
        let mut reader = reader;
        let out = body(&mut |coordinator, space| splice(coordinator, &mut reader, space))?;
        return Ok((out, reader.stats(), LazyRestoreStats::default()));
    }
    let session = LazyRestoreSession::open(reader)?;
    let out = std::thread::scope(|scope| {
        let mut attached: Option<SharedSpace> = None;
        // Any error below must abort the session before the scope joins,
        // or the workers would park on the queue forever.
        let out = body(&mut |coordinator, space| {
            let stats = session.attach(coordinator, space)?;
            // Live before `body` goes on to first-touch restored memory.
            session.spawn_workers(scope);
            attached = Some(space.clone());
            Ok(stats)
        });
        if out.is_err() {
            session.abort();
            // The handler holds the space it installs into: unhook it, or
            // the discarded space would keep itself alive.
            if let Some(space) = &attached {
                space.clear_fault_handler();
            }
        }
        let out = out?;
        if let Some(space) = attached {
            session.drain()?;
            space.clear_fault_handler();
        }
        Ok::<T, E>(out)
    })?;
    let (read, lazy_stats) = session.finish();
    Ok((out, read, lazy_stats))
}

/// The eager arm of [`restore`]: the reader's fetched-and-verified chunks
/// are spliced into `space` through the coordinator's restore cursor as
/// they arrive; on success the coordinator applies recorded protections
/// and fires the plugins' `restart` hooks with the payloads the manifest
/// carried inline.
fn splice(
    coordinator: &Coordinator,
    reader: &mut StreamReader<'_>,
    space: &SharedSpace,
) -> Result<RestartStats, StoreError> {
    let mut parked: Option<StoreError> = None;
    let result = coordinator.restart_streaming(space, |cursor| {
        let mut bridge = RestoreBridge::new(cursor);
        reader.stream_out(&mut bridge).map_err(|e| {
            parked = Some(e);
            SinkClosed
        })
    });
    result.map_err(|e| match e {
        // The cursor closed itself: the space refused what the image asked.
        RestoreError::Mem(e) => unmappable(&reader.label, e),
        RestoreError::Closed => {
            parked.unwrap_or_else(|| StoreError::busy("restore source closed without an error"))
        }
    })
}
