//! A persistent, incremental, parallel checkpoint-image store.
//!
//! The CRAC paper's headline numbers are checkpoint/restart *time* and image
//! *size*; both are dominated by image I/O.  This crate gives the
//! reproduction a real I/O pipeline for `crac_dmtcp::CheckpointImage`:
//!
//! * **Chunked binary on-disk format** ([`format`]): a CRC-framed manifest
//!   per image (header, region table, chunk references, inline plugin
//!   payloads) plus content-addressed chunk files holding the page data.
//!   Chunks are stored raw behind a fixed header, as the paper measured
//!   (DMTCP's gzip off); the manifest's compression byte and the chunk
//!   header's encoding tag stay in the layout, always 0, until the next
//!   format version drops them.  Any single flipped byte anywhere in the
//!   store is detected on read.
//! * **Streaming writer pipeline** ([`writer`], [`stream`]): producers
//!   push `(region descriptor, page-run payload)` records into a
//!   [`ChunkSink`]; the [`StreamWriter`] chunks them along their runs,
//!   hashes and frames them on worker threads and writes chunk files on a
//!   dedicated I/O thread through bounded queues — framing overlaps I/O,
//!   and peak buffered payload is a fixed multiple of the chunk size
//!   ([`stream_buffer_bound`]), never the image size.
//! * **Content-hash dedup / incremental checkpoints**: chunks are named by
//!   a 128-bit content hash, so a checkpoint taken after a small mutation
//!   writes only the chunks covering changed pages; `WriteOptions::parent`
//!   records the checkpoint lineage.  Manifests always describe the full
//!   image, so restore never chains through parents.
//! * **Streaming reader pipeline** ([`reader`], [`stream`]) — the writer's
//!   mirror: the one [`StreamReader`], opened over an [`ImageSource`] (a
//!   local store or a peer), fetches and verifies the manifest's distinct
//!   chunks (CRC + content hash) on parallel worker threads and splices
//!   each chunk's page runs into a [`RegionSink`] **as it arrives** — no
//!   barrier, no materialised image, peak buffered payload a fixed
//!   multiple of the chunk size ([`restore_buffer_bound`]).  The legacy
//!   materialising `read_image` is the same pipeline driven into a
//!   [`MaterialiseSink`].
//! * **Remote replication** ([`transport`], [`remote`]): a [`Transport`]
//!   trait (batched `has_chunks`, `put_chunk`/`get_chunk`,
//!   `list/get/put_manifest`) is the wire seam transport backends plug
//!   into; [`LoopbackTransport`] (backed by a second store) and the
//!   fault-injecting [`FaultyTransport`] serve in-process testing.
//!   `ImageStore::replicate_to`/`replicate_from` ship only missing chunks
//!   (restic/borg-style negotiation, resumable after interruption),
//!   [`RemoteChunkSink`] streams a live checkpoint straight to a peer,
//!   and a [`StreamReader`] over [`ImageSource::Peer`] restores from one
//!   through the same bounded parallel fetch pipeline as a local read —
//!   with bounded, backoff-spaced retry on transient transport faults.
//! * **Lazy first-touch restore** ([`lazy`]): the reader pipeline turned
//!   inside out — [`LazyRestoreSession`] maps the image's skeleton,
//!   declares its pages absent and resumes the process in O(metadata);
//!   a two-priority fetch crew then services first-touch faults ahead of
//!   a background prefetch sweep, over the same reader (local store or
//!   remote transport), with chunk-level dedup so a
//!   chunk is fetched exactly once no matter how faults and the sweep
//!   race.
//! * **TCP network transport** ([`net`]): the trait over a real wire —
//!   length-prefixed, CRC-trailed frames on `std::net::TcpStream`
//!   ([`net::frame`]), a thread-per-connection server dispatching into
//!   the store ([`net::server`]), a pooled-connection client
//!   ([`TcpTransport`]) so parallel restores ride N sockets, and a
//!   mutual shared-secret auth handshake gating every connection
//!   ([`net::auth`]).  Everything above the trait runs over it
//!   unchanged.
//! * **Administration** ([`store`], [`lock`]): a PID-keyed cross-process
//!   writer lock (`store.lock`; stale locks stolen via an atomic
//!   rename-and-reverify, dead claimants' litter swept on open;
//!   `open_read_only` bypasses it), image deletion with
//!   reachability-based chunk reclamation that survives partial failures,
//!   and a `retain_last(n)` retention helper.
//!
//! Two drivers ([`coordext`]) stitch the store into the DMTCP
//! coordinator, with location and mode as *values*: [`checkpoint_to`]
//! drives the coordinator's one walk (stop-the-world or pre-copy)
//! straight into a [`CkptTarget`] — a store's writer pipeline or a peer —
//! via [`SinkBridge`], and [`restore`] drives an opened [`StreamReader`]
//! straight into the coordinator's restore cursor (via [`RestoreBridge`])
//! or, lazily, a [`LazyRestoreSession`] — none of them ever materialises
//! a `CheckpointImage`; `crac-core` builds its `CracProcess` paths on top
//! of the two.
//!
//! **Observability** (`crac-obs`, re-exported here): every layer above
//! records into an [`ObsRegistry`] — counters, peak-tracking gauges,
//! fixed-bucket latency/size histograms and a bounded structured event
//! ring.  The coordinator owns the root registry and the two drivers
//! hand it down, so a single
//! [`ObsRegistry::render_text`] scrape (or the TCP server's `Stats` wire
//! op) exposes the whole checkpoint → replicate → restore flow in
//! Prometheus text format.  The `*Stats` structs are views computed from
//! registry snapshots — there is no double bookkeeping.

pub mod chunk;
pub mod coordext;
pub mod error;
pub mod format;
pub mod hash;
pub mod lazy;
pub mod lock;
pub mod net;
pub(crate) mod pipeline;
pub mod reader;
pub mod remote;
pub mod store;
pub mod stream;
#[doc(hidden)]
pub mod testutil;
pub mod transport;
pub mod writer;

pub use crac_obs::{
    Buckets, Counter, Event, EventKind, Gauge, Histogram, ObsRegistry, Snapshot, Span,
};

pub use coordext::{checkpoint_to, restore, CkptTarget, Landed};
pub use error::StoreError;
pub use format::Compression;
pub use hash::ContentHash;
pub use lazy::{LazyRestoreSession, LazyRestoreStats};
pub use net::{NetServerStats, ServerHandle, TcpTransport, TcpTransportStats};
pub use reader::{restore_buffer_bound, ImageSource, ReadStats, StreamReader};
pub use remote::{RemoteChunkSink, ReplicateStats};
pub use store::{DeleteStats, ImageId, ImageInfo, ImageStore, StoreStats};
pub use stream::{
    ChunkSink, ChunkSource, MaterialiseSink, RegionSink, RegionSource, RestoreBridge, SinkBridge,
};
pub use transport::{
    FaultConfig, FaultyTransport, LoopbackTransport, Transport, TransportStats,
    MAX_TRANSIENT_RETRIES,
};
pub use writer::{stream_buffer_bound, StreamWriter, WriteOptions, WriteStats};
