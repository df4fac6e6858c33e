//! Streaming checkpoint production and restore consumption: region by
//! region, run by run.
//!
//! The materialising path ([`Coordinator::checkpoint`]) builds a complete
//! in-memory [`CheckpointImage`] before anyone can write a byte — for a
//! multi-GB footprint that doubles peak RSS at the worst possible moment
//! (the application is quiesced).  The streaming path inverts control: the
//! coordinator walks the merged maps view exactly as before, but pushes
//! `(region descriptor, page-run payload)` records into a caller-supplied
//! [`CheckpointSink`] as it goes, holding at most one bounded run buffer
//! ([`MAX_RUN_PAGES`] pages) of content at a time.  A disk-backed sink (the
//! image store's writer pipeline) can then overlap hashing, encoding and
//! file I/O with the walk itself.
//!
//! The sink signals failure with the opaque [`SinkClosed`] marker: the
//! producer stops feeding immediately, and the *real* error (an I/O error,
//! say) is recovered from the sink by whoever owns it.  This keeps
//! `crac-dmtcp` free of any dependency on the consumer's error type — the
//! image store depends on this crate, not the other way around.
//!
//! The seam is deliberately location-agnostic: the coordinator drives the
//! same [`CheckpointSink`] whether the records land in a local chunk store
//! or ship straight to a remote peer over a replication transport (and the
//! restore walk likewise consumes a [`RestoreSink`] fed from either) — the
//! checkpoint/restart walks never learn where the bytes live.

use crac_addrspace::{Addr, MemError, PageRun, Prot, PAGE_SIZE};

use crate::image::{CheckpointImage, SavedRegion};

/// Upper bound on pages per [`CheckpointSink::page_run`] call.  Runs longer
/// than this are split, so a sink never receives (and the producer never
/// buffers) more than `MAX_RUN_PAGES * PAGE_SIZE` bytes per record — this is
/// what bounds the producer side of the streaming pipeline.
pub const MAX_RUN_PAGES: u64 = 16;

/// A saved region's identity, sans content: everything a manifest needs to
/// describe the region before its page runs stream through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionDescriptor {
    /// Start address the region must be restored at.
    pub start: Addr,
    /// Logical length in bytes.
    pub len: u64,
    /// Protection bits to restore.
    pub prot: Prot,
    /// Label (pathname column) for diagnostics.
    pub label: String,
}

/// Opaque "stop producing" marker returned by a failed sink.
///
/// Carries no payload by design: the underlying error lives in the sink
/// (which the caller owns and can interrogate), so this crate needs no
/// knowledge of downstream error types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkClosed;

/// Why [`Coordinator::checkpoint_walk`](crate::Coordinator::checkpoint_walk)
/// stopped before the image was complete.  Plugins are resumed either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The sink stopped accepting records; its owner holds the real error.
    Closed,
    /// A page of the plan is absent — a lazy restore had not paged it in —
    /// and could not be made resident: no fault handler is installed, or the
    /// handler's restore source failed.  Recording it as zeros would
    /// corrupt the image, so the checkpoint is abandoned instead.
    Mem(MemError),
}

impl From<SinkClosed> for CkptError {
    fn from(_: SinkClosed) -> Self {
        CkptError::Closed
    }
}

impl From<MemError> for CkptError {
    fn from(e: MemError) -> Self {
        CkptError::Mem(e)
    }
}

/// Why [`Coordinator::restart_streaming`](crate::Coordinator::restart_streaming)
/// abandoned a restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The producer stopped feeding; its owner holds the real error.
    Closed,
    /// The address space refused something the image asked for — a
    /// zero-length, unaligned or out-of-half region, a run outside its
    /// mapping, a protection that would not apply.
    Mem(MemError),
}

/// Consumer of a streamed checkpoint.
///
/// Calls arrive in a strict order the producer guarantees:
///
/// ```text
/// (begin_region (page_run)* end_region)* (payload)*
/// ```
///
/// with runs inside a region-open in strictly increasing page order and
/// each run at most [`MAX_RUN_PAGES`] pages.  Any method may return
/// `Err(SinkClosed)`; the producer then stops immediately (plugins are
/// still resumed) and propagates the marker.
///
/// A pre-copy producer ([`Coordinator::checkpoint_walk`](crate::Coordinator::checkpoint_walk)
/// with a `PrecopyConfig`) may *re-open* a region — another `begin_region` whose `start` matches an
/// earlier region's, while no region is open — to carry a later round's
/// re-dirtied runs.  The sink must resolve overlaps **last-write-wins**:
/// where a re-emitted run covers a page from an earlier round, the later
/// content is the region's content.  A one-round producer never re-opens,
/// so sinks that predate pre-copy remain correct for it.
pub trait CheckpointSink {
    /// Opens a region; subsequent [`CheckpointSink::page_run`] calls belong
    /// to it until [`CheckpointSink::end_region`].  A `desc.start` equal to
    /// an already-closed region's re-opens that region for another round of
    /// runs.
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed>;

    /// One run of consecutive dirty pages.  `bytes.len()` is exactly
    /// `run.count * PAGE_SIZE`.
    fn page_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), SinkClosed>;

    /// Closes the region opened by the last
    /// [`CheckpointSink::begin_region`].
    fn end_region(&mut self) -> Result<(), SinkClosed>;

    /// One named plugin payload (only non-empty payloads are delivered).
    fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed>;
}

/// Consumer of a streamed *restore* — the mirror image of
/// [`CheckpointSink`].
///
/// Where a checkpoint producer walks live memory in address order, a
/// restore producer (a disk-backed image reader) delivers page content in
/// whatever order its chunks are fetched and verified.  The contract is
/// therefore looser than the checkpoint one:
///
/// * every region is declared up front (declaration order defines the
///   region indices later calls refer to) — regions are pure metadata, so
///   a reader has them all before the first content byte arrives;
/// * page runs then arrive in **arbitrary order**, across regions and
///   within a region, each tagged with its target region's index;
/// * payloads may arrive at any point after the declarations.
///
/// Any method may return `Err(SinkClosed)`; the producer stops immediately
/// and propagates the marker, exactly as on the checkpoint side.
pub trait RestoreSink {
    /// Declares the next region (regions are indexed by declaration
    /// order, starting at 0).
    fn declare_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed>;

    /// One verified run of pages for declared region `region`.
    /// `bytes.len()` is exactly `run.count * PAGE_SIZE`; `run.first` is a
    /// region-relative page index.
    fn page_run(&mut self, region: usize, run: PageRun, bytes: &[u8]) -> Result<(), SinkClosed>;

    /// One named plugin payload.
    fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed>;
}

/// The infallible in-memory sink: rebuilds a [`CheckpointImage`].
///
/// [`Coordinator::checkpoint`](crate::Coordinator::checkpoint) is this sink
/// driven by the streaming walk — one code path produces both the legacy
/// materialised image and the streamed-to-disk variant, so they cannot
/// drift apart.
#[derive(Debug, Default)]
pub struct ImageSink {
    /// The image being accumulated.
    pub image: CheckpointImage,
    /// Index of the open region (re-opens resolve to the original entry).
    cur: Option<usize>,
}

impl CheckpointSink for ImageSink {
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed> {
        debug_assert!(self.cur.is_none(), "begin_region while a region is open");
        let existing = self
            .image
            .regions
            .iter()
            .position(|r| r.start == desc.start);
        self.cur = Some(match existing {
            Some(idx) => idx,
            None => {
                self.image.regions.push(SavedRegion {
                    start: desc.start,
                    len: desc.len,
                    prot: desc.prot,
                    label: desc.label.clone(),
                    pages: Vec::new(),
                });
                self.image.regions.len() - 1
            }
        });
        Ok(())
    }

    fn page_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), SinkClosed> {
        debug_assert_eq!(bytes.len() as u64, run.count * PAGE_SIZE);
        let region =
            // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
            &mut self.image.regions[self.cur.expect("page_run outside begin_region/end_region")];
        for (i, page) in run.pages().enumerate() {
            let off = i * PAGE_SIZE as usize;
            let content = bytes[off..off + PAGE_SIZE as usize].to_vec();
            // Last-write-wins across pre-copy rounds, keeping the page
            // list sorted and duplicate-free.
            match region.pages.binary_search_by_key(&page, |(idx, _)| *idx) {
                Ok(at) => region.pages[at].1 = content,
                Err(at) => region.pages.insert(at, (page, content)),
            }
        }
        Ok(())
    }

    fn end_region(&mut self) -> Result<(), SinkClosed> {
        self.cur = None;
        Ok(())
    }

    fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed> {
        self.image.payloads.insert(name.to_string(), data.to_vec());
        Ok(())
    }
}
