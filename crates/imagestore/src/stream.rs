//! The streaming seams, one per direction.
//!
//! **Checkpoint (write)**: producers push `(region descriptor, page-run
//! payload)` records into a [`ChunkSink`], and anything that can enumerate
//! regions run by run is a [`RegionSource`].  The trait is deliberately
//! location-agnostic, and there are two sinks because there are two
//! *pipelines*: [`crate::writer::StreamWriter`] (parallel hash/encode and
//! batched publish into a local store's chunk files) and
//! [`crate::remote::RemoteChunkSink`] (has/put negotiation with a peer over
//! a [`crate::transport::Transport`]).  What is *not* pipeline — region
//! re-opens, chunk boundaries, manifest assembly — they share
//! (`crate::chunk::ManifestBuilder`), and every producer (the DMTCP
//! coordinator, an in-memory image) works against either unchanged.
//!
//! **Restore (read)** — the mirror image: anything that can deliver a
//! stored image's content chunk by chunk is a [`ChunkSource`], and
//! consumers accept its records through a [`RegionSink`].  There is one
//! disk- or wire-backed `ChunkSource`, [`crate::reader::StreamReader`],
//! whose bytes come from a store or a peer alike
//! ([`crate::reader::ImageSource`]); [`MaterialiseSink`] rebuilds a full
//! `CheckpointImage` for in-memory users and as the test oracle.  Because
//! verified chunks arrive in fetch order, `RegionSink` declares every
//! region up front and then accepts page runs in *arbitrary* order, each
//! tagged with its target region — the contract that lets the splice
//! overlap fetch/verify with no barrier.
//!
//! [`SinkBridge`] adapts a `ChunkSink` to `crac_dmtcp`'s
//! [`CheckpointSink`] so the coordinator — which cannot depend on this
//! crate — can drive the store directly: store errors are parked in the
//! bridge, the coordinator sees only the opaque `SinkClosed` stop marker,
//! and the bridge's owner recovers the real [`StoreError`] afterwards.
//! [`RestoreBridge`] is its restore-side mirror: it presents a
//! `crac_dmtcp` [`RestoreSink`] (the coordinator's restore cursor) as a
//! `RegionSink`, translating the sink's `SinkClosed` back into a
//! [`StoreError`] for the reader.

use crac_addrspace::{PageRun, PAGE_SIZE};
use crac_dmtcp::{
    CheckpointImage, CheckpointSink, RegionDescriptor, RestoreSink, SavedRegion, SinkClosed,
};

use crate::chunk::CHUNK_PAGES;
use crate::error::StoreError;

/// Consumer of streamed checkpoint records.
///
/// Call order contract (the same one `crac_dmtcp::CheckpointSink` has):
///
/// ```text
/// (begin_region (push_run)* end_region)* (push_payload)*
/// ```
///
/// Runs within a region arrive in strictly increasing page order and
/// `bytes.len()` is always `run.count * PAGE_SIZE`.
pub trait ChunkSink {
    /// Opens a region.
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError>;
    /// One run of consecutive dirty pages belonging to the open region.
    fn push_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), StoreError>;
    /// Closes the open region.
    fn end_region(&mut self) -> Result<(), StoreError>;
    /// One named plugin payload.
    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;
}

/// Anything that can stream its regions into a [`ChunkSink`].
pub trait RegionSource {
    /// Pushes every region (run by run) and payload into `sink`.
    fn stream_into(&self, sink: &mut dyn ChunkSink) -> Result<(), StoreError>;
}

/// The materialised image is itself a region source: this is how the
/// legacy [`crate::ImageStore::write_image`] path rides the same pipeline
/// as the streaming one.
impl RegionSource for CheckpointImage {
    fn stream_into(&self, sink: &mut dyn ChunkSink) -> Result<(), StoreError> {
        for region in &self.regions {
            sink.begin_region(&RegionDescriptor {
                start: region.start,
                len: region.len,
                prot: region.prot,
                label: region.label.clone(),
            })?;
            let by_index: std::collections::BTreeMap<u64, &[u8]> = region
                .pages
                .iter()
                .map(|(idx, bytes)| (*idx, bytes.as_slice()))
                .collect();
            let mut buf: Vec<u8> = Vec::new();
            for run in region.page_runs() {
                // Split oversized runs so the staging buffer stays bounded
                // (mirrors what the coordinator's streaming walk emits).
                let mut first = run.first;
                let mut remaining = run.count;
                while remaining > 0 {
                    let take = remaining.min(CHUNK_PAGES);
                    buf.clear();
                    for page in first..first + take {
                        buf.extend_from_slice(by_index[&page]);
                    }
                    debug_assert_eq!(buf.len() as u64, take * PAGE_SIZE);
                    sink.push_run(PageRun { first, count: take }, &buf)?;
                    first += take;
                    remaining -= take;
                }
            }
            sink.end_region()?;
        }
        for (name, data) in &self.payloads {
            sink.push_payload(name, data)?;
        }
        Ok(())
    }
}

/// Adapts a [`ChunkSink`] to `crac_dmtcp`'s [`CheckpointSink`].
///
/// The first store error is parked here and surfaced to the coordinator as
/// the opaque [`SinkClosed`] marker; retrieve it with
/// [`SinkBridge::into_error`] after the producer has stopped.
pub struct SinkBridge<'a, S: ChunkSink + ?Sized> {
    sink: &'a mut S,
    error: Option<StoreError>,
}

impl<'a, S: ChunkSink + ?Sized> SinkBridge<'a, S> {
    /// Wraps `sink`.
    pub fn new(sink: &'a mut S) -> Self {
        Self { sink, error: None }
    }

    /// The parked error, if any method failed.
    pub fn into_error(self) -> Option<StoreError> {
        self.error
    }

    fn park(&mut self, r: Result<(), StoreError>) -> Result<(), SinkClosed> {
        match r {
            Ok(()) => Ok(()),
            Err(e) => {
                // Keep the first error: later failures are usually echoes.
                self.error.get_or_insert(e);
                Err(SinkClosed)
            }
        }
    }
}

impl<S: ChunkSink + ?Sized> CheckpointSink for SinkBridge<'_, S> {
    fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed> {
        let r = self.sink.begin_region(desc);
        self.park(r)
    }

    fn page_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), SinkClosed> {
        let r = self.sink.push_run(run, bytes);
        self.park(r)
    }

    fn end_region(&mut self) -> Result<(), SinkClosed> {
        let r = self.sink.end_region();
        self.park(r)
    }

    fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed> {
        let r = self.sink.push_payload(name, data);
        self.park(r)
    }
}

// ---------------------------------------------------------------------
// Restore direction
// ---------------------------------------------------------------------

/// Consumer of streamed restore records.
///
/// Call order contract (looser than the checkpoint one, because content
/// arrives in chunk-fetch order):
///
/// ```text
/// (declare_region)* (push_payload | push_run)*
/// ```
///
/// Every region is declared first, in image order — declaration order
/// defines the region indices `push_run` refers to.  Runs then arrive in
/// **arbitrary order**, across regions and within a region;
/// `bytes.len()` is always `run.count * PAGE_SIZE` and `run.first` is a
/// region-relative page index.  Payloads may arrive at any point after
/// the declarations.
pub trait RegionSink {
    /// Declares the next region (indexed by declaration order, from 0).
    fn declare_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError>;
    /// One verified run of pages belonging to declared region `region`.
    fn push_run(&mut self, region: usize, run: PageRun, bytes: &[u8]) -> Result<(), StoreError>;
    /// One named plugin payload.
    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;
}

/// Anything that can stream a stored image's content into a
/// [`RegionSink`]: the store's reader pipeline, an in-memory image, a
/// future remote chunk backend.
pub trait ChunkSource {
    /// Pushes every region declaration, page run and payload into `sink`.
    fn stream_out(&mut self, sink: &mut dyn RegionSink) -> Result<(), StoreError>;
}

/// The materialised image is itself a chunk source — symmetric to its
/// [`RegionSource`] impl on the write side.  The streaming-restore
/// equivalence proptests round-trip an image through this impl and a
/// [`MaterialiseSink`] to pin the seam's contract down without any store
/// involved.
impl ChunkSource for CheckpointImage {
    fn stream_out(&mut self, sink: &mut dyn RegionSink) -> Result<(), StoreError> {
        for region in &self.regions {
            sink.declare_region(&RegionDescriptor {
                start: region.start,
                len: region.len,
                prot: region.prot,
                label: region.label.clone(),
            })?;
        }
        for (name, data) in &self.payloads {
            sink.push_payload(name, data)?;
        }
        for (idx, region) in self.regions.iter().enumerate() {
            for (page, bytes) in &region.pages {
                sink.push_run(
                    idx,
                    PageRun {
                        first: *page,
                        count: 1,
                    },
                    bytes,
                )?;
            }
        }
        Ok(())
    }
}

/// Rebuilds a full [`CheckpointImage`] from a streamed restore — how the
/// legacy [`crate::ImageStore::read_image`] rides the streaming reader.
///
/// Accepts runs in any order (per the [`RegionSink`] contract) and sorts
/// each region's pages when the image is taken out.
#[derive(Debug, Default)]
pub struct MaterialiseSink {
    regions: Vec<SavedRegion>,
    payloads: Vec<(String, Vec<u8>)>,
}

impl MaterialiseSink {
    /// Finishes the materialisation: sorts every region's pages into page
    /// order and stamps the checkpoint time.
    pub fn into_image(self, taken_at_ns: u64) -> CheckpointImage {
        let mut image = CheckpointImage {
            regions: self.regions,
            taken_at_ns,
            ..Default::default()
        };
        for region in &mut image.regions {
            region.pages.sort_by_key(|(idx, _)| *idx);
        }
        for (name, data) in self.payloads {
            image.payloads.insert(name, data);
        }
        image
    }
}

impl RegionSink for MaterialiseSink {
    fn declare_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError> {
        self.regions.push(SavedRegion {
            start: desc.start,
            len: desc.len,
            prot: desc.prot,
            label: desc.label.clone(),
            pages: Vec::new(),
        });
        Ok(())
    }

    fn push_run(&mut self, region: usize, run: PageRun, bytes: &[u8]) -> Result<(), StoreError> {
        debug_assert_eq!(bytes.len() as u64, run.count * PAGE_SIZE);
        let region = self
            .regions
            .get_mut(region)
            // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
            .expect("push_run targets an undeclared region");
        for (i, page) in run.pages().enumerate() {
            let off = i * PAGE_SIZE as usize;
            region
                .pages
                .push((page, bytes[off..off + PAGE_SIZE as usize].to_vec()));
        }
        Ok(())
    }

    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.payloads.push((name.to_string(), data.to_vec()));
        Ok(())
    }
}

/// Adapts a `crac_dmtcp` [`RestoreSink`] to this crate's [`RegionSink`] —
/// the restore-side mirror of [`SinkBridge`].
///
/// The coordinator's restore cursor cannot return a [`StoreError`]; if it
/// reports [`SinkClosed`], the bridge surfaces a generic stop error to
/// abort the reader, and the cursor's owner knows the real cause.
pub struct RestoreBridge<'a, S: RestoreSink + ?Sized> {
    sink: &'a mut S,
}

impl<'a, S: RestoreSink + ?Sized> RestoreBridge<'a, S> {
    /// Wraps `sink`.
    pub fn new(sink: &'a mut S) -> Self {
        Self { sink }
    }

    fn closed(_: SinkClosed) -> StoreError {
        StoreError::busy("restore sink closed")
    }
}

impl<S: RestoreSink + ?Sized> RegionSink for RestoreBridge<'_, S> {
    fn declare_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError> {
        self.sink.declare_region(desc).map_err(Self::closed)
    }

    fn push_run(&mut self, region: usize, run: PageRun, bytes: &[u8]) -> Result<(), StoreError> {
        self.sink.page_run(region, run, bytes).map_err(Self::closed)
    }

    fn push_payload(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.sink.payload(name, data).map_err(Self::closed)
    }
}
