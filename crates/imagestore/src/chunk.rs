//! Splitting a checkpoint's dirty pages into content-addressed chunks, and
//! the manifest bookkeeping every streaming sink shares.
//!
//! Chunk boundaries follow the region's dirty-page *runs* (maximal spans of
//! consecutive dirty pages, via `crac_addrspace::page_runs`), split to at
//! most [`CHUNK_PAGES`] pages each.  Aligning chunks to runs keeps them
//! stable across checkpoints: a page written between two checkpoints only
//! perturbs the chunks of its own run, so every other chunk re-hashes to the
//! same content hash and is deduplicated away by the incremental writer.
//!
//! `ManifestBuilder` is the *one* place the boundary rules
//! (`RunChunker`), the region re-open / last-write-wins contract
//! (`trim_superseded`) and the manifest's shape live.  Both
//! [`crate::stream::ChunkSink`]s — the local
//! [`crate::writer::StreamWriter`] and the remote
//! [`crate::remote::RemoteChunkSink`] — feed their records through it, so
//! for a fixed input they produce the same chunk names and the same
//! manifest bytes whether the image lands on disk or on a peer: identical
//! boundaries are what make content hashes (and therefore dedup, local
//! *and* cross-node) line up.

use crac_addrspace::{PageRun, PAGE_SIZE};
use crac_dmtcp::RegionDescriptor;

use crate::error::StoreError;
use crate::format::{ChunkEntry, Manifest, RegionEntry};
use crate::hash::ContentHash;
use crate::store::ImageId;

/// Maximum pages per chunk (16 × 4 KiB = 64 KiB raw), balancing dedup
/// granularity against per-chunk metadata and file-count overhead.
pub const CHUNK_PAGES: u64 = 16;

/// Incremental run-to-chunk packer: packs page runs into
/// ≤[`CHUNK_PAGES`]-page chunks, appending each filled chunk's
/// `(runs, raw bytes)` to `out`; [`RunChunker::flush`] emits the partial
/// trailing chunk at region end.
#[derive(Debug, Default)]
struct RunChunker {
    runs: Vec<PageRun>,
    buf: Vec<u8>,
    pages: u64,
}

impl RunChunker {
    /// Packs `run` (whose payload is `bytes`) into the staged chunk,
    /// emitting every chunk that fills up along the way.
    fn push(&mut self, run: PageRun, bytes: &[u8], out: &mut Vec<(Vec<PageRun>, Vec<u8>)>) {
        debug_assert_eq!(bytes.len() as u64, run.count * PAGE_SIZE);
        let mut first = run.first;
        let mut offset = 0usize;
        let mut remaining = run.count;
        while remaining > 0 {
            let space = CHUNK_PAGES - self.pages;
            let take = remaining.min(space);
            let len = (take * PAGE_SIZE) as usize;
            self.runs.push(PageRun { first, count: take });
            self.buf.extend_from_slice(&bytes[offset..offset + len]);
            self.pages += take;
            first += take;
            offset += len;
            remaining -= take;
            if self.pages == CHUNK_PAGES {
                self.flush(out);
            }
        }
    }

    /// Emits the partial staged chunk, if any (call at region end).
    fn flush(&mut self, out: &mut Vec<(Vec<PageRun>, Vec<u8>)>) {
        if self.runs.is_empty() {
            return;
        }
        self.pages = 0;
        out.push((
            std::mem::take(&mut self.runs),
            std::mem::take(&mut self.buf),
        ));
    }
}

/// Retains, in order, only the chunk entries still contributing at least
/// one page once later entries are applied last-write-wins — the manifest
/// trim for pre-copy checkpoints, where a later round's re-emitted runs
/// can fully supersede an earlier round's chunk.
fn trim_superseded(chunks: &mut Vec<PendingChunk>) {
    if chunks.len() < 2 {
        return;
    }
    let mut covered = std::collections::HashSet::new();
    let mut keep = vec![false; chunks.len()];
    for (i, c) in chunks.iter().enumerate().rev() {
        for page in c.runs.iter().flat_map(|r| r.pages()) {
            keep[i] |= covered.insert(page);
        }
    }
    let mut flags = keep.into_iter();
    chunks.retain(|_| flags.next().unwrap_or(true));
}

/// Where a packed chunk sits in the manifest under construction:
/// `(region, chunk)` indices.  Handed out with each chunk so a sink that
/// learns the content hash later (the writer's encoder threads) can report
/// it back with [`ManifestBuilder::set_hash`].
pub(crate) type ChunkSlot = (usize, usize);

/// A packed chunk on its way into a sink's pipeline: its manifest slot and
/// its raw bytes.
pub(crate) type PackedChunk = (ChunkSlot, Vec<u8>);

/// A chunk's manifest entry in the making: its geometry is known when it
/// is packed, its content hash once the sink has computed it.
#[derive(Debug)]
struct PendingChunk {
    runs: Vec<PageRun>,
    raw_len: u64,
    hash: Option<ContentHash>,
}

/// The bookkeeping between a [`crate::stream::ChunkSink`]'s records and the
/// manifest they become: which region is open (a start address seen before
/// *re-opens* that region for a later pre-copy round), the chunker, every
/// chunk's runs and — once the sink knows it — content hash, the payloads.
///
/// Ordering violations are real errors, not debug assertions: sinks are
/// driven by remote producers (a checkpoint streaming in over a socket),
/// and a misbehaving producer must surface as [`StoreError::Protocol`] on
/// the wire, never abort the serving process.
#[derive(Debug, Default)]
pub(crate) struct ManifestBuilder {
    open: Option<usize>,
    chunker: RunChunker,
    regions: Vec<(RegionDescriptor, Vec<PendingChunk>)>,
    payloads: Vec<(String, Vec<u8>)>,
    /// Virtual checkpoint-completion time stamped into the manifest.
    pub(crate) taken_at_ns: u64,
}

impl ManifestBuilder {
    /// Opens a region.  A start address seen before re-opens that region:
    /// the new chunks land *after* the earlier ones in its chunk list,
    /// which is exactly the order the restore side's last-write-wins
    /// resolution relies on.
    pub(crate) fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), StoreError> {
        if self.open.is_some() {
            return Err(StoreError::protocol(
                "begin_region while a region is already open",
            ));
        }
        let existing = self.regions.iter().position(|(r, _)| r.start == desc.start);
        self.open = Some(existing.unwrap_or_else(|| {
            self.regions.push((desc.clone(), Vec::new()));
            self.regions.len() - 1
        }));
        Ok(())
    }

    /// Packs one run of the open region, returning the chunks it filled.
    pub(crate) fn push_run(
        &mut self,
        run: PageRun,
        bytes: &[u8],
    ) -> Result<Vec<PackedChunk>, StoreError> {
        let Some(region) = self.open else {
            return Err(StoreError::protocol("push_run outside any open region"));
        };
        if bytes.len() as u64 != run.count * PAGE_SIZE {
            return Err(StoreError::protocol(format!(
                "push_run payload is {} bytes but the run declares {} pages",
                bytes.len(),
                run.count
            )));
        }
        let mut packed = Vec::new();
        self.chunker.push(run, bytes, &mut packed);
        Ok(self.record(region, packed))
    }

    /// Closes the open region, returning its index and the trailing
    /// partial chunk if one was staged.
    pub(crate) fn end_region(&mut self) -> Result<(usize, Vec<PackedChunk>), StoreError> {
        let Some(region) = self.open else {
            return Err(StoreError::protocol("end_region without begin_region"));
        };
        let mut packed = Vec::new();
        self.chunker.flush(&mut packed);
        let tail = self.record(region, packed);
        self.open = None;
        Ok((region, tail))
    }

    /// Enters freshly packed chunks into region `region`'s chunk list.
    fn record(&mut self, region: usize, packed: Vec<(Vec<PageRun>, Vec<u8>)>) -> Vec<PackedChunk> {
        let chunks = &mut self.regions[region].1;
        packed
            .into_iter()
            .map(|(runs, raw)| {
                chunks.push(PendingChunk {
                    runs,
                    raw_len: raw.len() as u64,
                    hash: None,
                });
                ((region, chunks.len() - 1), raw)
            })
            .collect()
    }

    /// Records the content hash of the chunk at `slot`.
    pub(crate) fn set_hash(&mut self, (region, chunk): ChunkSlot, hash: ContentHash) {
        self.regions[region].1[chunk].hash = Some(hash);
    }

    /// Region `index`'s descriptor and how many chunks it holds so far.
    pub(crate) fn region(&self, index: usize) -> (&RegionDescriptor, usize) {
        let (desc, chunks) = &self.regions[index];
        (desc, chunks.len())
    }

    /// One named plugin payload.
    pub(crate) fn push_payload(&mut self, name: &str, data: &[u8]) {
        self.payloads.push((name.to_string(), data.to_vec()));
    }

    /// Total plugin payload bytes pushed so far.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.payloads.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// Assembles the manifest: drops chunk entries fully superseded by
    /// later rounds' re-emitted runs (every page they cover is re-covered
    /// by a later entry, so no fetch plan would ever read a byte from them;
    /// their chunk files stay — valid, unreferenced, GC-sweepable) and
    /// sorts payloads by name, so the manifest is deterministic regardless
    /// of producer payload order.  Fails if a region is still open or a
    /// chunk's hash was never reported.
    pub(crate) fn finish(
        mut self,
        image_id: ImageId,
        parent: Option<ImageId>,
    ) -> Result<Manifest, StoreError> {
        if self.open.is_some() {
            return Err(StoreError::protocol(
                "finish called with a region still open",
            ));
        }
        self.payloads.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut regions = Vec::with_capacity(self.regions.len());
        for (desc, mut pending) in self.regions {
            trim_superseded(&mut pending);
            let mut chunks = Vec::with_capacity(pending.len());
            for c in pending {
                chunks.push(ChunkEntry {
                    runs: c.runs,
                    hash: c
                        .hash
                        .ok_or_else(|| StoreError::busy("sink pipeline lost a chunk's hash"))?,
                    raw_len: c.raw_len,
                });
            }
            regions.push(RegionEntry {
                start: desc.start.as_u64(),
                len: desc.len,
                prot: desc.prot,
                label: desc.label,
                chunks,
            });
        }
        Ok(Manifest {
            image_id,
            parent,
            taken_at_ns: self.taken_at_ns,
            regions,
            payloads: self.payloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chunks `RunChunker` packs from the maximal runs of `indices`, page
    /// `i` filled with `fill(i)`.
    fn chunk_pages(indices: &[u64], fill: impl Fn(u64) -> u8) -> Vec<(Vec<PageRun>, Vec<u8>)> {
        let mut chunker = RunChunker::default();
        let mut out = Vec::new();
        for run in crac_addrspace::page_runs(indices.iter().copied()) {
            let bytes: Vec<u8> = run
                .pages()
                .flat_map(|p| vec![fill(p); PAGE_SIZE as usize])
                .collect();
            chunker.push(run, &bytes, &mut out);
        }
        chunker.flush(&mut out);
        out
    }

    fn page_count(runs: &[PageRun]) -> u64 {
        runs.iter().map(|r| r.count).sum()
    }

    #[test]
    fn contiguous_pages_form_one_chunk() {
        let chunks = chunk_pages(&[0, 1, 2, 3], |p| p as u8);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].0, vec![PageRun { first: 0, count: 4 }]);
        assert_eq!(chunks[0].1.len(), 4 * PAGE_SIZE as usize);
        // Bytes are in page order.
        assert_eq!(chunks[0].1[0], 0);
        assert_eq!(chunks[0].1[PAGE_SIZE as usize], 1);
    }

    #[test]
    fn long_runs_split_at_chunk_pages() {
        let indices: Vec<u64> = (0..CHUNK_PAGES * 2 + 3).collect();
        let chunks = chunk_pages(&indices, |p| p as u8);
        assert_eq!(chunks.len(), 3);
        assert_eq!(page_count(&chunks[0].0), CHUNK_PAGES);
        assert_eq!(page_count(&chunks[1].0), CHUNK_PAGES);
        assert_eq!(page_count(&chunks[2].0), 3);
        assert_eq!(
            chunks[1].0,
            vec![PageRun {
                first: CHUNK_PAGES,
                count: CHUNK_PAGES
            }]
        );
    }

    #[test]
    fn scattered_runs_pack_into_one_chunk() {
        let chunks = chunk_pages(&[0, 5, 6, 9], |p| p as u8);
        assert_eq!(chunks.len(), 1);
        assert_eq!(
            chunks[0].0,
            vec![
                PageRun { first: 0, count: 1 },
                PageRun { first: 5, count: 2 },
                PageRun { first: 9, count: 1 },
            ]
        );
        assert_eq!(page_count(&chunks[0].0), 4);
    }

    #[test]
    fn unchanged_tail_chunks_keep_their_hash_when_one_page_changes() {
        let indices: Vec<u64> = (0..CHUNK_PAGES * 4).collect();
        let hashes = |touched: Option<u64>| -> Vec<ContentHash> {
            chunk_pages(
                &indices,
                |p| if Some(p) == touched { 0xEE } else { p as u8 },
            )
            .iter()
            .map(|(_, raw)| ContentHash::of(raw))
            .collect()
        };
        let before = hashes(None);
        // Mutate one page in the second chunk.
        let after = hashes(Some(CHUNK_PAGES + 1));
        assert_eq!(before.len(), after.len());
        assert_ne!(before[1], after[1], "touched chunk must re-hash");
        assert_eq!(before[0], after[0]);
        assert_eq!(before[2], after[2]);
        assert_eq!(before[3], after[3]);
    }
}
