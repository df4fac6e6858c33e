//! Property-based equivalence of the streaming writer + parallel reader
//! against the legacy materialised path.
//!
//! The streaming pipeline replaced "materialise, then serialise" — these
//! properties pin down that nothing observable changed:
//!
//! 1. **Byte-identical stores** — streaming an image run by run produces
//!    the same chunk set (same content hashes, same file bytes) as writing
//!    the materialised image, and both read back equal to the original.
//! 2. **Incremental chains agree** — a parent/child chain written through
//!    either path dedups identically.
//! 3. **Corruption is still fail-stop** — a flipped byte in any file of a
//!    streaming-written store surfaces as an error through the parallel
//!    reader.

use std::collections::BTreeSet;

use crac_addrspace::{Addr, Prot, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, Coordinator, CoordinatorConfig, SavedRegion};
use crac_imagestore::testutil::{restore_into, TempDir};
use crac_imagestore::{
    restore_buffer_bound, ChunkSource, ImageSource, ImageStore, MaterialiseSink, RegionSource,
    StreamWriter, WriteOptions,
};
use proptest::prelude::*;

/// A random saved region: up to 48 pages scattered over a 64-page span.
fn region_strategy() -> impl Strategy<Value = SavedRegion> {
    (
        0u64..512,
        proptest::collection::vec((0u64..64, any::<u8>()), 0..48),
        any::<bool>(),
    )
        .prop_map(|(slot, raw_pages, exec)| {
            let mut indices = BTreeSet::new();
            let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
            for (idx, seed) in raw_pages {
                if !indices.insert(idx) {
                    continue;
                }
                let mut page = vec![seed; PAGE_SIZE as usize];
                if seed % 3 == 0 {
                    for (j, b) in page.iter_mut().enumerate() {
                        *b = (j as u8).wrapping_mul(97).wrapping_add(seed);
                    }
                }
                pages.push((idx, page));
            }
            pages.sort_by_key(|(idx, _)| *idx);
            SavedRegion {
                start: Addr(0x4000_0000_0000 + slot * 64 * PAGE_SIZE),
                len: 64 * PAGE_SIZE,
                prot: if exec { Prot::RX } else { Prot::RW },
                label: "stream-prop".to_string(),
                pages,
            }
        })
}

fn image_strategy() -> impl Strategy<Value = CheckpointImage> {
    (
        proptest::collection::vec(region_strategy(), 1..5),
        proptest::collection::vec(any::<u8>(), 0..200),
        0u64..1_000_000_000,
    )
        .prop_map(|(regions, payload, taken_at_ns)| {
            let mut image = CheckpointImage {
                regions,
                taken_at_ns,
                ..Default::default()
            };
            if !payload.is_empty() {
                image.payloads.insert("crac".to_string(), payload);
            }
            image
        })
}

/// Writes `image` through the explicit streaming seam (`stream_image` +
/// `RegionSource::stream_into`), as a disk-bound producer would.
fn write_streaming(
    store: &ImageStore,
    image: &CheckpointImage,
    opts: &WriteOptions,
) -> (crac_imagestore::ImageId, crac_imagestore::WriteStats) {
    let (id, (), stats) = store
        .stream_image(opts, |writer: &mut StreamWriter<'_>| {
            image.stream_into(writer)?;
            writer.set_taken_at(image.taken_at_ns);
            Ok(())
        })
        .unwrap();
    (id, stats)
}

/// Every chunk file of a store, as `(name, bytes)` sorted by name.
fn chunk_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("chunks"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming and materialised writes produce byte-identical chunk
    /// stores, and both round-trip back to the original image.
    #[test]
    fn streaming_equals_materialised(img in image_strategy()) {
        let opts = WriteOptions::full();
        let dir_mat = TempDir::new("equiv-mat");
        let dir_str = TempDir::new("equiv-str");
        let store_mat = ImageStore::open(dir_mat.path()).unwrap();
        let store_str = ImageStore::open(dir_str.path()).unwrap();

        let (id_mat, stats_mat) = store_mat.write_image(&img, &opts).unwrap();
        let (id_str, stats_str) = write_streaming(&store_str, &img, &opts);

        prop_assert_eq!(stats_mat.chunks_total, stats_str.chunks_total);
        prop_assert_eq!(stats_mat.chunks_written, stats_str.chunks_written);
        prop_assert_eq!(stats_mat.chunk_bytes_written, stats_str.chunk_bytes_written);
        prop_assert_eq!(stats_mat.manifest_bytes, stats_str.manifest_bytes);
        // The chunk stores are byte-for-byte identical (same content names,
        // same file contents): the streaming chunker splits exactly where
        // the legacy one did, so dedup across old and new stores keeps
        // working.
        prop_assert_eq!(chunk_files(dir_mat.path()), chunk_files(dir_str.path()));

        let (back_mat, _) = store_mat.read_image(id_mat).unwrap();
        let (back_str, read_stats) = store_str.read_image(id_str).unwrap();
        prop_assert_eq!(&back_mat, &img);
        prop_assert_eq!(&back_str, &img);
        prop_assert!(read_stats.threads_used >= 1);
    }

    /// Incremental parent chains dedup identically through both paths and
    /// read back complete.
    #[test]
    fn incremental_chains_agree(
        base in image_strategy(),
        touch in any::<u8>(),
    ) {
        // Derive the child by re-filling a deterministic subset of pages.
        let mut child = base.clone();
        child.taken_at_ns = base.taken_at_ns + 1;
        for region in &mut child.regions {
            for (idx, page) in region.pages.iter_mut() {
                if (*idx + touch as u64).is_multiple_of(5) {
                    page.fill(touch);
                }
            }
        }

        let dir_mat = TempDir::new("chain-mat");
        let dir_str = TempDir::new("chain-str");
        let store_mat = ImageStore::open(dir_mat.path()).unwrap();
        let store_str = ImageStore::open(dir_str.path()).unwrap();

        let (p_mat, _) = store_mat.write_image(&base, &WriteOptions::full()).unwrap();
        let (p_str, _) = write_streaming(&store_str, &base, &WriteOptions::full());
        let (c_mat, s_mat) = store_mat
            .write_image(&child, &WriteOptions::incremental(p_mat))
            .unwrap();
        let (c_str, s_str) =
            write_streaming(&store_str, &child, &WriteOptions::incremental(p_str));

        prop_assert_eq!(s_mat.chunks_deduped, s_str.chunks_deduped);
        prop_assert_eq!(s_mat.chunks_written, s_str.chunks_written);
        prop_assert_eq!(chunk_files(dir_mat.path()), chunk_files(dir_str.path()));
        prop_assert_eq!(store_str.image_info(c_str).unwrap().parent, Some(p_str));

        let (back, _) = store_str.read_image(c_str).unwrap();
        prop_assert_eq!(&back, &child);
        let (back_mat, _) = store_mat.read_image(c_mat).unwrap();
        prop_assert_eq!(&back_mat, &child);
    }

    /// Streaming restore (splice-as-chunks-arrive into a fresh address
    /// space) is observably identical to the materialised path (full
    /// `read_image`, then `restart_into`): same restored bytes, same
    /// restart stats, same read accounting — and the streaming read's
    /// peak buffer respects the analytic bound.
    #[test]
    fn streaming_restore_matches_materialised(img in image_strategy()) {
        // Regions restore at their recorded addresses, so drop duplicates
        // of the same start slot (the write-side strategies allow them).
        let mut img = img;
        let mut seen = BTreeSet::new();
        img.regions.retain(|r| seen.insert(r.start));

        let dir = TempDir::new("restore-equiv");
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, _) = write_streaming(&store, &img, &WriteOptions::full());

        let coord = Coordinator::new(SharedSpace::new_no_aslr(), CoordinatorConfig::default());

        // Materialised: fetch-all barrier, then splice from the image.
        let space_mat = SharedSpace::new_no_aslr();
        let (image_mat, stats_mat) = store.read_image(id).unwrap();
        let restart_mat = coord.restart_into(&image_mat, &space_mat);

        // Streaming: verified chunks land in the space as they arrive.
        let space_str = SharedSpace::new_no_aslr();
        let (restart_str, stats_str) =
            restore_into(&coord, ImageSource::Store(&store), id, &space_str).unwrap();

        prop_assert_eq!(&image_mat, &img);
        prop_assert_eq!(restart_str, restart_mat);
        prop_assert_eq!(stats_str.chunks_read, stats_mat.chunks_read);
        prop_assert_eq!(stats_str.chunks_cached, stats_mat.chunks_cached);
        prop_assert_eq!(stats_str.chunk_bytes_read, stats_mat.chunk_bytes_read);
        prop_assert_eq!(stats_str.manifest_bytes, stats_mat.manifest_bytes);
        prop_assert!(
            stats_str.peak_buffered_bytes <= restore_buffer_bound(stats_str.threads_used),
            "peak {} exceeds bound {}",
            stats_str.peak_buffered_bytes,
            restore_buffer_bound(stats_str.threads_used)
        );

        // Byte-for-byte identical restored memory.
        for region in &img.regions {
            let mut got_mat = vec![0u8; region.len as usize];
            let mut got_str = vec![0u8; region.len as usize];
            space_mat.read_bytes(region.start, &mut got_mat).unwrap();
            space_str.read_bytes(region.start, &mut got_str).unwrap();
            prop_assert_eq!(&got_mat, &got_str);
            // And both match the checkpointed pages (unlisted pages zero).
            let mut expect = vec![0u8; region.len as usize];
            for (idx, page) in &region.pages {
                let off = (idx * PAGE_SIZE) as usize;
                expect[off..off + PAGE_SIZE as usize].copy_from_slice(page);
            }
            prop_assert_eq!(&got_str, &expect);
        }

        // The seam itself round-trips with no store involved: the image
        // as a `ChunkSource` driven into a `MaterialiseSink` reproduces
        // the image exactly.
        let mut source = img.clone();
        let mut sink = MaterialiseSink::default();
        source.stream_out(&mut sink).unwrap();
        prop_assert_eq!(&sink.into_image(img.taken_at_ns), &img);
    }

    /// Any single corrupted byte in a streaming-written store is detected
    /// by the parallel reader.
    #[test]
    fn streamed_store_corruption_is_detected(
        img in image_strategy(),
        file_pick in any::<u64>(),
        offset_pick in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let dir = TempDir::new("stream-corrupt");
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, _) = write_streaming(&store, &img, &WriteOptions::full());
        drop(store);

        let mut files: Vec<std::path::PathBuf> = Vec::new();
        for sub in ["images", "chunks"] {
            for entry in std::fs::read_dir(dir.path().join(sub)).unwrap() {
                files.push(entry.unwrap().path());
            }
        }
        files.sort();
        let target = &files[(file_pick % files.len() as u64) as usize];
        let mut bytes = std::fs::read(target).unwrap();
        let offset = (offset_pick % bytes.len() as u64) as usize;
        bytes[offset] ^= xor;
        std::fs::write(target, &bytes).unwrap();

        let result = ImageStore::open(dir.path()).unwrap().read_image(id);
        prop_assert!(
            result.is_err(),
            "flip of byte {} in {} went undetected", offset, target.display()
        );
    }
}
