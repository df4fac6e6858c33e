//! Property-based tests of the image store, modeled on
//! `crates/addrspace/tests/proptest_space.rs`.
//!
//! The two properties a checkpoint store must never violate:
//!
//! 1. **Lossless roundtrip** — for any checkpoint image, write → read
//!    reconstructs the image byte for byte.
//! 2. **Fail-stop on corruption** — flip any single byte of any file in the
//!    store and reading the image reports an error instead of returning
//!    wrong memory contents.

use std::collections::BTreeSet;

use crac_addrspace::{Addr, Prot, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, SavedRegion};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{ImageStore, WriteOptions};
use proptest::prelude::*;

/// A random saved region: up to 48 pages scattered over a 64-page span,
/// with per-page fill patterns (some compressible, some not).
fn region_strategy() -> impl Strategy<Value = SavedRegion> {
    (
        0u64..512,                                                 // slot → start address
        proptest::collection::vec((0u64..64, any::<u8>()), 0..48), // (page idx, seed byte)
        any::<bool>(),                                             // executable?
        0usize..4,                                                 // label choice
    )
        .prop_map(|(slot, raw_pages, exec, label_idx)| {
            let mut indices = BTreeSet::new();
            let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
            for (idx, seed) in raw_pages {
                if !indices.insert(idx) {
                    continue; // keep page indices unique and sorted
                }
                let mut page = vec![seed; PAGE_SIZE as usize];
                if seed % 3 == 0 {
                    // Make every third page incompressible.
                    for (j, b) in page.iter_mut().enumerate() {
                        *b = (j as u8).wrapping_mul(97).wrapping_add(seed);
                    }
                }
                pages.push((idx, page));
            }
            pages.sort_by_key(|(idx, _)| *idx);
            let labels = ["[heap]", "app.data", "lib.so", "[stack]"];
            SavedRegion {
                start: Addr(0x4000_0000_0000 + slot * 64 * PAGE_SIZE),
                len: 64 * PAGE_SIZE,
                prot: if exec { Prot::RX } else { Prot::RW },
                label: labels[label_idx].to_string(),
                pages,
            }
        })
}

/// A random checkpoint image: a few regions plus a couple of payloads.
fn image_strategy() -> impl Strategy<Value = CheckpointImage> {
    (
        proptest::collection::vec(region_strategy(), 1..5),
        proptest::collection::vec(
            (0usize..3, proptest::collection::vec(any::<u8>(), 0..200)),
            0..3,
        ),
        0u64..1_000_000_000,
    )
        .prop_map(|(mut regions, raw_payloads, taken_at_ns)| {
            // A process has one region per address: drop repeats of a start
            // slot, which a writer merges as a pre-copy re-open.
            let mut starts = BTreeSet::new();
            regions.retain(|r| starts.insert(r.start));
            let mut image = CheckpointImage {
                regions,
                taken_at_ns,
                ..Default::default()
            };
            let names = ["crac", "uvm", "counters"];
            for (name_idx, data) in raw_payloads {
                image.payloads.insert(names[name_idx].to_string(), data);
            }
            image
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write → read reconstructs the image exactly.
    #[test]
    fn roundtrip_is_lossless(img in image_strategy()) {
        let dir = TempDir::new("prop-roundtrip");
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, stats) = store.write_image(&img, &WriteOptions::full()).unwrap();
        prop_assert!(stats.chunks_written + stats.chunks_deduped == stats.chunks_total);
        let (back, _) = store.read_image(id).unwrap();
        prop_assert_eq!(back, img);
    }

    /// Any single corrupted byte in any store file is detected at read time.
    #[test]
    fn single_byte_corruption_is_detected(
        img in image_strategy(),
        file_pick in any::<u64>(),
        offset_pick in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let dir = TempDir::new("prop-corrupt");
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();

        // Collect every file of the store (manifest + all chunks).
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

        // The store must refuse, not silently restore wrong memory.
        let result = ImageStore::open(dir.path()).unwrap().read_image(id);
        prop_assert!(
            result.is_err(),
            "flip of byte {} in {} went undetected", offset, target.display()
        );
    }

    /// Rewriting the same image dedups every chunk: the second write stores
    /// only a manifest.
    #[test]
    fn identical_rewrite_stores_only_the_manifest(img in image_strategy()) {
        let dir = TempDir::new("prop-dedup");
        let store = ImageStore::open(dir.path()).unwrap();
        let (a, first) = store.write_image(&img, &WriteOptions::full()).unwrap();
        let (b, second) = store.write_image(&img, &WriteOptions::incremental(a)).unwrap();
        prop_assert!(b > a);
        prop_assert_eq!(second.chunks_written, 0);
        prop_assert_eq!(second.chunk_bytes_written, 0);
        prop_assert_eq!(second.chunks_deduped, first.chunks_total);
        let (back, _) = store.read_image(b).unwrap();
        prop_assert_eq!(back, img);
    }
}

/// The acceptance-criterion scenario, deterministic: a 4-region image with
/// 256 dirty pages per region; an incremental checkpoint after re-dirtying
/// <10 % of the pages must store <50 % of the bytes of the full image.
#[test]
fn incremental_checkpoint_stores_under_half_of_full() {
    let mut img = CheckpointImage {
        taken_at_ns: 1,
        ..Default::default()
    };
    for r in 0..4u64 {
        let pages: Vec<(u64, Vec<u8>)> = (0..256)
            .map(|i| {
                let mut page = vec![0u8; PAGE_SIZE as usize];
                for (j, b) in page.iter_mut().enumerate() {
                    // Incompressible content so compression cannot mask the
                    // dedup effect being asserted.
                    *b = (j as u8).wrapping_mul(13).wrapping_add((r * 256 + i) as u8);
                }
                // Stamp a globally unique prefix so no two pages of the
                // image are identical (intra-image dedup would otherwise
                // kick in and skew the full-write baseline).
                page[..8].copy_from_slice(&(r * 256 + i + 1).to_le_bytes());
                (i, page)
            })
            .collect();
        img.regions.push(SavedRegion {
            start: Addr(0x4000_0000_0000 + r * (1 << 24)),
            len: 256 * PAGE_SIZE,
            prot: Prot::RW,
            label: format!("region-{r}"),
            pages,
        });
    }

    let dir = TempDir::new("incr-half");
    let store = ImageStore::open(dir.path()).unwrap();
    let (parent, full) = store.write_image(&img, &WriteOptions::full()).unwrap();
    assert_eq!(full.chunks_deduped, 0, "fresh store has nothing to dedup");

    // Dirty 24 of 1024 pages (2.3 %, comfortably <10 %).
    let mut incr_img = img.clone();
    incr_img.taken_at_ns = 2;
    for region in &mut incr_img.regions {
        for (idx, page) in region.pages.iter_mut() {
            if *idx % 43 == 0 {
                page.fill(0xC7);
            }
        }
    }
    let (id, incr) = store
        .write_image(&incr_img, &WriteOptions::incremental(parent))
        .unwrap();

    assert!(
        incr.bytes_written() * 2 < full.bytes_written(),
        "incremental wrote {} of full {} — dedup is not working",
        incr.bytes_written(),
        full.bytes_written()
    );
    assert!(incr.chunks_deduped > 0);
    // And the incremental image still reads back complete and verified.
    let (back, _) = store.read_image(id).unwrap();
    assert_eq!(back, incr_img);
    // Lineage is recorded.
    assert_eq!(store.image_info(id).unwrap().parent, Some(parent));
}

/// Persistence: a store reopened from disk still serves images and dedups
/// against chunks written by the previous instance.
#[test]
fn store_survives_reopen() {
    let dir = TempDir::new("reopen");
    let img = {
        let mut img = CheckpointImage {
            taken_at_ns: 7,
            ..Default::default()
        };
        img.regions.push(SavedRegion {
            start: Addr(0x4000_0000_0000),
            len: 32 * PAGE_SIZE,
            prot: Prot::RW,
            label: "persist".into(),
            pages: (0..32)
                .map(|i| (i, vec![i as u8; PAGE_SIZE as usize]))
                .collect(),
        });
        img.payloads.insert("crac".into(), vec![9; 128]);
        img
    };

    let id = {
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();
        id
    };

    // A brand-new store instance over the same directory.
    let store = ImageStore::open(dir.path()).unwrap();
    let (back, _) = store.read_image(id).unwrap();
    assert_eq!(back, img);

    // Dedup works against the reloaded chunk index, and ids keep advancing.
    let (id2, stats) = store.write_image(&img, &WriteOptions::full()).unwrap();
    assert!(id2 > id);
    assert_eq!(
        stats.chunks_written, 0,
        "reopened index must know old chunks"
    );

    let images = store.list_images().unwrap();
    assert_eq!(images.len(), 2);
    assert_eq!(images[0].id, id);
    let sstats = store.stats().unwrap();
    assert_eq!(sstats.images, 2);
    assert!(sstats.chunks > 0);
}

/// A CRC proves a manifest is what its sender wrote, not that it is sane:
/// a peer serving `get_manifest` computes its own CRC.  Region tables that
/// are CRC-valid but inconsistent — an empty region, an unaligned one, one
/// below the upper half, one wrapping the address space, two that overlap —
/// must come back as corruption from every restore path (eager and lazy,
/// local store and peer), never as a panic in `mmap`, never as one region
/// silently clobbering another; and a refused restore leaves no fault
/// handler installed and no worker parked (`restore` returning at all is
/// the proof of the latter: it joins its workers first).
#[test]
fn crc_valid_but_inconsistent_region_tables_are_corruption_on_every_restore_path() {
    use crac_addrspace::SharedSpace;
    use crac_dmtcp::{Coordinator, CoordinatorConfig};
    use crac_imagestore::format::Manifest;
    use crac_imagestore::{
        restore, FaultConfig, FaultyTransport, ImageSource, LoopbackTransport, ObsRegistry,
        StoreError, StreamReader, Transport,
    };

    let region = |slot: u64| SavedRegion {
        start: Addr(0x4000_0000_0000 + slot * 64 * PAGE_SIZE),
        len: 32 * PAGE_SIZE,
        prot: Prot::RW,
        label: format!("hostile-{slot}"),
        pages: (0..32)
            .map(|i| (i, vec![(slot * 32 + i) as u8 + 1; PAGE_SIZE as usize]))
            .collect(),
    };
    let mut img = CheckpointImage::default();
    img.regions.extend([region(0), region(1)]);

    type Defect = fn(&mut Manifest);
    let defects: [(&str, Defect); 5] = [
        ("zero-length region", |m| m.regions[1].len = 0),
        ("unaligned start", |m| m.regions[1].start += 512),
        ("start below the upper half", |m| {
            m.regions[1].start = 0x1000_0000
        }),
        ("end wraps the address space", |m| {
            m.regions[1].start = u64::MAX - PAGE_SIZE + 1
        }),
        ("overlapping regions", |m| {
            m.regions[1].start = m.regions[0].start + 8 * PAGE_SIZE
        }),
    ];

    for (name, defect) in defects {
        let dir = TempDir::new("hostile-manifest");
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, _) = store.write_image(&img, &WriteOptions::full()).unwrap();
        // Plant the defect behind a fresh, valid CRC.
        let path = dir.path().join(format!("images/{:016x}.crimg", id.0));
        let mut manifest = Manifest::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        defect(&mut manifest);
        std::fs::write(&path, manifest.to_bytes()).unwrap();

        let loopback = LoopbackTransport::new(&store);
        let peer = FaultyTransport::new(
            &loopback,
            FaultConfig {
                seed: 7,
                jitter: std::time::Duration::from_micros(200),
                ..Default::default()
            },
        );
        for source in [ImageSource::Store(&store), ImageSource::Peer(&peer)] {
            for lazy in [false, true] {
                let space = SharedSpace::new_no_aslr();
                let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
                let reader = StreamReader::open(source, id, ObsRegistry::new()).unwrap();
                let result: Result<_, StoreError> =
                    restore(reader, lazy, |install| install(&coord, &space));
                let err = result
                    .err()
                    .unwrap_or_else(|| panic!("{name} (lazy={lazy}): a hostile manifest restored"));
                assert!(err.is_corruption(), "{name} (lazy={lazy}): got {err}");
                assert!(!space.has_fault_handler(), "{name} (lazy={lazy})");
                assert_eq!(
                    space.with(|s| s.regions().count()),
                    0,
                    "{name} (lazy={lazy}): refused before anything was mapped"
                );
            }
        }
        // A peer refuses to publish such a manifest in the first place.
        let planted = std::fs::read(&path).unwrap();
        let err = loopback.put_manifest(&planted, None).unwrap_err();
        assert!(err.is_corruption(), "{name}: adoption got {err}");
    }
}
