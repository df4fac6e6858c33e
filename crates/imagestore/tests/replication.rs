//! Remote replication over the transport seam: dedup-aware shipping,
//! bounded transient retry, crash-interrupted resume, and the
//! receiving-side verification that keeps a faulty peer from poisoning a
//! store.
//!
//! Everything runs over [`LoopbackTransport`] (a second `ImageStore`
//! playing the remote node) and [`FaultyTransport`] (deterministic fault
//! injection) — the same code a real network transport would sit under.

mod common;

use common::{
    assert_listed_images_are_whole, assert_manifest_after_every_put, small_chunk_image,
    while_watching_the_peer, Gate, Recording, THREE_BATCHES,
};
use crac_addrspace::{Addr, Prot, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, SavedRegion};
use crac_imagestore::format::{frame_chunk, parse_chunk};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{
    ChunkSource, FaultConfig, FaultyTransport, ImageSource, ImageStore, LoopbackTransport,
    MaterialiseSink, ObsRegistry, RegionSource, RemoteChunkSink, StoreError, StreamReader,
    Transport, WriteOptions, MAX_TRANSIENT_RETRIES,
};

/// An image of `chunks` distinct 16-page chunks (one contiguous region),
/// every page unique to `seed` so no two images share content unless they
/// share `seed`.
fn image(seed: u8, chunks: u64) -> CheckpointImage {
    let pages = chunks * 16;
    let mut img = CheckpointImage {
        taken_at_ns: seed as u64 * 1000,
        ..Default::default()
    };
    img.regions.push(SavedRegion {
        start: Addr(0x4000_0000_0000),
        len: pages * PAGE_SIZE,
        prot: Prot::RW,
        label: format!("repl-{seed}"),
        pages: (0..pages)
            .map(|i| {
                let mut page = vec![seed; PAGE_SIZE as usize];
                page[..8].copy_from_slice(&(((seed as u64) << 32) | i).to_le_bytes());
                (i, page)
            })
            .collect(),
    });
    img.payloads.insert("crac".into(), vec![seed; 128]);
    img
}

fn dir_syncs(store: &ImageStore) -> u64 {
    store.obs().snapshot().counter("crac_store_chunk_dir_syncs")
}

/// Reads image `id` of `store` back and asserts it matches `expect`
/// byte for byte (regions and payloads; ids/timestamps aside).
fn assert_same_content(store: &ImageStore, id: crac_imagestore::ImageId, expect: &CheckpointImage) {
    let (back, _) = store.read_image(id).unwrap();
    assert_eq!(back.regions.len(), expect.regions.len());
    for (a, b) in back.regions.iter().zip(expect.regions.iter()) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.len, b.len);
        assert_eq!(a.pages, b.pages, "region {} content differs", a.label);
    }
    assert_eq!(back.payloads, expect.payloads);
}

#[test]
fn replicate_to_ships_everything_once_then_nothing() {
    let (src_dir, dst_dir) = (TempDir::new("repl-src"), TempDir::new("repl-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(1, 8);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    let transport = LoopbackTransport::new(&dst);
    let (remote_id, stats) = src.replicate_to(id, &transport).unwrap();
    assert_eq!(stats.chunks_total, 8);
    assert_eq!(stats.chunks_shipped, 8, "empty peer: everything travels");
    assert_eq!(stats.chunks_deduped, 0);
    assert_eq!(transport.stats().chunks_put, 8);
    assert!(stats.bytes_shipped > 0 && stats.manifest_bytes > 0);
    assert_same_content(&dst, remote_id, &img);

    // Second replication of the same image: the negotiation finds every
    // chunk already present — zero puts, only the manifest travels.
    let puts_before = transport.stats().chunks_put;
    let (remote_id2, stats2) = src.replicate_to(id, &transport).unwrap();
    assert_eq!(stats2.chunks_shipped, 0, "dedup: nothing re-ships");
    assert_eq!(stats2.chunks_deduped, 8);
    assert_eq!(stats2.dedup_ratio(), 1.0);
    assert_eq!(
        transport.stats().chunks_put,
        puts_before,
        "transport-level proof: no put_chunk at all"
    );
    assert_ne!(remote_id2, remote_id, "peer assigns a fresh id per replica");
}

#[test]
fn incremental_child_ships_only_chunks_absent_from_the_destination() {
    let (src_dir, dst_dir) = (TempDir::new("repl-inc-src"), TempDir::new("repl-inc-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let parent_img = image(2, 8);
    let (parent, _) = src.write_image(&parent_img, &WriteOptions::full()).unwrap();

    let transport = LoopbackTransport::new(&dst);
    src.replicate_to(parent, &transport).unwrap();

    // The child mutates one page in one chunk: exactly one chunk's
    // content is new.
    let mut child_img = parent_img.clone();
    child_img.regions[0].pages[17].1 = vec![0xEE; PAGE_SIZE as usize];
    let (child, wstats) = src
        .write_image(&child_img, &WriteOptions::incremental(parent))
        .unwrap();
    assert_eq!(wstats.chunks_written, 1, "one chunk changed locally");

    let puts_before = transport.stats().chunks_put;
    let (remote_child, stats) = src.replicate_to(child, &transport).unwrap();
    assert_eq!(stats.chunks_total, 8);
    assert_eq!(stats.chunks_shipped, 1, "only the changed chunk travels");
    assert_eq!(stats.chunks_deduped, 7);
    assert_eq!(transport.stats().chunks_put - puts_before, 1);
    assert_same_content(&dst, remote_child, &child_img);
}

#[test]
fn replicate_from_pulls_only_missing_chunks() {
    let (src_dir, dst_dir) = (TempDir::new("pull-src"), TempDir::new("pull-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(3, 6);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    // Pull: dst fetches from src.
    let transport = LoopbackTransport::new(&src);
    let (local_id, stats) = dst.replicate_from(&transport, id).unwrap();
    assert_eq!(stats.chunks_shipped, 6);
    assert_same_content(&dst, local_id, &img);

    // A second pull of the same image moves no chunk.
    let got_before = transport.stats().chunks_got;
    let (_, stats2) = dst.replicate_from(&transport, id).unwrap();
    assert_eq!(stats2.chunks_shipped, 0);
    assert_eq!(stats2.chunks_deduped, 6);
    assert_eq!(transport.stats().chunks_got, got_before);
}

#[test]
fn remote_checkpoint_stream_dedups_against_locally_written_content() {
    // A checkpoint streamed through RemoteChunkSink must produce the same
    // chunk hashes as the local writer — pin it by writing the image
    // locally on the peer first: the remote stream then ships nothing.
    let dst_dir = TempDir::new("sink-dedup");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(4, 5);
    dst.write_image(&img, &WriteOptions::full()).unwrap();

    let transport = LoopbackTransport::new(&dst);
    let mut sink = RemoteChunkSink::new(&transport, None);
    img.stream_into(&mut sink).unwrap();
    sink.set_taken_at(img.taken_at_ns);
    let (remote_id, stats) = sink.finish().unwrap();
    assert_eq!(stats.chunks_total, 5);
    assert_eq!(
        stats.chunks_shipped, 0,
        "identical chunk boundaries ⇒ identical hashes ⇒ full dedup"
    );
    assert_eq!(transport.stats().chunks_put, 0);
    assert_same_content(&dst, remote_id, &img);
}

#[test]
fn remote_source_restores_through_the_shared_pipeline() {
    let dst_dir = TempDir::new("src-restore");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(5, 7);
    let (id, _) = dst.write_image(&img, &WriteOptions::full()).unwrap();

    let transport = LoopbackTransport::new(&dst);
    let mut source =
        StreamReader::open(ImageSource::Peer(&transport), id, ObsRegistry::new()).unwrap();
    assert_eq!(source.taken_at_ns(), img.taken_at_ns);
    assert_eq!(source.region_count(), 1);
    assert_eq!(source.payload("crac"), Some(&[5u8; 128][..]));

    let mut sink = MaterialiseSink::default();
    source.stream_out(&mut sink).unwrap();
    let mut back = sink.into_image(source.taken_at_ns());
    back.regions[0].pages.sort_by_key(|(i, _)| *i);
    assert_eq!(back.regions[0].pages, img.regions[0].pages);
    let stats = source.stats();
    assert_eq!(stats.chunks_read, 7);
    assert_eq!(stats.transient_retries, 0, "healthy link: no retries");
    assert!(stats.peak_buffered_bytes > 0);
}

#[test]
fn transient_faults_are_absorbed_by_bounded_retry() {
    let (src_dir, dst_dir) = (TempDir::new("flaky-src"), TempDir::new("flaky-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(6, 6);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    // Ship side: the first two put attempts of every chunk fail.
    let loopback = LoopbackTransport::new(&dst);
    let flaky = FaultyTransport::new(
        &loopback,
        FaultConfig {
            transient_put_attempts: 2,
            ..Default::default()
        },
    );
    let (remote_id, stats) = src.replicate_to(id, &flaky).unwrap();
    assert_eq!(stats.chunks_shipped, 6);
    assert!(
        stats.transient_retries >= 12,
        "two absorbed failures per chunk: {stats:?}"
    );
    assert!(flaky.faults_injected() >= 12);

    // Fetch side: the first two get attempts of every chunk fail; the
    // parallel workers retry instead of failing the restore.
    let flaky_get = FaultyTransport::new(
        &loopback,
        FaultConfig {
            transient_get_attempts: 2,
            ..Default::default()
        },
    );
    let mut source =
        StreamReader::open(ImageSource::Peer(&flaky_get), remote_id, ObsRegistry::new()).unwrap();
    let mut sink = MaterialiseSink::default();
    source.stream_out(&mut sink).unwrap();
    let stats = source.stats();
    assert_eq!(stats.chunks_read, 6);
    assert!(
        stats.transient_retries >= 12,
        "worker-loop retries recovered every chunk: {stats:?}"
    );
}

#[test]
fn retry_exhaustion_fails_transiently_not_as_corruption() {
    let dst_dir = TempDir::new("deadlink");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(7, 3);
    let (id, _) = dst.write_image(&img, &WriteOptions::full()).unwrap();

    let loopback = LoopbackTransport::new(&dst);
    let dead = FaultyTransport::new(
        &loopback,
        FaultConfig {
            // One more failure than the retry budget: every fetch exhausts.
            transient_get_attempts: MAX_TRANSIENT_RETRIES + 1,
            ..Default::default()
        },
    );
    let mut source = StreamReader::open(ImageSource::Peer(&dead), id, ObsRegistry::new()).unwrap();
    let mut sink = MaterialiseSink::default();
    let err = source.stream_out(&mut sink).unwrap_err();
    assert!(err.is_transient(), "got: {err}");
    assert!(!err.is_corruption());
}

#[test]
fn corruption_fails_fast_without_retries() {
    let dst_dir = TempDir::new("poison");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(8, 3);
    let (id, _) = dst.write_image(&img, &WriteOptions::full()).unwrap();

    // Flip one byte in one chunk file: the transport serves it verbatim,
    // the verification ladder must catch it, and nothing may retry.
    let chunks_dir = dst_dir.path().join("chunks");
    let victim = std::fs::read_dir(&chunks_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "chk"))
        .unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();

    let transport = LoopbackTransport::new(&dst);
    let mut source =
        StreamReader::open(ImageSource::Peer(&transport), id, ObsRegistry::new()).unwrap();
    let mut sink = MaterialiseSink::default();
    let err = source.stream_out(&mut sink).unwrap_err();
    assert!(err.is_corruption(), "got: {err}");
    assert_eq!(
        source.stats().transient_retries,
        0,
        "corruption is never retried"
    );
}

#[test]
fn receiving_store_rejects_chunks_that_fail_verification() {
    let dst_dir = TempDir::new("reject");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let transport = LoopbackTransport::new(&dst);

    use crac_imagestore::{ContentHash, Transport};
    // Valid chunk-file framing around bytes that hash to something else
    // entirely: a lying sender.
    let body = vec![0x5Au8; PAGE_SIZE as usize];
    let file = frame_chunk(&body);
    let claimed = ContentHash::of(b"something else");
    let err = transport.put_chunk(claimed, &file).unwrap_err();
    assert!(err.is_corruption(), "got: {err}");
    assert!(!dst.contains_chunk(claimed), "nothing may land");
    assert_eq!(
        std::fs::read_dir(dst_dir.path().join("chunks"))
            .unwrap()
            .count(),
        0,
        "not even litter"
    );
}

#[test]
fn manifest_is_refused_until_its_chunks_landed() {
    let (src_dir, dst_dir) = (TempDir::new("order-src"), TempDir::new("order-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(9, 2);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    use crac_imagestore::Transport;
    let transport = LoopbackTransport::new(&dst);
    let manifest_bytes = std::fs::read(
        src_dir
            .path()
            .join("images")
            .join(format!("{:016x}.crimg", id.0)),
    )
    .unwrap();
    let err = transport.put_manifest(&manifest_bytes, None).unwrap_err();
    assert!(
        matches!(err, StoreError::MissingChunk { .. }),
        "chunks-before-manifest ordering is enforced by the receiver: {err}"
    );
    assert_eq!(dst.stats().unwrap().images, 0);
}

#[test]
fn lying_peer_manifest_with_broken_geometry_is_rejected() {
    let (src_dir, dst_dir) = (TempDir::new("liar-src"), TempDir::new("liar-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(12, 2);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    // Ship the chunks honestly, then publish a manifest whose run
    // geometry lies (a run grew a page, so the chunk no longer covers
    // its recorded raw_len): CRC-valid, chunks present — only the
    // geometry validation can catch it, and it must, *before*
    // publication.
    use crac_imagestore::format::Manifest;
    use crac_imagestore::Transport;
    let transport = LoopbackTransport::new(&dst);
    let before = src.replicate_to(id, &transport).unwrap().1;
    assert_eq!(before.chunks_shipped, 2);

    let manifest_path = src_dir
        .path()
        .join("images")
        .join(format!("{:016x}.crimg", id.0));
    let honest = Manifest::from_bytes(&std::fs::read(&manifest_path).unwrap()).unwrap();
    let images_before = dst.stats().unwrap().images;

    let mut bad_geometry = honest.clone();
    bad_geometry.regions[0].chunks[0].runs[0].count += 1;
    let err = transport
        .put_manifest(&bad_geometry.to_bytes(), None)
        .unwrap_err();
    assert!(err.is_corruption(), "got: {err}");

    // Self-consistent runs/raw_len that disagree with what the stored
    // chunk actually holds: only the header cross-check can catch this.
    let mut bad_length = honest.clone();
    {
        let chunk = &mut bad_length.regions[0].chunks[0];
        chunk.raw_len = PAGE_SIZE;
        chunk.runs = vec![crac_addrspace::PageRun { first: 0, count: 1 }];
    }
    let err = transport
        .put_manifest(&bad_length.to_bytes(), None)
        .unwrap_err();
    assert!(err.is_corruption(), "got: {err}");

    assert_eq!(
        dst.stats().unwrap().images,
        images_before,
        "neither broken image may become visible"
    );
}

/// Satellite regression: a replication killed mid-stream leaves the
/// destination openable and torn-chunk-free, and a re-run resumes,
/// shipping only what is still missing.
#[test]
fn crash_interrupted_replication_leaves_destination_clean_and_resumes() {
    let (src_dir, dst_dir) = (TempDir::new("crash-src"), TempDir::new("crash-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let img = image(10, 8);
    let (id, _) = src.write_image(&img, &WriteOptions::full()).unwrap();

    const CUT_AFTER: usize = 3;
    {
        let dst = ImageStore::open(dst_dir.path()).unwrap();
        let loopback = LoopbackTransport::new(&dst);
        let killed = FaultyTransport::new(
            &loopback,
            FaultConfig {
                cut_after_puts: Some(CUT_AFTER),
                ..Default::default()
            },
        );
        let err = src.replicate_to(id, &killed).unwrap_err();
        assert!(err.is_transient(), "the link died: {err}");
        // The cut counts *completed* puts, so the puts the window already
        // had in flight when it fell may still land.
        assert!((CUT_AFTER..8).contains(&loopback.stats().chunks_put));
    } // the "crashed" destination process exits, lock released

    // The destination store opens clean: no image is visible (the
    // manifest never travelled), and every chunk that did land is a
    // complete, verifiable file — no torn state.
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    assert_eq!(dst.stats().unwrap().images, 0, "no torn image visible");
    let mut landed = 0;
    for entry in std::fs::read_dir(dst_dir.path().join("chunks")).unwrap() {
        let path = entry.unwrap().path();
        assert!(
            path.extension().is_some_and(|x| x == "chk"),
            "no temp litter visible: {path:?}"
        );
        let bytes = std::fs::read(&path).unwrap();
        parse_chunk(&bytes).expect("every landed chunk parses and CRC-checks");
        landed += 1;
    }
    assert!((CUT_AFTER..8).contains(&landed), "landed {landed} of 8");

    // Re-running the replication resumes: the negotiation skips the
    // chunks that already landed and ships exactly the remainder.
    let loopback = LoopbackTransport::new(&dst);
    let (remote_id, stats) = src.replicate_to(id, &loopback).unwrap();
    assert_eq!(stats.chunks_deduped, landed, "landed chunks are skipped");
    assert_eq!(stats.chunks_shipped, 8 - landed, "only the rest ships");
    assert_eq!(loopback.stats().chunks_put, 8 - landed);
    assert_same_content(&dst, remote_id, &img);
}

#[test]
fn latency_jitter_reorders_completions_without_corrupting_the_restore() {
    let dst_dir = TempDir::new("jitter");
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(11, 10);
    let (id, _) = dst.write_image(&img, &WriteOptions::full()).unwrap();

    let loopback = LoopbackTransport::new(&dst);
    let jittery = FaultyTransport::new(
        &loopback,
        FaultConfig {
            seed: 0xC0FFEE,
            jitter: std::time::Duration::from_millis(3),
            ..Default::default()
        },
    );
    let mut source =
        StreamReader::open(ImageSource::Peer(&jittery), id, ObsRegistry::new()).unwrap();
    let mut sink = MaterialiseSink::default();
    source.stream_out(&mut sink).unwrap();
    let mut back = sink.into_image(source.taken_at_ns());
    back.regions[0].pages.sort_by_key(|(i, _)| *i);
    assert_eq!(
        back.regions[0].pages, img.regions[0].pages,
        "arbitrary completion order still splices correctly"
    );
}

/// The ship loop's *order* promise under a window of concurrent puts, for
/// both of its callers: `put_manifest` is entered only after every
/// `put_chunk` of the stream returned (the first two puts are held at a
/// gate until both are in flight, so the window is exercised, not assumed),
/// and at no instant does the peer list an image it cannot fully serve.
#[test]
fn ship_enters_put_manifest_only_after_every_put_returned() {
    let (src_dir, dst_dir) = (
        TempDir::new("ship-order-src"),
        TempDir::new("ship-order-dst"),
    );
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let stored = small_chunk_image(21, THREE_BATCHES);
    let streamed = small_chunk_image(22, THREE_BATCHES);
    let (id, _) = src.write_image(&stored, &WriteOptions::full()).unwrap();

    let loopback = LoopbackTransport::new(&dst);
    while_watching_the_peer(&LoopbackTransport::new(&dst), || {
        let gate = Gate::new(2);
        let recording = Recording::new(&loopback).gating_first_puts(&gate, 2);
        let (_, stats) = src.replicate_to(id, &recording).unwrap();
        assert_eq!(stats.chunks_shipped, THREE_BATCHES as usize);
        assert_eq!(stats.has_batches, 3);
        assert_manifest_after_every_put(&recording.calls(), stats.chunks_shipped);

        let gate = Gate::new(2);
        let recording = Recording::new(&loopback).gating_first_puts(&gate, 2);
        let mut sink = RemoteChunkSink::new(&recording, None);
        streamed.stream_into(&mut sink).unwrap();
        let (_, stats) = sink.finish().unwrap();
        assert_eq!(stats.chunks_shipped, THREE_BATCHES as usize);
        assert_manifest_after_every_put(&recording.calls(), stats.chunks_shipped);
    });
    assert_eq!(assert_listed_images_are_whole(&loopback), 2);
}

/// The ship loop's *resume* promise under concurrency: whichever put of a
/// three-batch image the stream dies at — the link cut (transient, after k
/// completed puts) or the k-th put refused for good — no manifest is
/// published, and the retried stream ships exactly what had not landed.
#[test]
fn ship_resumes_with_exactly_the_remainder_after_a_failure_at_any_put() {
    let src_dir = TempDir::new("ship-resume-src");
    let src = ImageStore::open(src_dir.path()).unwrap();
    let total = THREE_BATCHES as usize;
    let (id, _) = src
        .write_image(&small_chunk_image(23, THREE_BATCHES), &WriteOptions::full())
        .unwrap();

    for k in 0..total {
        for permanent in [false, true] {
            let dst_dir = TempDir::new("ship-resume-dst");
            let dst = ImageStore::open(dst_dir.path()).unwrap();
            let loopback = LoopbackTransport::new(&dst);
            let err = if permanent {
                let refusing = Recording::new(&loopback).failing_put(k);
                src.replicate_to(id, &refusing).unwrap_err()
            } else {
                let cut = FaultConfig {
                    cut_after_puts: Some(k),
                    ..Default::default()
                };
                src.replicate_to(id, &FaultyTransport::new(&loopback, cut))
                    .unwrap_err()
            };
            assert_eq!(err.is_transient(), !permanent, "k={k}: {err}");
            assert_eq!(loopback.stats().manifests_put, 0, "k={k}: no manifest");
            assert_eq!(dst.stats().unwrap().images, 0);
            let landed = dst.stats().unwrap().chunks;
            assert_eq!(landed, loopback.stats().chunks_put);
            if permanent {
                assert!(landed < total, "k={k}: the refused put never landed");
            } else {
                // The cut counts completed puts; those the window had in
                // flight when it fell may land on top.
                assert!(landed >= k, "k={k}: {landed} landed before the cut");
            }

            let retried = LoopbackTransport::new(&dst);
            let (_, stats) = src.replicate_to(id, &retried).unwrap();
            assert_eq!(stats.chunks_shipped, total - landed, "k={k}");
            assert_eq!(
                stats.chunks_shipped + stats.chunks_deduped,
                stats.chunks_total
            );
            assert_eq!(retried.stats().chunks_put, total - landed);
            assert_eq!(stats.transient_retries, 0, "a healthy link retries nothing");
            assert_eq!(dst.stats().unwrap().images, 1);
        }
    }
}

/// Retries are charged per injected transient and nothing else: with every
/// chunk's first put dropped, the window's workers absorb exactly one retry
/// per chunk between them.
#[test]
fn ship_workers_count_only_injected_transients_as_retries() {
    let (src_dir, dst_dir) = (
        TempDir::new("ship-retry-src"),
        TempDir::new("ship-retry-dst"),
    );
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let total = THREE_BATCHES as usize;
    let (id, _) = src
        .write_image(&small_chunk_image(24, THREE_BATCHES), &WriteOptions::full())
        .unwrap();

    let loopback = LoopbackTransport::new(&dst);
    let flaky = FaultyTransport::new(
        &loopback,
        FaultConfig {
            transient_put_attempts: 1,
            ..Default::default()
        },
    );
    let (_, stats) = src.replicate_to(id, &flaky).unwrap();
    assert_eq!(
        stats.chunks_shipped + stats.chunks_deduped,
        stats.chunks_total
    );
    assert_eq!(stats.chunks_shipped, total);
    assert_eq!(flaky.faults_injected(), total);
    assert_eq!(stats.transient_retries, total);
    // The window and its per-put timing are on the store's registry.
    let snap = src.obs().snapshot();
    assert!(snap
        .gauge("crac_remote_ship_threads")
        .is_some_and(|g| g.value >= 2));
    let text = src.obs().render_text();
    assert!(
        text.contains(&format!("crac_remote_stage_put_us_count {total}")),
        "one put span per shipped chunk:\n{text}"
    );
}

/// The durability rule, observed through `crac_store_chunk_dir_syncs`: the
/// chunk directory is synced once per manifest publication that follows a
/// rename into it — whoever renamed — and never otherwise.
#[test]
fn dir_sync_happens_once_per_manifest_that_follows_a_rename() {
    let (src_dir, dst_dir) = (TempDir::new("dirsync-src"), TempDir::new("dirsync-dst"));
    let src = ImageStore::open(src_dir.path()).unwrap();
    let dst = ImageStore::open(dst_dir.path()).unwrap();
    let img = image(25, 6);

    // A local write that wrote chunks: one sync, as ever.
    let (id, stats) = src.write_image(&img, &WriteOptions::full()).unwrap();
    assert_eq!(stats.chunks_written, 6);
    assert_eq!(dir_syncs(&src), 1);

    // N put_chunks + put_manifest: exactly one, not N.
    let transport = LoopbackTransport::new(&dst);
    src.replicate_to(id, &transport).unwrap();
    assert_eq!(transport.stats().chunks_put, 6);
    assert_eq!(dir_syncs(&dst), 1);

    // A second manifest over the same chunks renames nothing: none.
    src.replicate_to(id, &transport).unwrap();
    assert_eq!(dir_syncs(&dst), 1);

    // Chunks ingested with no manifest after them, then a local write
    // that dedups against all of them: its manifest names renames no sync
    // has covered, so it pays the sync (the parent paid none).
    let other = image(26, 4);
    let (other_id, _) = src.write_image(&other, &WriteOptions::full()).unwrap();
    for entry in std::fs::read_dir(src_dir.path().join("chunks")).unwrap() {
        let path = entry.unwrap().path();
        let hash =
            crac_imagestore::ContentHash::from_hex(path.file_stem().unwrap().to_str().unwrap())
                .unwrap();
        transport
            .put_chunk(hash, &std::fs::read(&path).unwrap())
            .unwrap();
    }
    assert_eq!(dir_syncs(&dst), 1, "a put_chunk ack syncs no directory");
    let (_, stats) = dst.write_image(&other, &WriteOptions::full()).unwrap();
    assert_eq!((stats.chunks_written, stats.chunks_deduped), (0, 4));
    assert_eq!(dir_syncs(&dst), 2);

    // The pull side shares the ingest: one per adopted image, none for a
    // pull that moved nothing.
    let pull_dir = TempDir::new("dirsync-pull");
    let puller = ImageStore::open(pull_dir.path()).unwrap();
    let from_src = LoopbackTransport::new(&src);
    puller.replicate_from(&from_src, id).unwrap();
    assert_eq!(dir_syncs(&puller), 1);
    puller.replicate_from(&from_src, other_id).unwrap();
    assert_eq!(dir_syncs(&puller), 2);
    puller.replicate_from(&from_src, id).unwrap();
    assert_eq!(dir_syncs(&puller), 2);
}
