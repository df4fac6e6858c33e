//! Remote replication over the transport seam: dedup-aware shipping,
//! bounded transient retry, crash-interrupted resume, and the
//! receiving-side verification that keeps a faulty peer from poisoning a
//! store.
//!
//! Everything runs over [`LoopbackTransport`] (a second `ImageStore`
//! playing the remote node) and [`FaultyTransport`] (deterministic fault
//! injection) — the same code a real network transport would sit under.

use crac_addrspace::{Addr, Prot, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, SavedRegion};
use crac_imagestore::format::ChunkFile;
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{
    ChunkSource, FaultConfig, FaultyTransport, ImageSource, ImageStore, LoopbackTransport,
    MaterialiseSink, ObsRegistry, RegionSource, RemoteChunkSink, StoreError, StreamReader,
    WriteOptions, MAX_TRANSIENT_RETRIES,
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
    let mut sink = RemoteChunkSink::new(&transport, Default::default(), None);
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
    let file = ChunkFile {
        encoding: crac_imagestore::codec::Encoding::Raw,
        raw_len: body.len() as u64,
        encoded: body,
    }
    .to_bytes();
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
        assert_eq!(loopback.stats().chunks_put, CUT_AFTER);
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
        ChunkFile::parse(&bytes).expect("every landed chunk parses and CRC-checks");
        landed += 1;
    }
    assert_eq!(landed, CUT_AFTER);

    // Re-running the replication resumes: the negotiation skips the
    // chunks that already landed and ships exactly the remainder.
    let loopback = LoopbackTransport::new(&dst);
    let (remote_id, stats) = src.replicate_to(id, &loopback).unwrap();
    assert_eq!(stats.chunks_deduped, CUT_AFTER, "landed chunks are skipped");
    assert_eq!(stats.chunks_shipped, 8 - CUT_AFTER, "only the rest ships");
    assert_eq!(loopback.stats().chunks_put, 8 - CUT_AFTER);
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
