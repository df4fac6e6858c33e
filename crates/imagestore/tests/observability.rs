//! The tentpole property of the observability layer, end to end: ONE
//! registry — the coordinator's — observes an entire checkpoint →
//! replicate → restore flow.  Every layer (writer pipeline, remote
//! shipping, reader pipeline, retry loop) records into it, the `*Stats`
//! structs are views over the same numbers, and a single `render_text`
//! scrape tells the whole story.

use crac_addrspace::{Half, MapRequest, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{Coordinator, CoordinatorConfig};
use crac_imagestore::testutil::{restore_into, TempDir};
use crac_imagestore::{
    checkpoint_to, CkptTarget, EventKind, ImageSource, ImageStore, LoopbackTransport, WriteOptions,
};

fn space_with_data(pages: u64) -> SharedSpace {
    let space = SharedSpace::new_no_aslr();
    let addr = space
        .mmap(MapRequest::anon(pages * PAGE_SIZE, Half::Upper, "obs-data"))
        .unwrap();
    for p in 0..pages {
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[..8].copy_from_slice(&p.to_le_bytes());
        page[8] = 0xAB;
        space.write_bytes(addr + p * PAGE_SIZE, &page).unwrap();
    }
    space
}

#[test]
fn one_registry_observes_checkpoint_replicate_restore() {
    let space = space_with_data(64);
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    let reg = coord.obs();

    // Checkpoint to a local store: the coordinator hands its registry
    // down, so the writer's counters land in `reg`.
    let dir = TempDir::new("obs-flow-store");
    let store = ImageStore::open(dir.path()).unwrap();
    let target = CkptTarget::Store(&store, WriteOptions::full());
    let (id, _ckpt, landed) = checkpoint_to(&coord, target, None, |_| 1_000).unwrap();
    let write_stats = landed.write;
    assert!(write_stats.chunks_written > 0);

    // Replicate to a peer store over the loopback transport.
    let peer_dir = TempDir::new("obs-flow-peer");
    let peer = ImageStore::open(peer_dir.path()).unwrap();
    let transport = LoopbackTransport::new(&peer);
    let (remote_id, rep_stats) = store.replicate_to(id, &transport).unwrap();
    assert!(rep_stats.chunks_shipped > 0);

    // Restore — both locally and from the remote — into fresh spaces.
    let fresh = SharedSpace::new_no_aslr();
    let (_rstats, read_stats) =
        restore_into(&coord, ImageSource::Store(&store), id, &fresh).unwrap();
    assert!(read_stats.chunks_read > 0);
    let fresh2 = SharedSpace::new_no_aslr();
    restore_into(&coord, ImageSource::Peer(&transport), remote_id, &fresh2).unwrap();

    // Every phase recorded into the ONE registry the coordinator owns.
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("crac_writer_chunks_written"),
        write_stats.chunks_written as u64,
        "stats struct and registry disagree: double bookkeeping"
    );
    assert_eq!(
        snap.counter("crac_remote_chunks_shipped"),
        rep_stats.chunks_shipped as u64
    );
    assert!(
        snap.counter("crac_reader_chunks_read") >= read_stats.chunks_read as u64,
        "both restores' reads accumulate in the shared registry"
    );
    for family in [
        "crac_writer_stage_hash_us",
        "crac_writer_stage_io_us",
        "crac_reader_stage_fetch_us",
        "crac_reader_stage_verify_us",
        "crac_reader_stage_splice_us",
    ] {
        let h = snap
            .histogram(family)
            .unwrap_or_else(|| panic!("stage histogram {family} missing from the flow's registry"));
        assert!(h.count > 0, "{family} never observed a span");
    }

    // One scrape renders the whole story in Prometheus text form.
    let text = reg.render_text();
    for family in [
        "crac_writer_chunks_written",
        "crac_remote_chunks_shipped",
        "crac_reader_chunks_read",
        "crac_reader_stage_fetch_us_bucket",
    ] {
        assert!(text.contains(family), "scrape lacks {family}");
    }

    // And the event ring narrates it, in order.
    let events = reg.drain_events();
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::CheckpointBegun));
    assert!(kinds.contains(&EventKind::CheckpointFinished));
    assert!(kinds.contains(&EventKind::RestoreBegun));
    assert!(kinds.contains(&EventKind::RestoreFinished));
    let begun = kinds
        .iter()
        .position(|k| *k == EventKind::CheckpointBegun)
        .unwrap();
    let restored = kinds
        .iter()
        .rposition(|k| *k == EventKind::RestoreFinished)
        .unwrap();
    assert!(begun < restored, "narrative out of order");
}

#[test]
fn checkpoint_to_remote_records_into_the_coordinator_registry() {
    let space = space_with_data(32);
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());

    let peer_dir = TempDir::new("obs-remote-peer");
    let peer = ImageStore::open(peer_dir.path()).unwrap();
    let transport = LoopbackTransport::new(&peer);
    let target = CkptTarget::Peer {
        transport: &transport,
        parent: None,
    };
    let (id, _ckpt, landed) = checkpoint_to(&coord, target, None, |_| 2_000).unwrap();
    let ship_stats = landed.replicate;

    let fresh = SharedSpace::new_no_aslr();
    restore_into(&coord, ImageSource::Peer(&transport), id, &fresh).unwrap();

    let snap = coord.obs().snapshot();
    assert_eq!(
        snap.counter("crac_remote_chunks_shipped"),
        ship_stats.chunks_shipped as u64
    );
    assert!(snap.counter("crac_reader_chunks_read") > 0);
    assert!(snap.histogram("crac_reader_stage_fetch_us").unwrap().count > 0);
}
