//! The lazy first-touch restore, end to end through the store: a process
//! resumes on a skeleton of absent pages before any page byte has been
//! fetched, first touches fault chunks in at priority, a background sweep
//! prefetches the rest — and whatever order faults and the sweep race in,
//! the final memory is byte-identical to an eager restore of the same
//! image.
//!
//! Covers the local store, the real TCP wire (faulted chunks riding the
//! pooled client's priority lane), transient wire faults under a blocked
//! fault (bounded retry with backoff), and the failure latch (a truncated
//! store surfaces the error from `drain` and turns blocked faults into
//! clean `NotResident` errors instead of hangs).

use std::sync::Arc;
use std::time::Duration;

use crac_addrspace::{Addr, Half, MapRequest, MemError, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{Coordinator, CoordinatorConfig};
use crac_imagestore::net::{serve_on, TcpTransport};
use crac_imagestore::testutil::{restore_into, TempDir};
use crac_imagestore::{
    checkpoint_to, CkptTarget, FaultConfig, FaultyTransport, ImageId, ImageSource, ImageStore,
    LazyRestoreSession, LazyRestoreStats, ReadStats, StreamReader, WriteOptions,
};
use proptest::prelude::*;

const SECRET: &[u8] = b"lazy-secret";
const REGION_PAGES: u64 = 128; // 8 chunks of 16 pages

/// A space with one upper-half mapping whose every page carries unique
/// content, checkpointed into `store`; returns the image id and the
/// ground-truth bytes.
fn checkpointed_image(store: &ImageStore, seed: u8) -> (ImageId, Addr, Vec<u8>) {
    let space = SharedSpace::new_no_aslr();
    let a = space
        .mmap(MapRequest::anon(
            REGION_PAGES * PAGE_SIZE,
            Half::Upper,
            "lazy-app",
        ))
        .unwrap();
    for page in 0..REGION_PAGES {
        let mut head = [seed; 64];
        head[..8].copy_from_slice(&(((seed as u64) << 32) | page).to_le_bytes());
        space.write_bytes(a + page * PAGE_SIZE, &head).unwrap();
    }
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    let target = CkptTarget::Store(store, WriteOptions::full());
    let (id, _, _) = checkpoint_to(&coord, target, None, |_| 7).unwrap();
    (id, a, mapping_bytes(&space, a))
}

/// Opens a lazy session over image `id` of `source`, recording into
/// `coord`'s registry.
fn open_lazy<'a>(
    coord: &Coordinator,
    source: ImageSource<'a>,
    id: ImageId,
) -> LazyRestoreSession<'a> {
    LazyRestoreSession::open(StreamReader::open(source, id, coord.obs()).unwrap()).unwrap()
}

/// Reads the whole mapped range of `space`.
fn mapping_bytes(space: &SharedSpace, a: Addr) -> Vec<u8> {
    let mut buf = vec![0u8; (REGION_PAGES * PAGE_SIZE) as usize];
    space.read_bytes(a, &mut buf).unwrap();
    buf
}

/// Runs a full lazy restore from the local store, touching `touches`
/// (page, in-page offset) pairs in order while the prefetch sweep races;
/// returns the final memory and the session's stats.
fn lazy_restore_local(
    store: &ImageStore,
    id: ImageId,
    a: Addr,
    touches: &[(u64, u64)],
) -> (Vec<u8>, ReadStats, LazyRestoreStats) {
    let space = SharedSpace::new_no_aslr();
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    let session = open_lazy(&coord, ImageSource::Store(store), id);
    session.attach(&coord, &space).unwrap();
    std::thread::scope(|scope| {
        session.spawn_workers(scope);
        for &(page, off) in touches {
            let mut b = [0u8; 1];
            space
                .read_bytes(a + page * PAGE_SIZE + off, &mut b)
                .unwrap();
        }
        session.drain().unwrap();
    });
    space.clear_fault_handler();
    let (read, lazy) = session.finish();
    (mapping_bytes(&space, a), read, lazy)
}

#[test]
fn lazy_restore_resumes_on_absent_pages_and_converges_to_eager_memory() {
    let dir = TempDir::new("lazy-local");
    let store = ImageStore::open(dir.path()).unwrap();
    let (id, a, truth) = checkpointed_image(&store, 0x51);

    // Eager baseline through the same coordinator seam.
    let eager_space = SharedSpace::new_no_aslr();
    let eager_coord = Coordinator::new(eager_space.clone(), CoordinatorConfig::default());
    restore_into(&eager_coord, ImageSource::Store(&store), id, &eager_space).unwrap();
    assert_eq!(mapping_bytes(&eager_space, a), truth);

    // Lazy: resumable with every planned page absent, zero chunks moved.
    let space = SharedSpace::new_no_aslr();
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    let session = open_lazy(&coord, ImageSource::Store(&store), id);
    let rstats = session.attach(&coord, &space).unwrap();
    assert_eq!(rstats.regions_restored, 1);
    assert_eq!(
        space.with(|s| s.stats().absent_pages),
        REGION_PAGES,
        "every content-bearing page starts absent"
    );
    assert!(space.has_fault_handler());

    std::thread::scope(|scope| {
        // A first touch *before* any worker exists parks on the priority
        // queue; the first worker to spawn services it ahead of the sweep
        // — deterministic proof the fault path preempts.
        let toucher = scope.spawn(|| {
            let mut b = [0u8; 1];
            space
                .read_bytes(a + (REGION_PAGES - 1) * PAGE_SIZE + 8, &mut b)
                .unwrap();
            b[0]
        });
        std::thread::sleep(Duration::from_millis(20));
        session.spawn_workers(scope);
        assert_eq!(toucher.join().unwrap(), 0x51);
        session.drain().unwrap();
    });
    space.clear_fault_handler();
    let (read, lazy) = session.finish();

    assert_eq!(mapping_bytes(&space, a), truth);
    assert_eq!(
        space.with(|s| s.stats().absent_pages),
        0,
        "drained restore is fully resident"
    );
    assert_eq!(
        lazy.chunks_at_resume, 0,
        "resume happened before any chunk was fetched"
    );
    assert!(
        lazy.faults_served >= 1,
        "the parked touch was serviced as a fault"
    );
    assert!(lazy.chunks_faulted >= 1);
    assert_eq!(
        lazy.chunks_faulted + lazy.chunks_prefetched,
        lazy.chunks_total as u64,
        "chunk-level dedup: each chunk fetched exactly once"
    );
    assert_eq!(lazy.pages_installed, REGION_PAGES);
    assert_eq!(read.chunks_read, lazy.chunks_total);
    assert!(read.resume_us <= read.elapsed.as_micros() as u64);
}

#[test]
fn lazy_restore_over_tcp_retries_a_faulting_page_with_backoff() {
    let dir = TempDir::new("lazy-tcp");
    let store = Arc::new(ImageStore::open(dir.path()).unwrap());
    let (id, a, truth) = checkpointed_image(&store, 0x6E);
    let server = serve_on("127.0.0.1:0", Arc::clone(&store), SECRET).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    // Every chunk's first two fetch attempts fail transiently — on the
    // priority lane too (FaultyTransport shares the get budget across
    // both), so a blocked first touch must survive injected wire weather
    // by retrying with backoff.
    let flaky = FaultyTransport::new(
        &tcp,
        FaultConfig {
            transient_get_attempts: 2,
            ..Default::default()
        },
    );

    let space = SharedSpace::new_no_aslr();
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    let session = open_lazy(&coord, ImageSource::Peer(&flaky), id);
    session.attach(&coord, &space).unwrap();
    std::thread::scope(|scope| {
        // Park a touch before the workers exist: its chunk is fetched via
        // the priority path, which hits the injected transient faults.
        let toucher = scope.spawn(|| {
            let mut b = [0u8; 1];
            space
                .read_bytes(a + (REGION_PAGES - 1) * PAGE_SIZE + 8, &mut b)
                .unwrap();
            b[0]
        });
        std::thread::sleep(Duration::from_millis(20));
        session.spawn_workers(scope);
        assert_eq!(toucher.join().unwrap(), 0x6E);
        session.drain().unwrap();
    });
    space.clear_fault_handler();
    let (read, lazy) = session.finish();

    assert_eq!(mapping_bytes(&space, a), truth);
    assert_eq!(lazy.chunks_at_resume, 0);
    assert!(
        lazy.faults_served >= 1,
        "the parked touch faulted its page in over the wire"
    );
    assert!(
        read.transient_retries >= lazy.chunks_total,
        "every chunk (priority and sweep alike) had to retry: {} < {}",
        read.transient_retries,
        lazy.chunks_total
    );
    server.shutdown();
}

#[test]
fn lazy_restore_latches_a_permanent_failure_instead_of_hanging() {
    let dir = TempDir::new("lazy-latch");
    let store = ImageStore::open(dir.path()).unwrap();
    let (id, a, _) = checkpointed_image(&store, 0x77);
    // Destroy every chunk file: the manifest still opens (lazy declare
    // succeeds — metadata only), but every fetch fails permanently.
    let chunks_dir = dir.path().join("chunks");
    for entry in std::fs::read_dir(&chunks_dir).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }

    let space = SharedSpace::new_no_aslr();
    let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    let session = open_lazy(&coord, ImageSource::Store(&store), id);
    session.attach(&coord, &space).unwrap();
    let err = std::thread::scope(|scope| {
        session.spawn_workers(scope);
        session.drain().unwrap_err()
    });
    // The latched error shut the session down: a touch of a still-absent
    // page fails cleanly instead of blocking forever.
    let mut b = [0u8; 1];
    let touch = space.read_bytes(a, &mut b);
    assert!(
        matches!(touch, Err(MemError::NotResident(_))),
        "blocked fault after shutdown must surface NotResident, got {touch:?}"
    );
    assert!(space.with(|s| s.stats().absent_pages) > 0);
    let msg = err.to_string();
    assert!(!msg.is_empty());
    let (_, lazy) = session.finish();
    assert!((lazy.chunks_faulted + lazy.chunks_prefetched) as usize <= lazy.chunks_total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lazy ≡ eager: whatever pages the application touches, in whatever
    /// order, racing the background prefetch sweep the whole way, the
    /// drained lazy restore is byte-identical to the eager restore of the
    /// same image.
    #[test]
    fn lazy_restore_is_byte_identical_to_eager_under_random_touch_order(
        seed in any::<u8>(),
        touches in proptest::collection::vec(
            (0u64..REGION_PAGES, 0u64..PAGE_SIZE),
            0..96,
        ),
    ) {
        let dir = TempDir::new("lazy-equiv");
        let store = ImageStore::open(dir.path()).unwrap();
        let (id, a, truth) = checkpointed_image(&store, seed);

        let eager_space = SharedSpace::new_no_aslr();
        let eager_coord =
            Coordinator::new(eager_space.clone(), CoordinatorConfig::default());
        restore_into(&eager_coord, ImageSource::Store(&store), id, &eager_space).unwrap();
        let eager_bytes = mapping_bytes(&eager_space, a);

        let (lazy_bytes, read, lazy) = lazy_restore_local(&store, id, a, &touches);

        prop_assert_eq!(&lazy_bytes, &eager_bytes);
        prop_assert_eq!(&lazy_bytes, &truth);
        prop_assert_eq!(lazy.chunks_at_resume, 0);
        prop_assert_eq!(
            lazy.chunks_faulted + lazy.chunks_prefetched,
            lazy.chunks_total as u64
        );
        prop_assert_eq!(lazy.pages_installed, REGION_PAGES);
        prop_assert_eq!(read.chunks_read, lazy.chunks_total);
    }
}
