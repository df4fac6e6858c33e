//! Pre-copy checkpointing, end to end through the store: concurrent
//! mutation while the image streams, iterative delta rounds, a short final
//! stop-the-world pass — and restores that are byte-identical to what a
//! full stop-the-world checkpoint of the same final memory produces.
//!
//! The mutator runs on its own thread and is stopped by the coordinator's
//! quiesce (`pre_checkpoint`) exactly like a real application: once the
//! final pass begins, memory is frozen, so the live content *after*
//! the pre-copy `checkpoint_to` returns is the ground truth every restore is
//! checked against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crac_addrspace::{Addr, Half, MapRequest, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{Coordinator, CoordinatorConfig, DmtcpPlugin, PrecopyConfig};
use crac_imagestore::net::{serve_on, TcpTransport};
use crac_imagestore::testutil::{restore_into, TempDir};
use crac_imagestore::{
    checkpoint_to, CkptTarget, ImageSource, ImageStore, Transport, WriteOptions,
};
use proptest::prelude::*;

const SECRET: &[u8] = b"precopy-secret";
const REGION_PAGES: u64 = 64;

/// Quiesces the mutator: sets the stop flag and waits until the mutator
/// thread acknowledges it has taken its last write — after this hook
/// returns, memory is static, exactly like a quiesced application.
struct StopMutator {
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicBool>,
}

impl DmtcpPlugin for StopMutator {
    fn name(&self) -> &str {
        "stop-mutator"
    }
    fn pre_checkpoint(&self) {
        self.stop.store(true, Ordering::SeqCst);
        while !self.acked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

/// A space with one upper-half mapping of [`REGION_PAGES`] pages seeded
/// with `initial` content, a coordinator quiescing through [`StopMutator`],
/// and a mutator thread replaying `script` in a loop until quiesced.
///
/// Returns only once the mutator has taken its first write: under a loaded
/// test host its thread may not be scheduled for a while, and a checkpoint
/// that wins that race sees no concurrent mutation at all (`writes == 0`).
fn space_under_mutation(
    initial: &[(u64, u8)],
    script: Vec<(u64, u8)>,
) -> (SharedSpace, Addr, Coordinator, JoinHandle<u64>) {
    let space = SharedSpace::new_no_aslr();
    let a = space
        .mmap(MapRequest::anon(
            REGION_PAGES * PAGE_SIZE,
            Half::Upper,
            "precopy-app",
        ))
        .unwrap();
    for (page, seed) in initial {
        space
            .write_bytes(a + page * PAGE_SIZE, &[*seed; 128])
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicBool::new(false));
    let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
    coord.register_plugin(Arc::new(StopMutator {
        stop: Arc::clone(&stop),
        acked: Arc::clone(&acked),
    }));
    let mut_space = space.clone();
    // An empty script never writes; nothing to wait for then.
    let wrote_once = Arc::new(AtomicBool::new(script.is_empty()));
    let wrote_once_tx = Arc::clone(&wrote_once);
    let mutator = std::thread::spawn(move || {
        let mut writes = 0u64;
        'outer: loop {
            for (page, val) in &script {
                if stop.load(Ordering::SeqCst) {
                    break 'outer;
                }
                let bytes = [val.wrapping_add(writes as u8); 64];
                mut_space
                    .write_bytes(a + page * PAGE_SIZE + 64, &bytes)
                    .unwrap();
                writes += 1;
                wrote_once_tx.store(true, Ordering::SeqCst);
            }
            if script.is_empty() || stop.load(Ordering::SeqCst) {
                break;
            }
        }
        acked.store(true, Ordering::SeqCst);
        writes
    });
    while !wrote_once.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    (space, a, coord, mutator)
}

/// The peer behind `transport` as a checkpoint target.
fn to_peer(transport: &dyn Transport) -> CkptTarget<'_> {
    CkptTarget::Peer {
        transport,
        parent: None,
    }
}

/// Reads the whole mapped range of `space`.
fn mapping_bytes(space: &SharedSpace, a: Addr) -> Vec<u8> {
    let mut buf = vec![0u8; (REGION_PAGES * PAGE_SIZE) as usize];
    space.read_bytes(a, &mut buf).unwrap();
    buf
}

#[test]
fn precopy_to_store_under_mutation_restores_the_quiesced_memory() {
    let dir = TempDir::new("precopy-store");
    let store = ImageStore::open(dir.path()).unwrap();
    let initial: Vec<(u64, u8)> = (0..REGION_PAGES).map(|p| (p, p as u8 + 1)).collect();
    let script: Vec<(u64, u8)> = (0..16)
        .map(|i| (i * 3 % REGION_PAGES, 0xC0 + i as u8))
        .collect();
    let (space, a, coord, mutator) = space_under_mutation(&initial, script);

    let target = CkptTarget::Store(&store, WriteOptions::full());
    let (id, pre, landed) =
        checkpoint_to(&coord, target, Some(&PrecopyConfig::default()), |_| 7).unwrap();
    let write = landed.write;
    let writes = mutator.join().unwrap();
    assert!(writes > 0, "the mutator must have raced the bulk copy");
    // Bulk round + any deltas + the final pass all made it to the store.
    assert!(pre.round_bytes.len() >= 2);
    assert!(pre.round_bytes[0] >= REGION_PAGES * PAGE_SIZE);
    assert!(write.chunks_written > 0);

    // Memory froze at the quiesce; the restored image must equal it.
    let live = mapping_bytes(&space, a);
    let fresh = SharedSpace::new_no_aslr();
    restore_into(&coord, ImageSource::Store(&store), id, &fresh).unwrap();
    assert_eq!(live, mapping_bytes(&fresh, a));

    // The observability contract: stop window and per-round bytes are on
    // the coordinator's registry for both modes to compare.
    let text = coord.obs().render_text();
    assert!(text.contains("crac_ckpt_stop_window_us"));
    assert!(text.contains("crac_precopy_round_bytes"));
    assert!(text.contains("crac_precopy_rounds"));
}

#[test]
fn precopy_to_remote_over_tcp_under_mutation_restores_the_quiesced_memory() {
    let dir = TempDir::new("precopy-tcp");
    let peer = Arc::new(ImageStore::open(dir.path()).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();

    let initial: Vec<(u64, u8)> = (0..REGION_PAGES / 2)
        .map(|p| (p * 2, p as u8 + 9))
        .collect();
    let script: Vec<(u64, u8)> = (0..24)
        .map(|i| (i * 5 % REGION_PAGES, 0x30 + i as u8))
        .collect();
    let (space, a, coord, mutator) = space_under_mutation(&initial, script);

    let (id, pre, landed) = checkpoint_to(
        &coord,
        to_peer(&tcp),
        Some(&PrecopyConfig::default()),
        |_| 3,
    )
    .unwrap();
    let replicate = landed.replicate;
    mutator.join().unwrap();
    assert!(pre.round_bytes.len() >= 2);
    assert!(replicate.chunks_shipped > 0);

    let live = mapping_bytes(&space, a);
    let fresh = SharedSpace::new_no_aslr();
    restore_into(&coord, ImageSource::Peer(&tcp), id, &fresh).unwrap();
    assert_eq!(live, mapping_bytes(&fresh, a));
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Byte-identical pre-copy-vs-stop-the-world equivalence under
    /// randomized concurrent mutation, over the remote/TCP path: the
    /// pre-copy image (taken while a random write script raced the copy)
    /// restores to exactly the same bytes as a plain stop-the-world
    /// checkpoint of the final, quiesced memory.
    #[test]
    fn precopy_over_tcp_equals_stw_of_quiesced_memory(
        initial in proptest::collection::vec((0..REGION_PAGES, any::<u8>()), 1..40),
        script in proptest::collection::vec((0..REGION_PAGES, any::<u8>()), 1..32),
    ) {
        let dir = TempDir::new("precopy-prop");
        let peer = Arc::new(ImageStore::open(dir.path()).unwrap());
        let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
        let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
        let (space, a, coord, mutator) = space_under_mutation(&initial, script);

        let cfg = PrecopyConfig { max_rounds: 3, convergence_pages: 4, max_run_gap: 1 };
        let (id, _pre, _landed) = checkpoint_to(&coord, to_peer(&tcp), Some(&cfg), |_| 0).unwrap();
        mutator.join().unwrap();

        // Ground truth: a stop-the-world checkpoint of the now-static
        // memory, restored the materialising way.
        let (stw_image, _) = coord.checkpoint(0);
        let stw_space = SharedSpace::new_no_aslr();
        coord.restart_into(&stw_image, &stw_space);

        let pre_space = SharedSpace::new_no_aslr();
        restore_into(&coord, ImageSource::Peer(&tcp), id, &pre_space).unwrap();
        server.shutdown();

        prop_assert_eq!(mapping_bytes(&pre_space, a), mapping_bytes(&stw_space, a));
        prop_assert_eq!(mapping_bytes(&pre_space, a), mapping_bytes(&space, a));
    }
}
