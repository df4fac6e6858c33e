//! The checkpoint/restore matrix, once: every cell of
//!
//! ```text
//! {store, LoopbackTransport, TcpTransport} × {stop-the-world, pre-copy} × {eager, lazy}
//! ```
//!
//! through the `CracProcess` surface.  Location and mode are values passed
//! to one checkpoint body and one restore body, so every cell must restore
//! memory byte-identical to the quiesced source, and every cell must hold
//! the invariants the benchmark gates: a lazy restart resumes before any
//! chunk is fetched, the chunks a checkpoint says it shipped are the chunk
//! frames the peer received, and re-checkpointing unchanged memory ships
//! (or writes) nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crac_repro::addrspace::{Half, MapRequest, PAGE_SIZE};
use crac_repro::imagestore::net::{serve_on, TcpTransport};
use crac_repro::imagestore::testutil::TempDir;
use crac_repro::prelude::*;

const SECRET: &[u8] = b"matrix-secret";
const APP_PAGES: u64 = 96;
const N: usize = 256;

fn registry() -> Arc<KernelRegistry> {
    let mut reg = KernelRegistry::new();
    reg.insert("iota", |ctx| {
        let n = ctx.arg_u64(1) as usize;
        let v: Vec<f32> = (0..n).map(|i| i as f32).collect();
        ctx.write_f32_arg(0, &v)
    });
    Arc::new(reg)
}

/// Where a cell's images live.  `frames` counts the chunk frames the peer
/// has received so far.
#[derive(Clone, Copy)]
enum Place<'a> {
    Store(&'a ImageStore),
    Peer(&'a dyn Transport, &'a dyn Fn() -> usize),
}

/// What one checkpoint moved: new chunks written (store) or shipped (peer).
fn checkpoint(
    proc: &CracProcess,
    place: Place<'_>,
    precopy: bool,
    parent: Option<ImageId>,
) -> (ImageId, usize) {
    let cfg = PrecopyConfig::default();
    match place {
        Place::Store(store) => {
            let opts = WriteOptions::full();
            let report = if precopy {
                proc.checkpoint_to_store_precopy(store, opts, cfg)
                    .unwrap()
                    .0
            } else {
                proc.checkpoint_to_store(store, opts).unwrap()
            };
            (report.image_id, report.write.chunks_written)
        }
        Place::Peer(transport, frames) => {
            let before = frames();
            let report = if precopy {
                proc.checkpoint_to_remote_precopy(transport, parent, cfg)
                    .unwrap()
                    .0
            } else {
                proc.checkpoint_to_remote(transport, Compression::None, parent)
                    .unwrap()
            };
            assert_eq!(
                report.replicate.chunks_shipped,
                frames() - before,
                "chunks shipped must be the chunk frames the peer received"
            );
            assert_eq!(
                report.replicate.chunks_shipped + report.replicate.chunks_deduped,
                report.replicate.chunks_total
            );
            (report.image_id, report.replicate.chunks_shipped)
        }
    }
}

/// Quiesce handshake with the mutator thread (see `precopy_process.rs`).
struct Quiesce {
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicBool>,
}

impl DmtcpPlugin for Quiesce {
    fn name(&self) -> &str {
        "matrix-quiesce"
    }
    fn pre_checkpoint(&self) {
        self.stop.store(true, Ordering::SeqCst);
        while !self.acked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn run_cell(place: Place<'_>, precopy: bool, lazy: bool, seed: u64) {
    let cell = format!("precopy={precopy} lazy={lazy} seed={seed}");
    let config = || CracConfig::test("matrix");
    let mut proc = CracProcess::launch(config(), registry());
    let fatbin = proc.register_fat_binary();
    let iota = proc.register_function(fatbin, "iota").unwrap();
    let dev = proc.malloc((N * 4) as u64).unwrap();
    proc.launch_kernel(
        iota,
        LaunchDims::linear(1, N as u32),
        KernelCost::compute(N as u64),
        vec![dev.as_u64(), N as u64],
        CracStream::DEFAULT,
    )
    .unwrap();
    proc.device_synchronize().unwrap();
    let app = proc
        .space()
        .mmap(MapRequest::anon(
            APP_PAGES * PAGE_SIZE,
            Half::Upper,
            "matrix-app",
        ))
        .unwrap();
    for p in 0..APP_PAGES {
        let mut page = vec![seed as u8 ^ p as u8; PAGE_SIZE as usize];
        page[..8].copy_from_slice(&((seed << 32) | (p + 1)).to_le_bytes());
        proc.space()
            .write_bytes(app + p * PAGE_SIZE, &page)
            .unwrap();
    }

    // Pre-copy cells checkpoint under a mutator that is known to have
    // written before the walk starts and is parked by the final quiesce.
    let mutator = precopy.then(|| {
        let stop = Arc::new(AtomicBool::new(false));
        let acked = Arc::new(AtomicBool::new(false));
        proc.register_plugin(Arc::new(Quiesce {
            stop: Arc::clone(&stop),
            acked: Arc::clone(&acked),
        }));
        let space = proc.space().clone();
        let wrote_once = Arc::new(AtomicBool::new(false));
        let wrote_once_tx = Arc::clone(&wrote_once);
        let mut rng = seed | 1;
        let handle = std::thread::spawn(move || {
            let mut writes = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let page = xorshift(&mut rng) % APP_PAGES;
                space
                    .write_bytes(app + page * PAGE_SIZE + 512, &[writes as u8; 64])
                    .unwrap();
                writes += 1;
                wrote_once_tx.store(true, Ordering::SeqCst);
            }
            acked.store(true, Ordering::SeqCst);
            writes
        });
        while !wrote_once.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        handle
    });

    let (id, moved) = checkpoint(&proc, place, precopy, None);
    assert!(moved > 0, "{cell}: the first checkpoint moves content");
    if let Some(handle) = mutator {
        assert!(
            handle.join().unwrap() > 0,
            "{cell}: the mutator raced the walk"
        );
    }

    // Ground truth: the quiesced source.  Nothing writes it any more.
    let mut live = vec![0u8; (APP_PAGES * PAGE_SIZE) as usize];
    proc.space().read_bytes(app, &mut live).unwrap();

    // Re-checkpointing unchanged memory moves nothing.  (After a pre-copy
    // under mutation the first repeat re-baselines: the bulk round shipped
    // pages at their pre-mutation content.)
    let (again, mut repeat) = checkpoint(&proc, place, precopy, Some(id));
    if precopy {
        repeat = checkpoint(&proc, place, precopy, Some(again)).1;
    }
    assert_eq!(repeat, 0, "{cell}: unchanged memory must move zero chunks");

    // Restart in a new process; a lazy one touches the application's pages
    // in a seeded random order while the prefetch sweep races.
    let touch = |p: &CracProcess| -> Result<(), CracError> {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut b = [0u8; 1];
        for _ in 0..APP_PAGES / 2 {
            let page = xorshift(&mut rng) % APP_PAGES;
            let off = xorshift(&mut rng) % PAGE_SIZE;
            p.space().read_bytes(app + page * PAGE_SIZE + off, &mut b)?;
        }
        Ok(())
    };
    let restarted = match (place, lazy) {
        (Place::Store(store), false) => {
            CracProcess::restart_from_store(store, id, config(), registry())
                .unwrap()
                .0
        }
        (Place::Peer(transport, _), false) => {
            CracProcess::restart_from_remote(transport, id, config(), registry())
                .unwrap()
                .0
        }
        (_, true) => {
            let (restarted, _, read, stats, ()) = match place {
                Place::Store(store) => {
                    CracProcess::restart_from_store_lazy(store, id, config(), registry(), touch)
                }
                Place::Peer(transport, _) => CracProcess::restart_from_remote_lazy(
                    transport,
                    id,
                    config(),
                    registry(),
                    touch,
                ),
            }
            .unwrap();
            assert_eq!(
                stats.chunks_at_resume, 0,
                "{cell}: resumed before any fetch"
            );
            assert_eq!(
                stats.chunks_faulted + stats.chunks_prefetched,
                stats.chunks_total as u64,
                "{cell}: each chunk fetched exactly once"
            );
            assert_eq!(read.chunks_read, stats.chunks_total);
            assert!(!restarted.space().has_fault_handler());
            restarted
        }
    };

    let mut restored = vec![0u8; live.len()];
    restarted.space().read_bytes(app, &mut restored).unwrap();
    assert!(
        live == restored,
        "{cell}: restored memory differs from the source"
    );
    let mut dev_out = vec![0f32; N];
    restarted.space().read_f32(dev, &mut dev_out).unwrap();
    assert!(
        dev_out.iter().enumerate().all(|(i, v)| *v == i as f32),
        "{cell}: drained device buffer differs"
    );
}

fn run_column(place: Place<'_>) {
    let mut seed = 1;
    for precopy in [false, true] {
        for lazy in [false, true] {
            run_cell(place, precopy, lazy, seed);
            seed += 1;
        }
    }
}

#[test]
fn every_cell_to_and_from_a_store() {
    let dir = TempDir::new("matrix-store");
    let store = ImageStore::open(dir.path()).unwrap();
    run_column(Place::Store(&store));
}

#[test]
fn every_cell_to_and_from_a_loopback_peer() {
    let dir = TempDir::new("matrix-loopback");
    let peer = ImageStore::open(dir.path()).unwrap();
    let loopback = LoopbackTransport::new(&peer);
    run_column(Place::Peer(&loopback, &|| loopback.stats().chunks_put));
}

#[test]
fn every_cell_to_and_from_a_tcp_peer() {
    let dir = TempDir::new("matrix-tcp");
    let peer = Arc::new(ImageStore::open(dir.path()).unwrap());
    let server = serve_on("127.0.0.1:0", Arc::clone(&peer), SECRET).unwrap();
    let tcp = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    run_column(Place::Peer(&tcp, &|| server.stats().chunk_frames_received));
    server.shutdown();
}
