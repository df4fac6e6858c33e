//! Lazy first-touch restart of a full `CracProcess`: the process resumes
//! from a skeleton of absent pages — before a single page byte has been
//! fetched — runs its working set against first-touch faults, and drains
//! to full residency in the background.  Exercised both from the local
//! store and across a real TCP wire, and checked byte-for-byte against
//! the eager restart of the same image.

use std::sync::Arc;

use crac_repro::imagestore::net::{serve_on, TcpTransport};
use crac_repro::imagestore::testutil::TempDir;
use crac_repro::prelude::*;

const SECRET: &[u8] = b"lazy-node-secret";

fn bump_registry() -> Arc<KernelRegistry> {
    let mut kernels = KernelRegistry::new();
    kernels.insert("bump", |ctx| {
        let n = ctx.arg_u64(1) as usize;
        let mut v = ctx.read_f32_arg(0, n)?;
        for x in &mut v {
            *x += 1.0;
        }
        ctx.write_f32_arg(0, &v)
    });
    Arc::new(kernels)
}

const HEAP_BYTES: usize = 16 << 20;

/// Heap content with no two pages alike, so no chunk dedups against
/// another and a page restored as zeros (or as its neighbour) shows.
fn heap_pattern() -> Vec<u8> {
    (0..HEAP_BYTES)
        .map(|i| ((i >> 12) * 131 + (i & 0xfff) * 7) as u8)
        .collect()
}

/// Every heap and device byte of `proc`, for whole-memory comparison.
fn memory(proc: &CracProcess, buf: Addr, heap: Addr) -> Vec<u8> {
    let mut bytes = vec![0u8; HEAP_BYTES + 4 * 128];
    let (heap_bytes, device_bytes) = bytes.split_at_mut(HEAP_BYTES);
    proc.space().read_bytes(heap, heap_bytes).unwrap();
    proc.space().read_bytes(buf, device_bytes).unwrap();
    bytes
}

/// A process with a kernel-bumped device buffer plus 16 MiB of patterned
/// host heap, checkpointed into `store`; returns the image id, the handles
/// the restarted run needs, and the original's [`memory`].
fn checkpointed_process(
    store: &ImageStore,
    tag: &str,
) -> (ImageId, Arc<KernelRegistry>, Addr, Addr, Vec<u8>) {
    let kernels = bump_registry();
    let proc = CracProcess::launch(CracConfig::test(tag), Arc::clone(&kernels));
    let fb = proc.register_fat_binary();
    let bump = proc.register_function(fb, "bump").unwrap();
    let heap = proc.heap_alloc(HEAP_BYTES as u64).unwrap();
    proc.space().write_bytes(heap, &heap_pattern()).unwrap();
    let buf = proc.malloc(4 * 128).unwrap();
    proc.space().write_f32(buf, &[0.0; 128]).unwrap();
    proc.launch_kernel(
        bump,
        LaunchDims::linear(1, 128),
        KernelCost::compute(128),
        vec![buf.as_u64(), 128],
        CracStream::DEFAULT,
    )
    .unwrap();
    proc.device_synchronize().unwrap();
    let stored = proc
        .checkpoint_to_store(store, WriteOptions::full())
        .unwrap();
    let original = memory(&proc, buf, heap);
    (stored.image_id, kernels, buf, heap, original)
}

/// The restarted application's first dealings with the process: read the
/// kernel's output (first touch → fault), compute on it again, and sample
/// the heap pattern.
fn working_set(proc: &CracProcess, buf: Addr, heap: Addr) -> Result<Vec<f32>, CracError> {
    let mut out = [0f32; 128];
    proc.space().read_f32(buf, &mut out)?;
    let mut probe = [0u8; 16];
    proc.space().read_bytes(heap + 512 * 1024, &mut probe)?;
    assert_eq!(probe[..], heap_pattern()[512 * 1024..][..16]);
    Ok(out.to_vec())
}

#[test]
fn process_restarts_lazily_from_store_and_resumes_before_any_fetch() {
    let dir = TempDir::new("lazy-proc");
    let store = ImageStore::open(dir.path()).unwrap();
    let (id, kernels, buf, heap, _) = checkpointed_process(&store, "lazy-proc");

    let (restarted, report, read_stats, lazy, out) = CracProcess::restart_from_store_lazy(
        &store,
        id,
        CracConfig::test("lazy-proc"),
        Arc::clone(&kernels),
        |proc| working_set(proc, buf, heap),
    )
    .unwrap();

    assert!(report.replayed_calls > 0);
    assert_eq!(
        lazy.chunks_at_resume, 0,
        "resumed before any page bytes were fetched"
    );
    assert_eq!(
        lazy.chunks_faulted + lazy.chunks_prefetched,
        lazy.chunks_total as u64
    );
    assert!(read_stats.resume_us <= read_stats.elapsed.as_micros() as u64);
    assert!(
        out.iter().all(|&v| v == 1.0),
        "kernel output faulted in intact"
    );

    // Drained to full residency: the process is indistinguishable from an
    // eagerly restored one — it computes and checkpoints again.
    assert!(!restarted.space().has_fault_handler());
    let fb = restarted.register_fat_binary();
    let bump = restarted.register_function(fb, "bump").unwrap();
    restarted
        .launch_kernel(
            bump,
            LaunchDims::linear(1, 128),
            KernelCost::compute(128),
            vec![buf.as_u64(), 128],
            CracStream::DEFAULT,
        )
        .unwrap();
    restarted.device_synchronize().unwrap();
    let mut again = [0f32; 128];
    restarted.space().read_f32(buf, &mut again).unwrap();
    assert!(again.iter().all(|&v| v == 2.0));
    let next = restarted
        .checkpoint_to_store(&store, WriteOptions::full())
        .unwrap();
    assert!(store.contains_image(next.image_id));
}

#[test]
fn process_restarts_lazily_over_tcp_with_priority_faults() {
    let dir = TempDir::new("lazy-proc-tcp");
    let store = Arc::new(ImageStore::open(dir.path()).unwrap());
    let (id, kernels, buf, heap, _) = checkpointed_process(&store, "lazy-tcp");

    // Node B: restart across a real wire, first touches riding the pooled
    // client's priority lane while the sweep streams the rest.
    let server = serve_on("127.0.0.1:0", Arc::clone(&store), SECRET).unwrap();
    let transport = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let (restarted, report, read_stats, lazy, out) = CracProcess::restart_from_remote_lazy(
        &transport,
        id,
        CracConfig::test("lazy-tcp"),
        Arc::clone(&kernels),
        |proc| working_set(proc, buf, heap),
    )
    .unwrap();

    assert!(report.replayed_calls > 0);
    assert_eq!(lazy.chunks_at_resume, 0);
    assert!(lazy.pages_installed > 0);
    assert_eq!(read_stats.chunks_read, lazy.chunks_total);
    assert!(out.iter().all(|&v| v == 1.0));
    assert!(!restarted.space().has_fault_handler());
    server.shutdown();
}

/// A checkpoint taken while the lazy restore is still paging in — the very
/// first thing the resumed application does, before it touched a page —
/// must hold the process's real memory: restarting eagerly from *that*
/// image gives back every heap and device byte of the original.
#[test]
fn checkpoint_inside_a_lazy_restart_captures_the_pages_not_yet_faulted_in() {
    let dir = TempDir::new("lazy-ckpt");
    let store = ImageStore::open(dir.path()).unwrap();
    let (id, kernels, buf, heap, original) = checkpointed_process(&store, "lazy-ckpt");

    let (_lazy_proc, _, _, _, taken) = CracProcess::restart_from_store_lazy(
        &store,
        id,
        CracConfig::test("lazy-ckpt"),
        Arc::clone(&kernels),
        |proc| proc.checkpoint_to_store(&store, WriteOptions::full()),
    )
    .unwrap();

    let (eager, _, _) = CracProcess::restart_from_store(
        &store,
        taken.image_id,
        CracConfig::test("lazy-ckpt"),
        kernels,
    )
    .unwrap();
    assert!(memory(&eager, buf, heap) == original);
}

/// The same across a wire: node B resumes lazily from node A over TCP and
/// checkpoints into its own store before its pages have arrived.
#[test]
fn checkpoint_inside_a_remote_lazy_restart_captures_the_pages_not_yet_faulted_in() {
    let dir_a = TempDir::new("lazy-ckpt-tcp-a");
    let dir_b = TempDir::new("lazy-ckpt-tcp-b");
    let store_a = Arc::new(ImageStore::open(dir_a.path()).unwrap());
    let store_b = ImageStore::open(dir_b.path()).unwrap();
    let (id, kernels, buf, heap, original) = checkpointed_process(&store_a, "lazy-ckpt-tcp");

    let server = serve_on("127.0.0.1:0", Arc::clone(&store_a), SECRET).unwrap();
    let transport = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let (_lazy_proc, _, _, _, taken) = CracProcess::restart_from_remote_lazy(
        &transport,
        id,
        CracConfig::test("lazy-ckpt-tcp"),
        Arc::clone(&kernels),
        |proc| proc.checkpoint_to_store(&store_b, WriteOptions::full()),
    )
    .unwrap();
    server.shutdown();

    let (eager, _, _) = CracProcess::restart_from_store(
        &store_b,
        taken.image_id,
        CracConfig::test("lazy-ckpt-tcp"),
        kernels,
    )
    .unwrap();
    assert!(memory(&eager, buf, heap) == original);
}
