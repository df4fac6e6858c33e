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

// ---------------------------------------------------------------------------
// The device refill: staged device/managed buffers come back on first touch
// ---------------------------------------------------------------------------

/// The refill oracle's allocations, in allocation order: two small device
/// buffers sharing a page (`d`, `e`), a device buffer whose length is no
/// page multiple (`a`), one a kernel bumps (`c`), a managed one (`b`), and
/// the host buffer the application copies from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RefillBuffers {
    d: (Addr, u64),
    e: (Addr, u64),
    a: (Addr, u64),
    c: (Addr, u64),
    b: (Addr, u64),
    host: Addr,
}

impl RefillBuffers {
    /// Every staged (device or managed) buffer.
    fn staged(&self) -> [(Addr, u64); 5] {
        [self.d, self.e, self.a, self.c, self.b]
    }

    /// Staged pages: the union of every staged buffer's pages.
    fn staged_pages(&self) -> u64 {
        let mut pages: Vec<u64> = self
            .staged()
            .iter()
            .flat_map(|&(ptr, len)| ptr.as_u64() / 4096..(ptr.as_u64() + len).div_ceil(4096))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len() as u64
    }
}

const BUMPED_FLOATS: u64 = 2048;

/// Bytes no other buffer (and no page of this one) repeats.
fn refill_pattern(seed: u8, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31) ^ (i >> 12).wrapping_mul(97) ^ (u64::from(seed) * 53)) as u8)
        .collect()
}

/// A process holding [`RefillBuffers`], each filled with its own pattern
/// (the bumped one with floats), checkpointed into `store`.
fn refill_process(store: &ImageStore, tag: &str) -> (ImageId, Arc<KernelRegistry>, RefillBuffers) {
    let kernels = bump_registry();
    let proc = CracProcess::launch(CracConfig::test(tag), Arc::clone(&kernels));
    let alloc = |len: u64, managed: bool| {
        let ptr = if managed {
            proc.malloc_managed(len).unwrap()
        } else {
            proc.malloc(len).unwrap()
        };
        (ptr, len)
    };
    let bufs = RefillBuffers {
        d: alloc(256, false),
        e: alloc(512, false),
        a: alloc(5 * 4096 + 1000, false),
        c: alloc(BUMPED_FLOATS * 4, false),
        b: alloc(3 * 4096 + 512, true),
        host: proc.heap_alloc(2 * 4096).unwrap(),
    };
    assert_eq!(
        bufs.d.0.as_u64() / 4096,
        bufs.e.0.as_u64() / 4096,
        "the two small buffers share a page"
    );
    for (seed, &(ptr, len)) in bufs.staged().iter().enumerate() {
        proc.space()
            .write_bytes(ptr, &refill_pattern(seed as u8 + 1, len))
            .unwrap();
    }
    let floats: Vec<f32> = (0..BUMPED_FLOATS).map(|i| i as f32 * 0.5).collect();
    proc.space().write_f32(bufs.c.0, &floats).unwrap();
    proc.space()
        .write_bytes(bufs.host, &refill_pattern(9, 2 * 4096))
        .unwrap();
    let id = proc
        .checkpoint_to_store(store, WriteOptions::full())
        .unwrap()
        .image_id;
    (id, kernels, bufs)
}

/// Pages of `[ptr, ptr+len)` that are absent in `proc`.
fn absent_pages(proc: &CracProcess, ptr: Addr, len: u64) -> usize {
    let first = Addr(ptr.as_u64() / 4096 * 4096);
    let span = (ptr.as_u64() + len).div_ceil(4096) * 4096 - first.as_u64();
    proc.space().with(|s| {
        s.slots(first, span)
            .filter(|(_, slot)| matches!(slot, crac_repro::addrspace::Slot::Absent))
            .count()
    })
}

/// The application's first dealings with the restarted process, taken
/// alike after an eager and inside a lazy restart: read one staged buffer,
/// copy host bytes over half of another, bump a third on the device, free
/// and re-malloc a fourth and write its prefix.  Returns what it read and
/// where the re-malloc landed.
fn refill_dealings(proc: &CracProcess, bufs: &RefillBuffers) -> Result<(Vec<u8>, Addr), CracError> {
    let mut read = vec![0u8; bufs.a.1 as usize];
    proc.space().read_bytes(bufs.a.0, &mut read)?;
    proc.memcpy(bufs.b.0, bufs.host, bufs.b.1 / 2, MemcpyKind::HostToDevice)?;
    let fb = proc.register_fat_binary();
    let bump = proc.register_function(fb, "bump")?;
    proc.launch_kernel(
        bump,
        LaunchDims::linear(1, 128),
        KernelCost::compute(BUMPED_FLOATS),
        vec![bufs.c.0.as_u64(), BUMPED_FLOATS],
        CracStream::DEFAULT,
    )?;
    proc.device_synchronize()?;
    proc.free(bufs.d.0)?;
    let d = proc.malloc(bufs.d.1)?;
    proc.space().write_bytes(d, &[0xEE; 64])?;
    Ok((read, d))
}

/// Every byte of every staged buffer (the re-malloc'ed one at `d`).
fn refill_memory(proc: &CracProcess, bufs: &RefillBuffers, d: Addr) -> Vec<Vec<u8>> {
    let mut all = bufs.staged();
    all[0].0 = d;
    all.iter()
        .map(|&(ptr, len)| {
            let mut bytes = vec![0u8; len as usize];
            proc.space().read_bytes(ptr, &mut bytes).unwrap();
            bytes
        })
        .collect()
}

/// The eager restart of `id`, after [`refill_dealings`]: what every lazy
/// restart must arrive at.
fn eager_refill_oracle(
    store: &ImageStore,
    id: ImageId,
    tag: &str,
    kernels: &Arc<KernelRegistry>,
    bufs: &RefillBuffers,
) -> ((Vec<u8>, Addr), Vec<Vec<u8>>) {
    let (eager, report, _) =
        CracProcess::restart_from_store(store, id, CracConfig::test(tag), Arc::clone(kernels))
            .unwrap();
    let staged_bytes: u64 = bufs.staged().iter().map(|b| b.1).sum();
    assert_eq!(report.refilled_bytes, staged_bytes);
    let out = refill_dealings(&eager, bufs).unwrap();
    let memory = refill_memory(&eager, bufs, out.1);
    (out, memory)
}

/// The lazy `run`: on entry no staged page is resident, then the same
/// dealings as the eager oracle.
fn lazy_refill_run(
    bufs: RefillBuffers,
) -> impl FnOnce(&CracProcess) -> Result<(Vec<u8>, Addr), CracError> {
    move |proc| {
        for (ptr, len) in bufs.staged() {
            let pages = (ptr.as_u64() + len).div_ceil(4096) - ptr.as_u64() / 4096;
            assert_eq!(
                absent_pages(proc, ptr, len) as u64,
                pages,
                "a staged page of {ptr} is resident when the application resumes"
            );
        }
        refill_dealings(proc, &bufs)
    }
}

#[test]
fn lazy_refill_from_store_matches_the_eager_refill_byte_for_byte() {
    let dir = TempDir::new("refill-oracle");
    let store = ImageStore::open(dir.path()).unwrap();
    let tag = "refill-oracle";
    let (id, kernels, bufs) = refill_process(&store, tag);
    let (want_out, want) = eager_refill_oracle(&store, id, tag, &kernels, &bufs);

    let (lazy, report, _, stats, out) = CracProcess::restart_from_store_lazy(
        &store,
        id,
        CracConfig::test(tag),
        Arc::clone(&kernels),
        lazy_refill_run(bufs),
    )
    .unwrap();
    assert_eq!(stats.chunks_at_resume, 0);
    assert_eq!(
        report.refilled_bytes,
        bufs.staged().iter().map(|b| b.1).sum()
    );
    assert_eq!(out, want_out);
    assert!(refill_memory(&lazy, &bufs, out.1) == want);
    // The untouched small buffer came back whole beside its re-malloc'ed
    // page-mate.
    assert_eq!(want[1], refill_pattern(2, bufs.e.1));
    assert!(!lazy.space().has_fault_handler());
}

#[test]
fn lazy_refill_over_tcp_matches_the_eager_refill_byte_for_byte() {
    let dir = TempDir::new("refill-oracle-tcp");
    let store = Arc::new(ImageStore::open(dir.path()).unwrap());
    let tag = "refill-oracle-tcp";
    let (id, kernels, bufs) = refill_process(&store, tag);
    let (want_out, want) = eager_refill_oracle(&store, id, tag, &kernels, &bufs);

    let server = serve_on("127.0.0.1:0", Arc::clone(&store), SECRET).unwrap();
    let transport = TcpTransport::connect(server.local_addr(), SECRET).unwrap();
    let (lazy, _, _, stats, out) = CracProcess::restart_from_remote_lazy(
        &transport,
        id,
        CracConfig::test(tag),
        Arc::clone(&kernels),
        lazy_refill_run(bufs),
    )
    .unwrap();
    server.shutdown();
    assert_eq!(stats.chunks_at_resume, 0);
    assert_eq!(out, want_out);
    assert!(refill_memory(&lazy, &bufs, out.1) == want);
}

/// With an application that touches nothing, every staged page comes back
/// in the completion after `run` and none by fault — the same count on
/// every run.
#[test]
fn lazy_refill_counters_count_every_staged_page_once() {
    let dir = TempDir::new("refill-counters");
    let store = ImageStore::open(dir.path()).unwrap();
    let tag = "refill-counters";
    let (id, kernels, bufs) = refill_process(&store, tag);
    let counts = || {
        let (proc, _, _, _, ()) = CracProcess::restart_from_store_lazy(
            &store,
            id,
            CracConfig::test(tag),
            Arc::clone(&kernels),
            |_| Ok(()),
        )
        .unwrap();
        let snap = proc.obs().snapshot();
        (
            snap.counter("crac_refill_pages_faulted"),
            snap.counter("crac_refill_pages_completed"),
        )
    };
    let first = counts();
    assert_eq!(first, (0, bufs.staged_pages()));
    assert_eq!(counts(), first);
}

/// A lazy restart whose staging chunk is gone: the device read in `run`
/// and a checkpoint taken there fail, the restart returns the error, and
/// nothing panics or hangs (the session's workers joined before the call
/// returned).
#[test]
fn lazy_refill_from_a_lost_staging_chunk_fails_cleanly() {
    let dir = TempDir::new("refill-lost");
    let store = ImageStore::open(dir.path()).unwrap();
    let tag = "refill-lost";
    let (id, kernels, bufs) = refill_process(&store, tag);
    // Chunks are stored raw: the one holding `a`'s first staged bytes.
    let marker = refill_pattern(3, 64);
    let chunks = std::fs::read_dir(dir.path().join("chunks")).unwrap();
    let holding: Vec<_> = chunks
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let bytes = std::fs::read(path).unwrap();
            bytes.windows(marker.len()).any(|w| w == marker)
        })
        .collect();
    assert_eq!(holding.len(), 1, "one chunk holds the staged bytes");
    std::fs::remove_file(&holding[0]).unwrap();

    let mut seen = None;
    let restarted = CracProcess::restart_from_store_lazy(
        &store,
        id,
        CracConfig::test(tag),
        Arc::clone(&kernels),
        |proc| {
            let mut probe = [0u8; 16];
            let read = proc.space().read_bytes(bufs.a.0, &mut probe);
            let ckpt = proc.checkpoint_to_store(&store, WriteOptions::full());
            seen = Some((read.is_err(), ckpt.map(|r| r.image_id)));
            Ok(())
        },
    );
    let (read_failed, ckpt) = seen.expect("the application ran");
    assert!(read_failed, "a device read of a lost staging chunk fails");
    assert!(ckpt.is_err(), "a checkpoint cannot complete the refill");
    assert!(matches!(restarted, Err(CracError::Mem(_))));
}
