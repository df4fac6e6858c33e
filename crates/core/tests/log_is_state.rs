//! The invariant `crac-core` rests on: **the log is the state.**
//!
//! Everything CRAC knows about the CUDA library's state — active mallocs,
//! virtual handles, the next handle to issue — is a fold of the call log,
//! one `CracState::apply` per entry.  An interposed call takes that step
//! under the state lock, so the log's order is the library's execution
//! order; restart takes all the steps again against a fresh library and
//! must arrive where the original process was.  The image stores the log
//! and the staging table and nothing derived, and restart trusts neither
//! beyond what the replayed state confirms.
//!
//! One harness, four parts: (1) the order invariant under host threads,
//! (2) the fold property over random call sequences, (3) record and replay
//! agreeing on `unregister_fat_binary`, (4) lying and damaged payloads.

use std::sync::Arc;

use crac_addrspace::{Addr, SharedSpace, PAGE_SIZE};
use crac_core::interpose::{CracFatBinary, StagedBuffer};
use crac_core::plugin::{CracPayload, STAGING_BASE};
use crac_core::replay::replay_log;
use crac_core::wire::Encoder;
use crac_core::{
    ActiveMallocs, CracConfig, CracError, CracEvent, CracKernel, CracProcess, CracStream,
    CudaCallLog, KernelRegistry,
};
use crac_cudart::MemcpyKind;
use crac_dmtcp::CheckpointImage;
use crac_gpu::{KernelCost, LaunchDims};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{ImageStore, WriteOptions};
use crac_splitproc::LowerHalf;

/// Kernel names the random application registers; the last has no body in
/// the registry, like a kernel the restarted binary no longer carries.
const KERNELS: [&str; 3] = ["work", "noop", "not-in-registry"];

fn registry() -> Arc<KernelRegistry> {
    let mut reg = KernelRegistry::new();
    reg.insert("work", |_| Ok(()));
    reg.insert("noop", |_| Ok(()));
    reg.insert("iota", |ctx| {
        let n = ctx.arg_u64(1) as usize;
        let v: Vec<f32> = (0..n).map(|i| i as f32).collect();
        ctx.write_f32_arg(0, &v)
    });
    Arc::new(reg)
}

fn config() -> CracConfig {
    CracConfig::test("log-is-state")
}

fn restart(image: &CheckpointImage) -> Result<CracProcess, CracError> {
    CracProcess::restart(image, config(), registry()).map(|(proc, _)| proc)
}

/// xorshift64*: the harness's only source of randomness, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Removes and returns a random element.
    fn take<T>(&mut self, from: &mut Vec<T>) -> Option<T> {
        (!from.is_empty()).then(|| from.swap_remove(self.below(from.len())))
    }

    /// A mixed allocation size: mostly small, some past a page, a few large.
    fn size(&mut self) -> u64 {
        match self.below(8) {
            0 => 1 + self.next() % (256 << 10),
            1 | 2 => 1 + self.next() % (16 << 10),
            _ => 1 + self.next() % 2048,
        }
    }
}

/// Everything a process derives from its log, in comparable form: handle
/// tables by virtual id (kernels with their names), the active mallocs, the
/// handle counter and the log itself.
#[derive(Debug, PartialEq)]
struct Derived {
    log: CudaCallLog,
    mallocs: ActiveMallocs,
    last_handle: u64,
    streams: Vec<u64>,
    events: Vec<u64>,
    fatbins: Vec<u64>,
    kernels: Vec<(u64, String, u64)>,
}

fn derived(proc: &CracProcess) -> Derived {
    let st = proc.state();
    let tables = &st.handles;
    Derived {
        log: st.log.clone(),
        mallocs: st.mallocs.clone(),
        last_handle: tables.last_handle,
        streams: tables.streams.keys().copied().collect(),
        events: tables.events.keys().copied().collect(),
        fatbins: tables.fatbins.keys().copied().collect(),
        kernels: tables
            .kernels
            .iter()
            .map(|(v, (name, owner, _))| (*v, name.clone(), *owner))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// 1. Log order = execution order, however many host threads share the process
// ---------------------------------------------------------------------------

/// Four host threads, fifty logged calls each, on one process.  The
/// library's arenas reuse freed blocks LIFO per size class, so the pointers
/// a replay produces depend on the exact interleaving of `malloc` and
/// `free` — the restart below reproduces them only if the log recorded the
/// order the library actually executed.  (Before the state lock spanned
/// call + log entry this failed with `ReplayMismatch` on round 0.)
#[test]
fn concurrent_logged_calls_replay_in_execution_order() {
    const ROUNDS: u64 = 200;
    const THREADS: u64 = 4;
    const CALLS: usize = 50;
    for round in 0..ROUNDS {
        let proc = CracProcess::launch(config(), registry());
        // All four start calling together, so every round interleaves.
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (proc, start) = (&proc, &start);
                scope.spawn(move || {
                    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (round << 8 | thread));
                    let (mut ptrs, mut streams, mut events) = (Vec::new(), Vec::new(), Vec::new());
                    start.wait();
                    for _ in 0..CALLS {
                        match rng.below(10) {
                            0..=3 => ptrs.push(proc.malloc(rng.size()).unwrap()),
                            4..=6 => match rng.take(&mut ptrs) {
                                Some(ptr) => proc.free(ptr).unwrap(),
                                None => ptrs.push(proc.malloc_managed(rng.size()).unwrap()),
                            },
                            7 => streams.push(proc.stream_create().unwrap()),
                            8 => events.push(proc.event_create().unwrap()),
                            _ => match (rng.take(&mut streams), rng.take(&mut events)) {
                                (Some(s), _) => proc.stream_destroy(s).unwrap(),
                                (None, Some(e)) => proc.event_destroy(e).unwrap(),
                                (None, None) => ptrs.push(proc.malloc(64).unwrap()),
                            },
                        }
                    }
                });
            }
        });
        assert_eq!(proc.state().log.len(), (THREADS as usize) * CALLS);
        let report = proc.checkpoint();
        let restarted = restart(&report.image).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(derived(&restarted), derived(&proc), "round {round}");
    }
}

// ---------------------------------------------------------------------------
// 2. The fold property: restart arrives where the original process was
// ---------------------------------------------------------------------------

/// Drives a random single-threaded application over all eleven logged
/// calls, interleaved with launches, copies and memsets (which are not
/// logged and must not matter), and returns it with a model of what is
/// live.  Destroy-then-create, free-then-malloc reuse and
/// unregister-then-register all occur.
struct Live {
    device: Vec<(Addr, u64)>,
    other: Vec<Addr>,
    streams: Vec<CracStream>,
    events: Vec<CracEvent>,
    fatbins: Vec<CracFatBinary>,
    kernels: Vec<(CracKernel, CracFatBinary)>,
}

fn random_app(seed: u64, calls: usize) -> (CracProcess, Live) {
    let mut rng = Rng(seed | 1);
    let proc = CracProcess::launch(config(), registry());
    let host = proc.heap_alloc(4096).unwrap();
    proc.space().write_bytes(host, &[0xa5; 4096]).unwrap();
    let mut live = Live {
        device: Vec::new(),
        other: Vec::new(),
        streams: vec![CracStream::DEFAULT],
        events: Vec::new(),
        fatbins: Vec::new(),
        kernels: Vec::new(),
    };
    for _ in 0..calls {
        match rng.below(16) {
            0 | 1 => {
                let size = rng.size();
                live.device.push((proc.malloc(size).unwrap(), size));
            }
            2 => live.other.push(proc.malloc_host(rng.size()).unwrap()),
            3 => live.other.push(proc.malloc_managed(rng.size()).unwrap()),
            4 | 5 => {
                // Free, and half the time allocate the same size again so
                // the freed block is reused.
                if let Some((ptr, size)) = rng.take(&mut live.device) {
                    proc.free(ptr).unwrap();
                    if rng.below(2) == 0 {
                        live.device.push((proc.malloc(size).unwrap(), size));
                    }
                } else if let Some(ptr) = rng.take(&mut live.other) {
                    proc.free(ptr).unwrap();
                }
            }
            6 => live.streams.push(proc.stream_create().unwrap()),
            7 => {
                let at = rng.below(live.streams.len());
                if at > 0 {
                    proc.stream_destroy(live.streams.swap_remove(at)).unwrap();
                    live.streams.push(proc.stream_create().unwrap());
                }
            }
            8 => live.events.push(proc.event_create().unwrap()),
            9 => {
                if let Some(e) = rng.take(&mut live.events) {
                    proc.event_destroy(e).unwrap();
                }
            }
            10 => live.fatbins.push(proc.register_fat_binary()),
            11 | 12 => {
                if live.fatbins.is_empty() {
                    live.fatbins.push(proc.register_fat_binary());
                }
                let fatbin = live.fatbins[rng.below(live.fatbins.len())];
                let name = KERNELS[rng.below(KERNELS.len())];
                let kernel = proc.register_function(fatbin, name).unwrap();
                live.kernels.push((kernel, fatbin));
            }
            13 => {
                if let Some(fatbin) = rng.take(&mut live.fatbins) {
                    proc.unregister_fat_binary(fatbin).unwrap();
                    live.kernels.retain(|(_, owner)| *owner != fatbin);
                    live.fatbins.push(proc.register_fat_binary());
                }
            }
            14 => {
                // Unlogged traffic on whatever is live.
                let stream = live.streams[rng.below(live.streams.len())];
                if let Some((ptr, size)) = live.device.last() {
                    let n = (*size).min(4096);
                    proc.memcpy(*ptr, host, n, MemcpyKind::HostToDevice)
                        .unwrap();
                    proc.memset(*ptr, 0x3c, n.min(64)).unwrap();
                }
                if let Some(e) = live.events.last() {
                    proc.event_record(*e, stream).unwrap();
                }
            }
            _ => {
                if !live.kernels.is_empty() {
                    let (kernel, _) = live.kernels[rng.below(live.kernels.len())];
                    let stream = live.streams[rng.below(live.streams.len())];
                    let dims = LaunchDims::linear(1, 32);
                    let cost = KernelCost::new(32, 0);
                    proc.launch_kernel(kernel, dims, cost, vec![], stream)
                        .unwrap();
                }
            }
        }
    }
    proc.device_synchronize().unwrap();
    (proc, live)
}

#[test]
fn restart_arrives_at_the_state_the_log_folds_to() {
    for seed in 1..=48u64 {
        let (proc, live) = random_app(seed.wrapping_mul(0x1234_5678_9abc_def1), 160);
        // Stamp every live device buffer so the refill is checked too.
        for (i, (ptr, _)) in live.device.iter().enumerate() {
            proc.space().write_bytes(*ptr, &[i as u8 + 1]).unwrap();
        }
        let report = proc.checkpoint();
        let restarted = restart(&report.image).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(derived(&restarted), derived(&proc), "seed {seed}");

        // The model agrees with the tables, and the handles still work.
        let d = derived(&restarted);
        assert_eq!(d.streams.len() + 1, live.streams.len(), "seed {seed}");
        assert_eq!(d.events.len(), live.events.len());
        assert_eq!(d.kernels.len(), live.kernels.len());
        for (i, (ptr, _)) in live.device.iter().enumerate() {
            let mut byte = [0u8];
            restarted.space().read_bytes(*ptr, &mut byte).unwrap();
            assert_eq!(byte[0], i as u8 + 1, "seed {seed}: device buffer {i}");
        }
        for stream in &live.streams {
            restarted.stream_synchronize(*stream).unwrap();
        }
        for (kernel, _) in &live.kernels {
            let (dims, cost) = (LaunchDims::linear(1, 1), KernelCost::new(1, 0));
            let stream = *live.streams.last().unwrap();
            assert_eq!(
                restarted.launch_kernel(*kernel, dims, cost, vec![], stream),
                Ok(())
            );
        }
        restarted.device_synchronize().unwrap();

        // `replay_log` alone, on a fresh lower half, takes every step.
        let cfg = config();
        let space = SharedSpace::new_no_aslr();
        let lower = LowerHalf::boot(&space, cfg.runtime.clone(), None, cfg.fs_mode);
        let log = proc.state().log.clone();
        let out = replay_log(&log, lower.runtime(), lower.trampolines(), &registry());
        let out = out.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(out.calls_replayed, log.len());
        assert_eq!(out.state.log, log);
        assert_eq!(out.state.mallocs, d.mallocs);
        assert_eq!(out.state.handles.last_handle, d.last_handle);
    }
}

// ---------------------------------------------------------------------------
// 3. Record and replay agree on `unregister_fat_binary`
// ---------------------------------------------------------------------------

#[test]
fn a_kernel_of_an_unregistered_fat_binary_is_the_same_error_before_and_after_restart() {
    let proc = CracProcess::launch(config(), registry());
    let gone = proc.register_fat_binary();
    let kept = proc.register_fat_binary();
    let dead = proc.register_function(gone, "work").unwrap();
    let alive = proc.register_function(kept, "work").unwrap();
    proc.unregister_fat_binary(gone).unwrap();

    let check = |proc: &CracProcess, when: &str| {
        let launch = |kernel| {
            let dims = LaunchDims::linear(1, 1);
            proc.launch_kernel(
                kernel,
                dims,
                KernelCost::new(1, 0),
                vec![],
                CracStream::DEFAULT,
            )
        };
        let before = proc.crossings();
        assert_eq!(
            launch(dead),
            Err(CracError::InvalidHandle("kernel")),
            "{when}"
        );
        assert_eq!(
            proc.crossings(),
            before,
            "{when}: a refused launch never crosses"
        );
        assert_eq!(launch(alive), Ok(()), "{when}");
        assert_eq!(
            proc.register_function(gone, "work"),
            Err(CracError::InvalidHandle("fat binary")),
            "{when}"
        );
        proc.device_synchronize().unwrap();
    };
    check(&proc, "immediately");

    let report = proc.checkpoint();
    check(
        &restart(&report.image).unwrap(),
        "after checkpoint → restart",
    );

    let dir = TempDir::new("log-is-state-unregister");
    let store = ImageStore::open(dir.path()).unwrap();
    let stored = proc
        .checkpoint_to_store(&store, WriteOptions::default())
        .unwrap();
    let (from_store, _, _) =
        CracProcess::restart_from_store(&store, stored.image_id, config(), registry()).unwrap();
    check(&from_store, "after a store round-trip");
}

// ---------------------------------------------------------------------------
// 4. The payload is outside input
// ---------------------------------------------------------------------------

/// A small application with one buffer of each family, a freed one, a heap
/// buffer the application cares about, and a checkpoint of it.
struct Victim {
    image: CheckpointImage,
    dev: Addr,
    managed: Addr,
    pinned: Addr,
    freed: Addr,
    heap: Addr,
    derived: Derived,
}

const DEV_BYTES: u64 = 2 * PAGE_SIZE;

fn victim() -> Victim {
    let proc = CracProcess::launch(config(), registry());
    let fatbin = proc.register_fat_binary();
    let iota = proc.register_function(fatbin, "iota").unwrap();
    let freed = proc.malloc(512).unwrap();
    let dev = proc.malloc(DEV_BYTES).unwrap();
    let managed = proc.malloc_managed(PAGE_SIZE).unwrap();
    let pinned = proc.malloc_host(PAGE_SIZE).unwrap();
    proc.free(freed).unwrap();
    let stream = proc.stream_create().unwrap();
    proc.event_create().unwrap();
    let heap = proc.heap_alloc(DEV_BYTES).unwrap();
    proc.space()
        .write_bytes(heap, &[0xee; DEV_BYTES as usize])
        .unwrap();
    let dims = LaunchDims::linear(1, 64);
    let args = vec![dev.as_u64(), 64];
    proc.launch_kernel(iota, dims, KernelCost::new(64, 256), args, stream)
        .unwrap();
    proc.device_synchronize().unwrap();
    Victim {
        image: proc.checkpoint().image,
        dev,
        managed,
        pinned,
        freed,
        heap,
        derived: derived(&proc),
    }
}

impl Victim {
    fn payload(&self) -> CracPayload {
        CracPayload::decode(&self.image.payloads["crac"]).unwrap()
    }

    /// Restarts from the image with its CRAC payload replaced.
    fn restart_with(&self, payload: Vec<u8>) -> Result<CracProcess, CracError> {
        let mut image = self.image.clone();
        image.payloads.insert("crac".to_string(), payload);
        restart(&image)
    }

    /// Restarts from the image with its staging table edited.
    fn restart_staging(&self, edit: impl FnOnce(&mut Vec<StagedBuffer>)) -> Result<(), CracError> {
        let mut payload = self.payload();
        edit(&mut payload.staging);
        self.restart_with(payload.encode()).map(drop)
    }

    /// The restarted process is the one that was checkpointed.
    fn assert_intact(&self, proc: &CracProcess) {
        assert_eq!(derived(proc), self.derived);
        let mut out = [0f32; 64];
        proc.space().read_f32(self.dev, &mut out).unwrap();
        assert_eq!(out[63], 63.0);
        let mut heap = [0u8; 64];
        proc.space().read_bytes(self.heap, &mut heap).unwrap();
        assert_eq!(heap, [0xee; 64], "the application's heap is its own");
    }
}

#[test]
fn a_lying_staging_table_is_refused_not_executed() {
    let v = victim();
    let honest = v.payload();
    assert_eq!(honest.staging.len(), 2, "device + managed");
    assert!(honest.staging.iter().all(|s| s.staging >= STAGING_BASE));
    v.assert_intact(&v.restart_with(honest.encode()).unwrap());

    let bad = Err(CracError::BadImage);
    let dev_entry = |s: &[StagedBuffer]| s.iter().position(|e| e.ptr == v.dev.as_u64()).unwrap();
    // The application's heap named as the device buffer's staging: honoured,
    // this fills the device buffer with heap bytes and unmaps the heap.
    assert_eq!(
        v.restart_staging(|s| {
            let at = dev_entry(s);
            s[at].staging = v.heap.as_u64();
        }),
        bad
    );
    // One staging buffer under two entries.
    assert_eq!(v.restart_staging(|s| s[1].staging = s[0].staging), bad);
    assert_eq!(v.restart_staging(|s| s[1] = s[0]), bad);
    // `ptr` naming a freed, a never-allocated and a pinned address.
    for ptr in [v.freed, v.dev + 256, Addr(0x1234_5000), v.pinned] {
        let lie = v.restart_staging(|s| {
            let at = dev_entry(s);
            s[at].ptr = ptr.as_u64();
        });
        assert_eq!(lie, bad, "ptr {ptr:?}");
    }
    // `len` that is not the allocation's size.
    for len in [DEV_BYTES - 1, DEV_BYTES + PAGE_SIZE, 0, u64::MAX - 1] {
        let lie = v.restart_staging(|s| {
            let at = dev_entry(s);
            s[at].len = len;
        });
        assert_eq!(lie, bad, "len {len}");
    }
    // A staging range that is unaligned, or runs past what the image mapped.
    assert_eq!(v.restart_staging(|s| s[0].staging += 64), bad);
    assert_eq!(v.restart_staging(|s| s[1].staging += 16 * PAGE_SIZE), bad);
    // The managed buffer is the other family and is held to the same rules.
    assert_eq!(
        v.restart_staging(|s| s.iter_mut().for_each(|e| e.ptr = v.managed.as_u64())),
        bad
    );
}

#[test]
fn a_payload_of_the_previous_version_is_a_bad_image() {
    let v = victim();
    let honest = v.image.payloads["crac"].clone();
    assert_eq!(&honest[8..16], b"CRACPAY2");
    // The old magic over today's body…
    let mut relabelled = honest.clone();
    relabelled[15] = b'1';
    assert!(CracPayload::decode(&relabelled).is_none());
    assert_eq!(v.restart_with(relabelled).err(), Some(CracError::BadImage));
    // …and the old layout itself: magic, next handle, log, mallocs, staging.
    let mut old = Encoder::new();
    old.bytes(b"CRACPAY1").u64(1).u64(0).u64(0).u64(0);
    let old = old.finish();
    assert!(CracPayload::decode(&old).is_none());
    assert_eq!(v.restart_with(old).err(), Some(CracError::BadImage));
    assert_eq!(v.restart_with(Vec::new()).err(), Some(CracError::BadImage));
}

/// Every truncation and, at every byte, three single-byte flips of a real
/// payload.  No panic; and either the restart is refused with an error that
/// says why, or — the damaged log still being one this implementation could
/// have recorded, e.g. a kernel name — the process that comes back is
/// exactly the fold of the log it was given, with the application's memory
/// intact.
#[test]
fn a_damaged_payload_never_panics_and_never_restarts_a_different_process_silently() {
    let v = victim();
    let honest = v.image.payloads["crac"].clone();
    for cut in 0..honest.len() {
        assert!(
            CracPayload::decode(&honest[..cut]).is_none(),
            "cut at {cut}"
        );
    }
    let (mut refused, mut restarted) = (0, 0);
    for at in 0..honest.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut damaged = honest.clone();
            damaged[at] ^= flip;
            let decoded = CracPayload::decode(&damaged);
            match v.restart_with(damaged) {
                Err(
                    CracError::BadImage
                    | CracError::ReplayMismatch { .. }
                    | CracError::Cuda(_)
                    | CracError::InvalidHandle(_),
                ) => refused += 1,
                Err(other) => panic!("byte {at} ^ {flip:#x}: {other}"),
                Ok(proc) => {
                    let given = decoded.expect("restarted from a payload that does not parse");
                    assert_ne!(given.log, v.derived.log, "byte {at} ^ {flip:#x}");
                    assert_eq!(proc.state().log, given.log, "byte {at} ^ {flip:#x}");
                    let mut heap = [0u8; 64];
                    proc.space().read_bytes(v.heap, &mut heap).unwrap();
                    assert_eq!(heap, [0xee; 64], "byte {at} ^ {flip:#x}");
                    restarted += 1;
                }
            }
        }
    }
    assert!(
        refused > 10 * restarted,
        "{refused} refused, {restarted} restarted"
    );
}
