//! The adapter to the system under test: every call the benchmark makes
//! into the workspace crates lives in this file.  Workloads, probes and
//! reporting see only the plain-data types defined here, so when the
//! program's entry points change (the roadmap collapses them into one
//! checkpoint and one restore call) this is the one file to port.
//!
//! Each function does its bookkeeping (registry snapshots, opening a
//! store the operation is not charged for) outside the [`Recorder::span`]
//! that wraps the program call, and returns that span's interval: the
//! timed region is exactly the call.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crac_addrspace::{
    page_align_down, Addr, Half, MapRequest, MemError, PageFaultHandler, PageRun, SharedSpace,
    PAGE_SIZE,
};
use crac_core::plugin::CracPayload;
use crac_core::replay::replay_log;
use crac_core::{CracConfig, CracError, CracProcess, CracStream, DmtcpPlugin, PrecopyConfig};
use crac_cudart::RuntimeConfig;
use crac_dmtcp::{CheckpointSink, Coordinator, CoordinatorConfig, RegionDescriptor, SinkClosed};
use crac_gpu::{KernelCost, LaunchDims, VirtualClock};
use crac_imagestore::net::frame::read_frame;
use crac_imagestore::net::{serve_on, Frame, ServerHandle, TcpTransport};
use crac_imagestore::{
    Buckets, ChunkSource, Compression, ContentHash, ImageId, ImageStore, LazyRestoreStats,
    LoopbackTransport, ObsRegistry, ReadStats, RegionSink, RegionSource, Snapshot, Span,
    StoreError, Transport, WriteOptions,
};
use crac_splitproc::{FsRegisterMode, LowerHalf, TrampolineTable};
use crac_workloads::apps::{run_app_phase, setup_app, AppBuffers};
use crac_workloads::kernels::registry;
use crac_workloads::{run_crac, run_native, AppSpec, Session};

use crate::inputs::checksum;
use crate::trace::{Interval, Recorder};

pub type Res<T> = Result<T, String>;

fn es(e: impl std::fmt::Display) -> String {
    e.to_string()
}

const SECRET: &[u8] = b"crac-perf";
const MIB: f64 = (1u64 << 20) as f64;

fn config() -> CracConfig {
    CracConfig::v100("perf")
}

// ---------------------------------------------------------------------------
// The application: a process, its allocations, its memory
// ---------------------------------------------------------------------------

/// The CUDA side of `gpu_img`.
#[derive(Clone, Copy)]
pub struct GpuShape {
    pub streams: u32,
    pub device_mb: u64,
    pub pinned_mb: u64,
    pub managed_mb: u64,
    pub launches: u64,
    pub memcpys: u64,
    /// Logged `malloc`/`free` pairs issued before the run, so the replay
    /// log is long.
    pub malloc_free_pairs: u64,
}

impl GpuShape {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "gpu_img",
            cmdline: "",
            uses_uvm: true,
            streams: self.streams,
            device_mb: self.device_mb,
            pinned_host_mb: self.pinned_mb,
            managed_mb: self.managed_mb,
            kernel_launches: self.launches,
            memcpy_calls: self.memcpys,
            // The unified_memory_streams calibration this call mix comes from.
            target_native_s: 16.0,
            default_scale: 1.0,
        }
    }
}

struct GpuApp {
    spec: AppSpec,
    buffers: AppBuffers,
}

/// What the application knows about itself across a restart: where its
/// allocations are (ASLR is off, so a restarted process has them at the
/// same addresses) and, for the CUDA application, its handles.
#[derive(Clone)]
pub struct Layout {
    allocs: Vec<(Addr, u64)>,
    gpu: Option<Arc<GpuApp>>,
}

/// A process's memory as the application sees it.
pub struct Mem<'a> {
    space: SharedSpace,
    layout: &'a Layout,
}

impl Mem<'_> {
    /// Length of every allocation, in allocation order.
    pub fn lens(&self) -> Vec<u64> {
        self.layout.allocs.iter().map(|a| a.1).collect()
    }

    /// Reads `buf.len()` bytes at offset `off` of allocation `alloc`.
    pub fn read(&self, alloc: usize, off: u64, buf: &mut [u8]) -> Res<()> {
        let (base, _) = self.layout.allocs[alloc];
        self.space.read_bytes(base + off, buf).map_err(es)
    }

    /// One 64-bit checksum per allocation, over every byte of it.
    pub fn checksums(&self) -> Res<Vec<u64>> {
        let mut buf = vec![0u8; 64 << 10];
        let mut out = Vec::with_capacity(self.layout.allocs.len());
        for &(base, len) in &self.layout.allocs {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            let mut off = 0u64;
            while off < len {
                let take = (len - off).min(buf.len() as u64) as usize;
                self.space
                    .read_bytes(base + off, &mut buf[..take])
                    .map_err(es)?;
                h = checksum(h, &buf[..take]);
                off += take as u64;
            }
            out.push(h);
        }
        Ok(out)
    }
}

/// Writes pages into one allocation from another thread (the
/// `live_precopy` mutator).
pub struct HotWriter {
    space: SharedSpace,
    base: Addr,
}

impl HotWriter {
    pub fn write_page(&self, page: u64, data: &[u8]) -> Res<()> {
        self.space
            .write_bytes(self.base + page * PAGE_SIZE, data)
            .map_err(es)
    }
}

/// Quiesce handshake between a pre-copy checkpoint and the mutator
/// thread: the coordinator's `pre_checkpoint` hook asks the mutator to
/// stop and waits until it has parked, like an application pausing its
/// writer threads for the final stop-the-world pass.
#[derive(Default)]
pub struct Gate {
    armed: AtomicBool,
    stop: AtomicBool,
    parked: AtomicBool,
}

impl Gate {
    /// Call before starting a mutator; the next checkpoint will stop it.
    pub fn arm(&self) {
        self.stop.store(false, Ordering::SeqCst);
        self.parked.store(false, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops the mutator from the harness side, for a checkpoint that
    /// ended without reaching its stop window.
    pub fn release(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The mutator's acknowledgement: it will not write again.
    pub fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
        self.armed.store(false, Ordering::SeqCst);
    }
}

impl DmtcpPlugin for Gate {
    fn name(&self) -> &str {
        "perf-gate"
    }

    fn pre_checkpoint(&self) {
        if !self.armed.load(Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        while !self.parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

/// A process running under CRAC.
pub struct Proc {
    session: Session,
    layout: Layout,
}

impl Proc {
    fn crac(&self) -> Res<&CracProcess> {
        self.session
            .as_crac()
            .ok_or_else(|| "process does not run under CRAC".to_string())
    }

    /// Launches a process with `heap` host-heap pieces and `device` device
    /// allocations of the given sizes; nothing is written yet.
    pub fn launch_mem(heap: &[u64], device: &[u64]) -> Res<Proc> {
        let proc = CracProcess::launch(config(), registry());
        let mut allocs = Vec::new();
        for &len in heap {
            allocs.push((proc.heap_alloc(len).map_err(es)?, len));
        }
        for &len in device {
            allocs.push((proc.malloc(len).map_err(es)?, len));
        }
        Ok(Proc {
            session: Session::from_crac(proc),
            layout: Layout { allocs, gpu: None },
        })
    }

    /// Launches the CUDA application: buffers, streams, and the
    /// `malloc`/`free` churn that lengthens the replay log.
    pub fn launch_gpu(shape: &GpuShape) -> Res<Proc> {
        let spec = shape.spec();
        let session = Session::crac(config(), registry());
        let buffers = setup_app(&session, &spec)?;
        for _ in 0..shape.malloc_free_pairs {
            let p = session.malloc(PAGE_SIZE)?;
            session.free(p)?;
        }
        let allocs = buffers
            .device
            .iter()
            .chain(&buffers.pinned)
            .chain(&buffers.managed)
            .copied()
            .collect();
        Ok(Proc {
            session,
            layout: Layout {
                allocs,
                gpu: Some(Arc::new(GpuApp { spec, buffers })),
            },
        })
    }

    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    pub fn mem(&self) -> Mem<'_> {
        Mem {
            space: self.session.space(),
            layout: &self.layout,
        }
    }

    /// Writes `data` (whole pages) into allocation `alloc` starting at page
    /// `first_page`, one page-sized write at a time, as an application
    /// touching its buffers would.
    pub fn write_pages(&self, alloc: usize, first_page: u64, data: &[u8]) -> Res<()> {
        let space = self.session.space();
        let base = self.layout.allocs[alloc].0 + first_page * PAGE_SIZE;
        for (i, page) in data.chunks_exact(PAGE_SIZE as usize).enumerate() {
            space
                .write_bytes(base + i as u64 * PAGE_SIZE, page)
                .map_err(es)?;
        }
        Ok(())
    }

    pub fn hot_writer(&self, alloc: usize) -> HotWriter {
        HotWriter {
            space: self.session.space(),
            base: self.layout.allocs[alloc].0,
        }
    }

    /// Registers the mutator gate on this process's coordinator.
    pub fn install_gate(&mut self) -> Res<Arc<Gate>> {
        let gate = Arc::new(Gate::default());
        match &mut self.session {
            Session::Crac(p) => p.register_plugin(Arc::clone(&gate) as Arc<dyn DmtcpPlugin>),
            Session::Native(_) => return Err("process does not run under CRAC".to_string()),
        }
        Ok(gate)
    }

    /// Runs `fraction` of the CUDA application's work and drains the device.
    pub fn gpu_phase(&self, rec: &Recorder, fraction: f64) -> Res<Interval> {
        let app = self
            .layout
            .gpu
            .as_ref()
            .ok_or_else(|| "not a CUDA application".to_string())?;
        let (r, at) = rec.span("workloads.run_app_phase", || {
            run_app_phase(&self.session, &app.spec, &app.buffers, 1.0, fraction)?;
            self.session.device_synchronize()
        });
        r?;
        Ok(at)
    }
}

// ---------------------------------------------------------------------------
// Where images go: a store directory, or a peer behind TCP
// ---------------------------------------------------------------------------

/// Node B: a store served over localhost TCP, and node A's one pooled
/// transport to it.
pub struct Peer {
    store: Arc<ImageStore>,
    server: Option<ServerHandle>,
    wire: TcpTransport,
}

impl Peer {
    pub fn start(dir: &Path) -> Res<Peer> {
        let store = Arc::new(ImageStore::open(dir).map_err(es)?);
        let server = serve_on("127.0.0.1:0", Arc::clone(&store), SECRET).map_err(es)?;
        let wire = TcpTransport::connect(server.local_addr(), SECRET).map_err(es)?;
        Ok(Peer {
            store,
            server: Some(server),
            wire,
        })
    }

    /// Chunk frames the server ingested so far.
    pub fn server_chunk_frames(&self) -> u64 {
        self.server
            .as_ref()
            .map_or(0, |s| s.stats().chunk_frames_received as u64)
    }

    /// `(peak connections in use, connections opened)` of the pooled client.
    pub fn pool_use(&self) -> (u64, u64) {
        let s = self.wire.stats();
        (
            s.peak_connections_in_use as u64,
            s.connections_opened as u64,
        )
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[derive(Clone, Copy)]
pub enum Target<'a> {
    Disk(&'a Path),
    Tcp(&'a Peer),
}

/// What a restarting process holds once it has opened the store or dialled
/// the peer.
pub enum Conn {
    Store(ImageStore),
    Wire(TcpTransport),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Image(ImageId);

/// A restart is a new process: it pays for opening the store or dialling
/// and authenticating to the peer.
pub fn connect(rec: &Recorder, target: Target<'_>) -> Res<(Conn, Interval)> {
    match target {
        Target::Disk(dir) => {
            let (r, at) = rec.span("imagestore.store.open", || ImageStore::open(dir));
            Ok((Conn::Store(r.map_err(es)?), at))
        }
        Target::Tcp(peer) => {
            let addr = peer.wire.peer_addr();
            let (r, at) = rec.span("imagestore.net.connect", || {
                TcpTransport::connect(addr, SECRET)
            });
            Ok((Conn::Wire(r.map_err(es)?), at))
        }
    }
}

/// Logical bytes of the images currently stored at `target`.
pub fn logical_bytes(target: Target<'_>) -> Res<u64> {
    let images = match target {
        Target::Disk(dir) => ImageStore::open_read_only(dir)
            .map_err(es)?
            .list_images()
            .map_err(es)?,
        Target::Tcp(peer) => peer.store.list_images().map_err(es)?,
    };
    Ok(images.iter().map(|i| i.logical_bytes).sum())
}

/// `ImageStore::retain_last(keep)` on the store at `dir`.
pub fn retain_last(rec: &Recorder, dir: &Path, keep: usize) -> Res<Interval> {
    let store = ImageStore::open(dir).map_err(es)?;
    let (r, at) = rec.span("imagestore.store.retain_last", || store.retain_last(keep));
    r.map_err(es)?;
    Ok(at)
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// Per-layer counters an operation produced, under the names the report
/// uses: the mapping from the program's `*Stats` fields and registry
/// histograms to metric names is part of this adapter.
pub type Counters = Vec<(&'static str, f64)>;

/// How to checkpoint.
#[derive(Clone, Copy)]
pub enum How {
    /// Stop the world; into a store the process chains onto its previous
    /// image there by itself.
    Stw,
    /// Pre-copy with the default configuration.
    Precopy,
    /// Stop the world, to a peer that already holds this parent image.
    StwOnPeerParent(Image),
}

pub struct CkptOut {
    pub image: Image,
    /// The checkpoint call.
    pub at: Interval,
    /// Time the application was stopped, from the coordinator's own
    /// `crac_ckpt_stop_window_us` histogram.
    pub stop_window_ms: f64,
    /// Chunks that crossed the transport (0 for a store).
    pub chunks_shipped: u64,
    pub counters: Counters,
}

fn hist_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.histogram(name).map_or(0, |h| h.sum)
}

const STOP_WINDOW: &str = "crac_ckpt_stop_window_us";

/// One checkpoint of `proc` to `target`.  The pipeline's thread count
/// stays at its default.
pub fn checkpoint(rec: &Recorder, proc: &Proc, target: Target<'_>, how: How) -> Res<CkptOut> {
    let crac = proc.crac()?;
    let obs = crac.obs();
    let before = obs.snapshot();
    let delta_ms = |after: &Snapshot, name: &str| {
        (hist_sum(after, name) - hist_sum(&before, name)) as f64 / 1e3
    };
    match (target, how) {
        (Target::Disk(dir), How::Stw | How::Precopy) => {
            let store = ImageStore::open(dir).map_err(es)?;
            let opts = WriteOptions::full();
            let mut counters = Counters::new();
            let (report, at) = if let How::Precopy = how {
                let (r, at) = rec.span("core.checkpoint_to_store_precopy", || {
                    crac.checkpoint_to_store_precopy(&store, opts, PrecopyConfig::default())
                });
                let (report, pre) = r.map_err(es)?;
                let emitted: u64 = pre.round_bytes.iter().sum();
                counters.extend([
                    ("dmtcp.precopy_rounds", pre.rounds as f64),
                    (
                        "dmtcp.reemit_ratio",
                        emitted as f64 / report.image_bytes.max(1) as f64,
                    ),
                    ("dmtcp.final_dirty_pages", pre.final_dirty_pages as f64),
                ]);
                (report, at)
            } else {
                let (r, at) = rec.span("core.checkpoint_to_store", || {
                    crac.checkpoint_to_store(&store, opts)
                });
                (r.map_err(es)?, at)
            };
            let after = obs.snapshot();
            let w = &report.write;
            counters.extend([
                ("core.drained_bytes", report.drained_bytes as f64),
                ("core.model_ckpt_s", report.ckpt_time_s),
                ("core.payload_bytes", w.payload_bytes as f64),
                (
                    "imagestore.writer.hash_busy_ms",
                    delta_ms(&after, "crac_writer_stage_hash_us"),
                ),
                (
                    "imagestore.writer.dedup_busy_ms",
                    delta_ms(&after, "crac_writer_stage_dedup_us"),
                ),
                (
                    "imagestore.writer.encode_busy_ms",
                    delta_ms(&after, "crac_writer_stage_encode_us"),
                ),
                (
                    "imagestore.writer.io_busy_ms",
                    delta_ms(&after, "crac_writer_stage_io_us"),
                ),
                ("imagestore.writer.chunks_written", w.chunks_written as f64),
                ("imagestore.writer.chunks_deduped", w.chunks_deduped as f64),
                ("imagestore.writer.bytes_written", w.bytes_written() as f64),
                (
                    "imagestore.writer.peak_buffered_mb",
                    w.peak_buffered_bytes as f64 / MIB,
                ),
                ("imagestore.writer.threads_used", w.threads_used as f64),
            ]);
            Ok(CkptOut {
                image: Image(report.image_id),
                at,
                stop_window_ms: delta_ms(&after, STOP_WINDOW),
                chunks_shipped: 0,
                counters,
            })
        }
        (Target::Tcp(peer), How::Stw | How::StwOnPeerParent(_)) => {
            let parent = match how {
                How::StwOnPeerParent(image) => Some(image.0),
                _ => None,
            };
            let (r, at) = rec.span("core.checkpoint_to_remote", || {
                crac.checkpoint_to_remote(&peer.wire, Compression::None, parent)
            });
            let report = r.map_err(es)?;
            let after = obs.snapshot();
            let s = &report.replicate;
            Ok(CkptOut {
                image: Image(report.image_id),
                at,
                stop_window_ms: delta_ms(&after, STOP_WINDOW),
                chunks_shipped: s.chunks_shipped as u64,
                counters: vec![
                    ("core.drained_bytes", report.drained_bytes as f64),
                    ("core.model_ckpt_s", report.ckpt_time_s),
                    ("imagestore.remote.chunks_shipped", s.chunks_shipped as f64),
                    ("imagestore.remote.bytes_shipped", s.bytes_shipped as f64),
                    ("imagestore.remote.dedup_ratio", s.dedup_ratio()),
                    (
                        "imagestore.remote.transient_retries",
                        s.transient_retries as f64,
                    ),
                ],
            })
        }
        _ => Err("no workload checkpoints this way to this target".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Restart
// ---------------------------------------------------------------------------

pub struct RestartOut {
    /// The restart call (the open or dial before it is [`connect`]'s).
    pub at: Interval,
    /// Chunks a lazy restart had fetched when the application resumed.
    pub chunks_at_resume: u64,
    pub counters: Counters,
}

fn restart_out(
    proc: CracProcess,
    layout: &Layout,
    at: Interval,
    report: crac_core::RestartReport,
    read: &ReadStats,
    lazy: Option<&LazyRestoreStats>,
) -> (Proc, RestartOut) {
    // A restart records into a fresh registry, so totals are this call's.
    let snap = proc.obs().snapshot();
    let busy = |name: &str| hist_sum(&snap, name) as f64 / 1e3;
    // The reader's and the replay's counters are an eager restart's; a
    // lazy one reports the lazy layer's, so a median never mixes the two.
    let counters = match lazy {
        None => vec![
            ("core.replayed_calls", report.replayed_calls as f64),
            ("core.model_restart_s", report.restart_time_s),
            (
                "imagestore.reader.fetch_busy_ms",
                busy("crac_reader_stage_fetch_us"),
            ),
            (
                "imagestore.reader.verify_busy_ms",
                busy("crac_reader_stage_verify_us"),
            ),
            (
                "imagestore.reader.splice_busy_ms",
                busy("crac_reader_stage_splice_us"),
            ),
            (
                "imagestore.reader.peak_buffered_mb",
                read.peak_buffered_bytes as f64 / MIB,
            ),
            ("imagestore.reader.threads_used", read.threads_used as f64),
        ],
        Some(l) => vec![
            ("imagestore.lazy.faults_served", l.faults_served as f64),
            ("imagestore.lazy.chunks_faulted", l.chunks_faulted as f64),
            (
                "imagestore.lazy.chunks_prefetched",
                l.chunks_prefetched as f64,
            ),
        ],
    };
    let out = RestartOut {
        at,
        chunks_at_resume: lazy.map_or(0, |l| l.chunks_at_resume),
        counters,
    };
    let proc = Proc {
        session: Session::from_crac(proc),
        layout: layout.clone(),
    };
    (proc, out)
}

/// Eager restart: returns when every page is resident.
pub fn restart(
    rec: &Recorder,
    conn: &Conn,
    image: Image,
    layout: &Layout,
) -> Res<(Proc, RestartOut)> {
    let (r, at) = match conn {
        Conn::Store(store) => rec.span("core.restart_from_store", || {
            CracProcess::restart_from_store(store, image.0, config(), registry())
        }),
        Conn::Wire(wire) => rec.span("core.restart_from_remote", || {
            CracProcess::restart_from_remote(wire, image.0, config(), registry())
        }),
    };
    let (proc, report, read) = r.map_err(es)?;
    Ok(restart_out(proc, layout, at, report, &read, None))
}

/// Lazy restart: `run` is entered as soon as the process can resume and
/// touches memory while the prefetch sweep races; the call returns once
/// the rest has drained in.
pub fn restart_lazy(
    rec: &Recorder,
    conn: &Conn,
    image: Image,
    layout: &Layout,
    run: impl FnOnce(&Mem<'_>) -> Res<()>,
) -> Res<(Proc, RestartOut)> {
    let app = |p: &CracProcess| {
        let mem = Mem {
            space: p.space().clone(),
            layout,
        };
        run(&mem).map_err(CracError::Mem)
    };
    let (r, at) = match conn {
        Conn::Store(store) => rec.span("core.restart_from_store_lazy", || {
            CracProcess::restart_from_store_lazy(store, image.0, config(), registry(), app)
        }),
        Conn::Wire(wire) => rec.span("core.restart_from_remote_lazy", || {
            CracProcess::restart_from_remote_lazy(wire, image.0, config(), registry(), app)
        }),
    };
    let (proc, report, read, lazy, ()) = r.map_err(es)?;
    Ok(restart_out(proc, layout, at, report, &read, Some(&lazy)))
}

// ---------------------------------------------------------------------------
// Layer probes: one public function of one layer, called alone
// ---------------------------------------------------------------------------

fn mbps(bytes: u64, at: Interval) -> f64 {
    bytes as f64 / 1e6 / (at.ns().max(1) as f64 / 1e9)
}

fn per_call_ns(at: Interval, calls: u64) -> f64 {
    at.ns() as f64 / calls as f64
}

/// `addrspace`: page-sized `write_bytes` over a resident region, the same
/// right after a coordinator capture holds the pages (copy-if-shared),
/// and `read_bytes`.  Returns `(write, write_cow, read)` in MB/s.
pub fn probe_space_rw(rec: &Recorder) -> Res<(f64, f64, f64)> {
    const PAGES: u64 = 2048;
    let space = SharedSpace::new_no_aslr();
    let base = space
        .mmap(MapRequest::anon(PAGES * PAGE_SIZE, Half::Upper, "probe-rw"))
        .map_err(es)?;
    let page = vec![0x5Au8; PAGE_SIZE as usize];
    let write_all = |name: &'static str| -> Res<Interval> {
        let (r, at) = rec.span(name, || {
            (0..PAGES).try_for_each(|p| space.write_bytes(base + p * PAGE_SIZE, &page))
        });
        r.map_err(es)?;
        Ok(at)
    };
    write_all("addrspace.populate")?;
    let write = write_all("addrspace.write")?;
    // What the coordinator's capture does: take a share of every page, so
    // the next write to each must copy it first.
    let captured: Vec<Arc<[u8]>> = space.with(|s| {
        s.regions()
            .flat_map(|r| r.store.pages_since(0).map(|(_, page)| page.share()))
            .collect()
    });
    let cow = write_all("addrspace.write_cow")?;
    drop(captured);
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    let (r, read) = rec.span("addrspace.read", || {
        (0..PAGES).try_for_each(|p| space.read_bytes(base + p * PAGE_SIZE, &mut buf))
    });
    r.map_err(es)?;
    let bytes = PAGES * PAGE_SIZE;
    Ok((mbps(bytes, write), mbps(bytes, cow), mbps(bytes, read)))
}

struct InstallFromMemory {
    space: SharedSpace,
    page: Vec<u8>,
}

impl PageFaultHandler for InstallFromMemory {
    fn fault(&self, addr: Addr) -> Result<(), MemError> {
        let page = Addr(page_align_down(addr.as_u64()));
        self.space
            .with_mut(|s| s.install_resident(page, &self.page))?;
        Ok(())
    }
}

/// `addrspace`: first touch of a `declare_absent` page, served by a
/// handler that installs from memory.  Microseconds per fault.
pub fn probe_fault(rec: &Recorder) -> Res<f64> {
    const PAGES: u64 = 1024;
    let space = SharedSpace::new_no_aslr();
    let base = space
        .mmap(MapRequest::anon(
            PAGES * PAGE_SIZE,
            Half::Upper,
            "probe-fault",
        ))
        .map_err(es)?;
    space
        .with_mut(|s| s.declare_absent(base, PAGES * PAGE_SIZE))
        .map_err(es)?;
    space.install_fault_handler(Arc::new(InstallFromMemory {
        space: space.clone(),
        page: vec![0xA7; PAGE_SIZE as usize],
    }));
    let mut b = [0u8; 8];
    let (r, at) = rec.span("addrspace.fault", || {
        (0..PAGES).try_for_each(|p| space.read_bytes(base + p * PAGE_SIZE, &mut b))
    });
    space.clear_fault_handler();
    r.map_err(es)?;
    Ok(per_call_ns(at, PAGES) / 1e3)
}

struct Discard;

impl CheckpointSink for Discard {
    fn begin_region(&mut self, _: &RegionDescriptor) -> Result<(), SinkClosed> {
        Ok(())
    }
    fn page_run(&mut self, _: PageRun, bytes: &[u8]) -> Result<(), SinkClosed> {
        std::hint::black_box(bytes);
        Ok(())
    }
    fn end_region(&mut self) -> Result<(), SinkClosed> {
        Ok(())
    }
    fn payload(&mut self, _: &str, _: &[u8]) -> Result<(), SinkClosed> {
        Ok(())
    }
}

impl RegionSink for Discard {
    fn declare_region(&mut self, _: &RegionDescriptor) -> Result<(), StoreError> {
        Ok(())
    }
    fn push_run(&mut self, _: usize, _: PageRun, bytes: &[u8]) -> Result<(), StoreError> {
        std::hint::black_box(bytes);
        Ok(())
    }
    fn push_payload(&mut self, _: &str, _: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
}

/// A coordinator over `proc`'s space with no plugin: it walks every mapped
/// region, the device arenas in place of the staging copies a real
/// checkpoint drains them into — the same bytes.
fn bare_coordinator(proc: &Proc) -> Coordinator {
    Coordinator::new(proc.session.space(), CoordinatorConfig::default())
}

/// `dmtcp`: the streaming address-space walk alone, into a sink that
/// discards.
pub fn probe_walk(rec: &Recorder, proc: &Proc) -> Res<Interval> {
    let coord = bare_coordinator(proc);
    let (r, at) = rec.span("dmtcp.walk", || coord.checkpoint_streaming(&mut Discard));
    r.map_err(|_| "discarding sink closed".to_string())?;
    Ok(at)
}

/// `imagestore.writer`: `stream_image` fed pre-captured runs of `proc`'s
/// memory, into an empty store at `dir` and then again into the same
/// store, which by then holds every chunk.  Returns `(write, dedup_write)`.
pub fn probe_writer(rec: &Recorder, proc: &Proc, dir: &Path) -> Res<(Interval, Interval)> {
    let (image, _) = bare_coordinator(proc).checkpoint(0);
    let store = ImageStore::open(dir).map_err(es)?;
    let opts = WriteOptions::full();
    let (r, write) = rec.span("imagestore.writer.write", || {
        store.stream_image(&opts, |w| image.stream_into(w))
    });
    r.map_err(es)?;
    let (r, dedup) = rec.span("imagestore.writer.dedup_write", || {
        store.stream_image(&opts, |w| image.stream_into(w))
    });
    r.map_err(es)?;
    Ok((write, dedup))
}

fn open_read_only(dir: &Path) -> Res<ImageStore> {
    ImageStore::open_read_only(dir).map_err(es)
}

/// `imagestore.reader`: `stream_restore` of `image` from the store at
/// `dir` into a sink that discards.
pub fn probe_reader(rec: &Recorder, dir: &Path, image: Image) -> Res<Interval> {
    let store = open_read_only(dir)?;
    let mut reader = store.stream_restore(image.0).map_err(es)?;
    let (r, at) = rec.span("imagestore.reader.read", || reader.stream_out(&mut Discard));
    r.map_err(es)?;
    Ok(at)
}

/// `imagestore.remote`: `replicate_to` of `image` from the store at `dir`
/// to a fresh store at `dst` over the in-process loopback transport —
/// negotiation, read and ingest, no socket.
pub fn probe_replicate_loopback(
    rec: &Recorder,
    dir: &Path,
    image: Image,
    dst: &Path,
) -> Res<Interval> {
    let src = open_read_only(dir)?;
    let dst = ImageStore::open(dst).map_err(es)?;
    let loopback = LoopbackTransport::new(&dst);
    let (r, at) = rec.span("imagestore.remote.replicate_loopback", || {
        src.replicate_to(image.0, &loopback)
    });
    r.map_err(es)?;
    Ok(at)
}

/// `core`: `replay_log` of the CUDA log `image` (in the store at `dir`)
/// carries, against a fresh lower half.  Returns the interval and the
/// number of calls replayed.
pub fn probe_replay(rec: &Recorder, dir: &Path, image: Image) -> Res<(Interval, u64)> {
    let store = open_read_only(dir)?;
    let reader = store.stream_restore(image.0).map_err(es)?;
    let payload = reader
        .payload("crac")
        .and_then(CracPayload::decode)
        .ok_or_else(|| "image has no valid CRAC payload".to_string())?;
    let cfg = config();
    let space = SharedSpace::new_no_aslr();
    let lower = LowerHalf::boot(&space, cfg.runtime.clone(), None, cfg.fs_mode);
    let kernels = registry();
    let (r, at) = rec.span("core.replay_log", || {
        replay_log(&payload.log, lower.runtime(), lower.trampolines(), &kernels)
    });
    Ok((at, r.map_err(es)?.calls_replayed as u64))
}

/// `core`: interposed `launch_kernel` of a trivial kernel, and a logged
/// `malloc`/`free` pair.  Nanoseconds per call and per pair.
pub fn probe_interposed_calls(rec: &Recorder) -> Res<(f64, f64)> {
    const CALLS: u64 = 20_000;
    let proc = CracProcess::launch(config(), registry());
    let fatbin = proc.register_fat_binary();
    let kernel = proc.register_function(fatbin, "work").map_err(es)?;
    let (r, launch) = rec.span("core.launch_kernel", || {
        (0..CALLS).try_for_each(|_| {
            proc.launch_kernel(
                kernel,
                LaunchDims::linear(1, 1),
                KernelCost::new(1, 0),
                Vec::new(),
                CracStream::DEFAULT,
            )
        })
    });
    r.map_err(es)?;
    proc.device_synchronize().map_err(es)?;
    let (r, pairs) = rec.span("core.malloc_free", || {
        (0..CALLS).try_for_each(|_| proc.free(proc.malloc(PAGE_SIZE)?))
    });
    r.map_err(es)?;
    Ok((per_call_ns(launch, CALLS), per_call_ns(pairs, CALLS)))
}

/// `splitproc`: `TrampolineTable::call` of a no-op.  Nanoseconds per call.
pub fn probe_trampoline(rec: &Recorder) -> f64 {
    const CALLS: u64 = 2_000_000;
    let table = TrampolineTable::new(FsRegisterMode::KernelCall, VirtualClock::new_shared());
    let ((), at) = rec.span("splitproc.trampoline", || {
        for i in 0..CALLS {
            std::hint::black_box(table.call(|| i));
        }
    });
    per_call_ns(at, CALLS)
}

/// `cudart`: the same trivial launch against the runtime directly, no
/// interposition.  Nanoseconds per call.
pub fn probe_native_launch(rec: &Recorder) -> Res<f64> {
    const CALLS: u64 = 20_000;
    let session = Session::native(RuntimeConfig::v100(), registry());
    let kernel = session.register_kernel("work")?;
    let (r, at) = rec.span("cudart.native_launch", || {
        (0..CALLS).try_for_each(|_| {
            session.launch(
                kernel,
                LaunchDims::linear(1, 1),
                KernelCost::new(1, 0),
                Vec::new(),
                CracStream::DEFAULT,
            )
        })
    });
    r?;
    session.device_synchronize()?;
    Ok(per_call_ns(at, CALLS))
}

/// `cudart` and the paper's Figure 2: the whole CUDA application run
/// natively (wall time of `run_native`), and the runtime overhead of the
/// same run under CRAC on the virtual clock, with `dmtcp_startup_ns = 0`
/// as `tests/end_to_end.rs` measures it.  Returns `(interval, percent)`.
pub fn probe_native_app(rec: &Recorder, shape: &GpuShape) -> Res<(Interval, f64)> {
    let spec = shape.spec();
    let (r, at) = rec.span("cudart.native_app", || {
        run_native(&spec, RuntimeConfig::v100(), 1.0)
    });
    let native = r?;
    let mut cfg = config();
    cfg.dmtcp_startup_ns = 0;
    let crac = run_crac(&spec, cfg, 1.0)?;
    let pct = 100.0 * (crac.elapsed_s - native.elapsed_s) / native.elapsed_s;
    Ok((at, pct))
}

const CHUNK: usize = 64 << 10;

fn chunk_sized_bytes() -> Vec<u8> {
    (0..CHUNK)
        .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8)
        .collect()
}

/// `imagestore.hash`: `ContentHash::of` and `crc32` over one 64 KiB chunk.
/// MB/s each.
pub fn probe_hash(rec: &Recorder) -> (f64, f64) {
    const ROUNDS: u64 = 256;
    let bytes = chunk_sized_bytes();
    let ((), content) = rec.span("imagestore.hash.content", || {
        for _ in 0..ROUNDS {
            std::hint::black_box(ContentHash::of(std::hint::black_box(&bytes)));
        }
    });
    let ((), crc) = rec.span("imagestore.hash.crc32", || {
        for _ in 0..ROUNDS {
            std::hint::black_box(crac_imagestore::hash::crc32(std::hint::black_box(&bytes)));
        }
    });
    let total = ROUNDS * CHUNK as u64;
    (mbps(total, content), mbps(total, crc))
}

/// `imagestore.net`: `Frame::put_chunk_wire` of a 64 KiB payload, and
/// `read_frame` of the result from a slice.  MB/s each.
pub fn probe_frames(rec: &Recorder) -> Res<(f64, f64)> {
    const ROUNDS: u64 = 256;
    let bytes = chunk_sized_bytes();
    let hash = ContentHash::of(&bytes);
    let ((), encode) = rec.span("imagestore.net.frame_encode", || {
        for _ in 0..ROUNDS {
            std::hint::black_box(Frame::put_chunk_wire(hash, std::hint::black_box(&bytes)));
        }
    });
    let wire = Frame::put_chunk_wire(hash, &bytes);
    let (r, decode) = rec.span("imagestore.net.frame_decode", || {
        (0..ROUNDS).try_for_each(|_| {
            read_frame(&mut wire.as_slice()).map(|f| drop(std::hint::black_box(f)))
        })
    });
    r.map_err(es)?;
    let total = ROUNDS * CHUNK as u64;
    Ok((mbps(total, encode), mbps(total, decode)))
}

pub struct NetProbe {
    pub put_chunk_us: f64,
    pub get_chunk_us: f64,
    pub has_chunks_us: f64,
    pub connect_ms: f64,
}

/// `imagestore.net`: serial round-trips on one connection to a scratch
/// server — `put_chunk` and `get_chunk` of 64 KiB chunks, `has_chunks` of
/// 512 hashes, and dial + authenticate.  `dir` holds the two scratch
/// stores.
pub fn probe_net(rec: &Recorder, dir: &Path) -> Res<NetProbe> {
    const CHUNKS: u64 = 128;
    const DIALS: u64 = 32;
    const QUERIES: u64 = 32;
    // Real chunk files to ship: write one synthetic region into a source
    // store and take the verbatim files back out through the transport API.
    let src_dir: PathBuf = dir.join("src");
    let src = ImageStore::open(&src_dir).map_err(es)?;
    src.stream_image(&WriteOptions::full(), |w| {
        use crac_imagestore::ChunkSink;
        let pages = CHUNKS * (CHUNK as u64 / PAGE_SIZE);
        w.begin_region(&RegionDescriptor {
            start: Addr(0x4000_0000_0000),
            len: pages * PAGE_SIZE,
            prot: crac_addrspace::Prot::RW,
            label: "probe-net".to_string(),
        })?;
        let mut chunk = chunk_sized_bytes();
        for c in 0..CHUNKS {
            chunk[..8].copy_from_slice(&c.to_le_bytes());
            let per = CHUNK as u64 / PAGE_SIZE;
            w.push_run(
                PageRun {
                    first: c * per,
                    count: per,
                },
                &chunk,
            )?;
        }
        w.end_region()
    })
    .map_err(es)?;
    let loopback = LoopbackTransport::new(&src);
    let mut files = Vec::new();
    for entry in std::fs::read_dir(src_dir.join("chunks")).map_err(es)? {
        let name = entry.map_err(es)?.file_name();
        let stem = name.to_string_lossy();
        if let Some(hash) = stem.strip_suffix(".chk").and_then(ContentHash::from_hex) {
            files.push((hash, loopback.get_chunk(hash).map_err(es)?));
        }
    }
    if files.is_empty() {
        return Err("scratch store wrote no chunk files".to_string());
    }

    let peer = Peer::start(&dir.join("dst"))?;
    let wire = &peer.wire;
    let (r, put) = rec.span("imagestore.net.put_chunk", || {
        files
            .iter()
            .try_for_each(|(hash, bytes)| wire.put_chunk(*hash, bytes))
    });
    r.map_err(es)?;
    let (r, get) = rec.span("imagestore.net.get_chunk", || {
        files
            .iter()
            .try_for_each(|(hash, _)| wire.get_chunk(*hash).map(|b| drop(std::hint::black_box(b))))
    });
    r.map_err(es)?;
    let hashes: Vec<ContentHash> = (0..512u128).map(ContentHash).collect();
    let (r, has) = rec.span("imagestore.net.has_chunks", || {
        (0..QUERIES).try_for_each(|_| wire.has_chunks(&hashes).map(drop))
    });
    r.map_err(es)?;
    let addr = wire.peer_addr();
    let (r, dial) = rec.span("imagestore.net.connect", || {
        (0..DIALS).try_for_each(|_| TcpTransport::connect(addr, SECRET).map(drop))
    });
    r.map_err(es)?;
    let n = files.len() as u64;
    Ok(NetProbe {
        put_chunk_us: per_call_ns(put, n) / 1e3,
        get_chunk_us: per_call_ns(get, n) / 1e3,
        has_chunks_us: per_call_ns(has, QUERIES) / 1e3,
        connect_ms: per_call_ns(dial, DIALS) / 1e6,
    })
}

/// `obs` and `sync`: one span enter/finish, one uncontended lock/unlock.
/// Nanoseconds each.
pub fn probe_obs_sync(rec: &Recorder) -> (f64, f64) {
    const CALLS: u64 = 1_000_000;
    let hist = ObsRegistry::new().histogram("probe_us", Buckets::LATENCY_US);
    let ((), span) = rec.span("obs.span", || {
        for _ in 0..CALLS {
            Span::enter(&hist).finish();
        }
    });
    let lock = crac_sync::Mutex::new("perf.probe", 0u64);
    let ((), locked) = rec.span("sync.lock", || {
        for _ in 0..CALLS {
            *lock.lock() += 1;
        }
    });
    (per_call_ns(span, CALLS), per_call_ns(locked, CALLS))
}
