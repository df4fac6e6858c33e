//! The CRAC-managed process: launch, run, checkpoint, restart.

use std::sync::Arc;

use crac_sync::Mutex;

use crac_addrspace::{page_align_up, Addr, Half, MemError, SharedSpace};
use crac_cudart::{CudaError, CudaRuntime, MemcpyKind};
use crac_dmtcp::{CheckpointImage, Coordinator, DmtcpPlugin, PrecopyConfig, PrecopyStats};
use crac_gpu::clock::ns_to_s;
use crac_gpu::{KernelCost, LaunchDims, UvmStats, VirtualClock};
use crac_imagestore::{
    checkpoint_to, restore, CkptTarget, Compression, ImageId, ImageSource, ImageStore, Landed,
    LazyRestoreStats, ReadStats, ReplicateStats, StoreError, StreamReader, Transport, WriteOptions,
    WriteStats,
};
use crac_splitproc::loader::{load_program, ProgramSpec};
use crac_splitproc::{HostHeap, LowerHalf};

use crate::config::CracConfig;
use crate::interpose::{
    CracEvent, CracFatBinary, CracKernel, CracState, CracStream, KernelRegistry,
};
use crate::log::LoggedCall;
use crate::plugin::{CracPayload, CracPlugin};
use crate::replay::replay_log;

/// Errors surfaced by the CRAC layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CracError {
    /// Replay produced a different address (or virtual handle) than the
    /// original execution — the determinism assumption (same GPU/CUDA
    /// platform, ASLR disabled) was violated.
    ReplayMismatch {
        /// Index of the offending call in the log.
        call_index: usize,
        /// Value recorded by the original execution.
        expected: u64,
        /// Value produced by the replay.
        got: u64,
    },
    /// A CUDA runtime error.
    Cuda(String),
    /// A simulated-memory error.
    Mem(String),
    /// An application-visible virtual handle was unknown.
    InvalidHandle(&'static str),
    /// The checkpoint image did not contain a (valid) CRAC payload, or the
    /// payload's staging table does not fit the state its log replays to.
    BadImage,
    /// The persistent image store failed (I/O error or corruption detected
    /// by its integrity checks).
    Store(String),
}

impl std::fmt::Display for CracError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CracError::ReplayMismatch {
                call_index,
                expected,
                got,
            } => write!(
                f,
                "replay mismatch at log entry {call_index}: expected 0x{expected:x}, got 0x{got:x}"
            ),
            CracError::Cuda(e) => write!(f, "CUDA error: {e}"),
            CracError::Mem(e) => write!(f, "memory error: {e}"),
            CracError::InvalidHandle(w) => write!(f, "invalid handle: {w}"),
            CracError::BadImage => write!(f, "checkpoint image has no valid CRAC payload"),
            CracError::Store(e) => write!(f, "image store error: {e}"),
        }
    }
}

impl std::error::Error for CracError {}

impl From<CudaError> for CracError {
    fn from(e: CudaError) -> Self {
        CracError::Cuda(e.to_string())
    }
}

impl From<MemError> for CracError {
    fn from(e: MemError) -> Self {
        CracError::Mem(e.to_string())
    }
}

impl From<StoreError> for CracError {
    fn from(e: StoreError) -> Self {
        CracError::Store(e.to_string())
    }
}

/// Result of [`CracProcess::checkpoint`].
#[derive(Clone, Debug)]
pub struct CkptReport {
    /// The checkpoint image (hand it to [`CracProcess::restart`]).
    pub image: CheckpointImage,
    /// Checkpoint time in seconds of virtual time (drain + image write).
    pub ckpt_time_s: f64,
    /// Logical image size in bytes.
    pub image_bytes: u64,
    /// Bytes of device/managed allocations drained into the image.
    pub drained_bytes: u64,
    /// Merged maps entries saved.
    pub regions_saved: usize,
    /// Merged maps entries excluded (lower half).
    pub regions_skipped: usize,
}

/// Result of [`CracProcess::checkpoint_to_store`]: how the checkpoint went
/// and where and how the image landed on disk.
///
/// Unlike [`CkptReport`] there is **no** `image` field: the disk path
/// streams regions straight into the store's writer pipeline, so the full
/// `CheckpointImage` is never materialised.  The memory cost that replaces
/// it is [`StoredCkptReport::peak_buffered_bytes`] — bounded by the
/// pipeline's queue depths (`crac_imagestore::stream_buffer_bound`), not by
/// the image size.
#[derive(Clone, Debug)]
pub struct StoredCkptReport {
    /// Id of the stored image.
    pub image_id: ImageId,
    /// Whether this checkpoint was stored incrementally on a parent.
    pub parent: Option<ImageId>,
    /// Checkpoint time in seconds of virtual time (drain + image write).
    pub ckpt_time_s: f64,
    /// Logical image size in bytes.
    pub image_bytes: u64,
    /// Bytes of device/managed allocations drained into the image.
    pub drained_bytes: u64,
    /// Merged maps entries saved.
    pub regions_saved: usize,
    /// Merged maps entries excluded (lower half).
    pub regions_skipped: usize,
    /// Store-side write statistics (dedup, bytes written,
    /// pipeline buffering).
    pub write: WriteStats,
}

impl StoredCkptReport {
    /// Peak payload bytes buffered in this process while the checkpoint
    /// streamed to disk — the streaming path's stand-in for the peak-RSS
    /// delta the old materialise-then-write path paid (which was the whole
    /// image, [`StoredCkptReport::image_bytes`]).
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.write.peak_buffered_bytes
    }
}

/// Result of [`CracProcess::checkpoint_to_remote`]: how the checkpoint
/// went and what crossed the transport.
///
/// Like [`StoredCkptReport`] there is no `image` field — the checkpoint
/// streamed straight to the peer without ever materialising; and unlike
/// it there is no local store at all: [`RemoteCkptReport::replicate`]
/// accounts what actually travelled (the dedup negotiation's savings
/// included).
#[derive(Clone, Debug)]
pub struct RemoteCkptReport {
    /// Id the *peer* assigned to the stored image (peer ids and local
    /// store ids are unrelated namespaces).
    pub image_id: ImageId,
    /// Checkpoint time in seconds of virtual time (drain + image write).
    pub ckpt_time_s: f64,
    /// Logical image size in bytes.
    pub image_bytes: u64,
    /// Bytes of device/managed allocations drained into the image.
    pub drained_bytes: u64,
    /// Merged maps entries saved.
    pub regions_saved: usize,
    /// Merged maps entries excluded (lower half).
    pub regions_skipped: usize,
    /// Transport-side shipping statistics (dedup, bytes shipped, retries).
    pub replicate: ReplicateStats,
}

/// What the one checkpoint body hands its shells: everything either report
/// type is cut from.
struct CkptDone {
    image_id: ImageId,
    parent: Option<ImageId>,
    ckpt_time_s: f64,
    drained_bytes: u64,
    precopy: PrecopyStats,
    landed: Landed,
}

impl CkptDone {
    fn stored(self) -> (StoredCkptReport, PrecopyStats) {
        let stats = self.precopy.ckpt;
        let report = StoredCkptReport {
            image_id: self.image_id,
            parent: self.parent,
            ckpt_time_s: self.ckpt_time_s,
            image_bytes: stats.image_bytes,
            drained_bytes: self.drained_bytes,
            regions_saved: stats.regions_saved,
            regions_skipped: stats.regions_skipped,
            write: self.landed.write,
        };
        (report, self.precopy)
    }

    fn remote(self) -> (RemoteCkptReport, PrecopyStats) {
        let stats = self.precopy.ckpt;
        let report = RemoteCkptReport {
            image_id: self.image_id,
            ckpt_time_s: self.ckpt_time_s,
            image_bytes: stats.image_bytes,
            drained_bytes: self.drained_bytes,
            regions_saved: stats.regions_saved,
            regions_skipped: stats.regions_skipped,
            replicate: self.landed.replicate,
        };
        (report, self.precopy)
    }
}

/// Result of [`CracProcess::restart`].
#[derive(Clone, Copy, Debug)]
pub struct RestartReport {
    /// Restart time in seconds of virtual time (image read + replay +
    /// refill).
    pub restart_time_s: f64,
    /// Log entries replayed against the fresh runtime.
    pub replayed_calls: usize,
    /// Bytes copied back into device/managed allocations.
    pub refilled_bytes: u64,
}

/// A simulated process running a CUDA application under CRAC.
///
/// The methods mirror the CUDA runtime API; each call crosses into the
/// lower half through the trampoline table (paying the fs-register switch
/// plus CRAC's logging overhead).  A call of the replay set is one
/// [`CracState::apply`] step taken under the state lock — call and log entry
/// together, so the log's order is the library's execution order however
/// many host threads share the process; every other call takes the lock
/// only to translate its virtual handles.
pub struct CracProcess {
    config: CracConfig,
    space: SharedSpace,
    lower: LowerHalf,
    heap: HostHeap,
    registry: Arc<KernelRegistry>,
    state: Arc<Mutex<CracState>>,
    coordinator: Coordinator,
    /// The most recent checkpoint this process wrote: which store (by root
    /// path) and which image.  Used as the implicit parent for the next
    /// incremental checkpoint — but only into the *same* store, since image
    /// ids carry no meaning across stores.
    last_stored_image: Mutex<Option<(std::path::PathBuf, ImageId)>>,
}

impl CracProcess {
    /// Launches an application under CRAC (the `dmtcp_launch` moment).
    pub fn launch(config: CracConfig, registry: Arc<KernelRegistry>) -> Self {
        // CRAC disables address-space randomisation so that replay is
        // deterministic.
        let space = SharedSpace::new_no_aslr();
        let lower = LowerHalf::boot(&space, config.runtime.clone(), None, config.fs_mode);
        lower
            .trampolines()
            .set_extra_crossing_cost(config.log_overhead_ns);
        // Starting under DMTCP costs a fixed amount once.
        lower
            .runtime()
            .device()
            .clock()
            .advance(config.dmtcp_startup_ns);

        // Load the application into the upper half.
        load_program(
            &space,
            &ProgramSpec::cuda_application(&config.app_name),
            Half::Upper,
        );
        let coordinator = Coordinator::new(space.clone(), config.ckpt.clone());
        Self::assemble(
            config,
            registry,
            space,
            lower,
            coordinator,
            CracState::default(),
        )
    }

    /// Builds the process object around a booted lower half: `state` — empty
    /// at launch, what the log replayed to at restart — is shared with the
    /// CRAC plugin, which joins `coordinator`.
    fn assemble(
        config: CracConfig,
        registry: Arc<KernelRegistry>,
        space: SharedSpace,
        lower: LowerHalf,
        mut coordinator: Coordinator,
        state: CracState,
    ) -> Self {
        let state = Arc::new(Mutex::new("core.process.state", state));
        coordinator.register_plugin(Arc::new(CracPlugin::new(
            Arc::clone(lower.runtime()),
            space.clone(),
            Arc::clone(&state),
        )));
        Self {
            heap: HostHeap::new(space.clone(), 4 << 20),
            config,
            space,
            lower,
            registry,
            state,
            coordinator,
            last_stored_image: Mutex::new("core.process.last_stored_image", None),
        }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The process's (single) address space.
    pub fn space(&self) -> &SharedSpace {
        &self.space
    }

    /// Register an application-side DMTCP plugin on this process's
    /// coordinator. The main use with pre-copy checkpointing is a
    /// quiesce hook: `pre_checkpoint` runs at the start of the final
    /// stop-the-world pass, so an application can pause its writer
    /// threads there and have the image capture a clean cut of memory.
    pub fn register_plugin(&mut self, plugin: Arc<dyn DmtcpPlugin>) {
        self.coordinator.register_plugin(plugin);
    }

    /// A second handle on this process's CRAC plugin state, for driving its
    /// hooks outside a checkpoint.
    #[cfg(test)]
    pub(crate) fn crac_plugin(&self) -> CracPlugin {
        CracPlugin::new(
            Arc::clone(self.lower.runtime()),
            self.space.clone(),
            Arc::clone(&self.state),
        )
    }

    /// The lower-half CUDA runtime (read-only uses such as metrics; the
    /// application itself should go through the interposed methods).
    pub fn runtime(&self) -> &Arc<CudaRuntime> {
        self.lower.runtime()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        self.lower.runtime().device().clock()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock().now()
    }

    /// Current virtual time in seconds.
    pub fn elapsed_s(&self) -> f64 {
        ns_to_s(self.now_ns())
    }

    /// The configuration the process was launched with.
    pub fn config(&self) -> &CracConfig {
        &self.config
    }

    /// Number of upper→lower crossings made so far.
    pub fn crossings(&self) -> u64 {
        self.lower.trampolines().crossings()
    }

    /// The process-wide observability registry (the coordinator's): every
    /// checkpoint, restore and replication this process performs records
    /// its metrics and events here, so one
    /// [`render_text`](crac_obs::ObsRegistry::render_text) scrape covers
    /// the whole flow.
    pub fn obs(&self) -> crac_obs::ObsRegistry {
        self.coordinator.obs()
    }

    /// `nvprof`-style CUDA API call counters of the current lower half.
    pub fn counters(&self) -> crac_cudart::CallCounters {
        self.lower.runtime().counters()
    }

    /// UVM fault/migration counters.
    pub fn uvm_stats(&self) -> UvmStats {
        self.lower.runtime().device().uvm_stats()
    }

    /// The interposition state (log, active mallocs, virtual handles),
    /// locked: interposed calls wait while the guard lives.
    pub fn state(&self) -> impl std::ops::Deref<Target = CracState> + '_ {
        self.state.lock()
    }

    /// Number of live (not destroyed) virtual streams.
    pub fn live_streams(&self) -> usize {
        self.state.lock().handles.streams.len()
    }

    /// Allocates ordinary host memory on the application's upper-half heap.
    pub fn heap_alloc(&self, bytes: u64) -> Result<Addr, CracError> {
        Ok(self.heap.alloc(bytes)?)
    }

    fn stream_of(&self, s: CracStream) -> Result<crac_gpu::StreamId, CracError> {
        self.state.lock().handles.stream(s)
    }

    fn event_of(&self, e: CracEvent) -> Result<crac_gpu::EventId, CracError> {
        self.state.lock().handles.event(e)
    }

    /// Crosses into the lower half for one call outside the replay set.
    fn cross<R>(
        &self,
        call: impl FnOnce(&CudaRuntime) -> Result<R, CudaError>,
    ) -> Result<R, CracError> {
        let rt = self.lower.runtime();
        Ok(self.lower.trampolines().call(|| call(rt))?)
    }

    /// Takes one step of the replay set: executes `call` and logs it, both
    /// under the state lock.  Returns what the application receives.
    fn logged(&self, call: LoggedCall) -> Result<u64, CracError> {
        let (rt, trampolines) = (self.lower.runtime(), self.lower.trampolines());
        let mut st = self.state.lock();
        st.apply(call, rt, trampolines, &self.registry, false)
    }

    // ---------------------------------------------------------------------
    // Interposed CUDA API: memory
    // ---------------------------------------------------------------------

    /// `cudaMalloc` (interposed and logged).
    pub fn malloc(&self, size: u64) -> Result<Addr, CracError> {
        self.logged(LoggedCall::Malloc { size, ptr: 0 }).map(Addr)
    }

    /// `cudaMallocHost` (interposed and logged).
    pub fn malloc_host(&self, size: u64) -> Result<Addr, CracError> {
        self.logged(LoggedCall::MallocHost { size, ptr: 0 })
            .map(Addr)
    }

    /// `cudaMallocManaged` (interposed and logged).
    pub fn malloc_managed(&self, size: u64) -> Result<Addr, CracError> {
        self.logged(LoggedCall::MallocManaged { size, ptr: 0 })
            .map(Addr)
    }

    /// `cudaFree` (interposed and logged).
    pub fn free(&self, ptr: Addr) -> Result<(), CracError> {
        self.logged(LoggedCall::Free { ptr: ptr.as_u64() })
            .map(drop)
    }

    /// `cudaMemcpy` (interposed; not logged — data, not CUDA state).
    pub fn memcpy(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: MemcpyKind,
    ) -> Result<(), CracError> {
        self.cross(|rt| rt.memcpy(dst, src, bytes, kind))
    }

    /// `cudaMemcpyAsync` (interposed).
    pub fn memcpy_async(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: MemcpyKind,
        stream: CracStream,
    ) -> Result<(), CracError> {
        let s = self.stream_of(stream)?;
        self.cross(|rt| rt.memcpy_async(dst, src, bytes, kind, s))
    }

    /// `cudaMemset` (interposed).
    pub fn memset(&self, ptr: Addr, value: u8, bytes: u64) -> Result<(), CracError> {
        self.cross(|rt| rt.memset(ptr, value, bytes))
    }

    /// `cudaMemPrefetchAsync` (interposed).
    pub fn mem_prefetch_async(
        &self,
        ptr: Addr,
        bytes: u64,
        to_device: bool,
        stream: CracStream,
    ) -> Result<(), CracError> {
        let s = self.stream_of(stream)?;
        self.cross(|rt| rt.mem_prefetch_async(ptr, bytes, to_device, s))
    }

    /// Host-side dereference of managed memory (not an API call; no
    /// trampoline crossing — UVM hardware handles it, which is exactly why
    /// proxy-based checkpointers struggle with it).
    pub fn host_touch_managed(&self, ptr: Addr, bytes: u64) {
        self.lower.runtime().host_touch_managed(ptr, bytes);
    }

    // ---------------------------------------------------------------------
    // Interposed CUDA API: streams, events, synchronisation
    // ---------------------------------------------------------------------

    /// `cudaStreamCreate` (interposed and logged).
    pub fn stream_create(&self) -> Result<CracStream, CracError> {
        self.logged(LoggedCall::StreamCreate { vstream: 0 })
            .map(CracStream)
    }

    /// `cudaStreamDestroy` (interposed and logged).
    pub fn stream_destroy(&self, stream: CracStream) -> Result<(), CracError> {
        self.logged(LoggedCall::StreamDestroy { vstream: stream.0 })
            .map(drop)
    }

    /// `cudaStreamSynchronize` (interposed).
    pub fn stream_synchronize(&self, stream: CracStream) -> Result<(), CracError> {
        let s = self.stream_of(stream)?;
        self.cross(|rt| rt.stream_synchronize(s))
    }

    /// `cudaStreamWaitEvent` (interposed).
    pub fn stream_wait_event(&self, stream: CracStream, event: CracEvent) -> Result<(), CracError> {
        let s = self.stream_of(stream)?;
        let e = self.event_of(event)?;
        self.cross(|rt| rt.stream_wait_event(s, e))
    }

    /// `cudaEventCreate` (interposed and logged).
    pub fn event_create(&self) -> Result<CracEvent, CracError> {
        self.logged(LoggedCall::EventCreate { vevent: 0 })
            .map(CracEvent)
    }

    /// `cudaEventDestroy` (interposed and logged).
    pub fn event_destroy(&self, event: CracEvent) -> Result<(), CracError> {
        self.logged(LoggedCall::EventDestroy { vevent: event.0 })
            .map(drop)
    }

    /// `cudaEventRecord` (interposed).
    pub fn event_record(&self, event: CracEvent, stream: CracStream) -> Result<(), CracError> {
        let e = self.event_of(event)?;
        let s = self.stream_of(stream)?;
        self.cross(|rt| rt.event_record(e, s))
    }

    /// `cudaEventSynchronize` (interposed).
    pub fn event_synchronize(&self, event: CracEvent) -> Result<(), CracError> {
        let e = self.event_of(event)?;
        self.cross(|rt| rt.event_synchronize(e))
    }

    /// `cudaEventElapsedTime` in milliseconds (interposed).
    pub fn event_elapsed_ms(&self, start: CracEvent, end: CracEvent) -> Result<f64, CracError> {
        let s = self.event_of(start)?;
        let e = self.event_of(end)?;
        self.cross(|rt| rt.event_elapsed_ms(s, e))
    }

    /// `cudaDeviceSynchronize` (interposed).
    pub fn device_synchronize(&self) -> Result<(), CracError> {
        self.cross(|rt| rt.device_synchronize())
    }

    // ---------------------------------------------------------------------
    // Interposed CUDA API: fat binaries and kernel launch
    // ---------------------------------------------------------------------

    /// `__cudaRegisterFatBinary` (interposed and logged).
    pub fn register_fat_binary(&self) -> CracFatBinary {
        let call = LoggedCall::RegisterFatBinary { vfatbin: 0 };
        // The library's registration cannot fail, so neither does the step;
        // 0 is no fat binary's handle.
        CracFatBinary(self.logged(call).unwrap_or(0))
    }

    /// `__cudaRegisterFunction` (interposed and logged).  The kernel body is
    /// looked up in the process's [`KernelRegistry`] by name.
    pub fn register_function(
        &self,
        fatbin: CracFatBinary,
        name: &str,
    ) -> Result<CracKernel, CracError> {
        let call = LoggedCall::RegisterFunction {
            vfatbin: fatbin.0,
            vfunction: 0,
            name: name.to_string(),
        };
        self.logged(call).map(CracKernel)
    }

    /// `__cudaUnregisterFatBinary` (interposed and logged).  The fat
    /// binary's kernels go with it: their handles are invalid from here on,
    /// before a restart and after.
    pub fn unregister_fat_binary(&self, fatbin: CracFatBinary) -> Result<(), CracError> {
        self.logged(LoggedCall::UnregisterFatBinary { vfatbin: fatbin.0 })
            .map(drop)
    }

    /// `cudaLaunchKernel` (interposed; not logged — kernels are re-launched
    /// by the application itself after restart, not replayed by CRAC).
    pub fn launch_kernel(
        &self,
        kernel: CracKernel,
        dims: LaunchDims,
        cost: KernelCost,
        args: Vec<u64>,
        stream: CracStream,
    ) -> Result<(), CracError> {
        let s = self.stream_of(stream)?;
        let handle = self.state.lock().handles.kernel(kernel)?;
        self.cross(|rt| rt.launch_kernel(handle, dims, cost, args, s))
    }

    // ---------------------------------------------------------------------
    // Checkpoint and restart
    // ---------------------------------------------------------------------

    /// Takes a checkpoint: drains the GPU, stages device state, writes the
    /// image (upper half only), and resumes.
    pub fn checkpoint(&self) -> CkptReport {
        let clock = Arc::clone(self.clock());
        let t0 = clock.now();
        let drained_bytes = self.state.lock().mallocs.drain_bytes();
        let (mut image, stats) = self.coordinator.checkpoint(clock.now());
        clock.advance(stats.write_ns);
        // Stamp the image with the time the checkpoint *completed*, so a
        // restarted process resumes virtual time from there.
        image.taken_at_ns = clock.now();
        CkptReport {
            image,
            ckpt_time_s: ns_to_s(clock.now() - t0),
            image_bytes: stats.image_bytes,
            drained_bytes,
            regions_saved: stats.regions_saved,
            regions_skipped: stats.regions_skipped,
        }
    }

    /// Takes a checkpoint and persists it into `store`, streaming regions
    /// straight into the store's writer pipeline — the full
    /// `CheckpointImage` is never materialised, so peak memory during the
    /// checkpoint is bounded by the pipeline's queues instead of the image
    /// size (see [`StoredCkptReport::peak_buffered_bytes`]).
    ///
    /// When `opts.parent` is `None`, the process's previous checkpoint into
    /// *this same store* (if any) is used as the parent automatically, so
    /// repeated calls produce an incremental chain: unchanged chunks are
    /// deduplicated against everything already in the store and only the
    /// pages dirtied since the last checkpoint cost write I/O.  Writing to
    /// a different store starts a fresh (full) chain — ids from one store
    /// mean nothing in another.  Use [`CracProcess::clear_stored_parent`]
    /// to force the next checkpoint to record no parent.
    pub fn checkpoint_to_store(
        &self,
        store: &ImageStore,
        opts: WriteOptions,
    ) -> Result<StoredCkptReport, CracError> {
        Ok(self
            .checkpoint_to(CkptTarget::Store(store, opts), None)?
            .stored()
            .0)
    }

    /// Pre-copy variant of [`CracProcess::checkpoint_to_store`]: bulk
    /// content and iterative delta rounds stream into the store while the
    /// application keeps executing, and the process is stopped only for
    /// the final residual dirty delta — the stop window scales with the
    /// write rate, not the image size.  Auto-parenting behaves exactly as
    /// in [`CracProcess::checkpoint_to_store`].  Returns the usual stored
    /// report plus the per-round [`PrecopyStats`] (rounds, bytes per
    /// round, stop-window duration, convergence).
    pub fn checkpoint_to_store_precopy(
        &self,
        store: &ImageStore,
        opts: WriteOptions,
        cfg: PrecopyConfig,
    ) -> Result<(StoredCkptReport, PrecopyStats), CracError> {
        Ok(self
            .checkpoint_to(CkptTarget::Store(store, opts), Some(&cfg))?
            .stored())
    }

    /// Forgets the stored-checkpoint lineage: the next
    /// [`CracProcess::checkpoint_to_store`] with `parent: None` records no
    /// parent (chunk-level dedup against the store still applies).
    pub fn clear_stored_parent(&self) {
        *self.last_stored_image.lock() = None;
    }

    /// Takes a checkpoint and streams it straight to the remote peer
    /// behind `transport` — no local store involved.  Chunks are hashed
    /// locally and negotiated in batches (`has_chunks`), so only content
    /// the peer is missing crosses the transport; the manifest is
    /// published last, under an id the peer assigns.  `parent` is the
    /// peer-side lineage to record, if any (dedup applies either way).
    ///
    /// This is the live-migration write path: checkpoint on node A,
    /// restart on node B via [`CracProcess::restart_from_remote`], with
    /// nothing but the transport between them — over a real socket with
    /// `crac_imagestore::net::TcpTransport` (pooled, authenticated
    /// localhost/TCP connections), or in-process with
    /// `LoopbackTransport`; this method cannot tell the difference.
    /// `_compression` has one value, [`Compression::None`]: chunks ship raw.
    pub fn checkpoint_to_remote(
        &self,
        transport: &dyn Transport,
        _compression: Compression,
        parent: Option<ImageId>,
    ) -> Result<RemoteCkptReport, CracError> {
        let target = CkptTarget::Peer { transport, parent };
        Ok(self.checkpoint_to(target, None)?.remote().0)
    }

    /// Pre-copy variant of [`CracProcess::checkpoint_to_remote`]: delta
    /// rounds ship to the peer while the application keeps running, and
    /// the final stop window covers only the residual dirty delta — the
    /// live-migration shape, where node B already holds almost the whole
    /// image by the time node A stops.
    pub fn checkpoint_to_remote_precopy(
        &self,
        transport: &dyn Transport,
        parent: Option<ImageId>,
        cfg: PrecopyConfig,
    ) -> Result<(RemoteCkptReport, PrecopyStats), CracError> {
        let target = CkptTarget::Peer { transport, parent };
        Ok(self.checkpoint_to(target, Some(&cfg))?.remote())
    }

    /// The one checkpoint body behind every `checkpoint_to_*` shell:
    /// `target` says where the image lands, `precopy` how the walk runs.
    fn checkpoint_to(
        &self,
        mut target: CkptTarget<'_>,
        precopy: Option<&PrecopyConfig>,
    ) -> Result<CkptDone, CracError> {
        // A store checkpoint without an explicit parent chains onto this
        // process's previous image in the *same* store.
        let mut parent = None;
        if let CkptTarget::Store(store, opts) = &mut target {
            if opts.parent.is_none() {
                if let Some((root, id)) = self.last_stored_image.lock().as_ref() {
                    if root == store.root() {
                        opts.parent = Some(*id);
                    }
                }
            }
            parent = opts.parent;
        }
        let clock = Arc::clone(self.clock());
        let t0 = clock.now();
        let drained_bytes = self.state.lock().mallocs.drain_bytes();
        // The sink pipelines record into the process's own registry (the
        // coordinator's), so this checkpoint shows up in `self.obs()`.
        let (image_id, precopy, landed) =
            checkpoint_to(&self.coordinator, target, precopy, |stats| {
                // Model the image-write time and stamp the manifest with
                // the time the checkpoint *completed*, so a restarted
                // process resumes virtual time from there.
                clock.advance(stats.write_ns);
                clock.now()
            })?;
        if let CkptTarget::Store(store, _) = target {
            *self.last_stored_image.lock() = Some((store.root().to_path_buf(), image_id));
        }
        Ok(CkptDone {
            image_id,
            parent,
            ckpt_time_s: ns_to_s(clock.now() - t0),
            drained_bytes,
            precopy,
            landed,
        })
    }

    /// Restarts an application from remote image `id` served by
    /// `transport`, in a brand-new simulated process — the cross-node
    /// mirror of [`CracProcess::restart_from_store`]: verified chunks are
    /// fetched in parallel (with bounded retry on transient transport
    /// faults) and spliced into the fresh address space as they arrive,
    /// never materialising a `CheckpointImage`; peak memory stays bounded
    /// by the reader pipeline's queues
    /// (`crac_imagestore::restore_buffer_bound`).  Corruption anywhere —
    /// a torn chunk, a lying peer — surfaces as [`CracError::Store`].
    pub fn restart_from_remote(
        transport: &dyn Transport,
        id: ImageId,
        config: CracConfig,
        registry: Arc<KernelRegistry>,
    ) -> Result<(Self, RestartReport, ReadStats), CracError> {
        let source = ImageSource::Peer(transport);
        let (proc, report, read, _, ()) =
            Self::restore_from(source, id, config, registry, false, |_| Ok(()))?;
        Ok((proc, report, read))
    }

    /// Restarts an application from image `id` of `store` in a brand-new
    /// simulated process, streaming end to end: verified chunks are
    /// spliced into the fresh address space **as they arrive** from the
    /// store's parallel reader — no `CheckpointImage` is ever
    /// materialised, so peak memory during the restore is bounded by the
    /// reader pipeline's queues (`crac_imagestore::restore_buffer_bound`,
    /// reported by [`ReadStats::peak_buffered_bytes`]) instead of the
    /// image size.  The image is integrity-checked (CRC + content hashes)
    /// while being read; any corruption surfaces as [`CracError::Store`].
    /// The restored process chains its next incremental checkpoint off the
    /// image it came from.
    pub fn restart_from_store(
        store: &ImageStore,
        id: ImageId,
        config: CracConfig,
        registry: Arc<KernelRegistry>,
    ) -> Result<(Self, RestartReport, ReadStats), CracError> {
        let source = ImageSource::Store(store);
        let (proc, report, read, _, ()) =
            Self::restore_from(source, id, config, registry, false, |_| Ok(()))?;
        Ok((proc, report, read))
    }

    /// Lazy (demand-paging) variant of [`CracProcess::restart_from_store`]:
    /// the process resumes in **O(metadata)** — regions are mapped, their
    /// pages declared absent, and the restored application starts running
    /// before a single page byte has been read.  First touches of absent
    /// pages fault their chunks in at priority while a background sweep
    /// prefetches the rest, so the restore still completes even if `run`
    /// never touches most of the image.
    ///
    /// Because the fault-service crew borrows the restored process, the
    /// lazy phase is scoped: `run` executes the application's first
    /// dealings with the process (the part whose latency lazy restore
    /// shrinks), then the call drains the remaining prefetch, uninstalls
    /// the fault handler and returns the fully resident process alongside
    /// `run`'s output.  `ReadStats::resume_us` / `LazyRestoreStats` carry
    /// the headline declare→resume latency and the fault/prefetch split.
    pub fn restart_from_store_lazy<T>(
        store: &ImageStore,
        id: ImageId,
        config: CracConfig,
        registry: Arc<KernelRegistry>,
        run: impl FnOnce(&Self) -> Result<T, CracError>,
    ) -> Result<(Self, RestartReport, ReadStats, LazyRestoreStats, T), CracError> {
        Self::restore_from(ImageSource::Store(store), id, config, registry, true, run)
    }

    /// Cross-node twin of [`CracProcess::restart_from_store_lazy`]: the
    /// same demand-paging restore fed over `transport` — faulted chunks
    /// ride the transport's priority lane
    /// (`Transport::get_chunk_priority`) past the prefetch sweep's
    /// saturated connections, with the same bounded transient-fault retry
    /// as the eager remote restore.
    pub fn restart_from_remote_lazy<T>(
        transport: &dyn Transport,
        id: ImageId,
        config: CracConfig,
        registry: Arc<KernelRegistry>,
        run: impl FnOnce(&Self) -> Result<T, CracError>,
    ) -> Result<(Self, RestartReport, ReadStats, LazyRestoreStats, T), CracError> {
        Self::restore_from(
            ImageSource::Peer(transport),
            id,
            config,
            registry,
            true,
            run,
        )
    }

    /// The one restore body behind every `restart_from_*` shell: `source`
    /// says where the image comes from, `lazy` whether `run` — the
    /// application's first dealings with the restarted process — starts
    /// when every page is resident or right after the metadata-only
    /// declaration, racing the prefetch sweep.
    fn restore_from<T>(
        source: ImageSource<'_>,
        id: ImageId,
        config: CracConfig,
        registry: Arc<KernelRegistry>,
        lazy: bool,
        run: impl FnOnce(&Self) -> Result<T, CracError>,
    ) -> Result<(Self, RestartReport, ReadStats, LazyRestoreStats, T), CracError> {
        // The registry comes first — the process does not exist yet: the
        // reader records fetches/retries into it, and `restart_with` hands
        // it to the rebuilt process's coordinator.
        let obs = crac_obs::ObsRegistry::new();
        let reader = StreamReader::open(source, id, obs.clone())?;
        let taken_at_ns = reader.taken_at_ns();
        // The CRAC payload is inline manifest data — kilobytes of CUDA
        // log, available without fetching a single chunk.
        let crac_payload = reader.payload("crac").map(<[u8]>::to_vec);
        let ((proc, report, out), read_stats, lazy_stats) = restore(reader, lazy, |install| {
            // The payload replay and staging refill inside `restart_with`
            // already first-touch the restored memory.
            let (proc, report) = Self::restart_with(
                config,
                registry,
                taken_at_ns,
                crac_payload.as_deref(),
                obs,
                |coord, space| Ok(install(coord, space)?),
            )?;
            let out = run(&proc)?;
            Ok::<_, CracError>((proc, report, out))
        })?;
        if let ImageSource::Store(store) = source {
            // The restored process chains its next incremental checkpoint
            // off the image it came from.
            *proc.last_stored_image.lock() = Some((store.root().to_path_buf(), id));
        }
        Ok((proc, report, read_stats, lazy_stats, out))
    }

    /// Restarts an application from a checkpoint image in a brand-new
    /// simulated process.
    ///
    /// `registry` plays the role of the application binary's kernel code
    /// (which is upper-half memory and therefore restored): Rust closures
    /// cannot live inside the image, so the caller supplies them again.
    pub fn restart(
        image: &CheckpointImage,
        config: CracConfig,
        registry: Arc<KernelRegistry>,
    ) -> Result<(Self, RestartReport), CracError> {
        Self::restart_with(
            config,
            registry,
            image.taken_at_ns,
            image.payloads.get("crac").map(|v| v.as_slice()),
            crac_obs::ObsRegistry::new(),
            |coord, space| Ok(coord.restart_into(image, space)),
        )
    }

    /// The restart skeleton the materialised and the streamed restore
    /// share: fresh space, fresh lower half, `restore` installs the upper
    /// half, then the CRAC payload's log is folded over the new runtime.
    fn restart_with(
        config: CracConfig,
        registry: Arc<KernelRegistry>,
        taken_at_ns: u64,
        crac_payload: Option<&[u8]>,
        obs: crac_obs::ObsRegistry,
        restore: impl FnOnce(&Coordinator, &SharedSpace) -> Result<crac_dmtcp::RestartStats, CracError>,
    ) -> Result<(Self, RestartReport), CracError> {
        // A fresh process: fresh address space (ASLR off), fresh lower half,
        // virtual time continuing from the checkpoint.
        let space = SharedSpace::new_no_aslr();
        let clock = VirtualClock::new_shared();
        clock.advance_to(taken_at_ns);
        let restart_t0 = clock.now();

        // 1. Load a fresh lower half (helper + CUDA runtime).  Deterministic
        //    loading puts it at the same addresses as the original.
        let lower = LowerHalf::boot(
            &space,
            config.runtime.clone(),
            Some(Arc::clone(&clock)),
            config.fs_mode,
        );
        lower
            .trampolines()
            .set_extra_crossing_cost(config.log_overhead_ns);

        // 2. Restore the upper half.  The process's coordinator adopts the
        //    caller's registry — the one the streaming reader/source is
        //    already recording into — so the whole restart, and everything
        //    the rebuilt process does after it, lands in one place.
        let mut coordinator = Coordinator::new(space.clone(), config.ckpt.clone());
        coordinator.adopt_obs(obs);
        let rstats = restore(&coordinator, &space)?;
        clock.advance(rstats.read_ns);

        // 3. Decode the CRAC payload and fold its log over the fresh
        //    runtime, one `apply` per entry: allocations reappear at their
        //    original addresses, streams/events/fat binaries are recreated
        //    under the application's original virtual handles.
        let payload = crac_payload
            .and_then(CracPayload::decode)
            .ok_or(CracError::BadImage)?;
        let replayed = replay_log(
            &payload.log,
            lower.runtime(),
            lower.trampolines(),
            &registry,
        )?;

        // 4. Refill device/managed allocations from the staged copies and
        //    release the staging buffers — once the staging table has been
        //    checked against the replayed mallocs and the restored memory.
        payload.check_staging(&replayed.state.mallocs, &space)?;
        let mut refilled_bytes = 0u64;
        for staged in &payload.staging {
            space.sparse_copy(Addr(staged.ptr), Addr(staged.staging), staged.len)?;
            space.munmap(Addr(staged.staging), page_align_up(staged.len))?;
            refilled_bytes += staged.len;
        }
        let profile = &config.runtime.profile;
        clock.advance(profile.pcie_transfer_ns(refilled_bytes));

        // 5. The state the fold arrived at is the restarted process's.
        let restart_time_s = ns_to_s(clock.now() - restart_t0);
        Ok((
            Self::assemble(config, registry, space, lower, coordinator, replayed.state),
            RestartReport {
                restart_time_s,
                replayed_calls: replayed.calls_replayed,
                refilled_bytes,
            },
        ))
    }
}
