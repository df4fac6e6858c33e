//! The CUDA runtime API: what the lower-half library exposes to callers.

use std::sync::Arc;

use crac_sync::Mutex;

use crac_addrspace::{Addr, SharedSpace};
use crac_gpu::kernel::KernelBody;
use crac_gpu::{
    DeviceProfile, EventId, GpuDevice, KernelCost, KernelDesc, LaunchDims, StreamId, VirtualClock,
};

use crate::arena::{Arena, ArenaKind};
use crate::error::{CudaError, CudaResult};
use crate::fatbin::{FatBinaryHandle, FatBinaryRegistry, FunctionHandle};
use crate::profile::{CallCounters, CallKind};

/// Direction of a `cudaMemcpy`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemcpyKind {
    /// Host buffer to host buffer.
    HostToHost,
    /// Host buffer to device allocation.
    HostToDevice,
    /// Device allocation to host buffer.
    DeviceToHost,
    /// Device allocation to device allocation.
    DeviceToDevice,
    /// Let the runtime infer the direction from the pointers (UVA behaviour).
    Default,
}

/// Classification of a pointer, as `cudaPointerGetAttributes` would report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DevicePointerKind {
    /// Allocated by `cudaMalloc`.
    Device,
    /// Allocated by `cudaMallocHost` / `cudaHostAlloc`.
    PinnedHost,
    /// Allocated by `cudaMallocManaged`.
    Managed,
    /// Not a pointer the CUDA library knows about.
    NotCuda,
}

/// Construction parameters for a runtime.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Which GPU the runtime drives.
    pub profile: DeviceProfile,
    /// Size of the arena chunks the library mmaps on first allocation.
    pub arena_chunk_bytes: u64,
}

impl RuntimeConfig {
    /// Runtime for a Tesla V100 with the default 32 MiB arena chunk.
    pub fn v100() -> Self {
        Self {
            profile: DeviceProfile::tesla_v100(),
            arena_chunk_bytes: 32 << 20,
        }
    }

    /// Runtime for a Quadro K600.
    pub fn k600() -> Self {
        Self {
            profile: DeviceProfile::quadro_k600(),
            arena_chunk_bytes: 16 << 20,
        }
    }

    /// Small, fast profile for unit tests.
    pub fn test() -> Self {
        Self {
            profile: DeviceProfile::test_profile(),
            arena_chunk_bytes: 1 << 20,
        }
    }
}

struct RtState {
    device_arena: Arena,
    pinned_arena: Arena,
    managed_arena: Arena,
    fatbins: FatBinaryRegistry,
    counters: CallCounters,
}

/// The lower-half CUDA library.
///
/// All state that the real CUDA library keeps private — allocation arenas,
/// stream/event handles, registered fat binaries, UVM residency — lives here
/// or in the attached [`GpuDevice`].  A checkpointer cannot serialise this
/// object; CRAC's whole design is about *not* having to.
pub struct CudaRuntime {
    config: RuntimeConfig,
    device: Arc<GpuDevice>,
    space: SharedSpace,
    state: Mutex<RtState>,
}

impl CudaRuntime {
    /// Creates a runtime (and its device) with a fresh virtual clock.
    pub fn new(config: RuntimeConfig, space: SharedSpace) -> Arc<Self> {
        let clock = VirtualClock::new_shared();
        Self::with_clock(config, space, clock)
    }

    /// Creates a runtime sharing an existing clock — what happens at restart
    /// when a fresh lower half is loaded but time keeps running.
    pub fn with_clock(
        config: RuntimeConfig,
        space: SharedSpace,
        clock: Arc<VirtualClock>,
    ) -> Arc<Self> {
        let device = GpuDevice::with_clock(config.profile.clone(), space.clone(), clock);
        let chunk = config.arena_chunk_bytes;
        Arc::new(Self {
            config,
            device,
            space: space.clone(),
            state: Mutex::new(
                "cudart.runtime.state",
                RtState {
                    device_arena: Arena::new(ArenaKind::Device, space.clone(), chunk),
                    pinned_arena: Arena::new(ArenaKind::PinnedHost, space.clone(), chunk),
                    managed_arena: Arena::new(ArenaKind::Managed, space, chunk),
                    fatbins: FatBinaryRegistry::new(),
                    counters: CallCounters::new(),
                },
            ),
        })
    }

    /// The device this runtime drives.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.device
    }

    /// The unified address space.
    pub fn space(&self) -> &SharedSpace {
        &self.space
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Snapshot of the API call counters.
    pub fn counters(&self) -> CallCounters {
        self.state.lock().counters.clone()
    }

    fn record(&self, name: &str, kind: CallKind) {
        self.state.lock().counters.record(name, kind);
    }

    fn host_api_cost(&self) {
        self.device
            .clock()
            .advance(self.config.profile.api_call_overhead_ns);
    }

    // ---------------------------------------------------------------------
    // Memory management (the cudaMalloc family)
    // ---------------------------------------------------------------------

    /// `cudaMalloc`: allocates device global memory.
    pub fn malloc(&self, bytes: u64) -> CudaResult<Addr> {
        self.record("cudaMalloc", CallKind::OtherApi);
        self.host_api_cost();
        self.device.reserve_device_mem(bytes)?;
        let mut st = self.state.lock();
        match st.device_arena.alloc(bytes) {
            Ok(ptr) => Ok(ptr),
            Err(e) => {
                self.device.release_device_mem(bytes);
                Err(e)
            }
        }
    }

    /// `cudaMallocHost` / `cudaHostAlloc`: allocates page-locked host memory.
    pub fn malloc_host(&self, bytes: u64) -> CudaResult<Addr> {
        self.record("cudaMallocHost", CallKind::OtherApi);
        self.host_api_cost();
        self.state.lock().pinned_arena.alloc(bytes)
    }

    /// `cudaHostRegister`-style adoption: tells the library about an existing
    /// page-locked host buffer without allocating new memory.  CRAC uses this
    /// at restart to re-register pinned buffers whose bytes were restored
    /// with the upper half.
    pub fn host_register(&self, ptr: Addr, bytes: u64) -> CudaResult<()> {
        self.record("cudaHostRegister", CallKind::OtherApi);
        self.host_api_cost();
        self.state.lock().pinned_arena.adopt(ptr, bytes)
    }

    /// `cudaMallocManaged`: allocates unified (UVM) memory.
    pub fn malloc_managed(&self, bytes: u64) -> CudaResult<Addr> {
        self.record("cudaMallocManaged", CallKind::OtherApi);
        self.host_api_cost();
        let ptr = self.state.lock().managed_arena.alloc(bytes)?;
        self.device.uvm_register(ptr, bytes);
        Ok(ptr)
    }

    /// `cudaFree` / `cudaFreeHost`: frees a pointer from whichever arena owns
    /// it.
    pub fn free(&self, ptr: Addr) -> CudaResult<()> {
        self.record("cudaFree", CallKind::OtherApi);
        self.host_api_cost();
        let mut st = self.state.lock();
        if st.device_arena.active_size(ptr).is_some() {
            let size = st.device_arena.free(ptr)?;
            self.device.release_device_mem(size);
            return Ok(());
        }
        if st.pinned_arena.active_size(ptr).is_some() {
            st.pinned_arena.free(ptr)?;
            return Ok(());
        }
        if st.managed_arena.active_size(ptr).is_some() {
            st.managed_arena.free(ptr)?;
            drop(st);
            self.device.uvm_unregister(ptr);
            return Ok(());
        }
        Err(CudaError::InvalidDevicePointer(ptr.as_u64()))
    }

    /// `cudaPointerGetAttributes`: classifies a pointer.
    pub fn pointer_kind(&self, ptr: Addr) -> DevicePointerKind {
        let st = self.state.lock();
        if st.device_arena.contains(ptr) {
            DevicePointerKind::Device
        } else if st.pinned_arena.contains(ptr) {
            DevicePointerKind::PinnedHost
        } else if st.managed_arena.contains(ptr) {
            DevicePointerKind::Managed
        } else {
            DevicePointerKind::NotCuda
        }
    }

    /// Active allocations of one family (what CRAC drains at checkpoint).
    pub fn active_allocations(&self, kind: ArenaKind) -> Vec<(Addr, u64)> {
        let st = self.state.lock();
        match kind {
            ArenaKind::Device => st.device_arena.active_allocations(),
            ArenaKind::PinnedHost => st.pinned_arena.active_allocations(),
            ArenaKind::Managed => st.managed_arena.active_allocations(),
        }
    }

    /// The lower-half mmap chunks backing all three arenas (these are what a
    /// naive `/proc/maps`-based checkpointer would wrongly save wholesale).
    pub fn arena_chunks(&self) -> Vec<(Addr, u64)> {
        let st = self.state.lock();
        let mut v = Vec::new();
        v.extend_from_slice(st.device_arena.chunks());
        v.extend_from_slice(st.pinned_arena.chunks());
        v.extend_from_slice(st.managed_arena.chunks());
        v
    }

    // ---------------------------------------------------------------------
    // Memory movement
    // ---------------------------------------------------------------------

    fn resolve_kind(&self, dst: Addr, src: Addr, kind: MemcpyKind) -> MemcpyKind {
        if kind != MemcpyKind::Default {
            return kind;
        }
        // UVA: infer the direction from the pointer classification.
        let dst_dev = matches!(self.pointer_kind(dst), DevicePointerKind::Device);
        let src_dev = matches!(self.pointer_kind(src), DevicePointerKind::Device);
        match (src_dev, dst_dev) {
            (false, true) => MemcpyKind::HostToDevice,
            (true, false) => MemcpyKind::DeviceToHost,
            (true, true) => MemcpyKind::DeviceToDevice,
            (false, false) => MemcpyKind::HostToHost,
        }
    }

    /// `cudaMemcpy`: synchronous copy.
    pub fn memcpy(&self, dst: Addr, src: Addr, bytes: u64, kind: MemcpyKind) -> CudaResult<()> {
        self.record("cudaMemcpy", CallKind::OtherApi);
        self.do_memcpy(dst, src, bytes, kind, None)
    }

    /// `cudaMemcpyAsync`: asynchronous copy on a stream.
    pub fn memcpy_async(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: MemcpyKind,
        stream: StreamId,
    ) -> CudaResult<()> {
        self.record("cudaMemcpyAsync", CallKind::OtherApi);
        self.do_memcpy(dst, src, bytes, kind, Some(stream))
    }

    fn do_memcpy(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: MemcpyKind,
        stream: Option<StreamId>,
    ) -> CudaResult<()> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue("zero-byte memcpy"));
        }
        match self.resolve_kind(dst, src, kind) {
            MemcpyKind::HostToDevice => self.device.memcpy_h2d(dst, src, bytes, stream)?,
            MemcpyKind::DeviceToHost => self.device.memcpy_d2h(dst, src, bytes, stream)?,
            MemcpyKind::DeviceToDevice => self.device.memcpy_d2d(dst, src, bytes, stream)?,
            // Host-to-host: a plain copy, no device engines involved.
            MemcpyKind::HostToHost | MemcpyKind::Default => self.space.copy(dst, src, bytes)?,
        }
        Ok(())
    }

    /// `cudaMemset` (synchronous).
    pub fn memset(&self, ptr: Addr, value: u8, bytes: u64) -> CudaResult<()> {
        self.record("cudaMemset", CallKind::OtherApi);
        self.device.memset(ptr, value, bytes, None)?;
        Ok(())
    }

    /// `cudaMemPrefetchAsync`: migrates managed pages ahead of use.
    pub fn mem_prefetch_async(
        &self,
        ptr: Addr,
        bytes: u64,
        to_device: bool,
        stream: StreamId,
    ) -> CudaResult<()> {
        self.record("cudaMemPrefetchAsync", CallKind::OtherApi);
        self.device.uvm_prefetch(ptr, bytes, to_device, stream)?;
        Ok(())
    }

    /// Models the host dereferencing managed memory directly (not an API
    /// call; UVM hardware faults the pages back to the host).
    pub fn host_touch_managed(&self, ptr: Addr, bytes: u64) {
        self.device.uvm_host_access(ptr, bytes);
    }

    // ---------------------------------------------------------------------
    // Streams and events
    // ---------------------------------------------------------------------

    /// `cudaStreamCreate`.
    pub fn stream_create(&self) -> CudaResult<StreamId> {
        self.record("cudaStreamCreate", CallKind::OtherApi);
        self.host_api_cost();
        Ok(self.device.create_stream())
    }

    /// `cudaStreamDestroy`.
    pub fn stream_destroy(&self, stream: StreamId) -> CudaResult<()> {
        self.record("cudaStreamDestroy", CallKind::OtherApi);
        self.host_api_cost();
        self.device.destroy_stream(stream)?;
        Ok(())
    }

    /// `cudaStreamSynchronize`.
    pub fn stream_synchronize(&self, stream: StreamId) -> CudaResult<()> {
        self.record("cudaStreamSynchronize", CallKind::OtherApi);
        self.device.stream_synchronize(stream)?;
        Ok(())
    }

    /// `cudaStreamWaitEvent`.
    pub fn stream_wait_event(&self, stream: StreamId, event: EventId) -> CudaResult<()> {
        self.record("cudaStreamWaitEvent", CallKind::OtherApi);
        self.device.stream_wait_event(stream, event)?;
        Ok(())
    }

    /// `cudaEventCreate`.
    pub fn event_create(&self) -> CudaResult<EventId> {
        self.record("cudaEventCreate", CallKind::OtherApi);
        self.host_api_cost();
        Ok(self.device.create_event())
    }

    /// `cudaEventDestroy`.
    pub fn event_destroy(&self, event: EventId) -> CudaResult<()> {
        self.record("cudaEventDestroy", CallKind::OtherApi);
        self.host_api_cost();
        self.device.destroy_event(event)?;
        Ok(())
    }

    /// `cudaEventRecord`.
    pub fn event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
        self.record("cudaEventRecord", CallKind::OtherApi);
        self.device.record_event(event, stream)?;
        Ok(())
    }

    /// `cudaEventSynchronize`.
    pub fn event_synchronize(&self, event: EventId) -> CudaResult<()> {
        self.record("cudaEventSynchronize", CallKind::OtherApi);
        self.device.event_synchronize(event)?;
        Ok(())
    }

    /// `cudaEventQuery`: `true` if the event has completed.
    pub fn event_query(&self, event: EventId) -> CudaResult<bool> {
        self.record("cudaEventQuery", CallKind::OtherApi);
        Ok(self.device.event_complete(event)?)
    }

    /// `cudaEventElapsedTime` (milliseconds).
    pub fn event_elapsed_ms(&self, start: EventId, end: EventId) -> CudaResult<f64> {
        self.record("cudaEventElapsedTime", CallKind::OtherApi);
        Ok(self.device.event_elapsed_ms(start, end)?)
    }

    /// `cudaDeviceSynchronize`: drains every stream.
    pub fn device_synchronize(&self) -> CudaResult<()> {
        self.record("cudaDeviceSynchronize", CallKind::OtherApi);
        self.device.device_synchronize();
        Ok(())
    }

    /// Number of live user streams (not part of the CUDA API; used by tests
    /// and by CRAC's stream bookkeeping).
    pub fn live_streams(&self) -> usize {
        self.device.live_streams()
    }

    // ---------------------------------------------------------------------
    // Fat binaries and kernel launch
    // ---------------------------------------------------------------------

    /// `__cudaRegisterFatBinary`.
    pub fn register_fat_binary(&self) -> FatBinaryHandle {
        self.record("__cudaRegisterFatBinary", CallKind::OtherApi);
        self.host_api_cost();
        self.state.lock().fatbins.register_fat_binary()
    }

    /// `__cudaRegisterFunction`.
    pub fn register_function(
        &self,
        fatbin: FatBinaryHandle,
        name: &str,
        body: Option<KernelBody>,
    ) -> CudaResult<FunctionHandle> {
        self.record("__cudaRegisterFunction", CallKind::OtherApi);
        self.host_api_cost();
        self.state
            .lock()
            .fatbins
            .register_function(fatbin, name, body)
    }

    /// `__cudaUnregisterFatBinary`.
    pub fn unregister_fat_binary(&self, fatbin: FatBinaryHandle) -> CudaResult<()> {
        self.record("__cudaUnregisterFatBinary", CallKind::OtherApi);
        self.host_api_cost();
        self.state.lock().fatbins.unregister_fat_binary(fatbin)
    }

    /// Number of kernels currently registered.
    pub fn registered_kernel_count(&self) -> usize {
        self.state.lock().fatbins.function_count()
    }

    /// `cudaLaunchKernel`: launches a registered kernel.
    ///
    /// The paper counts each launch as three upper→lower crossings
    /// (`cudaPushCallConfiguration`, `cudaPopCallConfiguration`,
    /// `cudaLaunchKernel`); the counters reflect that via
    /// [`CallKind::LaunchKernel`].
    pub fn launch_kernel(
        &self,
        function: FunctionHandle,
        dims: LaunchDims,
        cost: KernelCost,
        args: Vec<u64>,
        stream: StreamId,
    ) -> CudaResult<()> {
        self.record("cudaLaunchKernel", CallKind::LaunchKernel);
        let (name, body) = {
            let st = self.state.lock();
            let k = st.fatbins.lookup(function)?;
            (k.name.clone(), k.body.clone())
        };
        let desc = KernelDesc {
            name,
            dims,
            cost,
            args,
            body,
        };
        self.device.launch_kernel(stream, &desc)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fatbin::noop_body;
    use crac_gpu::PageLocation;
    use std::sync::Arc as StdArc;

    fn rt() -> StdArc<CudaRuntime> {
        CudaRuntime::new(RuntimeConfig::test(), SharedSpace::new_no_aslr())
    }

    #[test]
    fn malloc_free_and_pointer_classification() {
        let rt = rt();
        let d = rt.malloc(4096).unwrap();
        let h = rt.malloc_host(4096).unwrap();
        let m = rt.malloc_managed(4096).unwrap();
        assert_eq!(rt.pointer_kind(d), DevicePointerKind::Device);
        assert_eq!(rt.pointer_kind(h), DevicePointerKind::PinnedHost);
        assert_eq!(rt.pointer_kind(m), DevicePointerKind::Managed);
        assert_eq!(rt.pointer_kind(Addr(0x1234)), DevicePointerKind::NotCuda);
        rt.free(d).unwrap();
        rt.free(h).unwrap();
        rt.free(m).unwrap();
        assert_eq!(rt.pointer_kind(d), DevicePointerKind::NotCuda);
        assert!(rt.free(d).is_err());
    }

    #[test]
    fn device_memory_is_accounted_and_exhaustible() {
        let rt = rt();
        let cap = rt.config().profile.memory_bytes;
        let p = rt.malloc(cap / 2).unwrap();
        assert!(rt.malloc(cap).is_err());
        rt.free(p).unwrap();
        assert_eq!(rt.device().device_mem_in_use(), 0);
    }

    #[test]
    fn managed_allocation_registers_with_uvm() {
        let rt = rt();
        let m = rt.malloc_managed(64 * 1024).unwrap();
        assert!(rt.device().uvm_is_managed(m));
        rt.free(m).unwrap();
        assert!(!rt.device().uvm_is_managed(m));
    }

    #[test]
    fn memcpy_moves_bytes_and_infers_direction() {
        let rt = rt();
        let host = rt.malloc_host(1024).unwrap();
        let dev = rt.malloc(1024).unwrap();
        rt.space().write_bytes(host, &[0x42; 256]).unwrap();
        rt.memcpy(dev, host, 256, MemcpyKind::Default).unwrap();
        let mut out = [0u8; 256];
        rt.space().read_bytes(dev, &mut out).unwrap();
        assert_eq!(out, [0x42; 256]);
        assert_eq!(rt.device().metrics().h2d_copies, 1);
        // Explicit D2H back into a different host region.
        let host2 = rt.malloc_host(1024).unwrap();
        rt.memcpy(host2, dev, 256, MemcpyKind::DeviceToHost)
            .unwrap();
        assert_eq!(rt.device().metrics().d2h_copies, 1);
    }

    #[test]
    fn zero_byte_memcpy_is_invalid() {
        let rt = rt();
        let p = rt.malloc(64).unwrap();
        assert!(matches!(
            rt.memcpy(p, p, 0, MemcpyKind::DeviceToDevice),
            Err(CudaError::InvalidValue(_))
        ));
    }

    #[test]
    fn kernel_launch_requires_registration() {
        let rt = rt();
        let err = rt
            .launch_kernel(
                FunctionHandle(77),
                LaunchDims::linear(1, 1),
                KernelCost::compute(1),
                vec![],
                StreamId::DEFAULT,
            )
            .unwrap_err();
        assert!(matches!(err, CudaError::KernelNotRegistered(_)));
    }

    #[test]
    fn registered_kernel_executes_functionally() {
        let rt = rt();
        let fb = rt.register_fat_binary();
        let f = rt
            .register_function(
                fb,
                "scale2",
                Some(StdArc::new(|ctx: &crac_gpu::KernelCtx| {
                    let n = ctx.arg_u64(1) as usize;
                    let mut v = ctx.read_f32_arg(0, n)?;
                    for x in &mut v {
                        *x *= 2.0;
                    }
                    ctx.write_f32_arg(0, &v)
                })),
            )
            .unwrap();
        let buf = rt.malloc(4 * 16).unwrap();
        rt.space().write_f32(buf, &[1.0; 16]).unwrap();
        rt.launch_kernel(
            f,
            LaunchDims::linear(1, 16),
            KernelCost::new(16, 64),
            vec![buf.as_u64(), 16],
            StreamId::DEFAULT,
        )
        .unwrap();
        rt.device_synchronize().unwrap();
        let mut out = [0f32; 16];
        rt.space().read_f32(buf, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn unregistering_fatbin_invalidates_launches() {
        let rt = rt();
        let fb = rt.register_fat_binary();
        let f = rt.register_function(fb, "k", Some(noop_body())).unwrap();
        rt.unregister_fat_binary(fb).unwrap();
        let err = rt
            .launch_kernel(
                f,
                LaunchDims::linear(1, 1),
                KernelCost::compute(1),
                vec![],
                StreamId::DEFAULT,
            )
            .unwrap_err();
        assert!(matches!(err, CudaError::KernelNotRegistered(_)));
    }

    #[test]
    fn launch_counting_follows_the_3x_formula() {
        let rt = rt();
        let fb = rt.register_fat_binary();
        let f = rt.register_function(fb, "k", Some(noop_body())).unwrap();
        for _ in 0..5 {
            rt.launch_kernel(
                f,
                LaunchDims::linear(1, 1),
                KernelCost::compute(1),
                vec![],
                StreamId::DEFAULT,
            )
            .unwrap();
        }
        rt.memcpy(
            rt.malloc(64).unwrap(),
            rt.malloc_host(64).unwrap(),
            64,
            MemcpyKind::HostToDevice,
        )
        .unwrap();
        let c = rt.counters();
        assert_eq!(c.launch_count(), 5);
        // 3*5 launches + (fatbin + function + 2 mallocs + 1 memcpy) others.
        assert_eq!(c.total_cuda_calls(), 15 + c.other_count());
        assert!(c.other_count() >= 5);
    }

    #[test]
    fn streams_and_events_round_trip() {
        let rt = rt();
        let s = rt.stream_create().unwrap();
        let start = rt.event_create().unwrap();
        let end = rt.event_create().unwrap();
        let fb = rt.register_fat_binary();
        let f = rt.register_function(fb, "busy", None).unwrap();
        rt.event_record(start, s).unwrap();
        rt.launch_kernel(
            f,
            LaunchDims::linear(4, 64),
            KernelCost::compute(1_000_000),
            vec![],
            s,
        )
        .unwrap();
        rt.event_record(end, s).unwrap();
        rt.stream_synchronize(s).unwrap();
        assert!(rt.event_elapsed_ms(start, end).unwrap() >= 1.0);
        assert!(rt.event_query(end).unwrap());
        rt.event_destroy(start).unwrap();
        rt.event_destroy(end).unwrap();
        rt.stream_destroy(s).unwrap();
        assert_eq!(rt.live_streams(), 0);
    }

    #[test]
    fn prefetch_and_host_touch_drive_uvm() {
        let rt = rt();
        let m = rt.malloc_managed(64 * 1024).unwrap();
        let s = rt.stream_create().unwrap();
        rt.mem_prefetch_async(m, 64 * 1024, true, s).unwrap();
        rt.stream_synchronize(s).unwrap();
        assert_eq!(rt.device().uvm_location_of(m), Some(PageLocation::Device));
        rt.host_touch_managed(m, 4096);
        assert_eq!(rt.device().uvm_location_of(m), Some(PageLocation::Host));
    }

    #[test]
    fn fresh_runtime_replays_allocations_at_same_addresses() {
        // End-to-end determinism: the addresses handed out by a fresh runtime
        // given the same allocation sequence match the original — the
        // property CRAC's restart replay depends on.
        let space1 = SharedSpace::new_no_aslr();
        let rt1 = CudaRuntime::new(RuntimeConfig::test(), space1);
        let space2 = SharedSpace::new_no_aslr();
        let rt2 = CudaRuntime::new(RuntimeConfig::test(), space2);
        let seq = |rt: &CudaRuntime| -> Vec<u64> {
            let mut ptrs = Vec::new();
            let a = rt.malloc(1000).unwrap();
            let b = rt.malloc(2000).unwrap();
            let m = rt.malloc_managed(4096).unwrap();
            rt.free(a).unwrap();
            let c = rt.malloc(1000).unwrap();
            ptrs.extend([a.as_u64(), b.as_u64(), m.as_u64(), c.as_u64()]);
            ptrs
        };
        assert_eq!(seq(&rt1), seq(&rt2));
    }
}
