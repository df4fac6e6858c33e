//! The GPU device: functional execution plus the discrete-event timing model.

use std::collections::BTreeMap;
use std::sync::Arc;

use crac_sync::Mutex;

use crac_addrspace::{Addr, MemError, SharedSpace};

use crate::clock::{Ns, VirtualClock};
use crate::event::{Event, EventId};
use crate::kernel::{KernelCtx, KernelDesc};
use crate::metrics::GpuMetrics;
use crate::profile::DeviceProfile;
use crate::stream::{Scheduler, StreamId};
use crate::uvm::{PageLocation, UvmManager, UvmStats};

/// Errors returned by device operations (the analogue of `cudaError_t` values
/// that originate on the device side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// An operation referenced a stream that does not exist.
    InvalidStream(StreamId),
    /// An operation referenced an event that does not exist.
    InvalidEvent(EventId),
    /// The device ran out of global memory.
    OutOfMemory { requested: u64, available: u64 },
    /// A functional memory access failed (bad pointer, protection, …).
    Mem(MemError),
    /// A kernel body returned an error.
    KernelFault(String),
    /// An argument was invalid (zero-length copy to null, etc.).
    InvalidValue(&'static str),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::InvalidStream(s) => write!(f, "invalid stream {s:?}"),
            GpuError::InvalidEvent(e) => write!(f, "invalid event {e:?}"),
            GpuError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of device memory: requested {requested}, available {available}"
                )
            }
            GpuError::Mem(e) => write!(f, "memory error: {e}"),
            GpuError::KernelFault(k) => write!(f, "kernel fault in {k}"),
            GpuError::InvalidValue(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for GpuError {}

impl From<MemError> for GpuError {
    fn from(e: MemError) -> Self {
        GpuError::Mem(e)
    }
}

struct DeviceState {
    scheduler: Scheduler,
    events: BTreeMap<EventId, Event>,
    next_event: u64,
    uvm: UvmManager,
    metrics: GpuMetrics,
    mem_in_use: u64,
}

impl DeviceState {
    /// `stream` if it exists.  Every enqueueing operation asks first, so a
    /// call on an invalid stream fails before it moves a byte or a UVM page.
    fn live(&self, stream: StreamId) -> Result<StreamId, GpuError> {
        if self.scheduler.stream_exists(stream) {
            Ok(stream)
        } else {
            Err(GpuError::InvalidStream(stream))
        }
    }
}

/// A simulated GPU.
///
/// All methods take `&self`; internal state is protected by a single mutex,
/// mirroring the serialisation the real CUDA driver imposes on API calls from
/// multiple host threads.  Functional data movement and kernel execution
/// happen eagerly (in enqueue order), while completion *times* are computed
/// by the [`Scheduler`] resource model so that streams overlap the way the
/// paper's experiments require.
pub struct GpuDevice {
    profile: DeviceProfile,
    clock: Arc<VirtualClock>,
    space: SharedSpace,
    state: Mutex<DeviceState>,
}

impl GpuDevice {
    /// Creates a device with a fresh clock.
    pub fn new(profile: DeviceProfile, space: SharedSpace) -> Arc<Self> {
        Self::with_clock(profile, space, VirtualClock::new_shared())
    }

    /// Creates a device that shares an existing clock — used at restart,
    /// when CRAC loads a *fresh* lower half (new device object) but virtual
    /// time keeps running.
    pub fn with_clock(
        profile: DeviceProfile,
        space: SharedSpace,
        clock: Arc<VirtualClock>,
    ) -> Arc<Self> {
        let max_ck = profile.max_concurrent_kernels as usize;
        Arc::new(Self {
            profile,
            clock,
            space,
            state: Mutex::new(
                "gpu.device.state",
                DeviceState {
                    scheduler: Scheduler::new(max_ck),
                    events: BTreeMap::new(),
                    next_event: 1,
                    uvm: UvmManager::new(),
                    metrics: GpuMetrics::default(),
                    mem_in_use: 0,
                },
            ),
        })
    }

    /// The device's performance profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The unified address space this device operates on.
    pub fn space(&self) -> &SharedSpace {
        &self.space
    }

    /// Cumulative activity counters.
    pub fn metrics(&self) -> GpuMetrics {
        self.state.lock().metrics
    }

    /// Cumulative UVM counters.
    pub fn uvm_stats(&self) -> UvmStats {
        self.state.lock().uvm.stats()
    }

    /// Peak number of concurrently scheduled kernels observed so far.
    pub fn peak_concurrent_kernels(&self) -> usize {
        self.state.lock().scheduler.peak_concurrent_kernels
    }

    // ---------------------------------------------------------------------
    // Device memory accounting (the arena allocator in `crac-cudart` calls
    // these so that `cudaMalloc` can fail with out-of-memory like real CUDA).
    // ---------------------------------------------------------------------

    /// Reserves `bytes` of device global memory.
    pub fn reserve_device_mem(&self, bytes: u64) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        let available = self.profile.memory_bytes - st.mem_in_use;
        if bytes > available {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        st.mem_in_use += bytes;
        Ok(())
    }

    /// Releases `bytes` of device global memory.
    pub fn release_device_mem(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.mem_in_use = st.mem_in_use.saturating_sub(bytes);
    }

    /// Device global memory currently reserved.
    pub fn device_mem_in_use(&self) -> u64 {
        self.state.lock().mem_in_use
    }

    // ---------------------------------------------------------------------
    // Streams and events
    // ---------------------------------------------------------------------

    /// Creates a stream (`cudaStreamCreate`).
    pub fn create_stream(&self) -> StreamId {
        let mut st = self.state.lock();
        st.metrics.streams_created += 1;
        st.scheduler.create_stream()
    }

    /// Destroys a stream (`cudaStreamDestroy`).
    pub fn destroy_stream(&self, id: StreamId) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        if st.scheduler.destroy_stream(id) {
            Ok(())
        } else {
            Err(GpuError::InvalidStream(id))
        }
    }

    /// Number of live user streams.
    pub fn live_streams(&self) -> usize {
        self.state.lock().scheduler.live_streams()
    }

    /// Ids of all live streams including the default stream.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        self.state.lock().scheduler.stream_ids()
    }

    /// Creates an event (`cudaEventCreate`).
    pub fn create_event(&self) -> EventId {
        let mut st = self.state.lock();
        let id = EventId(st.next_event);
        st.next_event += 1;
        st.events.insert(id, Event::default());
        id
    }

    /// Destroys an event.
    pub fn destroy_event(&self, id: EventId) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        st.events
            .remove(&id)
            .map(|_| ())
            .ok_or(GpuError::InvalidEvent(id))
    }

    /// Records `event` into `stream` (`cudaEventRecord`): the event completes
    /// when all work previously enqueued on the stream completes.
    pub fn record_event(&self, event: EventId, stream: StreamId) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        let at = st
            .scheduler
            .stream_ready_at(stream)
            .ok_or(GpuError::InvalidStream(stream))?
            .max(self.clock.now());
        let ev = st
            .events
            .get_mut(&event)
            .ok_or(GpuError::InvalidEvent(event))?;
        ev.completes_at = Some(at);
        st.metrics.events_recorded += 1;
        Ok(())
    }

    /// Returns `true` if the event has completed (`cudaEventQuery`).
    pub fn event_complete(&self, event: EventId) -> Result<bool, GpuError> {
        let st = self.state.lock();
        let ev = st.events.get(&event).ok_or(GpuError::InvalidEvent(event))?;
        Ok(ev.is_complete(self.clock.now()))
    }

    /// Blocks the host until the event completes (`cudaEventSynchronize`).
    pub fn event_synchronize(&self, event: EventId) -> Result<(), GpuError> {
        let at = {
            let st = self.state.lock();
            let ev = st.events.get(&event).ok_or(GpuError::InvalidEvent(event))?;
            ev.completes_at
        };
        if let Some(t) = at {
            self.clock.advance_to(t);
        }
        Ok(())
    }

    /// Elapsed milliseconds between two recorded events
    /// (`cudaEventElapsedTime`).
    pub fn event_elapsed_ms(&self, start: EventId, end: EventId) -> Result<f64, GpuError> {
        let st = self.state.lock();
        let s = st.events.get(&start).ok_or(GpuError::InvalidEvent(start))?;
        let e = st.events.get(&end).ok_or(GpuError::InvalidEvent(end))?;
        Event::elapsed_ms(s, e).ok_or(GpuError::InvalidValue("event not recorded"))
    }

    /// Makes `stream` wait for `event` (`cudaStreamWaitEvent`).
    pub fn stream_wait_event(&self, stream: StreamId, event: EventId) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        let at = st
            .events
            .get(&event)
            .ok_or(GpuError::InvalidEvent(event))?
            .completes_at
            .unwrap_or(0);
        st.live(stream)?;
        st.scheduler.stall_stream_until(stream, at);
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Kernel launch and memory operations
    // ---------------------------------------------------------------------

    /// Launches a kernel on `stream` (`cudaLaunchKernel`).
    ///
    /// The launch is asynchronous with respect to the host: the virtual clock
    /// advances only by the launch overhead; the kernel's completion time is
    /// tracked by the scheduler.  The functional body (if any) executes
    /// eagerly, in enqueue order.
    pub fn launch_kernel(&self, stream: StreamId, desc: &KernelDesc) -> Result<Ns, GpuError> {
        let issue_at = self.clock.now();
        let exec_ns = self
            .profile
            .kernel_exec_ns(desc.cost.flops, desc.cost.bytes);

        // UVM: a kernel dereferencing a managed pointer pulls the pages it
        // touches onto the device.  Argument pointers that fall inside a
        // managed range migrate that range.
        let mut uvm_delay = 0u64;
        {
            let mut st = self.state.lock();
            st.live(stream)?;
            for &arg in &desc.args {
                let addr = Addr(arg);
                if let Some((start, len)) = st.uvm.range_containing(addr) {
                    let out = st.uvm.touch_device(start, len);
                    if out.faults > 0 {
                        uvm_delay += self.profile.uvm_fault_latency_ns
                            + self.profile.pcie_transfer_ns(out.bytes_migrated);
                    }
                }
            }
            let end = st
                .scheduler
                .schedule_kernel(
                    stream,
                    issue_at,
                    self.profile.kernel_launch_overhead_ns + uvm_delay,
                    exec_ns,
                )
                .ok_or(GpuError::InvalidStream(stream))?;
            st.metrics.kernels_launched += 1;
            // Host returns as soon as the launch is issued.
            self.clock.advance(self.profile.api_call_overhead_ns);
            // Functional execution happens below, outside the lock, so kernel
            // bodies may themselves take the space lock.
            drop(st);
            if let Some(body) = &desc.body {
                let ctx = KernelCtx {
                    dims: desc.dims,
                    args: desc.args.clone(),
                    stream,
                    space: self.space.clone(),
                };
                body(&ctx).map_err(|e| GpuError::KernelFault(format!("{}: {e}", desc.name)))?;
            }
            Ok(end)
        }
    }

    /// The stream a copy or memset enqueues on (`None`: the default
    /// stream), if it exists — checked before the operation moves a byte.
    fn live_stream(&self, stream: Option<StreamId>) -> Result<StreamId, GpuError> {
        self.state.lock().live(stream.unwrap_or(StreamId::DEFAULT))
    }

    /// Host→device copy.  With `stream = Some(s)` the copy is asynchronous
    /// (`cudaMemcpyAsync`); with `None` it is synchronous and the host blocks
    /// until completion.
    pub fn memcpy_h2d(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        stream: Option<StreamId>,
    ) -> Result<(), GpuError> {
        let target = self.live_stream(stream)?;
        self.space.copy(dst, src, bytes)?;
        let xfer = self.profile.pcie_transfer_ns(bytes);
        let issue_at = self.clock.now();
        let mut st = self.state.lock();
        let end = st
            .scheduler
            .schedule_h2d(target, issue_at, xfer)
            .ok_or(GpuError::InvalidStream(target))?;
        st.metrics.h2d_copies += 1;
        st.metrics.h2d_bytes += bytes;
        drop(st);
        self.clock.advance(self.profile.api_call_overhead_ns);
        if stream.is_none() {
            self.clock.advance_to(end);
        }
        Ok(())
    }

    /// Device→host copy (see [`GpuDevice::memcpy_h2d`] for stream semantics).
    pub fn memcpy_d2h(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        stream: Option<StreamId>,
    ) -> Result<(), GpuError> {
        let target = self.live_stream(stream)?;
        self.space.copy(dst, src, bytes)?;
        let xfer = self.profile.pcie_transfer_ns(bytes);
        let issue_at = self.clock.now();
        let mut st = self.state.lock();
        let end = st
            .scheduler
            .schedule_d2h(target, issue_at, xfer)
            .ok_or(GpuError::InvalidStream(target))?;
        st.metrics.d2h_copies += 1;
        st.metrics.d2h_bytes += bytes;
        drop(st);
        self.clock.advance(self.profile.api_call_overhead_ns);
        if stream.is_none() {
            self.clock.advance_to(end);
        }
        Ok(())
    }

    /// Device→device copy, which only occupies the stream (device-internal
    /// bandwidth, no PCIe).
    pub fn memcpy_d2d(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        stream: Option<StreamId>,
    ) -> Result<(), GpuError> {
        let target = self.live_stream(stream)?;
        self.space.copy(dst, src, bytes)?;
        let dur = ((bytes as f64 / self.profile.mem_bw_bytes_per_ns).ceil() as u64).max(1);
        let issue_at = self.clock.now();
        let mut st = self.state.lock();
        let end = st
            .scheduler
            .schedule_stream_only(target, issue_at, dur)
            .ok_or(GpuError::InvalidStream(target))?;
        st.metrics.d2d_copies += 1;
        st.metrics.d2d_bytes += bytes;
        drop(st);
        self.clock.advance(self.profile.api_call_overhead_ns);
        if stream.is_none() {
            self.clock.advance_to(end);
        }
        Ok(())
    }

    /// `cudaMemset` (optionally async on a stream).
    pub fn memset(
        &self,
        dst: Addr,
        byte: u8,
        bytes: u64,
        stream: Option<StreamId>,
    ) -> Result<(), GpuError> {
        let target = self.live_stream(stream)?;
        self.space.fill(dst, bytes, byte)?;
        let dur = ((bytes as f64 / self.profile.mem_bw_bytes_per_ns).ceil() as u64).max(1);
        let issue_at = self.clock.now();
        let mut st = self.state.lock();
        let end = st
            .scheduler
            .schedule_stream_only(target, issue_at, dur)
            .ok_or(GpuError::InvalidStream(target))?;
        st.metrics.memsets += 1;
        drop(st);
        self.clock.advance(self.profile.api_call_overhead_ns);
        if stream.is_none() {
            self.clock.advance_to(end);
        }
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Synchronisation
    // ---------------------------------------------------------------------

    /// Blocks the host until all work on `stream` has completed
    /// (`cudaStreamSynchronize`).
    pub fn stream_synchronize(&self, stream: StreamId) -> Result<(), GpuError> {
        let ready = {
            let mut st = self.state.lock();
            st.metrics.synchronizations += 1;
            st.scheduler
                .stream_ready_at(stream)
                .ok_or(GpuError::InvalidStream(stream))?
        };
        self.clock.advance_to(ready);
        Ok(())
    }

    /// Blocks the host until all work on the device has completed
    /// (`cudaDeviceSynchronize`).  This is the "drain the queue" step CRAC
    /// performs before every checkpoint.
    pub fn device_synchronize(&self) {
        let ready = {
            let mut st = self.state.lock();
            st.metrics.synchronizations += 1;
            st.scheduler.device_ready_at()
        };
        self.clock.advance_to(ready);
    }

    // ---------------------------------------------------------------------
    // UVM
    // ---------------------------------------------------------------------

    /// Registers a managed range with the UVM engine (`cudaMallocManaged`).
    pub fn uvm_register(&self, addr: Addr, len: u64) {
        let page = self.profile.uvm_page_bytes;
        self.state.lock().uvm.register(addr, len, page);
    }

    /// Unregisters a managed range (freeing a managed pointer).
    pub fn uvm_unregister(&self, addr: Addr) -> bool {
        self.state.lock().uvm.unregister(addr)
    }

    /// All managed ranges currently registered.
    pub fn uvm_ranges(&self) -> Vec<(Addr, u64)> {
        self.state.lock().uvm.ranges()
    }

    /// Returns `true` if `addr` is inside a managed range.
    pub fn uvm_is_managed(&self, addr: Addr) -> bool {
        self.state.lock().uvm.is_managed(addr)
    }

    /// Residency of the managed page containing `addr`.
    pub fn uvm_location_of(&self, addr: Addr) -> Option<PageLocation> {
        self.state.lock().uvm.location_of(addr)
    }

    /// Services a host access to managed memory: faults and migrations are
    /// charged to the virtual clock (this is the cost CRUM's shadow pages
    /// amplify and CRAC leaves untouched).
    pub fn uvm_host_access(&self, addr: Addr, len: u64) {
        let out = self.state.lock().uvm.touch_host(addr, len);
        if out.faults > 0 {
            self.clock.advance(
                self.profile.uvm_fault_latency_ns
                    + self.profile.pcie_transfer_ns(out.bytes_migrated),
            );
        }
    }

    /// `cudaMemPrefetchAsync`: migrates pages ahead of use on a stream.
    pub fn uvm_prefetch(
        &self,
        addr: Addr,
        len: u64,
        to_device: bool,
        stream: StreamId,
    ) -> Result<(), GpuError> {
        let issue_at = self.clock.now();
        let mut st = self.state.lock();
        st.live(stream)?;
        let to = if to_device {
            PageLocation::Device
        } else {
            PageLocation::Host
        };
        let moved = st.uvm.prefetch(addr, len, to);
        let dur = self.profile.pcie_transfer_ns(moved);
        st.scheduler
            .schedule_stream_only(stream, issue_at, dur)
            .ok_or(GpuError::InvalidStream(stream))?;
        drop(st);
        self.clock.advance(self.profile.api_call_overhead_ns);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelCost, LaunchDims};
    use crac_addrspace::{Half, MapRequest, PAGE_SIZE};

    fn device() -> (Arc<GpuDevice>, SharedSpace) {
        let space = SharedSpace::new_no_aslr();
        let dev = GpuDevice::new(DeviceProfile::test_profile(), space.clone());
        (dev, space)
    }

    fn alloc(space: &SharedSpace, pages: u64, label: &str) -> Addr {
        space
            .mmap(MapRequest::anon(pages * PAGE_SIZE, Half::Lower, label))
            .unwrap()
    }

    #[test]
    fn kernel_launch_is_async_and_sync_waits() {
        let (dev, _space) = device();
        let desc = KernelDesc::timing_only(
            "busy",
            LaunchDims::linear(1, 32),
            KernelCost::compute(100_000),
        );
        let before = dev.clock().now();
        dev.launch_kernel(StreamId::DEFAULT, &desc).unwrap();
        let after_launch = dev.clock().now();
        // Host only paid the API overhead, not the kernel execution time.
        assert!(after_launch - before < 10_000);
        dev.device_synchronize();
        assert!(dev.clock().now() >= 100_000);
        assert_eq!(dev.metrics().kernels_launched, 1);
    }

    #[test]
    fn functional_kernel_writes_memory() {
        let (dev, space) = device();
        let buf = alloc(&space, 1, "data");
        let desc = KernelDesc::with_body(
            "fill42",
            LaunchDims::linear(1, 32),
            KernelCost::new(32, 32 * 4),
            vec![buf.as_u64(), 32],
            |ctx| {
                let n = ctx.arg_u64(1) as usize;
                ctx.write_f32_arg(0, &vec![42.0; n])
            },
        );
        dev.launch_kernel(StreamId::DEFAULT, &desc).unwrap();
        dev.device_synchronize();
        let mut out = vec![0f32; 32];
        space.read_f32(buf, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 42.0));
    }

    #[test]
    fn streams_overlap_but_default_stream_serialises() {
        let (dev, _space) = device();
        let desc = KernelDesc::timing_only(
            "k",
            LaunchDims::linear(1, 32),
            KernelCost::compute(1_000_000),
        );
        // Two kernels on the default stream: ~2x duration.
        dev.launch_kernel(StreamId::DEFAULT, &desc).unwrap();
        dev.launch_kernel(StreamId::DEFAULT, &desc).unwrap();
        dev.device_synchronize();
        let serial = dev.clock().now();
        assert!(serial >= 2_000_000);

        // Two kernels on separate streams: they overlap.
        let (dev2, _s2) = device();
        let a = dev2.create_stream();
        let b = dev2.create_stream();
        let desc2 = KernelDesc::timing_only(
            "k",
            LaunchDims::linear(1, 32),
            KernelCost::compute(1_000_000),
        );
        dev2.launch_kernel(a, &desc2).unwrap();
        dev2.launch_kernel(b, &desc2).unwrap();
        dev2.device_synchronize();
        let parallel = dev2.clock().now();
        assert!(parallel < serial, "parallel {parallel} vs serial {serial}");
        assert_eq!(dev2.peak_concurrent_kernels(), 2);
    }

    #[test]
    fn sync_memcpy_blocks_host_and_moves_data() {
        let (dev, space) = device();
        let src = alloc(&space, 4, "host-buf");
        let dst = alloc(&space, 4, "dev-buf");
        space.write_bytes(src, &[7u8; 128]).unwrap();
        dev.memcpy_h2d(dst, src, 128, None).unwrap();
        let mut out = [0u8; 128];
        space.read_bytes(dst, &mut out).unwrap();
        assert_eq!(out, [7u8; 128]);
        // Synchronous copy advanced the clock past the transfer time.
        assert!(dev.clock().now() >= dev.profile().pcie_transfer_ns(128));
        assert_eq!(dev.metrics().h2d_bytes, 128);
    }

    #[test]
    fn memset_fills_device_memory() {
        let (dev, space) = device();
        let dst = alloc(&space, 1, "dev-buf");
        dev.memset(dst, 0xee, 256, None).unwrap();
        let mut out = [0u8; 256];
        space.read_bytes(dst, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xee));
    }

    #[test]
    fn events_measure_stream_elapsed_time() {
        let (dev, _space) = device();
        let s = dev.create_stream();
        let start = dev.create_event();
        let end = dev.create_event();
        dev.record_event(start, s).unwrap();
        let desc = KernelDesc::timing_only(
            "k",
            LaunchDims::linear(1, 1),
            KernelCost::compute(2_000_000),
        );
        dev.launch_kernel(s, &desc).unwrap();
        dev.record_event(end, s).unwrap();
        dev.stream_synchronize(s).unwrap();
        let ms = dev.event_elapsed_ms(start, end).unwrap();
        assert!(ms >= 2.0, "elapsed {ms} ms");
    }

    #[test]
    fn event_queries_and_waits() {
        let (dev, _space) = device();
        let s = dev.create_stream();
        let e = dev.create_event();
        let desc = KernelDesc::timing_only(
            "k",
            LaunchDims::linear(1, 1),
            KernelCost::compute(1_000_000),
        );
        dev.launch_kernel(s, &desc).unwrap();
        dev.record_event(e, s).unwrap();
        assert!(!dev.event_complete(e).unwrap());
        dev.event_synchronize(e).unwrap();
        assert!(dev.event_complete(e).unwrap());
    }

    #[test]
    fn stream_wait_event_orders_work_across_streams() {
        let (dev, _space) = device();
        let a = dev.create_stream();
        let b = dev.create_stream();
        let e = dev.create_event();
        let long = KernelDesc::timing_only(
            "long",
            LaunchDims::linear(1, 1),
            KernelCost::compute(5_000_000),
        );
        let short = KernelDesc::timing_only(
            "short",
            LaunchDims::linear(1, 1),
            KernelCost::compute(1_000),
        );
        let long_end = dev.launch_kernel(a, &long).unwrap();
        dev.record_event(e, a).unwrap();
        dev.stream_wait_event(b, e).unwrap();
        let short_end = dev.launch_kernel(b, &short).unwrap();
        assert!(short_end > long_end);
    }

    #[test]
    fn device_memory_accounting_enforces_capacity() {
        let (dev, _space) = device();
        let cap = dev.profile().memory_bytes;
        dev.reserve_device_mem(cap / 2).unwrap();
        dev.reserve_device_mem(cap / 2).unwrap();
        let err = dev.reserve_device_mem(1).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        dev.release_device_mem(cap);
        assert_eq!(dev.device_mem_in_use(), 0);
    }

    #[test]
    fn uvm_kernel_argument_migrates_managed_range() {
        let (dev, space) = device();
        let buf = alloc(&space, 16, "managed");
        dev.uvm_register(buf, 16 * PAGE_SIZE);
        assert_eq!(dev.uvm_location_of(buf), Some(PageLocation::Host));
        let desc =
            KernelDesc::timing_only("touch", LaunchDims::linear(1, 1), KernelCost::compute(10));
        let desc = KernelDesc {
            args: vec![buf.as_u64()],
            ..desc
        };
        dev.launch_kernel(StreamId::DEFAULT, &desc).unwrap();
        assert_eq!(dev.uvm_location_of(buf), Some(PageLocation::Device));
        // Host access migrates back and charges fault latency.
        let before = dev.clock().now();
        dev.uvm_host_access(buf, PAGE_SIZE);
        assert!(dev.clock().now() > before);
        assert_eq!(dev.uvm_location_of(buf), Some(PageLocation::Host));
        let stats = dev.uvm_stats();
        assert_eq!(stats.device_faults, 1);
        assert_eq!(stats.host_faults, 1);
    }

    #[test]
    fn uvm_prefetch_avoids_faults() {
        let (dev, space) = device();
        let buf = alloc(&space, 4, "managed");
        dev.uvm_register(buf, 4 * PAGE_SIZE);
        let s = dev.create_stream();
        dev.uvm_prefetch(buf, 4 * PAGE_SIZE, true, s).unwrap();
        let desc = KernelDesc {
            args: vec![buf.as_u64()],
            ..KernelDesc::timing_only("k", LaunchDims::linear(1, 1), KernelCost::compute(10))
        };
        dev.launch_kernel(s, &desc).unwrap();
        assert_eq!(dev.uvm_stats().device_faults, 0);
    }

    #[test]
    fn invalid_stream_and_event_are_reported() {
        let (dev, space) = device();
        let (src, dst) = (alloc(&space, 1, "src"), alloc(&space, 1, "dst"));
        space.write_bytes(src, &[7u8; 64]).unwrap();
        let managed = alloc(&space, 1, "managed");
        dev.uvm_register(managed, PAGE_SIZE);
        let bad = StreamId(42);
        let desc = KernelDesc::with_body(
            "k",
            LaunchDims::linear(1, 1),
            KernelCost::compute(1),
            vec![managed.as_u64()],
            |_| Ok(()),
        );
        // Each refused call leaves the bytes, the UVM residency and the UVM
        // counters exactly as they were: the stream is checked first.
        let refused: [&dyn Fn() -> Result<(), GpuError>; 6] = [
            &|| dev.launch_kernel(bad, &desc).map(drop),
            &|| dev.memcpy_h2d(dst, src, 64, Some(bad)),
            &|| dev.memcpy_d2h(dst, src, 64, Some(bad)),
            &|| dev.memcpy_d2d(dst, src, 64, Some(bad)),
            &|| dev.memset(dst, 0xAB, 64, Some(bad)),
            &|| dev.uvm_prefetch(managed, PAGE_SIZE, true, bad),
        ];
        for call in refused {
            assert_eq!(call(), Err(GpuError::InvalidStream(bad)));
            let mut out = [0xEEu8; 64];
            space.read_bytes(dst, &mut out).unwrap();
            assert_eq!(out, [0u8; 64]);
            assert_eq!(dev.uvm_location_of(managed), Some(PageLocation::Host));
            assert_eq!(dev.uvm_stats(), UvmStats::default());
        }
        assert!(matches!(
            dev.event_complete(EventId(99)),
            Err(GpuError::InvalidEvent(_))
        ));
        assert!(matches!(
            dev.destroy_stream(StreamId(42)),
            Err(GpuError::InvalidStream(_))
        ));
    }

    #[test]
    fn restart_device_shares_clock() {
        let (dev, space) = device();
        dev.clock().advance(12345);
        let dev2 = GpuDevice::with_clock(
            DeviceProfile::test_profile(),
            space,
            Arc::clone(dev.clock()),
        );
        assert_eq!(dev2.clock().now(), 12345);
        // Fresh device has no streams, metrics or UVM state.
        assert_eq!(dev2.live_streams(), 0);
        assert_eq!(dev2.metrics(), GpuMetrics::default());
        assert!(dev2.uvm_ranges().is_empty());
    }
}
