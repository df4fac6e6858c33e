//! A mode-agnostic CUDA session so the same application code runs natively
//! or under CRAC.

use std::sync::Arc;

use crac_sync::Mutex;

use crac_addrspace::{Addr, SharedSpace};
use crac_core::interpose::HandleTable;
use crac_core::{CracConfig, CracEvent, CracKernel, CracProcess, CracStream, KernelRegistry};
use crac_cudart::{CudaRuntime, FatBinaryHandle, MemcpyKind, RuntimeConfig};
use crac_gpu::{KernelCost, LaunchDims};

/// Error type shared by both modes (stringly typed: the workloads only need
/// to propagate, not to match).
pub type SessionError = String;

/// Result alias for session operations.
pub type SessionResult<T> = Result<T, SessionError>;

/// A running CUDA application, either native or under CRAC.
///
/// Handles (`CracStream`, `CracEvent`, `CracKernel`) are reused for both
/// modes, and so is the table that translates them: in native mode the
/// session keeps a bare [`HandleTable`], under CRAC the process keeps one
/// inside its replayable state.
pub enum Session {
    /// Direct calls into the CUDA runtime — the paper's "native" baseline.
    Native(NativeSession),
    /// Calls interposed by CRAC (split process, trampolines, logging).
    Crac(Box<CracProcess>),
}

/// The native (no checkpointing) execution mode.
pub struct NativeSession {
    runtime: Arc<CudaRuntime>,
    registry: Arc<KernelRegistry>,
    fatbin: FatBinaryHandle,
    handles: Mutex<HandleTable>,
}

impl NativeSession {
    fn new(config: RuntimeConfig, registry: Arc<KernelRegistry>) -> Self {
        let runtime = CudaRuntime::new(config, SharedSpace::new_no_aslr());
        let fatbin = runtime.register_fat_binary();
        Self {
            runtime,
            registry,
            fatbin,
            handles: Mutex::new("workloads.session.state", HandleTable::default()),
        }
    }
}

impl Session {
    /// Launches a native session.
    pub fn native(config: RuntimeConfig, registry: Arc<KernelRegistry>) -> Self {
        Session::Native(NativeSession::new(config, registry))
    }

    /// Launches an application under CRAC.
    pub fn crac(config: CracConfig, registry: Arc<KernelRegistry>) -> Self {
        Session::Crac(Box::new(CracProcess::launch(config, registry)))
    }

    /// Wraps an already-running CRAC process (e.g. one that was just
    /// restarted from a checkpoint image).
    pub fn from_crac(proc: CracProcess) -> Self {
        Session::Crac(Box::new(proc))
    }

    /// The CRAC process inside, if this session runs under CRAC.
    pub fn as_crac(&self) -> Option<&CracProcess> {
        match self {
            Session::Crac(p) => Some(p),
            Session::Native(_) => None,
        }
    }

    /// The simulated address space.
    pub fn space(&self) -> SharedSpace {
        match self {
            Session::Native(n) => n.runtime.space().clone(),
            Session::Crac(p) => p.space().clone(),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self {
            Session::Native(n) => n.runtime.device().clock().now(),
            Session::Crac(p) => p.now_ns(),
        }
    }

    /// Current virtual time in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// The paper's "total CUDA calls" counter (3 × launches + other API).
    pub fn total_cuda_calls(&self) -> u64 {
        match self {
            Session::Native(n) => n.runtime.counters().total_cuda_calls(),
            Session::Crac(p) => p.counters().total_cuda_calls(),
        }
    }

    /// The device profile this session runs on.
    pub fn device_profile(&self) -> crac_gpu::DeviceProfile {
        match self {
            Session::Native(n) => n.profile(),
            Session::Crac(p) => p.config().runtime.profile.clone(),
        }
    }

    /// UVM fault/migration counters.
    pub fn uvm_stats(&self) -> crac_gpu::UvmStats {
        match self {
            Session::Native(n) => n.uvm_stats(),
            Session::Crac(p) => p.uvm_stats(),
        }
    }

    /// Peak number of concurrently scheduled kernels observed by the device.
    pub fn peak_concurrent_kernels(&self) -> usize {
        match self {
            Session::Native(n) => n.runtime.device().peak_concurrent_kernels(),
            Session::Crac(p) => p.runtime().device().peak_concurrent_kernels(),
        }
    }

    /// Registers a kernel by name (body taken from the session's registry).
    pub fn register_kernel(&self, name: &str) -> SessionResult<CracKernel> {
        match self {
            Session::Native(n) => {
                let body = n.registry.get(name);
                let h = n
                    .runtime
                    .register_function(n.fatbin, name, body)
                    .map_err(|e| e.to_string())?;
                let mut st = n.handles.lock();
                let v = st.fresh_handle();
                st.kernels.insert(v, (name.to_string(), 0, h));
                Ok(CracKernel(v))
            }
            Session::Crac(p) => {
                // One fat binary per kernel: each registration is a
                // `__cudaRegisterFatBinary` + `__cudaRegisterFunction` pair
                // in the call counts and in the replay log.
                let fatbin = p.register_fat_binary();
                p.register_function(fatbin, name).map_err(|e| e.to_string())
            }
        }
    }

    /// `cudaMalloc`.
    pub fn malloc(&self, bytes: u64) -> SessionResult<Addr> {
        match self {
            Session::Native(n) => n.runtime.malloc(bytes).map_err(|e| e.to_string()),
            Session::Crac(p) => p.malloc(bytes).map_err(|e| e.to_string()),
        }
    }

    /// `cudaMallocHost`.
    pub fn malloc_host(&self, bytes: u64) -> SessionResult<Addr> {
        match self {
            Session::Native(n) => n.runtime.malloc_host(bytes).map_err(|e| e.to_string()),
            Session::Crac(p) => p.malloc_host(bytes).map_err(|e| e.to_string()),
        }
    }

    /// `cudaMallocManaged`.
    pub fn malloc_managed(&self, bytes: u64) -> SessionResult<Addr> {
        match self {
            Session::Native(n) => n.runtime.malloc_managed(bytes).map_err(|e| e.to_string()),
            Session::Crac(p) => p.malloc_managed(bytes).map_err(|e| e.to_string()),
        }
    }

    /// `cudaFree`.
    pub fn free(&self, ptr: Addr) -> SessionResult<()> {
        match self {
            Session::Native(n) => n.runtime.free(ptr).map_err(|e| e.to_string()),
            Session::Crac(p) => p.free(ptr).map_err(|e| e.to_string()),
        }
    }

    /// `cudaMemcpy`.
    pub fn memcpy(&self, dst: Addr, src: Addr, bytes: u64, kind: MemcpyKind) -> SessionResult<()> {
        match self {
            Session::Native(n) => n
                .runtime
                .memcpy(dst, src, bytes, kind)
                .map_err(|e| e.to_string()),
            Session::Crac(p) => p.memcpy(dst, src, bytes, kind).map_err(|e| e.to_string()),
        }
    }

    /// `cudaMemcpyAsync`.
    pub fn memcpy_async(
        &self,
        dst: Addr,
        src: Addr,
        bytes: u64,
        kind: MemcpyKind,
        stream: CracStream,
    ) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let s = n.translate(|h| h.stream(stream))?;
                n.runtime
                    .memcpy_async(dst, src, bytes, kind, s)
                    .map_err(|e| e.to_string())
            }
            Session::Crac(p) => p
                .memcpy_async(dst, src, bytes, kind, stream)
                .map_err(|e| e.to_string()),
        }
    }

    /// `cudaMemset`.
    pub fn memset(&self, ptr: Addr, value: u8, bytes: u64) -> SessionResult<()> {
        match self {
            Session::Native(n) => n
                .runtime
                .memset(ptr, value, bytes)
                .map_err(|e| e.to_string()),
            Session::Crac(p) => p.memset(ptr, value, bytes).map_err(|e| e.to_string()),
        }
    }

    /// `cudaMemPrefetchAsync`.
    pub fn mem_prefetch_async(
        &self,
        ptr: Addr,
        bytes: u64,
        to_device: bool,
        stream: CracStream,
    ) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let s = n.translate(|h| h.stream(stream))?;
                n.runtime
                    .mem_prefetch_async(ptr, bytes, to_device, s)
                    .map_err(|e| e.to_string())
            }
            Session::Crac(p) => p
                .mem_prefetch_async(ptr, bytes, to_device, stream)
                .map_err(|e| e.to_string()),
        }
    }

    /// Host access to managed memory.
    pub fn host_touch_managed(&self, ptr: Addr, bytes: u64) {
        match self {
            Session::Native(n) => n.runtime.host_touch_managed(ptr, bytes),
            Session::Crac(p) => p.host_touch_managed(ptr, bytes),
        }
    }

    /// `cudaStreamCreate`.
    pub fn stream_create(&self) -> SessionResult<CracStream> {
        match self {
            Session::Native(n) => {
                let s = n.runtime.stream_create().map_err(|e| e.to_string())?;
                let mut st = n.handles.lock();
                let v = st.fresh_handle();
                st.streams.insert(v, s);
                Ok(CracStream(v))
            }
            Session::Crac(p) => p.stream_create().map_err(|e| e.to_string()),
        }
    }

    /// `cudaStreamDestroy`.
    pub fn stream_destroy(&self, stream: CracStream) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let s = n.translate(|h| h.stream(stream))?;
                n.handles.lock().streams.remove(&stream.0);
                n.runtime.stream_destroy(s).map_err(|e| e.to_string())
            }
            Session::Crac(p) => p.stream_destroy(stream).map_err(|e| e.to_string()),
        }
    }

    /// `cudaStreamSynchronize`.
    pub fn stream_synchronize(&self, stream: CracStream) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let s = n.translate(|h| h.stream(stream))?;
                n.runtime.stream_synchronize(s).map_err(|e| e.to_string())
            }
            Session::Crac(p) => p.stream_synchronize(stream).map_err(|e| e.to_string()),
        }
    }

    /// `cudaEventCreate`.
    pub fn event_create(&self) -> SessionResult<CracEvent> {
        match self {
            Session::Native(n) => {
                let e = n.runtime.event_create().map_err(|e| e.to_string())?;
                let mut st = n.handles.lock();
                let v = st.fresh_handle();
                st.events.insert(v, e);
                Ok(CracEvent(v))
            }
            Session::Crac(p) => p.event_create().map_err(|e| e.to_string()),
        }
    }

    /// `cudaEventRecord`.
    pub fn event_record(&self, event: CracEvent, stream: CracStream) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let e = n.translate(|h| h.event(event))?;
                let s = n.translate(|h| h.stream(stream))?;
                n.runtime.event_record(e, s).map_err(|e| e.to_string())
            }
            Session::Crac(p) => p.event_record(event, stream).map_err(|e| e.to_string()),
        }
    }

    /// `cudaEventSynchronize`.
    pub fn event_synchronize(&self, event: CracEvent) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let e = n.translate(|h| h.event(event))?;
                n.runtime.event_synchronize(e).map_err(|e| e.to_string())
            }
            Session::Crac(p) => p.event_synchronize(event).map_err(|e| e.to_string()),
        }
    }

    /// `cudaEventElapsedTime` (milliseconds).
    pub fn event_elapsed_ms(&self, start: CracEvent, end: CracEvent) -> SessionResult<f64> {
        match self {
            Session::Native(n) => {
                let s = n.translate(|h| h.event(start))?;
                let e = n.translate(|h| h.event(end))?;
                n.runtime.event_elapsed_ms(s, e).map_err(|e| e.to_string())
            }
            Session::Crac(p) => p.event_elapsed_ms(start, end).map_err(|e| e.to_string()),
        }
    }

    /// `cudaLaunchKernel`.
    pub fn launch(
        &self,
        kernel: CracKernel,
        dims: LaunchDims,
        cost: KernelCost,
        args: Vec<u64>,
        stream: CracStream,
    ) -> SessionResult<()> {
        match self {
            Session::Native(n) => {
                let f = n.translate(|h| h.kernel(kernel))?;
                let s = n.translate(|h| h.stream(stream))?;
                n.runtime
                    .launch_kernel(f, dims, cost, args, s)
                    .map_err(|e| e.to_string())
            }
            Session::Crac(p) => p
                .launch_kernel(kernel, dims, cost, args, stream)
                .map_err(|e| e.to_string()),
        }
    }

    /// `cudaDeviceSynchronize`.
    pub fn device_synchronize(&self) -> SessionResult<()> {
        match self {
            Session::Native(n) => n.runtime.device_synchronize().map_err(|e| e.to_string()),
            Session::Crac(p) => p.device_synchronize().map_err(|e| e.to_string()),
        }
    }
}

impl NativeSession {
    /// The underlying runtime (for metrics and assertions).
    pub fn runtime(&self) -> &Arc<CudaRuntime> {
        &self.runtime
    }

    /// The device profile this session runs on.
    pub fn profile(&self) -> crac_gpu::DeviceProfile {
        self.runtime.config().profile.clone()
    }

    /// UVM fault/migration counters.
    pub fn uvm_stats(&self) -> crac_gpu::UvmStats {
        self.runtime.device().uvm_stats()
    }

    /// Translates virtual handles through the session's table.
    fn translate<T>(
        &self,
        lookup: impl FnOnce(&HandleTable) -> Result<T, crac_core::CracError>,
    ) -> SessionResult<T> {
        lookup(&self.handles.lock()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::registry;

    fn both_sessions() -> Vec<Session> {
        vec![
            Session::native(RuntimeConfig::test(), registry()),
            Session::crac(CracConfig::test("session-test"), registry()),
        ]
    }

    #[test]
    fn same_application_code_runs_in_both_modes() {
        for session in both_sessions() {
            let k = session.register_kernel("iota").unwrap();
            let dev = session.malloc(1024).unwrap();
            let s = session.stream_create().unwrap();
            session
                .launch(
                    k,
                    LaunchDims::linear(1, 64),
                    KernelCost::new(256, 1024),
                    vec![dev.as_u64(), 256],
                    s,
                )
                .unwrap();
            session.stream_synchronize(s).unwrap();
            let mut out = vec![0f32; 256];
            session.space().read_f32(dev, &mut out).unwrap();
            assert_eq!(out[200], 200.0);
            session.free(dev).unwrap();
            session.stream_destroy(s).unwrap();
            assert!(session.total_cuda_calls() > 0);
            assert!(session.now_ns() > 0);
        }
    }

    #[test]
    fn events_measure_kernel_time_in_both_modes() {
        for session in both_sessions() {
            let k = session.register_kernel("work").unwrap();
            let s = session.stream_create().unwrap();
            let start = session.event_create().unwrap();
            let end = session.event_create().unwrap();
            session.event_record(start, s).unwrap();
            session
                .launch(
                    k,
                    LaunchDims::linear(8, 128),
                    KernelCost::compute(5_000_000),
                    vec![],
                    s,
                )
                .unwrap();
            session.event_record(end, s).unwrap();
            session.event_synchronize(end).unwrap();
            let ms = session.event_elapsed_ms(start, end).unwrap();
            assert!(ms >= 1.0, "elapsed {ms}");
        }
    }

    #[test]
    fn unknown_handles_are_rejected_in_both_modes() {
        for session in both_sessions() {
            assert!(session.stream_synchronize(CracStream(9999)).is_err());
            assert!(session
                .launch(
                    CracKernel(9999),
                    LaunchDims::linear(1, 1),
                    KernelCost::compute(1),
                    vec![],
                    CracStream::DEFAULT
                )
                .is_err());
        }
    }
}
