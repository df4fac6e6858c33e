//! Virtual handles, the kernel registry and CRAC's shared interposition
//! state.
//!
//! The application must keep working after a restart even though every
//! lower-half resource (stream, event, registered kernel, fat binary) has
//! been destroyed and recreated.  CRAC therefore hands the application
//! *virtual* handles and keeps a translation table to the current lower-half
//! handles; restart rebuilds the table without the application noticing.
//! (Pointers are deliberately *not* virtualised — the whole point of
//! log-and-replay is to reproduce them exactly.)

use std::collections::BTreeMap;
use std::sync::Arc;

use crac_addrspace::Addr;
use crac_cudart::{CudaRuntime, FatBinaryHandle, FunctionHandle};
use crac_gpu::kernel::KernelBody;
use crac_gpu::{EventId, StreamId};
use crac_splitproc::TrampolineTable;

use crate::log::{CudaCallLog, LoggedCall};
use crate::mallocs::{ActiveMallocs, AllocKind};
use crate::process::CracError;

/// Application-visible stream handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CracStream(pub u64);

impl CracStream {
    /// The default (legacy) stream.
    pub const DEFAULT: CracStream = CracStream(0);
}

/// Application-visible event handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CracEvent(pub u64);

/// Application-visible kernel (function) handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CracKernel(pub u64);

/// Application-visible fat-binary handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CracFatBinary(pub u64);

/// The application's kernel code, keyed by symbol name.
///
/// Real kernels are device code inside the application's fat binary, which
/// survives checkpoint/restart because it is upper-half memory.  Rust
/// closures cannot be serialised into the checkpoint image, so the registry
/// plays the role of "the kernel code in the restored application binary":
/// the same registry object is handed to [`crate::CracProcess::restart`],
/// which re-registers every kernel by name.
#[derive(Default)]
pub struct KernelRegistry {
    kernels: BTreeMap<String, KernelBody>,
}

impl KernelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a kernel body under `name`.
    pub fn insert<F>(&mut self, name: &str, body: F)
    where
        F: Fn(&crac_gpu::KernelCtx) -> Result<(), crac_addrspace::MemError> + Send + Sync + 'static,
    {
        self.kernels.insert(name.to_string(), Arc::new(body));
    }

    /// Looks up a kernel body.
    pub fn get(&self, name: &str) -> Option<KernelBody> {
        self.kernels.get(name).cloned()
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` if the registry holds no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

/// A buffer staged to the upper half at checkpoint time: the contents of one
/// active device or managed allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StagedBuffer {
    /// Original allocation address.
    pub ptr: u64,
    /// Allocation size in bytes.
    pub len: u64,
    /// Upper-half staging address holding the drained contents.
    pub staging: u64,
}

/// Virtual handle → current lower-half resource, for every kind of handle
/// the application holds.  One table type in both execution modes — inside
/// [`CracState`] under CRAC, bare in a native session — so a virtual handle
/// means the same thing in both.
#[derive(Debug, Default)]
pub struct HandleTable {
    /// Virtual stream → lower-half stream.
    pub streams: BTreeMap<u64, StreamId>,
    /// Virtual event → lower-half event.
    pub events: BTreeMap<u64, EventId>,
    /// Virtual fat binary → lower-half handle.
    pub fatbins: BTreeMap<u64, FatBinaryHandle>,
    /// Virtual kernel → (name, owning virtual fat binary, lower-half handle).
    pub kernels: BTreeMap<u64, (String, u64, FunctionHandle)>,
    /// The last virtual handle handed out (one counter for all four kinds;
    /// 0, where it starts, is the default stream).
    pub last_handle: u64,
}

impl HandleTable {
    /// Hands out the next virtual handle.
    pub fn fresh_handle(&mut self) -> u64 {
        self.last_handle += 1;
        self.last_handle
    }

    /// Translates a virtual stream.
    pub fn stream(&self, s: CracStream) -> Result<StreamId, CracError> {
        if s == CracStream::DEFAULT {
            return Ok(StreamId::DEFAULT);
        }
        let found = self.streams.get(&s.0).copied();
        found.ok_or(CracError::InvalidHandle("stream"))
    }

    /// Translates a virtual event.
    pub fn event(&self, e: CracEvent) -> Result<EventId, CracError> {
        let found = self.events.get(&e.0).copied();
        found.ok_or(CracError::InvalidHandle("event"))
    }

    /// Translates a virtual fat binary.
    fn fatbin(&self, vfatbin: u64) -> Result<FatBinaryHandle, CracError> {
        let found = self.fatbins.get(&vfatbin).copied();
        found.ok_or(CracError::InvalidHandle("fat binary"))
    }

    /// Translates a virtual kernel.  A kernel goes away with its fat binary.
    pub fn kernel(&self, k: CracKernel) -> Result<FunctionHandle, CracError> {
        let found = self.kernels.get(&k.0).map(|(_, _, h)| *h);
        found.ok_or(CracError::InvalidHandle("kernel"))
    }
}

/// CRAC's interposition state, shared between the process object and the
/// DMTCP plugin.  Everything but `staging` is a fold of `log`:
/// [`CracState::apply`] is the step, an interposed call takes one step and
/// restart takes them all again.
#[derive(Debug, Default)]
pub struct CracState {
    /// The replay log: the logged calls in the order the library executed
    /// them.
    pub log: CudaCallLog,
    /// Active allocations (the set whose contents get drained).
    pub mallocs: ActiveMallocs,
    /// The application's virtual handles.
    pub handles: HandleTable,
    /// Buffers staged at the last pre-checkpoint (cleared on resume).
    pub staging: Vec<StagedBuffer>,
}

impl CracState {
    /// Executes one logged call — cross the trampoline, call the library,
    /// bind or drop virtual handles, update the active mallocs — and appends
    /// it to the log, completed with what the library returned.  The only
    /// place a [`LoggedCall`] meets a runtime: an interposed call passes the
    /// request (outputs zero), replay the logged entry, and compares.  The
    /// caller holds the state lock across the step, so the log's order is the
    /// library's execution order.
    ///
    /// `replay` marks the one call that differs at restart: a pinned buffer's
    /// bytes come back with the upper half, so `MallocHost` re-registers the
    /// logged pointer instead of allocating (Section 3.2.4).
    ///
    /// Returns what the application receives (`LoggedCall::returned` of the
    /// completed entry).  A failed call changes nothing and is not logged.
    pub fn apply(
        &mut self,
        mut call: LoggedCall,
        rt: &CudaRuntime,
        trampolines: &TrampolineTable,
        registry: &KernelRegistry,
        replay: bool,
    ) -> Result<u64, CracError> {
        let tables = &mut self.handles;
        match &mut call {
            LoggedCall::Malloc { size, ptr } => {
                *ptr = trampolines.call(|| rt.malloc(*size))?.as_u64();
                self.mallocs.insert(Addr(*ptr), *size, AllocKind::Device);
            }
            LoggedCall::MallocHost { size, ptr } => {
                if replay {
                    trampolines.call(|| rt.host_register(Addr(*ptr), *size))?;
                } else {
                    *ptr = trampolines.call(|| rt.malloc_host(*size))?.as_u64();
                }
                self.mallocs
                    .insert(Addr(*ptr), *size, AllocKind::PinnedHost);
            }
            LoggedCall::MallocManaged { size, ptr } => {
                *ptr = trampolines.call(|| rt.malloc_managed(*size))?.as_u64();
                self.mallocs.insert(Addr(*ptr), *size, AllocKind::Managed);
            }
            LoggedCall::Free { ptr } => {
                trampolines.call(|| rt.free(Addr(*ptr)))?;
                self.mallocs.remove(Addr(*ptr));
            }
            LoggedCall::StreamCreate { vstream } => {
                let s = trampolines.call(|| rt.stream_create())?;
                *vstream = tables.fresh_handle();
                tables.streams.insert(*vstream, s);
            }
            LoggedCall::StreamDestroy { vstream } => {
                let s = tables.stream(CracStream(*vstream))?;
                trampolines.call(|| rt.stream_destroy(s))?;
                tables.streams.remove(vstream);
            }
            LoggedCall::EventCreate { vevent } => {
                let e = trampolines.call(|| rt.event_create())?;
                *vevent = tables.fresh_handle();
                tables.events.insert(*vevent, e);
            }
            LoggedCall::EventDestroy { vevent } => {
                let e = tables.event(CracEvent(*vevent))?;
                trampolines.call(|| rt.event_destroy(e))?;
                tables.events.remove(vevent);
            }
            LoggedCall::RegisterFatBinary { vfatbin } => {
                let fb = trampolines.call(|| rt.register_fat_binary());
                *vfatbin = tables.fresh_handle();
                tables.fatbins.insert(*vfatbin, fb);
            }
            LoggedCall::RegisterFunction {
                vfatbin,
                vfunction,
                name,
            } => {
                let fb = tables.fatbin(*vfatbin)?;
                let body = registry.get(name);
                let f = trampolines.call(|| rt.register_function(fb, name, body))?;
                *vfunction = tables.fresh_handle();
                tables
                    .kernels
                    .insert(*vfunction, (name.clone(), *vfatbin, f));
            }
            LoggedCall::UnregisterFatBinary { vfatbin } => {
                let fb = tables.fatbin(*vfatbin)?;
                trampolines.call(|| rt.unregister_fat_binary(fb))?;
                tables.fatbins.remove(vfatbin);
                // The library dropped the fat binary's kernels with it.
                tables.kernels.retain(|_, (_, owner, _)| owner != vfatbin);
            }
        }
        let returned = call.returned();
        self.log.push(call);
        Ok(returned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_registry_insert_and_lookup() {
        let mut reg = KernelRegistry::new();
        assert!(reg.is_empty());
        reg.insert("axpy", |_ctx| Ok(()));
        reg.insert("gemm", |_ctx| Ok(()));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("axpy").is_some());
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn fresh_handles_are_unique_and_start_after_default_stream() {
        let mut st = HandleTable::default();
        let a = st.fresh_handle();
        let b = st.fresh_handle();
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_ne!(a, CracStream::DEFAULT.0);
    }
}
