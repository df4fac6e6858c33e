//! Log-and-replay: rebuilding the CUDA library's state at restart.
//!
//! The entire original sequence of logged calls is taken again against the
//! fresh lower-half runtime — each entry through [`CracState::apply`], the
//! same step the interposed call took when it was recorded — so that,
//! relying on the library's deterministic arena allocation and the disabled
//! ASLR, every active allocation reappears at its original address and every
//! stream, event, fat binary and kernel is recreated under the virtual handle
//! the application still holds.  The state the fold arrives at *is* the
//! restarted process's interposition state; nothing else about it is stored
//! in the image.  An entry that comes out differently is a hard error: it
//! means the determinism assumption was violated (e.g. a different GPU/CUDA
//! platform on restart, which the paper explicitly requires to be the same),
//! or that the log is not one this implementation could have recorded.

use crac_cudart::CudaRuntime;
use crac_splitproc::TrampolineTable;

use crate::interpose::{CracState, KernelRegistry};
use crate::log::CudaCallLog;
use crate::process::CracError;

/// What a replay arrives at.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The interposition state the log folds to: the log itself, the active
    /// mallocs and the virtual handles bound to the new lower-half
    /// resources.
    pub state: CracState,
    /// Number of log entries replayed.
    pub calls_replayed: usize,
}

/// Replays `log` against a fresh runtime through the new trampoline table.
pub fn replay_log(
    log: &CudaCallLog,
    runtime: &CudaRuntime,
    trampolines: &TrampolineTable,
    registry: &KernelRegistry,
) -> Result<ReplayOutcome, CracError> {
    let mut state = CracState::default();
    for (call_index, call) in log.iter().enumerate() {
        let expected = call.returned();
        let got = state.apply(call.clone(), runtime, trampolines, registry, true)?;
        if got != expected {
            return Err(CracError::ReplayMismatch {
                call_index,
                expected,
                got,
            });
        }
    }
    Ok(ReplayOutcome {
        state,
        calls_replayed: log.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LoggedCall;
    use crate::mallocs::AllocKind;
    use crac_addrspace::{Addr, SharedSpace};
    use crac_cudart::RuntimeConfig;
    use crac_gpu::VirtualClock;
    use crac_splitproc::FsRegisterMode;

    fn fresh_runtime() -> (std::sync::Arc<CudaRuntime>, TrampolineTable) {
        let space = SharedSpace::new_no_aslr();
        let rt = CudaRuntime::new(RuntimeConfig::test(), space);
        let tramp = TrampolineTable::new(FsRegisterMode::KernelCall, VirtualClock::new_shared());
        (rt, tramp)
    }

    /// Runs an allocation history against one runtime the way the
    /// interposer does — one `apply` per call — and returns the state it
    /// left behind.
    fn record_history() -> CracState {
        let (rt, tramp) = fresh_runtime();
        let registry = KernelRegistry::new();
        let mut st = CracState::default();
        let mut step = |call| st.apply(call, &rt, &tramp, &registry, false).unwrap();
        let a = step(LoggedCall::Malloc { size: 1000, ptr: 0 });
        step(LoggedCall::MallocManaged {
            size: 64 * 1024,
            ptr: 0,
        });
        step(LoggedCall::Malloc { size: 2000, ptr: 0 });
        step(LoggedCall::Free { ptr: a });
        step(LoggedCall::Malloc { size: 1000, ptr: 0 });
        st
    }

    #[test]
    fn replay_reproduces_every_pointer() {
        let recorded = record_history();
        let (rt2, tramp) = fresh_runtime();
        let registry = KernelRegistry::new();
        let out = replay_log(&recorded.log, &rt2, &tramp, &registry).unwrap();
        assert_eq!(out.calls_replayed, recorded.log.len());
        // The fold arrives at the recorded state: same log, same active set
        // (which is why the image stores neither the set nor its kinds).
        assert_eq!(out.state.log, recorded.log);
        assert_eq!(out.state.mallocs, recorded.mallocs);
        assert_eq!(recorded.mallocs.len(), 3);
        // The survivors are active on the fresh runtime at the same addresses.
        for (ptr, _, _) in recorded.mallocs.iter() {
            assert_ne!(
                rt2.pointer_kind(ptr),
                crac_cudart::DevicePointerKind::NotCuda,
                "pointer {ptr:?} not active after replay"
            );
        }
        // Crossings were charged for every replayed call.
        assert_eq!(tramp.crossings() as usize, recorded.log.len());
    }

    #[test]
    fn mismatch_is_detected() {
        let log = record_history().log;
        let (rt2, tramp) = fresh_runtime();
        // Poison determinism: allocate something extra before replaying.
        rt2.malloc(4096).unwrap();
        let err = replay_log(&log, &rt2, &tramp, &KernelRegistry::new()).unwrap_err();
        assert!(matches!(err, CracError::ReplayMismatch { .. }));
    }

    #[test]
    fn a_flipped_allocation_family_is_a_mismatch() {
        // The family is not stored beside the log: it *is* the entry's
        // variant, so a log that lies about it cannot reproduce the pointers.
        let mut log = CudaCallLog::new();
        for call in record_history().log.iter() {
            log.push(match call {
                LoggedCall::Malloc { size, ptr } => LoggedCall::MallocManaged {
                    size: *size,
                    ptr: *ptr,
                },
                other => other.clone(),
            });
        }
        let (rt2, tramp) = fresh_runtime();
        let err = replay_log(&log, &rt2, &tramp, &KernelRegistry::new()).unwrap_err();
        assert!(matches!(err, CracError::ReplayMismatch { .. }), "{err}");
    }

    fn handle_log() -> CudaCallLog {
        let mut log = CudaCallLog::new();
        log.push(LoggedCall::RegisterFatBinary { vfatbin: 1 });
        log.push(LoggedCall::RegisterFunction {
            vfatbin: 1,
            vfunction: 2,
            name: "axpy".to_string(),
        });
        log.push(LoggedCall::StreamCreate { vstream: 3 });
        log.push(LoggedCall::StreamCreate { vstream: 4 });
        log.push(LoggedCall::StreamDestroy { vstream: 3 });
        log.push(LoggedCall::EventCreate { vevent: 5 });
        log
    }

    #[test]
    fn streams_events_and_kernels_are_recreated_and_bound() {
        let (rt, tramp) = fresh_runtime();
        let mut registry = KernelRegistry::new();
        registry.insert("axpy", |_| Ok(()));
        let out = replay_log(&handle_log(), &rt, &tramp, &registry).unwrap();
        let tables = &out.state.handles;
        assert_eq!(tables.streams.len(), 1);
        assert!(tables.streams.contains_key(&4));
        assert_eq!(tables.events.len(), 1);
        assert_eq!(tables.kernels[&2].0, "axpy");
        assert_eq!(tables.last_handle, 5);
        assert_eq!(rt.live_streams(), 1);
        assert_eq!(rt.registered_kernel_count(), 1);
    }

    #[test]
    fn unregistering_a_fat_binary_drops_its_kernels_from_the_table() {
        let mut log = handle_log();
        log.push(LoggedCall::RegisterFatBinary { vfatbin: 6 });
        log.push(LoggedCall::RegisterFunction {
            vfatbin: 6,
            vfunction: 7,
            name: "gemm".to_string(),
        });
        log.push(LoggedCall::UnregisterFatBinary { vfatbin: 1 });
        let (rt, tramp) = fresh_runtime();
        let out = replay_log(&log, &rt, &tramp, &KernelRegistry::new()).unwrap();
        let kernels = &out.state.handles.kernels;
        assert_eq!(kernels.keys().collect::<Vec<_>>(), [&7]);
        assert_eq!(rt.registered_kernel_count(), 1);
    }

    #[test]
    fn a_virtual_handle_out_of_sequence_is_a_mismatch() {
        // Fresh handles are 1, 2, 3, … in log order, so the fold re-derives
        // them; an entry that claims another one was not recorded by us.
        let mut log = CudaCallLog::new();
        log.push(LoggedCall::StreamCreate { vstream: 1 });
        log.push(LoggedCall::EventCreate { vevent: 1 });
        let (rt, tramp) = fresh_runtime();
        let err = replay_log(&log, &rt, &tramp, &KernelRegistry::new()).unwrap_err();
        assert_eq!(
            err,
            CracError::ReplayMismatch {
                call_index: 1,
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn unknown_handles_in_the_log_are_errors() {
        let mut log = CudaCallLog::new();
        log.push(LoggedCall::RegisterFunction {
            vfatbin: 99,
            vfunction: 1,
            name: "k".to_string(),
        });
        let (rt, tramp) = fresh_runtime();
        let err = replay_log(&log, &rt, &tramp, &KernelRegistry::new()).unwrap_err();
        assert_eq!(err, CracError::InvalidHandle("fat binary"));
        let mut log = CudaCallLog::new();
        log.push(LoggedCall::StreamDestroy { vstream: 3 });
        let err = replay_log(&log, &rt, &tramp, &KernelRegistry::new()).unwrap_err();
        assert_eq!(err, CracError::InvalidHandle("stream"));
        assert_eq!(tramp.crossings(), 0, "a refused entry never crosses");
    }

    #[test]
    fn host_register_is_used_for_pinned_buffers() {
        // Record on runtime 1 (pinned buffer lives in the upper half).
        let space = SharedSpace::new_no_aslr();
        let rt1 = CudaRuntime::new(RuntimeConfig::test(), space.clone());
        let tramp = TrampolineTable::new(FsRegisterMode::KernelCall, VirtualClock::new_shared());
        let registry = KernelRegistry::new();
        let mut st = CracState::default();
        let call = LoggedCall::MallocHost { size: 4096, ptr: 0 };
        let pinned = Addr(st.apply(call, &rt1, &tramp, &registry, false).unwrap());
        // Replay on a fresh runtime over the SAME space (as restart does):
        // the buffer is adopted rather than reallocated.
        let rt2 = CudaRuntime::new(RuntimeConfig::test(), space);
        let out = replay_log(&st.log, &rt2, &tramp, &registry).unwrap();
        assert_eq!(
            rt2.pointer_kind(pinned),
            crac_cudart::DevicePointerKind::PinnedHost
        );
        assert_eq!(
            out.state.mallocs.get(pinned),
            Some((4096, AllocKind::PinnedHost))
        );
    }
}
