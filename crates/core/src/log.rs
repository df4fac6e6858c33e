//! The CUDA call log: everything CRAC must replay at restart.
//!
//! Section 3.2.3/3.2.4: CRAC logs every call in the `cudaMalloc` family (and
//! the matching frees) so that replaying the *entire* sequence against a
//! fresh CUDA library reproduces each active allocation at its original
//! address.  Stream/event lifetimes and fat-binary registrations are logged
//! too, so the corresponding lower-half resources can be recreated and
//! rebound to the application's virtual handles.

use crac_dmtcp::ByteCursor;

use crate::wire::Encoder;

/// One logged CUDA call.
///
/// Pointer-returning calls record the pointer the original execution
/// received and creations the virtual handle the application was given;
/// replay verifies the fresh runtime reproduces both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoggedCall {
    /// `cudaMalloc(size)` returned `ptr`.
    Malloc { size: u64, ptr: u64 },
    /// `cudaMallocHost(size)` returned `ptr`.
    MallocHost { size: u64, ptr: u64 },
    /// `cudaMallocManaged(size)` returned `ptr`.
    MallocManaged { size: u64, ptr: u64 },
    /// `cudaFree(ptr)` (any family; the runtime resolves the owner).
    Free { ptr: u64 },
    /// `cudaStreamCreate` returned the application-visible virtual id.
    StreamCreate { vstream: u64 },
    /// `cudaStreamDestroy` of a virtual id.
    StreamDestroy { vstream: u64 },
    /// `cudaEventCreate` returned the application-visible virtual id.
    EventCreate { vevent: u64 },
    /// `cudaEventDestroy` of a virtual id.
    EventDestroy { vevent: u64 },
    /// `__cudaRegisterFatBinary` returned the virtual handle.
    RegisterFatBinary { vfatbin: u64 },
    /// `__cudaRegisterFunction` under a virtual fat binary.
    RegisterFunction {
        /// Virtual fat-binary handle the function belongs to.
        vfatbin: u64,
        /// Virtual function handle the application holds.
        vfunction: u64,
        /// Kernel symbol name (the key used to rebind after restart).
        name: String,
    },
    /// `__cudaUnregisterFatBinary` of a virtual handle.
    UnregisterFatBinary { vfatbin: u64 },
}

impl LoggedCall {
    /// What the call returned to the application: the pointer of an
    /// allocation, the virtual handle of a creation, 0 for the rest.  These
    /// are the fields `CracState::apply` fills in and replay compares.
    pub(crate) fn returned(&self) -> u64 {
        match self {
            LoggedCall::Malloc { ptr, .. }
            | LoggedCall::MallocHost { ptr, .. }
            | LoggedCall::MallocManaged { ptr, .. } => *ptr,
            LoggedCall::StreamCreate { vstream: v }
            | LoggedCall::EventCreate { vevent: v }
            | LoggedCall::RegisterFatBinary { vfatbin: v }
            | LoggedCall::RegisterFunction { vfunction: v, .. } => *v,
            _ => 0,
        }
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            LoggedCall::Malloc { size, ptr } => e.u8(1).u64(*size).u64(*ptr),
            LoggedCall::MallocHost { size, ptr } => e.u8(2).u64(*size).u64(*ptr),
            LoggedCall::MallocManaged { size, ptr } => e.u8(3).u64(*size).u64(*ptr),
            LoggedCall::Free { ptr } => e.u8(4).u64(*ptr),
            LoggedCall::StreamCreate { vstream } => e.u8(5).u64(*vstream),
            LoggedCall::StreamDestroy { vstream } => e.u8(6).u64(*vstream),
            LoggedCall::EventCreate { vevent } => e.u8(7).u64(*vevent),
            LoggedCall::EventDestroy { vevent } => e.u8(8).u64(*vevent),
            LoggedCall::RegisterFatBinary { vfatbin } => e.u8(9).u64(*vfatbin),
            LoggedCall::RegisterFunction {
                vfatbin,
                vfunction,
                name,
            } => e
                .u8(10)
                .u64(*vfatbin)
                .u64(*vfunction)
                .bytes(name.as_bytes()),
            LoggedCall::UnregisterFatBinary { vfatbin } => e.u8(11).u64(*vfatbin),
        };
    }

    fn decode(d: &mut ByteCursor<'_>) -> Option<Self> {
        Some(match d.u8()? {
            1 => LoggedCall::Malloc {
                size: d.u64()?,
                ptr: d.u64()?,
            },
            2 => LoggedCall::MallocHost {
                size: d.u64()?,
                ptr: d.u64()?,
            },
            3 => LoggedCall::MallocManaged {
                size: d.u64()?,
                ptr: d.u64()?,
            },
            4 => LoggedCall::Free { ptr: d.u64()? },
            5 => LoggedCall::StreamCreate { vstream: d.u64()? },
            6 => LoggedCall::StreamDestroy { vstream: d.u64()? },
            7 => LoggedCall::EventCreate { vevent: d.u64()? },
            8 => LoggedCall::EventDestroy { vevent: d.u64()? },
            9 => LoggedCall::RegisterFatBinary { vfatbin: d.u64()? },
            10 => LoggedCall::RegisterFunction {
                vfatbin: d.u64()?,
                vfunction: d.u64()?,
                name: String::from_utf8(d.bytes()?.to_vec()).ok()?,
            },
            11 => LoggedCall::UnregisterFatBinary { vfatbin: d.u64()? },
            _ => return None,
        })
    }
}

/// The ordered log of replayable CUDA calls.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CudaCallLog {
    calls: Vec<LoggedCall>,
}

impl CudaCallLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a call.
    pub fn push(&mut self, call: LoggedCall) {
        self.calls.push(call);
    }

    /// Number of logged calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Returns `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Iterates over the calls in original order (the order replay must use).
    pub fn iter(&self) -> impl Iterator<Item = &LoggedCall> {
        self.calls.iter()
    }

    /// Serialises the log for the plugin payload.
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.calls.len() as u64);
        for c in &self.calls {
            c.encode(e);
        }
    }

    /// Parses a log previously produced by [`CudaCallLog::encode`].
    pub fn decode(d: &mut ByteCursor<'_>) -> Option<Self> {
        let n = d.u64()? as usize;
        let mut calls = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            calls.push(LoggedCall::decode(d)?);
        }
        Some(Self { calls })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> CudaCallLog {
        let mut log = CudaCallLog::new();
        log.push(LoggedCall::RegisterFatBinary { vfatbin: 1 });
        log.push(LoggedCall::RegisterFunction {
            vfatbin: 1,
            vfunction: 2,
            name: "bfs_kernel".to_string(),
        });
        log.push(LoggedCall::Malloc {
            size: 4096,
            ptr: 0x1000,
        });
        log.push(LoggedCall::MallocManaged {
            size: 1 << 20,
            ptr: 0x200000,
        });
        log.push(LoggedCall::StreamCreate { vstream: 3 });
        log.push(LoggedCall::Free { ptr: 0x1000 });
        log.push(LoggedCall::Malloc {
            size: 4096,
            ptr: 0x1000,
        });
        log.push(LoggedCall::EventCreate { vevent: 4 });
        log.push(LoggedCall::StreamDestroy { vstream: 3 });
        log
    }

    #[test]
    fn log_counts_allocs_and_frees() {
        let log = sample_log();
        assert_eq!(log.len(), 9);
        let frees = log.iter().filter(|c| matches!(c, LoggedCall::Free { .. }));
        assert_eq!(frees.count(), 1);
        // Allocations are the entries that returned a pointer.
        let ptrs: Vec<u64> = log.iter().map(LoggedCall::returned).collect();
        assert_eq!(ptrs, [1, 2, 0x1000, 0x200000, 3, 0, 0x1000, 4, 0]);
        assert!(!log.is_empty());
    }

    #[test]
    fn encode_decode_round_trip_preserves_order_and_content() {
        let log = sample_log();
        let mut e = Encoder::new();
        log.encode(&mut e);
        let data = e.finish();
        let decoded = CudaCallLog::decode(&mut ByteCursor::new(&data)).unwrap();
        assert_eq!(decoded, log);
    }

    #[test]
    fn truncated_or_corrupt_log_is_rejected() {
        let log = sample_log();
        let mut e = Encoder::new();
        log.encode(&mut e);
        let mut data = e.finish();
        assert!(CudaCallLog::decode(&mut ByteCursor::new(&data[..data.len() - 4])).is_none());
        // Corrupt a tag byte (first call's tag is right after the 8-byte count).
        data[8] = 99;
        assert!(CudaCallLog::decode(&mut ByteCursor::new(&data)).is_none());
    }

    #[test]
    fn empty_log_round_trips() {
        let log = CudaCallLog::new();
        let mut e = Encoder::new();
        log.encode(&mut e);
        let decoded = CudaCallLog::decode(&mut ByteCursor::new(&e.finish())).unwrap();
        assert!(decoded.is_empty());
    }
}
