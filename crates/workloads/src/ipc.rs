//! The Cross-Memory-Attach (CMA) / IPC cost model behind Table 3's CMA/IPC
//! column.
//!
//! A CRCUDA/CRUM-style proxy copies every operand buffer from the
//! application process to the proxy process (`process_vm_readv`) before the
//! CUDA call and copies results back afterwards.  The proxy itself is not
//! simulated: its whole cost is [`ipc_forward_ns`], a per-call
//! marshalling/syscall overhead plus a per-byte copy well below PCIe
//! bandwidth, charged to the virtual clock before each call.

/// Fixed cost of forwarding one call to the proxy process (~30 µs: two
/// syscalls, marshalling and a proxy wakeup).
pub const IPC_PER_CALL_NS: u64 = 30_000;
/// Cross-Memory-Attach copy bandwidth in bytes per nanosecond (~6 GB/s, in
/// line with the effective `process_vm_readv` rates behind Table 3).
pub const IPC_BYTES_PER_NS: f64 = 6.0;

/// Time to forward one call through a CMA/IPC proxy that ships `to_proxy`
/// operand bytes there and `from_proxy` result bytes back, in nanoseconds.
pub fn ipc_forward_ns(to_proxy: u64, from_proxy: u64) -> u64 {
    let copy_ns = |bytes: u64| (bytes as f64 / IPC_BYTES_PER_NS).ceil() as u64;
    IPC_PER_CALL_NS + copy_ns(to_proxy) + copy_ns(from_proxy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_charges_per_call_and_per_byte() {
        // Bytes are charged at ceil(bytes / 6) ns in each direction.
        assert_eq!(ipc_forward_ns(6_000, 0), IPC_PER_CALL_NS + 1_000);
        assert_eq!(ipc_forward_ns(0, 7), IPC_PER_CALL_NS + 2);
        assert_eq!(ipc_forward_ns(6_001, 3), IPC_PER_CALL_NS + 1_001 + 1);
    }

    #[test]
    fn zero_byte_calls_still_pay_the_per_call_cost() {
        assert_eq!(ipc_forward_ns(0, 0), IPC_PER_CALL_NS);
    }

    #[test]
    fn ipc_is_far_slower_than_direct_calls_for_large_buffers() {
        // The Table 3 effect: for a 100 MB operand the copy dominates
        // (~17 ms, vs ~0.28 ms for the native call).
        assert!(ipc_forward_ns(100 << 20, 0) > 10_000_000);
    }
}
