//! The Table 3 micro-benchmark: cuBLAS calls under native, CRAC and a
//! proxy/IPC (CMA) regime.
//!
//! The paper times `cublasSdot`, `cublasSgemv` and `cublasSgemm` with 1 MB,
//! 10 MB and 100 MB operands over a 10 000-call loop and reports the
//! per-call time in milliseconds for: native CUDA, CRAC (the cuBLAS library
//! sits in the lower half and is called directly through the trampoline),
//! and CMA/IPC (the operand buffers are copied to a proxy process before the
//! call and the result copied back — what CRCUDA/CRUM-style systems do).
//! The proxy itself is not simulated: its whole cost is
//! [`ipc_forward_ns`](crate::ipc::ipc_forward_ns), charged to the virtual
//! clock before each call.

use std::sync::Arc;

use crac_addrspace::SharedSpace;
use crac_cudart::{Cublas, CudaRuntime, RuntimeConfig};
use crac_gpu::{StreamId, VirtualClock};
use crac_splitproc::{FsRegisterMode, TrampolineTable};

use crate::ipc::ipc_forward_ns;

/// Which BLAS routine a row measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlasRoutine {
    /// Inner product of two vectors.
    Sdot,
    /// Matrix-vector product.
    Sgemv,
    /// Matrix-matrix product.
    Sgemm,
}

impl BlasRoutine {
    /// Name as printed in Table 3.
    pub fn name(self) -> &'static str {
        match self {
            BlasRoutine::Sdot => "cublasSdot",
            BlasRoutine::Sgemv => "cublasSgemv",
            BlasRoutine::Sgemm => "cublasSgemm",
        }
    }
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The routine measured.
    pub routine: BlasRoutine,
    /// Operand size in MB (1, 10 or 100).
    pub data_mb: u64,
    /// Native per-call time in milliseconds.
    pub native_ms: f64,
    /// CRAC per-call time in milliseconds.
    pub crac_ms: f64,
    /// CRAC overhead over native, in percent.
    pub crac_overhead_pct: f64,
    /// CMA/IPC per-call time in milliseconds.
    pub ipc_ms: f64,
    /// CMA/IPC overhead over native, in percent.
    pub ipc_overhead_pct: f64,
}

struct BlasBench {
    rt: Arc<CudaRuntime>,
    blas: Cublas,
    x: crac_addrspace::Addr,
    y: crac_addrspace::Addr,
    z: crac_addrspace::Addr,
}

impl BlasBench {
    fn new() -> Self {
        let rt = CudaRuntime::new(RuntimeConfig::v100(), SharedSpace::new_no_aslr());
        // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
        let blas = Cublas::new(Arc::clone(&rt)).unwrap();
        // Largest operands are 100 MB; allocate three of them once.
        let bytes = 100 << 20;
        // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
        let x = rt.malloc(bytes).unwrap();
        // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
        let y = rt.malloc(bytes).unwrap();
        // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
        let z = rt.malloc(bytes).unwrap();
        Self { rt, blas, x, y, z }
    }

    /// Issues one call of `routine` with `data_mb` operands and waits for it.
    fn one_call(&self, routine: BlasRoutine, data_mb: u64) {
        match routine {
            BlasRoutine::Sdot => {
                let n = (data_mb << 20) / 4;
                self.blas
                    .sdot(n, self.x, self.y, self.z, StreamId::DEFAULT)
                    // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
                    .unwrap();
            }
            BlasRoutine::Sgemv => {
                let dim = (((data_mb << 20) / 4) as f64).sqrt() as u64;
                self.blas
                    .sgemv(dim, dim, self.x, self.y, self.z, StreamId::DEFAULT)
                    // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
                    .unwrap();
            }
            BlasRoutine::Sgemm => {
                let dim = (((data_mb << 20) / 4) as f64).sqrt() as u64;
                self.blas
                    .sgemm(dim, dim, dim, self.x, self.y, self.z, StreamId::DEFAULT)
                    // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
                    .unwrap();
            }
        }
        // crac-lint: allow(no-unwrap) — deterministic simulated device — an op failure is a harness bug, abort
        self.rt.device_synchronize().unwrap();
    }

    /// Bytes of operand data the application would have to ship to a proxy
    /// for one call (all input operands) and receive back (the result).
    fn ipc_bytes(routine: BlasRoutine, data_mb: u64) -> (u64, u64) {
        let b = data_mb << 20;
        match routine {
            BlasRoutine::Sdot => (2 * b, 4),
            BlasRoutine::Sgemv => (
                b + (b as f64).sqrt() as u64 * 4,
                (b as f64).sqrt() as u64 * 4,
            ),
            BlasRoutine::Sgemm => (2 * b, b),
        }
    }

    fn clock(&self) -> &Arc<VirtualClock> {
        self.rt.device().clock()
    }
}

/// Measures one Table 3 row with `iters` calls per regime.
pub fn measure_row(routine: BlasRoutine, data_mb: u64, iters: u32) -> Table3Row {
    let bench = BlasBench::new();
    let per_call_ms = |total_ns: u64| total_ns as f64 / 1e6 / iters as f64;

    // Native: direct calls.
    let t0 = bench.clock().now();
    for _ in 0..iters {
        bench.one_call(routine, data_mb);
    }
    let native_ms = per_call_ms(bench.clock().now() - t0);

    // CRAC: the same calls, each crossing the upper→lower trampoline with
    // CRAC's per-call bookkeeping cost.
    let trampolines = TrampolineTable::new(FsRegisterMode::KernelCall, Arc::clone(bench.clock()));
    trampolines.set_extra_crossing_cost(120);
    let t0 = bench.clock().now();
    for _ in 0..iters {
        trampolines.call(|| bench.one_call(routine, data_mb));
    }
    let crac_ms = per_call_ms(bench.clock().now() - t0);

    // CMA/IPC: each call additionally ships its operand buffers to the proxy
    // and the result back.
    let (to_proxy, from_proxy) = BlasBench::ipc_bytes(routine, data_mb);
    let t0 = bench.clock().now();
    for _ in 0..iters {
        bench.clock().advance(ipc_forward_ns(to_proxy, from_proxy));
        bench.one_call(routine, data_mb);
    }
    let ipc_ms = per_call_ms(bench.clock().now() - t0);

    Table3Row {
        routine,
        data_mb,
        native_ms,
        crac_ms,
        crac_overhead_pct: (crac_ms - native_ms) / native_ms * 100.0,
        ipc_ms,
        ipc_overhead_pct: (ipc_ms - native_ms) / native_ms * 100.0,
    }
}

/// Regenerates the whole of Table 3 (three routines × three sizes).
pub fn run_table3(iters: u32) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for routine in [BlasRoutine::Sdot, BlasRoutine::Sgemv, BlasRoutine::Sgemm] {
        for data_mb in [1u64, 10, 100] {
            rows.push(measure_row(routine, data_mb, iters));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crac_overhead_is_small_and_ipc_overhead_is_huge() {
        let row = measure_row(BlasRoutine::Sdot, 10, 3);
        assert!(row.native_ms > 0.0);
        // CRAC stays within a few percent of native.
        assert!(
            row.crac_overhead_pct < 5.0,
            "CRAC overhead {:.2}%",
            row.crac_overhead_pct
        );
        // The IPC regime pays orders of magnitude more (paper: 577–17 812 %).
        assert!(
            row.ipc_overhead_pct > 100.0,
            "IPC overhead {:.2}%",
            row.ipc_overhead_pct
        );
    }

    #[test]
    fn ipc_overhead_grows_with_operand_size_for_sdot() {
        let small = measure_row(BlasRoutine::Sdot, 1, 2);
        let large = measure_row(BlasRoutine::Sdot, 100, 2);
        assert!(large.ipc_overhead_pct > small.ipc_overhead_pct);
    }

    #[test]
    fn gemm_is_less_dominated_by_ipc_than_sdot() {
        // Table 3: Sgemm overhead (142–400 %) is far below Sdot's (698–17 766 %)
        // because the O(n³) compute amortises the copies.
        let sdot = measure_row(BlasRoutine::Sdot, 10, 2);
        let gemm = measure_row(BlasRoutine::Sgemm, 10, 2);
        assert!(gemm.ipc_overhead_pct < sdot.ipc_overhead_pct);
    }

    #[test]
    fn full_table_has_nine_rows() {
        let rows = run_table3(1);
        assert_eq!(rows.len(), 9);
        assert!(rows
            .iter()
            .all(|r| r.native_ms > 0.0 && r.ipc_ms > r.native_ms));
    }
}
