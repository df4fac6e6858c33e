//! Benchmark applications for the CRAC reproduction.
//!
//! The paper evaluates CRAC with six application families (Table 1): the
//! Rodinia suite (14 applications), two stream-oriented NVIDIA samples
//! (`simpleStreams` and `UnifiedMemoryStreams`), and three DOE codes
//! (LULESH, HPGMG-FV, HYPRE), plus a cuBLAS micro-benchmark for the
//! proxy/IPC comparison of Table 3.  None of those codes can run here (no
//! GPU, no CUDA), so this crate provides synthetic equivalents written
//! against the reproduction's CUDA API.  Each synthetic application is
//! calibrated to the characteristics the paper reports and that the
//! experiments actually exercise: CUDA-calls-per-second, number of kernel
//! launches, stream count, UVM usage, and memory footprint.
//!
//! * [`session`] — a mode-agnostic session type so the same application code
//!   runs **natively** (directly against the CUDA runtime) or **under CRAC**
//!   (through the split-process interposition layer).
//! * [`kernels`] — the kernel bodies the applications register.
//! * [`apps`] — the generic synthetic-application engine plus the
//!   specification of every Rodinia, stream-oriented and real-world
//!   application.
//! * [`simple_streams`] — the `simpleStreams` sample, which needs its own
//!   driver because Figure 4b reports per-kernel streamed vs non-streamed
//!   execution times.
//! * [`cublas_micro`] — the Table 3 micro-benchmark (native / CRAC /
//!   CMA-IPC).
//! * [`ipc`] — the CMA/IPC proxy cost model Table 3's IPC column charges.
//! * [`runner`] — run an application natively or under CRAC, optionally
//!   checkpointing mid-run and measuring restart.

pub mod apps;
pub mod cublas_micro;
pub mod ipc;
pub mod kernels;
pub mod runner;
pub mod session;
pub mod simple_streams;

pub use apps::{all_rodinia, hpgmg, hypre, lulesh, unified_memory_streams, AppSpec, RunResult};
pub use cublas_micro::{run_table3, Table3Row};
pub use runner::{run_crac, run_crac_with_checkpoint, run_native, CracRunResult, ExecMode};
pub use session::Session;
