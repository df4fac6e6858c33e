//! Umbrella crate for the CRAC reproduction.
//!
//! The workspace is organised as one crate per subsystem (see README
//! "Workspace layout"); this crate re-exports the pieces a downstream user
//! typically needs and is the home of the runnable examples (`examples/`)
//! and the cross-crate integration tests (`tests/`).
//!
//! ```
//! use std::sync::Arc;
//! use crac_repro::prelude::*;
//!
//! // 1. Describe the application's kernels.
//! let mut kernels = KernelRegistry::new();
//! kernels.insert("fill", |ctx| {
//!     let n = ctx.arg_u64(1) as usize;
//!     ctx.write_f32_arg(0, &vec![1.0; n])
//! });
//! let kernels = Arc::new(kernels);
//!
//! // 2. Launch the application under CRAC.
//! let proc = CracProcess::launch(CracConfig::test("demo"), Arc::clone(&kernels));
//! let fatbin = proc.register_fat_binary();
//! let fill = proc.register_function(fatbin, "fill").unwrap();
//! let buf = proc.malloc(4096).unwrap();
//! proc.launch_kernel(fill, LaunchDims::linear(1, 256), KernelCost::compute(1024),
//!                    vec![buf.as_u64(), 1024], CracStream::DEFAULT).unwrap();
//! proc.device_synchronize().unwrap();
//!
//! // 3. Checkpoint, then restart elsewhere.
//! let report = proc.checkpoint();
//! let (restarted, _) = CracProcess::restart(&report.image, CracConfig::test("demo"),
//!                                           kernels).unwrap();
//! assert!(restarted.runtime().pointer_kind(buf) != crac_repro::cudart::DevicePointerKind::NotCuda);
//! ```

/// Everything a typical user needs in one import.
pub mod prelude {
    pub use crac_addrspace::{Addr, SharedSpace};
    pub use crac_core::{
        CkptReport, CracConfig, CracError, CracEvent, CracFatBinary, CracKernel, CracProcess,
        CracStream, DmtcpPlugin, KernelRegistry, PrecopyConfig, PrecopyStats, RemoteCkptReport,
        RestartReport, StoredCkptReport,
    };
    pub use crac_cudart::{CudaRuntime, MemcpyKind, RuntimeConfig};
    pub use crac_gpu::{DeviceProfile, KernelCost, LaunchDims};
    pub use crac_imagestore::{
        Compression, FaultConfig, FaultyTransport, ImageId, ImageStore, LazyRestoreSession,
        LazyRestoreStats, LoopbackTransport, Transport, WriteOptions,
    };
    pub use crac_workloads::{run_crac, run_crac_with_checkpoint, run_native, Session};
}

pub use crac_addrspace as addrspace;
pub use crac_core as crac;
pub use crac_cudart as cudart;
pub use crac_dmtcp as dmtcp;
pub use crac_gpu as gpu;
pub use crac_imagestore as imagestore;
pub use crac_proxy as proxy;
pub use crac_splitproc as splitproc;
pub use crac_sync as sync;
pub use crac_workloads as workloads;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        // Compile-time check that the re-exports resolve.
        let _cfg = CracConfig::test("prelude");
        let _reg = KernelRegistry::new();
        let _dims = LaunchDims::linear(1, 1);
        let _stream = CracStream::DEFAULT;
    }
}
