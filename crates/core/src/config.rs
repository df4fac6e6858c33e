//! Configuration of a CRAC-managed process.

use crac_cudart::RuntimeConfig;
use crac_dmtcp::coordinator::CoordinatorConfig;
use crac_splitproc::FsRegisterMode;

/// Everything needed to launch (or restart) an application under CRAC.
#[derive(Clone, Debug)]
pub struct CracConfig {
    /// Name of the application (used for mapping labels and reports).
    pub app_name: String,
    /// The lower-half CUDA runtime / GPU configuration.
    pub runtime: RuntimeConfig,
    /// How the fs register is switched on upper→lower crossings
    /// (the Figure 6 experiment toggles this).
    pub fs_mode: FsRegisterMode,
    /// DMTCP coordinator configuration.
    pub ckpt: CoordinatorConfig,
    /// Extra per-crossing cost of CRAC's own bookkeeping (log append, handle
    /// translation), in nanoseconds.
    pub log_overhead_ns: u64,
    /// One-time cost of starting the application under DMTCP, in
    /// nanoseconds.  The paper notes this is why very short Rodinia runs show
    /// a few percent overhead.
    pub dmtcp_startup_ns: u64,
}

impl CracConfig {
    /// Configuration matching the paper's main testbed: a Tesla V100 node.
    pub fn v100(app_name: &str) -> Self {
        Self {
            app_name: app_name.to_string(),
            runtime: RuntimeConfig::v100(),
            fs_mode: FsRegisterMode::KernelCall,
            ckpt: CoordinatorConfig::default(),
            log_overhead_ns: 60,
            dmtcp_startup_ns: 250_000_000, // ~0.25 s of DMTCP launch overhead
        }
    }

    /// Configuration matching the Figure 6 testbed: a Quadro K600 node.
    pub fn k600(app_name: &str) -> Self {
        Self {
            runtime: RuntimeConfig::k600(),
            ..Self::v100(app_name)
        }
    }

    /// Small, fast configuration for unit tests.
    pub fn test(app_name: &str) -> Self {
        Self {
            app_name: app_name.to_string(),
            runtime: RuntimeConfig::test(),
            fs_mode: FsRegisterMode::KernelCall,
            ckpt: CoordinatorConfig::default(),
            log_overhead_ns: 50,
            dmtcp_startup_ns: 1_000_000,
        }
    }

    /// Switches to the FSGSBASE-patched kernel's fs switching.
    pub fn with_fsgsbase(mut self) -> Self {
        self.fs_mode = FsRegisterMode::FsGsBase;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_expected_ways() {
        let v = CracConfig::v100("app");
        let k = CracConfig::k600("app");
        assert_eq!(v.app_name, "app");
        assert_ne!(v.runtime.profile.name, k.runtime.profile.name);
        let f = CracConfig::v100("app").with_fsgsbase();
        assert_eq!(f.fs_mode, FsRegisterMode::FsGsBase);
        assert_eq!(v.fs_mode, FsRegisterMode::KernelCall);
    }
}
