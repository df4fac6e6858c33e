//! Fat-binary and kernel registration.
//!
//! When a CUDA application starts, compiler-generated constructors call
//! `__cudaRegisterFatBinary` and `__cudaRegisterFunction` so that the CUDA
//! library knows about the kernels embedded in the executable.  Under CRAC
//! the *application* (upper half) survives a restart but the *library*
//! (lower half) is brand new, so CRAC must re-register every fat binary and
//! patch the application's stored handles (Section 3.2.5).  This module is
//! the registry those calls talk to.

use std::collections::BTreeMap;
use std::sync::Arc;

use crac_gpu::kernel::KernelBody;

use crate::error::{CudaError, CudaResult};

/// Handle returned by `__cudaRegisterFatBinary`.  Handles are only meaningful
/// to the registry (runtime) that issued them; after restart the fresh
/// runtime issues *different* handle values, which is why CRAC has to patch
/// the upper half's stored handles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FatBinaryHandle(pub u64);

/// Handle of a registered kernel function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FunctionHandle(pub u64);

/// A registered kernel: its name plus (optionally) a functional body.
#[derive(Clone)]
pub struct RegisteredKernel {
    /// Symbol name of the kernel.
    pub name: String,
    /// Fat binary the kernel belongs to.
    pub fatbin: FatBinaryHandle,
    /// Functional body, if the workload provides one.
    pub body: Option<KernelBody>,
}

/// The registry of fat binaries and kernel functions inside one runtime.
#[derive(Default)]
pub struct FatBinaryRegistry {
    next_fatbin: u64,
    next_function: u64,
    fatbins: BTreeMap<FatBinaryHandle, Vec<FunctionHandle>>,
    functions: BTreeMap<FunctionHandle, RegisteredKernel>,
}

impl FatBinaryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `__cudaRegisterFatBinary`: registers a fat binary and returns its
    /// handle.
    pub fn register_fat_binary(&mut self) -> FatBinaryHandle {
        self.next_fatbin += 1;
        let h = FatBinaryHandle(self.next_fatbin);
        self.fatbins.insert(h, Vec::new());
        h
    }

    /// `__cudaRegisterFunction`: registers a kernel under a fat binary.
    pub fn register_function(
        &mut self,
        fatbin: FatBinaryHandle,
        name: &str,
        body: Option<KernelBody>,
    ) -> CudaResult<FunctionHandle> {
        if !self.fatbins.contains_key(&fatbin) {
            return Err(CudaError::InvalidResourceHandle("fat binary"));
        }
        self.next_function += 1;
        let h = FunctionHandle(self.next_function);
        self.functions.insert(
            h,
            RegisteredKernel {
                name: name.to_string(),
                fatbin,
                body,
            },
        );
        self.fatbins
            .get_mut(&fatbin)
            // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
            .expect("checked above")
            .push(h);
        Ok(h)
    }

    /// `__cudaUnregisterFatBinary`: removes a fat binary and all its kernels.
    pub fn unregister_fat_binary(&mut self, fatbin: FatBinaryHandle) -> CudaResult<()> {
        let functions = self
            .fatbins
            .remove(&fatbin)
            .ok_or(CudaError::InvalidResourceHandle("fat binary"))?;
        for f in functions {
            self.functions.remove(&f);
        }
        Ok(())
    }

    /// Looks up a registered kernel by handle.
    pub fn lookup(&self, function: FunctionHandle) -> CudaResult<&RegisteredKernel> {
        self.functions
            .get(&function)
            .ok_or_else(|| CudaError::KernelNotRegistered(format!("handle {}", function.0)))
    }

    /// Number of registered fat binaries.
    pub fn fatbin_count(&self) -> usize {
        self.fatbins.len()
    }

    /// Number of registered kernel functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }
}

/// A record of registrations performed by the *application*, kept on the
/// upper-half side so that CRAC can replay them against a fresh runtime at
/// restart.  (The registry above belongs to the lower half and is lost.)
#[derive(Clone, Default)]
pub struct FatBinaryManifest {
    /// Kernel name → functional body to re-register.
    pub kernels: Vec<(String, Option<KernelBody>)>,
}

impl FatBinaryManifest {
    /// Creates an empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one kernel.
    pub fn add(&mut self, name: &str, body: Option<KernelBody>) {
        self.kernels.push((name.to_string(), body));
    }

    /// Number of kernels recorded.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` if no kernels are recorded.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

/// Helper so tests can build a trivially checkable kernel body.
pub fn noop_body() -> KernelBody {
    Arc::new(|_ctx| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup_round_trip() {
        let mut reg = FatBinaryRegistry::new();
        let fb = reg.register_fat_binary();
        let f = reg
            .register_function(fb, "vector_add", Some(noop_body()))
            .unwrap();
        let k = reg.lookup(f).unwrap();
        assert_eq!(k.name, "vector_add");
        assert_eq!(k.fatbin, fb);
        assert_eq!(reg.fatbin_count(), 1);
        assert_eq!(reg.function_count(), 1);
    }

    #[test]
    fn register_against_unknown_fatbin_fails() {
        let mut reg = FatBinaryRegistry::new();
        let err = reg
            .register_function(FatBinaryHandle(42), "k", None)
            .unwrap_err();
        assert_eq!(err, CudaError::InvalidResourceHandle("fat binary"));
    }

    #[test]
    fn unregister_removes_all_functions() {
        let mut reg = FatBinaryRegistry::new();
        let fb = reg.register_fat_binary();
        let f1 = reg.register_function(fb, "a", None).unwrap();
        let f2 = reg.register_function(fb, "b", None).unwrap();
        reg.unregister_fat_binary(fb).unwrap();
        assert!(reg.lookup(f1).is_err());
        assert!(reg.lookup(f2).is_err());
        assert_eq!(reg.function_count(), 0);
        assert!(reg.unregister_fat_binary(fb).is_err());
    }

    #[test]
    fn fresh_registry_issues_different_handles() {
        // This is the reason restart must patch fat-binary handles: the same
        // registration sequence on a fresh registry yields valid but
        // *numerically different* handles only if prior registrations
        // happened; here we simulate a runtime that had some other
        // registrations first.
        let mut old = FatBinaryRegistry::new();
        let _other = old.register_fat_binary();
        let fb_old = old.register_fat_binary();
        let mut fresh = FatBinaryRegistry::new();
        let fb_new = fresh.register_fat_binary();
        assert_ne!(fb_old, fb_new);
    }

    #[test]
    fn manifest_records_kernels_for_replay() {
        let mut m = FatBinaryManifest::new();
        assert!(m.is_empty());
        m.add("k1", None);
        m.add("k2", Some(noop_body()));
        assert_eq!(m.len(), 2);
    }
}
