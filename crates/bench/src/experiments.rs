//! One function per table/figure of the paper's evaluation.

use crac_addrspace::{page_align_up, Addr, Half, MapRequest, SharedSpace, PAGE_SIZE};
use crac_core::CracConfig;
use crac_cudart::{Arena, ArenaKind, RuntimeConfig};
use crac_dmtcp::{Coordinator, CoordinatorConfig};
use crac_workloads::apps::{all_rodinia, hpgmg, hypre, lulesh, unified_memory_streams, AppSpec};
use crac_workloads::kernels::registry;
use crac_workloads::runner::{run_crac, run_crac_with_checkpoint, run_native};
use crac_workloads::simple_streams::{run_simple_streams, SimpleStreamsConfig};
use crac_workloads::{run_table3, Session, Table3Row};

/// Native-vs-CRAC comparison for one application (Figures 2, 5a, 5b).
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Application name.
    pub name: String,
    /// Native runtime in seconds.
    pub native_s: f64,
    /// Runtime under CRAC in seconds.
    pub crac_s: f64,
    /// Runtime overhead in percent.
    pub overhead_pct: f64,
    /// Total CUDA API calls of the run.
    pub total_calls: u64,
}

/// Checkpoint/restart measurement for one application (Figures 3, 5c).
#[derive(Clone, Debug)]
pub struct CkptRow {
    /// Application name.
    pub name: String,
    /// Checkpoint time in seconds.
    pub ckpt_s: f64,
    /// Restart time in seconds.
    pub restart_s: f64,
    /// Checkpoint image size in MB.
    pub image_mb: f64,
    /// CUDA calls replayed at restart.
    pub replayed_calls: usize,
}

/// One `niterations` point of the simpleStreams sweep (Figures 4a and 4b).
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Kernel-loop iterations.
    pub niterations: u32,
    /// Total runtime, native (s).
    pub native_total_s: f64,
    /// Total runtime, CRAC (s).
    pub crac_total_s: f64,
    /// Per-kernel non-streamed time, native (ms).
    pub native_nonstreamed_ms: f64,
    /// Per-kernel non-streamed time, CRAC (ms).
    pub crac_nonstreamed_ms: f64,
    /// Per-kernel 128-stream time, native (ms).
    pub native_streamed_ms: f64,
    /// Per-kernel 128-stream time, CRAC (ms).
    pub crac_streamed_ms: f64,
}

/// One Rodinia row of the FSGSBASE experiment (Figure 6).
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Application name.
    pub name: String,
    /// Native runtime on the K600 (s).
    pub native_s: f64,
    /// CRAC runtime, unpatched kernel (s).
    pub crac_unpatched_s: f64,
    /// CRAC runtime, FSGSBASE-patched kernel (s).
    pub crac_fsgsbase_s: f64,
    /// CRAC overhead with the unpatched kernel (%).
    pub overhead_unpatched_pct: f64,
    /// CRAC overhead with FSGSBASE (%).
    pub overhead_fsgsbase_pct: f64,
    /// Change in overhead from applying the patch (percentage points;
    /// negative = FSGSBASE helped).
    pub delta_pct: f64,
}

/// One Table 1 row as measured by the harness.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Application family.
    pub name: String,
    /// Uses UVM?
    pub uvm: bool,
    /// Uses streams?
    pub streams: bool,
    /// Measured CUDA calls per second (native run).
    pub cps: f64,
    /// Stream-count range exercised.
    pub stream_range: String,
}

/// The harness's one error policy: a failed experiment run aborts the
/// sweep loudly, naming the step.
#[track_caller]
fn must<T, E: std::fmt::Debug>(result: Result<T, E>, step: &str) -> T {
    // crac-lint: allow(no-unwrap) — bench harness: a failed experiment run must abort the sweep loudly
    result.unwrap_or_else(|e| panic!("{step} failed: {e:?}"))
}

fn crac_cfg(name: &str, scale: f64) -> CracConfig {
    let mut cfg = CracConfig::v100(name);
    // The simulated runs are scaled down; scale the one-time DMTCP startup
    // cost identically so the short-run overhead keeps the paper's shape.
    cfg.dmtcp_startup_ns = (cfg.dmtcp_startup_ns as f64 * scale) as u64;
    cfg
}

fn overhead_row(spec: &AppSpec, scale: f64) -> OverheadRow {
    let native = must(run_native(spec, RuntimeConfig::v100(), scale), "native run");
    let crac = must(
        run_crac(spec, crac_cfg(spec.name, scale), scale),
        "CRAC run",
    );
    OverheadRow {
        name: spec.name.to_string(),
        native_s: native.elapsed_s,
        crac_s: crac.elapsed_s,
        overhead_pct: (crac.elapsed_s - native.elapsed_s) / native.elapsed_s * 100.0,
        total_calls: native.total_cuda_calls,
    }
}

fn ckpt_row(spec: &AppSpec, scale: f64) -> CkptRow {
    let result = must(
        run_crac_with_checkpoint(spec, crac_cfg(spec.name, scale), scale, 0.5),
        "CRAC checkpoint run",
    );
    CkptRow {
        name: spec.name.to_string(),
        ckpt_s: result.ckpt_time_s,
        restart_s: result.restart_time_s,
        image_mb: result.image_bytes as f64 / (1 << 20) as f64,
        replayed_calls: result.replayed_calls,
    }
}

/// Table 1: application characterisation (UVM, streams, measured CPS).
pub fn table1(scale_mult: f64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    // A representative Rodinia application (Hotspot) for the suite's CPS.
    let rodinia = all_rodinia();
    let hotspot = rodinia.iter().find(|s| s.name == "Hotspot");
    let hotspot = must(hotspot.ok_or("absent"), "the Hotspot spec").clone();
    let specs: Vec<(AppSpec, &str, &str)> = vec![
        (hotspot, "Rodinia", "—"),
        (lulesh(), "Lulesh", "2-32"),
        (simple_streams_spec(), "simpleStreams", "4-128"),
        (unified_memory_streams(), "UnifiedMemoryStreams", "4-128"),
        (hpgmg(), "HPGMG-FV", "—"),
        (hypre(), "HYPRE", "1-10"),
    ];
    for (spec, family, range) in specs {
        let scale = spec.default_scale * scale_mult;
        let r = must(
            run_native(&spec, RuntimeConfig::v100(), scale),
            "native run",
        );
        rows.push(Table1Row {
            name: family.to_string(),
            uvm: spec.uses_uvm,
            streams: spec.streams > 0,
            cps: r.cps,
            stream_range: range.to_string(),
        });
    }
    rows
}

/// An `AppSpec`-shaped stand-in for simpleStreams, used where the harness
/// needs the generic engine (Table 1 CPS, Figure 5c checkpointing); the
/// Figure 4 sweep uses the dedicated driver instead.
pub fn simple_streams_spec() -> AppSpec {
    AppSpec {
        name: "simpleStreams",
        cmdline: "nstreams=128 nreps=1000 niterations=500",
        uses_uvm: false,
        streams: 128,
        device_mb: 64,
        pinned_host_mb: 64,
        managed_mb: 0,
        kernel_launches: 129_000,
        memcpy_calls: 129_000,
        target_native_s: 45.0,
        default_scale: 0.05,
    }
}

/// Table 2: the Rodinia command lines used.
pub fn table2() -> Vec<(String, String)> {
    all_rodinia()
        .into_iter()
        .map(|s| (s.name.to_string(), s.cmdline.to_string()))
        .collect()
}

/// Figure 2: Rodinia runtimes, native vs CRAC, on the V100 profile.
pub fn fig2_rodinia(scale_mult: f64) -> Vec<OverheadRow> {
    all_rodinia()
        .iter()
        .map(|spec| overhead_row(spec, spec.default_scale * scale_mult))
        .collect()
}

/// Figure 3: Rodinia checkpoint and restart times with image sizes.
pub fn fig3_rodinia_ckpt(scale_mult: f64) -> Vec<CkptRow> {
    all_rodinia()
        .iter()
        .map(|spec| ckpt_row(spec, spec.default_scale * scale_mult))
        .collect()
}

/// Figures 4a and 4b: the simpleStreams sweep over kernel-loop iterations.
pub fn fig4_simple_streams(scale_mult: f64) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for niter in [5u32, 10, 100, 500] {
        let config = SimpleStreamsConfig {
            niterations: niter,
            ..Default::default()
        };
        let scale = 0.02 * scale_mult;
        let native_session = Session::native(RuntimeConfig::v100(), registry());
        let native = must(
            run_simple_streams(&native_session, config, scale),
            "native run",
        );
        let crac_session = Session::crac(crac_cfg("simpleStreams", scale), registry());
        let crac = must(run_simple_streams(&crac_session, config, scale), "CRAC run");
        rows.push(Fig4Row {
            niterations: niter,
            native_total_s: native.total_runtime_s,
            crac_total_s: crac.total_runtime_s,
            native_nonstreamed_ms: native.nonstreamed_ms,
            crac_nonstreamed_ms: crac.nonstreamed_ms,
            native_streamed_ms: native.streamed_ms,
            crac_streamed_ms: crac.streamed_ms,
        });
    }
    rows
}

/// Figure 5a: stream-oriented benchmarks (simpleStreams, UMS, LULESH).
pub fn fig5a_streams_apps(scale_mult: f64) -> Vec<OverheadRow> {
    [simple_streams_spec(), unified_memory_streams(), lulesh()]
        .iter()
        .map(|spec| overhead_row(spec, spec.default_scale * scale_mult))
        .collect()
}

/// Figure 5b: real-world benchmarks (HPGMG-FV, HYPRE).
pub fn fig5b_realworld(scale_mult: f64) -> Vec<OverheadRow> {
    [hpgmg(), hypre()]
        .iter()
        .map(|spec| overhead_row(spec, spec.default_scale * scale_mult))
        .collect()
}

/// Figure 5c: checkpoint/restart of the five stream/real-world applications.
pub fn fig5c_ckpt(scale_mult: f64) -> Vec<CkptRow> {
    [
        simple_streams_spec(),
        unified_memory_streams(),
        lulesh(),
        hpgmg(),
        hypre(),
    ]
    .iter()
    .map(|spec| ckpt_row(spec, spec.default_scale * scale_mult))
    .collect()
}

/// Table 3: cuBLAS under native / CRAC / CMA-IPC.
pub fn table3(iters: u32) -> Vec<Table3Row> {
    run_table3(iters)
}

/// Figure 6: Rodinia on the Quadro K600, CRAC with and without FSGSBASE.
pub fn fig6_fsgsbase(scale_mult: f64) -> Vec<Fig6Row> {
    all_rodinia()
        .iter()
        .map(|spec| {
            // The K600 is far slower: the same configurations run for ≥10 s
            // there (Section 4.4.5); reflect that in the calibration target.
            let mut spec = spec.clone();
            spec.target_native_s *= 4.0;
            let scale = spec.default_scale * scale_mult * 0.5;
            let native = must(
                run_native(&spec, RuntimeConfig::k600(), scale),
                "native run",
            );
            let mut cfg_unpatched = CracConfig::k600(spec.name);
            cfg_unpatched.dmtcp_startup_ns = (cfg_unpatched.dmtcp_startup_ns as f64 * scale) as u64;
            let cfg_fsgs = cfg_unpatched.clone().with_fsgsbase();
            let unpatched = must(run_crac(&spec, cfg_unpatched, scale), "CRAC run");
            let fsgs = must(run_crac(&spec, cfg_fsgs, scale), "CRAC run");
            let o_unpatched = (unpatched.elapsed_s - native.elapsed_s) / native.elapsed_s * 100.0;
            let o_fsgs = (fsgs.elapsed_s - native.elapsed_s) / native.elapsed_s * 100.0;
            Fig6Row {
                name: spec.name.to_string(),
                native_s: native.elapsed_s,
                crac_unpatched_s: unpatched.elapsed_s,
                crac_fsgsbase_s: fsgs.elapsed_s,
                overhead_unpatched_pct: o_unpatched,
                overhead_fsgsbase_pct: o_fsgs,
                delta_pct: o_fsgs - o_unpatched,
            }
        })
        .collect()
}

/// One drain strategy of the §3.2.3 ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainRow {
    /// `"active mallocs (CRAC)"` or `"whole arena (naive)"`.
    pub strategy: &'static str,
    /// Address ranges drained.
    pub ranges: usize,
    /// Bytes of staging the drained ranges occupy (the image's share).
    pub staged_bytes: u64,
    /// Bytes `sparse_copy` actually moved (resident pages only).
    pub copied_bytes: u64,
}

/// The §3.2.3 ablation: draining only the active allocations (CRAC) vs
/// every chunk of the library's arena (naive), over the same arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainAblation {
    /// CRAC's drain first, the naive one second.
    pub rows: [DrainRow; 2],
    /// Allocations freed before the checkpoint.
    pub freed_allocations: usize,
    /// Their bytes, as the arena accounted them.
    pub freed_bytes: u64,
}

/// §3.2.3: 32 device allocations of 256 KiB filling one arena chunk, a
/// page of each written, every other one freed, then drained both ways
/// into fresh upper-half staging.
pub fn ablation_drain() -> DrainAblation {
    const ALLOCS: u64 = 32;
    const LEN: u64 = 256 << 10;
    let space = SharedSpace::new_no_aslr();
    let mut arena = Arena::new(ArenaKind::Device, space.clone(), ALLOCS * LEN);
    let mut ptrs = Vec::new();
    for i in 0..ALLOCS {
        let ptr = must(arena.alloc(LEN), "arena alloc");
        must(space.write_bytes(ptr, &[i as u8; 4096]), "fill");
        ptrs.push(ptr);
    }
    let freed: Vec<u64> = ptrs
        .iter()
        .skip(1)
        .step_by(2)
        .map(|p| must(arena.free(*p), "arena free"))
        .collect();
    let drain = |strategy, ranges: &[(Addr, u64)]| {
        let staged_bytes: u64 = ranges.iter().map(|(_, len)| page_align_up(*len)).sum();
        let staging = must(
            space.mmap(MapRequest::anon(staged_bytes, Half::Upper, "staging")),
            "staging mmap",
        );
        let mut off = 0;
        let mut copied_bytes = 0;
        for (ptr, len) in ranges {
            copied_bytes += must(space.sparse_copy(staging + off, *ptr, *len), "drain");
            off += page_align_up(*len);
        }
        must(space.munmap(staging, staged_bytes), "staging munmap");
        DrainRow {
            strategy,
            ranges: ranges.len(),
            staged_bytes,
            copied_bytes,
        }
    };
    DrainAblation {
        rows: [
            drain("active mallocs (CRAC)", &arena.active_allocations()),
            drain("whole arena (naive)", arena.chunks()),
        ],
        freed_allocations: freed.len(),
        freed_bytes: freed.iter().sum(),
    }
}

/// One layout of the §3.2.2 ablation, as `Coordinator::checkpoint(0)` saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionsRow {
    /// `"fragmented"` or `"consolidated"`.
    pub layout: &'static str,
    /// Regions in the address space the checkpoint walked.
    pub space_regions: usize,
    /// Regions saved in the image.
    pub image_regions: usize,
    /// Logical image bytes (regions + payloads).
    pub image_bytes: u64,
    /// Page bytes the image stores.
    pub stored_bytes: u64,
}

/// §3.2.2: 512 two-page upper-half mappings, every third one written,
/// checkpointed as they are and after `consolidate_upper_half`.
pub fn ablation_regions() -> [RegionsRow; 2] {
    let row = |layout: &'static str, consolidate: bool| {
        let space = SharedSpace::new_no_aslr();
        for i in 0..512u64 {
            let addr = must(
                space.mmap(MapRequest::anon(2 * PAGE_SIZE, Half::Upper, "frag")),
                "mmap",
            );
            if i % 3 == 0 {
                must(space.write_bytes(addr, &[i as u8; 64]), "write");
            }
        }
        if consolidate {
            space.with_mut(|s| s.consolidate_upper_half());
        }
        let (image, _) =
            Coordinator::new(space.clone(), CoordinatorConfig::default()).checkpoint(0);
        RegionsRow {
            layout,
            space_regions: space.with(|s| s.region_count()),
            image_regions: image.regions.len(),
            image_bytes: image.logical_size(),
            stored_bytes: image.stored_size(),
        }
    };
    [row("fragmented", false), row("consolidated", true)]
}

#[cfg(test)]
mod tests {
    use super::*;

    // These exercise each experiment function at a very small scale so the
    // full harness is known-runnable; the `experiments` report runs them
    // bigger.

    #[test]
    fn ablations_show_what_each_optimisation_saves() {
        let d = ablation_drain();
        let [crac, naive] = d.rows;
        assert!(crac.staged_bytes < naive.staged_bytes);
        assert_eq!(naive.staged_bytes - crac.staged_bytes, d.freed_bytes);
        // One written page per allocation: the naive drain also moves the
        // freed allocations' pages.
        assert_eq!(
            naive.copied_bytes - crac.copied_bytes,
            d.freed_allocations as u64 * PAGE_SIZE
        );

        let [frag, cons] = ablation_regions();
        assert!(cons.space_regions < frag.space_regions);
        assert_eq!(cons.stored_bytes, frag.stored_bytes);
        assert_eq!(cons.image_bytes, frag.image_bytes);
    }

    #[test]
    fn table1_reports_all_six_families() {
        let rows = table1(0.02);
        assert_eq!(rows.len(), 6);
        let hypre = rows.iter().find(|r| r.name == "HYPRE").unwrap();
        assert!(hypre.uvm && hypre.streams);
        let rodinia = rows.iter().find(|r| r.name == "Rodinia").unwrap();
        assert!(!rodinia.uvm && !rodinia.streams);
        assert!(rows.iter().all(|r| r.cps > 0.0));
    }

    #[test]
    fn table2_lists_the_rodinia_command_lines() {
        let rows = table2();
        assert_eq!(rows.len(), 14);
        assert!(rows
            .iter()
            .any(|(n, c)| n == "Gaussian" && c.contains("-s 8192")));
    }

    #[test]
    fn fig4_shows_streams_winning_and_crac_staying_close() {
        let rows = fig4_simple_streams(0.2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.native_streamed_ms < r.native_nonstreamed_ms);
            let overhead = (r.crac_total_s - r.native_total_s) / r.native_total_s * 100.0;
            assert!(
                overhead.abs() < 8.0,
                "{} overhead {overhead:.2}%",
                r.niterations
            );
        }
        // Longer kernels → longer runs.
        assert!(rows[3].native_total_s > rows[0].native_total_s);
    }

    #[test]
    fn fig3_checkpoint_images_track_footprints() {
        // Only two applications to keep the test fast.
        let specs = all_rodinia();
        let small = specs.iter().find(|s| s.name == "Heartwall").unwrap();
        let large = specs.iter().find(|s| s.name == "Gaussian").unwrap();
        let r_small = ckpt_row(small, 0.2);
        let r_large = ckpt_row(large, 0.05);
        assert!(r_large.image_mb > 5.0 * r_small.image_mb);
        assert!(r_small.ckpt_s > 0.0 && r_small.restart_s > 0.0);
        assert!(r_large.replayed_calls > 0);
    }
}
