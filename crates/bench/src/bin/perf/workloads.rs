//! The five workloads.  Each is a closed loop with one client: the
//! harness thread issues one operation after another (plus the one
//! mutator thread of `live_precopy`), and every timed region is exactly
//! one call into the program — set-up, input generation and verification
//! happen between them.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::{ms, now_ns};
use crate::host::{self, RunDir};
use crate::inputs::{Gen, PAGE};
use crate::probes;
use crate::report::Samples;
use crate::sut::{
    self, CkptOut, Gate, GpuShape, HotWriter, How, Image, Layout, Mem, Peer, Proc, Res, Target,
};
use crate::trace::Recorder;

/// Name and reason of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "full_disk",
        "64 MiB image, full checkpoint into an empty store, eager and lazy restart: walk, hash and file I/O do all the work, dedup and sockets none",
    ),
    (
        "incr_disk",
        "64 MiB image, 5% rewritten between chained checkpoints: ~90% of chunks are dedup hits, so walk, hash and dedup probe dominate and file I/O almost vanishes",
    ),
    (
        "live_precopy",
        "64 MiB image checkpointed by pre-copy while a mutator thread rewrites a 256-page hot set: copy-on-write, delta rounds and the final stop window carry the cost",
    ),
    (
        "migrate_tcp",
        "32 MiB image checkpointed to and restarted from a peer over localhost TCP: framing, round-trips and server ingest dominate, local file I/O is zero",
    ),
    (
        "gpu_app",
        "CUDA application with 128 streams, UVM and a long replay log around a 32 MiB image: interposition, drain and replay do the work, storage and network almost none",
    ),
];

const PIECE: u64 = 4 << 20;
const PAGES_PER_PIECE: u64 = PIECE / PAGE as u64;

/// Host-heap and device allocations of 4 MiB each, every page written.
#[derive(Clone, Copy)]
struct MemShape {
    heap_pieces: usize,
    device_pieces: usize,
}

/// 48 MiB host + 16 MiB device: above this machine's last-level cache.
const IMG64: MemShape = MemShape {
    heap_pieces: 12,
    device_pieces: 4,
};
const IMG32: MemShape = MemShape {
    heap_pieces: 6,
    device_pieces: 2,
};

/// The `unified_memory_streams` call mix over a 32 MiB footprint.
pub const GPU_IMG: GpuShape = GpuShape {
    streams: 128,
    device_mb: 8,
    pinned_mb: 8,
    managed_mb: 16,
    launches: 6_400,
    memcpys: 1_280,
    malloc_free_pairs: 4_000,
};

/// Pages of heap piece 0 the `live_precopy` mutator keeps rewriting.
const HOT_PAGES: u64 = 256;
/// Single pages rewritten at seeded places on top of the contiguous 5%.
const SCATTERED_PAGES: u64 = 64;
/// Checkpoints per `incr_disk` chain after the untimed full parent.
const CHAIN_ROUNDS: usize = 4;

/// What a workload run accumulates.
pub struct Cx<'a> {
    pub rec: &'a Recorder,
    pub dirs: &'a RunDir,
    pub gen: Gen,
    pub e2e: Samples,
    pub layers: Samples,
    pub attempted: u64,
}

impl Cx<'_> {
    /// Counts one operation on the program and opens its trace op.
    fn op(&mut self) {
        self.attempted += 1;
        self.rec.next_op();
    }
}

pub trait Workload {
    /// One iteration of the measured loop.  An `Err` is a failed
    /// operation: it names the operation and ends the run.
    fn iterate(&mut self, cx: &mut Cx<'_>) -> Res<()>;
    /// A live process of this workload's shape, for the layer probes.
    fn subject(&mut self, cx: &mut Cx<'_>) -> Res<&Proc>;
    /// Once per run, after the loop.
    fn finish(&mut self, _cx: &mut Cx<'_>) -> Res<()> {
        Ok(())
    }
}

/// Everything before the first timed operation: launch the process, fill
/// its memory from the seed, register what the workload needs.
pub fn setup(name: &str, cx: &mut Cx<'_>) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "full_disk" => Box::new(FullDisk(MemApp::launch(cx, IMG64)?)),
        "incr_disk" => Box::new(IncrDisk(MemApp::launch(cx, IMG64)?)),
        "live_precopy" => {
            let mut app = MemApp::launch(cx, IMG64)?;
            let gate = app.proc.install_gate()?;
            let hot = cx.gen.pages(0, HOT_PAGES);
            Box::new(LivePrecopy { app, gate, hot })
        }
        "migrate_tcp" => Box::new(MigrateTcp(MemApp::launch(cx, IMG32)?)),
        "gpu_app" => Box::new(GpuApp {
            next: Some(launch_gpu(cx)?),
        }),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

// ---------------------------------------------------------------------------
// Shared steps
// ---------------------------------------------------------------------------

fn fill(cx: &mut Cx<'_>, proc: &Proc) -> Res<()> {
    for (alloc, len) in proc.mem().lens().into_iter().enumerate() {
        let data = cx.gen.pages(0, len / PAGE as u64);
        proc.write_pages(alloc, 0, &data)?;
    }
    Ok(())
}

struct MemApp {
    proc: Proc,
    shape: MemShape,
}

impl MemApp {
    fn launch(cx: &mut Cx<'_>, shape: MemShape) -> Res<MemApp> {
        let proc = Proc::launch_mem(
            &vec![PIECE; shape.heap_pieces],
            &vec![PIECE; shape.device_pieces],
        )?;
        fill(cx, &proc)?;
        Ok(MemApp { proc, shape })
    }

    /// The application's work between two checkpoints: rewrite a
    /// contiguous 5% of the image (at the start of heap piece 0 and of
    /// device piece 0) plus single pages at seeded places.  Content is
    /// generated beforehand; the timed region is the writes.
    fn rewrite(&self, cx: &mut Cx<'_>) -> Res<()> {
        let MemShape {
            heap_pieces,
            device_pieces,
        } = self.shape;
        let five_percent = |pieces: usize| pieces as u64 * PAGES_PER_PIECE / 20;
        let mut writes = vec![
            (0, 0, cx.gen.pages(0, five_percent(heap_pieces))),
            (heap_pieces, 0, cx.gen.pages(0, five_percent(device_pieces))),
        ];
        for _ in 0..SCATTERED_PAGES {
            let alloc = cx.gen.below((heap_pieces + device_pieces) as u64) as usize;
            let page = cx.gen.below(PAGES_PER_PIECE);
            writes.push((alloc, page, cx.gen.pages(page, 1)));
        }
        let (r, at) = cx.rec.span("app.rewrite", || {
            writes
                .iter()
                .try_for_each(|(alloc, page, data)| self.proc.write_pages(*alloc, *page, data))
        });
        r.map_err(|e| format!("rewrite: {e}"))?;
        cx.e2e.add("app_ms", ms(at.ns()));
        Ok(())
    }
}

fn launch_gpu(cx: &mut Cx<'_>) -> Res<Proc> {
    let proc = Proc::launch_gpu(&GPU_IMG)?;
    fill(cx, &proc)?;
    Ok(proc)
}

/// One checkpoint that is not a sample: the full parent of an `incr_disk`
/// chain, the warm checkpoint of a migration.
fn checkpoint(cx: &mut Cx<'_>, proc: &Proc, target: Target<'_>, how: How) -> Res<CkptOut> {
    cx.op();
    sut::checkpoint(cx.rec, proc, target, how).map_err(|e| format!("checkpoint: {e}"))
}

/// One checkpoint, sampled.
fn timed_checkpoint(cx: &mut Cx<'_>, proc: &Proc, target: Target<'_>, how: How) -> Res<CkptOut> {
    let out = checkpoint(cx, proc, target, how)?;
    cx.e2e.add("ckpt_ms", ms(out.at.ns()));
    cx.layers.add("dmtcp.stop_window_ms", out.stop_window_ms);
    cx.layers.extend(&out.counters);
    Ok(out)
}

/// Store bytes on disk per logical byte of the images the store holds.
fn stored_per_logical(cx: &mut Cx<'_>, target: Target<'_>, dir: &Path) -> Res<()> {
    let disk = host::dir_bytes(dir).map_err(|e| format!("sizing {}: {e}", dir.display()))?;
    let logical = sut::logical_bytes(target)?;
    cx.e2e
        .add("stored_per_logical", disk as f64 / logical.max(1) as f64);
    Ok(())
}

/// Reads every byte of every allocation back and compares checksums with
/// the source process's.
fn verify(what: &str, proc: &Proc, want: &[u64]) -> Res<()> {
    let got = proc.mem().checksums()?;
    if got == want {
        return Ok(());
    }
    let bad: Vec<usize> = (0..want.len()).filter(|&i| got[i] != want[i]).collect();
    Err(format!(
        "{what}: restored bytes differ in allocation(s) {bad:?}"
    ))
}

/// Eager restart, timed from the open (or dial) a new process pays, then
/// verified.
fn eager_restart(
    cx: &mut Cx<'_>,
    target: Target<'_>,
    image: Image,
    layout: &Layout,
    want: &[u64],
) -> Res<Proc> {
    cx.op();
    let restart = || -> Res<_> {
        let (conn, open) = sut::connect(cx.rec, target)?;
        let (proc, out) = sut::restart(cx.rec, &conn, image, layout)?;
        Ok((proc, out, open))
    };
    let (proc, out, open) = restart().map_err(|e| format!("restart: {e}"))?;
    cx.e2e.add("restart_ms", ms(open.ns() + out.at.ns()));
    cx.layers.extend(&out.counters);
    cx.rec.span("verify", || verify("restart", &proc, want)).0?;
    Ok(proc)
}

/// The application's first dealings with a lazily restored process: the
/// first eighth of every allocation, a page at a time.
fn touch_working_set(mem: &Mem<'_>, touch_us: &mut Vec<f64>) -> Res<()> {
    let mut page = vec![0u8; PAGE];
    for (alloc, len) in mem.lens().into_iter().enumerate() {
        for off in (0..len / 8).step_by(PAGE) {
            let t = now_ns();
            mem.read(alloc, off, &mut page)?;
            touch_us.push((now_ns() - t) as f64 / 1e3);
        }
    }
    Ok(())
}

/// Lazy restart: resume (closure entered), warm (working-set pass done)
/// and drain (call returned, everything resident) are all timed from the
/// open or dial; then the drained process is verified.
fn lazy_restart(
    cx: &mut Cx<'_>,
    target: Target<'_>,
    image: Image,
    layout: &Layout,
    want: &[u64],
) -> Res<()> {
    cx.op();
    let (mut resumed_at, mut warm_at) = (0, 0);
    let mut touch_us = Vec::new();
    let rec = cx.rec;
    let mut restart = || -> Res<_> {
        let (conn, open) = sut::connect(rec, target)?;
        let (proc, out) = sut::restart_lazy(rec, &conn, image, layout, |mem| {
            resumed_at = now_ns();
            let (r, at) = rec.span("app.working_set", || touch_working_set(mem, &mut touch_us));
            warm_at = at.end_ns;
            r
        })?;
        Ok((proc, out, open))
    };
    let (proc, out, open) = restart().map_err(|e| format!("lazy restart: {e}"))?;
    let since_open = |t: u64| ms(open.ns() + t.saturating_sub(out.at.start_ns));
    cx.e2e.add("resume_ms", since_open(resumed_at));
    cx.e2e.add("warm_ms", since_open(warm_at));
    cx.e2e.add("drain_ms", since_open(out.at.end_ns));
    for t in touch_us {
        cx.layers.add("imagestore.lazy.touch_us_p50", t);
        cx.layers.add("imagestore.lazy.touch_us_p99", t);
    }
    if out.chunks_at_resume != 0 {
        return Err(format!(
            "lazy restart: {} chunk(s) fetched before resume",
            out.chunks_at_resume
        ));
    }
    cx.layers.extend(&out.counters);
    cx.rec
        .span("verify", || verify("lazy restart", &proc, want))
        .0
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

struct FullDisk(MemApp);

impl Workload for FullDisk {
    fn iterate(&mut self, cx: &mut Cx<'_>) -> Res<()> {
        let app = &self.0;
        app.rewrite(cx)?;
        let want = app.proc.mem().checksums()?;
        let dir = cx.dirs.fresh("store");
        let target = Target::Disk(&dir);
        let ckpt = timed_checkpoint(cx, &app.proc, target, How::Stw)?;
        stored_per_logical(cx, target, &dir)?;
        eager_restart(cx, target, ckpt.image, app.proc.layout(), &want)?;
        lazy_restart(cx, target, ckpt.image, app.proc.layout(), &want)?;
        host::remove(&dir);
        Ok(())
    }

    fn subject(&mut self, _: &mut Cx<'_>) -> Res<&Proc> {
        Ok(&self.0.proc)
    }
}

struct IncrDisk(MemApp);

impl Workload for IncrDisk {
    /// One chain: an untimed full parent, then timed incremental rounds
    /// the process chains onto it by itself, restarts from the tip, and
    /// retention down to two images.
    fn iterate(&mut self, cx: &mut Cx<'_>) -> Res<()> {
        let app = &self.0;
        let dir = cx.dirs.fresh("store");
        let target = Target::Disk(&dir);
        let mut tip = checkpoint(cx, &app.proc, target, How::Stw)?;
        for _ in 0..CHAIN_ROUNDS {
            app.rewrite(cx)?;
            tip = timed_checkpoint(cx, &app.proc, target, How::Stw)?;
        }
        let want = app.proc.mem().checksums()?;
        eager_restart(cx, target, tip.image, app.proc.layout(), &want)?;
        lazy_restart(cx, target, tip.image, app.proc.layout(), &want)?;
        cx.op();
        let at = sut::retain_last(cx.rec, &dir, 2).map_err(|e| format!("retain_last: {e}"))?;
        cx.layers.add("imagestore.store.retain_ms", ms(at.ns()));
        stored_per_logical(cx, target, &dir)?;
        host::remove(&dir);
        Ok(())
    }

    fn subject(&mut self, _: &mut Cx<'_>) -> Res<&Proc> {
        Ok(&self.0.proc)
    }
}

struct LivePrecopy {
    app: MemApp,
    gate: Arc<Gate>,
    /// The hot set's page content; each pass restamps it, so re-emitted
    /// pages are new bytes and not dedup hits.
    hot: Vec<u8>,
}

/// The mutator: rewrites the hot set until the gate asks it to stop, then
/// parks — also on a failed write, or the checkpoint would wait for ever.
fn mutate(writer: &HotWriter, gate: &Gate, hot: &mut [u8], passes: &AtomicU64) -> Res<()> {
    let mut run = || -> Res<()> {
        while !gate.stop_requested() {
            let pass = passes.load(Ordering::Relaxed);
            for (p, page) in hot.chunks_exact_mut(PAGE).enumerate() {
                page[8..16].copy_from_slice(&pass.to_le_bytes());
                writer.write_page(p as u64, page)?;
            }
            passes.store(pass + 1, Ordering::Relaxed);
        }
        Ok(())
    };
    let r = run();
    gate.park();
    r
}

impl Workload for LivePrecopy {
    fn iterate(&mut self, cx: &mut Cx<'_>) -> Res<()> {
        let LivePrecopy { app, gate, hot } = self;
        let dir = cx.dirs.fresh("store");
        let target = Target::Disk(&dir);
        let writer = app.proc.hot_writer(0);
        let passes = AtomicU64::new(0);
        let gate: &Gate = gate;
        gate.arm();
        let (ckpt, mutated) = std::thread::scope(|s| {
            let mutator = s.spawn(|| mutate(&writer, gate, hot, &passes));
            let ckpt = timed_checkpoint(cx, &app.proc, target, How::Precopy);
            // A checkpoint that failed before its stop window never asked.
            gate.release();
            let mutated = mutator
                .join()
                .unwrap_or_else(|_| Err("mutator thread panicked".to_string()));
            (ckpt, mutated)
        });
        mutated.map_err(|e| format!("mutator: {e}"))?;
        let ckpt = ckpt?;
        let passes = passes.into_inner();
        if passes == 0 {
            return Err("mutator: no pass completed during the checkpoint".to_string());
        }
        // One unit of the application's work: a pass over the hot set,
        // made while the checkpoint was running.
        cx.e2e.add("app_ms", ms(ckpt.at.ns()) / passes as f64);
        let want = app.proc.mem().checksums()?;
        stored_per_logical(cx, target, &dir)?;
        eager_restart(cx, target, ckpt.image, app.proc.layout(), &want)?;
        lazy_restart(cx, target, ckpt.image, app.proc.layout(), &want)?;
        host::remove(&dir);
        Ok(())
    }

    fn subject(&mut self, _: &mut Cx<'_>) -> Res<&Proc> {
        Ok(&self.app.proc)
    }
}

struct MigrateTcp(MemApp);

impl Workload for MigrateTcp {
    /// Node B is a fresh store behind a fresh server each iteration; node
    /// A keeps one pooled transport to it.  Cold: the whole image crosses,
    /// then an eager restart.  Warm: 5% is rewritten, the checkpoint names
    /// the cold image as parent so only the delta crosses, then a lazy
    /// restart.
    fn iterate(&mut self, cx: &mut Cx<'_>) -> Res<()> {
        let app = &self.0;
        let layout = app.proc.layout();
        let dir = cx.dirs.fresh("peer");
        let peer = Peer::start(&dir).map_err(|e| format!("starting the peer: {e}"))?;
        let target = Target::Tcp(&peer);

        let want = app.proc.mem().checksums()?;
        let cold = timed_checkpoint(cx, &app.proc, target, How::Stw)?;
        eager_restart(cx, target, cold.image, layout, &want)?;

        app.rewrite(cx)?;
        let want = app.proc.mem().checksums()?;
        let warm = checkpoint(cx, &app.proc, target, How::StwOnPeerParent(cold.image))?;
        cx.layers
            .add("imagestore.remote.warm_ckpt_ms", ms(warm.at.ns()));
        lazy_restart(cx, target, warm.image, layout, &want)?;

        stored_per_logical(cx, target, &dir)?;
        let shipped = cold.chunks_shipped + warm.chunks_shipped;
        let frames = peer.server_chunk_frames();
        if shipped != frames {
            return Err(format!(
                "migration: client shipped {shipped} chunks, server ingested {frames} chunk frames"
            ));
        }
        let (peak, opened) = peer.pool_use();
        cx.layers
            .add("imagestore.net.peak_connections", peak as f64);
        cx.layers
            .add("imagestore.net.connections_opened", opened as f64);
        cx.layers
            .add("imagestore.net.server_chunk_frames", frames as f64);
        drop(peer);
        host::remove(&dir);
        Ok(())
    }

    fn subject(&mut self, _: &mut Cx<'_>) -> Res<&Proc> {
        Ok(&self.0.proc)
    }
}

struct GpuApp {
    /// The process the next iteration runs; launching it is set-up.
    next: Option<Proc>,
}

impl GpuApp {
    fn take(&mut self, cx: &mut Cx<'_>) -> Res<Proc> {
        match self.next.take() {
            Some(proc) => Ok(proc),
            None => launch_gpu(cx),
        }
    }
}

impl Workload for GpuApp {
    /// The paper's shape: run half the application, checkpoint, restart,
    /// finish in the restarted process.
    fn iterate(&mut self, cx: &mut Cx<'_>) -> Res<()> {
        let proc = self.take(cx)?;
        cx.op();
        let first = proc
            .gpu_phase(cx.rec, 0.5)
            .map_err(|e| format!("application, first half: {e}"))?;
        let want = proc.mem().checksums()?;
        let dir = cx.dirs.fresh("store");
        let target = Target::Disk(&dir);
        let ckpt = timed_checkpoint(cx, &proc, target, How::Stw)?;
        stored_per_logical(cx, target, &dir)?;
        let restarted = eager_restart(cx, target, ckpt.image, proc.layout(), &want)?;
        lazy_restart(cx, target, ckpt.image, proc.layout(), &want)?;
        cx.op();
        let second = restarted
            .gpu_phase(cx.rec, 0.5)
            .map_err(|e| format!("application, second half: {e}"))?;
        cx.e2e.add("app_ms", ms(first.ns() + second.ns()));
        host::remove(&dir);
        Ok(())
    }

    fn subject(&mut self, cx: &mut Cx<'_>) -> Res<&Proc> {
        let proc = self.take(cx)?;
        Ok(self.next.insert(proc))
    }

    /// The same application natively, for the model overhead.
    fn finish(&mut self, cx: &mut Cx<'_>) -> Res<()> {
        probes::model_overhead(cx)
    }
}
