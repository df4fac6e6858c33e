//! The per-layer probes of a traced run: each calls one layer's public
//! function alone — on the workload's own process and image where the
//! layer's cost depends on them — and files the result under the layer's
//! metric name.  Probes run after the measured loop, so they never share
//! a timed region with an end-to-end sample.

use crate::clock::ms;
use crate::host;
use crate::sut::{self, How, Res, Target};
use crate::workloads::{Cx, Workload, GPU_IMG};

/// Samples per probe; the reported value is their median.
const REPEATS: usize = 3;

/// Runtime overhead of the CUDA application under CRAC against native on
/// the paper's virtual clock (Figure 2), and the band
/// `tests/end_to_end.rs` holds it to.
pub fn model_overhead(cx: &mut Cx<'_>) -> Res<()> {
    let (at, pct) = sut::probe_native_app(cx.rec, &GPU_IMG)?;
    cx.layers.add("cudart.native_app_ms", ms(at.ns()));
    cx.layers.add("core.model_overhead_pct", pct);
    if !(0.0..5.0).contains(&pct) {
        return Err(format!(
            "model overhead {pct:.3}% is outside the paper's band [0, 5)"
        ));
    }
    Ok(())
}

pub fn run(cx: &mut Cx<'_>, workload: &mut dyn Workload) -> Res<()> {
    let proc = workload.subject(cx)?;
    let rec = cx.rec;

    // An image of the workload's process to read back, replay and ship.
    let store = cx.dirs.fresh("probe-store");
    let image = sut::checkpoint(rec, proc, Target::Disk(&store), How::Stw)?.image;
    let files = host::file_sizes(&store).map_err(|e| format!("listing the probe store: {e}"))?;

    for _ in 0..REPEATS {
        let l = &mut cx.layers;

        let (write, cow, read) = sut::probe_space_rw(rec)?;
        l.add("addrspace.write_mbps", write);
        l.add("addrspace.write_cow_mbps", cow);
        l.add("addrspace.read_mbps", read);
        l.add("addrspace.fault_us", sut::probe_fault(rec)?);

        l.add("dmtcp.walk_ms", ms(sut::probe_walk(rec, proc)?.ns()));

        let (launch, pair) = sut::probe_interposed_calls(rec)?;
        l.add("core.launch_ns", launch);
        l.add("core.malloc_free_ns", pair);
        let (at, calls) = sut::probe_replay(rec, &store, image)?;
        l.add(
            "core.replay_us_per_call",
            at.ns() as f64 / 1e3 / calls.max(1) as f64,
        );
        l.add("splitproc.trampoline_ns", sut::probe_trampoline(rec));
        l.add("cudart.native_launch_ns", sut::probe_native_launch(rec)?);

        let (content, crc) = sut::probe_hash(rec);
        l.add("imagestore.hash.content_mbps", content);
        l.add("imagestore.hash.crc32_mbps", crc);

        let scratch = cx.dirs.fresh("probe-writer");
        let (write, dedup) = sut::probe_writer(rec, proc, &scratch)?;
        host::remove(&scratch);
        l.add("imagestore.writer.write_ms", ms(write.ns()));
        l.add("imagestore.writer.dedup_write_ms", ms(dedup.ns()));

        let (_, open) = sut::connect(rec, Target::Disk(&store))?;
        l.add("imagestore.store.open_ms", ms(open.ns()));
        // The device's share of a checkpoint: the same files, made durable
        // the same way, with no walk, hash or encode in the interval.
        let scratch = cx.dirs.fresh("probe-disk");
        let (r, at) = rec.span("imagestore.store.disk_ckpt", || {
            host::write_durably(&scratch, &files)
        });
        host::remove(&scratch);
        r.map_err(|e| format!("disk probe: {e}"))?;
        l.add("imagestore.store.disk_ckpt_ms", ms(at.ns()));

        let read = sut::probe_reader(rec, &store, image)?;
        l.add("imagestore.reader.read_ms", ms(read.ns()));

        let scratch = cx.dirs.fresh("probe-replica");
        let at = sut::probe_replicate_loopback(rec, &store, image, &scratch)?;
        host::remove(&scratch);
        l.add("imagestore.remote.replicate_loopback_ms", ms(at.ns()));

        let (encode, decode) = sut::probe_frames(rec)?;
        l.add("imagestore.net.frame_encode_mbps", encode);
        l.add("imagestore.net.frame_decode_mbps", decode);
        let scratch = cx.dirs.fresh("probe-net");
        let net = sut::probe_net(rec, &scratch)?;
        host::remove(&scratch);
        l.add("imagestore.net.put_chunk_us", net.put_chunk_us);
        l.add("imagestore.net.get_chunk_us", net.get_chunk_us);
        l.add("imagestore.net.has_chunks_us", net.has_chunks_us);
        l.add("imagestore.net.connect_ms", net.connect_ms);

        let (span, lock) = sut::probe_obs_sync(rec);
        l.add("obs.span_ns", span);
        l.add("sync.lock_ns", lock);
    }
    host::remove(&store);
    if cx.layers.get("core.model_overhead_pct").is_empty() {
        model_overhead(cx)?;
    }

    // How much of a checkpoint the probed layers account for: the walk
    // plus what the chunks cost downstream — shipped over one connection,
    // or written and deduplicated in the workload's own proportion.  The
    // layers overlap in the pipeline, so this may exceed 1; it is
    // reported, never asserted.
    let l = &mut cx.layers;
    let med = |name: &str| l.median(name).unwrap_or(0.0);
    let shipped = med("imagestore.remote.chunks_shipped");
    let downstream_ms = if shipped > 0.0 {
        shipped * med("imagestore.net.put_chunk_us") / 1e3
    } else {
        let written = med("imagestore.writer.chunks_written");
        let deduped = med("imagestore.writer.chunks_deduped");
        let total = (written + deduped).max(1.0);
        (written * med("imagestore.writer.write_ms")
            + deduped * med("imagestore.writer.dedup_write_ms"))
            / total
    };
    let ckpt_ms = cx.e2e.median("ckpt_ms").unwrap_or(0.0);
    if ckpt_ms > 0.0 {
        let share = (med("dmtcp.walk_ms") + downstream_ms) / ckpt_ms;
        l.add("trace.attributed_share", share);
    }
    Ok(())
}
