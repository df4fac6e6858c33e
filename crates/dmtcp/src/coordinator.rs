//! The checkpoint/restart driver.  A checkpoint that meets absent pages (a
//! lazy restore still paging in) pages them in or fails — see
//! [`Coordinator::checkpoint_walk`]; it never records them as zeros.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crac_addrspace::{
    Addr, AddressSpace, Half, MapRequest, MapsEntry, MemError, PageFaultHandler, PageRun, Prot,
    SharedSpace, Slot, PAGE_SIZE,
};
use crac_obs::{Buckets, EventKind, ObsRegistry};

use crate::image::CheckpointImage;
use crate::plugin::{DmtcpPlugin, RegionDecision};
use crate::stream::{
    CheckpointSink, CkptError, ImageSink, RegionDescriptor, RestoreError, RestoreSink, SinkClosed,
    MAX_RUN_PAGES,
};

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Checkpoint-image write bandwidth, bytes per nanosecond.
    pub disk_write_bw: f64,
    /// Checkpoint-image read bandwidth, bytes per nanosecond.
    pub disk_read_bw: f64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            disk_write_bw: 2.0, // ~2 GB/s, a node-local NVMe or parallel FS
            disk_read_bw: 3.0,
        }
    }
}

/// Statistics of one checkpoint operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CkptStats {
    /// Logical (uncompressed) image size in bytes.
    pub image_bytes: u64,
    /// Bytes physically stored in the in-memory image (dirty pages only).
    pub stored_bytes: u64,
    /// Merged maps entries saved (wholly or partially).
    pub regions_saved: usize,
    /// Merged maps entries skipped on plugin request.
    pub regions_skipped: usize,
    /// Modelled time to write the image, in nanoseconds.
    pub write_ns: u64,
}

/// Tuning knobs for a pre-copy [`Coordinator::checkpoint_walk`].
#[derive(Clone, Debug)]
pub struct PrecopyConfig {
    /// Maximum number of iterative delta rounds between the concurrent
    /// bulk copy and the final stop-the-world pass.  A workload that
    /// re-dirties pages faster than they can be re-copied never converges;
    /// the cap bounds how long the checkpoint chases it before giving up
    /// and taking the (larger) final delta anyway.
    pub max_rounds: usize,
    /// Stop iterating once the residual dirty delta is at most this many
    /// pages — the final stop-the-world pass over a delta this small is
    /// considered short enough.
    pub convergence_pages: u64,
    /// Bridge up to this many clean pages between dirty runs, trading a
    /// little redundant page copying for fewer, longer runs (less per-run
    /// framing and hashing downstream).  `0` emits exact maximal runs.
    pub max_run_gap: u64,
}

impl Default for PrecopyConfig {
    fn default() -> Self {
        Self {
            max_rounds: 4,
            convergence_pages: 16,
            max_run_gap: 1,
        }
    }
}

/// Statistics of one pre-copy checkpoint: the aggregate walk stats plus
/// the per-round narrative the stop-window claim rests on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrecopyStats {
    /// Aggregate checkpoint stats (totals across all rounds).
    pub ckpt: CkptStats,
    /// Iterative delta rounds run (excluding the bulk copy and the final
    /// stop-the-world pass).
    pub rounds: usize,
    /// Content bytes streamed per round: `[bulk, delta…, final]`.
    pub round_bytes: Vec<u64>,
    /// `true` when the residual delta fell under
    /// [`PrecopyConfig::convergence_pages`]; `false` means the round cap
    /// hit first.
    pub converged: bool,
    /// Dirty pages captured inside the final stop-the-world window.
    pub final_dirty_pages: u64,
    /// Wall-clock duration of the stop-the-world window (quiesce →
    /// resume), in nanoseconds.  This is the number pre-copy exists to
    /// shrink: proportional to the residual delta, not the image.
    pub stop_window_ns: u64,
    /// Mapped ranges that appeared or disappeared between planning and
    /// the final pass.  New ranges are captured whole in the final pass;
    /// vanished ones keep their last pre-copied content in the image.
    pub layout_drift: usize,
}

/// Statistics of one restart operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RestartStats {
    /// Regions restored into the new address space.
    pub regions_restored: usize,
    /// Logical bytes restored.
    pub bytes_restored: u64,
    /// Modelled time to read the image, in nanoseconds.
    pub read_ns: u64,
}

/// The DMTCP coordinator: owns the plugin list and drives checkpoint and
/// restart.
pub struct Coordinator {
    config: CoordinatorConfig,
    space: SharedSpace,
    plugins: Vec<Arc<dyn DmtcpPlugin>>,
    /// The process-wide observability registry.  The coordinator owns
    /// the root handle; the store-aware drivers (`crac-imagestore`'s
    /// `checkpoint_to` / `restore`) hand it down so every layer — writer,
    /// reader, replication, transport — records into the same registry
    /// and one scrape covers the whole checkpoint/restore flow.
    obs: ObsRegistry,
}

impl Coordinator {
    /// Creates a coordinator attached to the process's address space.
    pub fn new(space: SharedSpace, config: CoordinatorConfig) -> Self {
        Self {
            config,
            space,
            plugins: Vec::new(),
            obs: ObsRegistry::new(),
        }
    }

    /// The coordinator's observability registry (a shared handle — clones
    /// observe the same metrics and events).
    pub fn obs(&self) -> ObsRegistry {
        self.obs.clone()
    }

    /// Replaces the coordinator's registry, e.g. to aggregate several
    /// coordinators into one scrape endpoint.
    pub fn adopt_obs(&mut self, obs: ObsRegistry) {
        self.obs = obs;
    }

    /// Registers a plugin.  Plugins are consulted in registration order.
    pub fn register_plugin(&mut self, plugin: Arc<dyn DmtcpPlugin>) {
        self.plugins.push(plugin);
    }

    /// The coordinator's configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.config
    }

    /// Takes a checkpoint of the process at virtual time `now_ns`.
    ///
    /// Order of operations mirrors DMTCP: plugins quiesce
    /// (`pre_checkpoint`), the coordinator walks the merged maps view and
    /// saves whatever the plugins do not exclude, plugin payloads are
    /// embedded, and finally plugins `resume`.
    ///
    /// This is the materialising entry point for in-memory users — it is
    /// the streaming walk ([`Coordinator::checkpoint_walk`]) driven into
    /// an [`ImageSink`], so the two paths cannot diverge.
    ///
    /// # Panics
    ///
    /// If a lazily restored page cannot be paged in — [`CkptError::Mem`]
    /// from the streaming entry points.
    pub fn checkpoint(&self, now_ns: u64) -> (CheckpointImage, CkptStats) {
        let mut sink = ImageSink::default();
        let stats = self
            .checkpoint_streaming(&mut sink)
            // crac-lint: allow(no-unwrap) — the in-memory sink never closes; what is left is a page no fault handler can supply, and this signature has no error to carry it
            .expect("a page of the process cannot be paged in");
        sink.image.taken_at_ns = now_ns;
        (sink.image, stats)
    }

    /// Takes a stop-the-world checkpoint, pushing `(region descriptor,
    /// page-run payload)` records into `sink` instead of materialising a
    /// [`CheckpointImage`]: [`Coordinator::checkpoint_walk`] with no
    /// pre-copy configuration, with either failure folded into the stop
    /// marker.
    pub fn checkpoint_streaming(
        &self,
        sink: &mut dyn CheckpointSink,
    ) -> Result<CkptStats, SinkClosed> {
        let walked = self.checkpoint_walk(sink, None);
        walked.map(|pre| pre.ckpt).map_err(|_| SinkClosed)
    }

    /// The checkpoint walk.  `precopy` decides only *where the world
    /// stops*; everything else — planning, capture, emission, payloads,
    /// stats — is one body.
    ///
    /// * `None` — **stop-the-world**: plugins quiesce before the bulk
    ///   pass, so the whole image streams with the application stopped
    ///   (zero delta rounds, exact maximal runs) and the stop window is
    ///   O(image).
    /// * `Some(cfg)` — **pre-copy**, the VM-live-migration shape: the bulk
    ///   pass streams **concurrently with execution** (mutators keep
    ///   running; a consistent view of each page comes from the
    ///   copy-on-write page store), iterative rounds re-stream only the
    ///   runs re-dirtied since the previous round's epoch until the
    ///   residual delta fits [`PrecopyConfig::convergence_pages`] or
    ///   [`PrecopyConfig::max_rounds`] hits, and only then do plugins
    ///   quiesce for a final pass that captures the last delta zero-copy
    ///   (as `Arc` clones) — the stop window is proportional to the
    ///   residual dirty delta, not the image.
    ///
    /// Either way plugins resume as soon as the final delta and the plugin
    /// payloads are captured, *before* those are pushed into the sink.
    ///
    /// The walk takes no timestamp: the sink's owner stamps the
    /// checkpoint's completion time itself (it may want to account for
    /// modelled write time first, as `crac-core` does).
    ///
    /// The producer holds at most one bounded run buffer
    /// ([`MAX_RUN_PAGES`] pages) of content at a time, so a disk-backed
    /// sink bounds the checkpoint's peak memory by its own queue depth
    /// rather than the image size.  If the sink reports [`SinkClosed`],
    /// the walk stops immediately — but plugins are still resumed, so a
    /// failed checkpoint never leaves the application quiesced — and the
    /// marker is propagated for the sink's owner to translate into the
    /// real error.
    ///
    /// A pre-copy walk may *re-open* a region (another `begin_region` with
    /// the same start address, while no region is open) to carry a later
    /// round's runs — the sink must apply later runs over earlier ones
    /// (last-write-wins).  All `CheckpointSink` implementations in this
    /// workspace do.
    ///
    /// Ranges mapped *after* the walk starts are captured whole in the
    /// final pass; ranges unmapped mid-walk keep their last pre-copied
    /// content in the image.  Both are counted in
    /// [`PrecopyStats::layout_drift`].
    ///
    /// **Absent pages** (a lazy restore still paging in) are first-touched
    /// through [`SharedSpace::page_in`] before the first capture — no space
    /// lock held, so a live lazy session serves them at fault priority.  If
    /// one cannot materialise (no handler, session failed) the walk fails
    /// with [`CkptError::Mem`], plugins resumed: an image never records an
    /// absent page as zeros.
    pub fn checkpoint_walk(
        &self,
        sink: &mut dyn CheckpointSink,
        precopy: Option<&PrecopyConfig>,
    ) -> Result<PrecopyStats, CkptError> {
        let mut stopped_at = None;
        let result = self.walk(sink, precopy, &mut stopped_at);
        if stopped_at.is_some() {
            // The walk failed inside the stop window.
            for p in &self.plugins {
                p.resume();
            }
        }
        result
    }

    /// Quiesces every plugin, opening the stop window.
    fn stop_the_world(&self, stopped_at: &mut Option<Instant>) {
        // crac-lint: allow(raw-instant) — stop-window timing lands in CkptStats/RestartStats, not an obs histogram
        *stopped_at = Some(Instant::now());
        for p in &self.plugins {
            p.pre_checkpoint();
        }
    }

    /// The body of [`Coordinator::checkpoint_walk`].  `stopped_at` is
    /// `Some` exactly while plugins are quiesced, so the caller can resume
    /// them if the sink closes mid-window.
    fn walk(
        &self,
        sink: &mut dyn CheckpointSink,
        precopy: Option<&PrecopyConfig>,
        stopped_at: &mut Option<Instant>,
    ) -> Result<PrecopyStats, CkptError> {
        // Stop-the-world is the same walk with the quiesce in front of the
        // bulk pass: nothing can re-dirty, so no delta round ever runs.
        const STW: PrecopyConfig = PrecopyConfig {
            max_rounds: 0,
            convergence_pages: 0,
            max_run_gap: 0,
        };
        let cfg = precopy.unwrap_or(&STW);
        let live = precopy.is_some();
        let round_bytes_h = self
            .obs
            .histogram("crac_precopy_round_bytes", Buckets::SIZE_BYTES);
        let rounds_c = self.obs.counter("crac_precopy_rounds");
        let mut stats = CkptStats::default();
        let mut pre = PrecopyStats::default();
        if !live {
            self.stop_the_world(stopped_at);
        }

        // Epoch boundary and merged view taken atomically: every write
        // from here on is stamped at or above `epoch`.
        let (mut epoch, entries) = self.space.with_mut(|s| (s.snapshot_epoch(), s.proc_maps()));
        let mut plan: Vec<RegionDescriptor> = Vec::new();
        for entry in &entries {
            match self.plan_entry(entry) {
                Some(ranges) if !ranges.is_empty() => {
                    stats.regions_saved += 1;
                    for (start, len) in ranges {
                        plan.push(RegionDescriptor {
                            start,
                            len,
                            prot: entry.prot,
                            label: entry.label.clone(),
                        });
                        stats.image_bytes += len;
                    }
                }
                _ => stats.regions_skipped += 1,
            }
        }

        // Pages a lazy restore has not faulted in yet: make them resident
        // before the first capture.
        for desc in &plan {
            self.space.page_in(desc.start, desc.len)?;
        }

        // Every planned range's pages dirtied since `since`, under one lock.
        let max_gap = cfg.max_run_gap;
        let capture_plan = |s: &AddressSpace, since: u64| -> Result<Vec<Capture>, MemError> {
            plan.iter()
                .map(|d| capture_range(s, d, since, max_gap))
                .collect()
        };

        // Round 0: bulk copy of every planned range.  Every region is
        // declared here (even all-zero ones), so later rounds only ever
        // *re-open*.
        let mut bulk = 0u64;
        for desc in &plan {
            let cap = self.space.with(|s| capture_range(s, desc, 0, max_gap))?;
            bulk += emit_region(sink, desc, &cap, true)?;
        }
        stats.stored_bytes += bulk;
        pre.round_bytes.push(bulk);
        // A stop-the-world walk has no rounds to narrate: it stays out of
        // the pre-copy metrics and the event ring.
        if live {
            round_bytes_h.observe(bulk);
            rounds_c.inc();
            self.obs.event(
                EventKind::PrecopyRound,
                format!("round=0 kind=bulk bytes={bulk}"),
            );
        }

        // Iterative delta rounds: chase the re-dirtied runs until the
        // residual delta is small enough to stop the world for.
        loop {
            let residual = self.space.with(|s| {
                let slots = plan.iter().flat_map(|d| s.slots(d.start, d.len));
                slots
                    .filter(|(_, slot)| matches!(slot, Slot::Resident(p) if p.epoch() >= epoch))
                    .count() as u64
            });
            if residual <= cfg.convergence_pages {
                pre.converged = true;
                break;
            }
            if pre.rounds >= cfg.max_rounds {
                break;
            }
            pre.rounds += 1;
            // Advance the epoch boundary and capture the delta under one
            // write lock, so no write can fall between the two.
            let captures = self.space.with_mut(|s| {
                let next = s.snapshot_epoch();
                let caps = capture_plan(s, epoch);
                epoch = next;
                caps
            })?;
            let mut round_total = 0u64;
            for (desc, cap) in plan.iter().zip(&captures) {
                round_total += emit_region(sink, desc, cap, false)?;
            }
            stats.stored_bytes += round_total;
            pre.round_bytes.push(round_total);
            round_bytes_h.observe(round_total);
            rounds_c.inc();
            self.obs.event(
                EventKind::PrecopyRound,
                format!(
                    "round={} kind=delta bytes={round_total} residual_pages={residual}",
                    pre.rounds
                ),
            );
        }

        // Final pass with the world stopped: capture the last delta as Arc
        // clones (no content copied inside the window), resume.  A
        // stop-the-world walk has been quiesced since before the plan, so
        // it finds nothing left to capture.
        if live {
            self.stop_the_world(stopped_at);
        }
        let (final_caps, extras, gone) = self.space.with_mut(|s| {
            let now_entries = s.proc_maps();
            let caps = capture_plan(s, epoch)?;
            // Ranges mapped since planning: not covered by any round so
            // far, captured whole now.  Subtract the planned ranges from
            // each current entry rather than testing the entry's start —
            // memory mapped during the quiesce itself (e.g. a plugin's
            // drain staging) can merge into the tail of a planned entry,
            // and its pages must not be lost.
            let mut extras: Vec<(RegionDescriptor, Capture)> = Vec::new();
            for entry in &now_entries {
                let Some(ranges) = self.plan_entry(entry) else {
                    continue;
                };
                for (start, len) in ranges {
                    let mut gaps = vec![(start.0, start.0 + len)];
                    for d in &plan {
                        // What is left of each gap below and above `d`.
                        let (ds, de) = (d.start.0, d.start.0 + d.len);
                        gaps = gaps
                            .into_iter()
                            .flat_map(|(gs, ge)| [(gs, ge.min(ds)), (gs.max(de), ge)])
                            .filter(|(gs, ge)| gs < ge)
                            .collect();
                    }
                    for (gs, ge) in gaps {
                        let desc = RegionDescriptor {
                            start: Addr(gs),
                            len: ge - gs,
                            prot: entry.prot,
                            label: entry.label.clone(),
                        };
                        let cap = capture_range(s, &desc, 0, max_gap)?;
                        extras.push((desc, cap));
                    }
                }
            }
            // Planned ranges no longer mapped: their last pre-copied
            // content stays in the image.
            let gone = plan
                .iter()
                .filter(|d| {
                    !now_entries
                        .iter()
                        .any(|e| e.start <= d.start && d.start < e.end)
                })
                .count();
            Ok::<_, MemError>((caps, extras, gone))
        })?;
        let payloads: Vec<(String, Vec<u8>)> = self
            .plugins
            .iter()
            .map(|p| (p.name().to_string(), p.payload()))
            .filter(|(_, data)| !data.is_empty())
            .collect();
        for p in &self.plugins {
            p.resume();
        }
        let window = stopped_at.take().map_or(Duration::ZERO, |t0| t0.elapsed());
        pre.stop_window_ns = window.as_nanos() as u64;
        pre.layout_drift = gone + extras.len();
        pre.final_dirty_pages = final_caps.iter().map(|c| c.dirty_pages).sum::<u64>()
            + extras.iter().map(|(_, c)| c.dirty_pages).sum::<u64>();
        let window_us = window.as_micros() as u64;
        self.obs
            .histogram("crac_ckpt_stop_window_us", Buckets::LATENCY_US)
            .observe(window_us);
        self.obs.event(
            EventKind::StopWindow,
            format!(
                "mode={} window_us={window_us} dirty_pages={} rounds={} converged={}",
                if live { "precopy" } else { "stw" },
                pre.final_dirty_pages,
                pre.rounds,
                pre.converged
            ),
        );

        // Stream the frozen captures with the application already running.
        let mut final_bytes = 0u64;
        for (desc, cap) in plan.iter().zip(&final_caps) {
            final_bytes += emit_region(sink, desc, cap, false)?;
        }
        for (desc, cap) in &extras {
            final_bytes += emit_region(sink, desc, cap, true)?;
            stats.regions_saved += 1;
            stats.image_bytes += desc.len;
        }
        stats.stored_bytes += final_bytes;
        pre.round_bytes.push(final_bytes);
        if live {
            round_bytes_h.observe(final_bytes);
        }
        for (name, data) in &payloads {
            sink.payload(name, data)?;
            stats.image_bytes += data.len() as u64;
            stats.stored_bytes += data.len() as u64;
        }

        stats.write_ns = (stats.image_bytes as f64 / self.config.disk_write_bw).ceil() as u64;
        pre.ckpt = stats;
        Ok(pre)
    }

    /// What to save of one merged maps entry: `None` to skip it entirely,
    /// otherwise the ranges to save.  First plugin with a non-Save opinion
    /// wins.
    fn plan_entry(&self, entry: &MapsEntry) -> Option<Vec<(Addr, u64)>> {
        let decision = self
            .plugins
            .iter()
            .map(|p| p.region_decision(entry))
            .find(|d| *d != RegionDecision::Save)
            .unwrap_or(RegionDecision::Save);
        match decision {
            RegionDecision::Save => Some(vec![(entry.start, entry.len())]),
            RegionDecision::Skip => None,
            RegionDecision::SaveRanges(rs) => Some(rs),
        }
    }

    /// Restores `image` into `space` (a fresh process on restart) and fires
    /// the plugins' `restart` hooks.
    ///
    /// This is the materialising entry point for in-memory users — it is
    /// the image driven through the streaming restore path
    /// ([`Coordinator::restart_streaming`]), so the two cannot diverge.
    pub fn restart_into(&self, image: &CheckpointImage, space: &SharedSpace) -> RestartStats {
        self.restart_streaming(space, |sink| {
            for r in &image.regions {
                sink.declare_region(&RegionDescriptor {
                    start: r.start,
                    len: r.len,
                    prot: r.prot,
                    label: r.label.clone(),
                })?;
            }
            for (region, r) in image.regions.iter().enumerate() {
                for (idx, bytes) in &r.pages {
                    sink.page_run(
                        region,
                        crac_addrspace::PageRun {
                            first: *idx,
                            count: 1,
                        },
                        bytes,
                    )?;
                }
            }
            for (name, data) in &image.payloads {
                sink.payload(name, data)?;
            }
            Ok(())
        })
        // crac-lint: allow(no-unwrap) — the in-memory source never closes, and an image this process captured maps back by construction
        .expect("an in-memory image restores into a fresh space")
    }

    /// Restores a *streamed* checkpoint into `space`: `produce` receives a
    /// [`RestoreCursor`] (the coordinator's [`RestoreSink`]) and pushes
    /// region declarations, page runs (in any order — chunk-arrival order
    /// for a disk-backed reader) and payloads into it; pages land in the
    /// address space **as they arrive**, so a disk-backed producer bounds
    /// the restore's peak memory by its own queue depth rather than the
    /// image size.
    ///
    /// When `produce` returns `Ok`, recorded protections are applied, the
    /// plugins' `restart` hooks fire with their payloads, and the restart
    /// stats are returned.  When it returns [`SinkClosed`] the restore is
    /// abandoned mid-way — protections and plugin hooks are skipped (the
    /// half-restored space must be thrown away) — and the cause comes back
    /// as a [`RestoreError`]: [`RestoreError::Mem`] when the address space
    /// refused something the image asked for (the cursor closed itself),
    /// [`RestoreError::Closed`] when the producer stopped for reasons its
    /// owner knows.
    pub fn restart_streaming(
        &self,
        space: &SharedSpace,
        produce: impl FnOnce(&mut RestoreCursor<'_>) -> Result<(), SinkClosed>,
    ) -> Result<RestartStats, RestoreError> {
        let mut cursor = RestoreCursor {
            space,
            regions: Vec::new(),
            payloads: Vec::new(),
            logical_bytes: 0,
            refused: None,
        };
        if produce(&mut cursor).is_err() {
            return Err(cursor
                .refused
                .map_or(RestoreError::Closed, RestoreError::Mem));
        }

        let mut stats = RestartStats::default();
        for (start, len, prot) in &cursor.regions {
            // Content was installed through the RW mapping; only now does
            // the recorded protection go on.
            if *prot != Prot::RW {
                space
                    .with_mut(|s| s.mprotect(*start, *len, *prot))
                    .map_err(RestoreError::Mem)?;
            }
            stats.regions_restored += 1;
            stats.bytes_restored += len;
        }
        stats.read_ns = (cursor.logical_bytes as f64 / self.config.disk_read_bw).ceil() as u64;

        self.fire_restart_hooks(&cursor.payloads, space);
        Ok(stats)
    }

    /// Fires every plugin's `restart` hook with its payload from the image
    /// (empty when the image carries none for it).
    fn fire_restart_hooks(&self, payloads: &[(String, Vec<u8>)], space: &SharedSpace) {
        for p in &self.plugins {
            let payload = payloads
                .iter()
                .find(|(name, _)| name == p.name())
                .map_or(&[][..], |(_, data)| data);
            p.restart(payload, space);
        }
    }

    /// Restores a checkpoint *lazily* into `space`: regions are mapped at
    /// their recorded addresses with their recorded protections, the pages
    /// named in `decl` are declared absent (mapped, no bytes), `handler`
    /// is installed as the space's demand-paging resolver, and the
    /// plugins' `restart` hooks fire — all **without reading a single page
    /// of content**.  The process is resumable the moment this returns;
    /// first touches of absent pages block in `handler` until the backing
    /// restore session installs them.
    ///
    /// Pages *not* named absent in `decl` are those the image holds no
    /// winner for: they restore as zeros, which the sparse page store
    /// already yields for untouched pages — so they are resident for free.
    ///
    /// `bytes_restored` counts the full logical size as usual, but
    /// `read_ns` is `0`: no content moved yet.  The restore session that
    /// services faults owns the I/O accounting.
    ///
    /// Fails — before the handler is installed or any hook fires — if the
    /// address space refuses a region or an absent run of `decl`; the
    /// half-mapped space must then be thrown away.
    pub fn restart_lazy(
        &self,
        space: &SharedSpace,
        decl: &LazyDeclaration,
        handler: Arc<dyn PageFaultHandler>,
    ) -> Result<RestartStats, MemError> {
        let mut stats = RestartStats::default();
        for desc in &decl.regions {
            // The recorded protection goes on immediately — unlike the
            // eager cursor there is no write-content-then-mprotect dance,
            // because `install_resident` is privileged and bypasses
            // protection bits when the fault handler fills pages in.
            space.mmap(
                MapRequest::anon(desc.len, Half::Upper, &desc.label)
                    .at(desc.start)
                    .prot(desc.prot),
            )?;
            stats.regions_restored += 1;
            stats.bytes_restored += desc.len;
        }
        space.with_mut(|s| {
            let mut runs = decl.absent.iter();
            runs.try_for_each(|(start, pages)| s.declare_absent(*start, pages * PAGE_SIZE))
        })?;
        space.install_fault_handler(handler);

        self.fire_restart_hooks(&decl.payloads, space);
        Ok(stats)
    }
}

/// Everything [`Coordinator::restart_lazy`] needs to map a checkpoint
/// without its content: the region skeleton, which pages of each region
/// have image content coming (the rest restore as zeros), and the plugin
/// payloads (always shipped eagerly — they are tiny and the plugins'
/// `restart` hooks need them before the process resumes).
///
/// Built by the image-store layer from a manifest plus its fetch plan.
#[derive(Clone, Debug, Default)]
pub struct LazyDeclaration {
    /// Region skeleton, in declaration order.
    pub regions: Vec<RegionDescriptor>,
    /// Runs of pages with image content to fault in, as `(start address,
    /// page count)`; a run may span adjacent regions.
    pub absent: Vec<(Addr, u64)>,
    /// Named plugin payloads, delivered to `restart` hooks immediately.
    pub payloads: Vec<(String, Vec<u8>)>,
}

/// A consistent capture of one saved range: the pages to emit by
/// range-relative index — a frozen zero-copy snapshot (later writes
/// copy-on-write around it) or `None` for a bridged zero page — plus how
/// many of them were actually dirty.
struct Capture {
    pages: Vec<(u64, Option<Arc<[u8]>>)>,
    dirty_pages: u64,
}

/// Captures the pages of `range` stamped at or after `since` (`0`: every
/// resident page) as zero-copy `Arc` clones, in one pass over its slots.
/// Gaps of up to `max_gap` clean pages between dirty ones are bridged —
/// captured with whatever content they hold right now, unchanged since the
/// last round.  Call under the space lock; emission then proceeds without it.
///
/// An absent page has content this process never paged in: capturing it as
/// zeros would silently corrupt the image, so it fails the capture.
fn capture_range(
    s: &AddressSpace,
    range: &RegionDescriptor,
    since: u64,
    max_gap: u64,
) -> Result<Capture, MemError> {
    let mut pages: Vec<(u64, Option<Arc<[u8]>>)> = Vec::new();
    let mut dirty_pages = 0u64;
    // Clean resident pages right behind the last captured one: bridge
    // content if the next dirty page is close enough (≤ `max_gap` entries).
    let mut clean: Vec<(u64, &crac_addrspace::Page)> = Vec::new();
    for (idx, slot) in s.slots(range.start, range.len) {
        let page = match slot {
            Slot::Resident(page) => page,
            Slot::Absent => return Err(MemError::NotResident(range.start + idx * PAGE_SIZE)),
        };
        let run_end = pages.last().map(|(last, _)| last + 1);
        if page.epoch() < since {
            if run_end.is_some_and(|end| idx - end < max_gap) {
                clean.push((idx, page));
            }
            continue;
        }
        dirty_pages += 1;
        if let Some(end) = run_end.filter(|end| idx - end <= max_gap) {
            pages.extend((end..idx).map(|gap| {
                let bridged = clean.iter().find(|(i, _)| *i == gap);
                (gap, bridged.map(|(_, p)| p.share()))
            }));
        }
        clean.clear();
        pages.push((idx, Some(page.share())));
    }
    Ok(Capture { pages, dirty_pages })
}

/// Pushes one region-open of captured pages into `sink` (nothing for an
/// empty capture unless the region must be `declare`d anyway) as maximal
/// runs of consecutive pages split to [`MAX_RUN_PAGES`], one bounded buffer
/// at a time.  Returns the content bytes streamed.
fn emit_region(
    sink: &mut dyn CheckpointSink,
    desc: &RegionDescriptor,
    cap: &Capture,
    declare: bool,
) -> Result<u64, SinkClosed> {
    if cap.pages.is_empty() && !declare {
        return Ok(0);
    }
    sink.begin_region(desc)?;
    let mut buf: Vec<u8> = Vec::new();
    let runs = cap.pages.chunk_by(|a, b| a.0 + 1 == b.0);
    for run in runs.flat_map(|run| run.chunks(MAX_RUN_PAGES as usize)) {
        buf.clear();
        for (_, page) in run {
            match page {
                Some(bytes) => buf.extend_from_slice(bytes),
                None => buf.resize(buf.len() + PAGE_SIZE as usize, 0),
            }
        }
        let count = run.len() as u64;
        sink.page_run(
            PageRun {
                first: run[0].0,
                count,
            },
            &buf,
        )?;
    }
    sink.end_region()?;
    Ok(cap.pages.len() as u64 * PAGE_SIZE)
}

/// The coordinator's streaming-restore consumer: maps declared regions
/// writable and installs page runs the moment they arrive.
///
/// Obtained through [`Coordinator::restart_streaming`].  A fresh address
/// space accepts every well-formed record; when it refuses one (a
/// zero-length, unaligned or out-of-half region, a run outside its
/// mapping) the cursor parks the [`MemError`], reports [`SinkClosed`] to
/// stop the producer, and `restart_streaming` returns the parked cause.
pub struct RestoreCursor<'a> {
    space: &'a SharedSpace,
    /// Declared regions, in declaration order: `(start, len, prot)`.
    /// Protections are applied at finish, after all content landed.
    regions: Vec<(Addr, u64, Prot)>,
    /// Collected payloads, handed to the plugins' `restart` hooks.
    payloads: Vec<(String, Vec<u8>)>,
    /// Logical bytes restored (regions + payloads) — drives the modelled
    /// read time.
    logical_bytes: u64,
    /// The first thing the address space refused.
    refused: Option<MemError>,
}

impl RestoreCursor<'_> {
    fn refuse(&mut self, e: MemError) -> SinkClosed {
        self.refused.get_or_insert(e);
        SinkClosed
    }
}

impl RestoreSink for RestoreCursor<'_> {
    fn declare_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed> {
        // Map writable first so page contents can be installed; the
        // recorded protection goes on when the stream finishes.
        self.space
            .mmap(
                MapRequest::anon(desc.len, Half::Upper, &desc.label)
                    .at(desc.start)
                    .prot(Prot::RW),
            )
            .map_err(|e| self.refuse(e))?;
        self.regions.push((desc.start, desc.len, desc.prot));
        self.logical_bytes += desc.len;
        Ok(())
    }

    fn page_run(
        &mut self,
        region: usize,
        run: crac_addrspace::PageRun,
        bytes: &[u8],
    ) -> Result<(), SinkClosed> {
        debug_assert_eq!(bytes.len() as u64, run.count * PAGE_SIZE);
        let (start, _, _) = *self
            .regions
            .get(region)
            // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
            .expect("page_run targets an undeclared region");
        self.space
            .write_bytes(start + run.first * PAGE_SIZE, bytes)
            .map_err(|e| self.refuse(e))
    }

    fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed> {
        self.logical_bytes += data.len() as u64;
        self.payloads.push((name.to_string(), data.to_vec()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::RecordingPlugin;
    use crac_addrspace::MapsEntry;

    fn upper_mapping(space: &SharedSpace, pages: u64, label: &str) -> Addr {
        space
            .mmap(MapRequest::anon(pages * PAGE_SIZE, Half::Upper, label))
            .unwrap()
    }

    fn lower_mapping(space: &SharedSpace, pages: u64, label: &str) -> Addr {
        space
            .mmap(MapRequest::anon(pages * PAGE_SIZE, Half::Lower, label))
            .unwrap()
    }

    #[test]
    fn checkpoint_then_restart_restores_content() {
        let space = SharedSpace::new_no_aslr();
        let a = upper_mapping(&space, 4, "app-data");
        space.write_bytes(a + 100, b"survive me").unwrap();
        let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        let (image, stats) = coord.checkpoint(42);
        assert_eq!(stats.regions_saved, 1);
        assert_eq!(stats.image_bytes, 4 * PAGE_SIZE);
        assert!(stats.write_ns > 0);

        // Restart into a brand-new address space.
        let fresh = SharedSpace::new_no_aslr();
        let rstats = coord.restart_into(&image, &fresh);
        assert_eq!(rstats.regions_restored, 1);
        let mut buf = [0u8; 10];
        fresh.read_bytes(a + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"survive me");
    }

    #[test]
    fn plugin_skip_excludes_lower_half() {
        struct SkipLower;
        impl DmtcpPlugin for SkipLower {
            fn name(&self) -> &str {
                "skip-lower"
            }
            fn region_decision(&self, entry: &MapsEntry) -> RegionDecision {
                if entry.start.as_u64() < 0x4000_0000_0000 {
                    RegionDecision::Skip
                } else {
                    RegionDecision::Save
                }
            }
        }
        let space = SharedSpace::new_no_aslr();
        upper_mapping(&space, 2, "upper");
        lower_mapping(&space, 64, "cuda-arena");
        let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        coord.register_plugin(Arc::new(SkipLower));
        let (image, stats) = coord.checkpoint(0);
        assert_eq!(stats.regions_saved, 1);
        assert_eq!(stats.regions_skipped, 1);
        // Only the 2-page upper mapping is in the image, not the 64-page
        // lower arena.
        assert_eq!(image.logical_size(), 2 * PAGE_SIZE);
    }

    #[test]
    fn save_ranges_splits_a_merged_entry() {
        // One plugin saves only the first page of every entry.
        struct FirstPageOnly;
        impl DmtcpPlugin for FirstPageOnly {
            fn name(&self) -> &str {
                "first-page"
            }
            fn region_decision(&self, entry: &MapsEntry) -> RegionDecision {
                RegionDecision::SaveRanges(vec![(entry.start, PAGE_SIZE)])
            }
        }
        let space = SharedSpace::new_no_aslr();
        let a = upper_mapping(&space, 8, "big");
        space.write_bytes(a, &[1u8; 16]).unwrap();
        space.write_bytes(a + 4 * PAGE_SIZE, &[2u8; 16]).unwrap();
        let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        coord.register_plugin(Arc::new(FirstPageOnly));
        let (image, _) = coord.checkpoint(0);
        assert_eq!(image.logical_size(), PAGE_SIZE);
        assert_eq!(image.regions[0].pages.len(), 1);
    }

    #[test]
    fn plugin_hooks_fire_in_order_and_payload_round_trips() {
        let space = SharedSpace::new_no_aslr();
        upper_mapping(&space, 1, "x");
        let plugin = Arc::new(RecordingPlugin::default());
        let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        coord.register_plugin(plugin.clone());
        let (image, _) = coord.checkpoint(0);
        assert_eq!(image.payloads["recording"], b"recorded");
        let fresh = SharedSpace::new_no_aslr();
        coord.restart_into(&image, &fresh);
        use crate::plugin::PluginEvent::*;
        assert_eq!(*plugin.events.lock(), vec![PreCheckpoint, Resume, Restart]);
    }

    #[test]
    fn precopy_on_static_memory_converges_in_zero_rounds() {
        let space = SharedSpace::new_no_aslr();
        let a = upper_mapping(&space, 6, "static");
        space.write_bytes(a + 17, b"precopy me").unwrap();
        space.write_bytes(a + 4 * PAGE_SIZE, &[0xAB; 64]).unwrap();
        let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        let mut sink = ImageSink::default();
        let pre = coord
            .checkpoint_walk(&mut sink, Some(&PrecopyConfig::default()))
            .unwrap();
        assert!(pre.converged, "nothing mutates, so round 0 must suffice");
        assert_eq!(pre.rounds, 0);
        // Bulk round plus the (empty) final pass.
        assert_eq!(pre.round_bytes.len(), 2);
        assert!(pre.round_bytes[0] > 0);
        assert_eq!(pre.final_dirty_pages, 0);
        assert_eq!(pre.layout_drift, 0);
        assert_eq!(pre.ckpt.regions_saved, 1);
        assert_eq!(pre.ckpt.image_bytes, 6 * PAGE_SIZE);

        let fresh = SharedSpace::new_no_aslr();
        coord.restart_into(&sink.image, &fresh);
        let mut live = vec![0u8; 6 * PAGE_SIZE as usize];
        let mut restored = live.clone();
        space.read_bytes(a, &mut live).unwrap();
        fresh.read_bytes(a, &mut restored).unwrap();
        assert_eq!(live, restored);
    }

    /// A sink that re-dirties the space on every `end_region` until the
    /// final quiesce — a deterministic stand-in for a mutator thread that
    /// always outruns the delta rounds.
    struct MutatingSink {
        inner: ImageSink,
        space: SharedSpace,
        target: Addr,
        stopped: Arc<std::sync::atomic::AtomicBool>,
        writes: u64,
    }

    impl CheckpointSink for MutatingSink {
        fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed> {
            self.inner.begin_region(desc)
        }
        fn page_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), SinkClosed> {
            self.inner.page_run(run, bytes)
        }
        fn end_region(&mut self) -> Result<(), SinkClosed> {
            if !self.stopped.load(std::sync::atomic::Ordering::Relaxed) {
                self.writes += 1;
                let page = self.writes % 8;
                self.space
                    .write_bytes(self.target + page * PAGE_SIZE, &[self.writes as u8; 16])
                    .unwrap();
            }
            self.inner.end_region()
        }
        fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed> {
            self.inner.payload(name, data)
        }
    }

    /// Quiesce hook that freezes the mutating sink — the moment the final
    /// stop-the-world pass begins, writes stop, exactly like a real
    /// quiesced application.
    struct StopWrites(Arc<std::sync::atomic::AtomicBool>);
    impl DmtcpPlugin for StopWrites {
        fn name(&self) -> &str {
            "stop-writes"
        }
        fn pre_checkpoint(&self) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn precopy_round_cap_bounds_a_nonconverging_mutator_and_stays_correct() {
        let space = SharedSpace::new_no_aslr();
        let a = upper_mapping(&space, 8, "hot");
        space.fill(a, 8 * PAGE_SIZE, 0x5A).unwrap();
        let stopped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        coord.register_plugin(Arc::new(StopWrites(Arc::clone(&stopped))));
        let mut sink = MutatingSink {
            inner: ImageSink::default(),
            space: space.clone(),
            target: a,
            stopped,
            writes: 0,
        };
        let cfg = PrecopyConfig {
            max_rounds: 3,
            convergence_pages: 0,
            max_run_gap: 0,
        };
        let pre = coord.checkpoint_walk(&mut sink, Some(&cfg)).unwrap();
        assert!(
            !pre.converged,
            "every round re-dirties a page, so the cap must hit"
        );
        assert_eq!(pre.rounds, 3);
        // Bulk + three deltas + final.
        assert_eq!(pre.round_bytes.len(), 5);
        assert!(pre.final_dirty_pages > 0, "the cap leaves a residual delta");

        // Memory froze at the quiesce and never changed after, so the
        // restored image must equal the live content byte for byte.
        let fresh = SharedSpace::new_no_aslr();
        coord.restart_into(&sink.inner.image, &fresh);
        let mut live = vec![0u8; 8 * PAGE_SIZE as usize];
        let mut restored = live.clone();
        space.read_bytes(a, &mut live).unwrap();
        fresh.read_bytes(a, &mut restored).unwrap();
        assert_eq!(live, restored);
    }

    /// An [`ImageSink`] that also logs the runs it was handed.
    #[derive(Default)]
    struct RunLog {
        inner: ImageSink,
        runs: Vec<(u64, u64)>,
    }

    impl CheckpointSink for RunLog {
        fn begin_region(&mut self, desc: &RegionDescriptor) -> Result<(), SinkClosed> {
            self.inner.begin_region(desc)
        }
        fn page_run(&mut self, run: PageRun, bytes: &[u8]) -> Result<(), SinkClosed> {
            self.runs.push((run.first, run.count));
            self.inner.page_run(run, bytes)
        }
        fn end_region(&mut self) -> Result<(), SinkClosed> {
            self.inner.end_region()
        }
        fn payload(&mut self, name: &str, data: &[u8]) -> Result<(), SinkClosed> {
            self.inner.payload(name, data)
        }
    }

    #[test]
    fn precopy_gap_coalescing_bridges_clean_pages_without_corruption() {
        let space = SharedSpace::new_no_aslr();
        let a = upper_mapping(&space, 48, "sparse");
        // Dirty pages 0, 2, 4, 6, 8 — gaps of exactly one clean page — then
        // 11 (a gap of two), then 20..=40 (longer than one emission unit).
        for p in (0..9).step_by(2).chain([11]).chain(20..=40) {
            space
                .write_bytes(a + p * PAGE_SIZE, &[p as u8 + 1; 32])
                .unwrap();
        }
        let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        let mut sink = RunLog::default();
        let pre = coord
            .checkpoint_walk(
                &mut sink,
                Some(&PrecopyConfig {
                    max_run_gap: 1,
                    ..Default::default()
                }),
            )
            .unwrap();
        // Bridging emits the clean pages too — one 9-page run, not five —
        // but never a wider gap, and long runs split at `MAX_RUN_PAGES`.
        assert_eq!(sink.runs, [(0, 9), (11, 1), (20, 16), (36, 5)]);
        assert_eq!(pre.round_bytes[0], 31 * PAGE_SIZE);
        let fresh = SharedSpace::new_no_aslr();
        coord.restart_into(&sink.inner.image, &fresh);
        let mut live = vec![0u8; 48 * PAGE_SIZE as usize];
        let mut restored = live.clone();
        space.read_bytes(a, &mut live).unwrap();
        fresh.read_bytes(a, &mut restored).unwrap();
        assert_eq!(live, restored, "bridged zero pages must restore as zero");
    }

    #[test]
    fn readonly_regions_are_restored_with_their_protection() {
        let space = SharedSpace::new_no_aslr();
        let a = upper_mapping(&space, 1, "text");
        space.write_bytes(a, b"code bytes").unwrap();
        space
            .with_mut(|s| s.mprotect(a, PAGE_SIZE, Prot::RX))
            .unwrap();
        let coord = Coordinator::new(space.clone(), CoordinatorConfig::default());
        let (image, _) = coord.checkpoint(0);
        let fresh = SharedSpace::new_no_aslr();
        coord.restart_into(&image, &fresh);
        let mut buf = [0u8; 10];
        fresh.read_bytes(a, &mut buf).unwrap();
        assert_eq!(&buf, b"code bytes");
        // Write should now fail: the protection came back as RX.
        assert!(fresh.write_bytes(a, b"nope").is_err());
    }

    /// A handler that counts faults and installs a recognisable page.
    struct CountingHandler {
        space: SharedSpace,
        faults: std::sync::atomic::AtomicUsize,
    }

    impl PageFaultHandler for CountingHandler {
        fn fault(&self, addr: Addr) -> Result<(), crac_addrspace::MemError> {
            self.faults
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let page = Addr(crac_addrspace::page_align_down(addr.as_u64()));
            self.space
                .with_mut(|s| s.install_resident(page, &[0xFA; PAGE_SIZE as usize]))?;
            Ok(())
        }
    }

    const LAZY_START: Addr = Addr(0x5000_0000_0000);

    /// A process resumed by `restart_lazy` and not touched yet: one 4-page
    /// region whose pages 1 and 2 have image content coming (0 and 3 restore
    /// as zeros for free).
    fn lazily_restored() -> (
        SharedSpace,
        Coordinator,
        Arc<RecordingPlugin>,
        Arc<CountingHandler>,
        RestartStats,
    ) {
        let fresh = SharedSpace::new_no_aslr();
        let decl = LazyDeclaration {
            regions: vec![RegionDescriptor {
                start: LAZY_START,
                len: 4 * PAGE_SIZE,
                prot: Prot::RW,
                label: "lazy-region".into(),
            }],
            absent: vec![(LAZY_START + PAGE_SIZE, 2)],
            payloads: vec![("recording".into(), b"recorded".to_vec())],
        };
        let mut coord = Coordinator::new(fresh.clone(), CoordinatorConfig::default());
        let recorder = Arc::new(RecordingPlugin::default());
        coord.register_plugin(Arc::clone(&recorder) as Arc<dyn DmtcpPlugin>);
        let handler = Arc::new(CountingHandler {
            space: fresh.clone(),
            faults: Default::default(),
        });
        let stats = coord
            .restart_lazy(&fresh, &decl, Arc::clone(&handler) as _)
            .unwrap();
        (fresh, coord, recorder, handler, stats)
    }

    #[test]
    fn restart_lazy_maps_the_skeleton_and_faults_content_on_first_touch() {
        let (fresh, _coord, recorder, handler, stats) = lazily_restored();
        let start = LAZY_START;

        // Resumable immediately: skeleton mapped, nothing read, plugins
        // fired with their manifest payloads.
        assert_eq!(stats.regions_restored, 1);
        assert_eq!(stats.bytes_restored, 4 * PAGE_SIZE);
        assert_eq!(stats.read_ns, 0, "no content moved at resume");
        assert_eq!(fresh.with(|s| s.stats().absent_pages), 2);
        // `RecordingPlugin::restart` asserts it received its own payload,
        // so reaching the Restart event proves payload routing too.
        assert_eq!(
            *recorder.events.lock(),
            vec![crate::plugin::PluginEvent::Restart],
            "restart hooks fire with the declared payloads"
        );

        // No-winner pages are resident zeros without any fault.
        let mut b = [0xFFu8; 1];
        fresh.read_bytes(start, &mut b).unwrap();
        assert_eq!(b[0], 0);
        assert_eq!(handler.faults.load(std::sync::atomic::Ordering::SeqCst), 0);

        // First touch of an absent page routes through the handler.
        fresh.read_bytes(start + PAGE_SIZE + 7, &mut b).unwrap();
        assert_eq!(b[0], 0xFA);
        assert_eq!(handler.faults.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(fresh.with(|s| s.stats().absent_pages), 1);
    }

    #[test]
    fn checkpoint_during_lazy_restore_pages_in_or_fails_never_zeros() {
        use crate::plugin::PluginEvent::*;
        // With a handler: the walk first-touches both absent pages, then
        // captures exactly what the handler installed.
        let (_fresh, coord, recorder, handler, _) = lazily_restored();
        let (image, _) = coord.checkpoint(0);
        assert_eq!(handler.faults.load(std::sync::atomic::Ordering::SeqCst), 2);
        let pages = &image.regions[0].pages;
        assert_eq!(pages.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [1, 2]);
        assert!(pages.iter().all(|(_, b)| b.iter().all(|&x| x == 0xFA)));
        assert_eq!(
            *recorder.events.lock(),
            vec![Restart, PreCheckpoint, Resume]
        );

        // Without one the page cannot materialise: an error from the
        // streaming entry, plugins resumed, and no page recorded as zeros.
        let (fresh, coord, recorder, handler, _) = lazily_restored();
        fresh.clear_fault_handler();
        let mut sink = ImageSink::default();
        assert_eq!(coord.checkpoint_streaming(&mut sink), Err(SinkClosed));
        assert_eq!(
            coord.checkpoint_walk(&mut sink, Some(&PrecopyConfig::default())),
            Err(CkptError::Mem(MemError::NotResident(
                LAZY_START + PAGE_SIZE
            )))
        );
        assert!(sink.image.regions.iter().all(|r| r.pages.is_empty()));
        assert_eq!(handler.faults.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(fresh.with(|s| s.stats().absent_pages), 2);
        assert_eq!(
            *recorder.events.lock(),
            vec![Restart, PreCheckpoint, Resume],
            "the failed stop-the-world walk resumed its plugins; pre-copy never stopped them"
        );
    }
}
