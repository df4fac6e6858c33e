//! The CRAC DMTCP plugin: drain, stage, exclude the lower half, and carry the
//! replay log in the checkpoint image.

use std::collections::BTreeSet;
use std::sync::Arc;

use crac_sync::Mutex;

use crac_addrspace::space::UPPER_BASE;
use crac_addrspace::{page_align_up, Addr, Half, MapRequest, MapsEntry, SharedSpace};
use crac_cudart::CudaRuntime;
use crac_dmtcp::plugin::{DmtcpPlugin, RegionDecision};
use crac_dmtcp::ByteCursor;

use crate::interpose::{CracState, StagedBuffer};
use crate::log::CudaCallLog;
use crate::mallocs::ActiveMallocs;
use crate::process::CracError;
use crate::wire::Encoder;

/// Base of the window at the top of the upper half that CRAC keeps to
/// itself: staging buffers are mapped here, back to back, and nowhere else,
/// so an address alone tells restart whether a range an image calls
/// "staging" can be one (the application's own mappings grow up from
/// [`UPPER_BASE`]).
pub const STAGING_BASE: u64 = 0x7000_0000_0000;

/// Magic prefix of the plugin payload (`2`: the log and the staging table,
/// nothing derived).
const PAYLOAD_MAGIC: &[u8; 8] = b"CRACPAY2";

/// The decoded contents of a CRAC plugin payload: the log, which replay
/// folds back into the whole interposition state, and where the drained
/// device contents wait.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CracPayload {
    /// The replay log.
    pub log: CudaCallLog,
    /// Staged device/managed buffer contents.
    pub staging: Vec<StagedBuffer>,
}

impl CracPayload {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(PAYLOAD_MAGIC);
        self.log.encode(&mut e);
        e.u64(self.staging.len() as u64);
        for s in &self.staging {
            e.u64(s.ptr).u64(s.len).u64(s.staging);
        }
        e.finish()
    }

    /// Parses a payload produced by [`CracPayload::encode`] — all of it: a
    /// payload of another version, a truncated one and one with bytes left
    /// over are all `None`.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut d = ByteCursor::new(data);
        if d.bytes()? != PAYLOAD_MAGIC {
            return None;
        }
        let log = CudaCallLog::decode(&mut d)?;
        let n = d.u64()? as usize;
        let mut staging = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            staging.push(StagedBuffer {
                ptr: d.u64()?,
                len: d.u64()?,
                staging: d.u64()?,
            });
        }
        d.at_end().then_some(Self { log, staging })
    }

    /// Checks the staging table against the mallocs the log replayed to and
    /// the restored memory, before restart copies or unmaps anything on its
    /// word.  The payload is outside input (the manifest's checksum is the
    /// sender's), so restart refills only what [`CracPlugin::pre_checkpoint`]
    /// could have staged: every entry names one active drained allocation
    /// with its exact size, each at most once, and its staging range is
    /// page-aligned, inside the staging window, mapped end to end by the
    /// image, and disjoint from every other entry's.
    pub(crate) fn check_staging(
        &self,
        mallocs: &ActiveMallocs,
        space: &SharedSpace,
    ) -> Result<(), CracError> {
        let mut ranges = Vec::with_capacity(self.staging.len());
        let mut staged = BTreeSet::new();
        for s in &self.staging {
            let known = mallocs.get(Addr(s.ptr));
            let drained = known.is_some_and(|(len, kind)| len == s.len && kind.needs_drain());
            let in_window = s.staging >= STAGING_BASE && Addr(s.staging).is_page_aligned();
            if !(drained && in_window && staged.insert(s.ptr)) {
                return Err(CracError::BadImage);
            }
            // `len` is an active allocation's size: rounding it up cannot wrap.
            ranges.push((s.staging, s.staging.saturating_add(page_align_up(s.len))));
        }
        ranges.sort_unstable();
        let apart = ranges.windows(2).all(|w| w[0].1 <= w[1].0);
        // Mapped end to end: hop from region to region until past the end.
        let mapped = |&(mut at, end): &(u64, u64)| {
            space.with(|sp| {
                while let Some(r) = sp.region_at(Addr(at)).filter(|_| at < end) {
                    at = r.end().as_u64();
                }
                at >= end
            })
        };
        let fits = apart && ranges.iter().all(mapped);
        fits.then_some(()).ok_or(CracError::BadImage)
    }
}

/// The DMTCP plugin CRAC registers with the coordinator.
pub struct CracPlugin {
    runtime: Arc<CudaRuntime>,
    space: SharedSpace,
    state: Arc<Mutex<CracState>>,
}

impl CracPlugin {
    /// Creates the plugin for the current lower half.
    pub fn new(
        runtime: Arc<CudaRuntime>,
        space: SharedSpace,
        state: Arc<Mutex<CracState>>,
    ) -> Self {
        Self {
            runtime,
            space,
            state,
        }
    }

    /// Unmaps every staging buffer and forgets the table: what `resume`
    /// does, and what `pre_checkpoint` does first so that staging again
    /// without a `resume` in between starts from an empty window.
    fn release_staging(&self, st: &mut CracState) {
        for s in st.staging.drain(..) {
            let _ = self.space.munmap(Addr(s.staging), page_align_up(s.len));
        }
    }
}

impl DmtcpPlugin for CracPlugin {
    fn name(&self) -> &str {
        "crac"
    }

    /// "Drain the queue" and stage device state into the upper half.
    fn pre_checkpoint(&self) {
        // 1. Quiesce the GPU: every pending kernel and copy completes.
        self.runtime.device().device_synchronize();

        // 2. Drain the contents of every active device/managed allocation
        //    into upper-half staging buffers so DMTCP saves them.
        let mut st = self.state.lock();
        self.release_staging(&mut st);
        let mut drained_bytes = 0u64;
        let to_drain: Vec<(Addr, u64)> = st
            .mallocs
            .iter()
            .filter(|(_, _, kind)| kind.needs_drain())
            .map(|(ptr, len, _)| (ptr, len))
            .collect();
        let mut window = Addr(STAGING_BASE);
        for (ptr, len) in to_drain {
            let request = MapRequest::anon(page_align_up(len), Half::Upper, "crac-staging");
            let staging = self
                .space
                .mmap(request.at(window))
                // crac-lint: allow(no-unwrap) — staging lands in CRAC's own window of the upper half, which cannot be exhausted by construction
                .expect("staging allocation must succeed");
            window = staging + page_align_up(len);
            self.space
                .sparse_copy(staging, ptr, len)
                // crac-lint: allow(no-unwrap) — both ends were mapped just above: an active allocation and its fresh staging buffer
                .expect("drain copy of an active allocation");
            st.staging.push(StagedBuffer {
                ptr: ptr.as_u64(),
                len,
                staging: staging.as_u64(),
            });
            drained_bytes += len;
        }

        // 3. Charge the device→host transfer time for the drained bytes.
        let profile = &self.runtime.config().profile;
        self.runtime
            .device()
            .clock()
            .advance(profile.pcie_transfer_ns(drained_bytes));
    }

    fn payload(&self) -> Vec<u8> {
        let st = self.state.lock();
        CracPayload {
            log: st.log.clone(),
            staging: st.staging.clone(),
        }
        .encode()
    }

    fn region_decision(&self, entry: &MapsEntry) -> RegionDecision {
        // Lower-half memory (the helper program, the CUDA library and its
        // arenas) is never checkpointed; a fresh copy is loaded at restart.
        if entry.start.as_u64() < UPPER_BASE {
            RegionDecision::Skip
        } else {
            RegionDecision::Save
        }
    }

    /// After the image is written the original process continues: release the
    /// staging copies.
    fn resume(&self) {
        self.release_staging(&mut self.state.lock());
    }

    // Restart is orchestrated by `CracProcess::restart`, which replays the
    // log against the *new* lower half; the old plugin object (and its old
    // runtime reference) is gone by then, so the trait hook stays a no-op.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LoggedCall;
    use crate::mallocs::AllocKind;
    use crac_addrspace::space::SPACE_END;
    use crac_addrspace::{Prot, PAGE_SIZE};
    use crac_cudart::RuntimeConfig;

    fn setup() -> (
        Arc<CudaRuntime>,
        SharedSpace,
        Arc<Mutex<CracState>>,
        CracPlugin,
    ) {
        let space = SharedSpace::new_no_aslr();
        let runtime = CudaRuntime::new(RuntimeConfig::test(), space.clone());
        let state = Arc::new(Mutex::new("core.plugin.state", CracState::default()));
        let plugin = CracPlugin::new(Arc::clone(&runtime), space.clone(), Arc::clone(&state));
        (runtime, space, state, plugin)
    }

    #[test]
    fn payload_round_trips() {
        let payload = CracPayload {
            log: {
                let mut l = CudaCallLog::new();
                l.push(LoggedCall::Malloc {
                    size: 64,
                    ptr: 0x100,
                });
                l
            },
            staging: vec![StagedBuffer {
                ptr: 0x100,
                len: 64,
                staging: STAGING_BASE,
            }],
        };
        let bytes = payload.encode();
        assert_eq!(CracPayload::decode(&bytes), Some(payload));
        assert!(CracPayload::decode(&bytes[..5]).is_none());
        // The whole input is the payload: nothing may trail it.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(CracPayload::decode(&longer).is_none());
    }

    #[test]
    fn staging_is_refilled_only_where_the_plugin_could_have_put_it() {
        let (runtime, space, state, plugin) = setup();
        let dev = runtime.malloc(8192).unwrap();
        let managed = runtime.malloc_managed(4096).unwrap();
        let pinned = runtime.malloc_host(4096).unwrap();
        let heap = space
            .mmap(MapRequest::anon(8192, Half::Upper, "[heap]"))
            .unwrap();
        space.write_bytes(heap, &[7; 64]).unwrap();
        {
            let mut st = state.lock();
            st.mallocs.insert(dev, 8192, AllocKind::Device);
            st.mallocs.insert(managed, 4096, AllocKind::Managed);
            st.mallocs.insert(pinned, 4096, AllocKind::PinnedHost);
        }
        plugin.pre_checkpoint();
        let st = state.lock();
        let honest = CracPayload {
            log: CudaCallLog::new(),
            staging: st.staging.clone(),
        };
        assert_eq!(honest.staging.len(), 2);
        assert_eq!(honest.staging[0].staging, STAGING_BASE);
        assert_eq!(honest.check_staging(&st.mallocs, &space), Ok(()));

        let lie = |edit: &dyn Fn(&mut Vec<StagedBuffer>)| {
            let mut p = honest.clone();
            edit(&mut p.staging);
            p.check_staging(&st.mallocs, &space)
        };
        let bad = Err(CracError::BadImage);
        // The application's heap is not staging, however well it is mapped.
        assert_eq!(lie(&|s| s[0].staging = heap.as_u64()), bad);
        // Two entries may not share staging, nor one allocation two entries.
        assert_eq!(lie(&|s| s[1].staging = s[0].staging), bad);
        assert_eq!(lie(&|s| s[1] = s[0]), bad);
        // The target is an active drained allocation of exactly that size.
        assert_eq!(lie(&|s| s[0].ptr = pinned.as_u64()), bad);
        assert_eq!(lie(&|s| s[0].ptr += 256), bad);
        assert_eq!(lie(&|s| s[0].len = 4096), bad);
        assert_eq!(lie(&|s| s[0].len = u64::MAX - 1), bad);
        // The range is page-aligned and mapped end to end.
        assert_eq!(lie(&|s| s[0].staging += 8), bad);
        assert_eq!(lie(&|s| s[1].staging += PAGE_SIZE), bad);
        assert_eq!(lie(&|s| s[1].staging = SPACE_END - PAGE_SIZE), bad);
        // Staging fewer allocations than are active is the sender's choice.
        assert_eq!(lie(&|s| s.truncate(1)), Ok(()));
        // None of it touched memory.
        let mut buf = [0u8; 64];
        space.read_bytes(heap, &mut buf).unwrap();
        assert_eq!(buf, [7; 64]);
    }

    #[test]
    fn pre_checkpoint_stages_device_contents_and_resume_releases_them() {
        let (runtime, space, state, plugin) = setup();
        let dev = runtime.malloc(8192).unwrap();
        space.write_bytes(dev, &[0x5a; 128]).unwrap();
        state.lock().mallocs.insert(dev, 8192, AllocKind::Device);

        plugin.pre_checkpoint();
        let staged = state.lock().staging.clone();
        assert_eq!(staged.len(), 1);
        let mut buf = [0u8; 128];
        space.read_bytes(Addr(staged[0].staging), &mut buf).unwrap();
        assert_eq!(buf, [0x5a; 128]);
        // Staging is upper-half memory, so DMTCP will save it.
        assert!(staged[0].staging >= STAGING_BASE);

        plugin.resume();
        assert!(state.lock().staging.is_empty());
        assert!(space.read_bytes(Addr(staged[0].staging), &mut buf).is_err());
    }

    /// Regression (PR 15 follow-up): a second `pre_checkpoint` with no
    /// `resume` between mapped the window over the first call's buffers and
    /// listed every allocation twice, so `check_staging` refused the image.
    #[test]
    fn pre_checkpoint_twice_stages_each_allocation_once() {
        use crate::config::CracConfig;
        use crate::process::CracProcess;
        use crate::KernelRegistry;

        let proc = CracProcess::launch(CracConfig::test("twice"), Arc::new(KernelRegistry::new()));
        let dev = proc.malloc(8192).unwrap();
        let managed = proc.malloc_managed(4096).unwrap();
        proc.space().write_bytes(dev, &[0x5a; 128]).unwrap();
        proc.space().write_bytes(managed, &[0xa5; 128]).unwrap();

        let plugin = proc.crac_plugin();
        plugin.pre_checkpoint();
        plugin.pre_checkpoint();
        let payload = CracPayload::decode(&plugin.payload()).unwrap();
        assert_eq!(payload.staging.len(), 2, "one entry per active allocation");
        assert_eq!(payload.staging[0].staging, STAGING_BASE);
        assert_eq!(
            payload.check_staging(&proc.state().mallocs, proc.space()),
            Ok(())
        );

        // The coordinator's own pre_checkpoint is now the third in a row.
        let image = proc.checkpoint().image;
        assert!(proc.state().staging.is_empty(), "checkpoint resumed");
        let (back, report) = CracProcess::restart(
            &image,
            CracConfig::test("twice"),
            Arc::new(KernelRegistry::new()),
        )
        .unwrap();
        assert_eq!(report.refilled_bytes, 8192 + 4096);
        let mut buf = [0u8; 128];
        back.space().read_bytes(dev, &mut buf).unwrap();
        assert_eq!(buf, [0x5a; 128]);
        back.space().read_bytes(managed, &mut buf).unwrap();
        assert_eq!(buf, [0xa5; 128]);
    }

    #[test]
    fn pinned_host_allocations_are_not_staged() {
        let (runtime, _space, state, plugin) = setup();
        let pinned = runtime.malloc_host(4096).unwrap();
        state
            .lock()
            .mallocs
            .insert(pinned, 4096, AllocKind::PinnedHost);
        plugin.pre_checkpoint();
        assert!(state.lock().staging.is_empty());
    }

    #[test]
    fn region_decision_skips_lower_half_only() {
        let (_runtime, _space, _state, plugin) = setup();
        let lower = MapsEntry {
            start: Addr(0x2000_0000),
            end: Addr(0x2000_1000),
            prot: Prot::RW,
            label: "cuda-device-arena".to_string(),
            merged_regions: 1,
        };
        let upper = MapsEntry {
            start: Addr(UPPER_BASE + 0x1000),
            end: Addr(UPPER_BASE + 0x2000),
            prot: Prot::RW,
            label: "[heap]".to_string(),
            merged_regions: 1,
        };
        assert_eq!(plugin.region_decision(&lower), RegionDecision::Skip);
        assert_eq!(plugin.region_decision(&upper), RegionDecision::Save);
    }

    #[test]
    fn drain_charges_pcie_time() {
        let (runtime, space, state, plugin) = setup();
        let dev = runtime.malloc(1 << 20).unwrap();
        space.fill(dev, 1 << 20, 1).unwrap();
        state.lock().mallocs.insert(dev, 1 << 20, AllocKind::Device);
        let before = runtime.device().clock().now();
        plugin.pre_checkpoint();
        let elapsed = runtime.device().clock().now() - before;
        // 1 MiB at 2 B/ns (test profile) ≈ 0.5 ms.
        assert!(elapsed >= 500_000, "elapsed {elapsed}");
    }
}
