//! Unified Virtual Memory: managed ranges with on-demand page migration.
//!
//! CUDA 6.0's UVM lets both host and device dereference the same pointer;
//! hardware page faults migrate pages to whichever side touched them last.
//! The paper's key point is that this state lives partly inside the CUDA
//! library and the kernel driver and therefore *cannot be checkpointed* —
//! CRAC instead drains managed buffers to the upper half and recreates the
//! managed allocations on restart.
//!
//! This module is the UVM *timing* model: which pages of a managed range are
//! resident where, how many faults and migrated bytes a host or device access
//! causes, and the prefetch calls that bypass faulting.  `device.rs` charges
//! fault batches to the virtual clock and `crac-workloads`' `runner.rs`
//! reports the fault counts.  It does not hold page contents: those live in
//! the shared address space like any other device buffer.

use std::collections::BTreeMap;

use crac_addrspace::Addr;

/// Where a managed page currently resides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageLocation {
    /// Page is resident in host memory.
    Host,
    /// Page is resident in device memory.
    Device,
}

/// Fault and migration counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Faults taken by the host touching device-resident pages.
    pub host_faults: u64,
    /// Faults taken by the device touching host-resident pages.
    pub device_faults: u64,
    /// Bytes migrated host→device.
    pub bytes_h2d: u64,
    /// Bytes migrated device→host.
    pub bytes_d2h: u64,
    /// Pages moved by explicit prefetches (either direction).
    pub prefetched_pages: u64,
}

/// Result of servicing an access: how many faults were taken and how many
/// bytes were migrated, so the device can charge virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Number of fault events (one per page batch in this model).
    pub faults: u64,
    /// Bytes migrated to satisfy the access.
    pub bytes_migrated: u64,
}

#[derive(Clone, Debug)]
struct ManagedRange {
    len: u64,
    page_bytes: u64,
    /// Residency per page index within the range.  Pages start on the host,
    /// matching first-touch-after-`cudaMallocManaged` behaviour on Pascal+.
    pages: Vec<PageLocation>,
}

impl ManagedRange {
    fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Book-keeper for all managed (UVM) ranges on one device.
#[derive(Debug, Default)]
pub struct UvmManager {
    ranges: BTreeMap<Addr, ManagedRange>,
    stats: UvmStats,
}

impl UvmManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a managed range created by `cudaMallocManaged`.
    pub fn register(&mut self, addr: Addr, len: u64, page_bytes: u64) {
        let page_bytes = page_bytes.max(1);
        let pages = len.div_ceil(page_bytes) as usize;
        self.ranges.insert(
            addr,
            ManagedRange {
                len,
                page_bytes,
                pages: vec![PageLocation::Host; pages],
            },
        );
    }

    /// Unregisters a managed range (on `cudaFree` of a managed pointer).
    /// Returns `true` if the range existed.
    pub fn unregister(&mut self, addr: Addr) -> bool {
        self.ranges.remove(&addr).is_some()
    }

    /// Returns the `(start, len)` of the managed range containing `addr`.
    pub fn range_containing(&self, addr: Addr) -> Option<(Addr, u64)> {
        self.ranges
            .range(..=addr)
            .next_back()
            .filter(|(start, r)| addr < **start + r.len)
            .map(|(start, r)| (*start, r.len))
    }

    /// Returns `true` if `addr` lies inside any managed range.
    pub fn is_managed(&self, addr: Addr) -> bool {
        self.range_containing(addr).is_some()
    }

    /// All managed ranges as `(start, len)` pairs, in address order.
    pub fn ranges(&self) -> Vec<(Addr, u64)> {
        self.ranges.iter().map(|(a, r)| (*a, r.len)).collect()
    }

    /// Total managed bytes currently registered.
    pub fn managed_bytes(&self) -> u64 {
        self.ranges.values().map(|r| r.len).sum()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> UvmStats {
        self.stats
    }

    /// Services a host access to `[addr, addr+len)`: any device-resident page
    /// in the range faults and migrates back to the host.
    pub fn touch_host(&mut self, addr: Addr, len: u64) -> AccessOutcome {
        self.touch(addr, len, PageLocation::Host)
    }

    /// Services a device access (kernel touching a managed buffer): any
    /// host-resident page migrates to the device.
    pub fn touch_device(&mut self, addr: Addr, len: u64) -> AccessOutcome {
        self.touch(addr, len, PageLocation::Device)
    }

    fn touch(&mut self, addr: Addr, len: u64, want: PageLocation) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        let (start, range) = match self
            .ranges
            .range_mut(..=addr)
            .next_back()
            .filter(|(s, r)| addr < **s + r.len)
        {
            Some((s, r)) => (*s, r),
            None => return outcome,
        };
        let end = (addr + len).min(start + range.len);
        if end <= addr {
            return outcome;
        }
        let first_page = ((addr - start) / range.page_bytes) as usize;
        let last_page = (((end - start) - 1) / range.page_bytes) as usize;
        let mut migrated_pages = 0u64;
        for p in first_page..=last_page.min(range.page_count() - 1) {
            if range.pages[p] != want {
                range.pages[p] = want;
                migrated_pages += 1;
            }
        }
        if migrated_pages > 0 {
            // One fault event per contiguous access (the driver batches), and
            // byte-accurate migration volume.
            outcome.faults = 1;
            outcome.bytes_migrated = migrated_pages * range.page_bytes;
            match want {
                PageLocation::Host => {
                    self.stats.host_faults += 1;
                    self.stats.bytes_d2h += outcome.bytes_migrated;
                }
                PageLocation::Device => {
                    self.stats.device_faults += 1;
                    self.stats.bytes_h2d += outcome.bytes_migrated;
                }
            }
        }
        outcome
    }

    /// Explicitly migrates `[addr, addr+len)` to the requested side without
    /// counting faults (`cudaMemPrefetchAsync`).  Returns the bytes moved.
    pub fn prefetch(&mut self, addr: Addr, len: u64, to: PageLocation) -> u64 {
        let (start, range) = match self
            .ranges
            .range_mut(..=addr)
            .next_back()
            .filter(|(s, r)| addr < **s + r.len)
        {
            Some((s, r)) => (*s, r),
            None => return 0,
        };
        let end = (addr + len).min(start + range.len);
        if end <= addr {
            return 0;
        }
        let first_page = ((addr - start) / range.page_bytes) as usize;
        let last_page = (((end - start) - 1) / range.page_bytes) as usize;
        let mut moved = 0u64;
        for p in first_page..=last_page.min(range.page_count() - 1) {
            if range.pages[p] != to {
                range.pages[p] = to;
                moved += range.page_bytes;
                self.stats.prefetched_pages += 1;
            }
        }
        match to {
            PageLocation::Host => self.stats.bytes_d2h += moved,
            PageLocation::Device => self.stats.bytes_h2d += moved,
        }
        moved
    }

    /// Residency of the page containing `addr`, if it is managed.
    pub fn location_of(&self, addr: Addr) -> Option<PageLocation> {
        let (start, range) = self
            .ranges
            .range(..=addr)
            .next_back()
            .filter(|(s, r)| addr < **s + r.len)?;
        let page = ((addr - *start) / range.page_bytes) as usize;
        range.pages.get(page).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    fn mgr_with_range(len: u64) -> (UvmManager, Addr) {
        let mut m = UvmManager::new();
        let base = Addr(0x10_0000);
        m.register(base, len, PAGE);
        (m, base)
    }

    #[test]
    fn pages_start_on_host() {
        let (m, base) = mgr_with_range(4 * PAGE);
        assert_eq!(m.location_of(base), Some(PageLocation::Host));
        assert_eq!(m.location_of(base + 3 * PAGE), Some(PageLocation::Host));
        assert_eq!(m.location_of(base + 4 * PAGE), None);
    }

    #[test]
    fn device_touch_migrates_and_counts_one_fault() {
        let (mut m, base) = mgr_with_range(4 * PAGE);
        let out = m.touch_device(base, 2 * PAGE);
        assert_eq!(out.faults, 1);
        assert_eq!(out.bytes_migrated, 2 * PAGE);
        assert_eq!(m.location_of(base), Some(PageLocation::Device));
        assert_eq!(m.location_of(base + 2 * PAGE), Some(PageLocation::Host));
        // Touching again causes no further migration.
        let again = m.touch_device(base, 2 * PAGE);
        assert_eq!(again, AccessOutcome::default());
        assert_eq!(m.stats().device_faults, 1);
        assert_eq!(m.stats().bytes_h2d, 2 * PAGE);
    }

    #[test]
    fn ping_pong_between_host_and_device() {
        let (mut m, base) = mgr_with_range(PAGE);
        for _ in 0..3 {
            m.touch_device(base, PAGE);
            m.touch_host(base, PAGE);
        }
        let s = m.stats();
        assert_eq!(s.device_faults, 3);
        assert_eq!(s.host_faults, 3);
        assert_eq!(s.bytes_h2d, 3 * PAGE);
        assert_eq!(s.bytes_d2h, 3 * PAGE);
    }

    #[test]
    fn prefetch_moves_pages_without_faults() {
        let (mut m, base) = mgr_with_range(8 * PAGE);
        let moved = m.prefetch(base, 8 * PAGE, PageLocation::Device);
        assert_eq!(moved, 8 * PAGE);
        assert_eq!(m.stats().device_faults, 0);
        assert_eq!(m.stats().prefetched_pages, 8);
        // Subsequent device touch is now free.
        assert_eq!(m.touch_device(base, 8 * PAGE), AccessOutcome::default());
    }

    #[test]
    fn touch_outside_managed_ranges_is_a_no_op() {
        let (mut m, base) = mgr_with_range(PAGE);
        let out = m.touch_device(base + 100 * PAGE, PAGE);
        assert_eq!(out, AccessOutcome::default());
        assert!(!m.is_managed(base + 100 * PAGE));
    }

    #[test]
    fn unregister_removes_range() {
        let (mut m, base) = mgr_with_range(PAGE);
        assert!(m.unregister(base));
        assert!(!m.unregister(base));
        assert_eq!(m.managed_bytes(), 0);
        assert!(m.ranges().is_empty());
    }

    #[test]
    fn partial_range_touch_clamps_to_range_end() {
        let (mut m, base) = mgr_with_range(2 * PAGE);
        // Ask for far more than the range holds; only the range migrates.
        let out = m.touch_device(base + PAGE, 100 * PAGE);
        assert_eq!(out.bytes_migrated, PAGE);
    }
}
