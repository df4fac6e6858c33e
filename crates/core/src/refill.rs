//! Device memory back on first touch: the refill of a lazy restart.
//!
//! An eager restart copies every staged buffer back into its device or
//! managed allocation before the application runs — one `sparse_copy` per
//! buffer.  Under a lazy restore that copy would first fault in the whole
//! staging window, so the process could resume only once most of its image
//! had arrived.  Instead, [`Refill::begin`] declares the device pages of
//! every staged buffer absent and wraps the lazy session's fault handler:
//!
//! * a fault on a device page the refill owns brings back the page's whole
//!   window — [`WINDOW_PAGES`] device pages, one chunk's worth — at once:
//!   the matching staging bytes are paged in through the session, and every
//!   still-absent device page of the window becomes zeros plus the bytes of
//!   each staged buffer overlapping it, under one write lock.  That is
//!   exactly what the eager `sparse_copy` leaves, sub-page buffers sharing a
//!   page included;
//! * any other address is the session's.
//!
//! [`Refill::complete`] brings back whatever is still absent and unmaps the
//! staging buffers.  The process runs it after the application's first
//! dealings with its memory, overlapping the session's prefetch sweep, and
//! at the start of every checkpoint — whose drain maps fresh staging over
//! the window this refill still reads.

use std::sync::Arc;

use crac_addrspace::{
    page_align_up, Addr, MemError, PageFaultHandler, SharedSpace, Slot, PAGE_SIZE,
};
use crac_imagestore::chunk::CHUNK_PAGES;
use crac_obs::{Counter, ObsRegistry};
use crac_sync::RwLock;

use crate::interpose::StagedBuffer;

/// Device pages one fault brings back: the pages one image chunk holds, so
/// a fault pages in about one chunk of staging through the session.
const WINDOW_PAGES: u64 = CHUNK_PAGES;

/// An outstanding device refill (see the module docs).  Installed as the
/// space's fault handler and kept by the process until completed.
pub(crate) struct Refill {
    space: SharedSpace,
    /// The lazy session's handler, which pages in everything else —
    /// staging included.
    session: Arc<dyn PageFaultHandler>,
    /// The staged buffers, by device address (active allocations, so
    /// disjoint).
    staged: Vec<StagedBuffer>,
    /// The device pages the refill owns, as sorted, merged `[first, end)`
    /// page-number runs.
    runs: Vec<(u64, u64)>,
    /// How many of `staged` (a prefix) have had their staging unmapped.
    /// A window refill reads staging under the read lock; an unmap takes
    /// the write lock, so no refill reads a buffer as it goes.
    released: RwLock<usize>,
    faulted: Counter,
    completed: Counter,
}

impl Refill {
    /// Declares the device pages of every buffer in `staging` absent and
    /// installs the refill as the space's fault handler in front of
    /// `session`.  Counts pages brought back by faults and by completion in
    /// `crac_refill_pages_faulted` / `crac_refill_pages_completed` of `obs`.
    pub(crate) fn begin(
        space: &SharedSpace,
        session: Arc<dyn PageFaultHandler>,
        staging: &[StagedBuffer],
        obs: &ObsRegistry,
    ) -> Result<Arc<Self>, MemError> {
        let mut staged = staging.to_vec();
        staged.sort_unstable_by_key(|s| s.ptr);
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for s in &staged {
            let (first, end) = (s.ptr / PAGE_SIZE, (s.ptr + s.len).div_ceil(PAGE_SIZE));
            match runs.last_mut() {
                // Sub-page buffers may share a page with their neighbour.
                Some((_, last)) if *last >= first => *last = end,
                _ => runs.push((first, end)),
            }
        }
        space.with_mut(|s| {
            runs.iter().try_for_each(|&(first, end)| {
                s.declare_absent(Addr(first * PAGE_SIZE), (end - first) * PAGE_SIZE)
            })
        })?;
        let refill = Arc::new(Self {
            space: space.clone(),
            session,
            staged,
            runs,
            released: RwLock::new("core.refill.released", 0),
            faulted: obs.counter("crac_refill_pages_faulted"),
            completed: obs.counter("crac_refill_pages_completed"),
        });
        space.install_fault_handler(Arc::clone(&refill) as Arc<dyn PageFaultHandler>);
        Ok(refill)
    }

    /// `true` if the refill owns the page containing `addr`.
    fn owns(&self, addr: u64) -> bool {
        let page = addr / PAGE_SIZE;
        let i = self.runs.partition_point(|&(first, _)| first <= page);
        i > 0 && page < self.runs[i - 1].1
    }

    /// Brings back window `window` (device pages `window × WINDOW_PAGES`
    /// onwards): every page of it the refill owns that is still absent
    /// becomes zeros plus the staged bytes over it.  Returns the pages
    /// installed — none if the window is back already.
    fn refill_window(&self, window: u64) -> Result<u64, MemError> {
        let _released = self.released.read();
        let start = window * WINDOW_PAGES * PAGE_SIZE;
        let len = WINDOW_PAGES * PAGE_SIZE;
        let absent: Vec<u64> = self.space.with(|s| {
            s.slots(Addr(start), len)
                .filter(|(_, slot)| matches!(slot, Slot::Absent))
                .map(|(page, _)| start + page * PAGE_SIZE)
                .filter(|&at| self.owns(at))
                .collect()
        });
        if absent.is_empty() {
            return Ok(0);
        }
        // Staging pages in through the session's handler on the way.
        let mut bytes = vec![0u8; len as usize];
        let end = start + len;
        let first = self.staged.partition_point(|s| s.ptr + s.len <= start);
        for s in self.staged[first..].iter().take_while(|s| s.ptr < end) {
            let (from, to) = (s.ptr.max(start), (s.ptr + s.len).min(end));
            let into = &mut bytes[(from - start) as usize..(to - start) as usize];
            self.space
                .read_bytes(Addr(s.staging + (from - s.ptr)), into)?;
        }
        // The page copies are made before the lock the application's own
        // accesses wait on.
        let pages: Vec<(Addr, Arc<[u8]>)> = absent
            .iter()
            .map(|&at| {
                let off = (at - start) as usize;
                (Addr(at), Arc::from(&bytes[off..off + PAGE_SIZE as usize]))
            })
            .collect();
        self.space.with_mut(|s| {
            let mut installed = 0;
            for (at, page) in &pages {
                let still_absent = s
                    .slots(*at, PAGE_SIZE)
                    .next()
                    .is_some_and(|(_, slot)| matches!(slot, Slot::Absent));
                if still_absent {
                    installed += s.install_pages(*at, std::slice::from_ref(page))?;
                }
            }
            Ok(installed)
        })
    }

    /// Brings back every device page still absent, window by window in
    /// address order, and unmaps each staging buffer as soon as its
    /// allocation is whole.  Fails — the refill stays outstanding — if a
    /// staging page cannot be paged in.
    pub(crate) fn complete(&self) -> Result<(), MemError> {
        for &(first, end) in &self.runs {
            for window in first / WINDOW_PAGES..end.div_ceil(WINDOW_PAGES) {
                self.completed.add(self.refill_window(window)?);
                let upto = (window + 1) * WINDOW_PAGES * PAGE_SIZE;
                self.release(self.staged.partition_point(|s| s.ptr + s.len <= upto))?;
            }
        }
        Ok(())
    }

    /// Unmaps the staging of `staged[..upto]` not unmapped yet.
    fn release(&self, upto: usize) -> Result<(), MemError> {
        let mut released = self.released.write();
        for s in self.staged.get(*released..upto).unwrap_or_default() {
            self.space.munmap(Addr(s.staging), page_align_up(s.len))?;
            *released += 1;
        }
        Ok(())
    }
}

impl PageFaultHandler for Refill {
    fn fault(&self, addr: Addr) -> Result<(), MemError> {
        if !self.owns(addr.as_u64()) {
            return self.session.fault(addr);
        }
        let window = addr.as_u64() / PAGE_SIZE / WINDOW_PAGES;
        self.faulted.add(self.refill_window(window)?);
        Ok(())
    }
}
