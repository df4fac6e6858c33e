//! The simulated address space: `mmap`, `munmap`, `mprotect`, ASLR and the
//! upper/lower-half layout.  Every range accessor is one validation pass
//! (`AddressSpace::check`) plus one walk over the range's region segments;
//! what each does to a page's state is tabulated in the crate docs.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::addr::{Addr, Prot, PAGE_SIZE};
use crate::maps::MapsEntry;
use crate::region::{Half, PageStore, Region, RegionId, Slot};

/// Base of the address range used for lower-half (helper / CUDA library)
/// mappings.
pub const LOWER_BASE: u64 = 0x0000_1000_0000;
/// Exclusive end of the lower-half range and base of the upper-half range.
pub const UPPER_BASE: u64 = 0x4000_0000_0000;
/// Exclusive end of the upper-half range.
pub const SPACE_END: u64 = 0x7fff_ffff_f000;

/// Pages shared out of a range without copying, keyed by absolute page
/// number (address / [`PAGE_SIZE`]) in ascending order.
type SharedPages = Vec<(u64, Arc<[u8]>)>;

/// Errors returned by address-space operations (the moral equivalent of
/// `errno` values from `mmap`/`munmap`/`mprotect`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Requested address or length was not page-aligned where required.
    Unaligned,
    /// A zero-length mapping or access was requested.
    ZeroLength,
    /// No free gap large enough for the request (ENOMEM).
    OutOfSpace,
    /// A `MAP_FIXED` request fell outside the requested half's range.
    OutsideHalf,
    /// An access touched an address with no mapping behind it (SIGSEGV).
    Fault(Addr),
    /// An access violated the mapping's protection bits.
    Protection(Addr),
    /// An access touched a page that is mapped but declared absent — its
    /// bytes have not been demand-paged in yet.  With a
    /// [`crate::PageFaultHandler`] installed on the [`crate::SharedSpace`],
    /// the handler resolves the page and the access retries transparently;
    /// without one, the error surfaces to the caller.
    NotResident(Addr),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unaligned => write!(f, "address or length not page-aligned"),
            MemError::ZeroLength => write!(f, "zero-length request"),
            MemError::OutOfSpace => write!(f, "no free virtual address range large enough"),
            MemError::OutsideHalf => write!(f, "MAP_FIXED address outside the requested half"),
            MemError::Fault(a) => write!(f, "segmentation fault at {a}"),
            MemError::Protection(a) => write!(f, "protection violation at {a}"),
            MemError::NotResident(a) => write!(f, "page not resident at {a}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Parameters of an `mmap` request.
#[derive(Clone, Debug)]
pub struct MapRequest {
    /// Requested length in bytes (rounded up to a page multiple).
    pub len: u64,
    /// Protection bits of the new mapping.
    pub prot: Prot,
    /// Which half the mapping belongs to (determines the search range).
    pub half: Half,
    /// Human-readable label recorded on the region.
    pub label: String,
    /// `Some(addr)` requests `MAP_FIXED` placement at `addr`, silently
    /// replacing any existing overlapping mappings — exactly the hazard
    /// described in Section 3.2.2 of the paper.
    pub fixed: Option<Addr>,
}

impl MapRequest {
    /// Convenience constructor for an anonymous RW mapping.
    pub fn anon(len: u64, half: Half, label: &str) -> Self {
        Self {
            len,
            prot: Prot::RW,
            half,
            label: label.to_string(),
            fixed: None,
        }
    }

    /// Requests `MAP_FIXED` placement at `addr`.
    pub fn at(mut self, addr: Addr) -> Self {
        self.fixed = Some(addr);
        self
    }

    /// Overrides the protection bits.
    pub fn prot(mut self, prot: Prot) -> Self {
        self.prot = prot;
        self
    }
}

/// Aggregate statistics over an address space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Number of distinct regions currently mapped.
    pub region_count: usize,
    /// Total mapped bytes in the upper half.
    pub upper_bytes: u64,
    /// Total mapped bytes in the lower half.
    pub lower_bytes: u64,
    /// Pages actually written (resident) across all regions.
    pub resident_pages: usize,
    /// Pages declared absent (awaiting lazy population) across all regions.
    pub absent_pages: u64,
    /// Cumulative number of `mmap` calls served.
    pub mmap_calls: u64,
    /// Cumulative number of `munmap` calls served.
    pub munmap_calls: u64,
}

/// A simulated process virtual address space.
///
/// Regions are kept in a `BTreeMap` ordered by start address so that overlap
/// queries, first-fit searches and the `/proc/PID/maps` view are all simple
/// ordered traversals.
pub struct AddressSpace {
    regions: BTreeMap<Addr, Region>,
    next_id: u64,
    aslr_enabled: bool,
    rng_state: u64,
    stats: SpaceStats,
    write_epoch: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space with ASLR enabled (the Linux default).
    pub fn new() -> Self {
        Self {
            regions: BTreeMap::new(),
            next_id: 1,
            aslr_enabled: true,
            rng_state: 0x9e37_79b9_7f4a_7c15,
            stats: SpaceStats::default(),
            write_epoch: 0,
        }
    }

    /// Starts a new write epoch and returns it.  Pages written *from now on*
    /// are stamped at or above the returned epoch, so
    /// `store.pages_since(epoch)` yields exactly the pages dirtied after this
    /// call — the dirty-tracking primitive behind pre-copy checkpointing.
    pub fn snapshot_epoch(&mut self) -> u64 {
        self.write_epoch += 1;
        self.write_epoch
    }

    /// Creates an address space with ASLR already disabled, as CRAC does via
    /// `personality(ADDR_NO_RANDOMIZE)` before loading the halves.
    pub fn new_no_aslr() -> Self {
        let mut s = Self::new();
        s.personality_no_randomize();
        s
    }

    /// Disables address-space layout randomisation.  Subsequent non-fixed
    /// `mmap` calls become fully deterministic, which is what CRAC's
    /// log-and-replay address determinism relies on.
    pub fn personality_no_randomize(&mut self) {
        self.aslr_enabled = false;
    }

    /// Returns `true` if ASLR is currently enabled.
    pub fn aslr_enabled(&self) -> bool {
        self.aslr_enabled
    }

    /// Seeds the internal ASLR offset generator (useful to make "randomised"
    /// layouts reproducible in tests while still exercising the ASLR path).
    pub fn seed_aslr(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, no external dependency.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Maps a new region, returning its start address.
    pub fn mmap(&mut self, req: MapRequest) -> Result<Addr, MemError> {
        if req.len == 0 {
            return Err(MemError::ZeroLength);
        }
        // The length is the application's (a `cudaMalloc` size): rounding it
        // up must not wrap into a tiny mapping.
        let len = req
            .len
            .checked_next_multiple_of(PAGE_SIZE)
            .ok_or(MemError::OutOfSpace)?;
        self.stats.mmap_calls += 1;

        let start = match req.fixed {
            Some(addr) => {
                if !addr.is_page_aligned() {
                    return Err(MemError::Unaligned);
                }
                let (lo, hi) = Self::half_range(req.half);
                let fits = addr.checked_add(len).is_some_and(|end| end.as_u64() <= hi);
                if addr.as_u64() < lo || !fits {
                    return Err(MemError::OutsideHalf);
                }
                // MAP_FIXED silently replaces whatever was there.
                self.unmap_range(addr, len);
                addr
            }
            None => self.find_free(len, req.half)?,
        };

        let id = RegionId(self.next_id);
        self.next_id += 1;
        let region = Region {
            id,
            start,
            len,
            prot: req.prot,
            half: req.half,
            label: req.label,
            store: PageStore::new(),
        };
        self.regions.insert(start, region);
        Ok(start)
    }

    /// Validates a page-granular `[addr, addr+len)` request, returning `len`
    /// in whole pages; a range that wraps the space has nothing behind it.
    fn page_range(addr: Addr, len: u64) -> Result<u64, MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !addr.is_page_aligned() {
            return Err(MemError::Unaligned);
        }
        len.checked_next_multiple_of(PAGE_SIZE)
            .filter(|len| addr.checked_add(*len).is_some())
            .ok_or(MemError::Fault(addr))
    }

    /// Unmaps `[addr, addr+len)`.  Like Linux, unmapping a range with no
    /// mappings in it is not an error; partial overlaps split regions.
    pub fn munmap(&mut self, addr: Addr, len: u64) -> Result<(), MemError> {
        let len = Self::page_range(addr, len)?;
        self.stats.munmap_calls += 1;
        self.unmap_range(addr, len);
        Ok(())
    }

    /// Changes protection bits over `[addr, addr+len)`, splitting regions at
    /// the boundaries when necessary.
    pub fn mprotect(&mut self, addr: Addr, len: u64, prot: Prot) -> Result<(), MemError> {
        let len = Self::page_range(addr, len)?;
        // Split at both boundaries so the target range is covered by whole
        // regions — exactly those starting inside it — then flip them.
        self.split_at(addr);
        self.split_at(addr + len);
        let mut covered = self.regions.range_mut(addr..addr + len).peekable();
        covered.peek().ok_or(MemError::Fault(addr))?;
        covered.for_each(|(_, r)| r.prot = prot);
        Ok(())
    }

    /// The keys of the regions that can overlap `[addr, addr+len)`: from the
    /// region containing `addr`, if any, to the range's end.
    fn span(&self, addr: Addr, len: u64) -> Result<Range<Addr>, MemError> {
        let end = addr.checked_add(len).ok_or(MemError::Fault(addr))?;
        let below = self.regions.range(..=addr).next_back();
        Ok(below.map_or(addr, |(start, _)| *start)..end)
    }

    /// The range walk under every accessor: `f(region, segment start, segment
    /// bytes)` for each mapped piece of `[addr, addr+len)` in address order,
    /// one region lookup for the whole range.  Holes are skipped; accessors
    /// that must not meet one run [`AddressSpace::check`] first.
    fn walk<'a>(
        &'a self,
        addr: Addr,
        len: u64,
        f: impl FnMut(&'a Region, Addr, u64) -> Result<(), MemError>,
    ) -> Result<(), MemError> {
        let span = self.span(addr, len)?;
        segments(self.regions.range(span.clone()), addr..span.end, f)
    }

    /// [`AddressSpace::walk`] over mutable regions.
    fn walk_mut(
        &mut self,
        addr: Addr,
        len: u64,
        f: impl FnMut(&mut Region, Addr, u64) -> Result<(), MemError>,
    ) -> Result<(), MemError> {
        let span = self.span(addr, len)?;
        segments(self.regions.range_mut(span.clone()), addr..span.end, f)
    }

    /// The one validation pass: every byte of `[addr, addr+len)` is mapped
    /// and — for an access needing protection `need` — permitted and
    /// resident (`None`: restore bookkeeping, mapping only).  A hole or a
    /// protection violation anywhere in the range wins over an absent page,
    /// so no fault handler pages in for an access that cannot succeed.
    fn check(&self, addr: Addr, len: u64, need: Option<Prot>) -> Result<(), MemError> {
        let mut cur = addr;
        let mut absent = None;
        self.walk(addr, len, |r, lo, n| {
            if lo > cur {
                return Err(MemError::Fault(cur));
            }
            cur = lo + n;
            let Some(need) = need else { return Ok(()) };
            if !r.prot.contains(need) {
                return Err(MemError::Protection(lo));
            }
            if absent.is_none() {
                let first = r.store.absent_in(r.pages(lo, n));
                absent = first.map(|page| r.start + page * PAGE_SIZE);
            }
            Ok(())
        })?;
        if cur < addr + len {
            return Err(MemError::Fault(cur));
        }
        absent.map_or(Ok(()), |a| Err(MemError::NotResident(a)))
    }

    /// Reads bytes starting at `addr`.  The range may span several adjacent
    /// regions but every byte must be mapped and readable.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(addr, buf.len() as u64, Some(Prot::READ))?;
        self.walk(addr, buf.len() as u64, |r, lo, n| {
            r.read(lo, &mut buf[(lo - addr) as usize..][..n as usize])
        })
    }

    /// Writes bytes starting at `addr`.
    pub fn write(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len() as u64, Some(Prot::WRITE))?;
        let epoch = self.write_epoch;
        self.walk_mut(addr, data.len() as u64, |r, lo, n| {
            r.write(lo, &data[(lo - addr) as usize..][..n as usize], epoch)
        })
    }

    /// Fills `[addr, addr+len)` with `byte` (cheap bulk initialisation for
    /// workloads).
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemError> {
        self.check(addr, len, Some(Prot::WRITE))?;
        let epoch = self.write_epoch;
        self.walk_mut(addr, len, |r, lo, n| r.fill(lo, n, byte, epoch))
    }

    /// Copies `len` bytes from `src` to `dst` with the semantics of a read
    /// of the source followed by a write of the destination — overlapping
    /// ranges behave like `memmove`, and a refused copy changes nothing —
    /// but no byte passes through a buffer.
    ///
    /// Both ranges are validated first (the source for reading, then the
    /// destination for writing), so absent pages on either side fault in
    /// before anything moves.  The source's resident pages are then shared
    /// (a refcount each) and every touched destination page ends Resident
    /// and stamped: one whose whole page lies over a whole source page at
    /// the same in-page offset takes the source page's `Arc` (zeros for a
    /// Zero source), copy-on-write from then on; the partial head and tail
    /// and a source at another in-page offset copy bytes.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<(), MemError> {
        let source = self.share_source(dst, src, len)?;
        let epoch = self.write_epoch;
        self.walk_mut(dst, len, |r, lo, n| {
            r.copy_in(lo, n, src + (lo - dst), &source, epoch)
        })
    }

    /// The validation and snapshot both copies start with: `src` must be
    /// readable and `dst` writable, resident throughout (absent pages on
    /// either side fault in first: a source page's content is not fetched
    /// yet, a destination page's install would clobber the copy later).
    /// Returns the resident source pages, shared — no bytes move — and keyed
    /// by absolute page number, in order; a page not listed is Zero.
    fn share_source(&self, dst: Addr, src: Addr, len: u64) -> Result<SharedPages, MemError> {
        self.check(src, len, Some(Prot::READ))?;
        self.check(dst, len, Some(Prot::WRITE))?;
        let mut source = Vec::new();
        self.walk(src, len, |r, lo, n| {
            for (page, slot) in r.store.slots(r.pages(lo, n)) {
                let at = r.start.as_u64() / PAGE_SIZE + page;
                match slot {
                    Slot::Resident(p) => source.push((at, p.share())),
                    Slot::Absent => return Err(MemError::NotResident(Addr(at * PAGE_SIZE))),
                }
            }
            Ok(())
        })?;
        Ok(source)
    }

    /// Copies `len` bytes from `src` to `dst`, touching only the bytes backed
    /// by resident pages of the source range.  Bytes backed by never-written
    /// pages are zero on both sides already (the destination must be freshly
    /// mapped or otherwise known-zero), so multi-gigabyte logical copies
    /// stay cheap.  Returns the number of bytes logically copied.
    ///
    /// The source pages are snapshotted as shares and each is written once
    /// into the destination (epoch-stamped like any write), which ends up
    /// owning its bytes: one copy, no intermediate buffer.  It writes bytes
    /// rather than sharing whole pages the way [`AddressSpace::copy`] does:
    /// a drain or refill moves every active allocation at once, and a
    /// sharing version left those pages allocated wherever the source was,
    /// which made eager restarts bimodal on glibc's heap trim.  Sharing here
    /// waits for page storage that lives off the general-purpose heap.
    ///
    /// This is the primitive behind CRAC's drain (device → upper-half
    /// staging) and refill (staging → device) of active allocations.
    pub fn sparse_copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<u64, MemError> {
        let shared = self.share_source(dst, src, len)?;
        let epoch = self.write_epoch;
        let mut copied = 0u64;
        for (page, bytes) in shared {
            let start = Addr(page * PAGE_SIZE);
            // The part of this source page inside the range, and where it lands.
            let (from, to) = (start.max(src), (start + PAGE_SIZE).min(src + len));
            let at = dst + (from - src);
            copied += to - from;
            self.walk_mut(at, to - from, |r, lo, n| {
                r.write(
                    lo,
                    &bytes[(from - start + (lo - at)) as usize..][..n as usize],
                    epoch,
                )
            })?;
        }
        Ok(copied)
    }

    /// Declares every page of `[addr, addr+len)` absent: mapped, length and
    /// protection known, but no bytes — a first touch through the normal
    /// access paths reports [`MemError::NotResident`] until the page's
    /// content is installed with [`AddressSpace::install_resident`].  The
    /// range must be page-aligned and fully mapped (protection bits are
    /// irrelevant — this is restore bookkeeping, not an access).
    pub fn declare_absent(&mut self, addr: Addr, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::ZeroLength);
        }
        if !addr.is_page_aligned() || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        // Validate the whole range is mapped before mutating anything.
        self.check(addr, len, None)?;
        self.walk_mut(addr, len, |r, lo, n| {
            r.store.declare_absent(r.pages(lo, n));
            Ok(())
        })
    }

    /// Privileged page install for demand paging: writes whole, page-aligned
    /// pages *ignoring protection bits* (the recorded protection may be
    /// read-only — content still has to land) and makes them resident.
    /// Pages that are no longer mapped — the application unmapped them while
    /// the restore was still streaming — are skipped, not errors: their
    /// content is dead.  Returns the number of pages actually installed.
    pub fn install_resident(&mut self, addr: Addr, bytes: &[u8]) -> Result<u64, MemError> {
        if !(bytes.len() as u64).is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        let pages: Vec<Arc<[u8]>> = bytes
            .chunks_exact(PAGE_SIZE as usize)
            .map(Arc::from)
            .collect();
        self.install_pages(addr, &pages)
    }

    /// [`AddressSpace::install_resident`] of pages already copied out,
    /// `pages[i]` landing at `addr + i × PAGE_SIZE`.  A caller sharing the
    /// space makes the copies, and takes their first-touch page faults,
    /// before it takes the lock.
    pub fn install_pages(&mut self, addr: Addr, pages: &[Arc<[u8]>]) -> Result<u64, MemError> {
        if !addr.is_page_aligned() || pages.iter().any(|p| p.len() as u64 != PAGE_SIZE) {
            return Err(MemError::Unaligned);
        }
        let epoch = self.write_epoch;
        let mut installed = 0u64;
        self.walk_mut(addr, pages.len() as u64 * PAGE_SIZE, |r, lo, n| {
            let first = ((lo - addr) / PAGE_SIZE) as usize;
            for (page, bytes) in r.pages(lo, n).zip(&pages[first..]) {
                r.store.install(page, Arc::clone(bytes), epoch);
            }
            installed += n / PAGE_SIZE;
            Ok(())
        })?;
        Ok(installed)
    }

    /// Total pages currently declared absent across all regions.
    pub fn absent_pages(&self) -> u64 {
        self.regions.values().map(Region::absent_pages).sum()
    }

    /// The slots of `[start, start+len)` in address order, keyed by
    /// range-relative page index — the checkpointer's one view of what is
    /// behind each page.  Pages with no slot are zero; only pages wholly
    /// inside the range are reported.
    pub fn slots(&self, start: Addr, len: u64) -> impl Iterator<Item = (u64, &Slot)> {
        // A range that wraps the address space has nothing behind it.
        let span = self.span(start, len).unwrap_or(start..start);
        let end = span.end;
        let regions = self.regions.range(span);
        regions.flat_map(move |(_, r)| {
            let lo = (start.max(r.start) - r.start).div_ceil(PAGE_SIZE);
            let hi = (end.min(r.end()) - r.start) / PAGE_SIZE;
            r.store
                .slots(lo..hi.max(lo))
                .map(move |(page, slot)| ((r.start + page * PAGE_SIZE - start) / PAGE_SIZE, slot))
        })
    }

    /// Returns the region containing `addr`, if any.
    pub fn region_at(&self, addr: Addr) -> Option<&Region> {
        self.regions
            .range(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    /// Iterates over all regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Iterates over the regions belonging to one half.
    pub fn regions_in_half(&self, half: Half) -> impl Iterator<Item = &Region> {
        self.regions.values().filter(move |r| r.half == half)
    }

    /// Number of regions currently mapped.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SpaceStats {
        let mut s = self.stats;
        s.region_count = self.regions.len();
        s.upper_bytes = self.regions_in_half(Half::Upper).map(|r| r.len).sum();
        s.lower_bytes = self.regions_in_half(Half::Lower).map(|r| r.len).sum();
        s.resident_pages = self.regions.values().map(|r| r.resident_pages()).sum();
        s.absent_pages = self.regions.values().map(Region::absent_pages).sum();
        s
    }

    /// Produces the merged `/proc/PID/maps`-style view.  Adjacent regions with
    /// identical protection bits are coalesced into a single entry and the
    /// upper/lower-half tag is *not* part of the output — this is the view a
    /// naive checkpointer would have to work from.
    pub fn proc_maps(&self) -> Vec<MapsEntry> {
        crate::maps::merged_view(self.regions.values())
    }

    /// Consolidates adjacent upper-half regions with identical protections
    /// into single regions (Section 3.2.2: CRAC "tries to consolidate memory
    /// regions created by the upper half").  Returns the number of regions
    /// eliminated.
    pub fn consolidate_upper_half(&mut self) -> usize {
        let before = self.regions.len();
        // One sweep in address order: each region extends the one before it
        // or starts the next.  Slots move whole: content, epochs and absence.
        let mut merged: Vec<Region> = Vec::with_capacity(before);
        for r in std::mem::take(&mut self.regions).into_values() {
            match merged.last_mut() {
                Some(a)
                    if a.half == Half::Upper
                        && r.half == Half::Upper
                        && a.end() == r.start
                        && a.prot == r.prot =>
                {
                    a.store.append(r.store, a.page_count());
                    a.len += r.len;
                    if a.label != r.label {
                        a.label = format!("{}+{}", a.label, r.label);
                    }
                }
                _ => merged.push(r),
            }
        }
        self.regions = merged.into_iter().map(|r| (r.start, r)).collect();
        before - self.regions.len()
    }

    fn half_range(half: Half) -> (u64, u64) {
        match half {
            Half::Lower => (LOWER_BASE, UPPER_BASE),
            Half::Upper => (UPPER_BASE, SPACE_END),
        }
    }

    fn find_free(&mut self, len: u64, half: Half) -> Result<Addr, MemError> {
        let (lo, hi) = Self::half_range(half);
        let slide = if self.aslr_enabled {
            // Up to 1 GiB of page-aligned slide, as a stand-in for mmap ASLR.
            (self.next_rand() % (1 << 18)) * PAGE_SIZE
        } else {
            0
        };
        let mut cursor = lo + slide;
        let mut wrapped = slide == 0;
        loop {
            if cursor.checked_add(len).is_none_or(|end| end > hi) {
                // Wrap once to the un-slid base before giving up.
                if !wrapped {
                    wrapped = true;
                    cursor = lo;
                    continue;
                }
                return Err(MemError::OutOfSpace);
            }
            // Find the first region that ends after `cursor`.
            let conflict = self
                .regions
                .values()
                .find(|r| r.overlaps(Addr(cursor), len));
            match conflict {
                None => return Ok(Addr(cursor)),
                Some(r) => {
                    cursor = r.end().as_u64();
                    if cursor < lo {
                        cursor = lo;
                    }
                }
            }
        }
    }

    /// Splits the region containing `addr` so that `addr` becomes a region
    /// boundary (no-op if it already is, or if nothing is mapped there).
    fn split_at(&mut self, addr: Addr) {
        let below = self.regions.range_mut(..addr).next_back();
        let Some((_, region)) = below.filter(|(_, r)| r.end() > addr) else {
            return;
        };
        let head_len = addr - region.start;
        let tail = Region {
            id: RegionId(self.next_id),
            start: addr,
            len: region.len - head_len,
            prot: region.prot,
            half: region.half,
            label: region.label.clone(),
            store: region.store.split_off(head_len / PAGE_SIZE),
        };
        region.len = head_len;
        self.next_id += 1;
        self.regions.insert(addr, tail);
    }

    /// Removes all mappings intersecting `[addr, addr+len)`, splitting
    /// partially covered regions (and dropping the doomed regions' slots).
    fn unmap_range(&mut self, addr: Addr, len: u64) {
        let doomed = addr..addr + len;
        self.split_at(doomed.start);
        self.split_at(doomed.end);
        self.regions.retain(|start, _| !doomed.contains(start));
    }
}

/// The body of [`AddressSpace::walk`] and [`AddressSpace::walk_mut`]:
/// `regions` are the candidates in address order, shared or mutable.
fn segments<'k, R: Borrow<Region>>(
    regions: impl Iterator<Item = (&'k Addr, R)>,
    range: Range<Addr>,
    mut f: impl FnMut(R, Addr, u64) -> Result<(), MemError>,
) -> Result<(), MemError> {
    for (_, r) in regions {
        let lo = r.borrow().start.max(range.start);
        let hi = r.borrow().end().min(range.end);
        if lo < hi {
            f(r, lo, hi - lo)?;
        }
    }
    Ok(())
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AddressSpace ({} regions):", self.regions.len())?;
        for r in self.regions.values() {
            writeln!(
                f,
                "  {:?}-{:?} {} {} {} ({} pages resident)",
                r.start,
                r.end(),
                r.prot,
                r.half,
                r.label,
                r.resident_pages()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new_no_aslr()
    }

    #[test]
    fn mmap_places_halves_in_disjoint_ranges() {
        let mut s = space();
        let lo = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Lower, "lower"))
            .unwrap();
        let up = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "upper"))
            .unwrap();
        assert!(lo.as_u64() >= LOWER_BASE && lo.as_u64() < UPPER_BASE);
        assert!(up.as_u64() >= UPPER_BASE && up.as_u64() < SPACE_END);
    }

    #[test]
    fn mmap_is_deterministic_without_aslr() {
        let addrs: Vec<_> = (0..2)
            .map(|_| {
                let mut s = AddressSpace::new_no_aslr();
                (0..5)
                    .map(|i| {
                        s.mmap(MapRequest::anon((i + 1) * PAGE_SIZE, Half::Upper, "x"))
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(addrs[0], addrs[1]);
    }

    #[test]
    fn mmap_differs_with_aslr() {
        let mut a = AddressSpace::new();
        a.seed_aslr(1);
        let mut b = AddressSpace::new();
        b.seed_aslr(2);
        let ra = a
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "x"))
            .unwrap();
        let rb = b
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "x"))
            .unwrap();
        assert_ne!(ra, rb);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "data"))
            .unwrap();
        s.write(a + 100, b"checkpoint me").unwrap();
        let mut buf = [0u8; 13];
        s.read(a + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"checkpoint me");
    }

    #[test]
    fn read_unmapped_faults() {
        let s = space();
        let mut buf = [0u8; 4];
        assert!(matches!(
            s.read(Addr(UPPER_BASE), &mut buf),
            Err(MemError::Fault(_))
        ));
    }

    #[test]
    fn write_readonly_is_protection_error() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "ro").prot(Prot::READ))
            .unwrap();
        assert!(matches!(s.write(a, b"x"), Err(MemError::Protection(_))));
        let mut buf = [0u8; 1];
        assert!(s.read(a, &mut buf).is_ok());
    }

    #[test]
    fn munmap_then_access_faults() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(2 * PAGE_SIZE, Half::Upper, "x"))
            .unwrap();
        s.write(a, &[1, 2, 3]).unwrap();
        s.munmap(a, 2 * PAGE_SIZE).unwrap();
        let mut buf = [0u8; 3];
        assert!(matches!(s.read(a, &mut buf), Err(MemError::Fault(_))));
    }

    #[test]
    fn partial_munmap_splits_region_and_keeps_content() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "x"))
            .unwrap();
        s.write(a, &[0xaa; 8]).unwrap();
        s.write(a + 3 * PAGE_SIZE, &[0xbb; 8]).unwrap();
        // Punch out the middle two pages.
        s.munmap(a + PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(s.region_count(), 2);
        let mut head = [0u8; 8];
        s.read(a, &mut head).unwrap();
        assert_eq!(head, [0xaa; 8]);
        let mut tail = [0u8; 8];
        s.read(a + 3 * PAGE_SIZE, &mut tail).unwrap();
        assert_eq!(tail, [0xbb; 8]);
        let mut buf = [0u8; 1];
        assert!(s.read(a + PAGE_SIZE, &mut buf).is_err());
    }

    #[test]
    fn map_fixed_overwrites_existing_mapping() {
        // Reproduces the Section 3.2.2 hazard: a lower-half MAP_FIXED call can
        // silently clobber upper-half pages.
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "victim"))
            .unwrap();
        s.write(a + PAGE_SIZE, &[7u8; 16]).unwrap();
        // Upper-half range address, but mapped on behalf of the lower half is
        // not allowed (OutsideHalf); overwrite within the same half instead.
        let b = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "intruder").at(a + PAGE_SIZE))
            .unwrap();
        assert_eq!(b, a + PAGE_SIZE);
        // The overwritten page reads as zero now (fresh mapping).
        let mut buf = [1u8; 16];
        s.read(a + PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        // Head and tail of the victim still exist.
        assert!(s.region_at(a).is_some());
        assert!(s.region_at(a + 2 * PAGE_SIZE).is_some());
    }

    #[test]
    fn map_fixed_outside_half_is_rejected() {
        let mut s = space();
        let err = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Lower, "x").at(Addr(UPPER_BASE)))
            .unwrap_err();
        assert_eq!(err, MemError::OutsideHalf);
    }

    #[test]
    fn mprotect_splits_and_applies() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "x"))
            .unwrap();
        s.mprotect(a + PAGE_SIZE, PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(s.region_count(), 3);
        assert!(s.write(a, &[1]).is_ok());
        assert!(matches!(
            s.write(a + PAGE_SIZE, &[1]),
            Err(MemError::Protection(_))
        ));
        assert!(s.write(a + 2 * PAGE_SIZE, &[1]).is_ok());
    }

    #[test]
    fn mprotect_unmapped_faults() {
        let mut s = space();
        assert!(matches!(
            s.mprotect(Addr(UPPER_BASE), PAGE_SIZE, Prot::READ),
            Err(MemError::Fault(_))
        ));
    }

    #[test]
    fn consolidate_merges_adjacent_upper_regions() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "a"))
            .unwrap();
        let b = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "b"))
            .unwrap();
        assert_eq!(b, a + PAGE_SIZE);
        s.write(b, &[9u8; 4]).unwrap();
        let eliminated = s.consolidate_upper_half();
        assert_eq!(eliminated, 1);
        assert_eq!(s.region_count(), 1);
        let mut buf = [0u8; 4];
        s.read(b, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 4]);
    }

    #[test]
    fn stats_track_halves_separately() {
        let mut s = space();
        s.mmap(MapRequest::anon(3 * PAGE_SIZE, Half::Upper, "u"))
            .unwrap();
        s.mmap(MapRequest::anon(5 * PAGE_SIZE, Half::Lower, "l"))
            .unwrap();
        let st = s.stats();
        assert_eq!(st.upper_bytes, 3 * PAGE_SIZE);
        assert_eq!(st.lower_bytes, 5 * PAGE_SIZE);
        assert_eq!(st.region_count, 2);
        assert_eq!(st.mmap_calls, 2);
    }

    #[test]
    fn zero_length_requests_are_rejected() {
        let mut s = space();
        assert_eq!(
            s.mmap(MapRequest::anon(0, Half::Upper, "x")).unwrap_err(),
            MemError::ZeroLength
        );
        assert_eq!(
            s.munmap(Addr(UPPER_BASE), 0).unwrap_err(),
            MemError::ZeroLength
        );
    }

    #[test]
    fn sparse_copy_moves_only_dirty_bytes() {
        let mut s = space();
        let src = s
            .mmap(MapRequest::anon(1 << 20, Half::Upper, "src"))
            .unwrap();
        let dst = s
            .mmap(MapRequest::anon(1 << 20, Half::Upper, "dst"))
            .unwrap();
        // Write two small islands far apart, at unaligned offsets.
        s.write(src + 100, b"island one").unwrap();
        s.write(src + 700_000, b"island two").unwrap();
        let copied = s.sparse_copy(dst, src, 1 << 20).unwrap();
        assert!(copied <= 2 * PAGE_SIZE);
        let mut buf = [0u8; 10];
        s.read(dst + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"island one");
        s.read(dst + 700_000, &mut buf).unwrap();
        assert_eq!(&buf, b"island two");
        // Untouched bytes read back as zero.
        s.read(dst + 5_000, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 10]);
        // The destination stayed sparse.
        let dst_region = s.region_at(dst).unwrap();
        assert!(dst_region.resident_pages() <= 3);
    }

    #[test]
    fn sparse_copy_respects_sub_range_boundaries() {
        let mut s = space();
        let src = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "src"))
            .unwrap();
        let dst = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "dst"))
            .unwrap();
        s.fill(src, 4 * PAGE_SIZE, 0x11).unwrap();
        // Copy only an interior window starting at an unaligned offset.
        let copied = s.sparse_copy(dst, src + 300, 5000).unwrap();
        assert_eq!(copied, 5000);
        let mut buf = [0u8; 1];
        s.read(dst + 4999, &mut buf).unwrap();
        assert_eq!(buf, [0x11]);
        s.read(dst + 5000, &mut buf).unwrap();
        assert_eq!(buf, [0x00]);
    }

    #[test]
    fn copy_shares_whole_pages_copy_on_write() {
        let mut s = space();
        let src = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "src"))
            .unwrap();
        let dst = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Lower, "dst"))
            .unwrap();
        s.fill(src, 4 * PAGE_SIZE, 0x11).unwrap();
        let epoch = s.snapshot_epoch();
        // Head and tail are partial pages; the two pages between are whole.
        s.copy(dst + 8, src + 8, 3 * PAGE_SIZE).unwrap();
        let bytes = |s: &AddressSpace, at: Addr| match s.slots(at, PAGE_SIZE).next() {
            Some((0, Slot::Resident(p))) => (p.bytes().as_ptr(), p.epoch()),
            other => panic!("{other:?}"),
        };
        for page in 1..3 {
            let (shared, stamp) = bytes(&s, dst + page * PAGE_SIZE);
            assert_eq!(shared, bytes(&s, src + page * PAGE_SIZE).0);
            assert_eq!(stamp, epoch);
        }
        // A write to either side copies first and leaves the other alone.
        s.write(src + PAGE_SIZE, &[0x22; 4]).unwrap();
        s.write(dst + 2 * PAGE_SIZE, &[0x33; 4]).unwrap();
        let mut buf = [0u8; 4];
        s.read(dst + PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 4]);
        s.read(src + 2 * PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 4]);
        // Only the copied range moved: the byte before it is still zero.
        s.read(dst + 5, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0x11]);
    }

    #[test]
    fn refused_copy_changes_no_byte_and_no_epoch() {
        let mut s = space();
        let src = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "src"))
            .unwrap();
        // The destination: two writable pages, one read-only, then a hole.
        let dst = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Lower, "dst"))
            .unwrap();
        s.fill(src, 4 * PAGE_SIZE, 0x11).unwrap();
        s.write(dst, &[0x22; 16]).unwrap();
        s.mprotect(dst + 2 * PAGE_SIZE, PAGE_SIZE, Prot::READ)
            .unwrap();
        s.munmap(dst + 3 * PAGE_SIZE, PAGE_SIZE).unwrap();
        s.snapshot_epoch();
        let state = |s: &AddressSpace| -> Vec<(u64, Vec<u8>, u64)> {
            let slots = s.slots(dst, 3 * PAGE_SIZE);
            slots
                .map(|(page, slot)| match slot {
                    Slot::Resident(p) => (page, p.bytes().to_vec(), p.epoch()),
                    Slot::Absent => unreachable!(),
                })
                .collect()
        };
        let before = state(&s);
        assert_eq!(
            s.copy(dst, src, 3 * PAGE_SIZE),
            Err(MemError::Protection(dst + 2 * PAGE_SIZE))
        );
        assert_eq!(
            s.copy(dst + 8, src, 4 * PAGE_SIZE - 8),
            Err(MemError::Protection(dst + 2 * PAGE_SIZE))
        );
        s.mprotect(dst + 2 * PAGE_SIZE, PAGE_SIZE, Prot::RW)
            .unwrap();
        assert_eq!(
            s.copy(dst + 8, src, 3 * PAGE_SIZE),
            Err(MemError::Fault(dst + 3 * PAGE_SIZE))
        );
        assert_eq!(state(&s), before);
    }

    #[test]
    fn absent_pages_fault_until_installed() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "lazy"))
            .unwrap();
        s.declare_absent(a + PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(s.absent_pages(), 2);
        let mut buf = [0u8; 4];
        // Resident neighbours stay accessible.
        assert!(s.read(a, &mut buf).is_ok());
        assert!(s.write(a + 3 * PAGE_SIZE, &[1]).is_ok());
        // First touch of an absent page — read, write or fill — faults.
        assert_eq!(
            s.read(a + PAGE_SIZE, &mut buf),
            Err(MemError::NotResident(a + PAGE_SIZE))
        );
        assert!(matches!(
            s.write(a + 2 * PAGE_SIZE, &[1]),
            Err(MemError::NotResident(_))
        ));
        assert!(matches!(
            s.fill(a, 4 * PAGE_SIZE, 0x77),
            Err(MemError::NotResident(_))
        ));
        // The privileged install ignores protection bits and clears marks.
        s.mprotect(a, 4 * PAGE_SIZE, Prot::READ).unwrap();
        let content = vec![0xCD; 2 * PAGE_SIZE as usize];
        assert_eq!(s.install_resident(a + PAGE_SIZE, &content).unwrap(), 2);
        assert_eq!(s.absent_pages(), 0);
        s.read(a + PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0xCD; 4]);
    }

    #[test]
    fn absent_marks_survive_region_splits_and_unmap() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(6 * PAGE_SIZE, Half::Upper, "lazy"))
            .unwrap();
        s.declare_absent(a, 6 * PAGE_SIZE).unwrap();
        // Splitting the region (mprotect boundary) keeps both sides absent.
        s.mprotect(a + 2 * PAGE_SIZE, 2 * PAGE_SIZE, Prot::READ)
            .unwrap();
        let mut buf = [0u8; 1];
        assert!(matches!(s.read(a, &mut buf), Err(MemError::NotResident(_))));
        assert!(matches!(
            s.read(a + 3 * PAGE_SIZE, &mut buf),
            Err(MemError::NotResident(_))
        ));
        assert_eq!(s.absent_pages(), 6);
        // Unmapping drops the covered marks; installing over the hole is a
        // silent skip (the content is dead), not an error.
        s.munmap(a + 4 * PAGE_SIZE, PAGE_SIZE).unwrap();
        assert_eq!(s.absent_pages(), 5);
        let page = vec![0xEE; PAGE_SIZE as usize];
        assert_eq!(s.install_resident(a + 4 * PAGE_SIZE, &page).unwrap(), 0);
        assert_eq!(s.install_resident(a + 5 * PAGE_SIZE, &page).unwrap(), 1);
        s.read(a + 5 * PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, [0xEE]);
    }

    #[test]
    fn fill_initialises_large_region_sparsely() {
        let mut s = space();
        let a = s
            .mmap(MapRequest::anon(1 << 20, Half::Upper, "big"))
            .unwrap();
        s.fill(a, 1 << 20, 0x5a).unwrap();
        let mut buf = [0u8; 2];
        s.read(a + (1 << 19), &mut buf).unwrap();
        assert_eq!(buf, [0x5a, 0x5a]);
    }
}
