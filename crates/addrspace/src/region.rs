//! Memory regions and their page tables: [`Slot`] is the one per-page state
//! (the crate docs tabulate its transitions), [`PageStore`] the map of them.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::addr::{Addr, Prot, PAGE_SIZE};
use crate::space::MemError;

/// Which half of the split process a region belongs to.
///
/// The paper's central bookkeeping question — *does this mapping belong to the
/// checkpointed application (upper half) or to the discarded helper/CUDA
/// library (lower half)?* — is carried as an explicit tag here.  The merged
/// `/proc/PID/maps` view produced by [`crate::maps`] intentionally drops this
/// tag, reproducing why CRAC must keep its own region table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Half {
    /// The end-user CUDA application plus its libraries: saved at checkpoint.
    Upper,
    /// The helper program plus the real CUDA library: discarded at checkpoint,
    /// re-loaded fresh at restart.
    Lower,
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Half::Upper => write!(f, "upper"),
            Half::Lower => write!(f, "lower"),
        }
    }
}

/// Stable identifier of a region within an [`crate::AddressSpace`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// A materialised page: its content, shareable without copying, plus the
/// write-epoch stamp of the last mutation that touched it.
///
/// Content lives behind an `Arc` so a checkpointer can capture a consistent
/// snapshot of a page ([`Page::share`]) while the process keeps running:
/// the next write to a shared page copies it first (copy-on-write), leaving
/// every outstanding snapshot untouched.
#[derive(Clone, Debug)]
pub struct Page {
    epoch: u64,
    bytes: Arc<[u8]>,
}

impl Page {
    /// Write epoch of the last mutation that touched this page.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The page's bytes (always exactly [`PAGE_SIZE`] long).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A zero-copy snapshot of the page content.  Later writes to the page
    /// copy-on-write, so the returned `Arc` stays frozen at capture time.
    #[inline]
    pub fn share(&self) -> Arc<[u8]> {
        Arc::clone(&self.bytes)
    }
}

/// What is behind one page of a mapping.  A page with no slot is *Zero*
/// (never written: reads as zeros, costs nothing); the crate docs have the
/// transition table.
#[derive(Clone, Debug)]
pub enum Slot {
    /// Mapped, bytes exist in a checkpoint image but have not been paged in.
    Absent,
    /// Materialised content.  *Shared* with a snapshot or another slot
    /// exactly while the page's `Arc` has more than one owner.
    Resident(Page),
}

/// The page table of one region: one ordered map of [`Slot`]s keyed by page
/// index relative to the region start, so only pages that were written (or
/// await lazy population) cost anything — logical sizes can be multiple
/// gigabytes (the HYPRE workload maps ~2.3 GB of UVM).
///
/// Mutations take the *write epoch* to stamp touched pages with (the
/// space-wide counter advanced by `AddressSpace::snapshot_epoch`), so a
/// checkpointer can ask for exactly the pages dirtied since a snapshot
/// point ([`PageStore::pages_since`]).  Byte-range access goes through the
/// owning [`Region`], which knows the addresses errors are reported at.
#[derive(Clone, Default)]
pub struct PageStore {
    slots: BTreeMap<u64, Slot>,
    /// How many slots are [`Slot::Absent`], so the common no-lazy-restore
    /// case skips residency checks in O(1).
    absent: u64,
}

/// One allocation per page: `Arc::from(&[u8])` sizes the `Arc` block and
/// copies into it directly, where `Vec<u8>::into()` allocates the `Vec`,
/// then the `Arc`, copies, and frees the `Vec` again.
fn zero_page() -> Arc<[u8]> {
    Arc::from(&[0u8; PAGE_SIZE as usize][..])
}

/// Splits the byte range `[off, off+len)` at page boundaries into
/// `(page index, offset in page, bytes, bytes before this piece)`.
fn pieces(off: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        let cur = off + done as u64;
        let at = (cur % PAGE_SIZE) as usize;
        let n = (PAGE_SIZE as usize - at).min(len - done);
        (n > 0).then(|| {
            done += n;
            (cur / PAGE_SIZE, at, n, done - n)
        })
    })
}

impl PageStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialised (resident) pages.
    pub fn resident_pages(&self) -> usize {
        self.slots.len() - self.absent as usize
    }

    /// Number of pages currently declared absent.
    pub fn absent_pages(&self) -> u64 {
        self.absent
    }

    /// Mutable access to a page's bytes for a write at `epoch`:
    /// Zero/Resident → Resident, stamped, copied first if shared.  `None`
    /// for an absent page, which stays absent.
    fn page_mut(&mut self, page: u64, epoch: u64) -> Option<&mut [u8]> {
        let slot = self.slots.entry(page).or_insert_with(|| {
            Slot::Resident(Page {
                epoch,
                bytes: zero_page(),
            })
        });
        match slot {
            Slot::Absent => None,
            Slot::Resident(p) => {
                p.epoch = epoch;
                Some(Arc::make_mut(&mut p.bytes))
            }
        }
    }

    /// Makes `page` resident with exactly `bytes` (any state → Resident):
    /// content restored from a checkpoint image.
    pub fn install(&mut self, page: u64, bytes: Arc<[u8]>, epoch: u64) {
        assert_eq!(bytes.len(), PAGE_SIZE as usize, "page must be PAGE_SIZE");
        let slot = Slot::Resident(Page { epoch, bytes });
        if let Some(Slot::Absent) = self.slots.insert(page, slot) {
            self.absent -= 1;
        }
    }

    /// Declares `pages` absent (any state → Absent; a resident page's bytes
    /// are dropped): their content exists in a checkpoint image but has not
    /// been populated.  Until installed they cannot be read or written.
    pub fn declare_absent(&mut self, pages: Range<u64>) {
        for page in pages {
            if !matches!(self.slots.insert(page, Slot::Absent), Some(Slot::Absent)) {
                self.absent += 1;
            }
        }
    }

    /// The first absent page index in `pages`, if any.
    pub fn absent_in(&self, pages: Range<u64>) -> Option<u64> {
        if self.absent == 0 {
            return None;
        }
        self.slots(pages)
            .find_map(|(page, slot)| matches!(slot, Slot::Absent).then_some(page))
    }

    /// The slots of `pages`, in page order.
    pub fn slots(&self, pages: Range<u64>) -> impl Iterator<Item = (u64, &Slot)> {
        self.slots.range(pages).map(|(k, v)| (*k, v))
    }

    /// Iterates over the resident pages stamped at or after `epoch` — i.e.
    /// dirtied since the `snapshot_epoch` call that returned `epoch`.
    pub fn pages_since(&self, epoch: u64) -> impl Iterator<Item = (u64, &Page)> {
        self.slots.iter().filter_map(move |(k, slot)| match slot {
            Slot::Resident(p) if p.epoch >= epoch => Some((*k, p)),
            _ => None,
        })
    }

    /// Splits off the slots at or beyond `first_page` into a store of their
    /// own, re-keyed from zero (a region is split or truncated).  Slots move
    /// whole: content, epoch stamps and absence all survive.
    pub fn split_off(&mut self, first_page: u64) -> PageStore {
        let tail = self.slots.split_off(&first_page);
        let absent = tail.values().filter(|s| matches!(s, Slot::Absent)).count() as u64;
        self.absent -= absent;
        PageStore {
            slots: tail.into_iter().map(|(k, v)| (k - first_page, v)).collect(),
            absent,
        }
    }

    /// Adopts every slot of `other`, re-keyed `shift` pages up (two regions
    /// merge).  The counterpart of [`PageStore::split_off`].
    pub fn append(&mut self, other: PageStore, shift: u64) {
        self.absent += other.absent;
        self.slots
            .extend(other.slots.into_iter().map(|(k, v)| (k + shift, v)));
    }
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageStore({} resident pages)", self.resident_pages())
    }
}

/// A maximal run of consecutive dirty pages: `count` pages starting at page
/// index `first`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRun {
    /// Index of the first page in the run (relative to its region start).
    pub first: u64,
    /// Number of consecutive pages in the run.
    pub count: u64,
}

impl PageRun {
    /// Iterates the page indices covered by the run.
    pub fn pages(self) -> impl Iterator<Item = u64> {
        self.first..self.first + self.count
    }
}

/// Groups page indices into maximal runs of consecutive values.
///
/// The input must be strictly increasing (which `BTreeMap` key order and
/// sorted dirty-page lists both guarantee); out-of-order input panics in
/// debug builds and starts a fresh run in release builds.
pub fn page_runs(indices: impl IntoIterator<Item = u64>) -> Vec<PageRun> {
    let mut runs: Vec<PageRun> = Vec::new();
    for idx in indices {
        match runs.last_mut() {
            Some(run) if idx == run.first + run.count => run.count += 1,
            last => {
                debug_assert!(
                    last.is_none_or(|run| idx > run.first + run.count),
                    "page indices must be increasing"
                );
                runs.push(PageRun {
                    first: idx,
                    count: 1,
                });
            }
        }
    }
    runs
}

/// A single contiguous mapping in the simulated address space.
#[derive(Clone, Debug)]
pub struct Region {
    /// Stable identifier.
    pub id: RegionId,
    /// First address of the mapping (page-aligned).
    pub start: Addr,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Protection bits.
    pub prot: Prot,
    /// Which half of the split process created the mapping.
    pub half: Half,
    /// Human-readable label, e.g. `"libcuda.so"` or `"[heap]"`.
    pub label: String,
    /// Sparse backing storage.
    pub store: PageStore,
}

impl Region {
    /// Exclusive end address of the mapping.
    #[inline]
    pub fn end(&self) -> Addr {
        self.start + self.len
    }

    /// Returns `true` if `addr` lies inside the region.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Returns `true` if `[addr, addr+len)` overlaps this region.
    #[inline]
    pub fn overlaps(&self, addr: Addr, len: u64) -> bool {
        addr < self.end() && addr + len > self.start
    }

    /// Number of pages in the region.
    #[inline]
    pub fn page_count(&self) -> u64 {
        self.len / PAGE_SIZE
    }

    /// The region-relative indices of the pages `[addr, addr+len)` touches.
    #[inline]
    pub fn pages(&self, addr: Addr, len: u64) -> Range<u64> {
        (addr - self.start) / PAGE_SIZE..(addr + len - self.start).div_ceil(PAGE_SIZE)
    }

    /// Number of pages that have actually been written.
    #[inline]
    pub fn resident_pages(&self) -> usize {
        self.store.resident_pages()
    }

    /// Number of pages declared absent (awaiting lazy population).
    #[inline]
    pub fn absent_pages(&self) -> u64 {
        self.store.absent_pages()
    }

    /// Reads bytes from the region (zero pages read as zero). `addr` must
    /// lie inside the region and the read must not run past its end (callers
    /// check this; the address-space API enforces it).  An absent page
    /// refuses the access with [`MemError::NotResident`].
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemError> {
        debug_assert!(self.contains(addr));
        debug_assert!(addr + buf.len() as u64 <= self.end());
        for (page, at, n, done) in pieces(addr - self.start, buf.len()) {
            match self.store.slots.get(&page) {
                Some(Slot::Resident(p)) => {
                    buf[done..done + n].copy_from_slice(&p.bytes[at..at + n])
                }
                Some(Slot::Absent) => return Err(self.not_resident(page)),
                None => buf[done..done + n].fill(0),
            }
        }
        Ok(())
    }

    /// Writes bytes into the region, materialising pages as needed and
    /// stamping touched pages with `epoch`.
    pub fn write(&mut self, addr: Addr, data: &[u8], epoch: u64) -> Result<(), MemError> {
        debug_assert!(self.contains(addr));
        debug_assert!(addr + data.len() as u64 <= self.end());
        for (page, at, n, done) in pieces(addr - self.start, data.len()) {
            let absent = self.not_resident(page);
            let bytes = self.store.page_mut(page, epoch).ok_or(absent)?;
            bytes[at..at + n].copy_from_slice(&data[done..done + n]);
        }
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `byte`, stamping touched pages with
    /// `epoch`.
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8, epoch: u64) -> Result<(), MemError> {
        debug_assert!(self.contains(addr) && addr + len <= self.end());
        for (page, at, n, _) in pieces(addr - self.start, len as usize) {
            let absent = self.not_resident(page);
            self.store.page_mut(page, epoch).ok_or(absent)?[at..at + n].fill(byte);
        }
        Ok(())
    }

    /// Stores into `[addr, addr+len)` the source bytes starting at address
    /// `from`, read from `source`: the source range's resident pages keyed
    /// by absolute page number, shared before anything was stored (a page
    /// missing from it is Zero).  A whole destination page over a whole
    /// source page takes the source's `Arc` (a Zero source: fresh zeros);
    /// a partial or incongruent piece copies bytes.  Either way the page
    /// ends Resident and stamped with `epoch` — never Zero again, or a
    /// delta round would miss it.
    pub(crate) fn copy_in(
        &mut self,
        addr: Addr,
        len: u64,
        from: Addr,
        source: &[(u64, Arc<[u8]>)],
        epoch: u64,
    ) -> Result<(), MemError> {
        debug_assert!(self.contains(addr) && addr + len <= self.end());
        let page_of = |page: u64| {
            let at = source.binary_search_by_key(&page, |(p, _)| *p);
            at.ok().map(|i| &source[i].1)
        };
        for (page, at, n, done) in pieces(addr - self.start, len as usize) {
            let from = from + done as u64;
            if n == PAGE_SIZE as usize && from.is_page_aligned() {
                let bytes = page_of(from.as_u64() / PAGE_SIZE).map_or_else(zero_page, Arc::clone);
                self.store.install(page, bytes, epoch);
                continue;
            }
            let absent = self.not_resident(page);
            let bytes = &mut self.store.page_mut(page, epoch).ok_or(absent)?[at..at + n];
            for (src_page, src_at, k, d) in pieces(from.as_u64(), n) {
                match page_of(src_page) {
                    Some(src) => bytes[d..d + k].copy_from_slice(&src[src_at..src_at + k]),
                    None => bytes[d..d + k].fill(0),
                }
            }
        }
        Ok(())
    }

    /// The error for a touch of this region's absent page `page`.
    fn not_resident(&self, page: u64) -> MemError {
        MemError::NotResident(self.start + page * PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(start: u64, len: u64) -> Region {
        Region {
            id: RegionId(1),
            start: Addr(start),
            len,
            prot: Prot::RW,
            half: Half::Upper,
            label: "test".to_string(),
            store: PageStore::new(),
        }
    }

    /// A region big enough for the store-level tests, based at zero so
    /// addresses are store offsets.
    fn flat() -> Region {
        region(0, 64 * PAGE_SIZE)
    }

    #[test]
    fn page_store_reads_zero_when_unwritten() {
        let r = flat();
        let mut buf = [0xffu8; 64];
        r.read(Addr(10_000), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(r.resident_pages(), 0);
    }

    #[test]
    fn page_store_write_read_round_trip_across_page_boundary() {
        let mut r = flat();
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        r.write(Addr(PAGE_SIZE - 100), &data, 0).unwrap();
        let mut out = vec![0u8; data.len()];
        r.read(Addr(PAGE_SIZE - 100), &mut out).unwrap();
        assert_eq!(out, data);
        // 10_000 bytes starting 100 bytes before a boundary touch 4 pages.
        assert_eq!(r.resident_pages(), 4);
    }

    #[test]
    fn page_store_fill_is_visible() {
        let mut r = flat();
        r.fill(Addr(5), 3 * PAGE_SIZE, 0xab, 0).unwrap();
        let mut buf = [0u8; 16];
        r.read(Addr(PAGE_SIZE), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xab));
        let mut head = [1u8; 5];
        r.read(Addr(0), &mut head).unwrap();
        assert!(head.iter().all(|&b| b == 0));
    }

    #[test]
    fn region_overlap_and_containment() {
        let r = region(0x10_000, 4 * PAGE_SIZE);
        assert!(r.contains(Addr(0x10_000)));
        assert!(r.contains(Addr(0x10_000 + 4 * PAGE_SIZE - 1)));
        assert!(!r.contains(Addr(0x10_000 + 4 * PAGE_SIZE)));
        assert!(r.overlaps(Addr(0x10_000 - PAGE_SIZE), 2 * PAGE_SIZE));
        assert!(!r.overlaps(Addr(0x10_000 - PAGE_SIZE), PAGE_SIZE));
        assert!(r.overlaps(Addr(0x10_000 + 3 * PAGE_SIZE), 64 * PAGE_SIZE));
    }

    #[test]
    fn region_read_write_round_trip() {
        let mut r = region(0x20_000, 2 * PAGE_SIZE);
        r.write(Addr(0x20_010), b"hello CRAC", 0).unwrap();
        let mut buf = [0u8; 10];
        r.read(Addr(0x20_010), &mut buf).unwrap();
        assert_eq!(&buf, b"hello CRAC");
        assert_eq!(r.resident_pages(), 1);
    }

    #[test]
    fn split_off_and_append_preserve_content() {
        let mut r = flat();
        r.write(Addr(0), &[1u8; PAGE_SIZE as usize], 0).unwrap();
        r.write(Addr(PAGE_SIZE * 3), &[3u8; PAGE_SIZE as usize], 0)
            .unwrap();
        let mut tail = flat();
        tail.store = r.store.split_off(2);
        assert_eq!(r.resident_pages(), 1);
        let mut buf = [0u8; 4];
        tail.read(Addr(PAGE_SIZE), &mut buf).unwrap();
        assert_eq!(buf, [3u8; 4]);
        r.store.append(tail.store, 5);
        r.read(Addr(PAGE_SIZE * 6), &mut buf).unwrap();
        assert_eq!(buf, [3u8; 4]);
    }

    #[test]
    fn shared_snapshot_survives_later_writes() {
        let mut r = flat();
        r.write(Addr(0), &[7u8; PAGE_SIZE as usize], 0).unwrap();
        let snap = r.store.pages_since(0).next().unwrap().1.share();
        r.write(Addr(16), &[9u8; 8], 0).unwrap();
        // Snapshot still sees the pre-write content; store sees the new.
        assert!(snap.iter().all(|&b| b == 7));
        let mut now = [0u8; 8];
        r.read(Addr(16), &mut now).unwrap();
        assert_eq!(now, [9u8; 8]);
    }

    #[test]
    fn pages_since_tracks_write_epochs() {
        let mut r = flat();
        r.write(Addr(0), &[1u8; 4], 0).unwrap();
        r.write(Addr(PAGE_SIZE * 5), &[5u8; 4], 0).unwrap();
        r.write(Addr(PAGE_SIZE * 5), &[6u8; 4], 1).unwrap();
        r.write(Addr(PAGE_SIZE * 9), &[9u8; 4], 1).unwrap();
        let dirty: Vec<u64> = r.store.pages_since(1).map(|(k, _)| k).collect();
        assert_eq!(dirty, vec![5, 9]);
        // Epoch survives a split.
        let tail = r.store.split_off(6);
        let dirty: Vec<u64> = tail.pages_since(1).map(|(k, _)| k).collect();
        assert_eq!(dirty, vec![3]);
    }

    #[test]
    fn slot_transitions_keep_one_state_per_page() {
        let mut r = flat();
        r.write(Addr(0), &[1u8; 4], 0).unwrap();
        // Resident → Absent drops the bytes; Zero → Absent; Absent → Absent.
        r.store.declare_absent(0..3);
        r.store.declare_absent(1..2);
        assert_eq!((r.resident_pages(), r.absent_pages()), (0, 3));
        // Absent refuses reads and writes, naming the page, and stays absent.
        let at = |page: u64| Err(MemError::NotResident(Addr(page * PAGE_SIZE)));
        assert_eq!(r.read(Addr(PAGE_SIZE - 1), &mut [0u8; 2]), at(0));
        assert_eq!(r.write(Addr(PAGE_SIZE * 2 + 9), &[7], 1), at(2));
        assert_eq!(r.fill(Addr(PAGE_SIZE), 1, 7, 1), at(1));
        assert_eq!(r.store.absent_in(1..9), Some(1));
        // Absent → Resident by install only; the count follows splits.
        r.store.install(1, zero_page(), 1);
        assert_eq!((r.resident_pages(), r.absent_pages()), (1, 2));
        let tail = r.store.split_off(2);
        assert_eq!((r.absent_pages(), tail.absent_pages()), (1, 1));
        assert_eq!(tail.absent_in(0..1), Some(0));
    }

    #[test]
    fn page_runs_are_exact_maximal_runs() {
        let run = |first, count| PageRun { first, count };
        assert_eq!(
            page_runs([0, 1, 4, 5, 10, 20]),
            vec![run(0, 2), run(4, 2), run(10, 1), run(20, 1)]
        );
        assert_eq!(page_runs([]), vec![]);
    }
}
