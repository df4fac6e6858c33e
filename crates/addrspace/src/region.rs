//! Memory regions with sparse page-granular backing storage.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::addr::{Addr, Prot, PAGE_SIZE};

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

/// Sparse page store: only pages that have been written are materialised.
///
/// Logical sizes can be multiple gigabytes (the HYPRE workload maps ~2.3 GB of
/// UVM), but tests and benchmarks only touch a small fraction of those pages,
/// so storage is a `BTreeMap` keyed by page index relative to the region
/// start.
///
/// Every mutation stamps the touched pages with the store's current *write
/// epoch* ([`PageStore::set_write_epoch`], advanced space-wide by
/// `AddressSpace::snapshot_epoch`), so a checkpointer can ask for exactly the
/// pages dirtied since a snapshot point ([`PageStore::pages_since`]).
#[derive(Clone, Default)]
pub struct PageStore {
    pages: BTreeMap<u64, Page>,
    epoch: u64,
    /// Pages declared *absent*: mapped and accounted for, but whose bytes
    /// have not been populated yet (lazy restore).  A first touch of an
    /// absent page must fault it in; the privileged install path
    /// (`AddressSpace::install_resident`) clears entries as content lands.
    absent: std::collections::BTreeSet<u64>,
}

/// One allocation per page: `Arc::from(&[u8])` sizes the `Arc` block and
/// copies into it directly, where `Vec<u8>::into()` allocates the `Vec`,
/// then the `Arc`, copies, and frees the `Vec` again.
fn zero_page() -> Arc<[u8]> {
    Arc::from(&[0u8; PAGE_SIZE as usize][..])
}

impl PageStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self {
            pages: BTreeMap::new(),
            epoch: 0,
            absent: std::collections::BTreeSet::new(),
        }
    }

    /// Number of materialised (dirty) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The epoch new mutations are stamped with.
    pub fn write_epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the stamping epoch.  Epochs only move forward; a lower value
    /// is ignored so adopted/merged stores can't roll a space backwards.
    pub fn set_write_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Mutable access to a page's bytes, materialising and copy-on-writing
    /// as needed, and stamping it with the current write epoch.
    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        let p = self.pages.entry(page).or_insert_with(|| Page {
            epoch: self.epoch,
            bytes: zero_page(),
        });
        p.epoch = self.epoch;
        if Arc::get_mut(&mut p.bytes).is_none() {
            // Shared with an outstanding snapshot: copy before writing.
            p.bytes = Arc::from(&p.bytes[..]);
        }
        // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
        Arc::get_mut(&mut p.bytes).expect("freshly copied page is unshared")
    }

    /// Reads `buf.len()` bytes starting at byte offset `off`.
    /// Unmaterialised pages read as zero.
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = off + done as u64;
            let page = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - done);
            match self.pages.get(&page) {
                Some(p) => buf[done..done + n].copy_from_slice(&p.bytes[in_page..in_page + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Writes `data` starting at byte offset `off`, materialising pages as
    /// needed.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let cur = off + done as u64;
            let page = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(data.len() - done);
            let p = self.page_mut(page);
            p[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Fills `len` bytes starting at `off` with `byte`.
    pub fn fill(&mut self, off: u64, len: u64, byte: u8) {
        // Chunked so that huge fills do not allocate a huge temporary.
        let chunk = vec![byte; PAGE_SIZE as usize];
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(PAGE_SIZE) as usize;
            self.write(off + done, &chunk[..n]);
            done += n as u64;
        }
    }

    /// Iterates over the materialised pages as `(page_index, bytes)` pairs.
    pub fn dirty_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter().map(|(k, v)| (*k, v.bytes()))
    }

    /// Iterates over the materialised pages stamped at or after `epoch` —
    /// i.e. dirtied since the `snapshot_epoch` call that returned `epoch`.
    pub fn pages_since(&self, epoch: u64) -> impl Iterator<Item = (u64, &Page)> {
        self.pages
            .iter()
            .filter(move |(_, p)| p.epoch >= epoch)
            .map(|(k, v)| (*k, v))
    }

    /// The materialised page at `page`, if any.
    pub fn page(&self, page: u64) -> Option<&Page> {
        self.pages.get(&page)
    }

    /// Installs a page's content wholesale (used when restoring from a
    /// checkpoint image).
    pub fn install_page(&mut self, page: u64, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE as usize, "page must be PAGE_SIZE");
        self.pages.insert(
            page,
            Page {
                epoch: self.epoch,
                bytes: Arc::from(bytes),
            },
        );
    }

    /// Discards pages at or beyond `first_page` (used when a region is split
    /// or truncated).
    pub fn truncate_pages(&mut self, first_page: u64) -> BTreeMap<u64, Page> {
        self.pages.split_off(&first_page)
    }

    /// Inserts pre-existing pages, with their keys shifted by `shift` pages
    /// (negative shifts move pages toward lower indices; used when a region is
    /// split or merged).  Page epochs are preserved, so dirty-since queries
    /// survive region splits and merges.
    pub fn adopt_pages(&mut self, pages: BTreeMap<u64, Page>, shift: i64) {
        for (k, v) in pages {
            let new_key = (k as i64 + shift) as u64;
            self.epoch = self.epoch.max(v.epoch);
            self.pages.insert(new_key, v);
        }
    }

    // -----------------------------------------------------------------
    // Residency (lazy restore)
    // -----------------------------------------------------------------

    /// Declares `count` pages starting at `first` absent: their bytes are
    /// known to exist (in a checkpoint image) but have not been populated.
    /// Until installed or marked resident they must not be read or written
    /// through the normal access paths.
    pub fn declare_absent(&mut self, first: u64, count: u64) {
        for page in first..first + count {
            self.absent.insert(page);
        }
    }

    /// `true` if the store tracks any absent pages (fast path guard).
    pub fn has_absent(&self) -> bool {
        !self.absent.is_empty()
    }

    /// Number of pages currently declared absent.
    pub fn absent_pages(&self) -> u64 {
        self.absent.len() as u64
    }

    /// `true` if `page` is declared absent.
    pub fn is_absent(&self, page: u64) -> bool {
        self.absent.contains(&page)
    }

    /// The first absent page index in `[first, first+count)`, if any.
    pub fn first_absent_in(&self, first: u64, count: u64) -> Option<u64> {
        self.absent.range(first..first + count).next().copied()
    }

    /// Clears the absent mark on `page` (its bytes have been installed, or
    /// the caller decided it resolves to zero).  Returns whether the page
    /// was absent.
    pub fn mark_resident(&mut self, page: u64) -> bool {
        self.absent.remove(&page)
    }

    /// Splits off the absent marks at or beyond `first_page` (the residency
    /// counterpart of [`PageStore::truncate_pages`]).
    pub fn split_absent(&mut self, first_page: u64) -> std::collections::BTreeSet<u64> {
        self.absent.split_off(&first_page)
    }

    /// Adopts absent marks with their indices shifted by `shift` pages (the
    /// residency counterpart of [`PageStore::adopt_pages`]).
    pub fn adopt_absent(&mut self, absent: std::collections::BTreeSet<u64>, shift: i64) {
        for page in absent {
            self.absent.insert((page as i64 + shift) as u64);
        }
    }
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageStore({} resident pages)", self.pages.len())
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
    page_runs_coalesced(indices, 0)
}

/// Like [`page_runs`], but bridges gaps of at most `max_gap` clean pages
/// between dirty runs, producing fewer, longer runs.
///
/// Bridged pages are *clean* — a consumer that emits run contents must be
/// willing to re-emit their unchanged bytes.  For fragmented dirty sets this
/// trades a little redundant page copying for far less per-run framing and
/// hashing overhead downstream.  `max_gap == 0` degenerates to exact runs.
pub fn page_runs_coalesced(indices: impl IntoIterator<Item = u64>, max_gap: u64) -> Vec<PageRun> {
    let mut runs: Vec<PageRun> = Vec::new();
    for idx in indices {
        match runs.last_mut() {
            Some(run) if idx < run.first + run.count => {
                debug_assert!(false, "page indices must be increasing");
                runs.push(PageRun {
                    first: idx,
                    count: 1,
                });
            }
            Some(run) if idx - (run.first + run.count) <= max_gap => {
                // Extends the run, bridging any clean pages in between.
                run.count = idx - run.first + 1;
            }
            _ => runs.push(PageRun {
                first: idx,
                count: 1,
            }),
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

    /// Reads bytes from the region. `addr` must lie inside the region and the
    /// read must not run past its end (callers check this; the address-space
    /// API enforces it).
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        debug_assert!(self.contains(addr));
        debug_assert!(addr + buf.len() as u64 <= self.end());
        self.store.read(addr - self.start, buf);
    }

    /// Writes bytes into the region.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        debug_assert!(self.contains(addr));
        debug_assert!(addr + data.len() as u64 <= self.end());
        self.store.write(addr - self.start, data);
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

    #[test]
    fn page_store_reads_zero_when_unwritten() {
        let store = PageStore::new();
        let mut buf = [0xffu8; 64];
        store.read(10_000, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn page_store_write_read_round_trip_across_page_boundary() {
        let mut store = PageStore::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        store.write(PAGE_SIZE - 100, &data);
        let mut out = vec![0u8; data.len()];
        store.read(PAGE_SIZE - 100, &mut out);
        assert_eq!(out, data);
        // 10_000 bytes starting 100 bytes before a boundary touch 4 pages.
        assert_eq!(store.resident_pages(), 4);
    }

    #[test]
    fn page_store_fill_is_visible() {
        let mut store = PageStore::new();
        store.fill(5, 3 * PAGE_SIZE, 0xab);
        let mut buf = [0u8; 16];
        store.read(PAGE_SIZE, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xab));
        let mut head = [1u8; 5];
        store.read(0, &mut head);
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
        r.write(Addr(0x20_010), b"hello CRAC");
        let mut buf = [0u8; 10];
        r.read(Addr(0x20_010), &mut buf);
        assert_eq!(&buf, b"hello CRAC");
        assert_eq!(r.resident_pages(), 1);
    }

    #[test]
    fn truncate_and_adopt_pages_preserve_content() {
        let mut store = PageStore::new();
        store.write(0, &[1u8; PAGE_SIZE as usize]);
        store.write(PAGE_SIZE * 3, &[3u8; PAGE_SIZE as usize]);
        let tail = store.truncate_pages(2);
        assert_eq!(store.resident_pages(), 1);
        let mut other = PageStore::new();
        other.adopt_pages(tail, -2);
        let mut buf = [0u8; 4];
        other.read(PAGE_SIZE, &mut buf);
        assert_eq!(buf, [3u8; 4]);
    }

    #[test]
    fn shared_snapshot_survives_later_writes() {
        let mut store = PageStore::new();
        store.write(0, &[7u8; PAGE_SIZE as usize]);
        let snap = store.page(0).unwrap().share();
        store.write(16, &[9u8; 8]);
        // Snapshot still sees the pre-write content; store sees the new.
        assert!(snap.iter().all(|&b| b == 7));
        let mut now = [0u8; 8];
        store.read(16, &mut now);
        assert_eq!(now, [9u8; 8]);
    }

    #[test]
    fn pages_since_tracks_write_epochs() {
        let mut store = PageStore::new();
        store.write(0, &[1u8; 4]);
        store.write(PAGE_SIZE * 5, &[5u8; 4]);
        store.set_write_epoch(1);
        store.write(PAGE_SIZE * 5, &[6u8; 4]);
        store.write(PAGE_SIZE * 9, &[9u8; 4]);
        let dirty: Vec<u64> = store.pages_since(1).map(|(k, _)| k).collect();
        assert_eq!(dirty, vec![5, 9]);
        // Epoch survives a split/adopt round trip.
        let tail = store.truncate_pages(6);
        let mut other = PageStore::new();
        other.adopt_pages(tail, -6);
        let dirty: Vec<u64> = other.pages_since(1).map(|(k, _)| k).collect();
        assert_eq!(dirty, vec![3]);
    }

    #[test]
    fn coalesced_runs_bridge_small_gaps_only() {
        let idx = [0, 1, 4, 5, 10, 20];
        assert_eq!(
            page_runs_coalesced(idx.iter().copied(), 2),
            vec![
                PageRun { first: 0, count: 6 },
                PageRun {
                    first: 10,
                    count: 1
                },
                PageRun {
                    first: 20,
                    count: 1
                },
            ]
        );
        // Zero gap degenerates to exact maximal runs.
        assert_eq!(
            page_runs_coalesced(idx.iter().copied(), 0),
            page_runs(idx.iter().copied())
        );
    }
}
