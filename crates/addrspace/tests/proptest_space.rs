//! Property-based tests of the simulated address space.
//!
//! These check the invariants CRAC's bookkeeping depends on: regions never
//! overlap, every page is in exactly the state a flat model says it is in
//! (bytes, residency, last-write epoch) after any sequence of operations,
//! the maps view covers exactly the mapped bytes, and allocation without
//! ASLR is deterministic.

use std::collections::BTreeMap;
use std::sync::Arc;

use crac_addrspace::{Addr, AddressSpace, Half, MapRequest, MemError, Prot, Slot, PAGE_SIZE};
use proptest::prelude::*;

/// A randomly generated sequence of address-space operations.
#[derive(Clone, Debug)]
enum Op {
    Map {
        pages: u64,
        half: Half,
        fixed_slot: Option<u8>,
    },
    Unmap {
        slot: u8,
        page_off: u64,
        pages: u64,
    },
    Write {
        slot: u8,
        off: u64,
        len: u8,
        byte: u8,
    },
    Protect {
        slot: u8,
        prot_ro: bool,
    },
    SnapshotEpoch,
    /// Hold zero-copy snapshots of a region's pages; they must never change.
    Share {
        slot: u8,
    },
    DeclareAbsent {
        slot: u8,
        page_off: u64,
        pages: u64,
    },
    Install {
        slot: u8,
        page_off: u64,
        pages: u64,
        byte: u8,
    },
    Consolidate,
    SparseCopy {
        src: u8,
        dst: u8,
        off: u64,
        len: u64,
    },
    /// A `memmove`: the offset shifts the source only, so ragged offsets
    /// copy across in-page offsets and equal slots overlap.
    Copy {
        src: u8,
        dst: u8,
        off: u64,
        len: u64,
    },
    Fill {
        slot: u8,
        off: u64,
        len: u64,
        byte: u8,
    },
    Read {
        slot: u8,
        off: u64,
        len: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Offsets and lengths of the range ops are deliberately not clamped to
    // their slot: they run into neighbours and holes.  Half are ragged, half
    // whole pages.
    let span = || {
        (0u64..6 * PAGE_SIZE, 1u64..3 * PAGE_SIZE, any::<bool>()).prop_map(|(off, len, ragged)| {
            if ragged {
                (off, len)
            } else {
                (
                    off / PAGE_SIZE * PAGE_SIZE,
                    len.div_ceil(PAGE_SIZE) * PAGE_SIZE,
                )
            }
        })
    };
    prop_oneof![
        (1u64..16, any::<bool>(), proptest::option::of(0u8..8)).prop_map(|(pages, upper, f)| {
            Op::Map {
                pages,
                half: if upper { Half::Upper } else { Half::Lower },
                fixed_slot: f,
            }
        }),
        (any::<u8>(), 0u64..4, 1u64..4).prop_map(|(slot, page_off, pages)| Op::Unmap {
            slot,
            page_off,
            pages
        }),
        (any::<u8>(), 0u64..1024, 1u8..64, any::<u8>()).prop_map(|(slot, off, len, byte)| {
            Op::Write {
                slot,
                off,
                len,
                byte,
            }
        }),
        (any::<u8>(), any::<bool>()).prop_map(|(slot, prot_ro)| Op::Protect { slot, prot_ro }),
        Just(Op::SnapshotEpoch),
        any::<u8>().prop_map(|slot| Op::Share { slot }),
        (any::<u8>(), 0u64..6, 1u64..4).prop_map(|(slot, page_off, pages)| Op::DeclareAbsent {
            slot,
            page_off,
            pages
        }),
        (any::<u8>(), 0u64..6, 1u64..4, any::<u8>()).prop_map(|(slot, page_off, pages, byte)| {
            Op::Install {
                slot,
                page_off,
                pages,
                byte,
            }
        }),
        Just(Op::Consolidate),
        (any::<u8>(), any::<u8>(), span()).prop_map(|(src, dst, (off, len))| Op::SparseCopy {
            src,
            dst,
            off,
            len
        }),
        (any::<u8>(), any::<u8>(), span()).prop_map(|(src, dst, (off, len))| Op::Copy {
            src,
            dst,
            off,
            len
        }),
        (any::<u8>(), span(), any::<u8>()).prop_map(|(slot, (off, len), byte)| Op::Fill {
            slot,
            off,
            len,
            byte
        }),
        (any::<u8>(), span()).prop_map(|(slot, (off, len))| Op::Read { slot, off, len }),
    ]
}

/// What the flat model holds behind one mapped page.  One enum per page, so
/// "resident and absent at once" cannot even be written down.
#[derive(Clone, Debug, PartialEq)]
enum Shadow {
    Zero,
    Absent,
    Resident { bytes: Vec<u8>, epoch: u64 },
}

/// The flat model: every mapped page by address, and the write epoch.
#[derive(Default)]
struct Model {
    pages: BTreeMap<u64, (Prot, Shadow)>,
    epoch: u64,
}

/// The page-aligned addresses of the pages `[addr, addr+len)` touches.
fn pages_of(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    (addr / PAGE_SIZE..(addr + len).div_ceil(PAGE_SIZE)).map(|p| p * PAGE_SIZE)
}

impl Model {
    /// What an access needing `need` (`None`: bookkeeping) must report: the
    /// first hole or protection violation, else the first absent page.
    fn check(&self, addr: u64, len: u64, need: Option<Prot>) -> Result<(), MemError> {
        let at = |page: u64| Addr(page.max(addr));
        let mut absent = None;
        for page in pages_of(addr, len) {
            let Some((prot, state)) = self.pages.get(&page) else {
                return Err(MemError::Fault(at(page)));
            };
            let Some(need) = need else { continue };
            if !prot.contains(need) {
                return Err(MemError::Protection(at(page)));
            }
            if *state == Shadow::Absent && absent.is_none() {
                absent = Some(MemError::NotResident(Addr(page)));
            }
        }
        absent.map_or(Ok(()), Err)
    }

    /// The bytes of a validated range (zero pages read as zero).
    fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        for page in pages_of(addr, len) {
            if let Some((_, Shadow::Resident { bytes, .. })) = self.pages.get(&page) {
                let (lo, hi) = (page.max(addr), (page + PAGE_SIZE).min(addr + len));
                out[(lo - addr) as usize..(hi - addr) as usize]
                    .copy_from_slice(&bytes[(lo - page) as usize..(hi - page) as usize]);
            }
        }
        out
    }

    /// Stores `data` over a validated range: touched pages become resident
    /// and carry the current epoch.
    fn put(&mut self, addr: u64, data: &[u8]) {
        let len = data.len() as u64;
        for page in pages_of(addr, len) {
            let (_, state) = self.pages.get_mut(&page).unwrap();
            if !matches!(state, Shadow::Resident { .. }) {
                *state = Shadow::Resident {
                    bytes: vec![0u8; PAGE_SIZE as usize],
                    epoch: 0,
                };
            }
            let Shadow::Resident { bytes, epoch } = state else {
                unreachable!()
            };
            *epoch = self.epoch;
            let (lo, hi) = (page.max(addr), (page + PAGE_SIZE).min(addr + len));
            bytes[(lo - page) as usize..(hi - page) as usize]
                .copy_from_slice(&data[(lo - addr) as usize..(hi - addr) as usize]);
        }
    }

    /// A whole write: validate, then store.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len() as u64, Some(Prot::WRITE))?;
        self.put(addr, data);
        Ok(())
    }

    /// The page addresses that are resident and stamped at or after `epoch`.
    fn pages_since(&self, epoch: u64) -> Vec<u64> {
        let dirty = |s: &Shadow| matches!(s, Shadow::Resident { epoch: e, .. } if *e >= epoch);
        let since = self.pages.iter().filter(|(_, (_, s))| dirty(s));
        since.map(|(page, _)| *page).collect()
    }
}

/// The real space flattened the way the model is.
fn flatten(space: &AddressSpace) -> BTreeMap<u64, (Prot, Shadow)> {
    let mut flat = BTreeMap::new();
    for r in space.regions() {
        let at = |page: u64| r.start.as_u64() + page * PAGE_SIZE;
        flat.extend((0..r.page_count()).map(|page| (at(page), (r.prot, Shadow::Zero))));
        for (page, slot) in r.store.slots(0..r.page_count()) {
            let state = match slot {
                Slot::Absent => Shadow::Absent,
                Slot::Resident(p) => Shadow::Resident {
                    bytes: p.bytes().to_vec(),
                    epoch: p.epoch(),
                },
            };
            flat.insert(at(page), (r.prot, state));
        }
    }
    flat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step of any sequence of operations: no two regions
    /// overlap, every region is page-aligned and inside its half, and the
    /// space agrees with the flat model on every result it returned and on
    /// every page's bytes, residency and last-write epoch — across region
    /// splits, merges and unmaps.
    #[test]
    fn space_matches_a_flat_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut space = AddressSpace::new_no_aslr();
        let mut model = Model::default();
        let mut slots: Vec<(Addr, u64)> = Vec::new();
        let mut epochs = vec![0u64];
        let mut held: Vec<(Arc<[u8]>, Vec<u8>)> = Vec::new();
        for op in ops {
            // Range ops address a slot's start plus an unclamped offset.
            let base = |slot: u8| slots.get(slot as usize % slots.len().max(1)).map(|s| s.0);
            match op {
                Op::Map { pages, half, fixed_slot } => {
                    let mut req = MapRequest::anon(pages * PAGE_SIZE, half, "prop");
                    if let Some(s) = fixed_slot {
                        if let Some(&(addr, len)) = slots.get(s as usize) {
                            // Re-map over an existing slot only if the halves agree.
                            if space.region_at(addr).map(|r| r.half) == Some(half) && len >= pages * PAGE_SIZE {
                                req = req.at(addr);
                            }
                        }
                    }
                    if let Ok(addr) = space.mmap(req) {
                        slots.push((addr, pages * PAGE_SIZE));
                        for page in pages_of(addr.as_u64(), pages * PAGE_SIZE) {
                            model.pages.insert(page, (Prot::RW, Shadow::Zero));
                        }
                    }
                }
                Op::Unmap { slot, page_off, pages } => {
                    if let Some(&(addr, len)) = slots.get(slot as usize % slots.len().max(1)) {
                        let off = (page_off * PAGE_SIZE).min(len.saturating_sub(PAGE_SIZE));
                        prop_assert_eq!(space.munmap(addr + off, pages * PAGE_SIZE), Ok(()));
                        for page in pages_of((addr + off).as_u64(), pages * PAGE_SIZE) {
                            model.pages.remove(&page);
                        }
                    }
                }
                Op::Write { slot, off, len, byte } => {
                    if let Some(&(addr, rlen)) = slots.get(slot as usize % slots.len().max(1)) {
                        let off = off.min(rlen.saturating_sub(len as u64));
                        let data = vec![byte; len as usize];
                        prop_assert_eq!(space.write(addr + off, &data), model.write((addr + off).as_u64(), &data));
                    }
                }
                Op::Protect { slot, prot_ro } => {
                    if let Some(&(addr, len)) = slots.get(slot as usize % slots.len().max(1)) {
                        let prot = if prot_ro { Prot::READ } else { Prot::RW };
                        let mut covered = model.pages.range_mut(addr.as_u64()..addr.as_u64() + len).peekable();
                        let want = covered.peek().map(|_| ()).ok_or(MemError::Fault(addr));
                        covered.for_each(|(_, (p, _))| *p = prot);
                        prop_assert_eq!(space.mprotect(addr, len, prot), want);
                    }
                }
                Op::SnapshotEpoch => {
                    model.epoch += 1;
                    prop_assert_eq!(space.snapshot_epoch(), model.epoch);
                    epochs.push(model.epoch);
                }
                Op::Share { slot } => {
                    if held.len() > 64 {
                        held.clear();
                    }
                    if let Some(r) = base(slot).and_then(|a| space.region_at(a)) {
                        held.extend(r.store.pages_since(0).map(|(_, p)| (p.share(), p.bytes().to_vec())));
                    }
                }
                Op::DeclareAbsent { slot, page_off, pages } => {
                    if let Some(addr) = base(slot).map(|a| a + page_off * PAGE_SIZE) {
                        let want = model.check(addr.as_u64(), pages * PAGE_SIZE, None);
                        if want.is_ok() {
                            for page in pages_of(addr.as_u64(), pages * PAGE_SIZE) {
                                model.pages.get_mut(&page).unwrap().1 = Shadow::Absent;
                            }
                        }
                        prop_assert_eq!(space.declare_absent(addr, pages * PAGE_SIZE), want);
                    }
                }
                Op::Install { slot, page_off, pages, byte } => {
                    if let Some(addr) = base(slot).map(|a| a + page_off * PAGE_SIZE) {
                        let content = vec![byte; (pages * PAGE_SIZE) as usize];
                        let mut installed = 0;
                        for page in pages_of(addr.as_u64(), pages * PAGE_SIZE) {
                            // Protection is ignored; unmapped pages are skipped.
                            if let Some((_, state)) = model.pages.get_mut(&page) {
                                *state = Shadow::Resident { bytes: vec![byte; PAGE_SIZE as usize], epoch: model.epoch };
                                installed += 1;
                            }
                        }
                        prop_assert_eq!(space.install_resident(addr, &content), Ok(installed));
                    }
                }
                Op::Consolidate => {
                    space.consolidate_upper_half();
                }
                Op::SparseCopy { src, dst, off, len } => {
                    if let Some((src, dst)) = base(src).zip(base(dst)) {
                        let (src, dst) = ((src + off).as_u64(), dst.as_u64());
                        let want = model
                            .check(src, len, Some(Prot::READ))
                            .and_then(|()| model.check(dst, len, Some(Prot::WRITE)))
                            .map(|()| {
                                // Snapshot the resident source pieces, then store them.
                                let pieces: Vec<(u64, Vec<u8>)> = pages_of(src, len)
                                    .filter(|page| matches!(model.pages[page].1, Shadow::Resident { .. }))
                                    .map(|page| (page.max(src), (page + PAGE_SIZE).min(src + len)))
                                    .map(|(lo, hi)| (lo - src, model.read(lo, hi - lo)))
                                    .collect();
                                pieces.iter().for_each(|(at, bytes)| model.put(dst + at, bytes));
                                pieces.iter().map(|(_, bytes)| bytes.len() as u64).sum::<u64>()
                            });
                        prop_assert_eq!(space.sparse_copy(Addr(dst), Addr(src), len), want);
                    }
                }
                Op::Copy { src, dst, off, len } => {
                    if let Some((src, dst)) = base(src).zip(base(dst)) {
                        let (src, dst) = ((src + off).as_u64(), dst.as_u64());
                        let want = model
                            .check(src, len, Some(Prot::READ))
                            .and_then(|()| model.check(dst, len, Some(Prot::WRITE)))
                            .map(|()| model.put(dst, &model.read(src, len)));
                        prop_assert_eq!(space.copy(Addr(dst), Addr(src), len), want);
                    }
                }
                Op::Fill { slot, off, len, byte } => {
                    if let Some(addr) = base(slot).map(|a| a + off) {
                        let want = model.write(addr.as_u64(), &vec![byte; len as usize]);
                        prop_assert_eq!(space.fill(addr, len, byte), want);
                    }
                }
                Op::Read { slot, off, len } => {
                    if let Some(addr) = base(slot).map(|a| a + off) {
                        let mut buf = vec![0xEEu8; len as usize];
                        let got = space.read(addr, &mut buf).map(|()| buf);
                        let want = model.check(addr.as_u64(), len, Some(Prot::READ));
                        prop_assert_eq!(got, want.map(|()| model.read(addr.as_u64(), len)));
                    }
                }
            }

            // Invariant: regions sorted, aligned, non-overlapping, in-half.
            let regions: Vec<_> = space.regions().collect();
            for w in regions.windows(2) {
                prop_assert!(w[0].end() <= w[1].start, "regions overlap: {:?} and {:?}", w[0].start, w[1].start);
            }
            for r in &regions {
                prop_assert!(r.start.is_page_aligned());
                prop_assert_eq!(r.len % PAGE_SIZE, 0);
                match r.half {
                    Half::Upper => prop_assert!(r.start.as_u64() >= 0x4000_0000_0000),
                    Half::Lower => prop_assert!(r.start.as_u64() < 0x4000_0000_0000),
                }
            }
            // Invariant: every page is in the state the model says, and the
            // public queries over those states agree with it too.
            prop_assert!(flatten(&space) == model.pages, "page states diverged from the model");
            let absent = model.pages.values().filter(|(_, s)| *s == Shadow::Absent).count();
            prop_assert_eq!(space.stats().absent_pages, absent as u64);
            prop_assert_eq!(space.stats().resident_pages, model.pages_since(0).len());
            for &epoch in &epochs {
                let since: Vec<u64> = space
                    .regions()
                    .flat_map(|r| r.store.pages_since(epoch).map(|(page, _)| r.start.as_u64() + page * PAGE_SIZE))
                    .collect();
                prop_assert_eq!(since, model.pages_since(epoch));
            }
            // Invariant: a held snapshot never changes, whatever was written
            // to, installed over or unmapped from its page since.
            prop_assert!(held.iter().all(|(shared, then)| shared[..] == then[..]));
        }
    }

    /// Reads observe the most recent write at every offset.
    #[test]
    fn read_sees_last_write(
        writes in proptest::collection::vec((0u64..8192, 1usize..128, any::<u8>()), 1..32)
    ) {
        let mut space = AddressSpace::new_no_aslr();
        let base = space.mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "rw")).unwrap();
        let mut shadow = vec![0u8; 4 * PAGE_SIZE as usize];
        for (off, len, byte) in writes {
            let off = off.min(4 * PAGE_SIZE - len as u64);
            let data = vec![byte; len];
            space.write(base + off, &data).unwrap();
            shadow[off as usize..off as usize + len].fill(byte);
        }
        let mut out = vec![0u8; shadow.len()];
        space.read(base, &mut out).unwrap();
        prop_assert_eq!(out, shadow);
    }

    /// The merged maps view covers exactly the mapped byte ranges (no bytes
    /// gained or lost by merging).
    #[test]
    fn maps_view_preserves_total_bytes(sizes in proptest::collection::vec(1u64..32, 1..20)) {
        let mut space = AddressSpace::new_no_aslr();
        let mut total = 0u64;
        for (i, pages) in sizes.iter().enumerate() {
            let half = if i % 3 == 0 { Half::Lower } else { Half::Upper };
            space.mmap(MapRequest::anon(pages * PAGE_SIZE, half, "m")).unwrap();
            total += pages * PAGE_SIZE;
        }
        let merged: u64 = space.proc_maps().iter().map(|e| e.len()).sum();
        prop_assert_eq!(merged, total);
        // Merging can only reduce the entry count.
        prop_assert!(space.proc_maps().len() <= space.region_count());
    }

    /// Without ASLR, two identical allocation sequences produce identical
    /// addresses — the determinism CRAC's replay relies on.
    #[test]
    fn no_aslr_is_deterministic(sizes in proptest::collection::vec(1u64..64, 1..30)) {
        let run = |sizes: &[u64]| -> Vec<u64> {
            let mut s = AddressSpace::new_no_aslr();
            sizes
                .iter()
                .map(|p| s.mmap(MapRequest::anon(p * PAGE_SIZE, Half::Lower, "d")).unwrap().as_u64())
                .collect()
        };
        prop_assert_eq!(run(&sizes), run(&sizes));
    }
}

#[test]
fn oversized_mapping_reports_out_of_space() {
    let mut s = AddressSpace::new_no_aslr();
    // The upper half is < 2^47 bytes; ask for more than it can hold.
    let err = s
        .mmap(MapRequest::anon(1 << 47, Half::Upper, "too-big"))
        .unwrap_err();
    assert_eq!(err, MemError::OutOfSpace);
    // Lengths whose page rounding or end address wraps: the first used to
    // map 2^64 - 4096 bytes (panicking in debug builds), the second a
    // zero-length region.
    for len in [u64::MAX - 4095, u64::MAX - 1] {
        let err = s.mmap(MapRequest::anon(len, Half::Upper, "wraps"));
        assert_eq!(err, Err(MemError::OutOfSpace));
        let base = Addr(0x4000_0000_0000);
        let fixed = s.mmap(MapRequest::anon(len, Half::Upper, "wraps").at(base));
        assert!(fixed.is_err(), "{fixed:?}");
        assert_eq!(s.munmap(base, len), Err(MemError::Fault(base)));
        assert_eq!(
            s.mprotect(base, len, Prot::READ),
            Err(MemError::Fault(base))
        );
    }
    assert_eq!(s.region_count(), 0);
}
