//! Simulated process virtual address space.
//!
//! CRAC's split-process architecture places two programs — the CUDA
//! application (*upper half*) and a helper program containing the CUDA
//! library (*lower half*) — into a single process address space.  The
//! checkpoint logic then has to answer questions like *which memory regions
//! belong to the upper half?* in the presence of `/proc/PID/maps` region
//! merging, library-allocated arenas and `MAP_FIXED` overwrites.
//!
//! This crate reproduces exactly those address-space phenomena in a
//! deterministic, in-process model:
//!
//! * [`AddressSpace`] — `mmap` / `munmap` / `mprotect` with optional
//!   `MAP_FIXED` placement, first-fit allocation, and an ASLR toggle
//!   (the analogue of `personality(ADDR_NO_RANDOMIZE)`).
//! * [`Region`] — a mapping with protection bits, an upper/lower-half tag,
//!   a human-readable label and sparse page-granular backing storage.
//! * [`maps`] — the *merged* `/proc/PID/maps`-style view in which adjacent
//!   regions with equal protection coalesce, deliberately losing the
//!   upper/lower-half tag (the Section 3.2.2 problem CRAC must work around).
//!
//! The backing store is sparse: only pages that have actually been written
//! consume host memory, so multi-gigabyte simulated allocations (e.g. the
//! HYPRE workload's 2.3 GB footprint) remain cheap while logical sizes — and
//! therefore checkpoint-image sizes — stay faithful.
//!
//! # One page table
//!
//! Residency, dirtiness and sharing are one per-page state.  Each region's
//! [`PageStore`] holds one ordered map of [`Slot`]s: a page with **no slot**
//! is *Zero*; [`Slot::Absent`] is mapped but not paged in yet (lazy
//! restore); [`Slot::Resident`] carries the bytes and the write epoch of the
//! last mutation, and is *Shared* exactly while a snapshot
//! ([`Page::share`]) or another slot (a `copy` destination) still holds its
//! `Arc`.  The only transitions:
//!
//! | operation | Zero | Resident | Absent |
//! |---|---|---|---|
//! | `read` | zeros | its bytes | [`MemError::NotResident`] |
//! | `write`, `fill` | → Resident, stamped | stamped; copied first if Shared | `NotResident`, stays Absent |
//! | `copy` source | destination page → Resident zeros, stamped | destination page shares its `Arc`, stamped (partial or misaligned: bytes copied) | `NotResident`: paged in first |
//! | `sparse_copy` source | nothing moves | its bytes, written once into the destination (which owns them) | `NotResident` |
//! | `install_resident` | → Resident | → Resident (replaced) | → Resident |
//! | `declare_absent` | → Absent | → Absent (bytes dropped) | stays Absent |
//! | `mprotect` / partial `munmap` split, `consolidate_upper_half` | slots move whole, once: bytes, epoch and absence survive | ← | ← |
//! | `munmap`, `MAP_FIXED` over it | — | dropped | dropped |
//! | a checkpoint's capture | not emitted (zeros if bridged) | shared, zero-copy | paged in first, or the checkpoint fails — never zeros |
//!
//! Every accessor validates the whole range first (a hole or protection
//! violation anywhere wins over an absent page) and mutates only then, so a
//! refused access changes nothing.  Through a [`SharedSpace`],
//! `NotResident` is not an error but a *fault*: the installed
//! [`PageFaultHandler`] pages the content in with no space lock held and the
//! access retries.

pub mod addr;
pub mod maps;
pub mod region;
pub mod shared;
pub mod space;

pub use addr::{page_align_down, page_align_up, Addr, Prot, PAGE_SIZE};
pub use maps::MapsEntry;
pub use region::PageStore;
pub use region::{page_runs, Half, Page, PageRun, Region, RegionId, Slot};
pub use shared::{PageFaultHandler, SharedSpace};
pub use space::{AddressSpace, MapRequest, MemError, SpaceStats};
