//! Shared-ownership wrapper around an [`AddressSpace`].
//!
//! The simulated process address space is touched from several places at
//! once: the upper-half application, the lower-half CUDA library, the GPU
//! executor (kernels read and write buffers), and the checkpointer.  All of
//! them hold a [`SharedSpace`], which is a cheap-to-clone handle around a
//! `crac_sync::RwLock<AddressSpace>`.
//!
//! It is also where an absent page (see the crate docs' transition table)
//! stops being an error: the convenience accessors turn
//! [`MemError::NotResident`] into a call of the installed
//! [`PageFaultHandler`] — no space lock held — and retry, and
//! [`SharedSpace::page_in`] does the same for a checkpointer that must see
//! the bytes without performing an access.

use std::sync::Arc;

use crac_sync::{Mutex, RwLock};

use crate::addr::{page_align_down, Addr, PAGE_SIZE};
use crate::region::Slot;
use crate::space::{AddressSpace, MapRequest, MemError};

/// Resolves first touches of absent pages during a lazy restore.
///
/// Installed on a [`SharedSpace`] with
/// [`SharedSpace::install_fault_handler`].  When a convenience accessor
/// (`read_bytes`, `write_bytes`, `fill`, `copy`, `sparse_copy` and the
/// typed helpers on top of them) hits [`MemError::NotResident`], the
/// handler is invoked **with no space lock held**: it must block until the
/// faulting page's bytes have been installed (via
/// [`AddressSpace::install_resident`]) and return `Ok`, after which the
/// interrupted access retries transparently.  Returning an error aborts
/// the access with that error — the restore source is gone and the page
/// can never materialise.
///
/// The raw [`SharedSpace::with`]/[`SharedSpace::with_mut`] escape hatches
/// do *not* fault — a closure runs under the space lock, where blocking on
/// a handler that needs the same lock to install pages would deadlock.
pub trait PageFaultHandler: Send + Sync {
    /// Faults in the absent page containing `addr`.
    fn fault(&self, addr: Addr) -> Result<(), MemError>;
}

/// Cheaply cloneable, thread-safe handle to a simulated address space.
#[derive(Clone)]
pub struct SharedSpace {
    inner: Arc<RwLock<AddressSpace>>,
    /// The demand-paging hook, shared by every clone of the handle so the
    /// application, the GPU executor and the checkpointer all fault through
    /// the same resolver.  Behind its own lock (not the space lock): the
    /// handler is consulted only after an access already failed, and
    /// installing one mid-restore must not contend with accesses.
    fault_handler: Arc<Mutex<Option<Arc<dyn PageFaultHandler>>>>,
}

impl Default for SharedSpace {
    fn default() -> Self {
        Self::new_no_aslr()
    }
}

impl SharedSpace {
    /// Wraps an existing address space.
    pub fn from_space(space: AddressSpace) -> Self {
        Self {
            inner: Arc::new(RwLock::new("addrspace.shared.space", space)),
            fault_handler: Arc::new(Mutex::new("addrspace.shared.fault_handler", None)),
        }
    }

    /// Installs the demand-paging fault handler (see [`PageFaultHandler`]).
    /// Replaces any previous handler; all clones of this handle observe it.
    pub fn install_fault_handler(&self, handler: Arc<dyn PageFaultHandler>) {
        *self.fault_handler.lock() = Some(handler);
    }

    /// Removes the fault handler: subsequent touches of absent pages surface
    /// [`MemError::NotResident`] directly.
    pub fn clear_fault_handler(&self) {
        *self.fault_handler.lock() = None;
    }

    /// `true` while a fault handler is installed.
    pub fn has_fault_handler(&self) -> bool {
        self.fault_handler.lock().is_some()
    }

    /// Runs `attempt` until it stops reporting [`MemError::NotResident`],
    /// resolving each reported page through the installed fault handler.
    /// The handler runs with no space lock held (the failed attempt already
    /// released it), so it can install pages through `with_mut`.
    fn with_demand_paging<R>(
        &self,
        mut attempt: impl FnMut() -> Result<R, MemError>,
    ) -> Result<R, MemError> {
        loop {
            match attempt() {
                Err(MemError::NotResident(addr)) => {
                    let handler = self.fault_handler.lock().clone();
                    match handler {
                        Some(h) => h.fault(addr)?,
                        None => return Err(MemError::NotResident(addr)),
                    }
                }
                other => return other,
            }
        }
    }

    /// Creates a fresh address space with ASLR enabled.
    pub fn new() -> Self {
        Self::from_space(AddressSpace::new())
    }

    /// Creates a fresh address space with ASLR disabled (what CRAC does).
    pub fn new_no_aslr() -> Self {
        Self::from_space(AddressSpace::new_no_aslr())
    }

    /// Runs `f` with shared (read) access to the space.
    pub fn with<R>(&self, f: impl FnOnce(&AddressSpace) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` with exclusive (write) access to the space.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut AddressSpace) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Convenience: start a new write epoch through the lock (see
    /// [`AddressSpace::snapshot_epoch`]).
    pub fn snapshot_epoch(&self) -> u64 {
        self.inner.write().snapshot_epoch()
    }

    /// Convenience: `mmap` through the lock.
    pub fn mmap(&self, req: MapRequest) -> Result<Addr, MemError> {
        self.inner.write().mmap(req)
    }

    /// Convenience: `munmap` through the lock.
    pub fn munmap(&self, addr: Addr, len: u64) -> Result<(), MemError> {
        self.inner.write().munmap(addr, len)
    }

    /// Convenience: raw byte read through the lock.  Faults absent pages in
    /// through the installed [`PageFaultHandler`], if any.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemError> {
        self.with_demand_paging(|| self.inner.read().read(addr, buf))
    }

    /// Convenience: raw byte write through the lock.  Faults absent pages in
    /// through the installed [`PageFaultHandler`], if any.
    pub fn write_bytes(&self, addr: Addr, data: &[u8]) -> Result<(), MemError> {
        self.with_demand_paging(|| self.inner.write().write(addr, data))
    }

    /// Convenience: bulk fill through the lock.  Faults absent pages in
    /// through the installed [`PageFaultHandler`], if any.
    pub fn fill(&self, addr: Addr, len: u64, byte: u8) -> Result<(), MemError> {
        self.with_demand_paging(|| self.inner.write().fill(addr, len, byte))
    }

    /// Convenience: copy through the lock (see [`AddressSpace::copy`]),
    /// under one write lock however long the range.  Faults absent pages in
    /// — on either side — through the installed [`PageFaultHandler`], if
    /// any.
    pub fn copy(&self, dst: Addr, src: Addr, len: u64) -> Result<(), MemError> {
        self.with_demand_paging(|| self.inner.write().copy(dst, src, len))
    }

    /// Convenience: sparse copy through the lock (see
    /// [`AddressSpace::sparse_copy`]).  Faults absent pages in — on either
    /// side — through the installed [`PageFaultHandler`], if any.
    pub fn sparse_copy(&self, dst: Addr, src: Addr, len: u64) -> Result<u64, MemError> {
        self.with_demand_paging(|| self.inner.write().sparse_copy(dst, src, len))
    }

    /// First-touches every absent page of `[addr, addr+len)` the way an
    /// access would — through the installed [`PageFaultHandler`], with no
    /// space lock held — but without being one: holes and protection bits
    /// are ignored.  This is the checkpointer's touch, which must see the
    /// bytes of a read-protected page too.  Fails with
    /// [`MemError::NotResident`] (or the handler's error) at the first page
    /// that cannot be paged in.
    pub fn page_in(&self, addr: Addr, len: u64) -> Result<(), MemError> {
        if self.inner.read().absent_pages() == 0 {
            return Ok(());
        }
        let end = addr.as_u64().saturating_add(len);
        // Pages below `from` are resident already; resume the scan there.
        let mut from = Addr(page_align_down(addr.as_u64()));
        self.with_demand_paging(|| {
            let space = self.inner.read();
            let mut slots = space.slots(from, end - from.as_u64());
            match slots.find(|(_, slot)| matches!(slot, Slot::Absent)) {
                Some((page, _)) => {
                    from += page * PAGE_SIZE;
                    Err(MemError::NotResident(from))
                }
                None => Ok(()),
            }
        })
    }

    /// Reads a little-endian `f32` slice starting at `addr`.
    pub fn read_f32(&self, addr: Addr, out: &mut [f32]) -> Result<(), MemError> {
        let mut bytes = vec![0u8; out.len() * 4];
        self.read_bytes(addr, &mut bytes)?;
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            out[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Ok(())
    }

    /// Writes a little-endian `f32` slice starting at `addr`.
    pub fn write_f32(&self, addr: Addr, data: &[f32]) -> Result<(), MemError> {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(addr, &bytes)
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: Addr, v: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Half;
    use crate::PAGE_SIZE;

    #[test]
    fn shared_space_clones_alias_the_same_memory() {
        let a = SharedSpace::new_no_aslr();
        let b = a.clone();
        let addr = a
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "x"))
            .unwrap();
        b.write_bytes(addr, b"shared").unwrap();
        let mut buf = [0u8; 6];
        a.read_bytes(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn typed_f32_round_trip() {
        let s = SharedSpace::new_no_aslr();
        let addr = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "f"))
            .unwrap();
        let data = [1.5f32, -2.25, 3.0, 0.0];
        s.write_f32(addr, &data).unwrap();
        let mut out = [0f32; 4];
        s.read_f32(addr, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn typed_u64_round_trip() {
        let s = SharedSpace::new_no_aslr();
        let addr = s
            .mmap(MapRequest::anon(PAGE_SIZE, Half::Upper, "u"))
            .unwrap();
        s.write_u64(addr + 16, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(s.read_u64(addr + 16).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn fault_handler_resolves_first_touch_transparently() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Installer {
            space: SharedSpace,
            faults: AtomicU64,
        }
        impl PageFaultHandler for Installer {
            fn fault(&self, addr: Addr) -> Result<(), MemError> {
                self.faults.fetch_add(1, Ordering::Relaxed);
                let page = Addr(crate::page_align_down(addr.as_u64()));
                self.space
                    .with_mut(|s| s.install_resident(page, &vec![0xAB; PAGE_SIZE as usize]))?;
                Ok(())
            }
        }

        let s = SharedSpace::new_no_aslr();
        let addr = s
            .mmap(MapRequest::anon(4 * PAGE_SIZE, Half::Upper, "lazy"))
            .unwrap();
        s.with_mut(|sp| sp.declare_absent(addr, 4 * PAGE_SIZE))
            .unwrap();
        let handler = Arc::new(Installer {
            space: s.clone(),
            faults: AtomicU64::new(0),
        });
        s.install_fault_handler(handler.clone());

        // A read spanning three absent pages faults each in, then succeeds.
        let mut buf = vec![0u8; PAGE_SIZE as usize + 8];
        s.read_bytes(addr + (PAGE_SIZE - 4), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAB));
        assert_eq!(handler.faults.load(Ordering::Relaxed), 3);
        // Second touch of the same pages is resident — no more faults.
        s.read_bytes(addr + PAGE_SIZE, &mut buf[..8]).unwrap();
        assert_eq!(handler.faults.load(Ordering::Relaxed), 3);

        // Clearing the handler re-exposes NotResident on untouched pages.
        s.clear_fault_handler();
        let err = s.read_bytes(addr + 3 * PAGE_SIZE, &mut buf[..1]);
        assert!(matches!(err, Err(MemError::NotResident(_))));
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_disjoint_buffers() {
        let s = SharedSpace::new_no_aslr();
        let addr = s
            .mmap(MapRequest::anon(64 * PAGE_SIZE, Half::Upper, "par"))
            .unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let s = s.clone();
                scope.spawn(move || {
                    let base = addr + (t as u64) * 8 * PAGE_SIZE;
                    s.fill(base, 8 * PAGE_SIZE, t + 1).unwrap();
                });
            }
        });
        for t in 0..8u8 {
            let mut buf = [0u8; 8];
            s.read_bytes(addr + (t as u64) * 8 * PAGE_SIZE, &mut buf)
                .unwrap();
            assert_eq!(buf, [t + 1; 8]);
        }
    }
}
