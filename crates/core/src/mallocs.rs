//! Active-malloc bookkeeping.
//!
//! Section 3.2.3: "Rather than saving a large allocation arena …, we only
//! save the memory associated with active mallocs.  Active mallocs are those
//! allocations that were allocated but not freed at the time of checkpoint."
//! This module is that book-keeper: it tracks every live allocation made
//! through the interposed `cudaMalloc` family, together with which family it
//! came from (which determines whether its *contents* must be drained).

use std::collections::BTreeMap;

use crac_addrspace::Addr;

/// Which allocation family a pointer came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocKind {
    /// `cudaMalloc` — device memory; contents drained/refilled by CRAC.
    Device,
    /// `cudaMallocHost` / `cudaHostAlloc` — pinned host memory; contents are
    /// upper-half memory saved by DMTCP, only the registration is replayed.
    PinnedHost,
    /// `cudaMallocManaged` — UVM memory; contents drained/refilled by CRAC.
    Managed,
}

impl AllocKind {
    /// Whether CRAC must drain and refill the contents of this allocation
    /// (as opposed to letting DMTCP save them with the upper half).
    pub fn needs_drain(self) -> bool {
        matches!(self, AllocKind::Device | AllocKind::Managed)
    }
}

/// The set of currently active (not freed) allocations.  Never stored in a
/// checkpoint: it is a fold of the call log, re-derived by replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActiveMallocs {
    map: BTreeMap<u64, (u64, AllocKind)>,
}

impl ActiveMallocs {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation.
    pub fn insert(&mut self, ptr: Addr, size: u64, kind: AllocKind) {
        self.map.insert(ptr.as_u64(), (size, kind));
    }

    /// Removes an allocation (on free).  Returns its size and kind.
    pub fn remove(&mut self, ptr: Addr) -> Option<(u64, AllocKind)> {
        self.map.remove(&ptr.as_u64())
    }

    /// Looks up an active allocation.
    pub fn get(&self, ptr: Addr) -> Option<(u64, AllocKind)> {
        self.map.get(&ptr.as_u64()).copied()
    }

    /// Number of active allocations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if there are no active allocations.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All active allocations in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64, AllocKind)> + '_ {
        self.map.iter().map(|(p, (s, k))| (Addr(*p), *s, *k))
    }

    /// Total bytes of active allocations that must be drained at checkpoint.
    pub fn drain_bytes(&self) -> u64 {
        self.map
            .values()
            .filter(|(_, k)| k.needs_drain())
            .map(|(s, _)| *s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_query() {
        let mut m = ActiveMallocs::new();
        m.insert(Addr(0x1000), 4096, AllocKind::Device);
        m.insert(Addr(0x2000), 8192, AllocKind::Managed);
        m.insert(Addr(0x3000), 100, AllocKind::PinnedHost);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(Addr(0x2000)), Some((8192, AllocKind::Managed)));
        assert_eq!(m.drain_bytes(), 4096 + 8192);
        let first = m.iter().next();
        assert_eq!(first, Some((Addr(0x1000), 4096, AllocKind::Device)));
        assert_eq!(m.remove(Addr(0x1000)), Some((4096, AllocKind::Device)));
        assert_eq!(m.remove(Addr(0x1000)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn drain_policy_matches_the_paper() {
        assert!(AllocKind::Device.needs_drain());
        assert!(AllocKind::Managed.needs_drain());
        assert!(!AllocKind::PinnedHost.needs_drain());
    }
}
