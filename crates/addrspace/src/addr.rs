//! Addresses, page arithmetic and protection bits.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of a simulated page, matching the x86-64 base page size used by the
/// paper's hosts.
pub const PAGE_SIZE: u64 = 4096;

/// A virtual address in the simulated process address space.
///
/// Addresses are plain 64-bit values; the newtype exists so that region
/// arithmetic cannot be accidentally mixed with lengths or other integers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the raw 64-bit value.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if the address is page-aligned.
    #[inline]
    pub fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Offset of this address within its page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Index of the page containing this address.
    #[inline]
    pub fn page_index(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Checked addition, returning `None` on overflow.
    #[inline]
    pub fn checked_add(self, len: u64) -> Option<Addr> {
        self.0.checked_add(len).map(Addr)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    #[inline]
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl AddAssign<u64> for Addr {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

/// Rounds `v` down to the nearest page boundary.
#[inline]
pub fn page_align_down(v: u64) -> u64 {
    v - (v % PAGE_SIZE)
}

/// Rounds `v` up to the nearest page boundary.
#[inline]
pub fn page_align_up(v: u64) -> u64 {
    match v % PAGE_SIZE {
        0 => v,
        r => v + (PAGE_SIZE - r),
    }
}

/// Memory-protection bits for a mapping (subset of `PROT_*`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prot {
    bits: u8,
}

impl Prot {
    /// No access.
    pub const NONE: Prot = Prot { bits: 0 };
    /// Readable.
    pub const READ: Prot = Prot { bits: 1 };
    /// Writable.
    pub const WRITE: Prot = Prot { bits: 2 };
    /// Executable.
    pub const EXEC: Prot = Prot { bits: 4 };
    /// Read + write, the most common data mapping.
    pub const RW: Prot = Prot { bits: 1 | 2 };
    /// Read + exec, the most common text mapping.
    pub const RX: Prot = Prot { bits: 1 | 4 };
    /// Read + write + exec.
    pub const RWX: Prot = Prot { bits: 1 | 2 | 4 };

    /// Returns `true` if all bits of `other` are present in `self`.
    #[inline]
    pub fn contains(self, other: Prot) -> bool {
        (self.bits & other.bits) == other.bits
    }

    /// Union of two protection sets.
    #[inline]
    pub fn union(self, other: Prot) -> Prot {
        Prot {
            bits: self.bits | other.bits,
        }
    }

    /// Returns `true` if the mapping is readable.
    #[inline]
    pub fn readable(self) -> bool {
        self.contains(Prot::READ)
    }

    /// Returns `true` if the mapping is writable.
    #[inline]
    pub fn writable(self) -> bool {
        self.contains(Prot::WRITE)
    }

    /// Returns `true` if the mapping is executable.
    #[inline]
    pub fn executable(self) -> bool {
        self.contains(Prot::EXEC)
    }

    /// The raw `PROT_*`-style bit pattern (bit 0 = read, 1 = write,
    /// 2 = exec), for serialisation into checkpoint images.
    #[inline]
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Reconstructs protection bits from [`Prot::bits`].  Unknown high bits
    /// are rejected so a corrupted image byte cannot round-trip silently.
    #[inline]
    pub fn from_bits(bits: u8) -> Option<Prot> {
        if bits & !0b111 != 0 {
            return None;
        }
        Some(Prot { bits })
    }
}

impl fmt::Debug for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' },
        )
    }
}

impl fmt::Display for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_alignment_round_trip() {
        assert_eq!(page_align_up(0), 0);
        assert_eq!(page_align_up(1), PAGE_SIZE);
        assert_eq!(page_align_up(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(page_align_up(PAGE_SIZE + 1), 2 * PAGE_SIZE);
        assert_eq!(page_align_down(PAGE_SIZE - 1), 0);
        assert_eq!(page_align_down(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(page_align_down(2 * PAGE_SIZE + 17), 2 * PAGE_SIZE);
    }

    #[test]
    fn addr_arithmetic() {
        let a = Addr(0x1000);
        assert!(a.is_page_aligned());
        assert_eq!((a + 8).page_offset(), 8);
        assert_eq!((a + 8) - a, 8);
        assert_eq!(a.page_index(), 1);
        assert_eq!(Addr(u64::MAX).checked_add(1), None);
    }

    #[test]
    fn prot_bits_behave_like_sets() {
        assert!(Prot::RW.readable());
        assert!(Prot::RW.writable());
        assert!(!Prot::RW.executable());
        assert!(Prot::RWX.contains(Prot::RW));
        assert!(!Prot::READ.contains(Prot::WRITE));
        assert_eq!(Prot::READ.union(Prot::EXEC), Prot::RX);
        assert_eq!(format!("{}", Prot::RX), "r-x");
        assert_eq!(format!("{}", Prot::NONE), "---");
    }

    #[test]
    fn prot_bits_round_trip() {
        for p in [
            Prot::NONE,
            Prot::READ,
            Prot::WRITE,
            Prot::RW,
            Prot::RX,
            Prot::RWX,
        ] {
            assert_eq!(Prot::from_bits(p.bits()), Some(p));
        }
        assert_eq!(Prot::from_bits(0b1000), None);
        assert_eq!(Prot::from_bits(0xff), None);
    }
}
