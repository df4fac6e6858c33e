//! A little-endian read cursor over a byte slice, shared by every codec
//! that parses bytes from an image (this crate's [`crate::image`],
//! `crac-imagestore`'s on-disk and wire formats, `crac-core`'s plugin
//! payload).

/// Bounds-checked little-endian reader.  Every accessor returns `None` on
/// truncation instead of panicking, so parsers can surface corruption as an
/// error.
pub struct ByteCursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.data.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    /// Reads a byte string prefixed with its length as a `u64`.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.u64()?).ok()?;
        self.take(len)
    }

    /// Current byte offset from the start of the slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Returns `true` once every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_and_detects_truncation() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.extend_from_slice(&0xAABB_CCDDu32.to_le_bytes());
        buf.extend_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
        let mut c = ByteCursor::new(&buf);
        assert_eq!(c.u8(), Some(7));
        assert_eq!(c.u32(), Some(0xAABB_CCDD));
        assert_eq!(c.pos(), 5);
        assert_eq!(c.u64(), Some(0x1122_3344_5566_7788));
        assert!(c.at_end());
        assert_eq!(c.u8(), None, "reads past the end return None");
    }

    #[test]
    fn length_prefixed_bytes_are_bounds_checked() {
        let mut buf = 3u64.to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut c = ByteCursor::new(&buf);
        assert_eq!(c.bytes(), Some(&b"abc"[..]));
        assert_eq!(c.bytes(), Some(&[][..]), "an empty string is fine");
        assert!(c.at_end());
        // Every truncation — inside the prefix or inside the body — and a
        // length that wraps `pos + len` are `None`, never a panic.
        for cut in 0..11 {
            assert_eq!(ByteCursor::new(&buf[..cut]).bytes(), None, "cut at {cut}");
        }
        assert_eq!(ByteCursor::new(&u64::MAX.to_le_bytes()).bytes(), None);
    }
}
