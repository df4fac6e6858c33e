//! A tiny length-prefixed binary encoding for CRAC's plugin payload.
//!
//! The payload travels inside the DMTCP checkpoint image, so it must be a
//! self-contained byte string.  The format is deliberately simple: little-
//! endian fixed-width integers and length-prefixed byte strings.  Only the
//! writing half lives here; the payload is read back with the workspace's one
//! bounds-checked cursor, [`crac_dmtcp::ByteCursor`].

/// Append-only encoder.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Consumes the encoder, returning the byte buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crac_dmtcp::ByteCursor;

    #[test]
    fn round_trip_mixed_values() {
        let mut e = Encoder::new();
        e.u64(42)
            .u8(7)
            .bytes(b"checkpoint")
            .bytes(&[1, 2, 3])
            .u64(u64::MAX);
        let data = e.finish();
        let mut d = ByteCursor::new(&data);
        assert_eq!(d.u64(), Some(42));
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.bytes(), Some(&b"checkpoint"[..]));
        assert_eq!(d.bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert!(d.at_end());
        assert_eq!(d.u64(), None);
    }

    #[test]
    fn empty_strings_and_buffers_are_fine() {
        let mut e = Encoder::new();
        e.bytes(b"").bytes(&[]);
        let data = e.finish();
        let mut d = ByteCursor::new(&data);
        assert_eq!(d.bytes(), Some(&[][..]));
        assert_eq!(d.bytes(), Some(&[][..]));
        assert!(d.at_end());
    }
}
