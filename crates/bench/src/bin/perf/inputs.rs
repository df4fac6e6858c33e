//! Seeded input generator: page content and dirty-set placement.
//!
//! `--seed` reaches the benchmark only through [`Gen`]; the program sees
//! the bytes it produces and nothing else.

pub const PAGE: usize = 4096;

/// xorshift64 stream plus a page-id counter.
pub struct Gen {
    state: u64,
    next_id: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        // splitmix64 step: any seed, 0 included, gives a non-zero state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self {
            state: (z ^ (z >> 31)) | 1,
            next_id: 1,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Content for `count` consecutive pages starting at page index
    /// `first`: of every four pages the first is random (incompressible)
    /// and three are constant fills, and each page opens with an 8-byte id
    /// no other generated page has, so nothing dedups by accident.
    pub fn pages(&mut self, first: u64, count: u64) -> Vec<u8> {
        let mut out = vec![0u8; count as usize * PAGE];
        for (i, page) in out.chunks_exact_mut(PAGE).enumerate() {
            if (first + i as u64).is_multiple_of(4) {
                for word in page.chunks_exact_mut(8) {
                    word.copy_from_slice(&self.next().to_le_bytes());
                }
            } else {
                page.fill(self.next() as u8);
            }
            page[..8].copy_from_slice(&self.next_id.to_le_bytes());
            self.next_id += 1;
        }
        out
    }
}

/// Folds `bytes` (a multiple of 8 long) into a running 64-bit checksum.
pub fn checksum(mut h: u64, bytes: &[u8]) -> u64 {
    for word in bytes.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}
