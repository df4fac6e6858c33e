//! Integrity primitives: CRC-32 (IEEE) framing checks and the 128-bit
//! content hash that names chunks.
//!
//! Both are implemented locally, in safe Rust, because the build
//! environment has no registry access — and both sit under every byte a
//! checkpoint, restart, lazy fault or wire transfer moves, so both consume
//! their input a machine word (or more) at a time:
//!
//! * **CRC-32** is the IEEE 802.3 polynomial computed *slice-by-16*: sixteen
//!   256-entry tables let one step retire sixteen input bytes with sixteen
//!   independent lookups instead of sixteen dependent ones.  The polynomial,
//!   reflection and pre/post-conditioning are the classic ones, so every
//!   stored and wire checksum is bit-identical to what the byte-at-a-time
//!   table loop produced.  CRC-32 guards against *accidental* corruption
//!   (the roundtrip tests flip single bytes).
//! * **[`ContentHash`]** eats 32-byte blocks through four independent
//!   64-bit lanes.  A lane step — add the multiplied input word, rotate,
//!   multiply by an odd constant — is a bijection on the lane for a fixed
//!   word *and* on the word for a fixed lane, so two inputs that differ in
//!   one word cannot re-converge inside a lane; nothing is folded away
//!   until the very end.  A trailing partial block is zero-padded and the
//!   byte length is folded into both halves (so padding never aliases two
//!   lengths); the two 64-bit halves combine the lanes in different orders
//!   with different constants and are each avalanche-finalised.
//!
//! The content hash only needs to make collisions between distinct page
//! contents astronomically unlikely.  It is *not* a cryptographic
//! primitive: there is no adversary in a checkpoint store the process
//! writes for itself, and [`crate::net::auth`] says what that means for
//! the TCP handshake built on it.
//!
//! Chunk names are content hashes, so a change to [`ContentHash::of`] is a
//! format change: [`crate::format::FORMAT_VERSION`] and
//! [`crate::net::WIRE_VERSION`] move with it.

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) slice-by-16
/// tables: `CRC_TABLES[0]` is the classic byte table, `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Little-endian `u32` at the front of `bytes` (caller guarantees ≥ 4).
#[inline(always)]
fn le32(bytes: &[u8]) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(w)
}

/// Little-endian `u64` at the front of `bytes` (caller guarantees ≥ 8).
#[inline(always)]
fn le64(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(w)
}

/// Streaming CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // Only the first word carries the running state; the other
            // twelve lookups depend on input alone and issue in parallel.
            let w0 = le32(b) ^ crc;
            let w1 = le32(&b[4..]);
            let w2 = le32(&b[8..]);
            let w3 = le32(&b[12..]);
            crc = t[15][(w0 & 0xFF) as usize]
                ^ t[14][((w0 >> 8) & 0xFF) as usize]
                ^ t[13][((w0 >> 16) & 0xFF) as usize]
                ^ t[12][(w0 >> 24) as usize]
                ^ t[11][(w1 & 0xFF) as usize]
                ^ t[10][((w1 >> 8) & 0xFF) as usize]
                ^ t[9][((w1 >> 16) & 0xFF) as usize]
                ^ t[8][(w1 >> 24) as usize]
                ^ t[7][(w2 & 0xFF) as usize]
                ^ t[6][((w2 >> 8) & 0xFF) as usize]
                ^ t[5][((w2 >> 16) & 0xFF) as usize]
                ^ t[4][(w2 >> 24) as usize]
                ^ t[3][(w3 & 0xFF) as usize]
                ^ t[2][((w3 >> 8) & 0xFF) as usize]
                ^ t[1][((w3 >> 16) & 0xFF) as usize]
                ^ t[0][(w3 >> 24) as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalises and returns the checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// 128-bit content hash naming a chunk in the store.
///
/// Equal hash ⇒ treated as equal content (that is what deduplication
/// *means*); the 128-bit width makes accidental collisions negligible.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

// Odd 64-bit multipliers (the xxHash64 primes: odd, so multiplication is
// a bijection on `u64`, and with bit patterns known to diffuse well).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes one step of [`ContentHash::of`] consumes: one word per lane.
const BLOCK: usize = 32;

/// One lane step: bijective in `lane` for a fixed `word` and in `word` for
/// a fixed `lane` (odd multiply, wrapping add and rotate all are).
#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Feeds one 32-byte block through the four lanes.
#[inline(always)]
fn block_step(lanes: &mut [u64; 4], block: &[u8]) {
    lanes[0] = lane_step(lanes[0], le64(block));
    lanes[1] = lane_step(lanes[1], le64(&block[8..]));
    lanes[2] = lane_step(lanes[2], le64(&block[16..]));
    lanes[3] = lane_step(lanes[3], le64(&block[24..]));
}

/// Folds one finished lane into a 64-bit accumulator with multiplier `m`
/// (non-commutative, so the order lanes are folded in matters).
#[inline(always)]
fn fold_lane(acc: u64, lane: u64, m: u64) -> u64 {
    (acc ^ lane_step(0, lane)).wrapping_mul(m).wrapping_add(P4)
}

/// Final avalanche: every input bit reaches every output bit.
#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

impl ContentHash {
    /// Hashes `bytes` (see the module docs for the construction).
    pub fn of(bytes: &[u8]) -> Self {
        let mut lanes = [P1.wrapping_add(P2), P2, P3, P5];
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            block_step(&mut lanes, block);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; BLOCK];
            padded[..tail.len()].copy_from_slice(tail);
            block_step(&mut lanes, &padded);
        }
        let [a, b, c, d] = lanes;
        let len = bytes.len() as u64;

        // Two halves over the same four lanes, combined in opposite orders
        // with different rotations and multipliers, so a pair of inputs
        // has to satisfy two unrelated 64-bit equations to collide.  The
        // length enters both right before the avalanche: equal lanes with
        // different lengths (zero padding) can never agree.
        let mut lo = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in [a, b, c, d] {
            lo = fold_lane(lo, lane, P1);
        }
        let mut hi = d
            .rotate_left(5)
            .wrapping_add(c.rotate_left(23))
            .wrapping_add(b.rotate_left(37))
            .wrapping_add(a.rotate_left(51));
        for lane in [d, c, b, a] {
            hi = fold_lane(hi, lane ^ P3, P5);
        }
        let lo = avalanche(lo.wrapping_add(len));
        let hi = avalanche(hi ^ len.wrapping_mul(P1));
        ContentHash(((hi as u128) << 64) | lo as u128)
    }

    /// Lower-case hex rendering (32 chars) — also the chunk's file stem.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses [`ContentHash::to_hex`] output.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: the byte-at-a-time table loop the slice-by-16 kernel
    /// replaced.  Every stored and wire CRC must stay bit-identical to it.
    fn crc32_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// Oracle: FNV-1a-128, the content hash of format version 1.  Kept to
    /// pin that chunk names really changed (the reason for the version
    /// bump) — a v1 store's chunk files are not addressable by this build.
    fn fnv1a_128(bytes: &[u8]) -> u128 {
        let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013B);
        }
        h
    }

    /// Deterministic filler that is neither constant nor periodic in 16/32.
    fn filler(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i * 131 + (i >> 8) * 17 + 7) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming equals one-shot.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_around_every_block_boundary() {
        for len in (0..=80).chain([4095, 4096, 4097, 65_565]) {
            let data = filler(len);
            assert_eq!(
                crc32(&data),
                crc32_bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF,
                "len {len}"
            );
        }
    }

    #[test]
    fn crc32_streaming_agrees_at_every_split_point() {
        let data = filler(100);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_equals_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..70_001),
            split in any::<usize>(),
        ) {
            let oracle = crc32_bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            prop_assert_eq!(crc32(&data), oracle);
            let at = split % (data.len() + 1);
            let mut c = Crc32::new();
            c.update(&data[..at]);
            c.update(&data[at..]);
            prop_assert_eq!(c.finish(), oracle);
        }
    }

    #[test]
    fn content_hash_hex_round_trip() {
        let h = ContentHash::of(b"some page bytes");
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_ne!(h, ContentHash::of(b"other page bytes"));
        assert!(ContentHash::from_hex("xyz").is_none());
    }

    #[test]
    fn chunk_names_changed_with_the_format_version() {
        for data in [&b""[..], b"x", &filler(4096)] {
            assert_ne!(ContentHash::of(data).0, fnv1a_128(data));
        }
    }

    #[test]
    fn lane_step_is_a_bijection_in_both_arguments() {
        // Invert the step by hand: multiply by P1⁻¹, rotate back, subtract.
        let inv = |m: u64| {
            // Newton iteration for the inverse of an odd m modulo 2^64.
            let mut x = m;
            for _ in 0..6 {
                x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
            }
            x
        };
        let (p1_inv, p2_inv) = (inv(P1), inv(P2));
        assert_eq!(P1.wrapping_mul(p1_inv), 1);
        for (lane, word) in [(0, 0), (1, u64::MAX), (P3, P4), (u64::MAX, 12345)] {
            let out = lane_step(lane, word);
            let pre = out.wrapping_mul(p1_inv).rotate_right(31);
            assert_eq!(pre.wrapping_sub(word.wrapping_mul(P2)), lane);
            assert_eq!(pre.wrapping_sub(lane).wrapping_mul(p2_inv), word);
        }
    }
}
