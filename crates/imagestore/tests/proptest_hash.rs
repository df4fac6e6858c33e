//! The integrity kernels from the outside: CRC-32 against zlib-derived
//! vectors (the oracle proptests live beside the kernel in `hash.rs`), and
//! the quality properties the store leans on the 128-bit content hash for
//! — pinned digests (chunk names are an on-disk format), sensitivity to
//! every single bit, no aliasing through the zero-padded tail, and no
//! collision over the kind of pages the benchmark actually stores.
//!
//! The collision sweep hashes 4 GiB; CI runs this file in release mode
//! ("Integrity kernels" step).  A debug build sweeps a 32× smaller family
//! so the plain `cargo test` tier stays quick.

use crac_imagestore::hash::{crc32, ContentHash};

const PAGE: usize = 4096;

/// Deterministic filler that is neither constant nor periodic in 16/32.
fn filler(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i * 131 + (i >> 8) * 17 + 7) as u8)
        .collect()
}

fn hex(data: &[u8]) -> String {
    ContentHash::of(data).to_hex()
}

#[test]
fn crc32_pinned_vectors_straddle_the_16_byte_step() {
    // The classic check value, then `filler(n)` digests computed with
    // zlib — lengths on both sides of one and two kernel steps, and a
    // chunk-file-sized input with a ragged tail.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    for (len, want) in [
        (0, 0x0000_0000),
        (15, 0xA476_2116),
        (16, 0xEA7E_5B68),
        (17, 0x293C_DDB3),
        (31, 0xB350_9C52),
        (32, 0xF0B3_A9A8),
        (33, 0xD929_8305),
        (65_565, 0x1F0C_5152u32),
    ] {
        assert_eq!(crc32(&filler(len)), want, "len {len}");
    }
}

/// Chunk names are part of the on-disk and wire formats (version 2): a
/// change to any of these digests orphans every stored chunk and needs
/// another `FORMAT_VERSION`/`WIRE_VERSION` bump.
#[test]
fn content_hash_pinned_vectors() {
    assert_eq!(hex(b""), "2e8446b4b180a9c33f78de2da3aabeb6");
    assert_eq!(hex(b"\x00"), "a12cfa97ade3b37668792fc2d5aa9726");
    assert_eq!(hex(&filler(31)), "6c5695e5a0de60687434db3e73c93570");
    assert_eq!(hex(&filler(32)), "304d49eb8200804b6a34cd6b070ba1d3");
    assert_eq!(hex(&filler(33)), "80b752ce9710d832b5fba5c211436a02");
    assert_eq!(hex(&filler(16 * PAGE)), "237e0def2be9d6c7cba9f560353b214b");
}

#[test]
fn every_single_bit_flip_of_a_page_changes_both_digests() {
    let mut page = filler(PAGE);
    let (crc, hash) = (crc32(&page), ContentHash::of(&page));
    for byte in 0..PAGE {
        for bit in 0..8 {
            page[byte] ^= 1 << bit;
            assert_ne!(crc32(&page), crc, "CRC blind to byte {byte} bit {bit}");
            let flipped = ContentHash::of(&page);
            // Each 64-bit half must move on its own: a half that ignored
            // some bit would quietly make the name a 64-bit hash.
            assert_ne!(
                flipped.0 as u64, hash.0 as u64,
                "low half, byte {byte} bit {bit}"
            );
            assert_ne!(
                (flipped.0 >> 64) as u64,
                (hash.0 >> 64) as u64,
                "high half, byte {byte} bit {bit}"
            );
            page[byte] ^= 1 << bit;
        }
    }
}

#[test]
fn zero_padding_never_aliases_two_lengths() {
    let zeros = [0u8; 66];
    for n in 0..=64 {
        assert_ne!(
            ContentHash::of(&zeros[..n]),
            ContentHash::of(&zeros[..n + 1]),
            "{n} vs {} zero bytes",
            n + 1
        );
    }
    // Trailing zeros inside the padded block are content, not padding.
    assert_ne!(ContentHash::of(b"ab"), ContentHash::of(b"ab\0"));
}

/// The benchmark's own page family (`perf`'s input generator): constant
/// fill behind a distinct 8-byte id, so two pages differ in one word of one
/// lane and nowhere else — the least input difference the store ever has
/// to tell apart, a million times over.  Neither the 128-bit names nor
/// either 64-bit half may collide.
#[test]
fn no_collision_over_the_benchmark_page_family() {
    let pages: u64 = if cfg!(debug_assertions) {
        1 << 15
    } else {
        1 << 20
    };
    let mut lo = Vec::with_capacity(pages as usize);
    let mut hi = Vec::with_capacity(pages as usize);
    let mut page = [0u8; PAGE];
    for id in 1..=pages {
        // Runs of 256 consecutive ids share one fill value.
        page.fill((id >> 8) as u8);
        page[..8].copy_from_slice(&id.to_le_bytes());
        let h = ContentHash::of(&page).0;
        lo.push(h as u64);
        hi.push((h >> 64) as u64);
    }
    for (half, mut values) in [("low", lo), ("high", hi)] {
        values.sort_unstable();
        let distinct = values.windows(2).filter(|w| w[0] != w[1]).count() + 1;
        assert_eq!(distinct as u64, pages, "{half} halves collide");
    }
}
