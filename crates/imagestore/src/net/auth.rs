//! The shared-secret auth handshake gating every TCP connection.
//!
//! Three frames, before any store request is served:
//!
//! ```text
//! server → client   ServerHello { server_nonce }
//! client → server   AuthProof   { client_nonce,
//!                                 mac = H(secret, server_nonce ‖ client_nonce ‖ "client") }
//! server → client   AuthOk      { mac = H(secret, server_nonce ‖ client_nonce ‖ "server") }
//! ```
//!
//! The proof is an HMAC-style construction (inner/outer keyed hashes with
//! the classic `0x36`/`0x5c` pads) over the crate's existing 128-bit
//! content hash — no new dependencies.  Both directions prove knowledge
//! of the secret without ever sending it, fresh nonces keep transcripts
//! from replaying, and the direction tag keeps a reflected proof from
//! verifying.  The same honesty note as [`crate::hash`] applies: the
//! content hash is a fast non-cryptographic mix (four multiply-rotate
//! lanes, built for memory-speed integrity checks, not for resisting
//! someone who can choose inputs), so this keeps *honest* stores from
//! being crossed (a mis-pasted address, a stale config) and raises the
//! bar for drive-by connections; a hostile network needs a real MAC and
//! transport encryption layered underneath (the handshake shape would
//! not change).  Because the MAC is a function of the content hash, it
//! changed when the hash did: that is half of why
//! [`crate::net::WIRE_VERSION`] is 2, and a version-1 peer is turned away
//! by the version byte of the first handshake frame before any proof is
//! compared.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::ContentHash;
use crate::net::frame::NONCE_LEN;

/// HMAC block size the secret is padded/collapsed to.
const BLOCK: usize = 64;

/// HMAC-style keyed hash: `H((k ⊕ opad) ‖ H((k ⊕ ipad) ‖ msg))` over
/// [`ContentHash`].
pub(crate) fn mac(secret: &[u8], parts: &[&[u8]]) -> u128 {
    // Collapse an oversized secret to a hash, pad the rest with zeros.
    let mut key = [0u8; BLOCK];
    if secret.len() > BLOCK {
        key[..16].copy_from_slice(&ContentHash::of(secret).0.to_le_bytes());
    } else {
        key[..secret.len()].copy_from_slice(secret);
    }
    let mut inner = Vec::with_capacity(BLOCK + parts.iter().map(|p| p.len()).sum::<usize>());
    inner.extend(key.iter().map(|b| b ^ 0x36));
    for part in parts {
        inner.extend_from_slice(part);
    }
    let inner_digest = ContentHash::of(&inner).0;
    let mut outer = Vec::with_capacity(BLOCK + 16);
    outer.extend(key.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_digest.to_le_bytes());
    ContentHash::of(&outer).0
}

/// The client's proof over both nonces.
pub(crate) fn client_proof(secret: &[u8], server_nonce: &[u8], client_nonce: &[u8]) -> u128 {
    mac(secret, &[server_nonce, client_nonce, b"client"])
}

/// The server's counter-proof (direction-tagged, so a reflected client
/// proof never verifies as the server's).
pub(crate) fn server_proof(secret: &[u8], server_nonce: &[u8], client_nonce: &[u8]) -> u128 {
    mac(secret, &[server_nonce, client_nonce, b"server"])
}

/// A fresh challenge nonce: `/dev/urandom` where available, otherwise a
/// hash over the clock, the PID and a process-wide counter — unique per
/// handshake is what matters, unpredictability is best-effort to the same
/// degree as the rest of the crate's hashing.
pub(crate) fn fresh_nonce() -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        use std::io::Read;
        if f.read_exact(&mut nonce).is_ok() {
            return nonce;
        }
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut seed = Vec::with_capacity(32);
    seed.extend_from_slice(&now.to_le_bytes());
    seed.extend_from_slice(&count.to_le_bytes());
    seed.extend_from_slice(&std::process::id().to_le_bytes());
    nonce.copy_from_slice(&ContentHash::of(&seed).0.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proofs_depend_on_secret_nonces_and_direction() {
        let (sn, cn) = ([1u8; NONCE_LEN], [2u8; NONCE_LEN]);
        let p = client_proof(b"secret", &sn, &cn);
        assert_eq!(p, client_proof(b"secret", &sn, &cn), "deterministic");
        assert_ne!(p, client_proof(b"other", &sn, &cn), "keyed");
        assert_ne!(p, client_proof(b"secret", &cn, &sn), "nonce-ordered");
        assert_ne!(p, server_proof(b"secret", &sn, &cn), "direction-tagged");
    }

    #[test]
    fn oversized_secrets_are_collapsed_not_truncated() {
        let long_a = vec![0xAA; 200];
        let mut long_b = long_a.clone();
        long_b[199] = 0xAB; // differs beyond the HMAC block size
        let (sn, cn) = ([3u8; NONCE_LEN], [4u8; NONCE_LEN]);
        assert_ne!(
            client_proof(&long_a, &sn, &cn),
            client_proof(&long_b, &sn, &cn)
        );
    }

    #[test]
    fn nonces_are_unique() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }
}
