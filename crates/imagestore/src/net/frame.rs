//! The wire format: length-prefixed, versioned, CRC-trailed frames.
//!
//! Every message between a [`crate::net::client::TcpTransport`] and a
//! [`crate::net::server`] is one frame:
//!
//! ```text
//! frame := len u32            length of body + crc (bounded by MAX_FRAME_LEN)
//!        | body               version u8 | kind u8 | payload
//!        | crc32 u32          over the body bytes
//! ```
//!
//! All integers are little-endian, matching the on-disk formats
//! ([`crate::format`]).  The length prefix lets a reader take exactly one
//! message off the stream without peeking; the explicit
//! [`MAX_FRAME_LEN`] cap means a malicious or corrupt peer cannot make
//! the receiver allocate an arbitrary buffer (the length is validated
//! *before* any allocation, and per-element counts inside a payload are
//! validated against the bytes actually present before any `Vec` is
//! sized).  The CRC trailer rejects line noise before parsing begins, so
//! the parser only ever sees either an intact body or a short read — a
//! malformed frame yields an error, never a panic or a hang.
//!
//! The payload encodes the six [`crate::transport::Transport`] methods
//! (requests and responses), the three-step auth handshake
//! ([`crate::net::auth`]), and a classified error ([`WireError`]) whose
//! `is_transient()` / `is_corruption()` character survives the
//! serialisation round trip — the client's retry/fail-fast split works
//! identically against a remote peer and a local store.

use std::io::{Read, Write};

use crac_dmtcp::ByteCursor;

use crate::error::StoreError;
use crate::hash::{crc32, ContentHash};
use crate::store::ImageId;

/// Version byte carried by every frame; a peer speaking another version
/// is refused before anything else is parsed.
///
/// Version 2 kept every frame layout and moved with
/// [`crate::format::FORMAT_VERSION`]: chunk hashes on the wire and the
/// handshake MAC ([`crate::net::auth`]) are computed with the
/// word-at-a-time [`ContentHash`], so a version-1 peer could neither name
/// a chunk nor prove the secret — it is told so by version, on the first
/// frame of the handshake, rather than failing auth or ingest later.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on one frame's `body + crc` length.  Chunk payloads are at
/// most [`crate::chunk::CHUNK_PAGES`] pages plus a fixed header, but
/// manifests of very large images are the real sizing constraint: their
/// chunk tables cost ~40 bytes per ≤64 KiB chunk, so 256 MiB covers
/// images into the hundreds-of-terabytes range while still keeping the
/// worst-case allocation a hostile peer can force bounded.  The sender
/// enforces the same cap ([`write_frame`] refuses oversized frames with
/// `ErrorKind::InvalidInput` — a permanent error, not a retry), so a
/// too-large manifest fails loudly on the way out instead of poisoning
/// the connection.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Bytes in a handshake nonce.
pub const NONCE_LEN: usize = 16;

/// Smallest legal `len` value: version + kind + crc.
const MIN_FRAME_LEN: usize = 2 + 4;

/// The `len` of an [`Frame::AuthProof`]: version + kind + nonce + MAC +
/// crc.  The server reads the handshake with this cap, so a peer that has
/// not authenticated cannot make it allocate (or wait to fill) more.
pub(crate) const AUTH_PROOF_FRAME_LEN: usize = 2 + NONCE_LEN + 16 + 4;

// Frame kind tags.  Handshake, requests and responses live in disjoint
// ranges so a message arriving in the wrong phase is obvious.
const K_SERVER_HELLO: u8 = 0x01;
const K_AUTH_PROOF: u8 = 0x02;
const K_AUTH_OK: u8 = 0x03;
const K_HAS_CHUNKS: u8 = 0x10;
const K_PUT_CHUNK: u8 = 0x11;
const K_GET_CHUNK: u8 = 0x12;
const K_LIST_MANIFESTS: u8 = 0x13;
const K_GET_MANIFEST: u8 = 0x14;
const K_PUT_MANIFEST: u8 = 0x15;
const K_STATS: u8 = 0x16;
const K_FLAGS: u8 = 0x20;
const K_DONE: u8 = 0x21;
const K_BYTES: u8 = 0x22;
const K_IDS: u8 = 0x23;
const K_ID: u8 = 0x24;
const K_ERR: u8 = 0x2F;

/// One message on the wire — handshake, request or response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Server → client, immediately after accept: the server's challenge
    /// nonce.  No request is served before the handshake completes.
    ServerHello {
        /// Challenge the client must MAC together with its own nonce.
        nonce: [u8; NONCE_LEN],
    },
    /// Client → server: the client's nonce plus its proof of the shared
    /// secret ([`crate::net::auth::client_proof`]).
    AuthProof {
        /// The client's nonce (feeds the server's counter-proof).
        nonce: [u8; NONCE_LEN],
        /// HMAC-style proof over both nonces.
        mac: u128,
    },
    /// Server → client: the server's counter-proof — the handshake is
    /// mutual, a client never streams a checkpoint to an impostor.
    AuthOk {
        /// HMAC-style proof over both nonces, server-keyed.
        mac: u128,
    },

    /// `Transport::has_chunks` request.
    HasChunks(Vec<ContentHash>),
    /// `Transport::put_chunk` request (verbatim chunk-file bytes).
    PutChunk {
        /// Content hash the receiver verifies the bytes against.
        hash: ContentHash,
        /// The chunk-file bytes.
        bytes: Vec<u8>,
    },
    /// `Transport::get_chunk` request.
    GetChunk(ContentHash),
    /// `Transport::list_manifests` request.
    ListManifests,
    /// `Transport::get_manifest` request.
    GetManifest(ImageId),
    /// `Transport::put_manifest` request.
    PutManifest {
        /// Peer-side parent lineage (`None` starts a fresh chain).
        parent: Option<ImageId>,
        /// Verbatim manifest file bytes.
        bytes: Vec<u8>,
    },
    /// Observability scrape request: the server answers with
    /// [`Frame::Bytes`] carrying its registry's Prometheus-style text
    /// exposition (`ObsRegistry::render_text`).  No payload.
    Stats,

    /// Response to [`Frame::HasChunks`]: one flag per queried hash.
    Flags(Vec<bool>),
    /// Success response carrying no payload ([`Frame::PutChunk`]).
    Done,
    /// Response carrying raw file bytes ([`Frame::GetChunk`] /
    /// [`Frame::GetManifest`]).
    Bytes(Vec<u8>),
    /// Response to [`Frame::ListManifests`].
    Ids(Vec<ImageId>),
    /// Response to [`Frame::PutManifest`]: the peer-assigned id.
    Id(ImageId),
    /// Classified failure response — any request can answer with this.
    Err(WireError),
}

/// Error classes that survive serialisation with their retry character
/// intact (see [`WireError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrClass {
    /// Safe to retry ([`StoreError::is_transient`] is true after decode).
    Transient = 0,
    /// Integrity failure ([`StoreError::is_corruption`] true): fail fast.
    Corrupt = 1,
    /// The peer does not hold the requested chunk (permanent; a
    /// `get_chunk` racing chunk GC lands here, exactly as it does against
    /// [`crate::transport::LoopbackTransport`]).
    MissingChunk = 2,
    /// The peer does not hold the requested image (permanent).
    UnknownImage = 3,
    /// The peer's store refused the operation (read-only, locked, mid
    /// deletion) — permanent for this request, not corruption.
    Busy = 4,
    /// One side broke the protocol (bad handshake, unauthenticated
    /// request, nonsense message) — permanent.
    Protocol = 5,
    /// Any other permanent server-side failure (an I/O error on the
    /// peer's disk, say) — not retryable, not corruption.
    Other = 6,
}

impl ErrClass {
    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ErrClass::Transient,
            1 => ErrClass::Corrupt,
            2 => ErrClass::MissingChunk,
            3 => ErrClass::UnknownImage,
            4 => ErrClass::Busy,
            5 => ErrClass::Protocol,
            6 => ErrClass::Other,
            _ => return None,
        })
    }
}

/// A [`StoreError`] flattened for the wire: its class (which carries the
/// transient/corruption character) plus a human-readable detail and, for
/// [`ErrClass::UnknownImage`], the image id.
///
/// The round trip guarantee — pinned by tests — is that
/// `WireError::of(&e).into_store_error(peer)` classifies identically to
/// `e` under [`StoreError::is_transient`] and
/// [`StoreError::is_corruption`], so the bounded-retry/fail-fast split in
/// the restore workers behaves the same whether the error was raised
/// locally or a socket away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The classification.
    pub class: ErrClass,
    /// Numeric payload: the image id for [`ErrClass::UnknownImage`], 0
    /// otherwise.
    pub code: u64,
    /// Human-readable detail (the hex hash for
    /// [`ErrClass::MissingChunk`]).
    pub detail: String,
}

impl WireError {
    /// Classifies a server-side [`StoreError`] for the wire.
    pub fn of(e: &StoreError) -> Self {
        match e {
            StoreError::MissingChunk { hash } => WireError {
                class: ErrClass::MissingChunk,
                code: 0,
                detail: hash.clone(),
            },
            StoreError::UnknownImage(id) => WireError {
                class: ErrClass::UnknownImage,
                code: id.0,
                detail: String::new(),
            },
            StoreError::Protocol { what } => WireError {
                class: ErrClass::Protocol,
                code: 0,
                detail: what.clone(),
            },
            StoreError::Busy { .. } | StoreError::Locked { .. } => WireError {
                class: ErrClass::Busy,
                code: 0,
                detail: e.to_string(),
            },
            e if e.is_transient() => WireError {
                class: ErrClass::Transient,
                code: 0,
                detail: e.to_string(),
            },
            e if e.is_corruption() => WireError {
                class: ErrClass::Corrupt,
                code: 0,
                detail: e.to_string(),
            },
            other => WireError {
                class: ErrClass::Other,
                code: 0,
                detail: other.to_string(),
            },
        }
    }

    /// Reconstructs a [`StoreError`] of the same class on the receiving
    /// side.  `peer` labels the remote end in error messages.
    pub fn into_store_error(self, peer: &str) -> StoreError {
        match self.class {
            ErrClass::Transient => StoreError::transient(format!("peer {peer}: {}", self.detail)),
            ErrClass::Corrupt => StoreError::corrupt(
                std::path::PathBuf::from(format!("remote:{peer}")),
                self.detail,
            ),
            ErrClass::MissingChunk => StoreError::MissingChunk { hash: self.detail },
            ErrClass::UnknownImage => StoreError::UnknownImage(ImageId(self.code)),
            ErrClass::Busy => StoreError::busy(format!("peer {peer}: {}", self.detail)),
            ErrClass::Protocol => StoreError::protocol(format!("peer {peer}: {}", self.detail)),
            ErrClass::Other => {
                StoreError::io(format!("remote:{peer}"), std::io::Error::other(self.detail))
            }
        }
    }
}

/// What can go wrong taking a frame off a stream: a connection-level I/O
/// failure (retryable — the caller redials) or a malformed frame (the
/// stream's framing can no longer be trusted; the connection must be
/// dropped).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read/write failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The bytes violate the frame format: bad length, CRC mismatch,
    /// unknown version/kind, inconsistent payload.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failure: {e}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::ServerHello { .. } => K_SERVER_HELLO,
            Frame::AuthProof { .. } => K_AUTH_PROOF,
            Frame::AuthOk { .. } => K_AUTH_OK,
            Frame::HasChunks(_) => K_HAS_CHUNKS,
            Frame::PutChunk { .. } => K_PUT_CHUNK,
            Frame::GetChunk(_) => K_GET_CHUNK,
            Frame::ListManifests => K_LIST_MANIFESTS,
            Frame::GetManifest(_) => K_GET_MANIFEST,
            Frame::PutManifest { .. } => K_PUT_MANIFEST,
            Frame::Stats => K_STATS,
            Frame::Flags(_) => K_FLAGS,
            Frame::Done => K_DONE,
            Frame::Bytes(_) => K_BYTES,
            Frame::Ids(_) => K_IDS,
            Frame::Id(_) => K_ID,
            Frame::Err(_) => K_ERR,
        }
    }

    /// Serialises the whole wire frame: length prefix, body, CRC trailer.
    ///
    /// The body is assembled in place behind a length-prefix placeholder
    /// (patched at the end), so payload bytes are copied exactly once —
    /// chunk shipping is the replication hot path.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[0u8; 4]); // length prefix, patched below
        out.push(WIRE_VERSION);
        out.push(self.kind());
        match self {
            Frame::ServerHello { nonce } => out.extend_from_slice(nonce),
            Frame::AuthProof { nonce, mac } => {
                out.extend_from_slice(nonce);
                out.extend_from_slice(&mac.to_le_bytes());
            }
            Frame::AuthOk { mac } => out.extend_from_slice(&mac.to_le_bytes()),
            Frame::HasChunks(hashes) => {
                out.extend_from_slice(&(hashes.len() as u32).to_le_bytes());
                for h in hashes {
                    out.extend_from_slice(&h.0.to_le_bytes());
                }
            }
            Frame::PutChunk { hash, bytes } => {
                out.extend_from_slice(&hash.0.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            Frame::GetChunk(hash) => out.extend_from_slice(&hash.0.to_le_bytes()),
            Frame::ListManifests | Frame::Stats | Frame::Done => {}
            Frame::GetManifest(id) => out.extend_from_slice(&id.0.to_le_bytes()),
            Frame::PutManifest { parent, bytes } => {
                out.extend_from_slice(&parent.map_or(0, |p| p.0).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            Frame::Flags(flags) => {
                out.extend_from_slice(&(flags.len() as u32).to_le_bytes());
                out.extend(flags.iter().map(|&f| f as u8));
            }
            Frame::Bytes(bytes) => out.extend_from_slice(bytes),
            Frame::Ids(ids) => {
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.0.to_le_bytes());
                }
            }
            Frame::Id(id) => out.extend_from_slice(&id.0.to_le_bytes()),
            Frame::Err(we) => {
                out.push(we.class as u8);
                out.extend_from_slice(&we.code.to_le_bytes());
                out.extend_from_slice(&(we.detail.len() as u32).to_le_bytes());
                out.extend_from_slice(we.detail.as_bytes());
            }
        }
        seal_wire(out)
    }

    /// Builds the wire bytes of a [`Frame::PutChunk`] request straight
    /// from a borrowed payload — the client's hot path, sparing the
    /// `Vec` clone constructing the owned frame variant would cost per
    /// shipped chunk.  Byte-identical to `Frame::PutChunk.to_wire()`
    /// (pinned by a test).
    pub fn put_chunk_wire(hash: ContentHash, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 2 + 16 + bytes.len() + 4);
        out.extend_from_slice(&[0u8; 4]);
        out.push(WIRE_VERSION);
        out.push(K_PUT_CHUNK);
        out.extend_from_slice(&hash.0.to_le_bytes());
        out.extend_from_slice(bytes);
        seal_wire(out)
    }

    /// Likewise for [`Frame::PutManifest`].
    pub fn put_manifest_wire(parent: Option<ImageId>, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 2 + 8 + bytes.len() + 4);
        out.extend_from_slice(&[0u8; 4]);
        out.push(WIRE_VERSION);
        out.push(K_PUT_MANIFEST);
        out.extend_from_slice(&parent.map_or(0, |p| p.0).to_le_bytes());
        out.extend_from_slice(bytes);
        seal_wire(out)
    }

    /// Parses one frame body (between the length prefix and the CRC
    /// trailer, both already validated by [`read_frame`]).
    fn decode_body(body: &[u8]) -> Result<Frame, String> {
        let mut c = ByteCursor::new(body);
        let version = c.u8().ok_or("missing version")?;
        if version != WIRE_VERSION {
            return Err(format!(
                "unsupported wire version {version} (this build speaks version {WIRE_VERSION})"
            ));
        }
        let kind = c.u8().ok_or("missing kind")?;
        let remaining = body.len() - 2;
        let frame = match kind {
            K_SERVER_HELLO => Frame::ServerHello {
                nonce: take_nonce(&mut c)?,
            },
            K_AUTH_PROOF => Frame::AuthProof {
                nonce: take_nonce(&mut c)?,
                mac: c.u128().ok_or("truncated auth proof")?,
            },
            K_AUTH_OK => Frame::AuthOk {
                mac: c.u128().ok_or("truncated auth ok")?,
            },
            K_HAS_CHUNKS => {
                let n = c.u32().ok_or("missing hash count")? as usize;
                // Validate the declared count against the bytes actually
                // present *before* sizing the Vec: a lying count must not
                // drive the allocation.
                if remaining != 4 + n * 16 {
                    return Err(format!("has_chunks declares {n} hashes, body disagrees"));
                }
                let mut hashes = Vec::with_capacity(n);
                for _ in 0..n {
                    hashes.push(ContentHash(c.u128().ok_or("truncated hash list")?));
                }
                Frame::HasChunks(hashes)
            }
            K_PUT_CHUNK => Frame::PutChunk {
                hash: ContentHash(c.u128().ok_or("truncated put_chunk")?),
                bytes: rest(&mut c, body),
            },
            K_GET_CHUNK => Frame::GetChunk(ContentHash(c.u128().ok_or("truncated get_chunk")?)),
            K_LIST_MANIFESTS => Frame::ListManifests,
            K_GET_MANIFEST => Frame::GetManifest(ImageId(c.u64().ok_or("truncated get_manifest")?)),
            K_PUT_MANIFEST => {
                let parent = match c.u64().ok_or("truncated put_manifest")? {
                    0 => None,
                    p => Some(ImageId(p)),
                };
                Frame::PutManifest {
                    parent,
                    bytes: rest(&mut c, body),
                }
            }
            K_STATS => Frame::Stats,
            K_FLAGS => {
                let n = c.u32().ok_or("missing flag count")? as usize;
                if remaining != 4 + n {
                    return Err(format!("flags declares {n} entries, body disagrees"));
                }
                let mut flags = Vec::with_capacity(n);
                for _ in 0..n {
                    match c.u8().ok_or("truncated flags")? {
                        0 => flags.push(false),
                        1 => flags.push(true),
                        b => return Err(format!("flag byte {b} is neither 0 nor 1")),
                    }
                }
                Frame::Flags(flags)
            }
            K_DONE => Frame::Done,
            K_BYTES => Frame::Bytes(rest(&mut c, body)),
            K_IDS => {
                let n = c.u32().ok_or("missing id count")? as usize;
                if remaining != 4 + n * 8 {
                    return Err(format!("ids declares {n} entries, body disagrees"));
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(ImageId(c.u64().ok_or("truncated id list")?));
                }
                Frame::Ids(ids)
            }
            K_ID => Frame::Id(ImageId(c.u64().ok_or("truncated id")?)),
            K_ERR => {
                let class = ErrClass::from_tag(c.u8().ok_or("missing error class")?)
                    .ok_or_else(|| "unknown error class".to_string())?;
                let code = c.u64().ok_or("truncated error code")?;
                let detail_len = c.u32().ok_or("truncated error detail")? as usize;
                let detail =
                    String::from_utf8(c.take(detail_len).ok_or("truncated error detail")?.to_vec())
                        .map_err(|_| "error detail is not UTF-8")?;
                Frame::Err(WireError {
                    class,
                    code,
                    detail,
                })
            }
            k => return Err(format!("unknown frame kind {k:#04x}")),
        };
        if !c.at_end() {
            return Err("trailing bytes after frame payload".into());
        }
        Ok(frame)
    }
}

fn take_nonce(c: &mut ByteCursor<'_>) -> Result<[u8; NONCE_LEN], String> {
    let bytes = c.take(NONCE_LEN).ok_or("truncated nonce")?;
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(bytes);
    Ok(nonce)
}

/// All bytes from the cursor to the end of the body (variable-length tail
/// payloads — their length is implied by the frame length).
fn rest(c: &mut ByteCursor<'_>, body: &[u8]) -> Vec<u8> {
    let tail = body[c.pos()..].to_vec();
    let _ = c.take(tail.len());
    tail
}

/// Patches the length prefix and appends the CRC trailer onto a wire
/// buffer laid out as `[4-byte placeholder | body]`.
fn seal_wire(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = (out.len() - 4) as u64;
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    out
}

/// Writes one pre-encoded wire frame (from [`Frame::to_wire`] /
/// [`Frame::put_chunk_wire`]) and flushes it.  Refuses a frame the
/// receiver would reject for size with `ErrorKind::InvalidInput` — a
/// permanent error (retrying cannot shrink it), surfaced *before* any
/// bytes go out so the connection stays usable.
pub fn write_wire(w: &mut impl Write, wire: &[u8]) -> std::io::Result<()> {
    if wire.len() - 4 > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})",
                wire.len() - 4
            ),
        ));
    }
    w.write_all(wire)?;
    w.flush()
}

/// Writes one frame and flushes it onto the wire (see [`write_wire`]).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    write_wire(w, &frame.to_wire())
}

/// Reads exactly one frame off the stream: length prefix (validated
/// against [`MAX_FRAME_LEN`] before any allocation), body, CRC check,
/// parse.  Malformed bytes yield [`FrameError::Malformed`] — never a
/// panic, an unbounded allocation, or an unbounded read.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    read_frame_within(r, MAX_FRAME_LEN)
}

/// [`read_frame`] with the length prefix capped at `max_len` instead of
/// [`MAX_FRAME_LEN`].
pub(crate) fn read_frame_within(r: &mut impl Read, max_len: usize) -> Result<Frame, FrameError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(FrameError::Io)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(MIN_FRAME_LEN..=max_len).contains(&len) {
        return Err(FrameError::Malformed(format!(
            "frame length {len} outside [{MIN_FRAME_LEN}, {max_len}]"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    let (body, trailer) = buf.split_at(len - 4);
    // crac-lint: allow(no-unwrap) — split_at(len - 4) guarantees a 4-byte trailer
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    let computed = crc32(body);
    if computed != stored_crc {
        return Err(FrameError::Malformed(format!(
            "frame CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
        )));
    }
    Frame::decode_body(body).map_err(FrameError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let wire = f.to_wire();
        let mut cursor = std::io::Cursor::new(wire);
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::ServerHello { nonce: [7; 16] });
        roundtrip(Frame::AuthProof {
            nonce: [9; 16],
            mac: 0xDEAD_BEEF,
        });
        roundtrip(Frame::AuthOk { mac: u128::MAX });
        roundtrip(Frame::HasChunks(vec![
            ContentHash(1),
            ContentHash(u128::MAX),
        ]));
        roundtrip(Frame::HasChunks(vec![]));
        roundtrip(Frame::PutChunk {
            hash: ContentHash::of(b"x"),
            bytes: vec![0xAB; 100],
        });
        roundtrip(Frame::GetChunk(ContentHash(42)));
        roundtrip(Frame::ListManifests);
        roundtrip(Frame::GetManifest(ImageId(3)));
        roundtrip(Frame::PutManifest {
            parent: None,
            bytes: b"manifest".to_vec(),
        });
        roundtrip(Frame::PutManifest {
            parent: Some(ImageId(17)),
            bytes: vec![],
        });
        roundtrip(Frame::Stats);
        roundtrip(Frame::Flags(vec![true, false, true]));
        roundtrip(Frame::Done);
        roundtrip(Frame::Bytes(vec![1, 2, 3]));
        roundtrip(Frame::Ids(vec![ImageId(1), ImageId(99)]));
        roundtrip(Frame::Id(ImageId(12)));
        roundtrip(Frame::Err(WireError {
            class: ErrClass::MissingChunk,
            code: 0,
            detail: "abc123".into(),
        }));
    }

    /// Satellite regression: error classes survive the wire with their
    /// retry character intact — a transient decodes transient, corruption
    /// decodes as corruption, `MissingChunk`/`UnknownImage` keep their
    /// variants, so the client-side retry/fail-fast split is unchanged by
    /// serialisation.
    #[test]
    fn error_classification_survives_the_round_trip() {
        let cases: Vec<StoreError> = vec![
            StoreError::transient("link flapped"),
            StoreError::corrupt("/some/chunk", "CRC mismatch"),
            StoreError::MissingChunk {
                hash: ContentHash::of(b"gone").to_hex(),
            },
            StoreError::UnknownImage(ImageId(7)),
            StoreError::busy("store was opened read-only"),
            StoreError::protocol("push_run outside any open region"),
            StoreError::io("/dev/full", std::io::Error::other("disk on fire")),
            // An OS error of a retryable kind classifies transient.
            StoreError::io(
                "/slow/nfs",
                std::io::Error::new(std::io::ErrorKind::TimedOut, "timed out"),
            ),
        ];
        for original in cases {
            let wire = WireError::of(&original);
            let mut cursor = std::io::Cursor::new(Frame::Err(wire).to_wire());
            let Frame::Err(back) = read_frame(&mut cursor).unwrap() else {
                panic!("expected an error frame");
            };
            let decoded = back.into_store_error("127.0.0.1:9");
            assert_eq!(
                decoded.is_transient(),
                original.is_transient(),
                "transient class diverged: {original} -> {decoded}"
            );
            assert_eq!(
                decoded.is_corruption(),
                original.is_corruption(),
                "corruption class diverged: {original} -> {decoded}"
            );
            match &original {
                StoreError::MissingChunk { hash } => {
                    assert!(matches!(&decoded, StoreError::MissingChunk { hash: h } if h == hash))
                }
                StoreError::UnknownImage(id) => {
                    assert!(matches!(&decoded, StoreError::UnknownImage(i) if i == id))
                }
                _ => {}
            }
        }
    }

    /// The borrowed-payload fast paths must be byte-identical to the
    /// owned-frame encoder — one wire format, two entry points.
    #[test]
    fn borrowed_encoders_match_the_owned_encoder() {
        let hash = ContentHash::of(b"payload");
        let bytes = vec![0xCD; 777];
        assert_eq!(
            Frame::put_chunk_wire(hash, &bytes),
            Frame::PutChunk {
                hash,
                bytes: bytes.clone()
            }
            .to_wire()
        );
        for parent in [None, Some(ImageId(9))] {
            assert_eq!(
                Frame::put_manifest_wire(parent, &bytes),
                Frame::PutManifest {
                    parent,
                    bytes: bytes.clone()
                }
                .to_wire()
            );
        }
    }

    /// The sender refuses a frame the receiver would reject for size —
    /// with a *permanent* error kind, before any bytes go out.  (A
    /// zeroed buffer stands in for a real encoding: `write_wire` only
    /// consults the length.)
    #[test]
    fn oversized_frames_are_refused_at_the_sender() {
        let wire = vec![0u8; 4 + MAX_FRAME_LEN + 1];
        let mut sunk = Vec::new();
        let err = write_wire(&mut sunk, &wire).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sunk.is_empty(), "nothing may reach the socket");
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut wire = Frame::Done.to_wire();
        wire[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "got: {err}");
    }

    #[test]
    fn lying_element_count_is_refused_before_allocation() {
        // A has_chunks body declaring u32::MAX hashes over a 4-byte
        // payload: the count check must fire before any Vec is sized.
        let mut body = vec![WIRE_VERSION, K_HAS_CHUNKS];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut wire = Vec::new();
        wire.extend_from_slice(&((body.len() + 4) as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "got: {err}");
    }

    /// A frame from a version-1 peer — intact CRC, known kind — is refused
    /// *by version* (the peer names chunks with another hash), not as noise.
    #[test]
    fn a_v1_frame_is_refused_with_a_version_error() {
        let mut wire = Frame::ServerHello { nonce: [7; 16] }.to_wire();
        assert_eq!(wire[4], WIRE_VERSION);
        wire[4] = 1;
        let body_end = wire.len() - 4;
        let crc = crc32(&wire[4..body_end]);
        wire[body_end..].copy_from_slice(&crc.to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        let FrameError::Malformed(what) = err else {
            panic!("expected a malformed-frame error, got: {err}");
        };
        assert!(what.contains("unsupported wire version 1"), "got: {what}");
    }

    #[test]
    fn unknown_kind_and_version_are_refused() {
        for body in [vec![WIRE_VERSION, 0x7F], vec![99, K_DONE]] {
            let mut wire = Vec::new();
            wire.extend_from_slice(&((body.len() + 4) as u32).to_le_bytes());
            wire.extend_from_slice(&body);
            wire.extend_from_slice(&crc32(&body).to_le_bytes());
            let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
            assert!(matches!(err, FrameError::Malformed(_)), "got: {err}");
        }
    }
}
