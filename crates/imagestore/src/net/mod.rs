//! The real network transport: length-prefixed frames over
//! `std::net::TcpStream` — no new dependencies.
//!
//! PR 4 put the whole replication/migration stack behind the
//! [`Transport`](crate::transport::Transport) seam; this module family is
//! the first implementation where bytes actually cross a socket, the way
//! DMTCP's coordinator protocol and restic/borg's server mode put their
//! negotiation on the wire:
//!
//! * [`frame`] — the shared wire format: length-prefixed, versioned,
//!   CRC-trailed frames encoding the six `Transport` methods, with a hard
//!   frame-size cap so a malicious or corrupt peer cannot force unbounded
//!   allocation, and a classified error encoding whose
//!   transient/corruption character survives the round trip.
//! * [`auth`] — the shared-secret, mutual, HMAC-style challenge/response
//!   handshake (built on the crate's content-hash primitive) gating every
//!   connection before any store operation runs.
//! * [`server`] — `serve(listener, store, secret)`: accept loop,
//!   thread-per-connection dispatch into the [`crate::ImageStore`]
//!   surface, per-op counters, graceful shutdown handle.
//! * [`client`] — [`TcpTransport`](client::TcpTransport): the `Transport`
//!   implementation with a connection *pool*, so the parallel restore
//!   workers' `get_chunk` fan-out rides N concurrent sockets instead of
//!   serialising on one; broken connections map to transient errors and
//!   the bounded backoff retry redials.
//!
//! Everything above the trait — [`crate::remote::RemoteChunkSink`], a
//! [`crate::reader::StreamReader`] over [`crate::ImageSource::Peer`],
//! [`crate::ImageStore::replicate_to`], `CracProcess`'s
//! `checkpoint_to_remote`/`restart_from_remote` — runs over this
//! transport unchanged; the TCP integration suite is the proof of that
//! design claim.

pub mod auth;
pub mod client;
pub mod frame;
pub mod server;

pub use client::{TcpTransport, TcpTransportStats};
pub use frame::{ErrClass, Frame, FrameError, WireError, MAX_FRAME_LEN, NONCE_LEN, WIRE_VERSION};
pub use server::{serve, serve_on, NetServerStats, ServerHandle};
