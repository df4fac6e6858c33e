//! The TCP serving side: an accept loop exposing one [`ImageStore`] to
//! authenticated peers over the frame protocol.
//!
//! Thread-per-connection — checkpoint replication is a small number of
//! high-throughput streams, not ten thousand idle sockets, so the simplest
//! concurrency model is also the right one.  Each connection runs the
//! [`crate::net::auth`] handshake first; every request before `AuthOk`
//! is refused with a [`ErrClass::Protocol`](crate::net::frame::ErrClass)
//! error and the connection dropped, so an unauthenticated client can
//! never reach a store operation.  After auth, requests dispatch into the
//! same store surface [`crate::transport::LoopbackTransport`] uses
//! (`ingest_chunk_file`, `adopt_manifest`, `read_chunk_file_bytes`, …),
//! which is what makes the error classification identical across
//! transports — including `MissingChunk` for a `get_chunk` racing GC.
//!
//! Server-side failures answer as classified [`Frame::Err`] frames and
//! the connection lives on: a misbehaving producer surfaces as an error
//! on the wire, never a process abort.  Only a *framing* violation (bad
//! CRC, oversized length) closes the connection — after garbage the
//! stream position can no longer be trusted.
//!
//! [`ServerHandle::shutdown`] stops the accept loop, severs every live
//! connection and joins all threads; dropping the handle does the same.
//! Tests use the same mechanism as a deterministic "node died
//! mid-transfer" switch.

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crac_obs::{Buckets, Counter, EventKind, Gauge, Histogram, ObsRegistry, Span};
use crac_sync::Mutex;

use crate::error::StoreError;
use crate::net::auth;
use crate::net::frame::{
    read_frame, read_frame_within, write_frame, Frame, FrameError, WireError, AUTH_PROOF_FRAME_LEN,
};
use crate::store::ImageStore;

/// How long the server waits for each handshake frame before giving up on
/// the connection — a client that dials and goes silent must not pin a
/// thread forever.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bound on [`ServerHandle`]'s wake-up dial to its own listener at
/// shutdown, and on how long the accept thread backs off after a failed
/// `accept` (fd exhaustion, say) before trying again.
const ACCEPT_WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// Snapshot of a server's operation counters — the observable the TCP
/// replication tests pin dedup down with (second replication of the same
/// image ⇒ zero `chunk_frames_received`) and pooled-connection fan-out
/// with (`get_connections` ≥ 2 under a parallel restore).
///
/// A *view*: the authoritative values live in the server's
/// [`ObsRegistry`] as `crac_net_server_*` metrics ([`ServerHandle::stats`]
/// reads a registry snapshot — there is no second set of counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted (authenticated or not).
    pub connections_accepted: usize,
    /// Connections refused during the auth handshake.
    pub auth_failures: usize,
    /// Requests served after auth (all kinds).
    pub frames_served: usize,
    /// `has_chunks` negotiation batches answered.
    pub has_batches: usize,
    /// `put_chunk` frames received (including rejected ones — this counts
    /// what crossed the wire, dedup is proven by it staying flat).
    pub chunk_frames_received: usize,
    /// Chunk-file bytes received in those frames.
    pub chunk_bytes_received: u64,
    /// Chunks served via `get_chunk`.
    pub chunks_served: usize,
    /// Chunk-file bytes served.
    pub chunk_bytes_served: u64,
    /// Distinct connections that served at least one `get_chunk` — the
    /// proof that a parallel restore actually fanned out over the client's
    /// connection pool instead of serialising on one socket.
    pub get_connections: usize,
    /// Manifests received via `put_manifest` (accepted or not).
    pub manifest_frames_received: usize,
    /// Manifests served via `get_manifest`.
    pub manifests_served: usize,
    /// Error frames sent back to clients.
    pub errors_sent: usize,
}

/// Registry-backed server instrumentation: lifetime counters, a live
/// connection gauge, and one service-time histogram per request kind.
/// Handles are resolved once at [`serve`] time (against the store's
/// registry of that moment) so the per-frame hot path is pure atomics.
struct NetObs {
    reg: ObsRegistry,
    connections_accepted: Counter,
    auth_failures: Counter,
    frames_served: Counter,
    errors_sent: Counter,
    connections_open: Gauge,
    has_batches: Counter,
    chunk_frames_received: Counter,
    chunk_bytes_received: Counter,
    chunks_served: Counter,
    chunk_bytes_served: Counter,
    get_connections: Counter,
    manifest_frames_received: Counter,
    manifests_served: Counter,
    op_has_chunks: Histogram,
    op_put_chunk: Histogram,
    op_get_chunk: Histogram,
    op_list_manifests: Histogram,
    op_get_manifest: Histogram,
    op_put_manifest: Histogram,
    op_stats: Histogram,
}

impl NetObs {
    fn new(reg: ObsRegistry) -> Self {
        let c = |name: &str| reg.counter(name);
        let h = |name: &str| reg.histogram(name, Buckets::LATENCY_US);
        Self {
            connections_accepted: c("crac_net_server_connections_accepted"),
            auth_failures: c("crac_net_server_auth_failures"),
            frames_served: c("crac_net_server_frames_served"),
            errors_sent: c("crac_net_server_errors_sent"),
            connections_open: reg.gauge("crac_net_server_connections_open"),
            has_batches: c("crac_net_server_has_batches"),
            chunk_frames_received: c("crac_net_server_chunk_frames_received"),
            chunk_bytes_received: c("crac_net_server_chunk_bytes_received"),
            chunks_served: c("crac_net_server_chunks_served"),
            chunk_bytes_served: c("crac_net_server_chunk_bytes_served"),
            get_connections: c("crac_net_server_get_connections"),
            manifest_frames_received: c("crac_net_server_manifest_frames_received"),
            manifests_served: c("crac_net_server_manifests_served"),
            op_has_chunks: h("crac_net_server_op_has_chunks_us"),
            op_put_chunk: h("crac_net_server_op_put_chunk_us"),
            op_get_chunk: h("crac_net_server_op_get_chunk_us"),
            op_list_manifests: h("crac_net_server_op_list_manifests_us"),
            op_get_manifest: h("crac_net_server_op_get_manifest_us"),
            op_put_manifest: h("crac_net_server_op_put_manifest_us"),
            op_stats: h("crac_net_server_op_stats_us"),
            reg,
        }
    }

    /// The service-time histogram for one request kind (`None` for frames
    /// that are protocol misuse as requests — they get no timing series).
    fn op_histogram(&self, request: &Frame) -> Option<&Histogram> {
        Some(match request {
            Frame::HasChunks(_) => &self.op_has_chunks,
            Frame::PutChunk { .. } => &self.op_put_chunk,
            Frame::GetChunk(_) => &self.op_get_chunk,
            Frame::ListManifests => &self.op_list_manifests,
            Frame::GetManifest(_) => &self.op_get_manifest,
            Frame::PutManifest { .. } => &self.op_put_manifest,
            Frame::Stats => &self.op_stats,
            _ => return None,
        })
    }

    fn stats(&self) -> NetServerStats {
        let snap = self.reg.snapshot();
        NetServerStats {
            connections_accepted: snap.counter("crac_net_server_connections_accepted") as usize,
            auth_failures: snap.counter("crac_net_server_auth_failures") as usize,
            frames_served: snap.counter("crac_net_server_frames_served") as usize,
            has_batches: snap.counter("crac_net_server_has_batches") as usize,
            chunk_frames_received: snap.counter("crac_net_server_chunk_frames_received") as usize,
            chunk_bytes_received: snap.counter("crac_net_server_chunk_bytes_received"),
            chunks_served: snap.counter("crac_net_server_chunks_served") as usize,
            chunk_bytes_served: snap.counter("crac_net_server_chunk_bytes_served"),
            get_connections: snap.counter("crac_net_server_get_connections") as usize,
            manifest_frames_received: snap.counter("crac_net_server_manifest_frames_received")
                as usize,
            manifests_served: snap.counter("crac_net_server_manifests_served") as usize,
            errors_sent: snap.counter("crac_net_server_errors_sent") as usize,
        }
    }
}

/// State shared between the accept loop, the connection threads and the
/// handle: counters, the shutdown flag, and the live-connection registry
/// the shutdown path severs.
struct Shared {
    store: Arc<ImageStore>,
    secret: Vec<u8>,
    obs: NetObs,
    shutting_down: AtomicBool,
    /// One cloned stream handle per live connection, keyed by a serial so
    /// finished connections deregister themselves.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// Handle to a running [`serve`] loop: address, counters, shutdown.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the operation counters (a view over the server's
    /// metrics registry).
    pub fn stats(&self) -> NetServerStats {
        self.shared.obs.stats()
    }

    /// The registry this server records into — `crac_net_server_*`
    /// counters and per-op service-time histograms, plus whatever else
    /// shares the store's registry.  [`Frame::Stats`] renders the same
    /// registry over the wire.
    pub fn obs(&self) -> ObsRegistry {
        self.shared.obs.reg.clone()
    }

    /// Stops accepting, severs every live connection (in-flight requests
    /// fail on their sockets — clients see a transient error and their
    /// bounded retry takes over) and joins all server threads.  The store
    /// is left exactly as the last *completed* operation left it: chunk
    /// ingest is verify-then-rename, so a severed connection can never
    /// leave a torn chunk visible.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept thread blocks in `accept()` (a dial costs a handshake,
        // not a poll interval), so wake it: unpark it in case it is backing
        // off after a failed accept, and dial the listener's own port so a
        // blocked `accept()` returns — it re-checks the flag before serving
        // anything.  A wake that cannot be delivered (no fd left for the
        // dial, a full backlog) must not hang shutdown: the thread is then
        // detached, and exits on the next connection or backoff tick.
        if let Some(t) = self.accept_thread.take() {
            t.thread().unpark();
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                // Bound to 0.0.0.0 / [::]: reach it over loopback.
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let woke = TcpStream::connect_timeout(&wake, ACCEPT_WAKE_TIMEOUT).is_ok();
            if woke || t.is_finished() {
                let _ = t.join();
            }
        }
        // Sever live connections so blocked reads return.
        for (_, stream) in self.shared.live.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let threads = std::mem::take(&mut *self.conn_threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts serving `store` on `listener` under shared-secret `secret`:
/// spawns the accept loop and returns immediately with the handle.
/// Bind to `127.0.0.1:0` and read [`ServerHandle::local_addr`] for an
/// ephemeral test server.
pub fn serve(
    listener: TcpListener,
    store: Arc<ImageStore>,
    secret: impl Into<Vec<u8>>,
) -> std::io::Result<ServerHandle> {
    let local_addr = listener.local_addr()?;
    let obs = NetObs::new(store.obs());
    let shared = Arc::new(Shared {
        store,
        secret: secret.into(),
        obs,
        shutting_down: AtomicBool::new(false),
        live: Mutex::new("imagestore.net.server.live", HashMap::new()),
        next_conn: AtomicU64::new(0),
    });
    let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
        Arc::new(Mutex::new("imagestore.net.server.conn_threads", Vec::new()));

    // Blocking accept: a dial is served the moment it arrives.
    // `ServerHandle::stop` sets the flag, then wakes this thread (see there);
    // the flag is checked after every return from `accept`, so the wake-up
    // connection — or a real one racing shutdown — is dropped unserved.
    let accept_shared = Arc::clone(&shared);
    let accept_threads = Arc::clone(&conn_threads);
    let accept_thread = std::thread::Builder::new()
        .name("crac-net-accept".into())
        .spawn(move || loop {
            let accepted = listener.accept();
            if accept_shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let Ok((stream, _peer)) = accepted else {
                // A persistent accept error (fd exhaustion, say) must not
                // spin hot: back off until `stop` unparks us or a tick passes.
                std::thread::park_timeout(ACCEPT_WAKE_TIMEOUT);
                continue;
            };
            let conn_shared = Arc::clone(&accept_shared);
            let handle = std::thread::Builder::new()
                .name("crac-net-conn".into())
                .spawn(move || serve_connection(stream, &conn_shared));
            if let Ok(handle) = handle {
                // Reap finished connection threads as we go: a
                // long-lived server must not accumulate one JoinHandle
                // per connection ever served.
                let mut threads = accept_threads.lock();
                let mut live = Vec::with_capacity(threads.len() + 1);
                for t in threads.drain(..) {
                    if t.is_finished() {
                        let _ = t.join();
                    } else {
                        live.push(t);
                    }
                }
                live.push(handle);
                *threads = live;
            }
        })?;

    Ok(ServerHandle {
        local_addr,
        shared,
        accept_thread: Some(accept_thread),
        conn_threads,
    })
}

/// Convenience: bind `addr` and [`serve`] on it.
pub fn serve_on(
    addr: impl std::net::ToSocketAddrs,
    store: Arc<ImageStore>,
    secret: impl Into<Vec<u8>>,
) -> std::io::Result<ServerHandle> {
    serve(TcpListener::bind(addr)?, store, secret)
}

/// One connection: register, handshake, request loop, deregister.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let obs = &shared.obs;
    obs.connections_accepted.inc();
    obs.connections_open.add(1);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    obs.reg
        .event(EventKind::ConnOpen, format!("conn={conn_id} peer={peer}"));
    if let Ok(clone) = stream.try_clone() {
        shared.live.lock().insert(conn_id, clone);
    }
    // stop() may have drained the registry between our accept and the
    // insert above; re-check so a straggler severs itself — otherwise its
    // blocking read would never return and shutdown's join would hang.
    // (stop() sets the flag before draining, so whichever of insert/drain
    // lost the race, this load observes the flag.)
    if shared.shutting_down.load(Ordering::SeqCst) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        shared.live.lock().remove(&conn_id);
        obs.connections_open.sub(1);
        obs.reg.event(
            EventKind::ConnClose,
            format!("conn={conn_id} outcome=shutdown"),
        );
        return;
    }
    let _ = stream.set_nodelay(true);

    let outcome = drive_connection(&mut stream, shared);
    let outcome_name = match outcome {
        ConnOutcome::Closed => "closed",
        ConnOutcome::AuthFailed => {
            obs.auth_failures.inc();
            obs.reg
                .event(EventKind::AuthFail, format!("conn={conn_id} peer={peer}"));
            "auth_failed"
        }
    };
    let _ = stream.shutdown(std::net::Shutdown::Both);
    shared.live.lock().remove(&conn_id);
    obs.connections_open.sub(1);
    obs.reg.event(
        EventKind::ConnClose,
        format!("conn={conn_id} outcome={outcome_name}"),
    );
}

enum ConnOutcome {
    /// Clean close (EOF, severed socket, framing violation after auth).
    Closed,
    /// The handshake never completed: bad proof, wrong first frame, or a
    /// request issued before authentication.
    AuthFailed,
}

fn drive_connection(stream: &mut TcpStream, shared: &Shared) -> ConnOutcome {
    // -- handshake: nothing dispatches before AuthOk ---------------------
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let server_nonce = auth::fresh_nonce();
    if write_frame(
        stream,
        &Frame::ServerHello {
            nonce: server_nonce,
        },
    )
    .is_err()
    {
        return ConnOutcome::Closed;
    }
    // Capped at the proof's fixed length: an unauthenticated peer gets
    // no buffer larger than that, and a longer prefix is refused at once.
    let proof = match read_frame_within(stream, AUTH_PROOF_FRAME_LEN) {
        Ok(Frame::AuthProof { nonce, mac }) => (nonce, mac),
        Ok(_) => {
            // A request (or nonsense) before authentication: refuse before
            // any store operation can run.
            refuse(stream, shared, "request before authentication");
            return ConnOutcome::AuthFailed;
        }
        Err(_) => return ConnOutcome::AuthFailed,
    };
    let (client_nonce, client_mac) = proof;
    if client_mac != auth::client_proof(&shared.secret, &server_nonce, &client_nonce) {
        refuse(stream, shared, "auth proof rejected");
        return ConnOutcome::AuthFailed;
    }
    let server_mac = auth::server_proof(&shared.secret, &server_nonce, &client_nonce);
    if write_frame(stream, &Frame::AuthOk { mac: server_mac }).is_err() {
        return ConnOutcome::Closed;
    }

    // -- request loop ----------------------------------------------------
    let _ = stream.set_read_timeout(None);
    let mut served_get = false;
    loop {
        let request = match read_frame(stream) {
            Ok(f) => f,
            Err(FrameError::Io(_)) => return ConnOutcome::Closed,
            Err(FrameError::Malformed(what)) => {
                // After garbage the stream position is untrustworthy:
                // answer once, then drop the connection.
                refuse(stream, shared, &format!("unreadable frame: {what}"));
                return ConnOutcome::Closed;
            }
        };
        shared.obs.frames_served.inc();
        let span = shared.obs.op_histogram(&request).map(Span::enter);
        let response = dispatch(request, shared, &mut served_get);
        if let Some(span) = span {
            span.finish();
        }
        if matches!(response, Frame::Err(_)) {
            shared.obs.errors_sent.inc();
        }
        if write_frame(stream, &response).is_err() {
            return ConnOutcome::Closed;
        }
    }
}

/// Sends one protocol-violation error frame, best-effort.
fn refuse(stream: &mut TcpStream, shared: &Shared, what: &str) {
    shared.obs.errors_sent.inc();
    let err = WireError::of(&StoreError::protocol(what.to_string()));
    let _ = write_frame(stream, &Frame::Err(err));
}

/// Maps one authenticated request onto the store surface, classifying
/// failures for the wire.  `served_get` tracks whether this connection
/// already counted toward [`NetServerStats::get_connections`].
fn dispatch(request: Frame, shared: &Shared, served_get: &mut bool) -> Frame {
    let obs = &shared.obs;
    let store = &shared.store;
    let result: Result<Frame, StoreError> = match request {
        Frame::HasChunks(hashes) => {
            obs.has_batches.inc();
            Ok(Frame::Flags(
                hashes.iter().map(|&h| store.contains_chunk(h)).collect(),
            ))
        }
        Frame::PutChunk { hash, bytes } => {
            obs.chunk_frames_received.inc();
            obs.chunk_bytes_received.add(bytes.len() as u64);
            store.ingest_chunk_file(hash, &bytes).map(|_| Frame::Done)
        }
        Frame::GetChunk(hash) => store.read_chunk_file_bytes(hash).map(|bytes| {
            obs.chunks_served.inc();
            obs.chunk_bytes_served.add(bytes.len() as u64);
            if !*served_get {
                *served_get = true;
                obs.get_connections.inc();
            }
            Frame::Bytes(bytes)
        }),
        Frame::ListManifests => store.manifest_ids().map(Frame::Ids),
        Frame::GetManifest(id) => store.read_manifest_bytes(id).map(|bytes| {
            obs.manifests_served.inc();
            Frame::Bytes(bytes)
        }),
        Frame::PutManifest { parent, bytes } => {
            obs.manifest_frames_received.inc();
            store.adopt_manifest(&bytes, parent).map(Frame::Id)
        }
        // Observability scrape: the server's whole registry (its own
        // crac_net_server_* series plus whatever the store recorded) as
        // Prometheus-style text.
        Frame::Stats => Ok(Frame::Bytes(obs.reg.render_text().into_bytes())),
        // A handshake or response frame arriving as a request: protocol
        // misuse, answered (not a process abort), connection lives on.
        other => Err(StoreError::protocol(format!(
            "unexpected frame kind {other:?} as a request"
        ))),
    };
    match result {
        Ok(frame) => frame,
        Err(e) => Frame::Err(WireError::of(&e)),
    }
}
