//! The TCP client: [`TcpTransport`], a pooled-connection
//! [`Transport`] implementation over the frame protocol.
//!
//! **Pooling.**  The parallel restore pipeline fans `get_chunk` out over
//! worker threads; a single socket would serialise them right back.  The
//! pool is a stack of idle authenticated connections: a call pops one (or
//! dials a fresh one when the stack is empty — concurrency, not a config
//! knob, sizes the pool), and returns it on success.  Up to
//! [`TcpTransport::DEFAULT_MAX_IDLE`] idle connections are retained;
//! beyond that they are closed rather than hoarded.
//!
//! **Failure mapping.**  A connection-level I/O failure (broken pipe,
//! reset, refused dial, timeout) maps to [`StoreError::Transient`] and
//! the connection is discarded — the caller's bounded retry (now with
//! backoff) dials fresh, which is exactly the reconnect-on-broken-pipe
//! story.  A *framing* violation from the peer maps to a permanent
//! protocol error: garbage does not get retried.  A classified
//! [`Frame::Err`] response decodes back into the matching [`StoreError`]
//! class ([`crate::net::frame::WireError`]) and the connection returns to
//! the pool — an error reply is a healthy conversation.
//!
//! Every connection runs the [`crate::net::auth`] handshake before its
//! first request; the handshake is mutual, so a checkpoint never streams
//! to a peer that cannot prove the shared secret.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crac_obs::{Buckets, Counter, Gauge, Histogram, ObsRegistry, Span};
use crac_sync::Mutex;

use crate::error::StoreError;
use crate::hash::ContentHash;
use crate::net::auth;
use crate::net::frame::{read_frame, write_wire, Frame, FrameError};
use crate::store::ImageId;
use crate::transport::Transport;

/// Counters a [`TcpTransport`] keeps about its pool — a view over the
/// transport's [`ObsRegistry`] (`crac_net_client_*` families), plus the
/// live idle-pool depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpTransportStats {
    /// Connections dialled (and authenticated) over the transport's life.
    pub connections_opened: usize,
    /// Highest number of connections checked out at once — ≥ 2 proves a
    /// parallel restore actually rode multiple sockets.
    pub peak_connections_in_use: usize,
    /// Connections discarded after an I/O failure (each one maps to a
    /// transient error the retry layer absorbed or surfaced).
    pub connections_broken: usize,
    /// Idle connections currently parked in the pool.
    pub pooled_idle: usize,
    /// Requests issued through the pool ([`TcpTransport::call_wire`]
    /// entries, not attempts).
    pub requests: usize,
    /// Silent moves to the next socket after a parked connection turned
    /// out stale.  Deliberately *not* the same thing as the caller's
    /// bounded retries (`crac_retry_attempts`): a redial never charges
    /// the retry budget.
    pub redials: usize,
}

/// Registry handles for the client-side `crac_net_client_*` families.
///
/// The stage histograms carve one request into the phases that matter
/// when a replication is slow: `connect_us`/`auth_us` say whether dials
/// are the problem, `frame_encode_us` isolates serialisation, and
/// `rtt_us` is the on-the-wire round trip (write through reply) per
/// attempt — failed attempts included, since a hung socket's timeout is
/// precisely the latency the caller suffered.
#[derive(Clone)]
struct ClientObs {
    reg: ObsRegistry,
    connections_opened: Counter,
    connections_broken: Counter,
    redials: Counter,
    requests: Counter,
    connections_in_use: Gauge,
    connect_us: Histogram,
    auth_us: Histogram,
    frame_encode_us: Histogram,
    rtt_us: Histogram,
}

impl ClientObs {
    fn new(reg: ObsRegistry) -> Self {
        let c = |name: &str| reg.counter(name);
        let h = |name: &str| reg.histogram(name, Buckets::LATENCY_US);
        Self {
            connections_opened: c("crac_net_client_connections_opened"),
            connections_broken: c("crac_net_client_connections_broken"),
            redials: c("crac_net_client_redials"),
            requests: c("crac_net_client_requests"),
            connections_in_use: reg.gauge("crac_net_client_connections_in_use"),
            connect_us: h("crac_net_client_connect_us"),
            auth_us: h("crac_net_client_auth_us"),
            frame_encode_us: h("crac_net_client_frame_encode_us"),
            rtt_us: h("crac_net_client_rtt_us"),
            reg,
        }
    }
}

/// One authenticated connection.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn roundtrip_wire(&mut self, wire: &[u8]) -> Result<Frame, FrameError> {
        write_wire(&mut self.stream, wire).map_err(FrameError::Io)?;
        read_frame(&mut self.stream)
    }
}

/// A [`Transport`] over real TCP with pooled, authenticated connections.
pub struct TcpTransport {
    addr: SocketAddr,
    secret: Vec<u8>,
    idle: Mutex<Vec<Conn>>,
    /// Reserved connection for priority requests (a lazy restore's fault
    /// path): they never contend with — or queue behind — the shared pool,
    /// whose sockets a background prefetch sweep keeps saturated.
    priority_idle: Mutex<Vec<Conn>>,
    obs: ClientObs,
}

impl TcpTransport {
    /// Idle connections retained.  Matches the restore pipeline's worker
    /// cap (8): a full-width restore reuses its whole fan-out on the next
    /// image instead of redialling, while a mostly idle replicator keeps at
    /// most a handful of sockets open.
    pub const DEFAULT_MAX_IDLE: usize = 8;

    /// Per-operation socket read/write timeout.
    pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

    /// Dial timeout.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

    /// Connects to the peer at `addr` under shared-secret `secret`.
    ///
    /// Dials (and authenticates) one connection eagerly, so a wrong
    /// address or a rejected secret surfaces here — before a checkpoint
    /// stream is half-way in — rather than on the first chunk.  A name
    /// resolving to several addresses (`localhost` commonly yields both
    /// `::1` and `127.0.0.1`) is tried in order until one dials; later
    /// reconnects stick to the address that worked.
    pub fn connect(
        addr: impl ToSocketAddrs,
        secret: impl Into<Vec<u8>>,
    ) -> Result<Self, StoreError> {
        Self::connect_with_obs(addr, secret, ObsRegistry::new())
    }

    /// [`TcpTransport::connect`] recording into a caller-supplied
    /// registry — hand it the coordinator's so one scrape covers the
    /// whole checkpoint/restore flow.  Failed candidate dials are
    /// recorded too (they are latency the caller paid).
    pub fn connect_with_obs(
        addr: impl ToSocketAddrs,
        secret: impl Into<Vec<u8>>,
        reg: ObsRegistry,
    ) -> Result<Self, StoreError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| StoreError::transient(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(StoreError::transient("address resolved to nothing"));
        }
        let secret = secret.into();
        let obs = ClientObs::new(reg);
        let mut last_err = None;
        for candidate in addrs {
            let transport = Self {
                addr: candidate,
                secret: secret.clone(),
                idle: Mutex::new("imagestore.net.client.idle", Vec::new()),
                priority_idle: Mutex::new("imagestore.net.client.priority_idle", Vec::new()),
                obs: obs.clone(),
            };
            match transport.dial() {
                Ok(probe) => {
                    transport.checkin(probe);
                    return Ok(transport);
                }
                // A rejected secret or protocol mismatch is the server's
                // verdict — another address cannot change it.
                Err(e @ StoreError::Protocol { .. }) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        // crac-lint: allow(no-unwrap) — local invariant established just above; the expect message documents it
        Err(last_err.expect("at least one candidate was tried"))
    }

    /// The peer this transport talks to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the pool counters — a view over the transport's
    /// registry plus the live idle-pool depth.
    pub fn stats(&self) -> TcpTransportStats {
        let snap = self.obs.reg.snapshot();
        TcpTransportStats {
            connections_opened: snap.counter("crac_net_client_connections_opened") as usize,
            peak_connections_in_use: snap
                .gauge("crac_net_client_connections_in_use")
                .map(|g| g.peak as usize)
                .unwrap_or(0),
            connections_broken: snap.counter("crac_net_client_connections_broken") as usize,
            pooled_idle: self.idle.lock().len(),
            requests: snap.counter("crac_net_client_requests") as usize,
            redials: snap.counter("crac_net_client_redials") as usize,
        }
    }

    /// The registry this transport records into.
    pub fn obs(&self) -> ObsRegistry {
        self.obs.reg.clone()
    }

    /// Scrapes the *peer's* metrics: sends [`Frame::Stats`] and returns
    /// the server's Prometheus-style text exposition.
    pub fn scrape_peer_metrics(&self) -> Result<String, StoreError> {
        match self.call(&Frame::Stats)? {
            Frame::Bytes(bytes) => String::from_utf8(bytes).map_err(|_| {
                StoreError::protocol(format!("peer {} sent a non-UTF-8 exposition", self.addr))
            }),
            other => Err(self.unexpected("stats", other)),
        }
    }

    /// Dials and authenticates one fresh connection.  The TCP connect
    /// and the auth handshake are timed separately: a slow `connect_us`
    /// points at the network (or a dead peer timing out), a slow
    /// `auth_us` at a loaded server.  Failed phases record too — the
    /// span's drop covers every early return.
    fn dial(&self) -> Result<Conn, StoreError> {
        let connect_stage = Span::enter(&self.obs.connect_us);
        let stream = TcpStream::connect_timeout(&self.addr, Self::DEFAULT_CONNECT_TIMEOUT)
            .map_err(|e| self.transient_io("dial", &e))?;
        connect_stage.finish();
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Self::DEFAULT_IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(Self::DEFAULT_IO_TIMEOUT));
        let mut conn = Conn { stream };

        // Handshake: hello, proof, counter-proof (mutual).
        let auth_stage = Span::enter(&self.obs.auth_us);
        let server_nonce = match read_frame(&mut conn.stream).map_err(|e| self.handshake_err(e))? {
            Frame::ServerHello { nonce } => nonce,
            Frame::Err(we) => return Err(we.into_store_error(&self.addr.to_string())),
            other => {
                return Err(StoreError::protocol(format!(
                    "peer {} opened with {other:?} instead of a hello",
                    self.addr
                )))
            }
        };
        let client_nonce = auth::fresh_nonce();
        let mac = auth::client_proof(&self.secret, &server_nonce, &client_nonce);
        let reply = conn
            .roundtrip_wire(
                &Frame::AuthProof {
                    nonce: client_nonce,
                    mac,
                }
                .to_wire(),
            )
            .map_err(|e| self.handshake_err(e))?;
        match reply {
            Frame::AuthOk { mac } => {
                if mac != auth::server_proof(&self.secret, &server_nonce, &client_nonce) {
                    return Err(StoreError::protocol(format!(
                        "peer {} failed the mutual auth counter-proof",
                        self.addr
                    )));
                }
            }
            Frame::Err(we) => return Err(we.into_store_error(&self.addr.to_string())),
            other => {
                return Err(StoreError::protocol(format!(
                    "peer {} answered the auth proof with {other:?}",
                    self.addr
                )))
            }
        }
        auth_stage.finish();
        self.obs.connections_opened.inc();
        Ok(conn)
    }

    /// Auth-phase failures: I/O means the peer vanished (transient — it
    /// may be restarting), garbage means it is not speaking our protocol.
    fn handshake_err(&self, e: FrameError) -> StoreError {
        match e {
            FrameError::Io(io) => self.transient_io("handshake", &io),
            FrameError::Malformed(what) => StoreError::protocol(format!(
                "peer {} broke the handshake framing: {what}",
                self.addr
            )),
        }
    }

    fn transient_io(&self, during: &str, e: &std::io::Error) -> StoreError {
        StoreError::transient(format!("connection to {} broke ({during}): {e}", self.addr))
    }

    fn checkin(&self, conn: Conn) {
        Self::checkin_to(&self.idle, Self::DEFAULT_MAX_IDLE, conn);
    }

    fn checkin_to(pool: &Mutex<Vec<Conn>>, limit: usize, conn: Conn) {
        let mut idle = pool.lock();
        if idle.len() < limit {
            idle.push(conn);
        }
        // Beyond the retention limit the connection just drops (closes).
    }

    /// One request/response exchange on a pooled connection, for
    /// requests that are safe to silently re-send (everything except
    /// `put_manifest` — chunk ingest is content-addressed, queries are
    /// pure).
    fn call(&self, request: &Frame) -> Result<Frame, StoreError> {
        let wire = self.encode_timed(|| request.to_wire());
        self.call_wire(&wire, true)
    }

    /// Builds a request's wire bytes under the frame-encode histogram —
    /// the serialisation share of a request, separate from its RTT.
    fn encode_timed(&self, build: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
        let stage = Span::enter(&self.obs.frame_encode_us);
        let wire = build();
        stage.finish();
        wire
    }

    /// [`TcpTransport::call`] on pre-encoded wire bytes.
    ///
    /// A connection that died while parked in the pool is *not* the
    /// wire's verdict: it is discarded and the next one tried, without
    /// charging the caller's bounded retry budget — otherwise a server
    /// restart would make the first few operations exhaust all their
    /// retries on stale sockets while the server is perfectly healthy.
    /// Only a failure on a freshly dialled connection is reported.
    ///
    /// The silent re-send is bounded by `idempotent`: a *write*-phase
    /// failure never delivered a complete frame, so any request may move
    /// to the next socket; a *read*-phase failure on a pooled connection
    /// may mean the server executed the request and only the reply was
    /// lost — re-sending is safe only for idempotent requests, a
    /// non-idempotent one (`put_manifest`, which allocates a fresh image
    /// id per execution) surfaces the failure as transient and leaves
    /// the replay decision to the caller.
    fn call_wire(&self, wire: &[u8], idempotent: bool) -> Result<Frame, StoreError> {
        self.call_wire_on(wire, idempotent, &self.idle, Self::DEFAULT_MAX_IDLE)
    }

    /// [`TcpTransport::call_wire`] drawing connections from `pool` (and
    /// retaining at most `limit` of them afterwards).  The shared pool and
    /// the priority slot run the exact same exchange; only the connection
    /// they contend on differs.
    fn call_wire_on(
        &self,
        wire: &[u8],
        idempotent: bool,
        pool: &Mutex<Vec<Conn>>,
        limit: usize,
    ) -> Result<Frame, StoreError> {
        self.obs.requests.inc();
        let mut attempts = 0usize;
        loop {
            // Every loop iteration past the first is a redial: a parked
            // socket turned out stale and the request silently moved on.
            // Counted apart from `crac_retry_attempts` — the caller's
            // bounded retry budget is never charged for these.
            attempts += 1;
            if attempts > 1 {
                self.obs.redials.inc();
            }
            let pooled = pool.lock().pop();
            let fresh = pooled.is_none();
            let mut conn = match pooled {
                Some(c) => c,
                None => self.dial()?,
            };
            self.obs.connections_in_use.add(1);
            // The two phases fail differently (see the doc comment), so
            // keep them apart instead of folding both into one result.
            // The RTT span covers write-through-reply and records on
            // every exit path, failures included: a timeout on a hung
            // socket *is* the latency this attempt cost.
            let rtt_stage = Span::enter(&self.obs.rtt_us);
            let outcome = match write_wire(&mut conn.stream, wire) {
                Ok(()) => Ok(read_frame(&mut conn.stream)),
                Err(e) => Err(e),
            };
            rtt_stage.finish();
            self.obs.connections_in_use.sub(1);
            let result = match outcome {
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                    // The frame itself is oversized — nothing went out
                    // (the connection is fine) and no retry can shrink
                    // it: permanent.
                    Self::checkin_to(pool, limit, conn);
                    return Err(StoreError::protocol(format!(
                        "request to {} refused before send: {e}",
                        self.addr
                    )));
                }
                Err(e) => {
                    // The send failed: no complete frame was delivered,
                    // so moving to the next socket cannot double-execute
                    // anything — any request may retry here.
                    self.obs.connections_broken.inc();
                    if fresh {
                        return Err(self.transient_io("request", &e));
                    }
                    continue;
                }
                Ok(reply) => reply,
            };
            match result {
                Ok(Frame::Err(we)) => {
                    // A classified refusal is a healthy conversation: the
                    // connection goes back to the pool, the error class
                    // (transient vs permanent) decodes intact.
                    Self::checkin_to(pool, limit, conn);
                    return Err(we.into_store_error(&self.addr.to_string()));
                }
                Ok(frame) => {
                    Self::checkin_to(pool, limit, conn);
                    return Ok(frame);
                }
                Err(FrameError::Io(e)) => {
                    // The reply never arrived: discard the socket.  A
                    // stale pooled connection means "try the next one" —
                    // but only for idempotent requests, since the server
                    // may have executed this one before the socket died.
                    self.obs.connections_broken.inc();
                    if fresh || !idempotent {
                        return Err(self.transient_io("request", &e));
                    }
                }
                Err(FrameError::Malformed(what)) => {
                    self.obs.connections_broken.inc();
                    return Err(StoreError::protocol(format!(
                        "peer {} sent an unreadable frame: {what}",
                        self.addr
                    )));
                }
            }
        }
    }

    /// A response of a kind the request cannot produce.
    fn unexpected(&self, what: &str, got: Frame) -> StoreError {
        StoreError::protocol(format!("peer {} answered {what} with {got:?}", self.addr))
    }
}

impl Transport for TcpTransport {
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError> {
        match self.call(&Frame::HasChunks(hashes.to_vec()))? {
            Frame::Flags(flags) => Ok(flags),
            other => Err(self.unexpected("has_chunks", other)),
        }
    }

    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError> {
        // The replication hot path: encode straight from the borrowed
        // payload, no owned-frame clone per shipped chunk.  Idempotent —
        // the receiver's content-addressed ingest no-ops on a duplicate.
        match self.call_wire(&Frame::put_chunk_wire(hash, file_bytes), true)? {
            Frame::Done => Ok(()),
            other => Err(self.unexpected("put_chunk", other)),
        }
    }

    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        match self.call(&Frame::GetChunk(hash))? {
            Frame::Bytes(bytes) => Ok(bytes),
            other => Err(self.unexpected("get_chunk", other)),
        }
    }

    // A fault-path fetch rides the reserved priority connection: with the
    // shared pool saturated by a background prefetch sweep, the page the
    // restarted process is blocked on still gets a socket immediately
    // instead of queueing per-connection behind bulk chunks.
    fn get_chunk_priority(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        let wire = self.encode_timed(|| Frame::GetChunk(hash).to_wire());
        match self.call_wire_on(&wire, true, &self.priority_idle, 1)? {
            Frame::Bytes(bytes) => Ok(bytes),
            other => Err(self.unexpected("get_chunk", other)),
        }
    }

    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError> {
        match self.call(&Frame::ListManifests)? {
            Frame::Ids(ids) => Ok(ids),
            other => Err(self.unexpected("list_manifests", other)),
        }
    }

    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        match self.call(&Frame::GetManifest(id))? {
            Frame::Bytes(bytes) => Ok(bytes),
            other => Err(self.unexpected("get_manifest", other)),
        }
    }

    fn put_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        // NOT idempotent: each server-side execution allocates a fresh
        // image id, so a lost reply must not be silently replayed.
        match self.call_wire(&Frame::put_manifest_wire(parent, manifest_bytes), false)? {
            Frame::Id(id) => Ok(id),
            other => Err(self.unexpected("put_manifest", other)),
        }
    }
}
