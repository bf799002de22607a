//! A real-socket [`Transport`] backend: loopback TCP + HTTP/1.1.
//!
//! `HttpTransport` serves the same [`WebApp`] handlers that run on
//! [`SimNet`](crate::net::SimNet), but over actual sockets. The wire
//! format is owned by the canonical [`codec`] module
//! (DESIGN.md §14); this module is the fast path that moves those bytes
//! (DESIGN.md §15):
//!
//! * **Server**: every registered authority gets its own `127.0.0.1:0`
//!   listener with one blocking acceptor, and every accepted connection
//!   gets one blocking reader thread. The reader takes whatever bytes
//!   have arrived, serves every complete request among them in order
//!   from a cursor into its buffer (compacted once per read), answers
//!   them all with one write and blocks again: a pipelining client costs
//!   one wake-up per stride instead of one per request, an idle server
//!   burns no CPU, and a handler that blocks holds only its own
//!   connection.
//! * **Client**: one persistent connection per `(thread, transport,
//!   authority)`, found by a linear scan of a thread-local vector (no
//!   locks, no hashing, no allocation on the warm path), with the read
//!   timeout applied only when it changes. Requests serialize straight
//!   into a reused thread-local batch buffer; responses parse out of a
//!   reused read buffer via the codec's borrowed-slice head parser.
//! * **Pipelining**: [`Transport::dispatch_pipelined`] groups a batch by
//!   authority and writes each group's requests as one buffered block on
//!   the persistent connection, then reads the N responses back; a
//!   single dispatch is a one-request batch. Message accounting and
//!   trace events are committed per request, in input order, exactly as
//!   N sequential dispatches would have — batching is invisible to
//!   everything but the wall clock. An exchange's `bytes_on_wire` are
//!   the bytes it moved: its request's span in the batch written and its
//!   response's span in the bytes read.
//!
//! No external HTTP stack, no async runtime, no new dependencies.
//!
//! # Failure classification
//!
//! The transport maps socket-level failures onto the same
//! `x-error-kind` taxonomy the simulated fabric uses:
//!
//! * connection refused, connection reset, malformed frames, or any
//!   other immediate I/O failure → `503` + [`TransportError::Unreachable`];
//! * a read timeout waiting for the response (hung server) → `503` +
//!   [`TransportError::Timeout`].
//!
//! The server side fails closed: a connection that hangs up, sends an
//! oversized, malformed or unparseable message, or leaves half a message
//! idle for the server's read timeout is dropped on the floor, which the
//! client observes (and classifies) as a reset. Wire input never panics
//! a reader, and an idle keep-alive connection may wait indefinitely.
//! Requests that arrived ahead of a malformed message in the same read
//! have run, so their answers are flushed before the drop: the client
//! then holds some answers, takes its partial-failure path and classifies
//! the rest without sending anything again — the transport never
//! double-dispatches.
//!
//! [`kill_listener`](HttpTransport::kill_listener) and
//! [`set_stall`](HttpTransport::set_stall) exist so tests can produce
//! the two failure kinds deliberately (a dead authority and a hung one)
//! and prove the resilience layer behaves identically over both
//! backends.
//!
//! # What stays deterministic, and what does not
//!
//! Protocol outcomes (decisions, status sequences, epoch visibility,
//! sieve installs) and exact message counts — including the codec-exact
//! `bytes_on_wire` cell — are identical to `SimNet` for failure-free
//! runs; the conformance suite diffs them. Wall-clock timing, thread
//! interleavings and therefore req/s are **not** deterministic; the
//! shared [`SimClock`] is never advanced by this transport, so
//! virtual-time behaviour (token lifetimes, grace windows) stays
//! harness-driven exactly as on `SimNet`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::SimClock;
use crate::codec;
use crate::http::{Request, Response, Status, TransportError};
use crate::net::{request_label, response_label, NetAccounting, NetStats, WebApp};
use crate::trace::{TraceKind, TraceRecorder};
use crate::transport::Transport;

pub use crate::codec::MAX_MESSAGE_BYTES;

/// How long the client waits for a TCP connect to complete.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The cadence of the stall-hold loop, and the back-off after a failed
/// `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Server-side patience for the *rest* of a message once its first byte
/// has arrived (loopback peers send whole messages at once), and for a
/// back-pressured response write to drain.
const SERVER_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Most connections a single listener will serve concurrently. Client
/// connections are persistent and bounded by `threads x authorities`,
/// so this is a misbehaving-peer backstop, not a tuning knob.
const MAX_CONNS_PER_LISTENER: usize = 256;

/// Read granularity for both halves; large enough that every protocol
/// message (epoch sieve pushes aside) arrives in one read.
const READ_CHUNK: usize = 16 * 1024;

/// Most persistent connections one client thread keeps before the cache
/// is reset (a backstop for pathological authority churn).
const CONN_CACHE_CAP: usize = 64;

/// Source of unique transport ids for the per-thread connection cache.
static NEXT_HTTP_ID: AtomicU64 = AtomicU64::new(1);

// ---------------------------------------------------------------------------
// Client state (thread-local; no locks on the warm path)
// ---------------------------------------------------------------------------

/// One persistent client connection. The stream stays in blocking mode
/// with `SO_RCVTIMEO` applied lazily (`set_read_timeout` is a syscall;
/// the timeout rarely changes, so it is re-applied only when it does).
struct ClientConn {
    transport_id: u64,
    authority: String,
    stream: TcpStream,
    applied_timeout_ms: u64,
    /// Read-side reassembly buffer (response bytes accumulate here
    /// until a full message is parsed out and drained).
    buf: Vec<u8>,
}

/// Per-thread client scratch: the connection cache plus the reusable
/// encode/read buffers that make the steady state allocation-free.
struct ClientState {
    conns: Vec<ClientConn>,
    /// A pipelined group's worth of encoded requests.
    batch: Vec<u8>,
    /// Each request's length in `batch`, in order.
    sent: Vec<usize>,
    /// Fixed read chunk (boxed so the thread-local stays small).
    chunk: Box<[u8]>,
}

thread_local! {
    /// This thread's persistent connections and codec scratch buffers.
    static CLIENT: RefCell<ClientState> = RefCell::new(ClientState {
        conns: Vec::new(),
        batch: Vec::new(),
        sent: Vec::new(),
        chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
    });

    /// On a connection thread, the acceptor that spawned it (and that
    /// joins it), so a shutdown run there never joins that acceptor.
    static SERVING_FOR: Cell<Option<ThreadId>> = const { Cell::new(None) };
}

// ---------------------------------------------------------------------------
// Routes and shutdown
// ---------------------------------------------------------------------------

/// One registered authority: its listener address, its acceptor, and
/// the state the acceptor's connection threads share.
struct Route {
    addr: SocketAddr,
    state: Arc<RouteState>,
    /// `None` once a shutdown has taken (and joined) it.
    acceptor: Option<JoinHandle<()>>,
}

/// What a route's owner shares with its acceptor and connection threads.
#[derive(Default)]
struct RouteState {
    /// Set by a shutdown: the acceptor admits nothing more and exits,
    /// closing the listener, so new connects are refused.
    dead: AtomicBool,
    /// When set, connection threads hold every response until the flag
    /// clears — the client observes a read timeout.
    stall: AtomicBool,
    /// Live accepted connections by id, so a shutdown can reset them.
    /// Each connection thread removes its own entry as it exits.
    live: Mutex<HashMap<u64, TcpStream>>,
}

/// Marks `route` dead, resets its live connections (unblocking their
/// readers), wakes its blocking `accept` with one throwaway connect and
/// joins the acceptor, which has joined every connection thread. Must be
/// called with the routes lock released: connection threads take it
/// while serving nested dispatches.
fn shut_down(route: Route) {
    {
        let mut live = route.state.live.lock();
        route.state.dead.store(true, Ordering::Release);
        for (_, conn) in live.drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
    let Some(acceptor) = route.acceptor else {
        return;
    };
    let _ = TcpStream::connect_timeout(&route.addr, CONNECT_TIMEOUT);
    // A connection thread can itself drop the last transport handle (its
    // nested-dispatch clone), running this teardown there; its acceptor
    // is waiting for it, so it must not join that acceptor — it exits on
    // its own right after.
    if SERVING_FOR.get() != Some(acceptor.thread().id()) {
        let _ = acceptor.join();
    }
}

struct HttpInner {
    id: u64,
    clock: SimClock,
    trace: TraceRecorder,
    routes: Mutex<HashMap<String, Route>>,
    /// Message accounting shared with `SimNet`. The latency cell sums
    /// measured wall time per dispatch call in µs; [`NetStats`] reports
    /// it in ms (on this backend the "modelled" latency *is* the
    /// measured loopback latency).
    accounting: NetAccounting,
    /// How long the client waits for a response before classifying the
    /// authority as hung ([`TransportError::Timeout`]).
    client_timeout_ms: AtomicU64,
}

impl Drop for HttpInner {
    fn drop(&mut self) {
        for (_, route) in std::mem::take(self.routes.get_mut()) {
            shut_down(route);
        }
    }
}

/// The loopback-TCP transport. See the [module documentation](self).
///
/// Cloning is cheap and shares the listeners, clock, trace and stats —
/// connection threads clone it to serve nested dispatches. Dropping the
/// last handle (from any thread but a connection thread) returns once
/// every listener is closed and every registered application released.
#[derive(Clone)]
pub struct HttpTransport {
    inner: Arc<HttpInner>,
}

impl Default for HttpTransport {
    fn default() -> Self {
        HttpTransport::new()
    }
}

impl std::fmt::Debug for HttpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpTransport")
            .field(
                "authorities",
                &self.inner.routes.lock().keys().collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl HttpTransport {
    /// Creates an empty transport with a fresh clock and no listeners.
    #[must_use]
    pub fn new() -> Self {
        HttpTransport {
            inner: Arc::new(HttpInner {
                id: NEXT_HTTP_ID.fetch_add(1, Ordering::Relaxed),
                clock: SimClock::new(),
                trace: TraceRecorder::new(),
                routes: Mutex::new(HashMap::new()),
                accounting: NetAccounting::new(1000),
                client_timeout_ms: AtomicU64::new(2000),
            }),
        }
    }

    /// Sets how long a dispatch waits for a response before giving up
    /// with [`TransportError::Timeout`]. Tests that hang a listener
    /// lower this so the failure is observed quickly.
    pub fn set_client_timeout_ms(&self, ms: u64) {
        self.inner
            .client_timeout_ms
            .store(ms.max(1), Ordering::Relaxed);
    }

    /// The socket address `authority`'s listener is bound to, if it is
    /// registered (and not killed).
    #[must_use]
    pub fn listener_addr(&self, authority: &str) -> Option<SocketAddr> {
        let routes = self.inner.routes.lock();
        let route = routes.get(authority)?;
        (!route.state.dead.load(Ordering::Acquire)).then_some(route.addr)
    }

    /// Kills `authority`'s listener *without* unregistering it: the
    /// acceptor exits (so new connections are refused by the kernel)
    /// and every live connection is reset. Subsequent dispatches fail
    /// with [`TransportError::Unreachable`] — the real-socket
    /// equivalent of [`SimNet::set_offline`](crate::net::SimNet::set_offline).
    pub fn kill_listener(&self, authority: &str) {
        let taken = {
            let mut routes = self.inner.routes.lock();
            // The (then dead) route stays registered under its address.
            routes.get_mut(authority).map(|route| Route {
                addr: route.addr,
                state: Arc::clone(&route.state),
                acceptor: route.acceptor.take(),
            })
        };
        if let Some(route) = taken {
            shut_down(route);
        }
    }

    /// Makes `authority`'s connection threads hold (`true`) or release
    /// (`false`) their responses. While stalled, dispatches burn the
    /// full client timeout and fail with [`TransportError::Timeout`] —
    /// the real-socket equivalent of a lost message.
    pub fn set_stall(&self, authority: &str, stalled: bool) {
        let routes = self.inner.routes.lock();
        if let Some(route) = routes.get(authority) {
            route.state.stall.store(stalled, Ordering::Release);
        }
    }

    /// The registered address for `to`, dead or alive — a killed route
    /// keeps its address so dispatches attempt a real connect and take
    /// the kernel's refusal, exactly like contacting a crashed server.
    fn listener_known_addr(&self, to: &str) -> Option<SocketAddr> {
        self.inner.routes.lock().get(to).map(|r| r.addr)
    }

    /// Opens and configures a fresh connection to `to`.
    fn connect_fresh(&self, to: &str, timeout_ms: u64) -> Result<ClientConn, Response> {
        let Some(addr) = self.listener_known_addr(to) else {
            return Err(transport_failure(
                TransportError::Unreachable,
                &format!("unreachable authority: {to}"),
            ));
        };
        let stream = match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => stream,
            Err(_) => {
                return Err(transport_failure(
                    TransportError::Unreachable,
                    &format!("connection to {to} refused"),
                ));
            }
        };
        let _ = stream.set_nodelay(true);
        let mut conn = ClientConn {
            transport_id: self.inner.id,
            authority: to.to_owned(),
            stream,
            applied_timeout_ms: 0,
            buf: Vec::new(),
        };
        if apply_timeout(&mut conn, timeout_ms).is_err() {
            return Err(transport_failure(
                TransportError::Unreachable,
                &format!("connection to {to} reset"),
            ));
        }
        Ok(conn)
    }

    /// Sends one authority's slice of a batch: every request encoded
    /// back-to-back into one buffered write, then the responses read
    /// back in order. Returns exactly `ixs.len()` responses, each with the
    /// bytes its exchange moved (none for a failed one). The warm path —
    /// a cached healthy connection — touches no locks at all: it never
    /// consults the route table.
    ///
    /// Retry rule: a failure on the *cached* connection with **zero**
    /// responses received means a stale keep-alive (idle-reaped, killed,
    /// replaced) — the server processed nothing, so the whole group is
    /// retried once on a fresh connection. Any partial failure (k > 0
    /// responses in) classifies the remainder without resending: those
    /// requests may already have executed, and the transport never
    /// double-dispatches.
    fn send_group(
        &self,
        from: &str,
        to: &str,
        reqs: &[Request],
        ixs: &[usize],
    ) -> Vec<(Response, usize)> {
        CLIENT.with(|state| {
            let mut state = state.borrow_mut();
            let state = &mut *state;
            state.batch.clear();
            state.sent.clear();
            for &i in ixs {
                let start = state.batch.len();
                codec::append_request(&mut state.batch, from, &reqs[i]);
                state.sent.push(state.batch.len() - start);
            }
            let timeout_ms = self.inner.client_timeout_ms.load(Ordering::Relaxed);
            let n = ixs.len();
            let (batch, sent) = (&state.batch[..], &state.sent[..]);

            if let Some(ix) = cached_ix(&state.conns, self.inner.id, to) {
                let mut conn = state.conns.swap_remove(ix);
                if apply_timeout(&mut conn, timeout_ms).is_ok() {
                    let (resps, err) = exchange_group(&mut conn, batch, sent, &mut state.chunk);
                    match err {
                        None => {
                            cache_conn(&mut state.conns, conn);
                            return resps;
                        }
                        Some(err) if !resps.is_empty() => {
                            return fill_group_failures(resps, &err, to, n);
                        }
                        Some(_) => {} // stale keep-alive: retry the whole group fresh
                    }
                }
            }

            let mut conn = match self.connect_fresh(to, timeout_ms) {
                Ok(conn) => conn,
                Err(failure) => return vec![(failure, 0); n],
            };
            let (resps, err) = exchange_group(&mut conn, batch, sent, &mut state.chunk);
            match err {
                None => {
                    cache_conn(&mut state.conns, conn);
                    resps
                }
                Some(err) => fill_group_failures(resps, &err, to, n),
            }
        })
    }

    /// Traces and accounts one finished exchange that moved `moved`
    /// bytes, exactly as `SimNet` labels and counts it (both events after
    /// the fact: the exchange already happened on the wire).
    fn record_exchange(&self, from: &str, req: &Request, resp: &Response, moved: usize) {
        let to = req.url.authority();
        let trace = &self.inner.trace;
        trace.record_with(from, to, TraceKind::Request, || request_label(req));
        trace.record_with(from, to, TraceKind::Response, || response_label(resp));
        self.inner
            .accounting
            .record_round_trip(from, req, resp, || moved);
    }
}

impl Transport for HttpTransport {
    fn name(&self) -> &'static str {
        "http"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn register(&self, app: Arc<dyn WebApp>) {
        let authority = app.authority().to_owned();
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let state = Arc::new(RouteState::default());
        let acceptor = {
            let (inner, state) = (Arc::downgrade(&self.inner), Arc::clone(&state));
            std::thread::spawn(move || accept_loop(listener, app.as_ref(), &inner, &state))
        };
        let route = Route {
            addr,
            state,
            acceptor: Some(acceptor),
        };
        let old = self.inner.routes.lock().insert(authority, route);
        if let Some(old) = old {
            shut_down(old);
        }
    }

    fn unregister(&self, authority: &str) {
        let removed = self.inner.routes.lock().remove(authority);
        if let Some(route) = removed {
            shut_down(route);
        }
    }

    fn dispatch(&self, from: &str, req: Request) -> Response {
        self.dispatch_pipelined(from, vec![req])
            .pop()
            .expect("one response per request")
    }

    fn dispatch_pipelined(&self, from: &str, reqs: Vec<Request>) -> Vec<Response> {
        if reqs.is_empty() {
            return Vec::new();
        }

        // Group request indices by authority, first-seen order. Batches
        // are small (a flush's worth), so a linear scan beats hashing.
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let to = req.url.authority();
            match groups.iter_mut().find(|(a, _)| *a == to) {
                Some((_, ixs)) => ixs.push(i),
                None => groups.push((to, vec![i])),
            }
        }

        let started = Instant::now();
        let mut slots: Vec<Option<(Response, usize)>> = Vec::with_capacity(reqs.len());
        slots.resize_with(reqs.len(), || None);
        for (to, ixs) in &groups {
            let resps = self.send_group(from, to, &reqs, ixs);
            for (exchange, &i) in resps.into_iter().zip(ixs) {
                slots[i] = Some(exchange);
            }
        }
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

        // Trace and account in *input* order — request/response pairs
        // exactly as N sequential dispatches would have emitted them, so
        // the conformance logs and every work-count cell stay identical.
        let mut responses = Vec::with_capacity(reqs.len());
        for (req, slot) in reqs.iter().zip(slots) {
            let (resp, moved) = slot.expect("one response per pipelined request");
            self.record_exchange(from, req, &resp, moved);
            responses.push(resp);
        }
        self.inner.accounting.add_latency(wall_us);
        responses
    }

    fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    fn trace(&self) -> &TraceRecorder {
        &self.inner.trace
    }

    fn stats(&self) -> NetStats {
        self.inner.accounting.snapshot()
    }

    fn reset_stats(&self) {
        self.inner.accounting.reset();
    }
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

/// Builds the classified `503` for a transport-level failure.
fn transport_failure(kind: TransportError, why: &str) -> Response {
    Response::with_status(Status::Unavailable)
        .with_body(why.to_owned())
        .with_transport_error(kind)
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn malformed(why: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Position of this thread's cached connection for `(transport, to)`.
fn cached_ix(conns: &[ClientConn], transport_id: u64, to: &str) -> Option<usize> {
    conns
        .iter()
        .position(|c| c.transport_id == transport_id && c.authority == to)
}

/// Returns a healthy connection to the cache. A connection with bytes
/// left in its reassembly buffer is out of sync (the server sent more
/// than was asked for) and is dropped instead.
fn cache_conn(conns: &mut Vec<ClientConn>, conn: ClientConn) {
    if !conn.buf.is_empty() {
        return;
    }
    if conns.len() >= CONN_CACHE_CAP {
        conns.clear();
    }
    conns.push(conn);
}

/// Applies the client read timeout, skipping the syscall when the
/// currently-applied value already matches.
fn apply_timeout(conn: &mut ClientConn, timeout_ms: u64) -> io::Result<()> {
    if conn.applied_timeout_ms != timeout_ms {
        conn.stream
            .set_read_timeout(Some(Duration::from_millis(timeout_ms.max(1))))?;
        conn.applied_timeout_ms = timeout_ms;
    }
    Ok(())
}

/// One blocking read into the reassembly buffer. EOF before a complete
/// response is an error (the peer hung up mid-message).
fn read_more(conn: &mut ClientConn, chunk: &mut [u8]) -> io::Result<()> {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response",
                ))
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(ref err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
}

/// Reads the response that starts at `*at` in the connection's
/// reassembly buffer, pulling more bytes off the socket as needed, and
/// moves `*at` past it, where its pipelined successor starts; returns it
/// with its length on the wire. Only before a read are the bytes of the
/// responses already returned dropped: one compaction per read, not one
/// per response.
fn read_response(
    conn: &mut ClientConn,
    chunk: &mut [u8],
    at: &mut usize,
) -> io::Result<(Response, usize)> {
    let mut scan_from = *at;
    loop {
        if let Some(head_end) = codec::find_head_end(&conn.buf, scan_from) {
            // Usually head and body are both buffered (a pipelined peer
            // coalesces its responses) and one parse does it all.
            let head = codec::parse_head(&conn.buf[*at..head_end]).map_err(malformed)?;
            let end = head_end + head.content_length().map_err(malformed)?;
            if end <= conn.buf.len() {
                let body = &conn.buf[head_end..end];
                let resp = codec::build_response(&head, body).map_err(malformed)?;
                let len = end - *at;
                *at = end;
                return Ok((resp, len));
            }
            // Body still in flight: the head is re-found once it lands.
            scan_from = *at;
        } else {
            scan_from = conn.buf.len().saturating_sub(3).max(*at);
            if conn.buf.len() - *at > MAX_MESSAGE_BYTES {
                return Err(malformed("response head too large"));
            }
        }
        conn.buf.drain(..*at);
        scan_from -= *at;
        *at = 0;
        read_more(conn, chunk)?;
    }
}

/// Writes a pipelined group (one buffered block of requests, `sent`
/// holding each one's length) and reads a response back per request,
/// then drops the bytes the last of them took from the reassembly
/// buffer. Each response comes with the bytes its exchange moved: its
/// request's and its own. On error, returns every response that made it
/// in before the failure alongside the error.
fn exchange_group(
    conn: &mut ClientConn,
    batch: &[u8],
    sent: &[usize],
    chunk: &mut [u8],
) -> (Vec<(Response, usize)>, Option<io::Error>) {
    if let Err(err) = conn.stream.write_all(batch) {
        return (Vec::new(), Some(err));
    }
    let mut resps = Vec::with_capacity(sent.len());
    let mut at = 0;
    for &request_len in sent {
        match read_response(conn, chunk, &mut at) {
            Ok((resp, len)) => resps.push((resp, request_len + len)),
            Err(err) => return (resps, Some(err)),
        }
    }
    conn.buf.drain(..at);
    (resps, None)
}

/// Pads a partially-completed group out to `n` responses, classifying
/// the requests that never got an answer from the group's error; those
/// moved no bytes.
fn fill_group_failures(
    mut resps: Vec<(Response, usize)>,
    err: &io::Error,
    to: &str,
    n: usize,
) -> Vec<(Response, usize)> {
    let failure = if is_timeout(err) {
        transport_failure(
            TransportError::Timeout,
            &format!("timed out waiting for {to}"),
        )
    } else {
        transport_failure(
            TransportError::Unreachable,
            &format!("connection to {to} reset"),
        )
    };
    resps.resize(n, (failure, 0));
    resps
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The acceptor: admits `listener`'s connections until the route dies,
/// serving each on its own scoped thread. It returns once every
/// connection thread has been joined.
fn accept_loop(
    listener: TcpListener,
    app: &dyn WebApp,
    inner: &Weak<HttpInner>,
    state: &RouteState,
) {
    let acceptor = std::thread::current().id();
    std::thread::scope(|scope| {
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            if state.dead.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else {
                // Out of descriptors, or the peer gave up mid-handshake.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            };
            if admit(state, id, &stream) {
                scope.spawn(move || {
                    SERVING_FOR.set(Some(acceptor));
                    serve_conn(stream, app, inner, state);
                    state.live.lock().remove(&id);
                });
            }
        }
        // Refuse new connects while the connection threads wind down.
        drop(listener);
    });
}

/// Admits one accepted connection: NODELAY, the server read and write
/// timeouts, and a clone on the route's kill list, bounded by
/// [`MAX_CONNS_PER_LISTENER`]. `dead` is checked under the kill-list
/// lock, so a connection admitted during a shutdown is either reset by
/// that shutdown or refused here.
fn admit(state: &RouteState, id: u64, stream: &TcpStream) -> bool {
    let _ = stream.set_nodelay(true);
    let clone = stream
        .set_read_timeout(Some(SERVER_READ_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(SERVER_READ_TIMEOUT)))
        .and_then(|()| stream.try_clone());
    let mut live = state.live.lock();
    match clone {
        Ok(clone) if !state.dead.load(Ordering::Acquire) && live.len() < MAX_CONNS_PER_LISTENER => {
            live.insert(id, clone);
            true
        }
        _ => {
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
    }
}

/// One connection's reader. It blocks for bytes, serves every complete
/// request they finish in order, answers them all with one write, and
/// blocks again. Coalescing the answers into one write means a
/// pipelining client is woken once per stride instead of once per
/// response. A stride is served from a cursor into the read buffer, and
/// the buffer is compacted once per read, after the stride.
///
/// Returns — dropping the connection, which the client classifies as a
/// reset — on hang-up, oversize, a malformed head or body, a failed
/// write, a partial message idle for [`SERVER_READ_TIMEOUT`], or a
/// shutdown (which resets the socket under the blocked read). A
/// malformed message or a shutdown met mid-stride first flushes the
/// answers to the requests before it: those requests ran, and a client
/// that saw no answer at all would take its stale keep-alive path and
/// send them again.
fn serve_conn(
    mut stream: TcpStream,
    app: &dyn WebApp,
    inner: &Weak<HttpInner>,
    state: &RouteState,
) {
    let mut chunk = vec![0u8; READ_CHUNK];
    let (mut buf, mut head, mut out) = (Vec::new(), Vec::new(), Vec::new());
    // Where head scanning resumes (incremental `find_head_end`).
    let mut scan_from = 0;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            // An idle keep-alive connection may wait indefinitely; half
            // a message gets SERVER_READ_TIMEOUT from its last byte.
            Err(err) if is_timeout(&err) && buf.is_empty() => continue,
            Err(_) => return,
        }
        // Every byte in `buf` is unconsumed here.
        if buf.len() > MAX_MESSAGE_BYTES {
            return;
        }
        out.clear();
        // The cursor: where the first request no answer covers starts.
        let mut at = 0;
        // The handle handlers dispatch through, taken once per read.
        let mut net = None;
        let open = 'stride: loop {
            let Some(head_end) = codec::find_head_end(&buf, scan_from) else {
                scan_from = buf.len().saturating_sub(3).max(at);
                break true;
            };
            let Ok(parsed) = codec::parse_head(&buf[at..head_end]) else {
                break false;
            };
            let Ok(body_len) = parsed.content_length() else {
                break false;
            };
            let end = head_end + body_len;
            if buf.len() < end {
                // Body still in flight: the head is re-found in one
                // cheap pass once it lands.
                scan_from = at;
                break true;
            }
            let Ok((_from, req)) = codec::build_request(&parsed, &buf[head_end..end]) else {
                break false;
            };
            (at, scan_from) = (end, end);

            // Hold the response while stalled (hung-server fault injection).
            while state.stall.load(Ordering::Acquire) {
                if state.dead.load(Ordering::Acquire) {
                    break 'stride false;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
            let handle = net
                .take()
                .or_else(|| inner.upgrade().map(|inner| HttpTransport { inner }));
            let Some(handle) = handle else {
                break false;
            };
            let resp = app.handle(&handle, &req);
            net = Some(handle);
            codec::encode_response_head_into(&mut head, &resp);
            out.extend_from_slice(&head);
            out.extend_from_slice(resp.body.as_bytes());
        };
        drop(net);
        buf.drain(..at);
        scan_from -= at;
        if !out.is_empty() && stream.write_all(&out).is_err() || !open {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use std::sync::mpsc;

    struct Echo;

    impl WebApp for Echo {
        fn authority(&self) -> &str {
            "echo.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            let mut resp = Response::ok().with_body(format!(
                "{} {} body={} p={}",
                req.method,
                req.url.path(),
                req.body,
                req.param("p").unwrap_or("-"),
            ));
            if let Some(echo) = req.header("x-echo") {
                resp = resp.with_header("x-echoed", echo);
            }
            resp
        }
    }

    struct Proxy;

    impl WebApp for Proxy {
        fn authority(&self) -> &str {
            "proxy.example"
        }
        fn handle(&self, net: &dyn Transport, _req: &Request) -> Response {
            net.dispatch(
                self.authority(),
                Request::new(Method::Get, "https://echo.example/inner"),
            )
        }
    }

    fn echo_transport() -> HttpTransport {
        let t = HttpTransport::new();
        t.register(Arc::new(Echo));
        t
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let t = echo_transport();
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Post, "https://echo.example/pics?p=1")
                .with_body("hello")
                .with_header("x-echo", "marco"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "POST /pics body=hello p=1");
        assert_eq!(resp.header("x-echoed"), Some("marco"));
        assert_eq!(resp.transport_error(), None);
    }

    #[test]
    fn form_and_query_survive_the_wire() {
        let t = echo_transport();
        // Form beats query (Request::param semantics), special chars survive.
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Post, "https://echo.example/x?p=from%20query")
                .with_param("p", "a&b=c d"),
        );
        assert_eq!(resp.body, "POST /x body= p=a&b=c d");
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let t = echo_transport();
        for _ in 0..5 {
            let resp = t.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/k"),
            );
            assert_eq!(resp.status, Status::Ok);
        }
        let stats = t.stats();
        assert_eq!(stats.round_trips, 5);
        assert_eq!(stats.edge("tester", "echo.example"), 5);
        assert!(stats.payload_bytes > 0);
        assert!(stats.bytes_on_wire > 0);
    }

    #[test]
    fn nested_dispatch_over_sockets() {
        let t = echo_transport();
        t.register(Arc::new(Proxy));
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://proxy.example/"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "GET /inner body= p=-");
        assert_eq!(t.stats().round_trips, 2);
        assert_eq!(t.stats().edge("proxy.example", "echo.example"), 1);
    }

    #[test]
    fn unknown_authority_is_unreachable() {
        let t = HttpTransport::new();
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://ghost.example/"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
    }

    #[test]
    fn killed_listener_is_unreachable_then_recovers() {
        let t = echo_transport();
        assert_eq!(
            t.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/a")
            )
            .status,
            Status::Ok
        );
        t.kill_listener("echo.example");
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/a"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        // Re-registering restarts the authority on a fresh listener.
        t.register(Arc::new(Echo));
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/a"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn stalled_listener_times_out() {
        let t = echo_transport();
        t.set_client_timeout_ms(100);
        t.set_stall("echo.example", true);
        let started = Instant::now();
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/s"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Timeout));
        assert!(started.elapsed() >= Duration::from_millis(100));
        t.set_stall("echo.example", false);
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/s"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn unregistered_authority_is_unreachable() {
        let t = echo_transport();
        t.unregister("echo.example");
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/a"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
    }

    #[test]
    fn concurrent_dispatches_are_counted_exactly() {
        const THREADS: usize = 8;
        const EACH: usize = 50;
        let t = echo_transport();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..EACH {
                    let resp = t.dispatch(
                        "tester",
                        Request::new(Method::Post, "https://echo.example/c").with_body("xyz"),
                    );
                    assert_eq!(resp.status, Status::Ok);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.round_trips, (THREADS * EACH) as u64);
        assert_eq!(
            stats.edge("tester", "echo.example"),
            (THREADS * EACH) as u64
        );
    }

    #[test]
    fn trace_matches_simnet_labels() {
        let t = echo_transport();
        t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p")
                .with_param("realm", "r1")
                .with_bearer("tok"),
        );
        let events = t.trace().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Request);
        assert!(events[0].label.contains("GET /p"), "{}", events[0].label);
        assert!(events[0].label.contains("realm=r1"), "{}", events[0].label);
        assert!(events[0].label.contains("bearer"), "{}", events[0].label);
        assert_eq!(events[1].kind, TraceKind::Response);
    }

    #[test]
    fn clock_is_never_advanced_by_dispatch() {
        let t = echo_transport();
        t.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(t.clock().now_ms(), 0);
    }

    #[test]
    fn pipelined_batch_matches_sequential_accounting() {
        // Run the same 6-request batch sequentially and pipelined on two
        // transports; responses, stats and trace labels must agree.
        let make_reqs = || -> Vec<Request> {
            (0..6)
                .map(|i| {
                    Request::new(Method::Post, &format!("https://echo.example/b?p={i}"))
                        .with_body(format!("body-{i}"))
                })
                .collect()
        };

        let seq = echo_transport();
        let seq_resps: Vec<Response> = make_reqs()
            .into_iter()
            .map(|req| seq.dispatch("tester", req))
            .collect();

        let piped = echo_transport();
        let piped_resps = piped.dispatch_pipelined("tester", make_reqs());

        assert_eq!(seq_resps, piped_resps);
        for (i, resp) in piped_resps.iter().enumerate() {
            assert_eq!(resp.body, format!("POST /b body=body-{i} p={i}"));
        }

        let (a, b) = (seq.stats(), piped.stats());
        assert_eq!(a.round_trips, b.round_trips);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        assert_eq!(a.bytes_on_wire, b.bytes_on_wire);
        assert_eq!(a.per_edge, b.per_edge);

        let labels = |t: &HttpTransport| -> Vec<String> {
            t.trace().events().iter().map(|e| e.label.clone()).collect()
        };
        assert_eq!(labels(&seq), labels(&piped));
    }

    #[test]
    fn pipelined_batch_spans_authorities_in_input_order() {
        let t = echo_transport();
        t.register(Arc::new(Proxy));
        let reqs = vec![
            Request::new(Method::Get, "https://echo.example/a?p=0"),
            Request::new(Method::Get, "https://proxy.example/"),
            Request::new(Method::Get, "https://echo.example/a?p=2"),
        ];
        let resps = t.dispatch_pipelined("tester", reqs);
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].body, "GET /a body= p=0");
        assert_eq!(resps[1].body, "GET /inner body= p=-");
        assert_eq!(resps[2].body, "GET /a body= p=2");
        // 3 batched + 1 nested (proxy -> echo).
        assert_eq!(t.stats().round_trips, 4);
        assert_eq!(t.stats().edge("tester", "echo.example"), 2);
        assert_eq!(t.stats().edge("tester", "proxy.example"), 1);
    }

    #[test]
    fn pipelined_batch_to_unknown_authority_fails_every_request() {
        let t = echo_transport();
        let reqs = vec![
            Request::new(Method::Get, "https://echo.example/ok"),
            Request::new(Method::Get, "https://ghost.example/x"),
            Request::new(Method::Get, "https://ghost.example/y"),
        ];
        let resps = t.dispatch_pipelined("tester", reqs);
        assert_eq!(resps[0].status, Status::Ok);
        for resp in &resps[1..] {
            assert_eq!(resp.status, Status::Unavailable);
            assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        }
        // Failed round trips still count as trips, but contribute no
        // wire bytes (same rule as SimNet).
        assert_eq!(t.stats().round_trips, 3);
        assert_eq!(t.stats().edge("tester", "ghost.example"), 2);
    }

    #[test]
    fn bytes_on_wire_matches_simnet_exactly() {
        use crate::net::SimNet;
        let http = echo_transport();
        let sim = SimNet::new();
        sim.register(Arc::new(Echo));
        let make = || {
            Request::new(Method::Post, "https://echo.example/w?p=zed")
                .with_param("realm", "r")
                .with_header("x-echo", "polo")
                .with_body("payload")
        };
        let a = http.dispatch("tester", make());
        let b = sim.dispatch("tester", make());
        assert_eq!(a, b);
        assert_eq!(http.stats().bytes_on_wire, sim.stats().bytes_on_wire);
        assert!(http.stats().bytes_on_wire > 0);
    }

    /// A pipelined batch over two authorities (one of them dispatching a
    /// nested request) with one failed exchange, a reset, and a second
    /// batch: HTTP counts the bytes it moved, SimNet its arithmetic
    /// twins, and every other cell and edge the same way. Latency is left
    /// out: HTTP's is measured wall time.
    #[test]
    fn a_pipelined_batch_accounts_on_http_as_on_simnet() {
        use crate::net::SimNet;
        let http = echo_transport();
        http.register(Arc::new(Proxy));
        let sim = SimNet::new();
        sim.register(Arc::new(Echo));
        sim.register(Arc::new(Proxy));
        let first = || {
            vec![
                Request::new(Method::Post, "https://echo.example/a?p=0&q=a%20b")
                    .with_param("realm", "r&1")
                    .with_body("payload"),
                Request::new(Method::Get, "https://proxy.example/"),
                Request::new(Method::Get, "https://ghost.example/x"),
                Request::new(Method::Get, "https://echo.example/b").with_header("x-echo", "polo"),
            ]
        };
        let second = || {
            vec![
                Request::new(Method::Get, "https://proxy.example/again"),
                Request::new(Method::Put, "https://echo.example/c").with_body("é"),
            ]
        };
        let counts = |t: &dyn Transport| NetStats {
            modelled_latency_ms: 0,
            ..t.stats()
        };
        let transports: [&dyn Transport; 2] = [&http, &sim];
        let mut before_reset = Vec::new();
        let mut after = Vec::new();
        for t in transports {
            let resps = t.dispatch_pipelined("tester", first());
            assert_eq!(
                resps[2].transport_error(),
                Some(TransportError::Unreachable)
            );
            before_reset.push((resps, counts(t)));
            t.reset_stats();
            after.push((t.dispatch_pipelined("tester", second()), counts(t)));
        }
        assert_eq!(before_reset[0], before_reset[1]);
        assert_eq!(after[0], after[1]);
        let stats = &before_reset[0].1;
        assert_eq!(stats.round_trips, 5);
        assert_eq!(stats.edge("tester", "ghost.example"), 1);
        assert_eq!(stats.edge("proxy.example", "echo.example"), 1);
        assert!(stats.bytes_on_wire > 0);
        assert_eq!(after[0].1.round_trips, 3);
        assert_eq!(after[0].1.edge("tester", "ghost.example"), 0);
        assert_eq!(after[0].1.per_edge.len(), 3);
    }

    #[test]
    fn short_lived_clients_never_exhaust_the_listener() {
        // Each client thread opens its own connection and closes it on
        // exit, so the listener must keep admitting well past
        // MAX_CONNS_PER_LISTENER connections over its lifetime.
        let t = echo_transport();
        for i in 0..300 {
            let t = t.clone();
            let resp = std::thread::spawn(move || {
                t.dispatch(
                    "tester",
                    Request::new(Method::Get, "https://echo.example/once"),
                )
            })
            .join()
            .unwrap();
            assert_eq!(resp.status, Status::Ok, "client {i}: {}", resp.body);
        }
    }

    /// `/block` signals entry, then waits until the test releases the
    /// gate; `/ping` answers at once.
    struct Gate {
        entered: mpsc::Sender<()>,
        release: Mutex<()>,
    }

    impl WebApp for Gate {
        fn authority(&self) -> &str {
            "gate.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            if req.url.path() == "/block" {
                let _ = self.entered.send(());
                drop(self.release.lock());
            }
            Response::ok().with_body(req.url.path().to_owned())
        }
    }

    #[test]
    fn blocked_handler_holds_only_its_own_connection() {
        const BLOCKERS: usize = 5;
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new(Gate {
            entered: entered_tx,
            release: Mutex::new(()),
        });
        let t = HttpTransport::new();
        t.set_client_timeout_ms(10_000);
        t.register(gate.clone());
        let send = |path: &str, done: Option<mpsc::Sender<Response>>| {
            let (t, url) = (t.clone(), format!("https://gate.example{path}"));
            std::thread::spawn(move || {
                let resp = t.dispatch("tester", Request::new(Method::Get, &url));
                if let Some(done) = done {
                    let _ = done.send(resp.clone());
                }
                resp
            })
        };

        let held = gate.release.lock();
        let mut blockers = Vec::new();
        let mut entered = 0;
        while entered < BLOCKERS {
            blockers.push(send("/block", None));
            if entered_rx.recv_timeout(Duration::from_secs(2)).is_err() {
                break;
            }
            entered += 1;
        }
        let (ping_tx, ping_rx) = mpsc::channel();
        let pinger = send("/ping", Some(ping_tx));
        let ping = ping_rx.recv_timeout(Duration::from_secs(2));
        drop(held);
        pinger.join().unwrap();
        let answers: Vec<Response> = blockers.into_iter().map(|b| b.join().unwrap()).collect();

        assert_eq!(
            entered, BLOCKERS,
            "a blocked handler held up later connections"
        );
        let ping = ping.expect("/ping got no answer while the blockers were held");
        assert_eq!(ping.body, "/ping");
        for answer in answers {
            assert_eq!(answer.body, "/block");
        }
    }

    /// Counts the `/create` requests it serves.
    #[derive(Default)]
    struct Creates(AtomicU64);

    impl WebApp for Creates {
        fn authority(&self) -> &str {
            "creates.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            if req.url.path() == "/create" {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            Response::ok().with_body(req.url.path().to_owned())
        }
    }

    #[test]
    fn a_malformed_message_mid_stride_is_answered_after_the_requests_before_it() {
        let creates = Arc::new(Creates::default());
        let t = HttpTransport::new();
        t.register(creates.clone());
        // A warm keep-alive connection: a drop with no answer on it reads
        // as a stale one, and the client sends the whole group again.
        let warm = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://creates.example/warm"),
        );
        assert_eq!(warm.status, Status::Ok);
        let mut bloated = Request::new(Method::Get, "https://creates.example/bloated");
        for i in 0..=codec::MAX_HEADERS {
            bloated = bloated.with_header(&format!("x-pad-{i}"), "1");
        }
        let create = Request::new(Method::Post, "https://creates.example/create");
        let resps = t.dispatch_pipelined("tester", vec![create, bloated]);
        assert_eq!(creates.0.load(Ordering::SeqCst), 1, "/create ran twice");
        assert_eq!(resps[0].status, Status::Ok);
        assert_eq!(resps[0].body, "/create");
        assert_eq!(resps[1].status, Status::Unavailable);
        assert_eq!(
            resps[1].transport_error(),
            Some(TransportError::Unreachable)
        );

        // A body over the message cap after a good request: the good one
        // is answered, then the connection drops.
        let addr = t.listener_addr("creates.example").unwrap();
        let mut wire = Vec::new();
        let create = Request::new(Method::Post, "https://creates.example/create");
        codec::encode_request_into(&mut wire, "tester", &create);
        let over = format!(
            "POST /create HTTP/1.1\r\nhost: creates.example\r\ncontent-length: {}\r\n\r\n",
            MAX_MESSAGE_BYTES + 1
        );
        wire.extend_from_slice(over.as_bytes());
        let back = String::from_utf8(exchange_raw(addr, &wire, None)).unwrap();
        assert!(back.starts_with("HTTP/1.1 200 OK\r\n"), "{back:?}");
        assert!(back.ends_with("\r\n\r\n/create"), "{back:?}");
        assert_eq!(back.matches("HTTP/1.1").count(), 1, "{back:?}");
        assert_eq!(creates.0.load(Ordering::SeqCst), 2);
    }

    /// Writes `wire` to a fresh connection to `addr`, in two writes split
    /// at `cut` (with a pause between, so the server most likely reads
    /// them apart), half-closes, and returns everything read back.
    fn exchange_raw(addr: SocketAddr, wire: &[u8], cut: Option<usize>) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(SERVER_READ_TIMEOUT)).unwrap();
        let cut = cut.unwrap_or(wire.len());
        stream.write_all(&wire[..cut]).unwrap();
        if 0 < cut && cut < wire.len() {
            std::thread::sleep(Duration::from_micros(500));
        }
        stream.write_all(&wire[cut..]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        stream.read_to_end(&mut back).unwrap();
        back
    }

    #[test]
    fn a_pipelined_stride_split_anywhere_is_answered_in_order() {
        const K: usize = 3;
        let t = echo_transport();
        let addr = t.listener_addr("echo.example").unwrap();
        let (mut block, mut wire) = (Vec::new(), Vec::new());
        for i in 0..K {
            let req = Request::new(Method::Post, &format!("https://echo.example/s?p={i}"))
                .with_body(format!("b{i}"));
            codec::encode_request_into(&mut wire, "tester", &req);
            block.extend_from_slice(&wire);
        }
        for cut in 0..=block.len() {
            let back = exchange_raw(addr, &block, Some(cut));
            let mut at = 0;
            for i in 0..K {
                let head_end = codec::find_head_end(&back, at).expect("a whole answer");
                let head = codec::parse_head(&back[at..head_end]).unwrap();
                let end = head_end + head.content_length().unwrap();
                let resp = codec::build_response(&head, &back[head_end..end]).unwrap();
                assert_eq!(
                    resp.body,
                    format!("POST /s body=b{i} p={i}"),
                    "cut at {cut}"
                );
                at = end;
            }
            assert_eq!(at, back.len(), "cut at {cut}: more than {K} answers");
        }
    }

    #[test]
    fn dropping_the_last_handle_releases_every_app() {
        let t = echo_transport();
        let proxy: Arc<dyn WebApp> = Arc::new(Proxy);
        let released = Arc::downgrade(&proxy);
        t.register(proxy);
        let resp = t.dispatch(
            "tester",
            Request::new(Method::Get, "https://proxy.example/"),
        );
        assert_eq!(resp.status, Status::Ok);
        drop(t);
        assert!(
            released.upgrade().is_none(),
            "an app outlived its transport"
        );
    }
}
