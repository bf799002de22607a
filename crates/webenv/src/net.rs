//! The in-memory network connecting all simulated Web applications.
//!
//! `SimNet` is the workspace's substitute for the public Internet of the
//! paper's deployment (Java prototype on Google App Engine). Applications
//! register under an authority; any party dispatches [`Request`]s to an
//! authority and receives a [`Response`] synchronously. Each dispatch:
//!
//! 1. records the request and response in the shared [`TraceRecorder`]
//!    (lazily — labels are never built while tracing is disabled),
//! 2. increments per-edge message counters in [`NetStats`],
//! 3. charges the configured [`LatencyModel`] (one hop each way) to the
//!    shared [`SimClock`].
//!
//! Applications may themselves call back into the network while handling a
//! request (e.g. a Host querying its Authorization Manager for a decision,
//! Fig. 6) — nested dispatch is explicitly supported.
//!
//! Failure injection: [`SimNet::set_offline`] makes an authority unreachable
//! (responses become `503 Unavailable`), which the test suite uses to probe
//! Host behaviour when the AM is down. Richer fault shapes build on the
//! same paths: [`SimNet::set_flap`] drives clock-scheduled transient
//! outages, [`SimNet::set_loss_every`] drops every n-th message, and
//! [`SimNet::set_burst_loss`] drops whole seeded windows of traffic.
//! Every fabric-synthesized failure carries a [`TransportError`]
//! classification (`x-error-kind` header) so callers can tell a partition
//! ([`TransportError::Unreachable`]) from a lost message
//! ([`TransportError::Timeout`]).
//!
//! # Concurrency model (DESIGN.md §9)
//!
//! Dispatch is the hot path of every experiment, so it acquires **no
//! shared lock** when tracing and loss injection are off:
//!
//! * the routing table, latency model and offline set live in one
//!   immutable `ConfigSnapshot` behind a generation stamp; each thread
//!   caches the current snapshot and revalidates it with a single atomic
//!   load, so registration churn never stalls in-flight dispatches;
//! * statistics land in this thread's stripe of one [`Counters`] block
//!   plus a per-stripe edge map, shared with
//!   [`HttpTransport`](crate::httpnet::HttpTransport) and only aggregated
//!   when [`SimNet::stats`] takes a snapshot; a round trip reaches its
//!   edge's count through a per-thread memo, without the map's lock;
//! * the loss model is an atomic counter — the no-loss path performs one
//!   relaxed load and no read-modify-write.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::SimClock;
use crate::counters::{thread_stripe, Counters, STRIPES};
use crate::http::{Request, Response, Status, TransportError};
use crate::latency::{splitmix64, LatencyModel};
use crate::trace::{TraceKind, TraceRecorder};
use crate::transport::Transport;

/// A Web application addressable on a [`Transport`] backend (the
/// in-process [`SimNet`] or the loopback-TCP
/// [`HttpTransport`](crate::httpnet::HttpTransport)).
pub trait WebApp: Send + Sync {
    /// The authority (host name) this application is registered under,
    /// e.g. `"webpics.example"`.
    fn authority(&self) -> &str;

    /// Handles one request. Implementations may dispatch further requests
    /// through `net` (nested calls are supported on both backends).
    fn handle(&self, net: &dyn Transport, req: &Request) -> Response;
}

/// Aggregate message statistics collected by the network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Number of request/response round trips dispatched.
    pub round_trips: u64,
    /// Round trips per directed (from, to) edge.
    pub per_edge: BTreeMap<(String, String), u64>,
    /// Total modelled latency charged to the clock, in milliseconds.
    pub modelled_latency_ms: u64,
    /// Total payload bytes carried (request bodies + response bodies +
    /// header values) — the modelled bandwidth cost.
    pub payload_bytes: u64,
    /// Exact serialized size of every *successful* round trip, as the
    /// canonical HTTP/1.1 codec frames it ([`crate::codec`]): request
    /// head + body plus response head + body. Failed dispatches (the
    /// fabric's synthesized 503s) contribute nothing, which is what
    /// keeps this counter bit-identical across backends — failure
    /// bodies are backend-specific, healthy messages are not.
    pub bytes_on_wire: u64,
}

impl NetStats {
    /// Total messages on the wire (each round trip is two messages).
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.round_trips * 2
    }

    /// Round trips sent from `from` to `to`.
    #[must_use]
    pub fn edge(&self, from: &str, to: &str) -> u64 {
        self.per_edge
            .get(&(from.to_owned(), to.to_owned()))
            .copied()
            .unwrap_or(0)
    }
}

/// Slots a thread keeps in its snapshot cache before evicting the oldest.
const CONFIG_CACHE_SLOTS: usize = 8;

/// The cells of [`NetAccounting`], in commit order: a round trip bumps
/// its edge, then these from the lowest index up. A snapshot reads them
/// from the highest index down and the edges last, so it never counts a
/// round trip's latency without the trip, nor the trip without its edge.
const PAYLOAD_BYTES: usize = 0;
const BYTES_ON_WIRE: usize = 1;
const ROUND_TRIPS: usize = 2;
const LATENCY: usize = 3;

/// One edge's round trips on one stripe, on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
struct EdgeCount(AtomicU64);

/// `from -> to -> count`, two-level so a lookup borrows its keys. Only a
/// memo miss and a snapshot read it, under its stripe's lock.
type EdgeMap = HashMap<String, HashMap<String, Arc<EdgeCount>>>;

/// One stripe's edge map, aligned like the counter stripes so two
/// threads' mutexes never share a cache line.
#[repr(align(64))]
#[derive(Default)]
struct EdgeStripe(Mutex<EdgeMap>);

/// Source of unique accounting ids for the per-thread edge memo.
static NEXT_ACCOUNTING_ID: AtomicU64 = AtomicU64::new(1);

/// Slots in each thread's edge memo (a power of two).
const EDGE_MEMO_SLOTS: usize = 256;

/// One edge of one accounting block, remembered by a thread: both names
/// in full, and the edge's count on the thread's stripe.
struct EdgeMemo {
    block: u64,
    from: String,
    to: String,
    count: Arc<EdgeCount>,
}

thread_local! {
    /// This thread's direct-mapped edge memo, allocated on first use.
    static EDGE_MEMO: RefCell<Vec<Option<EdgeMemo>>> = const { RefCell::new(Vec::new()) };
}

/// A name's first and last eight bytes (a shorter name's bytes in one
/// word, twice), which with the lengths pick an edge's memo slot.
fn name_words(name: &str) -> [u64; 2] {
    let bytes = name.as_bytes();
    match (bytes.first_chunk::<8>(), bytes.last_chunk::<8>()) {
        (Some(&first), Some(&last)) => [u64::from_le_bytes(first), u64::from_le_bytes(last)],
        _ => {
            let word = bytes.iter().fold(0, |w, &b| w << 8 | u64::from(b));
            [word, word]
        }
    }
}

/// The memo slot of edge `from -> to` of accounting block `block`: a
/// multiplicative mix of the block, both lengths and both names' ends.
/// Names alike at both ends share a slot; the slot compares them in full.
fn memo_slot(block: u64, from: &str, to: &str) -> usize {
    let [f0, f1] = name_words(from);
    let [t0, t1] = name_words(to);
    let lens = (from.len() as u64) << 32 | to.len() as u64;
    let h = [lens, f0, f1, t0, t1].into_iter().fold(block, |h, w| {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    });
    (h >> 32) as usize & (EDGE_MEMO_SLOTS - 1)
}

/// The message accounting both transport backends share: the four
/// [`NetStats`] cells in one [`Counters`] block plus an edge map per
/// stripe, all under the block's seqlock. A round trip finds its edge's
/// count through this thread's memo, so a warm one takes no lock and
/// hashes no name. Each backend keeps its own trace-event timing; only
/// the labels ([`request_label`], [`response_label`]) are shared.
pub(crate) struct NetAccounting {
    /// Keys this block's edges in the per-thread memos.
    id: u64,
    cells: Counters<4>,
    edges: [EdgeStripe; STRIPES],
    /// Latency-cell units per reported millisecond: 1 for SimNet's
    /// modelled milliseconds, 1000 for HttpTransport's measured µs.
    latency_per_ms: u64,
}

impl NetAccounting {
    pub(crate) fn new(latency_per_ms: u64) -> Self {
        NetAccounting {
            id: NEXT_ACCOUNTING_ID.fetch_add(1, Ordering::Relaxed),
            cells: Counters::new(),
            edges: std::array::from_fn(|_| EdgeStripe::default()),
            latency_per_ms,
        }
    }

    /// Commits one round trip on this thread's stripe: its edge, payload
    /// and wire bytes, then the trip itself. `wire` gives the bytes the
    /// exchange occupies on the wire; it is asked only when the exchange
    /// succeeded, since failed ones count none.
    pub(crate) fn record_round_trip(
        &self,
        from: &str,
        req: &Request,
        resp: &Response,
        wire: impl FnOnce() -> usize,
    ) {
        self.bump_edge(from, req.url.authority());
        let payload = req.body.len()
            + req.headers.value_bytes()
            + req.form.value_bytes()
            + resp.body.len()
            + resp.headers.value_bytes();
        self.cells.add(PAYLOAD_BYTES, payload as u64);
        if resp.transport_error().is_none() {
            self.cells.add(BYTES_ON_WIRE, wire() as u64);
        }
        self.cells.add(ROUND_TRIPS, 1);
    }

    /// Counts one round trip on `from -> to` through this thread's memo;
    /// only a memo miss takes the stripe's lock to find the edge's count.
    fn bump_edge(&self, from: &str, to: &str) {
        EDGE_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.is_empty() {
                memo.resize_with(EDGE_MEMO_SLOTS, || None);
            }
            let slot = &mut memo[memo_slot(self.id, from, to)];
            match slot {
                Some(held) if held.block == self.id && held.from == from && held.to == to => {
                    held.count.0.fetch_add(1, Ordering::Release);
                }
                _ => {
                    let count = self.edge_count(from, to);
                    count.0.fetch_add(1, Ordering::Release);
                    // The evicted edge's name buffers are reused.
                    let held = slot.get_or_insert_with(|| EdgeMemo {
                        block: self.id,
                        from: String::new(),
                        to: String::new(),
                        count: Arc::clone(&count),
                    });
                    held.block = self.id;
                    held.from.clear();
                    held.from.push_str(from);
                    held.to.clear();
                    held.to.push_str(to);
                    held.count = count;
                }
            }
        });
    }

    /// The count of `from -> to` on this thread's stripe, registered at
    /// zero the first time the stripe sees the edge.
    fn edge_count(&self, from: &str, to: &str) -> Arc<EdgeCount> {
        let mut edges = self.edges[thread_stripe()].0.lock();
        if let Some(count) = edges.get(from).and_then(|inner| inner.get(to)) {
            return Arc::clone(count);
        }
        let inner = edges.entry(from.to_owned()).or_default();
        Arc::clone(inner.entry(to.to_owned()).or_default())
    }

    /// Charges latency (in the backend's units) for round trips already
    /// committed.
    pub(crate) fn add_latency(&self, units: u64) {
        if units > 0 {
            self.cells.add(LATENCY, units);
        }
    }

    /// Cells and edges from one validated seqlock generation. An edge
    /// enters `per_edge` only with a nonzero count.
    pub(crate) fn snapshot(&self) -> NetStats {
        let (cells, per_edge) = self.cells.snapshot_with(|| {
            let mut per_edge = BTreeMap::new();
            for stripe in &self.edges {
                for (from, inner) in stripe.0.lock().iter() {
                    for (to, count) in inner {
                        let count = count.0.load(Ordering::Acquire);
                        if count > 0 {
                            *per_edge.entry((from.clone(), to.clone())).or_insert(0) += count;
                        }
                    }
                }
            }
            per_edge
        });
        NetStats {
            round_trips: cells[ROUND_TRIPS],
            per_edge,
            modelled_latency_ms: cells[LATENCY] / self.latency_per_ms,
            payload_bytes: cells[PAYLOAD_BYTES],
            bytes_on_wire: cells[BYTES_ON_WIRE],
        }
    }

    /// Zeroes the cells and every edge count in one odd generation. The
    /// edges stay registered (the memos hold their counts), so a snapshot
    /// leaves out the zeroed ones.
    pub(crate) fn reset(&self) {
        self.cells.reset_with(|| {
            for stripe in &self.edges {
                for inner in stripe.0.lock().values() {
                    for count in inner.values() {
                        count.0.store(0, Ordering::Relaxed);
                    }
                }
            }
        });
    }
}

/// A clock-driven transient-outage schedule for one authority: within
/// every `period_ms` window (shifted by `phase_ms`), the authority is
/// down for the first `down_ms` milliseconds and up for the rest.
///
/// Purely a function of the shared [`SimClock`], so flap behaviour is
/// deterministic and replayable: the same access sequence against the
/// same clock observes the same outages.
///
/// # Example
///
/// ```
/// use ucam_webenv::FlapSchedule;
///
/// let flap = FlapSchedule { period_ms: 100, down_ms: 30, phase_ms: 0 };
/// assert!(flap.is_down_at(0));
/// assert!(flap.is_down_at(29));
/// assert!(!flap.is_down_at(30));
/// assert!(flap.is_down_at(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// Length of one up/down cycle in milliseconds.
    pub period_ms: u64,
    /// Milliseconds at the start of each cycle during which the
    /// authority is unreachable. Must be below `period_ms` for the
    /// authority to ever come back up.
    pub down_ms: u64,
    /// Shifts the cycle so multiple authorities need not flap in phase.
    pub phase_ms: u64,
}

impl FlapSchedule {
    /// Returns `true` when the schedule has the authority down at
    /// `now_ms`. A zero `period_ms` or `down_ms` never flaps.
    #[must_use]
    pub fn is_down_at(&self, now_ms: u64) -> bool {
        if self.period_ms == 0 || self.down_ms == 0 {
            return false;
        }
        (now_ms + self.phase_ms) % self.period_ms < self.down_ms
    }
}

/// The immutable routing/latency/offline configuration, swapped wholesale
/// on every mutation and revalidated by readers with one atomic load.
#[derive(Clone, Default)]
struct ConfigSnapshot {
    apps: HashMap<String, Arc<dyn WebApp>>,
    latency: LatencyModel,
    offline: HashSet<String>,
    /// Clock-driven transient-outage schedules per authority. The clock
    /// is only consulted when this map is non-empty, keeping the
    /// steady-state dispatch path unchanged.
    flaps: HashMap<String, FlapSchedule>,
}

/// Source of unique network ids for the per-thread snapshot cache.
static NEXT_NET_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Cached `(net id, generation, snapshot)` triples, newest last.
    static CONFIG_CACHE: RefCell<Vec<(u64, u64, Arc<ConfigSnapshot>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The in-memory network. See the [module documentation](self).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use ucam_webenv::{Method, Request, Response, SimNet, Status, Transport, WebApp};
///
/// struct Ping;
/// impl WebApp for Ping {
///     fn authority(&self) -> &str { "ping.example" }
///     fn handle(&self, _net: &dyn Transport, _req: &Request) -> Response {
///         Response::ok().with_body("pong")
///     }
/// }
///
/// let net = SimNet::new();
/// net.register(Arc::new(Ping));
/// let resp = net.dispatch("tester", Request::new(Method::Get, "https://ping.example/"));
/// assert_eq!(resp.status, Status::Ok);
/// assert_eq!(net.stats().round_trips, 1);
/// ```
pub struct SimNet {
    /// Globally unique id keying the per-thread snapshot cache.
    id: u64,
    config: Mutex<Arc<ConfigSnapshot>>,
    /// Bumped (under the `config` lock) on every configuration change.
    config_gen: AtomicU64,
    clock: SimClock,
    trace: TraceRecorder,
    accounting: NetAccounting,
    /// Loss model: every `loss_period`-th dispatch (counting from the
    /// `loss_offset`-th) is dropped; `loss_period == 0` disables.
    loss_period: AtomicU64,
    loss_offset: AtomicU64,
    loss_dispatched: AtomicU64,
    /// Burst-loss model: dispatches are grouped into windows of
    /// `burst_window` consecutive dispatches; a seeded draw per window
    /// decides whether the *whole* window is dropped. `burst_window == 0`
    /// disables.
    burst_window: AtomicU64,
    burst_prob_pct: AtomicU64,
    burst_seed: AtomicU64,
    /// Counts read-modify-write operations on the loss state performed by
    /// dispatches — the regression guard proving the loss-off fast path
    /// never touches writable loss state (it must stay zero while no loss
    /// model is configured).
    loss_write_ops: AtomicU64,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("apps", &self.config.lock().apps.keys().collect::<Vec<_>>())
            .field("clock_ms", &self.clock.now_ms())
            .finish_non_exhaustive()
    }
}

impl Default for SimNet {
    fn default() -> Self {
        SimNet::new()
    }
}

impl SimNet {
    /// Creates an empty network with a zero-latency model and a fresh clock.
    #[must_use]
    pub fn new() -> Self {
        SimNet {
            id: NEXT_NET_ID.fetch_add(1, Ordering::Relaxed),
            config: Mutex::new(Arc::new(ConfigSnapshot::default())),
            config_gen: AtomicU64::new(0),
            clock: SimClock::new(),
            trace: TraceRecorder::new(),
            accounting: NetAccounting::new(1),
            loss_period: AtomicU64::new(0),
            loss_offset: AtomicU64::new(0),
            loss_dispatched: AtomicU64::new(0),
            burst_window: AtomicU64::new(0),
            burst_prob_pct: AtomicU64::new(0),
            burst_seed: AtomicU64::new(0),
            loss_write_ops: AtomicU64::new(0),
        }
    }

    /// Registers an application under its [`WebApp::authority`]. A second
    /// registration for the same authority replaces the first.
    pub fn register(&self, app: Arc<dyn WebApp>) {
        self.update_config(|config| {
            config.apps.insert(app.authority().to_owned(), app);
        });
    }

    /// Removes the application registered under `authority`.
    pub fn unregister(&self, authority: &str) {
        self.update_config(|config| {
            config.apps.remove(authority);
        });
    }

    /// Returns the shared simulated clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Returns the shared protocol trace recorder.
    #[must_use]
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Replaces the latency model.
    pub fn set_latency(&self, model: LatencyModel) {
        self.update_config(|config| config.latency = model);
    }

    /// Injects deterministic message loss: every `period`-th dispatch
    /// (counting from the `offset`-th) fails with `503 Unavailable`
    /// without reaching the application. Pass `period = 0` to disable.
    ///
    /// # Panics
    ///
    /// Panics when `offset >= period` (for a non-zero period).
    pub fn set_loss_every(&self, period: u64, offset: u64) {
        if period == 0 {
            self.loss_period.store(0, Ordering::Release);
            return;
        }
        assert!(offset < period, "offset must be below period");
        self.loss_dispatched.store(0, Ordering::Relaxed);
        self.loss_offset.store(offset, Ordering::Relaxed);
        // Published last, so a dispatch that observes the new period also
        // observes the reset counter and offset.
        self.loss_period.store(period, Ordering::Release);
    }

    /// Injects seeded burst loss: dispatches are grouped into consecutive
    /// windows of `window` dispatches, and each window is dropped in its
    /// entirety with probability `prob_pct`% — decided by a deterministic
    /// draw from `seed` and the window index, so a given seed always drops
    /// the same windows. Models correlated outages (a congested queue, a
    /// dying link) rather than independent per-message loss. Pass
    /// `window = 0` to disable.
    ///
    /// # Panics
    ///
    /// Panics when `prob_pct > 100`.
    pub fn set_burst_loss(&self, window: u64, prob_pct: u64, seed: u64) {
        if window == 0 {
            self.burst_window.store(0, Ordering::Release);
            return;
        }
        assert!(prob_pct <= 100, "prob_pct must be at most 100");
        self.loss_dispatched.store(0, Ordering::Relaxed);
        self.burst_prob_pct.store(prob_pct, Ordering::Relaxed);
        self.burst_seed.store(seed, Ordering::Relaxed);
        // Published last, so a dispatch that observes the new window also
        // observes the reset counter, probability and seed.
        self.burst_window.store(window, Ordering::Release);
    }

    /// Schedules clock-driven transient outages (flapping) for
    /// `authority`, or clears the schedule with `None`. While the shared
    /// clock sits inside a down-phase of the schedule, dispatches to the
    /// authority fail exactly like [`SimNet::set_offline`] — `503` with an
    /// [`TransportError::Unreachable`] classification.
    pub fn set_flap(&self, authority: &str, schedule: Option<FlapSchedule>) {
        self.update_config(|config| match schedule {
            Some(s) => {
                config.flaps.insert(authority.to_owned(), s);
            }
            None => {
                config.flaps.remove(authority);
            }
        });
    }

    /// Number of read-modify-write operations dispatches have performed on
    /// the loss-injection state. Stays at zero while no loss model is
    /// configured — the no-loss fast path is read-only (regression guard
    /// for the old behaviour of taking a write lock on every dispatch).
    #[must_use]
    pub fn loss_write_ops(&self) -> u64 {
        self.loss_write_ops.load(Ordering::Relaxed)
    }

    /// Marks `authority` unreachable (`offline = true`) or reachable again.
    pub fn set_offline(&self, authority: &str, offline: bool) {
        self.update_config(|config| {
            if offline {
                config.offline.insert(authority.to_owned());
            } else {
                config.offline.remove(authority);
            }
        });
    }

    /// Returns a snapshot of the message statistics.
    ///
    /// The snapshot is internally consistent: it never reports modelled
    /// latency for a round trip it does not count, nor a round trip
    /// whose edge it does not count, and it never straddles a
    /// [`SimNet::reset_stats`].
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.accounting.snapshot()
    }

    /// Zeroes the message statistics (the trace and clock are untouched).
    pub fn reset_stats(&self) {
        self.accounting.reset();
    }

    /// Dispatches `req` from the party labelled `from` to the application
    /// registered under the request URL's authority.
    ///
    /// Unknown or offline authorities yield `503 Unavailable` — the caller
    /// sees the same signal a browser would see for an unreachable site.
    pub fn dispatch(&self, from: &str, req: Request) -> Response {
        let to = req.url.authority();
        self.trace
            .record_with(from, to, TraceKind::Request, || request_label(&req));
        let config = self.config();
        let mut latency_ms = self.charge(&config, from, to);

        let app = config.apps.get(to);
        let offline = (!config.offline.is_empty() && config.offline.contains(to))
            || (!config.flaps.is_empty()
                && config
                    .flaps
                    .get(to)
                    .is_some_and(|f| f.is_down_at(self.clock.now_ms())));
        let dropped = self.loss_draw();

        let resp = match app {
            _ if dropped => Response::with_status(Status::Unavailable)
                .with_body("message lost in transit".to_owned())
                .with_transport_error(TransportError::Timeout),
            Some(app) if !offline => app.handle(self, &req),
            _ => Response::with_status(Status::Unavailable)
                .with_body(format!("unreachable authority: {to}"))
                .with_transport_error(TransportError::Unreachable),
        };

        latency_ms += self.charge(&config, to, from);
        self.trace
            .record_with(from, to, TraceKind::Response, || response_label(&resp));
        // The round trip is committed before its latency, so a
        // concurrent `stats()` snapshot never sees latency lead the trips.
        // SimNet serializes nothing: the codec's arithmetic twins give the
        // bytes the exchange would occupy on the HTTP backend's wire.
        self.accounting.record_round_trip(from, &req, &resp, || {
            crate::codec::request_wire_len(from, &req) + crate::codec::response_wire_len(&resp)
        });
        self.accounting.add_latency(latency_ms);
        resp
    }

    /// Advances the clock by the modelled latency of one hop and returns
    /// the charged milliseconds (accumulated into the dispatch commit).
    fn charge(&self, config: &ConfigSnapshot, from: &str, to: &str) -> u64 {
        let ms = config.latency.latency_ms(from, to);
        if ms > 0 {
            self.clock.advance_ms(ms);
        }
        ms
    }

    /// Draws the loss decision for this dispatch. Read-only (two atomic
    /// loads, no read-modify-write) while no loss model is configured.
    fn loss_draw(&self) -> bool {
        let period = self.loss_period.load(Ordering::Acquire);
        let window = self.burst_window.load(Ordering::Acquire);
        if period == 0 && window == 0 {
            return false;
        }
        self.loss_write_ops.fetch_add(1, Ordering::Relaxed);
        let n = self.loss_dispatched.fetch_add(1, Ordering::Relaxed);
        if period != 0 && n % period == self.loss_offset.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(burst) = n.checked_div(window) {
            let prob = self.burst_prob_pct.load(Ordering::Relaxed);
            let seed = self.burst_seed.load(Ordering::Relaxed);
            return splitmix64(seed ^ burst) % 100 < prob;
        }
        false
    }

    /// Returns the current configuration snapshot, revalidating this
    /// thread's cached copy with one atomic generation load. Only a
    /// generation mismatch (or a cold cache) touches the config lock.
    fn config(&self) -> Arc<ConfigSnapshot> {
        let gen = self.config_gen.load(Ordering::Acquire);
        CONFIG_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(slot) = cache.iter_mut().find(|(id, _, _)| *id == self.id) {
                if slot.1 != gen {
                    let (fresh_gen, snapshot) = self.load_config();
                    slot.1 = fresh_gen;
                    slot.2 = snapshot;
                }
                return slot.2.clone();
            }
            let (fresh_gen, snapshot) = self.load_config();
            if cache.len() >= CONFIG_CACHE_SLOTS {
                cache.remove(0);
            }
            cache.push((self.id, fresh_gen, snapshot.clone()));
            snapshot
        })
    }

    /// Reads the `(generation, snapshot)` pair consistently (the
    /// generation only changes under the config lock).
    fn load_config(&self) -> (u64, Arc<ConfigSnapshot>) {
        let guard = self.config.lock();
        (self.config_gen.load(Ordering::Relaxed), Arc::clone(&guard))
    }

    /// Applies a configuration change by swapping in a fresh snapshot and
    /// bumping the generation, so readers revalidate on their next
    /// dispatch without ever blocking on this lock.
    fn update_config(&self, f: impl FnOnce(&mut ConfigSnapshot)) {
        let mut guard = self.config.lock();
        let mut next = ConfigSnapshot::clone(&guard);
        f(&mut next);
        *guard = Arc::new(next);
        self.config_gen.fetch_add(1, Ordering::Release);
    }
}

/// [`SimNet`] is the deterministic [`Transport`] backend: the trait
/// methods forward to the inherent ones, so existing call sites keep
/// their concrete types while protocol code takes `&dyn Transport`.
impl Transport for SimNet {
    fn name(&self) -> &'static str {
        "sim"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn register(&self, app: Arc<dyn WebApp>) {
        SimNet::register(self, app);
    }
    fn unregister(&self, authority: &str) {
        SimNet::unregister(self, authority);
    }
    fn dispatch(&self, from: &str, req: Request) -> Response {
        SimNet::dispatch(self, from, req)
    }
    fn clock(&self) -> &SimClock {
        SimNet::clock(self)
    }
    fn trace(&self) -> &TraceRecorder {
        SimNet::trace(self)
    }
    fn stats(&self) -> NetStats {
        SimNet::stats(self)
    }
    fn reset_stats(&self) {
        SimNet::reset_stats(self);
    }
}

/// A request's trace label: method, path, and the interesting params.
/// Only ever built inside a lazy trace closure, so a trace-off dispatch
/// never pays for it.
pub(crate) fn request_label(req: &Request) -> String {
    const INTERESTING: [&str; 6] = ["realm", "resource", "requester", "am", "action", "decision"];
    let mut parts = Vec::new();
    for key in INTERESTING {
        if let Some(v) = req.param(key) {
            parts.push(format!("{key}={v}"));
        }
    }
    if req.bearer_token().is_some() {
        parts.push("bearer".to_owned());
    }
    let params = if parts.is_empty() {
        String::new()
    } else {
        format!(" [{}]", parts.join(" "))
    };
    format!("{} {}{params}", req.method, req.url.path())
}

/// A response's trace label: the status, plus a redirect's target
/// authority.
pub(crate) fn response_label(resp: &Response) -> String {
    match resp.location() {
        Some(loc) => format!("{} -> {}", resp.status, loc.authority()),
        None => resp.status.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    struct Echo {
        authority: String,
    }

    impl WebApp for Echo {
        fn authority(&self) -> &str {
            &self.authority
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            Response::ok().with_body(req.url.path().to_owned())
        }
    }

    /// An app that calls another app while handling a request — exercises
    /// nested dispatch (Host -> AM decision query of Fig. 6).
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

    fn echo_net() -> SimNet {
        let net = SimNet::new();
        net.register(Arc::new(Echo {
            authority: "echo.example".to_owned(),
        }));
        net
    }

    #[test]
    fn dispatch_reaches_app() {
        let net = echo_net();
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "/p");
    }

    #[test]
    fn unknown_authority_is_unavailable() {
        let net = SimNet::new();
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://ghost.example/"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        assert!(resp.body.contains("ghost.example"));
    }

    #[test]
    fn offline_authority_is_unavailable() {
        let net = echo_net();
        net.set_offline("echo.example", true);
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.status, Status::Unavailable);
        net.set_offline("echo.example", false);
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn nested_dispatch_works() {
        let net = echo_net();
        net.register(Arc::new(Proxy));
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://proxy.example/"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "/inner");
        // Two round trips: tester->proxy and proxy->echo.
        assert_eq!(net.stats().round_trips, 2);
        assert_eq!(net.stats().edge("proxy.example", "echo.example"), 1);
    }

    #[test]
    fn stats_count_messages_and_edges() {
        let net = echo_net();
        for _ in 0..3 {
            net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p"),
            );
        }
        let stats = net.stats();
        assert_eq!(stats.round_trips, 3);
        assert_eq!(stats.messages(), 6);
        assert_eq!(stats.edge("tester", "echo.example"), 3);
        assert_eq!(stats.edge("echo.example", "tester"), 0);
    }

    #[test]
    fn loss_injection_is_deterministic_and_clearable() {
        let net = echo_net();
        // Drop every 3rd dispatch starting with the first (offset 0).
        net.set_loss_every(3, 0);
        let statuses: Vec<u16> = (0..6)
            .map(|_| {
                net.dispatch(
                    "tester",
                    Request::new(Method::Get, "https://echo.example/p"),
                )
                .status
                .code()
            })
            .collect();
        assert_eq!(statuses, vec![503, 200, 200, 503, 200, 200]);
        net.set_loss_every(0, 0);
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn disabled_loss_model_is_read_only() {
        let net = echo_net();
        for _ in 0..10 {
            net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p"),
            );
        }
        assert_eq!(
            net.loss_write_ops(),
            0,
            "the no-loss fast path must not write loss state"
        );
        // With a model configured, dispatches do write the counter…
        net.set_loss_every(5, 1);
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(net.loss_write_ops(), 1);
        // …and disabling makes the path read-only again.
        net.set_loss_every(0, 0);
        for _ in 0..10 {
            net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p"),
            );
        }
        assert_eq!(net.loss_write_ops(), 1);
    }

    #[test]
    #[should_panic(expected = "offset must be below period")]
    fn loss_offset_validated() {
        SimNet::new().set_loss_every(2, 2);
    }

    #[test]
    fn fabric_failures_carry_transport_classification() {
        let net = echo_net();
        // Unknown authority: detected immediately -> Unreachable.
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://ghost.example/"),
        );
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        // Offline (partitioned) authority: Unreachable.
        net.set_offline("echo.example", true);
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        net.set_offline("echo.example", false);
        // Lost message: only detectable by waiting -> Timeout.
        net.set_loss_every(1, 0);
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.transport_error(), Some(TransportError::Timeout));
        net.set_loss_every(0, 0);
        // A healthy application response carries no classification.
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(resp.transport_error(), None);
    }

    #[test]
    fn flap_schedule_follows_the_clock() {
        let net = echo_net();
        net.set_flap(
            "echo.example",
            Some(FlapSchedule {
                period_ms: 100,
                down_ms: 30,
                phase_ms: 0,
            }),
        );
        let get = || {
            net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p"),
            )
        };
        // Clock at 0: inside the down phase.
        let resp = get();
        assert_eq!(resp.status, Status::Unavailable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        // Advance past the down phase: reachable again, no config change.
        net.clock().advance_ms(50);
        assert_eq!(get().status, Status::Ok);
        // Next cycle: down again.
        net.clock().advance_ms(60); // now at 110
        assert_eq!(get().status, Status::Unavailable);
        // Clearing the schedule heals immediately.
        net.set_flap("echo.example", None);
        assert_eq!(get().status, Status::Ok);
    }

    #[test]
    fn burst_loss_is_windowed_seeded_and_deterministic() {
        let run = |seed: u64| -> Vec<u16> {
            let net = echo_net();
            net.set_burst_loss(4, 50, seed);
            (0..32)
                .map(|_| {
                    net.dispatch(
                        "tester",
                        Request::new(Method::Get, "https://echo.example/p"),
                    )
                    .status
                    .code()
                })
                .collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay the same drops");
        assert!(a.contains(&503), "seed 7 should drop at least one window");
        assert!(a.contains(&200), "seed 7 should pass at least one window");
        // Losses come in whole windows of 4: every window is uniform.
        for w in a.chunks(4) {
            assert!(w.iter().all(|&s| s == w[0]), "window not uniform: {w:?}");
        }
        // Disabling restores service.
        let net = echo_net();
        net.set_burst_loss(4, 100, 1);
        assert_eq!(
            net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p")
            )
            .status,
            Status::Unavailable
        );
        net.set_burst_loss(0, 0, 0);
        assert_eq!(
            net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p")
            )
            .status,
            Status::Ok
        );
    }

    #[test]
    fn payload_bytes_accounted() {
        let net = echo_net();
        net.dispatch(
            "tester",
            Request::new(Method::Post, "https://echo.example/path").with_body("12345"),
        );
        let stats = net.stats();
        // Request body (5) + response body ("/path" = 5) at minimum.
        assert!(stats.payload_bytes >= 10, "{}", stats.payload_bytes);
    }

    #[test]
    fn latency_charged_both_ways() {
        let net = echo_net();
        net.set_latency(LatencyModel::constant(10));
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(net.clock().now_ms(), 20);
        assert_eq!(net.stats().modelled_latency_ms, 20);
    }

    #[test]
    fn trace_records_request_and_response() {
        let net = echo_net();
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        let events = net.trace().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Request);
        assert!(events[0].label.contains("GET /p"));
        assert_eq!(events[1].kind, TraceKind::Response);
    }

    #[test]
    fn trace_label_includes_interesting_params() {
        let net = echo_net();
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p")
                .with_param("realm", "r1")
                .with_bearer("tok"),
        );
        let label = &net.trace().events()[0].label;
        assert!(label.contains("realm=r1"), "{label}");
        assert!(label.contains("bearer"), "{label}");
    }

    #[test]
    fn disabled_trace_records_nothing_on_dispatch() {
        let net = echo_net();
        net.trace().set_enabled(false);
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert!(net.trace().is_empty());
        net.trace().set_enabled(true);
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        assert_eq!(net.trace().len(), 2);
    }

    #[test]
    fn reset_stats_clears_counts() {
        let net = echo_net();
        net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/p"),
        );
        net.reset_stats();
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn reregistration_replaces() {
        let net = echo_net();
        net.register(Arc::new(Echo {
            authority: "echo.example".to_owned(),
        }));
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/x"),
        );
        assert_eq!(resp.status, Status::Ok);
        net.unregister("echo.example");
        let resp = net.dispatch(
            "tester",
            Request::new(Method::Get, "https://echo.example/x"),
        );
        assert_eq!(resp.status, Status::Unavailable);
    }

    #[test]
    fn registration_churn_is_visible_to_cached_readers() {
        // The same thread's cached snapshot must be revalidated across
        // register/unregister/set_offline/set_latency mutations.
        let net = echo_net();
        for round in 0..5 {
            let resp = net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p"),
            );
            assert_eq!(resp.status, Status::Ok, "round {round}");
            net.unregister("echo.example");
            let resp = net.dispatch(
                "tester",
                Request::new(Method::Get, "https://echo.example/p"),
            );
            assert_eq!(resp.status, Status::Unavailable, "round {round}");
            net.register(Arc::new(Echo {
                authority: "echo.example".to_owned(),
            }));
        }
    }

    #[test]
    fn many_nets_on_one_thread_stay_isolated() {
        // More nets than snapshot-cache slots: eviction must not leak
        // routing between networks.
        let nets: Vec<SimNet> = (0..CONFIG_CACHE_SLOTS + 3)
            .map(|i| {
                let net = SimNet::new();
                net.register(Arc::new(Echo {
                    authority: format!("echo-{i}.example"),
                }));
                net
            })
            .collect();
        for (i, net) in nets.iter().enumerate() {
            let resp = net.dispatch(
                "tester",
                Request::new(Method::Get, &format!("https://echo-{i}.example/p")),
            );
            assert_eq!(resp.status, Status::Ok, "net {i}");
            let other = (i + 1) % nets.len();
            let resp = net.dispatch(
                "tester",
                Request::new(Method::Get, &format!("https://echo-{other}.example/p")),
            );
            assert_eq!(
                resp.status,
                Status::Unavailable,
                "net {i} must not route {other}"
            );
        }
    }

    #[test]
    fn multithreaded_stats_are_exact() {
        const THREADS: usize = 8;
        const DISPATCHES: usize = 200;
        let net = Arc::new(echo_net());
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for _ in 0..DISPATCHES {
                    let resp = net.dispatch(
                        "tester",
                        Request::new(Method::Post, "https://echo.example/pp").with_body("xyz"),
                    );
                    assert_eq!(resp.status, Status::Ok);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = net.stats();
        let total = (THREADS * DISPATCHES) as u64;
        assert_eq!(stats.round_trips, total);
        assert_eq!(stats.edge("tester", "echo.example"), total);
        // Body "xyz" (3) + response body "/pp" (3) per dispatch.
        assert_eq!(stats.payload_bytes, total * 6);
    }

    #[test]
    fn snapshot_latency_never_leads_round_trips() {
        const THREADS: usize = 4;
        const DISPATCHES: usize = 300;
        const HOP_MS: u64 = 7;
        let net = Arc::new(echo_net());
        net.set_latency(LatencyModel::constant(HOP_MS));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for _ in 0..DISPATCHES {
                    net.dispatch(
                        "tester",
                        Request::new(Method::Get, "https://echo.example/p"),
                    );
                }
            }));
        }
        // Snapshot storm: latency charged may lag the counted trips (one
        // in-flight dispatch per thread) but must never lead them.
        let snapshotter = {
            let net = Arc::clone(&net);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let stats = net.stats();
                    assert!(
                        stats.modelled_latency_ms <= stats.round_trips * 2 * HOP_MS,
                        "latency {} leads round trips {}",
                        stats.modelled_latency_ms,
                        stats.round_trips
                    );
                }
            })
        };
        for handle in handles {
            handle.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        snapshotter.join().unwrap();

        let stats = net.stats();
        let total = (THREADS * DISPATCHES) as u64;
        assert_eq!(stats.round_trips, total);
        assert_eq!(stats.modelled_latency_ms, total * 2 * HOP_MS);
    }

    /// One writer dispatches and resets every 64 dispatches while the
    /// caller snapshots. A dispatch bumps its edge before its round trip,
    /// so every coherent snapshot has Σ`per_edge` >= `round_trips`; one
    /// torn across a reset (edges cleared, trips not yet zeroed) breaks
    /// that.
    fn snapshots_never_straddle_a_reset(net: Arc<dyn Transport>) {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let net = Arc::clone(&net);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    net.dispatch(
                        "tester",
                        Request::new(Method::Get, "https://echo.example/p"),
                    );
                    i += 1;
                    if i.is_multiple_of(64) {
                        net.reset_stats();
                    }
                }
            })
        };
        for _ in 0..200_000 {
            let stats = net.stats();
            let edges: u64 = stats.per_edge.values().sum();
            assert!(
                edges >= stats.round_trips,
                "{} snapshot straddles a reset: edges {edges} < round trips {}",
                net.name(),
                stats.round_trips
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// Two senders and two authorities whose names have the same lengths
    /// and the same first and last eight bytes share one memo slot; their
    /// four edges are still counted apart, since a slot compares both
    /// names in full.
    #[test]
    fn edges_alike_at_both_ends_are_counted_apart() {
        let (froms, tos) = (
            ["requester:one:end-of-name", "requester:two:end-of-name"],
            ["echo-twin.one.the-example", "echo-twin.two.the-example"],
        );
        let net = SimNet::new();
        for to in tos {
            net.register(Arc::new(Echo {
                authority: to.to_owned(),
            }));
        }
        let slot = memo_slot(net.accounting.id, froms[0], tos[0]);
        let edges: Vec<(&str, &str)> = froms
            .iter()
            .flat_map(|&from| tos.iter().map(move |&to| (from, to)))
            .collect();
        for &(from, to) in &edges {
            assert_eq!(memo_slot(net.accounting.id, from, to), slot);
        }
        for _ in 0..10 {
            for (k, &(from, to)) in edges.iter().enumerate() {
                for _ in 0..=k {
                    let url = format!("https://{to}/p");
                    assert_eq!(
                        net.dispatch(from, Request::new(Method::Get, &url)).status,
                        Status::Ok
                    );
                }
            }
        }
        let stats = net.stats();
        let want: BTreeMap<(String, String), u64> = (1..)
            .zip(&edges)
            .map(|(k, &(from, to))| ((from.to_owned(), to.to_owned()), 10 * k))
            .collect();
        assert_eq!(stats.per_edge, want);
        assert_eq!(stats.round_trips, 100);
    }

    /// More dispatching threads than stripes (so threads share stripes and
    /// every thread shares the four edges) run in rounds, while two threads
    /// take snapshots throughout and the test thread resets between rounds.
    /// No snapshot shows latency ahead of the round trips or a round trip
    /// without its edge, and each round's totals are exact. (A reset that
    /// races an in-flight dispatch may split that dispatch's counts: a
    /// snapshot is a reading, not a barrier. So resets fall between rounds.)
    #[test]
    fn many_threads_keep_the_accounting_exact_beside_snapshots_and_resets() {
        const DISPATCHERS: usize = STRIPES + 4;
        const ROUNDS: usize = 3;
        const EACH: u64 = 200;
        const HOP_MS: u64 = 3;
        let (froms, tos) = (
            ["tester-a", "tester-b"],
            ["echo-0.example", "echo-1.example"],
        );
        let net = Arc::new(SimNet::new());
        net.set_latency(LatencyModel::constant(HOP_MS));
        for to in tos {
            net.register(Arc::new(Echo {
                authority: to.to_owned(),
            }));
        }
        let barrier = Arc::new(std::sync::Barrier::new(DISPATCHERS + 1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let snapshotters: Vec<_> = (0..2)
            .map(|_| {
                let (net, stop) = (Arc::clone(&net), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut taken = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let stats = net.stats();
                        let edges: u64 = stats.per_edge.values().sum();
                        assert!(stats.modelled_latency_ms <= stats.round_trips * 2 * HOP_MS);
                        assert!(
                            edges >= stats.round_trips,
                            "{edges} < {}",
                            stats.round_trips
                        );
                        taken += 1;
                    }
                    taken
                })
            })
            .collect();
        let dispatchers: Vec<_> = (0..DISPATCHERS)
            .map(|_| {
                let (net, barrier) = (Arc::clone(&net), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        for i in 0..EACH as usize {
                            let url = format!("https://{}/pp", tos[(i / 2) % 2]);
                            let req = Request::new(Method::Post, &url).with_body("xyz");
                            assert_eq!(net.dispatch(froms[i % 2], req).status, Status::Ok);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        let total = DISPATCHERS as u64 * EACH;
        for _ in 0..ROUNDS {
            barrier.wait();
            barrier.wait();
            let stats = net.stats();
            assert_eq!(stats.round_trips, total);
            assert_eq!(stats.per_edge.len(), 4);
            for (edge, &count) in &stats.per_edge {
                assert_eq!(count, total / 4, "{edge:?}");
            }
            // Body "xyz" (3) + response body "/pp" (3) per dispatch.
            assert_eq!(stats.payload_bytes, total * 6);
            assert_eq!(stats.modelled_latency_ms, total * 2 * HOP_MS);
            net.reset_stats();
            assert_eq!(net.stats(), NetStats::default());
        }
        for dispatcher in dispatchers {
            dispatcher.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for snapshotter in snapshotters {
            assert!(snapshotter.join().unwrap() > 0);
        }
    }

    #[test]
    fn net_snapshot_never_observes_a_half_reset() {
        snapshots_never_straddle_a_reset(Arc::new(echo_net()));
        let http = crate::httpnet::HttpTransport::new();
        http.register(Arc::new(Echo {
            authority: "echo.example".to_owned(),
        }));
        snapshots_never_straddle_a_reset(Arc::new(http));
    }
}
