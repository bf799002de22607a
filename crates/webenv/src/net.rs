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
//! * statistics land in per-thread **stat shards** (relaxed atomics plus
//!   a thread-keyed edge map) that are only aggregated when
//!   [`SimNet::stats`] takes a snapshot;
//! * the loss model is an atomic counter — the no-loss path performs one
//!   relaxed load and no read-modify-write.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::SimClock;
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
    pub per_edge: std::collections::BTreeMap<(String, String), u64>,
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

/// Number of stat shards. A power of two so a thread's slot is a mask.
const STAT_SHARDS: usize = 16;

/// Slots a thread keeps in its snapshot cache before evicting the oldest.
const CONFIG_CACHE_SLOTS: usize = 8;

/// One cell of the sharded statistics. Threads are assigned a shard
/// round-robin on first dispatch, so under up to [`STAT_SHARDS`] threads
/// every cell — including its edge-map mutex — is effectively
/// thread-private and a dispatch commit never contends.
#[derive(Default)]
struct StatShard {
    round_trips: AtomicU64,
    payload_bytes: AtomicU64,
    bytes_on_wire: AtomicU64,
    /// Committed *after* `round_trips` (Release) and read *before* it
    /// (Acquire), so a [`SimNet::stats`] snapshot can never observe
    /// latency charged for a round trip it has not counted yet.
    modelled_latency_ms: AtomicU64,
    /// Two-level `from -> to -> count` map so the warm path can bump an
    /// existing edge with borrowed keys (no per-dispatch allocation).
    per_edge: Mutex<HashMap<String, HashMap<String, u64>>>,
}

impl StatShard {
    /// Increments the `(from, to)` edge counter, allocating owned keys
    /// only the first time an edge is seen.
    fn bump_edge(&self, from: &str, to: &str) {
        let mut per_edge = self.per_edge.lock();
        if let Some(inner) = per_edge.get_mut(from) {
            if let Some(count) = inner.get_mut(to) {
                *count += 1;
                return;
            }
            inner.insert(to.to_owned(), 1);
            return;
        }
        per_edge
            .entry(from.to_owned())
            .or_default()
            .insert(to.to_owned(), 1);
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
/// Round-robin source of per-thread stat-shard slots.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stat-shard slot (assigned on first dispatch).
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Cached `(net id, generation, snapshot)` triples, newest last.
    static CONFIG_CACHE: RefCell<Vec<(u64, u64, Arc<ConfigSnapshot>)>> =
        const { RefCell::new(Vec::new()) };
}

fn shard_index() -> usize {
    SHARD_IDX.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (STAT_SHARDS - 1);
            slot.set(idx);
        }
        idx
    })
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
    shards: [StatShard; STAT_SHARDS],
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
            shards: std::array::from_fn(|_| StatShard::default()),
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
    /// The snapshot is internally consistent in one direction: it never
    /// reports modelled latency for a round trip it does not count (each
    /// dispatch commits its round trip before its latency, and the
    /// snapshot reads them in the opposite order).
    #[must_use]
    pub fn stats(&self) -> NetStats {
        let mut out = NetStats::default();
        for shard in &self.shards {
            // Acquire on latency pairs with the Release in the dispatch
            // commit: everything committed before the latency we read —
            // in particular the matching round trips — is visible below.
            out.modelled_latency_ms += shard.modelled_latency_ms.load(Ordering::Acquire);
            out.round_trips += shard.round_trips.load(Ordering::Relaxed);
            out.payload_bytes += shard.payload_bytes.load(Ordering::Relaxed);
            out.bytes_on_wire += shard.bytes_on_wire.load(Ordering::Relaxed);
            for (from, inner) in shard.per_edge.lock().iter() {
                for (to, count) in inner {
                    *out.per_edge.entry((from.clone(), to.clone())).or_insert(0) += count;
                }
            }
        }
        out
    }

    /// Zeroes the message statistics (the trace and clock are untouched).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.per_edge.lock().clear();
            shard.round_trips.store(0, Ordering::Relaxed);
            shard.payload_bytes.store(0, Ordering::Relaxed);
            shard.bytes_on_wire.store(0, Ordering::Relaxed);
            shard.modelled_latency_ms.store(0, Ordering::Release);
        }
    }

    /// Dispatches `req` from the party labelled `from` to the application
    /// registered under the request URL's authority.
    ///
    /// Unknown or offline authorities yield `503 Unavailable` — the caller
    /// sees the same signal a browser would see for an unreachable site.
    pub fn dispatch(&self, from: &str, req: Request) -> Response {
        let to = req.url.authority();
        self.trace.record_with(from, to, TraceKind::Request, || {
            format!(
                "{} {}{}",
                req.method,
                req.url.path(),
                summarize_params(&req)
            )
        });
        let config = self.config();
        let mut latency_ms = self.charge(&config, from, to);

        let request_bytes = message_bytes(&req.body, req.headers.values())
            + req.form.values().map(String::len).sum::<usize>();

        let app = config.apps.get(to).cloned();
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
            .record_with(from, to, TraceKind::Response, || match resp.location() {
                Some(loc) => format!("{} -> {}", resp.status, loc.authority()),
                None => resp.status.to_string(),
            });

        // Single per-dispatch commit into this thread's stat shard. The
        // round trip is published before its latency so a concurrent
        // `stats()` snapshot never sees latency lead the trip count.
        let response_bytes = message_bytes(&resp.body, resp.headers.values());
        let shard = &self.shards[shard_index()];
        shard.bump_edge(from, to);
        shard
            .payload_bytes
            .fetch_add((request_bytes + response_bytes) as u64, Ordering::Relaxed);
        if resp.transport_error().is_none() {
            // Arithmetic twins of the codec encoders — the exact bytes
            // this round trip would occupy (does occupy, on the HTTP
            // backend) on the wire, without serializing anything.
            let wire =
                crate::codec::request_wire_len(from, &req) + crate::codec::response_wire_len(&resp);
            shard
                .bytes_on_wire
                .fetch_add(wire as u64, Ordering::Relaxed);
        }
        shard.round_trips.fetch_add(1, Ordering::Relaxed);
        if latency_ms > 0 {
            shard
                .modelled_latency_ms
                .fetch_add(latency_ms, Ordering::Release);
        }

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

/// Sums the modelled size of a message: body plus header values.
pub(crate) fn message_bytes<'a>(body: &str, headers: impl Iterator<Item = &'a String>) -> usize {
    body.len() + headers.map(String::len).sum::<usize>()
}

/// Summarizes interesting request parameters for trace labels. Only ever
/// called from inside a lazy trace label, so a trace-off dispatch never
/// pays for these allocations.
pub(crate) fn summarize_params(req: &Request) -> String {
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
    if parts.is_empty() {
        String::new()
    } else {
        format!(" [{}]", parts.join(" "))
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
}
