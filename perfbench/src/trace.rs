//! Outside-in span tracing for the traced benchmark run.
//!
//! Spans are recorded only from the benchmark's own files, around the
//! calls into each layer: a timing [`WebApp`] wraps every registered Host
//! and AM before `Transport::register` (so nested Host→AM queries and
//! AM→Host push deliveries are caught on both backends), a timing
//! [`Transport`] is handed to the requester, and the benchmark times its own
//! `pap` / pump / access calls through [`Tracer::span`].
//!
//! Each span's self time is its duration minus the spans it caused on
//! the same thread (a thread-local span stack). On `SimNet` every nested
//! call runs on the caller's thread, so nesting is exact; on
//! `HttpTransport` handlers run on server threads, so layer self times are
//! derived from per-route aggregates instead (see `report`).
//!
//! While the gate is off a wrapped call costs one relaxed load. Aggregates
//! are atomics; the first [`SPAN_CAP`] spans also go to a preallocated
//! buffer that [`Tracer::write_spans`] dumps when the run ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ucam_webenv::{
    protocol, NetStats, Request, Response, SimClock, TraceRecorder, Transport, WebApp,
};

/// Spans kept in the dump buffer; later spans still feed the aggregates.
pub const SPAN_CAP: usize = 1 << 16;

/// What a span covers: a layer boundary, bucketed by route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One `RequesterClient::access` call, or one `access_batch` stride.
    Access,
    /// One call into the requester's transport (items = requests carried).
    Dispatch,
    /// Host handler: resource routes (`/files/...`).
    HostFiles,
    /// Host handler: AM epoch / sieve / invalidation push.
    HostPush,
    /// Host handler: any other route (delegation setup).
    HostOther,
    /// AM handler: `/authorize`.
    AmAuthorize,
    /// AM handler: `/protection/v1/decision`.
    AmDecisionV1,
    /// AM handler: `/protection/v2/decision`.
    AmDecisionV2,
    /// AM handler: `/protection/v1/decisions` (batched queries).
    AmDecisionBatch,
    /// AM handler: `/protection/v2/authorize` (batched authorize).
    AmAuthorizeBatch,
    /// AM handler: `/protection/v2/register`.
    AmRegister,
    /// AM handler: `/protection/v2/delegate`.
    AmDelegate,
    /// AM handler: any other route.
    AmOther,
    /// Benchmark call: `AuthorizationManager::pap`.
    Pap,
    /// Benchmark call: one push drain (`pump_epoch_pushes_bounded` to empty).
    Pump,
}

/// Number of [`Kind`] variants.
pub const KINDS: usize = 15;

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; KINDS] = [
        Kind::Access,
        Kind::Dispatch,
        Kind::HostFiles,
        Kind::HostPush,
        Kind::HostOther,
        Kind::AmAuthorize,
        Kind::AmDecisionV1,
        Kind::AmDecisionV2,
        Kind::AmDecisionBatch,
        Kind::AmAuthorizeBatch,
        Kind::AmRegister,
        Kind::AmDelegate,
        Kind::AmOther,
        Kind::Pap,
        Kind::Pump,
    ];

    /// Short label used in the span dump.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Access => "requester.access",
            Kind::Dispatch => "webenv.dispatch",
            Kind::HostFiles => "host.files",
            Kind::HostPush => "host.epoch_push",
            Kind::HostOther => "host.other",
            Kind::AmAuthorize => "am.authorize",
            Kind::AmDecisionV1 => "am.decision_v1",
            Kind::AmDecisionV2 => "am.decision_v2",
            Kind::AmDecisionBatch => "am.decision_batch",
            Kind::AmAuthorizeBatch => "am.authorize_batch",
            Kind::AmRegister => "am.register",
            Kind::AmDelegate => "am.delegate",
            Kind::AmOther => "am.other",
            Kind::Pap => "am.pap",
            Kind::Pump => "am.push_drain",
        }
    }

    fn host_route(path: &str) -> Kind {
        if path.starts_with("/files") {
            Kind::HostFiles
        } else if path == protocol::EPOCH_PUSH_PATH {
            Kind::HostPush
        } else {
            Kind::HostOther
        }
    }

    fn am_route(path: &str) -> Kind {
        match path {
            "/authorize" => Kind::AmAuthorize,
            protocol::DECISION_PATH | protocol::LEGACY_DECISION_PATH => Kind::AmDecisionV1,
            protocol::DECISION_V2_PATH => Kind::AmDecisionV2,
            protocol::BATCH_DECISIONS_PATH => Kind::AmDecisionBatch,
            protocol::BATCH_AUTHORIZE_PATH => Kind::AmAuthorizeBatch,
            protocol::REGISTER_PATH => Kind::AmRegister,
            protocol::DELEGATE_V2_PATH => Kind::AmDelegate,
            _ => Kind::AmOther,
        }
    }
}

#[derive(Default)]
struct Agg {
    calls: AtomicU64,
    items: AtomicU64,
    dur_ns: AtomicU64,
    self_ns: AtomicU64,
}

/// A plain copy of the aggregates at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggSnapshot {
    /// Spans closed, per kind.
    pub calls: [u64; KINDS],
    /// Items carried (requests per dispatch, accesses per access span).
    pub items: [u64; KINDS],
    /// Total span duration in ns.
    pub dur_ns: [u64; KINDS],
    /// Total same-thread self time in ns.
    pub self_ns: [u64; KINDS],
}

impl AggSnapshot {
    /// `self − earlier`, field by field.
    #[must_use]
    pub fn since(&self, earlier: &AggSnapshot) -> AggSnapshot {
        let mut out = AggSnapshot::default();
        for k in 0..KINDS {
            out.calls[k] = self.calls[k] - earlier.calls[k];
            out.items[k] = self.items[k] - earlier.items[k];
            out.dur_ns[k] = self.dur_ns[k] - earlier.dur_ns[k];
            out.self_ns[k] = self.self_ns[k] - earlier.self_ns[k];
        }
        out
    }

    /// Spans of `kind` closed.
    #[must_use]
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    /// Items carried by spans of `kind`.
    #[must_use]
    pub fn items(&self, kind: Kind) -> u64 {
        self.items[kind as usize]
    }

    /// Total duration of spans of `kind`, summed over `kinds`.
    #[must_use]
    pub fn dur(&self, kinds: &[Kind]) -> u64 {
        kinds.iter().map(|&k| self.dur_ns[k as usize]).sum()
    }

    /// Total same-thread self time of spans of `kinds`.
    #[must_use]
    pub fn self_time(&self, kinds: &[Kind]) -> u64 {
        kinds.iter().map(|&k| self.self_ns[k as usize]).sum()
    }
}

/// One dumped span, five words, written with relaxed stores: the buffer
/// is only read after every writer has joined.
#[derive(Default)]
struct SpanSlot {
    /// `id << 32 | parent`.
    ids: AtomicU64,
    /// `access << 8 | kind`.
    tag: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    self_ns: AtomicU64,
}

struct Frame {
    id: u32,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static ACCESS: Cell<u32> = const { Cell::new(0) };
}

/// Tags spans opened on this thread with `access` (0 = none) — the
/// per-access id joining a requester span with everything it caused on
/// the same thread.
pub fn set_access_id(access: u32) {
    ACCESS.with(|a| a.set(access));
}

/// The span recorder shared by every wrapper of one traced run.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    aggs: [Agg; KINDS],
    next_id: AtomicU64,
    slots: Box<[SpanSlot]>,
    next_slot: AtomicUsize,
}

impl Tracer {
    /// A tracer with its gate off and an empty, preallocated span buffer.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            aggs: std::array::from_fn(|_| Agg::default()),
            next_id: AtomicU64::new(1),
            slots: (0..SPAN_CAP).map(|_| SpanSlot::default()).collect(),
            next_slot: AtomicUsize::new(0),
        })
    }

    /// Opens (`true`) or closes the gate. A span opened while the gate
    /// was open always closes and records.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span of `kind` carrying `items` units of work.
    pub fn span<R>(&self, kind: Kind, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u32;
        let start = Instant::now();
        let parent = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().map_or(0, |frame| frame.id);
            stack.push(Frame {
                id,
                start,
                child_ns: 0,
            });
            parent
        });
        let out = f();
        let end = Instant::now();
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            let dur = end.duration_since(frame.start).as_nanos() as u64;
            if let Some(up) = stack.last_mut() {
                up.child_ns += dur;
            }
            frame
        });
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(frame.child_ns);
        let agg = &self.aggs[kind as usize];
        agg.calls.fetch_add(1, Ordering::Relaxed);
        agg.items.fetch_add(items, Ordering::Relaxed);
        agg.dur_ns.fetch_add(dur, Ordering::Relaxed);
        agg.self_ns.fetch_add(self_ns, Ordering::Relaxed);

        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(slot) {
            let access = u64::from(ACCESS.with(Cell::get));
            slot.ids
                .store(u64::from(id) << 32 | u64::from(parent), Ordering::Relaxed);
            slot.tag.store(access << 8 | kind as u64, Ordering::Relaxed);
            slot.start_ns.store(
                start.duration_since(self.origin).as_nanos() as u64,
                Ordering::Relaxed,
            );
            slot.dur_ns.store(dur, Ordering::Relaxed);
            slot.self_ns.store(self_ns, Ordering::Relaxed);
        }
        out
    }

    /// A copy of the aggregates now.
    #[must_use]
    pub fn snapshot(&self) -> AggSnapshot {
        let mut out = AggSnapshot::default();
        for (k, agg) in self.aggs.iter().enumerate() {
            out.calls[k] = agg.calls.load(Ordering::Relaxed);
            out.items[k] = agg.items.load(Ordering::Relaxed);
            out.dur_ns[k] = agg.dur_ns.load(Ordering::Relaxed);
            out.self_ns[k] = agg.self_ns.load(Ordering::Relaxed);
        }
        out
    }

    /// Writes the buffered spans as TSV (`id parent access kind start_ns
    /// dur_ns self_ns`) and returns how many were written.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<usize> {
        let n = self.next_slot.load(Ordering::Relaxed).min(SPAN_CAP);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\taccess\tkind\tstart_ns\tdur_ns\tself_ns")?;
        for slot in &self.slots[..n] {
            let ids = slot.ids.load(Ordering::Relaxed);
            let tag = slot.tag.load(Ordering::Relaxed);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                ids >> 32,
                ids & 0xFFFF_FFFF,
                tag >> 8,
                Kind::ALL[(tag & 0xFF) as usize].label(),
                slot.start_ns.load(Ordering::Relaxed),
                slot.dur_ns.load(Ordering::Relaxed),
                slot.self_ns.load(Ordering::Relaxed),
            )?;
        }
        out.flush()?;
        Ok(n)
    }
}

/// Which side of the protocol a wrapped application plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// A Host (PEP).
    Host,
    /// The Authorization Manager.
    Am,
}

/// A registered application with every `handle` call timed as a span.
pub struct TimedApp {
    inner: Arc<dyn WebApp>,
    side: Side,
    tracer: Arc<Tracer>,
}

impl TimedApp {
    /// Wraps `inner`; register the wrapper in its place.
    #[must_use]
    pub fn new(inner: Arc<dyn WebApp>, side: Side, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(TimedApp {
            inner,
            side,
            tracer,
        })
    }
}

impl WebApp for TimedApp {
    fn authority(&self) -> &str {
        self.inner.authority()
    }

    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        if !self.tracer.is_on() {
            return self.inner.handle(net, req);
        }
        let path = req.url.path();
        let kind = match self.side {
            Side::Host => Kind::host_route(path),
            Side::Am => Kind::am_route(path),
        };
        self.tracer.span(kind, 1, || self.inner.handle(net, req))
    }
}

/// The requester's view of the transport, with every top-level dispatch
/// timed as a [`Kind::Dispatch`] span. Nested Host→AM calls do not pass
/// through here: the backend hands handlers itself.
pub struct TimedNet {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TimedNet {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        TimedNet { inner, tracer }
    }
}

impl Transport for TimedNet {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn register(&self, app: Arc<dyn WebApp>) {
        self.inner.register(app);
    }

    fn unregister(&self, authority: &str) {
        self.inner.unregister(authority);
    }

    fn dispatch(&self, from: &str, req: Request) -> Response {
        self.tracer
            .span(Kind::Dispatch, 1, || self.inner.dispatch(from, req))
    }

    fn dispatch_pipelined(&self, from: &str, reqs: Vec<Request>) -> Vec<Response> {
        let n = reqs.len() as u64;
        self.tracer.span(Kind::Dispatch, n, || {
            self.inner.dispatch_pipelined(from, reqs)
        })
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn trace(&self) -> &TraceRecorder {
        self.inner.trace()
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_exactly() {
        let tracer = Tracer::new();
        tracer.set_on(true);
        tracer.span(Kind::Access, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tracer.span(Kind::HostFiles, 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let snap = tracer.snapshot();
        let outer = snap.dur(&[Kind::Access]);
        let inner = snap.dur(&[Kind::HostFiles]);
        assert_eq!(snap.self_time(&[Kind::Access]) + inner, outer);
        assert_eq!(snap.self_time(&[Kind::HostFiles]), inner);
        tracer.set_on(false);
        tracer.span(Kind::Access, 1, || ());
        assert_eq!(tracer.snapshot().calls(Kind::Access), 1);
    }
}
