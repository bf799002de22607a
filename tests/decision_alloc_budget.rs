//! Heap allocations per access, by access class, on the code a deployed
//! Host and AM run: one AM, one WebStorage Host and one requester on
//! SimNet, the paper's Fig. 6 decision query and its neighbours.
//!
//! A counting global allocator counts the allocations (and reallocations)
//! of the thread that arms it. SimNet dispatches on the caller's thread,
//! so one armed `access` counts the requester, the Host and the AM
//! together. The rig is warmed first, so the AM's audit ring and the
//! Host's access log are at their caps and every per-thread buffer is
//! sized: the counts are steady-state ones. Four classes:
//!
//! * **decision** — the requester holds a token the Host has no permit
//!   for (decision cache flushed, token not in the sieve): one
//!   unconditional AM decision query;
//! * **revalidation** — the cached permit's TTL has passed, so the Host
//!   sends an `if_epoch` query and the AM answers *unchanged*;
//! * **local hit** — a sieve probe misses and the decision cache grants;
//! * **re-authorization** — the token has expired: the AM refuses it, the
//!   requester follows the redirect to `/authorize`, fetches a fresh
//!   token and retries, and the Host asks the AM again.
//!
//! Three message rows count one message step each, on the protocol's
//! real shapes: the Host's decision query (built and dropped, with a
//! real host token and authorization token), the requester's Host
//! request (one access with a held token against a stub Host that
//! answers without allocating), and one redirect's `Response::redirect`
//! plus `location()`.
//!
//! Each class's mean and each row's count is printed (run with
//! `--nocapture` to see them) and held to a budget. Run it optimised, as
//! CI does:
//!
//! ```text
//! cargo test --release -q --test decision_alloc_budget -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ucam::am::tokens::AUTHZ_TOKEN_TTL_MS;
use ucam::am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest};
use ucam::host::{DelegationConfig, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::{protocol, Request, Response, SimNet, Transport, Url, WebApp};

/// Counts the allocations of the thread that armed it (see [`count`]).
struct CountingAlloc;

thread_local! {
    /// Whether this thread counts its allocations. Both cells are
    /// const-initialized and have no destructor, so touching them from
    /// the allocator never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread while armed.
    static COUNTED: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is armed. A thread being torn
/// down has no cells left; it counts nothing.
fn note() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNTED.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so each upholds exactly the contract
// `System` does. The counting beside it touches two thread-local cells
// that never allocate, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counting armed; returns its allocations.
fn count(f: impl FnOnce()) -> u64 {
    COUNTED.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    COUNTED.with(Cell::get)
}

const AM: &str = "am.example";
const HOST: &str = "storage.example";
const FILE: &str = "files/shared/f0.txt";
/// The owner's decision-cache TTL.
const TTL_MS: u64 = 1_000;
/// Accesses counted per class; the mean is reported.
const ROUNDS: u32 = 200;

struct Rig {
    net: SimNet,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
    host_token: String,
    alice: RequesterClient,
    spec: AccessSpec,
}

impl Rig {
    /// Bob delegates the Host to the AM (epoch pushes on), owns one file
    /// in a realm everyone may read, and sets a 1 s cache TTL. Another
    /// requester's token is compiled into the Host's sieve, so every
    /// probe hashes its tuple; Alice's token never is.
    fn new() -> Rig {
        let net = SimNet::new();
        net.trace().set_enabled(false);
        let clock = net.clock().clone();
        let am = Arc::new(AuthorizationManager::new(AM, clock.clone()));
        am.set_audit_cap(4_096);
        let host = WebStorage::new(HOST, clock);
        net.register(am.clone());
        net.register(host.clone());

        am.register_user("bob");
        am.subscribe_epoch_push(HOST, "bob");
        let (delegation, host_token) = am.establish_delegation(HOST, "bob").unwrap();
        host.shell().core.set_user_delegation(
            "bob",
            DelegationConfig {
                am: AM.into(),
                host_token: host_token.clone(),
                delegation_id: delegation.id,
            },
        );
        host.shell()
            .core
            .put_resource(FILE, "bob", "file", b"shared".to_vec())
            .unwrap();
        am.pap("bob", |account| {
            account.set_cache_ttl_ms(TTL_MS);
            let policy = account.create_policy(
                "open-read",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Public)
                            .for_action(Action::Read),
                    ),
                ),
            );
            account.assign_realm(ResourceRef::new(HOST, FILE), "shared");
            account.link_general("shared", &policy)
        })
        .unwrap()
        .unwrap();

        let spec = AccessSpec::read(Url::new(HOST, &format!("/{FILE}")));
        let mut other = RequesterClient::new("requester:other");
        assert!(other.access(&net, &spec).is_granted());
        am.schedule_sieve_refresh();
        while am.pump_epoch_pushes(&net) > 0 {}
        assert!(host.shell().core.stats().sieve_installs > 0);

        let mut rig = Rig {
            net,
            am,
            host,
            host_token,
            alice: RequesterClient::new("requester:alice"),
            spec,
        };
        assert!(rig.read(), "the policy grants Alice");
        rig
    }

    fn read(&mut self) -> bool {
        self.alice.access(&self.net, &self.spec).is_granted()
    }

    /// Mean allocations of `rounds` reads, each after `prepare`.
    fn mean_allocs(&mut self, rounds: u32, mut prepare: impl FnMut(&Rig)) -> f64 {
        let mut total = 0;
        for _ in 0..rounds {
            prepare(self);
            let mut granted = false;
            total += count(|| granted = self.read());
            assert!(granted);
        }
        total as f64 / f64::from(rounds)
    }

    /// Counts `rounds` reads of one class, checking with `stat` that each
    /// read took the class's path.
    fn class(&mut self, name: &str, prepare: impl FnMut(&Rig), stat: impl Fn(&Rig) -> u64) -> f64 {
        let before = stat(self);
        let mean = self.mean_allocs(ROUNDS, prepare);
        assert_eq!(
            stat(self) - before,
            u64::from(ROUNDS),
            "{name}: the wrong path"
        );
        println!("decision_alloc_budget: {name}: {mean:.1} allocations per access");
        mean
    }
}

fn flush(rig: &Rig) {
    rig.host.shell().core.flush_decision_cache();
}

fn advance(ms: u64) -> impl Fn(&Rig) {
    move |rig: &Rig| {
        rig.net.clock().advance_ms(ms);
    }
}

/// A Host that grants any bearer, redirects a request without one to
/// its own `/authorize`, and there hands out `TOKEN`: a requester's
/// granted access against it allocates only for its own request.
struct StubHost;

const STUB: &str = "stub.example";

impl WebApp for StubHost {
    fn authority(&self) -> &str {
        STUB
    }

    fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
        match (req.url.path(), req.bearer_token()) {
            ("/authorize", _) => Response::ok().with_body(TOKEN),
            (_, Some(_)) => Response::ok(),
            (_, None) => Response::redirect(&Url::new(STUB, "/authorize")),
        }
    }
}

/// An authorization-token-sized bearer (the AM's are about 200 bytes).
const TOKEN: &str = "v1.stub-authorization-token-0123456789abcdefghijklmnopqrstuvwxyz\
    0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz\
    0123456789abcdefghijklmnopqrstuvwxyz0123456789";

/// Allocations of one message step, as the minimum of 31 runs (the
/// count is exact; the minimum only skips a first run's warm-up).
fn message_row(name: &str, mut step: impl FnMut()) -> u64 {
    let allocs = (0..31).map(|_| count(&mut step)).min().unwrap_or(0);
    println!("decision_alloc_budget: {name}: {allocs} allocations");
    allocs
}

/// The three message rows, each against its budget.
#[test]
fn message_steps_stay_within_their_allocation_budget() {
    let rig = Rig::new();
    let AuthorizeOutcome::Token { token, .. } = rig.am.authorize(&AuthorizeRequest::new(
        HOST,
        "bob",
        FILE,
        Action::Read,
        "requester:alice",
    )) else {
        panic!("the policy grants Alice");
    };
    let (host_token, token) = (rig.host_token.as_str(), token.as_str());
    let query = |if_epoch| {
        move || {
            drop(protocol::decision_request(
                AM,
                host_token,
                token,
                FILE,
                "read",
                "requester:alice",
                if_epoch,
            ));
        }
    };
    let decision_query = message_row("Host decision query, built and dropped", query(None));
    let conditional_query = message_row(
        "Host decision query with if_epoch, built and dropped",
        query(Some(u64::MAX)),
    );

    let net = SimNet::new();
    net.trace().set_enabled(false);
    net.register(Arc::new(StubHost));
    let spec = AccessSpec::read(Url::new(STUB, &format!("/{FILE}")));
    let mut client = RequesterClient::new("requester:alice");
    assert!(client.access(&net, &spec).is_granted());
    assert_eq!(client.cached_tokens(), 1);
    let host_request = message_row("requester's Host request, one granted access", || {
        assert!(client.access(&net, &spec).is_granted());
    });

    let return_url = Url::new(HOST, &format!("/{FILE}"));
    let authorize = Url::new(AM, "/authorize")
        .with_query("host", HOST)
        .with_query("owner", "bob")
        .with_query("resource", FILE)
        .with_query("action", "read")
        .with_query("requester", "requester:alice")
        .with_query("return", &return_url.to_string());
    let redirect = message_row("redirect, Response::redirect + location()", || {
        let back = Response::redirect(&authorize).location();
        assert_eq!(back.as_ref(), Some(&authorize));
    });

    // Before 0.24.0 packed each message part into one buffer, these
    // steps (built as the Host built them then) made 14, 17, 8 and 71
    // allocations.
    for (name, allocs, budget) in [
        ("decision query", decision_query, 2),
        ("decision query with if_epoch", conditional_query, 2),
        ("Host request", host_request, 2),
        ("redirect round trip", redirect, 2),
    ] {
        assert!(
            allocs <= budget,
            "{name}: {allocs} allocations, over its budget of {budget}"
        );
    }
}

/// The four classes' steady-state allocation counts, each against its
/// budget: the counts this tree measures, rounded up.
#[test]
fn decision_class_accesses_stay_within_their_allocation_budget() {
    let mut rig = Rig::new();
    // Warm-up: past the 4,096-record caps of the AM's audit ring and the
    // Host's access log, so both overwrite their oldest slots.
    rig.mean_allocs(4_200, flush);

    let core = |rig: &Rig| rig.host.shell().core.stats();
    let decision = rig.class("decision", flush, |r| core(r).am_queries);
    rig.read();
    let revalidation = rig.class("revalidation", advance(TTL_MS + 1), |r| {
        core(r).revalidations_unchanged
    });
    let local = rig.class("local hit", |_| {}, |r| core(r).cache_hits);
    rig.mean_allocs(50, advance(AUTHZ_TOKEN_TTL_MS + 1));
    let reauthorization = rig.class("re-authorization", advance(AUTHZ_TOKEN_TTL_MS + 1), |r| {
        r.alice.stats().reauthorizations
    });

    // Before 0.23.0 packed the rings and keyed tier 2 by the digest, this
    // rig measured 62.0, 57.0, 20.0 and 287.8; before 0.24.0 packed each
    // message part into one buffer, 34.0, 34.0, 9.0 and 224.8; before
    // 0.25.0 copied the owner's name once per owner (not per token) and
    // wrote a refusal's body once, 61.8 for a re-authorization. The
    // re-authorization mean moves by a tenth between runs: each run mints
    // other tokens, so the maps keyed by their digests rehash at other
    // points.
    for (name, mean, budget) in [
        ("decision", decision, 16.0),
        ("revalidation", revalidation, 13.0),
        ("local hit", local, 3.0),
        ("re-authorization", reauthorization, 59.0),
    ] {
        assert!(
            mean <= budget,
            "{name}: {mean:.1} allocations per access, over its budget of {budget}"
        );
    }
}
