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
//! Two more tests count the bookkeeping beside the protocol work. Once
//! warm, a SimNet round trip's accounting, an AM audit append at the cap
//! and a Host enforcement served from its decision cache (its access-log
//! append at the cap) allocate nothing. And the bytes the audit ring and
//! the access log retain per record, for records shaped like
//! `churn_sim`'s, stay within their budgets.
//!
//! Two rows count the edit path: one `churn_sim`-shaped edit (the policy
//! edit, the push drain and the Host's delta install) at three owner
//! shapes, held to a budget that grows with the (live grant, resource)
//! pairs the sieve compiler replays; and the bytes the AM's issued-grants
//! registry retains once earlier tokens have expired, per live grant.
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

use ucam::am::audit::{AuditEntry, AuditEvent, AuditHub};
use ucam::am::tokens::AUTHZ_TOKEN_TTL_MS;
use ucam::am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest};
use ucam::host::{DelegationConfig, HostCore, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::{protocol, Method, Request, Response, SimNet, Transport, Url, WebApp};

/// Counts the allocations of the thread that armed it (see [`count`]),
/// and the bytes they hold (see [`retained`]).
struct CountingAlloc;

thread_local! {
    /// Whether this thread counts its allocations. All three cells are
    /// const-initialized and have no destructor, so touching them from
    /// the allocator never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread while armed.
    static COUNTED: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed on this thread while armed.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` (or a free, negative) if this thread
/// is armed. A thread being torn down has no cells left; it counts
/// nothing.
fn note(allocations: u64, bytes: i64) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNTED.with(|n| n.set(n.get() + allocations));
            HELD.with(|held| held.set(held.get() + bytes));
        }
    });
}

/// A size in bytes as a signed count.
fn signed(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so each upholds exactly the contract
// `System` does. The counting beside it touches three thread-local cells
// that never allocate, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -signed(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, signed(new_size) - signed(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counting armed; returns its allocations.
fn count(f: impl FnOnce()) -> u64 {
    armed(f).0
}

/// Runs `f` with this thread's counting armed; returns the bytes still
/// allocated of what it allocated (what it freed of its own is netted
/// out, so `f` must free nothing allocated before it).
fn retained(f: impl FnOnce()) -> i64 {
    armed(f).1
}

/// Runs `f` with this thread's counting armed; returns its allocations
/// and the bytes it left allocated.
fn armed(f: impl FnOnce()) -> (u64, i64) {
    COUNTED.with(|n| n.set(0));
    HELD.with(|held| held.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    (COUNTED.with(Cell::get), HELD.with(Cell::get))
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

/// The most allocations any of `runs` calls of `step` makes.
fn most_allocations(runs: u32, mut step: impl FnMut() -> u64) -> u64 {
    (0..runs).map(|_| step()).max().unwrap_or(0)
}

/// The bookkeeping beside the protocol work allocates nothing once warm:
/// a SimNet round trip's accounting (to an app that answers without
/// allocating), an audit append at the cap, and a Host enforcement its
/// decision cache serves, whose access-log append is at the cap.
#[test]
fn bookkeeping_appends_allocate_nothing() {
    let net = SimNet::new();
    net.trace().set_enabled(false);
    net.register(Arc::new(StubHost));
    let url = format!("https://{STUB}/{FILE}");
    let get = || Request::new(Method::Get, &url).with_bearer(TOKEN);
    assert_eq!(net.dispatch("requester:alice", get()).status.code(), 200);
    let round_trip = most_allocations(31, || {
        let req = get();
        count(|| drop(net.dispatch("requester:alice", req)))
    });
    println!("decision_alloc_budget: SimNet round trip accounting: {round_trip} allocations");

    let hub = AuditHub::new();
    hub.set_cap(4_096);
    for at in 0..4_200 {
        hub.record(churn_shaped_entry(at));
    }
    let audit = most_allocations(31, || {
        let entry = churn_shaped_entry(0);
        count(|| hub.record(entry))
    });
    println!("decision_alloc_budget: audit append at the cap: {audit} allocations");

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
    let core = &rig.host.shell().core;
    let return_url = Url::new(HOST, &format!("/{FILE}"));
    let enforce = || {
        let verdict = core.enforce(
            &rig.net,
            "requester:alice",
            None,
            FILE,
            &Action::Read,
            Some(&token),
            &return_url,
        );
        assert!(verdict.is_grant());
    };
    for _ in 0..4_200 {
        enforce();
    }
    assert_eq!(core.log().len(), 4_096, "the access log is at its cap");
    let hits = core.stats().cache_hits;
    let cache_hit = most_allocations(31, || count(enforce));
    assert_eq!(
        core.stats().cache_hits - hits,
        31,
        "the decision cache served"
    );
    println!("decision_alloc_budget: Host cache hit with its log append: {cache_hit} allocations");

    for (name, allocs) in [
        ("SimNet round trip accounting", round_trip),
        ("audit append at the cap", audit),
        ("Host cache hit and its log append at the cap", cache_hit),
    ] {
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} allocations, over its budget of 0"
        );
    }
}

/// An audit entry shaped like `churn_sim`'s decision records: an owner of
/// 10 bytes, a Host of 14, a resource id of 20, a requester of 15 and
/// one policy.
fn churn_shaped_entry(at: u64) -> AuditEntry {
    AuditEntry::new(
        at,
        "owner-0007",
        AuditEvent::Decision {
            outcome: Outcome::Permit,
        },
    )
    .on_resource(ResourceRef::new(CHURN_HOST, CHURN_RESOURCE))
    .by_requester(CHURN_REQUESTER, None)
    .for_action(Action::Read)
    .with_policies(vec![PolicyId::from("p-17")])
}

const CHURN_HOST: &str = "host-1.example";
const CHURN_RESOURCE: &str = "files/pop/r000000017";
const CHURN_REQUESTER: &str = "requester:req-5";

/// The bytes the AM's audit ring and the Host's access log retain per
/// record, at their 4,096-record caps, for `churn_sim`-shaped records;
/// each against its budget, the figure this tree measures. (0.25.0's
/// packed slots, one reused buffer or two per record, held 281 and 109.)
#[test]
fn ring_records_retain_their_budgeted_bytes() {
    const RECORDS: u64 = 4_096;
    let hub = AuditHub::new();
    hub.set_cap(4_096);
    let audit = retained(|| {
        for at in 0..RECORDS {
            hub.record(churn_shaped_entry(at));
        }
    });
    assert_eq!(hub.len(), 4_096);

    let net = SimNet::new();
    net.trace().set_enabled(false);
    let host = |clock| {
        let core = HostCore::new(CHURN_HOST, clock);
        core.put_resource(CHURN_RESOURCE, "owner-0007", "file", b"x".to_vec())
            .unwrap();
        core
    };
    let return_url = Url::new(CHURN_HOST, &format!("/{CHURN_RESOURCE}"));
    let access = |core: &HostCore| {
        // No delegation and no ACL: the legacy check refuses and logs.
        let verdict = core.enforce(
            &net,
            CHURN_REQUESTER,
            None,
            CHURN_RESOURCE,
            &Action::Read,
            None,
            &return_url,
        );
        assert!(!verdict.is_grant());
    };
    // A first access on this thread, on another Host, sets up whatever
    // the thread keeps for every Host.
    access(&host(net.clock().clone()));
    let core = host(net.clock().clone());
    let log = retained(|| {
        for _ in 0..RECORDS {
            access(&core);
        }
    });
    assert_eq!(core.log().len(), 4_096);

    let per_record = |bytes: i64| bytes as f64 / RECORDS as f64;
    let (audit, log) = (per_record(audit), per_record(log));
    println!("decision_alloc_budget: audit ring: {audit:.1} bytes per record");
    println!("decision_alloc_budget: access log: {log:.1} bytes per record");
    for (name, bytes, budget) in [
        ("audit ring", audit, AUDIT_BYTES),
        ("access log", log, LOG_BYTES),
    ] {
        assert!(
            bytes <= budget,
            "{name}: {bytes:.1} bytes per record, over its budget of {budget}"
        );
    }
}

/// Retained bytes per `churn_sim`-shaped audit record.
const AUDIT_BYTES: f64 = 128.0;
/// Retained bytes per `churn_sim`-shaped access-log record.
const LOG_BYTES: f64 = 64.0;

/// An owner shaped like `churn_sim`'s, for the edit rows: `grants` live
/// realm tokens, one per requester, over a realm of `resources` files on
/// one WebStorage Host that holds their pushed sieve. One edit unlinks
/// or relinks the realm's read policy, then drains the push (a delta the
/// Host installs).
struct EditRig {
    net: SimNet,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
    policy: PolicyId,
}

impl EditRig {
    fn new(grants: usize, resources: usize) -> EditRig {
        let net = SimNet::new();
        net.trace().set_enabled(false);
        let clock = net.clock().clone();
        let am = Arc::new(AuthorizationManager::new(AM, clock.clone()));
        am.set_audit_cap(64);
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
                host_token,
                delegation_id: delegation.id,
            },
        );
        let files: Vec<String> = (0..resources)
            .map(|r| format!("files/pop/r{r:09}"))
            .collect();
        for file in &files {
            host.shell()
                .core
                .put_resource(file, "bob", "file", b"x".to_vec())
                .unwrap();
        }
        let policy = am
            .pap("bob", |account| {
                let read = Rule::permit()
                    .for_subject(Subject::Public)
                    .for_action(Action::Read);
                let policy = account.create_policy(
                    "open-read",
                    PolicyBody::Rules(RulePolicy::new().with_rule(read)),
                );
                for file in &files {
                    account.assign_realm(ResourceRef::new(HOST, file), "pop");
                }
                account.link_general("pop", &policy).unwrap();
                policy
            })
            .unwrap();
        for g in 0..grants {
            let requester = format!("requester:r{g:03}");
            let request = AuthorizeRequest::new(HOST, "bob", &files[0], Action::Read, &requester);
            assert!(matches!(
                am.authorize(&request),
                AuthorizeOutcome::Token { .. }
            ));
        }
        am.schedule_sieve_refresh();
        while am.pump_epoch_pushes(&net) > 0 {}
        EditRig {
            net,
            am,
            host,
            policy,
        }
    }

    /// One edit: the realm's policy unlinked (`revoke`) or linked again,
    /// then every push drained and installed.
    fn edit(&self, revoke: bool) {
        self.am
            .pap("bob", |account| {
                if revoke {
                    account.unlink_general("pop");
                } else {
                    account.link_general("pop", &self.policy).unwrap();
                }
            })
            .unwrap();
        while self.am.pump_epoch_pushes(&self.net) > 0 {}
    }

    /// Mean allocations of one edit, over `pairs` revoke-restore pairs
    /// after two uncounted ones; every edit is a delta the Host installs.
    fn mean_edit_allocs(&self, pairs: u32) -> f64 {
        let deltas = || self.host.shell().core.stats().sieve_delta_installs;
        for revoke in [true, false, true, false] {
            self.edit(revoke);
        }
        let before = deltas();
        let mut total = 0;
        for _ in 0..pairs {
            total += count(|| self.edit(true));
            total += count(|| self.edit(false));
        }
        assert_eq!(
            deltas() - before,
            u64::from(2 * pairs),
            "one delta per edit"
        );
        total as f64 / f64::from(2 * pairs)
    }
}

/// Allocations per edit (the policy edit, the push drain and the Host's
/// delta install, on one thread on SimNet) at three owner shapes, each
/// against a budget of [`EDIT_BASE`] plus [`EDIT_PER_PAIR`] per (live
/// grant, resource) pair. Half the edits revoke the realm (every pair
/// compiles to no entry) and half restore it (every pair to one read
/// entry). 0.26.0 judged each pair once per built-in action, each judgement
/// on a tuple and a decision of its own, and copied every live grant
/// into each compile: the figures it measured are printed beside.
#[test]
fn edits_stay_within_their_allocation_budget() {
    // (grants, resources, what 0.26.0 measured)
    for (grants, resources, parent) in [(8, 4, 973.0), (28, 2, 1_763.0), (16, 8, 3_574.0)] {
        let rig = EditRig::new(grants, resources);
        let mean = rig.mean_edit_allocs(4);
        let pairs = (grants * resources) as f64;
        let budget = EDIT_BASE + EDIT_PER_PAIR * pairs;
        println!(
            "decision_alloc_budget: edit, {grants} grants x {resources} resources: \
             {mean:.1} allocations (budget {budget:.0}; 0.26.0 {parent:.1})"
        );
        assert!(
            mean <= budget,
            "{grants} x {resources}: {mean:.1} allocations per edit, over its budget of {budget:.0}"
        );
    }
}

/// Allocations of one edit beyond the pairs it replays.
const EDIT_BASE: f64 = 60.0;
/// Allocations of one edit per (live grant, resource) pair.
const EDIT_PER_PAIR: f64 = 12.0;

/// The bytes the AM's issued-grants registry retains for one owner once
/// its earlier tokens have expired: eight batches of 32 tokens, the clock
/// passing the token lifetime after each, then a ninth batch. Only the
/// ninth is live, and only it may stay; 0.26.0 kept all nine.
#[test]
fn the_issued_grants_registry_retains_only_live_grants() {
    const LIVE: usize = 32;
    const EXPIRED_BATCHES: usize = 8;
    let net = SimNet::new();
    let clock = net.clock().clone();
    let am = AuthorizationManager::new(AM, clock.clone());
    am.set_audit_cap(64);
    for owner in ["owner-0007", "owner-0008"] {
        am.register_user(owner);
        am.establish_delegation(CHURN_HOST, owner).unwrap();
        am.pap(owner, |account| {
            let read = Rule::permit()
                .for_subject(Subject::Public)
                .for_action(Action::Read);
            let policy =
                account.create_policy("p-17", PolicyBody::Rules(RulePolicy::new().with_rule(read)));
            account.assign_realm(ResourceRef::new(CHURN_HOST, CHURN_RESOURCE), "pop");
            account.link_general("pop", &policy).unwrap();
        })
        .unwrap();
    }
    let batch = |owner: &str| {
        for r in 0..LIVE {
            let requester = format!("requester:r{r:03}");
            let request =
                AuthorizeRequest::new(CHURN_HOST, owner, CHURN_RESOURCE, Action::Read, &requester);
            assert!(matches!(
                am.authorize(&request),
                AuthorizeOutcome::Token { .. }
            ));
        }
    };
    // Another owner's tokens fill the audit ring past its cap first, so
    // the count below is the registry's alone.
    for _ in 0..3 {
        batch("owner-0008");
    }
    let bytes = retained(|| {
        for _ in 0..EXPIRED_BATCHES {
            batch("owner-0007");
            clock.advance_ms(AUTHZ_TOKEN_TTL_MS + 1);
        }
        batch("owner-0007");
    });
    let per_live = bytes as f64 / LIVE as f64;
    println!(
        "decision_alloc_budget: issued-grants registry: {per_live:.1} bytes per live grant \
         (0.26.0 {REGISTRY_BYTES_0_26:.1}, holding every expired one)"
    );
    assert!(
        per_live <= REGISTRY_BYTES,
        "{per_live:.1} bytes per live grant, over its budget of {REGISTRY_BYTES}"
    );
}

/// Retained registry bytes per live grant.
const REGISTRY_BYTES: f64 = 483.0;
/// What 0.26.0 retained per live grant in the same run.
const REGISTRY_BYTES_0_26: f64 = 5_296.9;
