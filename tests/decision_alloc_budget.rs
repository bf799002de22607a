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
//! Each class's mean is printed (run with `--nocapture` to see them) and
//! held to a budget. Run it optimised, as CI does:
//!
//! ```text
//! cargo test --release -q --test decision_alloc_budget -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ucam::am::tokens::AUTHZ_TOKEN_TTL_MS;
use ucam::am::AuthorizationManager;
use ucam::host::{DelegationConfig, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::{SimNet, Url};

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
    host: Arc<WebStorage>,
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
                host_token,
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
            host,
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
    // rig measured 62.0, 57.0, 20.0 and 287.8. The re-authorization mean
    // reads 224.7 or 224.8: each run mints other tokens, so the maps keyed
    // by their digests rehash at other points.
    for (name, mean, budget) in [
        ("decision", decision, 34.0),
        ("revalidation", revalidation, 34.0),
        ("local hit", local, 9.0),
        ("re-authorization", reauthorization, 225.0),
    ] {
        assert!(
            mean <= budget,
            "{name}: {mean:.1} allocations per access, over its budget of {budget}"
        );
    }
}
