//! E6 — Fig. 6: token-bearing access including the Host's decision query,
//! with and without the decision cache on the hot path.

use criterion::{criterion_group, criterion_main, Criterion};

use ucam_sim::experiments::figures;
use ucam_sim::world::HOSTS;

fn print_figure() {
    let fig = figures::e6_access();
    eprintln!(
        "\n[E6] Fig. 6 regenerated ({} round trips):",
        fig.round_trips
    );
    eprint!("{}", fig.trace);
    eprintln!();
}

fn bench_access_with_decision_query(c: &mut Criterion) {
    print_figure();
    // Token held, decision cache DISABLED: every access runs the Fig. 6
    // decision query against the AM.
    let mut world = ucam_bench::shared_world();
    world.set_decision_caches(false);
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
    c.bench_function("e6/access_with_am_decision_query", |b| {
        b.iter(|| {
            let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
            assert!(outcome.is_granted());
        });
    });
}

fn bench_access_cache_hit(c: &mut Criterion) {
    // Token held, decision cache ENABLED and primed: the §V.B.6 fast path.
    let mut world = ucam_bench::shared_world();
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
    c.bench_function("e6/access_decision_cache_hit", |b| {
        b.iter(|| {
            let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
            assert!(outcome.is_granted());
        });
    });
}

fn bench_am_decide(c: &mut Criterion) {
    // The AM-side PDP alone (no network): decision query evaluation.
    use ucam_am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest, DecisionQuery};
    use ucam_policy::prelude::*;
    use ucam_webenv::SimClock;

    let am = AuthorizationManager::new("am.example", SimClock::new());
    am.register_user("bob");
    let (_, host_token) = am.establish_delegation("h.example", "bob").unwrap();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "open",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .for_action(Action::Read),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new("h.example", "r"), &id)
            .unwrap();
    })
    .unwrap();
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&AuthorizeRequest::new(
        "h.example",
        "bob",
        "r",
        Action::Read,
        "req",
    )) else {
        panic!("expected token");
    };
    let query = DecisionQuery {
        host_token: &host_token,
        authz_token: &token,
        resource_id: "r",
        action: Action::Read,
        requester: "req",
    };
    c.bench_function("e6/am_pdp_decide", |b| {
        b.iter(|| am.decide(std::hint::black_box(&query)).unwrap());
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_access_with_decision_query, bench_access_cache_hit, bench_am_decide
);
criterion_main!(benches);
