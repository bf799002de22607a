//! E5 — Fig. 5: authorization-token issuance. Micro (mint/validate) and
//! macro (full `/authorize` evaluation + issuance at the AM).

use criterion::{criterion_group, criterion_main, Criterion};

use ucam_am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest, TokenService};
use ucam_policy::prelude::*;
use ucam_sim::experiments::figures;
use ucam_webenv::SimClock;

fn print_figure() {
    let fig = figures::e5_token();
    eprintln!(
        "\n[E5] Fig. 5 regenerated ({} round trips):",
        fig.round_trips
    );
    eprint!("{}", fig.trace);
    eprintln!();
}

fn issuing_am() -> AuthorizationManager {
    let am = AuthorizationManager::new("am.example", SimClock::new());
    am.register_user("bob");
    am.establish_delegation("h.example", "bob").unwrap();
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
    am
}

fn bench_token_mint_validate(c: &mut Criterion) {
    print_figure();
    let service = TokenService::new(SimClock::new());
    let grant = service.grant(
        Some("realm"),
        "res",
        "h.example",
        "req",
        Some("alice"),
        "bob",
    );
    c.bench_function("e5/token_mint", |b| {
        b.iter(|| service.mint_authz_token(std::hint::black_box(&grant)));
    });
    let token = service.mint_authz_token(&grant);
    let mut payload = Vec::new();
    c.bench_function("e5/token_validate", |b| {
        b.iter(|| {
            service
                .validate_authz_token(
                    std::hint::black_box(&token),
                    &mut payload,
                    "h.example",
                    "res",
                    "req",
                )
                .unwrap()
                .expires_at_ms
        });
    });
}

fn bench_authorize_endpoint(c: &mut Criterion) {
    let am = issuing_am();
    let request = AuthorizeRequest::new("h.example", "bob", "r", Action::Read, "req");
    c.bench_function("e5/am_authorize_evaluate_and_issue", |b| {
        b.iter(|| {
            let outcome = am.authorize(std::hint::black_box(&request));
            assert!(matches!(outcome, AuthorizeOutcome::Token { .. }));
            outcome
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_token_mint_validate, bench_authorize_endpoint
);
criterion_main!(benches);
