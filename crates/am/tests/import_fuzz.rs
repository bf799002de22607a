//! Seeded fuzz suite for the AM's import parsers, in the idiom of the
//! protocol decoder suite: the policy importer in both formats
//! (`/policies/import?format=xml`, `/policies/import?format=json`) and
//! the account importer (`/account/import`) read bodies nobody has
//! vetted. Every truncation of a canonical export, every single-byte flip
//! of one and seeded noise spliced into one must either import or be
//! refused with 400; none may panic the AM. Afterwards the AM still
//! answers a decision query.

use std::sync::Arc;

use proptest::prelude::*;
use ucam_am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest};
use ucam_policy::prelude::*;
use ucam_webenv::{DecisionBody, Method, Request, SimNet, Status};

const HOST: &str = "webpics.example";
const PHOTO: &str = "photo-1";
const REQUESTER: &str = "requester:editor";

/// One import route and the canonical body it is fuzzed from.
struct Target {
    path: &'static str,
    format: Option<&'static str>,
    body: String,
}

/// An AM on a fresh SimNet where alice may read bob's photo until a
/// deadline, a friend may read three times, and a deny rule shuts out
/// mallory; plus the host token and alice's authorization token, and
/// the three canonical exports.
struct Rig {
    net: SimNet,
    host_token: String,
    token: String,
    targets: Vec<Target>,
}

fn rig() -> Rig {
    let net = SimNet::new();
    let am = Arc::new(AuthorizationManager::new("am.example", net.clock().clone()));
    am.register_user("bob");
    let (_, host_token) = am.establish_delegation(HOST, "bob").unwrap();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "alice-reads \"until\" <soon> & more",
            PolicyBody::Rules(
                RulePolicy::new()
                    .with_rule(
                        Rule::permit()
                            .for_subject(Subject::User("alice".into()))
                            .for_action(Action::Read)
                            .with_condition(Condition::ValidUntil(u64::MAX / 2)),
                    )
                    .with_rule(
                        Rule::permit()
                            .for_subject(Subject::Group("friends".into()))
                            .for_action(Action::Custom("comment".into()))
                            .with_condition(Condition::MaxUses(3)),
                    )
                    .with_rule(Rule::deny().for_subject(Subject::User("mallory".into()))),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();
    let request =
        AuthorizeRequest::new(HOST, "bob", PHOTO, Action::Read, REQUESTER).with_subject("alice");
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&request) else {
        panic!("alice's read must be authorized");
    };
    net.register(am);
    let export = |path: &str, format: Option<&str>| {
        let mut req = Request::new(Method::Get, &format!("https://am.example{path}"))
            .with_param("owner", "bob");
        if let Some(format) = format {
            req = req.with_param("format", format);
        }
        let resp = net.dispatch("browser:bob", req);
        assert_eq!(resp.status, Status::Ok, "export {path} {format:?}");
        resp.body
    };
    let targets = vec![
        Target {
            path: "/policies/import",
            format: Some("xml"),
            body: export("/policies/export", Some("xml")),
        },
        Target {
            path: "/policies/import",
            format: Some("json"),
            body: export("/policies/export", Some("json")),
        },
        Target {
            path: "/account/import",
            format: None,
            body: export("/account/export", None),
        },
    ];
    Rig {
        net,
        host_token,
        token,
        targets,
    }
}

impl Rig {
    /// Imports `body` through `target`'s route and returns the status,
    /// which must be a success or a 400: nothing else, and no panic.
    fn import(&self, target: &Target, body: &str) -> Status {
        let mut req = Request::new(Method::Post, &format!("https://am.example{}", target.path))
            .with_param("owner", "bob")
            .with_body(body);
        if let Some(format) = target.format {
            req = req.with_param("format", format);
        }
        let status = self.net.dispatch("browser:bob", req).status;
        assert!(
            matches!(status, Status::Ok | Status::Created | Status::BadRequest),
            "{} {:?} answered {status:?} to {body:?}",
            target.path,
            target.format
        );
        status
    }

    /// Restores the canonical state (the account import replaces bob's
    /// account whole) and checks that the AM still decides alice's read:
    /// a well-formed permit.
    fn assert_still_decides(&self) {
        for target in &self.targets {
            assert!(
                self.import(target, &target.body).is_success(),
                "{}: the canonical body must import",
                target.path
            );
        }
        let decision = self.net.dispatch(
            HOST,
            Request::new(Method::Post, "https://am.example/protection/v2/decision")
                .with_param("host_token", &self.host_token)
                .with_param("token", &self.token)
                .with_param("resource", PHOTO)
                .with_param("action", "read")
                .with_param("requester", REQUESTER),
        );
        assert_eq!(decision.status, Status::Ok, "{}", decision.body);
        let body = DecisionBody::from_json(&decision.body).expect("a decision body");
        assert!(body.is_permit(), "{}", decision.body);
    }
}

#[test]
fn canonical_exports_import_back() {
    let rig = rig();
    for target in &rig.targets {
        assert!(
            rig.import(target, &target.body).is_success(),
            "{}",
            target.path
        );
    }
    rig.assert_still_decides();
}

/// Every strict prefix of a canonical export is refused with 400 or
/// imports (a prefix may still be a whole document), and never panics.
#[test]
fn truncation_at_every_byte_imports_or_is_refused() {
    let rig = rig();
    for target in &rig.targets {
        let bytes = target.body.as_bytes();
        let mut refused = 0;
        for cut in 0..bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            if rig.import(target, &prefix) == Status::BadRequest {
                refused += 1;
            }
        }
        assert!(refused > 0, "{}: no truncation was refused", target.path);
    }
    rig.assert_still_decides();
}

/// Flipping any one byte of a canonical export imports or is refused
/// with 400, and never panics.
#[test]
fn single_byte_flips_import_or_are_refused() {
    let rig = rig();
    for target in &rig.targets {
        let json = target.body.clone();
        for pos in 0..json.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut bytes = json.clone().into_bytes();
                bytes[pos] ^= mask;
                rig.import(target, &String::from_utf8_lossy(&bytes));
            }
        }
    }
    rig.assert_still_decides();
}

proptest! {
    /// Random bytes, and random runs spliced into a canonical export,
    /// import or are refused with 400 on every route.
    #[test]
    fn seeded_noise_imports_or_is_refused(
        pick in any::<u64>(),
        at in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let rig = rig();
        for target in &rig.targets {
            rig.import(target, &String::from_utf8_lossy(&noise));
        }
        let target = &rig.targets[(pick % rig.targets.len() as u64) as usize];
        let mut bytes = target.body.clone().into_bytes();
        let at = (at % bytes.len() as u64) as usize;
        let end = (at + noise.len()).min(bytes.len());
        bytes.splice(at..end, noise.iter().copied());
        rig.import(target, &String::from_utf8_lossy(&bytes));
        rig.assert_still_decides();
    }
}
