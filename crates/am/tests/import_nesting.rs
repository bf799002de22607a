//! The AM's import parsers against hostile nesting. Both recurse once per
//! nesting level: the policy XML parser (`/policies/import?format=xml`)
//! and the JSON parser (`/policies/import?format=json`,
//! `/account/import`). A body nested 100,000 levels deep must be a parse
//! error, not a stack overflow that aborts the whole process, and the AM
//! must keep answering decisions afterwards.

use std::sync::Arc;

use ucam_am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest};
use ucam_policy::prelude::*;
use ucam_policy::xml;
use ucam_webenv::protocol::DECISION_V2_PATH;
use ucam_webenv::{HttpTransport, Method, Request, SimNet, Status, Transport, Url};

const DEPTH: usize = 100_000;
const HOST: &str = "webpics.example";
const PHOTO: &str = "photo-1";
const REQUESTER: &str = "requester:editor";

/// Hostile bodies: unclosed and closed nesting, `DEPTH` levels each.
fn deep_xml() -> [String; 2] {
    let open = "<a>".repeat(DEPTH);
    let closed = format!("{open}{}", "</a>".repeat(DEPTH));
    [open, closed]
}

fn deep_json() -> [String; 3] {
    let open = "[".repeat(DEPTH);
    let arrays = format!("{open}{}", "]".repeat(DEPTH));
    let objects = format!("{}0{}", "{\"a\":".repeat(DEPTH), "}".repeat(DEPTH));
    [open, arrays, objects]
}

#[test]
fn both_parsers_refuse_deep_nesting_on_a_256_kib_stack() {
    let accepted = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let xml = deep_xml()
                .iter()
                .filter(|doc| xml::parse(doc).is_ok())
                .count();
            let json = deep_json()
                .iter()
                .filter(|doc| serde_json::from_str::<Vec<Policy>>(doc).is_ok())
                .count();
            xml + json
        })
        .expect("spawn a small-stack thread")
        .join()
        .expect("a parser overflowed the stack");
    assert_eq!(accepted, 0);
}

/// An AM on `net` where alice may read bob's photo, and the host token
/// and authorization token a decision query for that read carries.
fn rig(net: &dyn Transport) -> (String, String) {
    let am = Arc::new(AuthorizationManager::new("am.example", net.clock().clone()));
    am.register_user("bob");
    let (_, host_token) = am.establish_delegation(HOST, "bob").unwrap();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "alice-reads",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::User("alice".into()))
                        .for_action(Action::Read),
                ),
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
    (host_token, token)
}

#[test]
fn import_routes_answer_400_to_deep_bodies_and_the_am_still_decides() {
    let http = HttpTransport::new();
    let backends: [Arc<dyn Transport>; 2] = [Arc::new(SimNet::new()), Arc::new(http)];
    for net in backends {
        let (host_token, token) = rig(net.as_ref());
        let import = |path: &str, format: Option<&str>, body: &str| {
            let mut req = Request::new(Method::Post, &format!("https://am.example{path}"))
                .with_param("owner", "bob")
                .with_body(body);
            if let Some(format) = format {
                req = req.with_param("format", format);
            }
            net.dispatch("browser:bob", req).status
        };
        for body in deep_xml() {
            assert_eq!(
                import("/policies/import", Some("xml"), &body),
                Status::BadRequest,
                "{}: deep XML policy import",
                net.name()
            );
        }
        for body in deep_json() {
            assert_eq!(
                import("/policies/import", Some("json"), &body),
                Status::BadRequest,
                "{}: deep JSON policy import",
                net.name()
            );
            assert_eq!(
                import("/account/import", None, &body),
                Status::BadRequest,
                "{}: deep account import",
                net.name()
            );
        }

        let decision = net.dispatch(
            HOST,
            Request::to_url(Method::Post, Url::new("am.example", DECISION_V2_PATH))
                .with_param("host_token", &host_token)
                .with_param("token", &token)
                .with_param("resource", PHOTO)
                .with_param("action", "read")
                .with_param("requester", REQUESTER),
        );
        assert_eq!(decision.status, Status::Ok, "{}", net.name());
        assert!(
            decision.body.contains("\"permit\""),
            "{}: {}",
            net.name(),
            decision.body
        );
        net.unregister("am.example");
    }
}
