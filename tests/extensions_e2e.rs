//! End-to-end tests of the §VII future-work features, implemented:
//! XRD/LRDD discovery, XACML policies at the AM, and RT₀ role credentials
//! feeding group clauses; and of the §VI Hosts that act as Requesters for
//! the user whose session calls them.

use ucam::policy::prelude::*;
use ucam::policy::rt::{Credential, RoleRef};
use ucam::requester::AccessOutcome;
use ucam::sim::world::{World, HOSTS};
use ucam::webenv::{Method, Request, Response, Status};

fn base_world() -> World {
    let mut world = World::bootstrap();
    world.upload_content(2);
    world.delegate_all_hosts("bob");
    world
}

#[test]
fn discovery_flow_end_to_end() {
    let mut world = base_world();
    world.share_with_friends("bob", &["alice"]);

    // Alice's agent discovers the AM through host-meta and orchestrates
    // the token flow itself.
    world.net.reset_stats();
    let outcome = world.friend_reads_via_discovery(
        "alice",
        HOSTS[0],
        "/photos/rome/photo-0",
        "albums/rome/photo-0",
    );
    assert!(outcome.is_granted(), "{outcome:?}");
    // host-meta + authorize + access(+nested decision) = 4 round trips —
    // the same as the redirect flow, but requester-orchestrated.
    assert_eq!(world.net.stats().round_trips, 4);
    // The trace shows the well-known lookup instead of a 302 bounce.
    let trace = world.net.trace().render();
    assert!(trace.contains("/.well-known/host-meta"), "{trace}");

    // Subsequent discovery-flow access reuses the token: 1 round trip.
    world.net.reset_stats();
    let outcome = world.friend_reads_via_discovery(
        "alice",
        HOSTS[0],
        "/photos/rome/photo-0",
        "albums/rome/photo-0",
    );
    assert!(outcome.is_granted());
    assert_eq!(world.net.stats().round_trips, 1);
}

#[test]
fn discovery_reports_undelegated_resources() {
    let mut world = World::bootstrap();
    world.upload_content(1);
    // No delegation at all: host-meta publishes no AM link.
    let outcome = world.friend_reads_via_discovery(
        "alice",
        HOSTS[0],
        "/photos/rome/photo-0",
        "albums/rome/photo-0",
    );
    assert!(
        matches!(outcome, AccessOutcome::Failed(_)),
        "expected discovery failure: {outcome:?}"
    );
}

#[test]
fn xacml_policy_protects_resources_end_to_end() {
    let mut world = base_world();
    // Bob writes an XACML policy set: friends may read anything under
    // albums/, writes are denied outright, and everything combines
    // deny-overrides.
    world
        .am
        .pap("bob", |account| {
            account.add_group_member("friends", "alice");
            let set = XacmlPolicySet::new("gallery-rules", Combining::DenyOverrides).with_policy(
                XacmlPolicy::new("friends-read", Combining::DenyOverrides)
                    .with_target(
                        Target::any().with_resource(ResourceMatch::IdPrefix("albums/".into())),
                    )
                    .with_rule(
                        XacmlRule::permit("allow-friends").with_target(
                            Target::any()
                                .with_subject(Subject::Group("friends".into()))
                                .with_action(Action::Read),
                        ),
                    )
                    .with_rule(
                        XacmlRule::deny("no-writes")
                            .with_target(Target::any().with_action(Action::Write)),
                    ),
            );
            let id = account.create_policy("gallery-xacml", PolicyBody::Xacml(set));
            for photo in ["albums/rome/photo-0", "albums/rome/photo-1"] {
                account
                    .link_specific(ResourceRef::new(HOSTS[0], photo), &id)
                    .unwrap();
            }
        })
        .unwrap();

    // Alice reads both photos through the full protocol.
    for photo in ["photo-0", "photo-1"] {
        let outcome = world.friend_reads("alice", HOSTS[0], &format!("/photos/rome/{photo}"));
        assert!(outcome.is_granted(), "{photo}: {outcome:?}");
    }
    // Chris is not a friend.
    let outcome = world.friend_reads("chris", HOSTS[0], "/photos/rome/photo-0");
    assert!(matches!(outcome, AccessOutcome::Denied(_)), "{outcome:?}");
    // Writes (edit operations) are denied even for alice.
    let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0/rotate");
    assert!(matches!(outcome, AccessOutcome::Denied(_)), "{outcome:?}");
}

#[test]
fn xacml_policies_survive_rest_export_import() {
    let world = base_world();
    world
        .am
        .pap("bob", |account| {
            let set = XacmlPolicySet::new("s", Combining::PermitOverrides)
                .with_policy(XacmlPolicy::new("p", Combining::FirstApplicable).with_rule(
                    XacmlRule::permit("r").with_condition(XExpr::TimeBefore(1_000_000)),
                ));
            account.create_policy("structured", PolicyBody::Xacml(set));
        })
        .unwrap();

    for format in [ucam::am::ExportFormat::Json, ucam::am::ExportFormat::Xml] {
        let exported = world
            .am
            .pap_ref("bob", move |account| account.export_policies(format))
            .unwrap();
        world.am.register_user("copy");
        let imported = world
            .am
            .pap("copy", move |account| {
                account.import_policies(format, &exported)
            })
            .unwrap()
            .unwrap();
        assert_eq!(imported, 1, "{format:?}");
    }
}

#[test]
fn rt_credentials_drive_transitive_sharing() {
    let mut world = base_world();
    // Bob's policy grants group "friends" — but membership is *derived*
    // through RT credentials: bob.friends <- alice.friends, and alice
    // (separately) admits chris to alice.friends. Chris gets access to
    // Bob's photos without Bob ever listing him.
    world
        .am
        .pap("bob", |account| {
            account.add_rt_credential(Credential::Inclusion {
                role: RoleRef::new("bob", "friends"),
                from: RoleRef::new("alice", "friends"),
            });
            account.add_rt_credential(Credential::Member {
                role: RoleRef::new("alice", "friends"),
                member: "chris".into(),
            });
            let id = account.create_policy(
                "friends-read",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Group("friends".into()))
                            .for_action(Action::Read),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], "albums/rome/photo-0"), &id)
                .unwrap();
        })
        .unwrap();

    let outcome = world.friend_reads("chris", HOSTS[0], "/photos/rome/photo-0");
    assert!(outcome.is_granted(), "transitive friend: {outcome:?}");

    // Revoking the inclusion credential cuts the chain.
    world
        .am
        .pap("bob", |account| {
            assert!(account.remove_rt_credential(&Credential::Inclusion {
                role: RoleRef::new("bob", "friends"),
                from: RoleRef::new("alice", "friends"),
            }));
        })
        .unwrap();
    world.flush_all_caches();
    let outcome = world.friend_reads("chris", HOSTS[0], "/photos/rome/photo-0");
    assert!(matches!(outcome, AccessOutcome::Denied(_)), "{outcome:?}");
}

#[test]
fn explicit_groups_and_rt_roles_combine() {
    let mut world = base_world();
    world
        .am
        .pap("bob", |account| {
            // alice via the explicit group store, chris via RT.
            account.add_group_member("vips", "alice");
            account.add_rt_credential(Credential::Member {
                role: RoleRef::new("bob", "vips"),
                member: "chris".into(),
            });
            let id = account.create_policy(
                "vip-read",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Group("vips".into()))
                            .for_action(Action::Read),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], "albums/rome/photo-0"), &id)
                .unwrap();
        })
        .unwrap();
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
    assert!(world
        .friend_reads("chris", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
}

/// How a caller proves its session at the Host: the `subject_token` param
/// or only the `ident` cookie.
#[derive(Clone, Copy)]
enum Login {
    Param,
    Cookie,
}

/// `user` asks `host` to copy `src` from `from` into `dest`, through
/// WebStorage's `/backup` or WebPics' `/import`.
fn copy_as(
    world: &mut World,
    user: &str,
    login: Login,
    route: &str,
    params: &[(&str, &str)],
) -> Response {
    let assertion = world.assertion(user);
    let host = if route == "/backup" {
        HOSTS[1]
    } else {
        HOSTS[0]
    };
    let mut req = Request::new(Method::Post, &format!("https://{host}{route}"));
    for (key, value) in params {
        req = req.with_param(key, value);
    }
    req = match login {
        Login::Param => req.with_param("subject_token", &assertion),
        Login::Cookie => req.with_header("cookie", &format!("ident={assertion}")),
    };
    world.net.dispatch(&format!("browser:{user}"), req)
}

fn backup(world: &mut World, user: &str, login: Login, photo: &str, dest: &str) -> Response {
    let src = format!("photos/rome/{photo}");
    let params = [("from", HOSTS[0]), ("src", src.as_str()), ("dest", dest)];
    copy_as(world, user, login, "/backup", &params)
}

fn import(world: &mut World, user: &str, login: Login, file: &str, id: &str) -> Response {
    let src = format!("files/trips/{file}");
    let params = [
        ("from", HOSTS[1]),
        ("src", src.as_str()),
        ("album", "rome"),
        ("id", id),
    ];
    copy_as(world, user, login, "/import", &params)
}

/// WebStorage's `/backup` and WebPics' `/import` act for the session's
/// user only: each call reaches the AM with that user's own assertion
/// (from the param or the cookie alike) and no token cached for an
/// earlier caller. Bob shares with Alice; Chris is denied, however the
/// calls interleave, and nothing is stored for him.
#[test]
fn hosts_acting_as_requesters_never_pass_a_token_or_identity_on() {
    let mut world = base_world();
    world.share_with_friends("bob", &["alice"]);
    let stored = |world: &World, host: usize, id: &str| {
        let shell = if host == 0 {
            world.pics.shell()
        } else {
            world.storage.shell()
        };
        shell.core.resource(id).map(|r| r.owner)
    };

    // First, in a fresh world: Alice's cookie alone carries her identity.
    let resp = backup(&mut world, "alice", Login::Cookie, "photo-0", "a-cookie");
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
    assert_eq!(
        stored(&world, 1, "files/a-cookie").as_deref(),
        Some("alice")
    );
    let resp = backup(&mut world, "alice", Login::Param, "photo-0", "a-param");
    assert_eq!(resp.status, Status::Created, "{}", resp.body);

    // Right after Alice's backup, Chris's cookie-only backup of another
    // photo cannot ride her assertion, and his backup of the photo she
    // just copied cannot ride her token.
    let resp = backup(&mut world, "chris", Login::Cookie, "photo-1", "c-cookie");
    assert_eq!(resp.status, Status::Forbidden, "{}", resp.body);
    assert_eq!(stored(&world, 1, "files/c-cookie"), None);
    let resp = backup(&mut world, "chris", Login::Param, "photo-0", "c-param");
    assert_eq!(resp.status, Status::Forbidden, "{}", resp.body);
    assert_eq!(stored(&world, 1, "files/c-param"), None);

    // The same at WebPics, importing from WebStorage.
    let resp = import(&mut world, "alice", Login::Cookie, "file-0.txt", "a-cookie");
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
    let resp = import(&mut world, "alice", Login::Param, "file-0.txt", "a-param");
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
    assert_eq!(
        stored(&world, 0, "albums/rome/a-param").as_deref(),
        Some("alice")
    );
    let resp = import(&mut world, "chris", Login::Param, "file-0.txt", "c-param");
    assert_eq!(resp.status, Status::Forbidden, "{}", resp.body);
    assert_eq!(stored(&world, 0, "albums/rome/c-param"), None);
}
