//! The deployment every workload runs on, assembled through public APIs
//! only: one AM, `hosts` WebStorage Hosts, and a seeded population from
//! `ucam_sim::population` (owner `u` homed on Host `u % hosts`, resource
//! `r` owned by `r % users`).
//!
//! Set-up is the protocol's whole write path, timed per phase: dynamic
//! registration, v2 delegation with a per-owner push subscription,
//! `put_resource`, one `pap` per owner, and the push drain. Every rig runs
//! with sieve push, invalidation push and conditional revalidation on.
//!
//! Each owner's resources are spread over `realms` realms, each linked to
//! its own public-read policy. An edit unlinks or relinks one realm, and
//! the rig keeps the ground-truth table the outcome oracle judges by.

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use ucam_am::AuthorizationManager;
use ucam_host::WebStorage;
use ucam_policy::{Action, PolicyBody, PolicyId, ResourceRef, Rule, RulePolicy, Subject};
use ucam_sim::population::{Population, PopulationConfig};
use ucam_webenv::{
    protocol, HttpTransport, Method, Request, SimNet, Status, Transport, Url, WebApp,
};

use crate::trace::{Side, TimedApp, Tracer};

/// The AM's authority.
pub const AM: &str = "am.example";

/// Delegations one Host sends (and `/delegate/done` installs the AM
/// sends back) per pipelined stride during set-up.
const SETUP_STRIDE: usize = 64;

/// Which transport backend carries the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic in-process fabric.
    Sim,
    /// Real loopback TCP through the HTTP/1.1 codec.
    Http,
}

impl Backend {
    /// Label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Http => "http",
        }
    }

    fn build(self) -> Arc<dyn Transport> {
        match self {
            Backend::Sim => Arc::new(SimNet::new()),
            Backend::Http => Arc::new(HttpTransport::new()),
        }
    }
}

/// The population a rig serves.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Resource owners (AM accounts).
    pub users: usize,
    /// Resources, round-robin over the owners; at least `users * realms`.
    pub resources: usize,
    /// Hosts the owners are homed on.
    pub hosts: usize,
    /// Realms per owner, each with its own policy.
    pub realms: usize,
    /// Requester pool traffic draws from.
    pub requesters: usize,
    /// Decision cache TTL every owner sets, in logical ms.
    pub cache_ttl_ms: u64,
}

/// Wall time of each set-up phase, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Hosts registering at `/protection/v2/register`.
    pub register_ns: u64,
    /// Owner accounts, v2 delegations and `/delegate/done` installs.
    pub delegate_ns: u64,
    /// `HostCore::put_resource` for every resource.
    pub put_resource_ns: u64,
    /// One `pap` per owner composing its realm policies.
    pub pap_ns: u64,
    /// Draining the push backlog the set-up queued.
    pub drain_ns: u64,
}

/// One assembled deployment plus its ground truth.
pub struct Rig {
    /// The transport every party is registered on.
    pub net: Arc<dyn Transport>,
    /// The Authorization Manager.
    pub am: Arc<AuthorizationManager>,
    /// The Hosts, indexed like the population's Host indexes.
    pub hosts: Vec<Arc<WebStorage>>,
    /// Names, placement and the seeded traffic stream.
    pub pop: Population,
    /// The shape this rig was built with.
    pub shape: Shape,
    /// Per-phase set-up wall times.
    pub setup: SetupSplit,
    /// Policy id of `(owner, realm)` at `owner * realms + realm`.
    policies: Vec<PolicyId>,
    /// Whether `(owner, realm)` is currently linked (readable).
    granted: Vec<bool>,
}

fn realm_name(realm: usize) -> String {
    format!("realm-{realm}")
}

fn register(net: &dyn Transport, app: Arc<dyn WebApp>, side: Side, tracer: Option<&Arc<Tracer>>) {
    match tracer {
        Some(tracer) => net.register(TimedApp::new(app, side, Arc::clone(tracer))),
        None => net.register(app),
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Rig {
    /// Builds and provisions a rig. With a tracer, every application is
    /// registered behind a [`TimedApp`].
    ///
    /// # Panics
    ///
    /// Panics when the shape is inconsistent or any set-up step fails on
    /// the healthy fabric.
    #[must_use]
    pub fn build(backend: Backend, shape: &Shape, seed: u64, tracer: Option<&Arc<Tracer>>) -> Rig {
        assert!(
            shape.resources >= shape.users * shape.realms,
            "every (owner, realm) needs a resource"
        );
        let pop = Population::new(PopulationConfig {
            users: shape.users,
            resources: shape.resources,
            hosts: shape.hosts,
            requesters: shape.requesters,
            seed,
            zipf_s: 1.0,
        });
        let net = backend.build();
        net.trace().set_enabled(false);
        let clock = net.clock().clone();
        let am = Arc::new(AuthorizationManager::new(AM, clock.clone()));
        am.set_audit_cap(4_096);
        am.set_sieve_push(true);
        am.set_invalidation_push(true);
        register(net.as_ref(), am.clone(), Side::Am, tracer);
        let hosts: Vec<Arc<WebStorage>> = (0..shape.hosts)
            .map(|h| {
                let host = WebStorage::new(&pop.host_authority(h), clock.clone());
                host.shell().core.set_conditional_revalidation(true);
                register(net.as_ref(), host.clone(), Side::Host, tracer);
                host
            })
            .collect();
        let mut setup = SetupSplit::default();

        let started = Instant::now();
        let credentials: Vec<protocol::RegistrationReply> = (0..shape.hosts)
            .map(|h| {
                let authority = pop.host_authority(h);
                let resp = net.dispatch(
                    &authority,
                    Request::to_url(Method::Post, Url::new(AM, protocol::REGISTER_PATH)).with_body(
                        protocol::RegisterBody {
                            kind: "host".into(),
                            authority: authority.clone(),
                        }
                        .to_json(),
                    ),
                );
                assert_eq!(resp.status, Status::Created, "registration: {}", resp.body);
                protocol::RegistrationReply::from_json(&resp.body).expect("registration reply")
            })
            .collect();
        setup.register_ns = elapsed_ns(started);

        // Each Host delegates its owners in pipelined strides, and the AM
        // answers each stride's `/delegate/done` installs the same way, so
        // on HTTP the phase measures the handlers rather than the wake-up
        // latency of idle server workers. SimNet dispatches them in turn.
        let started = Instant::now();
        for user in pop.users() {
            am.register_user(&user.name);
        }
        for (h, cred) in credentials.iter().enumerate() {
            let authority = pop.host_authority(h);
            // Owner `u` is homed on Host `u % hosts`.
            let homed: Vec<String> = (h as u64..shape.users as u64)
                .step_by(shape.hosts)
                .map(|u| pop.user_name(u))
                .collect();
            for stride in homed.chunks(SETUP_STRIDE) {
                let delegations = stride
                    .iter()
                    .map(|user| {
                        Request::to_url(Method::Post, Url::new(AM, protocol::DELEGATE_V2_PATH))
                            .with_param("registrant_id", &cred.registrant_id)
                            .with_param("secret", &cred.secret)
                            .with_param("user", user)
                            .with_param("subscribe", "1")
                    })
                    .collect();
                let installs = stride
                    .iter()
                    .zip(net.dispatch_pipelined(&authority, delegations))
                    .map(|(user, resp)| {
                        assert_eq!(resp.status, Status::Created, "delegation: {}", resp.body);
                        let reply =
                            protocol::DelegateReply::from_json(&resp.body).expect("delegate reply");
                        Request::to_url(Method::Get, Url::new(&authority, "/delegate/done"))
                            .with_param("user", user)
                            .with_param("am", AM)
                            .with_param("host_token", &reply.host_token)
                            .with_param("delegation_id", &reply.delegation_id)
                    })
                    .collect();
                for done in net.dispatch_pipelined(AM, installs) {
                    assert!(done.status.is_success(), "delegate/done: {}", done.body);
                }
            }
        }
        setup.delegate_ns = elapsed_ns(started);

        let started = Instant::now();
        for resource in pop.resources() {
            hosts[resource.host]
                .shell()
                .core
                .put_resource(
                    &resource.path,
                    &pop.user_name(resource.owner),
                    "file",
                    expected_body(resource.id).into_bytes(),
                )
                .expect("resource registration");
        }
        setup.put_resource_ns = elapsed_ns(started);

        let started = Instant::now();
        let mut policies = Vec::with_capacity(shape.users * shape.realms);
        for user in pop.users() {
            let authority = pop.host_authority(user.host);
            let ids = am
                .pap(&user.name, |account| {
                    account.set_cache_ttl_ms(shape.cache_ttl_ms);
                    let ids: Vec<PolicyId> = (0..shape.realms)
                        .map(|k| {
                            account.create_policy(
                                &format!("open-read-{k}"),
                                PolicyBody::Rules(
                                    RulePolicy::new().with_rule(
                                        Rule::permit()
                                            .for_subject(Subject::Public)
                                            .for_action(Action::Read),
                                    ),
                                ),
                            )
                        })
                        .collect();
                    let mut r = user.id;
                    while r < shape.resources as u64 {
                        let realm = realm_of(shape, r);
                        account.assign_realm(
                            ResourceRef::new(&authority, &pop.resource_id(r)),
                            &realm_name(realm),
                        );
                        r += shape.users as u64;
                    }
                    for (k, id) in ids.iter().enumerate() {
                        account
                            .link_general(&realm_name(k), id)
                            .expect("link realm");
                    }
                    ids
                })
                .expect("policy composition");
            policies.extend(ids);
        }
        setup.pap_ns = elapsed_ns(started);

        let mut rig = Rig {
            net,
            am,
            hosts,
            pop,
            shape: shape.clone(),
            setup,
            granted: vec![true; policies.len()],
            policies,
        };
        let started = Instant::now();
        rig.drain();
        rig.setup.drain_ns = elapsed_ns(started);
        rig
    }

    /// Drops the rig; on HTTP, also waits until the AM and every Host are
    /// freed. HTTP server workers notice that their transport is gone
    /// only at their next poll and keep the applications alive until
    /// then, so without the wait two rigs would share the peak resident
    /// set by chance. (SimNet's per-thread configuration cache keeps the
    /// last few transports' applications alive on purpose; that is the
    /// same in every run.)
    ///
    /// # Panics
    ///
    /// Panics when the applications are still alive after 10 s.
    pub fn tear_down(self) {
        if !self.net.as_any().is::<HttpTransport>() {
            return;
        }
        let am = Arc::downgrade(&self.am);
        let hosts: Vec<Weak<WebStorage>> = self.hosts.iter().map(Arc::downgrade).collect();
        drop(self);
        let deadline = Instant::now() + Duration::from_secs(10);
        while am.strong_count() + hosts.iter().map(Weak::strong_count).sum::<usize>() > 0 {
            assert!(
                Instant::now() < deadline,
                "the rig's applications outlived its transport"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Delivers every queued push, returning how many landed.
    ///
    /// # Panics
    ///
    /// Panics when the backlog does not drain on the healthy fabric.
    pub fn drain(&self) -> u64 {
        let mut delivered = 0;
        for _ in 0..10_000 {
            let landed = self.am.pump_epoch_pushes_bounded(self.net.as_ref(), 4_096) as u64;
            delivered += landed;
            if self.am.pending_epoch_pushes() == 0 {
                return delivered;
            }
            if landed == 0 {
                // Only failed deliveries remain: let their backoff pass.
                self.net.clock().advance_ms(50);
            }
        }
        panic!("pushes failed to drain on a healthy fabric");
    }

    /// Unlinks `(owner, realm)` when it is linked, relinks it otherwise,
    /// and updates the ground truth. Pushes stay queued until
    /// [`Rig::drain`].
    pub fn toggle(&mut self, owner: u64, realm: usize) {
        let slot = owner as usize * self.shape.realms + realm;
        let grant = !self.granted[slot];
        let policy = &self.policies[slot];
        self.am
            .pap(&self.pop.user_name(owner), |account| {
                if grant {
                    account
                        .link_general(&realm_name(realm), policy)
                        .expect("relink realm");
                } else {
                    account
                        .unlink_general(&realm_name(realm))
                        .expect("realm linked");
                }
            })
            .expect("policy edit");
        self.granted[slot] = grant;
    }

    /// Whether ground truth grants a read of resource `r`.
    #[must_use]
    pub fn grants(&self, r: u64) -> bool {
        let owner = self.pop.owner_of_resource(r) as usize;
        self.granted[owner * self.shape.realms + realm_of(&self.shape, r)]
    }

    /// The first resource `owner` has in `realm`.
    #[must_use]
    pub fn resource_in(&self, owner: u64, realm: usize) -> u64 {
        owner + (realm * self.shape.users) as u64
    }

    /// The URL a requester reads resource `r` at.
    #[must_use]
    pub fn url(&self, r: u64) -> Url {
        let host = self.pop.host_of_user(self.pop.owner_of_resource(r));
        Url::new(
            &self.pop.host_authority(host),
            &format!("/{}", self.pop.resource_id(r)),
        )
    }
}

/// The realm resource `r` belongs to: the owner's `j`-th resource is in
/// realm `j % realms`.
fn realm_of(shape: &Shape, r: u64) -> usize {
    (r / shape.users as u64) as usize % shape.realms
}

/// The content stored as resource `r`, which a grant must return.
#[must_use]
pub fn expected_body(r: u64) -> String {
    format!("content of r{r}")
}
