//! The scenario world: Bob, his three Web applications, his friends, and
//! his Authorization Manager — §II of the paper, executable.
//!
//! [`World::bootstrap`] wires the full simulated environment: identity
//! provider, AM, WebPics / WebStorage / WebDocs, and user accounts. The
//! experiment drivers (and the examples) then run protocol flows against
//! it and read the network's counters and traces.

use std::collections::HashMap;
use std::sync::Arc;

use ucam_am::AuthorizationManager;
use ucam_host::core::DEFAULT_DECISION_CACHE_CAPACITY;
use ucam_host::{Video, WebDocs, WebPics, WebStorage, WebVideos};
use ucam_policy::{Action, PolicyBody, PolicyId, ResourceRef, Rule, RulePolicy, Subject};
use ucam_requester::{AccessOutcome, AccessSpec, RequesterClient};
use ucam_webenv::identity::IdentityProvider;
use ucam_webenv::{Browser, Method, Request, Response, SimNet, Transport, Url};

/// The AM's authority in the standard world.
pub const AM: &str = "am.example";
/// The identity provider's authority.
pub const IDP: &str = "idp.example";
/// The three primary scenario hosts used by the experiments.
pub const HOSTS: [&str; 3] = ["webpics.example", "webstorage.example", "webdocs.example"];
/// The Sec. II scenario's video service (the fourth registered host).
pub const VIDEO_HOST: &str = "webvideos.example";

/// The assembled scenario world.
pub struct World {
    /// The message transport (owns clock, trace, counters). `SimNet` by
    /// default; [`World::bootstrap_on`] accepts any [`Transport`] backend,
    /// so the same scenario runs over loopback HTTP unchanged.
    pub net: Arc<dyn Transport>,
    /// Bob's chosen Authorization Manager.
    pub am: Arc<AuthorizationManager>,
    /// The identity provider everyone authenticates against.
    pub idp: Arc<IdentityProvider>,
    /// The photo gallery.
    pub pics: Arc<WebPics>,
    /// The online file system.
    pub storage: Arc<WebStorage>,
    /// The word processor.
    pub docs: Arc<WebDocs>,
    /// The online video service (Sec. II scenario).
    pub videos: Arc<WebVideos>,
    /// Cached identity assertions per user.
    assertions: HashMap<String, String>,
    /// Requester clients per friend.
    clients: HashMap<String, RequesterClient>,
    /// Browsers per user.
    browsers: HashMap<String, Browser>,
    /// Uploaded resource ids per host authority.
    uploaded: HashMap<String, Vec<String>>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("hosts", &HOSTS)
            .field("users", &self.assertions.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl World {
    /// Builds the standard world: one AM, one IdP, three hosts, and the
    /// users bob, alice and chris.
    #[must_use]
    pub fn bootstrap() -> Self {
        Self::bootstrap_on(Arc::new(SimNet::new()))
    }

    /// Builds the standard world on an explicit transport backend — the
    /// transport-conformance suite runs the same scenario over `SimNet`
    /// and `HttpTransport` through this.
    #[must_use]
    pub fn bootstrap_on(net: Arc<dyn Transport>) -> Self {
        let clock = net.clock().clone();

        let idp = Arc::new(IdentityProvider::new(IDP, clock.clone()));
        let am = Arc::new(AuthorizationManager::new(AM, clock.clone()));
        let pics = WebPics::new(HOSTS[0], clock.clone());
        let storage = WebStorage::new(HOSTS[1], clock.clone());
        let docs = WebDocs::new(HOSTS[2], clock.clone());
        let videos = WebVideos::new(VIDEO_HOST, clock);

        for user in ["bob", "alice", "chris"] {
            idp.register_user(user, &format!("pw-{user}"));
            am.register_user(user);
        }
        am.set_identity_verifier(idp.verifier());
        pics.shell().set_identity_verifier(idp.verifier());
        storage.shell().set_identity_verifier(idp.verifier());
        docs.shell().set_identity_verifier(idp.verifier());
        videos.shell().set_identity_verifier(idp.verifier());

        net.register(idp.clone());
        net.register(am.clone());
        net.register(pics.clone());
        net.register(storage.clone());
        net.register(docs.clone());
        net.register(videos.clone());

        World {
            net,
            am,
            idp,
            pics,
            storage,
            docs,
            videos,
            assertions: HashMap::new(),
            clients: HashMap::new(),
            browsers: HashMap::new(),
            uploaded: HashMap::new(),
        }
    }

    /// Returns the deterministic `SimNet` backend, for harnesses that
    /// inject simulated faults (partitions, message loss). Fault
    /// injection is backend-specific, so this panics when the world runs
    /// on a different transport.
    ///
    /// # Panics
    ///
    /// Panics if the world was bootstrapped on a non-`SimNet` backend.
    #[must_use]
    pub fn simnet(&self) -> &SimNet {
        self.net
            .as_any()
            .downcast_ref::<SimNet>()
            .expect("this world does not run on SimNet")
    }

    /// Logs `user` in at the IdP (cached) and returns their assertion.
    ///
    /// # Panics
    ///
    /// Panics for users that were not registered at bootstrap.
    pub fn assertion(&mut self, user: &str) -> String {
        if let Some(token) = self.assertions.get(user) {
            return token.clone();
        }
        let assertion = self
            .idp
            .login(user, &format!("pw-{user}"))
            .expect("bootstrap users can always log in");
        self.assertions
            .insert(user.to_owned(), assertion.token.clone());
        assertion.token
    }

    /// Returns the browser of `user` (created on first use).
    pub fn browser(&mut self, user: &str) -> &mut Browser {
        self.browsers
            .entry(user.to_owned())
            .or_insert_with(|| Browser::new(&format!("browser:{user}")))
    }

    /// Returns the requester client acting for `friend`.
    pub fn client(&mut self, friend: &str) -> &mut RequesterClient {
        if !self.clients.contains_key(friend) {
            let assertion = self.assertion(friend);
            let mut client = RequesterClient::new(&format!("requester:{friend}-agent"));
            client.set_subject_token(Some(assertion));
            self.clients.insert(friend.to_owned(), client);
        }
        self.clients.get_mut(friend).expect("just inserted")
    }

    /// Uploads the §II content: `k` photos in album `rome` at WebPics, `k`
    /// files under `trips/` at WebStorage, `k` trip reports at WebDocs.
    pub fn upload_content(&mut self, k: usize) {
        let token = self.assertion("bob");
        // Album / dir / folder containers first.
        self.net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webpics.example/albums")
                .with_param("name", "rome")
                .with_param("subject_token", &token),
        );
        self.net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webstorage.example/mkdir")
                .with_param("path", "trips")
                .with_param("subject_token", &token),
        );
        self.net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webdocs.example/folders")
                .with_param("name", "trips")
                .with_param("subject_token", &token),
        );
        self.net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webvideos.example/collections")
                .with_param("name", "trips")
                .with_param("subject_token", &token),
        );
        self.note_upload(HOSTS[0], "album-meta/rome");
        self.note_upload(HOSTS[1], "dirs/trips");
        self.note_upload(HOSTS[2], "folder-meta/trips");
        self.note_upload(VIDEO_HOST, "collection-meta/trips");

        for i in 0..k {
            let image = ucam_host::Image::gradient(8, 8);
            let body = ucam_crypto::base64url_encode(&image.to_bytes());
            self.net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webpics.example/photos")
                    .with_param("album", "rome")
                    .with_param("id", &format!("photo-{i}"))
                    .with_param("subject_token", &token)
                    .with_body(body),
            );
            self.note_upload(HOSTS[0], &format!("albums/rome/photo-{i}"));

            self.net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webstorage.example/files")
                    .with_param("path", &format!("trips/file-{i}.txt"))
                    .with_param("subject_token", &token)
                    .with_body(format!("trip file {i}")),
            );
            self.note_upload(HOSTS[1], &format!("files/trips/file-{i}.txt"));

            self.net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webdocs.example/docs")
                    .with_param("folder", "trips")
                    .with_param("id", &format!("report-{i}"))
                    .with_param("subject_token", &token)
                    .with_body(format!("Trip report {i}.")),
            );
            self.note_upload(HOSTS[2], &format!("docs/trips/report-{i}"));

            let video = Video::test_pattern(4, 4, 3);
            self.net.dispatch(
                "browser:bob",
                Request::new(Method::Post, "https://webvideos.example/videos")
                    .with_param("collection", "trips")
                    .with_param("id", &format!("clip-{i}"))
                    .with_param("subject_token", &token)
                    .with_body(ucam_crypto::base64url_encode(&video.to_bytes())),
            );
            self.note_upload(VIDEO_HOST, &format!("collections/trips/clip-{i}"));
        }
    }

    /// The default three-resource-per-host §II content.
    pub fn upload_scenario_content(&mut self) {
        self.upload_content(3);
    }

    fn note_upload(&mut self, host: &str, id: &str) {
        self.uploaded
            .entry(host.to_owned())
            .or_default()
            .push(id.to_owned());
    }

    /// Resource ids `owner` uploaded at `host` (in upload order).
    #[must_use]
    pub fn uploaded_at(&self, host: &str) -> &[String] {
        self.uploaded.get(host).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Runs the Fig. 3 delegation flow for `user` against every host
    /// (including the video service), driven through the browser exactly
    /// as the protocol specifies.
    pub fn delegate_all_hosts(&mut self, user: &str) {
        for host in HOSTS {
            self.delegate_host(user, host);
        }
        self.delegate_host(user, VIDEO_HOST);
    }

    /// Logs `user`'s browser in at an AM or a Host: stores their identity
    /// assertion as the `ident` session cookie for that authority.
    pub fn login_browser_at(&mut self, user: &str, authority: &str) {
        let assertion = self.assertion(user);
        self.browser(user)
            .set_cookie(authority, "ident", &assertion);
    }

    /// Runs the Fig. 3 delegation flow for one host. The user starts
    /// logged in at the Host, which stores the delegation only for that
    /// user's own session.
    pub fn delegate_host(&mut self, user: &str, host: &str) {
        self.login_browser_at(user, host);
        self.login_browser_at(user, AM);
        let url = format!("https://{host}/delegate/setup?user={user}&am={AM}");
        let resp = self.with_browser(user, |net, browser| browser.get(net, &url));
        assert!(
            resp.status.is_success(),
            "delegation for {user} at {host} failed: {} {}",
            resp.status,
            resp.body
        );
    }

    /// Runs `f` with the user's browser and the network — the browser is
    /// temporarily taken out of the map so both can be borrowed at once.
    fn with_browser<R>(
        &mut self,
        user: &str,
        f: impl FnOnce(&dyn Transport, &mut Browser) -> R,
    ) -> R {
        let mut browser = self
            .browsers
            .remove(user)
            .unwrap_or_else(|| Browser::new(&format!("browser:{user}")));
        let result = f(self.net.as_ref(), &mut browser);
        self.browsers.insert(user.to_owned(), browser);
        result
    }

    /// Runs `f` with the friend's requester client and the network.
    fn with_client<R>(
        &mut self,
        friend: &str,
        f: impl FnOnce(&dyn Transport, &mut RequesterClient) -> R,
    ) -> R {
        // Ensure the client exists (needs &mut self for the assertion).
        self.client(friend);
        let mut client = self.clients.remove(friend).expect("just ensured");
        let result = f(self.net.as_ref(), &mut client);
        self.clients.insert(friend.to_owned(), client);
        result
    }

    /// Centrally shares everything Bob uploaded with `friends` (R1–R3):
    /// one group, one policy, one realm per host — composed **once** at
    /// the AM.
    pub fn share_with_friends(&mut self, owner: &str, friends: &[&str]) {
        let uploaded = self.uploaded.clone();
        self.am
            .pap(owner, |account| {
                for friend in friends {
                    account.add_group_member("friends", friend);
                }
                let policy = account.create_policy(
                    "friends-read",
                    PolicyBody::Rules(
                        RulePolicy::new().with_rule(
                            Rule::permit()
                                .for_subject(Subject::Group("friends".into()))
                                .for_action(Action::Read)
                                .for_action(Action::List),
                        ),
                    ),
                );
                for (host, ids) in &uploaded {
                    let realm = format!("shared@{host}");
                    for id in ids {
                        account.assign_realm(ResourceRef::new(host, id), &realm);
                    }
                    account
                        .link_general(&realm, &policy)
                        .expect("policy was just created");
                }
            })
            .expect("owner account exists");
    }

    /// Links one more policy to one resource through the browser redirect
    /// flow of Fig. 4 (`/share` at the host → `/compose` at the AM).
    pub fn compose_via_redirect(
        &mut self,
        owner: &str,
        host: &str,
        resource: &str,
        policy: &PolicyId,
    ) -> Response {
        self.login_browser_at(owner, AM);
        let url = format!(
            "https://{host}/share?resource={resource}&policy={}",
            policy.as_str()
        );
        self.with_browser(owner, |net, browser| browser.get(net, &url))
    }

    /// A friend reads a resource through the full Requester flow
    /// (Figs. 5–6). `path` is the host route, e.g. `/photos/rome/photo-0`.
    pub fn friend_reads(&mut self, friend: &str, host: &str, path: &str) -> AccessOutcome {
        let spec = AccessSpec::read(Url::new(host, path));
        self.with_client(friend, |net, client| client.access(net, &spec))
    }

    /// Like [`World::friend_reads`] but using requester-orchestrated
    /// XRD discovery (§VII) instead of the host redirect of Fig. 5.
    /// `resource_id` is the host-local id (e.g. `albums/rome/photo-0`).
    pub fn friend_reads_via_discovery(
        &mut self,
        friend: &str,
        host: &str,
        path: &str,
        resource_id: &str,
    ) -> AccessOutcome {
        let spec = AccessSpec::read(Url::new(host, path));
        let resource_id = resource_id.to_owned();
        self.with_client(friend, |net, client| {
            client.access_via_discovery(net, &spec, &resource_id)
        })
    }

    /// A friend's agent polls a pending consent request at `am`.
    pub fn friend_polls_consent(
        &mut self,
        friend: &str,
        am: &str,
        consent_id: &str,
    ) -> Option<bool> {
        let am = am.to_owned();
        let consent_id = consent_id.to_owned();
        self.with_client(friend, |net, client| {
            client.poll_consent(net, &am, &consent_id)
        })
    }

    /// Flushes every cache in the system (requester tokens + host decision
    /// caches) — the E7 ablation lever.
    pub fn flush_all_caches(&mut self) {
        for client in self.clients.values_mut() {
            client.clear_tokens();
        }
        self.pics.shell().core.flush_decision_cache();
        self.storage.shell().core.flush_decision_cache();
        self.docs.shell().core.flush_decision_cache();
        self.videos.shell().core.flush_decision_cache();
    }

    /// Enables/disables host decision caches on all hosts: a disabled
    /// cache has capacity 0, an enabled one the default capacity.
    pub fn set_decision_caches(&self, enabled: bool) {
        let capacity = if enabled {
            DEFAULT_DECISION_CACHE_CAPACITY
        } else {
            0
        };
        for shell in [
            self.pics.shell(),
            self.storage.shell(),
            self.docs.shell(),
            self.videos.shell(),
        ] {
            shell.core.set_decision_cache_capacity(capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_registers_everything() {
        let mut world = World::bootstrap();
        // All five apps answer.
        for authority in [IDP, AM, HOSTS[0], HOSTS[1], HOSTS[2]] {
            let resp = world.net.dispatch(
                "probe",
                Request::new(Method::Get, &format!("https://{authority}/__nope__")),
            );
            assert_ne!(resp.status.code(), 503, "{authority} must be reachable");
        }
        // Users can log in.
        assert!(!world.assertion("bob").is_empty());
        assert!(!world.assertion("alice").is_empty());
    }

    #[test]
    fn upload_populates_all_hosts() {
        let mut world = World::bootstrap();
        world.upload_scenario_content();
        assert_eq!(world.uploaded_at(HOSTS[0]).len(), 4); // album + 3 photos
        assert_eq!(world.uploaded_at(HOSTS[1]).len(), 4);
        assert_eq!(world.uploaded_at(HOSTS[2]).len(), 4);
        assert!(world
            .pics
            .shell()
            .core
            .resource("albums/rome/photo-0")
            .is_some());
        assert!(world
            .storage
            .shell()
            .core
            .resource("files/trips/file-1.txt")
            .is_some());
        assert!(world
            .docs
            .shell()
            .core
            .resource("docs/trips/report-2")
            .is_some());
    }

    #[test]
    fn delegation_flow_works_for_all_hosts() {
        let mut world = World::bootstrap();
        world.delegate_all_hosts("bob");
        for host in HOSTS {
            let config = match host {
                "webpics.example" => world.pics.shell().core.delegation_for("x", "bob"),
                "webstorage.example" => world.storage.shell().core.delegation_for("x", "bob"),
                _ => world.docs.shell().core.delegation_for("x", "bob"),
            };
            let config = config.expect("delegation stored");
            assert_eq!(config.am, AM);
            assert!(world.am.check_host_token(&config.host_token).is_ok());
        }
    }

    #[test]
    fn end_to_end_friend_access() {
        let mut world = World::bootstrap();
        world.upload_scenario_content();
        world.delegate_all_hosts("bob");
        world.share_with_friends("bob", &["alice", "chris"]);

        // Alice reads from all three hosts through the full protocol.
        for (host, path) in [
            (HOSTS[0], "/photos/rome/photo-0"),
            (HOSTS[1], "/files/trips/file-0.txt"),
            (HOSTS[2], "/docs/trips/report-0"),
        ] {
            let outcome = world.friend_reads("alice", host, path);
            assert!(outcome.is_granted(), "{host}{path}: {outcome:?}");
        }

        // The video service is covered by the same single policy (R2).
        let outcome = world.friend_reads("alice", VIDEO_HOST, "/videos/trips/clip-0");
        assert!(outcome.is_granted(), "video: {outcome:?}");

        let outcome = world.friend_reads("chris", HOSTS[0], "/photos/rome/photo-0");
        assert!(outcome.is_granted());
    }

    #[test]
    fn video_content_uploaded_and_protected() {
        let mut world = World::bootstrap();
        world.upload_scenario_content();
        assert_eq!(world.uploaded_at(VIDEO_HOST).len(), 4); // collection + 3 clips
        assert!(world
            .videos
            .shell()
            .core
            .resource("collections/trips/clip-1")
            .is_some());
        // Undelegated + unshared: strangers are blocked by legacy deny.
        let outcome = world.friend_reads("alice", VIDEO_HOST, "/videos/trips/clip-0");
        assert!(!outcome.is_granted());
    }

    #[test]
    fn stranger_denied_via_protocol() {
        let mut world = World::bootstrap();
        world.upload_scenario_content();
        world.delegate_all_hosts("bob");
        world.share_with_friends("bob", &["alice"]); // chris NOT included
        let outcome = world.friend_reads("chris", HOSTS[0], "/photos/rome/photo-0");
        assert!(
            matches!(outcome, AccessOutcome::Denied(_)),
            "chris must be denied: {outcome:?}"
        );
    }

    #[test]
    fn compose_via_redirect_links_policy() {
        let mut world = World::bootstrap();
        world.upload_scenario_content();
        world.delegate_all_hosts("bob");
        let policy = world
            .am
            .pap("bob", |account| {
                account.create_policy(
                    "public-read",
                    PolicyBody::Rules(
                        RulePolicy::new().with_rule(
                            Rule::permit()
                                .for_subject(Subject::Public)
                                .for_action(Action::Read),
                        ),
                    ),
                )
            })
            .unwrap();
        let resp = world.compose_via_redirect("bob", HOSTS[0], "albums/rome/photo-0", &policy);
        assert!(resp.status.is_success(), "{}", resp.body);
        world
            .am
            .pap_ref("bob", |account| {
                let r = ResourceRef::new(HOSTS[0], "albums/rome/photo-0");
                assert_eq!(account.policies().specific_binding(&r), Some(&policy));
            })
            .unwrap();
    }
}
