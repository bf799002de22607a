//! The Requester side of the protocol.
//!
//! "A Requester is an application that is capable of issuing access
//! requests to resources on Hosts which are protected by an Authorization
//! Manager. A Requester is able to obtain the necessary authorization token
//! from AM. Such token is later presented to the Host. Depending on the
//! validity of the token, a Requester may need to obtain it only once and
//! can use it for multiple subsequent access requests." (§V.A.4)
//!
//! [`RequesterClient`] drives the full flow of Figs. 5–6:
//!
//! 1. access the protected resource;
//! 2. on `302` to the AM's `/authorize`, follow it (attaching identity
//!    assertion and claims);
//! 3. receive the authorization token (directly or via the redirect back
//!    to the Host), cache it;
//! 4. retry the access with `Authorization: Bearer <token>`;
//! 5. reuse the cached token for subsequent requests (§V.B.6) and
//!    re-authorize transparently once when a token is rejected (expiry).
//!
//! Pending consent (§V.D) and required claims (§VII) surface as explicit
//! [`AccessOutcome`] variants so callers can poll or pay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use ucam_webenv::{protocol, Method, Request, Response, RetryPolicy, Status, Transport, Url};

/// Counters describing the requester's protocol work (experiment E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequesterStats {
    /// Accesses attempted through [`RequesterClient::access`].
    pub accesses: u64,
    /// Authorization-token requests sent to AMs.
    pub token_requests: u64,
    /// Accesses satisfied with a cached token on the first try.
    pub cache_hits: u64,
    /// Re-authorizations after a token was rejected (expiry/revocation).
    pub reauthorizations: u64,
    /// Extra dispatch attempts spent retrying transport failures
    /// (requires a retry policy, [`ResilienceConfig::with_retry`]).
    pub retries: u64,
    /// Authorization attempts failed over to a configured secondary AM
    /// after the primary was unreachable at the transport level.
    pub failovers: u64,
}

/// The result of one access attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The Host granted access; the response is attached.
    Granted(Response),
    /// Access denied by policy.
    Denied(String),
    /// The owner's consent is pending at the AM; poll later with the id.
    PendingConsent {
        /// AM authority to poll.
        am: String,
        /// Consent request id.
        consent_id: String,
    },
    /// The AM requires claims of these kinds (§VII).
    NeedsClaims(String),
    /// Transport-level failure (host or AM unreachable, redirect loop…).
    Failed(Response),
}

impl AccessOutcome {
    /// Returns `true` for [`AccessOutcome::Granted`].
    #[must_use]
    pub fn is_granted(&self) -> bool {
        matches!(self, AccessOutcome::Granted(_))
    }
}

/// One access to perform: method, URL and the action it represents.
#[derive(Debug, Clone)]
pub struct AccessSpec {
    /// HTTP method to use.
    pub method: Method,
    /// Target URL on the Host.
    pub url: Url,
    /// The logical action (communicated to the AM during authorization).
    pub action: String,
    /// Request body, if any.
    pub body: String,
}

impl AccessSpec {
    /// A GET/read access.
    #[must_use]
    pub fn read(url: Url) -> Self {
        AccessSpec {
            method: Method::Get,
            url,
            action: "read".to_owned(),
            body: String::new(),
        }
    }

    /// A POST/write access with a body.
    #[must_use]
    pub fn write(url: Url, body: impl Into<String>) -> Self {
        AccessSpec {
            method: Method::Post,
            url,
            action: "write".to_owned(),
            body: body.into(),
        }
    }

    /// Overrides the logical action.
    #[must_use]
    pub fn with_action(mut self, action: &str) -> Self {
        self.action = action.to_owned();
        self
    }
}

/// Opt-in resilience configuration for a [`RequesterClient`], applied
/// atomically with [`RequesterClient::set_resilience`]. The builder
/// mirrors the Host-side `ResilienceConfig`: all fields default to
/// "off". It replaced the per-knob setters (`set_retry`,
/// `set_fallback_am`), whose deprecated wrappers have since been
/// removed.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Retry discipline for every dispatch.
    retry: Option<RetryPolicy>,
    /// primary AM authority -> secondary AM authority.
    fallback_ams: HashMap<String, String>,
}

impl ResilienceConfig {
    /// An all-off configuration (the seed behaviour).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a retry policy for this client's dispatches. Only
    /// transport failures are retried, so on a healthy network the
    /// message counts (E7) are identical with or without a policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Registers `secondary` as the AM to authorize against when
    /// `primary`'s authorize endpoint is unreachable at the transport
    /// level (both AMs must hold mirrored delegations).
    #[must_use]
    pub fn with_fallback_am(mut self, primary: &str, secondary: &str) -> Self {
        self.fallback_ams
            .insert(primary.to_owned(), secondary.to_owned());
        self
    }
}

/// One pre-authorization request inside a
/// [`RequesterClient::authorize_batch`] round: the access the token will
/// be used for (its spec keys the client's token cache) plus the
/// protocol coordinates the AM's batch-authorize endpoint needs.
#[derive(Debug, Clone)]
pub struct BatchAuthorize {
    /// The access the minted token will serve (host URL + action).
    pub spec: AccessSpec,
    /// Resource owner whose policies apply at the AM.
    pub owner: String,
    /// Resource identifier at the Host (not necessarily the URL path).
    pub resource: String,
}

/// The per-item outcome of a batch pre-authorization
/// ([`RequesterClient::authorize_batch`]). `Authorized` means the token
/// is already in the client's cache — a later [`RequesterClient::access`]
/// with the same spec rides the warm path without a token dance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreAuthorization {
    /// A token was minted and cached for the item's spec.
    Authorized,
    /// Policies deny, with the AM's reason.
    Denied(String),
    /// The owner's consent is pending at the AM; poll later with the id.
    PendingConsent {
        /// AM authority to poll.
        am: String,
        /// Consent request id.
        consent_id: String,
    },
    /// The AM requires claims of these kinds first (comma-joined).
    NeedsClaims(String),
    /// Transport or protocol failure — no token for this item.
    Failed(String),
}

impl PreAuthorization {
    /// Returns `true` for [`PreAuthorization::Authorized`].
    #[must_use]
    pub fn is_authorized(&self) -> bool {
        matches!(self, PreAuthorization::Authorized)
    }
}

/// `(host, resource path, action)`: what a cached authorization token is
/// held for.
type TokenKey = (String, String, String);

/// A token key's three parts, owned or borrowed. The token map is keyed
/// by the owned form and looked up by the borrowed one, so a lookup
/// copies nothing; both hash their parts exactly as the owned tuple does.
trait TokenKeyParts {
    fn parts(&self) -> (&str, &str, &str);
}

impl TokenKeyParts for TokenKey {
    fn parts(&self) -> (&str, &str, &str) {
        (&self.0, &self.1, &self.2)
    }
}

impl TokenKeyParts for (&str, &str, &str) {
    fn parts(&self) -> (&str, &str, &str) {
        *self
    }
}

impl<'a> Borrow<dyn TokenKeyParts + 'a> for TokenKey {
    fn borrow(&self) -> &(dyn TokenKeyParts + 'a) {
        self
    }
}

impl Hash for dyn TokenKeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn TokenKeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn TokenKeyParts + '_ {}

/// The borrowed token key of `spec`.
fn key_parts(spec: &AccessSpec) -> (&str, &str, &str) {
    (spec.url.authority(), spec.url.path(), &spec.action)
}

/// A protocol-aware client for accessing AM-protected resources.
///
/// # Example
///
/// ```no_run
/// use ucam_requester::{AccessSpec, RequesterClient};
/// use ucam_webenv::{SimNet, Url};
///
/// let net = SimNet::new();
/// let mut client = RequesterClient::new("requester:printer.example");
/// let spec = AccessSpec::read(Url::new("webpics.example", "/photos/photo-1"));
/// let outcome = client.access(&net, &spec);
/// println!("{outcome:?}");
/// ```
#[derive(Debug, Clone)]
pub struct RequesterClient {
    label: String,
    /// Identity assertion presented to AMs, if the requester acts for a
    /// known human subject.
    subject_token: Option<String>,
    /// Sealed claim tokens presented to AMs (§VII).
    claim_tokens: Vec<String>,
    /// (host, resource, action) -> cached authorization token.
    tokens: HashMap<TokenKey, String>,
    /// Optional retry discipline for every dispatch this client makes.
    /// Only transport failures are retried, so on a healthy network the
    /// message counts (E7) are identical with or without a policy.
    retry: Option<RetryPolicy>,
    /// primary AM authority -> secondary AM authority, tried when the
    /// primary's `/authorize` endpoint is unreachable at the transport
    /// level (multi-AM failover; the AMs must mirror the delegation).
    fallback_ams: HashMap<String, String>,
    stats: RequesterStats,
}

impl RequesterClient {
    /// Creates a client identified on the network as `label`
    /// (convention: `requester:<authority>`).
    #[must_use]
    pub fn new(label: &str) -> Self {
        RequesterClient {
            label: label.to_owned(),
            subject_token: None,
            claim_tokens: Vec::new(),
            tokens: HashMap::new(),
            retry: None,
            fallback_ams: HashMap::new(),
            stats: RequesterStats::default(),
        }
    }

    /// Applies a [`ResilienceConfig`] atomically, replacing every
    /// previously configured knob at once.
    pub fn set_resilience(&mut self, config: ResilienceConfig) {
        self.retry = config.retry;
        self.fallback_ams = config.fallback_ams;
    }

    /// A snapshot of the currently applied resilience configuration.
    #[must_use]
    pub fn resilience(&self) -> ResilienceConfig {
        ResilienceConfig {
            retry: self.retry.clone(),
            fallback_ams: self.fallback_ams.clone(),
        }
    }

    /// The label this requester uses on the network.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Attaches an identity assertion (from the IdP) to future
    /// authorization requests.
    pub fn set_subject_token(&mut self, token: Option<String>) {
        self.subject_token = token;
    }

    /// Adds a claim token (e.g. a payment confirmation) for future
    /// authorization requests.
    pub fn add_claim_token(&mut self, token: &str) {
        self.claim_tokens.push(token.to_owned());
    }

    /// Clears the token cache (forces full re-authorization).
    pub fn clear_tokens(&mut self) {
        self.tokens.clear();
    }

    /// Number of cached tokens.
    #[must_use]
    pub fn cached_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> RequesterStats {
        self.stats
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.stats = RequesterStats::default();
    }

    /// Performs one access, transparently running the token flow.
    pub fn access(&mut self, net: &dyn Transport, spec: &AccessSpec) -> AccessOutcome {
        self.stats.accesses += 1;
        let cached = self.held_token(spec);
        let req = self.host_request(spec, cached.map(String::as_str));
        if cached.is_some() {
            self.stats.cache_hits += 1;
        }

        let first = self.dispatch_retrying(net, req);
        self.settle_first(net, spec, first)
    }

    /// Performs `specs.len()` accesses as one client-side pipelined
    /// round. Specs whose token is already cached ride the warm fast
    /// path: their bearer requests are queued together and dispatched
    /// through [`Transport::dispatch_pipelined`], so over HTTP the whole
    /// stride costs one buffered write and one read loop instead of
    /// `specs.len()` serialized round trips (over [`SimNet`] dispatches
    /// stay sequential with identical accounting). Each response then
    /// settles through exactly the state machine [`Self::access`] uses —
    /// a `401` still triggers the one transparent re-authorization, a
    /// redirect still walks the token flow — and specs with no cached
    /// token take the full sequential flow, so outcomes and protocol
    /// counters are identical to calling `access` in a loop. A client
    /// with a retry policy falls back to sequential accesses outright:
    /// the policy sequences attempts and must observe each response
    /// before the next dispatch.
    ///
    /// [`SimNet`]: ucam_webenv::SimNet
    pub fn access_batch(
        &mut self,
        net: &dyn Transport,
        specs: &[AccessSpec],
    ) -> Vec<AccessOutcome> {
        if specs.len() <= 1 || self.retry.is_some() {
            return specs.iter().map(|spec| self.access(net, spec)).collect();
        }

        let mut outcomes: Vec<Option<AccessOutcome>> = Vec::with_capacity(specs.len());
        outcomes.resize_with(specs.len(), || None);
        let mut warm: Vec<usize> = Vec::with_capacity(specs.len());
        let mut reqs: Vec<Request> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if let Some(token) = self.held_token(spec) {
                reqs.push(self.host_request(spec, Some(token)));
                warm.push(i);
                self.stats.accesses += 1;
                self.stats.cache_hits += 1;
            }
        }
        if !warm.is_empty() {
            let resps = net.dispatch_pipelined(&self.label, reqs);
            for (i, resp) in warm.into_iter().zip(resps) {
                outcomes[i] = Some(self.settle_first(net, &specs[i], resp));
            }
        }
        for (i, spec) in specs.iter().enumerate() {
            if outcomes[i].is_none() {
                outcomes[i] = Some(self.access(net, spec));
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every access settled"))
            .collect()
    }

    /// Pre-authorizes many accesses against one AM in bulk over
    /// `/protection/v2/authorize` (DESIGN.md §16) — the requester-side
    /// sibling of the Host's batched decision queries. Items are chunked
    /// at [`protocol::MAX_BATCH`] (the AM-side cap) and the chunks ride
    /// one [`Transport::dispatch_pipelined`] round, so over HTTP the
    /// whole fleet of token requests costs one buffered write per
    /// connection instead of one serialized redirect dance per resource.
    /// Minted tokens land in the client's token cache; later accesses
    /// with the same specs take the warm bearer path.
    ///
    /// The client's `subject_token` and claim tokens ride the request
    /// parameters once per chunk, exactly as they would ride a single
    /// `/authorize` redirect. A chunk-level failure (transport error,
    /// non-200, short or unparsable reply array) fails every item in
    /// that chunk closed — a batch is one wire exchange, so its members
    /// share its fate. A client with a retry policy dispatches chunks
    /// sequentially under it.
    pub fn authorize_batch(
        &mut self,
        net: &dyn Transport,
        am: &str,
        host: &str,
        requests: &[BatchAuthorize],
    ) -> Vec<PreAuthorization> {
        if requests.is_empty() {
            return Vec::new();
        }
        let chunks: Vec<&[BatchAuthorize]> = requests.chunks(protocol::MAX_BATCH).collect();
        let build = |chunk: &[BatchAuthorize]| -> Request {
            let items: Vec<protocol::AuthorizeItem> = chunk
                .iter()
                .map(|r| protocol::AuthorizeItem {
                    owner: r.owner.clone(),
                    resource: r.resource.clone(),
                    action: r.spec.action.clone(),
                })
                .collect();
            let url = Url::new(am, protocol::BATCH_AUTHORIZE_PATH)
                .with_query("host", host)
                .with_query("requester", &self.label);
            Request::to_url(Method::Post, self.with_credentials(url))
                .with_body(protocol::encode_authorize_request(&items))
        };
        let reqs: Vec<Request> = chunks.iter().map(|chunk| build(chunk)).collect();
        self.stats.token_requests += chunks.len() as u64;
        let resps: Vec<Response> = if self.retry.is_some() || reqs.len() == 1 {
            reqs.into_iter()
                .map(|req| self.dispatch_retrying(net, req))
                .collect()
        } else {
            net.dispatch_pipelined(&self.label, reqs)
        };
        let mut outcomes = Vec::with_capacity(requests.len());
        for (chunk, resp) in chunks.into_iter().zip(resps) {
            let replies = if resp.status == Status::Ok {
                protocol::parse_authorize_response(&resp.body)
                    .ok()
                    .filter(|r| r.len() == chunk.len())
            } else {
                None
            };
            match replies {
                Some(replies) => {
                    for (request, reply) in chunk.iter().zip(replies) {
                        outcomes.push(self.settle_preauth(am, request, reply));
                    }
                }
                None => {
                    // Chunk-level failure: no token for any member.
                    let reason = format!("batch authorize failed: {:?}", resp.status);
                    outcomes.extend(
                        chunk
                            .iter()
                            .map(|_| PreAuthorization::Failed(reason.clone())),
                    );
                }
            }
        }
        outcomes
    }

    /// Settles one batch-authorize reply: caches a minted token under
    /// the item's spec, maps everything else onto the same outcome
    /// vocabulary the sequential flow uses.
    fn settle_preauth(
        &mut self,
        am: &str,
        request: &BatchAuthorize,
        reply: protocol::AuthorizeReply,
    ) -> PreAuthorization {
        match reply {
            protocol::AuthorizeReply::Token(token) => {
                self.hold_token(&request.spec, token);
                PreAuthorization::Authorized
            }
            protocol::AuthorizeReply::Denied(reason) => PreAuthorization::Denied(reason),
            protocol::AuthorizeReply::Pending(consent_id) => PreAuthorization::PendingConsent {
                am: am.to_owned(),
                consent_id,
            },
            protocol::AuthorizeReply::NeedsClaims(kinds) => {
                PreAuthorization::NeedsClaims(kinds.join(","))
            }
            protocol::AuthorizeReply::Error(reason) => PreAuthorization::Failed(reason),
        }
    }

    /// Drives one access to completion from its first Host response:
    /// follow the authorize redirect and retry with the fresh token, or
    /// run the one transparent re-authorization (Figs. 5–6).
    fn settle_first(
        &mut self,
        net: &dyn Transport,
        spec: &AccessSpec,
        first: Response,
    ) -> AccessOutcome {
        match self.classify(net, first) {
            Classified::Done(outcome) => outcome,
            Classified::GotToken(token) => self.retry_with(net, spec, token),
            Classified::TokenRejected => {
                // One transparent re-authorization (expired/stale token).
                self.stats.reauthorizations += 1;
                self.drop_token(spec);
                let retry = self.send(net, spec, None);
                match self.classify(net, retry) {
                    Classified::Done(outcome) => outcome,
                    Classified::GotToken(token) => self.retry_with(net, spec, token),
                    Classified::TokenRejected => {
                        AccessOutcome::Denied("token rejected twice; giving up".to_owned())
                    }
                }
            }
        }
    }

    /// Caches a fresh `token` for `spec` and retries the access with it.
    fn retry_with(
        &mut self,
        net: &dyn Transport,
        spec: &AccessSpec,
        token: String,
    ) -> AccessOutcome {
        let req = self.host_request(spec, Some(&token));
        self.hold_token(spec, token);
        let resp = self.dispatch_retrying(net, req);
        self.finish(resp)
    }

    /// The token held for `spec`, looked up without copying its key.
    fn held_token(&self, spec: &AccessSpec) -> Option<&String> {
        self.tokens.get(&key_parts(spec) as &dyn TokenKeyParts)
    }

    /// Holds `token` for `spec`: the one place a token key is copied.
    fn hold_token(&mut self, spec: &AccessSpec, token: String) {
        let (host, path, action) = key_parts(spec);
        let key = (host.to_owned(), path.to_owned(), action.to_owned());
        self.tokens.insert(key, token);
    }

    /// Forgets the token held for `spec`, if any.
    fn drop_token(&mut self, spec: &AccessSpec) {
        self.tokens.remove(&key_parts(spec) as &dyn TokenKeyParts);
    }

    /// The Host-bound request for one access, as both [`Self::access`]
    /// and [`Self::access_batch`] send it.
    fn host_request(&self, spec: &AccessSpec, bearer: Option<&str>) -> Request {
        // Both headers share one buffer, sized once.
        let room = "x-requesterauthorizationBearer ".len() + self.label.len();
        let mut req = Request::to_url(spec.method, spec.url.clone()).with_body(spec.body.clone());
        req.headers.reserve(room + bearer.map_or(0, str::len));
        let req = req.with_header("x-requester", &self.label);
        match bearer {
            Some(token) => req.with_bearer(token),
            None => req,
        }
    }

    fn send(&mut self, net: &dyn Transport, spec: &AccessSpec, bearer: Option<&str>) -> Response {
        let req = self.host_request(spec, bearer);
        self.dispatch_retrying(net, req)
    }

    /// Dispatches `req` under the client's retry policy (if any), sending
    /// a copy per attempt. Only transport failures are retried;
    /// application responses return after the first attempt.
    fn dispatch_retrying(&mut self, net: &dyn Transport, req: Request) -> Response {
        match &self.retry {
            Some(policy) => {
                let (resp, report) =
                    policy.run(net.clock(), |_| net.dispatch(&self.label, req.clone()));
                self.stats.retries += u64::from(report.attempts.saturating_sub(1));
                resp
            }
            None => net.dispatch(&self.label, req),
        }
    }

    fn classify(&mut self, net: &dyn Transport, resp: Response) -> Classified {
        match resp.status {
            Status::Found => match resp.location() {
                Some(location) if location.path() == "/authorize" => {
                    self.request_token(net, location)
                }
                _ => Classified::Done(AccessOutcome::Failed(resp)),
            },
            Status::Unauthorized => Classified::TokenRejected,
            Status::Forbidden => Classified::Done(AccessOutcome::Denied(resp.body)),
            s if s.is_success() => Classified::Done(AccessOutcome::Granted(resp)),
            _ => Classified::Done(AccessOutcome::Failed(resp)),
        }
    }

    /// Appends the client's `subject_token` and claim tokens to an AM
    /// request URL.
    fn with_credentials(&self, mut url: Url) -> Url {
        if let Some(subject) = &self.subject_token {
            url = url.with_query("subject_token", subject);
        }
        if !self.claim_tokens.is_empty() {
            url = url.with_query("claims", &self.claim_tokens.join(","));
        }
        url
    }

    /// Follows the Host's redirect to the AM's `/authorize` (Fig. 5). The
    /// URL moves into the request; it is read beforehand only to keep its
    /// AM and, where a secondary AM is configured, its re-homed copy.
    fn request_token(&mut self, net: &dyn Transport, authorize: Url) -> Classified {
        self.stats.token_requests += 1;
        let am = authorize.authority().to_owned();
        let failover = self
            .fallback_ams
            .get(&am)
            .map(|secondary| authorize.clone().with_authority(secondary));
        let url = self.with_credentials(authorize);
        let mut resp = self.dispatch_retrying(net, Request::to_url(Method::Get, url));
        // Multi-AM failover: when the primary's authorize endpoint is
        // unreachable at the transport level (after any retries), re-home
        // the authorize URL to the configured secondary AM and try there.
        if resp.transport_error().is_some() {
            if let Some(rehomed) = failover {
                self.stats.failovers += 1;
                let rehomed = self.with_credentials(rehomed);
                resp = self.dispatch_retrying(net, Request::to_url(Method::Get, rehomed));
            }
        }
        match resp.status {
            // AM redirects back to the Host with the token attached.
            Status::Found => match resp
                .location()
                .and_then(|l| l.query("authz_token").map(str::to_owned))
            {
                Some(token) => Classified::GotToken(token),
                None => Classified::Done(AccessOutcome::Failed(resp)),
            },
            // AM returned the token directly (no return URL configured).
            Status::Ok => Classified::GotToken(resp.body),
            Status::Accepted => Classified::Done(AccessOutcome::PendingConsent {
                am,
                consent_id: resp.body,
            }),
            Status::PaymentRequired => Classified::Done(AccessOutcome::NeedsClaims(resp.body)),
            Status::Forbidden => Classified::Done(AccessOutcome::Denied(resp.body)),
            _ => Classified::Done(AccessOutcome::Failed(resp)),
        }
    }

    fn finish(&self, resp: Response) -> AccessOutcome {
        match resp.status {
            s if s.is_success() => AccessOutcome::Granted(resp),
            Status::Forbidden => AccessOutcome::Denied(resp.body),
            _ => AccessOutcome::Failed(resp),
        }
    }

    /// XRD/LRDD discovery (§VII): fetches the Host's `host-meta` document
    /// for a resource and extracts the protecting AM's authorize endpoint
    /// and the resource owner. Returns `None` when the host is
    /// unreachable, the resource unknown, or no AM link is published.
    pub fn discover_am(
        &mut self,
        net: &dyn Transport,
        host: &str,
        resource_id: &str,
    ) -> Option<Discovered> {
        let url = Url::new(host, "/.well-known/host-meta").with_query("resource", resource_id);
        let resp = net.dispatch(&self.label, Request::to_url(Method::Get, url));
        if !resp.status.is_success() {
            return None;
        }
        let owner = extract_between(&resp.body, "<Property type=\"owner\">", "</Property>")?;
        let href = extract_between(&resp.body, "href=\"", "\"")?;
        let authorize: Url = href.parse().ok()?;
        Some(Discovered { authorize, owner })
    }

    /// The requester-orchestrated flow variant of §VII: instead of being
    /// redirected by the Host (Fig. 5), the requester *discovers* the AM
    /// via XRD, obtains the token directly, and then accesses the
    /// resource. Same number of round trips, different orchestrator.
    pub fn access_via_discovery(
        &mut self,
        net: &dyn Transport,
        spec: &AccessSpec,
        resource_id: &str,
    ) -> AccessOutcome {
        self.stats.accesses += 1;
        let host = spec.url.authority().to_owned();
        if let Some(token) = self.held_token(spec).cloned() {
            self.stats.cache_hits += 1;
            let resp = self.send(net, spec, Some(&token));
            if resp.status != Status::Unauthorized {
                return self.finish(resp);
            }
            self.drop_token(spec);
            self.stats.reauthorizations += 1;
        }
        let Some(discovered) = self.discover_am(net, &host, resource_id) else {
            return AccessOutcome::Failed(
                Response::with_status(Status::NotFound)
                    .with_body("authorization manager discovery failed"),
            );
        };
        let authorize = discovered
            .authorize
            .with_query("host", &host)
            .with_query("owner", &discovered.owner)
            .with_query("resource", resource_id)
            .with_query("action", &spec.action)
            .with_query("requester", &self.label);
        match self.request_token(net, authorize) {
            Classified::GotToken(token) => self.retry_with(net, spec, token),
            Classified::Done(outcome) => outcome,
            Classified::TokenRejected => {
                AccessOutcome::Denied("authorization manager rejected the request".to_owned())
            }
        }
    }

    /// Polls the AM for the state of a pending consent request; returns
    /// `Some(true)` once granted, `Some(false)` once denied, `None` while
    /// pending or on error.
    pub fn poll_consent(
        &mut self,
        net: &dyn Transport,
        am: &str,
        consent_id: &str,
    ) -> Option<bool> {
        let url = Url::new(am, "/authorize/status").with_query("id", consent_id);
        let resp = net.dispatch(&self.label, Request::to_url(Method::Get, url));
        match (resp.status, resp.body.as_str()) {
            (Status::Ok, "granted") => Some(true),
            (Status::Ok, "denied" | "expired") => Some(false),
            _ => None,
        }
    }
}

enum Classified {
    Done(AccessOutcome),
    GotToken(String),
    TokenRejected,
}

/// The result of XRD discovery: where to authorize and whose policies
/// apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discovered {
    /// The AM's authorize endpoint.
    pub authorize: Url,
    /// The resource owner.
    pub owner: String,
}

/// Extracts the text between the first occurrence of `start` and the next
/// occurrence of `end` after it.
fn extract_between(haystack: &str, start: &str, end: &str) -> Option<String> {
    let from = haystack.find(start)? + start.len();
    let len = haystack[from..].find(end)?;
    Some(haystack[from..from + len].to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ucam_webenv::SimNet;
    use ucam_webenv::WebApp;

    /// A fake Host+AM pair exercising every branch of the client.
    struct FakeHost;

    impl WebApp for FakeHost {
        fn authority(&self) -> &str {
            "host.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            match (req.url.path(), req.bearer_token()) {
                ("/open", _) => Response::ok().with_body("open data"),
                ("/protected", Some("good-token")) => Response::ok().with_body("secret"),
                ("/protected", Some(_)) => Response::with_status(Status::Unauthorized),
                ("/protected", None) => Response::redirect(
                    &Url::new("am.example", "/authorize")
                        .with_query("host", "host.example")
                        .with_query("resource", "protected")
                        .with_query("return", "https://host.example/protected"),
                ),
                ("/forbidden-direct", _) => Response::forbidden("nope"),
                _ => Response::not_found(req.url.path()),
            }
        }
    }

    /// AM that redirects back with a token, or exercises other outcomes
    /// depending on the `resource` parameter.
    struct FakeAm;

    impl WebApp for FakeAm {
        fn authority(&self) -> &str {
            "am.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            match req.url.path() {
                "/authorize" => match req.param("resource") {
                    Some("protected") => {
                        let ret: Url = req.param("return").unwrap().parse().unwrap();
                        Response::redirect(&ret.with_query("authz_token", "good-token"))
                    }
                    Some("consent") => Response::with_status(Status::Accepted).with_body("c-1"),
                    Some("paid") => Response::with_status(Status::PaymentRequired)
                        .with_body("claims required: payment"),
                    _ => Response::forbidden("denied by policy"),
                },
                "/authorize/status" => Response::ok().with_body("granted"),
                other => Response::not_found(other),
            }
        }
    }

    fn net() -> SimNet {
        let net = SimNet::new();
        net.register(Arc::new(FakeHost));
        net.register(Arc::new(FakeAm));
        net
    }

    #[test]
    fn open_resource_granted_directly() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        let outcome = client.access(&net, &AccessSpec::read(Url::new("host.example", "/open")));
        assert!(outcome.is_granted());
        assert_eq!(client.stats().token_requests, 0);
    }

    #[test]
    fn full_token_dance_then_cache() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        let spec = AccessSpec::read(Url::new("host.example", "/protected"));

        // First access: redirect -> authorize -> retry with token.
        let AccessOutcome::Granted(resp) = client.access(&net, &spec) else {
            panic!("expected grant");
        };
        assert_eq!(resp.body, "secret");
        assert_eq!(client.stats().token_requests, 1);
        assert_eq!(client.cached_tokens(), 1);

        // Second access: token reused, no new authorization.
        net.reset_stats();
        assert!(client.access(&net, &spec).is_granted());
        assert_eq!(client.stats().token_requests, 1, "no re-authorization");
        assert_eq!(client.stats().cache_hits, 1);
        // Exactly one round trip on the wire for the subsequent request.
        assert_eq!(net.stats().round_trips, 1);
    }

    #[test]
    fn stale_cached_token_triggers_one_reauthorization() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        let spec = AccessSpec::read(Url::new("host.example", "/protected"));
        // Pre-poison the cache.
        client.hold_token(&spec, "stale".to_owned());
        let outcome = client.access(&net, &spec);
        assert!(outcome.is_granted());
        assert_eq!(client.stats().reauthorizations, 1);
    }

    #[test]
    fn denial_reported() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        let outcome = client.access(
            &net,
            &AccessSpec::read(Url::new("host.example", "/forbidden-direct")),
        );
        assert!(matches!(outcome, AccessOutcome::Denied(_)));
    }

    #[test]
    fn unreachable_host_fails() {
        let net = SimNet::new();
        let mut client = RequesterClient::new("requester:test");
        let outcome = client.access(&net, &AccessSpec::read(Url::new("ghost.example", "/x")));
        assert!(matches!(outcome, AccessOutcome::Failed(_)));
    }

    #[test]
    fn consent_pending_surfaces_and_polls() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        // Direct the fake host redirect at the consent-producing resource.
        // Craft a redirect manually by calling the AM with resource=consent:
        let authorize = Url::new("am.example", "/authorize").with_query("resource", "consent");
        let classified = client.request_token(&net, authorize);
        let Classified::Done(AccessOutcome::PendingConsent { am, consent_id }) = classified else {
            panic!("expected pending consent");
        };
        assert_eq!(am, "am.example");
        assert_eq!(client.poll_consent(&net, &am, &consent_id), Some(true));
    }

    #[test]
    fn claims_needed_surfaces() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        let authorize = Url::new("am.example", "/authorize").with_query("resource", "paid");
        let classified = client.request_token(&net, authorize);
        let Classified::Done(AccessOutcome::NeedsClaims(msg)) = classified else {
            panic!("expected claims requirement");
        };
        assert!(msg.contains("payment"));
    }

    #[test]
    fn subject_and_claims_forwarded_to_am() {
        // An AM that echoes back what it received, as a token.
        struct EchoAm;
        impl WebApp for EchoAm {
            fn authority(&self) -> &str {
                "am.example"
            }
            fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
                let s = req.param("subject_token").unwrap_or("-");
                let c = req.param("claims").unwrap_or("-");
                Response::ok().with_body(format!("{s}/{c}"))
            }
        }
        let net = SimNet::new();
        net.register(Arc::new(EchoAm));
        let mut client = RequesterClient::new("requester:test");
        client.set_subject_token(Some("assert-1".into()));
        client.add_claim_token("claim-a");
        client.add_claim_token("claim-b");
        let authorize = Url::new("am.example", "/authorize");
        let Classified::GotToken(token) = client.request_token(&net, authorize) else {
            panic!("expected token");
        };
        assert_eq!(token, "assert-1/claim-a,claim-b");
    }

    /// A host publishing host-meta XRD and a protected resource.
    struct MetaHost;

    impl WebApp for MetaHost {
        fn authority(&self) -> &str {
            "meta-host.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            match req.url.path() {
                "/.well-known/host-meta" => match req.param("resource") {
                    Some("known") => Response::ok().with_body(concat!(
                        "<?xml version=\"1.0\"?>\n<XRD>\n",
                        "  <Subject>https://meta-host.example/known</Subject>\n",
                        "  <Property type=\"owner\">bob</Property>\n",
                        "  <Link rel=\"authorization-manager\" href=\"https://am.example/authorize\"/>\n",
                        "</XRD>\n",
                    )),
                    Some("undelegated") => Response::ok().with_body(
                        "<?xml version=\"1.0\"?>\n<XRD>\n  <Property type=\"owner\">bob</Property>\n</XRD>\n",
                    ),
                    _ => Response::not_found("resource"),
                },
                "/known" => match req.bearer_token() {
                    Some("good-token") => Response::ok().with_body("discovered data"),
                    Some(_) => Response::with_status(Status::Unauthorized),
                    None => Response::with_status(Status::Unauthorized),
                },
                other => Response::not_found(other),
            }
        }
    }

    /// AM granting tokens on direct authorize (no return parameter).
    struct DirectAm;

    impl WebApp for DirectAm {
        fn authority(&self) -> &str {
            "am.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            assert_eq!(req.url.path(), "/authorize");
            assert_eq!(req.param("owner"), Some("bob"));
            Response::ok().with_body("good-token")
        }
    }

    #[test]
    fn discovery_extracts_am_and_owner() {
        let net = SimNet::new();
        net.register(Arc::new(MetaHost));
        let mut client = RequesterClient::new("requester:test");
        let discovered = client
            .discover_am(&net, "meta-host.example", "known")
            .expect("discovery succeeds");
        assert_eq!(discovered.owner, "bob");
        assert_eq!(discovered.authorize.authority(), "am.example");
        assert_eq!(discovered.authorize.path(), "/authorize");
        // No AM link published -> None.
        assert_eq!(
            client.discover_am(&net, "meta-host.example", "undelegated"),
            None
        );
        // Unknown resource -> None.
        assert_eq!(client.discover_am(&net, "meta-host.example", "ghost"), None);
    }

    #[test]
    fn access_via_discovery_full_flow() {
        let net = SimNet::new();
        net.register(Arc::new(MetaHost));
        net.register(Arc::new(DirectAm));
        let mut client = RequesterClient::new("requester:test");
        let spec = AccessSpec::read(Url::new("meta-host.example", "/known"));

        net.reset_stats();
        let outcome = client.access_via_discovery(&net, &spec, "known");
        let AccessOutcome::Granted(resp) = outcome else {
            panic!("expected grant, got {outcome:?}");
        };
        assert_eq!(resp.body, "discovered data");
        // host-meta + authorize + access = 3 round trips (the Host never
        // had to orchestrate a redirect).
        assert_eq!(net.stats().round_trips, 3);

        // Cached token short-circuits discovery entirely.
        net.reset_stats();
        assert!(client
            .access_via_discovery(&net, &spec, "known")
            .is_granted());
        assert_eq!(net.stats().round_trips, 1);
    }

    #[test]
    fn retry_policy_rides_out_transient_loss() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        client.set_resilience(ResilienceConfig::new().with_retry(RetryPolicy::default()));
        let spec = AccessSpec::read(Url::new("host.example", "/open"));
        // Drop every 2nd dispatch starting with the first: each logical
        // step loses its first attempt and succeeds on the retry.
        net.set_loss_every(2, 0);
        assert!(client.access(&net, &spec).is_granted());
        assert_eq!(client.stats().retries, 1);
        net.set_loss_every(0, 0);
        // Healthy network: the policy adds no messages.
        net.reset_stats();
        assert!(client.access(&net, &spec).is_granted());
        assert_eq!(net.stats().round_trips, 1);
        assert_eq!(client.stats().retries, 1);
    }

    #[test]
    fn authorize_fails_over_to_secondary_am() {
        /// Mirror of the fake AM under a second authority.
        struct SecondaryAm;
        impl WebApp for SecondaryAm {
            fn authority(&self) -> &str {
                "am-b.example"
            }
            fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
                assert_eq!(req.url.path(), "/authorize");
                // The re-homed request still carries the credentials.
                assert_eq!(req.param("subject_token"), Some("assert-1"));
                assert_eq!(req.param("claims"), Some("claim-a"));
                let ret: Url = req.param("return").unwrap().parse().unwrap();
                Response::redirect(&ret.with_query("authz_token", "good-token"))
            }
        }
        let net = net();
        net.register(Arc::new(SecondaryAm));
        let mut client = RequesterClient::new("requester:test");
        client
            .set_resilience(ResilienceConfig::new().with_fallback_am("am.example", "am-b.example"));
        client.set_subject_token(Some("assert-1".into()));
        client.add_claim_token("claim-a");
        let spec = AccessSpec::read(Url::new("host.example", "/protected"));

        // Primary AM partitioned: the authorize step re-homes to the
        // secondary and the access completes.
        net.set_offline("am.example", true);
        let outcome = client.access(&net, &spec);
        assert!(outcome.is_granted(), "got {outcome:?}");
        assert_eq!(client.stats().failovers, 1);
        assert_eq!(client.stats().token_requests, 1);

        // With the primary healthy the secondary is never consulted.
        net.set_offline("am.example", false);
        client.clear_tokens();
        assert!(client.access(&net, &spec).is_granted());
        assert_eq!(client.stats().failovers, 1);
    }

    #[test]
    fn no_fallback_configured_still_fails_cleanly() {
        let net = net();
        let mut client = RequesterClient::new("requester:test");
        net.set_offline("am.example", true);
        let spec = AccessSpec::read(Url::new("host.example", "/protected"));
        let outcome = client.access(&net, &spec);
        assert!(matches!(outcome, AccessOutcome::Failed(_)));
        assert_eq!(client.stats().failovers, 0);
    }

    #[test]
    fn resilience_builder_round_trips_every_knob() {
        // The builder (the only resilience entry point since the
        // deprecated per-knob setters were removed) must land every
        // field exactly as written, and re-applying an all-off config
        // must clear them.
        let mut b = RequesterClient::new("requester:test");
        b.set_resilience(
            ResilienceConfig::new()
                .with_retry(RetryPolicy::default())
                .with_fallback_am("am.example", "am-b.example"),
        );
        let rb = b.resilience();
        assert!(rb.retry.is_some());
        assert_eq!(
            rb.fallback_ams.get("am.example"),
            Some(&"am-b.example".to_owned())
        );
        b.set_resilience(ResilienceConfig::new());
        let cleared = b.resilience();
        assert!(cleared.retry.is_none());
        assert!(cleared.fallback_ams.is_empty());
    }

    /// An AM answering `/protection/v2/authorize` with one reply kind
    /// per resource name, so a single batch exercises every outcome.
    struct BatchAm;

    impl WebApp for BatchAm {
        fn authority(&self) -> &str {
            "am.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            assert_eq!(req.url.path(), protocol::BATCH_AUTHORIZE_PATH);
            assert_eq!(req.param("host"), Some("host.example"));
            assert_eq!(req.param("requester"), Some("requester:test"));
            let items = protocol::parse_authorize_request(&req.body).unwrap();
            let replies: Vec<protocol::AuthorizeReply> = items
                .iter()
                .map(|item| match item.resource.as_str() {
                    "granted" => protocol::AuthorizeReply::Token("good-token".into()),
                    "denied" => protocol::AuthorizeReply::Denied("policy says no".into()),
                    "consent" => protocol::AuthorizeReply::Pending("c-9".into()),
                    "paid" => protocol::AuthorizeReply::NeedsClaims(vec!["payment".into()]),
                    _ => protocol::AuthorizeReply::Error("unknown resource".into()),
                })
                .collect();
            Response::ok().with_body(protocol::encode_authorize_response(&replies))
        }
    }

    #[test]
    fn authorize_batch_settles_every_outcome_and_fills_the_cache() {
        let net = SimNet::new();
        net.register(Arc::new(FakeHost));
        net.register(Arc::new(BatchAm));
        let mut client = RequesterClient::new("requester:test");
        let item = |resource: &str| BatchAuthorize {
            spec: AccessSpec::read(Url::new("host.example", "/protected")),
            owner: "bob".to_owned(),
            resource: resource.to_owned(),
        };
        let outcomes = client.authorize_batch(
            &net,
            "am.example",
            "host.example",
            &[
                item("granted"),
                item("denied"),
                item("consent"),
                item("paid"),
                item("broken"),
            ],
        );
        assert!(outcomes[0].is_authorized());
        assert_eq!(
            outcomes[1],
            PreAuthorization::Denied("policy says no".into())
        );
        assert_eq!(
            outcomes[2],
            PreAuthorization::PendingConsent {
                am: "am.example".into(),
                consent_id: "c-9".into(),
            }
        );
        assert_eq!(outcomes[3], PreAuthorization::NeedsClaims("payment".into()));
        assert!(matches!(outcomes[4], PreAuthorization::Failed(_)));
        // The whole batch cost one wire round trip …
        assert_eq!(client.stats().token_requests, 1);
        // … and the minted token is cached: the follow-up access takes
        // the warm bearer path with zero further token requests.
        net.reset_stats();
        let spec = AccessSpec::read(Url::new("host.example", "/protected"));
        assert!(client.access(&net, &spec).is_granted());
        assert_eq!(client.stats().token_requests, 1);
        assert_eq!(client.stats().cache_hits, 1);
        assert_eq!(net.stats().round_trips, 1);
    }

    #[test]
    fn authorize_batch_chunk_failure_fails_every_member_closed() {
        // No AM registered: the dispatch is a transport failure and every
        // item in the chunk fails closed with no token cached.
        let net = SimNet::new();
        let mut client = RequesterClient::new("requester:test");
        let outcomes = client.authorize_batch(
            &net,
            "ghost-am.example",
            "host.example",
            &[BatchAuthorize {
                spec: AccessSpec::read(Url::new("host.example", "/protected")),
                owner: "bob".to_owned(),
                resource: "granted".to_owned(),
            }],
        );
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], PreAuthorization::Failed(_)));
        assert_eq!(client.cached_tokens(), 0);
    }

    #[test]
    fn extract_between_edge_cases() {
        assert_eq!(extract_between("a[x]b", "[", "]"), Some("x".into()));
        assert_eq!(extract_between("no markers", "[", "]"), None);
        assert_eq!(extract_between("open [only", "[", "]"), None);
        assert_eq!(extract_between("[]", "[", "]"), Some(String::new()));
    }

    #[test]
    fn spec_builders() {
        let r = AccessSpec::read(Url::new("h", "/p"));
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.action, "read");
        let w = AccessSpec::write(Url::new("h", "/p"), "body").with_action("append");
        assert_eq!(w.method, Method::Post);
        assert_eq!(w.action, "append");
        assert_eq!(w.body, "body");
    }
}
