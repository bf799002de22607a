//! The Authorization Manager (AM) — the paper's central component.
//!
//! "An Authorization Manager allows a User to define access control
//! policies for their online resources in a uniform way irrespective of the
//! Web application that hosts those resources. This component makes access
//! control decisions based on these policies. It provides functionality of
//! a policy administration point (PAP) and a policy decision point (PDP)…
//! An AM also acts as a token service that, following evaluation of access
//! requests, issues authorization tokens to Requesters." (§V.A.2)
//!
//! [`AuthorizationManager`] offers both a **native Rust API** (used by the
//! simulation and benchmarks) and a **Web interface** ([`ucam_webenv::WebApp`])
//! exposing the protocol endpoints of Figs. 3–6 plus the REST policy API of
//! §VI.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use ucam_policy::{
    AccessRequest, Action, Claim, ClaimRequirement, EngineDecision, EvalContext, Outcome,
    PolicyEngine, ResourceRef,
};
use ucam_webenv::identity::IdentityVerifier;
use ucam_webenv::{
    protocol, DecisionBody, Method, Request, Response, SimClock, Status, Transport, Url, WebApp,
};

use crate::audit::{AuditEntry, AuditEvent, AuditHub, AuditLog};
use crate::claims::{ClaimIssuer, ClaimVerifier};
use crate::consent::{Channel, ConsentHub, ConsentState, Notification, NotificationOutbox};
use crate::pap::{Account, ExportFormat};
use crate::push::{EpochPushStats, PushFanOut};
use crate::tokens::{AuthzGrant, HostGrant, TokenError, TokenService};
use crate::trust::{Delegation, TrustError, TrustRegistry};

/// An error from the AM's native API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmError {
    /// No account exists for this user.
    UnknownUser(String),
    /// Trust-registry failure.
    Trust(TrustError),
    /// Token validation failure.
    Token(TokenError),
    /// The actor is neither the owner nor an appointed custodian.
    NotAuthorized {
        /// Who attempted the administration.
        actor: String,
        /// Whose account it was.
        owner: String,
    },
}

impl fmt::Display for AmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmError::UnknownUser(u) => write!(f, "unknown user: {u}"),
            AmError::Trust(e) => write!(f, "trust: {e}"),
            AmError::Token(e) => write!(f, "token: {e}"),
            AmError::NotAuthorized { actor, owner } => {
                write!(
                    f,
                    "{actor} is not authorized to administer {owner}'s account"
                )
            }
        }
    }
}

impl std::error::Error for AmError {}

impl From<TrustError> for AmError {
    fn from(e: TrustError) -> Self {
        AmError::Trust(e)
    }
}

impl From<TokenError> for AmError {
    fn from(e: TokenError) -> Self {
        AmError::Token(e)
    }
}

/// A request for an authorization token (Fig. 5), as received on the AM's
/// `/authorize` endpoint or through the native API.
#[derive(Debug, Clone)]
pub struct AuthorizeRequest {
    /// Host storing the resource.
    pub host: String,
    /// Resource owner whose policies apply.
    pub owner: String,
    /// Host-local resource id.
    pub resource_id: String,
    /// Requested action.
    pub action: Action,
    /// Requesting application/browser label.
    pub requester: String,
    /// Authenticated human subject (already verified), if any.
    pub subject: Option<String>,
    /// Sealed claim tokens presented by the requester (§VII).
    pub claim_tokens: Vec<String>,
}

impl AuthorizeRequest {
    /// Creates a bare request; extend with struct-update syntax.
    #[must_use]
    pub fn new(
        host: &str,
        owner: &str,
        resource_id: &str,
        action: Action,
        requester: &str,
    ) -> Self {
        AuthorizeRequest {
            host: host.to_owned(),
            owner: owner.to_owned(),
            resource_id: resource_id.to_owned(),
            action,
            requester: requester.to_owned(),
            subject: None,
            claim_tokens: Vec::new(),
        }
    }

    /// Sets the authenticated subject.
    #[must_use]
    pub fn with_subject(mut self, subject: &str) -> Self {
        self.subject = Some(subject.to_owned());
        self
    }

    /// Attaches a claim token.
    #[must_use]
    pub fn with_claim_token(mut self, token: &str) -> Self {
        self.claim_tokens.push(token.to_owned());
        self
    }
}

/// The result of an authorization-token request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthorizeOutcome {
    /// A token was issued.
    Token {
        /// The sealed authorization token.
        token: String,
        /// The grant embedded in it.
        grant: AuthzGrant,
    },
    /// The request was denied.
    Denied(String),
    /// The owner's real-time consent is pending (§V.D); poll with the id.
    PendingConsent {
        /// The consent request id.
        consent_id: String,
    },
    /// The requester must present these claims first (§VII).
    NeedsClaims(Vec<ClaimRequirement>),
}

/// A Host's access-control decision query (Fig. 6).
#[derive(Debug, Clone)]
pub struct DecisionQuery {
    /// The host access token sealing the delegation.
    pub host_token: String,
    /// The authorization token the Requester presented.
    pub authz_token: String,
    /// The resource actually being accessed.
    pub resource_id: String,
    /// The action actually being performed.
    pub action: Action,
    /// The requester presenting the token.
    pub requester: String,
}

/// The AM's answer to a decision query: "The decision can be either
/// 'permit' or 'deny'" (§V.B.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Access granted; the Host may cache this for `cacheable_ms`.
    Permit {
        /// User-controlled cache lifetime (0 = do not cache), already
        /// clamped to the presented token's remaining lifetime so a
        /// cached permit can never outlive the token that earned it.
        cacheable_ms: u64,
        /// The owner's policy epoch at evaluation time. Hosts compare
        /// this against the freshest epoch they have seen for the owner
        /// and drop cached permits stamped with an older one.
        policy_epoch: u64,
    },
    /// Access denied.
    Deny {
        /// Why (for the audit trail; Hosts only relay "denied").
        reason: String,
    },
}

impl Decision {
    /// Returns `true` for permits.
    #[must_use]
    pub fn is_permit(&self) -> bool {
        matches!(self, Decision::Permit { .. })
    }
}

/// Default consent-request lifetime: one simulated day (§V.D's
/// asynchronous window must end eventually).
pub const DEFAULT_CONSENT_TTL_MS: u64 = 24 * 60 * 60 * 1000;

/// How many ways the account map is sharded. Policy evaluation for one
/// owner only contends with traffic for owners hashing to the same
/// shard, not with the AM's global bookkeeping. Sized for the
/// million-owner population runs (DESIGN.md §13): with 10⁶ accounts each
/// shard still holds ~16k slots, and registration fans out across all 64.
const ACCOUNT_SHARDS: usize = 64;

/// How many ways the per-requester evaluation context (use counts,
/// satisfied claims) is sharded. Decision traffic for distinct requesters
/// lands on distinct shards, so the phase-C bookkeeping of concurrent
/// `decide` calls no longer serializes on one central write lock — the
/// fix for the 8-thread `full_flow` p99 cliff.
const CTX_SHARDS: usize = 16;

/// How many ways the issued-grants registry (sieve-compiler input) is
/// sharded, by owner hash.
const ISSUED_SHARDS: usize = 16;

/// Per-owner cap on the issued-grants registry the sieve compiler replays.
/// Oldest entries fall off first; a dropped entry only means the matching
/// token falls back to the tier-2 protocol path, never a wrong grant.
const ISSUED_GRANTS_CAP: usize = 4096;

/// Per-owner cap on the outstanding-decisions registry the invalidation
/// compiler re-evaluates (DESIGN.md §16). Unlike the issued-grants cap,
/// overflow here cannot silently drop entries: an invalidation body
/// claims *exactness* (the Host keeps everything not listed), so once
/// the cap is hit the owner's registry is marked overflowed and pushes
/// fall back to the always-safe plain epoch purge.
const DECIDED_TUPLES_CAP: usize = 8192;

/// FNV-1a over a name — the shard router every sharded structure here
/// shares.
fn fnv1a_str(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One owner's entry in an account shard: the PAP account plus the
/// monotonically increasing policy epoch that invalidates downstream
/// decision caches whenever the account's policy state changes.
struct AccountSlot {
    account: Account,
    epoch: u64,
}

type AccountShard = HashMap<String, AccountSlot>;

/// Read-mostly central state behind the AM's lock. Everything written on
/// the per-request hot path was evicted into sharded or striped
/// structures (DESIGN.md §13): what stays here changes only on
/// administrative events (delegations, IdP/claim-issuer config), so
/// `authorize`/`decide` take this lock for *reading* exclusively and the
/// 8-thread writer convoy the old monolithic state produced is gone.
#[derive(Default)]
struct AmState {
    trust: TrustRegistry,
    claim_verifier: ClaimVerifier,
    /// Host tokens retained at delegation time, keyed by (host, user).
    /// Each doubles as the HMAC key a compiled sieve for that delegation
    /// is signed with — a secret both ends already share, so the sieve
    /// needs no new key exchange.
    host_tokens: HashMap<(String, String), String>,
    idp: Option<IdentityVerifier>,
}

/// `(requester, subject, resource, action)`: one access tuple, in the
/// shape the use counts are keyed by.
type UseKey = (String, Option<String>, ResourceRef, Action);

/// One shard of the per-requester evaluation context.
#[derive(Default)]
struct CtxShard {
    /// Granted uses so far, per access tuple.
    use_counts: HashMap<UseKey, u32>,
    /// Claims verified at token-issuance time, reused at decision time,
    /// keyed by (requester, resource).
    satisfied_claims: HashMap<(String, ResourceRef), Vec<Claim>>,
}

/// One shard of the issued-grants registry: owner → `(token, grant)`
/// newest last — the raw material the sieve compiler replays. Populated
/// only while sieve push is enabled; capped at [`ISSUED_GRANTS_CAP`].
type IssuedShard = HashMap<String, VecDeque<(String, AuthzGrant)>>;

/// What the AM last successfully shipped to one (host, owner) pair with
/// a sieve body: the epoch it was compiled under and its fingerprint set.
/// The delta encoder diffs the next compile against this; the map is
/// updated only on confirmed delivery, so it can never run ahead of what
/// the Host actually installed.
struct ShippedSieve {
    epoch: u64,
    entries: HashMap<protocol::SieveFingerprint, u64>,
}

/// One cacheable permit the AM has answered: exactly the tuple a Host
/// may now hold in its decision cache, plus what `decide` needs to
/// re-evaluate it later. The invalidation compiler replays these on an
/// epoch advance to find which cached entries actually died.
#[derive(Clone)]
struct DecidedTuple {
    host: String,
    token: String,
    resource_id: String,
    action: Action,
    requester: String,
    /// When the Host's cached copy expires on its own — tuples past this
    /// are pruned instead of re-evaluated.
    expires_at_ms: u64,
}

/// One owner's slice of the outstanding-decisions registry, keyed by the
/// same fingerprint the Host keys its cache entries with.
#[derive(Default)]
struct DecidedSet {
    tuples: HashMap<protocol::SieveFingerprint, DecidedTuple>,
    /// Set when [`DECIDED_TUPLES_CAP`] evicted coverage. An exact
    /// invalidation list can no longer be claimed for this owner, so the
    /// compiler refuses and pushes go out plain (owner-wide purge).
    overflowed: bool,
}

type DecidedShard = HashMap<String, DecidedSet>;

/// What phase A gathers for one access tuple (see
/// [`AuthorizationManager::gather`]): the tuple itself, the owner's
/// consent, and the requester's satisfied claims and prior uses.
struct Gathered {
    key: UseKey,
    consent_granted: bool,
    claims: Vec<Claim>,
    prior_uses: u32,
}

/// One tuple a push compiler asks about: a live token's grant applied
/// to one resource and action.
struct Candidate<'a> {
    token: &'a str,
    grant: &'a AuthzGrant,
    resource_id: &'a str,
    action: &'a Action,
}

/// A dynamically registered Host or Requester (`/protection/v2/register`,
/// in the spirit of OAuth dynamic client registration). The secret is
/// the bearer credential for the rotate/deregister management endpoints
/// and, for `kind == "host"`, for obtaining delegations over the wire.
struct Registrant {
    kind: String,
    authority: String,
    secret: String,
}

/// Per-decision-route hit counters (see [`AuthorizationManager::route_hits`]).
/// The legacy `/decision` alias stays parity-tested but *counted*, so its
/// retirement is a measurement, not a guess (DESIGN.md §16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteHits {
    /// Hits on the pre-versioning `/decision` alias.
    pub legacy_decision: u64,
    /// Hits on the canonical `/protection/v1/decision` route.
    pub v1_decision: u64,
    /// Hits on the conditional `/protection/v2/decision` route.
    pub v2_decision: u64,
}

/// The Authorization Manager application. See the [module docs](self).
///
/// # Example
///
/// ```
/// use ucam_am::{AuthorizationManager, AuthorizeRequest, AuthorizeOutcome};
/// use ucam_policy::prelude::*;
/// use ucam_webenv::SimClock;
///
/// let am = AuthorizationManager::new("am.example", SimClock::new());
/// am.register_user("bob");
/// let (_, _host_token) = am.establish_delegation("webpics.example", "bob")?;
///
/// // Bob permits everyone to read photo-1.
/// am.pap("bob", |account| {
///     let id = account.create_policy(
///         "public-read",
///         PolicyBody::Rules(RulePolicy::new().with_rule(
///             Rule::permit().for_subject(Subject::Public).for_action(Action::Read),
///         )),
///     );
///     account.link_specific(ResourceRef::new("webpics.example", "photo-1"), &id).unwrap();
/// })?;
///
/// let outcome = am.authorize(&AuthorizeRequest::new(
///     "webpics.example", "bob", "photo-1", Action::Read, "requester:anyone",
/// ));
/// assert!(matches!(outcome, AuthorizeOutcome::Token { .. }));
/// # Ok::<(), ucam_am::AmError>(())
/// ```
pub struct AuthorizationManager {
    authority: String,
    clock: SimClock,
    tokens: TokenService,
    state: RwLock<AmState>,
    /// Accounts, sharded by owner hash. Lock-ordering rule: code never
    /// holds the central `state` lock and any shard lock at the same
    /// time; each phase of `authorize`/`decide` is its own lock scope.
    accounts: [RwLock<AccountShard>; ACCOUNT_SHARDS],
    /// Per-requester evaluation context, sharded by requester hash. Same
    /// single-lock-scope rule as the account shards.
    ctx: [RwLock<CtxShard>; CTX_SHARDS],
    /// Issued-grants registry (sieve-compiler input), sharded by owner
    /// hash. A Mutex, not RwLock: the only readers (sieve compiles) are
    /// cold-path, while the writer (token issuance) must never queue.
    issued: [Mutex<IssuedShard>; ISSUED_SHARDS],
    /// §V.D consent requests, sharded by owner hash inside the hub.
    consent: ConsentHub,
    /// Simulated e-mail/SMS outbox. Hot paths `enqueue` (O(1) push) and
    /// a pump drains; the lock is never held across anything slow.
    outbox: Mutex<NotificationOutbox>,
    /// Striped audit log; recording never serializes request threads.
    audit: AuditHub,
    /// Asynchronous AM→Host epoch push fan-out (internally synchronized).
    pushes: PushFanOut,
    /// Whether epoch pushes carry a compiled capability sieve body
    /// (DESIGN.md §12). Off by default: plain epoch pushes only.
    sieve_push: AtomicBool,
    /// Last sieve state confirmed delivered per (host, owner) — the base
    /// the delta encoder diffs against (DESIGN.md §13).
    shipped: Mutex<HashMap<(String, String), ShippedSieve>>,
    /// Whether epoch pushes carry a decision-level invalidation body
    /// (DESIGN.md §16). Off by default. Subordinate to the sieve: when a
    /// push already ships a sieve body, that body fully describes the
    /// valid set and no invalidation list is attached.
    invalidation_push: AtomicBool,
    /// Outstanding cacheable permits (invalidation-compiler input),
    /// sharded by owner hash like the issued registry. Cold-path readers
    /// (push compiles), hot-path writers gated on `invalidation_push`.
    decided: [Mutex<DecidedShard>; ISSUED_SHARDS],
    /// Dynamically registered Hosts/Requesters, keyed by registrant id.
    /// Management traffic only — never touched by `authorize`/`decide`.
    registrants: Mutex<HashMap<String, Registrant>>,
    /// Monotonic source for `reg-N` registrant ids.
    registrant_seq: AtomicU64,
    /// Per-decision-route hit counters, in [`RouteHits`] order.
    legacy_decision_hits: AtomicU64,
    v1_decision_hits: AtomicU64,
    v2_decision_hits: AtomicU64,
}

impl fmt::Debug for AuthorizationManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let accounts: usize = self.accounts.iter().map(|s| s.read().len()).sum();
        f.debug_struct("AuthorizationManager")
            .field("authority", &self.authority)
            .field("accounts", &accounts)
            .finish_non_exhaustive()
    }
}

impl AuthorizationManager {
    /// Creates an AM addressed as `authority` on the given clock.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Self {
        AuthorizationManager {
            authority: authority.to_owned(),
            tokens: TokenService::new(clock.clone()),
            clock,
            state: RwLock::new(AmState::default()),
            accounts: std::array::from_fn(|_| RwLock::new(AccountShard::default())),
            ctx: std::array::from_fn(|_| RwLock::new(CtxShard::default())),
            issued: std::array::from_fn(|_| Mutex::new(IssuedShard::default())),
            consent: ConsentHub::new(DEFAULT_CONSENT_TTL_MS),
            outbox: Mutex::new(NotificationOutbox::default()),
            audit: AuditHub::new(),
            pushes: PushFanOut::default(),
            sieve_push: AtomicBool::new(false),
            shipped: Mutex::new(HashMap::default()),
            invalidation_push: AtomicBool::new(false),
            decided: std::array::from_fn(|_| Mutex::new(DecidedShard::default())),
            registrants: Mutex::new(HashMap::default()),
            registrant_seq: AtomicU64::new(0),
            legacy_decision_hits: AtomicU64::new(0),
            v1_decision_hits: AtomicU64::new(0),
            v2_decision_hits: AtomicU64::new(0),
        }
    }

    /// The shard holding `owner`'s account (FNV-1a over the owner name).
    fn shard_for(&self, owner: &str) -> &RwLock<AccountShard> {
        &self.accounts[(fnv1a_str(owner) as usize) % ACCOUNT_SHARDS]
    }

    /// The shard holding `requester`'s evaluation context.
    fn ctx_for(&self, requester: &str) -> &RwLock<CtxShard> {
        &self.ctx[(fnv1a_str(requester) as usize) % CTX_SHARDS]
    }

    /// The shard holding `owner`'s issued-grants registry.
    fn issued_for(&self, owner: &str) -> &Mutex<IssuedShard> {
        &self.issued[(fnv1a_str(owner) as usize) % ISSUED_SHARDS]
    }

    /// The shard holding `owner`'s outstanding-decisions registry.
    fn decided_for(&self, owner: &str) -> &Mutex<DecidedShard> {
        &self.decided[(fnv1a_str(owner) as usize) % ISSUED_SHARDS]
    }

    /// Advances `owner`'s policy epoch, invalidating every decision a
    /// Host may have cached under the previous epoch.
    fn bump_policy_epoch(&self, owner: &str) {
        let bumped = {
            let mut shard = self.shard_for(owner).write();
            shard.get_mut(owner).map(|slot| {
                slot.epoch += 1;
                slot.epoch
            })
        };
        if let Some(epoch) = bumped {
            self.schedule_epoch_push(owner, epoch);
        }
    }

    // -- asynchronous epoch pushes ------------------------------------------

    /// Registers `host` to receive asynchronous policy-epoch pushes on
    /// its `/protection/v1/epoch` route whenever **any** owner's epoch
    /// advances. Delivery happens when [`Self::pump_epoch_pushes`] runs —
    /// epochs propagate as real network messages, not as an instantaneous
    /// side effect (see [`crate::push`]). For population-scale rigs where
    /// each Host only stores a slice of the owners, prefer the scoped
    /// [`Self::subscribe_epoch_push`].
    pub fn set_epoch_push_target(&self, host: &str) {
        self.pushes.add_global_target(host);
    }

    /// Subscribes `host` to epoch pushes for `owner` only. An epoch
    /// advance fans out to exactly the Hosts subscribed to that owner
    /// (plus any global targets), so a 512-Host deployment does per-owner
    /// work, not per-fleet work, on every policy edit.
    pub fn subscribe_epoch_push(&self, host: &str, owner: &str) {
        self.pushes.subscribe(host, owner);
    }

    /// Queues an epoch advance for delivery to every subscribed target.
    fn schedule_epoch_push(&self, owner: &str, epoch: u64) {
        if self.pushes.has_targets() {
            self.pushes.schedule(self.clock.now_ms(), owner, epoch);
        }
    }

    /// Attempts delivery of every due epoch push over `net`, returning how
    /// many were delivered. Transport failures requeue the push with
    /// deterministic backoff; pushes retry until they land (epochs are
    /// monotonic, so redelivery is harmless and dropping is not).
    pub fn pump_epoch_pushes(&self, net: &dyn Transport) -> usize {
        self.pump_epoch_pushes_bounded(net, usize::MAX)
    }

    /// [`Self::pump_epoch_pushes`] with a delivery budget: at most `limit`
    /// pushes go out; the rest stay queued (still due) for the next pump.
    /// This is the bounded-fan-out drain — one pump over a million-owner
    /// backlog does O(limit) network work, not O(backlog).
    ///
    /// With sieve push enabled, each delivery carries either a full
    /// [`protocol::SieveBody`] (first ship to a pair, or after a resync)
    /// or a [`protocol::SieveDeltaBody`] diffed against the last
    /// *confirmed-delivered* sieve. A Host that cannot apply the delta
    /// (its installed base doesn't match) answers
    /// [`protocol::SIEVE_RESYNC`]; the AM then forgets the pair's shipped
    /// state and requeues immediately, so the next pump ships a full body
    /// — the fallback that makes deltas safe against restarts and missed
    /// generations.
    pub fn pump_epoch_pushes_bounded(&self, net: &dyn Transport, limit: usize) -> usize {
        let due = self.pushes.take_due(self.clock.now_ms(), limit);
        if due.is_empty() {
            return 0;
        }
        let sieve_enabled = self.sieve_push.load(Ordering::Relaxed);
        let invalidation_enabled = self.invalidation_push.load(Ordering::Relaxed);

        // Stage 1 — compile every due push into its wire request upfront.
        // The queue coalesces per (host, owner), so no two requests in one
        // drain touch the same shipped-sieve entry and the compiles are
        // independent of each other's outcomes.
        let mut reqs = Vec::with_capacity(due.len());
        let mut plans = Vec::with_capacity(due.len());
        for push in due {
            let mut req = Request::new(
                Method::Post,
                &format!("https://{}{}", push.host, protocol::EPOCH_PUSH_PATH),
            )
            .with_param("owner", &push.owner)
            .with_param("epoch", &push.epoch.to_string());
            let pair = (push.host.clone(), push.owner.clone());
            let mut shipped_update: Option<ShippedSieve> = None;
            let mut sieved = false;
            if sieve_enabled {
                if let Some((entries, epoch, host_token)) =
                    self.compile_sieve(&push.host, &push.owner)
                {
                    let next: HashMap<protocol::SieveFingerprint, u64> = entries
                        .iter()
                        .map(|e| (e.fingerprint, e.expires_at_ms))
                        .collect();
                    let base = {
                        let shipped = self.shipped.lock();
                        shipped.get(&pair).map(|s| (s.epoch, s.entries.clone()))
                    };
                    let body = match base {
                        Some((base_epoch, prev)) => {
                            // Delta against the last confirmed ship: an
                            // entry is `added` when its fingerprint is new
                            // *or* its expiry moved (reissued token),
                            // `removed` when it vanished entirely.
                            let added: Vec<protocol::SieveEntry> = entries
                                .iter()
                                .filter(|e| prev.get(&e.fingerprint) != Some(&e.expires_at_ms))
                                .cloned()
                                .collect();
                            let removed: Vec<protocol::SieveFingerprint> = prev
                                .keys()
                                .filter(|fp| !next.contains_key(*fp))
                                .copied()
                                .collect();
                            protocol::SieveDeltaBody::build(
                                &push.owner,
                                epoch,
                                base_epoch,
                                added,
                                removed,
                                host_token.as_bytes(),
                            )
                            .to_json()
                        }
                        None => protocol::SieveBody::build(
                            &push.owner,
                            epoch,
                            entries,
                            host_token.as_bytes(),
                        )
                        .to_json(),
                    };
                    shipped_update = Some(ShippedSieve {
                        epoch,
                        entries: next,
                    });
                    req = req.with_body(body);
                    sieved = true;
                }
            }
            let mut invalidated = false;
            if !sieved && invalidation_enabled {
                // A sieve body already describes the complete valid set,
                // so the invalidation list only rides pushes without one.
                // `compile_invalidations` refuses (`None`) whenever the
                // list cannot be exact; the push then goes out plain and
                // the Host falls back to the owner-wide purge.
                if let Some((dead, epoch, host_token)) =
                    self.compile_invalidations(&push.host, &push.owner)
                {
                    let body = protocol::InvalidationBody::build(
                        &push.owner,
                        epoch,
                        dead,
                        host_token.as_bytes(),
                    )
                    .to_json();
                    req = req.with_body(body);
                    invalidated = true;
                }
            }
            reqs.push(req);
            plans.push((push, pair, shipped_update, sieved, invalidated));
        }

        // Stage 2 — one pipelined flush: over HTTP a drain of N pushes to
        // one Host costs one buffered write and one read loop instead of
        // N serialized round trips; `SimNet` runs the same requests
        // sequentially with identical accounting.
        let resps = net.dispatch_pipelined(&self.authority, reqs);

        // Stage 3 — settle each delivery in input order.
        let mut delivered = 0;
        for ((push, pair, shipped_update, sieved, invalidated), resp) in
            plans.into_iter().zip(resps)
        {
            let now = self.clock.now_ms();
            if resp.transport_error().is_some() {
                self.pushes.requeue(push, now);
            } else if resp.body == protocol::SIEVE_RESYNC {
                // The Host heard us (delivery confirmed) but could not
                // apply the delta; reship a full body on the next pump.
                self.pushes.record_delivery(now, &push);
                self.shipped.lock().remove(&pair);
                self.pushes.requeue_for_resync(push, now);
                delivered += 1;
            } else {
                self.pushes.record_delivery(now, &push);
                if sieved {
                    self.pushes.record_sieved();
                    if let Some(update) = shipped_update {
                        self.shipped.lock().insert(pair, update);
                    }
                }
                if invalidated {
                    self.pushes.record_invalidation();
                }
                delivered += 1;
            }
        }
        delivered
    }

    /// Enables (or disables) compiling a capability sieve into every
    /// epoch push (DESIGN.md §12). While enabled, the AM also records
    /// each issued authorization token so the compiler can replay it;
    /// tokens issued while disabled are simply absent from later sieves
    /// and keep using the tier-2 protocol path.
    pub fn set_sieve_push(&self, enabled: bool) {
        self.sieve_push.store(enabled, Ordering::Relaxed);
    }

    /// Enables (or disables) decision-level invalidation push (protocol
    /// v2, DESIGN.md §16). While enabled, the AM records every cacheable
    /// permit it answers so that an epoch advance can push the *exact*
    /// fingerprints that died instead of forcing an owner-wide purge.
    /// Permits answered while disabled are simply not covered — the Host
    /// purges them the classic epoch-bump way, which is always safe.
    pub fn set_invalidation_push(&self, enabled: bool) {
        self.invalidation_push.store(enabled, Ordering::Relaxed);
    }

    /// Schedules an epoch push for every registered owner at their
    /// current epoch. With sieve push enabled this re-compiles and
    /// re-delivers every owner's sieve — the warm-up lever for Hosts that
    /// just (re)connected, without waiting for a policy edit.
    pub fn schedule_sieve_refresh(&self) {
        for (owner, epoch) in self.policy_epochs() {
            self.schedule_epoch_push(&owner, epoch);
        }
    }

    /// Compiles the capability sieve for one (host, owner) delegation:
    /// replays every live issued token through [`Self::cacheable_until`]
    /// — the evaluation step [`Self::decide`] runs — and keeps the
    /// cacheable permits. Returns the raw `(entries, epoch, host_token)`
    /// triple; the pump decides whether to ship it as a full
    /// [`protocol::SieveBody`] or as a delta against the last confirmed
    /// ship.
    ///
    /// Returns `None` when no host token was ever retained for the pair
    /// (nothing to sign with — the push goes out plain). A *revoked*
    /// delegation still compiles: the result is an empty, signed sieve,
    /// which is exactly how revocation propagates to the Host's tier-1
    /// table ahead of cache expiry.
    ///
    /// Lock discipline: sequential scopes (state → issued shard → account
    /// shard → ctx/consent → account shard), never two locks at once,
    /// honoring the struct's ordering rule. State can move between
    /// scopes; any skew is bounded by the same epoch mechanism that
    /// bounds decision-cache staleness — a sieve compiled against a
    /// half-updated account carries the epoch it read, and the next bump
    /// purges it.
    fn compile_sieve(
        &self,
        host: &str,
        owner: &str,
    ) -> Option<(Vec<protocol::SieveEntry>, u64, String)> {
        let now = self.clock.now_ms();
        let (host_token, trusted) = self.push_key(host, owner)?;
        // Issued shard: the owner's live grants for this host.
        let grants: Vec<(String, AuthzGrant)> = if trusted {
            self.issued_for(owner)
                .lock()
                .get(owner)
                .map(|g| {
                    g.iter()
                        .filter(|(_, grant)| grant.host == host && grant.expires_at_ms > now)
                        .cloned()
                        .collect()
                })
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        if grants.is_empty() {
            // Epoch 0 never beats an installed sieve; read the real epoch
            // so an empty sieve still supersedes older entries.
            let epoch = self.policy_epoch(owner);
            return Some((Vec::new(), epoch, host_token));
        }

        // Shard read: expand realm grants to their member resources on
        // this host. A realm token passes the binding check for any
        // resource (the PDP re-evaluates per resource), so the candidate
        // set is the realm's members — an underapproximation is safe,
        // misses just take tier-2.
        let realm_resources: HashMap<String, Vec<String>> = {
            let shard = self.shard_for(owner).read();
            let slot = shard.get(owner)?;
            let mut map: HashMap<String, Vec<String>> = HashMap::new();
            for (_, grant) in &grants {
                let Some(realm) = &grant.realm else { continue };
                if map.contains_key(realm) {
                    continue;
                }
                let members = slot
                    .account
                    .policies()
                    .realm_members(realm)
                    .into_iter()
                    .filter(|rr| rr.host == host)
                    .map(|rr| rr.id.clone())
                    .collect();
                map.insert(realm.clone(), members);
            }
            map
        };

        // Candidate tuples: every (token, resource, built-in action). The
        // web layer maps unknown action strings to `Action::Custom`, which
        // the compiler cannot enumerate — custom actions stay tier-2.
        let builtin = Action::BUILTIN;
        let mut candidates = Vec::new();
        for (token, grant) in &grants {
            let mut resources = vec![grant.resource_id.as_str()];
            if let Some(realm) = &grant.realm {
                for id in realm_resources.get(realm).into_iter().flatten() {
                    if !resources.contains(&id.as_str()) {
                        resources.push(id);
                    }
                }
            }
            for resource_id in resources {
                for action in &builtin {
                    candidates.push(Candidate {
                        token,
                        grant,
                        resource_id,
                        action,
                    });
                }
            }
        }

        let (until, epoch) = self.cacheable_until(host, owner, now, &candidates)?;
        let entries = candidates
            .iter()
            .zip(until)
            .filter_map(|(c, until)| {
                let expires_at_ms = until?;
                Some(protocol::SieveEntry {
                    fingerprint: protocol::sieve_fingerprint(
                        c.token,
                        c.resource_id,
                        &c.action.to_string(),
                        &c.grant.requester,
                    ),
                    resource: c.resource_id.to_owned(),
                    expires_at_ms,
                })
            })
            .collect();
        Some((entries, epoch, host_token))
    }

    /// Records one cacheable permit in the outstanding-decisions registry
    /// — called from `decide`'s phase C while invalidation push is on.
    /// Every Host cache entry is born from exactly one such permit, so
    /// the registry is a superset of what any Host may still hold.
    fn record_decided(&self, host: &str, query: &DecisionQuery, owner: &str, expires_at_ms: u64) {
        let action_label = query.action.to_string();
        let fp = protocol::sieve_fingerprint(
            &query.authz_token,
            &query.resource_id,
            &action_label,
            &query.requester,
        );
        let mut shard = self.decided_for(owner).lock();
        let set = shard.entry(owner.to_owned()).or_default();
        if let Some(existing) = set.tuples.get_mut(&fp) {
            existing.expires_at_ms = existing.expires_at_ms.max(expires_at_ms);
            return;
        }
        if set.tuples.len() >= DECIDED_TUPLES_CAP {
            set.overflowed = true;
            return;
        }
        set.tuples.insert(
            fp,
            DecidedTuple {
                host: host.to_owned(),
                token: query.authz_token.clone(),
                resource_id: query.resource_id.clone(),
                action: query.action.clone(),
                requester: query.requester.clone(),
                expires_at_ms,
            },
        );
    }

    /// Compiles the decision-level invalidation list for one (host,
    /// owner) delegation: re-asks [`Self::cacheable_until`] — the
    /// evaluation step [`Self::decide`] runs, minus its side effects —
    /// about every outstanding cacheable permit recorded for the pair and
    /// returns the fingerprints that no longer hold, plus the epoch and
    /// signing key. An empty list is meaningful — signed proof that the
    /// epoch advance killed none of this Host's entries.
    ///
    /// Returns `None` when the list cannot be *exact*: no host token was
    /// ever retained for the pair, the owner is unknown, or the
    /// outstanding registry overflowed its cap. The caller then sends the
    /// push plain and the Host does the owner-wide purge — always safe.
    ///
    /// Same sequential-lock-scope discipline as [`Self::compile_sieve`];
    /// skew between scopes is bounded by the epoch mechanism (a list
    /// compiled against a half-updated account carries the epoch it read,
    /// and the next bump re-pushes).
    fn compile_invalidations(
        &self,
        host: &str,
        owner: &str,
    ) -> Option<(Vec<protocol::SieveFingerprint>, u64, String)> {
        let now = self.clock.now_ms();
        let (host_token, trusted) = self.push_key(host, owner)?;

        // Outstanding registry: prune expired tuples (their cached copies
        // died on their own) and take this host's slice.
        let tuples: Vec<(protocol::SieveFingerprint, DecidedTuple)> = {
            let mut shard = self.decided_for(owner).lock();
            let Some(set) = shard.get_mut(owner) else {
                // Nothing outstanding: the epoch advance invalidated
                // nothing this AM ever answered for.
                return Some((Vec::new(), self.policy_epoch(owner), host_token));
            };
            if set.overflowed {
                return None;
            }
            set.tuples.retain(|_, t| t.expires_at_ms > now);
            set.tuples
                .iter()
                .filter(|(_, t)| t.host == host)
                .map(|(fp, t)| (*fp, t.clone()))
                .collect()
        };

        // A revoked delegation kills every outstanding permit at once.
        if !trusted {
            let dead = tuples.into_iter().map(|(fp, _)| fp).collect();
            return Some((dead, self.policy_epoch(owner), host_token));
        }

        // An expired or rebound token means the cached entry is dead
        // regardless of policy; only tuples whose token still validates
        // are evaluated.
        let grants: Vec<Option<AuthzGrant>> = tuples
            .iter()
            .map(|(_, t)| {
                self.tokens
                    .validate_authz_token(&t.token, host, &t.resource_id, &t.requester)
                    .ok()
                    .filter(|grant| grant.owner == owner)
            })
            .collect();
        let candidates: Vec<Candidate<'_>> = tuples
            .iter()
            .zip(&grants)
            .filter_map(|((_, t), grant)| {
                Some(Candidate {
                    token: &t.token,
                    grant: grant.as_ref()?,
                    resource_id: &t.resource_id,
                    action: &t.action,
                })
            })
            .collect();
        let (until, epoch) = self.cacheable_until(host, owner, now, &candidates)?;
        // A tuple is dead when its token no longer validates or `decide`
        // would no longer answer it with a cacheable permit. `until`
        // answers the validated tuples only, in order, so it advances
        // only past those.
        let mut until = until.into_iter();
        let dead = tuples
            .iter()
            .zip(&grants)
            .filter(|(_, grant)| grant.is_none() || until.next().flatten().is_none())
            .map(|((fp, _), _)| *fp)
            .collect();
        Some((dead, epoch, host_token))
    }

    /// The push compilers' central read: the delegation's retained host
    /// token, which signs the push body (`None` when none was ever
    /// retained for the pair), and whether the delegation is still
    /// trusted.
    fn push_key(&self, host: &str, owner: &str) -> Option<(String, bool)> {
        let state = self.state.read();
        let token = state
            .host_tokens
            .get(&(host.to_owned(), owner.to_owned()))?;
        Some((token.clone(), state.trust.check(host, owner).is_ok()))
    }

    /// The question both push compilers ask: which `candidates` would
    /// [`Self::decide`] still answer with a cacheable permit, and until
    /// when? Each candidate goes through phase A ([`Self::gather`]), then
    /// all of them through one phase B ([`Self::evaluate`]) — `decide`'s
    /// own evaluation without its audit record and use-count bump.
    /// Returns each candidate's cache expiry (`None`: not a cacheable
    /// permit) and the epoch read with the policies; `None` when the
    /// owner is unknown.
    fn cacheable_until(
        &self,
        host: &str,
        owner: &str,
        now: u64,
        candidates: &[Candidate<'_>],
    ) -> Option<(Vec<Option<u64>>, u64)> {
        let gathered: Vec<Gathered> = candidates
            .iter()
            .map(|c| {
                let key = (
                    c.grant.requester.clone(),
                    c.grant.subject.clone(),
                    ResourceRef::new(host, c.resource_id),
                    c.action.clone(),
                );
                self.gather(owner, key)
            })
            .collect();
        let (decisions, cache_ttl_ms, epoch) = self.evaluate(owner, now, &gathered)?;
        let until = candidates
            .iter()
            .zip(decisions)
            .map(|(c, decision)| {
                let cacheable_ms = cacheable_ms(cache_ttl_ms, c.grant, now);
                (decision.is_permit() && cacheable_ms > 0).then_some(now + cacheable_ms)
            })
            .collect();
        Some((until, epoch))
    }

    /// Undelivered epoch pushes (due or backing off).
    #[must_use]
    pub fn pending_epoch_pushes(&self) -> usize {
        self.pushes.pending_len()
    }

    /// Delivery counters for the epoch push channel.
    #[must_use]
    pub fn epoch_push_stats(&self) -> EpochPushStats {
        self.pushes.stats()
    }

    /// Per-decision-route hit counters. The legacy `/decision` alias is
    /// kept parity-tested but counted — when this reads zero across a
    /// deployment's observation window, the alias can be retired on data
    /// instead of hope (DESIGN.md §16).
    #[must_use]
    pub fn route_hits(&self) -> RouteHits {
        RouteHits {
            legacy_decision: self.legacy_decision_hits.load(Ordering::Relaxed),
            v1_decision: self.v1_decision_hits.load(Ordering::Relaxed),
            v2_decision: self.v2_decision_hits.load(Ordering::Relaxed),
        }
    }

    /// The owner's current policy epoch (0 when the owner is unknown).
    /// Hosts feed this into their decision caches; see
    /// `HostCore::note_policy_epoch`.
    #[must_use]
    pub fn policy_epoch(&self, owner: &str) -> u64 {
        self.shard_for(owner)
            .read()
            .get(owner)
            .map_or(0, |slot| slot.epoch)
    }

    /// Every registered owner with their current policy epoch, sorted by
    /// owner name (deterministic regardless of shard iteration order).
    #[must_use]
    pub fn policy_epochs(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = Vec::new();
        for shard in &self.accounts {
            let shard = shard.read();
            all.extend(shard.iter().map(|(user, slot)| (user.clone(), slot.epoch)));
        }
        all.sort();
        all
    }

    /// Overrides the authorization-token TTL (benchmark knob).
    #[must_use]
    pub fn with_token_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.tokens = self.tokens.with_ttl_ms(ttl_ms);
        self
    }

    /// Returns the AM's simulated clock handle.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Creates an (empty) account for `user`; idempotent.
    pub fn register_user(&self, user: &str) {
        self.shard_for(user)
            .write()
            .entry(user.to_owned())
            .or_insert_with(|| AccountSlot {
                account: Account::new(user),
                epoch: 1,
            });
    }

    /// Configures the identity provider whose assertions this AM accepts.
    pub fn set_identity_verifier(&self, verifier: IdentityVerifier) {
        self.state.write().idp = Some(verifier);
    }

    /// Adds a claim issuer to the trusted set (§VII).
    pub fn trust_claim_issuer(&self, issuer: &ClaimIssuer) {
        self.state.write().claim_verifier.trust(issuer);
    }

    // -- delegation (Fig. 3) ------------------------------------------------

    /// Establishes the Host↔AM trust relationship for `user`'s resources on
    /// `host`, returning the delegation record and the host access token.
    ///
    /// # Errors
    ///
    /// Returns [`AmError::UnknownUser`] when the user has no account.
    pub fn establish_delegation(
        &self,
        host: &str,
        user: &str,
    ) -> Result<(Delegation, String), AmError> {
        let now = self.clock.now_ms();
        if !self.shard_for(user).read().contains_key(user) {
            return Err(AmError::UnknownUser(user.to_owned()));
        }
        let (delegation, token) = {
            let mut state = self.state.write();
            let delegation = state.trust.establish(host, user, now);
            let token = self.tokens.mint_host_token(host, user, &delegation.id);
            // Retained as the sieve-signing key for this delegation; a
            // token embeds its mint time, so it cannot be re-derived later.
            state
                .host_tokens
                .insert((host.to_owned(), user.to_owned()), token.clone());
            (delegation, token)
        };
        self.audit.record(
            AuditEntry::new(now, user, AuditEvent::Delegation { established: true }).at_host(host),
        );
        Ok((delegation, token))
    }

    /// Revokes a delegation by id; the matching host token becomes useless
    /// and the user's policy epoch advances so cached decisions die too.
    pub fn revoke_delegation(&self, user: &str, delegation_id: &str) -> bool {
        let now = self.clock.now_ms();
        let revoked = self.state.write().trust.revoke(delegation_id);
        if revoked {
            self.audit.record(AuditEntry::new(
                now,
                user,
                AuditEvent::Delegation { established: false },
            ));
            self.bump_policy_epoch(user);
        }
        revoked
    }

    /// Validates a host token *and* checks the delegation it seals is still
    /// the active one.
    ///
    /// # Errors
    ///
    /// Returns [`AmError::Token`] or [`AmError::Trust`].
    pub fn check_host_token(&self, token: &str) -> Result<HostGrant, AmError> {
        let grant = self.tokens.validate_host_token(token)?;
        let state = self.state.read();
        state
            .trust
            .check_id(&grant.host, &grant.user, &grant.delegation_id)?;
        Ok(grant)
    }

    // -- PAP access ----------------------------------------------------------

    /// Runs `f` with mutable access to `user`'s PAP account and advances
    /// the user's policy epoch (mutable access is assumed to change
    /// policy-relevant state; cached decisions must not survive it).
    ///
    /// # Errors
    ///
    /// Returns [`AmError::UnknownUser`] when the user has no account.
    pub fn pap<R>(&self, user: &str, f: impl FnOnce(&mut Account) -> R) -> Result<R, AmError> {
        let (result, epoch) = {
            let mut shard = self.shard_for(user).write();
            let slot = shard
                .get_mut(user)
                .ok_or_else(|| AmError::UnknownUser(user.to_owned()))?;
            let result = f(&mut slot.account);
            slot.epoch += 1;
            (result, slot.epoch)
        };
        self.schedule_epoch_push(user, epoch);
        Ok(result)
    }

    /// Runs `f` with mutable access to `owner`'s PAP account on behalf of
    /// `actor` — allowed for the owner themselves or an appointed
    /// Custodian (§V.D extension).
    ///
    /// # Errors
    ///
    /// Returns [`AmError::UnknownUser`] when the owner has no account and
    /// [`AmError::NotAuthorized`] when `actor` is neither the owner nor a
    /// custodian.
    pub fn pap_as<R>(
        &self,
        actor: &str,
        owner: &str,
        f: impl FnOnce(&mut Account) -> R,
    ) -> Result<R, AmError> {
        let (result, epoch) = {
            let mut shard = self.shard_for(owner).write();
            let slot = shard
                .get_mut(owner)
                .ok_or_else(|| AmError::UnknownUser(owner.to_owned()))?;
            if !slot.account.may_administer(actor) {
                return Err(AmError::NotAuthorized {
                    actor: actor.to_owned(),
                    owner: owner.to_owned(),
                });
            }
            let result = f(&mut slot.account);
            slot.epoch += 1;
            (result, slot.epoch)
        };
        self.schedule_epoch_push(owner, epoch);
        Ok(result)
    }

    /// Runs `f` with shared access to `user`'s PAP account.
    ///
    /// # Errors
    ///
    /// Returns [`AmError::UnknownUser`] when the user has no account.
    pub fn pap_ref<R>(&self, user: &str, f: impl FnOnce(&Account) -> R) -> Result<R, AmError> {
        let shard = self.shard_for(user).read();
        let slot = shard
            .get(user)
            .ok_or_else(|| AmError::UnknownUser(user.to_owned()))?;
        Ok(f(&slot.account))
    }

    // -- policy evaluation (phases A and B) -------------------------------------

    /// Phase A for one access tuple: the owner's consent (consent hub),
    /// then the requester's satisfied claims and prior uses (one
    /// context-shard read). Each is its own lock scope; nothing is
    /// written. `key` is the tuple; it comes back inside the result so
    /// `decide` bumps exactly the use count it read.
    fn gather(&self, owner: &str, key: UseKey) -> Gathered {
        let (requester, subject, resource, action) = &key;
        let consent = &self.consent;
        let consent_granted =
            consent.is_granted(owner, requester, subject.as_deref(), resource, action);
        let (claims, prior_uses) = {
            let ctx = self.ctx_for(requester).read();
            let claims = ctx
                .satisfied_claims
                .get(&(requester.clone(), resource.clone()))
                .cloned()
                .unwrap_or_default();
            (claims, ctx.use_counts.get(&key).copied().unwrap_or(0))
        };
        Gathered {
            key,
            consent_granted,
            claims,
            prior_uses,
        }
    }

    /// Phase B: evaluates gathered tuples against `owner`'s policies under
    /// one owner-shard read, so it runs concurrently with evaluations for
    /// owners on other shards and with central bookkeeping. Returns the
    /// decisions in order, with the owner's cache TTL and the policy epoch
    /// read in that same scope; `None` when the owner is unknown.
    fn evaluate<'g>(
        &self,
        owner: &str,
        now: u64,
        tuples: impl IntoIterator<Item = &'g Gathered>,
    ) -> Option<(Vec<EngineDecision>, u64, u64)> {
        let shard = self.shard_for(owner).read();
        let slot = shard.get(owner)?;
        let account = &slot.account;
        let oracle = account.group_oracle();
        let decisions = tuples
            .into_iter()
            .map(|g| {
                let (requester, subject, resource, action) = &g.key;
                let mut access = AccessRequest::new(&resource.host, &resource.id, action.clone())
                    .via_app(requester);
                if let Some(subject) = subject {
                    access = access.by_user(subject);
                }
                let mut ctx = EvalContext::new(&access, now)
                    .with_groups(&oracle)
                    .with_claims(&g.claims)
                    .with_prior_uses(g.prior_uses);
                if g.consent_granted {
                    ctx = ctx.with_consent();
                }
                PolicyEngine::evaluate(account.policies(), &ctx)
            })
            .collect();
        Some((decisions, account.cache_ttl_ms(), slot.epoch))
    }

    /// [`Self::evaluate`] for a single tuple.
    fn evaluate_one(
        &self,
        owner: &str,
        now: u64,
        g: &Gathered,
    ) -> Option<(EngineDecision, u64, u64)> {
        let (mut decisions, cache_ttl_ms, epoch) = self.evaluate(owner, now, [g])?;
        Some((decisions.pop()?, cache_ttl_ms, epoch))
    }

    // -- token issuance (Fig. 5) ----------------------------------------------

    /// Evaluates an access request and, if policy allows, issues an
    /// authorization token bound to it (§V.B.3).
    pub fn authorize(&self, request: &AuthorizeRequest) -> AuthorizeOutcome {
        let now = self.clock.now_ms();

        // Phase A — central read (trust, claim verification), then
        // `gather`. Freshly verified claims go first, then those the
        // requester satisfied earlier.
        let verified = {
            let state = self.state.read();
            if state.trust.check(&request.host, &request.owner).is_err() {
                return AuthorizeOutcome::Denied(format!(
                    "host {} has not delegated access control for user {}",
                    request.host, request.owner
                ));
            }
            state.claim_verifier.verify_all(&request.claim_tokens)
        };
        let key = (
            request.requester.clone(),
            request.subject.clone(),
            ResourceRef::new(&request.host, &request.resource_id),
            request.action.clone(),
        );
        let mut gathered = self.gather(&request.owner, key);
        let previous = std::mem::replace(&mut gathered.claims, verified);
        gathered.claims.extend(previous);

        // Phase B — owner-shard read.
        let Some((decision, ..)) = self.evaluate_one(&request.owner, now, &gathered) else {
            return AuthorizeOutcome::Denied(format!("unknown owner {}", request.owner));
        };
        let (resource, claims) = (&gathered.key.2, gathered.claims);

        // Phase C — act on the outcome. All bookkeeping goes to sharded
        // or striped structures; the central lock is never taken.
        match decision.outcome {
            Outcome::Permit => {
                let grant = self.tokens.grant(
                    decision.realm.as_deref(),
                    &request.resource_id,
                    &request.host,
                    &request.requester,
                    request.subject.as_deref(),
                    &request.owner,
                );
                let token = self.tokens.mint_authz_token(&grant);
                if !claims.is_empty() {
                    self.ctx_for(&request.requester)
                        .write()
                        .satisfied_claims
                        .insert((request.requester.clone(), resource.clone()), claims);
                }
                if self.sieve_push.load(Ordering::Relaxed) {
                    let mut shard = self.issued_for(&request.owner).lock();
                    let issued = shard.entry(request.owner.clone()).or_default();
                    if issued.len() >= ISSUED_GRANTS_CAP {
                        issued.pop_front();
                    }
                    issued.push_back((token.clone(), grant.clone()));
                }
                self.audit
                    .record(audit_token_entry(now, request, resource, true, &decision));
                AuthorizeOutcome::Token { token, grant }
            }
            Outcome::RequiresConsent => {
                let consent_id = self.consent.open(
                    &request.owner,
                    &request.requester,
                    request.subject.as_deref(),
                    resource.clone(),
                    request.action.clone(),
                    now,
                );
                // "an AM may send a request for such consent by sending an
                // e-mail or SMS message to a User" (§V.D). Enqueued, not
                // sent inline: delivery fans out asynchronously via
                // [`Self::pump_notifications`], so a policy with thousands
                // of pending consents never blocks the request path.
                self.outbox.lock().enqueue(Notification {
                    to_user: request.owner.clone(),
                    channel: Channel::Email,
                    message: format!(
                        "{} requests {} on {} — approve at https://{}/consent",
                        request.requester, request.action, resource, self.authority
                    ),
                    at_ms: now,
                });
                self.audit.record(AuditEntry::new(
                    now,
                    &request.owner,
                    AuditEvent::Consent {
                        consent_id: consent_id.clone(),
                        what: "opened".into(),
                    },
                ));
                AuthorizeOutcome::PendingConsent { consent_id }
            }
            Outcome::RequiresClaims(ref requirements) => {
                AuthorizeOutcome::NeedsClaims(requirements.clone())
            }
            Outcome::Deny(ref reason) => {
                let reason = reason.to_string();
                self.audit
                    .record(audit_token_entry(now, request, resource, false, &decision));
                AuthorizeOutcome::Denied(reason)
            }
            Outcome::NotApplicable => {
                self.audit
                    .record(audit_token_entry(now, request, resource, false, &decision));
                AuthorizeOutcome::Denied("no applicable policy".to_owned())
            }
        }
    }

    // -- decision queries (Fig. 6) ---------------------------------------------

    /// Answers a Host's access-control decision query (§V.B.5): validates
    /// the host token and the authorization token's binding, re-evaluates
    /// the applicable policies, and returns permit/deny plus the
    /// user-controlled cache lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`AmError`] when either token fails validation — protocol
    /// errors, as opposed to policy "deny" decisions which are returned as
    /// [`Decision::Deny`].
    pub fn decide(&self, query: &DecisionQuery) -> Result<Decision, AmError> {
        let now = self.clock.now_ms();
        let host_grant = self.tokens.validate_host_token(&query.host_token)?;
        {
            let state = self.state.read();
            state.trust.check_id(
                &host_grant.host,
                &host_grant.user,
                &host_grant.delegation_id,
            )?;
        }
        let grant = self.tokens.validate_authz_token(
            &query.authz_token,
            &host_grant.host,
            &query.resource_id,
            &query.requester,
        )?;
        if grant.owner != host_grant.user {
            return Err(AmError::Token(TokenError::BindingMismatch(format!(
                "token owner {} does not match delegation user {}",
                grant.owner, host_grant.user
            ))));
        }

        // Phase A (consent hub, context shard), then phase B (owner
        // shard): the cache TTL and the epoch the decision is stamped
        // with are read together with the policies. No central lock.
        let key = (
            query.requester.clone(),
            grant.subject.clone(),
            ResourceRef::new(&host_grant.host, &query.resource_id),
            query.action.clone(),
        );
        let gathered = self.gather(&grant.owner, key);
        let Some((engine_decision, cache_ttl_ms, policy_epoch)) =
            self.evaluate_one(&grant.owner, now, &gathered)
        else {
            return Err(AmError::UnknownUser(grant.owner.clone()));
        };

        // Phase C — striped audit record plus a context-shard use-count
        // bump. The writes land on structures partitioned by requester
        // and record order, so eight decision threads no longer convoy on
        // one central writer lock (the old 8-thread p99 cliff).
        let mut entry = AuditEntry::new(
            now,
            &grant.owner,
            AuditEvent::Decision {
                outcome: engine_decision.outcome.clone(),
            },
        )
        .on_resource(gathered.key.2.clone())
        .by_requester(&query.requester, grant.subject.as_deref())
        .for_action(query.action.clone());
        entry = entry.with_policies(contributing_policies(&engine_decision));
        self.audit.record(entry);
        if engine_decision.is_permit() {
            *self
                .ctx_for(&query.requester)
                .write()
                .use_counts
                .entry(gathered.key)
                .or_insert(0) += 1;
        }

        match engine_decision.outcome {
            Outcome::Permit => {
                let cacheable_ms = cacheable_ms(cache_ttl_ms, &grant, now);
                if cacheable_ms > 0 && self.invalidation_push.load(Ordering::Relaxed) {
                    // The Host may cache this verdict; remember the exact
                    // tuple so a later epoch advance can invalidate it
                    // surgically instead of purging the whole owner.
                    self.record_decided(&host_grant.host, query, &grant.owner, now + cacheable_ms);
                }
                Ok(Decision::Permit {
                    cacheable_ms,
                    policy_epoch,
                })
            }
            other => Ok(Decision::Deny {
                reason: other.to_string(),
            }),
        }
    }

    /// Answers a batch of decision queries in one call (the wire side is
    /// the `/protection/v1/decisions` route). Evaluation is per-item and
    /// order-preserving: item *i* of the result answers query *i*, and a
    /// token failure on one item ([`Err`]) does not poison its neighbors.
    /// The amortization is in the transport — one Host→AM round trip
    /// carries up to [`protocol::MAX_BATCH`] queries (the cap is enforced
    /// at the web layer; the native API accepts any length).
    #[must_use]
    pub fn decide_batch(&self, queries: &[DecisionQuery]) -> Vec<Result<Decision, AmError>> {
        queries.iter().map(|query| self.decide(query)).collect()
    }

    // -- account portability ----------------------------------------------------

    /// Exports `user`'s entire administrative state (policies, bindings,
    /// groups, RT credentials, custodians, preferences) as JSON — the
    /// lever behind the paper's OpenID-style freedom to *switch* AMs
    /// (§V.A.2: "a particular Authorization Manager is chosen and can be
    /// controlled by a User").
    ///
    /// # Errors
    ///
    /// Returns [`AmError::UnknownUser`] when the user has no account.
    pub fn export_account(&self, user: &str) -> Result<String, AmError> {
        self.pap_ref(user, |account| {
            serde_json::to_string_pretty(account).expect("account serialization is infallible")
        })
    }

    /// Imports an account snapshot (from [`AuthorizationManager::export_account`]
    /// at another AM), creating or replacing the local account for the
    /// snapshot's owner. Delegations are **not** imported: trust must be
    /// re-established with each Host against the new AM (fresh host
    /// tokens), exactly as the protocol requires.
    ///
    /// # Errors
    ///
    /// Returns the parse failure as a string when the snapshot is invalid.
    pub fn import_account(&self, snapshot: &str) -> Result<String, String> {
        let account: Account = serde_json::from_str(snapshot).map_err(|e| e.to_string())?;
        Ok(self.install_account(account))
    }

    /// Installs a parsed account snapshot in place of any local account
    /// of the same owner, returning the owner.
    fn install_account(&self, account: Account) -> String {
        let user = account.user().to_owned();
        let epoch = {
            let mut shard = self.shard_for(&user).write();
            let epoch = shard.get(&user).map_or(1, |slot| slot.epoch + 1);
            shard.insert(user.clone(), AccountSlot { account, epoch });
            epoch
        };
        self.schedule_epoch_push(&user, epoch);
        user
    }

    // -- consent (§V.D) --------------------------------------------------------

    /// Sets how long consent requests stay pending before expiring.
    pub fn set_consent_ttl_ms(&self, ttl_ms: u64) {
        self.consent.set_ttl_ms(ttl_ms);
    }

    /// Pending consent requests for `owner`.
    #[must_use]
    pub fn pending_consents(&self, owner: &str) -> Vec<String> {
        self.consent.pending_for(owner, self.clock.now_ms())
    }

    /// The owner grants a pending consent request.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::consent::ConsentError`] as a string.
    pub fn grant_consent(&self, id: &str) -> Result<(), String> {
        let now = self.clock.now_ms();
        let owner = self.consent.grant(id).map_err(|e| e.to_string())?;
        self.audit.record(AuditEntry::new(
            now,
            &owner,
            AuditEvent::Consent {
                consent_id: id.to_owned(),
                what: "granted".into(),
            },
        ));
        Ok(())
    }

    /// The owner denies a pending consent request.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::consent::ConsentError`] as a string.
    pub fn deny_consent(&self, id: &str) -> Result<(), String> {
        let now = self.clock.now_ms();
        let owner = self.consent.deny(id).map_err(|e| e.to_string())?;
        self.audit.record(AuditEntry::new(
            now,
            &owner,
            AuditEvent::Consent {
                consent_id: id.to_owned(),
                what: "denied".into(),
            },
        ));
        // Withdrawing consent narrows access: invalidate cached permits.
        self.bump_policy_epoch(&owner);
        Ok(())
    }

    /// Returns the state of a consent request (after expiring overdue
    /// pending ones).
    #[must_use]
    pub fn consent_state(&self, id: &str) -> Option<ConsentState> {
        self.consent.state(id, self.clock.now_ms())
    }

    /// Delivers up to `max` queued consent notifications (oldest first),
    /// returning how many went out — the asynchronous fan-out worker for
    /// the e-mail/SMS channel of §V.D. Bounded like the epoch-push pump:
    /// a thousand pending consents cost a thousand *pump budget units*,
    /// never a thousand inline sends on somebody's request path.
    pub fn pump_notifications(&self, max: usize) -> usize {
        self.outbox.lock().pump(max)
    }

    // -- observability -----------------------------------------------------------

    /// Runs `f` over the audit log (R4's consolidated view). The log is
    /// merged from the record stripes on every call — observability pays
    /// the merge, the request path doesn't.
    pub fn audit<R>(&self, f: impl FnOnce(&AuditLog) -> R) -> R {
        f(&self.audit.snapshot())
    }

    /// Bounds the retained audit log (0 = unbounded). Million-entity runs
    /// set this so the log is a ring buffer, not an O(traffic) leak.
    pub fn set_audit_cap(&self, cap: usize) {
        self.audit.set_cap(cap);
    }

    /// Runs `f` over the notification outbox (simulated e-mail/SMS).
    /// Flushes anything still queued first, so a reader always sees every
    /// notification the AM ever produced, pumped or not.
    pub fn outbox<R>(&self, f: impl FnOnce(&NotificationOutbox) -> R) -> R {
        let mut outbox = self.outbox.lock();
        outbox.flush();
        f(&outbox)
    }

    /// Verifies an identity assertion against the configured IdP, if any.
    #[must_use]
    pub fn verify_subject(&self, token: &str) -> Option<String> {
        let state = self.state.read();
        state.idp.as_ref()?.verify(token).ok()
    }
}

/// Projects a native [`Decision`] onto the shared wire type every party
/// (AM, Host, baselines) serializes through.
fn decision_wire(decision: &Decision) -> DecisionBody {
    match decision {
        Decision::Permit {
            cacheable_ms,
            policy_epoch,
        } => DecisionBody::permit(*cacheable_ms, *policy_epoch),
        Decision::Deny { reason } => DecisionBody::deny(reason),
    }
}

/// How long a Host may cache a permit answered under `grant`: the
/// owner's cache TTL, clamped so a cached permit never outlives the
/// token it answers for.
fn cacheable_ms(cache_ttl_ms: u64, grant: &AuthzGrant, now: u64) -> u64 {
    cache_ttl_ms.min(grant.expires_at_ms.saturating_sub(now))
}

fn contributing_policies(decision: &EngineDecision) -> Vec<ucam_policy::PolicyId> {
    decision
        .general_policy
        .iter()
        .chain(decision.specific_policy.iter())
        .cloned()
        .collect()
}

fn audit_token_entry(
    now: u64,
    request: &AuthorizeRequest,
    resource: &ResourceRef,
    issued: bool,
    decision: &EngineDecision,
) -> AuditEntry {
    AuditEntry::new(now, &request.owner, AuditEvent::TokenRequested { issued })
        .on_resource(resource.clone())
        .by_requester(&request.requester, request.subject.as_deref())
        .for_action(request.action.clone())
        .with_policies(contributing_policies(decision))
}

// ---------------------------------------------------------------------------
// Web interface
// ---------------------------------------------------------------------------

impl WebApp for AuthorizationManager {
    fn authority(&self) -> &str {
        &self.authority
    }

    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        match req.url.path() {
            // Fig. 3: the User (browser) confirms the delegation; the AM
            // issues the host access token and redirects back to the Host.
            "/delegate" => self.web_delegate(req),
            // Fig. 4: the User links policies to resources.
            "/compose" => self.web_compose(req),
            // Fig. 5: a Requester asks for an authorization token.
            "/authorize" => self.web_authorize(req),
            "/authorize/status" => self.web_authorize_status(req),
            // Fig. 6: a Host queries for a decision. The versioned
            // `/protection/v1/decision` route is canonical; the bare
            // `/decision` path is the pre-versioning alias, parity-tested
            // and hit-counted so retirement is data-driven (§16).
            protocol::DECISION_PATH | protocol::LEGACY_DECISION_PATH => {
                if req.url.path() == protocol::LEGACY_DECISION_PATH {
                    self.legacy_decision_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.v1_decision_hits.fetch_add(1, Ordering::Relaxed);
                }
                let resp = self.web_decision(req);
                // Lazy label: while tracing is off (every hot loop) this
                // is one atomic load and no formatting.
                net.trace().note_with(&self.authority, || {
                    let verdict = if resp.body.contains("\"decision\":\"permit\"") {
                        "permit"
                    } else if resp.body.contains("\"decision\":\"deny\"") {
                        "deny"
                    } else {
                        "refused"
                    };
                    format!(
                        "PDP decision for {} on {}: {verdict}",
                        req.param("requester").unwrap_or("?"),
                        req.param("resource").unwrap_or("?"),
                    )
                });
                resp
            }
            // Batched decision queries: one round trip, up to
            // `protocol::MAX_BATCH` verdicts.
            protocol::BATCH_DECISIONS_PATH => {
                let resp = self.web_decisions_batch(req);
                net.trace().note_with(&self.authority, || {
                    format!(
                        "PDP batch decision ({} bytes in, {} bytes out)",
                        req.body.len(),
                        resp.body.len()
                    )
                });
                resp
            }
            // Protocol v2 (DESIGN.md §16): conditional decision queries,
            // batch authorize, and dynamic registration.
            protocol::DECISION_V2_PATH => {
                self.v2_decision_hits.fetch_add(1, Ordering::Relaxed);
                self.web_decision_v2(req)
            }
            protocol::BATCH_AUTHORIZE_PATH => self.web_authorize_batch(req),
            protocol::REGISTER_PATH => self.web_register(req),
            protocol::REGISTER_ROTATE_PATH => self.web_register_rotate(req),
            protocol::REGISTER_DEREGISTER_PATH => self.web_register_deregister(req),
            protocol::DELEGATE_V2_PATH => self.web_delegate_v2(req),
            // §VI REST policy interface.
            "/policies/export" => self.web_export(req),
            "/policies/import" => self.web_import(req),
            // Account portability (switching AMs, R1).
            "/account/export" => match req.param("owner") {
                Some(owner) => {
                    let owner = owner.to_owned();
                    if let Err(resp) = self.require_user(req, &owner, true) {
                        return resp;
                    }
                    match self.export_account(&owner) {
                        Ok(snapshot) => Response::ok().with_body(snapshot),
                        Err(e) => Response::bad_request(&e.to_string()),
                    }
                }
                None => Response::bad_request("owner required"),
            },
            // Importing replaces the snapshot owner's account, so only
            // that owner (or a custodian) may do it.
            "/account/import" => match serde_json::from_str::<Account>(&req.body) {
                Ok(account) => match self.require_user(req, account.user(), true) {
                    Ok(()) => Response::with_status(Status::Created)
                        .with_body(self.install_account(account)),
                    Err(resp) => resp,
                },
                Err(e) => Response::bad_request(&e.to_string()),
            },
            // R4's consolidated audit view.
            "/audit/view" => self.web_audit_view(req),
            // Principal-group management (the R3 single management tool).
            "/groups/add" => self.web_group_edit(req, true),
            "/groups/remove" => self.web_group_edit(req, false),
            // §V.D consent UI.
            "/consent/pending" => self.web_consent_pending(req),
            "/consent/grant" => self.web_consent_settle(req, true),
            "/consent/deny" => self.web_consent_settle(req, false),
            other => Response::not_found(other),
        }
    }
}

impl AuthorizationManager {
    /// Resolves the authenticated user behind a browser request (identity
    /// assertion in the `subject_token` parameter or `ident` cookie).
    /// Returns `None` when no IdP is configured — authentication is then
    /// out of scope, as in the paper's base protocol (§V.B).
    fn web_subject(&self, req: &Request) -> Option<Result<String, Response>> {
        let has_idp = self.state.read().idp.is_some();
        if !has_idp {
            return None;
        }
        let token = req
            .param("subject_token")
            .map(str::to_owned)
            .or_else(|| req.cookie("ident").map(str::to_owned));
        Some(match token.and_then(|t| self.verify_subject(&t)) {
            Some(user) => Ok(user),
            None => Err(Response::with_status(Status::Unauthorized)
                .with_body("log in to your authorization manager first")),
        })
    }

    /// Requires the browser to be authenticated as `expected` (or as one
    /// of their custodians, when `allow_custodian` is set). Passes
    /// everything when no IdP is configured.
    fn require_user(
        &self,
        req: &Request,
        expected: &str,
        allow_custodian: bool,
    ) -> Result<(), Response> {
        match self.web_subject(req) {
            None => Ok(()),
            Some(Err(resp)) => Err(resp),
            Some(Ok(actor)) => {
                if actor == expected {
                    return Ok(());
                }
                if allow_custodian {
                    let authorized = self
                        .pap_ref(expected, |account| account.may_administer(&actor))
                        .unwrap_or(false);
                    if authorized {
                        return Ok(());
                    }
                }
                Err(Response::forbidden(&format!(
                    "{actor} may not act for {expected}"
                )))
            }
        }
    }

    fn web_delegate(&self, req: &Request) -> Response {
        let (host, user) = match (req.param("host"), req.param("user")) {
            (Some(h), Some(u)) => (h.to_owned(), u.to_owned()),
            _ => return Response::bad_request("host and user required"),
        };
        // Fig. 3: the User "is redirected from the Host to AM to confirm"
        // — only the authenticated user may confirm their own delegation.
        if let Err(resp) = self.require_user(req, &user, false) {
            return resp;
        }
        match self.establish_delegation(&host, &user) {
            Ok((delegation, token)) => match req.param("return") {
                Some(ret) => match ret.parse::<Url>() {
                    Ok(url) => Response::redirect(
                        &url.with_query("host_token", &token)
                            .with_query("delegation_id", &delegation.id),
                    ),
                    Err(_) => Response::bad_request("invalid return url"),
                },
                None => Response::ok().with_body(token),
            },
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_compose(&self, req: &Request) -> Response {
        let owner = match req.param("owner") {
            Some(o) => o.to_owned(),
            None => return Response::bad_request("owner required"),
        };
        // Policy composition is for the owner or an appointed custodian.
        if let Err(resp) = self.require_user(req, &owner, true) {
            return resp;
        }
        let (host, resource_id) = match (req.param("host"), req.param("resource")) {
            (Some(h), Some(r)) => (h.to_owned(), r.to_owned()),
            _ => return Response::bad_request("host and resource required"),
        };
        let resource = ResourceRef::new(&host, &resource_id);

        let result = self.pap(&owner, |account| {
            if let Some(realm) = req.param("realm") {
                account.assign_realm(resource.clone(), realm);
                if let Some(general) = req.param("general") {
                    account
                        .link_general(realm, &ucam_policy::PolicyId::from(general))
                        .map_err(|e| e.to_string())?;
                }
            }
            if let Some(policy) = req.param("policy") {
                account
                    .link_specific(resource.clone(), &ucam_policy::PolicyId::from(policy))
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        });
        match result {
            Ok(Ok(())) => match req.param("return").map(str::parse::<Url>) {
                Some(Ok(url)) => Response::redirect(&url.with_query("linked", "1")),
                Some(Err(_)) => Response::bad_request("invalid return url"),
                None => Response::ok().with_body("policy linked"),
            },
            Ok(Err(msg)) => Response::bad_request(&msg),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_authorize(&self, req: &Request) -> Response {
        let (host, owner, resource) =
            match (req.param("host"), req.param("owner"), req.param("resource")) {
                (Some(h), Some(o), Some(r)) => (h.to_owned(), o.to_owned(), r.to_owned()),
                _ => return Response::bad_request("host, owner, resource required"),
            };
        let requester = match req.param("requester") {
            Some(r) => r.to_owned(),
            None => return Response::bad_request("requester required"),
        };
        let action = parse_action(req.param("action"));
        let mut authz = AuthorizeRequest::new(&host, &owner, &resource, action, &requester);
        if let Some(token) = req.param("subject_token") {
            match self.verify_subject(token) {
                Some(subject) => authz.subject = Some(subject),
                None => {
                    return Response::with_status(Status::Unauthorized)
                        .with_body("invalid identity assertion")
                }
            }
        }
        if let Some(claims) = req.param("claims") {
            authz.claim_tokens = claims.split(',').map(str::to_owned).collect();
        }

        match self.authorize(&authz) {
            AuthorizeOutcome::Token { token, .. } => {
                match req.param("return").map(str::parse::<Url>) {
                    Some(Ok(url)) => Response::redirect(&url.with_query("authz_token", &token)),
                    Some(Err(_)) => Response::bad_request("invalid return url"),
                    None => Response::ok().with_body(token),
                }
            }
            AuthorizeOutcome::Denied(reason) => Response::forbidden(&reason),
            AuthorizeOutcome::PendingConsent { consent_id } => {
                Response::with_status(Status::Accepted).with_body(consent_id)
            }
            AuthorizeOutcome::NeedsClaims(requirements) => {
                let kinds: Vec<&str> = requirements.iter().map(|r| r.kind.as_str()).collect();
                Response::with_status(Status::PaymentRequired)
                    .with_body(format!("claims required: {}", kinds.join(",")))
            }
        }
    }

    fn web_authorize_status(&self, req: &Request) -> Response {
        match req.param("id").and_then(|id| self.consent_state(id)) {
            Some(ConsentState::Pending) => Response::ok().with_body("pending"),
            Some(ConsentState::Granted) => Response::ok().with_body("granted"),
            Some(ConsentState::Denied) => Response::ok().with_body("denied"),
            Some(ConsentState::Expired) => Response::ok().with_body("expired"),
            None => Response::not_found("consent request"),
        }
    }

    fn web_decision(&self, req: &Request) -> Response {
        let query = match parse_decision_query(req) {
            Ok(query) => query,
            Err(resp) => return resp,
        };
        match self.decide(&query) {
            Ok(decision) => Response::ok().with_body(decision_wire(&decision).to_json()),
            Err(e) => Response::with_status(Status::Unauthorized).with_body(e.to_string()),
        }
    }

    /// Handles `/protection/v1/decisions`: the body is a JSON array of
    /// [`protocol::BatchItem`]s, all scoped to one `host_token`; the
    /// response is a JSON array of decision bodies in request order.
    /// Token failures are per-item (`"decision":"error"`), so one expired
    /// token cannot poison a batch — except a bad *host* token, which by
    /// construction fails every item.
    fn web_decisions_batch(&self, req: &Request) -> Response {
        let Some(host_token) = req.param("host_token") else {
            return Response::bad_request("host_token required");
        };
        let items = match protocol::parse_batch_request(&req.body) {
            Ok(items) => items,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        let queries: Vec<DecisionQuery> = items
            .iter()
            .map(|item| DecisionQuery {
                host_token: host_token.to_owned(),
                authz_token: item.token.clone(),
                resource_id: item.resource.clone(),
                action: parse_action(Some(item.action.as_str())),
                requester: item.requester.clone(),
            })
            .collect();
        let bodies: Vec<DecisionBody> = self
            .decide_batch(&queries)
            .iter()
            .map(|result| match result {
                Ok(decision) => decision_wire(decision),
                Err(e) => DecisionBody::error(&e.to_string()),
            })
            .collect();
        Response::ok().with_body(protocol::encode_batch_response(&bodies))
    }

    /// Handles `/protection/v2/decision`: the v1 decision query plus an
    /// optional `if_epoch` parameter carrying the epoch the Host's cached
    /// entry was stamped with. The decision is evaluated in full either
    /// way (audit records and use counts must not drift between v1 and
    /// v2); only the *serialization* is conditional — a permit whose
    /// epoch still matches collapses to the compact
    /// [`protocol::UnchangedBody`] instead of re-shipping the verdict.
    fn web_decision_v2(&self, req: &Request) -> Response {
        let if_epoch = match req.param("if_epoch") {
            None => None,
            // Fail closed: an unparseable epoch is a malformed request,
            // not an unconditional one.
            Some(raw) => match raw.parse::<u64>() {
                Ok(epoch) => Some(epoch),
                Err(_) => return Response::bad_request("if_epoch must be an unsigned integer"),
            },
        };
        let query = match parse_decision_query(req) {
            Ok(query) => query,
            Err(resp) => return resp,
        };
        match self.decide(&query) {
            Ok(Decision::Permit {
                cacheable_ms,
                policy_epoch,
            }) if if_epoch == Some(policy_epoch) => {
                Response::ok().with_body(protocol::UnchangedBody { cacheable_ms }.to_json())
            }
            Ok(decision) => Response::ok().with_body(decision_wire(&decision).to_json()),
            Err(e) => Response::with_status(Status::Unauthorized).with_body(e.to_string()),
        }
    }

    /// Handles `/protection/v2/authorize`: the requester-side sibling of
    /// the decision batch. The body is a JSON array of
    /// [`protocol::AuthorizeItem`]s sharing one `host`/`requester` (and
    /// optional `subject_token`/`claims`) from the params; the response
    /// is a JSON array of [`protocol::AuthorizeReply`]s in request order.
    /// Outcomes are per-item, so one denial cannot poison its neighbors.
    fn web_authorize_batch(&self, req: &Request) -> Response {
        let (host, requester) = match (req.param("host"), req.param("requester")) {
            (Some(h), Some(r)) => (h.to_owned(), r.to_owned()),
            _ => return Response::bad_request("host and requester required"),
        };
        let items = match protocol::parse_authorize_request(&req.body) {
            Ok(items) => items,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        let subject = match req.param("subject_token") {
            Some(token) => match self.verify_subject(token) {
                Some(subject) => Some(subject),
                None => {
                    return Response::with_status(Status::Unauthorized)
                        .with_body("invalid identity assertion")
                }
            },
            None => None,
        };
        let claim_tokens: Vec<String> = req
            .param("claims")
            .map(|c| c.split(',').map(str::to_owned).collect())
            .unwrap_or_default();
        let replies: Vec<protocol::AuthorizeReply> = items
            .iter()
            .map(|item| {
                let mut authz = AuthorizeRequest::new(
                    &host,
                    &item.owner,
                    &item.resource,
                    parse_action(Some(item.action.as_str())),
                    &requester,
                );
                authz.subject = subject.clone();
                authz.claim_tokens = claim_tokens.clone();
                match self.authorize(&authz) {
                    AuthorizeOutcome::Token { token, .. } => protocol::AuthorizeReply::Token(token),
                    AuthorizeOutcome::Denied(reason) => protocol::AuthorizeReply::Denied(reason),
                    AuthorizeOutcome::PendingConsent { consent_id } => {
                        protocol::AuthorizeReply::Pending(consent_id)
                    }
                    AuthorizeOutcome::NeedsClaims(requirements) => {
                        protocol::AuthorizeReply::NeedsClaims(
                            requirements.iter().map(|r| r.kind.clone()).collect(),
                        )
                    }
                }
            })
            .collect();
        Response::ok().with_body(protocol::encode_authorize_response(&replies))
    }

    /// Handles `POST /protection/v2/register`: dynamic Host/Requester
    /// onboarding in the spirit of OAuth dynamic client registration.
    /// The body is a [`protocol::RegisterBody`]; the reply carries the
    /// issued registrant id and the management secret. Registration is
    /// open (as in RFC 7591's open-registration mode) — it grants no
    /// authority by itself; every privileged operation behind it is
    /// separately gated (delegations still require the user, §16).
    fn web_register(&self, req: &Request) -> Response {
        let body = match protocol::RegisterBody::from_json(&req.body) {
            Ok(body) => body,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        let id = format!(
            "reg-{}",
            self.registrant_seq.fetch_add(1, Ordering::Relaxed) + 1
        );
        let secret = ucam_crypto::random_token(16);
        self.registrants.lock().insert(
            id.clone(),
            Registrant {
                kind: body.kind,
                authority: body.authority,
                secret: secret.clone(),
            },
        );
        Response::with_status(Status::Created).with_body(
            protocol::RegistrationReply {
                registrant_id: id,
                secret,
            }
            .to_json(),
        )
    }

    /// Authenticates a registrant-management call (`registrant_id` +
    /// `secret` params) against the registry. Secrets are compared as
    /// SHA-256 digests in constant time, so neither content nor length
    /// of a wrong guess leaks through timing.
    fn authenticate_registrant(&self, req: &Request) -> Result<String, Response> {
        let (id, secret) = match (req.param("registrant_id"), req.param("secret")) {
            (Some(i), Some(s)) => (i.to_owned(), s.to_owned()),
            _ => return Err(Response::bad_request("registrant_id and secret required")),
        };
        let authenticated = {
            let registrants = self.registrants.lock();
            registrants.get(&id).is_some_and(|r| {
                ucam_crypto::ct_eq(
                    &ucam_crypto::sha256(r.secret.as_bytes()),
                    &ucam_crypto::sha256(secret.as_bytes()),
                )
            })
        };
        if authenticated {
            Ok(id)
        } else {
            Err(Response::with_status(Status::Unauthorized)
                .with_body("unknown registrant or bad secret"))
        }
    }

    /// Handles `/protection/v2/register/rotate`: swaps the registrant's
    /// management secret for a fresh one (RFC 7592-style credential
    /// rotation). The old secret dies with this response.
    fn web_register_rotate(&self, req: &Request) -> Response {
        let id = match self.authenticate_registrant(req) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let secret = ucam_crypto::random_token(16);
        match self.registrants.lock().get_mut(&id) {
            Some(registrant) => {
                registrant.secret = secret.clone();
                Response::ok().with_body(
                    protocol::RegistrationReply {
                        registrant_id: id,
                        secret,
                    }
                    .to_json(),
                )
            }
            None => Response::with_status(Status::Unauthorized)
                .with_body("unknown registrant or bad secret"),
        }
    }

    /// Handles `/protection/v2/register/deregister`: removes the
    /// registrant. Existing delegations are untouched — deregistration
    /// revokes the ability to obtain *new* credentials, while revoking a
    /// live delegation stays the owner's call (`revoke_delegation`).
    fn web_register_deregister(&self, req: &Request) -> Response {
        let id = match self.authenticate_registrant(req) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        self.registrants.lock().remove(&id);
        Response::ok().with_body("deregistered")
    }

    /// Handles `/protection/v2/delegate`: a *registered* Host obtains a
    /// delegation for `user` over the wire, replacing the hand-wired
    /// bootstrap. The registrant credential authenticates the Host's
    /// identity; it does not bypass the user — when an IdP is configured
    /// the user (or a custodian) must still confirm via `subject_token`,
    /// exactly as on the v1 `/delegate` route. With `subscribe=1` the
    /// Host is also subscribed to the owner's epoch pushes in the same
    /// round trip.
    fn web_delegate_v2(&self, req: &Request) -> Response {
        let id = match self.authenticate_registrant(req) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        let user = match req.param("user") {
            Some(u) => u.to_owned(),
            None => return Response::bad_request("user required"),
        };
        let (kind, authority) = {
            let registrants = self.registrants.lock();
            match registrants.get(&id) {
                Some(r) => (r.kind.clone(), r.authority.clone()),
                None => {
                    return Response::with_status(Status::Unauthorized)
                        .with_body("unknown registrant or bad secret")
                }
            }
        };
        if kind != "host" {
            return Response::forbidden("only host registrants may receive delegations");
        }
        if let Err(resp) = self.require_user(req, &user, false) {
            return resp;
        }
        match self.establish_delegation(&authority, &user) {
            Ok((delegation, token)) => {
                if req.param("subscribe") == Some("1") {
                    self.subscribe_epoch_push(&authority, &user);
                }
                Response::with_status(Status::Created).with_body(
                    protocol::DelegateReply {
                        delegation_id: delegation.id,
                        host_token: token,
                    }
                    .to_json(),
                )
            }
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_export(&self, req: &Request) -> Response {
        let owner = match req.param("owner") {
            Some(o) => o.to_owned(),
            None => return Response::bad_request("owner required"),
        };
        if let Err(resp) = self.require_user(req, &owner, true) {
            return resp;
        }
        let format = match ExportFormat::from_name(req.param("format").unwrap_or("json")) {
            Some(f) => f,
            None => return Response::bad_request("format must be json or xml"),
        };
        match self.pap_ref(&owner, |account| account.export_policies(format)) {
            Ok(body) => Response::ok().with_body(body),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_import(&self, req: &Request) -> Response {
        let owner = match req.param("owner") {
            Some(o) => o.to_owned(),
            None => return Response::bad_request("owner required"),
        };
        if let Err(resp) = self.require_user(req, &owner, true) {
            return resp;
        }
        let format = match ExportFormat::from_name(req.param("format").unwrap_or("json")) {
            Some(f) => f,
            None => return Response::bad_request("format must be json or xml"),
        };
        let body = req.body.clone();
        match self.pap(&owner, move |account| {
            account.import_policies(format, &body)
        }) {
            Ok(Ok(count)) => Response::ok().with_body(format!("imported {count}")),
            Ok(Err(e)) => Response::bad_request(&e.to_string()),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    /// Renders the owner's consolidated audit view: every decision across
    /// every host, newest last, optionally filtered by requester.
    fn web_audit_view(&self, req: &Request) -> Response {
        let owner = match req.param("owner") {
            Some(o) => o.to_owned(),
            None => return Response::bad_request("owner required"),
        };
        if let Err(resp) = self.require_user(req, &owner, true) {
            return resp;
        }
        let filter = req.param("requester").map(str::to_owned);
        let body = self.audit(|log| {
            let mut lines = Vec::new();
            for entry in log.for_owner(&owner) {
                if let Some(requester) = &filter {
                    if entry.requester.as_deref() != Some(requester.as_str()) {
                        continue;
                    }
                }
                if let AuditEvent::Decision { outcome } = &entry.event {
                    lines.push(format!(
                        "t={}ms {} {} {} by {} -> {}",
                        entry.at_ms,
                        entry.host.as_deref().unwrap_or("?"),
                        entry
                            .resource
                            .as_ref()
                            .map(|r| r.id.as_str())
                            .unwrap_or("?"),
                        entry
                            .action
                            .as_ref()
                            .map(|a| a.to_string())
                            .unwrap_or_default(),
                        entry.requester.as_deref().unwrap_or("?"),
                        outcome,
                    ));
                }
            }
            lines.join("\n")
        });
        Response::ok().with_body(body)
    }

    fn web_group_edit(&self, req: &Request, add: bool) -> Response {
        let (owner, group, member) =
            match (req.param("owner"), req.param("group"), req.param("member")) {
                (Some(o), Some(g), Some(m)) => (o.to_owned(), g.to_owned(), m.to_owned()),
                _ => return Response::bad_request("owner, group, member required"),
            };
        if let Err(resp) = self.require_user(req, &owner, true) {
            return resp;
        }
        let result = self.pap(&owner, |account| {
            if add {
                account.add_group_member(&group, &member);
                true
            } else {
                account.remove_group_member(&group, &member)
            }
        });
        match result {
            Ok(true) => Response::ok().with_body("group updated"),
            Ok(false) => Response::not_found("group member"),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_consent_pending(&self, req: &Request) -> Response {
        let Some(owner) = req.param("owner") else {
            return Response::bad_request("owner required");
        };
        if let Err(resp) = self.require_user(req, owner, true) {
            return resp;
        }
        Response::ok().with_body(self.pending_consents(owner).join(","))
    }

    fn web_consent_settle(&self, req: &Request, grant: bool) -> Response {
        let id = match req.param("id") {
            Some(id) => id,
            None => return Response::bad_request("id required"),
        };
        // Only the owner of the consent request may settle it.
        let owner = self.consent.owner_of(id);
        if let Some(owner) = owner {
            if let Err(resp) = self.require_user(req, &owner, true) {
                return resp;
            }
        }
        let result = if grant {
            self.grant_consent(id)
        } else {
            self.deny_consent(id)
        };
        match result {
            Ok(()) => Response::ok().with_body("settled"),
            Err(e) => Response::bad_request(&e),
        }
    }
}

/// Parses the decision query both decision routes (v1 and v2) carry in
/// their params; a missing param is a 400.
fn parse_decision_query(req: &Request) -> Result<DecisionQuery, Response> {
    match (
        req.param("host_token"),
        req.param("token"),
        req.param("resource"),
        req.param("requester"),
    ) {
        (Some(ht), Some(t), Some(r), Some(rq)) => Ok(DecisionQuery {
            host_token: ht.to_owned(),
            authz_token: t.to_owned(),
            resource_id: r.to_owned(),
            action: parse_action(req.param("action")),
            requester: rq.to_owned(),
        }),
        _ => Err(Response::bad_request(
            "host_token, token, resource, requester required",
        )),
    }
}

fn parse_action(param: Option<&str>) -> Action {
    match param {
        None | Some("read") => Action::Read,
        Some("write") => Action::Write,
        Some("delete") => Action::Delete,
        Some("list") => Action::List,
        Some("share") => Action::Share,
        Some(custom) => Action::Custom(custom.to_owned()),
    }
}
