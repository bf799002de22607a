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

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ucam_policy::{
    AccessRequest, Action, Claim, ClaimRequirement, EngineDecision, EvalContext, GroupLookup,
    Outcome, PolicyEngine, PolicySet, ResourceRef,
};
use ucam_webenv::identity::IdentityVerifier;
use ucam_webenv::protocol::{
    BATCH_AUTHORIZE_PATH, BATCH_DECISIONS_PATH, DECISION_V2_PATH, DELEGATE_V2_PATH,
    REGISTER_DEREGISTER_PATH, REGISTER_PATH, REGISTER_ROTATE_PATH,
};
use ucam_webenv::{
    protocol, DecisionBody, Method, Request, Response, SimClock, Status, Transport, Url, WebApp,
};

use crate::audit::{AuditEntry, AuditEvent, AuditHub, AuditLog, AuditRecord};
use crate::claims::{ClaimIssuer, ClaimVerifier};
use crate::consent::{
    AccessTuple, Channel, ConsentHub, ConsentState, Notification, NotificationOutbox,
};
use crate::pap::{Account, ExportFormat};
use crate::push::{EpochPushStats, PushFanOut};
use crate::tokens::{AuthzGrant, HostGrant, TokenError, TokenService};
use crate::trust::{Delegation, TrustError, TrustRegistry};
use Caller::{Anyone, Host, Owner, RegisteredHost, Registrant, Requester, User};
use OwnerOf::{Consent, Param, Snapshot};

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

/// An [`AuthorizeRequest`] borrowed from wherever it arrived: the native
/// API's owned request, or a web route's params.
struct Asking<'a> {
    host: &'a str,
    owner: &'a str,
    resource_id: &'a str,
    action: &'a Action,
    requester: &'a str,
    subject: Option<&'a str>,
    claim_tokens: &'a [String],
}

/// The result of an authorization-token request. `G` is what an issued
/// token's outcome carries of its grant: the grant itself for
/// [`AuthorizationManager::authorize`]'s callers, nothing (`()`) for the
/// AM's own web routes, which only pass the token on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthorizeOutcome<G = AuthzGrant<'static>> {
    /// A token was issued.
    Token {
        /// The sealed authorization token.
        token: String,
        /// The grant embedded in it.
        grant: G,
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

/// A Host's access-control decision query (Fig. 6), borrowed from
/// wherever it arrived (request params, a batch body).
#[derive(Debug, Clone)]
pub struct DecisionQuery<'a> {
    /// The host access token sealing the delegation.
    pub host_token: &'a str,
    /// The authorization token the Requester presented.
    pub authz_token: &'a str,
    /// The resource actually being accessed.
    pub resource_id: &'a str,
    /// The action actually being performed.
    pub action: Action,
    /// The requester presenting the token.
    pub requester: &'a str,
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

/// Per-owner cap on the live grants the issued-grants registry holds for
/// the sieve compiler. Oldest entries fall off first; a dropped entry only
/// means the matching token falls back to the tier-2 protocol path, never
/// a wrong grant.
const ISSUED_GRANTS_CAP: usize = 4096;

thread_local! {
    /// The payload buffers [`AuthorizationManager::decide`] opens its
    /// host and authorization tokens into, reused by every decision on
    /// this thread.
    static OPENED_PAYLOADS: RefCell<(Vec<u8>, Vec<u8>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

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

/// One shard of the per-requester evaluation context.
#[derive(Default)]
struct CtxShard {
    /// Granted uses so far, per access tuple. A tuple's key is the one
    /// its first permit's decision built.
    use_counts: HashMap<AccessTuple, u32>,
    /// Claims verified at token-issuance time, reused at decision time,
    /// keyed by requester, then resource: a lookup borrows both.
    satisfied_claims: HashMap<String, HashMap<ResourceRef, Vec<Claim>>>,
}

/// One issued token and its grant, shared by the registry and the
/// compiles that replay it.
type Issued = Arc<(String, AuthzGrant<'static>)>;

/// One shard of the issued-grants registry: owner → live `(token, grant)`
/// handles, newest last — the raw material the sieve compiler replays.
/// Every issued token is recorded until it expires; at most
/// [`ISSUED_GRANTS_CAP`] per owner.
type IssuedShard = HashMap<String, VecDeque<Issued>>;

/// Drops the expired grants off the front of an owner's registry. Every
/// token has the same lifetime, so the list is in expiry order.
fn drop_expired(list: &mut VecDeque<Issued>, now: u64) {
    while list.front().is_some_and(|e| e.1.expires_at_ms <= now) {
        list.pop_front();
    }
}

/// What the AM last successfully shipped to one (host, owner) pair with
/// a sieve body: the epoch it was compiled under and its fingerprint set.
/// The delta encoder diffs the next compile against this; the map is
/// updated only on confirmed delivery, so it can never run ahead of what
/// the Host actually installed.
struct ShippedSieve {
    epoch: u64,
    entries: HashMap<protocol::SieveFingerprint, u64>,
}

/// What phase A gathers for one access tuple (see
/// [`AuthorizationManager::gather`]): the tuple itself, the owner's
/// consent, and the requester's satisfied claims and prior uses.
struct Gathered {
    tuple: AccessTuple,
    consent_granted: bool,
    claims: Vec<Claim>,
    prior_uses: u32,
}

impl Gathered {
    /// The engine's context for the tuple at `now`, with the owner's
    /// group memberships.
    fn context<'a>(&'a self, groups: &'a dyn GroupLookup, now: u64) -> EvalContext<'a> {
        EvalContext {
            consent_granted: self.consent_granted,
            ..EvalContext::new(&self.tuple, now)
                .with_groups(groups)
                .with_claims(&self.claims)
                .with_prior_uses(self.prior_uses)
        }
    }
}

/// What phase B returns for one tuple (see
/// [`AuthorizationManager::evaluate_one`]): the engine's decision, and until
/// when the consulted policies' conditions cannot change it on their own
/// (the nearest [`ucam_policy::Policy::stable_until`]).
struct Evaluated {
    decision: EngineDecision,
    stable_until: u64,
}

/// A dynamically registered Host or Requester (`/protection/v2/register`,
/// in the spirit of OAuth dynamic client registration). The secret is
/// the bearer credential for the rotate/deregister management endpoints
/// and, for `kind == "host"`, for obtaining delegations over the wire.
/// Only its SHA-256 digest is kept.
struct Registration {
    kind: String,
    authority: String,
    secret_digest: [u8; 32],
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
    /// Last sieve state confirmed delivered per (host, owner) — the base
    /// the delta encoder diffs against (DESIGN.md §13).
    shipped: Mutex<HashMap<(String, String), ShippedSieve>>,
    /// Dynamically registered Hosts/Requesters, keyed by registrant id.
    /// Management traffic only — never touched by `authorize`/`decide`.
    registrants: Mutex<HashMap<String, Registration>>,
    /// Monotonic source for `reg-N` registrant ids.
    registrant_seq: AtomicU64,
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
            shipped: Mutex::new(HashMap::default()),
            registrants: Mutex::new(HashMap::default()),
            registrant_seq: AtomicU64::new(0),
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

    /// Subscribes `host` to `owner`'s policy-epoch pushes on its
    /// `/protection/v1/epoch` route; each push carries the owner's
    /// signed capability sieve (DESIGN.md §12). An epoch advance fans out
    /// to exactly the Hosts subscribed to that owner, so a 512-Host
    /// deployment does per-owner work, not per-fleet work, on every
    /// policy edit. Delivery happens when [`Self::pump_epoch_pushes`]
    /// runs: epochs propagate as real network messages, not as an
    /// instantaneous side effect (see [`crate::push`]).
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
    /// Each delivery carries either a full [`protocol::SieveBody`] (first
    /// ship to a pair, or after a resync) or a [`protocol::SieveDeltaBody`]
    /// diffed against the last *confirmed-delivered* sieve; a pair with no
    /// retained host token goes out plain. A Host that cannot apply the
    /// delta (its installed base doesn't match) answers
    /// [`protocol::SIEVE_RESYNC`]; the AM then forgets the pair's shipped
    /// state and requeues immediately, so the next pump ships a full body
    /// — the fallback that makes deltas safe against restarts and missed
    /// generations.
    pub fn pump_epoch_pushes_bounded(&self, net: &dyn Transport, limit: usize) -> usize {
        let due = self.pushes.take_due(self.clock.now_ms(), limit);
        if due.is_empty() {
            return 0;
        }

        // Stage 1 — compile every due push into its wire request upfront.
        // The queue coalesces per (host, owner), so no two requests in one
        // drain touch the same shipped-sieve entry and the compiles are
        // independent of each other's outcomes.
        let mut reqs = Vec::with_capacity(due.len());
        let mut plans = Vec::with_capacity(due.len());
        for push in due {
            let mut req = Request::to_url(
                Method::Post,
                Url::new(&push.host, protocol::EPOCH_PUSH_PATH),
            )
            .with_param("owner", &push.owner)
            .with_param("epoch", &push.epoch.to_string());
            let pair = (push.host.clone(), push.owner.clone());
            let mut shipped_update: Option<ShippedSieve> = None;
            if let Some((entries, epoch, host_token)) = self.compile_sieve(&push.host, &push.owner)
            {
                let next: HashMap<protocol::SieveFingerprint, u64> = entries
                    .iter()
                    .map(|e| (e.fingerprint, e.expires_at_ms))
                    .collect();
                // Delta against the last confirmed ship, diffed under its
                // lock: an entry is `added` when its fingerprint is new
                // *or* its expiry moved (reissued token), `removed` when it
                // vanished entirely.
                let body = match self.shipped.lock().get(&pair) {
                    Some(prev) => {
                        let added: Vec<protocol::SieveEntry> = entries
                            .iter()
                            .filter(|e| prev.entries.get(&e.fingerprint) != Some(&e.expires_at_ms))
                            .cloned()
                            .collect();
                        let removed: Vec<protocol::SieveFingerprint> = (prev.entries.keys())
                            .filter(|fp| !next.contains_key(*fp))
                            .copied()
                            .collect();
                        protocol::SieveDeltaBody::build(
                            &push.owner,
                            epoch,
                            prev.epoch,
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
            }
            reqs.push(req);
            plans.push((push, pair, shipped_update));
        }

        // Stage 2 — one pipelined flush: over HTTP a drain of N pushes to
        // one Host costs one buffered write and one read loop instead of
        // N serialized round trips; `SimNet` runs the same requests
        // sequentially with identical accounting.
        let resps = net.dispatch_pipelined(&self.authority, reqs);

        // Stage 3 — settle each delivery in input order.
        let mut delivered = 0;
        for ((push, pair, shipped_update), resp) in plans.into_iter().zip(resps) {
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
                if let Some(update) = shipped_update {
                    self.pushes.record_sieved();
                    self.shipped.lock().insert(pair, update);
                }
                delivered += 1;
            }
        }
        delivered
    }

    /// Does nothing. Every epoch push carries the owner's compiled
    /// capability sieve (DESIGN.md §12), and every issued token is
    /// recorded for the compiler, so there is no switch left to turn.
    /// The method stays only so that existing callers still build.
    #[deprecated(note = "every epoch push carries the owner's sieve; there is nothing to enable")]
    pub fn set_sieve_push(&self, _enabled: bool) {}

    /// Does nothing. Decision-level invalidation push is gone: the
    /// capability sieve riding every epoch push is the one channel
    /// that keeps a Host fresh after an edit, and whatever it cannot
    /// cover falls back to the owner-wide epoch purge (DESIGN.md §16).
    /// The method stays only so that existing callers still build.
    #[deprecated(note = "invalidation push was removed; the pushed sieve keeps Hosts fresh")]
    pub fn set_invalidation_push(&self, _enabled: bool) {}

    /// Schedules an epoch push for every registered owner at their
    /// current epoch, which re-compiles and re-delivers every owner's
    /// sieve to the owner's subscribed Hosts — the warm-up lever for
    /// Hosts that just (re)connected, without waiting for a policy edit.
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
        // Issued shard: the owner's live grants for this host, as handles.
        let mut grants: Vec<Issued> = Vec::new();
        if let Some(issued) = self.issued_for(owner).lock().get_mut(owner) {
            drop_expired(issued, now);
            let live = |e: &&Issued| trusted && e.1.host == host && e.1.expires_at_ms > now;
            grants.extend(issued.iter().filter(live).cloned());
        }
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
            let policies = shard.get(owner)?.account.policies();
            let mut map: HashMap<String, Vec<String>> = HashMap::new();
            for realm in grants.iter().filter_map(|e| e.1.realm.as_deref()) {
                if !map.contains_key(realm) {
                    let members = policies.realm_members(realm).into_iter();
                    let here = members.filter(|rr| rr.host == host).map(|rr| rr.id.clone());
                    map.insert(realm.to_owned(), here.collect());
                }
            }
            map
        };

        // Candidates: every (token, resource) pair, each judged for every
        // built-in action. The web layer maps unknown action strings to
        // `Action::Custom`, which the compiler cannot enumerate — custom
        // actions stay tier-2.
        let mut candidates = Vec::new();
        for entry in &grants {
            let grant = &entry.1;
            let realm = grant.realm.as_deref().and_then(|r| realm_resources.get(r));
            let mut resources = vec![grant.resource_id.as_ref()];
            for id in realm.into_iter().flatten() {
                if !resources.contains(&id.as_str()) {
                    resources.push(id);
                }
            }
            candidates.extend(resources.into_iter().map(|id| (entry, id)));
        }

        let (until, epoch) = self.cacheable_until(host, owner, now, &candidates)?;
        let entries = (candidates.iter().zip(until))
            .flat_map(|(&(entry, resource_id), until)| {
                let (token, grant) = &**entry;
                (Action::BUILTIN.iter().zip(until)).filter_map(move |(action, until)| {
                    Some(protocol::SieveEntry {
                        fingerprint: protocol::sieve_fingerprint(
                            token,
                            resource_id,
                            action.as_str(),
                            &grant.requester,
                        ),
                        resource: resource_id.to_owned(),
                        expires_at_ms: until?,
                    })
                })
            })
            .collect();
        Some((entries, epoch, host_token))
    }

    /// The sieve compiler's central read: the delegation's retained host
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

    /// The question the sieve compiler asks: for which built-in actions
    /// would [`Self::decide`] still answer each of `candidates` with a
    /// cacheable permit, and until when? Phase A ([`Self::gather`]) builds
    /// one tuple per candidate and looks its claims up once; each action,
    /// swapped into the tuple in place, adds only its consent and prior
    /// uses. Phase B ([`Self::evaluate`]) resolves each candidate's
    /// policies once and judges every action against them: `decide`'s own
    /// evaluation without its audit record and use-count bump. Returns
    /// each candidate's cache expiry per action of [`Action::BUILTIN`]
    /// (`None`: not a cacheable permit) and the epoch read with the
    /// policies; `None` when the owner is unknown.
    fn cacheable_until(
        &self,
        host: &str,
        owner: &str,
        now: u64,
        candidates: &[(&Issued, &str)],
    ) -> Option<(Vec<[Option<u64>; 5]>, u64)> {
        let builtin = &Action::BUILTIN;
        let mut gathered: Vec<_> = (candidates.iter())
            .map(|&(entry, resource_id)| {
                let (requester, subject) = (&entry.1.requester, entry.1.subject.as_deref());
                let tuple = access_tuple(requester, subject, host, resource_id, &builtin[0]);
                let mut g = self.gather(owner, tuple);
                let mut seen = [(g.consent_granted, g.prior_uses); 5];
                for (slot, action) in seen.iter_mut().zip(builtin).skip(1) {
                    g.tuple.action = action.clone();
                    *slot = self.consent_and_uses(owner, &g.tuple);
                }
                (g, seen)
            })
            .collect();
        let (judged, cache_ttl_ms, epoch) = self.evaluate(owner, |policies, groups| {
            let judge = |(g, seen): &mut (Gathered, [(bool, u32); 5])| {
                let resolution = PolicyEngine::resolve(policies, &g.tuple.resource);
                let permits: [bool; 5] = std::array::from_fn(|i| {
                    g.tuple.action = builtin[i].clone();
                    (g.consent_granted, g.prior_uses) = seen[i];
                    resolution.outcome(&g.context(groups, now)).is_permit()
                });
                (permits, resolution.stable_until(now))
            };
            gathered.iter_mut().map(judge).collect::<Vec<_>>()
        })?;
        let until = (candidates.iter().zip(judged))
            .map(|(&(entry, _), (permits, stable_until))| {
                let cacheable_ms = cacheable_ms(cache_ttl_ms, &entry.1, now, stable_until);
                permits.map(|permit| (permit && cacheable_ms > 0).then_some(now + cacheable_ms))
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
    pub fn check_host_token(&self, token: &str) -> Result<HostGrant<'static>, AmError> {
        let mut payload = Vec::new();
        let grant = self.tokens.validate_host_token(token, &mut payload)?;
        let state = self.state.read();
        state
            .trust
            .check_id(&grant.host, &grant.user, &grant.delegation_id)?;
        Ok(grant.into_owned())
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
        // An account is keyed by its own user, who may always administer it.
        self.pap_as(user, user, f)
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
    /// written. The tuple comes back inside the result, so the engine
    /// evaluates it, `decide` bumps exactly the use count it read and
    /// the audit record borrows it. Every lookup borrows it.
    fn gather(&self, owner: &str, tuple: AccessTuple) -> Gathered {
        let consent_granted = self.consent.is_granted(owner, &tuple);
        let requester = tuple.requester_app.as_deref().unwrap_or_default();
        let (claims, prior_uses) = {
            let ctx = self.ctx_for(requester).read();
            let claims = ctx
                .satisfied_claims
                .get(requester)
                .and_then(|by_resource| by_resource.get(&tuple.resource))
                .cloned()
                .unwrap_or_default();
            (claims, ctx.use_counts.get(&tuple).copied().unwrap_or(0))
        };
        Gathered {
            tuple,
            consent_granted,
            claims,
            prior_uses,
        }
    }

    /// Phase A for another action on a gathered tuple (the sieve
    /// compiler's): the owner's consent and the requester's prior uses.
    fn consent_and_uses(&self, owner: &str, tuple: &AccessTuple) -> (bool, u32) {
        let requester = tuple.requester_app.as_deref().unwrap_or_default();
        let ctx = self.ctx_for(requester).read();
        let uses = ctx.use_counts.get(tuple).copied().unwrap_or(0);
        drop(ctx);
        (self.consent.is_granted(owner, tuple), uses)
    }

    /// Phase B: runs `run` on `owner`'s policies and group memberships
    /// under one owner-shard read, so it runs concurrently with
    /// evaluations for owners on other shards and with central
    /// bookkeeping. Returns what `run` returns, with the owner's cache TTL
    /// and the policy epoch read in that same scope; `None` when the owner
    /// is unknown.
    fn evaluate<R>(
        &self,
        owner: &str,
        run: impl FnOnce(&PolicySet, &dyn GroupLookup) -> R,
    ) -> Option<(R, u64, u64)> {
        let shard = self.shard_for(owner).read();
        let slot = shard.get(owner)?;
        let account = &slot.account;
        let judged = run(account.policies(), &account.group_oracle());
        Some((judged, account.cache_ttl_ms(), slot.epoch))
    }

    /// [`Self::evaluate`] for a single tuple: the engine's decision, and
    /// the nearest `stable_until` of the policies it consulted.
    fn evaluate_one(&self, owner: &str, now: u64, g: &Gathered) -> Option<(Evaluated, u64, u64)> {
        self.evaluate(owner, |policies, groups| {
            let resolution = PolicyEngine::resolve(policies, &g.tuple.resource);
            Evaluated {
                decision: resolution.decide(&g.context(groups, now)),
                stable_until: resolution.stable_until(now),
            }
        })
    }

    // -- token issuance (Fig. 5) ----------------------------------------------

    /// Evaluates an access request and, if policy allows, issues an
    /// authorization token bound to it (§V.B.3).
    pub fn authorize(&self, request: &AuthorizeRequest) -> AuthorizeOutcome {
        let asking = Asking {
            host: &request.host,
            owner: &request.owner,
            resource_id: &request.resource_id,
            action: &request.action,
            requester: &request.requester,
            subject: request.subject.as_deref(),
            claim_tokens: &request.claim_tokens,
        };
        self.authorize_as(&asking, |grant| grant.clone().into_owned())
    }

    /// [`Self::authorize`] on a borrowed request. An issued token's
    /// outcome carries what `copy` makes of its grant; the grant's one
    /// owned copy goes to the issued-grants registry.
    fn authorize_as<G>(
        &self,
        request: &Asking<'_>,
        copy: impl FnOnce(&AuthzGrant<'_>) -> G,
    ) -> AuthorizeOutcome<G> {
        let now = self.clock.now_ms();

        // Phase A — central read (trust, claim verification), then
        // `gather`. Freshly verified claims go first, then those the
        // requester satisfied earlier.
        let verified = {
            let state = self.state.read();
            if state.trust.check(request.host, request.owner).is_err() {
                return AuthorizeOutcome::Denied(format!(
                    "host {} has not delegated access control for user {}",
                    request.host, request.owner
                ));
            }
            state.claim_verifier.verify_all(request.claim_tokens)
        };
        let tuple = access_tuple(
            request.requester,
            request.subject,
            request.host,
            request.resource_id,
            request.action,
        );
        let mut gathered = self.gather(request.owner, tuple);
        let previous = std::mem::replace(&mut gathered.claims, verified);
        gathered.claims.extend(previous);

        // Phase B — owner-shard read.
        let Some((evaluated, ..)) = self.evaluate_one(request.owner, now, &gathered) else {
            return AuthorizeOutcome::Denied(format!("unknown owner {}", request.owner));
        };
        let mut decision = evaluated.decision;
        // The audit record names no realm: the grant takes the engine's copy.
        let realm = decision.realm.take();
        let (tuple, claims) = (&gathered.tuple, gathered.claims);
        let resource = &tuple.resource;
        let token_record = |issued| {
            let event = AuditEvent::TokenRequested { issued };
            tuple_record(now, request.owner, tuple, &decision, event)
        };

        // Phase C — act on the outcome. All bookkeeping goes to sharded
        // or striped structures; the central lock is never taken.
        match decision.outcome {
            Outcome::Permit => {
                let mut grant = self.tokens.grant(
                    None,
                    request.resource_id,
                    request.host,
                    request.requester,
                    request.subject,
                    request.owner,
                );
                grant.realm = realm.map(Cow::Owned);
                let token = self.tokens.mint_authz_token(&grant);
                let (grant, owned) = (copy(&grant), grant.into_owned());
                if !claims.is_empty() {
                    self.ctx_for(request.requester)
                        .write()
                        .satisfied_claims
                        .entry(request.requester.to_owned())
                        .or_default()
                        .insert(resource.clone(), claims);
                }
                // The sieve compiler replays this grant into the owner's
                // next epoch push; the shard lock is held for this only.
                {
                    let mut shard = self.issued_for(request.owner).lock();
                    let issued = match shard.get_mut(request.owner) {
                        Some(issued) => issued,
                        // The owner's first token: only now is their name copied.
                        None => shard.entry(request.owner.to_owned()).or_default(),
                    };
                    drop_expired(issued, now);
                    if issued.len() >= ISSUED_GRANTS_CAP {
                        issued.pop_front();
                    }
                    issued.push_back(Arc::new((token.clone(), owned)));
                }
                self.audit.append(token_record(true));
                AuthorizeOutcome::Token { token, grant }
            }
            Outcome::RequiresConsent => {
                let consent_id = self.consent.open(
                    request.owner,
                    request.requester,
                    request.subject,
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
                    to_user: request.owner.to_owned(),
                    channel: Channel::Email,
                    message: format!(
                        "{} requests {} on {} — approve at https://{}/consent",
                        request.requester, request.action, resource, self.authority
                    ),
                    at_ms: now,
                });
                self.audit.record(AuditEntry::new(
                    now,
                    request.owner,
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
                self.audit.append(token_record(false));
                AuthorizeOutcome::Denied(reason.to_string())
            }
            Outcome::NotApplicable => {
                self.audit.append(token_record(false));
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
    pub fn decide(&self, query: &DecisionQuery<'_>) -> Result<Decision, AmError> {
        OPENED_PAYLOADS.with_borrow_mut(|(host_payload, authz_payload)| {
            self.decide_opening_into(query, host_payload, authz_payload)
        })
    }

    /// [`Self::decide`], opening the two tokens into the given payload
    /// buffers; both grants borrow from them.
    fn decide_opening_into(
        &self,
        query: &DecisionQuery<'_>,
        host_payload: &mut Vec<u8>,
        authz_payload: &mut Vec<u8>,
    ) -> Result<Decision, AmError> {
        let now = self.clock.now_ms();
        let host_grant = self
            .tokens
            .validate_host_token(query.host_token, host_payload)?;
        {
            let state = self.state.read();
            state.trust.check_id(
                &host_grant.host,
                &host_grant.user,
                &host_grant.delegation_id,
            )?;
        }
        let grant = self.tokens.validate_authz_token(
            query.authz_token,
            authz_payload,
            &host_grant.host,
            query.resource_id,
            query.requester,
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
        // The tuple is built once; every later step borrows it.
        let tuple = access_tuple(
            query.requester,
            grant.subject.as_deref(),
            &host_grant.host,
            query.resource_id,
            &query.action,
        );
        let gathered = self.gather(&grant.owner, tuple);
        let Some((evaluated, cache_ttl_ms, policy_epoch)) =
            self.evaluate_one(&grant.owner, now, &gathered)
        else {
            return Err(AmError::UnknownUser(grant.owner.into_owned()));
        };
        let engine_decision = evaluated.decision;

        // Phase C — a striped audit record plus a context-shard use-count
        // bump. The writes land on structures partitioned by record order
        // and requester, so eight decision threads no longer convoy on
        // one central writer lock (the old 8-thread p99 cliff). The
        // record packs the borrowed tuple into a reused ring slot; then a
        // first permit moves the tuple into the use counts, and a repeat
        // bumps its count in place.
        let event = AuditEvent::Decision {
            outcome: engine_decision.outcome.clone(),
        };
        let tuple = gathered.tuple;
        self.audit.append(tuple_record(
            now,
            &grant.owner,
            &tuple,
            &engine_decision,
            event,
        ));
        if engine_decision.is_permit() {
            let mut ctx = self.ctx_for(query.requester).write();
            *ctx.use_counts.entry(tuple).or_insert(0) += 1;
        }

        match engine_decision.outcome {
            Outcome::Permit => {
                let cacheable_ms = cacheable_ms(cache_ttl_ms, &grant, now, evaluated.stable_until);
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
    pub fn decide_batch(&self, queries: &[DecisionQuery<'_>]) -> Vec<Result<Decision, AmError>> {
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
/// token it answers for, nor the instant the consulted policies'
/// conditions may change it (`stable_until`, which is `now` under a
/// use-count condition: every use must reach the AM to be counted).
fn cacheable_ms(cache_ttl_ms: u64, grant: &AuthzGrant<'_>, now: u64, stable_until: u64) -> u64 {
    cache_ttl_ms
        .min(grant.expires_at_ms.saturating_sub(now))
        .min(stable_until.saturating_sub(now))
}

/// The access tuple the PDP evaluates `requester`'s `action` on
/// `host`/`resource_id` as: the one owned copy a decision or token
/// request builds.
fn access_tuple(
    requester: &str,
    subject: Option<&str>,
    host: &str,
    resource_id: &str,
    action: &Action,
) -> AccessTuple {
    AccessRequest {
        subject: subject.map(str::to_owned),
        requester_app: Some(requester.to_owned()),
        action: action.clone(),
        resource: ResourceRef::new(host, resource_id),
    }
}

/// The audit record of one evaluated `tuple` of `owner`'s: on its
/// resource and host, by its requester and subject, for its action, with
/// the general and the specific policy that contributed to `decision`.
fn tuple_record<'a>(
    at_ms: u64,
    owner: &'a str,
    tuple: &'a AccessTuple,
    decision: &'a EngineDecision,
    event: AuditEvent,
) -> AuditRecord<'a> {
    AuditRecord {
        at_ms,
        owner,
        host: Some(&tuple.resource.host),
        resource: Some(&tuple.resource),
        requester: tuple.requester_app.as_deref(),
        subject: tuple.subject.as_deref(),
        action: Some(&tuple.action),
        policies: [
            decision.general_policy.as_slice(),
            decision.specific_policy.as_slice(),
        ],
        event,
    }
}

// ---------------------------------------------------------------------------
// Web interface
// ---------------------------------------------------------------------------

/// Who may call an AM route (DESIGN.md §17). The dispatcher checks a
/// row's class before the row's handler runs and hands the handler the
/// principal it found, so no handler authenticates anyone itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Caller {
    /// Anyone; nothing is checked.
    Anyone,
    /// Anyone, but a `subject_token` that is sent must verify (401
    /// `invalid identity assertion`). The handler gets the subject.
    Requester,
    /// A delegated Host. The dispatcher checks nothing: `decide` opens the
    /// host token together with each authorization token, so each query
    /// opens it once.
    Host,
    /// The user the param names, in their own session; a custodian does
    /// not count.
    User(&'static str),
    /// The owner [`OwnerOf`] locates, or one of the owner's custodians.
    Owner(OwnerOf),
    /// A registrant, by its `registrant_id` and `secret`. The handler gets
    /// the registrant id.
    Registrant,
    /// A host-kind registrant, confirmed by the session of the user the
    /// param names. The handler gets the registrant's authority.
    RegisteredHost(&'static str),
}

/// Where a [`Caller::Owner`] row finds the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OwnerOf {
    /// The user the param names.
    Param(&'static str),
    /// The owner of the consent request `id` names. An unknown id is left
    /// to the handler, which answers 400.
    Consent,
    /// The user of the account snapshot in the body; the body is parsed
    /// once and handed to the handler.
    Snapshot,
}

/// What a row's [`Caller`] class found.
#[derive(Default)]
struct Principal {
    /// The user the call acts for: the named user (`User`,
    /// `RegisteredHost`), the owner (`Owner`, never the custodian), or the
    /// verified subject (`Requester`, when one was sent).
    user: Option<String>,
    /// The registrant id (`Registrant`) or the registered Host's authority
    /// (`RegisteredHost`).
    registrant: String,
    /// The snapshot an `Owner(Snapshot)` row parsed.
    account: Option<Box<Account>>,
}

/// One handler call: the request, the transport, and the principal.
struct Call<'a> {
    req: &'a Request,
    net: &'a dyn Transport,
    who: Principal,
}

impl Call<'_> {
    /// The user a `User`, `Owner` or `RegisteredHost` row acts for.
    fn user(&self) -> &str {
        self.who.user.as_deref().unwrap_or_default()
    }
}

/// One AM route: its path, who may call it, and its handler.
type Route = (
    &'static str,
    Caller,
    fn(&AuthorizationManager, Call<'_>) -> Response,
);

impl WebApp for AuthorizationManager {
    fn authority(&self) -> &str {
        &self.authority
    }

    /// Serves `AuthorizationManager::ROUTES`: the row whose path matches,
    /// its caller class checked, then its handler.
    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        let path = req.url.path();
        let Some(&(_, caller, handler)) = Self::ROUTES.iter().find(|row| row.0 == path) else {
            return Response::not_found(path);
        };
        match self.authenticate(caller, req) {
            Ok(who) => handler(self, Call { req, net, who }),
            Err(resp) => resp,
        }
    }
}

impl AuthorizationManager {
    /// The AM's route table (DESIGN.md §17; docs/PROTOCOL.md lists it as
    /// "Who may call each route"). Rows match on the path alone; the
    /// decision and authorize rows come first.
    const ROUTES: &'static [Route] = &[
        // Fig. 6: a Host queries for a decision, or for up to
        // `protocol::MAX_BATCH` of them in one round trip.
        (DECISION_V2_PATH, Host, Self::web_decision),
        (BATCH_DECISIONS_PATH, Host, Self::web_decisions_batch),
        // Fig. 5: a Requester asks for an authorization token.
        ("/authorize", Requester, Self::web_authorize),
        (BATCH_AUTHORIZE_PATH, Requester, Self::web_authorize_batch),
        ("/authorize/status", Anyone, Self::web_authorize_status),
        // Fig. 3: the User confirms the delegation.
        ("/delegate", User("user"), Self::web_delegate),
        // Fig. 4: the User links policies to resources.
        ("/compose", Owner(Param("owner")), Self::web_compose),
        // Protocol v2 (DESIGN.md §16): dynamic registration.
        (REGISTER_PATH, Anyone, Self::web_register),
        (REGISTER_ROTATE_PATH, Registrant, Self::web_register_rotate),
        (REGISTER_DEREGISTER_PATH, Registrant, Self::web_deregister),
        (DELEGATE_V2_PATH, RegisteredHost("user"), Self::web_onboard),
        // §VI REST policy interface.
        ("/policies/export", Owner(Param("owner")), Self::web_export),
        ("/policies/import", Owner(Param("owner")), Self::web_import),
        // Account portability (switching AMs, R1).
        ("/account/export", Owner(Param("owner")), Self::web_snapshot),
        ("/account/import", Owner(Snapshot), Self::web_install),
        // R4's consolidated audit view.
        ("/audit/view", Owner(Param("owner")), Self::web_audit_view),
        // Principal-group management (the R3 single management tool).
        ("/groups/add", Owner(Param("owner")), Self::web_groups),
        ("/groups/remove", Owner(Param("owner")), Self::web_groups),
        // §V.D consent UI.
        ("/consent/pending", Owner(Param("owner")), Self::web_pending),
        ("/consent/grant", Owner(Consent), Self::web_consent_settle),
        ("/consent/deny", Owner(Consent), Self::web_consent_settle),
    ];

    /// Checks `caller` for `req` and returns the principal it found, or
    /// the response that refuses the call. A locator param that is
    /// missing is a 400 naming it.
    fn authenticate(&self, caller: Caller, req: &Request) -> Result<Principal, Response> {
        let named = |param: &str| {
            req.param(param)
                .ok_or_else(|| Response::bad_request(&format!("{param} required")))
        };
        let mut who = Principal::default();
        match caller {
            Anyone | Host => {}
            Requester => {
                if let Some(token) = req.param("subject_token") {
                    let subject = self.verify_subject(token);
                    who.user =
                        Some(subject.ok_or_else(|| unauthorized("invalid identity assertion"))?);
                }
            }
            User(param) => who.user = Some(self.require_user(req, named(param)?, false)?),
            Owner(Param(param)) => who.user = Some(self.require_user(req, named(param)?, true)?),
            Owner(Consent) => {
                if let Some(owner) = self.consent.owner_of(named("id")?) {
                    who.user = Some(self.require_user(req, &owner, true)?);
                }
            }
            Owner(Snapshot) => {
                let account = serde_json::from_str::<Account>(&req.body)
                    .map_err(|e| Response::bad_request(&e.to_string()))?;
                who.user = Some(self.require_user(req, account.user(), true)?);
                who.account = Some(Box::new(account));
            }
            Registrant => who.registrant = self.authenticate_registrant(req)?.0,
            RegisteredHost(param) => {
                let (_, kind, authority) = self.authenticate_registrant(req)?;
                let user = named(param)?;
                if kind != "host" {
                    let why = "only host registrants may receive delegations";
                    return Err(Response::forbidden(why));
                }
                who.user = Some(self.require_user(req, user, false)?);
                who.registrant = authority;
            }
        }
        Ok(who)
    }

    /// Requires the browser (identity assertion in the `subject_token`
    /// param or the `ident` cookie) to be authenticated as `expected`, or
    /// as one of their custodians when `allow_custodian` is set, and
    /// returns `expected`. Passes everyone when no IdP is configured:
    /// authentication is then out of scope, as in the paper's base
    /// protocol (§V.B).
    fn require_user(
        &self,
        req: &Request,
        expected: &str,
        allow_custodian: bool,
    ) -> Result<String, Response> {
        let actor = {
            let state = self.state.read();
            let Some(idp) = state.idp.as_ref() else {
                return Ok(expected.to_owned());
            };
            let token = req.param("subject_token").or_else(|| req.cookie("ident"));
            token.and_then(|t| idp.verify(t).ok())
        };
        let Some(actor) = actor else {
            return Err(unauthorized("log in to your authorization manager first"));
        };
        let custodian = || {
            self.pap_ref(expected, |account| account.may_administer(&actor))
                .unwrap_or(false)
        };
        if actor == expected || (allow_custodian && custodian()) {
            return Ok(expected.to_owned());
        }
        Err(Response::forbidden(&format!(
            "{actor} may not act for {expected}"
        )))
    }

    /// Authenticates a registrant (`registrant_id` + `secret` params)
    /// against the registry and returns its id, kind and authority.
    /// The presented secret's SHA-256 digest is compared with the stored
    /// one in constant time, so neither content nor length of a wrong
    /// guess leaks through timing.
    fn authenticate_registrant(&self, req: &Request) -> Result<(String, String, String), Response> {
        let (Some(id), Some(secret)) = (req.param("registrant_id"), req.param("secret")) else {
            return Err(Response::bad_request("registrant_id and secret required"));
        };
        let presented = ucam_crypto::sha256(secret.as_bytes());
        match self.registrants.lock().get(id) {
            Some(r) if ucam_crypto::ct_eq(&r.secret_digest, &presented) => {
                Ok((id.to_owned(), r.kind.clone(), r.authority.clone()))
            }
            _ => Err(unauthorized("unknown registrant or bad secret")),
        }
    }

    /// Fig. 3: the AM issues the host access token for the confirming
    /// user and redirects back to the Host.
    fn web_delegate(&self, c: Call<'_>) -> Response {
        let Some(host) = c.req.param("host") else {
            return Response::bad_request("host and user required");
        };
        match self.establish_delegation(host, c.user()) {
            Ok((delegation, token)) => {
                let pairs = [
                    ("host_token", token.as_str()),
                    ("delegation_id", &delegation.id),
                ];
                let back = protocol::redirect_back(c.req, &pairs);
                back.unwrap_or_else(|| Response::ok().with_body(token))
            }
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_compose(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let Some([host, resource_id]) = req.params(["host", "resource"]) else {
            return Response::bad_request("host and resource required");
        };
        let resource = ResourceRef::new(host, resource_id);

        let result = self.pap(c.user(), |account| {
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
            Ok(Ok(())) => protocol::redirect_back(req, &[("linked", "1")])
                .unwrap_or_else(|| Response::ok().with_body("policy linked")),
            Ok(Err(msg)) => Response::bad_request(&msg),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_authorize(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let Some([host, owner, resource_id]) = req.params(["host", "owner", "resource"]) else {
            return Response::bad_request("host, owner, resource required");
        };
        let Some(requester) = req.param("requester") else {
            return Response::bad_request("requester required");
        };
        let authz = Asking {
            host,
            owner,
            resource_id,
            action: &parse_action(req.param("action")),
            requester,
            subject: c.who.user.as_deref(),
            claim_tokens: &claim_tokens(req),
        };

        match self.authorize_as(&authz, |_| ()) {
            AuthorizeOutcome::Token { token, .. } => {
                let back = protocol::redirect_back(req, &[("authz_token", &token)]);
                back.unwrap_or_else(|| Response::ok().with_body(token))
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

    fn web_authorize_status(&self, c: Call<'_>) -> Response {
        match c.req.param("id").and_then(|id| self.consent_state(id)) {
            Some(ConsentState::Pending) => Response::ok().with_body("pending"),
            Some(ConsentState::Granted) => Response::ok().with_body("granted"),
            Some(ConsentState::Denied) => Response::ok().with_body("denied"),
            Some(ConsentState::Expired) => Response::ok().with_body("expired"),
            None => Response::not_found("consent request"),
        }
    }

    /// Handles `/protection/v2/decision`, the one single-decision route,
    /// and notes the verdict (`"permit"`, `"deny"`, `"unchanged"` or
    /// `"refused"`) in the trace. An optional `if_epoch` parameter carries
    /// the epoch the Host's cached entry was stamped with. The decision is
    /// evaluated in full either way (audit records and use counts do not
    /// depend on the precondition); only the *serialization* is
    /// conditional — a permit whose epoch still matches collapses to the
    /// compact [`protocol::UnchangedBody`] instead of re-shipping the
    /// verdict.
    fn web_decision(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let if_epoch = req.param("if_epoch").map(str::parse::<u64>);
        let (verdict, resp) = match (if_epoch, parse_decision_query(req)) {
            // Fail closed: an unparseable epoch is a malformed request,
            // not an unconditional one.
            (Some(Err(_)), _) => (
                "refused",
                Response::bad_request("if_epoch must be an unsigned integer"),
            ),
            (_, Err(resp)) => ("refused", resp),
            (if_epoch, Ok(query)) => match self.decide(&query) {
                Ok(Decision::Permit {
                    cacheable_ms,
                    policy_epoch,
                }) if if_epoch == Some(Ok(policy_epoch)) => {
                    let body = protocol::UnchangedBody { cacheable_ms }.to_json();
                    ("unchanged", Response::ok().with_body(body))
                }
                Ok(decision) => {
                    let verdict = if decision.is_permit() {
                        "permit"
                    } else {
                        "deny"
                    };
                    let body = decision_wire(&decision).to_json();
                    (verdict, Response::ok().with_body(body))
                }
                Err(e) => ("refused", unauthorized(e)),
            },
        };
        // Lazy label: while tracing is off (every hot loop) this is one
        // atomic load and no formatting.
        c.net.trace().note_with(&self.authority, || {
            format!(
                "PDP decision for {} on {}: {verdict}",
                req.param("requester").unwrap_or("?"),
                req.param("resource").unwrap_or("?"),
            )
        });
        resp
    }

    /// Handles `/protection/v1/decisions`: the body is a JSON array of
    /// [`protocol::BatchItem`]s, all scoped to one `host_token`; the
    /// response is a JSON array of decision bodies in request order.
    /// Token failures are per-item (`"decision":"error"`), so one expired
    /// token cannot poison a batch — except a bad *host* token, which by
    /// construction fails every item.
    fn web_decisions_batch(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let Some(host_token) = req.param("host_token") else {
            return Response::bad_request("host_token required");
        };
        let items = match protocol::parse_batch_request(&req.body) {
            Ok(items) => items,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        let queries: Vec<DecisionQuery<'_>> = items
            .iter()
            .map(|item| DecisionQuery {
                host_token,
                authz_token: &item.token,
                resource_id: &item.resource,
                action: parse_action(Some(item.action.as_str())),
                requester: &item.requester,
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
        let resp = Response::ok().with_body(protocol::encode_batch_response(&bodies));
        c.net.trace().note_with(&self.authority, || {
            format!(
                "PDP batch decision ({} bytes in, {} bytes out)",
                req.body.len(),
                resp.body.len()
            )
        });
        resp
    }

    /// Handles `/protection/v2/authorize`: the requester-side sibling of
    /// the decision batch. The body is a JSON array of
    /// [`protocol::AuthorizeItem`]s sharing one `host`/`requester` (and
    /// optional `subject_token`/`claims`) from the params; the response
    /// is a JSON array of [`protocol::AuthorizeReply`]s in request order.
    /// Outcomes are per-item, so one denial cannot poison its neighbors.
    fn web_authorize_batch(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let Some([host, requester]) = req.params(["host", "requester"]) else {
            return Response::bad_request("host and requester required");
        };
        let items = match protocol::parse_authorize_request(&req.body) {
            Ok(items) => items,
            Err(e) => return Response::bad_request(&e.to_string()),
        };
        let claims = claim_tokens(req);
        let replies: Vec<protocol::AuthorizeReply> = items
            .iter()
            .map(|item| {
                let authz = Asking {
                    host,
                    owner: &item.owner,
                    resource_id: &item.resource,
                    action: &parse_action(Some(item.action.as_str())),
                    requester,
                    subject: c.who.user.as_deref(),
                    claim_tokens: &claims,
                };
                match self.authorize_as(&authz, |_| ()) {
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
    fn web_register(&self, c: Call<'_>) -> Response {
        let body = match protocol::RegisterBody::from_json(&c.req.body) {
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
            Registration {
                kind: body.kind,
                authority: body.authority,
                secret_digest: ucam_crypto::sha256(secret.as_bytes()),
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

    /// Handles `/protection/v2/register/rotate`: swaps the registrant's
    /// management secret for a fresh one (RFC 7592-style credential
    /// rotation). The old secret dies with this response.
    fn web_register_rotate(&self, c: Call<'_>) -> Response {
        let secret = ucam_crypto::random_token(16);
        match self.registrants.lock().get_mut(&c.who.registrant) {
            Some(registrant) => {
                registrant.secret_digest = ucam_crypto::sha256(secret.as_bytes());
                Response::ok().with_body(
                    protocol::RegistrationReply {
                        registrant_id: c.who.registrant,
                        secret,
                    }
                    .to_json(),
                )
            }
            None => unauthorized("unknown registrant or bad secret"),
        }
    }

    /// Handles `/protection/v2/register/deregister`: removes the
    /// registrant. Existing delegations are untouched — deregistration
    /// revokes the ability to obtain *new* credentials, while revoking a
    /// live delegation stays the owner's call (`revoke_delegation`).
    fn web_deregister(&self, c: Call<'_>) -> Response {
        self.registrants.lock().remove(&c.who.registrant);
        Response::ok().with_body("deregistered")
    }

    /// Handles `/protection/v2/delegate`: a *registered* Host obtains a
    /// delegation for the confirming user over the wire, replacing the
    /// hand-wired bootstrap. The registrant credential authenticates the
    /// Host's identity; it does not bypass the user — when an IdP is
    /// configured the user must still confirm in their own session,
    /// exactly as on the v1 `/delegate` route. With `subscribe=1` the
    /// Host is also subscribed to the owner's epoch pushes in the same
    /// round trip.
    fn web_onboard(&self, c: Call<'_>) -> Response {
        let (authority, user) = (&c.who.registrant, c.user());
        match self.establish_delegation(authority, user) {
            Ok((delegation, token)) => {
                if c.req.param("subscribe") == Some("1") {
                    self.subscribe_epoch_push(authority, user);
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

    fn web_export(&self, c: Call<'_>) -> Response {
        let format = match ExportFormat::from_name(c.req.param("format").unwrap_or("json")) {
            Some(f) => f,
            None => return Response::bad_request("format must be json or xml"),
        };
        match self.pap_ref(c.user(), |account| account.export_policies(format)) {
            Ok(body) => Response::ok().with_body(body),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_import(&self, c: Call<'_>) -> Response {
        let format = match ExportFormat::from_name(c.req.param("format").unwrap_or("json")) {
            Some(f) => f,
            None => return Response::bad_request("format must be json or xml"),
        };
        let body = &c.req.body;
        match self.pap(c.user(), |account| account.import_policies(format, body)) {
            Ok(Ok(count)) => Response::ok().with_body(format!("imported {count}")),
            Ok(Err(e)) => Response::bad_request(&e.to_string()),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_snapshot(&self, c: Call<'_>) -> Response {
        match self.export_account(c.user()) {
            Ok(snapshot) => Response::ok().with_body(snapshot),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    /// Importing replaces the snapshot owner's account, so only that
    /// owner (or a custodian) may do it; the row's class checked that.
    fn web_install(&self, c: Call<'_>) -> Response {
        match c.who.account {
            Some(account) => {
                Response::with_status(Status::Created).with_body(self.install_account(*account))
            }
            None => Response::bad_request("account snapshot required"),
        }
    }

    /// Renders the owner's consolidated audit view: every decision across
    /// every host, newest last, optionally filtered by requester.
    fn web_audit_view(&self, c: Call<'_>) -> Response {
        let filter = c.req.param("requester");
        let body = self.audit(|log| {
            let mut lines = Vec::new();
            for entry in log.for_owner(c.user()) {
                if filter.is_some_and(|r| entry.requester.as_deref() != Some(r)) {
                    continue;
                }
                if let AuditEvent::Decision { outcome } = &entry.event {
                    let resource = entry.resource.as_ref().map_or("?", |r| r.id.as_str());
                    let action = entry.action.as_ref().map(ToString::to_string);
                    lines.push(format!(
                        "t={}ms {} {resource} {} by {} -> {outcome}",
                        entry.at_ms,
                        entry.host.as_deref().unwrap_or("?"),
                        action.unwrap_or_default(),
                        entry.requester.as_deref().unwrap_or("?"),
                    ));
                }
            }
            lines.join("\n")
        });
        Response::ok().with_body(body)
    }

    /// Handles `/groups/add` and `/groups/remove`.
    fn web_groups(&self, c: Call<'_>) -> Response {
        let (Some(group), Some(member)) = (c.req.param("group"), c.req.param("member")) else {
            return Response::bad_request("owner, group, member required");
        };
        let add = c.req.url.path() == "/groups/add";
        let result = self.pap(c.user(), |account| {
            if add {
                account.add_group_member(group, member);
                true
            } else {
                account.remove_group_member(group, member)
            }
        });
        match result {
            Ok(true) => Response::ok().with_body("group updated"),
            Ok(false) => Response::not_found("group member"),
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }

    fn web_pending(&self, c: Call<'_>) -> Response {
        Response::ok().with_body(self.pending_consents(c.user()).join(","))
    }

    /// Handles `/consent/grant` and `/consent/deny`.
    fn web_consent_settle(&self, c: Call<'_>) -> Response {
        let id = c.req.param("id").unwrap_or_default();
        let result = if c.req.url.path() == "/consent/grant" {
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

/// A 401 with `why` as its body, written once into one buffer: every
/// reason this AM gives fits its first 64 bytes.
fn unauthorized(why: impl fmt::Display) -> Response {
    let mut body = String::with_capacity(64);
    let _ = fmt::Write::write_fmt(&mut body, format_args!("{why}"));
    Response::with_status(Status::Unauthorized).with_body(body)
}

/// Parses the decision query the single-decision routes carry in their
/// params; a missing param is a 400.
fn parse_decision_query(req: &Request) -> Result<DecisionQuery<'_>, Response> {
    let Some([host_token, authz_token, resource_id, requester]) =
        req.params(["host_token", "token", "resource", "requester"])
    else {
        return Err(Response::bad_request(
            "host_token, token, resource, requester required",
        ));
    };
    let action = parse_action(req.param("action"));
    Ok(DecisionQuery {
        host_token,
        authz_token,
        resource_id,
        action,
        requester,
    })
}

/// The claim tokens (§VII) a request presents in its comma-separated
/// `claims` param.
fn claim_tokens(req: &Request) -> Vec<String> {
    let claims = req.param("claims").into_iter().flat_map(|c| c.split(','));
    claims.map(str::to_owned).collect()
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

#[cfg(test)]
mod route_matrix {
    //! The route-authorization matrix (DESIGN.md §17): every row of
    //! `AuthorizationManager::ROUTES`, sent well-formed by each caller with
    //! an IdP configured, answers the status pinned in [`EXPECTED`]. The
    //! list is written out by hand and keyed by path, so a row added to
    //! the table without its outcomes fails the test.

    use std::sync::Arc;

    use ucam_policy::{Condition, PolicyBody, Rule, RulePolicy, Subject};
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::protocol::{AuthorizeItem, BatchItem, RegisterBody, RegistrationReply};
    use ucam_webenv::SimNet;

    use super::*;

    const HOST: &str = "h.example";

    /// A 200 batch-decision reply whose every item is `error`.
    const ITEM_ERRORS: u16 = 0;

    /// The callers, in the order of [`EXPECTED`]'s columns.
    const CALLERS: [&str; 7] = [
        "anonymous",
        "another user",
        "the owner",
        "a custodian",
        "a host registrant",
        "the delegated host",
        "a forged credential",
    ];

    /// The status each caller gets from each row. Two holes once found by
    /// reading code have their rows here: `/account/import` and
    /// `/consent/pending` by another user (403; both once answered 2xx).
    const EXPECTED: &[(&str, [u16; 7])] = &[
        // path                     anon other owner cust  reg host forged
        (DECISION_V2_PATH, [400, 400, 400, 400, 400, 200, 401]),
        (
            BATCH_DECISIONS_PATH,
            [400, 400, 400, 400, 400, 200, ITEM_ERRORS],
        ),
        ("/authorize", [200, 200, 200, 200, 200, 200, 401]),
        (BATCH_AUTHORIZE_PATH, [200, 200, 200, 200, 200, 200, 401]),
        ("/authorize/status", [200, 200, 200, 200, 200, 200, 200]),
        ("/delegate", [401, 403, 200, 403, 401, 401, 401]),
        ("/compose", [401, 403, 200, 200, 401, 401, 401]),
        (REGISTER_PATH, [201, 201, 201, 201, 201, 201, 201]),
        (REGISTER_ROTATE_PATH, [400, 400, 400, 400, 200, 400, 401]),
        (
            REGISTER_DEREGISTER_PATH,
            [400, 400, 400, 400, 200, 400, 401],
        ),
        (DELEGATE_V2_PATH, [400, 400, 400, 400, 401, 400, 401]),
        ("/policies/export", [401, 403, 200, 200, 401, 401, 401]),
        ("/policies/import", [401, 403, 200, 200, 401, 401, 401]),
        ("/account/export", [401, 403, 200, 200, 401, 401, 401]),
        ("/account/import", [401, 403, 201, 201, 401, 401, 401]),
        ("/audit/view", [401, 403, 200, 200, 401, 401, 401]),
        ("/groups/add", [401, 403, 200, 200, 401, 401, 401]),
        ("/groups/remove", [401, 403, 200, 200, 401, 401, 401]),
        ("/consent/pending", [401, 403, 200, 200, 401, 401, 401]),
        ("/consent/grant", [401, 403, 200, 200, 401, 401, 401]),
        ("/consent/deny", [401, 403, 200, 200, 401, 401, 401]),
    ];

    /// Everything a well-formed request or a caller's credential needs.
    struct Rig {
        net: SimNet,
        am: Arc<AuthorizationManager>,
        idp: IdentityProvider,
        host: RegistrationReply,
        requester: RegistrationReply,
        host_token: String,
        authz_token: String,
        consent_id: String,
        snapshot: String,
        policies: String,
    }

    impl Rig {
        fn new() -> Rig {
            let net = SimNet::new();
            let idp = IdentityProvider::new("idp.example", net.clock().clone());
            let am = Arc::new(AuthorizationManager::new("am.example", net.clock().clone()));
            for user in ["bob", "mallory", "carol"] {
                idp.register_user(user, "pw");
                am.register_user(user);
            }
            am.set_identity_verifier(idp.verifier());
            let rule = |consent: bool| {
                let rule = Rule::permit()
                    .for_subject(Subject::Public)
                    .for_action(Action::Read);
                let rule = if consent {
                    rule.with_condition(Condition::RequiresConsent)
                } else {
                    rule
                };
                PolicyBody::Rules(RulePolicy::new().with_rule(rule))
            };
            am.pap("bob", |account| {
                account.add_custodian("carol");
                account.add_group_member("friends", "dave");
                let public = account.create_policy("public-read", rule(false));
                let gate = account.create_policy("gate", rule(true));
                account
                    .link_specific(ResourceRef::new(HOST, "r1"), &public)
                    .unwrap();
                account
                    .link_specific(ResourceRef::new(HOST, "guarded"), &gate)
                    .unwrap();
            })
            .unwrap();
            let (_, host_token) = am.establish_delegation(HOST, "bob").unwrap();
            let authorize = |resource| {
                am.authorize(&AuthorizeRequest::new(
                    HOST,
                    "bob",
                    resource,
                    Action::Read,
                    "requester:x",
                ))
            };
            let AuthorizeOutcome::Token { token, .. } = authorize("r1") else {
                panic!("r1 is public-read");
            };
            let AuthorizeOutcome::PendingConsent { consent_id } = authorize("guarded") else {
                panic!("guarded asks for consent");
            };
            let register = |kind: &str| {
                let body = RegisterBody {
                    kind: kind.into(),
                    authority: HOST.into(),
                };
                let req = Request::new(Method::Post, &format!("https://am.example{REGISTER_PATH}"))
                    .with_body(body.to_json());
                RegistrationReply::from_json(&am.handle(&net, &req).body).unwrap()
            };
            let (host, requester) = (register("host"), register("requester"));
            let snapshot = am.export_account("bob").unwrap();
            let policies = am
                .pap_ref("bob", |account| account.export_policies(ExportFormat::Json))
                .unwrap();
            Rig {
                net,
                am,
                idp,
                host,
                requester,
                host_token,
                authz_token: token,
                consent_id,
                snapshot,
                policies,
            }
        }

        fn login(&self, user: &str) -> String {
            self.idp.login(user, "pw").unwrap().token
        }

        /// The well-formed request for the row at `path`, before any
        /// caller's credential.
        fn request(&self, path: &str) -> Request {
            let req = Request::new(Method::Post, &format!("https://am.example{path}"));
            let owner = req.clone().with_param("owner", "bob");
            let item = BatchItem {
                token: self.authz_token.clone(),
                resource: "r1".into(),
                action: "read".into(),
                requester: "requester:x".into(),
            };
            let authorize_item = AuthorizeItem {
                owner: "bob".into(),
                resource: "r1".into(),
                action: "read".into(),
            };
            let register = RegisterBody {
                kind: "host".into(),
                authority: "h2.example".into(),
            };
            match path {
                DECISION_V2_PATH => req
                    .with_param("token", &self.authz_token)
                    .with_param("resource", "r1")
                    .with_param("requester", "requester:x"),
                BATCH_DECISIONS_PATH => req.with_body(protocol::encode_batch_request(&[item])),
                "/authorize" => owner
                    .with_param("host", HOST)
                    .with_param("resource", "r1")
                    .with_param("requester", "requester:x"),
                BATCH_AUTHORIZE_PATH => req
                    .with_param("host", HOST)
                    .with_param("requester", "requester:x")
                    .with_body(protocol::encode_authorize_request(&[authorize_item])),
                "/authorize/status" | "/consent/grant" | "/consent/deny" => {
                    req.with_param("id", &self.consent_id)
                }
                "/delegate" => req
                    .with_param("host", "h2.example")
                    .with_param("user", "bob"),
                "/compose" => owner.with_param("host", HOST).with_param("resource", "r1"),
                REGISTER_PATH => req.with_body(register.to_json()),
                REGISTER_ROTATE_PATH | REGISTER_DEREGISTER_PATH => req,
                DELEGATE_V2_PATH => req.with_param("user", "bob"),
                "/policies/import" => owner.with_body(self.policies.clone()),
                "/policies/export" | "/account/export" | "/audit/view" | "/consent/pending" => {
                    owner
                }
                "/account/import" => req.with_body(self.snapshot.clone()),
                "/groups/add" => owner
                    .with_param("group", "friends")
                    .with_param("member", "erin"),
                "/groups/remove" => owner
                    .with_param("group", "friends")
                    .with_param("member", "dave"),
                other => panic!("no well-formed request for the row {other}"),
            }
        }

        /// `req` with caller `caller`'s credentials added.
        fn as_caller(&self, caller: usize, req: Request) -> Request {
            match CALLERS[caller] {
                "anonymous" => req,
                "another user" => req.with_param("subject_token", &self.login("mallory")),
                "the owner" => req.with_param("subject_token", &self.login("bob")),
                "a custodian" => req.with_param("subject_token", &self.login("carol")),
                "a host registrant" => self.registrant(req, &self.host),
                "the delegated host" => req.with_param("host_token", &self.host_token),
                _ => req
                    .with_param("subject_token", "forged.assertion")
                    .with_param("host_token", "forged.token")
                    .with_param("registrant_id", &self.host.registrant_id)
                    .with_param("secret", "forged-secret"),
            }
        }

        fn registrant(&self, req: Request, reply: &RegistrationReply) -> Request {
            req.with_param("registrant_id", &reply.registrant_id)
                .with_param("secret", &reply.secret)
        }

        /// The outcome `resp` pins: its status, or [`ITEM_ERRORS`].
        fn outcome(path: &str, resp: &Response) -> u16 {
            let all_errors = path == BATCH_DECISIONS_PATH
                && resp.status == Status::Ok
                && protocol::parse_batch_response(&resp.body)
                    .is_ok_and(|items| items.iter().all(|d| d.decision == "error"));
            if all_errors {
                ITEM_ERRORS
            } else {
                resp.status.code()
            }
        }
    }

    #[test]
    fn every_am_route_answers_each_caller_as_pinned() {
        let mut failures = Vec::new();
        for &(path, ..) in AuthorizationManager::ROUTES {
            let Some((_, expected)) = EXPECTED.iter().find(|(p, _)| *p == path) else {
                failures.push(format!("{path}: a row with no expected outcomes"));
                continue;
            };
            for (caller, &want) in expected.iter().enumerate() {
                let rig = Rig::new();
                let req = rig.as_caller(caller, rig.request(path));
                let resp = rig.am.handle(&rig.net, &req);
                let got = Rig::outcome(path, &resp);
                if got != want {
                    let who = CALLERS[caller];
                    failures.push(format!(
                        "{path} by {who}: {got}, expected {want} ({})",
                        resp.body
                    ));
                }
            }
        }
        for (path, _) in EXPECTED {
            if !AuthorizationManager::ROUTES
                .iter()
                .any(|row| row.0 == *path)
            {
                failures.push(format!("{path}: expected outcomes for no row"));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// `/protection/v2/delegate` needs two credentials at once: a
    /// host-kind registrant, and the named user's own session.
    #[test]
    fn a_registered_host_delegates_only_with_the_users_own_session() {
        for (registrant, user, want) in [
            ("host", "bob", Status::Created),
            ("host", "mallory", Status::Forbidden),
            ("host", "carol", Status::Forbidden),
            ("requester", "bob", Status::Forbidden),
        ] {
            let rig = Rig::new();
            let reply = if registrant == "host" {
                &rig.host
            } else {
                &rig.requester
            };
            let req = rig
                .registrant(rig.request(DELEGATE_V2_PATH), reply)
                .with_param("subject_token", &rig.login(user));
            let resp = rig.am.handle(&rig.net, &req);
            assert_eq!(resp.status, want, "{registrant} with {user}: {}", resp.body);
        }
    }
}

#[cfg(test)]
mod sieve_compile {
    //! The issued-grants registry and the sieve compiler (DESIGN.md §12,
    //! §13): the registry keeps live grants only, and the compiler judges
    //! each built-in action of a (grant, resource) pair on its own.

    use std::collections::HashSet;

    use ucam_policy::{PolicyBody, Rule, RulePolicy, Subject};

    use super::*;
    use crate::tokens::AUTHZ_TOKEN_TTL_MS;

    const HOST: &str = "h.example";
    const RESOURCES: [&str; 2] = ["doc-1", "doc-2"];

    /// Bob delegates [`HOST`] and lets everyone read the realm holding
    /// [`RESOURCES`]; nothing else is permitted.
    fn am() -> AuthorizationManager {
        let am = AuthorizationManager::new("am.example", SimClock::new());
        am.register_user("bob");
        am.establish_delegation(HOST, "bob").unwrap();
        am.pap("bob", |account| {
            let read = Rule::permit()
                .for_subject(Subject::Public)
                .for_action(Action::Read);
            let id = account.create_policy(
                "read-only",
                PolicyBody::Rules(RulePolicy::new().with_rule(read)),
            );
            for id in RESOURCES {
                account.assign_realm(ResourceRef::new(HOST, id), "docs");
            }
            account.link_general("docs", &id).unwrap();
        })
        .unwrap();
        am
    }

    /// A token for `requester` reading the first resource.
    fn token(am: &AuthorizationManager, requester: &str) -> String {
        let request = AuthorizeRequest::new(HOST, "bob", RESOURCES[0], Action::Read, requester);
        match am.authorize(&request) {
            AuthorizeOutcome::Token { token, .. } => token,
            other => panic!("the realm policy grants {requester}: {other:?}"),
        }
    }

    /// Bob's registry: each grant's expiry, oldest first.
    fn registry(am: &AuthorizationManager) -> Vec<u64> {
        let shard = am.issued_for("bob").lock();
        let issued = shard.get("bob").into_iter().flatten();
        issued.map(|entry| entry.1.expires_at_ms).collect()
    }

    #[test]
    fn the_registry_forgets_a_grant_once_it_expires() {
        let am = am();
        token(&am, "requester:a");
        token(&am, "requester:b");
        assert_eq!(registry(&am).len(), 2);

        am.clock().advance_ms(AUTHZ_TOKEN_TTL_MS + 1);
        token(&am, "requester:c");
        let now = am.clock().now_ms();
        let held = registry(&am);
        assert_eq!(held.len(), 1, "only the live grant stays: {held:?}");
        assert!(held.iter().all(|&expires| expires > now));

        // A compile prunes the same way, with no token issued.
        am.clock().advance_ms(AUTHZ_TOKEN_TTL_MS + 1);
        let (entries, ..) = am.compile_sieve(HOST, "bob").unwrap();
        assert!(entries.is_empty());
        assert!(registry(&am).is_empty());
    }

    #[test]
    fn the_compile_judges_each_action_on_its_own() {
        let am = am();
        let requesters = ["requester:a", "requester:b"];
        let tokens = requesters.map(|requester| token(&am, requester));
        let (entries, ..) = am.compile_sieve(HOST, "bob").unwrap();
        let compiled: HashSet<_> = entries.iter().map(|e| e.fingerprint).collect();
        assert_eq!(compiled.len(), entries.len());

        // Exactly the read fingerprint of every (token, realm member).
        for (token, requester) in tokens.iter().zip(requesters) {
            for resource in RESOURCES {
                for action in Action::BUILTIN {
                    let fingerprint =
                        protocol::sieve_fingerprint(token, resource, action.as_str(), requester);
                    assert_eq!(
                        compiled.contains(&fingerprint),
                        action == Action::Read,
                        "{requester} {action} {resource}"
                    );
                }
            }
        }
        assert_eq!(entries.len(), requesters.len() * RESOURCES.len());
    }
}
