//! The Host framework: resource storage plus the Policy Enforcement Point.
//!
//! "A Host can be any Web application that allows Users to create or upload
//! and then share data … access control functionality of such an
//! application is delegated to AM. Therefore, a Host is only concerned with
//! access control enforcement of decisions that are issued by AM. As such,
//! a Host acts as a policy enforcement point (PEP)." (§V.A.3)
//!
//! [`HostCore`] implements everything a concrete Host application needs:
//!
//! * a resource store with owners,
//! * delegation management — per **user** or per **resource**, possibly to
//!   different AMs ("gives Users the possibility to delegate access control
//!   for different resources to different AMs as well", §V.A.3),
//! * the PEP itself ([`HostCore::enforce`]): redirecting token-less
//!   requesters to the AM (Fig. 5), validating tokens via decision queries
//!   (Fig. 6), and the user-controllable **decision cache** (§V.B.5–6),
//! * a built-in legacy ACL mechanism (the §III status quo, used by the
//!   baselines and before any delegation is configured),
//! * a host-local access log (compared against the AM's central audit log
//!   in experiment E13).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ucam_crypto::sha256;
use ucam_policy::{AccessRequest, AclMatrix, Action, EvalContext, Outcome, ResourceRef};
use ucam_webenv::{
    protocol, BatchItem, DecisionBody, Method, Request, Response, RetryPolicy, SimClock, Status,
    Transport, TransportError, Url,
};

/// A stored Web resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Host-local id (path-like, e.g. `albums/rome/photo-1`).
    pub id: String,
    /// Owning user.
    pub owner: String,
    /// Content kind (`photo`, `file`, `document`, …).
    pub kind: String,
    /// Content bytes.
    pub data: Vec<u8>,
    /// Creation time (simulated ms).
    pub created_at_ms: u64,
}

/// Where a user's (or resource's) access control is delegated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationConfig {
    /// The chosen Authorization Manager's authority.
    pub am: String,
    /// The host access token sealing the relationship.
    pub host_token: String,
    /// Delegation id at the AM.
    pub delegation_id: String,
}

/// Default bound on cached decisions held by one host.
pub const DEFAULT_DECISION_CACHE_CAPACITY: usize = 1024;

/// Circuit breaker configuration for the Host→AM decision channel.
///
/// The breaker is **opt-in** ([`ResilienceConfig::with_breaker`] applied
/// through [`HostCore::set_resilience`]): without one the
/// PEP dispatches every decision query and fails closed on transport
/// errors, exactly as before. With one, `failure_threshold` consecutive
/// transport failures against one AM authority open the circuit for
/// `cooldown_ms`; while open, decision queries fail fast (no dispatch)
/// as if the AM were unreachable. After the cooldown the next query is a
/// half-open probe: its success closes the circuit, its failure re-opens
/// it for another cooldown.
///
/// Only transport failures trip the breaker — application answers
/// (permit, deny, 401) always reset it, so a flaky-but-deciding AM never
/// gets locked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the circuit.
    pub failure_threshold: u32,
    /// Milliseconds the circuit stays open before a half-open probe.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 5_000,
        }
    }
}

/// Per-AM-authority breaker state (guarded by one mutex off the warm
/// path: it is only touched when a decision query actually happens).
#[derive(Debug, Default)]
struct BreakerState {
    /// Consecutive transport failures observed.
    failures: u32,
    /// Clock time until which the circuit is open (0 = closed).
    open_until_ms: u64,
}

/// Opt-in resilience configuration for the Host→AM edge, applied
/// atomically with [`HostCore::set_resilience`]. All fields default to
/// "off", preserving the seed behaviour bit for bit.
///
/// This builder replaced the per-knob setters that accreted over three
/// revisions (`set_breaker`, `set_am_retry`, `set_fallback_am`,
/// `set_stale_grace_ms`); the deprecated wrappers have since been
/// removed — the builder is the only way to configure resilience.
///
/// ```
/// use ucam_host::core::{BreakerConfig, HostCore, ResilienceConfig};
/// use ucam_webenv::{RetryPolicy, SimClock};
///
/// let host = HostCore::new("h.example", SimClock::new());
/// host.set_resilience(
///     ResilienceConfig::new()
///         .with_breaker(BreakerConfig::default())
///         .with_am_retry(RetryPolicy::default())
///         .with_stale_grace_ms(15_000),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Circuit breaker on decision queries.
    breaker: Option<BreakerConfig>,
    /// Retry discipline for decision-query dispatches.
    am_retry: Option<RetryPolicy>,
    /// Fallback AM keyed by (primary AM authority, owner): the
    /// owner-specific entry (`Some(owner)`) wins over the any-owner
    /// wildcard (`None`). Queried when the primary fails at the
    /// transport level (or its circuit is open). The per-owner key is
    /// what lets two owners sharing a primary AM mirror to *different*
    /// secondaries.
    fallback_ams: HashMap<(String, Option<String>), DelegationConfig>,
    /// Degraded-mode grace window (ms past TTL expiry); 0 disables.
    stale_grace_ms: u64,
}

impl ResilienceConfig {
    /// An all-off configuration (the seed behaviour).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the circuit breaker on the Host→AM decision channel.
    #[must_use]
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Installs a retry policy for decision-query dispatches. Only
    /// transport failures are retried; application answers return after
    /// the first attempt.
    #[must_use]
    pub fn with_am_retry(mut self, policy: RetryPolicy) -> Self {
        self.am_retry = Some(policy);
        self
    }

    /// Registers `fallback` for *any* owner whose primary AM is
    /// `primary_am` (the historical wildcard semantics). An owner-specific
    /// entry from [`ResilienceConfig::with_fallback_am_for_owner`] takes
    /// precedence.
    #[must_use]
    pub fn with_fallback_am(mut self, primary_am: &str, fallback: DelegationConfig) -> Self {
        self.fallback_ams
            .insert((primary_am.to_owned(), None), fallback);
        self
    }

    /// Registers `fallback` for `owner`'s resources specifically: two
    /// owners sharing `primary_am` may mirror to different secondaries,
    /// each holding only that owner's delegation.
    #[must_use]
    pub fn with_fallback_am_for_owner(
        mut self,
        primary_am: &str,
        owner: &str,
        fallback: DelegationConfig,
    ) -> Self {
        self.fallback_ams
            .insert((primary_am.to_owned(), Some(owner.to_owned())), fallback);
        self
    }

    /// Enables degraded mode: an expired cached permit may be served for
    /// up to `ms` past its TTL when every AM fails at the transport
    /// level. Epoch-stale entries always fail closed regardless.
    #[must_use]
    pub fn with_stale_grace_ms(mut self, ms: u64) -> Self {
        self.stale_grace_ms = ms;
        self
    }

    /// The fallback delegation for `owner` behind `primary_am`:
    /// owner-specific entry first, any-owner wildcard second.
    fn fallback_for(&self, primary_am: &str, owner: &str) -> Option<&DelegationConfig> {
        self.fallback_ams
            .get(&(primary_am.to_owned(), Some(owner.to_owned())))
            .or_else(|| self.fallback_ams.get(&(primary_am.to_owned(), None)))
    }
}

/// How long (ms) the final partial chunks of a batched enforcement round
/// wait for stragglers before flushing ([`HostCore::enforce_batch`]). The
/// wait is charged to the [`SimClock`] once per round, since partial
/// batches against different AMs wait concurrently, keeping runs
/// deterministic and replayable.
const BATCH_DEADLINE_MS: u64 = 5;

/// One access attempt inside a batched enforcement round — the same
/// tuple [`HostCore::enforce`] takes, owned so a round can carry many.
#[derive(Debug, Clone)]
pub struct AccessAttempt {
    /// Requesting application label.
    pub requester: String,
    /// Authenticated human subject, if any.
    pub subject: Option<String>,
    /// Resource id being accessed.
    pub resource_id: String,
    /// Action attempted.
    pub action: Action,
    /// Bearer (authorization) token presented, if any.
    pub bearer: Option<String>,
    /// Where the AM should send the requester back after authorizing.
    pub return_url: Url,
}

/// `(requester, resource id, action)` — what a cached decision answers for.
type CacheKey = (String, String, Action);

thread_local! {
    /// Last `(token, digest)` pair this thread hashed. Warm §V.B.6 loops
    /// present the same bearer token on every access, so the memo turns a
    /// per-access SHA-256 into a string compare. Pure-function cache: a
    /// stale entry is impossible, only a missed one.
    static TOKEN_DIGEST_MEMO: RefCell<(String, [u8; 32])> =
        const { RefCell::new((String::new(), [0; 32])) };
}

/// SHA-256 of `token`, memoized per thread on the last-seen token.
fn token_digest(token: &str) -> [u8; 32] {
    TOKEN_DIGEST_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.0 != token {
            memo.0.clear();
            memo.0.push_str(token);
            memo.1 = sha256(token.as_bytes());
        }
        memo.1
    })
}

/// One cached permit decision (§V.B.6).
///
/// A cached entry may satisfy a later request only when *all* of these
/// hold: the same requester presents the **same bearer token** (by
/// digest), the entry's TTL has not elapsed, and the owner's policy
/// epoch has not advanced since the AM stamped the decision.
#[derive(Debug)]
struct CachedDecision {
    expires_at_ms: u64,
    /// SHA-256 of the bearer token that earned the permit. A permit is
    /// bound to its token; a different (possibly garbage) bearer must
    /// take the full decision-query path.
    token_digest: [u8; 32],
    /// Resource owner whose policies produced the decision.
    owner: String,
    /// Authority of the AM whose evaluation this entry caches. A pushed
    /// decision invalidation (DESIGN.md §16) can only vouch for entries
    /// its signer decided — an entry learned from a *fallback* AM is
    /// outside the signer's decided registry and must not be re-stamped
    /// to the new epoch.
    am: String,
    /// The owner's policy epoch at decision time.
    epoch: u64,
    /// The access tuple's sieve fingerprint — the identity a pushed
    /// decision invalidation names this entry by (DESIGN.md §16).
    fingerprint: protocol::SieveFingerprint,
    /// Second-chance bit: set on every hit, cleared once by the evictor
    /// before the entry becomes an eviction victim.
    referenced: AtomicBool,
}

/// The bounded decision cache. Eviction is second-chance (clock) over
/// insertion order — deterministic for a deterministic request sequence,
/// unlike anything keyed on map iteration order.
struct DecisionCache {
    enabled: bool,
    capacity: usize,
    entries: HashMap<CacheKey, CachedDecision>,
    /// Keys in insertion order, driving the second-chance sweep.
    order: VecDeque<CacheKey>,
    /// Freshest policy epoch seen per owner (from decision responses or
    /// pushed via [`HostCore::note_policy_epoch`]). Entries stamped with
    /// an older epoch are dead.
    owner_epochs: HashMap<String, u64>,
    /// Degraded-mode grace window (ms past TTL expiry) within which an
    /// expired **permit** may still be served when the AM is unreachable
    /// at the transport level. 0 (the default) disables degraded mode.
    /// Epoch-stale entries are never grace-served: a policy change
    /// always fails closed regardless of this window.
    stale_grace_ms: u64,
}

impl DecisionCache {
    fn new() -> Self {
        DecisionCache {
            enabled: true,
            capacity: DEFAULT_DECISION_CACHE_CAPACITY,
            entries: HashMap::new(),
            order: VecDeque::new(),
            owner_epochs: HashMap::new(),
            stale_grace_ms: 0,
        }
    }

    /// Serves a hit iff enabled, unexpired, token-bound, and epoch-fresh.
    fn lookup(&self, key: &CacheKey, token_digest: &[u8; 32], now: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let Some(entry) = self.entries.get(key) else {
            return false;
        };
        if entry.expires_at_ms <= now || &entry.token_digest != token_digest {
            return false;
        }
        if entry.epoch < self.owner_epochs.get(&entry.owner).copied().unwrap_or(0) {
            return false;
        }
        entry.referenced.store(true, Ordering::Relaxed);
        true
    }

    /// Degraded-mode lookup: serves an **expired** permit that is still
    /// within the grace window, token-bound and epoch-fresh. Returns the
    /// staleness (ms past expiry) on a hit; the caller asserts it stays
    /// within the window it configured. Only ever consulted after a
    /// transport-level AM failure — a fresh entry would already have been
    /// served by [`DecisionCache::lookup`].
    fn lookup_stale(&self, key: &CacheKey, token_digest: &[u8; 32], now: u64) -> Option<u64> {
        if !self.enabled || self.stale_grace_ms == 0 {
            return None;
        }
        let entry = self.entries.get(key)?;
        if &entry.token_digest != token_digest {
            return None;
        }
        // Past the grace window: fail closed, the permit is gone.
        if now >= entry.expires_at_ms.saturating_add(self.stale_grace_ms) {
            return None;
        }
        // A policy change (epoch advance) always fails closed.
        if entry.epoch < self.owner_epochs.get(&entry.owner).copied().unwrap_or(0) {
            return None;
        }
        entry.referenced.store(true, Ordering::Relaxed);
        Some(now.saturating_sub(entry.expires_at_ms))
    }

    /// Inserts under the caller's write lock, re-checking `enabled` there
    /// (no decide-then-insert race), sweeping dead entries, and evicting
    /// down to capacity.
    fn insert(&mut self, key: CacheKey, entry: CachedDecision, now: u64) {
        if !self.enabled || self.capacity == 0 {
            return;
        }
        self.sweep_dead(now);
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.capacity {
                self.evict_one();
            }
            self.order.push_back(key.clone());
        }
        self.entries.insert(key, entry);
    }

    /// Drops expired and epoch-stale entries. With a grace window
    /// configured, expired-but-graceable permits are retained until the
    /// window closes (they are what degraded mode serves from).
    fn sweep_dead(&mut self, now: u64) {
        let entries = &mut self.entries;
        let owner_epochs = &self.owner_epochs;
        let grace = self.stale_grace_ms;
        self.order.retain(|key| {
            let live = entries.get(key).is_some_and(|e| {
                e.expires_at_ms.saturating_add(grace) > now
                    && e.epoch >= owner_epochs.get(&e.owner).copied().unwrap_or(0)
            });
            if !live {
                entries.remove(key);
            }
            live
        });
    }

    /// Second-chance eviction: recently referenced entries get one more
    /// round; the first unreferenced one goes.
    fn evict_one(&mut self) {
        while let Some(key) = self.order.pop_front() {
            let Some(entry) = self.entries.get(&key) else {
                continue;
            };
            if entry.referenced.swap(false, Ordering::Relaxed) {
                self.order.push_back(key);
            } else {
                self.entries.remove(&key);
                return;
            }
        }
    }

    /// Records a (possibly newer) policy epoch for `owner`, purging that
    /// owner's now-stale entries.
    fn note_epoch(&mut self, owner: &str, epoch: u64) {
        let known = self.owner_epochs.entry(owner.to_owned()).or_insert(0);
        if epoch <= *known {
            return;
        }
        *known = epoch;
        let entries = &mut self.entries;
        self.order.retain(|key| {
            let live = entries
                .get(key)
                .is_some_and(|e| e.owner != owner || e.epoch >= epoch);
            if !live {
                entries.remove(key);
            }
            live
        });
    }

    /// Applies a verified decision invalidation (DESIGN.md §16) signed
    /// by AM `am`: records the new epoch, evicts exactly the entries
    /// whose fingerprints the AM named, and re-stamps the owner's
    /// surviving entries *decided by that AM* to the new epoch so they
    /// keep serving — the surgical alternative to
    /// [`DecisionCache::note_epoch`]'s owner-wide purge. Entries learned
    /// from any other AM (a fallback) are outside the signer's decided
    /// registry, so its list cannot name them; they keep their old epoch
    /// and die against the advanced floor exactly as under a plain epoch
    /// note. The same goes for **TTL-expired** entries: the AM prunes
    /// expired tuples from its decided registry before compiling the
    /// list, so its silence says nothing about them — re-stamping one
    /// would let the stale-grace degraded path serve it past a
    /// revocation the push just delivered. Returns how many entries the
    /// fingerprints evicted. A push older than the known epoch is stale
    /// and applies nothing.
    fn apply_invalidation(
        &mut self,
        owner: &str,
        am: &str,
        epoch: u64,
        dead: &[protocol::SieveFingerprint],
        now: u64,
    ) -> u64 {
        let known = self.owner_epochs.entry(owner.to_owned()).or_insert(0);
        if epoch < *known {
            return 0;
        }
        *known = epoch;
        let mut evicted = 0;
        let entries = &mut self.entries;
        self.order.retain(|key| {
            let Some(entry) = entries.get_mut(key) else {
                return false;
            };
            if entry.owner != owner {
                return true;
            }
            if dead.contains(&entry.fingerprint) {
                entries.remove(key);
                evicted += 1;
                return false;
            }
            if entry.am == am && entry.expires_at_ms > now {
                // The signing AM vouched for its own survivors under the
                // new epoch.
                entry.epoch = epoch;
            }
            true
        });
        evicted
    }

    /// The epoch of an **expired** but otherwise valid entry — same
    /// token, epoch-fresh — that a conditional `if_epoch` revalidation
    /// query could cheaply re-arm. `None` when there is nothing worth
    /// revalidating (no entry, live entry, different token, stale epoch).
    fn revalidation_epoch(&self, key: &CacheKey, token_digest: &[u8; 32], now: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let entry = self.entries.get(key)?;
        if entry.expires_at_ms > now || &entry.token_digest != token_digest {
            return None;
        }
        if entry.epoch < self.owner_epochs.get(&entry.owner).copied().unwrap_or(0) {
            return None;
        }
        Some(entry.epoch)
    }

    /// Re-arms an expired entry after the AM confirmed it unchanged:
    /// extends its TTL without re-learning the decision. Fail-closed on
    /// any mismatch (entry gone, different token, epoch moved) — the
    /// unchanged reply then re-arms nothing and the caller refuses.
    fn rearm(
        &mut self,
        key: &CacheKey,
        token_digest: &[u8; 32],
        epoch: u64,
        expires_at_ms: u64,
    ) -> bool {
        let Some(entry) = self.entries.get_mut(key) else {
            return false;
        };
        if &entry.token_digest != token_digest || entry.epoch != epoch {
            return false;
        }
        if entry.epoch < self.owner_epochs.get(&entry.owner).copied().unwrap_or(0) {
            return false;
        }
        entry.expires_at_ms = expires_at_ms;
        entry.referenced.store(true, Ordering::Relaxed);
        true
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// A host-local access-log entry (the per-host view E13 contrasts with the
/// AM's central audit log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostLogEntry {
    /// Event time (ms).
    pub at_ms: u64,
    /// Requester label.
    pub requester: String,
    /// Resource id.
    pub resource_id: String,
    /// Action attempted.
    pub action: Action,
    /// `true` when access was granted.
    pub granted: bool,
    /// How the decision was reached.
    pub via: DecisionPath,
}

/// How the PEP reached its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPath {
    /// Fresh decision query to the AM (Fig. 6).
    AmQuery,
    /// Served from the decision cache (§V.B.6).
    Cache,
    /// Evaluated by the built-in legacy ACLs (§III status quo).
    LegacyAcl,
    /// Requester had no token: redirected to the AM (Fig. 5).
    RedirectedToAm,
    /// Rejected without consulting anything (bad token, AM unreachable…).
    Refused,
    /// Degraded mode: an expired cached permit served within its grace
    /// window because the AM was unreachable (DESIGN.md §10).
    StaleGrace,
}

/// PEP counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PepStats {
    /// Decision queries sent to AMs.
    pub am_queries: u64,
    /// Permits served from the decision cache.
    pub cache_hits: u64,
    /// Redirects of token-less requesters to an AM.
    pub redirects: u64,
    /// Accesses decided by legacy ACLs.
    pub legacy_checks: u64,
    /// Expired permits served within the degraded-mode grace window.
    pub stale_served: u64,
    /// Decision queries answered without a dispatch because the AM's
    /// circuit was open.
    pub breaker_fast_fails: u64,
    /// Decision queries sent to a fallback AM after the primary failed
    /// at the transport level.
    pub fallback_queries: u64,
    /// Extra dispatch attempts spent retrying transport failures.
    pub am_retries: u64,
    /// Batch decision requests flushed to an AM (each carries up to the
    /// round's `max_batch` queries in one round trip).
    pub batch_flushes: u64,
    /// Accesses granted by the tier-1 capability sieve: a lock-free
    /// snapshot read that touched no cache, no state lock and no log
    /// (DESIGN.md §12).
    pub sieve_hits: u64,
    /// Sieve probes that missed (or hit an expired entry) and fell
    /// through to the tier-2 protocol path. Zero while no sieve is
    /// installed — an absent sieve is "disabled", not "all misses".
    pub sieve_misses: u64,
    /// Pushed sieve bodies accepted and installed (signature verified,
    /// epoch fresh).
    pub sieve_installs: u64,
    /// Pushed sieve bodies rejected fail-closed (bad signature, stale
    /// epoch, unknown owner/resource, delegation mismatch).
    pub sieve_rejects: u64,
    /// Pushed sieve *deltas* applied on top of an installed base
    /// (DESIGN.md §13). Disjoint from `sieve_installs`, which counts
    /// full-body installs.
    pub sieve_delta_installs: u64,
    /// Sieve deltas refused because the installed base generation did not
    /// match; each answers [`protocol::SIEVE_RESYNC`] so the AM reships a
    /// full body. Not a trust failure — those count as `sieve_rejects`.
    pub sieve_resyncs: u64,
    /// Pushed decision invalidations verified and applied surgically
    /// (DESIGN.md §16) — each spared the owner's surviving cached
    /// permits the owner-wide epoch purge.
    pub invalidations_applied: u64,
    /// Cached permits evicted by name through applied invalidations (the
    /// exact fingerprints the AM said died).
    pub invalidated_evictions: u64,
    /// Conditional `/protection/v2/decision` revalidation queries sent
    /// with an `if_epoch` precondition.
    pub revalidations: u64,
    /// Conditional queries the AM collapsed to an *unchanged* reply that
    /// re-armed the expired cached permit.
    pub revalidations_unchanged: u64,
}

/// What the PEP tells the application to do with a request.
#[derive(Debug, Clone)]
pub enum Enforcement {
    /// Serve the resource.
    Grant,
    /// Send this response instead (redirect to AM, 401, 403, 404, 503…).
    Block(Response),
}

impl Enforcement {
    /// Returns `true` for [`Enforcement::Grant`].
    #[must_use]
    pub fn is_grant(&self) -> bool {
        matches!(self, Enforcement::Grant)
    }
}

/// Outcome of applying a pushed sieve delta ([`HostCore::install_sieve_delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SieveDeltaOutcome {
    /// The delta verified and applied on top of the installed base.
    Installed,
    /// The installed base generation does not match the delta's
    /// `base_epoch` (or no sieve is installed for the owner at all). The
    /// web layer answers [`protocol::SIEVE_RESYNC`] so the AM reships a
    /// full body.
    BaseMismatch,
    /// The delta failed verification or validation and was dropped
    /// fail-closed, exactly like a bad full body.
    Rejected,
}

/// An error from host-side storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// No such resource.
    NotFound(String),
    /// A resource with this id already exists.
    AlreadyExists(String),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NotFound(id) => write!(f, "no such resource: {id}"),
            HostError::AlreadyExists(id) => write!(f, "resource already exists: {id}"),
        }
    }
}

impl std::error::Error for HostError {}

#[derive(Default)]
struct HostState {
    resources: BTreeMap<String, Resource>,
    /// user -> delegation for all their resources on this host.
    user_delegations: HashMap<String, DelegationConfig>,
    /// resource id -> delegation override (different AM per resource).
    resource_delegations: HashMap<String, DelegationConfig>,
    /// resource id -> built-in ACL (legacy mechanism).
    legacy_acls: HashMap<String, AclMatrix>,
}

/// Stripe count for the tier-1 sieve hit/miss counters. The sieve hot
/// path is the one place where *every* thread bumps a counter on *every*
/// access, so a single shared cache line would serialize the very path
/// this PR un-serializes. Threads are spread round-robin over the
/// stripes; `snapshot()` sums them.
const SIEVE_STAT_SHARDS: usize = 16;

/// One cache-line-aligned stripe of sieve counters, so two stripes never
/// false-share a line.
#[repr(align(64))]
#[derive(Default)]
struct SieveStatShard {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Round-robin source for each thread's stripe assignment.
static NEXT_SIEVE_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, fixed at first use.
    static SIEVE_SHARD_INDEX: usize =
        NEXT_SIEVE_SHARD.fetch_add(1, Ordering::Relaxed) % SIEVE_STAT_SHARDS;
}

/// Lock-free PEP counters: the enforcement hot path bumps these without
/// touching any lock the store or the cache is behind.
///
/// `snapshot()`/`reset()` form a seqlock: `generation` is odd while a
/// reset is mid-flight, and a snapshot retries until it reads the same
/// even generation before and after its loads. Without this, a reader
/// racing `reset()` could observe a half-reset snapshot (some counters
/// zeroed, others not) — torn totals that break any invariant relating
/// two counters. Ordinary increments still race a snapshot (each counter
/// is independently `Relaxed`), which is inherent and fine: a snapshot
/// is a point-in-time reading, not a barrier.
struct AtomicPepStats {
    /// Seqlock generation; odd ⇒ a reset is in progress.
    generation: AtomicU64,
    am_queries: AtomicU64,
    cache_hits: AtomicU64,
    redirects: AtomicU64,
    legacy_checks: AtomicU64,
    stale_served: AtomicU64,
    breaker_fast_fails: AtomicU64,
    fallback_queries: AtomicU64,
    am_retries: AtomicU64,
    batch_flushes: AtomicU64,
    sieve_installs: AtomicU64,
    sieve_rejects: AtomicU64,
    sieve_delta_installs: AtomicU64,
    sieve_resyncs: AtomicU64,
    invalidations_applied: AtomicU64,
    invalidated_evictions: AtomicU64,
    revalidations: AtomicU64,
    revalidations_unchanged: AtomicU64,
    /// Striped tier-1 hit/miss counters (see [`SIEVE_STAT_SHARDS`]).
    /// Inside this struct so the seqlock covers them too.
    sieve_shards: [SieveStatShard; SIEVE_STAT_SHARDS],
}

impl Default for AtomicPepStats {
    fn default() -> Self {
        AtomicPepStats {
            generation: AtomicU64::new(0),
            am_queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            legacy_checks: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            breaker_fast_fails: AtomicU64::new(0),
            fallback_queries: AtomicU64::new(0),
            am_retries: AtomicU64::new(0),
            batch_flushes: AtomicU64::new(0),
            sieve_installs: AtomicU64::new(0),
            sieve_rejects: AtomicU64::new(0),
            sieve_delta_installs: AtomicU64::new(0),
            sieve_resyncs: AtomicU64::new(0),
            invalidations_applied: AtomicU64::new(0),
            invalidated_evictions: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
            revalidations_unchanged: AtomicU64::new(0),
            sieve_shards: std::array::from_fn(|_| SieveStatShard::default()),
        }
    }
}

impl AtomicPepStats {
    /// Records a tier-1 sieve hit on this thread's stripe.
    fn bump_sieve_hit(&self) {
        SIEVE_SHARD_INDEX.with(|&i| self.sieve_shards[i].hits.fetch_add(1, Ordering::Relaxed));
    }

    /// Records a tier-1 sieve miss on this thread's stripe.
    fn bump_sieve_miss(&self) {
        SIEVE_SHARD_INDEX.with(|&i| self.sieve_shards[i].misses.fetch_add(1, Ordering::Relaxed));
    }

    fn snapshot(&self) -> PepStats {
        loop {
            let before = self.generation.load(Ordering::Acquire);
            if before & 1 == 1 {
                // A reset is mid-flight; wait for it to finish.
                std::hint::spin_loop();
                continue;
            }
            let stats = PepStats {
                am_queries: self.am_queries.load(Ordering::Relaxed),
                cache_hits: self.cache_hits.load(Ordering::Relaxed),
                redirects: self.redirects.load(Ordering::Relaxed),
                legacy_checks: self.legacy_checks.load(Ordering::Relaxed),
                stale_served: self.stale_served.load(Ordering::Relaxed),
                breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
                fallback_queries: self.fallback_queries.load(Ordering::Relaxed),
                am_retries: self.am_retries.load(Ordering::Relaxed),
                batch_flushes: self.batch_flushes.load(Ordering::Relaxed),
                sieve_hits: self
                    .sieve_shards
                    .iter()
                    .map(|s| s.hits.load(Ordering::Relaxed))
                    .sum(),
                sieve_misses: self
                    .sieve_shards
                    .iter()
                    .map(|s| s.misses.load(Ordering::Relaxed))
                    .sum(),
                sieve_installs: self.sieve_installs.load(Ordering::Relaxed),
                sieve_rejects: self.sieve_rejects.load(Ordering::Relaxed),
                sieve_delta_installs: self.sieve_delta_installs.load(Ordering::Relaxed),
                sieve_resyncs: self.sieve_resyncs.load(Ordering::Relaxed),
                invalidations_applied: self.invalidations_applied.load(Ordering::Relaxed),
                invalidated_evictions: self.invalidated_evictions.load(Ordering::Relaxed),
                revalidations: self.revalidations.load(Ordering::Relaxed),
                revalidations_unchanged: self.revalidations_unchanged.load(Ordering::Relaxed),
            };
            // An Acquire load does not keep the Relaxed loads above from
            // moving after it; the fence does. It pairs with the Release
            // fence in `reset`: a snapshot that read any zeroing store
            // reads the odd (or a later) generation here and retries.
            fence(Ordering::Acquire);
            if self.generation.load(Ordering::Acquire) == before {
                return stats;
            }
            // A reset landed between our two generation reads; retry.
        }
    }

    fn reset(&self) {
        // Odd generation: snapshots in flight will discard and retry. A
        // Release RMW does not keep the Relaxed zeroing stores below from
        // moving before it; the fence (paired with the Acquire fence in
        // `snapshot`) does.
        self.generation.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::Release);
        self.am_queries.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.redirects.store(0, Ordering::Relaxed);
        self.legacy_checks.store(0, Ordering::Relaxed);
        self.stale_served.store(0, Ordering::Relaxed);
        self.breaker_fast_fails.store(0, Ordering::Relaxed);
        self.fallback_queries.store(0, Ordering::Relaxed);
        self.am_retries.store(0, Ordering::Relaxed);
        self.batch_flushes.store(0, Ordering::Relaxed);
        self.sieve_installs.store(0, Ordering::Relaxed);
        self.sieve_rejects.store(0, Ordering::Relaxed);
        self.sieve_delta_installs.store(0, Ordering::Relaxed);
        self.sieve_resyncs.store(0, Ordering::Relaxed);
        self.invalidations_applied.store(0, Ordering::Relaxed);
        self.invalidated_evictions.store(0, Ordering::Relaxed);
        self.revalidations.store(0, Ordering::Relaxed);
        self.revalidations_unchanged.store(0, Ordering::Relaxed);
        for shard in &self.sieve_shards {
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
        }
        // Back to even: the stats are coherent again.
        self.generation.fetch_add(1, Ordering::Release);
    }
}

// -- tier-1 capability sieve (DESIGN.md §12) ----------------------------------

/// Hasher for sieve fingerprints. A fingerprint is already the truncated
/// output of SHA-256, so its first 8 bytes are a uniformly distributed
/// hash value — feeding them through SipHash again would only add cost
/// to the hottest lookup in the system. The last `write` wins, which for
/// a `[u8; 16]` key means the fingerprint bytes themselves (the slice
/// length prefix written first is overwritten).
#[derive(Default, Clone)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        self.0 = u64::from_le_bytes(buf);
    }
}

/// [`BuildHasher`] for [`FpHasher`].
#[derive(Default, Clone)]
struct FpHashBuilder;

impl BuildHasher for FpHashBuilder {
    type Hasher = FpHasher;

    fn build_hasher(&self) -> FpHasher {
        FpHasher(0)
    }
}

/// The immutable tier-1 enforcement table: every fingerprint the AM has
/// vouched for, with its expiry. Readers clone an `Arc` to it and probe
/// without any lock; writers (install/purge — all cold paths) build a
/// modified copy and swap it in under [`HostCore::sieve`]'s mutex.
///
/// Entries are **exact** (full fingerprints, not a Bloom filter): a
/// false positive here would *grant* an access the AM never permitted,
/// which no space saving justifies. A false negative merely costs a
/// tier-2 round trip.
#[derive(Default, Clone)]
struct SieveSnapshot {
    /// fingerprint → expiry (ms since epoch). A probe is a hit iff the
    /// fingerprint is present and `now < expiry`.
    entries: HashMap<protocol::SieveFingerprint, u64, FpHashBuilder>,
    /// owner → that owner's fingerprints, for epoch and delegation-change
    /// purges.
    owner_index: HashMap<String, Vec<protocol::SieveFingerprint>>,
    /// resource id → fingerprints, for resource deletion / re-delegation
    /// purges.
    resource_index: HashMap<String, Vec<protocol::SieveFingerprint>>,
    /// owner → policy epoch the installed sieve was compiled under. Kept
    /// monotonic: an arriving sieve stamped older than this is rejected.
    owner_epochs: HashMap<String, u64>,
}

impl SieveSnapshot {
    /// Drops every entry belonging to `owner`. Keeps `owner_epochs` — the
    /// epoch floor must survive the purge or a delayed old sieve could
    /// resurrect revoked permits.
    fn purge_owner(&mut self, owner: &str) {
        if let Some(fps) = self.owner_index.remove(owner) {
            for fp in &fps {
                self.entries.remove(fp);
            }
            let entries = &self.entries;
            for list in self.resource_index.values_mut() {
                list.retain(|fp| entries.contains_key(fp));
            }
            self.resource_index.retain(|_, v| !v.is_empty());
        }
    }

    /// Drops every entry for `resource_id` (deleted or re-delegated).
    fn purge_resource(&mut self, resource_id: &str) {
        if let Some(fps) = self.resource_index.remove(resource_id) {
            for fp in &fps {
                self.entries.remove(fp);
            }
            let entries = &self.entries;
            for list in self.owner_index.values_mut() {
                list.retain(|fp| entries.contains_key(fp));
            }
            self.owner_index.retain(|_, v| !v.is_empty());
        }
    }

    /// Whether the sieve installed for `owner` was compiled under an
    /// epoch older than `epoch`.
    fn is_behind(&self, owner: &str, epoch: u64) -> bool {
        self.owner_epochs
            .get(owner)
            .is_some_and(|&installed| installed < epoch)
    }

    /// The owner-floor advance: when `owner`'s installed sieve is behind
    /// `epoch`, purges the owner and raises their floor to `epoch`.
    fn advance_floor(&mut self, owner: &str, epoch: u64) {
        if self.is_behind(owner, epoch) {
            self.purge_owner(owner);
            self.owner_epochs.insert(owner.to_owned(), epoch);
        }
    }

    /// Inserts vouched `entries` for `owner` with their index rows and
    /// stamps the owner's sieve with `epoch`. A fingerprint already
    /// present (a delta moving an entry's deadline, or a body repeating
    /// one) only moves its expiry; the indexes already know it.
    fn install(&mut self, owner: &str, epoch: u64, entries: &[protocol::SieveEntry]) {
        for entry in entries {
            if self
                .entries
                .insert(entry.fingerprint, entry.expires_at_ms)
                .is_none()
            {
                self.owner_index
                    .entry(owner.to_owned())
                    .or_default()
                    .push(entry.fingerprint);
                self.resource_index
                    .entry(entry.resource.clone())
                    .or_default()
                    .push(entry.fingerprint);
            }
        }
        self.owner_epochs.insert(owner.to_owned(), epoch);
    }

    /// Drops a specific fingerprint set (a delta's `removed` list).
    /// Removal only narrows access, so no ownership check is needed —
    /// the worst a bad list can do is force extra tier-2 round trips.
    fn remove_fingerprints(&mut self, dead: &[protocol::SieveFingerprint]) {
        if dead.is_empty() {
            return;
        }
        for fp in dead {
            self.entries.remove(fp);
        }
        let entries = &self.entries;
        for list in self.owner_index.values_mut() {
            list.retain(|fp| entries.contains_key(fp));
        }
        self.owner_index.retain(|_, v| !v.is_empty());
        for list in self.resource_index.values_mut() {
            list.retain(|fp| entries.contains_key(fp));
        }
        self.resource_index.retain(|_, v| !v.is_empty());
    }
}

/// Per-process id source for [`HostCore::sieve_id`], keying the
/// thread-local snapshot slots below.
static NEXT_SIEVE_ID: AtomicU64 = AtomicU64::new(1);

/// How many distinct `HostCore`s a thread caches sieve snapshots for.
const SIEVE_CACHE_SLOTS: usize = 8;

thread_local! {
    /// Per-thread `(host id, generation, snapshot)` slots. The warm path
    /// revalidates with one `Acquire` load of the generation and only
    /// touches [`HostCore::sieve`]'s mutex when an install/purge actually
    /// happened — the same pattern `SimNet` uses for its config snapshot.
    static SIEVE_SNAPSHOT_CACHE: RefCell<Vec<(u64, u64, Arc<SieveSnapshot>)>> =
        const { RefCell::new(Vec::new()) };
}

thread_local! {
    /// Last `(token, resource, action, requester) → fingerprint` this
    /// thread computed. Warm §V.B.6 loops probe the same tuple on every
    /// access, so the memo turns the per-access SHA-256 into four string
    /// compares — the same pure-function trick as [`TOKEN_DIGEST_MEMO`].
    static SIEVE_FP_MEMO: RefCell<(String, String, String, String, protocol::SieveFingerprint)> =
        const {
            RefCell::new((
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                [0; 16],
            ))
        };
}

/// [`protocol::sieve_fingerprint`], memoized per thread on the last-seen
/// tuple.
fn sieve_fingerprint_memo(
    token: &str,
    resource: &str,
    action: &str,
    requester: &str,
) -> protocol::SieveFingerprint {
    SIEVE_FP_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let (t, r, a, q, fp) = &mut *memo;
        if t != token || r != resource || a != action || q != requester {
            t.clear();
            t.push_str(token);
            r.clear();
            r.push_str(resource);
            a.clear();
            a.push_str(action);
            q.clear();
            q.push_str(requester);
            *fp = protocol::sieve_fingerprint(token, resource, action, requester);
        }
        *fp
    })
}

/// The bare action label used in sieve fingerprints — matches both the
/// `Display` form and what the AM's compiler feeds
/// [`protocol::sieve_fingerprint`], without the hot path paying
/// `to_string()`.
fn action_label(action: &Action) -> &str {
    match action {
        Action::Read => "read",
        Action::Write => "write",
        Action::Delete => "delete",
        Action::List => "list",
        Action::Share => "share",
        Action::Custom(name) => name.as_str(),
    }
}

/// The Host framework core. Concrete applications (WebPics, WebStorage,
/// WebDocs) embed one and add their domain routes on top.
///
/// # Example
///
/// ```
/// use ucam_host::core::HostCore;
/// use ucam_webenv::SimClock;
///
/// let host = HostCore::new("webpics.example", SimClock::new());
/// host.put_resource("photo-1", "bob", "photo", b"...".to_vec()).unwrap();
/// assert_eq!(host.resource("photo-1").unwrap().owner, "bob");
/// ```
pub struct HostCore {
    authority: String,
    clock: SimClock,
    /// Resource store and delegation config.
    state: RwLock<HostState>,
    /// The decision cache, behind its own lock so the hot path never
    /// contends with resource CRUD.
    cache: RwLock<DecisionCache>,
    /// Host-local access log, separate from both of the above.
    log: Mutex<Vec<HostLogEntry>>,
    stats: AtomicPepStats,
    /// Opt-in Host→AM resilience knobs (DESIGN.md §10). Read-mostly:
    /// taken once per decision query, never on the warm cache path.
    resilience: RwLock<ResilienceConfig>,
    /// Per-AM circuit state; only touched when a breaker is configured.
    breaker_states: Mutex<HashMap<String, BreakerState>>,
    /// High-water mark of staleness (ms past expiry) ever served by
    /// degraded mode — the chaos soak asserts it never exceeds the
    /// configured grace window.
    max_served_staleness_ms: AtomicU64,
    /// Current tier-1 capability sieve (DESIGN.md §12). The mutex guards
    /// the *swap*, not reads: the warm path clones the `Arc` from a
    /// thread-local slot revalidated against [`HostCore::sieve_gen`].
    sieve: Mutex<Arc<SieveSnapshot>>,
    /// Bumped (Release) on every sieve install/purge; readers load it
    /// (Acquire) to revalidate their thread-local snapshot.
    sieve_gen: AtomicU64,
    /// Process-unique id keying this core's thread-local snapshot slots.
    sieve_id: u64,
    /// Opt-in conditional revalidation (DESIGN.md §16): when set, a
    /// TTL-expired cached permit is revalidated with a v2 `if_epoch`
    /// decision query instead of a full v1 query. Off by default — the
    /// v1 wire traffic then stays byte-identical.
    conditional_revalidation: AtomicBool,
}

impl fmt::Debug for HostCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostCore")
            .field("authority", &self.authority)
            .field("resources", &self.state.read().resources.len())
            .finish_non_exhaustive()
    }
}

impl HostCore {
    /// Creates an empty host addressed as `authority`, with the decision
    /// cache enabled.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Self {
        HostCore {
            authority: authority.to_owned(),
            clock,
            state: RwLock::new(HostState::default()),
            cache: RwLock::new(DecisionCache::new()),
            log: Mutex::new(Vec::new()),
            stats: AtomicPepStats::default(),
            resilience: RwLock::new(ResilienceConfig::default()),
            breaker_states: Mutex::new(HashMap::new()),
            max_served_staleness_ms: AtomicU64::new(0),
            sieve: Mutex::new(Arc::new(SieveSnapshot::default())),
            sieve_gen: AtomicU64::new(0),
            sieve_id: NEXT_SIEVE_ID.fetch_add(1, Ordering::Relaxed),
            conditional_revalidation: AtomicBool::new(false),
        }
    }

    /// The host's authority.
    #[must_use]
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// Enables or disables the decision cache (E7 ablation knob).
    pub fn set_cache_enabled(&self, enabled: bool) {
        let mut cache = self.cache.write();
        cache.enabled = enabled;
        if !enabled {
            cache.clear();
        }
    }

    /// Bounds the number of cached decisions (default
    /// [`DEFAULT_DECISION_CACHE_CAPACITY`]); 0 disables caching outright.
    pub fn set_decision_cache_capacity(&self, capacity: usize) {
        let mut cache = self.cache.write();
        cache.capacity = capacity;
        let now = self.clock.now_ms();
        cache.sweep_dead(now);
        while cache.entries.len() > cache.capacity {
            cache.evict_one();
        }
    }

    /// Number of currently cached decisions (test/observability hook).
    #[must_use]
    pub fn decision_cache_len(&self) -> usize {
        self.cache.read().entries.len()
    }

    /// Drops all cached decisions (e.g. after the user edited policies).
    pub fn flush_decision_cache(&self) {
        self.cache.write().clear();
    }

    /// Records that `owner`'s policies are now at `epoch` (pushed by the
    /// AM or relayed by the environment). Cached decisions stamped with
    /// an older epoch are dropped and will never be served again, and any
    /// installed sieve compiled under an older epoch is purged the same
    /// way — both tiers go stale together.
    pub fn note_policy_epoch(&self, owner: &str, epoch: u64) {
        self.cache.write().note_epoch(owner, epoch);
        let behind = |sieve: &SieveSnapshot| sieve.is_behind(owner, epoch);
        if behind(&self.sieve.lock()) {
            // Re-checked under the swap lock: a concurrent install may
            // have brought the owner up to (or past) this epoch already.
            self.update_sieve(behind, |sieve| sieve.advance_floor(owner, epoch));
        }
    }

    /// Applies a pushed decision invalidation (DESIGN.md §16),
    /// fail-closed on any doubt. Returns `true` iff the body verified
    /// and was applied — the caller (the web layer's epoch-push route)
    /// must otherwise fall back to [`HostCore::note_policy_epoch`]'s
    /// owner-wide purge, which is always safe.
    ///
    /// Trust chain mirrors [`HostCore::install_sieve`]: the body must
    /// verify under the `host_token` of the user-level delegation this
    /// Host holds for the claimed owner. That signer speaks for the
    /// owner's policy epoch — the same authority the plain epoch push
    /// rides on. Eviction by fingerprint only narrows access; the one
    /// *widening* effect (surviving cached permits are re-stamped to the
    /// new epoch instead of purged) is exactly what the signature vouches
    /// for.
    pub fn install_invalidation(&self, body: &protocol::InvalidationBody) -> bool {
        let (key, signer) = {
            let state = self.state.read();
            let Some(delegation) = state.user_delegations.get(&body.owner) else {
                return false;
            };
            (delegation.host_token.clone(), delegation.am.clone())
        };
        if !body.verify(key.as_bytes()) {
            return false;
        }
        self.apply_invalidation(&body.owner, &signer, body.epoch, &body.invalidated);
        true
    }

    /// The surgical counterpart of [`HostCore::note_policy_epoch`]:
    /// advances `owner`'s epoch, evicts exactly the named fingerprints
    /// from both tiers, and lets everything else keep serving. Trust is
    /// the caller's problem — [`HostCore::install_invalidation`] is the
    /// verified entry point.
    ///
    /// The decision cache gets the full treatment (evict the dead,
    /// re-stamp the survivors). An installed tier-1 sieve only gets the
    /// narrowing half: its dead fingerprints are removed, but entries
    /// compiled under an older epoch are still purged wholesale, because
    /// sieve grants never take the decision path the invalidation list
    /// was compiled from — their survival cannot be vouched for here.
    /// (In practice the AM only pushes invalidations where no sieve body
    /// superseded them, so the purge is almost always a no-op.)
    fn apply_invalidation(
        &self,
        owner: &str,
        signer: &str,
        epoch: u64,
        dead: &[protocol::SieveFingerprint],
    ) {
        let now = self.clock.now_ms();
        let evicted = self
            .cache
            .write()
            .apply_invalidation(owner, signer, epoch, dead, now);
        if evicted > 0 {
            self.stats
                .invalidated_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        self.stats
            .invalidations_applied
            .fetch_add(1, Ordering::Relaxed);
        let sieve_work = {
            let current = self.sieve.lock();
            dead.iter().any(|fp| current.entries.contains_key(fp))
                || current.is_behind(owner, epoch)
        };
        if sieve_work {
            self.update_sieve(
                |_| true,
                |sieve| {
                    sieve.remove_fingerprints(dead);
                    sieve.advance_floor(owner, epoch);
                },
            );
        }
    }

    /// Enables conditional revalidation (DESIGN.md §16): TTL-expired
    /// cached permits are refreshed with `/protection/v2/decision`
    /// `if_epoch` queries, which the AM collapses to a tiny *unchanged*
    /// reply when the owner's epoch has not moved. Off by default; the
    /// v1 wire surface is untouched while off.
    pub fn set_conditional_revalidation(&self, enabled: bool) {
        self.conditional_revalidation
            .store(enabled, Ordering::Relaxed);
    }

    // -- tier-1 capability sieve (DESIGN.md §12) ------------------------------

    /// The current sieve snapshot, via this thread's slot cache. One
    /// `Acquire` generation load on the warm path; the mutex is taken
    /// only when an install or purge actually changed the sieve.
    fn sieve_snapshot(&self) -> Arc<SieveSnapshot> {
        let generation = self.sieve_gen.load(Ordering::Acquire);
        SIEVE_SNAPSHOT_CACHE.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some(slot) = slots.iter_mut().find(|(id, _, _)| *id == self.sieve_id) {
                if slot.1 != generation {
                    *slot = (self.sieve_id, generation, Arc::clone(&self.sieve.lock()));
                }
                return Arc::clone(&slot.2);
            }
            let snapshot = Arc::clone(&self.sieve.lock());
            if slots.len() >= SIEVE_CACHE_SLOTS {
                slots.remove(0);
            }
            slots.push((self.sieve_id, generation, Arc::clone(&snapshot)));
            snapshot
        })
    }

    /// Applies `mutate` to a copy of the sieve and swaps it in, if
    /// `admit` holds for the current sieve under the swap lock. Returns
    /// whether it swapped. Cold path only (installs and purges).
    fn update_sieve(
        &self,
        admit: impl FnOnce(&SieveSnapshot) -> bool,
        mutate: impl FnOnce(&mut SieveSnapshot),
    ) -> bool {
        let mut slot = self.sieve.lock();
        if !admit(&slot) {
            return false;
        }
        let mut next = (**slot).clone();
        mutate(&mut next);
        *slot = Arc::new(next);
        self.sieve_gen.fetch_add(1, Ordering::Release);
        true
    }

    /// Drops `owner`'s sieve entries (their delegation changed, so the
    /// signing key the entries were vouched under is void).
    fn purge_sieve_owner(&self, owner: &str) {
        let has_entries = self.sieve.lock().owner_index.contains_key(owner);
        if has_entries {
            self.update_sieve(|_| true, |sieve| sieve.purge_owner(owner));
        }
    }

    /// Drops `resource_id`'s sieve entries (deleted or re-delegated).
    fn purge_sieve_resource(&self, resource_id: &str) {
        let has_entries = self.sieve.lock().resource_index.contains_key(resource_id);
        if has_entries {
            self.update_sieve(|_| true, |sieve| sieve.purge_resource(resource_id));
        }
    }

    /// The trust step both sieve installs share: returns `entries` only
    /// when `verify` accepts the body under the `host_token` of the
    /// delegation this Host itself holds for `owner` — the shared secret
    /// from the delegation handshake, which only the real AM knows — and
    /// that signer speaks for every entry. Per entry, the resource must
    /// exist here and belong to the owner, must not be re-delegated under
    /// another secret (a per-resource override pointing at a different
    /// AM means the signer does not govern it), and the entry must be
    /// unexpired. One bad entry rejects the whole body: a well-behaved AM
    /// never compiles one, so it is either corruption or forgery.
    fn vouched_entries<'e>(
        &self,
        owner: &str,
        verify: impl FnOnce(&[u8]) -> bool,
        entries: &'e [protocol::SieveEntry],
    ) -> Option<&'e [protocol::SieveEntry]> {
        let now = self.clock.now_ms();
        let state = self.state.read();
        let config = state.user_delegations.get(owner)?;
        let vouched = verify(config.host_token.as_bytes())
            && entries.iter().all(|entry| {
                let resource_ok = state
                    .resources
                    .get(&entry.resource)
                    .is_some_and(|r| r.owner == owner);
                let delegation_ok = state
                    .resource_delegations
                    .get(&entry.resource)
                    .is_none_or(|over| over.host_token == config.host_token);
                resource_ok && delegation_ok && entry.expires_at_ms > now
            });
        vouched.then_some(entries)
    }

    /// The freshest policy epoch the decision cache has seen for `owner`
    /// — one of the floors a pushed sieve must clear.
    fn cache_epoch(&self, owner: &str) -> u64 {
        let cache = self.cache.read();
        cache.owner_epochs.get(owner).copied().unwrap_or(0)
    }

    /// Installs a pushed capability sieve, fail-closed on any doubt.
    /// Returns `true` iff the sieve was installed.
    ///
    /// Trust chain: the body must verify under the `host_token` of the
    /// delegation this Host itself holds for the claimed owner, and that
    /// signer must speak for every entry — each resource exists here,
    /// belongs to the owner and is not re-delegated under another secret,
    /// and each entry is unexpired. The body's epoch must be no older
    /// than the freshest epoch this Host has seen for the owner from
    /// *either* tier, so a delayed push can never resurrect revoked
    /// permits.
    pub fn install_sieve(&self, sieve: &protocol::SieveBody) -> bool {
        let verify = |key: &[u8]| sieve.verify(key);
        let Some(accepted) = self.vouched_entries(&sieve.owner, verify, &sieve.entries) else {
            self.stats.sieve_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        // Epoch floor: freshest epoch known from the decision cache or a
        // previously installed sieve.
        let cache_epoch = self.cache_epoch(&sieve.owner);
        let installed = self.update_sieve(
            |current| {
                let installed = current.owner_epochs.get(&sieve.owner).copied();
                sieve.epoch >= installed.unwrap_or(0).max(cache_epoch)
            },
            |next| {
                next.purge_owner(&sieve.owner);
                next.install(&sieve.owner, sieve.epoch, accepted);
            },
        );
        if installed {
            // Keep the decision cache's epoch floor in step.
            self.cache.write().note_epoch(&sieve.owner, sieve.epoch);
            self.stats.sieve_installs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.sieve_rejects.fetch_add(1, Ordering::Relaxed);
        }
        installed
    }

    /// Applies a pushed sieve *delta* on top of the installed base
    /// (DESIGN.md §13). Trust rules are identical to
    /// [`HostCore::install_sieve`] — the same signature and per-entry
    /// check (under the delta's own domain separator) for everything
    /// `added`. On top of that, a delta only applies when the installed
    /// sieve for the owner sits **exactly** at the delta's `base_epoch`
    /// and the delta's epoch clears every epoch floor; any mismatch
    /// returns [`SieveDeltaOutcome::BaseMismatch`] so the caller can
    /// request a full-body resync. Removals need no ownership proof:
    /// dropping an entry can only narrow access.
    pub fn install_sieve_delta(&self, delta: &protocol::SieveDeltaBody) -> SieveDeltaOutcome {
        let verify = |key: &[u8]| delta.verify(key);
        let Some(accepted) = self.vouched_entries(&delta.owner, verify, &delta.added) else {
            self.stats.sieve_rejects.fetch_add(1, Ordering::Relaxed);
            return SieveDeltaOutcome::Rejected;
        };
        let cache_epoch = self.cache_epoch(&delta.owner);
        let applied = self.update_sieve(
            // Exact base match, and the result must clear both epoch
            // floors — a delta that would rewind either tier resyncs.
            |current| {
                current.owner_epochs.get(&delta.owner) == Some(&delta.base_epoch)
                    && delta.epoch >= delta.base_epoch
                    && delta.epoch >= cache_epoch
            },
            |next| {
                next.remove_fingerprints(&delta.removed);
                next.install(&delta.owner, delta.epoch, accepted);
            },
        );
        if applied {
            self.cache.write().note_epoch(&delta.owner, delta.epoch);
            self.stats
                .sieve_delta_installs
                .fetch_add(1, Ordering::Relaxed);
            SieveDeltaOutcome::Installed
        } else {
            self.stats.sieve_resyncs.fetch_add(1, Ordering::Relaxed);
            SieveDeltaOutcome::BaseMismatch
        }
    }

    /// Tier-1 probe: grants iff the sieve holds an unexpired entry for
    /// exactly this `(token, resource, action, requester)`. No locks, no
    /// cache, no log write — the §V.B.6 warm path in one hash lookup.
    /// Returns `false` (fall through to tier-2) on any doubt.
    fn sieve_probe(
        &self,
        net: &dyn Transport,
        requester: &str,
        resource_id: &str,
        action: &Action,
        token: &str,
        now: u64,
    ) -> bool {
        let snapshot = self.sieve_snapshot();
        if snapshot.entries.is_empty() {
            // No sieve installed: tier-1 is simply absent, not missing.
            return false;
        }
        let fp = sieve_fingerprint_memo(token, resource_id, action_label(action), requester);
        match snapshot.entries.get(&fp) {
            Some(&expires_at_ms) if now < expires_at_ms => {
                self.stats.bump_sieve_hit();
                net.trace().note_with(&self.authority, || {
                    format!("sieve hit: {requester} {action} {resource_id}")
                });
                true
            }
            _ => {
                self.stats.bump_sieve_miss();
                false
            }
        }
    }

    // -- resilience knobs (DESIGN.md §10) -------------------------------------

    /// Applies a full [`ResilienceConfig`] atomically: breaker, retry,
    /// fallback AMs and the stale-grace window all switch together, and
    /// all circuit state resets. This is the single entry point for
    /// resilience configuration.
    pub fn set_resilience(&self, config: ResilienceConfig) {
        let grace = config.stale_grace_ms;
        *self.resilience.write() = config;
        self.breaker_states.lock().clear();
        let mut cache = self.cache.write();
        cache.stale_grace_ms = grace;
        // Shrinking the window may strand now-dead entries; sweep them.
        let now = self.clock.now_ms();
        cache.sweep_dead(now);
    }

    /// A snapshot of the current resilience configuration — read, adjust
    /// with the builder methods, and re-apply with
    /// [`HostCore::set_resilience`].
    #[must_use]
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience.read().clone()
    }

    /// The maximum staleness (ms past TTL expiry) degraded mode has ever
    /// served — the invariant gauge for the chaos soak: it must never
    /// exceed the configured grace window.
    #[must_use]
    pub fn max_served_staleness_ms(&self) -> u64 {
        self.max_served_staleness_ms.load(Ordering::Relaxed)
    }

    /// Whether the circuit for `am` is currently open (fast-failing).
    #[must_use]
    pub fn breaker_open(&self, am: &str) -> bool {
        if self.resilience.read().breaker.is_none() {
            return false;
        }
        let now = self.clock.now_ms();
        self.breaker_states
            .lock()
            .get(am)
            .is_some_and(|s| s.open_until_ms > now)
    }

    /// Returns the PEP counters.
    #[must_use]
    pub fn stats(&self) -> PepStats {
        self.stats.snapshot()
    }

    /// Zeroes the PEP counters and the served-staleness high-water mark.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.max_served_staleness_ms.store(0, Ordering::Relaxed);
    }

    /// Returns a snapshot of the host-local access log.
    #[must_use]
    pub fn log(&self) -> Vec<HostLogEntry> {
        self.log.lock().clone()
    }

    // -- resource store ------------------------------------------------------

    /// Stores a new resource.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::AlreadyExists`] when the id is taken.
    pub fn put_resource(
        &self,
        id: &str,
        owner: &str,
        kind: &str,
        data: Vec<u8>,
    ) -> Result<(), HostError> {
        let mut state = self.state.write();
        if state.resources.contains_key(id) {
            return Err(HostError::AlreadyExists(id.to_owned()));
        }
        state.resources.insert(
            id.to_owned(),
            Resource {
                id: id.to_owned(),
                owner: owner.to_owned(),
                kind: kind.to_owned(),
                data,
                created_at_ms: self.clock.now_ms(),
            },
        );
        Ok(())
    }

    /// Replaces a resource's content.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::NotFound`] when absent.
    pub fn update_resource(&self, id: &str, data: Vec<u8>) -> Result<(), HostError> {
        let mut state = self.state.write();
        let resource = state
            .resources
            .get_mut(id)
            .ok_or_else(|| HostError::NotFound(id.to_owned()))?;
        resource.data = data;
        Ok(())
    }

    /// Reads a resource.
    #[must_use]
    pub fn resource(&self, id: &str) -> Option<Resource> {
        self.state.read().resources.get(id).cloned()
    }

    /// Reads only a resource's content bytes — the serving path after a
    /// grant, which has no use for the metadata [`HostCore::resource`]
    /// would also clone.
    #[must_use]
    pub fn resource_data(&self, id: &str) -> Option<Vec<u8>> {
        self.state.read().resources.get(id).map(|r| r.data.clone())
    }

    /// Deletes a resource.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::NotFound`] when absent.
    pub fn delete_resource(&self, id: &str) -> Result<Resource, HostError> {
        let removed = self
            .state
            .write()
            .resources
            .remove(id)
            .ok_or_else(|| HostError::NotFound(id.to_owned()))?;
        // A sieve entry must never outlive its resource.
        self.purge_sieve_resource(id);
        Ok(removed)
    }

    /// Lists resources owned by `owner` (sorted by id).
    #[must_use]
    pub fn resources_of(&self, owner: &str) -> Vec<Resource> {
        self.state
            .read()
            .resources
            .values()
            .filter(|r| r.owner == owner)
            .cloned()
            .collect()
    }

    /// Lists resource ids with the given id prefix (directory listing).
    #[must_use]
    pub fn ids_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.state
            .read()
            .resources
            .keys()
            .filter(|id| id.starts_with(prefix))
            .cloned()
            .collect()
    }

    // -- delegation management (Fig. 3) ---------------------------------------

    /// Records that `user` delegated access control (for all their
    /// resources here) to the AM in `config`.
    pub fn set_user_delegation(&self, user: &str, config: DelegationConfig) {
        self.state
            .write()
            .user_delegations
            .insert(user.to_owned(), config);
        // Entries were vouched under the old delegation's secret.
        self.purge_sieve_owner(user);
    }

    /// Records a per-resource delegation override (possibly a different AM
    /// than the user-level one, §V.A.3).
    pub fn set_resource_delegation(&self, resource_id: &str, config: DelegationConfig) {
        self.state
            .write()
            .resource_delegations
            .insert(resource_id.to_owned(), config);
        // The overriding AM, not the sieve's signer, now governs it.
        self.purge_sieve_resource(resource_id);
    }

    /// Removes `user`'s delegation (back to built-in access control).
    pub fn clear_user_delegation(&self, user: &str) -> Option<DelegationConfig> {
        let removed = self.state.write().user_delegations.remove(user);
        self.purge_sieve_owner(user);
        removed
    }

    /// The delegation governing `resource_id` owned by `owner`:
    /// resource-level override first, then user-level.
    #[must_use]
    pub fn delegation_for(&self, resource_id: &str, owner: &str) -> Option<DelegationConfig> {
        let state = self.state.read();
        state
            .resource_delegations
            .get(resource_id)
            .or_else(|| state.user_delegations.get(owner))
            .cloned()
    }

    // -- legacy built-in ACLs (§III) -------------------------------------------

    /// Sets the built-in ACL for a resource (the pre-delegation mechanism;
    /// "Both Hosts have a built-in access control functionality", §VI).
    pub fn set_legacy_acl(&self, resource_id: &str, acl: AclMatrix) {
        self.state
            .write()
            .legacy_acls
            .insert(resource_id.to_owned(), acl);
    }

    /// Reads the built-in ACL for a resource.
    #[must_use]
    pub fn legacy_acl(&self, resource_id: &str) -> Option<AclMatrix> {
        self.state.read().legacy_acls.get(resource_id).cloned()
    }

    // -- the PEP ---------------------------------------------------------------
    //
    // Both enforcement routes run one pipeline: `classify` settles every
    // access that needs no AM round trip, `query` asks the AM (failing
    // over to a fallback), and `settle_decision` concludes the answer.

    /// Enforces access control for one request against `resource_id`.
    ///
    /// * Owner sessions (`subject == Some(owner)`) are always granted —
    ///   users manage their own resources through the Host UI.
    /// * Delegated resources follow the paper's protocol: token-less
    ///   requesters are redirected to the AM (Fig. 5); token-bearing ones
    ///   are checked against the decision cache and, on a miss, through an
    ///   AM decision query (Fig. 6).
    /// * Undelegated resources fall back to the built-in legacy ACLs.
    ///
    /// A miss is one single-decision query, never a batch of one: only
    /// that route carries the `if_epoch` precondition of conditional
    /// revalidation (DESIGN.md §16).
    #[allow(clippy::too_many_arguments)] // the PEP consumes the full request tuple
    pub fn enforce(
        &self,
        net: &dyn Transport,
        requester: &str,
        subject: Option<&str>,
        resource_id: &str,
        action: &Action,
        bearer: Option<&str>,
        return_url: &Url,
    ) -> Enforcement {
        let now = self.clock.now_ms();
        let miss = match self.classify(
            net,
            requester,
            subject,
            resource_id,
            action,
            bearer,
            return_url,
            now,
        ) {
            Classified::Settled(enforcement) => return enforcement,
            Classified::Miss(miss) => miss,
        };
        // DESIGN.md §16: with conditional revalidation on, a TTL-expired
        // but epoch-fresh entry for this same token turns the full query
        // into an `if_epoch` precondition the AM can collapse to a tiny
        // *unchanged* reply.
        let if_epoch = if self.conditional_revalidation.load(Ordering::Relaxed) {
            self.cache
                .read()
                .revalidation_epoch(&miss.cache_key, &miss.token_digest, now)
        } else {
            None
        };
        if if_epoch.is_some() {
            self.stats.revalidations.fetch_add(1, Ordering::Relaxed);
        }
        let resilience = self.resilience.read().clone();
        let (resp, decided_by) =
            self.query(net, &resilience, &miss, None, "decision", &|to, primary| {
                // Never conditional against the fallback: the cached
                // entry's epoch lives in the *primary* AM's epoch space,
                // and a numerically equal epoch at the mirror would
                // falsely re-arm it.
                let if_epoch = if_epoch.filter(|_| primary);
                let path = if if_epoch.is_some() {
                    protocol::DECISION_V2_PATH
                } else {
                    protocol::DECISION_PATH
                };
                let (requester, resource_id, action) = &miss.cache_key;
                let mut req = Request::new(Method::Post, &format!("https://{}{path}", to.am))
                    .with_param("host_token", &to.host_token)
                    .with_param("token", miss.token)
                    .with_param("resource", resource_id)
                    .with_param("action", &action.to_string())
                    .with_param("requester", requester);
                if let Some(epoch) = if_epoch {
                    req = req.with_param("if_epoch", &epoch.to_string());
                }
                req
            });
        self.settle_decision(
            net,
            classify_decision(&resp),
            miss,
            if_epoch,
            &decided_by,
            now,
        )
    }

    /// Enforces a whole round of access attempts, coalescing the decision
    /// queries of its misses into `/protection/v1/decisions` batch
    /// requests of up to `max_batch` queries (clamped to
    /// [`protocol::MAX_BATCH`]).
    ///
    /// Every attempt is classified exactly as [`HostCore::enforce`]
    /// classifies it. The misses are grouped by (AM, host token, owner);
    /// every full chunk flushes immediately, and the final partial chunks
    /// wait out a fixed 5 ms deadline — charged to the shared
    /// [`SimClock`] **once** per round, since partial batches against
    /// different AMs wait concurrently — before flushing. N misses
    /// against one AM thus cost ⌈N/B⌉ round trips (experiment E7b).
    /// Batch items carry no `if_epoch` precondition, so an expired cached
    /// permit is re-learned in full.
    pub fn enforce_batch(
        &self,
        net: &dyn Transport,
        attempts: &[AccessAttempt],
        max_batch: usize,
    ) -> Vec<Enforcement> {
        let now = self.clock.now_ms();
        let mut results: Vec<Option<Enforcement>> = Vec::with_capacity(attempts.len());
        // Group per (AM, host token, owner): one batch request carries one
        // host token, and keying on owner keeps the per-owner fallback
        // lookup unambiguous. BTreeMap iteration keeps rounds replayable.
        let mut groups: BTreeMap<(String, String, String), Vec<(usize, Miss<'_>)>> =
            BTreeMap::new();
        for (index, attempt) in attempts.iter().enumerate() {
            match self.classify(
                net,
                &attempt.requester,
                attempt.subject.as_deref(),
                &attempt.resource_id,
                &attempt.action,
                attempt.bearer.as_deref(),
                &attempt.return_url,
                now,
            ) {
                Classified::Settled(enforcement) => results.push(Some(enforcement)),
                Classified::Miss(miss) => {
                    results.push(None);
                    let key = (
                        miss.delegation.am.clone(),
                        miss.delegation.host_token.clone(),
                        miss.owner.clone(),
                    );
                    groups.entry(key).or_default().push((index, miss));
                }
            }
        }
        let max_batch = max_batch.clamp(1, protocol::MAX_BATCH);
        let (mut full_chunks, mut partial_chunks) = (Vec::new(), Vec::new());
        for queries in groups.into_values() {
            let mut queries = queries.into_iter().peekable();
            while queries.peek().is_some() {
                let chunk: Vec<_> = queries.by_ref().take(max_batch).collect();
                if chunk.len() == max_batch {
                    full_chunks.push(chunk);
                } else {
                    partial_chunks.push(chunk);
                }
            }
        }
        // flush-on-size: full chunks go out first …
        let resilience = self.resilience.read().clone();
        self.flush(net, &resilience, full_chunks, &mut results);
        if !partial_chunks.is_empty() {
            // … and flush-on-deadline: the stragglers that would fill the
            // partial chunks never arrive, so they wait out the deadline
            // (all of them concurrently: one clock charge) and flush.
            self.clock.advance_ms(BATCH_DEADLINE_MS);
            self.flush(net, &resilience, partial_chunks, &mut results);
        }
        results
            .into_iter()
            .map(|r| r.expect("every attempt in the round settles exactly once"))
            .collect()
    }

    /// The classification step of both enforcement routes. Settles every
    /// access that needs no AM round trip — tier-1 sieve hit, 404, owner
    /// session, legacy ACL, redirect to the AM (Fig. 5), decision cache
    /// hit (§V.B.6) — and hands the rest back as a [`Miss`].
    #[allow(clippy::too_many_arguments)]
    fn classify<'t>(
        &self,
        net: &dyn Transport,
        requester: &str,
        subject: Option<&str>,
        resource_id: &str,
        action: &Action,
        bearer: Option<&'t str>,
        return_url: &Url,
        now: u64,
    ) -> Classified<'t> {
        // Tier-1 (DESIGN.md §12): an AM-pushed sieve entry for exactly
        // this (token, resource, action, requester) grants before any
        // lock is taken. Entries only exist for resources that were
        // present and delegated at install time, and every mutation that
        // could invalidate them (deletion, re-delegation, epoch advance)
        // purges, so a hit is as trustworthy as a decision-cache hit.
        if let Some(token) = bearer {
            if self.sieve_probe(net, requester, resource_id, action, token, now) {
                return Classified::Settled(Enforcement::Grant);
            }
        }
        let state = self.state.read();
        let Some(resource) = state.resources.get(resource_id) else {
            return Classified::Settled(Enforcement::Block(Response::not_found(resource_id)));
        };

        // The owner manages their own data.
        if subject == Some(resource.owner.as_str()) {
            return Classified::Settled(Enforcement::Grant);
        }

        let Some(delegation) = state
            .resource_delegations
            .get(resource_id)
            .or_else(|| state.user_delegations.get(&resource.owner))
        else {
            drop(state);
            return Classified::Settled(self.enforce_legacy(
                subject,
                requester,
                resource_id,
                action,
                now,
            ));
        };
        let Some(token) = bearer else {
            // Fig. 5: "a Host redirects a Requester to the AM along with
            // information about the Host and the resource".
            let authorize = Url::new(&delegation.am, "/authorize")
                .with_query("host", &self.authority)
                .with_query("owner", &resource.owner)
                .with_query("resource", resource_id)
                .with_query("action", &action.to_string())
                .with_query("requester", requester)
                .with_query("return", &return_url.to_string());
            drop(state);
            self.record(
                now,
                requester,
                resource_id,
                action,
                false,
                DecisionPath::RedirectedToAm,
            );
            self.stats.redirects.fetch_add(1, Ordering::Relaxed);
            return Classified::Settled(Enforcement::Block(
                Response::redirect(&authorize)
                    .with_header("www-authenticate", "Bearer realm=\"ucam\""),
            ));
        };

        // §V.B.6 warm path: a cached decision is valid only for the same
        // bearer token (by digest), within its TTL, and while the owner's
        // policy epoch is unchanged. A hit is granted while everything is
        // still borrowed from the one state read — no resource/delegation
        // clones, no dispatch.
        let cache_key = (requester.to_owned(), resource_id.to_owned(), action.clone());
        let token_digest = token_digest(token);
        if self.cache.read().lookup(&cache_key, &token_digest, now) {
            drop(state);
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            // Lazy label: free (one atomic load) while tracing is off.
            net.trace().note_with(&self.authority, || {
                format!("decision cache hit: {requester} {action} {resource_id}")
            });
            self.record(
                now,
                requester,
                resource_id,
                action,
                true,
                DecisionPath::Cache,
            );
            return Classified::Settled(Enforcement::Grant);
        }
        Classified::Miss(Miss {
            delegation: delegation.clone(),
            owner: resource.owner.clone(),
            token,
            cache_key,
            token_digest,
        })
    }

    /// Fig. 6, hardened per DESIGN.md §10: sends `build`'s request to
    /// `head`'s primary AM under the breaker and retry policy — unless
    /// `sent` already holds the primary's answer (a pipelined flush) —
    /// and on a transport failure fails over to the owner's fallback AM.
    /// `build` gets the delegation the request goes to and whether that
    /// is the primary. Only transport failures fail over: an AM that
    /// *answers* (permit, deny, 401, even an application 5xx) is always
    /// taken at its word. Returns the response and the authority of the
    /// AM that answered it.
    fn query(
        &self,
        net: &dyn Transport,
        resilience: &ResilienceConfig,
        head: &Miss<'_>,
        sent: Option<Response>,
        what: &str,
        build: &dyn Fn(&DelegationConfig, bool) -> Request,
    ) -> (Response, String) {
        let primary = &head.delegation;
        let resp = sent.unwrap_or_else(|| {
            self.dispatch_protected(net, resilience, &primary.am, &|| build(primary, true))
        });
        if resp.transport_error().is_some() {
            if let Some(fallback) = resilience.fallback_for(&primary.am, &head.owner) {
                self.stats.fallback_queries.fetch_add(1, Ordering::Relaxed);
                net.trace().note_with(&self.authority, || {
                    format!(
                        "failing over {what} query: {} -> {}",
                        primary.am, fallback.am
                    )
                });
                let resp = self
                    .dispatch_protected(net, resilience, &fallback.am, &|| build(fallback, false));
                return (resp, fallback.am.clone());
            }
        }
        (resp, primary.am.clone())
    }

    /// Flushes a round's batch chunks — the members of one chunk share an
    /// (AM, host token, owner) — and settles every member, stamped after
    /// its chunk's answer. With plain resilience (no breaker, no retry
    /// policy) the chunks are independent wire requests, so they go out
    /// through [`Transport::dispatch_pipelined`]: over HTTP each AM's
    /// chunks share one buffered write on its persistent connection, over
    /// [`SimNet`](ucam_webenv::SimNet) the default implementation
    /// dispatches them sequentially — identical responses, identical
    /// accounting, on either backend. A breaker or retry policy makes
    /// each dispatch outcome feed the next admission decision, so those
    /// configurations send one chunk at a time.
    fn flush(
        &self,
        net: &dyn Transport,
        resilience: &ResilienceConfig,
        chunks: Vec<Vec<(usize, Miss<'_>)>>,
        results: &mut [Option<Enforcement>],
    ) {
        let bodies: Vec<String> = chunks
            .iter()
            .map(|chunk| protocol::encode_batch_request(&batch_items(chunk)))
            .collect();
        let mut sent = Vec::new();
        if chunks.len() > 1 && resilience.breaker.is_none() && resilience.am_retry.is_none() {
            let reqs = chunks
                .iter()
                .zip(&bodies)
                .map(|(chunk, body)| {
                    self.note_flush(net, chunk);
                    self.stats.am_queries.fetch_add(1, Ordering::Relaxed);
                    batch_request(&chunk[0].1.delegation, body)
                })
                .collect();
            sent = net.dispatch_pipelined(&self.authority, reqs);
        }
        let mut sent = sent.into_iter();
        for (chunk, body) in chunks.into_iter().zip(&bodies) {
            let sent = sent.next();
            if sent.is_none() {
                self.note_flush(net, &chunk);
            }
            let (resp, decided_by) =
                self.query(net, resilience, &chunk[0].1, sent, "batch", &|to, _| {
                    batch_request(to, body)
                });
            let now = self.clock.now_ms();
            let outcomes = classify_batch(&resp, chunk.len());
            for ((index, miss), outcome) in chunk.into_iter().zip(outcomes) {
                // Batch queries never carry an `if_epoch` precondition,
                // so a stray *unchanged* item fails closed.
                results[index] =
                    Some(self.settle_decision(net, outcome, miss, None, &decided_by, now));
            }
        }
    }

    /// Counts and traces one batch flush.
    fn note_flush(&self, net: &dyn Transport, chunk: &[(usize, Miss<'_>)]) {
        self.stats.batch_flushes.fetch_add(1, Ordering::Relaxed);
        let am = &chunk[0].1.delegation.am;
        net.trace().note_with(&self.authority, || {
            format!("batch flush: {} decision queries -> {am}", chunk.len())
        });
    }

    /// Concludes one decision query (or batch item) from its normalized
    /// [`DecisionOutcome`]: caches and grants permits, fails everything
    /// else closed, and gives transport failures — and only those — the
    /// degraded-mode chance at an expired-but-graceable permit.
    /// `if_epoch` is the precondition the query carried, if any — an
    /// *unchanged* reply re-arms the cached permit at exactly that epoch
    /// (the reply does not echo it; the AM only says "unchanged" when
    /// the epochs are equal).
    fn settle_decision(
        &self,
        net: &dyn Transport,
        outcome: DecisionOutcome,
        miss: Miss<'_>,
        if_epoch: Option<u64>,
        decided_by: &str,
        now: u64,
    ) -> Enforcement {
        let Miss {
            owner,
            token,
            cache_key,
            token_digest,
            ..
        } = miss;
        let (requester, resource_id, action) = &cache_key;
        match outcome {
            DecisionOutcome::Unchanged(body) => {
                // DESIGN.md §16: the AM confirmed the expired permit is
                // still good at the epoch we presented. Re-arm it in
                // place; if the entry is gone or moved (evicted, token
                // churn, epoch advance raced us), or the query never
                // carried a precondition for the reply to confirm, the
                // unchanged reply vouches for nothing we still hold —
                // fail closed, per the wire contract.
                let rearmed = match if_epoch {
                    Some(epoch) => self.cache.write().rearm(
                        &cache_key,
                        &token_digest,
                        epoch,
                        now + body.cacheable_ms,
                    ),
                    None => false,
                };
                if rearmed {
                    self.stats
                        .revalidations_unchanged
                        .fetch_add(1, Ordering::Relaxed);
                    net.trace().note_with(&self.authority, || {
                        format!(
                            "revalidated unchanged: {requester} {action} {resource_id} \
                             ({} ms)",
                            body.cacheable_ms
                        )
                    });
                    self.record(
                        now,
                        requester,
                        resource_id,
                        action,
                        true,
                        DecisionPath::AmQuery,
                    );
                    return Enforcement::Grant;
                }
                self.record(
                    now,
                    requester,
                    resource_id,
                    action,
                    false,
                    DecisionPath::Refused,
                );
                Enforcement::Block(
                    Response::with_status(Status::Unavailable).with_body(
                        "unchanged reply without a matching cached permit; access denied",
                    ),
                )
            }
            DecisionOutcome::Body(body) if body.is_permit() => {
                self.record(
                    now,
                    requester,
                    resource_id,
                    action,
                    true,
                    DecisionPath::AmQuery,
                );
                let cacheable_ms = body.cacheable_ms.unwrap_or(0);
                if cacheable_ms > 0 {
                    net.trace().note_with(&self.authority, || {
                        format!(
                            "cached permit: {requester} {action} {resource_id} \
                             ({cacheable_ms} ms)"
                        )
                    });
                    let fingerprint =
                        sieve_fingerprint_memo(token, resource_id, action_label(action), requester);
                    // One write lock for the whole insert: the enabled
                    // flag is re-checked inside, so a concurrent
                    // `set_cache_enabled(false)` cannot be overtaken.
                    let mut cache = self.cache.write();
                    let epoch = body.policy_epoch.unwrap_or(0);
                    if let Some(epoch) = body.policy_epoch {
                        cache.note_epoch(&owner, epoch);
                    }
                    cache.insert(
                        cache_key,
                        CachedDecision {
                            expires_at_ms: now + cacheable_ms,
                            token_digest,
                            owner,
                            am: decided_by.to_owned(),
                            epoch,
                            fingerprint,
                            referenced: AtomicBool::new(false),
                        },
                        now,
                    );
                }
                Enforcement::Grant
            }
            DecisionOutcome::Body(body) if body.is_error() => {
                // A per-item protocol failure inside a batch — same
                // contract as a single-query 401: re-authorize.
                self.record(
                    now,
                    requester,
                    resource_id,
                    action,
                    false,
                    DecisionPath::Refused,
                );
                Enforcement::Block(
                    Response::with_status(Status::Unauthorized)
                        .with_body("authorization token rejected; re-authorize"),
                )
            }
            DecisionOutcome::Body(_) => {
                self.record(
                    now,
                    requester,
                    resource_id,
                    action,
                    false,
                    DecisionPath::AmQuery,
                );
                Enforcement::Block(Response::forbidden(
                    "access denied by authorization manager",
                ))
            }
            DecisionOutcome::Malformed => {
                // A 200 with an unparsable body is a protocol error,
                // not a permit. Fail closed.
                self.record(
                    now,
                    requester,
                    resource_id,
                    action,
                    false,
                    DecisionPath::Refused,
                );
                Enforcement::Block(
                    Response::with_status(Status::Unavailable)
                        .with_body("malformed decision response; access denied"),
                )
            }
            DecisionOutcome::TokenRejected => {
                // Bad/expired token: requester must obtain a fresh one.
                self.record(
                    now,
                    requester,
                    resource_id,
                    action,
                    false,
                    DecisionPath::Refused,
                );
                Enforcement::Block(
                    Response::with_status(Status::Unauthorized)
                        .with_body("authorization token rejected; re-authorize"),
                )
            }
            DecisionOutcome::Transport => {
                // Degraded mode (opt-in): a transport-level failure — and
                // only that — may serve an expired cached permit within
                // its grace window.
                let stale_now = self.clock.now_ms();
                if let Some(staleness) =
                    self.cache
                        .read()
                        .lookup_stale(&cache_key, &token_digest, stale_now)
                {
                    self.stats.stale_served.fetch_add(1, Ordering::Relaxed);
                    self.max_served_staleness_ms
                        .fetch_max(staleness, Ordering::Relaxed);
                    net.trace().note_with(&self.authority, || {
                        format!(
                            "degraded: stale permit served {staleness} ms past TTL: \
                             {requester} {action} {resource_id}"
                        )
                    });
                    self.record(
                        stale_now,
                        requester,
                        resource_id,
                        action,
                        true,
                        DecisionPath::StaleGrace,
                    );
                    return Enforcement::Grant;
                }
                self.fail_closed_unreachable(now, requester, resource_id, action)
            }
            DecisionOutcome::Unavailable => {
                // Application 5xxs and everything else never reach
                // degraded mode: fail closed.
                self.fail_closed_unreachable(now, requester, resource_id, action)
            }
        }
    }

    fn fail_closed_unreachable(
        &self,
        now: u64,
        requester: &str,
        resource_id: &str,
        action: &Action,
    ) -> Enforcement {
        self.record(
            now,
            requester,
            resource_id,
            action,
            false,
            DecisionPath::Refused,
        );
        Enforcement::Block(
            Response::with_status(Status::Unavailable)
                .with_body("authorization manager unreachable; access denied"),
        )
    }

    /// Dispatches one AM request under the breaker and retry policy —
    /// shared by the single-query and batch paths. Breaker fast-fails
    /// synthesize a [`TransportError::Unreachable`] response without
    /// dispatching.
    fn dispatch_protected(
        &self,
        net: &dyn Transport,
        resilience: &ResilienceConfig,
        am: &str,
        build: &dyn Fn() -> Request,
    ) -> Response {
        if resilience.breaker.is_some() && !self.breaker_admits(am) {
            self.stats
                .breaker_fast_fails
                .fetch_add(1, Ordering::Relaxed);
            net.trace().note_with(&self.authority, || {
                format!("circuit open: fast-failing decision query to {am}")
            });
            return Response::with_status(Status::Unavailable)
                .with_body(format!("circuit open for {am}"))
                .with_transport_error(TransportError::Unreachable);
        }
        self.stats.am_queries.fetch_add(1, Ordering::Relaxed);
        let resp = match &resilience.am_retry {
            Some(policy) => {
                let (resp, report) =
                    policy.run(net.clock(), |_| net.dispatch(&self.authority, build()));
                if report.attempts > 1 {
                    self.stats
                        .am_retries
                        .fetch_add(u64::from(report.attempts - 1), Ordering::Relaxed);
                }
                resp
            }
            None => net.dispatch(&self.authority, build()),
        };
        if let Some(cfg) = resilience.breaker {
            self.breaker_observe(am, resp.transport_error().is_some(), cfg);
        }
        resp
    }

    /// Whether a decision query to `am` may go out: the circuit is
    /// closed, or its cooldown has elapsed (the query then acts as the
    /// half-open probe — its outcome closes or re-opens the circuit).
    fn breaker_admits(&self, am: &str) -> bool {
        let now = self.clock.now_ms();
        let mut states = self.breaker_states.lock();
        states.entry(am.to_owned()).or_default().open_until_ms <= now
    }

    /// Feeds one query outcome into `am`'s circuit: a transport failure
    /// counts toward (or extends) the open state, an application answer
    /// closes the circuit outright.
    fn breaker_observe(&self, am: &str, transport_failure: bool, cfg: BreakerConfig) {
        let mut states = self.breaker_states.lock();
        let state = states.entry(am.to_owned()).or_default();
        if transport_failure {
            state.failures = state.failures.saturating_add(1);
            if state.failures >= cfg.failure_threshold {
                state.open_until_ms = self.clock.now_ms() + cfg.cooldown_ms;
            }
        } else {
            state.failures = 0;
            state.open_until_ms = 0;
        }
    }

    fn enforce_legacy(
        &self,
        subject: Option<&str>,
        requester: &str,
        resource_id: &str,
        action: &Action,
        now: u64,
    ) -> Enforcement {
        self.stats.legacy_checks.fetch_add(1, Ordering::Relaxed);
        let acl = self.legacy_acl(resource_id).unwrap_or_default();
        let mut access =
            AccessRequest::new(&self.authority, resource_id, action.clone()).via_app(requester);
        if let Some(subject) = subject {
            access = access.by_user(subject);
        }
        let ctx = EvalContext::new(&access, now);
        let granted = acl.evaluate(&ctx) == Outcome::Permit;
        self.record(
            now,
            requester,
            resource_id,
            action,
            granted,
            DecisionPath::LegacyAcl,
        );
        if granted {
            Enforcement::Grant
        } else {
            Enforcement::Block(Response::forbidden("access denied by host access control"))
        }
    }

    fn record(
        &self,
        at_ms: u64,
        requester: &str,
        resource_id: &str,
        action: &Action,
        granted: bool,
        via: DecisionPath,
    ) {
        self.log.lock().push(HostLogEntry {
            at_ms,
            requester: requester.to_owned(),
            resource_id: resource_id.to_owned(),
            action: action.clone(),
            granted,
            via,
        });
    }

    /// Builds the global reference for a resource on this host.
    #[must_use]
    pub fn resource_ref(&self, resource_id: &str) -> ResourceRef {
        ResourceRef::new(&self.authority, resource_id)
    }
}

/// How one decision query (or batch item) concluded, normalized across
/// the single and batched wire paths so both settle through
/// [`HostCore::settle_decision`].
enum DecisionOutcome {
    /// A parsed 200 decision body (permit, deny, or per-item `error`).
    Body(DecisionBody),
    /// A parsed 200 *unchanged* reply to a conditional v2 query — the
    /// permit the Host already holds is still good (DESIGN.md §16).
    Unchanged(protocol::UnchangedBody),
    /// A 200 whose body did not parse — a protocol error, failed closed.
    Malformed,
    /// 401: the AM rejected the authorization token.
    TokenRejected,
    /// The query never got an application answer (timeout/unreachable);
    /// the only outcome eligible for degraded-mode stale service.
    Transport,
    /// Any other application failure (5xx and the rest): the AM answered,
    /// so it is taken at its word and degraded mode is skipped.
    Unavailable,
}

/// Normalizes a single-query `/protection/v1/decision` response. The body
/// is parsed as JSON rather than by substring search: a deny whose reason
/// happens to *contain* the text `"permit"` must stay a deny.
fn classify_decision(resp: &Response) -> DecisionOutcome {
    match resp.status {
        Status::Ok => {
            // The two reply kinds have disjoint required fields
            // (`unchanged: true` vs a string `decision`), so trying the
            // unchanged form first cannot misread a v1 body.
            if let Ok(body) = protocol::UnchangedBody::from_json(&resp.body) {
                return DecisionOutcome::Unchanged(body);
            }
            match DecisionBody::from_json(&resp.body) {
                Ok(body) => DecisionOutcome::Body(body),
                Err(_) => DecisionOutcome::Malformed,
            }
        }
        Status::Unauthorized => DecisionOutcome::TokenRejected,
        _ if resp.transport_error().is_some() => DecisionOutcome::Transport,
        _ => DecisionOutcome::Unavailable,
    }
}

/// Normalizes a `/protection/v1/decisions` batch response into one
/// outcome per batch member. A response-level failure (transport, 401,
/// 5xx, short/unparsable array) applies to every member: a batch is one
/// wire exchange, so its members share its fate.
fn classify_batch(resp: &Response, expected: usize) -> Vec<DecisionOutcome> {
    if matches!(resp.status, Status::Ok) {
        if let Ok(bodies) = protocol::parse_batch_response(&resp.body) {
            if bodies.len() == expected {
                return bodies.into_iter().map(DecisionOutcome::Body).collect();
            }
        }
        return (0..expected).map(|_| DecisionOutcome::Malformed).collect();
    }
    (0..expected)
        .map(|_| match resp.status {
            Status::Unauthorized => DecisionOutcome::TokenRejected,
            _ if resp.transport_error().is_some() => DecisionOutcome::Transport,
            _ => DecisionOutcome::Unavailable,
        })
        .collect()
}

/// A delegated, token-bearing access that classification could not
/// settle locally: it needs an AM decision. Carries what the query and
/// [`HostCore::settle_decision`] need; the access tuple is the cache key.
struct Miss<'t> {
    /// The delegation governing the resource (primary AM, host token).
    delegation: DelegationConfig,
    /// The resource owner.
    owner: String,
    /// The bearer token presented.
    token: &'t str,
    cache_key: CacheKey,
    /// SHA-256 of `token`.
    token_digest: [u8; 32],
}

/// What [`HostCore::classify`] made of one access.
enum Classified<'t> {
    /// Decided without an AM round trip.
    Settled(Enforcement),
    /// Needs an AM decision query.
    Miss(Miss<'t>),
}

/// Encodes one batch chunk's members as `/protection/v1/decisions`
/// request items.
fn batch_items(chunk: &[(usize, Miss<'_>)]) -> Vec<BatchItem> {
    chunk
        .iter()
        .map(|(_, miss)| BatchItem {
            token: miss.token.to_owned(),
            resource: miss.cache_key.1.clone(),
            action: miss.cache_key.2.to_string(),
            requester: miss.cache_key.0.clone(),
        })
        .collect()
}

/// A `/protection/v1/decisions` request carrying `body` to `to`'s AM.
fn batch_request(to: &DelegationConfig, body: &str) -> Request {
    Request::new(
        Method::Post,
        &format!("https://{}{}", to.am, protocol::BATCH_DECISIONS_PATH),
    )
    .with_param("host_token", &to.host_token)
    .with_body(body)
}

/// Extracts `cacheable_ms` from a decision response body; 0 unless the
/// body is a well-formed permit carrying one. Delegates to the shared
/// wire type; this wrapper keeps the historical parsing contract pinned
/// down by tests.
#[cfg(test)]
fn parse_cacheable_ms(body: &str) -> u64 {
    DecisionBody::parse_cacheable_ms(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ucam_policy::Subject;
    use ucam_webenv::protocol::SieveBody;
    use ucam_webenv::SimNet;
    use ucam_webenv::WebApp;

    fn host() -> HostCore {
        let host = HostCore::new("h.example", SimClock::new());
        host.put_resource("r1", "bob", "file", b"data".to_vec())
            .unwrap();
        host
    }

    /// A scripted AM: answers `/decision` with the canned body registered
    /// for the presented authorization token, 401 for anything else.
    struct FakeAm {
        authority: String,
        grants: Mutex<HashMap<String, String>>,
    }

    impl FakeAm {
        fn new() -> Arc<Self> {
            FakeAm::new_at("am.example")
        }

        fn new_at(authority: &str) -> Arc<Self> {
            Arc::new(FakeAm {
                authority: authority.to_owned(),
                grants: Mutex::new(HashMap::new()),
            })
        }

        fn grant(&self, token: &str, body: &str) {
            self.grants.lock().insert(token.to_owned(), body.to_owned());
        }

        fn revoke(&self, token: &str) {
            self.grants.lock().remove(token);
        }
    }

    impl WebApp for FakeAm {
        fn authority(&self) -> &str {
            &self.authority
        }

        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            if req.url.path() == protocol::BATCH_DECISIONS_PATH {
                let Ok(items) = protocol::parse_batch_request(&req.body) else {
                    return Response::bad_request("bad batch");
                };
                let grants = self.grants.lock();
                let bodies: Vec<DecisionBody> = items
                    .iter()
                    .map(|item| match grants.get(&item.token) {
                        Some(body) => DecisionBody::from_json(body).expect("canned body"),
                        None => DecisionBody::error("bad token"),
                    })
                    .collect();
                return Response::ok().with_body(protocol::encode_batch_response(&bodies));
            }
            let token = req.param("token").unwrap_or("");
            match self.grants.lock().get(token) {
                Some(body) => Response::ok().with_body(body.clone()),
                None => Response::with_status(Status::Unauthorized).with_body("bad token"),
            }
        }
    }

    fn permit_body(cacheable_ms: u64, epoch: u64) -> String {
        format!(
            "{{\"decision\":\"permit\",\"cacheable_ms\":{cacheable_ms},\"policy_epoch\":{epoch}}}"
        )
    }

    /// A host on `net` with `r1` owned by bob, delegated to the fake AM.
    fn delegated_host(net: &dyn Transport) -> HostCore {
        let h = HostCore::new("h.example", net.clock().clone());
        h.put_resource("r1", "bob", "file", b"data".to_vec())
            .unwrap();
        h.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "am.example".into(),
                host_token: "ht".into(),
                delegation_id: "d-1".into(),
            },
        );
        h
    }

    #[test]
    fn cached_permit_is_bound_to_bearer_token() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");

        // Fresh query populates the cache; the repeat is served from it.
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.stats().am_queries, 1);
        assert_eq!(h.stats().cache_hits, 1);

        // A different (garbage) bearer must not ride the warm cache: it
        // goes to the AM, which rejects it.
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("junk"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("garbage bearer must not be served from the cache"),
        }
        assert_eq!(h.stats().am_queries, 2);
        assert_eq!(h.stats().cache_hits, 1);
    }

    #[test]
    fn deny_body_containing_permit_text_stays_denied() {
        let net = SimNet::new();
        let am = FakeAm::new();
        // Adversarial body: a deny whose reason contains the magic string.
        am.grant(
            "tricky",
            "{\"decision\":\"deny\",\"reason\":\"say \\\"permit\\\" and \\\"cacheable_ms\\\":60000\"}",
        );
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("tricky"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Forbidden),
            Enforcement::Grant => panic!("deny body must not be mistaken for a permit"),
        }
        assert_eq!(h.decision_cache_len(), 0);
    }

    #[test]
    fn malformed_decision_body_fails_closed() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("odd", "certainly! \"permit\" granted");
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("odd"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unavailable),
            Enforcement::Grant => panic!("malformed body must fail closed"),
        }
    }

    #[test]
    fn cache_stays_bounded_and_sweeps_expired_entries() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        h.set_decision_cache_capacity(4);
        for i in 0..10 {
            let id = format!("x{i}");
            h.put_resource(&id, "bob", "file", vec![]).unwrap();
            let url = Url::new("h.example", &format!("/{id}"));
            assert!(h
                .enforce(&net, "req", None, &id, &Action::Read, Some("good"), &url)
                .is_grant());
            assert!(h.decision_cache_len() <= 4, "cache exceeded its bound");
        }
        assert_eq!(h.decision_cache_len(), 4);

        // Everything expires; the next insert sweeps the corpses out.
        net.clock().advance_ms(120_000);
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.decision_cache_len(), 1);
    }

    #[test]
    fn policy_epoch_advance_invalidates_cached_permit() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 5));
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.stats().cache_hits, 1);

        // Bob edits his policies: the AM now denies, and the epoch push
        // reaches the host. The cached permit must die with the epoch.
        am.revoke("good");
        h.note_policy_epoch("bob", 6);
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(_) => {}
            Enforcement::Grant => panic!("stale permit served after epoch advance"),
        }
        assert_eq!(h.stats().cache_hits, 1);
        assert_eq!(h.stats().am_queries, 2);
    }

    #[test]
    fn resource_crud() {
        let h = host();
        assert_eq!(h.resource("r1").unwrap().data, b"data");
        assert!(matches!(
            h.put_resource("r1", "bob", "file", vec![]),
            Err(HostError::AlreadyExists(_))
        ));
        h.update_resource("r1", b"new".to_vec()).unwrap();
        assert_eq!(h.resource("r1").unwrap().data, b"new");
        assert_eq!(h.resources_of("bob").len(), 1);
        assert!(h.resources_of("alice").is_empty());
        h.delete_resource("r1").unwrap();
        assert!(matches!(
            h.delete_resource("r1"),
            Err(HostError::NotFound(_))
        ));
    }

    #[test]
    fn prefix_listing() {
        let h = HostCore::new("h.example", SimClock::new());
        h.put_resource("dir/a", "bob", "file", vec![]).unwrap();
        h.put_resource("dir/b", "bob", "file", vec![]).unwrap();
        h.put_resource("other/c", "bob", "file", vec![]).unwrap();
        assert_eq!(h.ids_with_prefix("dir/"), vec!["dir/a", "dir/b"]);
    }

    #[test]
    fn owner_always_granted() {
        let h = host();
        let net = SimNet::new();
        let url = Url::new("h.example", "/r1");
        let result = h.enforce(
            &net,
            "browser:bob",
            Some("bob"),
            "r1",
            &Action::Delete,
            None,
            &url,
        );
        assert!(result.is_grant());
    }

    #[test]
    fn missing_resource_blocks_404() {
        let h = host();
        let net = SimNet::new();
        let url = Url::new("h.example", "/ghost");
        match h.enforce(&net, "x", None, "ghost", &Action::Read, None, &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::NotFound),
            Enforcement::Grant => panic!("must not grant a missing resource"),
        }
    }

    #[test]
    fn undelegated_falls_back_to_legacy_acl() {
        let h = host();
        let net = SimNet::new();
        let url = Url::new("h.example", "/r1");
        // Default-deny without an ACL.
        match h.enforce(&net, "req", Some("alice"), "r1", &Action::Read, None, &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Forbidden),
            Enforcement::Grant => panic!("expected deny"),
        }
        // Grant Alice read via the built-in mechanism.
        h.set_legacy_acl(
            "r1",
            AclMatrix::new().allow(Subject::User("alice".into()), Action::Read),
        );
        assert!(h
            .enforce(&net, "req", Some("alice"), "r1", &Action::Read, None, &url)
            .is_grant());
        assert_eq!(h.stats().legacy_checks, 2);
        assert_eq!(h.log().len(), 2);
    }

    #[test]
    fn delegated_without_token_redirects_to_am() {
        let h = host();
        h.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "am.example".into(),
                host_token: "ht".into(),
                delegation_id: "d-1".into(),
            },
        );
        let net = SimNet::new();
        let url = Url::new("h.example", "/r1").with_query("x", "1");
        match h.enforce(&net, "requester:app", None, "r1", &Action::Read, None, &url) {
            Enforcement::Block(resp) => {
                assert_eq!(resp.status, Status::Found);
                let loc = resp.location().unwrap();
                assert_eq!(loc.authority(), "am.example");
                assert_eq!(loc.path(), "/authorize");
                assert_eq!(loc.query("owner"), Some("bob"));
                assert_eq!(loc.query("resource"), Some("r1"));
                assert_eq!(loc.query("requester"), Some("requester:app"));
                assert!(loc.query("return").unwrap().contains("h.example"));
            }
            Enforcement::Grant => panic!("expected redirect"),
        }
        assert_eq!(h.stats().redirects, 1);
    }

    #[test]
    fn resource_delegation_overrides_user_delegation() {
        let h = host();
        h.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "am-a.example".into(),
                host_token: "t".into(),
                delegation_id: "d".into(),
            },
        );
        h.set_resource_delegation(
            "r1",
            DelegationConfig {
                am: "am-b.example".into(),
                host_token: "t2".into(),
                delegation_id: "d2".into(),
            },
        );
        assert_eq!(h.delegation_for("r1", "bob").unwrap().am, "am-b.example");
        assert_eq!(h.delegation_for("r2", "bob").unwrap().am, "am-a.example");
        h.clear_user_delegation("bob");
        assert_eq!(h.delegation_for("r2", "bob"), None);
    }

    #[test]
    fn am_unreachable_fails_closed() {
        let h = host();
        h.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "ghost-am.example".into(),
                host_token: "ht".into(),
                delegation_id: "d-1".into(),
            },
        );
        let net = SimNet::new(); // no AM registered
        let url = Url::new("h.example", "/r1");
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("token"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unavailable),
            Enforcement::Grant => panic!("must fail closed"),
        }
    }

    #[test]
    fn parse_cacheable_ms_variants() {
        assert_eq!(
            parse_cacheable_ms("{\"decision\":\"permit\",\"cacheable_ms\":60000}"),
            60000
        );
        assert_eq!(
            parse_cacheable_ms("{\"decision\":\"permit\",\"cacheable_ms\":0}"),
            0
        );
        assert_eq!(parse_cacheable_ms("{\"decision\":\"deny\"}"), 0);
        // Adversarial: a deny advertising a TTL must not yield one, and
        // non-JSON bodies parse to 0.
        assert_eq!(
            parse_cacheable_ms("{\"decision\":\"deny\",\"cacheable_ms\":60000}"),
            0
        );
        assert_eq!(parse_cacheable_ms("\"cacheable_ms\":5"), 0);
        assert_eq!(parse_cacheable_ms("not json at all"), 0);
    }

    #[test]
    fn stale_grace_serves_expired_permit_until_window_closes() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(1_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        h.set_resilience(ResilienceConfig::new().with_stale_grace_ms(500));
        let url = Url::new("h.example", "/r1");

        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        // Permit expires; AM partitions away. Within the grace window the
        // expired permit still serves.
        net.clock().advance_ms(1_100);
        net.set_offline("am.example", true);
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.stats().stale_served, 1);
        assert_eq!(h.max_served_staleness_ms(), 100);
        assert!(h.max_served_staleness_ms() <= 500, "grace invariant");
        assert!(matches!(
            h.log().last().unwrap().via,
            DecisionPath::StaleGrace
        ));

        // Past the window: fail closed.
        net.clock().advance_ms(500); // 600 ms past expiry
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unavailable),
            Enforcement::Grant => panic!("permit past its grace window must fail closed"),
        }
        assert_eq!(h.stats().stale_served, 1);

        // Healing restores normal service.
        net.set_offline("am.example", false);
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
    }

    #[test]
    fn epoch_stale_permit_is_never_grace_served() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(1_000, 5));
        net.register(am.clone());
        let h = delegated_host(&net);
        h.set_resilience(ResilienceConfig::new().with_stale_grace_ms(60_000));
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        // Bob edits his policies, the epoch push lands, then the AM
        // partitions. The huge grace window must NOT resurrect the permit:
        // a policy change always fails closed.
        h.note_policy_epoch("bob", 6);
        net.set_offline("am.example", true);
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(_) => {}
            Enforcement::Grant => panic!("epoch-stale permit grace-served"),
        }
        assert_eq!(h.stats().stale_served, 0);
    }

    #[test]
    fn application_answers_never_reach_degraded_mode() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(1_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        h.set_resilience(ResilienceConfig::new().with_stale_grace_ms(60_000));
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        // Permit expires but the AM stays up and now rejects the token.
        // The AM answered — degraded mode must not override it.
        net.clock().advance_ms(1_100);
        am.revoke("good");
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("an answering AM must be taken at its word"),
        }
        assert_eq!(h.stats().stale_served, 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_closed_again() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(0, 1)); // uncacheable: every access queries
        net.register(am.clone());
        let h = delegated_host(&net);
        h.set_resilience(ResilienceConfig::new().with_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 1_000,
        }));
        let url = Url::new("h.example", "/r1");
        let go =
            |h: &HostCore| h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url);

        net.set_offline("am.example", true);
        // Two real failures open the circuit…
        assert!(!go(&h).is_grant());
        assert!(!go(&h).is_grant());
        assert_eq!(h.stats().am_queries, 2);
        assert!(h.breaker_open("am.example"));
        // …after which queries fast-fail without a dispatch.
        assert!(!go(&h).is_grant());
        assert_eq!(h.stats().am_queries, 2);
        assert_eq!(h.stats().breaker_fast_fails, 1);

        // Cooldown elapses while the AM heals: the half-open probe goes
        // through, succeeds, and closes the circuit.
        net.clock().advance_ms(1_001);
        net.set_offline("am.example", false);
        assert!(go(&h).is_grant());
        assert!(!h.breaker_open("am.example"));
        assert_eq!(h.stats().am_queries, 3);

        // A failed probe re-opens for another cooldown.
        net.set_offline("am.example", true);
        assert!(!go(&h).is_grant());
        assert!(!go(&h).is_grant());
        assert!(h.breaker_open("am.example"));
        net.clock().advance_ms(1_001);
        assert!(!go(&h).is_grant()); // probe fails
        assert!(h.breaker_open("am.example"), "failed probe must re-open");
    }

    #[test]
    fn fallback_am_answers_when_primary_is_partitioned() {
        let net = SimNet::new();
        let primary = FakeAm::new();
        let secondary = FakeAm::new_at("am-b.example");
        secondary.grant("good", &permit_body(60_000, 1));
        net.register(primary.clone());
        net.register(secondary.clone());
        let h = delegated_host(&net);
        h.set_resilience(ResilienceConfig::new().with_fallback_am(
            "am.example",
            DelegationConfig {
                am: "am-b.example".into(),
                host_token: "ht-b".into(),
                delegation_id: "d-b".into(),
            },
        ));
        let url = Url::new("h.example", "/r1");

        net.set_offline("am.example", true);
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.stats().fallback_queries, 1);
        assert_eq!(h.stats().am_queries, 2, "primary try + fallback try");
        // The fallback's permit was cached like any other.
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.stats().cache_hits, 1);
        // An answering primary is never failed over: a deny from the
        // primary stands even though the fallback would permit.
        net.set_offline("am.example", false);
        h.flush_decision_cache();
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("primary's answer must stand"),
        }
        assert_eq!(h.stats().fallback_queries, 1);
    }

    #[test]
    fn am_retry_rides_out_transient_loss() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(0, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        h.set_resilience(
            ResilienceConfig::new().with_am_retry(ucam_webenv::RetryPolicy::default()),
        );
        let url = Url::new("h.example", "/r1");
        // Every 2nd dispatch is lost starting with the first: the initial
        // attempt times out, the retry lands.
        net.set_loss_every(2, 0);
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.stats().am_retries, 1);
        assert_eq!(h.stats().am_queries, 1, "one logical query");
        net.set_loss_every(0, 0);
    }

    #[test]
    fn cache_toggle_clears() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.decision_cache_len(), 1);
        h.set_cache_enabled(false);
        assert_eq!(h.decision_cache_len(), 0);
        // Disabled: repeat accesses query the AM every time, nothing is
        // inserted.
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.decision_cache_len(), 0);
        assert_eq!(h.stats().cache_hits, 0);
        h.set_cache_enabled(true);
        h.flush_decision_cache();
    }

    /// Builds a token-bearing read attempt for a batched round.
    fn read_attempt(requester: &str, resource_id: &str, token: &str) -> AccessAttempt {
        AccessAttempt {
            requester: requester.to_owned(),
            subject: None,
            resource_id: resource_id.to_owned(),
            action: Action::Read,
            bearer: Some(token.to_owned()),
            return_url: Url::new("h.example", &format!("/{resource_id}")),
        }
    }

    #[test]
    fn resilience_builder_round_trips_every_knob() {
        // The builder (the only resilience entry point since the
        // deprecated per-knob setters were removed) must land every
        // field exactly as written, and re-applying a config with a
        // knob absent must clear it.
        let b = HostCore::new("h.example", SimClock::new());
        b.set_resilience(
            ResilienceConfig::new()
                .with_breaker(BreakerConfig {
                    failure_threshold: 3,
                    cooldown_ms: 250,
                })
                .with_am_retry(RetryPolicy::default())
                .with_fallback_am(
                    "am.example",
                    DelegationConfig {
                        am: "am-b.example".into(),
                        host_token: "ht-b".into(),
                        delegation_id: "d-b".into(),
                    },
                )
                .with_stale_grace_ms(1_234),
        );
        let rb = b.resilience();
        assert_eq!(
            rb.breaker,
            Some(BreakerConfig {
                failure_threshold: 3,
                cooldown_ms: 250,
            })
        );
        assert_eq!(rb.stale_grace_ms, 1_234);
        assert!(rb.am_retry.is_some());
        assert_eq!(
            rb.fallback_ams.get(&("am.example".to_owned(), None)),
            Some(&DelegationConfig {
                am: "am-b.example".into(),
                host_token: "ht-b".into(),
                delegation_id: "d-b".into(),
            })
        );
        assert_eq!(
            rb.fallback_for("am.example", "anyone").map(|d| &d.am),
            Some(&"am-b.example".to_owned())
        );
        // Dropping the fallback is just applying a config without it.
        b.set_resilience(ResilienceConfig::new());
        let cleared = b.resilience();
        assert!(cleared.fallback_ams.is_empty());
        assert_eq!(cleared.breaker, None);
        assert!(cleared.am_retry.is_none());
        assert_eq!(cleared.stale_grace_ms, 0);
    }

    #[test]
    fn batched_round_coalesces_misses_into_ceil_n_over_b_round_trips() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        for i in 2..=5 {
            h.put_resource(&format!("r{i}"), "bob", "file", b"data".to_vec())
                .unwrap();
        }
        let attempts: Vec<AccessAttempt> = (1..=5)
            .map(|i| read_attempt("req", &format!("r{i}"), "good"))
            .collect();

        let results = h.enforce_batch(&net, &attempts, 2);
        assert!(results.iter().all(Enforcement::is_grant));
        // N=5 misses at B=2: exactly ⌈5/2⌉ = 3 wire round trips — two
        // full flushes plus one deadline flush.
        assert_eq!(net.stats().edge("h.example", "am.example"), 3);
        assert_eq!(h.stats().batch_flushes, 3);
        assert_eq!(h.stats().am_queries, 3);

        // The whole round is now cached: a repeat costs zero round trips.
        let results = h.enforce_batch(&net, &attempts, 2);
        assert!(results.iter().all(Enforcement::is_grant));
        assert_eq!(net.stats().edge("h.example", "am.example"), 3);
        assert_eq!(h.stats().cache_hits, 5);
    }

    #[test]
    fn partial_batches_against_different_ams_share_one_deadline_charge() {
        let net = SimNet::new();
        let am_a = FakeAm::new();
        let am_b = FakeAm::new_at("am-b.example");
        am_a.grant("good", &permit_body(60_000, 1));
        am_b.grant("good", &permit_body(60_000, 1));
        net.register(am_a.clone());
        net.register(am_b.clone());
        let h = delegated_host(&net);
        h.put_resource("r2", "carol", "file", b"data".to_vec())
            .unwrap();
        h.set_user_delegation(
            "carol",
            DelegationConfig {
                am: "am-b.example".into(),
                host_token: "ht-b".into(),
                delegation_id: "d-2".into(),
            },
        );
        let before = net.clock().now_ms();
        let results = h.enforce_batch(
            &net,
            &[
                read_attempt("req", "r1", "good"),
                read_attempt("req", "r2", "good"),
            ],
            8,
        );
        assert!(results.iter().all(Enforcement::is_grant));
        // Two partial batches (one per AM) wait out the deadline
        // concurrently: the clock moves once, not twice.
        assert_eq!(net.clock().now_ms() - before, BATCH_DEADLINE_MS);
        assert_eq!(h.stats().batch_flushes, 2);
    }

    #[test]
    fn batch_error_item_maps_to_token_rejection() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        h.put_resource("r2", "bob", "file", b"data".to_vec())
            .unwrap();
        let results = h.enforce_batch(
            &net,
            &[
                read_attempt("req", "r1", "good"),
                read_attempt("req", "r2", "expired"),
            ],
            8,
        );
        assert!(results[0].is_grant());
        match &results[1] {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("a per-item batch error must block"),
        }
    }

    #[test]
    fn per_owner_fallback_routes_each_owner_to_their_own_mirror() {
        let net = SimNet::new();
        let primary = FakeAm::new();
        let mirror_b = FakeAm::new_at("am-b.example");
        let mirror_c = FakeAm::new_at("am-c.example");
        // Each mirror only holds its own owner's delegation: bob's token
        // validates only at am-b, carol's only at am-c.
        mirror_b.grant("tok-bob", &permit_body(60_000, 1));
        mirror_c.grant("tok-carol", &permit_body(60_000, 1));
        net.register(primary.clone());
        net.register(mirror_b.clone());
        net.register(mirror_c.clone());
        let h = delegated_host(&net);
        h.put_resource("r2", "carol", "file", b"data".to_vec())
            .unwrap();
        h.set_user_delegation(
            "carol",
            DelegationConfig {
                am: "am.example".into(),
                host_token: "ht".into(),
                delegation_id: "d-2".into(),
            },
        );
        h.set_resilience(
            ResilienceConfig::new()
                .with_fallback_am_for_owner(
                    "am.example",
                    "bob",
                    DelegationConfig {
                        am: "am-b.example".into(),
                        host_token: "ht-b".into(),
                        delegation_id: "d-b".into(),
                    },
                )
                .with_fallback_am_for_owner(
                    "am.example",
                    "carol",
                    DelegationConfig {
                        am: "am-c.example".into(),
                        host_token: "ht-c".into(),
                        delegation_id: "d-c".into(),
                    },
                ),
        );
        net.set_offline("am.example", true);
        let url = Url::new("h.example", "/r");
        // Both owners share the partitioned primary, yet each query fails
        // over to that owner's own mirror — the old single-key fallback
        // map sent every owner to whichever mirror was registered last.
        assert!(h
            .enforce(
                &net,
                "req",
                None,
                "r1",
                &Action::Read,
                Some("tok-bob"),
                &url
            )
            .is_grant());
        assert!(h
            .enforce(
                &net,
                "req",
                None,
                "r2",
                &Action::Read,
                Some("tok-carol"),
                &url
            )
            .is_grant());
        assert_eq!(net.stats().edge("h.example", "am-b.example"), 1);
        assert_eq!(net.stats().edge("h.example", "am-c.example"), 1);
    }

    #[test]
    fn partial_batches_share_one_deadline_charge_across_fallbacks() {
        // The single-AM invariant ("all partial chunks share ONE clock
        // charge") must survive the worst case: every chunk's primary is
        // partitioned and each settles through a different per-owner
        // fallback mirror. The deadline is charged once, before any
        // dispatch — fallback failover adds round trips, never waits.
        let net = SimNet::new();
        let mirror_b = FakeAm::new_at("am-c.example");
        let mirror_c = FakeAm::new_at("am-d.example");
        mirror_b.grant("tok-bob", &permit_body(60_000, 1));
        mirror_c.grant("tok-carol", &permit_body(60_000, 1));
        net.register(FakeAm::new());
        net.register(FakeAm::new_at("am-b.example"));
        net.register(mirror_b.clone());
        net.register(mirror_c.clone());
        let h = delegated_host(&net);
        h.put_resource("r2", "carol", "file", b"data".to_vec())
            .unwrap();
        h.set_user_delegation(
            "carol",
            DelegationConfig {
                am: "am-b.example".into(),
                host_token: "ht-b".into(),
                delegation_id: "d-2".into(),
            },
        );
        h.set_resilience(
            ResilienceConfig::new()
                .with_fallback_am_for_owner(
                    "am.example",
                    "bob",
                    DelegationConfig {
                        am: "am-c.example".into(),
                        host_token: "ht-c".into(),
                        delegation_id: "d-c".into(),
                    },
                )
                .with_fallback_am_for_owner(
                    "am-b.example",
                    "carol",
                    DelegationConfig {
                        am: "am-d.example".into(),
                        host_token: "ht-d".into(),
                        delegation_id: "d-d".into(),
                    },
                ),
        );
        net.set_offline("am.example", true);
        net.set_offline("am-b.example", true);
        let before = net.clock().now_ms();
        let results = h.enforce_batch(
            &net,
            &[
                read_attempt("req", "r1", "tok-bob"),
                read_attempt("req", "r2", "tok-carol"),
            ],
            8,
        );
        assert!(results.iter().all(Enforcement::is_grant));
        // One deadline charge for both chunks, despite two distinct
        // primaries failing over to two distinct mirrors.
        assert_eq!(net.clock().now_ms() - before, BATCH_DEADLINE_MS);
        assert_eq!(h.stats().batch_flushes, 2);
        assert_eq!(h.stats().fallback_queries, 2);
        assert_eq!(net.stats().edge("h.example", "am-c.example"), 1);
        assert_eq!(net.stats().edge("h.example", "am-d.example"), 1);
    }

    #[test]
    fn stats_snapshot_never_observes_a_half_reset() {
        // Regression for the snapshot/reset tear: reset() used to zero
        // each counter independently, so a concurrent stats() could see
        // am_queries already zeroed while cache_hits still held its old
        // value. Increments still race a snapshot, so the writer bumps
        // cache_hits before am_queries and the snapshot loads am_queries
        // first: any coherent snapshot (reset or not) then has
        // cache_hits >= am_queries, however many writer iterations land
        // between its two loads. A snapshot torn across a reset (cache_hits
        // zeroed, am_queries not) breaks that.
        let h = Arc::new(HostCore::new("h.example", SimClock::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let h = Arc::clone(&h);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    h.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    h.stats.am_queries.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    if i.is_multiple_of(64) {
                        h.reset_stats();
                    }
                }
            })
        };
        for _ in 0..200_000 {
            let snap = h.stats();
            assert!(
                snap.cache_hits >= snap.am_queries,
                "torn snapshot: am_queries={} cache_hits={}",
                snap.am_queries,
                snap.cache_hits
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn reset_clears_every_counter_and_gauge() {
        let h = host();
        h.stats.am_queries.fetch_add(3, Ordering::Relaxed);
        h.stats.bump_sieve_hit();
        h.stats.bump_sieve_miss();
        h.stats.sieve_installs.fetch_add(1, Ordering::Relaxed);
        h.stats.sieve_rejects.fetch_add(1, Ordering::Relaxed);
        h.max_served_staleness_ms.store(99, Ordering::Relaxed);
        h.reset_stats();
        assert_eq!(h.stats(), PepStats::default());
        assert_eq!(h.max_served_staleness_ms(), 0);
    }

    // -- tier-1 capability sieve ----------------------------------------------

    /// A signed sieve for `delegated_host`'s bob (key `"ht"`) covering
    /// the given (token, resource, action, requester) tuples.
    fn sieve_of(epoch: u64, expires_at_ms: u64, tuples: &[(&str, &str, &str, &str)]) -> SieveBody {
        let entries = tuples
            .iter()
            .map(
                |(token, resource, action, requester)| protocol::SieveEntry {
                    fingerprint: protocol::sieve_fingerprint(token, resource, action, requester),
                    resource: (*resource).to_owned(),
                    expires_at_ms,
                },
            )
            .collect();
        SieveBody::build("bob", epoch, entries, b"ht")
    }

    #[test]
    fn sieve_hit_grants_without_am_cache_or_log() {
        let net = SimNet::new();
        net.register(FakeAm::new()); // would 401 this token if consulted
        let h = delegated_host(&net);
        assert!(h.install_sieve(&sieve_of(1, 60_000, &[("tok", "r1", "read", "req")])));
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
        let stats = h.stats();
        assert_eq!(stats.sieve_installs, 1);
        assert_eq!(stats.sieve_hits, 1);
        assert_eq!(stats.am_queries, 0);
        assert_eq!(stats.cache_hits, 0);
        // The tier-1 path writes nothing shared — not even the log.
        assert!(h.log().is_empty());
        // Wrong action, requester or token: exact-match miss, tier-2
        // decides (and the fake AM rejects).
        assert!(!h
            .enforce(&net, "req", None, "r1", &Action::Write, Some("tok"), &url)
            .is_grant());
        assert!(!h
            .enforce(&net, "eve", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
        assert!(h.stats().sieve_misses >= 2);
    }

    #[test]
    fn sieve_installs_fail_closed_on_any_doubt() {
        let net = SimNet::new();
        let h = delegated_host(&net);
        h.put_resource("r2", "carol", "file", b"data".to_vec())
            .unwrap();

        // Wrong signing key.
        let bad_key = SieveBody::build(
            "bob",
            1,
            vec![protocol::SieveEntry {
                fingerprint: protocol::sieve_fingerprint("tok", "r1", "read", "req"),
                resource: "r1".into(),
                expires_at_ms: 60_000,
            }],
            b"not-ht",
        );
        assert!(!h.install_sieve(&bad_key));

        // Owner with no delegation here.
        let no_owner = SieveBody::build("mallory", 1, Vec::new(), b"ht");
        assert!(!h.install_sieve(&no_owner));

        // Entry for a resource bob does not own.
        assert!(!h.install_sieve(&sieve_of(1, 60_000, &[("tok", "r2", "read", "req")])));

        // Entry for a resource that does not exist.
        assert!(!h.install_sieve(&sieve_of(1, 60_000, &[("tok", "ghost", "read", "req")])));

        // Entry for a resource overridden to a different AM: the signer
        // does not govern it.
        h.put_resource("r3", "bob", "file", b"data".to_vec())
            .unwrap();
        h.set_resource_delegation(
            "r3",
            DelegationConfig {
                am: "other-am.example".into(),
                host_token: "other-ht".into(),
                delegation_id: "d-x".into(),
            },
        );
        assert!(!h.install_sieve(&sieve_of(1, 60_000, &[("tok", "r3", "read", "req")])));

        assert_eq!(h.stats().sieve_rejects, 5);
        assert_eq!(h.stats().sieve_installs, 0);
    }

    /// A signed delta for `delegated_host`'s bob (key `"ht"`): `added`
    /// tuples become full entries, `removed` tuples bare fingerprints.
    fn delta_of(
        epoch: u64,
        base_epoch: u64,
        added: &[(&str, &str, &str, &str)],
        removed: &[(&str, &str, &str, &str)],
    ) -> protocol::SieveDeltaBody {
        let added = added
            .iter()
            .map(
                |(token, resource, action, requester)| protocol::SieveEntry {
                    fingerprint: protocol::sieve_fingerprint(token, resource, action, requester),
                    resource: (*resource).to_owned(),
                    expires_at_ms: 60_000,
                },
            )
            .collect();
        let removed = removed
            .iter()
            .map(|(token, resource, action, requester)| {
                protocol::sieve_fingerprint(token, resource, action, requester)
            })
            .collect();
        protocol::SieveDeltaBody::build("bob", epoch, base_epoch, added, removed, b"ht")
    }

    #[test]
    fn sieve_delta_applies_on_exact_base_and_narrows() {
        let net = SimNet::new();
        net.register(FakeAm::new()); // rejects anything that reaches tier-2
        let h = delegated_host(&net);
        h.put_resource("r2", "bob", "file", b"data".to_vec())
            .unwrap();
        assert!(h.install_sieve(&sieve_of(3, 60_000, &[("tok", "r1", "read", "req")])));

        // base 3 → epoch 4: add r2's entry, drop r1's.
        let delta = delta_of(
            4,
            3,
            &[("tok2", "r2", "read", "req")],
            &[("tok", "r1", "read", "req")],
        );
        assert_eq!(h.install_sieve_delta(&delta), SieveDeltaOutcome::Installed);

        let url = Url::new("h.example", "/r");
        // The added entry serves on tier-1; the removed one falls through
        // to tier-2 where the fake AM rejects it.
        assert!(h
            .enforce(&net, "req", None, "r2", &Action::Read, Some("tok2"), &url)
            .is_grant());
        assert!(!h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
        let stats = h.stats();
        assert_eq!(stats.sieve_installs, 1);
        assert_eq!(stats.sieve_delta_installs, 1);
        assert_eq!(stats.sieve_resyncs, 0);
        assert_eq!(stats.sieve_hits, 1);

        // Re-adding an already-known fingerprint only moves its deadline:
        // the indexes must not grow a duplicate.
        let rebump = delta_of(5, 4, &[("tok2", "r2", "read", "req")], &[]);
        assert_eq!(h.install_sieve_delta(&rebump), SieveDeltaOutcome::Installed);
        let snap = h.sieve_snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.owner_index.get("bob").map(Vec::len), Some(1));
    }

    #[test]
    fn sieve_delta_base_mismatch_answers_resync() {
        let net = SimNet::new();
        net.register(FakeAm::new());
        let h = delegated_host(&net);

        // No sieve installed at all: nothing to base a delta on.
        let orphan = delta_of(1, 0, &[("tok", "r1", "read", "req")], &[]);
        assert_eq!(
            h.install_sieve_delta(&orphan),
            SieveDeltaOutcome::BaseMismatch
        );

        assert!(h.install_sieve(&sieve_of(5, 60_000, &[("tok", "r1", "read", "req")])));
        // Stale base (4 ≠ 5), and a delta that would rewind the epoch.
        let stale = delta_of(6, 4, &[], &[]);
        assert_eq!(
            h.install_sieve_delta(&stale),
            SieveDeltaOutcome::BaseMismatch
        );
        let rewind = delta_of(3, 5, &[], &[]);
        assert_eq!(
            h.install_sieve_delta(&rewind),
            SieveDeltaOutcome::BaseMismatch
        );

        // A policy-epoch advance purges the sieve: the next delta finds
        // no base and must trigger a full reship.
        h.note_policy_epoch("bob", 6);
        let after_purge = delta_of(7, 5, &[], &[]);
        assert_eq!(
            h.install_sieve_delta(&after_purge),
            SieveDeltaOutcome::BaseMismatch
        );

        let stats = h.stats();
        assert_eq!(stats.sieve_resyncs, 4);
        assert_eq!(stats.sieve_delta_installs, 0);
        assert_eq!(stats.sieve_rejects, 0);
    }

    #[test]
    fn sieve_delta_rejects_fail_closed() {
        let net = SimNet::new();
        net.register(FakeAm::new());
        let h = delegated_host(&net);
        h.put_resource("r2", "carol", "file", b"data".to_vec())
            .unwrap();
        assert!(h.install_sieve(&sieve_of(1, 60_000, &[("tok", "r1", "read", "req")])));

        // Wrong signing key.
        let bad_key = protocol::SieveDeltaBody::build("bob", 2, 1, Vec::new(), Vec::new(), b"no");
        assert_eq!(h.install_sieve_delta(&bad_key), SieveDeltaOutcome::Rejected);

        // Tampered after signing.
        let mut tampered = delta_of(2, 1, &[], &[]);
        tampered.epoch = 9;
        assert_eq!(
            h.install_sieve_delta(&tampered),
            SieveDeltaOutcome::Rejected
        );

        // An added entry for a resource bob does not own, and one for a
        // resource that does not exist: one bad entry rejects the body.
        for resource in ["r2", "ghost"] {
            let foreign = delta_of(2, 1, &[("tok", resource, "read", "req")], &[]);
            assert_eq!(h.install_sieve_delta(&foreign), SieveDeltaOutcome::Rejected);
        }

        // Owner with no delegation here.
        let no_owner = protocol::SieveDeltaBody::build("mallory", 2, 1, vec![], vec![], b"ht");
        assert_eq!(
            h.install_sieve_delta(&no_owner),
            SieveDeltaOutcome::Rejected
        );

        let stats = h.stats();
        assert_eq!(stats.sieve_rejects, 5);
        assert_eq!(stats.sieve_delta_installs, 0);
        // The installed sieve is untouched by every rejected delta.
        let url = Url::new("h.example", "/r");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
    }

    #[test]
    fn epoch_advance_purges_the_sieve_and_blocks_stale_reinstalls() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("tok", &permit_body(60_000, 7));
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        assert!(h.install_sieve(&sieve_of(5, 60_000, &[("tok", "r1", "read", "req")])));

        // The owner's policy moves to epoch 6: tier-1 empties, the next
        // access takes the wire (and is granted there).
        h.note_policy_epoch("bob", 6);
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
        assert_eq!(h.stats().sieve_hits, 0);
        assert_eq!(h.stats().am_queries, 1);

        // A delayed push of the epoch-5 sieve must not resurrect it.
        assert!(!h.install_sieve(&sieve_of(5, 60_000, &[("tok", "r1", "read", "req")])));
        // A same-or-newer one installs fine.
        assert!(h.install_sieve(&sieve_of(7, 60_000, &[("tok", "r1", "read", "req")])));
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
        assert_eq!(h.stats().sieve_hits, 1);
    }

    #[test]
    fn sieve_entries_expire_and_fall_through_to_tier2() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("tok", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        let now = net.clock().now_ms();
        assert!(h.install_sieve(&sieve_of(1, now + 50, &[("tok", "r1", "read", "req")])));
        net.clock().advance_ms(60);
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url)
            .is_grant());
        assert_eq!(h.stats().sieve_hits, 0);
        assert_eq!(h.stats().sieve_misses, 1);
        assert_eq!(h.stats().am_queries, 1);
    }

    #[test]
    fn deletion_and_redelegation_purge_their_sieve_entries() {
        let net = SimNet::new();
        net.register(FakeAm::new());
        let h = delegated_host(&net);
        h.put_resource("r2", "bob", "file", b"data".to_vec())
            .unwrap();
        assert!(h.install_sieve(&sieve_of(
            1,
            60_000,
            &[("tok", "r1", "read", "req"), ("tok", "r2", "read", "req")],
        )));
        let url = Url::new("h.example", "/r1");

        // Deleting r1 drops its entry: the attempt now 404s instead of
        // riding a stale grant.
        h.delete_resource("r1").unwrap();
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("tok"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::NotFound),
            Enforcement::Grant => panic!("sieve entry outlived its resource"),
        }
        // r2's entry survives the purge of r1 …
        assert!(h
            .enforce(&net, "req", None, "r2", &Action::Read, Some("tok"), &url)
            .is_grant());
        assert_eq!(h.stats().sieve_hits, 1);

        // … until the owner re-delegates, which voids the signing key.
        h.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "am-b.example".into(),
                host_token: "ht-2".into(),
                delegation_id: "d-2".into(),
            },
        );
        assert!(!h
            .enforce(&net, "req", None, "r2", &Action::Read, Some("tok"), &url)
            .is_grant());
        assert_eq!(h.stats().sieve_hits, 1);
    }

    #[test]
    fn sieve_hits_settle_batched_rounds_off_the_wire() {
        let net = SimNet::new();
        net.register(FakeAm::new());
        let h = delegated_host(&net);
        h.put_resource("r2", "bob", "file", b"data".to_vec())
            .unwrap();
        assert!(h.install_sieve(&sieve_of(
            1,
            60_000,
            &[("tok", "r1", "read", "req"), ("tok", "r2", "read", "req")],
        )));
        let results = h.enforce_batch(
            &net,
            &[
                read_attempt("req", "r1", "tok"),
                read_attempt("req", "r2", "tok"),
            ],
            8,
        );
        assert!(results.iter().all(Enforcement::is_grant));
        assert_eq!(net.stats().edge("h.example", "am.example"), 0);
        assert_eq!(h.stats().sieve_hits, 2);
        assert_eq!(h.stats().batch_flushes, 0);
    }

    #[test]
    fn batched_cache_hit_counts_like_a_single_enforce() {
        // A batched round classifies each attempt once, exactly as
        // `enforce` does: a cache hit behind an installed sieve is one
        // sieve miss and one cache hit on either route, never a second
        // probe of the sieve.
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        // A sieve for some other tuple: installed, so every probe counts.
        assert!(h.install_sieve(&sieve_of(1, 60_000, &[("other", "r1", "read", "req")])));
        let url = Url::new("h.example", "/r1");
        let single = || {
            h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
                .is_grant()
        };
        assert!(single(), "the first access learns the permit");

        h.reset_stats();
        assert!(single());
        let enforced = h.stats();
        assert_eq!((enforced.sieve_misses, enforced.cache_hits), (1, 1));

        h.reset_stats();
        let results = h.enforce_batch(&net, &[read_attempt("req", "r1", "good")], 8);
        assert!(results[0].is_grant());
        let batched = h.stats();
        assert_eq!((batched.sieve_misses, batched.cache_hits), (1, 1));
        assert_eq!(batched, enforced);
        assert_eq!(net.stats().edge("h.example", "am.example"), 1);
    }
}
