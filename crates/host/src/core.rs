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
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ucam_policy::{AccessRequest, AclMatrix, Action, EvalContext, Outcome};
use ucam_webenv::{
    protocol, BatchItem, Counters, DecisionBody, RecordFields, RecordRing, Request, Response,
    RetryPolicy, SimClock, Status, Transport, TransportError, Url,
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

/// How many entries the host-local access log keeps: the newest, oldest
/// first. A long-running Host's log stays bounded, as the AM's audit log
/// does.
const HOST_LOG_CAP: usize = 4096;

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

/// An access-log record's typed part in its ring slot. Its text fields
/// are the requester, the resource id and a custom action's name.
#[derive(Debug)]
struct LogMeta {
    at_ms: u64,
    /// The action as [`Action::pack`] packs it.
    action: u8,
    granted: bool,
    via: DecisionPath,
}

/// The access log: its records in 64-byte slots of 43 text bytes and
/// three fields, which the records the protocol makes fit (DESIGN.md §13).
type AccessLog = RecordRing<LogMeta, 43, 3>;

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
    /// Always 0: decision-level invalidation push is gone, and the
    /// capability sieve keeps a Host fresh after an edit (DESIGN.md §16).
    /// Kept so that existing readers still build.
    pub invalidated_evictions: u64,
    /// Conditional `/protection/v2/decision` revalidation queries sent
    /// with an `if_epoch` precondition, counted where `am_queries` is:
    /// once per query that leaves for the primary AM. A query an open
    /// breaker fast-fails is not counted, nor is its fallback query,
    /// which never carries the precondition.
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
    user_delegations: HashMap<String, Arc<DelegationConfig>>,
    /// resource id -> delegation override (different AM per resource).
    resource_delegations: HashMap<String, Arc<DelegationConfig>>,
    /// resource id -> built-in ACL (legacy mechanism).
    legacy_acls: HashMap<String, AclMatrix>,
}

/// The PEP counter cells behind [`PepStats`], in bump order: where one
/// path bumps two counters, the later one sits at the higher index, so a
/// snapshot (highest index first) never shows it without the earlier.
#[derive(Clone, Copy)]
enum Pep {
    SieveHits,
    SieveMisses,
    CacheHits,
    Redirects,
    LegacyChecks,
    Revalidations,
    BatchFlushes,
    BreakerFastFails,
    AmQueries,
    AmRetries,
    FallbackQueries,
    RevalidationsUnchanged,
    StaleServed,
    SieveInstalls,
    SieveRejects,
    SieveDeltaInstalls,
    SieveResyncs,
}

/// Number of [`Pep`] cells.
const PEP_CELLS: usize = Pep::SieveResyncs as usize + 1;

impl From<Pep> for usize {
    fn from(cell: Pep) -> usize {
        cell as usize
    }
}

// -- the permit store: tier-1 sieve, tier-2 decision cache (DESIGN.md §8, §12) --

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

/// The published half of the tier-1 enforcement table: every fingerprint
/// the AM has vouched for, with its expiry. A probe is a hit iff the
/// fingerprint is present and `now < expiry`.
///
/// Entries are **exact** (full fingerprints, not a Bloom filter): a
/// false positive here would *grant* an access the AM never permitted,
/// which no space saving justifies. A false negative merely costs a
/// tier-2 round trip.
type SieveMap = HashMap<protocol::SieveFingerprint, u64, FpHashBuilder>;

/// Tier 2's map, keyed by the [`protocol::tuple_digest`] of the
/// `(token, resource, action, requester)` tuple that earned each permit —
/// the digest the sieve probe already computes, hashed by [`FpHasher`]
/// as tier 1's fingerprints are. A permit is bound to its token by all
/// 256 bits; a different (possibly garbage) bearer must take the full
/// decision-query path.
type CacheMap = HashMap<[u8; 32], CachedDecision, FpHashBuilder>;

/// One cached permit decision (§V.B.6), stored under its tuple's digest.
///
/// A cached entry may satisfy a later request only when *all* of these
/// hold: the same requester presents the **same bearer token** (the
/// access tuple's full digest is the key), the resource is still
/// governed by the delegation the permit was learned under, the entry's
/// TTL has not elapsed, and the owner's policy epoch under that
/// delegation has not advanced since the AM stamped the decision.
#[derive(Debug)]
struct CachedDecision {
    expires_at_ms: u64,
    /// Resource owner whose policies produced the decision.
    owner: String,
    /// The resource the permit is for, for purges.
    resource_id: String,
    /// The delegation the decision query went out under. The entry is
    /// served only while this same delegation governs the resource, and
    /// its epoch is judged against this delegation's floor.
    delegation: Arc<DelegationConfig>,
    /// The owner's policy epoch at decision time.
    epoch: u64,
    /// Second-chance bit: set on every hit, cleared once by the evictor
    /// before the entry becomes an eviction victim.
    referenced: AtomicBool,
}

/// The epochs the Host tracks for one owner under one delegation, named
/// by the delegation's host token. Epochs are per AM: another AM's run
/// independently, so switching AMs starts a fresh floor, while
/// re-installing the same delegation (the same host token) keeps this
/// one.
#[derive(Debug)]
struct Epochs {
    /// The delegation, shared with whoever installed it, not copied.
    delegation: Arc<DelegationConfig>,
    /// The freshest policy epoch seen for the owner under this
    /// delegation: pushed, installed with a sieve or stamped on a
    /// decision reply. It only rises, and the generation is never above
    /// it. A tier-2 entry stamped below it is dead and never kept; a
    /// sieve body or delta must clear it.
    floor: u64,
    /// The generation of the owner's sieve installed under this
    /// delegation: the epoch it was compiled under, or the advance that
    /// emptied it. A delta applies only on exactly this base.
    generation: Option<u64>,
}

impl Epochs {
    /// Raises the floor to `epoch`; returns whether it rose.
    fn raise(&mut self, epoch: u64) -> bool {
        let rose = epoch > self.floor;
        self.floor = self.floor.max(epoch);
        rose
    }
}

/// Every AM decision the Host holds, in two tiers under one lock
/// ([`HostCore::permits`]) and one epoch floor per owner and delegation.
///
/// * Tier 1 is the capability sieve (DESIGN.md §12): what AM-signed
///   sieves vouched for. Only `sieve` is published: readers clone its
///   `Arc` and probe without any lock, and an edit copies it
///   (`Arc::make_mut`) only when it adds, moves or removes fingerprints
///   while readers hold it. The indexes are edited in place and never
///   cloned.
/// * Tier 2 is the decision cache (§V.B.6): permits learned from
///   decision replies, keyed by the access tuple's digest, bounded,
///   evicted second-chance over insertion order — deterministic for a
///   deterministic request sequence, unlike anything keyed on map
///   iteration order.
///
/// Each Host mutation that can void a permit is one method here that
/// covers both tiers: an epoch advance, a sieve body or delta, a
/// cacheable reply, a resource deletion or override, and an owner's
/// delegation change. None leaves one tier serving what it dropped from
/// the other.
struct PermitStore {
    /// Tier 1: fingerprint → expiry (ms since epoch), the map readers
    /// probe.
    sieve: Arc<SieveMap>,
    /// owner → that owner's fingerprints.
    owner_index: HashMap<String, Vec<protocol::SieveFingerprint>>,
    /// resource id → its fingerprints.
    resource_index: HashMap<String, Vec<protocol::SieveFingerprint>>,
    /// Tier 2: at most this many entries; 0 caches nothing.
    capacity: usize,
    entries: CacheMap,
    /// Digests in insertion order, driving the second-chance sweep.
    order: VecDeque<[u8; 32]>,
    /// Degraded-mode grace window (ms past TTL expiry) within which an
    /// expired tier-2 **permit** may still be served when the AM is
    /// unreachable at the transport level. 0 (the default) disables
    /// degraded mode. Epoch-stale entries are never grace-served: a
    /// policy change always fails closed regardless of this window.
    stale_grace_ms: u64,
    /// A lower bound on every tier-2 entry's `expires_at_ms` (`u64::MAX`
    /// when nothing was inserted since the last sweep). Until it plus the
    /// grace window has passed no entry can be swept, so
    /// [`PermitStore::insert`] skips the sweep.
    earliest_expiry_ms: u64,
    /// owner → their [`Epochs`], one per delegation the Host has seen an
    /// epoch under.
    epochs: HashMap<String, Vec<Epochs>>,
}

impl PermitStore {
    fn new() -> Self {
        PermitStore {
            sieve: Arc::default(),
            owner_index: HashMap::new(),
            resource_index: HashMap::new(),
            capacity: DEFAULT_DECISION_CACHE_CAPACITY,
            entries: CacheMap::default(),
            order: VecDeque::new(),
            stale_grace_ms: 0,
            earliest_expiry_ms: u64::MAX,
            epochs: HashMap::new(),
        }
    }

    /// `owner`'s [`Epochs`] under `delegation` (by its host token), made
    /// (at floor 0) when missing. The owner is copied only then: nearly
    /// every call names a known pair.
    fn epochs_mut(&mut self, owner: &str, delegation: &Arc<DelegationConfig>) -> &mut Epochs {
        if !self.epochs.contains_key(owner) {
            self.epochs.insert(owner.to_owned(), Vec::new());
        }
        let list = self
            .epochs
            .get_mut(owner)
            .expect("the owner was keyed above");
        let token = &delegation.host_token;
        let at = match list.iter().position(|e| &e.delegation.host_token == token) {
            Some(at) => at,
            None => {
                list.reserve_exact(1);
                list.push(Epochs {
                    delegation: Arc::clone(delegation),
                    floor: 0,
                    generation: None,
                });
                list.len() - 1
            }
        };
        &mut list[at]
    }

    /// `owner`'s epoch floor under `token`'s delegation (0 while none is
    /// known).
    fn floor(&self, owner: &str, token: &str) -> u64 {
        epochs_under(self.epochs.get(owner), token).map_or(0, |epochs| epochs.floor)
    }

    /// Whether `entry` was stamped before its owner's floor under its
    /// delegation: such an entry is dead for every use.
    fn behind_floor(&self, entry: &CachedDecision) -> bool {
        entry.epoch < self.floor(&entry.owner, &entry.delegation.host_token)
    }

    // -- mutations, each covering both tiers ----------------------------------

    /// An epoch advance for `owner` (a push, or a note relayed out of
    /// band), which names no delegation: raises each of the owner's
    /// floors and the one under `current`, the host token of the owner's
    /// delegation here, dropping the tier-2 entries stamped below them.
    /// Drops the owner's tier-1 entries when the generation installed
    /// under `current` is older.
    fn advance(&mut self, owner: &str, current: Option<&Arc<DelegationConfig>>, epoch: u64) {
        let mut rose = false;
        if let Some(delegation) = current {
            rose |= self.epochs_mut(owner, delegation).raise(epoch);
        }
        for epochs in self.epochs.get_mut(owner).into_iter().flatten() {
            rose |= epochs.raise(epoch);
        }
        if rose {
            self.drop_below_floors(owner);
        }
        let Some(delegation) = current else { return };
        let epochs = self.epochs_mut(owner, delegation);
        if epochs.generation.is_some_and(|g| g < epoch) {
            epochs.generation = Some(epoch);
            self.drop_sieve_owner(owner);
        }
    }

    /// A full sieve body for `owner` at `epoch`, its entries vouched under
    /// `delegation`: replaces the owner's tier 1 iff `epoch` clears that
    /// delegation's floor, so a delayed push can never resurrect revoked
    /// permits. Returns whether it was installed.
    fn install_body(
        &mut self,
        owner: &str,
        delegation: &Arc<DelegationConfig>,
        epoch: u64,
        vouched: &[protocol::SieveEntry],
    ) -> bool {
        if epoch < self.floor(owner, &delegation.host_token) {
            return false;
        }
        self.drop_sieve_owner(owner);
        self.install(owner, delegation, epoch, vouched);
        true
    }

    /// A sieve delta, its added entries vouched under `delegation`:
    /// applies iff the generation installed under it is exactly the
    /// delta's base and its epoch clears both the base and that
    /// delegation's floor. Returns whether it applied.
    fn install_delta(
        &mut self,
        delta: &protocol::SieveDeltaBody,
        delegation: &Arc<DelegationConfig>,
        vouched: &[protocol::SieveEntry],
    ) -> bool {
        let token = &delegation.host_token;
        let epochs = epochs_under(self.epochs.get(&delta.owner), token);
        let admit = epochs.and_then(|e| e.generation) == Some(delta.base_epoch)
            && delta.epoch >= delta.base_epoch
            && delta.epoch >= self.floor(&delta.owner, token);
        if admit {
            self.remove_fingerprints(&delta.removed);
            self.install(&delta.owner, delegation, delta.epoch, vouched);
        }
        admit
    }

    /// A cacheable decision reply: raises the owner's floor under the
    /// delegation the query went out under to the reply's epoch (tier 1
    /// keeps what its signer vouched for) and caches the permit under the
    /// tuple's `digest`.
    fn learn(&mut self, digest: [u8; 32], entry: CachedDecision, now: u64) {
        self.raise_floor(&entry.owner, &entry.delegation, entry.epoch);
        self.insert(digest, entry, now);
    }

    /// A resource deleted, or overridden to another delegation: drops its
    /// permits from both tiers.
    fn purge_resource(&mut self, resource_id: &str) {
        if let Some(fps) = self.resource_index.remove(resource_id) {
            let sieve = Arc::make_mut(&mut self.sieve);
            for fp in &fps {
                sieve.remove(fp);
            }
            for list in self.owner_index.values_mut() {
                list.retain(|fp| sieve.contains_key(fp));
            }
            self.owner_index.retain(|_, v| !v.is_empty());
        }
        retain(&mut self.entries, &mut self.order, |entry| {
            entry.resource_id != resource_id
        });
    }

    /// An owner's delegation set, switched or removed: drops their permits
    /// from both tiers, since they were vouched under the old delegation's
    /// secret. Each delegation's floor and generation stay, so re-installing
    /// the same delegation cannot let a delayed old sieve resurrect revoked
    /// permits.
    fn purge_owner(&mut self, owner: &str) {
        self.drop_sieve_owner(owner);
        retain(&mut self.entries, &mut self.order, |entry| {
            entry.owner != owner
        });
    }

    // -- tier 2 ----------------------------------------------------------------

    /// The tier-2 entry for the tuple `digest` names if it was learned
    /// under `delegation`, the one governing the resource now: the
    /// validity every lookup, revalidation and re-arm shares before its
    /// own TTL or epoch test. No entry sits below its floor (`insert`
    /// refuses one, every floor raise drops them), so none is checked
    /// here.
    fn bound_entry(
        &self,
        digest: &[u8; 32],
        delegation: &Arc<DelegationConfig>,
    ) -> Option<&CachedDecision> {
        let entry = self.entries.get(digest)?;
        Arc::ptr_eq(&entry.delegation, delegation).then_some(entry)
    }

    /// Serves a hit iff unexpired, token-bound, and epoch-fresh under the
    /// governing delegation.
    fn lookup(&self, digest: &[u8; 32], delegation: &Arc<DelegationConfig>, now: u64) -> bool {
        match self.bound_entry(digest, delegation) {
            Some(entry) if entry.expires_at_ms > now => {
                entry.referenced.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Degraded-mode lookup: serves an **expired** permit that is still
    /// within the grace window, token-bound and epoch-fresh. Returns the
    /// staleness (ms past expiry) on a hit; the caller asserts it stays
    /// within the window it configured. Only ever consulted after a
    /// transport-level AM failure — a fresh entry would already have been
    /// served by [`PermitStore::lookup`].
    fn lookup_stale(
        &self,
        digest: &[u8; 32],
        delegation: &Arc<DelegationConfig>,
        now: u64,
    ) -> Option<u64> {
        if self.stale_grace_ms == 0 {
            return None;
        }
        // A policy change (epoch advance) always fails closed.
        let entry = self.bound_entry(digest, delegation)?;
        // Past the grace window: fail closed, the permit is gone.
        if now >= entry.expires_at_ms.saturating_add(self.stale_grace_ms) {
            return None;
        }
        entry.referenced.store(true, Ordering::Relaxed);
        Some(now.saturating_sub(entry.expires_at_ms))
    }

    /// The epoch of an **expired** but otherwise valid entry — same
    /// token, epoch-fresh — that a conditional `if_epoch` revalidation
    /// query could cheaply re-arm. `None` when there is nothing worth
    /// revalidating (no entry, live entry, different token, stale epoch).
    fn revalidation_epoch(
        &self,
        digest: &[u8; 32],
        delegation: &Arc<DelegationConfig>,
        now: u64,
    ) -> Option<u64> {
        let entry = self.bound_entry(digest, delegation)?;
        (entry.expires_at_ms <= now).then_some(entry.epoch)
    }

    /// Re-arms an expired entry after the AM confirmed it unchanged:
    /// extends its TTL without re-learning the decision. Fail-closed on
    /// any mismatch (entry gone, different token, epoch moved) — the
    /// unchanged reply then re-arms nothing and the caller refuses.
    fn rearm(
        &mut self,
        digest: &[u8; 32],
        delegation: &Arc<DelegationConfig>,
        epoch: u64,
        expires_at_ms: u64,
    ) -> bool {
        let valid = self
            .bound_entry(digest, delegation)
            .is_some_and(|entry| entry.epoch == epoch);
        match self.entries.get_mut(digest) {
            Some(entry) if valid => {
                entry.expires_at_ms = expires_at_ms;
                entry.referenced.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Raises `owner`'s floor under `delegation` to `epoch`, dropping the
    /// tier-2 entries it leaves stamped below it.
    fn raise_floor(&mut self, owner: &str, delegation: &Arc<DelegationConfig>, epoch: u64) {
        if self.epochs_mut(owner, delegation).raise(epoch) {
            self.drop_below_floors(owner);
        }
    }

    /// Drops `owner`'s tier-2 entries stamped below their delegation's
    /// floor.
    fn drop_below_floors(&mut self, owner: &str) {
        let list = self.epochs.get(owner);
        let floor = |token: &str| epochs_under(list, token).map_or(0, |epochs| epochs.floor);
        retain(&mut self.entries, &mut self.order, |e| {
            e.owner != owner || e.epoch >= floor(&e.delegation.host_token)
        });
    }

    /// Inserts under the caller's write lock, re-checking the capacity
    /// there (no decide-then-insert race), sweeping expired entries once the
    /// earliest expiry plus the grace window has passed, and evicting
    /// down to capacity. An entry stamped below its owner's floor (a
    /// decision reply that lost the race against a push) is refused: no
    /// entry ever sits below its floor, so nothing later can revive one.
    fn insert(&mut self, digest: [u8; 32], entry: CachedDecision, now: u64) {
        if self.capacity == 0 || self.behind_floor(&entry) {
            return;
        }
        if self.earliest_expiry_ms.saturating_add(self.stale_grace_ms) <= now {
            self.sweep_dead(now);
        }
        self.earliest_expiry_ms = self.earliest_expiry_ms.min(entry.expires_at_ms);
        if !self.entries.contains_key(&digest) {
            while self.entries.len() >= self.capacity {
                self.evict_one();
            }
            self.order.push_back(digest);
        }
        self.entries.insert(digest, entry);
    }

    /// Drops expired entries and recomputes the earliest expiry. With a
    /// grace window configured, expired-but-graceable permits are
    /// retained until the window closes (they are what degraded mode
    /// serves from). Epoch-stale entries need no sweep: none is ever
    /// kept below its floor.
    fn sweep_dead(&mut self, now: u64) {
        let entries = &mut self.entries;
        let grace = self.stale_grace_ms;
        let mut earliest = u64::MAX;
        self.order.retain(|key| match entries.get(key) {
            Some(e) if e.expires_at_ms.saturating_add(grace) > now => {
                earliest = earliest.min(e.expires_at_ms);
                true
            }
            _ => {
                entries.remove(key);
                false
            }
        });
        self.earliest_expiry_ms = earliest;
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

    /// Drops every tier-2 entry; the floors stay.
    fn clear_cache(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.earliest_expiry_ms = u64::MAX;
    }

    // -- tier 1 ----------------------------------------------------------------

    /// Drops every tier-1 entry belonging to `owner`.
    fn drop_sieve_owner(&mut self, owner: &str) {
        if let Some(fps) = self.owner_index.remove(owner) {
            let sieve = Arc::make_mut(&mut self.sieve);
            for fp in &fps {
                sieve.remove(fp);
            }
            for list in self.resource_index.values_mut() {
                list.retain(|fp| sieve.contains_key(fp));
            }
            self.resource_index.retain(|_, v| !v.is_empty());
        }
    }

    /// Inserts vouched `entries` for `owner` with their index rows and
    /// stamps the owner's sieve under `delegation` with `epoch`, raising
    /// that delegation's floor to it. A fingerprint already present (a
    /// delta moving an entry's deadline, or a body repeating one) only
    /// moves its expiry; the indexes already know it.
    fn install(
        &mut self,
        owner: &str,
        delegation: &Arc<DelegationConfig>,
        epoch: u64,
        entries: &[protocol::SieveEntry],
    ) {
        if !entries.is_empty() {
            let map = Arc::make_mut(&mut self.sieve);
            for entry in entries {
                if map.insert(entry.fingerprint, entry.expires_at_ms).is_none() {
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
        }
        self.epochs_mut(owner, delegation).generation = Some(epoch);
        self.raise_floor(owner, delegation, epoch);
    }

    /// Drops a specific fingerprint set (a delta's `removed` list).
    /// Removal only narrows access, so no ownership check is needed —
    /// the worst a bad list can do is force extra tier-2 round trips.
    fn remove_fingerprints(&mut self, dead: &[protocol::SieveFingerprint]) {
        if !dead.iter().any(|fp| self.sieve.contains_key(fp)) {
            return;
        }
        let sieve = Arc::make_mut(&mut self.sieve);
        for fp in dead {
            sieve.remove(fp);
        }
        for list in self.owner_index.values_mut() {
            list.retain(|fp| sieve.contains_key(fp));
        }
        self.owner_index.retain(|_, v| !v.is_empty());
        for list in self.resource_index.values_mut() {
            list.retain(|fp| sieve.contains_key(fp));
        }
        self.resource_index.retain(|_, v| !v.is_empty());
    }
}

/// The [`Epochs`] under `token` in one owner's `list`.
fn epochs_under<'e>(list: Option<&'e Vec<Epochs>>, token: &str) -> Option<&'e Epochs> {
    list.into_iter()
        .flatten()
        .find(|epochs| epochs.delegation.host_token == token)
}

/// Keeps the tier-2 entries `keep` accepts, in one pass over the
/// insertion order.
fn retain(
    entries: &mut CacheMap,
    order: &mut VecDeque<[u8; 32]>,
    keep: impl Fn(&CachedDecision) -> bool,
) {
    order.retain(|digest| {
        let live = entries.get(digest).is_some_and(&keep);
        if !live {
            entries.remove(digest);
        }
        live
    });
}

/// Per-process id source for [`HostCore::sieve_id`], keying the
/// thread-local snapshot slots below.
static NEXT_SIEVE_ID: AtomicU64 = AtomicU64::new(1);

/// How many distinct `HostCore`s a thread caches sieve snapshots for.
const SIEVE_CACHE_SLOTS: usize = 8;

thread_local! {
    /// Per-thread `(host id, generation, published map)` slots. The warm
    /// path revalidates with one `Acquire` load of the generation and
    /// only takes [`HostCore::permits`]' lock when an edit actually
    /// replaced the map — the same pattern `SimNet` uses for its config
    /// snapshot.
    static SIEVE_SNAPSHOT_CACHE: RefCell<Vec<(u64, u64, Arc<SieveMap>)>> =
        const { RefCell::new(Vec::new()) };
}

/// How many access tuples one thread's digest memo holds
/// ([`access_digest`]).
const DIGEST_MEMO_SLOTS: usize = 256;

/// The longest tuple, its four fields' bytes together, that the digest
/// memo keeps. A sealed token makes a tuple of a few hundred bytes; a
/// longer one (an oversized bearer, resource id or requester header) is
/// hashed without the memo, so no slot ever holds more than this.
const DIGEST_MEMO_TUPLE_CAP: usize = 1024;

/// One memoized access tuple: token, resource, action label and
/// requester back to back in `tuple`, each field ending at its `ends`
/// offset, and their [`protocol::tuple_digest`].
#[derive(Default)]
struct MemoSlot {
    tuple: String,
    ends: [usize; 4],
    digest: [u8; 32],
}

impl MemoSlot {
    /// Whether the slot holds exactly `fields`, compared field by field.
    fn holds(&self, fields: [&str; 4]) -> bool {
        let mut start = 0;
        fields.iter().zip(self.ends).all(|(field, end)| {
            let held = &self.tuple.as_bytes()[start..end];
            start = end;
            held == field.as_bytes()
        })
    }

    /// Refills the slot with `fields` (at most [`DIGEST_MEMO_TUPLE_CAP`]
    /// bytes together) and their digest, reusing its buffer. The buffer
    /// grows to exactly the tuple's length, never past the cap.
    fn refill(&mut self, fields: [&str; 4], len: usize, digest: [u8; 32]) {
        self.tuple.clear();
        self.tuple.reserve_exact(len);
        for (field, end) in fields.iter().zip(&mut self.ends) {
            self.tuple.push_str(field);
            *end = self.tuple.len();
        }
        self.digest = digest;
    }
}

thread_local! {
    /// This thread's digest memo: [`DIGEST_MEMO_SLOTS`] slots, allocated
    /// on the thread's first memoized access. It holds at most
    /// `DIGEST_MEMO_SLOTS` × (88 B + [`DIGEST_MEMO_TUPLE_CAP`]) per
    /// thread (DESIGN.md §8), and the HTTP transport runs one server
    /// thread per connection.
    static DIGEST_MEMO: RefCell<Vec<Option<MemoSlot>>> = const { RefCell::new(Vec::new()) };
}

/// The memo slot a tuple lives in: a hash of all four fields.
fn memo_slot(fields: [&str; 4]) -> usize {
    let mut hasher = std::hash::DefaultHasher::new();
    fields.hash(&mut hasher);
    (hasher.finish() % DIGEST_MEMO_SLOTS as u64) as usize
}

/// [`protocol::tuple_digest`] of one access, memoized per thread in a
/// direct-mapped table keyed on the exact tuple. Held tokens recur, so a
/// repeat access costs a hash and four compares instead of a SHA-256.
/// Actions are matched by their label, the very string the digest
/// covers. Pure-function cache: the digest depends on the four fields
/// alone, so no entry can go stale, only be missed.
fn access_digest(token: &str, resource: &str, action: &Action, requester: &str) -> [u8; 32] {
    let fields = [token, resource, action_label(action), requester];
    let digest = || protocol::tuple_digest(token, resource, fields[2], requester);
    let len = fields.iter().map(|field| field.len()).sum();
    if len > DIGEST_MEMO_TUPLE_CAP {
        return digest();
    }
    DIGEST_MEMO.with_borrow_mut(|slots| {
        if slots.is_empty() {
            slots.resize_with(DIGEST_MEMO_SLOTS, || None);
        }
        match &mut slots[memo_slot(fields)] {
            Some(held) if held.holds(fields) => held.digest,
            entry => {
                let digest = digest();
                entry
                    .get_or_insert_with(MemoSlot::default)
                    .refill(fields, len, digest);
                digest
            }
        }
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
    /// Both permit tiers (DESIGN.md §12), behind their own lock so the
    /// hot path never contends with resource CRUD. A tier-2 lookup reads
    /// it, and so does a reader whose snapshot of the published sieve is
    /// stale; every mutation writes it once. A sieve hit takes no lock:
    /// it clones the published map's `Arc` from a thread-local slot
    /// revalidated against [`HostCore::sieve_gen`]. Lock order: `state`,
    /// then `permits`. A resource deletion and each delegation change
    /// hold `state` across their store call (DESIGN.md §8).
    permits: RwLock<PermitStore>,
    /// Host-local access log, separate from both of the above: a ring of
    /// the newest [`HOST_LOG_CAP`] entries, packed.
    log: Mutex<AccessLog>,
    /// Lock-free PEP counters: the enforcement hot path bumps these
    /// without touching any lock the resources or the permits are behind.
    stats: Counters<PEP_CELLS>,
    /// Opt-in Host→AM resilience knobs (DESIGN.md §10). Read-mostly:
    /// taken once per decision query, never on the warm cache path.
    resilience: RwLock<ResilienceConfig>,
    /// Per-AM circuit state; only touched when a breaker is configured.
    breaker_states: Mutex<HashMap<String, BreakerState>>,
    /// High-water mark of staleness (ms past expiry) ever served by
    /// degraded mode — the chaos soak asserts it never exceeds the
    /// configured grace window.
    max_served_staleness_ms: AtomicU64,
    /// Bumped (Release) whenever an edit replaces the published map;
    /// readers load it (Acquire) to revalidate their thread-local slot.
    sieve_gen: AtomicU64,
    /// Process-unique id keying this core's thread-local snapshot slots.
    sieve_id: u64,
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
            permits: RwLock::new(PermitStore::new()),
            log: Mutex::new(AccessLog::new()),
            stats: Counters::new(),
            resilience: RwLock::new(ResilienceConfig::default()),
            breaker_states: Mutex::new(HashMap::new()),
            max_served_staleness_ms: AtomicU64::new(0),
            sieve_gen: AtomicU64::new(0),
            sieve_id: NEXT_SIEVE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The host's authority.
    #[must_use]
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// Bounds the number of cached decisions (default
    /// [`DEFAULT_DECISION_CACHE_CAPACITY`]); 0 disables caching outright.
    pub fn set_decision_cache_capacity(&self, capacity: usize) {
        let mut permits = self.permits.write();
        permits.capacity = capacity;
        let now = self.clock.now_ms();
        permits.sweep_dead(now);
        while permits.entries.len() > permits.capacity {
            permits.evict_one();
        }
    }

    /// Number of currently cached decisions (test/observability hook).
    #[must_use]
    pub fn decision_cache_len(&self) -> usize {
        self.permits.read().entries.len()
    }

    /// Drops all cached decisions (e.g. after the user edited policies).
    /// The sieve and the epoch floors stay.
    pub fn flush_decision_cache(&self) {
        self.permits.write().clear_cache();
    }

    /// Records that `owner`'s policies are now at `epoch` (pushed by the
    /// AM or relayed by the environment): one advance of the owner's
    /// epoch floors. The note names no AM, so it raises the floor of the
    /// owner's current delegation and every other floor the owner has.
    /// Cached decisions stamped with an older epoch are dropped and will
    /// never be served again, and so is an installed sieve compiled under
    /// an older epoch — both tiers in one step, under one lock.
    pub fn note_policy_epoch(&self, owner: &str, epoch: u64) {
        let state = self.state.read();
        let current = state.user_delegations.get(owner);
        self.edit_permits(|permits| permits.advance(owner, current, epoch));
    }

    /// Does nothing. Conditional revalidation is always on: a
    /// TTL-expired, epoch-fresh cached permit is refreshed with an
    /// `if_epoch` query to its primary AM (DESIGN.md §16), and
    /// [`Self::flush_decision_cache`] is how a caller forces
    /// unconditional queries. The method stays only so that existing
    /// callers still build.
    #[deprecated(note = "conditional revalidation is always on")]
    pub fn set_conditional_revalidation(&self, _enabled: bool) {}

    // -- tier-1 capability sieve (DESIGN.md §12) ------------------------------

    /// The published sieve map, via this thread's slot cache. One
    /// `Acquire` generation load on the warm path; the permit store's
    /// lock is taken only when an edit actually replaced the map.
    fn sieve_snapshot(&self) -> Arc<SieveMap> {
        let generation = self.sieve_gen.load(Ordering::Acquire);
        SIEVE_SNAPSHOT_CACHE.with(|slots| {
            let mut slots = slots.borrow_mut();
            if let Some(slot) = slots.iter_mut().find(|(id, _, _)| *id == self.sieve_id) {
                if slot.1 != generation {
                    *slot = (
                        self.sieve_id,
                        generation,
                        Arc::clone(&self.permits.read().sieve),
                    );
                }
                return Arc::clone(&slot.2);
            }
            let snapshot = Arc::clone(&self.permits.read().sieve);
            if slots.len() >= SIEVE_CACHE_SLOTS {
                slots.remove(0);
            }
            slots.push((self.sieve_id, generation, Arc::clone(&snapshot)));
            snapshot
        })
    }

    /// Runs one mutation on the permit store under its write lock. A
    /// mutation that changes the published sieve map while readers hold
    /// it gets a copy (`Arc::make_mut`), and the generation bump sends
    /// readers to it; one the map did not see, or one made in place
    /// because no reader held the map, needs no bump. Cold path only
    /// (advances, installs and purges).
    fn edit_permits<R>(&self, edit: impl FnOnce(&mut PermitStore) -> R) -> R {
        let mut permits = self.permits.write();
        let published = Arc::as_ptr(&permits.sieve);
        let result = edit(&mut permits);
        if !std::ptr::eq(published, Arc::as_ptr(&permits.sieve)) {
            self.sieve_gen.fetch_add(1, Ordering::Release);
        }
        result
    }

    /// The trust step both sieve installs share: runs `install` with
    /// `entries` and the delegation they were vouched under only when
    /// `verify` accepts the body under the `host_token` of the delegation
    /// this Host itself holds for `owner` — the shared secret from the
    /// delegation handshake, which only the real AM knows — and that
    /// signer speaks for every entry. Per entry, the resource must exist
    /// here and belong to the owner, must not be re-delegated under
    /// another secret (a per-resource override pointing at a different
    /// AM means the signer does not govern it), and the entry must be
    /// unexpired. One bad entry rejects the whole body (`None`): a
    /// well-behaved AM never compiles one, so it is either corruption or
    /// forgery. The state lock is held across the install, so no
    /// delegation change lands between the check and the install.
    fn vouched_entries<R>(
        &self,
        owner: &str,
        verify: impl FnOnce(&[u8]) -> bool,
        entries: &[protocol::SieveEntry],
        install: impl FnOnce(&mut PermitStore, &Arc<DelegationConfig>, &[protocol::SieveEntry]) -> R,
    ) -> Option<R> {
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
        vouched.then(|| self.edit_permits(|permits| install(permits, config, entries)))
    }

    /// Installs a pushed capability sieve, fail-closed on any doubt.
    /// Returns `true` iff the sieve was installed.
    ///
    /// Trust chain: the body must verify under the `host_token` of the
    /// delegation this Host itself holds for the claimed owner, and that
    /// signer must speak for every entry — each resource exists here,
    /// belongs to the owner and is not re-delegated under another secret,
    /// and each entry is unexpired. The body's epoch must clear the
    /// owner's epoch floor, the freshest epoch this Host has seen for
    /// them from a push, a sieve or a decision reply, so a delayed push
    /// can never resurrect revoked permits.
    pub fn install_sieve(&self, sieve: &protocol::SieveBody) -> bool {
        let verify = |key: &[u8]| sieve.verify(key);
        let install = |permits: &mut PermitStore, delegation: &Arc<_>, accepted: &[_]| {
            permits.install_body(&sieve.owner, delegation, sieve.epoch, accepted)
        };
        let installed = self
            .vouched_entries(&sieve.owner, verify, &sieve.entries, install)
            .unwrap_or(false);
        if installed {
            self.stats.add(Pep::SieveInstalls, 1);
        } else {
            self.stats.add(Pep::SieveRejects, 1);
        }
        installed
    }

    /// Applies a pushed sieve *delta* on top of the installed base
    /// (DESIGN.md §13). Trust rules are identical to
    /// [`HostCore::install_sieve`] — the same signature and per-entry
    /// check (under the delta's own domain separator) for everything
    /// `added`. On top of that, a delta only applies when the installed
    /// sieve for the owner sits **exactly** at the delta's `base_epoch`
    /// and the delta's epoch clears the owner's epoch floor; any mismatch
    /// returns [`SieveDeltaOutcome::BaseMismatch`] so the caller can
    /// request a full-body resync. Removals need no ownership proof:
    /// dropping an entry can only narrow access.
    pub fn install_sieve_delta(&self, delta: &protocol::SieveDeltaBody) -> SieveDeltaOutcome {
        let verify = |key: &[u8]| delta.verify(key);
        let install = |permits: &mut PermitStore, delegation: &Arc<_>, accepted: &[_]| {
            permits.install_delta(delta, delegation, accepted)
        };
        match self.vouched_entries(&delta.owner, verify, &delta.added, install) {
            None => {
                self.stats.add(Pep::SieveRejects, 1);
                SieveDeltaOutcome::Rejected
            }
            Some(true) => {
                self.stats.add(Pep::SieveDeltaInstalls, 1);
                SieveDeltaOutcome::Installed
            }
            Some(false) => {
                self.stats.add(Pep::SieveResyncs, 1);
                SieveDeltaOutcome::BaseMismatch
            }
        }
    }

    /// Tier-1 probe: grants iff the sieve holds an unexpired entry for
    /// exactly this `(token, resource, action, requester)`. No locks, no
    /// cache, no log write — the §V.B.6 warm path in one hash lookup.
    /// Falls through to tier-2 on any doubt, handing on the tuple's
    /// digest when it hashed one.
    fn sieve_probe(
        &self,
        net: &dyn Transport,
        requester: &str,
        resource_id: &str,
        action: &Action,
        token: &str,
        now: u64,
    ) -> SieveProbe {
        let snapshot = self.sieve_snapshot();
        if snapshot.is_empty() {
            // No sieve installed: tier-1 is simply absent, not missing.
            return SieveProbe::Miss(None);
        }
        let digest = access_digest(token, resource_id, action, requester);
        match snapshot.get(&protocol::fingerprint_of(&digest)) {
            Some(&expires_at_ms) if now < expires_at_ms => {
                self.stats.add(Pep::SieveHits, 1);
                net.trace().note_with(&self.authority, || {
                    format!("sieve hit: {requester} {action} {resource_id}")
                });
                SieveProbe::Hit
            }
            _ => {
                self.stats.add(Pep::SieveMisses, 1);
                SieveProbe::Miss(Some(digest))
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
        let mut permits = self.permits.write();
        permits.stale_grace_ms = grace;
        // Shrinking the window may strand now-dead entries; sweep them.
        let now = self.clock.now_ms();
        permits.sweep_dead(now);
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
        let cells = self.stats.snapshot();
        let at = |cell: Pep| cells[usize::from(cell)];
        PepStats {
            am_queries: at(Pep::AmQueries),
            cache_hits: at(Pep::CacheHits),
            redirects: at(Pep::Redirects),
            legacy_checks: at(Pep::LegacyChecks),
            stale_served: at(Pep::StaleServed),
            breaker_fast_fails: at(Pep::BreakerFastFails),
            fallback_queries: at(Pep::FallbackQueries),
            am_retries: at(Pep::AmRetries),
            batch_flushes: at(Pep::BatchFlushes),
            sieve_hits: at(Pep::SieveHits),
            sieve_misses: at(Pep::SieveMisses),
            sieve_installs: at(Pep::SieveInstalls),
            sieve_rejects: at(Pep::SieveRejects),
            sieve_delta_installs: at(Pep::SieveDeltaInstalls),
            sieve_resyncs: at(Pep::SieveResyncs),
            invalidated_evictions: 0,
            revalidations: at(Pep::Revalidations),
            revalidations_unchanged: at(Pep::RevalidationsUnchanged),
        }
    }

    /// Zeroes the PEP counters and the served-staleness high-water mark.
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.max_served_staleness_ms.store(0, Ordering::Relaxed);
    }

    /// Returns a snapshot of the host-local access log: its newest
    /// entries (at most 4,096), oldest first.
    #[must_use]
    pub fn log(&self) -> Vec<HostLogEntry> {
        let log = self.log.lock();
        let entry = |(meta, mut fields): (&LogMeta, RecordFields<'_>)| {
            let mut next = || fields.next().unwrap_or_default().to_owned();
            let (requester, resource_id, custom) = (next(), next(), next());
            HostLogEntry {
                at_ms: meta.at_ms,
                requester,
                resource_id,
                action: Action::unpack(meta.action, &custom),
                granted: meta.granted,
                via: meta.via,
            }
        };
        log.iter().map(entry).collect()
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

    /// Reads only a resource's owner, for the routes that need nothing
    /// else of it: the resource's data is not copied.
    #[must_use]
    pub(crate) fn owner_of(&self, id: &str) -> Option<String> {
        self.state.read().resources.get(id).map(|r| r.owner.clone())
    }

    /// Reads only a resource's content, as text (invalid UTF-8 replaced)
    /// — the serving path after a grant, which has no use for the
    /// metadata [`HostCore::resource`] would also clone. The bytes are
    /// copied once, straight into the text.
    #[must_use]
    pub fn resource_text(&self, id: &str) -> Option<String> {
        let state = self.state.read();
        let resource = state.resources.get(id)?;
        Some(String::from_utf8_lossy(&resource.data).into_owned())
    }

    /// Deletes a resource.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::NotFound`] when absent.
    pub fn delete_resource(&self, id: &str) -> Result<Resource, HostError> {
        let mut state = self.state.write();
        let removed = state
            .resources
            .remove(id)
            .ok_or_else(|| HostError::NotFound(id.to_owned()))?;
        // No cached permit, in either tier, outlives its resource. The
        // state guard is held across the purge, so no `classify` sees the
        // deletion (or a re-creation) while the old permits still serve.
        self.edit_permits(|permits| permits.purge_resource(id));
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
        let mut state = self.state.write();
        state
            .user_delegations
            .insert(user.to_owned(), Arc::new(config));
        // Permits were vouched under the old delegation's secret.
        self.edit_permits(|permits| permits.purge_owner(user));
    }

    /// Records a per-resource delegation override (possibly a different AM
    /// than the user-level one, §V.A.3).
    pub fn set_resource_delegation(&self, resource_id: &str, config: DelegationConfig) {
        let mut state = self.state.write();
        state
            .resource_delegations
            .insert(resource_id.to_owned(), Arc::new(config));
        // The overriding AM, not the one that vouched for the cached
        // permits, now governs it.
        self.edit_permits(|permits| permits.purge_resource(resource_id));
    }

    /// Removes `user`'s delegation (back to built-in access control).
    pub fn clear_user_delegation(&self, user: &str) -> Option<DelegationConfig> {
        let mut state = self.state.write();
        let removed = state.user_delegations.remove(user);
        self.edit_permits(|permits| permits.purge_owner(user));
        removed.map(Arc::unwrap_or_clone)
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
            .map(|config| DelegationConfig::clone(config))
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
    /// revalidation (DESIGN.md §16), which a TTL-expired, epoch-fresh
    /// cached permit for the same token always sends to its primary AM.
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
        let mut miss = match self.classify(
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
        // DESIGN.md §16: a TTL-expired but epoch-fresh entry for this
        // same token turns the full query into an `if_epoch`
        // precondition the AM can collapse to a tiny *unchanged* reply.
        miss.if_epoch = self
            .permits
            .read()
            .revalidation_epoch(&miss.digest, &miss.delegation, now);
        let resilience = self.resilience.read().clone();
        let resp = self.query(net, &resilience, &miss, None, "decision", &|to, primary| {
            // Never conditional against the fallback: the cached
            // entry's epoch lives in the *primary* AM's epoch space,
            // and a numerically equal epoch at the mirror would
            // falsely re-arm it.
            protocol::decision_request(
                &to.am,
                &to.host_token,
                miss.token,
                miss.resource_id,
                action_label(miss.action),
                miss.requester,
                miss.if_epoch.filter(|_| primary),
            )
        });
        self.settle_decision(net, classify_decision(&resp), miss, now)
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
        requester: &'t str,
        subject: Option<&str>,
        resource_id: &'t str,
        action: &'t Action,
        bearer: Option<&'t str>,
        return_url: &Url,
        now: u64,
    ) -> Classified<'t> {
        // Tier-1 (DESIGN.md §12): an AM-pushed sieve entry for exactly
        // this (token, resource, action, requester) grants before any
        // lock is taken. Entries only exist for resources that were
        // present and delegated at install time, and every mutation that
        // could void them (deletion, re-delegation, epoch advance) purges
        // both permit tiers in one store call (DESIGN.md §8), so a sieve
        // hit and a decision-cache hit vouch for the same thing.
        let mut probed = None;
        if let Some(token) = bearer {
            match self.sieve_probe(net, requester, resource_id, action, token, now) {
                SieveProbe::Hit => return Classified::Settled(Enforcement::Grant),
                SieveProbe::Miss(digest) => probed = digest,
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
            let redirect = protocol::authorize_redirect(
                &delegation.am,
                &self.authority,
                &resource.owner,
                resource_id,
                action_label(action),
                requester,
                return_url,
            );
            drop(state);
            self.record(
                now,
                requester,
                resource_id,
                action,
                false,
                DecisionPath::RedirectedToAm,
            );
            self.stats.add(Pep::Redirects, 1);
            return Classified::Settled(Enforcement::Block(redirect));
        };

        // §V.B.6 warm path: a cached decision is valid only for the same
        // bearer token (the access tuple's digest, which the sieve probe
        // has usually hashed already, is its key), under the delegation
        // that governs the resource now, within its TTL, and while the
        // owner's policy epoch is unchanged. A hit is granted while
        // everything is still borrowed from the one state read — no
        // key, resource or delegation copies, no dispatch.
        let digest = probed.unwrap_or_else(|| access_digest(token, resource_id, action, requester));
        if self.permits.read().lookup(&digest, delegation, now) {
            drop(state);
            self.stats.add(Pep::CacheHits, 1);
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
            delegation: Arc::clone(delegation),
            owner: resource.owner.clone(),
            token,
            requester,
            resource_id,
            action,
            digest,
            if_epoch: None,
        })
    }

    /// Fig. 6, hardened per DESIGN.md §10: sends `build`'s request to
    /// `head`'s primary AM under the breaker and retry policy — unless
    /// `sent` already holds the primary's answer (a pipelined flush) —
    /// and on a transport failure fails over to the owner's fallback AM.
    /// `build` gets the delegation the request goes to and whether that
    /// is the primary, the only AM that hears `head`'s `if_epoch`. Only
    /// transport failures fail over: an AM that *answers* (permit, deny,
    /// 401, even an application 5xx) is always taken at its word.
    fn query(
        &self,
        net: &dyn Transport,
        resilience: &ResilienceConfig,
        head: &Miss<'_>,
        sent: Option<Response>,
        what: &str,
        build: &dyn Fn(&DelegationConfig, bool) -> Request,
    ) -> Response {
        let primary = &head.delegation;
        let resp = sent.unwrap_or_else(|| {
            let conditional = head.if_epoch.is_some();
            self.dispatch_protected(net, resilience, &primary.am, conditional, &|| {
                build(primary, true)
            })
        });
        if resp.transport_error().is_some() {
            if let Some(fallback) = resilience.fallback_for(&primary.am, &head.owner) {
                self.stats.add(Pep::FallbackQueries, 1);
                net.trace().note_with(&self.authority, || {
                    format!(
                        "failing over {what} query: {} -> {}",
                        primary.am, fallback.am
                    )
                });
                return self.dispatch_protected(net, resilience, &fallback.am, false, &|| {
                    build(fallback, false)
                });
            }
        }
        resp
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
                    self.stats.add(Pep::AmQueries, 1);
                    let to = &chunk[0].1.delegation;
                    protocol::batch_decisions_request(&to.am, &to.host_token, body)
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
            let resp = self.query(net, resilience, &chunk[0].1, sent, "batch", &|to, _| {
                protocol::batch_decisions_request(&to.am, &to.host_token, body)
            });
            let now = self.clock.now_ms();
            let outcomes = classify_batch(&resp, chunk.len());
            for ((index, miss), outcome) in chunk.into_iter().zip(outcomes) {
                // Batch queries never carry an `if_epoch` precondition,
                // so a stray *unchanged* item fails closed.
                results[index] = Some(self.settle_decision(net, outcome, miss, now));
            }
        }
    }

    /// Counts and traces one batch flush.
    fn note_flush(&self, net: &dyn Transport, chunk: &[(usize, Miss<'_>)]) {
        self.stats.add(Pep::BatchFlushes, 1);
        let am = &chunk[0].1.delegation.am;
        net.trace().note_with(&self.authority, || {
            format!("batch flush: {} decision queries -> {am}", chunk.len())
        });
    }

    /// Concludes one decision query (or batch item) from its normalized
    /// [`DecisionOutcome`]: caches and grants permits, fails everything
    /// else closed, and gives transport failures — and only those — the
    /// degraded-mode chance at an expired-but-graceable permit. Each
    /// outcome yields its log time, path and enforcement, and the access
    /// is logged once.
    /// The miss's `if_epoch` is the precondition the query carried, if
    /// any — an *unchanged* reply re-arms the cached permit at exactly
    /// that epoch (the reply does not echo it; the AM only says
    /// "unchanged" when the epochs are equal).
    fn settle_decision(
        &self,
        net: &dyn Transport,
        outcome: DecisionOutcome,
        miss: Miss<'_>,
        now: u64,
    ) -> Enforcement {
        let Miss {
            delegation,
            owner,
            requester,
            resource_id,
            action,
            digest,
            if_epoch,
            ..
        } = miss;
        // A permit's cache window and epoch, cached once it is logged.
        let mut cacheable = None;
        let (at_ms, via, enforcement) = match outcome {
            DecisionOutcome::Unchanged(body) => {
                // DESIGN.md §16: the AM confirmed the expired permit is
                // still good at the epoch we presented. Re-arm it in
                // place; if the entry is gone or moved (evicted, token
                // churn, epoch advance raced us), or the query never
                // carried a precondition for the reply to confirm, the
                // unchanged reply vouches for nothing we still hold —
                // fail closed, per the wire contract.
                let rearmed = if_epoch.is_some_and(|epoch| {
                    let expires_at_ms = now + body.cacheable_ms;
                    self.permits
                        .write()
                        .rearm(&digest, &delegation, epoch, expires_at_ms)
                });
                if rearmed {
                    self.stats.add(Pep::RevalidationsUnchanged, 1);
                    net.trace().note_with(&self.authority, || {
                        format!(
                            "revalidated unchanged: {requester} {action} {resource_id} \
                             ({} ms)",
                            body.cacheable_ms
                        )
                    });
                    (now, DecisionPath::AmQuery, Enforcement::Grant)
                } else {
                    let why = "unchanged reply without a matching cached permit; access denied";
                    refused(now, Status::Unavailable, why)
                }
            }
            DecisionOutcome::Body(body) if body.is_permit() => {
                cacheable = body
                    .cacheable_ms
                    .filter(|&ms| ms > 0)
                    .map(|ms| (ms, body.policy_epoch));
                (now, DecisionPath::AmQuery, Enforcement::Grant)
            }
            // A per-item protocol failure inside a batch — same contract
            // as a single-query 401: re-authorize.
            DecisionOutcome::Body(body) if body.is_error() => {
                refused(now, Status::Unauthorized, REAUTHORIZE)
            }
            DecisionOutcome::Body(_) => {
                let denied = Response::forbidden("access denied by authorization manager");
                (now, DecisionPath::AmQuery, Enforcement::Block(denied))
            }
            // A 200 with an unparsable body is a protocol error, not a
            // permit. Fail closed.
            DecisionOutcome::Malformed => refused(
                now,
                Status::Unavailable,
                "malformed decision response; access denied",
            ),
            // Bad/expired token: requester must obtain a fresh one.
            DecisionOutcome::TokenRejected => refused(now, Status::Unauthorized, REAUTHORIZE),
            // Degraded mode (opt-in): a transport-level failure — and
            // only that — may serve an expired cached permit within its
            // grace window.
            DecisionOutcome::Transport => {
                let stale_now = self.clock.now_ms();
                let stale = self
                    .permits
                    .read()
                    .lookup_stale(&digest, &delegation, stale_now);
                match stale {
                    Some(staleness) => {
                        self.stats.add(Pep::StaleServed, 1);
                        self.max_served_staleness_ms
                            .fetch_max(staleness, Ordering::Relaxed);
                        net.trace().note_with(&self.authority, || {
                            format!(
                                "degraded: stale permit served {staleness} ms past TTL: \
                                 {requester} {action} {resource_id}"
                            )
                        });
                        (stale_now, DecisionPath::StaleGrace, Enforcement::Grant)
                    }
                    None => refused(now, Status::Unavailable, UNREACHABLE),
                }
            }
            // Application 5xxs and everything else never reach degraded
            // mode: fail closed.
            DecisionOutcome::Unavailable => refused(now, Status::Unavailable, UNREACHABLE),
        };
        self.record(
            at_ms,
            requester,
            resource_id,
            action,
            enforcement.is_grant(),
            via,
        );
        if let Some((cacheable_ms, policy_epoch)) = cacheable {
            net.trace().note_with(&self.authority, || {
                format!("cached permit: {requester} {action} {resource_id} ({cacheable_ms} ms)")
            });
            // One write lock for the floor and the insert: the capacity
            // is re-checked inside, so a concurrent
            // `set_decision_cache_capacity(0)` cannot be overtaken.
            self.permits.write().learn(
                digest,
                CachedDecision {
                    expires_at_ms: now + cacheable_ms,
                    owner,
                    resource_id: resource_id.to_owned(),
                    delegation,
                    epoch: policy_epoch.unwrap_or(0),
                    referenced: AtomicBool::new(false),
                },
                now,
            );
        }
        enforcement
    }

    /// Dispatches one AM request under the breaker and retry policy —
    /// shared by the single-query and batch paths. Breaker fast-fails
    /// synthesize a [`TransportError::Unreachable`] response without
    /// dispatching. A `conditional` request (one carrying `if_epoch`)
    /// that goes out counts as one revalidation, however many attempts
    /// its retry policy makes.
    fn dispatch_protected(
        &self,
        net: &dyn Transport,
        resilience: &ResilienceConfig,
        am: &str,
        conditional: bool,
        build: &dyn Fn() -> Request,
    ) -> Response {
        if resilience.breaker.is_some() && !self.breaker_admits(am) {
            self.stats.add(Pep::BreakerFastFails, 1);
            net.trace().note_with(&self.authority, || {
                format!("circuit open: fast-failing decision query to {am}")
            });
            return Response::with_status(Status::Unavailable)
                .with_body(format!("circuit open for {am}"))
                .with_transport_error(TransportError::Unreachable);
        }
        if conditional {
            self.stats.add(Pep::Revalidations, 1);
        }
        self.stats.add(Pep::AmQueries, 1);
        let resp = match &resilience.am_retry {
            Some(policy) => {
                let (resp, report) =
                    policy.run(net.clock(), |_| net.dispatch(&self.authority, build()));
                if report.attempts > 1 {
                    self.stats
                        .add(Pep::AmRetries, u64::from(report.attempts - 1));
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
        self.stats.add(Pep::LegacyChecks, 1);
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
        let (action, custom) = action.pack();
        let meta = LogMeta {
            at_ms,
            action,
            granted,
            via,
        };
        let fields = [requester, resource_id, custom];
        self.log.lock().push(HOST_LOG_CAP, meta, fields);
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

/// Normalizes a single-query `/protection/v2/decision` response. The body
/// is parsed as JSON rather than by substring search: a deny whose reason
/// happens to *contain* the text `"permit"` must stay a deny.
fn classify_decision(resp: &Response) -> DecisionOutcome {
    match resp.status {
        Status::Ok => match protocol::parse_decision_reply(&resp.body) {
            Ok(protocol::DecisionReply::Unchanged(body)) => DecisionOutcome::Unchanged(body),
            Ok(protocol::DecisionReply::Decision(body)) => DecisionOutcome::Body(body),
            Err(_) => DecisionOutcome::Malformed,
        },
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
/// [`HostCore::settle_decision`] need, the access tuple borrowed; its
/// digest is the cache key.
struct Miss<'t> {
    /// The delegation governing the resource (primary AM, host token),
    /// shared with the Host's state rather than copied. A permit learned
    /// from this query is tagged with it.
    delegation: Arc<DelegationConfig>,
    /// The resource owner.
    owner: String,
    /// The bearer token presented.
    token: &'t str,
    /// The requester presenting it.
    requester: &'t str,
    /// The resource accessed.
    resource_id: &'t str,
    /// The action attempted.
    action: &'t Action,
    /// [`protocol::tuple_digest`] of the access tuple.
    digest: [u8; 32],
    /// The epoch an expired, epoch-fresh cached permit for this token
    /// holds: the precondition a single query sends its primary AM.
    if_epoch: Option<u64>,
}

/// What [`HostCore::sieve_probe`] found.
enum SieveProbe {
    /// An unexpired sieve entry vouches for the access.
    Hit,
    /// No entry does; carries the access tuple's digest when the probe
    /// hashed it, for the decision-cache lookup to reuse.
    Miss(Option<[u8; 32]>),
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
            resource: miss.resource_id.to_owned(),
            action: miss.action.to_string(),
            requester: miss.requester.to_owned(),
        })
        .collect()
}

/// The body of a 401 telling the requester to fetch a fresh token.
const REAUTHORIZE: &str = "authorization token rejected; re-authorize";
/// The body of a 503 when no AM answered a decision query.
const UNREACHABLE: &str = "authorization manager unreachable; access denied";

/// A decision outcome that refuses the access: logged at `now` as
/// [`DecisionPath::Refused`], blocked with `status` and the body `why`.
fn refused(now: u64, status: Status, why: &str) -> (u64, DecisionPath, Enforcement) {
    let block = Response::with_status(status).with_body(why);
    (now, DecisionPath::Refused, Enforcement::Block(block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ucam_crypto::HmacKey;
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

    /// A scripted AM: answers a single decision query with the canned
    /// body registered for the presented authorization token, 401 for
    /// anything else.
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

    /// A cached permit binds the access tuple's full digest. A bearer one
    /// byte off the cached one, or the cached token presented by another
    /// requester, goes to the AM. Both hold whether the sieve probe
    /// hashed the tuple first (a sieve installed, probe missing) or the
    /// cache lookup hashes it itself (no sieve: the probe returns before
    /// hashing). The digest memo keeps the binding too: a tuple that
    /// differs from the one just hashed in any one field, and shares its
    /// memo slot, still misses the sieve entry the first one hits.
    #[test]
    fn cached_permit_is_bound_to_the_whole_access_tuple() {
        for sieve in [false, true] {
            let net = SimNet::new();
            let am = FakeAm::new();
            am.grant("good-token", &permit_body(60_000, 1));
            net.register(am.clone());
            let h = delegated_host(&net);
            if sieve {
                assert!(h.install_sieve(&sieve_of(1, 60_000, &[("other", "r1", "read", "req")])));
            }
            let url = Url::new("h.example", "/r1");
            let read = |requester: &str, token: &str| {
                h.enforce(
                    &net,
                    requester,
                    None,
                    "r1",
                    &Action::Read,
                    Some(token),
                    &url,
                )
            };
            let counts = || (h.stats().am_queries, h.stats().cache_hits);

            assert!(read("req", "good-token").is_grant());
            assert!(read("req", "good-token").is_grant());
            assert_eq!(counts(), (1, 1), "sieve {sieve}");

            // Last byte differs: the AM is asked, and rejects it.
            match read("req", "good-tokem") {
                Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
                Enforcement::Grant => panic!("a near-miss bearer rode the cache (sieve {sieve})"),
            }
            assert_eq!(counts(), (2, 1), "sieve {sieve}");

            // The cached token from another requester: the AM is asked
            // (the fake grants by token alone).
            assert!(read("eve", "good-token").is_grant());
            assert_eq!(counts(), (3, 1), "sieve {sieve}");

            // The bound tuple itself still hits.
            assert!(read("req", "good-token").is_grant());
            assert_eq!(counts(), (3, 2), "sieve {sieve}");
            let probes = if sieve { 5 } else { 0 };
            assert_eq!(h.stats().sieve_misses, probes, "sieve {sieve}");
        }

        // Each variant differs from the bound tuple in one field and lands
        // in its memo slot. The bound tuple is hashed right before it, so
        // a memo that skipped the field would hand the variant the bound
        // digest, and the sieve would grant it.
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good-token", &permit_body(60_000, 1));
        net.register(am.clone());
        let h = delegated_host(&net);
        let bound = ["good-token", "r1", "read", "req"];
        assert!(h.install_sieve(&sieve_of(1, 60_000, &[bound.into()])));
        let url = Url::new("h.example", "/r1");
        let access = |[token, resource, action, requester]: [&str; 4]| {
            let action = crate::shell::parse_action(action);
            h.enforce(&net, requester, None, resource, &action, Some(token), &url)
        };
        for field in 0..4 {
            let variant: [String; 4] = (0..)
                .map(|i| {
                    let mut variant = bound.map(str::to_owned);
                    variant[field] = format!("{}-{i}", bound[field]);
                    variant
                })
                .find(|variant| {
                    memo_slot(variant.each_ref().map(String::as_str)) == memo_slot(bound)
                })
                .expect("some variant shares the bound tuple's slot");
            let hits = h.stats().sieve_hits;
            assert!(access(bound).is_grant());
            assert_eq!(h.stats().sieve_hits, hits + 1, "field {field}");
            access(variant.each_ref().map(String::as_str));
            assert_eq!(
                h.stats().sieve_hits,
                hits + 1,
                "{variant:?} rode the sieve entry of {bound:?}"
            );
        }
    }

    /// A tuple longer than the cap, here an oversized bearer on a Host
    /// with a sieve (so it is hashed before any lookup), is hashed past
    /// the memo, and a refill grows a held buffer to exactly the new
    /// tuple: after a tuple past half the cap and then one of exactly the
    /// cap in the same slot, no slot holds more than the cap. The
    /// digests stay the tuples'.
    #[test]
    fn an_oversized_tuple_bypasses_the_digest_memo() {
        let net = SimNet::new();
        net.register(FakeAm::new());
        let h = delegated_host(&net);
        assert!(h.install_sieve(&sieve_of(1, 60_000, &[("t", "r1", "read", "req")])));
        let url = Url::new("h.example", "/r1");
        let read = |token: &str| {
            h.enforce(&net, "req", None, "r1", &Action::Read, Some(token), &url);
        };
        let rest = "r1readreq".len();
        let slot_of = |token: &str| memo_slot([token, "r1", "read", "req"]);
        let past_half = "a".repeat(DIGEST_MEMO_TUPLE_CAP / 2 + 64 - rest);
        let at_cap = (0..)
            .map(|i| format!("{i:b>width$}", width = DIGEST_MEMO_TUPLE_CAP - rest))
            .find(|token| slot_of(token) == slot_of(&past_half))
            .expect("some token of the cap's length shares the slot");
        let huge = "c".repeat(1 << 20);
        for token in ["t", &past_half, &at_cap, &huge] {
            read(token);
        }
        let held: Vec<(usize, usize)> = DIGEST_MEMO.with_borrow(|slots| {
            let held = slots.iter().flatten();
            held.map(|slot| (slot.tuple.len(), slot.tuple.capacity()))
                .collect()
        });
        assert!(
            held.iter().all(|&(_, cap)| cap <= DIGEST_MEMO_TUPLE_CAP),
            "{held:?}"
        );
        assert!(held.contains(&(DIGEST_MEMO_TUPLE_CAP, DIGEST_MEMO_TUPLE_CAP)));
        assert_eq!(h.stats().sieve_hits, 1);
        for token in [&at_cap, &huge] {
            assert_eq!(
                access_digest(token, "r1", &Action::Read, "req"),
                protocol::tuple_digest(token, "r1", "read", "req")
            );
        }
    }

    /// The memo compares each field's bytes, not just its length. For
    /// each field, a tuple whose fields have the bound tuple's lengths,
    /// differing in that field's bytes and sharing the bound tuple's memo
    /// slot, is hashed right after it and must get its own digest.
    #[test]
    fn the_digest_memo_compares_bytes_not_lengths() {
        const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        let bound = ["good-token", "r1", "read", "req"];
        let digest = |[token, resource, action, requester]: [&str; 4]| {
            let action = crate::shell::parse_action(action);
            access_digest(token, resource, &action, requester)
        };
        for field in 0..4 {
            let variant: [String; 4] = (0..)
                .map(|i: usize| {
                    let mut variant = bound.map(str::to_owned);
                    let mut n = i;
                    variant[field] = (0..bound[field].len())
                        .map(|_| {
                            let digit = DIGITS[n % DIGITS.len()];
                            n /= DIGITS.len();
                            char::from(digit)
                        })
                        .collect();
                    variant
                })
                .find(|variant| {
                    let fields = variant.each_ref().map(String::as_str);
                    fields != bound && memo_slot(fields) == memo_slot(bound)
                })
                .expect("some same-length variant shares the bound tuple's slot");
            let fields = variant.each_ref().map(String::as_str);
            digest(bound);
            let [token, resource, action, requester] = fields;
            assert_eq!(
                digest(fields),
                protocol::tuple_digest(token, resource, action, requester),
                "{variant:?} got the digest of {bound:?}"
            );
        }
    }

    /// The slot size DESIGN.md §8 states the memo's per-thread bound
    /// with.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_digest_memo_slot_is_88_bytes() {
        assert_eq!(std::mem::size_of::<Option<MemoSlot>>(), 88);
    }

    proptest::proptest! {
        /// The digest memo answers exactly [`protocol::tuple_digest`] for
        /// every tuple, over a pool of three times as many tuples as it
        /// has slots. The pool's fields are runs of one letter, so
        /// neighbouring tuples differ in one field, or only in where one
        /// field ends and the next begins.
        #[test]
        fn digest_memo_answers_the_tuple_digest(
            picks in proptest::collection::vec(0..3 * DIGEST_MEMO_SLOTS, 1..600)
        ) {
            let actions = [Action::Read, Action::Write, Action::Custom("a".into())];
            for pick in picks {
                let token = "a".repeat(pick % 4);
                let resource = "a".repeat(pick / 4 % 4);
                let action = &actions[pick / 16 % 3];
                let requester = "a".repeat(pick / 48);
                let want = protocol::tuple_digest(&token, &resource, action_label(action), &requester);
                proptest::prop_assert_eq!(access_digest(&token, &resource, action, &requester), want);
            }
        }
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
        // A deny that carries a cache window is never cached either.
        am.grant("ttl", "{\"decision\":\"deny\",\"cacheable_ms\":60000}");
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        for token in ["tricky", "ttl"] {
            match h.enforce(&net, "req", None, "r1", &Action::Read, Some(token), &url) {
                Enforcement::Block(resp) => assert_eq!(resp.status, Status::Forbidden),
                Enforcement::Grant => panic!("deny body must not be mistaken for a permit"),
            }
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

    /// A permit stamped below its owner's floor (a decision reply that
    /// lost the race against an epoch push) must never be cached: no
    /// entry ever sits below its floor, so nothing later can serve it
    /// after the AM has revoked the token.
    #[test]
    fn late_permit_below_floor_is_never_revived() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 3));
        net.register(am.clone());
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");

        h.note_policy_epoch("bob", 4);
        // The permit@3 reply lands after the push: it answers this access
        // but must not be cached.
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(
            h.decision_cache_len(),
            0,
            "a permit below its floor was cached"
        );

        am.revoke("good");
        h.note_policy_epoch("bob", 5);
        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("a permit below its floor was revived"),
        }
        assert_eq!(h.stats().cache_hits, 0);
        assert_eq!(h.stats().am_queries, 2);
    }

    /// Caches a permit for `r1` (bob's, token "good", granted by the fake
    /// AM at `am.example`), lets `change` edit the Host, and reads again.
    /// The change must drop the permit, and the second read must query
    /// `governing`, the AM that now governs `r1`, and be refused as that
    /// AM refuses (401): no cached permit outlives its resource or its
    /// delegation.
    fn second_read_asks(governing: &str, change: impl FnOnce(&HostCore, &FakeAm)) {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 1));
        net.register(am.clone());
        net.register(FakeAm::new_at("am-b.example")); // grants nothing
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        let read = || h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url);
        assert!(read().is_grant());
        assert_eq!(h.decision_cache_len(), 1);

        change(&h, &am);
        assert_eq!(h.decision_cache_len(), 0, "the change kept a permit");
        let asked = net.stats().edge("h.example", governing);
        match read() {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("a cached permit outlived the change"),
        }
        assert_eq!((h.stats().am_queries, h.stats().cache_hits), (2, 0));
        assert_eq!(net.stats().edge("h.example", governing), asked + 1);
    }

    /// The second delegation the tests switch to: another AM.
    fn am_b() -> DelegationConfig {
        DelegationConfig {
            am: "am-b.example".into(),
            host_token: "ht-b".into(),
            delegation_id: "d-b".into(),
        }
    }

    #[test]
    fn a_deleted_resource_takes_its_cached_permits_along() {
        second_read_asks("am.example", |h, am| {
            h.delete_resource("r1").unwrap();
            h.put_resource("r1", "carol", "file", b"carol's".to_vec())
                .unwrap();
            let carol = DelegationConfig {
                am: "am.example".into(),
                host_token: "ht-carol".into(),
                delegation_id: "d-carol".into(),
            };
            h.set_user_delegation("carol", carol);
            am.revoke("good");
        });
    }

    #[test]
    fn a_per_resource_override_voids_the_cached_permits() {
        second_read_asks("am-b.example", |h, _| {
            h.set_resource_delegation("r1", am_b());
        });
    }

    #[test]
    fn an_owner_switching_ams_voids_their_cached_permits() {
        second_read_asks("am-b.example", |h, _| h.set_user_delegation("bob", am_b()));
    }

    /// Epochs are per AM. Bob is at epoch 50 at `am.example` and moves to
    /// `am-b.example`, whose epochs for him start at 1 (an imported
    /// account). The old AM's floor must not hold the new AM's permits
    /// and sieve bodies back: the second read under `am-b` is a cache
    /// hit, and an `am-b` body at epoch 1 installs.
    #[test]
    fn an_owner_moving_to_an_am_with_lower_epochs_is_cached_again() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("good", &permit_body(60_000, 50));
        net.register(am.clone());
        let am_b_app = FakeAm::new_at("am-b.example");
        am_b_app.grant("good", &permit_body(60_000, 1));
        net.register(am_b_app);
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        let read = || h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url);
        assert!(read().is_grant());
        h.note_policy_epoch("bob", 50);

        h.set_user_delegation("bob", am_b());
        assert!(read().is_grant());
        assert!(read().is_grant());
        assert_eq!((h.stats().am_queries, h.stats().cache_hits), (2, 1));
        assert_eq!(net.stats().edge("h.example", "am-b.example"), 1);

        let entries = vec![protocol::SieveEntry {
            fingerprint: protocol::sieve_fingerprint("good", "r1", "read", "req"),
            resource: "r1".into(),
            expires_at_ms: 60_000,
        }];
        assert!(h.install_sieve(&SieveBody::build("bob", 1, entries, &HmacKey::new(b"ht-b"))));
        assert_eq!(h.stats().sieve_rejects, 0);
    }

    /// Re-installing the delegation a floor was raised under keeps that
    /// floor: a delayed body from below it is still refused.
    #[test]
    fn reinstalling_the_same_delegation_keeps_its_floor() {
        let net = SimNet::new();
        let h = delegated_host(&net);
        assert!(h.install_sieve(&sieve_of(5, 60_000, &[("tok", "r1", "read", "req")])));
        let same = DelegationConfig {
            am: "am.example".into(),
            host_token: "ht".into(),
            delegation_id: "d-1".into(),
        };
        h.set_user_delegation("bob", same);
        assert!(!h.install_sieve(&sieve_of(4, 60_000, &[("tok", "r1", "read", "req")])));
        assert_eq!(h.stats().sieve_rejects, 1);
        assert!(h.install_sieve(&sieve_of(5, 60_000, &[("tok", "r1", "read", "req")])));
    }

    /// A decision query sent under the old delegation and settled after
    /// the owner switched AMs: its permit is learned under the old
    /// delegation, so it is never served under the new one. The next read
    /// asks `am-b`, which refuses the token.
    #[test]
    fn a_permit_settled_after_a_switch_is_not_served_under_the_new_delegation() {
        let net = SimNet::new();
        net.register(FakeAm::new());
        net.register(FakeAm::new_at("am-b.example")); // grants nothing
        let h = delegated_host(&net);
        let url = Url::new("h.example", "/r1");
        let now = net.clock().now_ms();
        let classified = h.classify(
            &net,
            "req",
            None,
            "r1",
            &Action::Read,
            Some("good"),
            &url,
            now,
        );
        let Classified::Miss(miss) = classified else {
            panic!("nothing is cached yet");
        };
        h.set_user_delegation("bob", am_b());
        let permit = DecisionOutcome::Body(DecisionBody::permit(60_000, 1));
        assert!(h.settle_decision(&net, permit, miss, now).is_grant());

        match h.enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url) {
            Enforcement::Block(resp) => assert_eq!(resp.status, Status::Unauthorized),
            Enforcement::Grant => panic!("a permit learned under the old delegation was served"),
        }
        assert_eq!(h.stats().cache_hits, 0);
        assert_eq!(net.stats().edge("h.example", "am-b.example"), 1);
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

    /// A revalidation counts only when its conditional query leaves for
    /// the primary AM: an open circuit sends the primary nothing, and the
    /// fallback's query never carries `if_epoch`.
    #[test]
    fn revalidations_count_only_conditional_queries_that_leave() {
        let net = SimNet::new();
        let primary = FakeAm::new();
        primary.grant("good", &permit_body(1_000, 1));
        let secondary = FakeAm::new_at("am-b.example");
        secondary.grant("good", &permit_body(60_000, 1));
        net.register(primary.clone());
        net.register(secondary.clone());
        let h = delegated_host(&net);
        h.set_resilience(
            ResilienceConfig::new()
                .with_breaker(BreakerConfig {
                    failure_threshold: 1,
                    cooldown_ms: 60_000,
                })
                .with_fallback_am(
                    "am.example",
                    DelegationConfig {
                        am: "am-b.example".into(),
                        host_token: "ht-b".into(),
                        delegation_id: "d-b".into(),
                    },
                ),
        );
        let url = Url::new("h.example", "/r1");
        let go = |requester: &str, token: &str| {
            h.enforce(
                &net,
                requester,
                None,
                "r1",
                &Action::Read,
                Some(token),
                &url,
            )
        };

        // A primary permit expires at an unchanged epoch.
        assert!(go("req", "good").is_grant());
        net.clock().advance_ms(1_001);
        // The primary goes dark; another requester's query opens the
        // circuit.
        net.set_offline("am.example", true);
        assert!(!go("req-2", "other").is_grant());
        assert!(h.breaker_open("am.example"));
        h.reset_stats();

        // The expired permit would revalidate, but the query fast-fails
        // and the fallback answers a plain one.
        assert!(go("req", "good").is_grant());
        let stats = h.stats();
        assert_eq!(stats.revalidations, 0, "{stats:?}");
        assert_eq!(stats.breaker_fast_fails, 1, "{stats:?}");
        assert_eq!(stats.fallback_queries, 1, "{stats:?}");
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
        h.set_decision_cache_capacity(0);
        assert_eq!(h.decision_cache_len(), 0);
        // Capacity 0: repeat accesses query the AM every time, nothing is
        // inserted.
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
            .is_grant());
        assert_eq!(h.decision_cache_len(), 0);
        assert_eq!(h.stats().cache_hits, 0);
        assert_eq!(h.stats().am_queries, 2);
        // Restored: the next permit is cached and the one after hits.
        h.set_decision_cache_capacity(DEFAULT_DECISION_CACHE_CAPACITY);
        for _ in 0..2 {
            assert!(h
                .enforce(&net, "req", None, "r1", &Action::Read, Some("good"), &url)
                .is_grant());
        }
        assert_eq!(h.decision_cache_len(), 1);
        assert_eq!((h.stats().am_queries, h.stats().cache_hits), (3, 1));
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
                    h.stats.add(Pep::CacheHits, 1);
                    h.stats.add(Pep::AmQueries, 1);
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
        h.stats.add(Pep::AmQueries, 3);
        h.stats.add(Pep::SieveHits, 1);
        h.stats.add(Pep::SieveMisses, 1);
        h.stats.add(Pep::SieveInstalls, 1);
        h.stats.add(Pep::SieveRejects, 1);
        h.max_served_staleness_ms.store(99, Ordering::Relaxed);
        h.reset_stats();
        assert_eq!(h.stats(), PepStats::default());
        assert_eq!(h.max_served_staleness_ms(), 0);
    }

    #[test]
    fn access_log_keeps_the_newest_entries_oldest_first() {
        let h = host();
        let cap = u64::try_from(HOST_LOG_CAP).expect("the cap fits in u64");
        for at_ms in 0..cap + 5 {
            h.record(at_ms, "req", "r1", &Action::Read, true, DecisionPath::Cache);
        }
        let kept: Vec<u64> = h.log().iter().map(|entry| entry.at_ms).collect();
        assert_eq!(kept, (5..cap + 5).collect::<Vec<u64>>());
    }

    /// A number below `n`, drawn from `state` (splitmix64).
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// An empty, short or 1 KiB text of `tag`s, drawn from `state`.
    fn draw_text(state: &mut u64, tag: char) -> String {
        match draw(state, 3) {
            0 => String::new(),
            1 => format!("{tag}{}", draw(state, 100)),
            _ => std::iter::repeat_n(tag, 1024).collect(),
        }
    }

    /// The access-log entry `seed` draws: requester and resource id
    /// empty, short or 1 KiB long, built-in and custom actions, either
    /// verdict and every path.
    fn log_entry_of(seed: u64, at_ms: u64) -> HostLogEntry {
        let mut state = seed;
        let requester = draw_text(&mut state, 'q');
        let resource_id = draw_text(&mut state, 'r');
        let action = match draw(&mut state, 3) {
            0 => Action::Read,
            1 => Action::Delete,
            _ => Action::Custom(draw_text(&mut state, 'a')),
        };
        let via = [
            DecisionPath::AmQuery,
            DecisionPath::Cache,
            DecisionPath::LegacyAcl,
            DecisionPath::RedirectedToAm,
            DecisionPath::Refused,
            DecisionPath::StaleGrace,
        ][draw(&mut state, 6) as usize];
        HostLogEntry {
            at_ms,
            requester,
            resource_id,
            action,
            granted: draw(&mut state, 2) == 1,
            via,
        }
    }

    /// The access log as 0.25.0 packed it: one slot of a reused buffer
    /// per record, in a queue of the newest [`HOST_LOG_CAP`]. The
    /// reference the ring slots must return the same log as.
    #[derive(Default)]
    struct SlotLog(VecDeque<LogSlot>);

    struct LogSlot {
        at_ms: u64,
        text: String,
        requester_end: usize,
        action: Action,
        granted: bool,
        via: DecisionPath,
    }

    impl SlotLog {
        fn record(&mut self, e: &HostLogEntry) {
            let oldest = (self.0.len() == HOST_LOG_CAP).then(|| self.0.pop_front());
            let mut slot = oldest.flatten().unwrap_or_else(|| LogSlot {
                at_ms: 0,
                text: String::new(),
                requester_end: 0,
                action: Action::Read,
                granted: false,
                via: DecisionPath::Refused,
            });
            slot.text.clear();
            slot.text.push_str(&e.requester);
            slot.requester_end = slot.text.len();
            slot.text.push_str(&e.resource_id);
            slot.at_ms = e.at_ms;
            slot.action.clone_from(&e.action);
            (slot.granted, slot.via) = (e.granted, e.via);
            self.0.push_back(slot);
        }

        fn log(&self) -> Vec<HostLogEntry> {
            let entry = |slot: &LogSlot| {
                let (requester, resource_id) = slot.text.split_at(slot.requester_end);
                HostLogEntry {
                    at_ms: slot.at_ms,
                    requester: requester.to_owned(),
                    resource_id: resource_id.to_owned(),
                    action: slot.action.clone(),
                    granted: slot.granted,
                    via: slot.via,
                }
            };
            self.0.iter().map(entry).collect()
        }
    }

    proptest::proptest! {
        /// The packed log returns exactly the newest [`HOST_LOG_CAP`]
        /// records it was given, oldest first, as an unpacked ring and
        /// the 0.25.0 slot ring would, whether or not it ever wrapped.
        #[test]
        fn the_packed_access_log_returns_exactly_what_it_was_given(
            records in 0..HOST_LOG_CAP + 300,
            seed in proptest::any::<u64>(),
        ) {
            let h = host();
            let mut unpacked = VecDeque::new();
            let mut slots = SlotLog::default();
            for at_ms in 0..records as u64 {
                let e = log_entry_of(seed ^ at_ms, at_ms);
                h.record(e.at_ms, &e.requester, &e.resource_id, &e.action, e.granted, e.via);
                slots.record(&e);
                if unpacked.len() == HOST_LOG_CAP {
                    unpacked.pop_front();
                }
                unpacked.push_back(e);
            }
            proptest::prop_assert_eq!(h.log(), Vec::from(unpacked));
            proptest::prop_assert_eq!(h.log(), slots.log());
        }
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
        SieveBody::build("bob", epoch, entries, &HmacKey::new(b"ht"))
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
            &HmacKey::new(b"not-ht"),
        );
        assert!(!h.install_sieve(&bad_key));

        // Owner with no delegation here.
        let no_owner = SieveBody::build("mallory", 1, Vec::new(), &HmacKey::new(b"ht"));
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

        // One entry of an otherwise good body has already expired.
        let entry = |action, expires_at_ms| protocol::SieveEntry {
            fingerprint: protocol::sieve_fingerprint("tok", "r1", action, "req"),
            resource: "r1".into(),
            expires_at_ms,
        };
        net.clock().advance_ms(1_000);
        let entries = vec![entry("read", 60_000), entry("write", 1_000)];
        assert!(!h.install_sieve(&SieveBody::build("bob", 1, entries, &HmacKey::new(b"ht"))));

        assert_eq!(h.stats().sieve_rejects, 6);
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
        protocol::SieveDeltaBody::build(
            "bob",
            epoch,
            base_epoch,
            added,
            removed,
            &HmacKey::new(b"ht"),
        )
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
        assert_eq!(h.sieve_snapshot().len(), 1);
        let table = h.permits.read();
        assert_eq!(table.owner_index.get("bob").map(Vec::len), Some(1));
    }

    #[test]
    fn sieve_edits_copy_the_published_map_only_when_they_change_it() {
        let net = SimNet::new();
        let h = delegated_host(&net);
        h.put_resource("r2", "bob", "file", b"data".to_vec())
            .unwrap();
        let fp = |token, resource| protocol::sieve_fingerprint(token, resource, "read", "req");

        // An empty install and a floor advance over an empty owner (what
        // set-up's push drain delivers) publish nothing new.
        let empty = h.sieve_snapshot();
        assert!(h.install_sieve(&sieve_of(1, 60_000, &[])));
        h.note_policy_epoch("bob", 2);
        assert!(Arc::ptr_eq(&empty, &h.sieve_snapshot()));

        // Installs that change the map copy it; a snapshot a reader took
        // before keeps exactly what it held.
        assert!(h.install_sieve(&sieve_of(2, 60_000, &[("tok", "r1", "read", "req")])));
        let full = h.sieve_snapshot();
        assert!(empty.is_empty());
        let delta = delta_of(
            3,
            2,
            &[("tok2", "r2", "read", "req")],
            &[("tok", "r1", "read", "req")],
        );
        assert_eq!(h.install_sieve_delta(&delta), SieveDeltaOutcome::Installed);
        assert!(full.contains_key(&fp("tok", "r1")) && !full.contains_key(&fp("tok2", "r2")));
        let narrowed = h.sieve_snapshot();
        assert!(
            !narrowed.contains_key(&fp("tok", "r1")) && narrowed.contains_key(&fp("tok2", "r2"))
        );
    }

    #[test]
    fn sieve_delta_base_mismatch_answers_resync() {
        let net = SimNet::new();
        let am = FakeAm::new();
        am.grant("fresh", &permit_body(60_000, 6));
        net.register(am.clone());
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

        // A decision reply teaches the cache epoch 6 while the sieve sits
        // at 5: a delta on the exact base, stamped 5, would rewind the
        // cache's floor.
        let url = Url::new("h.example", "/r1");
        assert!(h
            .enforce(&net, "req", None, "r1", &Action::Read, Some("fresh"), &url)
            .is_grant());
        let behind_cache = delta_of(5, 5, &[], &[]);
        assert_eq!(
            h.install_sieve_delta(&behind_cache),
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
        assert_eq!(stats.sieve_resyncs, 5);
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
        let bad_key = protocol::SieveDeltaBody::build(
            "bob",
            2,
            1,
            Vec::new(),
            Vec::new(),
            &HmacKey::new(b"no"),
        );
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
        let no_owner =
            protocol::SieveDeltaBody::build("mallory", 2, 1, vec![], vec![], &HmacKey::new(b"ht"));
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
