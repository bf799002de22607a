//! Asynchronous real-time consent (§V.D).
//!
//! > "an AM may send a request for such consent by sending an e-mail or SMS
//! > message to a User and will not issue an authorization token to the
//! > Requester before such consent is received. This, however, requires the
//! > interaction between a Requester and an Authorization Manager to be
//! > asynchronous."
//!
//! [`ConsentQueue`] tracks pending consent requests; [`NotificationOutbox`]
//! is the simulated e-mail/SMS channel (DESIGN.md §5 substitution). The
//! Requester polls the AM and receives the token once the owner grants.
//!
//! At population scale both pieces are built not to sit on a hot path:
//! [`ConsentHub`] shards the queue by owner (a policy with thousands of
//! pending consents only contends with owners on the same shard) and keeps
//! O(1) indexes for the two queries the PDP issues per decision — "is this
//! tuple granted?" and "is an identical request already pending?" — so
//! consent checks stay constant-time no matter how deep the queue grows.
//! The outbox separates *enqueue* (O(1), called under the PAP/PDP paths)
//! from *delivery* ([`NotificationOutbox::pump`], called from a pump loop)
//! so notification fan-out never blocks a policy write (DESIGN.md §13).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use ucam_policy::{AccessRequest, Action, ResourceRef};

/// Delivery channel of a consent notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Simulated e-mail.
    Email,
    /// Simulated SMS.
    Sms,
}

/// A message sent to a user over a simulated out-of-band channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Recipient user id.
    pub to_user: String,
    /// Channel used.
    pub channel: Channel,
    /// Message body.
    pub message: String,
    /// Send time (simulated ms).
    pub at_ms: u64,
}

/// The simulated e-mail/SMS outbox.
///
/// Writers [`enqueue`](Self::enqueue) in O(1); a pump loop moves pending
/// messages to the sent record in bounded batches. [`send`](Self::send)
/// remains as the synchronous path for code that wants both at once.
#[derive(Debug, Clone, Default)]
pub struct NotificationOutbox {
    pending: VecDeque<Notification>,
    sent: Vec<Notification>,
}

impl NotificationOutbox {
    /// Creates an empty outbox.
    #[must_use]
    pub fn new() -> Self {
        NotificationOutbox::default()
    }

    /// Sends (records) a notification immediately.
    pub fn send(&mut self, notification: Notification) {
        self.sent.push(notification);
    }

    /// Queues a notification for asynchronous delivery — the O(1) write
    /// the consent fan-out performs under load.
    pub fn enqueue(&mut self, notification: Notification) {
        self.pending.push_back(notification);
    }

    /// Delivers up to `max` queued notifications, returning how many
    /// moved. Bounded so a thousand pending consents drain across pump
    /// ticks instead of stalling one caller.
    pub fn pump(&mut self, max: usize) -> usize {
        let n = self.pending.len().min(max);
        for _ in 0..n {
            let notification = self.pending.pop_front().expect("len checked");
            self.sent.push(notification);
        }
        n
    }

    /// Delivers everything still queued (observability reads call this so
    /// an un-pumped queue is never mistaken for silence).
    pub fn flush(&mut self) {
        self.pump(usize::MAX);
    }

    /// Notifications queued but not yet delivered.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// All notifications sent so far.
    #[must_use]
    pub fn sent(&self) -> &[Notification] {
        &self.sent
    }

    /// Notifications addressed to `user`.
    #[must_use]
    pub fn for_user(&self, user: &str) -> Vec<&Notification> {
        self.sent.iter().filter(|n| n.to_user == user).collect()
    }
}

/// Lifecycle state of a consent request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsentState {
    /// Waiting for the owner.
    Pending,
    /// The owner granted access.
    Granted,
    /// The owner refused.
    Denied,
    /// The owner never answered within the configured window.
    Expired,
}

/// One pending/settled consent request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsentRequest {
    /// Unique id the Requester polls with.
    pub id: String,
    /// The resource owner who must decide.
    pub owner: String,
    /// The requesting application.
    pub requester: String,
    /// The human subject behind the requester, if known.
    pub subject: Option<String>,
    /// The resource access is requested for.
    pub resource: ResourceRef,
    /// The requested action.
    pub action: Action,
    /// Creation time (simulated ms).
    pub created_at_ms: u64,
    /// Current state.
    pub state: ConsentState,
}

/// An error operating on the consent queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsentError {
    /// No consent request with this id.
    UnknownRequest(String),
    /// The request was already settled (granted or denied).
    AlreadySettled,
}

impl fmt::Display for ConsentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsentError::UnknownRequest(id) => write!(f, "unknown consent request: {id}"),
            ConsentError::AlreadySettled => f.write_str("consent request already settled"),
        }
    }
}

impl std::error::Error for ConsentError {}

/// One access tuple, the shape the PDP asks about consent (and counts
/// uses) in: the [`AccessRequest`] it evaluates, with the requester as
/// its `requester_app`. The PDP builds it once per decision and every
/// lookup borrows it.
pub type AccessTuple = AccessRequest;
/// The tuple `open` deduplicates on (adds the owner).
type PendingKey = (String, String, Option<String>, ResourceRef, Action);

/// The AM's queue of consent requests.
///
/// # Example
///
/// ```
/// use ucam_am::consent::{ConsentQueue, ConsentState};
/// use ucam_policy::{Action, ResourceRef};
///
/// let mut queue = ConsentQueue::new();
/// let id = queue.open(
///     "bob",
///     "requester:editor",
///     Some("alice"),
///     ResourceRef::new("webpics.example", "photo-1"),
///     Action::Read,
///     0,
/// );
/// assert_eq!(queue.state(&id), Some(ConsentState::Pending));
/// queue.grant(&id)?;
/// assert_eq!(queue.state(&id), Some(ConsentState::Granted));
/// # Ok::<(), ucam_am::consent::ConsentError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConsentQueue {
    requests: HashMap<String, ConsentRequest>,
    next_id: u64,
    id_prefix: String,
    /// Granted (requester, subject, resource, action) tuples — the O(1)
    /// answer to [`ConsentQueue::is_granted`] regardless of queue depth.
    granted: HashSet<AccessTuple>,
    /// Pending request per dedupe tuple — the O(1) answer to "is an
    /// identical request already open?".
    pending_index: HashMap<PendingKey, String>,
}

impl Default for ConsentQueue {
    fn default() -> Self {
        ConsentQueue::with_id_prefix("consent")
    }
}

impl ConsentQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        ConsentQueue::default()
    }

    /// Creates an empty queue whose request ids start with `prefix` —
    /// how [`ConsentHub`] keeps ids globally unique across shards.
    #[must_use]
    pub fn with_id_prefix(prefix: &str) -> Self {
        ConsentQueue {
            requests: HashMap::new(),
            next_id: 0,
            id_prefix: prefix.to_owned(),
            granted: HashSet::new(),
            pending_index: HashMap::new(),
        }
    }

    fn pending_key(request: &ConsentRequest) -> PendingKey {
        (
            request.owner.clone(),
            request.requester.clone(),
            request.subject.clone(),
            request.resource.clone(),
            request.action.clone(),
        )
    }

    /// Opens a consent request, returning its id. An identical pending
    /// request (same owner, requester, subject, resource, action) is reused
    /// so repeated polling does not flood the owner with notifications.
    pub fn open(
        &mut self,
        owner: &str,
        requester: &str,
        subject: Option<&str>,
        resource: ResourceRef,
        action: Action,
        now_ms: u64,
    ) -> String {
        let key: PendingKey = (
            owner.to_owned(),
            requester.to_owned(),
            subject.map(str::to_owned),
            resource.clone(),
            action.clone(),
        );
        if let Some(id) = self.pending_index.get(&key) {
            return id.clone();
        }
        self.next_id += 1;
        let id = format!("{}-{}", self.id_prefix, self.next_id);
        self.pending_index.insert(key, id.clone());
        self.requests.insert(
            id.clone(),
            ConsentRequest {
                id: id.clone(),
                owner: owner.to_owned(),
                requester: requester.to_owned(),
                subject: subject.map(str::to_owned),
                resource,
                action,
                created_at_ms: now_ms,
                state: ConsentState::Pending,
            },
        );
        id
    }

    /// Grants a pending request.
    ///
    /// # Errors
    ///
    /// [`ConsentError::UnknownRequest`] or [`ConsentError::AlreadySettled`].
    pub fn grant(&mut self, id: &str) -> Result<(), ConsentError> {
        self.settle(id, ConsentState::Granted)
    }

    /// Denies a pending request.
    ///
    /// # Errors
    ///
    /// [`ConsentError::UnknownRequest`] or [`ConsentError::AlreadySettled`].
    pub fn deny(&mut self, id: &str) -> Result<(), ConsentError> {
        self.settle(id, ConsentState::Denied)
    }

    fn settle(&mut self, id: &str, state: ConsentState) -> Result<(), ConsentError> {
        let request = self
            .requests
            .get_mut(id)
            .ok_or_else(|| ConsentError::UnknownRequest(id.to_owned()))?;
        if request.state != ConsentState::Pending {
            return Err(ConsentError::AlreadySettled);
        }
        request.state = state;
        let key = Self::pending_key(request);
        if state == ConsentState::Granted {
            let (_, requester, subject, resource, action) = key.clone();
            self.granted.insert(AccessRequest {
                subject,
                requester_app: Some(requester),
                action,
                resource,
            });
        }
        self.pending_index.remove(&key);
        Ok(())
    }

    /// Returns the state of a request.
    #[must_use]
    pub fn state(&self, id: &str) -> Option<ConsentState> {
        self.requests.get(id).map(|r| r.state)
    }

    /// Returns the full request record.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&ConsentRequest> {
        self.requests.get(id)
    }

    /// All pending requests awaiting `owner`'s decision, oldest first.
    #[must_use]
    pub fn pending_for(&self, owner: &str) -> Vec<&ConsentRequest> {
        let mut pending: Vec<&ConsentRequest> = self
            .requests
            .values()
            .filter(|r| r.owner == owner && r.state == ConsentState::Pending)
            .collect();
        pending.sort_by_key(|r| (r.created_at_ms, r.id.clone()));
        pending
    }

    /// Expires every pending request older than `ttl_ms` at time `now_ms`.
    /// Returns how many were expired. The AM runs this lazily before
    /// answering polls, so an unanswered request cannot park forever.
    pub fn expire_pending(&mut self, now_ms: u64, ttl_ms: u64) -> usize {
        let mut expired = 0;
        for request in self.requests.values_mut() {
            if request.state == ConsentState::Pending
                && now_ms.saturating_sub(request.created_at_ms) >= ttl_ms
            {
                request.state = ConsentState::Expired;
                self.pending_index.remove(&Self::pending_key(request));
                expired += 1;
            }
        }
        expired
    }

    /// Returns `true` when an identical settled-granted request exists for
    /// `tuple` — the PDP consults this when re-evaluating after the owner
    /// acted. O(1) via the granted index, on the tuple the PDP already
    /// holds: the lookup copies nothing.
    #[must_use]
    pub fn is_granted(&self, tuple: &AccessTuple) -> bool {
        self.granted.contains(tuple)
    }
}

/// How many ways [`ConsentHub`] shards its queues.
const CONSENT_SHARDS: usize = 16;

/// The AM's sharded consent front-end: requests are partitioned by owner
/// hash, so one owner's thousand-deep queue never contends with another's
/// decision traffic, and settles route straight to the right shard via
/// the shard index embedded in the id (`consent-<shard>-<n>`).
#[derive(Debug)]
pub struct ConsentHub {
    shards: Vec<Mutex<ConsentQueue>>,
    ttl_ms: AtomicU64,
}

impl ConsentHub {
    /// Creates a hub whose pending requests expire after `ttl_ms`.
    #[must_use]
    pub fn new(ttl_ms: u64) -> Self {
        ConsentHub {
            shards: (0..CONSENT_SHARDS)
                .map(|s| Mutex::new(ConsentQueue::with_id_prefix(&format!("consent-{s}"))))
                .collect(),
            ttl_ms: AtomicU64::new(ttl_ms),
        }
    }

    /// Sets the pending-request lifetime.
    pub fn set_ttl_ms(&self, ttl_ms: u64) {
        self.ttl_ms.store(ttl_ms, Ordering::Relaxed);
    }

    fn shard_of_owner(&self, owner: &str) -> usize {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for byte in owner.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash as usize) % self.shards.len()
    }

    /// Extracts the shard index a request id routes to.
    fn shard_of_id(&self, id: &str) -> Option<usize> {
        let shard: usize = id
            .strip_prefix("consent-")?
            .split('-')
            .next()?
            .parse()
            .ok()?;
        (shard < self.shards.len()).then_some(shard)
    }

    fn sweep(&self, queue: &mut ConsentQueue, now_ms: u64) {
        queue.expire_pending(now_ms, self.ttl_ms.load(Ordering::Relaxed));
    }

    /// Opens (or reuses) a consent request on the owner's shard.
    pub fn open(
        &self,
        owner: &str,
        requester: &str,
        subject: Option<&str>,
        resource: ResourceRef,
        action: Action,
        now_ms: u64,
    ) -> String {
        self.shards[self.shard_of_owner(owner)]
            .lock()
            .open(owner, requester, subject, resource, action, now_ms)
    }

    /// Grants a request by id, returning the owner (for the audit trail).
    ///
    /// # Errors
    ///
    /// [`ConsentError::UnknownRequest`] or [`ConsentError::AlreadySettled`].
    pub fn grant(&self, id: &str) -> Result<String, ConsentError> {
        let shard = self
            .shard_of_id(id)
            .ok_or_else(|| ConsentError::UnknownRequest(id.to_owned()))?;
        let mut queue = self.shards[shard].lock();
        queue.grant(id)?;
        Ok(queue.get(id).map(|r| r.owner.clone()).unwrap_or_default())
    }

    /// Denies a request by id, returning the owner (for the audit trail).
    ///
    /// # Errors
    ///
    /// [`ConsentError::UnknownRequest`] or [`ConsentError::AlreadySettled`].
    pub fn deny(&self, id: &str) -> Result<String, ConsentError> {
        let shard = self
            .shard_of_id(id)
            .ok_or_else(|| ConsentError::UnknownRequest(id.to_owned()))?;
        let mut queue = self.shards[shard].lock();
        queue.deny(id)?;
        Ok(queue.get(id).map(|r| r.owner.clone()).unwrap_or_default())
    }

    /// The state of a request (after lazily expiring its shard).
    #[must_use]
    pub fn state(&self, id: &str, now_ms: u64) -> Option<ConsentState> {
        let shard = self.shard_of_id(id)?;
        let mut queue = self.shards[shard].lock();
        self.sweep(&mut queue, now_ms);
        queue.state(id)
    }

    /// The owner of a request, if it exists.
    #[must_use]
    pub fn owner_of(&self, id: &str) -> Option<String> {
        let shard = self.shard_of_id(id)?;
        self.shards[shard].lock().get(id).map(|r| r.owner.clone())
    }

    /// Pending request ids for `owner`, oldest first (after lazily
    /// expiring the owner's shard).
    #[must_use]
    pub fn pending_for(&self, owner: &str, now_ms: u64) -> Vec<String> {
        let mut queue = self.shards[self.shard_of_owner(owner)].lock();
        self.sweep(&mut queue, now_ms);
        queue
            .pending_for(owner)
            .into_iter()
            .map(|r| r.id.clone())
            .collect()
    }

    /// O(1) granted check, routed by the owner whose policy asked.
    #[must_use]
    pub fn is_granted(&self, owner: &str, tuple: &AccessTuple) -> bool {
        self.shards[self.shard_of_owner(owner)]
            .lock()
            .is_granted(tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photo() -> ResourceRef {
        ResourceRef::new("webpics.example", "photo-1")
    }

    /// The access tuple for `action` on [`photo`].
    fn on_photo(requester: &str, subject: Option<&str>, action: Action) -> AccessTuple {
        AccessRequest {
            subject: subject.map(str::to_owned),
            requester_app: Some(requester.to_owned()),
            action,
            resource: photo(),
        }
    }

    #[test]
    fn open_grant_poll() {
        let mut q = ConsentQueue::new();
        let id = q.open("bob", "req", Some("alice"), photo(), Action::Read, 7);
        assert_eq!(q.state(&id), Some(ConsentState::Pending));
        assert_eq!(q.get(&id).unwrap().created_at_ms, 7);
        q.grant(&id).unwrap();
        assert_eq!(q.state(&id), Some(ConsentState::Granted));
        assert!(q.is_granted(&on_photo("req", Some("alice"), Action::Read)));
    }

    #[test]
    fn deny_settles() {
        let mut q = ConsentQueue::new();
        let id = q.open("bob", "req", None, photo(), Action::Read, 0);
        q.deny(&id).unwrap();
        assert_eq!(q.state(&id), Some(ConsentState::Denied));
        assert!(!q.is_granted(&on_photo("req", None, Action::Read)));
    }

    #[test]
    fn settle_twice_errors() {
        let mut q = ConsentQueue::new();
        let id = q.open("bob", "req", None, photo(), Action::Read, 0);
        q.grant(&id).unwrap();
        assert_eq!(q.grant(&id), Err(ConsentError::AlreadySettled));
        assert_eq!(q.deny(&id), Err(ConsentError::AlreadySettled));
    }

    #[test]
    fn unknown_id_errors() {
        let mut q = ConsentQueue::new();
        assert!(matches!(
            q.grant("ghost"),
            Err(ConsentError::UnknownRequest(_))
        ));
        assert_eq!(q.state("ghost"), None);
    }

    #[test]
    fn duplicate_pending_reused() {
        let mut q = ConsentQueue::new();
        let id1 = q.open("bob", "req", None, photo(), Action::Read, 0);
        let id2 = q.open("bob", "req", None, photo(), Action::Read, 5);
        assert_eq!(id1, id2, "identical pending request is reused");
        // After settling, a new open creates a fresh request.
        q.deny(&id1).unwrap();
        let id3 = q.open("bob", "req", None, photo(), Action::Read, 10);
        assert_ne!(id1, id3);
    }

    #[test]
    fn different_requests_not_deduped() {
        let mut q = ConsentQueue::new();
        let id1 = q.open("bob", "req", None, photo(), Action::Read, 0);
        let id2 = q.open("bob", "req", None, photo(), Action::Write, 0);
        let id3 = q.open("bob", "other-req", None, photo(), Action::Read, 0);
        assert_ne!(id1, id2);
        assert_ne!(id1, id3);
    }

    #[test]
    fn pending_for_sorted_by_age() {
        let mut q = ConsentQueue::new();
        q.open("bob", "r1", None, photo(), Action::Read, 10);
        q.open("bob", "r2", None, photo(), Action::Read, 5);
        q.open("alice", "r3", None, photo(), Action::Read, 1);
        let pending = q.pending_for("bob");
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].requester, "r2");
        assert_eq!(pending[1].requester, "r1");
    }

    #[test]
    fn pending_requests_expire() {
        let mut q = ConsentQueue::new();
        let old = q.open("bob", "r1", None, photo(), Action::Read, 0);
        let fresh = q.open("bob", "r2", None, photo(), Action::Read, 900);
        assert_eq!(q.expire_pending(1000, 500), 1);
        assert_eq!(q.state(&old), Some(ConsentState::Expired));
        assert_eq!(q.state(&fresh), Some(ConsentState::Pending));
        // Expired requests cannot be settled.
        assert_eq!(q.grant(&old), Err(ConsentError::AlreadySettled));
        // And they are not deduplication targets: a retry opens fresh.
        let retry = q.open("bob", "r1", None, photo(), Action::Read, 1001);
        assert_ne!(retry, old);
        // Settled requests never expire.
        q.grant(&fresh).unwrap();
        assert_eq!(q.expire_pending(10_000, 1), 1); // only `retry`
        assert_eq!(q.state(&fresh), Some(ConsentState::Granted));
    }

    #[test]
    fn granted_index_survives_deep_queues() {
        let mut q = ConsentQueue::new();
        for i in 0..1000 {
            q.open("bob", &format!("r{i}"), None, photo(), Action::Read, 0);
        }
        let id = q.open("bob", "the-one", None, photo(), Action::Write, 0);
        q.grant(&id).unwrap();
        // One lookup, not a thousand-element scan.
        assert!(q.is_granted(&on_photo("the-one", None, Action::Write)));
        assert!(!q.is_granted(&on_photo("r5", None, Action::Read)));
    }

    #[test]
    fn hub_routes_by_owner_and_id() {
        let hub = ConsentHub::new(1000);
        let id_a = hub.open("alice", "req", None, photo(), Action::Read, 0);
        let id_b = hub.open("bob", "req", None, photo(), Action::Read, 0);
        assert_ne!(id_a, id_b, "ids are globally unique across shards");
        assert_eq!(hub.owner_of(&id_a).as_deref(), Some("alice"));
        assert_eq!(hub.grant(&id_a).as_deref(), Ok("alice"));
        assert!(hub.is_granted("alice", &on_photo("req", None, Action::Read)));
        assert!(
            !hub.is_granted("bob", &on_photo("req", None, Action::Read)),
            "grants are scoped to the owner whose policy asked"
        );
        assert_eq!(hub.deny(&id_b).as_deref(), Ok("bob"));
        assert_eq!(hub.state(&id_b, 1), Some(ConsentState::Denied));
        assert!(matches!(
            hub.grant("consent-999-1"),
            Err(ConsentError::UnknownRequest(_))
        ));
    }

    #[test]
    fn hub_expires_on_poll() {
        let hub = ConsentHub::new(100);
        let id = hub.open("bob", "req", None, photo(), Action::Read, 0);
        assert_eq!(hub.pending_for("bob", 50).len(), 1);
        assert_eq!(hub.state(&id, 200), Some(ConsentState::Expired));
        assert!(hub.pending_for("bob", 200).is_empty());
    }

    #[test]
    fn outbox_records_and_filters() {
        let mut outbox = NotificationOutbox::new();
        outbox.send(Notification {
            to_user: "bob".into(),
            channel: Channel::Email,
            message: "consent requested".into(),
            at_ms: 1,
        });
        outbox.send(Notification {
            to_user: "alice".into(),
            channel: Channel::Sms,
            message: "hi".into(),
            at_ms: 2,
        });
        assert_eq!(outbox.sent().len(), 2);
        assert_eq!(outbox.for_user("bob").len(), 1);
        assert_eq!(outbox.for_user("bob")[0].channel, Channel::Email);
    }

    #[test]
    fn outbox_pump_is_bounded_and_ordered() {
        let mut outbox = NotificationOutbox::new();
        for i in 0..5 {
            outbox.enqueue(Notification {
                to_user: "bob".into(),
                channel: Channel::Email,
                message: format!("m{i}"),
                at_ms: i,
            });
        }
        assert_eq!(outbox.sent().len(), 0, "enqueue does not deliver");
        assert_eq!(outbox.pending_len(), 5);
        assert_eq!(outbox.pump(2), 2);
        assert_eq!(outbox.sent().len(), 2);
        assert_eq!(outbox.sent()[0].message, "m0", "FIFO delivery");
        outbox.flush();
        assert_eq!(outbox.pending_len(), 0);
        assert_eq!(outbox.sent().len(), 5);
    }
}
