//! The centralized audit log (advantage C4 / requirement R4).
//!
//! > "access requests to resources at different Hosts are evaluated
//! > centrally by AM and a User may easily audit these requests and
//! > correlate them without the need to pull logging information from all
//! > Hosts."
//!
//! Every protocol-relevant event at the AM lands here. Experiment E13
//! compares the correlation power of this log against per-host logs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use ucam_policy::{Action, Outcome, PolicyId, ResourceRef};

/// What kind of event an audit entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A delegation was established or revoked.
    Delegation {
        /// `true` = established, `false` = revoked.
        established: bool,
    },
    /// A policy was created/updated/deleted or (un)linked.
    PolicyChange {
        /// Short description of the administrative operation.
        operation: String,
    },
    /// An authorization token was requested (Fig. 5).
    TokenRequested {
        /// Whether a token was issued.
        issued: bool,
    },
    /// A decision query from a Host was answered (Fig. 6).
    Decision {
        /// The decision outcome.
        outcome: Outcome,
    },
    /// A consent request was opened or settled (§V.D).
    Consent {
        /// The consent request id.
        consent_id: String,
        /// `"opened"`, `"granted"`, or `"denied"`.
        what: String,
    },
}

/// One audit log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Event time (simulated ms).
    pub at_ms: u64,
    /// Resource owner the event concerns.
    pub owner: String,
    /// Host involved, when applicable.
    pub host: Option<String>,
    /// Resource involved, when applicable.
    pub resource: Option<ResourceRef>,
    /// Requester involved, when applicable.
    pub requester: Option<String>,
    /// Human subject behind the requester, when known.
    pub subject: Option<String>,
    /// Action requested, when applicable.
    pub action: Option<Action>,
    /// Policies that contributed to a decision.
    pub policies: Vec<PolicyId>,
    /// The event itself.
    pub event: AuditEvent,
}

impl AuditEntry {
    /// Creates a minimal entry; extend with the builder-style setters.
    #[must_use]
    pub fn new(at_ms: u64, owner: &str, event: AuditEvent) -> Self {
        AuditEntry {
            at_ms,
            owner: owner.to_owned(),
            host: None,
            resource: None,
            requester: None,
            subject: None,
            action: None,
            policies: Vec::new(),
            event,
        }
    }

    /// Sets the host.
    #[must_use]
    pub fn at_host(mut self, host: &str) -> Self {
        self.host = Some(host.to_owned());
        self
    }

    /// Sets the resource (and its host).
    #[must_use]
    pub fn on_resource(mut self, resource: ResourceRef) -> Self {
        self.host = Some(resource.host.clone());
        self.resource = Some(resource);
        self
    }

    /// Sets the requester.
    #[must_use]
    pub fn by_requester(mut self, requester: &str, subject: Option<&str>) -> Self {
        self.requester = Some(requester.to_owned());
        self.subject = subject.map(str::to_owned);
        self
    }

    /// Sets the action.
    #[must_use]
    pub fn for_action(mut self, action: Action) -> Self {
        self.action = Some(action);
        self
    }

    /// Records the contributing policies.
    #[must_use]
    pub fn with_policies(mut self, policies: Vec<PolicyId>) -> Self {
        self.policies = policies;
        self
    }
}

/// The AM's append-only audit log.
///
/// # Example
///
/// ```
/// use ucam_am::audit::{AuditEntry, AuditEvent, AuditLog};
/// use ucam_policy::{Action, Outcome, ResourceRef};
///
/// let mut log = AuditLog::new();
/// log.record(
///     AuditEntry::new(10, "bob", AuditEvent::Decision { outcome: Outcome::Permit })
///         .on_resource(ResourceRef::new("webpics.example", "photo-1"))
///         .by_requester("requester:editor", Some("alice"))
///         .for_action(Action::Read),
/// );
/// assert_eq!(log.for_owner("bob").len(), 1);
/// assert_eq!(log.hosts_seen("bob"), vec!["webpics.example".to_string()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
}

impl AuditLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Appends an entry.
    pub fn record(&mut self, entry: AuditEntry) {
        self.entries.push(entry);
    }

    /// All entries, in order.
    #[must_use]
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries concerning resources owned by `owner` — the consolidated
    /// view of R4, available in one place.
    #[must_use]
    pub fn for_owner(&self, owner: &str) -> Vec<&AuditEntry> {
        self.entries.iter().filter(|e| e.owner == owner).collect()
    }

    /// Entries caused by `requester`, across **all** hosts — the
    /// correlation the paper says per-host logs cannot give without
    /// "pulling such information from all involved Web applications".
    #[must_use]
    pub fn correlate_requester(&self, requester: &str) -> Vec<&AuditEntry> {
        self.entries
            .iter()
            .filter(|e| e.requester.as_deref() == Some(requester))
            .collect()
    }

    /// Distinct hosts appearing in `owner`'s entries (sorted).
    #[must_use]
    pub fn hosts_seen(&self, owner: &str) -> Vec<String> {
        let mut hosts: Vec<String> = self
            .for_owner(owner)
            .iter()
            .filter_map(|e| e.host.clone())
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// Entries in the half-open time window `[from_ms, to_ms)` — audit
    /// review over a period ("audit them in a single location", §V.C).
    #[must_use]
    pub fn entries_between(&self, from_ms: u64, to_ms: u64) -> Vec<&AuditEntry> {
        self.entries
            .iter()
            .filter(|e| e.at_ms >= from_ms && e.at_ms < to_ms)
            .collect()
    }

    /// The full access history of one resource, across requesters.
    #[must_use]
    pub fn for_resource(&self, resource: &ResourceRef) -> Vec<&AuditEntry> {
        self.entries
            .iter()
            .filter(|e| e.resource.as_ref() == Some(resource))
            .collect()
    }

    /// Counts decision entries by outcome kind, for `owner`.
    #[must_use]
    pub fn decision_counts(&self, owner: &str) -> (usize, usize) {
        let mut permits = 0;
        let mut denies = 0;
        for entry in self.for_owner(owner) {
            if let AuditEvent::Decision { outcome } = &entry.event {
                if outcome.is_permit() {
                    permits += 1;
                } else {
                    denies += 1;
                }
            }
        }
        (permits, denies)
    }
}

/// How many ways [`AuditHub`] stripes its entries.
const AUDIT_STRIPES: usize = 8;

/// The striped, concurrent front-end to the audit log.
///
/// Recording is the hot-path operation — every token issuance and every
/// decision appends one entry — so it must not funnel through one lock.
/// [`AuditHub::record`] takes a global sequence number (one atomic
/// fetch-add) and appends to the stripe the sequence lands on; readers
/// call [`AuditHub::snapshot`] to merge the stripes back into one
/// [`AuditLog`] in exact record order. Recording scales with the stripe
/// count; snapshotting is O(n log n) and meant for observability, not for
/// per-request work (DESIGN.md §13).
#[derive(Debug, Default)]
pub struct AuditHub {
    stripes: [Mutex<VecDeque<(u64, AuditEntry)>>; AUDIT_STRIPES],
    seq: AtomicU64,
    /// Total retained-entry cap, 0 = unbounded. Million-entity runs set
    /// this so the log is a ring, not a leak; eviction is oldest-first
    /// per stripe, which round-robin assignment makes globally
    /// approximately oldest-first.
    cap: AtomicUsize,
}

impl AuditHub {
    /// Creates an empty, unbounded hub.
    #[must_use]
    pub fn new() -> Self {
        AuditHub::default()
    }

    /// Bounds the total retained entries (0 = unbounded). Dropping old
    /// entries only narrows the observability window; ground truth for
    /// decisions lives in the policy store, not here.
    pub fn set_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    /// Appends an entry to the stripe its global sequence number lands on.
    pub fn record(&self, entry: AuditEntry) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripes[(seq as usize) % AUDIT_STRIPES].lock();
        stripe.push_back((seq, entry));
        let cap = self.cap.load(Ordering::Relaxed);
        if cap > 0 {
            let per_stripe = (cap / AUDIT_STRIPES).max(1);
            while stripe.len() > per_stripe {
                stripe.pop_front();
            }
        }
    }

    /// Entries recorded so far (retained, across all stripes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Returns `true` when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges the stripes into one [`AuditLog`] in exact record order.
    #[must_use]
    pub fn snapshot(&self) -> AuditLog {
        let mut stamped: Vec<(u64, AuditEntry)> = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            stamped.extend(stripe.lock().iter().cloned());
        }
        stamped.sort_by_key(|(seq, _)| *seq);
        let mut log = AuditLog::new();
        for (_, entry) in stamped {
            log.record(entry);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucam_policy::DenyReason;

    fn decision(owner: &str, host: &str, requester: &str, permit: bool, at: u64) -> AuditEntry {
        let outcome = if permit {
            Outcome::Permit
        } else {
            Outcome::Deny(DenyReason::ExplicitDeny)
        };
        AuditEntry::new(at, owner, AuditEvent::Decision { outcome })
            .on_resource(ResourceRef::new(host, "r"))
            .by_requester(requester, None)
            .for_action(Action::Read)
    }

    /// At the cap each stripe keeps its newest entries, so the hub keeps
    /// the newest `cap` in record order; a lower cap trims the stripe
    /// the next record lands on.
    #[test]
    fn a_capped_hub_keeps_the_newest_entries() {
        let hub = AuditHub::new();
        hub.set_cap(16);
        for at in 0..40 {
            hub.record(decision("bob", "h1", "req-a", true, at));
        }
        let times: Vec<u64> = hub.snapshot().entries().iter().map(|e| e.at_ms).collect();
        assert_eq!(times, (24..40).collect::<Vec<_>>());

        hub.set_cap(8);
        hub.record(decision("bob", "h1", "req-a", true, 40));
        assert_eq!(hub.len(), 15);
        assert_eq!(hub.snapshot().entries()[0].at_ms, 25);
    }

    #[test]
    fn record_and_filter_by_owner() {
        let mut log = AuditLog::new();
        log.record(decision("bob", "h1", "req-a", true, 1));
        log.record(decision("alice", "h1", "req-a", true, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.for_owner("bob").len(), 1);
        assert_eq!(log.for_owner("alice").len(), 1);
        assert!(log.for_owner("chris").is_empty());
    }

    #[test]
    fn correlation_spans_hosts() {
        let mut log = AuditLog::new();
        log.record(decision("bob", "webpics.example", "req-a", true, 1));
        log.record(decision("bob", "webdocs.example", "req-a", true, 2));
        log.record(decision("bob", "webpics.example", "req-b", false, 3));
        let correlated = log.correlate_requester("req-a");
        assert_eq!(correlated.len(), 2);
        let hosts: Vec<_> = correlated
            .iter()
            .filter_map(|e| e.host.as_deref())
            .collect();
        assert!(hosts.contains(&"webpics.example") && hosts.contains(&"webdocs.example"));
    }

    #[test]
    fn hosts_seen_dedups_and_sorts() {
        let mut log = AuditLog::new();
        log.record(decision("bob", "z.example", "r", true, 1));
        log.record(decision("bob", "a.example", "r", true, 2));
        log.record(decision("bob", "z.example", "r", true, 3));
        assert_eq!(log.hosts_seen("bob"), vec!["a.example", "z.example"]);
    }

    #[test]
    fn decision_counts() {
        let mut log = AuditLog::new();
        log.record(decision("bob", "h", "r", true, 1));
        log.record(decision("bob", "h", "r", true, 2));
        log.record(decision("bob", "h", "r", false, 3));
        log.record(AuditEntry::new(
            4,
            "bob",
            AuditEvent::PolicyChange {
                operation: "create".into(),
            },
        ));
        assert_eq!(log.decision_counts("bob"), (2, 1));
    }

    #[test]
    fn builder_populates_fields() {
        let entry = AuditEntry::new(9, "bob", AuditEvent::TokenRequested { issued: true })
            .on_resource(ResourceRef::new("h.example", "r1"))
            .by_requester("req", Some("alice"))
            .for_action(Action::Write)
            .with_policies(vec![PolicyId::from("p1")]);
        assert_eq!(entry.host.as_deref(), Some("h.example"));
        assert_eq!(entry.subject.as_deref(), Some("alice"));
        assert_eq!(entry.action, Some(Action::Write));
        assert_eq!(entry.policies.len(), 1);
    }

    #[test]
    fn time_window_filtering() {
        let mut log = AuditLog::new();
        for t in [5u64, 10, 15, 20] {
            log.record(decision("bob", "h", "r", true, t));
        }
        assert_eq!(log.entries_between(10, 20).len(), 2);
        assert_eq!(log.entries_between(0, 100).len(), 4);
        assert_eq!(log.entries_between(21, 100).len(), 0);
    }

    #[test]
    fn per_resource_history() {
        let mut log = AuditLog::new();
        log.record(decision("bob", "h1", "req-a", true, 1));
        log.record(decision("bob", "h2", "req-b", false, 2));
        let r = ResourceRef::new("h1", "r");
        let history = log.for_resource(&r);
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].requester.as_deref(), Some("req-a"));
    }

    #[test]
    fn empty_log() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        assert_eq!(log.decision_counts("bob"), (0, 0));
        assert!(log.hosts_seen("bob").is_empty());
    }
}
