//! The centralized audit log (advantage C4 / requirement R4).
//!
//! > "access requests to resources at different Hosts are evaluated
//! > centrally by AM and a User may easily audit these requests and
//! > correlate them without the need to pull logging information from all
//! > Hosts."
//!
//! Every protocol-relevant event at the AM lands here. Experiment E13
//! compares the correlation power of this log against per-host logs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use ucam_policy::{Action, DenyReason, Outcome, PolicyId, ResourceRef};
use ucam_webenv::{RecordFields, RecordRing};

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

/// An audit record with its text borrowed from wherever it lives: what
/// [`AuditHub`] packs into a ring slot. [`AuditHub::record`] borrows an
/// [`AuditEntry`]'s fields; the AM's decision path borrows the tuple it
/// evaluated. The policies come as two slices so that a decision's
/// general and specific policy need no vector.
#[derive(Debug)]
pub(crate) struct AuditRecord<'a> {
    /// Event time (simulated ms).
    pub(crate) at_ms: u64,
    /// Resource owner the event concerns.
    pub(crate) owner: &'a str,
    /// Host involved, when applicable.
    pub(crate) host: Option<&'a str>,
    /// Resource involved, when applicable.
    pub(crate) resource: Option<&'a ResourceRef>,
    /// Requester involved, when applicable.
    pub(crate) requester: Option<&'a str>,
    /// Human subject behind the requester, when known.
    pub(crate) subject: Option<&'a str>,
    /// Action requested, when applicable.
    pub(crate) action: Option<&'a Action>,
    /// Policies that contributed to a decision, the first slice first.
    pub(crate) policies: [&'a [PolicyId]; 2],
    /// The event itself.
    pub(crate) event: AuditEvent,
}

/// Bits of `AuditMeta::present`: which optional text fields a record
/// has, and whether its host is its resource's (then kept once).
const HOST: u8 = 1;
const RESOURCE: u8 = 2;
const REQUESTER: u8 = 4;
const SUBJECT: u8 = 8;
const RESOURCE_HOST: u8 = 16;

/// `AuditMeta::action` of a record without an action: past every code
/// [`Action::pack`] gives.
const NO_ACTION: u8 = u8::MAX;

/// The events a slot keeps as their index here. Every other event holds
/// text of its own and is boxed beside the record.
static CODED_EVENTS: [AuditEvent; 10] = [
    AuditEvent::Decision {
        outcome: Outcome::Permit,
    },
    AuditEvent::Decision {
        outcome: Outcome::Deny(DenyReason::NoApplicablePolicy),
    },
    AuditEvent::Decision {
        outcome: Outcome::Deny(DenyReason::ExplicitDeny),
    },
    AuditEvent::Decision {
        outcome: Outcome::Deny(DenyReason::GeneralPolicyDeny),
    },
    AuditEvent::Decision {
        outcome: Outcome::NotApplicable,
    },
    AuditEvent::Decision {
        outcome: Outcome::RequiresConsent,
    },
    AuditEvent::TokenRequested { issued: true },
    AuditEvent::TokenRequested { issued: false },
    AuditEvent::Delegation { established: true },
    AuditEvent::Delegation { established: false },
];

/// A record's typed part in its ring slot, 32 bytes. Its text fields are
/// the owner, host (empty when it is the resource's), resource host and
/// id, requester, subject and a custom action's name (an absent one
/// empty), then each policy id.
#[derive(Debug)]
struct AuditMeta {
    /// Global record order.
    seq: u64,
    /// Event time (simulated ms).
    at_ms: u64,
    /// An event outside [`CODED_EVENTS`]; `None` for a coded one.
    rare: Option<Box<AuditEvent>>,
    /// The event's index in [`CODED_EVENTS`] when it is coded.
    event: u8,
    /// The `present` bits: [`HOST`], [`RESOURCE`], [`REQUESTER`],
    /// [`SUBJECT`] and [`RESOURCE_HOST`].
    present: u8,
    /// The action as [`Action::pack`] packs it, or [`NO_ACTION`].
    action: u8,
}

/// One stripe: its records in 128-byte slots of 84 text bytes and ten
/// fields, which the records the protocol makes fit (DESIGN.md §13).
type Stripe = RecordRing<AuditMeta, 84, 10>;

/// Rebuilds the entry a stripe holds, exactly as it was recorded.
fn entry(meta: &AuditMeta, mut fields: RecordFields<'_>) -> AuditEntry {
    let mut next = || fields.next().unwrap_or_default();
    let (owner, host, resource_host, resource_id) = (next(), next(), next(), next());
    let (requester, subject, custom) = (next(), next(), next());
    let has = |bit: u8| meta.present & bit != 0;
    let host = if has(RESOURCE_HOST) {
        resource_host
    } else {
        host
    };
    let action = (meta.action != NO_ACTION).then(|| Action::unpack(meta.action, custom));
    let event = match &meta.rare {
        Some(rare) => AuditEvent::clone(rare),
        None => CODED_EVENTS[usize::from(meta.event)].clone(),
    };
    AuditEntry {
        at_ms: meta.at_ms,
        owner: owner.to_owned(),
        host: has(HOST).then(|| host.to_owned()),
        resource: has(RESOURCE).then(|| ResourceRef::new(resource_host, resource_id)),
        requester: has(REQUESTER).then(|| requester.to_owned()),
        subject: has(SUBJECT).then(|| subject.to_owned()),
        action,
        policies: fields.map(PolicyId::from).collect(),
        event,
    }
}

/// The striped, concurrent front-end to the audit log.
///
/// Recording is the hot-path operation — every token issuance and every
/// decision appends one entry — so it must not funnel through one lock.
/// [`AuditHub::record`] takes a global sequence number (one atomic
/// fetch-add) and appends to the stripe the sequence lands on; readers
/// call [`AuditHub::snapshot`] to merge the stripes back into one
/// [`AuditLog`] in exact record order. Each stripe is a [`RecordRing`]:
/// a record packs into one slot, and at the stripe's share of the cap it
/// overwrites the stripe's oldest slot in place. Recording scales with
/// the stripe count; snapshotting is O(n log n) and meant for
/// observability, not for per-request work (DESIGN.md §13).
#[derive(Debug, Default)]
pub struct AuditHub {
    stripes: [Mutex<Stripe>; AUDIT_STRIPES],
    seq: AtomicU64,
    /// Total retained-entry cap, 0 = unbounded. Million-entity runs set
    /// this so the log is a ring, not a leak. The stripes' shares sum to
    /// it; eviction is oldest-first per stripe, which round-robin
    /// assignment makes globally approximately oldest-first.
    cap: AtomicUsize,
}

impl AuditHub {
    /// Creates an empty, unbounded hub.
    #[must_use]
    pub fn new() -> Self {
        AuditHub::default()
    }

    /// Bounds the total retained entries (0 = unbounded): a full hub
    /// holds exactly `cap`. Dropping old entries only narrows the
    /// observability window; ground truth for decisions lives in the
    /// policy store, not here.
    pub fn set_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    /// Appends an entry to the stripe its global sequence number lands on.
    pub fn record(&self, entry: AuditEntry) {
        let AuditEntry {
            at_ms,
            owner,
            host,
            resource,
            requester,
            subject,
            action,
            policies,
            event,
        } = entry;
        self.append(AuditRecord {
            at_ms,
            owner: &owner,
            host: host.as_deref(),
            resource: resource.as_ref(),
            requester: requester.as_deref(),
            subject: subject.as_deref(),
            action: action.as_ref(),
            policies: [&policies, &[]],
            event,
        });
    }

    /// Packs `record` into the stripe its global sequence number lands on,
    /// which keeps its share of the cap: `cap / 8`, one more for the
    /// first `cap % 8` stripes.
    pub(crate) fn append(&self, record: AuditRecord<'_>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let stripe = (seq as usize) % AUDIT_STRIPES;
        let share = match self.cap.load(Ordering::Relaxed) {
            0 => usize::MAX,
            cap => cap / AUDIT_STRIPES + usize::from(stripe < cap % AUDIT_STRIPES),
        };
        let (action, custom) = record.action.map_or((NO_ACTION, ""), Action::pack);
        let resource = record.resource;
        let resource_host = resource.map(|r| r.host.as_str());
        let same_host = record.host.is_some() && record.host == resource_host;
        let present = [
            (record.host.is_some(), HOST),
            (resource.is_some(), RESOURCE),
            (record.requester.is_some(), REQUESTER),
            (record.subject.is_some(), SUBJECT),
            (same_host, RESOURCE_HOST),
        ]
        .into_iter()
        .fold(0, |bits, (set, bit)| if set { bits | bit } else { bits });
        let fields = [
            Some(record.owner),
            record.host.filter(|_| !same_host),
            resource_host,
            resource.map(|r| r.id.as_str()),
            record.requester,
            record.subject,
            Some(custom),
        ];
        let policies = record.policies.into_iter().flatten().map(PolicyId::as_str);
        let (event, rare) = match CODED_EVENTS.iter().position(|e| *e == record.event) {
            Some(code) => (code as u8, None),
            None => (0, Some(Box::new(record.event))),
        };
        let meta = AuditMeta {
            seq,
            at_ms: record.at_ms,
            rare,
            event,
            present,
            action,
        };
        let texts = fields.into_iter().map(Option::unwrap_or_default);
        self.stripes[stripe]
            .lock()
            .push(share, meta, texts.chain(policies));
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
            let stripe = stripe.lock();
            stamped.extend(
                stripe
                    .iter()
                    .map(|(meta, fields)| (meta.seq, entry(meta, fields))),
            );
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
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use ucam_policy::ClaimRequirement;

    /// Draws the parts of a generated entry from one seed (splitmix64).
    struct Draw(u64);

    impl Draw {
        /// A number below `n`.
        fn pick(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// An empty, short or 1 KiB text of `tag`s.
        fn text(&mut self, tag: char) -> String {
            match self.pick(3) {
                0 => String::new(),
                1 => format!("{tag}{}", self.pick(100)),
                _ => std::iter::repeat_n(tag, 1024).collect(),
            }
        }

        /// A text half the time.
        fn opt(&mut self, tag: char) -> Option<String> {
            (self.pick(2) == 1).then(|| self.text(tag))
        }
    }

    /// An entry drawn from `seed`: every event and outcome variant, custom
    /// actions, absent and present optional fields (a host that is not
    /// the resource's among them), texts empty, short and 1 KiB long, and
    /// zero to three or twelve policies.
    fn entry_of(seed: u64, at_ms: u64) -> AuditEntry {
        let mut d = Draw(seed);
        let outcome = match d.pick(8) {
            0 => Outcome::Permit,
            1 => Outcome::Deny(DenyReason::ExplicitDeny),
            2 => Outcome::Deny(DenyReason::NoApplicablePolicy),
            3 => Outcome::Deny(DenyReason::ConditionFailed(d.text('c'))),
            4 => Outcome::Deny(DenyReason::GeneralPolicyDeny),
            5 => Outcome::NotApplicable,
            6 => Outcome::RequiresConsent,
            _ => Outcome::RequiresClaims(vec![ClaimRequirement {
                kind: d.text('k'),
                issuer: d.opt('i'),
            }]),
        };
        let event = match d.pick(5) {
            0 => AuditEvent::Delegation {
                established: d.pick(2) == 1,
            },
            1 => AuditEvent::PolicyChange {
                operation: d.text('o'),
            },
            2 => AuditEvent::TokenRequested {
                issued: d.pick(2) == 1,
            },
            3 => AuditEvent::Decision { outcome },
            _ => AuditEvent::Consent {
                consent_id: d.text('n'),
                what: d.text('w'),
            },
        };
        let action = match d.pick(4) {
            0 => None,
            1 => Some(Action::Read),
            2 => Some(Action::Share),
            _ => Some(Action::Custom(d.text('a'))),
        };
        let resource = (d.pick(2) == 1).then(|| ResourceRef::new(&d.text('h'), &d.text('r')));
        AuditEntry {
            at_ms,
            owner: d.text('b'),
            host: d.opt('h'),
            resource,
            requester: d.opt('q'),
            subject: d.opt('s'),
            action,
            policies: (0..[0, 1, 2, 3, 12][d.pick(5) as usize])
                .map(|_| PolicyId(d.text('p')))
                .collect(),
            event,
        }
    }

    /// Stripe `stripe`'s share of `cap` (0 = unbounded): the shares sum
    /// to the cap.
    fn share(cap: usize, stripe: usize) -> usize {
        match cap {
            0 => usize::MAX,
            cap => cap / AUDIT_STRIPES + usize::from(stripe < cap % AUDIT_STRIPES),
        }
    }

    /// The log the packed hub must match: the hub's striping and cap,
    /// holding whole entries.
    #[derive(Default)]
    struct Unpacked {
        stripes: [VecDeque<(u64, AuditEntry)>; AUDIT_STRIPES],
        seq: u64,
        cap: usize,
    }

    impl Unpacked {
        fn record(&mut self, entry: AuditEntry) {
            let seq = self.seq;
            self.seq += 1;
            let at = (seq as usize) % AUDIT_STRIPES;
            let stripe = &mut self.stripes[at];
            stripe.push_back((seq, entry));
            while stripe.len() > share(self.cap, at) {
                stripe.pop_front();
            }
        }

        fn entries(&self) -> Vec<AuditEntry> {
            let mut stamped: Vec<&(u64, AuditEntry)> = self.stripes.iter().flatten().collect();
            stamped.sort_by_key(|(seq, _)| *seq);
            stamped
                .into_iter()
                .map(|(_, entry)| entry.clone())
                .collect()
        }
    }

    proptest! {
        /// The packed hub returns exactly what an unpacked log of the same
        /// records returns, in order, under any cap, a lowered one
        /// included. Half the records arrive as entries, half as borrowed
        /// records whose policies are split across the two slices, as a
        /// decision's general and specific policy are.
        #[test]
        fn the_packed_hub_returns_exactly_what_it_was_given(
            ops in proptest::collection::vec((0u8..12, any::<u64>()), 1..160),
            cap in 0usize..48,
        ) {
            let hub = AuditHub::new();
            let mut unpacked = Unpacked { cap, ..Unpacked::default() };
            let slots = slot_ring::SlotHub::default();
            hub.set_cap(cap);
            slots.set_cap(cap);
            for (at_ms, (op, seed)) in (0..).zip(ops) {
                let entry = entry_of(seed, at_ms);
                let split = (seed as usize) % (entry.policies.len() + 1);
                let (general, specific) = entry.policies.split_at(split);
                let record = || AuditRecord {
                    at_ms: entry.at_ms,
                    owner: &entry.owner,
                    host: entry.host.as_deref(),
                    resource: entry.resource.as_ref(),
                    requester: entry.requester.as_deref(),
                    subject: entry.subject.as_deref(),
                    action: entry.action.as_ref(),
                    policies: [general, specific],
                    event: entry.event.clone(),
                };
                match op {
                    0 => {
                        // Lowered, or raised past what the stripes hold.
                        let moved = 1 + (seed % 60) as usize;
                        hub.set_cap(moved);
                        slots.set_cap(moved);
                        unpacked.cap = moved;
                    }
                    1..=5 => hub.record(entry.clone()),
                    _ => hub.append(record()),
                }
                if op != 0 {
                    slots.append(record());
                    unpacked.record(entry.clone());
                }
            }
            prop_assert_eq!(hub.snapshot().entries(), unpacked.entries().as_slice());
            prop_assert_eq!(hub.len(), unpacked.entries().len());
            prop_assert_eq!(hub.snapshot().entries(), slots.snapshot().as_slice());
        }
    }

    /// A full hub keeps exactly its cap, however the cap divides among
    /// the stripes, and keeps the newest records of each stripe.
    #[test]
    fn a_full_hub_keeps_exactly_its_cap() {
        for cap in [1, 3, 7, 12, 4_095, 4_096] {
            let hub = AuditHub::new();
            hub.set_cap(cap);
            let recorded = 2 * cap as u64 + 50;
            for at in 0..recorded {
                hub.record(decision("bob", "h1", "req-a", true, at));
            }
            assert_eq!(hub.len(), cap, "cap {cap}");
            let times: Vec<u64> = hub.snapshot().entries().iter().map(|e| e.at_ms).collect();
            assert_eq!(times.len(), cap, "cap {cap}");
            let newest = (recorded - AUDIT_STRIPES as u64..recorded).filter(|at| {
                (*at as usize % AUDIT_STRIPES) < cap % AUDIT_STRIPES || cap >= AUDIT_STRIPES
            });
            for at in newest {
                assert!(times.contains(&at), "cap {cap}: record {at} dropped");
            }
        }
    }

    /// The audit ring as 0.25.0 packed it, one slot of reused buffers per
    /// record, with the hub's stripe shares: the reference the ring slots
    /// must return the same log as.
    mod slot_ring {
        use super::*;

        #[derive(Default)]
        pub(super) struct SlotHub {
            stripes: [Mutex<VecDeque<Slot>>; AUDIT_STRIPES],
            seq: AtomicU64,
            cap: AtomicUsize,
        }

        struct Slot {
            seq: u64,
            at_ms: u64,
            text: String,
            ends: Vec<usize>,
            present: u8,
            action: Option<Action>,
            event: AuditEvent,
        }

        impl Slot {
            fn fill(&mut self, seq: u64, record: AuditRecord<'_>) {
                let resource = record.resource;
                let fields = [
                    Some(record.owner),
                    record.host,
                    resource.map(|r| r.host.as_str()),
                    resource.map(|r| r.id.as_str()),
                    record.requester,
                    record.subject,
                ];
                let policies = record.policies.into_iter().flatten().map(PolicyId::as_str);
                self.text.clear();
                self.ends.clear();
                for text in fields.into_iter().map(|f| f.unwrap_or("")).chain(policies) {
                    self.text.push_str(text);
                    self.ends.push(self.text.len());
                }
                self.seq = seq;
                self.at_ms = record.at_ms;
                self.present = [
                    (record.host.is_some(), HOST),
                    (resource.is_some(), RESOURCE),
                    (record.requester.is_some(), REQUESTER),
                    (record.subject.is_some(), SUBJECT),
                ]
                .into_iter()
                .filter_map(|(set, bit)| set.then_some(bit))
                .fold(0, |bits, bit| bits | bit);
                self.action = record.action.cloned();
                self.event = record.event;
            }

            fn entry(&self) -> AuditEntry {
                let mut start = 0;
                let mut fields = self.ends.iter().map(|&end| {
                    let field = &self.text[start..end];
                    start = end;
                    field
                });
                let mut next = || fields.next().unwrap_or_default();
                let (owner, host, resource_host, resource_id) = (next(), next(), next(), next());
                let (requester, subject) = (next(), next());
                let has = |bit: u8| self.present & bit != 0;
                AuditEntry {
                    at_ms: self.at_ms,
                    owner: owner.to_owned(),
                    host: has(HOST).then(|| host.to_owned()),
                    resource: has(RESOURCE).then(|| ResourceRef::new(resource_host, resource_id)),
                    requester: has(REQUESTER).then(|| requester.to_owned()),
                    subject: has(SUBJECT).then(|| subject.to_owned()),
                    action: self.action.clone(),
                    policies: fields.map(PolicyId::from).collect(),
                    event: self.event.clone(),
                }
            }
        }

        impl SlotHub {
            pub(super) fn set_cap(&self, cap: usize) {
                self.cap.store(cap, Ordering::Relaxed);
            }

            pub(super) fn append(&self, record: AuditRecord<'_>) {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                let at = (seq as usize) % AUDIT_STRIPES;
                let mut stripe = self.stripes[at].lock();
                let share = share(self.cap.load(Ordering::Relaxed), at);
                let excess = stripe.len().saturating_sub(share);
                stripe.drain(..excess);
                if share == 0 {
                    return;
                }
                let oldest = (stripe.len() == share)
                    .then(|| stripe.pop_front())
                    .flatten();
                let mut slot = oldest.unwrap_or_else(|| Slot {
                    seq,
                    at_ms: 0,
                    text: String::new(),
                    ends: Vec::new(),
                    present: 0,
                    action: None,
                    event: AuditEvent::Delegation { established: false },
                });
                slot.fill(seq, record);
                stripe.push_back(slot);
            }

            pub(super) fn snapshot(&self) -> Vec<AuditEntry> {
                let mut stamped: Vec<(u64, AuditEntry)> = Vec::new();
                for stripe in &self.stripes {
                    stamped.extend(stripe.lock().iter().map(|slot| (slot.seq, slot.entry())));
                }
                stamped.sort_by_key(|(seq, _)| *seq);
                stamped.into_iter().map(|(_, entry)| entry).collect()
            }
        }
    }

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
