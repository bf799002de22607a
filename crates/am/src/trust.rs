//! The Host↔AM trust registry.
//!
//! Before a Host can offload access control, the User "establishes a trust
//! relationship between these Hosts and a User's preferred Authorization
//! Manager" (§V.A.1, Fig. 3). A [`TrustRegistry`] keeps one record per
//! (host, user) pair: the active delegation, whether it was revoked
//! (withdrawing a delegation invalidates its host token), whether the
//! Host hears the user's epoch pushes, the host token prepared as the key
//! those pushes are signed with, and the sieve last confirmed delivered
//! (DESIGN.md §13). Each name is held once, shared by the records and the
//! pending pushes that name it, and every lookup borrows `&str`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use ucam_crypto::HmacKey;

use crate::push::ShippedSieve;

/// One delegation record: user `user` delegated access control for their
/// resources on `host` to this AM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Unique id (embedded in the host access token for revocation checks).
    pub id: String,
    /// The Host authority.
    pub host: String,
    /// The delegating user.
    pub user: String,
    /// Establishment time (simulated ms).
    pub established_at_ms: u64,
    /// Whether the delegation is still active.
    pub active: bool,
}

/// An error manipulating the trust registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrustError {
    /// No delegation exists for this (host, user) pair.
    NoDelegation {
        /// The host queried.
        host: String,
        /// The user queried.
        user: String,
    },
    /// The delegation exists but has been revoked.
    DelegationRevoked,
}

impl fmt::Display for TrustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustError::NoDelegation { host, user } => {
                write!(f, "no delegation from host {host} for user {user}")
            }
            TrustError::DelegationRevoked => f.write_str("delegation has been revoked"),
        }
    }
}

impl std::error::Error for TrustError {}

/// The names of one (host, user) pair, shared with the pair's record: a
/// clone copies no name. Ordered by host, then user.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Pair {
    pub(crate) host: Arc<str>,
    pub(crate) owner: Arc<str>,
}

/// What the AM keeps of one (host, user) pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairRecord {
    host: Arc<str>,
    /// The current delegation's number (its id is `del-N`); 0 while the
    /// Host is only subscribed.
    seq: u64,
    established_at_ms: u64,
    active: bool,
    subscribed: bool,
    /// The current delegation's host token, prepared as the key the
    /// pair's pushes are signed with: the token's only use at the AM.
    key: Option<HmacKey>,
    /// The sieve last confirmed delivered: the delta encoder's base.
    pub(crate) shipped: Option<ShippedSieve>,
}

impl PairRecord {
    /// `record`, the (host, user) pair's, if it holds an **active**
    /// delegation.
    ///
    /// # Errors
    ///
    /// [`TrustError::NoDelegation`] without a record or before its first
    /// delegation, [`TrustError::DelegationRevoked`] after a revocation.
    fn trusted<'a>(
        record: Option<&'a Self>,
        host: &str,
        user: &str,
    ) -> Result<&'a Self, TrustError> {
        let record = record
            .filter(|r| r.seq > 0)
            .ok_or_else(|| TrustError::NoDelegation {
                host: host.to_owned(),
                user: user.to_owned(),
            })?;
        if !record.active {
            return Err(TrustError::DelegationRevoked);
        }
        Ok(record)
    }

    /// Whether `id` names the current delegation, spelled exactly as
    /// [`TrustRegistry::establish`] spells it (`del-N`).
    fn has_id(&self, id: &str) -> bool {
        id.strip_prefix("del-")
            .is_some_and(|n| !n.starts_with(['0', '+']) && n.parse::<u64>() == Ok(self.seq))
    }
}

/// Registry of all delegations this AM has accepted.
///
/// # Example
///
/// ```
/// use ucam_am::trust::TrustRegistry;
///
/// let mut trust = TrustRegistry::new();
/// let d = trust.establish("webpics.example", "bob", 0);
/// assert!(trust.check("webpics.example", "bob").is_ok());
/// trust.revoke(&d.id);
/// assert!(trust.check("webpics.example", "bob").is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrustRegistry {
    /// user → one record per Host the user's resources live on (a
    /// handful), keyed by the user's one copy of the name.
    by_user: HashMap<Arc<str>, Vec<PairRecord>>,
    /// Every host name once, shared by the records that name it.
    hosts: HashSet<Arc<str>>,
    next_id: u64,
}

impl TrustRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        TrustRegistry::default()
    }

    /// The (host, user) record, borrowing both names.
    pub(crate) fn record(&self, host: &str, user: &str) -> Option<&PairRecord> {
        let records = self.by_user.get(user)?;
        records.iter().find(|r| &*r.host == host)
    }

    /// [`TrustRegistry::record`], mutable.
    pub(crate) fn record_mut(&mut self, host: &str, user: &str) -> Option<&mut PairRecord> {
        let records = self.by_user.get_mut(user)?;
        records.iter_mut().find(|r| &*r.host == host)
    }

    /// The (host, user) record, made (with neither a delegation nor a
    /// subscription) when there is none; names are copied only then.
    fn record_or_new(&mut self, host: &str, user: &str) -> &mut PairRecord {
        if self.record(host, user).is_none() {
            let host = self
                .hosts
                .get(host)
                .cloned()
                .unwrap_or_else(|| Arc::from(host));
            self.hosts.insert(Arc::clone(&host));
            let records = self.by_user.entry(Arc::from(user)).or_default();
            records.reserve_exact(1);
            records.push(PairRecord {
                host,
                ..PairRecord::default()
            });
        }
        self.record_mut(host, user)
            .expect("the record was just made")
    }

    /// Establishes (or re-establishes) a delegation for (host, user),
    /// returning the record. Re-establishing an existing pair reactivates
    /// it under a fresh id (the old host token becomes stale).
    pub fn establish(&mut self, host: &str, user: &str, now_ms: u64) -> Delegation {
        self.next_id += 1;
        let seq = self.next_id;
        let record = self.record_or_new(host, user);
        (record.seq, record.established_at_ms) = (seq, now_ms);
        (record.active, record.key) = (true, None);
        Delegation {
            id: format!("del-{seq}"),
            host: host.to_owned(),
            user: user.to_owned(),
            established_at_ms: now_ms,
            active: true,
        }
    }

    /// Keeps the host token of (host, user)'s current delegation as the
    /// key its pushes are signed with.
    pub(crate) fn prepare_key(&mut self, host: &str, user: &str, host_token: &str) {
        if let Some(record) = self.record_mut(host, user) {
            record.key = Some(HmacKey::new(host_token.as_bytes()));
        }
    }

    /// The key (host, user)'s pushes are signed with (`None` while no
    /// delegation was ever established) and whether the delegation is
    /// still trusted.
    pub(crate) fn push_key(&self, host: &str, user: &str) -> Option<(HmacKey, bool)> {
        let record = self.record(host, user)?;
        let trusted = PairRecord::trusted(Some(record), host, user).is_ok();
        Some((record.key.clone()?, trusted))
    }

    /// Subscribes `host` to `user`'s epoch pushes; idempotent.
    pub(crate) fn subscribe(&mut self, host: &str, user: &str) {
        self.record_or_new(host, user).subscribed = true;
    }

    /// The pairs subscribed to `user`'s pushes.
    pub(crate) fn subscribed(&self, user: &str) -> impl Iterator<Item = Pair> + '_ {
        let found = self.by_user.get_key_value(user);
        found.into_iter().flat_map(|(owner, records)| {
            (records.iter().filter(|r| r.subscribed)).map(|r| Pair {
                host: Arc::clone(&r.host),
                owner: Arc::clone(owner),
            })
        })
    }

    /// Checks that an **active** delegation exists for (host, user).
    ///
    /// # Errors
    ///
    /// Returns [`TrustError::NoDelegation`] or [`TrustError::DelegationRevoked`].
    pub fn check(&self, host: &str, user: &str) -> Result<(), TrustError> {
        PairRecord::trusted(self.record(host, user), host, user).map(drop)
    }

    /// Checks that the delegation with `delegation_id` is the current,
    /// active one for (host, user) — detects stale tokens after
    /// re-establishment as well as revocation.
    ///
    /// # Errors
    ///
    /// Same as [`TrustRegistry::check`], plus [`TrustError::DelegationRevoked`]
    /// when the id does not match the active record.
    pub fn check_id(&self, host: &str, user: &str, delegation_id: &str) -> Result<(), TrustError> {
        let record = PairRecord::trusted(self.record(host, user), host, user)?;
        if !record.has_id(delegation_id) {
            return Err(TrustError::DelegationRevoked);
        }
        Ok(())
    }

    /// Revokes the delegation with the given id. Returns `true` when a
    /// matching active delegation was found.
    pub fn revoke(&mut self, delegation_id: &str) -> bool {
        let mut records = self.by_user.values_mut().flatten();
        let Some(record) = records.find(|r| r.active && r.has_id(delegation_id)) else {
            return false;
        };
        record.active = false;
        true
    }

    /// All hosts user `user` has delegated from (active only).
    #[must_use]
    pub fn hosts_for_user(&self, user: &str) -> Vec<&str> {
        let records = self.by_user.get(user).into_iter().flatten();
        let mut hosts: Vec<&str> = records.filter(|r| r.active).map(|r| &*r.host).collect();
        hosts.sort_unstable();
        hosts
    }

    /// Total number of active delegations.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.by_user.values().flatten().filter(|r| r.active).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_and_check() {
        let mut t = TrustRegistry::new();
        let d = t.establish("h1", "bob", 5);
        assert_eq!(d.established_at_ms, 5);
        assert!(d.active);
        assert_eq!(t.check("h1", "bob"), Ok(()));
        assert_eq!(t.check_id("h1", "bob", &d.id), Ok(()));
    }

    #[test]
    fn missing_delegation_errors() {
        let t = TrustRegistry::new();
        assert!(matches!(
            t.check("h1", "bob"),
            Err(TrustError::NoDelegation { .. })
        ));
    }

    #[test]
    fn pairs_are_independent() {
        let mut t = TrustRegistry::new();
        t.establish("h1", "bob", 0);
        assert!(t.check("h1", "alice").is_err());
        assert!(t.check("h2", "bob").is_err());
    }

    #[test]
    fn revoke_deactivates() {
        let mut t = TrustRegistry::new();
        let d = t.establish("h1", "bob", 0);
        assert!(t.revoke(&d.id));
        assert_eq!(t.check("h1", "bob"), Err(TrustError::DelegationRevoked));
        assert_eq!(
            t.check_id("h1", "bob", &d.id),
            Err(TrustError::DelegationRevoked)
        );
        assert!(!t.revoke(&d.id), "double revoke is a no-op");
    }

    #[test]
    fn a_revoked_record_keeps_its_key_but_is_no_longer_trusted() {
        let mut t = TrustRegistry::new();
        let d = t.establish("h1", "bob", 0);
        t.prepare_key("h1", "bob", "host-token");
        assert_eq!(
            t.push_key("h1", "bob").map(|(_, trusted)| trusted),
            Some(true)
        );
        t.revoke(&d.id);
        let (key, trusted) = t
            .push_key("h1", "bob")
            .expect("the key outlives the revocation");
        assert!(!trusted, "a revoked delegation signs only its empty sieve");
        assert_eq!(key.mac(b"m"), HmacKey::new(b"host-token").mac(b"m"));
    }

    #[test]
    fn ids_match_only_as_spelled() {
        let mut t = TrustRegistry::new();
        let d = t.establish("h1", "bob", 0);
        assert_eq!(d.id, "del-1");
        for other in ["del-01", "del-+1", "del-1 ", "del-", "del1", "1", "del-2"] {
            assert_eq!(
                t.check_id("h1", "bob", other),
                Err(TrustError::DelegationRevoked),
                "{other}"
            );
        }
    }

    #[test]
    fn a_subscription_alone_is_no_delegation() {
        let mut t = TrustRegistry::new();
        t.subscribe("h1", "bob");
        t.subscribe("h1", "bob");
        assert!(matches!(
            t.check("h1", "bob"),
            Err(TrustError::NoDelegation { .. })
        ));
        assert!(t.push_key("h1", "bob").is_none(), "nothing to sign with");
        let d = t.establish("h1", "bob", 3);
        assert_eq!(t.check_id("h1", "bob", &d.id), Ok(()));
        let pairs: Vec<Pair> = t.subscribed("bob").collect();
        assert_eq!(pairs.len(), 1, "one record per pair");
        assert_eq!((&*pairs[0].host, &*pairs[0].owner), ("h1", "bob"));
        assert_eq!(t.subscribed("alice").count(), 0);
    }

    #[test]
    fn each_name_is_held_once() {
        let mut t = TrustRegistry::new();
        for user in ["bob", "alice", "carol"] {
            t.establish("h1", user, 0);
            t.subscribe("h1", user);
        }
        t.subscribe("h2", "bob");
        let h1 = t.hosts.get("h1").expect("interned");
        assert_eq!(Arc::strong_count(h1), 4, "the set and three records");
        let pairs: Vec<Pair> = t.subscribed("bob").collect();
        assert_eq!(pairs.len(), 2);
        assert!(Arc::ptr_eq(&pairs[0].host, h1));
        assert!(Arc::ptr_eq(&pairs[0].owner, &pairs[1].owner));
    }

    #[test]
    fn reestablish_issues_fresh_id_and_invalidates_old() {
        let mut t = TrustRegistry::new();
        let d1 = t.establish("h1", "bob", 0);
        let d2 = t.establish("h1", "bob", 10);
        assert_ne!(d1.id, d2.id);
        assert!(t.check_id("h1", "bob", &d2.id).is_ok());
        assert_eq!(
            t.check_id("h1", "bob", &d1.id),
            Err(TrustError::DelegationRevoked)
        );
    }

    #[test]
    fn hosts_for_user_lists_active_only() {
        let mut t = TrustRegistry::new();
        t.establish("h2", "bob", 0);
        let d = t.establish("h1", "bob", 0);
        t.establish("h3", "alice", 0);
        assert_eq!(t.hosts_for_user("bob"), vec!["h1", "h2"]);
        t.revoke(&d.id);
        assert_eq!(t.hosts_for_user("bob"), vec!["h2"]);
        assert_eq!(t.active_count(), 2);
    }

    #[test]
    fn error_display() {
        let e = TrustError::NoDelegation {
            host: "h".into(),
            user: "u".into(),
        };
        assert!(e.to_string().contains('h'));
        assert!(TrustError::DelegationRevoked
            .to_string()
            .contains("revoked"));
    }
}
