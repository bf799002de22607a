//! The Host↔AM trust registry.
//!
//! Before a Host can offload access control, the User "establishes a trust
//! relationship between these Hosts and a User's preferred Authorization
//! Manager" (§V.A.1, Fig. 3). A [`TrustRegistry`] records, per (host, user)
//! pair, the active delegation and the host access token that seals it, and
//! supports revocation (withdrawing a delegation invalidates the token).

use std::collections::HashMap;
use std::fmt;

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
    /// host → user → that pair's delegation. Two levels, so a check
    /// borrows both names instead of building an owned pair.
    by_host: HashMap<String, HashMap<String, Delegation>>,
    next_id: u64,
}

impl TrustRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        TrustRegistry::default()
    }

    /// Establishes (or re-establishes) a delegation for (host, user),
    /// returning the record. Re-establishing an existing pair reactivates
    /// it under a fresh id (the old host token becomes stale).
    pub fn establish(&mut self, host: &str, user: &str, now_ms: u64) -> Delegation {
        self.next_id += 1;
        let delegation = Delegation {
            id: format!("del-{}", self.next_id),
            host: host.to_owned(),
            user: user.to_owned(),
            established_at_ms: now_ms,
            active: true,
        };
        self.by_host
            .entry(host.to_owned())
            .or_default()
            .insert(user.to_owned(), delegation.clone());
        delegation
    }

    /// Checks that an **active** delegation exists for (host, user).
    ///
    /// # Errors
    ///
    /// Returns [`TrustError::NoDelegation`] or [`TrustError::DelegationRevoked`].
    pub fn check(&self, host: &str, user: &str) -> Result<&Delegation, TrustError> {
        let delegation = self
            .by_host
            .get(host)
            .and_then(|users| users.get(user))
            .ok_or_else(|| TrustError::NoDelegation {
                host: host.to_owned(),
                user: user.to_owned(),
            })?;
        if !delegation.active {
            return Err(TrustError::DelegationRevoked);
        }
        Ok(delegation)
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
        let delegation = self.check(host, user)?;
        if delegation.id != delegation_id {
            return Err(TrustError::DelegationRevoked);
        }
        Ok(())
    }

    /// Revokes the delegation with the given id. Returns `true` when a
    /// matching active delegation was found.
    pub fn revoke(&mut self, delegation_id: &str) -> bool {
        for delegation in self.by_host.values_mut().flat_map(HashMap::values_mut) {
            if delegation.id == delegation_id && delegation.active {
                delegation.active = false;
                return true;
            }
        }
        false
    }

    /// All hosts user `user` has delegated from (active only).
    #[must_use]
    pub fn hosts_for_user(&self, user: &str) -> Vec<&str> {
        let mut hosts: Vec<&str> = self
            .delegations()
            .filter(|d| d.user == user && d.active)
            .map(|d| d.host.as_str())
            .collect();
        hosts.sort_unstable();
        hosts
    }

    /// Total number of active delegations.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.delegations().filter(|d| d.active).count()
    }

    /// Every delegation record, active or not.
    fn delegations(&self) -> impl Iterator<Item = &Delegation> {
        self.by_host.values().flat_map(HashMap::values)
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
        let checked = t.check("h1", "bob").unwrap();
        assert_eq!(checked.id, d.id);
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
        assert!(!t.revoke(&d.id), "double revoke is a no-op");
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
