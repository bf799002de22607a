//! The status-quo baseline: per-application ("siloed") access control.
//!
//! §II walks through Bob sharing trip content: "every time Bob decides to
//! share these albums, collections or folders with an additional person, he
//! logs in to all three applications and changes access control policies
//! accordingly." This module models exactly that administration workflow,
//! in the units §III argues in: logins, sharing-menu navigations, and
//! policy edits — plus the problem that each host speaks a *different
//! policy language* (S2) and offers *no groups* (S1).

use std::collections::BTreeMap;

use ucam_policy::translate::Language;
use ucam_policy::{AccessRequest, EvalContext};
use ucam_policy::{AclMatrix, Action, Outcome, Subject};

/// Administrative effort expended by the user (E8's metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdminEffort {
    /// Interactive logins performed.
    pub logins: u64,
    /// Sharing-menu navigations (one per resource-grouping touched).
    pub menu_visits: u64,
    /// Individual policy edits (ACL cell insertions / rule additions).
    pub policy_edits: u64,
}

impl AdminEffort {
    /// Total operations (the headline number in E8's table).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.logins + self.menu_visits + self.policy_edits
    }
}

impl std::ops::Add for AdminEffort {
    type Output = AdminEffort;
    fn add(self, rhs: AdminEffort) -> AdminEffort {
        AdminEffort {
            logins: self.logins + rhs.logins,
            menu_visits: self.menu_visits + rhs.menu_visits,
            policy_edits: self.policy_edits + rhs.policy_edits,
        }
    }
}

/// One siloed host: its own ACL store in its own policy language.
#[derive(Debug, Clone)]
pub struct SiloedHost {
    /// Authority name.
    pub authority: String,
    /// The (incompatible) policy language this host happens to use (S2).
    pub language: Language,
    /// Per-resource ACLs.
    acls: BTreeMap<String, AclMatrix>,
}

impl SiloedHost {
    /// Creates a host using the given policy language.
    #[must_use]
    pub fn new(authority: &str, language: Language) -> Self {
        SiloedHost {
            authority: authority.to_owned(),
            language,
            acls: BTreeMap::new(),
        }
    }

    /// Grants `(subject, action)` on one resource — one policy edit.
    pub fn grant(&mut self, resource: &str, subject: Subject, action: Action) {
        self.acls
            .entry(resource.to_owned())
            .or_default()
            .insert(subject, action);
    }

    /// Revokes `(subject, action)` on one resource — one policy edit.
    pub fn revoke(&mut self, resource: &str, subject: &Subject, action: &Action) -> bool {
        self.acls
            .get_mut(resource)
            .is_some_and(|acl| acl.revoke(subject, action))
    }

    /// Evaluates an access the way this host's built-in mechanism would.
    #[must_use]
    pub fn check(&self, resource: &str, user: Option<&str>, action: Action) -> bool {
        let Some(acl) = self.acls.get(resource) else {
            return false;
        };
        let mut request = AccessRequest::new(&self.authority, resource, action);
        if let Some(user) = user {
            request = request.by_user(user);
        }
        acl.evaluate(&EvalContext::new(&request, 0)) == Outcome::Permit
    }

    /// Number of ACL cells currently stored (policy sprawl metric).
    #[must_use]
    pub fn acl_cells(&self) -> usize {
        self.acls.values().map(AclMatrix::len).sum()
    }
}

/// The siloed world: M independent hosts, each holding some of the user's
/// resources.
#[derive(Debug, Clone, Default)]
pub struct SiloedWorld {
    hosts: Vec<SiloedHost>,
    /// (host index, resource id) pairs the user owns.
    resources: Vec<(usize, String)>,
    effort: AdminEffort,
}

impl SiloedWorld {
    /// Creates a world with `m` hosts holding `k` resources each.
    /// Languages alternate between matrix and rules to model S2.
    #[must_use]
    pub fn new(m: usize, k: usize) -> Self {
        let mut world = SiloedWorld::default();
        for i in 0..m {
            let language = if i % 2 == 0 {
                Language::Matrix
            } else {
                Language::Rules
            };
            world
                .hosts
                .push(SiloedHost::new(&format!("host-{i}.example"), language));
            for j in 0..k {
                world.resources.push((i, format!("res-{j}")));
            }
        }
        world
    }

    /// Accumulated administrative effort.
    #[must_use]
    pub fn effort(&self) -> AdminEffort {
        self.effort
    }

    /// Shares **all** resources with one additional friend (the §II churn
    /// step): the user logs in to every host, opens the sharing menu for
    /// every resource, and adds one ACL entry per (resource, action).
    pub fn share_all_with(&mut self, friend: &str, action: &Action) {
        for host_index in 0..self.hosts.len() {
            self.effort.logins += 1; // log in to this host
            let resources: Vec<String> = self
                .resources
                .iter()
                .filter(|(h, _)| *h == host_index)
                .map(|(_, r)| r.clone())
                .collect();
            for resource in resources {
                self.effort.menu_visits += 1;
                self.effort.policy_edits += 1;
                self.hosts[host_index].grant(
                    &resource,
                    Subject::User(friend.to_owned()),
                    action.clone(),
                );
            }
        }
    }

    /// Adds one new resource on `host_index` already shared with `friends`
    /// (the "share more content with the same people" step): one login,
    /// one menu visit, one edit per friend.
    pub fn add_shared_resource(
        &mut self,
        host_index: usize,
        id: &str,
        friends: &[&str],
        action: &Action,
    ) {
        self.resources.push((host_index, id.to_owned()));
        self.effort.logins += 1;
        self.effort.menu_visits += 1;
        for friend in friends {
            self.effort.policy_edits += 1;
            self.hosts[host_index].grant(id, Subject::User((*friend).to_owned()), action.clone());
        }
    }

    /// Checks whether `friend` can perform `action` on every shared
    /// resource — used to detect the inconsistency errors S4 predicts.
    #[must_use]
    pub fn consistent_for(&self, friend: &str, action: &Action) -> bool {
        self.resources
            .iter()
            .all(|(h, r)| self.hosts[*h].check(r, Some(friend), action.clone()))
    }

    /// The host objects (read access for assertions).
    #[must_use]
    pub fn hosts(&self) -> &[SiloedHost] {
        &self.hosts
    }

    /// How many distinct policy languages the user had to work in (S2).
    #[must_use]
    pub fn languages_used(&self) -> usize {
        let mut langs: Vec<Language> = self.hosts.iter().map(|h| h.language).collect();
        langs.dedup();
        langs.sort_by_key(|l| matches!(l, Language::Rules));
        langs.dedup();
        langs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_effort_scales_with_hosts_times_resources() {
        let mut world = SiloedWorld::new(3, 4);
        world.share_all_with("alice", &Action::Read);
        let effort = world.effort();
        assert_eq!(effort.logins, 3); // one per host
        assert_eq!(effort.menu_visits, 12); // one per resource
        assert_eq!(effort.policy_edits, 12); // one per resource
        assert_eq!(effort.total(), 27);
        assert!(world.consistent_for("alice", &Action::Read));
    }

    #[test]
    fn second_friend_costs_the_same_again() {
        let mut world = SiloedWorld::new(2, 3);
        world.share_all_with("alice", &Action::Read);
        let after_one = world.effort().total();
        world.share_all_with("chris", &Action::Read);
        assert_eq!(world.effort().total(), after_one * 2);
    }

    #[test]
    fn adding_resource_costs_per_friend() {
        let mut world = SiloedWorld::new(2, 1);
        world.share_all_with("alice", &Action::Read);
        let before = world.effort();
        world.add_shared_resource(0, "new-res", &["alice", "chris"], &Action::Read);
        let delta = world.effort().total() - before.total();
        assert_eq!(delta, 1 + 1 + 2); // login + menu + 2 edits
    }

    #[test]
    fn forgetting_a_host_breaks_consistency() {
        let mut world = SiloedWorld::new(2, 1);
        // Bob only updates host 0 and forgets host 1 (the S4 failure mode).
        world.hosts[0].grant("res-0", Subject::User("alice".into()), Action::Read);
        assert!(!world.consistent_for("alice", &Action::Read));
    }

    #[test]
    fn revocation_works_per_cell() {
        let mut host = SiloedHost::new("h", Language::Matrix);
        host.grant("r", Subject::User("alice".into()), Action::Read);
        assert!(host.check("r", Some("alice"), Action::Read));
        assert!(host.revoke("r", &Subject::User("alice".into()), &Action::Read));
        assert!(!host.check("r", Some("alice"), Action::Read));
        assert!(!host.revoke("r", &Subject::User("alice".into()), &Action::Read));
    }

    #[test]
    fn check_defaults_deny() {
        let host = SiloedHost::new("h", Language::Matrix);
        assert!(!host.check("missing", Some("alice"), Action::Read));
    }

    #[test]
    fn languages_alternate() {
        let world = SiloedWorld::new(3, 1);
        assert_eq!(world.languages_used(), 2);
        let single = SiloedWorld::new(1, 1);
        assert_eq!(single.languages_used(), 1);
    }

    #[test]
    fn acl_sprawl_counts_cells() {
        let mut world = SiloedWorld::new(2, 2);
        world.share_all_with("alice", &Action::Read);
        world.share_all_with("chris", &Action::Read);
        let total: usize = world.hosts().iter().map(SiloedHost::acl_cells).sum();
        assert_eq!(total, 8); // 2 hosts x 2 resources x 2 friends
    }
}
