//! An RT₀ role-based trust-management substrate.
//!
//! §VII names "the RT framework \[21\]" (Li, Mitchell & Winsborough, *Design
//! of a role-based trust-management framework*) as the second candidate
//! policy engine. This module implements **RT₀**, the framework's core:
//! four credential forms defining role membership, with semantics computed
//! bottom-up to a fixpoint:
//!
//! 1. **Simple member** — `A.r ← D`: entity `D` is a member of `A.r`.
//! 2. **Simple inclusion** — `A.r ← B.s`: every member of `B.s` is a
//!    member of `A.r` (delegation to another party's role).
//! 3. **Linking inclusion** — `A.r ← A.s.t`: for every member `B` of
//!    `A.s`, members of `B.t` are members of `A.r` (attribute-based
//!    delegation, e.g. "my friends' friends").
//! 4. **Intersection** — `A.r ← B.s ∩ C.t`.
//!
//! The [`RtGroups`] adapter exposes derived role membership through
//! [`GroupLookup`], so a `Subject::Group("bob.friends")` clause in any of
//! the other policy languages resolves against RT credentials — the AM can
//! mix languages freely (R2).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::groups::GroupLookup;

/// A role reference `entity.role`, e.g. `bob.friends`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RoleRef {
    /// The defining entity.
    pub entity: String,
    /// The role name local to that entity.
    pub role: String,
}

impl RoleRef {
    /// Creates a role reference.
    #[must_use]
    pub fn new(entity: &str, role: &str) -> Self {
        RoleRef {
            entity: entity.to_owned(),
            role: role.to_owned(),
        }
    }

    /// Parses `"entity.role"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let (entity, role) = s.split_once('.')?;
        if entity.is_empty() || role.is_empty() {
            return None;
        }
        Some(RoleRef::new(entity, role))
    }
}

impl std::fmt::Display for RoleRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.entity, self.role)
    }
}

/// An RT₀ credential.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Credential {
    /// `role ← member` (form 1).
    Member {
        /// The defined role.
        role: RoleRef,
        /// The entity admitted.
        member: String,
    },
    /// `role ← from` (form 2).
    Inclusion {
        /// The defined role.
        role: RoleRef,
        /// The included role.
        from: RoleRef,
    },
    /// `role ← role.entity's `via` role's `then` role` (form 3):
    /// `A.r ← A.via.then`.
    Linked {
        /// The defined role (`A.r`).
        role: RoleRef,
        /// The linking role name (`via`, interpreted as `A.via`).
        via: String,
        /// The final role name (`then`, interpreted as `B.then` for every
        /// member `B` of `A.via`).
        then: String,
    },
    /// `role ← lhs ∩ rhs` (form 4).
    Intersection {
        /// The defined role.
        role: RoleRef,
        /// Left operand.
        lhs: RoleRef,
        /// Right operand.
        rhs: RoleRef,
    },
}

impl Credential {
    fn defined_role(&self) -> &RoleRef {
        match self {
            Credential::Member { role, .. }
            | Credential::Inclusion { role, .. }
            | Credential::Linked { role, .. }
            | Credential::Intersection { role, .. } => role,
        }
    }
}

/// A set of RT₀ credentials with fixpoint membership computation.
///
/// # Example
///
/// ```
/// use ucam_policy::rt::{Credential, RoleRef, RtStore};
///
/// let mut store = RtStore::new();
/// // bob.friends <- alice ; bob.friends <- carol.colleagues
/// store.add(Credential::Member {
///     role: RoleRef::new("bob", "friends"),
///     member: "alice".into(),
/// });
/// store.add(Credential::Inclusion {
///     role: RoleRef::new("bob", "friends"),
///     from: RoleRef::new("carol", "colleagues"),
/// });
/// store.add(Credential::Member {
///     role: RoleRef::new("carol", "colleagues"),
///     member: "dave".into(),
/// });
/// assert!(store.is_member(&RoleRef::new("bob", "friends"), "alice"));
/// assert!(store.is_member(&RoleRef::new("bob", "friends"), "dave"));
/// assert!(!store.is_member(&RoleRef::new("bob", "friends"), "eve"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RtStore {
    credentials: Vec<Credential>,
}

impl RtStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        RtStore::default()
    }

    /// Adds a credential.
    pub fn add(&mut self, credential: Credential) {
        if !self.credentials.contains(&credential) {
            self.credentials.push(credential);
        }
    }

    /// Removes a credential. Returns `true` when it was present.
    pub fn remove(&mut self, credential: &Credential) -> bool {
        let before = self.credentials.len();
        self.credentials.retain(|c| c != credential);
        self.credentials.len() != before
    }

    /// The stored credentials.
    #[must_use]
    pub fn credentials(&self) -> &[Credential] {
        &self.credentials
    }

    /// Number of credentials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.credentials.len()
    }

    /// Returns `true` when no credentials are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.credentials.is_empty()
    }

    /// Computes the full membership relation (role → members) as the least
    /// fixpoint of the credential rules. Terminates because the member
    /// universe is finite (entities mentioned in credentials) and the map
    /// grows monotonically.
    #[must_use]
    pub fn solve(&self) -> BTreeMap<RoleRef, BTreeSet<String>> {
        let mut members: BTreeMap<RoleRef, BTreeSet<String>> = BTreeMap::new();
        // Seed with all defined roles so lookups of empty roles resolve.
        for credential in &self.credentials {
            members
                .entry(credential.defined_role().clone())
                .or_default();
        }
        loop {
            let mut changed = false;
            for credential in &self.credentials {
                let additions: BTreeSet<String> = match credential {
                    Credential::Member { member, .. } => [member.clone()].into_iter().collect(),
                    Credential::Inclusion { from, .. } => {
                        members.get(from).cloned().unwrap_or_default()
                    }
                    Credential::Linked { role, via, then } => {
                        let linkers = members
                            .get(&RoleRef::new(&role.entity, via))
                            .cloned()
                            .unwrap_or_default();
                        linkers
                            .iter()
                            .flat_map(|b| {
                                members
                                    .get(&RoleRef::new(b, then))
                                    .cloned()
                                    .unwrap_or_default()
                            })
                            .collect()
                    }
                    Credential::Intersection { lhs, rhs, .. } => {
                        let left = members.get(lhs).cloned().unwrap_or_default();
                        let right = members.get(rhs).cloned().unwrap_or_default();
                        left.intersection(&right).cloned().collect()
                    }
                };
                if !additions.is_empty() {
                    let entry = members
                        .entry(credential.defined_role().clone())
                        .or_default();
                    for member in additions {
                        changed |= entry.insert(member);
                    }
                }
            }
            if !changed {
                return members;
            }
        }
    }

    /// Returns the derived members of `role`.
    #[must_use]
    pub fn members(&self, role: &RoleRef) -> BTreeSet<String> {
        self.solve().get(role).cloned().unwrap_or_default()
    }

    /// Returns `true` when `entity` is a derived member of `role`.
    #[must_use]
    pub fn is_member(&self, role: &RoleRef, entity: &str) -> bool {
        self.members(role).contains(entity)
    }
}

/// Adapts an [`RtStore`] to the [`GroupLookup`] oracle: group names are
/// `"entity.role"`, or bare role names resolved against a default entity
/// (typically the resource owner).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RtGroups {
    store: RtStore,
    default_entity: String,
}

impl RtGroups {
    /// Wraps a store; bare group names resolve as `default_entity.<name>`.
    #[must_use]
    pub fn new(store: RtStore, default_entity: &str) -> Self {
        RtGroups {
            store,
            default_entity: default_entity.to_owned(),
        }
    }

    /// Shared access to the underlying credential store.
    #[must_use]
    pub fn store(&self) -> &RtStore {
        &self.store
    }
}

impl GroupLookup for RtGroups {
    fn is_member(&self, group: &str, user: &str) -> bool {
        let role =
            RoleRef::parse(group).unwrap_or_else(|| RoleRef::new(&self.default_entity, group));
        self.store.is_member(&role, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role(entity: &str, name: &str) -> RoleRef {
        RoleRef::new(entity, name)
    }

    #[test]
    fn role_parse_and_display() {
        assert_eq!(RoleRef::parse("bob.friends"), Some(role("bob", "friends")));
        assert_eq!(RoleRef::parse("nodot"), None);
        assert_eq!(RoleRef::parse(".x"), None);
        assert_eq!(role("a", "b").to_string(), "a.b");
    }

    #[test]
    fn simple_membership() {
        let mut store = RtStore::new();
        store.add(Credential::Member {
            role: role("bob", "friends"),
            member: "alice".into(),
        });
        assert!(store.is_member(&role("bob", "friends"), "alice"));
        assert!(!store.is_member(&role("bob", "friends"), "eve"));
        assert!(!store.is_member(&role("bob", "family"), "alice"));
    }

    #[test]
    fn inclusion_chain() {
        let mut store = RtStore::new();
        // bob.friends <- alice.friends <- carol.friends <- dave
        store.add(Credential::Inclusion {
            role: role("bob", "friends"),
            from: role("alice", "friends"),
        });
        store.add(Credential::Inclusion {
            role: role("alice", "friends"),
            from: role("carol", "friends"),
        });
        store.add(Credential::Member {
            role: role("carol", "friends"),
            member: "dave".into(),
        });
        assert!(store.is_member(&role("bob", "friends"), "dave"));
        assert!(store.is_member(&role("alice", "friends"), "dave"));
    }

    #[test]
    fn linked_role() {
        // bob.conference-guests <- bob.universities.students:
        // every university bob recognizes defines who its students are.
        let mut store = RtStore::new();
        store.add(Credential::Linked {
            role: role("bob", "conference-guests"),
            via: "universities".into(),
            then: "students".into(),
        });
        store.add(Credential::Member {
            role: role("bob", "universities"),
            member: "ncl".into(),
        });
        store.add(Credential::Member {
            role: role("ncl", "students"),
            member: "maciej".into(),
        });
        assert!(store.is_member(&role("bob", "conference-guests"), "maciej"));
        // Students of unrecognized universities stay out.
        store.add(Credential::Member {
            role: role("diploma-mill", "students"),
            member: "fraud".into(),
        });
        assert!(!store.is_member(&role("bob", "conference-guests"), "fraud"));
    }

    #[test]
    fn intersection() {
        let mut store = RtStore::new();
        store.add(Credential::Intersection {
            role: role("bob", "trusted"),
            lhs: role("bob", "friends"),
            rhs: role("work", "colleagues"),
        });
        store.add(Credential::Member {
            role: role("bob", "friends"),
            member: "alice".into(),
        });
        store.add(Credential::Member {
            role: role("bob", "friends"),
            member: "chris".into(),
        });
        store.add(Credential::Member {
            role: role("work", "colleagues"),
            member: "alice".into(),
        });
        assert!(store.is_member(&role("bob", "trusted"), "alice"));
        assert!(!store.is_member(&role("bob", "trusted"), "chris"));
    }

    #[test]
    fn cyclic_credentials_terminate() {
        let mut store = RtStore::new();
        store.add(Credential::Inclusion {
            role: role("a", "r"),
            from: role("b", "r"),
        });
        store.add(Credential::Inclusion {
            role: role("b", "r"),
            from: role("a", "r"),
        });
        store.add(Credential::Member {
            role: role("a", "r"),
            member: "x".into(),
        });
        // Fixpoint terminates; both roles contain x.
        assert!(store.is_member(&role("a", "r"), "x"));
        assert!(store.is_member(&role("b", "r"), "x"));
        assert_eq!(store.members(&role("a", "r")).len(), 1);
    }

    #[test]
    fn duplicate_add_and_remove() {
        let mut store = RtStore::new();
        let cred = Credential::Member {
            role: role("a", "r"),
            member: "x".into(),
        };
        store.add(cred.clone());
        store.add(cred.clone());
        assert_eq!(store.len(), 1);
        assert!(store.remove(&cred));
        assert!(!store.remove(&cred));
        assert!(store.is_empty());
        assert!(!store.is_member(&role("a", "r"), "x"));
    }

    #[test]
    fn groups_adapter_resolves_qualified_and_bare_names() {
        let mut store = RtStore::new();
        store.add(Credential::Member {
            role: role("bob", "friends"),
            member: "alice".into(),
        });
        store.add(Credential::Member {
            role: role("carol", "team"),
            member: "dan".into(),
        });
        let groups = RtGroups::new(store, "bob");
        // Bare name -> default entity.
        assert!(groups.is_member("friends", "alice"));
        // Qualified name -> explicit entity.
        assert!(groups.is_member("carol.team", "dan"));
        assert!(!groups.is_member("friends", "dan"));
    }

    #[test]
    fn adapter_plugs_into_policy_evaluation() {
        use crate::model::{AccessRequest, Action, EvalContext, Outcome, Subject};
        use crate::rule::{Rule, RulePolicy};

        // bob.friends includes alice.friends; alice admits zoe. A plain
        // rule policy over group "friends" then covers zoe transitively —
        // RT as the group oracle (R2's language mixing).
        let mut store = RtStore::new();
        store.add(Credential::Inclusion {
            role: role("bob", "friends"),
            from: role("alice", "friends"),
        });
        store.add(Credential::Member {
            role: role("alice", "friends"),
            member: "zoe".into(),
        });
        let groups = RtGroups::new(store, "bob");
        let policy = RulePolicy::new().with_rule(
            Rule::permit()
                .for_subject(Subject::Group("friends".into()))
                .for_action(Action::Read),
        );
        let req = AccessRequest::new("h", "r", Action::Read).by_user("zoe");
        let ctx = EvalContext::new(&req, 0).with_groups(&groups);
        assert_eq!(policy.evaluate(&ctx), Outcome::Permit);
    }

    #[test]
    fn serde_roundtrip() {
        let mut store = RtStore::new();
        store.add(Credential::Linked {
            role: role("bob", "guests"),
            via: "unis".into(),
            then: "students".into(),
        });
        store.add(Credential::Intersection {
            role: role("bob", "t"),
            lhs: role("a", "x"),
            rhs: role("b", "y"),
        });
        let json = serde_json::to_string(&store).unwrap();
        let back: RtStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back, store);
    }
}
