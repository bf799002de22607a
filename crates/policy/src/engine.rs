//! The paper's two-stage policy evaluation engine (§VI) and the policy
//! store it runs over.
//!
//! > "First, the engine evaluates the access request against the general
//! > policy as defined by a user for the group of resources to which a
//! > particular resource belongs. If the decision derived from the general
//! > policy is *deny* then no other policy is processed. In case the
//! > evaluation produces a *permit* decision then the engine checks whether
//! > a specific policy is associated with a resource. It then evaluates the
//! > access request against this policy and produces a final decision."
//!
//! [`PolicySet`] holds a user's policies plus two kinds of bindings:
//! *general* policies bound to **realms** (groups of resources, the unit an
//! authorization token refers to, §V.B.3) and *specific* policies bound to
//! individual resources. [`PolicyEngine::evaluate`] runs the two-stage
//! pipeline with default-deny.

use std::collections::HashMap;
use std::fmt;

use serde::{obj_get, DeError, Deserialize, Serialize, Value};

use crate::model::{DenyReason, EvalContext, Outcome, Policy, PolicyId, ResourceRef};

/// An error manipulating a [`PolicySet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySetError {
    /// A policy with this id already exists.
    DuplicateId(PolicyId),
    /// No policy with this id exists.
    UnknownPolicy(PolicyId),
}

impl fmt::Display for PolicySetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySetError::DuplicateId(id) => write!(f, "duplicate policy id: {id}"),
            PolicySetError::UnknownPolicy(id) => write!(f, "unknown policy id: {id}"),
        }
    }
}

impl std::error::Error for PolicySetError {}

/// The full decision context produced by the engine — the final outcome
/// plus which policies contributed (consumed by the AM's audit log, C4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineDecision {
    /// The final outcome (never [`Outcome::NotApplicable`]: the engine maps
    /// it to default deny).
    pub outcome: Outcome,
    /// The general policy consulted, if any.
    pub general_policy: Option<PolicyId>,
    /// The specific policy consulted, if any.
    pub specific_policy: Option<PolicyId>,
    /// The realm the resource belonged to at evaluation time, if any.
    pub realm: Option<String>,
}

impl EngineDecision {
    /// Returns `true` when access is granted outright.
    #[must_use]
    pub fn is_permit(&self) -> bool {
        self.outcome.is_permit()
    }
}

/// A user's policies and their bindings to realms and resources.
///
/// # Example
///
/// ```
/// use ucam_policy::prelude::*;
///
/// let mut set = PolicySet::new();
/// set.add(Policy::rules(
///     "read-only",
///     RulePolicy::new().with_rule(
///         Rule::permit().for_subject(Subject::Public).for_action(Action::Read),
///     ),
/// ))?;
///
/// let photo = ResourceRef::new("webpics.example", "photo-1");
/// set.assign_realm(photo.clone(), "trip-2009");
/// set.bind_general("trip-2009", &PolicyId::from("read-only"))?;
///
/// let req = AccessRequest::new("webpics.example", "photo-1", Action::Read);
/// let decision = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
/// assert!(decision.is_permit());
/// # Ok::<(), ucam_policy::engine::PolicySetError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    policies: HashMap<PolicyId, Policy>,
    /// realm name -> general policy.
    general: HashMap<String, PolicyId>,
    /// resource -> specific policy (maps with structured keys serialize
    /// as sequences of `[key, value]` pairs — JSON objects only allow
    /// string keys).
    specific: HashMap<ResourceRef, PolicyId>,
    /// resource -> realm membership.
    realm_of: HashMap<ResourceRef, String>,
    /// realm -> member resources, kept sorted: the reverse index of
    /// `realm_of`, maintained in lock-step so [`PolicySet::realm_members`]
    /// is O(members) instead of a scan over every assigned resource.
    /// Derived state — rebuilt on deserialize, excluded from equality.
    members: HashMap<String, Vec<ResourceRef>>,
}

/// Equality over the authoritative maps only; `members` is an index
/// derived from `realm_of` and cannot disagree.
impl PartialEq for PolicySet {
    fn eq(&self, other: &Self) -> bool {
        self.policies == other.policies
            && self.general == other.general
            && self.specific == other.specific
            && self.realm_of == other.realm_of
    }
}

/// Hand-written (rather than derived) so the derived `members` index
/// stays out of the wire form — the serialized shape is identical to the
/// original four-field struct, and the vendored serde sorts map entries,
/// so exports stay deterministic and old exports import cleanly.
impl Serialize for PolicySet {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("policies".to_owned(), self.policies.to_value()),
            ("general".to_owned(), self.general.to_value()),
            ("specific".to_owned(), self.specific.to_value()),
            ("realm_of".to_owned(), self.realm_of.to_value()),
        ])
    }
}

impl Deserialize for PolicySet {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let fields = value
            .as_obj()
            .ok_or_else(|| DeError::new("expected object"))?;
        let mut set = PolicySet {
            policies: Deserialize::from_value(obj_get(fields, "policies"))
                .map_err(|e| e.in_field("policies"))?,
            general: Deserialize::from_value(obj_get(fields, "general"))
                .map_err(|e| e.in_field("general"))?,
            specific: Deserialize::from_value(obj_get(fields, "specific"))
                .map_err(|e| e.in_field("specific"))?,
            realm_of: Deserialize::from_value(obj_get(fields, "realm_of"))
                .map_err(|e| e.in_field("realm_of"))?,
            members: HashMap::new(),
        };
        for (resource, realm) in &set.realm_of {
            set.members
                .entry(realm.clone())
                .or_default()
                .push(resource.clone());
        }
        for list in set.members.values_mut() {
            list.sort();
        }
        Ok(set)
    }
}

impl PolicySet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        PolicySet::default()
    }

    /// Adds a policy.
    ///
    /// # Errors
    ///
    /// Returns [`PolicySetError::DuplicateId`] when the id is taken.
    pub fn add(&mut self, policy: Policy) -> Result<(), PolicySetError> {
        if self.policies.contains_key(&policy.id) {
            return Err(PolicySetError::DuplicateId(policy.id));
        }
        self.policies.insert(policy.id.clone(), policy);
        Ok(())
    }

    /// Inserts or replaces a policy (PAP "update").
    pub fn upsert(&mut self, policy: Policy) {
        self.policies.insert(policy.id.clone(), policy);
    }

    /// Removes a policy and all bindings that point at it.
    ///
    /// # Errors
    ///
    /// Returns [`PolicySetError::UnknownPolicy`] when absent.
    pub fn remove(&mut self, id: &PolicyId) -> Result<Policy, PolicySetError> {
        let policy = self
            .policies
            .remove(id)
            .ok_or_else(|| PolicySetError::UnknownPolicy(id.clone()))?;
        self.general.retain(|_, bound| bound != id);
        self.specific.retain(|_, bound| bound != id);
        Ok(policy)
    }

    /// Looks up a policy.
    #[must_use]
    pub fn get(&self, id: &PolicyId) -> Option<&Policy> {
        self.policies.get(id)
    }

    /// Iterates over all policies in id order (the storage map is
    /// unordered; exports and listings must stay deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Policy> {
        let mut all: Vec<&Policy> = self.policies.values().collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all.into_iter()
    }

    /// Number of stored policies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Returns `true` when no policies are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Places `resource` in `realm` (a resource belongs to at most one
    /// realm; re-assignment moves it).
    pub fn assign_realm(&mut self, resource: ResourceRef, realm: &str) {
        if let Some(prev) = self.realm_of.insert(resource.clone(), realm.to_owned()) {
            if prev != realm {
                self.index_remove(&prev, &resource);
            }
        }
        let list = self.members.entry(realm.to_owned()).or_default();
        if let Err(pos) = list.binary_search(&resource) {
            list.insert(pos, resource);
        }
    }

    /// Removes `resource` from its realm, returning the realm name.
    pub fn clear_realm(&mut self, resource: &ResourceRef) -> Option<String> {
        let realm = self.realm_of.remove(resource)?;
        self.index_remove(&realm, resource);
        Some(realm)
    }

    /// Drops `resource` from `realm`'s member index.
    fn index_remove(&mut self, realm: &str, resource: &ResourceRef) {
        if let Some(list) = self.members.get_mut(realm) {
            if let Ok(pos) = list.binary_search(resource) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.members.remove(realm);
            }
        }
    }

    /// Returns the realm `resource` belongs to.
    #[must_use]
    pub fn realm_of(&self, resource: &ResourceRef) -> Option<&str> {
        self.realm_of.get(resource).map(String::as_str)
    }

    /// Returns all resources assigned to `realm`, in sorted order —
    /// served off the reverse index, O(members) rather than a scan over
    /// every realm assignment in the account.
    #[must_use]
    pub fn realm_members(&self, realm: &str) -> Vec<&ResourceRef> {
        self.members
            .get(realm)
            .map(|list| list.iter().collect())
            .unwrap_or_default()
    }

    /// Binds `policy` as the general policy of `realm`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicySetError::UnknownPolicy`] when the policy is absent.
    pub fn bind_general(&mut self, realm: &str, policy: &PolicyId) -> Result<(), PolicySetError> {
        if !self.policies.contains_key(policy) {
            return Err(PolicySetError::UnknownPolicy(policy.clone()));
        }
        self.general.insert(realm.to_owned(), policy.clone());
        Ok(())
    }

    /// Binds `policy` as the specific policy of `resource`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicySetError::UnknownPolicy`] when the policy is absent.
    pub fn bind_specific(
        &mut self,
        resource: ResourceRef,
        policy: &PolicyId,
    ) -> Result<(), PolicySetError> {
        if !self.policies.contains_key(policy) {
            return Err(PolicySetError::UnknownPolicy(policy.clone()));
        }
        self.specific.insert(resource, policy.clone());
        Ok(())
    }

    /// Removes the general binding of `realm`.
    pub fn unbind_general(&mut self, realm: &str) -> Option<PolicyId> {
        self.general.remove(realm)
    }

    /// Removes the specific binding of `resource`.
    pub fn unbind_specific(&mut self, resource: &ResourceRef) -> Option<PolicyId> {
        self.specific.remove(resource)
    }

    /// Returns the general policy bound to `realm`.
    #[must_use]
    pub fn general_binding(&self, realm: &str) -> Option<&PolicyId> {
        self.general.get(realm)
    }

    /// Returns the specific policy bound to `resource`.
    #[must_use]
    pub fn specific_binding(&self, resource: &ResourceRef) -> Option<&PolicyId> {
        self.specific.get(resource)
    }
}

/// The stateless two-stage evaluator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyEngine;

impl PolicyEngine {
    /// Runs the §VI pipeline over `set` for the request in `ctx`: the
    /// request's resource [resolved](Self::resolve), then
    /// [decided](Resolution::decide).
    ///
    /// Stage 1 evaluates the realm's general policy: an explicit deny
    /// short-circuits. Stage 2 evaluates the resource's specific policy; its
    /// outcome is final, except that pending consent/claims requirements
    /// from stage 1 are preserved (both stages' conditions must be met).
    /// When neither stage produces an applicable clause the engine returns
    /// default deny ([`DenyReason::NoApplicablePolicy`]).
    #[must_use]
    pub fn evaluate(set: &PolicySet, ctx: &EvalContext<'_>) -> EngineDecision {
        Self::resolve(set, &ctx.request.resource).decide(ctx)
    }

    /// The part of [`Self::evaluate`] that depends on the resource only:
    /// its realm and the general and specific policies bound to it. One
    /// resolution judges any number of requests on that resource.
    #[must_use]
    pub fn resolve<'a>(set: &'a PolicySet, resource: &ResourceRef) -> Resolution<'a> {
        let realm = set.realm_of(resource);
        let bound = |id: Option<&'a PolicyId>| id.map(|id| (id, set.get(id)));
        Resolution {
            realm,
            general: bound(realm.and_then(|r| set.general_binding(r))),
            specific: bound(set.specific_binding(resource)),
        }
    }
}

/// One resource's policies as [`PolicyEngine::resolve`] found them: the
/// realm it belongs to, and the general and specific policy bound to it
/// (each binding's id, and its policy when the set holds one).
#[derive(Debug, Clone, Copy)]
pub struct Resolution<'a> {
    realm: Option<&'a str>,
    general: Option<(&'a PolicyId, Option<&'a Policy>)>,
    specific: Option<(&'a PolicyId, Option<&'a Policy>)>,
}

impl Resolution<'_> {
    /// The two stages' combined outcome for the request in `ctx`, which
    /// must be on the resolved resource.
    #[must_use]
    pub fn outcome(&self, ctx: &EvalContext<'_>) -> Outcome {
        let stage = |bound: Option<(&PolicyId, Option<&Policy>)>| match bound {
            Some((_, Some(policy))) => policy.evaluate(ctx),
            _ => Outcome::NotApplicable,
        };
        let general = stage(self.general);
        if let Outcome::Deny(_) = general {
            return Outcome::Deny(DenyReason::GeneralPolicyDeny);
        }
        combine(general, stage(self.specific))
    }

    /// [`Self::outcome`] with the realm and the policies consulted, as
    /// [`PolicyEngine::evaluate`] reports them.
    #[must_use]
    pub fn decide(&self, ctx: &EvalContext<'_>) -> EngineDecision {
        EngineDecision {
            outcome: self.outcome(ctx),
            general_policy: self.general.map(|(id, _)| id.clone()),
            specific_policy: self.specific.map(|(id, _)| id.clone()),
            realm: self.realm.map(str::to_owned),
        }
    }

    /// Until when every verdict of this resolution holds without an edit:
    /// the nearest [`Policy::stable_until`] of the resolved policies
    /// (`u64::MAX` with none).
    #[must_use]
    pub fn stable_until(&self, now_ms: u64) -> u64 {
        [self.general, self.specific]
            .into_iter()
            .filter_map(|bound| bound?.1)
            .map(|policy| policy.stable_until(now_ms))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// Combines stage outcomes. `general` is never `Deny` here (short-circuited
/// above). The specific stage's verdict is final, but pending requirements
/// from the general stage must still be honoured.
fn combine(general: Outcome, specific: Outcome) -> Outcome {
    match (general, specific) {
        // Specific deny is final.
        (_, deny @ Outcome::Deny(_)) => deny,
        // Specific not applicable: the general outcome stands.
        (g, Outcome::NotApplicable) => finalize(g),
        // Specific permit: honour any pending general requirement.
        (Outcome::RequiresConsent, Outcome::Permit) => Outcome::RequiresConsent,
        (Outcome::RequiresClaims(c), Outcome::Permit) => Outcome::RequiresClaims(c),
        (_, Outcome::Permit) => Outcome::Permit,
        // Specific requires something: merge with general requirements
        // (consent dominates claims: consent is obtained first, §V.D).
        (Outcome::RequiresConsent, Outcome::RequiresClaims(_)) => Outcome::RequiresConsent,
        (Outcome::RequiresClaims(mut g), Outcome::RequiresClaims(mut s)) => {
            g.append(&mut s);
            g.dedup();
            Outcome::RequiresClaims(g)
        }
        (_, requires) => requires,
    }
}

/// Maps `NotApplicable` to the engine's default deny.
fn finalize(outcome: Outcome) -> Outcome {
    match outcome {
        Outcome::NotApplicable => Outcome::Deny(DenyReason::NoApplicablePolicy),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{ClaimRequirement, Condition};
    use crate::matrix::AclMatrix;
    use crate::model::{AccessRequest, Action, Subject};
    use crate::rule::{Rule, RulePolicy};

    fn permit_read(name: &str, subject: Subject) -> Policy {
        Policy::rules(
            name,
            RulePolicy::new()
                .with_rule(Rule::permit().for_subject(subject).for_action(Action::Read)),
        )
    }

    fn deny_all(name: &str, subject: Subject) -> Policy {
        Policy::rules(
            name,
            RulePolicy::new().with_rule(Rule::deny().for_subject(subject)),
        )
    }

    fn photo() -> ResourceRef {
        ResourceRef::new("webpics.example", "photo-1")
    }

    fn alice_read() -> AccessRequest {
        AccessRequest::new("webpics.example", "photo-1", Action::Read).by_user("alice")
    }

    /// Set with a general permit bound to realm "album" containing photo-1.
    fn set_with_general() -> PolicySet {
        let mut set = PolicySet::new();
        set.add(permit_read("general", Subject::User("alice".into())))
            .unwrap();
        set.assign_realm(photo(), "album");
        set.bind_general("album", &PolicyId::from("general"))
            .unwrap();
        set
    }

    #[test]
    fn empty_set_default_denies() {
        let set = PolicySet::new();
        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        assert_eq!(d.outcome, Outcome::Deny(DenyReason::NoApplicablePolicy));
        assert_eq!(d.general_policy, None);
        assert_eq!(d.specific_policy, None);
    }

    #[test]
    fn general_permit_suffices() {
        let set = set_with_general();
        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        assert!(d.is_permit());
        assert_eq!(d.general_policy, Some(PolicyId::from("general")));
        assert_eq!(d.realm.as_deref(), Some("album"));
    }

    #[test]
    fn general_deny_short_circuits() {
        let mut set = PolicySet::new();
        set.add(deny_all("no-alice", Subject::User("alice".into())))
            .unwrap();
        set.add(permit_read("specific-ok", Subject::User("alice".into())))
            .unwrap();
        set.assign_realm(photo(), "album");
        set.bind_general("album", &PolicyId::from("no-alice"))
            .unwrap();
        set.bind_specific(photo(), &PolicyId::from("specific-ok"))
            .unwrap();

        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        // Even though the specific policy would permit, §VI says general
        // deny stops processing.
        assert_eq!(d.outcome, Outcome::Deny(DenyReason::GeneralPolicyDeny));
    }

    #[test]
    fn specific_overrides_general_permit_with_deny() {
        let mut set = set_with_general();
        set.add(deny_all("lockdown", Subject::User("alice".into())))
            .unwrap();
        set.bind_specific(photo(), &PolicyId::from("lockdown"))
            .unwrap();
        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        assert_eq!(d.outcome, Outcome::Deny(DenyReason::ExplicitDeny));
    }

    #[test]
    fn paper_example_general_read_specific_write() {
        // §VI example: "a general policy which defines that all resources
        // should be readable only and a specific policy that 'write'
        // operation is permitted on a particular subset".
        let mut set = PolicySet::new();
        set.add(permit_read("readable", Subject::Public)).unwrap();
        set.add(Policy::rules(
            "writable",
            RulePolicy::new().with_rule(
                Rule::permit()
                    .for_subject(Subject::Public)
                    .for_action(Action::Write),
            ),
        ))
        .unwrap();
        set.assign_realm(photo(), "all");
        set.bind_general("all", &PolicyId::from("readable"))
            .unwrap();
        set.bind_specific(photo(), &PolicyId::from("writable"))
            .unwrap();

        // Write on the special resource: general stage is NotApplicable for
        // write (no deny), specific permits.
        let write = AccessRequest::new("webpics.example", "photo-1", Action::Write);
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&write, 0));
        assert!(d.is_permit());

        // Write on another resource in the realm: default deny.
        let other = ResourceRef::new("webpics.example", "photo-2");
        set.assign_realm(other, "all");
        let write2 = AccessRequest::new("webpics.example", "photo-2", Action::Write);
        let d2 = PolicyEngine::evaluate(&set, &EvalContext::new(&write2, 0));
        assert_eq!(d2.outcome, Outcome::Deny(DenyReason::NoApplicablePolicy));

        // Read works everywhere in the realm through the general policy.
        let read2 = AccessRequest::new("webpics.example", "photo-2", Action::Read);
        assert!(PolicyEngine::evaluate(&set, &EvalContext::new(&read2, 0)).is_permit());
    }

    #[test]
    fn pending_general_consent_survives_specific_permit() {
        let mut set = PolicySet::new();
        set.add(Policy::rules(
            "consent-gate",
            RulePolicy::new().with_rule(
                Rule::permit()
                    .for_subject(Subject::User("alice".into()))
                    .with_condition(Condition::RequiresConsent),
            ),
        ))
        .unwrap();
        set.add(permit_read("spec", Subject::User("alice".into())))
            .unwrap();
        set.assign_realm(photo(), "album");
        set.bind_general("album", &PolicyId::from("consent-gate"))
            .unwrap();
        set.bind_specific(photo(), &PolicyId::from("spec")).unwrap();

        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        assert_eq!(d.outcome, Outcome::RequiresConsent);

        // Once consent is granted the permit goes through.
        let d2 = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0).with_consent());
        assert!(d2.is_permit());
    }

    #[test]
    fn claims_merge_across_stages() {
        let gate = |name: &str, kind: &str| {
            Policy::rules(
                name,
                RulePolicy::new().with_rule(
                    Rule::permit().for_subject(Subject::Public).with_condition(
                        Condition::RequiresClaims(vec![ClaimRequirement::of_kind(kind)]),
                    ),
                ),
            )
        };
        let mut set = PolicySet::new();
        set.add(gate("need-payment", "payment")).unwrap();
        set.add(gate("need-terms", "terms")).unwrap();
        set.assign_realm(photo(), "shop");
        set.bind_general("shop", &PolicyId::from("need-payment"))
            .unwrap();
        set.bind_specific(photo(), &PolicyId::from("need-terms"))
            .unwrap();

        let req = AccessRequest::new("webpics.example", "photo-1", Action::Read);
        match PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0)).outcome {
            Outcome::RequiresClaims(claims) => {
                let kinds: Vec<&str> = claims.iter().map(|c| c.kind.as_str()).collect();
                assert!(kinds.contains(&"payment") && kinds.contains(&"terms"));
            }
            other => panic!("expected merged claims, got {other:?}"),
        }
    }

    #[test]
    fn specific_only_no_realm() {
        let mut set = PolicySet::new();
        set.add(permit_read("spec", Subject::User("alice".into())))
            .unwrap();
        set.bind_specific(photo(), &PolicyId::from("spec")).unwrap();
        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        assert!(d.is_permit());
        assert_eq!(d.realm, None);
        assert_eq!(d.general_policy, None);
    }

    #[test]
    fn matrix_policy_works_in_engine() {
        let mut set = PolicySet::new();
        set.add(Policy::matrix(
            "m",
            AclMatrix::new().allow(Subject::User("alice".into()), Action::Read),
        ))
        .unwrap();
        set.assign_realm(photo(), "album");
        set.bind_general("album", &PolicyId::from("m")).unwrap();
        let req = alice_read();
        assert!(PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0)).is_permit());
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut set = PolicySet::new();
        set.add(permit_read("p", Subject::Public)).unwrap();
        assert_eq!(
            set.add(permit_read("p", Subject::Public)),
            Err(PolicySetError::DuplicateId(PolicyId::from("p")))
        );
        // upsert replaces silently.
        set.upsert(deny_all("p", Subject::Public));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn remove_clears_bindings() {
        let mut set = set_with_general();
        set.remove(&PolicyId::from("general")).unwrap();
        assert_eq!(set.general_binding("album"), None);
        let req = alice_read();
        let d = PolicyEngine::evaluate(&set, &EvalContext::new(&req, 0));
        assert_eq!(d.outcome, Outcome::Deny(DenyReason::NoApplicablePolicy));
    }

    #[test]
    fn remove_unknown_errors() {
        let mut set = PolicySet::new();
        assert!(matches!(
            set.remove(&PolicyId::from("ghost")),
            Err(PolicySetError::UnknownPolicy(_))
        ));
    }

    #[test]
    fn bind_unknown_policy_errors() {
        let mut set = PolicySet::new();
        assert!(set.bind_general("realm", &PolicyId::from("ghost")).is_err());
        assert!(set
            .bind_specific(photo(), &PolicyId::from("ghost"))
            .is_err());
    }

    #[test]
    fn realm_membership_queries() {
        let mut set = PolicySet::new();
        let p1 = ResourceRef::new("h", "1");
        let p2 = ResourceRef::new("h", "2");
        set.assign_realm(p1.clone(), "a");
        set.assign_realm(p2.clone(), "a");
        assert_eq!(set.realm_members("a").len(), 2);
        assert_eq!(set.realm_of(&p1), Some("a"));
        // Re-assignment moves.
        set.assign_realm(p1.clone(), "b");
        assert_eq!(set.realm_members("a").len(), 1);
        assert_eq!(set.realm_members("b"), vec![&p1]);
        assert_eq!(set.clear_realm(&p1), Some("b".to_owned()));
        assert_eq!(set.realm_of(&p1), None);
        assert!(set.realm_members("b").is_empty());
        // Idempotent re-assignment does not duplicate the member.
        set.assign_realm(p2.clone(), "a");
        assert_eq!(set.realm_members("a"), vec![&p2]);
    }

    #[test]
    fn realm_member_index_survives_serde_round_trip() {
        let mut set = PolicySet::new();
        // Insert out of order: members must come back sorted either way.
        set.assign_realm(ResourceRef::new("h", "2"), "a");
        set.assign_realm(ResourceRef::new("h", "1"), "a");
        set.assign_realm(ResourceRef::new("h", "3"), "b");
        let back = PolicySet::from_value(&set.to_value()).expect("round trip");
        assert_eq!(back, set);
        assert_eq!(back.realm_members("a"), set.realm_members("a"));
        assert_eq!(
            back.realm_members("a"),
            vec![&ResourceRef::new("h", "1"), &ResourceRef::new("h", "2")]
        );
        // The derived index stays out of the wire form.
        let obj = set.to_value();
        let fields = obj.as_obj().expect("object");
        assert!(fields.iter().all(|(k, _)| k != "members"));
    }

    #[test]
    fn unbind_operations() {
        let mut set = set_with_general();
        assert_eq!(set.unbind_general("album"), Some(PolicyId::from("general")));
        assert_eq!(set.unbind_general("album"), None);
        assert_eq!(set.unbind_specific(&photo()), None);
    }

    mod resolve_once {
        //! The resolve-once, judge-per-action path against a test copy of
        //! the 0.26.0 engine, which resolved the resource's policies anew
        //! for every request, and against the AM's 0.26.0 `stable_until`,
        //! which looked the consulted policies up again by the decision's
        //! ids: one resolution, judged for each built-in action, must give
        //! each action's outcome, realm and policies, and the same bound.

        use super::*;
        use crate::condition::{Claim, ClaimRequirement, Condition};
        use crate::groups::GroupStore;
        use crate::matrix::AclMatrix;
        use crate::model::{AccessRequest, Action, Subject};
        use crate::rule::{Rule, RulePolicy};
        use crate::xacml::{Combining, Target, XExpr, XacmlPolicy, XacmlPolicySet, XacmlRule};
        use proptest::prelude::*;

        /// `PolicyEngine::evaluate` as of 0.26.0.
        fn evaluate_0_26(set: &PolicySet, ctx: &EvalContext<'_>) -> EngineDecision {
            let resource = &ctx.request.resource;
            let realm = set.realm_of(resource).map(str::to_owned);
            let general_id = realm
                .as_deref()
                .and_then(|r| set.general_binding(r))
                .cloned();
            let specific_id = set.specific_binding(resource).cloned();
            let general_outcome = match &general_id {
                Some(id) => match set.get(id) {
                    Some(policy) => policy.evaluate(ctx),
                    None => Outcome::NotApplicable,
                },
                None => Outcome::NotApplicable,
            };
            if let Outcome::Deny(_) = general_outcome {
                return EngineDecision {
                    outcome: Outcome::Deny(DenyReason::GeneralPolicyDeny),
                    general_policy: general_id,
                    specific_policy: specific_id,
                    realm,
                };
            }
            let specific_outcome = match &specific_id {
                Some(id) => match set.get(id) {
                    Some(policy) => policy.evaluate(ctx),
                    None => Outcome::NotApplicable,
                },
                None => Outcome::NotApplicable,
            };
            EngineDecision {
                outcome: combine(general_outcome, specific_outcome),
                general_policy: general_id,
                specific_policy: specific_id,
                realm,
            }
        }

        /// The AM's 0.26.0 bound on one decision: the nearest
        /// `stable_until` of the policies its ids name.
        fn stable_until_0_26(set: &PolicySet, decision: &EngineDecision, now: u64) -> u64 {
            [&decision.general_policy, &decision.specific_policy]
                .into_iter()
                .flatten()
                .filter_map(|id| set.get(id))
                .map(|policy| policy.stable_until(now))
                .min()
                .unwrap_or(u64::MAX)
        }

        fn subject(code: u8) -> Subject {
            match code % 6 {
                0 => Subject::Public,
                1 => Subject::Authenticated,
                2 => Subject::User("alice".into()),
                3 => Subject::User("bob".into()),
                4 => Subject::Group("friends".into()),
                _ => Subject::App("requester:a".into()),
            }
        }

        /// A built-in action, or (code 5) a custom one no request uses.
        fn action(code: u8) -> Action {
            Action::BUILTIN
                .get(usize::from(code % 6))
                .cloned()
                .unwrap_or_else(|| Action::Custom("print".into()))
        }

        fn payment() -> ClaimRequirement {
            ClaimRequirement::of_kind("payment")
        }

        /// A rule condition around instant `t`, or none (code 5).
        fn condition(code: u8, t: u64) -> Option<Condition> {
            Some(match code % 6 {
                0 => Condition::TimeWindow {
                    start_ms: t,
                    end_ms: t + 40,
                },
                1 => Condition::ValidUntil(t),
                2 => Condition::MaxUses(u32::from(code / 6 % 3)),
                3 => Condition::RequiresConsent,
                4 => Condition::RequiresClaims(vec![payment()]),
                _ => return None,
            })
        }

        /// An XACML condition around instant `t`, nested while `depth`
        /// lasts.
        fn expr(code: u8, t: u64, depth: u8) -> XExpr {
            let inner = |shift: u8| expr(code.rotate_left(u32::from(shift)), t + 7, depth - 1);
            match code % 11 {
                8 if depth > 0 => XExpr::Not(Box::new(inner(3))),
                9 if depth > 0 => XExpr::And(vec![inner(2), inner(5)]),
                10 if depth > 0 => XExpr::Or(vec![inner(1), inner(4)]),
                1 => XExpr::TimeBefore(t),
                2 => XExpr::TimeAtOrAfter(t),
                3 => XExpr::SubjectIs("alice".into()),
                4 => XExpr::SubjectInGroup("friends".into()),
                5 => XExpr::UsesBelow(u32::from(code / 11 % 3)),
                6 => XExpr::HasClaim(payment()),
                7 => XExpr::ConsentGranted,
                _ => XExpr::True,
            }
        }

        fn combining(code: u8) -> Combining {
            match code % 3 {
                0 => Combining::DenyOverrides,
                1 => Combining::PermitOverrides,
                _ => Combining::FirstApplicable,
            }
        }

        /// One clause: (effect, subject, action, condition, instant).
        type Clause = (u8, u8, u8, u8, u8);

        /// A policy named `name` in the language `kind` picks, from
        /// `clauses`. An action code of 6 or more leaves a rule or a
        /// target open to every action.
        fn policy(name: &str, kind: u8, clauses: &[Clause]) -> Policy {
            match kind % 3 {
                0 => Policy::matrix(
                    name,
                    clauses
                        .iter()
                        .map(|&(_, s, a, _, _)| (subject(s), action(a)))
                        .collect::<AclMatrix>(),
                ),
                1 => {
                    let mut rules = RulePolicy::new();
                    for &(effect, s, a, c, t) in clauses {
                        let rule = if effect % 3 == 0 {
                            Rule::deny()
                        } else {
                            Rule::permit()
                        };
                        let mut rule = rule.for_subject(subject(s));
                        if a % 12 < 6 {
                            rule = rule.for_action(action(a));
                        }
                        if let Some(condition) = condition(c, u64::from(t)) {
                            rule = rule.with_condition(condition);
                        }
                        rules.push(rule);
                    }
                    Policy::rules(name, rules)
                }
                _ => {
                    let mut inner = XacmlPolicy::new("p", combining(kind / 3));
                    for (i, &(effect, s, a, c, t)) in clauses.iter().enumerate() {
                        let id = format!("r{i}");
                        let rule = if effect % 3 == 0 {
                            XacmlRule::deny(&id)
                        } else {
                            XacmlRule::permit(&id)
                        };
                        let mut target = Target::any().with_subject(subject(s));
                        if a % 12 < 6 {
                            target = target.with_action(action(a));
                        }
                        let rule = rule.with_target(target);
                        inner = inner.with_rule(match c % 4 {
                            0 => rule,
                            _ => rule.with_condition(expr(c, u64::from(t), 2)),
                        });
                    }
                    let set = XacmlPolicySet::new("ps", combining(kind / 9)).with_policy(inner);
                    Policy::xacml(name, set)
                }
            }
        }

        fn clauses() -> impl Strategy<Value = Vec<Clause>> {
            proptest::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..255, 0u8..200), 1..5)
        }

        fn photo() -> ResourceRef {
            ResourceRef::new("h.example", "photo")
        }

        proptest! {
            /// Over matrix, rule and XACML bodies bound as general and
            /// specific policies (or not), with time, use-count, consent
            /// and claim conditions: one resolution judged per built-in
            /// action equals the 0.26.0 engine on each action, and its
            /// bound equals the 0.26.0 minimum.
            #[test]
            fn one_resolution_judges_every_action_as_the_0_26_engine(
                general in (0u8..255, clauses()),
                specific in (0u8..255, clauses()),
                bindings in 0u8..8,
                requester in (0u8..3, any::<bool>(), 0u32..3, any::<bool>()),
                now in 0u64..240,
            ) {
                let mut set = PolicySet::new();
                set.add(policy("general", general.0, &general.1)).unwrap();
                set.add(policy("specific", specific.0, &specific.1)).unwrap();
                // An unrelated binding the resolution must not pick up.
                let other = ResourceRef::new("h.example", "other");
                set.bind_specific(other.clone(), &PolicyId::from("general")).unwrap();
                set.assign_realm(other, "elsewhere");
                if bindings & 1 != 0 {
                    set.assign_realm(photo(), "album");
                }
                if bindings & 2 != 0 {
                    set.bind_general("album", &PolicyId::from("general")).unwrap();
                }
                if bindings & 4 != 0 {
                    set.bind_specific(photo(), &PolicyId::from("specific")).unwrap();
                }
                let mut groups = GroupStore::new();
                groups.add_member("friends", "alice");
                let (who, via_app, prior_uses, consent) = requester;
                let claims = [Claim::new("payment", "paid", "bank.example")];
                let presented: &[Claim] = if consent == (prior_uses == 1) { &claims } else { &[] };

                let resolution = PolicyEngine::resolve(&set, &photo());
                let mut request = AccessRequest::new("h.example", "photo", Action::Read);
                request.subject = ["alice", "bob"].get(usize::from(who)).map(|u| (*u).to_owned());
                request.requester_app = via_app.then(|| "requester:a".to_owned());
                for built_in in Action::BUILTIN {
                    request.action = built_in;
                    let mut ctx = EvalContext::new(&request, now)
                        .with_groups(&groups)
                        .with_claims(presented)
                        .with_prior_uses(prior_uses);
                    if consent {
                        ctx = ctx.with_consent();
                    }
                    let expected = evaluate_0_26(&set, &ctx);
                    prop_assert_eq!(resolution.outcome(&ctx), expected.outcome.clone());
                    prop_assert_eq!(resolution.decide(&ctx), expected.clone());
                    prop_assert_eq!(PolicyEngine::evaluate(&set, &ctx), expected.clone());
                    prop_assert_eq!(
                        resolution.stable_until(now),
                        stable_until_0_26(&set, &expected, now)
                    );
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Builds a random policy set over a small universe, plus a random
        /// request, from a compact genome.
        fn build(
            permits: &[(u8, u8)],
            denies: &[(u8, u8)],
            general_realm: bool,
            specific: bool,
        ) -> PolicySet {
            let mut set = PolicySet::new();
            let mut general = RulePolicy::new();
            for (s, a) in permits {
                general.push(
                    Rule::permit()
                        .for_subject(subject(*s))
                        .for_action(action(*a)),
                );
            }
            let mut spec_rules = RulePolicy::new();
            for (s, a) in denies {
                spec_rules.push(Rule::deny().for_subject(subject(*s)).for_action(action(*a)));
            }
            set.add(Policy::rules("general", general)).unwrap();
            set.add(Policy::rules("specific", spec_rules)).unwrap();
            set.assign_realm(photo(), "realm");
            if general_realm {
                set.bind_general("realm", &PolicyId::from("general"))
                    .unwrap();
            }
            if specific {
                set.bind_specific(photo(), &PolicyId::from("specific"))
                    .unwrap();
            }
            set
        }

        fn subject(code: u8) -> Subject {
            match code % 3 {
                0 => Subject::Public,
                1 => Subject::User("alice".into()),
                _ => Subject::User("bob".into()),
            }
        }

        fn action(code: u8) -> Action {
            match code % 3 {
                0 => Action::Read,
                1 => Action::Write,
                _ => Action::List,
            }
        }

        proptest! {
            /// Metamorphic: adding deny rules never widens access — any
            /// request permitted WITH the denies was also permitted
            /// without them, and vice versa, removing denies never revokes.
            #[test]
            fn denies_never_widen_access(
                permits in proptest::collection::vec((0u8..3, 0u8..3), 0..5),
                denies in proptest::collection::vec((0u8..3, 0u8..3), 0..5),
                req_subject in 0u8..3,
                req_action in 0u8..3,
            ) {
                let with_denies = build(&permits, &denies, true, true);
                let without_denies = build(&permits, &[], true, true);
                let request = AccessRequest::new("webpics.example", "photo-1", action(req_action))
                    .by_user(match req_subject % 3 { 1 => "alice", _ => "bob" });
                let ctx = EvalContext::new(&request, 0);
                let constrained = PolicyEngine::evaluate(&with_denies, &ctx);
                let free = PolicyEngine::evaluate(&without_denies, &ctx);
                if constrained.is_permit() {
                    prop_assert!(free.is_permit(), "deny rules must only shrink access");
                }
            }

            /// Default deny: with no bindings at all, everything is denied.
            #[test]
            fn unbound_always_denies(
                permits in proptest::collection::vec((0u8..3, 0u8..3), 0..5),
                req_action in 0u8..3,
            ) {
                let set = build(&permits, &[], false, false);
                let request = AccessRequest::new("webpics.example", "photo-1", action(req_action))
                    .by_user("alice");
                let decision = PolicyEngine::evaluate(&set, &EvalContext::new(&request, 0));
                prop_assert!(!decision.is_permit());
            }

            /// Evaluation is deterministic: same set, same context, same
            /// decision.
            #[test]
            fn evaluation_deterministic(
                permits in proptest::collection::vec((0u8..3, 0u8..3), 0..5),
                denies in proptest::collection::vec((0u8..3, 0u8..3), 0..5),
                req_action in 0u8..3,
            ) {
                let set = build(&permits, &denies, true, true);
                let request = AccessRequest::new("webpics.example", "photo-1", action(req_action))
                    .by_user("alice");
                let ctx = EvalContext::new(&request, 0);
                let a = PolicyEngine::evaluate(&set, &ctx);
                let b = PolicyEngine::evaluate(&set, &ctx);
                prop_assert_eq!(a, b);
            }
        }
    }
}
