//! Core policy model types: subjects, actions, resources, requests,
//! evaluation contexts, outcomes, and the [`Policy`] wrapper over the two
//! policy languages.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::condition::{Claim, ClaimRequirement, Condition};
use crate::groups::GroupLookup;
use crate::matrix::AclMatrix;
use crate::rule::RulePolicy;
use crate::xacml::XExpr;

/// A unique policy identifier within one Authorization Manager.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PolicyId(pub String);

impl PolicyId {
    /// Returns the id as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PolicyId {
    fn from(s: &str) -> Self {
        PolicyId(s.to_owned())
    }
}

impl From<String> for PolicyId {
    fn from(s: String) -> Self {
        PolicyId(s)
    }
}

/// A globally addressed Web resource: which Host stores it and its id there.
///
/// # Example
///
/// ```
/// use ucam_policy::ResourceRef;
/// let r = ResourceRef::new("webpics.example", "album-7/photo-3");
/// assert_eq!(r.to_string(), "webpics.example/album-7/photo-3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceRef {
    /// Authority of the Host application storing the resource.
    pub host: String,
    /// Host-local resource identifier (path-like).
    pub id: String,
}

impl ResourceRef {
    /// Creates a resource reference.
    #[must_use]
    pub fn new(host: &str, id: &str) -> Self {
        ResourceRef {
            host: host.to_owned(),
            id: id.to_owned(),
        }
    }
}

impl fmt::Display for ResourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.host, self.id)
    }
}

/// An operation a requester wants to perform on a resource.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Action {
    /// View / download.
    Read,
    /// Modify / upload a new version.
    Write,
    /// Remove.
    Delete,
    /// Enumerate a collection.
    List,
    /// Re-share with further parties.
    Share,
    /// An application-defined operation (e.g. `"print"`).
    Custom(String),
}

impl Action {
    /// The canonical built-in actions, used when expanding "all actions".
    pub const BUILTIN: [Action; 5] = [
        Action::Read,
        Action::Write,
        Action::Delete,
        Action::List,
        Action::Share,
    ];

    /// The action as a log record packs it: its index in
    /// [`Action::BUILTIN`] with no name, or `BUILTIN.len()` with a custom
    /// action's name. [`Action::unpack`] reverses it.
    #[must_use]
    pub fn pack(&self) -> (u8, &str) {
        let code = match self {
            Action::Read => 0,
            Action::Write => 1,
            Action::Delete => 2,
            Action::List => 3,
            Action::Share => 4,
            Action::Custom(name) => return (Action::BUILTIN.len() as u8, name),
        };
        (code, "")
    }

    /// The action [`Action::pack`] packed as `code` and `name`.
    #[must_use]
    pub fn unpack(code: u8, name: &str) -> Action {
        let builtin = Action::BUILTIN.get(usize::from(code)).cloned();
        builtin.unwrap_or_else(|| Action::Custom(name.to_owned()))
    }

    /// The action's wire name: a static label for a built-in action, the
    /// name of a custom one.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            Action::Read => "read",
            Action::Write => "write",
            Action::Delete => "delete",
            Action::List => "list",
            Action::Share => "share",
            Action::Custom(s) => s,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Who a policy clause applies to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Subject {
    /// Everyone, including anonymous requesters.
    Public,
    /// Any *authenticated* requester.
    Authenticated,
    /// A single user by id.
    User(String),
    /// Every member of a user-defined group (§III.1's missing feature).
    Group(String),
    /// A requesting *application* by authority (e.g. a photo printer
    /// service), independent of the human driving it.
    App(String),
}

impl Subject {
    /// Returns `true` when this subject clause covers the requester
    /// described by `ctx`.
    #[must_use]
    pub fn matches(&self, ctx: &EvalContext<'_>) -> bool {
        match self {
            Subject::Public => true,
            Subject::Authenticated => ctx.request.subject.is_some(),
            Subject::User(u) => ctx.request.subject.as_deref() == Some(u.as_str()),
            Subject::Group(g) => match &ctx.request.subject {
                Some(user) => ctx.groups.is_member(g, user),
                None => false,
            },
            Subject::App(a) => ctx.request.requester_app.as_deref() == Some(a.as_str()),
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Public => f.write_str("public"),
            Subject::Authenticated => f.write_str("authenticated"),
            Subject::User(u) => write!(f, "user:{u}"),
            Subject::Group(g) => write!(f, "group:{g}"),
            Subject::App(a) => write!(f, "app:{a}"),
        }
    }
}

/// One concrete access request, as seen by the Authorization Manager.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessRequest {
    /// Authenticated user identity of the requester, if any.
    pub subject: Option<String>,
    /// Authority of the requesting application, when the requester is an
    /// application rather than (or in addition to) a person.
    pub requester_app: Option<String>,
    /// The requested operation.
    pub action: Action,
    /// The target resource.
    pub resource: ResourceRef,
}

impl AccessRequest {
    /// Creates an anonymous request for `action` on `host/<id>`.
    #[must_use]
    pub fn new(host: &str, resource_id: &str, action: Action) -> Self {
        AccessRequest {
            subject: None,
            requester_app: None,
            action,
            resource: ResourceRef::new(host, resource_id),
        }
    }

    /// Attributes the request to an authenticated user.
    #[must_use]
    pub fn by_user(mut self, user: &str) -> Self {
        self.subject = Some(user.to_owned());
        self
    }

    /// Attributes the request to a requesting application.
    #[must_use]
    pub fn via_app(mut self, app_authority: &str) -> Self {
        self.requester_app = Some(app_authority.to_owned());
        self
    }
}

/// Everything a policy may consult while evaluating one request.
///
/// Constructed with [`EvalContext::new`] and extended with builder-style
/// `with_*` methods.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// The request under evaluation.
    pub request: &'a AccessRequest,
    /// Current simulated time (milliseconds).
    pub now_ms: u64,
    /// Group-membership oracle.
    pub groups: &'a dyn GroupLookup,
    /// Claims presented by the requester (claims extension, §VII).
    pub claims: &'a [Claim],
    /// Whether the resource owner has granted real-time consent for this
    /// request (consent extension, §V.D).
    pub consent_granted: bool,
    /// How many times this (requester, resource) pair has already been
    /// granted access — consulted by `Condition::MaxUses`.
    pub prior_uses: u32,
}

impl fmt::Debug for EvalContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalContext")
            .field("request", self.request)
            .field("now_ms", &self.now_ms)
            .field("claims", &self.claims)
            .field("consent_granted", &self.consent_granted)
            .field("prior_uses", &self.prior_uses)
            .finish_non_exhaustive()
    }
}

/// The empty group store used by default contexts.
static NO_GROUPS: crate::groups::NoGroups = crate::groups::NoGroups;

impl<'a> EvalContext<'a> {
    /// Creates a context with no groups, claims, or consent.
    #[must_use]
    pub fn new(request: &'a AccessRequest, now_ms: u64) -> Self {
        EvalContext {
            request,
            now_ms,
            groups: &NO_GROUPS,
            claims: &[],
            consent_granted: false,
            prior_uses: 0,
        }
    }

    /// Supplies a group-membership oracle.
    #[must_use]
    pub fn with_groups(mut self, groups: &'a dyn GroupLookup) -> Self {
        self.groups = groups;
        self
    }

    /// Supplies presented claims.
    #[must_use]
    pub fn with_claims(mut self, claims: &'a [Claim]) -> Self {
        self.claims = claims;
        self
    }

    /// Marks real-time consent as granted.
    #[must_use]
    pub fn with_consent(mut self) -> Self {
        self.consent_granted = true;
        self
    }

    /// Records how many prior uses have been granted.
    #[must_use]
    pub fn with_prior_uses(mut self, uses: u32) -> Self {
        self.prior_uses = uses;
        self
    }
}

/// Why an access request was denied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DenyReason {
    /// An explicit deny rule matched.
    ExplicitDeny,
    /// No policy clause applied to the request (default deny).
    NoApplicablePolicy,
    /// A condition on the matching permit was unsatisfied.
    ConditionFailed(String),
    /// The general (group) policy denied, short-circuiting (§VI).
    GeneralPolicyDeny,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::ExplicitDeny => f.write_str("explicit deny rule"),
            DenyReason::NoApplicablePolicy => f.write_str("no applicable policy (default deny)"),
            DenyReason::ConditionFailed(c) => write!(f, "condition failed: {c}"),
            DenyReason::GeneralPolicyDeny => f.write_str("general policy denied"),
        }
    }
}

/// The result of evaluating one policy (or the whole engine pipeline).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Access granted.
    Permit,
    /// Access denied.
    Deny(DenyReason),
    /// This policy says nothing about the request.
    NotApplicable,
    /// A permit is available but only after the owner grants real-time
    /// consent (§V.D extension).
    RequiresConsent,
    /// A permit is available but only after the requester presents the
    /// listed claims (§VII extension, e.g. payment confirmation).
    RequiresClaims(Vec<ClaimRequirement>),
}

impl Outcome {
    /// Returns `true` for [`Outcome::Permit`].
    #[must_use]
    pub fn is_permit(&self) -> bool {
        matches!(self, Outcome::Permit)
    }

    /// Returns `true` for any deny (including `NotApplicable`, which the
    /// engine maps to default deny).
    #[must_use]
    pub fn is_deny(&self) -> bool {
        matches!(self, Outcome::Deny(_) | Outcome::NotApplicable)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Permit => f.write_str("permit"),
            Outcome::Deny(r) => write!(f, "deny ({r})"),
            Outcome::NotApplicable => f.write_str("not-applicable"),
            Outcome::RequiresConsent => f.write_str("requires-consent"),
            Outcome::RequiresClaims(_) => f.write_str("requires-claims"),
        }
    }
}

/// The body of a policy in one of the supported languages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyBody {
    /// Simple access-control matrix.
    Matrix(AclMatrix),
    /// Flexible condition-bearing rules.
    Rules(RulePolicy),
    /// XACML-like structured policy set (§VII future work, implemented).
    Xacml(crate::xacml::XacmlPolicySet),
}

/// A named, identified policy in one of the supported languages.
///
/// # Example
///
/// ```
/// use ucam_policy::prelude::*;
///
/// let p = Policy::matrix("simple", AclMatrix::new().allow(Subject::Public, Action::Read));
/// let request = AccessRequest::new("h.example", "r", Action::Read);
/// assert_eq!(p.evaluate(&EvalContext::new(&request, 0)), Outcome::Permit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Unique id (assigned by the AM's PAP on creation).
    pub id: PolicyId,
    /// Human-readable name.
    pub name: String,
    /// The policy body.
    pub body: PolicyBody,
}

impl Policy {
    /// Creates a rule-language policy (id defaults to the name; the PAP
    /// re-assigns unique ids on storage).
    #[must_use]
    pub fn rules(name: &str, rules: RulePolicy) -> Self {
        Policy {
            id: PolicyId::from(name),
            name: name.to_owned(),
            body: PolicyBody::Rules(rules),
        }
    }

    /// Creates a matrix-language policy.
    #[must_use]
    pub fn matrix(name: &str, matrix: AclMatrix) -> Self {
        Policy {
            id: PolicyId::from(name),
            name: name.to_owned(),
            body: PolicyBody::Matrix(matrix),
        }
    }

    /// Creates an XACML-language policy.
    #[must_use]
    pub fn xacml(name: &str, set: crate::xacml::XacmlPolicySet) -> Self {
        Policy {
            id: PolicyId::from(name),
            name: name.to_owned(),
            body: PolicyBody::Xacml(set),
        }
    }

    /// Returns the policy-language name (`"matrix"`, `"rules"`, or
    /// `"xacml"`).
    #[must_use]
    pub fn language(&self) -> &'static str {
        match self.body {
            PolicyBody::Matrix(_) => "matrix",
            PolicyBody::Rules(_) => "rules",
            PolicyBody::Xacml(_) => "xacml",
        }
    }

    /// Evaluates the policy against one request context.
    #[must_use]
    pub fn evaluate(&self, ctx: &EvalContext<'_>) -> Outcome {
        match &self.body {
            PolicyBody::Matrix(m) => m.evaluate(ctx),
            PolicyBody::Rules(r) => r.evaluate(ctx),
            PolicyBody::Xacml(x) => x.evaluate(ctx),
        }
    }

    /// Until when this policy's verdicts hold without an edit: the
    /// nearest instant after `now_ms` that one of its time conditions
    /// compares against (a [`Condition::TimeWindow`] start or end, a
    /// [`Condition::ValidUntil`], an [`XExpr::TimeBefore`] or
    /// [`XExpr::TimeAtOrAfter`]); `now_ms` if it counts uses
    /// ([`Condition::MaxUses`], [`XExpr::UsesBelow`]), since every use
    /// can change a verdict; `u64::MAX` otherwise. A static walk over
    /// the conditions, so the bound holds for every request.
    #[must_use]
    pub fn stable_until(&self, now_ms: u64) -> u64 {
        let future = |t: u64| if t > now_ms { t } else { u64::MAX };
        match &self.body {
            PolicyBody::Matrix(_) => u64::MAX,
            PolicyBody::Rules(rules) => rules
                .rules()
                .iter()
                .flat_map(|rule| &rule.conditions)
                .map(|condition| match condition {
                    Condition::TimeWindow { start_ms, end_ms } => {
                        future(*start_ms).min(future(*end_ms))
                    }
                    Condition::ValidUntil(deadline) => future(*deadline),
                    Condition::MaxUses(_) => now_ms,
                    Condition::RequiresConsent | Condition::RequiresClaims(_) => u64::MAX,
                })
                .min()
                .unwrap_or(u64::MAX),
            PolicyBody::Xacml(set) => set
                .policies
                .iter()
                .flat_map(|policy| &policy.rules)
                .filter_map(|rule| rule.condition.as_ref())
                .map(|expr| expr_stable_until(expr, now_ms))
                .min()
                .unwrap_or(u64::MAX),
        }
    }
}

/// [`Policy::stable_until`] for one XACML condition expression.
fn expr_stable_until(expr: &XExpr, now_ms: u64) -> u64 {
    match expr {
        XExpr::TimeBefore(t) | XExpr::TimeAtOrAfter(t) if *t > now_ms => *t,
        XExpr::UsesBelow(_) => now_ms,
        XExpr::Not(inner) => expr_stable_until(inner, now_ms),
        XExpr::And(parts) | XExpr::Or(parts) => parts
            .iter()
            .map(|part| expr_stable_until(part, now_ms))
            .min()
            .unwrap_or(u64::MAX),
        // Exhaustive, so a new condition kind has to be classified here.
        XExpr::TimeBefore(_)
        | XExpr::TimeAtOrAfter(_)
        | XExpr::True
        | XExpr::SubjectIs(_)
        | XExpr::SubjectInGroup(_)
        | XExpr::HasClaim(_)
        | XExpr::ConsentGranted => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::GroupStore;
    use crate::rule::Rule;

    #[test]
    fn resource_ref_display() {
        assert_eq!(
            ResourceRef::new("h.example", "a/b").to_string(),
            "h.example/a/b"
        );
    }

    /// Every built-in action packs to its index in `BUILTIN`, and every
    /// action unpacks to itself, a custom one named like a built-in too.
    #[test]
    fn actions_pack_and_unpack_to_themselves() {
        for (code, action) in Action::BUILTIN.iter().enumerate() {
            assert_eq!(action.pack(), (code as u8, ""));
        }
        let customs = ["", "print", "read"].map(|name| Action::Custom(name.to_owned()));
        for action in Action::BUILTIN.iter().chain(&customs) {
            let (code, name) = action.pack();
            assert_eq!(&Action::unpack(code, name), action);
        }
    }

    #[test]
    fn action_display() {
        assert_eq!(Action::Read.to_string(), "read");
        assert_eq!(Action::Custom("print".into()).to_string(), "print");
    }

    #[test]
    fn subject_public_matches_anonymous() {
        let req = AccessRequest::new("h", "r", Action::Read);
        let ctx = EvalContext::new(&req, 0);
        assert!(Subject::Public.matches(&ctx));
        assert!(!Subject::Authenticated.matches(&ctx));
    }

    #[test]
    fn subject_user_matches_exact_user() {
        let req = AccessRequest::new("h", "r", Action::Read).by_user("alice");
        let ctx = EvalContext::new(&req, 0);
        assert!(Subject::User("alice".into()).matches(&ctx));
        assert!(!Subject::User("bob".into()).matches(&ctx));
        assert!(Subject::Authenticated.matches(&ctx));
    }

    #[test]
    fn subject_group_requires_membership() {
        let mut groups = GroupStore::new();
        groups.add_member("friends", "alice");
        let req = AccessRequest::new("h", "r", Action::Read).by_user("alice");
        let ctx = EvalContext::new(&req, 0).with_groups(&groups);
        assert!(Subject::Group("friends".into()).matches(&ctx));
        assert!(!Subject::Group("family".into()).matches(&ctx));

        let req2 = AccessRequest::new("h", "r", Action::Read).by_user("mallory");
        let ctx2 = EvalContext::new(&req2, 0).with_groups(&groups);
        assert!(!Subject::Group("friends".into()).matches(&ctx2));
    }

    #[test]
    fn subject_group_never_matches_anonymous() {
        let mut groups = GroupStore::new();
        groups.add_member("friends", "alice");
        let req = AccessRequest::new("h", "r", Action::Read);
        let ctx = EvalContext::new(&req, 0).with_groups(&groups);
        assert!(!Subject::Group("friends".into()).matches(&ctx));
    }

    #[test]
    fn subject_app_matches_requesting_application() {
        let req = AccessRequest::new("h", "r", Action::Read).via_app("printer.example");
        let ctx = EvalContext::new(&req, 0);
        assert!(Subject::App("printer.example".into()).matches(&ctx));
        assert!(!Subject::App("other.example".into()).matches(&ctx));
    }

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Permit.is_permit());
        assert!(Outcome::Deny(DenyReason::ExplicitDeny).is_deny());
        assert!(Outcome::NotApplicable.is_deny());
        assert!(!Outcome::RequiresConsent.is_deny());
        assert!(!Outcome::RequiresConsent.is_permit());
    }

    #[test]
    fn policy_language_names() {
        let m = Policy::matrix("m", AclMatrix::new());
        let r = Policy::rules("r", RulePolicy::new());
        assert_eq!(m.language(), "matrix");
        assert_eq!(r.language(), "rules");
    }

    #[test]
    fn policy_dispatches_to_body() {
        let p = Policy::rules(
            "p",
            RulePolicy::new().with_rule(
                Rule::permit()
                    .for_subject(Subject::Public)
                    .for_action(Action::Read),
            ),
        );
        let req = AccessRequest::new("h", "r", Action::Read);
        assert_eq!(p.evaluate(&EvalContext::new(&req, 0)), Outcome::Permit);
        let req2 = AccessRequest::new("h", "r", Action::Write);
        assert_eq!(
            p.evaluate(&EvalContext::new(&req2, 0)),
            Outcome::NotApplicable
        );
    }

    fn rules_with(condition: Condition) -> Policy {
        Policy::rules(
            "p",
            RulePolicy::new().with_rule(
                Rule::permit()
                    .for_subject(Subject::Public)
                    .with_condition(condition),
            ),
        )
    }

    fn xacml_with(expr: XExpr) -> Policy {
        use crate::xacml::{Combining, XacmlPolicy, XacmlPolicySet, XacmlRule};
        Policy::xacml(
            "x",
            XacmlPolicySet::new("s", Combining::DenyOverrides).with_policy(
                XacmlPolicy::new("p", Combining::DenyOverrides)
                    .with_rule(XacmlRule::permit("r").with_condition(expr)),
            ),
        )
    }

    #[test]
    fn stable_until_bounds_time_conditions_by_their_next_instant() {
        let window = |now| {
            rules_with(Condition::TimeWindow {
                start_ms: 100,
                end_ms: 200,
            })
            .stable_until(now)
        };
        assert_eq!(window(50), 100, "before the window: its start");
        assert_eq!(window(100), 200, "inside the window: its end");
        assert_eq!(window(200), u64::MAX, "after the window: fixed");
        let until = |now| rules_with(Condition::ValidUntil(300)).stable_until(now);
        assert_eq!(until(10), 300);
        assert_eq!(until(300), u64::MAX);
        assert_eq!(xacml_with(XExpr::TimeBefore(40)).stable_until(10), 40);
        assert_eq!(xacml_with(XExpr::TimeAtOrAfter(40)).stable_until(10), 40);
        assert_eq!(xacml_with(XExpr::TimeBefore(40)).stable_until(40), u64::MAX);
        // Nested expressions contribute their nearest instant.
        let nested = XExpr::Or(vec![
            XExpr::Not(Box::new(XExpr::TimeBefore(90))),
            XExpr::And(vec![
                XExpr::SubjectIs("alice".into()),
                XExpr::TimeAtOrAfter(60),
            ]),
        ]);
        assert_eq!(xacml_with(nested).stable_until(10), 60);
    }

    #[test]
    fn stable_until_is_now_under_use_counting() {
        assert_eq!(rules_with(Condition::MaxUses(2)).stable_until(7), 7);
        let counted = XExpr::And(vec![XExpr::TimeBefore(90), XExpr::UsesBelow(3)]);
        assert_eq!(xacml_with(counted).stable_until(7), 7);
    }

    #[test]
    fn stable_until_is_unbounded_without_time_or_use_conditions() {
        assert_eq!(
            Policy::matrix("m", AclMatrix::new().allow(Subject::Public, Action::Read))
                .stable_until(5),
            u64::MAX
        );
        assert_eq!(
            rules_with(Condition::RequiresConsent).stable_until(5),
            u64::MAX
        );
        assert_eq!(xacml_with(XExpr::ConsentGranted).stable_until(5), u64::MAX);
    }

    #[test]
    fn display_impls_nonempty() {
        assert!(!Outcome::Permit.to_string().is_empty());
        assert!(!DenyReason::NoApplicablePolicy.to_string().is_empty());
        assert!(!Subject::Group("g".into()).to_string().is_empty());
        assert!(!PolicyId::from("x").to_string().is_empty());
    }
}
