//! Access-control policy substrate for the UCAM system.
//!
//! The paper's Authorization Manager stores a User's "centrally located
//! security requirements … expressed in a form of access control policies"
//! and evaluates access requests against them (§V). Its prototype (§VI)
//! supports *general* policies applying to groups of resources and
//! *specific* policies applying to individual resources, combined by a
//! two-stage, deny-short-circuiting engine; policies are imported/exported
//! as JSON or XML.
//!
//! This crate reproduces all of that, plus the problem the paper sets out to
//! solve: shortcoming **S2** — "diverse and possibly incompatible policy
//! languages" across Web applications — is modelled by providing **two**
//! policy languages:
//!
//! * [`matrix::AclMatrix`] — a simple access-control matrix ("WebPics may
//!   use a simple access control matrix", §III.2),
//! * [`rule::RulePolicy`] — a flexible condition-bearing rule language
//!   ("WebVideos or WebDocs may use a more flexible policy language").
//!
//! [`translate`] converts between them (quantifying policy-migration cost,
//! experiment E14), [`engine`] implements the §VI evaluation pipeline, and
//! [`json`]/[`xml`] implement the REST import/export formats.
//!
//! # Example
//!
//! ```
//! use ucam_policy::prelude::*;
//!
//! // Bob permits his friends group to view photos.
//! let policy = Policy::rules(
//!     "trip-sharing",
//!     RulePolicy::new().with_rule(
//!         Rule::permit()
//!             .for_subject(Subject::Group("friends".into()))
//!             .for_action(Action::Read),
//!     ),
//! );
//!
//! let mut groups = GroupStore::new();
//! groups.add_member("friends", "alice");
//!
//! let request = AccessRequest::new("webpics.example", "photo-1", Action::Read)
//!     .by_user("alice");
//! let ctx = EvalContext::new(&request, 0).with_groups(&groups);
//! assert_eq!(policy.evaluate(&ctx), Outcome::Permit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod engine;
pub mod groups;
pub mod json;
pub mod matrix;
pub mod model;
pub mod rt;
pub mod rule;
pub mod translate;
pub mod xacml;
pub mod xml;

/// Convenient glob-import of the commonly used policy types.
pub mod prelude {
    pub use crate::condition::{Claim, ClaimRequirement, Condition};
    pub use crate::engine::{EngineDecision, PolicyEngine, PolicySet, Resolution};
    pub use crate::groups::{GroupLookup, GroupStore};
    pub use crate::matrix::AclMatrix;
    pub use crate::model::{
        AccessRequest, Action, DenyReason, EvalContext, Outcome, Policy, PolicyBody, PolicyId,
        ResourceRef, Subject,
    };
    pub use crate::rule::{Effect, Rule, RulePolicy};
    pub use crate::xacml::{
        Combining, ResourceMatch, Target, XEffect, XExpr, XacmlPolicy, XacmlPolicySet, XacmlRule,
    };
}

pub use prelude::*;
