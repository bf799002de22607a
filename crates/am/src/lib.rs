//! The **Authorization Manager** (AM) — the core contribution of
//! *Machulak & van Moorsel, "Architecture and Protocol for User-Controlled
//! Access Management in Web 2.0 Applications"*.
//!
//! The AM is the "specialized component" in which a user's "centrally
//! located security requirements" live (§V). It combines:
//!
//! * a **PAP** ([`pap`]) — policy CRUD, resource/realm linking, principal
//!   groups, JSON/XML import-export,
//! * a **PDP** ([`manager`]) — the two-stage general+specific evaluation of
//!   §VI, answering Host decision queries (Fig. 6),
//! * a **token service** ([`tokens`]) — host access tokens sealing
//!   delegations (Fig. 3) and authorization tokens bound to access requests
//!   (Fig. 5),
//! * a **trust registry** ([`trust`]) — the Host↔AM delegations themselves,
//! * the §V.D **consent** extension ([`consent`]) — asynchronous real-time
//!   owner approval over simulated e-mail/SMS,
//! * the §VII **claims** extension ([`claims`]) — e.g. payment
//!   confirmations from trusted issuers,
//! * a centralized **audit log** ([`audit`]) — requirement R4's
//!   consolidated view with cross-host correlation.
//!
//! [`AuthorizationManager`] exposes everything both as a native Rust API
//! and as a simulated Web application (`ucam_webenv::WebApp`) with the
//! protocol endpoints `/delegate`, `/compose`, `/authorize`, the one
//! single-decision route `/protection/v2/decision` (Fig. 6, with an
//! optional `if_epoch` precondition), the batched decision route
//! `/protection/v1/decisions`, the rest of the v2 surface
//! `/protection/v2/{authorize,register,register/rotate,register/deregister,delegate}`
//! (batch authorize and dynamic registration — DESIGN.md §16),
//! `/policies/{import,export}`, and
//! `/consent/*` — plus an asynchronous AM→Host policy-epoch [`push`]
//! channel delivered over the simulated network, each push carrying the
//! owner's capability sieve.
//!
//! The Web routes are one table of rows (DESIGN.md §17): each names its
//! path, who may call it (anyone, a requester whose sent assertion must
//! verify, a delegated Host, the named user, the owner or a custodian, a
//! registrant, or a registered Host confirmed by the user) and its
//! handler. One dispatcher checks that caller class before the handler
//! runs and hands the handler the principal it found; docs/PROTOCOL.md
//! lists every route with its class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod claims;
pub mod consent;
pub mod manager;
pub mod pap;
pub mod push;
pub mod tokens;
pub mod trust;

pub use claims::ClaimIssuer;
pub use manager::{
    AmError, AuthorizationManager, AuthorizeOutcome, AuthorizeRequest, Decision, DecisionQuery,
};
pub use pap::{Account, ExportFormat};
pub use push::EpochPushStats;
pub use tokens::{AuthzGrant, HostGrant, TokenError, TokenService};
pub use trust::{Delegation, TrustError, TrustRegistry};
