//! Host (PEP) framework and concrete Web applications for the UCAM system.
//!
//! "A Host can be any Web application that allows Users to create or upload
//! and then share data with other users or services on the Web" (§V.A.3).
//! This crate provides:
//!
//! * [`core`] — the framework: resource store, delegation management
//!   (per-user or per-resource, possibly to different AMs), the Policy
//!   Enforcement Point with redirect-to-AM (Fig. 5), decision queries
//!   (Fig. 6), the user-controllable decision cache (§V.B.5–6), built-in
//!   legacy ACLs (the §III status quo), and a host-local access log,
//! * [`shell`] — shared Web routes every Host exposes (delegation setup,
//!   the "Share" redirect to the AM's policy editor, legacy ACL editing)
//!   and the one dispatcher that serves every app's route table: each row
//!   names its caller class (anyone, the PEP, a session, the named user's
//!   own session, the resource's owner), checked before its handler runs
//!   (DESIGN.md §17),
//! * [`image`] — a small raster-image substrate for the gallery's editing
//!   operations,
//! * four concrete applications matching the paper's §II scenario and §VI
//!   prototype: [`webpics::WebPics`] (photo gallery & editor),
//!   [`webstorage::WebStorage`] (online file system),
//!   [`webdocs::WebDocs`] (word processor), [`webvideos::WebVideos`]
//!   (video service).
//!
//! WebPics and WebStorage can also act as Requesters against each other
//! (photo import / backup), exactly as the prototype describes. Each
//! import or backup acts for the session's user only: a fresh Requester
//! client per call, carrying that user's own assertion, so no token or
//! identity passes from one user to the next.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod image;
pub mod shell;
pub mod video;
pub mod webdocs;
pub mod webpics;
pub mod webstorage;
pub mod webvideos;

pub use crate::core::{
    AccessAttempt, BreakerConfig, DecisionPath, DelegationConfig, Enforcement, HostCore, HostError,
    HostLogEntry, PepStats, ResilienceConfig, Resource,
};
pub use crate::image::Image;
pub use crate::shell::AppShell;
pub use crate::video::Video;
pub use crate::webdocs::WebDocs;
pub use crate::webpics::WebPics;
pub use crate::webstorage::WebStorage;
pub use crate::webvideos::WebVideos;
