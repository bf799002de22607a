//! Simulated Web 2.0 environment for the UCAM system.
//!
//! The paper's architecture (Fig. 1) is a set of Web applications — Hosts,
//! Authorization Managers, Requesters — exchanging HTTP requests, responses
//! and browser redirects. This crate provides a deterministic, in-process
//! stand-in for that environment:
//!
//! * [`Url`] — a small URL type (scheme, authority, path, query),
//! * [`Request`] / [`Response`] / [`Method`] / [`Status`] — HTTP-like
//!   messages, each part one buffer ([`Fields`]: packed name/value pairs
//!   in name order),
//! * [`WebApp`] — the trait every simulated application implements,
//! * [`Transport`] — the message edge connecting the three parties, with
//!   two backends behind one trait:
//!   [`SimNet`] — the deterministic in-memory network: registers apps by
//!   authority, dispatches messages, counts them, charges latency to a
//!   [`SimClock`], and records a [`trace`] of every hop — and
//!   [`HttpTransport`] — the same applications served over loopback TCP
//!   with a hand-rolled HTTP/1.1 codec (DESIGN.md §14),
//! * [`Counters`] — striped, seqlocked counter cells behind the Host's
//!   PEP statistics and both transports' [`NetStats`],
//! * [`Browser`] — a user agent holding a cookie jar that follows redirects
//!   (the glue for the paper's redirect-based protocol steps),
//! * [`identity`] — an OpenID-like identity provider (authentication is out
//!   of the paper's scope; this stands in for "OpenID or Google Account
//!   credentials", §V.B),
//! * [`trace`] — the protocol trace recorder used to regenerate the paper's
//!   sequence diagrams (Figs. 2–6).
//!
//! The substitution of a real HTTP stack with `SimNet` is deliberate and
//! documented in `DESIGN.md` §5: the paper's protocol is defined by message
//! sequences, orderings and redirects, all of which `SimNet` reproduces
//! exactly while making message counts and modelled latency measurable.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ucam_webenv::{Method, Request, Response, SimNet, Status, Transport, WebApp};
//!
//! struct Echo;
//! impl WebApp for Echo {
//!     fn authority(&self) -> &str { "echo.example" }
//!     fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
//!         Response::ok().with_body(req.param("msg").unwrap_or("?"))
//!     }
//! }
//!
//! let net = SimNet::new();
//! net.register(Arc::new(Echo));
//! let req = Request::new(Method::Get, "https://echo.example/hello").with_param("msg", "hi");
//! let resp = net.dispatch("client", req);
//! assert_eq!(resp.status, Status::Ok);
//! assert_eq!(resp.body, "hi");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browser;
pub mod clock;
pub mod codec;
pub mod counters;
pub mod fields;
pub mod http;
pub mod httpnet;
pub mod identity;
pub mod latency;
pub mod net;
pub mod protocol;
pub mod retry;
pub mod ring;
pub mod trace;
pub mod transport;
pub mod url;

pub use browser::Browser;
pub use clock::SimClock;
pub use counters::Counters;
pub use fields::{Fields, Pairs};
pub use http::{Method, Request, Response, Status, TransportError};
pub use httpnet::HttpTransport;
pub use latency::LatencyModel;
pub use net::{FlapSchedule, NetStats, SimNet, WebApp};
pub use protocol::{BatchItem, DecisionBody, WireError};
pub use retry::{RetryPolicy, RetryReport};
pub use ring::{RecordFields, RecordRing};
pub use trace::{TraceEvent, TraceKind, TraceRecorder};
pub use transport::Transport;
pub use url::{ParseUrlError, Url};
