//! A simulated user agent (browser).
//!
//! The paper's protocol is redirect-driven: the User is bounced between Host
//! and AM while delegating access control (Fig. 3) and composing policies
//! (Fig. 4), and a Requester is bounced to the AM and back when obtaining an
//! authorization token (Fig. 5). `Browser` holds a per-authority cookie jar
//! and follows `302` redirects, exactly as a real user agent would.

use std::collections::BTreeMap;

use crate::http::{Method, Request, Response, Status};
use crate::transport::Transport;

/// Maximum redirects followed before giving up — guards against loops.
const MAX_REDIRECTS: usize = 16;

/// A cookie-holding, redirect-following user agent.
///
/// # Example
///
/// ```
/// use ucam_webenv::{Browser, SimNet};
///
/// let net = SimNet::new();
/// let mut browser = Browser::new("browser:bob");
/// // No app registered: the browser surfaces the 503.
/// let resp = browser.get(&net, "https://nowhere.example/");
/// assert_eq!(resp.status.code(), 503);
/// ```
#[derive(Debug, Clone)]
pub struct Browser {
    label: String,
    /// authority -> cookie name -> value
    jar: BTreeMap<String, BTreeMap<String, String>>,
}

impl Browser {
    /// Creates a browser identified in traces and stats as `label`
    /// (convention: `browser:<user>` or `requester:<app>`).
    #[must_use]
    pub fn new(label: &str) -> Self {
        Browser {
            label: label.to_owned(),
            jar: BTreeMap::new(),
        }
    }

    /// Returns the label this browser uses on the network.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Returns the stored cookie `name` for `authority`, if any.
    #[must_use]
    pub fn cookie(&self, authority: &str, name: &str) -> Option<&str> {
        self.jar.get(authority)?.get(name).map(String::as_str)
    }

    /// Sets a cookie directly (used by tests and by login helpers).
    pub fn set_cookie(&mut self, authority: &str, name: &str, value: &str) {
        self.jar
            .entry(authority.to_owned())
            .or_default()
            .insert(name.to_owned(), value.to_owned());
    }

    /// Removes all cookies for `authority` (logout).
    pub fn clear_cookies(&mut self, authority: &str) {
        self.jar.remove(authority);
    }

    /// Issues a GET and follows redirects.
    ///
    /// # Panics
    ///
    /// Panics if `url` does not parse (static test URLs); use
    /// [`Browser::request`] with a parsed [`Url`](crate::url::Url) for dynamic targets.
    pub fn get(&mut self, net: &dyn Transport, url: &str) -> Response {
        self.request(net, Request::new(Method::Get, url))
    }

    /// Sends `req`, attaching cookies for its authority, following up to
    /// [`MAX_REDIRECTS`](self) redirects (cookies are re-evaluated per hop, and
    /// redirected requests are GETs, as in real browsers).
    pub fn request(&mut self, net: &dyn Transport, mut req: Request) -> Response {
        for _ in 0..=MAX_REDIRECTS {
            let authority = req.url.authority().to_owned();
            req = self.attach_cookies(req);
            let resp = net.dispatch(&self.label, req);
            self.store_cookies(&authority, &resp);
            match resp.location() {
                Some(location) => {
                    req = Request::to_url(Method::Get, location);
                }
                None => return resp,
            }
        }
        Response::with_status(Status::BadRequest).with_body("redirect loop detected")
    }

    /// Sends a single request without following redirects (used where a
    /// protocol step must observe the redirect itself).
    pub fn request_no_follow(&mut self, net: &dyn Transport, req: Request) -> Response {
        let authority = req.url.authority().to_owned();
        let req = self.attach_cookies(req);
        let resp = net.dispatch(&self.label, req);
        self.store_cookies(&authority, &resp);
        resp
    }

    fn attach_cookies(&self, mut req: Request) -> Request {
        if let Some(cookies) = self.jar.get(req.url.authority()) {
            if !cookies.is_empty() {
                let header = cookies
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join("; ");
                req = req.with_header("cookie", &header);
            }
        }
        req
    }

    fn store_cookies(&mut self, authority: &str, resp: &Response) {
        if let Some(sc) = resp.header("set-cookie") {
            if let Some((name, value)) = sc.split_once('=') {
                self.set_cookie(authority, name, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{SimNet, WebApp};
    use crate::url::Url;
    use std::sync::Arc;

    /// App that sets a session cookie on /login and echoes it on /whoami.
    struct SessionApp;

    impl WebApp for SessionApp {
        fn authority(&self) -> &str {
            "session.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            match req.url.path() {
                "/login" => Response::ok().with_cookie("sid", "s-123"),
                "/whoami" => match req.cookie("sid") {
                    Some(sid) => Response::ok().with_body(sid),
                    None => Response::with_status(Status::Unauthorized),
                },
                _ => Response::not_found(req.url.path()),
            }
        }
    }

    /// App that redirects /start -> /end (same authority).
    struct RedirectApp;

    impl WebApp for RedirectApp {
        fn authority(&self) -> &str {
            "redir.example"
        }
        fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
            match req.url.path() {
                "/start" => Response::redirect(&Url::new("redir.example", "/end")),
                "/end" => Response::ok().with_body("arrived"),
                "/loop" => Response::redirect(&Url::new("redir.example", "/loop")),
                _ => Response::not_found(req.url.path()),
            }
        }
    }

    #[test]
    fn cookies_persist_across_requests() {
        let net = SimNet::new();
        net.register(Arc::new(SessionApp));
        let mut b = Browser::new("browser:bob");
        // Cookie storage happens via the explicit authority path in
        // request_no_follow; log in without following redirects.
        let resp = b.request_no_follow(
            &net,
            Request::new(Method::Get, "https://session.example/login"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(b.cookie("session.example", "sid"), Some("s-123"));
        let resp = b.get(&net, "https://session.example/whoami");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "s-123");
    }

    #[test]
    fn cookies_are_per_authority() {
        let mut b = Browser::new("browser:bob");
        b.set_cookie("a.example", "sid", "1");
        assert_eq!(b.cookie("b.example", "sid"), None);
    }

    #[test]
    fn clear_cookies_logs_out() {
        let net = SimNet::new();
        net.register(Arc::new(SessionApp));
        let mut b = Browser::new("browser:bob");
        b.set_cookie("session.example", "sid", "s-999");
        b.clear_cookies("session.example");
        let resp = b.get(&net, "https://session.example/whoami");
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn follows_redirects() {
        let net = SimNet::new();
        net.register(Arc::new(RedirectApp));
        let mut b = Browser::new("browser:bob");
        let resp = b.get(&net, "https://redir.example/start");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "arrived");
        // Two round trips on the wire.
        assert_eq!(net.stats().round_trips, 2);
    }

    #[test]
    fn redirect_loop_detected() {
        let net = SimNet::new();
        net.register(Arc::new(RedirectApp));
        let mut b = Browser::new("browser:bob");
        let resp = b.get(&net, "https://redir.example/loop");
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.body.contains("redirect loop"));
    }

    #[test]
    fn no_follow_surfaces_redirect() {
        let net = SimNet::new();
        net.register(Arc::new(RedirectApp));
        let mut b = Browser::new("browser:bob");
        let resp = b.request_no_follow(
            &net,
            Request::new(Method::Get, "https://redir.example/start"),
        );
        assert_eq!(resp.status, Status::Found);
        assert_eq!(resp.location().unwrap().path(), "/end");
    }
}
