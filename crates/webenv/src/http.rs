//! HTTP-like request/response messages exchanged over the [`SimNet`].
//!
//! [`SimNet`]: crate::net::SimNet

use std::fmt;

use crate::fields::Fields;
use crate::url::Url;

/// An HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    /// Read a resource.
    Get,
    /// Create a resource or submit a form.
    Post,
    /// Replace a resource.
    Put,
    /// Remove a resource.
    Delete,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        };
        f.write_str(s)
    }
}

/// An HTTP response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200 — success.
    Ok,
    /// 201 — resource created.
    Created,
    /// 202 — accepted for asynchronous processing (pending consent, §V.D).
    Accepted,
    /// 204 — success, no body.
    NoContent,
    /// 302 — redirect to the `Location` header (drives the paper's
    /// browser-redirect protocol steps).
    Found,
    /// 400 — malformed request.
    BadRequest,
    /// 401 — authentication or authorization token required.
    Unauthorized,
    /// 402 — payment claim required (claims extension, §VII).
    PaymentRequired,
    /// 403 — access denied by policy.
    Forbidden,
    /// 404 — no such resource.
    NotFound,
    /// 409 — conflicting state.
    Conflict,
    /// 503 — the contacted application is unreachable.
    Unavailable,
}

impl Status {
    /// Returns the numeric status code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Created => 201,
            Status::Accepted => 202,
            Status::NoContent => 204,
            Status::Found => 302,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::PaymentRequired => 402,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::Conflict => 409,
            Status::Unavailable => 503,
        }
    }

    /// Parses a numeric status code back into the enum (inverse of
    /// [`Status::code`]); `None` for codes the protocol never uses.
    #[must_use]
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            200 => Status::Ok,
            201 => Status::Created,
            202 => Status::Accepted,
            204 => Status::NoContent,
            302 => Status::Found,
            400 => Status::BadRequest,
            401 => Status::Unauthorized,
            402 => Status::PaymentRequired,
            403 => Status::Forbidden,
            404 => Status::NotFound,
            409 => Status::Conflict,
            503 => Status::Unavailable,
            _ => return None,
        })
    }

    /// The canonical reason phrase for the HTTP/1.1 status line.
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Created => "Created",
            Status::Accepted => "Accepted",
            Status::NoContent => "No Content",
            Status::Found => "Found",
            Status::BadRequest => "Bad Request",
            Status::Unauthorized => "Unauthorized",
            Status::PaymentRequired => "Payment Required",
            Status::Forbidden => "Forbidden",
            Status::NotFound => "Not Found",
            Status::Conflict => "Conflict",
            Status::Unavailable => "Service Unavailable",
        }
    }

    /// Returns `true` for 2xx statuses.
    #[must_use]
    pub fn is_success(self) -> bool {
        matches!(
            self,
            Status::Ok | Status::Created | Status::Accepted | Status::NoContent
        )
    }

    /// Returns `true` for the redirect status.
    #[must_use]
    pub fn is_redirect(self) -> bool {
        self == Status::Found
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Transport-level failure classification attached by the network fabric.
///
/// Both kinds surface as `503 Unavailable` to keep the HTTP shape of the
/// simulation unchanged, but the retry layer (and tests) need to tell a
/// *partition* from a *slow or lossy path*: an unreachable authority is
/// detected immediately (connection refused), whereas a lost message
/// costs the caller a full attempt timeout before it can give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The authority is unknown or partitioned away — the failure is
    /// detected immediately, without waiting.
    Unreachable,
    /// The request (or its response) was lost in transit — the caller
    /// only learns of the failure by timing out.
    Timeout,
}

impl TransportError {
    /// The `x-error-kind` header value for this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TransportError::Unreachable => "unreachable",
            TransportError::Timeout => "timeout",
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP-like request.
///
/// Query parameters from the URL and form/body parameters are merged into a
/// single parameter view ([`Request::param`]), which is how the simulated
/// applications read protocol fields. The URL, the headers and the form
/// are one buffer each ([`Fields`]).
///
/// # Example
///
/// ```
/// use ucam_webenv::{Method, Request};
///
/// let req = Request::new(Method::Post, "https://am.example/token")
///     .with_param("realm", "photos")
///     .with_header("x-requester", "printer.example");
/// assert_eq!(req.param("realm"), Some("photos"));
/// assert_eq!(req.header("x-requester"), Some("printer.example"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The target URL.
    pub url: Url,
    /// Header fields (lower-case names).
    pub headers: Fields,
    /// Form parameters (merged with URL query by [`Request::param`]).
    pub form: Fields,
    /// Raw request body (JSON for REST endpoints).
    pub body: String,
}

impl Request {
    /// Creates a request for `url`.
    ///
    /// # Panics
    ///
    /// Panics if `url` does not parse; use [`Request::to_url`] with an
    /// already-parsed [`Url`] for dynamic input.
    #[must_use]
    pub fn new(method: Method, url: &str) -> Self {
        Request::to_url(method, url.parse().expect("static request URL must parse"))
    }

    /// Creates a request for an already-parsed URL.
    #[must_use]
    pub fn to_url(method: Method, url: Url) -> Self {
        Request {
            method,
            url,
            headers: Fields::new(),
            form: Fields::new(),
            body: String::new(),
        }
    }

    /// Returns the parameter `key`, checking form fields first, then the URL
    /// query string.
    #[must_use]
    pub fn param(&self, key: &str) -> Option<&str> {
        self.form.get(key).or_else(|| self.url.query(key))
    }

    /// Returns the parameters `keys`, each as [`Request::param`] reads
    /// it, or `None` when any of them is missing.
    ///
    /// # Example
    ///
    /// ```
    /// use ucam_webenv::{Method, Request};
    ///
    /// let req = Request::new(Method::Post, "https://am.example/t?owner=bob")
    ///     .with_param("realm", "r");
    /// assert_eq!(req.params(["realm", "owner"]), Some(["r", "bob"]));
    /// assert_eq!(req.params(["realm", "host"]), None);
    /// ```
    #[must_use]
    pub fn params<const N: usize>(&self, keys: [&str; N]) -> Option<[&str; N]> {
        let mut values = [""; N];
        for (value, key) in values.iter_mut().zip(keys) {
            *value = self.param(key)?;
        }
        Some(values)
    }

    /// Returns the header `key` (case-sensitive, use lower-case).
    #[must_use]
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.get(key)
    }

    /// Returns the bearer token from the `authorization` header, if present.
    ///
    /// # Example
    ///
    /// ```
    /// use ucam_webenv::{Method, Request};
    /// let req = Request::new(Method::Get, "https://h.example/r")
    ///     .with_header("authorization", "Bearer abc.def");
    /// assert_eq!(req.bearer_token(), Some("abc.def"));
    /// ```
    #[must_use]
    pub fn bearer_token(&self) -> Option<&str> {
        self.header("authorization")?.strip_prefix("Bearer ")
    }

    /// Adds a form parameter.
    #[must_use]
    pub fn with_param(mut self, key: &str, value: &str) -> Self {
        self.form.insert(key, value);
        self
    }

    /// Adds a header field.
    #[must_use]
    pub fn with_header(mut self, key: &str, value: &str) -> Self {
        self.headers.insert(key, value);
        self
    }

    /// Sets the authorization header to `Bearer <token>`, written straight
    /// into the header buffer.
    #[must_use]
    pub fn with_bearer(mut self, token: &str) -> Self {
        self.headers
            .insert_parts("authorization", &["Bearer ", token]);
        self
    }

    /// Sets the raw body.
    #[must_use]
    pub fn with_body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    /// Returns the session cookie attached to this request, if any.
    #[must_use]
    pub fn cookie(&self, name: &str) -> Option<&str> {
        let cookies = self.header("cookie")?;
        cookies.split("; ").find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// An HTTP-like response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The response status.
    pub status: Status,
    /// Header fields (lower-case names).
    pub headers: Fields,
    /// Response body (HTML placeholder text or JSON).
    pub body: String,
}

impl Response {
    /// Creates a response with the given status and empty body.
    #[must_use]
    pub fn with_status(status: Status) -> Self {
        Response {
            status,
            headers: Fields::new(),
            body: String::new(),
        }
    }

    /// Creates a `200 OK` response.
    #[must_use]
    pub fn ok() -> Self {
        Response::with_status(Status::Ok)
    }

    /// Creates a `302 Found` redirect to `location`, rendered once
    /// straight into the header buffer.
    #[must_use]
    pub fn redirect(location: &Url) -> Self {
        let mut resp = Response::with_status(Status::Found);
        resp.headers = Fields::with_capacity("location".len() + location.rendered_len());
        resp.headers.insert_with("location", |value| {
            let _ = location.write_to(value);
        });
        resp
    }

    /// Creates a `404 Not Found` response with a short explanation.
    #[must_use]
    pub fn not_found(what: &str) -> Self {
        Response::with_status(Status::NotFound).with_body(format!("not found: {what}"))
    }

    /// Creates a `400 Bad Request` response with a short explanation.
    #[must_use]
    pub fn bad_request(why: &str) -> Self {
        Response::with_status(Status::BadRequest).with_body(format!("bad request: {why}"))
    }

    /// Creates a `403 Forbidden` response.
    #[must_use]
    pub fn forbidden(why: &str) -> Self {
        Response::with_status(Status::Forbidden).with_body(format!("forbidden: {why}"))
    }

    /// Returns the header `key`.
    #[must_use]
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.get(key)
    }

    /// Returns the parsed redirect target, if this is a redirect.
    #[must_use]
    pub fn location(&self) -> Option<Url> {
        if !self.status.is_redirect() {
            return None;
        }
        self.header("location")?.parse().ok()
    }

    /// Adds a header field.
    #[must_use]
    pub fn with_header(mut self, key: &str, value: &str) -> Self {
        self.headers.insert(key, value);
        self
    }

    /// Sets the body.
    #[must_use]
    pub fn with_body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    /// Adds a `set-cookie` header establishing a session cookie.
    #[must_use]
    pub fn with_cookie(mut self, name: &str, value: &str) -> Self {
        self.headers.insert_parts("set-cookie", &[name, "=", value]);
        self
    }

    /// Attaches a transport-error classification (`x-error-kind` header).
    ///
    /// Set by the network fabric on synthesized `503` responses so callers
    /// can distinguish a partition from a lost message.
    #[must_use]
    pub fn with_transport_error(self, kind: TransportError) -> Self {
        self.with_header("x-error-kind", kind.as_str())
    }

    /// Returns the transport-error classification, if the fabric attached
    /// one. `None` means the response came from a real application — even
    /// an application-level `503` is **not** a transport error and must
    /// not be retried blindly.
    #[must_use]
    pub fn transport_error(&self) -> Option<TransportError> {
        match self.header("x-error-kind")? {
            "unreachable" => Some(TransportError::Unreachable),
            "timeout" => Some(TransportError::Timeout),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::Found.code(), 302);
        assert_eq!(Status::PaymentRequired.code(), 402);
        assert!(Status::Created.is_success());
        assert!(!Status::Forbidden.is_success());
        assert!(Status::Found.is_redirect());
    }

    #[test]
    fn status_from_code_roundtrips() {
        for status in [
            Status::Ok,
            Status::Created,
            Status::Accepted,
            Status::NoContent,
            Status::Found,
            Status::BadRequest,
            Status::Unauthorized,
            Status::PaymentRequired,
            Status::Forbidden,
            Status::NotFound,
            Status::Conflict,
            Status::Unavailable,
        ] {
            assert_eq!(Status::from_code(status.code()), Some(status));
            assert!(!status.reason().is_empty());
        }
        assert_eq!(Status::from_code(500), None);
        assert_eq!(Status::from_code(0), None);
    }

    #[test]
    fn param_prefers_form_over_query() {
        let req = Request::new(Method::Post, "https://h.example/p?k=query").with_param("k", "form");
        assert_eq!(req.param("k"), Some("form"));
    }

    #[test]
    fn param_falls_back_to_query() {
        let req = Request::new(Method::Get, "https://h.example/p?k=query");
        assert_eq!(req.param("k"), Some("query"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn bearer_token_parsing() {
        let req = Request::new(Method::Get, "https://h.example/r").with_bearer("tok123");
        assert_eq!(req.bearer_token(), Some("tok123"));
        let plain = Request::new(Method::Get, "https://h.example/r");
        assert_eq!(plain.bearer_token(), None);
        let wrong = Request::new(Method::Get, "https://h.example/r")
            .with_header("authorization", "Basic abc");
        assert_eq!(wrong.bearer_token(), None);
    }

    #[test]
    fn cookie_parsing() {
        let req = Request::new(Method::Get, "https://h.example/r")
            .with_header("cookie", "sid=abc; other=def");
        assert_eq!(req.cookie("sid"), Some("abc"));
        assert_eq!(req.cookie("other"), Some("def"));
        assert_eq!(req.cookie("none"), None);
    }

    #[test]
    fn redirect_location_roundtrip() {
        let target = Url::new("am.example", "/authorize").with_query("realm", "r1");
        let resp = Response::redirect(&target);
        assert_eq!(resp.location(), Some(target));
    }

    #[test]
    fn location_absent_for_non_redirect() {
        assert_eq!(Response::ok().location(), None);
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::Get.to_string(), "GET");
        assert_eq!(Method::Delete.to_string(), "DELETE");
    }

    #[test]
    fn transport_error_roundtrip() {
        let resp = Response::with_status(Status::Unavailable)
            .with_transport_error(TransportError::Unreachable);
        assert_eq!(resp.transport_error(), Some(TransportError::Unreachable));
        let timeout = Response::with_status(Status::Unavailable)
            .with_transport_error(TransportError::Timeout);
        assert_eq!(timeout.transport_error(), Some(TransportError::Timeout));
        // Application responses — even 503s — carry no transport classification.
        assert_eq!(
            Response::with_status(Status::Unavailable).transport_error(),
            None
        );
        assert_eq!(Response::ok().transport_error(), None);
    }

    #[test]
    fn helper_constructors() {
        assert_eq!(Response::not_found("x").status, Status::NotFound);
        assert_eq!(Response::bad_request("y").status, Status::BadRequest);
        assert_eq!(Response::forbidden("z").status, Status::Forbidden);
        assert!(Response::forbidden("z").body.contains('z'));
    }
}
