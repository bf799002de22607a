//! The canonical HTTP/1.1 codec shared by every transport backend.
//!
//! This module is the single source of truth for how a [`Request`] or
//! [`Response`] looks on the wire. [`HttpTransport`](crate::httpnet::HttpTransport)
//! uses the encoder/parser to move real bytes over loopback TCP;
//! [`SimNet`](crate::net::SimNet) uses the *arithmetic* twins
//! ([`request_wire_len`], [`response_wire_len`]) to account
//! `bytes_on_wire` for messages it never serializes. The two views are
//! pinned together by tests: for every message,
//! `encode(..).len() == wire_len(..)` exactly, which is what makes the
//! cross-backend `bytes_on_wire` work-count gate bit-exact.
//!
//! # Wire format (DESIGN.md §14)
//!
//! * origin-form request targets (`/path?query`, query percent-encoded
//!   by the shared [`Url`] escaper); no absolute-form, no `*`;
//! * `content-length` framing only — no chunked transfer encoding;
//! * single-valued lower-case headers, CRLF line endings, UTF-8 bodies
//!   (lossily decoded on receipt), messages capped at
//!   [`MAX_MESSAGE_BYTES`];
//! * form parameters ride in an `x-ucam-form` header (percent-encoded
//!   pairs) and the dispatching party's label in `x-ucam-from`, so the
//!   server can rebuild the exact [`Request`] the client dispatched.
//!
//! # Performance contract
//!
//! The encoders append into a caller-supplied buffer and perform no
//! allocation of their own; the head parser borrows slices out of the
//! caller's read buffer and allocates nothing. Owned [`Request`] /
//! [`Response`] values are only materialized by [`build_request`] /
//! [`build_response`], which fill each message part's one buffer (a
//! [`Fields`], a [`Url`]) straight from the borrowed head, sized once:
//! a decision query costs one allocation per part. The criterion bench
//! `http_codec` pins the ns/op, the zero-allocation property of the fast
//! path and the promotions' allocation budget.

use std::fmt;

use crate::fields::Fields;
use crate::http::{Method, Request, Response, Status};
use crate::url::{encoded_len, write_encoded, Url};

/// Upper bound on one HTTP message (start line + headers + body). The
/// protocol's largest real messages are epoch sieve pushes at a few
/// hundred kilobytes; 16 MiB leaves headroom while bounding a
/// misbehaving peer.
pub const MAX_MESSAGE_BYTES: usize = 16 * 1024 * 1024;

/// Most header lines one message head may carry. The protocol itself
/// uses a handful; 64 bounds a misbehaving peer while keeping the
/// borrowed head table stack-friendly.
pub const MAX_HEADERS: usize = 64;

/// Headers the codec itself owns; they carry envelope data and are
/// stripped when the wire message is rebuilt into a [`Request`].
pub const RESERVED_REQUEST_HEADERS: [&str; 5] = [
    "host",
    "x-ucam-from",
    "x-ucam-form",
    "content-length",
    "connection",
];

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn method_str(method: Method) -> &'static str {
    match method {
        Method::Get => "GET",
        Method::Post => "POST",
        Method::Put => "PUT",
        Method::Delete => "DELETE",
    }
}

/// Appends `s` with any CR/LF replaced by a space (1:1, so sanitizing
/// never changes a message's length — the arithmetic twins rely on it).
fn push_sanitized(out: &mut Vec<u8>, s: &str) {
    if s.as_bytes().iter().any(|&b| b == b'\r' || b == b'\n') {
        for b in s.bytes() {
            out.push(if b == b'\r' || b == b'\n' { b' ' } else { b });
        }
    } else {
        out.extend_from_slice(s.as_bytes());
    }
}

fn push_header(out: &mut Vec<u8>, name: &str, value: &str) {
    push_sanitized(out, name);
    out.extend_from_slice(b": ");
    push_sanitized(out, value);
    out.extend_from_slice(b"\r\n");
}

/// `name: value\r\n`
fn header_line_len(name: &str, value: &str) -> usize {
    name.len() + 2 + value.len() + 2
}

/// Appends `n` in decimal without allocating.
fn push_decimal(out: &mut Vec<u8>, n: usize) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    let mut n = n;
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[i..]);
}

/// Number of decimal digits `n` formats to.
fn decimal_len(n: usize) -> usize {
    let mut digits = 1;
    let mut n = n / 10;
    while n > 0 {
        digits += 1;
        n /= 10;
    }
    digits
}

/// The wire buffer as a sink for the shared [`Url`] escaper.
struct Wire<'a>(&'a mut Vec<u8>);

impl fmt::Write for Wire<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Appends `s` percent-encoded by the shared [`Url`] escaper (unreserved
/// bytes pass, everything else becomes `%XX`); its length is
/// `encoded_len(s)`.
fn push_encoded(out: &mut Vec<u8>, s: &str) {
    let _ = write_encoded(&mut Wire(out), s);
}

/// Serializes a [`Request`] into one HTTP/1.1 message, appended to a
/// cleared `out`. Form pairs ride in `x-ucam-form` (percent-encoded),
/// the dispatcher's label in `x-ucam-from`; `content-length` is always
/// the final header. The target authority is the request URL's.
pub fn encode_request_into(out: &mut Vec<u8>, from: &str, req: &Request) {
    out.clear();
    out.extend_from_slice(method_str(req.method).as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.url.path().as_bytes());
    let mut sep = b'?';
    for (k, v) in req.url.query_pairs() {
        out.push(sep);
        push_encoded(out, k);
        out.push(b'=');
        push_encoded(out, v);
        sep = b'&';
    }
    out.extend_from_slice(b" HTTP/1.1\r\n");
    push_header(out, "host", req.url.authority());
    push_header(out, "x-ucam-from", from);
    if !req.form.is_empty() {
        out.extend_from_slice(b"x-ucam-form: ");
        let mut first = true;
        for (k, v) in req.form.iter() {
            if !first {
                out.push(b'&');
            }
            first = false;
            push_encoded(out, k);
            out.push(b'=');
            push_encoded(out, v);
        }
        out.extend_from_slice(b"\r\n");
    }
    for (name, value) in req.headers.iter() {
        push_header(out, name, value);
    }
    out.extend_from_slice(b"content-length: ");
    push_decimal(out, req.body.len());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(req.body.as_bytes());
}

/// Exact number of bytes [`encode_request_into`] produces for this
/// request, computed without serializing anything. This is how `SimNet`
/// accounts `bytes_on_wire` for messages that never touch a socket.
#[must_use]
pub fn request_wire_len(from: &str, req: &Request) -> usize {
    let mut n = method_str(req.method).len() + 1 + req.url.path().len() + req.url.query_len();
    n += " HTTP/1.1\r\n".len();
    n += header_line_len("host", req.url.authority());
    n += header_line_len("x-ucam-from", from);
    if !req.form.is_empty() {
        // Prefix, CRLF, the '&'s and '='s, every name and value encoded.
        n += "x-ucam-form: ".len() + 2 + 2 * req.form.len() - 1 + encoded_len(req.form.text());
    }
    n += headers_len(&req.headers);
    n += "content-length: ".len() + decimal_len(req.body.len()) + 4; // CRLF CRLF
    n + req.body.len()
}

/// The length of `headers`' lines: `name: value\r\n` each.
fn headers_len(headers: &Fields) -> usize {
    headers.text().len() + 4 * headers.len()
}

/// Serializes a [`Response`]'s status line and headers (everything up to
/// and including the blank separator line) into a cleared `out`. The
/// body is *not* appended — the server flushes `[head, body]` with one
/// vectored write.
pub fn encode_response_head_into(out: &mut Vec<u8>, resp: &Response) {
    out.clear();
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, usize::from(resp.status.code()));
    out.push(b' ');
    out.extend_from_slice(resp.status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in resp.headers.iter() {
        push_header(out, name, value);
    }
    out.extend_from_slice(b"content-length: ");
    push_decimal(out, resp.body.len());
    out.extend_from_slice(b"\r\n\r\n");
}

/// Serializes a complete [`Response`] (head + body) into a cleared
/// `out`. Tests and benches use this; the server write path prefers
/// [`encode_response_head_into`] plus a vectored write.
pub fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    encode_response_head_into(out, resp);
    out.extend_from_slice(resp.body.as_bytes());
}

/// Exact number of bytes the encoded response occupies on the wire
/// (head + body), computed without serializing anything.
#[must_use]
pub fn response_wire_len(resp: &Response) -> usize {
    let mut n = "HTTP/1.1 ".len()
        + decimal_len(usize::from(resp.status.code()))
        + 1
        + resp.status.reason().len()
        + 2;
    n += headers_len(&resp.headers);
    n += "content-length: ".len() + decimal_len(resp.body.len()) + 4;
    n + resp.body.len()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Index just past the `\r\n\r\n` head terminator, if `buf` holds a
/// complete message head. Scanning restarts from `from` (callers pass
/// `previous_len.saturating_sub(3)` so incremental reads re-scan at most
/// three carried-over bytes).
#[must_use]
pub fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| start + i + 4)
}

/// A parsed message head borrowing straight out of the read buffer:
/// the start line plus up to [`MAX_HEADERS`] name/value slices. No
/// allocation happens until the head is promoted to an owned
/// [`Request`] or [`Response`].
#[derive(Debug)]
pub struct Head<'a> {
    start_line: &'a str,
    headers: [(&'a str, &'a str); MAX_HEADERS],
    len: usize,
}

impl<'a> Head<'a> {
    /// The request or status line (without its CRLF).
    #[must_use]
    pub fn start_line(&self) -> &'a str {
        self.start_line
    }

    /// The header lines, in wire order.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.headers[..self.len].iter().copied()
    }

    /// Looks up a header by name (ASCII case-insensitive). When a peer
    /// repeats a header the *last* occurrence wins, matching how the
    /// owned header map (a `BTreeMap` filled in wire order) behaves.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .last()
            .map(|(_, v)| v)
    }

    /// The declared `content-length` (0 when absent), rejecting
    /// unparseable values and bodies beyond [`MAX_MESSAGE_BYTES`].
    pub fn content_length(&self) -> Result<usize, &'static str> {
        let len = match self.header("content-length") {
            None => 0,
            Some(v) => v.parse().map_err(|_| "bad content-length")?,
        };
        if len > MAX_MESSAGE_BYTES {
            return Err("body too large");
        }
        Ok(len)
    }
}

/// Parses a complete message head (`head` must end with `\r\n\r\n`, as
/// delimited by [`find_head_end`]) into borrowed slices. Fails closed on
/// non-UTF-8 heads, missing colons, or more than [`MAX_HEADERS`] lines.
pub fn parse_head(head: &[u8]) -> Result<Head<'_>, &'static str> {
    let text = head
        .strip_suffix(b"\r\n\r\n")
        .ok_or("unterminated head")
        .and_then(|t| std::str::from_utf8(t).map_err(|_| "head not utf-8"))?;
    let mut lines = text.split("\r\n");
    let start_line = lines.next().ok_or("empty head")?;
    let mut headers = [("", ""); MAX_HEADERS];
    let mut len = 0;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or("bad header")?;
        if len >= MAX_HEADERS {
            return Err("too many headers");
        }
        headers[len] = (name.trim(), value.trim());
        len += 1;
    }
    Ok(Head {
        start_line,
        headers,
        len,
    })
}

/// Rebuilds the dispatched `(from, Request)` from a parsed head and its
/// body bytes — the inverse of [`encode_request_into`]. Envelope headers
/// ([`RESERVED_REQUEST_HEADERS`]) are consumed, everything else lands in
/// the request's headers under its lower-cased name; of repeated
/// headers, form pairs or query pairs the last one wins.
pub fn build_request(head: &Head<'_>, body: &[u8]) -> Result<(String, Request), &'static str> {
    let mut parts = head.start_line().split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some("PUT") => Method::Put,
        Some("DELETE") => Method::Delete,
        _ => return Err("unsupported method"),
    };
    let target = parts.next().ok_or("missing target")?;
    if parts.next() != Some("HTTP/1.1") {
        return Err("not HTTP/1.1");
    }
    let host = head.header("host").ok_or("missing host header")?;
    let from = head.header("x-ucam-from").unwrap_or("unknown").to_owned();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !path.starts_with('/') {
        return Err("target not origin-form");
    }
    let mut req = Request::to_url(method, Url::from_target(host, path, query))
        .with_body(String::from_utf8_lossy(body));
    if let Some(form) = head.header("x-ucam-form") {
        // Decoding never lengthens text: the encoded form is room enough.
        req.form = Fields::with_capacity(form.len());
        req.form.extend_decoded(form);
    }
    let reserved = |name: &str| {
        RESERVED_REQUEST_HEADERS
            .iter()
            .any(|r| name.eq_ignore_ascii_case(r))
    };
    req.headers = collect_headers(head, reserved);
    Ok((from, req))
}

/// Rebuilds a [`Response`] from a parsed head and its body bytes — the
/// inverse of [`encode_response_into`]. The framing headers
/// (`content-length`, `connection`) are consumed.
pub fn build_response(head: &Head<'_>, body: &[u8]) -> Result<Response, &'static str> {
    let mut parts = head.start_line().split_whitespace();
    if parts.next() != Some("HTTP/1.1") {
        return Err("bad status line");
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or("bad status code")?;
    let status = Status::from_code(code).ok_or("unknown status code")?;

    let mut resp = Response::with_status(status).with_body(String::from_utf8_lossy(body));
    resp.headers = collect_headers(head, |name| {
        name.eq_ignore_ascii_case("content-length") || name.eq_ignore_ascii_case("connection")
    });
    Ok(resp)
}

/// The head's headers but the `skipped` ones, under lower-cased names, in
/// one buffer sized once; a repeated header keeps its last value.
fn collect_headers(head: &Head<'_>, skipped: impl Fn(&str) -> bool) -> Fields {
    let kept = || head.headers().filter(|(name, _)| !skipped(name));
    let mut fields = Fields::with_capacity(kept().map(|(n, v)| n.len() + v.len()).sum());
    fields.extend_with(kept(), |buf, (name, value)| {
        let start = buf.len();
        buf.push_str(name);
        buf[start..].make_ascii_lowercase();
        buf.push_str(value);
        name.len()
    });
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request() -> Request {
        Request::new(Method::Post, "https://h.example/r/pics?p=a%20b&q=2")
            .with_param("scope", "read write")
            .with_param("realm", "photos")
            .with_header("authorization", "Bearer tok.abc")
            .with_header("x-echo", "marco")
            .with_body("{\"k\":1}")
    }

    #[test]
    fn request_encoding_is_byte_stable() {
        let mut out = Vec::new();
        encode_request_into(&mut out, "tester", &sample_request());
        let wire = String::from_utf8(out).unwrap();
        assert_eq!(
            wire,
            "POST /r/pics?p=a%20b&q=2 HTTP/1.1\r\n\
             host: h.example\r\n\
             x-ucam-from: tester\r\n\
             x-ucam-form: realm=photos&scope=read%20write\r\n\
             authorization: Bearer tok.abc\r\n\
             x-echo: marco\r\n\
             content-length: 7\r\n\
             \r\n\
             {\"k\":1}"
        );
    }

    #[test]
    fn response_encoding_is_byte_stable() {
        let resp = Response::ok()
            .with_header("x-token", "abc")
            .with_body("granted");
        let mut out = Vec::new();
        encode_response_into(&mut out, &resp);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nx-token: abc\r\ncontent-length: 7\r\n\r\ngranted"
        );
    }

    #[test]
    fn request_roundtrips_through_parse() {
        let req = sample_request();
        let mut out = Vec::new();
        encode_request_into(&mut out, "tester", &req);
        let head_end = find_head_end(&out, 0).unwrap();
        let head = parse_head(&out[..head_end]).unwrap();
        let body_len = head.content_length().unwrap();
        assert_eq!(out.len(), head_end + body_len);
        let (from, back) = build_request(&head, &out[head_end..]).unwrap();
        assert_eq!(from, "tester");
        assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrips_through_parse() {
        let resp = Response::redirect(&Url::new("am.example", "/authorize").with_query("r", "1"))
            .with_body("see other");
        let mut out = Vec::new();
        encode_response_into(&mut out, &resp);
        let head_end = find_head_end(&out, 0).unwrap();
        let head = parse_head(&out[..head_end]).unwrap();
        let back = build_response(&head, &out[head_end..]).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn sanitized_headers_keep_length() {
        let req =
            Request::new(Method::Get, "https://h.example/r").with_header("x-note", "line\r\nbreak");
        let mut out = Vec::new();
        encode_request_into(&mut out, "t", &req);
        assert_eq!(out.len(), request_wire_len("t", &req));
        assert!(find_head_end(&out, 0).is_some());
    }

    #[test]
    fn find_head_end_is_incremental() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n";
        for split in 0..wire.len() {
            let partial = &wire[..split];
            assert_eq!(find_head_end(partial, 0), None, "split at {split}");
        }
        // Resuming from (len - 3) after each extension still finds it.
        let mut from = 0;
        let mut buf = Vec::new();
        let mut found = None;
        for &b in wire.iter() {
            buf.push(b);
            found = find_head_end(&buf, from);
            if found.is_some() {
                break;
            }
            from = buf.len().saturating_sub(3);
        }
        assert_eq!(found, Some(wire.len()));
    }

    #[test]
    fn malformed_heads_fail_closed() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"BREW /pot HTTP/1.1\r\nhost: h\r\n\r\n",
                "unsupported method",
            ),
            (b"GET /p HTTP/1.0\r\nhost: h\r\n\r\n", "not HTTP/1.1"),
            (b"GET HTTP/1.1\r\nhost: h\r\n\r\n", "not HTTP/1.1"),
            (b"GET /p HTTP/1.1\r\n\r\n", "missing host header"),
            (
                b"GET p HTTP/1.1\r\nhost: h\r\n\r\n",
                "target not origin-form",
            ),
        ];
        for (wire, want) in cases {
            let head_end = find_head_end(wire, 0).unwrap();
            let head = parse_head(&wire[..head_end]).unwrap();
            let err = build_request(&head, b"").unwrap_err();
            assert_eq!(&err, want);
        }
        assert_eq!(
            parse_head(b"GET / HTTP/1.1\r\nno-colon-line\r\n\r\n").unwrap_err(),
            "bad header"
        );
        assert_eq!(
            parse_head(b"GET / HTTP/1.1\xff\r\n\r\n").unwrap_err(),
            "head not utf-8"
        );
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse_head(&many).unwrap_err(), "too many headers");
    }

    #[test]
    fn content_length_bounds() {
        let head_of = |s: &'static str| {
            let wire = format!("GET / HTTP/1.1\r\ncontent-length: {s}\r\n\r\n");
            let owned = wire.into_bytes();
            parse_head(Box::leak(owned.into_boxed_slice())).unwrap()
        };
        assert_eq!(head_of("12").content_length(), Ok(12));
        assert_eq!(head_of("nope").content_length(), Err("bad content-length"));
        assert_eq!(
            head_of("999999999999").content_length(),
            Err("body too large")
        );
    }

    /// Any text: every ASCII byte (controls, `%`, `&`, `=`, CR and LF
    /// among them), Latin-1, and two- to four-byte characters.
    const ANY_TEXT: &str = "[\\u{0}-\\u{ff}\\u{20ac}\\u{1F600}]{0,24}";

    /// A header the codec carries as is: a lower-case name outside the
    /// envelope's, and a value with no CR or LF and no whitespace at
    /// either end (the parser trims it).
    struct AnyHeader;

    impl Strategy for AnyHeader {
        type Value = (String, String);

        fn sample(&self, rng: &mut proptest::TestRng) -> (String, String) {
            let name = "[a-z][a-z0-9-]{0,10}".sample(rng);
            let name = if RESERVED_REQUEST_HEADERS.contains(&name.as_str()) {
                format!("x-{name}")
            } else {
                name
            };
            let value = match (0u8..4).sample(rng) {
                0 => String::new(),
                _ => [
                    "[!-~\\u{e9}\\u{20ac}]".sample(rng),
                    "[ -~\\u{e9}\\u{20ac}\\u{1F600}]{0,20}".sample(rng),
                    "[!-~\\u{1F600}]".sample(rng),
                ]
                .concat(),
            };
            (name, value)
        }
    }

    /// Any request the codec carries: any method, an origin-form path
    /// without `?` or whitespace, and any query, form, headers and body.
    struct AnyRequest;

    impl Strategy for AnyRequest {
        type Value = Request;

        fn sample(&self, rng: &mut proptest::TestRng) -> Request {
            let method =
                [Method::Get, Method::Post, Method::Put, Method::Delete][(0usize..4).sample(rng)];
            let path = format!(
                "/{}",
                "[a-zA-Z0-9/._~%!$'()*+,;:@#=&\\u{e9}-]{0,16}".sample(rng)
            );
            let mut url = Url::new("[a-z.-]{1,12}".sample(rng).as_str(), &path);
            for (k, v) in proptest::collection::vec((ANY_TEXT, ANY_TEXT), 0..4).sample(rng) {
                url = url.with_query(&k, &v);
            }
            let mut req = Request::to_url(method, url).with_body(ANY_TEXT.sample(rng));
            for (k, v) in proptest::collection::vec((ANY_TEXT, ANY_TEXT), 0..4).sample(rng) {
                req = req.with_param(&k, &v);
            }
            for (name, value) in proptest::collection::vec(AnyHeader, 0..4).sample(rng) {
                req = req.with_header(&name, &value);
            }
            req
        }
    }

    proptest! {
        #[test]
        fn any_request_survives_the_wire(req in AnyRequest, from in "[a-z.:-]{1,16}") {
            let mut out = Vec::new();
            encode_request_into(&mut out, &from, &req);
            prop_assert_eq!(out.len(), request_wire_len(&from, &req));
            let head_end = find_head_end(&out, 0).unwrap();
            let head = parse_head(&out[..head_end]).unwrap();
            prop_assert_eq!(head.content_length().unwrap(), out.len() - head_end);
            let (got_from, back) = build_request(&head, &out[head_end..]).unwrap();
            prop_assert_eq!(got_from, from);
            prop_assert_eq!(back, req);
        }

        #[test]
        fn any_response_survives_the_wire(
            code_ix in 0usize..12,
            headers in proptest::collection::vec(AnyHeader, 0..4),
            body in ANY_TEXT,
        ) {
            let codes = [200u16, 201, 202, 204, 302, 400, 401, 402, 403, 404, 409, 503];
            let mut resp = Response::with_status(Status::from_code(codes[code_ix]).unwrap())
                .with_body(body);
            for (name, value) in headers.iter().filter(|(n, _)| n != "connection" && n != "content-length") {
                resp = resp.with_header(name, value);
            }
            let mut out = Vec::new();
            encode_response_into(&mut out, &resp);
            prop_assert_eq!(out.len(), response_wire_len(&resp));
            let head_end = find_head_end(&out, 0).unwrap();
            let head = parse_head(&out[..head_end]).unwrap();
            let back = build_response(&head, &out[head_end..]).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn encoded_request_len_matches_arithmetic_twin(
            path_seg in "[a-z0-9]{0,12}",
            qk in "[a-zA-Z0-9 &=%/_.:-]{0,10}",
            qv in "[a-zA-Z0-9 &=%/_.:-]{0,16}",
            fk in "[a-zA-Z0-9 &=%/_.:-]{0,10}",
            fv in "[a-zA-Z0-9 &=%/_.:-]{0,16}",
            // No edge whitespace: header values are trimmed on parse.
            hv in "([!-~]([ -~]{0,22}[!-~])?)?",
            body in "[a-zA-Z0-9{}\", :\\n]{0,64}",
            from in "[a-z.]{1,16}",
        ) {
            let mut url = Url::new("h.example", &format!("/{path_seg}"));
            if !qk.is_empty() { url = url.with_query(&qk, &qv); }
            let mut req = Request::to_url(Method::Post, url).with_body(body);
            if !fk.is_empty() { req = req.with_param(&fk, &fv); }
            req = req.with_header("x-app", &hv);

            let mut out = Vec::new();
            encode_request_into(&mut out, &from, &req);
            prop_assert_eq!(out.len(), request_wire_len(&from, &req));

            let head_end = find_head_end(&out, 0).unwrap();
            let head = parse_head(&out[..head_end]).unwrap();
            prop_assert_eq!(head.content_length().unwrap(), out.len() - head_end);
            let (got_from, back) = build_request(&head, &out[head_end..]).unwrap();
            prop_assert_eq!(got_from, from);
            prop_assert_eq!(back, req);
        }

        #[test]
        fn encoded_response_len_matches_arithmetic_twin(
            code_ix in 0usize..12,
            // No edge whitespace: header values are trimmed on parse.
            hv in "([!-~]([ -~]{0,22}[!-~])?)?",
            body in "[a-zA-Z0-9{}\", :\\n]{0,64}",
        ) {
            let codes = [200u16, 201, 202, 204, 302, 400, 401, 402, 403, 404, 409, 503];
            let status = Status::from_code(codes[code_ix]).unwrap();
            let mut resp = Response::with_status(status).with_body(body);
            resp = resp.with_header("x-app", &hv);

            let mut out = Vec::new();
            encode_response_into(&mut out, &resp);
            prop_assert_eq!(out.len(), response_wire_len(&resp));

            let head_end = find_head_end(&out, 0).unwrap();
            let head = parse_head(&out[..head_end]).unwrap();
            let back = build_response(&head, &out[head_end..]).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn parser_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Some(head_end) = find_head_end(&noise, 0) {
                if let Ok(head) = parse_head(&noise[..head_end]) {
                    let _ = head.content_length();
                    let _ = build_request(&head, &noise[head_end..]);
                    let _ = build_response(&head, &noise[head_end..]);
                }
            }
        }
    }
}
