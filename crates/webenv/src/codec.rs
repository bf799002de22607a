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
/// uses a handful; 64 bounds a misbehaving peer.
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
/// The appended bytes are tested for CR/LF eight at a time and rewritten
/// in place only when they hold one.
fn push_sanitized(out: &mut Vec<u8>, s: &str) {
    let start = out.len();
    out.extend_from_slice(s.as_bytes());
    if has_cr_or_lf(&out[start..]) {
        for b in &mut out[start..] {
            if *b == b'\r' || *b == b'\n' {
                *b = b' ';
            }
        }
    }
}

/// Whether `bytes` hold a CR or an LF, tested a word at a time.
fn has_cr_or_lf(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    let hits = (&mut words).fold(0, |hits, chunk| {
        let w = word(chunk);
        hits | zero_bytes(w ^ splat(b'\r')) | zero_bytes(w ^ splat(b'\n'))
    });
    hits != 0 || words.remainder().iter().any(|&b| b == b'\r' || b == b'\n')
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
    append_request(out, from, req);
}

/// Appends `req` as [`encode_request_into`] serializes it after whatever
/// `out` already holds, so a pipelined group encodes each request
/// straight into its batch.
pub(crate) fn append_request(out: &mut Vec<u8>, from: &str, req: &Request) {
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

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// The low seven bits of every byte of a word.
const LOW7: u64 = splat(0x7f);

/// A word with the high bit set in exactly the bytes of `w` that are 0,
/// and no other bit set: no carry crosses a byte, so unlike the borrow
/// trick every set bit marks a real match.
const fn zero_bytes(w: u64) -> u64 {
    !(((w & LOW7) + LOW7) | w | LOW7)
}

/// An 8-byte chunk as a word, its first byte lowest, so the first match
/// in it is the lowest set bit.
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"))
}

/// Index of the first `\n` in `buf` at or after `from`, found eight
/// bytes at a time.
fn find_lf(buf: &[u8], from: usize) -> Option<usize> {
    let mut words = buf.get(from..)?.chunks_exact(8);
    let mut at = from;
    for chunk in &mut words {
        let hits = zero_bytes(word(chunk) ^ splat(b'\n'));
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| at + i)
}

/// Index of the CRLF that ends the line starting at `from`, if any. Only
/// a CR directly before an LF ends a line: a lone CR or LF stays inside
/// it.
fn line_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    loop {
        let lf = find_lf(buf, at)?;
        if lf > from && buf[lf - 1] == b'\r' {
            return Some(lf - 1);
        }
        at = lf + 1;
    }
}

/// Index just past the `\r\n\r\n` head terminator, if `buf` holds a
/// complete message head: the first terminator that starts at or after
/// `from` (callers pass `previous_len.saturating_sub(3)` so incremental
/// reads re-scan at most three carried-over bytes). It looks only at
/// line feeds, found a word at a time: a terminator is an LF with
/// `\r\n\r` before it.
#[must_use]
pub fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    // The terminator's last byte is an LF three or more past `from`.
    let mut at = from.min(buf.len()) + 3;
    while let Some(lf) = find_lf(buf, at) {
        if buf[lf - 3..lf] == *b"\r\n\r" {
            return Some(lf + 1);
        }
        at = lf + 1;
    }
    None
}

/// The header lines of a head, each without its CRLF, in wire order.
struct Lines<'a> {
    /// Lines that each end in CRLF.
    text: &'a str,
    /// Where the next line starts.
    at: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = line_end(self.text.as_bytes(), self.at)?;
        let line = &self.text[self.at..end];
        self.at = end + 2;
        Some(line)
    }
}

// A header's class is its name's index in `RESERVED_REQUEST_HEADERS`,
// or `OTHER` for every name outside that list.
const HOST: usize = 0;
const FROM: usize = 1;
const FORM: usize = 2;
const CONTENT_LENGTH: usize = 3;
const CONNECTION: usize = 4;
const OTHER: usize = RESERVED_REQUEST_HEADERS.len();

/// The class of a header name: its index in
/// [`RESERVED_REQUEST_HEADERS`] (ASCII case-insensitive), else `OTHER`.
fn class_of(name: &str) -> usize {
    RESERVED_REQUEST_HEADERS
        .iter()
        .position(|reserved| name.eq_ignore_ascii_case(reserved))
        .unwrap_or(OTHER)
}

/// A header line split at its first `:`, name and value trimmed.
fn split_header(line: &str) -> (&str, &str) {
    let (name, value) = line.split_once(':').unwrap_or((line, ""));
    (name.trim(), value.trim())
}

/// A parsed message head borrowing straight out of the read buffer: the
/// start line, the header lines (at most [`MAX_HEADERS`]) and what the
/// one parsing pass learned of them — the last value of each envelope
/// header, and how many lines and name and value bytes each header class
/// holds. No allocation happens until the head is promoted to an owned
/// [`Request`] or [`Response`].
#[derive(Debug)]
pub struct Head<'a> {
    start_line: &'a str,
    /// The header lines, each still ending in CRLF.
    lines: &'a str,
    /// The last value of each envelope header, by class.
    envelope: [Option<&'a str>; OTHER],
    /// Per class: header lines, and their names' and values' bytes.
    sizes: [(usize, usize); OTHER + 1],
}

impl<'a> Head<'a> {
    /// The request or status line (without its CRLF).
    #[must_use]
    pub fn start_line(&self) -> &'a str {
        self.start_line
    }

    /// The header lines, in wire order.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        let lines = Lines {
            text: self.lines,
            at: 0,
        };
        lines.map(split_header)
    }

    /// Looks up a header by name (ASCII case-insensitive). When a peer
    /// repeats a header the *last* occurrence wins, matching how the
    /// owned header map (a `BTreeMap` filled in wire order) behaves. An
    /// envelope header is answered from what parsing recorded.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&'a str> {
        match class_of(name) {
            OTHER => self
                .headers()
                .filter(|(n, _)| n.eq_ignore_ascii_case(name))
                .last()
                .map(|(_, v)| v),
            class => self.envelope[class],
        }
    }

    /// The declared `content-length` (0 when absent), rejecting
    /// unparseable values and bodies beyond [`MAX_MESSAGE_BYTES`].
    pub fn content_length(&self) -> Result<usize, &'static str> {
        let len = match self.envelope[CONTENT_LENGTH] {
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
/// delimited by [`find_head_end`]) into borrowed slices, in one pass over
/// its lines. Lines end only at CRLF; names and values are trimmed. Fails
/// closed on non-UTF-8 heads, a header line without a colon, or more than
/// [`MAX_HEADERS`] header lines.
pub fn parse_head(head: &[u8]) -> Result<Head<'_>, &'static str> {
    if !head.ends_with(b"\r\n\r\n") {
        return Err("unterminated head");
    }
    // Keep one CRLF of the terminator, so every line ends in one.
    let text = std::str::from_utf8(&head[..head.len() - 2]).map_err(|_| "head not utf-8")?;
    let start_end = line_end(text.as_bytes(), 0).ok_or("empty head")?;
    let mut parsed = Head {
        start_line: &text[..start_end],
        lines: &text[start_end + 2..],
        envelope: [None; OTHER],
        sizes: [(0, 0); OTHER + 1],
    };
    let lines = Lines {
        text: parsed.lines,
        at: 0,
    };
    for (count, line) in lines.enumerate() {
        let Some((name, value)) = line.split_once(':') else {
            return Err("bad header");
        };
        if count == MAX_HEADERS {
            return Err("too many headers");
        }
        let (name, value) = (name.trim(), value.trim());
        let class = class_of(name);
        if class < OTHER {
            parsed.envelope[class] = Some(value);
        }
        let size = &mut parsed.sizes[class];
        *size = (size.0 + 1, size.1 + name.len() + value.len());
    }
    Ok(parsed)
}

/// Rebuilds the dispatched `(from, Request)` from a parsed head and its
/// body bytes — the inverse of [`encode_request_into`]. Envelope headers
/// ([`RESERVED_REQUEST_HEADERS`]) are consumed, everything else lands in
/// the request's headers under its lower-cased name; of repeated
/// headers, form pairs or query pairs the last one wins. The dispatcher's
/// label is borrowed from the head.
pub fn build_request<'a>(head: &Head<'a>, body: &[u8]) -> Result<(&'a str, Request), &'static str> {
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
    let host = head.envelope[HOST].ok_or("missing host header")?;
    let from = head.envelope[FROM].unwrap_or("unknown");

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !path.starts_with('/') {
        return Err("target not origin-form");
    }
    let mut req = Request::to_url(method, Url::from_target(host, path, query))
        .with_body(String::from_utf8_lossy(body));
    if let Some(form) = head.envelope[FORM] {
        // Decoding never lengthens text: the encoded form is room enough.
        req.form = Fields::with_capacity(form.len());
        req.form.extend_decoded(form);
    }
    req.headers = collect_headers(head, |class| class == OTHER);
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
    resp.headers = collect_headers(head, |class| class != CONTENT_LENGTH && class != CONNECTION);
    Ok(resp)
}

/// The head's headers of the `kept` classes, under lower-cased names, in
/// one buffer sized once from what parsing counted; a repeated header
/// keeps its last value. A head with no such line is not walked again.
fn collect_headers(head: &Head<'_>, kept: impl Fn(usize) -> bool) -> Fields {
    let sizes = (0..=OTHER)
        .filter(|&class| kept(class))
        .map(|c| head.sizes[c]);
    let (lines, bytes) = sizes.fold((0, 0), |(l, b), (lines, bytes)| (l + lines, b + bytes));
    if lines == 0 {
        return Fields::new();
    }
    let mut fields = Fields::with_capacity(bytes);
    let lines = head.headers().filter(|(name, _)| kept(class_of(name)));
    fields.extend_with(lines, |buf, (name, value)| {
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
    fn header_classes_follow_the_reserved_list() {
        for (class, name) in [HOST, FROM, FORM, CONTENT_LENGTH, CONNECTION]
            .into_iter()
            .zip(RESERVED_REQUEST_HEADERS)
        {
            assert_eq!(class_of(name), class);
            assert_eq!(class_of(&name.to_ascii_uppercase()), class);
        }
        assert_eq!(class_of("authorization"), OTHER);
    }

    #[test]
    fn find_head_end_needs_a_full_crlf_pair() {
        // A bare LF before a CRLF is no terminator, wherever it sits
        // against the scanner's 8-byte words.
        for pad in 0..17 {
            let mut wire = vec![b'a'; pad];
            wire.extend_from_slice(b"GET / HTTP/1.1\n\r\nhost: h\r\r\n\nx: y\r\n\r\n");
            assert_eq!(find_head_end(&wire, 0), Some(wire.len()), "pad {pad}");
            assert_eq!(reference::find_head_end(&wire, 0), Some(wire.len()));
        }
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
        fn find_head_end_matches_the_reference(noise in HeadNoise) {
            // Every prefix, so terminators meet the end of the buffer at
            // every word offset, and every `from`, one past the end too.
            for cut in 0..=noise.len() {
                let buf = &noise[..cut];
                for from in 0..=cut + 1 {
                    prop_assert_eq!(
                        find_head_end(buf, from),
                        reference::find_head_end(buf, from),
                        "{:?} from {}", String::from_utf8_lossy(buf), from
                    );
                }
            }
        }

        #[test]
        fn parse_head_matches_the_reference(lines in HeadLines) {
            let mut any_start = lines.concat();
            any_start.extend_from_slice(b"\r\n\r\n");
            let mut request = b"GET /p HTTP/1.1\r\n".to_vec();
            for line in &lines {
                request.extend_from_slice(line);
                request.extend_from_slice(b"\r\n");
            }
            request.extend_from_slice(b"\r\n");
            for head in [&any_start, &request, &lines.concat()] {
                let got = parse_head(head);
                let want = reference::parse_head(head);
                match (&got, &want) {
                    (Ok(got), Ok((start_line, headers))) => {
                        prop_assert_eq!(got.start_line(), *start_line);
                        prop_assert_eq!(&got.headers().collect::<Vec<_>>(), headers);
                        for name in LOOKUPS {
                            prop_assert_eq!(got.header(name), reference::header(headers, name), "{}", name);
                        }
                        prop_assert_eq!(got.content_length(), reference::content_length(headers));
                        let kept = |skip: &[&str]| reference::kept(headers, skip);
                        if let Ok((from, req)) = build_request(got, b"") {
                            prop_assert_eq!(Some(from), reference::header(headers, "x-ucam-from").or(Some("unknown")));
                            prop_assert_eq!(req.headers.iter().collect::<Vec<_>>(), kept(&RESERVED_REQUEST_HEADERS).iter().map(|(n, v)| (n.as_str(), *v)).collect::<Vec<_>>());
                        }
                        let status = Head { start_line: "HTTP/1.1 200 OK", ..*got };
                        let resp = build_response(&status, b"").unwrap();
                        prop_assert_eq!(resp.headers.iter().collect::<Vec<_>>(), kept(&["content-length", "connection"]).iter().map(|(n, v)| (n.as_str(), *v)).collect::<Vec<_>>());
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    _ => prop_assert!(false, "{:?}: parsed {:?}, reference {:?}", String::from_utf8_lossy(head), got.is_ok(), want),
                }
            }
        }

        #[test]
        fn push_sanitized_matches_the_reference(
            prefix in "[a-z]{0,9}",
            value in "[a-z \r\n\u{e9}\u{2028}]{0,40}",
        ) {
            let (mut got, mut want) = (prefix.clone().into_bytes(), prefix.into_bytes());
            push_sanitized(&mut got, &value);
            reference::push_sanitized(&mut want, &value);
            prop_assert_eq!(&got, &want);

            // The encoded request carries the same sanitized line, and
            // its length is still the arithmetic twin's.
            let req = Request::new(Method::Get, "https://h.example/r").with_header("x-note", &value);
            let mut wire = Vec::new();
            encode_request_into(&mut wire, "t", &req);
            prop_assert_eq!(wire.len(), request_wire_len("t", &req));
            let mut line = b"x-note: ".to_vec();
            reference::push_sanitized(&mut line, &value);
            line.extend_from_slice(b"\r\n");
            prop_assert!(wire.windows(line.len()).any(|w| w == &line[..]), "{:?}", value);
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

    /// Names the differential test looks up: every envelope header, in
    /// other cases too, and names that are not.
    const LOOKUPS: [&str; 9] = [
        "host",
        "Host",
        "x-ucam-from",
        "X-UCAM-FORM",
        "content-length",
        "connection",
        "x-a",
        "a",
        "",
    ];

    /// One piece of head noise: CR, LF, CRLF, colons, spaces, non-ASCII
    /// whitespace (NBSP, NEL, U+2028, U+3000), any byte, or a letter. A
    /// `tame` piece is never a CRLF or an arbitrary byte, so it cannot
    /// end a line or break its UTF-8.
    fn noise_piece(rng: &mut proptest::TestRng, out: &mut Vec<u8>, tame: bool) {
        match (0u8..16).sample(rng) {
            0..=2 => out.push(b'\r'),
            3..=4 => out.push(b'\n'),
            5..=7 | 12 if tame => out.push(b'z'),
            5..=6 => out.extend_from_slice(b"\r\n"),
            7 => out.extend_from_slice(b"\r\n\r\n"),
            8..=9 => out.push(b':'),
            10 => out.push(b' '),
            11 => {
                let space = ["\u{a0}", "\u{85}", "\u{2028}", "\u{3000}"][(0usize..4).sample(rng)];
                out.extend_from_slice(space.as_bytes());
            }
            12 => out.push(any::<u8>().sample(rng)),
            _ => out.push(b"aA-x0\t"[(0usize..6).sample(rng)]),
        }
    }

    /// Up to 80 bytes of head noise.
    struct HeadNoise;

    impl Strategy for HeadNoise {
        type Value = Vec<u8>;

        fn sample(&self, rng: &mut proptest::TestRng) -> Vec<u8> {
            let len = (0usize..80).sample(rng);
            let mut out = Vec::with_capacity(len + 4);
            while out.len() < len {
                noise_piece(rng, &mut out, false);
            }
            out
        }
    }

    /// 0 to 70 header lines (so some heads pass [`MAX_HEADERS`]), each
    /// `name: value` with a name an envelope header or a short one in any
    /// case, and noise after it. In a rough head (one in three) the noise
    /// may end a line or break its UTF-8, and a line may lack its colon.
    struct HeadLines;

    impl Strategy for HeadLines {
        type Value = Vec<Vec<u8>>;

        fn sample(&self, rng: &mut proptest::TestRng) -> Vec<Vec<u8>> {
            let count =
                [(0usize..8).sample(rng), (60usize..70).sample(rng)][(0usize..2).sample(rng)];
            let tame = (0u8..3).sample(rng) > 0;
            (0..count)
                .map(|_| {
                    let mut line = Vec::new();
                    let noisy = if tame { 2 } else { (0u8..8).sample(rng) };
                    if noisy > 0 {
                        let names = [
                            "host",
                            "X-Ucam-From",
                            "x-ucam-form",
                            "Content-Length",
                            "connection",
                            "x-a",
                            "A",
                        ];
                        line.extend_from_slice(names[(0usize..names.len()).sample(rng)].as_bytes());
                        line.extend_from_slice(if noisy > 1 { b": " } else { b"" });
                        line.extend_from_slice(
                            ["0", "12", "v", " x y "][(0usize..4).sample(rng)].as_bytes(),
                        );
                    }
                    for _ in 0..(0usize..4).sample(rng) {
                        noise_piece(rng, &mut line, tame);
                    }
                    line
                })
                .collect()
        }
    }

    /// The scanner, parser and sanitizer as they stood before the
    /// word-at-a-time rewrite: the differential tests' references.
    mod reference {
        use std::collections::BTreeMap;

        use super::super::{MAX_HEADERS, MAX_MESSAGE_BYTES};

        pub fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
            let start = from.min(buf.len());
            buf[start..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|i| start + i + 4)
        }

        pub type Parsed<'a> = (&'a str, Vec<(&'a str, &'a str)>);

        pub fn parse_head(head: &[u8]) -> Result<Parsed<'_>, &'static str> {
            let text = head
                .strip_suffix(b"\r\n\r\n")
                .ok_or("unterminated head")
                .and_then(|t| std::str::from_utf8(t).map_err(|_| "head not utf-8"))?;
            let mut lines = text.split("\r\n");
            let start_line = lines.next().ok_or("empty head")?;
            let mut headers = Vec::new();
            for line in lines {
                let (name, value) = line.split_once(':').ok_or("bad header")?;
                if headers.len() >= MAX_HEADERS {
                    return Err("too many headers");
                }
                headers.push((name.trim(), value.trim()));
            }
            Ok((start_line, headers))
        }

        pub fn header<'a>(headers: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
            headers
                .iter()
                .rfind(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| *v)
        }

        pub fn content_length(headers: &[(&str, &str)]) -> Result<usize, &'static str> {
            let len = match header(headers, "content-length") {
                None => 0,
                Some(v) => v.parse().map_err(|_| "bad content-length")?,
            };
            if len > MAX_MESSAGE_BYTES {
                return Err("body too large");
            }
            Ok(len)
        }

        /// The headers but the `skipped` names, lower-cased, the last of
        /// each name winning.
        pub fn kept<'a>(
            headers: &[(&str, &'a str)],
            skipped: &[&str],
        ) -> BTreeMap<String, &'a str> {
            headers
                .iter()
                .filter(|(n, _)| !skipped.iter().any(|s| n.eq_ignore_ascii_case(s)))
                .map(|(n, v)| (n.to_ascii_lowercase(), *v))
                .collect()
        }

        pub fn push_sanitized(out: &mut Vec<u8>, s: &str) {
            if s.as_bytes().iter().any(|&b| b == b'\r' || b == b'\n') {
                for b in s.bytes() {
                    out.push(if b == b'\r' || b == b'\n' { b' ' } else { b });
                }
            } else {
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}
