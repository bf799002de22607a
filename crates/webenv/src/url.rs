//! A minimal URL type sufficient for the simulated Web environment.
//!
//! Every simulated application is addressed by an *authority* (host name,
//! e.g. `webpics.example`); resources live under paths; protocol steps pass
//! parameters in the query string (e.g. the AM location a User supplies when
//! delegating access control, §V.B.1).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::fields::{Fields, Pairs};

/// The scheme every constructed URL carries.
const HTTPS: &str = "https";

/// A parsed URL: `scheme://authority/path?query`.
///
/// The authority, the path and the decoded query pairs share one buffer
/// (a [`Fields`] whose head is the authority and path), and the scheme
/// `https` is a borrowed constant, so a URL costs one allocation. Query
/// keys are kept sorted, so formatting is deterministic — important for
/// reproducible protocol traces — and a repeated key keeps its last
/// value.
///
/// # Example
///
/// ```
/// use ucam_webenv::Url;
///
/// let url: Url = "https://am.example/authorize?realm=photos".parse()?;
/// assert_eq!(url.authority(), "am.example");
/// assert_eq!(url.path(), "/authorize");
/// assert_eq!(url.query("realm"), Some("photos"));
/// # Ok::<(), ucam_webenv::ParseUrlError>(())
/// ```
#[derive(Clone)]
pub struct Url {
    scheme: Cow<'static, str>,
    /// The authority and the path in the head, the query after them.
    parts: Fields,
    /// Where the authority ends in the head.
    authority_end: usize,
}

impl Url {
    /// Builds a URL from an authority and an absolute path.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not start with `/`.
    #[must_use]
    pub fn new(authority: &str, path: &str) -> Self {
        assert!(path.starts_with('/'), "path must be absolute: {path}");
        Url::with_room(authority, path, 0)
    }

    /// An `https` URL without query pairs, with room for `query` bytes of
    /// their keys and values.
    pub(crate) fn with_room(authority: &str, path: &str, query: usize) -> Self {
        Url::build(Cow::Borrowed(HTTPS), authority, path, query)
    }

    /// A URL without query pairs, with room for `query` bytes of them.
    fn build(scheme: Cow<'static, str>, authority: &str, path: &str, query: usize) -> Self {
        Url {
            scheme,
            parts: Fields::with_head(&[authority, path], authority.len() + path.len() + query),
            authority_end: authority.len(),
        }
    }

    /// Builds an `https` URL from an authority, an absolute path and a
    /// raw (percent-encoded) query string, as the HTTP codec reads a
    /// request target.
    pub(crate) fn from_target(authority: &str, path: &str, query: Option<&str>) -> Self {
        Url::parsed(Cow::Borrowed(HTTPS), authority, path, query)
    }

    /// A URL whose query pairs are decoded from `query`.
    fn parsed(scheme: Cow<'static, str>, authority: &str, path: &str, query: Option<&str>) -> Self {
        // Decoding never lengthens text, so the raw query's length is room
        // enough for its pairs.
        let mut url = Url::build(scheme, authority, path, query.map_or(0, str::len));
        url.parts.extend_decoded(query.unwrap_or_default());
        url
    }

    /// Returns the scheme (always `https` for constructed URLs).
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Returns the authority (host name) component.
    #[must_use]
    pub fn authority(&self) -> &str {
        &self.parts.head()[..self.authority_end]
    }

    /// Returns the absolute path component.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.parts.head()[self.authority_end..]
    }

    /// Returns the path split into non-empty segments.
    ///
    /// # Example
    ///
    /// ```
    /// let url = ucam_webenv::Url::new("h.example", "/a/b/c");
    /// assert_eq!(url.segments(), vec!["a", "b", "c"]);
    /// ```
    #[must_use]
    pub fn segments(&self) -> Vec<&str> {
        self.path().split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Looks up a query parameter.
    #[must_use]
    pub fn query(&self, key: &str) -> Option<&str> {
        self.parts.get(key)
    }

    /// Returns all query parameters, in key order.
    #[must_use]
    pub fn query_pairs(&self) -> Pairs<'_> {
        self.parts.iter()
    }

    /// Returns a copy of this URL with the query parameter set.
    #[must_use]
    pub fn with_query(mut self, key: &str, value: &str) -> Self {
        self.parts.insert(key, value);
        self
    }

    /// Returns this URL with the query parameter `key` set to `url`'s
    /// text, rendered straight into the buffer.
    pub(crate) fn with_query_url(mut self, key: &str, url: &Url) -> Self {
        self.parts.insert_with(key, |out| {
            let _ = url.write_to(out);
        });
        self
    }

    /// Returns a copy of this URL with a different path.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not start with `/`.
    #[must_use]
    pub fn with_path(mut self, path: &str) -> Self {
        assert!(path.starts_with('/'), "path must be absolute: {path}");
        let old = self.authority_end..self.parts.head().len();
        self.parts.replace_head(old, path);
        self
    }

    /// Returns a copy of this URL on a different authority, keeping its
    /// path and query (a request re-homed onto another server).
    #[must_use]
    pub fn with_authority(mut self, authority: &str) -> Self {
        self.parts.replace_head(0..self.authority_end, authority);
        self.authority_end = authority.len();
        self
    }

    /// Returns the origin-form request target for an HTTP/1.1 request
    /// line: the path plus the percent-encoded query string.
    ///
    /// # Example
    ///
    /// ```
    /// let url = ucam_webenv::Url::new("h.example", "/r").with_query("k", "a b");
    /// assert_eq!(url.path_and_query(), "/r?k=a%20b");
    /// ```
    #[must_use]
    pub fn path_and_query(&self) -> String {
        let mut out = String::with_capacity(self.path().len() + self.query_len());
        out.push_str(self.path());
        let _ = self.write_query(&mut out);
        out
    }

    /// Writes `scheme://authority/path?k=v&...`: the path raw, every
    /// query key and value percent-encoded, in key order. This is the
    /// URL's [`Display`](fmt::Display) form.
    pub(crate) fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(&self.scheme)?;
        out.write_str("://")?;
        out.write_str(self.parts.head())?;
        self.write_query(out)
    }

    /// The length of the URL as [`Display`](fmt::Display) writes it.
    pub(crate) fn rendered_len(&self) -> usize {
        self.scheme.len() + "://".len() + self.parts.head().len() + self.query_len()
    }

    /// The length of the encoded query string, its `?` included: each
    /// pair's separator and `=`, and its key and value encoded.
    pub(crate) fn query_len(&self) -> usize {
        2 * self.parts.len() + encoded_len(self.parts.text())
    }

    /// Writes `?k=v&...`, every key and value percent-encoded.
    fn write_query(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let mut sep = "?";
        for (k, v) in self.query_pairs() {
            out.write_str(sep)?;
            write_encoded(out, k)?;
            out.write_str("=")?;
            write_encoded(out, v)?;
            sep = "&";
        }
        Ok(())
    }
}

/// Whether `b` passes the escaper as itself: RFC 3986's unreserved set.
/// Written without branches (`b | 0x20` folds the upper-case letters
/// onto the lower-case ones and nothing else onto them), so a loop over
/// it vectorizes.
const fn is_unreserved(b: u8) -> bool {
    ((b | 0x20).wrapping_sub(b'a') < 26)
        | (b.wrapping_sub(b'0') < 10)
        | (b == b'-')
        | (b == b'_')
        | (b == b'.')
        | (b == b'~')
}

/// [`is_unreserved`] of every byte: the escaper's loops look it up, which
/// costs a third of testing the ranges.
static UNRESERVED: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = is_unreserved(b as u8);
        b += 1;
    }
    table
};

/// `%00%01...%FF`: the escape of byte `b` is `ESCAPES[3 * b..3 * b + 3]`.
const ESCAPES: &str = {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    const BYTES: [u8; 768] = {
        let mut out = [0; 768];
        let mut b = 0;
        while b < 256 {
            out[3 * b] = b'%';
            out[3 * b + 1] = HEX[b >> 4];
            out[3 * b + 2] = HEX[b & 0x0f];
            b += 1;
        }
        out
    };
    match std::str::from_utf8(&BYTES) {
        Ok(escapes) => escapes,
        Err(_) => panic!("escapes are ASCII"),
    }
};

/// Writes `s` percent-encoded into `out`: each run of unreserved bytes in
/// one write, every other byte (space, `&`, `=`, `%`, `?`, `#`, `/` and
/// non-ASCII bytes among them) as `%XX`. The one escaper behind
/// [`Url`]'s `Display` and the HTTP/1.1 codec's form and target encoding.
pub(crate) fn write_encoded(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !UNRESERVED[usize::from(b)] {
            // An unreserved byte is ASCII, so a non-empty run starts and
            // ends on character boundaries.
            if run < i {
                out.write_str(&s[run..i])?;
            }
            let at = 3 * usize::from(b);
            out.write_str(&ESCAPES[at..at + 3])?;
            run = i + 1;
        }
    }
    if run < s.len() {
        out.write_str(&s[run..])?;
    }
    Ok(())
}

/// The length of `s` as [`write_encoded`] writes it: two more bytes for
/// each escaped one. One pass: sixteen bytes at a time, each byte tested
/// without a branch and counted in its own `u8` lane (which the compiler
/// keeps in one vector register), the lanes summed every 255 blocks; the
/// tail of fewer than sixteen bytes by the table.
pub(crate) fn encoded_len(s: &str) -> usize {
    let blocks = s.as_bytes().chunks_exact(16);
    let tail = blocks.remainder();
    let mut lanes = [0u8; 16];
    let mut escaped = 0;
    for (i, block) in blocks.enumerate() {
        for (lane, &b) in lanes.iter_mut().zip(block) {
            *lane += u8::from(!is_unreserved(b));
        }
        if i % 255 == 254 {
            escaped += lanes.iter().map(|&n| usize::from(n)).sum::<usize>();
            lanes = [0; 16];
        }
    }
    escaped += lanes.iter().map(|&n| usize::from(n)).sum::<usize>();
    let table = |&&b: &&u8| !UNRESERVED[usize::from(b)];
    s.len() + 2 * (escaped + tail.iter().filter(table).count())
}

/// Appends `s` percent-decoded to `out`. A `%` that does not start an
/// escape `u8::from_str_radix` reads as a byte passes through literally,
/// and decoded bytes that are not UTF-8 become U+FFFD, as
/// `String::from_utf8_lossy` replaces them. Text without `%` is copied
/// once.
pub(crate) fn decode_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut pending = Pending::default();
    // The literal text from `run` on is not yet copied.
    let (mut run, mut i) = (0, 0);
    while let Some(found) = bytes[i..].iter().position(|&b| b == b'%') {
        let at = i + found;
        i = at + 1;
        let Some(byte) = bytes
            .get(at + 1..at + 3)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u8::from_str_radix(h, 16).ok())
        else {
            continue;
        };
        if run < at {
            pending.finish(out);
            out.push_str(&s[run..at]);
        }
        pending.push(out, byte);
        i = at + 3;
        run = i;
    }
    if run < bytes.len() {
        pending.finish(out);
        out.push_str(&s[run..]);
    }
    pending.finish(out);
}

/// Decoded bytes that began a multi-byte UTF-8 sequence not yet complete.
#[derive(Default)]
struct Pending {
    bytes: [u8; 4],
    len: usize,
}

impl Pending {
    /// Adds one decoded byte, writing every character it completes and a
    /// U+FFFD for every invalid sequence, as `from_utf8_lossy` does.
    fn push(&mut self, out: &mut String, byte: u8) {
        if self.len == 0 && byte.is_ascii() {
            out.push(char::from(byte));
            return;
        }
        self.bytes[self.len] = byte;
        self.len += 1;
        while self.len > 0 {
            let err = match std::str::from_utf8(&self.bytes[..self.len]) {
                Ok(text) => {
                    out.push_str(text);
                    self.len = 0;
                    return;
                }
                Err(err) => err,
            };
            let valid = err.valid_up_to();
            out.push_str(std::str::from_utf8(&self.bytes[..valid]).unwrap_or_default());
            // An incomplete sequence waits for its next byte.
            let Some(bad) = err.error_len() else {
                self.bytes.copy_within(valid..self.len, 0);
                self.len -= valid;
                return;
            };
            out.push(char::REPLACEMENT_CHARACTER);
            self.bytes.copy_within(valid + bad..self.len, 0);
            self.len -= valid + bad;
        }
    }

    /// Ends the run of decoded bytes: a sequence left incomplete is one
    /// U+FFFD.
    fn finish(&mut self, out: &mut String) {
        if self.len > 0 {
            out.push(char::REPLACEMENT_CHARACTER);
            self.len = 0;
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Url")
            .field("scheme", &self.scheme())
            .field("authority", &self.authority())
            .field("path", &self.path())
            .field("query", &self.parts)
            .finish()
    }
}

impl PartialEq for Url {
    fn eq(&self, other: &Self) -> bool {
        self.scheme == other.scheme
            && self.authority_end == other.authority_end
            && self.parts.head() == other.parts.head()
            && self.parts == other.parts
    }
}

impl Eq for Url {}

impl Hash for Url {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.scheme(), self.authority(), self.path()).hash(state);
        self.query_pairs().for_each(|pair| pair.hash(state));
    }
}

impl PartialOrd for Url {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Url {
    /// By scheme, authority, path, then query pairs in key order.
    fn cmp(&self, other: &Self) -> Ordering {
        (self.scheme(), self.authority(), self.path())
            .cmp(&(other.scheme(), other.authority(), other.path()))
            .then_with(|| self.query_pairs().cmp(other.query_pairs()))
    }
}

/// An error produced when parsing a malformed URL string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseUrlError {
    /// The input lacks the `scheme://` separator.
    MissingScheme,
    /// The authority component is empty.
    EmptyAuthority,
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUrlError::MissingScheme => write!(f, "url is missing a scheme"),
            ParseUrlError::EmptyAuthority => write!(f, "url authority is empty"),
        }
    }
}

impl std::error::Error for ParseUrlError {}

impl FromStr for Url {
    type Err = ParseUrlError;

    /// Parses `scheme://authority/path?query`: the path is everything
    /// from the first `/` after the authority up to the first `?` (`/`
    /// when there is none), kept raw; the query's pairs are
    /// percent-decoded.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme, rest) = s.split_once("://").ok_or(ParseUrlError::MissingScheme)?;
        let (authority_path, query) = match rest.split_once('?') {
            Some((a, q)) => (a, Some(q)),
            None => (rest, None),
        };
        let (authority, path) = match authority_path.find('/') {
            Some(slash) => authority_path.split_at(slash),
            None => (authority_path, "/"),
        };
        if authority.is_empty() {
            return Err(ParseUrlError::EmptyAuthority);
        }
        let scheme = match scheme {
            HTTPS => Cow::Borrowed(HTTPS),
            other => Cow::Owned(other.to_owned()),
        };
        Ok(Url::parsed(scheme, authority, path, query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_basic() {
        let u: Url = "https://webpics.example/albums/1".parse().unwrap();
        assert_eq!(u.scheme(), "https");
        assert_eq!(u.authority(), "webpics.example");
        assert_eq!(u.path(), "/albums/1");
        assert!(u.query_pairs().next().is_none());
    }

    #[test]
    fn parse_no_path() {
        let u: Url = "https://am.example".parse().unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn parse_query() {
        let u: Url = "https://am.example/a?x=1&y=two".parse().unwrap();
        assert_eq!(u.query("x"), Some("1"));
        assert_eq!(u.query("y"), Some("two"));
        assert_eq!(u.query("z"), None);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "no-scheme".parse::<Url>(),
            Err(ParseUrlError::MissingScheme)
        );
        assert_eq!(
            "https:///path".parse::<Url>(),
            Err(ParseUrlError::EmptyAuthority)
        );
    }

    #[test]
    fn display_roundtrip() {
        let u = Url::new("h.example", "/r/1")
            .with_query("realm", "my photos")
            .with_query("tok", "a=b&c");
        let s = u.to_string();
        let back: Url = s.parse().unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn segments() {
        let u = Url::new("h.example", "/a//b/");
        assert_eq!(u.segments(), vec!["a", "b"]);
    }

    #[test]
    fn with_path_replaces() {
        let u = Url::new("h.example", "/a")
            .with_path("/b")
            .with_query("k", "v");
        assert_eq!(u.path(), "/b");
        assert_eq!(u.to_string(), "https://h.example/b?k=v");
    }

    #[test]
    #[should_panic(expected = "path must be absolute")]
    fn relative_path_panics() {
        let _ = Url::new("h.example", "relative");
    }

    #[test]
    fn percent_encoding_special_chars() {
        let u = Url::new("h.example", "/p").with_query("q", "a&b=c?d#e f");
        let s = u.to_string();
        assert!(!s.contains(' '));
        let back: Url = s.parse().unwrap();
        assert_eq!(back.query("q"), Some("a&b=c?d#e f"));
    }

    #[test]
    fn the_escaper_escapes_every_reserved_byte() {
        let mut out = String::new();
        let _ = write_encoded(&mut out, "a%b&c=d e?f#g/h~i.j-k_l\u{e9}");
        assert_eq!(out, "a%25b%26c%3Dd%20e%3Ff%23g%2Fh~i.j-k_l%C3%A9");
        assert_eq!(encoded_len("a%b&c=d e?f#g/h~i.j-k_l\u{e9}"), out.len());
    }

    /// The branch-free test agrees with the range match on every byte, and
    /// the count holds across the 16-byte blocks, the lane sums every 255
    /// blocks and the tail: texts up to two lane sums long, built from
    /// every byte the escaper passes or escapes.
    #[test]
    fn the_escape_count_holds_on_every_byte_and_across_blocks() {
        for b in 0..=u8::MAX {
            let want =
                matches!(b, b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~');
            assert_eq!(is_unreserved(b), want, "byte {b:#04x}");
        }
        let every: String = (0..=0x7f_u8)
            .map(char::from)
            .chain(['\u{e9}', '\u{20ac}'])
            .collect();
        for len in [
            0, 1, 15, 16, 17, 255, 4_079, 4_080, 4_081, 4_096, 8_161, 8_200,
        ] {
            let text: String = every.chars().cycle().take(len).collect();
            let mut out = String::new();
            let _ = write_encoded(&mut out, &text);
            assert_eq!(encoded_len(&text), out.len(), "{len} characters");
        }
        assert_eq!(encoded_len(&"&".repeat(10_000)), 30_000);
    }

    #[test]
    fn the_decoder_reads_escapes_as_the_reference_does() {
        for (raw, want) in [
            ("a%20b", "a b"),
            ("%", "%"),
            ("%4", "%4"),
            ("%zz", "%zz"),
            ("%%41", "%A"),
            ("%+A", "\n"),
            ("%FF%FE", "\u{FFFD}\u{FFFD}"),
            ("%C3%A9", "\u{e9}"),
            ("%C3", "\u{FFFD}"),
            ("%C3x%A9", "\u{FFFD}x\u{FFFD}"),
            ("%E2%82", "\u{FFFD}"),
            ("%E2%82%AC%F0%9F%98%80", "\u{20AC}\u{1F600}"),
            ("plain", "plain"),
        ] {
            let mut out = String::new();
            decode_into(&mut out, raw);
            assert_eq!(out, want, "decoding {raw:?}");
            assert_eq!(out, reference::decode_component(raw), "decoding {raw:?}");
        }
    }

    #[test]
    fn a_repeated_query_key_keeps_its_last_value() {
        let u: Url = "https://h.example/p?k=1&j=2&k=3&k=4".parse().unwrap();
        assert_eq!(u.query("k"), Some("4"));
        assert_eq!(u.query("j"), Some("2"));
        assert_eq!(u.to_string(), "https://h.example/p?j=2&k=4");
    }

    #[test]
    fn with_authority_rehomes_path_and_query() {
        let u = Url::new("a.example", "/authorize")
            .with_query("owner", "bob")
            .with_authority("secondary-am.example");
        assert_eq!(u.authority(), "secondary-am.example");
        assert_eq!(u.path(), "/authorize");
        assert_eq!(
            u.to_string(),
            "https://secondary-am.example/authorize?owner=bob"
        );
        assert_eq!(
            u,
            Url::new("secondary-am.example", "/authorize").with_query("owner", "bob")
        );
    }

    #[test]
    fn only_https_borrows_its_scheme() {
        let u: Url = "http://h.example/p?k=v".parse().unwrap();
        assert_eq!(u.scheme(), "http");
        assert_eq!(u.to_string(), "http://h.example/p?k=v");
        assert_ne!(u, "https://h.example/p?k=v".parse().unwrap());
    }

    /// The escaper, decoder and `Url` text forms as they were over maps
    /// of owned strings, kept as the references the packed `Url` and the
    /// in-place escaper must match.
    mod reference {
        use std::collections::BTreeMap;

        pub fn encode_component(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for b in s.bytes() {
                match b {
                    b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                        out.push(b as char);
                    }
                    _ => out.push_str(&format!("%{b:02X}")),
                }
            }
            out
        }

        pub fn decode_component(s: &str) -> String {
            let bytes = s.as_bytes();
            let mut out = Vec::with_capacity(bytes.len());
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i] == b'%' {
                    if let Some(hex) = bytes
                        .get(i + 1..i + 3)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                    {
                        out.push(hex);
                        i += 3;
                        continue;
                    }
                }
                out.push(bytes[i]);
                i += 1;
            }
            String::from_utf8_lossy(&out).into_owned()
        }

        /// `(scheme, authority, path, query)` as the reference parser reads `s`.
        pub type Parts = (String, String, String, BTreeMap<String, String>);

        pub fn parse(s: &str) -> Option<Parts> {
            let (scheme, rest) = s.split_once("://")?;
            let (authority_path, query_str) = match rest.split_once('?') {
                Some((a, q)) => (a, Some(q)),
                None => (rest, None),
            };
            let (authority, path) = match authority_path.split_once('/') {
                Some((a, p)) => (a, format!("/{p}")),
                None => (authority_path, "/".to_owned()),
            };
            if authority.is_empty() {
                return None;
            }
            let mut query = BTreeMap::new();
            if let Some(qs) = query_str {
                for pair in qs.split('&').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                    query.insert(decode_component(k), decode_component(v));
                }
            }
            Some((scheme.to_owned(), authority.to_owned(), path, query))
        }

        pub fn display(parts: &Parts) -> String {
            let (scheme, authority, path, query) = parts;
            let mut out = format!("{scheme}://{authority}{path}");
            let mut sep = '?';
            for (k, v) in query {
                out.push(sep);
                out.push_str(&encode_component(k));
                out.push('=');
                out.push_str(&encode_component(v));
                sep = '&';
            }
            out
        }
    }

    fn parts_of(u: &Url) -> reference::Parts {
        (
            u.scheme().to_owned(),
            u.authority().to_owned(),
            u.path().to_owned(),
            u.query_pairs()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        )
    }

    /// Text with escapes, broken escapes (`%`, `%4`, `%zz`), escaped
    /// invalid UTF-8 (`%FF%FE`), the `%+A` escape `u8::from_str_radix`
    /// reads, and literal non-ASCII.
    pub(crate) struct EscapedText;

    impl Strategy for EscapedText {
        type Value = String;

        fn sample(&self, rng: &mut proptest::TestRng) -> String {
            use std::fmt::Write as _;
            let mut out = String::new();
            for _ in 0..(0usize..12).sample(rng) {
                match (0u8..9).sample(rng) {
                    0 => out.push_str(&"[a-zA-Z0-9 &=?#/_.:~+-]{1,4}".sample(rng)),
                    1 => out.push_str(&"[\u{e9}\u{20ac}\u{1F600}]".sample(rng)),
                    2 => out.push('%'),
                    3 => out.push_str("%4"),
                    4 => out.push_str("%zz"),
                    5 => out.push_str("%FF%FE"),
                    6 => out.push_str("%+A"),
                    7 => {
                        let _ = write!(out, "%{:02X}", any::<u8>().sample(rng));
                    }
                    _ => {
                        let _ = write!(out, "%{:02x}", any::<u8>().sample(rng));
                    }
                }
            }
            out
        }
    }

    /// Any text: every ASCII byte (controls, `%`, `&`, `=` among them),
    /// Latin-1, and two- to four-byte characters.
    pub(crate) const ANY_TEXT: &str = "[\\u{0}-\\u{ff}\\u{20ac}\\u{1F600}]{0,24}";

    proptest! {
        #[test]
        fn query_roundtrip(
            key in "[a-zA-Z0-9 &=%?#/_.:-]{1,20}",
            val in "[a-zA-Z0-9 &=%?#/_.:-]{0,30}",
        ) {
            let u = Url::new("h.example", "/p").with_query(&key, &val);
            let back: Url = u.to_string().parse().unwrap();
            prop_assert_eq!(back.query(&key), Some(val.as_str()));
        }

        #[test]
        fn the_escaper_matches_the_reference(s in ANY_TEXT) {
            let mut out = String::from("kept");
            let _ = write_encoded(&mut out, &s);
            prop_assert_eq!(&out[4..], reference::encode_component(&s));
            prop_assert_eq!(encoded_len(&s), out.len() - 4);
        }

        #[test]
        fn the_decoder_matches_the_reference(s in EscapedText) {
            let mut out = String::from("kept");
            decode_into(&mut out, &s);
            prop_assert_eq!(&out[4..], reference::decode_component(&s));
        }

        #[test]
        fn the_decoder_matches_the_reference_on_any_text(s in ANY_TEXT) {
            let mut out = String::new();
            decode_into(&mut out, &s);
            prop_assert_eq!(out, reference::decode_component(&s));
        }

        /// The path is written raw, so a path holding `?`, `#` or a space
        /// does not survive a round trip: both sides read it back the same
        /// wrong way.
        #[test]
        fn display_and_parse_match_the_reference(
            path in "/[a-z ?#/%=&]{0,12}",
            pairs in proptest::collection::vec((EscapedText, EscapedText), 0..5),
        ) {
            let mut u = Url::new("h.example", &path);
            let mut want: reference::Parts = ("https".to_owned(), "h.example".to_owned(), path.clone(), Default::default());
            for (k, v) in &pairs {
                u = u.with_query(k, v);
                want.3.insert(k.clone(), v.clone());
            }
            prop_assert_eq!(parts_of(&u), want.clone());
            let text = u.to_string();
            prop_assert_eq!(&text, &reference::display(&want));
            prop_assert_eq!(u.rendered_len(), text.len());
            let back: Url = text.parse().unwrap();
            prop_assert_eq!(Some(parts_of(&back)), reference::parse(&text));
        }

        #[test]
        fn any_text_parses_as_the_reference_reads_it(s in "[a-z]{0,5}(://)?[a-z./?&=%#A-F0-9]{0,30}") {
            prop_assert_eq!(s.parse::<Url>().ok().map(|u| parts_of(&u)), reference::parse(&s));
        }
    }
}
