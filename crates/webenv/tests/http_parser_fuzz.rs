//! Live-transport fuzz suite for the hand-rolled HTTP/1.1 server parser.
//!
//! The per-connection readers behind [`HttpTransport`] read untrusted
//! bytes off real sockets. Their failure contract (DESIGN.md §15) is
//! *fail closed*: a malformed, truncated or oversized message drops the
//! connection — no partial parse ever reaches an application handler,
//! no input ever panics a reader or leaves a connection hung, and a
//! dispatching client observes the drop as a classified `503` carrying
//! the `x-error-kind` taxonomy (`unreachable` for refused/reset
//! connections, `timeout` for a peer that goes silent). Every test here
//! talks to a real listener: the deterministic tables pin the named
//! failure modes, the proptest sweeps feed seeded noise and
//! truncations, and each test finishes by proving the listener still
//! serves well-formed traffic.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use std::sync::OnceLock;

use proptest::prelude::*;
use ucam_webenv::{codec, HttpTransport, Method, Request, Response, Transport, WebApp};

const AUTHORITY: &str = "fuzz.example";

/// How long a raw probe waits for the server to answer or hang up.
/// Generous against scheduler noise, far below the suite timeout — a
/// connection that neither answers nor closes within this window has hung.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

struct Echo;

impl WebApp for Echo {
    fn authority(&self) -> &str {
        AUTHORITY
    }

    fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
        Response::ok().with_body(format!("echo {}", req.url.path()))
    }
}

fn rig() -> (HttpTransport, SocketAddr) {
    let net = HttpTransport::new();
    net.set_client_timeout_ms(400);
    net.register(Arc::new(Echo));
    let addr = net
        .listener_addr(AUTHORITY)
        .expect("registered authority has a listener");
    (net, addr)
}

/// One long-lived rig shared by the seeded sweeps: the same listener
/// absorbs every generated case, so a single case that wedges the server
/// poisons all later cases — exactly the failure the suite exists to
/// catch.
fn shared_rig() -> &'static (HttpTransport, SocketAddr) {
    static RIG: OnceLock<(HttpTransport, SocketAddr)> = OnceLock::new();
    RIG.get_or_init(rig)
}

/// Writes `bytes` to a fresh raw connection, half-closes the write
/// side, and drains everything the server sends back until it hangs
/// up. The half-close bounds every exchange: even when the input left
/// the parser waiting for more, the reader sees EOF and must drop the
/// connection rather than stall — a read timeout here means a hung
/// reader and fails the test.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect to live listener");
    stream
        .set_read_timeout(Some(PROBE_TIMEOUT))
        .expect("set read timeout");
    // The server may legitimately reset mid-write on garbage input.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    match stream.read_to_end(&mut out) {
        Ok(_) => out,
        Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => out,
        Err(err) => panic!(
            "worker neither answered nor hung up within {PROBE_TIMEOUT:?}: {err} \
             (got {} bytes back)",
            out.len()
        ),
    }
}

/// The listener must still serve well-formed traffic after abuse: a
/// dispatch through the transport client answers 200 with no transport
/// classification.
fn assert_still_serving(net: &HttpTransport) {
    let resp = net.dispatch(
        "probe",
        Request::new(Method::Get, &format!("https://{AUTHORITY}/alive")),
    );
    assert!(
        resp.transport_error().is_none(),
        "worker wedged after malformed input: {} {:?}",
        resp.status.code(),
        resp.header("x-error-kind"),
    );
    assert_eq!(resp.body, "echo /alive");
}

#[test]
fn malformed_heads_are_dropped_without_a_response() {
    let (net, addr) = rig();
    let too_many_headers = {
        let mut msg = String::from("GET / HTTP/1.1\r\nhost: fuzz.example\r\n");
        for i in 0..codec::MAX_HEADERS {
            msg.push_str(&format!("x-pad-{i}: 1\r\n"));
        }
        msg.push_str("\r\n");
        msg
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty input", b"".to_vec()),
        ("bare newlines", b"\n\n\n\n".to_vec()),
        ("truncated head", b"GET / HTTP/1.1\r\nhost: fuzz.example".to_vec()),
        ("head cut mid-terminator", b"GET / HTTP/1.1\r\nhost: fuzz.example\r\n\r".to_vec()),
        ("unknown method", b"BREW / HTTP/1.1\r\nhost: fuzz.example\r\n\r\n".to_vec()),
        ("wrong protocol", b"GET / GOPHER/7.0\r\nhost: fuzz.example\r\n\r\n".to_vec()),
        ("missing host header", b"GET / HTTP/1.1\r\nx-other: 1\r\n\r\n".to_vec()),
        (
            "absolute-form target",
            b"GET http://evil.example/ HTTP/1.1\r\nhost: fuzz.example\r\n\r\n".to_vec(),
        ),
        (
            "content-length beyond the message cap",
            format!(
                "POST / HTTP/1.1\r\nhost: fuzz.example\r\ncontent-length: {}\r\n\r\n",
                codec::MAX_MESSAGE_BYTES + 1
            )
            .into_bytes(),
        ),
        (
            "content-length overflowing u64",
            b"POST / HTTP/1.1\r\nhost: fuzz.example\r\ncontent-length: 99999999999999999999999999\r\n\r\nx"
                .to_vec(),
        ),
        (
            "negative content-length",
            b"POST / HTTP/1.1\r\nhost: fuzz.example\r\ncontent-length: -1\r\n\r\n".to_vec(),
        ),
        (
            "body shorter than content-length",
            b"POST / HTTP/1.1\r\nhost: fuzz.example\r\ncontent-length: 64\r\n\r\nshort".to_vec(),
        ),
        ("too many header lines", too_many_headers.into_bytes()),
        (
            "header line without a colon",
            b"GET / HTTP/1.1\r\nhost: fuzz.example\r\nnocolonhere\r\n\r\n".to_vec(),
        ),
    ];
    for (label, bytes) in &cases {
        let back = raw_exchange(addr, bytes);
        assert!(
            back.is_empty(),
            "{label}: server answered malformed input with {:?}",
            String::from_utf8_lossy(&back)
        );
    }
    assert_still_serving(&net);
}

/// Reserved `x-ucam-*` envelope headers are the codec's own channel; a
/// peer spoofing or mangling them must never panic a reader or leak the
/// raw header into the application request. Lenient cases may be served
/// — but only ever with a well-formed HTTP/1.1 answer — and strict
/// violations drop the connection.
#[test]
fn bogus_envelope_headers_never_wedge_a_worker() {
    let (net, addr) = rig();
    let cases: &[(&str, &[u8])] = &[
        (
            "duplicate x-ucam-from",
            b"GET / HTTP/1.1\r\nhost: fuzz.example\r\nx-ucam-from: a\r\nx-ucam-from: b\r\n\r\n",
        ),
        (
            "x-ucam-form garbage",
            b"GET / HTTP/1.1\r\nhost: fuzz.example\r\nx-ucam-from: p\r\nx-ucam-form: %zz%%&&==&=\r\n\r\n",
        ),
        (
            "x-ucam-form with binary escapes",
            b"GET / HTTP/1.1\r\nhost: fuzz.example\r\nx-ucam-form: k=%00%ff%fe\r\n\r\n",
        ),
        (
            "unknown x-ucam header",
            b"GET / HTTP/1.1\r\nhost: fuzz.example\r\nx-ucam-reserved-future: 1\r\n\r\n",
        ),
        (
            "empty x-ucam-from",
            b"GET / HTTP/1.1\r\nhost: fuzz.example\r\nx-ucam-from:\r\n\r\n",
        ),
    ];
    for (label, bytes) in cases {
        let back = raw_exchange(addr, bytes);
        assert!(
            back.is_empty() || back.starts_with(b"HTTP/1.1 "),
            "{label}: server sent a non-HTTP answer: {:?}",
            String::from_utf8_lossy(&back)
        );
    }
    assert_still_serving(&net);
}

/// A head split across writes — including cuts inside the `\r\n\r\n`
/// terminator — must reassemble: the incremental scan resumes where it
/// left off instead of re-scanning or giving up.
#[test]
fn split_crlf_heads_reassemble_across_writes() {
    let (net, addr) = rig();
    let wire = b"GET /split HTTP/1.1\r\nhost: fuzz.example\r\nx-ucam-from: probe\r\n\r\n";
    // Cut everywhere interesting: inside the request line, inside a
    // header line's CRLF, and at every byte of the final terminator.
    let cuts = [
        1,
        4,
        20,
        wire.len() - 4,
        wire.len() - 3,
        wire.len() - 2,
        wire.len() - 1,
    ];
    for cut in cuts {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(PROBE_TIMEOUT)).unwrap();
        stream.write_all(&wire[..cut]).unwrap();
        // Let the server read the partial head before the remainder.
        std::thread::sleep(Duration::from_millis(5));
        stream.write_all(&wire[cut..]).unwrap();
        let _ = stream.shutdown(Shutdown::Write);
        let mut back = Vec::new();
        stream.read_to_end(&mut back).expect("read response");
        let text = String::from_utf8_lossy(&back);
        assert!(
            text.starts_with("HTTP/1.1 200") && text.contains("echo /split"),
            "cut at {cut}: expected a 200 echo, got {text:?}"
        );
    }
    assert_still_serving(&net);
}

proptest! {
    /// Seeded random noise: whatever the bytes, the server either
    /// answers with well-formed HTTP or hangs up — it never panics,
    /// never sends garbage, and never stops serving.
    #[test]
    fn random_noise_never_panics_or_hangs_a_worker(
        noise in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        let (net, addr) = shared_rig();
        let back = raw_exchange(*addr, &noise);
        prop_assert!(
            back.is_empty() || back.starts_with(b"HTTP/1.1 "),
            "noise drew a non-HTTP answer: {:?}",
            String::from_utf8_lossy(&back)
        );
        assert_still_serving(net);
    }

    /// Every strict prefix of a canonical encoded request is a
    /// truncation; none may draw a response, and the listener must keep
    /// serving afterwards.
    #[test]
    fn truncated_canonical_requests_are_dropped(cut_seed in any::<u64>()) {
        let (net, addr) = shared_rig();
        let wire = canonical_wire();
        let cut = 1 + (cut_seed as usize) % (wire.len() - 1);
        let back = raw_exchange(*addr, &wire[..cut]);
        prop_assert!(
            back.is_empty(),
            "truncation at {cut}/{} drew a response: {:?}",
            wire.len(),
            String::from_utf8_lossy(&back)
        );
        assert_still_serving(net);
    }
}

/// The canonical encoded request the truncation sweep cuts up.
fn canonical_wire() -> &'static [u8] {
    static WIRE: OnceLock<Vec<u8>> = OnceLock::new();
    WIRE.get_or_init(|| {
        let req = Request::new(Method::Post, &format!("https://{AUTHORITY}/upload"))
            .with_param("kind", "photo")
            .with_body("0123456789abcdef");
        let mut wire = Vec::new();
        codec::encode_request_into(&mut wire, "probe", &req);
        wire
    })
}

/// The untruncated canonical message is served — the positive control
/// for the truncation sweep.
#[test]
fn full_canonical_request_is_served() {
    let (net, addr) = shared_rig();
    let back = raw_exchange(*addr, canonical_wire());
    assert!(
        String::from_utf8_lossy(&back).starts_with("HTTP/1.1 200"),
        "full canonical request was not served"
    );
    assert_still_serving(net);
}

/// The client-side half of the fail-closed contract: when an authority
/// stops answering, the dispatching caller gets the classified `503`
/// taxonomy — `unreachable` for a dead listener, `timeout` for a
/// silent one — never a hang and never an unclassified error.
#[test]
fn client_surfaces_the_503_taxonomy_for_dead_and_silent_peers() {
    let (net, _addr) = rig();
    let probe = || Request::new(Method::Get, &format!("https://{AUTHORITY}/probe"));

    net.kill_listener(AUTHORITY);
    let resp = net.dispatch("probe", probe());
    assert_eq!(resp.status.code(), 503);
    assert_eq!(resp.header("x-error-kind"), Some("unreachable"));

    net.register(Arc::new(Echo));
    net.set_stall(AUTHORITY, true);
    let resp = net.dispatch("probe", probe());
    assert_eq!(resp.status.code(), 503);
    assert_eq!(resp.header("x-error-kind"), Some("timeout"));

    net.set_stall(AUTHORITY, false);
    assert_still_serving(&net);
}
