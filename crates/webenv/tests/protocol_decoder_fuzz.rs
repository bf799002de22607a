//! Seeded fuzz suite for the body decoders in `webenv::protocol`.
//!
//! The epoch-push route decodes sieve and sieve-delta bodies (in one
//! pass, [`parse_push_body`]), the Host decodes decision and unchanged
//! replies (in one pass, [`parse_decision_reply`]), and
//! the AM's open v2 routes decode batch-authorize and registration
//! bodies, all before anything has authenticated the sender. Their
//! contract is *fail closed*: a truncated, corrupted, oversized or garbage
//! body returns a typed [`WireError`] and never panics, and a corrupted
//! body that still decodes grants nothing its original did not — a
//! signed body stops verifying, a deny never turns into a permit, a
//! non-token authorize reply never turns into a token. The deterministic
//! tables pin truncation at every byte, single-byte flips, multi-byte
//! UTF-8 and every escape in every string field, batches one item over
//! the cap, and nesting far past the decoder's depth bound; the seeded
//! sweeps add encode→decode identity over generated bodies and random
//! noise; two size cases pin that decoding stays linear in the body and
//! that an oversized batch is refused without reading it. Two more
//! sweeps pin each one-pass decoder to the two-step classification it
//! replaced, kept here as a reference.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use ucam_crypto::HmacKey;
use ucam_webenv::protocol::{
    encode_authorize_request, encode_authorize_response, encode_batch_request,
    encode_batch_response, parse_authorize_request, parse_authorize_response, parse_batch_request,
    parse_batch_response, parse_decision_reply, parse_push_body, sieve_fingerprint, AuthorizeItem,
    AuthorizeReply, BatchItem, DecisionReply, DelegateReply, PushBody, RegisterBody,
    RegistrationReply, SieveBody, SieveDeltaBody, SieveEntry, UnchangedBody, MAX_BATCH,
};
use ucam_webenv::{DecisionBody, WireError};

/// The delegation `host_token` every signed body here is built under.
const KEY: &[u8] = b"host-token";

/// Every string the tables put into an owner, resource or reason:
/// multi-byte UTF-8 (two-, three- and four-byte scalars) and every
/// character the encoder escapes.
const AWKWARD: &[&str] = &[
    "bob",
    "café",
    "日本",
    "🦀",
    "quote\"d",
    "back\\slash",
    "slash/ed",
    "line\nfeed",
    "carriage\rreturn",
    "tab\there",
    "bell\u{7}and\u{1f}unit",
    "back\u{8}space\u{c}feed",
    "nul\u{0}byte",
    "é日本🦀\"\\\n\r\t\u{1}/",
];

/// One decoded body of any of the eleven kinds.
#[derive(Debug, Clone, PartialEq)]
enum Decoded {
    Decision(DecisionBody),
    Unchanged(UnchangedBody),
    Sieve(SieveBody),
    Delta(SieveDeltaBody),
    BatchRequest(Vec<BatchItem>),
    BatchResponse(Vec<DecisionBody>),
    AuthorizeRequest(Vec<AuthorizeItem>),
    AuthorizeResponse(Vec<AuthorizeReply>),
    Register(RegisterBody),
    Registration(RegistrationReply),
    Delegate(DelegateReply),
}

impl Decoded {
    /// The canonical wire JSON of the body.
    fn to_json(&self) -> String {
        match self {
            Decoded::Decision(body) => body.to_json(),
            Decoded::Unchanged(body) => body.to_json(),
            Decoded::Sieve(body) => body.to_json(),
            Decoded::Delta(body) => body.to_json(),
            Decoded::BatchRequest(items) => encode_batch_request(items),
            Decoded::BatchResponse(decisions) => encode_batch_response(decisions),
            Decoded::AuthorizeRequest(items) => encode_authorize_request(items),
            Decoded::AuthorizeResponse(replies) => encode_authorize_response(replies),
            Decoded::Register(body) => body.to_json(),
            Decoded::Registration(body) => body.to_json(),
            Decoded::Delegate(body) => body.to_json(),
        }
    }

    /// Decodes `json` with the decoder of `self`'s kind.
    fn decode_as(&self, json: &str) -> Result<Decoded, WireError> {
        Ok(match self {
            Decoded::Decision(_) => Decoded::Decision(DecisionBody::from_json(json)?),
            Decoded::Unchanged(_) => Decoded::Unchanged(UnchangedBody::from_json(json)?),
            Decoded::Sieve(_) => Decoded::Sieve(SieveBody::from_json(json)?),
            Decoded::Delta(_) => Decoded::Delta(SieveDeltaBody::from_json(json)?),
            Decoded::BatchRequest(_) => Decoded::BatchRequest(parse_batch_request(json)?),
            Decoded::BatchResponse(_) => Decoded::BatchResponse(parse_batch_response(json)?),
            Decoded::AuthorizeRequest(_) => {
                Decoded::AuthorizeRequest(parse_authorize_request(json)?)
            }
            Decoded::AuthorizeResponse(_) => {
                Decoded::AuthorizeResponse(parse_authorize_response(json)?)
            }
            Decoded::Register(_) => Decoded::Register(RegisterBody::from_json(json)?),
            Decoded::Registration(_) => Decoded::Registration(RegistrationReply::from_json(json)?),
            Decoded::Delegate(_) => Decoded::Delegate(DelegateReply::from_json(json)?),
        })
    }

    /// Every decoding of `json` by the decoders that read `self`'s kind:
    /// its own decoder and, for decision and push bodies, the one-pass
    /// decoder the Host runs on that route.
    fn decodings(&self, json: &str) -> Vec<Decoded> {
        let one_pass = match self {
            Decoded::Decision(_) | Decoded::Unchanged(_) => {
                parse_decision_reply(json).ok().map(|reply| match reply {
                    DecisionReply::Decision(body) => Decoded::Decision(body),
                    DecisionReply::Unchanged(body) => Decoded::Unchanged(body),
                })
            }
            Decoded::Sieve(_) | Decoded::Delta(_) => {
                parse_push_body(json).ok().map(|body| match body {
                    PushBody::Sieve(body) => Decoded::Sieve(body),
                    PushBody::Delta(body) => Decoded::Delta(body),
                })
            }
            _ => None,
        };
        self.decode_as(json)
            .ok()
            .into_iter()
            .chain(one_pass)
            .collect()
    }

    /// The body with its signature dropped: what a signed body vouches
    /// for. Two bodies that differ only in how their signature is spelled
    /// (hex case) grant the same.
    fn unsigned(&self) -> Decoded {
        let mut body = self.clone();
        match &mut body {
            Decoded::Sieve(body) => body.sig.clear(),
            Decoded::Delta(body) => body.sig.clear(),
            _ => {}
        }
        body
    }

    /// Whether `self`, decoded from a corrupted copy of `original`,
    /// grants something `original` did not: a permit where there was
    /// none, a token where the AM gave none, or a verifying signed body
    /// that vouches for other content. Requests and registration replies
    /// grant nothing by themselves: the AM judges every request.
    fn widens(&self, original: &Decoded) -> bool {
        match (self, original) {
            (_, Decoded::Decision(body)) => self.grants() && !body.is_permit(),
            (Decoded::BatchResponse(got), Decoded::BatchResponse(was)) => {
                got.iter().enumerate().any(|(i, decision)| {
                    decision.is_permit() && !was.get(i).is_some_and(DecisionBody::is_permit)
                })
            }
            (Decoded::AuthorizeResponse(got), Decoded::AuthorizeResponse(was)) => got
                .iter()
                .enumerate()
                .any(|(i, reply)| is_token(reply) && !was.get(i).is_some_and(is_token)),
            (_, Decoded::Sieve(_) | Decoded::Delta(_)) => {
                self.grants() && self.unsigned() != original.unsigned()
            }
            _ => false,
        }
    }

    /// Whether accepting this body would widen access: a permit decision,
    /// an unchanged reply (it re-arms a cached permit), a signed push
    /// body that verifies under [`KEY`], or a batch carrying a permit or
    /// a token.
    fn grants(&self) -> bool {
        match self {
            Decoded::Decision(body) => body.is_permit(),
            Decoded::Unchanged(_) => true,
            Decoded::Sieve(body) => body.verify(KEY),
            Decoded::Delta(body) => body.verify(KEY),
            Decoded::BatchResponse(decisions) => decisions.iter().any(DecisionBody::is_permit),
            Decoded::AuthorizeResponse(replies) => replies.iter().any(is_token),
            _ => false,
        }
    }
}

fn is_token(reply: &AuthorizeReply) -> bool {
    matches!(reply, AuthorizeReply::Token(_))
}

/// Feeds `json` to all eleven decoders and the two one-pass decoders
/// built on them; none may panic. Returns how many accepted it.
fn decode_all(json: &str) -> usize {
    [
        DecisionBody::from_json(json).is_ok(),
        UnchangedBody::from_json(json).is_ok(),
        parse_decision_reply(json).is_ok(),
        SieveBody::from_json(json).is_ok(),
        SieveDeltaBody::from_json(json).is_ok(),
        parse_push_body(json).is_ok(),
        parse_batch_request(json).is_ok(),
        parse_batch_response(json).is_ok(),
        parse_authorize_request(json).is_ok(),
        parse_authorize_response(json).is_ok(),
        RegisterBody::from_json(json).is_ok(),
        RegistrationReply::from_json(json).is_ok(),
        DelegateReply::from_json(json).is_ok(),
    ]
    .into_iter()
    .filter(|ok| *ok)
    .count()
}

fn entry(token: &str, resource: &str, expires_at_ms: u64) -> SieveEntry {
    SieveEntry {
        fingerprint: sieve_fingerprint(token, resource, "read", "req"),
        resource: resource.to_owned(),
        expires_at_ms,
    }
}

fn batch_item(text: &str) -> BatchItem {
    BatchItem {
        token: text.to_owned(),
        resource: text.to_owned(),
        action: text.to_owned(),
        requester: text.to_owned(),
    }
}

fn authorize_item(text: &str) -> AuthorizeItem {
    AuthorizeItem {
        owner: text.to_owned(),
        resource: text.to_owned(),
        action: text.to_owned(),
    }
}

/// One reply of every [`AuthorizeReply`] variant, carrying `text`.
fn every_reply(text: &str) -> Vec<AuthorizeReply> {
    vec![
        AuthorizeReply::Token(text.to_owned()),
        AuthorizeReply::Denied(text.to_owned()),
        AuthorizeReply::Pending(text.to_owned()),
        AuthorizeReply::NeedsClaims(vec![text.to_owned(), "age".to_owned()]),
        AuthorizeReply::NeedsClaims(Vec::new()),
        AuthorizeReply::Error(text.to_owned()),
    ]
}

/// The v2 batch and registration bodies with `text` in every string
/// field (a registration `kind` only parses as `host` or `requester`).
fn v2_bodies_with(text: &str) -> Vec<Decoded> {
    vec![
        Decoded::BatchRequest(vec![batch_item(text), batch_item("tok-2")]),
        Decoded::BatchRequest(Vec::new()),
        Decoded::BatchResponse(vec![
            DecisionBody::permit(60_000, 7),
            DecisionBody::deny(text),
            DecisionBody::error(text),
        ]),
        Decoded::AuthorizeRequest(vec![authorize_item(text), authorize_item("bob")]),
        Decoded::AuthorizeResponse(every_reply(text)),
        Decoded::AuthorizeResponse(Vec::new()),
        Decoded::Register(RegisterBody {
            kind: "host".to_owned(),
            authority: text.to_owned(),
        }),
        Decoded::Register(RegisterBody {
            kind: "requester".to_owned(),
            authority: text.to_owned(),
        }),
        Decoded::Registration(RegistrationReply {
            registrant_id: text.to_owned(),
            secret: text.to_owned(),
        }),
        Decoded::Delegate(DelegateReply {
            delegation_id: text.to_owned(),
            host_token: text.to_owned(),
        }),
    ]
}

/// One canonical body of every kind, with `text` as the owner, every
/// resource and the deny reason, and in every string field of the v2
/// bodies.
fn bodies_with(text: &str) -> Vec<Decoded> {
    let entries = vec![entry("tok-1", text, 60_000), entry("tok-2", text, 90_000)];
    let dead = vec![sieve_fingerprint("tok-3", text, "write", "req")];
    vec![
        Decoded::Decision(DecisionBody::permit(60_000, 7)),
        Decoded::Decision(DecisionBody::deny(text)),
        Decoded::Decision(DecisionBody::error(text)),
        Decoded::Unchanged(UnchangedBody {
            cacheable_ms: 60_000,
        }),
        Decoded::Sieve(SieveBody::build(
            text,
            7,
            entries.clone(),
            &HmacKey::new(KEY),
        )),
        Decoded::Sieve(SieveBody::build(text, 0, Vec::new(), &HmacKey::new(KEY))),
        Decoded::Delta(SieveDeltaBody::build(
            text,
            8,
            7,
            entries,
            dead,
            &HmacKey::new(KEY),
        )),
    ]
    .into_iter()
    .chain(v2_bodies_with(text))
    .collect()
}

/// The canonical corpus: every body kind over every [`AWKWARD`] string.
fn corpus() -> Vec<Decoded> {
    AWKWARD.iter().flat_map(|text| bodies_with(text)).collect()
}

#[test]
fn canonical_bodies_round_trip_exactly() {
    for body in corpus() {
        let json = body.to_json();
        let back = body
            .decode_as(&json)
            .unwrap_or_else(|err| panic!("{json:?} failed to decode: {err}"));
        assert_eq!(back, body, "{json:?} did not round-trip");
        for decoded in body.decodings(&json) {
            assert_eq!(decoded, body, "{json:?} decoded as another kind");
        }
        assert_eq!(back.to_json(), json, "re-encoding {json:?} moved bytes");
        if matches!(body, Decoded::Sieve(_) | Decoded::Delta(_)) {
            assert!(back.grants(), "{json:?} no longer verifies after decoding");
        }
    }
}

/// Every strict prefix of a canonical body is a truncation and must be a
/// typed error for every decoder. The decoders take `&str`, so a cut
/// inside a multi-byte scalar is handed over as a replacement character.
#[test]
fn truncation_at_every_byte_is_a_wire_error() {
    for body in corpus() {
        let json = body.to_json();
        let bytes = json.as_bytes();
        for cut in 0..bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            assert_eq!(
                decode_all(&prefix),
                0,
                "a decoder accepted {json:?} truncated at byte {cut}"
            );
        }
    }
}

/// Flipping any one byte either breaks the body (a typed error) or
/// leaves one that grants nothing new: a signed body that still decodes
/// must stop verifying unless it vouches for the very same content (a
/// hex digit flipped to its other case), and a deny never becomes a
/// permit.
#[test]
fn single_byte_flips_never_widen_access() {
    for body in corpus() {
        let json = body.to_json();
        for pos in 0..json.len() {
            for mask in [0x01u8, 0x20, 0x80, 0xff] {
                let mut bytes = json.clone().into_bytes();
                bytes[pos] ^= mask;
                let flipped = String::from_utf8_lossy(&bytes);
                decode_all(&flipped);
                for decoded in body.decodings(&flipped) {
                    assert!(
                        !decoded.widens(&body),
                        "flipping byte {pos} of {json:?} with {mask:#04x} widened access: {flipped:?}"
                    );
                }
            }
        }
    }
}

/// Every escape the decoder accepts maps to its character inside owner,
/// resource and reason strings alike — including `\/` and `\u` escapes
/// the encoder never emits — and a malformed escape is a typed error.
#[test]
fn every_escape_decodes_in_every_string_field() {
    let escapes: &[(&str, char)] = &[
        ("\\\"", '"'),
        ("\\\\", '\\'),
        ("\\/", '/'),
        ("\\b", '\u{8}'),
        ("\\f", '\u{c}'),
        ("\\n", '\n'),
        ("\\r", '\r'),
        ("\\t", '\t'),
        ("\\u0000", '\0'),
        ("\\u001f", '\u{1f}'),
        ("\\u00e9", 'é'),
        ("\\u00E9", 'é'),
        ("\\u65e5", '日'),
    ];
    for (escape, ch) in escapes {
        let text = format!("a{escape}é日本🦀b");
        let want = format!("a{ch}é日本🦀b");

        let reason = format!("{{\"decision\":\"deny\",\"reason\":\"{text}\"}}");
        let decision = DecisionBody::from_json(&reason).expect("deny with an escaped reason");
        assert_eq!(decision.reason.as_deref(), Some(want.as_str()), "{reason}");
        assert!(!decision.is_permit());

        let fp = "00112233445566778899aabbccddeeff";
        let sieve = format!(
            "{{\"owner\":\"{text}\",\"epoch\":3,\"entries\":[[\"{fp}\",60000,\"{text}\"]],\"sig\":\"\"}}"
        );
        let sieve = SieveBody::from_json(&sieve).expect("sieve with escaped strings");
        assert_eq!(sieve.owner, want);
        assert_eq!(sieve.entries[0].resource, want);
        assert!(!sieve.verify(KEY), "an unsigned sieve must not verify");

        let t = format!("\"{text}\"");
        let batch =
            format!("[{{\"token\":{t},\"resource\":{t},\"action\":{t},\"requester\":{t}}}]");
        assert_eq!(
            parse_batch_request(&batch),
            Ok(vec![batch_item(&want)]),
            "{batch}"
        );
        let decisions = format!("[{{\"decision\":\"deny\",\"reason\":{t}}}]");
        let decisions = parse_batch_response(&decisions).expect("batch with an escaped reason");
        assert_eq!(decisions, vec![DecisionBody::deny(&want)]);
        let authorize = format!("[{{\"owner\":{t},\"resource\":{t},\"action\":{t}}}]");
        let authorize = parse_authorize_request(&authorize);
        assert_eq!(authorize, Ok(vec![authorize_item(&want)]));
        let replies = format!(
            "[{{\"token\":{t}}},{{\"denied\":{t}}},{{\"pending\":{t}}},\
             {{\"claims\":[{t},\"age\"]}},{{\"claims\":[]}},{{\"error\":{t}}}]"
        );
        assert_eq!(parse_authorize_response(&replies), Ok(every_reply(&want)));
        let register = format!("{{\"kind\":\"h\\u006fst\",\"authority\":{t}}}");
        let register = RegisterBody::from_json(&register).expect("escaped registration");
        assert_eq!(
            (register.kind.as_str(), register.authority),
            ("host", want.clone())
        );
        let registration = format!("{{\"registrant_id\":{t},\"secret\":{t}}}");
        let registration = RegistrationReply::from_json(&registration).expect("escaped reply");
        assert_eq!(
            (registration.registrant_id, registration.secret),
            (want.clone(), want.clone())
        );
        let delegate = format!("{{\"delegation_id\":{t},\"host_token\":{t}}}");
        let delegate = DelegateReply::from_json(&delegate).expect("escaped delegate reply");
        assert_eq!(
            (delegate.delegation_id, delegate.host_token),
            (want.clone(), want)
        );
    }
    let malformed = [
        "\\x",
        "\\u12",
        "\\u12g4",
        "\\ud800",
        "\\",
        "\\u",
        "trailing\\",
    ];
    for escape in malformed {
        let t = format!("\"{escape}\"");
        for body in [
            format!("{{\"decision\":\"deny\",\"reason\":{t}}}"),
            format!(
                "[{{\"token\":{t},\"resource\":\"r\",\"action\":\"read\",\"requester\":\"q\"}}]"
            ),
            format!("[{{\"owner\":{t},\"resource\":\"r\",\"action\":\"read\"}}]"),
            format!("[{{\"token\":{t}}}]"),
            format!("[{{\"claims\":[{t}]}}]"),
            format!("{{\"kind\":\"host\",\"authority\":{t}}}"),
            format!("{{\"registrant_id\":{t},\"secret\":\"s\"}}"),
            format!("{{\"delegation_id\":\"d\",\"host_token\":{t}}}"),
        ] {
            assert_eq!(
                decode_all(&body),
                0,
                "{body:?} decoded despite a malformed escape"
            );
        }
    }
}

/// A batch of `MAX_BATCH` items decodes in either direction; one item
/// more is a typed error for all four batch decoders.
#[test]
fn batches_one_over_the_cap_are_wire_errors() {
    let items: Vec<BatchItem> = (0..=MAX_BATCH)
        .map(|i| batch_item(&format!("t{i}")))
        .collect();
    let owners: Vec<AuthorizeItem> = (0..=MAX_BATCH)
        .map(|i| authorize_item(&format!("u{i}")))
        .collect();
    let decisions = vec![DecisionBody::permit(60_000, 7); MAX_BATCH + 1];
    let replies: Vec<AuthorizeReply> = every_reply("x")
        .into_iter()
        .cycle()
        .take(MAX_BATCH + 1)
        .collect();
    let full = [
        Decoded::BatchRequest(items[..MAX_BATCH].to_vec()),
        Decoded::BatchResponse(decisions[..MAX_BATCH].to_vec()),
        Decoded::AuthorizeRequest(owners[..MAX_BATCH].to_vec()),
        Decoded::AuthorizeResponse(replies[..MAX_BATCH].to_vec()),
    ];
    let over = [
        Decoded::BatchRequest(items),
        Decoded::BatchResponse(decisions),
        Decoded::AuthorizeRequest(owners),
        Decoded::AuthorizeResponse(replies),
    ];
    for (full, over) in full.iter().zip(&over) {
        assert_eq!(full.decode_as(&full.to_json()).as_ref(), Ok(full));
        let json = over.to_json();
        assert!(
            over.decode_as(&json).is_err(),
            "{json:?} decoded past the cap"
        );
        assert_eq!(decode_all(&json), 0);
    }
}

/// Nesting far past the decoder's depth bound is a typed error, not a
/// stack overflow: every decoder refuses 100,000 nested arrays and
/// 100,000 nested objects on a thread with a 256 KiB stack.
#[test]
fn deep_nesting_is_a_wire_error_on_a_small_stack() {
    const DEPTH: usize = 100_000;
    let arrays = format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let objects = format!("{}0{}", "{\"a\":".repeat(DEPTH), "}".repeat(DEPTH));
    let unclosed = "[{\"a\":".repeat(DEPTH);
    let accepted = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            [arrays, objects, unclosed]
                .iter()
                .map(|json| decode_all(json))
                .sum::<usize>()
        })
        .expect("spawn a small-stack thread")
        .join()
        .expect("a decoder overflowed the stack");
    assert_eq!(accepted, 0);
}

/// A 4 MiB batch of tiny items is refused at item `MAX_BATCH + 1`
/// instead of being parsed whole first. A decoder that builds the whole
/// array before counting it takes about 250 ms per call here unoptimised
/// (2-core x86-64 box) and holds every item in memory first; stopping
/// early takes microseconds.
#[test]
fn a_4_mib_batch_over_the_cap_is_refused_without_reading_it() {
    let mut body = String::with_capacity(4 * 1024 * 1024 + 2);
    body.push('[');
    while body.len() < 4 * 1024 * 1024 {
        body.push_str("0,");
    }
    body.push_str("0]");
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        assert!(parse_batch_request(&body).is_err());
        assert!(parse_authorize_request(&body).is_err());
        assert!(parse_batch_response(&body).is_err());
        assert!(parse_authorize_response(&body).is_err());
        fastest = fastest.min(start.elapsed());
    }
    assert!(
        fastest < Duration::from_millis(50),
        "refusing a {} byte batch took {fastest:?}",
        body.len()
    );
}

/// A body whose string field is 256 KiB long decodes in time linear in
/// its size. A decoder that re-validates the rest of the body for every
/// string character is quadratic and takes over a second here even
/// optimised; a linear one takes under a millisecond optimised, so the
/// bound holds in an unoptimised build with a wide margin.
#[test]
fn a_256_kib_string_field_decodes_in_linear_time() {
    const TARGET: usize = 256 * 1024;
    let unit = "plain ascii text, é 日本 🦀 \"quoted\" \\ and a newline\n";
    let mut reason = String::with_capacity(TARGET + unit.len());
    while reason.len() < TARGET {
        reason.push_str(unit);
    }
    let json = DecisionBody::deny(&reason).to_json();
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let body = DecisionBody::from_json(&json).expect("large deny decodes");
        fastest = fastest.min(start.elapsed());
        assert_eq!(body.reason.as_deref(), Some(reason.as_str()));
    }
    assert!(
        fastest < Duration::from_millis(250),
        "decoding a {} byte body took {fastest:?}",
        json.len()
    );
}

proptest! {
    /// Generated owners, resources and reasons — printable UTF-8 mixed
    /// with quotes, backslashes and control characters — round-trip
    /// through every body kind.
    #[test]
    fn generated_bodies_round_trip(
        owner in "[\\PC\\u{0}-\\u{1f}\"\\\\]{0,24}",
        resource in "[\\PC\\u{0}-\\u{1f}\"\\\\]{0,24}",
        reason in "[\\PC\\u{0}-\\u{1f}\"\\\\]{0,48}",
        epoch in any::<u64>(),
        expires in any::<u64>(),
    ) {
        let entries = vec![entry(&owner, &resource, expires), entry(&reason, &resource, epoch)];
        let dead = vec![sieve_fingerprint(&reason, &resource, "read", &owner)];
        let bodies = [
            Decoded::Decision(DecisionBody::permit(expires, epoch)),
            Decoded::Decision(DecisionBody::deny(&reason)),
            Decoded::Unchanged(UnchangedBody { cacheable_ms: expires }),
            Decoded::Sieve(SieveBody::build(&owner, epoch, entries.clone(), &HmacKey::new(KEY))),
            Decoded::Delta(SieveDeltaBody::build(&owner, epoch, expires, entries, dead, &HmacKey::new(KEY))),
            Decoded::BatchRequest(vec![batch_item(&owner), batch_item(&resource)]),
            Decoded::BatchResponse(vec![DecisionBody::permit(expires, epoch), DecisionBody::deny(&reason)]),
            Decoded::AuthorizeRequest(vec![authorize_item(&owner), authorize_item(&resource)]),
            Decoded::AuthorizeResponse(every_reply(&reason)),
        ];
        let nonempty = |s: &str| if s.is_empty() { "x".to_owned() } else { s.to_owned() };
        let (owner, reason) = (nonempty(&owner), nonempty(&reason));
        let credentials = [
            Decoded::Register(RegisterBody { kind: "host".to_owned(), authority: owner.clone() }),
            Decoded::Registration(RegistrationReply { registrant_id: owner.clone(), secret: reason.clone() }),
            Decoded::Delegate(DelegateReply { delegation_id: reason, host_token: owner }),
        ];
        for body in bodies.into_iter().chain(credentials) {
            let json = body.to_json();
            let back = body.decode_as(&json);
            prop_assert!(back.as_ref() == Ok(&body), "{json:?} decoded to {back:?}");
        }
    }

    /// Random bytes never panic any decoder, and noise that happens to be
    /// valid JSON still has to name every required field to decode.
    #[test]
    fn random_noise_never_panics_a_decoder(
        noise in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        decode_all(&String::from_utf8_lossy(&noise));
    }

    /// A random run of bytes spliced into a canonical body either breaks
    /// it or leaves a body that grants nothing new.
    #[test]
    fn spliced_noise_never_widens_access(
        pick in any::<u64>(),
        at in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let corpus = corpus();
        let body = &corpus[(pick % corpus.len() as u64) as usize];
        let mut bytes = body.to_json().into_bytes();
        let at = (at % bytes.len() as u64) as usize;
        let end = (at + noise.len()).min(bytes.len());
        bytes.splice(at..end, noise.iter().copied());
        let spliced = String::from_utf8_lossy(&bytes);
        decode_all(&spliced);
        for decoded in body.decodings(&spliced) {
            prop_assert!(!decoded.widens(body), "splice at {at} widened access: {spliced:?}");
        }
    }
}

/// The two-step classification [`parse_decision_reply`] replaced: the
/// unchanged form first, the decision form second, each a full parse.
fn two_step_decision_reply(json: &str) -> Option<DecisionReply> {
    if let Ok(body) = UnchangedBody::from_json(json) {
        return Some(DecisionReply::Unchanged(body));
    }
    DecisionBody::from_json(json)
        .ok()
        .map(DecisionReply::Decision)
}

/// The two-step classification [`parse_push_body`] replaced: the delta
/// form first, the full form second, each a full parse.
fn two_step_push_body(json: &str) -> Option<PushBody> {
    if let Ok(delta) = SieveDeltaBody::from_json(json) {
        return Some(PushBody::Delta(delta));
    }
    SieveBody::from_json(json).ok().map(PushBody::Sieve)
}

/// Each field a decision reply may carry, with the values a sweep tries:
/// the first well-typed, the rest ill-typed or out of range. Both reply
/// kinds' fields are here, so a body can carry `unchanged` and
/// `decision` at once.
const REPLY_FIELDS: &[(&str, &[&str])] = &[
    ("unchanged", &["true", "false", "1", "\"true\"", "null"]),
    (
        "cacheable_ms",
        &[
            "60000",
            "0",
            "-1",
            "1.5",
            "\"60000\"",
            "null",
            "18446744073709551616",
        ],
    ),
    (
        "decision",
        &["\"permit\"", "\"deny\"", "\"error\"", "7", "null"],
    ),
    ("policy_epoch", &["3", "\"3\""]),
    ("reason", &["\"r\"", "5"]),
    ("extra", &["[1,{\"a\":2}]"]),
];

/// A sieve entry triple and a fingerprint, as push bodies spell them.
const ENTRY: &str = "[[\"00112233445566778899aabbccddeeff\",60000,\"r1\"]]";
const REMOVED: &str = "[\"00112233445566778899aabbccddeeff\"]";

/// Each field a push body may carry, as [`REPLY_FIELDS`]: the shared
/// head and both body kinds' own fields, so a body can carry `entries`
/// and `added` at once.
const PUSH_FIELDS: &[(&str, &[&str])] = &[
    ("owner", &["\"bob\"", "7"]),
    ("epoch", &["8", "-8", "\"8\""]),
    ("sig", &["\"00\"", "null"]),
    ("base_epoch", &["7", "\"7\"", "null"]),
    ("entries", &[ENTRY, "[]", "[[\"0011\",60000,\"r1\"]]", "{}"]),
    (
        "added",
        &[
            ENTRY,
            "[]",
            "[[\"00112233445566778899aabbccddeeff\",-1,\"r1\"]]",
        ],
    ),
    ("removed", &[REMOVED, "[]", "[7]"]),
];

/// A body with one entry per field of `fields`, chosen by `choices`: 0
/// leaves the field out, 1 to 9 give its well-typed value, anything
/// higher one of its values by index. The fields are rotated by
/// `rotate`, a repeat of field `dup` (if any) with its last value is
/// appended (a decoder reads the first), and `shape` wraps the object:
/// inside an array, with trailing bytes, or plain.
fn body_of(
    fields: &[(&str, &[&str])],
    choices: &[usize],
    rotate: usize,
    dup: usize,
    shape: u8,
) -> String {
    let mut members: Vec<String> = fields
        .iter()
        .zip(choices)
        .filter(|(_, &choice)| choice > 0)
        .map(|((name, values), &choice)| {
            let value = if choice < 10 {
                values[0]
            } else {
                values[choice % values.len()]
            };
            format!("\"{name}\":{value}")
        })
        .collect();
    if !members.is_empty() {
        let by = rotate % members.len();
        members.rotate_left(by);
    }
    if let Some((name, values)) = fields.get(dup) {
        members.push(format!("\"{name}\":{}", values[values.len() - 1]));
    }
    let object = format!("{{{}}}", members.join(","));
    match shape {
        0 => format!("[{object}]"),
        1 => format!("{object}x"),
        _ => object,
    }
}

proptest! {
    /// One pass accepts exactly the bodies the two-step classification
    /// accepted, and reads each as the same reply.
    #[test]
    fn one_pass_decision_reply_matches_the_two_step_reference(
        choices in proptest::collection::vec(0usize..16, 6),
        rotate in 0usize..6,
        dup in 0usize..12,
        shape in 0u8..6,
    ) {
        let json = body_of(REPLY_FIELDS, &choices, rotate, dup, shape);
        prop_assert_eq!(parse_decision_reply(&json).ok(), two_step_decision_reply(&json), "{}", json);
    }

    /// One pass accepts exactly the push bodies the two-step
    /// classification accepted, and reads each as the same kind.
    #[test]
    fn one_pass_push_body_matches_the_two_step_reference(
        choices in proptest::collection::vec(0usize..16, 7),
        rotate in 0usize..7,
        dup in 0usize..14,
        shape in 0u8..6,
    ) {
        let json = body_of(PUSH_FIELDS, &choices, rotate, dup, shape);
        prop_assert_eq!(parse_push_body(&json).ok(), two_step_push_body(&json), "{}", json);
    }
}

/// Mixed bodies classify as the two-step order did: a well-formed
/// unchanged reply wins over a `decision` beside it, an `unchanged` that
/// is not one leaves the body to the decision rules, and a push body
/// that is a well-formed delta is a delta even with `entries` beside it.
#[test]
fn one_pass_decoders_classify_mixed_bodies() {
    let unchanged = r#"{"unchanged":true,"cacheable_ms":60000,"decision":"deny"}"#;
    assert_eq!(
        parse_decision_reply(unchanged),
        Ok(DecisionReply::Unchanged(UnchangedBody {
            cacheable_ms: 60_000
        }))
    );
    let permit = r#"{"decision":"permit","unchanged":true}"#;
    assert!(matches!(
        parse_decision_reply(permit),
        Ok(DecisionReply::Decision(body)) if body.is_permit()
    ));
    for refused in [
        r#"{"unchanged":true,"cacheable_ms":-1,"decision":"permit"}"#,
        r#"{"unchanged":1,"cacheable_ms":5}"#,
    ] {
        assert!(parse_decision_reply(refused).is_err(), "{refused}");
    }

    let head = r#""owner":"bob","epoch":8,"sig":"00""#;
    let delta = format!(r#""base_epoch":7,"added":{ENTRY},"removed":{REMOVED}"#);
    let sieve = format!("{{{head},\"entries\":{ENTRY}}}");
    assert!(matches!(parse_push_body(&sieve), Ok(PushBody::Sieve(_))));
    for delta in [
        format!("{{{head},{delta}}}"),
        format!("{{{head},\"entries\":{ENTRY},{delta}}}"),
    ] {
        assert!(
            matches!(parse_push_body(&delta), Ok(PushBody::Delta(_))),
            "{delta}"
        );
    }
    let half_delta = format!("{{{head},\"entries\":{ENTRY},\"base_epoch\":\"7\",\"added\":[]}}");
    assert!(matches!(
        parse_push_body(&half_delta),
        Ok(PushBody::Sieve(_))
    ));
    assert!(parse_push_body(&format!("{{{head}}}")).is_err());
}
