//! The Authorization Manager's token service.
//!
//! Two token kinds exist in the protocol:
//!
//! * **Host access tokens** seal the Host↔AM trust relationship established
//!   during delegation (Fig. 3): "communication between a Host and an
//!   Authorization Manager is secure … achieved using an access token that
//!   is generated by AM and obtained by a Host" (§V.B.1).
//! * **Authorization tokens** are issued to Requesters after policy
//!   evaluation (Fig. 5): "this authorization token refers to a particular
//!   resource or a group of resources (realm) and a particular Requester …
//!   bound to the access request and cannot be used to access other
//!   resources protected by this particular AM" (§V.B.3).
//!
//! Both are HMAC-sealed key/value payloads, opaque to every party except
//! the issuing AM.

use std::borrow::Cow;
use std::fmt;

use ucam_crypto::SigningKey;
use ucam_webenv::SimClock;

/// Default authorization-token lifetime (15 simulated minutes).
pub const AUTHZ_TOKEN_TTL_MS: u64 = 15 * 60 * 1000;

/// An error validating a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// Signature or structure invalid (forged/tampered/wrong AM).
    Invalid,
    /// The token is structurally fine but past its expiry.
    Expired,
    /// The token is of a different kind than required.
    WrongKind {
        /// Kind the caller expected.
        expected: &'static str,
        /// Kind found in the token.
        found: String,
    },
    /// The token is bound to a different resource/realm/host/requester than
    /// the one in the request (§V.B.3's binding property).
    BindingMismatch(String),
    /// The token has been revoked (trust withdrawn).
    Revoked,
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::Invalid => f.write_str("invalid token"),
            TokenError::Expired => f.write_str("expired token"),
            TokenError::WrongKind { expected, found } => {
                write!(f, "wrong token kind: expected {expected}, found {found}")
            }
            TokenError::BindingMismatch(what) => write!(f, "token binding mismatch: {what}"),
            TokenError::Revoked => f.write_str("revoked token"),
        }
    }
}

impl std::error::Error for TokenError {}

/// Appends `value` to `out` with `%`, `;` and `=` escaped, so arbitrary
/// values survive the k=v encoding.
fn escape_into(out: &mut String, value: &str) {
    let mut rest = value;
    while let Some(at) = rest.find(['%', ';', '=']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'%' => "%25",
            b';' => "%3B",
            _ => "%3D",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Reverses [`escape_into`] in one pass. A value without a `%` is
/// returned borrowed; a `%` that starts none of the three escapes is kept
/// as it is.
fn unescape(value: &str) -> Cow<'_, str> {
    if !value.contains('%') {
        return Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len());
    let mut rest = value;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let (decoded, len) = match rest.as_bytes().get(at + 1..at + 3) {
            Some(b"3B") => (';', 3),
            Some(b"3D") => ('=', 3),
            Some(b"25") => ('%', 3),
            _ => ('%', 1),
        };
        out.push(decoded);
        rest = &rest[at + len..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Encodes `fields` as `k=v` pairs joined by `;`, into one `String`.
fn encode_fields(fields: &[(&str, &str)]) -> String {
    let len = fields.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
    let mut out = String::with_capacity(len);
    for (k, v) in fields {
        if !out.is_empty() {
            out.push(';');
        }
        out.push_str(k);
        out.push('=');
        escape_into(&mut out, v);
    }
    out
}

/// The first value of each of `keys` among a token payload's `k=v`
/// fields, borrowed from the payload text and still escaped. One pass
/// over the payload, no allocation.
fn fields<'p, const N: usize>(payload: &'p str, keys: [&str; N]) -> [Option<&'p str>; N] {
    let mut found = [None; N];
    for (key, value) in payload.split(';').filter_map(|pair| pair.split_once('=')) {
        if let Some(i) = keys.iter().position(|k| *k == key) {
            found[i].get_or_insert(value);
        }
    }
    found
}

/// A required field's unescaped value, borrowed unless it held a `%`.
fn required(value: Option<&str>) -> Result<Cow<'_, str>, TokenError> {
    value.map(unescape).ok_or(TokenError::Invalid)
}

/// Checks a payload's `kind` field against the kind the caller opens.
fn expect_kind(kind: Option<&str>, expected: &'static str) -> Result<(), TokenError> {
    match kind.map(unescape) {
        Some(k) if k == expected => Ok(()),
        Some(k) => Err(TokenError::WrongKind {
            expected,
            found: k.into_owned(),
        }),
        None => Err(TokenError::Invalid),
    }
}

/// A millisecond timestamp field.
fn parse_ms(value: Option<&str>) -> Result<u64, TokenError> {
    required(value)?.parse().map_err(|_| TokenError::Invalid)
}

/// The parsed contents of a host access token. A validated grant
/// borrows its fields from the opened payload; `HostGrant<'static>`
/// ([`HostGrant::into_owned`]) owns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostGrant<'a> {
    /// The Host authority the delegation covers.
    pub host: Cow<'a, str>,
    /// The User who delegated access control.
    pub user: Cow<'a, str>,
    /// Issue time (ms).
    pub issued_at_ms: u64,
    /// Unique id of the delegation, used for revocation.
    pub delegation_id: Cow<'a, str>,
}

impl HostGrant<'_> {
    /// The grant with every field owned.
    #[must_use]
    pub fn into_owned(self) -> HostGrant<'static> {
        HostGrant {
            host: Cow::Owned(self.host.into_owned()),
            user: Cow::Owned(self.user.into_owned()),
            issued_at_ms: self.issued_at_ms,
            delegation_id: Cow::Owned(self.delegation_id.into_owned()),
        }
    }
}

/// The parsed contents of an authorization token (§V.B.3). A validated
/// grant borrows its fields from the opened payload; issuance stores
/// `AuthzGrant<'static>` ([`AuthzGrant::into_owned`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthzGrant<'a> {
    /// The realm (resource group) the token covers, if the resource
    /// belongs to one.
    pub realm: Option<Cow<'a, str>>,
    /// The specific resource the access request targeted.
    pub resource_id: Cow<'a, str>,
    /// The Host storing the resource.
    pub host: Cow<'a, str>,
    /// The label of the Requester the token is bound to.
    pub requester: Cow<'a, str>,
    /// The authenticated human subject driving the requester, if any.
    pub subject: Option<Cow<'a, str>>,
    /// Resource owner whose policies apply.
    pub owner: Cow<'a, str>,
    /// Expiry (ms).
    pub expires_at_ms: u64,
}

impl AuthzGrant<'_> {
    /// The grant with every field owned.
    #[must_use]
    pub fn into_owned(self) -> AuthzGrant<'static> {
        let own = |value: Cow<'_, str>| Cow::Owned(value.into_owned());
        AuthzGrant {
            realm: self.realm.map(own),
            resource_id: own(self.resource_id),
            host: own(self.host),
            requester: own(self.requester),
            subject: self.subject.map(own),
            owner: own(self.owner),
            expires_at_ms: self.expires_at_ms,
        }
    }
}

/// Mints and validates the AM's tokens. One service (and one secret key)
/// per Authorization Manager instance.
///
/// # Example
///
/// ```
/// use ucam_am::tokens::TokenService;
/// use ucam_webenv::SimClock;
///
/// let clock = SimClock::new();
/// let service = TokenService::new(clock.clone());
/// let token = service.mint_host_token("webpics.example", "bob", "d-1");
/// let mut payload = Vec::new();
/// let grant = service.validate_host_token(&token, &mut payload)?;
/// assert_eq!(grant.user, "bob");
/// # Ok::<(), ucam_am::tokens::TokenError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TokenService {
    key: SigningKey,
    clock: SimClock,
    ttl_ms: u64,
}

impl TokenService {
    /// Creates a service with a fresh random key and the default TTL.
    #[must_use]
    pub fn new(clock: SimClock) -> Self {
        TokenService {
            key: SigningKey::generate(),
            clock,
            ttl_ms: AUTHZ_TOKEN_TTL_MS,
        }
    }

    /// Overrides the authorization-token lifetime.
    #[must_use]
    pub fn with_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.ttl_ms = ttl_ms;
        self
    }

    /// Returns the configured authorization-token lifetime.
    #[must_use]
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// Mints the host access token sealing a delegation (Fig. 3).
    #[must_use]
    pub fn mint_host_token(&self, host: &str, user: &str, delegation_id: &str) -> String {
        let iat = self.clock.now_ms().to_string();
        let payload = encode_fields(&[
            ("kind", "host"),
            ("host", host),
            ("user", user),
            ("iat", &iat),
            ("del", delegation_id),
        ]);
        self.key.seal(payload.as_bytes())
    }

    /// Validates a host access token, opening it into `payload` (its
    /// contents replaced, its allocation reused); the grant borrows from
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`TokenError::Invalid`] or [`TokenError::WrongKind`].
    pub fn validate_host_token<'p>(
        &self,
        token: &str,
        payload: &'p mut Vec<u8>,
    ) -> Result<HostGrant<'p>, TokenError> {
        let [kind, host, user, iat, del] = fields(
            self.open(token, payload)?,
            ["kind", "host", "user", "iat", "del"],
        );
        expect_kind(kind, "host")?;
        Ok(HostGrant {
            host: required(host)?,
            user: required(user)?,
            issued_at_ms: parse_ms(iat)?,
            delegation_id: required(del)?,
        })
    }

    /// Mints an authorization token bound to the access request (Fig. 5).
    #[must_use]
    pub fn mint_authz_token(&self, grant: &AuthzGrant<'_>) -> String {
        let exp = grant.expires_at_ms.to_string();
        let nonce = ucam_crypto::random_token(8);
        let mut fields: Vec<(&str, &str)> = vec![
            ("kind", "authz"),
            ("res", &grant.resource_id),
            ("host", &grant.host),
            ("req", &grant.requester),
            ("owner", &grant.owner),
            ("exp", &exp),
            ("n", &nonce),
        ];
        if let Some(realm) = &grant.realm {
            fields.push(("realm", realm));
        }
        if let Some(subject) = &grant.subject {
            fields.push(("sub", subject));
        }
        let payload = encode_fields(&fields);
        self.key.seal(payload.as_bytes())
    }

    /// Builds the grant an authorization token will carry, stamping the
    /// configured expiry from the current simulated time.
    #[must_use]
    pub fn grant<'a>(
        &self,
        realm: Option<&'a str>,
        resource_id: &'a str,
        host: &'a str,
        requester: &'a str,
        subject: Option<&'a str>,
        owner: &'a str,
    ) -> AuthzGrant<'a> {
        AuthzGrant {
            realm: realm.map(Cow::Borrowed),
            resource_id: Cow::Borrowed(resource_id),
            host: Cow::Borrowed(host),
            requester: Cow::Borrowed(requester),
            subject: subject.map(Cow::Borrowed),
            owner: Cow::Borrowed(owner),
            expires_at_ms: self.clock.now_ms() + self.ttl_ms,
        }
    }

    /// Validates an authorization token and checks its §V.B.3 binding
    /// against the access request under decision. The token opens into
    /// `payload` (its contents replaced, its allocation reused); the
    /// grant borrows from it.
    ///
    /// # Errors
    ///
    /// * [`TokenError::Invalid`] — forged/tampered/not ours,
    /// * [`TokenError::Expired`] — past expiry,
    /// * [`TokenError::BindingMismatch`] — presented for a different
    ///   resource, host, or requester than it was minted for (a token for
    ///   `photo-1` cannot unlock `photo-2`).
    pub fn validate_authz_token<'p>(
        &self,
        token: &str,
        payload: &'p mut Vec<u8>,
        host: &str,
        resource_id: &str,
        requester: &str,
    ) -> Result<AuthzGrant<'p>, TokenError> {
        let [kind, res, token_host, req, owner, exp, realm, sub] = fields(
            self.open(token, payload)?,
            ["kind", "res", "host", "req", "owner", "exp", "realm", "sub"],
        );
        expect_kind(kind, "authz")?;
        let grant = AuthzGrant {
            realm: realm.map(unescape),
            resource_id: required(res)?,
            host: required(token_host)?,
            requester: required(req)?,
            subject: sub.map(unescape),
            owner: required(owner)?,
            expires_at_ms: parse_ms(exp)?,
        };
        if self.clock.now_ms() >= grant.expires_at_ms {
            return Err(TokenError::Expired);
        }
        if grant.host != host {
            return Err(TokenError::BindingMismatch(format!(
                "token bound to host {}, presented at {host}",
                grant.host
            )));
        }
        if grant.requester != requester {
            return Err(TokenError::BindingMismatch(format!(
                "token bound to requester {}, presented by {requester}",
                grant.requester
            )));
        }
        // A token unlocks its exact resource, or any resource in its realm
        // ("refers to a particular resource or a group of resources").
        if grant.resource_id != resource_id && grant.realm.is_none() {
            return Err(TokenError::BindingMismatch(format!(
                "token bound to resource {}, presented for {resource_id}",
                grant.resource_id
            )));
        }
        Ok(grant)
    }

    /// Verifies `token`'s MAC, opening it into `payload`, and returns the
    /// payload text.
    fn open<'p>(&self, token: &str, payload: &'p mut Vec<u8>) -> Result<&'p str, TokenError> {
        self.key
            .open_into(token, payload)
            .map_err(|_| TokenError::Invalid)?;
        std::str::from_utf8(payload).map_err(|_| TokenError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn service() -> (TokenService, SimClock) {
        let clock = SimClock::new();
        (TokenService::new(clock.clone()), clock)
    }

    /// [`TokenService::validate_host_token`] into a fresh buffer.
    fn host_grant(svc: &TokenService, token: &str) -> Result<HostGrant<'static>, TokenError> {
        svc.validate_host_token(token, &mut Vec::new())
            .map(HostGrant::into_owned)
    }

    /// [`TokenService::validate_authz_token`] into a fresh buffer.
    fn authz_grant(
        svc: &TokenService,
        token: &str,
        host: &str,
        resource_id: &str,
        requester: &str,
    ) -> Result<AuthzGrant<'static>, TokenError> {
        svc.validate_authz_token(token, &mut Vec::new(), host, resource_id, requester)
            .map(AuthzGrant::into_owned)
    }

    #[test]
    fn host_token_roundtrip() {
        let (svc, clock) = service();
        clock.advance_ms(42);
        let token = svc.mint_host_token("webpics.example", "bob", "d-7");
        let grant = host_grant(&svc, &token).unwrap();
        assert_eq!(grant.host, "webpics.example");
        assert_eq!(grant.user, "bob");
        assert_eq!(grant.issued_at_ms, 42);
        assert_eq!(grant.delegation_id, "d-7");
    }

    #[test]
    fn authz_token_roundtrip() {
        let (svc, _) = service();
        let grant = svc.grant(
            Some("trip-2009"),
            "photo-1",
            "webpics.example",
            "requester:editor",
            Some("alice"),
            "bob",
        );
        let token = svc.mint_authz_token(&grant);
        let back = authz_grant(
            &svc,
            &token,
            "webpics.example",
            "photo-1",
            "requester:editor",
        )
        .unwrap();
        assert_eq!(back, grant);
    }

    #[test]
    fn authz_token_expires() {
        let (svc, clock) = service();
        let grant = svc.grant(None, "r", "h", "req", None, "bob");
        let token = svc.mint_authz_token(&grant);
        clock.advance_ms(AUTHZ_TOKEN_TTL_MS + 1);
        assert_eq!(
            authz_grant(&svc, &token, "h", "r", "req"),
            Err(TokenError::Expired)
        );
    }

    #[test]
    fn authz_token_bound_to_resource() {
        let (svc, _) = service();
        let token = svc.mint_authz_token(&svc.grant(None, "photo-1", "h", "req", None, "bob"));
        assert!(matches!(
            authz_grant(&svc, &token, "h", "photo-2", "req"),
            Err(TokenError::BindingMismatch(_))
        ));
    }

    #[test]
    fn realm_token_covers_sibling_resources() {
        let (svc, _) = service();
        let token =
            svc.mint_authz_token(&svc.grant(Some("album"), "photo-1", "h", "req", None, "bob"));
        // Same realm, different resource: the binding check passes; the PDP
        // still re-evaluates policies for the actual resource.
        let grant = authz_grant(&svc, &token, "h", "photo-2", "req").unwrap();
        assert_eq!(grant.realm.as_deref(), Some("album"));
    }

    #[test]
    fn authz_token_bound_to_host_and_requester() {
        let (svc, _) = service();
        let token = svc.mint_authz_token(&svc.grant(None, "r", "h", "req", None, "bob"));
        assert!(matches!(
            authz_grant(&svc, &token, "other-host", "r", "req"),
            Err(TokenError::BindingMismatch(_))
        ));
        assert!(matches!(
            authz_grant(&svc, &token, "h", "r", "other-requester"),
            Err(TokenError::BindingMismatch(_))
        ));
    }

    #[test]
    fn kinds_are_not_interchangeable() {
        let (svc, _) = service();
        let host_token = svc.mint_host_token("h", "bob", "d-1");
        assert!(matches!(
            authz_grant(&svc, &host_token, "h", "r", "req"),
            Err(TokenError::WrongKind {
                expected: "authz",
                ..
            })
        ));
        let authz = svc.mint_authz_token(&svc.grant(None, "r", "h", "req", None, "bob"));
        assert!(matches!(
            host_grant(&svc, &authz),
            Err(TokenError::WrongKind {
                expected: "host",
                ..
            })
        ));
    }

    #[test]
    fn foreign_tokens_rejected() {
        let (svc1, _) = service();
        let (svc2, _) = service();
        let token = svc1.mint_host_token("h", "bob", "d-1");
        assert_eq!(host_grant(&svc2, &token), Err(TokenError::Invalid));
    }

    /// A canonical MAC has one spelling: the same MAC with a spare bit
    /// of its last character set must not open.
    #[test]
    fn second_spelling_of_a_token_rejected() {
        let (svc, _) = service();
        let token = svc.mint_host_token("h", "bob", "d-1");
        let mut respelled = token.clone().into_bytes();
        // The last of a 32-byte MAC's 43 characters carries two spare
        // bits: the next character of the alphabet sets the low one.
        *respelled.last_mut().unwrap() += 1;
        let respelled = String::from_utf8(respelled).unwrap();
        assert_eq!(host_grant(&svc, &respelled), Err(TokenError::Invalid));
        assert!(host_grant(&svc, &token).is_ok());
    }

    #[test]
    fn garbage_rejected() {
        let (svc, _) = service();
        assert_eq!(host_grant(&svc, "garbage"), Err(TokenError::Invalid));
        assert_eq!(
            authz_grant(&svc, "a.b", "h", "r", "req"),
            Err(TokenError::Invalid)
        );
    }

    #[test]
    fn custom_ttl() {
        let clock = SimClock::new();
        let svc = TokenService::new(clock.clone()).with_ttl_ms(10);
        assert_eq!(svc.ttl_ms(), 10);
        let token = svc.mint_authz_token(&svc.grant(None, "r", "h", "req", None, "bob"));
        clock.advance_ms(9);
        assert!(authz_grant(&svc, &token, "h", "r", "req").is_ok());
        clock.advance_ms(1);
        assert_eq!(
            authz_grant(&svc, &token, "h", "r", "req"),
            Err(TokenError::Expired)
        );
    }

    #[test]
    fn error_display() {
        assert!(TokenError::Invalid.to_string().contains("invalid"));
        assert!(TokenError::Expired.to_string().contains("expired"));
        assert!(TokenError::Revoked.to_string().contains("revoked"));
        let wk = TokenError::WrongKind {
            expected: "authz",
            found: "host".into(),
        };
        assert!(wk.to_string().contains("authz"));
    }

    /// The `format!`/`replace` field codec the one-pass one replaced,
    /// kept as the reference for its output.
    fn reference_encode(fields: &[(&str, &str)]) -> String {
        fields
            .iter()
            .map(|(k, v)| {
                let escaped: String = v
                    .chars()
                    .map(|c| match c {
                        '%' => "%25".to_owned(),
                        ';' => "%3B".to_owned(),
                        '=' => "%3D".to_owned(),
                        other => other.to_string(),
                    })
                    .collect();
                format!("{k}={escaped}")
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    fn reference_unescape(value: &str) -> String {
        value
            .replace("%3B", ";")
            .replace("%3D", "=")
            .replace("%25", "%")
    }

    proptest! {
        /// Token payload bytes are exactly what the reference codec
        /// wrote, and every value, escaped or not, decodes as it did.
        #[test]
        fn field_codec_matches_the_reference(
            a in "[a-z%;=3BD25é]{0,16}",
            b in "[a-z%;=3BD25é]{0,16}",
        ) {
            let written = [("kind", "authz"), ("res", a.as_str()), ("sub", b.as_str())];
            let payload = encode_fields(&written);
            prop_assert_eq!(&payload, &reference_encode(&written));
            let [res, sub] = fields(&payload, ["res", "sub"]);
            prop_assert_eq!(res.map(unescape).as_deref(), Some(a.as_str()));
            prop_assert_eq!(sub.map(unescape).as_deref(), Some(b.as_str()));
            // Raw text that no escape produced decodes as it did too.
            prop_assert_eq!(unescape(&a), reference_unescape(&a));
        }

        /// Values containing the k=v separators survive token round trips.
        #[test]
        fn hostile_values_roundtrip(
            user in "[a-zA-Z0-9;=%. -]{1,24}",
            resource in "[a-zA-Z0-9;=%/. -]{1,24}",
        ) {
            let (svc, _) = service();
            let grant = svc.grant(None, &resource, "h.example", "req", Some(&user), "owner");
            let token = svc.mint_authz_token(&grant);
            let back = authz_grant(&svc, &token, "h.example", &resource, "req")
                .unwrap();
            prop_assert_eq!(back.subject.as_deref(), Some(user.as_str()));
            prop_assert_eq!(back.resource_id, resource);
        }
    }
}
