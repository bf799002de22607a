//! Shared Host↔AM wire protocol — the versioned `/protection/v1` surface.
//!
//! The paper's phase-5/6 exchange (Fig. 6) is a Host asking an AM for an
//! access decision. Three crates speak this wire format: the AM serializes
//! decisions, the Host parses them fail-closed, and the baselines mimic the
//! same shape for apples-to-apples byte accounting. Historically each side
//! hand-rolled its half (the Host held a private `DecisionBody`, the AM
//! format-stringed JSON); this module is the single shared definition.
//!
//! Everything here is dependency-free by design: the JSON encoder and the
//! fail-closed parser are hand-written so that crates without `serde_json`
//! (this one, baselines) can still speak the protocol. The parser is strict
//! where it matters for safety — a body that does not parse as a JSON
//! object with `"decision":"permit"` is **never** treated as a permit.
//!
//! # Routes
//!
//! | constant | path | purpose |
//! |---|---|---|
//! | [`DECISION_PATH`] | `/protection/v1/decision` | single decision query (Fig. 6) |
//! | [`BATCH_DECISIONS_PATH`] | `/protection/v1/decisions` | batched decision queries |
//! | [`EPOCH_PUSH_PATH`] | `/protection/v1/epoch` | AM→Host async policy-epoch push |
//! | [`LEGACY_DECISION_PATH`] | `/decision` | pre-versioning alias, kept for old Hosts |
//! | [`DECISION_V2_PATH`] | `/protection/v2/decision` | conditional (`if_epoch`) decision query |
//! | [`BATCH_AUTHORIZE_PATH`] | `/protection/v2/authorize` | batched authorization-token requests |
//! | [`REGISTER_PATH`] | `/protection/v2/register` | dynamic Host/Requester registration |
//! | [`REGISTER_ROTATE_PATH`] | `/protection/v2/register/rotate` | rotate a registrant secret |
//! | [`REGISTER_DEREGISTER_PATH`] | `/protection/v2/register/deregister` | retire a registrant |
//! | [`DELEGATE_V2_PATH`] | `/protection/v2/delegate` | credentialed delegation for registrants |
//!
//! An epoch push may additionally carry a [`SieveBody`] in its request
//! body: a signed, epoch-stamped capability sieve the Host installs as
//! its tier-1 enforcement table (DESIGN.md §12). The sieve is part of
//! the same versioned surface — it rides [`EPOCH_PUSH_PATH`], and its
//! parser is fail-closed exactly like the decision parser: a body that
//! does not parse *and* verify grants nothing. The v2 surface adds a
//! third push body kind, [`InvalidationBody`]: the exact fingerprints a
//! policy edit invalidated, so a Host evicts a handful of entries instead
//! of cold-missing an entire owner (DESIGN.md §16). All three body kinds
//! use disjoint JSON field sets and distinct signing domain separators,
//! so none can ever be parsed — or replayed — as another.

/// Versioned single-decision route (Fig. 6, phase 5/6).
pub const DECISION_PATH: &str = "/protection/v1/decision";
/// Versioned batch-decision route: the body is a JSON array of
/// [`BatchItem`]s, the response a JSON array of [`DecisionBody`]s in the
/// same order.
pub const BATCH_DECISIONS_PATH: &str = "/protection/v1/decisions";
/// Versioned AM→Host policy-epoch push route (params: `owner`, `epoch`).
pub const EPOCH_PUSH_PATH: &str = "/protection/v1/epoch";
/// The unversioned decision route kept as a compatibility alias.
pub const LEGACY_DECISION_PATH: &str = "/decision";

/// v2 conditional single-decision route. Same query parameters as
/// [`DECISION_PATH`] plus an optional `if_epoch`: the owner policy epoch
/// the Host evaluated its cached permit under. When the epoch still
/// matches and the verdict is still a permit, the AM answers with a
/// compact [`UnchangedBody`] instead of re-serializing the full
/// [`DecisionBody`] — the 304 of the protection API.
pub const DECISION_V2_PATH: &str = "/protection/v2/decision";
/// v2 batch-authorize route: the requester-side sibling of
/// [`BATCH_DECISIONS_PATH`]. The body is a JSON array of
/// [`AuthorizeItem`]s scoped to one `host`/`requester` (and optional
/// shared `subject_token`/`claims` parameters); the response is a JSON
/// array of [`AuthorizeReply`]s in request order.
pub const BATCH_AUTHORIZE_PATH: &str = "/protection/v2/authorize";
/// v2 dynamic-registration route (RFC 7591 in spirit): the body is a
/// [`RegisterBody`], the response a [`RegistrationReply`] carrying the
/// per-registrant credential every later management call presents.
pub const REGISTER_PATH: &str = "/protection/v2/register";
/// v2 registration-management route rotating a registrant's secret
/// (params: `registrant_id`, `secret`); answers a fresh
/// [`RegistrationReply`].
pub const REGISTER_ROTATE_PATH: &str = "/protection/v2/register/rotate";
/// v2 registration-management route retiring a registrant (params:
/// `registrant_id`, `secret`). Deregistration revokes the credential;
/// existing delegations are torn down separately by their owners.
pub const REGISTER_DEREGISTER_PATH: &str = "/protection/v2/register/deregister";
/// v2 credentialed delegation route: a registered Host presents its
/// `registrant_id` + `secret` plus the `user` delegating to it (params),
/// and receives a [`DelegateReply`] — the runtime replacement for the
/// hand-wired `establish_delegation` bootstrap.
pub const DELEGATE_V2_PATH: &str = "/protection/v2/delegate";

/// Maximum number of queries an AM accepts in one batch request. Requests
/// above the cap are rejected with a 400 rather than silently truncated.
pub const MAX_BATCH: usize = 32;

/// The decision body a Host receives from an AM (Fig. 6 step 6).
///
/// `decision` is the verdict string (`"permit"` or `"deny"`); only an
/// exact `"permit"` grants. `cacheable_ms` and `policy_epoch` accompany
/// permits so the Host can cache the decision and later invalidate it on
/// epoch advance (DESIGN.md §8). `reason` accompanies denies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionBody {
    /// Verdict: `"permit"` grants, anything else denies.
    pub decision: String,
    /// How long (ms) the Host may cache a permit; absent or 0 means
    /// do not cache.
    pub cacheable_ms: Option<u64>,
    /// The owner's policy epoch the decision was evaluated under.
    pub policy_epoch: Option<u64>,
    /// Human-readable denial reason, if any.
    pub reason: Option<String>,
}

impl DecisionBody {
    /// A permit valid for `cacheable_ms`, stamped with `policy_epoch`.
    #[must_use]
    pub fn permit(cacheable_ms: u64, policy_epoch: u64) -> Self {
        Self {
            decision: "permit".into(),
            cacheable_ms: Some(cacheable_ms),
            policy_epoch: Some(policy_epoch),
            reason: None,
        }
    }

    /// A deny carrying a human-readable `reason`.
    #[must_use]
    pub fn deny(reason: &str) -> Self {
        Self {
            decision: "deny".into(),
            cacheable_ms: None,
            policy_epoch: None,
            reason: Some(reason.to_owned()),
        }
    }

    /// A per-item protocol failure inside a batch response (e.g. an
    /// expired token). Distinct from [`DecisionBody::deny`] — a deny is a
    /// policy verdict, an error means the query never reached policy
    /// evaluation; Hosts map errors to their single-query 401 handling.
    #[must_use]
    pub fn error(reason: &str) -> Self {
        Self {
            decision: "error".into(),
            cacheable_ms: None,
            policy_epoch: None,
            reason: Some(reason.to_owned()),
        }
    }

    /// Whether this batch item is a protocol-level failure (see
    /// [`DecisionBody::error`]).
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.decision == "error"
    }

    /// Whether the verdict is exactly `"permit"`. A deny whose *reason*
    /// merely contains the word "permit" stays a deny.
    #[must_use]
    pub fn is_permit(&self) -> bool {
        self.decision == "permit"
    }

    /// Serializes to the canonical wire JSON. Field order is fixed
    /// (decision, cacheable_ms, policy_epoch, reason; absent fields are
    /// omitted) so byte counts are deterministic across runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"decision\":");
        push_json_string(&mut out, &self.decision);
        if let Some(ms) = self.cacheable_ms {
            out.push_str(",\"cacheable_ms\":");
            out.push_str(&ms.to_string());
        }
        if let Some(epoch) = self.policy_epoch {
            out.push_str(",\"policy_epoch\":");
            out.push_str(&epoch.to_string());
        }
        if let Some(reason) = &self.reason {
            out.push_str(",\"reason\":");
            push_json_string(&mut out, reason);
        }
        out.push('}');
        out
    }

    /// Parses a decision body, fail-closed: anything that is not a JSON
    /// object with a string `decision` field is an error, and the caller
    /// must treat errors as a refusal, never a permit.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, a missing or non-string
    /// `decision`, or ill-typed optional fields.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let value = parse_json(body)?;
        Self::from_value(&value)
    }

    fn from_value(value: &Json) -> Result<Self, WireError> {
        let Json::Object(fields) = value else {
            return Err(WireError::new("decision body is not a JSON object"));
        };
        let decision = match find(fields, "decision") {
            Some(Json::String(s)) => s.clone(),
            Some(_) => return Err(WireError::new("decision field is not a string")),
            None => return Err(WireError::new("decision field missing")),
        };
        Ok(Self {
            decision,
            cacheable_ms: opt_u64(fields, "cacheable_ms")?,
            policy_epoch: opt_u64(fields, "policy_epoch")?,
            reason: opt_string(fields, "reason")?,
        })
    }

    /// Historical convenience: the cacheable window of a body, where
    /// anything other than a well-formed permit yields 0 (uncacheable).
    /// This is the fail-closed projection Hosts used before the full
    /// parse result was public.
    #[must_use]
    pub fn parse_cacheable_ms(body: &str) -> u64 {
        match Self::from_json(body) {
            Ok(parsed) if parsed.is_permit() => parsed.cacheable_ms.unwrap_or(0),
            _ => 0,
        }
    }
}

/// The compact v2 answer to a conditional decision query whose `if_epoch`
/// still matches: "your cached permit is still good, re-arm it for
/// `cacheable_ms`" — without re-serializing the permit body.
///
/// The field set is disjoint from [`DecisionBody`] (which requires a
/// string `decision`), so the two reply kinds can never be confused on
/// parse. Fail-closed discipline matches the rest of the module: a body
/// that does not parse as `{"unchanged":true,...}` re-arms nothing, and
/// an *unchanged* reply never grants an access the Host had not already
/// cached — a Host with no matching cache entry treats it as a refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnchangedBody {
    /// How long (ms) the Host may re-arm the cached permit for.
    pub cacheable_ms: u64,
}

impl UnchangedBody {
    /// Serializes to the canonical wire JSON; fixed field order keeps
    /// byte counts deterministic. The policy epoch is deliberately *not*
    /// echoed: the AM only answers "unchanged" when the current epoch
    /// equals the query's `if_epoch`, so the Host already holds the
    /// value and repeating it would cost the very bytes the conditional
    /// query exists to save (like HTTP 304 omitting the entity).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48);
        out.push_str("{\"unchanged\":true,\"cacheable_ms\":");
        out.push_str(&self.cacheable_ms.to_string());
        out.push('}');
        out
    }

    /// Parses an unchanged reply, fail-closed: anything that is not a
    /// JSON object with a literal-`true` `unchanged` field and an
    /// integer `cacheable_ms` is an error.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON or missing/ill-typed
    /// fields.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let Json::Object(fields) = parse_json(body)? else {
            return Err(WireError::new("unchanged body is not a JSON object"));
        };
        match find(&fields, "unchanged") {
            Some(Json::Bool(true)) => {}
            _ => return Err(WireError::new("unchanged field missing or not true")),
        }
        let cacheable_ms = opt_u64(&fields, "cacheable_ms")?
            .ok_or_else(|| WireError::new("unchanged cacheable_ms missing"))?;
        Ok(Self { cacheable_ms })
    }
}

/// One query inside a batch decision request: the per-item fields of the
/// paper's Fig. 6 query (the `host_token` rides on the request itself,
/// since a batch is scoped to one Host↔AM delegation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// The requester's authorization token (phase 4 artifact).
    pub token: String,
    /// Resource identifier at the Host.
    pub resource: String,
    /// Action name (`read`, `write`, …).
    pub action: String,
    /// Requester label.
    pub requester: String,
}

impl BatchItem {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"token\":");
        push_json_string(&mut out, &self.token);
        out.push_str(",\"resource\":");
        push_json_string(&mut out, &self.resource);
        out.push_str(",\"action\":");
        push_json_string(&mut out, &self.action);
        out.push_str(",\"requester\":");
        push_json_string(&mut out, &self.requester);
        out.push('}');
        out
    }

    fn from_value(value: &Json) -> Result<Self, WireError> {
        let Json::Object(fields) = value else {
            return Err(WireError::new("batch item is not a JSON object"));
        };
        let get = |key: &str| -> Result<String, WireError> {
            match find(fields, key) {
                Some(Json::String(s)) => Ok(s.clone()),
                _ => Err(WireError::new(&format!(
                    "batch item field {key} missing or not a string"
                ))),
            }
        };
        Ok(Self {
            token: get("token")?,
            resource: get("resource")?,
            action: get("action")?,
            requester: get("requester")?,
        })
    }
}

/// Encodes a batch request body: a JSON array of [`BatchItem`]s.
#[must_use]
pub fn encode_batch_request(items: &[BatchItem]) -> String {
    encode_array(items.iter().map(BatchItem::to_json))
}

/// Parses a batch request body.
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON, a non-array body, ill-typed
/// items, or more than [`MAX_BATCH`] items.
pub fn parse_batch_request(body: &str) -> Result<Vec<BatchItem>, WireError> {
    let Json::Array(values) = parse_json(body)? else {
        return Err(WireError::new("batch request is not a JSON array"));
    };
    if values.len() > MAX_BATCH {
        return Err(WireError::new(&format!(
            "batch of {} exceeds the cap of {MAX_BATCH}",
            values.len()
        )));
    }
    values.iter().map(BatchItem::from_value).collect()
}

/// Encodes a batch response body: a JSON array of [`DecisionBody`]s in
/// request order.
#[must_use]
pub fn encode_batch_response(decisions: &[DecisionBody]) -> String {
    encode_array(decisions.iter().map(DecisionBody::to_json))
}

/// Parses a batch response body, fail-closed per item (an unparseable
/// array poisons the whole batch, which the Host must treat as a refusal
/// of every item).
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON, a non-array body, or any
/// ill-typed decision element.
pub fn parse_batch_response(body: &str) -> Result<Vec<DecisionBody>, WireError> {
    let Json::Array(values) = parse_json(body)? else {
        return Err(WireError::new("batch response is not a JSON array"));
    };
    values.iter().map(DecisionBody::from_value).collect()
}

fn encode_array(items: impl Iterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// Batch authorize (v2: the requester-side sibling of batch decide)
// ---------------------------------------------------------------------------

/// One token request inside a [`BATCH_AUTHORIZE_PATH`] body: the
/// per-item fields of the paper's Fig. 5 request. The `host`,
/// `requester` and any shared `subject_token`/`claims` ride on the
/// request parameters, since a batch is scoped to one Requester asking
/// one Host's AM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorizeItem {
    /// Resource owner whose policies apply.
    pub owner: String,
    /// Resource identifier at the Host.
    pub resource: String,
    /// Action name (`read`, `write`, …).
    pub action: String,
}

impl AuthorizeItem {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"owner\":");
        push_json_string(&mut out, &self.owner);
        out.push_str(",\"resource\":");
        push_json_string(&mut out, &self.resource);
        out.push_str(",\"action\":");
        push_json_string(&mut out, &self.action);
        out.push('}');
        out
    }

    fn from_value(value: &Json) -> Result<Self, WireError> {
        let Json::Object(fields) = value else {
            return Err(WireError::new("authorize item is not a JSON object"));
        };
        let get = |key: &str| -> Result<String, WireError> {
            match find(fields, key) {
                Some(Json::String(s)) => Ok(s.clone()),
                _ => Err(WireError::new(&format!(
                    "authorize item field {key} missing or not a string"
                ))),
            }
        };
        Ok(Self {
            owner: get("owner")?,
            resource: get("resource")?,
            action: get("action")?,
        })
    }
}

/// One per-item outcome inside a batch-authorize response — the wire
/// projection of the AM's `AuthorizeOutcome`. Discriminated by which
/// single field is present, so the parser is unambiguous and fail-closed:
/// a body carrying none of the known fields (or two of them) is an error,
/// and only an exact `token` field yields a credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthorizeReply {
    /// Policies permit: the minted authorization token.
    Token(String),
    /// Policies deny, with the human-readable reason.
    Denied(String),
    /// The request opened a consent question; the id to poll.
    Pending(String),
    /// The requester must supply claims of these kinds first.
    NeedsClaims(Vec<String>),
    /// Protocol-level failure for this item (the query never reached
    /// policy evaluation).
    Error(String),
}

impl AuthorizeReply {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            AuthorizeReply::Token(token) => {
                out.push_str("{\"token\":");
                push_json_string(&mut out, token);
            }
            AuthorizeReply::Denied(reason) => {
                out.push_str("{\"denied\":");
                push_json_string(&mut out, reason);
            }
            AuthorizeReply::Pending(id) => {
                out.push_str("{\"pending\":");
                push_json_string(&mut out, id);
            }
            AuthorizeReply::NeedsClaims(kinds) => {
                out.push_str("{\"claims\":[");
                for (i, kind) in kinds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, kind);
                }
                out.push(']');
            }
            AuthorizeReply::Error(reason) => {
                out.push_str("{\"error\":");
                push_json_string(&mut out, reason);
            }
        }
        out.push('}');
        out
    }

    fn from_value(value: &Json) -> Result<Self, WireError> {
        let Json::Object(fields) = value else {
            return Err(WireError::new("authorize reply is not a JSON object"));
        };
        let mut reply = None;
        for (key, value) in fields {
            let parsed = match (key.as_str(), value) {
                ("token", Json::String(s)) => AuthorizeReply::Token(s.clone()),
                ("denied", Json::String(s)) => AuthorizeReply::Denied(s.clone()),
                ("pending", Json::String(s)) => AuthorizeReply::Pending(s.clone()),
                ("error", Json::String(s)) => AuthorizeReply::Error(s.clone()),
                ("claims", Json::Array(values)) => {
                    let mut kinds = Vec::with_capacity(values.len());
                    for v in values {
                        let Json::String(kind) = v else {
                            return Err(WireError::new("authorize claims kind is not a string"));
                        };
                        kinds.push(kind.clone());
                    }
                    AuthorizeReply::NeedsClaims(kinds)
                }
                ("token" | "denied" | "pending" | "error" | "claims", _) => {
                    return Err(WireError::new(&format!("authorize reply {key} ill-typed")))
                }
                _ => continue,
            };
            if reply.replace(parsed).is_some() {
                return Err(WireError::new("authorize reply has multiple outcomes"));
            }
        }
        reply.ok_or_else(|| WireError::new("authorize reply has no known outcome field"))
    }
}

/// Encodes a batch-authorize request body: a JSON array of
/// [`AuthorizeItem`]s.
#[must_use]
pub fn encode_authorize_request(items: &[AuthorizeItem]) -> String {
    encode_array(items.iter().map(AuthorizeItem::to_json))
}

/// Parses a batch-authorize request body.
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON, a non-array body, ill-typed
/// items, or more than [`MAX_BATCH`] items.
pub fn parse_authorize_request(body: &str) -> Result<Vec<AuthorizeItem>, WireError> {
    let Json::Array(values) = parse_json(body)? else {
        return Err(WireError::new("authorize request is not a JSON array"));
    };
    if values.len() > MAX_BATCH {
        return Err(WireError::new(&format!(
            "authorize batch of {} exceeds the cap of {MAX_BATCH}",
            values.len()
        )));
    }
    values.iter().map(AuthorizeItem::from_value).collect()
}

/// Encodes a batch-authorize response body: a JSON array of
/// [`AuthorizeReply`]s in request order.
#[must_use]
pub fn encode_authorize_response(replies: &[AuthorizeReply]) -> String {
    encode_array(replies.iter().map(AuthorizeReply::to_json))
}

/// Parses a batch-authorize response body, fail-closed per item (an
/// unparseable array poisons the whole batch, which the Requester must
/// treat as no token for any item).
///
/// # Errors
///
/// Returns [`WireError`] on malformed JSON, a non-array body, or any
/// ill-typed reply element.
pub fn parse_authorize_response(body: &str) -> Result<Vec<AuthorizeReply>, WireError> {
    let Json::Array(values) = parse_json(body)? else {
        return Err(WireError::new("authorize response is not a JSON array"));
    };
    values.iter().map(AuthorizeReply::from_value).collect()
}

// ---------------------------------------------------------------------------
// Dynamic registration (v2, RFC 7591/7592 in spirit)
// ---------------------------------------------------------------------------

/// A [`REGISTER_PATH`] request body: what a Host or Requester declares
/// about itself when onboarding against an AM at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterBody {
    /// Registrant role: `"host"` or `"requester"` — nothing else parses.
    pub kind: String,
    /// The registrant's authority (its address on the transport).
    pub authority: String,
}

impl RegisterBody {
    /// Serializes to the canonical wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"kind\":");
        push_json_string(&mut out, &self.kind);
        out.push_str(",\"authority\":");
        push_json_string(&mut out, &self.authority);
        out.push('}');
        out
    }

    /// Parses a registration body, fail-closed: the `kind` must be
    /// exactly `"host"` or `"requester"` and the authority non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, missing or ill-typed
    /// fields, an unknown kind, or an empty authority.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let Json::Object(fields) = parse_json(body)? else {
            return Err(WireError::new("register body is not a JSON object"));
        };
        let kind = match find(&fields, "kind") {
            Some(Json::String(s)) => s.clone(),
            _ => return Err(WireError::new("register kind missing or not a string")),
        };
        if kind != "host" && kind != "requester" {
            return Err(WireError::new("register kind must be host or requester"));
        }
        let authority = match find(&fields, "authority") {
            Some(Json::String(s)) if !s.is_empty() => s.clone(),
            _ => {
                return Err(WireError::new(
                    "register authority missing, empty, or not a string",
                ))
            }
        };
        Ok(Self { kind, authority })
    }
}

/// A [`REGISTER_PATH`] / [`REGISTER_ROTATE_PATH`] response body: the
/// registrant's identity and the secret it must present on every later
/// management call. The secret is the *registration* credential only —
/// delegations still mint their own `host_token` per user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrationReply {
    /// Stable registrant identity at this AM.
    pub registrant_id: String,
    /// The current per-registrant secret.
    pub secret: String,
}

impl RegistrationReply {
    /// Serializes to the canonical wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"registrant_id\":");
        push_json_string(&mut out, &self.registrant_id);
        out.push_str(",\"secret\":");
        push_json_string(&mut out, &self.secret);
        out.push('}');
        out
    }

    /// Parses a registration reply, fail-closed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON or missing/ill-typed
    /// fields.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let Json::Object(fields) = parse_json(body)? else {
            return Err(WireError::new("registration reply is not a JSON object"));
        };
        let get = |key: &str| -> Result<String, WireError> {
            match find(&fields, key) {
                Some(Json::String(s)) if !s.is_empty() => Ok(s.clone()),
                _ => Err(WireError::new(&format!(
                    "registration reply {key} missing, empty, or not a string"
                ))),
            }
        };
        Ok(Self {
            registrant_id: get("registrant_id")?,
            secret: get("secret")?,
        })
    }
}

/// A [`DELEGATE_V2_PATH`] response body: the artifacts of a freshly
/// established delegation (Fig. 3), returned to a credentialed
/// registrant instead of riding a browser redirect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegateReply {
    /// Unique id of the delegation, used for revocation.
    pub delegation_id: String,
    /// The host access token sealing the delegation.
    pub host_token: String,
}

impl DelegateReply {
    /// Serializes to the canonical wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"delegation_id\":");
        push_json_string(&mut out, &self.delegation_id);
        out.push_str(",\"host_token\":");
        push_json_string(&mut out, &self.host_token);
        out.push('}');
        out
    }

    /// Parses a delegate reply, fail-closed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON or missing/ill-typed
    /// fields.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let Json::Object(fields) = parse_json(body)? else {
            return Err(WireError::new("delegate reply is not a JSON object"));
        };
        let get = |key: &str| -> Result<String, WireError> {
            match find(&fields, key) {
                Some(Json::String(s)) if !s.is_empty() => Ok(s.clone()),
                _ => Err(WireError::new(&format!(
                    "delegate reply {key} missing, empty, or not a string"
                ))),
            }
        };
        Ok(Self {
            delegation_id: get("delegation_id")?,
            host_token: get("host_token")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Capability sieve (tier-1 enforcement table, rides the epoch push)
// ---------------------------------------------------------------------------

/// A tier-1 sieve key: the truncated SHA-256 fingerprint of one
/// `(token, resource, action, requester)` access tuple.
///
/// 128 bits of a cryptographic hash — an *exact* set membership key, not
/// a Bloom-style approximation. A probabilistic filter with false
/// positives would grant accesses the AM never permitted; truncating
/// SHA-256 to 16 bytes keeps collisions out of reach while halving the
/// per-entry wire and memory cost.
pub type SieveFingerprint = [u8; 16];

/// Computes the sieve fingerprint of one access tuple. Both ends call
/// this: the AM when compiling a sieve from its issued grants, the Host
/// when probing its installed snapshot on the warm path. Fields are
/// domain-separated and NUL-delimited so distinct tuples can never share
/// a preimage.
#[must_use]
pub fn sieve_fingerprint(
    token: &str,
    resource: &str,
    action: &str,
    requester: &str,
) -> SieveFingerprint {
    let mut hasher = ucam_crypto::sha::Sha256::new();
    hasher.update(b"ucam-sieve-fp-v1\0");
    hasher.update(token.as_bytes());
    hasher.update(b"\0");
    hasher.update(resource.as_bytes());
    hasher.update(b"\0");
    hasher.update(action.as_bytes());
    hasher.update(b"\0");
    hasher.update(requester.as_bytes());
    let digest = hasher.finalize();
    let mut fp = [0u8; 16];
    fp.copy_from_slice(&digest[..16]);
    fp
}

/// One pre-authorized access tuple inside a [`SieveBody`].
///
/// The fingerprint alone is opaque, so each entry also names the
/// `resource` it covers: the Host validates every entry against its own
/// delegation table at install time (fail-closed — an entry for an
/// unknown resource or a foreign owner is dropped) and purges entries
/// surgically when a resource is deleted or re-delegated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SieveEntry {
    /// Fingerprint of the access tuple (see [`sieve_fingerprint`]).
    pub fingerprint: SieveFingerprint,
    /// Resource identifier at the Host this entry pre-authorizes.
    pub resource: String,
    /// Absolute expiry (ms, AM clock). Mirrors the decision cache's
    /// `cacheable_ms` bound so the sieve never serves staler permits
    /// than the protocol path would.
    pub expires_at_ms: u64,
}

/// The signed, epoch-stamped capability sieve an AM pushes to a Host in
/// the body of an [`EPOCH_PUSH_PATH`] request (DESIGN.md §12).
///
/// Authentication: `sig` is an HMAC-SHA256 over the canonical payload,
/// keyed by the Host↔AM delegation's `host_token` — a secret both ends
/// already share from phase 1, so the sieve needs no new key exchange.
/// The plain epoch parameters on the push stay unauthenticated (they can
/// only lower trust); a sieve *raises* trust, so a body that fails
/// verification installs nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SieveBody {
    /// The resource owner whose grants this sieve compiles.
    pub owner: String,
    /// The owner's policy epoch the sieve was compiled under.
    pub epoch: u64,
    /// Pre-authorized access tuples. May be empty: an empty signed sieve
    /// is how the AM propagates "nothing is pre-authorized anymore".
    pub entries: Vec<SieveEntry>,
    /// Hex HMAC-SHA256 over the canonical signing payload.
    pub sig: String,
}

impl SieveBody {
    /// Assembles and signs a sieve with the shared delegation
    /// `host_token` bytes.
    #[must_use]
    pub fn build(owner: &str, epoch: u64, entries: Vec<SieveEntry>, key: &[u8]) -> Self {
        let mut body = Self {
            owner: owner.to_owned(),
            epoch,
            entries,
            sig: String::new(),
        };
        body.sig = sign(key, &body.signing_payload());
        body
    }

    /// Verifies the signature against the Host's copy of the delegation
    /// `host_token`. Constant-time comparison; any mismatch means the
    /// sieve must be discarded whole.
    #[must_use]
    pub fn verify(&self, key: &[u8]) -> bool {
        verify_sig(key, &self.signing_payload(), &self.sig)
    }

    /// The canonical byte string the signature covers: the shared
    /// [`signing_head`], then one line per entry.
    fn signing_payload(&self) -> String {
        let capacity = 64 + self.entries.len() * 64;
        let mut out = signing_head("ucam-sieve-v1", &self.owner, self.epoch, capacity);
        push_entry_lines(&mut out, "", &self.entries);
        out
    }

    /// Serializes to the canonical wire JSON. Field order is fixed;
    /// entries encode as `["<fp hex>", expires_at_ms, "resource"]`
    /// triples.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = json_head(&self.owner, self.epoch, 96 + self.entries.len() * 72);
        push_entries_json(&mut out, "entries", &self.entries);
        json_close(&mut out, &self.sig);
        out
    }

    /// Parses a sieve body, fail-closed: any malformed field rejects the
    /// whole body, and the caller must install nothing on error. Parsing
    /// alone never authorizes — the caller must still [`verify`](Self::verify).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, missing or ill-typed
    /// fields, or a fingerprint that is not exactly 32 hex characters.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let head = PushHead::parse(body, "sieve")?;
        Ok(Self {
            entries: entries_from_json(&head.fields, "entries", "sieve")?,
            owner: head.owner,
            epoch: head.epoch,
            sig: head.sig,
        })
    }
}

/// Response body a Host answers an epoch push with when it received a
/// [`SieveDeltaBody`] whose base generation does not match what the Host
/// has installed. The AM treats it as "delivery confirmed, delta refused"
/// and reships a full [`SieveBody`] on the next pump (DESIGN.md §13).
pub const SIEVE_RESYNC: &str = "sieve-resync";

/// An incremental update to an installed [`SieveBody`]: the entries added
/// and the fingerprints removed since the sieve the AM last shipped to
/// this Host, compiled under `epoch` against the installed `base_epoch`.
///
/// A refresh over a million-resource owner would otherwise reship the
/// full entry list every time; the delta is O(changes). Safety matches
/// the full body: the delta is HMAC-signed under the same delegation
/// `host_token` (with its own domain separator, so a delta can never be
/// replayed as a full sieve or vice versa), and a Host applies it only
/// when its installed sieve for the owner sits exactly at `base_epoch` —
/// anything else answers [`SIEVE_RESYNC`] and the AM falls back to a
/// full-body ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SieveDeltaBody {
    /// The resource owner whose sieve this delta updates.
    pub owner: String,
    /// The owner's policy epoch the delta was compiled under.
    pub epoch: u64,
    /// The epoch of the installed sieve this delta applies on top of.
    pub base_epoch: u64,
    /// Entries to insert (new grants, or moved expiries).
    pub added: Vec<SieveEntry>,
    /// Fingerprints to drop (expired or revoked grants).
    pub removed: Vec<SieveFingerprint>,
    /// Hex HMAC-SHA256 over the canonical payload.
    pub sig: String,
}

impl SieveDeltaBody {
    /// Assembles and signs a delta with the shared delegation
    /// `host_token` bytes.
    #[must_use]
    pub fn build(
        owner: &str,
        epoch: u64,
        base_epoch: u64,
        added: Vec<SieveEntry>,
        removed: Vec<SieveFingerprint>,
        key: &[u8],
    ) -> Self {
        let mut body = Self {
            owner: owner.to_owned(),
            epoch,
            base_epoch,
            added,
            removed,
            sig: String::new(),
        };
        body.sig = sign(key, &body.signing_payload());
        body
    }

    /// Verifies the signature against the Host's copy of the delegation
    /// `host_token`. Constant-time; any mismatch discards the delta whole.
    #[must_use]
    pub fn verify(&self, key: &[u8]) -> bool {
        verify_sig(key, &self.signing_payload(), &self.sig)
    }

    /// The canonical byte string the signature covers: the shared
    /// [`signing_head`] under its own domain separator (the epoch line
    /// also carries `base_epoch`), then `+` lines for additions and `-`
    /// lines for removals.
    fn signing_payload(&self) -> String {
        let capacity = 80 + self.added.len() * 64 + self.removed.len() * 33;
        let epochs = format!("{} {}", self.epoch, self.base_epoch);
        let mut out = signing_head("ucam-sieve-delta-v1", &self.owner, epochs, capacity);
        push_entry_lines(&mut out, "+", &self.added);
        push_fingerprint_lines(&mut out, '-', &self.removed);
        out
    }

    /// Serializes to the canonical wire JSON. The field set (`added`,
    /// `removed`, `base_epoch`) is disjoint from [`SieveBody`]'s
    /// `entries`, so the two body kinds can never be confused on parse.
    #[must_use]
    pub fn to_json(&self) -> String {
        let capacity = 128 + self.added.len() * 72 + self.removed.len() * 36;
        let mut out = json_head(&self.owner, self.epoch, capacity);
        out.push_str(",\"base_epoch\":");
        out.push_str(&self.base_epoch.to_string());
        push_entries_json(&mut out, "added", &self.added);
        push_fingerprints_json(&mut out, "removed", &self.removed);
        json_close(&mut out, &self.sig);
        out
    }

    /// Parses a delta body, fail-closed like [`SieveBody::from_json`].
    /// Parsing alone never authorizes — the caller must still
    /// [`verify`](Self::verify).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, missing or ill-typed
    /// fields, or malformed fingerprints.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let head = PushHead::parse(body, "sieve delta")?;
        let base_epoch = opt_u64(&head.fields, "base_epoch")?
            .ok_or_else(|| WireError::new("sieve delta base_epoch missing"))?;
        Ok(Self {
            base_epoch,
            added: entries_from_json(&head.fields, "added", "sieve delta")?,
            removed: fingerprints_from_json(&head.fields, "removed", "sieve delta")?,
            owner: head.owner,
            epoch: head.epoch,
            sig: head.sig,
        })
    }
}

/// The v2 decision-level invalidation push body: the exact
/// [`SieveFingerprint`]s a policy edit invalidated, pushed alongside the
/// owner's epoch advance on [`EPOCH_PUSH_PATH`] (DESIGN.md §16).
///
/// An epoch-only push tells the Host "something about this owner
/// changed" and forces an owner-wide cache purge — a small policy edit
/// against an owner with hundreds of cached permits triggers a cold-miss
/// storm. This body narrows the signal to the affected tuples: the Host
/// evicts exactly `invalidated` from its cache and sieve, re-stamps the
/// survivors to `epoch`, and keeps serving them.
///
/// Authentication: like the sieve bodies, this one *raises* trust (it
/// lets cached permits survive an epoch advance), so it is HMAC-signed
/// under the delegation `host_token` with its own domain separator. A
/// body that fails verification must be discarded whole — the Host then
/// falls back to the plain epoch purge, which is always safe.
///
/// `invalidated` may be empty: a signed empty list is how the AM says
/// "the epoch advanced but none of your entries died" (e.g. a policy
/// edit that only widened access).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationBody {
    /// The resource owner whose epoch advanced.
    pub owner: String,
    /// The owner's new policy epoch.
    pub epoch: u64,
    /// Fingerprints of the access tuples the edit invalidated.
    pub invalidated: Vec<SieveFingerprint>,
    /// Hex HMAC-SHA256 over the canonical payload.
    pub sig: String,
}

impl InvalidationBody {
    /// Assembles and signs an invalidation with the shared delegation
    /// `host_token` bytes.
    #[must_use]
    pub fn build(owner: &str, epoch: u64, invalidated: Vec<SieveFingerprint>, key: &[u8]) -> Self {
        let mut body = Self {
            owner: owner.to_owned(),
            epoch,
            invalidated,
            sig: String::new(),
        };
        body.sig = sign(key, &body.signing_payload());
        body
    }

    /// Verifies the signature against the Host's copy of the delegation
    /// `host_token`. Constant-time; any mismatch discards the body whole.
    #[must_use]
    pub fn verify(&self, key: &[u8]) -> bool {
        verify_sig(key, &self.signing_payload(), &self.sig)
    }

    /// The canonical byte string the signature covers: the shared
    /// [`signing_head`] under its own domain separator, so an
    /// invalidation can never be replayed as a sieve or a delta (or vice
    /// versa), then one `!` line per fingerprint.
    fn signing_payload(&self) -> String {
        let capacity = 48 + self.invalidated.len() * 34;
        let mut out = signing_head("ucam-inval-v1", &self.owner, self.epoch, capacity);
        push_fingerprint_lines(&mut out, '!', &self.invalidated);
        out
    }

    /// Serializes to the canonical wire JSON. The `invalidated` field is
    /// disjoint from [`SieveBody`]'s `entries` and [`SieveDeltaBody`]'s
    /// `added`/`removed`/`base_epoch`, so the three push body kinds can
    /// never be confused on the shared epoch-push route.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = json_head(&self.owner, self.epoch, 96 + self.invalidated.len() * 36);
        push_fingerprints_json(&mut out, "invalidated", &self.invalidated);
        json_close(&mut out, &self.sig);
        out
    }

    /// Parses an invalidation body, fail-closed like
    /// [`SieveBody::from_json`]. Parsing alone never authorizes the
    /// survivors — the caller must still [`verify`](Self::verify), and on
    /// any failure fall back to the plain epoch purge.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, missing or ill-typed
    /// fields, or malformed fingerprints.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let head = PushHead::parse(body, "invalidation")?;
        Ok(Self {
            invalidated: fingerprints_from_json(&head.fields, "invalidated", "invalidation")?,
            owner: head.owner,
            epoch: head.epoch,
            sig: head.sig,
        })
    }
}

// -- the codec the three push bodies share ------------------------------------

/// Hex HMAC-SHA256 of a push body's signing payload under the shared
/// delegation `host_token` bytes.
fn sign(key: &[u8], payload: &str) -> String {
    let mut sig = String::with_capacity(64);
    push_hex(&mut sig, &ucam_crypto::hmac_sha256(key, payload.as_bytes()));
    sig
}

/// Checks a push body's hex `sig` against its signing payload in
/// constant time; a `sig` that is not exactly 32 hex-encoded bytes fails.
fn verify_sig(key: &[u8], payload: &str, sig: &str) -> bool {
    let Some(sig) = hex_decode::<32>(sig) else {
        return false;
    };
    let mac = ucam_crypto::hmac_sha256(key, payload.as_bytes());
    ucam_crypto::ct_eq(&mac, &sig)
}

/// The signing payload every push body opens with: its domain separator
/// line, the length-prefixed owner, and its epoch line. Variable-length
/// fields are length-prefixed so no two distinct bodies serialize to the
/// same payload.
fn signing_head(
    domain: &str,
    owner: &str,
    epoch_line: impl core::fmt::Display,
    capacity: usize,
) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str(&format!(
        "{domain}\n{}:{owner}\n{epoch_line}\n",
        owner.len()
    ));
    out
}

/// Appends one signing-payload line per entry, each opened by `marker`:
/// fingerprint, expiry and length-prefixed resource.
fn push_entry_lines(out: &mut String, marker: &str, entries: &[SieveEntry]) {
    for entry in entries {
        out.push_str(marker);
        push_hex(out, &entry.fingerprint);
        let resource = &entry.resource;
        out.push_str(&format!(
            " {} {}:{resource}\n",
            entry.expires_at_ms,
            resource.len()
        ));
    }
}

/// Appends one signing-payload line per fingerprint, each opened by
/// `marker`.
fn push_fingerprint_lines(out: &mut String, marker: char, fingerprints: &[SieveFingerprint]) {
    for fp in fingerprints {
        out.push(marker);
        push_hex(out, fp);
        out.push('\n');
    }
}

/// Opens a push body's wire JSON: `{"owner":…,"epoch":N`.
fn json_head(owner: &str, epoch: u64, capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("{\"owner\":");
    push_json_string(&mut out, owner);
    out.push_str(",\"epoch\":");
    out.push_str(&epoch.to_string());
    out
}

/// Closes a push body's wire JSON with its signature: `,"sig":"…"}`.
fn json_close(out: &mut String, sig: &str) {
    out.push_str(",\"sig\":");
    push_json_string(out, sig);
    out.push('}');
}

/// Appends `,"<field>":[…]` with each entry as a
/// `["<fp hex>", expires_at_ms, "resource"]` triple.
fn push_entries_json(out: &mut String, field: &str, entries: &[SieveEntry]) {
    out.push_str(&format!(",\"{field}\":["));
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("[\"");
        push_hex(out, &entry.fingerprint);
        out.push_str("\",");
        out.push_str(&entry.expires_at_ms.to_string());
        out.push(',');
        push_json_string(out, &entry.resource);
        out.push(']');
    }
    out.push(']');
}

/// Appends `,"<field>":[…]` with each fingerprint as a hex string.
fn push_fingerprints_json(out: &mut String, field: &str, fingerprints: &[SieveFingerprint]) {
    out.push_str(&format!(",\"{field}\":["));
    for (i, fp) in fingerprints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_hex(out, fp);
        out.push('"');
    }
    out.push(']');
}

/// The fields every push body carries, parsed fail-closed, plus the rest
/// of the object for the body-specific fields.
struct PushHead {
    fields: Vec<(String, Json)>,
    owner: String,
    epoch: u64,
    sig: String,
}

impl PushHead {
    /// Parses `body` as a JSON object with a string `owner`, an unsigned
    /// `epoch` and a string `sig`; `kind` names the body in errors.
    fn parse(body: &str, kind: &str) -> Result<Self, WireError> {
        let fail = |what: &str| WireError::new(&format!("{kind} {what}"));
        let Json::Object(fields) = parse_json(body)? else {
            return Err(fail("body is not a JSON object"));
        };
        let Some(Json::String(owner)) = find(&fields, "owner").cloned() else {
            return Err(fail("owner missing or not a string"));
        };
        let epoch = opt_u64(&fields, "epoch")?.ok_or_else(|| fail("epoch missing"))?;
        let Some(Json::String(sig)) = find(&fields, "sig").cloned() else {
            return Err(fail("sig missing or not a string"));
        };
        Ok(Self {
            fields,
            owner,
            epoch,
            sig,
        })
    }
}

/// Decodes a push body's `field` entry list, fail-closed: one entry that
/// is not a `[fp, expires, resource]` triple with a 32-hex-char
/// fingerprint and an unsigned expiry rejects the whole list.
fn entries_from_json(
    fields: &[(String, Json)],
    field: &str,
    kind: &str,
) -> Result<Vec<SieveEntry>, WireError> {
    let fail = |what: &str| WireError::new(&format!("{kind} {what}"));
    let Some(Json::Array(raw)) = find(fields, field) else {
        return Err(fail(&format!("{field} missing or not an array")));
    };
    raw.iter()
        .map(|value| {
            let Json::Array(triple) = value else {
                return Err(fail("entry is not an array"));
            };
            let [Json::String(fp_hex), Json::Number(expires), Json::String(resource)] =
                triple.as_slice()
            else {
                return Err(fail("entry is not a [fp, expires, resource] triple"));
            };
            Ok(SieveEntry {
                fingerprint: hex_decode::<16>(fp_hex)
                    .ok_or_else(|| fail("entry fingerprint is not 32 hex chars"))?,
                resource: resource.clone(),
                expires_at_ms: expires
                    .parse::<u64>()
                    .map_err(|_| fail("entry expiry is not an unsigned integer"))?,
            })
        })
        .collect()
}

/// Decodes a push body's `field` fingerprint list, fail-closed: one
/// element that is not a 32-hex-char string rejects the whole list.
fn fingerprints_from_json(
    fields: &[(String, Json)],
    field: &str,
    kind: &str,
) -> Result<Vec<SieveFingerprint>, WireError> {
    let fail = |what: &str| WireError::new(&format!("{kind} {what}"));
    let Some(Json::Array(raw)) = find(fields, field) else {
        return Err(fail(&format!("{field} missing or not an array")));
    };
    raw.iter()
        .map(|value| match value {
            Json::String(fp_hex) => {
                hex_decode::<16>(fp_hex).ok_or_else(|| fail("fingerprint is not 32 hex chars"))
            }
            _ => Err(fail("fingerprint is not a string")),
        })
        .collect()
}

fn push_hex(out: &mut String, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0x0f) as usize] as char);
    }
}

/// Decodes exactly `N` bytes of lowercase-or-uppercase hex; anything
/// else (wrong length, stray characters) is `None`.
fn hex_decode<const N: usize>(s: &str) -> Option<[u8; N]> {
    let bytes = s.as_bytes();
    if bytes.len() != N * 2 {
        return None;
    }
    let nibble = |b: u8| -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    };
    let mut out = [0u8; N];
    for (i, chunk) in bytes.chunks_exact(2).enumerate() {
        out[i] = (nibble(chunk[0])? << 4) | nibble(chunk[1])?;
    }
    Some(out)
}

/// A wire-format violation. Carries a human-readable message; the only
/// safe reaction on the Host side is to refuse the access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    fn new(message: &str) -> Self {
        Self {
            message: message.to_owned(),
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Minimal JSON machinery (no serde_json dependency)
// ---------------------------------------------------------------------------

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The subset of JSON values the protocol uses. Numbers keep their raw
/// text so integer fields parse losslessly.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

fn find<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn opt_u64(fields: &[(String, Json)], key: &str) -> Result<Option<u64>, WireError> {
    match find(fields, key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Number(raw)) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|_| WireError::new(&format!("{key} is not an unsigned integer"))),
        Some(_) => Err(WireError::new(&format!("{key} is not a number"))),
    }
}

fn opt_string(fields: &[(String, Json)], key: &str) -> Result<Option<String>, WireError> {
    match find(fields, key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(WireError::new(&format!("{key} is not a string"))),
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
fn parse_json(input: &str) -> Result<Json, WireError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(WireError::new("trailing characters after JSON value"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(WireError::new("unexpected character in JSON")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, WireError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(WireError::new("invalid JSON literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(WireError::new("empty number"));
    }
    let raw = core::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| WireError::new("invalid number bytes"))?;
    // Validate it is at least float-shaped; raw text is kept for
    // lossless integer extraction later.
    raw.parse::<f64>()
        .map_err(|_| WireError::new("malformed number"))?;
    Ok(Json::Number(raw.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(WireError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| WireError::new("truncated \\u escape"))?;
                        let hex = core::str::from_utf8(hex)
                            .map_err(|_| WireError::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| WireError::new("invalid \\u escape"))?;
                        // Surrogates are not paired here: the encoder never
                        // emits them and the protocol carries no astral
                        // escapes, so a lone surrogate is simply an error.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| WireError::new("invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(WireError::new("invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar (input is &str, so the
                // byte stream is valid UTF-8 by construction).
                let s = core::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| WireError::new("invalid UTF-8"))?;
                let c = s.chars().next().ok_or_else(|| WireError::new("empty"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'{'));
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(WireError::new("expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(WireError::new("expected ':' after key"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(WireError::new("expected ',' or '}'")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'['));
    *pos += 1;
    let mut values = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(values));
    }
    loop {
        let value = parse_value(bytes, pos)?;
        values.push(value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(values));
            }
            _ => return Err(WireError::new("expected ',' or ']'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permit_round_trips() {
        let body = DecisionBody::permit(60_000, 3);
        let json = body.to_json();
        assert_eq!(
            json,
            "{\"decision\":\"permit\",\"cacheable_ms\":60000,\"policy_epoch\":3}"
        );
        assert_eq!(DecisionBody::from_json(&json).unwrap(), body);
        assert!(body.is_permit());
    }

    #[test]
    fn deny_round_trips_with_escaped_reason() {
        let body = DecisionBody::deny("no \"permit\" for you\nline two");
        let json = body.to_json();
        let parsed = DecisionBody::from_json(&json).unwrap();
        assert_eq!(parsed, body);
        assert!(!parsed.is_permit());
    }

    #[test]
    fn deny_containing_permit_text_is_not_a_permit() {
        let body = "{\"decision\":\"deny\",\"reason\":\"would permit if consented\"}";
        let parsed = DecisionBody::from_json(body).unwrap();
        assert!(!parsed.is_permit());
        assert_eq!(DecisionBody::parse_cacheable_ms(body), 0);
    }

    #[test]
    fn malformed_bodies_fail_closed() {
        for body in [
            "certainly! \"permit\" granted",
            "{\"decision\":",
            "{\"decision\":42}",
            "{}",
            "[\"permit\"]",
            "{\"decision\":\"permit\"} trailing",
            "{\"decision\":\"permit\",\"cacheable_ms\":-5}",
            "{\"decision\":\"permit\",\"cacheable_ms\":\"60000\"}",
        ] {
            assert!(DecisionBody::from_json(body).is_err(), "{body}");
            assert_eq!(DecisionBody::parse_cacheable_ms(body), 0, "{body}");
        }
    }

    #[test]
    fn parse_cacheable_ms_matches_historical_behavior() {
        let cases = [
            (
                "{\"decision\":\"permit\",\"cacheable_ms\":60000,\"policy_epoch\":1}",
                60_000,
            ),
            (
                "{\"decision\":\"permit\",\"cacheable_ms\":0,\"policy_epoch\":1}",
                0,
            ),
            ("{\"decision\":\"permit\"}", 0),
            ("{\"decision\":\"deny\",\"reason\":\"nope\"}", 0),
            ("{\"decision\":\"deny\",\"cacheable_ms\":60000}", 0),
            ("{\"decision\":", 0),
            ("not json at all", 0),
        ];
        for (body, want) in cases {
            assert_eq!(DecisionBody::parse_cacheable_ms(body), want, "{body}");
        }
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let body = "{\"decision\":\"permit\",\"cacheable_ms\":5,\"policy_epoch\":1,\
                    \"extra\":{\"nested\":[1,2,null,true]},\"note\":\"x\"}";
        let parsed = DecisionBody::from_json(body).unwrap();
        assert!(parsed.is_permit());
        assert_eq!(parsed.cacheable_ms, Some(5));
    }

    #[test]
    fn null_optionals_read_as_absent() {
        let body = "{\"decision\":\"deny\",\"reason\":null,\"cacheable_ms\":null}";
        let parsed = DecisionBody::from_json(body).unwrap();
        assert_eq!(parsed.cacheable_ms, None);
        assert_eq!(parsed.reason, None);
    }

    #[test]
    fn batch_request_round_trips_and_caps() {
        let items: Vec<BatchItem> = (0..3)
            .map(|i| BatchItem {
                token: format!("tok-{i}"),
                resource: format!("files/r{i}.txt"),
                action: "read".into(),
                requester: "requester:app".into(),
            })
            .collect();
        let body = encode_batch_request(&items);
        assert_eq!(parse_batch_request(&body).unwrap(), items);

        let oversized: Vec<BatchItem> = (0..=MAX_BATCH)
            .map(|i| BatchItem {
                token: format!("t{i}"),
                resource: "r".into(),
                action: "read".into(),
                requester: "q".into(),
            })
            .collect();
        assert!(parse_batch_request(&encode_batch_request(&oversized)).is_err());
    }

    #[test]
    fn batch_response_round_trips() {
        let decisions = vec![
            DecisionBody::permit(400, 2),
            DecisionBody::deny("not in group"),
        ];
        let body = encode_batch_response(&decisions);
        assert_eq!(parse_batch_response(&body).unwrap(), decisions);
        assert!(parse_batch_response("{\"not\":\"array\"}").is_err());
        assert!(parse_batch_response("[{\"decision\":42}]").is_err());
    }

    #[test]
    fn empty_batches_are_legal() {
        assert_eq!(parse_batch_request("[]").unwrap(), Vec::<BatchItem>::new());
        assert_eq!(
            parse_batch_response("[]").unwrap(),
            Vec::<DecisionBody>::new()
        );
    }

    fn sample_sieve(key: &[u8]) -> SieveBody {
        let entries = vec![
            SieveEntry {
                fingerprint: sieve_fingerprint("tok-1", "files/a.txt", "read", "requester:app"),
                resource: "files/a.txt".into(),
                expires_at_ms: 60_000,
            },
            SieveEntry {
                fingerprint: sieve_fingerprint("tok-2", "files/b.txt", "write", "requester:app"),
                resource: "files/b.txt".into(),
                expires_at_ms: 45_000,
            },
        ];
        SieveBody::build("bob", 7, entries, key)
    }

    #[test]
    fn sieve_round_trips_and_verifies() {
        let body = sample_sieve(b"host-token-secret");
        let json = body.to_json();
        let parsed = SieveBody::from_json(&json).unwrap();
        assert_eq!(parsed, body);
        assert!(parsed.verify(b"host-token-secret"));
        assert!(!parsed.verify(b"some-other-token"));
    }

    #[test]
    fn empty_sieve_is_legal_and_signed() {
        let body = SieveBody::build("bob", 9, Vec::new(), b"k");
        let parsed = SieveBody::from_json(&body.to_json()).unwrap();
        assert!(parsed.entries.is_empty());
        assert!(parsed.verify(b"k"));
    }

    #[test]
    fn tampered_sieves_fail_verification() {
        let key = b"host-token-secret";
        let mut bumped_epoch = sample_sieve(key);
        bumped_epoch.epoch += 1;
        assert!(!bumped_epoch.verify(key));

        let mut dropped_entry = sample_sieve(key);
        dropped_entry.entries.pop();
        assert!(!dropped_entry.verify(key));

        let mut extended_expiry = sample_sieve(key);
        extended_expiry.entries[0].expires_at_ms += 1;
        assert!(!extended_expiry.verify(key));

        let mut swapped_resource = sample_sieve(key);
        swapped_resource.entries[0].resource = "files/other.txt".into();
        assert!(!swapped_resource.verify(key));
    }

    #[test]
    fn malformed_sieve_bodies_fail_closed() {
        for body in [
            "not json",
            "[]",
            "{}",
            "{\"owner\":\"bob\",\"epoch\":1,\"entries\":[],\"sig\":42}",
            "{\"owner\":\"bob\",\"entries\":[],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":-1,\"entries\":[],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"entries\":[\"flat\"],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"entries\":[[\"zz\",1,\"r\"]],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"entries\":[[\"aabb\",1,\"r\"]],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"entries\":[[\
             \"00112233445566778899aabbccddeeff\",-2,\"r\"]],\"sig\":\"aa\"}",
        ] {
            assert!(SieveBody::from_json(body).is_err(), "{body}");
        }
    }

    fn sample_delta(key: &[u8]) -> SieveDeltaBody {
        SieveDeltaBody::build(
            "bob",
            9,
            7,
            vec![SieveEntry {
                fingerprint: sieve_fingerprint("tok-3", "files/c.txt", "read", "requester:app"),
                resource: "files/c.txt".into(),
                expires_at_ms: 99_000,
            }],
            vec![sieve_fingerprint(
                "tok-1",
                "files/a.txt",
                "read",
                "requester:app",
            )],
            key,
        )
    }

    #[test]
    fn sieve_delta_round_trips_and_verifies() {
        let key = b"host-token-secret";
        let delta = sample_delta(key);
        let parsed = SieveDeltaBody::from_json(&delta.to_json()).unwrap();
        assert_eq!(parsed, delta);
        assert!(parsed.verify(key));
        assert!(!parsed.verify(b"some-other-token"));
    }

    #[test]
    fn tampered_sieve_deltas_fail_verification() {
        let key = b"host-token-secret";
        let mut bumped_base = sample_delta(key);
        bumped_base.base_epoch += 1;
        assert!(!bumped_base.verify(key));

        let mut dropped_removal = sample_delta(key);
        dropped_removal.removed.pop();
        assert!(!dropped_removal.verify(key));

        let mut extended_expiry = sample_delta(key);
        extended_expiry.added[0].expires_at_ms += 1;
        assert!(!extended_expiry.verify(key));
    }

    #[test]
    fn sieve_and_delta_bodies_never_cross_parse() {
        let key = b"host-token-secret";
        // Disjoint field sets keep the two body kinds unambiguous on the
        // shared epoch-push route.
        assert!(SieveBody::from_json(&sample_delta(key).to_json()).is_err());
        assert!(SieveDeltaBody::from_json(&sample_sieve(key).to_json()).is_err());
        // And the shared route's domain separators keep a delta from ever
        // being replayed as a full sieve even if fields were grafted.
        let delta = sample_delta(key);
        let grafted = SieveBody {
            owner: delta.owner.clone(),
            epoch: delta.epoch,
            entries: delta.added.clone(),
            sig: delta.sig.clone(),
        };
        assert!(!grafted.verify(key));
    }

    #[test]
    fn malformed_sieve_delta_bodies_fail_closed() {
        for body in [
            "not json",
            "{}",
            "{\"owner\":\"bob\",\"epoch\":1,\"added\":[],\"removed\":[],\"sig\":42}",
            "{\"owner\":\"bob\",\"epoch\":1,\"added\":[],\"removed\":[],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"base_epoch\":1,\"added\":[[\"zz\",1,\"r\"]],\
             \"removed\":[],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"base_epoch\":1,\"added\":[],\
             \"removed\":[\"zz\"],\"sig\":\"aa\"}",
        ] {
            assert!(SieveDeltaBody::from_json(body).is_err(), "{body}");
        }
    }

    #[test]
    fn sieve_fingerprints_separate_fields() {
        // No two tuples that differ anywhere may collide — in particular
        // shifting bytes across the field boundary must change the hash.
        let a = sieve_fingerprint("tok", "res", "read", "req");
        assert_eq!(a, sieve_fingerprint("tok", "res", "read", "req"));
        assert_ne!(a, sieve_fingerprint("tok", "res", "read", "req2"));
        assert_ne!(a, sieve_fingerprint("tokr", "es", "read", "req"));
        assert_ne!(a, sieve_fingerprint("tok", "res", "rea", "dreq"));
    }

    #[test]
    fn unchanged_body_round_trips_exactly() {
        let body = UnchangedBody { cacheable_ms: 400 };
        let json = body.to_json();
        assert_eq!(json, "{\"unchanged\":true,\"cacheable_ms\":400}");
        assert_eq!(UnchangedBody::from_json(&json).unwrap(), body);
        // An unchanged reply is strictly smaller than the permit it
        // replaces — by more than the `if_epoch` query param costs the
        // request (`&if_epoch=<e>` is 10 + digits(e) bytes, the dropped
        // `,"policy_epoch":<e>` echo is 16 + digits(e)), so the
        // conditional exchange saves wire bytes end to end for every
        // epoch value. The CI work-count gate pins the measured level.
        let epoch_param = "&if_epoch=7".len();
        assert!(json.len() + epoch_param < DecisionBody::permit(400, 7).to_json().len());
    }

    #[test]
    fn unchanged_and_decision_bodies_never_cross_parse() {
        let unchanged = UnchangedBody { cacheable_ms: 400 }.to_json();
        assert!(DecisionBody::from_json(&unchanged).is_err());
        let permit = DecisionBody::permit(400, 7).to_json();
        assert!(UnchangedBody::from_json(&permit).is_err());
    }

    #[test]
    fn malformed_unchanged_bodies_fail_closed() {
        for body in [
            "not json",
            "{}",
            "{\"unchanged\":false,\"cacheable_ms\":1}",
            "{\"unchanged\":\"true\",\"cacheable_ms\":1}",
            "{\"unchanged\":true}",
            "{\"unchanged\":true,\"cacheable_ms\":-1}",
            "{\"cacheable_ms\":1}",
        ] {
            assert!(UnchangedBody::from_json(body).is_err(), "{body}");
        }
    }

    fn sample_invalidation(key: &[u8]) -> InvalidationBody {
        InvalidationBody::build(
            "bob",
            9,
            vec![
                sieve_fingerprint("tok-1", "files/a.txt", "read", "requester:app"),
                sieve_fingerprint("tok-2", "files/b.txt", "write", "requester:app"),
            ],
            key,
        )
    }

    #[test]
    fn invalidation_round_trips_and_verifies() {
        let key = b"host-token-secret";
        let body = sample_invalidation(key);
        let parsed = InvalidationBody::from_json(&body.to_json()).unwrap();
        assert_eq!(parsed, body);
        assert!(parsed.verify(key));
        assert!(!parsed.verify(b"some-other-token"));
    }

    #[test]
    fn empty_invalidation_is_legal_and_signed() {
        let body = InvalidationBody::build("bob", 3, Vec::new(), b"k");
        let parsed = InvalidationBody::from_json(&body.to_json()).unwrap();
        assert!(parsed.invalidated.is_empty());
        assert!(parsed.verify(b"k"));
    }

    #[test]
    fn tampered_invalidations_fail_verification() {
        let key = b"host-token-secret";
        let mut bumped_epoch = sample_invalidation(key);
        bumped_epoch.epoch += 1;
        assert!(!bumped_epoch.verify(key));

        let mut dropped_fp = sample_invalidation(key);
        dropped_fp.invalidated.pop();
        assert!(!dropped_fp.verify(key));

        let mut swapped_owner = sample_invalidation(key);
        swapped_owner.owner = "mallory".into();
        assert!(!swapped_owner.verify(key));
    }

    #[test]
    fn malformed_invalidation_bodies_fail_closed() {
        for body in [
            "not json",
            "{}",
            "{\"owner\":\"bob\",\"epoch\":1,\"invalidated\":[],\"sig\":42}",
            "{\"owner\":\"bob\",\"invalidated\":[],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"invalidated\":[42],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"invalidated\":[\"zz\"],\"sig\":\"aa\"}",
            "{\"owner\":\"bob\",\"epoch\":1,\"invalidated\":\"aa\",\"sig\":\"aa\"}",
        ] {
            assert!(InvalidationBody::from_json(body).is_err(), "{body}");
        }
    }

    #[test]
    fn push_body_kinds_never_cross_parse() {
        let key = b"host-token-secret";
        // All three push body kinds share EPOCH_PUSH_PATH; disjoint field
        // sets keep them unambiguous...
        let inval = sample_invalidation(key).to_json();
        assert!(SieveBody::from_json(&inval).is_err());
        assert!(SieveDeltaBody::from_json(&inval).is_err());
        assert!(InvalidationBody::from_json(&sample_sieve(key).to_json()).is_err());
        assert!(InvalidationBody::from_json(&sample_delta(key).to_json()).is_err());
        // ...and domain separators keep grafted fields from verifying: an
        // invalidation's removals can never replay as a delta's.
        let inval = sample_invalidation(key);
        let grafted = SieveDeltaBody {
            owner: inval.owner.clone(),
            epoch: inval.epoch,
            base_epoch: inval.epoch,
            added: Vec::new(),
            removed: inval.invalidated.clone(),
            sig: inval.sig.clone(),
        };
        assert!(!grafted.verify(key));
    }

    #[test]
    fn authorize_request_round_trips_and_caps() {
        let items: Vec<AuthorizeItem> = (0..3)
            .map(|i| AuthorizeItem {
                owner: "bob".into(),
                resource: format!("files/r{i}.txt"),
                action: "read".into(),
            })
            .collect();
        let body = encode_authorize_request(&items);
        assert_eq!(parse_authorize_request(&body).unwrap(), items);

        let oversized: Vec<AuthorizeItem> = (0..=MAX_BATCH)
            .map(|i| AuthorizeItem {
                owner: format!("u{i}"),
                resource: "r".into(),
                action: "read".into(),
            })
            .collect();
        assert!(parse_authorize_request(&encode_authorize_request(&oversized)).is_err());
        assert!(parse_authorize_request("{\"not\":\"array\"}").is_err());
        assert!(parse_authorize_request("[{\"owner\":\"bob\"}]").is_err());
    }

    #[test]
    fn authorize_replies_round_trip_every_variant() {
        let replies = vec![
            AuthorizeReply::Token("tok-1".into()),
            AuthorizeReply::Denied("not in group".into()),
            AuthorizeReply::Pending("consent-9".into()),
            AuthorizeReply::NeedsClaims(vec!["age".into(), "email".into()]),
            AuthorizeReply::Error("expired host token".into()),
        ];
        let body = encode_authorize_response(&replies);
        assert_eq!(parse_authorize_response(&body).unwrap(), replies);
    }

    #[test]
    fn malformed_authorize_replies_fail_closed() {
        for body in [
            "not json",
            "{\"token\":\"t\"}",
            "[{}]",
            "[{\"token\":42}]",
            "[{\"claims\":[42]}]",
            "[{\"token\":\"t\",\"denied\":\"also\"}]",
            "[{\"verdict\":\"token\"}]",
        ] {
            assert!(parse_authorize_response(body).is_err(), "{body}");
        }
    }

    #[test]
    fn register_body_round_trips_and_validates_kind() {
        for kind in ["host", "requester"] {
            let body = RegisterBody {
                kind: kind.into(),
                authority: "files.example".into(),
            };
            assert_eq!(RegisterBody::from_json(&body.to_json()).unwrap(), body);
        }
        for body in [
            "not json",
            "{}",
            "{\"kind\":\"am\",\"authority\":\"x\"}",
            "{\"kind\":\"host\",\"authority\":\"\"}",
            "{\"kind\":\"host\"}",
            "{\"kind\":42,\"authority\":\"x\"}",
        ] {
            assert!(RegisterBody::from_json(body).is_err(), "{body}");
        }
    }

    #[test]
    fn registration_and_delegate_replies_round_trip() {
        let reg = RegistrationReply {
            registrant_id: "reg-1".into(),
            secret: "s3cr3t".into(),
        };
        assert_eq!(RegistrationReply::from_json(&reg.to_json()).unwrap(), reg);
        let del = DelegateReply {
            delegation_id: "d-1".into(),
            host_token: "ht".into(),
        };
        assert_eq!(DelegateReply::from_json(&del.to_json()).unwrap(), del);
        for body in [
            "not json",
            "{}",
            "{\"registrant_id\":\"\",\"secret\":\"s\"}",
            "{\"registrant_id\":\"r\",\"secret\":42}",
        ] {
            assert!(RegistrationReply::from_json(body).is_err(), "{body}");
        }
        for body in ["{}", "{\"delegation_id\":\"d\"}", "{\"host_token\":\"h\"}"] {
            assert!(DelegateReply::from_json(body).is_err(), "{body}");
        }
    }
}
