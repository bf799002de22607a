//! XML import/export of policies, implemented from scratch.
//!
//! The second REST exchange format of the paper's prototype (§VI). The
//! format is a small, purpose-built dialect:
//!
//! ```xml
//! <policies>
//!   <policy id="sharing" name="sharing" language="rules">
//!     <rule effect="permit">
//!       <subject type="group">friends</subject>
//!       <action>read</action>
//!       <condition type="valid-until" value="99"/>
//!     </rule>
//!   </policy>
//!   <policy id="simple" name="simple" language="matrix">
//!     <cell subject-type="public" action="read"/>
//!   </policy>
//! </policies>
//! ```
//!
//! The parser is a minimal well-formedness-checking tree builder supporting
//! elements, attributes, text, self-closing tags, XML declarations,
//! comments, and the five predefined entities plus numeric references.

use std::fmt;

use crate::condition::{ClaimRequirement, Condition};
use crate::matrix::AclMatrix;
use crate::model::{Action, Policy, PolicyBody, PolicyId, Subject};
use crate::rule::{Effect, Rule, RulePolicy};
use crate::xacml::{
    Combining, ResourceMatch, Target, XEffect, XExpr, XacmlPolicy, XacmlPolicySet, XacmlRule,
};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// An error importing XML policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Lexical/structural XML problem at a byte offset.
    Syntax {
        /// Byte offset of the problem.
        at: usize,
        /// Description.
        message: String,
    },
    /// The document is well-formed XML but not a valid policy document.
    Schema(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax { at, message } => {
                write!(f, "xml syntax error at byte {at}: {message}")
            }
            XmlError::Schema(m) => write!(f, "xml schema error: {m}"),
        }
    }
}

impl std::error::Error for XmlError {}

fn schema_err<T>(message: impl Into<String>) -> Result<T, XmlError> {
    Err(XmlError::Schema(message.into()))
}

// ---------------------------------------------------------------------------
// Minimal XML tree
// ---------------------------------------------------------------------------

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated text content directly inside this element.
    pub text: String,
}

impl Element {
    /// Creates an element with a name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Element {
            name: name.to_owned(),
            ..Element::default()
        }
    }

    /// Looks up an attribute value.
    #[must_use]
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children.iter().filter(move |c| c.name == name)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

fn write_element(el: &Element, indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push('<');
    out.push_str(&el.name);
    for (k, v) in &el.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape(v, out);
        out.push('"');
    }
    if el.children.is_empty() && el.text.is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push('>');
    if el.children.is_empty() {
        escape(&el.text, out);
        out.push_str("</");
        out.push_str(&el.name);
        out.push_str(">\n");
        return;
    }
    out.push('\n');
    for child in &el.children {
        write_element(child, indent + 1, out);
    }
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str("</");
    out.push_str(&el.name);
    out.push_str(">\n");
}

/// Renders an element tree as an XML document.
#[must_use]
pub fn render(root: &Element) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_element(root, 0, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deep a parsed document may nest elements. The parser recurses
/// once per element level, so this bounds its stack: a hostile
/// 100,000-deep body is a syntax error, not a stack overflow that aborts
/// the process. Documents the workspace renders nest far less: a policy
/// export whose XACML condition is three expressions deep nests 10
/// levels, and each further expression level adds one.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError::Syntax {
            at: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                match self.input[self.pos..].windows(2).position(|w| w == b"?>") {
                    Some(rel) => self.pos += rel + 2,
                    None => return self.err("unterminated declaration"),
                }
            } else if self.starts_with("<!--") {
                match self.input[self.pos + 4..]
                    .windows(3)
                    .position(|w| w == b"-->")
                {
                    Some(rel) => self.pos += 4 + rel + 3,
                    None => return self.err("unterminated comment"),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'-' || c == b'_' || c == b':' || c == b'.')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn parse_entity(&mut self) -> Result<char, XmlError> {
        // self.pos is at '&'
        let semi = match self.input[self.pos..].iter().position(|&b| b == b';') {
            Some(rel) if rel <= 10 => self.pos + rel,
            _ => return self.err("unterminated entity"),
        };
        let entity = &self.input[self.pos + 1..semi];
        let text = std::str::from_utf8(entity).unwrap_or("");
        let c = match text {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let code = if let Some(hex) = text.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = text.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    None
                };
                match code.and_then(char::from_u32) {
                    Some(c) => c,
                    None => return self.err(format!("unknown entity &{text};")),
                }
            }
        };
        self.pos = semi + 1;
        Ok(c)
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.pos += 1;
        let mut value = String::new();
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    self.pos += 1;
                    return Ok(value);
                }
                Some(b'&') => value.push(self.parse_entity()?),
                Some(_) => {
                    // Collect a UTF-8 code point.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.input.len() && (self.input[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    value.push_str(&String::from_utf8_lossy(&self.input[start..self.pos]));
                }
                None => return self.err("unterminated attribute value"),
            }
        }
    }

    /// Parses one element inside `depth` enclosing elements; assumes
    /// `self.pos` is at its `<`.
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth == MAX_DEPTH {
            return self.err(format!("elements nest deeper than {MAX_DEPTH} levels"));
        }
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut el = Element::new(&name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(el); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    el.attrs.push((attr_name, value));
                }
                None => return self.err("unterminated start tag"),
            }
        }
        // Content.
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != el.name {
                            return self.err(format!(
                                "mismatched close tag: expected </{}>, found </{close}>",
                                el.name
                            ));
                        }
                        self.skip_ws();
                        self.expect(b'>')?;
                        el.text = el.text.trim().to_owned();
                        return Ok(el);
                    } else if self.starts_with("<!--") {
                        self.skip_misc()?;
                    } else {
                        el.children.push(self.parse_element(depth + 1)?);
                    }
                }
                Some(b'&') => el.text.push(self.parse_entity()?),
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'<' | b'&') | None) {
                        self.pos += 1;
                    }
                    el.text
                        .push_str(&String::from_utf8_lossy(&self.input[start..self.pos]));
                }
                None => return self.err(format!("unterminated element <{}>", el.name)),
            }
        }
    }
}

/// Parses an XML document into its root element.
///
/// # Errors
///
/// Returns [`XmlError::Syntax`] for malformed input.
///
/// # Example
///
/// ```
/// let root = ucam_policy::xml::parse("<a x=\"1\"><b>hi</b></a>")?;
/// assert_eq!(root.name, "a");
/// assert_eq!(root.attr("x"), Some("1"));
/// assert_eq!(root.children[0].text, "hi");
/// # Ok::<(), ucam_policy::xml::XmlError>(())
/// ```
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut parser = Parser::new(input);
    parser.skip_misc()?;
    if parser.peek() != Some(b'<') {
        return parser.err("expected root element");
    }
    let root = parser.parse_element(0)?;
    parser.skip_misc()?;
    if parser.pos != parser.input.len() {
        return parser.err("trailing content after root element");
    }
    Ok(root)
}

// ---------------------------------------------------------------------------
// Policy <-> Element mapping
// ---------------------------------------------------------------------------

fn subject_to_attrs(subject: &Subject) -> (&'static str, Option<&str>) {
    match subject {
        Subject::Public => ("public", None),
        Subject::Authenticated => ("authenticated", None),
        Subject::User(u) => ("user", Some(u)),
        Subject::Group(g) => ("group", Some(g)),
        Subject::App(a) => ("app", Some(a)),
    }
}

fn subject_from_parts(kind: &str, value: Option<&str>) -> Result<Subject, XmlError> {
    match (kind, value) {
        ("public", _) => Ok(Subject::Public),
        ("authenticated", _) => Ok(Subject::Authenticated),
        ("user", Some(v)) if !v.is_empty() => Ok(Subject::User(v.to_owned())),
        ("group", Some(v)) if !v.is_empty() => Ok(Subject::Group(v.to_owned())),
        ("app", Some(v)) if !v.is_empty() => Ok(Subject::App(v.to_owned())),
        _ => schema_err(format!("invalid subject: type={kind} value={value:?}")),
    }
}

fn action_to_string(action: &Action) -> String {
    action.to_string()
}

fn action_from_str(s: &str) -> Action {
    match s {
        "read" => Action::Read,
        "write" => Action::Write,
        "delete" => Action::Delete,
        "list" => Action::List,
        "share" => Action::Share,
        other => Action::Custom(other.to_owned()),
    }
}

fn condition_to_element(condition: &Condition) -> Element {
    let mut el = Element::new("condition");
    match condition {
        Condition::TimeWindow { start_ms, end_ms } => {
            el.attrs.push(("type".into(), "time-window".into()));
            el.attrs.push(("start".into(), start_ms.to_string()));
            el.attrs.push(("end".into(), end_ms.to_string()));
        }
        Condition::ValidUntil(t) => {
            el.attrs.push(("type".into(), "valid-until".into()));
            el.attrs.push(("value".into(), t.to_string()));
        }
        Condition::MaxUses(n) => {
            el.attrs.push(("type".into(), "max-uses".into()));
            el.attrs.push(("value".into(), n.to_string()));
        }
        Condition::RequiresConsent => {
            el.attrs.push(("type".into(), "requires-consent".into()));
        }
        Condition::RequiresClaims(reqs) => {
            el.attrs.push(("type".into(), "requires-claims".into()));
            for r in reqs {
                let mut claim = Element::new("claim");
                claim.attrs.push(("kind".into(), r.kind.clone()));
                if let Some(issuer) = &r.issuer {
                    claim.attrs.push(("issuer".into(), issuer.clone()));
                }
                el.children.push(claim);
            }
        }
    }
    el
}

fn u64_attr(el: &Element, name: &str) -> Result<u64, XmlError> {
    el.attr(name)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| XmlError::Schema(format!("condition needs numeric attr '{name}'")))
}

fn condition_from_element(el: &Element) -> Result<Condition, XmlError> {
    match el.attr("type") {
        Some("time-window") => Ok(Condition::TimeWindow {
            start_ms: u64_attr(el, "start")?,
            end_ms: u64_attr(el, "end")?,
        }),
        Some("valid-until") => Ok(Condition::ValidUntil(u64_attr(el, "value")?)),
        Some("max-uses") => {
            let v = u64_attr(el, "value")?;
            u32::try_from(v)
                .map(Condition::MaxUses)
                .map_err(|_| XmlError::Schema("max-uses out of range".into()))
        }
        Some("requires-consent") => Ok(Condition::RequiresConsent),
        Some("requires-claims") => {
            let mut reqs = Vec::new();
            for claim in el.children_named("claim") {
                let kind = claim
                    .attr("kind")
                    .ok_or_else(|| XmlError::Schema("claim needs 'kind'".into()))?;
                reqs.push(ClaimRequirement {
                    kind: kind.to_owned(),
                    issuer: claim.attr("issuer").map(str::to_owned),
                });
            }
            Ok(Condition::RequiresClaims(reqs))
        }
        other => schema_err(format!("unknown condition type: {other:?}")),
    }
}

fn policy_to_element(policy: &Policy) -> Element {
    let mut el = Element::new("policy");
    el.attrs.push(("id".into(), policy.id.as_str().to_owned()));
    el.attrs.push(("name".into(), policy.name.clone()));
    el.attrs
        .push(("language".into(), policy.language().to_owned()));
    match &policy.body {
        PolicyBody::Rules(rules) => {
            for rule in rules.rules() {
                let mut rule_el = Element::new("rule");
                let effect = match rule.effect {
                    Effect::Permit => "permit",
                    Effect::Deny => "deny",
                };
                rule_el.attrs.push(("effect".into(), effect.into()));
                for subject in &rule.subjects {
                    let (kind, value) = subject_to_attrs(subject);
                    let mut s = Element::new("subject");
                    s.attrs.push(("type".into(), kind.into()));
                    if let Some(v) = value {
                        s.text = v.to_owned();
                    }
                    rule_el.children.push(s);
                }
                for action in &rule.actions {
                    let mut a = Element::new("action");
                    a.text = action_to_string(action);
                    rule_el.children.push(a);
                }
                for condition in &rule.conditions {
                    rule_el.children.push(condition_to_element(condition));
                }
                el.children.push(rule_el);
            }
        }
        PolicyBody::Matrix(matrix) => {
            for (subject, action) in matrix.cells() {
                let (kind, value) = subject_to_attrs(subject);
                let mut cell = Element::new("cell");
                cell.attrs.push(("subject-type".into(), kind.into()));
                if let Some(v) = value {
                    cell.attrs.push(("subject".into(), v.to_owned()));
                }
                cell.attrs.push(("action".into(), action_to_string(action)));
                el.children.push(cell);
            }
        }
        PolicyBody::Xacml(set) => {
            el.children.push(xacml_set_to_element(set));
        }
    }
    el
}

// -- XACML <-> Element -------------------------------------------------------

fn combining_name(combining: Combining) -> &'static str {
    match combining {
        Combining::DenyOverrides => "deny-overrides",
        Combining::PermitOverrides => "permit-overrides",
        Combining::FirstApplicable => "first-applicable",
    }
}

fn combining_from_name(name: Option<&str>) -> Result<Combining, XmlError> {
    match name {
        Some("deny-overrides") => Ok(Combining::DenyOverrides),
        Some("permit-overrides") => Ok(Combining::PermitOverrides),
        Some("first-applicable") => Ok(Combining::FirstApplicable),
        other => schema_err(format!("unknown combining algorithm: {other:?}")),
    }
}

fn target_to_element(target: &Target) -> Element {
    let mut el = Element::new("target");
    for subject in &target.subjects {
        let (kind, value) = subject_to_attrs(subject);
        let mut s = Element::new("subject");
        s.attrs.push(("type".into(), kind.into()));
        if let Some(v) = value {
            s.text = v.to_owned();
        }
        el.children.push(s);
    }
    for action in &target.actions {
        let mut a = Element::new("action");
        a.text = action_to_string(action);
        el.children.push(a);
    }
    for resource in &target.resources {
        let mut r = Element::new("resource");
        match resource {
            ResourceMatch::Any => r.attrs.push(("match".into(), "any".into())),
            ResourceMatch::Id(id) => {
                r.attrs.push(("match".into(), "id".into()));
                r.text = id.clone();
            }
            ResourceMatch::IdPrefix(prefix) => {
                r.attrs.push(("match".into(), "prefix".into()));
                r.text = prefix.clone();
            }
            ResourceMatch::Host(host) => {
                r.attrs.push(("match".into(), "host".into()));
                r.text = host.clone();
            }
        }
        el.children.push(r);
    }
    el
}

fn target_from_element(el: &Element) -> Result<Target, XmlError> {
    let mut target = Target::any();
    for s in el.children_named("subject") {
        let kind = s
            .attr("type")
            .ok_or_else(|| XmlError::Schema("subject needs 'type'".into()))?;
        target.subjects.push(subject_from_parts(
            kind,
            if s.text.is_empty() {
                None
            } else {
                Some(&s.text)
            },
        )?);
    }
    for a in el.children_named("action") {
        target.actions.push(action_from_str(&a.text));
    }
    for r in el.children_named("resource") {
        let matcher = match r.attr("match") {
            Some("any") => ResourceMatch::Any,
            Some("id") => ResourceMatch::Id(r.text.clone()),
            Some("prefix") => ResourceMatch::IdPrefix(r.text.clone()),
            Some("host") => ResourceMatch::Host(r.text.clone()),
            other => return schema_err(format!("unknown resource match: {other:?}")),
        };
        target.resources.push(matcher);
    }
    Ok(target)
}

fn xexpr_to_element(expr: &XExpr) -> Element {
    match expr {
        XExpr::True => Element::new("true"),
        XExpr::TimeBefore(t) => {
            let mut el = Element::new("time-before");
            el.attrs.push(("value".into(), t.to_string()));
            el
        }
        XExpr::TimeAtOrAfter(t) => {
            let mut el = Element::new("time-at-or-after");
            el.attrs.push(("value".into(), t.to_string()));
            el
        }
        XExpr::SubjectIs(user) => {
            let mut el = Element::new("subject-is");
            el.text = user.clone();
            el
        }
        XExpr::SubjectInGroup(group) => {
            let mut el = Element::new("subject-in-group");
            el.text = group.clone();
            el
        }
        XExpr::UsesBelow(n) => {
            let mut el = Element::new("uses-below");
            el.attrs.push(("value".into(), n.to_string()));
            el
        }
        XExpr::HasClaim(requirement) => {
            let mut el = Element::new("has-claim");
            el.attrs.push(("kind".into(), requirement.kind.clone()));
            if let Some(issuer) = &requirement.issuer {
                el.attrs.push(("issuer".into(), issuer.clone()));
            }
            el
        }
        XExpr::ConsentGranted => Element::new("consent-granted"),
        XExpr::Not(inner) => {
            let mut el = Element::new("not");
            el.children.push(xexpr_to_element(inner));
            el
        }
        XExpr::And(parts) => {
            let mut el = Element::new("and");
            el.children = parts.iter().map(xexpr_to_element).collect();
            el
        }
        XExpr::Or(parts) => {
            let mut el = Element::new("or");
            el.children = parts.iter().map(xexpr_to_element).collect();
            el
        }
    }
}

fn xexpr_from_element(el: &Element) -> Result<XExpr, XmlError> {
    let num = |name: &str| -> Result<u64, XmlError> {
        el.attr(name)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| XmlError::Schema(format!("<{}> needs numeric '{name}'", el.name)))
    };
    match el.name.as_str() {
        "true" => Ok(XExpr::True),
        "time-before" => Ok(XExpr::TimeBefore(num("value")?)),
        "time-at-or-after" => Ok(XExpr::TimeAtOrAfter(num("value")?)),
        "subject-is" => Ok(XExpr::SubjectIs(el.text.clone())),
        "subject-in-group" => Ok(XExpr::SubjectInGroup(el.text.clone())),
        "uses-below" => {
            let v = num("value")?;
            u32::try_from(v)
                .map(XExpr::UsesBelow)
                .map_err(|_| XmlError::Schema("uses-below out of range".into()))
        }
        "has-claim" => {
            let kind = el
                .attr("kind")
                .ok_or_else(|| XmlError::Schema("has-claim needs 'kind'".into()))?;
            Ok(XExpr::HasClaim(ClaimRequirement {
                kind: kind.to_owned(),
                issuer: el.attr("issuer").map(str::to_owned),
            }))
        }
        "consent-granted" => Ok(XExpr::ConsentGranted),
        "not" => {
            let inner = el
                .children
                .first()
                .ok_or_else(|| XmlError::Schema("<not> needs a child".into()))?;
            Ok(XExpr::Not(Box::new(xexpr_from_element(inner)?)))
        }
        "and" => Ok(XExpr::And(
            el.children
                .iter()
                .map(xexpr_from_element)
                .collect::<Result<_, _>>()?,
        )),
        "or" => Ok(XExpr::Or(
            el.children
                .iter()
                .map(xexpr_from_element)
                .collect::<Result<_, _>>()?,
        )),
        other => schema_err(format!("unknown expression element: <{other}>")),
    }
}

fn xacml_set_to_element(set: &XacmlPolicySet) -> Element {
    let mut el = Element::new("policy-set");
    el.attrs.push(("id".into(), set.id.clone()));
    el.attrs
        .push(("combining".into(), combining_name(set.combining).into()));
    for policy in &set.policies {
        let mut p = Element::new("xpolicy");
        p.attrs.push(("id".into(), policy.id.clone()));
        p.attrs
            .push(("combining".into(), combining_name(policy.combining).into()));
        p.children.push(target_to_element(&policy.target));
        for rule in &policy.rules {
            let mut r = Element::new("xrule");
            r.attrs.push(("id".into(), rule.id.clone()));
            let effect = match rule.effect {
                XEffect::Permit => "permit",
                XEffect::Deny => "deny",
            };
            r.attrs.push(("effect".into(), effect.into()));
            r.children.push(target_to_element(&rule.target));
            if let Some(condition) = &rule.condition {
                let mut c = Element::new("condition");
                c.children.push(xexpr_to_element(condition));
                r.children.push(c);
            }
            p.children.push(r);
        }
        el.children.push(p);
    }
    el
}

fn xacml_set_from_element(el: &Element) -> Result<XacmlPolicySet, XmlError> {
    if el.name != "policy-set" {
        return schema_err(format!("expected <policy-set>, found <{}>", el.name));
    }
    let id = el
        .attr("id")
        .ok_or_else(|| XmlError::Schema("policy-set needs 'id'".into()))?;
    let mut set = XacmlPolicySet::new(id, combining_from_name(el.attr("combining"))?);
    for p in el.children_named("xpolicy") {
        let pid = p
            .attr("id")
            .ok_or_else(|| XmlError::Schema("xpolicy needs 'id'".into()))?;
        let mut policy = XacmlPolicy::new(pid, combining_from_name(p.attr("combining"))?);
        if let Some(target_el) = p.children_named("target").next() {
            policy = policy.with_target(target_from_element(target_el)?);
        }
        for r in p.children_named("xrule") {
            let rid = r
                .attr("id")
                .ok_or_else(|| XmlError::Schema("xrule needs 'id'".into()))?;
            let mut rule = match r.attr("effect") {
                Some("permit") => XacmlRule::permit(rid),
                Some("deny") => XacmlRule::deny(rid),
                other => return schema_err(format!("invalid xrule effect: {other:?}")),
            };
            if let Some(target_el) = r.children_named("target").next() {
                rule = rule.with_target(target_from_element(target_el)?);
            }
            if let Some(condition_el) = r.children_named("condition").next() {
                let inner = condition_el
                    .children
                    .first()
                    .ok_or_else(|| XmlError::Schema("<condition> needs a child".into()))?;
                rule = rule.with_condition(xexpr_from_element(inner)?);
            }
            policy = policy.with_rule(rule);
        }
        set = set.with_policy(policy);
    }
    Ok(set)
}

fn policy_from_element(el: &Element) -> Result<Policy, XmlError> {
    if el.name != "policy" {
        return schema_err(format!("expected <policy>, found <{}>", el.name));
    }
    let id = el
        .attr("id")
        .ok_or_else(|| XmlError::Schema("policy needs 'id'".into()))?;
    let name = el.attr("name").unwrap_or(id);
    let language = el
        .attr("language")
        .ok_or_else(|| XmlError::Schema("policy needs 'language'".into()))?;
    let body = match language {
        "rules" => {
            let mut rules = RulePolicy::new();
            for rule_el in el.children_named("rule") {
                let effect = match rule_el.attr("effect") {
                    Some("permit") => Effect::Permit,
                    Some("deny") => Effect::Deny,
                    other => return schema_err(format!("invalid rule effect: {other:?}")),
                };
                let mut rule = Rule {
                    effect,
                    subjects: Vec::new(),
                    actions: Vec::new(),
                    conditions: Vec::new(),
                };
                for s in rule_el.children_named("subject") {
                    let kind = s
                        .attr("type")
                        .ok_or_else(|| XmlError::Schema("subject needs 'type'".into()))?;
                    rule.subjects.push(subject_from_parts(
                        kind,
                        if s.text.is_empty() {
                            None
                        } else {
                            Some(&s.text)
                        },
                    )?);
                }
                for a in rule_el.children_named("action") {
                    rule.actions.push(action_from_str(&a.text));
                }
                for c in rule_el.children_named("condition") {
                    rule.conditions.push(condition_from_element(c)?);
                }
                rules.push(rule);
            }
            PolicyBody::Rules(rules)
        }
        "matrix" => {
            let mut matrix = AclMatrix::new();
            for cell in el.children_named("cell") {
                let kind = cell
                    .attr("subject-type")
                    .ok_or_else(|| XmlError::Schema("cell needs 'subject-type'".into()))?;
                let subject = subject_from_parts(kind, cell.attr("subject"))?;
                let action = cell
                    .attr("action")
                    .ok_or_else(|| XmlError::Schema("cell needs 'action'".into()))?;
                matrix.insert(subject, action_from_str(action));
            }
            PolicyBody::Matrix(matrix)
        }
        "xacml" => {
            let set_el = el
                .children_named("policy-set")
                .next()
                .ok_or_else(|| XmlError::Schema("xacml policy needs <policy-set>".into()))?;
            PolicyBody::Xacml(xacml_set_from_element(set_el)?)
        }
        other => return schema_err(format!("unknown policy language: {other}")),
    };
    Ok(Policy {
        id: PolicyId::from(id),
        name: name.to_owned(),
        body,
    })
}

/// Exports one policy as an XML document.
#[must_use]
pub fn policy_to_xml(policy: &Policy) -> String {
    render(&policy_to_element(policy))
}

/// Imports one policy from an XML document.
///
/// # Errors
///
/// Returns [`XmlError`] for malformed XML or invalid policy structure.
pub fn policy_from_xml(xml: &str) -> Result<Policy, XmlError> {
    policy_from_element(&parse(xml)?)
}

/// Exports a list of policies as a `<policies>` document.
#[must_use]
pub fn policies_to_xml(policies: &[Policy]) -> String {
    let mut root = Element::new("policies");
    root.children = policies.iter().map(policy_to_element).collect();
    render(&root)
}

/// Imports a `<policies>` document.
///
/// # Errors
///
/// Returns [`XmlError`] for malformed XML or invalid policy structure.
pub fn policies_from_xml(xml: &str) -> Result<Vec<Policy>, XmlError> {
    let root = parse(xml)?;
    if root.name != "policies" {
        return schema_err(format!("expected <policies>, found <{}>", root.name));
    }
    root.children.iter().map(policy_from_element).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_rules() -> Policy {
        Policy::rules(
            "sharing",
            RulePolicy::new()
                .with_rule(
                    Rule::permit()
                        .for_subject(Subject::Group("friends & family".into()))
                        .for_subject(Subject::App("printer.example".into()))
                        .for_action(Action::Read)
                        .for_action(Action::Custom("print".into()))
                        .with_condition(Condition::TimeWindow {
                            start_ms: 5,
                            end_ms: 10,
                        })
                        .with_condition(Condition::ValidUntil(99))
                        .with_condition(Condition::MaxUses(3))
                        .with_condition(Condition::RequiresConsent)
                        .with_condition(Condition::RequiresClaims(vec![
                            ClaimRequirement::from_issuer("payment", "pay.example"),
                            ClaimRequirement::of_kind("terms"),
                        ])),
                )
                .with_rule(Rule::deny().for_subject(Subject::User("mallory".into()))),
        )
    }

    fn sample_matrix() -> Policy {
        Policy::matrix(
            "simple",
            AclMatrix::new()
                .allow(Subject::Public, Action::Read)
                .allow(Subject::Authenticated, Action::List)
                .allow(Subject::User("alice".into()), Action::Write),
        )
    }

    #[test]
    fn rules_roundtrip() {
        let p = sample_rules();
        let xml = policy_to_xml(&p);
        let back = policy_from_xml(&xml).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn matrix_roundtrip() {
        let p = sample_matrix();
        let back = policy_from_xml(&policy_to_xml(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn policies_document_roundtrip() {
        let list = vec![sample_rules(), sample_matrix()];
        let xml = policies_to_xml(&list);
        let back = policies_from_xml(&xml).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn escaping_special_characters() {
        let p = Policy::rules(
            "a<b>&\"'",
            RulePolicy::new().with_rule(
                Rule::permit().for_subject(Subject::User("o'brien <admin> & \"boss\"".into())),
            ),
        );
        let back = policy_from_xml(&policy_to_xml(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn parse_handles_declaration_and_comments() {
        let xml = "<?xml version=\"1.0\"?>\n<!-- hello -->\n<a><!-- inner --><b/></a>";
        let root = parse(xml).unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn parse_numeric_entities() {
        let root = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(root.text, "AB");
    }

    #[test]
    fn parse_rejects_mismatched_tags() {
        assert!(matches!(parse("<a></b>"), Err(XmlError::Syntax { .. })));
    }

    #[test]
    fn parse_rejects_unterminated() {
        assert!(parse("<a><b></b>").is_err());
        assert!(parse("<a attr=>").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nest deeper"), "{err}");
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn schema_rejects_wrong_root() {
        assert!(matches!(
            policies_from_xml("<nope/>"),
            Err(XmlError::Schema(_))
        ));
    }

    #[test]
    fn schema_rejects_bad_effect() {
        let xml =
            "<policy id=\"p\" name=\"p\" language=\"rules\"><rule effect=\"maybe\"/></policy>";
        assert!(matches!(policy_from_xml(xml), Err(XmlError::Schema(_))));
    }

    #[test]
    fn schema_rejects_unknown_language() {
        let xml = "<policy id=\"p\" name=\"p\" language=\"prolog\"/>";
        assert!(matches!(policy_from_xml(xml), Err(XmlError::Schema(_))));
    }

    #[test]
    fn schema_rejects_missing_condition_attr() {
        let xml = "<policy id=\"p\" name=\"p\" language=\"rules\"><rule effect=\"permit\"><condition type=\"valid-until\"/></rule></policy>";
        assert!(matches!(policy_from_xml(xml), Err(XmlError::Schema(_))));
    }

    #[test]
    fn attribute_quote_styles() {
        let root = parse("<a x='single' y=\"double\"/>").unwrap();
        assert_eq!(root.attr("x"), Some("single"));
        assert_eq!(root.attr("y"), Some("double"));
    }

    #[test]
    fn unicode_content_roundtrip() {
        let p = Policy::rules(
            "unicode",
            RulePolicy::new()
                .with_rule(Rule::permit().for_subject(Subject::User("żółć-著者".into()))),
        );
        let back = policy_from_xml(&policy_to_xml(&p)).unwrap();
        assert_eq!(back, p);
    }

    fn sample_xacml() -> Policy {
        use crate::xacml::{
            Combining, ResourceMatch, Target, XExpr, XacmlPolicy, XacmlPolicySet, XacmlRule,
        };
        Policy::xacml(
            "structured",
            XacmlPolicySet::new("root", Combining::DenyOverrides).with_policy(
                XacmlPolicy::new("inner", Combining::FirstApplicable)
                    .with_target(
                        Target::any()
                            .with_subject(Subject::Group("friends".into()))
                            .with_resource(ResourceMatch::IdPrefix("albums/".into()))
                            .with_resource(ResourceMatch::Host("h.example".into())),
                    )
                    .with_rule(
                        XacmlRule::permit("r1")
                            .with_target(Target::any().with_action(Action::Read))
                            .with_condition(XExpr::And(vec![
                                XExpr::TimeBefore(100),
                                XExpr::Or(vec![
                                    XExpr::HasClaim(ClaimRequirement::from_issuer(
                                        "payment",
                                        "pay.example",
                                    )),
                                    XExpr::SubjectIs("vip".into()),
                                    XExpr::Not(Box::new(XExpr::SubjectInGroup("banned".into()))),
                                ]),
                                XExpr::UsesBelow(5),
                                XExpr::ConsentGranted,
                                XExpr::True,
                                XExpr::TimeAtOrAfter(1),
                            ])),
                    )
                    .with_rule(
                        XacmlRule::deny("r2")
                            .with_target(Target::any().with_resource(ResourceMatch::Any)),
                    ),
            ),
        )
    }

    #[test]
    fn xacml_roundtrip() {
        let p = sample_xacml();
        let xml = policy_to_xml(&p);
        assert!(xml.contains("language=\"xacml\""));
        let back = policy_from_xml(&xml).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn xacml_in_policies_document() {
        let list = vec![sample_rules(), sample_matrix(), sample_xacml()];
        let back = policies_from_xml(&policies_to_xml(&list)).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn xacml_schema_errors() {
        // Missing <policy-set>.
        let xml = "<policy id=\"p\" name=\"p\" language=\"xacml\"/>";
        assert!(matches!(policy_from_xml(xml), Err(XmlError::Schema(_))));
        // Bad combining algorithm.
        let xml = "<policy id=\"p\" name=\"p\" language=\"xacml\"><policy-set id=\"s\" combining=\"mystery\"/></policy>";
        assert!(matches!(policy_from_xml(xml), Err(XmlError::Schema(_))));
        // Unknown expression element.
        let xml = concat!(
            "<policy id=\"p\" name=\"p\" language=\"xacml\">",
            "<policy-set id=\"s\" combining=\"deny-overrides\">",
            "<xpolicy id=\"x\" combining=\"deny-overrides\">",
            "<xrule id=\"r\" effect=\"permit\"><condition><frobnicate/></condition></xrule>",
            "</xpolicy></policy-set></policy>",
        );
        assert!(matches!(policy_from_xml(xml), Err(XmlError::Schema(_))));
    }

    proptest! {
        /// The parser must never panic, whatever bytes arrive on the REST
        /// import endpoint.
        #[test]
        fn parser_total_on_arbitrary_input(input in ".{0,200}") {
            let _ = parse(&input);
            let _ = policy_from_xml(&input);
            let _ = policies_from_xml(&input);
        }

        /// ...including inputs that look almost like XML.
        #[test]
        fn parser_total_on_xmlish_input(
            tag in "[a-z]{1,8}",
            attr in "[a-z]{1,6}",
            val in "[ -~]{0,16}",
            garbage in "[<>&'\"=/ a-z]{0,40}",
        ) {
            let candidates = [
                format!("<{tag} {attr}=\"{val}\">{garbage}</{tag}>"),
                format!("<{tag} {attr}='{val}'>{garbage}"),
                format!("<{tag}>{garbage}<!--"),
                format!("<?xml version=\"1.0\"?><{tag} {attr}={val}/>"),
            ];
            for candidate in candidates {
                let _ = parse(&candidate);
            }
        }

        #[test]
        fn arbitrary_user_names_roundtrip(name in "[\\PC&&[^\\u{0}]]{1,24}") {
            // Any printable unicode user name survives the XML round trip.
            prop_assume!(!name.trim().is_empty() && name.trim() == name);
            let p = Policy::rules(
                "prop",
                RulePolicy::new().with_rule(Rule::permit().for_subject(Subject::User(name.clone()))),
            );
            let back = policy_from_xml(&policy_to_xml(&p)).unwrap();
            prop_assert_eq!(back, p);
        }

        #[test]
        fn arbitrary_valid_until_roundtrips(t in any::<u64>()) {
            let p = Policy::rules(
                "prop",
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .with_condition(Condition::ValidUntil(t)),
                ),
            );
            let back = policy_from_xml(&policy_to_xml(&p)).unwrap();
            prop_assert_eq!(back, p);
        }
    }
}
