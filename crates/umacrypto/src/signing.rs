//! Keyed signing of structured byte payloads.
//!
//! The Authorization Manager mints two kinds of tokens (paper §V.B.1 and
//! §V.B.3): a *host access token* sealing the Host↔AM trust relationship and
//! an *authorization token* bound to a (requester, realm, host) triple. Both
//! are "payload + HMAC" values signed with an AM-held secret key; they are
//! opaque and unforgeable to every other party.

use crate::base64;
use crate::hmac::HmacKey;
use crate::{ct_eq, random_bytes};

/// A secret HMAC-SHA256 signing key held by a token issuer.
///
/// The key is kept as an [`HmacKey`], its pad blocks absorbed once, so
/// every seal and open hashes only the payload and one outer block.
///
/// # Example
///
/// ```
/// use ucam_crypto::SigningKey;
///
/// let key = SigningKey::generate();
/// let blob = key.sign(b"payload");
/// assert!(key.verify(b"payload", &blob.signature));
/// ```
#[derive(Clone)]
pub struct SigningKey {
    key: HmacKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("SigningKey")
            .field("secret", &"<redacted>")
            .finish()
    }
}

impl SigningKey {
    /// Generates a fresh random 32-byte key.
    #[must_use]
    pub fn generate() -> Self {
        Self::from_secret(random_bytes(32))
    }

    /// Builds a key from existing secret bytes (e.g. restored from config).
    #[must_use]
    pub fn from_secret(secret: impl Into<Vec<u8>>) -> Self {
        SigningKey {
            key: HmacKey::new(&secret.into()),
        }
    }

    /// Signs `payload`, returning the payload together with its MAC.
    #[must_use]
    pub fn sign(&self, payload: &[u8]) -> SignedBlob {
        SignedBlob {
            payload: payload.to_vec(),
            signature: self.key.mac(payload).to_vec(),
        }
    }

    /// Verifies in constant time that `signature` is valid for `payload`.
    #[must_use]
    pub fn verify(&self, payload: &[u8], signature: &[u8]) -> bool {
        ct_eq(&self.key.mac(payload), signature)
    }

    /// Signs `payload` and encodes the result as a compact token string
    /// `base64url(payload) + "." + base64url(mac)`.
    #[must_use]
    pub fn seal(&self, payload: &[u8]) -> String {
        let mut token = base64::encode(payload);
        token.push('.');
        token.push_str(&base64::encode(&self.key.mac(payload)));
        token
    }

    /// Decodes and verifies a token produced by [`SigningKey::seal`],
    /// returning the embedded payload.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the token is structurally malformed or
    /// the MAC does not verify under this key.
    pub fn open(&self, token: &str) -> Result<Vec<u8>, VerifyError> {
        let mut payload = Vec::new();
        self.open_into(token, &mut payload)?;
        Ok(payload)
    }

    /// [`SigningKey::open`] into a caller's buffer: the verified payload
    /// replaces `payload`'s contents, reusing its allocation, and the
    /// MAC decodes into a stack array. Both parts must be canonical
    /// base64url, so each token has exactly one spelling.
    ///
    /// # Errors
    ///
    /// As [`SigningKey::open`]; `payload` is then left empty.
    pub fn open_into(&self, token: &str, payload: &mut Vec<u8>) -> Result<(), VerifyError> {
        let (payload_b64, mac_b64) = token.split_once('.').ok_or(VerifyError::Malformed)?;
        let mut mac = [0u8; 32];
        let decoded = base64::decode_to_slice(mac_b64, &mut mac)
            .and_then(|()| base64::decode_into(payload_b64, payload));
        let error = match decoded {
            Err(_) => VerifyError::Malformed,
            Ok(()) if self.verify(payload, &mac) => return Ok(()),
            Ok(()) => VerifyError::BadSignature,
        };
        payload.clear();
        Err(error)
    }
}

/// A payload together with its HMAC signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBlob {
    /// The signed bytes.
    pub payload: Vec<u8>,
    /// HMAC-SHA256 over the payload.
    pub signature: Vec<u8>,
}

/// An error produced when a sealed token fails to open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The token is not `b64.b64` shaped or contains invalid base64.
    Malformed,
    /// The MAC did not verify: forged, tampered, or wrong key.
    BadSignature,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Malformed => write!(f, "malformed sealed token"),
            VerifyError::BadSignature => write!(f, "token signature verification failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::generate();
        let blob = key.sign(b"hello");
        assert!(key.verify(b"hello", &blob.signature));
    }

    #[test]
    fn verify_rejects_wrong_payload() {
        let key = SigningKey::generate();
        let blob = key.sign(b"hello");
        assert!(!key.verify(b"hellp", &blob.signature));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let k1 = SigningKey::generate();
        let k2 = SigningKey::generate();
        let blob = k1.sign(b"hello");
        assert!(!k2.verify(b"hello", &blob.signature));
    }

    #[test]
    fn seal_open_roundtrip() {
        let key = SigningKey::from_secret(*b"0123456789abcdef0123456789abcdef");
        let token = key.seal(b"realm=1;req=alice");
        assert_eq!(key.open(&token).unwrap(), b"realm=1;req=alice");
    }

    #[test]
    fn open_rejects_tampered_payload() {
        let key = SigningKey::generate();
        let token = key.seal(b"amount=10");
        // Flip a payload character.
        let mut chars: Vec<char> = token.chars().collect();
        chars[0] = if chars[0] == 'A' { 'B' } else { 'A' };
        let tampered: String = chars.into_iter().collect();
        assert!(matches!(
            key.open(&tampered),
            Err(VerifyError::BadSignature) | Err(VerifyError::Malformed)
        ));
    }

    #[test]
    fn open_rejects_missing_dot() {
        let key = SigningKey::generate();
        assert_eq!(key.open("nodot"), Err(VerifyError::Malformed));
    }

    /// Setting a spare bit of the MAC's last character spells the same
    /// MAC a second way; the token must not open under that spelling.
    #[test]
    fn open_refuses_a_second_spelling_of_the_mac() {
        let key = SigningKey::generate();
        let token = key.seal(b"kind=host;user=bob");
        let mut respelled = token.clone().into_bytes();
        // The MAC's last character carries two spare bits, so its value
        // is a multiple of 4: the next character of the alphabet is the
        // same bytes with the low spare bit set.
        *respelled.last_mut().unwrap() += 1;
        let respelled = String::from_utf8(respelled).unwrap();
        let mut buf = b"stale".to_vec();
        assert_eq!(
            key.open_into(&respelled, &mut buf),
            Err(VerifyError::Malformed)
        );
        assert!(buf.is_empty());
        key.open_into(&token, &mut buf).unwrap();
        assert_eq!(buf, b"kind=host;user=bob");
    }

    #[test]
    fn open_rejects_invalid_base64() {
        let key = SigningKey::generate();
        assert_eq!(key.open("ab!c.Zm9v"), Err(VerifyError::Malformed));
    }

    #[test]
    fn debug_redacts_secret() {
        let key = SigningKey::from_secret(b"supersecret".to_vec());
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("supersecret"));
        assert!(dbg.contains("redacted"));
        // The absorbed pad states are as secret as the key: no state
        // words, buffer or length may show.
        let hmac = crate::hmac::HmacKey::new(b"supersecret");
        let dbg = format!("{hmac:?}");
        assert_eq!(dbg, r#"HmacKey { state: "<redacted>" }"#);
        assert!(!format!("{key:#?}").contains("state:"));
    }

    proptest! {
        #[test]
        fn seal_open_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
            let key = SigningKey::from_secret(b"fixed-test-key".to_vec());
            let token = key.seal(&payload);
            prop_assert_eq!(key.open(&token).unwrap(), payload);
        }

        #[test]
        fn cross_key_never_opens(payload in proptest::collection::vec(any::<u8>(), 1..128)) {
            let k1 = SigningKey::from_secret(b"key-one".to_vec());
            let k2 = SigningKey::from_secret(b"key-two".to_vec());
            let token = k1.seal(&payload);
            prop_assert_eq!(k2.open(&token), Err(VerifyError::BadSignature));
        }
    }
}
