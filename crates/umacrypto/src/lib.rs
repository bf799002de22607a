//! Minimal cryptographic substrate for the UCAM (User-Controlled Access
//! Management) system.
//!
//! The paper's Authorization Manager "generates" access tokens for hosts and
//! authorization tokens for requesters (§V.B.1, §V.B.3). Those tokens must be
//! unforgeable and verifiable by their issuer. This crate provides the
//! primitives the rest of the workspace uses to mint and verify such tokens:
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4),
//!   whose block function runs on the x86-64 SHA extensions where the CPU
//!   has them,
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), with [`HmacKey`] absorbing a key's
//!   pad blocks once for keys that sign many messages,
//! * [`base64`] — padding-free URL-safe base64 (RFC 4648 §5),
//! * [`ct_eq`] — constant-time byte comparison,
//! * [`SigningKey`] / [`SignedBlob`] — a tiny "sign structured bytes, verify
//!   later" facility used by the AM's token service,
//! * [`random_bytes`] / [`random_token`] — nonce and key generation.
//!
//! No external cryptography crates are used; everything here is implemented
//! from first principles so the workspace is self-contained.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe` and allows it in one place: the call from
//! the SHA-256 block function into its SHA-extension kernel
//! ([`sha`]'s module docs). The kernel is a safe function compiled with
//! extra target features, so calling it is sound exactly when the CPU has
//! those features, and the call is made only after
//! `is_x86_feature_detected!` has reported every one of them. The kernel
//! reads and writes no raw pointer. Every other CPU and architecture runs
//! the portable block function, which produces the same digests.
//!
//! # Example
//!
//! ```
//! use ucam_crypto::{SigningKey, sha256};
//!
//! let key = SigningKey::generate();
//! let blob = key.sign(b"realm=photos;requester=alice");
//! assert!(key.verify(b"realm=photos;requester=alice", &blob.signature));
//! assert!(!key.verify(b"realm=docs;requester=alice", &blob.signature));
//! assert_eq!(sha256(b"abc").len(), 32);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod base64;
pub mod hmac;
pub mod sha;
pub mod signing;

pub use base64::{decode as base64url_decode, encode as base64url_encode};
pub use hmac::{hmac_sha256, HmacKey};
pub use sha::sha256;
pub use signing::{SignedBlob, SigningKey, VerifyError};

use rand::RngCore;

/// Compares two byte slices in constant time with respect to their contents.
///
/// Returns `false` immediately when lengths differ (length is not secret for
/// our fixed-size MACs).
///
/// # Example
///
/// ```
/// assert!(ucam_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!ucam_crypto::ct_eq(b"abc", b"abd"));
/// assert!(!ucam_crypto::ct_eq(b"abc", b"ab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Fills and returns a vector of `n` cryptographically random bytes.
///
/// Uses the operating system RNG via [`rand::rngs::OsRng`].
#[must_use]
pub fn random_bytes(n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    rand::rngs::OsRng.fill_bytes(&mut buf);
    buf
}

/// Returns a fresh URL-safe random token string with `n` bytes of entropy.
///
/// # Example
///
/// ```
/// let t = ucam_crypto::random_token(16);
/// assert!(t.len() >= 21); // 16 bytes -> 22 base64url chars
/// ```
#[must_use]
pub fn random_token(n: usize) -> String {
    base64::encode(&random_bytes(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"hello", b"hello"));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"hello", b"hellp"));
    }

    #[test]
    fn ct_eq_unequal_length() {
        assert!(!ct_eq(b"hello", b"hell"));
    }

    #[test]
    fn random_bytes_length_and_entropy() {
        let a = random_bytes(32);
        let b = random_bytes(32);
        assert_eq!(a.len(), 32);
        assert_ne!(a, b, "two 32-byte random draws must differ");
    }

    #[test]
    fn random_token_is_urlsafe() {
        let t = random_token(24);
        assert!(t
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
    }
}
