//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC hashes two 64-byte pad blocks derived from the key, one in front
//! of the message and one in front of the inner digest. Those blocks
//! depend on the key alone, so [`HmacKey`] absorbs them once when the key
//! is built and keeps the two 32-byte chaining values they leave (64
//! bytes in all, less than most keys it stands for). Each [`HmacKey::mac`] then
//! hashes only the message, its padding and one outer block, two block
//! compressions fewer than a one-shot HMAC: for the AM's 115-byte
//! authorization-token payloads, three instead of five. [`hmac_sha256`]
//! is the one-shot form for keys used once.

use std::fmt;

use crate::sha::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its inner and outer pad blocks already
/// absorbed: the two SHA-256 chaining values after those blocks, 64
/// bytes.
///
/// The chaining values are as secret as the key itself: `Debug` prints
/// neither.
///
/// # Example
///
/// ```
/// use ucam_crypto::hmac::HmacKey;
///
/// let key = HmacKey::new(b"key");
/// let msg = b"The quick brown fox jumps over the lazy dog";
/// assert_eq!(key.mac(msg), ucam_crypto::hmac_sha256(b"key", msg));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 chaining value after the block `key ^ ipad`.
    inner: [u32; 8],
    /// SHA-256 chaining value after the block `key ^ opad`.
    outer: [u32; 8],
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HmacKey")
            .field("state", &"<redacted>")
            .finish()
    }
}

impl HmacKey {
    /// Derives the pad blocks from `key` and absorbs them.
    ///
    /// Keys longer than the 64-byte block size are hashed first, exactly
    /// as the RFC prescribes.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut block = [byte; BLOCK];
            for (b, k) in block.iter_mut().zip(k) {
                *b ^= k;
            }
            let mut state = Sha256::new();
            state.update(&block);
            state.midstate()
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 1);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)` with a key used once.
///
/// Keys longer than the 64-byte block size are hashed first, exactly as the
/// RFC prescribes. A key that signs or verifies many messages should be
/// built once as an [`HmacKey`].
///
/// # Example
///
/// ```
/// let mac = ucam_crypto::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(mac.len(), 32);
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_long_data() {
        // The 131-byte key takes the hashed-key branch.
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&HmacKey::new(&key).mac(
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
            )),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn a_reused_key_matches_a_fresh_key_per_message() {
        let secret = b"reused-key";
        let key = HmacKey::new(secret);
        for len in [0usize, 1, 55, 56, 63, 64, 65, 130, 200] {
            let message = vec![len as u8; len];
            assert_eq!(
                key.mac(&message),
                HmacKey::new(secret).mac(&message),
                "len {len}"
            );
        }
    }

    #[test]
    fn a_prepared_key_is_its_two_chaining_values() {
        assert_eq!(std::mem::size_of::<HmacKey>(), 64);
    }

    #[test]
    fn different_keys_different_macs() {
        let m = b"message";
        assert_ne!(hmac_sha256(b"k1", m), hmac_sha256(b"k2", m));
    }

    #[test]
    fn different_messages_different_macs() {
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn exact_block_size_key() {
        let key = [0x42u8; 64];
        // Must not panic and must be deterministic.
        assert_eq!(hmac_sha256(&key, b"x"), hmac_sha256(&key, b"x"));
    }
}
