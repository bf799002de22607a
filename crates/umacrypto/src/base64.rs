//! URL-safe base64 without padding (RFC 4648 §5), used to render binary
//! tokens and signatures into URL/header-safe strings.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// An error produced when decoding malformed base64url input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input contained a byte outside the base64url alphabet.
    InvalidByte {
        /// Offset of the offending byte.
        index: usize,
        /// The offending byte value.
        byte: u8,
    },
    /// The input length is impossible for unpadded base64 (len % 4 ==
    /// 1), or decodes to a length other than the output slice's.
    InvalidLength(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::InvalidByte { index, byte } => {
                write!(f, "invalid base64url byte 0x{byte:02x} at index {index}")
            }
            DecodeError::InvalidLength(len) => {
                write!(f, "invalid base64url length {len}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes `data` as unpadded URL-safe base64.
///
/// # Example
///
/// ```
/// assert_eq!(ucam_crypto::base64url_encode(b"hi"), "aGk");
/// ```
#[must_use]
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(ALPHABET[(n >> 6) as usize & 0x3f] as char);
        }
        if chunk.len() > 2 {
            out.push(ALPHABET[n as usize & 0x3f] as char);
        }
    }
    out
}

/// Marks a byte outside the alphabet in [`DECODE`].
const INVALID: u8 = 0x80;

/// Each byte's 6-bit value, or [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < ALPHABET.len() {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The number of bytes `len` characters of unpadded base64 decode to.
fn decoded_len(len: usize) -> Result<usize, DecodeError> {
    match len % 4 {
        1 => Err(DecodeError::InvalidLength(len)),
        rest => Ok(len / 4 * 3 + rest.saturating_sub(1)),
    }
}

/// The 6-bit values of `chars`, packed big-end first; `None` when one
/// of them is outside the alphabet.
fn sextets(chars: &[u8]) -> Option<u32> {
    let mut n = 0u32;
    let mut bad = 0u8;
    for &c in chars {
        let v = DECODE[usize::from(c)];
        bad |= v;
        n = (n << 6) | u32::from(v & 0x3f);
    }
    (bad & INVALID == 0).then_some(n)
}

/// The error for the first byte of `chars`, which start at `offset`,
/// that is outside the alphabet.
fn invalid_byte(chars: &[u8], offset: usize) -> DecodeError {
    let (at, &byte) = chars
        .iter()
        .enumerate()
        .find(|(_, &c)| DECODE[usize::from(c)] == INVALID)
        .expect("`sextets` refused these characters, so one is outside the alphabet");
    DecodeError::InvalidByte {
        index: offset + at,
        byte,
    }
}

/// Decodes unpadded URL-safe base64 into `out`, which must be exactly as
/// long as the decoded bytes; the MAC of a sealed token decodes into a
/// stack array this way.
///
/// Decoding is canonical (RFC 4648 §3.5): a trailing group of two or
/// three characters whose last character carries non-zero unused low
/// bits is another spelling of the bytes [`encode`] writes, and is
/// refused as a [`DecodeError::InvalidByte`] at that character.
///
/// # Errors
///
/// Returns [`DecodeError`] when the input contains bytes outside the
/// alphabet, is not canonical, has an impossible length, or decodes to a
/// length other than `out.len()` ([`DecodeError::InvalidLength`]).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ucam_crypto::base64::DecodeError> {
/// let mut out = [0u8; 2];
/// ucam_crypto::base64::decode_to_slice("aGk", &mut out)?;
/// assert_eq!(&out, b"hi");
/// assert!(ucam_crypto::base64::decode_to_slice("aGl", &mut out).is_err());
/// # Ok(())
/// # }
/// ```
pub fn decode_to_slice(input: &str, out: &mut [u8]) -> Result<(), DecodeError> {
    let chars = input.as_bytes();
    if decoded_len(chars.len())? != out.len() {
        return Err(DecodeError::InvalidLength(chars.len()));
    }
    let (groups, tail) = chars.split_at(chars.len() / 4 * 4);
    let (group_out, tail_out) = out.split_at_mut(groups.len() / 4 * 3);
    for (i, (group, dst)) in groups
        .chunks_exact(4)
        .zip(group_out.chunks_exact_mut(3))
        .enumerate()
    {
        let n = sextets(group).ok_or_else(|| invalid_byte(group, i * 4))?;
        dst.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    if tail.is_empty() {
        return Ok(());
    }
    let n = sextets(tail).ok_or_else(|| invalid_byte(tail, groups.len()))?;
    // Two characters carry one byte and four spare bits, three carry two
    // bytes and two spare bits.
    let spare = 6 - 2 * tail_out.len() as u32;
    if n & ((1 << spare) - 1) != 0 {
        return Err(DecodeError::InvalidByte {
            index: chars.len() - 1,
            byte: chars[chars.len() - 1],
        });
    }
    let bytes = (n >> spare).to_be_bytes();
    tail_out.copy_from_slice(&bytes[4 - tail_out.len()..]);
    Ok(())
}

/// Decodes unpadded URL-safe base64 into `out`, replacing its contents
/// and reusing its allocation. Canonical, as [`decode_to_slice`].
///
/// # Errors
///
/// Returns [`DecodeError`] when the input contains bytes outside the
/// alphabet, is not canonical, or has an impossible length; `out` then
/// holds no meaningful bytes.
pub fn decode_into(input: &str, out: &mut Vec<u8>) -> Result<(), DecodeError> {
    out.clear();
    out.resize(decoded_len(input.len())?, 0);
    decode_to_slice(input, out)
}

/// Decodes unpadded URL-safe base64. Canonical, as [`decode_to_slice`].
///
/// # Errors
///
/// Returns [`DecodeError`] when the input contains bytes outside the
/// alphabet, is not canonical, or has an impossible length.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ucam_crypto::base64::DecodeError> {
/// assert_eq!(ucam_crypto::base64url_decode("aGk")?, b"hi");
/// # Ok(())
/// # }
/// ```
pub fn decode(input: &str) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::new();
    decode_into(input, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg");
        assert_eq!(encode(b"fo"), "Zm8");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg");
        assert_eq!(encode(b"fooba"), "Zm9vYmE");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_known_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(decode("Zg").unwrap(), b"f");
        assert_eq!(decode("Zm8").unwrap(), b"fo");
    }

    /// `"Zh"` and `"Zm9"` set unused low bits of their last character:
    /// second spellings of `"f"` and `"fo"`, refused at that character.
    #[test]
    fn rejects_non_canonical_trailing_bits() {
        assert_eq!(
            decode("Zh"),
            Err(DecodeError::InvalidByte {
                index: 1,
                byte: b'h'
            })
        );
        assert_eq!(
            decode("Zm9vZm9"),
            Err(DecodeError::InvalidByte {
                index: 6,
                byte: b'9'
            })
        );
    }

    #[test]
    fn decode_to_slice_wants_the_exact_length() {
        let mut short = [0u8; 2];
        assert_eq!(
            decode_to_slice("Zm9v", &mut short),
            Err(DecodeError::InvalidLength(4))
        );
        let mut exact = [0u8; 3];
        decode_to_slice("Zm9v", &mut exact).unwrap();
        assert_eq!(&exact, b"foo");
    }

    #[test]
    fn decode_into_replaces_the_buffer() {
        let mut out = b"stale bytes".to_vec();
        decode_into("Zm8", &mut out).unwrap();
        assert_eq!(out, b"fo");
    }

    /// The per-byte decoder the table-driven one replaced, kept as its
    /// reference: it accepts any spare bits.
    fn reference_decode(input: &str) -> Result<Vec<u8>, DecodeError> {
        let bytes = input.as_bytes();
        if bytes.len() % 4 == 1 {
            return Err(DecodeError::InvalidLength(bytes.len()));
        }
        let mut out = Vec::with_capacity(bytes.len() * 3 / 4);
        let mut acc: u32 = 0;
        let mut acc_bits: u32 = 0;
        for (index, &b) in bytes.iter().enumerate() {
            let v = match b {
                b'A'..=b'Z' => b - b'A',
                b'a'..=b'z' => b - b'a' + 26,
                b'0'..=b'9' => b - b'0' + 52,
                b'-' => 62,
                b'_' => 63,
                _ => return Err(DecodeError::InvalidByte { index, byte: b }),
            };
            acc = (acc << 6) | u32::from(v);
            acc_bits += 6;
            if acc_bits >= 8 {
                acc_bits -= 8;
                out.push((acc >> acc_bits) as u8);
            }
        }
        Ok(out)
    }

    #[test]
    fn urlsafe_chars_roundtrip() {
        // 0xfb 0xff encodes to characters that differ between standard and
        // URL-safe alphabets.
        let data = [0xfbu8, 0xff, 0xbe];
        let enc = encode(&data);
        assert!(!enc.contains('+') && !enc.contains('/'));
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn rejects_invalid_byte() {
        assert!(matches!(
            decode("ab!c"),
            Err(DecodeError::InvalidByte {
                index: 2,
                byte: b'!'
            })
        ));
    }

    #[test]
    fn rejects_impossible_length() {
        assert!(matches!(
            decode("abcde"),
            Err(DecodeError::InvalidLength(5))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = DecodeError::InvalidByte {
            index: 2,
            byte: b'!',
        };
        assert!(e.to_string().contains("index 2"));
        assert!(DecodeError::InvalidLength(5).to_string().contains('5'));
    }

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }

        /// The decoder agrees with the reference on every input, errors
        /// included, except the non-canonical spellings the reference
        /// accepts: exactly those are refused, at their last character.
        #[test]
        fn canonical_decode_matches_the_reference(
            input in "[A-Za-z0-9_=!. -]{0,40}",
        ) {
            let ours = decode(&input);
            match reference_decode(&input) {
                Ok(bytes) if encode(&bytes) == input => prop_assert_eq!(ours, Ok(bytes)),
                Ok(_) => {
                    let last = input.len() - 1;
                    prop_assert_eq!(
                        ours,
                        Err(DecodeError::InvalidByte { index: last, byte: input.as_bytes()[last] })
                    );
                }
                Err(e) => prop_assert_eq!(ours, Err(e)),
            }
        }

        /// Every second spelling of an encoding, made by setting spare
        /// bits of its last character, is refused.
        #[test]
        fn respelled_encodings_are_refused(
            data in proptest::collection::vec(any::<u8>(), 1..64),
            spare in 1u8..16,
        ) {
            prop_assume!(data.len() % 3 != 0);
            let enc = encode(&data);
            let spare_bits = if data.len() % 3 == 1 { 4 } else { 2 };
            let last = enc.len() - 1;
            let value = DECODE[usize::from(enc.as_bytes()[last])];
            let respelled_value = value | (spare & ((1 << spare_bits) - 1));
            prop_assume!(respelled_value != value);
            let mut respelled = enc.clone().into_bytes();
            respelled[last] = ALPHABET[usize::from(respelled_value)];
            let respelled = String::from_utf8(respelled).unwrap();
            prop_assert_eq!(reference_decode(&respelled), Ok(data));
            prop_assert!(decode(&respelled).is_err());
        }

        #[test]
        fn encoded_is_urlsafe(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let enc = encode(&data);
            prop_assert!(enc.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_'));
        }
    }
}
