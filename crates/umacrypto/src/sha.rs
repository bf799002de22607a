//! SHA-256 implemented from the FIPS 180-4 specification.
//!
//! Hashing is not a negligible cost here. A Host decision query opens two
//! sealed tokens at the AM (two HMACs) and hashes the access tuple at both
//! ends, so the block function runs more than a dozen times per decision.
//! Full input blocks are compressed straight from the caller's slice, and
//! [`Sha256::finalize`] writes its padding into the buffer in place.
//!
//! There are two block functions, and `compress` picks one per block:
//!
//! * On an x86-64 CPU with the SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`) and SSSE3 and SSE4.1, it runs a kernel
//!   built on those instructions: `sha256rnds2` runs two rounds, and the
//!   other two together extend the message schedule by four words.
//! * Every other CPU and architecture runs the portable function: the 64
//!   rounds unrolled by macro over a rolling 16-word message schedule.
//!   It is also the reference the tests compare the kernel against.
//!
//! The choice comes from the CPU at run time (`is_x86_feature_detected!`,
//! which caches what it finds), so no build setting or option selects a
//! path, and both produce the same digest for every input.
//!
//! The kernel is a safe function compiled with
//! `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`. It moves words
//! in with `_mm_set_epi32` and out with `_mm_extract_epi32`, so it reads
//! and writes no raw pointer. Calling it is this crate's one `unsafe`
//! operation, because running instructions the CPU lacks is undefined
//! behaviour. `compress` makes that call only after detection has
//! reported every one of those features (SSE2 is part of the x86-64
//! baseline).

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// An incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use ucam_crypto::sha::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), ucam_crypto::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Fill a partially full buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Compress full blocks straight from the input.
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact yields 64 bytes"),
            );
        }
        // Buffer the remainder.
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding, written into the buffer in place: 0x80, zeros, and the
        // 8-byte big-endian bit length. When fewer than 9 bytes are left
        // after the message, the padding spills into a second block.
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 round on the working variables named in rotated order.
/// Instead of shifting all eight variables, a round writes its new `e`
/// into `$d` and its new `a` into `$h`, and the next round names the
/// variables one place further on, so eight rounds bring every name
/// back to its starting role. `$kw` is the round constant plus the
/// schedule word.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        $h = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        $d = $d.wrapping_add($h);
        $h = $h
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add($b ^ (($a ^ $b) & ($b ^ $c)));
    };
}

/// The SHA-256 compression function (FIPS 180-4 §6.2.2) on one block:
/// the SHA-extension kernel where the CPU has it, else the portable
/// function.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `sha_ni::compress` is compiled with the `sha`, `sse2`,
        // `ssse3` and `sse4.1` target features, so it may run only on a
        // CPU that has all four. SSE2 is part of the x86-64 baseline, and
        // `detected` has just reported the other three on this CPU. The
        // kernel itself takes only references and touches no raw pointer.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress(state, block);
        }
        return;
    }
    compress_portable(state, block);
}

/// The portable compression function, fully unrolled. The message
/// schedule rolls through 16 words: slot `t mod 16` holds `W[t]` while
/// round `t` runs, and from round 16 on each round first overwrites its
/// slot, which still holds `W[t-16]`, with `W[t]`.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // `W[t]` for a round of the first sixteen: the block's own word.
    macro_rules! given {
        ($j:expr) => {
            w[$j]
        };
    }
    // `W[t]` for a later round: σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
    macro_rules! expanded {
        ($j:expr) => {{
            let w15 = w[($j + 1) & 15];
            let w2 = w[($j + 14) & 15];
            w[$j] = w[$j]
                .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                .wrapping_add(w[($j + 9) & 15])
                .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            w[$j]
        }};
    }
    // Rounds `$t` to `$t + 15`, taking each schedule word from `$word`.
    macro_rules! sixteen_rounds {
        ($t:expr, $word:ident) => {
            round!(a, b, c, d, e, f, g, h, K[$t].wrapping_add($word!(0)));
            round!(h, a, b, c, d, e, f, g, K[$t + 1].wrapping_add($word!(1)));
            round!(g, h, a, b, c, d, e, f, K[$t + 2].wrapping_add($word!(2)));
            round!(f, g, h, a, b, c, d, e, K[$t + 3].wrapping_add($word!(3)));
            round!(e, f, g, h, a, b, c, d, K[$t + 4].wrapping_add($word!(4)));
            round!(d, e, f, g, h, a, b, c, K[$t + 5].wrapping_add($word!(5)));
            round!(c, d, e, f, g, h, a, b, K[$t + 6].wrapping_add($word!(6)));
            round!(b, c, d, e, f, g, h, a, K[$t + 7].wrapping_add($word!(7)));
            round!(a, b, c, d, e, f, g, h, K[$t + 8].wrapping_add($word!(8)));
            round!(h, a, b, c, d, e, f, g, K[$t + 9].wrapping_add($word!(9)));
            round!(g, h, a, b, c, d, e, f, K[$t + 10].wrapping_add($word!(10)));
            round!(f, g, h, a, b, c, d, e, K[$t + 11].wrapping_add($word!(11)));
            round!(e, f, g, h, a, b, c, d, K[$t + 12].wrapping_add($word!(12)));
            round!(d, e, f, g, h, a, b, c, K[$t + 13].wrapping_add($word!(13)));
            round!(c, d, e, f, g, h, a, b, K[$t + 14].wrapping_add($word!(14)));
            round!(b, c, d, e, f, g, h, a, K[$t + 15].wrapping_add($word!(15)));
        };
    }
    sixteen_rounds!(0, given);
    sixteen_rounds!(16, expanded);
    sixteen_rounds!(32, expanded);
    sixteen_rounds!(48, expanded);

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The compression function on the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Whether this CPU has every feature [`compress`] is compiled with
    /// (SSE2 is part of the x86-64 baseline).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// One block, four rounds per step. The round instruction keeps the
    /// eight working variables in two registers, named for their lanes
    /// from high to low: `abef` holds (a, b, e, f) and `cdgh` holds
    /// (c, d, g, h). Each schedule register holds four message words,
    /// the earliest in the lowest lane.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0i32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = i32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // Rounds `$t` to `$t + 3` on the schedule words in `$m`.
        // `sha256rnds2` runs two rounds on the sums W + K in the two low
        // lanes of its third operand and returns the new (a, b, e, f);
        // the old (a, b, e, f) is then the new (c, d, g, h). Shuffling
        // the high pair of sums down feeds the next two rounds.
        macro_rules! rounds4 {
            ($m:expr, $t:expr) => {
                let [k0, k1, k2, k3] = [0, 1, 2, 3].map(|i| K[$t + i] as i32);
                let wk = _mm_add_epi32($m, _mm_set_epi32(k3, k2, k1, k0));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            };
        }
        // `W[t..t+4]` from the sixteen words before it, given as four
        // registers from the earliest: `sha256msg1` adds σ0(W[t-15..]) to
        // `W[t-16..]`, the byte shift supplies `W[t-7..t-3]`, and
        // `sha256msg2` adds σ1(W[t-2]) lane by lane, feeding each new
        // word to the lanes after it.
        macro_rules! schedule {
            ($m0:expr, $m1:expr, $m2:expr, $m3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32($m0, $m1),
                        _mm_alignr_epi8::<4>($m3, $m2),
                    ),
                    $m3,
                )
            };
        }

        let mut m0 = _mm_set_epi32(w[3], w[2], w[1], w[0]);
        let mut m1 = _mm_set_epi32(w[7], w[6], w[5], w[4]);
        let mut m2 = _mm_set_epi32(w[11], w[10], w[9], w[8]);
        let mut m3 = _mm_set_epi32(w[15], w[14], w[13], w[12]);
        rounds4!(m0, 0);
        rounds4!(m1, 4);
        rounds4!(m2, 8);
        rounds4!(m3, 12);
        for t in [16, 32, 48] {
            m0 = schedule!(m0, m1, m2, m3);
            rounds4!(m0, t);
            m1 = schedule!(m1, m2, m3, m0);
            rounds4!(m1, t + 4);
            m2 = schedule!(m2, m3, m0, m1);
            rounds4!(m2, t + 8);
            m3 = schedule!(m3, m0, m1, m2);
            rounds4!(m3, t + 12);
        }

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Example
///
/// ```
/// let d = ucam_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// `compress` against the portable function on 100,000 seeded random
    /// (state, block) pairs. `compress` takes the SHA-extension kernel
    /// where the CPU has it; elsewhere the two are one function, so the
    /// test says it compared nothing.
    #[test]
    fn kernel_matches_portable_on_random_blocks() {
        #[cfg(target_arch = "x86_64")]
        let kernel = sha_ni::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = false;
        if !kernel {
            println!("no SHA-extension kernel on this CPU: compared nothing");
            return;
        }
        // splitmix64, so every run draws the same cases.
        let mut seed = 0x243f_6a88_85a3_08d3_u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        const CASES: usize = 100_000;
        for case in 0..CASES {
            let mut state = [0u32; 8];
            for pair in state.chunks_exact_mut(2) {
                let v = next();
                pair[0] = v as u32;
                pair[1] = (v >> 32) as u32;
            }
            let mut block = [0u8; 64];
            for bytes in block.chunks_exact_mut(8) {
                bytes.copy_from_slice(&next().to_le_bytes());
            }
            let mut portable = state;
            compress(&mut state, &block);
            compress_portable(&mut portable, &block);
            assert_eq!(state, portable, "case {case}");
        }
        println!("SHA-extension kernel matched the portable function on {CASES} random blocks");
    }

    #[test]
    fn length_boundary_padding() {
        // Lengths 0..=130 cover the padding's one-block case (0..=55 bytes
        // in the last block) and its two-block case (56..=63) at one, two
        // and three blocks of message.
        let data: Vec<u8> = (0..130u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=data.len() {
            let mut h = Sha256::new();
            for b in &data[..len] {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data[..len]), "len {len}");
        }
    }
}
