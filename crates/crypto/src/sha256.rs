//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The neighbor-discovery protocol of Liu (ICDCS 2009) relies on "a few
//! efficient one-way hash operations" for all of its authentication: the
//! per-node verification keys `K_u = H(K || u)`, the binding-record
//! commitments `C(u) = H(K || N(u) || u)`, the relation commitments
//! `C(u, v) = H(K_v || u)`, and the update evidence `E(u, v) = H(K || u || v
//! || i)`. This module provides that `H`.
//!
//! The implementation is deliberately simple, allocation-free and
//! constant-shaped (no data-dependent branches), and is validated against the
//! FIPS 180-4 known-answer vectors in the unit tests below.
//!
//! # Examples
//!
//! ```
//! use snd_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use core::fmt;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in a SHA-256 input block.
const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 256-bit digest produced by [`Sha256`].
///
/// Digests compare in constant time via [`Digest::ct_eq`]; the derived
/// `PartialEq` is fine for test assertions but protocol code should prefer
/// the constant-time comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the digest, returning the underlying array.
    pub fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Renders the digest as a lowercase hex string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// Returns `None` when the input has the wrong length or contains a
    /// non-hex character.
    pub fn from_hex(hex: &str) -> Option<Self> {
        let bytes = hex.as_bytes();
        if bytes.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Constant-time equality check, resistant to timing side channels.
    pub fn ct_eq(&self, other: &Digest) -> bool {
        let mut diff = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    /// Truncates the digest to its first `n` bytes (`n <= 32`).
    ///
    /// Sensor protocols often transmit truncated MACs to save radio energy;
    /// the simulator uses this to model realistic message sizes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn truncated(&self, n: usize) -> Vec<u8> {
        assert!(
            n <= DIGEST_LEN,
            "cannot truncate a 32-byte digest to {n} bytes"
        );
        self.0[..n].to_vec()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// Feed input with [`Sha256::update`] and produce the digest with
/// [`Sha256::finalize`]. For one-shot hashing use [`Sha256::digest`].
///
/// # Examples
///
/// ```
/// use snd_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buffered", &self.buffer_len)
            .finish()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: impl AsRef<[u8]>) -> Digest {
        let mut h = Sha256::new();
        h.update(data.as_ref());
        h.finalize()
    }

    /// Hashes the concatenation of several byte strings.
    ///
    /// This is the workhorse behind all protocol commitments, which are
    /// defined as hashes over concatenated fields, e.g. `H(K || u)`.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("SHA-256 input exceeds 2^64 bits");

        // Top up a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        // Process full blocks straight from the input.
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            let mut arr = [0u8; BLOCK_LEN];
            arr.copy_from_slice(block);
            self.compress(&arr);
            data = rest;
        }

        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        // Pad with zeros until 8 bytes short of a block boundary, then append
        // the 64-bit big-endian message length.
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            BLOCK_LEN + 56 - self.buffer_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());

        // `update` would corrupt total_len; feed the padding manually.
        let mut remaining = &pad[..pad_len + 8];
        while !remaining.is_empty() {
            let take = (BLOCK_LEN - self.buffer_len).min(remaining.len());
            let start = self.buffer_len;
            self.buffer[start..start + take].copy_from_slice(&remaining[..take]);
            self.buffer_len += take;
            remaining = &remaining[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        debug_assert_eq!(self.buffer_len, 0, "padding must end on a block boundary");

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// SHA-256 compression function over one 64-byte block.
    ///
    /// Dispatches to the SHA-NI accelerated path when the CPU supports it
    /// (detected once, cached by `is_x86_feature_detected!`); both paths
    /// compute the identical FIPS 180-4 function, so digests never depend
    /// on which one ran.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the required target features were just verified.
            unsafe { shani::compress(&mut self.state, block) };
            return;
        }
        self.compress_soft(block);
    }

    /// Portable scalar compression (the fallback and reference path).
    fn compress_soft(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// SHA-NI (x86 SHA extensions) implementation of the SHA-256 compression
/// function. The round structure follows Intel's reference sequence: the
/// working state lives in two XMM registers in ABEF/CDGH order, each
/// `sha256rnds2` executes two rounds, and the message schedule is advanced
/// four words at a time with `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Advances the message schedule: from words `w[i-16..i]` held in
    /// `v0..v3` (four per register), computes `w[i..i+4]`.
    #[inline(always)]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        // SAFETY: caller guarantees sha+ssse3+sse4.1 (checked in `compress`).
        unsafe {
            let t1 = _mm_sha256msg1_epu32(v0, v1);
            let t2 = _mm_alignr_epi8(v3, v2, 4);
            let t3 = _mm_add_epi32(t1, t2);
            _mm_sha256msg2_epu32(t3, v3)
        }
    }

    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let kv = _mm_loadu_si128(K.as_ptr().add($i * 4).cast::<__m128i>());
            let t1 = _mm_add_epi32($w, kv);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, t1);
            let t2 = _mm_shuffle_epi32(t1, 0x0E);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, t2);
        }};
    }

    /// One compression over `block`, updating `state` in place.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        // SAFETY: unaligned loads/stores over in-bounds state and block
        // memory; all intrinsics are gated by this fn's target features.
        unsafe {
            // Big-endian word loads expressed as one byte shuffle.
            let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b_u64 as i64, 0x0405_0607_0001_0203);

            // Repack [a,b,c,d] / [e,f,g,h] into ABEF / CDGH register order.
            let dcba = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
            let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
            let cdab = _mm_shuffle_epi32(dcba, 0xB1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
            let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
            let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

            let abef_save = abef;
            let cdgh_save = cdgh;

            let p = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
            let mut w4;

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            w4 = schedule(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w4, 4);
            w0 = schedule(w1, w2, w3, w4);
            rounds4!(abef, cdgh, w0, 5);
            w1 = schedule(w2, w3, w4, w0);
            rounds4!(abef, cdgh, w1, 6);
            w2 = schedule(w3, w4, w0, w1);
            rounds4!(abef, cdgh, w2, 7);
            w3 = schedule(w4, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 8);
            w4 = schedule(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w4, 9);
            w0 = schedule(w1, w2, w3, w4);
            rounds4!(abef, cdgh, w0, 10);
            w1 = schedule(w2, w3, w4, w0);
            rounds4!(abef, cdgh, w1, 11);
            w2 = schedule(w3, w4, w0, w1);
            rounds4!(abef, cdgh, w2, 12);
            w3 = schedule(w4, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 13);
            w4 = schedule(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w4, 14);
            w0 = schedule(w1, w2, w3, w4);
            rounds4!(abef, cdgh, w0, 15);

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);

            // Unpack ABEF/CDGH back to the [a..d] / [e..h] memory layout.
            let feba = _mm_shuffle_epi32(abef, 0x1B);
            let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
            let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
            let hgfe = _mm_alignr_epi8(dchg, feba, 8);
            _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgfe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVS known-answer vectors.
    const VECTORS: &[(&str, &str)] = &[
        (
            "",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            "abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn known_answer_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(
                Sha256::digest(input.as_bytes()).to_hex(),
                *expected,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1037).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 1000, 1037] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let a = b"master-key";
        let b = b"node-17";
        let concat: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(Sha256::digest_parts(&[a, b]), Sha256::digest(&concat));
    }

    #[test]
    fn hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("abcd"), None);
        let bad = "zz".repeat(32);
        assert_eq!(Digest::from_hex(&bad), None);
    }

    #[test]
    fn ct_eq_agrees_with_eq() {
        let a = Sha256::digest(b"a");
        let b = Sha256::digest(b"b");
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
    }

    #[test]
    fn truncated_prefix() {
        let d = Sha256::digest(b"xyz");
        assert_eq!(d.truncated(8), d.as_bytes()[..8].to_vec());
        assert_eq!(d.truncated(32).len(), 32);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncated_panics_past_len() {
        Sha256::digest(b"xyz").truncated(33);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_compression() {
        if !(std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1"))
        {
            return; // nothing to cross-check on this CPU
        }
        let mut block = [0u8; BLOCK_LEN];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let mut scalar = Sha256::new();
        let mut state = scalar.state;
        for round in 0..32u8 {
            block[(round as usize) % BLOCK_LEN] ^= round.wrapping_add(1);
            scalar.compress_soft(&block);
            // SAFETY: features verified above.
            unsafe { shani::compress(&mut state, &block) };
            assert_eq!(scalar.state, state, "diverged at round {round}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise every padding branch: lengths around the 56-byte and
        // 64-byte boundaries must all produce distinct digests and not panic.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=130usize {
            let data = vec![0x5au8; len];
            assert!(
                seen.insert(Sha256::digest(&data)),
                "collision at length {len}"
            );
        }
    }
}
