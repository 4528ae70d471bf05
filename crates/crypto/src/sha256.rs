//! FIPS 180-4 SHA-256.
//!
//! Dependency-free implementation with an incremental [`Sha256`] hasher
//! and a one-shot [`sha256`] convenience function. FreqyWM hashes two
//! short messages per candidate token pair, so the block compression is
//! the cost of the whole pair PRF. It has two paths:
//!
//! * on x86-64 CPUs with the SHA extensions (plus SSE4.1), the rounds
//!   run on `sha256rnds2`/`sha256msg1`/`sha256msg2`, chosen at runtime
//!   with `is_x86_feature_detected!`;
//! * everywhere else, a portable scalar compression.
//!
//! Both produce identical digests; the unit tests run them side by side.

use crate::Digest;

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
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

/// Initial hash state (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use freqywm_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     freqywm_crypto::hex::encode(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, tail)) = rest.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest. Consumes the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length. `buf_len`
        // is below 64 here; at 56 or more the length spills into a
        // second block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_of(&self.state)
    }
}

/// Compresses one block into `state` on the fastest available path.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: the CPU supports every feature the function enables.
        unsafe { shani::compress(state, block) };
        return;
    }
    compress_scalar(state, block);
}

/// Portable FIPS 180-4 block compression. Kept out of line so the
/// dispatch in [`compress`] stays small enough to inline.
#[inline(never)]
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
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

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Block compression on the x86 SHA extensions.
///
/// `sha256rnds2` keeps the working variables as two vectors, `ABEF` and
/// `CDGH`, and runs two rounds per instruction; `sha256msg1`/`msg2`
/// extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether this CPU can run [`compress`]. The feature test caches
    /// its answer, so each call is a load and a branch (SSE2 is part
    /// of the x86-64 baseline).
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four rounds on schedule words `w` (`W[4r..4r+4]`).
    ///
    /// # Safety
    ///
    /// As for [`compress`], and `r < 16` (it indexes `K[4r..4r+4]`).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, r: usize) {
        debug_assert!(r < 16);
        let wk = _mm_add_epi32(w, _mm_loadu_si128(K.as_ptr().add(4 * r).cast()));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words from the previous sixteen.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Message words `W[4i..4i+4]` of `block`, loaded big-endian.
    ///
    /// # Safety
    ///
    /// As for [`compress`], and `i < 4` (it reads `block[16i..16i+16]`).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load(block: &[u8; 64], i: usize) -> __m128i {
        debug_assert!(i < 4);
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), be)
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSSE3 and SSE4.1 ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        let (abef0, cdgh0) = (abef, cdgh);

        // `w0..w3` hold the last sixteen schedule words, oldest first.
        let (mut w0, mut w1, mut w2, mut w3) = (
            load(block, 0),
            load(block, 1),
            load(block, 2),
            load(block, 3),
        );
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for r in 4..16 {
            let next = schedule(w0, w1, w2, w3);
            (w0, w1, w2, w3) = (w1, w2, w3, next);
            rounds4(&mut abef, &mut cdgh, next, r);
        }

        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    sha256_concat(&[data])
}

/// One-shot SHA-256 over the concatenation of several byte slices,
/// avoiding an intermediate allocation.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// The big-endian digest bytes of a final hash state.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hash_hex(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_eq!(
            hash_hex(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hash_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_across_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog again and again";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn sha256_concat_matches_manual_concat() {
        let a = b"hello ".as_slice();
        let b = b"frequency ".as_slice();
        let c = b"watermark".as_slice();
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        joined.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&joined));
    }

    #[test]
    fn padding_edge_lengths() {
        // Lengths around the 56-byte padding boundary exercise the
        // two-block padding path.
        for len in 50..70usize {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let d1 = h.finalize();
            let d2 = sha256(&data);
            assert_eq!(d1, d2, "len {len}");
        }
    }

    /// SHA-256 of `data` with padding done here and every block run
    /// through `compress`, so each compression path can be checked on
    /// its own.
    fn digest_with(data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().expect("64-byte block"));
        }
        digest_of(&state)
    }

    #[test]
    fn scalar_compress_matches_hasher() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                digest_with(&data[..len], compress_scalar),
                sha256(&data[..len]),
                "len {len}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_compress_matches_scalar() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        if !shani::available() {
            eprintln!("CPU lacks the SHA extensions; only the scalar path runs here");
            return;
        }
        // SAFETY: `available()` confirmed the required CPU features.
        let hw = |state: &mut [u32; 8], block: &[u8; 64]| unsafe { shani::compress(state, block) };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 13 % 256) as u8).collect();
        for len in 0..=data.len() {
            let want = digest_with(&data[..len], compress_scalar);
            assert_eq!(digest_with(&data[..len], hw), want, "len {len}");
        }
        let mut rng = StdRng::seed_from_u64(0x5a5a);
        for _ in 0..1_000 {
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let mut state = [0u32; 8];
            for w in state.iter_mut() {
                *w = rng.next_u32();
            }
            let (mut a, mut b) = (state, state);
            compress_scalar(&mut a, &block);
            hw(&mut b, &block);
            assert_eq!(a, b, "state {state:08x?}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"token-a"), sha256(b"token-b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
