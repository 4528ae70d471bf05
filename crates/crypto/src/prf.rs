//! The FreqyWM pair PRF and deterministic keystream.
//!
//! The watermarking secret is a high-entropy value `R ← {0,1}^λ`
//! (λ = 256 here). For a candidate token pair `(tk_i, tk_j)` the paper
//! derives a per-pair modulus
//!
//! ```text
//! s_ij = H(tk_i || H(R || tk_j)) mod z
//! ```
//!
//! where `||` is byte concatenation and `z ∈ Z+` is the public-ish
//! modulo parameter. [`pair_modulus`] implements exactly this, reducing
//! the 256-bit digest modulo `z` in big-endian order.
//!
//! [`KeyStream`] turns the same secret into a deterministic random
//! stream (HMAC-SHA-256 in counter mode). The generation algorithm uses
//! it to pick *random insertion positions* for added tokens — the paper
//! notes these positions must be keyed, otherwise the placement of the
//! new instances would leak the watermarked pairs.

use crate::hmac::hmac_sha256;
use crate::sha256::{sha256_concat, Sha256};
use rand::{CryptoRng, RngCore, SeedableRng};

/// Security parameter λ in bytes (256 bits, matching SHA-256 output).
pub const SECRET_LEN: usize = 32;

/// The high-entropy watermarking secret `R`.
///
/// Created freshly via [`Secret::generate`] (OS entropy through
/// `rand::rngs::OsRng`) or deterministically for tests via
/// [`Secret::from_bytes`].
#[derive(Clone, PartialEq, Eq)]
pub struct Secret {
    bytes: [u8; SECRET_LEN],
}

impl std::fmt::Debug for Secret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the raw secret.
        write!(f, "Secret(…{:02x}{:02x})", self.bytes[30], self.bytes[31])
    }
}

impl Secret {
    /// Samples a fresh λ-bit secret from the provided RNG.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; SECRET_LEN];
        rng.fill_bytes(&mut bytes);
        Secret { bytes }
    }

    /// Builds a secret from raw bytes (secret import, tests).
    pub fn from_bytes(bytes: [u8; SECRET_LEN]) -> Self {
        Secret { bytes }
    }

    /// Deterministic secret derived from a string label. **Test and
    /// example use only** — real deployments must use [`Secret::generate`].
    pub fn from_label(label: &str) -> Self {
        Secret {
            bytes: crate::sha256::sha256(label.as_bytes()),
        }
    }

    /// Raw secret bytes (for serialisation by the owner).
    pub fn as_bytes(&self) -> &[u8; SECRET_LEN] {
        &self.bytes
    }

    /// Hex representation (for secret files).
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.bytes)
    }

    /// Parses a hex representation produced by [`Secret::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        let v = crate::hex::decode(s)?;
        let bytes: [u8; SECRET_LEN] = v.try_into().ok()?;
        Some(Secret { bytes })
    }

    /// Overwrites the secret bytes with zeros. Called automatically on
    /// drop; exposed for callers that want to wipe eagerly (e.g. a key
    /// registry evicting a tenant).
    pub fn zeroize(&mut self) {
        for b in self.bytes.iter_mut() {
            // Volatile so the wipe cannot be optimised away as a dead
            // store right before deallocation.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }

    /// Non-reversible 64-bit tag for cache keying: a domain-separated
    /// SHA-256 of the secret, truncated. Safe to store next to cached
    /// PRF outputs — recovering `R` from it is a preimage attack — and
    /// stable across processes for the same secret.
    pub fn cache_tag(&self) -> u64 {
        let mut h = Sha256::new();
        h.update(b"freqywm/cache-tag/v1");
        h.update(&self.bytes);
        let d = h.finalize();
        u64::from_be_bytes(d[..8].try_into().expect("8-byte prefix"))
    }
}

impl Drop for Secret {
    /// Zeroize-on-drop: the high-entropy secret never lingers in freed
    /// memory.
    fn drop(&mut self) {
        self.zeroize();
    }
}

/// Reduces a 256-bit big-endian digest modulo `z` (`z ≥ 1`).
///
/// Horner's rule over four big-endian 64-bit limbs: the running
/// remainder stays below `z`, so each step divides a 128-bit value whose
/// quotient fits in 64 bits.
pub fn digest_mod(digest: &[u8; 32], z: u64) -> u64 {
    debug_assert!(z > 0);
    let z = u128::from(z);
    let mut acc = 0u128;
    for limb in digest.chunks_exact(8) {
        let limb = u64::from_be_bytes(limb.try_into().expect("8-byte limb"));
        acc = ((acc << 64) | u128::from(limb)) % z;
    }
    acc as u64
}

/// Computes the paper's pair modulus `s_ij = H(tk_i || H(R || tk_j)) mod z`.
///
/// `z` must be ≥ 1; callers treat results `< 2` as ineligible (modulo 0
/// is undefined and modulo 1 is identically 0).
pub fn pair_modulus(secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
    let inner = sha256_concat(&[secret.as_bytes(), tk_j]);
    let outer = sha256_concat(&[tk_i, &inner]);
    digest_mod(&outer, z)
}

/// Source of pair moduli.
///
/// The core algorithms call [`pair_modulus`] directly; this trait lets
/// a memoization layer (the service crate's `PrfCache`, which no
/// serving path uses) and the benchmark's probe stand behind one call.
/// Implementations must be semantically transparent:
/// `provider.pair_modulus(...)` ≡ [`pair_modulus`] for all inputs.
pub trait PrfProvider {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64;
}

/// The trivial provider: compute every modulus directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectPrf;

impl PrfProvider for DirectPrf {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
        pair_modulus(secret, tk_i, tk_j, z)
    }
}

impl<P: PrfProvider + ?Sized> PrfProvider for &P {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
        (**self).pair_modulus(secret, tk_i, tk_j, z)
    }
}

/// Deterministic keystream: HMAC-SHA-256 in counter mode over a secret
/// and a domain-separation label.
///
/// Implements [`rand::RngCore`] so it can drive any `rand` API. The
/// stream is reproducible given (secret, label), which the generation
/// algorithm relies on for keyed-but-reproducible token placement.
pub struct KeyStream {
    key: [u8; SECRET_LEN],
    counter: u64,
    buf: [u8; 32],
    used: usize,
}

impl KeyStream {
    /// Creates a stream bound to `secret` under the given domain label.
    pub fn new(secret: &Secret, label: &[u8]) -> Self {
        // Derive a subkey so different labels give independent streams.
        let mut h = Sha256::new();
        h.update(b"freqywm/keystream/v1");
        h.update(secret.as_bytes());
        h.update(label);
        KeyStream {
            key: h.finalize(),
            counter: 0,
            buf: [0u8; 32],
            used: 32,
        }
    }

    fn refill(&mut self) {
        self.buf = hmac_sha256(&self.key, &self.counter.to_be_bytes());
        self.counter += 1;
        self.used = 0;
    }
}

impl RngCore for KeyStream {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.used == 32 {
                self.refill();
            }
            let take = (dest.len() - filled).min(32 - self.used);
            dest[filled..filled + take].copy_from_slice(&self.buf[self.used..self.used + take]);
            self.used += take;
            filled += take;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl CryptoRng for KeyStream {}

impl SeedableRng for KeyStream {
    type Seed = [u8; SECRET_LEN];

    fn from_seed(seed: Self::Seed) -> Self {
        KeyStream::new(&Secret::from_bytes(seed), b"seedable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn secret(n: u8) -> Secret {
        Secret::from_bytes([n; SECRET_LEN])
    }

    #[test]
    fn pair_modulus_in_range() {
        let s = secret(7);
        for z in [2u64, 3, 10, 131, 1031, u32::MAX as u64] {
            for (a, b) in [("youtube.com", "instagram.com"), ("a", "b"), ("", "x")] {
                let m = pair_modulus(&s, a.as_bytes(), b.as_bytes(), z);
                assert!(m < z, "modulus {m} out of range for z={z}");
            }
        }
    }

    #[test]
    fn pair_modulus_is_deterministic() {
        let s = secret(1);
        let m1 = pair_modulus(&s, b"tok-a", b"tok-b", 1031);
        let m2 = pair_modulus(&s, b"tok-a", b"tok-b", 1031);
        assert_eq!(m1, m2);
    }

    #[test]
    fn pair_modulus_is_order_sensitive() {
        // H(tk_i || H(R || tk_j)) is asymmetric in (i, j); the core crate
        // normalises ordering. Here we only document the asymmetry.
        let s = secret(1);
        let ab = pair_modulus(&s, b"tok-a", b"tok-b", 1_000_003);
        let ba = pair_modulus(&s, b"tok-b", b"tok-a", 1_000_003);
        assert_ne!(ab, ba);
    }

    #[test]
    fn pair_modulus_depends_on_secret() {
        let m1 = pair_modulus(&secret(1), b"a", b"b", 1031);
        let m2 = pair_modulus(&secret(2), b"a", b"b", 1031);
        assert_ne!(m1, m2);
    }

    #[test]
    fn digest_mod_agrees_with_u128_reference() {
        // The limb reduction must equal the byte-at-a-time fold for
        // small, 32-bit, 63-bit and full-width moduli.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let mut d = [0u8; 32];
            rng.fill_bytes(&mut d);
            let wide = rng.next_u64() | 1;
            for z in [
                1u64,
                2,
                7,
                131,
                1031,
                65_537,
                u32::MAX as u64,
                (1 << 63) + 5,
                u64::MAX,
                wide,
            ] {
                let mut acc: u128 = 0;
                for &b in &d {
                    acc = ((acc << 8) | b as u128) % z as u128;
                }
                assert_eq!(digest_mod(&d, z), acc as u64, "z={z}");
            }
        }
        assert_eq!(digest_mod(&[0xFF; 32], u64::MAX), 0);
    }

    #[test]
    fn keystream_reproducible_and_label_separated() {
        let s = secret(9);
        let mut k1 = KeyStream::new(&s, b"placement");
        let mut k2 = KeyStream::new(&s, b"placement");
        let mut k3 = KeyStream::new(&s, b"other");
        let a: Vec<u64> = (0..16).map(|_| k1.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| k2.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| k3.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keystream_fill_bytes_cross_boundary() {
        let s = secret(3);
        let mut k1 = KeyStream::new(&s, b"x");
        let mut whole = vec![0u8; 100];
        k1.fill_bytes(&mut whole);

        let mut k2 = KeyStream::new(&s, b"x");
        let mut parts = vec![0u8; 100];
        let mut off = 0;
        for chunk in [1usize, 31, 32, 33, 3] {
            k2.fill_bytes(&mut parts[off..off + chunk]);
            off += chunk;
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn keystream_drives_rand_apis() {
        let mut k = KeyStream::new(&secret(5), b"rand");
        let v: u32 = k.gen_range(0..100);
        assert!(v < 100);
        let f: f64 = k.gen();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn keystream_uniformity_smoke() {
        // Chi-square-ish smoke test: byte histogram of 64 KiB should be
        // roughly flat.
        let mut k = KeyStream::new(&secret(11), b"uniform");
        let mut buf = vec![0u8; 65_536];
        k.fill_bytes(&mut buf);
        let mut hist = [0u32; 256];
        for &b in &buf {
            hist[b as usize] += 1;
        }
        let expected = 65_536.0 / 256.0;
        let chi2: f64 = hist
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 255 dof; mean 255, sd ~22.6. Accept a generous window.
        assert!(chi2 > 150.0 && chi2 < 400.0, "chi2={chi2}");
    }

    #[test]
    fn secret_hex_round_trip() {
        let s = secret(42);
        let hex = s.to_hex();
        assert_eq!(Secret::from_hex(&hex).unwrap(), s);
        assert!(Secret::from_hex("abc").is_none());
    }

    #[test]
    fn secret_debug_does_not_leak() {
        let s = secret(0xAA);
        let dbg = format!("{s:?}");
        assert!(!dbg.contains(&s.to_hex()));
    }
}
