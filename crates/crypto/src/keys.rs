//! Symmetric key material.
//!
//! Every secret in the protocol — the network-wide master key `K`, per-node
//! verification keys `K_u = H(K ‖ u)` and the fast-erasure variant's record
//! keys `RK_v` — is a 256-bit [`SymmetricKey`]. Keys are zeroed on drop so
//! stale copies do not linger in memory, matching the paper's reliance on
//! secrets being unrecoverable once deleted.

use core::fmt;

use rand::{CryptoRng, Rng, RngCore};

use crate::sha256::{Digest, DIGEST_LEN};

/// Length of a symmetric key in bytes.
pub const KEY_LEN: usize = 32;

/// A 256-bit symmetric key.
///
/// The `Debug` and `Display` impls never print the key bytes — only a short
/// fingerprint — so keys cannot leak through logs.
///
/// # Examples
///
/// ```
/// use snd_crypto::keys::SymmetricKey;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let k = SymmetricKey::random(&mut rng);
/// assert_eq!(k.as_bytes().len(), 32);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SymmetricKey([u8; KEY_LEN]);

impl SymmetricKey {
    /// Constructs a key from raw bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SymmetricKey(bytes)
    }

    /// Samples a fresh uniformly random key.
    pub fn random<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        SymmetricKey(bytes)
    }

    /// Samples a key from any RNG. Intended for deterministic simulations
    /// where reproducibility matters more than entropy quality.
    pub fn random_insecure<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        SymmetricKey(bytes)
    }

    /// Views the key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }

    /// Constant-time equality.
    pub fn ct_eq(&self, other: &SymmetricKey) -> bool {
        let mut diff = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    /// A short, non-secret fingerprint of the key for diagnostics.
    pub fn fingerprint(&self) -> String {
        let d = crate::sha256::Sha256::digest(self.0);
        d.to_hex()[..8].to_string()
    }

    /// Overwrites the key bytes in place with `fill`.
    ///
    /// Prefer [`crate::erasure::ErasableKey`] for protocol secrets; this is
    /// the low-level primitive it builds on.
    pub fn overwrite(&mut self, fill: u8) {
        for b in self.0.iter_mut() {
            // Volatile write so the overwrite is not optimized away.
            unsafe { core::ptr::write_volatile(b, fill) };
        }
    }
}

impl From<Digest> for SymmetricKey {
    fn from(d: Digest) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        bytes.copy_from_slice(&d.as_bytes()[..DIGEST_LEN]);
        SymmetricKey(bytes)
    }
}

impl fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymmetricKey(fp={})", self.fingerprint())
    }
}

impl fmt::Display for SymmetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{}", self.fingerprint())
    }
}

impl Drop for SymmetricKey {
    fn drop(&mut self) {
        self.overwrite(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;
    use rand::SeedableRng;

    #[test]
    fn random_keys_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = SymmetricKey::random(&mut rng);
        let b = SymmetricKey::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        assert_eq!(SymmetricKey::random(&mut r1), SymmetricKey::random(&mut r2));
    }

    #[test]
    fn from_digest_round_trip() {
        let d = Sha256::digest(b"derive me");
        let k = SymmetricKey::from(d);
        assert_eq!(k.as_bytes(), d.as_bytes());
    }

    #[test]
    fn debug_does_not_leak_bytes() {
        let k = SymmetricKey::from_bytes([0xab; KEY_LEN]);
        let rendered = format!("{k:?}{k}");
        assert!(
            !rendered.contains("abab"),
            "debug output leaked key bytes: {rendered}"
        );
    }

    #[test]
    fn ct_eq_matches_eq() {
        let a = SymmetricKey::from_bytes([1; KEY_LEN]);
        let b = SymmetricKey::from_bytes([1; KEY_LEN]);
        let c = SymmetricKey::from_bytes([2; KEY_LEN]);
        assert!(a.ct_eq(&b));
        assert!(!a.ct_eq(&c));
    }

    #[test]
    fn overwrite_clears() {
        let mut k = SymmetricKey::from_bytes([9; KEY_LEN]);
        k.overwrite(0);
        assert_eq!(k.as_bytes(), &[0u8; KEY_LEN]);
    }
}
