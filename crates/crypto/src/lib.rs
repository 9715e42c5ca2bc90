//! # snd-crypto
//!
//! Cryptographic substrate for the secure neighbor-discovery system
//! reproducing *"Protecting Neighbor Discovery Against Node Compromises in
//! Sensor Networks"* (Donggang Liu, ICDCS 2009).
//!
//! The paper's protocol (§4) needs two cryptographic capabilities, both
//! provided here with no external crypto dependencies:
//!
//! 1. **A one-way hash** for verification keys `K_u = H(K‖u)`, binding-record
//!    commitments `C(u)`, relation commitments `C(u, v)` and update evidence
//!    `E(u, v)` — [`sha256`], over the pre-loaded master key `K` held as a
//!    [`keys::SymmetricKey`].
//! 2. **Prompt erasure** of the master key `K` when the deployment trust
//!    window closes — [`erasure`].
//!
//! Pairwise keys between neighbors are assumed, as in the paper, which
//! delegates them to key-predistribution schemes and never evaluates them;
//! they are not modelled here, and no experiment depends on link encryption.
//!
//! # Quick example
//!
//! ```
//! use snd_crypto::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Derive K_u = H(K || u) like the protocol's initialization step.
//! let master = SymmetricKey::random(&mut rng);
//! let node_id: u64 = 17;
//! let k_u = Sha256::digest_parts(&[master.as_bytes(), &node_id.to_be_bytes()]);
//!
//! // And erase the master key when the trust window closes.
//! let mut cell = ErasableKey::new(master);
//! cell.erase(&mut rng);
//! assert!(cell.get().is_err());
//! # let _ = k_u;
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod erasure;
pub mod keys;
pub mod sha256;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::erasure::{ErasableKey, KeyErased};
    pub use crate::keys::SymmetricKey;
    pub use crate::sha256::{Digest, Sha256};
}
