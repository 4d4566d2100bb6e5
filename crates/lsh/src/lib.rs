//! Locality-sensitive hash families and signature storage.
//!
//! Following Charikar's definition (paper Eq. 1), an LSH family for a
//! similarity `sim` satisfies `Pr[h(x) = h(y)] = p(sim(x, y))` for a
//! monotone `p` over a random draw of `h`. Three families are implemented:
//!
//! * [`minhash`] — minwise-independent permutations for **Jaccard**
//!   similarity (integer-valued hashes, `p(s) = s`);
//! * [`srp`] — signed random projections for the **angular** similarity
//!   `r(x, y) = 1 − θ(x, y)/π` underlying cosine BayesLSH (bit-valued
//!   hashes, stored bit-packed);
//! * [`e2lsh`] — p-stable quantized projections for **L2** distance
//!   (integer-valued bucket hashes, Datar et al.'s collision model).
//!
//! **Maximum inner product** rides the SRP family through the asymmetric
//! augmentation of [`mips`], which reduces it to cosine on lifted vectors.
//! The [`family`] module is the public surface tying each family to its
//! measure and collision model ([`family::HashFamily`] /
//! [`family::FamilyConfig`]), which is what the Bayesian verifiers
//! consume — any family exposing the monotone map rides them unchanged.
//!
//! All families are exposed through one lazily extendable *signature
//! pool*, [`signature::Signatures`]: BayesLSH hashes each object only as
//! deep as its surviving candidate pairs require, which is one of the
//! paper's selling points ("each point in the dataset is only hashed as
//! many times as is necessary"). A family plugs in through the small
//! [`signature::PoolHasher`] trait (storage granularity, bank growth,
//! range hashing, agreement counting, snapshot header), and
//! [`signature::BitSignatures`], [`signature::IntSignatures`] and
//! [`e2lsh::ProjSignatures`] name the pool over each family's hasher.
//! [`bbit::BbitSignatures`], whose bits per hash are a runtime value,
//! keeps its own storage.
//!
//! The [`quantized`] module implements the paper's §4.3 trick of storing
//! each Gaussian plane component in 2 bytes.

pub mod bbit;
pub mod e2lsh;
pub mod family;
pub mod minhash;
pub mod mips;
pub mod quantized;
pub mod signature;
pub mod srp;

pub use bbit::{bbit_collision_prob, bbit_to_jaccard, count_bbit_agreements, BbitSignatures};
pub use e2lsh::{generate_projection, E2lshHasher, E2lshScratch, ProjSignatures};
pub use family::{
    e2lsh_collision, e2lsh_collision_at_distance, e2lsh_similarity_at, E2LshFamily, FamilyConfig,
    HashFamily, Measure, MinHashFamily, MipsFamily, SrpFamily,
};
pub use minhash::{MinHasher, MinScratch};
pub use mips::MipsTransform;
pub use signature::{
    count_bit_agreements, count_bit_agreements_batched, count_int_agreements,
    count_int_agreements_batched, BitSignatures, IntSignatures, PoolHasher, SignaturePool,
    Signatures,
};
pub use srp::{cos_to_r, generate_plane, r_to_cos, SrpHasher, SrpScratch};
