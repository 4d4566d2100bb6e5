//! Candidate generation algorithms for all-pairs similarity search.
//!
//! BayesLSH is a candidate *verification* layer: it takes pairs from any
//! generator. The paper evaluates two generators plus one end-to-end exact
//! baseline, all built here:
//!
//! * [`lshindex`] — classical LSH banding: `l` signatures, each the
//!   concatenation of `k` hashes; pairs sharing a signature become
//!   candidates, with `l = ceil(log ε / log(1 − p^k))` for expected false
//!   negative rate ε (paper Section 2).
//! * [`allpairs`] — AllPairs (Bayardo, Ma & Srikant, WWW'07) for cosine
//!   similarity over weighted vectors: exact, with partial indexing driven
//!   by per-dimension max-weight bounds. Exposes both the exact join and
//!   the intermediate candidate set (to feed BayesLSH).
//! * [`ppjoin`] — PPJoin+ (Xiao et al., WWW'08) for binary vectors under
//!   Jaccard or cosine: prefix, positional and suffix filtering. Exact
//!   baseline only, as in the paper.
//!
//! [`fxhash`] provides the fast hash map used for bucketing, and [`pairs`]
//! the shared candidate-set plumbing.

pub mod allpairs;
pub mod fxhash;
pub mod lshindex;
pub mod pairs;
pub mod ppjoin;

pub use allpairs::{
    all_pairs_cosine, all_pairs_cosine_candidates, all_pairs_jaccard, all_pairs_jaccard_candidates,
};
pub use lshindex::{
    band_key_bits, band_key_ints, lsh_candidates, BandingIndex, BandingParams, BandingPlan,
};
pub use pairs::PairSet;
pub use ppjoin::{ppjoin_binary_cosine, ppjoin_jaccard};
