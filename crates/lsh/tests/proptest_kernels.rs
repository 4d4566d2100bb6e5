//! Property tests: the feature-major SRP kernel and element-major MinHash
//! kernel are bit-identical to the scalar reference oracle.
//!
//! The oracle is the historical plane-major path, rebuilt here from first
//! principles: regenerate plane `i` as a column through the pure
//! [`generate_plane`] stream, apply the storage encoding, and accumulate a
//! single `f64` dot product over the nonzeros in index order. Every bit
//! the kernels produce — through appending, packed, per-bit and pool
//! `ensure` extension paths, word-aligned and not, quantized and float —
//! must equal the oracle's.

use bayeslsh_lsh::srp::PlaneStorage;
use bayeslsh_lsh::{
    count_bbit_agreements, count_bit_agreements, count_bit_agreements_batched,
    count_int_agreements, count_int_agreements_batched, generate_plane, generate_projection,
    quantized, BbitSignatures, BitSignatures, E2lshHasher, E2lshScratch, IntSignatures, MinHasher,
    PoolHasher, SignaturePool, Signatures, SrpHasher, SrpScratch,
};
use bayeslsh_numeric::Xoshiro256;
use bayeslsh_sparse::{Dataset, SparseVector};
use proptest::prelude::*;

/// The scalar reference: sign of `dot(plane_i, v)` via a column regenerated
/// from the pure plane stream (plane-major, one gather per nonzero).
fn oracle_srp_bit(dim: u32, seed: u64, storage: PlaneStorage, i: usize, v: &SparseVector) -> bool {
    let plane = generate_plane(dim, seed, i);
    let acc = match storage {
        PlaneStorage::Quantized => {
            let enc = quantized::encode_slice(&plane);
            let mut acc = 0.0f64;
            for (idx, val) in v.iter() {
                acc += quantized::decode(enc[idx as usize]) as f64 * val as f64;
            }
            acc
        }
        PlaneStorage::Float => {
            let mut acc = 0.0f64;
            for (idx, val) in v.iter() {
                acc += plane[idx as usize] as f64 * val as f64;
            }
            acc
        }
    };
    acc >= 0.0
}

/// The E2LSH scalar reference: regenerate projection `i` as a column
/// through the pure [`generate_projection`] stream, accumulate a single
/// `f64` dot product over the nonzeros in index order, and quantize with
/// the kernel's exact arithmetic — `acc · (1/r) + b/r`, floored, truncated
/// to 32 bits (NOT `acc / r`, whose rounding can differ by one ulp).
fn oracle_e2lsh_bucket(dim: u32, seed: u64, r: f64, i: usize, v: &SparseVector) -> u32 {
    let (components, offset) = generate_projection(dim, seed, i);
    let mut acc = 0.0f64;
    for (idx, val) in v.iter() {
        acc += components[idx as usize] as f64 * val as f64;
    }
    ((acc * (1.0 / r) + offset).floor() as i64) as u32
}

/// A random sparse vector with signed weights (possibly empty).
fn random_vector(dim: u32, max_nnz: usize, rng: &mut Xoshiro256) -> SparseVector {
    let nnz = rng.next_below(max_nnz as u64 + 1) as usize;
    let pairs: Vec<(u32, f32)> = (0..nnz)
        .map(|_| {
            (
                rng.next_below(dim as u64) as u32,
                (rng.next_f64() * 2.0 - 1.0) as f32,
            )
        })
        .collect();
    SparseVector::from_pairs(pairs)
}

/// Split `0..total` into random increments, mimicking the incremental
/// `ensure` extension pattern of chunked verification.
fn random_cuts(total: u32, rng: &mut Xoshiro256) -> Vec<(u32, u32)> {
    let mut cuts = vec![0u32];
    let mut at = 0;
    while at < total {
        at = (at + 1 + rng.next_below(96) as u32).min(total);
        cuts.push(at);
    }
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

fn storage_of(quantized: bool) -> PlaneStorage {
    if quantized {
        PlaneStorage::Quantized
    } else {
        PlaneStorage::Float
    }
}

fn bit_of(words: &[u32], i: u32) -> bool {
    (words[(i / 32) as usize] >> (i % 32)) & 1 == 1
}

/// Hash `i` of a stored signature: one bit of a packed word for SRP, one
/// whole word otherwise.
fn slot<H: PoolHasher>(raw: &[u32], i: u32) -> u32 {
    if H::PER_WORD == 32 {
        bit_of(raw, i) as u32
    } else {
        raw[i as usize]
    }
}

/// One pool property for any hasher, over the two vectors of `data`:
/// `ensure` in random increments (serial), `par_ensure_ids` in random
/// increments with a repeated id (parallel), and a one-shot deep `ensure`
/// under a depth hint all store the same words; every hash equals
/// `oracle(i, v)`; and external hashing, in increments or in parallel,
/// reproduces the pooled streams.
fn check_pool_extension<H: PoolHasher>(
    make: impl Fn() -> H,
    mut oracle: impl FnMut(usize, &SparseVector) -> u32,
    data: &Dataset,
    total: u32,
    threads: usize,
    rng: &mut Xoshiro256,
) {
    let (va, vb) = (data.vector(0), data.vector(1));
    let mut one_shot = Signatures::new(make(), 2);
    one_shot.depth_hint(total); // hint must not change contents
    one_shot.ensure(0, va, total);
    one_shot.ensure(1, vb, total);
    let mut serial = Signatures::new(make(), 2);
    for (_, hi) in random_cuts(total, rng) {
        serial.ensure(0, va, hi);
    }
    assert_eq!(serial.len(0), one_shot.len(0));
    assert_eq!(serial.raw(0), one_shot.raw(0));
    let mut par = Signatures::new(make(), 2);
    for (_, hi) in random_cuts(total, rng) {
        par.par_ensure_ids(data, &[0, 1, 0], hi, threads);
    }
    for id in 0..2u32 {
        assert_eq!(par.len(id), one_shot.len(id));
        assert_eq!(par.raw(id), one_shot.raw(id), "id {id}");
    }
    for i in 0..one_shot.len(0) {
        assert_eq!(
            slot::<H>(one_shot.raw(0), i),
            oracle(i as usize, va),
            "hash {i}"
        );
    }
    // External queries ride the same bank: the chunked `hash_external`
    // path and the parallel splice both reproduce the pool's stream.
    let mut ext = Vec::new();
    for (_, hi) in random_cuts(total, rng) {
        let lo = ext.len() as u32 * H::PER_WORD;
        if lo < hi {
            par.hash_external(va, lo, hi, &mut ext);
        }
    }
    assert_eq!(ext.as_slice(), par.raw(0));
    assert_eq!(
        par.hash_external_par(vb, total, threads).as_slice(),
        par.raw(1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `hash_bits_into` over arbitrary (non-word-aligned) increments is
    /// bit-identical to the scalar oracle, for both storages.
    #[test]
    fn srp_incremental_extension_matches_oracle(
        seed in 0u64..500,
        dim_sel in 8u32..200,
        is_quant in 0u32..2,
        total in 1u32..300,
    ) {
        let storage = storage_of(is_quant == 1);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xA1);
        let v = random_vector(dim_sel, 24, &mut rng);
        let mut h = SrpHasher::with_storage(dim_sel, seed, storage);
        let mut words = Vec::new();
        for (lo, hi) in random_cuts(total, &mut rng) {
            h.hash_bits_into(&v, lo, hi, &mut words);
        }
        for i in 0..total {
            let want = oracle_srp_bit(dim_sel, seed, storage, i as usize, &v);
            prop_assert_eq!(bit_of(&words, i), want, "bit {} of {}", i, total);
            prop_assert_eq!(h.hash_bit_ready(i as usize, &v), want);
        }
    }

    /// The word-aligned packed kernel (the parallel splice building block),
    /// with a shared scratch, matches the oracle.
    #[test]
    fn srp_packed_matches_oracle(
        seed in 0u64..500,
        is_quant in 0u32..2,
        words_n in 1u32..8,
    ) {
        let storage = storage_of(is_quant == 1);
        let dim = 64;
        let total = words_n * 32;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xB2);
        let v = random_vector(dim, 16, &mut rng);
        let mut h = SrpHasher::with_storage(dim, seed, storage);
        h.ensure_planes(total as usize);
        let mut scratch = SrpScratch::new();
        let mut packed = Vec::new();
        let mut lo = 0;
        while lo < total {
            let hi = (lo + 32 * (1 + rng.next_below(3) as u32)).min(total);
            packed.extend(h.hash_bits_packed_with(&v, lo, hi, &mut scratch));
            lo = hi;
        }
        for i in 0..total {
            prop_assert_eq!(
                bit_of(&packed, i),
                oracle_srp_bit(dim, seed, storage, i as usize, &v),
                "bit {}", i
            );
        }
    }

    /// Element-major minhash ranges equal the scalar per-slot path over
    /// arbitrary increments.
    #[test]
    fn minhash_incremental_extension_matches_scalar(
        seed in 0u64..500,
        total in 1u32..300,
        set_size in 0u64..40,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD4);
        let idxs: Vec<u32> = (0..set_size).map(|_| rng.next_below(10_000) as u32).collect();
        let v = SparseVector::from_indices(idxs);
        let mut h = MinHasher::new(seed);
        let mut out = Vec::new();
        for (lo, hi) in random_cuts(total, &mut rng) {
            h.hash_range_into(&v, lo, hi, &mut out);
        }
        prop_assert_eq!(out.len(), total as usize);
        for (i, &got) in out.iter().enumerate() {
            prop_assert_eq!(got, h.hash_ready(i, &v), "slot {}", i);
        }
        // And the packed read-only path over a random sub-range.
        let lo = rng.next_below(total as u64) as u32;
        let hi = lo + rng.next_below((total - lo) as u64 + 1) as u32;
        prop_assert_eq!(h.hash_range_packed(&v, lo, hi), &out[lo as usize..hi as usize]);
    }

    /// Word-parallel bit agreement counting — single-pair, batched free
    /// function, and the pool's batched sweep — equals a per-bit scalar
    /// loop, across aligned and unaligned ranges on incrementally-ensured
    /// signatures.
    #[test]
    fn bit_agreement_counts_match_scalar_oracle(
        seed in 0u64..400,
        total in 1u32..300,
        lo_sel in 0u32..300,
        span in 0u32..300,
    ) {
        let dim = 80;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF6);
        let va = random_vector(dim, 18, &mut rng);
        let vb = random_vector(dim, 18, &mut rng);
        let mut pool = BitSignatures::new(SrpHasher::new(dim, seed), 2);
        for (_, hi) in random_cuts(total, &mut rng) {
            pool.ensure(0, &va, hi);
        }
        pool.ensure(1, &vb, total);
        let depth = pool.len(0);
        let lo = lo_sel.min(depth);
        let hi = (lo + span).min(depth);
        let naive = (lo..hi).filter(|&i| pool.bit(0, i) == pool.bit(1, i)).count() as u32;
        prop_assert_eq!(pool.agreements(0, 1, lo, hi), naive);
        prop_assert_eq!(
            count_bit_agreements(pool.raw(0), pool.raw(1), lo, hi),
            naive
        );
        let mut out = Vec::new();
        count_bit_agreements_batched(
            pool.raw(0),
            [pool.raw(1), pool.raw(0)],
            lo,
            hi,
            &mut out,
        );
        prop_assert_eq!(&out, &[naive, hi - lo]);
        pool.agreements_batched(0, &[1, 0, 1], lo, hi, &mut out);
        prop_assert_eq!(out, vec![naive, hi - lo, naive]);
    }

    /// Batched integer agreement counting equals the single-pair count,
    /// which equals an element-wise scalar loop.
    #[test]
    fn int_agreement_counts_match_scalar_oracle(
        seed in 0u64..400,
        total in 1u32..300,
        lo_sel in 0u32..300,
        span in 0u32..300,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xA7);
        // Overlapping supports so a good fraction of hashes agree.
        let sa = SparseVector::from_indices(
            (0..1 + rng.next_below(25)).map(|_| rng.next_below(60) as u32).collect(),
        );
        let sb = SparseVector::from_indices(
            (0..1 + rng.next_below(25)).map(|_| rng.next_below(60) as u32).collect(),
        );
        let mut pool = IntSignatures::new(MinHasher::new(seed), 2);
        for (_, hi) in random_cuts(total, &mut rng) {
            pool.ensure(0, &sa, hi);
        }
        pool.ensure(1, &sb, total);
        let lo = lo_sel.min(total);
        let hi = (lo + span).min(total);
        let naive = pool.raw(0)[lo as usize..hi as usize]
            .iter()
            .zip(&pool.raw(1)[lo as usize..hi as usize])
            .filter(|(x, y)| x == y)
            .count() as u32;
        prop_assert_eq!(count_int_agreements(pool.raw(0), pool.raw(1), lo, hi), naive);
        let mut out = Vec::new();
        count_int_agreements_batched(pool.raw(0), [pool.raw(1), pool.raw(0)], lo, hi, &mut out);
        prop_assert_eq!(&out, &[naive, hi - lo]);
        pool.agreements_batched(0, &[1, 0], lo, hi, &mut out);
        prop_assert_eq!(out, vec![naive, hi - lo]);
    }

    /// Word-parallel b-bit fragment counting equals the low-bits-of-minhash
    /// scalar oracle for every supported `b`, across non-word-multiple
    /// depths and incremental ensure patterns (tail-mask edge cases).
    #[test]
    fn bbit_agreement_counts_match_low_bit_oracle(
        seed in 0u64..400,
        b_sel in 0u32..5,
        total in 1u32..300,
        lo_sel in 0u32..300,
        span in 0u32..300,
    ) {
        let b = [1u32, 2, 4, 8, 16][b_sel as usize];
        let mask = (1u32 << b) - 1;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xB8);
        let sa = SparseVector::from_indices(
            (0..1 + rng.next_below(25)).map(|_| rng.next_below(60) as u32).collect(),
        );
        let sb = SparseVector::from_indices(
            (0..1 + rng.next_below(25)).map(|_| rng.next_below(60) as u32).collect(),
        );
        let mut pool = BbitSignatures::new(MinHasher::new(seed), 2, b);
        for (_, hi) in random_cuts(total, &mut rng) {
            pool.ensure(0, &sa, hi);
        }
        pool.ensure(1, &sb, total);
        let depth = pool.len(0);
        prop_assert_eq!(pool.len(1), depth);
        let lo = lo_sel.min(depth);
        let hi = (lo + span).min(depth);
        let mut reference = MinHasher::new(seed);
        let naive = (lo..hi)
            .filter(|&i| {
                reference.hash(i as usize, &sa) & mask == reference.hash(i as usize, &sb) & mask
            })
            .count() as u32;
        prop_assert_eq!(pool.agreements(0, 1, lo, hi), naive);
        let mut out = Vec::new();
        pool.agreements_batched(0, &[1, 0], lo, hi, &mut out);
        prop_assert_eq!(out, vec![naive, hi - lo]);
        // The free function over raw words agrees with the pool path.
        prop_assert_eq!(
            count_bbit_agreements(pool.raw_words(0), pool.raw_words(1), b, lo, hi),
            naive
        );
    }

    /// The feature-major E2LSH range kernel over arbitrary increments —
    /// and the per-slot gather — are bit-identical to the scalar oracle,
    /// across bucket widths.
    #[test]
    fn e2lsh_incremental_extension_matches_oracle(
        seed in 0u64..500,
        dim_sel in 8u32..200,
        r_sel in 0u32..4,
        total in 1u32..300,
    ) {
        let r = [0.5f64, 1.0, 4.0, 7.25][r_sel as usize];
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC9);
        let v = random_vector(dim_sel, 24, &mut rng);
        let mut h = E2lshHasher::new(dim_sel, seed, r);
        let mut out = Vec::new();
        for (lo, hi) in random_cuts(total, &mut rng) {
            h.hash_range_into(&v, lo, hi, &mut out);
        }
        prop_assert_eq!(out.len(), total as usize);
        for (i, &got) in out.iter().enumerate() {
            let want = oracle_e2lsh_bucket(dim_sel, seed, r, i, &v);
            prop_assert_eq!(got, want, "slot {} of {}", i, total);
            prop_assert_eq!(h.hash_ready(i, &v), want);
        }
    }

    /// The packed read-only kernel (the parallel splice building block),
    /// with a shared scratch and a bank grown in two stages — forcing a
    /// stride relocation of the filled prefix — matches the oracle. The
    /// second growth goes through the parallel generator, which must land
    /// the same bank as the serial one.
    #[test]
    fn e2lsh_packed_matches_oracle_after_bank_growth(
        seed in 0u64..500,
        total in 65u32..300,
        threads in 1u32..5,
    ) {
        let dim = 96;
        let r = 4.0;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xDA);
        let v = random_vector(dim, 20, &mut rng);
        let mut h = E2lshHasher::new(dim, seed, r);
        // First growth fills the minimum stride; the second (past 64)
        // must relocate those columns into the wider rows.
        h.ensure_functions(1 + rng.next_below(64) as usize);
        h.ensure_functions_par(total as usize, threads as usize);
        prop_assert_eq!(h.functions_ready(), total as usize);
        let mut scratch = E2lshScratch::new();
        let mut packed = Vec::new();
        for (lo, hi) in random_cuts(total, &mut rng) {
            packed.extend(h.hash_range_packed_with(&v, lo, hi, &mut scratch));
        }
        for (i, &got) in packed.iter().enumerate() {
            prop_assert_eq!(got, oracle_e2lsh_bucket(dim, seed, r, i, &v), "slot {}", i);
        }
    }

    /// Every pool family: serial and parallel `ensure` in random
    /// increments equal a one-shot deep `ensure`, every stored hash equals
    /// the family's scalar oracle, and external hashing reproduces the
    /// pooled streams — whatever the thread count or demand pattern.
    #[test]
    fn pool_extension_patterns_match_one_shot(
        seed in 0u64..300,
        total in 1u32..260,
        threads in 1u32..5,
    ) {
        let (dim, r) = (96, 2.0);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC3);
        let mut data = Dataset::new(dim);
        data.push(random_vector(dim, 20, &mut rng));
        data.push(random_vector(dim, 20, &mut rng));
        let threads = threads as usize;
        let srp_oracle =
            |i, v: &SparseVector| oracle_srp_bit(dim, seed, PlaneStorage::Quantized, i, v) as u32;
        check_pool_extension(|| SrpHasher::new(dim, seed), srp_oracle, &data, total, threads, &mut rng);
        let mut scalar = MinHasher::new(seed);
        let min_oracle = |i, v: &SparseVector| scalar.hash(i, v);
        check_pool_extension(|| MinHasher::new(seed), min_oracle, &data, total, threads, &mut rng);
        let e2_oracle = |i, v: &SparseVector| oracle_e2lsh_bucket(dim, seed, r, i, v);
        check_pool_extension(|| E2lshHasher::new(dim, seed, r), e2_oracle, &data, total, threads, &mut rng);
    }
}
