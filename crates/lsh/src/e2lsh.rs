//! p-stable quantized projections: the LSH family for L2 distance
//! (Datar, Immorlica, Indyk & Mirrokni, SoCG'04).
//!
//! Hash `i` draws a Gaussian projection vector `a_i` (2-stable for L2) and
//! a uniform offset `b_i ∈ [0, r)`, and buckets the line projection:
//! `h_i(x) = ⌊(a_i·x + b_i)/r⌋`. Two points at Euclidean distance `d`
//! collide with the probability of [`crate::family::e2lsh_collision_at_distance`],
//! monotone decreasing in `d` — so on the `s = 1/(1 + d)` similarity scale
//! the family satisfies Charikar's contract with a monotone increasing
//! `p(s)` and rides the same agreement-counting machinery as SRP and
//! minhash.
//!
//! # Kernel layout
//!
//! Projection components are stored **feature-major** exactly like
//! [`crate::SrpHasher`]'s plane bank (`bank[f·stride + i]` = component `f`
//! of projection `i`): hashing a sparse vector to slots `lo..hi` is one
//! pass over its nonzeros streaming contiguous row slices into a dense
//! `f64` accumulator, then one sweep quantizing each accumulator with its
//! slot's offset. The bank is filled by scattering the pure
//! [`generate_projection`] streams, so every hash value is identical to a
//! projection-major scalar evaluation: per slot, the same `f64` terms are
//! added in the same (index) order.

use bayeslsh_numeric::wire::{WireError, WireReader, WireWriter};
use bayeslsh_numeric::{derive_seed, fan_out, Gaussian, Xoshiro256};
use bayeslsh_sparse::SparseVector;

use crate::signature::Signatures;

/// Projection `index` of the `(dim, seed)` bank plus its uniform offset
/// `b/r ∈ [0, 1)` — a pure function, so projections can be generated in any
/// order and on any thread. Public so out-of-crate reference oracles
/// (property tests, benchmark baselines) can rebuild the exact streams the
/// bank scatters: `dim` Gaussian components first, then the offset draw.
pub fn generate_projection(dim: u32, seed: u64, index: usize) -> (Vec<f32>, f64) {
    let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, index as u64));
    let mut gauss = Gaussian::new();
    let components = (0..dim).map(|_| gauss.sample(&mut rng) as f32).collect();
    let offset = rng.next_f64();
    (components, offset)
}

/// Quantize one projection accumulator into its bucket id. The offset is
/// stored in units of `r` (`b/r ∈ [0, 1)`), so the bucket is
/// `⌊acc/r + b/r⌋`; the signed bucket index is truncated to 32 bits, where
/// spurious equality needs buckets exactly `2³²` apart.
#[inline]
fn bucket(acc: f64, inv_r: f64, offset_unit: f64) -> u32 {
    ((acc * inv_r + offset_unit).floor() as i64) as u32
}

/// Reusable accumulator scratch for the p-stable projection kernels; see
/// [`crate::SrpScratch`] for the ownership contract.
#[derive(Debug, Clone, Default)]
pub struct E2lshScratch {
    acc: Vec<f64>,
}

impl E2lshScratch {
    /// A fresh scratch; buffers are grown on first use and reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A lazily-grown bank of p-stable quantized projections with `u32` bucket
/// outputs.
///
/// Projection `i` is generated deterministically from `(seed, i)`, so two
/// hashers with the same `(dim, seed, r)` produce identical hash streams
/// regardless of the order in which projections were first demanded.
#[derive(Debug, Clone)]
pub struct E2lshHasher {
    dim: u32,
    seed: u64,
    /// Bucket width `r` of `h(x) = ⌊(a·x + b)/r⌋`.
    r: f64,
    /// Feature-major component bank: `bank[f·stride + i]`.
    bank: Vec<f32>,
    /// Per-projection uniform offsets, in units of `r` (`b/r ∈ [0, 1)`).
    offsets: Vec<f64>,
    /// Row width of the bank (projection capacity); grows geometrically.
    stride: usize,
    /// Total component draws, for memory/throughput accounting.
    components_generated: u64,
    /// Reusable accumulator for the `&mut self` hashing paths.
    scratch: E2lshScratch,
}

impl E2lshHasher {
    /// A hasher over a `dim`-dimensional space with bucket width `r`.
    ///
    /// # Panics
    ///
    /// Panics unless `r` is finite and positive.
    pub fn new(dim: u32, seed: u64, r: f64) -> Self {
        assert!(r.is_finite() && r > 0.0, "E2LSH bucket width must be > 0");
        Self {
            dim,
            seed,
            r,
            bank: Vec::new(),
            offsets: Vec::new(),
            stride: 0,
            components_generated: 0,
            scratch: E2lshScratch::new(),
        }
    }

    /// Dimensionality of the input space.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Bucket width `r`.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// Number of projections materialized so far.
    pub fn functions_ready(&self) -> usize {
        self.offsets.len()
    }

    /// Grow every feature row to at least `need` projection slots,
    /// relocating the filled prefixes (geometric growth, like the SRP bank).
    fn grow_stride(&mut self, need: usize) {
        if need <= self.stride {
            return;
        }
        let mut stride = self.stride.max(64);
        while stride < need {
            stride *= 2;
        }
        let dim = self.dim as usize;
        let filled = self.offsets.len();
        let mut grown = vec![0.0f32; dim * stride];
        if filled > 0 {
            for f in 0..dim {
                grown[f * stride..f * stride + filled]
                    .copy_from_slice(&self.bank[f * self.stride..f * self.stride + filled]);
            }
        }
        self.bank = grown;
        self.stride = stride;
    }

    /// Scatter one generated projection (a `dim`-length column) into slot
    /// `index` of every feature row.
    fn scatter(&mut self, index: usize, components: &[f32]) {
        let stride = self.stride;
        for (f, &c) in components.iter().enumerate() {
            self.bank[f * stride + index] = c;
        }
    }

    /// Materialize projections `0..n`.
    pub fn ensure_functions(&mut self, n: usize) {
        if n <= self.offsets.len() {
            return;
        }
        self.grow_stride(n);
        for index in self.offsets.len()..n {
            let (components, offset) = generate_projection(self.dim, self.seed, index);
            self.scatter(index, &components);
            self.offsets.push(offset);
            self.components_generated += self.dim as u64;
        }
    }

    /// Materialize projections `0..n` with up to `threads` workers.
    /// Projection `i` is a pure function of `(seed, i)`, so the result is
    /// identical to [`E2lshHasher::ensure_functions`] whatever the thread
    /// count.
    pub fn ensure_functions_par(&mut self, n: usize, threads: usize) {
        let ready = self.offsets.len();
        if ready >= n {
            return;
        }
        self.grow_stride(n);
        let missing = n - ready;
        let (dim, seed) = (self.dim, self.seed);
        let columns = fan_out(missing, threads, |_, range| {
            range
                .map(|off| generate_projection(dim, seed, ready + off))
                .collect::<Vec<_>>()
        });
        for (off, (components, offset)) in columns.into_iter().flatten().enumerate() {
            self.scatter(ready + off, &components);
            debug_assert_eq!(self.offsets.len(), ready + off);
            self.offsets.push(offset);
        }
        self.components_generated += missing as u64 * dim as u64;
    }

    /// Bucket of projection `i` against `v` (materializing if needed).
    pub fn hash(&mut self, i: usize, v: &SparseVector) -> u32 {
        self.ensure_functions(i + 1);
        self.hash_ready(i, v)
    }

    /// Bucket of projection `i` against `v` without materialization — a
    /// per-slot gather; prefer the range kernels anywhere more than one
    /// hash is needed.
    ///
    /// # Panics
    ///
    /// Panics if projection `i` has not been materialized.
    pub fn hash_ready(&self, i: usize, v: &SparseVector) -> u32 {
        assert!(i < self.offsets.len(), "projection {i} not materialized");
        let stride = self.stride;
        let mut acc = 0.0f64;
        for (idx, val) in v.iter() {
            acc += self.bank[idx as usize * stride + i] as f64 * val as f64;
        }
        bucket(acc, 1.0 / self.r, self.offsets[i])
    }

    /// The feature-major projection kernel: one pass over `v`'s nonzeros
    /// accumulating `acc[j] = dot(a_{lo+j}, v)` for every `j < hi − lo` at
    /// once; per slot the `f64` terms are added in exactly the per-slot
    /// scalar path's (index) order, making every bucket identical to that
    /// path.
    fn project_ready(&self, v: &SparseVector, lo: u32, hi: u32, acc: &mut [f64]) {
        let (lo, hi) = (lo as usize, hi as usize);
        // Real assert: the geometrically-grown bank has zero-filled slots
        // past the materialized prefix, so an unmaterialized range would
        // read garbage silently (see `SrpHasher::project_ready`).
        assert!(
            hi <= self.offsets.len(),
            "projections not materialized to {hi}"
        );
        debug_assert_eq!(acc.len(), hi - lo);
        acc.fill(0.0);
        let stride = self.stride;
        for (idx, val) in v.iter() {
            let base = idx as usize * stride;
            let row = &self.bank[base + lo..base + hi];
            let val = val as f64;
            for (a, &c) in acc.iter_mut().zip(row) {
                *a += c as f64 * val;
            }
        }
    }

    /// Compute buckets `lo..hi` for `v`, appending to `out` (whose length
    /// must be `lo`). The pass reuses the hasher's internal scratch, so
    /// steady-state calls perform no heap allocation beyond the signature's
    /// own growth.
    pub fn hash_range_into(&mut self, v: &SparseVector, lo: u32, hi: u32, out: &mut Vec<u32>) {
        debug_assert_eq!(out.len(), lo as usize);
        if lo >= hi {
            return;
        }
        self.ensure_functions(hi as usize);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.acc.resize((hi - lo) as usize, 0.0);
        self.project_ready(v, lo, hi, &mut scratch.acc);
        let inv_r = 1.0 / self.r;
        let offsets = &self.offsets[lo as usize..hi as usize];
        out.extend(
            scratch
                .acc
                .iter()
                .zip(offsets)
                .map(|(&a, &b)| bucket(a, inv_r, b)),
        );
        self.scratch = scratch;
    }

    /// Compute buckets `lo..hi` for `v` into a fresh buffer — the read-only
    /// building block parallel hashing splices from. Projections must
    /// already be materialized to `hi`; values are identical to what
    /// [`E2lshHasher::hash_range_into`] appends for the same range.
    pub fn hash_range_packed(&self, v: &SparseVector, lo: u32, hi: u32) -> Vec<u32> {
        let mut scratch = E2lshScratch::new();
        self.hash_range_packed_with(v, lo, hi, &mut scratch)
    }

    /// [`E2lshHasher::hash_range_packed`] with a caller-owned scratch, so
    /// parallel workers hashing many signatures reuse one accumulator
    /// instead of allocating per call.
    pub fn hash_range_packed_with(
        &self,
        v: &SparseVector,
        lo: u32,
        hi: u32,
        scratch: &mut E2lshScratch,
    ) -> Vec<u32> {
        if lo >= hi {
            return Vec::new();
        }
        scratch.acc.resize((hi - lo) as usize, 0.0);
        self.project_ready(v, lo, hi, &mut scratch.acc);
        let inv_r = 1.0 / self.r;
        let offsets = &self.offsets[lo as usize..hi as usize];
        scratch
            .acc
            .iter()
            .zip(offsets)
            .map(|(&a, &b)| bucket(a, inv_r, b))
            .collect()
    }

    /// Total Gaussian components generated (throughput accounting).
    pub fn components_generated(&self) -> u64 {
        self.components_generated
    }

    /// Serialize the hasher for an index snapshot. The bank is **not**
    /// written: every projection is a pure function of `(seed, index)`, so
    /// the snapshot stores only `(dim, seed, r, functions)` and
    /// [`E2lshHasher::read_wire`] rematerializes an identical bank.
    pub fn write_wire<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        w.put_u32(self.dim)?;
        w.put_u64(self.seed)?;
        w.put_f64(self.r)?;
        w.put_u64(self.offsets.len() as u64)?;
        Ok(())
    }

    /// Deserialize a hasher written by [`E2lshHasher::write_wire`],
    /// regenerating at most `min(recorded, max_functions)` projections with
    /// up to `threads` workers. The clamp bounds regeneration by what the
    /// caller can justify instead of the payload's bare count (see
    /// [`crate::SrpHasher::read_wire`]); a non-positive or non-finite
    /// recorded bucket width is rejected as corrupt.
    pub fn read_wire<R: std::io::Read>(
        r: &mut WireReader<R>,
        threads: usize,
        max_functions: usize,
    ) -> Result<Self, WireError> {
        let dim = r.get_u32()?;
        let seed = r.get_u64()?;
        let width = r.get_f64()?;
        if !(width.is_finite() && width > 0.0) {
            return Err(WireError::corrupt(format!(
                "invalid E2LSH bucket width {width}"
            )));
        }
        let functions = r.get_u64()?;
        let mut h = Self::new(dim, seed, width);
        h.ensure_functions_par(functions.min(max_functions as u64) as usize, threads);
        Ok(h)
    }
}

/// Integer bucket signatures from p-stable quantized projections (L2): the
/// generic [`Signatures`] pool over an [`E2lshHasher`], one bucket per
/// stored word, counted by the same integer-agreement kernel as minhash.
pub type ProjSignatures = Signatures<E2lshHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::e2lsh_collision_at_distance;
    use bayeslsh_sparse::l2_distance;

    fn random_dense_vector(dim: u32, rng: &mut Xoshiro256) -> SparseVector {
        let pairs: Vec<(u32, f32)> = (0..dim)
            .map(|i| (i, (rng.next_f64() * 2.0 - 1.0) as f32))
            .collect();
        SparseVector::from_pairs(pairs)
    }

    /// The projection-major scalar oracle: regenerate projection `i` as a
    /// column and accumulate one `f64` dot product over the nonzeros.
    fn oracle_hash(dim: u32, seed: u64, r: f64, i: usize, v: &SparseVector) -> u32 {
        let (components, offset) = generate_projection(dim, seed, i);
        let mut acc = 0.0f64;
        for (idx, val) in v.iter() {
            acc += components[idx as usize] as f64 * val as f64;
        }
        ((acc / r + offset).floor() as i64) as u32
    }

    #[test]
    fn collision_rate_matches_model() {
        // Empirical check of the Datar et al. closed form with 4000
        // projections, at several distances around the bucket width.
        let mut rng = Xoshiro256::seed_from_u64(61);
        let dim = 48u32;
        let r = 2.0;
        let mut hasher = E2lshHasher::new(dim, 17, r);
        for trial in 0..4 {
            let x = random_dense_vector(dim, &mut rng);
            let y = random_dense_vector(dim, &mut rng);
            let d = l2_distance(&x, &y);
            let expected = e2lsh_collision_at_distance(d, r);
            let n = 4000usize;
            let agree = (0..n)
                .filter(|&i| hasher.hash(i, &x) == hasher.hash(i, &y))
                .count();
            let observed = agree as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.03,
                "trial {trial}: d={d} observed {observed} expected {expected}"
            );
        }
    }

    #[test]
    fn identical_vectors_always_collide() {
        let mut rng = Xoshiro256::seed_from_u64(62);
        let mut hasher = E2lshHasher::new(32, 9, 1.0);
        let x = random_dense_vector(32, &mut rng);
        for i in 0..512 {
            assert_eq!(hasher.hash(i, &x), hasher.hash(i, &x));
        }
    }

    #[test]
    fn deterministic_across_instances_and_demand_order() {
        let x = SparseVector::from_pairs(vec![(3, 1.0), (17, -0.5), (29, 2.0)]);
        let mut h1 = E2lshHasher::new(32, 1234, 0.75);
        let mut h2 = E2lshHasher::new(32, 1234, 0.75);
        let vals1: Vec<u32> = (0..128).map(|i| h1.hash(i, &x)).collect();
        h2.ensure_functions(128);
        let vals2: Vec<u32> = (0..128).map(|i| h2.hash(i, &x)).collect();
        assert_eq!(vals1, vals2);
    }

    #[test]
    fn range_kernel_matches_scalar_oracle() {
        // Extension patterns exercising bank growth and odd boundaries.
        let mut rng = Xoshiro256::seed_from_u64(63);
        let x = random_dense_vector(40, &mut rng);
        let mut h = E2lshHasher::new(40, 91, 3.0);
        let mut out = Vec::new();
        for &(lo, hi) in &[(0u32, 30u32), (30, 64), (64, 200), (200, 513)] {
            h.hash_range_into(&x, lo, hi, &mut out);
        }
        assert_eq!(out.len(), 513);
        for (i, &got) in out.iter().enumerate() {
            let want = oracle_hash(40, 91, 3.0, i, &x);
            assert_eq!(got, want, "hash {i}");
            assert_eq!(h.hash_ready(i, &x), want, "ready hash {i}");
        }
    }

    #[test]
    fn packed_range_matches_appended_with_shared_scratch() {
        let mut rng = Xoshiro256::seed_from_u64(64);
        let x = random_dense_vector(24, &mut rng);
        let mut h = E2lshHasher::new(24, 88, 1.5);
        let mut appended = Vec::new();
        h.hash_range_into(&x, 0, 96, &mut appended);
        let mut scratch = E2lshScratch::new();
        let mut spliced = Vec::new();
        for (lo, hi) in [(0u32, 40u32), (40, 64), (64, 96)] {
            spliced.extend(h.hash_range_packed_with(&x, lo, hi, &mut scratch));
        }
        assert_eq!(appended, spliced);
        assert_eq!(h.hash_range_packed(&x, 0, 96), spliced);
    }

    #[test]
    fn parallel_materialization_matches_serial() {
        let x = SparseVector::from_pairs(vec![(2, 1.0), (9, -0.75), (31, 0.5)]);
        let mut serial = E2lshHasher::new(48, 909, 2.0);
        serial.ensure_functions(200);
        for threads in [1usize, 2, 4, 8] {
            let mut par = E2lshHasher::new(48, 909, 2.0);
            par.ensure_functions_par(64, threads);
            par.ensure_functions_par(200, threads); // extend an existing bank
            assert_eq!(par.functions_ready(), 200);
            assert_eq!(par.components_generated(), serial.components_generated());
            for i in 0..200 {
                assert_eq!(
                    par.hash_ready(i, &x),
                    serial.hash_ready(i, &x),
                    "projection {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn wider_buckets_collide_more_often() {
        let mut rng = Xoshiro256::seed_from_u64(65);
        let x = random_dense_vector(32, &mut rng);
        let y = random_dense_vector(32, &mut rng);
        let mut narrow = E2lshHasher::new(32, 5, 0.25);
        let mut wide = E2lshHasher::new(32, 5, 8.0);
        let n = 1000;
        let agree_narrow = (0..n)
            .filter(|&i| narrow.hash(i, &x) == narrow.hash(i, &y))
            .count();
        let agree_wide = (0..n)
            .filter(|&i| wide.hash(i, &x) == wide.hash(i, &y))
            .count();
        assert!(
            agree_wide > agree_narrow,
            "wide {agree_wide} vs narrow {agree_narrow}"
        );
    }

    #[test]
    fn hasher_wire_round_trip() {
        let x = SparseVector::from_pairs(vec![(1, 0.7), (19, -1.1), (40, 0.4)]);
        let mut orig = E2lshHasher::new(48, 4711, 1.25);
        orig.ensure_functions(130);
        let mut w = WireWriter::new(Vec::new());
        orig.write_wire(&mut w).unwrap();
        let bytes = w.into_inner();
        for threads in [1usize, 4] {
            let mut r = WireReader::new(&bytes[..]);
            let back = E2lshHasher::read_wire(&mut r, threads, 130).unwrap();
            assert_eq!(r.bytes_read(), bytes.len() as u64);
            assert_eq!(back.dim(), orig.dim());
            assert_eq!(back.r(), orig.r());
            assert_eq!(back.functions_ready(), 130);
            for i in 0..130 {
                assert_eq!(back.hash_ready(i, &x), orig.hash_ready(i, &x));
            }
        }
        // The caller's clamp bounds regeneration.
        let clamped = E2lshHasher::read_wire(&mut WireReader::new(&bytes[..]), 1, 32).unwrap();
        assert_eq!(clamped.functions_ready(), 32);
        // A non-positive bucket width is a typed error.
        let mut w = WireWriter::new(Vec::new());
        w.put_u32(8).unwrap();
        w.put_u64(1).unwrap();
        w.put_f64(-1.0).unwrap();
        w.put_u64(0).unwrap();
        let bytes = w.into_inner();
        assert!(E2lshHasher::read_wire(&mut WireReader::new(&bytes[..]), 1, 64).is_err());
    }
}
