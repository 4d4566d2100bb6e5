//! Lazily extendable signature pools.
//!
//! BayesLSH compares hashes incrementally, `k` at a time, and most candidate
//! pairs are pruned after a handful of chunks — so most objects never need
//! deep signatures. A pool stores, per object, only as many hashes as some
//! surviving pair has demanded, and extends on request. This mirrors the
//! paper's observation that "outlying points ... need only be hashed a few
//! times".
//!
//! The pool is written once, as [`Signatures`], generic over a
//! [`PoolHasher`]; the per-family pools are aliases of it
//! ([`BitSignatures`], [`IntSignatures`], [`crate::ProjSignatures`]).

use bayeslsh_numeric::fan_out;
use bayeslsh_numeric::wire::{WireError, WireReader, WireWriter};
use bayeslsh_sparse::{Dataset, SparseVector};

use crate::e2lsh::{E2lshHasher, E2lshScratch};
use crate::minhash::{MinHasher, MinScratch};
use crate::srp::{SrpHasher, SrpScratch};

/// Word span and edge masks of a `lo..hi` bit range over packed 32-bit
/// words: the per-word mask computation is hoisted here once, so batched
/// counting sweeps candidates with nothing but XOR + popcount per word.
#[derive(Debug, Clone, Copy)]
struct BitSpan {
    start_w: usize,
    end_w: usize,
    first_mask: u32,
    last_mask: u32,
}

impl BitSpan {
    /// The span of `lo..hi`; `None` when the range is empty.
    fn new(lo: u32, hi: u32) -> Option<Self> {
        debug_assert!(lo <= hi);
        if lo == hi {
            return None;
        }
        let start_w = (lo / 32) as usize;
        let end_w = hi.div_ceil(32) as usize;
        let mut first_mask = u32::MAX << (lo % 32);
        let rem = hi - (end_w as u32 - 1) * 32;
        let mut last_mask = if rem < 32 {
            (1u32 << rem) - 1
        } else {
            u32::MAX
        };
        if start_w + 1 == end_w {
            // Single-word range: both edges land in the same mask.
            first_mask &= last_mask;
            last_mask = first_mask;
        }
        Some(Self {
            start_w,
            end_w,
            first_mask,
            last_mask,
        })
    }

    /// Count agreeing bits over this span between two word buffers.
    #[inline]
    fn count(&self, wa: &[u32], wb: &[u32]) -> u32 {
        debug_assert!(self.end_w <= wa.len() && self.end_w <= wb.len());
        let first = (wa[self.start_w] ^ wb[self.start_w]) & self.first_mask;
        let mut agree = self.first_mask.count_ones() - first.count_ones();
        if self.start_w + 1 == self.end_w {
            return agree;
        }
        // Whole middle words: pair them into u64 XOR + popcount.
        let mid_a = &wa[self.start_w + 1..self.end_w - 1];
        let mid_b = &wb[self.start_w + 1..self.end_w - 1];
        let mut pairs_a = mid_a.chunks_exact(2);
        let mut pairs_b = mid_b.chunks_exact(2);
        for (pa, pb) in pairs_a.by_ref().zip(pairs_b.by_ref()) {
            let x = (pa[0] ^ pb[0]) as u64 | (((pa[1] ^ pb[1]) as u64) << 32);
            agree += 64 - x.count_ones();
        }
        for (a, b) in pairs_a.remainder().iter().zip(pairs_b.remainder()) {
            agree += 32 - (a ^ b).count_ones();
        }
        let last = (wa[self.end_w - 1] ^ wb[self.end_w - 1]) & self.last_mask;
        agree + self.last_mask.count_ones() - last.count_ones()
    }
}

/// Count agreeing bits in positions `lo..hi` between two bit-packed
/// signatures (32 bits per word, LSB-first). Shared by [`BitSignatures`]
/// and callers comparing out-of-pool signatures (e.g. k-NN queries).
/// Word-parallel: whole words compare with XOR + popcount; only the two
/// edge words are masked.
pub fn count_bit_agreements(wa: &[u32], wb: &[u32], lo: u32, hi: u32) -> u32 {
    match BitSpan::new(lo, hi) {
        Some(span) => span.count(wa, wb),
        None => 0,
    }
}

/// Count agreeing bits in positions `lo..hi` between one probe signature
/// and each candidate signature in `batch`, appending one count per
/// candidate to `out` (cleared first). The word span and edge masks are
/// computed once and the probe words stay hot across the whole sweep, so
/// per candidate the cost is XOR + popcount per word — the batched
/// building block the BayesLSH verify engines run on.
pub fn count_bit_agreements_batched<'a, I>(
    probe: &[u32],
    batch: I,
    lo: u32,
    hi: u32,
    out: &mut Vec<u32>,
) where
    I: IntoIterator<Item = &'a [u32]>,
{
    out.clear();
    match BitSpan::new(lo, hi) {
        Some(span) => out.extend(batch.into_iter().map(|cand| span.count(probe, cand))),
        None => out.extend(batch.into_iter().map(|_| 0)),
    }
}

/// Count agreeing integer hashes in positions `lo..hi` between two minhash
/// signatures. Shared by [`IntSignatures`] and callers comparing
/// out-of-pool signatures (e.g. point queries against a standing corpus).
pub fn count_int_agreements(sa: &[u32], sb: &[u32], lo: u32, hi: u32) -> u32 {
    debug_assert!(lo <= hi);
    debug_assert!(hi as usize <= sa.len() && hi as usize <= sb.len());
    sa[lo as usize..hi as usize]
        .iter()
        .zip(&sb[lo as usize..hi as usize])
        .filter(|(x, y)| x == y)
        .count() as u32
}

/// Count agreeing integer hashes in positions `lo..hi` between one probe
/// signature and each candidate in `batch`, appending one count per
/// candidate to `out` (cleared first). The probe window is sliced once and
/// stays hot across the sweep; see [`count_bit_agreements_batched`] for
/// the batched contract.
pub fn count_int_agreements_batched<'a, I>(
    probe: &[u32],
    batch: I,
    lo: u32,
    hi: u32,
    out: &mut Vec<u32>,
) where
    I: IntoIterator<Item = &'a [u32]>,
{
    debug_assert!(lo <= hi);
    out.clear();
    let window = &probe[lo as usize..hi as usize];
    out.extend(batch.into_iter().map(|cand| {
        window
            .iter()
            .zip(&cand[lo as usize..hi as usize])
            .filter(|(x, y)| x == y)
            .count() as u32
    }));
}

/// Common interface over bit-valued (cosine) and integer-valued (Jaccard)
/// signature storage, as used by the BayesLSH engines.
pub trait SignaturePool {
    /// Extend object `id`'s signature to at least `n` hashes (a pool may
    /// round up to its storage granularity).
    fn ensure(&mut self, id: u32, v: &SparseVector, n: u32);

    /// Number of valid hashes currently stored for `id`.
    fn len(&self, id: u32) -> u32;

    /// Count agreeing hashes in positions `lo..hi` for objects `a` and `b`.
    /// Both signatures must already cover `hi`.
    fn agreements(&self, a: u32, b: u32, lo: u32, hi: u32) -> u32;

    /// Count agreeing hashes in positions `lo..hi` between probe object
    /// `a` and each object in `others`, appending one count per entry to
    /// `out` (cleared first). Semantically exactly
    /// `others.iter().map(|&b| self.agreements(a, b, lo, hi))`, but pools
    /// with packed layouts override it to hoist the probe signature and
    /// the range's edge masks out of the per-candidate loop — the batched
    /// sweep the verify engines run on. All signatures must already cover
    /// `hi`.
    fn agreements_batched(&self, a: u32, others: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(others.iter().map(|&b| self.agreements(a, b, lo, hi)));
    }

    /// Total hashes computed so far across all objects (cost accounting —
    /// the "hashing overhead" discussed in the paper's observation 3).
    fn total_hashes(&self) -> u64;

    /// Advise the pool of a signature depth that objects are *expected to
    /// reach*, so each object's first extension reserves its whole
    /// signature once instead of growing chunk by chunk. Only hint depths
    /// that are uniformly reached (fixed-`n` MLE verification, banding
    /// candidate generation, eager index builds): hinting a chunked
    /// Bayesian scan's *cap* would reserve many times the memory pruning
    /// actually lets most signatures use. Purely an allocation hint: pool
    /// contents and accounting are unaffected. Default: ignored.
    fn depth_hint(&mut self, n: u32) {
        let _ = n;
    }
}

/// First occurrence of each id in `ids`, in order — parallel extension
/// must process an id exactly once (two workers splicing the same slot
/// would append the range twice).
fn dedup_ids(ids: &[u32]) -> impl Iterator<Item = u32> + '_ {
    let mut seen = std::collections::HashSet::with_capacity(ids.len());
    ids.iter().copied().filter(move |&id| seen.insert(id))
}

/// What a [`Signatures`] pool needs from its hash family: how hashes are
/// stored, how the hash-function bank grows, range hashing, agreement
/// counting over stored words, and the hasher's snapshot header.
///
/// Every hash is a pure function of `(seed, position, vector)`, so the
/// `&mut self` and `&self` range paths, and bank growth at any thread
/// count, produce identical words.
pub trait PoolHasher: Sized + Sync {
    /// Hashes stored per `u32` word: 32 for packed sign bits, 1 for
    /// integer hashes. Signatures grow in whole words, so every stored
    /// depth is a multiple of this.
    const PER_WORD: u32;

    /// Per-worker scratch for [`PoolHasher::hash_range`].
    type Scratch: Default;

    /// Number of hash functions materialized so far.
    fn bank_len(&self) -> usize;

    /// Materialize hash functions `0..n` with up to `threads` workers.
    fn grow_bank(&mut self, n: usize, threads: usize);

    /// Append hashes `lo..hi` of `v` to the stored words `out` (which
    /// hold exactly hashes `0..lo`), materializing functions as needed.
    fn hash_append(&mut self, v: &SparseVector, lo: u32, hi: u32, out: &mut Vec<u32>);

    /// Hashes `lo..hi` of `v` as fresh stored words, through `&self`:
    /// the range is word-aligned and the bank already covers `hi`.
    fn hash_range(
        &self,
        v: &SparseVector,
        lo: u32,
        hi: u32,
        scratch: &mut Self::Scratch,
    ) -> Vec<u32>;

    /// Count agreeing hashes in positions `lo..hi` of two stored
    /// signatures.
    fn count(a: &[u32], b: &[u32], lo: u32, hi: u32) -> u32;

    /// [`PoolHasher::count`] of `probe` against each signature in
    /// `batch`, one count per entry into `out` (cleared first).
    fn count_batched<'a, I>(probe: &[u32], batch: I, lo: u32, hi: u32, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a [u32]>;

    /// Write the hasher's snapshot header (its seed and shape, never the
    /// bank itself).
    fn write_header<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError>;

    /// Read a header written by [`PoolHasher::write_header`],
    /// materializing at most `max_functions` functions with up to
    /// `threads` workers.
    fn read_header<R: std::io::Read>(
        r: &mut WireReader<R>,
        threads: usize,
        max_functions: usize,
    ) -> Result<Self, WireError>;
}

impl PoolHasher for SrpHasher {
    const PER_WORD: u32 = 32;
    type Scratch = SrpScratch;

    fn bank_len(&self) -> usize {
        self.planes_ready()
    }

    fn grow_bank(&mut self, n: usize, threads: usize) {
        self.ensure_planes_par(n, threads);
    }

    fn hash_append(&mut self, v: &SparseVector, lo: u32, hi: u32, out: &mut Vec<u32>) {
        self.hash_bits_into(v, lo, hi, out);
    }

    fn hash_range(&self, v: &SparseVector, lo: u32, hi: u32, scratch: &mut SrpScratch) -> Vec<u32> {
        self.hash_bits_packed_with(v, lo, hi, scratch)
    }

    fn count(a: &[u32], b: &[u32], lo: u32, hi: u32) -> u32 {
        count_bit_agreements(a, b, lo, hi)
    }

    fn count_batched<'a, I>(probe: &[u32], batch: I, lo: u32, hi: u32, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        count_bit_agreements_batched(probe, batch, lo, hi, out);
    }

    fn write_header<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        self.write_wire(w)
    }

    fn read_header<R: std::io::Read>(
        r: &mut WireReader<R>,
        threads: usize,
        max_functions: usize,
    ) -> Result<Self, WireError> {
        Self::read_wire(r, threads, max_functions)
    }
}

impl PoolHasher for MinHasher {
    const PER_WORD: u32 = 1;
    type Scratch = MinScratch;

    fn bank_len(&self) -> usize {
        self.functions_ready()
    }

    /// Minhash functions are two keys each, so the bank grows serially.
    fn grow_bank(&mut self, n: usize, _threads: usize) {
        self.ensure_functions(n);
    }

    fn hash_append(&mut self, v: &SparseVector, lo: u32, hi: u32, out: &mut Vec<u32>) {
        self.hash_range_into(v, lo, hi, out);
    }

    fn hash_range(&self, v: &SparseVector, lo: u32, hi: u32, scratch: &mut MinScratch) -> Vec<u32> {
        self.hash_range_packed_with(v, lo, hi, scratch)
    }

    fn count(a: &[u32], b: &[u32], lo: u32, hi: u32) -> u32 {
        count_int_agreements(a, b, lo, hi)
    }

    fn count_batched<'a, I>(probe: &[u32], batch: I, lo: u32, hi: u32, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        count_int_agreements_batched(probe, batch, lo, hi, out);
    }

    fn write_header<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        self.write_wire(w)
    }

    fn read_header<R: std::io::Read>(
        r: &mut WireReader<R>,
        _threads: usize,
        max_functions: usize,
    ) -> Result<Self, WireError> {
        Self::read_wire(r, max_functions)
    }
}

impl PoolHasher for E2lshHasher {
    const PER_WORD: u32 = 1;
    type Scratch = E2lshScratch;

    fn bank_len(&self) -> usize {
        self.functions_ready()
    }

    fn grow_bank(&mut self, n: usize, threads: usize) {
        self.ensure_functions_par(n, threads);
    }

    fn hash_append(&mut self, v: &SparseVector, lo: u32, hi: u32, out: &mut Vec<u32>) {
        self.hash_range_into(v, lo, hi, out);
    }

    fn hash_range(
        &self,
        v: &SparseVector,
        lo: u32,
        hi: u32,
        scratch: &mut E2lshScratch,
    ) -> Vec<u32> {
        self.hash_range_packed_with(v, lo, hi, scratch)
    }

    fn count(a: &[u32], b: &[u32], lo: u32, hi: u32) -> u32 {
        count_int_agreements(a, b, lo, hi)
    }

    fn count_batched<'a, I>(probe: &[u32], batch: I, lo: u32, hi: u32, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        count_int_agreements_batched(probe, batch, lo, hi, out);
    }

    fn write_header<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        self.write_wire(w)
    }

    fn read_header<R: std::io::Read>(
        r: &mut WireReader<R>,
        threads: usize,
        max_functions: usize,
    ) -> Result<Self, WireError> {
        Self::read_wire(r, threads, max_functions)
    }
}

/// A lazily extendable signature pool over any [`PoolHasher`]: per
/// object, the stored words of its signature, hashed only as deep as some
/// caller has demanded. Depths grow in whole words
/// ([`PoolHasher::PER_WORD`] hashes each).
#[derive(Debug, Clone)]
pub struct Signatures<H> {
    hasher: H,
    sigs: Vec<Vec<u32>>,
    total: u64,
    /// Depth hint (hashes, word-rounded) for up-front signature
    /// reservation.
    hint: u32,
}

/// Bit signatures from signed random projections, packed 32 per word.
pub type BitSignatures = Signatures<SrpHasher>;

/// Integer signatures from minwise hashing.
pub type IntSignatures = Signatures<MinHasher>;

impl<H: PoolHasher> Signatures<H> {
    /// A pool for `n_objects` objects hashing through `hasher`.
    pub fn new(hasher: H, n_objects: usize) -> Self {
        Self {
            hasher,
            sigs: vec![Vec::new(); n_objects],
            total: 0,
            hint: 0,
        }
    }

    /// `n` rounded up to whole stored words.
    fn round(n: u32) -> u32 {
        n.div_ceil(H::PER_WORD) * H::PER_WORD
    }

    /// The stored words of `id`'s signature: packed sign bits (32 per
    /// word, LSB-first) for SRP, one hash per word otherwise.
    pub fn raw(&self, id: u32) -> &[u32] {
        &self.sigs[id as usize]
    }

    /// Number of object slots the pool holds (hashed or not).
    pub fn n_objects(&self) -> usize {
        self.sigs.len()
    }

    /// Borrow the underlying hasher (e.g. for its dimension or plane
    /// memory).
    pub fn hasher(&self) -> &H {
        &self.hasher
    }

    /// Hash an out-of-pool vector (e.g. an ad-hoc query) through the same
    /// hash-function bank, extending `out` with hashes `lo..hi` (rounded
    /// up to whole words). The caller owns the returned signature;
    /// comparisons against pool members go through
    /// [`Signatures::external_agreements`]. External hashes are not
    /// counted in [`SignaturePool::total_hashes`], which tracks corpus
    /// signatures only.
    pub fn hash_external(&mut self, v: &SparseVector, lo: u32, hi: u32, out: &mut Vec<u32>) {
        self.hasher.hash_append(v, lo, Self::round(hi), out);
    }

    /// Make room for objects `0..n_objects`, keeping existing signatures.
    /// Supports corpora that grow after pool construction (incremental
    /// insertion into a standing index).
    pub fn grow_to(&mut self, n_objects: usize) {
        if self.sigs.len() < n_objects {
            self.sigs.resize(n_objects, Vec::new());
        }
    }

    /// Hashes `lo..hi` of `v` (a word-aligned range, bank ready) with the
    /// range split word-aligned across up to `threads` workers.
    fn hash_split(&self, v: &SparseVector, lo: u32, hi: u32, threads: usize) -> Vec<u32> {
        let per = H::PER_WORD;
        let chunks = fan_out(((hi - lo) / per) as usize, threads, |_, r| {
            let mut scratch = H::Scratch::default();
            let (a, b) = (lo + per * r.start as u32, lo + per * r.end as u32);
            self.hasher.hash_range(v, a, b, &mut scratch)
        });
        chunks.concat()
    }

    /// Extend the signatures of `ids` to at least `n` hashes with up to
    /// `threads` workers: the id list is chunked, each chunk hashed
    /// per-thread through the shared (read-only, pre-materialized) bank,
    /// and the buffers spliced back into the pool in index order. Pool
    /// state afterwards is identical to calling
    /// [`SignaturePool::ensure`] for each id serially (duplicate ids in
    /// the list are extended once, like repeated `ensure` calls). A single
    /// id with a deep target (e.g. an insert) is instead split across its
    /// word range, so even one-object extensions fan out.
    pub fn par_ensure_ids(&mut self, data: &Dataset, ids: &[u32], n: u32, threads: usize) {
        let target = Self::round(n);
        self.grow_to(data.len());
        let work: Vec<(u32, u32)> = dedup_ids(ids)
            .map(|id| (id, self.len(id)))
            .filter(|&(_, cur)| cur < target)
            .collect();
        if work.is_empty() {
            return;
        }
        self.hasher.grow_bank(target as usize, threads);
        let bufs: Vec<Vec<u32>> = if let [(id, cur)] = work[..] {
            vec![self.hash_split(data.vector(id), cur, target, threads)]
        } else {
            let (hasher, work) = (&self.hasher, &work);
            let chunks = fan_out(work.len(), threads, |_, r| {
                // One scratch per worker, reused across its ids.
                let mut scratch = H::Scratch::default();
                work[r]
                    .iter()
                    .map(|&(id, cur)| hasher.hash_range(data.vector(id), cur, target, &mut scratch))
                    .collect::<Vec<_>>()
            });
            chunks.into_iter().flatten().collect()
        };
        for (&(id, cur), buf) in work.iter().zip(bufs) {
            self.sigs[id as usize].extend(buf);
            self.total += (target - cur) as u64;
        }
    }

    /// Serialize the pool (hasher header + every signature) for an index
    /// snapshot: per object its depth in hashes, then its stored words
    /// verbatim (so the loaded pool's comparisons are bit-identical), then
    /// the hash accounting. The hasher's bank is re-derived from its seed
    /// on load.
    pub fn write_wire<W: std::io::Write>(&self, w: &mut WireWriter<W>) -> Result<(), WireError> {
        self.hasher.write_header(w)?;
        w.put_u64(self.sigs.len() as u64)?;
        for words in &self.sigs {
            w.put_u32(words.len() as u32 * H::PER_WORD)?;
            for &word in words {
                w.put_u32(word)?;
            }
        }
        w.put_u64(self.total)
    }

    /// Deserialize a pool written by [`Signatures::write_wire`],
    /// rematerializing the hasher's bank with up to `threads` workers. A
    /// depth that is not a whole number of words, or hash accounting that
    /// disagrees with the stored depths, is rejected as
    /// [`WireError::Corrupt`].
    ///
    /// Bank regeneration is bounded by `max(deepest stored signature,
    /// depth_hint)`, never by the header's recorded bank size alone: the
    /// stored signatures physically occupy wire bytes, and the hint is
    /// something the caller has validated (the snapshot loader passes the
    /// build depth it recomputed from the config) — so a crafted count
    /// cannot make loading allocate or compute unboundedly. Any
    /// legitimately deeper functions regenerate lazily, identically.
    pub fn read_wire<R: std::io::Read>(
        r: &mut WireReader<R>,
        threads: usize,
        depth_hint: u32,
    ) -> Result<Self, WireError> {
        let mut hasher = H::read_header(r, threads, depth_hint as usize)?;
        let n = r.get_u64()?;
        let mut sigs = Vec::with_capacity(n.min(65_536) as usize);
        let mut sum = 0u64;
        let mut deepest = 0u32;
        for slot in 0..n {
            let depth = r.get_u32()?;
            if depth % H::PER_WORD != 0 {
                return Err(WireError::corrupt(format!(
                    "signature {slot} has non-word-aligned depth {depth}"
                )));
            }
            let words = depth / H::PER_WORD;
            let mut sig = Vec::with_capacity((words as usize).min(65_536));
            for _ in 0..words {
                sig.push(r.get_u32()?);
            }
            sum += depth as u64;
            deepest = deepest.max(depth);
            sigs.push(sig);
        }
        let total = r.get_u64()?;
        if total != sum {
            return Err(WireError::corrupt(format!(
                "hash accounting {total} disagrees with stored depths {sum}"
            )));
        }
        // Lazily-deepened signatures can outrun the build depth; their
        // words are physically present above, so this warm-up is bounded
        // by the payload size.
        hasher.grow_bank(deepest as usize, threads);
        Ok(Self {
            hasher,
            sigs,
            total,
            hint: 0,
        })
    }

    /// Hash an out-of-pool vector to `n` hashes (rounded up to whole
    /// words) with up to `threads` workers, splitting the hash range
    /// word-aligned. Identical to [`Signatures::hash_external`] over
    /// `0..n`.
    pub fn hash_external_par(&mut self, v: &SparseVector, n: u32, threads: usize) -> Vec<u32> {
        self.prepare_external(n, threads);
        self.hash_external_ready(v, n, threads)
    }

    /// Whether [`Signatures::hash_external_ready`] can serve `n` hashes
    /// right now — i.e. the bank already covers the word-rounded target,
    /// so hashing needs no `&mut self`.
    pub fn external_ready(&self, n: u32) -> bool {
        self.hasher.bank_len() >= Self::round(n) as usize
    }

    /// Materialize the bank for `n`-hash external hashing up front, so
    /// subsequent [`Signatures::hash_external_ready`] calls work through
    /// `&self` (the shared-reader serving path).
    pub fn prepare_external(&mut self, n: u32, threads: usize) {
        self.hasher.grow_bank(Self::round(n) as usize, threads);
    }

    /// Read-only external hashing: identical output to
    /// [`Signatures::hash_external_par`], but through `&self`. The bank
    /// must already cover `n` ([`Signatures::external_ready`]); many
    /// reader threads may call this concurrently.
    pub fn hash_external_ready(&self, v: &SparseVector, n: u32, threads: usize) -> Vec<u32> {
        debug_assert!(self.external_ready(n), "hash-function bank not prepared");
        self.hash_split(v, 0, Self::round(n), threads)
    }

    /// Count agreeing hashes in positions `lo..hi` between an external
    /// signature `sig` (from [`Signatures::hash_external`] or its
    /// parallel forms) and pool member `id`. Both must cover `hi`.
    pub fn external_agreements(&self, sig: &[u32], id: u32, lo: u32, hi: u32) -> u32 {
        debug_assert!(hi <= self.len(id), "{id} not hashed deep enough");
        H::count(sig, self.raw(id), lo, hi)
    }

    /// [`Signatures::external_agreements`] of `sig` against each pool
    /// member in `ids`, one count per id into `out` (cleared first). The
    /// probe and the range's edge masks stay hoisted across the sweep.
    pub fn external_agreements_batched(
        &self,
        sig: &[u32],
        ids: &[u32],
        lo: u32,
        hi: u32,
        out: &mut Vec<u32>,
    ) {
        let batch = ids.iter().map(|&id| {
            debug_assert!(hi <= self.len(id), "{id} not hashed deep enough");
            self.raw(id)
        });
        H::count_batched(sig, batch, lo, hi, out);
    }

    /// Drop object `id`'s signature and release its hashes from the cost
    /// accounting (compaction of removed objects). The slot stays valid and
    /// empty — identical to a never-hashed object — so the wire invariant
    /// `total == Σ stored depths` is preserved.
    pub fn clear(&mut self, id: u32) {
        self.total -= self.len(id) as u64;
        self.sigs[id as usize] = Vec::new();
    }
}

impl BitSignatures {
    /// Bit `i` of object `id`'s signature.
    pub fn bit(&self, id: u32, i: u32) -> bool {
        debug_assert!(i < self.len(id));
        (self.sigs[id as usize][(i / 32) as usize] >> (i % 32)) & 1 == 1
    }
}

impl<H: PoolHasher> SignaturePool for Signatures<H> {
    fn ensure(&mut self, id: u32, v: &SparseVector, n: u32) {
        let cur = self.len(id);
        let target = Self::round(n);
        if target <= cur {
            return;
        }
        let slot = &mut self.sigs[id as usize];
        if cur == 0 && slot.capacity() == 0 && self.hint > target {
            // First extension: allocate the advised full depth once.
            slot.reserve_exact((self.hint / H::PER_WORD) as usize);
        }
        self.hasher.hash_append(v, cur, target, slot);
        self.total += (target - cur) as u64;
    }

    fn len(&self, id: u32) -> u32 {
        self.sigs[id as usize].len() as u32 * H::PER_WORD
    }

    fn agreements(&self, a: u32, b: u32, lo: u32, hi: u32) -> u32 {
        debug_assert!(hi <= self.len(a), "a not hashed deep enough");
        self.external_agreements(self.raw(a), b, lo, hi)
    }

    fn agreements_batched(&self, a: u32, others: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) {
        debug_assert!(hi <= self.len(a), "a not hashed deep enough");
        self.external_agreements_batched(self.raw(a), others, lo, hi, out);
    }

    fn total_hashes(&self) -> u64 {
        self.total
    }

    fn depth_hint(&mut self, n: u32) {
        self.hint = self.hint.max(Self::round(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayeslsh_numeric::Xoshiro256;
    use proptest::prelude::*;

    fn vecs(n: usize, dim: u32, len: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let pairs: Vec<(u32, f32)> = (0..len)
                    .map(|_| {
                        (
                            rng.next_below(dim as u64) as u32,
                            (rng.next_f64() + 0.1) as f32,
                        )
                    })
                    .collect();
                SparseVector::from_pairs(pairs)
            })
            .collect()
    }

    fn dataset(n: usize, dim: u32, len: usize, seed: u64) -> Dataset {
        let mut data = Dataset::new(dim);
        for v in vecs(n, dim, len, seed) {
            data.push(v);
        }
        data
    }

    /// Hash `i` of a stored signature: one bit of a packed word for SRP,
    /// one whole word otherwise.
    fn slot<H: PoolHasher>(raw: &[u32], i: u32) -> u32 {
        if H::PER_WORD == 32 {
            (raw[(i / 32) as usize] >> (i % 32)) & 1
        } else {
            raw[i as usize]
        }
    }

    /// Run the generic pool property `$check` once per hash family, each
    /// hasher built from `(dim, seed)`.
    macro_rules! for_each_hasher {
        ($check:ident) => {{
            $check(|dim, seed| SrpHasher::new(dim, seed));
            $check(|_, seed| MinHasher::new(seed));
            $check(|dim, seed| E2lshHasher::new(dim, seed, 2.0));
        }};
    }

    #[test]
    fn bit_pool_rounds_to_words_and_is_lazy() {
        let vs = vecs(3, 100, 10, 1);
        let mut pool = BitSignatures::new(SrpHasher::new(100, 2), 3);
        assert_eq!(pool.len(0), 0);
        pool.ensure(0, &vs[0], 33);
        assert_eq!(pool.len(0), 64);
        assert_eq!(pool.len(1), 0);
        assert_eq!(pool.total_hashes(), 64);
        // Re-ensuring below current depth is a no-op.
        pool.ensure(0, &vs[0], 10);
        assert_eq!(pool.total_hashes(), 64);
    }

    #[test]
    fn bit_agreements_match_naive_count() {
        let vs = vecs(2, 200, 30, 3);
        let mut pool = BitSignatures::new(SrpHasher::new(200, 4), 2);
        pool.ensure(0, &vs[0], 256);
        pool.ensure(1, &vs[1], 256);
        for &(lo, hi) in &[
            (0u32, 256u32),
            (0, 32),
            (32, 64),
            (5, 37),
            (100, 101),
            (17, 255),
            (9, 9),
        ] {
            let naive = (lo..hi)
                .filter(|&i| pool.bit(0, i) == pool.bit(1, i))
                .count() as u32;
            assert_eq!(pool.agreements(0, 1, lo, hi), naive, "range {lo}..{hi}");
        }
    }

    #[test]
    fn bit_agreements_self_is_full_range() {
        let vs = vecs(1, 64, 10, 5);
        let mut pool = BitSignatures::new(SrpHasher::new(64, 5), 1);
        pool.ensure(0, &vs[0], 128);
        assert_eq!(pool.agreements(0, 0, 0, 128), 128);
        assert_eq!(pool.agreements(0, 0, 3, 90), 87);
    }

    #[test]
    fn bit_extension_preserves_prefix() {
        let vs = vecs(1, 128, 12, 6);
        let mut pool = BitSignatures::new(SrpHasher::new(128, 6), 1);
        pool.ensure(0, &vs[0], 64);
        let prefix: Vec<bool> = (0..64).map(|i| pool.bit(0, i)).collect();
        pool.ensure(0, &vs[0], 512);
        let after: Vec<bool> = (0..64).map(|i| pool.bit(0, i)).collect();
        assert_eq!(prefix, after);
        assert_eq!(pool.len(0), 512);
    }

    #[test]
    fn int_pool_basics() {
        let a = SparseVector::from_indices(vec![1, 2, 3]);
        let b = SparseVector::from_indices(vec![2, 3, 4]);
        let mut pool = IntSignatures::new(MinHasher::new(10), 2);
        pool.ensure(0, &a, 100);
        pool.ensure(1, &b, 100);
        assert_eq!(pool.len(0), 100);
        assert_eq!(pool.agreements(0, 0, 0, 100), 100);
        let agree = pool.agreements(0, 1, 0, 100);
        // J(a, b) = 0.5 → expect ~50 agreements.
        assert!((30..=70).contains(&agree), "agreements {agree}");
        assert_eq!(pool.total_hashes(), 200);
    }

    #[test]
    fn int_extension_preserves_prefix() {
        let a = SparseVector::from_indices(vec![7, 8, 9, 10]);
        let mut pool = IntSignatures::new(MinHasher::new(11), 1);
        pool.ensure(0, &a, 16);
        let prefix = pool.raw(0).to_vec();
        pool.ensure(0, &a, 64);
        assert_eq!(&pool.raw(0)[..16], &prefix[..]);
    }

    fn par_ensure_matches_serial<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        let data = dataset(9, 120, 12, 21);
        let mut serial = Signatures::new(make(120, 22), data.len());
        for (id, v) in data.iter() {
            serial.ensure(id, v, 96);
        }
        // Deepen a few, as lazy verification would.
        serial.ensure(3, data.vector(3), 256);
        serial.ensure(7, data.vector(7), 256);
        serial.ensure(2, data.vector(2), 300);
        for threads in [1usize, 2, 3, 4, 8] {
            let mut par = Signatures::new(make(120, 22), data.len());
            let ids: Vec<u32> = (0..data.len() as u32).collect();
            par.par_ensure_ids(&data, &ids, 96, threads);
            par.par_ensure_ids(&data, &[3, 7], 256, threads);
            // Single-id extension exercises the range-split path.
            par.par_ensure_ids(&data, &[2], 300, threads);
            assert_eq!(
                par.total_hashes(),
                serial.total_hashes(),
                "threads {threads}"
            );
            for id in 0..data.len() as u32 {
                assert_eq!(par.len(id), serial.len(id));
                assert_eq!(par.raw(id), serial.raw(id), "id {id} threads {threads}");
            }
        }
    }

    #[test]
    fn par_ensure_matches_serial_and_splits_single_ids() {
        for_each_hasher!(par_ensure_matches_serial);
    }

    fn duplicate_ids<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        let data = dataset(2, 64, 8, 77);
        let mut expect = Signatures::new(make(64, 78), data.len());
        expect.ensure(0, data.vector(0), 64);
        expect.ensure(1, data.vector(1), 64);
        for threads in [1usize, 4] {
            // Repeats collapsing to two ids (splice path) and to one id
            // (range-split path) must both behave like serial ensures.
            let mut pool = Signatures::new(make(64, 78), data.len());
            pool.par_ensure_ids(&data, &[0, 1, 0, 0, 1], 64, threads);
            assert_eq!(pool.raw(0), expect.raw(0));
            assert_eq!(pool.raw(1), expect.raw(1));
            assert_eq!(pool.total_hashes(), expect.total_hashes());

            let mut pool = Signatures::new(make(64, 78), data.len());
            pool.par_ensure_ids(&data, &[0, 0, 0], 64, threads);
            assert_eq!(pool.raw(0), expect.raw(0));
            assert_eq!(pool.len(1), 0);
        }
    }

    #[test]
    fn par_ensure_tolerates_duplicate_ids() {
        for_each_hasher!(duplicate_ids);
    }

    fn par_external_hash<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        let vs = vecs(1, 80, 15, 33);
        let mut pool = Signatures::new(make(80, 34), 1);
        let mut expect = Vec::new();
        pool.hash_external(&vs[0], 0, 200, &mut expect);
        for threads in [1usize, 2, 8] {
            assert_eq!(pool.hash_external_par(&vs[0], 200, threads), expect);
        }
    }

    #[test]
    fn par_external_hash_matches_serial() {
        for_each_hasher!(par_external_hash);
    }

    fn wire_round_trip<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        // Non-uniform depths (the lazy-hashing shape) must survive, and a
        // reloaded pool must extend signatures bit-identically to the
        // original — the invariant insert-after-load rests on.
        let data = dataset(4, 96, 10, 91);
        let mut pool = Signatures::new(make(96, 92), data.len());
        for (id, v) in data.iter() {
            pool.ensure(id, v, 40 + 10 * id);
        }
        pool.ensure(2, data.vector(2), 192);
        let mut w = WireWriter::new(Vec::new());
        pool.write_wire(&mut w).unwrap();
        let payload = w.into_inner();
        let mut r = WireReader::new(&payload[..]);
        let mut back = Signatures::<H>::read_wire(&mut r, 2, 64).unwrap();
        assert_eq!(r.bytes_read(), payload.len() as u64);
        assert_eq!(back.total_hashes(), pool.total_hashes());
        for id in 0..data.len() as u32 {
            assert_eq!(back.len(id), pool.len(id));
            assert_eq!(back.raw(id), pool.raw(id), "id {id}");
        }
        back.ensure(1, data.vector(1), 256);
        pool.ensure(1, data.vector(1), 256);
        assert_eq!(back.raw(1), pool.raw(1));
    }

    #[test]
    fn wire_round_trip_preserves_pools_and_supports_extension() {
        for_each_hasher!(wire_round_trip);
    }

    fn inconsistent_accounting<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        let vs = vecs(1, 64, 6, 94);
        let mut pool = Signatures::new(make(64, 95), 1);
        pool.ensure(0, &vs[0], 64);
        let mut w = WireWriter::new(Vec::new());
        pool.write_wire(&mut w).unwrap();
        let mut payload = w.into_inner();
        // The trailing u64 is the total-hashes counter; nudge it.
        let at = payload.len() - 8;
        payload[at] ^= 1;
        let read = Signatures::<H>::read_wire(&mut WireReader::new(&payload[..]), 1, 64);
        assert!(matches!(read, Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn wire_read_rejects_inconsistent_accounting() {
        for_each_hasher!(inconsistent_accounting);
    }

    #[test]
    fn wire_read_rejects_a_bit_depth_that_is_not_whole_words() {
        let vs = vecs(1, 64, 6, 96);
        let mut pool = BitSignatures::new(SrpHasher::new(64, 97), 1);
        pool.ensure(0, &vs[0], 64);
        let mut w = WireWriter::new(Vec::new());
        pool.write_wire(&mut w).unwrap();
        let mut payload = w.into_inner();
        // The first depth follows the hasher header and the object count.
        let mut header = WireWriter::new(Vec::new());
        pool.hasher().write_header(&mut header).unwrap();
        let at = header.into_inner().len() + 8;
        assert_eq!(payload[at..at + 4], 64u32.to_le_bytes());
        payload[at..at + 4].copy_from_slice(&65u32.to_le_bytes());
        let read = BitSignatures::read_wire(&mut WireReader::new(&payload[..]), 1, 64);
        assert!(matches!(read, Err(WireError::Corrupt { .. })));
    }

    fn ready_external_and_clear<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        let vs = vecs(2, 80, 15, 51);
        let mut pool = Signatures::new(make(80, 52), 2);
        assert!(!pool.external_ready(96));
        pool.prepare_external(96, 2);
        assert!(pool.external_ready(96) && pool.external_ready(33));
        let mut expect = Vec::new();
        pool.hash_external(&vs[0], 0, 96, &mut expect);
        for threads in [1usize, 3] {
            assert_eq!(pool.hash_external_ready(&vs[0], 96, threads), expect);
        }
        pool.ensure(0, &vs[0], 64);
        pool.ensure(1, &vs[1], 96);
        assert_eq!(pool.total_hashes(), 160);
        pool.clear(0);
        assert_eq!(pool.len(0), 0);
        assert_eq!(pool.total_hashes(), 96);
        // A cleared slot is indistinguishable from a never-hashed one.
        pool.ensure(0, &vs[0], 64);
        assert_eq!(pool.total_hashes(), 160);
    }

    #[test]
    fn ready_external_hash_matches_mut_path_and_clear_releases_hashes() {
        for_each_hasher!(ready_external_and_clear);
    }

    fn agreements_and_external<H: PoolHasher>(make: impl Fn(u32, u64) -> H) {
        let vs = vecs(2, 32, 12, 67);
        let mut pool = Signatures::new(make(32, 31), 2);
        pool.ensure(0, &vs[0], 128);
        pool.ensure(1, &vs[1], 128);
        assert_eq!(pool.len(0), 128);
        assert_eq!(pool.agreements(0, 0, 0, 128), 128);
        let (ra, rb) = (pool.raw(0).to_vec(), pool.raw(1).to_vec());
        let naive = |lo: u32, hi: u32| {
            (lo..hi)
                .filter(|&i| slot::<H>(&ra, i) == slot::<H>(&rb, i))
                .count() as u32
        };
        assert_eq!(pool.agreements(0, 1, 0, 128), naive(0, 128));
        let mut batched = Vec::new();
        pool.agreements_batched(0, &[1, 0], 16, 100, &mut batched);
        assert_eq!(batched, vec![naive(16, 100), 100 - 16]);
        // External hashing reproduces the pooled stream, and external
        // counting matches the in-pool counts.
        let mut sig = Vec::new();
        pool.hash_external(&vs[0], 0, 128, &mut sig);
        assert_eq!(&sig[..], pool.raw(0));
        assert!(pool.external_ready(128));
        for threads in [1usize, 2, 8] {
            assert_eq!(pool.hash_external_ready(&vs[0], 128, threads), sig);
            assert_eq!(pool.hash_external_par(&vs[0], 128, threads), sig);
        }
        assert_eq!(pool.external_agreements(&sig, 1, 5, 77), naive(5, 77));
        pool.external_agreements_batched(&sig, &[0, 1], 16, 100, &mut batched);
        assert_eq!(batched, vec![100 - 16, naive(16, 100)]);
        // Clear releases accounting.
        let before = pool.total_hashes();
        pool.clear(0);
        assert_eq!(pool.len(0), 0);
        assert_eq!(pool.total_hashes(), before - 128);
    }

    #[test]
    fn agreements_and_external_paths_match_naive_counts() {
        for_each_hasher!(agreements_and_external);
    }

    proptest! {
        #[test]
        fn bit_agreements_equals_naive_on_random_ranges(
            seed in 0u64..1000,
            lo in 0u32..256,
            span in 0u32..256,
        ) {
            let hi = (lo + span).min(256);
            let vs = vecs(2, 64, 8, seed);
            let mut pool = BitSignatures::new(SrpHasher::new(64, seed ^ 0xABCD), 2);
            pool.ensure(0, &vs[0], 256);
            pool.ensure(1, &vs[1], 256);
            let naive = (lo..hi).filter(|&i| pool.bit(0, i) == pool.bit(1, i)).count() as u32;
            prop_assert_eq!(pool.agreements(0, 1, lo, hi), naive);
        }
    }
}
