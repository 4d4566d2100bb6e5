//! Online serving: concurrent readers over published epochs, one writer
//! batching live inserts and deletes.
//!
//! A [`Searcher`] answers `query`/`top_k` through `&self`, so any number of
//! threads can share one instance. What it cannot do alone is accept
//! writes *while* readers are in flight: `insert`/`remove`/`compact` take
//! `&mut self`. [`ServingSearcher`] closes that gap with the same
//! generation-swap pattern the shard router uses for hot reloads:
//!
//! * The live index is an [`Epoch`] — an immutable `Searcher` plus a pair
//!   of counters — behind `RwLock<Arc<Epoch>>`. Readers grab the `Arc`
//!   (one brief read-lock, no contention with other readers) and then
//!   query it for as long as they like; a published successor never
//!   invalidates an epoch a reader still holds.
//! * Writes go to a *staged* copy of the searcher, lazily cloned from the
//!   live epoch on the first write after a publish. [`ServingSearcher::publish`]
//!   swaps the staged copy in as the next epoch in one pointer swap.
//!
//! The contract readers rely on: every epoch is exactly the searcher
//! produced by applying some serial prefix of the write log to the initial
//! corpus, and [`Epoch::applied`] says which prefix. Queries against an
//! epoch are therefore bit-identical to a single-threaded run that stopped
//! after the same writes — the workspace `serving_stress` test pins this
//! down under many readers and a concurrent writer.
//!
//! Deletes follow the searcher's tombstone semantics: a `remove` hides the
//! vector from every query in the next epoch, and an explicit
//! [`ServingSearcher::compact`] (also staged, also published) rewrites the
//! banding index and signature pool so snapshots can be saved again.

use std::sync::{Arc, Mutex, RwLock};

use bayeslsh_sparse::SparseVector;

use crate::error::SearchError;
use crate::searcher::{KnnParams, QueryOutput, Searcher, TopKOutput};

/// One published, immutable generation of the index.
#[derive(Debug)]
pub struct Epoch {
    ordinal: u64,
    applied: u64,
    searcher: Searcher,
}

impl Epoch {
    /// Position in the publish sequence (the initial epoch is 0).
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// How many write operations (inserts, removes, compactions) from the
    /// serving write log this epoch has applied. Two epochs with equal
    /// `applied` are the same index state.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The searcher for this epoch. All `&self` query paths are safe to
    /// call from any number of threads.
    pub fn searcher(&self) -> &Searcher {
        &self.searcher
    }
}

/// Writer-side state: the staged successor and the write-log position.
#[derive(Debug)]
struct WriterState {
    /// Clone of the live searcher carrying not-yet-published writes;
    /// `None` when nothing is staged (the common read-mostly state).
    staged: Option<Searcher>,
    /// Total write operations ever applied, including staged ones.
    applied: u64,
}

/// A concurrently readable, serially writable index front-end.
///
/// Cheap to share (`Arc<ServingSearcher>`); readers call
/// [`epoch`](Self::epoch) (or the [`query`](Self::query)/
/// [`top_k`](Self::top_k) conveniences) while one or more writer threads
/// funnel through [`insert`](Self::insert)/[`remove`](Self::remove)/
/// [`compact`](Self::compact) and batch them into epochs with
/// [`publish`](Self::publish).
#[derive(Debug)]
pub struct ServingSearcher {
    current: RwLock<Arc<Epoch>>,
    writer: Mutex<WriterState>,
}

impl ServingSearcher {
    /// Wrap a built searcher as epoch 0.
    pub fn new(searcher: Searcher) -> Self {
        Self {
            current: RwLock::new(Arc::new(Epoch {
                ordinal: 0,
                applied: 0,
                searcher,
            })),
            writer: Mutex::new(WriterState {
                staged: None,
                applied: 0,
            }),
        }
    }

    /// The live epoch. Holding the returned `Arc` keeps that generation
    /// alive (and bit-stable) across any number of subsequent publishes.
    pub fn epoch(&self) -> Arc<Epoch> {
        Arc::clone(&self.current.read().expect("epoch lock poisoned"))
    }

    /// Stage an insert; visible to readers after the next [`publish`].
    ///
    /// Returns the id the vector will occupy once published. Ids are
    /// assigned in staging order, so they are stable across the publish.
    ///
    /// [`publish`]: Self::publish
    ///
    /// # Errors
    ///
    /// Propagates [`Searcher::insert`] validation errors; the staged state
    /// is unchanged when an error is returned.
    pub fn insert(&self, v: SparseVector) -> Result<u32, SearchError> {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        let id = self.staged_mut(&mut w).insert(v)?;
        w.applied += 1;
        Ok(id)
    }

    /// Stage a remove; the vector vanishes from queries at the next
    /// [`publish`](Self::publish). Returns `Ok(false)` when `id` was
    /// already removed (not counted as a write).
    ///
    /// # Errors
    ///
    /// Propagates [`Searcher::remove`] errors (unknown id).
    pub fn remove(&self, id: u32) -> Result<bool, SearchError> {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        let removed = self.staged_mut(&mut w).remove(id)?;
        if removed {
            w.applied += 1;
        }
        Ok(removed)
    }

    /// Stage a compaction pass (see [`Searcher::compact`]): clears
    /// tombstoned vectors and rewrites the banding index. Counted as one
    /// write operation when any tombstone was reclaimed.
    pub fn compact(&self) -> usize {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        let reclaimed = self.staged_mut(&mut w).compact();
        if reclaimed > 0 {
            w.applied += 1;
        }
        reclaimed
    }

    /// Number of staged writes not yet visible to readers.
    pub fn pending_writes(&self) -> u64 {
        let w = self.writer.lock().expect("writer lock poisoned");
        w.applied - self.epoch().applied()
    }

    /// Publish all staged writes as the next epoch and return it. With
    /// nothing staged this is a no-op returning the live epoch.
    pub fn publish(&self) -> Arc<Epoch> {
        let mut w = self.writer.lock().expect("writer lock poisoned");
        let Some(staged) = w.staged.take() else {
            return self.epoch();
        };
        let mut current = self.current.write().expect("epoch lock poisoned");
        let next = Arc::new(Epoch {
            ordinal: current.ordinal + 1,
            applied: w.applied,
            searcher: staged,
        });
        *current = Arc::clone(&next);
        next
    }

    /// Threshold query against the live epoch (one epoch snapshot per
    /// call; batch via [`epoch`](Self::epoch) to pin a generation).
    ///
    /// # Errors
    ///
    /// Propagates [`Searcher::query`] validation errors.
    pub fn query(&self, q: &SparseVector, threshold: f64) -> Result<QueryOutput, SearchError> {
        self.epoch().searcher().query(q, threshold)
    }

    /// Top-k query against the live epoch.
    ///
    /// # Errors
    ///
    /// Propagates [`Searcher::top_k`] validation errors.
    pub fn top_k(
        &self,
        q: &SparseVector,
        k: usize,
        params: &KnnParams,
    ) -> Result<TopKOutput, SearchError> {
        self.epoch().searcher().top_k(q, k, params)
    }

    /// The staged searcher, cloning it from the live epoch on the first
    /// write after a publish.
    fn staged_mut<'a>(&self, w: &'a mut WriterState) -> &'a mut Searcher {
        w.staged
            .get_or_insert_with(|| self.epoch().searcher().clone())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use bayeslsh_sparse::Dataset;

    use super::*;
    use crate::compose::{Composition, GeneratorKind, VerifierKind};
    use crate::pipeline::PipelineConfig;
    use crate::searcher::Searcher;
    use bayeslsh_numeric::{Parallelism, Xoshiro256};

    fn corpus(seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut d = Dataset::new(400);
        for _ in 0..24 {
            let pairs: Vec<(u32, f32)> = (0..12)
                .map(|_| (rng.next_below(400) as u32, (rng.next_f64() + 0.3) as f32))
                .collect();
            d.push(SparseVector::from_pairs(pairs));
        }
        d
    }

    fn serving(seed: u64) -> ServingSearcher {
        let searcher = Searcher::builder(PipelineConfig::cosine(0.3))
            .composition(Composition {
                generator: GeneratorKind::LshBanding,
                verifier: VerifierKind::Exact,
            })
            .parallelism(Parallelism::serial())
            .build(corpus(seed))
            .expect("build");
        ServingSearcher::new(searcher)
    }

    #[test]
    fn writes_are_invisible_until_publish() {
        let s = serving(7);
        let before = s.epoch();
        let v = corpus(99).vector(0).clone();
        let id = s.insert(v.clone()).expect("insert");
        assert_eq!(id as usize, before.searcher().len());
        assert_eq!(s.pending_writes(), 1);
        // The live epoch is untouched: same Arc, same corpus size.
        let live = s.epoch();
        assert!(Arc::ptr_eq(&before, &live));
        assert_eq!(live.searcher().len(), before.searcher().len());

        let published = s.publish();
        assert_eq!(published.ordinal(), 1);
        assert_eq!(published.applied(), 1);
        assert_eq!(published.searcher().len(), before.searcher().len() + 1);
        assert_eq!(s.pending_writes(), 0);
        // The old epoch snapshot is still alive and unchanged.
        assert_eq!(before.searcher().len() + 1, published.searcher().len());
        // The inserted vector now matches itself.
        let out = published.searcher().query(&v, 0.9).expect("query");
        assert!(out.neighbors.iter().any(|&(got, _)| got == id));
    }

    #[test]
    fn remove_hides_vector_in_next_epoch_and_compact_publishes() {
        let s = serving(11);
        let victim = s.epoch().searcher().data().vector(3).clone();
        let before = s.epoch().searcher().query(&victim, 0.99).expect("query");
        assert!(before.neighbors.iter().any(|&(id, _)| id == 3));

        assert!(s.remove(3).expect("remove"));
        assert!(!s.remove(3).expect("second remove is a no-op"));
        let epoch = s.publish();
        let after = epoch.searcher().query(&victim, 0.99).expect("query");
        assert!(after.neighbors.iter().all(|&(id, _)| id != 3));
        assert_eq!(epoch.searcher().pending_removals(), 1);

        assert_eq!(s.compact(), 1);
        assert_eq!(s.compact(), 0, "second compact finds nothing");
        let compacted = s.publish();
        assert_eq!(compacted.searcher().pending_removals(), 0);
        let gone = compacted.searcher().query(&victim, 0.99).expect("query");
        assert!(gone.neighbors.iter().all(|&(id, _)| id != 3));
    }

    #[test]
    fn publish_without_writes_is_a_noop() {
        let s = serving(3);
        let e0 = s.epoch();
        let e1 = s.publish();
        assert!(Arc::ptr_eq(&e0, &e1));
        assert_eq!(e1.ordinal(), 0);
    }

    #[test]
    fn readers_see_consistent_epochs_under_concurrent_writes() {
        let s = Arc::new(serving(5));
        let stop = Arc::new(AtomicBool::new(false));
        let probe = corpus(5).vector(1).clone();
        let baseline = s.query(&probe, 0.2).expect("query").neighbors;

        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..4 {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                let probe = probe.clone();
                readers.push(scope.spawn(move || {
                    let mut observed = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let epoch = s.epoch();
                        let out = epoch.searcher().query(&probe, 0.2).expect("query");
                        observed.push((epoch.applied(), out.neighbors));
                    }
                    observed
                }));
            }

            // Writer: grow the corpus by batches of fresh vectors.
            let extra: Vec<SparseVector> = corpus(123).vectors().to_vec();
            for (batch, chunk) in extra.chunks(4).enumerate() {
                for v in chunk {
                    s.insert(v.clone()).expect("insert");
                }
                let epoch = s.publish();
                assert_eq!(epoch.ordinal(), batch as u64 + 1);
            }
            stop.store(true, Ordering::Relaxed);

            // Every observation at applied=0 must equal the pre-write
            // baseline; inserts only ever add neighbors, monotonically in
            // the write log.
            for handle in readers {
                for (applied, neighbors) in handle.join().expect("reader") {
                    if applied == 0 {
                        assert_eq!(neighbors, baseline, "epoch 0 must match serial baseline");
                    } else {
                        assert!(
                            neighbors.len() >= baseline.len(),
                            "inserts cannot shrink a threshold result"
                        );
                    }
                }
            }
        });
    }
}
