//! Predicate-evaluation caches: one bit per state.
//!
//! Closure, convergence, and bounds checking all repeatedly ask "does
//! predicate P hold at state s?" for the same handful of predicates (`S`,
//! `T`, each constraint). A [`Bitset`] evaluates the predicate **once per
//! state** — in parallel, over word-aligned chunks — and every later pass
//! answers membership with a single bit test.
//! [`for_predicates`](Bitset::for_predicates) builds several caches from
//! one pass, decoding each state once for all of them. Compound
//! predicates like Theorem 3's "T ∧ lower constraints ∧ ¬S" are composed
//! with bitwise [`and`](Bitset::and)/[`not`](Bitset::not) instead of
//! re-evaluating the conjuncts.

use nonmask_program::Predicate;

use crate::error::CheckError;
use crate::options::{run_chunks, CheckOptions};
use crate::space::{SpaceIndex, StateId, StateSpace};

/// A fixed-length set of state indices, one bit per state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// The empty set over `len` states.
    pub fn zeros(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over `len` states.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitset {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Build from a membership function, evaluating `f` once per index.
    ///
    /// Workers own disjoint *word-aligned* chunks (multiples of 64 bits),
    /// so no two threads touch the same word and the result is identical
    /// for every worker count.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `f` panics.
    pub fn from_fn<F>(len: usize, opts: CheckOptions, f: F) -> Result<Self, CheckError>
    where
        F: Fn(usize) -> bool + Sync,
    {
        let word_count = len.div_ceil(64);
        let workers = opts.workers_for(len);
        let words: Vec<u64> = run_chunks(word_count, workers, |word_range| {
            word_range
                .map(|wi| {
                    let mut word = 0u64;
                    let base = wi * 64;
                    for bit in 0..64usize.min(len - base.min(len)) {
                        if f(base + bit) {
                            word |= 1 << bit;
                        }
                    }
                    word
                })
                .collect::<Vec<u64>>()
        })?
        .into_iter()
        .flatten()
        .collect();
        Ok(Bitset { words, len })
    }

    /// Evaluate `pred` once at every state of `space`, decoding each state
    /// into a per-worker scratch buffer (no per-state allocation).
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `pred` panics.
    pub fn for_predicate(
        space: &StateSpace,
        pred: &Predicate,
        opts: CheckOptions,
    ) -> Result<Self, CheckError> {
        Self::for_predicate_index(space.index(), pred, opts)
    }

    /// [`for_predicate`](Bitset::for_predicate) from a bare [`SpaceIndex`]:
    /// predicate caches need only the id↔state bijection, so out-of-core
    /// passes build them without ever materializing a CSR.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `pred` panics.
    pub fn for_predicate_index(
        index: &SpaceIndex,
        pred: &Predicate,
        opts: CheckOptions,
    ) -> Result<Self, CheckError> {
        let mut sets = Self::for_predicates(index, &[pred], opts)?;
        Ok(sets.pop().expect("one cache per predicate"))
    }

    /// One cache per predicate of `preds`, in order, from a single pass
    /// over `index`: each state is decoded once and every predicate is
    /// evaluated against the same decoded state. Decoding, not predicate
    /// evaluation, dominates a cache build, so `k` caches cost about one.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if some predicate panics.
    pub fn for_predicates(
        index: &SpaceIndex,
        preds: &[&Predicate],
        opts: CheckOptions,
    ) -> Result<Vec<Self>, CheckError> {
        let (len, k) = (index.len(), preds.len());
        if k == 0 {
            return Ok(Vec::new());
        }
        let word_count = len.div_ceil(64);
        let workers = opts.workers_for(len);
        // Each chunk returns its words predicate-major: predicate `p`'s
        // words for the chunk are `words[p * n..(p + 1) * n]`.
        let chunks: Vec<Vec<u64>> = run_chunks(word_count, workers, |word_range| {
            let mut scratch = index.scratch_state();
            let n = word_range.len();
            let mut words = vec![0u64; k * n];
            for (w, wi) in word_range.enumerate() {
                let base = wi * 64;
                for bit in 0..64usize.min(len - base) {
                    index.decode_state(StateId::from_index(base + bit), &mut scratch);
                    for (p, pred) in preds.iter().enumerate() {
                        if pred.holds(&scratch) {
                            words[p * n + w] |= 1 << bit;
                        }
                    }
                }
            }
            words
        })?;
        let mut sets: Vec<Bitset> = (0..k)
            .map(|_| Bitset {
                words: Vec::with_capacity(word_count),
                len,
            })
            .collect();
        for words in &chunks {
            let n = words.len() / k;
            for (p, set) in sets.iter_mut().enumerate() {
                set.words.extend_from_slice(&words[p * n..(p + 1) * n]);
            }
        }
        Ok(sets)
    }

    /// Whether state index `i` is in the set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether state `id` is in the set.
    #[inline]
    pub fn contains(&self, id: StateId) -> bool {
        self.get(id.index())
    }

    /// Insert state index `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of states the set ranges over (not the member count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set ranges over zero states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of member states.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of states in both sets, without building the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_count(&self, other: &Bitset) -> usize {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterate the member indices in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Set intersection (conjunction of the cached predicates).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        Bitset {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Set union (disjunction of the cached predicates).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or(&self, other: &Bitset) -> Bitset {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        Bitset {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Set complement (negation of the cached predicate).
    pub fn not(&self) -> Bitset {
        let mut b = Bitset {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.mask_tail();
        b
    }

    /// OR `delta` words into the set starting at word index `word_start`.
    /// The frontier pass merges per-segment delta windows with this; OR is
    /// commutative and associative, so overlapping boundary words from
    /// adjacent segments merge to the same result in any order.
    pub(crate) fn or_words(&mut self, word_start: usize, delta: &[u64]) {
        for (w, &d) in self.words[word_start..word_start + delta.len()]
            .iter_mut()
            .zip(delta)
        {
            *w |= d;
        }
        self.mask_tail();
    }

    /// Zero the bits beyond `len` so `count_ones`/`not` stay exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Ascending iterator over the member indices of a [`Bitset`], produced by
/// [`Bitset::iter_ones`]. Skips zero words a whole word at a time.
#[derive(Debug, Clone)]
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_matches_direct_evaluation() {
        for len in [0, 1, 63, 64, 65, 2048, 5000] {
            let b = Bitset::from_fn(len, CheckOptions::serial(), |i| i % 3 == 0).unwrap();
            let par =
                Bitset::from_fn(len, CheckOptions::default().threads(4), |i| i % 3 == 0).unwrap();
            assert_eq!(b, par, "len={len}");
            for i in 0..len {
                assert_eq!(b.get(i), i % 3 == 0, "len={len} i={i}");
            }
            assert_eq!(b.count_ones(), (0..len).filter(|i| i % 3 == 0).count());
        }
    }

    #[test]
    fn for_predicates_matches_direct_evaluation_across_chunks() {
        use nonmask_program::{Domain, Program};
        let mut b = Program::builder("wide");
        let x = b.var("x", Domain::range(0, 9999));
        let y = b.var("y", Domain::Bool);
        let p = b.build();
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let preds = [
            Predicate::new("x%3", [x], move |s| s.get(x) % 3 == 0),
            Predicate::new("y", [y], move |s| s.get_bool(y)),
            Predicate::always_false(),
        ];
        let refs: Vec<&Predicate> = preds.iter().collect();
        assert!(Bitset::for_predicates(&index, &[], CheckOptions::serial())
            .unwrap()
            .is_empty());
        for threads in [1, 3, 4] {
            let opts = CheckOptions::default().threads(threads);
            let batched = Bitset::for_predicates(&index, &refs, opts).unwrap();
            for (pred, bits) in preds.iter().zip(&batched) {
                let direct = Bitset::from_fn(index.len(), opts, |i| {
                    pred.holds(&index.state(StateId::from_index(i)))
                })
                .unwrap();
                assert_eq!(bits, &direct, "threads={threads} pred={}", pred.name());
            }
        }
    }

    #[test]
    fn ones_and_zeros() {
        let z = Bitset::zeros(70);
        let o = Bitset::ones(70);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 70);
        assert_eq!(o.len(), 70);
        assert!(!o.is_empty());
        assert!(Bitset::zeros(0).is_empty());
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitset::from_fn(130, CheckOptions::serial(), |i| i % 2 == 0).unwrap();
        let b = Bitset::from_fn(130, CheckOptions::serial(), |i| i % 3 == 0).unwrap();
        let both = a.and(&b);
        assert_eq!(a.and_count(&b), both.count_ones());
        let neither = a.not().and(&b.not());
        for i in 0..130 {
            assert_eq!(both.get(i), i % 6 == 0);
            assert_eq!(neither.get(i), i % 2 != 0 && i % 3 != 0);
        }
        // Complement is exact on the tail word.
        assert_eq!(a.count_ones() + a.not().count_ones(), 130);
    }

    #[test]
    fn iter_ones_ascending() {
        for len in [0, 1, 63, 64, 65, 130, 1000] {
            let b = Bitset::from_fn(len, CheckOptions::serial(), |i| i % 7 == 0 || i == len - 1)
                .unwrap();
            let got: Vec<usize> = b.iter_ones().collect();
            let want: Vec<usize> = (0..len).filter(|&i| b.get(i)).collect();
            assert_eq!(got, want, "len={len}");
        }
        assert_eq!(Bitset::zeros(500).iter_ones().count(), 0);
        assert_eq!(Bitset::ones(500).iter_ones().count(), 500);
    }

    #[test]
    fn set_inserts() {
        let mut b = Bitset::zeros(100);
        b.set(0);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(64) && b.get(99));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
    }
}
