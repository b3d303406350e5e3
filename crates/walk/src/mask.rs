//! Bit-packed vertex membership masks.
//!
//! The walk substrate needs one question answered in its innermost loop:
//! *has this vertex already been touched this step?* Up to PR 5 that was an
//! epoch-stamped `Vec<u64>` — 8 bytes of bookkeeping per vertex, read and
//! written once per probability push. At `n = 2²⁰` those stamps alone are
//! 8 MiB per workspace (and per batch lane), far past every cache level, so
//! the hot accumulation loop paid a DRAM round-trip per neighbour just to
//! decide between `+=` and `=`.
//!
//! [`BitMask`] packs the same membership relation into one bit per vertex:
//! 128 KiB at `n = 2²⁰`, 64× less bookkeeping traffic, and the word holding
//! a vertex's bit is almost always still in L1 when its CSR-adjacent
//! neighbours are probed. Clearing is `O(|support|)` word writes (the caller
//! knows exactly which bits are set), never an `O(n)` sweep, so the
//! epoch-stamp trick's asymptotics are preserved.
//!
//! The mask is a plain hand-rolled type (the offline build environment has
//! no `bitvec`/`fixedbitset`); property tests pin every operation against a
//! `Vec<bool>` reference model.

use cdrw_graph::VertexId;

/// Number of bits per storage word.
const WORD_BITS: usize = u64::BITS as usize;

/// A fixed-capacity set of vertices stored as one bit per vertex.
///
/// All operations are `O(1)` except [`BitMask::iter`],
/// [`BitMask::count_ones`] and [`BitMask::drain_into`] (`O(capacity/64)`
/// words); hot paths clear exactly the bits they set.
///
/// # Examples
///
/// ```
/// use cdrw_walk::mask::BitMask;
///
/// let mut mask = BitMask::with_capacity(100);
/// assert!(mask.insert(3));
/// assert!(!mask.insert(3), "second insert reports the bit was set");
/// mask.insert(64);
/// assert!(mask.contains(3) && mask.contains(64) && !mask.contains(4));
/// assert_eq!(mask.iter().collect::<Vec<_>>(), vec![3, 64]);
/// assert!(mask.remove(3));
/// assert_eq!(mask.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    capacity: usize,
}

impl BitMask {
    /// Creates an all-clear mask over vertices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitMask {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Whether the mask covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.capacity == 0
    }

    /// Whether vertex `v`'s bit is set.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity` (same contract as indexing a `Vec`).
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        debug_assert!(v < self.capacity, "vertex {v} beyond capacity");
        self.words[v / WORD_BITS] & (1u64 << (v % WORD_BITS)) != 0
    }

    /// Sets vertex `v`'s bit; returns `true` iff it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        debug_assert!(v < self.capacity, "vertex {v} beyond capacity");
        let word = &mut self.words[v / WORD_BITS];
        let bit = 1u64 << (v % WORD_BITS);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Clears vertex `v`'s bit; returns `true` iff it was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    #[inline]
    pub fn remove(&mut self, v: VertexId) -> bool {
        debug_assert!(v < self.capacity, "vertex {v} beyond capacity");
        let word = &mut self.words[v / WORD_BITS];
        let bit = 1u64 << (v % WORD_BITS);
        let was_set = *word & bit != 0;
        *word &= !bit;
        was_set
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set vertices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let base = i * WORD_BITS;
            std::iter::successors((word != 0).then_some(word), |&w| {
                let next = w & (w - 1); // drop the lowest set bit
                (next != 0).then_some(next)
            })
            .map(move |w| base + w.trailing_zeros() as usize)
        })
    }

    /// Appends the set vertices to `out` in ascending order and clears them
    /// (`O(capacity/64 + set bits)`).
    pub fn drain_into(&mut self, out: &mut Vec<VertexId>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                out.push(i * WORD_BITS + w.trailing_zeros() as usize);
                w &= w - 1; // drop the lowest set bit
            }
        }
    }

    /// The raw storage words (bit `v % 64` of word `v / 64` is vertex `v`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_clear_contains() {
        let mut mask = BitMask::with_capacity(130);
        assert!(!mask.is_empty());
        assert!(BitMask::with_capacity(0).is_empty());
        assert_eq!(mask.count_ones(), 0);
        for v in [0usize, 63, 64, 65, 127, 128, 129] {
            assert!(!mask.contains(v));
            assert!(mask.insert(v));
            assert!(mask.contains(v));
            assert!(!mask.insert(v));
        }
        assert_eq!(mask.count_ones(), 7);
        assert_eq!(
            mask.iter().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 129]
        );
        assert!(mask.remove(64));
        assert!(!mask.remove(64));
        assert!(!mask.contains(64));
        assert_eq!(mask.count_ones(), 6);
        assert_eq!(mask.words().len(), 130usize.div_ceil(64));
    }

    #[test]
    fn capacity_not_multiple_of_word_size() {
        let mut mask = BitMask::with_capacity(1);
        assert!(mask.insert(0));
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0]);
        let mask = BitMask::with_capacity(64);
        assert_eq!(mask.words().len(), 1);
        let mask = BitMask::with_capacity(65);
        assert_eq!(mask.words().len(), 2);
    }

    proptest::proptest! {
        /// Every `BitMask` operation agrees with a `Vec<bool>` reference
        /// model across arbitrary interleavings of inserts, removes and
        /// queries — the satellite pin for the bit-packed walk state.
        #[test]
        fn mask_matches_vec_bool_reference_model(
            capacity in 1usize..200,
            ops in proptest::collection::vec((0usize..200, 0usize..3), 0..120),
        ) {
            use proptest::prop_assert_eq;

            let mut mask = BitMask::with_capacity(capacity);
            let mut reference = vec![false; capacity];
            for (raw, op) in ops {
                let v = raw % capacity;
                match op {
                    0 => {
                        let fresh = mask.insert(v);
                        prop_assert_eq!(fresh, !reference[v]);
                        reference[v] = true;
                    }
                    1 => {
                        let was_set = mask.remove(v);
                        prop_assert_eq!(was_set, reference[v]);
                        reference[v] = false;
                    }
                    _ => prop_assert_eq!(mask.contains(v), reference[v]),
                }
            }
            // Aggregate views agree with the model exactly.
            let model_set: Vec<usize> = (0..capacity).filter(|&v| reference[v]).collect();
            prop_assert_eq!(mask.iter().collect::<Vec<_>>(), model_set.clone());
            prop_assert_eq!(mask.count_ones(), model_set.len());
            for (v, &set) in reference.iter().enumerate() {
                prop_assert_eq!(mask.contains(v), set);
            }
            let mut drained = vec![usize::MAX];
            mask.drain_into(&mut drained);
            prop_assert_eq!(&drained[1..], &model_set[..]);
            prop_assert_eq!(mask.count_ones(), 0);
        }
    }
}
