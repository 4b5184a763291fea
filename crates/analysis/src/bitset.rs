//! A dense, fixed-universe bit set.
//!
//! Interference rows and the live set of a backward scan are sets over a
//! dense index space (values, live ranges), so a flat `u64` word vector
//! beats any generic set. The set tracks its universe size for exact byte
//! accounting. Stored liveness is sparse instead: see
//! [`crate::liveness`].

/// A set of `usize` elements drawn from a fixed universe `0..len`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Create an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The universe size this set was created with.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Insert `i`. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Remove `i`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self |= other`. Returns `true` if `self` changed.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self -= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share any element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// The smallest element at or above `from`, if any.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// Iterate over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Heap bytes used by the word storage.
    pub fn bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// Iterator over set elements, produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collect into a set whose universe is one past the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let len = elems.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(len);
        for e in elems {
            s.insert(e);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports no change");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert!(!s.contains(129));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        b.insert(3);
        b.insert(99);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn intersect_and_difference() {
        let mut a: BitSet = [1, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2, 64].into_iter().collect();
        let mut a2 = a.clone();
        // Universe sizes differ (4+1=65 both since max 64) — they match here.
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 64]);
        a2.difference_with(&b);
        assert_eq!(a2.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn intersects_detects_overlap() {
        let a: BitSet = [5, 70].into_iter().collect();
        let mut b = BitSet::new(71);
        b.insert(70);
        assert!(a.intersects(&b));
        let mut c = BitSet::new(71);
        c.insert(6);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn iter_in_order_across_words() {
        let elems = [0usize, 1, 63, 64, 65, 127, 128];
        let s: BitSet = elems.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), elems.to_vec());
    }

    #[test]
    fn next_from_finds_the_next_element() {
        let s: BitSet = [0usize, 5, 63, 64, 200].into_iter().collect();
        assert_eq!(s.next_from(0), Some(0));
        assert_eq!(s.next_from(1), Some(5));
        assert_eq!(s.next_from(6), Some(63));
        assert_eq!(s.next_from(64), Some(64));
        assert_eq!(s.next_from(65), Some(200));
        assert_eq!(s.next_from(201), None);
        assert_eq!(s.next_from(10_000), None);
        assert_eq!(BitSet::new(0).next_from(0), None);
    }

    #[test]
    fn empty_and_clear() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut t = BitSet::new(10);
        t.insert(5);
        t.clear();
        assert!(t.is_empty());
    }
}
