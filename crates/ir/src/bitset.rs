//! A dense fixed-capacity bit set, the state of most dataflow analyses.

/// A fixed-universe bit set over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set over a universe of `capacity` elements.
    pub fn new(capacity: usize) -> BitSet {
        BitSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Universe size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an element; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "element {i} outside universe {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes an element; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "element {i} outside universe {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "universe mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Intersects `other` into `self`; returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "universe mismatch");
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            changed |= *a & !b != 0;
            *a &= b;
        }
        changed
    }

    /// Removes all elements of `other` from `self`.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(
                move |b| if w & (1 << b) != 0 { Some(wi * 64 + b) } else { None },
            )
        })
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects into a set sized to the largest element + 1.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> BitSet {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(s.is_empty());
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(64);
        let mut b = BitSet::new(64);
        b.insert(3);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let mut a: BitSet = [1usize, 2, 3].into_iter().collect();
        let b: BitSet = [2usize, 3].into_iter().collect();
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 3]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn iteration_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_insert_panics() {
        BitSet::new(4).insert(4);
    }
}
