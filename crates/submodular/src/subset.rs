//! Compact subsets of a ground set `{0, 1, .., n-1}`.
//!
//! [`Subset`] is a growable bitset pinned to a fixed ground-set size. All
//! submodular machinery in this crate operates on it.
//!
//! # Examples
//!
//! ```
//! use ccs_submodular::subset::Subset;
//!
//! let mut s = Subset::empty(10);
//! s.insert(3);
//! s.insert(7);
//! assert_eq!(s.len(), 2);
//! assert!(s.contains(3));
//! assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
//! let t = s.with(5);
//! assert_eq!((s.len(), t.len()), (2, 3));
//! ```

use std::fmt;

const BITS: usize = 64;

/// A subset of `{0, .., ground_size - 1}`, stored as a bitset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Subset {
    blocks: Vec<u64>,
    ground_size: usize,
}

impl Subset {
    /// The empty subset of a ground set of size `n`.
    pub fn empty(n: usize) -> Self {
        Subset {
            blocks: vec![0; n.div_ceil(BITS)],
            ground_size: n,
        }
    }

    /// A subset from an iterator of element indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, indices: I) -> Self {
        let mut s = Subset::empty(n);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Decodes the low `n` bits of `mask` as a subset (handy in exhaustive
    /// enumeration loops; requires `n <= 64`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn from_mask(n: usize, mask: u64) -> Self {
        assert!(n <= 64, "from_mask supports ground sets up to 64");
        let mut s = Subset::empty(n);
        if n > 0 {
            let valid = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            s.blocks[0] = mask & valid;
        }
        s
    }

    /// Ground-set size this subset is pinned to.
    #[inline]
    pub fn ground_size(&self) -> usize {
        self.ground_size
    }

    /// Number of elements in the subset.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Whether element `i` is in the subset.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ground_size`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.ground_size, "element {i} out of ground set");
        self.blocks[i / BITS] & (1 << (i % BITS)) != 0
    }

    /// Inserts element `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ground_size`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.ground_size, "element {i} out of ground set");
        let block = &mut self.blocks[i / BITS];
        let bit = 1 << (i % BITS);
        let fresh = *block & bit == 0;
        *block |= bit;
        fresh
    }

    /// Removes element `i`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ground_size`.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.ground_size, "element {i} out of ground set");
        let block = &mut self.blocks[i / BITS];
        let bit = 1 << (i % BITS);
        let present = *block & bit != 0;
        *block &= !bit;
        present
    }

    /// A copy with element `i` inserted.
    pub fn with(&self, i: usize) -> Self {
        let mut s = self.clone();
        s.insert(i);
        s
    }

    /// Iterator over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            subset: self,
            next: 0,
        }
    }

    /// Collects the elements into a `Vec` in ascending order.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl fmt::Debug for Subset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Subset{:?}", self.to_vec())
    }
}

impl fmt::Display for Subset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the elements of a [`Subset`] in ascending order.
#[derive(Debug)]
pub struct Iter<'a> {
    subset: &'a Subset,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.next < self.subset.ground_size {
            let i = self.next;
            self.next += 1;
            if self.subset.contains(i) {
                return Some(i);
            }
        }
        None
    }
}

impl<'a> IntoIterator for &'a Subset {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Enumerates all `2^n` subsets of a ground set of size `n <= 25` (guard
/// against accidental exponential blowups in tests).
///
/// # Panics
///
/// Panics if `n > 25`.
pub fn all_subsets(n: usize) -> impl Iterator<Item = Subset> {
    assert!(n <= 25, "exhaustive enumeration limited to n <= 25");
    (0u64..(1u64 << n)).map(move |mask| Subset::from_mask(n, mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_universe() {
        let e = Subset::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.ground_size(), 70);
        let mut u = Subset::from_indices(70, 0..70);
        assert_eq!(u.len(), 70);
        assert!(u.contains(0) && u.contains(69));
        for i in 0..70 {
            u.remove(i);
        }
        assert_eq!(u, e);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Subset::empty(100);
        assert!(s.insert(65));
        assert!(!s.insert(65), "second insert is not fresh");
        assert!(s.contains(65));
        assert!(!s.contains(64));
        assert!(s.remove(65));
        assert!(!s.remove(65), "second remove finds nothing");
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of ground set")]
    fn contains_out_of_range_panics() {
        let s = Subset::empty(5);
        let _ = s.contains(5);
    }

    #[test]
    fn with_without_are_nonmutating() {
        let s = Subset::from_indices(10, [1, 2]);
        let t = s.with(5);
        assert!(!s.contains(5) && t.contains(5));
        assert_eq!(t.with(5), t, "inserting a member changes nothing");
    }

    #[test]
    fn iter_ascending_across_blocks() {
        let s = Subset::from_indices(130, [0, 63, 64, 127, 129]);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 127, 129]);
        assert_eq!(s.len(), 5);
        let via_ref: Vec<usize> = (&s).into_iter().collect();
        assert_eq!(via_ref, s.to_vec());
    }

    #[test]
    fn from_mask_round_trip() {
        let s = Subset::from_mask(6, 0b101001);
        assert_eq!(s.to_vec(), vec![0, 3, 5]);
        let full = Subset::from_mask(64, u64::MAX);
        assert_eq!(full.len(), 64);
        // Bits beyond n are masked off.
        let masked = Subset::from_mask(3, 0b11111);
        assert_eq!(masked.to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn all_subsets_counts() {
        assert_eq!(all_subsets(0).count(), 1);
        assert_eq!(all_subsets(4).count(), 16);
        let total_len: usize = all_subsets(4).map(|s| s.len()).sum();
        assert_eq!(total_len, 4 * 8, "each element appears in half the sets");
    }

    #[test]
    fn display_and_debug() {
        let s = Subset::from_indices(5, [1, 3]);
        assert_eq!(s.to_string(), "{1, 3}");
        assert_eq!(format!("{s:?}"), "Subset[1, 3]");
        assert_eq!(Subset::empty(3).to_string(), "{}");
    }
}
