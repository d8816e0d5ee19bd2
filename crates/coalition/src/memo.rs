//! One sharded, thread-safe memo for the pure-function caches of a solve.
//!
//! A solve re-asks the same pure questions many times over: CCSGA's
//! best-response dynamics re-price a coalition composition visited in
//! round `r` when several players probe it again in round `r + 1`, facility
//! scans re-solve the gathering point of a `(charger, members)` pair, and
//! the shortlist mode re-ranks a device's nearest neighbours. [`Memo`] is
//! the one map behind all of them: a fixed number of shards, each a
//! `parking_lot` mutex around a `HashMap` keyed through a seed-free
//! multiply-xor hasher, so the parallel candidate evaluations of
//! `ccs-par` rarely contend.
//!
//! The memo decides nothing else. Callers count their own hits and misses,
//! compute a missing value outside any lock and [`insert`](Memo::insert)
//! it afterwards. Every value must be a pure function of its key: two
//! threads that miss the same key at once both compute it, and the later
//! insert replaces an identical value, so what a probe reads does not
//! depend on scheduling.
//!
//! # Example
//!
//! ```
//! use ccs_coalition::memo::Memo;
//!
//! let memo: Memo<Box<[usize]>, f64> = Memo::new();
//! assert_eq!(memo.get(&[0, 2][..], |v| *v), None);
//! memo.insert(Box::from(&[0, 2][..]), 1.5);
//! // The hit path probes with a borrowed slice and allocates nothing.
//! assert_eq!(memo.get(&[0, 2][..], |v| *v), Some(1.5));
//! assert_eq!(memo.len(), 1);
//! ```

use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Number of independently locked shards; a small power of two keeps the
/// modulo cheap while comfortably out-counting the worker threads.
const SHARDS: usize = 16;

/// One shard's map, keyed through the seed-free [`FastHasher`].
type Map<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A thread-safe map from `K` to `V`, sharded by key hash.
pub struct Memo<K, V> {
    shards: Box<[Mutex<Map<K, V>>]>,
}

impl<K: Hash + Eq, V> Memo<K, V> {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Memo {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    /// The shard that holds `key`. `K: Borrow<Q>` promises that a key and
    /// its borrowed form hash alike, so both land on the same shard.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<Map<K, V>> {
        let hash = BuildHasherDefault::<FastHasher>::default().hash_one(key);
        &self.shards[hash as usize % SHARDS]
    }

    /// Applies `read` to the value stored under `key`, under the shard
    /// lock, or returns `None` when there is none. `key` may be any
    /// borrowed form of `K` (a `&[u32]` for a `Box<[u32]>` key), so a probe
    /// allocates nothing.
    pub fn get<Q, R>(&self, key: &Q, read: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key).lock().get(key).map(read)
    }

    /// Stores `value` under `key`, replacing any earlier value.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).lock().insert(key, value);
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the memo holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.len())
            .finish()
    }
}

/// Multiplier from the golden-ratio family (same constant class FxHash
/// uses); spreads consecutive ids across the full 64-bit space.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-xor hasher: each word is folded in with a rotate + xor +
/// multiply round.
///
/// `std`'s default SipHash is DoS-resistant but costs ~1.5 ns per byte plus
/// finalization — an order of magnitude more than this on the short integer
/// keys the memos use (`[usize]` member lists, `[u32]` flat keys). Those
/// keys are small id lists from the scheduler itself, not attacker-controlled
/// input, so hash-flooding resistance buys nothing. The hasher is seed-free,
/// so shard choice and map layout are identical across runs and thread
/// counts (not that layout is ever observable through a pure-function memo).
#[derive(Debug, Default)]
struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The get-or-compute pattern the memo's callers use: probe, compute
    /// outside the lock on a miss, insert.
    fn memoized<V: Clone>(
        memo: &Memo<Box<[usize]>, V>,
        key: &[usize],
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(hit) = memo.get(key, V::clone) {
            return hit;
        }
        let value = compute();
        memo.insert(key.into(), value.clone());
        value
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn memoizes_per_composition() {
        let memo = Memo::new();
        let computes = AtomicUsize::new(0);
        let eval = |c: &[usize]| {
            memoized(&memo, c, || {
                computes.fetch_add(1, Ordering::Relaxed);
                c.len() * 10
            })
        };
        assert_eq!(eval(&[0, 2]), 20);
        assert_eq!(eval(&[0, 2]), 20);
        assert_eq!(eval(&[1]), 10);
        assert_eq!(computes.load(Ordering::Relaxed), 2);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn distinct_compositions_do_not_collide() {
        let memo = Memo::new();
        for a in 0..10usize {
            for b in (a + 1)..10 {
                memo.insert(Box::from(&[a, b][..]), (a, b));
            }
        }
        assert_eq!(memo.len(), 45);
        assert_eq!(memo.get(&[3, 7][..], |v| *v), Some((3, 7)));
        assert_eq!(memo.get(&[3, 7, 9][..], |v| *v), None);
    }

    #[test]
    fn insert_replaces_an_earlier_value() {
        let memo = Memo::new();
        memo.insert((4u32, 8u32), 1.0);
        memo.insert((4, 8), 2.0);
        assert_eq!(memo.get(&(4, 8), |v| *v), Some(2.0));
        assert_eq!(memo.len(), 1);
        assert!(!memo.is_empty());
    }

    #[test]
    fn concurrent_mixed_access_is_consistent() {
        let memo = Memo::new();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..200usize {
                        let key = [i % 50, 50 + (i + t) % 7];
                        assert_eq!(memoized(memo, &key, || key.len()), key.len());
                    }
                });
            }
        });
        assert!(memo.len() <= 50 * 7);
    }

    #[test]
    fn deterministic_and_discriminating() {
        let a = hash_of(&[1usize, 4, 6][..]);
        assert_eq!(a, hash_of(&[1usize, 4, 6][..]), "same key, same hash");
        assert_ne!(a, hash_of(&[1usize, 4, 7][..]));
        assert_ne!(a, hash_of(&[1usize, 4][..]));
        // A boxed key hashes as its borrowed slice: both find one shard.
        let boxed: Box<[usize]> = Box::from(&[1usize, 4, 6][..]);
        assert_eq!(a, hash_of(&boxed));
        // Adjacent single-element keys must not collide (shard spread).
        let singles: std::collections::HashSet<u64> =
            (0..1000usize).map(|i| hash_of(&[i][..])).collect();
        assert_eq!(singles.len(), 1000);
    }

    #[test]
    fn u32_and_byte_paths_work() {
        let a = hash_of(&[7u32, 9, 11][..]);
        assert_eq!(a, hash_of(&[7u32, 9, 11][..]));
        assert_ne!(a, hash_of(&[7u32, 9, 12][..]));
        assert_ne!(hash_of("abc"), hash_of("abd"));
    }
}
