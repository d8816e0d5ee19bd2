//! A sharded, thread-safe memo of per-coalition evaluations.
//!
//! CCSGA's best-response dynamics re-price the same coalition compositions
//! over and over: a composition visited in round `r` is typically probed
//! again by several players in round `r + 1`. [`CoalitionCache`] memoizes
//! any per-composition value (the CCS core stores the best facility choice
//! plus the member shares) behind `parking_lot` mutexes, sharded by key
//! hash so the engine's parallel candidate evaluations rarely contend.
//!
//! Hits and misses are counted on the global telemetry registry as
//! `cache.hits` / `cache.misses`, so run reports show how much re-pricing
//! the memo absorbed.
//!
//! Determinism: values are produced by the caller's closure, which must be
//! a pure function of the composition. Two threads racing on the same
//! missing key may both compute the value (the compute runs outside the
//! shard lock), but only the first insert is kept and both computed values
//! are identical, so observable behaviour does not depend on scheduling.

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::fasthash::FastBuildHasher;

use parking_lot::Mutex;

/// Number of independent shards; a small power of two keeps the modulo
/// cheap while comfortably out-counting the worker threads.
const SHARDS: usize = 16;

/// One shard: a fast-hashed map from sorted member list to shared value.
type Shard<V> = Mutex<HashMap<Vec<usize>, Arc<V>, FastBuildHasher>>;

/// A thread-safe memo from coalition composition (sorted member indices)
/// to a shared, immutable evaluation result.
pub struct CoalitionCache<V> {
    shards: Vec<Shard<V>>,
}

impl<V> Default for CoalitionCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for CoalitionCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoalitionCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl<V> CoalitionCache<V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CoalitionCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    fn shard_of(key: &[usize]) -> usize {
        (FastBuildHasher::default().hash_one(key) as usize) % SHARDS
    }

    /// Returns the memoized value for `coalition` (a sorted member slice),
    /// computing and inserting it with `compute` on a miss.
    ///
    /// The hit path performs **no allocation at all** — the engine's probes
    /// price warm compositions this way; the owned `Vec` key is only built
    /// on a miss, alongside the (much more expensive) value computation.
    /// `compute` must be a pure function of the composition; it runs
    /// *outside* the shard lock, so concurrent misses on the same key may
    /// compute redundantly, but the first inserted value wins and all
    /// callers observe it.
    pub fn get_or_insert_with(&self, coalition: &[usize], compute: impl FnOnce() -> V) -> Arc<V> {
        debug_assert!(
            coalition.windows(2).all(|w| w[0] < w[1]),
            "key must be sorted"
        );
        let shard = &self.shards[Self::shard_of(coalition)];
        if let Some(hit) = shard.lock().get(coalition) {
            ccs_telemetry::counter!("cache.hits").incr();
            return Arc::clone(hit);
        }
        ccs_telemetry::counter!("cache.misses").incr();
        let value = Arc::new(compute());
        let mut guard = shard.lock();
        Arc::clone(guard.entry(coalition.to_vec()).or_insert(value))
    }

    /// Returns the memoized value for `coalition` (a sorted member slice)
    /// without computing. Not counted as a hit or miss.
    pub fn get(&self, coalition: &[usize]) -> Option<Arc<V>> {
        debug_assert!(
            coalition.windows(2).all(|w| w[0] < w[1]),
            "key must be sorted"
        );
        self.shards[Self::shard_of(coalition)]
            .lock()
            .get(coalition)
            .map(Arc::clone)
    }

    /// Number of memoized compositions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn memoizes_per_composition() {
        let cache = CoalitionCache::new();
        let computes = AtomicUsize::new(0);
        let eval = |c: &[usize]| {
            cache.get_or_insert_with(c, || {
                computes.fetch_add(1, Ordering::Relaxed);
                c.len() * 10
            })
        };
        assert_eq!(*eval(&[0, 2]), 20);
        assert_eq!(*eval(&[0, 2]), 20);
        assert_eq!(*eval(&[1]), 10);
        assert_eq!(computes.load(Ordering::Relaxed), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_compositions_do_not_collide() {
        let cache = CoalitionCache::new();
        for a in 0..10usize {
            for b in (a + 1)..10 {
                cache.get_or_insert_with(&[a, b], || (a, b));
            }
        }
        assert_eq!(cache.len(), 45);
        assert_eq!(*cache.get(&[3, 7]).unwrap(), (3, 7));
        assert!(cache.get(&[3, 7, 9]).is_none());
    }

    #[test]
    fn concurrent_mixed_access_is_consistent() {
        let cache = CoalitionCache::new();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200usize {
                        let key = [i % 50, 50 + (i + t) % 7];
                        let value = cache.get_or_insert_with(&key, || key.len());
                        assert_eq!(*value, key.len());
                    }
                });
            }
        });
        assert!(cache.len() <= 50 * 7);
    }
}
