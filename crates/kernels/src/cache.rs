//! The prepared-program cache.
//!
//! Program generation (schedule resolution + codegen) is a pure
//! function of the tile class, the chosen schedule, the machine
//! fingerprint, and the batch size — none of which depend on a
//! request's payload — so prepared per-PE programs are shared across
//! every dispatch of a compatible batch. Keys follow the bench
//! runner's durable-point idiom (name + structural configuration
//! fingerprint), extended with the schedule encoding and the batch
//! size the codegen specialized for. The rule the one stager
//! ([`crate::tile::TileClass::stage_scheduled`]) keeps: every value
//! codegen reads is in the key.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vip_isa::Program;
use vip_snap::snapshot_struct;

/// Identity of one prepared program set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// The tile's shape key (`fc-2048x64`, `conv-4x8x16x8`, …) — the
    /// same string the schedule store files under.
    pub key: String,
    /// Encoding of the schedule the programs were generated for, plus
    /// whatever else the generator read that the shape key does not
    /// carry (a BP tile's iteration count).
    pub encoding: String,
    /// Structural configuration fingerprint of the target device
    /// ([`vip_core::SystemConfig::snapshot_fingerprint`]).
    pub fingerprint: u64,
    /// Batch size the codegen specialized for.
    pub batch: usize,
}

snapshot_struct!(CacheKey {
    key,
    encoding,
    fingerprint,
    batch
});

/// A concurrent map from [`CacheKey`] to shared prepared programs,
/// with hit/miss counters. Builds happen under the lock, so a key is
/// generated at most once even when parallel sweep points race for it
/// (and the counters stay deterministic in single-threaded use — the
/// resume test asserts on them).
///
/// Checkpoints persist the cache as its key set plus the counters
/// ([`ProgramCache::keys`] / [`ProgramCache::prime`]): programs are a
/// pure function of their key, so a restored run rebuilds each primed
/// entry silently on first touch — counted as the hit it was in the
/// original run, keeping resumed reports byte-identical.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: Mutex<HashMap<CacheKey, Arc<Vec<Program>>>>,
    /// Keys present at the restored checkpoint whose programs have not
    /// been rebuilt yet. A lookup of one counts a hit, not a miss.
    primed: Mutex<HashSet<CacheKey>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the prepared programs for `key`, building (and
    /// retaining) them via `build` on the first request.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a prior builder
    /// panicked).
    pub fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Vec<Program>,
    ) -> Arc<Vec<Program>> {
        let mut map = self.map.lock().expect("program cache lock");
        if let Some(found) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        // A primed key was cached when the checkpoint was taken: the
        // original run would have hit, so the resumed run counts the
        // hit and quietly regenerates the (key-determined) programs.
        if self.primed.lock().expect("primed set lock").remove(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let built = Arc::new(build());
        map.insert(key, Arc::clone(&built));
        built
    }

    /// Every key the cache answers for — built and primed alike —
    /// sorted so checkpoints are canonical.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned.
    #[must_use]
    pub fn keys(&self) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = self
            .map
            .lock()
            .expect("program cache lock")
            .keys()
            .cloned()
            .collect();
        keys.extend(self.primed.lock().expect("primed set lock").iter().cloned());
        keys.sort();
        keys.dedup();
        keys
    }

    /// Restores the cache to a checkpointed state: `keys` become
    /// primed (rebuilt silently on first touch) and the counters are
    /// set to their checkpointed values.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned.
    pub fn prime(&self, keys: Vec<CacheKey>, hits: u64, misses: u64) {
        let mut primed = self.primed.lock().expect("primed set lock");
        primed.clear();
        primed.extend(keys);
        self.hits.store(hits, Ordering::Relaxed);
        self.misses.store(misses, Ordering::Relaxed);
    }

    /// Lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct program sets currently retained.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("program cache lock").len()
    }

    /// Whether the cache holds nothing yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(batch: usize) -> CacheKey {
        CacheKey {
            key: "fc-8x8".into(),
            encoding: "kc8".into(),
            fingerprint: 0xfeed,
            batch,
        }
    }

    #[test]
    fn counts_hits_and_misses() {
        let cache = ProgramCache::new();
        let a = cache.get_or_build(key(1), Vec::new);
        let b = cache.get_or_build(key(1), || panic!("second lookup must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different batch size is a different prepared-program set.
        let _ = cache.get_or_build(key(2), Vec::new);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn primed_keys_rebuild_as_hits() {
        let cache = ProgramCache::new();
        cache.prime(vec![key(1)], 5, 3);
        assert_eq!((cache.hits(), cache.misses()), (5, 3));
        assert_eq!(cache.keys(), vec![key(1)]);
        // First touch of a primed key rebuilds but counts the hit the
        // original run took.
        let _ = cache.get_or_build(key(1), Vec::new);
        assert_eq!((cache.hits(), cache.misses()), (6, 3));
        // A never-seen key is still a miss.
        let _ = cache.get_or_build(key(2), Vec::new);
        assert_eq!((cache.hits(), cache.misses()), (6, 4));
        let mut keys = cache.keys();
        keys.sort();
        assert_eq!(keys, vec![key(1), key(2)]);
    }
}
