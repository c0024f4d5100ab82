//! Hot-key LRU cache for the serving frontend.
//!
//! Sized in *bytes* against a [`MemoryMeter`] budget rather than in
//! entries: a cached embedding row costs its real width, a cached rank
//! costs a few words, and the cache evicts in exact least-recently-used
//! order until a new value fits. Under Zipf-skewed traffic (the regime the
//! paper's online workloads live in) a small budget absorbs most of the
//! head of the distribution — `loadgen`'s cache tests and the benchmark's
//! `serve.cache_hit_rate` row measure exactly that.

use psgraph_sim::{FxHashMap, MemoryMeter};
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    bytes: u64,
    prev: usize,
    next: usize,
}

/// An exact-LRU, byte-budgeted cache.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot — the eviction victim.
    tail: usize,
    meter: MemoryMeter,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// A cache allowed to hold at most `budget` bytes of values.
    pub fn new(budget: u64) -> Self {
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            meter: MemoryMeter::new("serve.cache", budget),
            hits: 0,
            misses: 0,
            evictions: 0,
            rejected: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn bytes_used(&self) -> u64 {
        self.meter.in_use()
    }

    pub fn budget(&self) -> u64 {
        self.meter.budget()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Inserts refused because the value alone exceeds the whole budget.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit. Counts
    /// a hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.unlink(i);
                self.push_front(i);
                self.hits += 1;
                Some(&self.slots[i].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up without promoting or counting (for inspection/tests).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slots[i].value)
    }

    /// Insert (or update) `key` with a value that accounts for `bytes` of
    /// the budget. Evicts exact-LRU entries until it fits. Returns `false`
    /// — and caches nothing — when `bytes` alone exceeds the budget.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) -> bool {
        // Reject before touching the old entry: an oversized update must
        // leave the previous value cached, not drop the key entirely.
        if bytes > self.meter.budget() {
            self.rejected += 1;
            return false;
        }
        if let Some(&i) = self.map.get(&key) {
            // Update: retire the old entry first, then insert fresh.
            self.evict_slot(i);
        }
        while self.meter.alloc(bytes).is_err() {
            let victim = self.tail;
            assert!(victim != NIL, "over budget with an empty cache");
            self.evict_slot(victim);
            self.evictions += 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot { key: key.clone(), value, bytes, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slots.push(Slot { key: key.clone(), value, bytes, prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        true
    }

    fn evict_slot(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        self.meter.free(self.slots[i].bytes);
        self.free.push(i);
    }

    /// Drop `key` if cached (invalidation, not eviction — counts toward
    /// neither `evictions` nor `rejected`). Returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.get(key).copied() {
            Some(i) => {
                self.evict_slot(i);
                true
            }
            None => false,
        }
    }

    /// Keep only entries whose key satisfies `keep`; returns how many were
    /// invalidated. LRU order of the survivors is preserved.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let doomed: Vec<usize> =
            self.map.iter().filter(|(k, _)| !keep(k)).map(|(_, &i)| i).collect();
        let n = doomed.len();
        for i in doomed {
            self.evict_slot(i);
        }
        n
    }

    /// Keys from least- to most-recently used (for the eviction-order
    /// property test).
    pub fn keys_lru_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.tail;
        while i != NIL {
            out.push(self.slots[i].key.clone());
            i = self.slots[i].prev;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_promotion() {
        let mut c: LruCache<u64, &str> = LruCache::new(100);
        assert!(c.insert(1, "a", 30));
        assert!(c.insert(2, "b", 30));
        assert!(c.insert(3, "c", 30));
        assert_eq!(c.get(&1), Some(&"a")); // 1 is now most recent
        assert!(c.get(&9).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        // Inserting 50 bytes must evict 2 then 3 (LRU order), not 1.
        assert!(c.insert(4, "d", 50));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&2).is_none());
        assert!(c.peek(&3).is_none());
        assert_eq!(c.evictions(), 2);
        assert!(c.bytes_used() <= c.budget());
    }

    #[test]
    fn update_replaces_bytes() {
        let mut c: LruCache<u64, u64> = LruCache::new(100);
        assert!(c.insert(1, 10, 80));
        assert!(c.insert(1, 11, 50));
        assert_eq!(c.bytes_used(), 50);
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_value_is_rejected_not_cached() {
        let mut c: LruCache<u64, u64> = LruCache::new(10);
        assert!(!c.insert(1, 1, 11));
        assert_eq!(c.len(), 0);
        assert_eq!(c.rejected(), 1);
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn oversized_update_keeps_the_old_entry() {
        // Regression: insert used to retire the existing entry *before*
        // the oversized check, so a too-big update dropped the key from
        // the cache entirely instead of leaving the old value cached.
        let mut c: LruCache<u64, u64> = LruCache::new(100);
        assert!(c.insert(1, 10, 80));
        assert!(!c.insert(1, 11, 150));
        assert_eq!(c.peek(&1), Some(&10), "old value must survive a rejected update");
        assert_eq!(c.bytes_used(), 80);
        assert_eq!(c.rejected(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn remove_and_retain_invalidate_exactly() {
        let mut c: LruCache<u64, u64> = LruCache::new(1000);
        for k in 0..6 {
            assert!(c.insert(k, k * 10, 10));
        }
        assert!(c.remove(&2));
        assert!(!c.remove(&2));
        assert_eq!(c.retain(|&k| k % 2 == 1), 2); // drops 0 and 4
        assert_eq!(c.keys_lru_order(), vec![1, 3, 5]);
        assert_eq!(c.bytes_used(), 30);
        // Invalidation is not eviction and is not a rejection.
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.rejected(), 0);
        // Freed slots are reusable.
        assert!(c.insert(7, 70, 10));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut c: LruCache<u64, u64> = LruCache::new(0);
        assert!(!c.insert(1, 1, 8));
        assert!(c.get(&1).is_none());
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn lru_order_is_tail_to_head() {
        let mut c: LruCache<u64, ()> = LruCache::new(1000);
        for k in 0..4 {
            assert!(c.insert(k, (), 10));
        }
        c.get(&0);
        assert_eq!(c.keys_lru_order(), vec![1, 2, 3, 0]);
    }
}
