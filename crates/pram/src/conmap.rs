//! A concurrent fixed-capacity hash map with **two value slots per key**.
//!
//! This is exactly the structure the parallel Delaunay algorithm needs
//! (§4): *"a hashmap that maps faces to their up to two neighboring
//! triangles."* Keys are inserted with CAS linear probing (never removed
//! mid-phase); each key owns two value slots filled/replaced with CAS.
//! Concurrent inserts of the same face from two adjacent triangles land in
//! the two slots in either order — the algorithm never cares which side is
//! "first".
//!
//! Capacity is fixed during a parallel phase; [`ConcurrentPairMap::grow`]
//! rebuilds into a larger table between rounds (rounds are synchronisation
//! points in all our executors).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::hash::hash_u64;

const KEY_EMPTY: u64 = 0; // keys stored as key+1, so 0 means vacant
const VAL_EMPTY: u64 = u64::MAX;

/// The up-to-two values currently registered under a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairSlots {
    /// First slot (if filled).
    pub a: Option<u64>,
    /// Second slot (if filled).
    pub b: Option<u64>,
}

impl PairSlots {
    /// Iterate over the filled values.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.a.into_iter().chain(self.b)
    }
}

/// Concurrent hash map `u64 key -> (up to two u64 values)`.
pub struct ConcurrentPairMap {
    keys: Vec<AtomicU64>,
    vals: Vec<[AtomicU64; 2]>,
    mask: usize,
    occupied: AtomicUsize,
}

impl ConcurrentPairMap {
    /// Create a map able to hold `capacity` keys comfortably (the table is
    /// sized to the next power of two ≥ 2·capacity to keep probes short).
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (2 * capacity.max(8)).next_power_of_two();
        let mut keys = Vec::with_capacity(slots);
        keys.resize_with(slots, || AtomicU64::new(KEY_EMPTY));
        let mut vals = Vec::with_capacity(slots);
        vals.resize_with(slots, || {
            [AtomicU64::new(VAL_EMPTY), AtomicU64::new(VAL_EMPTY)]
        });
        ConcurrentPairMap {
            keys,
            vals,
            mask: slots - 1,
            occupied: AtomicUsize::new(0),
        }
    }

    /// Number of distinct keys inserted.
    fn len(&self) -> usize {
        self.occupied.load(Ordering::Acquire)
    }

    /// Table slot count (for load-factor decisions).
    fn slots(&self) -> usize {
        self.keys.len()
    }

    /// True when the caller should [`grow`](Self::grow) before the next
    /// parallel phase (load factor above 1/2).
    pub fn should_grow(&self) -> bool {
        2 * self.len() >= self.slots()
    }

    fn probe_start(&self, key: u64) -> usize {
        (hash_u64(key) as usize) & self.mask
    }

    fn find_or_claim(&self, key: u64) -> usize {
        assert!(key != u64::MAX, "u64::MAX key is reserved");
        let stored = key.wrapping_add(1);
        let mut i = self.probe_start(key);
        loop {
            let cur = self.keys[i].load(Ordering::Acquire);
            if cur == stored {
                return i;
            }
            if cur == KEY_EMPTY {
                match self.keys[i].compare_exchange(
                    KEY_EMPTY,
                    stored,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        let used = self.occupied.fetch_add(1, Ordering::AcqRel) + 1;
                        assert!(
                            used * 10 <= self.slots() * 9,
                            "ConcurrentPairMap over 90% full: grow between rounds"
                        );
                        return i;
                    }
                    Err(now) if now == stored => return i,
                    Err(_) => { /* someone claimed a different key; keep probing */ }
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    fn find(&self, key: u64) -> Option<usize> {
        let stored = key.wrapping_add(1);
        let mut i = self.probe_start(key);
        loop {
            match self.keys[i].load(Ordering::Acquire) {
                c if c == stored => return Some(i),
                KEY_EMPTY => return None,
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Register `value` under `key`, filling the first free slot.
    ///
    /// Panics if both slots are already filled with *different* values — in
    /// the Delaunay use-case a face can only ever be claimed by two
    /// triangles, so a third insert is a logic error worth failing loudly on.
    pub fn insert(&self, key: u64, value: u64) {
        debug_assert!(value != VAL_EMPTY, "u64::MAX value is reserved");
        let idx = self.find_or_claim(key);
        for slot in &self.vals[idx] {
            match slot.compare_exchange(VAL_EMPTY, value, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(existing) if existing == value => return,
                Err(_) => { /* slot taken by the other side; try next */ }
            }
        }
        panic!("ConcurrentPairMap: third distinct value inserted for key {key}");
    }

    /// Read the (up to two) values under `key`.
    pub fn get(&self, key: u64) -> PairSlots {
        match self.find(key) {
            None => PairSlots::default(),
            Some(idx) => {
                let read = |s: &AtomicU64| match s.load(Ordering::Acquire) {
                    VAL_EMPTY => None,
                    v => Some(v),
                };
                PairSlots {
                    a: read(&self.vals[idx][0]),
                    b: read(&self.vals[idx][1]),
                }
            }
        }
    }

    /// Atomically replace value `old` with `new` under `key`. Returns
    /// whether a slot holding `old` was found and swapped.
    pub fn replace(&self, key: u64, old: u64, new: u64) -> bool {
        if let Some(idx) = self.find(key) {
            for slot in &self.vals[idx] {
                if slot
                    .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return true;
                }
            }
        }
        false
    }

    /// Snapshot all `(key, slots)` entries (sequential; call between phases).
    pub fn entries(&self) -> Vec<(u64, PairSlots)> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.keys.len() {
            let k = self.keys[i].load(Ordering::Acquire);
            if k != KEY_EMPTY {
                let read = |s: &AtomicU64| match s.load(Ordering::Acquire) {
                    VAL_EMPTY => None,
                    v => Some(v),
                };
                out.push((
                    k.wrapping_sub(1),
                    PairSlots {
                        a: read(&self.vals[i][0]),
                        b: read(&self.vals[i][1]),
                    },
                ));
            }
        }
        out
    }

    /// Rebuild into a table with twice the slots (call between phases; takes
    /// `&mut self` so no concurrent access can exist).
    pub fn grow(&mut self) {
        let bigger = ConcurrentPairMap::with_capacity(self.slots());
        for (k, slots) in self.entries() {
            for v in slots.iter() {
                bigger.insert(k, v);
            }
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn insert_get_two_sides() {
        let m = ConcurrentPairMap::with_capacity(16);
        m.insert(42, 1);
        m.insert(42, 2);
        let s = m.get(42);
        let mut vs: Vec<u64> = s.iter().collect();
        vs.sort_unstable();
        assert_eq!(vs, vec![1, 2]);
    }

    #[test]
    fn missing_key_is_empty() {
        let m = ConcurrentPairMap::with_capacity(16);
        assert_eq!(m.get(7), PairSlots::default());
    }

    #[test]
    fn replace_swaps_matching_slot() {
        let m = ConcurrentPairMap::with_capacity(16);
        m.insert(5, 10);
        m.insert(5, 20);
        assert!(m.replace(5, 10, 30));
        assert!(!m.replace(5, 10, 40)); // 10 already gone
        let mut vs: Vec<u64> = m.get(5).iter().collect();
        vs.sort_unstable();
        assert_eq!(vs, vec![20, 30]);
    }

    #[test]
    fn concurrent_inserts_distinct_keys() {
        let m = ConcurrentPairMap::with_capacity(100_000);
        // Forced onto a crew, so the writers really race.
        crate::forced(|| {
            (0..100_000u64).into_par_iter().for_each(|k| {
                m.insert(k, k * 2);
            })
        });
        assert_eq!(m.len(), 100_000);
        for k in (0..100_000u64).step_by(997) {
            assert_eq!(m.get(k).a, Some(k * 2));
        }
    }

    #[test]
    fn concurrent_pair_inserts_same_key() {
        let m = ConcurrentPairMap::with_capacity(10_000);
        // Two writers per key racing for the two slots, on a crew.
        crate::forced(|| {
            (0..20_000u64).into_par_iter().for_each(|i| {
                let key = i / 2;
                m.insert(key, i + 1);
            })
        });
        for key in 0..10_000u64 {
            let s = m.get(key);
            let mut vs: Vec<u64> = s.iter().collect();
            vs.sort_unstable();
            assert_eq!(vs, vec![2 * key + 1, 2 * key + 2]);
        }
    }

    #[test]
    fn grow_preserves_entries() {
        let mut m = ConcurrentPairMap::with_capacity(8);
        for k in 0..8u64 {
            m.insert(k, k + 100);
        }
        m.grow();
        for k in 0..8u64 {
            assert_eq!(m.get(k).a, Some(k + 100));
        }
    }

    #[test]
    #[should_panic(expected = "third distinct value")]
    fn third_value_panics() {
        let m = ConcurrentPairMap::with_capacity(8);
        m.insert(1, 10);
        m.insert(1, 20);
        m.insert(1, 30);
    }

    #[test]
    fn zero_key_supported() {
        let m = ConcurrentPairMap::with_capacity(8);
        m.insert(0, 9);
        assert_eq!(m.get(0).a, Some(9));
    }
}
