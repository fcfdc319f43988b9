//! Priority-write cells.
//!
//! On the priority-write CRCW PRAM, when several processors write the same
//! location in one step, the one with the smallest id wins. The paper uses
//! this for the parallel BST sort (§3, Line 7 of Algorithm 3) and for the
//! SCC combine step (§6.2). On shared-memory hardware the equivalent is an
//! atomic minimum: all writers race with `fetch_min`-style CAS loops, and
//! after a synchronisation point the surviving value is exactly the one the
//! PRAM would have kept.

use std::sync::atomic::{AtomicU64, Ordering};

/// A cell holding the minimum of all values written to it.
///
/// `u64::MAX` is the "empty" sentinel (no write yet). Values written must be
/// `< u64::MAX`.
#[derive(Debug)]
pub struct PriorityCell(AtomicU64);

impl Default for PriorityCell {
    fn default() -> Self {
        Self::new()
    }
}

impl PriorityCell {
    /// An empty cell.
    pub fn new() -> Self {
        PriorityCell(AtomicU64::new(u64::MAX))
    }

    /// Priority-write `value`: the cell keeps the minimum over all writes.
    /// Returns `true` if this write became (or already equalled) the current
    /// minimum.
    #[inline]
    pub fn write_min(&self, value: u64) -> bool {
        debug_assert!(value < u64::MAX, "u64::MAX is the empty sentinel");
        self.0.fetch_min(value, Ordering::AcqRel) >= value
    }

    /// Current minimum, or `None` if never written.
    #[inline]
    pub fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Acquire) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// Reset to empty (only safe between parallel phases).
    #[inline]
    pub fn reset(&self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

/// An array of priority-write slots indexed by location, used as a
/// "min-id per vertex" board (SCC reachability combine) or "min candidate
/// per tree slot" (BST sort rounds).
#[derive(Debug)]
pub struct MinIndex {
    slots: Vec<AtomicU64>,
}

impl MinIndex {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || AtomicU64::new(u64::MAX));
        MinIndex { slots }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Priority-write `value` into `slot`; the slot keeps the minimum.
    #[inline]
    pub fn write_min(&self, slot: usize, value: u64) {
        debug_assert!(value < u64::MAX);
        self.slots[slot].fetch_min(value, Ordering::AcqRel);
    }

    /// Read the winner of `slot` (`None` if untouched).
    #[inline]
    pub fn get(&self, slot: usize) -> Option<u64> {
        match self.slots[slot].load(Ordering::Acquire) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// Reset every slot to empty (sequential; call between phases).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s.get_mut() = u64::MAX;
        }
    }

    /// Reset a single slot.
    #[inline]
    pub fn reset(&self, slot: usize) {
        self.slots[slot].store(u64::MAX, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    /// Declared per-writer cost: enough that the writers run on a crew
    /// and really race at any width above 1.
    const RACING_NS: u64 = 1_000_000;

    #[test]
    fn cell_keeps_minimum() {
        let c = PriorityCell::new();
        assert_eq!(c.get(), None);
        assert!(c.write_min(10));
        assert!(!c.write_min(12));
        assert!(c.write_min(3));
        assert_eq!(c.get(), Some(3));
    }

    #[test]
    fn cell_concurrent_writers_agree_on_min() {
        let c = PriorityCell::new();
        (0..100_000u64)
            .into_par_iter()
            .with_cost(RACING_NS)
            .for_each(|i| {
                c.write_min((i * 7919) % 99_991 + 1);
            });
        // Min of (i*7919)%99991+1 over i in 0..100000: 1 occurs when i*7919 ≡ 0.
        assert_eq!(c.get(), Some(1));
    }

    #[test]
    fn board_priority_writes() {
        let b = MinIndex::new(16);
        (0..10_000u64)
            .into_par_iter()
            .with_cost(RACING_NS)
            .for_each(|i| {
                b.write_min((i % 16) as usize, i / 16 + 1);
            });
        for s in 0..16 {
            assert_eq!(b.get(s), Some(1));
        }
    }

    #[test]
    fn board_reset_and_clear() {
        let mut b = MinIndex::new(4);
        b.write_min(2, 5);
        b.reset(2);
        assert_eq!(b.get(2), None);
        b.write_min(0, 1);
        b.clear();
        assert_eq!(b.get(0), None);
    }

    #[test]
    fn tie_semantics_match_pram() {
        // Many writers of the same minimum: outcome equals that minimum and
        // at least one writer observes success.
        let c = PriorityCell::new();
        let wins: usize = (0..1000u64)
            .into_par_iter()
            .with_cost(RACING_NS)
            .map(|_| c.write_min(42) as usize)
            .sum();
        assert!(wins >= 1);
        assert_eq!(c.get(), Some(42));
    }
}
