//! The round-scoped scratch workspace of the engine.
//!
//! Every executor round used to allocate its working vectors fresh —
//! ready flags, survivor lists, per-round output batches — so allocator
//! traffic grew with the *round count times the round size*, dominating
//! the long tail of small prefix-doubling rounds. [`RoundScratch`] is the
//! engine-level face of the per-thread buffer pool in
//! [`ri_pram::scratch`]: executors and algorithm hot paths [`take_vec`] a
//! cleared, capacity-preserving buffer at the start of a run, reuse it
//! every round, and [`put_vec`] it back at the end, so a run's steady
//! state allocates nothing per round and *repeated* runs on one thread
//! (a serving executor thread, a bench loop) reuse each other's buffers
//! too.
//!
//! ## Lifetime rules
//!
//! * Taken buffers are always **empty**; only capacity is reused. No run
//!   can observe another run's data — repeated runs are byte-identical
//!   to fresh-state runs (asserted by `tests/scratch_reuse.rs`).
//! * The pool is per-thread. Round-orchestrating code (executor loops,
//!   `combine` steps) runs on the installing thread and reuses fully;
//!   scoped crew helpers are short-lived and just allocate.
//! * Return what you take. A buffer that is *not* returned is merely an
//!   ordinary allocation — correctness never depends on pooling.
//!
//! [`Runner::solve`](super::Runner::solve) measures the pool around every
//! solve and stamps the deltas on the report
//! (`RunReport::{scratch_hits, scratch_misses}`), alongside the region /
//! helper-spawn counters from the scheduler, so the reuse (and the grain
//! policy in [`super::grain`]) is observable per run.

pub use ri_pram::scratch::{put_vec, stats, take_vec, ScratchStats};

/// Measures one run's interaction with the calling thread's scratch pool
/// and parallel-region counters: construct before executing, read the
/// deltas after. Owned by [`Runner`](super::Runner) for the duration of
/// [`solve`](super::Runner::solve).
#[derive(Debug, Clone)]
pub struct RoundScratch {
    base: ScratchStats,
    regions: usize,
    helpers: usize,
}

impl RoundScratch {
    /// Snapshot the calling thread's counters.
    pub fn begin() -> Self {
        RoundScratch {
            base: stats(),
            regions: rayon::crew_regions(),
            helpers: rayon::helper_threads_spawned(),
        }
    }

    /// Scratch-pool activity since [`begin`](RoundScratch::begin):
    /// `(hits, misses)` of [`take_vec`] on this thread.
    pub fn scratch_delta(&self) -> (u64, u64) {
        let d = stats().since(&self.base);
        (d.hits, d.misses)
    }

    /// Multi-member parallel regions this thread started since
    /// [`begin`](RoundScratch::begin) (0 for runs whose every round the
    /// [`grain`](super::grain) rule kept inline).
    pub fn regions_delta(&self) -> u64 {
        (rayon::crew_regions() - self.regions) as u64
    }

    /// Scoped helper threads this thread spawned since
    /// [`begin`](RoundScratch::begin).
    pub fn helper_spawns_delta(&self) -> u64 {
        (rayon::helper_threads_spawned() - self.helpers) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_track_take_and_put() {
        struct Local(#[allow(dead_code)] u32);
        let ws = RoundScratch::begin();
        let mut v: Vec<Local> = take_vec();
        v.reserve(32);
        put_vec(v);
        let _v: Vec<Local> = take_vec();
        let (hits, misses) = ws.scratch_delta();
        assert!(hits >= 1, "second take reuses the returned buffer");
        assert!(misses >= 1, "first take of a fresh type misses");
    }

    #[test]
    fn regions_flat_without_parallel_work() {
        let ws = RoundScratch::begin();
        let v: Vec<u64> = (0..100).collect();
        let s: u64 = v.iter().sum();
        assert!(s > 0);
        assert_eq!(ws.regions_delta(), 0);
        assert_eq!(ws.helper_spawns_delta(), 0);
    }
}
