//! Round instrumentation.
//!
//! The paper's claims are about *work* (total operations) and *depth*
//! (rounds of the parallel executors). Every algorithm crate reports its
//! measurements through [`RoundLog`] so the bench harness can print
//! paper-vs-measured tables from one code path. Work itself — comparisons
//! for sorting, InCircle tests for Delaunay, vertex visits for the graph
//! algorithms — is counted per item or per chunk by whoever does it and
//! summed after each round, so no shared counter is bumped inside a
//! parallel round.

/// Per-round log of a parallel execution: how many items ran in each round
/// and how much work the round did. `rounds()` is the measured *depth* in
/// the model sense of the paper's theorems.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RoundLog {
    entries: Vec<(usize, u64)>,
}

impl RoundLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed round.
    pub fn record(&mut self, items: usize, work: u64) {
        self.entries.push((items, work));
    }

    /// Number of rounds executed (the measured depth).
    pub fn rounds(&self) -> usize {
        self.entries.len()
    }

    /// Total work across rounds.
    pub fn total_work(&self) -> u64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// The raw `(items, work)` entries, one per round.
    pub fn entries(&self) -> &[(usize, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_log_aggregates() {
        let mut log = RoundLog::new();
        log.record(10, 100);
        log.record(20, 50);
        log.record(5, 5);
        assert_eq!(log.rounds(), 3);
        assert_eq!(log.total_work(), 155);
        assert_eq!(log.entries(), &[(10, 100), (20, 50), (5, 5)]);
    }

    #[test]
    fn empty_log() {
        let log = RoundLog::new();
        assert_eq!(log.rounds(), 0);
        assert_eq!(log.total_work(), 0);
    }
}
