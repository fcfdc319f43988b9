//! The Type 1 round scheduler (§2.1 of the paper).
//!
//! *"The Type 1 algorithms that we describe can be parallelized by running a
//! sequence of rounds. Each round checks all remaining iterations to see if
//! their dependences have been satisfied and runs the iterations if so."*
//!
//! The executor itself lives in [`crate::engine`]
//! ([`execute_type1`](crate::engine::execute_type1)); this module defines
//! the [`Type1Algorithm`] contract. The generic executor is the reference
//! scheduler: it measures the iteration dependence depth of *any* plugged
//! incremental algorithm (the number of rounds equals `D(G)` when `ready`
//! faithfully encodes the dependences). The production algorithms
//! (`ri-sort`, `ri-delaunay`) ship specialised lock-free versions of the
//! same schedule; their tests check equivalence against this one.

/// An incremental algorithm exposing its per-iteration readiness.
///
/// Contract:
/// * `ready(k)` may be called concurrently (`&self`) and must be *monotone*:
///   once true it stays true until `run(k)` happens.
/// * `run(k)` is called exactly once, only when `ready(k)` held at the start
///   of the round; iterations run within a round must not depend on each
///   other (that is exactly the iteration-dependence-graph contract of
///   Definition 1).
/// * `begin_round(r)` is called once at the start of executor round `r`
///   (0-based), before that round's `ready` checks — instrumentation hook
///   for algorithms that track *when* each iteration ran.
pub trait Type1Algorithm: Sync {
    /// Number of iterations.
    fn len(&self) -> usize;

    /// Convenience emptiness test.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Are all of iteration `k`'s dependences satisfied?
    fn ready(&self, k: usize) -> bool;

    /// Estimated nanoseconds per `ready` check: the executor's per-item
    /// cost for the go-parallel rule ([`crate::engine::grain`]).
    fn item_ns(&self) -> u64 {
        crate::engine::grain::DEFAULT_ITEM_NS
    }

    /// Round-start hook (see trait docs). Default: no-op.
    fn begin_round(&mut self, round: usize) {
        let _ = round;
    }

    /// Execute iteration `k`.
    fn run(&mut self, k: usize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_type1, RunConfig, Runner};

    /// Toy Type 1 algorithm: iteration k is ready once all of its listed
    /// predecessors ran. Records the round in which each iteration ran
    /// (via the executor's `begin_round` hook).
    struct Toy {
        preds: Vec<Vec<usize>>,
        done: Vec<std::sync::atomic::AtomicBool>,
        ran_round: Vec<usize>,
        current_round: usize,
    }

    impl Toy {
        fn new(preds: Vec<Vec<usize>>) -> Self {
            let n = preds.len();
            Toy {
                preds,
                done: (0..n).map(|_| Default::default()).collect(),
                ran_round: vec![usize::MAX; n],
                current_round: usize::MAX,
            }
        }
    }

    impl Type1Algorithm for Toy {
        fn len(&self) -> usize {
            self.preds.len()
        }
        fn ready(&self, k: usize) -> bool {
            self.preds[k]
                .iter()
                .all(|&p| self.done[p].load(std::sync::atomic::Ordering::Relaxed))
        }
        fn begin_round(&mut self, round: usize) {
            self.current_round = round;
        }
        fn run(&mut self, k: usize) {
            self.ran_round[k] = self.current_round;
            self.done[k].store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn run_parallel(toy: &mut Toy) -> crate::engine::RunReport {
        Runner::new(RunConfig::new())
            .solve("toy", |cfg| ((), execute_type1(toy, cfg)))
            .1
    }

    #[test]
    fn rounds_equal_dag_depth() {
        // Chain 0 -> 1 -> 2 plus independent 3: depth 3.
        let mut toy = Toy::new(vec![vec![], vec![0], vec![1], vec![]]);
        let report = run_parallel(&mut toy);
        assert_eq!(report.rounds.rounds(), 3);
        assert_eq!(report.depth, 3);
        // Per-round placement: each iteration ran in the round equal to its
        // depth in the DAG (0 and 3 immediately; 1 and 2 one level apart).
        assert_eq!(toy.ran_round, vec![0, 1, 2, 0]);
    }

    #[test]
    fn diamond_runs_in_three_rounds() {
        let mut toy = Toy::new(vec![vec![], vec![0], vec![0], vec![1, 2]]);
        let report = run_parallel(&mut toy);
        assert_eq!(report.rounds.rounds(), 3);
        assert_eq!(report.rounds.entries()[0].0, 1);
        assert_eq!(report.rounds.entries()[1].0, 2);
        assert_eq!(report.rounds.entries()[2].0, 1);
        assert_eq!(toy.ran_round, vec![0, 1, 1, 2]);
    }

    #[test]
    fn independent_iterations_single_round() {
        let mut toy = Toy::new(vec![vec![]; 100]);
        let report = run_parallel(&mut toy);
        assert_eq!(report.rounds.rounds(), 1);
        assert!(toy.ran_round.iter().all(|&r| r == 0));
    }

    #[test]
    fn sequential_mode_runs_in_insertion_order() {
        let mut toy = Toy::new(vec![vec![], vec![0], vec![1], vec![]]);
        let report = execute_type1(&mut toy, &RunConfig::new().sequential());
        assert_eq!(report.depth, 4, "sequential depth is the iteration count");
        // In sequential mode `begin_round(k)` fires per iteration.
        assert_eq!(toy.ran_round, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn cycle_detected_as_stall() {
        // 0 depends on 1 via a fake "never ready" encoding.
        struct Never;
        impl Type1Algorithm for Never {
            fn len(&self) -> usize {
                1
            }
            fn ready(&self, _k: usize) -> bool {
                false
            }
            fn run(&mut self, _k: usize) {}
        }
        run_parallel_never(&mut Never);
        fn run_parallel_never(algo: &mut Never) {
            Runner::new(RunConfig::new()).solve("never", |cfg| ((), execute_type1(algo, cfg)));
        }
    }

    #[test]
    fn empty_input() {
        let mut toy = Toy::new(vec![]);
        let report = run_parallel(&mut toy);
        assert_eq!(report.rounds.rounds(), 0);
        assert_eq!(report.depth, 0);
    }
}
