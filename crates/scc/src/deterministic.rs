//! The deterministic SCC combine — §6.2's *"Acquiring the same
//! intermediate states as the sequential algorithm"*.
//!
//! The default parallel combine (parallel mode of
//! [`SccProblem`](crate::SccProblem)) is the paper's
//! eager variant: it cuts the partition by *every* search of a round,
//! which is "more aggressive than the sequential algorithm, but this will
//! only help". When determinism of intermediate states matters, the paper
//! describes a filter: process the round's searches per vertex in priority
//! order and drop the ones the sequential execution would not have made.
//!
//! The filter's core observation (paper): *"vertex z is forward reached
//! from x and reached from y, and at the meantime x has a higher priority.
//! The search of y affects z if and only if y is also reached in x's
//! forward search."* — because any path `y ⇝ z` stays on one side of `x`'s
//! forward split (if `x` reaches an intermediate vertex it reaches `z`
//! too), searching from `y` survives `x`'s split exactly when `y` and `z`
//! land on the same side. We implement the general form: per vertex a
//! running *signature* (its sequential sub-partition id within the round);
//! search `k` affects `z` iff `z`'s signature equals the signature of
//! `k`'s center at `k`'s turn. Signatures then refine by `k`'s
//! (fwd?, bwd?) membership. The result: after every round, the partition
//! (and the carved SCCs) are **identical** to the sequential algorithm's
//! state after the same prefix of iterations — verified by the tests
//! below.

use ri_core::engine::{execute_type3, RunConfig};
use ri_core::Type3Algorithm;
use ri_graph::{CsrGraph, SearchWork};
use ri_pram::hash::{hash_combine, hash_u64, FxHashSet};

use crate::incremental::{Footprint, SccResult, SccStats};

const DONE: u64 = u64::MAX;

/// Result of a deterministic parallel run, with per-round partition
/// snapshots for state-equivalence checking.
#[derive(Debug)]
pub struct DetSccRun {
    /// The standard result (components, stats).
    pub result: SccResult,
    /// Partition labels after each round (index = round), `u64::MAX` =
    /// assigned to an SCC. Compare against sequential prefix states with
    /// [`partition_classes`].
    pub snapshots: Vec<Vec<u64>>,
}

struct DetState<'a> {
    g: &'a CsrGraph,
    gt: CsrGraph,
    order: &'a [usize],
    part: Vec<u64>,
    comp: Vec<u32>,
    /// Search work of every round combined so far.
    work: SearchWork,
    queries: u64,
    snapshots: Vec<Vec<u64>>,
}

impl Type3Algorithm for DetState<'_> {
    type Output = Option<Footprint>;

    fn len(&self) -> usize {
        self.order.len()
    }

    fn run_iteration(&self, k: usize) -> Self::Output {
        let v = self.order[k] as u32;
        if self.part[v as usize] == DONE {
            return None;
        }
        Some(Footprint::search(self.g, &self.gt, v, &self.part))
    }

    fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
        // Per-round signatures: sig[z] starts at the frozen partition label
        // and refines search by search; kept in a side array indexed by
        // vertex (only touched vertices matter, but dense is simpler and
        // the round already did Ω(touched) work).
        let mut sig: Vec<u64> = self.part.clone();
        let mut round_work = SearchWork::default();

        for (off, out) in outputs.drain(..).enumerate() {
            let k = (lo + off) as u32;
            let Some(fp) = out else { continue };
            round_work += fp.work;
            let center = self.order[k as usize];
            // Sequentially, this center may already have been carved by an
            // earlier search *of this round*: then its iteration is the
            // paper's "S = ∅" skip and the whole search is filtered out.
            let sc = sig[center];
            if sc == DONE {
                continue;
            }
            self.queries += 1;

            let fwd_set: FxHashSet<u32> = fp.fwd.iter().copied().collect();
            let bwd_set: FxHashSet<u32> = fp.bwd.iter().copied().collect();
            // Apply the split to exactly the vertices this search reaches
            // sequentially: those whose signature matches the center's.
            // "Rest" vertices keep their signature, matching the sequential
            // convention that the remainder keeps its old label. A vertex
            // in both lists is visited twice by the chain; the signature
            // update on the first occurrence makes the `sig[zu] != sc`
            // filter skip the second, and both membership flags are
            // evaluated per occurrence, so carving wins on first sight.
            let salt = hash_u64(0x0DE7 ^ k as u64);
            let relabel =
                |flag: u64| hash_combine(hash_combine(salt, flag), hash_u64(sc)) & !(1 << 63);
            for &z in fp.fwd.iter().chain(&fp.bwd) {
                let zu = z as usize;
                if sig[zu] != sc {
                    continue; // filtered: sequentially unreachable
                }
                match (fwd_set.contains(&z), bwd_set.contains(&z)) {
                    (true, true) => {
                        sig[zu] = DONE;
                        self.comp[zu] = center as u32;
                    }
                    (true, false) => sig[zu] = relabel(1),
                    (false, _) => sig[zu] = relabel(2),
                }
            }
        }
        self.part = sig;
        self.snapshots.push(self.part.clone());
        self.work += round_work;
        round_work.total()
    }
}

/// Parallel SCC with the deterministic (sequential-faithful) combine.
///
/// Produces not only the same final components as the sequential run
/// ([`SccProblem`](crate::SccProblem) in sequential mode) but the same
/// *partition state* at every round boundary — at the cost of per-vertex membership filtering in the
/// combine (same asymptotic work).
pub fn scc_parallel_deterministic(g: &CsrGraph, order: &[usize]) -> DetSccRun {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let mut st = DetState {
        g,
        gt: g.transpose(),
        order,
        part: vec![0u64; n],
        comp: vec![u32::MAX; n],
        work: SearchWork::default(),
        queries: 0,
        snapshots: Vec::new(),
    };
    let log = execute_type3(&mut st, &RunConfig::new().parallel()).rounds;
    debug_assert!(st.comp.iter().all(|&c| c != u32::MAX));
    DetSccRun {
        result: SccResult {
            comp: st.comp,
            stats: SccStats {
                visits: st.work.visits,
                relaxations: st.work.relaxations,
                visits_per_vertex: Vec::new(),
                queries: st.queries,
                rounds: Some(log),
            },
        },
        snapshots: st.snapshots,
    }
}

/// Canonicalise a partition into comparable equivalence classes: each
/// vertex maps to the smallest vertex sharing its label (`u64::MAX`
/// labels — carved vertices — map to themselves marked by `u32::MAX`).
pub fn partition_classes(part: &[u64]) -> Vec<u32> {
    use std::collections::HashMap;
    let mut min_of: HashMap<u64, u32> = HashMap::new();
    for (v, &p) in part.iter().enumerate() {
        if p != DONE {
            let e = min_of.entry(p).or_insert(v as u32);
            if (v as u32) < *e {
                *e = v as u32;
            }
        }
    }
    part.iter()
        .map(|&p| if p == DONE { u32::MAX } else { min_of[&p] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{scc_sequential_impl, sequential_partition_after};
    use crate::{canonical_labels, tarjan_scc};
    use ri_core::prefix_rounds;
    use ri_graph::generators::{gnm, planted_sccs, random_dag};
    use ri_pram::random_permutation;

    fn check_state_equivalence(g: &CsrGraph, order: &[usize], tag: &str) {
        let det = scc_parallel_deterministic(g, order);
        // Final components equal Tarjan.
        assert_eq!(
            canonical_labels(&det.result.comp),
            canonical_labels(&tarjan_scc(g)),
            "{tag}: components"
        );
        // Partition state after every round equals the sequential partition
        // after the same prefix of iterations.
        for (r, (lo, hi)) in prefix_rounds(order.len()).into_iter().enumerate() {
            let _ = lo;
            let seq_part = sequential_partition_after(g, order, hi);
            assert_eq!(
                partition_classes(&det.snapshots[r]),
                partition_classes(&seq_part),
                "{tag}: partition state diverges after round {r} (prefix {hi})"
            );
        }
    }

    #[test]
    fn state_equivalence_random_digraphs() {
        for seed in 0..5 {
            let g = gnm(60, 180, seed, false);
            let order = random_permutation(60, seed ^ 0xD1);
            check_state_equivalence(&g, &order, "gnm");
        }
    }

    #[test]
    fn state_equivalence_dags() {
        for seed in 0..4 {
            let g = random_dag(50, 150, seed);
            let order = random_permutation(50, seed ^ 0xD2);
            check_state_equivalence(&g, &order, "dag");
        }
    }

    #[test]
    fn state_equivalence_planted() {
        for seed in 0..4 {
            let (g, _) = planted_sccs(&[8, 3, 12, 1, 6], 30, 40, seed);
            let order = random_permutation(30, seed ^ 0xD3);
            check_state_equivalence(&g, &order, "planted");
        }
    }

    #[test]
    fn deterministic_queries_match_sequential() {
        // The filter must skip exactly the searches sequential would skip.
        for seed in 0..5 {
            let g = gnm(120, 400, seed, false);
            let order = random_permutation(120, seed ^ 0xD4);
            let seq = scc_sequential_impl(&g, &order);
            let det = scc_parallel_deterministic(&g, &order);
            assert_eq!(
                seq.stats.queries, det.result.stats.queries,
                "seed {seed}: filtered query count differs"
            );
        }
    }

    #[test]
    fn partition_classes_canonicalisation() {
        assert_eq!(partition_classes(&[5, 9, 5, DONE]), vec![0, 1, 0, u32::MAX]);
    }
}
