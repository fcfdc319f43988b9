//! Algorithm 7 (sequential) and its Type 3 parallelisation.

use ri_core::engine::{execute_type3, RunConfig};
use ri_core::Type3Algorithm;
use ri_graph::{reachable_in_partition, CsrGraph, SearchWork};
use ri_pram::hash::{hash_combine, hash_u64};
use ri_pram::{semisort_by_key, RoundLog};

/// Estimated nanoseconds per iteration of a large parallel round: a
/// forward and a backward reachability search inside the center's
/// partition, or none once the center is carved (25–75 ns measured in the
/// rounds of 2k–15k iterations).
pub(crate) const SEARCH_PAIR_NS: u64 = 40;

/// Partition label of vertices already assigned to an SCC: no restricted
/// search ever matches it (searches start from undone vertices only).
const DONE: u64 = u64::MAX;

/// Result of an SCC run.
#[derive(Debug)]
pub struct SccResult {
    /// `comp[v]` = id of `v`'s SCC. Ids are vertex ids (`< n`) — the
    /// carving center — so [`crate::canonical_labels`] applies directly.
    pub comp: Vec<u32>,
    /// Work and round statistics.
    pub stats: SccStats,
}

/// Work/depth measurements of a run.
#[derive(Debug, Default)]
pub struct SccStats {
    /// Settled vertices over all reachability searches (both directions).
    pub visits: u64,
    /// Scanned edges over all searches.
    pub relaxations: u64,
    /// Per-vertex visit counts (Theorem 6.4: max is `O(log n)` whp).
    pub visits_per_vertex: Vec<u32>,
    /// Number of (non-skipped) reachability query pairs issued.
    pub queries: u64,
    /// Rounds of the parallel executor (`None` for sequential runs).
    pub rounds: Option<RoundLog>,
}

impl SccStats {
    /// Largest per-vertex visit count.
    pub fn max_visits_per_vertex(&self) -> u32 {
        self.visits_per_vertex.iter().copied().max().unwrap_or(0)
    }
}

/// Algorithm 7: sequential incremental SCC. `order[i]` is the vertex
/// processed at iteration `i`.
pub(crate) fn scc_sequential_impl(g: &CsrGraph, order: &[usize]) -> SccResult {
    scc_sequential_prefix(g, order, order.len()).0
}

/// Partition labels (`u64::MAX` = carved into an SCC) after sequentially
/// processing the first `m` iterations of Algorithm 7. Used by the
/// deterministic-combine state-equivalence tests (§6.2's "same
/// intermediate states" variant).
pub fn sequential_partition_after(g: &CsrGraph, order: &[usize], m: usize) -> Vec<u64> {
    scc_sequential_prefix(g, order, m).1
}

fn scc_sequential_prefix(g: &CsrGraph, order: &[usize], m: usize) -> (SccResult, Vec<u64>) {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    assert!(m <= n);
    let gt = g.transpose();
    let mut part = vec![0u64; n];
    let mut comp = vec![u32::MAX; n];
    let mut next_label = 1u64;
    let mut work = SearchWork::default();
    let mut per_vertex = vec![0u32; n];
    let mut queries = 0u64;

    for &vi in &order[..m] {
        let v = vi as u32;
        if part[vi] == DONE {
            continue; // the paper's "S = ∅" skip
        }
        queries += 1;
        let fwd = reachable_in_partition(g, v, &part, &mut work);
        let bwd = reachable_in_partition(&gt, v, &part, &mut work);
        for &u in fwd.iter().chain(&bwd) {
            per_vertex[u as usize] += 1;
        }
        // V_scc = R+ ∩ R−.
        let in_fwd: std::collections::HashSet<u32> = fwd.iter().copied().collect();
        let l_fwd = next_label;
        let l_bwd = next_label + 1;
        next_label += 2;
        for &u in &bwd {
            if in_fwd.contains(&u) {
                part[u as usize] = DONE;
                comp[u as usize] = v;
            } else {
                part[u as usize] = l_bwd;
            }
        }
        for &u in &fwd {
            if part[u as usize] != DONE && part[u as usize] != l_bwd {
                part[u as usize] = l_fwd;
            }
        }
        // The remainder S \ (R+ ∪ R−) keeps its old label.
    }
    debug_assert!(m < n || comp.iter().all(|&c| c != u32::MAX));
    (
        SccResult {
            comp,
            stats: SccStats {
                visits: work.visits,
                relaxations: work.relaxations,
                visits_per_vertex: per_vertex,
                queries,
                rounds: None,
            },
        },
        part,
    )
}

struct ParState<'a> {
    g: &'a CsrGraph,
    gt: CsrGraph,
    order: &'a [usize],
    part: Vec<u64>,
    comp: Vec<u32>,
    /// Search work of every round combined so far.
    work: SearchWork,
    per_vertex: Vec<u32>,
    queries: u64,
}

/// One search's footprint: the vertices reached forward and backward, and
/// the work both searches did.
pub(crate) struct Footprint {
    pub(crate) fwd: Vec<u32>,
    pub(crate) bwd: Vec<u32>,
    pub(crate) work: SearchWork,
}

impl Footprint {
    /// Both searches from `v` against the frozen partition `part`.
    pub(crate) fn search(g: &CsrGraph, gt: &CsrGraph, v: u32, part: &[u64]) -> Footprint {
        let mut work = SearchWork::default();
        let fwd = reachable_in_partition(g, v, part, &mut work);
        let bwd = reachable_in_partition(gt, v, part, &mut work);
        Footprint { fwd, bwd, work }
    }
}

impl Type3Algorithm for ParState<'_> {
    type Output = Option<Footprint>;

    fn len(&self) -> usize {
        self.order.len()
    }

    fn run_iteration(&self, k: usize) -> Self::Output {
        let v = self.order[k] as u32;
        if self.part[v as usize] == DONE {
            return None;
        }
        // Both searches run against the frozen partition of the previous
        // round.
        Some(Footprint::search(self.g, &self.gt, v, &self.part))
    }

    fn item_ns(&self) -> u64 {
        SEARCH_PAIR_NS
    }

    fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
        // Flatten to (vertex, center iteration k, direction) records.
        // The flat buffer (and the per-group center lists below) come from
        // the engine's scratch arena, so every round reuses allocations.
        const FWD: u32 = 0;
        const BWD: u32 = 1;
        let mut records: Vec<(u32, u32, u32)> = ri_pram::take_vec();
        let mut round_work = SearchWork::default();
        for (off, out) in outputs.drain(..).enumerate() {
            let k = (lo + off) as u32;
            if let Some(fp) = out {
                self.queries += 1;
                round_work += fp.work;
                for u in fp.fwd {
                    records.push((u, k, FWD));
                }
                for u in fp.bwd {
                    records.push((u, k, BWD));
                }
            }
        }
        for &(u, _, _) in &records {
            self.per_vertex[u as usize] += 1;
        }

        // Group the searches touching each vertex. Stability keeps each
        // group in center order (records were appended in k order).
        let grouped = semisort_by_key(records, |&(u, _, _)| u as u64);
        let mut fwd_ks: Vec<u32> = ri_pram::take_vec();
        let mut bwd_ks: Vec<u32> = ri_pram::take_vec();
        for (ukey, recs) in grouped.iter() {
            let u = ukey as usize;
            if self.part[u] == DONE {
                // Can happen only if u was carved in an *earlier* round and
                // a search still saw it — impossible with frozen partitions
                // (DONE vertices are excluded), so this is a hard error.
                unreachable!("search reached DONE vertex {u}");
            }
            fwd_ks.clear();
            bwd_ks.clear();
            fwd_ks.extend(recs.iter().filter(|r| r.2 == FWD).map(|r| r.1));
            bwd_ks.extend(recs.iter().filter(|r| r.2 == BWD).map(|r| r.1));
            // Minimum common center: u belongs to that center's SCC.
            let common = first_common(&fwd_ks, &bwd_ks);
            if let Some(c) = common {
                self.part[u] = DONE;
                self.comp[u] = self.order[c as usize] as u32;
            } else {
                // Eager refinement: any search separating two vertices cuts
                // them apart — the signature is (old label, fwd set, bwd set).
                let mut sig = hash_u64(self.part[u]);
                for &k in &fwd_ks {
                    sig = hash_combine(sig, (k as u64) << 1);
                }
                sig = hash_combine(sig, 0x5eed_5eed);
                for &k in &bwd_ks {
                    sig = hash_combine(sig, ((k as u64) << 1) | 1);
                }
                self.part[u] = sig & !(1 << 63); // keep clear of DONE
            }
        }
        ri_pram::put_vec(fwd_ks);
        ri_pram::put_vec(bwd_ks);
        ri_pram::put_vec(grouped.records);
        self.work += round_work;
        round_work.total()
    }
}

/// First element present in both ascending lists.
fn first_common(a: &[u32], b: &[u32]) -> Option<u32> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => return Some(a[i]),
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    None
}

/// Type 3 parallel SCC (Algorithm 2 applied to Algorithm 7): same
/// components as the sequential run / [`crate::tarjan_scc`], `O(log n)`
/// rounds of reachability; sequential requests take the dedicated
/// [`scc_sequential_impl`] path instead.
pub(crate) fn scc_parallel_impl(g: &CsrGraph, order: &[usize]) -> SccResult {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let mut st = ParState {
        g,
        gt: g.transpose(),
        order,
        part: vec![0u64; n],
        comp: vec![u32::MAX; n],
        work: SearchWork::default(),
        per_vertex: vec![0u32; n],
        queries: 0,
    };
    let inner = execute_type3(&mut st, &RunConfig::new().parallel());
    debug_assert!(st.comp.iter().all(|&c| c != u32::MAX));
    SccResult {
        comp: st.comp,
        stats: SccStats {
            visits: st.work.visits,
            relaxations: st.work.relaxations,
            visits_per_vertex: st.per_vertex,
            queries: st.queries,
            rounds: Some(inner.rounds),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canonical_labels, tarjan_scc};
    use ri_graph::generators::{gnm, planted_sccs, random_dag, rmat};
    use ri_pram::random_permutation;

    fn check_against_tarjan(g: &CsrGraph, seed: u64, tag: &str) {
        let n = g.num_vertices();
        let order = random_permutation(n, seed);
        let want = canonical_labels(&tarjan_scc(g));
        let seq = scc_sequential_impl(g, &order);
        let par = scc_parallel_impl(g, &order);
        assert_eq!(canonical_labels(&seq.comp), want, "{tag}: sequential");
        assert_eq!(canonical_labels(&par.comp), want, "{tag}: parallel");
    }

    #[test]
    fn random_digraphs_match_tarjan() {
        for seed in 0..6 {
            let g = gnm(150, 450, seed, false);
            check_against_tarjan(&g, seed ^ 0x111, "gnm-sparse");
            let g = gnm(100, 1200, seed, false);
            check_against_tarjan(&g, seed ^ 0x222, "gnm-dense");
        }
    }

    #[test]
    fn dags_match_tarjan() {
        for seed in 0..4 {
            let g = random_dag(200, 800, seed);
            check_against_tarjan(&g, seed ^ 0x333, "dag");
        }
    }

    #[test]
    fn planted_sccs_recovered() {
        for seed in 0..4 {
            let (g, truth) = planted_sccs(&[20, 1, 7, 33, 2, 13], 60, 90, seed);
            let order = random_permutation(g.num_vertices(), seed ^ 0x444);
            let par = scc_parallel_impl(&g, &order);
            assert_eq!(
                canonical_labels(&par.comp),
                canonical_labels(&truth),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn powerlaw_graph_matches() {
        let g = rmat(9, 4096, 3);
        check_against_tarjan(&g, 0x555, "rmat");
    }

    #[test]
    fn single_giant_cycle() {
        let n = 1000;
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        let g = CsrGraph::from_edges(n, &edges);
        check_against_tarjan(&g, 0x666, "cycle");
        // One query suffices sequentially: the first center carves all.
        let order = random_permutation(n, 1);
        let seq = scc_sequential_impl(&g, &order);
        assert_eq!(seq.stats.queries, 1);
    }

    #[test]
    fn empty_edges_all_singletons() {
        let g = CsrGraph::from_edges(50, &[]);
        check_against_tarjan(&g, 0x777, "no-edges");
    }

    #[test]
    fn visits_per_vertex_logarithmic() {
        let n = 1 << 12;
        let g = random_dag(n, 8 * n, 5); // DAG: adversarial (no carving shortcuts)
        let order = random_permutation(n, 6);
        let par = scc_parallel_impl(&g, &order);
        let max = par.stats.max_visits_per_vertex();
        assert!(
            (max as usize) < 10 * 12,
            "max visits/vertex {max} not O(log n)"
        );
    }

    #[test]
    fn rounds_logarithmic() {
        let n = 1 << 10;
        let g = gnm(n, 4 * n, 7, false);
        let order = random_permutation(n, 8);
        let par = scc_parallel_impl(&g, &order);
        assert_eq!(par.stats.rounds.unwrap().rounds(), 11);
    }

    #[test]
    fn parallel_work_constant_factor_of_sequential() {
        let n = 1 << 11;
        let g = gnm(n, 6 * n, 9, false);
        let order = random_permutation(n, 10);
        let seq = scc_sequential_impl(&g, &order);
        let par = scc_parallel_impl(&g, &order);
        let ratio = par.stats.visits as f64 / seq.stats.visits.max(1) as f64;
        assert!(
            ratio < 5.0,
            "parallel visit work {ratio}x sequential — overhead too large"
        );
    }
}
