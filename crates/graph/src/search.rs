//! Graph searches: the SSSP / reachability "black boxes" of §6.
//!
//! Work accounting: every search counts *visits* (settled vertices) and
//! *edge relaxations* into a caller-owned [`SearchWork`], because the
//! paper's Theorems 6.2/6.4 are statements about exactly these totals
//! (`O(W_SP log n)`, `O(W_R log n)`). The tally is plain per-search state:
//! searches that run concurrently each fill their own, and the caller sums
//! them after the round, so no shared counter is touched per visit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use ri_pram::hash::FxHashMap;

use crate::csr::CsrGraph;

/// Unreachable marker for integer distances.
pub const INF_U32: u32 = u32::MAX;

/// Estimated nanoseconds to expand one frontier vertex of the parallel
/// BFS (a handful of neighbour claims).
const FRONTIER_NS: u64 = 20;

/// The work of one or more searches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchWork {
    /// Settled (visited) vertices.
    pub visits: u64,
    /// Scanned edges.
    pub relaxations: u64,
}

impl SearchWork {
    /// Visits plus relaxations: the search work the rounds report.
    pub fn total(&self) -> u64 {
        self.visits + self.relaxations
    }
}

impl std::ops::AddAssign for SearchWork {
    fn add_assign(&mut self, other: SearchWork) {
        self.visits += other.visits;
        self.relaxations += other.relaxations;
    }
}

/// Sequential BFS distances (hop counts) from `src`; `INF_U32` where
/// unreachable.
pub fn bfs_distances(g: &CsrGraph, src: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![INF_U32; n];
    dist[src as usize] = 0;
    let mut frontier = vec![src];
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if dist[v as usize] == INF_U32 {
                    dist[v as usize] = d;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Parallel frontier BFS distances from `src` (atomic claim per vertex).
/// Matches [`bfs_distances`] exactly.
pub fn parallel_bfs_distances(g: &CsrGraph, src: u32) -> Vec<u32> {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n = g.num_vertices();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INF_U32)).collect();
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![src];
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        frontier = frontier
            .par_iter()
            .with_cost(FRONTIER_NS)
            .flat_map_iter(|&u| {
                g.neighbors(u).iter().filter_map(|&v| {
                    dist[v as usize]
                        .compare_exchange(INF_U32, d, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                        .then_some(v)
                })
            })
            .collect();
    }
    dist.into_iter().map(|a| a.into_inner()).collect()
}

/// Sequential Dijkstra distances from `src` (`f64::INFINITY` where
/// unreachable). Unweighted graphs use unit weights.
pub fn dijkstra_distances(g: &CsrGraph, src: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(OrderedF64, u32)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((OrderedF64(0.0), src)));
    while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in g.edges(u) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((OrderedF64(nd), v)));
            }
        }
    }
    dist
}

/// Cohen's δ-pruned Dijkstra (§6.1): starting from `src`, visit a vertex
/// `u` only while `d(src, u) < delta[u]` — the tentative-distance array of
/// the incremental LE-list construction, *frozen* for the duration of the
/// search. Returns the visited `(vertex, distance)` pairs, in
/// nondecreasing distance order.
///
/// Settled vertices and scanned edges — together the search's work — are
/// added to `work`.
pub fn pruned_dijkstra(
    g: &CsrGraph,
    src: u32,
    delta: &[f64],
    work: &mut SearchWork,
) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = Vec::new();
    // Local tentative distances: sparse map (the search typically touches
    // O(polylog) vertices, so a dense n-array per search would dominate the
    // work bound).
    let mut local: FxHashMap<u32, f64> = FxHashMap::default();
    let mut done: FxHashMap<u32, ()> = FxHashMap::default();
    let mut heap: BinaryHeap<Reverse<(OrderedF64, u32)>> = BinaryHeap::new();
    if 0.0 < delta[src as usize] {
        local.insert(src, 0.0);
        heap.push(Reverse((OrderedF64(0.0), src)));
    }
    while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
        if done.contains_key(&u) {
            continue;
        }
        if local.get(&u).is_none_or(|&cur| d > cur) {
            continue;
        }
        done.insert(u, ());
        work.visits += 1;
        out.push((u, d));
        for (v, w) in g.edges(u) {
            work.relaxations += 1;
            let nd = d + w;
            // Prune: only pursue v while we'd beat its frozen δ.
            if nd < delta[v as usize] && local.get(&v).is_none_or(|&cur| nd < cur) {
                local.insert(v, nd);
                heap.push(Reverse((OrderedF64(nd), v)));
            }
        }
    }
    out
}

/// Reachability restricted to a partition (§6.2): vertices `u` with
/// `part[u] == part[src]` reachable from `src`, in visit order (including
/// `src`). Work is added to `work` as in [`pruned_dijkstra`].
pub fn reachable_in_partition(
    g: &CsrGraph,
    src: u32,
    part: &[u64],
    work: &mut SearchWork,
) -> Vec<u32> {
    let home = part[src as usize];
    let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
    seen.insert(src, ());
    let mut stack = vec![src];
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        work.visits += 1;
        out.push(u);
        for &v in g.neighbors(u) {
            work.relaxations += 1;
            if part[v as usize] == home && !seen.contains_key(&v) {
                seen.insert(v, ());
                stack.push(v);
            }
        }
    }
    out
}

/// Total order on f64 for the heap (no NaNs by construction: weights are
/// finite and non-negative).
#[derive(PartialEq, PartialOrd)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("no NaN distances")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnm, gnm_weighted, grid2d};

    #[test]
    fn bfs_simple_path() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 3), vec![INF_U32, INF_U32, INF_U32, 0]);
    }

    #[test]
    fn parallel_bfs_matches_sequential() {
        for seed in 0..3 {
            let g = gnm(500, 2000, seed, false);
            for src in [0u32, 17, 499] {
                assert_eq!(parallel_bfs_distances(&g, src), bfs_distances(&g, src));
            }
        }
        let g = grid2d(40);
        assert_eq!(parallel_bfs_distances(&g, 0), bfs_distances(&g, 0));
    }

    #[test]
    fn dijkstra_matches_bfs_on_unweighted() {
        let g = gnm(300, 1500, 4, false);
        let d = dijkstra_distances(&g, 0);
        let b = bfs_distances(&g, 0);
        for v in 0..300 {
            if b[v] == INF_U32 {
                assert!(d[v].is_infinite());
            } else {
                assert_eq!(d[v], b[v] as f64);
            }
        }
    }

    #[test]
    fn dijkstra_weighted_small() {
        let g = CsrGraph::from_weighted_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[1.0, 4.0, 10.0, 1.0],
        );
        let d = dijkstra_distances(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn pruned_with_infinite_delta_is_full_dijkstra() {
        let g = gnm_weighted(200, 1000, 6, false);
        let delta = vec![f64::INFINITY; 200];
        let mut work = SearchWork::default();
        let visited = pruned_dijkstra(&g, 0, &delta, &mut work);
        let full = dijkstra_distances(&g, 0);
        // Every finite-distance vertex is visited with the right distance.
        let mut got: Vec<(u32, f64)> = visited.clone();
        got.sort_by_key(|&(u, _)| u);
        let want: Vec<(u32, f64)> = (0..200u32)
            .filter(|&u| full[u as usize].is_finite())
            .map(|u| (u, full[u as usize]))
            .collect();
        assert_eq!(got, want);
        // Visit order is nondecreasing in distance.
        for w in visited.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(work.visits as usize, visited.len());
    }

    #[test]
    fn pruned_respects_delta() {
        // Path 0-1-2-3 with unit weights; delta cuts at distance 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let delta = vec![f64::INFINITY, f64::INFINITY, 2.0, f64::INFINITY];
        let visited = pruned_dijkstra(&g, 0, &delta, &mut SearchWork::default());
        // Vertex 2 has d=2 which is NOT < delta[2]=2 -> pruned, and 3 is
        // unreachable through it.
        assert_eq!(visited, vec![(0, 0.0), (1, 1.0)]);
    }

    #[test]
    fn pruned_src_can_be_pruned() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let delta = vec![0.0, f64::INFINITY];
        assert!(pruned_dijkstra(&g, 0, &delta, &mut SearchWork::default()).is_empty());
    }

    #[test]
    fn partition_restricted_reachability() {
        // 0 -> 1 -> 2, but 1 is in another partition: 2 unreachable.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut work = SearchWork::default();
        let part = vec![7u64, 9, 7];
        let mut reach = reachable_in_partition(&g, 0, &part, &mut work);
        reach.sort_unstable();
        assert_eq!(reach, vec![0]);
        // Same partition: full chain.
        let part = vec![7u64, 7, 7];
        let mut reach = reachable_in_partition(&g, 0, &part, &mut work);
        reach.sort_unstable();
        assert_eq!(reach, vec![0, 1, 2]);
    }

    #[test]
    fn reachability_counts_work() {
        let g = grid2d(10);
        let mut work = SearchWork::default();
        let reach = reachable_in_partition(&g, 0, &vec![0u64; 100], &mut work);
        assert_eq!(reach.len(), 100);
        assert_eq!(work.visits, 100);
        assert_eq!(work.relaxations as usize, g.num_edges());
    }
}
