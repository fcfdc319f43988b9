//! Graph searches: the SSSP / reachability "black boxes" of §6.
//!
//! Work accounting: every search counts *visits* (settled vertices) and
//! *edge relaxations* into a caller-owned [`SearchWork`], because the
//! paper's Theorems 6.2/6.4 are statements about exactly these totals
//! (`O(W_SP log n)`, `O(W_R log n)`). The tally is plain per-search state:
//! searches that run concurrently each fill their own, and the caller sums
//! them after the round, so no shared counter is touched per visit.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

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

/// One thread's search state: dense per-vertex arrays whose entries
/// count only where their generation stamp equals the current search's.
/// A search moves to a fresh stamp in O(1) instead of clearing anything.
#[derive(Default)]
struct Workspace {
    /// The running search's generation; every mark from an earlier search
    /// is smaller (or was zeroed at the last wrap).
    stamp: u32,
    /// `seen[v] == stamp`: this search reached `v`, and `dist[v]` is its
    /// tentative distance.
    seen: Vec<u32>,
    dist: Vec<f64>,
    heap: BinaryHeap<Reverse<(OrderedF64, u32)>>,
    stack: Vec<u32>,
}

impl Workspace {
    /// Start a search over `n` vertices: grow the arrays to `n` (once per
    /// thread and size) and take the next generation.
    fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.dist.resize(n, 0.0);
        }
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        // Empty unless an earlier search on this thread unwound.
        self.heap.clear();
        self.stack.clear();
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Cohen's δ-pruned Dijkstra (§6.1): starting from `src`, visit a vertex
/// `u` only while `d(src, u) < delta[u]` — the tentative-distance array of
/// the incremental LE-list construction, *frozen* for the duration of the
/// search. Returns the visited `(vertex, distance)` pairs, in
/// nondecreasing distance order.
///
/// Settled vertices and scanned edges — together the search's work — are
/// added to `work`.
///
/// Tentative distances and seen marks live in one dense workspace per
/// thread, sized to the largest graph that thread has searched and reset
/// per search in O(1) by a generation stamp, so a search does only the
/// work it counts. A crew helper is a scoped thread that lives for one
/// region, so it allocates its own workspace on first use in each region.
pub fn pruned_dijkstra(
    g: &CsrGraph,
    src: u32,
    delta: &[f64],
    work: &mut SearchWork,
) -> Vec<(u32, f64)> {
    WORKSPACE.with_borrow_mut(|ws| {
        ws.begin(g.num_vertices());
        let Workspace {
            stamp,
            seen,
            dist,
            heap,
            ..
        } = ws;
        let stamp = *stamp;
        let mut out: Vec<(u32, f64)> = Vec::new();
        if 0.0 < delta[src as usize] {
            seen[src as usize] = stamp;
            dist[src as usize] = 0.0;
            heap.push(Reverse((OrderedF64(0.0), src)));
        }
        while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
            // Stale entry: `u` improved after it was pushed. A vertex's
            // pushes strictly decrease its distance, and with non-negative
            // weights none improves once popped, so each is visited once.
            if d > dist[u as usize] {
                continue;
            }
            work.visits += 1;
            out.push((u, d));
            for (v, w) in g.edges(u) {
                work.relaxations += 1;
                let nd = d + w;
                let vi = v as usize;
                // Prune: only pursue v while we'd beat its frozen δ.
                if nd < delta[vi] && (seen[vi] != stamp || nd < dist[vi]) {
                    seen[vi] = stamp;
                    dist[vi] = nd;
                    heap.push(Reverse((OrderedF64(nd), v)));
                }
            }
        }
        out
    })
}

/// Reachability restricted to a partition (§6.2): vertices `u` with
/// `part[u] == part[src]` reachable from `src`, in visit order (including
/// `src`). Work is added to `work`, and seen marks kept in the thread's
/// workspace, as in [`pruned_dijkstra`].
pub fn reachable_in_partition(
    g: &CsrGraph,
    src: u32,
    part: &[u64],
    work: &mut SearchWork,
) -> Vec<u32> {
    let home = part[src as usize];
    WORKSPACE.with_borrow_mut(|ws| {
        ws.begin(g.num_vertices());
        let Workspace {
            stamp, seen, stack, ..
        } = ws;
        let stamp = *stamp;
        seen[src as usize] = stamp;
        stack.push(src);
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            work.visits += 1;
            out.push(u);
            for &v in g.neighbors(u) {
                work.relaxations += 1;
                if part[v as usize] == home && seen[v as usize] != stamp {
                    seen[v as usize] = stamp;
                    stack.push(v);
                }
            }
        }
        out
    })
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
    use crate::generators::{deep_path, gnm, gnm_weighted, grid2d, grid2d_n, rmat_n};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ri_pram::hash::FxHashMap;

    /// Move this thread's workspace to generation `stamp` (forward only,
    /// so no earlier mark can equal a later stamp).
    fn set_stamp(stamp: u32) {
        WORKSPACE.with_borrow_mut(|ws| {
            assert!(stamp >= ws.stamp, "stamps only move forward");
            ws.stamp = stamp;
        });
    }

    /// The hash-map [`pruned_dijkstra`] the dense workspace replaced: the
    /// reference for its visit order and work.
    fn pruned_dijkstra_reference(
        g: &CsrGraph,
        src: u32,
        delta: &[f64],
        work: &mut SearchWork,
    ) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = Vec::new();
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
                if nd < delta[v as usize] && local.get(&v).is_none_or(|&cur| nd < cur) {
                    local.insert(v, nd);
                    heap.push(Reverse((OrderedF64(nd), v)));
                }
            }
        }
        out
    }

    /// The hash-set [`reachable_in_partition`] the dense workspace
    /// replaced.
    fn reachable_in_partition_reference(
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

    /// One graph of every family the problems build, at about `n`
    /// vertices.
    fn families(n: usize, seed: u64) -> Vec<CsrGraph> {
        vec![
            gnm(n, 4 * n, seed, false),
            gnm_weighted(n, 4 * n, seed, true),
            grid2d_n(n, seed),
            rmat_n(n, 4 * n, seed, false),
            deep_path(n, n / 2, seed, false),
        ]
    }

    /// A random frozen δ: zeros, small and large finite cut-offs, and
    /// infinities, with `δ[zero_at] = 0`.
    fn random_delta(n: usize, zero_at: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut delta: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(0..8) as f64,
                2 => rng.gen::<f64>() * 20.0,
                _ => f64::INFINITY,
            })
            .collect();
        delta[zero_at] = 0.0;
        delta
    }

    /// Run both searches from a few sources of `g` (random δ, random
    /// partitions into 1–4 parts) and assert they match the references in
    /// output order and work.
    fn assert_matches_references(g: &CsrGraph, rng: &mut StdRng) {
        let n = g.num_vertices();
        for _ in 0..6 {
            let src = rng.gen_range(0..n) as u32;
            let zero_at = if rng.gen_bool(0.25) {
                src as usize
            } else {
                rng.gen_range(0..n)
            };
            let delta = if rng.gen_bool(0.2) {
                vec![f64::INFINITY; n]
            } else {
                random_delta(n, zero_at, rng)
            };
            let (mut got, mut want) = (SearchWork::default(), SearchWork::default());
            assert_eq!(
                pruned_dijkstra(g, src, &delta, &mut got),
                pruned_dijkstra_reference(g, src, &delta, &mut want),
                "pruned search from {src}"
            );
            assert_eq!(got, want, "pruned search work from {src}");

            let parts = rng.gen_range(1..=4u64);
            let part: Vec<u64> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
            let (mut got, mut want) = (SearchWork::default(), SearchWork::default());
            assert_eq!(
                reachable_in_partition(g, src, &part, &mut got),
                reachable_in_partition_reference(g, src, &part, &mut want),
                "reachability from {src}"
            );
            assert_eq!(got, want, "reachability work from {src}");
        }
    }

    #[test]
    fn dense_searches_match_the_hash_map_references() {
        let mut rng = StdRng::seed_from_u64(19);
        for seed in 0..4 {
            for g in families(300, seed) {
                assert_matches_references(&g, &mut rng);
            }
        }
    }

    #[test]
    fn stamps_from_a_larger_graph_do_not_leak_into_a_smaller_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let large = families(2000, 1);
        let small = families(40, 2);
        for round in 0..3 {
            for (big, little) in large.iter().zip(&small) {
                assert_matches_references(big, &mut rng);
                assert_matches_references(little, &mut rng);
            }
            assert_matches_references(&large[round], &mut rng);
        }
    }

    #[test]
    fn a_generation_wrap_clears_every_mark() {
        // Whole-graph searches: each leaves its stamp on every vertex of
        // `g`.
        let full_searches = |g: &CsrGraph, srcs: std::ops::Range<u32>| {
            let n = g.num_vertices();
            let (unpruned, one_part) = (vec![f64::INFINITY; n], vec![0u64; n]);
            for src in srcs {
                let (mut got, mut want) = (SearchWork::default(), SearchWork::default());
                assert_eq!(
                    pruned_dijkstra(g, src, &unpruned, &mut got),
                    pruned_dijkstra_reference(g, src, &unpruned, &mut want)
                );
                assert_eq!(
                    reachable_in_partition(g, src, &one_part, &mut got),
                    reachable_in_partition_reference(g, src, &one_part, &mut want)
                );
                assert_eq!(got, want);
            }
        };
        let (large, small) = (gnm_weighted(300, 3000, 3, true), gnm(10, 40, 3, true));
        // Stamps 1 and 2 leave stamp 2 on every vertex of `large`. The
        // searches on `small` then cross u32::MAX, touching only its ten
        // vertices, so the next search on `large` takes stamp 2 again and
        // skips every vertex past the tenth unless the wrap zeroed the
        // marks.
        full_searches(&large, 0..1);
        set_stamp(u32::MAX - 3);
        full_searches(&small, 0..2);
        full_searches(&large, 1..3);
        WORKSPACE.with_borrow(|ws| assert_eq!(ws.stamp, 5, "the stamp wrapped"));
    }

    #[test]
    fn concurrent_threads_search_shared_graphs_independently() {
        let graphs = families(1500, 4);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (graphs, start) = (&graphs, &start);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    start.wait();
                    for g in graphs.iter().cycle().skip(t as usize).take(10) {
                        assert_matches_references(g, &mut rng);
                    }
                });
            }
        });
    }

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
