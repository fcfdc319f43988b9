//! LE-list construction: sequential (Algorithm 6), parallel (Type 3), and
//! the all-pairs brute-force reference.

use ri_core::engine::{execute_type3, RunConfig};
use ri_core::Type3Algorithm;
use ri_graph::{dijkstra_distances, pruned_dijkstra, CsrGraph, SearchWork};
use ri_pram::RoundLog;

/// The least-element lists plus measurement data.
#[derive(Debug)]
pub struct LeListsResult {
    /// `lists[u]` = entries `(source_vertex, distance)` in *insertion*
    /// order: increasing source priority, strictly decreasing distance.
    /// (Definition 3 orders by distance — i.e. this list reversed.)
    pub lists: Vec<Vec<(u32, f64)>>,
    /// Work and round statistics.
    pub stats: LeStats,
}

/// Work/depth measurements of a run.
#[derive(Debug, Default)]
pub struct LeStats {
    /// Settled vertices across all searches (the visit work of §6.1).
    pub visits: u64,
    /// Scanned edges across all searches.
    pub relaxations: u64,
    /// Rounds of the parallel executor (`None` for sequential runs).
    pub rounds: Option<RoundLog>,
    /// Entries discarded by the combine step (the Type 3 "extra work").
    pub redundant_entries: u64,
}

#[cfg_attr(not(test), allow(dead_code))] // exercised by the length tests
impl LeListsResult {
    /// Longest list (Cohen: `O(log n)` whp).
    pub fn max_list_len(&self) -> usize {
        self.lists.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Total entries over all lists (`≈ n·H_n` in expectation).
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

fn check_order(g: &CsrGraph, order: &[usize]) {
    assert_eq!(
        order.len(),
        g.num_vertices(),
        "order must cover every vertex"
    );
}

/// Algorithm 6: sequential LE-lists. `order[i]` is the vertex processed at
/// iteration `i` (the random priority order).
pub(crate) fn le_lists_sequential_impl(g: &CsrGraph, order: &[usize]) -> LeListsResult {
    check_order(g, order);
    let n = g.num_vertices();
    let mut delta = vec![f64::INFINITY; n];
    let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut work = SearchWork::default();
    for &src in order {
        // S = {u | d(src, u) < δ(u)}, found by the pruned search that uses
        // δ as its tentative-distance initialisation (the paper's "drop the
        // initialization" trick).
        let s = pruned_dijkstra(g, src as u32, &delta, &mut work);
        for (u, d) in s {
            delta[u as usize] = d;
            lists[u as usize].push((src as u32, d));
        }
    }
    LeListsResult {
        lists,
        stats: LeStats {
            visits: work.visits,
            relaxations: work.relaxations,
            rounds: None,
            redundant_entries: 0,
        },
    }
}

struct ParState<'a> {
    g: &'a CsrGraph,
    order: &'a [usize],
    delta: Vec<f64>,
    lists: Vec<Vec<(u32, f64)>>,
    /// Search work of every round combined so far.
    work: SearchWork,
    redundant: u64,
}

impl Type3Algorithm for ParState<'_> {
    /// `(target, distance)` pairs discovered by one source's search, and
    /// that search's work.
    type Output = (Vec<(u32, f64)>, SearchWork);

    fn len(&self) -> usize {
        self.order.len()
    }

    fn run_iteration(&self, k: usize) -> Self::Output {
        // Search against the frozen δ of the previous round: a superset of
        // the sequential visit set (stale δ only prunes less).
        let mut work = SearchWork::default();
        let found = pruned_dijkstra(self.g, self.order[k] as u32, &self.delta, &mut work);
        (found, work)
    }

    fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
        // One pass in source order. Targets are independent and each one's
        // finds arrive in source order, so a find enters L(u) exactly when
        // it beats δ(u) so far: the sequential entries. The rest were found
        // against the stale δ and are redundant.
        let mut round_work = SearchWork::default();
        for (off, (found, work)) in outputs.drain(..).enumerate() {
            let src = self.order[lo + off] as u32;
            round_work += work;
            for (u, d) in found {
                let u = u as usize;
                if d < self.delta[u] {
                    self.delta[u] = d;
                    self.lists[u].push((src, d));
                } else {
                    self.redundant += 1;
                }
            }
        }
        self.work += round_work;
        round_work.total()
    }
}

/// Type 3 parallel LE-lists: identical output to the sequential run,
/// `⌈log₂ n⌉ + 1` rounds.
pub(crate) fn le_lists_parallel_impl(g: &CsrGraph, order: &[usize]) -> LeListsResult {
    check_order(g, order);
    let n = g.num_vertices();
    let mut st = ParState {
        g,
        order,
        delta: vec![f64::INFINITY; n],
        lists: vec![Vec::new(); n],
        work: SearchWork::default(),
        redundant: 0,
    };
    let log = execute_type3(&mut st, &RunConfig::new().parallel()).rounds;
    LeListsResult {
        lists: st.lists,
        stats: LeStats {
            visits: st.work.visits,
            relaxations: st.work.relaxations,
            rounds: Some(log),
            redundant_entries: st.redundant,
        },
    }
}

/// All-pairs reference: full Dijkstra from every source, then the literal
/// Definition 3 filter. O(n · SSSP) — tests only.
pub fn le_lists_brute_force(g: &CsrGraph, order: &[usize]) -> Vec<Vec<(u32, f64)>> {
    check_order(g, order);
    let n = g.num_vertices();
    let mut best = vec![f64::INFINITY; n];
    let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &src in order {
        let dist = dijkstra_distances(g, src as u32);
        for u in 0..n {
            if dist[u] < best[u] {
                best[u] = dist[u];
                lists[u].push((src as u32, dist[u]));
            }
        }
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::{grain, Runner, WorkloadSpec};
    use ri_graph::generators::{gnm, gnm_weighted, grid2d};
    use ri_pram::random_permutation;

    /// The grouped combine the solve ran before its one-pass fold, kept as
    /// the reference: flatten the round into `(target, source iteration,
    /// distance)` records, semisort them by target (stable, so each group
    /// stays in source order) and keep each group's running strict minima.
    fn grouped_combine(
        st: &mut ParState,
        lo: usize,
        outputs: &mut Vec<(Vec<(u32, f64)>, SearchWork)>,
    ) -> u64 {
        let mut records: Vec<(u32, u32, f64)> = Vec::new();
        let mut round_work = SearchWork::default();
        for (off, (found, work)) in outputs.drain(..).enumerate() {
            let k = (lo + off) as u32;
            round_work += work;
            records.extend(found.into_iter().map(|(u, d)| (u, k, d)));
        }
        let grouped = ri_pram::semisort_by_key(records, |&(u, _, _)| u as u64);
        for (ukey, recs) in grouped.iter() {
            let u = ukey as usize;
            let mut current = st.delta[u];
            for &(_, k, d) in recs {
                if d < current {
                    current = d;
                    st.lists[u].push((st.order[k as usize] as u32, d));
                } else {
                    st.redundant += 1;
                }
            }
            st.delta[u] = current;
        }
        st.work += round_work;
        round_work.total()
    }

    /// The solve's round state with the one-pass combine or the grouped
    /// reference.
    struct Harness<'a> {
        st: ParState<'a>,
        reference: bool,
    }

    impl Type3Algorithm for Harness<'_> {
        type Output = (Vec<(u32, f64)>, SearchWork);

        fn len(&self) -> usize {
            self.st.len()
        }

        fn run_iteration(&self, k: usize) -> Self::Output {
            self.st.run_iteration(k)
        }

        fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
            if self.reference {
                grouped_combine(&mut self.st, lo, outputs)
            } else {
                self.st.combine(lo, outputs)
            }
        }
    }

    /// The final round state of a parallel run at `width` threads, every
    /// round of two or more sources on a crew when `forced`, and the crew
    /// regions the run started.
    fn run_at<'a>(
        g: &'a CsrGraph,
        order: &'a [usize],
        width: usize,
        reference: bool,
        forced: bool,
    ) -> (ParState<'a>, u64) {
        let st = ParState {
            g,
            order,
            delta: vec![f64::INFINITY; g.num_vertices()],
            lists: vec![Vec::new(); g.num_vertices()],
            work: SearchWork::default(),
            redundant: 0,
        };
        let mut h = Harness { st, reference };
        let runner = Runner::new(RunConfig::new().parallel().threads(width));
        let mut solve = || {
            runner
                .solve("le-lists", |cfg| ((), execute_type3(&mut h, cfg)))
                .1
        };
        let report = if forced {
            grain::with_region_ns(0, solve)
        } else {
            solve()
        };
        (h.st, report.regions)
    }

    #[test]
    fn one_pass_combine_matches_the_grouped_reference() {
        for shape in ["gnm-weighted", "gnm", "grid", "rmat", "deep-path"] {
            for seed in 0..3 {
                let spec = WorkloadSpec::new(400, seed).shape(shape);
                let g = crate::registry::build_graph(&spec).unwrap();
                let order = random_permutation(g.num_vertices(), seed ^ 0x1e);
                let (want, _) = run_at(&g, &order, 1, true, false);
                assert!(want.redundant > 0, "{shape}/{seed}: no redundant finds");
                for width in [1, 2, 4] {
                    for forced in [false, true] {
                        let tag = format!("{shape}/{seed} at width {width}, forced {forced}");
                        let (got, regions) = run_at(&g, &order, width, false, forced);
                        assert!(regions == 0 || width > 1, "{tag}: a crew at width 1");
                        assert!(regions > 0 || width == 1 || !forced, "{tag}: no crew");
                        assert_lists_equal(&got.lists, &want.lists, &tag);
                        assert_eq!(got.delta, want.delta, "{tag}: δ");
                        assert_eq!(got.redundant, want.redundant, "{tag}: redundant");
                        assert_eq!(got.work.visits, want.work.visits, "{tag}: visits");
                    }
                }
            }
        }
    }

    fn assert_lists_equal(a: &[Vec<(u32, f64)>], b: &[Vec<(u32, f64)>], tag: &str) {
        assert_eq!(a.len(), b.len(), "{tag}: length");
        for (u, (la, lb)) in a.iter().zip(b).enumerate() {
            assert_eq!(la, lb, "{tag}: lists for vertex {u} differ");
        }
    }

    #[test]
    fn sequential_matches_brute_force_unweighted() {
        for seed in 0..5 {
            let g = gnm(120, 500, seed, false);
            let order = random_permutation(120, seed ^ 1);
            let got = le_lists_sequential_impl(&g, &order);
            let want = le_lists_brute_force(&g, &order);
            assert_lists_equal(&got.lists, &want, "seq-vs-brute");
        }
    }

    #[test]
    fn sequential_matches_brute_force_weighted() {
        for seed in 0..5 {
            let g = gnm_weighted(100, 400, seed, true);
            let order = random_permutation(100, seed ^ 2);
            let got = le_lists_sequential_impl(&g, &order);
            let want = le_lists_brute_force(&g, &order);
            assert_lists_equal(&got.lists, &want, "seq-vs-brute-weighted");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..5 {
            let g = gnm_weighted(200, 900, seed, false);
            let order = random_permutation(200, seed ^ 3);
            let seq = le_lists_sequential_impl(&g, &order);
            let par = le_lists_parallel_impl(&g, &order);
            assert_lists_equal(&seq.lists, &par.lists, "par-vs-seq");
        }
    }

    #[test]
    fn parallel_on_grid() {
        let g = grid2d(20);
        let order = random_permutation(400, 9);
        let seq = le_lists_sequential_impl(&g, &order);
        let par = le_lists_parallel_impl(&g, &order);
        assert_lists_equal(&seq.lists, &par.lists, "grid");
        assert_eq!(par.stats.rounds.as_ref().unwrap().rounds(), 10);
    }

    #[test]
    fn own_vertex_heads_every_list() {
        let g = gnm(150, 600, 4, true);
        let order = random_permutation(150, 5);
        let r = le_lists_sequential_impl(&g, &order);
        for (u, list) in r.lists.iter().enumerate() {
            let last = list.last().expect("every vertex reaches itself");
            assert_eq!(last.0 as usize, u, "own vertex is the final (0-dist) entry");
            assert_eq!(last.1, 0.0);
        }
    }

    #[test]
    fn entries_strictly_decreasing() {
        let g = gnm_weighted(150, 700, 6, false);
        let order = random_permutation(150, 7);
        let r = le_lists_parallel_impl(&g, &order);
        for list in &r.lists {
            for w in list.windows(2) {
                assert!(w[0].1 > w[1].1, "distances must strictly decrease");
                assert!(w[0].0 != w[1].0);
            }
        }
    }

    #[test]
    fn list_lengths_logarithmic() {
        let n = 1 << 12;
        let g = gnm(n, 10 * n, 8, true);
        let order = random_permutation(n, 9);
        let r = le_lists_parallel_impl(&g, &order);
        let hn = ri_core::harmonic(n);
        let avg = r.total_entries() as f64 / n as f64;
        // E[|L(u)|] = H_n for vertices that reach everything; disconnected
        // pieces only shrink it.
        assert!(avg <= hn + 1.0, "avg list length {avg} above H_n {hn}");
        assert!(
            r.max_list_len() < 8 * 12,
            "max list length {} not O(log n)",
            r.max_list_len()
        );
    }

    #[test]
    fn parallel_extra_work_is_constant_factor() {
        let n = 1 << 11;
        let g = gnm_weighted(n, 8 * n, 10, false);
        let order = random_permutation(n, 11);
        let seq = le_lists_sequential_impl(&g, &order);
        let par = le_lists_parallel_impl(&g, &order);
        let ratio = par.stats.visits as f64 / seq.stats.visits.max(1) as f64;
        assert!(
            ratio < 4.0,
            "parallel visit work {}x sequential — Type 3 overhead too large",
            ratio
        );
    }

    #[test]
    fn disconnected_graph() {
        // Two components: lists never cross the gap.
        let mut edges = vec![(0u32, 1u32), (1, 0)];
        edges.extend([(2u32, 3u32), (3, 2)]);
        let g = CsrGraph::from_edges(4, &edges);
        let order = vec![0, 2, 1, 3];
        let r = le_lists_sequential_impl(&g, &order);
        for (src, _) in &r.lists[0] {
            assert!(*src < 2);
        }
        for (src, _) in &r.lists[3] {
            assert!(*src >= 2);
        }
        let par = le_lists_parallel_impl(&g, &order);
        assert_lists_equal(&r.lists, &par.lists, "disconnected");
    }

    #[test]
    fn empty_and_singleton() {
        let g = CsrGraph::from_edges(1, &[]);
        let r = le_lists_parallel_impl(&g, &[0]);
        assert_eq!(r.lists[0], vec![(0, 0.0)]);
    }
}
