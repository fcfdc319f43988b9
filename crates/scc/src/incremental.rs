//! Algorithm 7 (sequential) and its Type 3 parallelisation.

use ri_core::engine::{execute_type3, RunConfig};
use ri_core::Type3Algorithm;
use ri_graph::{reachable_in_partition, CsrGraph, SearchWork};
use ri_pram::hash::{hash_combine, hash_u64};
use ri_pram::RoundLog;

/// Partition label of vertices already assigned to an SCC: no restricted
/// search ever matches it (searches start from undone vertices only).
const DONE: u64 = u64::MAX;

/// Ends the forward centers in a vertex's signature chain.
const SEPARATOR: u64 = 0x5eed_5eed;

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
    /// The combine's dense per-vertex state: the last round touching u
    /// (`1 + lo`), u's signature in it, `k + 1` for the last center `k`
    /// whose forward set held u, and `k + 1` for the first center reaching
    /// u both ways (0: none; a carved vertex is never reached again).
    stamp: Vec<u32>,
    sig: Vec<u64>,
    mark: Vec<u32>,
    carve: Vec<u32>,
    touched: Vec<usize>,
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

    fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
        // Eager refinement: a vertex's signature chains its old label, the
        // centers reaching it forward, a separator and those reaching it
        // backward, each ascending: forward sets go first, in center order,
        // then backward ones. The minimum common center carves the vertex.
        let round = 1 + lo as u32;
        let mut round_work = SearchWork::default();
        for (off, fp) in outputs.iter().enumerate() {
            let Some(fp) = fp else { continue };
            self.queries += 1;
            round_work += fp.work;
            for &u in &fp.fwd {
                self.link(u, round, ((lo + off) as u64) << 1, false);
            }
        }
        for &u in &self.touched {
            self.sig[u] = hash_combine(self.sig[u], SEPARATOR);
        }
        for (off, fp) in outputs.drain(..).enumerate() {
            let Some(fp) = fp else { continue };
            let k = (lo + off) as u32;
            for &u in &fp.fwd {
                self.mark[u as usize] = k + 1;
            }
            for &u in &fp.bwd {
                let u = self.link(u, round, ((k as u64) << 1) | 1, true);
                if self.mark[u] == k + 1 && self.carve[u] == 0 {
                    self.carve[u] = k + 1;
                }
            }
        }
        for u in self.touched.drain(..) {
            if self.carve[u] != 0 {
                self.part[u] = DONE;
                self.comp[u] = self.order[self.carve[u] as usize - 1] as u32;
            } else {
                self.part[u] = self.sig[u] & !(1 << 63); // keep clear of DONE
            }
        }
        self.work += round_work;
        round_work.total()
    }
}

impl ParState<'_> {
    /// Counts a search reaching `u` and appends `center` to u's signature,
    /// which the round's first touch starts at u's old label (and the
    /// separator, once `backward`).
    fn link(&mut self, u: u32, round: u32, center: u64, backward: bool) -> usize {
        let u = u as usize;
        if self.stamp[u] != round {
            debug_assert_ne!(self.part[u], DONE, "search reached carved vertex {u}");
            self.stamp[u] = round;
            self.sig[u] = hash_u64(self.part[u]);
            if backward {
                self.sig[u] = hash_combine(self.sig[u], SEPARATOR);
            }
            self.touched.push(u);
        }
        self.sig[u] = hash_combine(self.sig[u], center);
        self.per_vertex[u] += 1;
        u
    }
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
        stamp: vec![0; n],
        sig: vec![0; n],
        mark: vec![0; n],
        carve: vec![0; n],
        touched: Vec::new(),
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
    use ri_core::engine::{grain, Runner, WorkloadSpec};
    use ri_graph::generators::{gnm, planted_sccs, random_dag, rmat};
    use ri_pram::random_permutation;

    /// The grouped combine the solve ran before its two in-order passes,
    /// kept as the reference: flatten the round into `(vertex, center,
    /// direction)` records, semisort them by vertex (stable, so each group
    /// stays in center order), then per vertex carve by the first common
    /// center or hash the signature.
    fn grouped_combine(st: &mut ParState, lo: usize, outputs: &mut Vec<Option<Footprint>>) -> u64 {
        const FWD: u32 = 0;
        const BWD: u32 = 1;
        let mut records: Vec<(u32, u32, u32)> = Vec::new();
        let mut round_work = SearchWork::default();
        for (off, out) in outputs.drain(..).enumerate() {
            let k = (lo + off) as u32;
            if let Some(fp) = out {
                st.queries += 1;
                round_work += fp.work;
                records.extend(fp.fwd.iter().map(|&u| (u, k, FWD)));
                records.extend(fp.bwd.iter().map(|&u| (u, k, BWD)));
            }
        }
        for &(u, _, _) in &records {
            st.per_vertex[u as usize] += 1;
        }
        let grouped = ri_pram::semisort_by_key(records, |&(u, _, _)| u as u64);
        for (ukey, recs) in grouped.iter() {
            let u = ukey as usize;
            assert_ne!(st.part[u], DONE, "search reached carved vertex {u}");
            let ks = |dir| recs.iter().filter(move |r| r.2 == dir).map(|r| r.1);
            let (fwd_ks, bwd_ks): (Vec<u32>, Vec<u32>) = (ks(FWD).collect(), ks(BWD).collect());
            if let Some(&c) = fwd_ks.iter().find(|k| bwd_ks.binary_search(k).is_ok()) {
                st.part[u] = DONE;
                st.comp[u] = st.order[c as usize] as u32;
            } else {
                let mut sig = hash_u64(st.part[u]);
                for &k in &fwd_ks {
                    sig = hash_combine(sig, (k as u64) << 1);
                }
                sig = hash_combine(sig, 0x5eed_5eed);
                for &k in &bwd_ks {
                    sig = hash_combine(sig, ((k as u64) << 1) | 1);
                }
                st.part[u] = sig & !(1 << 63);
            }
        }
        st.work += round_work;
        round_work.total()
    }

    /// The solve's round state with the in-order combine or the grouped
    /// reference, keeping the partition after every round.
    struct Harness<'a> {
        st: ParState<'a>,
        reference: bool,
        parts: Vec<Vec<u64>>,
    }

    impl Type3Algorithm for Harness<'_> {
        type Output = Option<Footprint>;

        fn len(&self) -> usize {
            self.st.len()
        }

        fn run_iteration(&self, k: usize) -> Self::Output {
            self.st.run_iteration(k)
        }

        fn combine(&mut self, lo: usize, outputs: &mut Vec<Self::Output>) -> u64 {
            let work = if self.reference {
                grouped_combine(&mut self.st, lo, outputs)
            } else {
                self.st.combine(lo, outputs)
            };
            self.parts.push(self.st.part.clone());
            work
        }
    }

    /// A parallel run at `width` threads, every round of two or more
    /// centers on a crew when `forced`: its final round state, the
    /// partition after every round and the crew regions it started.
    fn run_at<'a>(
        g: &'a CsrGraph,
        order: &'a [usize],
        width: usize,
        reference: bool,
        forced: bool,
    ) -> (ParState<'a>, Vec<Vec<u64>>, u64) {
        let n = g.num_vertices();
        let mut h = Harness {
            st: ParState {
                g,
                gt: g.transpose(),
                order,
                part: vec![0; n],
                comp: vec![u32::MAX; n],
                work: SearchWork::default(),
                per_vertex: vec![0; n],
                queries: 0,
                stamp: vec![0; n],
                sig: vec![0; n],
                mark: vec![0; n],
                carve: vec![0; n],
                touched: Vec::new(),
            },
            reference,
            parts: Vec::new(),
        };
        let runner = Runner::new(RunConfig::new().parallel().threads(width));
        let mut solve = || {
            runner
                .solve("scc", |cfg| ((), execute_type3(&mut h, cfg)))
                .1
        };
        let report = if forced {
            grain::with_region_ns(0, solve)
        } else {
            solve()
        };
        (h.st, h.parts, report.regions)
    }

    #[test]
    fn in_order_combine_matches_the_grouped_reference() {
        for shape in ["gnm", "dag", "rmat", "planted", "grid", "deep-path"] {
            for seed in 0..3 {
                let spec = WorkloadSpec::new(500, seed).shape(shape);
                let g = crate::registry::build_graph(&spec).unwrap();
                let order = random_permutation(g.num_vertices(), seed ^ 0x5cc5);
                let (want, want_parts, _) = run_at(&g, &order, 1, true, false);
                for width in [1, 2, 4] {
                    for forced in [false, true] {
                        let tag = format!("{shape}/{seed} at width {width}, forced {forced}");
                        let (got, parts, regions) = run_at(&g, &order, width, false, forced);
                        assert!(regions == 0 || width > 1, "{tag}: a crew at width 1");
                        assert!(regions > 0 || width == 1 || !forced, "{tag}: no crew");
                        for (r, (a, b)) in parts.iter().zip(&want_parts).enumerate() {
                            assert_eq!(a, b, "{tag}: partition after round {r}");
                        }
                        assert_eq!(parts.len(), want_parts.len(), "{tag}: rounds");
                        assert_eq!(got.comp, want.comp, "{tag}: comp");
                        assert_eq!(got.per_vertex, want.per_vertex, "{tag}: visits");
                        assert_eq!(got.queries, want.queries, "{tag}: queries");
                    }
                }
            }
        }
    }

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
