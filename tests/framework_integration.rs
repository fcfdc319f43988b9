//! Integration tests: the §2 framework executors driving the real
//! algorithms across crate boundaries.

use parallel_ri::framework::Type1Algorithm;
use parallel_ri::prelude::*;

/// Plug the BST sort into the *generic* Type 1 round scheduler and check
/// that the number of rounds it measures equals the dependence depth the
/// specialised parallel sort reports — the two schedulers realise the same
/// dependence DAG.
struct GenericBstSort<'a> {
    keys: &'a [usize],
    seq_tree: ri_sort::Bst,
    inserted: Vec<std::sync::atomic::AtomicBool>,
    parent: Vec<Option<usize>>,
}

impl<'a> GenericBstSort<'a> {
    fn new(keys: &'a [usize]) -> Self {
        // The dependence of iteration i is its parent in the final tree
        // (§3: the transitive reduction of the dependence graph is the BST
        // itself) — compute it once via the sequential algorithm.
        let (seq, _) = SortProblem::new(keys).solve(&RunConfig::new().sequential());
        let n = keys.len();
        let mut parent = vec![None; n];
        for v in 0..n {
            for child in [seq.tree.left[v], seq.tree.right[v]] {
                if child != u64::MAX {
                    parent[child as usize] = Some(v);
                }
            }
        }
        GenericBstSort {
            keys,
            seq_tree: seq.tree,
            inserted: (0..n).map(|_| Default::default()).collect(),
            parent,
        }
    }
}

impl Type1Algorithm for GenericBstSort<'_> {
    fn len(&self) -> usize {
        self.keys.len()
    }
    fn ready(&self, k: usize) -> bool {
        match self.parent[k] {
            None => true,
            Some(p) => self.inserted[p].load(std::sync::atomic::Ordering::Relaxed),
        }
    }
    fn run(&mut self, k: usize) {
        self.inserted[k].store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

#[test]
fn generic_type1_scheduler_matches_specialised_sort_depth() {
    let runner = Runner::new(RunConfig::new());
    for seed in 0..5 {
        let keys = random_permutation(4000, seed);
        let mut generic = GenericBstSort::new(&keys);
        let depth_tree = generic.seq_tree.dependence_depth();
        let (_, report) = runner.solve("generic", |cfg| ((), execute_type1(&mut generic, cfg)));
        let (_, par_report) = SortProblem::new(&keys).solve(&RunConfig::new());
        assert_eq!(report.depth, depth_tree, "generic scheduler rounds");
        assert_eq!(par_report.depth, depth_tree, "specialised sort rounds");
    }
}

#[test]
fn dependence_depth_scales_logarithmically_across_algorithms() {
    // One sweep, three algorithms, one claim: measured depth ~ c·log n.
    for &n in &[1usize << 10, 1 << 12, 1 << 14] {
        let log2n = (n as f64).log2();

        let cfg = RunConfig::new();
        let keys = random_permutation(n, 1);
        let sort_rounds = SortProblem::new(&keys).solve(&cfg).1.depth as f64;
        assert!(sort_rounds < 6.0 * log2n, "sort depth at n={n}");

        let pts = PointDistribution::UniformSquare.generate(n, 2);
        let dt_rounds = DelaunayProblem::new(&pts).solve(&cfg).1.depth as f64;
        assert!(dt_rounds < 12.0 * log2n, "delaunay depth at n={n}");

        let g = parallel_ri::graph::generators::gnm(n, 4 * n, 3, false);
        let scc_rounds = SccProblem::new(&g).solve(&cfg.clone().seed(4)).1.depth as f64;
        assert!(scc_rounds <= log2n + 2.0, "scc rounds at n={n}");
    }
}

#[test]
fn specials_track_harmonic_series_across_type2_algorithms() {
    let n = 1 << 12;
    let trials = 6;
    let hn = harmonic(n);
    let (mut lp_total, mut cp_total, mut sed_total) = (0usize, 0usize, 0usize);
    let cfg = RunConfig::new();
    for seed in 0..trials {
        let inst = ri_lp::workloads::tangent_instance(n, seed);
        lp_total += LpProblem::new(&inst).solve(&cfg).1.specials.len();

        let pts = PointDistribution::UniformSquare.generate(n, seed);
        cp_total += ClosestPairProblem::new(&pts).solve(&cfg).1.specials.len();
        sed_total += EnclosingProblem::new(&pts).solve(&cfg).1.specials.len();
    }
    let (lp_avg, cp_avg, sed_avg) = (
        lp_total as f64 / trials as f64,
        cp_total as f64 / trials as f64,
        sed_total as f64 / trials as f64,
    );
    // §5: P[special at j] ≤ 2/j (LP, closest pair) or 3/j (SED).
    assert!(lp_avg <= 2.0 * hn + 2.0, "LP specials {lp_avg} vs 2H_n");
    assert!(cp_avg <= 2.0 * hn + 2.0, "CP specials {cp_avg} vs 2H_n");
    assert!(sed_avg <= 3.0 * hn + 2.0, "SED specials {sed_avg} vs 3H_n");
}

#[test]
fn corollary_2_4_dependence_counts() {
    // Separating dependences ⇒ expected total dependences ≤ 2 n ln n.
    // BST comparisons are exactly the dependences of the sort.
    let n = 1 << 13;
    let bound = 2.0 * (n as f64) * (n as f64).ln();
    let mut total = 0u64;
    let trials = 5;
    for seed in 0..trials {
        let keys = random_permutation(n, seed);
        total += SortProblem::new(&keys)
            .solve(&RunConfig::new().sequential())
            .0
            .comparisons;
    }
    let avg = total as f64 / trials as f64;
    assert!(
        avg < bound,
        "avg comparisons {avg} above 2 n ln n = {bound}"
    );
    // And it is within 2x of the bound (the true constant is ~1.39 n log₂ n
    // = 2 n ln n exactly, minus lower-order terms).
    assert!(avg > 0.5 * bound, "avg comparisons {avg} implausibly small");
}
