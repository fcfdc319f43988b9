//! The grid sieve and its Type 2 plumbing.

use ri_core::engine::{execute_type2, RunConfig, RunReport};
use ri_core::Type2Algorithm;
use ri_geometry::Point2;
use ri_pram::hash::FxHashMap;

/// Estimated nanoseconds per specialness check: nine grid-cell lookups
/// and a scan of the few points they hold.
const NEIGHBORHOOD_NS: u64 = 120;

struct GridState<'a> {
    points: &'a [Point2],
    /// Squared closest distance so far (`INFINITY` until two points seen).
    r_sq: f64,
    /// Cell side length (`sqrt(r_sq)`), cached.
    cell: f64,
    pair: (u32, u32),
    cells: FxHashMap<(i64, i64), Vec<u32>>,
    /// Retired bucket vectors, recycled across grid rebuilds: a rebuild
    /// invalidates every cell *key* (the cell size changed) but the
    /// bucket allocations themselves are perfectly reusable. A local
    /// freelist recycles all of them with no per-insert overhead.
    spare_buckets: Vec<Vec<u32>>,
    /// All points with index `< inserted_hi` are present in `cells`
    /// (once the grid exists).
    inserted_hi: usize,
}

impl<'a> GridState<'a> {
    fn new(points: &'a [Point2]) -> Self {
        GridState {
            points,
            r_sq: f64::INFINITY,
            cell: f64::INFINITY,
            pair: (0, 0),
            cells: FxHashMap::default(),
            spare_buckets: Vec::new(),
            inserted_hi: 0,
        }
    }

    /// Append `j` to cell `c`, reusing a retired bucket for new cells.
    #[inline]
    fn insert_point(&mut self, c: (i64, i64), j: u32) {
        self.cells
            .entry(c)
            .or_insert_with(|| self.spare_buckets.pop().unwrap_or_default())
            .push(j);
    }

    #[inline]
    fn cell_of(&self, p: Point2) -> (i64, i64) {
        debug_assert!(self.cell.is_finite() && self.cell > 0.0);
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// Nearest earlier (index `< k`) point within the 3×3 neighborhood;
    /// returns `(index, dist_sq)`. Correct whenever that nearest point is
    /// within `cell` of `p` — guaranteed for the `< r` queries we make.
    fn nearest_earlier(&self, k: usize) -> Option<(u32, f64)> {
        let p = self.points[k];
        let (cx, cy) = self.cell_of(p);
        let mut best: Option<(u32, f64)> = None;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &j in bucket {
                        if (j as usize) < k {
                            let d = p.dist_sq(self.points[j as usize]);
                            if best.is_none_or(|(_, bd)| d < bd) {
                                best = Some((j, d));
                            }
                        }
                    }
                }
            }
        }
        best
    }

    fn rebuild(&mut self) {
        self.cell = self.r_sq.sqrt();
        assert!(
            self.cell > 0.0,
            "duplicate points: closest-pair distance is zero"
        );
        // Retire every bucket into the freelist before rebucketing: the
        // rebuild reallocates nothing in steady state.
        for (_, mut bucket) in self.cells.drain() {
            bucket.clear();
            self.spare_buckets.push(bucket);
        }
        for j in 0..self.inserted_hi {
            let c = self.cell_of(self.points[j]);
            self.insert_point(c, j as u32);
        }
    }
}

impl Type2Algorithm for GridState<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn begin_prefix(&mut self, lo: usize, hi: usize) {
        if self.cell.is_finite() {
            for j in lo..hi {
                let c = self.cell_of(self.points[j]);
                self.insert_point(c, j as u32);
            }
        }
        self.inserted_hi = hi;
    }

    fn is_special(&self, k: usize) -> bool {
        if self.r_sq.is_infinite() {
            return k >= 1; // the second point always sets r
        }
        self.nearest_earlier(k).is_some_and(|(_, d)| d < self.r_sq)
    }

    fn item_ns(&self) -> u64 {
        NEIGHBORHOOD_NS
    }

    fn run_regular(&mut self, _k: usize) {}

    fn run_special(&mut self, k: usize) {
        let (j, d) = if self.r_sq.is_infinite() {
            // No grid yet: scan the (tiny) prefix directly.
            (0..k)
                .map(|j| (j as u32, self.points[k].dist_sq(self.points[j])))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                .expect("special iteration needs an earlier point")
        } else {
            self.nearest_earlier(k)
                .expect("special implies a close pair")
        };
        self.r_sq = d;
        self.pair = (j.min(k as u32), j.max(k as u32));
        self.rebuild();
    }
}

/// The answer of a closest-pair run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosestPairOutput {
    /// Indices (into the insertion order) of the closest pair, `(i, j)`
    /// with `i < j`.
    pub pair: (u32, u32),
    /// Their distance.
    pub dist: f64,
}

/// Engine entry point: solve under `cfg`, returning the answer and the
/// unified report.
pub(crate) fn run_with(points: &[Point2], cfg: &RunConfig) -> (ClosestPairOutput, RunReport) {
    assert!(points.len() >= 2, "need at least two points");
    let mut st = GridState::new(points);
    let report = execute_type2(&mut st, cfg);
    (
        ClosestPairOutput {
            pair: st.pair,
            dist: st.r_sq.sqrt(),
        },
        report,
    )
}

/// O(n²) reference for tests and tiny inputs.
pub fn brute_force_closest_pair(points: &[Point2]) -> ((u32, u32), f64) {
    assert!(points.len() >= 2);
    let mut best = ((0u32, 1u32), points[0].dist_sq(points[1]));
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            let d = points[i].dist_sq(points[j]);
            if d < best.1 {
                best = ((i as u32, j as u32), d);
            }
        }
    }
    (best.0, best.1.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local stand-in for the retired `ClosestPairRun` shape.
    struct Run {
        pair: (u32, u32),
        dist: f64,
        stats: RunReport,
    }

    fn run_mode(points: &[Point2], cfg: &RunConfig) -> Run {
        let (out, stats) = run_with(points, cfg);
        Run {
            pair: out.pair,
            dist: out.dist,
            stats,
        }
    }

    fn closest_pair_sequential(points: &[Point2]) -> Run {
        run_mode(points, &RunConfig::new().sequential())
    }

    fn closest_pair_parallel(points: &[Point2]) -> Run {
        run_mode(points, &RunConfig::new().parallel())
    }
    use ri_geometry::distributions::dedup_points;
    use ri_geometry::PointDistribution;
    use ri_pram::random_permutation;

    fn workload(n: usize, seed: u64, dist: PointDistribution) -> Vec<Point2> {
        let pts = dedup_points(dist.generate(n, seed));
        let order = random_permutation(pts.len(), seed ^ 0xc1);
        order.iter().map(|&i| pts[i]).collect()
    }

    #[test]
    fn matches_brute_force_small() {
        for seed in 0..10 {
            let pts = workload(200, seed, PointDistribution::UniformSquare);
            let (_, want) = brute_force_closest_pair(&pts);
            let seq = closest_pair_sequential(&pts);
            let par = closest_pair_parallel(&pts);
            assert_eq!(seq.dist, want, "sequential wrong at seed {seed}");
            assert_eq!(par.dist, want, "parallel wrong at seed {seed}");
            assert_eq!(seq.pair, par.pair, "pairs differ at seed {seed}");
        }
    }

    #[test]
    fn same_specials_sequential_vs_parallel() {
        for seed in 0..5 {
            let pts = workload(500, seed, PointDistribution::UniformSquare);
            let seq = closest_pair_sequential(&pts);
            let par = closest_pair_parallel(&pts);
            assert_eq!(seq.stats.specials, par.stats.specials, "seed {seed}");
        }
    }

    #[test]
    fn clustered_points() {
        for seed in 0..5 {
            let pts = workload(300, seed, PointDistribution::Clusters(5));
            let (_, want) = brute_force_closest_pair(&pts);
            assert_eq!(closest_pair_parallel(&pts).dist, want, "seed {seed}");
        }
    }

    #[test]
    fn rebuilds_are_logarithmic() {
        let n = 1 << 13;
        let mut total = 0usize;
        let trials = 8;
        for seed in 0..trials {
            let pts = workload(n, seed, PointDistribution::UniformSquare);
            total += closest_pair_parallel(&pts).stats.specials.len();
        }
        let avg = total as f64 / trials as f64;
        let bound = 2.0 * ri_core::harmonic(n) + 4.0;
        assert!(avg <= bound, "avg rebuilds {avg} above 2·H_n+4 = {bound}");
    }

    #[test]
    fn two_points() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)];
        let run = closest_pair_parallel(&pts);
        assert_eq!(run.pair, (0, 1));
        assert_eq!(run.dist, 5.0);
        assert_eq!(run.stats.specials, vec![1]);
    }

    #[test]
    fn collinear_points() {
        // Degenerate geometry (all on a line) must still work.
        let pts: Vec<Point2> = random_permutation(100, 3)
            .iter()
            .map(|&i| Point2::new(i as f64 * 1.5, 0.0))
            .collect();
        let run = closest_pair_parallel(&pts);
        assert_eq!(run.dist, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_rejected() {
        closest_pair_parallel(&[Point2::new(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate points")]
    fn duplicates_rejected() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 0.0),
        ];
        closest_pair_parallel(&pts);
    }
}
