//! Welzl's incremental smallest enclosing disk, in the Update1/Update2
//! formulation the paper analyses.

use ri_core::engine::{execute_type2, RunConfig, RunReport};
use ri_core::Type2Algorithm;
use ri_geometry::{circumcircle, diametral_disk, Disk, Point2};

/// Estimated nanoseconds per containment test (a few flops over a point
/// read in order): the per-item cost of the executor's specialness
/// checks.
const CONTAINS_NS: u64 = 1;

struct WelzlState<'a> {
    points: &'a [Point2],
    disk: Option<Disk>,
    update2_calls: usize,
    /// Containment tests the textbook sequential loop makes: one per
    /// point it checks, counted on the coordinating thread.
    contains_tests: u64,
}

impl<'a> WelzlState<'a> {
    fn new(points: &'a [Point2]) -> Self {
        WelzlState {
            points,
            disk: None,
            update2_calls: 0,
            contains_tests: 0,
        }
    }

    /// Earliest index in `range` strictly outside `disk`, if any. Counts
    /// the tests the scan makes — up to and including the point found: the
    /// next scan resumes past that point, so every point of an
    /// `Update1`/`Update2` loop is counted once. The scan runs inline: at
    /// about a nanosecond per test, only a scan of `PAYOFF × region_ns`
    /// points (hundreds of thousands) would pay for a crew.
    fn earliest_outside(&mut self, disk: &Disk, range: std::ops::Range<usize>) -> Option<usize> {
        let start = range.start;
        let len = range.len();
        let found = range
            .into_iter()
            .find(|&j| disk.strictly_excludes(self.points[j]));
        self.contains_tests += found.map_or(len, |j| j - start + 1) as u64;
        found
    }

    /// Update2(i, j): smallest disk with `points[i]` and `points[j]` on the
    /// boundary, enclosing `points[..j]`.
    fn update2(&mut self, i: usize, j: usize) -> Disk {
        self.update2_calls += 1;
        let mut disk = diametral_disk(self.points[i], self.points[j]);
        let mut from = 0usize;
        while let Some(k) = self.earliest_outside(&disk, from..j) {
            disk = circumcircle(self.points[i], self.points[j], self.points[k])
                .expect("boundary points in general position");
            from = k + 1;
        }
        disk
    }

    /// Update1(i): smallest disk with `points[i]` on the boundary,
    /// enclosing `points[..i]`.
    fn update1(&mut self, i: usize) -> Disk {
        let mut disk = diametral_disk(self.points[0], self.points[i]);
        let mut from = 1usize;
        while let Some(j) = self.earliest_outside(&disk, from..i) {
            disk = self.update2(i, j);
            from = j + 1;
        }
        disk
    }
}

impl Type2Algorithm for WelzlState<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn is_special(&self, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        match &self.disk {
            None => true, // second point initializes the disk
            Some(d) => d.strictly_excludes(self.points[k]),
        }
    }

    fn item_ns(&self) -> u64 {
        CONTAINS_NS
    }

    // The test that decided iteration `k` is counted when `k` commits, so
    // the executor's (possibly speculative, possibly concurrent) checks
    // are counted once each, as the sequential loop makes them.

    fn run_regular(&mut self, k: usize) {
        if k > 0 {
            self.contains_tests += 1;
        }
    }

    fn run_special(&mut self, k: usize) {
        let disk = match self.disk {
            None => diametral_disk(self.points[0], self.points[k]),
            Some(_) => {
                self.contains_tests += 1;
                self.update1(k)
            }
        };
        self.disk = Some(disk);
    }
}

/// The answer of a smallest-enclosing-disk run.
#[derive(Debug, Clone, PartialEq)]
pub struct SedOutput {
    /// The smallest enclosing disk of all points.
    pub disk: Disk,
    /// Number of nested `Update2` scans across the whole run.
    pub update2_calls: usize,
    /// Total containment tests (the work measure of §5.3).
    pub contains_tests: u64,
}

/// Engine entry point: solve under `cfg`, returning the answer and the
/// unified report.
pub(crate) fn run_with(points: &[Point2], cfg: &RunConfig) -> (SedOutput, RunReport) {
    assert!(points.len() >= 2, "need at least two points");
    let mut st = WelzlState::new(points);
    let report = execute_type2(&mut st, cfg);
    let out = SedOutput {
        disk: st.disk.expect("n >= 2 guarantees a disk"),
        update2_calls: st.update2_calls,
        contains_tests: st.contains_tests,
    };
    (out, report)
}

/// Brute-force reference: the best disk among all diametral pairs and all
/// circumcircle triples that contains every point. O(n⁴) — tests only.
pub fn brute_force_sed(points: &[Point2]) -> Disk {
    let n = points.len();
    assert!(n >= 2);
    let mut best: Option<Disk> = None;
    let mut consider = |d: Disk| {
        if points.iter().all(|&p| d.contains(p)) && best.is_none_or(|b| d.radius_sq < b.radius_sq) {
            best = Some(d);
        }
    };
    for i in 0..n {
        for j in i + 1..n {
            consider(diametral_disk(points[i], points[j]));
            for k in j + 1..n {
                if let Some(d) = circumcircle(points[i], points[j], points[k]) {
                    consider(d);
                }
            }
        }
    }
    best.expect("some disk always encloses")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local stand-in for the retired `SedRun` shape.
    struct Run {
        disk: Disk,
        stats: RunReport,
        update2_calls: usize,
        contains_tests: u64,
    }

    fn run_mode(points: &[Point2], cfg: &RunConfig) -> Run {
        let (out, stats) = run_with(points, cfg);
        Run {
            disk: out.disk,
            stats,
            update2_calls: out.update2_calls,
            contains_tests: out.contains_tests,
        }
    }

    fn sed_sequential(points: &[Point2]) -> Run {
        run_mode(points, &RunConfig::new().sequential())
    }

    fn sed_parallel(points: &[Point2]) -> Run {
        run_mode(points, &RunConfig::new().parallel())
    }
    use ri_geometry::distributions::dedup_points;
    use ri_geometry::PointDistribution;
    use ri_pram::random_permutation;

    fn workload(n: usize, seed: u64, dist: PointDistribution) -> Vec<Point2> {
        let pts = dedup_points(dist.generate(n, seed));
        let order = random_permutation(pts.len(), seed ^ 0x5ed);
        order.iter().map(|&i| pts[i]).collect()
    }

    fn radius_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * (1.0 + a.max(b))
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..8 {
            let pts = workload(40, seed, PointDistribution::UniformDisk);
            let want = brute_force_sed(&pts);
            let seq = sed_sequential(&pts);
            let par = sed_parallel(&pts);
            assert!(
                radius_close(seq.disk.radius(), want.radius()),
                "seq radius {} vs brute {} at seed {seed}",
                seq.disk.radius(),
                want.radius()
            );
            assert!(
                radius_close(par.disk.radius(), want.radius()),
                "par radius {} vs brute {} at seed {seed}",
                par.disk.radius(),
                want.radius()
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        for seed in 0..8 {
            let pts = workload(400, seed, PointDistribution::UniformSquare);
            let seq = sed_sequential(&pts);
            let par = sed_parallel(&pts);
            assert_eq!(seq.disk, par.disk, "seed {seed}");
            assert_eq!(seq.stats.specials, par.stats.specials, "seed {seed}");
            assert_eq!(seq.update2_calls, par.update2_calls, "seed {seed}");
        }
    }

    #[test]
    fn contains_all_points() {
        for dist in [
            PointDistribution::UniformSquare,
            PointDistribution::NearCircle,
            PointDistribution::Clusters(4),
        ] {
            let pts = workload(2000, 7, dist);
            let run = sed_parallel(&pts);
            for (i, &p) in pts.iter().enumerate() {
                assert!(
                    run.disk.contains(p),
                    "{} point {i} escapes the disk",
                    dist.name()
                );
            }
        }
    }

    #[test]
    fn update1_count_logarithmic() {
        let n = 1 << 13;
        let trials = 8;
        let mut total = 0usize;
        for seed in 0..trials {
            let pts = workload(n, seed, PointDistribution::UniformDisk);
            total += sed_parallel(&pts).stats.specials.len();
        }
        let avg = total as f64 / trials as f64;
        let bound = 3.0 * ri_core::harmonic(n) + 4.0;
        assert!(avg <= bound, "avg Update1 {avg} above 3·H_n + 4 = {bound}");
    }

    #[test]
    fn near_circle_is_harder_but_correct() {
        // Adversarial: most points near the boundary → many specials, but
        // the answer must still match brute force on a subsample size.
        let pts = workload(30, 3, PointDistribution::NearCircle);
        let want = brute_force_sed(&pts);
        let run = sed_parallel(&pts);
        assert!(radius_close(run.disk.radius(), want.radius()));
    }

    #[test]
    fn work_is_linear() {
        // Theorem 5.3 bounds the *expected* work by O(n); a single order can
        // legitimately be several times the mean (one late special pays
        // O(n) by itself), so test the average over seeds.
        let n = 1 << 14;
        let seeds = 6u64;
        let total: u64 = (0..seeds)
            .map(|seed| {
                let pts = workload(n, seed, PointDistribution::UniformSquare);
                sed_parallel(&pts).contains_tests
            })
            .sum();
        let avg = total as f64 / seeds as f64;
        assert!(avg < 60.0 * n as f64, "avg contains tests {avg} not O(n)");
    }

    /// Containment tests of the textbook sequential loop: one test per
    /// point of the main loop from the third on, then `Update1(i)` tests
    /// `p_1..p_{i-1}` and `Update2(i, j)` tests `p_0..p_{j-1}`, each point
    /// once per scan.
    fn textbook_contains_tests(points: &[Point2]) -> u64 {
        let mut tests = 0u64;
        let mut disk = diametral_disk(points[0], points[1]);
        for i in 2..points.len() {
            tests += 1;
            if !disk.strictly_excludes(points[i]) {
                continue;
            }
            disk = diametral_disk(points[0], points[i]);
            for j in 1..i {
                tests += 1;
                if !disk.strictly_excludes(points[j]) {
                    continue;
                }
                disk = diametral_disk(points[i], points[j]);
                for k in 0..j {
                    tests += 1;
                    if disk.strictly_excludes(points[k]) {
                        disk = circumcircle(points[i], points[j], points[k])
                            .expect("boundary points in general position");
                    }
                }
            }
        }
        tests
    }

    #[test]
    fn contains_tests_count_each_textbook_test_once_at_any_width() {
        for seed in 0..4 {
            let pts = workload(20_000, seed, PointDistribution::UniformSquare);
            let want = textbook_contains_tests(&pts);
            let seq = sed_sequential(&pts);
            assert_eq!(seq.contains_tests, want, "sequential, seed {seed}");
            for threads in [1, 2, 4] {
                let par = run_mode(&pts, &RunConfig::new().parallel().threads(threads));
                assert_eq!(par.disk, seq.disk, "seed {seed}");
                assert_eq!(
                    par.contains_tests, want,
                    "parallel at {threads} threads, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn two_points() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(2.0, 0.0)];
        let run = sed_parallel(&pts);
        assert_eq!(run.disk.center, Point2::new(1.0, 0.0));
        assert!(radius_close(run.disk.radius(), 1.0));
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point2> = random_permutation(50, 2)
            .iter()
            .map(|&i| Point2::new(i as f64, 2.0 * i as f64))
            .collect();
        let run = sed_parallel(&pts);
        // Enclosing disk of collinear points: diametral disk of extremes.
        for &p in &pts {
            assert!(run.disk.contains(p));
        }
        assert!(radius_close(
            run.disk.radius(),
            (Point2::new(0.0, 0.0).dist(Point2::new(49.0, 98.0))) / 2.0
        ));
    }
}
