//! Seeded point-cloud generators for the experiment workloads.
//!
//! The paper's bounds are *expectations over the random insertion order*
//! and hold for any input point set; the distributions here pick the input
//! regimes the experiments sweep: uniform (the benign case), clustered
//! (stresses conflict-set sizes in Delaunay), near-circular (stresses the
//! smallest-enclosing-disk special-iteration count), and jittered grids
//! (near-degenerate, stresses the exact predicates).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::point::Point2;

/// Families of synthetic point clouds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointDistribution {
    /// Uniform in the unit square.
    UniformSquare,
    /// Uniform in the unit disk (rejection sampled).
    UniformDisk,
    /// `k`-cluster Gaussian mixture inside the unit square.
    Clusters(usize),
    /// Near the unit circle with small radial noise — adversarial for
    /// smallest enclosing disk (many boundary updates).
    NearCircle,
    /// Jittered integer grid — near-degenerate, exercises exact predicates.
    JitteredGrid,
    /// Exactly on the unit circle at seeded random angles. After f64
    /// rounding every point sits a few ulps off the circle, so the set is
    /// *cocircular at machine precision*: every incircle test during
    /// Delaunay construction is a near-tie resolved by the exact
    /// predicates, and the enclosing disk's boundary basis churns
    /// (Devillers' degenerate regime).
    Cocircular,
    /// Near-collinear: 7 of every 8 points on one line with perpendicular
    /// jitter at 1e-9, the rest uniform (a fully collinear set has no
    /// triangulation). Orientation tests along the line are near-ties and
    /// the triangulation is all slivers.
    Collinear,
    /// Duplicate-heavy: each of ~n/4 distinct sites is dealt to ~4
    /// arrivals, so [`dedup_points`] collapses the workload to roughly a
    /// quarter of the requested `n` — generators and streaming sessions
    /// must account for the shrinkage truthfully instead of assuming
    /// `len == n`.
    DuplicateHeavy,
}

impl PointDistribution {
    /// Generate `n` points, seeded and reproducible.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            PointDistribution::UniformSquare => (0..n)
                .map(|_| Point2::new(rng.gen::<f64>(), rng.gen::<f64>()))
                .collect(),
            PointDistribution::UniformDisk => {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let x = rng.gen::<f64>() * 2.0 - 1.0;
                    let y = rng.gen::<f64>() * 2.0 - 1.0;
                    if x * x + y * y <= 1.0 {
                        out.push(Point2::new(x, y));
                    }
                }
                out
            }
            PointDistribution::Clusters(k) => {
                let k = k.max(1);
                let centers: Vec<Point2> = (0..k)
                    .map(|_| Point2::new(rng.gen::<f64>(), rng.gen::<f64>()))
                    .collect();
                (0..n)
                    .map(|i| {
                        let c = centers[i % k];
                        // Box-Muller for a compact Gaussian blob.
                        let u1: f64 = rng.gen::<f64>().max(1e-12);
                        let u2: f64 = rng.gen::<f64>();
                        let r = (-2.0 * u1.ln()).sqrt() * 0.02;
                        let th = 2.0 * std::f64::consts::PI * u2;
                        Point2::new(c.x + r * th.cos(), c.y + r * th.sin())
                    })
                    .collect()
            }
            PointDistribution::NearCircle => (0..n)
                .map(|_| {
                    let th = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                    let r = 1.0 + (rng.gen::<f64>() - 0.5) * 1e-3;
                    Point2::new(r * th.cos(), r * th.sin())
                })
                .collect(),
            PointDistribution::JitteredGrid => {
                let side = (n as f64).sqrt().ceil() as usize;
                (0..n)
                    .map(|i| {
                        let gx = (i % side) as f64;
                        let gy = (i / side) as f64;
                        let jitter = 1e-6;
                        Point2::new(
                            gx + rng.gen::<f64>() * jitter,
                            gy + rng.gen::<f64>() * jitter,
                        )
                    })
                    .collect()
            }
            PointDistribution::Cocircular => (0..n)
                .map(|_| {
                    let th = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                    Point2::new(th.cos(), th.sin())
                })
                .collect(),
            PointDistribution::Collinear => {
                // Line from (0.05, 0.1) towards (0.95, 0.9), unit direction
                // and unit normal precomputed.
                let (dx, dy) = (0.9f64, 0.8f64);
                let len = (dx * dx + dy * dy).sqrt();
                let (ux, uy) = (dx / len, dy / len);
                let (nx, ny) = (-uy, ux);
                (0..n)
                    .map(|i| {
                        if i % 8 == 7 {
                            Point2::new(rng.gen::<f64>(), rng.gen::<f64>())
                        } else {
                            let t = rng.gen::<f64>() * len;
                            let off = (rng.gen::<f64>() - 0.5) * 2e-9;
                            Point2::new(0.05 + t * ux + off * nx, 0.1 + t * uy + off * ny)
                        }
                    })
                    .collect()
            }
            PointDistribution::DuplicateHeavy => {
                let sites: Vec<Point2> = (0..(n / 4).max(1))
                    .map(|_| Point2::new(rng.gen::<f64>(), rng.gen::<f64>()))
                    .collect();
                (0..n)
                    .map(|_| sites[rng.gen_range(0..sites.len())])
                    .collect()
            }
        }
    }

    /// All distribution families (for sweeping experiments).
    pub fn all() -> Vec<PointDistribution> {
        vec![
            PointDistribution::UniformSquare,
            PointDistribution::UniformDisk,
            PointDistribution::Clusters(8),
            PointDistribution::NearCircle,
            PointDistribution::JitteredGrid,
            PointDistribution::Cocircular,
            PointDistribution::Collinear,
            PointDistribution::DuplicateHeavy,
        ]
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PointDistribution::UniformSquare => "uniform-square",
            PointDistribution::UniformDisk => "uniform-disk",
            PointDistribution::Clusters(_) => "clusters",
            PointDistribution::NearCircle => "near-circle",
            PointDistribution::JitteredGrid => "jittered-grid",
            PointDistribution::Cocircular => "cocircular",
            PointDistribution::Collinear => "collinear",
            PointDistribution::DuplicateHeavy => "duplicate-heavy",
        }
    }
}

/// Error parsing a [`PointDistribution`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDistributionError(String);

impl std::fmt::Display for ParseDistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = PointDistribution::all().iter().map(|d| d.name()).collect();
        write!(
            f,
            "unknown point distribution `{}` (known: {})",
            self.0,
            known.join(", ")
        )
    }
}

impl std::error::Error for ParseDistributionError {}

impl std::str::FromStr for PointDistribution {
    type Err = ParseDistributionError;

    /// Accepts the [`PointDistribution::name`] vocabulary (`clusters`
    /// parses to the 8-cluster default the experiments sweep).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform-square" => Ok(PointDistribution::UniformSquare),
            "uniform-disk" => Ok(PointDistribution::UniformDisk),
            "clusters" => Ok(PointDistribution::Clusters(8)),
            "near-circle" => Ok(PointDistribution::NearCircle),
            "jittered-grid" => Ok(PointDistribution::JitteredGrid),
            "cocircular" => Ok(PointDistribution::Cocircular),
            "collinear" => Ok(PointDistribution::Collinear),
            "duplicate-heavy" => Ok(PointDistribution::DuplicateHeavy),
            other => Err(ParseDistributionError(other.to_string())),
        }
    }
}

/// `f64::total_cmp`'s order as an integer key: a negative value (sign
/// bit set) complements every bit, so larger magnitudes sort lower; any
/// other value sets the sign bit, so it sorts above every negative one.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Deduplicate exactly-equal points (the algorithms assume distinct
/// points; generators can collide at tiny probability). Points are sorted
/// by `(x, y)` in `total_cmp` order, so hostile coordinates (NaN) cannot
/// panic the caller's thread — [`named_point_workload`] rejects
/// non-finite points separately. The sort compares integer keys: x first,
/// then y within each run of equal x bits. Points with equal keys are
/// bit-identical, so any correct sort gives the same sequence. The
/// vector is shrunk when points were removed.
pub fn dedup_points(mut pts: Vec<Point2>) -> Vec<Point2> {
    pts.sort_unstable_by_key(|p| total_order_key(p.x));
    for run in pts.chunk_by_mut(|a, b| a.x.to_bits() == b.x.to_bits()) {
        run.sort_unstable_by_key(|p| total_order_key(p.y));
    }
    let len = pts.len();
    pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    if pts.len() < len {
        pts.shrink_to_fit();
    }
    pts
}

/// A deduplicated, randomly ordered point workload: `n` points drawn from
/// `dist`, exact duplicates removed, then shuffled in place into their
/// (random) insertion order. This is the standard input of every
/// point-based experiment and of the point-problem `WorkloadSpec`
/// constructors; the paper's expectation bounds are over exactly this
/// insertion order.
pub fn point_workload(n: usize, seed: u64, dist: PointDistribution) -> Vec<Point2> {
    let mut pts = dedup_points(dist.generate(n, seed));
    ri_pram::shuffle(&mut pts, seed ^ 0xbead);
    pts
}

/// [`point_workload`] behind a *named* shape, for the registry
/// constructors of the point-based problems (`delaunay`, `closest-pair`,
/// `enclosing`): parses `shape` as a [`PointDistribution`] and enforces
/// the problem's minimum distinct-point count, with uniform error text.
pub fn named_point_workload(
    problem: &str,
    n: usize,
    seed: u64,
    shape: &str,
    min_points: usize,
) -> Result<Vec<Point2>, String> {
    let dist: PointDistribution = shape.parse().map_err(|e| format!("{e}"))?;
    let points = point_workload(n, seed, dist);
    if let Some(p) = points.iter().find(|p| !p.x.is_finite() || !p.y.is_finite()) {
        return Err(format!(
            "{problem} workload contains a non-finite coordinate ({}, {})",
            p.x, p.y
        ));
    }
    if points.len() < min_points {
        return Err(format!(
            "{problem} needs at least {min_points} distinct points, got {}",
            points.len()
        ));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for d in PointDistribution::all() {
            assert_eq!(d.name().parse::<PointDistribution>().unwrap(), d);
        }
        assert!("sideways".parse::<PointDistribution>().is_err());
    }

    #[test]
    fn point_workload_is_seeded_and_deduped() {
        let a = point_workload(500, 1, PointDistribution::UniformSquare);
        let b = point_workload(500, 1, PointDistribution::UniformSquare);
        assert_eq!(a, b, "workload not reproducible");
        let mut unique = a.clone();
        unique.sort_by(|p, q| {
            p.x.partial_cmp(&q.x)
                .unwrap()
                .then(p.y.partial_cmp(&q.y).unwrap())
        });
        unique.dedup_by(|p, q| p == q);
        assert_eq!(unique.len(), a.len(), "workload contains duplicates");
        let c = point_workload(500, 2, PointDistribution::UniformSquare);
        assert_ne!(a, c, "workload ignores seed");
    }

    #[test]
    fn seeded_reproducibility() {
        for d in PointDistribution::all() {
            let a = d.generate(100, 42);
            let b = d.generate(100, 42);
            let c = d.generate(100, 43);
            assert_eq!(a.len(), 100);
            assert_eq!(a, b, "{} not reproducible", d.name());
            assert_ne!(a, c, "{} ignores seed", d.name());
        }
    }

    #[test]
    fn uniform_square_in_bounds() {
        for p in PointDistribution::UniformSquare.generate(1000, 1) {
            assert!((0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y));
        }
    }

    #[test]
    fn uniform_disk_in_disk() {
        for p in PointDistribution::UniformDisk.generate(1000, 1) {
            assert!(p.norm_sq() <= 1.0);
        }
    }

    #[test]
    fn near_circle_radii() {
        for p in PointDistribution::NearCircle.generate(1000, 1) {
            let r = p.norm_sq().sqrt();
            assert!((0.999..1.001).contains(&r));
        }
    }

    #[test]
    fn cocircular_on_unit_circle() {
        for p in PointDistribution::Cocircular.generate(500, 1) {
            assert!((p.norm_sq() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn collinear_mostly_on_one_line() {
        let pts = PointDistribution::Collinear.generate(800, 3);
        let on_line = pts
            .iter()
            .filter(|p| {
                // Signed distance to the generating line through (0.05, 0.1)
                // with direction (0.9, 0.8).
                let len = (0.9f64 * 0.9 + 0.8 * 0.8).sqrt();
                let (ux, uy) = (0.9 / len, 0.8 / len);
                let d = (p.x - 0.05) * (-uy) + (p.y - 0.1) * ux;
                d.abs() < 1e-8
            })
            .count();
        assert!(on_line >= 700, "only {on_line}/800 near the line");
    }

    #[test]
    fn duplicate_heavy_shrinks_under_dedup() {
        let pts = PointDistribution::DuplicateHeavy.generate(1000, 7);
        let distinct = dedup_points(pts).len();
        assert!(
            distinct < 400,
            "duplicate-heavy should collapse to ~n/4 distinct, got {distinct}"
        );
    }

    #[test]
    fn dedup_survives_nan_coordinates() {
        let pts = vec![
            Point2::new(f64::NAN, 0.0),
            Point2::new(0.5, 0.5),
            Point2::new(f64::NAN, 0.0),
        ];
        // Must not panic; NaN points sort to one end.
        assert!(dedup_points(pts).len() <= 3);
    }

    #[test]
    fn named_workload_rejects_unknown_shape() {
        let err = named_point_workload("delaunay", 64, 1, "sideways", 3).unwrap_err();
        assert!(err.contains("unknown point distribution"), "{err}");
    }

    /// The construction the integer-key sort and the in-place shuffle
    /// replaced: a stable sort comparing with `total_cmp`, then a gather
    /// through `random_permutation`. The tests below pin the new one to
    /// it bit for bit.
    fn reference_dedup(mut pts: Vec<Point2>) -> Vec<Point2> {
        pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
        pts
    }

    fn reference_point_workload(n: usize, seed: u64, dist: PointDistribution) -> Vec<Point2> {
        let raw = reference_dedup(dist.generate(n, seed));
        let order = ri_pram::random_permutation(raw.len(), seed ^ 0xbead);
        order.iter().map(|&i| raw[i]).collect()
    }

    fn bits(pts: &[Point2]) -> Vec<(u64, u64)> {
        pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    }

    #[test]
    fn point_workload_matches_the_reference_construction_bit_for_bit() {
        let mut cases: Vec<(usize, u64, PointDistribution)> = Vec::new();
        for dist in PointDistribution::all() {
            for n in [0, 1, 2, 600, 14_000] {
                cases.extend((0..8).map(|k| (n, 0x5eed + 977 * k, dist)));
            }
        }
        cases.push((100_000, 3, PointDistribution::UniformDisk));
        for (n, seed, dist) in cases {
            let got = point_workload(n, seed, dist);
            let want = reference_point_workload(n, seed, dist);
            assert_eq!(bits(&got), bits(&want), "{} n {n} seed {seed}", dist.name());
            assert_eq!(got.capacity(), got.len(), "{} n {n}", dist.name());
        }
    }

    #[test]
    fn dedup_matches_the_reference_on_hostile_coordinates() {
        let tiny = f64::from_bits(1); // smallest positive subnormal
        let values = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            1.0,
            -1.0,
        ];
        let mut pts: Vec<Point2> = Vec::new();
        for &x in &values {
            for &y in &values {
                // Every pair twice: runs of equal x with differing y, and
                // exact duplicates (NaN and ±0.0 included).
                pts.push(Point2::new(x, y));
                pts.push(Point2::new(x, y));
            }
        }
        for seed in 0..8 {
            let mut input = pts.clone();
            ri_pram::shuffle(&mut input, seed);
            let got = dedup_points(input.clone());
            let want = reference_dedup(input);
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert!(got.len() < pts.len(), "seed {seed}: nothing removed");
            assert_eq!(got.capacity(), got.len(), "seed {seed}");
        }
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let pts = vec![
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        assert_eq!(dedup_points(pts).len(), 2);
    }
}
