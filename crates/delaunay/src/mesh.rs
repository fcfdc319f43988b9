//! The triangle arena, conflict predicate, seed construction, and validity
//! checkers shared by the sequential and parallel algorithms.

use ri_geometry::predicates::{incircle_sign_ccw, orient2d_sign};
use ri_geometry::Point2;
use ri_pram::hash::FxHashMap;

/// The symbolic point at infinity `ω`.
pub const INFINITE_VERTEX: u32 = u32::MAX;

/// A triangle of the (growing) triangulation.
///
/// Vertices are point indices in counter-clockwise order; hull triangles
/// carry [`INFINITE_VERTEX`] in the **last** slot (canonical form): the
/// triangle `(a, b, ω)` is the unbounded region left of the directed hull
/// edge `a → b`.
#[derive(Debug, Clone)]
pub struct Triangle {
    /// CCW vertex triple (canonicalised: `ω` last if present).
    pub v: [u32; 3],
    /// The conflict set `E(t)`: indices of uninserted points that encroach
    /// on this triangle, sorted ascending (so `E[0]` is `min(E(t))`, the
    /// earliest conflicting point). Immutable after creation.
    pub conflicts: Vec<u32>,
}

impl Triangle {
    /// Is this an unbounded hull triangle?
    #[inline]
    pub fn is_infinite(&self) -> bool {
        self.v[2] == INFINITE_VERTEX
    }

    /// Earliest conflicting point (`u32::MAX - 1` sentinel when empty,
    /// distinct from any point id but comparable).
    #[inline]
    pub fn min_conflict(&self) -> u32 {
        self.conflicts.first().copied().unwrap_or(NO_CONFLICT)
    }

    /// The three directed faces (edges) of this triangle, in CCW order.
    /// The triangle lies on the *left* of each directed edge.
    #[inline]
    pub fn directed_faces(&self) -> [(u32, u32); 3] {
        [
            (self.v[0], self.v[1]),
            (self.v[1], self.v[2]),
            (self.v[2], self.v[0]),
        ]
    }
}

/// Sentinel "minimum conflict" for triangles with empty conflict sets;
/// larger than every real point index.
pub const NO_CONFLICT: u32 = u32::MAX - 1;

/// Canonical undirected face key: the two endpoint ids packed into a `u64`
/// (smaller id in the high half — `ω = u32::MAX` packs fine).
#[inline]
pub fn face_key(u: u32, w: u32) -> u64 {
    debug_assert_ne!(u, w, "degenerate face");
    let (lo, hi) = if u < w { (u, w) } else { (w, u) };
    ((lo as u64) << 32) | hi as u64
}

/// The triangulation: points plus the (append-only) triangle arena.
/// Triangles are never mutated once created; "detached" triangles simply
/// stop being referenced. Final triangles are those with empty conflict
/// sets.
#[derive(Debug)]
pub struct Mesh {
    /// The points, in insertion (iteration) order. May differ from the
    /// caller's array by the deterministic seed reordering (see
    /// [`seed_order`]).
    pub points: Vec<Point2>,
    /// The triangle arena (alive and dead).
    pub triangles: Vec<Triangle>,
}

impl Mesh {
    /// Does point `x` encroach on (conflict with) triangle `tri`?
    ///
    /// Finite triangle: strictly inside the circumcircle. Hull triangle
    /// `(a, b, ω)`: strictly left of the directed hull edge `a → b`, or
    /// exactly on the *open segment* `(a, b)` — the degenerate limit of
    /// "inside the circumcircle" as the third vertex goes to infinity
    /// (points collinear *beyond* the segment are on the degenerate
    /// circle, not inside it). This is the rule that keeps collinear
    /// inputs insertable without ever creating a flat triangle.
    #[inline]
    pub fn in_conflict(&self, v: &[u32; 3], x: Point2) -> bool {
        if v[2] == INFINITE_VERTEX {
            let a = self.points[v[0] as usize];
            let b = self.points[v[1] as usize];
            match orient2d_sign(a, b, x) {
                1 => true,
                -1 => false,
                // Collinear: conflict iff strictly inside the open segment.
                _ => (x - a).dot(b - a) > 0.0 && (x - b).dot(a - b) > 0.0,
            }
        } else {
            incircle_sign_ccw(
                self.points[v[0] as usize],
                self.points[v[1] as usize],
                self.points[v[2] as usize],
                x,
            ) > 0
        }
    }

    /// Canonicalise a CCW triple: rotate `ω` into the last slot.
    pub fn canonical(mut v: [u32; 3]) -> [u32; 3] {
        if v[0] == INFINITE_VERTEX {
            v.rotate_left(1);
        }
        if v[1] == INFINITE_VERTEX {
            // (a, ω, b) → rotate right: (b, a, ω).
            v.rotate_left(2);
        }
        v
    }

    /// The finite triangles of the final triangulation (empty conflict
    /// sets, all vertices finite), as vertex triples.
    pub fn finite_triangles(&self) -> Vec<[u32; 3]> {
        self.triangles
            .iter()
            .filter(|t| t.conflicts.is_empty() && !t.is_infinite())
            .map(|t| t.v)
            .collect()
    }

    /// The hull edges (directed `a → b` with outside on the left), from
    /// the final infinite triangles.
    pub fn hull_edges(&self) -> Vec<(u32, u32)> {
        self.triangles
            .iter()
            .filter(|t| t.conflicts.is_empty() && t.is_infinite())
            .map(|t| (t.v[0], t.v[1]))
            .collect()
    }

    /// Brute-force Delaunay check: no point strictly inside any final
    /// finite triangle's circumcircle, and every final triangle CCW.
    /// O(T·n) — tests and small meshes only.
    pub fn is_delaunay_brute_force(&self) -> bool {
        let tris = self.finite_triangles();
        for v in &tris {
            let (a, b, c) = (
                self.points[v[0] as usize],
                self.points[v[1] as usize],
                self.points[v[2] as usize],
            );
            if orient2d_sign(a, b, c) != 1 {
                return false;
            }
            for (i, &p) in self.points.iter().enumerate() {
                let i = i as u32;
                if i != v[0] && i != v[1] && i != v[2] && incircle_sign_ccw(a, b, c, p) > 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Structural + local-Delaunay validation (scales to large meshes):
    ///
    /// 1. every final triangle is CCW;
    /// 2. every edge is shared by exactly two final triangles (counting
    ///    hull triangles), i.e. the mesh is watertight;
    /// 3. Euler's relation `#finite triangles = 2(n − 1) − h` holds;
    /// 4. every internal edge is locally Delaunay (the opposite vertex of
    ///    the neighbour is not strictly inside the circumcircle) — local
    ///    Delaunayhood of a triangulation implies global.
    pub fn validate(&self) -> Result<(), String> {
        let finite = self.finite_triangles();
        let hull = self.hull_edges();
        let n = self.points.len();
        if n < 3 {
            return Err("mesh needs at least 3 points".into());
        }

        // 1. Orientation.
        for v in &finite {
            let (a, b, c) = (
                self.points[v[0] as usize],
                self.points[v[1] as usize],
                self.points[v[2] as usize],
            );
            if orient2d_sign(a, b, c) != 1 {
                return Err(format!("triangle {v:?} not CCW"));
            }
        }

        // 2. Watertightness: every directed edge of a final triangle must
        // be matched by its reverse in another final triangle (hull
        // triangles included). The keys are vertex ids this program
        // assigns, so the fast hasher is safe here.
        let mut directed: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        let all_final: Vec<[u32; 3]> = self
            .triangles
            .iter()
            .filter(|t| t.conflicts.is_empty())
            .map(|t| t.v)
            .collect();
        for v in &all_final {
            let t = Triangle {
                v: *v,
                conflicts: Vec::new(),
            };
            for (u, w) in t.directed_faces() {
                if directed.insert((u, w), 1).is_some() {
                    return Err(format!("directed edge ({u},{w}) seen twice"));
                }
            }
        }
        for &(u, w) in directed.keys() {
            if !directed.contains_key(&(w, u)) {
                return Err(format!("edge ({u},{w}) has no reverse: not watertight"));
            }
        }

        // 3. Euler: with h hull vertices, finite triangles = 2(n−1) − h.
        let h = hull.len(); // hull edges == hull vertices on a convex hull
        if finite.len() != 2 * (n - 1) - h {
            return Err(format!(
                "Euler violated: {} finite triangles, n={n}, hull={h} (expected {})",
                finite.len(),
                2 * (n - 1) - h
            ));
        }

        // 4. Local Delaunay on internal finite-finite edges.
        let mut third: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for v in &finite {
            third.insert((v[0], v[1]), v[2]);
            third.insert((v[1], v[2]), v[0]);
            third.insert((v[2], v[0]), v[1]);
        }
        for (&(u, w), &c) in &third {
            if let Some(&d) = third.get(&(w, u)) {
                let s = incircle_sign_ccw(
                    self.points[u as usize],
                    self.points[w as usize],
                    self.points[c as usize],
                    self.points[d as usize],
                );
                if s > 0 {
                    return Err(format!("edge ({u},{w}) not locally Delaunay"));
                }
            }
        }
        Ok(())
    }
}

/// Compute the deterministic seed reordering: returns the insertion order
/// `order` such that `order[0..3]` are the first three points (by the
/// caller's order) that form a non-degenerate CCW triangle, and the rest
/// keep their relative order. Panics if all points are collinear.
pub fn seed_order(points: &[Point2]) -> Vec<usize> {
    let n = points.len();
    assert!(n >= 3, "Delaunay needs at least 3 points");
    // First point distinct from points[0].
    let j = (1..n)
        .find(|&j| points[j] != points[0])
        .expect("all points identical");
    // First point not collinear with 0 and j.
    let k = (j + 1..n)
        .find(|&k| orient2d_sign(points[0], points[j], points[k]) != 0)
        .expect("all points collinear");
    let mut order = Vec::with_capacity(n);
    // Seed triple first (CCW order), then everything else in input order.
    if orient2d_sign(points[0], points[j], points[k]) > 0 {
        order.extend([0, j, k]);
    } else {
        order.extend([0, k, j]);
    }
    order.extend((1..n).filter(|&i| i != j && i != k));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn face_key_symmetric() {
        assert_eq!(face_key(3, 9), face_key(9, 3));
        assert_ne!(face_key(3, 9), face_key(3, 8));
        assert_eq!(face_key(5, INFINITE_VERTEX), face_key(INFINITE_VERTEX, 5));
    }

    #[test]
    fn canonical_rotations() {
        let inf = INFINITE_VERTEX;
        assert_eq!(Mesh::canonical([1, 2, 3]), [1, 2, 3]);
        assert_eq!(Mesh::canonical([inf, 1, 2]), [1, 2, inf]);
        assert_eq!(Mesh::canonical([1, inf, 2]), [2, 1, inf]);
        assert_eq!(Mesh::canonical([1, 2, inf]), [1, 2, inf]);
    }

    #[test]
    fn conflict_finite_triangle() {
        let mesh = Mesh {
            points: vec![
                p(0.0, 0.0),
                p(2.0, 0.0),
                p(0.0, 2.0),
                p(0.5, 0.5),
                p(5.0, 5.0),
            ],
            triangles: vec![],
        };
        let tri = [0, 1, 2];
        assert!(mesh.in_conflict(&tri, mesh.points[3]));
        assert!(!mesh.in_conflict(&tri, mesh.points[4]));
    }

    #[test]
    fn conflict_infinite_triangle() {
        // Hull triangle (0→1, ω) with 0=(0,0), 1=(1,0): conflict = strictly
        // above the x-axis, or on the open segment (0,0)–(1,0).
        let mesh = Mesh {
            points: vec![p(0.0, 0.0), p(1.0, 0.0)],
            triangles: vec![],
        };
        let tri = [0, 1, INFINITE_VERTEX];
        assert!(mesh.in_conflict(&tri, p(0.5, 1.0))); // strictly left
        assert!(mesh.in_conflict(&tri, p(0.5, 0.0))); // on the open segment
        assert!(!mesh.in_conflict(&tri, p(5.0, 0.0))); // collinear beyond
        assert!(!mesh.in_conflict(&tri, p(-1.0, 0.0))); // collinear before
        assert!(!mesh.in_conflict(&tri, p(0.5, -1.0))); // right
    }

    #[test]
    fn seed_order_basic() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 1.0)];
        let o = seed_order(&pts);
        assert_eq!(o.len(), 3);
        assert_eq!(o[0], 0);
        // CCW check on the chosen triple.
        assert_eq!(orient2d_sign(pts[o[0]], pts[o[1]], pts[o[2]]), 1);
    }

    #[test]
    fn seed_order_skips_collinear_prefix() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(2.0, 0.0),
            p(3.0, 0.0),
            p(1.0, 1.0),
        ];
        let o = seed_order(&pts);
        assert_eq!(&o[0..3], &[0, 1, 4]);
        assert_eq!(&o[3..], &[2, 3]);
    }

    #[test]
    fn seed_order_fixes_cw_triple() {
        let pts = vec![p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)]; // CW as given
        let o = seed_order(&pts);
        assert_eq!(orient2d_sign(pts[o[0]], pts[o[1]], pts[o[2]]), 1);
    }

    #[test]
    #[should_panic(expected = "collinear")]
    fn all_collinear_rejected() {
        seed_order(&[p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)]);
    }

    #[test]
    fn min_conflict_sentinel() {
        let t = Triangle {
            v: [0, 1, 2],
            conflicts: vec![],
        };
        assert_eq!(t.min_conflict(), NO_CONFLICT);
        let t = Triangle {
            v: [0, 1, 2],
            conflicts: vec![7, 9],
        };
        assert_eq!(t.min_conflict(), 7);
    }
}
