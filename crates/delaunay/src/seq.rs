//! Algorithm 4: the sequential Boissonnat–Teillaud incremental Delaunay
//! triangulation with explicit conflict sets.

use ri_pram::hash::FxHashMap;

use ri_geometry::predicates::orient2d_sign;
use ri_geometry::Point2;

use crate::mesh::{face_key, seed_order, Mesh, Triangle, INFINITE_VERTEX};
use crate::{DtResult, DtStats};

/// State shared with `ReplaceBoundary`.
struct SeqState {
    mesh: Mesh,
    /// face key → the (up to two) incident alive triangle ids.
    face_map: FxHashMap<u64, [u32; 2]>,
    /// point id → triangles whose conflict set contains it (may reference
    /// dead triangles; filtered lazily).
    point_conflicts: Vec<Vec<u32>>,
    /// Per-triangle "ripped at iteration" stamp (u32::MAX = alive).
    ripped: Vec<u32>,
    stats: DtStats,
}

impl SeqState {
    fn alive(&self, t: u32) -> bool {
        self.ripped[t as usize] == u32::MAX
    }

    fn push_triangle(&mut self, tri: Triangle) -> u32 {
        let id = self.mesh.triangles.len() as u32;
        for &p in &tri.conflicts {
            self.point_conflicts[p as usize].push(id);
        }
        for (u, w) in tri.directed_faces() {
            let slots = self.face_map.entry(face_key(u, w)).or_insert([u32::MAX; 2]);
            if slots[0] == u32::MAX {
                slots[0] = id;
            } else if slots[1] == u32::MAX {
                slots[1] = id;
            } else {
                panic!("face ({u},{w}) already has two triangles");
            }
        }
        self.mesh.triangles.push(tri);
        self.ripped.push(u32::MAX);
        self.stats.triangles_created += 1;
        id
    }

    /// Replace the dead side `t` of face `(u, w)` (directed as in `t`) with
    /// a new triangle through point `v`; `to` is the surviving side.
    fn replace_boundary(&mut self, to: u32, u: u32, w: u32, t: u32, v: u32) -> u32 {
        // Remove t from the face entry now; the new triangle re-claims the
        // slot in push_triangle.
        let key = face_key(u, w);
        let slots = self.face_map.get_mut(&key).expect("face exists");
        if slots[0] == t {
            slots[0] = u32::MAX;
        } else if slots[1] == t {
            slots[1] = u32::MAX;
        } else {
            panic!("triangle {t} not on face ({u},{w})");
        }

        let verts = Mesh::canonical([u, w, v]);
        if verts[2] != INFINITE_VERTEX {
            debug_assert_eq!(
                orient2d_sign(
                    self.mesh.points[verts[0] as usize],
                    self.mesh.points[verts[1] as usize],
                    self.mesh.points[verts[2] as usize]
                ),
                1,
                "new triangle must be CCW"
            );
        }
        let conflicts = merge_conflicts(
            &self.mesh,
            &verts,
            &self.mesh.triangles[t as usize].conflicts,
            &self.mesh.triangles[to as usize].conflicts,
            v,
            &mut self.stats,
        );
        self.push_triangle(Triangle {
            v: verts,
            conflicts,
        })
    }
}

/// Fact 4.1 merge: walk the two sorted conflict lists; points in both are
/// inherited without a test, points in exactly one are tested against the
/// new triangle. The inserted point `v` (and any new-triangle vertex) is
/// excluded.
pub(crate) fn merge_conflicts(
    mesh: &Mesh,
    verts: &[u32; 3],
    ea: &[u32],
    eb: &[u32],
    v: u32,
    stats: &mut DtStats,
) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let is_vertex = |p: u32| p == verts[0] || p == verts[1] || p == verts[2] || p == v;
    while i < ea.len() || j < eb.len() {
        let a = ea.get(i).copied().unwrap_or(u32::MAX);
        let b = eb.get(j).copied().unwrap_or(u32::MAX);
        let (p, in_both) = match a.cmp(&b) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                (a, true)
            }
            std::cmp::Ordering::Less => {
                i += 1;
                (a, false)
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                (b, false)
            }
        };
        if is_vertex(p) {
            continue;
        }
        if in_both {
            // Fact 4.1: E(t) ∩ E(t_o) ⊆ E(t') — no test needed.
            debug_assert!(
                mesh.in_conflict(verts, mesh.points[p as usize]),
                "Fact 4.1 violated: {p} in both conflict sets but not in E(t') of {verts:?}"
            );
            stats.skipped_tests += 1;
            out.push(p);
        } else {
            if verts[2] == INFINITE_VERTEX {
                stats.orient_tests += 1;
            } else {
                stats.incircle_tests += 1;
            }
            if mesh.in_conflict(verts, mesh.points[p as usize]) {
                out.push(p);
            }
        }
    }
    out
}

/// Build the seed triangulation: the first non-collinear triple of the
/// order as a CCW triangle plus its three hull (infinite) triangles, with
/// conflict sets over all remaining points.
pub(crate) fn build_seed(
    points_in_order: Vec<Point2>,
    stats: &mut DtStats,
) -> (Mesh, Vec<Triangle>) {
    let mesh = Mesh {
        points: points_in_order,
        triangles: Vec::new(),
    };
    let n = mesh.points.len();
    let seeds: [[u32; 3]; 4] = [
        [0, 1, 2],
        [1, 0, INFINITE_VERTEX],
        [2, 1, INFINITE_VERTEX],
        [0, 2, INFINITE_VERTEX],
    ];
    let mut tris = Vec::with_capacity(4);
    for verts in seeds {
        let mut conflicts = Vec::new();
        for p in 3..n as u32 {
            if verts[2] == INFINITE_VERTEX {
                stats.orient_tests += 1;
            } else {
                stats.incircle_tests += 1;
            }
            if mesh.in_conflict(&verts, mesh.points[p as usize]) {
                conflicts.push(p);
            }
        }
        tris.push(Triangle {
            v: verts,
            conflicts,
        });
    }
    (mesh, tris)
}

/// Algorithm 4: sequential incremental Delaunay triangulation of `points`
/// taken in the given (random) order. Needs ≥ 3 points, not all collinear,
/// pairwise distinct.
pub(crate) fn delaunay_sequential_impl(points: &[Point2]) -> DtResult {
    let order = seed_order(points);
    let points_in_order: Vec<Point2> = order.iter().map(|&i| points[i]).collect();
    let n = points_in_order.len();

    let mut stats = DtStats::default();
    let (mesh, seed_tris) = build_seed(points_in_order, &mut stats);
    let mut st = SeqState {
        mesh,
        face_map: FxHashMap::default(),
        point_conflicts: vec![Vec::new(); n],
        ripped: Vec::new(),
        stats,
    };
    for tri in seed_tris {
        st.push_triangle(tri);
    }

    for i in 3..n as u32 {
        // R ← {t ∈ M | v_i ∈ E(t)} via the point→triangle mapping.
        let r: Vec<u32> = st.point_conflicts[i as usize]
            .iter()
            .copied()
            .filter(|&t| st.alive(t))
            .collect();
        assert!(!r.is_empty(), "point {i} conflicts with no alive triangle");
        for &t in &r {
            st.ripped[t as usize] = i;
        }
        // Boundary faces: faces of R whose other side is not in R.
        for &t in &r {
            for (u, w) in st.mesh.triangles[t as usize].directed_faces() {
                let slots = st.face_map[&face_key(u, w)];
                let to = if slots[0] == t { slots[1] } else { slots[0] };
                debug_assert_ne!(to, u32::MAX, "face ({u},{w}) lost its other side");
                if st.ripped[to as usize] != i {
                    // `to` survives iteration i (alive or ripped earlier —
                    // only alive is possible since faces of dead triangles
                    // were removed from the map).
                    debug_assert!(st.alive(to));
                    st.replace_boundary(to, u, w, t, i);
                }
            }
        }
        // Remove dead triangles' remaining (interior) face slots.
        for &t in &r {
            for (u, w) in st.mesh.triangles[t as usize].directed_faces() {
                if let Some(slots) = st.face_map.get_mut(&face_key(u, w)) {
                    for s in slots.iter_mut() {
                        if *s == t {
                            *s = u32::MAX;
                        }
                    }
                }
            }
        }
    }

    DtResult {
        mesh: st.mesh,
        stats: st.stats,
        rounds: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_geometry::distributions::dedup_points;
    use ri_geometry::PointDistribution;
    use ri_pram::random_permutation;

    fn workload(n: usize, seed: u64, dist: PointDistribution) -> Vec<Point2> {
        let pts = dedup_points(dist.generate(n, seed));
        let order = random_permutation(pts.len(), seed ^ 0xd7);
        order.iter().map(|&i| pts[i]).collect()
    }

    #[test]
    fn triangle_of_three() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let r = delaunay_sequential_impl(&pts);
        assert_eq!(r.mesh.finite_triangles().len(), 1);
        assert_eq!(r.mesh.hull_edges().len(), 3);
        r.mesh.validate().unwrap();
    }

    #[test]
    fn square_two_triangles() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
        ];
        let r = delaunay_sequential_impl(&pts);
        assert_eq!(r.mesh.finite_triangles().len(), 2);
        r.mesh.validate().unwrap();
        assert!(r.mesh.is_delaunay_brute_force());
    }

    #[test]
    fn interior_point_fan() {
        // 3 corners + center: 3 triangles around the center.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(0.0, 4.0),
            Point2::new(1.0, 1.0),
        ];
        let r = delaunay_sequential_impl(&pts);
        assert_eq!(r.mesh.finite_triangles().len(), 3);
        r.mesh.validate().unwrap();
        assert!(r.mesh.is_delaunay_brute_force());
    }

    #[test]
    fn random_points_valid_delaunay() {
        for seed in 0..6 {
            let pts = workload(120, seed, PointDistribution::UniformSquare);
            let r = delaunay_sequential_impl(&pts);
            r.mesh
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                r.mesh.is_delaunay_brute_force(),
                "not Delaunay at seed {seed}"
            );
        }
    }

    #[test]
    fn clustered_and_circle_distributions() {
        for dist in [
            PointDistribution::Clusters(4),
            PointDistribution::NearCircle,
            PointDistribution::UniformDisk,
        ] {
            let pts = workload(150, 3, dist);
            let r = delaunay_sequential_impl(&pts);
            r.mesh
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", dist.name()));
            assert!(r.mesh.is_delaunay_brute_force(), "{} failed", dist.name());
        }
    }

    #[test]
    fn near_degenerate_grid() {
        let pts = workload(100, 5, PointDistribution::JitteredGrid);
        let r = delaunay_sequential_impl(&pts);
        r.mesh.validate().unwrap();
        assert!(r.mesh.is_delaunay_brute_force());
    }

    #[test]
    fn collinear_run_with_one_offline_point() {
        // Adversarial: many collinear points + one apex. Exercises the
        // closed half-plane conflict rule.
        let mut pts: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64, 0.0)).collect();
        pts.push(Point2::new(3.5, 7.0));
        let r = delaunay_sequential_impl(&pts);
        r.mesh.validate().unwrap();
        assert_eq!(r.mesh.finite_triangles().len(), 19); // 19 segments fanned to the apex
    }

    #[test]
    fn incircle_count_within_theorem_bound() {
        let n = 2000;
        let pts = workload(n, 11, PointDistribution::UniformSquare);
        let r = delaunay_sequential_impl(&pts);
        let n = pts.len() as f64;
        let bound = 24.0 * n * n.ln() + 50.0 * n;
        assert!(
            (r.stats.incircle_tests as f64) < bound,
            "InCircle tests {} above Theorem 4.5 bound {bound}",
            r.stats.incircle_tests
        );
        assert!(r.stats.skipped_tests > 0, "Fact 4.1 never fired");
    }
}
