//! Algorithm 5: the parallel incremental Delaunay triangulation.
//!
//! The driver is face-centric. A face `f` with incident triangles
//! `(t, t_o)` is **active** when `min(E(t)) < min(E(t_o))` (with an
//! "empty" sentinel larger than every point id): by Lemma 4.2 the
//! sequential algorithm is guaranteed to eventually call
//! `ReplaceBoundary(t_o, f, t, min(E(t)))`, so the parallel algorithm may
//! fire it immediately. Each round fires *all* active faces in parallel;
//! the new triangles and faces they create are the only candidates whose
//! activity can have changed, so the next round re-examines exactly those.
//!
//! The number of rounds equals the depth of the triangle dependence DAG
//! `G_T(V)` — `O(log n)` whp by Theorem 4.3 — and the multiset of
//! `ReplaceBoundary` calls (hence every work counter) is **identical** to
//! the sequential run's.

use rayon::prelude::*;

use ri_core::engine::{grain, scratch};
use ri_geometry::Point2;
use ri_pram::{ConcurrentPairMap, RoundLog};

use crate::mesh::{face_key, seed_order, Mesh, Triangle, NO_CONFLICT};
use crate::seq::{build_seed, merge_conflicts};
use crate::{DtResult, DtStats};

/// One scheduled `ReplaceBoundary` call.
struct Task {
    key: u64,
    /// The side being replaced (the triangle `min(E(t))` conflicts with).
    t: u32,
    /// The surviving side.
    to: u32,
    /// The point being inserted at this face.
    v: u32,
}

/// Activity check for one candidate face against the current mesh: the
/// `ReplaceBoundary` call Lemma 4.2 licenses right now, if any.
fn classify_face(face_map: &ConcurrentPairMap, mesh: &Mesh, key: u64) -> Option<Task> {
    let slots = face_map.get(key);
    let (a, b) = (slots.a?, slots.b?);
    let (t1, t2) = (a as u32, b as u32);
    let m1 = mesh.triangles[t1 as usize].min_conflict();
    let m2 = mesh.triangles[t2 as usize].min_conflict();
    match m1.cmp(&m2) {
        std::cmp::Ordering::Equal => None, // both done, or interior
        std::cmp::Ordering::Less => Some(Task {
            key,
            t: t1,
            to: t2,
            v: m1,
        }),
        std::cmp::Ordering::Greater => Some(Task {
            key,
            t: t2,
            to: t1,
            v: m2,
        }),
    }
}

/// A freshly created triangle, before arena insertion.
struct NewTri {
    verts: [u32; 3],
    conflicts: Vec<u32>,
    key: u64,
    dead: u32,
    stats: DtStats,
}

/// Estimated nanoseconds per candidate face of the activity check (a face
/// map lookup and two conflict-list heads; 25–45 ns measured).
const CLASSIFY_NS: u64 = 30;

/// Estimated nanoseconds per fired task (a conflict-list merge with its
/// InCircle tests; 430–690 ns measured).
const FIRE_NS: u64 = 500;

/// Fire `tasks` (pure reads of the arena, private outputs) by parallel
/// divide-and-conquer: [`rayon::join`] splits the slice in half while it
/// holds at least two tasks and the go-parallel rule admits its work at
/// `fire_ns` per task, and concatenation preserves task order. `join`'s
/// thread budget halves per fork, so the whole divide tree spawns at most
/// `threads − 1` helpers regardless of task count.
fn fire_tasks(mesh: &Mesh, tasks: &[Task], fire_ns: u64) -> Vec<NewTri> {
    // The rule can admit one task's declared cost, and a one-task slice
    // would split into itself and an empty one.
    if tasks.len() < 2 || !grain::goes_parallel(tasks.len(), fire_ns) {
        return tasks.iter().map(|task| fire_one(mesh, task)).collect();
    }
    let (lo, hi) = tasks.split_at(tasks.len() / 2);
    let (mut left, right) = rayon::join(
        || fire_tasks(mesh, lo, fire_ns),
        || fire_tasks(mesh, hi, fire_ns),
    );
    left.extend(right);
    left
}

/// One `ReplaceBoundary` call: build the replacement triangle for `task`.
fn fire_one(mesh: &Mesh, task: &Task) -> NewTri {
    let t = &mesh.triangles[task.t as usize];
    let to = &mesh.triangles[task.to as usize];
    let (u, w) = t
        .directed_faces()
        .into_iter()
        .find(|&(u, w)| face_key(u, w) == task.key)
        .expect("task face belongs to its triangle");
    let verts = Mesh::canonical([u, w, task.v]);
    let mut local = DtStats::default();
    let conflicts = merge_conflicts(
        mesh,
        &verts,
        &t.conflicts,
        &to.conflicts,
        task.v,
        &mut local,
    );
    NewTri {
        verts,
        conflicts,
        key: task.key,
        dead: task.t,
        stats: local,
    }
}

/// Algorithm 5: parallel incremental Delaunay triangulation of `points`
/// taken in the given (random) order. Same preconditions as the sequential
/// version; produces the identical triangulation and work counters.
pub(crate) fn delaunay_parallel_impl(points: &[Point2]) -> DtResult {
    delaunay_rounds(points, CLASSIFY_NS, FIRE_NS)
}

/// Algorithm 5's rounds, with the per-face and per-task costs the
/// go-parallel rule weighs for the activity check and the firing.
fn delaunay_rounds(points: &[Point2], classify_ns: u64, fire_ns: u64) -> DtResult {
    let order = seed_order(points);
    let points_in_order: Vec<Point2> = order.iter().map(|&i| points[i]).collect();
    let n = points_in_order.len();

    let mut stats = DtStats::default();
    let (mut mesh, seed_tris) = build_seed(points_in_order, &mut stats);

    let mut face_map = ConcurrentPairMap::with_capacity(8 * n + 64);
    // Per-round working vectors come from (and return to) the engine's
    // scratch arena; `candidates`/`next` swap roles each round.
    let mut candidates: Vec<u64> = scratch::take_vec();
    let mut next: Vec<u64> = scratch::take_vec();
    let mut tasks: Vec<Task> = scratch::take_vec();
    for tri in seed_tris {
        let id = mesh.triangles.len() as u32;
        for (u, w) in tri.directed_faces() {
            let key = face_key(u, w);
            face_map.insert(key, id as u64);
            candidates.push(key);
        }
        mesh.triangles.push(tri);
        stats.triangles_created += 1;
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut log = RoundLog::new();
    while !candidates.is_empty() {
        // Activity check: which candidate faces may fire? Rounds too small
        // to pay for a crew (the long tail) check inline; either way the
        // task list reuses one scratch buffer across rounds.
        let classify = |key: u64| classify_face(&face_map, &mesh, key);
        tasks.clear();
        if grain::goes_parallel(candidates.len(), classify_ns) {
            let chunk = candidates.len().div_ceil(rayon::recommended_splits());
            let parts: Vec<Vec<Task>> = candidates
                .par_chunks(chunk)
                .with_cost(classify_ns)
                .map(|keys| keys.iter().filter_map(|&key| classify(key)).collect())
                .collect();
            for p in parts {
                tasks.extend(p);
            }
        } else {
            tasks.extend(candidates.iter().filter_map(|&key| classify(key)));
        }
        if tasks.is_empty() {
            break;
        }

        // Fire all active faces by join recursion over the task slice.
        let new_tris: Vec<NewTri> = fire_tasks(&mesh, &tasks, fire_ns);

        // Commit phase: append to the arena, rewire the face map, and
        // gather the touched faces as the next round's candidates.
        let base = mesh.triangles.len() as u32;
        let mut round_work = 0u64;
        for nt in &new_tris {
            stats.incircle_tests += nt.stats.incircle_tests;
            stats.orient_tests += nt.stats.orient_tests;
            stats.skipped_tests += nt.stats.skipped_tests;
            round_work += nt.stats.incircle_tests + nt.stats.orient_tests;
        }
        stats.triangles_created += new_tris.len();

        next.clear();
        next.reserve(3 * new_tris.len());
        for (off, nt) in new_tris.into_iter().enumerate() {
            let id = base + off as u32;
            mesh.triangles.push(Triangle {
                v: nt.verts,
                conflicts: nt.conflicts,
            });
            let replaced = face_map.replace(nt.key, nt.dead as u64, id as u64);
            assert!(replaced, "face map lost the dead side of {:?}", nt.verts);
            next.push(nt.key);
            for (u, w) in mesh.triangles[id as usize].directed_faces() {
                let k = face_key(u, w);
                if k != nt.key {
                    face_map.insert(k, id as u64);
                    next.push(k);
                }
            }
        }
        if face_map.should_grow() {
            face_map.grow();
        }
        next.sort_unstable();
        next.dedup();
        std::mem::swap(&mut candidates, &mut next);
        log.record(tasks.len(), round_work);
    }
    scratch::put_vec(candidates);
    scratch::put_vec(next);
    scratch::put_vec(tasks);

    debug_assert!(
        mesh.triangles
            .iter()
            .all(|t| t.conflicts.is_empty() || t.min_conflict() != NO_CONFLICT),
        "sanity"
    );
    DtResult {
        mesh,
        stats,
        rounds: Some(log),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::delaunay_sequential_impl;
    use ri_geometry::distributions::dedup_points;
    use ri_geometry::PointDistribution;
    use ri_pram::random_permutation;

    fn workload(n: usize, seed: u64, dist: PointDistribution) -> Vec<Point2> {
        let pts = dedup_points(dist.generate(n, seed));
        let order = random_permutation(pts.len(), seed ^ 0xd7);
        order.iter().map(|&i| pts[i]).collect()
    }

    fn sorted_tris(mesh: &Mesh) -> Vec<[u32; 3]> {
        let mut ts: Vec<[u32; 3]> = mesh
            .finite_triangles()
            .into_iter()
            .map(|mut v| {
                // Canonical rotation: smallest vertex first (keeps CCW).
                let m = (0..3).min_by_key(|&i| v[i]).unwrap();
                v.rotate_left(m);
                v
            })
            .collect();
        ts.sort_unstable();
        ts
    }

    #[test]
    fn matches_sequential_exactly() {
        for seed in 0..6 {
            let pts = workload(200, seed, PointDistribution::UniformSquare);
            let seq = delaunay_sequential_impl(&pts);
            let par = delaunay_parallel_impl(&pts);
            assert_eq!(
                sorted_tris(&seq.mesh),
                sorted_tris(&par.mesh),
                "triangulations differ at seed {seed}"
            );
            assert_eq!(seq.stats, par.stats, "work counters differ at seed {seed}");
        }
    }

    #[test]
    fn crews_and_joins_build_the_sequential_triangulation() {
        // Declare the activity checks, then the firings, dear enough that
        // every round with more than one face pays, so the crew path and
        // the join path each really run (one at a time, so the spawn
        // counters tell them apart: crews count regions, joins do not).
        let pts = workload(2000, 11, PointDistribution::UniformSquare);
        let seq = delaunay_sequential_impl(&pts);
        let counters = || (rayon::crew_regions(), rayon::helper_threads_spawned());
        rayon::cached_pool(4).install(|| {
            let before = counters();
            let crews = delaunay_rounds(&pts, 1_000_000, 0);
            let after = counters();
            assert!(after.0 > before.0, "activity checks must form crews");
            let joins = delaunay_rounds(&pts, 0, 1_000_000);
            assert_eq!(counters().0, after.0, "firings open no crew region");
            assert!(counters().1 > after.1, "firings must join");
            for par in [crews, joins] {
                assert_eq!(sorted_tris(&seq.mesh), sorted_tris(&par.mesh));
                assert_eq!(seq.stats, par.stats);
            }
        });
    }

    #[test]
    fn one_task_slices_fire_at_any_declared_cost() {
        // At u64::MAX ns per task the rule admits every non-empty slice,
        // so every firing splits down to one-task slices, which must run
        // inline instead of splitting again.
        let pts = workload(60, 5, PointDistribution::UniformSquare);
        let seq = delaunay_sequential_impl(&pts);
        let par = rayon::cached_pool(4).install(|| delaunay_rounds(&pts, 0, u64::MAX));
        assert_eq!(sorted_tris(&seq.mesh), sorted_tris(&par.mesh));
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn valid_delaunay_across_distributions() {
        for dist in [
            PointDistribution::UniformSquare,
            PointDistribution::UniformDisk,
            PointDistribution::Clusters(4),
            PointDistribution::NearCircle,
            PointDistribution::JitteredGrid,
        ] {
            let pts = workload(300, 7, dist);
            let r = delaunay_parallel_impl(&pts);
            r.mesh
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", dist.name()));
        }
    }

    #[test]
    fn brute_force_delaunay_small() {
        for seed in 0..4 {
            let pts = workload(80, seed, PointDistribution::UniformSquare);
            let r = delaunay_parallel_impl(&pts);
            assert!(r.mesh.is_delaunay_brute_force(), "seed {seed}");
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let pts = workload(1 << 12, 3, PointDistribution::UniformSquare);
        let r = delaunay_parallel_impl(&pts);
        let rounds = r.rounds.unwrap().rounds();
        // Theorem 4.3: O(d log n) whp; generous constant.
        assert!(
            rounds < 12 * 12,
            "rounds {rounds} suspiciously deep for n=4096"
        );
        assert!(rounds >= 12, "rounds {rounds} implausibly shallow");
    }

    #[test]
    fn larger_mesh_valid() {
        let pts = workload(5000, 1, PointDistribution::UniformSquare);
        let r = delaunay_parallel_impl(&pts);
        r.mesh.validate().unwrap();
    }

    #[test]
    fn collinear_run_parallel() {
        let mut pts: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64, 0.0)).collect();
        pts.push(Point2::new(3.5, 7.0));
        let r = delaunay_parallel_impl(&pts);
        r.mesh.validate().unwrap();
        assert_eq!(r.mesh.finite_triangles().len(), 19); // 19 segments fanned to the apex
    }
}
