//! Exact geometric predicates with floating-point filters.
//!
//! Both predicates first evaluate the determinant in plain `f64` and accept
//! the sign if it clears a static forward-error bound (Shewchuk's "stage A"
//! filter); otherwise they fall through to a fully exact evaluation over
//! expansions. On random inputs the exact path triggers almost never; on
//! adversarially degenerate inputs it guarantees the right answer.

use crate::expansion::{
    fast_expansion_sum, negate, scale_expansion, sign, two_product_diff, two_two_diff,
};
use crate::point::Point2;

/// Orientation of an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Counter-clockwise turn (positive determinant).
    CounterClockwise,
    /// Clockwise turn (negative determinant).
    Clockwise,
    /// Exactly collinear.
    Collinear,
}

// Machine epsilon for the filter bounds: 2^-53 (half-ulp of 1.0), matching
// Shewchuk's `epsilon`.
const EPSILON: f64 = f64::EPSILON / 2.0;
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;
const ICC_ERRBOUND_A: f64 = (10.0 + 96.0 * EPSILON) * EPSILON;

/// Sign of the 2-D orientation determinant
/// `| ax−cx  ay−cy |`
/// `| bx−cx  by−cy |`:
/// `+1` if `(a, b, c)` make a counter-clockwise turn, `−1` clockwise,
/// `0` collinear. Exact for all `f64` inputs.
pub fn orient2d_sign(a: Point2, b: Point2, c: Point2) -> i32 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return sign_f64(det);
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return sign_f64(det);
        }
        -detleft - detright
    } else {
        return sign_f64(det);
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return sign_f64(det);
    }
    orient2d_exact(a, b, c)
}

/// Orientation of `(a, b, c)` as an enum. Exact.
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> Orientation {
    match orient2d_sign(a, b, c) {
        1 => Orientation::CounterClockwise,
        -1 => Orientation::Clockwise,
        _ => Orientation::Collinear,
    }
}

/// Fully exact orientation via expansions — the 3-term Laplace expansion
/// `ax(by − cy) + bx(cy − ay) + cx(ay − by)` over exact products.
fn orient2d_exact(a: Point2, b: Point2, c: Point2) -> i32 {
    // Pairwise products of coordinates, as 4-component expansions.
    let axby_axcy = two_product_diff(a.x, b.y, a.x, c.y); // ax·by − ax·cy
    let bxcy_bxay = two_product_diff(b.x, c.y, b.x, a.y); // bx·cy − bx·ay
    let cxay_cxby = two_product_diff(c.x, a.y, c.x, b.y); // cx·ay − cx·by
    let s = fast_expansion_sum(&axby_axcy, &bxcy_bxay);
    let s = fast_expansion_sum(&s, &cxay_cxby);
    sign(&s)
}

/// Sign of the InCircle determinant for the *counter-clockwise* triangle
/// `(a, b, c)` and query point `d`:
/// `+1` if `d` lies strictly inside the circumcircle of `(a, b, c)`,
/// `−1` strictly outside, `0` exactly on the circle.
///
/// **Precondition:** `(a, b, c)` is counter-clockwise; if it is clockwise
/// the sign flips (callers that cannot guarantee orientation should use
/// [`incircle`]).
pub fn incircle_sign_ccw(a: Point2, b: Point2, c: Point2, d: Point2) -> i32 {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICC_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return sign_f64(det);
    }
    incircle_exact(a, b, c, d)
}

/// Orientation-independent InCircle: `+1` iff `d` is strictly inside the
/// circle through `a`, `b`, `c` (any orientation; `0` if the triangle is
/// degenerate or `d` lies exactly on the circle). Exact.
pub fn incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> i32 {
    match orient2d_sign(a, b, c) {
        1 => incircle_sign_ccw(a, b, c, d),
        -1 => -incircle_sign_ccw(a, b, c, d),
        _ => 0,
    }
}

/// Fully exact InCircle via expansions (Shewchuk's `incircleexact`): the
/// 4×4 determinant
/// `| ax ay ax²+ay² 1 |`
/// `| bx by bx²+by² 1 |`
/// `| cx cy cx²+cy² 1 |`
/// `| dx dy dx²+dy² 1 |`
/// expanded along the lift column over 2×2 cofactor expansions.
fn incircle_exact(a: Point2, b: Point2, c: Point2, d: Point2) -> i32 {
    // 2x2 minors ab = ax·by − bx·ay etc., each a 4-expansion.
    let ab = two_product_diff(a.x, b.y, b.x, a.y);
    let bc = two_product_diff(b.x, c.y, c.x, b.y);
    let cd = two_product_diff(c.x, d.y, d.x, c.y);
    let da = two_product_diff(d.x, a.y, a.x, d.y);
    let mut ac = two_product_diff(a.x, c.y, c.x, a.y);
    let mut bd = two_product_diff(b.x, d.y, d.x, b.y);

    // 3-point minors: cda = cd + da + ac, dab = da + ab + bd,
    //                 abc = ab + bc − ac, bcd = bc + cd − bd.
    let t = fast_expansion_sum(&cd, &da);
    let cda = fast_expansion_sum(&t, &ac);
    let t = fast_expansion_sum(&da, &ab);
    let dab = fast_expansion_sum(&t, &bd);
    negate(&mut ac);
    negate(&mut bd);
    let t = fast_expansion_sum(&ab, &bc);
    let abc = fast_expansion_sum(&t, &ac);
    let t = fast_expansion_sum(&bc, &cd);
    let bcd = fast_expansion_sum(&t, &bd);

    // det = lift(a)·bcd − lift(b)·cda + lift(c)·dab − lift(d)·abc,
    // where lift(p) = px² + py², each product done exactly by scaling the
    // minor expansion twice per coordinate.
    let lift_times = |minor: &[f64], p: Point2, negate_term: bool| -> Vec<f64> {
        let sgn = if negate_term { -1.0 } else { 1.0 };
        let tx = scale_expansion(minor, p.x);
        let xdet = scale_expansion(&tx, sgn * p.x);
        let ty = scale_expansion(minor, p.y);
        let ydet = scale_expansion(&ty, sgn * p.y);
        fast_expansion_sum(&xdet, &ydet)
    };
    let adet = lift_times(&bcd, a, false);
    let bdet = lift_times(&cda, b, true);
    let cdet = lift_times(&dab, c, false);
    let ddet = lift_times(&abc, d, true);

    let abdet = fast_expansion_sum(&adet, &bdet);
    let cddet = fast_expansion_sum(&cdet, &ddet);
    let det = fast_expansion_sum(&abdet, &cddet);
    sign(&det)
}

#[inline]
fn sign_f64(x: f64) -> i32 {
    if x > 0.0 {
        1
    } else if x < 0.0 {
        -1
    } else {
        0
    }
}

/// `a·b − c·d` exact sign — exposed for the LP crate's pivot tests.
pub fn det2_sign(a: f64, b: f64, c: f64, d: f64) -> i32 {
    let det = a * b - c * d;
    let err = 4.0 * EPSILON * (a * b).abs().max((c * d).abs());
    if det > err || -det > err {
        return sign_f64(det);
    }
    sign(&two_two_diff_products(a, b, c, d))
}

fn two_two_diff_products(a: f64, b: f64, c: f64, d: f64) -> [f64; 4] {
    let (ab1, ab0) = crate::expansion::two_product(a, b);
    let (cd1, cd0) = crate::expansion::two_product(c, d);
    two_two_diff(ab1, ab0, cd1, cd0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn orientation_basic() {
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orientation_exact_on_degenerate_grid() {
        // The classic robustness benchmark: points on a line perturbed by
        // one ulp must be classified exactly.
        let base = 12.0;
        let a = p(base, base);
        let b = p(base + 2.0, base + 2.0);
        for i in 0..32 {
            for j in 0..32 {
                let c = p(
                    base + 1.0 + (i as f64) * f64::EPSILON * 4.0,
                    base + 1.0 + (j as f64) * f64::EPSILON * 4.0,
                );
                let got = orient2d_sign(a, b, c);
                // Reference via exact rational arithmetic on scaled integers.
                let s = exact_reference_orient(a, b, c);
                assert_eq!(got, s, "mismatch at ({i},{j})");
            }
        }
    }

    /// Reference orientation using i128 arithmetic after exact scaling
    /// (valid because all coordinates here are small multiples of 2^-52).
    fn exact_reference_orient(a: Point2, b: Point2, c: Point2) -> i32 {
        let scale = 2f64.powi(60);
        let ax = (a.x * scale) as i128;
        let ay = (a.y * scale) as i128;
        let bx = (b.x * scale) as i128;
        let by = (b.y * scale) as i128;
        let cx = (c.x * scale) as i128;
        let cy = (c.y * scale) as i128;
        let det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx);
        match det.cmp(&0) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
        }
    }

    #[test]
    fn incircle_unit_circle() {
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        assert_eq!(incircle(a, b, c, p(0.0, 0.0)), 1); // center: inside
        assert_eq!(incircle(a, b, c, p(2.0, 0.0)), -1); // outside
        assert_eq!(incircle(a, b, c, p(0.0, -1.0)), 0); // on circle
    }

    #[test]
    fn incircle_orientation_independent() {
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        let d = p(0.1, 0.1);
        assert_eq!(incircle(a, b, c, d), incircle(a, c, b, d));
        assert_eq!(incircle(a, b, c, d), incircle(c, b, a, d));
    }

    #[test]
    fn incircle_near_cocircular_exact() {
        // Four nearly-cocircular points differing by ulps: exact predicate
        // must agree with the i128 reference.
        let a = p(0.0, 1.0);
        let b = p(1.0, 0.0);
        let c = p(-1.0, 0.0);
        for k in -8i32..=8 {
            let d = p(0.0, -1.0 + (k as f64) * f64::EPSILON);
            let got = incircle(a, b, c, d);
            let want = if k > 0 {
                1 // pulled inside the unit circle
            } else if k < 0 {
                -1
            } else {
                0
            };
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn incircle_cycle_invariance() {
        let a = p(0.3, 0.4);
        let b = p(1.7, 0.1);
        let c = p(0.9, 2.2);
        let d = p(0.8, 0.9);
        let s = incircle(a, b, c, d);
        assert_eq!(s, incircle(b, c, a, d));
        assert_eq!(s, incircle(c, a, b, d));
    }

    #[test]
    fn degenerate_triangle_incircle_zero() {
        assert_eq!(
            incircle(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0), p(5.0, 1.0)),
            0
        );
    }

    #[test]
    fn det2_sign_near_ties() {
        assert_eq!(det2_sign(3.0, 4.0, 6.0, 2.0), 0);
        // 2 − ε and 2 + 2ε are the representable neighbours of 2.0.
        assert_eq!(det2_sign(3.0, 4.0, 6.0, 2.0 - f64::EPSILON), 1);
        assert_eq!(det2_sign(3.0, 4.0, 6.0, 2.0 + 2.0 * f64::EPSILON), -1);
    }
}
