//! Floating-point expansion arithmetic (Shewchuk, 1997).
//!
//! An *expansion* is a sum of IEEE doubles `e = e₀ + e₁ + ... + e_{m-1}`
//! whose components are non-overlapping and sorted by increasing magnitude.
//! The error-free transformations below ([`two_sum`], [`two_product`], ...)
//! produce exact results as two-component expansions, and
//! [`fast_expansion_sum`]/[`scale_expansion`] combine them while staying
//! exact. The predicates in [`crate::predicates`] evaluate determinant signs
//! over these expansions, giving *exact* orientation and InCircle tests for
//! any `f64` inputs.

/// Exact sum: returns `(x, y)` with `x = fl(a+b)` and `a + b = x + y`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    let avirt = x - bvirt;
    let bround = b - bvirt;
    let around = a - avirt;
    (x, around + bround)
}

/// Exact difference: `(x, y)` with `x = fl(a-b)` and `a - b = x + y`.
#[inline]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let bvirt = a - x;
    let avirt = x + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    (x, around + bround)
}

/// Exact product via fused multiply-add: `(x, y)` with `x = fl(a·b)` and
/// `a·b = x + y`. `f64::mul_add` is a correctly rounded FMA per IEEE 754,
/// so the error term is exact.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    let y = a.mul_add(b, -x);
    (x, y)
}

/// `a·b − c·d` as an exact 4-component expansion (ascending magnitude).
///
/// This is the "2x2 determinant" building block of both predicates.
#[inline]
pub fn two_product_diff(a: f64, b: f64, c: f64, d: f64) -> [f64; 4] {
    let (ab1, ab0) = two_product(a, b);
    let (cd1, cd0) = two_product(c, d);
    two_two_diff(ab1, ab0, cd1, cd0)
}

/// `(a1 + a0) − b` as an exact 3-component expansion `(x2, x1, x0)`.
#[inline]
fn two_one_diff(a1: f64, a0: f64, b: f64) -> (f64, f64, f64) {
    let (i, x0) = two_diff(a0, b);
    let (x2, x1) = two_sum(a1, i);
    (x2, x1, x0)
}

/// `(a1 + a0) − (b1 + b0)` as an exact 4-component expansion
/// (Shewchuk's `Two_Two_Diff`), ascending magnitude.
#[inline]
pub fn two_two_diff(a1: f64, a0: f64, b1: f64, b0: f64) -> [f64; 4] {
    let (j, r0, x0) = two_one_diff(a1, a0, b0);
    let (x3, x2, x1) = two_one_diff(j, r0, b1);
    [x0, x1, x2, x3]
}

/// Sum of two expansions, eliminating zero components
/// (Shewchuk's `fast_expansion_sum_zeroelim`). Inputs must be valid
/// expansions (the outputs of the primitives above always are).
pub fn fast_expansion_sum(e: &[f64], f: &[f64]) -> Vec<f64> {
    let mut h = Vec::with_capacity(e.len() + f.len());
    let (mut ei, mut fi) = (0usize, 0usize);
    let mut enow = e.first().copied().unwrap_or(0.0);
    let mut fnow = f.first().copied().unwrap_or(0.0);

    if e.is_empty() {
        return f.iter().copied().filter(|&x| x != 0.0).collect();
    }
    if f.is_empty() {
        return e.iter().copied().filter(|&x| x != 0.0).collect();
    }

    let mut q;
    if (fnow > enow) == (fnow > -enow) {
        q = enow;
        ei += 1;
        enow = e.get(ei).copied().unwrap_or(0.0);
    } else {
        q = fnow;
        fi += 1;
        fnow = f.get(fi).copied().unwrap_or(0.0);
    }

    if ei < e.len() && fi < f.len() {
        let (qnew, h0) = if (fnow > enow) == (fnow > -enow) {
            let r = fast_two_sum(enow, q);
            ei += 1;
            enow = e.get(ei).copied().unwrap_or(0.0);
            r
        } else {
            let r = fast_two_sum(fnow, q);
            fi += 1;
            fnow = f.get(fi).copied().unwrap_or(0.0);
            r
        };
        q = qnew;
        if h0 != 0.0 {
            h.push(h0);
        }
        while ei < e.len() && fi < f.len() {
            let (qnew, h0) = if (fnow > enow) == (fnow > -enow) {
                let r = two_sum(q, enow);
                ei += 1;
                enow = e.get(ei).copied().unwrap_or(0.0);
                r
            } else {
                let r = two_sum(q, fnow);
                fi += 1;
                fnow = f.get(fi).copied().unwrap_or(0.0);
                r
            };
            q = qnew;
            if h0 != 0.0 {
                h.push(h0);
            }
        }
    }
    while ei < e.len() {
        let (qnew, h0) = two_sum(q, e[ei]);
        ei += 1;
        q = qnew;
        if h0 != 0.0 {
            h.push(h0);
        }
    }
    while fi < f.len() {
        let (qnew, h0) = two_sum(q, f[fi]);
        fi += 1;
        q = qnew;
        if h0 != 0.0 {
            h.push(h0);
        }
    }
    if q != 0.0 || h.is_empty() {
        h.push(q);
    }
    h
}

/// `fast_two_sum` (requires `|a| >= |b|` — guaranteed by the merge order in
/// `fast_expansion_sum`).
#[inline]
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    (x, b - bvirt)
}

/// Multiply an expansion by a double, exactly
/// (Shewchuk's `scale_expansion_zeroelim`).
pub fn scale_expansion(e: &[f64], b: f64) -> Vec<f64> {
    if e.is_empty() {
        return vec![0.0];
    }
    let mut h = Vec::with_capacity(2 * e.len());
    let (mut q, h0) = two_product(e[0], b);
    if h0 != 0.0 {
        h.push(h0);
    }
    for &enow in &e[1..] {
        let (p1, p0) = two_product(enow, b);
        let (sum, h1) = two_sum(q, p0);
        if h1 != 0.0 {
            h.push(h1);
        }
        let (qnew, h2) = fast_two_sum(p1, sum);
        q = qnew;
        if h2 != 0.0 {
            h.push(h2);
        }
    }
    if q != 0.0 || h.is_empty() {
        h.push(q);
    }
    h
}

/// Negate an expansion in place.
pub fn negate(e: &mut [f64]) {
    for x in e {
        *x = -*x;
    }
}

/// Approximate value of an expansion (sum smallest-to-largest).
pub fn estimate(e: &[f64]) -> f64 {
    e.iter().sum()
}

/// Exact sign of an expansion: the sign of its largest-magnitude (last
/// nonzero) component.
pub fn sign(e: &[f64]) -> i32 {
    for &x in e.iter().rev() {
        if x != 0.0 {
            return if x > 0.0 { 1 } else { -1 };
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_exact_on_cancellation() {
        // 1e16 + 1 is not representable (ulp is 2 there); the two-word
        // expansion holds it exactly: 1e16 has an even mantissa so the tie
        // rounds down, and the tail keeps the lost 1.0.
        let (x, y) = two_sum(1e16, 1.0);
        assert_eq!(x, 1e16);
        assert_eq!(y, 1.0);
        // Exactness certificate in integers:
        assert_eq!(x as i128 + y as i128, 10_000_000_000_000_001i128);
    }

    #[test]
    fn two_diff_exact() {
        let (x, y) = two_diff(1.0, 1e-20);
        assert_eq!(x, 1.0);
        assert_eq!(y, -1e-20);
    }

    #[test]
    fn two_product_error_term() {
        // (1 + 2^-52)^2 = 1 + 2^-51 + 2^-104: head + tail capture it exactly.
        let a = 1.0 + f64::EPSILON;
        let (x, y) = two_product(a, a);
        assert_eq!(x, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(y, f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn expansion_sum_represents_exact_value() {
        let e = [1e-30, 1.0];
        let f = [1e-30, -1.0];
        let s = fast_expansion_sum(&e, &f);
        assert_eq!(estimate(&s), 2e-30);
        assert_eq!(sign(&s), 1);
    }

    #[test]
    fn sign_detects_tiny_negative() {
        let e = [1.0];
        let mut f = [1.0 + 4.0 * f64::EPSILON];
        negate(&mut f);
        let s = fast_expansion_sum(&e, &f);
        assert_eq!(sign(&s), -1);
    }

    #[test]
    fn scale_expansion_exact() {
        let d = 1e-20f64; // some double near 1e-20
        let e = [d, 1.0];
        let s = scale_expansion(&e, 3.0);
        // s represents exactly 3 + 3d.
        assert_eq!(sign(&s), 1);
        assert!((estimate(&s) - 3.0).abs() < 1e-15);
        // Exactness certificate: s − 3 − 3·d must be the zero expansion.
        let r = fast_expansion_sum(&s, &[-3.0]);
        let mut three_d = scale_expansion(&[d], 3.0);
        negate(&mut three_d);
        let zero = fast_expansion_sum(&r, &three_d);
        assert_eq!(sign(&zero), 0);
    }

    #[test]
    fn two_product_diff_zero_det() {
        // 6*35 - 14*15 = 210 - 210 = 0.
        let d = two_product_diff(6.0, 35.0, 14.0, 15.0);
        assert_eq!(sign(&d), 0);
    }

    #[test]
    fn zero_expansion_sign() {
        assert_eq!(sign(&[0.0]), 0);
        assert_eq!(sign(&[]), 0);
    }
}
