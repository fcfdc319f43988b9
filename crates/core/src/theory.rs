//! Closed-form quantities from the paper, used as the "paper" column of
//! every paper-vs-measured report.

/// The harmonic number `H_n = Σ_{i=1..n} 1/i`.
///
/// Theorem 2.1 bounds iteration dependence depth by `σ·H_n`; Theorem 2.2's
/// expected number of special iterations is `Σ c/j ≈ c·H_n`.
pub fn harmonic(n: usize) -> f64 {
    if n < 10_000 {
        (1..=n).map(|i| 1.0 / i as f64).sum()
    } else {
        // Asymptotic expansion: H_n = ln n + γ + 1/(2n) − 1/(12n²) + ...
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        let nf = n as f64;
        nf.ln() + EULER_GAMMA + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

/// `⌈log₂ n⌉` (0 for `n ≤ 1`) — the round count of the Type 3 executor and
/// the prefix count of the Type 2 executor.
pub fn log2_ceil(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        usize::BITS as usize - (n - 1).leading_zeros() as usize
    }
}

/// Expected total dependences for a separating-dependence algorithm
/// (Corollary 2.4): `≤ 2 n ln n`.
pub fn separating_dependence_bound(n: usize) -> f64 {
    2.0 * n as f64 * (n.max(1) as f64).ln()
}

/// Theorem 4.5's bound on expected InCircle tests for 2-D Delaunay:
/// `24 n ln n + O(n)` — we report the leading constant, so the comparison
/// value is `24 n ln n`.
pub fn delaunay_incircle_bound(n: usize) -> f64 {
    24.0 * n as f64 * (n.max(1) as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        assert_eq!(harmonic(0), 0.0);
    }

    #[test]
    fn harmonic_asymptotic_consistent() {
        // The exact sum and asymptotic expansion must agree at the cutover.
        let exact: f64 = (1..=10_000).map(|i| 1.0 / i as f64).sum();
        assert!((harmonic(10_000) - exact).abs() < 1e-9);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn bounds_monotone() {
        assert!(separating_dependence_bound(100) < separating_dependence_bound(1000));
        assert!(delaunay_incircle_bound(100) < delaunay_incircle_bound(1000));
        assert_eq!(delaunay_incircle_bound(1), 0.0);
    }
}
