//! Parallel reductions: minimum, minimum index, argmin by key.
//!
//! Algorithm 1 of the paper ("l ← minimum true index in F") and every Type 2
//! algorithm's "find the earliest special iteration" step are minimum-index
//! reductions; the paper implements them in O(1) PRAM depth, we implement
//! them as rayon reduce trees (O(log n) depth, same O(n) work).

use rayon::prelude::*;

/// Estimated nanoseconds per key comparison of the reduction.
const REDUCE_NS: u64 = 2;

/// Index of the minimum element (first occurrence wins ties). `None` on
/// empty input.
pub fn min_index<T: Ord + Sync>(items: &[T]) -> Option<usize> {
    min_index_by_key(items.len(), |i| &items[i])
}

/// Index `i ∈ 0..n` minimising `key(i)`; ties broken toward the smaller
/// index (so the result is deterministic and matches a sequential scan).
pub fn min_index_by_key<K, F>(n: usize, key: F) -> Option<usize>
where
    K: Ord,
    F: Fn(usize) -> K + Sync,
{
    if n == 0 {
        return None;
    }
    let better = |a: usize, b: usize| -> usize {
        // Prefer strictly smaller key; on equal keys prefer smaller index.
        match key(b).cmp(&key(a)) {
            std::cmp::Ordering::Less => b,
            _ => a,
        }
    };
    if !rayon::goes_parallel(n, REDUCE_NS) {
        return Some((1..n).fold(0, better));
    }
    Some(
        (0..n)
            .into_par_iter()
            .with_cost(REDUCE_NS)
            .reduce_with(|a, b| if a < b { better(a, b) } else { better(b, a) })
            .expect("nonempty"),
    )
}

/// Index of the minimum of a float slice (NaNs are treated as +∞; first
/// occurrence wins ties). `None` on empty input.
pub fn min_float_index(values: &[f64]) -> Option<usize> {
    min_index_by_key(values.len(), |i| ordered_float_bits(values[i]))
}

/// Total order on f64 via bit tricks: sorts -∞ < ... < +∞ < NaN.
#[inline]
pub fn ordered_float_bits(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_index_simple() {
        assert_eq!(min_index(&[5, 2, 8, 2, 1, 1]), Some(4));
        assert_eq!(min_index::<u32>(&[]), None);
    }

    #[test]
    fn min_index_first_tie_wins() {
        assert_eq!(min_index(&[3, 1, 1, 1]), Some(1));
    }

    #[test]
    fn min_index_large_parallel() {
        let v: Vec<u64> = (0..300_000)
            .map(|i: u64| (i.wrapping_mul(2654435761)) % 1_000_003)
            .collect();
        let want = v
            .iter()
            .enumerate()
            .min_by_key(|&(i, x)| (x, i))
            .map(|(i, _)| i);
        assert_eq!(min_index(&v), want);
    }

    #[test]
    fn float_order_total() {
        let mut xs = [2.5, -1.0, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        xs.sort_by_key(|&x| ordered_float_bits(x));
        assert_eq!(xs[0], f64::NEG_INFINITY);
        assert_eq!(*xs.last().unwrap(), f64::INFINITY);
    }

    #[test]
    fn min_float_handles_nan() {
        assert_eq!(min_float_index(&[f64::NAN, 3.0, 1.0]), Some(2));
        assert_eq!(min_float_index(&[f64::NAN]), Some(0));
    }
}
