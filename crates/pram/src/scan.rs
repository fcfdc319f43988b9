//! Parallel prefix sums (scan).
//!
//! Scan is the PRAM workhorse behind processor allocation and compaction
//! (Preliminaries of the paper; used implicitly by every "filter and keep
//! the survivors" step). The implementation is the standard two-pass blocked
//! scheme: per-block sums, a sequential scan over the (few) block sums, then
//! a parallel fix-up pass. Work O(n), depth O(n / P + log P).

use rayon::prelude::*;

/// Estimated nanoseconds per element of one scan pass (under 1 ns
/// measured at 2^20 elements).
const SCAN_NS: u64 = 1;

/// Exclusive prefix sum over `usize` values.
///
/// Returns `(prefix, total)` where `prefix[i] = sum(values[..i])` and
/// `total = sum(values)`.
///
/// ```
/// let (pre, total) = ri_pram::exclusive_scan_usize(&[3, 1, 4, 1, 5]);
/// assert_eq!(pre, vec![0, 3, 4, 8, 9]);
/// assert_eq!(total, 14);
/// ```
pub fn exclusive_scan_usize(values: &[usize]) -> (Vec<usize>, usize) {
    let mut out = values.to_vec();
    let total = scan_inplace_at(&mut out, SCAN_NS);
    (out, total)
}

/// In-place exclusive prefix sum with each element declared to cost
/// `item_ns` to the go-parallel rule; returns the grand total.
fn scan_inplace_at(values: &mut [usize], item_ns: u64) -> usize {
    let n = values.len();
    if n == 0 {
        return 0;
    }
    if !rayon::goes_parallel(n, item_ns) {
        return scan_seq(values);
    }
    let nblocks = rayon::recommended_splits();
    let block = n.div_ceil(nblocks);
    // Pass 1: independent sums per block (the small block-sum array is a
    // reused scratch buffer, so repeated scans allocate nothing).
    let mut block_sums: Vec<usize> = crate::scratch::take_vec();
    values
        .par_chunks(block)
        .with_cost(item_ns)
        .map(|c| c.iter().sum::<usize>())
        .collect_into_vec(&mut block_sums);
    // Scan the (small) block-sum array sequentially.
    let total = scan_seq(&mut block_sums);
    // Pass 2: per-block exclusive scan offset by the block prefix.
    values
        .par_chunks_mut(block)
        .zip(block_sums.par_iter())
        .with_cost(item_ns)
        .for_each(|(chunk, &offset)| {
            let mut acc = offset;
            for v in chunk {
                let x = *v;
                *v = acc;
                acc += x;
            }
        });
    crate::scratch::put_vec(block_sums);
    total
}

fn scan_seq(values: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for v in values.iter_mut() {
        let x = *v;
        *v = acc;
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(values: &[usize]) -> (Vec<usize>, usize) {
        let mut acc = 0;
        let mut out = Vec::with_capacity(values.len());
        for &v in values {
            out.push(acc);
            acc += v;
        }
        (out, acc)
    }

    #[test]
    fn empty() {
        let (pre, total) = exclusive_scan_usize(&[]);
        assert!(pre.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn singleton() {
        let (pre, total) = exclusive_scan_usize(&[7]);
        assert_eq!(pre, vec![0]);
        assert_eq!(total, 7);
    }

    #[test]
    fn matches_reference_small() {
        let v: Vec<usize> = (0..100).map(|i| (i * 37) % 11).collect();
        assert_eq!(exclusive_scan_usize(&v), reference(&v));
    }

    #[test]
    fn matches_reference_large_parallel_path() {
        let v: Vec<usize> = (0..100_000).map(|i| (i * 2654435761) % 17).collect();
        let mut got = v.clone();
        let before = rayon::crew_regions();
        let total = rayon::cached_pool(4).install(|| scan_inplace_at(&mut got, crate::DEAR_NS));
        assert!(rayon::crew_regions() > before, "the scan must form crews");
        assert_eq!((got, total), reference(&v));
    }

    #[test]
    fn all_zeros() {
        let v = vec![0usize; 50_000];
        let (pre, total) = exclusive_scan_usize(&v);
        assert_eq!(total, 0);
        assert!(pre.iter().all(|&x| x == 0));
    }
}
