//! Stable parallel LSD radix sort on `u64` keys.
//!
//! The paper's combine steps need integer sorting (semisort groups by hashed
//! key; LE-lists sort contributions per target by source index). We use the
//! classic stable least-significant-digit scheme. Each pass:
//!
//! 1. every block counts its chunk's 8-bit-digit histogram (one parallel
//!    pass, histograms land in a reused flat buffer),
//! 2. a small sequential scan over the `RADIX × blocks` histogram matrix
//!    (digit-major, block-minor) yields every *(digit, block)* segment's
//!    start in the output,
//! 3. every block counting-sorts its chunk **directly into its disjoint
//!    output segments** (one parallel pass; each block owns one `&mut`
//!    sub-slice per digit, so the scatter is safe-Rust disjoint writes).
//!
//! The two data buffers ping-pong between passes, so a whole sort touches
//! exactly two `n`-sized allocations (the input itself and one auxiliary
//! clone) instead of the former two *per pass* (per-block local sort
//! buffers plus a fresh output vector); the histogram/offset arrays come
//! from the scratch pool. Digit-major segment order, block order within a
//! digit, and input order within a block make every pass stable — the
//! same placement the old concatenation produced.
//!
//! Work O(8 · n), depth O(log n) per pass. Entirely safe code: the only
//! "scatter" is a write through a block-owned `&mut` segment.

use rayon::prelude::*;

/// Estimated nanoseconds per element of one pass (histogram or scatter;
/// about 4 ns measured for the pair at 2^20 elements).
const RADIX_NS: u64 = 2;

const DIGIT_BITS: usize = 8;
const RADIX: usize = 1 << DIGIT_BITS;

/// Sort items by a `u64` key, stably.
pub fn radix_sort_by_key<T, F>(items: &mut Vec<T>, key: F)
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    radix_sort_at(items, key, RADIX_NS);
}

/// [`radix_sort_by_key`] with each element of a pass declared to cost
/// `item_ns` to the go-parallel rule.
fn radix_sort_at<T, F>(items: &mut Vec<T>, key: F, item_ns: u64)
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    let n = items.len();
    if n <= 1 {
        return;
    }
    if !rayon::goes_parallel(n, item_ns) {
        items.sort_by_key(|x| key(x));
        return;
    }
    // Skip passes above the highest set bit of any key (common case: small keys).
    let max_key = items
        .par_iter()
        .with_cost(item_ns)
        .map(&key)
        .reduce(|| 0, u64::max);
    let passes = if max_key == 0 {
        1
    } else {
        (64 - max_key.leading_zeros() as usize).div_ceil(DIGIT_BITS)
    };

    let nblocks = rayon::recommended_splits();
    let block = n.div_ceil(nblocks);
    let nb = n.div_ceil(block); // actual block count (≤ nblocks)

    // Ping-pong buffers: `src` holds the current ordering, `dst` is fully
    // overwritten by the scatter (its initial contents are irrelevant —
    // the clone is just safe-Rust initialisation).
    let mut src: Vec<T> = std::mem::take(items);
    let mut dst: Vec<T> = src.clone();
    // hist[b * RADIX + d] = block b's count of digit d (reused across
    // passes and, via the scratch pool, across calls).
    let mut hist: Vec<u32> = crate::scratch::take_vec();
    hist.resize(nb * RADIX, 0);

    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let digit = |x: &T| ((key(x) >> shift) as usize) & (RADIX - 1);

        // 1. Per-block digit histograms (one region; rows align with chunks).
        hist.fill(0);
        hist.par_chunks_mut(RADIX)
            .zip(src.par_chunks(block))
            .with_cost(item_ns)
            .for_each(|(h, chunk)| {
                for x in chunk {
                    h[digit(x)] += 1;
                }
            });

        // 2. Segment starts, digit-major then block-minor: segment (d, b)
        // holds block b's digit-d elements, so this order is exactly the
        // stable global placement.
        // 3. Carve `dst` into those segments and group them per block.
        let mut groups: Vec<Vec<&mut [T]>> = (0..nb).map(|_| Vec::with_capacity(RADIX)).collect();
        {
            let mut rest: &mut [T] = &mut dst;
            for d in 0..RADIX {
                for (b, group) in groups.iter_mut().enumerate() {
                    let len = hist[b * RADIX + d] as usize;
                    let (seg, tail) = rest.split_at_mut(len);
                    group.push(seg);
                    rest = tail;
                }
            }
            debug_assert!(rest.is_empty(), "segments must tile the output");
        }

        // 4. Scatter: each block counting-sorts its chunk straight into
        // its RADIX owned segments (group index = digit), one region
        // (weighted: each item is a whole block of work).
        let pairs: Vec<(&[T], Vec<&mut [T]>)> = src.chunks(block).zip(groups).collect();
        ParIter::from_vec(pairs)
            .with_weight(block)
            .with_cost(item_ns)
            .for_each(|(chunk, mut segs)| {
                let mut cursors = [0u32; RADIX];
                for x in chunk {
                    let d = digit(x);
                    segs[d][cursors[d] as usize] = x.clone();
                    cursors[d] += 1;
                }
            });

        std::mem::swap(&mut src, &mut dst);
    }
    crate::scratch::put_vec(hist);
    *items = src;
}

/// Sort a `u64` vector in place (stable, parallel).
pub fn radix_sort_u64(items: &mut Vec<u64>) {
    radix_sort_by_key(items, |&x| x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_small() {
        let mut v = vec![5u64, 3, 9, 1, 1, 0];
        radix_sort_u64(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn sorts_large_random() {
        let mut v: Vec<u64> = (0..250_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17))
            .collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_u64(&mut v);
        assert_eq!(v, want);
    }

    #[test]
    fn sorts_large_random_under_installed_pool() {
        let mut v: Vec<u64> = (0..250_000u64)
            .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(31))
            .collect();
        let mut want = v.clone();
        want.sort_unstable();
        let before = rayon::crew_regions();
        rayon::cached_pool(4).install(|| radix_sort_at(&mut v, |&x| x, crate::DEAR_NS));
        assert!(rayon::crew_regions() > before, "the passes must form crews");
        assert_eq!(v, want);
    }

    #[test]
    fn stability_preserved() {
        // Pairs (key, original index): after sorting by key, equal keys must
        // keep index order.
        let n = 100_000usize;
        let mut v: Vec<(u64, usize)> = (0..n).map(|i| ((i % 16) as u64, i)).collect();
        radix_sort_by_key(&mut v, |&(k, _)| k);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn stability_preserved_under_installed_pool() {
        let n = 100_000usize;
        let mut v: Vec<(u64, usize)> = (0..n).map(|i| ((i % 5) as u64, i)).collect();
        let before = rayon::crew_regions();
        rayon::cached_pool(4).install(|| radix_sort_at(&mut v, |&(k, _)| k, crate::DEAR_NS));
        assert!(rayon::crew_regions() > before, "the passes must form crews");
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn handles_max_values() {
        let mut v = vec![u64::MAX, 0, u64::MAX - 1, 1];
        radix_sort_u64(&mut v);
        assert_eq!(v, vec![0, 1, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn empty_and_single() {
        let mut v: Vec<u64> = vec![];
        radix_sort_u64(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42u64];
        radix_sort_u64(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn sorts_large_small_keyspace() {
        // Exercises the early-pass-exit path (max key fits one digit).
        let mut v: Vec<u64> = (0..200_000u64).map(|i| i % 7).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_u64(&mut v);
        assert_eq!(v, want);
    }
}
