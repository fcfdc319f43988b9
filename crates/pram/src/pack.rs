//! Filter-and-pack (compaction).
//!
//! The paper's parallel Delaunay step "applies and filters on the InCircle
//! tests ... using processor allocation and compaction" (§4). `pack` is
//! the deterministic (exact, not approximate) version of that primitive:
//! it preserves input order, so parallel runs remain reproducible.
//! [`pack_indices_where_into`] packs indices instead of elements; it finds
//! the group boundaries on semisort's crew path.
//!
//! The textbook flag→scan→scatter pipeline is fused here into a **single
//! parallel pass**: each chunk filters its survivors locally and the
//! chunk outputs concatenate in chunk order (order-preserving). The
//! n-sized offset array and its scan — two full passes over the data that
//! existed only to pre-compute scatter positions — are gone entirely, and
//! the index pack writes into a reused, capacity-preserving buffer so
//! round-based callers allocate nothing in steady state.

use rayon::prelude::*;

/// Estimated nanoseconds per element to test a flag (or the predicate)
/// and copy a survivor (4–6 ns measured at 2^20 elements).
const PACK_NS: u64 = 4;

/// Keep the elements whose flag is `true`, preserving order. One fused
/// parallel pass (filter and gather per chunk); inputs too small to pay
/// for a crew run inline on the caller.
pub fn pack<T: Clone + Send + Sync>(items: &[T], flags: &[bool]) -> Vec<T> {
    pack_at(items, flags, PACK_NS)
}

/// [`pack`] with each element declared to cost `item_ns` to the
/// go-parallel rule.
fn pack_at<T: Clone + Send + Sync>(items: &[T], flags: &[bool], item_ns: u64) -> Vec<T> {
    assert_eq!(items.len(), flags.len(), "pack: length mismatch");
    let kept = |is: &[T], fs: &[bool]| -> Vec<T> {
        is.iter()
            .zip(fs)
            .filter(|(_, &f)| f)
            .map(|(x, _)| x.clone())
            .collect()
    };
    if !rayon::goes_parallel(items.len(), item_ns) {
        return kept(items, flags);
    }
    let chunk = items.len().div_ceil(rayon::recommended_splits());
    // Per-chunk local packs, concatenated in chunk order (order preserving).
    let parts: Vec<Vec<T>> = items
        .par_chunks(chunk)
        .zip(flags.par_chunks(chunk))
        .with_cost(item_ns)
        .map(|(is, fs)| kept(is, fs))
        .collect();
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Indices `0..n` satisfying `pred`, in increasing order, written into a
/// reused buffer (cleared first, capacity kept). `pred` must be pure: the
/// crew evaluates it in parallel.
pub fn pack_indices_where_into<F>(n: usize, pred: F, out: &mut Vec<usize>)
where
    F: Fn(usize) -> bool + Sync,
{
    pack_indices_where_into_at(n, pred, out, PACK_NS);
}

/// [`pack_indices_where_into`] with each index declared to cost `item_ns`
/// to the go-parallel rule.
fn pack_indices_where_into_at<F>(n: usize, pred: F, out: &mut Vec<usize>, item_ns: u64)
where
    F: Fn(usize) -> bool + Sync,
{
    out.clear();
    if !rayon::goes_parallel(n, item_ns) {
        out.extend((0..n).filter(|&i| pred(i)));
        return;
    }
    let nchunks = rayon::recommended_splits();
    let chunk = n.div_ceil(nchunks);
    let parts: Vec<Vec<usize>> = (0..nchunks)
        .into_par_iter()
        .with_cost(chunk as u64 * item_ns)
        .map(|c| {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            (lo..hi).filter(|&i| pred(i)).collect::<Vec<usize>>()
        })
        .collect();
    out.reserve(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_keeps_order() {
        let items: Vec<u32> = (0..10).collect();
        let flags: Vec<bool> = items.iter().map(|&x| x % 3 == 0).collect();
        assert_eq!(pack(&items, &flags), vec![0, 3, 6, 9]);
    }

    #[test]
    fn pack_empty_and_full() {
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(pack(&items, &[false; 100]), Vec::<u32>::new());
        assert_eq!(pack(&items, &[true; 100]), items);
    }

    #[test]
    fn pack_large_parallel_path() {
        let items: Vec<u64> = (0..200_000).collect();
        let flags: Vec<bool> = items.iter().map(|&x| x % 7 == 0).collect();
        let before = rayon::crew_regions();
        let got = rayon::cached_pool(4).install(|| pack_at(&items, &flags, crate::DEAR_NS));
        assert!(rayon::crew_regions() > before, "the pack must form a crew");
        let want: Vec<u64> = items.iter().copied().filter(|&x| x % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_indices_into_matches_direct() {
        let mut out = vec![1, 2, 3]; // stale contents must be cleared
        pack_indices_where_into(10_000, |i| i % 4 == 1, &mut out);
        let want: Vec<usize> = (0..10_000).filter(|&i| i % 4 == 1).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn pack_indices_crew_path_matches_a_sequential_filter() {
        // Every index pays for a crew on its own, so sizes below the chunk
        // count form one too (on any host, however slow its spawns).
        let item_ns = crate::DEAR_NS.max(rayon::PAYOFF * rayon::region_ns(4));
        let pred = |i: usize| i % 3 != 1 && i % 7 != 2;
        let chunks = rayon::cached_pool(4).install(rayon::recommended_splits);
        let mut sizes = vec![1, 2, chunks - 1];
        for edge in [chunks, 2 * chunks, 5 * chunks, 997 * chunks] {
            sizes.extend([edge - 1, edge, edge + 1]);
        }
        let mut out = vec![usize::MAX; 4]; // stale contents must be cleared
        for n in sizes {
            let before = rayon::crew_regions();
            rayon::cached_pool(4)
                .install(|| pack_indices_where_into_at(n, pred, &mut out, item_ns));
            assert!(rayon::crew_regions() > before, "n = {n}: no crew formed");
            let want: Vec<usize> = (0..n).filter(|&i| pred(i)).collect();
            assert_eq!(out, want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pack_length_mismatch_panics() {
        pack(&[1, 2, 3], &[true]);
    }
}
