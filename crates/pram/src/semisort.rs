//! Semisort: group records by key without fully sorting keys.
//!
//! §6.1 of the paper: *"Collecting the contributions to each LE-list can be
//! done with a semisort on the targets."* A semisort clusters equal keys
//! contiguously; the relative order of distinct keys is arbitrary (here:
//! order of hashed keys), which is why it is cheaper than sorting in theory
//! ([Gu–Shun–Sun–Blelloch 2015] achieve linear work). Both paths below
//! produce exactly a stable sort of the records by hashed key, so equal
//! keys are contiguous and each group's records keep their input order,
//! which the LE-list combine step relies on.
//!
//! - **Inline**, whenever the radix sort would run inline (at width 1 and
//!   for inputs too small to pay for a crew): every key is hashed once,
//!   one counting pass buckets the `(hash, index)` pairs on the hash's
//!   top bits (about eight pairs per bucket), each bucket is sorted, and
//!   the records are gathered once in that order. Expected O(n) work,
//!   because a bijective hash spreads distinct keys evenly over the
//!   buckets; a group of equal keys shares a bucket, whose sort is then
//!   O(g log g).
//! - **Crew**: a stable parallel radix sort on the hashed keys
//!   ([`radix_sort_by_key`](crate::radix_sort_by_key)), then a parallel
//!   pack of the group boundaries.

use rayon::prelude::*;

use crate::hash::hash_u64;
use crate::radix::{radix_sort_at, RADIX_NS};

/// Estimated nanoseconds to emit one group's `(key, start, end)` range.
const GROUP_NS: u64 = 2;

/// Records grouped by key: `records` holds the reordered input, and
/// `groups` holds `(key, start, end)` ranges into it.
#[derive(Debug, Clone)]
pub struct Grouped<T> {
    /// The reordered records: each group's records are contiguous and appear
    /// in their original input order (the grouping is stable).
    pub records: Vec<T>,
    /// `(key, start, end)` — group `key` occupies `records[start..end]`.
    pub groups: Vec<(u64, usize, usize)>,
}

impl<T> Grouped<T> {
    /// Iterate `(key, &records_of_key)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[T])> {
        self.groups
            .iter()
            .map(move |&(k, s, e)| (k, &self.records[s..e]))
    }
}

/// Group `records` by `key`, stably.
///
/// ```
/// let grouped = ri_pram::semisort_by_key(vec![(1u64, 'a'), (2, 'b'), (1, 'c')], |&(k, _)| k);
/// let g1: Vec<char> = grouped
///     .iter()
///     .find(|(k, _)| *k == 1)
///     .unwrap()
///     .1
///     .iter()
///     .map(|&(_, c)| c)
///     .collect();
/// assert_eq!(g1, vec!['a', 'c']); // input order within the group
/// ```
pub fn semisort_by_key<T, F>(records: Vec<T>, key: F) -> Grouped<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    semisort_at(records, key, RADIX_NS)
}

/// [`semisort_by_key`] with each element of a radix pass declared to cost
/// `item_ns` to the go-parallel rule.
fn semisort_at<T, F>(mut records: Vec<T>, key: F, item_ns: u64) -> Grouped<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    if records.is_empty() {
        return Grouped {
            records,
            groups: Vec::new(),
        };
    }
    if !rayon::goes_parallel(records.len(), item_ns) {
        return semisort_inline(records, key);
    }
    // Sort by hashed key: clusters equal keys, spreads digits uniformly so
    // every radix pass is balanced regardless of the key distribution.
    radix_sort_at(&mut records, |r| hash_u64(key(r)), item_ns);

    // Group boundaries: positions where the key changes (the boundary
    // index buffer is reused scratch; the group list is returned, so it
    // owns its allocation).
    let n = records.len();
    let mut boundary: Vec<usize> = crate::scratch::take_vec();
    crate::pack::pack_indices_where_into(
        n,
        |i| i == 0 || key(&records[i - 1]) != key(&records[i]),
        &mut boundary,
    );
    let groups: Vec<(u64, usize, usize)> = boundary
        .par_iter()
        .enumerate()
        .with_cost(GROUP_NS)
        .map(|(gi, &start)| {
            let end = if gi + 1 < boundary.len() {
                boundary[gi + 1]
            } else {
                n
            };
            (key(&records[start]), start, end)
        })
        .collect();
    crate::scratch::put_vec(boundary);
    Grouped { records, groups }
}

/// The inline path: hash each key once, bucket the `(hash, index)` pairs
/// by a counting pass on the hash's top bits, sort each bucket by
/// `(hash, index)`, then gather the records and read off the groups.
/// Buckets follow the top bits and indices break hash ties, so the order
/// is exactly that of a stable sort by hash.
fn semisort_inline<T: Clone, F: Fn(&T) -> u64>(records: Vec<T>, key: F) -> Grouped<T> {
    let n = records.len();
    // At least two buckets, so the shift below stays under 64.
    let bits = (n / 8).max(2).next_power_of_two().trailing_zeros();
    let bucket = |h: u64| (h >> (64 - bits)) as usize;

    // Hash once and count; `ends[b + 1]` counts bucket b.
    let mut ends: Vec<usize> = crate::scratch::take_vec();
    ends.resize((1 << bits) + 1, 0);
    let mut hashes: Vec<u64> = crate::scratch::take_vec();
    hashes.extend(records.iter().map(|r| {
        let h = hash_u64(key(r));
        ends[bucket(h) + 1] += 1;
        h
    }));
    for b in 1..ends.len() {
        ends[b] += ends[b - 1];
    }
    // Scatter in input order: `ends[b]` advances from bucket b's start to
    // its end, which is where bucket b + 1 starts.
    let mut sorted: Vec<(u64, usize)> = crate::scratch::take_vec();
    sorted.resize(n, (0, 0));
    for (i, &h) in hashes.iter().enumerate() {
        let cursor = &mut ends[bucket(h)];
        sorted[*cursor] = (h, i);
        *cursor += 1;
    }
    let mut lo = 0;
    for &hi in &ends[..ends.len() - 1] {
        sorted[lo..hi].sort_unstable();
        lo = hi;
    }

    // A gather's loads are independent, so they overlap; an in-place
    // permutation chases one cache miss after another.
    let records: Vec<T> = sorted.iter().map(|&(_, i)| records[i].clone()).collect();
    // Equal keys ⇔ equal hashes (the hash is a bijection).
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=n {
        if i == n || sorted[i].0 != sorted[start].0 {
            groups.push((key(&records[start]), start, i));
            start = i;
        }
    }
    crate::scratch::put_vec(ends);
    crate::scratch::put_vec(hashes);
    crate::scratch::put_vec(sorted);
    Grouped { records, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    type Rec = (u64, usize);

    /// The grouping a stable sort by hashed key gives: the old inline
    /// path, and the contract both paths keep.
    fn stable_sort_reference(mut records: Vec<Rec>) -> (Vec<Rec>, Vec<(u64, usize, usize)>) {
        records.sort_by_key(|&(k, _)| hash_u64(k));
        let mut groups = Vec::new();
        let mut start = 0;
        for i in 1..=records.len() {
            if i == records.len() || records[i].0 != records[start].0 {
                groups.push((records[start].0, start, i));
                start = i;
            }
        }
        (records, groups)
    }

    /// Keys whose hashes share their top 16 bits, so they land in one
    /// bucket at any size this module buckets.
    fn keys_sharing_top_hash_bits(count: usize) -> Vec<u64> {
        let top = hash_u64(0) >> 48;
        (0u64..)
            .filter(|&k| hash_u64(k) >> 48 == top)
            .take(count)
            .collect()
    }

    #[test]
    fn inline_path_matches_a_stable_sort_by_hash_and_the_crew_path() {
        let mixed: Vec<u64> = (0..50_000u64)
            .map(|i| hash_u64(i ^ 0x5eed) % 20_000)
            .collect();
        let shared = keys_sharing_top_hash_bits(6);
        let inputs: Vec<Vec<u64>> = vec![
            vec![],
            vec![9],
            vec![4, 4],
            vec![7, 3],
            vec![42; 1000],
            (0..1000).map(|i| [11, 12][i % 3 / 2]).collect(),
            (0..600).map(|i| shared[i % shared.len()]).collect(),
            (0..600u64).map(|i| (u64::MAX << 8) | (i % 13)).collect(),
            mixed,
        ];
        for keys in inputs {
            let data: Vec<Rec> = keys.iter().copied().zip(0..).collect();
            let case = format!("{} records", data.len());
            let (want_records, want_groups) = stable_sort_reference(data.clone());

            let inline =
                rayon::cached_pool(1).install(|| semisort_by_key(data.clone(), |&(k, _)| k));
            assert_eq!(inline.records, want_records, "inline records, {case}");
            assert_eq!(inline.groups, want_groups, "inline groups, {case}");

            let before = rayon::crew_regions();
            let crew = rayon::cached_pool(4)
                .install(|| semisort_at(data.clone(), |&(k, _)| k, crate::DEAR_NS));
            if data.len() >= 1000 {
                assert!(rayon::crew_regions() > before, "crew path, {case}");
            }
            assert_eq!(crew.records, inline.records, "crew records, {case}");
            assert_eq!(crew.groups, inline.groups, "crew groups, {case}");
        }
    }

    #[test]
    fn groups_cover_input_exactly() {
        let data: Vec<(u64, usize)> = (0..50_000).map(|i| ((i % 97) as u64, i)).collect();
        let grouped = semisort_by_key(data.clone(), |&(k, _)| k);
        assert_eq!(grouped.records.len(), data.len());
        let mut covered = 0;
        for &(_, s, e) in &grouped.groups {
            assert!(s < e);
            covered += e - s;
        }
        assert_eq!(covered, data.len());
        assert_eq!(grouped.groups.len(), 97);
    }

    #[test]
    fn group_contents_match_reference() {
        let data: Vec<(u64, usize)> = (0..10_000).map(|i| ((i % 31) as u64, i)).collect();
        let mut want: HashMap<u64, Vec<usize>> = HashMap::new();
        for &(k, v) in &data {
            want.entry(k).or_default().push(v);
        }
        let grouped = semisort_by_key(data, |&(k, _)| k);
        for (k, recs) in grouped.iter() {
            let got: Vec<usize> = recs.iter().map(|&(_, v)| v).collect();
            assert_eq!(&got, want.get(&k).unwrap(), "group {k} differs");
        }
    }

    #[test]
    fn within_group_order_is_input_order() {
        let data: Vec<(u64, usize)> = (0..100_000).map(|i| ((i % 5) as u64, i)).collect();
        let grouped = semisort_by_key(data, |&(k, _)| k);
        for (_, recs) in grouped.iter() {
            for w in recs.windows(2) {
                assert!(w[0].1 < w[1].1, "stability violated inside group");
            }
        }
    }

    #[test]
    fn all_same_key_single_group() {
        let data = vec![(7u64, 'x'); 1000];
        let grouped = semisort_by_key(data, |&(k, _)| k);
        assert_eq!(grouped.groups.len(), 1);
        assert_eq!(grouped.groups[0], (7, 0, 1000));
    }

    #[test]
    fn all_distinct_keys() {
        let data: Vec<(u64, ())> = (0..5000u64).map(|i| (i, ())).collect();
        let grouped = semisort_by_key(data, |&(k, _)| k);
        assert_eq!(grouped.groups.len(), 5000);
    }

    #[test]
    fn empty_input() {
        let grouped = semisort_by_key(Vec::<(u64, ())>::new(), |&(k, _)| k);
        assert_eq!(grouped.groups.len(), 0);
    }
}
