//! Semisort: group records by key without fully sorting keys.
//!
//! §6.1 of the paper: *"Collecting the contributions to each LE-list can be
//! done with a semisort on the targets."* A semisort clusters equal keys
//! contiguously; the relative order of distinct keys is arbitrary (here:
//! order of hashed keys), which is why it is cheaper than sorting in theory
//! ([Gu–Shun–Sun–Blelloch 2015] achieve linear work). We realise it as a
//! stable radix sort on *hashed* keys — same interface and output contract,
//! O(n) practical behaviour, and stability gives each group's records in
//! input order, which the LE-list combine step relies on.

use rayon::prelude::*;

use crate::hash::hash_u64;
use crate::radix::radix_sort_by_key;

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

    /// Number of distinct keys.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
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
pub fn semisort_by_key<T, F>(mut records: Vec<T>, key: F) -> Grouped<T>
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
    // Sort by hashed key: clusters equal keys, spreads digits uniformly so
    // every radix pass is balanced regardless of the key distribution.
    radix_sort_by_key(&mut records, |r| hash_u64(key(r)));

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
        assert_eq!(grouped.num_groups(), 97);
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
        assert_eq!(grouped.num_groups(), 1);
        assert_eq!(grouped.groups[0], (7, 0, 1000));
    }

    #[test]
    fn all_distinct_keys() {
        let data: Vec<(u64, ())> = (0..5000u64).map(|i| (i, ())).collect();
        let grouped = semisort_by_key(data, |&(k, _)| k);
        assert_eq!(grouped.num_groups(), 5000);
    }

    #[test]
    fn empty_input() {
        let grouped = semisort_by_key(Vec::<(u64, ())>::new(), |&(k, _)| k);
        assert_eq!(grouped.num_groups(), 0);
    }
}
