//! Property-based tests for the parallel primitives: every primitive must
//! agree with an obvious sequential reference on arbitrary inputs.

use proptest::prelude::*;
use ri_pram::{exclusive_scan_usize, pack, radix_sort_by_key, semisort_by_key, ConcurrentPairMap};

proptest! {
    #[test]
    fn scan_matches_reference(values in proptest::collection::vec(0usize..1000, 0..2000)) {
        let (pre, total) = exclusive_scan_usize(&values);
        let mut acc = 0;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(pre[i], acc);
            acc += v;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn pack_matches_filter(items in proptest::collection::vec(any::<u32>(), 0..2000),
                           seed in any::<u64>()) {
        let flags: Vec<bool> = items
            .iter()
            .enumerate()
            .map(|(i, _)| (seed.wrapping_mul(i as u64 + 1)) % 3 == 0)
            .collect();
        let got = pack(&items, &flags);
        let want: Vec<u32> = items
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f)
            .map(|(&x, _)| x)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn radix_sort_matches_std_sort(mut items in proptest::collection::vec(any::<u64>(), 0..3000)) {
        let mut want = items.clone();
        want.sort_unstable();
        radix_sort_by_key(&mut items, |&x| x);
        prop_assert_eq!(items, want);
    }

    #[test]
    fn radix_sort_stable_on_duplicates(keys in proptest::collection::vec(0u64..16, 0..2000)) {
        let mut items: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        radix_sort_by_key(&mut items, |&(k, _)| k);
        for w in items.windows(2) {
            prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn semisort_partitions_input(keys in proptest::collection::vec(0u64..64, 0..2000)) {
        let data: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        let grouped = semisort_by_key(data.clone(), |&(k, _)| k);
        // Same multiset of records.
        let mut got: Vec<(u64, usize)> = grouped.records.clone();
        let mut want = data.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // Each group homogeneous, stable, and keys distinct across groups.
        let mut seen = std::collections::HashSet::new();
        for (k, recs) in grouped.iter() {
            prop_assert!(seen.insert(k));
            for r in recs {
                prop_assert_eq!(r.0, k);
            }
            for w in recs.windows(2) {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn pair_map_agrees_with_hashmap(ops in proptest::collection::vec((0u64..100, 1u64..1_000_000), 0..300)) {
        // At most two distinct values per key in the op stream.
        let mut ref_map: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let m = ConcurrentPairMap::with_capacity(256);
        for &(k, v) in &ops {
            let e = ref_map.entry(k).or_default();
            if !e.contains(&v) && e.len() >= 2 {
                continue; // would panic by design; skip
            }
            m.insert(k, v);
            if !e.contains(&v) {
                e.push(v);
            }
        }
        for (k, vs) in &ref_map {
            let mut got: Vec<u64> = m.get(*k).iter().collect();
            let mut want = vs.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
