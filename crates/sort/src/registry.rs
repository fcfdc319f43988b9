//! Registry entries: `"sort"` (Algorithm 3, Type 1) and `"sort-batch"`
//! (the §2.3 Type 3 batch execution), both over a seeded key sequence
//! shaped by [`crate::workloads::shaped_keys`] (`"random"` by default;
//! adversarial arrival orders behind the other shape names) — plus their
//! native streaming adapters, which reveal the same fixed sequence
//! prefix by prefix and report each batch's sorted-rank insertions as
//! the delta.

use ri_core::engine::json::Value;
use ri_core::engine::registry::{
    OutputSummary, PrefixSolution, PrefixStream, Registry, WorkloadSpec,
};
use ri_core::engine::{Problem, RunConfig, RunReport};

use crate::problem::{BatchSortProblem, SortProblem};
use crate::workloads::shaped_keys;

fn spec_keys(spec: &WorkloadSpec) -> Result<Vec<usize>, String> {
    shaped_keys(spec.n, spec.seed, spec.shape_or("random"), spec.param)
}

/// Register this crate's problems.
pub fn register(reg: &mut Registry) {
    for (name, description) in [
        (
            "sort",
            "incremental BST sort of a shaped key sequence (§3, Type 1)",
        ),
        (
            "sort-batch",
            "Type 3 batch execution of BST sort (§2.3 worked example)",
        ),
    ] {
        reg.register(name, description, spec_keys, move |keys, cfg| {
            solve_keys(name, keys, cfg)
        });
        reg.register_incremental(name, move |spec| {
            Ok(SortStream {
                name,
                keys: spec_keys(spec)?,
                sorted: Vec::new(),
            })
        });
    }
}

/// Solve `keys` under the named variant and digest the output: the
/// shared path of the one-shot solve and every streamed prefix.
fn solve_keys(name: &str, keys: &[usize], cfg: &RunConfig) -> (OutputSummary, RunReport) {
    let (out, report) = if name == "sort-batch" {
        BatchSortProblem::new(keys).solve(cfg)
    } else {
        SortProblem::new(keys).solve(cfg)
    };
    let sorted = out
        .sorted_indices
        .windows(2)
        .all(|w| keys[w[0]] < keys[w[1]])
        && out.sorted_indices.len() == keys.len();
    let mut s = OutputSummary::new();
    s.answer_num("items", keys.len() as f64)
        .answer_bool("sorted", sorted)
        .answer_num("tree_depth", out.tree.dependence_depth() as f64)
        .metric_num("comparisons", out.comparisons as f64);
    (s, report)
}

/// At most this many `[key, rank]` insertion pairs are spelled out per
/// delta; larger batches set `"truncated": true` and keep the count.
const MAX_DELTA_INSERTIONS: usize = 32;

/// The native streaming adapter: the full permutation is fixed at open
/// (`capacity`, workload seed), each batch reveals the next keys, and
/// the delta reports where they landed — each new key's rank in the
/// sorted prefix *at its own insertion* (keys are inserted in stream
/// order, so ranks are deterministic and independent of batching only
/// through the final state; the sequence itself is part of the witness).
struct SortStream {
    name: &'static str,
    keys: Vec<usize>,
    /// The absorbed prefix's keys in sorted order.
    sorted: Vec<usize>,
}

/// Absorb `batch` (the next keys in stream order) into the sorted prefix
/// `sorted`, returning the `(key, rank)` insertions of its first `limit`
/// keys. A key's rank at its own insertion counts the old prefix's
/// smaller keys (a binary search) plus the batch's earlier smaller keys;
/// one merge then absorbs the whole batch, so a batch of b keys over an
/// n-key prefix costs O(n + b log b) instead of b shifting inserts.
fn absorb(sorted: &mut Vec<usize>, batch: &[usize], limit: usize) -> Vec<(usize, usize)> {
    let ranks = batch
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, &key)| {
            let earlier = batch[..i].iter().filter(|&&k| k < key).count();
            (key, sorted.partition_point(|&k| k < key) + earlier)
        })
        .collect();
    let mut incoming = batch.to_vec();
    incoming.sort_unstable();
    let mut merged = Vec::with_capacity(sorted.len() + incoming.len());
    let mut old = sorted.iter().copied().peekable();
    for key in incoming {
        while let Some(smaller) = old.next_if(|&k| k < key) {
            merged.push(smaller);
        }
        merged.push(key);
    }
    merged.extend(old);
    *sorted = merged;
    ranks
}

impl PrefixStream for SortStream {
    fn capacity(&self) -> usize {
        self.keys.len()
    }

    fn approx_bytes(&self) -> usize {
        // Full instance + sorted prefix, usize keys each.
        self.keys.len() * 16 + 128
    }

    fn solve_prefix(
        &mut self,
        lo: usize,
        hi: usize,
        cfg: &RunConfig,
    ) -> Result<Option<PrefixSolution>, String> {
        let count = hi - lo;
        let insertions = absorb(&mut self.sorted, &self.keys[lo..hi], MAX_DELTA_INSERTIONS)
            .into_iter()
            .map(|(key, rank)| Value::Arr(vec![Value::Num(key as f64), Value::Num(rank as f64)]))
            .collect();
        let delta = Value::Obj(vec![
            ("inserted".into(), Value::Num(count as f64)),
            ("insertions".into(), Value::Arr(insertions)),
            (
                "truncated".into(),
                Value::Bool(count > MAX_DELTA_INSERTIONS),
            ),
        ]);
        // The authoritative answer + trace come from solving the prefix
        // through the real executors — what keeps the final batch equal
        // to the one-shot solve bit for bit.
        let (summary, report) = solve_keys(self.name, &self.keys[..hi], cfg);
        Ok(Some((delta, summary, report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::WorkloadSpec;

    #[test]
    fn registered_names_solve() {
        let mut reg = Registry::new();
        register(&mut reg);
        for name in ["sort", "sort-batch"] {
            let (summary, report) = reg
                .solve(name, &WorkloadSpec::new(256, 3), &RunConfig::new())
                .unwrap();
            assert_eq!(report.items, 256);
            assert!(summary.to_json().contains("\"sorted\":true"), "{name}");
        }
    }

    #[test]
    fn shaped_specs_solve_and_unknown_shapes_are_rejected() {
        let mut reg = Registry::new();
        register(&mut reg);
        for shape in crate::workloads::SHAPES {
            let spec = WorkloadSpec::new(128, 3).shape(shape);
            for name in ["sort", "sort-batch"] {
                let (summary, _) = reg.solve(name, &spec, &RunConfig::new()).unwrap();
                assert!(
                    summary.to_json().contains("\"sorted\":true"),
                    "{name}/{shape}"
                );
            }
        }
        let bad = WorkloadSpec::new(64, 1).shape("sideways");
        for name in ["sort", "sort-batch"] {
            let err = reg.solve(name, &bad, &RunConfig::new()).unwrap_err();
            assert!(err.to_string().contains("unknown sort shape"), "{name}");
            let err = match reg.construct_incremental(name, &bad) {
                Err(e) => e,
                Ok(_) => panic!("{name}: bad shape accepted by the stream ctor"),
            };
            assert!(err.to_string().contains("unknown sort shape"), "{name}");
        }
    }

    #[test]
    fn batched_ranks_match_naive_insertion() {
        // Random batch splits of a random permutation: every reported
        // rank equals the one a shifting insert into the sorted prefix
        // finds, and the merged prefix stays sorted.
        for seed in 0..8u64 {
            let keys = ri_pram::random_permutation(300, seed);
            let mut sorted = Vec::new();
            let mut naive: Vec<usize> = Vec::new();
            let mut lo = 0;
            let mut step = seed;
            while lo < keys.len() {
                step = ri_pram::hash_u64(step);
                let hi = (lo + 1 + (step % 70) as usize).min(keys.len());
                let batch = &keys[lo..hi];
                let ranks = absorb(&mut sorted, batch, MAX_DELTA_INSERTIONS);
                assert_eq!(ranks.len(), batch.len().min(MAX_DELTA_INSERTIONS));
                for (i, &key) in batch.iter().enumerate() {
                    let rank = naive.partition_point(|&k| k < key);
                    naive.insert(rank, key);
                    if i < MAX_DELTA_INSERTIONS {
                        assert_eq!(ranks[i], (key, rank), "seed {seed}, batch {lo}..{hi}");
                    }
                }
                assert_eq!(sorted, naive, "seed {seed}, batch {lo}..{hi}");
                lo = hi;
            }
        }
    }

    #[test]
    fn stream_matches_one_shot_and_reports_ranks() {
        let mut reg = Registry::new();
        register(&mut reg);
        for name in ["sort", "sort-batch"] {
            assert!(reg.has_incremental(name), "{name}");
            let spec = WorkloadSpec::new(48, 7);
            let cfg = RunConfig::new().seed(2);
            let mut inc = reg.construct_incremental(name, &spec).unwrap();
            assert!(inc.native());
            let mut last = None;
            for count in [1, 15, 32] {
                let (delta, _) = inc.feed(count, &cfg).unwrap();
                assert!(!delta.pending, "{name}");
                assert_eq!(
                    delta.delta.get("inserted"),
                    Some(&Value::Num(count as f64)),
                    "{name}"
                );
                last = Some(delta);
            }
            let last = last.unwrap();
            assert!(last.complete);
            // Final streamed answer + trace equal the one-shot solve.
            let (one_shot, report) = reg.solve(name, &spec, &cfg).unwrap();
            assert_eq!(last.answer, one_shot.answer().to_vec(), "{name}");
            assert_eq!(
                last.trace,
                ri_core::engine::RoundTrace::from_report(&report),
                "{name}"
            );
        }
    }
}
