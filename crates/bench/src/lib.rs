//! # `ri-bench` — the experiment harness and the `ri` CLI driver
//!
//! Regenerates every table and quantitative theorem claim of the paper
//! through one command, `ri report <claim> [arg]` (the [`report`] module;
//! run with `cargo run -p ri-bench --release --bin ri -- report <claim>`;
//! `ri report` alone lists the claims with each argument's default; a
//! `log2_n` above the registry's 2^24 ceiling is an error):
//!
//! | Claim | Argument | Paper artifact |
//! |---|---|---|
//! | `table1` | `log2_n`, `--json` | Table 1 (all seven rows) |
//! | `depth_scaling` | seeds | Thm 2.1/4.3, Lemma 3.1 depth growth |
//! | `incircle_constant` | seeds | Thm 4.5 (`24 n ln n`, 36 ablation) |
//! | `special_iterations` | seeds | Thm 2.2/5.1–5.3 special counts |
//! | `lelist_lengths` | seeds | Thm 6.2 / Cohen list lengths, redundant entries per vertex |
//! | `scc_visits` | seeds | Thm 6.4 per-vertex visit bound |
//! | `dependence_counts` | seeds | Corollary 2.4 (`2 n ln n`) |
//! | `dependence_histogram` | `log2_n` | Lemma 2.5 geometric tail |
//!
//! The crate's three binaries: `ri` (the registry-driven CLI: any problem
//! by name, JSON in/out, witness replay, and the reports above),
//! `speedup` (seq / par wall time per width) and `loadgen` (the
//! serving-tier load generator). Criterion wall-clock benches
//! (`cargo bench -p ri-bench`) compare the sequential and parallel
//! implementations of each Table 1 row on this machine.

pub mod report;

use ri_core::engine::RunConfig;

/// Sequential and uninstrumented: how the benches and reports time and
/// count a run.
pub fn seq_cfg() -> RunConfig {
    RunConfig::new().sequential().instrument(false)
}

/// Parallel at the machine's width and uninstrumented.
pub fn par_cfg() -> RunConfig {
    RunConfig::new().parallel().instrument(false)
}
