//! The in-process solve workloads: one caller re-solves a fixed set of
//! instances of the nine problems, pass after pass, at pool width `wmax`
//! (`solve-par`) or 1 (`solve-inline`).

use std::time::{Duration, Instant};

use ri_core::engine::json::Value;
use ri_core::engine::{ErasedProblem, OutputSummary, Registry, RunConfig, WorkloadSpec};

use crate::stats::{geomean, median, Metrics};
use crate::trace::Spans;

/// The solve workloads' instance set: problem, size, and how many
/// instances of it. Sizes make one sequential solve of the default shape
/// take roughly 2–8 ms on the calibration host. The Type 2 problems'
/// solve times vary with the instance by 15–50% (coefficient of variation
/// over seeds), so they get many instances, or a run's figures would
/// measure its seed rather than the code; `lp` gets fewer because each of
/// its instances is large. `perfbench/calibration.json` records both.
pub const SOLVE_SET: [(&str, usize, usize); 9] = [
    ("sort", 16_000, 8),
    ("sort-batch", 16_000, 8),
    ("delaunay", 600, 8),
    ("lp", 300_000, 16),
    ("lp-d", 8_000, 64),
    ("closest-pair", 14_000, 64),
    ("enclosing", 100_000, 64),
    ("le-lists", 2_000, 8),
    ("scc", 12_000, 8),
];

/// One fixed instance: its generator spec, run seed, the constructed
/// problem and the canonical answer of a sequential reference solve.
pub struct Instance {
    pub name: &'static str,
    pub spec: WorkloadSpec,
    pub run_seed: u64,
    pub problem: Box<dyn ErasedProblem>,
    pub reference: String,
}

/// Seeds stay below 2^53 so they survive the JSON envelope exactly.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    ri_pram::hash_u64(ri_pram::hash_u64(seed ^ stream.rotate_left(32)) ^ index) & ((1 << 53) - 1)
}

/// The mode-invariant answer as canonical JSON: equal strings are equal
/// answers (the fingerprint the `speedup` bin gates on).
pub fn fingerprint(answer: &[(String, Value)]) -> String {
    Value::Obj(answer.to_vec()).write()
}

pub fn config(run_seed: u64, width: usize) -> RunConfig {
    RunConfig::new()
        .seed(run_seed)
        .parallel()
        .threads(width)
        .instrument(false)
}

pub fn sequential(run_seed: u64) -> RunConfig {
    RunConfig::new()
        .seed(run_seed)
        .sequential()
        .instrument(false)
}

/// The generator spec and run seed of copy `k` of problem `index`.
pub fn spec_for(seed: u64, index: usize, k: usize, n: usize) -> (WorkloadSpec, u64) {
    let key = (index * 1000 + k) as u64;
    let spec = WorkloadSpec::new(n, derive_seed(seed, 1, key));
    (spec, derive_seed(seed, 2, key))
}

/// Construct `copies` instances of each `(problem, n, copies)`, grouped
/// by problem (no reference solve yet).
pub fn construct(
    reg: &Registry,
    set: &[(&'static str, usize, usize)],
    seed: u64,
) -> Result<Vec<Instance>, String> {
    let mut out = Vec::new();
    for (i, &(name, n, copies)) in set.iter().enumerate() {
        for k in 0..copies {
            let (spec, run_seed) = spec_for(seed, i, k, n);
            let problem = reg.construct(name, &spec).map_err(|e| e.to_string())?;
            out.push(Instance {
                name,
                spec,
                run_seed,
                problem,
                reference: String::new(),
            });
        }
    }
    Ok(out)
}

/// The index of each problem's first instance in a [`construct`]ed set.
pub fn first_of_each(set: &[(&'static str, usize, usize)]) -> Vec<usize> {
    set.iter()
        .scan(0, |next, &(_, _, copies)| {
            let first = *next;
            *next += copies;
            Some(first)
        })
        .collect()
}

/// Fill every instance's reference answer from a sequential solve.
pub fn solve_references(instances: &mut [Instance]) {
    for inst in instances {
        let (summary, _) = inst.problem.solve_erased(&sequential(inst.run_seed));
        inst.reference = fingerprint(summary.answer());
    }
}

/// Set-up as a user of the library pays it: construct the instances and
/// warm the pool and scratch arenas with one solve of each problem. Done
/// five times; the median is reported and the last instances are kept.
pub fn setup(reg: &Registry, seed: u64, width: usize) -> Result<(Vec<Instance>, f64), String> {
    let mut times = Vec::new();
    let mut kept = Vec::new();
    for _ in 0..5 {
        // Free the previous set first, so that only one is ever resident.
        drop(std::mem::take(&mut kept));
        let t0 = Instant::now();
        let instances = construct(reg, &SOLVE_SET, seed)?;
        for &i in &first_of_each(&SOLVE_SET) {
            let inst = &instances[i];
            std::hint::black_box(inst.problem.solve_erased(&config(inst.run_seed, width)));
        }
        times.push(t0.elapsed().as_secs_f64());
        kept = instances;
    }
    solve_references(&mut kept);
    Ok((kept, median(&times)))
}

/// What one timed loop over the instances measured.
#[derive(Default)]
pub struct LoopResult {
    /// Solve wall times in seconds, per instance.
    pub per_instance: Vec<Vec<f64>>,
    /// Complete passes made.
    pub passes: usize,
    pub attempted: u64,
    pub wrong: u64,
}

impl LoopResult {
    /// Add another loop's samples over the same instances.
    pub fn merge(&mut self, other: LoopResult) {
        if self.per_instance.is_empty() {
            self.per_instance = vec![Vec::new(); other.per_instance.len()];
        }
        for (mine, theirs) in self.per_instance.iter_mut().zip(other.per_instance) {
            mine.extend(theirs);
        }
        self.passes += other.passes;
        self.attempted += other.attempted;
        self.wrong += other.wrong;
    }
}

/// Re-solve the instances of [`SOLVE_SET`] at `width` until `budget` is
/// spent, in whole passes numbered from `first_pass`: pass `j` solves copy
/// `j mod copies` of every problem. Untraced, answers are checked after the loop; traced, each
/// solve is checked at once and recorded as a span.
pub fn run_loop(
    instances: &[Instance],
    width: usize,
    budget: Duration,
    first_pass: usize,
    spans: Option<&mut Spans>,
) -> LoopResult {
    let firsts = first_of_each(&SOLVE_SET);
    let mut out = LoopResult {
        per_instance: vec![Vec::new(); instances.len()],
        ..LoopResult::default()
    };
    let mut kept: Vec<(usize, OutputSummary)> = Vec::new();
    let mut spans = spans;
    let start = Instant::now();
    for pass in first_pass.. {
        if start.elapsed() >= budget {
            break;
        }
        for (&first, &(_, _, copies)) in firsts.iter().zip(&SOLVE_SET) {
            let i = first + pass % copies;
            let inst = &instances[i];
            let cfg = config(inst.run_seed, width);
            let t0 = Instant::now();
            let (summary, report) = inst.problem.solve_erased(&cfg);
            let dt = t0.elapsed().as_secs_f64();
            out.per_instance[i].push(dt);
            out.attempted += 1;
            match spans.as_deref_mut() {
                Some(spans) => {
                    spans.record(inst.name, t0, dt);
                    spans.count("regions", report.regions);
                    spans.count("helper_spawns", report.helper_spawns);
                    if fingerprint(summary.answer()) != inst.reference {
                        out.wrong += 1;
                    }
                }
                None => kept.push((i, summary)),
            }
        }
        out.passes += 1;
    }
    for (i, summary) in kept {
        if fingerprint(summary.answer()) != instances[i].reference {
            out.wrong += 1;
        }
    }
    out
}

/// Each problem's typical solve time in seconds: the median over an
/// instance's repeats (steady per instance), averaged over the problem's
/// instances (steady across seeds).
pub fn problem_times(r: &LoopResult) -> Vec<f64> {
    let firsts = first_of_each(&SOLVE_SET);
    firsts
        .iter()
        .zip(&SOLVE_SET)
        .map(|(&first, &(_, _, copies))| {
            let medians: Vec<f64> = r.per_instance[first..first + copies]
                .iter()
                .filter(|t| !t.is_empty())
                .map(|t| median(t))
                .collect();
            medians.iter().sum::<f64>() / medians.len().max(1) as f64
        })
        .collect()
}

/// The end-to-end metrics of a solve loop (`setup_s` and `peak_rss_mb`
/// are added by the caller).
pub fn loop_metrics(r: &LoopResult) -> Metrics {
    let mut m = Metrics::default();
    let times = problem_times(r);
    let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
    m.put("solve_geomean_per_s", geomean(&rates), "1/s");
    m.put("suite_s", times.iter().sum(), "s");
    m.put("ok_ratio", ok_ratio(r.attempted, r.wrong), "ratio");
    m
}

pub fn ok_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        (attempted - failed) as f64 / attempted as f64
    }
}
