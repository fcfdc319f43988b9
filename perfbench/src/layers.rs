//! The library half of the per-layer sweep: each public entry point is
//! timed from here, at width 1 and at `wmax`, on fixed inputs derived
//! from the workload seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use ri_core::engine::{Registry, RunConfig, Runner, ServeRequest, ServeResponse};

use crate::solve::{config, fingerprint, sequential, Instance};
use crate::stats::{median, ratio, Metrics};

/// Elements in each `pram` primitive's input.
const PRAM_N: usize = 1 << 20;

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = black_box(f());
    (t0.elapsed().as_secs_f64(), r)
}

fn at_width<R>(width: usize, op: impl FnOnce() -> R) -> R {
    Runner::new(RunConfig::new().threads(width)).install(op)
}

/// `rayon.region_us` and `rayon.join_us`: one minimal crew region (the
/// shortest input that goes parallel) and one `join` of two empty
/// closures, inside the cached pool of width `wmax`.
pub fn rayon_metrics(wmax: usize) -> Metrics {
    const REPS: usize = 300;
    let pool = rayon::cached_pool(wmax);
    let region: Vec<f64> = (0..REPS)
        .map(|_| {
            time(|| {
                pool.install(|| {
                    (0..rayon::MIN_PAR_LEN).into_par_iter().for_each(|i| {
                        black_box(i);
                    })
                })
            })
            .0
        })
        .collect();
    let join: Vec<f64> = (0..REPS)
        .map(|_| time(|| pool.install(|| rayon::join(|| black_box(1), || black_box(2)))).0)
        .collect();
    let mut m = Metrics::default();
    m.put("rayon.region_us", median(&region) * 1e6, "us");
    m.put("rayon.join_us", median(&join) * 1e6, "us");
    m
}

/// `pram.{scan,pack,radix,semisort}.{w1,wmax}_ms` on 2^20 seeded elements.
pub fn pram_metrics(seed: u64, wmax: usize) -> Metrics {
    const REPS: usize = 7;
    let rand = |i: usize| ri_pram::hash_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let counts: Vec<usize> = (0..PRAM_N).map(|i| (rand(i) % 16) as usize).collect();
    let keys: Vec<u64> = (0..PRAM_N).map(|i| rand(i + PRAM_N)).collect();
    let flags: Vec<bool> = keys.iter().map(|k| k & 1 == 1).collect();
    let records: Vec<(u64, u32)> = keys.iter().map(|&k| (k % 65_536, k as u32)).collect();

    let mut m = Metrics::default();
    for prim in ["scan", "pack", "radix", "semisort"] {
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..REPS {
            for (slot, width) in [1, wmax].into_iter().enumerate() {
                let dt = match prim {
                    "scan" => at_width(width, || time(|| ri_pram::exclusive_scan_usize(&counts)).0),
                    "pack" => at_width(width, || time(|| ri_pram::pack(&keys, &flags)).0),
                    "radix" => {
                        let mut v = keys.clone();
                        at_width(width, || time(|| ri_pram::radix_sort_u64(&mut v)).0)
                    }
                    _ => {
                        let v = records.clone();
                        at_width(width, || time(|| ri_pram::semisort_by_key(v, |r| r.0)).0)
                    }
                };
                times[slot].push(dt);
            }
        }
        m.put(format!("pram.{prim}.w1_ms"), median(&times[0]) * 1e3, "ms");
        m.put(
            format!("pram.{prim}.wmax_ms"),
            median(&times[1]) * 1e3,
            "ms",
        );
    }
    m
}

/// `solve.<p>.{seq,w1,wmax,relaxed}_ms` and `engine.<p>.*`: each instance
/// is solved in the four configurations in turn, repeatedly, within its
/// share of `budget` (at least 3 and at most 50 rounds). Every answer is
/// checked; the count of wrong ones is returned with the metrics.
pub fn engine_metrics(
    instances: &[Instance],
    wmax: usize,
    budget: Duration,
) -> (Metrics, u64, u64) {
    let share = budget / instances.len() as u32;
    let mut m = Metrics::default();
    let (mut attempted, mut wrong) = (0u64, 0u64);
    for inst in instances {
        let configs = [
            sequential(inst.run_seed),
            config(inst.run_seed, 1),
            config(inst.run_seed, wmax),
            RunConfig::new()
                .seed(inst.run_seed)
                .relaxed(8)
                .threads(wmax)
                .instrument(false),
        ];
        let mut times: [Vec<f64>; 4] = Default::default();
        let (mut takes, mut misses) = (0u64, 0u64);
        let (mut regions, mut spawns) = (0u64, 0u64);
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < 3 || (rounds < 50 && start.elapsed() < share) {
            for (slot, cfg) in configs.iter().enumerate() {
                let (dt, (summary, report)) = time(|| inst.problem.solve_erased(cfg));
                times[slot].push(dt);
                attempted += 1;
                if fingerprint(summary.answer()) != inst.reference {
                    wrong += 1;
                }
                match slot {
                    1 => {
                        takes += report.scratch_hits + report.scratch_misses;
                        misses += report.scratch_misses;
                    }
                    2 => (regions, spawns) = (report.regions, report.helper_spawns),
                    _ => {}
                }
            }
            rounds += 1;
        }
        let paired = |num: usize, den: usize| -> f64 {
            let r: Vec<f64> = times[num]
                .iter()
                .zip(&times[den])
                .map(|(a, b)| a / b)
                .collect();
            median(&r)
        };
        let p = inst.name;
        for (slot, label) in ["seq", "w1", "wmax", "relaxed"].into_iter().enumerate() {
            m.put(
                format!("solve.{p}.{label}_ms"),
                median(&times[slot]) * 1e3,
                "ms",
            );
        }
        m.put(format!("engine.{p}.regions"), regions as f64, "count");
        m.put(format!("engine.{p}.helper_spawns"), spawns as f64, "count");
        m.put(format!("engine.{p}.scaling"), paired(2, 1), "ratio");
        m.put(format!("engine.{p}.par1_overhead"), paired(1, 0), "ratio");
        m.put(
            format!("engine.{p}.scratch_miss_ratio"),
            ratio(misses as f64, takes as f64),
            "ratio",
        );
    }
    (m, attempted, wrong)
}

/// `gen.<p>_ms`: median of five constructions through the registry.
pub fn gen_metrics(reg: &Registry, instances: &[Instance]) -> Metrics {
    let mut m = Metrics::default();
    for inst in instances {
        let times: Vec<f64> = (0..5)
            .map(|_| time(|| reg.construct(inst.name, &inst.spec)).0)
            .collect();
        m.put(format!("gen.{}_ms", inst.name), median(&times) * 1e3, "ms");
    }
    m
}

/// `envelope.parse_us` and `envelope.encode_us`: parsing each instance's
/// `/solve` request body and encoding its response, pooled over the nine.
pub fn envelope_metrics(instances: &[Instance]) -> Metrics {
    const REPS: usize = 40;
    let (mut parse, mut encode) = (Vec::new(), Vec::new());
    for inst in instances {
        let cfg = config(inst.run_seed, 1);
        let request = ServeRequest {
            problem: inst.name.to_string(),
            workload: inst.spec.clone(),
            config: cfg.clone(),
        }
        .to_json();
        let (summary, report) = inst.problem.solve_erased(&cfg);
        let response = ServeResponse {
            problem: inst.name.to_string(),
            workload: inst.spec.clone(),
            config: cfg,
            summary,
            report,
        };
        for _ in 0..REPS {
            parse.push(time(|| ServeRequest::from_json(&request)).0);
            encode.push(time(|| response.to_json()).0);
        }
    }
    let mut m = Metrics::default();
    m.put("envelope.parse_us", median(&parse) * 1e6, "us");
    m.put("envelope.encode_us", median(&encode) * 1e6, "us");
    m
}
