//! `speedup` — the registry-wide performance gate: run every registered
//! problem sequentially and in parallel at several thread counts, verify
//! the parallel answers match the sequential ones, and write
//! `BENCH_PR8.json` (per-problem wall times, speedups, and the
//! `par1_overhead` ratio par@1 / sequential — the round engine's
//! scheduling+allocation overhead, independent of the host's core count).
//!
//! ```text
//! speedup [--quick] [--out PATH] [--threads 1,2,4,8] [--repeat N]
//!         [--scale X] [--gate-par1] [--gate-scaling]
//! ```
//!
//! `--quick` shrinks instances for CI smoke runs; `--scale` divides the
//! default sizes by an arbitrary factor. Exits nonzero if any parallel
//! answer diverges from the sequential answer — that check is the hard CI
//! gate on every run. `--gate-par1` additionally fails the run
//! when a problem's `par1_overhead` exceeds its committed budget
//! ([`PAR1_BUDGETS`]); instances whose sequential time is below
//! [`GATE_MIN_SEQ_SECONDS`] are skipped by that gate (their ratios are
//! timer noise), so give the gate real sizes (`--scale 1` or `2`).
//! `--gate-scaling` fails the run when a problem's `scaling` at any width
//! `w` up to the host's core count exceeds [`SCALING_BOUND`] (same skip
//! rule; `--threads` must include 1): parallel mode must never lose to its
//! own width-1 run, which is what the scheduler's per-item cost constants
//! promise. `scaling` is the median over repeats of par@w / par@1, each
//! pair timed back to back. A width whose solve spawned no helper thread
//! ran the width-1 code path, so its ratio is noise and the gate skips it
//! (the JSON's per-width `helper_spawns` shows which).
//!
//! Each problem's sequential and parallel runs form one group whose
//! repeats interleave (sequential, par@1, par@2, …, then again); wall
//! times are best-of-repeat. The `machine` block also records
//! `new_thread_shares_parent_cpu`: `true` on a host that starts each new
//! thread on its parent's CPU and keeps it there, where par@w cannot
//! scale (no gate reads it; `null` where `/proc/thread-self/stat` is
//! missing).

use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::Value;
use ri_core::engine::{OutputSummary, Registry, RunConfig, RunReport, WorkloadSpec};

/// Default instance sizes, chosen so each sequential run is substantial
/// enough to time meaningfully but the full matrix stays in CI budget.
const SIZES: &[(&str, usize)] = &[
    ("sort", 200_000),
    ("sort-batch", 200_000),
    ("delaunay", 20_000),
    ("lp", 300_000),
    ("lp-d", 60_000),
    ("closest-pair", 200_000),
    ("enclosing", 300_000),
    ("le-lists", 15_000),
    ("scc", 60_000),
];

/// Committed `par1_overhead` budgets (par@1 wall time / sequential wall
/// time), enforced by `--gate-par1`. The sort/delaunay targets reflect
/// the zero-allocation round engine (measured ≈0.9 on the dev host);
/// Type 2/3 problems inherently redo some checks in parallel mode, so
/// their budgets sit above 1 by the paper's constant factors, plus
/// headroom for CI timer noise.
const PAR1_BUDGETS: &[(&str, f64)] = &[
    ("sort", 1.4),
    ("sort-batch", 1.9),
    ("delaunay", 1.5),
    ("lp", 1.6),
    ("lp-d", 1.5),
    ("closest-pair", 1.8),
    ("enclosing", 1.7),
    ("le-lists", 2.0),
    ("scc", 1.7),
];

/// Sequential runs faster than this are too short to gate on: a ±1 ms
/// scheduling hiccup would swamp the ratio.
const GATE_MIN_SEQ_SECONDS: f64 = 0.005;

/// `--gate-scaling` bound on par@w / par@1 for every width up to the
/// core count.
const SCALING_BOUND: f64 = 1.1;

struct Args {
    out: String,
    threads: Vec<usize>,
    repeat: usize,
    scale: usize,
    gate_par1: bool,
    gate_scaling: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_PR8.json".to_string(),
        threads: vec![1, 2, 4, 8],
        repeat: 3,
        scale: 1,
        gate_par1: false,
        gate_scaling: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--quick" => {
                args.scale = 16;
                args.threads = vec![1, 2, 4];
                args.repeat = 1;
            }
            "--gate-par1" => args.gate_par1 = true,
            "--gate-scaling" => args.gate_scaling = true,
            "--out" => args.out = value("--out")?,
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("bad --threads: {e}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.repeat == 0 || args.scale == 0 || args.threads.is_empty() {
        return Err("--repeat, --scale and --threads must be nonzero/nonempty".into());
    }
    if args.gate_scaling && !args.threads.contains(&1) {
        return Err("--gate-scaling compares against par@1: --threads must include 1".into());
    }
    Ok(args)
}

/// The mode-invariant answer as a canonical JSON string (the divergence
/// fingerprint: equal strings = equal answers).
fn answer_fingerprint(summary: &OutputSummary) -> String {
    Value::Obj(summary.answer().to_vec()).write()
}

/// One configuration's timings: the wall time of every repeat, in order,
/// and the last run's summary and report.
struct Timed {
    secs: Vec<f64>,
    summary: OutputSummary,
    report: RunReport,
}

impl Timed {
    /// Best-of-repeat wall time.
    fn best(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median over repeats of this configuration's time over `base`'s in
    /// the same repeat. Each pair ran back to back, so a drift in the
    /// host's speed cancels out of the ratio, and the median drops a
    /// sample the host stalled on either side.
    fn paired_ratio(&self, base: &Timed) -> f64 {
        let mut ratios: Vec<f64> = self
            .secs
            .iter()
            .zip(&base.secs)
            .map(|(a, b)| a / b)
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    }
}

/// The CPU this thread last ran on: field 39 (`processor`) of
/// `/proc/thread-self/stat`, or `None` where that file is missing.
fn current_cpu() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Field 2, the command name, may hold spaces; field 3 follows its ')'.
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(39 - 3)?.parse().ok()
}

/// Whether a new thread starts, and stays, on its parent's CPU. Each of
/// five probes spawns a thread that spins about 5 ms while its parent
/// spins too, then compares where the two ran; most probes must agree.
/// Where they do, a crew's helpers time-share the caller's core, so
/// par@w cannot scale however the code behaves.
fn new_thread_shares_parent_cpu() -> Option<bool> {
    fn spin_then_cpu() -> Option<usize> {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        current_cpu()
    }
    const PROBES: usize = 5;
    let mut shared = 0;
    for _ in 0..PROBES {
        let child = std::thread::spawn(spin_then_cpu);
        let parent = spin_then_cpu();
        let child = child.join().ok()?;
        shared += usize::from(parent? == child?);
    }
    Some(2 * shared > PROBES)
}

/// Time `repeat` solves of each of `cfgs`. The repeats interleave the
/// configurations, so every one's samples come from the same stretch of
/// host time: run back to back, a host whose speed drifts would favour
/// whichever configuration ran first.
fn time_solves(
    reg: &Registry,
    name: &str,
    spec: &WorkloadSpec,
    cfgs: &[RunConfig],
    repeat: usize,
) -> Vec<Timed> {
    let problem = reg.construct(name, spec).unwrap_or_else(|e| {
        eprintln!("speedup: {name}: {e}");
        std::process::exit(2);
    });
    let mut secs: Vec<Vec<f64>> = cfgs.iter().map(|_| Vec::with_capacity(repeat)).collect();
    let mut last: Vec<Option<(OutputSummary, RunReport)>> = cfgs.iter().map(|_| None).collect();
    for _ in 0..repeat {
        for (i, cfg) in cfgs.iter().enumerate() {
            let t0 = Instant::now();
            let solved = problem.solve_erased(cfg);
            secs[i].push(t0.elapsed().as_secs_f64());
            last[i] = Some(solved);
        }
    }
    secs.into_iter()
        .zip(last)
        .map(|(secs, solved)| {
            let (summary, report) = solved.expect("repeat >= 1");
            Timed {
                secs,
                summary,
                report,
            }
        })
        .collect()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("speedup: {e}");
        std::process::exit(2);
    });
    let reg = registry();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut problems: Vec<(String, Value)> = Vec::new();
    let mut divergent: Vec<String> = Vec::new();
    let mut winners_at_4plus: Vec<String> = Vec::new();
    let mut over_budget: Vec<String> = Vec::new();
    let mut anti_scaling: Vec<String> = Vec::new();

    for &(name, full_n) in SIZES {
        let n = (full_n / args.scale).max(64);
        let spec = WorkloadSpec::new(n, 1);
        // The sequential run and the parallel runs at every width share one
        // interleaved group, so par1_overhead and the scaling ratios all
        // compare samples from the same stretch of host time.
        let mut cfgs = vec![RunConfig::new().seed(7).sequential().instrument(false)];
        cfgs.extend(args.threads.iter().map(|&t| {
            RunConfig::new()
                .seed(7)
                .parallel()
                .threads(t)
                .instrument(false)
        }));
        eprintln!(
            "speedup: {name} n={n} sequential and parallel t={:?}...",
            args.threads
        );
        let mut par_runs = time_solves(&reg, name, &spec, &cfgs, args.repeat);
        let seq = par_runs.remove(0);
        let seq_secs = seq.best();
        let seq_answer = answer_fingerprint(&seq.summary);

        let mut par_entries: Vec<(String, Value)> = Vec::new();
        let mut speedup_entries: Vec<(String, Value)> = Vec::new();
        let mut matches = true;
        let mut best_speedup_at_4plus = 0.0f64;
        let par1 = args
            .threads
            .iter()
            .position(|&t| t == 1)
            .map(|i| &par_runs[i]);
        for (&t, par) in args.threads.iter().zip(&par_runs) {
            if answer_fingerprint(&par.summary) != seq_answer {
                matches = false;
                eprintln!("speedup: DIVERGENCE on {name} at {t} threads");
            }
            let par_secs = par.best();
            let speedup = seq_secs / par_secs;
            if t >= 4 {
                best_speedup_at_4plus = best_speedup_at_4plus.max(speedup);
            }
            par_entries.push((t.to_string(), Value::Num(par_secs)));
            speedup_entries.push((
                t.to_string(),
                Value::Num((speedup * 1000.0).round() / 1000.0),
            ));
        }
        if !matches {
            divergent.push(name.to_string());
        }
        if best_speedup_at_4plus > 1.0 {
            winners_at_4plus.push(name.to_string());
        }
        let mut fields = vec![
            ("n".into(), Value::Num(n as f64)),
            ("seq_seconds".into(), Value::Num(seq_secs)),
            ("par_seconds".into(), Value::Obj(par_entries)),
            ("speedup".into(), Value::Obj(speedup_entries)),
            ("answers_match".into(), Value::Bool(matches)),
        ];
        if let Some(par1) = par1 {
            // par@1 / sequential: the round engine's own overhead, the
            // quantity the per-problem budgets gate.
            let overhead = par1.best() / seq_secs;
            fields.push((
                "par1_overhead".into(),
                Value::Num((overhead * 1000.0).round() / 1000.0),
            ));
            let budget = PAR1_BUDGETS
                .iter()
                .find(|(b, _)| *b == name)
                .map(|&(_, b)| b);
            if let Some(budget) = budget {
                fields.push(("par1_budget".into(), Value::Num(budget)));
                if overhead > budget && seq_secs >= GATE_MIN_SEQ_SECONDS {
                    over_budget.push(format!("{name} ({overhead:.2} > {budget})"));
                }
            }
            // par@w / par@1: above 1, a wider crew made the solve slower.
            let mut scaling: Vec<(String, Value)> = Vec::new();
            let mut spawns: Vec<(String, Value)> = Vec::new();
            for (&t, par) in args.threads.iter().zip(&par_runs) {
                let ratio = par.paired_ratio(par1);
                let helpers = par.report.helper_spawns;
                scaling.push((t.to_string(), Value::Num((ratio * 1000.0).round() / 1000.0)));
                spawns.push((t.to_string(), Value::Num(helpers as f64)));
                if t <= cores
                    && helpers > 0
                    && ratio > SCALING_BOUND
                    && seq_secs >= GATE_MIN_SEQ_SECONDS
                {
                    anti_scaling.push(format!(
                        "{name} at {t} threads ({ratio:.2} > {SCALING_BOUND})"
                    ));
                }
            }
            fields.push(("scaling".into(), Value::Obj(scaling)));
            fields.push(("helper_spawns".into(), Value::Obj(spawns)));
        }
        problems.push((name.to_string(), Value::Obj(fields)));
    }

    // `cores` comes from the actual runner, so the note can say the right
    // thing for the host that produced this file (CI regenerates it per
    // runner and uploads it as an artifact).
    let shares_cpu = new_thread_shares_parent_cpu();
    let mut note = String::from(if cores == 1 {
        "single-core host: speedups cannot exceed 1; par1_overhead and \
         the answer gate are the meaningful columns"
    } else {
        "multi-core host: speedups are bounded by this host's core count; \
         par1_overhead is core-count independent"
    });
    if cores > 1 && shares_cpu == Some(true) {
        note.push_str(
            "; new threads start and stay on their parent's CPU here, so \
             a crew time-shares the caller's core and par@w cannot scale",
        );
    }
    let doc = Value::Obj(vec![
        (
            "machine".into(),
            Value::Obj(vec![
                ("cores".into(), Value::Num(cores as f64)),
                (
                    "new_thread_shares_parent_cpu".into(),
                    shares_cpu.map_or(Value::Null, Value::Bool),
                ),
                ("note".into(), Value::Str(note)),
            ]),
        ),
        (
            "threads".into(),
            Value::Arr(args.threads.iter().map(|&t| Value::Num(t as f64)).collect()),
        ),
        ("repeat".into(), Value::Num(args.repeat as f64)),
        ("scale".into(), Value::Num(args.scale as f64)),
        ("problems".into(), Value::Obj(problems)),
        (
            "summary".into(),
            Value::Obj(vec![
                (
                    "problems_with_speedup_at_4plus_threads".into(),
                    Value::Arr(
                        winners_at_4plus
                            .iter()
                            .map(|s| Value::Str(s.clone()))
                            .collect(),
                    ),
                ),
                (
                    "all_answers_match".into(),
                    Value::Bool(divergent.is_empty()),
                ),
                (
                    "par1_over_budget".into(),
                    Value::Arr(over_budget.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
                (
                    "scaling_over_bound".into(),
                    Value::Arr(anti_scaling.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
            ]),
        ),
    ]);
    std::fs::write(&args.out, format!("{}\n", doc.write())).unwrap_or_else(|e| {
        eprintln!("speedup: writing {}: {e}", args.out);
        std::process::exit(2);
    });
    eprintln!("speedup: wrote {}", args.out);

    if !divergent.is_empty() {
        eprintln!(
            "speedup: parallel answers diverged from sequential for: {}",
            divergent.join(", ")
        );
        std::process::exit(1);
    }
    let par1_failed = args.gate_par1 && !over_budget.is_empty();
    if par1_failed {
        eprintln!(
            "speedup: par@1 overhead exceeded its committed budget for: {}",
            over_budget.join(", ")
        );
    }
    let scaling_failed = args.gate_scaling && !anti_scaling.is_empty();
    if scaling_failed {
        eprintln!(
            "speedup: parallel mode ran slower than at width 1 for: {}",
            anti_scaling.join(", ")
        );
    }
    if par1_failed || scaling_failed {
        std::process::exit(1);
    }
}
