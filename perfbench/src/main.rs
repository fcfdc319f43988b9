//! `perfbench` — the measuring program behind `perfbench/run.py`.
//!
//! ```text
//! perfbench --workload solve-par|solve-inline|serve-mixed --seed S
//!           --seconds T --trace 0|1 --wmax W [--router HOST:PORT]
//! perfbench --calibrate --seed S --wmax W [--router HOST:PORT]
//! ```
//!
//! Prints one JSON line `{"correct", "attempted", "failed", "metrics"}`
//! on stdout: the end-to-end metrics untraced, the per-layer metrics
//! traced. `serve-mixed` and every traced run need `--router`, the
//! address of an `ri-router` fronting two `ri-serve` shards; the caller
//! owns that fleet (and adds its set-up time and memory to the result).
//! Human-readable tables go to stderr.

mod layers;
mod mix;
mod solve;
mod stats;
mod trace;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::Value;
use ri_core::engine::Registry;

use stats::{median, Metrics};
use trace::Spans;

/// The serving half of a traced solve run drives this many seconds of the
/// serve-mixed traffic, then this many seconds of direct-to-shard pairs.
const SERVING_SWEEP_SECONDS: f64 = 4.0;
const DIRECT_SECONDS: f64 = 3.0;
/// Time the library sweep spends solving each instance set.
const ENGINE_SWEEP_SECONDS: f64 = 5.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wmax: usize,
    router: Option<SocketAddr>,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        wmax: std::thread::available_parallelism().map_or(1, |n| n.get()),
        router: None,
        calibrate: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--wmax" => {
                args.wmax = value("--wmax")?
                    .parse()
                    .map_err(|e| format!("bad --wmax: {e}"))?
            }
            "--router" => {
                args.router = Some(
                    value("--router")?
                        .parse()
                        .map_err(|e| format!("bad --router: {e}"))?,
                )
            }
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seconds <= 0.0 || args.wmax == 0 {
        return Err("--seconds and --wmax must be positive".into());
    }
    Ok(args)
}

/// A command's result before printing.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// False when an answer was wrong or the run is invalid.
    correct: bool,
    metrics: Metrics,
}

fn print_result(out: &Outcome) {
    let metrics = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            (
                name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Value::Obj(vec![
        ("correct".into(), Value::Bool(out.correct)),
        ("attempted".into(), Value::Num(out.attempted as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", doc.write());
}

/// The end-to-end numbers of the untraced and traced halves of a traced
/// run, side by side, so the cost of tracing shows.
fn side_by_side(untraced: &Metrics, traced: &Metrics) -> String {
    let mut out = String::from("end-to-end metric              untraced       traced   overhead\n");
    for (name, u, unit) in &untraced.0 {
        let t = traced.get(name).unwrap_or(0.0);
        out.push_str(&format!(
            "{name:<28} {u:>10.4} {t:>12.4}   {:>+7.1}%  {unit}\n",
            stats::ratio(t - u, *u) * 100.0
        ));
    }
    out
}

fn need_router(args: &Args) -> Result<SocketAddr, String> {
    args.router
        .ok_or_else(|| format!("{} needs --router HOST:PORT", args.workload))
}

/// Every library layer's metrics over one instance set.
fn library_sweep(
    reg: &Registry,
    instances: &[solve::Instance],
    args: &Args,
    tally: &mut Tally,
) -> Metrics {
    let mut m = layers::rayon_metrics(args.wmax);
    m.extend(layers::pram_metrics(args.seed, args.wmax));
    let (engine, attempted, wrong) = layers::engine_metrics(
        instances,
        args.wmax,
        Duration::from_secs_f64(ENGINE_SWEEP_SECONDS),
    );
    tally.add(attempted, wrong, wrong);
    m.extend(engine);
    m.extend(layers::gen_metrics(reg, instances));
    m.extend(layers::envelope_metrics(instances));
    m
}

/// The serving layers' metrics from a mix run plus the direct phase.
fn serving_sweep(
    reg: &Registry,
    refs: &mut mix::References,
    router: SocketAddr,
    seed: u64,
    outcomes: &[mix::Outcome],
    counters: (&mix::RouterCounters, &mix::RouterCounters),
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut m = mix::session_client_metrics(reg, outcomes);
    m.extend(mix::router_metrics(counters.0, counters.1));
    let (direct, attempted, failed) = mix::direct_phase(
        reg,
        refs,
        router,
        seed,
        Duration::from_secs_f64(DIRECT_SECONDS),
    )?;
    tally.add(attempted, failed, failed);
    m.extend(direct);
    Ok(m)
}

/// Operations attempted and failed, and wrong answers among the failures,
/// summed over a run's phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
    }

    fn add_loop(&mut self, r: &solve::LoopResult) {
        self.add(r.attempted, r.wrong, r.wrong);
    }

    fn add_mix(&mut self, outcomes: &[mix::Outcome], wrong: u64) {
        let failed = outcomes.iter().filter(|o| !o.ok).count() as u64;
        self.add(outcomes.len() as u64, failed, wrong);
    }

    fn outcome(self, valid: bool, metrics: Metrics) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: self.wrong == 0 && valid,
            metrics,
        }
    }
}

/// Run the mix at the offered rate for `seconds` and check every answer.
fn mix_phase(
    reg: &Registry,
    refs: &mut mix::References,
    router: SocketAddr,
    seed: u64,
    phase: u64,
    seconds: f64,
    traced: bool,
) -> (Vec<mix::Outcome>, Spans, u64) {
    let count = (mix::OFFERED_RATE * seconds) as usize;
    let (mut outcomes, spans) = mix::run(router, seed, phase, count, mix::OFFERED_RATE, traced);
    let wrong = mix::verify(reg, refs, &mut outcomes);
    (outcomes, spans, wrong)
}

/// The open-loop honesty check: a generator that fell behind its own
/// schedule measured itself, so the run is invalid.
fn on_schedule(outcomes: &[mix::Outcome]) -> bool {
    let lateness = mix::lateness_p99_ms(outcomes);
    let valid = lateness <= mix::LATENESS_LIMIT_MS;
    if !valid {
        eprintln!(
            "serve-mixed: invalid run: generator lateness p99 {lateness:.1} ms exceeds {} ms",
            mix::LATENESS_LIMIT_MS
        );
    }
    valid
}

/// Traced runs alternate untraced and traced slices of this length, so
/// drift in the host's speed affects both sides of the comparison alike.
const SLICE: Duration = Duration::from_millis(1000);

fn solve_workload(args: &Args, width: usize) -> Result<Outcome, String> {
    let reg = registry();
    let (instances, setup_s) = solve::setup(&reg, args.seed, width)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    if !args.trace {
        let r = solve::run_loop(&instances, width, budget, 0, None);
        for ((name, n, copies), t) in solve::SOLVE_SET.iter().zip(solve::problem_times(&r)) {
            eprintln!("{name:<14} n={n:<8} x{copies:<3} {:>9.3} ms", t * 1e3);
        }
        tally.add_loop(&r);
        let mut metrics = Metrics::default();
        metrics.put("setup_s", setup_s, "s");
        metrics.extend(solve::loop_metrics(&r));
        metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        return Ok(tally.outcome(true, metrics));
    }
    let router = need_router(args)?;
    let mut spans = Spans::new();
    let (mut untraced, mut traced) = (solve::LoopResult::default(), solve::LoopResult::default());
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed() < budget {
        for trace_slice in [false, true] {
            let r = solve::run_loop(
                &instances,
                width,
                SLICE / 2,
                pass,
                trace_slice.then_some(&mut spans),
            );
            pass += r.passes;
            if trace_slice {
                traced.merge(r);
            } else {
                untraced.merge(r);
            }
        }
    }
    tally.add_loop(&untraced);
    tally.add_loop(&traced);
    eprint!(
        "{}",
        side_by_side(
            &solve::loop_metrics(&untraced),
            &solve::loop_metrics(&traced)
        )
    );
    let firsts = solve::first_of_each(&solve::SOLVE_SET);
    let firsts: Vec<solve::Instance> = instances
        .into_iter()
        .enumerate()
        .filter_map(|(i, inst)| firsts.contains(&i).then_some(inst))
        .collect();
    let mut m = library_sweep(&reg, &firsts, args, &mut tally);
    let mut refs = mix::References::default();
    mix::warm_up(router, args.seed)?;
    let before = mix::router_counters(router)?;
    let (outcomes, mix_spans, mix_wrong) = mix_phase(
        &reg,
        &mut refs,
        router,
        args.seed,
        4,
        SERVING_SWEEP_SECONDS,
        true,
    );
    let after = mix::router_counters(router)?;
    tally.add_mix(&outcomes, mix_wrong);
    spans.merge(mix_spans);
    m.extend(serving_sweep(
        &reg,
        &mut refs,
        router,
        args.seed,
        &outcomes,
        (&before, &after),
        &mut tally,
    )?);
    eprint!("{}", spans.summary());
    print_scaling(&m);
    Ok(tally.outcome(true, m))
}

fn serve_workload(args: &Args) -> Result<Outcome, String> {
    let reg = registry();
    let router = need_router(args)?;
    let mut refs = mix::References::default();
    let mut tally = Tally::default();
    mix::warm_up(router, args.seed)?;
    if !args.trace {
        let (outcomes, _, wrong) =
            mix_phase(&reg, &mut refs, router, args.seed, 0, args.seconds, false);
        tally.add_mix(&outcomes, wrong);
        return Ok(tally.outcome(on_schedule(&outcomes), mix::mix_metrics(&outcomes)));
    }
    // Four quarters, untraced and traced in turn.
    let before = mix::router_counters(router)?;
    let (mut untraced, mut traced, mut spans) = (Vec::new(), Vec::new(), Spans::new());
    for phase in 0..4 {
        let trace_phase = phase % 2 == 1;
        let (outcomes, s, wrong) = mix_phase(
            &reg,
            &mut refs,
            router,
            args.seed,
            phase,
            args.seconds / 4.0,
            trace_phase,
        );
        tally.add_mix(&outcomes, wrong);
        if trace_phase {
            traced.extend(outcomes);
            spans.merge(s);
        } else {
            untraced.extend(outcomes);
        }
    }
    let after = mix::router_counters(router)?;
    let valid = on_schedule(&untraced) && on_schedule(&traced);
    eprint!(
        "{}",
        side_by_side(&mix::mix_metrics(&untraced), &mix::mix_metrics(&traced))
    );
    let mut m = serving_sweep(
        &reg,
        &mut refs,
        router,
        args.seed,
        &traced,
        (&before, &after),
        &mut tally,
    )?;
    let mut instances = solve::construct(&reg, &mix_set(), args.seed)?;
    solve::solve_references(&mut instances);
    m.extend(library_sweep(&reg, &instances, args, &mut tally));
    eprint!("{}", spans.summary());
    print_scaling(&m);
    Ok(tally.outcome(valid, m))
}

fn mix_set() -> Vec<(&'static str, usize, usize)> {
    mix::PROBLEMS.iter().map(|&p| (p, mix::MIX_N, 1)).collect()
}

/// The per-problem `engine.<p>.scaling` table: wmax / w1 wall time, the
/// ratio a no-anti-scaling gate (`par@w ≤ 1.1 × par@1`) reads.
fn print_scaling(m: &Metrics) {
    eprintln!("problem         w1_ms    wmax_ms  scaling  regions");
    for p in mix::PROBLEMS {
        let get = |k: &str| m.get(k).unwrap_or(0.0);
        eprintln!(
            "{p:<14} {:>7.3} {:>10.3} {:>8.3} {:>8}",
            get(&format!("solve.{p}.w1_ms")),
            get(&format!("solve.{p}.wmax_ms")),
            get(&format!("engine.{p}.scaling")),
            get(&format!("engine.{p}.regions")),
        );
    }
}

/// Measure what the workload constants were chosen from: each solve
/// instance's sequential time and, with `--router`, the mix's closed-loop
/// capacity (every send due at once on the two connections).
fn calibrate(args: &Args) -> Result<Outcome, String> {
    let reg = registry();
    let mut instances = solve::construct(
        &reg,
        &solve::SOLVE_SET.map(|(p, n, _)| (p, n, 1)),
        args.seed,
    )?;
    solve::solve_references(&mut instances);
    let mut m = Metrics::default();
    for inst in &instances {
        let times: Vec<f64> = (0..7)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(inst.problem.solve_erased(&solve::sequential(inst.run_seed)));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        m.put(
            format!("seq.{}.n{}_ms", inst.name, inst.spec.n),
            median(&times) * 1e3,
            "ms",
        );
    }
    // How much one instance's solve time depends on its seed: the
    // coefficient of variation over 16 instance seeds, per width.
    for (i, &(name, n, _)) in solve::SOLVE_SET.iter().enumerate() {
        for width in [1, args.wmax] {
            let times: Vec<f64> = (0..16)
                .map(|k| {
                    let (spec, run_seed) = solve::spec_for(args.seed, i, k, n);
                    let p = reg.construct(name, &spec).expect("calibration instance");
                    let reps: Vec<f64> = (0..3)
                        .map(|_| {
                            let t0 = Instant::now();
                            std::hint::black_box(p.solve_erased(&solve::config(run_seed, width)));
                            t0.elapsed().as_secs_f64()
                        })
                        .collect();
                    median(&reps)
                })
                .collect();
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
            m.put(
                format!("seed_cv.{name}.w{width}"),
                var.sqrt() / mean,
                "ratio",
            );
            m.put(format!("seed_mean.{name}.w{width}_ms"), mean * 1e3, "ms");
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    if let Some(router) = args.router {
        mix::warm_up(router, args.seed)?;
        let t0 = Instant::now();
        let (outcomes, _) = mix::run(router, args.seed, 9, 1500, f64::INFINITY, false);
        let capacity = outcomes.len() as f64 / t0.elapsed().as_secs_f64();
        m.put("mix.closed_loop_capacity", capacity, "1/s");
        attempted = outcomes.len() as u64;
        failed = outcomes.iter().filter(|o| !o.ok).count() as u64;
    }
    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        correct: failed == 0,
        metrics: m,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let result = if args.calibrate {
        calibrate(&args)
    } else {
        match args.workload.as_str() {
            "solve-par" => solve_workload(&args, args.wmax),
            "solve-inline" => solve_workload(&args, 1),
            "serve-mixed" => serve_workload(&args),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
    match result {
        Ok(out) => print_result(&out),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
