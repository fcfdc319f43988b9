//! `ri` — the registry-driven CLI: run any registered problem by name and
//! print `{summary, report}` JSON on one line. The CLI and the `ri-serve`
//! HTTP server speak the same [`ServeRequest`]/[`ServeResponse`] envelope
//! from `ri_core::engine::envelope` — one parse path, identical defaults,
//! so a request body works verbatim over either transport.
//!
//! Request forms (all equivalent):
//!
//! ```text
//! ri '{"problem":"delaunay","workload":{"n":1000,"seed":7,"shape":"uniform-disk"},"config":{"mode":"parallel","threads":4}}'
//! ri --request-file req.json        # same JSON from a file ("-" = stdin)
//! ri --problem delaunay --n 1000 --seed 7 --shape uniform-disk --mode parallel --threads 4
//! ri --list                         # registered problem names + descriptions
//! ri witness replay <file>          # re-execute a witness log, assert bit-identity
//! ri report <claim> [arg]           # one of the paper's claims as a table
//! ```
//!
//! `witness replay` loads an `ri-router` witness log (one JSON record per
//! routed solve or served stream batch), re-executes every record through
//! the local registry — solves one-shot, stream sessions re-fed batch by
//! batch under their original ids — and asserts the answers, per-batch
//! deltas **and** the deterministic round traces come back bit-identical:
//! the cross-shard determinism gate. Prints a one-line JSON summary;
//! exits nonzero if any record diverges.
//!
//! `report` prints one of the paper's quantitative claims as a table (see
//! [`ri_bench::report`]); `ri report` alone lists the claims.
//!
//! `workload.seed` seeds the input generator; `config.seed` seeds run-time
//! randomness (processing orders). Omitted fields take their defaults
//! (`n` 1024, seeds 0, parallel mode, machine threads). The response is
//! `{"problem":...,"workload":...,"config":...,"summary":...,"report":...}`
//! — problem + workload + config replay exactly the documented run;
//! errors print one line to stderr and exit nonzero.

use std::io::Read;

use parallel_ri::registry;
use ri_bench::report;
use ri_core::engine::envelope::check_seed;
use ri_core::engine::json::Value;
use ri_core::engine::registry::Registry;
use ri_core::engine::witness;
use ri_core::engine::{ServeRequest, ServeResponse};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ri: {msg}");
    std::process::exit(2);
}

fn usage_text() -> &'static str {
    "usage: ri '<request-json>'\n\
     \x20      ri --request-file <path|->\n\
     \x20      ri --problem <name> [--n N] [--seed S] [--shape NAME] [--param X]\n\
     \x20         [--mode sequential|parallel|relaxed:k] [--run-seed S] [--threads K] [--no-instrument]\n\
     \x20      ri --list\n\
     \x20      ri witness replay <file>\n\
     \x20      ri report <claim> [arg]\n\
     \n\
     The request JSON shape is {\"problem\": <name>, \"workload\": {n, seed, shape?, param?},\n\
     \"config\": {seed, mode, threads?, instrument?}}; the response echoes\n\
     problem/workload/config and adds summary + report JSON. The same\n\
     request body works verbatim against ri-serve's POST /solve.\n\
     `witness replay` re-executes every record of an ri-router witness log\n\
     (one-shot solves and streamed session batches alike) and exits nonzero\n\
     unless all answers, per-batch deltas and round traces reproduce\n\
     bit-identically. relaxed:k runs the exact parallel schedule, but its\n\
     records gate on answer equality only: logs recorded before the relaxed\n\
     scheduler was retired hold that scheduler's round traces.\n\
     `report` prints one of the paper's claims as a table (`table1 --json`\n\
     adds each run's report as a JSON line); `ri report` alone lists them."
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// Parse `--flag value` style arguments into the shared request envelope.
fn parse_flags(args: &[String]) -> Result<ServeRequest, String> {
    let mut problem: Option<String> = None;
    let mut request = ServeRequest::new("");
    let check = |name: &str, seed: u64| check_seed(name, seed).map_err(|e| e.message);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|s| s.to_string())
                .ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--problem" => problem = Some(value("--problem")?),
            "--n" => {
                request.workload.n = value("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?
            }
            "--seed" => {
                request.workload.seed = check(
                    "--seed",
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )?
            }
            "--shape" => request.workload.shape = Some(value("--shape")?),
            "--param" => {
                request.workload.param = Some(
                    value("--param")?
                        .parse()
                        .map_err(|e| format!("bad --param: {e}"))?,
                )
            }
            "--mode" => {
                request.config.mode = value("--mode")?
                    .parse()
                    .map_err(|e| format!("bad --mode: {e}"))?
            }
            "--run-seed" => {
                request.config.seed = check(
                    "--run-seed",
                    value("--run-seed")?
                        .parse()
                        .map_err(|e| format!("bad --run-seed: {e}"))?,
                )?
            }
            "--threads" => {
                let t: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                request.config.threads = (t > 0).then_some(t);
            }
            "--no-instrument" => request.config.instrument = false,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    request.problem = problem.ok_or("--problem is required")?;
    Ok(request)
}

/// `ri witness replay <file>`: the determinism gate as a command. The
/// log may mix one-shot solve records and stream-batch records. Solves
/// re-execute one by one; stream batches are grouped by session (order
/// preserved) and each session is re-fed batch by batch, asserting every
/// per-batch delta — answer, trace, problem-specific delta — comes back
/// bit-identical. Relaxed-mode records gate on answer equality only (logs
/// recorded before the relaxed scheduler was retired hold its traces).
/// Any divergence is reported per record — tagged with the record's
/// execution mode — and fails the run.
fn witness_command(reg: &Registry, args: &[String]) {
    match args {
        [subcommand, path] if subcommand == "replay" => {
            let entries = witness::read_any_log(path).unwrap_or_else(|e| fail(e));
            let mut divergent = 0usize;
            let mut solves = 0usize;
            let mut stream_batches = 0usize;
            let mut sessions: Vec<(String, Vec<witness::StreamBatchRecord>)> = Vec::new();
            for (i, entry) in entries.iter().enumerate() {
                match entry {
                    witness::LogEntry::Solve(record) => {
                        solves += 1;
                        if let Err(e) = witness::replay(reg, record) {
                            divergent += 1;
                            eprintln!(
                                "ri: record {} ({} mode {} seed {} via shard {}): {e}",
                                i + 1,
                                record.request.problem,
                                record.request.config.mode.as_str(),
                                record.request.config.seed,
                                record.shard
                            );
                        }
                    }
                    witness::LogEntry::Stream(record) => {
                        stream_batches += 1;
                        match sessions.iter_mut().find(|(id, _)| *id == record.session) {
                            Some((_, records)) => records.push(record.clone()),
                            None => sessions.push((record.session.clone(), vec![record.clone()])),
                        }
                    }
                }
            }
            for (id, records) in &sessions {
                if let Err(e) = witness::replay_stream(reg, records) {
                    divergent += 1;
                    eprintln!(
                        "ri: session {id} ({} mode {} x{} batches): {e}",
                        records[0].spec.problem,
                        records[0].spec.config.mode.as_str(),
                        records.len()
                    );
                }
            }
            println!(
                "{}",
                Value::Obj(vec![
                    ("log".into(), Value::Str(path.clone())),
                    ("records".into(), Value::Num(entries.len() as f64)),
                    ("solves".into(), Value::Num(solves as f64)),
                    ("stream_batches".into(), Value::Num(stream_batches as f64)),
                    ("sessions".into(), Value::Num(sessions.len() as f64)),
                    ("divergent".into(), Value::Num(divergent as f64)),
                    ("ok".into(), Value::Bool(divergent == 0)),
                ])
                .write()
            );
            if divergent > 0 {
                std::process::exit(1);
            }
        }
        _ => fail("usage: ri witness replay <file>"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text());
        return;
    }
    if args.is_empty() {
        usage();
    }

    let reg = registry();
    if args[0] == "--list" {
        for (name, description) in reg.descriptions() {
            println!("{name:<14} {description}");
        }
        return;
    }
    if args[0] == "witness" {
        witness_command(&reg, &args[1..]);
        return;
    }
    if args[0] == "report" {
        print!(
            "{}",
            report::run(&reg, &args[1..]).unwrap_or_else(|e| fail(e))
        );
        return;
    }

    let request = if args[0] == "--request-file" {
        if args.len() > 2 {
            fail(format!(
                "unexpected arguments after --request-file: {}",
                args[2..].join(" ")
            ));
        }
        let path = args.get(1).unwrap_or_else(|| usage());
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(format!("reading stdin: {e}")));
            buf
        } else {
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")))
        };
        ServeRequest::from_json(&text).map_err(|e| e.to_string())
    } else if args[0].trim_start().starts_with('{') {
        if args.len() > 1 {
            fail(format!(
                "unexpected arguments after the JSON request: {}",
                args[1..].join(" ")
            ));
        }
        ServeRequest::from_json(&args[0]).map_err(|e| e.to_string())
    } else {
        parse_flags(&args)
    }
    .unwrap_or_else(|e| fail(e));

    let (summary, report) = reg
        .solve(&request.problem, &request.workload, &request.config)
        .unwrap_or_else(|e| fail(e));

    // Response: echo the resolved problem/workload/config — together they
    // replay exactly this run — then summary + report. The shape is the
    // shared envelope's, byte-identical to an ri-serve /solve response.
    let response = ServeResponse {
        problem: request.problem,
        workload: request.workload,
        config: request.config,
        summary,
        report,
    };
    println!("{}", response.to_json());
}
