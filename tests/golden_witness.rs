//! Answers and round traces pinned across commits: a committed witness
//! log, recorded through a routed two-shard fleet, must replay on this
//! build exactly as it was served.
//!
//! `tests/data/witness_golden.jsonl` holds, for each of the nine
//! registered problems, one-shot solves at n = 256 (workload seed 7, run
//! seed 3) in `sequential`, `parallel` and `relaxed:4`, plus one parallel
//! stream session fed four batches of 64. Solves replay through
//! [`witness::replay`] (answer and round trace; relaxed records gate on
//! the answer only), sessions through [`witness::replay_stream`] (every
//! batch delta bit-identical). Re-record the log only when a change is
//! *meant* to alter an answer or a trace.

use parallel_ri::registry;
use ri_core::engine::witness::{self, LogEntry, StreamBatchRecord};

const LOG: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/witness_golden.jsonl"
);

#[test]
fn golden_log_replays_bit_identically() {
    let reg = registry();
    let entries = witness::read_any_log(LOG).expect("golden log reads");
    let mut solves = Vec::new();
    let mut sessions: Vec<(String, Vec<StreamBatchRecord>)> = Vec::new();
    for entry in entries {
        match entry {
            LogEntry::Solve(record) => solves.push(record),
            LogEntry::Stream(record) => {
                match sessions.iter_mut().find(|(id, _)| *id == record.session) {
                    Some((_, records)) => records.push(record),
                    None => sessions.push((record.session.clone(), vec![record])),
                }
            }
        }
    }

    // The log covers every problem in every mode, and one full session each.
    for name in reg.names() {
        for mode in ["sequential", "parallel", "relaxed:4"] {
            assert!(
                solves
                    .iter()
                    .any(|r| r.request.problem == name && r.request.config.mode.as_str() == mode),
                "no {mode} solve of {name} in the golden log"
            );
        }
        let (_, records) = sessions
            .iter()
            .find(|(_, records)| records[0].spec.problem == name)
            .unwrap_or_else(|| panic!("no stream session of {name} in the golden log"));
        assert_eq!(records.len(), 4, "{name}: four batches");
        assert!(
            records[3].delta.complete,
            "{name}: session runs to capacity"
        );
    }

    for record in &solves {
        if let Err(e) = witness::replay(&reg, record) {
            panic!(
                "{} ({}) diverged from the golden log: {e}",
                record.request.problem,
                record.request.config.mode.as_str()
            );
        }
    }
    for (id, records) in &sessions {
        if let Err(e) = witness::replay_stream(&reg, records) {
            panic!("session {id} diverged from the golden log: {e}");
        }
    }
}
