//! The unified execution record every engine run produces.
//!
//! [`RunReport`] subsumes the two incompatible stats types the pre-engine
//! executors used to return — [`RoundLog`] (Types 1 and 3) and a
//! Type-2-specific specials record — so the bench harness, the
//! integration tests, and downstream tooling read *one* shape for all
//! eight algorithms: per-round items/work, the special-iteration trace,
//! the measured dependence depth, per-phase wall times, and a JSON form.

use std::time::Instant;

use ri_pram::RoundLog;

use super::json::{self, Value};
use super::runner::ExecMode;

/// One named, timed phase of a run (e.g. `"build"`, `"solve"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Wall time in seconds.
    pub seconds: f64,
}

/// The unified execution record of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Which algorithm ran (e.g. `"bst-sort"`, `"delaunay"`).
    pub algorithm: String,
    /// Execution mode of the run.
    pub mode: ExecMode,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Number of iterations (input items) processed.
    pub items: usize,
    /// Per-round `(items, work)` log. For parallel runs one entry per
    /// executor round; sequential runs record a single summary entry.
    pub rounds: RoundLog,
    /// Measured iteration dependence depth: executor rounds (Type 1),
    /// total sub-rounds (Type 2 parallel), doubling rounds (Type 3) — or
    /// `items` for sequential runs, whose dependence chain is the input
    /// order itself.
    pub depth: usize,
    /// Indices that executed as special iterations, in execution order
    /// (Type 2 only; empty otherwise).
    pub specials: Vec<usize>,
    /// Sub-rounds per prefix (Type 2 parallel only; empty otherwise).
    pub sub_rounds: Vec<usize>,
    /// The algorithm's scalar work measure: specialness checks for Type 2
    /// runs; the problem's own work counter (comparisons, InCircle tests,
    /// visits + relaxations, ...) for problem-level runs.
    pub checks: u64,
    /// Named, timed phases (empty when instrumentation is off).
    pub phases: Vec<Phase>,
    /// Total wall time of the run in seconds (0 when instrumentation is
    /// off).
    pub wall_seconds: f64,
    /// Scratch-arena takes served from the pool during the run (buffer
    /// reuse; measured on the run's calling thread).
    pub scratch_hits: u64,
    /// Scratch-arena takes that had to allocate (first run on a thread
    /// warms the pool; steady state should be hit-dominated).
    pub scratch_misses: u64,
    /// Multi-member parallel regions the calling thread started. 0 when
    /// the engine's go-parallel rule kept every round inline (and always
    /// 0 for sequential / 1-thread runs).
    pub regions: u64,
    /// Scoped helper threads the calling thread spawned (crew members,
    /// join branches). Like `regions`, 0 for fully inline runs.
    pub helper_spawns: u64,
    /// Why an [`ExecMode::Relaxed`] run ran the exact parallel schedule
    /// (set on every relaxed run); `None` in the other modes.
    pub relaxed_fallback: Option<String>,
}

impl RunReport {
    /// A fresh report for `algorithm` (counters zeroed; mode/threads are
    /// filled in by the [`Runner`](super::Runner)).
    pub fn new(algorithm: impl Into<String>) -> Self {
        RunReport {
            algorithm: algorithm.into(),
            mode: ExecMode::Parallel,
            threads: 1,
            items: 0,
            rounds: RoundLog::new(),
            depth: 0,
            specials: Vec::new(),
            sub_rounds: Vec::new(),
            checks: 0,
            phases: Vec::new(),
            wall_seconds: 0.0,
            scratch_hits: 0,
            scratch_misses: 0,
            regions: 0,
            helper_spawns: 0,
            relaxed_fallback: None,
        }
    }

    /// Record one completed executor round.
    pub fn record_round(&mut self, items: usize, work: u64) {
        self.rounds.record(items, work);
    }

    /// Stamp a finished run's rounds and depth: a parallel run's round
    /// `log` (depth = its round count), or for a sequential run (`None`)
    /// one summary round of all `items` with `work`, depth = `items`.
    pub fn stamp_rounds(&mut self, log: Option<RoundLog>, work: u64) {
        match log {
            Some(log) => {
                self.depth = log.rounds();
                self.rounds = log;
            }
            None => {
                if self.items > 0 {
                    self.record_round(self.items, work);
                }
                self.depth = self.items;
            }
        }
    }

    /// Total work across rounds.
    pub fn total_work(&self) -> u64 {
        self.rounds.total_work()
    }

    /// Sum of per-prefix sub-round counts (Type 2 parallel depth measure).
    pub fn total_sub_rounds(&self) -> usize {
        self.sub_rounds.iter().sum()
    }

    /// Time `f` as a named phase, recording it when `instrument` is set.
    pub fn phase<R>(&mut self, name: &str, instrument: bool, f: impl FnOnce(&mut Self) -> R) -> R {
        if !instrument {
            return f(self);
        }
        let t0 = Instant::now();
        let out = f(self);
        self.phases.push(Phase {
            name: name.to_string(),
            seconds: t0.elapsed().as_secs_f64(),
        });
        out
    }

    /// Serialize to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().write()
    }

    /// The report as a JSON [`Value`] (for embedding in larger documents
    /// such as the serve envelope's response).
    pub fn to_value(&self) -> Value {
        let rounds = Value::Arr(
            self.rounds
                .entries()
                .iter()
                .map(|&(items, work)| {
                    Value::Arr(vec![Value::Num(items as f64), Value::Num(work as f64)])
                })
                .collect(),
        );
        let specials = Value::Arr(
            self.specials
                .iter()
                .map(|&s| Value::Num(s as f64))
                .collect(),
        );
        let sub_rounds = Value::Arr(
            self.sub_rounds
                .iter()
                .map(|&s| Value::Num(s as f64))
                .collect(),
        );
        let phases = Value::Arr(
            self.phases
                .iter()
                .map(|p| Value::Arr(vec![Value::Str(p.name.clone()), Value::Num(p.seconds)]))
                .collect(),
        );
        let mut fields = vec![
            ("algorithm".into(), Value::Str(self.algorithm.clone())),
            ("mode".into(), Value::Str(self.mode.as_str().into())),
            ("threads".into(), Value::Num(self.threads as f64)),
            ("items".into(), Value::Num(self.items as f64)),
            ("rounds".into(), rounds),
            ("depth".into(), Value::Num(self.depth as f64)),
            ("specials".into(), specials),
            ("sub_rounds".into(), sub_rounds),
            ("checks".into(), Value::Num(self.checks as f64)),
            ("phases".into(), phases),
            ("wall_seconds".into(), Value::Num(self.wall_seconds)),
            ("scratch_hits".into(), Value::Num(self.scratch_hits as f64)),
            (
                "scratch_misses".into(),
                Value::Num(self.scratch_misses as f64),
            ),
            ("regions".into(), Value::Num(self.regions as f64)),
            (
                "helper_spawns".into(),
                Value::Num(self.helper_spawns as f64),
            ),
        ];
        // Stamped only on relaxed runs, so the other modes keep the
        // older shape byte for byte.
        if let Some(reason) = &self.relaxed_fallback {
            fields.push(("relaxed_fallback".into(), Value::Str(reason.clone())));
        }
        Value::Obj(fields)
    }

    /// Parse a report back from [`RunReport::to_json`] output.
    ///
    /// Counters above 2⁵³ would lose precision through the JSON number
    /// representation; no realistic run reaches that.
    pub fn from_json(text: &str) -> Result<RunReport, json::ParseError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parse a report from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<RunReport, json::ParseError> {
        let field = |key: &str| {
            v.get(key).ok_or_else(|| json::ParseError {
                message: format!("missing field `{key}`"),
                at: 0,
            })
        };
        let bad = |key: &str| json::ParseError {
            message: format!("malformed field `{key}`"),
            at: 0,
        };

        let mut report = RunReport::new(
            field("algorithm")?
                .as_str()
                .ok_or_else(|| bad("algorithm"))?,
        );
        report.mode = field("mode")?
            .as_str()
            .and_then(|s| s.parse::<ExecMode>().ok())
            .ok_or_else(|| bad("mode"))?;
        report.threads = field("threads")?.as_usize().ok_or_else(|| bad("threads"))?;
        report.items = field("items")?.as_usize().ok_or_else(|| bad("items"))?;
        for entry in field("rounds")?.as_arr().ok_or_else(|| bad("rounds"))? {
            let pair = entry
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("rounds"))?;
            report.rounds.record(
                pair[0].as_usize().ok_or_else(|| bad("rounds"))?,
                pair[1].as_u64().ok_or_else(|| bad("rounds"))?,
            );
        }
        report.depth = field("depth")?.as_usize().ok_or_else(|| bad("depth"))?;
        for s in field("specials")?.as_arr().ok_or_else(|| bad("specials"))? {
            report
                .specials
                .push(s.as_usize().ok_or_else(|| bad("specials"))?);
        }
        for s in field("sub_rounds")?
            .as_arr()
            .ok_or_else(|| bad("sub_rounds"))?
        {
            report
                .sub_rounds
                .push(s.as_usize().ok_or_else(|| bad("sub_rounds"))?);
        }
        report.checks = field("checks")?.as_u64().ok_or_else(|| bad("checks"))?;
        for p in field("phases")?.as_arr().ok_or_else(|| bad("phases"))? {
            let pair = p
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("phases"))?;
            report.phases.push(Phase {
                name: pair[0].as_str().ok_or_else(|| bad("phases"))?.to_string(),
                seconds: pair[1].as_f64().ok_or_else(|| bad("phases"))?,
            });
        }
        report.wall_seconds = field("wall_seconds")?
            .as_f64()
            .ok_or_else(|| bad("wall_seconds"))?;
        // The allocation/region counters were added after the first JSON
        // shape shipped: absent fields read as 0 so recorded reports from
        // older runs still parse; present fields must be well-formed.
        // Keys this shape no longer has, such as the counters of the
        // retired relaxed scheduler, are ignored.
        let counter = |key: &str| match v.get(key) {
            None => Ok(0),
            Some(x) => x.as_u64().ok_or_else(|| bad(key)),
        };
        report.scratch_hits = counter("scratch_hits")?;
        report.scratch_misses = counter("scratch_misses")?;
        report.regions = counter("regions")?;
        report.helper_spawns = counter("helper_spawns")?;
        report.relaxed_fallback = match v.get("relaxed_fallback") {
            None | Some(Value::Null) => None,
            Some(r) => Some(
                r.as_str()
                    .ok_or_else(|| bad("relaxed_fallback"))?
                    .to_string(),
            ),
        };
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("demo");
        r.mode = ExecMode::Parallel;
        r.threads = 4;
        r.items = 35;
        r.record_round(10, 100);
        r.record_round(20, 50);
        r.record_round(5, 5);
        r.depth = 3;
        r.specials = vec![0, 7, 19];
        r.sub_rounds = vec![1, 2, 2];
        r.checks = 155;
        r.phases.push(Phase {
            name: "solve".into(),
            seconds: 0.125,
        });
        r.wall_seconds = 0.25;
        r.scratch_hits = 6;
        r.scratch_misses = 2;
        r.regions = 3;
        r.helper_spawns = 9;
        r
    }

    #[test]
    fn aggregation_over_rounds() {
        let r = sample();
        assert_eq!(r.total_work(), 155);
        assert_eq!(r.rounds.rounds(), 3);
        assert_eq!(r.total_sub_rounds(), 5);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = sample();
        let text = r.to_json();
        let parsed = RunReport::from_json(&text).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn relaxed_mode_and_fallback_round_trip() {
        let mut r = sample();
        r.mode = ExecMode::Relaxed { k: 8 };
        r.relaxed_fallback = Some("ran exact parallel".into());
        let text = r.to_json();
        assert!(text.contains("\"relaxed:8\""));
        assert!(text.contains("relaxed_fallback"));
        assert_eq!(RunReport::from_json(&text).unwrap(), r);
        // Without a fallback the key is absent, and parses back as None.
        r.relaxed_fallback = None;
        let text = r.to_json();
        assert!(!text.contains("relaxed_fallback"));
        assert_eq!(RunReport::from_json(&text).unwrap(), r);
    }

    #[test]
    fn reports_with_the_retired_relaxed_counters_still_parse() {
        // A `relaxed:2` closest-pair report as the k-relaxed scheduler
        // wrote it, `rank_inversions` and `wasted_retries` included.
        let old = r#"{"algorithm":"closest-pair","mode":"relaxed:2","threads":1,"items":8,"rounds":[[1,1],[2,3],[4,7],[1,1]],"depth":6,"specials":[1,2,3],"sub_rounds":[1,2,2,1],"checks":12,"phases":[],"wall_seconds":0,"scratch_hits":0,"scratch_misses":2,"regions":0,"helper_spawns":0,"rank_inversions":1,"wasted_retries":4}"#;
        let r = RunReport::from_json(old).expect("a report in the old shape parses");
        assert_eq!(r.mode, ExecMode::Relaxed { k: 2 });
        assert_eq!(r.rounds.entries(), &[(1, 1), (2, 3), (4, 7), (1, 1)]);
        assert_eq!(r.specials, vec![1, 2, 3]);
        assert_eq!(r.checks, 12);
        assert_eq!(r.scratch_misses, 2);
        assert_eq!(r.relaxed_fallback, None);
        // Written back, it no longer carries the retired keys.
        let text = r.to_json();
        assert!(!text.contains("rank_inversions"), "{text}");
        assert!(!text.contains("wasted_retries"), "{text}");
        assert_eq!(RunReport::from_json(&text).unwrap(), r);
    }

    #[test]
    fn json_round_trip_of_empty_report() {
        let r = RunReport::new("empty");
        assert_eq!(RunReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
        let mut ok = sample().to_json();
        ok = ok.replace("\"parallel\"", "\"sideways\"");
        assert!(RunReport::from_json(&ok).is_err());
    }

    #[test]
    fn counters_are_optional_on_parse_but_validated_when_present() {
        // A pre-counter report (the shape older runs recorded) parses
        // with zeroed counters...
        let old = sample().to_json();
        let old = old.split(",\"scratch_hits\"").next().unwrap().to_string() + "}";
        let parsed = RunReport::from_json(&old).expect("old shape parses");
        assert_eq!(parsed.scratch_hits, 0);
        assert_eq!(parsed.regions, 0);
        // ...but a malformed present counter is rejected.
        let bad = sample()
            .to_json()
            .replace("\"regions\":3", "\"regions\":\"many\"");
        assert!(RunReport::from_json(&bad).is_err());
    }

    #[test]
    fn phase_timer_records_when_instrumented() {
        let mut r = RunReport::new("p");
        let x = r.phase("stage", true, |_| 41 + 1);
        assert_eq!(x, 42);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "stage");
        let y = r.phase("quiet", false, |_| 1);
        assert_eq!(y, 1);
        assert_eq!(r.phases.len(), 1, "uninstrumented phases are not recorded");
    }
}
