//! # Deterministic fault injection
//!
//! A [`FaultPlan`] is a seeded schedule of per-request faults for the
//! serving tier: added latency, stalled response writes, connection
//! drops mid-response, spurious retryable 503s, and crash-after-N
//! requests. The fault (if any) for request `i` is chosen by a
//! splitmix64 draw keyed on `(seed, i)` — **no global RNG state** — so
//! the schedule is a pure function of the plan: the same seed always
//! injects the same fault at the same request index, independent of
//! thread interleaving, pool width, or wall-clock time. That is what
//! makes a chaos soak replayable: a failing run names a `(spec, index)`
//! pair that reproduces the exact fault.
//!
//! The plan is parsed from a compact spec string (the `--chaos` flag
//! and the `POST /admin/chaos` body both carry one):
//!
//! ```text
//! seed=42,latency=0.3:25,stall=0.1:150,drop=0.1,error=0.2,crash-after=500
//! ```
//!
//! * `seed=S` — schedule seed (default 0).
//! * `latency=P:MS` — with probability `P`, sleep `MS` before serving.
//! * `stall=P:MS` — with probability `P`, write the response head, hold
//!   the body for `MS`, then complete (a stalled read from the client's
//!   point of view).
//! * `drop=P` — with probability `P`, write a truncated response body
//!   and sever the connection (a mid-response drop).
//! * `error=P` — with probability `P`, answer a spurious `503` marked
//!   `retryable` without executing the request.
//! * `crash-after=N` — serve `N` requests normally (modulo the faults
//!   above), then go dark: every later request — and the whole shard —
//!   behaves as a crashed process.
//!
//! Probabilities are cumulative slices of one uniform draw per request
//! (at most one fault fires per request), so they must sum to ≤ 1.

use std::fmt;

use super::json::Value;

/// Request header carrying the remaining end-to-end deadline budget in
/// milliseconds. Set at router ingress, decremented per hop and per
/// retry; a shard clamps its own queue deadline to it.
pub const DEADLINE_HEADER: &str = "x-ri-deadline-ms";

/// Response header carrying a millisecond-precision retry hint
/// alongside the coarse (whole-second) `Retry-After`. Emitted on `503`
/// from actual queue pressure; honored by the router's backoff and by
/// `loadgen`.
pub const RETRY_AFTER_MS_HEADER: &str = "x-ri-retry-after-ms";

/// One injected fault, chosen for a single request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep before serving the request.
    Latency {
        /// Injected delay in milliseconds.
        ms: u64,
    },
    /// Write the response head, hold the body, then complete the write.
    Stall {
        /// Mid-write hold in milliseconds.
        ms: u64,
    },
    /// Write a truncated response body, then sever the connection.
    DropMidResponse,
    /// Answer a spurious retryable `503` without executing.
    Err503,
    /// The shard has passed its `crash-after` budget: drop the
    /// connection without a byte and refuse all further work.
    Crash,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Latency { ms } => write!(f, "latency:{ms}"),
            FaultKind::Stall { ms } => write!(f, "stall:{ms}"),
            FaultKind::DropMidResponse => write!(f, "drop"),
            FaultKind::Err503 => write!(f, "error"),
            FaultKind::Crash => write!(f, "crash"),
        }
    }
}

/// A seeded per-request fault schedule. See the module docs for the
/// spec grammar. The plan itself is immutable; the request counter
/// lives with the server that applies it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Schedule seed: same seed ⇒ same fault at every request index.
    pub seed: u64,
    /// `latency=P:MS` — probability and injected delay.
    pub latency: Option<(f64, u64)>,
    /// `stall=P:MS` — probability and mid-write hold.
    pub stall: Option<(f64, u64)>,
    /// `drop=P` — probability of a mid-response connection drop.
    pub drop: f64,
    /// `error=P` — probability of a spurious retryable 503.
    pub error: f64,
    /// `crash-after=N` — requests served before the shard goes dark.
    pub crash_after: Option<u64>,
}

impl FaultPlan {
    /// Parse a spec string (see module docs). `""`, `"off"`, and
    /// `"none"` parse to `Ok(None)` — they clear an active plan.
    pub fn parse(spec: &str) -> Result<Option<FaultPlan>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" || spec == "none" {
            return Ok(None);
        }
        let mut plan = FaultPlan {
            seed: 0,
            latency: None,
            stall: None,
            drop: 0.0,
            error: 0.0,
            crash_after: None,
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: `{part}` is not key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("chaos spec: bad seed `{value}`"))?;
                }
                "latency" => plan.latency = Some(parse_prob_ms("latency", value)?),
                "stall" => plan.stall = Some(parse_prob_ms("stall", value)?),
                "drop" => plan.drop = parse_prob("drop", value)?,
                "error" => plan.error = parse_prob("error", value)?,
                "crash-after" => {
                    plan.crash_after = Some(
                        value
                            .trim()
                            .parse::<u64>()
                            .map_err(|_| format!("chaos spec: bad crash-after `{value}`"))?,
                    );
                }
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        let total = plan.latency.map_or(0.0, |(p, _)| p)
            + plan.stall.map_or(0.0, |(p, _)| p)
            + plan.drop
            + plan.error;
        if total > 1.0 + 1e-9 {
            return Err(format!(
                "chaos spec: fault probabilities sum to {total:.3} > 1"
            ));
        }
        Ok(Some(plan))
    }

    /// The fault injected at request `index` (0-based arrival order at
    /// the shard), or `None` for a clean request. Pure: depends only on
    /// `(self, index)`.
    pub fn fault_for(&self, index: u64) -> Option<FaultKind> {
        if let Some(n) = self.crash_after {
            if index >= n {
                return Some(FaultKind::Crash);
            }
        }
        let u = unit(splitmix64(self.seed ^ splitmix64(index.wrapping_add(1))));
        let mut edge = 0.0;
        if let Some((p, ms)) = self.latency {
            edge += p;
            if u < edge {
                return Some(FaultKind::Latency { ms });
            }
        }
        if let Some((p, ms)) = self.stall {
            edge += p;
            if u < edge {
                return Some(FaultKind::Stall { ms });
            }
        }
        edge += self.drop;
        if u < edge {
            return Some(FaultKind::DropMidResponse);
        }
        edge += self.error;
        if u < edge {
            return Some(FaultKind::Err503);
        }
        None
    }

    /// The canonical spec string — `parse(plan.spec())` round-trips.
    pub fn spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if let Some((p, ms)) = self.latency {
            parts.push(format!("latency={p}:{ms}"));
        }
        if let Some((p, ms)) = self.stall {
            parts.push(format!("stall={p}:{ms}"));
        }
        if self.drop > 0.0 {
            parts.push(format!("drop={}", self.drop));
        }
        if self.error > 0.0 {
            parts.push(format!("error={}", self.error));
        }
        if let Some(n) = self.crash_after {
            parts.push(format!("crash-after={n}"));
        }
        parts.join(",")
    }

    /// The plan as a JSON document (the `/admin/chaos` echo and the
    /// `/healthz` `chaos.plan` member).
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("spec".into(), Value::Str(self.spec())),
            ("seed".into(), Value::Num(self.seed as f64)),
        ];
        if let Some((p, ms)) = self.latency {
            members.push(("latency_p".into(), Value::Num(p)));
            members.push(("latency_ms".into(), Value::Num(ms as f64)));
        }
        if let Some((p, ms)) = self.stall {
            members.push(("stall_p".into(), Value::Num(p)));
            members.push(("stall_ms".into(), Value::Num(ms as f64)));
        }
        if self.drop > 0.0 {
            members.push(("drop_p".into(), Value::Num(self.drop)));
        }
        if self.error > 0.0 {
            members.push(("error_p".into(), Value::Num(self.error)));
        }
        if let Some(n) = self.crash_after {
            members.push(("crash_after".into(), Value::Num(n as f64)));
        }
        Value::Obj(members)
    }
}

fn parse_prob(key: &str, value: &str) -> Result<f64, String> {
    let p = value
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("chaos spec: bad {key} probability `{value}`"))?;
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(format!("chaos spec: {key} probability {p} not in [0, 1]"));
    }
    Ok(p)
}

fn parse_prob_ms(key: &str, value: &str) -> Result<(f64, u64), String> {
    let (p, ms) = value
        .split_once(':')
        .ok_or_else(|| format!("chaos spec: {key} wants P:MS, got `{value}`"))?;
    let ms = ms
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("chaos spec: bad {key} milliseconds `{ms}`"))?;
    Ok((parse_prob(key, p)?, ms))
}

/// splitmix64: the standard 64-bit finalizer-style mixer. Good enough
/// as a stateless per-index RNG and already the hashing idiom used by
/// the router ring.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a mixed word onto [0, 1) with 53 bits of precision.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic backoff jitter for retry attempt `attempt` of the
/// request identified by `key_hash`: a value in `[0, span)` that is a
/// pure function of its inputs, so a replayed run backs off by the
/// same amounts. Shared by the router's retry loop and `loadgen`.
pub fn backoff_jitter_ms(key_hash: u64, attempt: u32, span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    splitmix64(key_hash ^ splitmix64(attempt as u64)) % span
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` entries of `plan`'s fault schedule.
    fn schedule(plan: &FaultPlan, n: u64) -> Vec<Option<FaultKind>> {
        (0..n).map(|i| plan.fault_for(i)).collect()
    }

    #[test]
    fn empty_and_off_clear() {
        assert_eq!(FaultPlan::parse("").unwrap(), None);
        assert_eq!(FaultPlan::parse("off").unwrap(), None);
        assert_eq!(FaultPlan::parse(" none ").unwrap(), None);
    }

    #[test]
    fn parse_full_spec_round_trips() {
        let plan = FaultPlan::parse(
            "seed=42,latency=0.3:25,stall=0.1:150,drop=0.1,error=0.2,crash-after=500",
        )
        .unwrap()
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.latency, Some((0.3, 25)));
        assert_eq!(plan.stall, Some((0.1, 150)));
        assert_eq!(plan.drop, 0.1);
        assert_eq!(plan.error, 0.2);
        assert_eq!(plan.crash_after, Some(500));
        let again = FaultPlan::parse(&plan.spec()).unwrap().unwrap();
        assert_eq!(again, plan);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("latency=0.5").is_err()); // wants P:MS
        assert!(FaultPlan::parse("drop=1.5").is_err()); // p > 1
        assert!(FaultPlan::parse("drop=-0.1").is_err());
        assert!(FaultPlan::parse("drop=nan").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("seed").is_err()); // not key=value
        assert!(FaultPlan::parse("drop=0.6,error=0.6").is_err()); // sum > 1
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::parse("seed=7,latency=0.2:10,drop=0.2,error=0.2")
            .unwrap()
            .unwrap();
        let b = FaultPlan::parse("seed=7,latency=0.2:10,drop=0.2,error=0.2")
            .unwrap()
            .unwrap();
        assert_eq!(schedule(&a, 4096), schedule(&b, 4096));
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = FaultPlan::parse("seed=1,drop=0.5").unwrap().unwrap();
        let b = FaultPlan::parse("seed=2,drop=0.5").unwrap().unwrap();
        assert_ne!(schedule(&a, 4096), schedule(&b, 4096));
    }

    #[test]
    fn probabilities_land_near_their_slices() {
        let plan = FaultPlan::parse("seed=9,latency=0.25:5,drop=0.25,error=0.25")
            .unwrap()
            .unwrap();
        let sched = schedule(&plan, 8192);
        let count = |want: fn(&FaultKind) -> bool| {
            sched
                .iter()
                .filter(|f| f.as_ref().is_some_and(want))
                .count() as f64
                / 8192.0
        };
        let latency = count(|f| matches!(f, FaultKind::Latency { .. }));
        let drop = count(|f| matches!(f, FaultKind::DropMidResponse));
        let error = count(|f| matches!(f, FaultKind::Err503));
        for observed in [latency, drop, error] {
            assert!(
                (observed - 0.25).abs() < 0.03,
                "slice off: {observed} vs 0.25"
            );
        }
    }

    #[test]
    fn crash_after_dominates_past_budget() {
        let plan = FaultPlan::parse("seed=3,drop=0.9,crash-after=10")
            .unwrap()
            .unwrap();
        for i in 0..10 {
            assert_ne!(plan.fault_for(i), Some(FaultKind::Crash));
        }
        for i in 10..100 {
            assert_eq!(plan.fault_for(i), Some(FaultKind::Crash));
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for attempt in 0..8 {
            let a = backoff_jitter_ms(0xdead_beef, attempt, 100);
            let b = backoff_jitter_ms(0xdead_beef, attempt, 100);
            assert_eq!(a, b);
            assert!(a < 100);
        }
        assert_eq!(backoff_jitter_ms(1, 1, 0), 0);
        assert_ne!(
            backoff_jitter_ms(1, 1, 1 << 30),
            backoff_jitter_ms(2, 1, 1 << 30)
        );
    }

    #[test]
    fn to_value_names_the_active_faults() {
        let plan = FaultPlan::parse("seed=5,error=0.5,crash-after=3")
            .unwrap()
            .unwrap();
        let v = plan.to_value();
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(5));
        assert_eq!(v.get("error_p").and_then(|s| s.as_f64()), Some(0.5));
        assert_eq!(v.get("crash_after").and_then(|s| s.as_u64()), Some(3));
        assert!(v.get("latency_p").is_none());
    }
}
