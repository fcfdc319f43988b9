//! `ri-testgen`: the adversarial workload vocabulary and the Sen-style
//! tail-concentration gates over the registry problems.
//!
//! The paper's round/depth bounds are *distributional* claims — Sen 2018
//! shows RIC work and depth concentrate with high probability over the
//! random insertion order, for **any** input instance. Hostile instances
//! (Devillers' degenerate regime: cocircular/collinear point sets,
//! organ-pipe arrival orders, deep-path digraphs, tangent-degenerate
//! LPs) are therefore exactly where the claim earns its keep: the input
//! is worst-case, the randomness is only in the order, and the tail of
//! the round/special/depth distribution must still sit within budget.
//!
//! This crate owns three things:
//!
//! * the **shape vocabulary** — which `WorkloadSpec` shape names each
//!   problem accepts, split benign vs hostile. The generators themselves
//!   live below the registries (ri-geometry, ri-graph, ri-sort, ri-lp),
//!   so every shape is reachable verbatim from the `{problem, workload,
//!   config}` envelope on every surface: CLI, `/solve`, router, stream;
//! * the **tail budgets** — per-(problem, shape) p99 ceilings on round
//!   count, special-iteration count, and dependence depth as functions
//!   of `n`, calibrated with ~2× headroom over measured p100 across
//!   seeds on the committed generators (a budget trip means a
//!   *distributional* regression, not an unlucky seed);
//! * the **sweep driver** — many seeds per (problem, shape), sequential
//!   vs parallel answer equality plus the tail samples, shared by the
//!   `tailgate` test suite and the `ri-testgen sweep` binary.

use ri_core::engine::registry::{Registry, WorkloadSpec};
use ri_core::engine::{RunConfig, RunReport};

/// Number of seeds the committed tail gates sweep per (problem, shape).
pub const TAILGATE_SEEDS: u64 = 32;

/// Instance size the committed tail gates sweep at.
pub const TAILGATE_N: usize = 192;

/// The per-problem shape vocabulary: every name the registry constructor
/// accepts, split into the benign families (the theorems' habitat) and
/// the hostile ones (degenerate/structured instances and adversarial
/// arrival orders).
#[derive(Debug, Clone, Copy)]
pub struct ShapeVocabulary {
    /// Registry problem name.
    pub problem: &'static str,
    /// The shape used when a spec omits one.
    pub default_shape: &'static str,
    /// Benign families.
    pub benign: &'static [&'static str],
    /// Hostile families (the tail gates sweep exactly these).
    pub hostile: &'static [&'static str],
}

/// The full vocabulary, one entry per registered problem.
pub const VOCABULARY: [ShapeVocabulary; 9] = [
    ShapeVocabulary {
        problem: "sort",
        default_shape: "random",
        benign: &["random"],
        hostile: &["nearly-sorted", "reverse", "organ-pipe", "few-distinct"],
    },
    ShapeVocabulary {
        problem: "sort-batch",
        default_shape: "random",
        benign: &["random"],
        hostile: &["nearly-sorted", "reverse", "organ-pipe", "few-distinct"],
    },
    ShapeVocabulary {
        problem: "delaunay",
        default_shape: "uniform-square",
        benign: &[
            "uniform-square",
            "uniform-disk",
            "near-circle",
            "jittered-grid",
        ],
        hostile: &["clusters", "cocircular", "collinear", "duplicate-heavy"],
    },
    ShapeVocabulary {
        problem: "closest-pair",
        default_shape: "uniform-square",
        benign: &[
            "uniform-square",
            "uniform-disk",
            "near-circle",
            "jittered-grid",
        ],
        hostile: &["clusters", "cocircular", "collinear", "duplicate-heavy"],
    },
    ShapeVocabulary {
        problem: "enclosing",
        default_shape: "uniform-disk",
        benign: &["uniform-disk", "uniform-square", "jittered-grid"],
        hostile: &[
            "near-circle",
            "cocircular",
            "clusters",
            "collinear",
            "duplicate-heavy",
        ],
    },
    ShapeVocabulary {
        problem: "lp",
        default_shape: "tangent",
        benign: &["tangent", "shrinking"],
        hostile: &["degenerate", "near-infeasible", "infeasible"],
    },
    ShapeVocabulary {
        problem: "lp-d",
        default_shape: "tangent",
        benign: &["tangent"],
        hostile: &["degenerate"],
    },
    ShapeVocabulary {
        problem: "le-lists",
        default_shape: "gnm-weighted",
        benign: &["gnm-weighted", "gnm", "grid"],
        hostile: &["rmat", "deep-path"],
    },
    ShapeVocabulary {
        problem: "scc",
        default_shape: "gnm",
        benign: &["gnm", "planted"],
        hostile: &["dag", "rmat", "deep-path", "grid"],
    },
];

/// The vocabulary entry for `problem`, if it is a registered problem.
pub fn vocabulary(problem: &str) -> Option<&'static ShapeVocabulary> {
    VOCABULARY.iter().find(|v| v.problem == problem)
}

/// Every shape name `problem` accepts, benign first.
pub fn all_shapes(problem: &str) -> Vec<&'static str> {
    vocabulary(problem)
        .map(|v| v.benign.iter().chain(v.hostile).copied().collect())
        .unwrap_or_default()
}

/// p99 ceilings for one (problem, shape, n): the tail gate asserts the
/// swept p99 of each metric stays at or below these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailBudget {
    /// Parallel round count (`report.rounds.rounds()`).
    pub rounds: usize,
    /// Special-iteration count (`report.specials.len()`), the Type 2
    /// dependence chain length.
    pub specials: usize,
    /// Reported dependence depth (`report.depth`).
    pub depth: usize,
}

/// The committed p99 budget for `(problem, shape)` at instance size `n`.
///
/// Shapes whose executors round-synchronize on the *random priority
/// order* (everything except the arrival-order `sort` shapes) get
/// O(log n)-form budgets — that is Sen's concentration claim, input-
/// independent. The adversarial `sort` arrival orders pin the insertion
/// order itself, so their dependence chains are genuinely Θ(n) and the
/// budget documents that worst case exactly; `sort-batch` runs the §2.3
/// doubling schedule whose *round count* stays logarithmic for every
/// order. Constants carry ~2× headroom over the measured across-seed
/// p100 on the committed generators.
pub fn tail_budget(problem: &str, shape: &str, n: usize) -> TailBudget {
    let lg = (n.max(2) as f64).log2();
    let logn = |c: f64, b: usize| (c * lg) as usize + b;
    match problem {
        "sort" => match shape {
            // Arrival order is the adversary's: depth is the longest
            // insertion chain, Θ(n) for these orders.
            "reverse" | "nearly-sorted" => TailBudget {
                rounds: n + 2,
                specials: 0,
                depth: n + 2,
            },
            "organ-pipe" => TailBudget {
                rounds: n / 2 + 16,
                specials: 0,
                depth: n / 2 + 16,
            },
            // ~8 value classes of ~n/8 arrival-ordered keys each.
            "few-distinct" => TailBudget {
                rounds: n / 4 + 32,
                specials: 0,
                depth: n / 4 + 32,
            },
            _ => TailBudget {
                rounds: logn(6.0, 8),
                specials: 0,
                depth: logn(6.0, 8),
            },
        },
        // The doubling schedule's round count is O(log n) for any order.
        "sort-batch" => TailBudget {
            rounds: logn(2.0, 6),
            specials: 0,
            depth: logn(2.0, 6),
        },
        "delaunay" => TailBudget {
            rounds: logn(8.0, 12),
            specials: 0,
            depth: logn(8.0, 12),
        },
        "closest-pair" => TailBudget {
            rounds: logn(2.0, 6),
            specials: logn(4.0, 8),
            depth: logn(5.0, 12),
        },
        "enclosing" => TailBudget {
            rounds: logn(2.0, 6),
            specials: logn(5.0, 10),
            depth: logn(6.0, 12),
        },
        // The `shrinking` family drives the longest special chains.
        "lp" => TailBudget {
            rounds: logn(2.0, 6),
            specials: logn(7.0, 12),
            depth: logn(8.0, 16),
        },
        "lp-d" => TailBudget {
            rounds: logn(2.0, 6),
            specials: logn(5.0, 10),
            depth: logn(6.0, 12),
        },
        "le-lists" | "scc" => TailBudget {
            rounds: logn(2.0, 6),
            specials: 0,
            depth: logn(2.0, 6),
        },
        _ => TailBudget {
            rounds: usize::MAX,
            specials: usize::MAX,
            depth: usize::MAX,
        },
    }
}

/// One seed's parallel-run tail metrics.
#[derive(Debug, Clone, Copy)]
pub struct TailSample {
    /// Workload seed of this run.
    pub seed: u64,
    /// Parallel round count.
    pub rounds: usize,
    /// Special-iteration count.
    pub specials: usize,
    /// Reported dependence depth.
    pub depth: usize,
}

impl TailSample {
    /// Extract the gated metrics from a parallel run's report.
    pub fn from_report(seed: u64, report: &RunReport) -> TailSample {
        TailSample {
            seed,
            rounds: report.rounds.rounds(),
            specials: report.specials.len(),
            depth: report.depth,
        }
    }
}

/// The result of sweeping one (problem, shape) across seeds.
#[derive(Debug, Clone)]
pub struct ShapeSweep {
    /// Registry problem name.
    pub problem: String,
    /// Shape name swept.
    pub shape: String,
    /// Instance size.
    pub n: usize,
    /// One sample per seed, from the parallel run.
    pub samples: Vec<TailSample>,
    /// Seeds whose sequential and parallel answers diverged (must stay
    /// empty: answers are mode-invariant by construction).
    pub mismatches: Vec<u64>,
}

impl ShapeSweep {
    fn p99_of(&self, metric: impl Fn(&TailSample) -> usize) -> usize {
        let mut xs: Vec<usize> = self.samples.iter().map(metric).collect();
        xs.sort_unstable();
        percentile(&xs, 0.99)
    }

    /// p99 round count across the swept seeds.
    pub fn p99_rounds(&self) -> usize {
        self.p99_of(|s| s.rounds)
    }

    /// p99 special-iteration count.
    pub fn p99_specials(&self) -> usize {
        self.p99_of(|s| s.specials)
    }

    /// p99 dependence depth.
    pub fn p99_depth(&self) -> usize {
        self.p99_of(|s| s.depth)
    }

    /// Check this sweep against `budget`: answer equality on every seed
    /// and every p99 within its ceiling. Returns every violation, so a
    /// gate failure names all regressed metrics at once.
    pub fn gate(&self, budget: &TailBudget) -> Result<(), Vec<String>> {
        let tag = format!("{}/{} n={}", self.problem, self.shape, self.n);
        let mut violations = Vec::new();
        if !self.mismatches.is_empty() {
            violations.push(format!(
                "{tag}: seq/par answers diverged at seeds {:?}",
                self.mismatches
            ));
        }
        for (name, got, cap) in [
            ("p99 rounds", self.p99_rounds(), budget.rounds),
            ("p99 specials", self.p99_specials(), budget.specials),
            ("p99 depth", self.p99_depth(), budget.depth),
        ] {
            if got > cap {
                violations.push(format!("{tag}: {name} {got} > budget {cap}"));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// The `q`-th percentile (0 ≤ q ≤ 1) of an ascending-sorted slice, by
/// the nearest-rank method; 0 for an empty slice.
pub fn percentile(sorted: &[usize], q: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sweep one (problem, shape): for each seed in `seeds`, solve the spec
/// sequentially and in parallel (each run's config seed varies with the
/// workload seed, so the random priority order is resampled), record the
/// parallel tail metrics, and compare the mode-invariant answer
/// sections. Errors if any construction or solve fails.
pub fn sweep_shape(
    reg: &Registry,
    problem: &str,
    shape: &str,
    n: usize,
    seeds: std::ops::Range<u64>,
    threads: usize,
) -> Result<ShapeSweep, String> {
    let mut samples = Vec::with_capacity(seeds.end.saturating_sub(seeds.start) as usize);
    let mut mismatches = Vec::new();
    for seed in seeds {
        let spec = WorkloadSpec::new(n, seed).shape(shape);
        let cseed = seed.wrapping_add(0x7a11);
        let seq_cfg = RunConfig::new().seed(cseed).sequential();
        let par_cfg = RunConfig::new().seed(cseed).parallel().threads(threads);
        let (seq, _) = reg
            .solve(problem, &spec, &seq_cfg)
            .map_err(|e| format!("{problem}/{shape} seed {seed} (seq): {e}"))?;
        let (par, report) = reg
            .solve(problem, &spec, &par_cfg)
            .map_err(|e| format!("{problem}/{shape} seed {seed} (par): {e}"))?;
        if seq.answer() != par.answer() {
            mismatches.push(seed);
        }
        samples.push(TailSample::from_report(seed, &report));
    }
    Ok(ShapeSweep {
        problem: problem.to_string(),
        shape: shape.to_string(),
        n,
        samples,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_well_formed() {
        for v in &VOCABULARY {
            assert!(
                v.benign.contains(&v.default_shape),
                "{}: default shape must be benign",
                v.problem
            );
            assert!(!v.hostile.is_empty(), "{}: no hostile shapes", v.problem);
            let mut all = all_shapes(v.problem);
            let total = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), total, "{}: duplicate shape name", v.problem);
        }
    }

    #[test]
    fn vocabulary_matches_the_registry() {
        let reg = parallel_ri::registry();
        let mut names = reg.names();
        names.sort_unstable();
        let mut ours: Vec<&str> = VOCABULARY.iter().map(|v| v.problem).collect();
        ours.sort_unstable();
        assert_eq!(names, ours, "vocabulary drifted from the registry");
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<usize> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.99), 99);
        assert_eq!(percentile(&xs, 1.0), 100);
        assert_eq!(percentile(&xs, 0.5), 50);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn budgets_are_finite_for_every_known_pair() {
        for v in &VOCABULARY {
            for shape in all_shapes(v.problem) {
                let b = tail_budget(v.problem, shape, TAILGATE_N);
                assert!(b.rounds < usize::MAX, "{}/{shape}", v.problem);
                assert!(b.depth < usize::MAX, "{}/{shape}", v.problem);
            }
        }
        assert_eq!(tail_budget("nope", "x", 64).rounds, usize::MAX);
    }

    #[test]
    fn sweep_detects_clean_runs() {
        let reg = parallel_ri::registry();
        let sweep = sweep_shape(&reg, "sort", "reverse", 64, 0..4, 2).unwrap();
        assert_eq!(sweep.samples.len(), 4);
        assert!(sweep.mismatches.is_empty());
        let budget = tail_budget("sort", "reverse", 64);
        sweep.gate(&budget).unwrap();
        // A zero budget must trip.
        let zero = TailBudget {
            rounds: 0,
            specials: 0,
            depth: 0,
        };
        assert!(sweep.gate(&zero).is_err());
    }
}
