//! `ri report <claim>`: the paper's quantitative claims, one table each.
//!
//! Every claim builds its instances through [`parallel_ri::registry`]
//! wherever the registry makes the instance and the claim's numbers are in
//! the summary or the [`RunReport`]. A typed `*Problem` call remains only
//! where a claim prints a counter the summary does not carry (per-vertex
//! SCC visits, the batch sort's left-dependence histogram) or the registry
//! has no matching instance (the unscattered LE-list grid). Each table
//! ends with its shape check: what the paper predicts its columns show.

use crate::{par_cfg, seq_cfg};
use ri_core::engine::registry::MAX_N;
use ri_core::engine::{OutputSummary, Problem, Registry, RunConfig, RunReport, WorkloadSpec};
use ri_core::theory::{delaunay_incircle_bound, harmonic, log2_ceil, separating_dependence_bound};
use ri_geometry::PointDistribution;
use ri_graph::generators::{gnm, planted_sccs, random_dag, rmat};
use ri_graph::CsrGraph;
use ri_pram::random_permutation;

/// A claim's table, built from its one argument.
type Build = fn(&Registry, u64) -> Table;

/// `ri report`'s claims: name, the one optional argument, that argument's
/// default, and the table. Each table's doc says what it reproduces.
const CLAIMS: [(&str, &str, u64, Build); 8] = [
    ("table1", "log2_n", 14, table1),
    ("depth_scaling", "seeds", 5, depth_scaling),
    ("incircle_constant", "seeds", 5, incircle_constant),
    ("special_iterations", "seeds", 10, special_iterations),
    ("lelist_lengths", "seeds", 3, lelist_lengths),
    ("scc_visits", "seeds", 3, scc_visits),
    ("dependence_counts", "seeds", 5, dependence_counts),
    ("dependence_histogram", "log2_n", 16, dependence_histogram),
];

/// Each claim on a line with its argument and that argument's default.
fn listing() -> String {
    let line = |(name, arg, default, _): &(&str, &str, u64, Build)| {
        format!("{name:<21} [{arg}={default}]\n")
    };
    CLAIMS.iter().map(line).collect()
}

/// `ri report <claim> [arg] [--json]`: the claim's table, with its appendix
/// under `--json`; no claim, the listing. An absent or unparsable argument
/// takes the claim's default. A `log2_n` whose `2^log2_n` is above the
/// registry's [`MAX_N`] is an error before anything is built.
pub fn run(reg: &Registry, args: &[String]) -> Result<String, String> {
    let Some((claim, args)) = args.split_first() else {
        return Ok(listing());
    };
    let Some(&(_, param, default, build)) = CLAIMS.iter().find(|c| c.0 == claim) else {
        return Err(format!("unknown claim `{claim}`; claims:\n{}", listing()));
    };
    let arg = args.iter().find(|a| !a.starts_with("--"));
    let arg = arg.and_then(|s| s.parse().ok()).unwrap_or(default);
    if param == "log2_n" && arg > u64::from(MAX_N.ilog2()) {
        return Err(format!(
            "{claim}: n = 2^{arg} is above the ceiling of {MAX_N}"
        ));
    }
    let mut table = build(reg, arg);
    if !args.iter().any(|a| a == "--json") {
        table.appendix.clear();
    }
    Ok(table.render())
}

/// One claim's output: a titled table and the shape check under it.
struct Table {
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    footer: &'static str,
    /// Lines printed after the footer under `--json` (`table1`'s reports).
    appendix: Vec<String>,
}

impl Table {
    /// A table titled `title` with the ` | `-separated `columns`.
    fn new(title: String, columns: &'static str, footer: &'static str) -> Self {
        Table {
            title,
            columns: columns.split(" | ").collect(),
            rows: Vec::new(),
            footer,
            appendix: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "ragged row");
        self.rows.push(cells);
    }

    /// Title, header, rule, rows, footer, appendix. Each column is as wide
    /// as its widest cell: the first left-aligned, the rest right-aligned.
    fn render(&self) -> String {
        let width = |i: usize| {
            let cells = self.rows.iter().map(|r| r[i].chars().count());
            cells.fold(self.columns[i].chars().count(), usize::max)
        };
        let widths: Vec<usize> = (0..self.columns.len()).map(width).collect();
        let line = |cells: Vec<&str>| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(i, (c, &w))| match i {
                    0 => format!("{c:<w$}"),
                    _ => format!("{c:>w$}"),
                })
                .collect();
            padded.join("  ")
        };
        let header = line(self.columns.clone());
        let rule = "-".repeat(header.chars().count());
        let mut out = format!("{}\n\n{header}\n{rule}\n", self.title);
        for row in &self.rows {
            out += &line(row.iter().map(String::as_str).collect());
            out.push('\n');
        }
        out += &format!("\n{}\n", self.footer);
        if !self.appendix.is_empty() {
            out += &format!("\n{}\n", self.appendix.join("\n"));
        }
        out
    }
}

/// One column's per-seed samples.
#[derive(Default)]
struct Samples(Vec<f64>);

impl Samples {
    /// The mean, or `None` when no seed took a sample.
    fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }

    /// The largest sample, or `None` when no seed took one.
    fn max(&self) -> Option<f64> {
        self.0.iter().copied().reduce(f64::max)
    }
}

/// Geometric size sweep `2^lo ..= 2^hi`.
fn sizes(lo: u32, hi: u32) -> impl Iterator<Item = usize> {
    (lo..=hi).map(|k| 1usize << k)
}

/// The seed sweep: run `trial` for seeds `0..seeds` and keep each of its
/// `K` values in its own column (`None`: the trial took no sample there).
fn sweep<const K: usize>(
    seeds: u64,
    mut trial: impl FnMut(u64) -> [Option<f64>; K],
) -> [Samples; K] {
    let mut columns: [Samples; K] = std::array::from_fn(|_| Samples::default());
    for seed in 0..seeds {
        for (column, x) in columns.iter_mut().zip(trial(seed)) {
            column.0.extend(x);
        }
    }
    columns
}

/// `x` to `prec` decimals, or `-` when no sample was taken.
fn fixed(x: Option<f64>, prec: usize) -> String {
    x.map_or_else(|| "-".into(), |x| format!("{x:.prec$}"))
}

type Run = (OutputSummary, RunReport);

fn solve(reg: &Registry, name: &str, spec: &WorkloadSpec, cfg: &RunConfig) -> Run {
    reg.solve(name, spec, cfg)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A numeric summary field, answer or metric.
fn field(summary: &OutputSummary, key: &str) -> f64 {
    summary
        .answer()
        .iter()
        .chain(summary.metrics())
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or_else(|| panic!("summary has no numeric `{key}`"))
}

/// A sequential and a parallel run of one instance. The paper's executors
/// reproduce the sequential answer and special iterations exactly.
fn seq_par(reg: &Registry, name: &str, spec: &WorkloadSpec, cfg: RunConfig) -> [Run; 2] {
    let seq = solve(reg, name, spec, &cfg.clone().sequential());
    let par = solve(reg, name, spec, &cfg.parallel());
    assert_eq!(seq.0.answer(), par.0.answer(), "{name}: answers differ");
    assert_eq!(seq.1.specials, par.1.specials, "{name}: specials differ");
    [seq, par]
}

/// Lemma 3.1's sort-depth prediction: the random-BST height `c*·ln n`,
/// `c* ≈ 4.311`.
fn bst_height(n: usize) -> f64 {
    4.311 * (n as f64).ln()
}

/// How a `table1` row reads a run's work.
type Work = fn(&Run) -> u64;

/// Table 1: for each of the seven problems, the *work ratio* (parallel /
/// sequential work: 1 for Types 1–2, a constant for Type 3) and the
/// measured depth (rounds) against the theorem's prediction, and each
/// run's report as a JSON line in the appendix.
fn table1(reg: &Registry, log2n: u64) -> Table {
    let n = 1usize << log2n;
    let seed = 7u64;
    let hn = harmonic(n);
    let mut t = Table::new(
        format!("Table 1 reproduction, n = 2^{log2n} = {n} (seed {seed})"),
        "problem (type) | seq work | par work | ratio | measured depth | predicted",
        "Type 1: parallel work == sequential work exactly (identical calls,\n\
         reordered). Type 2: the special-iteration work is identical; the ratio\n\
         reflects the executor's prefix re-checks after each special — a\n\
         constant factor, still O(n) total. Type 3: the ratio is the paper's\n\
         'constant factor in expectation' redundancy. Depth column: executor\n\
         rounds — the machine-independent quantity the theorems bound\n\
         (wall-clock comparisons live in `cargo bench`).",
    );
    let spec = WorkloadSpec::new(n, seed);
    let specials = |k: f64| format!("specials ≤ {k}H_n = {:.1}", k * hn);
    let rounds = format!("⌈log₂ n⌉+1 = {}", log2_ceil(n) + 1);
    // (row, problem, workload, run seed, Type 1?, work, prediction). LE-lists
    // and SCC draw their processing orders from the run seed.
    let rows: [(_, _, _, _, _, Work, _); 7] = [
        (
            "sorting (1)",
            "sort",
            spec.clone(),
            seed,
            true,
            |r| field(&r.0, "comparisons") as u64,
            format!("4.311·ln n = {:.0}", bst_height(n)),
        ),
        (
            "delaunay (1, nested)",
            "delaunay",
            spec.clone(),
            seed,
            true,
            |r| field(&r.0, "incircle_tests") as u64,
            format!("O(log n), 24nlnn={:.1e}", delaunay_incircle_bound(n)),
        ),
        (
            "2d linear program (2)",
            "lp",
            spec.clone(),
            seed,
            false,
            |r| r.1.checks,
            specials(2.0),
        ),
        (
            "closest pair (2)",
            "closest-pair",
            spec.clone(),
            seed,
            false,
            |r| r.1.checks,
            specials(2.0),
        ),
        (
            "smallest disk (2)",
            "enclosing",
            spec.clone(),
            seed,
            false,
            |r| field(&r.0, "contains_tests") as u64,
            specials(3.0),
        ),
        (
            "le-lists (3)",
            "le-lists",
            spec.clone().param(8.0),
            seed ^ 1,
            false,
            |r| r.1.checks,
            rounds.clone(),
        ),
        (
            "scc (3)",
            "scc",
            spec,
            seed ^ 2,
            false,
            |r| r.1.checks,
            rounds,
        ),
    ];
    for (label, name, spec, run_seed, type1, work, predicted) in rows {
        let [seq, par] = seq_par(reg, name, &spec, RunConfig::new().seed(run_seed));
        if type1 {
            // Type 1 makes the sequential calls, reordered: equal work too.
            assert_eq!(seq.0, par.0, "{name}: Type 1 work differs");
        }
        let (seq_work, par_work) = (work(&seq), work(&par));
        t.row(vec![
            label.into(),
            seq_work.to_string(),
            par_work.to_string(),
            format!("{:.3}", par_work as f64 / seq_work.max(1) as f64),
            par.1.depth.to_string(),
            predicted,
        ]);
        t.appendix.extend([seq.1.to_json(), par.1.to_json()]);
    }
    t
}

/// Dependence-depth growth across n: Lemma 3.1 (BST sort), Theorem 4.3
/// (Delaunay), and the §3 remark that parallel-sort rounds equal the final
/// tree height. `depth / log₂ n` should approach a constant.
fn depth_scaling(reg: &Registry, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Dependence depth scaling ({seeds} seeds per size)"),
        "n | sort depth | /log2 n | sort==rounds | dt rounds | dt /log2 n | batch rnds",
        "Expected shapes: sort depth/log₂n → c*·ln2 ≈ 2.99 (random-BST height\n\
         constant c* ≈ 4.311 per ln n, approached slowly from below; Lemma 3.1\n\
         bounds it by σ·H_n); Delaunay rounds/log₂n → constant (Theorem 4.3);\n\
         batch (Type 3) rounds = ⌈log₂ n⌉ + 1 exactly.",
    );
    let par = par_cfg();
    for n in sizes(10, 16) {
        let log2n = (n as f64).log2();
        let mut rounds_equal_height = true;
        let [sort, dt, batch] = sweep(seeds, |seed| {
            let spec = WorkloadSpec::new(n, seed);
            let (out, report) = solve(reg, "sort", &spec, &par);
            rounds_equal_height &= report.depth as f64 == field(&out, "tree_depth");
            let batch = solve(reg, "sort-batch", &spec, &par).1.depth;
            // Delaunay is costlier: sample fewer sizes at the top end.
            let dt = (n <= 1 << 14).then(|| solve(reg, "delaunay", &spec, &par).1.depth as f64);
            [Some(report.depth as f64), dt, Some(batch as f64)]
        });
        t.row(vec![
            n.to_string(),
            fixed(sort.mean(), 1),
            fixed(sort.mean().map(|d| d / log2n), 2),
            if rounds_equal_height { "yes" } else { "NO" }.into(),
            fixed(dt.mean(), 1),
            fixed(dt.mean().map(|d| d / log2n), 2),
            fixed(batch.mean(), 1),
        ]);
    }
    t
}

/// Theorem 4.5's constant: expected InCircle tests for 2-D incremental
/// Delaunay are at most `24 n ln n + O(n)`, and `36 n ln n` without the
/// Fact 4.1 intersection optimization; measured as `tests / (n ln n)`.
fn incircle_constant(reg: &Registry, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Theorem 4.5: InCircle-test constant ({seeds} seeds per config)"),
        "distribution | n | incircle | /nlnn | w/o Fact4.1 | /nlnn | saved%",
        "Shape check: both constants are near-flat in n (the work really is\n\
         Θ(n log n); the slow drift is the O(n) lower-order term fading); the\n\
         Fact 4.1 savings (~20% of tests) are the measured counterpart of the\n\
         paper's 24-vs-36 accounting gap; every measurement sits well below\n\
         the worst-case 24 (the analysis charges 4 possible creators per\n\
         boundary edge — an over-count on average inputs).",
    );
    let seq = seq_cfg();
    for dist in [
        PointDistribution::UniformSquare,
        PointDistribution::UniformDisk,
        PointDistribution::Clusters(8),
        PointDistribution::NearCircle,
    ] {
        for n in sizes(11, 14) {
            let [with, without] = sweep(seeds, |seed| {
                let spec = WorkloadSpec::new(n, seed).shape(dist.name());
                let out = solve(reg, "delaunay", &spec, &seq).0;
                let m = field(&out, "points");
                let tests = field(&out, "incircle_tests");
                // `skipped_tests` are the tests Fact 4.1 avoided: the naive
                // merge (no intersection shortcut) would perform them.
                let naive = tests + field(&out, "skipped_tests");
                [tests, naive].map(|x| Some(x / (m * m.ln())))
            });
            let total = |c: f64| c * (n as f64) * (n as f64).ln();
            let (w, wo) = (with.mean(), without.mean());
            let saved = w.zip(wo).map(|(w, wo)| 100.0 * (wo - w) / wo);
            t.row(vec![
                dist.name().into(),
                n.to_string(),
                fixed(w.map(total), 0),
                fixed(w, 2),
                fixed(wo.map(total), 0),
                fixed(wo, 2),
                saved.map_or("-".into(), |s| format!("{s:.0}%")),
            ]);
        }
    }
    t
}

/// The Type 2 structure: special-iteration counts against their
/// backwards-analysis bounds (`2/j` for LP and closest pair, `3/j` for
/// SED, so `2H_n` / `3H_n` expected specials), and the executor's
/// sub-rounds per prefix (expected O(1), Theorem 2.2's proof).
fn special_iterations(reg: &Registry, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Type 2 special iterations ({seeds} seeds per size)"),
        "problem | n | specials | bound | max | sub-rnds/pfx | checks/n",
        "Shape checks: 'specials' tracks its H_n bound (column 'bound') within\n\
         sampling noise (per-run std is ≈ √(2 ln n) ≈ 4–5 here); sub-rounds\n\
         per prefix is a small constant (Theorem 2.2's O(1) expected\n\
         sub-rounds); total checks are O(n) (the 'checks/n' column is flat).",
    );
    let par = par_cfg();
    for n in sizes(10, 15) {
        let hn = harmonic(n);
        for (name, bound) in [("lp", 2.0), ("closest-pair", 2.0), ("enclosing", 3.0)] {
            // A Type 2 run's structure lives entirely in the report: the
            // specials trace, per-prefix sub-rounds, check work.
            let [specials, sub_rounds, checks] = sweep(seeds, |seed| {
                let report = solve(reg, name, &WorkloadSpec::new(n, seed), &par).1;
                [
                    report.specials.len() as f64,
                    report.total_sub_rounds() as f64 / report.sub_rounds.len() as f64,
                    report.checks as f64 / n as f64,
                ]
                .map(Some)
            });
            t.row(vec![
                name.into(),
                n.to_string(),
                fixed(specials.mean(), 1),
                format!("{:.1}", bound * hn),
                fixed(specials.max(), 0),
                fixed(sub_rounds.mean(), 2),
                fixed(checks.mean(), 2),
            ]);
        }
    }
    t
}

/// LE-list lengths and Type 3 work: Cohen's `O(log n)` whp list length
/// (average exactly `H_n` on strongly-reachable weighted graphs) and
/// Theorem 6.2's `O(W_SP log n)` work with constant-factor parallel
/// overhead, with the parallel combine's redundant entries per vertex.
fn lelist_lengths(reg: &Registry, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("LE-list lengths and work ({seeds} seeds per config)"),
        "graph | n | avg len | H_n | max | par visits | seq visits | ratio | redundant/vertex",
        "Shape checks: weighted graphs track H_n exactly (avg) with an O(log n)\n\
         max; the parallel/sequential visit ratio is a small constant — the\n\
         Type 3 'extra work' of Theorem 2.6 — so the redundant entries per\n\
         vertex grow only as the lists do, at about a third of H_n. Unweighted\n\
         grids truncate lists by integer distance ties (the paper assumes\n\
         distinct distances).",
    );
    for n in sizes(11, 14) {
        for (name, degree) in [("gnm-w deg4", 4.0), ("gnm-w deg16", 16.0)] {
            let [avg_len, max_len, par_visits, seq_visits, redundant] = sweep(seeds, |seed| {
                let spec = WorkloadSpec::new(n, seed).param(degree);
                let cfg = RunConfig::new().seed(seed ^ 0x1e).instrument(false);
                let [seq, par] = seq_par(reg, "le-lists", &spec, cfg);
                [
                    field(&par.0, "total_entries") / n as f64,
                    field(&par.0, "max_list_len"),
                    field(&par.0, "visits"),
                    field(&seq.0, "visits"),
                    field(&par.0, "redundant_entries") / n as f64,
                ]
                .map(Some)
            });
            let (pv, sv) = (par_visits.mean(), seq_visits.mean());
            t.row(vec![
                name.into(),
                n.to_string(),
                fixed(avg_len.mean(), 2),
                format!("{:.2}", harmonic(n)),
                fixed(max_len.max(), 0),
                fixed(pv, 0),
                fixed(sv, 0),
                fixed(pv.zip(sv).map(|(p, s)| p / s), 2),
                fixed(redundant.mean(), 2),
            ]);
        }
        // High-diameter grid (unweighted): lists truncate at diameter. The
        // registry's grid scatters vertex ids, so this one is built here.
        let g = ri_graph::generators::grid2d((n as f64).sqrt() as usize);
        let nn = g.num_vertices();
        let problem = ri_le_lists::LeListsProblem::new(&g).with_order(random_permutation(nn, 5));
        let (seq, _) = problem.solve(&seq_cfg());
        let (par, _) = problem.solve(&par_cfg());
        assert_eq!(seq.lists, par.lists, "parallel must equal sequential");
        t.row(vec![
            "grid (unw.)".into(),
            nn.to_string(),
            format!("{:.2}", par.total_entries() as f64 / nn as f64),
            format!("{:.2}", harmonic(nn)),
            par.max_list_len().to_string(),
            par.visits.to_string(),
            seq.visits.to_string(),
            format!("{:.2}", par.visits as f64 / seq.visits.max(1) as f64),
            format!("{:.2}", par.redundant_entries as f64 / nn as f64),
        ]);
    }
    t
}

/// Theorem 6.4's per-vertex visit bound: every vertex is visited by
/// `O(log n)` reachability searches whp, across graph families with very
/// different SCC structure. Typed: the summary carries the maximum visits
/// per vertex but not their mean.
fn scc_visits(_: &Registry, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("SCC visit bounds ({seeds} seeds per config)"),
        "graph | n | log2 n | avg v/v | max v/v | queries | par/seq wk | rounds",
        "Shape checks: max visits/vertex stays within a small multiple of\n\
         log₂ n on every family (Theorem 6.4 whp bound; Lemma 2.3 gives 2H_n\n\
         expected); the parallel/sequential work ratio is the constant-factor\n\
         Type 3 overhead; rounds = ⌈log₂ n⌉ + 1 by construction.",
    );
    type Family = (&'static str, fn(usize, u64) -> CsrGraph);
    let families: [Family; 5] = [
        ("gnm sparse", |n, s| gnm(n, 2 * n, s, false)),
        ("gnm dense", |n, s| gnm(n, 8 * n, s, false)),
        ("dag", |n, s| random_dag(n, 4 * n, s)),
        ("rmat", |n, s| rmat(n.ilog2(), 8 * n, s)),
        ("planted64", |n, s| {
            planted_sccs(&[n / 64; 64], 2 * n, n, s).0
        }),
    ];
    for n in sizes(11, 14) {
        for (name, make) in families {
            let [avg_vv, max_vv, queries, ratio, rounds] = sweep(seeds, |seed| {
                let g = make(n, seed);
                let nn = g.num_vertices();
                // Salt the order independently of the generators' internal
                // seeds (`planted_sccs` scatters ids with `seed ^ 0x5cc`;
                // reusing that expression here would make the insertion
                // order process each planted SCC as a contiguous block —
                // the Type 3 worst case, not a random order).
                let order = random_permutation(nn, seed.wrapping_mul(0x9e37_79b9).wrapping_add(71));
                let problem = ri_scc::SccProblem::new(&g).with_order(order);
                let (seq, seq_report) = problem.solve(&seq_cfg());
                let (par, par_report) = problem.solve(&par_cfg());
                assert_eq!(
                    ri_scc::canonical_labels(&seq.comp),
                    ri_scc::canonical_labels(&par.comp)
                );
                let visits: f64 = par.visits_per_vertex.iter().map(|&x| x as f64).sum();
                [
                    visits / nn as f64,
                    par.max_visits_per_vertex() as f64,
                    par.queries as f64,
                    // `checks` is the run's visits + relaxations work.
                    par_report.checks as f64 / seq_report.checks.max(1) as f64,
                    par_report.depth as f64,
                ]
                .map(Some)
            });
            t.row(vec![
                name.into(),
                n.to_string(),
                format!("{:.0}", (n as f64).log2()),
                fixed(avg_vv.mean(), 2),
                fixed(max_vv.max(), 0),
                fixed(queries.mean(), 0),
                fixed(ratio.mean(), 2),
                fixed(rounds.max(), 0),
            ]);
        }
    }
    t
}

/// Corollary 2.4: with separating dependences, a randomized incremental
/// algorithm has `≤ 2 n ln n` expected dependences — comparisons for BST
/// sorting, visits for LE-lists.
fn dependence_counts(reg: &Registry, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Corollary 2.4: dependence counts vs 2 n ln n ({seeds} seeds)"),
        "n | sort comps | /2nlnn | le visits | /2nlnn | 2nlnn",
        "Shape checks: both ratios stay below 1 and converge (sort comparisons\n\
         approach the bound from below — the expectation is 2(n+1)H_n − 4n ≈\n\
         2 n ln n; LE-list visits equal total list entries ≈ n·H_n = n ln n,\n\
         half the bound, since each visit is one dependence endpoint).",
    );
    let seq = seq_cfg();
    for n in sizes(10, 16) {
        let bound = separating_dependence_bound(n);
        let [comps, visits] = sweep(seeds, |seed| {
            let spec = WorkloadSpec::new(n, seed);
            let comps = field(&solve(reg, "sort", &spec, &seq).0, "comparisons");
            // LE-lists is costlier: sample fewer sizes at the top end.
            let visits = (n <= 1 << 14).then(|| {
                let (spec, cfg) = (spec.param(8.0), seq.clone().seed(seed ^ 3));
                field(&solve(reg, "le-lists", &spec, &cfg).0, "visits")
            });
            [Some(comps), visits]
        });
        let (comps, visits) = (comps.mean(), visits.mean());
        t.row(vec![
            n.to_string(),
            fixed(comps, 0),
            fixed(comps.map(|c| c / bound), 3),
            fixed(visits, 0),
            fixed(visits.map(|v| v / bound), 3),
            format!("{bound:.0}"),
        ]);
    }
    t
}

/// Lemma 2.5: in a Type 3 round execution, the probability that `l`
/// iterations of one round have a left dependence to a given later
/// iteration is at most `2^{-l}`. Typed: the batched BST sort's histogram
/// is not in its summary.
fn dependence_histogram(_: &Registry, log2n: u64) -> Table {
    let n = 1usize << log2n;
    let seeds = 5u64;
    let par = par_cfg();
    let mut hist: Vec<u64> = Vec::new();
    for seed in 0..seeds {
        let keys = random_permutation(n, seed);
        let (out, _) = ri_sort::BatchSortProblem::new(&keys).solve(&par);
        let counts = out.left_dep_histogram();
        hist.resize(hist.len().max(counts.len()), 0);
        for (h, c) in hist.iter_mut().zip(&counts) {
            *h += c;
        }
    }
    let total: u64 = hist.iter().sum();
    let mut t = Table::new(
        format!(
            "Lemma 2.5: left dependences from one round to one iteration\n\
             (batched BST sort, n = 2^{log2n}, {seeds} seeds, {total} samples)"
        ),
        "l | count | P[≥ l] | 2^-l bound | ratio",
        "Shape check: the measured survival probability P[≥ l] stays below\n\
         the 2^{-l} bound for every l ≥ 1 (ratio < 1), with at least\n\
         geometric decay — Lemma 2.5's claim. (l = 0 rows dominate: most\n\
         (iteration, round) pairs contribute no dependence at all.)",
    );
    // The lemma bounds the tail P[l deps] ≤ 2^{-l}; report survival
    // probabilities, which make the geometric decay obvious.
    let mut tail = total;
    for (l, &count) in hist.iter().enumerate() {
        let p_ge = tail as f64 / total as f64;
        let bound = 2f64.powi(-(l as i32));
        t.row(vec![
            l.to_string(),
            count.to_string(),
            format!("{p_ge:.3e}"),
            format!("{bound:.3e}"),
            format!("{:.3}", p_ge / bound),
        ]);
        tail -= count;
        if tail == 0 {
            break;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallel_ri::registry;

    #[test]
    fn sort_prediction_is_the_random_bst_height() {
        // c*·ln n with c* ≈ 4.311: 30 at n = 2^10, where the measured
        // depth is 22 — not 4.3·log₂ n = 43.
        assert_eq!(format!("{:.0}", bst_height(1 << 10)), "30");
        // Per log₂ n the constant is c*·ln 2 ≈ 2.99 (depth_scaling's footer).
        assert_eq!(format!("{:.2}", bst_height(1 << 20) / 20.0), "2.99");
    }

    #[test]
    fn cells_without_samples_print_a_dash() {
        let [taken, skipped] = sweep(3, |seed| [Some(seed as f64), None]);
        assert_eq!(fixed(taken.mean(), 1), "1.0");
        assert_eq!(fixed(taken.max(), 0), "2");
        // Both the mean and the ratio beside it: no `0.0`, no `NaN`.
        assert_eq!(fixed(skipped.mean(), 1), "-");
        assert_eq!(fixed(skipped.mean().map(|x| x / 2.0), 3), "-");
        assert_eq!(fixed(skipped.max(), 0), "-");
    }

    #[test]
    fn tables_align_columns_to_their_widest_cell() {
        let mut t = Table::new("title".into(), "name | n", "footer");
        t.row(vec!["a".into(), "1024".into()]);
        t.row(vec!["longer".into(), "8".into()]);
        let rows = "name       n\n------------\na       1024\nlonger     8\n";
        assert_eq!(t.render(), format!("title\n\n{rows}\nfooter\n"));
    }

    #[test]
    fn sizes_sweep() {
        assert_eq!(sizes(3, 5).collect::<Vec<_>>(), vec![8, 16, 32]);
    }

    #[test]
    fn every_listed_claim_runs_and_unknown_ones_are_errors() {
        let reg = registry();
        let listing = run(&reg, &[]).unwrap();
        let err = run(&reg, &["table2".into()]).unwrap_err();
        assert!(err.ends_with(&listing), "{err}");
        for (claim, arg, default, _) in CLAIMS {
            assert!(listing.contains(&format!("{claim:<21} [{arg}={default}]")));
            // Sized claims run at n = 2^6; seeded ones with no seeds.
            let arg = if arg == "log2_n" { "6" } else { "0" };
            let table = run(&reg, &[claim.into(), arg.into()]).unwrap();
            assert!(table.contains("\n---"), "{claim}: {table}");
        }
    }

    #[test]
    fn sizes_above_the_registry_ceiling_are_errors_before_anything_is_built() {
        // Both return before their claim builds an instance: a 2^40-key
        // permutation would abort the test on its allocation.
        let reg = registry();
        for (claim, log2_n) in [("table1", 25), ("dependence_histogram", 40)] {
            let err = run(&reg, &[claim.into(), log2_n.to_string()]).unwrap_err();
            let want = format!("{claim}: n = 2^{log2_n} is above the ceiling of {MAX_N}");
            assert_eq!(err, want);
        }
    }

    #[test]
    fn table1_json_adds_one_report_per_run() {
        let args = ["table1".into(), "6".into(), "--json".into()];
        let table1 = run(&registry(), &args).unwrap();
        assert!(table1.contains("n = 2^6 = 64 (seed 7)"));
        assert!(table1.contains(&format!("4.311·ln n = {:.0}", bst_height(64))));
        assert_eq!(table1.lines().filter(|l| l.starts_with('{')).count(), 14);
        let plain = run(&registry(), &args[..2]).unwrap();
        assert!(!plain.contains('{'), "{plain}");
    }
}
