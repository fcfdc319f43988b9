//! Registry entry: `"le-lists"` — Cohen's least-element lists over a
//! seeded random graph (§6.1, Type 3). Shapes: `"gnm-weighted"`
//! (default) and `"gnm"` with `param` as average out-degree (default
//! 4); `"grid"` (an unweighted 2-D grid of exactly `n` vertices, ids
//! scattered by the workload seed; `param` ignored); and the
//! adversarial `"rmat"` (skewed power-law degrees, symmetrized) and
//! `"deep-path"` (a long chain with shortcuts — the high-diameter
//! stress case for list lengths and search depth). The priority order
//! is drawn from the *run* config's seed.

use ri_core::engine::registry::{OutputSummary, Registry, WorkloadSpec};
use ri_core::engine::{Problem, RunConfig, RunReport};
use ri_graph::generators::degree_edges;
use ri_graph::CsrGraph;

use crate::LeListsProblem;

/// Register this crate's problem.
pub fn register(reg: &mut Registry) {
    reg.register(
        "le-lists",
        "Cohen's least-element lists on a random graph (§6.1, Type 3)",
        build_graph,
        solve,
    );
}

pub(crate) fn build_graph(spec: &WorkloadSpec) -> Result<CsrGraph, String> {
    // An Err (not a panic) below the minimum lets the streaming
    // fallback report small prefixes as pending rather than die.
    if spec.n < 2 {
        return Err("le-lists needs at least 2 vertices to place edges".into());
    }
    Ok(match spec.shape_or("gnm-weighted") {
        "gnm-weighted" => ri_graph::generators::gnm_weighted(
            spec.n,
            degree_edges(spec.n, spec.param_or(4.0))?,
            spec.seed,
            true,
        ),
        "gnm" => ri_graph::generators::gnm(
            spec.n,
            degree_edges(spec.n, spec.param_or(4.0))?,
            spec.seed,
            true,
        ),
        "grid" => ri_graph::generators::grid2d_n(spec.n, spec.seed),
        "rmat" => ri_graph::generators::rmat_n(
            spec.n,
            degree_edges(spec.n, spec.param_or(4.0))?,
            spec.seed,
            true,
        ),
        "deep-path" => {
            let m = degree_edges(spec.n, spec.param_or(4.0))?;
            ri_graph::generators::deep_path(spec.n, m.saturating_sub(spec.n - 1), spec.seed, true)
        }
        other => {
            return Err(format!(
                "unknown le-lists graph shape `{other}` (known: gnm-weighted, \
                 gnm, grid, rmat, deep-path)"
            ))
        }
    })
}

fn solve(g: &CsrGraph, cfg: &RunConfig) -> (OutputSummary, RunReport) {
    let (out, report) = LeListsProblem::new(g).solve(cfg);
    let mut s = OutputSummary::new();
    s.answer_num("vertices", g.num_vertices() as f64)
        .answer_num("total_entries", out.total_entries() as f64)
        .answer_num("max_list_len", out.max_list_len() as f64)
        .metric_num("visits", out.visits as f64)
        .metric_num("relaxations", out.relaxations as f64)
        .metric_num("redundant_entries", out.redundant_entries as f64);
    (s, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::WorkloadSpec;

    #[test]
    fn registered_name_solves_all_shapes() {
        let mut reg = Registry::new();
        register(&mut reg);
        for shape in ["gnm-weighted", "gnm", "grid", "rmat", "deep-path"] {
            let spec = WorkloadSpec::new(100, 3).shape(shape);
            let (summary, report) = reg
                .solve("le-lists", &spec, &RunConfig::new().seed(1))
                .unwrap();
            // Every shape must honor spec.n exactly (the old grid shape
            // silently built ceil(sqrt(n))² ≥ n vertices).
            assert!(
                summary.to_json().contains("\"vertices\":100"),
                "{shape}: {}",
                summary.to_json()
            );
            assert!(summary.to_json().contains("total_entries"), "{shape}");
            assert!(report.items > 0, "{shape}");
        }
        // The grid shape must honor the workload seed (the old one
        // ignored it entirely).
        let a = reg
            .solve(
                "le-lists",
                &WorkloadSpec::new(90, 1).shape("grid"),
                &RunConfig::new().seed(1),
            )
            .unwrap()
            .0;
        let b = reg
            .solve(
                "le-lists",
                &WorkloadSpec::new(90, 2).shape("grid"),
                &RunConfig::new().seed(1),
            )
            .unwrap()
            .0;
        assert_ne!(a.to_json(), b.to_json(), "grid ignores the workload seed");
        assert!(reg
            .construct("le-lists", &WorkloadSpec::new(100, 3).shape("sideways"))
            .is_err());
        assert!(reg
            .construct("le-lists", &WorkloadSpec::new(100, 3).param(-1.0))
            .is_err());
    }
}
