//! Registry entry: `"scc"` — incremental strongly connected components
//! over a seeded random digraph (§6.2, Type 3). Shapes: `"gnm"`
//! (default), `"dag"`, `"rmat"` (skewed power-law degrees, exactly `n`
//! vertices), `"planted"` (planted SCCs of >= 8 vertices each, up to 64
//! of them, sizes summing to n), plus the adversarial `"deep-path"` (a
//! hidden-order spine with shortcuts and giant back-edge cycles — the
//! worst case for reachability-based partitioning) and `"grid"` (a
//! bidirected high-diameter grid), with `param` as average out-degree
//! (default 4). The processing order is drawn from the *run* config's
//! seed. Every shape honors `spec.n` exactly, which the streaming
//! adapter's vertex-prefix reveal relies on.
//!
//! The native streaming adapter fixes the full digraph at open and
//! reveals its **vertex prefix**: each batch solves the subgraph induced
//! by the first `cumulative` vertices (edges with both endpoints inside
//! the prefix), reporting the updated component membership as the delta.

use ri_core::engine::json::Value;
use ri_core::engine::registry::{
    OutputSummary, PrefixSolution, PrefixStream, Registry, WorkloadSpec,
};
use ri_core::engine::{Problem, RunConfig, RunReport};
use ri_graph::generators::degree_edges;
use ri_graph::CsrGraph;
use ri_pram::hash::checksum_u32s;

use crate::{canonical_labels, SccProblem};

/// Build the full workload digraph from `spec`: the shared path of the
/// one-shot constructor and the streaming adapter's open.
pub(crate) fn build_graph(spec: &WorkloadSpec) -> Result<CsrGraph, String> {
    if spec.n == 0 {
        return Err("scc needs at least 1 vertex".into());
    }
    let m = degree_edges(spec.n, spec.param_or(4.0))?;
    let g = match spec.shape_or("gnm") {
        "gnm" => ri_graph::generators::gnm(spec.n, m, spec.seed, false),
        "dag" => ri_graph::generators::random_dag(spec.n, m, spec.seed),
        // rmat_n, not rmat: the raw generator rounds n up to a power of
        // two, which would let the streamed vertex prefix stop short of
        // the full graph (capacity is spec.n).
        "rmat" => {
            if spec.n < 2 {
                return Err("scc rmat needs at least 2 vertices".into());
            }
            ri_graph::generators::rmat_n(spec.n, m, spec.seed, false)
        }
        "deep-path" => {
            if spec.n < 2 {
                return Err("scc deep-path needs at least 2 vertices".into());
            }
            ri_graph::generators::deep_path(spec.n, m.saturating_sub(spec.n - 1), spec.seed, false)
        }
        "grid" => ri_graph::generators::grid2d_n(spec.n, spec.seed),
        "planted" => {
            // Plant SCCs of >= 8 vertices (up to 64 of them) and
            // spread the remainder so the sizes sum to exactly n —
            // a planted shape must actually contain cycles.
            let parts = (spec.n / 8).clamp(1, 64);
            let (base, extra) = (spec.n / parts, spec.n % parts);
            let sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < extra)).collect();
            ri_graph::generators::planted_sccs(&sizes, m / 2, m / 2, spec.seed).0
        }
        other => {
            return Err(format!(
                "unknown scc graph shape `{other}` (known: gnm, dag, rmat, \
                 planted, deep-path, grid)"
            ))
        }
    };
    Ok(g)
}

/// Register this crate's problem.
pub fn register(reg: &mut Registry) {
    reg.register(
        "scc",
        "incremental strongly connected components of a random digraph (§6.2, Type 3)",
        build_graph,
        |g, cfg| {
            let (s, report, _) = summarize(g, cfg);
            (s, report)
        },
    );
    reg.register_incremental("scc", |spec| {
        let g = build_graph(spec)?;
        let mut edges = Vec::with_capacity(g.num_edges());
        for u in 0..g.num_vertices() as u32 {
            for &v in g.neighbors(u) {
                edges.push((u, v));
            }
        }
        Ok(SccStream {
            g,
            edges,
            labels: Vec::new(),
        })
    });
}

fn summarize(g: &CsrGraph, cfg: &RunConfig) -> (OutputSummary, RunReport, Vec<u32>) {
    let (out, report) = SccProblem::new(g).solve(cfg);
    let mut s = OutputSummary::new();
    s.answer_num("vertices", g.num_vertices() as f64)
        .answer_num("components", out.num_components() as f64)
        .metric_num("queries", out.queries as f64)
        .metric_num("max_visits_per_vertex", out.max_visits_per_vertex() as f64);
    let labels = canonical_labels(&out.comp);
    (s, report, labels)
}

/// The native streaming adapter. Each batch solves the subgraph induced
/// by the revealed vertex prefix; at full capacity the original graph
/// object is solved directly, so the final streamed answer and trace are
/// the one-shot solve's bit for bit. The delta reports the component
/// count, how many previously-revealed vertices changed canonical
/// component label (merges as new vertices close cycles), and a label
/// checksum.
struct SccStream {
    g: CsrGraph,
    /// The full graph's edge list, for induced-prefix rebuilds.
    edges: Vec<(u32, u32)>,
    /// Canonical component labels of the previous prefix.
    labels: Vec<u32>,
}

impl PrefixStream for SccStream {
    fn capacity(&self) -> usize {
        self.g.num_vertices()
    }

    fn approx_bytes(&self) -> usize {
        self.edges.len() * 8 + self.g.num_vertices() * 8 + self.labels.len() * 4 + 256
    }

    fn solve_prefix(
        &mut self,
        _lo: usize,
        hi: usize,
        cfg: &RunConfig,
    ) -> Result<Option<PrefixSolution>, String> {
        let induced;
        let g = if hi == self.g.num_vertices() {
            &self.g
        } else {
            let prefix_edges: Vec<(u32, u32)> = self
                .edges
                .iter()
                .copied()
                .filter(|&(u, v)| (u as usize) < hi && (v as usize) < hi)
                .collect();
            induced = CsrGraph::from_edges(hi, &prefix_edges);
            &induced
        };
        let (summary, report, labels) = summarize(g, cfg);
        let relabeled = self
            .labels
            .iter()
            .zip(&labels)
            .filter(|(prev, cur)| prev != cur)
            .count();
        let components = labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        let prev_components = self
            .labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        let delta = Value::Obj(vec![
            ("components".into(), Value::Num(components as f64)),
            ("prev_components".into(), Value::Num(prev_components as f64)),
            ("relabeled".into(), Value::Num(relabeled as f64)),
            (
                "checksum".into(),
                Value::Num(checksum_u32s(labels.iter().copied()) as f64),
            ),
        ]);
        self.labels = labels;
        Ok(Some((delta, summary, report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_core::engine::registry::WorkloadSpec;

    #[test]
    fn registered_name_solves_all_shapes() {
        let mut reg = Registry::new();
        register(&mut reg);
        for shape in ["gnm", "dag", "rmat", "planted", "deep-path", "grid"] {
            // 100 is not a power of two: the old rmat shape would have
            // built 128 vertices here.
            let spec = WorkloadSpec::new(100, 2).shape(shape);
            let (summary, report) = reg.solve("scc", &spec, &RunConfig::new().seed(3)).unwrap();
            assert!(
                summary.to_json().contains("\"vertices\":100"),
                "{shape} inflated n: {}",
                summary.to_json()
            );
            assert!(summary.to_json().contains("components"), "{shape}");
            assert!(report.items > 0, "{shape}");
        }
        assert!(reg
            .construct("scc", &WorkloadSpec::new(128, 2).shape("sideways"))
            .is_err());
    }

    #[test]
    fn components_match_tarjan_through_registry() {
        let g = ri_graph::generators::gnm(200, 800, 9, false);
        let (out, _) = SccProblem::new(&g).solve(&RunConfig::new().seed(4));
        let want = {
            let mut t = crate::canonical_labels(&crate::tarjan_scc(&g));
            t.sort_unstable();
            t.dedup();
            t.len()
        };
        assert_eq!(out.num_components(), want);
    }

    #[test]
    fn stream_reveals_the_vertex_prefix_and_matches_one_shot() {
        let mut reg = Registry::new();
        register(&mut reg);
        for shape in ["gnm", "planted"] {
            let spec = WorkloadSpec::new(96, 2).shape(shape);
            let cfg = RunConfig::new().seed(3);
            let mut inc = reg.construct_incremental("scc", &spec).unwrap();
            assert!(inc.native(), "{shape}");
            let (d0, _) = inc.feed(30, &cfg).unwrap();
            assert!(!d0.pending, "{shape}");
            assert_eq!(
                d0.delta.get("relabeled"),
                Some(&Value::Num(0.0)),
                "{shape}: nothing revealed before the first batch"
            );
            let (d1, _) = inc.feed(50, &cfg).unwrap();
            // Induced subgraphs only lose edges vs the final graph, so
            // intermediate prefixes can only have MORE components per
            // vertex; the count itself is just checked for presence.
            assert!(d1.delta.get("components").is_some(), "{shape}");
            let (d2, _) = inc.feed(16, &cfg).unwrap();
            assert!(d2.complete, "{shape}");
            let (one_shot, report) = reg.solve("scc", &spec, &cfg).unwrap();
            assert_eq!(d2.answer, one_shot.answer().to_vec(), "{shape}");
            assert_eq!(
                d2.trace,
                ri_core::engine::RoundTrace::from_report(&report),
                "{shape}"
            );
        }
    }
}
