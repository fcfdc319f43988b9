//! Compressed sparse row digraphs.

/// A directed graph in CSR form; vertex ids are `u32`, edges optionally
/// carry `f64` weights (absent = unweighted = unit weights).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Option<Vec<f64>>,
}

impl CsrGraph {
    /// Build from a directed edge list. Self-loops are kept (harmless for
    /// every algorithm here); parallel edges are kept too.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::build(n, edges, None)
    }

    /// Build from a weighted edge list; weights must be non-negative
    /// (shortest-path requirement).
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32)], weights: &[f64]) -> Self {
        assert_eq!(edges.len(), weights.len());
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        Self::build(n, edges, Some(weights))
    }

    fn build(n: usize, edges: &[(u32, u32)], weights: Option<&[f64]>) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(u, _) in edges {
            assert!((u as usize) < n, "source {u} out of range");
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        let mut wout = weights.map(|_| vec![0f64; edges.len()]);
        for (idx, &(u, v)) in edges.iter().enumerate() {
            assert!((v as usize) < n, "target {v} out of range");
            let pos = cursor[u as usize];
            cursor[u as usize] += 1;
            targets[pos] = v;
            if let (Some(w), Some(ws)) = (&mut wout, weights) {
                w[pos] = ws[idx];
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights: wout,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Out-neighbors of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Out-edges of `u` as `(target, weight)` (weight 1.0 if unweighted).
    pub fn edges(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        self.targets[lo..hi].iter().enumerate().map(move |(k, &v)| {
            let w = self.weights.as_ref().map_or(1.0, |ws| ws[lo + k]);
            (v, w)
        })
    }

    /// The transposed (edge-reversed) graph — needed for backward
    /// reachability in the SCC algorithm.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut edges = Vec::with_capacity(self.num_edges());
        let mut weights = self
            .weights
            .as_ref()
            .map(|_| Vec::with_capacity(self.num_edges()));
        for u in 0..n as u32 {
            for (k, &v) in self.neighbors(u).iter().enumerate() {
                edges.push((v, u));
                if let (Some(wout), Some(ws)) = (&mut weights, &self.weights) {
                    wout.push(ws[self.offsets[u as usize] + k]);
                }
            }
        }
        match weights {
            Some(ws) => CsrGraph::from_weighted_edges(n, &edges, &ws),
            None => CsrGraph::from_edges(n, &edges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_shape() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn multi_edges_preserved() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (0, 0)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors(0), &[1, 1, 0]);
    }

    #[test]
    fn weighted_edges_iterate() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1), (0, 2)], &[2.5, 0.5]);
        let es: Vec<(u32, f64)> = g.edges(0).collect();
        assert_eq!(es, vec![(1, 2.5), (2, 0.5)]);
    }

    #[test]
    fn transpose_involution() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 1)]);
        let tt = g.transpose().transpose();
        // Same adjacency as the original up to per-vertex edge order.
        for u in 0..4u32 {
            let mut a = g.neighbors(u).to_vec();
            let mut b = tt.neighbors(u).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn transpose_reverses() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.degree(0), 0);
    }

    #[test]
    fn transpose_keeps_weights() {
        let g = CsrGraph::from_weighted_edges(2, &[(0, 1)], &[3.25]);
        let t = g.transpose();
        let es: Vec<(u32, f64)> = t.edges(1).collect();
        assert_eq!(es, vec![(0, 3.25)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        CsrGraph::from_weighted_edges(2, &[(0, 1)], &[-1.0]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
