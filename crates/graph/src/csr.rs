//! Compressed-sparse-row graph storage.

use std::sync::OnceLock;

use crate::NodeId;

/// An unweighted directed graph in CSR form. Undirected graphs are stored
/// with both edge directions present.
///
/// `indptr` has `num_nodes + 1` entries; the out-neighbors of node `v` are
/// `indices[indptr[v]..indptr[v+1]]`.
#[derive(Debug)]
pub struct Graph {
    indptr: Vec<usize>,
    indices: Vec<NodeId>,
    /// Lazily built `1/sqrt(max(degree, 1))` table for fused GCN
    /// normalization; shared so every sampled batch reads one table instead
    /// of recomputing square roots per edge.
    inv_sqrt_degrees: OnceLock<Vec<f32>>,
    /// Lazily checked adjacency symmetry (see [`Graph::is_symmetric`]).
    symmetric: OnceLock<bool>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        // The derived impl would clone the cache cell too; rebuilding it
        // lazily on the clone is cheaper than cloning and keeps `clone`
        // equivalent to reconstruction.
        Self {
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            inv_sqrt_degrees: OnceLock::new(),
            symmetric: OnceLock::new(),
        }
    }
}

/// Equality is structural over the CSR arrays; the lazily built degree
/// table is a cache, not identity.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.indptr == other.indptr && self.indices == other.indices
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph from an edge list.
    ///
    /// * `num_nodes` — node-id domain `0..num_nodes`.
    /// * `edges` — `(src, dst)` pairs; out-of-range endpoints panic.
    /// * `undirected` — when true, each edge is inserted in both directions.
    ///
    /// Parallel edges are kept (samplers treat them as higher connection
    /// strength, as DGL does); self-loops are allowed.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)], undirected: bool) -> Self {
        let mut degree = vec![0usize; num_nodes];
        for &(s, d) in edges {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s},{d}) out of range"
            );
            degree[s as usize] += 1;
            if undirected && s != d {
                degree[d as usize] += 1;
            }
        }
        let mut indptr = Vec::with_capacity(num_nodes + 1);
        indptr.push(0usize);
        for d in &degree {
            indptr.push(indptr.last().unwrap() + d);
        }
        let mut cursor = indptr[..num_nodes].to_vec();
        let mut indices = vec![0 as NodeId; *indptr.last().unwrap()];
        for &(s, d) in edges {
            indices[cursor[s as usize]] = d;
            cursor[s as usize] += 1;
            if undirected && s != d {
                indices[cursor[d as usize]] = s;
                cursor[d as usize] += 1;
            }
        }
        let mut g = Self {
            indptr,
            indices,
            inv_sqrt_degrees: OnceLock::new(),
            symmetric: OnceLock::new(),
        };
        g.sort_adjacency();
        g
    }

    /// Builds a graph directly from CSR arrays.
    ///
    /// Panics if the arrays are inconsistent (see [`Graph::validate`]).
    pub fn from_csr(indptr: Vec<usize>, indices: Vec<NodeId>) -> Self {
        Self::from_csr_checked(indptr, indices).expect("invalid CSR")
    }

    /// Fallible variant of [`Graph::from_csr`] (used by deserialization).
    pub fn from_csr_checked(indptr: Vec<usize>, indices: Vec<NodeId>) -> Result<Self, String> {
        let g = Self {
            indptr,
            indices,
            inv_sqrt_degrees: OnceLock::new(),
            symmetric: OnceLock::new(),
        };
        g.validate()?;
        Ok(g)
    }

    fn sort_adjacency(&mut self) {
        for v in 0..self.num_nodes() {
            let (lo, hi) = (self.indptr[v], self.indptr[v + 1]);
            self.indices[lo..hi].sort_unstable();
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of stored (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.indptr[v as usize + 1] - self.indptr[v as usize]
    }

    /// Out-neighbors of `v` (sorted).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.indices[self.indptr[v as usize]..self.indptr[v as usize + 1]]
    }

    /// The CSR row-pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The CSR column-index array.
    pub fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// Per-node `1/sqrt(max(degree, 1))`, built once on first use and cached.
    ///
    /// Samplers fuse GCN normalization into adjacency assembly by writing
    /// `inv_sqrt[v] * inv_sqrt[u]` per sampled edge, so the table is read on
    /// every batch but the square roots are computed once per graph.
    pub fn inv_sqrt_degrees(&self) -> &[f32] {
        self.inv_sqrt_degrees.get_or_init(|| {
            (0..self.num_nodes())
                .map(|v| 1.0 / ((self.degree(v as NodeId).max(1)) as f32).sqrt())
                .collect()
        })
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Checks CSR structural invariants: monotone `indptr` starting at 0 and
    /// ending at `indices.len()`, and all column indices in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.is_empty() {
            return Err("indptr empty".into());
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        if *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr end != nnz".into());
        }
        if self.indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("indptr not monotone".into());
        }
        let n = self.num_nodes() as NodeId;
        if self.indices.iter().any(|&c| c >= n) {
            return Err("column index out of range".into());
        }
        Ok(())
    }

    /// Whether edge `u -> v` exists (binary search over sorted adjacency).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether the adjacency is symmetric — every edge `u -> v` has a
    /// matching `v -> u` *with equal multiplicity* (undirected construction
    /// inserts both directions, so the transpose equals the graph exactly).
    ///
    /// Checked once per graph by building the transpose and comparing the
    /// CSR arrays (both are sorted per row, so equality is a multiset
    /// comparison), then cached. Samplers branch on this to pick the
    /// sort-free induced-subgraph assembly, which enumerates the transposed
    /// entry set; the O(E) one-time check amortizes over every batch drawn
    /// from the graph.
    pub fn is_symmetric(&self) -> bool {
        *self.symmetric.get_or_init(|| {
            let r = self.reverse();
            r.indptr == self.indptr && r.indices == self.indices
        })
    }

    /// Whether [`Graph::is_symmetric`] has already run on this graph; its
    /// answer is cached from then on.
    pub fn symmetry_is_cached(&self) -> bool {
        self.symmetric.get().is_some()
    }

    /// The subgraph induced by `nodes`, with nodes relabeled to
    /// `0..nodes.len()` in the order given. Returns the subgraph; the inverse
    /// mapping is `nodes` itself. `nodes` must not contain duplicates.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Graph {
        let mut local = std::collections::HashMap::with_capacity(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            let prev = local.insert(v, i as NodeId);
            assert!(prev.is_none(), "duplicate node {v} in induced_subgraph");
        }
        let mut edges = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            for &u in self.neighbors(v) {
                if let Some(&j) = local.get(&u) {
                    edges.push((i as NodeId, j));
                }
            }
        }
        Graph::from_edges(nodes.len(), &edges, false)
    }

    /// The reverse (transposed) graph: edge `u -> v` becomes `v -> u`.
    pub fn reverse(&self) -> Graph {
        let n = self.num_nodes();
        let mut degree = vec![0usize; n];
        for &d in &self.indices {
            degree[d as usize] += 1;
        }
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        for d in &degree {
            indptr.push(indptr.last().unwrap() + d);
        }
        let mut cursor = indptr[..n].to_vec();
        let mut indices = vec![0 as NodeId; self.indices.len()];
        for v in 0..n {
            for &u in self.neighbors(v as NodeId) {
                indices[cursor[u as usize]] = v as NodeId;
                cursor[u as usize] += 1;
            }
        }
        let mut g = Graph {
            indptr,
            indices,
            inv_sqrt_degrees: OnceLock::new(),
            symmetric: OnceLock::new(),
        };
        g.sort_adjacency();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], true)
    }

    #[test]
    fn from_edges_directed() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)], false);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[NodeId]);
        assert_eq!(g.degree(2), 1);
        g.validate().unwrap();
    }

    #[test]
    fn from_edges_undirected_symmetric() {
        let g = triangle();
        assert_eq!(g.num_edges(), 6);
        for u in 0..3u32 {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "missing reverse of {u}->{v}");
            }
        }
    }

    #[test]
    fn self_loop_not_duplicated_in_undirected() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)], true);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn parallel_edges_kept() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)], false);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 5)], false);
    }

    #[test]
    fn degree_stats() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)], false);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = triangle();
        let sub = g.induced_subgraph(&[2, 0]);
        // Original edges 2<->0 survive as local 0<->1.
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.neighbors(0), &[1]);
        assert_eq!(sub.neighbors(1), &[0]);
    }

    #[test]
    fn induced_subgraph_empty() {
        let g = triangle();
        let sub = g.induced_subgraph(&[]);
        assert_eq!(sub.num_nodes(), 0);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    #[should_panic]
    fn induced_subgraph_duplicate_panics() {
        triangle().induced_subgraph(&[0, 0]);
    }

    #[test]
    fn symmetry_check_matches_structure() {
        assert!(triangle().is_symmetric());
        // Undirected multigraphs and self-loops stay symmetric.
        let multi = Graph::from_edges(3, &[(0, 1), (0, 1), (2, 2)], true);
        assert!(multi.is_symmetric());
        // A directed edge breaks symmetry.
        let directed = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)], false);
        assert!(!directed.is_symmetric());
        // Existence-symmetric but multiplicity-asymmetric is NOT symmetric:
        // the transposed assembly would over-count an entry.
        let lopsided = Graph::from_edges(2, &[(0, 1), (0, 1), (1, 0)], false);
        assert!(!lopsided.is_symmetric());
        // Cached: second call agrees (and clones re-derive lazily).
        assert!(triangle().clone().is_symmetric());
    }

    #[test]
    fn reverse_transposes() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)], false);
        let r = g.reverse();
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.neighbors(2), &[0, 1]);
        assert_eq!(r.neighbors(0), &[] as &[NodeId]);
        assert_eq!(r.num_edges(), g.num_edges());
        // Transposing twice is the identity.
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn inv_sqrt_degrees_matches_definition() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2)], false);
        let t = g.inv_sqrt_degrees();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], 1.0 / (2.0f32).sqrt());
        assert_eq!(t[1], 1.0);
        assert_eq!(t[3], 1.0, "isolated node clamps degree to 1");
        // Cached: second call returns the same table.
        assert_eq!(t.as_ptr(), g.inv_sqrt_degrees().as_ptr());
        // Clones compare equal and rebuild the cache lazily.
        let c = g.clone();
        assert_eq!(c, g);
        assert_eq!(c.inv_sqrt_degrees(), t);
    }

    #[test]
    fn from_csr_validates() {
        let g = Graph::from_csr(vec![0, 1, 2], vec![1, 0]);
        assert_eq!(g.num_nodes(), 2);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic]
    fn from_csr_rejects_bad_indptr() {
        Graph::from_csr(vec![0, 3, 2], vec![1, 0]);
    }
}
