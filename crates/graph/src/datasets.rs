//! The paper's evaluation datasets (Table III) and synthesized stand-ins.
//!
//! Two uses:
//!
//! 1. **Modeled experiments** (tables/figures at paper scale) only need the
//!    published statistics — `|V|`, `|E|`, layer dimensions `f0/f1/f2` — which
//!    are recorded verbatim in [`FLICKR`], [`REDDIT`], [`OGBN_PRODUCTS`] and
//!    [`OGBN_PAPERS100M`].
//! 2. **Measured experiments** (real training: convergence, semantics,
//!    quickstart) need an actual graph; [`DatasetSpec::synthesize`] builds a
//!    scaled-down power-law graph with planted community labels matching the
//!    spec's average degree and feature/class dimensions.

use std::sync::Arc;

use crate::csr::Graph;
use crate::features::{community_features, Features};
use crate::generators::planted_communities;

/// Published statistics of an evaluation dataset (paper Table III).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Number of vertices.
    pub num_nodes: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Input feature length (`f0`).
    pub f0: usize,
    /// Hidden feature length (`f1`).
    pub f1: usize,
    /// Output dimension = number of classes (`f2`).
    pub f2: usize,
}

/// Flickr (medium-scale; Zeng et al. 2020).
pub const FLICKR: DatasetSpec = DatasetSpec {
    name: "Flickr",
    num_nodes: 89_250,
    num_edges: 899_756,
    f0: 500,
    f1: 128,
    f2: 7,
};

/// Reddit (Zeng et al. 2020).
pub const REDDIT: DatasetSpec = DatasetSpec {
    name: "Reddit",
    num_nodes: 232_965,
    num_edges: 11_606_919,
    f0: 602,
    f1: 128,
    f2: 41,
};

/// ogbn-products (OGB).
pub const OGBN_PRODUCTS: DatasetSpec = DatasetSpec {
    name: "ogbn-products",
    num_nodes: 2_449_029,
    num_edges: 61_859_140,
    f0: 100,
    f1: 128,
    f2: 47,
};

/// ogbn-papers100M (OGB).
pub const OGBN_PAPERS100M: DatasetSpec = DatasetSpec {
    name: "ogbn-papers100M",
    num_nodes: 111_059_956,
    num_edges: 1_615_685_872,
    f0: 128,
    f1: 128,
    f2: 172,
};

/// All four paper datasets, in Table III order.
pub const ALL_SPECS: [DatasetSpec; 4] = [FLICKR, REDDIT, OGBN_PRODUCTS, OGBN_PAPERS100M];

impl DatasetSpec {
    /// Average degree implied by the published statistics.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges as f64 / self.num_nodes as f64
    }

    /// Fraction of nodes used as training targets. OGB/GraphSAINT splits
    /// differ per dataset; we use representative values.
    pub fn train_fraction(&self) -> f64 {
        match self.name {
            "Flickr" => 0.50,
            "Reddit" => 0.66,
            "ogbn-products" => 0.08,
            "ogbn-papers100M" => 0.011,
            _ => 0.5,
        }
    }

    /// Builds a scaled-down, *learnable* synthetic instance of this dataset:
    /// `scale` multiplies `|V|`; edges scale to preserve the average degree
    /// (capped so tests stay fast). Labels are planted communities
    /// (`f2` classes) and features are community prototypes plus noise.
    pub fn synthesize(&self, scale: f64, seed: u64) -> Dataset {
        assert!(scale > 0.0);
        let n = ((self.num_nodes as f64 * scale) as usize).max(16 * self.f2.min(64));
        let avg_deg = self.avg_degree().min(24.0); // cap for tractability
        let m = ((n as f64 * avg_deg) / 2.0) as usize; // undirected pairs
        let classes = self.f2.min(16); // keep synthetic label space small
        let feat_dim = self.f0.min(64);
        let graph = planted_communities(n, m, classes, 0.82, seed);
        let (features, labels) = community_features(n, feat_dim, classes, 0.35, seed ^ 0xFEED);
        // Train split: stride over all nodes for an unbiased class mix.
        let train_frac = self.train_fraction().clamp(0.05, 0.7);
        let stride = (1.0 / train_frac).round().max(1.0) as usize;
        let train: Vec<u32> = (0..n).step_by(stride).map(|v| v as u32).collect();
        let val: Vec<u32> = (1..n).step_by(stride * 3).map(|v| v as u32).collect();
        Dataset {
            spec: *self,
            graph: Arc::new(graph),
            features: Arc::new(features),
            labels,
            train_nodes: train,
            val_nodes: val,
            num_classes: classes,
        }
    }
}

/// A materialized (synthetic) dataset ready for training.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The spec this instance was synthesized from.
    pub spec: DatasetSpec,
    /// Graph topology (undirected, CSR), shared with every rank, loader and
    /// serving session so its lazily built caches are computed once.
    pub graph: Arc<Graph>,
    /// Node features (`num_nodes x feat_dim`), shared read-only by every
    /// loader worker, rank and serving session that gathers from them.
    pub features: Arc<Features>,
    /// Node class labels.
    pub labels: Vec<u32>,
    /// Training target nodes.
    pub train_nodes: Vec<u32>,
    /// Validation nodes.
    pub val_nodes: Vec<u32>,
    /// Number of label classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Input feature dimension of this instance.
    pub fn feat_dim(&self) -> usize {
        self.features.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_statistics_are_verbatim() {
        assert_eq!(FLICKR.num_nodes, 89_250);
        assert_eq!(FLICKR.num_edges, 899_756);
        assert_eq!(FLICKR.f0, 500);
        assert_eq!(FLICKR.f2, 7);
        assert_eq!(REDDIT.num_edges, 11_606_919);
        assert_eq!(REDDIT.f2, 41);
        assert_eq!(OGBN_PRODUCTS.num_nodes, 2_449_029);
        assert_eq!(OGBN_PRODUCTS.f0, 100);
        assert_eq!(OGBN_PAPERS100M.num_edges, 1_615_685_872);
        assert_eq!(OGBN_PAPERS100M.f2, 172);
        for s in ALL_SPECS {
            assert_eq!(s.f1, 128, "{}: hidden dim is 128 for all", s.name);
        }
    }

    #[test]
    fn avg_degrees_match_paper_scale() {
        assert!((FLICKR.avg_degree() - 10.08).abs() < 0.1);
        assert!((REDDIT.avg_degree() - 49.8).abs() < 0.5);
        assert!((OGBN_PRODUCTS.avg_degree() - 25.26).abs() < 0.2);
    }

    #[test]
    fn synthesize_produces_consistent_dataset() {
        let d = FLICKR.synthesize(0.02, 42);
        assert_eq!(d.graph.num_nodes(), d.features.num_nodes());
        assert_eq!(d.graph.num_nodes(), d.labels.len());
        d.graph.validate().unwrap();
        assert!(d.num_classes >= 2);
        assert!(d.labels.iter().all(|&l| (l as usize) < d.num_classes));
        assert!(!d.train_nodes.is_empty());
        assert!(d
            .train_nodes
            .iter()
            .all(|&v| (v as usize) < d.graph.num_nodes()));
        // Average degree close to the (capped) spec degree.
        let want = FLICKR.avg_degree().min(24.0);
        let got = d.graph.avg_degree();
        assert!(
            (got - want).abs() / want < 0.25,
            "avg degree {got} vs {want}"
        );
    }

    #[test]
    fn synthesize_is_deterministic() {
        let a = REDDIT.synthesize(0.005, 7);
        let b = REDDIT.synthesize(0.005, 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn train_split_has_all_classes() {
        let d = FLICKR.synthesize(0.02, 3);
        let mut seen = vec![false; d.num_classes];
        for &v in &d.train_nodes {
            seen[d.labels[v as usize] as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "train split misses a class");
    }
}
