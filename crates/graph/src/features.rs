//! Dense node-feature storage and synthetic feature/label generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::generators::community_of;
use crate::NodeId;

/// Row-major `num_nodes x dim` node-feature matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Features {
    data: Vec<f32>,
    dim: usize,
}

impl Features {
    /// Wraps raw data; `data.len()` must be a multiple of `dim`.
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data not a multiple of dim"
        );
        Self { data, dim }
    }

    /// All-zero features for `n` nodes.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Self::new(vec![0.0; n * dim], dim)
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Feature row of node `v`.
    pub fn row(&self, v: NodeId) -> &[f32] {
        let d = self.dim;
        &self.data[v as usize * d..(v as usize + 1) * d]
    }

    /// Mutable feature row.
    pub fn row_mut(&mut self, v: NodeId) -> &mut [f32] {
        let d = self.dim;
        &mut self.data[v as usize * d..(v as usize + 1) * d]
    }

    /// Contiguous storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Gathers rows `ids` into a fresh dense matrix (the `index_select`
    /// operation the paper identifies as the memory-bandwidth-bound phase of
    /// GNN training, Figure 2).
    pub fn gather(&self, ids: &[NodeId]) -> Features {
        Features::new(self.gather_rows(ids), self.dim)
    }

    /// [`Features::gather`] as raw row-major data: each row is written once
    /// into an exact-size `ids.len() x dim` buffer, ready to become a
    /// `Matrix` without a second copy.
    pub fn gather_rows(&self, ids: &[NodeId]) -> Vec<f32> {
        let mut out = Vec::with_capacity(ids.len() * self.dim);
        for &v in ids {
            out.extend_from_slice(self.row(v));
        }
        out
    }

    /// Copies node `v`'s feature row into `out` without allocating.
    /// `out.len()` must equal [`Features::dim`].
    pub fn copy_row_into(&self, v: NodeId, out: &mut [f32]) {
        out.copy_from_slice(self.row(v));
    }

    /// Partitioned batch assembly: fills only the rows of `out` whose
    /// positions appear in `positions`, taking row `ids[p]` for each
    /// position `p`. `out` is a row-major `ids.len() x dim` buffer; rows at
    /// other positions (e.g. already served from a cache) are untouched.
    pub fn fill_rows(&self, ids: &[NodeId], positions: &[usize], out: &mut [f32]) {
        let d = self.dim;
        assert_eq!(out.len(), ids.len() * d, "output buffer shape mismatch");
        for &p in positions {
            out[p * d..(p + 1) * d].copy_from_slice(self.row(ids[p]));
        }
    }
}

/// Synthesizes learnable `dim`-dimensional features for a planted-community
/// graph: each community gets a random unit-ish prototype vector; node
/// features are `prototype + noise`.
///
/// With `noise` well below 1 a linear classifier can recover the community,
/// so GNN training on these features converges — which is what the
/// correctness experiment (Figure 9) needs.
pub fn community_features(
    num_nodes: usize,
    dim: usize,
    num_communities: usize,
    noise: f32,
    seed: u64,
) -> (Features, Vec<u32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut prototypes = vec![0.0f32; num_communities * dim];
    for p in prototypes.iter_mut() {
        *p = rng.gen_range(-1.0..1.0);
    }
    let mut data = vec![0.0f32; num_nodes * dim];
    let mut labels = vec![0u32; num_nodes];
    for v in 0..num_nodes {
        let c = community_of(v as NodeId, num_nodes, num_communities);
        labels[v] = c as u32;
        let proto = &prototypes[c * dim..(c + 1) * dim];
        for (x, p) in data[v * dim..(v + 1) * dim].iter_mut().zip(proto) {
            *x = *p + rng.gen_range(-noise..noise);
        }
    }
    (Features::new(data, dim), labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_rows() {
        let f = Features::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(f.num_nodes(), 2);
        assert_eq!(f.dim(), 3);
        assert_eq!(f.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn zeros() {
        let f = Features::zeros(4, 2);
        assert_eq!(f.num_nodes(), 4);
        assert!(f.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn bad_shape_panics() {
        Features::new(vec![1.0; 5], 2);
    }

    #[test]
    fn gather_selects_rows() {
        let f = Features::new((0..12).map(|x| x as f32).collect(), 4);
        let g = f.gather(&[2, 0]);
        assert_eq!(g.row(0), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(g.row(1), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn gather_rows_is_exact_size_and_matches_gather() {
        let f = Features::new((0..12).map(|x| x as f32).collect(), 4);
        let ids = [2u32, 0, 2];
        let rows = f.gather_rows(&ids);
        assert_eq!(rows.capacity(), ids.len() * 4);
        assert_eq!(rows, f.gather(&ids).data());
    }

    #[test]
    fn fill_rows_fills_only_requested_positions() {
        let f = Features::new((0..12).map(|x| x as f32).collect(), 4);
        let ids = [2u32, 0, 1];
        let mut out = vec![-1.0f32; 12];
        f.fill_rows(&ids, &[0, 2], &mut out);
        assert_eq!(&out[0..4], &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(&out[4..8], &[-1.0, -1.0, -1.0, -1.0]); // untouched
        assert_eq!(&out[8..12], &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn fill_rows_all_positions_matches_gather() {
        let f = Features::new((0..20).map(|x| x as f32 * 0.5).collect(), 5);
        let ids = [3u32, 1, 3, 0];
        let positions: Vec<usize> = (0..ids.len()).collect();
        let mut out = vec![0.0f32; ids.len() * 5];
        f.fill_rows(&ids, &positions, &mut out);
        assert_eq!(out, f.gather(&ids).data());
    }

    #[test]
    fn copy_row_into_matches_row() {
        let f = Features::new((0..6).map(|x| x as f32).collect(), 3);
        let mut buf = [0.0f32; 3];
        f.copy_row_into(1, &mut buf);
        assert_eq!(&buf, f.row(1));
    }

    #[test]
    fn row_mut_writes() {
        let mut f = Features::zeros(2, 2);
        f.row_mut(1)[0] = 7.0;
        assert_eq!(f.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn community_features_separable() {
        let (f, labels) = community_features(200, 16, 4, 0.1, 9);
        assert_eq!(f.num_nodes(), 200);
        assert_eq!(labels.len(), 200);
        // Nodes of the same community are closer to each other than to nodes
        // of a different community (centroid check).
        let mut centroids = vec![vec![0.0f32; 16]; 4];
        let mut counts = vec![0usize; 4];
        for v in 0..200u32 {
            let c = labels[v as usize] as usize;
            counts[c] += 1;
            for (a, b) in centroids[c].iter_mut().zip(f.row(v)) {
                *a += b;
            }
        }
        for (c, cnt) in centroids.iter_mut().zip(&counts) {
            for a in c.iter_mut() {
                *a /= *cnt as f32;
            }
        }
        let mut correct = 0;
        for v in 0..200u32 {
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da: f32 = centroids[a]
                        .iter()
                        .zip(f.row(v))
                        .map(|(c, x)| (c - x).powi(2))
                        .sum();
                    let db: f32 = centroids[b]
                        .iter()
                        .zip(f.row(v))
                        .map(|(c, x)| (c - x).powi(2))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best == labels[v as usize] as usize {
                correct += 1;
            }
        }
        assert!(correct > 190, "nearest-centroid accuracy {correct}/200");
    }

    #[test]
    fn community_features_deterministic() {
        let a = community_features(50, 8, 3, 0.2, 5);
        let b = community_features(50, 8, 3, 0.2, 5);
        assert_eq!(a, b);
    }
}
