//! Pins the pruned subgraph layers: a subgraph batch's GNN layer `l`
//! computes only the rows within `L-1-l` hops of a seed (the last layer
//! exactly the seed rows), and that must not change a single bit of the
//! logits or gradients against the full-rows computation (every layer over
//! all N subgraph rows, seed rows selected for the loss, loss gradient
//! scattered back into N zero rows).
//!
//! The reference below is written from the public `DispatchPolicy` kernels
//! alone, so it does not share code with the model it checks.

use argo::graph::datasets::{Dataset, FLICKR};
use argo::nn::{Gnn, GnnKind};
use argo::rt::{SeedSequence, ThreadPool};
use argo::sample::batch::{Normalization, SampledBatch};
use argo::sample::{
    full_graph_batch, SaintRwSampler, SampleRun, Sampler, SamplerScratch, ShadowSampler,
};
use argo::tensor::ops::{bias_grad, relu_backward, softmax_cross_entropy};
use argo::tensor::{DispatchPolicy, Epilogue, Matrix, SparseMatrix};

fn dataset() -> Dataset {
    FLICKR.synthesize(0.02, 5)
}

fn norm_for(kind: GnnKind) -> Normalization {
    match kind {
        GnnKind::Gcn => Normalization::Gcn,
        GnnKind::Sage => Normalization::Mean,
    }
}

fn input_of(d: &Dataset, batch: &SampledBatch) -> Matrix {
    let ids = batch.input_nodes();
    Matrix::from_vec(ids.len(), d.feat_dim(), d.features.gather_rows(ids))
}

/// Full-rows logits and flat gradients of a `model`-shaped GNN on a
/// subgraph batch, from the dispatch kernels only.
fn reference(
    model: &Gnn,
    dispatch: DispatchPolicy,
    batch: &SampledBatch,
    input: Matrix,
    labels: &[u32],
    pool: Option<&ThreadPool>,
) -> (Matrix, Vec<f32>) {
    let SampledBatch::Subgraph(sb) = batch else {
        panic!("subgraph batch expected")
    };
    let kind = model.kind();
    let owned;
    let adj: &SparseMatrix = if sb.norm == norm_for(kind) && sb.adj.values().is_some() {
        &sb.adj
    } else {
        owned = match kind {
            GnnKind::Gcn => sb.gcn_normalized(),
            GnnKind::Sage => sb.mean_normalized(),
        };
        &owned
    };
    let n = adj.rows();
    let dims = model.dims();
    let depth = dims.len() - 1;
    let mut flat = Vec::new();
    model.params_flat(&mut flat);
    let mut params = Vec::new();
    let mut at = 0;
    for l in 0..depth {
        let fan_in = match kind {
            GnnKind::Gcn => dims[l],
            GnnKind::Sage => 2 * dims[l],
        };
        let w = Matrix::from_vec(
            fan_in,
            dims[l + 1],
            flat[at..at + fan_in * dims[l + 1]].to_vec(),
        );
        at += fan_in * dims[l + 1];
        params.push((w, flat[at..at + dims[l + 1]].to_vec()));
        at += dims[l + 1];
    }

    let mut h = input;
    let mut caches = Vec::new();
    for (l, (w, b)) in params.iter().enumerate() {
        let relu = l + 1 < depth;
        let mut agg = Matrix::zeros(n, h.cols());
        dispatch.aggregate_into(adj, &h, pool, &mut agg);
        let mut z = Matrix::zeros(n, w.cols());
        let epi = if relu {
            Epilogue::bias_relu(b)
        } else {
            Epilogue::bias(b)
        };
        let mask = match kind {
            GnnKind::Gcn => dispatch.gemm_into(&agg, w, epi, pool, &mut z),
            GnnKind::Sage => dispatch.sage_gemm_into(&h, &agg, w, epi, pool, &mut z),
        };
        caches.push((std::mem::replace(&mut h, z), agg, mask));
    }
    let mut logits = Matrix::zeros(sb.seed_positions.len(), h.cols());
    for (i, &p) in sb.seed_positions.iter().enumerate() {
        logits.row_mut(i).copy_from_slice(h.row(p));
    }
    let seed_labels: Vec<u32> = sb.seeds.iter().map(|&v| labels[v as usize]).collect();
    let (_, dlogits) = softmax_cross_entropy(&logits, &seed_labels);
    let mut grad = Matrix::zeros(n, h.cols());
    for (i, &p) in sb.seed_positions.iter().enumerate() {
        grad.row_mut(p).copy_from_slice(dlogits.row(i));
    }

    let mut grads = vec![(Matrix::zeros(0, 0), Vec::new()); depth];
    for l in (0..depth).rev() {
        let (layer_input, agg, mask) = &caches[l];
        let w = &params[l].0;
        if let Some(m) = mask {
            relu_backward(&mut grad, m);
        }
        let mut dw = Matrix::zeros(w.rows(), w.cols());
        match kind {
            GnnKind::Gcn => dispatch.grad_weights_into(agg, 0..n, &grad, pool, &mut dw, 0),
            GnnKind::Sage => {
                dispatch.grad_weights_into(layer_input, 0..n, &grad, pool, &mut dw, 0);
                dispatch.grad_weights_into(agg, 0..n, &grad, pool, &mut dw, dims[l]);
            }
        }
        grads[l] = (dw, bias_grad(&grad));
        if l == 0 {
            break;
        }
        grad = match kind {
            GnnKind::Gcn => {
                let dagg = dispatch.grad_input(&grad, w, 0..w.rows(), pool);
                dispatch.aggregate_transpose(adj, &dagg, pool)
            }
            GnnKind::Sage => {
                let f = dims[l];
                let dself = dispatch.grad_input(&grad, w, 0..f, pool);
                let dmean = dispatch.grad_input(&grad, w, f..2 * f, pool);
                let mut dh = dispatch.aggregate_transpose(adj, &dmean, pool);
                for r in 0..n {
                    for (a, b) in dh.row_mut(r).iter_mut().zip(dself.row(r)) {
                        *a += b;
                    }
                }
                dh
            }
        };
    }
    let mut out = Vec::new();
    for (dw, db) in &grads {
        out.extend_from_slice(dw.data());
        out.extend_from_slice(db);
    }
    (logits, out)
}

/// Model logits (owned and, when given, view path) and gradients against
/// the reference: bitwise when `tol` is `None`, else each element within
/// `tol` relative to the largest magnitude of its reference vector.
fn check(
    d: &Dataset,
    model: Gnn,
    batch: &SampledBatch,
    view_logits: Option<Matrix>,
    pool: Option<&ThreadPool>,
    tol: Option<f32>,
) {
    let mut model = model;
    let dispatch = model.dispatch();
    let input = input_of(d, batch);
    let (want_logits, want_grads) =
        reference(&model, dispatch, batch, input.clone(), &d.labels, pool);
    let logits = model.forward_gathered(batch, input.clone(), pool);
    model.train_step_gathered(batch, input, &d.labels, pool);
    let mut grads = Vec::new();
    model.grads_flat(&mut grads);
    let what = format!(
        "{:?} depth {} simd {} pool {}",
        model.kind(),
        model.num_layers(),
        dispatch.simd_enabled(),
        pool.is_some()
    );
    let same = |got: &[f32], want: &[f32], name: &str| {
        assert_eq!(got.len(), want.len(), "{what}: {name} length");
        let scale = want.iter().fold(0f32, |m, x| m.max(x.abs()));
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            match tol {
                None => assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}[{i}] {a} vs {b}"),
                Some(t) => assert!(
                    (a - b).abs() <= t * scale,
                    "{what}: {name}[{i}] {a} vs {b} (scale {scale})"
                ),
            }
        }
    };
    assert_eq!(logits.rows(), batch.num_seeds(), "{what}: logit rows");
    same(logits.data(), want_logits.data(), "logits");
    if let Some(v) = view_logits {
        same(v.data(), want_logits.data(), "view logits");
    }
    same(&grads, &want_grads, "grads");
}

/// A fused-normalization ShaDow batch for `kind` at `depth`, plus the
/// view-path logits of `model` on it.
fn shadow_batch(d: &Dataset, model: &Gnn, depth: usize) -> (SampledBatch, Matrix) {
    sampled_batch(d, model, &ShadowSampler::new(vec![5, 3], depth))
}

/// A fused-normalization batch of `sampler` for `model`'s kind, plus the
/// view-path logits of `model` on it.
fn sampled_batch(d: &Dataset, model: &Gnn, sampler: &dyn Sampler) -> (SampledBatch, Matrix) {
    let seeds: Vec<u32> = d.train_nodes.iter().copied().take(40).collect();
    let mut scratch = SamplerScratch::new();
    let run = SampleRun::new(SeedSequence::new(7), &mut scratch).with_norm(norm_for(model.kind()));
    let view = sampler.sample_into(&d.graph, &seeds, run);
    let input = Matrix::from_vec(
        view.input_nodes().len(),
        d.feat_dim(),
        d.features.gather_rows(view.input_nodes()),
    );
    let logits = model.forward_gathered_view(&view, input, None);
    (view.to_owned(), logits)
}

fn model(d: &Dataset, kind: GnnKind, depth: usize, dispatch: DispatchPolicy) -> Gnn {
    Gnn::new(kind, d.feat_dim(), 16, d.num_classes, depth, 9).with_dispatch(dispatch)
}

#[test]
fn seed_block_is_bitwise_equal_to_full_rows_serial() {
    let d = dataset();
    for kind in [GnnKind::Gcn, GnnKind::Sage] {
        for depth in [2, 3] {
            for dispatch in [
                DispatchPolicy::default(),
                DispatchPolicy::default().force_scalar(),
            ] {
                let m = model(&d, kind, depth, dispatch);
                let (batch, view_logits) = shadow_batch(&d, &m, depth);
                check(&d, m, &batch, Some(view_logits), None, None);
            }
        }
    }
}

#[test]
fn saint_batches_are_bitwise_equal_to_full_rows_serial() {
    // Random-walk subgraphs reach unevenly far from their roots, so the
    // hop sets of the pruned layers differ in shape from ShaDow's.
    let d = dataset();
    for kind in [GnnKind::Gcn, GnnKind::Sage] {
        for depth in [2, 3] {
            let m = model(&d, kind, depth, DispatchPolicy::default());
            let (batch, view_logits) = sampled_batch(&d, &m, &SaintRwSampler::new(2, depth));
            check(&d, m, &batch, Some(view_logits), None, None);
        }
    }
}

#[test]
fn seed_block_is_bitwise_equal_on_the_renormalizing_path() {
    // A batch sampled without fused normalization takes the model's
    // renormalization fallback; its pruned layers must pin the same way.
    let d = dataset();
    let seeds: Vec<u32> = d.train_nodes.iter().copied().take(40).collect();
    for kind in [GnnKind::Gcn, GnnKind::Sage] {
        let mut scratch = SamplerScratch::new();
        let run = SampleRun::new(SeedSequence::new(3), &mut scratch);
        let batch = ShadowSampler::new(vec![5, 3], 3).sample_with(&d.graph, &seeds, run);
        check(
            &d,
            model(&d, kind, 3, DispatchPolicy::default()),
            &batch,
            None,
            None,
            None,
        );
    }
}

#[test]
fn seed_block_matches_full_rows_on_a_two_worker_pool() {
    let d = dataset();
    let pool = ThreadPool::new("seed-block", 2);
    // Threshold 1 puts every kernel on the pool, pruned layers included.
    let dispatch = DispatchPolicy::new(1).with_sparse_work_threshold(1);
    for kind in [GnnKind::Gcn, GnnKind::Sage] {
        for depth in [2, 3] {
            let m = model(&d, kind, depth, dispatch);
            let (batch, _) = shadow_batch(&d, &m, depth);
            check(&d, m, &batch, None, Some(&pool), Some(1e-5));
        }
    }
}

#[test]
fn non_prefix_seeds_match_full_rows() {
    // The full-graph batch keeps every node at its own position, so its
    // seeds are scattered: the last layer's rows and SAGE's self rows come
    // from `seed_positions`, not from a prefix.
    let d = FLICKR.synthesize(0.005, 2);
    let batch = full_graph_batch(&d.graph, &d.train_nodes);
    let SampledBatch::Subgraph(sb) = &batch else {
        unreachable!()
    };
    assert!(sb.seed_positions.iter().enumerate().any(|(i, &p)| i != p));
    for kind in [GnnKind::Gcn, GnnKind::Sage] {
        for depth in [1, 2, 3] {
            let m = model(&d, kind, depth, DispatchPolicy::default());
            check(&d, m, &batch, None, None, Some(1e-5));
        }
    }
}
