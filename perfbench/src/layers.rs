//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! Three parts, each kept apart from the untraced end-to-end run:
//!
//! 1. **engine** — untraced and telemetry-on `train_epoch`s alternate after
//!    an untimed first epoch; the telemetry epochs' `stage_summary` and
//!    `critical_path` events give the engine's own stage split, and the
//!    traced/untraced epoch times give the tracing overhead.
//! 2. **replay** — the same dataset, sampler, model and batch size, driven
//!    one layer call at a time on the bench thread: `Graph` per-epoch
//!    set-up, `Sampler::sample_into`, `to_owned`, the feature gather,
//!    `forward_gathered_view`, layer-1 kernels through `DispatchPolicy`,
//!    `train_step_gathered` and the optimizer. The timed calls must cover
//!    at least 95% of the replay's wall time.
//! 3. **serve** — an open-loop run at the reference rate, split into
//!    queueing and execution as the session reports them.

use std::sync::Arc;
use std::time::Instant;

use argo_engine::Engine;
use argo_graph::partition::random_partition;
use argo_graph::Dataset;
use argo_nn::{AnyOptimizer, Arch, Optimizer};
use argo_rt::{RunEvent, SeedSequence, Telemetry};
use argo_sample::{FeatureCache, SampleRun, SampledBatchView, SamplerScratch};
use argo_serve::WallClock;
use argo_tensor::{Epilogue, Matrix, SparseView};

use crate::serve::{open_loop, Mix};
use crate::util::{mean, median, quantile, Outcome};
use crate::workload::{Workload, BATCH, HIDDEN, LAYERS};
use crate::{check_epochs, warm_up, REFERENCE_RPS};

/// Untraced/traced epoch pairs for the engine split and tracing overhead.
const TRACE_PAIRS: usize = 5;
/// Replay batches run before recording, so scratch and workspace are warm.
const REPLAY_WARM: usize = 2;
/// Fresh `Graph` clones timed per replay.
const GRAPH_REPS: usize = 3;
const MIN_COVERAGE: f64 = 0.95;
/// Share of `--seconds` served open-loop at the reference rate.
const SERVE_SHARE: f64 = 0.25;

fn timed<T>(covered: &mut f64, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    let d = t.elapsed().as_secs_f64();
    *covered += d;
    (r, d)
}

pub fn run(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let ds = w.synthesize(seed);
    let mut engine = w.engine(&ds, seed);
    let cfg = w.config(&ds);

    // 1. engine
    let mut stats = vec![engine.train_epoch(cfg, None)];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut compute_ms, mut data_wait, mut other) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        let s = engine.train_epoch(cfg, None);
        plain.push(s.epoch_time);
        stats.push(s);
        let telemetry = Telemetry::new();
        let s = engine.train_epoch(cfg, Some(&telemetry));
        traced.push(s.epoch_time);
        stats.push(s);
        let split = EngineSplit::from_events(&telemetry.logger.events(), w.uses_train_cache());
        compute_ms.push(split.compute_ms);
        data_wait.push(split.data_wait_frac);
        other.push(split.other_frac);
    }
    check_epochs(out, &stats, &ds);
    let overhead_pct = (median(&traced) / median(&plain) - 1.0) * 100.0;
    println!(
        "# engine untraced epoch {:.4}s traced {:.4}s overhead {overhead_pct:.2}%",
        median(&plain),
        median(&traced)
    );

    // 2. replay
    let r = replay(w, &ds, &engine, seed);
    let coverage = r.covered_s / r.wall_s;
    println!(
        "# replay wall {:.4}s, timed layer calls {:.4}s, coverage {:.2}%",
        r.wall_s,
        r.covered_s,
        coverage * 100.0
    );
    out.check(
        "replay coverage >= 95%",
        coverage >= MIN_COVERAGE,
        format!("{:.2}%", coverage * 100.0),
    );
    out.check(
        "replay losses finite",
        r.losses_finite,
        format!("{} batches", r.step_ms.len()),
    );
    out.attempted += r.step_ms.len() as u64;
    // What the engine's compute span covers: the training step, plus the
    // feature gather when no cache pre-gathers on the loader side.
    let isolated_ms = median(&r.step_ms)
        + if w.uses_train_cache() {
            0.0
        } else {
            median(&r.gather_ms)
        };

    // 3. serve
    let clock = Arc::new(WallClock::new());
    let classes = ds.num_classes;
    let mut session = w.session(&ds, engine.model(), seed, Arc::clone(&clock), true);
    let mut mix = Mix::new(ds.graph.num_nodes(), seed);
    let warm = warm_up(&mut session, &clock, &mut mix, classes);
    let due = mix.schedule(REFERENCE_RPS, SERVE_SHARE * seconds);
    let queries = mix.queries(due.len());
    let feat0 = session.feature_cache_stats().unwrap_or_default();
    let run = open_loop(&mut session, &clock, classes, &queries, &due);
    let feat = session
        .feature_cache_stats()
        .unwrap_or_default()
        .delta(&feat0);
    out.attempted += warm.attempted + run.attempted;
    out.failed += warm.failed() + run.failed();
    out.check(
        "served logits seeds x classes, finite",
        run.malformed == 0,
        format!("{} malformed", run.malformed),
    );

    let ms = |v: &[f64]| median(v);
    out.metric("graph.clone_ms", ms(&r.clone_ms), "ms");
    out.metric("graph.symmetry_ms", ms(&r.symmetry_ms), "ms");
    out.metric("graph.degree_norm_ms", ms(&r.degree_norm_ms), "ms");
    out.metric("sample.batch_ms", ms(&r.sample_ms), "ms");
    out.metric(
        "sample.ns_per_edge",
        r.sample_ms.iter().sum::<f64>() * 1e6 / r.edges as f64,
        "ns",
    );
    out.metric("sample.to_owned_ms", ms(&r.to_owned_ms), "ms");
    out.metric("sample.metadata_bytes", mean(&r.metadata_bytes), "bytes");
    out.metric(
        "sample.scratch_allocs_steady",
        r.scratch_allocs as f64,
        "count",
    );
    out.metric("sample.gather_ms", ms(&r.gather_ms), "ms");
    out.metric(
        "sample.gather_gbps",
        r.gather_bytes / (r.gather_ms.iter().sum::<f64>() * 1e-3) / 1e9,
        "GB/s",
    );
    out.metric("sample.feature_cache_hit_rate", r.cache_hit_rate, "ratio");
    out.metric("nn.forward_ms", ms(&r.forward_ms), "ms");
    out.metric("nn.step_ms", ms(&r.step_ms), "ms");
    out.metric("nn.backward_ms", ms(&r.backward_ms), "ms");
    out.metric("nn.optimizer_ms", ms(&r.optimizer_ms), "ms");
    out.metric(
        "nn.step_gflops",
        r.step_flops / (r.step_ms.iter().sum::<f64>() * 1e-3) / 1e9,
        "GFLOP/s",
    );
    out.metric(
        "tensor.gemm_gflops",
        r.gemm_flops / r.gemm_s / 1e9,
        "GFLOP/s",
    );
    out.metric(
        "tensor.aggregate_gflops",
        r.aggregate_flops / r.aggregate_s / 1e9,
        "GFLOP/s",
    );
    out.metric("engine.compute_ms", ms(&compute_ms), "ms");
    out.metric("engine.data_wait_frac", ms(&data_wait), "ratio");
    out.metric("engine.other_frac", ms(&other), "ratio");
    out.metric(
        "engine.compute_inflation",
        ms(&compute_ms) / isolated_ms,
        "ratio",
    );
    out.metric("engine.tracing_overhead_pct", overhead_pct, "%");
    out.metric("serve.queue_ms", ms(&run.queue_ms), "ms");
    out.metric("serve.exec_ms", ms(&run.exec_ms), "ms");
    out.metric("serve.batch_size_mean", mean(&run.batch_sizes), "count");
    out.metric(
        "serve.result_cache_hit_rate",
        run.result_hits as f64 / run.ok.max(1) as f64,
        "ratio",
    );
    out.metric("serve.feature_cache_hit_rate", feat.hit_rate(), "ratio");
    out.metric(
        "serve.generator_late_ms",
        quantile(&run.late_ms, 0.99),
        "ms",
    );
    out.metric("serve.shed_total", run.deadline_exceeded as f64, "count");
    out.metric("serve.refused_total", run.queue_full as f64, "count");
}

/// The engine's own account of one telemetry epoch.
struct EngineSplit {
    /// Compute-stage milliseconds per batch (`stage_summary`).
    compute_ms: f64,
    /// Critical-path share spent waiting on the loader (`critical_path`).
    data_wait_frac: f64,
    /// Critical-path share covered by no span: per-epoch set-up, thread
    /// spawn and join.
    other_frac: f64,
}

impl EngineSplit {
    fn from_events(events: &[(f64, RunEvent)], loader_gathers: bool) -> Self {
        let mut split = EngineSplit {
            compute_ms: f64::NAN,
            data_wait_frac: 0.0,
            other_frac: 0.0,
        };
        for (_, e) in events {
            match e {
                RunEvent::StageSummary { summary, .. } if summary.stage == "compute" => {
                    split.compute_ms = summary.seconds * 1e3 / summary.count.max(1) as f64;
                }
                RunEvent::CriticalPath { fractions, .. } => {
                    for (stage, f) in fractions {
                        match stage.as_str() {
                            "sample" | "cache" | "channel_wait" | "heap_wait" => {
                                split.data_wait_frac += f;
                            }
                            // The loader gathers only when the cache is on;
                            // otherwise `gather` is the rank's own work.
                            "gather" if loader_gathers => split.data_wait_frac += f,
                            "other" => split.other_frac += f,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        split
    }
}

#[derive(Default)]
struct Replay {
    wall_s: f64,
    covered_s: f64,
    clone_ms: Vec<f64>,
    symmetry_ms: Vec<f64>,
    degree_norm_ms: Vec<f64>,
    sample_ms: Vec<f64>,
    edges: usize,
    to_owned_ms: Vec<f64>,
    metadata_bytes: Vec<f64>,
    scratch_allocs: u64,
    gather_ms: Vec<f64>,
    gather_bytes: f64,
    cache_hit_rate: f64,
    forward_ms: Vec<f64>,
    step_ms: Vec<f64>,
    backward_ms: Vec<f64>,
    optimizer_ms: Vec<f64>,
    step_flops: f64,
    gemm_flops: f64,
    gemm_s: f64,
    aggregate_flops: f64,
    aggregate_s: f64,
    losses_finite: bool,
}

/// One layer's shape: adjacency entries, output rows, input and output
/// widths.
struct LayerShape {
    nnz: usize,
    n_dst: usize,
    f_in: usize,
    f_out: usize,
}

/// Layer-by-layer shapes of a batch for a model with widths `dims`.
fn layer_shapes(batch: &SampledBatchView<'_>, dims: &[usize]) -> Vec<LayerShape> {
    (0..LAYERS)
        .map(|l| {
            let adj = layer_adj(batch, l);
            LayerShape {
                nnz: adj.nnz(),
                n_dst: adj.rows(),
                f_in: dims[l],
                f_out: dims[l + 1],
            }
        })
        .collect()
}

fn layer_adj<'a>(batch: &SampledBatchView<'a>, l: usize) -> SparseView<'a> {
    match batch {
        SampledBatchView::Blocks(mb) => mb.block(l).adj,
        SampledBatchView::Subgraph(sb) => sb.adj(),
    }
}

/// Floating-point operations of one training step: per layer, the
/// aggregation and the GEMM forward; backward, the weight gradient, and
/// above layer 1 also the input gradient and the transposed aggregation.
/// SAGE's GEMM reads `[self ‖ aggregate]`, twice the input width.
fn step_flops(shapes: &[LayerShape], arch: Arch) -> f64 {
    let k = |s: &LayerShape| match arch {
        Arch::Sage => 2 * s.f_in,
        _ => s.f_in,
    };
    shapes
        .iter()
        .enumerate()
        .map(|(l, s)| {
            let agg = 2.0 * (s.nnz * s.f_in) as f64;
            let gemm = 2.0 * (s.n_dst * k(s) * s.f_out) as f64;
            let backward = gemm + if l > 0 { gemm + agg } else { 0.0 };
            agg + gemm + backward
        })
        .sum()
}

fn replay(w: &Workload, ds: &Arc<Dataset>, engine: &Engine, seed: u64) -> Replay {
    let mut r = Replay {
        losses_finite: true,
        ..Replay::default()
    };
    let mut model = engine.model();
    let policy = model.dispatch();
    let mut params = engine.params().to_vec();
    let mut opt = AnyOptimizer::build(
        engine.options().optimizer,
        params.len(),
        engine.options().lr,
    );
    let mut grads = Vec::new();
    let sampler = w.sampler();
    let norm = w.arch.normalization();
    let dim = ds.feat_dim();
    let dims = [dim, HIDDEN, ds.num_classes];
    let cache = w
        .uses_train_cache()
        .then(|| FeatureCache::new(w.config(ds).cache_rows, dim));
    let order = random_partition(&ds.train_nodes, 1, seed).swap_remove(0);
    let batches: Vec<&[u32]> = order.chunks_exact(BATCH).collect();
    // Layer-1 weights at the real shapes for the kernel timings.
    let k1 = match w.arch {
        Arch::Sage => 2 * dim,
        _ => dim,
    };
    let w1 = Matrix::xavier(k1, HIDDEN, seed);
    let b1 = vec![0.0f32; HIDDEN];
    let gather = |ids: &[u32]| match &cache {
        Some(c) => Matrix::from_vec(ids.len(), dim, c.gather_rows(&ds.features, ids)),
        None => Matrix::from_vec(ids.len(), dim, ds.features.gather(ids).data().to_vec()),
    };
    let mut scratch = SamplerScratch::new();
    let stream = SeedSequence::new(seed);

    let mut covered = 0.0;
    let mut start = Instant::now();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for i in 0..REPLAY_WARM + batches.len() {
        let recording = i >= REPLAY_WARM;
        if i == REPLAY_WARM {
            // Per-epoch graph set-up as the engine pays it: a fresh clone,
            // then the symmetry and degree-norm caches it resets.
            start = Instant::now();
            covered = 0.0;
            for _ in 0..GRAPH_REPS {
                let (g, d) = timed(&mut covered, || ds.graph.clone());
                r.clone_ms.push(d * 1e3);
                let (_, d) = timed(&mut covered, || g.is_symmetric());
                r.symmetry_ms.push(d * 1e3);
                let (_, d) = timed(&mut covered, || g.inv_sqrt_degrees().len());
                r.degree_norm_ms.push(d * 1e3);
            }
        }
        let seeds = batches[i.saturating_sub(REPLAY_WARM) % batches.len()];
        let allocs0 = scratch.allocs();
        let t = Instant::now();
        let run = SampleRun::new(stream.child(i as u64), &mut scratch).with_norm(norm);
        let view = sampler.sample_into(&ds.graph, seeds, run);
        let sample_s = t.elapsed().as_secs_f64();
        covered += sample_s;
        let (owned, to_owned_s) = timed(&mut covered, || view.to_owned());
        let ids = view.input_nodes();
        let stats0 = cache.as_ref().map(FeatureCache::stats);
        let (x, gather_s) = timed(&mut covered, || gather(ids));
        if let (Some(c), Some(s0)) = (&cache, &stats0) {
            let d = c.stats().delta(s0);
            hits += d.hits;
            lookups += d.lookups();
        }
        // The forward pass consumes its input, so it gets its own gather.
        let (x_fwd, _) = timed(&mut covered, || gather(ids));
        let (_, forward_s) = timed(&mut covered, || {
            model.forward_gathered_view(&view, x_fwd, None)
        });

        // Layer 1's aggregation and GEMM through the dispatch policy.
        let adj = layer_adj(&view, 0);
        let mut agg = Matrix::zeros(adj.rows(), dim);
        let (_, agg_s) = timed(&mut covered, || {
            policy.aggregate_view_into(&adj, &x, None, &mut agg)
        });
        let mut z = Matrix::zeros(adj.rows(), HIDDEN);
        let (_, gemm_s) = timed(&mut covered, || match w.arch {
            Arch::Sage => {
                policy.sage_gemm_into(&x, &agg, &w1, Epilogue::bias_relu(&b1), None, &mut z)
            }
            _ => policy.gemm_into(&agg, &w1, Epilogue::bias_relu(&b1), None, &mut z),
        });

        let shapes = layer_shapes(&view, &dims);
        let (edges, meta) = (view.total_edges(LAYERS), view.metadata_bytes());
        let rows = ids.len();
        let (step, step_s) = timed(&mut covered, || {
            model.train_step_gathered(&owned, x, &ds.labels, None)
        });
        let (_, opt_s) = timed(&mut covered, || {
            model.grads_flat(&mut grads);
            opt.step(&mut params, &grads);
            model.set_params_flat(&params);
        });
        if !recording {
            continue;
        }
        r.losses_finite &= step.loss.is_finite();
        r.scratch_allocs += scratch.allocs() - allocs0;
        r.sample_ms.push(sample_s * 1e3);
        r.edges += edges;
        r.to_owned_ms.push(to_owned_s * 1e3);
        r.metadata_bytes.push(meta as f64);
        r.gather_ms.push(gather_s * 1e3);
        r.gather_bytes += (rows * dim * std::mem::size_of::<f32>()) as f64;
        r.forward_ms.push(forward_s * 1e3);
        r.step_ms.push(step_s * 1e3);
        r.backward_ms.push((step_s - forward_s) * 1e3);
        r.optimizer_ms.push(opt_s * 1e3);
        r.step_flops += step_flops(&shapes, w.arch);
        let s0 = &shapes[0];
        r.aggregate_flops += 2.0 * (s0.nnz * dim) as f64;
        r.aggregate_s += agg_s;
        r.gemm_flops += 2.0 * (s0.n_dst * k1 * HIDDEN) as f64;
        r.gemm_s += gemm_s;
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r.covered_s = covered;
    r.cache_hit_rate = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    r
}
