//! Bringing your own graph: build a [`argo::graph::Graph`] from raw edges,
//! attach features and labels, and train a GCN with the ShaDow sampler under
//! ARGO — the workflow a downstream user of this library would follow.
//!
//! Run with: `cargo run --release --example custom_dataset`

use std::sync::Arc;

use argo::core::{Argo, ArgoOptions};
use argo::engine::{evaluate_accuracy, Engine, EngineOptions};
use argo::graph::datasets::{Dataset, DatasetSpec};
use argo::graph::features::Features;
use argo::graph::Graph;
use argo::nn::Arch;
use argo::sample::ShadowSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A toy "citation network": `k` topical clusters in a ring, papers cite
/// mostly within their topic, features are noisy topic indicators.
fn build_citation_graph(n: usize, k: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for paper in 0..n as u32 {
        let topic = paper as usize % k;
        let cites = rng.gen_range(3..10);
        for _ in 0..cites {
            // 80% within topic, 20% to a neighboring topic in the ring.
            let target_topic = if rng.gen_bool(0.8) {
                topic
            } else {
                (topic + if rng.gen_bool(0.5) { 1 } else { k - 1 }) % k
            };
            // Pick a random paper of that topic.
            let m = n / k;
            let idx = rng.gen_range(0..m) * k + target_topic;
            if idx as u32 != paper {
                edges.push((paper, idx as u32));
            }
        }
    }
    let graph = Graph::from_edges(n, &edges, true);
    let dim = 24;
    let mut feats = vec![0.0f32; n * dim];
    let mut labels = vec![0u32; n];
    for paper in 0..n {
        let topic = paper % k;
        labels[paper] = topic as u32;
        for d in 0..dim {
            let base = if d % k == topic { 1.0 } else { 0.0 };
            feats[paper * dim + d] = base + rng.gen_range(-0.4..0.4);
        }
    }
    let train: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 0).collect();
    let val: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 1).collect();
    Dataset {
        spec: DatasetSpec {
            name: "toy-citations",
            num_nodes: n,
            num_edges: graph.num_edges(),
            f0: dim,
            f1: 32,
            f2: k,
        },
        graph: Arc::new(graph),
        features: Arc::new(Features::new(feats, dim)),
        labels,
        train_nodes: train,
        val_nodes: val,
        num_classes: k,
    }
}

fn main() {
    let dataset = Arc::new(build_citation_graph(6000, 5, 99));
    println!(
        "custom dataset: {} nodes, {} directed edges, {} topics",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );

    // GCN + ShaDow sampling — the paper's second task family.
    let sampler: Arc<dyn argo::sample::Sampler> = Arc::new(ShadowSampler::new(vec![8, 4], 2));
    let mut engine = Engine::new(
        Arc::clone(&dataset),
        sampler,
        EngineOptions {
            kind: Arch::Gcn,
            hidden: 32,
            num_layers: 2,
            global_batch: 256,
            lr: 5e-3,
            seed: 1,
            ..Default::default()
        },
    );
    let before = evaluate_accuracy(&engine.model(), &dataset, &dataset.val_nodes);
    let mut runtime = Argo::new(ArgoOptions {
        n_search: 5,
        epochs: 15,
        ..Default::default()
    });
    let report = runtime.train(&mut engine, None, |epoch, config, stats| {
        if epoch % 3 == 0 {
            println!(
                "epoch {epoch:>2} {config}: loss {:.4} ({} iterations)",
                stats.loss, stats.iterations
            );
        }
    });
    let after = evaluate_accuracy(&engine.model(), &dataset, &dataset.val_nodes);
    println!(
        "\nARGO picked {} out of {} configurations",
        report.config_opt, report.space_size
    );
    println!("validation accuracy: {before:.3} -> {after:.3}");
    assert!(after > before + 0.2, "GCN should learn the topics");
}
