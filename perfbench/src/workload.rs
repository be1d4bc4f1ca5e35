//! The benchmark's workloads: one dataset, sampler and model each, trained
//! with the engine and then served from the trained checkpoint.

use std::sync::Arc;

use argo_engine::{Config, Engine, EngineOptions};
use argo_graph::datasets::{DatasetSpec, FLICKR, REDDIT};
use argo_graph::Dataset;
use argo_nn::{AnyModel, Arch, OptimizerKind};
use argo_sample::{NeighborSampler, Sampler, ShadowSampler};
use argo_serve::{ServeSession, ServeSpec, WallClock};

pub const HIDDEN: usize = 128;
pub const LAYERS: usize = 2;
pub const BATCH: usize = 1024;

/// Serving settings shared by both workloads.
pub const SERVE_MAX_BATCH: usize = 8;
pub const SERVE_DEADLINE_US: u64 = 2_000;
pub const SERVE_RESULT_CACHE: usize = 4_096;
pub const SERVE_FEATURE_CACHE: usize = 8_192;

pub struct Workload {
    pub name: &'static str,
    spec: DatasetSpec,
    scale: f64,
    pub arch: Arch,
    fanouts: [usize; LAYERS],
    /// Neighbor sampling when false, ShaDow induced subgraphs when true.
    shadow: bool,
    /// Training feature-cache rows as a share of the graph's nodes (0 = off).
    train_cache_share: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sage-reddit",
        spec: REDDIT,
        scale: 0.2,
        arch: Arch::Sage,
        fanouts: [15, 10],
        shadow: false,
        train_cache_share: 0.0,
    },
    Workload {
        name: "shadow-gcn-flickr",
        spec: FLICKR,
        scale: 0.25,
        arch: Arch::Gcn,
        fanouts: [10, 5],
        shadow: true,
        train_cache_share: 0.25,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn synthesize(&self, seed: u64) -> Arc<Dataset> {
        Arc::new(self.spec.synthesize(self.scale, seed))
    }

    pub fn sampler(&self) -> Arc<dyn Sampler> {
        if self.shadow {
            Arc::new(ShadowSampler::new(self.fanouts.to_vec(), LAYERS))
        } else {
            Arc::new(NeighborSampler::new(self.fanouts.to_vec()))
        }
    }

    pub fn engine(&self, dataset: &Arc<Dataset>, seed: u64) -> Engine {
        let opts = EngineOptions::builder()
            .with_kind(self.arch)
            .with_hidden(HIDDEN)
            .with_num_layers(LAYERS)
            .with_optimizer(OptimizerKind::Adam)
            .with_global_batch(BATCH)
            .with_seed(seed);
        Engine::new(Arc::clone(dataset), self.sampler(), opts)
    }

    /// One rank thread plus one sampler thread, with the workload's
    /// feature cache.
    pub fn config(&self, dataset: &Dataset) -> Config {
        let rows = (dataset.graph.num_nodes() as f64 * self.train_cache_share) as usize;
        Config::new(1, 1, 1).with_cache_rows(rows)
    }

    pub fn uses_train_cache(&self) -> bool {
        self.train_cache_share > 0.0
    }

    /// A single-threaded serving session over `model`. With `caches` off,
    /// both caches are disabled and every request executes inline — the
    /// reference the cached session's responses are checked against.
    pub fn session(
        &self,
        dataset: &Arc<Dataset>,
        model: AnyModel,
        seed: u64,
        clock: Arc<WallClock>,
        caches: bool,
    ) -> ServeSession {
        let builder = ServeSpec::builder(Arc::clone(dataset), self.sampler(), model)
            .normalization(self.arch.normalization())
            .seed(seed)
            .cores(1)
            .max_batch(SERVE_MAX_BATCH)
            .clock(clock);
        if caches {
            builder
                .deadline_us(SERVE_DEADLINE_US)
                .result_cache_entries(SERVE_RESULT_CACHE)
                .feature_cache_rows(SERVE_FEATURE_CACHE)
                .start()
        } else {
            builder.deadline_us(0).start()
        }
    }
}
