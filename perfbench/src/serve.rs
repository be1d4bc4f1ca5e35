//! Open-loop and closed-loop clients of a `ServeSession`, run on the one
//! bench thread, plus the cache-off replay that checks served logits.
//!
//! Every input — the hot set, each query's seeds and every arrival time —
//! is fixed from the seed before a run starts. Latency is measured from
//! each request's *due* time, so a stall also charges the requests that
//! were due while it lasted.

use std::collections::HashMap;
use std::sync::Arc;

use argo_core::Error;
use argo_graph::NodeId;
use argo_serve::{Clock, ServeResponse, ServeSession, WallClock};
use argo_tensor::Matrix;

use crate::util::{median, quantile, Rng};

/// Queries that repeat: the share of traffic drawn from the hot set.
const HOT_SHARE: f64 = 0.2;
const HOT_SET: usize = 64;
const MAX_SEEDS: usize = 8;
const WARMUP_QUERIES: usize = 256;
/// Every `REPLAY_STRIDE`-th successful response is replayed on a cache-off
/// session and must match bitwise.
const REPLAY_STRIDE: usize = 16;

/// The query generator: ~80% fresh queries (result-cache misses) and ~20%
/// drawn from a fixed hot set of 64 queries, each of 1–8 distinct seed
/// nodes.
pub struct Mix {
    hot: Vec<Vec<NodeId>>,
    num_nodes: usize,
    rng: Rng,
}

impl Mix {
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5E4E);
        let hot = (0..HOT_SET).map(|_| fresh(&mut rng, num_nodes)).collect();
        Self {
            hot,
            num_nodes,
            rng,
        }
    }

    /// The hot set followed by fresh queries: submitted to every new
    /// session so its caches and the model's workspace are warm.
    pub fn warm_up_queries(&mut self) -> Vec<Vec<NodeId>> {
        let mut queries = self.hot.clone();
        queries.extend(self.queries(WARMUP_QUERIES - HOT_SET));
        queries
    }

    pub fn queries(&mut self, n: usize) -> Vec<Vec<NodeId>> {
        (0..n)
            .map(|_| {
                if self.rng.unit() < HOT_SHARE {
                    self.hot[self.rng.below(HOT_SET)].clone()
                } else {
                    fresh(&mut self.rng, self.num_nodes)
                }
            })
            .collect()
    }

    /// Poisson arrivals at `rate` per second over `seconds`, as offsets in
    /// microseconds from the start of the run.
    pub fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<u64> {
        let mut due = Vec::new();
        let mut t = self.rng.exp(rate);
        while t < seconds {
            due.push((t * 1e6) as u64);
            t += self.rng.exp(rate);
        }
        due
    }
}

/// A query of 1–8 distinct seed nodes.
fn fresh(rng: &mut Rng, num_nodes: usize) -> Vec<NodeId> {
    let k = 1 + rng.below(MAX_SEEDS);
    let mut seeds = Vec::with_capacity(k);
    while seeds.len() < k {
        let v = rng.below(num_nodes) as NodeId;
        if !seeds.contains(&v) {
            seeds.push(v);
        }
    }
    seeds
}

/// What one driven run saw.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub ok: u64,
    pub queue_full: u64,
    pub deadline_exceeded: u64,
    pub other_errors: u64,
    /// Per successful request: completion minus due time, and the due
    /// time itself (from the start of the run).
    pub latency_ms: Vec<f64>,
    pub due_ms: Vec<f64>,
    /// Per request: submission minus due time (how late the generator ran).
    pub late_ms: Vec<f64>,
    /// Per successful request, as the session reports them.
    pub queue_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub result_hits: u64,
    /// Requests per executed micro-batch.
    pub batch_sizes: Vec<f64>,
    /// Responses whose logits were not `seeds x classes` or not finite.
    pub malformed: u64,
    /// A fixed sample of (seeds, logits) for the cache-off replay.
    pub samples: Vec<(Vec<NodeId>, Arc<Matrix>)>,
    pub elapsed_s: f64,
}

impl Run {
    pub fn failed(&self) -> u64 {
        self.queue_full + self.deadline_exceeded + self.other_errors
    }

    /// The backlog grows when the generator falls further behind over the
    /// run: the last quarter of requests was submitted more than 5 ms later
    /// (median) than the first quarter.
    pub fn backlog_grows(&self) -> bool {
        let q = self.late_ms.len() / 4;
        if q == 0 {
            return false;
        }
        let head = median(&self.late_ms[..q]);
        let tail = median(&self.late_ms[self.late_ms.len() - q..]);
        tail > head + 5.0
    }

    /// p99 latency within each of `windows` equal spans of due time.
    pub fn windowed_p99(&self, windows: usize) -> Vec<f64> {
        let span = self.due_ms.iter().copied().fold(0.0, f64::max) / windows as f64;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for (&lat, &due) in self.latency_ms.iter().zip(&self.due_ms) {
            per[((due / span) as usize).min(windows - 1)].push(lat);
        }
        per.iter().map(|w| quantile(w, 0.99)).collect()
    }
}

/// Drives one session; remembers the due time and query of every admitted
/// request until its response comes back.
struct Client<'a> {
    session: &'a mut ServeSession,
    clock: &'a WallClock,
    classes: usize,
    pending: HashMap<u64, (u64, usize)>,
    start_us: u64,
    batch_requests: HashMap<u64, u64>,
    run: Run,
}

impl<'a> Client<'a> {
    fn new(
        session: &'a mut ServeSession,
        clock: &'a WallClock,
        classes: usize,
        start_us: u64,
    ) -> Self {
        Self {
            session,
            clock,
            classes,
            pending: HashMap::new(),
            start_us,
            batch_requests: HashMap::new(),
            run: Run::default(),
        }
    }

    fn submit(&mut self, queries: &[Vec<NodeId>], index: usize, due_us: u64) {
        self.run.attempted += 1;
        match self.session.submit(queries[index].clone(), None) {
            Ok(s) => {
                self.pending.insert(s.request, (due_us, index));
                self.complete(queries, s.completed);
            }
            Err(e) => self.count_error(&e),
        }
    }

    /// Executes the oldest micro-batch if its deadline has passed.
    fn poll_due(&mut self, queries: &[Vec<NodeId>]) {
        if self
            .session
            .next_deadline_us()
            .is_some_and(|d| self.clock.now_us() >= d)
        {
            let done = self.session.poll(None);
            self.complete(queries, done);
        }
    }

    fn count_error(&mut self, e: &Error) {
        match e {
            Error::QueueFull(_) => self.run.queue_full += 1,
            Error::DeadlineExceeded(_) => self.run.deadline_exceeded += 1,
            _ => self.run.other_errors += 1,
        }
    }

    fn complete(&mut self, queries: &[Vec<NodeId>], done: Vec<Result<ServeResponse, Error>>) {
        if done.is_empty() {
            return;
        }
        let now = self.clock.now_us();
        for r in done {
            match r {
                Ok(resp) => {
                    let Some((due, index)) = self.pending.remove(&resp.request) else {
                        self.run.other_errors += 1;
                        continue;
                    };
                    let seeds = &queries[index];
                    let m = &resp.logits;
                    if m.rows() != seeds.len()
                        || m.cols() != self.classes
                        || !m.data().iter().all(|x| x.is_finite())
                    {
                        self.run.malformed += 1;
                    }
                    self.run.ok += 1;
                    if resp.cache_hit {
                        self.run.result_hits += 1;
                    }
                    self.run
                        .latency_ms
                        .push(now.saturating_sub(due) as f64 / 1e3);
                    self.run
                        .due_ms
                        .push(due.saturating_sub(self.start_us) as f64 / 1e3);
                    self.run.queue_ms.push(resp.queue_seconds * 1e3);
                    self.run
                        .exec_ms
                        .push((resp.latency_seconds - resp.queue_seconds) * 1e3);
                    *self.batch_requests.entry(resp.batch).or_default() += 1;
                    if self.run.ok as usize % REPLAY_STRIDE == 1 {
                        self.run
                            .samples
                            .push((seeds.clone(), Arc::clone(&resp.logits)));
                    }
                }
                Err(e) => self.count_error(&e),
            }
        }
    }

    /// Lets the last micro-batch age to its deadline, as it would without
    /// a shutdown, then drains whatever is left.
    fn finish(mut self, queries: &[Vec<NodeId>]) -> Run {
        while let Some(d) = self.session.next_deadline_us() {
            wait_until(self.clock, d);
            self.poll_due(queries);
        }
        let rest = self.session.drain(None);
        self.complete(queries, rest);
        self.run.elapsed_s = self.clock.now_us().saturating_sub(self.start_us) as f64 / 1e6;
        self.run.batch_sizes = self.batch_requests.values().map(|&n| n as f64).collect();
        // Anything never answered counts as failed.
        self.run.other_errors += self.pending.len() as u64;
        self.run
    }
}

/// Spins until the clock reads `target_us`. A sleeping thread can wake
/// milliseconds late, which would show up as generator lateness.
fn wait_until(clock: &WallClock, target_us: u64) {
    while clock.now_us() < target_us {
        std::hint::spin_loop();
    }
}

/// Open loop: request `i` is due at `start + due_us[i]` whether or not
/// earlier requests have finished.
pub fn open_loop(
    session: &mut ServeSession,
    clock: &WallClock,
    classes: usize,
    queries: &[Vec<NodeId>],
    due_us: &[u64],
) -> Run {
    let start = clock.now_us() + 1_000;
    let mut d = Client::new(session, clock, classes, start);
    for (i, &offset) in due_us.iter().enumerate() {
        let due = start + offset;
        loop {
            d.poll_due(queries);
            let now = clock.now_us();
            if now >= due {
                break;
            }
            let next = d.session.next_deadline_us().map_or(due, |dl| dl.min(due));
            wait_until(clock, next);
        }
        d.run
            .late_ms
            .push(clock.now_us().saturating_sub(due) as f64 / 1e3);
        d.submit(queries, i, due);
    }
    d.finish(queries)
}

/// Closed loop at saturation: the one client submits back to back (a full
/// micro-batch executes inside the submit that fills it) for `seconds`.
pub fn closed_loop(
    session: &mut ServeSession,
    clock: &WallClock,
    classes: usize,
    queries: &[Vec<NodeId>],
    seconds: f64,
) -> Run {
    let start = clock.now_us();
    let stop = start.saturating_add((seconds * 1e6) as u64);
    let mut d = Client::new(session, clock, classes, start);
    for i in 0..queries.len() {
        let now = clock.now_us();
        if now >= stop {
            break;
        }
        d.submit(queries, i, now);
    }
    d.finish(queries)
}

/// Replays sampled requests on `reference` (both caches off, inline
/// execution) and counts responses whose logits differ in any bit.
pub fn replay_mismatches(
    reference: &mut ServeSession,
    samples: &[(Vec<NodeId>, Arc<Matrix>)],
) -> usize {
    samples
        .iter()
        .filter(|(seeds, logits)| {
            let fresh = reference
                .submit(seeds.clone(), None)
                .ok()
                .and_then(|s| s.completed.into_iter().next())
                .and_then(Result::ok);
            !fresh.is_some_and(|r| {
                r.logits.rows() == logits.rows()
                    && r.logits
                        .data()
                        .iter()
                        .zip(logits.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
        .count()
}
