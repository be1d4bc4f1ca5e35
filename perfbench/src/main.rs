//! argo-perfbench — end-to-end training + serving benchmark for the ARGO
//! runtime, with a separate traced run that attributes time to layers.
//!
//! ```text
//! argo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` measures the per-layer metrics (see `layers.rs`). Human-
//! readable report lines start with `#`; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The process exits non-zero when any correctness check fails.

mod layers;
mod serve;
mod util;
mod workload;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use argo_engine::{evaluate_accuracy, Engine, EpochStats};
use argo_graph::Dataset;
use argo_serve::{ServeSession, WallClock};

use serve::{closed_loop, open_loop, replay_mismatches, Mix, Run};
use util::{describe, fingerprint, median, peak_rss_mb, quantile, Outcome};
use workload::{Workload, BATCH};

/// Set-ups before the first round; each round adds one more, and
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;
/// Measurement rounds: at least this many, then until this share of
/// `--seconds` has passed; inputs are generated for at most `MAX_ROUNDS`.
const MIN_ROUNDS: usize = 3;
const ROUNDS_SHARE: f64 = 0.85;
const MAX_ROUNDS: usize = 24;
/// Per round: queries that re-warm the session after the round's training
/// epochs (not measured), then seconds of open-loop traffic at the
/// reference rate, and of closed-loop traffic for capacity.
const ROUND_REWARM_QUERIES: usize = 256;
const ROUND_REFERENCE_S: f64 = 1.0;
const ROUND_CAPACITY_S: f64 = 0.5;
/// Closed-loop queries generated per second of capacity traffic: well
/// above what one bench thread can serve.
const CAPACITY_CEILING_RPS: f64 = 12_000.0;
/// The reference traffic's p99 is taken per window of due time;
/// `serve_p99_ms` is the median across all windows of the run, so a host
/// stall that hits a few windows does not decide it, while a stall the
/// program causes throughout the run still does.
const P99_WINDOW_S: f64 = 0.5;
/// The reference rate (requests/s) of the headline latency metrics, and
/// the ladder of rates checked against the p99 limit after the rounds,
/// each for `LADDER_S` seconds.
const REFERENCE_RPS: f64 = 800.0;
const LADDER_RPS: [f64; 4] = [400.0, 1600.0, 2400.0, 3200.0];
const LADDER_S: f64 = 1.5;
/// Latency limit on p99 for a ladder rate to count as supported.
const SLO_P99_MS: f64 = 25.0;
/// Validation accuracy every trained model must clear (chance is 1/16 on
/// sage-reddit and 1/7 on shadow-gcn-flickr).
const VAL_ACC_FLOOR: f64 = 0.5;
/// A run that has not finished by then is reported as failed.
const RUN_DEADLINE_S: u64 = 160;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got '{t}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: argo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    print_host(&args);

    // A hung epoch (e.g. a panicked sampler thread leaves the rank blocked)
    // must come back as a failed run, not stall whoever runs the benchmark.
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(RUN_DEADLINE_S);
            while !done.load(Ordering::SeqCst) {
                if Instant::now() >= deadline {
                    println!("# FAILED: run exceeded its {RUN_DEADLINE_S}s deadline");
                    println!(
                        "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                    );
                    std::process::exit(3);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    let mut out = Outcome::default();
    if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &mut out);
    } else {
        run_e2e(args.workload, args.seed, args.seconds, &mut out);
    }
    done.store(true, Ordering::SeqCst);
    watchdog.join().expect("watchdog thread panicked");

    for c in &out.checks {
        println!(
            "# check {:<28} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for m in &out.metrics {
        println!(
            "# metric {:<32} {:>14.6} {:<8} {}",
            m.name, m.value, m.unit, m.summary
        );
    }
    let correct = out.correct();
    println!("{}", out.json_line());
    if !correct {
        std::process::exit(1);
    }
}

/// Host and provenance record.
fn print_host(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    println!(
        "# host nproc={nproc} cpu=\"{cpu}\" avx2={avx2} fma={fma} simd_enabled={} ARGO_SIMD={}",
        argo_tensor::DispatchPolicy::default().simd_enabled(),
        std::env::var("ARGO_SIMD").unwrap_or_else(|_| "unset".to_string())
    );
    println!(
        "# run workload={} seed={} seconds={} trace={} commit={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
    );
}

/// Warms a new session's caches and the model's workspace before
/// anything is timed.
pub(crate) fn warm_up(
    session: &mut ServeSession,
    clock: &WallClock,
    mix: &mut Mix,
    classes: usize,
) -> Run {
    closed_loop(
        session,
        clock,
        classes,
        &mix.warm_up_queries(),
        f64::INFINITY,
    )
}

/// Checks every epoch's loss and iteration count.
pub(crate) fn check_epochs(out: &mut Outcome, stats: &[EpochStats], ds: &Dataset) {
    let expected = ds.train_nodes.len() / BATCH;
    let bad_loss = stats.iter().filter(|s| !s.loss.is_finite()).count();
    let bad_iters = stats
        .iter()
        .filter(|s| s.iterations.abs_diff(expected) > 1)
        .count();
    out.attempted += stats.len() as u64;
    out.failed += bad_loss as u64;
    out.check(
        "epoch losses finite",
        bad_loss == 0,
        format!("{bad_loss} of {} epochs non-finite", stats.len()),
    );
    out.check(
        "iterations per epoch",
        bad_iters == 0,
        format!("{bad_iters} of {} epochs off {expected}±1", stats.len()),
    );
}

/// Prints one ladder rate's counts and latency, and returns whether it met
/// the p99 limit with no failure and no growing backlog. `runs` are the
/// stretches served at that rate.
fn rate_verdict(rate: f64, runs: &[Run]) -> bool {
    let sum = |count: fn(&Run) -> u64| runs.iter().map(count).sum::<u64>();
    let latency: Vec<f64> = runs.iter().flat_map(|r| r.latency_ms.clone()).collect();
    let late: Vec<f64> = runs.iter().flat_map(|r| r.late_ms.clone()).collect();
    let grows = runs.iter().any(Run::backlog_grows);
    let met = sum(Run::failed) == 0 && quantile(&latency, 0.99) <= SLO_P99_MS && !grows;
    println!(
        "# serve rate={rate} attempted={} ok={} queue_full={} deadline={} other={} \
         latency_ms {} late_ms {} backlog_grows={grows} slo={}",
        sum(|r| r.attempted),
        sum(|r| r.ok),
        sum(|r| r.queue_full),
        sum(|r| r.deadline_exceeded),
        sum(|r| r.other_errors),
        describe(&latency),
        describe(&late),
        if met { "met" } else { "missed" }
    );
    met
}

/// One set-up as a user pays it: synthesize the dataset, build the engine,
/// start a serving session over its model and warm it. Returns the engine
/// and the seconds it took.
fn set_up(w: &Workload, seed: u64, clock: &Arc<WallClock>, out: &mut Outcome) -> (Engine, f64) {
    let t = Instant::now();
    let ds = w.synthesize(seed);
    let engine = w.engine(&ds, seed);
    let mut session = w.session(&ds, engine.model(), seed, Arc::clone(clock), true);
    let warm = warm_up(
        &mut session,
        clock,
        &mut Mix::new(ds.graph.num_nodes(), seed),
        ds.num_classes,
    );
    let seconds = t.elapsed().as_secs_f64();
    out.attempted += warm.attempted;
    out.failed += warm.failed();
    (engine, seconds)
}

fn run_e2e(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let clock = Arc::new(WallClock::new());

    let mut setup_s = Vec::new();
    let mut kept: Option<Engine> = None;
    for _ in 0..SETUP_REPS {
        let (engine, s) = set_up(w, seed, &clock, out);
        setup_s.push(s);
        kept.get_or_insert(engine);
    }
    let mut engine = kept.expect("set-up ran");
    let ds = Arc::clone(engine.dataset());
    let cfg = w.config(&ds);
    let classes = ds.num_classes;

    // Every serving input is fixed before the first request is due.
    let mut mix = Mix::new(ds.graph.num_nodes(), seed);
    let rounds: Vec<_> = (0..MAX_ROUNDS)
        .map(|_| {
            let due = mix.schedule(REFERENCE_RPS, ROUND_REFERENCE_S);
            let queries = mix.queries(due.len());
            let capacity = mix.queries((CAPACITY_CEILING_RPS * ROUND_CAPACITY_S) as usize);
            (mix.queries(ROUND_REWARM_QUERIES), queries, due, capacity)
        })
        .collect();
    let ladder: Vec<_> = LADDER_RPS
        .iter()
        .map(|&rate| {
            let due = mix.schedule(rate, LADDER_S);
            (rate, mix.queries(due.len()), due)
        })
        .collect();

    // The first epoch's checkpoint is served for the rest of the run.
    let mut all = vec![engine.train_epoch(cfg, None)];
    let mut first = vec![all[0].epoch_time];
    let mut prints = vec![fingerprint(engine.params())];
    let mut session = w.session(&ds, engine.model(), seed, Arc::clone(&clock), true);
    let served = engine.model();
    let mut serving = vec![warm_up(&mut session, &clock, &mut mix, classes)];

    // Rounds until the run's time is used: a set-up and the first epoch of
    // its fresh engine (timed, and compared bitwise with the others), a
    // steady epoch, an open-loop stretch at the reference rate and a
    // closed-loop capacity chunk. Interleaving lets every metric sample the
    // whole run, so a slow stretch of the host does not land on one metric
    // alone.
    let t = Instant::now();
    let mut epochs = Vec::new();
    let mut reference = Vec::new();
    let mut capacity = Vec::new();
    for (rewarm, queries, due, capacity_queries) in &rounds {
        if epochs.len() >= MIN_ROUNDS && t.elapsed().as_secs_f64() >= ROUNDS_SHARE * seconds {
            break;
        }
        let (mut fresh, s) = set_up(w, seed, &clock, out);
        setup_s.push(s);
        let s = fresh.train_epoch(cfg, None);
        first.push(s.epoch_time);
        prints.push(fingerprint(fresh.params()));
        all.push(s);
        drop(fresh);
        let s = engine.train_epoch(cfg, None);
        epochs.push(s.epoch_time);
        all.push(s);

        // Training evicted the session's working set from the CPU caches.
        serving.push(closed_loop(
            &mut session,
            &clock,
            classes,
            rewarm,
            f64::INFINITY,
        ));
        reference.push(open_loop(&mut session, &clock, classes, queries, due));
        let run = closed_loop(
            &mut session,
            &clock,
            classes,
            capacity_queries,
            ROUND_CAPACITY_S,
        );
        capacity.push(run.ok as f64 / run.elapsed_s);
        serving.push(run);
    }
    check_epochs(out, &all, &ds);
    println!("# params fingerprint after epoch 1: {:016x}", prints[0]);
    out.check(
        "bitwise determinism",
        prints.iter().all(|&p| p == prints[0]),
        format!("{} fresh engines agree", prints.len()),
    );
    let windows = (ROUND_REFERENCE_S / P99_WINDOW_S) as usize;
    let p99s: Vec<f64> = reference
        .iter()
        .flat_map(|r| r.windowed_p99(windows))
        .collect();
    let latency: Vec<f64> = reference
        .iter()
        .flat_map(|r| r.latency_ms.clone())
        .collect();
    println!("# serve p99 per {P99_WINDOW_S}s window at {REFERENCE_RPS} rps (ms): {p99s:.3?}");
    println!("# serve closed-loop capacity per chunk (rps): {capacity:.1?}");

    // The ladder: is each rate served within the p99 limit with no failure
    // and no growing backlog? Reported, not a metric: its answer is a step.
    let mut verdicts = vec![(REFERENCE_RPS, rate_verdict(REFERENCE_RPS, &reference))];
    serving.extend(reference);
    for (rate, queries, due) in &ladder {
        let run = open_loop(&mut session, &clock, classes, queries, due);
        verdicts.push((*rate, rate_verdict(*rate, std::slice::from_ref(&run))));
        serving.push(run);
    }
    verdicts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let supported = verdicts
        .iter()
        .take_while(|(_, met)| *met)
        .last()
        .map_or(0.0, |(rate, _)| *rate);
    println!("# serve highest ladder rate meeting p99<={SLO_P99_MS}ms: {supported} rps");

    let val_acc = evaluate_accuracy(&engine.model(), &ds, &ds.val_nodes);
    out.check(
        "val_acc floor",
        val_acc >= VAL_ACC_FLOOR,
        format!("{val_acc:.4} >= {VAL_ACC_FLOOR}"),
    );
    let malformed: u64 = serving.iter().map(|r| r.malformed).sum();
    out.check(
        "served logits seeds x classes, finite",
        malformed == 0,
        format!("{malformed} malformed"),
    );
    let samples: Vec<_> = serving
        .iter()
        .flat_map(|r| r.samples.iter().cloned())
        .collect();
    let mut bare = w.session(&ds, served, seed, Arc::clone(&clock), false);
    let mismatches = replay_mismatches(&mut bare, &samples);
    out.check(
        "cache-off replay bitwise",
        mismatches == 0 && !samples.is_empty(),
        format!("{mismatches} of {} sampled responses differ", samples.len()),
    );
    out.attempted += serving.iter().map(|r| r.attempted).sum::<u64>();
    out.failed += serving.iter().map(Run::failed).sum::<u64>();

    out.sampled("epoch_s", median(&epochs), "s", &epochs);
    out.sampled("first_epoch_s", median(&first), "s", &first);
    out.metric("val_acc", val_acc, "ratio");
    out.sampled("serve_p50_ms", median(&latency), "ms", &latency);
    out.sampled("serve_p99_ms", median(&p99s), "ms", &p99s);
    out.sampled("serve_capacity_rps", median(&capacity), "1/s", &capacity);
    out.sampled("setup_s", median(&setup_s), "s", &setup_s);
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}
