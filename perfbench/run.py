#!/usr/bin/env python3
"""Build and run the ARGO end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own Cargo package
(perfbench/Cargo.toml) built against the repository's crates; it is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: with --trace 0 every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric. `--workload all` runs every workload in
turn and prints a table of the metrics. The exit code is non-zero when a
build fails, a run fails a correctness check or a run exceeds its deadline.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: benchmark build did not finish: {e}")
        return None
    if done.returncode != 0:
        log("error: benchmark build failed")
        return None
    return os.path.join(target, "release", "argo-perfbench")


def provenance():
    """The git commit when the checkout is a repository, and a digest of the
    sources the benchmark builds from in any case."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
    return f"{commit} sources-sha256={digest.hexdigest()[:16]}"


def run_one(binary, workload, seed, seconds, trace, commit):
    """Runs one workload; returns (exit code, parsed result or None, the
    report lines of its metrics)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PERFBENCH_COMMIT=commit)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stdout.write(out)
        log(f"error: {workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, []
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"error: {workload} printed no result (exit code {done.returncode})")
        return done.returncode or 1, None, []
    report = [line for line in lines if line.startswith("# metric ")]
    return done.returncode, result, report


def check_names(spec, result, trace):
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        log(f"error: metrics {sorted(got.items())} differ from BENCHMARK.json "
            f"{sorted(expected.items())}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"error: unknown workload {args.workload!r} (known: {', '.join(names)})")
        return 2

    started = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    log(f"built in {time.monotonic() - started:.1f}s")
    commit = provenance()

    results = {}
    reports = {}
    code = 0
    for w in workloads:
        rc, result, reports[w] = run_one(binary, w, args.seed, args.seconds,
                                         args.trace, commit)
        if result is None:
            return rc
        if result["metrics"] and not check_names(spec, result, args.trace):
            result["correct"] = False
            rc = rc or 1
        code = code or rc
        results[w] = result

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
        return code

    print("# summary: workload, metric, value, unit, and the samples behind it")
    for w, lines in reports.items():
        for line in lines:
            print(f"# {w:<18} {line[len('# metric '):]}")
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
