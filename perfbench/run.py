#!/usr/bin/env python3
"""Serving-path benchmark runner.

Builds the `perfbench` binary from source, runs one workload (or all of
them), gates its outcome digest, records the environment, and prints one
JSON result as the last line of standard output:

    python3 perfbench/run.py --workload tiny-rounds --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 3
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["steady-large", "tiny-rounds", "single-task", "cluster-bands"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def build():
    """Builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "platform", "Cargo.toml")):
        fail("the repository's crates are missing; nothing to benchmark")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(ROOT, target, "release", "perfbench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def recorded_digest(workload, seed):
    path = os.path.join(HERE, "digests.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def invoke(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (exit code, parsed last line or None)."""
    argv = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", *extra]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 124, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload} printed no result (exit {done.returncode})")
        return done.returncode or 1, None


def source_hash():
    """A content hash of everything the benchmark builds from, standing
    in for the commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name)
            for d, dirs, names in os.walk(path)
            if "out" not in os.path.relpath(d, HERE).split(os.sep)
            for name in names
            if name.endswith((".rs", ".toml", ".py", ".json"))
        )
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def environment(args, result):
    commit = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(ROOT, ".git")) else ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "commit": commit or None,
        "source_sha256": source_hash(),
        "rustc": command_output(["rustc", "-V"]),
        "rounds": result["rounds"],
        "digest": result["digest"],
        "digest_rounds": result["digest_rounds"],
        "checks": result["checks"],
        "metrics": result["metrics"],
        "partitions": result["partitions"],
    }


def run_one(args):
    binary = build()
    expected = recorded_digest(args.workload, args.seed)
    extra = ["--expect-digest", expected] if expected else []
    code, result = invoke(binary, args.workload, args.seed, args.seconds, args.trace, extra)
    if result is None:
        sys.exit(code or 1)
    names = spec()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names
               if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
    for check in result["checks"]:
        if not check["ok"]:
            log(f"check {check['name']} failed: {check['detail']}")
    if missing:
        log(f"metrics missing or with the wrong unit: {missing}")
    record = environment(args, result)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(out, name), "w") as f:
        json.dump(record, f, indent=1)
    print("record: " + json.dumps({k: record[k] for k in [
        "workload", "seed", "run_seconds", "trace", "nproc", "commit", "source_sha256",
        "rustc", "rounds", "digest", "digest_rounds"]}))
    for m in names:
        got = result["metrics"].get(m["name"])
        if got:
            print(f"  {m['name']:44s} {got['value']:>16.6g} {got['unit']:6s} "
                  f"(n={got['samples']}, q1={got['q1']:.6g}, median={got['median']:.6g}, "
                  f"q3={got['q3']:.6g})")
    correct = result["ok"] and code == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in names if m["name"] in result["metrics"]},
    }))
    sys.exit(0 if correct else 1)


def run_all(args):
    """Runs every workload, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "1" if args.trace else "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= result["correct"] and done.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


def self_test():
    """Smoke checks of the benchmark itself, on tiny inputs."""
    binary = build()
    bench = spec()
    problems = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        print(f"== {workload}")
        digests = {}
        for trace in (False, True):
            code, result = invoke(binary, workload, 1, 1, trace, ["--smoke"])
            expect(code == 0 and result is not None and result["ok"],
                   f"trace={int(trace)} run passes its outcome checks")
            if result is None:
                continue
            digests[trace] = result["digest"]
            names = bench["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in names
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, f"trace={int(trace)} prints every metric with its unit "
                                f"{missing or ''}")
            for part in result["partitions"]:
                rows = part["rows"]
                total = sum(ns for _, ns in rows)
                sums = abs(total - part["total_ns"]) <= 1e-6 * max(1.0, abs(part["total_ns"]))
                measured = all(ns >= 0 for _, ns in rows[:-1])
                expect(sums and measured and rows[-1][0].endswith(("unattributed", "idle",
                                                                   "other", "self")),
                       f"partition {part['name']} sums to its total with a residual row "
                       f"({rows[-1][0]})")
            if trace:
                expect(bool(result["partitions"]), "traced run reports partitions")
        expect(len(set(digests.values())) == 1, "traced and untraced digests agree")
        code, result = invoke(binary, workload, 1, 1, False, ["--smoke", "--mutate"])
        expect(code != 0 and result is not None and not result["ok"],
               "an altered outcome trips the oracle check")
        if digests.get(False):
            code, result = invoke(binary, workload, 1, 1, False,
                                  ["--smoke", "--mutate", "--expect-digest", digests[False]])
            expect(code != 0 and result is not None and any(
                c["name"] == "recorded_digest" and not c["ok"] for c in result["checks"]),
                "an altered outcome trips the recorded digest")
    print(json.dumps({"self_test": "pass" if not problems else "fail", "problems": problems}))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    args.trace = bool(args.trace)
    if args.workload == "all":
        run_all(args)
    run_one(args)


if __name__ == "__main__":
    main()
