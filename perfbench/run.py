#!/usr/bin/env python3
"""Builds and runs the streambal benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package (perfbench/) is built
from source with `cargo build --release --offline` into $CARGO_TARGET_DIR
(default `.bench_build`), then run once. Its standard output is passed
through: metadata lines starting with `#`, then one JSON result line.
A traced run also writes its spans to
`<target dir>/perfbench-traces/<workload>-seed<n>.jsonl`.

Exit codes: 0 ok, 1 build failure or correctness violation, 2 bad
arguments, 3 invalid run (the generator ran past its lag bound).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["proxy-small", "dataflow-straggler", "control-wide"]
# The benchmark process must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")
    return args


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_version():
    """The commit when the tree is a git checkout, else a hash of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
        if commit:
            return commit
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1

    meta = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": source_version(),
        "seed": args.seed,
        "network": "loopback",
    }
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--meta", json.dumps(meta),
    ]
    if args.trace:
        trace_file = "%s-seed%d.jsonl" % (args.workload, args.seed)
        cmd += ["--trace-out", os.path.join(target, "perfbench-traces", trace_file)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
