#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload, or all.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root. The Rust package in `perfbench/` is built in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then
`perfbench run` drives the workload. Standard output carries one
`# fingerprint {...}` line (CPU model, nproc, rustc, profile, commit) and,
last, the result object. `--workload all` runs every workload in turn,
each printing its own lines and result. The exit code is the benchmark's:
non-zero when the build fails, an output check fails or a run errors.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
WORKLOADS = ["browse", "anon-hot"]


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def source_digest(root):
    """A digest of the sources the benchmark builds, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "shims"):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def fingerprint():
    """What a result may only be compared under."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "rustc": rustc,
        "profile": "release",
        "commit": commit or source_digest(os.getcwd()),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    exe = build()
    if exe is None:
        return 1
    host = "# fingerprint " + json.dumps(fingerprint(), sort_keys=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failed = 0
    for workload in workloads:
        print(host, flush=True)
        failed |= run_one(exe, workload, args) != 0
    return int(failed)


def run_one(exe, workload, args):
    """Runs one workload; returns its exit code."""
    cmd = [exe, "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
