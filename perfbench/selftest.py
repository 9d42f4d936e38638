#!/usr/bin/env python3
"""Self-test of the benchmark against its own stub server.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark, then drives
`perfbench stub-run` (a stub HTTP server with a fixed service time, no
program code involved) and checks two things:

(a) an injected 60 ms stall raises the reported p99 by at least half of the
    queueing a FIFO model of the same schedule predicts, while the p99 a
    send-timed (coordinated-omission) driver would report stays far below;
(b) a 25% longer service time fails the run-to-run comparison of
    `compare.py` on `p50_us.light` at a 20% bound, and a second set at the
    unchanged service time passes it. `p50_us.light` is a per-layer metric
    of `BENCHMARK.json`, so the bound is given to `compare.py` here.

Exit code 0 when both cases are detected.
"""

import json
import os
import shutil
import subprocess
import sys

import compare
import run

SEEDS = [1, 2, 3, 4, 5]
SECONDS = 4
STALL_MS = 60
# Service time of the comparison case; long enough that the stub's own
# service time dominates the request cost, as a program regression would.
SERVICE_US = 5000
SLOW_US = SERVICE_US * 1.25
RATE = 100
# The bound the comparison case gives `p50_us.light`.
BOUND = {"p50_us.light": 0.2}


def stub_run(exe, *args):
    cmd = [exe, "stub-run", *map(str, args)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {done.stderr}")
    return done.stdout


def parse(out):
    notes = {}
    for line in out.splitlines():
        if line.startswith("# p99 timed from send"):
            notes["send"] = float(line.split(":")[1].split()[0])
        elif line.startswith("# p99 of a FIFO queue model"):
            notes["model"] = float(line.split(":")[1].split()[0])
    result = json.loads(out.strip().splitlines()[-1])
    notes["p99"] = result["metrics"]["p99_us.light"]["value"]
    return notes


def stall_case(exe):
    base = parse(stub_run(exe, "--service-us", 500, "--seed", 1, "--seconds", SECONDS))
    stalled = parse(stub_run(exe, "--service-us", 500, "--stall-ms", STALL_MS,
                             "--seed", 1, "--seconds", SECONDS))
    raised = stalled["p99"] - base["p99"]
    expected = stalled["model"] - base["model"]
    send_raised = stalled["send"] - base["send"]
    ok = raised >= 0.5 * expected and send_raised < 0.5 * raised
    print(f"(a) stall {STALL_MS} ms: p99 from due raised by {raised:.0f} us "
          f"(model {expected:.0f} us); p99 from send raised by {send_raised:.0f} us "
          f"-> {'detected' if ok else 'NOT DETECTED'}")
    return ok


def write_set(exe, directory, service_us, prints):
    os.makedirs(directory)
    for seed in SEEDS:
        out = stub_run(exe, "--service-us", service_us, "--rate", RATE,
                       "--seed", seed, "--seconds", SECONDS)
        with open(os.path.join(directory, f"{seed}.txt"), "w") as f:
            f.write(prints + "\n" + out)


def regression_case(exe, work):
    prints = "# fingerprint " + json.dumps(run.fingerprint(), sort_keys=True)
    base, same, slow = (os.path.join(work, d) for d in ("base", "same", "slow"))
    write_set(exe, base, SERVICE_US, prints)
    write_set(exe, same, SERVICE_US, prints)
    write_set(exe, slow, SLOW_US, prints)
    print("(b) unchanged service time:")
    same_regressions = compare.compare(base, same, extra=BOUND)
    print(f"(b) service time +25% ({SERVICE_US} -> {SLOW_US:.0f} us):")
    slow_regressions = compare.compare(base, slow, extra=BOUND)
    ok = same_regressions == 0 and slow_regressions > 0
    print(f"(b) -> {'detected' if ok else 'NOT DETECTED'}")
    return ok


def main():
    exe = run.build()
    if exe is None:
        return 1
    work = os.path.join(".bench_work", f"selftest-{os.getpid()}")
    try:
        ok = stall_case(exe) & regression_case(exe, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
