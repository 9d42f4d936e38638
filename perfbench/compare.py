#!/usr/bin/env python3
"""Run-to-run comparison of two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of several runs, one file per
run (as `run.py` prints it). Runs are grouped by workload. For every
end-to-end metric of `BENCHMARK.json` the two sets' medians are compared:
the new set regresses when its median is worse than the base median by more
than the metric's `bound` (a share of the base median). `compare()` can
also be given a bound for a per-layer metric, which `BENCHMARK.json` leaves
without one (the self-test does so for the stub's `p50_us.light`). Results
whose host fingerprints (CPU, nproc, rustc, profile; not the commit) differ
are never compared. Runs that flag themselves invalid (a `# valid false` line: the
driver lagged its schedule at the light rate, so the host, not the program,
set the figures) are left out; a workload with fewer than `MIN_VALID` valid
runs in either set is not compared. Also reports each set's spread, the
distance between its first and third quartile as a share of its median.

Exit code 0 when nothing regressed, 1 when something did, 2 on bad input.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_VALID = 3


def load_spec(extra=None):
    """{name: metric} of the end-to-end metrics, plus the per-layer metrics
    named in `extra` ({name: bound}) with that bound."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    for name, bound in (extra or {}).items():
        metrics[name] = dict(layers[name], bound=bound)
    return metrics


def load_runs(directory):
    """{workload: [metrics]} of the valid runs, {workload: invalid count}
    and the set of host fingerprints seen (the fingerprint without its
    commit: two commits on one host compare)."""
    runs, invalid, prints = {}, {}, set()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = [l.strip() for l in f if l.strip()]
        if not lines:
            continue
        workload, valid = "stub", True
        for line in lines:
            if line.startswith("# fingerprint "):
                host = json.loads(line[len("# fingerprint "):])
                host.pop("commit", None)
                prints.add(json.dumps(host, sort_keys=True))
            elif line.startswith("workload "):
                workload = line.split()[1]
            elif line.startswith("# valid "):
                valid = line.split()[2] == "true"
        if not valid:
            invalid[workload] = invalid.get(workload, 0) + 1
            continue
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(workload, []).append(metrics)
    return runs, invalid, prints


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(base_dir, new_dir, out=sys.stdout, extra=None):
    """Prints the comparison; returns the number of regressions, or -1 when
    the two sets may not be compared. `extra` is {per-layer name: bound}."""
    spec = load_spec(extra)
    base, base_invalid, base_prints = load_runs(base_dir)
    new, new_invalid, new_prints = load_runs(new_dir)
    if base_prints != new_prints or len(base_prints) > 1:
        print(f"fingerprints differ: {sorted(base_prints)} vs {sorted(new_prints)}", file=out)
        return -1
    regressions = 0
    for workload in sorted((set(base) | set(base_invalid)) & (set(new) | set(new_invalid))):
        counts = (len(base.get(workload, [])), len(new.get(workload, [])))
        skipped = (base_invalid.get(workload, 0), new_invalid.get(workload, 0))
        if any(skipped):
            print(f"{workload:14} left out invalid runs: {skipped[0]} base, {skipped[1]} new",
                  file=out)
        if min(counts) < MIN_VALID:
            print(f"{workload:14} too few valid runs to compare: {counts[0]} base, "
                  f"{counts[1]} new (need {MIN_VALID})", file=out)
            return -1
        for name in sorted(set(base[workload][0]) & set(new[workload][0])):
            if name not in spec:
                continue
            b = [r[name] for r in base[workload]]
            n = [r[name] for r in new[workload]]
            mb, mn = statistics.median(b), statistics.median(n)
            bound = spec[name]["bound"]
            lower = spec[name]["better"] == "lower"
            change = ((mn - mb) if lower else (mb - mn)) / mb if mb else 0.0
            worse = change > bound
            regressions += worse
            print(f"{workload:14} {name:16} base {mb:12.3f} new {mn:12.3f} "
                  f"worse by {change:+7.1%} (bound {bound:.0%}) "
                  f"spread {spread(b):5.1%}/{spread(n):5.1%} "
                  f"{'REGRESSED' if worse else 'ok'}", file=out)
    return regressions


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    regressions = compare(sys.argv[1], sys.argv[2])
    if regressions < 0:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
