#!/usr/bin/env python3
"""Compare fresh BENCH_*.json artifacts against the committed ones.

Walks both JSON trees in parallel, collects every numeric leaf, and
classifies each metric as higher-better (throughput, speedup,
effective_parallelism) or lower-better (latency percentiles,
growth ratios, per-solve work counts). A metric that moved in the
bad direction by more than --threshold (default 20%) is reported as
a regression.

Usage:
    scripts/bench_diff.py [--ref REV] [--threshold PCT] [--fail]
                          BENCH_a.json [BENCH_b.json ...]

The committed baseline is read via `git show REV:FILE` (default
HEAD), so run this after regenerating the artifacts but before
committing them. Exit code: 0 normally; 1 with --fail when any
regression was found; 2 on usage/IO errors.

Bench numbers are machine- and load-sensitive: treat the output as
advisory on shared machines and reserve --fail for pinned hardware.
Counters and config echoes (trials, seeds, solved counts, worker
counts) are ignored; only rate/latency-shaped keys are compared.
"""

import argparse
import json
import subprocess
import sys

# Key substrings that mark a metric and its good direction.
HIGHER_BETTER = (
    "per_sec",
    "speedup",
    "effective_parallelism",
)
LOWER_BETTER = (
    "p50",
    "p95",
    "_ms",
    "_us",
    "growth_ratio",
    "overhead_pct",
    "_per_solve",
)


def direction(key):
    """'up', 'down', or None when the key is not a tracked metric."""
    leaf = key.rsplit(".", 1)[-1]
    for mark in HIGHER_BETTER:
        if mark in leaf:
            return "up"
    for mark in LOWER_BETTER:
        if mark in leaf:
            return "down"
    return None


def numeric_leaves(node, prefix=""):
    """Flatten a JSON tree to {dotted.path: number}."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            # Prefer a stable identity over the list index when the
            # element carries one (workload name, worker count, ...).
            tag = i
            if isinstance(value, dict):
                for id_key in ("name", "workers", "threads"):
                    if id_key in value:
                        tag = f"{id_key}={value[id_key]}"
                        break
            out.update(numeric_leaves(value, f"{prefix}{tag}."))
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        out[prefix[:-1]] = float(node)
    return out


def committed_text(ref, path):
    try:
        return subprocess.run(
            ["git", "show", f"{ref}:{path}"],
            capture_output=True, text=True, check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None


def compare(path, ref, threshold):
    """Return (regressions, improvements, compared) for one file."""
    baseline_text = committed_text(ref, path)
    if baseline_text is None:
        print(f"{path}: no committed baseline at {ref}; skipping")
        return [], [], 0
    try:
        fresh = json.load(open(path))
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: cannot read fresh artifact: {err}",
              file=sys.stderr)
        sys.exit(2)
    old = numeric_leaves(json.loads(baseline_text))
    new = numeric_leaves(fresh)

    regressions, improvements, compared = [], [], 0
    for key in sorted(old.keys() & new.keys()):
        sense = direction(key)
        if sense is None or old[key] == 0:
            continue
        compared += 1
        change = (new[key] - old[key]) / abs(old[key])
        bad = -change if sense == "up" else change
        line = (f"{path}:{key}  {old[key]:.3f} -> {new[key]:.3f} "
                f"({change:+.1%})")
        if bad > threshold:
            regressions.append(line)
        elif bad < -threshold:
            improvements.append(line)
    return regressions, improvements, compared


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="fresh bench artifacts to compare")
    parser.add_argument("--ref", default="HEAD",
                        help="git revision holding the baseline "
                             "(default HEAD)")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="regression threshold in percent "
                             "(default 20)")
    parser.add_argument("--fail", action="store_true",
                        help="exit 1 when any regression is found")
    args = parser.parse_args()
    threshold = args.threshold / 100.0

    all_regressions = []
    for path in args.files:
        regressions, improvements, compared = compare(
            path, args.ref, threshold)
        status = (f"{path}: {compared} metrics vs {args.ref}, "
                  f"{len(regressions)} regression(s), "
                  f"{len(improvements)} improvement(s)")
        print(status)
        for line in improvements:
            print(f"  improved   {line}")
        for line in regressions:
            print(f"  REGRESSED  {line}")
        all_regressions.extend(regressions)

    if all_regressions:
        print(f"bench_diff: {len(all_regressions)} metric(s) "
              f"regressed more than {args.threshold:.0f}%"
              + ("" if args.fail else " (advisory)"))
        if args.fail:
            return 1
    else:
        print("bench_diff: no regressions beyond "
              f"{args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
