#!/usr/bin/env python3
"""Compare a change against its parent with identical benchmark code.

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload spectral-256 --pairs 10 [--seed-base 1000]

Both directories must hold the same ``BENCHMARK.json`` and ``perfbench/``
files. Pair i runs both sides on seed ``seed-base + i``; the side that
runs first alternates from pair to pair. For each end-to-end metric the
script prints each side's median and quartiles, the pairs the change
won (ties count for neither), and a verdict:

* ``gain``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: the parent's own spread (interquartile range over its
  median) exceeds the bound, unless every change run beat every parent run;
* ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_digest(root: Path) -> str:
    files = [root / "BENCHMARK.json"] + sorted(
        p for p in (root / "perfbench").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: run failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: output check failed on seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(spec, parent, change):
    better = (lambda c, p: c < p) if spec["better"] == "lower" else (lambda c, p: c > p)
    wins = sum(1 for c, p in zip(change, parent) if better(c, p))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    worse_by = (c_med - p_med) / p_med * (1 if spec["better"] == "lower" else -1)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q[2] - p_q[0]:
        label = "gain"
    elif worse_by > spec["bound"]:
        label = "regression"
    elif (p_q[2] - p_q[0]) / p_med > spec["bound"] and not all(
            better(c, p) for c in change for p in parent):
        label = "unresolved"
    else:
        label = "no regression"
    return wins, label


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()
    if args.pairs < 10:
        raise SystemExit("use at least 10 pairs")
    if bench_digest(args.parent) != bench_digest(args.change):
        raise SystemExit("the two sides have different benchmark files")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(getattr(args, side), args.workload,
                                       args.seed_base + i, seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, {seconds} s per run")
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, label = verdict(m, parent, change)
        pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        print(f"{name:16s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  "
              f"change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']}  "
              f"change won {wins}/{args.pairs}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
