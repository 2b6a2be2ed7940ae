"""Benchmark two commits in interleaved pairs and write a BENCH file.

    python3 tools/bench_pairs.py --base <ref> --change <ref> --seeds 50-59 \\
        [--workloads prove,semantics,pipeline] [--trace-seed 50] --out BENCH_<n>.json

Each ref is exported with ``git archive`` into a temporary directory, and
every run is that tree's own ``actbench/run.py`` in a fresh process for the
``run_seconds`` of ``BENCHMARK.json``.  Pair i runs both sides on seed i;
the side that runs first alternates, the base going first on even seeds.
After the pairs, each side gets one traced run per workload.  The file holds
the environment, every run's end-to-end metrics, its minor page faults
(``minor_faults``) and system CPU time (``sys_s``), read from
``getrusage(RUSAGE_CHILDREN)`` before and after the run, the median and
quartiles of each side, the change's wins per metric (ties count for neither
side), a verdict per end-to-end metric and the per-layer metrics of the
traced runs.  Progress, and each workload's table of medians and verdicts,
go to stderr.

A verdict reads one metric on one workload, with its ``BENCHMARK.json``
bound taken relative to the base median:

* ``worse``: the change's median is worse than the base median by more than
  the bound;
* ``unresolved``: the base's interquartile range is wider than the bound,
  and not every change run beats every base run;
* ``better``: the change wins at least 9 of 10 pairs, and its median is
  better than the base median by more than the base's interquartile range;
* ``no worse``: everything else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def export(ref: str, into: Path) -> str:
    """Unpack the tree of a git ref into a directory; returns its commit."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref], check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(tar)) as tf:
        tf.extractall(into)
    return commit


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(tree / "actbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=20 * seconds + 120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}, "
                         f"{proc.stderr.strip()}")
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["failed_frac"] = result["failed"] / result["attempted"]
    out["minor_faults"] = after.ru_minflt - before.ru_minflt
    out["sys_s"] = after.ru_stime - before.ru_stime
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base: list[float], change: list[float], wins: int, sign: int, bound: float) -> str:
    """The reading of one metric's runs, as the module docstring defines it;
    sign is 1 where higher is better, -1 where lower is."""
    b, c = quartiles(base), quartiles(change)
    limit = bound * abs(b["median"])
    gain, spread = sign * (c["median"] - b["median"]), b["q3"] - b["q1"]
    if gain < -limit:
        return "worse"
    if spread > limit and not all(sign * (y - x) > 0 for x in base for y in change):
        return "unresolved"
    if 10 * wins >= 9 * len(base) and gain > spread:
        return "better"
    return "no worse"


def summary(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"]))
        out[name] = {**{side: quartiles(v) for side, v in sides.items()}, "change_wins": wins,
                     "pairs": len(pairs)}
        if name in bounds:
            out[name]["verdict"] = verdict(sides["base"], sides["change"], wins, sign, bounds[name])
    return out


def print_verdicts(workload: str, summary: dict) -> None:
    print(f"{workload}: {'metric':<13} {'base':>10} {'change':>10} {'wins':>6}  verdict",
          file=sys.stderr)
    for name, m in summary.items():
        print(f"{'':{len(workload) + 2}}{name:<13} {m['base']['median']:>10.4g} "
              f"{m['change']['median']:>10.4g} {m['change_wins']:>3}/{m['pairs']:<2}  "
              f"{m.get('verdict', '')}", file=sys.stderr)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 50-59,101")
    ap.add_argument("--workloads", default="prove,semantics,pipeline")
    ap.add_argument("--trace-seed", type=int, help="seed of the traced runs; none when omitted")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better.update(failed_frac="lower", minor_faults="lower", sys_s="lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    import numpy

    report = {
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "blas_threads": "1 (actbench/run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, "
                            "MKL_NUM_THREADS)",
        },
        "run_seconds": seconds,
        "order": "pair i runs seed i; the base runs first on even seeds",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, ref in zip(SIDES, (args.base, args.change)):
            report["environment"][f"{side}_commit"] = export(ref, trees[side])
        for workload in args.workloads.split(","):
            pairs = []
            for seed in args.seeds:
                order = SIDES if seed % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, seconds, 0)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{s} {pair[s]['ops_per_s']:.1f} ops/s" for s in SIDES), file=sys.stderr)
                pairs.append(pair)
            entry = {"pairs": pairs, "summary": summary(pairs, better, bounds)}
            print_verdicts(workload, entry["summary"])
            if args.trace_seed is not None:
                entry["traced"] = {"seed": args.trace_seed, **{
                    side: run(trees[side], workload, args.trace_seed, seconds, 1)
                    for side in SIDES}}
            report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
