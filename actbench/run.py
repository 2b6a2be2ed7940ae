"""Run one workload of the actlat benchmark and print its metrics.

    python3 actbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

One client runs ops one at a time (a closed loop), in whole passes over the
workload's inputs, until ``--seconds`` have passed; every pass draws fresh
inputs from the seed and the pass number.  Set-up is repeated before every
pass and setup_s is the median of all set-ups: a shared host's speed drifts
over seconds, so set-ups spread over the run move less than a burst of them
at its start.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it runs the same passes untraced and then traced, and
prints the per-layer metrics of the traced passes plus the tracing overhead.
The last line of standard output is one JSON object.  A wrong verdict or
output stops the run: the result reads ``"correct": false`` and the exit
code is 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Before every pass of an untraced run, set-up is repeated for at least
# SETUP_SECONDS; setup_s is the median of all these set-ups.
SETUP_SECONDS = 0.25
WORKLOADS = ("prove", "pipeline", "semantics")


@dataclass
class Tally:
    """What a run measured, in the order the ops ran."""

    op_s: list[float] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    per_label: dict[str, list[float]] = field(default_factory=dict)
    first_outcome: dict[str, str] = field(default_factory=dict)
    passes: int = 0
    pass_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    error: str | None = None            # the wrong verdict that stopped the run

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())


def run_passes(workload: str, inputs, seed: int, *, seconds: float = 0.0,
               passes: int | None = None, tracer=None) -> Tally:
    """Run whole passes until ``seconds`` have passed (at least one), or
    exactly ``passes`` passes.  Stops at the first wrong verdict.  With
    ``inputs=None`` the inputs are set up anew, and timed, before each pass."""
    import workloads as W

    tally = Tally()
    t0 = perf_counter()
    while True:
        if passes is not None and tally.passes >= passes:
            break
        if passes is None and tally.passes and perf_counter() - t0 >= seconds:
            break
        pass_inputs = inputs if inputs is not None else timed_setup(workload, seed, tally.setup_s)
        pass_start = perf_counter()
        for op in W.ops(workload, pass_inputs, seed, tally.passes):
            if tracer is not None:
                tracer.op_id = len(tally.op_s)
            start = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a crash is a counted failure, not a stop
                outcome = "crashed"
                out = exc
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.op_id = -1
            tally.op_s.append(elapsed)
            tally.per_label.setdefault(op.label, []).append(elapsed)
            if not isinstance(out, Exception):
                try:
                    outcome = op.judge(out)
                except W.Unsound as exc:
                    outcome = "wrong"
                    tally.error = str(exc)
            if op.repeats and tally.error is None:
                seen = tally.first_outcome.setdefault(op.label, outcome)
                if seen != outcome:
                    tally.error = f"{op.label}: outcome {outcome} after {seen} in an earlier pass"
                    outcome = "wrong"
            tally.outcomes[outcome] += 1
            if tally.error is not None:      # the cut pass still gets a time
                tally.pass_s.append(perf_counter() - pass_start)
                tally.wall_s = perf_counter() - t0
                return tally
        tally.passes += 1
        tally.pass_s.append(perf_counter() - pass_start)
    tally.wall_s = perf_counter() - t0
    return tally


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The end-to-end metrics of BENCHMARK.json, with their units.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
              "decided_frac": "ratio", "peak_rss_mb": "MB"}


def end_to_end(tally: Tally) -> dict[str, float]:
    import workloads as W

    n = tally.attempted
    decided = sum(c for o, c in tally.outcomes.items() if o in W.DECIDED)
    return {
        "setup_s": statistics.median(tally.setup_s),
        "ops_per_s": n / sum(tally.pass_s),
        "op_ms.p50": 1000 * nearest_rank(tally.op_s, 0.5),
        "op_ms.p90": 1000 * nearest_rank(tally.op_s, 0.9),
        "decided_frac": decided / n,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload: str, inputs, seed: int, seconds: float):
    """Untraced passes for half the time, then the same passes traced.
    Returns both tallies and the per-layer metrics of the traced passes."""
    import spans

    plain = run_passes(workload, inputs, seed, seconds=seconds / 2)
    if plain.error is not None:
        return plain, None, {}
    with spans.Tracer() as tracer:
        tally = run_passes(workload, inputs, seed, passes=plain.passes, tracer=tracer)
    metrics = layer_metrics(tracer, tally)
    metrics["trace.overhead_frac"] = tally.wall_s / plain.wall_s - 1
    return plain, tally, metrics


def layer_metrics(tracer, tally: Tally) -> dict[str, float]:
    """Per-pass span metrics plus the search outcomes of the traced passes."""
    import spans

    passes = max(tally.passes, 1)
    metrics = spans.derived(tracer.summary(sum(tally.op_s), passes))
    for o in ("proved", "unknown", "refuted", "crashed"):
        metrics[f"search.outcome.{o}"] = tally.outcomes[o] / passes
    return metrics


def timed_setup(workload: str, seed: int, times: list[float]):
    """Set up at least once and for SETUP_SECONDS, appending each set-up's
    time to ``times``; returns the last inputs."""
    import workloads as W

    spent = 0.0
    while True:
        start = perf_counter()
        inputs = W.setup(workload, seed)
        times.append(perf_counter() - start)
        spent += times[-1]
        if spent >= SETUP_SECONDS:
            return inputs


def environment(seed: int) -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, seed {seed}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "actlat" / "__init__.py").is_file():
        print(f"actbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    # one client, no helper threads: keep numpy's BLAS single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import actlat
    import spans as T

    if Path(actlat.__file__).resolve().parent != (SRC / "actlat").resolve():
        print(f"actbench: imported actlat from {actlat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"# {args.workload}: {environment(args.seed)}")
    if args.trace:
        inputs = timed_setup(args.workload, args.seed, [])
        plain, tally, everything = traced(args.workload, inputs, args.seed, args.seconds)
        names = {name: T.unit(name) for name in T.PER_LAYER}
        runs = [t for t in (plain, tally) if t is not None]
    else:
        tally = run_passes(args.workload, None, args.seed, seconds=args.seconds)
        everything = end_to_end(tally)
        names = END_TO_END
        runs = [tally]
        print(f"# set-up: median of {len(tally.setup_s)} set-ups")
        for label, times in tally.per_label.items():
            print(f"# op {label}: median {1000 * statistics.median(times):.3f} ms over {len(times)}")
    attempted = sum(t.attempted for t in runs)
    crashed = sum(t.outcomes["crashed"] for t in runs)
    failed = crashed + sum(t.outcomes["wrong"] for t in runs)
    error = next((t.error for t in runs if t.error is not None), None)
    print(f"# {sum(t.passes for t in runs)} passes, {attempted} ops, {crashed} raised: "
          f"failed_frac {failed / attempted!r} ratio")
    for name, value in everything.items():
        print(f"# {name} {value!r} {names.get(name, T.unit(name))}")
    if error is not None:
        print(f"actbench: wrong verdict: {error}", file=sys.stderr)
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": everything[name], "unit": u} for name, u in names.items()
                    if name in everything},
    }
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
