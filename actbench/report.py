"""Run every workload, untraced and traced, and print one row per workload.

    python3 actbench/report.py [--seed 1]

Each run is a child process of ``run.py`` and measures for the
``run_seconds`` of ``BENCHMARK.json``, so each reports its own peak
memory.  The first table holds the end-to-end metrics, ``failed_frac``
included; the second holds each layer's share of op time from the traced
runs, with the tracing overhead.  The exit code is 1 when any run reported
a wrong verdict or did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, WORKLOADS
from spans import LAYERS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:{'<' if i == 0 else '>'}{w}}}" for i, w in enumerate(widths))
    return "\n".join(fmt.format(*r) for r in [header] + rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    status = 0
    e2e_rows, layer_rows = [], []
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, res = run(wl, args.seed, trace)
            if code != 0 or res is None or not res["correct"]:
                status = 1
                print(f"{wl} (trace {trace}): exit {code}, result {res}")
                continue
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                failed_frac = res["failed"] / res["attempted"]
                e2e_rows.append([wl] + [f"{m[k]:.4g}" for k in END_TO_END]
                                + [f"{failed_frac:.4g}", str(res["attempted"])])
            else:
                layer_rows.append([wl] + [f"{m[f'{layer}.share']:.3f}" for layer in LAYERS]
                                  + [f"{m['trace.overhead_frac']:.3f}"])
    print(table(["workload"] + [f"{k} [{u}]" for k, u in END_TO_END.items()]
                + ["failed_frac [ratio]", "ops [count]"], e2e_rows))
    print()
    print("share of op self time per layer (traced run)")
    print(table(["workload"] + list(LAYERS) + ["trace.overhead_frac"], layer_rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
