"""Run the benchmark on every workload and print each metric with its unit.

    python3 bench/report.py [--seeds 1,2,3] [--trace 0|1|both] [--workloads a,b]

Runs ``bench/run.py`` once per workload, seed and trace mode, for the
``run_seconds`` of BENCHMARK.json, from the root of a source checkout.
With several seeds each metric is shown as the median over the seeds and
its spread: the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``).  End-to-end runs
also show the raw wall and CPU seconds behind ``wall_rel`` and
``cpu_rel`` as ``raw.*``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1")
    p.add_argument("--trace", choices=("0", "1", "both"), default="both")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = ["0", "1"] if args.trace == "both" else [args.trace]

    ok = True
    for name in args.workloads.split(","):
        for mode in modes:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", mode],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                shown = "" if mode == "1" else " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{name} trace={mode} seed={seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {shown}",
                      flush=True)
                if not result["correct"]:
                    ok = False
                    print("\n".join(line for line in proc.stdout.splitlines()
                                    if line.startswith("# problem")))
                for metric, v in result["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
                    units[metric] = v["unit"]
                for line in proc.stdout.splitlines():
                    if line.startswith("# raw medians "):
                        for metric, v in json.loads(line[len("# raw medians "):]).items():
                            values.setdefault("raw." + metric, []).append(v)
                            units["raw." + metric] = "s"
            for metric, vs in values.items():
                median = statistics.median(vs)
                line = f"  {name:15} {metric:40} {median:14.6g} {units[metric]}"
                if len(vs) >= 2 and median:
                    q = statistics.quantiles(vs, n=4)
                    line += f"   spread {(q[2] - q[0]) / median:.3f}"
                print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
