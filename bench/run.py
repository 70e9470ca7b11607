"""eqhom benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/eqhom`` is imported from
there.  The seed respells the workload's presentation (see
``workloads.py``); the output must not change with it.

``--trace 0`` measures the end-to-end metrics.  The real command runs as
a closed loop with one client, one fresh process at a time, until
``--seconds`` is used up (at least three runs).  Before each run, two
set-up probes time fresh processes that import eqhom, parse the input
and certify it.  A fixed reference task (``reference.py``) runs in a
fresh process before the first run and after every run.  Wall time, CPU
time and peak RSS are taken per child from ``os.wait4``.  Wall and CPU
time are reported as the median over the runs of each run's time over
the mean of the two reference times around it, which cancels the drift
of a shared machine's speed; peak RSS and set-up time are plain medians.

``--trace 1`` runs ``traced.py`` in one child for ``--seconds`` and
reports the per-layer metrics named in BENCHMARK.json.

Every run's stdout is checked (pinned sha256 plus code-independent
oracles).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the interpreter, CPU count and source revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_output, make_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
LIMIT_S = 170.0       # the whole run, set-up included, ends before this
PROBES_PER_RUN = 2
MIN_RUNS = 3
clock = time.perf_counter


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through Child, which kills its process


class Child:
    """One finished child process with its own resource use."""

    def __init__(self, argv: list[str], env: dict, timeout: float):
        self.timed_out = False
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        status = None
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            out, err = proc.stdout.read(), proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = clock() - start
        except Timeout:
            self.timed_out = True
            out, err = b"", b""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if status is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = clock() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.code = proc.returncode
        self.stdout = out.decode("utf-8", "replace")
        self.stderr = err.decode("utf-8", "replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def failure(self) -> str | None:
        if self.timed_out:
            return "timed out"
        if self.code != 0:
            tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return f"exit code {self.code}: {tail[0]}"
        return None


def source_revision() -> dict:
    """Commit when the checkout is a git work tree, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_setup(input_path: str, env: dict, count: int, deadline: float, problems: list):
    """Fresh set-up probes; returns their wall times and import times."""
    walls, imports = [], []
    for _ in range(count):
        child = Child([sys.executable, "bench/probe.py", input_path], env,
                      deadline - clock())
        failure = child.failure()
        if failure is None:
            try:
                report = json.loads(child.stdout)
            except json.JSONDecodeError:
                report = {"eqhom": "(no report)"}
            if not Path(report["eqhom"]).resolve().is_relative_to(ROOT / "src"):
                failure = f"imported eqhom from {report['eqhom']}, not from src/"
        if failure:
            problems.append("set-up probe: " + failure)
            break
        walls.append(child.wall_s)
        imports.append(report["import_s"])
    return walls, imports


def run_reference(env: dict, deadline: float, problems: list):
    """One fresh run of the reference task, or None if it failed."""
    child = Child([sys.executable, "bench/reference.py"], env, deadline - clock())
    failure = child.failure() or (None if child.stdout.strip() == "6"
                                  else f"printed {child.stdout.strip()!r}, not 6")
    if failure:
        problems.append("reference task: " + failure)
        return None
    return child


def bracketed(values: list[float], refs: list[float]) -> float:
    """Median over runs of each value over the mean of the reference
    times taken just before and just after it."""
    ratios = [v / ((a + b) / 2) for v, a, b in zip(values, refs, refs[1:])]
    return statistics.median(ratios) if ratios else 0.0


def end_to_end(workload, input_path: str, env: dict, seconds: float, deadline: float):
    problems: list[str] = []
    setup_walls: list[float] = []
    runs: list[Child] = []
    failed = 0
    argv = [sys.executable, "-m", "eqhom.cli", *workload.argv(input_path)]
    Child([sys.executable, "bench/reference.py"], env, deadline - clock())  # warm-up
    start = clock()
    # the reference task runs before the first run and after every run,
    # and the set-up probes between them, so that all see the machine in
    # the same state as the run they bracket
    ref = run_reference(env, deadline, problems)
    refs = [ref] if ref else []
    laps: list[float] = []
    while ref is not None:
        lap = clock()
        walls, _ = run_setup(input_path, env, PROBES_PER_RUN, deadline, problems)
        setup_walls += walls
        child = Child(argv, env, deadline - clock())
        runs.append(child)
        failure = child.failure()
        found = [failure] if failure else check_output(workload, child.stdout)
        if found:
            failed += 1
            problems += [f"run {len(runs)}: {p}" for p in found]
        ref = run_reference(env, deadline, problems)
        if ref is not None:
            refs.append(ref)
        laps.append(clock() - lap)
        if child.timed_out or (len(runs) >= MIN_RUNS
                               and clock() - start + statistics.median(laps) > seconds):
            break
    wall, cpu = [c.wall_s for c in runs], [c.cpu_s for c in runs]
    ref_wall, ref_cpu = [c.wall_s for c in refs], [c.cpu_s for c in refs]
    median = lambda xs: statistics.median(xs) if xs else 0.0
    metrics = {
        "wall_rel": bracketed(wall, ref_wall),
        "cpu_rel": bracketed(cpu, ref_cpu),
        "peak_rss_mb": median([c.peak_rss_mb for c in runs]),
        "setup_s": median(setup_walls),
    }
    print("# raw medians " + json.dumps({
        "wall_s": median(wall), "cpu_s": median(cpu),
        "ref_wall_s": median(ref_wall), "ref_cpu_s": median(ref_cpu)}))
    print("# samples " + json.dumps({
        "wall_s": wall, "cpu_s": cpu, "ref_wall_s": ref_wall, "ref_cpu_s": ref_cpu,
        "setup_s": setup_walls}))
    return max(len(runs), 1), failed, problems, metrics


def traced(workload, input_path: str, env: dict, seconds: float, deadline: float):
    problems: list[str] = []
    _, imports = run_setup(input_path, env, 5, deadline, problems)
    child = Child([sys.executable, "bench/traced.py", workload.name, input_path,
                   str(seconds)], env, deadline - clock())
    failure = child.failure()
    if failure:
        return 1, 1, problems + ["traced run: " + failure], {}
    try:
        report = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return 1, 1, problems + ["traced run printed no result"], {}
    metrics = dict(report["metrics"])
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    print("# spans " + json.dumps(report["spans"]))
    return report["attempted"], report["failed"], problems + report["problems"], metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = clock() + LIMIT_S

    if not (ROOT / "src" / "eqhom" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/eqhom to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    input_file = WORK / f"{workload.name}-{args.seed}{workload.suffix}"
    input_file.write_text(make_input(workload, args.seed), encoding="utf-8")
    input_path = str(input_file.relative_to(ROOT))
    # children cache bytecode in the checkout, as an installed package would
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        # compile the package once, untimed: users pay that only once
        Child([sys.executable, "bench/probe.py", input_path], env, deadline - clock())
        measure = traced if args.trace else end_to_end
        attempted, failed, problems, metrics = measure(
            workload, input_path, env, args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")
    for problem in problems:
        print("# problem: " + problem)
    env_info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                "python": sys.version.split()[0], "nproc": os.cpu_count(),
                "fail_ratio": failed / max(attempted, 1), **source_revision()}
    print("# env " + json.dumps(env_info))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": max(attempted, 1), "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
