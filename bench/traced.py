"""Traced in-process run of one workload: per-layer metrics.

Run as ``python3 bench/traced.py WORKLOAD INPUT SECONDS`` with ``src`` on
PYTHONPATH.  Each repetition first runs the real ``cli_dispatch``
untraced, then follows the same command's call sequence through the
public functions of each module with tracing on, on a freshly parsed
system whose caches must start empty.  Tracing wraps the kernel entry
points listed in ``TIMED`` by rebinding the name in every ``eqhom``
module that imported it; only leaf entry points are wrapped, never the
recursive routers, so the stack depth grows by a few frames at most.

A wrapped function's self time is its duration minus the part covered by
wrapped functions it called.  Stage spans (name, start, end, parent) are
recorded around each call the command makes.  The traced run renders
the command's stdout itself, so that it is checked against the same
pinned digest as the untraced one.  Prints one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from eqhom import coeff, homology, monoid, morse, rewrite, terms, unify
from eqhom.chains import enumerate_chains
from eqhom.cli import cli_dispatch
from eqhom.homology import (
    boundary_matrices,
    homology_group,
    inequality_report,
    matrix_product,
)
from eqhom.monoid import certify_srs, enumerate_word_chains, word_boundary_matrices
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import certify, degree

from workloads import WORKLOADS, check_output

clock = time.perf_counter

# wrapped for calls and self time: (module, function name)
TIMED = [
    (rewrite, "normal_form"),
    (morse, "classify"),
    (morse, "normalized_boundary"),
    (terms, "canonicalize"),
    (terms, "is_canonical"),
    (unify, "match_term"),
    (coeff, "multiply"),
    (coeff, "expand_derivative"),
    (coeff, "star"),
    (homology, "smith_normal_form"),
    (homology, "fp_rank"),
    (monoid, "classify_word_cell"),
    (monoid, "word_boundary"),
    (monoid, "reduce_word"),
]
# also timed per cell, first call only, for the per-cell distribution
PER_CELL = [(morse, "morse_differential"), (monoid, "word_morse_differential")]

STAGES = ["parser.parse", "rewrite.certify", "chains.enumerate", "morse.matrices",
          "homology.rank", "homology.inequality", "monoid.certify",
          "monoid.enumerate", "monoid.matrices"]


def short(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Wraps kernel functions while installed; aggregates per-function
    calls and self time and records stage spans."""

    def __init__(self):
        self.stack = [0.0]  # time covered by wrapped callees, per open call
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.cells: dict[str, dict] = {}  # name -> {cell: (dim, seconds)}
        self.spans: list[tuple[str, float, float, str]] = []
        self.morphisms = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, cells: dict | None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
                stack[-1] += dt
                if cells is not None and args[0] not in cells:
                    cells[args[0]] = (len(args[0]) if isinstance(args[0], tuple)
                                      else args[0].dim, dt)

        return wrapper

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "eqhom" or mod_name.startswith("eqhom."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, replacement)

    def install(self):
        for module, fname in TIMED:
            fn = getattr(module, fname)
            self._rebind(fn, self._wrap(f"{short(module)}.{fname}", fn, None))
        for module, fname in PER_CELL:
            fn = getattr(module, fname)
            cells = self.cells.setdefault(f"{short(module)}.{fname}", {})
            self._rebind(fn, self._wrap(f"{short(module)}.{fname}", fn, cells))

        post_init = terms.Morphism.__post_init__

        def counted(m):
            self.morphisms += 1
            post_init(m)

        terms.Morphism.__post_init__ = counted
        self._undo.append((terms.Morphism, "__post_init__", post_init))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def span(self, name: str):
        start = clock()
        try:
            yield
        finally:
            self.spans.append((name, start, clock(), "pipeline"))


def require_cold(system) -> None:
    if system.caches:
        raise AssertionError(f"system caches not empty before the first stage: "
                             f"{sorted(system.caches)}")


def max_dim_of(argv: list[str]) -> int:
    return int(argv[argv.index("--max-dim") + 1])


def homology_pipeline(tr: Tracer, text: str, max_dim: int):
    """The call sequence of ``eqhom homology FILE --max-dim N``."""
    with tr.span("parser.parse"):
        trs = parse_presentation(text)
    require_cold(trs)
    with tr.span("rewrite.certify"):
        certify(trs)
    d = degree(trs)
    with tr.span("chains.enumerate"):
        chains = enumerate_chains(trs, max_dim + 1)
    counts = {k: len(v) for k, v in chains.items()}
    with tr.span("morse.matrices"):
        matrices = boundary_matrices(trs, chains, max_dim + 1, d)
    with tr.span("homology.rank"):
        groups = {n: homology_group(matrices, n, d, counts) for n in range(max_dim + 1)}
    with tr.span("homology.inequality"):
        report = inequality_report(trs, d, 2, chains)
    lines = [f"coefficients: {'Z' if d == 0 else f'Z/{d}'}  (degree {degree(trs)})"]
    lines += [f"H_{n}: {groups[n].describe(d)}   ({counts[n]} chain(s))"
              for n in range(max_dim + 1)]
    lines.append(report.lines()[-1])
    return lines, trs, chains, matrices


def resolution_pipeline(tr: Tracer, text: str, max_dim: int):
    """The call sequence of ``eqhom resolution FILE --max-dim N --mode symbolic``."""
    with tr.span("parser.parse"):
        trs = parse_presentation(text)
    require_cold(trs)
    with tr.span("rewrite.certify"):
        certify(trs)
    with tr.span("chains.enumerate"):
        chains = enumerate_chains(trs, max_dim)
    lines = []
    with tr.span("morse.resolution"):
        for dim in range(max_dim + 1):
            lines.append(f"dimension {dim}: {len(chains[dim])} generator(s)")
            for c in chains[dim]:
                lines.append(f"  {c!r}")
                if dim >= 1:
                    terms_ = morse.morse_differential(c, trs, "symbolic")
                    if not terms_:
                        lines.append("    d = 0")
                    for target, value in sorted(terms_.items(), key=lambda kv: repr(kv[0])):
                        lines.append(f"    d -> [{value!r}] {target!r}")
    return lines, trs, chains, {}


def monoid_pipeline(tr: Tracer, text: str, max_dim: int):
    """The call sequence of ``eqhom monoid homology FILE --max-dim N``."""
    with tr.span("parser.parse"):
        srs = parse_srs(text)
    require_cold(srs)
    with tr.span("monoid.certify"):
        certify_srs(srs)
    with tr.span("monoid.enumerate"):
        chains = enumerate_word_chains(srs, max_dim + 1)
    counts = {k: len(v) for k, v in chains.items()}
    with tr.span("monoid.matrices"):
        matrices = word_boundary_matrices(srs, chains, max_dim + 1)
    with tr.span("homology.rank"):
        groups = {n: homology_group(matrices, n, 0, counts) for n in range(max_dim + 1)}
    lines = [f"H_{n}: {groups[n].describe(0)}" for n in range(max_dim + 1)]
    return lines, srs, chains, matrices


PIPELINES = {
    "group-count": homology_pipeline,
    "group-symbolic": resolution_pipeline,
    "s3-word": monoid_pipeline,
}


def dd_problems(matrices: dict) -> list[str]:
    """d∘d = 0 on consecutive boundary matrices (modulo their modulus)."""
    out = []
    for n in sorted(matrices):
        if n + 1 in matrices and any(any(row) for row in
                                     matrix_product(matrices[n + 1], matrices[n])):
            out.append(f"d_{n} ∘ d_{n + 1} != 0")
    return out


def _top_ms(cells: dict, q: int) -> float:
    """q-th percentile (ms) of the first-call times of the top-dimension cells."""
    if not cells:
        return 0.0
    top = max(dim for dim, _ in cells.values())
    ms = sorted(1000 * s for dim, s in cells.values() if dim == top)
    if len(ms) == 1:
        return ms[0]
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, workload: str, system, chains: dict, matrices: dict) -> dict:
    m: dict[str, float] = {}
    durations = Counter()
    for name, start, end, _ in tr.spans:
        durations[name] += end - start
    for stage in STAGES:
        m[stage + "_s"] = durations[stage]
    for name, (calls, self_s, _) in tr.stats.items():
        m[name + ".calls"] = calls
        m[name + ".self_s"] = self_s
    m["terms.morphism_new.calls"] = tr.morphisms

    caches = system.caches
    term_engine = workload != "s3-word"
    m["rewrite.nf_cache"] = len(caches.get("nf", {})) if term_engine else 0
    m["chains.prefix_cache"] = len(caches.get("prefix", {}))
    m["chains.cells_top"] = len(chains[max(chains)]) if term_engine else 0
    kinds = Counter(c.kind for c in caches.get("classify", {}).values()) if term_engine else {}
    for kind in ("critical", "redundant", "collapsible"):
        m["morse." + kind] = kinds.get(kind, 0)
    m["morse.routed"] = (sum(len(v) for k, v in caches.items() if k.startswith("express_"))
                         if term_engine else 0)
    m["morse.classified_per_chain"] = (
        sum(kinds.values()) / sum(len(v) for v in chains.values()) if term_engine else 0.0)
    m["morse.differential_s"] = tr.stats["morse.morse_differential"][2]
    m["morse.cell_ms.p50"] = _top_ms(tr.cells["morse.morse_differential"], 50)
    m["morse.cell_ms.p90"] = _top_ms(tr.cells["morse.morse_differential"], 90)
    m["monoid.classified"] = 0 if term_engine else len(caches.get("classify", {}))
    m["monoid.cell_ms.p50"] = _top_ms(tr.cells["monoid.word_morse_differential"], 50)

    top = matrices[max(matrices)] if matrices else None
    m["homology.matrix_nnz.top"] = (sum(1 for row in top.entries for v in row if v)
                                    if top else 0)
    m["homology.matrix_cells.top"] = len(top.rows) * len(top.cols) if top else 0
    return m


def is_count(name: str) -> bool:
    return not (name.endswith("_s") or "_ms." in name)


def run_rep(workload, text: str, max_dim: int, cli_argv: list[str]):
    """One repetition: untraced ``cli_dispatch``, then the traced pipeline.
    Returns (metrics or None, stage spans, problems)."""
    problems: list[str] = []
    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(cli_argv)
    dispatch_s = clock() - t0
    if code != 0:
        problems.append(f"cli_dispatch exited {code}")
    problems += check_output(workload, out.getvalue())

    tr = Tracer()
    tr.install()
    try:
        t0 = clock()
        lines, system, chains, matrices = PIPELINES[workload.name](tr, text, max_dim)
        traced_s = clock() - t0
    except Exception:
        problems.append("traced run raised: "
                        + traceback.format_exc(limit=3).replace("\n", " | "))
        return None, [], problems
    finally:
        tr.uninstall()
    problems += ["traced " + p for p in check_output(workload, "\n".join(lines) + "\n")]
    problems += dd_problems(matrices)
    metrics = layer_metrics(tr, workload.name, system, chains, matrices)
    metrics["cli.dispatch_s"] = dispatch_s
    metrics["trace.traced_s"] = traced_s
    spans = [(n, s - t0, e - t0, p) for n, s, e, p in tr.spans]
    return metrics, spans, problems


def main(argv: list[str]) -> int:
    name, input_path, seconds = argv[0], argv[1], float(argv[2])
    workload = WORKLOADS[name]
    cli_argv = workload.argv(input_path)
    max_dim = max_dim_of(cli_argv)
    text = Path(input_path).read_text(encoding="utf-8")
    deadline = clock() + seconds

    reps: list[dict] = []
    problems: list[str] = []
    spans: list = []
    attempted = failed = 0
    last = 0.0
    # at least two repetitions, so that the counters can be compared
    while attempted < 2 or clock() + last < deadline:
        start = clock()
        metrics, rep_spans, rep_problems = run_rep(workload, text, max_dim, cli_argv)
        attempted += 1
        if metrics is not None:
            reps.append(metrics)
            spans = spans or rep_spans
        if rep_problems:
            failed += 1
            problems += rep_problems
        last = clock() - start

    result: dict[str, float] = {}
    for key in reps[0] if reps else ():
        values = [r[key] for r in reps]
        if is_count(key):
            if any(v != values[0] for v in values):
                problems.append(f"counter {key} differs across repetitions: {values}")
            result[key] = values[0]
        else:
            result[key] = statistics.median(values)
    if reps:
        untraced = result["cli.dispatch_s"]
        result["trace.overhead_pct"] = 100 * (result.pop("trace.traced_s") - untraced) / untraced
    print(json.dumps({"attempted": attempted, "failed": failed, "problems": problems,
                      "spans": spans, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
