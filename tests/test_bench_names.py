"""The per-layer benchmark wraps kernels by module and name; a refactor
that drops or renames one must fail here, not in the traced run."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_kernel_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import traced

    for module, name in traced.TIMED + traced.PER_CELL:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


# every memo kind each traced workload creates (README, "Library"); the
# traced run reads ``nf``, ``prefix`` (no longer created, so its counter
# reads 0) and ``classify`` by name and sums every ``express_*`` kind, so
# a new memo must not take one of those names, and a renamed
# ``*_symbolic`` or word-engine kind must fail here
# (``classify`` is filled only by the public ``classify`` and the
# tests' ``verify_matching``, never by routing)
TERM_CACHE_KINDS = {
    "certify", "nf", "composite", "extensions", "max_redex", "merge", "factor",
}
GROUP_HOMOLOGY_CACHE_KINDS = TERM_CACHE_KINDS | {"express_count"}
GROUP_RESOLUTION_CACHE_KINDS = TERM_CACHE_KINDS | {"express_symbolic"}
S3_MONOID_CACHE_KINDS = {"certify", "nf", "tails", "anick"}

TRACED_RUNS = [
    pytest.param("group-count", "homology_pipeline", "group.lwv", 2,
                 GROUP_HOMOLOGY_CACHE_KINDS, "express_count", id="group-count"),
    pytest.param("group-symbolic", "resolution_pipeline", "group.lwv", 3,
                 GROUP_RESOLUTION_CACHE_KINDS, "express_symbolic", id="group-symbolic"),
    pytest.param("s3-word", "monoid_pipeline", "s3.srs", 4,
                 S3_MONOID_CACHE_KINDS, None, id="s3-word"),
]


def _traced_run(monkeypatch, pipeline, data, max_dim):
    monkeypatch.syspath_prepend(str(BENCH))
    import traced

    text = (BENCH / "data" / data).read_text(encoding="utf-8")
    tr = traced.Tracer()
    tr.install()
    try:
        _, system, chains, matrices = getattr(traced, pipeline)(tr, text, max_dim)
    finally:
        tr.uninstall()
    return traced, tr, system, chains, matrices


@pytest.mark.parametrize("workload, pipeline, data, max_dim, kinds, routed", TRACED_RUNS)
def test_traced_run_creates_the_documented_cache_kinds(
        monkeypatch, workload, pipeline, data, max_dim, kinds, routed):
    traced, tr, system, chains, matrices = _traced_run(monkeypatch, pipeline, data, max_dim)
    assert set(system.caches) == kinds
    if routed is not None:  # the term engine's memo counters
        metrics = traced.layer_metrics(tr, workload, system, chains, matrices)
        assert metrics["rewrite.nf_cache"] == len(system.cache("nf"))
        assert "prefix" not in system.caches  # the chain prefix is scanned once, unmemoised
        assert metrics["morse.routed"] == len(system.cache(routed))


class _CountingMemo(dict):
    """A memo table that counts the lookups (``get``, the only way the
    engines read a memo) that find their key."""

    hits = 0

    def get(self, key, default=None):
        if key in self:
            self.hits += 1
            return self[key]
        return default


def _counting_cache(system, kind):
    return system.caches.get(kind) or system.caches.setdefault(kind, _CountingMemo())


@pytest.mark.parametrize("pipeline, data, max_dim", [
    pytest.param(*run.values[1:4], id=run.id) for run in TRACED_RUNS])
def test_every_memo_kind_is_read_back(monkeypatch, pipeline, data, max_dim):
    """A memo that is written and never read costs memory and time for
    nothing: every kind a traced run creates must be hit at least once."""
    from eqhom.monoid import Srs
    from eqhom.rewrite import Trs

    monkeypatch.setattr(Trs, "cache", _counting_cache)
    monkeypatch.setattr(Srs, "cache", _counting_cache)
    system = _traced_run(monkeypatch, pipeline, data, max_dim)[2]
    assert system.caches
    assert sorted(kind for kind, memo in system.caches.items() if memo.hits == 0) == []
