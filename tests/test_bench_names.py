"""The per-layer benchmark wraps kernels by module and name; a refactor
that drops or renames one must fail here, not in the traced run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_kernel_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import traced

    for module, name in traced.TIMED + traced.PER_CELL:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


# every memo kind a group homology run creates (README, "Library"); the
# traced run reads ``nf``, ``prefix`` and ``classify`` by name and sums
# every ``express_*`` kind, so a new memo must not take one of those names
# (``classify`` is filled only by the public ``classify`` and
# ``verify_matching``, never by routing)
GROUP_HOMOLOGY_CACHE_KINDS = {
    "certify", "nf", "composite", "prefix", "extensions", "max_redex",
    "mgu_extension", "merge", "factor", "boundary_count",
    "express_count", "morse_count",
}


def test_group_run_creates_the_documented_cache_kinds(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import traced

    text = (BENCH / "data" / "group.lwv").read_text(encoding="utf-8")
    tr = traced.Tracer()
    tr.install()
    try:
        _, trs, chains, matrices = traced.homology_pipeline(tr, text, 2)
    finally:
        tr.uninstall()
    assert set(trs.caches) == GROUP_HOMOLOGY_CACHE_KINDS
    metrics = traced.layer_metrics(tr, "group-count", trs, chains, matrices)
    assert metrics["rewrite.nf_cache"] == len(trs.cache("nf"))
    assert metrics["chains.prefix_cache"] == len(trs.cache("prefix"))
    assert metrics["morse.routed"] == len(trs.cache("express_count"))
