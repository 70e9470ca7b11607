"""The per-layer benchmark wraps kernels by module and name; a refactor
that drops or renames one must fail here, not in the traced run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_kernel_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import traced

    for module, name in traced.TIMED + traced.PER_CELL:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
