"""The shared collapse core on small complexes given by tables."""

import sys

import pytest

from eqhom import collapse
from eqhom.chains import chain_extensions, enumerate_chains, match
from eqhom.collapse import MatchingError, assemble_matrices, morse_differential
from eqhom.homology import boundary_matrices
from eqhom.monoid import _Words, enumerate_word_chains
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import BudgetExceeded, degree, max_redex, op_morphism
from eqhom.terms import subterms
from eqhom.unify import match_term

from conftest import routed_word_matrices, verify_matching


class Table:
    """A complex given by its chains, split partners and integer boundaries."""

    def __init__(self, chains, splits, boundaries):
        self.chains, self.splits, self.boundaries = chains, splits, boundaries
        self.caches = {}
        self.system = self
        self.ring = collapse.Integers()

    def cache(self, kind):
        return self.caches.setdefault(kind, {})

    def match(self, cell):
        chain = cell in self.chains
        return chain, None if chain else self.splits.get(cell)

    def boundary(self, cell):
        return dict(self.boundaries.get(cell, {}))


def test_routes_through_a_matched_pair():
    # r is redundant with partner p (sign -1), p collapsible onto r
    cx = Table({"T", "c"}, {"r": "p"}, {"T": {"r": 1}, "p": {"r": -1, "c": 2}})
    assert morse_differential("T", cx) == {"c": 2}
    assert collapse.classify("p", cx) == collapse.CellClass("collapsible", "r", -1)


def test_matching_failures_raise():
    both = Table(set(), {"q": "p", "s": "q"}, {"p": {"q": 1}, "q": {"s": 1}})
    with pytest.raises(MatchingError, match="both redundant and collapsible"):
        collapse.classify("q", both)
    non_unit = Table(set(), {"r": "p"}, {"p": {"r": 2}})
    with pytest.raises(MatchingError, match="not a unit"):
        collapse.classify("r", non_unit)
    with pytest.raises(MatchingError, match="neither"):
        collapse.classify("u", non_unit)


@pytest.mark.parametrize("splits, boundaries, message", [
    # q and s both split to p
    ({"q": "p", "s": "p"}, {"p": {"q": 1, "s": 1}}, "splits two targets"),
    # q splits to p and is split to by s
    ({"q": "p", "s": "q"}, {"p": {"q": 1}, "q": {"s": 1}}, "both redundant and collapsible"),
    # u is no chain, splits nothing and is split to by nothing
    ({"r": "p"}, {"p": {"r": 1}, "u": {}}, "neither"),
    # r's split partner has it with coefficient 2
    ({"r": "p"}, {"p": {"r": 2}}, "not a unit"),
    # r splits to the chain T, which does not point back
    ({"r": "T"}, {"T": {"r": 1}}, "not matched to each other"),
])
def test_verify_matching_refuses_each_failure(splits, boundaries, message):
    cx = Table({"T"}, splits, boundaries)
    with pytest.raises(MatchingError, match=message):
        verify_matching(sorted(set(splits) | set(boundaries)), cx)


def test_verify_matching_accepts_a_matched_pair():
    cx = Table({"T", "c"}, {"r": "p"}, {"T": {"r": 1}, "p": {"r": -1, "c": 2}})
    verify_matching(["T", "c", "r", "p"], cx)
    assert cx.caches["classify"]["r"] == collapse.CellClass("redundant", "p", -1)


def test_routing_cycle_exhausts_the_budget():
    cycle = Table({"T"}, {"r": "p", "s": "q"},
                  {"T": {"r": 1}, "p": {"r": 1, "s": 1}, "q": {"s": 1, "r": 1}})
    with pytest.raises(BudgetExceeded, match="routing budget exhausted"):
        morse_differential("T", cycle, budget=50)


def test_deep_routing_does_not_recurse():
    # T -> r0; r_i is redundant with partner p_i, whose other face is
    # r_{i+1}, so each step of the routing line flips the sign
    n = 5_000
    assert n > sys.getrecursionlimit()
    splits = {f"r{i}": f"p{i}" for i in range(n)}
    boundaries = {f"p{i}": {f"r{i}": 1, f"r{i + 1}": 1} for i in range(n - 1)}
    boundaries[f"p{n - 1}"] = {f"r{n - 1}": 1, "c": 3}
    boundaries["T"] = {"r0": 1}
    line = Table({"T", "c"}, splits, boundaries)
    assert morse_differential("T", line) == {"c": 3 * (-1) ** n}
    assert len(line.caches["express_count"]) == n + 1
    with pytest.raises(BudgetExceeded, match=rf"^routing budget exhausted: .*\b{n}\b"):
        morse_differential("T", Table({"T", "c"}, splits, boundaries), budget=n)


def test_routing_takes_one_budget_step_per_entry_it_writes():
    # T -> r0 -> r1 -> r2 -> c: three redundant cells and the chain c are
    # memoised, so budget 4 routes T and budget 3 does not
    splits = {f"r{i}": f"p{i}" for i in range(3)}
    boundaries = {"T": {"r0": 1}, "p0": {"r0": 1, "r1": 1}, "p1": {"r1": 1, "r2": 1},
                  "p2": {"r2": 1, "c": 1}}
    line = Table({"T", "c"}, splits, boundaries)
    assert morse_differential("T", line, budget=4) == {"c": -1}
    assert len(line.caches["express_count"]) == 4
    with pytest.raises(BudgetExceeded, match=r"^routing budget exhausted: one differential "
                                             r"routed more than 3 cells$"):
        morse_differential("T", Table({"T", "c"}, splits, boundaries), budget=3)


def _fibonacci(n, calls):
    """A toy entry for ``collapse.evaluate``: F(n) from F(n-1) and F(n-2)."""
    calls[n] = calls.get(n, 0) + 1
    if n < 2:
        return n
    return (yield n - 1) + (yield n - 2)


def test_evaluate_computes_a_shared_value_once():
    # F(8) is needed by F(10) and F(9), and so on down the line
    calls, cache = {}, {}
    assert collapse.evaluate(10, _fibonacci, calls, cache, [11, 11], "{}") == 55
    assert calls == {n: 1 for n in range(11)}


def test_evaluate_memoises_every_value_it_computes():
    cache, counter = {}, [20, 20]
    collapse.evaluate(10, _fibonacci, {}, cache, counter, "{}")
    fib = [0, 1]
    while len(fib) < 11:
        fib.append(fib[-1] + fib[-2])
    assert cache == dict(enumerate(fib))
    assert counter == [20 - 11, 20]  # one step per memo entry written
    with pytest.raises(BudgetExceeded, match="^more than 10$"):
        collapse.evaluate(10, _fibonacci, {}, {}, [10, 10], "more than {}")


def test_evaluate_returns_a_memoised_root_without_its_entry():
    def entry(key, arg):
        raise AssertionError("a memoised root must not be computed")

    counter = [0, 0]
    assert collapse.evaluate("k", entry, None, {"k": 7}, counter, "{}") == 7
    assert collapse.evaluate("k", entry, None, {"k": {}}, counter, "{}") == {}
    assert counter == [0, 0]


def test_evaluate_runs_a_deep_line_on_an_explicit_stack():
    # entry n needs entry n - 1: 10 000 generators open at once
    def line(n, arg):
        return 0 if n == 0 else (yield n - 1) + 1

    n = 10_000
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        cache = {}
        value = collapse.evaluate(n, line, None, cache, [n + 1, n + 1], "{}")
    finally:
        sys.setrecursionlimit(limit)
    assert value == n and len(cache) == n + 1


def test_assembly_refuses_a_target_off_the_chain_list():
    chains = {0: ["a"], 1: ["e"]}
    assert assemble_matrices(lambda c: {"a": 3}, chains, 1, 2)[1].entries == [[1]]
    with pytest.raises(ValueError, match="not an enumerated chain"):
        assemble_matrices(lambda c: {"b": 1}, chains, 1)


def _count_calls(monkeypatch, fn) -> list[int]:
    """Count the calls of ``fn`` by rebinding its name in every ``eqhom``
    module that imported it, as ``bench/traced.py`` does."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name == "eqhom" or name.startswith("eqhom."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_routing_scans_each_chain_prefix_once(monkeypatch, data_dir):
    # one ``match`` per routed cell: the term adapter's is one scan of the
    # cell (``chains.match``), and the word adapter's is one pass itself
    trs = parse_presentation((data_dir / "group.lwv").read_text())
    term_chains = enumerate_chains(trs, 3)
    scans = _count_calls(monkeypatch, match)
    boundary_matrices(trs, term_chains, 3, degree(trs))
    assert scans[0] == len(trs.cache("express_count")) == 85

    srs = parse_srs((data_dir / "s3.srs").read_text())
    word_chains = enumerate_word_chains(srs, 5)
    matches = [0]
    word_match = _Words.match

    def counted(cx, cell):
        matches[0] += 1
        return word_match(cx, cell)

    monkeypatch.setattr(_Words, "match", counted)
    routed_word_matrices(srs, word_chains, 5)
    assert matches[0] == len(srs.cache("express_count")) == 349


def test_a_none_or_false_result_is_computed_once(monkeypatch, data_dir):
    # a memo that took None or False for a miss would rescan on every call
    trs = parse_presentation((data_dir / "group.lwv").read_text())
    t = op_morphism(trs.signature, "m").term  # m(x1,x2) is irreducible
    matches = _count_calls(monkeypatch, match_term)
    assert max_redex(t, trs) is None
    scanned = matches[0]
    assert scanned > 0 and max_redex(t, trs) is None and matches[0] == scanned

    T = op_morphism(trs.signature, "e")  # no left side unifies with e: an empty dict
    walks = _count_calls(monkeypatch, subterms)
    for _ in range(2):
        assert chain_extensions(T, trs) == {}
    assert walks[0] == 1  # one scan, which walks the subterms of T once
