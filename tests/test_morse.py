import sys
import threading
from collections import Counter

import pytest

from eqhom import cli, morse
from eqhom.chains import (
    Cell,
    composite,
    enumerate_chains,
    match,
    mgu_extension,
)
from eqhom.coeff import multiply
from eqhom.homology import boundary_matrices, homology_group
from eqhom.morse import (
    _Terms,
    classify,
    morse_differential,
    normalized_boundary,
)
from eqhom.parser import parse_presentation
from eqhom.rewrite import degree, is_irreducible, max_redex, op_morphism
from eqhom.terms import Morphism, Var, compose_raw, is_partial_permutation
from eqhom.unify import match_term

from conftest import mirror, signed_monomial_count, vanishes, verify_matching


def xv(name):
    return Var(name, "X")


def plus_cell(trs):
    sig = trs.signature
    return Cell("X", (Morphism((("x1", "X"), ("x2", "X")),
                               (sig.app("plus", xv("x1"), xv("x2")),)),))


def two_chain_right_unit(trs):
    sig = trs.signature
    return Cell("X", plus_cell(trs).entries + (
        Morphism((("x1", "X"),), (xv("x1"), sig.app("zero"))),))


def two_chain_left_unit(trs):
    sig = trs.signature
    return Cell("X", plus_cell(trs).entries + (
        Morphism((("x1", "X"),), (sig.app("zero"), xv("x1"))),))


def redundant_zz(trs):
    sig = trs.signature
    zero = sig.app("zero")
    return Cell("X", plus_cell(trs).entries + (Morphism((), (zero, zero)),))


def tau1(trs):
    sig = trs.signature
    return Cell("X", two_chain_right_unit(trs).entries + (Morphism((), (sig.app("zero"),)),))


def tau2(trs):
    sig = trs.signature
    return Cell("X", two_chain_left_unit(trs).entries + (Morphism((), (sig.app("zero"),)),))


def test_longest_chain_prefix_examples(ab_trs):
    sig = ab_trs.signature
    assert match(tau1(ab_trs), ab_trs) == (True, None)  # a chain: all prefixes chain
    # a head that is not a bare operation stops the prefix at once: it splits
    # into the operation and its arguments
    nested = Cell("X", (Morphism(
        (("x1", "X"), ("x2", "X"), ("x3", "X")),
        (sig.app("plus", sig.app("plus", xv("x1"), xv("x2")), xv("x3")),)),))
    args = Morphism((("x1", "X"), ("x2", "X"), ("x3", "X")),
                    (sig.app("plus", xv("x1"), xv("x2")), xv("x3")))
    assert match(nested, ab_trs) == (False, Cell("X", plus_cell(ab_trs).entries + (args,)))
    # past its one-entry chain prefix, (zero, zero) splits at the left-unit chain entry
    assert match(redundant_zz(ab_trs), ab_trs) == (False, tau2(ab_trs))


def test_boundary_of_operations(ab_trs):
    sig = ab_trs.signature
    point = Cell("X", ())
    assert normalized_boundary(plus_cell(ab_trs), ab_trs, "count") == {point: 1}
    zero_cell = Cell("X", (Morphism((), (sig.app("zero"),)),))
    assert normalized_boundary(zero_cell, ab_trs, "count") == {point: -1}


def test_boundary_counts_each_occurrence_of_a_variable(ab_trs):
    # ∂_1 of plus(x1, x1) has one monomial per occurrence of x1, so face 0
    # counts 2, in a lone head and in front of a second entry alike
    sig = ab_trs.signature
    double = Morphism((("x1", "X"),), (sig.app("plus", xv("x1"), xv("x1")),))
    zero = Morphism((), (sig.app("zero"),))
    for cell, expected in ((Cell("X", (double,)), {Cell("X", ()): 2 - 1}),
                           (Cell("X", (double, zero)),
                            {Cell("X", (zero,)): 2 - 1, Cell("X", (double,)): 1})):
        assert normalized_boundary(cell, ab_trs, "count") == expected
        sym = normalized_boundary(cell, ab_trs, "symbolic")
        assert {f: signed_monomial_count(e, 0) for f, e in sym.items()} == expected


def test_boundary_of_unit_two_chain(ab_trs):
    sig = ab_trs.signature
    zero_cell = Cell("X", (Morphism((), (sig.app("zero"),)),))
    got = normalized_boundary(two_chain_right_unit(ab_trs), ab_trs, "count")
    assert got == {zero_cell: 1, plus_cell(ab_trs): 1}
    # composing with the boundary one dimension down gives zero
    total = 0
    for cell, c in got.items():
        for _, c2 in normalized_boundary(cell, ab_trs, "count").items():
            total += c * c2
    assert total == 0


def test_classification_worked_example(ab_trs):
    sigma = redundant_zz(ab_trs)
    cls = classify(sigma, ab_trs)
    assert cls.kind == "redundant"
    assert cls.partner == tau2(ab_trs)
    assert cls.epsilon in (1, -1)
    back = classify(tau2(ab_trs), ab_trs)
    assert back.kind == "collapsible" and back.partner == sigma
    assert back.epsilon == cls.epsilon
    assert classify(tau1(ab_trs), ab_trs).kind == "critical"


def test_morse_differential_routes_through_the_matching(ab_trs):
    got = morse_differential(tau1(ab_trs), ab_trs, "count")
    assert got == {two_chain_right_unit(ab_trs): -1, two_chain_left_unit(ab_trs): 1}
    sym = morse_differential(tau1(ab_trs), ab_trs, "symbolic")
    for cell, elem in sym.items():
        assert signed_monomial_count(elem, 0) == got[cell]


def test_morse_differential_on_two_chains_needs_no_routing(ab_trs):
    for cell in enumerate_chains(ab_trs, 2)[2]:
        assert morse_differential(cell, ab_trs, "count") == normalized_boundary(
            cell, ab_trs, "count")


def _dd_is_zero(trs, max_dim, d):
    chains = enumerate_chains(trs, max_dim)
    for n in range(2, max_dim + 1):
        for cell in chains[n]:
            sym_acc = {}
            cnt_acc = {}
            for mid, c1 in morse_differential(cell, trs, "symbolic").items():
                if mid.dim == 0:
                    continue
                for tgt, c2 in morse_differential(mid, trs, "symbolic").items():
                    prod = multiply(c1, c2, trs)
                    sym_acc[tgt] = sym_acc[tgt] + prod if tgt in sym_acc else prod
            for mid, c1 in morse_differential(cell, trs, "count").items():
                if mid.dim == 0:
                    continue
                for tgt, c2 in morse_differential(mid, trs, "count").items():
                    cnt_acc[tgt] = cnt_acc.get(tgt, 0) + c1 * c2
            for elem in sym_acc.values():
                if not vanishes(elem, d):
                    return False
            for v in cnt_acc.values():
                if (v if d == 0 else v % d) != 0:
                    return False
    return True


def test_dd_zero_abelian(ab_trs):
    assert _dd_is_zero(ab_trs, 4, 0)


def test_dd_zero_group(group_trs):
    assert _dd_is_zero(group_trs, 3, 2)


def test_dd_zero_group_dim_four(group_trs):
    # dimension 4 exercises repairs that push a selection through several
    # entries and multi-step routing; 154 chains
    chains = enumerate_chains(group_trs, 4)
    assert len(chains[4]) == 154
    for cell in chains[4]:
        sym_acc, cnt_acc = {}, {}
        for mid, c1 in morse_differential(cell, group_trs, "symbolic").items():
            for tgt, c2 in morse_differential(mid, group_trs, "symbolic").items():
                prod = multiply(c1, c2, group_trs)
                sym_acc[tgt] = sym_acc[tgt] + prod if tgt in sym_acc else prod
        for mid, c1 in morse_differential(cell, group_trs, "count").items():
            for tgt, c2 in morse_differential(mid, group_trs, "count").items():
                cnt_acc[tgt] = cnt_acc.get(tgt, 0) + c1 * c2
        assert all(vanishes(e, 2) for e in sym_acc.values())
        assert all(v % 2 == 0 for v in cnt_acc.values())


def _boundary_reachable(trs, max_dim):
    seen = set()
    frontier = [c for n in range(1, max_dim + 1) for c in enumerate_chains(trs, max_dim)[n]]
    while frontier:
        cell = frontier.pop()
        if cell in seen or cell.dim == 0:
            continue
        seen.add(cell)
        for face in normalized_boundary(cell, trs, "count"):
            if face not in seen:
                frontier.append(face)
        cls = classify(cell, trs)
        if cls.partner is not None and cls.partner not in seen:
            frontier.append(cls.partner)
    return seen


def test_matching_certification(ab_trs, group_trs):
    for trs, maxd in ((ab_trs, 4), (group_trs, 3)):
        for cell in _boundary_reachable(trs, maxd):
            cls = classify(cell, trs)
            assert cls.kind in ("critical", "redundant", "collapsible")
            if cls.kind == "critical":
                assert cls.partner is None
                continue
            assert cls.epsilon in (1, -1)
            partner_cls = classify(cls.partner, trs)
            flip = {"redundant": "collapsible", "collapsible": "redundant"}
            assert partner_cls.kind == flip[cls.kind]
            assert partner_cls.partner == cell
            assert partner_cls.epsilon == cls.epsilon
            if cls.kind == "redundant":
                assert cls.partner.dim == cell.dim + 1
            else:
                assert cls.partner.dim == cell.dim - 1


def test_mode_coherence(ab_trs, group_trs, data_dir):
    # the differentials of the chains
    for trs, maxd, d in ((ab_trs, 4, 0), (group_trs, 3, 2)):
        chains = enumerate_chains(trs, maxd)
        for n in range(1, maxd + 1):
            for cell in chains[n]:
                count = morse_differential(cell, trs, "count")
                sym = morse_differential(cell, trs, "symbolic")
                for tgt in set(count) | set(sym):
                    c = count.get(tgt, 0)
                    s = signed_monomial_count(sym.get(tgt, {}), d)
                    assert s == (c if d == 0 else c % d)
    # the boundaries, face by face, of every cell routed through d_4,
    # where the two coefficient rings share one face loop; over Z
    routed = 0
    for name in ("abelian_unit.lwv", "group.lwv"):
        trs = parse_presentation((data_dir / name).read_text())
        boundary_matrices(trs, enumerate_chains(trs, 4), 4, degree(trs))
        for cell in trs.cache("express_count"):
            if cell.dim == 0:
                continue
            count = normalized_boundary(cell, trs, "count")
            sym = normalized_boundary(cell, trs, "symbolic")
            counted = {f: signed_monomial_count(e, 0) for f, e in sym.items()}
            assert {f: c for f, c in counted.items() if c} == count, cell
            routed += 1
    assert routed == 1_418


def test_group_classification_counters_through_dim_four(data_dir):
    # the call sequence of `eqhom homology group.lwv --max-dim 3` on a
    # fresh system; the kernel memos must leave the matching untouched
    trs = parse_presentation((data_dir / "group.lwv").read_text())
    chains = enumerate_chains(trs, 4)
    boundary_matrices(trs, chains, 4, degree(trs))
    routed_cells = trs.cache("express_count")
    verify_matching(routed_cells, _Terms(trs))
    kinds = Counter(classify(c, trs).kind for c in routed_cells)
    routed = sum(len(v) for k, v in trs.caches.items() if k.startswith("express_"))
    assert (kinds["critical"], kinds["redundant"], kinds["collapsible"], routed) \
        == (53, 1007, 354, 1414)


def test_the_merge_memo_holds_faces_and_ringoid_pairs_but_no_derivative_nodes(
        monkeypatch, capsys, data_dir):
    # `resolution group.lwv --max-dim 4` in each mode: the count mode
    # merges faces only; the symbolic mode adds the ringoid products.  A
    # restriction is already a normal form and derivative nodes stay out.
    systems = []
    parse = cli.parse_presentation
    monkeypatch.setattr(cli, "parse_presentation",
                        lambda text: systems.append(parse(text)) or systems[-1])
    for mode in ("count", "symbolic"):
        argv = ["resolution", str(data_dir / "group.lwv"), "--max-dim", "4", "--mode", mode]
        assert cli.cli_dispatch(argv) == 0
    capsys.readouterr()
    # every memo kind's size, read before any ``cache`` call adds a kind
    sizes = [{kind: len(memo) for kind, memo in trs.caches.items()} for trs in systems]
    count = {"certify": 1, "composite": 52, "express_count": 1414, "extensions": 52,
             "factor": 228, "max_redex": 405, "merge": 511, "nf": 208}
    symbolic = {"certify": 1, "composite": 52, "express_symbolic": 1414, "extensions": 52,
                "factor": 228, "max_redex": 405, "merge": 957, "nf": 476}
    assert sizes == [count, symbolic]


def test_each_boundary_builds_the_ringoid_unit_at_most_once(monkeypatch, capsys, data_dir):
    # the middle faces share one unit, built at the first face that survives
    ring = morse.ring_of("symbolic")
    one, boundary = type(ring).one, morse.normalized_boundary
    units, inside = [], []

    def counted_one(self, cell):
        if inside:  # routing builds a chain's own unit outside any boundary
            units[-1] += 1
        return one(self, cell)

    def counted_boundary(*args):
        units.append(0)
        inside.append(True)
        try:
            return boundary(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(type(ring), "one", counted_one)
    monkeypatch.setattr(morse, "normalized_boundary", counted_boundary)
    argv = ["resolution", str(data_dir / "group.lwv"), "--max-dim", "3", "--mode", "symbolic"]
    assert cli.cli_dispatch(argv) == 0
    capsys.readouterr()
    assert max(units) == 1


def test_shared_memos_under_threads(data_dir):
    # more threads than cores fill one system's memos at once; lost
    # updates are harmless because every memo value is idempotent
    text = (data_dir / "group.lwv").read_text()
    serial = parse_presentation(text)
    chains = enumerate_chains(serial, 3)
    cells = [c for n in (1, 2, 3) for c in chains[n]]
    expected = [morse_differential(c, serial, "count") for c in cells]

    shared = parse_presentation(text)
    enumerate_chains(shared, 3)
    results, errors = [None] * 4, []

    def work(k):
        try:
            order = cells[k:] + cells[:k]
            got = {c: morse_differential(c, shared, "count") for c in order}
            results[k] = [got[c] for c in cells]
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert all(r == expected for r in results)


def test_an_unknown_mode_is_refused_before_any_memo(data_dir):
    trs = parse_presentation((data_dir / "abelian_unit.lwv").read_text())
    cell = enumerate_chains(trs, 2)[2][0]
    kinds = set(trs.caches)
    for call in (morse_differential, normalized_boundary):
        with pytest.raises(ValueError, match="'Count'.*'count' or 'symbolic'"):
            call(cell, trs, "Count")
    assert set(trs.caches) == kinds


def _split_by_definition(cell, trs, prefix):
    """The split recomputed from its definition: at prefix 0 the head
    split; otherwise the most general unifier ``u`` of the prefix
    composite ``T`` at the maximal redex of ``T∘t``, ``t`` the next entry,
    when that redex lies at a non-variable position of ``T``, ``u`` is a
    valid entry and ``t = u∘w`` with ``w`` no selection of variables."""
    entries = cell.entries
    if prefix == 0:
        head = entries[0]
        f = op_morphism(trs.signature, head.term.op)
        return Cell(cell.sort, (f, Morphism.derived(head.context, head.term.args)) + entries[1:])
    T = composite(entries[:prefix], trs)
    t = entries[prefix]
    top = max_redex(compose_raw(T, t).term, trs)
    if top is None:
        return None
    p, rank = top
    sub = T.term
    for i in p:
        if isinstance(sub, Var):  # the redex lies inside a variable of T
            return None
        sub = sub.args[i - 1]
    if isinstance(sub, Var):
        return None
    u = mgu_extension(T, sub, trs.rules[rank])
    if u is None or is_partial_permutation(u) or not all(is_irreducible(c, trs) for c in u.terms):
        return None
    if len(u.terms) != len(t.terms):
        return None
    binding = {}  # t matches u componentwise, one binding for all components
    for pattern, subject in zip(u.terms, t.terms):
        part = match_term(pattern, subject)
        if part is None or any(binding.setdefault(k, v) != v for k, v in part.items()):
            return None
    w = Morphism.derived(t.context, tuple(binding[name] for name, _ in u.context))
    if is_partial_permutation(w):
        return None
    return Cell(cell.sort, entries[:prefix] + (u, w) + entries[prefix + 1:])


@pytest.mark.parametrize("name, max_dim, d, groups, chains, splits", [
    ("involution.lwv", 4, 0, ["0", "Z + Z/2", "0", "Z/2", "0"],
     ([1, 3, 1, 1, 1, 1], [1, 3, 1, 1, 1, 1]), (0, 0)),
    ("involution3.lwv", 4, 0, ["0", "Z", "Z/2", "0", "Z/2"],
     ([1, 3, 3, 3, 3, 3], [1, 3, 3, 3, 3, 3]), (16, 16)),
    ("abelian_unit.lwv", 4, 0, ["0"] * 5, ([1, 2, 2, 1, 0, 0], [1, 2, 2, 1, 0, 0]), (1, 1)),
    ("group.lwv", 3, 2, ["0"] * 4, ([1, 3, 10, 39, 154], [1, 3, 10, 37, 135]), (1361, 1345)),
], ids=["involution", "involution3", "abelian_unit", "group"])
def test_the_mirror_has_the_same_homology_and_splits_by_definition(
        data_dir, name, max_dim, d, groups, chains, splits):
    # the mirror orders redexes differently, so its matching differs; on
    # every cell routed through d_{max_dim + 1} that is no chain, the split
    # equals the one recomputed from its definition
    trs = parse_presentation((data_dir / name).read_text())
    for system, counts, split in zip((trs, mirror(trs)), chains, splits):
        cells = enumerate_chains(system, max_dim + 1)
        assert [len(cells[n]) for n in sorted(cells)] == counts
        mats = boundary_matrices(system, cells, max_dim + 1, d)
        assert [homology_group(mats, n, d, dict(enumerate(counts))).describe(d)
                for n in range(max_dim + 1)] == groups
        compared = 0
        for cell in system.cache("express_count"):
            prefix = max(k for k in range(cell.dim + 1)
                         if Cell(cell.sort, cell.entries[:k]) in cells[k])
            if prefix < cell.dim:
                assert match(cell, system) == (False, _split_by_definition(cell, system, prefix)), cell
                compared += 1
        assert compared == split
