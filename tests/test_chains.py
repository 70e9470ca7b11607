import random

import pytest

from eqhom.chains import (
    Cell,
    cell_key,
    chain_extensions,
    composite,
    enumerate_chains,
    extend_chains,
    is_chain,
    longest_chain_prefix,
    max_redex,
    redex_less,
    valid_entry,
)
from eqhom.homology import boundary_matrices
from eqhom.parser import parse_presentation
from eqhom.rewrite import CompletenessError, Rule, Trs, check_complete, degree, random_term
from eqhom.terms import (
    Morphism,
    Signature,
    Var,
    is_canonical,
    substitute,
    subterms,
    variables,
)
from eqhom.unify import match_term

SIG = Signature(("X",), (("plus", ("X", "X"), "X"), ("zero", (), "X")))
ZERO = SIG.app("zero")


def redex_set(t, trs):
    """The reference for ``max_redex``: all (position, rule rank) pairs
    where a rule instance occurs."""
    out = set()
    for p, sub in subterms(t):
        if isinstance(sub, Var):
            continue
        for rank, rule in enumerate(trs.rules):
            if match_term(rule.lhs, sub) is not None:
                out.add((p, rank))
    return out


def x(name="x"):
    return Var(name, "X")


def plus(a, b):
    return SIG.app("plus", a, b)


def tau1_cell(trs):
    plus_m = Morphism((("x1", "X"), ("x2", "X")), (plus(x("x1"), x("x2")),))
    return Cell("X", (
        plus_m,
        Morphism((("x1", "X"),), (x("x1"), ZERO)),
        Morphism((), (ZERO,)),
    ))


def tau2_cell(trs):
    plus_m = Morphism((("x1", "X"), ("x2", "X")), (plus(x("x1"), x("x2")),))
    return Cell("X", (
        plus_m,
        Morphism((("x1", "X"),), (ZERO, x("x1"))),
        Morphism((), (ZERO,)),
    ))


def test_redex_set_examples(ab_trs):
    assert redex_set(plus(ZERO, ZERO), ab_trs) == {((), 0), ((), 1)}
    assert redex_set(plus(x("a"), x("b")), ab_trs) == set()
    assert redex_set(plus(plus(x("a"), ZERO), ZERO), ab_trs) == {((), 0), ((1,), 0)}


def test_max_redex_order(ab_trs):
    # a unit redex on the left is dominated by one at the same position
    # with a later rule, and None is the bottom of the order
    assert redex_less(max_redex(plus(x("a"), ZERO), ab_trs),
                      max_redex(plus(ZERO, ZERO), ab_trs))
    assert max_redex(plus(ZERO, x("a")), ab_trs) == max_redex(plus(ZERO, ZERO), ab_trs)
    assert max_redex(x("a"), ab_trs) is None
    assert redex_less(None, ((), 0)) and not redex_less(((), 0), None)


def test_position_order_is_prefix_then_sibling():
    assert ((), 5) < ((1,), 0)
    assert ((1,), 9) < ((1, 1), 0)
    assert ((1, 2), 0) < ((2,), 0)


def test_chain_counts_abelian(ab_trs):
    chains = enumerate_chains(ab_trs, 5)
    assert {d: len(cs) for d, cs in chains.items()} == {0: 1, 1: 2, 2: 2, 3: 1, 4: 0, 5: 0}


def test_chain_correspondence(ab_trs, group_trs):
    for trs in (ab_trs, group_trs):
        chains = enumerate_chains(trs, 2)
        assert len(chains[0]) == len(trs.signature.sorts)
        assert len(chains[1]) == len(trs.signature.ops)
        assert len(chains[2]) == len(trs.rules)


def test_tau1_is_a_chain_tau2_is_not(ab_trs):
    chains = enumerate_chains(ab_trs, 3)
    assert tau1_cell(ab_trs) in chains[3]
    assert tau2_cell(ab_trs) not in chains[3]
    assert is_chain(tau1_cell(ab_trs), ab_trs)
    assert not is_chain(tau2_cell(ab_trs), ab_trs)


def test_every_chain_is_a_valid_cell(ab_trs, group_trs):
    for trs, maxd in ((ab_trs, 4), (group_trs, 3)):
        chains = enumerate_chains(trs, maxd)
        for dim, cells in chains.items():
            for cell in cells:
                assert cell.dim == dim
                for entry in cell.entries:
                    assert valid_entry(entry, trs)
                    assert is_canonical(entry)  # valid_entry trusts mgu_extension for it
                if dim:
                    assert len(cell.entries[0].terms) == 1


def test_chain_prefixes_are_chains(ab_trs, group_trs):
    for trs, maxd in ((ab_trs, 3), (group_trs, 3)):
        chains = enumerate_chains(trs, maxd)
        for dim, cells in chains.items():
            for cell in cells:
                for k in range(dim):
                    assert is_chain(Cell(cell.sort, cell.entries[:k]), trs)
                assert longest_chain_prefix(cell, trs) == dim


def test_routed_prefixes_are_the_longest_enumerated_chains(data_dir):
    # every cell that routing meets through d_4 of group theory: its chain
    # prefix is the longest leading part that enumeration lists as a chain
    trs = parse_presentation((data_dir / "group.lwv").read_text())
    chains = enumerate_chains(trs, 4)
    boundary_matrices(trs, chains, 4, degree(trs))
    routed = trs.cache("express_count")
    assert len(routed) == 1414
    for cell in routed:
        expected = max(k for k in range(cell.dim + 1)
                       if Cell(cell.sort, cell.entries[:k]) in chains[k])
        assert longest_chain_prefix(cell, trs) == expected, cell


def test_extending_each_chain_in_turn_is_the_global_sort(data_dir):
    # each parent's children sorted, parents in canonical order, against
    # every extension of the dimension sorted at once
    seen = set()
    for path in sorted(data_dir.glob("*.lwv")):
        trs = parse_presentation(path.read_text())
        if not check_complete(trs).certified:
            continue
        chains = enumerate_chains(trs, 5)
        for n in range(1, 5):
            every = [Cell(c.sort, c.entries + (u,)) for c in chains[n]
                     for u in chain_extensions(composite(c, trs), trs).values()]
            assert list(extend_chains(chains[n], trs)) == sorted(every, key=cell_key)
            assert chains[n + 1] == sorted(every, key=cell_key)
        seen.add(path.name)
    assert seen == {"abelian_unit.lwv", "group.lwv", "involution.lwv", "involution3.lwv"}


def test_max_redex_monotone_under_composition(ab_trs, group_trs):
    rng = random.Random(13)
    for trs, sort in ((ab_trs, "X"), (group_trs, "G")):
        for _ in range(150):
            t = random_term(trs.signature, sort, rng, 3)
            names = {v.name: v.sort for v in variables(t)}
            sigma = {n: random_term(trs.signature, s, rng, 2) for n, s in names.items()}
            u = substitute(t, sigma) if sigma else t
            a, b = max_redex(t, trs), max_redex(u, trs)
            assert a == b or redex_less(a, b)


def test_enumeration_requires_certified_input():
    trs = Trs(SIG, (
        Rule("r1", plus(x(), ZERO), x()),
        Rule("bad", plus(ZERO, ZERO), plus(ZERO, ZERO)),
    ), step_budget=100)
    with pytest.raises((CompletenessError, Exception)):
        enumerate_chains(trs, 2)


def test_group_dim3_chains_include_associativity_nesting(group_trs):
    chains = enumerate_chains(group_trs, 3)
    composites = {repr(composite(c, group_trs).term) for c in chains[3]}
    # the left-nested associativity overlap is one of the 3-chains
    g = group_trs.signature
    a, b, c, d = (Var(n, "G") for n in ("x1", "x2", "x3", "x4"))
    nested = g.app("m", g.app("m", g.app("m", a, b), c), d)
    assert repr(nested) in composites


def test_max_redex_is_the_maximum_of_redex_set(ab_trs, group_trs):
    # redex_set is the reference; max_redex stops at the first hit of a
    # backwards scan and must agree with it everywhere
    rng = random.Random(29)
    for trs, sort in ((ab_trs, "X"), (group_trs, "G")):
        reducible = 0
        for _ in range(400):
            t = random_term(trs.signature, sort, rng, rng.randint(0, 4))
            redexes = redex_set(t, trs)
            assert max_redex(t, trs) == (max(redexes) if redexes else None), t
            reducible += bool(redexes)
        assert 50 < reducible < 400


@pytest.mark.parametrize("redexes", ["root", "bottom", "both", "none"])
def test_max_redex_on_a_chain_2000_deep(redexes):
    # f(a) is a redex only at the bottom of an f chain, g(x) only at the root
    sig = Signature(("X",), (("f", ("X",), "X"), ("g", ("X",), "X"),
                             ("a", (), "X"), ("b", (), "X")))
    trs = Trs(sig, (Rule("bottom", sig.app("f", sig.app("a")), sig.app("a")),
                    Rule("root", sig.app("g", x()), x())))
    t = sig.app("a" if redexes in ("bottom", "both") else "b")
    for _ in range(1999):
        t = sig.app("f", t)
    t = sig.app("g" if redexes in ("root", "both") else "f", t)
    expected = redex_set(t, trs)
    assert len(expected) == {"root": 1, "bottom": 1, "both": 2, "none": 0}[redexes]
    assert max_redex(t, trs) == (max(expected) if expected else None)


def test_memoised_max_redex_on_group_composites(data_dir):
    # every prefix composite of the group chains through dim 4, computed
    # cold on a fresh system and then read back from its memo
    trs = parse_presentation((data_dir / "group.lwv").read_text())
    chains = enumerate_chains(trs, 4)
    seen = 0
    for cells in chains.values():
        for cell in cells:
            for k in range(1, cell.dim + 1):
                t = composite(cell, trs, k).term
                redexes = redex_set(t, trs)
                expected = max(redexes) if redexes else None
                assert max_redex(t, trs) == expected, t
                assert trs.cache("max_redex")[t] == expected
                assert max_redex(t, trs) == expected, t
                seen += 1
    assert seen > 500


def _kernel_memos(trs):
    """Fill the chain kernels' memos through dim 3 and return a copy."""
    for cells in enumerate_chains(trs, 3).values():
        assert all(is_chain(cell, trs) for cell in cells)
    return {kind: dict(trs.cache(kind))
            for kind in ("max_redex", "extensions")}


def test_rule_order_keeps_memos_apart(data_dir):
    text = (data_dir / "group.lwv").read_text()
    forward = parse_presentation(text)
    backward = parse_presentation(text)
    backward = Trs(backward.signature, backward.rules[::-1])
    g = forward.signature
    t = g.app("i", g.app("e"))  # only r05 applies
    assert max_redex(t, forward) == ((), 4)
    assert max_redex(t, backward) == ((), 5)
    assert max_redex(t, forward) == ((), 4)

    before = _kernel_memos(forward)
    assert all(before.values())
    _kernel_memos(backward)
    assert _kernel_memos(forward) == before
    for kind in before:
        assert backward.cache(kind) is not forward.cache(kind)
    assert backward.cache("max_redex")[t] == ((), 5)
