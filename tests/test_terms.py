import copy
import pickle
import random
import sys
import threading

import pytest

from eqhom import morse
from eqhom.chains import Cell, enumerate_chains
from eqhom.cli import cli_dispatch
from eqhom.coeff import Monomial, expand_derivative, star
from eqhom.collapse import BoundaryMatrix, CellClass
from eqhom.homology import HomologyGroup, InequalityReport, boundary_matrices
from eqhom.monoid import Srs, SrsRule
from eqhom.morse import morse_differential
from eqhom.parser import parse_presentation, parse_srs
from eqhom.rewrite import (
    DEFAULT_JOIN_BUDGET,
    DEFAULT_STEP_BUDGET,
    CompletenessReport,
    CriticalPair,
    Rule,
    Trs,
    check_complete,
    critical_pairs,
    degree,
    is_irreducible,
    random_term,
    reduce_trs,
    rewrite_steps,
)
from eqhom.terms import (
    App,
    Morphism,
    Signature,
    TermError,
    Var,
    _checked_variables,
    canonical_context,
    canonicalize,
    compose_raw,
    essential_from_terms,
    identity,
    is_canonical,
    is_identity,
    is_partial_permutation,
    render_term,
    replace_at,
    substitute,
    subterms,
    var_count,
    variables,
)
from eqhom.unify import Unifier, match_term

from conftest import as_unary_trs

SIG = Signature(("X",), (("plus", ("X", "X"), "X"), ("zero", (), "X")))
GSIG = Signature(("G",), (("m", ("G", "G"), "G"), ("i", ("G",), "G"), ("e", (), "G")))


def x(name="x"):
    return Var(name, "X")


def plus(a, b):
    return SIG.app("plus", a, b)


ZERO = SIG.app("zero")


def _at(t, p):
    """The subterm of ``t`` at position ``p``, looked up from the root."""
    for i in p:
        t = t.args[i - 1]
    return t


def positions_reference(t):
    """The reference for ``subterms``: positions by recursion in preorder,
    each looked up from the root with ``_at``."""
    def walk(u, p):
        yield p
        if isinstance(u, App):
            for i, a in enumerate(u.args, 1):
                yield from walk(a, p + (i,))

    return [(p, _at(t, p)) for p in walk(t, ())]


def test_positions_examples():
    assert [p for p, _ in subterms(plus(x(), ZERO))] == [(), (1,), (2,)]
    assert list(subterms(x())) == [((), x())]
    t = plus(plus(x("x"), x("y")), x("z"))
    assert [p for p, _ in subterms(t)] == [(), (1,), (1, 1), (1, 2), (2,)]
    assert dict(subterms(t))[(1, 2)] == x("y")


def test_subterms_match_the_recursive_reference(ab_trs, group_trs):
    rng = random.Random(41)
    for trs, sort in ((ab_trs, "X"), (group_trs, "G")):
        irreducible = 0
        for _ in range(200):
            t = random_term(trs.signature, sort, rng, rng.randint(0, 5))
            assert list(subterms(t)) == positions_reference(t), t
            # one redex scan: irreducible iff no one-step reduct
            assert is_irreducible(t, trs) == (rewrite_steps(t, trs) == []), t
            irreducible += is_irreducible(t, trs)
        assert 20 < irreducible < 180


def test_subterms_walk_past_the_recursion_limit():
    depth = 5000
    t = ZERO
    for _ in range(depth):
        t = App("plus", (ZERO, t), "X")
    seen = deepest = 0
    for p, u in subterms(t):
        seen += 1
        deepest = max(deepest, len(p))
    assert (seen, deepest) == (2 * depth + 1, depth)
    assert u == ZERO and p == (2,) * depth


def test_substitute_examples():
    assert substitute(plus(x(), x()), {"x": ZERO}) == plus(ZERO, ZERO)
    assert substitute(x(), {"x": plus(x("y"), x("z"))}) == plus(x("y"), x("z"))


def test_substitute_is_simultaneous():
    t = plus(x("x"), x("y"))
    swap = {"x": x("y"), "y": x("x")}
    assert substitute(t, swap) == plus(x("y"), x("x"))
    # a sequential replacement would collapse both variables
    sequential = substitute(substitute(t, {"x": x("y"), "y": x("y")}), {"y": x("x")})
    assert sequential == plus(x("x"), x("x")) != substitute(t, swap)


def test_var_count():
    assert var_count(GSIG.app("m", Var("x", "G"), GSIG.app("i", Var("x", "G"))), "x") == 2
    assert var_count(GSIG.app("e"), "x") == 0
    assert var_count(plus(x("x"), x("y")), "x") == 1


def test_compose_raw_keeps_reducible_composites():
    f = Morphism((("x1", "X"), ("x2", "X")), (plus(x("x1"), x("x2")),))
    g = Morphism((("x", "X"),), (x("x"), ZERO))
    assert compose_raw(f, g) == Morphism((("x", "X"),), (plus(x("x"), ZERO),))


def test_compose_raw_identity_and_order():
    f = Morphism((("x1", "X"), ("x2", "X")), (plus(x("x1"), x("x2")),))
    assert compose_raw(f, identity(f.context)) == f
    g = Morphism((("x", "X"),), (ZERO, x("x")))
    assert compose_raw(f, g).terms == (plus(ZERO, x("x")),)


def test_compose_raw_mismatch():
    f = Morphism((("x1", "X"),), (x("x1"),))
    g = Morphism((("x", "X"),), (x("x"), ZERO))
    with pytest.raises(TermError):
        compose_raw(f, g)


def test_canonicalize_selects_used_slots():
    ctx = (("a", "X"), ("b", "X"), ("c", "X"))
    ess, pp = canonicalize(ctx, (plus(x("b"), x("b")),))
    assert ess == Morphism((("x1", "X"),), (plus(x("x1"), x("x1")),))
    assert pp == Morphism(ctx, (x("b"),))
    assert compose_raw(ess, pp) == Morphism(ctx, (plus(x("b"), x("b")),))


def test_canonicalize_idempotent_on_canonical():
    m = Morphism((("x1", "X"), ("x2", "X")), (plus(x("x1"), x("x2")),))
    ess, pp = canonicalize(m.context, m.terms)
    assert ess == m and is_identity(pp)


def test_duplication_is_essential():
    ess, pp = canonicalize((("a", "X"),), (x("a"), x("a")))
    assert ess == Morphism((("x1", "X"),), (x("x1"), x("x1")))
    assert is_identity(pp)


def test_is_partial_permutation():
    ctx = (("x1", "X"), ("x2", "X"))
    assert is_partial_permutation(Morphism(ctx, (x("x2"), x("x1"))))
    assert not is_partial_permutation(Morphism(ctx, (x("x1"), x("x1"))))
    assert not is_partial_permutation(Morphism(ctx, (plus(x("x1"), x("x2")),)))
    assert is_identity(identity(ctx))


def _random_term(rng, depth, pool):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([x(n) for n in pool] + [ZERO])
    return plus(_random_term(rng, depth - 1, pool), _random_term(rng, depth - 1, pool))


def test_decomposition_round_trip_random():
    rng = random.Random(7)
    pool = ["a", "b", "c", "d"]
    for _ in range(200):
        ctx = tuple((n, "X") for n in pool[: rng.randint(1, 4)])
        names = [n for n, _ in ctx]
        terms = tuple(
            _random_term(rng, rng.randint(0, 3), names) for _ in range(rng.randint(1, 3))
        )
        ess, pp = canonicalize(ctx, terms)
        assert compose_raw(ess, pp) == Morphism(ctx, terms)
        # the essential part re-decomposes trivially
        ess2, pp2 = canonicalize(ess.context, ess.terms)
        assert ess2 == ess and is_identity(pp2)
        assert is_canonical(ess)


def _alpha_equal(ts1, ts2):
    """Independent renaming-equivalence check by building the bijection."""
    fwd, bwd = {}, {}

    def walk(a, b):
        if isinstance(a, Var) and isinstance(b, Var):
            if a.sort != b.sort:
                return False
            if fwd.setdefault(a.name, b.name) != b.name:
                return False
            if bwd.setdefault(b.name, a.name) != a.name:
                return False
            return True
        if isinstance(a, App) and isinstance(b, App):
            return a.op == b.op and all(walk(p, q) for p, q in zip(a.args, b.args))
        return False

    return len(ts1) == len(ts2) and all(walk(a, b) for a, b in zip(ts1, ts2))


def test_canonical_forms_classify_alpha_classes_exhaustively():
    # all tuples (length <= 2) of depth <= 2 terms over a unary signature
    usig = Signature(("X",), (("s", ("X",), "X"), ("c", (), "X")))
    base = [Var("x", "X"), Var("y", "X"), usig.app("c")]
    d1 = [usig.app("s", t) for t in base]
    d2 = [usig.app("s", t) for t in d1]
    terms = base + d1 + d2
    tuples = [(t,) for t in terms] + [(a, b) for a in terms for b in terms]
    canon = {tup: essential_from_terms(tup).terms + (essential_from_terms(tup).context,)
             for tup in tuples}
    for t1 in tuples:
        for t2 in tuples:
            assert (_alpha_equal(t1, t2)) == (canon[t1] == canon[t2]), (t1, t2)


def test_substitution_commutes_with_positions():
    rng = random.Random(3)
    for _ in range(100):
        t = _random_term(rng, 3, ["a", "b"])
        sigma = {"a": _random_term(rng, 2, ["u"]), "b": _random_term(rng, 2, ["u"])}
        s = substitute(t, sigma)
        for p, u in subterms(t):
            assert _at(s, p) == substitute(u, sigma)


def test_render_term():
    assert render_term(plus(x(), ZERO)) == "plus(x,zero)"
    assert render_term(ZERO) == "zero"


def _is_canonical_reference(m):
    ess, pp = canonicalize(m.context, m.terms)
    return is_identity(pp) and ess == m


def _random_morphism(rng, sig, sort):
    """Terms over a mix of canonical and other names, in a context that is
    sometimes reordered, padded with unused slots or renamed to x1..xn."""
    pool = {s: rng.sample(["x1", "x2", "x3", "a", "b"], 3) for s in sig.sorts}
    terms = tuple(random_term(sig, sort, rng, rng.randint(0, 3), pool)
                  for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.3:
        return essential_from_terms(terms)
    ctx = list(dict.fromkeys((v.name, v.sort) for t in terms for v in variables(t)))
    if rng.random() < 0.3:
        rng.shuffle(ctx)
    if rng.random() < 0.3:
        ctx.insert(rng.randint(0, len(ctx)), ("unused", sort))
    return Morphism(tuple(ctx), terms)


def test_is_canonical_matches_canonicalize(group_trs, ab_trs):
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for trs, sort in ((group_trs, "G"), (ab_trs, "X")):
        for _ in range(600):
            m = _random_morphism(rng, trs.signature, sort)
            expected = _is_canonical_reference(m)
            assert is_canonical(m) == expected, m
            seen[expected] += 1
    assert min(seen.values()) > 100
    # hand-picked: unused slot, swapped slots, wrong names, a closed term
    ctx = (("x1", "X"), ("x2", "X"))
    for m in (Morphism(ctx, (x("x1"),)),
              Morphism(ctx, (plus(x("x2"), x("x1")),)),
              Morphism((("x2", "X"), ("x1", "X")), (plus(x("x2"), x("x1")),)),
              Morphism((("y1", "X"),), (x("y1"),)),
              Morphism((), (ZERO,)),
              Morphism(ctx, (x("x1"), plus(x("x1"), x("x2"))))):
        assert is_canonical(m) == _is_canonical_reference(m), m


def _morphism_error_reference(context, terms):
    """The validation messages as a per-term scan of first occurrences."""
    names = [n for n, _ in context]
    if len(set(names)) != len(names):
        return "duplicate context variable"
    sorts = dict(context)
    for t in terms:
        for v in variables(t):
            if v.name not in sorts:
                return f"term variable {v.name!r} missing from context"
            if sorts[v.name] != v.sort:
                return f"context sort clash for {v.name!r}"
    return None


def test_morphism_validation_messages(group_trs):
    rng = random.Random(5)
    sig = group_trs.signature
    raised = 0
    for _ in range(500):
        m = _random_morphism(rng, sig, "G")
        ctx = list(m.context)
        if ctx:
            k = rng.randrange(len(ctx))
            how = rng.choice(["drop", "clash", "duplicate"])
            if how == "drop":
                del ctx[k]
            elif how == "clash":
                ctx[k] = (ctx[k][0], "H")
            else:
                ctx.insert(rng.randint(0, len(ctx)), ctx[k])
        expected = _morphism_error_reference(tuple(ctx), m.terms)
        if expected is None:
            Morphism(tuple(ctx), m.terms)
            canonicalize(tuple(ctx), m.terms)
            continue
        for build in (Morphism, canonicalize):
            with pytest.raises(TermError) as info:
                build(tuple(ctx), m.terms)
            assert str(info.value) == expected
        raised += 1
    assert raised > 200
    for build in (Morphism, canonicalize):
        with pytest.raises(TermError, match="^term variable 'y' missing from context$"):
            build((("x", "X"),), (plus(x("x"), plus(x("y"), x("z"))),))
        with pytest.raises(TermError, match="^context sort clash for 'x'$"):
            build((("x", "G"),), (x("x"),))
        with pytest.raises(TermError, match="^context sort clash for 'x'$"):
            build((("x", "X"),), (x("x"), Var("x", "G")))
        with pytest.raises(TermError, match="^duplicate context variable$"):
            build((("x", "X"), ("x", "X")), (x("x"),))


def test_hash_eq_contract():
    def build():
        v = Var("x1", "X")
        app = plus(v, plus(ZERO, v))
        m = Morphism((("x1", "X"),), (app,))
        return v, app, m, Cell("X", (m,))

    first, second = build(), build()
    _, app, m, cell = first
    # the hash is fixed at construction, before any hash() call: its slot
    # holds the hash of the compared fields already
    for value, parts in ((app, (app.op, app.args, app.sort)), (m, (m.context, m.terms)),
                         (cell, (cell.sort, cell.entries))):
        assert value._hash == hash(parts)
    for a, b in zip(first, second):
        # terms are interned; morphisms and cells are built afresh
        assert (a is b) == isinstance(a, (Var, App))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "_hash" not in repr(a)
        assert not hasattr(a, "__dict__")
    for value, args in ((m, (m.context, m.terms)), (cell, (cell.sort, cell.entries))):
        # _hash is no constructor parameter, and neither == nor the repr reads it
        with pytest.raises(TypeError):
            type(value)(*args, _hash=value._hash)
        other = type(value)(*args)
        object.__setattr__(other, "_hash", value._hash + 1)
        assert other == value and repr(other) == repr(value)
    # the cached hash is the hash of the compared fields, so hash-ordered
    # containers iterate as they did before it was cached
    assert hash(app) == hash((app.op, app.args, app.sort))
    assert hash(m) == hash((m.context, m.terms))
    assert hash(cell) == hash((cell.sort, cell.entries))


# pipelines whose every morphism after parsing is derived inside the engine
DERIVING_PIPELINES = [
    ("homology", "group.lwv", "--max-dim", "3"),
    ("resolution", "group.lwv", "--max-dim", "3", "--mode", "symbolic"),
    ("resolution", "abelian_unit.lwv", "--max-dim", "4"),
]


def _run_pipeline(capsys, data_dir, argv):
    argv = [str(data_dir / a) if a.endswith(".lwv") else a for a in argv]
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", DERIVING_PIPELINES, ids=" ".join)
def test_every_derived_morphism_passes_the_context_check(capsys, data_dir, monkeypatch, argv):
    derived = Morphism.derived
    built = []

    def checked(cls, context, terms):
        _checked_variables(context, terms)  # raises on a term that does not fit
        built.append(context)
        return derived(context, terms)

    monkeypatch.setattr(Morphism, "derived", classmethod(checked))
    _run_pipeline(capsys, data_dir, argv)
    assert built


@pytest.mark.parametrize("argv", DERIVING_PIPELINES, ids=" ".join)
def test_the_engine_builds_no_checked_morphism(capsys, data_dir, monkeypatch, argv):
    post_init = Morphism.__post_init__
    checked = []

    def counted(m):
        checked.append(m)
        post_init(m)

    monkeypatch.setattr(Morphism, "__post_init__", counted)
    _run_pipeline(capsys, data_dir, argv)
    assert checked == []


# Each condition takes the system the pipeline runs, then the kernel's arguments.

def _substitute_fits(system, t, assignment):
    return all(v.name in assignment and assignment[v.name].sort == v.sort
               for v in variables(t))


def _replace_at_fits(system, t, p, s):
    for i in p:
        if not (isinstance(t, App) and 1 <= i <= len(t.args)):
            return False
        t = t.args[i - 1]
    return t.sort == s.sort


def _numbered(context):
    return context == canonical_context(s for _, s in context)


def _expand_derivative_fits(system, i, tm, subscript, trs):
    return (1 <= i <= len(tm.context) and subscript.codomain_sorts == tm.domain_sorts
            and _numbered(tm.context) and _numbered(subscript.context))


def _star_fits(system, alpha):
    return _numbered(alpha.context) and not any(
        isinstance(sub, App) and match_term(rule.lhs, sub) is not None
        for t in alpha.terms for _, sub in subterms(t) for rule in system.rules)


# the kernels that trust their callers, each with the condition its callers keep
TRUSTING = [(substitute, _substitute_fits), (replace_at, _replace_at_fits),
            (expand_derivative, _expand_derivative_fits), (star, _star_fits)]


def _rewrites(trs):
    """Certification and one-step rewriting, on any system."""
    check_complete(trs)
    sides = [t for r in trs.rules for t in (r.lhs, r.rhs)]
    for t in sides + [t for cp in critical_pairs(trs) for t in (cp.left, cp.right)]:
        rewrite_steps(t, trs)  # the pairs' sides have redexes below the root


def _pipeline(trs):
    """The public calls that reach the trusting kernels, on a reduced system."""
    _rewrites(trs)
    chains = enumerate_chains(trs, 3)
    deg = degree(trs)
    if deg != 1:  # at its least admissible modulus; degree 1 admits none
        boundary_matrices(trs, chains, 3, min(p for p in range(2, deg + 1) if deg % p == 0)
                          if deg else 0)
    for n in range(1, 4):
        for cell in chains[n]:
            morse_differential(cell, trs, "symbolic")


def test_the_trusting_kernels_only_see_arguments_that_fit(data_dir, monkeypatch):
    calls, misfits, running, partners = {}, [], [None], []

    def checking(fn, fits):
        def wrapper(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            if not fits(running[-1], *args):
                misfits.append((fn.__name__, args))
            return fn(*args)
        return wrapper

    def run(trs):
        running.append(trs)
        _pipeline(trs)
        # the split's halves, as every routed cell's entries, are canonical and no selection
        routed = [c for kind, memo in trs.caches.items() if kind.startswith("express_")
                  for c in memo]
        assert routed
        for cell in routed + partners:
            assert all(is_canonical(e) and not is_partial_permutation(e)
                       for e in cell.entries), cell
        partners.clear()

    match = morse.match

    def recorded_match(*args):
        chain, partner = match(*args)
        if partner is not None:
            partners.append(partner)
        return chain, partner

    monkeypatch.setattr(morse, "match", recorded_match)

    for fn, fits in TRUSTING:  # rebound in every module that imported it, recursion included
        wrapper = checking(fn, fits)
        for name, module in list(sys.modules.items()):
            if name == "eqhom" or name.startswith("eqhom."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)

    for path in sorted(data_dir.glob("*.lwv")):
        trs = parse_presentation(path.read_text())  # fresh, so no cache hides a call
        if not check_complete(trs).certified:
            _rewrites(trs)
            trs = reduce_trs(trs)
        run(trs)
    run(as_unary_trs(parse_srs((data_dir / "s3.srs").read_text())))
    assert set(calls) == {fn.__name__ for fn, _ in TRUSTING}, calls
    assert misfits == []


def test_walks_and_degree_survive_a_term_past_the_recursion_limit():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    v = Var("x", "X")
    chain = v
    for _ in range(depth):
        chain = App("f", (chain,), "X")
    assert variables(chain) == [v]
    assert (var_count(chain, "x"), var_count(chain, "y")) == (1, 0)
    lhs = App("g", (chain, v), "X")
    assert (variables(lhs), var_count(lhs, "x")) == ([v], 2)
    sig = Signature(("X",), (("f", ("X",), "X"), ("g", ("X", "X"), "X")))
    assert degree(Trs(sig, (Rule("r", lhs, v),))) == 1


def test_terms_past_the_recursion_limit_compare():
    depth = 3000
    assert depth > sys.getrecursionlimit()

    def nest(leaf, op="f"):
        for _ in range(depth):
            leaf = App(op, (leaf,), "X")
        return leaf

    v, c = Var("x", "X"), App("c", (), "X")
    a, b = nest(v), nest(v)
    assert a is b and a == b and not a != b  # two builds are one interned object
    assert {a: 1}[b] == 1
    for other in (nest(Var("y", "X")), nest(c), nest(v, "g"), App("f", (a,), "X")):
        assert a != other and not a == other
    assert a != v and v != a and a.args[0] != c


def test_copies_and_pickles_of_a_term_are_the_interned_term():
    v = Var("x", "X")
    for t in (v, App("c", (), "X"), App("f", (v, App("g", (v,), "X")), "X")):
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t


def test_a_deep_copy_of_a_term_past_the_recursion_limit_is_the_term():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    t = Var("x", "X")
    for _ in range(depth):
        t = App("f", (t,), "X")
    assert copy.deepcopy(t) is t and copy.deepcopy([t, (t,)]) == [t, (t,)]


def test_assigning_or_deleting_a_term_field_raises():
    v = Var("x", "X")
    app = App("f", (v,), "X")
    for t, name, value in ((v, "name", "y"), (v, "sort", "Y"), (app, "op", "g"),
                           (app, "args", ()), (app, "_hash", 0), (app, "other", 1)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert (v.name, app.op, app.args, hash(app)) == ("x", "f", (v,), hash(("f", (v,), "X")))


def test_two_threads_building_the_same_terms_get_one_object_each():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    start = threading.Barrier(2)

    def build(out):  # names of this test's own, so each term is new to the table
        start.wait()
        for i in range(999):
            leaf = Var(f"race_x{i % 7}", "X")
            out.append(App("race_f", (leaf, App(f"race_c{i}", (), "X")), "X"))
        deep = Var("race_x", "X")
        for _ in range(depth):
            deep = App("race_g", (deep,), "X")
        out.append(deep)

    built = [[], []]
    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the two builds interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built[0]) == len(built[1]) == 1000
    assert all(a is b for a, b in zip(*built))


def test_replace_at_past_the_recursion_limit():
    depth = 3000
    assert depth > sys.getrecursionlimit()
    v, c = Var("x", "X"), App("c", (), "X")
    t, expected = v, c
    for _ in range(depth):
        t, expected = App("g", (c, t), "X"), App("g", (c, expected), "X")
    assert replace_at(t, (2,) * depth, c) is expected
    inner = App("g", (v, v), "X")
    for _ in range(depth - 1):
        inner = App("g", (c, inner), "X")
    assert replace_at(t, (2,) * (depth - 1) + (1,), v) is inner
    assert replace_at(t, (), c) is c and replace_at(t, (1,), c) is t


def _value_classes():
    """Each value class with its constructor's arguments by name, in order;
    the fields ``==`` and ``hash`` read; the defaults of the trailing
    parameters; and one changed argument that leaves the value equal
    (True) or not (False)."""
    v = Var("x1", "X")
    fx = App("f", (v,), "X")
    sig = Signature(("X",), (("f", ("X",), "X"),))
    rule = Rule("r", App("f", (fx,), "X"), v)
    m = Morphism((("x1", "X"),), (fx,))
    cell = Cell("X", (m,))
    group = HomologyGroup(1, (2,))
    word_rule = SrsRule("r", "aa", "")
    return [
        (Signature, {"sorts": ("X",), "ops": sig.ops}, ("sorts", "ops"), {},
         ("sorts", ("X", "Y"), False)),
        (Morphism, {"context": (("x1", "X"),), "terms": (fx,)}, ("context", "terms"), {},
         ("terms", (v,), False)),
        (Cell, {"sort": "X", "entries": (m,)}, ("sort", "entries"), {}, ("entries", (), False)),
        (Monomial, {"factors": (("f", 1, m),), "tail": m}, ("factors", "tail"), {},
         ("factors", (), False)),
        (Rule, {"name": "r", "lhs": rule.lhs, "rhs": v}, ("name", "lhs", "rhs"), {},
         ("name", "s", False)),
        (Trs, {"signature": sig, "rules": (rule,), "step_budget": 7, "join_budget": 8},
         ("signature", "rules", "step_budget", "join_budget"),
         {"step_budget": DEFAULT_STEP_BUDGET, "join_budget": DEFAULT_JOIN_BUDGET},
         ("join_budget", 9, False)),
        (CriticalPair, {"outer": rule, "inner": rule, "position": (1,), "left": fx, "right": v},
         ("outer", "inner", "position", "left", "right"), {}, ("position", (), False)),
        (Unifier, {"left": m, "right": m, "unified": m}, ("left", "right", "unified"), {},
         ("unified", identity((("x1", "X"),)), False)),
        (CellClass, {"kind": "redundant", "partner": cell, "epsilon": -1},
         ("kind", "partner", "epsilon"), {"partner": None, "epsilon": None}, ("epsilon", 1, False)),
        (HomologyGroup, {"rank": 1, "torsion": (2,)}, ("rank", "torsion"), {}, ("rank", 0, False)),
        (SrsRule, {"name": "r", "lhs": "aa", "rhs": ""}, ("name", "lhs", "rhs"), {},
         ("rhs", "a", False)),
        (Srs, {"alphabet": ("a",), "rules": (word_rule,), "names": {"a": "x"}},
         ("alphabet", "rules"), {"names": {}}, ("names", {"a": "y"}, True)),
        (BoundaryMatrix, {"dim": 1, "rows": [cell], "cols": [cell], "entries": [[1]], "modulus": 0},
         None, {}, ("modulus", 2, False)),
        (InequalityReport, {"dim": 0, "modulus": 0, "chain_counts": {0: 1}, "groups": {0: group},
                            "weak_lhs": 1, "weak_rhs": 1, "strong_lhs": 1, "strong_rhs": 1,
                            "axioms": (1, 1, 1)},
         None, {}, ("weak_rhs", 2, False)),
        (CompletenessReport, {"reduced": True, "reducedness_failures": [], "locally_confluent": True,
                              "unjoinable": [], "termination_probe_ok": True,
                              "termination_offender": None, "probe_terms": 3,
                              "budget_exceeded": False, "assume_terminating": True},
         None, {"assume_terminating": False}, ("probe_terms", 4, False)),
    ]


@pytest.mark.parametrize("cls, args, compared, defaults, change", _value_classes(),
                         ids=[case[0].__name__ for case in _value_classes()])
def test_value_class_contract(cls, args, compared, defaults, change):
    """``compared`` None: a mutable report, unhashable, compared by every field."""
    by_position, by_keyword = cls(*args.values()), cls(**args)
    for value in (by_position, by_keyword):
        assert [getattr(value, name) for name in args] == list(args.values())
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != object() and by_position != ()
    required = {name: arg for name, arg in args.items() if name not in defaults}
    for value in (cls(*required.values()), cls(**required)):
        assert {name: getattr(value, name) for name in defaults} == defaults
    name, other, equal = change
    changed = cls(**{**args, name: other})
    assert (changed == by_position, changed != by_position) == (equal, not equal)
    if compared is None:
        with pytest.raises(TypeError):
            hash(by_position)
        setattr(by_position, name, other)  # a report stays mutable
        assert by_position == changed
        return
    assert hash(by_position) == hash(tuple(getattr(by_position, f) for f in compared))
    for field in args:
        with pytest.raises(AttributeError):
            setattr(by_position, field, args[field])
        with pytest.raises(AttributeError):
            delattr(by_position, field)
    assert [getattr(by_position, name) for name in args] == list(args.values())


COPIED = (Signature, Rule, SrsRule, Morphism, Cell, Monomial, HomologyGroup)


@pytest.mark.parametrize("cls, args", [case[:2] for case in _value_classes() if case[0] in COPIED],
                         ids=[cls.__name__ for cls in COPIED])
def test_copies_and_pickles_of_a_value_are_equal(cls, args):
    value = cls(**args)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)
