"""The word complex: monoids presented by complete string rewriting
systems, the one-sorted, one-operation-per-letter case of the term
engine.

A letter is one character (``parse_srs`` codes names in sorted order) and
a word is a ``str``.  One compiled search, an alternation of lookbehinds on
the left sides in rule order, finds the redex that ends first for
``reduce_word``, ``is_irreducible_word``, ``chain_tails``, the lift's cut
and the oracle's ``match``.  That is the leftmost redex, since in a
reduced system no left side contains another; of an unreduced system
only ``is_irreducible_word``'s yes or no is asked, before certification
stops.

Cells are tuples of nonempty irreducible words.  A cell is a chain when
every consecutive concatenation first becomes reducible exactly at its
right end; ``chain_tails`` extends chains for enumeration.

The lift.  The algebraic-Morse collapse of the normalized bar resolution
along the matching below is Anick's resolution (Anick, Trans. AMS 1986;
Jöllenbeck & Welker, Mem. AMS 2009, ch. 5), computed here on the chains
alone: a free right ZM-module with one generator per chain, whose
elements are integer sums over (chain, normal word) pairs.  With
s_n = (-1)^n, its differential comes from Kobayashi's contracting
homotopy ``i`` (JPAA 1990):

* ``d(x) = s_1·()⊗x - s_1·()⊗1`` for a letter, and
  ``d((c', t)) = s_n·c'⊗t - s_n·i(d(c')·t)`` for an n-chain;
* ``i(c⊗w)`` is 0 when ``last(c) + w`` has no redex; otherwise the
  leftmost redex ends inside ``w`` at the cut ``w = u·v``, and
  ``i(c⊗w) = s_{n+1}·(c, u)⊗v + i(i(d(c)·u)·v)``;
* ``i(()⊗w) = s_1·Σ_k (w_k)⊗w_{k+1…}``, one term per letter.

``anick_differential`` memoises ``d`` per chain and ``i`` per (chain,
word) pair, not on the 0-chain, whose closed form would hold a word's
every suffix; ``collapse.evaluate`` runs it under routing's budget rule.
The count rows send every word to 1, and the integral homology of this
trivial coefficient is the monoid's homology.

The routed oracle.  The bar boundary acts by the first word, merges
adjacent words and drops the last word.  A non-chain cell splits the
entry after its longest chain prefix at the earliest reducible point,
where its first redex ends; the cells with a face that splits back to
them are the collapsible ones.  The adapter
``_Words`` decides both in one pass, one redex search per entry, and
``word_morse_differential`` routes a chain's boundary through
``eqhom.collapse`` over integer counts.  The tests check the lift
against it entry for entry; no command runs it.

Certification is the term engine's (``eqhom.rewrite``), on words: overlap
critical pairs, ``reduce_word``, and rule sides and letter powers as probes.
"""

from __future__ import annotations

import re

from . import collapse, rewrite
from .collapse import BoundaryMatrix, CellClass, add_term, assemble_matrices
from .homology import HomologyGroup, homology_groups
from .rewrite import BudgetExceeded, CompletenessReport, Memoised, memoised
from .terms import Frozen

Word = str


class SrsRule(Frozen):
    __slots__ = _fields = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: Word, rhs: Word):
        if not lhs:
            raise ValueError(f"rule {name}: empty left-hand side")
        self._assign(name, lhs, rhs)


class Srs(Memoised):
    __slots__ = ("alphabet", "rules", "step_budget", "names", "redex")
    _fields, _compared = __slots__[:4], __slots__[:2]  # == reads no budget and no names

    def __init__(self, alphabet: tuple[str, ...],  # one character each, in declaration order
                 rules: tuple[SrsRule, ...], step_budget: int = 10_000, names: dict | None = None):
        if any(len(a) != 1 for a in alphabet):
            raise ValueError(f"letters are one character each: {alphabet}")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate letters")
        rule_names = [r.name for r in rules]
        if len(set(rule_names)) != len(rule_names):
            raise ValueError("duplicate rule names")
        for r in rules:
            for c in r.lhs + r.rhs:
                if c not in alphabet:
                    raise ValueError(f"rule {r.name}: letter {c!r} not declared")
        # a match is where a left side ends, and group i + 1 spans rule i;
        # with no rules, an empty alternation would match everywhere
        super().__init__(alphabet, rules, step_budget, {} if names is None else names, re.compile(
            "|".join(f"(?<=({re.escape(r.lhs)}))" for r in rules) or "(?!)"))

    def with_rules(self, rules: tuple[SrsRule, ...]) -> Srs:
        """This system with ``rules`` in place of its own, and fresh memos."""
        return Srs(self.alphabet, rules, self.step_budget, self.names)


WordCell = tuple[Word, ...]


def render_word(w: Word, srs: Srs) -> str:
    """``w`` in the letter names of ``srs`` (a letter without one is its own)."""
    return " ".join(srs.names.get(c, c) for c in w) if w else "ε"


def reduce_word(w: Word, srs: Srs) -> Word:
    cache = srs.cache("nf")  # by hand: every intermediate word is looked up
    hit = cache.get(w)
    if hit is not None:
        return hit
    given = w
    start = 0  # a rewrite at i leaves w[:i] redex-free: the next redex ends after i
    for _ in range(srs.step_budget):
        hit = cache.get(w)
        if hit is not None:
            cache[given] = hit
            return hit
        redex = srs.redex.search(w, start)
        if redex is None:
            cache[given] = w
            cache[w] = w
            return w
        i = redex.start(redex.lastindex)
        w = w[:i] + srs.rules[redex.lastindex - 1].rhs + w[redex.end():]
        start = i + 1
    raise BudgetExceeded(f"word reduction budget exhausted on {render_word(given, srs)}")


def is_irreducible_word(w: Word, srs: Srs) -> bool:
    return srs.redex.search(w) is None


def check_complete_srs(srs: Srs) -> CompletenessReport:
    """The term engine's certification (``eqhom.rewrite``) on words; a
    reducedness failure returns at once, the probes not run (None)."""
    failures = rewrite.reducedness_failures(srs, is_irreducible_word)
    if failures:
        return CompletenessReport(False, failures, None, [], None, None, 0, False)
    probes = [w for r in srs.rules for w in (r.rhs, r.lhs)]
    probes += [a * 4 for a in srs.alphabet]  # small generic sample
    report = rewrite.judge(failures, _word_critical_pairs(srs),
                           lambda pair: reduce_word(pair[0], srs) == reduce_word(pair[1], srs),
                           lambda w: reduce_word(w, srs), probes, lambda w: render_word(w, srs))
    report.unjoinable = [tuple(render_word(w, srs) for w in pair) for pair in report.unjoinable]
    return report


def _word_critical_pairs(srs: Srs):
    """Overlaps, where a proper suffix of one left side is a proper prefix
    of another: in a reduced system no left side contains another, so
    these are all the critical pairs."""
    for r1 in srs.rules:
        for r2 in srs.rules:
            l1, l2 = r1.lhs, r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k]:
                    yield r1.rhs + l2[k:], l1[:-k] + r2.rhs


def certify_srs(srs: Srs) -> CompletenessReport:
    return rewrite.certify(srs, check=check_complete_srs)


@memoised("tails")
def chain_tails(last: Word, srs: Srs) -> list[Word]:
    """Words v, a proper suffix of a left side, such that the first redex
    of ``last + v`` ends exactly at its end.  Memoised per ``last``; the
    returned list is shared, not to be mutated."""
    out = set()
    for rule in srs.rules:
        l = rule.lhs
        for k in range(1, min(len(l), len(last) + 1)):
            if last.endswith(l[:k]):
                w = last + l[k:]
                if srs.redex.search(w).end() == len(w):
                    out.add(l[k:])
    return sorted(out)


def enumerate_word_chains(srs: Srs, max_dim: int) -> dict[int, list[WordCell]]:
    """Chains per dimension: the empty cell, the letters, and inductive
    extensions by ``chain_tails``.  Requires certification."""
    certify_srs(srs)
    chains: dict[int, list[WordCell]] = {0: [()]}
    if max_dim >= 1:
        chains[1] = [(a,) for a in srs.alphabet if is_irreducible_word(a, srs)]
    for dim in range(2, max_dim + 1):
        chains[dim] = sorted(cell + (v,) for cell in chains[dim - 1]
                             for v in chain_tails(cell[-1], srs))
    return chains


class _Words:
    """The word complex of ``srs`` over the integers, as ``eqhom.collapse``
    sees it; kernels are module globals at call time.  ``match`` needs a
    reduced system, as certification ensures."""

    ring = collapse.Integers()

    def __init__(self, srs: Srs):
        self.system = srs

    def match(self, cell: WordCell) -> tuple[bool, WordCell | None]:
        """One pass, one redex search per entry: a chain starts with an
        irreducible letter, and each next entry ``u`` after ``prev`` is a
        chain entry iff the first redex of ``prev + u`` starts inside
        ``prev`` and ends at the end.  The first entry that fails is split
        where that redex ends, if before the end; a failed first entry is
        split after its first letter."""
        if not cell:
            return True, None
        head = cell[0]
        if len(head) != 1 or not is_irreducible_word(head, self.system):
            return False, ((head[:1], head[1:]) + cell[1:] if len(head) >= 2 else None)
        search = self.system.redex.search
        for i in range(1, len(cell)):
            prev = cell[i - 1]
            w = prev + cell[i]
            redex = search(w)
            if redex and redex.start(redex.lastindex) < len(prev) and redex.end() == len(w):
                continue
            cut = redex.end() if redex else len(w)
            return False, (cell[:i] + (w[len(prev):cut], w[cut:]) + cell[i + 1:]
                           if cut < len(w) else None)
        return True, None

    def boundary(self, cell: WordCell) -> dict[WordCell, int]:
        return word_boundary(cell, self.system)


def classify_word_cell(cell: WordCell, srs: Srs) -> CellClass:
    return collapse.classify(cell, _Words(srs))


def word_boundary(cell: WordCell, srs: Srs) -> dict[WordCell, int]:
    """Bar-resolution boundary with identity entries dropped: act by the
    first word, merge adjacent words, drop the last word."""
    n = len(cell)
    if n < 1:
        raise ValueError("boundary needs dimension at least 1")
    acc: dict[WordCell, int] = {cell[1:]: 1}
    for j in range(1, n):
        merged = reduce_word(cell[j - 1] + cell[j], srs)
        if merged:  # an identity entry is a degenerate face
            add_term(acc, cell[:j - 1] + (merged,) + cell[j + 1:], (-1) ** j)
    add_term(acc, cell[:n - 1], (-1) ** n)
    return acc


def word_morse_differential(cell: WordCell, srs: Srs) -> dict[WordCell, int]:
    return collapse.morse_differential(cell, _Words(srs))


Lifted = dict[tuple[WordCell, Word], int]  # Σ k·(chain ⊗ normal word), in the right ZM-module


def _contract(x: Lifted, v: Word, srs: Srs):
    """``i(x·v)``, yielding the key ``(c, w)`` of each term off the 0-chain
    and receiving its value; ``i(()⊗w) = -Σ_k (w_k)⊗w_{k+1…}``, one term
    per letter, is summed in place."""
    out: Lifted = {}
    for (c, w), k in x.items():
        w = reduce_word(w + v, srs)
        if c:
            for key, j in (yield c, w).items():
                add_term(out, key, k * j)
        else:
            for p in range(len(w)):
                add_term(out, ((w[p],), w[p + 1:]), -k)
    return out


def _lift_entry(key, srs: Srs):
    """One entry of the lift: ``d(c)`` for a chain ``key = c``, ``i(c⊗w)``
    for ``key = (c, w)``.  A generator that yields the keys of the entries
    it needs and is sent their values."""
    if isinstance(key[0], str):
        head, t = key[:-1], key[-1]
        s = -1 if len(key) % 2 else 1
        if not head:
            return {((), t): s, ((), ""): -s}
        lower = yield from _contract((yield head), t, srs)
        out = {(head, t): s}
        for term, k in lower.items():
            add_term(out, term, -s * k)
        return out
    c, w = key
    redex = srs.redex.search(c[-1] + w)
    if redex is None:
        return {}
    cut = redex.end() - len(c[-1])
    below = yield from _contract((yield c), w[:cut], srs)
    out = yield from _contract(below, w[cut:], srs)
    add_term(out, (c + (w[:cut],), w[cut:]), 1 if len(c) % 2 else -1)
    return out


def anick_differential(cell: WordCell, srs: Srs) -> Lifted:
    """``d(cell)`` in Anick's resolution, the free right ZM-module on the
    chains: ``collapse.evaluate`` over ``_lift_entry`` (memoised with
    every entry it needs, read-only), one step of
    ``collapse.DEFAULT_ROUTE_BUDGET`` per entry it writes."""
    budget = collapse.DEFAULT_ROUTE_BUDGET
    exhausted = "lift budget exhausted: one differential computed more than {} entries"
    return collapse.evaluate(cell, _lift_entry, srs, srs.cache("anick"), [budget, budget],
                             exhausted)


def word_boundary_matrices(srs: Srs, chains: dict[int, list[WordCell]],
                           max_dim: int) -> dict[int, BoundaryMatrix]:
    """Counting matrices of Anick's resolution: a chain's row sums the
    coefficients of its ``anick_differential`` per chain."""
    def counted(cell: WordCell) -> dict[WordCell, int]:
        row: dict[WordCell, int] = {}
        for (c, _), k in anick_differential(cell, srs).items():
            add_term(row, c, k)
        return row

    return assemble_matrices(counted, chains, max_dim)


def monoid_homology(srs: Srs, max_dim: int) -> dict[int, HomologyGroup]:
    """Integral homology with trivial coefficients through ``max_dim``;
    needs chains one dimension higher to bound the image at the top."""
    chains = enumerate_word_chains(srs, max_dim + 1)
    counts = {k: len(v) for k, v in chains.items()}
    matrices = word_boundary_matrices(srs, chains, max_dim + 1)
    return homology_groups({n: m.entries for n, m in matrices.items()}, counts, 0,
                           range(max_dim + 1))
