"""The word complex: monoids presented by complete string rewriting
systems, the one-sorted, one-operation-per-letter case of the term
engine.

A letter is one character (``parse_srs`` codes names in sorted order) and
a word is a ``str``.  One compiled search of the left sides, in rule order,
finds the leftmost redex, first-declared rule first, for ``reduce_word``,
``is_irreducible_word``, ``chain_tails`` and the adapter's ``match``.

Cells are tuples of nonempty irreducible words.  A cell is a chain when
every consecutive concatenation first becomes reducible exactly at its
right end.  The boundary is that of the normalized bar resolution: act
by the first word, merge adjacent words, drop the last word.  A
non-chain cell splits the entry after its longest chain prefix at the
earliest reducible point, the end of the leftmost redex in a reduced
system; the cells with a face that splits back to them are the
collapsible ones.  The adapter's ``match`` decides both in one pass over
the cell, one redex search per entry, and like every adapter keeps no
state between calls; ``chain_tails`` serves enumeration only.  The
collapse along this matching (``eqhom.collapse``) has one free generator
per chain, and the integral homology of its trivial coefficients is the
monoid's homology.

Coefficients are integer counts (``eqhom.collapse.Integers``): every
monoid element maps to 1, so the first face, which acts by the first
word, has coefficient 1 like the others up to sign.

Certification is the term engine's (``eqhom.rewrite``), on words: overlap
critical pairs, ``reduce_word``, and rule sides and letter powers as probes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import collapse, rewrite
from .collapse import BoundaryMatrix, CellClass, add_term, assemble_matrices
from .homology import HomologyGroup, homology_groups
from .rewrite import BudgetExceeded, CompletenessReport, Memoised, memoised

Word = str


@dataclass(frozen=True)
class SrsRule:
    name: str
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not self.lhs:
            raise ValueError(f"rule {self.name}: empty left-hand side")


@dataclass(frozen=True)
class Srs(Memoised):
    alphabet: tuple[str, ...]  # one character each, in declaration order
    rules: tuple[SrsRule, ...]
    step_budget: int = field(default=10_000, compare=False)
    names: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    longest_lhs: int = field(init=False, repr=False, compare=False, default=0)
    redex: re.Pattern = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if any(len(a) != 1 for a in self.alphabet):
            raise ValueError(f"letters are one character each: {self.alphabet}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters")
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names")
        for r in self.rules:
            for c in r.lhs + r.rhs:
                if c not in self.alphabet:
                    raise ValueError(f"rule {r.name}: letter {c!r} not declared")
        object.__setattr__(self, "longest_lhs", max((len(r.lhs) for r in self.rules), default=0))
        # group i + 1 is rule i; with no rules, an empty alternation would match everywhere
        object.__setattr__(self, "redex", re.compile(
            "|".join(f"({re.escape(r.lhs)})" for r in self.rules) or "(?!)"))


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
    # a rewrite at i leaves w[:i] redex-free, so the next leftmost redex
    # starts no earlier than the last lhs that could reach into the new rhs
    back = srs.longest_lhs - 1
    start = 0
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
        i = redex.start()
        w = w[:i] + srs.rules[redex.lastindex - 1].rhs + w[redex.end():]
        start = max(0, i - back)
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
    """Words v such that appending v to ``last`` creates a redex ending
    exactly at the end, with every proper prefix irreducible.  Memoised
    per ``last``; the returned list is shared, not to be mutated."""
    out = set()
    for rule in srs.rules:
        l = rule.lhs
        for k in range(1, min(len(l), len(last) + 1)):
            if last.endswith(l[:k]):
                v = l[k:]
                # every proper prefix of last + v is irreducible iff the longest is
                if is_irreducible_word(v, srs) and is_irreducible_word(last + v[:-1], srs):
                    out.add(v)
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
        """One pass, one leftmost-redex search per entry: a chain starts
        with an irreducible letter, and each next entry ``u`` after
        ``prev`` is a chain entry iff the leftmost redex of ``prev + u``
        starts inside ``prev`` and ends at the end.  The first entry
        that fails is split where that redex ends, if before the end (a
        redex ending earlier would lie inside it); a failed first entry
        is split after its first letter."""
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
            if redex and redex.start() < len(prev) and redex.end() == len(w):
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


def word_boundary_matrices(srs: Srs, chains: dict[int, list[WordCell]],
                           max_dim: int) -> dict[int, BoundaryMatrix]:
    return assemble_matrices(lambda cell: word_morse_differential(cell, srs),
                             chains, max_dim)


def monoid_homology(srs: Srs, max_dim: int) -> dict[int, HomologyGroup]:
    """Integral homology with trivial coefficients through ``max_dim``;
    needs chains one dimension higher to bound the image at the top."""
    chains = enumerate_word_chains(srs, max_dim + 1)
    counts = {k: len(v) for k, v in chains.items()}
    matrices = word_boundary_matrices(srs, chains, max_dim + 1)
    return homology_groups({n: m.entries for n, m in matrices.items()}, counts, 0,
                           range(max_dim + 1))
