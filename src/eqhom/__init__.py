"""Homology of equational theories presented by complete rewrite systems.

Given a multi-sorted presentation whose axioms form a reduced complete
term rewriting system, this package enumerates the critical generators of
the collapsed bar resolution, computes the collapsed differentials, and
reports homology groups together with the Morse inequalities that bound
the number of axioms in any equivalent presentation.  A sibling engine
does the classical construction for monoids presented by complete string
rewriting systems.
"""

from .chains import Cell, enumerate_chains, is_chain
from .homology import (
    BoundaryMatrix,
    HomologyGroup,
    boundary_matrices,
    homology_group,
    inequality_report,
    smith_normal_form,
)
from .monoid import Srs, SrsRule, enumerate_word_chains, monoid_homology
from .morse import classify, morse_differential, normalized_boundary
from .parser import parse_presentation, parse_srs, print_presentation
from .rewrite import (
    Rule,
    Trs,
    check_complete,
    critical_pairs,
    degree,
    normal_form,
    reduce_trs,
    rewrite_steps,
)
from .terms import App, Morphism, Signature, Term, Var, canonicalize
from .unify import match_term, mgu

__version__ = "0.3.0"
