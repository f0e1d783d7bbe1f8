"""Noncommutative Groebner bases over prime fields, divided-power
presentations of the enveloping algebra of strictly upper-triangular
matrices, and the first steps of the associated minimal free resolution.
"""

from .fields import PrimeField, binomial_mod_p
from .words import Alphabet, Generator, Word, contains, find, words_up_to_degree
from .polynomials import Polynomial, accumulate
from .rewriting import (
    CompletionCapError,
    CriticalPair,
    RewriteRule,
    RewritingSystem,
    UnorderableRelationError,
    make_rule,
)
from .kostant import (
    AlphabetTooSmallError,
    Position,
    big_system,
    conjectural_system,
    default_position_order,
    frobenius_shift_check,
    graded_pbw_dimensions,
    pbw_dimension,
    small_system,
    verify_small_against_big,
)
from .anick import LiftError, ResolutionPrefix, extend_chains, format_terms
from .resolution import (
    GradedComplex,
    generic_minimalize,
    minimalize,
    rank_fp,
    rank_fp_oracle,
    resolve,
)
from .documents import (
    DocumentError,
    LoadedPresentation,
    PresentationDocument,
    Report,
    parse_expression,
)

__version__ = "0.1.0"
