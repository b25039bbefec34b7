"""Synchronizing-automata toolkit.

Exact reset thresholds by subset search, reset-word synthesis by backward
subset extension with a provable quadratic length bound, the exact rational
cone machinery behind that bound, arc-growth digraph analysis, and
verification suites that run every supporting fact as an executable check.
"""

from .automaton import (
    Automaton,
    Word,
    deficient_letters,
    is_strongly_connected,
    is_synchronizing,
    letters_of_defect,
    reset_threshold_exact,
)
from .bounds import (
    BoundsReport,
    SynthesisResult,
    bound_defect1,
    bound_main,
    bound_rystsov,
    build_bounds_report,
    synthesize_reset_word,
)
from .cones import ConeReport, KVector, cone_sequence, ell, k_vector
from .errors import (
    CapExceeded,
    InternalContradiction,
    NoDefectOneLetters,
    NoDeficientLetters,
    NotAPermutation,
    NotStronglyConnected,
    NotSynchronizing,
    NotTransitive,
    ParseError,
    ResourceCap,
    RetryExhausted,
    SynchroError,
    UnsupportedAlphabet,
    WrongDefect,
)
from .fileformat import emit_automaton, parse_automaton
from .generate import cerny, enumerate_automata, random_st
from .growth import (
    ComponentDecomposition,
    Digraph,
    GrowthTrace,
    excluded_and_duplicate,
    gamma_growth,
    scc_wcc,
    translen_k_bound,
    verify_growth_lemmas,
)
from .linalg import Cone, RowEchelon, in_cone, orthogonal_complement, span_basis
from .permgroup import (
    CayleyDiameters,
    cayley_diameters,
    is_transitive,
    permutation_of_letter,
)
from .verify import lemma_suite, suite_bounds, suite_cerny, suite_enumerate, suite_lemmas

__version__ = "0.1.0"
