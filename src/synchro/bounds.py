"""Reset-word synthesis by backward subset extension, and the closed-form
reset-threshold bounds it certifies.

The synthesizer starts from the duplicate state of one deficient letter (one
letter spent), then repeatedly extends the current subset's preimage until it
covers all states; the extension words concatenate in reverse discovery order
into a reset word of length at most ``1 + (n-2) * (n - dim + transient)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    Automaton,
    Word,
    is_synchronizing,
    word_image_mask,
    word_preimage_mask,
)
from .cones import ConeReport, cone_sequence, extend_mask
from .errors import (
    CapExceeded,
    InternalContradiction,
    NotSynchronizing,
    NotTransitive,
    UnsupportedAlphabet,
)
from .permgroup import Perm, cayley_diameters


@dataclass(frozen=True)
class ExtensionStep:
    """One step of the backward extension chain."""

    word: Word
    size_before: int
    size_after: int
    escape_length: int | None  # None for the seeding letter


@dataclass(frozen=True)
class SynthesisResult:
    """A verified reset word, its extension chain, and the cone whose
    dimension bound it meets."""

    word: Word
    length: int
    steps: tuple[ExtensionStep, ...]
    bound: int
    cone: ConeReport
    verified: bool
    within_bound: bool


def bound_main(cone: ConeReport) -> int:
    """1 + (n-2) * (n - dim + transient) from the stabilized cone."""
    if not cone.is_subspace:
        raise NotTransitive("bound needs a transitive permutation set")
    n = cone.n
    return 1 + (n - 2) * (n - cone.span_dim + cone.trans_len_k) if n >= 2 else 0


def bound_rystsov(cone: ConeReport, cap: int) -> int:
    """1 + (n-2) * (n - 1 + d) with d the exact-power generating diameter of
    the group of the permutations of ``cone``, if its order is at most ``cap``."""
    if not cone.is_subspace:
        raise NotTransitive("bound needs a transitive permutation set")
    return rystsov_value(cone.n, cayley_diameters(cone.perms, cone.n, cap).exact_power)


def rystsov_value(n: int, d: int) -> int:
    """1 + (n-2) * (n - 1 + d) for n states and generating diameter d."""
    return 1 + (n - 2) * (n - 1 + d) if n >= 2 else 0


def bound_defect1(aut: Automaton) -> int:
    """2n^2 - 7n + 7, valid when every letter has defect at most one."""
    if any(d > 1 for d in aut.letter_defects):
        raise UnsupportedAlphabet("a letter of defect 2 or more is present")
    n = aut.n
    return 2 * n * n - 7 * n + 7


def synthesize_reset_word(
    aut: Automaton, a_ids: tuple[int, ...], perms: tuple[Perm, ...]
) -> SynthesisResult:
    """Construct and verify a reset word via the extension chain.

    Requires a synchronizing automaton whose permutation letters ``a_ids``,
    with permutations ``perms``, act transitively.  The result's word is
    re-verified by the forward action before it is returned; a failed
    extension or verification raises InternalContradiction since the
    underlying facts guarantee success.
    """
    n = aut.n
    if n < 2:
        raise ValueError("synthesis needs at least 2 states")
    if not is_synchronizing(aut):
        raise NotSynchronizing("automaton admits no reset word")
    cone = cone_sequence(aut, a_ids, perms)
    if not cone.is_subspace:
        raise NotTransitive("synthesis bound needs a transitive permutation set")

    seed_letter = cone.deficient[0]
    fiber_masks = aut.preimage_state_masks[seed_letter]
    seed_state = next(q for q in range(n) if fiber_masks[q].bit_count() >= 2)
    mask = fiber_masks[seed_state]
    steps = [
        ExtensionStep(
            word=(seed_letter,),
            size_before=1,
            size_after=mask.bit_count(),
            escape_length=None,
        )
    ]
    words = [(seed_letter,)]
    while mask != aut.full_mask:
        word, escape_len = extend_mask(aut, mask, cone)
        new_mask = word_preimage_mask(aut, mask, word)
        steps.append(
            ExtensionStep(
                word=word,
                size_before=mask.bit_count(),
                size_after=new_mask.bit_count(),
                escape_length=escape_len,
            )
        )
        words.append(word)
        mask = new_mask

    reset: list[int] = []
    for word in reversed(words):
        reset.extend(word)
    reset_word = tuple(reset)
    verified = word_image_mask(aut, aut.full_mask, reset_word).bit_count() == 1
    if not verified:
        raise InternalContradiction("synthesized word does not reset the automaton")
    bound = bound_main(cone)
    return SynthesisResult(
        word=reset_word,
        length=len(reset_word),
        steps=tuple(steps),
        bound=bound,
        cone=cone,
        verified=verified,
        within_bound=len(reset_word) <= bound,
    )


@dataclass(frozen=True)
class BoundsReport:
    """All bound values for one automaton and the permutation set of its cone."""

    cone: ConeReport
    group_order: int | None
    d_exact_power: int | None
    d_prefix_closed: int | None
    bound_main: int
    bound_rystsov_exact: int | None
    bound_rystsov_prefix: int | None
    bound_defect1: int | None
    square_bound: int


def build_bounds_report(aut: Automaton, cone: ConeReport, group_cap: int) -> BoundsReport:
    """Aggregate every applicable bound for the permutation set of ``cone``;
    group-cap overruns leave the diameter-based entries unset rather than
    failing the report."""
    if not cone.is_subspace:
        raise NotTransitive("bounds need a transitive permutation set")
    n = aut.n
    try:
        diameters = cayley_diameters(cone.perms, n, group_cap)
    except CapExceeded:
        diameters = None
    try:
        defect1 = bound_defect1(aut)
    except UnsupportedAlphabet:
        defect1 = None
    return BoundsReport(
        cone=cone,
        group_order=diameters.order if diameters else None,
        d_exact_power=diameters.exact_power if diameters else None,
        d_prefix_closed=diameters.prefix_closed if diameters else None,
        bound_main=bound_main(cone),
        bound_rystsov_exact=rystsov_value(n, diameters.exact_power) if diameters else None,
        bound_rystsov_prefix=rystsov_value(n, diameters.prefix_closed) if diameters else None,
        bound_defect1=defect1,
        square_bound=(n - 1) ** 2,
    )
