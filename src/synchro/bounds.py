"""Reset-word synthesis by backward subset extension, and the closed-form
reset-threshold bounds it certifies.

The synthesizer starts from the duplicate state of one deficient letter (one
letter spent), then repeatedly extends the current subset's preimage until it
covers all states; the extension words concatenate in reverse discovery order
into a reset word of length at most ``1 + (n-2) * (n - dim + transient)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .automaton import (
    Automaton,
    Word,
    is_synchronizing,
    reset_threshold_exact,
    states_of,
    word_image_mask,
    word_preimage_mask,
)
from .cones import (
    ConeReport,
    cone_sequence,
    ell_all,
    escape_word_from_steps,
    extend_mask,
    polar_escape,
)
from .errors import (
    CapExceeded,
    InternalContradiction,
    NotSynchronizing,
    NotTransitive,
    UnsupportedAlphabet,
)
from .permgroup import (
    DEFAULT_GROUP_CAP,
    cayley_diameters,
    is_transitive,
    perms_of,
)


# The subset audits (here and in ``verify.lemma_suite``) enumerate every
# subset while 2^n is at most this, and sample beyond it.
EXHAUSTIVE_SUBSETS = 1 << 14


@dataclass(frozen=True)
class ExtensionStep:
    """One step of the backward extension chain."""

    word: Word
    size_before: int
    size_after: int
    escape_length: int | None  # None for the seeding letter


@dataclass(frozen=True)
class SynthesisResult:
    word: Word
    length: int
    steps: tuple[ExtensionStep, ...]
    bound: int
    dim: int
    trans_len_k: int
    verified: bool
    within_bound: bool


def bound_main(
    aut: Automaton,
    a_set: Sequence[int] | None = None,
    *,
    cone: ConeReport | None = None,
) -> int:
    """1 + (n-2) * (n - dim + transient) from the stabilized cone."""
    if cone is None:
        cone = cone_sequence(aut, a_set)
    if not cone.is_subspace:
        raise NotTransitive("bound needs a transitive permutation set")
    n = aut.n
    return 1 + (n - 2) * (n - cone.span_dim + cone.trans_len_k) if n >= 2 else 0


def bound_rystsov(
    aut: Automaton, a_set: Sequence[int] | None = None, cap: int = DEFAULT_GROUP_CAP
) -> int:
    """1 + (n-2) * (n - 1 + d) with d the exact-power generating diameter."""
    perms = perms_of(aut, a_set)
    if not is_transitive(perms, aut.n):
        raise NotTransitive("bound needs a transitive permutation set")
    return rystsov_value(aut.n, cayley_diameters(perms, aut.n, cap).exact_power)


def rystsov_value(n: int, d: int) -> int:
    """1 + (n-2) * (n - 1 + d) for n states and generating diameter d."""
    return 1 + (n - 2) * (n - 1 + d) if n >= 2 else 0


def bound_defect1(aut: Automaton) -> int:
    """2n^2 - 7n + 7, valid when every letter has defect at most one."""
    if any(d > 1 for d in aut.letter_defects):
        raise UnsupportedAlphabet("a letter of defect 2 or more is present")
    n = aut.n
    return 2 * n * n - 7 * n + 7


def synthesize_reset_word(aut: Automaton, a_set: Sequence[int] | None = None) -> SynthesisResult:
    """Construct and verify a reset word via the extension chain.

    Requires a synchronizing automaton whose chosen permutation letters act
    transitively.  The result's word is re-verified by the forward action
    before it is returned; a failed extension or verification raises
    InternalContradiction since the underlying facts guarantee success.
    """
    n = aut.n
    if n < 2:
        raise ValueError("synthesis needs at least 2 states")
    if not is_synchronizing(aut):
        raise NotSynchronizing("automaton admits no reset word")
    cone = cone_sequence(aut, a_set)
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
    bound = bound_main(aut, cone.a_letters, cone=cone)
    return SynthesisResult(
        word=reset_word,
        length=len(reset_word),
        steps=tuple(steps),
        bound=bound,
        dim=cone.span_dim,
        trans_len_k=cone.trans_len_k,
        verified=verified,
        within_bound=len(reset_word) <= bound,
    )


@dataclass(frozen=True)
class ExtensibilityReport:
    """Extension-length audit over nonempty proper subsets."""

    n: int
    mode: str  # "exact-oracle" | "exhaustive" | "sampled"
    bound: int
    checked: int
    violations: tuple[str, ...]
    trans_len_k: int | None
    max_extension_length: int | None

    @property
    def ok(self) -> bool:
        return not self.violations


def extensibility_bound_check(
    aut: Automaton, a_set: Sequence[int] | None = None
) -> ExtensibilityReport:
    """Check that every nonempty proper subset extends within 2n - 3 letters.

    Needs every letter of defect at most one and a synchronizing automaton
    with a transitive permutation set.  Instances with at most 5 states route
    to the exact threshold oracle instead, where the conjectured square bound
    is known to hold.  Subsets are exhausted while 2^n is at most
    ``EXHAUSTIVE_SUBSETS``; beyond it 512 seeded random subsets are checked.
    """
    if any(d > 1 for d in aut.letter_defects):
        raise UnsupportedAlphabet("a letter of defect 2 or more is present")
    if not is_synchronizing(aut):
        raise NotSynchronizing("extension audit needs a synchronizing automaton")
    if not is_transitive(perms_of(aut, a_set), aut.n):
        raise NotTransitive("extension audit needs a transitive permutation set")

    n = aut.n
    if n <= 5:
        rt, _ = reset_threshold_exact(aut)
        square = (n - 1) ** 2
        violations = () if rt <= square else (f"rt {rt} > {square}",)
        return ExtensibilityReport(
            n=n,
            mode="exact-oracle",
            bound=square,
            checked=1,
            violations=violations,
            trans_len_k=None,
            max_extension_length=None,
        )

    cone = cone_sequence(aut, a_set)
    k = cone.trans_len_k
    bound = 2 * n - 3
    violations: list[str] = []
    max_len = 0

    def check_mask(mask: int, escape_len: int, escaped_mask: int, witness: Word) -> None:
        nonlocal max_len
        if k + escape_len + 1 > bound:
            violations.append(
                f"subset {sorted(states_of(mask))}: transient {k} + escape "
                f"{escape_len} + 1 exceeds {bound}"
            )
            return
        word = cone.extension_word(escaped_mask, witness)
        if word is None:
            violations.append(f"subset {sorted(states_of(mask))}: no extension word found")
            return
        max_len = max(max_len, len(word))
        if len(word) > bound:
            violations.append(
                f"subset {sorted(states_of(mask))}: extension of "
                f"length {len(word)} exceeds {bound}"
            )
        elif word_preimage_mask(aut, mask, word).bit_count() <= mask.bit_count():
            violations.append(f"subset {sorted(states_of(mask))}: word did not extend")

    size = 1 << n
    if size <= EXHAUSTIVE_SUBSETS:
        mode = "exhaustive"
        dist, step = ell_all(aut, cone.limit_vectors)
        checked = 0
        for mask in range(1, size - 1):
            checked += 1
            if dist[mask] is None:
                violations.append(f"subset {sorted(states_of(mask))}: no polar escape")
                continue
            witness, escaped_mask = escape_word_from_steps(step, mask)
            check_mask(mask, dist[mask], escaped_mask, witness)
    else:
        mode = "sampled"
        rng = random.Random(0)
        checked = 512
        full = aut.full_mask
        for _ in range(checked):
            mask = rng.randrange(1, full)  # nonempty proper subsets only
            # synchronizing was checked above, and the transitive
            # permutation set makes the automaton strongly connected
            escape_len, witness = polar_escape(aut, cone.limit_vectors, mask)
            escaped_mask = word_preimage_mask(aut, mask, witness)
            check_mask(mask, escape_len, escaped_mask, witness)

    return ExtensibilityReport(
        n=n,
        mode=mode,
        bound=bound,
        checked=checked,
        violations=tuple(violations),
        trans_len_k=k,
        max_extension_length=max_len or None,
    )


@dataclass(frozen=True)
class BoundsReport:
    """All bound values for one automaton and permutation set."""

    n: int
    a_letters: tuple[int, ...]
    dim: int
    trans_len_k: int
    trans_len_t: int
    group_order: int | None
    d_exact_power: int | None
    d_prefix_closed: int | None
    bound_main: int
    bound_rystsov_exact: int | None
    bound_rystsov_prefix: int | None
    bound_defect1: int | None
    square_bound: int
    rt_exact: int | None = None
    rt_witness: Word | None = None


def build_bounds_report(
    aut: Automaton,
    a_set: Sequence[int] | None = None,
    *,
    cone: ConeReport | None = None,
    group_cap: int = DEFAULT_GROUP_CAP,
    with_exact: bool = False,
    subset_cap: int | None = None,
) -> BoundsReport:
    """Aggregate every applicable bound; group-cap overruns leave the
    diameter-based entries unset rather than failing the report."""
    if cone is None:
        cone = cone_sequence(aut, a_set)
    if not cone.is_subspace:
        raise NotTransitive("bounds need a transitive permutation set")
    n = aut.n
    perms = perms_of(aut, cone.a_letters)
    try:
        diameters = cayley_diameters(perms, n, group_cap)
    except CapExceeded:
        diameters = None
    try:
        defect1 = bound_defect1(aut)
    except UnsupportedAlphabet:
        defect1 = None
    rt = witness = None
    if with_exact:
        kwargs = {} if subset_cap is None else {"cap": subset_cap}
        rt, witness = reset_threshold_exact(aut, **kwargs)
    main = bound_main(aut, cone.a_letters, cone=cone)
    return BoundsReport(
        n=n,
        a_letters=cone.a_letters,
        dim=cone.span_dim,
        trans_len_k=cone.trans_len_k,
        trans_len_t=cone.trans_len_t,
        group_order=diameters.order if diameters else None,
        d_exact_power=diameters.exact_power if diameters else None,
        d_prefix_closed=diameters.prefix_closed if diameters else None,
        bound_main=main,
        bound_rystsov_exact=rystsov_value(n, diameters.exact_power) if diameters else None,
        bound_rystsov_prefix=rystsov_value(n, diameters.prefix_closed) if diameters else None,
        bound_defect1=defect1,
        square_bound=(n - 1) ** 2,
        rt_exact=rt,
        rt_witness=witness,
    )
