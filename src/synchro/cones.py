"""Preimage-growth vectors, their cone sequence under permutation shifts,
polar-escape lengths, and the subset-extension engine.

For a word w, the vector k_w records per state the preimage fiber size minus
one, so ``<char(S), k_w> = |S.w^-1| - |S|`` exactly; the escape and
extension tests read that sum from the vector's support masks, one popcount
per distinct nonzero value.  Seeding with the deficient letters and
repeatedly shifting by the chosen permutation letters yields a monotone
generator sequence T_0 <= T_1 <= ... whose rational cones K_i stabilize;
the stabilized cone drives every extension bound below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from operator import add, itemgetter
from typing import Sequence

from .automaton import (
    DEFAULT_SUBSET_CAP,
    Automaton,
    Word,
    deficient_letters,
    is_strongly_connected,
    is_synchronizing,
    mask_of,
    subset_search,
    subset_table,
    word_preimage_mask,
)
from .errors import (
    InternalContradiction,
    NoDeficientLetters,
    NotStronglyConnected,
    NotSynchronizing,
    ResourceCap,
)
from .linalg import Cone, RowEchelon, Vector
from .permgroup import Perm, inverse, is_transitive


@dataclass(frozen=True)
class KVector:
    """A preimage-growth vector together with the word that produced it."""

    vector: Vector
    word: Word


def k_vector(aut: Automaton, word: Word) -> KVector:
    """k_w(i) = |preimage({i}, w)| - 1; coordinates sum to zero."""
    aut.validate_word(word)
    counts = [-1] * aut.n
    for q in range(aut.n):
        img = q
        for a in word:
            img = aut.table[a][img]
        counts[img] += 1
    return KVector(tuple(counts), tuple(word))


Support = tuple[tuple[int, int], ...]


def support_masks(vector: Vector) -> Support:
    """``((value, mask), ...)``: one state mask per distinct nonzero entry of
    ``vector``, in order of first appearance."""
    groups: dict[int, int] = {}
    for q, value in enumerate(vector):
        if value:
            groups[value] = groups.get(value, 0) | 1 << q
    return tuple(groups.items())


def support_sum(support: Support, mask: int) -> int:
    """The sum of the vector's coordinates over the subset ``mask``, from its
    :func:`support_masks`: one popcount per distinct nonzero value."""
    total = 0
    for value, part in support:
        total += value * (part & mask).bit_count()
    return total


@dataclass(frozen=True)
class ConeReport:
    """Stabilization data for the generator sequence of one automaton.

    ``perms`` are the permutations of the letters ``a_letters``, in that
    order.  ``limit_generators`` holds each generator once, level by level:
    those after i permutation shifts end at ``level_ends[i]``.  ``span_dim``
    is the rank of the limit generators; when ``is_subspace`` is true
    (transitive permutation group) the limit cone equals their span, so its
    polar cone is the orthogonal complement, of dimension ``n - span_dim``.
    """

    n: int
    a_letters: tuple[int, ...]
    perms: tuple[Perm, ...]
    deficient: tuple[int, ...]
    trans_len_t: int
    trans_len_k: int
    level_ends: tuple[int, ...]
    limit_generators: tuple[KVector, ...]
    is_subspace: bool
    span_dim: int

    @property
    def limit_vectors(self) -> tuple[Vector, ...]:
        return tuple(kv.vector for kv in self.limit_generators)

    def _prefix(self, i: int) -> tuple[KVector, ...]:
        return self.limit_generators[: self.level_ends[min(i, len(self.level_ends) - 1)]]

    def tier(self, i: int) -> frozenset[Vector]:
        """The generator set after i permutation shifts; past the set
        transient the last level repeats."""
        return frozenset(kv.vector for kv in self._prefix(i))

    @cached_property
    def extension_candidates(self) -> tuple[KVector, ...]:
        """Generator words of length at most K + 1 (the levels through K)."""
        return self._prefix(self.trans_len_k)

    @cached_property
    def escape_supports(self) -> tuple[Support, ...]:
        """The :func:`support_masks` that decide the polar escape, the
        candidates' first.  A subspace limit cone is the candidates' span, so
        they and their negations decide it; otherwise every generator does."""
        if not self.is_subspace:
            return tuple(support_masks(kv.vector) for kv in self.limit_generators)
        supports = tuple(support_masks(kv.vector) for kv in self.extension_candidates)
        return supports + tuple(tuple((-v, m) for v, m in s) for s in supports)

    def extension_word(self, escaped_mask: int, witness: Word) -> Word | None:
        """The first candidate word followed by ``witness`` whose vector is
        positive on the subset that ``witness`` carried out of the polar cone;
        None when no candidate is."""
        for kv, support in zip(self.extension_candidates, self.escape_supports):
            if support_sum(support, escaped_mask) > 0:
                return kv.word + witness
        return None


# The generator walk raises ResourceCap once it holds more vectors than this.
GENERATOR_CAP = 1 << 20


def cone_sequence(
    aut: Automaton, a_ids: tuple[int, ...], perms: tuple[Perm, ...]
) -> ConeReport:
    """Iterate the generator sets under the permutation letters ``a_ids``,
    whose permutations are ``perms`` (the pair that
    :func:`~synchro.permgroup.resolve_perm_set` returns), to both transient
    lengths.

    The set transient is the first level whose shift adds no new vector; the
    cone transient K is the first level at which every newly shifted
    generator already lies in the previous cone.  One-step equality suffices
    for both: later levels only shift existing vectors, and the shift maps
    carry the stabilized set (or cone) into itself.

    Every vector goes through one running integer elimination, whose rank is
    ``span_dim``, until that rank reaches n - 1: every k-vector sums to zero,
    so no later vector can raise it, and they skip the elimination.  A level
    where some new vector raises the rank is not K, and no LP runs.
    Otherwise the level's generators build one ``Cone``.  For a transitive
    permutation set the limit cone is a subspace, so the level is K exactly
    when the current cone is one (``Cone.is_subspace``): a reachability test
    for unit-difference generators, else one exact LP.  Only a
    non-transitive set still tests each new vector for membership in that
    cone, with its own LP.
    """
    deficient = deficient_letters(aut)
    if not deficient:
        raise NoDeficientLetters("every letter is a permutation")
    transitive = is_transitive(perms, aut.n)
    # k_{wp}(p(q)) = k_w(q); a deficient letter makes n >= 2, so a tuple
    shifts = [itemgetter(*inverse(perm)) for perm in perms]

    order: list[KVector] = []
    seen: set[Vector] = set()
    echelon = RowEchelon(aut.n)
    saturated = aut.n - 1
    for b in deficient:
        kv = k_vector(aut, (b,))
        if kv.vector not in seen:
            seen.add(kv.vector)
            order.append(kv)
            echelon.add(kv.vector)
    level_ends = [len(order)]
    frontier = list(order)
    trans_k: int | None = None
    level = 0
    while True:
        new: list[KVector] = []
        for kv in frontier:
            for a, shift in zip(a_ids, shifts):
                vec = shift(kv.vector)
                if vec not in seen:
                    seen.add(vec)
                    new.append(KVector(vec, kv.word + (a,)))
            if len(seen) > GENERATOR_CAP:
                raise ResourceCap(
                    f"{len(seen)} generators at level {level + 1} exceed cap {GENERATOR_CAP}"
                )
        if not new:
            trans_len_t = level
            if trans_k is None:
                trans_k = level
            break
        rank = echelon.rank
        for kv in new:
            if echelon.rank == saturated:
                break
            echelon.add(kv.vector)
        if trans_k is None and echelon.rank == rank:
            current = Cone((kv.vector for kv in order), aut.n)
            if transitive:
                stable = current.is_subspace()
            else:
                stable = all(kv.vector in current for kv in new)
            if stable:
                trans_k = level
        order.extend(new)
        level_ends.append(len(order))
        frontier = new
        level += 1

    return ConeReport(
        n=aut.n,
        a_letters=a_ids,
        perms=perms,
        deficient=deficient,
        trans_len_t=trans_len_t,
        trans_len_k=trans_k,
        level_ends=tuple(level_ends),
        limit_generators=tuple(order),
        is_subspace=transitive,
        span_dim=echelon.rank,
    )


def _escapes_polar(supports: Sequence[Support], mask: int) -> bool:
    for support in supports:
        if support_sum(support, mask) > 0:
            return True
    return False


def _proper_subset_mask(aut: Automaton, s: Sequence[int] | frozenset[int]) -> int:
    mask = mask_of(s, aut.n)
    if mask == 0 or mask == aut.full_mask:
        raise ValueError("need a nonempty proper subset of the states")
    return mask


def ell(
    aut: Automaton, cone: ConeReport, s: Sequence[int] | frozenset[int]
) -> tuple[int, Word]:
    """Length (and witness) of a shortest word taking the preimage of ``s``
    outside the polar cone of the limit cone of ``cone``.

    Preimages are explored under every letter of the alphabet, not just the
    permutation set, because escape may need deficient steps.  If the
    indicator of ``s`` is already outside the polar cone the answer is (0, empty).
    """
    if not is_synchronizing(aut):
        raise NotSynchronizing("polar escape needs a synchronizing automaton")
    if not is_strongly_connected(aut):
        raise NotStronglyConnected("polar escape needs a strongly connected automaton")
    return polar_escape(aut, cone.escape_supports, _proper_subset_mask(aut, s))


def polar_escape(aut: Automaton, supports: Sequence[Support], mask: int) -> tuple[int, Word]:
    """The escape search behind :func:`ell` for a subset mask and a cone's
    ``escape_supports``, without the checks on the automaton: a
    :func:`subset_search` over preimages from ``mask``, capped at
    ``DEFAULT_SUBSET_CAP``, whose letters are reversed into the escape word
    because S.(uv)^-1 = (S.v^-1).u^-1.

    The caller guarantees that ``aut`` is synchronizing and strongly
    connected and that ``mask`` is a nonempty proper subset; otherwise the
    subset may never escape and this raises InternalContradiction.
    """
    found = subset_search(
        aut.preimage_chunks, mask, partial(_escapes_polar, supports),
        DEFAULT_SUBSET_CAP, "a subset outside the polar cone",
    )
    if found is None:
        raise InternalContradiction(
            "no preimage of the subset leaves the polar cone; this contradicts "
            "synchronizing strong connectivity and indicates a bug"
        )
    depth, letters = found
    return depth, letters[::-1]


def extend_mask(aut: Automaton, mask: int, cone: ConeReport) -> tuple[Word, int]:
    """Extension word for the subset given as a mask, plus its escape length.

    Preconditions, checked once by the caller and not here: ``aut`` is
    synchronizing, ``cone`` belongs to ``aut`` and comes from a transitive
    permutation set (``cone.is_subspace``), and ``mask`` is a nonempty proper
    subset.  A transitive permutation set already makes the automaton
    strongly connected, so the escape needs no connectivity check either.
    """
    ell_len, w = polar_escape(aut, cone.escape_supports, mask)
    word = cone.extension_word(word_preimage_mask(aut, mask, w), w)
    if word is None:
        raise InternalContradiction(
            "no generator word extends the escaped subset; the stabilized cone "
            "certificate is violated"
        )
    if word_preimage_mask(aut, mask, word).bit_count() <= mask.bit_count():
        raise InternalContradiction(f"extension word {word} failed to grow the preimage")
    return word, ell_len


def ell_all(
    aut: Automaton, vectors: Sequence[Vector]
) -> tuple[list[int | None], list[tuple[int, int] | None]]:
    """Escape distances for every subset mask at once.

    Returns (dist, step) arrays over all 2^n masks: ``dist[m]`` is the escape
    length of the subset with mask ``m`` (0 when already outside the polar
    cone, None when unreachable), and ``step[m]`` is (letter, next mask) along
    a shortest escape, with letters accumulating in application order so the
    witness word is their reverse.  Level d decides every undecided mask
    whose preimage under some letter was decided at level d - 1; ``step``
    takes the lowest such letter.
    """
    pre_tabs = tuple(enumerate(aut.preimage_mask_table))
    escaped = escaped_masks(vectors, aut.n)
    dist: list[int | None] = [0 if e else None for e in escaped]
    step: list[tuple[int, int] | None] = [None] * len(escaped)
    undecided = [m for m, e in enumerate(escaped) if not e]
    depth = 0
    while undecided:
        depth += 1
        rest = []
        for m in undecided:
            for a, tab in pre_tabs:
                u = tab[m]
                if dist[u] == depth - 1:
                    dist[m] = depth
                    step[m] = (a, u)
                    break
            else:
                rest.append(m)
        if len(rest) == len(undecided):
            break
        undecided = rest
    return dist, step


def escaped_masks(vectors: Sequence[Vector], n: int) -> bytearray:
    """escaped[m] is 1 exactly when the subset with mask ``m`` lies outside
    the polar cone, i.e. some vector has a positive sum over it."""
    escaped = bytearray(1 << n)
    for vec in vectors:
        for m, total in enumerate(subset_table(vec, add)):
            if total > 0:
                escaped[m] = 1
    return escaped


def escape_word_from_steps(
    step: Sequence[tuple[int, int] | None], mask: int
) -> tuple[Word, int]:
    """Witness word and final (escaped) mask from an ``ell_all`` step array."""
    letters = []
    cur = mask
    while step[cur] is not None:
        a, cur2 = step[cur]
        letters.append(a)
        cur = cur2
    return tuple(reversed(letters)), cur
