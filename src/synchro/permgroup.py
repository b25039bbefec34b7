"""Permutation letters, orbit and transitivity tests, and the Cayley-digraph
diameter of the generated group."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automaton import Automaton, reach
from .errors import CapExceeded, NotAPermutation

Perm = tuple[int, ...]

DEFAULT_GROUP_CAP = 10**6


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply ``p`` first, then ``q``."""
    return tuple(q[i] for i in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def permutation_of_letter(aut: Automaton, letter: int) -> Perm:
    """The bijection q -> q.letter; rejects letters of positive defect."""
    aut.validate_word((letter,))
    defect = aut.letter_defects[letter]
    if defect:
        raise NotAPermutation(f"letter {aut.letters[letter]!r} has defect {defect}")
    return tuple(aut.table[letter])


def resolve_perm_set(
    aut: Automaton, letters: Iterable[int] | None = None
) -> tuple[tuple[int, ...], tuple[Perm, ...]]:
    """Sorted distinct letter ids (default: all defect-0 letters) and their
    permutations; rejects letters of positive defect."""
    if letters is None:
        ids = tuple(a for a, d in enumerate(aut.letter_defects) if d == 0)
    else:
        ids = tuple(sorted(set(letters)))
    return ids, tuple(permutation_of_letter(aut, a) for a in ids)


def orbit(perms: Iterable[Perm], n: int) -> frozenset[int]:
    """Orbit of point 0 under the generated group.

    The group is finite, so every inverse is a positive power of its
    generator and the generators alone reach the whole orbit.
    """
    succ = [0] * n
    for p in perms:
        for q, img in enumerate(p):
            succ[q] |= 1 << img
    mask = reach(succ, 1)
    return frozenset(q for q in range(n) if mask >> q & 1)


def is_transitive(perms: Sequence[Perm], n: int) -> bool:
    """True iff the generated permutation group has a single orbit on 0..n-1.

    Group orbits partition the points, so one orbit computation from a single
    point decides transitivity.
    """
    if n == 1:
        return True
    if not perms:
        return False
    return len(orbit(perms, n)) == n


@dataclass(frozen=True)
class CayleyDiameters:
    """Both readings of the generating-set diameter of the group.

    ``exact_power`` is the least d such that every group element is a product
    of at least one and at most d generators; the empty word does not count,
    so a generating set without the identity must spell the identity out (a
    single n-cycle reaches the identity only at length n).  ``prefix_closed``
    admits the empty word and is the plain Cayley-digraph eccentricity of the
    identity.  Reports carry both; the Rystsov-style bound uses exact_power.
    """

    exact_power: int
    prefix_closed: int
    order: int


def cayley_diameters(perms: Sequence[Perm], n: int, cap: int) -> CayleyDiameters:
    """One BFS from the identity gives both readings.

    The largest BFS distance is ``prefix_closed``.  Every element other than
    the identity needs a non-empty word anyway, so its distance also counts
    for ``exact_power``; the identity's shortest non-empty word is a shortest
    word for h^-1 followed by h, for the generator h whose inverse is nearest.
    """
    if not perms:
        raise ValueError("empty generating set has no diameter")
    gens = tuple(dict.fromkeys(perms))
    dist = {identity(n): 0}
    frontier = list(dist)
    depth = 0
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in dist:
                    dist[gh] = depth + 1
                    if len(dist) > cap:
                        raise CapExceeded(
                            f"group order exceeds cap {cap}", partial_count=len(dist)
                        )
                    nxt.append(gh)
        frontier = nxt
        if frontier:
            depth += 1
    identity_word = 1 + min(dist[inverse(h)] for h in gens)
    return CayleyDiameters(
        exact_power=max(depth, identity_word), prefix_closed=depth, order=len(dist)
    )
