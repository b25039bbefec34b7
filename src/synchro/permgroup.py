"""Permutation letters, orbit and transitivity tests, group closure, and the
Cayley-digraph diameter of the generated group."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automaton import Automaton
from .errors import CapExceeded, InternalContradiction, NotAPermutation

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


def is_permutation(images: Sequence[int]) -> bool:
    return sorted(images) == list(range(len(images)))


def permutation_of_letter(aut: Automaton, letter: int) -> Perm:
    """The bijection q -> q.letter; rejects letters of positive defect."""
    aut._check_letter(letter)
    row = aut.table[letter]
    if not is_permutation(row):
        raise NotAPermutation(
            f"letter {aut.letters[letter]!r} has defect {aut.letter_defects[letter]}"
        )
    return tuple(row)


def permutation_letters(aut: Automaton) -> tuple[int, ...]:
    """Letter ids of defect 0, in alphabet order."""
    return tuple(a for a, d in enumerate(aut.letter_defects) if d == 0)


def resolve_perm_set(
    aut: Automaton, letters: Iterable[int] | None = None
) -> tuple[tuple[int, ...], tuple[Perm, ...]]:
    """Sorted distinct letter ids (default: all defect-0 letters) and their
    permutations; rejects letters of positive defect."""
    if letters is None:
        ids = permutation_letters(aut)
    else:
        ids = tuple(sorted(set(letters)))
    return ids, tuple(permutation_of_letter(aut, a) for a in ids)


def perms_of(aut: Automaton, letters: Iterable[int] | None = None) -> tuple[Perm, ...]:
    """Materialize the given letters (default: all defect-0 letters) as permutations."""
    return resolve_perm_set(aut, letters)[1]


def orbit(perms: Iterable[Perm], n: int, start: int = 0) -> frozenset[int]:
    """Orbit of a 0-based point under the generated *group* (inverses included)."""
    gens = []
    for p in perms:
        gens.append(p)
        gens.append(inverse(p))
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for g in gens:
            r = g[q]
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


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


def group_closure(perms: Iterable[Perm], n: int, cap: int = DEFAULT_GROUP_CAP) -> frozenset[Perm]:
    """The full group generated by ``perms``, if its order is at most ``cap``."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    gens = tuple(set(perms))
    elems = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in elems:
                    elems.add(gh)
                    if len(elems) > cap:
                        raise CapExceeded(
                            f"group order exceeds cap {cap}", partial_count=len(elems)
                        )
                    nxt.append(gh)
        frontier = nxt
    return frozenset(elems)


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


def cayley_diameters(
    perms: Sequence[Perm], n: int, cap: int = DEFAULT_GROUP_CAP
) -> CayleyDiameters:
    if not perms:
        raise ValueError("empty generating set has no diameter")
    gens = tuple(dict.fromkeys(perms))

    def bfs(sources: list[Perm], start_level: int) -> tuple[int, int]:
        level = {g: start_level for g in sources}
        frontier = list(level)
        depth = start_level
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    gh = compose(g, h)
                    if gh not in level:
                        level[gh] = level[g] + 1
                        if len(level) > cap:
                            raise CapExceeded(
                                f"group order exceeds cap {cap}",
                                partial_count=len(level),
                            )
                        nxt.append(gh)
            frontier = nxt
            if frontier:
                depth += 1
        return depth, len(level)

    exact, order_a = bfs(list(gens), 1)
    prefix, order_b = bfs([identity(n)], 0)
    if order_a != order_b:
        raise InternalContradiction(
            f"group order {order_a} from the generators differs from {order_b} "
            "from the identity"
        )
    return CayleyDiameters(exact_power=exact, prefix_closed=prefix, order=order_a)


def cayley_diameter(perms: Sequence[Perm], n: int, cap: int = DEFAULT_GROUP_CAP) -> int:
    """The exact-power reading used by the Rystsov-style bound."""
    return cayley_diameters(perms, n, cap).exact_power
