"""Permutation letters, orbit and transitivity tests, and the order
(Schreier-Sims) and Cayley-digraph diameter of the generated group."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Iterable, Sequence

from .automaton import Automaton, reach
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


def _group_order(perms: Sequence[Perm], n: int, cap: int) -> int:
    """Order of the group generated by ``perms``, by a deterministic
    Schreier-Sims base and strong generating set (Sims 1970; Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).

    Level i holds a base point, the strong generators that fix the earlier
    base points, and the transversal of the base point's orbit under them
    (orbit point -> coset representative).  Each transversal is a subset of
    its true basic orbit, so the product of their sizes bounds the order from
    below throughout the build; ``CapExceeded`` is raised as soon as that
    product exceeds ``cap``, long before a large group is complete.
    """
    ident = identity(n)
    base: list[int] = []
    strong: list[list[Perm]] = []
    trans: list[dict[int, Perm]] = []

    def add(h: Perm, first: int, last: int) -> None:
        """Make ``h`` a strong generator of levels ``first..last``, opening a
        level at a point ``h`` moves when ``last`` is one past the top."""
        if last == len(base):
            base.append(next(q for q in range(n) if h[q] != q))
            strong.append([])
            trans.append({})
        for level in range(first, last + 1):
            strong[level].append(h)
            b = base[level]
            orb = {b: ident}
            queue = [b]
            for x in queue:
                for s in strong[level]:
                    y = s[x]
                    if y not in orb:
                        orb[y] = compose(orb[x], s)
                        queue.append(y)
            trans[level] = orb
            bound = prod(map(len, trans))
            if bound > cap:
                raise CapExceeded(f"group order exceeds cap {cap}", partial_count=bound)

    def sift(g: Perm, level: int) -> tuple[Perm, int]:
        """Strip ``g`` through the levels from ``level`` up; returns the
        residue and the level where it left the transversals."""
        for j in range(level, len(base)):
            x = g[base[j]]
            if x not in trans[j]:
                return g, j
            g = compose(g, inverse(trans[j][x]))
        return g, len(base)

    def unsifted(i: int) -> tuple[Perm, int] | None:
        """A Schreier generator of level ``i`` that does not sift through the
        levels above ``i``, with the level where it stopped."""
        for x, u in trans[i].items():
            for s in strong[i]:
                h, j = sift(compose(compose(u, s), inverse(trans[i][s[x]])), i + 1)
                if h != ident or j < len(base):
                    return h, j
        return None

    for g in dict.fromkeys(perms):
        if g != ident:
            add(g, 0, 0)
    i = len(base) - 1
    while i >= 0:
        found = unsifted(i)
        if found is None:
            i -= 1
        else:
            h, j = found
            add(h, i + 1, j)
            i = j
    return prod(map(len, trans))


def cayley_diameters(perms: Sequence[Perm], n: int, cap: int) -> CayleyDiameters:
    """The group order first, then one BFS from the identity for both readings.

    An order above ``cap`` raises ``CapExceeded`` before any element is
    enumerated.  The BFS multiplies on the left, by one gather per distinct
    generator; the ball of radius d is the set of products of at most d
    generators on either side, so the distances are those of the Cayley
    digraph.  The largest distance is ``prefix_closed``.  Every element other
    than the identity needs a non-empty word anyway, so its distance also
    counts for ``exact_power``; the identity's shortest non-empty word is a
    shortest word for h^-1 followed by h, for the generator h whose inverse is
    nearest.
    """
    if not perms:
        raise ValueError("empty generating set has no diameter")
    order = _group_order(perms, n, cap)
    if order == 1:
        # only identity generators, n = 1 among them; a one-index gather
        # would return a point instead of a tuple
        return CayleyDiameters(exact_power=1, prefix_closed=0, order=1)
    gens = tuple(dict.fromkeys(perms))
    shifts = [itemgetter(*h) for h in gens]
    dist = {identity(n): 0}
    frontier = list(dist)
    depth = 0
    while len(dist) < order:
        depth += 1
        nxt = []
        for g in frontier:
            for shift in shifts:
                hg = shift(g)
                if hg not in dist:
                    dist[hg] = depth
                    nxt.append(hg)
        frontier = nxt
        if not frontier:
            raise InternalContradiction(f"BFS closed at {len(dist)} of {order} elements")
    identity_word = 1 + min(dist[inverse(h)] for h in gens)
    return CayleyDiameters(
        exact_power=max(depth, identity_word), prefix_closed=depth, order=order
    )
