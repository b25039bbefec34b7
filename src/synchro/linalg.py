"""Exact linear algebra on integer vectors: ranks, spans, orthogonal
complements, and cones (``Cone``: membership and the test whether the cone
is a subspace).

Ranks and complements come from one Gauss-Jordan elimination on integer rows
(``RowEchelon``, fed one row at a time, so a caller can keep a running rank)
that divides each reduced row by the gcd of its entries, so no operation ever
rounds and no rational arithmetic is needed.  Cone membership runs a
fraction-free simplex on the same kind of rows: each pivot cross-multiplies
and divides by the gcd, and rational inputs are scaled to integers first, so
it takes the pivots of the rational simplex without building a fraction.
A ``Cone`` whose generators are all unit differences is an arc digraph's,
and answers both questions by reachability instead.  Vectors are plain
tuples.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .automaton import reach

Vector = tuple[int, ...]


def unit_difference(plus: int, minus: int, n: int) -> Vector:
    """The vector with +1 at 1-indexed state ``plus`` and -1 at ``minus``."""
    out = [0] * n
    out[plus - 1] += 1
    out[minus - 1] -= 1
    return tuple(out)


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


class RowEchelon:
    """Running Gauss-Jordan elimination of integer rows, fed one at a time.

    ``rows`` holds the reduced rows as (pivot column, row) pairs, in the order
    their inputs arrived.  Each reduced row is primitive (its entries have gcd
    1) and is zero in the pivot column of every other row, so ``rank`` is the
    rank of every vector added so far.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[tuple[int, list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, v: Sequence[int]) -> bool:
        """Reduce ``v`` against the rows; keep it and return True exactly
        when it leaves their span."""
        if len(v) != self.n:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {self.n}")
        reduced = self.rows
        row = list(v)
        for col, red in reduced:
            c = row[col]
            if c:
                d = red[col]
                row = _primitive([d * x - c * y for x, y in zip(row, red)])
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return False
        row = _primitive(row)
        c = row[col]
        for i, (other_col, other) in enumerate(reduced):
            e = other[col]
            if e:
                reduced[i] = (other_col, _primitive([c * x - e * y for x, y in zip(other, row)]))
        reduced.append((col, row))
        return True


def span_basis(vectors: Iterable[Sequence[int]], n: int) -> tuple[Sequence[int], ...]:
    """The input vectors that add a pivot, in input order: a basis of the
    span drawn from the inputs, so its length is the rank."""
    echelon = RowEchelon(n)
    return tuple(v for v in vectors if echelon.add(v))


def orthogonal_complement(vectors: Iterable[Sequence[int]], n: int) -> tuple[Vector, ...]:
    """A primitive integer basis of the null space of the matrix whose rows
    are ``vectors``: one vector per non-pivot column, in column order."""
    echelon = RowEchelon(n)
    for v in vectors:
        echelon.add(v)
    reduced = echelon.rows
    pivot_cols = {col for col, _ in reduced}
    out = []
    for f in range(n):
        if f in pivot_cols:
            continue
        scale = math.lcm(*(row[col] for col, row in reduced if row[f]))
        v = [0] * n
        v[f] = scale
        for col, row in reduced:
            if row[f]:
                v[col] = -row[f] * scale // row[col]
        out.append(tuple(_primitive(v)))
    return tuple(out)


# ---------------------------------------------------------------------------
# cones

def _as_unit_difference(v: Sequence) -> tuple[int, int] | None:
    """Recognize a vector with one +1, one -1, zeros elsewhere (0-based)."""
    plus = minus = None
    for j, entry in enumerate(v):
        if entry == 0:
            continue
        if entry == 1 and plus is None:
            plus = j
        elif entry == -1 and minus is None:
            minus = j
        else:
            return None
    if plus is None or minus is None:
        return None
    return plus, minus


def _arcs_of(gens: Sequence[Sequence]) -> list[tuple[int, int]] | None:
    """The arcs (tail, head) of generators that are all unit differences
    (+1 at the head, -1 at the tail), else None."""
    arcs = []
    for g in gens:
        shape = _as_unit_difference(g)
        if shape is None:
            return None
        plus, minus = shape
        arcs.append((minus, plus))
    return arcs


def _cone_lp_feasible(v: Sequence, gens: list[Sequence]) -> bool:
    """Exact phase-one simplex: does some c >= 0 solve sum_j c_j g_j = v?

    Entries may be ints or exact rationals: each coordinate row is scaled by
    the positive lcm of its entries' denominators, which keeps the solution
    set, and negated where the target entry is negative.  Artificial
    variables then start in the basis; Bland's rule guarantees termination,
    and feasibility is equivalent to driving their sum to zero.

    The tableau is fraction-free.  A pivot replaces each row by
    ``primitive(pivot * row - factor * lead)`` and leaves the lead row as it
    is, so every row (the objective row too) stays a positive multiple of
    its rational counterpart.  Bland's entering rule reads only signs, and
    the ratio test compares ``rhs_i / coeff_i`` by cross-multiplying, so on
    the scaled rows every pivot is the one the rational tableau would take.
    """
    n = len(v)
    m = len(gens)
    rows: list[list[int]] = []
    for i in range(n):
        entries = [g[i] for g in gens]
        entries.append(v[i])
        scale = math.lcm(*(x.denominator for x in entries))
        if v[i] < 0:
            scale = -scale
        *coeffs, rhs = (x.numerator * (scale // x.denominator) for x in entries)
        artificials = [0] * n
        artificials[i] = 1
        # tableau columns: m generator vars, n artificials, rhs
        rows.append(coeffs + artificials + [rhs])
    basis = [m + i for i in range(n)]
    # phase-one objective row: reduced costs for minimizing the artificial
    # sum, expressed over the nonbasic generator columns only (the basic
    # artificial columns must start at zero)
    obj = [-sum(column) for column in zip(*rows)]
    obj[m:-1] = [0] * n
    while True:
        enter = next((j for j in range(m + n) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            coeff = row[enter]
            if coeff > 0:
                if leave is None:
                    leave, best_rhs, best_coeff = i, row[-1], coeff
                    continue
                # rhs_i / coeff_i against rhs_best / coeff_best, both
                # denominators positive
                left, right = row[-1] * best_coeff, best_rhs * coeff
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave, best_rhs, best_coeff = i, row[-1], coeff
        if leave is None:
            # artificial objective is bounded below by zero; unbounded descent
            # cannot happen, so an absent leaving row means optimality.
            break
        lead = rows[leave]
        pivot = lead[enter]
        for i, row in enumerate(rows):
            factor = row[enter]
            if factor and i != leave:
                rows[i] = _primitive([pivot * x - factor * y for x, y in zip(row, lead)])
        factor = obj[enter]
        obj = _primitive([pivot * x - factor * y for x, y in zip(obj, lead)])
        basis[leave] = enter
    return obj[-1] == 0


class Cone:
    """The cone of nonnegative combinations of ``gens`` in Q^n.

    The generators are deduplicated, zero vectors dropped and lengths checked
    once.  When every generator is a unit difference (+1 at the head, -1 at
    the tail), the cone is the arc digraph's: it keeps the successor masks
    and caches the ``reach`` closure of each vertex it is asked about.
    """

    def __init__(self, gens: Iterable[Sequence], n: int):
        self.n = n
        self.gens = [g for g in dict.fromkeys(tuple(g) for g in gens) if any(g)]
        for g in self.gens:
            if len(g) != n:
                raise ValueError(f"vector of length {len(g)} in ambient dimension {n}")
        self.arcs = _arcs_of(self.gens)
        if self.arcs is not None:
            self._succ = [0] * n
            for tail, head in self.arcs:
                self._succ[tail] |= 1 << head
            self._closure: dict[int, int] = {}

    def _reach(self, vertex: int) -> int:
        """Mask of the vertices reachable from ``vertex`` along the arcs."""
        closure = self._closure.get(vertex)
        if closure is None:
            closure = self._closure[vertex] = reach(self._succ, 1 << vertex)
        return closure

    def __contains__(self, v: Sequence) -> bool:
        """Exact membership; entries may be ints or exact rationals.

        A unit-difference target in an arc cone is decided by flow
        decomposition: a nonnegative combination of arcs with divergence +1
        at s and -1 at t exists iff some directed path runs from t to s.
        Anything else goes to the exact simplex.
        """
        if len(v) != self.n:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {self.n}")
        if not any(v):
            return True
        if not self.gens:
            return False
        if self.arcs is not None:
            target = _as_unit_difference(v)
            if target is not None:
                s, t = target
                return bool(self._reach(t) >> s & 1)
        return _cone_lp_feasible(v, self.gens)

    def is_subspace(self) -> bool:
        """Does the cone hold ``-g`` for every generator g?

        That holds exactly when some strictly positive combination of the
        generators is zero, i.e. when ``-sum(gens)`` lies in the cone.  For
        an arc cone it says that every arc lies on a cycle.
        """
        if self.arcs is not None:
            return all(self._reach(head) >> tail & 1 for tail, head in self.arcs)
        return tuple(-sum(column) for column in zip(*self.gens)) in self


def in_cone(v: Sequence, gens: Iterable[Sequence]) -> bool:
    """Exact membership of ``v`` in the cone of ``gens``."""
    return v in Cone(gens, len(v))
