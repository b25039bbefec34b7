"""Exact rational vectors: spans, orthogonal complements and cone membership.

All arithmetic is over arbitrary-precision rationals (`fractions.Fraction`,
with plain `int` admitted wherever it is exact); no operation ever rounds.
Vectors are plain tuples, and a subspace is represented by its reduced row
echelon basis, which is unique per subspace, so subspace equality is
representation equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .automaton import reach

Scalar = Union[int, Fraction]
Vector = tuple[Scalar, ...]


def unit_difference(plus: int, minus: int, n: int) -> Vector:
    """The vector with +1 at 1-indexed state ``plus`` and -1 at ``minus``."""
    out = [0] * n
    out[plus - 1] += 1
    out[minus - 1] -= 1
    return tuple(out)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form with leading-one pivots; drops zero rows."""
    if not rows:
        return []
    n = len(rows[0])
    pivot_row = 0
    for col in range(n):
        target = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                target = r
                break
        if target is None:
            continue
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        pivot = rows[pivot_row][col]
        if pivot != 1:
            rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        lead = rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], lead)]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [row for row in rows[:pivot_row]]


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (reduced row echelon) basis of a subspace of Q^n."""

    rows: tuple[Vector, ...]
    n: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivots(self) -> tuple[int, ...]:
        out = []
        for row in self.rows:
            for j, v in enumerate(row):
                if v:
                    out.append(j)
                    break
        return tuple(out)

    def extended(self, v: Sequence[Scalar]) -> "SubspaceBasis":
        """Canonical basis of the span enlarged by one vector."""
        if in_span(v, self):
            return self
        rows = [list(map(Fraction, row)) for row in self.rows]
        rows.append(list(map(Fraction, v)))
        return SubspaceBasis(tuple(tuple(r) for r in _rref(rows)), self.n)


def span_basis(vectors: Sequence[Sequence[Scalar]], n: int | None = None) -> SubspaceBasis:
    """Canonical echelon basis of the span of the given vectors."""
    vectors = list(vectors)
    if not vectors:
        if n is None:
            raise ValueError("ambient dimension required for an empty span")
        return SubspaceBasis((), n)
    width = len(vectors[0])
    if n is not None and n != width:
        raise ValueError(f"vectors of length {width} in ambient dimension {n}")
    for v in vectors:
        if len(v) != width:
            raise ValueError("vectors of mixed lengths")
    rows = _rref([list(map(Fraction, v)) for v in vectors])
    return SubspaceBasis(tuple(tuple(r) for r in rows), width)


def in_span(v: Sequence[Scalar], basis: SubspaceBasis) -> bool:
    """True iff ``v`` is a rational combination of the basis rows."""
    if len(v) != basis.n:
        raise ValueError(f"length mismatch: {len(v)} vs {basis.n}")
    residue = list(map(Fraction, v))
    for row, pivot in zip(basis.rows, basis.pivots()):
        coeff = residue[pivot]
        if coeff:
            for j, w in enumerate(row):
                if w:
                    residue[j] -= coeff * w
    return not any(residue)


def orthogonal_complement(basis: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of the null space of the matrix whose rows are ``basis``."""
    n = basis.n
    pivots = set(basis.pivots())
    free_cols = [j for j in range(n) if j not in pivots]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(basis.rows, basis.pivots()):
            if row[f]:
                v[p] = -Fraction(row[f])
        vectors.append(v)
    if not vectors:
        return SubspaceBasis((), n)
    return span_basis(vectors, n)


# ---------------------------------------------------------------------------
# cones

def _as_unit_difference(v: Sequence[Scalar]) -> tuple[int, int] | None:
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


def _reachability_membership(target: tuple[int, int], arcs: list[tuple[int, int]], n: int) -> bool:
    """Flow decomposition for unit-difference cones in Q^n.

    A nonnegative combination of vectors (+1 at head, -1 at tail) with total
    divergence +1 at ``s`` and -1 at ``t`` exists iff the arc set contains a
    directed path from t to s.
    """
    s, t = target
    succ = [0] * n
    for tail, head in arcs:
        succ[tail] |= 1 << head
    return bool(reach(succ, 1 << t) >> s & 1)


def _cone_lp_feasible(v: Sequence[Scalar], gens: list[Sequence[Scalar]]) -> bool:
    """Exact phase-one simplex: does some c >= 0 solve sum_j c_j g_j = v?

    Artificial variables start in the basis; Bland's rule guarantees
    termination, and feasibility is equivalent to driving their exact
    rational sum to zero.
    """
    n = len(v)
    m = len(gens)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        row = [Fraction(g[i]) for g in gens]
        b = Fraction(v[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    # tableau columns: m generator vars, n artificials, rhs
    for i in range(n):
        rows[i].extend(Fraction(1) if j == i else Fraction(0) for j in range(n))
        rows[i].append(rhs[i])
    basis = [m + i for i in range(n)]
    # phase-one objective row: reduced costs for minimizing the artificial
    # sum, expressed over the nonbasic generator columns only (the basic
    # artificial columns must start at zero)
    obj = [Fraction(0)] * (m + n + 1)
    for row in rows:
        for j in range(m):
            if row[j]:
                obj[j] -= row[j]
        obj[-1] -= row[-1]
    while True:
        enter = None
        for j in range(m + n):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(n):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # artificial objective is bounded below by zero; unbounded descent
            # cannot happen, so an absent leaving row means optimality.
            break
        pivot = rows[leave][enter]
        if pivot != 1:
            rows[leave] = [x / pivot for x in rows[leave]]
        lead = rows[leave]
        for i in range(n):
            if i != leave and rows[i][enter]:
                factor = rows[i][enter]
                rows[i] = [x - factor * y for x, y in zip(rows[i], lead)]
        if obj[enter]:
            factor = obj[enter]
            obj = [x - factor * y for x, y in zip(obj, lead)]
        basis[leave] = enter
    return obj[-1] == 0


def in_cone(v: Sequence[Scalar], gens: Iterable[Sequence[Scalar]]) -> bool:
    """Exact membership of ``v`` in the cone of nonnegative combinations.

    When the target and every generator are unit-difference vectors the
    flow-decomposition shortcut decides it; otherwise the exact simplex does.
    """
    gen_list = [tuple(g) for g in gens]
    for g in gen_list:
        if len(g) != len(v):
            raise ValueError("generator length mismatch")
    if not any(v):
        return True
    gen_list = [g for g in dict.fromkeys(gen_list) if any(g)]
    if not gen_list:
        return False
    target = _as_unit_difference(v)
    shapes = [_as_unit_difference(g) for g in gen_list]
    if target is not None and all(s is not None for s in shapes):
        arcs = [(minus, plus) for plus, minus in shapes]  # tail -> head
        return _reachability_membership(target, arcs, len(v))
    return _cone_lp_feasible(v, gen_list)
