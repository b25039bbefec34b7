"""Set- and matrix-form helpers and a rational subspace layer that tests use
as oracles.

The library works on bitmasks and integer elimination and never needs these
forms, so they live with the tests: states are 1-indexed sets, vectors plain
tuples and matrices tuples of row tuples.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from synchro.automaton import (
    deficient_letters,
    mask_of,
    states_of,
    word_image_mask,
    word_preimage_mask,
)
from synchro.cones import escaped_masks, k_vector, support_sum
from synchro.errors import CapExceeded
from synchro.linalg import in_cone, unit_difference
from synchro.permgroup import DEFAULT_GROUP_CAP, compose, identity, resolve_perm_set


def with_perm_set(aut, letters=None):
    """``(aut, ids, perms)`` with the permutation set that
    ``resolve_perm_set(aut, letters)`` resolves, to unpack into
    ``cone_sequence`` or ``synthesize_reset_word``."""
    return (aut, *resolve_perm_set(aut, letters))


def apply_word(aut, states, word):
    """Forward action: the set {q.w : q in states}, 1-indexed."""
    aut.validate_word(word)
    return states_of(word_image_mask(aut, mask_of(states, aut.n), word))


def preimage(aut, states, word):
    """The exact preimage {q : q.w in states}, 1-indexed."""
    aut.validate_word(word)
    return states_of(word_preimage_mask(aut, mask_of(states, aut.n), word))


def defect(aut, word):
    """Number of states missing from the image of the whole state set."""
    aut.validate_word(word)
    return aut.n - word_image_mask(aut, aut.full_mask, word).bit_count()


# ---------------------------------------------------------------------------
# subset tables and images by the loops that ``automaton.subset_table`` and
# the chunk lookups replaced: one low bit of the mask at a time

def reference_subset_sums(vector, size):
    """sums[mask] = sum of vector coordinates selected by mask, for all masks."""
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + vector[low.bit_length() - 1]
    return sums


def reference_preimage_table(state_masks):
    """tab[mask] = OR of ``state_masks[i]`` over the set bits i of mask, for
    every mask below ``2 ** len(state_masks)``."""
    tab = [0] * (1 << len(state_masks))
    for mask in range(1, len(tab)):
        low = mask & -mask
        tab[mask] = tab[mask ^ low] | state_masks[low.bit_length() - 1]
    return tab


def reference_image_mask(aut, mask, a):
    row = aut.table[a]
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << row[low.bit_length() - 1]
    return out


def reference_preimage_mask(aut, mask, a):
    masks = aut.preimage_state_masks[a]
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= masks[low.bit_length() - 1]
    return out


def reference_masked_sum(vector, mask):
    """The sum of the coordinates of ``vector`` selected by ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        mask ^= low
        total += vector[low.bit_length() - 1]
    return total


def char_vector(states, n):
    """0/1 indicator of a 1-indexed state set as a length-n vector."""
    out = [0] * n
    for q in states:
        if not 1 <= q <= n:
            raise ValueError(f"state {q} out of range 1..{n}")
        out[q - 1] = 1
    return tuple(out)


def inner_product(x, y):
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def vector_times_matrix(x, m):
    """The row vector ``x`` times the matrix ``m``."""
    if len(x) != len(m):
        raise ValueError("vector/matrix size mismatch")
    out = [0] * (len(m[0]) if m else 0)
    for coeff, row in zip(x, m):
        for j, entry in enumerate(row):
            out[j] += coeff * entry
    return tuple(out)


def in_polar_cone(v, gens):
    """True iff <g, v> <= 0 for every generator; finitely many suffice."""
    return all(inner_product(g, v) <= 0 for g in gens)


def preimage_matrix(aut, word):
    """Matrix [w] with row q the indicator of preimage({q}, w).

    Acting on row vectors from the right: char(S) [w] = char(S.w^-1).
    """
    return tuple(char_vector(preimage(aut, {q}, word), aut.n) for q in range(1, aut.n + 1))


# ---------------------------------------------------------------------------
# polar escapes by the loops that ``automaton.subset_search`` and the pull
# form of ``cones.ell_all`` replaced

def reference_polar_escape(aut, supports, mask):
    """Shortest escape word of ``mask`` from the polar cone that ``supports``
    decide: a FIFO search over preimages taken one bit at a time, each new
    subset keeping its first discoverer and letters tried in alphabet order.
    None when no preimage escapes."""

    def escapes(m):
        return any(support_sum(support, m) > 0 for support in supports)

    if escapes(mask):
        return 0, ()
    parents = {mask: (-1, 0)}
    queue = deque([mask])
    while queue:
        cur = queue.popleft()
        for a in range(len(aut.letters)):
            nxt = reference_preimage_mask(aut, cur, a)
            if nxt in parents:
                continue
            parents[nxt] = (a, cur)
            if escapes(nxt):
                word = []
                while nxt != mask:
                    a_, nxt = parents[nxt]
                    word.append(a_)
                return len(word), tuple(word)
            queue.append(nxt)
    return None


def reference_ell_all(aut, vectors):
    """``(dist, step)`` of ``cones.ell_all`` by one multi-source FIFO search
    from the escaped masks over reversed preimage edges; ``step[m]`` points to
    the earliest-discovered successor."""
    size = 1 << aut.n
    escaped = escaped_masks(vectors, aut.n)
    rev = [[] for _ in range(size)]
    for m in range(size):
        for a, tab in enumerate(aut.preimage_mask_table):
            rev[tab[m]].append((a, m))
    dist = [0 if e else None for e in escaped]
    step = [None] * size
    queue = deque(m for m in range(size) if escaped[m])
    while queue:
        u = queue.popleft()
        for a, m in rev[u]:
            if dist[m] is None:
                dist[m] = dist[u] + 1
                step[m] = (a, u)
                queue.append(m)
    return dist, step


# ---------------------------------------------------------------------------
# rational subspaces: a subspace is held as its reduced row echelon basis,
# which is unique per subspace, so subspace equality is representation
# equality

def _rref(rows):
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

    rows: tuple
    n: int

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        out = []
        for row in self.rows:
            for j, v in enumerate(row):
                if v:
                    out.append(j)
                    break
        return tuple(out)

    def extended(self, v):
        """Canonical basis of the span enlarged by one vector."""
        if in_span(v, self):
            return self
        rows = [list(map(Fraction, row)) for row in self.rows]
        rows.append(list(map(Fraction, v)))
        return SubspaceBasis(tuple(tuple(r) for r in _rref(rows)), self.n)


def rref_basis(vectors, n):
    """Canonical echelon basis of the span of the given vectors."""
    vectors = list(vectors)
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {n}")
    rows = _rref([list(map(Fraction, v)) for v in vectors])
    return SubspaceBasis(tuple(tuple(r) for r in rows), n)


def in_span(v, basis):
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


def rref_complement(basis):
    """Canonical basis of the null space of the matrix whose rows are ``basis``."""
    n = basis.n
    pivots = basis.pivots()
    vectors = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(basis.rows, pivots):
            if row[f]:
                v[p] = -Fraction(row[f])
        vectors.append(v)
    return rref_basis(vectors, n)


# ---------------------------------------------------------------------------
# escape of a subspace member under preimage matrices

def escape_exists(mats, basis, x, n):
    """True iff some word's matrices carry ``x`` out of ``basis``: the span of
    the orbit of ``x`` is closed under every matrix, so it decides."""
    span = rref_basis([x], n)
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for m in mats:
                u = vector_times_matrix(v, m)
                if not in_span(u, span):
                    span = span.extended(u)
                    nxt.append(u)
        frontier = nxt
    return any(not in_span(row, basis) for row in span.rows)


def shortest_escape(mats, basis, x, max_len):
    """The least word length, at most ``max_len``, whose matrices carry ``x``
    out of ``basis``; None if there is none."""
    frontier = {x}
    seen = {x}
    for depth in range(1, max_len + 1):
        nxt = set()
        for v in frontier:
            for m in mats:
                u = vector_times_matrix(v, m)
                if u in seen:
                    continue
                if not in_span(u, basis):
                    return depth
                seen.add(u)
                nxt.add(u)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# cone membership by the rational simplex that the fraction-free one replaced

def reference_cone_lp_feasible(v, gens):
    """Exact phase-one simplex over ``Fraction``: does some c >= 0 solve
    sum_j c_j g_j = v?  Artificial variables start in the basis, Bland's
    rule picks every pivot, and feasibility is driving their exact rational
    sum to zero."""
    n = len(v)
    m = len(gens)
    rows = []
    rhs = []
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
    # phase-one objective row over the nonbasic generator columns only
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


# ---------------------------------------------------------------------------
# the cone transient by one membership test per new vector

def shift_vector(vector, perm):
    """Coordinate action matching word extension by a permutation letter,
    one coordinate at a time: appending a letter acting as the permutation p
    to a word w moves each fiber along p, i.e. k_{wp}(p(q)) = k_w(q)."""
    out = [0] * len(vector)
    for q, value in enumerate(vector):
        out[perm[q]] = value
    return tuple(out)


def reference_trans_len_k(aut, a_set=None):
    """``(span_dim, trans_len_k, trans_len_t)`` of the generator sequence
    of ``aut`` under the permutation set ``a_set``, by the direct loop: the
    cone transient is the first level at which every newly shifted vector
    lies in the cone of the previous level, each tested on its own by
    ``in_cone``; the span dimension is the rational RREF rank of the limit
    set."""
    _, perms = resolve_perm_set(aut, a_set)
    order = list(dict.fromkeys(k_vector(aut, (b,)).vector for b in deficient_letters(aut)))
    seen = set(order)
    frontier = list(order)
    trans_k = None
    level = 0
    while True:
        new = []
        for v in frontier:
            for perm in perms:
                u = shift_vector(v, perm)
                if u not in seen:
                    seen.add(u)
                    new.append(u)
        if not new:
            break
        if trans_k is None and all(in_cone(u, order) for u in new):
            trans_k = level
        order.extend(new)
        frontier = new
        level += 1
    return rref_basis(order, aut.n).dim, level if trans_k is None else trans_k, level


# ---------------------------------------------------------------------------
# the group order by brute force

def group_closure(perms, n, cap=DEFAULT_GROUP_CAP):
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


# ---------------------------------------------------------------------------
# the incidence-rank check by subspace comparison

def reference_rank_detail(trace):
    """The detail of ``incidence_rank_matches_weak_components`` ("" on a
    pass) as the check once decided it, level by level: the rank of the arc
    vectors against n - #weak components, then the orthogonal complement of
    the arc span against the span of the component indicators, both as
    rational subspaces."""
    n = trace.n
    for i, (level, deco) in enumerate(zip(trace.levels, trace.decompositions)):
        span = rref_basis([unit_difference(p, q, n) for p, q in level.arcs], n)
        expected = n - len(deco.wccs)
        if span.dim != expected:
            return f"level {i}: rank {span.dim} != {expected}"
        comp = rref_complement(span)
        chars = [char_vector(w, n) for w in deco.wccs]
        if not rref_basis(chars, n).dim == comp.dim == rref_basis(comp.rows + tuple(chars), n).dim:
            return f"level {i}: complement differs from component span"
    return ""
