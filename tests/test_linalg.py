import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchro.linalg import (
    Cone,
    RowEchelon,
    _cone_lp_feasible,
    in_cone,
    orthogonal_complement,
    span_basis,
    unit_difference,
)

from oracles import (
    char_vector,
    in_polar_cone,
    in_span,
    inner_product,
    reference_cone_lp_feasible,
    rref_basis,
    rref_complement,
    vector_times_matrix,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def reference_inner_product(x, y):
    """Independent re-implementation on raw numerator/denominator pairs."""
    num, den = 0, 1
    for a, b in zip(x, y):
        fa, fb = Fraction(a), Fraction(b)
        pn = fa.numerator * fb.numerator
        pd = fa.denominator * fb.denominator
        num = num * pd + pn * den
        den = den * pd
    return num, den


def gaussian_rank(vectors):
    """Independent fraction-free rank computation."""
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


CYCLE_VECTORS = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (-1, 0, 0, 1)]
SUM_ZERO_BASIS = rref_basis(CYCLE_VECTORS, 4)


class TestCharAndInner:
    def test_char_vector_empty(self):
        assert char_vector((), 3) == (0, 0, 0)

    def test_char_vector_selects(self):
        assert char_vector({1, 3}, 3) == (1, 0, 1)

    def test_char_vector_full(self):
        assert char_vector(range(1, 5), 4) == (1, 1, 1, 1)

    def test_char_vector_range_check(self):
        with pytest.raises(ValueError):
            char_vector({4}, 3)

    def test_inner_product_orthogonal(self):
        assert inner_product((1, 0, 1), (0, 1, 0)) == 0

    def test_inner_product_fractions(self):
        half = Fraction(1, 2)
        assert inner_product((half, half), (half, half)) == half

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner_product((1,), (1, 2))

    @given(st.lists(st.tuples(rationals, rationals), min_size=0, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_reimplementation(self, pairs):
        x = tuple(p[0] for p in pairs)
        y = tuple(p[1] for p in pairs)
        num, den = reference_inner_product(x, y)
        assert inner_product(x, y) == Fraction(num, den)


class TestSpan:
    def test_empty_is_zero_subspace(self):
        assert span_basis([], 4) == ()

    def test_cycle_vectors_have_rank_three(self):
        assert len(span_basis(CYCLE_VECTORS, 4)) == 3
        assert SUM_ZERO_BASIS.dim == 3
        assert gaussian_rank(CYCLE_VECTORS) == 3

    def test_collinear_vectors(self):
        assert len(span_basis([(2, 0), (1, 0)], 2)) == 1

    def test_picks_the_first_independent_inputs(self):
        vecs = [(0, 0, 0), (2, 0, 2), (1, 0, 1), (0, 3, 0), (1, 1, 1), (0, 0, 5)]
        assert span_basis(vecs, 3) == ((2, 0, 2), (0, 3, 0), (0, 0, 5))

    def test_canonical_form_is_representation_equality(self):
        b1 = span_basis([(1, 1, 0), (0, 1, 1)], 3)
        b2 = span_basis([(1, 0, -1), (0, 2, 2)], 3)
        assert rref_basis(b1, 3) == rref_basis(b2, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            span_basis([(1, 0, 0), (1, 0)], 3)

    def test_rank_matches_reference_on_random_input(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randrange(1, 6)
            vecs = [
                tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(rng.randrange(1, 6))
            ]
            assert len(span_basis(vecs, n)) == gaussian_rank(vecs)


class TestInSpan:
    def test_zero_vector_always_in(self):
        assert in_span((0, 0, 0, 0), SUM_ZERO_BASIS)

    def test_all_ones_not_in_sum_zero(self):
        assert not in_span((1, 1, 1, 1), SUM_ZERO_BASIS)

    def test_sum_zero_vector_in(self):
        assert in_span((1, 0, 0, -1), SUM_ZERO_BASIS)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            in_span((1, 0), SUM_ZERO_BASIS)


class TestOrthogonalComplement:
    def test_of_zero_subspace(self):
        assert orthogonal_complement([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_of_sum_zero_subspace(self):
        assert orthogonal_complement(CYCLE_VECTORS, 4) == ((1, 1, 1, 1),)

    def test_of_full_space(self):
        assert orthogonal_complement([(1, 0), (0, 1)], 2) == ()

    def test_double_complement_random(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(1, 6)
            vecs = [
                tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            twice = orthogonal_complement(orthogonal_complement(vecs, n), n)
            assert rref_basis(twice, n) == rref_basis(vecs, n)

    def test_dimension_identity(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randrange(1, 7)
            vecs = [
                tuple(rng.randrange(-2, 3) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            assert len(span_basis(vecs, n)) + len(orthogonal_complement(vecs, n)) == n


def random_integer_matrix(rng, n):
    """Rows of length n drawn to reach the elimination's corner cases: small
    or +-10^12 entries, zero rows, and rows planted as small integer
    combinations of drawn rows so the rank falls short of the row count."""
    bound = rng.choice((1, 3, 10**12))
    drawn = []
    rows = []
    for _ in range(rng.randrange(0, n + 3)):
        kind = rng.random()
        if kind < 0.1:
            rows.append((0,) * n)
        elif kind < 0.4 and drawn:
            coeffs = [rng.randint(-3, 3) for _ in drawn]
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, drawn)) for j in range(n)))
        else:
            drawn.append(tuple(rng.randint(-bound, bound) for _ in range(n)))
            rows.append(drawn[-1])
    rng.shuffle(rows)
    return rows


class TestEliminationAgainstRationalRREF:
    """The integer elimination against the rational RREF it replaced."""

    def test_seeded_matrices(self):
        rng = random.Random(1968)
        kinds = set()
        for trial in range(2000):
            n = trial % 8 + 1
            vecs = [] if trial < 8 else random_integer_matrix(rng, n)
            oracle = rref_basis(vecs, n)
            basis = span_basis(vecs, n)
            assert len(basis) == oracle.dim, vecs
            it = iter(vecs)
            assert all(any(v is w for w in it) for v in basis), "not inputs in order"
            assert rref_basis(basis, n) == oracle, vecs
            comp = orthogonal_complement(vecs, n)
            assert all(type(x) is int for v in comp for x in v)
            assert all(math.gcd(*v) == 1 for v in comp)
            assert rref_basis(comp, n) == rref_complement(oracle), vecs
            # the running elimination, one row at a time
            echelon = RowEchelon(n)
            for i, v in enumerate(vecs):
                rank = echelon.rank
                raised = echelon.add(v)
                assert echelon.rank == rref_basis(vecs[: i + 1], n).dim, vecs
                assert raised == (echelon.rank > rank), vecs
            kinds.add(("empty", not vecs))
            kinds.add(("deficient", oracle.dim < len(vecs)))
            kinds.add(("huge", any(abs(x) > 10**9 for v in vecs for x in v)))
            kinds.add(("zero row", any(not any(v) for v in vecs)))
        assert all((kind, True) in kinds for kind in ("empty", "deficient", "huge", "zero row"))


def reachable(arcs, src, dst):
    """Plain BFS oracle over 0-based arcs, independent of the library."""
    adj = {}
    for a, b in arcs:
        adj.setdefault(a, []).append(b)
    seen = {src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        if x == dst:
            return True
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return dst in seen


class TestCone:
    def test_zero_vector_in_any_cone(self):
        assert in_cone((0, 0), [])
        assert in_cone((0, 0), [(1, -1)])

    def test_ray_membership(self):
        assert in_cone((1, -1), [(1, -1)])
        assert not in_cone((-1, 1), [(1, -1)])

    def test_scaled_ray_needs_lp(self):
        assert in_cone((2, -2), [(1, -1)])
        assert in_cone((Fraction(1, 3), Fraction(-1, 3)), [(1, -1)])

    def test_chain_path_decomposition(self):
        gens = [(-1, 1, 0, 0), (0, -1, 1, 0)]  # arcs 1->2 and 2->3
        assert not in_cone((1, 0, -1, 0), gens)  # needs path 3->1
        assert in_cone((-1, 0, 1, 0), gens)  # path 1->3 exists

    def test_generators_belong_to_their_cone(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randrange(1, 5)
            gens = [
                tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            for g in gens:
                assert _cone_lp_feasible(g, gens)

    def test_monotone_in_generators(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randrange(1, 5)
            gens = [
                tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(rng.randrange(1, 4))
            ]
            extra = gens + [tuple(rng.randrange(-3, 4) for _ in range(n))]
            coeffs = [rng.randrange(0, 3) for _ in gens]
            v = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)
            )
            assert _cone_lp_feasible(v, gens)
            assert _cone_lp_feasible(v, extra)

    def test_nonnegative_combinations_are_members(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randrange(1, 6)
            gens = [
                tuple(rng.randrange(-4, 5) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            coeffs = [Fraction(rng.randrange(0, 7), rng.randrange(1, 4)) for _ in gens]
            v = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)
            )
            assert _cone_lp_feasible(v, gens)

    def test_lp_agrees_with_subset_solving_oracle(self):
        # Caratheodory: a cone member rides on some linearly independent
        # generator subset with nonnegative coordinates, so solving every
        # subset system exactly is a complete (if slow) second decision route
        def solve_exact(cols, v, n):
            m = len(cols)
            rows = [
                [Fraction(cols[j][i]) for j in range(m)] + [Fraction(v[i])]
                for i in range(n)
            ]
            r = 0
            for c in range(m):
                pivot = next((k for k in range(r, n) if rows[k][c]), None)
                if pivot is None:
                    return None  # dependent subset, skip
                rows[r], rows[pivot] = rows[pivot], rows[r]
                pv = rows[r][c]
                rows[r] = [x / pv for x in rows[r]]
                for k in range(n):
                    if k != r and rows[k][c]:
                        f = rows[k][c]
                        rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
                r += 1
            if any(rows[k][m] for k in range(r, n)):
                return None
            return [rows[i][m] for i in range(m)]

        def oracle(v, gens, n):
            if not any(v):
                return True
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(len(gens)), size):
                    sol = solve_exact([gens[j] for j in subset], v, n)
                    if sol is not None and all(c >= 0 for c in sol):
                        return True
            return False

        rng = random.Random(2718)
        for _ in range(300):
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 6)
            gens = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(m)]
            if rng.random() < 0.5:
                coeffs = [
                    Fraction(rng.randrange(0, 5), rng.randrange(1, 3)) for _ in gens
                ]
                v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
            else:
                v = tuple(rng.randrange(-6, 7) for _ in range(n))
            expected = oracle(v, gens, n)
            assert _cone_lp_feasible(v, gens) == expected
            assert in_cone(v, gens) == expected

    def test_lp_agrees_with_reachability_on_random_digraphs(self):
        rng = random.Random(44)
        for _ in range(120):
            n = rng.randrange(2, 7)
            arc_count = rng.randrange(0, min(2 * n, n * (n - 1)) + 1)
            arcs = set()
            while len(arcs) < arc_count:
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    arcs.add((a, b))
            gens = [unit_difference(b + 1, a + 1, n) for a, b in arcs]
            p, q = rng.sample(range(n), 2)
            target = unit_difference(q + 1, p + 1, n)
            expected = reachable(arcs, p, q)
            assert _cone_lp_feasible(target, gens) == expected
            assert in_cone(target, gens) == expected


class TestSimplexAgainstRationalReference:
    """The fraction-free simplex takes the rational simplex's pivots, so the
    two answer alike on every system; ``reference_cone_lp_feasible`` is the
    rational one it replaced."""

    def test_seeded_integer_systems(self):
        # half the targets are planted nonnegative combinations, so both
        # answers occur often; small n makes duplicate and zero generators
        # and zero targets common
        rng = random.Random(1212)
        answers = []
        for trial in range(2000):
            n = trial % 8 + 1
            m = rng.randint(1, 14)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
            if trial % 2:
                coeffs = [rng.randint(0, 3) for _ in gens]
                v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
            else:
                v = tuple(rng.randint(-3, 3) for _ in range(n))
            expected = reference_cone_lp_feasible(v, gens)
            assert _cone_lp_feasible(v, gens) == expected, (v, gens)
            answers.append((trial % 2, expected))
        assert answers.count((1, True)) == 1000
        assert 200 < answers.count((0, False)) < 1000
        assert answers.count((0, True)) > 100

    def test_rational_systems_through_in_cone(self):
        rng = random.Random(1313)
        answers = set()
        for trial in range(300):
            n = trial % 6 + 1
            m = rng.randint(1, 8)
            gens = [
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
                for _ in range(m)
            ]
            if trial % 2:
                coeffs = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
                v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
            else:
                v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
            expected = reference_cone_lp_feasible(v, gens)
            assert in_cone(v, gens) == expected, (v, gens)
            answers.add(expected)
        assert answers == {True, False}


def subspace_by_definition(gens):
    """The cone holds -g for every generator g, each tested by the LP."""
    return all(_cone_lp_feasible(tuple(-x for x in g), gens) for g in gens)


class TestConeIsSubspace:
    def test_small_cases(self):
        assert Cone([], 3).is_subspace()
        assert Cone([(0, 0)], 2).is_subspace()
        assert not Cone([(1, -1)], 2).is_subspace()
        assert Cone([(1, -1), (-1, 1)], 2).is_subspace()
        assert Cone([(2, -1, -1), (-1, 2, -1), (-1, -1, 2)], 3).is_subspace()
        assert not Cone([(2, -1, -1), (-1, 2, -1)], 3).is_subspace()
        with pytest.raises(ValueError):
            Cone([(1, -1)], 3).is_subspace()

    def test_random_integer_sets(self):
        # zero vectors, duplicates, +-v pairs and sets summing to zero are
        # planted among small random vectors
        rng = random.Random(4242)
        seen = set()
        for trial in range(600):
            n = trial % 8 + 1
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randrange(0, 6))]
            kind = rng.choice(("plain", "zero", "duplicate", "negated", "sum zero"))
            if kind == "zero":
                gens.append((0,) * n)
            elif kind == "duplicate" and gens:
                gens.append(rng.choice(gens))
            elif kind == "negated" and gens:
                gens.append(tuple(-x for x in rng.choice(gens)))
            elif kind == "sum zero" and gens:
                gens.append(tuple(-sum(column) for column in zip(*gens)))
            rng.shuffle(gens)
            expected = subspace_by_definition(gens)
            assert Cone(gens, n).is_subspace() == expected, gens
            seen.add((kind, expected))
        assert {kind for kind, _ in seen} == {"plain", "zero", "duplicate", "negated", "sum zero"}
        assert {expected for _, expected in seen} == {True, False}

    def test_unit_differences_reach_against_lp(self):
        # unit differences take the reachability branch; doubling every
        # generator keeps the cone and sends it through the LP branch
        rng = random.Random(515)
        seen = set()
        for trial in range(600):
            n = trial % 7 + 2
            arcs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randrange(1, 2 * n))]
            gens = [unit_difference(head, tail, n) for tail, head in arcs]
            expected = subspace_by_definition(gens)
            assert Cone(gens, n).is_subspace() == expected, arcs
            assert Cone([tuple(2 * x for x in g) for g in gens], n).is_subspace() == expected, arcs
            seen.add(expected)
        assert seen == {True, False}


class TestPolarCone:
    def test_empty_generators_vacuous(self):
        assert in_polar_cone((5, -3), [])

    def test_all_ones_in_polar_of_sum_zero_vectors(self):
        gens = CYCLE_VECTORS
        assert in_polar_cone((1, 1, 1, 1), gens)

    def test_sign_example(self):
        assert in_polar_cone((1, 0, 0, 0), [(-1, 1, 0, 0)])

    def test_agrees_with_complement_when_negation_closed(self):
        rng = random.Random(51)
        for _ in range(40):
            n = rng.randrange(1, 6)
            gens = [
                tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(rng.randrange(1, 4))
            ]
            closed = gens + [tuple(-x for x in g) for g in gens]
            comp = rref_basis(orthogonal_complement(gens, n), n)
            v = tuple(rng.randrange(-3, 4) for _ in range(n))
            assert in_polar_cone(v, closed) == in_span(
                v, comp
            ), f"gens {gens} v {v}"


class TestVectorMatrix:
    def test_row_action(self):
        m = ((0, 1), (1, 0))
        assert vector_times_matrix((2, 3), m) == (3, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            vector_times_matrix((1, 2, 3), ((1, 0), (0, 1)))
