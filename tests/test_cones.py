import itertools
import random
from operator import itemgetter

import pytest

from synchro import cones
from synchro.automaton import Automaton, is_synchronizing, mask_of, states_of
from synchro.bounds import synthesize_reset_word
from synchro.cones import (
    _escapes_polar,
    cone_sequence,
    ell,
    ell_all,
    escape_word_from_steps,
    escaped_masks,
    extend_mask,
    k_vector,
    polar_escape,
    support_masks,
    support_sum,
)
from synchro.errors import (
    InternalContradiction,
    NoDeficientLetters,
    NotStronglyConnected,
    NotSynchronizing,
    ResourceCap,
)
from synchro.generate import cerny, random_st
from synchro.linalg import RowEchelon, in_cone, span_basis
from synchro.permgroup import inverse, is_transitive, permutation_of_letter
from synchro.verify import random_st_batch

from conftest import count_calls, random_automaton
from oracles import (
    char_vector,
    escape_exists,
    in_polar_cone,
    inner_product,
    preimage,
    preimage_matrix,
    reference_masked_sum,
    reference_trans_len_k,
    rref_basis,
    shift_vector,
    shortest_escape,
    vector_times_matrix,
    with_perm_set,
)


class TestKVector:
    def test_empty_word(self, c4):
        assert k_vector(c4, ()).vector == (0, 0, 0, 0)

    def test_merging_letter(self, c4):
        assert k_vector(c4, (1,)).vector == (-1, 1, 0, 0)

    def test_permutation_letter(self, c4):
        assert k_vector(c4, (0,)).vector == (0, 0, 0, 0)

    def test_coordinates_sum_to_zero(self):
        rng = random.Random(3)
        for _ in range(50):
            aut = random_automaton(rng, rng.randrange(2, 6), 2)
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            assert sum(k_vector(aut, word).vector) == 0

    def test_counts_preimage_fibers(self):
        rng = random.Random(4)
        for _ in range(50):
            aut = random_automaton(rng, rng.randrange(2, 6), 2)
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
            vec = k_vector(aut, word).vector
            for q in range(1, aut.n + 1):
                assert vec[q - 1] == len(preimage(aut, {q}, word)) - 1

    def test_inner_product_gives_preimage_growth(self, c4):
        # <char(S), k_w> = |S.w^-1| - |S|, checked exhaustively on short
        # words; a subset extends under w exactly when the product is positive
        subsets = [
            frozenset(s)
            for r in range(5)
            for s in itertools.combinations(range(1, 5), r)
        ]
        for length in range(4):
            for word in itertools.product(range(2), repeat=length):
                vec = k_vector(c4, word).vector
                for s in subsets:
                    growth = len(preimage(c4, s, word)) - len(s)
                    product = inner_product(char_vector(s, 4), vec)
                    assert product == growth
                    assert (product > 0) == (len(preimage(c4, s, word)) > len(s))


class TestPreimageMatrix:
    def test_empty_word_is_identity(self, c4):
        m = preimage_matrix(c4, ())
        assert m == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        )

    def test_permutation_rows_are_inverse_images(self, c4):
        m = preimage_matrix(c4, (0,))
        for q in range(4):
            row = [0, 0, 0, 0]
            row[(q - 1) % 4] = 1
            assert m[q] == tuple(row)

    def test_merging_letter_rows(self, c4):
        m = preimage_matrix(c4, (1,))
        assert m[0] == (0, 0, 0, 0)
        assert m[1] == (1, 1, 0, 0)

    def test_row_action_matches_preimage(self):
        rng = random.Random(5)
        for _ in range(40):
            aut = random_automaton(rng, rng.randrange(2, 6), 2)
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
            m = preimage_matrix(aut, word)
            s = frozenset(
                q for q in range(1, aut.n + 1) if rng.randrange(2)
            )
            lhs = vector_times_matrix(char_vector(s, aut.n), m)
            assert lhs == char_vector(preimage(aut, s, word), aut.n)


class TestShiftIdentity:
    def test_appending_permutation_letter_shifts_fibers(self):
        # k_{wa} has the fibers of k_w moved along the permutation: the
        # matrix route goes through the inverse letter word
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(2, 6)
            perm_row = tuple(rng.sample(range(n), n))
            merge = [rng.randrange(n) for _ in range(n)]
            aut = Automaton(("a", "b"), (perm_row, tuple(merge)))
            perm = permutation_of_letter(aut, 0)
            for length in range(3):
                for word in itertools.product(range(2), repeat=length):
                    direct = k_vector(aut, word + (0,)).vector
                    assert direct == shift_vector(k_vector(aut, word).vector, perm)

    def test_gather_matches_the_coordinate_loop(self):
        # the walk shifts by gathering through the inverse permutation; an
        # n-cycle and one merged pair keep the orbit at n vectors up to n = 64
        rng = random.Random(64)
        for n in range(2, 65):
            perm = tuple(rng.sample(range(n), n))
            vec = tuple(rng.randint(-3, 3) for _ in range(n))
            assert itemgetter(*inverse(perm))(vec) == shift_vector(vec, perm)
            states = rng.sample(range(n), n)
            cycle = [0] * n
            for q, p in zip(states, states[1:] + states[:1]):
                cycle[q] = p
            merge = list(range(n))
            merge[states[0]] = states[rng.randrange(1, n)]
            aut = Automaton(("a", "b"), (tuple(cycle), tuple(merge)))
            cone = cone_sequence(*with_perm_set(aut, (0,)))
            by_word = {kv.word: kv.vector for kv in cone.limit_generators}
            assert len(by_word) == n
            for word, vector in by_word.items():
                if len(word) > 1:
                    assert vector == shift_vector(by_word[word[:-1]], tuple(cycle))

    def test_matrix_route_uses_the_inverse_permutation(self, c4):
        # right-multiplying by [u] with u acting as a^-1 equals appending a
        k_b = k_vector(c4, (1,)).vector
        inv_word = (0, 0, 0)  # a^3 acts as the inverse of the 4-cycle
        m = preimage_matrix(c4, inv_word)
        assert vector_times_matrix(k_b, m) == k_vector(c4, (1, 0)).vector


class TestConeSequence:
    def test_family_transients(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        assert cone.trans_len_t == 3
        assert cone.trans_len_k == 3
        assert cone.span_dim == 3
        assert cone.is_subspace

    def test_tiers_grow_monotonically(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        tiers = [cone.tier(i) for i in range(len(cone.level_ends))]
        for early, late in zip(tiers, tiers[1:]):
            assert early < late

    def test_stabilization_certificate(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        j = cone.trans_len_k
        prev = list(cone.tier(j - 1))
        assert any(not in_cone(v, prev) for v in cone.tier(j) - cone.tier(j - 1))

    def test_no_deficient_letters(self):
        aut = Automaton(("a",), ((1, 0),))
        with pytest.raises(NoDeficientLetters):
            cone_sequence(*with_perm_set(aut, (0,)))

    def test_fixed_seed_pair_stabilizes_immediately(self):
        # the permutation letter fixes both distinguished states of b
        aut = Automaton(("a", "b"), ((0, 1, 3, 2), (0, 0, 2, 3)))
        cone = cone_sequence(*with_perm_set(aut, (0,)))
        assert cone.trans_len_k == 0
        assert cone.trans_len_t == 0

    def test_oracle_direct_iteration(self):
        # recompute T_i by enumerating deficient-then-permutation words
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randrange(2, 5)
            perm_row = tuple(rng.sample(range(n), n))
            merge = tuple(rng.randrange(n) for _ in range(n))
            aut = Automaton(("a", "b"), (perm_row, merge))
            if 0 in set(aut.letter_defects[1:2]):
                continue
            cone = cone_sequence(*with_perm_set(aut, (0,)))
            for i in range(len(cone.level_ends)):
                tier = cone.tier(i)
                expected = set()
                for suffix_len in range(i + 1):
                    for suffix in itertools.product([0], repeat=suffix_len):
                        expected.add(k_vector(aut, (1,) + suffix).vector)
                assert tier == expected


def orbit_instance(rng, n, fibers):
    """Two random permutations acting transitively plus one letter with a
    fiber of each size in ``fibers`` (2 merges a pair, 3 a triple) and every
    other state mapped one to one: its k-vector orbit under the group is
    large and not made of unit differences."""
    while True:
        perms = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        if is_transitive(perms, n):
            break
    states = rng.sample(range(n), n)
    blocks = []
    for size in fibers:
        blocks.append(states[:size])
        states = states[size:]
    blocks += [[q] for q in states]
    row = [0] * n
    for block, image in zip(blocks, rng.sample(range(n), len(blocks))):
        for q in block:
            row[q] = image
    return Automaton(("a", "b", "c"), (*perms, tuple(row)))


class TestConeTransientAgainstReference:
    """``cone_sequence`` decides the cone transient by a running rank and one
    subspace test per level; the per-vector membership loop of
    ``reference_trans_len_k`` is the reference."""

    @staticmethod
    def check(aut, a_set=None):
        cone = cone_sequence(*with_perm_set(aut, a_set))
        got = (cone.span_dim, cone.trans_len_k, cone.trans_len_t)
        assert got == reference_trans_len_k(aut, a_set), aut.table
        return cone

    def test_orbit_instances(self):
        rng = random.Random(2024)
        patterns = ((2, 2), (2, 2, 2), (3,), (3, 2))
        early = 0
        for n in range(6, 11):
            for fibers in rng.sample(patterns, 2):
                cone = self.check(orbit_instance(rng, n, fibers))
                assert cone.is_subspace
                early += cone.trans_len_k < cone.trans_len_t
        assert early > 0

    def test_random_st_batch(self):
        for _, aut in random_st_batch(48, range(5, 17), 11):
            self.check(aut)

    def test_cerny(self):
        for n in range(2, 21):
            self.check(cerny(n))

    def test_nontransitive_perm_sets(self):
        # random permutation letters and random deficient letters, with a
        # permutation set drawn until it is not transitive: every level
        # without a rank rise takes the per-vector fallback
        rng = random.Random(77)
        kinds = set()
        checked = 0
        while checked < 60:
            n = rng.randrange(3, 8)
            perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
            deficient = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randrange(1, 3))]
            rows = (*perms, *deficient)
            aut = Automaton(tuple("abcde"[: len(rows)]), rows)
            a_set = tuple(a for a in range(len(perms)) if rng.random() < 0.6)
            if 0 in aut.letter_defects[len(perms):]:
                continue
            if is_transitive([perms[a] for a in a_set], n):
                continue
            cone = self.check(aut, a_set)
            assert not cone.is_subspace
            checked += 1
            kinds.add(cone.trans_len_k < cone.trans_len_t)
        assert kinds == {True, False}

    def test_at_most_one_lp_per_level(self, monkeypatch):
        # n = 8, one letter merging two pairs: 420 limit vectors under the group
        aut = orbit_instance(random.Random(8), 8, (2, 2))
        counts = count_calls(monkeypatch, "linalg._cone_lp_feasible")
        cone = cone_sequence(*with_perm_set(aut))
        assert cone.is_subspace and len(cone.limit_generators) == 420
        assert 0 < counts["_cone_lp_feasible"] <= cone.trans_len_k + 1


class TestGeneratorCap:
    # n = 8, one letter merging two pairs: 420 limit vectors under the group
    def test_cap_boundary(self, monkeypatch):
        aut = orbit_instance(random.Random(8), 8, (2, 2))
        monkeypatch.setattr(cones, "GENERATOR_CAP", 419)
        with pytest.raises(ResourceCap, match="420 generators at level"):
            cone_sequence(*with_perm_set(aut))
        monkeypatch.setattr(cones, "GENERATOR_CAP", 420)
        assert len(cone_sequence(*with_perm_set(aut)).limit_generators) == 420


class TestSaturatedElimination:
    def test_elimination_stops_at_rank_n_minus_1(self, monkeypatch):
        # k-vectors sum to zero, so rank n - 1 is full: the vectors after the
        # one that reaches it are never reduced
        aut = orbit_instance(random.Random(8), 8, (2, 2))
        real = RowEchelon.add
        added = []

        def counting(self, v):
            added.append(v)
            return real(self, v)

        monkeypatch.setattr(RowEchelon, "add", counting)
        cone = cone_sequence(*with_perm_set(aut))
        monkeypatch.undo()
        vectors = cone.limit_vectors
        basis = span_basis(vectors, aut.n)
        assert cone.span_dim == len(basis) == aut.n - 1
        assert added == list(vectors[: vectors.index(basis[-1]) + 1])
        assert len(added) < len(vectors) // 4


class TestLimitSubspace:
    def test_family_limit_is_sum_zero(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        assert cone.is_subspace
        assert cone.span_dim == 3
        assert rref_basis(cone.limit_vectors, 4) == rref_basis(
            [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)], 4
        )

    def test_two_state_swap_and_merge(self):
        aut = cerny(2)
        assert cone_sequence(*with_perm_set(aut, (0,))).span_dim == 1

    def test_nontransitive_is_not_a_subspace(self):
        aut = Automaton(("a", "b"), ((0, 1, 3, 2), (0, 0, 2, 3)))
        assert not cone_sequence(*with_perm_set(aut, (0,))).is_subspace

    def test_negation_closure(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        for v in cone.limit_vectors:
            assert in_cone(tuple(-x for x in v), cone.limit_vectors)


def brute_force_escape_length(aut, vectors, s, max_len):
    """Oracle: scan words by length for one whose preimage escapes the polar cone."""
    for length in range(max_len + 1):
        for word in itertools.product(range(len(aut.letters)), repeat=length):
            target = preimage(aut, s, word)
            if not in_polar_cone(char_vector(target, aut.n), vectors):
                return length
    return None


class TestEscapeLength:
    def test_singletons_escape_immediately(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        assert ell(c4, cone, {1}) == (0, ())

    def test_every_proper_subset_escapes_immediately(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        for r in range(1, 4):
            for s in itertools.combinations(range(1, 5), r):
                assert ell(c4, cone, frozenset(s))[0] == 0

    def test_guards(self, c4):
        # the automaton is checked before the cone is read
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        perm_only = Automaton(("a",), ((1, 0),))
        with pytest.raises(NotSynchronizing):
            ell(perm_only, cone, {1})
        disconnected = Automaton(("a",), ((0, 0),))
        with pytest.raises(NotStronglyConnected):
            ell(disconnected, cone, {1})

    def test_rejects_trivial_subsets(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        with pytest.raises(ValueError):
            ell(c4, cone, set())
        with pytest.raises(ValueError):
            ell(c4, cone, {1, 2, 3, 4})

    def test_matches_brute_force_oracle(self):
        rng = random.Random(8)
        checked = 0
        while checked < 25:
            n = rng.randrange(3, 6)
            aut = random_automaton(rng, n, 2)
            from synchro.automaton import is_strongly_connected, is_synchronizing

            if not (is_synchronizing(aut) and is_strongly_connected(aut)):
                continue
            if not any(d > 0 for d in aut.letter_defects):
                continue
            cone = cone_sequence(*with_perm_set(aut))
            checked += 1
            s = frozenset(rng.sample(range(1, n + 1), rng.randrange(1, n)))
            got_len, got_word = ell(aut, cone, s)
            oracle = brute_force_escape_length(aut, cone.limit_vectors, s, got_len + 1)
            assert oracle == got_len
            escaped = preimage(aut, s, got_word)
            assert not in_polar_cone(char_vector(escaped, n), cone.limit_vectors)

    def test_batch_distances_match_single_queries(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        dist, step = ell_all(c4, cone.limit_vectors)
        for mask in range(1, 15):
            got, _ = ell(c4, cone, states_of(mask))
            assert dist[mask] == got
            _, escaped_mask = escape_word_from_steps(step, mask)
            assert dist[escaped_mask] == 0
        escaped = escaped_masks(cone.limit_vectors, c4.n)
        assert [d == 0 for d in dist] == [bool(e) for e in escaped]


class TestSubspaceEscape:
    def test_shortest_escape_bounded_by_dimension(self):
        # if some word drives a subspace member out, one of length at most
        # the dimension already does
        rng = random.Random(10)
        checked = 0
        while checked < 40:
            n = rng.randrange(3, 6)
            aut = random_automaton(rng, n, 2)
            mats = [preimage_matrix(aut, (a,)) for a in range(2)]
            basis = rref_basis(
                [
                    tuple(rng.randrange(-2, 3) for _ in range(n))
                    for _ in range(rng.randrange(1, n))
                ],
                n,
            )
            if basis.dim in (0, n):
                continue
            coeffs = [rng.randrange(-2, 3) for _ in basis.rows]
            x = tuple(
                sum(c * row[i] for c, row in zip(coeffs, basis.rows))
                for i in range(n)
            )
            if not any(x):
                continue
            if not escape_exists(mats, basis, x, n):
                continue
            checked += 1
            found = shortest_escape(mats, basis, x, basis.dim)
            assert found is not None and found <= basis.dim


class TestSupportSums:
    def test_support_masks_group_the_nonzero_entries(self):
        assert support_masks((0, 0)) == ()
        assert support_masks((-1, 2, 0, 2, -1)) == ((-1, 0b10001), (2, 0b01010))

    def test_sums_match_the_bit_walk(self):
        # seeded vectors with few distinct values, as k-vectors have, and
        # with many; the empty and the full mask on every vector
        rng = random.Random(64)
        for trial in range(640):
            n = trial % 64 + 1
            spread = 2 if trial % 2 else 40
            vec = tuple(rng.randint(-spread, spread) if rng.random() < 0.4 else 0 for _ in range(n))
            support = support_masks(vec)
            masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(8)]
            for mask in masks:
                assert support_sum(support, mask) == reference_masked_sum(vec, mask), (vec, mask)

    def test_built_once_per_limit_generator(self, monkeypatch):
        # the escape and extension tests of one synthesis read the supports
        # cached on the cone, built once per extension candidate
        counts = count_calls(monkeypatch, "cones.support_masks")
        result = synthesize_reset_word(*with_perm_set(cerny(20)))
        assert len(result.steps) > 10
        assert 0 < counts["support_masks"] <= len(result.cone.extension_candidates)

    def test_candidates_are_the_levels_through_k(self):
        for aut in (cerny(7), orbit_instance(random.Random(3), 7, (2, 2))):
            cone = cone_sequence(*with_perm_set(aut))
            k = cone.trans_len_k
            candidates = cone.extension_candidates
            assert candidates == cone.limit_generators[: cone.level_ends[k]]
            assert candidates == tuple(kv for kv in cone.limit_generators if len(kv.word) <= k + 1)


class TestEscapeSupports:
    """A transitive cone decides the escape on its extension candidates and
    their negations; ``_escapes_polar`` over the supports of every limit
    vector is the reference, and ``polar_escape`` must find the same word."""

    @staticmethod
    def check(aut, rng, trials=30):
        cone = cone_sequence(*with_perm_set(aut))
        every = [support_masks(v) for v in cone.limit_vectors]
        candidates = [support_masks(kv.vector) for kv in cone.extension_candidates]
        assert list(cone.escape_supports[: len(candidates)]) == candidates
        escapes = is_synchronizing(aut)
        for _ in range(trials):
            mask = rng.randrange(1, (1 << aut.n) - 1)
            got = _escapes_polar(cone.escape_supports, mask)
            assert got == _escapes_polar(every, mask), (aut.table, mask)
            if escapes:
                expected = polar_escape(aut, every, mask)
                assert polar_escape(aut, cone.escape_supports, mask) == expected
        return cone

    def test_orbit_instances(self):
        rng = random.Random(13)
        shorter = 0
        for n in range(6, 11):
            for fibers in ((2, 2), (3,), (3, 2)):
                cone = self.check(orbit_instance(rng, n, fibers), rng)
                assert cone.is_subspace
                shorter += len(cone.escape_supports) < len(cone.limit_generators)
        assert shorter > 0

    def test_random_st_batch(self):
        rng = random.Random(14)
        low_rank = 0
        for _, aut in random_st_batch(40, range(5, 11), 15):
            cone = self.check(aut, rng)
            low_rank += cone.span_dim < aut.n - 1
        assert low_rank > 0

    def test_cones_below_full_rank(self):
        # the golden escape-* seeds: limit dimension below n - 1, so some
        # subsets must walk before they escape
        rng = random.Random(16)
        for n, perm_letters, defect1_letters, seed in (
            (6, 1, 2, 1014768378),
            (6, 1, 2, 783178257),
            (8, 2, 1, 662762343),
            (10, 1, 1, 786923726),
        ):
            aut = random_st(n, perm_letters, defect1_letters, seed)
            cone = self.check(aut, rng, trials=60)
            assert cone.is_subspace and cone.span_dim < n - 1


class TestExtendSubset:
    def test_single_merging_letter_suffices(self, c4):
        word, _ = extend_mask(c4, mask_of({2}, 4), cone_sequence(*with_perm_set(c4, (0,))))
        assert word == c4.word("b")
        assert preimage(c4, {2}, word) == {1, 2}

    def test_grows_to_full_set(self, c4):
        word, _ = extend_mask(c4, mask_of({1, 2, 3}, 4), cone_sequence(*with_perm_set(c4, (0,))))
        assert len(word) <= 4
        assert len(preimage(c4, {1, 2, 3}, word)) == 4

    def test_full_set_rejected(self, c4):
        # the full set never leaves the polar cone, so the escape search fails
        with pytest.raises(InternalContradiction):
            extend_mask(c4, c4.full_mask, cone_sequence(*with_perm_set(c4, (0,))))

    def test_length_within_cone_bound_everywhere(self):
        rng = random.Random(9)
        checked = 0
        while checked < 15:
            n = rng.randrange(3, 6)
            try:
                from synchro.generate import random_st

                aut = random_st(n, 1, 1, rng.randrange(1 << 20))
            except Exception:
                continue
            checked += 1
            cone = cone_sequence(*with_perm_set(aut))
            for r in range(1, n):
                for s in itertools.combinations(range(1, n + 1), r):
                    s = frozenset(s)
                    word, escape_len = extend_mask(aut, mask_of(s, n), cone)
                    assert escape_len == ell(aut, cone, s)[0]
                    assert len(word) <= cone.trans_len_k + escape_len + 1
                    assert len(preimage(aut, s, word)) > len(s)
