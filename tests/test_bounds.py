import random

import pytest

from synchro.automaton import Automaton, is_synchronizing, reset_threshold_exact
from synchro.bounds import (
    bound_defect1,
    bound_main,
    bound_rystsov,
    build_bounds_report,
    synthesize_reset_word,
)
from synchro.cones import cone_sequence, extend_mask
from synchro.errors import (
    CapExceeded,
    NotSynchronizing,
    NotTransitive,
    UnsupportedAlphabet,
)
from synchro.generate import cerny, random_st
from synchro.permgroup import DEFAULT_GROUP_CAP

from oracles import apply_word, preimage, with_perm_set


class TestBoundMain:
    def test_family_value(self, c4):
        assert bound_main(cone_sequence(*with_perm_set(c4, (0,)))) == 9

    def test_family_closed_form(self):
        # dim = n-1 and transient = n-1 give 1 + (n-2) n = (n-1)^2
        for n in range(3, 9):
            aut = cerny(n)
            cone = cone_sequence(*with_perm_set(aut, (0,)))
            assert cone.span_dim == n - 1
            assert cone.trans_len_k == n - 1
            assert bound_main(cone) == (n - 1) ** 2

    def test_two_states_bound_is_one(self):
        assert bound_main(cone_sequence(*with_perm_set(cerny(2), (0,)))) == 1

    def test_nontransitive_rejected(self):
        perm = (2, 3, 4, 5, 0, 1)
        merge = (1, 1, 2, 3, 4, 5)
        aut = Automaton(("a", "b"), (perm, merge))
        with pytest.raises(NotTransitive):
            bound_main(cone_sequence(*with_perm_set(aut, (0,))))


class TestBoundRystsov:
    def test_family_value_exact_power(self, c4):
        assert bound_rystsov(cone_sequence(*with_perm_set(c4)), DEFAULT_GROUP_CAP) == 15

    def test_prefix_reading_via_report(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        report = build_bounds_report(c4, cone, DEFAULT_GROUP_CAP)
        assert report.bound_rystsov_exact == 15
        assert report.bound_rystsov_prefix == 13
        assert report.d_exact_power == 4
        assert report.d_prefix_closed == 3

    def test_two_states(self):
        assert bound_rystsov(cone_sequence(*with_perm_set(cerny(2))), DEFAULT_GROUP_CAP) == 1

    def test_cap_exceeded(self):
        cone = cone_sequence(*with_perm_set(cerny(6)))
        with pytest.raises(CapExceeded):
            bound_rystsov(cone, 2)

    def test_rejects_a_cone_of_a_non_transitive_set(self):
        aut = Automaton(("a", "b"), ((1, 0, 2, 3), (1, 1, 2, 3)))
        with pytest.raises(NotTransitive):
            bound_rystsov(cone_sequence(*with_perm_set(aut)), DEFAULT_GROUP_CAP)

    def test_dominates_dimension_bound(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randrange(4, 9)
            aut = random_st(n, 1, 1, rng.randrange(1 << 20))
            cone = cone_sequence(*with_perm_set(aut))
            assert bound_main(cone) <= bound_rystsov(cone, 10**5)


class TestBoundDefect1:
    @pytest.mark.parametrize("n,expected", [(4, 11), (6, 37), (2, 1), (3, 4)])
    def test_values(self, n, expected):
        assert bound_defect1(cerny(n)) == expected

    def test_defect_two_rejected(self):
        aut = Automaton(("a", "b"), ((1, 2, 0), (0, 0, 0)))
        with pytest.raises(UnsupportedAlphabet):
            bound_defect1(aut)


class TestSynthesize:
    def test_family_is_tight(self, c4):
        result = synthesize_reset_word(*with_perm_set(c4, (0,)))
        assert result.verified and result.within_bound
        assert result.length == 9 == result.bound
        assert c4.format_word(result.word) == "baaabaaab"

    def test_family_lengths_within_square(self):
        for n in range(3, 9):
            aut = cerny(n)
            result = synthesize_reset_word(*with_perm_set(aut, (0,)))
            assert result.length <= (n - 1) ** 2
            assert len(apply_word(aut, range(1, n + 1), result.word)) == 1

    def test_two_state_resets_in_one_letter(self):
        result = synthesize_reset_word(*with_perm_set(cerny(2), (0,)))
        assert result.length == 1

    def test_chain_sizes_strictly_increase(self, c4):
        result = synthesize_reset_word(*with_perm_set(c4, (0,)))
        sizes = [s.size_before for s in result.steps] + [result.steps[-1].size_after]
        assert sizes[0] == 1
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert len(result.steps) <= c4.n - 1

    def test_synchronization_checked_once(self, monkeypatch):
        calls = []

        def counting(aut):
            calls.append(aut)
            return is_synchronizing(aut)

        monkeypatch.setattr("synchro.bounds.is_synchronizing", counting)
        monkeypatch.setattr("synchro.cones.is_synchronizing", counting)
        result = synthesize_reset_word(*with_perm_set(cerny(16)))
        assert len(result.steps) > 2
        assert len(calls) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            synthesize_reset_word(*with_perm_set(Automaton(("a",), ((0,),))))
        perm_only = Automaton(("a", "b"), ((1, 0), (0, 1)))
        with pytest.raises(NotSynchronizing):
            synthesize_reset_word(*with_perm_set(perm_only))
        # synchronizing (constant letter) but the permutation letter is the
        # identity, which is not transitive on two or more states
        nontransitive = Automaton(("a", "b"), ((0, 1, 2), (1, 1, 1)))
        with pytest.raises(NotTransitive):
            synthesize_reset_word(*with_perm_set(nontransitive, (0,)))

    def test_soundness_chain_on_random_instances(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randrange(4, 10)
            aut = random_st(n, rng.choice((1, 2)), rng.choice((1, 2)), rng.randrange(1 << 20))
            rt, _ = reset_threshold_exact(aut)
            result = synthesize_reset_word(*with_perm_set(aut))
            assert rt <= result.length <= result.bound
            assert result.length <= bound_defect1(aut)

    def test_soundness_chain_on_family_up_to_ten(self):
        for n in range(2, 11):
            aut = cerny(n)
            rt, _ = reset_threshold_exact(aut)
            result = synthesize_reset_word(*with_perm_set(aut, (0,)))
            assert rt <= result.length <= result.bound
            cone = cone_sequence(*with_perm_set(aut))
            assert result.bound <= bound_rystsov(cone, DEFAULT_GROUP_CAP)

    def test_soundness_chain_on_exhaustive_small_st(self):
        from synchro.generate import exhaustive_st_instances

        for n in (2, 3):
            for aut in exhaustive_st_instances(n):
                rt, _ = reset_threshold_exact(aut)
                result = synthesize_reset_word(*with_perm_set(aut))
                assert rt <= result.length <= result.bound

    def test_steps_within_2n_minus_3_past_exhaustive_limit(self):
        # the lemma audit checks 2n - 3 on every subset only while 2^n <= 2^14
        for aut in (random_st(15, 1, 1, seed=15), cerny(16)):
            steps = synthesize_reset_word(*with_perm_set(aut)).steps
            assert len(steps) > 2
            assert all(len(step.word) <= 2 * aut.n - 3 for step in steps[1:])


class TestExtensibilityAudit:
    """Every nonempty proper subset extends within 2n - 3 letters (defect <= 1)."""

    @staticmethod
    def _longest_extension(aut, a_set=None):
        cone = cone_sequence(*with_perm_set(aut, a_set))
        longest = 0
        checked = 0
        for mask in range(1, aut.full_mask):
            word, _ = extend_mask(aut, mask, cone)
            states = {q + 1 for q in range(aut.n) if mask >> q & 1}
            assert len(preimage(aut, states, word)) > len(states)
            longest = max(longest, len(word))
            checked += 1
        return longest, checked

    def test_six_state_family_exhaustive(self):
        longest, checked = self._longest_extension(cerny(6), (0,))
        assert checked == 2**6 - 2
        assert longest <= 9 == 2 * 6 - 3

    def test_eight_state_random(self):
        aut = random_st(8, 1, 1, seed=5)
        longest, checked = self._longest_extension(aut)
        assert checked == 2**8 - 2
        assert longest <= 13 == 2 * 8 - 3


class TestBoundsReport:
    def test_threshold_below_reported_bounds(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        report = build_bounds_report(c4, cone, DEFAULT_GROUP_CAP)
        rt, _ = reset_threshold_exact(c4)
        assert rt == 9
        assert rt <= report.bound_main <= report.bound_rystsov_exact
        assert report.square_bound == 9

    def test_group_cap_leaves_diameters_unset(self):
        aut = cerny(7)
        report = build_bounds_report(aut, cone_sequence(*with_perm_set(aut, (0,))), 2)
        assert report.d_exact_power is None
        assert report.bound_rystsov_exact is None
        assert report.bound_main == 36
