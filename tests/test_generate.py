import pytest

from synchro import generate
from synchro.automaton import is_strongly_connected, is_synchronizing, reset_threshold_exact
from synchro.errors import ResourceCap, RetryExhausted
from synchro.generate import (
    cerny,
    enumerate_automata,
    exhaustive_st_instances,
    random_st,
)
from synchro.permgroup import is_transitive, resolve_perm_set


class TestCernyFamily:
    def test_structure(self, c4):
        assert c4.letters == ("a", "b")
        assert c4.rows() == ((2, 3, 4, 1), (2, 2, 3, 4))
        assert c4.letter_defects == (0, 1)

    def test_invariants_across_sizes(self):
        for n in range(2, 8):
            aut = cerny(n)
            assert is_synchronizing(aut)
            assert is_strongly_connected(aut)
            assert is_transitive(resolve_perm_set(aut, (0,))[1], n)

    def test_small_thresholds(self):
        assert reset_threshold_exact(cerny(2))[0] == 1
        assert reset_threshold_exact(cerny(5))[0] == 16

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            cerny(1)


class TestRandomSt:
    def test_postconditions(self):
        for seed in range(8):
            aut = random_st(6, 2, 1, seed)
            assert aut.n == 6
            assert len(aut.letters) == 3
            assert aut.letter_defects[:2] == (0, 0)
            assert aut.letter_defects[2] == 1
            assert is_synchronizing(aut)
            assert is_transitive(resolve_perm_set(aut, (0, 1))[1], 6)

    def test_reproducible(self):
        assert random_st(6, 1, 1, 42) == random_st(6, 1, 1, 42)
        assert random_st(6, 1, 1, 42) != random_st(6, 1, 1, 43)

    def test_small_case_succeeds_quickly(self):
        aut = random_st(2, 1, 1, 0)
        assert is_synchronizing(aut)

    def test_guards(self, monkeypatch):
        with pytest.raises(ValueError):
            random_st(4, 0, 1, 0)
        with pytest.raises(ValueError):
            random_st(4, 1, 0, 0)
        monkeypatch.setattr(generate, "RANDOM_ST_ATTEMPTS", 1)
        with pytest.raises(RetryExhausted):
            random_st(8, 1, 1, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n,k,count", [(2, 1, 4), (3, 2, 729), (2, 2, 16)])
    def test_raw_counts(self, n, k, count):
        assert sum(1 for _ in enumerate_automata(n, k)) == count

    def test_four_state_count(self):
        assert sum(1 for _ in enumerate_automata(4, 2)) == 65536

    def test_cap(self):
        with pytest.raises(ResourceCap):
            list(enumerate_automata(5, 3))

    def test_exhaustive_st_filter(self):
        instances = list(exhaustive_st_instances(2))
        for aut in instances:
            assert is_synchronizing(aut)
            perm_ids = [a for a, d in enumerate(aut.letter_defects) if d == 0]
            assert perm_ids
            assert is_transitive(resolve_perm_set(aut, perm_ids)[1], 2)
        assert len(instances) > 0
