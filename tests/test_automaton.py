import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchro.automaton import (
    Automaton,
    is_strongly_connected,
    is_synchronizing,
    letters_of_defect,
    reset_threshold_exact,
    word_image_mask,
)
from synchro.errors import NotSynchronizing, ResourceCap

from conftest import random_automaton
from oracles import apply_word, defect, preimage


def brute_force_reset_threshold(aut: Automaton, max_len: int) -> int | None:
    """Independent oracle: scan all words by length, testing the image size.

    Exponential in max_len; only call with a small known bound.
    """
    n = aut.n
    full = frozenset(range(1, n + 1))
    if n == 1:
        return 0
    for length in range(1, max_len + 1):
        for word in itertools.product(range(len(aut.letters)), repeat=length):
            if len(apply_word(aut, full, word)) == 1:
                return length
    return None


def semigroup_has_constant(aut: Automaton) -> bool:
    """Independent oracle: close the letter maps under composition and look
    for a rank-one element of the transition semigroup."""
    gens = [tuple(row) for row in aut.table]
    if aut.n == 1:
        return True
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                fg = tuple(g[x] for x in f)
                if fg not in seen:
                    seen.add(fg)
                    new.append(fg)
        frontier = new
    return any(len(set(f)) == 1 for f in seen)


class TestConstruction:
    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            Automaton((), ())

    def test_rejects_out_of_range_image(self):
        with pytest.raises(ValueError):
            Automaton(("a",), ((0, 2),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Automaton(("a", "a"), ((0,), (0,)))

    def test_rejects_whitespace_name(self):
        with pytest.raises(ValueError):
            Automaton(("a b",), ((0,),))

    def test_from_rows_is_one_indexed(self, c4):
        again = Automaton.from_rows(c4.letters, c4.rows())
        assert again == c4

    def test_word_parsing(self, c4):
        assert c4.word("ab") == (0, 1)
        assert c4.word(["a", 1]) == (0, 1)
        assert c4.format_word((1, 0, 0)) == "baa"
        with pytest.raises(ValueError):
            c4.word("az")


class TestApplyWord:
    def test_empty_word_is_identity(self, c4):
        full = {1, 2, 3, 4}
        assert apply_word(c4, full, ()) == full

    def test_single_letter_lookup(self, c4):
        assert apply_word(c4, {1}, c4.word("a")) == {2}

    def test_merging_letter(self, c4):
        assert apply_word(c4, {1, 2}, c4.word("b")) == {2}

    def test_invalid_letter_id(self, c4):
        with pytest.raises(ValueError):
            apply_word(c4, {1}, (7,))


class TestPreimage:
    def test_merged_fiber(self, c4):
        assert preimage(c4, {2}, c4.word("b")) == {1, 2}

    def test_empty_fiber(self, c4):
        assert preimage(c4, {1}, c4.word("b")) == frozenset()

    def test_full_set_is_fixed(self, c4):
        full = {1, 2, 3, 4}
        for word in itertools.product(range(2), repeat=3):
            assert preimage(c4, full, word) == full


class TestDefect:
    def test_permutation_letter(self, c4):
        assert defect(c4, c4.word("a")) == 0

    def test_merging_letter(self, c4):
        assert defect(c4, c4.word("b")) == 1

    def test_reset_word_has_maximal_defect(self, c4):
        _, witness = reset_threshold_exact(c4)
        assert defect(c4, witness) == 3

    def test_letters_of_defect_partition(self, c4):
        assert letters_of_defect(c4, 0) == {0}
        assert letters_of_defect(c4, 1) == {1}
        assert letters_of_defect(c4, 2) == frozenset()


class TestConnectivity:
    def test_cycle_is_strongly_connected(self, c4):
        assert is_strongly_connected(c4)

    def test_fixing_letter_is_not(self):
        aut = Automaton(("a",), ((0, 1),))
        assert not is_strongly_connected(aut)

    def test_single_state(self):
        assert is_strongly_connected(Automaton(("a",), ((0,),)))


class TestSynchronizing:
    def test_family_is_synchronizing(self, c4):
        assert is_synchronizing(c4)

    def test_permutation_only_is_not(self):
        aut = Automaton(("a", "b"), ((1, 0), (0, 1)))
        assert not is_synchronizing(aut)

    def test_single_state_is_synchronizing(self):
        assert is_synchronizing(Automaton(("a",), ((0,),)))

    def test_agrees_with_semigroup_oracle_on_random_tables(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 5)
            aut = random_automaton(rng, n, rng.randrange(1, 3))
            assert is_synchronizing(aut) == semigroup_has_constant(aut)


class TestResetThreshold:
    def test_c4(self, c4):
        length, witness = reset_threshold_exact(c4)
        assert length == 9
        assert c4.format_word(witness) == "baaabaaab"
        assert len(apply_word(c4, {1, 2, 3, 4}, witness)) == 1

    def test_c5(self, c5):
        length, _ = reset_threshold_exact(c5)
        assert length == 16

    def test_constant_letter_resets_in_one(self):
        aut = Automaton(("a",), ((0, 0),))
        assert reset_threshold_exact(aut) == (1, (0,))

    def test_single_state_resets_in_zero(self):
        aut = Automaton(("a",), ((0,),))
        assert reset_threshold_exact(aut) == (0, ())

    def test_not_synchronizing_raises(self):
        aut = Automaton(("a",), ((1, 0),))
        with pytest.raises(NotSynchronizing):
            reset_threshold_exact(aut)

    def test_resource_cap(self, c5):
        with pytest.raises(ResourceCap):
            reset_threshold_exact(c5, cap=3)

    def test_no_shorter_word_resets_c4(self, c4):
        # level-order guarantee, re-established by brute force
        assert brute_force_reset_threshold(c4, 9) == 9

    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            n = rng.randrange(2, 5)
            aut = random_automaton(rng, n, 2)
            if not is_synchronizing(aut):
                continue
            checked += 1
            length, witness = reset_threshold_exact(aut)
            assert brute_force_reset_threshold(aut, length) == length
            assert len(apply_word(aut, range(1, n + 1), witness)) == 1


@st.composite
def automata(draw, max_n=6, max_k=3):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, max_k))
    rows = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(k)
    )
    return Automaton(tuple("abc"[:k]), rows)


@st.composite
def automaton_subset_word(draw):
    aut = draw(automata())
    subset = draw(st.frozensets(st.integers(1, aut.n), max_size=aut.n))
    word = tuple(
        draw(st.integers(0, len(aut.letters) - 1))
        for _ in range(draw(st.integers(0, 5)))
    )
    return aut, subset, word


class TestAlgebraicProperties:
    @given(automaton_subset_word())
    @settings(max_examples=150, deadline=None)
    def test_adjunction(self, data):
        aut, subset, word = data
        assert apply_word(aut, preimage(aut, subset, word), word) <= subset
        assert subset <= preimage(aut, apply_word(aut, subset, word), word)

    @given(automaton_subset_word(), automaton_subset_word())
    @settings(max_examples=150, deadline=None)
    def test_composition(self, data, other):
        aut, subset, word = data
        _, _, word2 = other
        word2 = tuple(a % len(aut.letters) for a in word2)
        assert apply_word(aut, subset, word + word2) == apply_word(
            aut, apply_word(aut, subset, word), word2
        )
        assert preimage(aut, subset, word + word2) == preimage(
            aut, preimage(aut, subset, word2), word
        )

    @given(automaton_subset_word(), automaton_subset_word())
    @settings(max_examples=150, deadline=None)
    def test_defect_monotone_under_concatenation(self, data, other):
        aut, _, word = data
        _, _, word2 = other
        word2 = tuple(a % len(aut.letters) for a in word2)
        assert defect(aut, word + word2) >= max(defect(aut, word), defect(aut, word2))

    @given(automata())
    @settings(max_examples=100, deadline=None)
    def test_witness_length_is_threshold(self, aut):
        if not is_synchronizing(aut):
            return
        length, witness = reset_threshold_exact(aut)
        assert len(witness) == length
        assert word_image_mask(aut, aut.full_mask, witness).bit_count() == 1
