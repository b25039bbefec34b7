import dataclasses
import itertools
import random

import pytest

from synchro.automaton import Automaton
from synchro.cones import cone_sequence
from synchro.errors import (
    NoDefectOneLetters,
    NotTransitive,
    UnsupportedAlphabet,
    WrongDefect,
)
from synchro.generate import cerny, random_st
from synchro.growth import (
    Digraph,
    digraph,
    excluded_and_duplicate,
    gamma_growth,
    scc_wcc,
    translen_k_bound,
    verify_growth_lemmas,
)
from synchro.permgroup import is_transitive, resolve_perm_set

from oracles import reference_rank_detail, with_perm_set


def growth_lemmas(aut, a_set=None):
    """``verify_growth_lemmas`` on the growth trace of ``aut`` under the
    permutation set ``a_set``, with its transitivity tested here."""
    perms = resolve_perm_set(aut, a_set)[1]
    return verify_growth_lemmas(gamma_growth(aut, perms), is_transitive(perms, aut.n))


def reachability_matrix(g: Digraph) -> dict[tuple[int, int], bool]:
    """Independent transitive-closure oracle (Floyd-Warshall over booleans)."""
    n = g.n
    reach = {(i, j): i == j for i in range(1, n + 1) for j in range(1, n + 1)}
    for p, q in g.arcs:
        reach[(p, q)] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if reach[(i, k)] and reach[(k, j)]:
                    reach[(i, j)] = True
    return reach


def brute_scc_partition(g: Digraph) -> frozenset[frozenset[int]]:
    reach = reachability_matrix(g)
    comps = {
        frozenset(
            j for j in range(1, g.n + 1) if reach[(i, j)] and reach[(j, i)]
        )
        for i in range(1, g.n + 1)
    }
    return frozenset(comps)


class TestExcludedDuplicate:
    def test_merging_letter(self, c4):
        assert excluded_and_duplicate(c4, c4.word("b")) == (1, 2)

    def test_shifted_word(self, c4):
        assert excluded_and_duplicate(c4, c4.word("ba")) == (2, 3)

    def test_permutation_rejected(self, c4):
        with pytest.raises(WrongDefect):
            excluded_and_duplicate(c4, c4.word("a"))

    def test_defect_two_rejected(self):
        aut = Automaton(("a",), ((0, 0, 0),))
        with pytest.raises(WrongDefect):
            excluded_and_duplicate(aut, (0,))

    def test_shift_rule_on_random_words(self):
        # appending a permutation letter moves both distinguished states by it
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(3, 6)
            aut = cerny(n)
            word = (1,) + tuple(0 for _ in range(rng.randrange(4)))
            excl, dupl = excluded_and_duplicate(aut, word)
            excl2, dupl2 = excluded_and_duplicate(aut, word + (0,))
            assert excl2 == excl % n + 1
            assert dupl2 == dupl % n + 1


class TestComponents:
    def test_directed_cycle(self):
        g = digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        deco = scc_wcc(g)
        assert len(deco.sccs) == 1
        assert len(deco.wccs) == 1
        assert deco.scc_is_sink == (True,)
        assert deco.scc_is_source == (True,)

    def test_single_arc(self):
        g = digraph(4, [(1, 2)])
        deco = scc_wcc(g)
        assert len(deco.sccs) == 4
        assert {frozenset({1, 2}), frozenset({3}), frozenset({4})} == set(deco.wccs)

    def test_two_disjoint_cycles(self):
        g = digraph(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
        deco = scc_wcc(g)
        assert len(deco.sccs) == 2
        assert len(deco.wccs) == 2
        assert all(deco.scc_is_sink)
        assert all(deco.scc_is_source)

    def test_sink_source_flags(self):
        g = digraph(3, [(1, 2), (2, 3)])
        deco = scc_wcc(g)
        by_member = {min(c): i for i, c in enumerate(deco.sccs)}
        assert deco.scc_is_source[by_member[1]]
        assert not deco.scc_is_sink[by_member[1]]
        assert deco.scc_is_sink[by_member[3]]

    def test_condensation_topological_order(self):
        g = digraph(4, [(3, 1), (1, 2), (4, 3)])
        deco = scc_wcc(g)
        index = {min(c): i for i, c in enumerate(deco.sccs)}
        for p, q in g.arcs:
            ip = next(i for i, c in enumerate(deco.sccs) if p in c)
            iq = next(i for i, c in enumerate(deco.sccs) if q in c)
            assert ip < iq

    def test_matches_brute_force_on_random_digraphs(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randrange(2, 8)
            arcs = {
                (p, q)
                for p in range(1, n + 1)
                for q in range(1, n + 1)
                if p != q and rng.random() < 0.25
            }
            g = digraph(n, arcs)
            deco = scc_wcc(g)
            assert deco.scc_partition == brute_scc_partition(g)

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            digraph(2, [(1, 1)])


class TestGrowth:
    def test_family_trace(self, c4):
        trace = gamma_growth(c4, resolve_perm_set(c4, (0,))[1])
        assert trace.levels[0].arcs == frozenset({(1, 2)})
        assert trace.transient == 3
        assert trace.limit.arcs == frozenset({(1, 2), (2, 3), (3, 4), (4, 1)})
        assert trace.d == 1

    def test_identity_only_does_not_grow(self):
        aut = Automaton(("a", "b"), ((0, 1, 2, 3), (0, 0, 2, 3)))
        trace = gamma_growth(aut, resolve_perm_set(aut, (0,))[1])
        assert trace.transient == 0
        assert trace.limit.arcs == trace.levels[0].arcs

    def test_nontransitive_orbits_bound_components(self):
        # permutation (1 3 5)(2 4 6) cannot mix the seeded arc across orbits
        perm = (2, 3, 4, 5, 0, 1)
        merge = (1, 1, 2, 3, 4, 5)
        aut = Automaton(("a", "b"), (perm, merge))
        trace = gamma_growth(aut, resolve_perm_set(aut, (0,))[1])
        assert trace.d > 1

    def test_no_defect_one_letters(self):
        aut = Automaton(("a", "b"), ((1, 0, 2), (0, 0, 0)))
        with pytest.raises(NoDefectOneLetters):
            gamma_growth(aut, resolve_perm_set(aut, (0,))[1])

    def test_monotone_arc_sets(self, c4):
        trace = gamma_growth(c4, resolve_perm_set(c4, (0,))[1])
        for early, late in zip(trace.levels, trace.levels[1:]):
            assert early.arcs < late.arcs

    def test_matches_word_enumeration_oracle(self):
        rng = random.Random(23)
        checked = 0
        while checked < 12:
            n = rng.randrange(3, 6)
            aut = random_st(n, 1, 1, rng.randrange(1 << 20))
            sigma1 = [a for a, d in enumerate(aut.letter_defects) if d == 1]
            perm_ids = [a for a, d in enumerate(aut.letter_defects) if d == 0]
            checked += 1
            trace = gamma_growth(aut, resolve_perm_set(aut, perm_ids)[1])
            for i in range(min(trace.transient + 1, 4)):
                expected = set()
                for suffix_len in range(i + 1):
                    for suffix in itertools.product(perm_ids, repeat=suffix_len):
                        for b in sigma1:
                            expected.add(
                                excluded_and_duplicate(aut, (b,) + suffix)
                            )
                assert trace.levels[i].arcs == expected


class TestGrowthLemmas:
    def test_family_checks_pass(self, c4):
        report = growth_lemmas(c4, (0,))
        assert report.ok
        assert report.by_name("strong_stable_late_when_few_components").status == "pass"
        assert report.by_name("strong_stable_by_n_when_many_components").status == "n/a"

    def test_two_state_family_hits_many_component_branch(self):
        aut = cerny(2)
        report = growth_lemmas(aut, (0,))
        assert report.ok
        assert report.by_name("strong_stable_by_n_when_many_components").status == "pass"

    def test_nontransitive_marks_na(self):
        perm = (2, 3, 4, 5, 0, 1)
        merge = (1, 1, 2, 3, 4, 5)
        aut = Automaton(("a", "b"), (perm, merge))
        report = growth_lemmas(aut, (0,))
        assert report.ok
        assert report.by_name("weak_equals_strong_at_limit").status == "n/a"
        assert report.by_name("incidence_rank_matches_weak_components").status == "pass"

    def test_rank_check_compares_component_spans(self, c4):
        # swap two states between weak components at a level: the component
        # count, and with it the rank identity, still holds, so only the
        # complement-span comparison sees the wrong components
        trace = gamma_growth(c4, resolve_perm_set(c4, (0,))[1])
        deco = trace.decompositions[0]
        assert len(deco.wccs) == 3
        a, b = next(w for w in deco.wccs if len(w) == 2)
        c = next(q for q in range(1, 5) if q not in (a, b) and frozenset({q}) in deco.wccs)
        wrong = (frozenset({a, c}), frozenset({b})) + tuple(
            w for w in deco.wccs if w not in ({a, b}, {c})
        )
        tampered = dataclasses.replace(
            trace,
            decompositions=(dataclasses.replace(deco, wccs=wrong),) + trace.decompositions[1:],
        )
        check = verify_growth_lemmas(tampered, True).by_name(
            "incidence_rank_matches_weak_components"
        )
        assert check.status == "fail"
        assert check.detail == "level 0: complement differs from component span"

    def test_random_st_all_pass(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randrange(4, 9)
            aut = random_st(n, rng.choice((1, 2)), 1, rng.randrange(1 << 20))
            assert growth_lemmas(aut).ok


def tampered_components(rng, wccs):
    """Partitions near ``wccs``: two states swapped between components, two
    components merged and one split, each where the partition allows it."""
    comps = [sorted(w) for w in wccs]
    out = []
    if len(comps) >= 2:
        i, j = rng.sample(range(len(comps)), 2)
        a, b = rng.choice(comps[i]), rng.choice(comps[j])
        swap = [list(w) for w in comps]
        swap[i][swap[i].index(a)] = b
        swap[j][swap[j].index(b)] = a
        out.append(swap)
        out.append([w for k, w in enumerate(comps) if k not in (i, j)] + [comps[i] + comps[j]])
    big = [w for w in comps if len(w) >= 2]
    if big:
        w = rng.choice(big)
        cut = rng.randrange(1, len(w))
        out.append([v for v in comps if v is not w] + [w[:cut], w[cut:]])
    return [tuple(frozenset(w) for w in tampered) for tampered in out]


class TestRankCheckAgainstReference:
    """The running elimination and the component-crossing test against the
    span-and-complement comparison they replaced (``reference_rank_detail``),
    on seeded growth traces and on decompositions tampered at one level."""

    def test_seeded_traces_and_tampered_decompositions(self):
        rng = random.Random(61)
        outcomes = set()
        for n in range(4, 10):
            for _ in range(4):
                aut = random_st(n, 2, rng.choice((1, 2)), rng.randrange(1 << 20))
                perms = resolve_perm_set(aut)[1]
                for perm_set in (perms, perms[:1]):
                    trace = gamma_growth(aut, perm_set)
                    traces = [trace]
                    i = rng.randrange(len(trace.levels))
                    deco = trace.decompositions[i]
                    for wccs in tampered_components(rng, deco.wccs):
                        decos = list(trace.decompositions)
                        decos[i] = dataclasses.replace(deco, wccs=wccs)
                        traces.append(dataclasses.replace(trace, decompositions=tuple(decos)))
                    for t in traces:
                        check = verify_growth_lemmas(t, False).by_name(
                            "incidence_rank_matches_weak_components"
                        )
                        expected = reference_rank_detail(t)
                        assert (check.status, check.detail) == (
                            "fail" if expected else "pass",
                            expected,
                        )
                        outcomes.add(expected.split(": ")[-1].split(" ")[0])
        assert outcomes == {"", "rank", "complement"}


class TestTransientBound:
    def test_family_bound(self, c4):
        cone = cone_sequence(*with_perm_set(c4, (0,)))
        assert translen_k_bound(c4, cone) == 4
        assert cone.trans_len_k <= 4

    def test_half_dimension_case(self):
        aut = cerny(2)
        cone = cone_sequence(*with_perm_set(aut, (0,)))
        assert cone.span_dim * 2 == aut.n
        assert translen_k_bound(aut, cone) == 2

    def test_half_dimension_four_states(self):
        # merging across the diagonal of the 4-cycle splits the limit digraph
        # into two 2-cycles, so the limit cone has dimension n/2 and the
        # component bound degrades to n (the bound needs no synchronization)
        aut = Automaton(("a", "b"), ((1, 2, 3, 0), (2, 1, 2, 3)))
        cone = cone_sequence(*with_perm_set(aut, (0,)))
        trace = gamma_growth(aut, cone.perms)
        assert cone.span_dim == 2 and trace.d == 2
        assert translen_k_bound(aut, cone) == 4
        assert cone.trans_len_k <= 4
        report = verify_growth_lemmas(trace, cone.is_subspace)
        assert report.ok
        assert report.by_name("strong_stable_by_n_when_many_components").status == "pass"

    def test_defect_two_rejected(self):
        aut = Automaton(("a", "b"), ((1, 2, 0), (0, 0, 0)))
        with pytest.raises(UnsupportedAlphabet):
            translen_k_bound(aut, cone_sequence(*with_perm_set(aut, (0,))))

    def test_nontransitive_rejected(self):
        perm = (2, 3, 4, 5, 0, 1)
        merge = (1, 1, 2, 3, 4, 5)
        aut = Automaton(("a", "b"), (perm, merge))
        with pytest.raises(NotTransitive):
            translen_k_bound(aut, cone_sequence(*with_perm_set(aut, (0,))))

    def test_bound_holds_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randrange(4, 9)
            aut = random_st(n, 1, rng.choice((1, 2)), rng.randrange(1 << 20))
            cone = cone_sequence(*with_perm_set(aut))
            assert cone.trans_len_k <= translen_k_bound(aut, cone)
