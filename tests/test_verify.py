import dataclasses
from functools import cached_property

import pytest

from synchro import verify
from synchro.automaton import Automaton
from synchro.cones import ConeReport, KVector, cone_sequence, escaped_masks, extend_mask
from synchro.generate import cerny, random_st
from synchro.growth import digraph
from synchro.verify import (
    ESCAPE,
    EXTENSION,
    TWO_N,
    lemma_suite,
    random_st_batch,
    suite_bounds,
    suite_cerny,
    suite_enumerate,
    suite_lemmas,
)

from conftest import count_calls
from oracles import with_perm_set


def tamper(monkeypatch, name, change):
    """Make ``synchro.verify`` read ``change(result)`` wherever it calls ``name``."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: change(real(*args)))


def escape_distance(mask, value):
    """An ``ell_all`` tamper that reports ``value`` as the escape distance of ``mask``."""

    def change(result):
        dist, step = result
        dist = list(dist)
        dist[mask] = value
        return dist, step

    return change


def padded_extensions(cone):
    """The cone of cerny(6) with every extension word led by a^6, which acts
    as the identity: the words still grow their subsets and stay within the
    cone bound once the transient is raised by 6, but exceed 2n - 3 = 9."""

    class Padded(ConeReport):
        def extension_word(self, escaped_mask, witness):
            word = super().extension_word(escaped_mask, witness)
            return None if word is None else (0,) * 6 + word

    fields = {f.name: getattr(cone, f.name) for f in dataclasses.fields(cone)}
    return Padded(**{**fields, "trans_len_k": cone.trans_len_k + 6})


def with_decomposition_at(trace, i, deco):
    """The trace padded with copies of its limit past level i, with ``deco``
    as the component decomposition at level i."""
    pad = max(0, i + 2 - len(trace.levels))
    limit = trace.limit_decomposition
    decos = list(trace.decompositions[:-1]) + [limit] * pad + [limit]
    decos[i] = deco
    return dataclasses.replace(
        trace, levels=trace.levels + (trace.limit,) * pad, decompositions=tuple(decos)
    )


def with_arcs_at(trace, i, arcs):
    levels = list(trace.levels)
    levels[i] = digraph(trace.n, arcs)
    return dataclasses.replace(trace, levels=tuple(levels))


def with_level0_components_swapped(trace):
    """The trace with a state of level 0's two-state weak component swapped
    for a singleton component's state: the component count, and with it the
    rank, still holds, but an arc now joins two components."""
    deco = trace.decompositions[0]
    a, b = sorted(next(w for w in deco.wccs if len(w) == 2))
    c = next(q for q in range(1, trace.n + 1) if frozenset({q}) in deco.wccs)
    wrong = (frozenset({a, c}), frozenset({b})) + tuple(
        w for w in deco.wccs if w not in ({a, b}, {c})
    )
    return dataclasses.replace(
        trace, decompositions=(dataclasses.replace(deco, wccs=wrong),) + trace.decompositions[1:]
    )


# (check, instance, reader in synchro.verify, tamper of what it returns), in
# the order lemma_suite reports the checks; every check passes on the
# untampered instance (TestLemmaSuite.test_family_instances_pass)
TAMPERS = [
    ("preimage_growth_identity", 6, "k_vector",
     lambda kv: KVector((kv.vector[0] + 1,) + kv.vector[1:], kv.word)),
    ("limit_generators_sum_zero", 6, "cone_sequence",
     lambda c: dataclasses.replace(
         c, limit_generators=c.limit_generators + (KVector((1, 0, 0, 0, 0, 0), (1,)),))),
    ("t_transient_at_least_k_transient", 6, "cone_sequence",
     lambda c: dataclasses.replace(c, trans_len_t=c.trans_len_k - 1)),
    ("k_transient_certificate", 6, "cone_sequence",
     lambda c: dataclasses.replace(c, trans_len_k=c.trans_len_k + 1)),
    ("negation_closure_of_limit_cone", 6, "cone_sequence",
     lambda c: dataclasses.replace(c, limit_generators=c.limit_generators[:1])),
    # the preimage of state 2 under b is {1, 2}: it grows, so {2} escapes at once
    ("polar_members_have_stable_preimages", 6, "ell_all", escape_distance(0b10, 1)),
    (ESCAPE, 6, "ell_all", escape_distance(0b1, 99)),
    # only the letter b is left as an extension candidate
    (EXTENSION, 6, "cone_sequence", lambda c: dataclasses.replace(c, trans_len_k=0)),
    (TWO_N, 6, "cone_sequence", padded_extensions),
    # the shift of arc (1, 2) by the cycle a is (2, 3)
    ("arc_shift_closure", 6, "gamma_growth", lambda t: with_arcs_at(t, 1, {(1, 2)})),
    ("incidence_rank_matches_weak_components", 6, "gamma_growth",
     with_level0_components_swapped),
    ("weak_equals_strong_at_limit", 6, "gamma_growth",
     lambda t: dataclasses.replace(t, decompositions=t.decompositions[:-1] + (
         dataclasses.replace(t.limit_decomposition, sccs=t.decompositions[0].sccs),))),
    # checked at level n - d - 1 = 4
    ("weak_components_stable_early", 6, "gamma_growth",
     lambda t: with_decomposition_at(t, 4, t.decompositions[3])),
    # checked at level n - 1 = 5, the limit
    ("every_vertex_covered_early", 6, "gamma_growth",
     lambda t: with_arcs_at(t, 5, t.levels[4].arcs)),
    # d = 1 > n / 3 on two states; checked at level n = 2
    ("strong_stable_by_n_when_many_components", 2, "gamma_growth",
     lambda t: with_decomposition_at(t, 2, t.decompositions[0])),
    # checked at level 2n - 3d - 1 = 8
    ("strong_stable_late_when_few_components", 6, "gamma_growth",
     lambda t: with_decomposition_at(t, 8, t.decompositions[0])),
    ("cone_digraph_bridge", 6, "gamma_growth",
     lambda t: with_arcs_at(t, t.transient, t.limit.arcs - {(6, 1)})),
    ("limit_dim_matches_components", 6, "cone_sequence",
     lambda c: dataclasses.replace(c, span_dim=c.span_dim - 1)),
    # the digraph bound is 3 * dim - n - 1 = 8 for dim 5 and n 6
    ("k_transient_within_digraph_bound", 6, "cone_sequence",
     lambda c: dataclasses.replace(c, trans_len_k=9)),
]

# the permutation-only, defect-2 and non-transitive instances of TestLemmaSuite
PERMUTATION_ONLY = Automaton(("a",), ((1, 0),))
DEFECT_TWO = Automaton(("a", "b", "c"), ((1, 2, 0), (0, 0, 0), (0, 0, 2)))
NOT_TRANSITIVE = Automaton(("a", "b"), ((2, 3, 4, 5, 0, 1), (1, 1, 2, 3, 4, 5)))


class TestLemmaSuite:
    def test_family_instances_pass(self):
        for n in (2, 3, 4, 5, 6):
            inst = lemma_suite(cerny(n))
            assert inst.ok, inst.failures

    def test_nontransitive_instance_marks_na_without_failing(self):
        perm = (2, 3, 4, 5, 0, 1)
        merge = (1, 1, 2, 3, 4, 5)
        aut = Automaton(("a", "b"), (perm, merge))
        inst = lemma_suite(aut)
        assert inst.ok
        statuses = {c.name: c.status for c in inst.checks}
        assert statuses["negation_closure_of_limit_cone"] == "n/a"
        assert statuses["escape_length_within_codimension"] == "n/a"
        assert statuses["preimage_growth_identity"] == "pass"

    def test_permutation_only_instance(self):
        aut = Automaton(("a",), ((1, 0),))
        inst = lemma_suite(aut)
        assert inst.ok
        statuses = {c.name: c.status for c in inst.checks}
        assert statuses["limit_generators_sum_zero"] == "n/a"

    def test_defect_two_instance_skips_digraph_bridge(self):
        aut = Automaton(("a", "b", "c"), ((1, 2, 0), (0, 0, 0), (0, 0, 2)))
        inst = lemma_suite(aut)
        assert inst.ok, inst.failures
        statuses = {c.name: c.status for c in inst.checks}
        assert statuses["cone_digraph_bridge"] == "n/a"

    def test_extension_within_2n_minus_3_passes(self):
        for aut in (cerny(6), random_st(8, 1, 1, seed=5)):
            inst = lemma_suite(aut)
            assert inst.ok, inst.failures
            assert inst.by_name("extension_within_2n_minus_3").status == "pass"

    def test_extension_within_2n_minus_3_is_tight_on_cerny3(self):
        aut = cerny(3)
        assert lemma_suite(aut).by_name("extension_within_2n_minus_3").status == "pass"
        cone = cone_sequence(*with_perm_set(aut))
        longest = max(len(extend_mask(aut, mask, cone)[0]) for mask in range(1, aut.full_mask))
        assert longest == 3 == 2 * aut.n - 3

    def test_extension_within_2n_minus_3_needs_defect_at_most_one(self):
        aut = Automaton(("a", "b"), ((1, 2, 0), (0, 0, 0)))
        check = lemma_suite(aut).by_name("extension_within_2n_minus_3")
        assert check.status == "n/a"
        assert "defect 2" in check.detail

    def test_extension_within_2n_minus_3_needs_three_states(self):
        check = lemma_suite(cerny(2)).by_name("extension_within_2n_minus_3")
        assert check.status == "n/a"

    def test_sampled_mode_on_small_instance(self):
        # 2^15 subsets is the first size past the exhaustive limit
        inst = lemma_suite(random_st(15, 1, 1, seed=15))
        assert inst.ok, inst.failures
        assert inst.by_name("preimage_growth_identity").status == "pass"
        assert inst.by_name("polar_members_have_stable_preimages").status == "n/a"

    def test_escaped_table_built_once(self, monkeypatch):
        calls = []

        def counting(vectors, n):
            calls.append(n)
            return escaped_masks(vectors, n)

        monkeypatch.setattr("synchro.cones.escaped_masks", counting)
        monkeypatch.setattr("synchro.verify.escaped_masks", counting, raising=False)
        inst = lemma_suite(cerny(6))
        assert inst.ok, inst.failures
        assert inst.by_name("escape_length_within_codimension").status == "pass"
        assert calls == [6]

    def test_preimage_table_built_once(self, monkeypatch):
        calls = []
        build = Automaton.__dict__["preimage_mask_table"].func

        def counting(aut):
            calls.append(aut.n)
            return build(aut)

        table = cached_property(counting)
        table.__set_name__(Automaton, "preimage_mask_table")
        monkeypatch.setattr(Automaton, "preimage_mask_table", table)
        inst = lemma_suite(cerny(6))
        assert inst.ok, inst.failures
        assert inst.by_name("polar_members_have_stable_preimages").status == "pass"
        assert calls == [6]


    @pytest.mark.parametrize(
        "check, n, reader, change", TAMPERS, ids=[t[0] for t in TAMPERS]
    )
    def test_tampered_fact_fails_its_check(self, monkeypatch, check, n, reader, change):
        assert lemma_suite(cerny(n)).by_name(check).status == "pass"
        tamper(monkeypatch, reader, change)
        assert lemma_suite(cerny(n)).by_name(check).status == "fail"

    def test_escape_failure_leaves_the_rest_of_the_sweep_na(self, monkeypatch):
        tamper(monkeypatch, "ell_all", escape_distance(0b1, 99))
        inst = lemma_suite(cerny(6))
        assert inst.by_name(ESCAPE).status == "fail"
        assert inst.by_name(ESCAPE).detail == "subset [1]: escape 99"
        for name in (EXTENSION, TWO_N):
            assert inst.by_name(name).status == "n/a"
            assert inst.by_name(name).detail == (
                "not run past subset [1]: escape_length_within_codimension failed there"
            )

    def test_extension_failure_leaves_the_rest_of_the_sweep_na(self, monkeypatch):
        tamper(monkeypatch, "cone_sequence", lambda c: dataclasses.replace(c, trans_len_k=0))
        inst = lemma_suite(cerny(6))
        assert inst.by_name(EXTENSION).status == "fail"
        assert inst.by_name(EXTENSION).detail == "subset [1]: no extending word"
        for name in (ESCAPE, TWO_N):
            assert inst.by_name(name).status == "n/a"
            assert inst.by_name(name).detail == (
                "not run past subset [1]: extension_length_within_cone_bound failed there"
            )

    def test_two_n_failure_does_not_stop_the_sweep(self, monkeypatch):
        tamper(monkeypatch, "cone_sequence", padded_extensions)
        inst = lemma_suite(cerny(6))
        assert inst.by_name(TWO_N).status == "fail"
        assert inst.by_name(TWO_N).detail == "subset [1]: length 12"
        assert inst.by_name(ESCAPE).status == inst.by_name(EXTENSION).status == "pass"

    def test_perm_set_resolved_and_tested_once_per_reader(self, monkeypatch):
        # resolved by lemma_suite and tested for transitivity by
        # cone_sequence alone (lemma_suite, verify_growth_lemmas and
        # translen_k_bound read cone.is_subspace); the audit tests
        # synchronization once and never strong connectivity, which a
        # transitive permutation set implies
        counts = count_calls(
            monkeypatch,
            "permgroup.resolve_perm_set",
            "permgroup.is_transitive",
            "automaton.is_synchronizing",
            "automaton.is_strongly_connected",
        )
        assert lemma_suite(cerny(6)).ok
        assert counts == {"resolve_perm_set": 1, "is_transitive": 1, "is_synchronizing": 1}
        assert counts["is_strongly_connected"] == 0

    def test_two_n_failure_outlasts_a_later_stop(self, monkeypatch):
        # the 2n - 3 failure at subset [1] stands when an escape failure at
        # the last subset ends the sweep
        tamper(monkeypatch, "cone_sequence", padded_extensions)
        tamper(monkeypatch, "ell_all", escape_distance(0b111110, 99))
        inst = lemma_suite(cerny(6))
        assert (inst.by_name(TWO_N).status, inst.by_name(TWO_N).detail) == (
            "fail", "subset [1]: length 12"
        )
        assert inst.by_name(ESCAPE).detail == "subset [2, 3, 4, 5, 6]: escape 99"
        assert inst.by_name(EXTENSION).status == "n/a"

    def test_tampers_cover_every_check_in_report_order(self):
        assert [t[0] for t in TAMPERS] == [c.name for c in lemma_suite(cerny(6)).checks]

    def test_every_report_lists_the_same_checks(self):
        names = [c.name for c in lemma_suite(cerny(6)).checks]
        assert len(names) == 19
        reports = {aut: lemma_suite(aut) for aut in (PERMUTATION_ONLY, DEFECT_TWO, NOT_TRANSITIVE)}
        for report in reports.values():
            assert [c.name for c in report.checks] == names
        # every check after the growth identity needs the cone, so a deficient letter
        assert {(c.status, c.detail) for c in reports[PERMUTATION_ONLY].checks[1:]} == {
            ("n/a", "no deficient letter")
        }
        for name in (ESCAPE, EXTENSION, TWO_N, "k_transient_within_digraph_bound"):
            check = reports[NOT_TRANSITIVE].by_name(name)
            assert (check.status, check.detail) == ("n/a", "permutation set not transitive")
        suite = suite_lemmas(2, (5,), 3, exhaustive_n_max=3)
        assert suite.details["total_checks"] == 19 * suite.checked

    def test_arcs_recognised_once_per_cone(self, monkeypatch):
        # the cone transient's one subspace test and the audit's cones for
        # the certificate and the negation closure each recognise their
        # generators as arcs once, whatever they are asked
        counts = count_calls(monkeypatch, "linalg._arcs_of")
        assert lemma_suite(random_st(9, 2, 1, seed=3)).ok
        assert 0 < counts["_arcs_of"] <= 4

    def test_arc_shift_closure_names_the_first_escaping_arc(self, monkeypatch):
        # with levels 1 and 3 cut back to the seed arc (1, 2), arcs of both
        # levels 0 and 2 shift out of the next level
        tamper(monkeypatch, "gamma_growth",
               lambda t: with_arcs_at(with_arcs_at(t, 1, {(1, 2)}), 3, {(1, 2)}))
        check = lemma_suite(cerny(6)).by_name("arc_shift_closure")
        assert check.status == "fail"
        assert check.detail == "arc (1, 2) shifted out of level 1"


class TestBatches:
    def test_batch_is_deterministic(self):
        a = random_st_batch(5, (4, 5), 7)
        b = random_st_batch(5, (4, 5), 7)
        assert [label for label, _ in a] == [label for label, _ in b]
        assert [aut for _, aut in a] == [aut for _, aut in b]

    def test_batch_round_robins_sizes(self):
        batch = random_st_batch(4, (4, 6), 0)
        assert [aut.n for _, aut in batch] == [4, 6, 4, 6]


class TestSuites:
    def test_cerny_suite(self):
        report = suite_cerny(6)
        assert report.ok
        assert report.checked == 5

    def test_enumerate_suite_small(self):
        report = suite_enumerate(3, 2)
        assert report.ok
        assert report.checked == 729
        assert report.details["synchronizing"] == 549

    def test_enumerate_suite_tests_each_table_once(self, monkeypatch):
        # reset_threshold_exact makes the one pair-graph test of every table
        counts = count_calls(monkeypatch, "automaton.is_synchronizing")
        report = suite_enumerate(3, 2)
        assert counts == {"is_synchronizing": report.checked}

    def test_bounds_suite_small(self):
        report = suite_bounds(count=6, ns=(5, 6), seed=3)
        assert report.ok, report.failures
        assert report.checked == 6
        assert report.seed == 3

    def test_bounds_suite_resolves_the_perm_set_once_per_instance(self, monkeypatch):
        # by suite_bounds for synthesis; bound_rystsov reads the cone's perms
        counts = count_calls(monkeypatch, "permgroup.resolve_perm_set")
        assert suite_bounds(10, range(5, 11), 0).ok
        assert counts == {"resolve_perm_set": 10}

    def test_lemmas_suite_small(self):
        report = suite_lemmas(count=4, ns=(5,), seed=3, exhaustive_n_max=2)
        assert report.ok, report.failures
        assert report.checked > 4
        assert report.details["total_checks"] > 0
