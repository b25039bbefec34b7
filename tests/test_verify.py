from functools import cached_property

from synchro.automaton import Automaton
from synchro.cones import cone_sequence, escaped_masks, extend_mask
from synchro.generate import cerny, random_st
from synchro.verify import (
    lemma_suite,
    random_st_batch,
    suite_bounds,
    suite_cerny,
    suite_enumerate,
    suite_lemmas,
)


class TestLemmaSuite:
    def test_family_instances_pass(self):
        for n in (2, 3, 4, 5, 6):
            inst = lemma_suite(cerny(n), label=f"c{n}")
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
        cone = cone_sequence(aut)
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
        report = suite_enumerate(3)
        assert report.ok
        assert report.checked == 729
        assert report.details["synchronizing"] == 549

    def test_bounds_suite_small(self):
        report = suite_bounds(count=6, ns=(5, 6), seed=3)
        assert report.ok, report.failures
        assert report.checked == 6
        assert report.seed == 3

    def test_lemmas_suite_small(self):
        report = suite_lemmas(count=4, ns=(5,), seed=3, exhaustive_n_max=2)
        assert report.ok, report.failures
        assert report.checked > 4
        assert report.details["total_checks"] > 0
