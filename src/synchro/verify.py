"""Executable verification suites.

Every statement the synthesis machinery relies on is a proved fact, so these
suites treat any failure as an implementation bug and report it with a
witness.  ``lemma_suite`` audits one automaton; the ``suite_*`` functions
sweep generated or enumerated instance batches and aggregate failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import add
from typing import Sequence

from .automaton import (
    Automaton,
    is_synchronizing,
    reset_threshold_exact,
    states_of,
    subset_table,
    word_image_mask,
    word_preimage_mask,
)
from .bounds import bound_defect1, bound_main, bound_rystsov, synthesize_reset_word
from .cones import (
    ConeReport,
    cone_sequence,
    ell_all,
    escape_word_from_steps,
    k_vector,
    support_masks,
    support_sum,
)
from .errors import CapExceeded, NotSynchronizing
from .generate import cerny, enumerate_automata, exhaustive_st_instances, random_st
from .growth import (
    GROWTH_CHECKS,
    GrowthTrace,
    LemmaReport,
    gamma_growth,
    translen_k_bound,
    verify_growth_lemmas,
)
from .linalg import Cone, unit_difference
from .permgroup import resolve_perm_set


# The lemma audit enumerates every subset while 2^n is at most this, and
# samples beyond it.
EXHAUSTIVE_SUBSETS = 1 << 14

# The checks of the lemma audit's subset sweep, in the order they run on each
# subset.
ESCAPE = "escape_length_within_codimension"
EXTENSION = "extension_length_within_cone_bound"
TWO_N = "extension_within_2n_minus_3"


@dataclass
class SuiteReport:
    suite: str
    seed: int | None
    params: dict
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# per-instance lemma audit

class _Audit:
    """The facts the lemma checks read about one automaton, each computed
    once, on first use, and the checks longer than one line.

    ``unmet`` maps each hypothesis the automaton does not meet to the reason
    a check that names it reads n/a.  Strong connectivity is no hypothesis:
    a transitive permutation set already makes the automaton strongly
    connected.
    """

    def __init__(self, aut: Automaton):
        self.aut = aut
        self.n = aut.n
        self.size = 1 << aut.n
        self.exhaustive = self.size <= EXHAUSTIVE_SUBSETS
        defects = aut.letter_defects
        deficient = any(defects)
        at_most_1 = all(d <= 1 for d in defects)
        hypotheses = {
            "synchronizing": (is_synchronizing(aut), "automaton not synchronizing"),
            "exhaustive": (self.exhaustive, "state set too large for exhaustive sweep"),
            "defect_at_most_1": (at_most_1, "letters of defect 2 or more present"),
            "three_states": (aut.n >= 3, "2n - 3 needs at least 3 states"),
            "defect_1": (1 in defects, "no defect-1 letter"),
            "deficient": (deficient, "no deficient letter"),
            # named only after "deficient": the cone needs a deficient letter
            "transitive": (deficient and self.cone.is_subspace, "permutation set not transitive"),
        }
        self.unmet = {h: why for h, (holds, why) in hypotheses.items() if not holds}

    @cached_property
    def cone(self) -> ConeReport:
        return cone_sequence(self.aut, *resolve_perm_set(self.aut))

    @cached_property
    def popcounts(self) -> list[int]:
        return [m.bit_count() for m in range(self.size)]

    @cached_property
    def escape(self) -> tuple[list, list]:
        """``ell_all``'s escape distances and steps over every subset mask."""
        return ell_all(self.aut, self.cone.limit_vectors)

    @cached_property
    def trace(self) -> GrowthTrace:
        return gamma_growth(self.aut, self.cone.perms)

    @cached_property
    def growth(self) -> dict[str, tuple[bool | None, str]]:
        """The ``(ok, detail)`` of each growth-structure check, by name."""
        report = verify_growth_lemmas(self.trace, self.cone.is_subspace)
        return {c.name: ({"pass": True, "fail": False}.get(c.status), c.detail)
                for c in report.checks}

    @cached_property
    def sweep(self) -> dict[str, tuple[bool | None, str]]:
        """The ``(ok, detail)`` of each sweep check, from one pass over the
        nonempty proper subsets.

        An escape or extension failure ends the pass, so the sweep checks
        that have not failed by then read n/a.  A 2n - 3 failure is recorded
        and the pass goes on.
        """
        aut, n, cone = self.aut, self.n, self.cone
        dist, step = self.escape
        bound_codim = n - 1 - cone.span_dim
        failed: dict[str, str] = {}
        stopped = ""
        for mask in range(1, self.size - 1):
            if dist[mask] is None or dist[mask] > bound_codim:
                name, why = ESCAPE, f"escape {dist[mask]}"
            else:
                witness, escaped_mask = escape_word_from_steps(step, mask)
                word = cone.extension_word(escaped_mask, witness)
                if word is None:
                    name, why = EXTENSION, "no extending word"
                elif len(word) > cone.trans_len_k + dist[mask] + 1:
                    name, why = EXTENSION, f"length {len(word)}"
                elif word_preimage_mask(aut, mask, word).bit_count() <= mask.bit_count():
                    name, why = EXTENSION, "no growth"
                else:
                    if len(word) > 2 * n - 3 and TWO_N not in failed:
                        failed[TWO_N] = f"subset {sorted(states_of(mask))}: length {len(word)}"
                    continue
            subset = sorted(states_of(mask))
            failed[name] = f"subset {subset}: {why}"
            stopped = f"not run past subset {subset}: {name} failed there"
            break
        rest = (None, stopped) if stopped else (True, "")
        return {name: (False, failed[name]) if name in failed else rest
                for name in (ESCAPE, EXTENSION, TWO_N)}

    def growth_identity(self) -> tuple[bool, str]:
        # |S.w^-1| - |S| = <char(S), k_w> on every word of length at most 3
        aut, size = self.aut, self.size
        k_letters = len(aut.letters)
        words = [w for length in range(4) for w in product(range(k_letters), repeat=length)]
        if self.exhaustive:
            masks = range(size)
            pre_tabs = aut.preimage_mask_table
            pc = self.popcounts
        else:
            rng = random.Random(0x5EED ^ (self.n << 16) ^ k_letters)
            masks = [rng.randrange(size) for _ in range(2048)]
        # preimages[w][mask] is the preimage of mask under w, one lookup from
        # that of w's suffix; words come shortest first, so the suffix is there
        # (the longest words are suffixes of nothing and are not kept)
        preimages = {(): range(size)}
        for word in words:
            vec = k_vector(aut, word).vector
            if self.exhaustive:
                sums = subset_table(vec, add)
                arr = preimages.get(word)
                if arr is None:
                    arr = list(map(pre_tabs[word[0]].__getitem__, preimages[word[1:]]))
                    if len(word) < 3:
                        preimages[word] = arr
                for mask in masks:
                    if pc[arr[mask]] - pc[mask] != sums[mask]:
                        return False, f"word {word}, subset mask {mask}"
            else:
                support = support_masks(vec)
                for mask in masks:
                    got = word_preimage_mask(aut, mask, word).bit_count() - mask.bit_count()
                    if got != support_sum(support, mask):
                        return False, f"word {word}, subset mask {mask}"
        return True, ""

    def k_certificate(self) -> tuple[bool, str]:
        # one-step equality at the reported index, strict growth just before it
        cone, j = self.cone, self.cone.trans_len_k
        tier_j, tier_next = cone.tier(j), cone.tier(j + 1)
        cone_j = Cone(tier_j, self.n)
        ok = all(v in cone_j for v in tier_next - tier_j)
        if ok and j > 0:
            tier_prev = cone.tier(j - 1)
            cone_prev = Cone(tier_prev, self.n)
            ok = any(v not in cone_prev for v in tier_j - tier_prev)
        return ok, f"index {j}"

    def negation_closure(self) -> tuple[bool, str]:
        limit_cone = Cone(self.cone.limit_vectors, self.n)
        return all(tuple(-x for x in v) in limit_cone for v in self.cone.limit_vectors), ""

    def stable_preimages(self) -> tuple[bool, str]:
        # polar membership forces letter preimages to keep the cardinality
        # when the limit cone is a subspace (generators negation-closed);
        # without that symmetry only the non-increasing direction holds.
        # Escape distance 0 is exactly "outside the polar cone".
        dist, pc, transitive = self.escape[0], self.popcounts, self.cone.is_subspace
        for m in range(self.size):
            if dist[m] == 0:
                continue
            for tab in self.aut.preimage_mask_table:
                delta = pc[tab[m]] - pc[m]
                if delta > 0 or (transitive and delta != 0):
                    return False, f"mask {m}"
        return True, ""

    def bridge(self) -> tuple[bool, str]:
        cone, levels = self.cone, self.trace.levels
        if len(cone.level_ends) != len(levels):
            return False, f"tier count {len(cone.level_ends)} vs levels {len(levels)}"
        for i, level in enumerate(levels):
            if cone.tier(i) != {unit_difference(q, p, self.n) for (p, q) in level.arcs}:
                return False, f"level {i}"
        return True, ""

    def limit_dim(self) -> tuple[bool, str]:
        dim, wccs = self.cone.span_dim, len(self.trace.limit_decomposition.wccs)
        return dim == self.n - wccs, f"dim {dim}, weak components {wccs}"

    def digraph_bound(self) -> tuple[bool, str]:
        k, bound = self.cone.trans_len_k, translen_k_bound(self.aut, self.cone)
        return k <= bound, f"transient {k}, bound {bound}"


# hypotheses that several checks name
DEFICIENT = ("deficient",)
SWEEP = DEFICIENT + ("transitive", "synchronizing", "exhaustive")
DIGRAPH = DEFICIENT + ("defect_1", "defect_at_most_1")

# The lemma audit in report order: each check's name, the hypotheses it
# names, and the check, which returns (ok, detail) with ok None for n/a.
# Every check after the first reads the cone, so it needs a deficient letter.
LEMMA_CHECKS = (
    ("preimage_growth_identity", (), _Audit.growth_identity),
    ("limit_generators_sum_zero", DEFICIENT,
     lambda a: (all(sum(v) == 0 for v in a.cone.limit_vectors), "")),
    ("t_transient_at_least_k_transient", DEFICIENT,
     lambda a: (a.cone.trans_len_t >= a.cone.trans_len_k,
                f"T {a.cone.trans_len_t} vs K {a.cone.trans_len_k}")),
    ("k_transient_certificate", DEFICIENT, _Audit.k_certificate),
    ("negation_closure_of_limit_cone", DEFICIENT + ("transitive",), _Audit.negation_closure),
    ("polar_members_have_stable_preimages", DEFICIENT + ("exhaustive",), _Audit.stable_preimages),
    (ESCAPE, SWEEP, lambda a: a.sweep[ESCAPE]),
    (EXTENSION, SWEEP, lambda a: a.sweep[EXTENSION]),
    (TWO_N, SWEEP + ("defect_at_most_1", "three_states"), lambda a: a.sweep[TWO_N]),
    *((name, DEFICIENT + ("defect_1",), lambda a, name=name: a.growth[name])
      for name, _, _ in GROWTH_CHECKS),
    ("cone_digraph_bridge", DIGRAPH, _Audit.bridge),
    ("limit_dim_matches_components", DIGRAPH, _Audit.limit_dim),
    ("k_transient_within_digraph_bound", DIGRAPH + ("transitive",), _Audit.digraph_bound),
)


def lemma_suite(aut: Automaton) -> LemmaReport:
    """Audit one automaton, with every defect-0 letter in the permutation set,
    against the executable lemmas of ``LEMMA_CHECKS``, in that order.

    Every report lists the same 19 checks in the same order.  A check reads
    n/a with the reason of the first of its hypotheses the automaton does
    not meet.  Subset-quantified checks run exhaustively while 2^n is at
    most ``EXHAUSTIVE_SUBSETS`` and on 2048 seeded random subsets beyond it;
    the growth identity is checked on every word of length at most 3.  When
    every letter has defect at most one and n >= 3,
    ``extension_within_2n_minus_3`` checks that every nonempty proper subset
    extends within 2n - 3 letters, the step behind the bound
    2n^2 - 7n + 7 = 1 + (n - 2)(2n - 3).
    """
    audit = _Audit(aut)
    return LemmaReport().run(LEMMA_CHECKS, audit, audit.unmet)


# ---------------------------------------------------------------------------
# instance batches

def random_st_batch(
    count: int, ns: Sequence[int], seed: int
) -> list[tuple[str, Automaton]]:
    """Deterministic batch of random ST instances, every letter defect <= 1."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = ns[i % len(ns)]
        n_perm = rng.choice((1, 2))
        n_d1 = rng.choice((1, 2))
        inst_seed = rng.randrange(1 << 30)
        aut = random_st(n, n_perm, n_d1, inst_seed)
        out.append((f"st-n{n}-p{n_perm}-d{n_d1}-s{inst_seed}", aut))
    return out


# ---------------------------------------------------------------------------
# suites

def suite_cerny(n_max: int) -> SuiteReport:
    """Exact thresholds and bound tightness across the cycle-plus-merge family."""
    if n_max < 2:
        raise ValueError("need at least 2 states")
    report = SuiteReport(suite="cerny", seed=None, params={"n_max": n_max})
    fails = report.failures
    sizes = list(range(2, n_max + 1))
    for n in sizes:
        report.checked += 1
        aut = cerny(n)
        square = (n - 1) ** 2
        rt, witness = reset_threshold_exact(aut)
        if rt != square:
            fails.append(f"n={n}: reset threshold {rt} != {square}")
        if word_image_mask(aut, aut.full_mask, witness).bit_count() != 1:
            fails.append(f"n={n}: witness does not reset")
        tight = bound_main(cone_sequence(aut, *resolve_perm_set(aut, (0,))))
        if tight != square:
            fails.append(f"n={n}: dimension bound {tight} != {square}")
    report.details["family_sizes"] = sizes
    return report


def suite_enumerate(n: int, letters: int) -> SuiteReport:
    """Exhaustive square-bound sweep over all n-state tables."""
    report = SuiteReport(
        suite="enumerate", seed=None, params={"n": n, "letters": letters}
    )
    square = (n - 1) ** 2
    synchronizing = 0
    for aut in enumerate_automata(n, letters):
        report.checked += 1
        try:
            rt, _ = reset_threshold_exact(aut)
        except NotSynchronizing:
            continue
        synchronizing += 1
        if rt > square:
            report.failures.append(
                f"table {aut.rows()}: reset threshold {rt} > {square}"
            )
    report.details["synchronizing"] = synchronizing
    report.details["square_bound"] = square
    return report


def suite_bounds(count: int, ns: Sequence[int], seed: int) -> SuiteReport:
    """Soundness chain on random ST instances:
    exact threshold <= synthesized length <= dimension bound <= diameter bound,
    plus the defect-one quadratic bound.  The diameter bound is skipped for
    a group of order over 20000."""
    group_cap = 20000
    report = SuiteReport(
        suite="bounds",
        seed=seed,
        params={"count": count, "ns": list(ns), "group_cap": group_cap},
    )
    instances = random_st_batch(count, ns, seed)
    fails = report.failures
    for label, aut in instances:
        report.checked += 1
        rt, _ = reset_threshold_exact(aut)
        result = synthesize_reset_word(aut, *resolve_perm_set(aut))
        if not result.verified:
            fails.append(f"{label}: synthesized word not verified")
        if rt > result.length:
            fails.append(f"{label}: rt {rt} > synthesized {result.length}")
        if result.length > result.bound:
            fails.append(f"{label}: synthesized {result.length} > bound {result.bound}")
        try:
            ryst = bound_rystsov(result.cone, group_cap)
        except CapExceeded:
            ryst = None
        if ryst is not None:
            if result.bound > ryst:
                fails.append(f"{label}: dimension bound {result.bound} > diameter bound {ryst}")
            if rt > ryst:
                fails.append(f"{label}: rt {rt} > diameter bound {ryst}")
        d1 = bound_defect1(aut)
        if result.length > d1:
            fails.append(f"{label}: synthesized {result.length} > defect-1 bound {d1}")
    report.details["instances"] = [label for label, _ in instances]
    return report


def suite_lemmas(
    count: int, ns: Sequence[int], seed: int, *, exhaustive_n_max: int = 0
) -> SuiteReport:
    """Per-instance lemma audit over random ST instances, optionally joined by
    every exhaustively enumerated 2-letter ST instance up to a given size."""
    report = SuiteReport(
        suite="lemmas",
        seed=seed,
        params={"count": count, "ns": list(ns), "exhaustive_n_max": exhaustive_n_max},
    )
    instances = random_st_batch(count, ns, seed)
    for n in range(2, exhaustive_n_max + 1):
        for idx, aut in enumerate(exhaustive_st_instances(n)):
            instances.append((f"exhaustive-n{n}-{idx}", aut))
    na_counts: dict[str, int] = {}
    check_count = 0
    for label, aut in instances:
        report.checked += 1
        for c in lemma_suite(aut).checks:
            check_count += 1
            if c.status == "fail":
                report.failures.append(f"{label}: {c.name} failed ({c.detail})")
            elif c.status == "n/a":
                na_counts[c.name] = na_counts.get(c.name, 0) + 1
    report.details["total_checks"] = check_count
    report.details["not_applicable"] = na_counts
    return report
