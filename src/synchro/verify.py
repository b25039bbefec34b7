"""Executable verification suites.

Every statement the synthesis machinery relies on is a proved fact, so these
suites treat any failure as an implementation bug and report it with a
witness.  ``lemma_suite`` audits one automaton; the ``suite_*`` functions
sweep generated or enumerated instance batches and aggregate failures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import add
from typing import Sequence

from .automaton import (
    Automaton,
    is_strongly_connected,
    is_synchronizing,
    reset_threshold_exact,
    states_of,
    subset_table,
    word_image_mask,
    word_preimage_mask,
)
from .bounds import bound_defect1, bound_main, bound_rystsov, synthesize_reset_word
from .cones import (
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
ESCAPE, EXTENSION, TWO_N = SWEEP_CHECKS = (
    "escape_length_within_codimension",
    "extension_length_within_cone_bound",
    "extension_within_2n_minus_3",
)

# The checks that compare the cone with the growth digraph, in the order they
# run; they need a defect-1 letter and no letter of defect 2 or more.
BRIDGE, LIMIT_DIM, DIGRAPH_BOUND = DIGRAPH_CHECKS = (
    "cone_digraph_bridge",
    "limit_dim_matches_components",
    "k_transient_within_digraph_bound",
)


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

def lemma_suite(aut: Automaton) -> LemmaReport:
    """Audit one automaton, with every defect-0 letter in the permutation set,
    against every executable lemma that applies.

    Subset-quantified checks run exhaustively while 2^n is at most
    ``EXHAUSTIVE_SUBSETS`` and on 2048 seeded random subsets beyond it; the
    growth identity is checked on every word of length at most 3.  When every
    letter has defect at most one and n >= 3, ``extension_within_2n_minus_3``
    checks that every nonempty proper subset extends within 2n - 3 letters,
    the step behind the bound 2n^2 - 7n + 7 = 1 + (n - 2)(2n - 3).  Checks
    whose hypotheses do not hold for this instance report n/a, and so do the
    subset-sweep checks that a failure stopped before the last subset.
    """
    n = aut.n
    k_letters = len(aut.letters)
    size = 1 << n
    exhaustive = size <= EXHAUSTIVE_SUBSETS
    sync = is_synchronizing(aut)
    connected = is_strongly_connected(aut)
    defects = aut.letter_defects
    has_deficient = any(d > 0 for d in defects)
    defect_at_most_1 = all(d <= 1 for d in defects)
    has_defect_1 = any(d == 1 for d in defects)
    report = LemmaReport()

    rng = random.Random(0x5EED ^ (n << 16) ^ k_letters)
    if exhaustive:
        masks = range(size)
        pre_tabs = aut.preimage_mask_table
        pc = [m.bit_count() for m in range(size)]
    else:
        masks = [rng.randrange(size) for _ in range(2048)]
        pre_tabs = None
        pc = None

    # growth identity |S.w^-1| - |S| = <char(S), k_w> on all short words
    identity_ok = True
    identity_detail = ""
    words = [
        word
        for length in range(4)
        for word in itertools.product(range(k_letters), repeat=length)
    ]
    # preimages[w][mask] is the preimage of mask under w, one lookup from
    # that of w's suffix; words come shortest first, so the suffix is there
    # (the longest words are suffixes of nothing and are not kept)
    preimages = {(): range(size)}
    for word in words:
        vec = k_vector(aut, word).vector
        if exhaustive:
            sums = subset_table(vec, add)
            arr = preimages.get(word)
            if arr is None:
                arr = list(map(pre_tabs[word[0]].__getitem__, preimages[word[1:]]))
                if len(word) < 3:
                    preimages[word] = arr
            for mask in masks:
                if pc[arr[mask]] - pc[mask] != sums[mask]:
                    identity_ok = False
                    identity_detail = f"word {word}, subset mask {mask}"
                    break
        else:
            support = support_masks(vec)
            for mask in masks:
                got = word_preimage_mask(aut, mask, word).bit_count() - mask.bit_count()
                if got != support_sum(support, mask):
                    identity_ok = False
                    identity_detail = f"word {word}, subset mask {mask}"
                    break
        if not identity_ok:
            break
    report.add("preimage_growth_identity", identity_ok, identity_detail)

    if not has_deficient:
        report.add_na("limit_generators_sum_zero", "no deficient letter")
        return report

    cone = cone_sequence(aut, *resolve_perm_set(aut))
    transitive = cone.is_subspace
    vectors = cone.limit_vectors
    report.add("limit_generators_sum_zero", all(sum(v) == 0 for v in vectors), "")
    report.add(
        "t_transient_at_least_k_transient",
        cone.trans_len_t >= cone.trans_len_k,
        f"T {cone.trans_len_t} vs K {cone.trans_len_k}",
    )

    # stabilization certificate: one-step equality at the reported index,
    # strict growth just before it
    j = cone.trans_len_k
    tier_j, tier_next = cone.tier(j), cone.tier(j + 1)
    cone_j = Cone(tier_j, n)
    cert_ok = all(v in cone_j for v in tier_next - tier_j)
    if cert_ok and j > 0:
        tier_prev = cone.tier(j - 1)
        cone_prev = Cone(tier_prev, n)
        cert_ok = any(v not in cone_prev for v in tier_j - tier_prev)
    report.add("k_transient_certificate", cert_ok, f"index {j}")

    if transitive:
        limit_cone = Cone(vectors, n)
        report.add(
            "negation_closure_of_limit_cone",
            all(tuple(-x for x in v) in limit_cone for v in vectors),
            "",
        )
    else:
        report.add_na("negation_closure_of_limit_cone", "permutation set not transitive")

    # polar membership forces letter preimages to keep the cardinality when
    # the limit cone is a subspace (generators negation-closed); without
    # that symmetry only the non-increasing direction holds.  Escape distance
    # 0 is exactly "outside the polar cone".
    if exhaustive:
        dist, step = ell_all(aut, vectors)
        stable_ok = True
        stable_detail = ""
        for m in range(size):
            if dist[m] == 0:
                continue
            for tab in pre_tabs:
                delta = pc[tab[m]] - pc[m]
                if delta > 0 or (transitive and delta != 0):
                    stable_ok = False
                    stable_detail = f"mask {m}"
                    break
            if not stable_ok:
                break
        report.add("polar_members_have_stable_preimages", stable_ok, stable_detail)
    else:
        report.add_na(
            "polar_members_have_stable_preimages", "state set too large for exhaustive sweep"
        )

    if not defect_at_most_1:
        two_n_na = "letters of defect 2 or more present"
    elif n < 3:
        two_n_na = "2n - 3 needs at least 3 states"
    else:
        two_n_na = None
    if sync and connected and transitive and exhaustive:
        # one sweep over the nonempty proper subsets; an escape or extension
        # failure ends it, so the checks that have not failed by then did not
        # run to the end and report n/a
        bound_codim = n - 1 - cone.span_dim
        failed: dict[str, str] = {}
        stopped = ""
        for mask in range(1, size - 1):
            failure = None
            if dist[mask] is None or dist[mask] > bound_codim:
                failure = ESCAPE, f"escape {dist[mask]}"
            else:
                witness, escaped_mask = escape_word_from_steps(step, mask)
                word = cone.extension_word(escaped_mask, witness)
                if word is None:
                    failure = EXTENSION, "no extending word"
                elif len(word) > cone.trans_len_k + dist[mask] + 1:
                    failure = EXTENSION, f"length {len(word)}"
                elif word_preimage_mask(aut, mask, word).bit_count() <= mask.bit_count():
                    failure = EXTENSION, "no growth"
                elif two_n_na is None and len(word) > 2 * n - 3 and TWO_N not in failed:
                    failed[TWO_N] = f"subset {sorted(states_of(mask))}: length {len(word)}"
            if failure is not None:
                name, why = failure
                subset = sorted(states_of(mask))
                failed[name] = f"subset {subset}: {why}"
                stopped = f"not run past subset {subset}: {name} failed there"
                break
        for name in SWEEP_CHECKS:
            if name == TWO_N and two_n_na is not None:
                report.add_na(name, two_n_na)
            elif name in failed:
                report.add(name, False, failed[name])
            elif stopped:
                report.add_na(name, stopped)
            else:
                report.add(name, True, "")
    else:
        why = (
            "needs synchronizing, strongly connected, transitive, exhaustive"
            f" (sync={sync}, connected={connected}, transitive={transitive})"
        )
        for name in SWEEP_CHECKS:
            report.add_na(name, why)

    if has_defect_1:
        trace = gamma_growth(aut, cone.perms)
        report.checks.extend(verify_growth_lemmas(trace, transitive).checks)
    if not (has_defect_1 and defect_at_most_1):
        why = "letters of defect 2 or more present" if has_defect_1 else "no defect-1 letter"
        for name in DIGRAPH_CHECKS:
            report.add_na(name, why)
        return report

    bridge_ok = len(cone.level_ends) == len(trace.levels)
    bridge_detail = ""
    if bridge_ok:
        for i, level in enumerate(trace.levels):
            arcs_as_vectors = {unit_difference(q, p, n) for (p, q) in level.arcs}
            if cone.tier(i) != arcs_as_vectors:
                bridge_ok = False
                bridge_detail = f"level {i}"
                break
    else:
        bridge_detail = f"tier count {len(cone.level_ends)} vs levels {len(trace.levels)}"
    report.add(BRIDGE, bridge_ok, bridge_detail)
    report.add(
        LIMIT_DIM,
        cone.span_dim == n - len(trace.limit_decomposition.wccs),
        f"dim {cone.span_dim}, weak components {len(trace.limit_decomposition.wccs)}",
    )
    if transitive:
        bound39 = translen_k_bound(aut, cone)
        report.add(
            DIGRAPH_BOUND,
            cone.trans_len_k <= bound39,
            f"transient {cone.trans_len_k}, bound {bound39}",
        )
    else:
        report.add_na(DIGRAPH_BOUND, "not transitive")
    return report


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
