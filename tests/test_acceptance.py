"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines stream.
All tolerances are exact integer comparisons; the randomized sweeps use
pinned seeds so every run checks the same instances.
"""

import random
import time
from collections import deque

from synchro.automaton import Automaton, reset_threshold_exact, word_image_mask
from synchro.bounds import bound_main
from synchro.cones import cone_sequence
from synchro.generate import cerny
from synchro.growth import gamma_growth
from synchro.linalg import _cone_lp_feasible, span_basis, unit_difference
from synchro.permgroup import resolve_perm_set
from synchro.verify import random_st_batch, suite_bounds, suite_enumerate, suite_lemmas

from oracles import escape_exists, preimage_matrix, rref_basis, shortest_escape

SEED = 20260808


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_cerny_family_reset_thresholds():
    start = time.time()
    failures = []
    for n in range(2, 9):
        aut = cerny(n)
        rt, witness = reset_threshold_exact(aut)
        if rt != (n - 1) ** 2:
            failures.append(f"n={n}: rt {rt} != {(n - 1) ** 2}")
        if word_image_mask(aut, aut.full_mask, witness).bit_count() != 1:
            failures.append(f"n={n}: witness fails to reset")
    elapsed = time.time() - start
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(
        "cerny_family_reset_thresholds",
        not failures,
        failures[0] if failures else f"n=2..8 exact in {elapsed:.1f}s",
    )


def test_criterion_2_family_bound_tightness():
    failures = []
    for n in range(3, 9):
        aut = cerny(n)
        cone = cone_sequence(aut, *resolve_perm_set(aut, (0,)))
        if cone.span_dim != n - 1:
            failures.append(f"n={n}: dim {cone.span_dim} != {n - 1}")
        if cone.trans_len_k != n - 1:
            failures.append(f"n={n}: transient {cone.trans_len_k} != {n - 1}")
        value = bound_main(cone)
        if value != (n - 1) ** 2:
            failures.append(f"n={n}: bound {value} != {(n - 1) ** 2}")
    report(
        "family_bound_tightness",
        not failures,
        failures[0] if failures else "bound equals (n-1)^2 for n=3..8",
    )


def test_criterion_3_exhaustive_small_conjecture_check():
    start = time.time()
    failures = []
    counts = {}
    for n in (3, 4):
        suite = suite_enumerate(n, 2)
        counts[n] = (suite.checked, suite.details["synchronizing"])
        failures.extend(suite.failures)
    elapsed = time.time() - start
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.1f}s exceeds 600s")
    detail = (
        f"n=3: {counts[3][1]}/{counts[3][0]} synchronizing, "
        f"n=4: {counts[4][1]}/{counts[4][0]}, all within square bound, "
        f"{elapsed:.1f}s"
    )
    report(
        "exhaustive_small_conjecture_check",
        not failures,
        failures[0] if failures else detail,
    )


def test_criterion_4_random_st_bound_soundness():
    suite = suite_bounds(count=200, ns=(5, 6, 7, 8, 9, 10), seed=SEED)
    report(
        "random_st_bound_soundness",
        suite.ok and suite.checked == 200,
        suite.failures[0] if suite.failures else "200 instances, zero violations",
    )


def test_criterion_5_lemma_property_suite():
    suite = suite_lemmas(
        count=200, ns=(5, 6, 7, 8, 9, 10), seed=SEED, exhaustive_n_max=4
    )
    detail = (
        f"{suite.checked} instances, {suite.details['total_checks']} checks"
        if suite.ok
        else suite.failures[0]
    )
    report("lemma_property_suite", suite.ok, detail)


def _reachable(arcs, src, dst):
    adj = {}
    for a, b in arcs:
        adj.setdefault(a, []).append(b)
    seen = {src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return dst in seen


def test_criterion_6_cone_reachability_cross_check():
    rng = random.Random(SEED)
    failures = []
    for trial in range(1000):
        n = rng.randrange(2, 11)
        max_arcs = min(2 * n, n * (n - 1))
        arc_count = rng.randrange(0, max_arcs + 1)
        arcs = set()
        while len(arcs) < arc_count:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                arcs.add((a, b))
        gens = [unit_difference(b + 1, a + 1, n) for a, b in arcs]
        p, q = rng.sample(range(n), 2)
        target = unit_difference(q + 1, p + 1, n)
        lp = _cone_lp_feasible(target, gens)
        expected = _reachable(arcs, p, q)
        if lp != expected:
            failures.append(f"trial {trial}: lp {lp} vs reachability {expected}")
            break
    # incidence-rank identity on every level of generated growth traces
    levels_checked = 0
    for label, aut in random_st_batch(40, (5, 6, 7, 8), SEED + 1):
        trace = gamma_growth(aut, resolve_perm_set(aut)[1])
        for level, deco in zip(trace.levels, trace.decompositions):
            vectors = [unit_difference(p, q, aut.n) for p, q in level.arcs]
            rank = len(span_basis(vectors, aut.n))
            levels_checked += 1
            if rank != aut.n - len(deco.wccs):
                failures.append(f"{label}: rank {rank} vs {aut.n - len(deco.wccs)}")
    report(
        "cone_reachability_cross_check",
        not failures,
        failures[0]
        if failures
        else f"1000 membership queries, {levels_checked} rank identities",
    )


def test_criterion_7_subspace_escape_dimension_bound():
    rng = random.Random(SEED)
    failures = []
    checked = 0
    while checked < 500 and not failures:
        n = rng.randrange(3, 7)
        rows = tuple(
            tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)
        )
        aut = Automaton(("a", "b"), rows)
        mats = [preimage_matrix(aut, (a,)) for a in range(2)]
        span_vectors = [
            tuple(rng.randrange(-2, 3) for _ in range(n))
            for _ in range(rng.randrange(1, n))
        ]
        basis = rref_basis(span_vectors, n)
        if basis.dim == 0 or basis.dim == n:
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
        depth = shortest_escape(mats, basis, x, basis.dim)
        if depth is None:
            failures.append(
                f"pair {checked}: no escape within dim {basis.dim} (n={n})"
            )
    report(
        "subspace_escape_dimension_bound",
        not failures and checked == 500,
        failures[0] if failures else "500 pairs, shortest escape within dim",
    )
