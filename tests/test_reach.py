"""The bitmask reachability routine and its four users.

Each user once ran its own traversal; those traversals live on here as the
references, and each user must agree with its reference on seeded random
inputs.
"""

import random
from collections import deque

from synchro.automaton import Automaton, is_strongly_connected, reach
from synchro.growth import digraph, gamma_growth, scc_wcc
from synchro.linalg import Cone, unit_difference
from synchro.permgroup import inverse, orbit, resolve_perm_set
from synchro.verify import random_st_batch


def reference_reach(succ_masks, start_mask):
    """Set-based BFS over the same successor masks."""
    n = len(succ_masks)
    seen = {v for v in range(n) if start_mask >> v & 1}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in range(n):
            if succ_masks[v] >> w & 1 and w not in seen:
                seen.add(w)
                queue.append(w)
    return sum(1 << v for v in seen)


def reference_is_strongly_connected(aut):
    """The former implementation: DFS from state 0 forward and backward."""
    n = aut.n
    if n == 1:
        return True
    fwd = [set() for _ in range(n)]
    back = [set() for _ in range(n)]
    for row in aut.table:
        for q, img in enumerate(row):
            fwd[q].add(img)
            back[img].add(q)
    for adj in (fwd, back):
        seen = {0}
        stack = [0]
        while stack:
            q = stack.pop()
            for r in adj[q]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        if len(seen) != n:
            return False
    return True


def reference_orbit(perms, n):
    """The former implementation: DFS from point 0 under the generators and
    their inverses."""
    gens = []
    for p in perms:
        gens.append(p)
        gens.append(inverse(p))
    seen = {0}
    stack = [0]
    while stack:
        q = stack.pop()
        for g in gens:
            r = g[q]
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def reference_reachability_membership(target, arcs):
    """The former implementation: BFS from t over an adjacency dict."""
    s, t = target
    adj = {}
    for tail, head in arcs:
        adj.setdefault(tail, []).append(head)
    seen = {t}
    queue = deque([t])
    while queue:
        q = queue.popleft()
        if q == s:
            return True
        for r in adj.get(q, ()):
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return s in seen


def reference_weak_components(g):
    """The former implementation: union-find over the arcs."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in g.arcs:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
    groups = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), set()).add(v)
    return frozenset(frozenset(group) for group in groups.values())


def random_digraph(rng, n):
    arcs = set()
    for _ in range(rng.randrange(0, 2 * n + 1)):
        p, q = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if p != q:
            arcs.add((p, q))
    return digraph(n, arcs)


def test_reach_matches_bfs():
    rng = random.Random(71)
    for _ in range(400):
        n = rng.randrange(1, 13)
        density = rng.random()
        succ = [
            sum(1 << w for w in range(n) if rng.random() < density / 2) for _ in range(n)
        ]
        start = rng.randrange(1 << n)
        assert reach(succ, start) == reference_reach(succ, start)


def test_reach_of_nothing_is_nothing():
    assert reach([0b10, 0b01], 0) == 0


def test_strongly_connected_matches_reference():
    rng = random.Random(72)
    for _ in range(400):
        n = rng.randrange(1, 8)
        k = rng.randrange(1, 4)
        table = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
        aut = Automaton(tuple("abc"[:k]), table)
        assert is_strongly_connected(aut) == reference_is_strongly_connected(aut)


def test_orbit_matches_reference():
    rng = random.Random(73)
    for _ in range(400):
        n = rng.randrange(1, 9)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(0, 4))]
        assert orbit(perms, n) == reference_orbit(perms, n)


def test_reachability_membership_matches_reference():
    # every target asks the same cone, so each answer also reads closures
    # that the cone cached for earlier targets
    rng = random.Random(74)
    answers = set()
    for _ in range(400):
        n = rng.randrange(2, 9)
        arcs = [
            (a, b)
            for a, b in ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 2 * n)))
            if a != b
        ]
        cone = Cone([unit_difference(head + 1, tail + 1, n) for tail, head in arcs], n)
        for _ in range(n):
            s, t = target = tuple(rng.sample(range(n), 2))
            expected = reference_reachability_membership(target, arcs)
            assert (unit_difference(s + 1, t + 1, n) in cone) == expected, (arcs, target)
            answers.add(expected)
    assert answers == {True, False}


def test_scc_wcc_matches_reference():
    rng = random.Random(75)
    graphs = [random_digraph(rng, rng.randrange(1, 10)) for _ in range(400)]
    for _, aut in random_st_batch(20, (5, 6, 7, 8), 76):
        graphs.extend(gamma_growth(aut, resolve_perm_set(aut)[1]).levels)
    for g in graphs:
        deco = scc_wcc(g)
        assert deco.wcc_partition == reference_weak_components(g)
        assert sorted(v for w in deco.wccs for v in w) == list(range(1, g.n + 1))
        index = {v: i for i, scc in enumerate(deco.sccs) for v in scc}
        for p, q in g.arcs:
            assert index[p] <= index[q]  # sources first
        for i in range(len(deco.sccs)):
            assert deco.scc_is_sink[i] == all(
                index[q] == i for p, q in g.arcs if index[p] == i
            )
            assert deco.scc_is_source[i] == all(
                index[p] == i for p, q in g.arcs if index[q] == i
            )
