import random
from operator import itemgetter

import pytest

from synchro.automaton import Automaton
from synchro.errors import CapExceeded, NotAPermutation
from synchro.permgroup import (
    DEFAULT_GROUP_CAP,
    _group_order,
    cayley_diameters,
    compose,
    identity,
    inverse,
    is_transitive,
    orbit,
    permutation_of_letter,
    resolve_perm_set,
)

from oracles import group_closure

FOUR_CYCLE = (1, 2, 3, 0)
SWAP01 = (1, 0, 2)
THREE_CYCLE = (1, 2, 0)


def cumulative_power_diameters(gens, n):
    """Independent oracle: enumerate the sets of products of exactly d
    generators for d = 1, 2, ... until their union covers the group."""
    group = group_closure(gens, n)
    power = set(gens)
    union_positive = set(power)
    exact = None
    d = 1
    while True:
        if exact is None and union_positive == group:
            exact = d
            break
        power = {compose(g, h) for g in power for h in gens}
        union_positive |= power
        d += 1
        assert d <= len(group) + 1, "oracle runaway"
    with_empty = {identity(n)}
    prefix = 0
    d = 0
    while with_empty != group:
        with_empty |= {compose(g, h) for g in with_empty for h in gens}
        d += 1
        prefix = d
    return exact, prefix


def two_bfs_diameters(gens, n, cap):
    """Reference: the former two-traversal ``cayley_diameters``.  One BFS
    starts from the generators at level 1 (exact power), the other from the
    identity at level 0 (prefix-closed); returns (exact, prefix, order)."""
    gens = tuple(dict.fromkeys(gens))

    def bfs(sources, start_level):
        level = {g: start_level for g in sources}
        frontier = list(level)
        depth = start_level
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    gh = compose(g, h)
                    if gh not in level:
                        level[gh] = level[g] + 1
                        if len(level) > cap:
                            raise CapExceeded("cap", partial_count=len(level))
                        nxt.append(gh)
            frontier = nxt
            if frontier:
                depth += 1
        return depth, len(level)

    exact, order = bfs(list(gens), 1)
    prefix, _ = bfs([identity(n)], 0)
    return exact, prefix, order


def seeded_generating_sets(count, seed):
    """Generating sets on 1..6 points with 1-3 generators; some contain the
    identity or repeat a generator."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
        extra = rng.random()
        if extra < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), identity(n))
        elif extra < 0.4:
            gens.append(rng.choice(gens))
        yield gens, n


def seeded_order_sets(count, seed):
    """Generating sets on 1..7 points with 1-3 generators; a third of them
    keep two blocks of points apart (intransitive), and some contain the
    identity or repeat a generator."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 8)
        cut = rng.randrange(1, n) if n > 1 and rng.random() < 1 / 3 else n
        gens = []
        for _ in range(rng.randrange(1, 4)):
            low, high = rng.sample(range(cut), cut), rng.sample(range(cut, n), n - cut)
            gens.append(tuple(low + high))
        extra = rng.random()
        if extra < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), identity(n))
        elif extra < 0.4:
            gens.append(rng.choice(gens))
        yield gens, n


class TestBasics:
    def test_compose_applies_left_then_right(self):
        assert compose(FOUR_CYCLE, FOUR_CYCLE) == (2, 3, 0, 1)

    def test_inverse(self):
        assert compose(FOUR_CYCLE, inverse(FOUR_CYCLE)) == identity(4)

    def test_letter_permutation(self, c4):
        assert permutation_of_letter(c4, 0) == FOUR_CYCLE

    def test_deficient_letter_rejected(self, c4):
        with pytest.raises(NotAPermutation):
            permutation_of_letter(c4, 1)

    def test_single_state_identity(self):
        aut = Automaton(("a",), ((0,),))
        assert permutation_of_letter(aut, 0) == (0,)

    def test_resolve_perm_set_defaults_to_defect_zero(self, c4):
        assert resolve_perm_set(c4) == ((0,), (FOUR_CYCLE,))


class TestTransitivity:
    def test_cycle_is_transitive(self):
        assert is_transitive([FOUR_CYCLE], 4)

    def test_identity_is_not(self):
        assert not is_transitive([identity(2)], 2)

    def test_empty_on_one_point(self):
        assert is_transitive([], 1)

    def test_orbit_uses_inverses(self):
        # under (0 1 2) the inverse sends 0 straight to 2, which the forward
        # image of 0 misses; the group orbit must still contain it
        assert orbit([THREE_CYCLE], 3) == frozenset({0, 1, 2})

    def test_transitive_iff_single_closure_orbit(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(2, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 3))]
            group = group_closure(gens, n)
            orbits = {frozenset(g[q] for g in group) for q in range(n)}
            assert is_transitive(gens, n) == (len(orbits) == 1)


class TestClosure:
    def test_cyclic_group_order(self):
        assert len(group_closure([FOUR_CYCLE], 4)) == 4

    def test_trivial_group(self):
        assert group_closure([identity(3)], 3) == frozenset({identity(3)})

    def test_symmetric_group_on_three_points(self):
        group = group_closure([SWAP01, THREE_CYCLE], 3, cap=10)
        assert len(group) == 6

    def test_cap_exceeded_carries_partial_count(self):
        with pytest.raises(CapExceeded) as info:
            group_closure([SWAP01, THREE_CYCLE], 3, cap=4)
        assert info.value.partial_count == 5

    def test_closure_is_a_group(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 5)
            gens = [tuple(rng.sample(range(n), n))]
            group = group_closure(gens, n)
            assert identity(n) in group
            for g in group:
                assert inverse(g) in group
                for h in group:
                    assert compose(g, h) in group

    def test_transitive_group_order_divisible_by_n(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randrange(2, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(2)]
            if is_transitive(gens, n):
                assert len(group_closure(gens, n)) % n == 0


class TestGroupOrder:
    def test_matches_closure_and_cap_boundary(self):
        kinds = set()
        for gens, n in seeded_order_sets(400, 29):
            order = len(group_closure(gens, n))
            assert _group_order(gens, n, order) == order, (gens, n)
            if order > 1:
                with pytest.raises(CapExceeded) as info:
                    _group_order(gens, n, order - 1)
                assert info.value.partial_count == order
            kinds.add((n == 1, identity(n) in gens, len(set(gens)) < len(gens),
                       is_transitive(gens, n)))
        for i in range(4):
            assert {kind[i] for kind in kinds} == {False, True}

    def test_large_group_stops_early(self):
        # A_64 or S_64: the lower bound passes the cap after a few levels
        rng = random.Random(31)
        gens = [tuple(rng.sample(range(64), 64)) for _ in range(2)]
        with pytest.raises(CapExceeded) as info:
            _group_order(gens, 64, 20000)
        assert 20000 < info.value.partial_count <= 64 * 63 * 62


class TestCayleyDiameter:
    def test_four_cycle_needs_full_lap_for_identity(self):
        d = cayley_diameters([FOUR_CYCLE], 4, DEFAULT_GROUP_CAP)
        assert d.exact_power == 4
        assert d.prefix_closed == 3
        assert d.order == 4

    def test_identity_generator(self):
        assert cayley_diameters([identity(2)], 2, DEFAULT_GROUP_CAP).exact_power == 1

    def test_identity_padding_collapses_readings(self):
        d = cayley_diameters([SWAP01[:2] + (), identity(2)], 2, DEFAULT_GROUP_CAP)
        assert d.exact_power == 1
        assert d.prefix_closed == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            cayley_diameters([FOUR_CYCLE], 4, 2)

    def test_empty_generating_set_rejected(self):
        with pytest.raises(ValueError):
            cayley_diameters([], 3, DEFAULT_GROUP_CAP)

    def test_matches_cumulative_power_oracle(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randrange(2, 5)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 3))]
            got = cayley_diameters(gens, n, DEFAULT_GROUP_CAP)
            exact, prefix = cumulative_power_diameters(gens, n)
            assert got.exact_power == exact
            assert got.prefix_closed == prefix

    def test_minimality(self):
        # every element reachable within d letters, some element not at d-1
        for gens, n in ([(FOUR_CYCLE)], 4), ([SWAP01, THREE_CYCLE], 3):
            gens = [gens] if isinstance(gens[0], int) else list(gens)
            d = cayley_diameters(gens, n, DEFAULT_GROUP_CAP)
            group = group_closure(gens, n)
            reach = {identity(n)}
            for step in range(d.prefix_closed):
                reach |= {compose(g, h) for g in reach for h in gens}
            assert reach == group
            reach = {identity(n)}
            for step in range(d.prefix_closed - 1):
                reach |= {compose(g, h) for g in reach for h in gens}
            assert reach != group

    def test_matches_two_bfs_reference(self):
        for gens, n in seeded_generating_sets(400, 17):
            got = cayley_diameters(gens, n, DEFAULT_GROUP_CAP)
            assert (got.exact_power, got.prefix_closed, got.order) == two_bfs_diameters(
                gens, n, 10**6
            ), (gens, n)

    def test_cap_boundary_matches_reference(self):
        for gens, n in seeded_generating_sets(60, 23):
            order = two_bfs_diameters(gens, n, 10**6)[2]
            if order < 2:
                continue
            for run in (cayley_diameters, two_bfs_diameters):
                with pytest.raises(CapExceeded) as info:
                    run(gens, n, order - 1)
                assert info.value.partial_count == order
            assert cayley_diameters(gens, n, order).order == order

    def test_one_group_traversal(self, monkeypatch):
        # one BFS applies each distinct generator to each element at most once
        built, applied = [], []

        def counting(*h):
            gather = itemgetter(*h)
            built.append(h)

            def apply(g):
                applied.append(1)
                return gather(g)

            return apply

        monkeypatch.setattr("synchro.permgroup.itemgetter", counting)
        gens = [SWAP01, THREE_CYCLE, SWAP01]
        assert cayley_diameters(gens, 3, DEFAULT_GROUP_CAP).order == 6
        assert len(built) == 2
        assert len(applied) <= 6 * 2
