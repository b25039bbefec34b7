"""Loop-free digraphs on the state set, excluded/duplicate states of
defect-one words, and the arc-growth sequence under permutation shifts.

Each defect-one word w misses exactly one state from its image (the excluded
state) and doubles exactly one preimage fiber (the duplicate state).  The
growth sequence seeds one arc (excluded, duplicate) per defect-one letter and
closes level by level under the permutation letters; its component structure
bounds the cone transient length computed in :mod:`synchro.cones`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .automaton import Automaton, Word, letters_of_defect, reach, states_of
from .cones import ConeReport, k_vector
from .errors import (
    NoDefectOneLetters,
    NotTransitive,
    UnsupportedAlphabet,
    WrongDefect,
)
from .linalg import RowEchelon, unit_difference
from .permgroup import Perm

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Loop-free digraph on vertices 1..n with a set of ordered arcs."""

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self):
        for p, q in self.arcs:
            if p == q:
                raise ValueError(f"loop arc ({p},{p}) not allowed")
            if not (1 <= p <= self.n and 1 <= q <= self.n):
                raise ValueError(f"arc ({p},{q}) outside 1..{self.n}")


def digraph(n: int, arcs: Iterable[Arc]) -> Digraph:
    return Digraph(n, frozenset(arcs))


@dataclass(frozen=True)
class ComponentDecomposition:
    """Strong and weak component partitions with sink/source flags.

    ``sccs`` is ordered by decreasing size of each component's forward
    closure, which is topological with respect to the condensation (sources
    first); ``scc_is_sink[i]`` / ``scc_is_source[i]`` flag the i-th strong
    component.
    """

    sccs: tuple[frozenset[int], ...]
    wccs: tuple[frozenset[int], ...]
    scc_is_sink: tuple[bool, ...]
    scc_is_source: tuple[bool, ...]

    @property
    def scc_partition(self) -> frozenset[frozenset[int]]:
        return frozenset(self.sccs)

    @property
    def wcc_partition(self) -> frozenset[frozenset[int]]:
        return frozenset(self.wccs)

    @property
    def sink_count(self) -> int:
        return sum(self.scc_is_sink)

    @property
    def source_count(self) -> int:
        return sum(self.scc_is_source)


def scc_wcc(g: Digraph) -> ComponentDecomposition:
    """Strong components as the meets of forward and backward closures, plus
    weak components by undirected reachability.

    A strong component reaches strictly more vertices than any other
    component it reaches, so ordering the components by decreasing size of
    their forward closure is a topological order of the condensation.  A
    component is a sink when its forward closure is itself, and a source
    when its backward closure is.
    """
    n = g.n
    fwd = [0] * n
    back = [0] * n
    for p, q in g.arcs:
        fwd[p - 1] |= 1 << (q - 1)
        back[q - 1] |= 1 << (p - 1)
    closures = []
    rest = (1 << n) - 1
    while rest:
        low = rest & -rest
        ahead = reach(fwd, low)
        behind = reach(back, low)
        component = ahead & behind
        closures.append((component, ahead, behind))
        rest &= ~component
    closures.sort(key=lambda c: -c[1].bit_count())

    undirected = [f | b for f, b in zip(fwd, back)]
    wccs = []
    rest = (1 << n) - 1
    while rest:
        component = reach(undirected, rest & -rest)
        wccs.append(states_of(component))
        rest &= ~component

    return ComponentDecomposition(
        sccs=tuple(states_of(c) for c, _, _ in closures),
        wccs=tuple(wccs),
        scc_is_sink=tuple(ahead == c for c, ahead, _ in closures),
        scc_is_source=tuple(behind == c for c, _, behind in closures),
    )


def excluded_and_duplicate(aut: Automaton, word: Word) -> tuple[int, int]:
    """The unique state missing from the image and the unique doubled fiber.

    Defined exactly for words of defect one; both states are 1-indexed.  They
    are the -1 and +1 entries of the word's preimage-growth vector.
    """
    vector = k_vector(aut, word).vector
    missing = [q for q, c in enumerate(vector) if c == -1]
    doubled = [q for q, c in enumerate(vector) if c == 1]
    if len(missing) != 1 or len(doubled) != 1:
        raise WrongDefect(f"word has defect {len(missing)}, need exactly 1")
    return missing[0] + 1, doubled[0] + 1


@dataclass(frozen=True)
class GrowthTrace:
    """The digraph growth sequence up to stabilization.

    ``levels[i]`` holds the arcs reachable with at most i shifts by the
    permutations ``perms``; the trace stops at the first level whose shift
    adds nothing, so the last entry is the limit digraph.  Indexing past the
    end is clamped to it.
    """

    perms: tuple[Perm, ...]
    levels: tuple[Digraph, ...]
    decompositions: tuple[ComponentDecomposition, ...]

    @property
    def n(self) -> int:
        return self.levels[0].n

    @property
    def transient(self) -> int:
        return len(self.levels) - 1

    @property
    def limit(self) -> Digraph:
        return self.levels[-1]

    @property
    def limit_decomposition(self) -> ComponentDecomposition:
        return self.decompositions[-1]

    @property
    def d(self) -> int:
        """Number of strong components of the limit digraph."""
        return len(self.limit_decomposition.sccs)

    def at(self, i: int) -> Digraph:
        return self.levels[min(max(i, 0), self.transient)]

    def decomposition_at(self, i: int) -> ComponentDecomposition:
        return self.decompositions[min(max(i, 0), self.transient)]


def shift_arc(arc: Arc, perm: Perm) -> Arc:
    p, q = arc
    return perm[p - 1] + 1, perm[q - 1] + 1


def gamma_growth(aut: Automaton, perms: Sequence[Perm]) -> GrowthTrace:
    """Grow the excluded/duplicate arc digraph under the permutations ``perms``.

    Level zero holds one arc per defect-one letter; appending a permutation
    letter to a defect-one word shifts both distinguished states by it, so
    each next level is the previous one plus its shifted arcs.
    """
    sigma1 = sorted(letters_of_defect(aut, 1)) if aut.n >= 2 else []
    if not sigma1:
        raise NoDefectOneLetters("no letter has defect exactly 1")

    seeds = {excluded_and_duplicate(aut, (b,)) for b in sigma1}
    arcs: set[Arc] = set(seeds)
    frontier = sorted(seeds)
    levels = [digraph(aut.n, arcs)]
    while True:
        new = []
        for arc in frontier:
            for perm in perms:
                shifted = shift_arc(arc, perm)
                if shifted not in arcs:
                    arcs.add(shifted)
                    new.append(shifted)
        if not new:
            break
        levels.append(digraph(aut.n, arcs))
        frontier = new
    return GrowthTrace(
        perms=tuple(perms),
        levels=tuple(levels),
        decompositions=tuple(scc_wcc(g) for g in levels),
    )


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one executable lemma check: pass, fail, or n/a."""

    name: str
    status: str
    detail: str = ""


@dataclass
class LemmaReport:
    """The lemma checks run on one instance, in the order they ran."""

    checks: list[LemmaCheck] = field(default_factory=list)

    def run(self, table: Iterable[tuple], facts: Any, unmet: Mapping[str, str]) -> LemmaReport:
        """Record each ``(name, hypotheses, check)`` row of ``table`` in order.

        A row reads n/a with the reason ``unmet`` gives for the first of its
        hypotheses that it names; any other row records the ``(ok, detail)``
        that ``check(facts)`` returns, where ok None means n/a.
        """
        for name, hypotheses, check in table:
            why = next((unmet[h] for h in hypotheses if h in unmet), None)
            ok, detail = (None, why) if why is not None else check(facts)
            status = "n/a" if ok is None else "pass" if ok else "fail"
            self.checks.append(LemmaCheck(name, status, detail))
        return self

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[LemmaCheck, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def by_name(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _arc_shift_closure(trace: GrowthTrace) -> tuple[bool, str]:
    for i in range(trace.transient + 1):
        for arc in sorted(trace.at(i).arcs):
            for perm in trace.perms:
                if shift_arc(arc, perm) not in trace.at(i + 1).arcs:
                    return False, f"arc {arc} shifted out of level {i + 1}"
    return True, ""


def _incidence_rank(trace: GrowthTrace) -> tuple[bool, str]:
    # the arc vectors span a space of rank n - #weak components, whose
    # orthogonal complement the component indicators span.  Levels only
    # grow, so one running elimination takes each level's new arcs.  The
    # indicators have disjoint supports, so once there are n - rank of them
    # they span the complement exactly when each is orthogonal to every arc,
    # i.e. when no arc joins two components.
    n = trace.n
    echelon = RowEchelon(n)
    previous: frozenset[Arc] = frozenset()
    for i, (level, deco) in enumerate(zip(trace.levels, trace.decompositions)):
        for p, q in level.arcs - previous:
            echelon.add(unit_difference(p, q, n))
        previous = level.arcs
        expected = n - len(deco.wccs)
        if echelon.rank != expected:
            return False, f"level {i}: rank {echelon.rank} != {expected}"
        component = {v: c for c, w in enumerate(deco.wccs) for v in w}
        if any(component.get(p) != component.get(q) for p, q in level.arcs):
            return False, f"level {i}: complement differs from component span"
    return True, ""


def _weak_equals_strong(trace: GrowthTrace) -> tuple[bool, str]:
    limit = trace.limit_decomposition
    same = limit.wcc_partition == limit.scc_partition
    return same, f"{len(limit.wccs)} weak vs {len(limit.sccs)} strong"


def _weak_stable_early(trace: GrowthTrace) -> tuple[bool, str]:
    i = trace.n - trace.d - 1
    stable = trace.decomposition_at(i).wcc_partition == trace.limit_decomposition.wcc_partition
    return stable, f"checked at level {i}"


def _covered_early(trace: GrowthTrace) -> tuple[bool, str]:
    n = trace.n
    early = trace.at(n - 1)
    heads = {q for _, q in early.arcs}
    tails = {p for p, _ in early.arcs}
    return all(v in heads and v in tails for v in range(1, n + 1)), f"level {n - 1}"


def _strong_stable_by_n(trace: GrowthTrace) -> tuple[bool | None, str]:
    n, d = trace.n, trace.d
    if 3 * d <= n:
        return None, f"d={d} <= n/3"
    limit = trace.limit_decomposition
    return trace.decomposition_at(n).scc_partition == limit.scc_partition, f"d={d}"


def _strong_stable_late(trace: GrowthTrace) -> tuple[bool | None, str]:
    n, d = trace.n, trace.d
    if 3 * d > n:
        return None, f"d={d} > n/3"
    i = 2 * n - 3 * d - 1
    stable = trace.decomposition_at(i).scc_partition == trace.limit_decomposition.scc_partition
    return stable, f"checked at level {i}, d={d}"


# The growth-structure theorems, in report order, each with the hypotheses
# it needs and its check on a growth trace.
GROWTH_CHECKS = (
    ("arc_shift_closure", (), _arc_shift_closure),
    ("incidence_rank_matches_weak_components", (), _incidence_rank),
    ("weak_equals_strong_at_limit", ("transitive",), _weak_equals_strong),
    ("weak_components_stable_early", ("transitive",), _weak_stable_early),
    ("every_vertex_covered_early", ("transitive",), _covered_early),
    ("strong_stable_by_n_when_many_components", ("transitive",), _strong_stable_by_n),
    ("strong_stable_late_when_few_components", ("transitive",), _strong_stable_late),
)


def verify_growth_lemmas(trace: GrowthTrace, transitive: bool) -> LemmaReport:
    """Run every growth-structure theorem on ``trace`` as an executable check.

    All of these are proved facts, so any failure indicates an implementation
    bug.  ``transitive`` says whether the permutations of the trace act
    transitively (the caller has tested it, e.g. as ``cone.is_subspace``);
    checks whose hypothesis needs that are reported n/a when they do not.
    """
    unmet = {} if transitive else {"transitive": "permutation set not transitive"}
    return LemmaReport().run(GROWTH_CHECKS, trace, unmet)


def translen_k_bound(aut: Automaton, cone: ConeReport) -> int:
    """Component-counting bound on the transient length of ``cone``.

    Valid when every letter has defect at most one and the permutation set of
    ``cone`` is transitive.
    """
    if any(d > 1 for d in aut.letter_defects):
        raise UnsupportedAlphabet("a letter of defect 2 or more is present")
    if not cone.is_subspace:
        raise NotTransitive("bound requires a transitive permutation set")
    n, dim = aut.n, cone.span_dim
    if 2 * dim == n:
        return n
    return 3 * dim - n - 1
