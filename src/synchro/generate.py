"""Instance sources: the classic cycle-plus-merge family, seeded random
synchronizing-transitive automata, and exhaustive enumeration of small
transition tables for ground-truth sweeps."""

from __future__ import annotations

import itertools
import random
import string
from typing import Iterator

from .automaton import Automaton, is_synchronizing
from .errors import ResourceCap, RetryExhausted
from .permgroup import is_transitive, resolve_perm_set

ENUM_CAP = 1 << 21
RANDOM_ST_ATTEMPTS = 5000


def cerny(n: int) -> Automaton:
    """The n-state cycle-plus-merge automaton with reset threshold (n-1)^2.

    Letter "a" is the cyclic shift i -> i+1 (mod n); letter "b" sends state 1
    to 2 and fixes everything else.
    """
    if n < 2:
        raise ValueError("need at least 2 states")
    cycle = tuple((q + 1) % n for q in range(n))
    merge = (1,) + tuple(range(1, n))
    return Automaton(("a", "b"), (cycle, merge))


def _letter_names(count: int) -> tuple[str, ...]:
    if count > 26:
        raise ValueError("at most 26 letters supported")
    return tuple(string.ascii_lowercase[:count])


def random_st(
    n: int,
    n_perm_letters: int,
    n_defect1_letters: int,
    seed: int,
) -> Automaton:
    """A seeded random synchronizing automaton whose permutation letters act
    transitively and whose remaining letters each have defect exactly one.

    Permutation letters are drawn uniformly; defect-one letters are a random
    permutation with one state's image redirected onto another's, which
    excludes exactly one state and doubles exactly one fiber.  Draws repeat
    until the transitivity and synchronization checks pass, at most
    ``RANDOM_ST_ATTEMPTS`` times.
    """
    if n < 2:
        raise ValueError("need at least 2 states")
    if n_perm_letters < 1:
        raise ValueError("need at least one permutation letter")
    if n_defect1_letters < 1:
        raise ValueError("need at least one defect-1 letter")
    rng = random.Random(seed)
    names = _letter_names(n_perm_letters + n_defect1_letters)
    for _ in range(RANDOM_ST_ATTEMPTS):
        rows = [tuple(rng.sample(range(n), n)) for _ in range(n_perm_letters)]
        if not is_transitive(rows, n):
            continue
        for _ in range(n_defect1_letters):
            base = rng.sample(range(n), n)
            s = rng.randrange(n)
            t = rng.randrange(n - 1)
            if t >= s:
                t += 1
            row = list(base)
            row[s] = base[t]
            rows.append(tuple(row))
        aut = Automaton(names, tuple(rows))
        if is_synchronizing(aut):
            return aut
    raise RetryExhausted(
        f"no ST automaton found in {RANDOM_ST_ATTEMPTS} attempts "
        f"(n={n}, perm={n_perm_letters}, defect1={n_defect1_letters}, seed={seed})"
    )


def enumerate_automata(n: int, k: int) -> Iterator[Automaton]:
    """Stream every k-letter transition table on n states.

    The raw count n^(n*k) is checked against ``ENUM_CAP`` up front so a
    hopeless sweep fails fast instead of running forever.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = n ** (n * k)
    if total > ENUM_CAP:
        raise ResourceCap(f"enumeration of {total} tables exceeds cap {ENUM_CAP}")
    names = _letter_names(k)
    for rows in itertools.product(itertools.product(range(n), repeat=n), repeat=k):
        yield Automaton(names, rows)


def exhaustive_st_instances(n: int) -> Iterator[Automaton]:
    """All enumerated n-state 2-letter automata that are synchronizing with a
    transitive group generated by their permutation letters."""
    for aut in enumerate_automata(n, 2):
        if is_transitive(resolve_perm_set(aut)[1], n) and is_synchronizing(aut):
            yield aut
