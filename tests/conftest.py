import importlib
import random
import sys
from collections import Counter

import pytest

from synchro.automaton import Automaton
from synchro.generate import cerny


@pytest.fixture
def c4() -> Automaton:
    return cerny(4)


@pytest.fixture
def c5() -> Automaton:
    return cerny(5)


def count_calls(monkeypatch, *qualified) -> Counter:
    """Count the calls of each ``module.function`` of ``synchro``, from every
    ``synchro`` module that holds it; the counter is keyed by function name."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("synchro.")]
    for qual in qualified:
        module_name, name = qual.split(".")
        real = getattr(importlib.import_module(f"synchro.{module_name}"), name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return counts


def random_automaton(rng: random.Random, n: int, k: int) -> Automaton:
    rows = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
    names = tuple("abcdefghij"[:k])
    return Automaton(names, rows)
