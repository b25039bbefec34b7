"""Outside-in tracer for the traced run.

It rebinds public ``synchro`` functions to timing wrappers in every
``synchro.*`` module namespace that holds the same function object, so calls
across modules are caught as well as the benchmark's own call into
``cli.main``.  Spans stay in memory and are written once at the end.  Timing
runs never install it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED = (
    "cli.main",
    "fileformat.parse_automaton",
    "automaton.reset_threshold_exact",
    "automaton.is_synchronizing",
    "automaton.is_strongly_connected",
    "linalg.in_cone",
    "linalg.span_basis",
    "linalg.orthogonal_complement",
    "cones.cone_sequence",
    "cones.ell",
    "cones.ell_all",
    "permgroup.cayley_diameters",
    "permgroup.is_transitive",
    "bounds.synthesize_reset_word",
    "bounds.bound_rystsov",
    "growth.gamma_growth",
    "growth.verify_growth_lemmas",
    "verify.lemma_suite",
    "verify.suite_bounds",
    "verify.suite_lemmas",
)

# Work counts read at the layer boundary.  Argument counts name the argument
# by position and keyword; an iterator argument is materialized into a list
# before the call so it can be counted and still consumed.
ARG_COUNTS = {
    "linalg.in_cone": ("generators", 1, "gens"),
    "linalg.span_basis": ("vectors", 0, "vectors"),
}
RESULT_COUNTS = {
    "cones.cone_sequence": (("limit_generators", lambda r: len(r.limit_generators)),),
    "cones.ell": (("escape_len", lambda r: r[0]),),
    "bounds.synthesize_reset_word": (
        ("steps", lambda r: sum(s.escape_length is not None for s in r.steps)),
        ("length", lambda r: r.length),
        ("bound", lambda r: r.bound),
    ),
}
ERROR_COUNTS = {"permgroup.cayley_diameters": ("cap_hits", "CapExceeded")}


def count_names() -> list[str]:
    out = [f"{q}.{spec[0]}" for q, spec in ARG_COUNTS.items()]
    out += [f"{q}.{stat}" for q, specs in RESULT_COUNTS.items() for stat, _ in specs]
    out += [f"{q}.{spec[0]}" for q, spec in ERROR_COUNTS.items()]
    return out


class Tracer:
    def __init__(self) -> None:
        # one entry per span: [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "synchro" or name.startswith("synchro."))]
        for qual in TRACED:
            module_name, fn_name = qual.split(".")
            fn = getattr(sys.modules.get("synchro." + module_name), fn_name, None)
            if not callable(fn):
                self.missing.append(qual)
                continue
            wrapper = self._wrap(qual, fn)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, qual: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        arg_count = ARG_COUNTS.get(qual)
        result_counts = RESULT_COUNTS.get(qual, ())
        error_count = ERROR_COUNTS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_count is not None:
                stat, pos, key = arg_count
                if key in kwargs:
                    kwargs[key] = value = _as_list(kwargs[key])
                else:
                    value = _as_list(args[pos])
                    args = args[:pos] + (value,) + args[pos + 1:]
                counts[f"{qual}.{stat}"] += len(value)
            index = len(spans)
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error_count is not None and type(exc).__name__ == error_count[1]:
                    counts[f"{qual}.{error_count[0]}"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            for stat, read in result_counts:
                counts[f"{qual}.{stat}"] += read(result)
            return result

        return traced

    def layer_stats(self, op_scale) -> dict[str, dict[str, float]]:
        """Per traced name: call count and self time (span minus child spans),
        each span's time multiplied by ``op_scale[op id]``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {q: {"calls": 0, "self_s": 0.0} for q in TRACED}
        for (name, start, end, _, op), inner in zip(self.spans, child):
            stats[name]["calls"] += 1
            stats[name]["self_s"] += (end - start - inner) * op_scale[op]
        return stats

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)


def _as_list(value):
    return value if isinstance(value, (list, tuple)) else list(value)
