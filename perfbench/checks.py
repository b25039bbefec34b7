"""Output checks that run outside the timed span.

Nothing here calls into ``synchro``: words are replayed by a forward
simulation on the table the corpus wrote, and reference thresholds come from
this module's own subset search, so a checked answer does not depend on the
code it checks.
"""

from __future__ import annotations

import json

import jsonschema

from corpus import Op


def resets(table, word: list[int]) -> bool:
    """True iff ``word`` maps every state to one state."""
    states = set(range(len(table[0])))
    for a in word:
        row = table[a]
        states = {row[q] for q in states}
    return len(states) == 1


def reference_threshold(table) -> int:
    """Length of a shortest reset word, by breadth-first search over subsets.

    Images of a subset are assembled from two half-width lookup tables per
    letter, and visited subsets sit in a bytearray over all 2^n masks.
    """
    n = len(table[0])
    if n == 1:
        return 0
    low_bits = (n + 1) // 2
    low_mask = (1 << low_bits) - 1
    halves = []
    for row in table:
        lo = [0] * (1 << low_bits)
        hi = [0] * (1 << (n - low_bits))
        for m in range(1, len(lo)):
            bit = m & -m
            lo[m] = lo[m ^ bit] | (1 << row[bit.bit_length() - 1])
        for m in range(1, len(hi)):
            bit = m & -m
            hi[m] = hi[m ^ bit] | (1 << row[low_bits + bit.bit_length() - 1])
        halves.append((lo, hi))
    full = (1 << n) - 1
    seen = bytearray(1 << n)
    seen[full] = 1
    frontier = [full]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            m_lo, m_hi = m & low_mask, m >> low_bits
            for lo, hi in halves:
                img = lo[m_lo] | hi[m_hi]
                if not seen[img]:
                    if img & (img - 1) == 0:
                        return depth
                    seen[img] = 1
                    nxt.append(img)
        frontier = nxt
    raise ValueError("automaton is not synchronizing")


class Checker:
    """Validates CLI reports and accumulates synthesized length against bound."""

    def __init__(self, schema_path: str):
        with open(schema_path, encoding="utf-8") as handle:
            schema = json.load(handle)
        jsonschema.Draft202012Validator.check_schema(schema)
        self._validator = jsonschema.Draft202012Validator(schema)
        self._thresholds: dict[str, int] = {}
        self.word_length = 0
        self.word_bound = 0

    def check(self, op: Op, code: int, stdout: str) -> list[str]:
        """Problems with one call's exit code and report; empty when correct."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        errors = [e.message for e in self._validator.iter_errors(report)]
        if errors:
            return [f"schema: {errors[0]}"]
        if report["command"] == "verify":
            return self._check_verify(op, report)
        problems = self._check_automaton(op, report["automaton"])
        if problems:
            return problems
        if report["command"] == "synthesize":
            return self._check_synthesize(op, report)
        return self._check_rt(op, report)

    def _check_automaton(self, op: Op, auto: dict) -> list[str]:
        rows = [[q + 1 for q in row] for row in op.table]
        if auto["letters"] != list(op.letters) or auto["rows"] != rows:
            return ["report automaton differs from the input file"]
        return []

    def _word(self, op: Op, names: list[str]) -> list[int]:
        return [op.letters.index(name) for name in names]

    def _check_synthesize(self, op: Op, r: dict) -> list[str]:
        n, length, bound = op.n, r["length"], r["bound"]
        problems = []
        if len(r["word"]) != length:
            problems.append(f"word has {len(r['word'])} letters, length says {length}")
        if not resets(op.table, self._word(op, r["word"])):
            problems.append("synthesized word does not reset")
        if bound != 1 + (n - 2) * (n - r["dim"] + r["trans_len_k"]):
            problems.append(f"bound {bound} is not the dimension bound of dim {r['dim']}, K {r['trans_len_k']}")
        if length > bound:
            problems.append(f"length {length} exceeds bound {bound}")
        if op.family == "cerny" and length != (n - 1) ** 2:
            problems.append(f"cerny length {length} != {(n - 1) ** 2}")
        if not (r["verified"] and r["within_bound"]):
            problems.append("report flags verified/within_bound not both true")
        self.word_length += length
        self.word_bound += bound
        return problems

    def _check_rt(self, op: Op, r: dict) -> list[str]:
        rt = r["reset_threshold"]
        if op.family == "cerny":
            expected = (op.n - 1) ** 2
        else:
            if op.label not in self._thresholds:
                self._thresholds[op.label] = reference_threshold(op.table)
            expected = self._thresholds[op.label]
        problems = []
        if rt != expected:
            problems.append(f"reset threshold {rt} != reference {expected}")
        if len(r["witness"]) != rt:
            problems.append(f"witness has {len(r['witness'])} letters, threshold {rt}")
        if not resets(op.table, self._word(op, r["witness"])):
            problems.append("witness does not reset")
        if not r["witness_verified"]:
            problems.append("report flags the witness unverified")
        return problems

    def _check_verify(self, op: Op, r: dict) -> list[str]:
        problems = []
        if not r["ok"] or r["failures"]:
            problems.append(f"suite failed: {r['failures'][:3]}")
        if r["checked"] != op.seed_count:
            problems.append(f"checked {r['checked']} instances, asked for {op.seed_count}")
        return problems
