"""Complete deterministic automata: word actions, preimages, defect profiles,
connectivity, synchronization, and the exact reset-threshold oracle."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import or_
from typing import Callable, Iterable, Sequence

from .errors import NotSynchronizing, ResourceCap

Word = tuple[int, ...]

EPSILON: Word = ()

DEFAULT_SUBSET_CAP = 1 << 22


@dataclass(frozen=True)
class Automaton:
    """Complete deterministic automaton on states 1..n.

    ``table[a][q]`` is the 0-based image of 0-based state ``q`` under letter
    ``a``.  Everything user-facing (constructors, the file format, reports,
    and the state sets passed to or returned by the operations below) speaks
    1-indexed states; the 0-based table and bitmask positions are internal.
    Instances are immutable and safe to share across threads.
    """

    letters: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("automaton needs at least one letter")
        if len(self.letters) != len(self.table):
            raise ValueError("one table row per letter required")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letter name")
        for name in self.letters:
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad letter name {name!r}")
        n = len(self.table[0])
        if n < 1:
            raise ValueError("automaton needs at least one state")
        for name, row in zip(self.letters, self.table):
            if len(row) != n:
                raise ValueError(f"letter {name!r}: expected {n} images, got {len(row)}")
            for q, img in enumerate(row):
                if not 0 <= img < n:
                    raise ValueError(
                        f"letter {name!r}: image {img + 1} of state {q + 1} out of range 1..{n}"
                    )

    @classmethod
    def from_rows(cls, letters: Sequence[str], rows: Sequence[Sequence[int]]) -> "Automaton":
        """Build from 1-indexed image rows, one row per letter."""
        return cls(tuple(letters), tuple(tuple(img - 1 for img in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.table[0])

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """1-indexed image rows, one per letter (the file-format view)."""
        return tuple(tuple(img + 1 for img in row) for row in self.table)

    def letter_index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise ValueError(f"unknown letter {name!r}") from None

    def word(self, source: str | Iterable[int | str]) -> Word:
        """Parse a word from letter names or indices.

        A plain string is read letter-by-letter when every letter name is a
        single character, and as whitespace-separated names otherwise.
        """
        if isinstance(source, str):
            parts: Iterable[int | str]
            if all(len(name) == 1 for name in self.letters):
                parts = list(source)
            else:
                parts = source.split()
        else:
            parts = source
        out = []
        for item in parts:
            if isinstance(item, str):
                out.append(self.letter_index(item))
            else:
                self._check_letter(item)
                out.append(item)
        return tuple(out)

    def format_word(self, word: Word) -> str:
        self.validate_word(word)
        names = [self.letters[a] for a in word]
        if all(len(name) == 1 for name in self.letters):
            return "".join(names)
        return " ".join(names)

    def word_names(self, word: Word) -> list[str]:
        self.validate_word(word)
        return [self.letters[a] for a in word]

    def _check_letter(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < len(self.letters):
            raise ValueError(f"invalid letter id {a!r}")

    def validate_word(self, word: Iterable[int]) -> None:
        for a in word:
            self._check_letter(a)

    @cached_property
    def preimage_state_masks(self) -> tuple[tuple[int, ...], ...]:
        """For each letter, the preimage bitmask of every 0-based state."""
        out = []
        for row in self.table:
            masks = [0] * self.n
            for q, img in enumerate(row):
                masks[img] |= 1 << q
            out.append(tuple(masks))
        return tuple(out)

    @cached_property
    def preimage_mask_table(self) -> tuple[list[int], ...]:
        """Per letter, the preimage mask of every subset mask; O(k * 2^n) total."""
        return tuple(subset_table(masks, or_) for masks in self.preimage_state_masks)

    @cached_property
    def image_chunks(self) -> tuple[tuple[list[int], ...], ...]:
        """Per letter, per 8-bit chunk of a subset mask, the image mask of
        every chunk value (see :func:`image_mask`).  A partial last chunk gets
        a table of ``2 ** (n % 8)`` entries."""
        return _chunk_tables(tuple(tuple(1 << img for img in row) for row in self.table))

    @cached_property
    def preimage_chunks(self) -> tuple[tuple[list[int], ...], ...]:
        """Per letter, per 8-bit chunk of a subset mask, the preimage mask of
        every chunk value (see :func:`preimage_mask`)."""
        return _chunk_tables(self.preimage_state_masks)

    @cached_property
    def letter_defects(self) -> tuple[int, ...]:
        return tuple(self.n - len(set(row)) for row in self.table)


# ---------------------------------------------------------------------------
# bitmask helpers (state i, 1-indexed, lives at bit i-1)

def mask_of(states: Iterable[int], n: int) -> int:
    mask = 0
    for q in states:
        if not 1 <= q <= n:
            raise ValueError(f"state {q} out of range 1..{n}")
        mask |= 1 << (q - 1)
    return mask


def states_of(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        mask ^= low
        out.add(low.bit_length())
    return frozenset(out)


def reach(succ_masks: Sequence[int], start_mask: int) -> int:
    """Mask of every vertex reachable from the vertices in ``start_mask``
    (themselves included), where ``succ_masks[v]`` is the successor mask of
    the 0-based vertex v."""
    seen = frontier = start_mask
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= succ_masks[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def subset_table(values: Sequence, combine: Callable) -> list:
    """``table[m]`` is ``combine`` folded over ``values[i]`` for every set bit
    i of m, starting from 0; the table has ``2 ** len(values)`` entries.

    Built by doubling: value i extends the table for bits below i by its
    entries combined with ``values[i]``.  Past ``DEFAULT_SUBSET_CAP`` entries
    it raises ResourceCap before building anything.
    """
    check_subset_table_size(len(values))
    table = [0]
    for value in values:
        table.extend(map(combine, table, repeat(value, len(table))))
    return table


def check_subset_table_size(n: int) -> None:
    """Raise ResourceCap when a table over all 2^n subsets of n states would
    hold more than ``DEFAULT_SUBSET_CAP`` entries."""
    if 1 << n > DEFAULT_SUBSET_CAP:
        raise ResourceCap(
            f"a table over the subsets of {n} states has {1 << n} entries, "
            f"over the cap of {DEFAULT_SUBSET_CAP}"
        )


def _chunk_tables(state_masks: Sequence[Sequence[int]]) -> tuple[tuple[list[int], ...], ...]:
    """Per letter, one OR table per 8-bit slice of that letter's state masks."""
    return tuple(
        tuple(subset_table(masks[base:base + 8], or_) for base in range(0, len(masks), 8))
        for masks in state_masks
    )


def _chunk_lookup(tables: Sequence[Sequence[int]], mask: int) -> int:
    """OR of ``tables[c][(mask >> 8 * c) & 0xFF]`` over the chunks c, up to the
    last nonzero one."""
    out = 0
    for tab in tables:
        if not mask:
            break
        out |= tab[mask & 0xFF]
        mask >>= 8
    return out


def image_mask(aut: Automaton, mask: int, a: int) -> int:
    return _chunk_lookup(aut.image_chunks[a], mask)


def preimage_mask(aut: Automaton, mask: int, a: int) -> int:
    return _chunk_lookup(aut.preimage_chunks[a], mask)


def word_image_mask(aut: Automaton, mask: int, word: Word) -> int:
    for a in word:
        mask = image_mask(aut, mask, a)
    return mask


def word_preimage_mask(aut: Automaton, mask: int, word: Word) -> int:
    # S.(uv)^-1 = (S.v^-1).u^-1, so letters are consumed right to left.
    for a in reversed(word):
        mask = preimage_mask(aut, mask, a)
    return mask


# ---------------------------------------------------------------------------
# operations

def letters_of_defect(aut: Automaton, i: int) -> frozenset[int]:
    """Letter ids whose single-letter defect is exactly ``i``."""
    if not 0 <= i <= aut.n - 1:
        raise ValueError(f"defect {i} out of range 0..{aut.n - 1}")
    return frozenset(a for a, d in enumerate(aut.letter_defects) if d == i)


def deficient_letters(aut: Automaton) -> tuple[int, ...]:
    """Letter ids of positive defect, in alphabet order."""
    return tuple(a for a, d in enumerate(aut.letter_defects) if d > 0)


def is_strongly_connected(aut: Automaton) -> bool:
    """True iff every state reaches every other in the transition digraph."""
    fwd = [0] * aut.n
    back = [0] * aut.n
    for row in aut.table:
        for q, img in enumerate(row):
            fwd[q] |= 1 << img
            back[img] |= 1 << q
    full = aut.full_mask
    return reach(fwd, 1) == full and reach(back, 1) == full


def is_synchronizing(aut: Automaton) -> bool:
    """Decide synchronizability by the pair-merging criterion.

    The automaton admits a reset word iff every 2-element subset of states is
    mapped to a singleton by some word, which a backward closure over the
    pair graph decides in polynomial time (no power-set search).
    """
    n = aut.n
    if n == 1:
        return True
    pair_id = {}
    pairs = []
    for p in range(n):
        for q in range(p + 1, n):
            pair_id[(p, q)] = len(pairs)
            pairs.append((p, q))
    mergeable = [False] * len(pairs)
    rev: list[list[int]] = [[] for _ in pairs]
    seeds = []
    for i, (p, q) in enumerate(pairs):
        for row in aut.table:
            pi, qi = row[p], row[q]
            if pi == qi:
                if not mergeable[i]:
                    mergeable[i] = True
                    seeds.append(i)
            else:
                j = pair_id[(pi, qi) if pi < qi else (qi, pi)]
                rev[j].append(i)
    queue = deque(seeds)
    while queue:
        j = queue.popleft()
        for i in rev[j]:
            if not mergeable[i]:
                mergeable[i] = True
                queue.append(i)
    return all(mergeable)


def subset_search(
    chunks: Sequence[Sequence[Sequence[int]]], starts: Sequence[int],
    goal: Callable[[int], bool], prune: Callable[[int, list[int]], list[int]] | None,
    cap: int, what: str,
) -> tuple[int, Word] | None:
    """Level-order search of the subset lattice from the ``starts`` for a
    subset satisfying ``goal``, over one chunk-table family (``image_chunks``
    or ``preimage_chunks`` of an automaton).

    Each level's successors are looked up per letter, then scanned in
    (subset, letter) order: subsets in discovery order, letters in alphabet
    order, each new subset keeping its first discoverer.  ``goal`` is tested
    on the starts, then on each new subset.  ``prune(depth, level)``, when
    given, filters each level once it is scanned, before it is expanded; a
    pruned subset stays visited, so no later level holds it.  Returns
    ``(depth, letters in the order applied)``, or None when the search closes
    without reaching the goal; past ``cap`` visited subsets it raises
    ResourceCap naming ``what``.
    """
    for start in starts:
        if goal(start):
            return 0, EPSILON
    k = len(chunks)
    shifts = range(0, 8 * len(chunks[0]), 8)
    # parents[mask] = prev * k + a: ``mask`` was first reached from prev by a;
    # a start has -1.
    parents: dict[int, int] = dict.fromkeys(starts, -1)
    frontier = list(parents)
    depth = 0
    while frontier:
        depth += 1
        parts = [[(mask >> s) & 0xFF for mask in frontier] for s in shifts]
        successors = []
        for letter_tables in chunks:
            out = list(map(letter_tables[0].__getitem__, parts[0]))
            for tab, vals in zip(letter_tables[1:], parts[1:]):
                out = list(map(or_, out, map(tab.__getitem__, vals)))
            successors.append(out)
        level = []
        for prev, row in zip(frontier, zip(*successors)):
            code = prev * k
            for a, nxt in enumerate(row):
                if nxt in parents:
                    continue
                parents[nxt] = code + a
                if goal(nxt):
                    word = []
                    code = parents[nxt]
                    while code >= 0:
                        nxt, a = divmod(code, k)
                        word.append(a)
                        code = parents[nxt]
                    return depth, tuple(reversed(word))
                if len(parents) > cap:
                    raise ResourceCap(
                        f"subset search visited {len(parents)} subsets, over the cap "
                        f"of {cap}, and reached depth {depth} without {what}"
                    )
                level.append(nxt)
        frontier = level if prune is None else prune(depth, level)
    return None


def reset_threshold_exact(aut: Automaton, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, Word]:
    """Exact reset threshold with a shortest witness word; ties among
    shortest words go by letter order.

    Two runs of :func:`subset_search`, each visiting at most ``cap`` subsets.
    The backward pass runs over preimages from the n singletons towards the
    full set and keeps its levels: level j holds the preimages of singletons
    under words of length j that no shorter word reaches.  It gives up once a
    level holds more than n subsets or the pass goes over ``cap``, and then
    the forward search runs from the full set to the first singleton
    unpruned.  Otherwise it reaches the full set at depth d, the reset
    threshold, and the forward search keeps a subset at depth i only if it
    lies inside a subset of backward level d - i.  Every subset on a shortest
    path qualifies, and so does its first discoverer, so the pruned search
    returns the unpruned search's word; it visits no subset the unpruned one
    does not, so it raises ResourceCap only where that one does.
    """
    if not is_synchronizing(aut):
        raise NotSynchronizing("automaton admits no reset word")
    n, full = aut.n, aut.full_mask
    levels = [[1 << q for q in range(n)]]

    def keep_narrow(depth: int, level: list[int]) -> list[int]:
        levels.append(level)
        return level if len(level) <= n else []

    try:
        backward = subset_search(
            aut.preimage_chunks, levels[0], full.__eq__, keep_narrow, cap, "the full set"
        )
    except ResourceCap:
        backward = None
    prune = None
    if backward is not None:
        rt = backward[0]

        # a subset S at depth i inside one at level j has a reset word of
        # length i + j through S, so j >= d - i; a subset at level j < d - i
        # contains none at depth i, and only level d - i needs checking
        def prune(depth: int, level: list[int]) -> list[int]:
            outside = [full ^ t for t in levels[rt - depth]]
            return [m for m in level if any(not m & c for c in outside)]

    found = subset_search(
        aut.image_chunks, [full], lambda m: m & (m - 1) == 0, prune, cap, "a singleton"
    )
    if found is None:  # pragma: no cover - a synchronizing automaton reaches one
        raise NotSynchronizing("automaton admits no reset word")
    return found
