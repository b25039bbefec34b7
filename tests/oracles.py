"""Set- and matrix-form helpers that tests use as oracles.

The library works on bitmasks and never needs these forms, so they live with
the tests: states are 1-indexed sets, vectors plain tuples and matrices
tuples of row tuples.
"""

from synchro.automaton import mask_of, states_of, word_image_mask, word_preimage_mask


def apply_word(aut, states, word):
    """Forward action: the set {q.w : q in states}, 1-indexed."""
    aut.validate_word(word)
    return states_of(word_image_mask(aut, mask_of(states, aut.n), word))


def preimage(aut, states, word):
    """The exact preimage {q : q.w in states}, 1-indexed."""
    aut.validate_word(word)
    return states_of(word_preimage_mask(aut, mask_of(states, aut.n), word))


def defect(aut, word):
    """Number of states missing from the image of the whole state set."""
    aut.validate_word(word)
    return aut.n - word_image_mask(aut, aut.full_mask, word).bit_count()


def char_vector(states, n):
    """0/1 indicator of a 1-indexed state set as a length-n vector."""
    out = [0] * n
    for q in states:
        if not 1 <= q <= n:
            raise ValueError(f"state {q} out of range 1..{n}")
        out[q - 1] = 1
    return tuple(out)


def inner_product(x, y):
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def vector_times_matrix(x, m):
    """The row vector ``x`` times the matrix ``m``."""
    if len(x) != len(m):
        raise ValueError("vector/matrix size mismatch")
    out = [0] * (len(m[0]) if m else 0)
    for coeff, row in zip(x, m):
        for j, entry in enumerate(row):
            out[j] += coeff * entry
    return tuple(out)


def in_polar_cone(v, gens):
    """True iff <g, v> <= 0 for every generator; finitely many suffice."""
    return all(inner_product(g, v) <= 0 for g in gens)


def preimage_matrix(aut, word):
    """Matrix [w] with row q the indicator of preimage({q}, w).

    Acting on row vectors from the right: char(S) [w] = char(S.w^-1).
    """
    return tuple(char_vector(preimage(aut, {q}, word), aut.n) for q in range(1, aut.n + 1))
