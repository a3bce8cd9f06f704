"""The Fraction bodies of the integer kernels, kept as their oracles.

``lcumulant._first_block_solve``, ``moments._per_axis`` and the minor walk
of ``models.verify_split_binomials`` compute on integers scaled by a
common denominator.  These are the same loops on ``Fraction`` entries, as
they ran before; the kernels must return the same values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def first_block_solve(space, given, tables, forward):
    """The first-block recursion on Fractions; see ``_first_block_solve``."""
    states = list(space.states())
    strides = [1] * space.n
    for i in range(space.n - 2, -1, -1):
        strides[i] = strides[i + 1] * space.arities[i + 1]
    known = [given[x] for x in states]
    solved = [Fraction(0)] * len(states)
    moments, cumulants = (known, solved) if forward else (solved, known)
    for code in sorted(range(len(states)), key=lambda c: sum(states[c])):
        multiset = space.index_multiset(states[code])
        if not multiset:
            solved[code] = Fraction(0) if forward else Fraction(1)
            continue
        step = [strides[i - 1] for i in multiset]
        lower = Fraction(0)
        for block, rest in tables(multiset):
            term = cumulants[sum(map(step.__getitem__, block))]
            if not term:
                continue
            for part in rest:
                term *= moments[sum(map(step.__getitem__, part))]
            lower += term
        solved[code] = known[code] - lower if forward else known[code] + lower
    return dict(zip(states, solved))


def per_axis(space, data, matrices):
    """The per-axis matrix pass on Fractions; see ``_per_axis``."""
    out = dict(data)
    for i, matrix in enumerate(matrices):
        new = {}
        for x in space.states():
            total = Fraction(0)
            for level, coeff in enumerate(matrix[x[i]]):
                if coeff:
                    total += coeff * out[x[:i] + (level,) + x[i + 1 :]]
            new[x] = total
        out = new
    return out


def split_minors(values, side_a, side_b):
    """``(checked, violations)`` of the 2x2 minors of one split's flattening."""

    def subsets(pool):
        return [c for r in range(1, len(pool) + 1) for c in itertools.combinations(pool, r)]

    subsets_a, subsets_b = subsets(tuple(sorted(side_a))), subsets(tuple(sorted(side_b)))
    flat = [[values[tuple(sorted(I + J))] for J in subsets_b] for I in subsets_a]
    violations = []
    for (I, row), (I2, row2) in itertools.product(zip(subsets_a, flat), repeat=2):
        for j, j2 in itertools.product(range(len(subsets_b)), repeat=2):
            residual = row[j] * row2[j2] - row[j2] * row2[j]
            if residual != 0:
                violations.append(((I, subsets_b[j], I2, subsets_b[j2]), residual))
    return len(subsets_a) ** 2 * len(subsets_b) ** 2, violations
