"""Probability tables and moment coordinates for finite discrete vectors.

A vector ``X = (X_1..X_n)`` takes values in the box ``prod_i {0..r_i-1}``;
variable ``i`` maps level ``k`` to a real value via its value map (default
``k``).  Every coordinate system used here (probabilities, raw moments,
central moments, cumulant-like systems) is indexed by the same box: the
entry at exponent vector ``x`` holds the coordinate of the index multiset
that repeats variable ``i`` exactly ``x_i`` times.  With that aliasing the
box is simultaneously the state space and the moment index set, and all
changes of coordinates are exact polynomial maps over ``Fraction``.

Every change of coordinates here is per-axis: the tensor product of one
small r_i x r_i matrix per variable, applied one axis at a time at
O(|box| * sum r_i) products, never as a sum over pairs of box states or
over sub-exponents.  Raw moments use the Vandermonde matrix of the level
values (row k holds their k-th powers) and the inverse map its inverse;
central moments and affine value changes use the matrix whose row k
expands (scale*v + shift)^k in the powers of v.  Each pass runs on
integers over one flat list of the box.  The Vandermonde matrix and its
inverse are cached, scaled to integers, in process LRUs keyed by the
variable's value tuple; the shift matrices depend on the data and are
scaled on each call.

Conventions for the degenerate indices: the moment at the zero exponent is
1, central moments are 1 at the zero exponent and 0 on first-order
indices, and cumulant-type systems store 0 at the zero exponent.

Everything is immutable and pure; a signed table summing to one is allowed
when ``algebraic=True`` since no transform here uses nonnegativity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .partition import SetPartition

Exponent = tuple[int, ...]

PROBABILITIES = "probabilities"
MOMENTS = "moments"
CENTRAL_MOMENTS = "central_moments"
CLASSICAL_CUMULANTS = "classical_cumulants"
LCUMULANTS = "lcumulants"

FLOAT_TOLERANCE = 1e-12


def within_tolerance(left, right, tol: float = FLOAT_TOLERANCE) -> bool:
    """Absolute-gap comparison for float-mode values; exact values hit 0."""
    return abs(float(left) - float(right)) <= tol


_FLOAT_MESSAGE = "floats are not allowed in exact mode; pass Fraction, int or 'p/q'"


def _frac(value) -> Fraction:
    if type(value) is Fraction:  # immutable, so it is shared rather than copied
        return value
    if isinstance(value, float):
        raise TypeError(_FLOAT_MESSAGE)
    return Fraction(value)


def _scaled_integers(entries: Iterable[tuple[object, object]], what: str = "state") -> tuple[dict, int]:
    """Exact entries as integers over their least common denominator.

    Returns ``({key: numerator * (L // denominator)}, L)``, so each entry
    is its integer divided by L.  A float or other inexact entry raises
    TypeError naming its key.
    """
    parts = {key: _exact_parts(value, key, what) for key, value in entries}
    scale = lcm(*(den for _, den in parts.values()))
    return {key: num * (scale // den) for key, (num, den) in parts.items()}, scale


def _exact_parts(value, key: object, what: str = "state") -> tuple[int, int]:
    """Numerator and denominator of an int or Fraction entry at ``key``."""
    if isinstance(value, float):
        raise TypeError(f"{_FLOAT_MESSAGE}; got {value!r} at {what} {key}")
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"expected an int or Fraction at {what} {key}, got {value!r}") from None


@dataclass(frozen=True)
class StateSpace:
    """Arities plus per-variable value maps (level -> value)."""

    arities: tuple[int, ...]
    values: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def of(cls, arities: Sequence[int], values: Sequence[Sequence] | None = None) -> StateSpace:
        arities = tuple(int(r) for r in arities)
        if any(r < 2 for r in arities):
            raise ValueError("each variable needs at least two levels")
        if values is None:
            vmaps = tuple(tuple(Fraction(k) for k in range(r)) for r in arities)
        else:
            if len(values) != len(arities):
                raise ValueError("one value map per variable required")
            vmaps = tuple(
                tuple(_frac(v) for v in vm) for vm in values
            )
            for r, vm in zip(arities, vmaps):
                if len(vm) != r:
                    raise ValueError("value map length must equal the arity")
        return cls(arities, vmaps)

    @classmethod
    def binary(cls, n: int, values: Sequence[Sequence] | None = None) -> StateSpace:
        return cls.of([2] * n, values)

    @property
    def n(self) -> int:
        return len(self.arities)

    @property
    def size(self) -> int:
        out = 1
        for r in self.arities:
            out *= r
        return out

    def states(self) -> Iterator[Exponent]:
        return itertools.product(*[range(r) for r in self.arities])

    def value(self, variable: int, level: int) -> Fraction:
        """Value of 1-based variable at a level."""
        return self.values[variable - 1][level]

    def index_multiset(self, x: Exponent) -> tuple[int, ...]:
        """The sorted multiset of 1-based variable indices that x aliases."""
        out: list[int] = []
        for i, count in enumerate(x):
            out.extend([i + 1] * count)
        return tuple(out)

    def exponent_of(self, multiset: Iterable[int]) -> Exponent:
        x = [0] * self.n
        for i in multiset:
            x[i - 1] += 1
        for count, r in zip(x, self.arities):
            if count >= r:
                raise ValueError(f"multiplicity {count} outside the box of arities {self.arities}")
        return tuple(x)

    def has_default_values(self) -> bool:
        return all(vm == tuple(Fraction(k) for k in range(r)) for vm, r in zip(self.values, self.arities))


class DiscreteDistribution:
    """An exact table over the box; must sum to one.

    ``algebraic=True`` admits signed entries; the default probabilistic
    mode insists on nonnegativity.
    """

    __slots__ = ("space", "table", "algebraic")

    def __init__(self, space: StateSpace, table: Mapping[Exponent, Fraction], algebraic: bool = False):
        full: dict[Exponent, Fraction] = {}
        for x in space.states():
            p = _frac(table.get(x, 0))
            if not algebraic and p < 0:
                raise ValueError(f"negative mass {p} at {x}; use algebraic=True for signed tables")
            full[x] = p
        ints, scale = _scaled_integers(full.items())
        total = sum(ints.values())
        if total != scale:
            raise ValueError(f"table sums to {Fraction(total, scale)}, not 1")
        extra = set(table) - set(full)
        if extra:
            raise ValueError(f"states outside the box: {sorted(extra)[:3]}")
        self.space = space
        self.table = full
        self.algebraic = algebraic

    def p(self, x: Exponent) -> Fraction:
        return self.table[x]

    @classmethod
    def point_mass(cls, space: StateSpace, x: Exponent) -> DiscreteDistribution:
        return cls(space, {x: Fraction(1)})

    @classmethod
    def uniform(cls, space: StateSpace) -> DiscreteDistribution:
        w = Fraction(1, space.size)
        return cls(space, {x: w for x in space.states()})

    @classmethod
    def product(cls, space: StateSpace, marginals: Sequence[Sequence[Fraction]]) -> DiscreteDistribution:
        table = {}
        for x in space.states():
            p = Fraction(1)
            for level, m in zip(x, marginals):
                p *= _frac(m[level])
            table[x] = p
        return cls(table=table, space=space)

    def expectation(self, fn: Callable[[Exponent], Fraction]) -> Fraction:
        return sum((p * fn(x) for x, p in self.table.items()), Fraction(0))

    def raw_moment(self, multiset: Iterable[int]) -> Fraction:
        """E of the product of values over an arbitrary index multiset.

        Repeats beyond the box exponent range are fine here: the value of
        each variable is just raised to the multiplicity.
        """
        counts: dict[int, int] = {}
        for i in multiset:
            counts[i] = counts.get(i, 0) + 1
        total = Fraction(0)
        for x, p in self.table.items():
            if p == 0:
                continue
            term = p
            for i, c in counts.items():
                term *= self.space.value(i, x[i - 1]) ** c
            total += term
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiscreteDistribution)
            and self.space == other.space
            and self.table == other.table
        )

    def to_json(self) -> dict:
        out: dict = {"arities": list(self.space.arities)}
        if not self.space.has_default_values():
            out["values"] = [[str(v) for v in vm] for vm in self.space.values]
        out["table"] = {
            ",".join(str(c) for c in x): str(p) for x, p in sorted(self.table.items())
        }
        if self.algebraic:
            out["algebraic"] = True
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> DiscreteDistribution:
        space, table = _space_and_table(data)
        return cls(space, table, algebraic=bool(data.get("algebraic", False)))


@dataclass(frozen=True)
class CoordinateVector:
    """Exact coordinates over the box, tagged with their system.

    ``system`` is one of the module tags; cumulant-like systems carry the
    lattice family that produced them in ``family`` (tree families embed
    their topology there).
    """

    space: StateSpace
    system: str
    entries: Mapping[Exponent, Fraction]
    family: object | None = None

    def __post_init__(self):
        # Lazy: on a huge box with a small table, a missing state turns up
        # among the first len(entries) + 1 states.
        missing = next((x for x in self.space.states() if x not in self.entries), None)
        if missing is not None:
            raise ValueError(f"missing entries, e.g. {missing}")
        if len(self.entries) != self.space.size:
            extra = set(self.entries) - set(self.space.states())
            raise ValueError(f"states outside the box: {sorted(extra)[:3]}")

    def __getitem__(self, x: Exponent) -> Fraction:
        return self.entries[x]

    def of_multiset(self, multiset: Iterable[int]) -> Fraction:
        return self.entries[self.space.exponent_of(multiset)]

    def to_json(self) -> dict:
        out: dict = {"arities": list(self.space.arities), "system": self.system}
        if not self.space.has_default_values():
            out["values"] = [[str(v) for v in vm] for vm in self.space.values]
        if self.family is not None:
            out["family"] = str(self.family)
        out["table"] = {
            ",".join(str(c) for c in x): str(v) for x, v in sorted(self.entries.items())
        }
        return out

    @classmethod
    def from_json(cls, data: Mapping, family: object | None = None) -> CoordinateVector:
        space, entries = _space_and_table(data)
        return cls(space, data["system"], entries, family=family)


def _space_and_table(data: Mapping) -> tuple[StateSpace, dict[Exponent, Fraction]]:
    """Read the shared JSON layout: arities, optional values, a state table.

    A field of the wrong JSON type raises ValueError, as a bad value does.
    """
    table = data["table"]
    if not isinstance(table, Mapping):
        raise ValueError(f"'table' must map states such as \"0,1\" to values, not a {type(table).__name__}")
    try:
        space = StateSpace.of(
            data["arities"],
            [[Fraction(v) for v in vm] for vm in data["values"]] if "values" in data else None,
        )
        entries = {tuple(int(c) for c in key.split(",")): Fraction(value) for key, value in table.items()}
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed arities, values or table: {exc}") from None
    return space, entries


def vector_from_distribution(dist: DiscreteDistribution) -> CoordinateVector:
    return CoordinateVector(dist.space, PROBABILITIES, dict(dist.table))


def distribution_from_vector(vec: CoordinateVector, algebraic: bool = False) -> DiscreteDistribution:
    if vec.system != PROBABILITIES:
        raise ValueError(f"expected probabilities, got {vec.system}")
    return DiscreteDistribution(vec.space, dict(vec.entries), algebraic=algebraic)


# -- raw moments -----------------------------------------------------------


# An integer matrix with its scale: the rows of ``scale * matrix``.
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]


def _scaled_matrix(matrix: Sequence[Sequence[Fraction]]) -> ScaledMatrix:
    """A matrix as integer rows over the lcm of its entries' denominators."""
    ints, scale = _scaled_integers(
        (((k, l), v) for k, row in enumerate(matrix) for l, v in enumerate(row)), "matrix entry"
    )
    return tuple(tuple(ints[k, l] for l in range(len(row))) for k, row in enumerate(matrix)), scale


def _per_axis(
    space: StateSpace, data: Mapping[Exponent, Fraction], matrices: Iterable[ScaledMatrix]
) -> dict[Exponent, Fraction]:
    """Apply one r_i x r_i matrix along each axis of the box in turn.

    After axis i, the entry at x is the sum over levels l of
    ``matrices[i][x_i][l]`` times the entry at x with x_i set to l, so the
    whole pass costs O(|box| * sum r_i) products.  The map is linear in
    the data and in each matrix, so it runs on integers: the data scaled
    by the lcm of its denominators, each matrix given scaled
    (:func:`_scaled_matrix`) and read after the data are scaled.  One
    division by the product of the scales per entry gives the exact
    result.

    The data is one flat list in product order, so the slowest axis splits
    it into r contiguous segments, one per level.  Each row of the matrix
    combines the segments, and the new segments are interleaved, so that
    axis becomes the fastest.  The next axis is then the slowest, and after
    the last one the product order is back.
    """
    states = list(space.states())
    ints, denominator = _scaled_integers((x, data[x]) for x in states)
    flat = list(ints.values())
    for rows, scale in matrices:
        denominator *= scale
        r = len(rows)
        length = len(flat) // r
        segments = [flat[level * length : (level + 1) * length] for level in range(r)]
        for k, row in enumerate(rows):
            total = [0] * length
            for coeff, segment in zip(row, segments):
                if coeff:
                    scaled = segment if coeff == 1 else map(mul, segment, itertools.repeat(coeff))
                    total = list(map(add, total, scaled))
            flat[k::r] = total
    return {x: Fraction(v, denominator) for x, v in zip(states, flat)}


def _vandermonde(values: Sequence[Fraction]) -> list[list[Fraction]]:
    """Row k holds the k-th powers of the level values."""
    return [[v**k for v in values] for k in range(len(values))]


# The value-map matrices are cached per value tuple, scaled to integers.
# The default values 0..r-1 of every arity share one entry, so a session
# holds one per arity and per rational value map it uses.
VALUE_MAP_CACHE_SIZE = 256


@lru_cache(maxsize=VALUE_MAP_CACHE_SIZE)
def _moment_matrix(values: tuple[Fraction, ...]) -> ScaledMatrix:
    """The Vandermonde matrix of the level values, scaled."""
    return _scaled_matrix(_vandermonde(values))


@lru_cache(maxsize=VALUE_MAP_CACHE_SIZE)
def _inverse_moment_matrix(values: tuple[Fraction, ...]) -> ScaledMatrix:
    """The inverse of the Vandermonde matrix of injective level values, scaled."""
    return _scaled_matrix(_invert(_vandermonde(values)))


def _shift_matrix(r: int, scale: Fraction, shift: Fraction) -> list[list[Fraction]]:
    """Row k holds the coefficients of v^j in (scale*v + shift)^k."""
    return [
        [Fraction(comb(k, j)) * scale**j * shift ** (k - j) if j <= k else Fraction(0) for j in range(r)]
        for k in range(r)
    ]


def moments_from_distribution(dist: DiscreteDistribution) -> CoordinateVector:
    """Raw moments over the box: entry at x is E of prod values^x.

    The moment map is the tensor product of the per-variable Vandermonde
    matrices, applied one axis at a time.
    """
    space = dist.space
    entries = _per_axis(space, dist.table, [_moment_matrix(vm) for vm in space.values])
    return CoordinateVector(space, MOMENTS, entries)


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix: value maps must be injective per variable")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def distribution_from_moments(mv: CoordinateVector, algebraic: bool = False) -> DiscreteDistribution:
    """Invert the moment map exactly; needs injective value maps."""
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    for i, (r, vm) in enumerate(zip(space.arities, space.values)):
        if len(set(vm)) != r:
            raise ValueError(f"variable {i + 1} has a non-injective value map")
    inverses = [_inverse_moment_matrix(vm) for vm in space.values]
    return DiscreteDistribution(space, _per_axis(space, mv.entries, inverses), algebraic=algebraic)


# -- central moments -------------------------------------------------------


def central_moments(mv: CoordinateVector) -> CoordinateVector:
    """Central moments from raw moments, one shift matrix per variable.

    Expanding prod (X_i - m_i)^{x_i} binomially writes each central moment
    as a combination of raw moments at componentwise-smaller exponents, and
    that combination is the tensor product of the per-variable matrices of
    :func:`_shift_matrix` with scale 1 and shift -m_i.  The zero exponent
    is set to 1 and first-order indices to 0 whatever the raw entries hold.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    units = [_unit(space.n, i) for i in range(space.n)]
    # Lazy: _per_axis scales the data first, so a float moment is named by its state.
    matrices = (_scaled_matrix(_shift_matrix(r, Fraction(1), -mv.entries[u])) for r, u in zip(space.arities, units))
    entries = _per_axis(space, mv.entries, matrices)
    entries[(0,) * space.n] = Fraction(1)
    for u in units:
        entries[u] = Fraction(0)
    return CoordinateVector(space, CENTRAL_MOMENTS, entries)


def _unit(n: int, i: int) -> Exponent:
    return tuple(1 if j == i else 0 for j in range(n))


# -- marginals and conditioning ---------------------------------------------


def marginal(dist: DiscreteDistribution, variables: Sequence[int]) -> DiscreteDistribution:
    """Marginal over the given 1-based variables, in increasing order."""
    variables = sorted(set(variables))
    if not variables:
        raise ValueError("need at least one variable")
    space = dist.space
    sub = StateSpace(
        tuple(space.arities[i - 1] for i in variables),
        tuple(space.values[i - 1] for i in variables),
    )
    table: dict[Exponent, Fraction] = {}
    for x, p in dist.table.items():
        key = tuple(x[i - 1] for i in variables)
        table[key] = table.get(key, Fraction(0)) + p
    return DiscreteDistribution(sub, table, algebraic=dist.algebraic)


def conditional_moments(
    dist: DiscreteDistribution,
    multiset: Sequence[int],
    given: Sequence[int],
) -> dict[Exponent, Fraction | None]:
    """Conditional moment of an index multiset given the variables in C.

    Returns a map from each C-configuration to the conditional expectation
    of the product over the multiset; configurations with zero marginal
    mass map to None.
    """
    given = sorted(set(given))
    if set(multiset) & set(given):
        raise ValueError("the conditioned product and the conditioning set overlap")
    counts: dict[int, int] = {}
    for i in multiset:
        counts[i] = counts.get(i, 0) + 1
    space = dist.space
    mass: dict[Exponent, Fraction] = {}
    accum: dict[Exponent, Fraction] = {}
    for x, p in dist.table.items():
        key = tuple(x[i - 1] for i in given)
        mass[key] = mass.get(key, Fraction(0)) + p
        term = p
        for i, c in counts.items():
            term *= space.values[i - 1][x[i - 1]] ** c
        accum[key] = accum.get(key, Fraction(0)) + term
    return {key: (accum[key] / m if m != 0 else None) for key, m in mass.items()}


# -- affine value changes ----------------------------------------------------


def transform_values(
    mv: CoordinateVector,
    scale: Sequence | None = None,
    shift: Sequence | None = None,
) -> CoordinateVector:
    """Moments of the componentwise image scale*X + shift.

    Works on the moment coordinates, one :func:`_shift_matrix` per
    variable, not by touching any table, so it applies to algebraic points
    as well.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    matrices = [
        _scaled_matrix(
            _shift_matrix(
                r,
                _frac(scale[i]) if scale is not None else Fraction(1),
                _frac(shift[i]) if shift is not None else Fraction(0),
            )
        )
        for i, r in enumerate(space.arities)
    ]
    return CoordinateVector(space, MOMENTS, _per_axis(space, mv.entries, matrices))


# -- independence ------------------------------------------------------------


def factorizes_over(mv: CoordinateVector, pi0: SetPartition) -> bool:
    """Whether every moment splits as the product over pi0's blocks.

    Position j of pi0 is variable j+1; this is the moment formulation of
    joint block independence.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    if pi0.size != space.n:
        raise ValueError("partition size must match the number of variables")
    for x in space.states():
        product = Fraction(1)
        for block in pi0.blocks:
            masked = tuple(x[i] if i in block else 0 for i in range(space.n))
            product *= mv.entries[masked]
        if mv.entries[x] != product:
            return False
    return True
