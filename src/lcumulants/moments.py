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
variable's value tuple.

The integers are handed on rather than rebuilt.  A distribution keeps its
table as integers in product order over their least common denominator,
and checks them.  A coordinate vector keeps a graded form
(:class:`_Graded`): the entry of x is an integer over c * d^|x|.  Scaling
every variable by d scales each coordinate of x by d^|x|, so on the
graded form the shift matrices are integral (row k of a centring expands
(c*v - c*d*m_i)^k), and the moment map, run on level values scaled to
integers, gives the moments of the scaled vector, which are graded
already.  Each map reads its input's integers and builds its output from
its own; only a vector made from a caller's entries derives its form
from them, once, when a map first reads it.  :func:`_exact_parts` is the
one place where exact values become integers.  The other way round, a
vector a map returns builds its ``Fraction`` entries from its form the
first time they are read, so a chain of maps builds none for the vectors
it passes through; a distribution builds its table at once.

Conventions for the degenerate indices: the moment at the zero exponent is
1, central moments are 1 at the zero exponent and 0 on first-order
indices, and cumulant-type systems store 0 at the zero exponent.

Everything is immutable and pure; a signed table summing to one is allowed
when ``algebraic=True`` since no transform here uses nonnegativity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .partition import SetPartition, _Frozen

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


def _exact_parts(entries: Iterable[tuple[object, object]], what: str = "state") -> tuple[list[int], list[int]]:
    """Numerators and denominators of int or Fraction entries, in order.

    This is the one place where exact values are taken apart into
    integers.  A float or other inexact entry raises TypeError naming its
    key.
    """
    nums: list[int] = []
    dens: list[int] = []
    for key, value in entries:
        if isinstance(value, float):
            raise TypeError(f"{_FLOAT_MESSAGE}; got {value!r} at {what} {key}")
        try:
            nums.append(value.numerator)
            dens.append(value.denominator)
        except AttributeError:
            raise TypeError(f"expected an int or Fraction at {what} {key}, got {value!r}") from None
    return nums, dens


def _scaled_integers(entries: Iterable[tuple[object, object]], what: str = "state") -> tuple[list[int], int]:
    """Exact entries as integers over their least common denominator.

    Returns ``([numerator * (L // denominator), ...], L)`` in the order of
    the entries, so each entry is its integer divided by L.
    """
    nums, dens = _exact_parts(entries, what)
    scale = lcm(*dens)
    return [num * (scale // den) for num, den in zip(nums, dens)], scale


class _Graded(NamedTuple):
    """Exact coordinates over the box as integers, graded by index size.

    The entry of the state x at position k of the product order is
    ``nums[k] / (c * d**sizes[k])``, where ``sizes[k]`` is |x|, the size of
    the index multiset x aliases.  Scaling every variable by d scales a
    moment or cumulant of x by d^|x|, so the first-block recursion runs on
    these numerators unchanged.  c is a common scale: 1 on every vector
    the library computes from a table, since m(0) = 1 there.  A map of one
    box hands on the ``sizes`` it was given.
    """

    nums: list[int]
    sizes: Sequence[int]
    d: int
    c: int


def _graded_from_entries(space: StateSpace, entries: Mapping[Exponent, object]) -> _Graded:
    """The graded form of caller-supplied exact entries.

    c is the zero state's denominator.  d is grown once per distinct
    (denominator, index size) pair by the part of the denominator that
    d^size misses, so that every d^size is a multiple of the denominators
    of its size.
    """
    states, sizes = _box(space)
    nums, dens = _exact_parts((x, entries[x]) for x in states)
    c, d = dens[0], 1  # the zero state comes first in product order
    for den, size in dict.fromkeys(zip(dens, sizes)):
        if size:
            d *= den // gcd(den, d**size)
    scales = [c * d**size for size in range(max(sizes) + 1)]
    return _Graded([num * (scales[size] // den) for num, den, size in zip(nums, dens, sizes)], sizes, d, c)


def _box(space: StateSpace) -> tuple[list[Exponent], list[int]]:
    """The states in product order, and their index sizes."""
    states = list(space.states())
    return states, list(map(sum, states))


def _fractions(states: Iterable[Exponent], form: _Graded) -> dict[Exponent, Fraction]:
    """The entries of a graded form, keyed by the states in product order."""
    scales = [form.c * form.d**size for size in range(max(form.sizes) + 1)]
    return dict(zip(states, map(Fraction, form.nums, map(scales.__getitem__, form.sizes))))


class StateSpace(_Frozen):
    """Arities plus per-variable value maps (level -> value)."""

    _fields = ("arities", "values")

    def __init__(self, arities: tuple[int, ...], values: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "values", values)

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
    mode insists on nonnegativity.  The table is also kept as integers in
    product order over their common denominator, which the moment map
    reads.
    """

    __slots__ = ("space", "table", "algebraic", "_ints")

    def __init__(self, space: StateSpace, table: Mapping[Exponent, Fraction], algebraic: bool = False):
        full: dict[Exponent, Fraction] = {}
        for x in space.states():
            p = _frac(table.get(x, 0))
            if not algebraic and p.numerator < 0:
                raise ValueError(_negative_mass(p, x))
            full[x] = p
        extra = set(table) - set(full)
        if extra:
            raise ValueError(f"states outside the box: {sorted(extra)[:3]}")
        ints, scale = _scaled_integers(full.items())
        _check_sum(ints, scale)
        self._set(space, full, algebraic, ints, scale)

    @classmethod
    def _of_integers(cls, space: StateSpace, ints: list[int], scale: int, algebraic: bool) -> DiscreteDistribution:
        """The table ``ints / scale`` in product order, checked as ``__init__`` checks a table.

        The integers are kept over the least scale, the lcm of the table's
        denominators, as ``__init__`` keeps them.
        """
        g = gcd(scale, *ints)
        ints, scale = [v // g for v in ints], scale // g
        states = list(space.states())
        if not algebraic and min(ints) < 0:
            k = next(k for k, v in enumerate(ints) if v < 0)
            raise ValueError(_negative_mass(Fraction(ints[k], scale), states[k]))
        _check_sum(ints, scale)
        dist = cls.__new__(cls)
        dist._set(space, dict(zip(states, map(Fraction, ints, itertools.repeat(scale)))), algebraic, ints, scale)
        return dist

    def _set(
        self, space: StateSpace, table: dict[Exponent, Fraction], algebraic: bool, ints: list[int], scale: int
    ) -> None:
        self.space = space
        self.table = table
        self.algebraic = algebraic
        self._ints = (ints, scale)

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


def _negative_mass(p: Fraction, x: Exponent) -> str:
    return f"negative mass {p} at {x}; use algebraic=True for signed tables"


def _check_sum(ints: list[int], scale: int) -> None:
    total = sum(ints)
    if total != scale:
        raise ValueError(f"table sums to {Fraction(total, scale)}, not 1")


class CoordinateVector(_Frozen):
    """Exact coordinates over the box, tagged with their system.

    ``system`` is one of the module tags; cumulant-like systems carry the
    lattice family that produced them in ``family`` (tree families embed
    their topology there).

    A vector also holds its entries as a :class:`_Graded` integer form,
    which is what the transforms read.  The library's transforms build
    their vectors from the integers they computed and keep only those;
    the entries are built from them on the first read.  A vector built
    from a caller's entries derives its form from them the first time a
    transform reads it, so the entries must not change after that.  The
    form takes no part in ``==``, ``repr`` or :meth:`to_json`.
    """

    _fields = ("space", "system", "entries", "family")

    def __init__(
        self, space: StateSpace, system: str, entries: Mapping[Exponent, Fraction], family: object | None = None
    ):
        # Lazy: on a huge box with a small table, a missing state turns up
        # among the first len(entries) + 1 states.
        missing = next((x for x in space.states() if x not in entries), None)
        if missing is not None:
            raise ValueError(f"missing entries, e.g. {missing}")
        if len(entries) != space.size:
            extra = set(entries) - set(space.states())
            raise ValueError(f"states outside the box: {sorted(extra)[:3]}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "family", family)

    @classmethod
    def _of_integers(
        cls, space: StateSpace, system: str, form: _Graded, family: object | None = None
    ) -> CoordinateVector:
        """A vector the library computed, holding only its integer form.

        The form covers the box by construction, so the box check is not
        repeated, and the entries are left to :meth:`__getattr__`.
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "space", space)
        object.__setattr__(vec, "system", system)
        object.__setattr__(vec, "family", family)
        object.__setattr__(vec, "_form", form)
        return vec

    def __getattr__(self, name: str):
        """The entries of a computed vector, built from its form on the first read and then kept.

        Only a name missing from the instance lands here, so ``==``,
        ``repr``, :meth:`to_json`, ``copy`` and ``__replace__``
        read the entries through this as through a stored field.  Threads
        that race on the first read build equal dicts, and the last is kept.
        """
        form = self.__dict__.get("_form") if name == "entries" else None
        if form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        entries = _fractions(self.space.states(), form)
        object.__setattr__(self, "entries", entries)
        return entries

    def _integers(self) -> _Graded:
        """The integer form, derived from the entries on the first read."""
        form = self.__dict__.get("_form")
        if form is None:
            form = _graded_from_entries(self.space, self.entries)
            object.__setattr__(self, "_form", form)
        return form

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


# -- raw moments -----------------------------------------------------------


# An integer matrix with its scale: the rows of ``scale * matrix``.
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]


def _scaled_matrix(matrix: Sequence[Sequence[Fraction]]) -> ScaledMatrix:
    """A matrix as integer rows over the lcm of its entries' denominators."""
    ints, scale = _scaled_integers(
        (((k, l), v) for k, row in enumerate(matrix) for l, v in enumerate(row)), "matrix entry"
    )
    flat = iter(ints)
    return tuple(tuple(itertools.islice(flat, len(row))) for row in matrix), scale


def _strides(arities: Sequence[int]) -> list[int]:
    """The step in product order of each variable; the unit state of variable i sits at ``strides[i]``."""
    strides = [1] * len(arities)
    for i in range(len(arities) - 2, -1, -1):
        strides[i] = strides[i + 1] * arities[i + 1]
    return strides


def _per_axis(flat: Sequence[int], scale: int, matrices: Iterable[ScaledMatrix]) -> tuple[list[int], int]:
    """Apply one r_i x r_i matrix along each axis of the box in turn.

    ``flat`` holds the data in product order as integers over ``scale``.
    After axis i, the entry at x is the sum over levels l of
    ``matrices[i][x_i][l]`` times the entry at x with x_i set to l, so the
    whole pass costs O(|box| * sum r_i) products.  Each matrix is given as
    integer rows over its own scale, so the result is returned over the
    product of the scales, with no division.

    The slowest axis splits the list into r contiguous segments, one per
    level.  Each row of the matrix combines the segments, and the new
    segments are interleaved, so that axis becomes the fastest.  The next
    axis is then the slowest, and after the last one the product order is
    back.
    """
    flat = list(flat)
    for rows, factor in matrices:
        scale *= factor
        r = len(rows)
        length = len(flat) // r
        segments = [flat[level * length : (level + 1) * length] for level in range(r)]
        for k, row in enumerate(rows):
            total = None  # the sum of no segment yet; units are added or subtracted, not multiplied
            for coeff, segment in zip(row, segments):
                if not coeff:
                    continue
                if total is None:
                    total = segment if coeff == 1 else list(map(mul, segment, itertools.repeat(coeff)))
                elif coeff == 1:
                    total = list(map(add, total, segment))
                elif coeff == -1:
                    total = list(map(sub, total, segment))
                else:
                    total = list(map(add, total, map(mul, segment, itertools.repeat(coeff))))
            flat[k::r] = [0] * length if total is None else total
    return flat, scale


def _vandermonde(values: Sequence[Fraction]) -> list[list[Fraction]]:
    """Row k holds the k-th powers of the level values."""
    return [[v**k for v in values] for k in range(len(values))]


# The value-map matrices are cached per value tuple, scaled to integers:
# the moment map's by the level values times the lcm of their space's
# denominators, the inverse's by the level values.  The default values
# 0..r-1 of every arity share one entry, so a session holds one per arity
# and per rational value map it uses.
VALUE_MAP_CACHE_SIZE = 256


@lru_cache(maxsize=VALUE_MAP_CACHE_SIZE)
def _moment_matrix(values: tuple[Fraction, ...]) -> ScaledMatrix:
    """The Vandermonde matrix of the level values, scaled."""
    return _scaled_matrix(_vandermonde(values))


@lru_cache(maxsize=VALUE_MAP_CACHE_SIZE)
def _inverse_moment_matrix(values: tuple[Fraction, ...]) -> ScaledMatrix:
    """The inverse of the Vandermonde matrix of injective level values, scaled."""
    return _scaled_matrix(_invert(_vandermonde(values)))


def _shift_matrix(r: int, scale, shift) -> list[list]:
    """Row k holds the coefficients of v^j in (scale*v + shift)^k."""
    return [[comb(k, j) * scale**j * shift ** (k - j) if j <= k else 0 for j in range(r)] for k in range(r)]


def _shift_by(arities: Sequence[int], nums: Sequence[int], c: int, shifts: Sequence[int]) -> list[int]:
    """The centring kernel: move variable i by ``shifts[i] / (c*d)`` on a graded form.

    ``nums`` are the numerators of a form graded by c and d.  Row k of
    variable i expands (c*v + shifts[i])^k, one :func:`_shift_matrix` per
    axis, so the result is integral and graded by c and c*d.  Shifting by
    minus the first-order numerators centres every variable; shifting by
    plus them undoes it.
    """
    return _per_axis(nums, 1, [(_shift_matrix(r, c, shift), 1) for r, shift in zip(arities, shifts)])[0]


def moments_from_distribution(dist: DiscreteDistribution) -> CoordinateVector:
    """Raw moments over the box: entry at x is E of prod values^x.

    The moment map is the tensor product of the per-variable Vandermonde
    matrices, applied one axis at a time to the table's integers.  The
    level values are scaled by the lcm D of their denominators, so each
    matrix is integral and the pass gives the moments of D*X over the
    table's scale L: m(x) = flat / (L * D^|x|).  Graded with d = L * D,
    m(x) * d^|x| is flat times L^(|x| - 1), and m(0) = 1 is the table's
    sum.
    """
    space = dist.space
    level_ints, level_scale = _scaled_integers(enumerate(v for vm in space.values for v in vm), "level value")
    levels = iter(level_ints)
    matrices = [_moment_matrix(tuple(itertools.islice(levels, r))) for r in space.arities]
    flat, scale = _per_axis(*dist._ints, matrices)
    sizes = list(map(sum, space.states()))
    lift = [0] + [scale**size for size in range(max(sizes))]
    nums = list(map(mul, flat, map(lift.__getitem__, sizes)))
    nums[0] = 1
    return CoordinateVector._of_integers(space, MOMENTS, _Graded(nums, sizes, scale * level_scale, 1))


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
    """Invert the moment map exactly; needs injective value maps.

    The graded moments are brought over the one scale c * d^top, where top
    is the largest index size, and the inverse Vandermonde matrices run
    on those integers.  The table is checked as a caller's table is.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    for i, (r, vm) in enumerate(zip(space.arities, space.values)):
        if len(set(vm)) != r:
            raise ValueError(f"variable {i + 1} has a non-injective value map")
    inverses = [_inverse_moment_matrix(vm) for vm in space.values]
    nums, sizes, d, c = mv._integers()
    top = max(sizes)
    lift = [d ** (top - size) for size in range(top + 1)]
    flat = list(map(mul, nums, map(lift.__getitem__, sizes)))
    return DiscreteDistribution._of_integers(space, *_per_axis(flat, c * d**top, inverses), algebraic)


# -- central moments -------------------------------------------------------


def central_moments(mv: CoordinateVector) -> CoordinateVector:
    """Central moments from raw moments, one shift matrix per variable.

    Expanding prod (X_i - m_i)^{x_i} binomially writes each central moment
    as a combination of raw moments at componentwise-smaller exponents, and
    that combination is the tensor product of the per-variable matrices of
    :func:`_shift_matrix` with scale 1 and shift -m_i.  On the graded form
    it is integral: :func:`_shift_by` moves each variable by -M_i, where
    M_i = c * d * m_i is the first-order numerator.  The zero exponent is
    set to 1 and first-order indices to 0 whatever the raw entries hold.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    nums, sizes, d, c = mv._integers()
    units = _strides(space.arities)
    flat = _shift_by(space.arities, nums, c, [-nums[u] for u in units])
    flat[0] = c
    for u in units:
        flat[u] = 0
    return CoordinateVector._of_integers(space, CENTRAL_MOMENTS, _Graded(flat, sizes, c * d, c))


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
    as well.  With a_i = p_i / D and b_i = q_i / D over one denominator D,
    the graded form maps to integers graded by d * D: row k of variable i
    expands (p_i*v + d*q_i)^k.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    coefficients = [
        (
            _frac(scale[i]) if scale is not None else Fraction(1),
            _frac(shift[i]) if shift is not None else Fraction(0),
        )
        for i in range(space.n)
    ]
    ints, den = _scaled_integers(enumerate(v for pair in coefficients for v in pair), "coefficient")
    nums, sizes, d, c = mv._integers()
    matrices = [(_shift_matrix(r, ints[2 * i], d * ints[2 * i + 1]), 1) for i, r in enumerate(space.arities)]
    return CoordinateVector._of_integers(space, MOMENTS, _Graded(_per_axis(nums, 1, matrices)[0], sizes, d * den, c))


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
