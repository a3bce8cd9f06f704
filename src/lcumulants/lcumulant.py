"""Moment/cumulant transforms over a chosen partition-lattice family.

The forward map sends raw moments to lattice cumulants: the coordinate of
an index multiset A is the Moebius-to-top weighted sum, over the family
lattice on A's positions, of products of moments over blocks.  Choosing
the full lattice gives classical cumulants, interval partitions give
Boolean cumulants, non-crossing partitions give free cumulants, one
cluster partitions give central moments, and tree partitions give the
coordinates adapted to latent tree models.

Every family here has the blockwise product property (C0), so the
moments are the zeta sums of cumulant products, and splitting off the
block B that holds A's first position gives the first-block recursion
``m(A) = kappa(A) + sum over proper B of kappa(B) * prod over S of m(S)``
with S running over ``lattice.first_blocks``.  Both transforms run this
one loop by increasing index size: the forward map solves it for
kappa(A), the inverse for m(A).  It visits about 2^(|A|-1) first blocks
per index instead of the Bell-many lattice elements, and builds neither
a lattice nor a Moebius table.  The cumulants are multilinear, so
scaling every variable by d scales each coordinate of A by d^|A|; the
loop runs on the integers d^|A| * given(A), the graded form that the
input vector holds, and returns the graded form of the other system with
the same d.  The output vector keeps that form, so the inverse of a
forward map, or the moment map's output fed forward, starts from the
integers the previous call made.
The loop's shape depends only on the family and the box: the states in
index-size order, the stride of each one's last position, and their
tables.  That plan is cached in a process LRU keyed by ``(family,
arities)``, so a warm transform reads no table per index; only the
numbers change per call.  The family and the cap are checked on every
call, before the cache is read.  The tables hold position sets as
bitmasks, and each state lists the box positions of its sub-multisets
once, so a term reads its entries by bitmask with no sum of strides.
The one-cluster family needs no loop: its cumulants are the means and
the central moments, so both of its transforms are one per-axis shift
by the means, the centring kernel of :func:`moments.central_moments`.

The paper's other formulas are compositions of the two transforms.  The
classical-cumulant bridge: the classical cumulants fix the moments, and
the moments fix the family cumulants.  The conditional cumulant
(Brillinger) formula: the conditional cumulants fix the conditional
moments, their average over Y is the mixture's moments, and the forward
map gives the mixture's cumulants, which the formula equals on the
families with the coarsening property (C3).  A cumulant-tensor entry and
the conditional-independence collapse are the top entry of the forward
recursion on a binary box over d positions, filled with the moments of
their subsets (:func:`_top_cumulant`).  Also here: the multilinear
transformation law of tensors, shift (semi-)invariance, and detection of
independence structure from vanishing coordinates, a descent over the
same first-block tables.  Nothing in this module builds a lattice order
or reads a Moebius table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from .lattice import (
    FULL,
    INTERVAL,
    ONECLUSTER,
    TREE,
    Family,
    FirstBlockMasks,
    _cached_first_blocks,
    _ground_labels,
    _positions,
    _table_key,
    first_blocks,
)
from .moments import (
    CLASSICAL_CUMULANTS,
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _Graded,
    _shift_by,
    _strides,
    distribution_from_moments,
)
from .partition import DEFAULT_CAPACITY, SetPartition, _Frozen, _Value
from .topology import is_caterpillar

MomentFunction = Callable[[Sequence[int]], Fraction]


class UnsupportedFamilyError(ValueError):
    """The requested operation is not defined for this lattice family."""


def _ground_of(fam: Family, space: StateSpace) -> Callable[[Sequence[int]], int | tuple[int, ...]]:
    """An index's ground set: its size, or for a tree its leaves (a binary box's index)."""
    if fam.size_indexed:
        return len
    if any(r != 2 for r in space.arities):
        raise UnsupportedFamilyError("tree families require a binary state space")
    assert fam.tree is not None
    if set(range(1, space.n + 1)) - set(fam.tree.leaves):
        raise UnsupportedFamilyError("tree leaves must cover the variables")
    return tuple


def _check_box(fam: Family, space: StateSpace, capacity: int | None) -> None:
    """Check the family against the box, and the cap against its largest index.

    Every index of the box lies inside the largest, so that one check
    covers them all.  Every transform runs it first, before any cache is
    read or any work is done, so the check rests on no cache key.
    """
    ground = _ground_of(fam, space)
    largest = space.index_multiset(tuple(r - 1 for r in space.arities))
    if largest:
        _ground_labels(fam, ground(largest), capacity)


# Solve plans live for the whole process, keyed by the family and the
# arities, so the forward and inverse transforms of a box share one.  The
# api-session mix reads 19 size-indexed plans per pass and one per tree
# labelling; 32 keep them warm.  A plan on a 12-variable binary box holds
# 0.4 MiB of its own (tracemalloc).  It also holds its mask tables, so a
# tree plan keeps them alive after the table LRU drops them: 14.2 MiB for
# the relabelled balanced 12-leaf tree of ``FIRST_BLOCK_CACHE_SIZE``.
PLAN_CACHE_SIZE = 32


class _SolvePlan(NamedTuple):
    """The shape of the first-block recursion on one box.

    ``sizes`` holds every state's index size in product order.  ``order``
    holds ``(code, stride, table)`` for every nonzero state by increasing
    index size: the state's position in the box, the stride of its last
    position, and its :func:`lattice.first_blocks` table.
    """

    sizes: tuple[int, ...]
    order: tuple[tuple[int, int, FirstBlockMasks], ...]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(fam: Family, arities: tuple[int, ...]) -> _SolvePlan:
    """The plan of ``fam`` on the box, with one pass over the splits per state.

    The caller has run :func:`_check_box`.  A state's head is the state
    without its last position, one stride down in the box.  Each split
    side's bitmask of the state's positions is its head's with that
    position added, and the bitmasks give its table key
    (:func:`lattice._table_key`).
    """
    states = list(StateSpace.of(arities).states())  # product order: a state's position is its code
    strides = _strides(arities)
    sizes = tuple(map(sum, states))
    splits = fam.splits  # leaf-label bitmasks, empty for size-indexed families
    grown = {0: [0] * len(splits)}  # code: the split sides' position bitmasks
    order = []
    for code in sorted(range(1, len(states)), key=sizes.__getitem__):
        x, i = states[code], len(arities) - 1
        while not x[i]:  # i becomes the variable of the last position
            i -= 1
        size, stride = sizes[code], strides[i]
        bit, label = 1 << (size - 1), 1 << (i + 1)
        masks = [mask | bit if side & label else mask for mask, side in zip(grown[code - stride], splits)]
        grown[code] = masks
        order.append((code, stride, _cached_first_blocks(fam.kind, _table_key(size, masks))))
    return _SolvePlan(sizes, tuple(order))


def _centring_solve(space: StateSpace, given: _Graded, forward: bool) -> _Graded:
    """The one-cluster transforms, as one per-axis shift.

    The one-cluster cumulants are the means at order 1 and the central
    moments at order 2 and up, and :func:`moments._shift_by` moves every
    variable by its mean.  Forward: m(0), which the recursion never reads,
    is read as 1, the shift by minus the means gives the central moments,
    and the zero state and the unit states take 0 and the means.  Inverse:
    kappa(0) is read as 1 and the unit states as 0, which are the central
    moments there, and the shift by plus the means gives the moments.  The
    result is graded by c and c*d.
    """
    nums, sizes, d, c = given
    units = _strides(space.arities)
    means = [nums[u] for u in units]
    nums = list(nums)
    nums[0] = c
    if forward:
        solved = _shift_by(space.arities, nums, c, [-mean for mean in means])
        solved[0] = 0
        for u, mean in zip(units, means):
            solved[u] = c * mean  # the mean, regraded from c*d to c * (c*d)
    else:
        for u in units:
            nums[u] = 0
        solved = _shift_by(space.arities, nums, c, means)
    return _Graded(solved, sizes, c * d, c)


def _first_block_solve(space: StateSpace, given: _Graded, fam: Family, capacity: int | None, forward: bool) -> _Graded:
    """Solve the first-block recursion for every state of the box.

    ``given`` holds the moments when ``forward`` and the cumulants
    otherwise; the other system is returned.  The family and the cap are
    checked first (:func:`_check_box`).  The one-cluster family has the
    recursion's solution in closed form, :func:`_centring_solve`, so it
    reads no table.  Every other family reads its tables through the
    cached plan of :func:`_cached_plan`.  States are visited by
    increasing index size, so every kappa(B) and m(S) the recursion reads
    for a proper B or S is known by then.  A sub-multiset is looked up by
    its position in the box, the sum of its positions' strides, in a list
    of all 2^|A| of them that the table's bitmasks index.  A's list is the
    list of A without its last position, followed by the same list shifted
    by that position's stride, so each state's list is built once from one
    of the previous index size, and only those two sizes are kept.

    The recursion runs on the graded numerators.  Scaling every variable
    by d scales m(A) and kappa(A) by d^|A|, and every term for A has
    degree |A|, since B and the parts of rest(A, B) partition A.  So the
    numerators of one grading d solve to numerators of the same d.  A
    common scale c of the given form is folded into the grading first:
    (c*d)^|A| times an entry is its numerator times c^(|A| - 1).  The
    zero state is never read; it is solved as 0 (forward) or 1.
    """
    _check_box(fam, space, capacity)
    if fam.kind == ONECLUSTER:
        return _centring_solve(space, given, forward)
    sizes, order = _cached_plan(fam, space.arities)
    known, _, d, common = given  # read, never written
    if common != 1:
        fold = [0] + [common**k for k in range(max(sizes))]
        known = list(map(mul, known, map(fold.__getitem__, sizes)))
    solved = [0] * len(sizes)
    solved[0] = 0 if forward else 1  # the zero exponent
    moments, cumulants = (known, solved) if forward else (solved, known)
    below, level, level_size = {0: [0]}, {}, 1  # code lists one index size down, and of this size
    for code, s, table in order:
        if sizes[code] > level_size:
            below, level, level_size = level, {}, sizes[code]
        head = below[code - s]  # A without its last position
        codes = level[code] = head + [c + s for c in head]
        lower = 0
        for block, rest in table:
            term = cumulants[codes[block]]
            if not term:  # on central moments every singleton block is 0
                continue
            for part in rest:
                term *= moments[codes[part]]
            lower += term
        solved[code] = known[code] - lower if forward else known[code] + lower
    return _Graded(solved, sizes, common * d, 1)


def to_lcumulants(
    mv: CoordinateVector,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
    system: str = LCUMULANTS,
) -> CoordinateVector:
    """Forward transform: raw moments to the family's cumulants.

    kappa(A) is m(A) minus the first-block terms of its proper blocks.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    form = _first_block_solve(mv.space, mv._integers(), fam, capacity, forward=True)
    return CoordinateVector._of_integers(mv.space, system, form, family=fam)


def classical_cumulants(mv: CoordinateVector, capacity: int | None = DEFAULT_CAPACITY) -> CoordinateVector:
    return to_lcumulants(mv, Family(FULL), capacity, system=CLASSICAL_CUMULANTS)


def from_lcumulants(
    lv: CoordinateVector,
    fam: Family | None = None,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CoordinateVector:
    """Inverse transform: the family's cumulants back to raw moments.

    m(A) is kappa(A) plus the first-block terms of its proper blocks, each
    a cumulant times moments of strictly smaller indices, so the moments
    are solved for exactly by increasing index size.
    """
    if lv.system not in (LCUMULANTS, CLASSICAL_CUMULANTS):
        raise ValueError(f"expected a cumulant system, got {lv.system}")
    fam = fam if fam is not None else lv.family  # type: ignore[assignment]
    if not isinstance(fam, Family):
        raise ValueError("the cumulant vector does not carry its family; pass one")
    form = _first_block_solve(lv.space, lv._integers(), fam, capacity, forward=False)
    return CoordinateVector._of_integers(lv.space, MOMENTS, form)


def l_from_classical(
    kv: CoordinateVector,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CoordinateVector:
    """Family cumulants as sums of products of classical cumulants.

    The paper's sum runs over the partitions that see no family element
    between themselves and the top.  It equals the composition of the two
    transforms: the classical cumulants fix the moments, and the moments
    fix the family cumulants.  The full family therefore returns its input.
    """
    if kv.system != CLASSICAL_CUMULANTS:
        raise ValueError(f"expected classical cumulants, got {kv.system}")
    return to_lcumulants(from_lcumulants(kv, Family(FULL), capacity), fam, capacity)


# -- cumulant tensors ---------------------------------------------------------


class CumulantTensor(_Frozen):
    """Dense order-d tensor of cumulants over 1-based variable tuples."""

    _fields = ("order", "n", "entries")

    def __init__(self, order: int, n: int, entries: Mapping[tuple[int, ...], Fraction]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, idx: tuple[int, ...]) -> Fraction:
        return self.entries[idx]


def _moment_function(source, n: int | None = None) -> tuple[MomentFunction, int]:
    if isinstance(source, DiscreteDistribution):
        return source.raw_moment, source.space.n
    if isinstance(source, CoordinateVector):
        if source.system != MOMENTS:
            raise ValueError(f"expected moments, got {source.system}")
        dist = distribution_from_moments(source, algebraic=True)
        return dist.raw_moment, source.space.n
    if callable(source):
        if n is None:
            raise ValueError("a bare moment function needs the variable count")
        return source, n
    raise TypeError(f"cannot read moments from {type(source).__name__}")


def _top_cumulant(d: int, moment_of: MomentFunction, fam: Family, capacity: int | None) -> Fraction:
    """The family cumulant of d positions, from the moments of their subsets.

    ``moment_of`` takes the 0-based positions of a nonempty subset in
    increasing order.  Its moments fill a binary box over the positions,
    one exponent per subset and 1 at the zero exponent, and the forward
    recursion runs on it.  The family and the cap are checked before the
    2^d box is filled.
    """
    space = StateSpace.binary(d)
    _check_box(fam, space, capacity)
    entries = {
        x: moment_of([j for j, e in enumerate(x) if e]) if any(x) else Fraction(1) for x in space.states()
    }
    return to_lcumulants(CoordinateVector(space, MOMENTS, entries), fam, capacity).entries[(1,) * d]


def cumulant_tensor(
    source,
    fam: Family,
    order: int,
    n: int | None = None,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CumulantTensor:
    """Order-d tensor whose entry at (i1..id) is the family cumulant of those positions.

    Index tuples may repeat and permute variables, so the moments of
    arbitrary powers are taken from the source distribution (or moment
    function) rather than from box-aliased coordinates.  Tree families are
    not size-indexed and are rejected.
    """
    if not fam.size_indexed:
        raise UnsupportedFamilyError(
            "cumulant tensors need one lattice per order; tree families are tied to leaf sets"
        )
    if order < 1:
        raise ValueError(f"tensor order must be at least 1, got {order}")
    moment_fn, n = _moment_function(source, n)
    entries = {
        idx: _top_cumulant(order, lambda positions: moment_fn([idx[j] for j in positions]), fam, capacity)
        for idx in itertools.product(range(1, n + 1), repeat=order)
    }
    return CumulantTensor(order, n, entries)


def _expand(rows: list[tuple[Fraction, ...]], n: int, idx: Sequence[int], value_of: MomentFunction) -> Fraction:
    """``sum over js of prod over k of rows[i_k][j_k] * value_of(js)``, for ``idx = (i_1, ...)``.

    Each j_k runs over 1..n.  A js whose coefficient is zero is skipped
    without reading its value.
    """
    total = Fraction(0)
    for js in itertools.product(range(1, n + 1), repeat=len(idx)):
        coeff = Fraction(1)
        for i, j in zip(idx, js):
            coeff *= rows[i - 1][j - 1]
            if coeff == 0:
                break
        if coeff:
            total += coeff * value_of(js)
    return total


def multilinear_action(Q: Sequence[Sequence], tensor: CumulantTensor) -> CumulantTensor:
    """Contract each tensor slot with the rows of Q."""
    rows = [tuple(Fraction(v) for v in row) for row in Q]
    m = len(rows)
    if any(len(row) != tensor.n for row in rows):
        raise ValueError("matrix width must match the tensor dimension")
    entries = {
        idx: _expand(rows, tensor.n, idx, tensor.entries.__getitem__)
        for idx in itertools.product(range(1, m + 1), repeat=tensor.order)
    }
    return CumulantTensor(tensor.order, m, entries)


def linear_image_moments(Q: Sequence[Sequence], source, n: int | None = None) -> MomentFunction:
    """Moment function of the linear image QX by multilinear expansion."""
    rows = [tuple(Fraction(v) for v in row) for row in Q]
    moment_fn, n = _moment_function(source, n)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix width must match the variable count")
    return lambda multiset: _expand(rows, n, tuple(multiset), moment_fn)


# -- shift invariance ---------------------------------------------------------


class ShiftReport(_Value):
    """The outcome of :func:`shift_invariance_check`, with each coordinate that moved."""

    _fields = ("family", "shift", "first_order_ok", "invariant", "mismatches")
    __hash__ = None

    def __init__(
        self,
        family: Family,
        shift: tuple[Fraction, ...],
        first_order_ok: bool,
        invariant: bool,
        mismatches: list[tuple[tuple[int, ...], Fraction, Fraction]],
    ):
        self.family = family
        self.shift = shift
        self.first_order_ok = first_order_ok
        self.invariant = invariant
        self.mismatches = mismatches


def shift_invariance_check(
    mv: CoordinateVector,
    fam: Family,
    shift: Sequence,
    capacity: int | None = DEFAULT_CAPACITY,
) -> ShiftReport:
    """Compare the family cumulants of X and X + shift.

    Families containing every single-element split leave all coordinates
    of order two and higher unchanged; the interval family does not, and
    the report then carries the violating indices.
    """
    from .moments import transform_values

    shift_f = tuple(Fraction(a) for a in shift)
    before = to_lcumulants(mv, fam, capacity)
    after = to_lcumulants(transform_values(mv, shift=shift_f), fam, capacity)
    first_ok = True
    mismatches = []
    for x in mv.space.states():
        d = sum(x)
        if d == 1:
            i = x.index(1)
            if after.entries[x] != before.entries[x] + shift_f[i]:
                first_ok = False
        elif d >= 2 and after.entries[x] != before.entries[x]:
            mismatches.append((x, before.entries[x], after.entries[x]))
    return ShiftReport(fam, shift_f, first_ok, not mismatches, mismatches)


# -- independence structure ---------------------------------------------------


def _support_components(lv: CoordinateVector) -> list[int]:
    """delta: the components of the supports of the nonzero coordinates, as disjoint position bitmasks."""
    components = [1 << i for i in range(lv.space.n)]
    for x, value in lv.entries.items():
        support = sum(1 << i for i, e in enumerate(x) if e) if value else 0
        if support:
            components = [c for c in components if not c & support] + [sum(c for c in components if c & support)]
    return components


def vanishes_outside(lv: CoordinateVector, pi0: SetPartition) -> bool:
    """True iff every coordinate whose support leaves a block of pi0 is 0:
    iff every component of delta lies inside one block."""
    if pi0.size != lv.space.n:
        raise ValueError("partition size must match the number of variables")
    blocks = [sum(1 << i for i in block) for block in pi0.blocks]
    return all(any(c & b == c for b in blocks) for c in _support_components(lv))


def detect_independence_structure(
    lv: CoordinateVector,
    fam: Family | None = None,
    capacity: int | None = DEFAULT_CAPACITY,
) -> SetPartition:
    """Finest family partition certified by vanishing cumulants.

    The family is closed under meets, so this is its least element above
    delta; the top means no structure was detected.  Its first block lies
    in that of every element above delta.  So on each part, from the whole
    ground set down, the block is that of the first entry of the part's
    :func:`lattice.first_blocks` table (by increasing block size) whose
    parts hold every component, or the whole part if none does, and the
    descent goes on into the entry's rest.
    """
    if lv.system not in (LCUMULANTS, CLASSICAL_CUMULANTS):
        raise ValueError(f"expected a cumulant system, got {lv.system}")
    fam = fam if fam is not None else lv.family  # type: ignore[assignment]
    if not isinstance(fam, Family):
        raise ValueError("the cumulant vector does not carry its family; pass one")
    n = lv.space.n
    ground = _ground_of(fam, lv.space)
    first_blocks(fam, ground(tuple(range(1, n + 1))), capacity)  # the cap refuses before delta
    components = _support_components(lv)
    blocks, parts = [], [(1 << n) - 1]
    while parts:
        part = parts.pop()
        positions = _positions(part)  # the table's local position k is positions[k]
        local = [sum(1 << k for k, j in enumerate(positions) if c >> j & 1) for c in components if c & part]
        table = first_blocks(fam, ground(tuple(j + 1 for j in positions)), capacity)
        block, rest = next(
            ((b, r) for b, r in table if all(any(c & m == c for m in (b, *r)) for c in local)),
            ((1 << len(positions)) - 1, ()),
        )
        blocks.append([positions[k] for k in _positions(block)])
        parts += [sum(1 << positions[k] for k in _positions(r)) for r in rest]
    return SetPartition.from_blocks(blocks, n)


# -- conditional cumulants ----------------------------------------------------

_BRILLINGER_FAMILIES = "the full, interval, and caterpillar-tree families"


def _brillinger_supported(fam: Family) -> bool:
    if fam.kind in (FULL, INTERVAL):
        return True
    if fam.kind == TREE and fam.tree is not None and is_caterpillar(fam.tree):
        return True
    return False


def _y_table(y_dist) -> list[tuple[object, Fraction]]:
    """The mixing law as ``(y, p(y))`` pairs; it must be nonempty with mass 1."""
    if isinstance(y_dist, DiscreteDistribution):
        ys = [(x, p) for x, p in sorted(y_dist.table.items())]
    else:
        ys = [(y, Fraction(p)) for y, p in y_dist.items()]
    if not ys:
        raise ValueError("empty mixing distribution")
    total_mass = sum(p for _, p in ys)
    if total_mass != 1:
        raise ValueError(f"mixing weights sum to {total_mass}, not 1")
    return ys


def brillinger(
    y_dist,
    conditional_cumulants: Mapping,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CoordinateVector:
    """Unconditional cumulants from conditional ones over a mixing variable.

    The paper's formula sums, for each index, the conditional cumulants of
    the blocks of every partition, grouped into expectations over Y by the
    coarser partitions with their Moebius weights.  On the supported
    families the result is the cumulant of the mixture, so it is computed
    as one: each conditional cumulant vector is sent back to its moments,
    the moments are averaged over Y, and the forward map is applied once.
    """
    if not _brillinger_supported(fam):
        raise UnsupportedFamilyError(
            f"conditional cumulants are supported for {_BRILLINGER_FAMILIES}"
        )
    ys = _y_table(y_dist)
    cond = {y: conditional_cumulants[y] for y, _ in ys}
    space = next(iter(cond.values())).space
    if any(vec.space != space for vec in cond.values()):
        raise ValueError("conditional cumulant vectors live on different state spaces")
    mixed = dict.fromkeys(space.states(), Fraction(0))
    for y, p in ys:
        if p:
            for x, v in from_lcumulants(cond[y], fam, capacity).entries.items():
                mixed[x] += p * v
    return to_lcumulants(CoordinateVector(space, MOMENTS, mixed), fam, capacity)


def conditional_collapse(
    y_dist,
    conditional_means: Mapping,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
) -> Fraction:
    """Top cumulant when all variables are independent given Y.

    Equals the family cumulant of the vector of conditional means, whose
    joint moments m(S) = E_Y[prod over j in S of mean_j(Y)] are plain
    expectations over Y; valid for every family.
    """
    ys = _y_table(y_dist)
    means = {y: [Fraction(v) for v in conditional_means[y]] for y, _ in ys}
    n = len(next(iter(means.values())))
    if any(len(row) != n for row in means.values()):
        raise ValueError("conditional mean lists differ in length")

    def moment_of(positions: list[int]) -> Fraction:
        return sum((prod((means[y][j] for j in positions), start=p) for y, p in ys if p), Fraction(0))

    return _top_cumulant(n, moment_of, fam, capacity)
