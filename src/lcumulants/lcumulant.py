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
a lattice nor a Moebius table.

Also here: the classical-cumulant bridge, cumulant tensors with their
multilinear transformation law, shift (semi-)invariance, detection of
independence structure from vanishing coordinates, the conditional
cumulant (Brillinger) formula, and the conditional-independence collapse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .lattice import (
    FULL,
    INTERVAL,
    TREE,
    Family,
    FirstBlocks,
    PartitionLattice,
    build,
    first_blocks,
    mobius_weights,
)
from .moments import (
    CLASSICAL_CUMULANTS,
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    distribution_from_moments,
)
from .partition import DEFAULT_CAPACITY, SetPartition, all_partitions, refines
from .topology import is_caterpillar

MomentFunction = Callable[[Sequence[int]], Fraction]


class UnsupportedFamilyError(ValueError):
    """The requested operation is not defined for this lattice family."""


class LCumulantSystem:
    """One family's lattices over one state space, by index multiset.

    Size-indexed families key a ground set by the index size; tree
    families key it by the leaf subset.  The forward and inverse
    transforms read :meth:`first_blocks`, the process-wide tables of
    :func:`lattice.first_blocks`, and build no lattice.
    Operations that need the order itself use :meth:`lattice`, which
    builds each lattice once per system.  Cache fills are idempotent, so
    concurrent readers may duplicate work but never see torn values.
    """

    def __init__(self, fam: Family, space: StateSpace, capacity: int | None = DEFAULT_CAPACITY):
        if fam.kind == TREE:
            if any(r != 2 for r in space.arities):
                raise UnsupportedFamilyError("tree families require a binary state space")
            assert fam.tree is not None
            if set(range(1, space.n + 1)) - set(fam.tree.leaves):
                raise UnsupportedFamilyError("tree leaves must cover the variables")
        self.family = fam
        self.space = space
        self.capacity = capacity
        self._cache: dict[int | tuple[int, ...], PartitionLattice] = {}

    def _ground(self, multiset: Sequence[int]) -> int | tuple[int, ...]:
        if self.family.size_indexed:
            return len(multiset)
        support = tuple(sorted(set(multiset)))
        if len(support) != len(multiset):
            raise UnsupportedFamilyError("tree lattices are defined for plain index sets only")
        return support

    def first_blocks(self, multiset: Sequence[int]) -> FirstBlocks:
        """``(B, rest)`` over the lattice on the multiset's positions."""
        return first_blocks(self.family, self._ground(multiset), capacity=self.capacity)

    def lattice(self, multiset: Sequence[int]) -> PartitionLattice:
        """The family lattice on the positions of an index multiset."""
        ground = self._ground(multiset)
        found = self._cache.get(ground)
        if found is None:
            found = build(self.family, ground, capacity=self.capacity)
            self._cache[ground] = found
        return found


def _moment_of_blocks(
    values: CoordinateVector, multiset: tuple[int, ...], blocks: Iterable[Sequence[int]]
) -> Fraction:
    out = Fraction(1)
    for block in blocks:
        out *= values.of_multiset(multiset[j] for j in block)
    return out


def _first_block_solve(
    space: StateSpace,
    given: Mapping[tuple[int, ...], Fraction],
    tables: Callable[[tuple[int, ...]], FirstBlocks],
    forward: bool,
) -> dict[tuple[int, ...], Fraction]:
    """Solve the first-block recursion for every state of the box.

    ``given`` holds the moments when ``forward`` and the cumulants
    otherwise; the other system is returned.  ``tables`` maps an index
    multiset to its first blocks.  States are visited by increasing index
    size, so every kappa(B) and m(S) the recursion reads for a proper
    B or S is known by then.  Sub-multisets are looked up by their
    position in the box, the sum of one stride per position.
    """
    states = list(space.states())  # product order: a state's position is its code
    strides = [1] * space.n
    for i in range(space.n - 2, -1, -1):
        strides[i] = strides[i + 1] * space.arities[i + 1]
    known = [given[x] for x in states]
    solved: list[Fraction] = [Fraction(0)] * len(states)
    moments, cumulants = (known, solved) if forward else (solved, known)
    largest = space.index_multiset(states[-1])
    if largest:  # its table first, so the cap refuses an oversized box before any work
        tables(largest)
    for code in sorted(range(len(states)), key=lambda c: sum(states[c])):
        multiset = space.index_multiset(states[code])
        if not multiset:
            solved[code] = Fraction(0) if forward else Fraction(1)
            continue
        step = [strides[i - 1] for i in multiset]
        lower = Fraction(0)
        for block, rest in tables(multiset):
            term = cumulants[sum(map(step.__getitem__, block))]
            if not term:  # on central moments every singleton block is 0
                continue
            for part in rest:
                term *= moments[sum(map(step.__getitem__, part))]
            lower += term
        solved[code] = known[code] - lower if forward else known[code] + lower
    return dict(zip(states, solved))


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
    sys_ = LCumulantSystem(fam, mv.space, capacity)
    entries = _first_block_solve(mv.space, mv.entries, sys_.first_blocks, forward=True)
    return CoordinateVector(mv.space, system, entries, family=fam)


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
    sys_ = LCumulantSystem(fam, lv.space, capacity)
    entries = _first_block_solve(lv.space, lv.entries, sys_.first_blocks, forward=False)
    return CoordinateVector(lv.space, MOMENTS, entries)


def l_from_classical(
    kv: CoordinateVector,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CoordinateVector:
    """Family cumulants as sums of products of classical cumulants.

    For each index, the partitions that see no family element between
    themselves and the top contribute the product of their blockwise
    classical cumulants.  The full family therefore returns its input.
    """
    if kv.system != CLASSICAL_CUMULANTS:
        raise ValueError(f"expected classical cumulants, got {kv.system}")
    sys_ = LCumulantSystem(fam, kv.space, capacity)
    entries: dict[tuple[int, ...], Fraction] = {}
    for x in kv.space.states():
        multiset = kv.space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(0)
            continue
        lat = sys_.lattice(multiset)
        total = Fraction(0)
        for pi in all_partitions(len(multiset), capacity=None):
            upper = [nu for nu in lat.elements if refines(pi, nu)]
            if len(upper) == 1:  # only the top block survives above pi
                total += _moment_of_blocks(kv, multiset, pi.blocks)
        entries[x] = total
    return CoordinateVector(kv.space, LCUMULANTS, entries, family=fam)


# -- cumulant tensors ---------------------------------------------------------


@dataclass(frozen=True)
class CumulantTensor:
    """Dense order-d tensor of cumulants over 1-based variable tuples."""

    order: int
    n: int
    entries: Mapping[tuple[int, ...], Fraction]

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


def cumulant_tensor(
    source,
    fam: Family,
    order: int,
    n: int | None = None,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CumulantTensor:
    """Order-d tensor whose entry at (i1..id) sums over the size-d lattice.

    Index tuples may repeat and permute variables, so the moments of
    arbitrary powers are taken from the source distribution (or moment
    function) rather than from box-aliased coordinates.  Tree families are
    not size-indexed and are rejected.
    """
    if not fam.size_indexed:
        raise UnsupportedFamilyError(
            "cumulant tensors need one lattice per order; tree families are tied to leaf sets"
        )
    moment_fn, n = _moment_function(source, n)
    weights = mobius_weights(fam, order, capacity=capacity)
    entries: dict[tuple[int, ...], Fraction] = {}
    for idx in itertools.product(range(1, n + 1), repeat=order):
        total = Fraction(0)
        for blocks, weight in weights:
            term = Fraction(weight)
            for block in blocks:
                term *= moment_fn([idx[j] for j in block])
            total += term
        entries[idx] = total
    return CumulantTensor(order, n, entries)


def multilinear_action(Q: Sequence[Sequence], tensor: CumulantTensor) -> CumulantTensor:
    """Contract each tensor slot with the rows of Q."""
    rows = [tuple(Fraction(v) for v in row) for row in Q]
    m = len(rows)
    if any(len(row) != tensor.n for row in rows):
        raise ValueError("matrix width must match the tensor dimension")
    entries: dict[tuple[int, ...], Fraction] = {}
    for idx in itertools.product(range(1, m + 1), repeat=tensor.order):
        total = Fraction(0)
        for js in itertools.product(range(1, tensor.n + 1), repeat=tensor.order):
            coeff = Fraction(1)
            for i, j in zip(idx, js):
                coeff *= rows[i - 1][j - 1]
                if coeff == 0:
                    break
            if coeff:
                total += coeff * tensor.entries[js]
        entries[idx] = total
    return CumulantTensor(tensor.order, m, entries)


def linear_image_moments(Q: Sequence[Sequence], source, n: int | None = None) -> MomentFunction:
    """Moment function of the linear image QX by multilinear expansion."""
    rows = [tuple(Fraction(v) for v in row) for row in Q]
    moment_fn, n = _moment_function(source, n)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix width must match the variable count")

    def image_moment(multiset: Sequence[int]) -> Fraction:
        idx = tuple(multiset)
        total = Fraction(0)
        for js in itertools.product(range(1, n + 1), repeat=len(idx)):
            coeff = Fraction(1)
            for i, j in zip(idx, js):
                coeff *= rows[i - 1][j - 1]
                if coeff == 0:
                    break
            if coeff:
                total += coeff * moment_fn(js)
        return total

    return image_moment


# -- shift invariance ---------------------------------------------------------


@dataclass
class ShiftReport:
    family: Family
    shift: tuple[Fraction, ...]
    first_order_ok: bool
    invariant: bool
    mismatches: list[tuple[tuple[int, ...], Fraction, Fraction]]


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


def vanishes_outside(lv: CoordinateVector, pi0: SetPartition) -> bool:
    """True iff every coordinate whose support leaves a block of pi0 is 0."""
    n = lv.space.n
    if pi0.size != n:
        raise ValueError("partition size must match the number of variables")
    for x, value in lv.entries.items():
        support = [i for i, e in enumerate(x) if e]
        if len(support) < 1:
            continue
        if any(pi0.rgs[i] != pi0.rgs[support[0]] for i in support[1:]):
            if value != 0:
                return False
    return True


def detect_independence_structure(
    lv: CoordinateVector,
    fam: Family | None = None,
    capacity: int | None = DEFAULT_CAPACITY,
) -> SetPartition:
    """Finest family partition certified by vanishing cumulants.

    Certification is monotone under coarsening and the certified set is
    closed under meets, so scanning from fine to coarse returns the unique
    finest certificate; the top means no structure was detected.
    """
    if lv.system not in (LCUMULANTS, CLASSICAL_CUMULANTS):
        raise ValueError(f"expected a cumulant system, got {lv.system}")
    fam = fam if fam is not None else lv.family  # type: ignore[assignment]
    if not isinstance(fam, Family):
        raise ValueError("the cumulant vector does not carry its family; pass one")
    lat = LCumulantSystem(fam, lv.space, capacity).lattice(tuple(range(1, lv.space.n + 1)))
    for pi0 in lat.elements:  # enumeration order is finest-first
        if vanishes_outside(lv, pi0):
            return pi0
    return lat.top


# -- conditional cumulants ----------------------------------------------------

_BRILLINGER_FAMILIES = "the full, interval, and caterpillar-tree families"


def _brillinger_supported(fam: Family) -> bool:
    if fam.kind in (FULL, INTERVAL):
        return True
    if fam.kind == TREE and fam.tree is not None and is_caterpillar(fam.tree):
        return True
    return False


def _y_table(y_dist) -> list[tuple[object, Fraction]]:
    if isinstance(y_dist, DiscreteDistribution):
        return [(x, p) for x, p in sorted(y_dist.table.items())]
    return [(y, Fraction(p)) for y, p in y_dist.items()]


def brillinger(
    y_dist,
    conditional_cumulants: Mapping,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
) -> CoordinateVector:
    """Unconditional cumulants from conditional ones over a mixing variable.

    For each index, the sum runs over the lattice; the term of a partition
    couples the conditional cumulants of its blocks through the coarsening
    interval above it, with the blocks of each coarser partition grouping
    which conditional cumulants meet inside one expectation over Y.  The
    coarsening intervals of the supported families carry exactly the
    Moebius weights of the family lattice on the blocks, which is what
    makes the output the cumulant of the mixture.
    """
    if not _brillinger_supported(fam):
        raise UnsupportedFamilyError(
            f"conditional cumulants are supported for {_BRILLINGER_FAMILIES}"
        )
    ys = _y_table(y_dist)
    if not ys:
        raise ValueError("empty mixing distribution")
    total_mass = sum(p for _, p in ys)
    if total_mass != 1:
        raise ValueError(f"mixing weights sum to {total_mass}, not 1")
    cond = {y: conditional_cumulants[y] for y, _ in ys}
    space = next(iter(cond.values())).space
    if any(vec.space != space for vec in cond.values()):
        raise ValueError("conditional cumulant vectors live on different state spaces")
    sys_ = LCumulantSystem(fam, space, capacity)
    entries: dict[tuple[int, ...], Fraction] = {}
    for x in space.states():
        multiset = space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(0)
            continue
        lat = sys_.lattice(multiset)
        total = Fraction(0)
        for delta in lat.elements:
            for nu in lat.interval(delta, lat.top):
                weight = lat.mobius_to_top(nu)
                term = Fraction(weight)
                for group in nu.blocks:
                    inner_blocks = [
                        tuple(multiset[j] for j in block)
                        for block in delta.blocks
                        if block[0] in group
                    ]
                    mean = Fraction(0)
                    for y, p in ys:
                        if p == 0:
                            continue
                        prod = p
                        for inner in inner_blocks:
                            prod *= cond[y].of_multiset(inner)
                        mean += prod
                    term *= mean
                total += term
        entries[x] = total
    return CoordinateVector(space, LCUMULANTS, entries, family=fam)


def conditional_collapse(
    y_dist,
    conditional_means: Mapping,
    fam: Family,
    capacity: int | None = DEFAULT_CAPACITY,
) -> Fraction:
    """Top cumulant when all variables are independent given Y.

    Equals the family cumulant of the vector of conditional means, whose
    joint moments are plain expectations over Y; valid for every family.
    """
    ys = _y_table(y_dist)
    means = {y: [Fraction(v) for v in conditional_means[y]] for y, _ in ys}
    n = len(next(iter(means.values())))
    total = Fraction(0)
    for blocks, weight in mobius_weights(fam, n, capacity=capacity):
        term = Fraction(weight)
        for block in blocks:
            mean = Fraction(0)
            for y, p in ys:
                if p == 0:
                    continue
                prod = p
                for j in block:
                    prod *= means[y][j]
                mean += prod
            term *= mean
        total += term
    return total
