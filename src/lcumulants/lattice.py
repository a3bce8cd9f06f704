"""Partition-lattice families: order-free tables, explicit lattices, structure checks.

Five families are built in:

* ``full``         all partitions,
* ``noncrossing``  no interleaved pair of blocks (free-cumulant lattice),
* ``interval``     blocks are contiguous runs (Boolean-cumulant lattice),
* ``onecluster``   at most one non-singleton block (central moments),
* ``tree``         partitions induced by cutting edges of a fixed leaf tree.

All families contain the all-singletons bottom and the one-block top, and
are closed under common refinement, so meets inside the lattice agree with
meets in the full partition lattice.

Two order-free tables serve every reader.  :func:`first_blocks` gives, for
each block B holding the first position, the position sets the other
blocks must stay inside: the blockwise product property (C0) written out
per family, and the one definition of a family.  The transforms, the
tree singleton-free sums and independence detection read it.
:func:`mobius_weights` gives the pairs (pi, mu(pi, top)), finest first,
and is the one source of mu(pi, top): the ``lattice`` dump
(:func:`weights_json`) and the Weisner fibres (:func:`weisner_fibres`)
read it.  Its elements are generated from
the first blocks (C0 read forward), and mu from one closed form per
family (:data:`_CLOSED_FORMS`).  Both tables live in bounded process LRUs
keyed by the family kind and the ground's shape, ``(d, sides)``: the size
alone for size-indexed families, and for a tree the splits of the subtree
its leaves induce, so leaf sets of one shape share their tables
(:func:`_sub_ground`).  The cap is checked before either is read.  The
first-block LRU holds each table once, with every position set as a
bitmask; the transforms read the masks, and :func:`first_blocks` decodes
them into position tuples.

The structural checks C0..C3 (:func:`check_condition`) read the element
lists of :func:`mobius_weights` too, which come in lattice order, and
test the order pair by pair with ``refines``.  A :class:`PartitionLattice`
holds the elements, the refinement order as explicit up/down sets and a
lazily filled Moebius memo, whose idempotent writes need no lock.
Nothing here builds one; the tests build them as the oracle for the
weights and the checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import comb, factorial, prod
from typing import Callable, Iterable, Sequence

from .partition import (
    DEFAULT_CAPACITY,
    CapacityError,
    SetPartition,
    _canonical,
    format_partition,
    meet,
    refines,
    restrict,
)
from .topology import TreeTopology, edge_splits

FULL = "full"
NONCROSSING = "noncrossing"
INTERVAL = "interval"
ONECLUSTER = "onecluster"
TREE = "tree"


@dataclass(frozen=True)
class Family:
    """A lattice family tag; tree families carry their topology."""

    kind: str
    tree: TreeTopology | None = None

    def __post_init__(self):
        if self.kind == TREE:
            if self.tree is None:
                raise ValueError("tree family needs a topology")
        elif self.kind not in (FULL, NONCROSSING, INTERVAL, ONECLUSTER):
            raise ValueError(f"unknown family kind {self.kind!r}")
        elif self.tree is not None:
            raise ValueError("only tree families carry a topology")

    @property
    def size_indexed(self) -> bool:
        """Whether the lattice depends only on the ground-set size."""
        return self.kind != TREE

    @cached_property
    def splits(self) -> tuple[int, ...]:
        """The tree's nontrivial edge splits, one side each as a bitmask of leaf labels.

        Read once per family; size-indexed families have none.
        """
        if self.tree is None:
            return ()
        return tuple(sum(1 << leaf for leaf in a) for a, _ in edge_splits(self.tree) if len(a) > 1)

    def __str__(self) -> str:
        return self.kind


class PartitionLattice:
    """An explicit lattice of set partitions over positions ``0..d-1``.

    ``labels`` names what each position aliases (1-based variable indices
    by default); it only affects formatting and the JSON dump.
    """

    def __init__(
        self,
        elements: Sequence[SetPartition],
        family_tag: Family | None = None,
        labels: Sequence[int] | None = None,
    ):
        if not elements:
            raise ValueError("empty lattice")
        d = elements[0].size
        if any(p.size != d for p in elements):
            raise ValueError("mixed ground sets")
        uniq: dict[tuple[int, ...], SetPartition] = {}
        for p in elements:
            uniq.setdefault(p.rgs, p)
        ordered = sorted(uniq.values(), key=lambda p: (-p.num_blocks, p.rgs))
        self.family = family_tag
        self.size = d
        self.labels = tuple(labels) if labels is not None else tuple(range(1, d + 1))
        self.elements: tuple[SetPartition, ...] = tuple(ordered)
        self.index: dict[tuple[int, ...], int] = {p.rgs: i for i, p in enumerate(self.elements)}
        n = len(self.elements)
        below: list[set[int]] = [set() for _ in range(n)]
        above: list[set[int]] = [set() for _ in range(n)]
        for i, p in enumerate(self.elements):
            for j, q in enumerate(self.elements):
                if refines(p, q):
                    below[j].add(i)
                    above[i].add(j)
        self._below = tuple(frozenset(s) for s in below)
        self._above = tuple(frozenset(s) for s in above)
        self._mobius: dict[tuple[int, int], int] = {}
        bottom = SetPartition.singletons(d)
        top = SetPartition.one_block(d)
        if bottom.rgs not in self.index or top.rgs not in self.index:
            raise ValueError("a partition lattice must contain the bottom and the top")
        if family_tag is None:
            self._check_meets_generic()
        elif d <= 5:
            self._check_meets_refinement()
        self.bottom_id = self.index[bottom.rgs]
        self.top_id = self.index[top.rgs]

    def _check_meets_refinement(self) -> None:
        """Built-in families: the common refinement must stay inside."""
        for i, p in enumerate(self.elements):
            for q in self.elements[i + 1 :]:
                if meet(p, q).rgs not in self.index:
                    raise ValueError(f"common refinement of {p} and {q} escapes the lattice")

    def _check_meets_generic(self) -> None:
        """Custom element lists: every pair needs a unique greatest lower bound."""
        n = len(self.elements)
        for i in range(n):
            for j in range(i + 1, n):
                common = self._below[i] & self._below[j]
                maximal = [k for k in common if not any(k in self._below[m] and m != k for m in common)]
                if len(maximal) != 1:
                    raise ValueError(
                        "not a lattice: no unique meet for "
                        f"{self.elements[i]} and {self.elements[j]}"
                    )

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: SetPartition) -> bool:
        return p.rgs in self.index

    def id_of(self, p: SetPartition) -> int:
        try:
            return self.index[p.rgs]
        except KeyError:
            raise ValueError(f"{p} is not an element of this lattice") from None

    @property
    def bottom(self) -> SetPartition:
        return self.elements[self.bottom_id]

    @property
    def top(self) -> SetPartition:
        return self.elements[self.top_id]

    def interval(self, lo: SetPartition, hi: SetPartition) -> list[SetPartition]:
        """All elements between lo and hi inclusive, in enumeration order."""
        lo_id, hi_id = self.id_of(lo), self.id_of(hi)
        ids = self._above[lo_id] & self._below[hi_id]
        return [self.elements[i] for i in sorted(ids)]

    # -- Moebius function ----------------------------------------------

    def mobius(self, lo: SetPartition, hi: SetPartition) -> int:
        """Moebius value of the pair lo <= hi; errors if incomparable."""
        lo_id, hi_id = self.id_of(lo), self.id_of(hi)
        if lo_id not in self._below[hi_id]:
            raise ValueError(f"{lo} is not below {hi}")
        return self._mobius_ids(lo_id, hi_id)

    def _mobius_ids(self, lo_id: int, hi_id: int) -> int:
        key = (lo_id, hi_id)
        cached = self._mobius.get(key)
        if cached is not None:
            return cached
        if lo_id == hi_id:
            value = 1
        else:
            # Recursing at the upper end keeps the weights to the top, which
            # mobius_to_top reads, to one memo entry per element.
            between = self._above[lo_id] & self._below[hi_id]
            value = -sum(self._mobius_ids(mid, hi_id) for mid in between if mid != lo_id)
        self._mobius[key] = value
        return value

    def mobius_to_top(self, p: SetPartition) -> int:
        return self._mobius_ids(self.id_of(p), self.top_id)

    # -- lattice operations --------------------------------------------

    def meet(self, p: SetPartition, q: SetPartition) -> SetPartition:
        """Greatest lower bound within the lattice.

        The common refinement is used when it is an element (true for all
        built-in families); otherwise the order matrix is consulted and a
        unique maximal lower bound is required.
        """
        candidate = meet(p, q)
        if candidate.rgs in self.index:
            return candidate
        common = self._below[self.id_of(p)] & self._below[self.id_of(q)]
        maximal = [k for k in common if not any(k in self._below[m] and m != k for m in common)]
        if len(maximal) != 1:
            raise ValueError(f"no unique meet of {p} and {q} in this lattice")
        return self.elements[maximal[0]]

    def closure(self, delta: SetPartition) -> SetPartition:
        """Smallest lattice element above an arbitrary partition.

        Computed as the common refinement of all upper bounds; if that
        refinement escapes the lattice, the unique minimal upper bound is
        sought instead and ambiguity is an error.
        """
        if delta.size != self.size:
            raise ValueError("partition lives on a different ground set")
        if delta.rgs in self.index:
            return delta
        upper = [p for p in self.elements if refines(delta, p)]
        acc = upper[0]
        for p in upper[1:]:
            acc = meet(acc, p)
        if acc.rgs in self.index and refines(delta, acc):
            return acc
        upper_ids = {self.id_of(p) for p in upper}
        minimal = [i for i in upper_ids if not any(j in upper_ids and j != i and j in self._below[i] for j in upper_ids)]
        if len(minimal) != 1:
            raise ValueError(f"no unique closure of {delta} in this lattice")
        return self.elements[minimal[0]]

    def weisner_sum(self, pi0: SetPartition, delta: SetPartition) -> int:
        """Sum of Moebius-to-top over the meet fiber of pi0 at delta.

        Vanishes whenever pi0 is not the top element; that vanishing is the
        engine behind independence implying zero coordinates.
        """
        pi0_id = self.id_of(pi0)
        if pi0_id == self.top_id:
            raise ValueError("the reference partition must differ from the top")
        self.id_of(delta)
        total = 0
        for p in self.elements:
            if self.meet(p, pi0) == delta:
                total += self.mobius_to_top(p)
        return total

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return weights_json(self.family, self.labels, [(p, self.mobius_to_top(p)) for p in self.elements])


def weights_json(
    family: Family | None, labels: Sequence[int], weights: Sequence[tuple[SetPartition, int]]
) -> dict:
    """The JSON dump of a lattice from its ``(pi, mu(pi, top))`` pairs, in order."""
    return {
        "family": str(family) if family is not None else "custom",
        "ground_size": weights[0][0].size,
        "elements": [",".join(str(v) for v in p.rgs) for p, _ in weights],
        "partitions": [format_partition(p, labels) for p, _ in weights],
        "mobius_to_top": [str(Fraction(mu)) for _, mu in weights],
    }


# -- construction --------------------------------------------------------


def _ground_labels(
    fam: Family, ground: int | Sequence[int], capacity: int | None
) -> tuple[int, ...]:
    """The 1-based labels of a ground set, checked against the cap.

    ``ground`` is either a size d (positions alias variables 1..d) or an
    increasing sequence of 1-based variable labels; tree families require
    the labels to be leaves of their topology.
    """
    if isinstance(ground, int):
        labels: tuple[int, ...] = tuple(range(1, ground + 1))
    else:
        labels = tuple(ground)
        if list(labels) != sorted(set(labels)):
            raise ValueError("ground labels must be strictly increasing")
    d = len(labels)
    if d < 1:
        raise ValueError("empty ground set")
    if capacity is not None and d > capacity:
        raise CapacityError(f"ground set of size {d} exceeds the cap of {capacity}")
    if fam.kind == TREE:
        assert fam.tree is not None
        if not set(labels) <= set(fam.tree.leaves):
            raise ValueError(f"labels {labels} are not leaves of the tree")
    return labels


TableKey = tuple[int, tuple[int, ...]]


def _sub_ground(sides: Iterable[int], part: Sequence[int]) -> TableKey:
    """The table key ``(d, sides)`` of the lattice on the positions ``part``.

    ``sides`` are split sides as bitmasks of positions (of leaf labels for
    :attr:`Family.splits`).  A tree with no degree-2 node is fixed by its
    splits, so the key is the shape of the induced subtree: each side as
    the positions of ``part`` on the side without position 0, keeping the
    sides with two or more positions on each side.  Size-indexed families
    have no sides, so their key is ``(d, ())``.
    """
    return _table_key(len(part), [sum(1 << k for k, j in enumerate(part) if side >> j & 1) for side in sides])


def _table_key(d: int, masks: Iterable[int]) -> TableKey:
    """The key of :func:`_sub_ground` from each side's bitmask of the d positions."""
    full = (1 << d) - 1
    cut = {mask ^ full if mask & 1 else mask for mask in masks}
    return d, tuple(sorted(mask for mask in cut if 2 <= mask.bit_count() <= d - 2))


def _elements(kind: str, key: TableKey) -> list[SetPartition]:
    """The family's partitions of the ground set, in lattice order.

    C0 read forward: besides the top, the elements whose first block is B
    are B together with one family element on each part of its ``rest``
    in :func:`first_blocks`, so each element is generated once.
    """

    @cache  # sub-ground elements, for the span of this call
    def generate(key: TableKey) -> list[tuple[int, ...]]:
        d, sides = key
        out, raw = [(0,) * d], [0] * d
        for block, masks in _cached_first_blocks(kind, key):
            for j in _positions(block):
                raw[j] = 0
            rest = [_positions(part) for part in masks]
            subs = [generate(_sub_ground(sides, part)) for part in rest]
            for choice in itertools.product(*subs):
                offset = 1
                for part, sigma in zip(rest, choice):
                    for j, v in zip(part, sigma):
                        raw[j] = offset + v
                    offset += max(sigma) + 1
                out.append(_canonical(raw))
        return out

    found = generate(key)
    return [SetPartition(rgs) for rgs in sorted(found, key=lambda rgs: (-max(rgs), rgs))]


def element_count(fam: Family, ground: int | Sequence[int], capacity: int | None = DEFAULT_CAPACITY) -> int:
    """The number of elements of the family lattice, with none built.

    :func:`_elements` counted: the top, and for each first block B the
    product of the counts on the parts of its ``rest``.
    """
    labels = _ground_labels(fam, ground, capacity)

    @cache
    def count(key: TableKey) -> int:
        return 1 + sum(
            prod(count(_sub_ground(key[1], _positions(part))) for part in rest)
            for _, rest in _cached_first_blocks(fam.kind, key)
        )

    return count(_sub_ground(fam.splits, labels))


# -- Moebius weights without the order ---------------------------------------

Weights = tuple[tuple[SetPartition, int], ...]

# Weight tables live for the whole process, keyed like the first-block
# tables, so a session's later calls on the same family and shapes reuse them.
WEIGHT_CACHE_SIZE = 512


def _kreweras_form(key: TableKey) -> Callable[[SetPartition], int]:
    """Non-crossing: the product of (-1)^(|V|-1) Cat(|V|-1) over the cycles V
    of pi^-1 gamma, the Kreweras complement (Nica-Speicher, Lecture 10), with
    pi cycling each block upwards and gamma = (0 1 ... d-1).
    """
    d = key[0]

    def mu(p: SetPartition) -> int:
        back = {j: prev for block in p.blocks for prev, j in zip(block[-1:] + block[:-1], block)}  # pi^-1
        value, seen = 1, set()
        for start in range(d):
            size, j = 0, start
            while j not in seen:
                seen.add(j)
                j, size = back[(j + 1) % d], size + 1
            if size:
                value *= (-1) ** (size - 1) * comb(2 * size - 2, size - 1) // size
        return value

    return mu


def _tree_form(key: TableKey) -> Callable[[SetPartition], int]:
    """Tree: (-1)^(|pi|-1) times branches(v) - 1 over the inner nodes v on no
    block's span (Zwiernik-Smith 2012).  Rooted at 0, an inner node is a side
    of two or more positions, or all but 0; its branches, read once per key,
    are its maximal proper sub-sides, singletons included, and its complement.
    """
    d, sides = key
    full = (1 << d) - 1
    nodes = []
    for s in (*sides, full ^ 1):
        if s.bit_count() >= 2:
            inside = [t for t in (*sides, *(1 << j for j in range(d))) if t & s == t != s]
            children = [t for t in inside if not any(t & u == t != u for u in inside)]
            nodes.append((*children, full ^ s))

    def mu(p: SetPartition) -> int:
        spans = [sum(1 << j for j in block) for block in p.blocks if len(block) > 1]
        value = (-1) ** (p.num_blocks - 1)
        for branches in nodes:
            # The branches tile the ground: a block inside none meets two.
            if all(any(m & b == m for b in branches) for m in spans):
                value *= len(branches) - 1
        return value

    return mu


# mu(pi, top) in closed form, from the table key once and then per element.
_CLOSED_FORMS: dict[str, Callable[[TableKey], Callable[[SetPartition], int]]] = {
    FULL: lambda key: lambda p: (-1) ** (p.num_blocks - 1) * factorial(p.num_blocks - 1),
    INTERVAL: lambda key: lambda p: (-1) ** (p.num_blocks - 1),
    # Above any element but the bottom the one-cluster lattice is Boolean:
    # the points outside the cluster join it one at a time.
    ONECLUSTER: lambda key: lambda p: (-1) ** (p.num_blocks - 1) * (max(key[0] - 1, 1) if p.num_blocks == key[0] else 1),
    NONCROSSING: _kreweras_form,
    TREE: _tree_form,
}


def mobius_weights(
    fam: Family,
    ground: int | Sequence[int],
    capacity: int | None = DEFAULT_CAPACITY,
) -> Weights:
    """``(pi, mu(pi, top))`` for every element pi of the family lattice.

    The pairs come in :attr:`PartitionLattice.elements` order (finest
    first, the top last) and agree with the Moebius recursion of the
    explicit order, but no order is built: every family has a closed form
    for mu (:data:`_CLOSED_FORMS`).  Tables are cached per family kind and
    shape (:func:`_sub_ground`), so tree leaf sets of one shape share one.
    The transforms read :func:`first_blocks` instead.
    """
    labels = _ground_labels(fam, ground, capacity)
    return _cached_weights(fam.kind, _sub_ground(fam.splits, labels))


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _cached_weights(kind: str, key: TableKey) -> Weights:
    mu = _CLOSED_FORMS[kind](key)
    return tuple((p, mu(p)) for p in _elements(kind, key))


def weisner_fibres(weights: Weights, pi0: SetPartition) -> dict[SetPartition, int]:
    """:meth:`PartitionLattice.weisner_sum` of pi0 at every delta, in one pass.

    Built-in families are closed under common refinement, so the lattice
    meet is the common refinement.  A delta with no key has an empty fibre.
    """
    fibres: dict[SetPartition, int] = {}
    for p, mu in weights:
        delta = meet(p, pi0)
        fibres[delta] = fibres.get(delta, 0) + mu
    return fibres


# -- first blocks ---------------------------------------------------------------

Positions = tuple[int, ...]
FirstBlocks = tuple[tuple[Positions, tuple[Positions, ...]], ...]
# The same table with each position set as a bitmask, bit j for position j.
FirstBlockMasks = tuple[tuple[int, tuple[int, ...]], ...]

# Keyed like the weight tables: per size for size-indexed families, per
# shape of the induced subtree for trees.  Sized so that every shape of one
# tree at the default cap stays cached.  The 4095 leaf subsets of a 12-leaf
# tree induce 12 shapes for caterpillar(12), 489 for the relabelled
# caterpillar (7,2,(9,(1,(10,(4,(3,(8,(5,(6,(12,11)h10)h9)h8)h7)h6)h5)h4)h3)h2)h1
# and 649 for the relabelled balanced tree
# (((7,2)a,(9,1)b)c,((10,4)d,(3,8)e)f,((5,6)g,(12,11)h)i)r.  Their mask
# tables take 0.7, 11.3 and 14.2 MiB (tracemalloc), against 1.8, 28.3 and
# 35.0 MiB as position tuples.
FIRST_BLOCK_CACHE_SIZE = 2**DEFAULT_CAPACITY


def first_blocks(
    fam: Family,
    ground: int | Sequence[int],
    capacity: int | None = DEFAULT_CAPACITY,
) -> FirstBlocks:
    """``(B, rest)`` for every proper block B holding position 0.

    Every family here has the blockwise product property (C0), so the
    elements whose block at position 0 is B are the products of the
    family lattices on the position sets of ``rest``.  The moments are
    zeta sums of cumulant products, so this gives
    ``m(A) = kappa(A) + sum over B of kappa(B) * prod over S in rest of m(S)``,
    the classical first-block recursion.  Only ``rest`` depends on the
    family:

    * ``full``: every other position, as one set,
    * ``interval``: the same, with B an initial segment,
    * ``noncrossing``: the gaps between consecutive members of B, and the
      gap after its last member,
    * ``onecluster``: the other positions as one set when B is position 0
      alone; otherwise each other position alone,
    * ``tree``: the largest split sides of the induced subtree that miss
      B, one for each component left when the span of B is removed.

    Position tuples are increasing.  The top block (all positions) is left
    out.  The cap is checked before the cached table is read.  The cache
    holds the bitmask form (:func:`_first_block_masks`), decoded here.
    """
    return tuple(
        (_positions(block), tuple(map(_positions, rest)))
        for block, rest in _first_block_masks(fam, ground, capacity)
    )


def _first_block_masks(fam: Family, ground: int | Sequence[int], capacity: int | None) -> FirstBlockMasks:
    """:func:`first_blocks` with each position set as a bitmask, as cached."""
    labels = _ground_labels(fam, ground, capacity)
    return _cached_first_blocks(fam.kind, _sub_ground(fam.splits, labels))


def _positions(mask: int) -> Positions:
    """The positions of the set bits of ``mask``, increasing."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=FIRST_BLOCK_CACHE_SIZE)
def _cached_first_blocks(kind: str, key: TableKey) -> FirstBlockMasks:
    d, sides = key
    full = (1 << d) - 1
    if kind == INTERVAL:
        return tuple(((1 << k) - 1, (full ^ ((1 << k) - 1),)) for k in range(1, d))
    rest_of = _REST[kind]
    out = []
    for size in range(d - 1):
        for tail in itertools.combinations(range(1, d), size):
            block = sum(1 << j for j in tail) | 1
            out.append((block, rest_of(block, full ^ block, sides)))
    return tuple(out)


def _noncrossing_rest(block: int, others: int, sides: tuple[int, ...]) -> tuple[int, ...]:
    """The gaps of B: position 0 is in B, so they are the runs of ``others``."""
    gaps = []
    while others:
        gap = others & ~(others + (others & -others))  # the lowest run of set bits
        gaps.append(gap)
        others ^= gap
    return tuple(gaps)


def _split_rest(block: int, others: int, sides: tuple[int, ...]) -> tuple[int, ...]:
    """The tree rule: the maximal split sides that miss B, by first position.

    Each component left when the span of B is removed hangs off the span by
    one edge, and its leaves are that edge's side away from B.  Split sides
    without position 0 are nested or disjoint, so the sides that hold a
    position and miss B form a chain, and the largest is its component.  The
    trivial sides complete the chain: a position alone, and every position
    but 0, which misses B when B is position 0 alone.
    """
    taken = block
    everything_else = (block | others) ^ 1
    parts = []
    for j in _positions(others):
        if taken >> j & 1:
            continue
        # In a chain of sides the largest mask is the largest side.
        part = max((s for s in (*sides, everything_else) if s >> j & 1 and not s & taken), default=1 << j)
        taken |= part
        parts.append(part)
    return tuple(parts)


_REST: dict[str, Callable[[int, int, tuple[int, ...]], tuple[int, ...]]] = {
    FULL: lambda block, others, sides: (others,),
    NONCROSSING: _noncrossing_rest,
    ONECLUSTER: lambda block, others, sides: (others,) if block == 1 else tuple(1 << j for j in _positions(others)),
    TREE: _split_rest,
}


# -- structural conditions -------------------------------------------------


@dataclass
class ConditionReport:
    condition: str
    holds: bool | None
    witness: str | None = None

    def __bool__(self) -> bool:
        if self.holds is None:
            raise ValueError(f"condition {self.condition} was not checked: {self.witness}")
        return self.holds


CONDITION_CHECK_LIMIT = 6


def _subsets(labels: Sequence[int]) -> Iterable[tuple[int, ...]]:
    for r in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, r)


def check_condition(
    fam: Family,
    which: str,
    max_size: int = 4,
    capacity: int | None = DEFAULT_CAPACITY,
) -> ConditionReport:
    """Exhaustively verify one of the structural conditions C0..C3.

    C0: every interval factors through restriction into the per-block
        lattices (the product property behind multiplicative inversion).
    C1: every single-element split belongs to the lattice (shift
        invariance of higher coordinates).
    C2: the lattice over any index subset matches the lattice over an
        initial segment of the same size, via the order isomorphism.
    C3: every coarsening interval, read on the blocks, reproduces the
        family lattice of the block count (conditional cumulant formula).

    The checks read the element lists of :func:`mobius_weights`, in
    lattice order, and test the order pair by pair with ``refines``.
    Verification is exhaustive for the given sizes and never extrapolates:
    sizes above :data:`CONDITION_CHECK_LIMIT`, and sizes below 1, which
    check nothing, return ``holds=None``.
    """
    which = which.upper()
    if which not in {"C0", "C1", "C2", "C3"}:
        raise ValueError(f"unknown condition {which!r}")
    if max_size < 1:
        return ConditionReport(which, None, f"size {max_size} leaves no ground set to check")
    if max_size > CONDITION_CHECK_LIMIT:
        return ConditionReport(which, None, f"size {max_size} above the exhaustive-check limit")
    if fam.kind == TREE:
        assert fam.tree is not None
        sizes = [fam.tree.num_leaves]
        if sizes[0] > max_size:
            # A tree family cannot be truncated to a smaller ground set, so a
            # tree wider than the requested size is reported unchecked rather
            # than vacuously true.
            return ConditionReport(
                which, None, f"tree with {sizes[0]} leaves exceeds the requested size {max_size}"
            )
    else:
        sizes = list(range(1, max_size + 1))
    checker = {"C0": _check_c0, "C1": _check_c1, "C2": _check_c2, "C3": _check_c3}[which]
    for n in sizes:
        witness = checker(fam, n, capacity)
        if witness is not None:
            return ConditionReport(which, False, witness)
    return ConditionReport(which, True, None)


def _root_labels(fam: Family, n: int) -> tuple[int, ...]:
    if fam.kind == TREE:
        assert fam.tree is not None
        return fam.tree.leaves[:n]
    return tuple(range(1, n + 1))


def _element_list(fam: Family, labels: Sequence[int], capacity: int | None) -> list[SetPartition]:
    """The family's elements on a ground of labels, in lattice order."""
    return [p for p, _ in mobius_weights(fam, labels, capacity)]


def _check_c0(fam: Family, n: int, capacity) -> str | None:
    root_labels = _root_labels(fam, n)
    # Size-indexed families are covered by the initial segment; tree
    # lattices differ per leaf subset, so every ground set is visited.
    grounds: list[tuple[int, ...]] = (
        list(_subsets(root_labels)) if fam.kind == TREE else [root_labels]
    )
    for labels in grounds:
        elements = _element_list(fam, labels, capacity)
        for hi in elements:
            below = [q for q in elements if refines(q, hi)]
            # hi restricted to a block is the block's top, so the interval
            # [lo|B, hi|B] is everything above lo|B in the block's lattice.
            subs = [_element_list(fam, [labels[i] for i in block], capacity) for block in hi.blocks]
            for lo in below:
                inside = [q for q in below if refines(lo, q)]
                factor_sets = []
                for block, sub in zip(hi.blocks, subs):
                    lo_b = restrict(lo, block)
                    factor_sets.append({q.rgs for q in sub if refines(lo_b, q)})
                product = set(itertools.product(*factor_sets))
                image = {tuple(restrict(delta, block).rgs for block in hi.blocks) for delta in inside}
                if len(image) != len(inside) or image != product:
                    return (
                        f"interval [{format_partition(lo, labels)}, {format_partition(hi, labels)}] "
                        "does not restrict bijectively onto the blockwise product"
                    )
    return None


def _check_c1(fam: Family, n: int, capacity) -> str | None:
    labels = _root_labels(fam, n)
    for ground in _subsets(labels):
        if len(ground) < 2:
            continue
        members = {p.rgs for p in _element_list(fam, ground, capacity)}
        d = len(ground)
        for i in range(d):
            split = SetPartition.from_blocks([[i], [j for j in range(d) if j != i]], size=d)
            if split.rgs not in members:
                return f"split {format_partition(split, ground)} missing from the lattice on {ground}"
    return None


def _check_c2(fam: Family, n: int, capacity) -> str | None:
    labels = _root_labels(fam, n)
    for ground in _subsets(labels):
        members = {p.rgs for p in _element_list(fam, ground, capacity)}
        if members != {p.rgs for p in _element_list(fam, labels[: len(ground)], capacity)}:
            return (
                f"lattice on {ground} does not match the lattice on "
                f"{labels[: len(ground)]} under the order bijection"
            )
    return None


def _check_c3(fam: Family, n: int, capacity) -> str | None:
    labels = _root_labels(fam, n)
    elements = _element_list(fam, labels, capacity)
    for pi in elements:
        m = pi.num_blocks
        ref = {p.rgs for p in _element_list(fam, _root_labels(fam, m), capacity)}
        image = set()
        for nu in elements:
            if refines(pi, nu):
                image.add(_blocks_partition(pi, nu).rgs)
        if image != ref:
            missing = ref - image
            extra = image - ref
            detail = []
            if missing:
                detail.append(f"missing {format_partition(SetPartition(next(iter(missing))))}")
            if extra:
                detail.append(f"extra {format_partition(SetPartition(next(iter(extra))))}")
            return (
                f"coarsenings of {format_partition(pi, labels)} do not match the "
                f"family lattice on {m} blocks ({'; '.join(detail)})"
            )
    return None


def _blocks_partition(pi: SetPartition, nu: SetPartition) -> SetPartition:
    """Read a coarsening nu >= pi as a partition of pi's blocks.

    Blocks of pi are numbered 0..m-1 by their minimum element; two block
    numbers land together iff nu merges those blocks.
    """
    labels = []
    for block in pi.blocks:
        labels.append(nu.rgs[block[0]])
    return SetPartition.from_blocks(
        [[i for i, l in enumerate(labels) if l == v] for v in sorted(set(labels))],
        size=pi.num_blocks,
    )
