"""Explicit partition lattices, their Moebius functions, and structure checks.

A :class:`PartitionLattice` holds a deduplicated element list (partitions of
positions ``0..d-1``), the refinement order as explicit up/down sets, and a
memoized Moebius table.  Five families are built in:

* ``full``         all partitions,
* ``noncrossing``  no interleaved pair of blocks (free-cumulant lattice),
* ``interval``     blocks are contiguous runs (Boolean-cumulant lattice),
* ``onecluster``   at most one non-singleton block (central moments),
* ``tree``         partitions induced by cutting edges of a fixed leaf tree.

All families contain the all-singletons bottom and the one-block top, and
are closed under common refinement, so meets inside the lattice agree with
meets in the full partition lattice.

The Moebius memo table is filled lazily.  Writes are idempotent (a key is
always recomputed to the same value), so concurrent readers may at worst
duplicate work; no locking is required under the usual dict atomicity.

Two order-free tables serve callers that need no lattice.  The forward
and inverse transforms and the tree singleton-free sums read
:func:`first_blocks`: for each block B holding the first position, the
position sets the other blocks must stay inside.  That is the blockwise
product property (C0) written out per family.  Cumulant tensors and the
conditional-independence collapse read :func:`mobius_weights`, the pairs
(pi, mu(pi, top)): full, interval and one-cluster lattices have closed
forms, and non-crossing and tree lattices recurse down from the top over
coarsenings generated as partitions of blocks.  Both kinds of table are
cached for the whole process in bounded LRUs keyed by (family, ground
set), and the cap is checked before either is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Sequence

from .partition import (
    DEFAULT_CAPACITY,
    CapacityError,
    SetPartition,
    all_partitions,
    format_partition,
    is_interval,
    is_noncrossing,
    is_one_cluster,
    meet,
    refines,
    restrict,
)
from .topology import TreeTopology, induced_subtree

FULL = "full"
NONCROSSING = "noncrossing"
INTERVAL = "interval"
ONECLUSTER = "onecluster"
TREE = "tree"

_PREDICATES: dict[str, Callable[[SetPartition], bool]] = {
    FULL: lambda p: True,
    NONCROSSING: is_noncrossing,
    INTERVAL: is_interval,
    ONECLUSTER: is_one_cluster,
}


@dataclass(frozen=True)
class Family:
    """A lattice family tag; tree families carry their topology."""

    kind: str
    tree: TreeTopology | None = None

    def __post_init__(self):
        if self.kind == TREE:
            if self.tree is None:
                raise ValueError("tree family needs a topology")
        elif self.kind not in _PREDICATES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        elif self.tree is not None:
            raise ValueError("only tree families carry a topology")

    @property
    def size_indexed(self) -> bool:
        """Whether the lattice depends only on the ground-set size."""
        return self.kind != TREE

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

    def leq(self, p: SetPartition, q: SetPartition) -> bool:
        return self.id_of(p) in self._below[self.id_of(q)]

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
        return {
            "family": str(self.family) if self.family is not None else "custom",
            "ground_size": self.size,
            "elements": [",".join(str(v) for v in p.rgs) for p in self.elements],
            "partitions": [format_partition(p, self.labels) for p in self.elements],
            "mobius_to_top": [str(Fraction(self.mobius_to_top(p))) for p in self.elements],
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


def _elements(fam: Family, labels: tuple[int, ...]) -> list[SetPartition]:
    """The family's partitions of the ground set, in lattice order."""
    if fam.kind == TREE:
        assert fam.tree is not None
        return _tree_elements(fam.tree, labels)
    predicate = _PREDICATES[fam.kind]
    return [p for p in all_partitions(len(labels), capacity=None) if predicate(p)]


def build(
    fam: Family,
    ground: int | Sequence[int],
    capacity: int | None = DEFAULT_CAPACITY,
) -> PartitionLattice:
    """Build the lattice of a family over a ground set (a size or labels)."""
    labels = _ground_labels(fam, ground, capacity)
    return PartitionLattice(_elements(fam, labels), family_tag=fam, labels=labels)


def _tree_elements(tree: TreeTopology, labels: Sequence[int]) -> list[SetPartition]:
    """Partitions of the leaf subset induced by cutting edges of the subtree.

    A partition qualifies exactly when the minimal subtrees spanning its
    non-singleton blocks are pairwise node-disjoint: the spanning subtrees
    then serve as the connected components, and a leaf never sits on the
    path between two other leaves, so no foreign leaf is swept in.
    """
    if len(labels) == 1:
        return [SetPartition.singletons(1)]
    sub = induced_subtree(tree, labels)
    span_cache: dict[tuple[int, ...], frozenset] = {}

    def span(block_labels: tuple[int, ...]) -> frozenset:
        if block_labels not in span_cache:
            nodes: set = set()
            base = block_labels[0]
            for other in block_labels[1:]:
                nodes.update(sub.path(base, other))
            span_cache[block_labels] = frozenset(nodes)
        return span_cache[block_labels]

    out = []
    for p in all_partitions(len(labels), capacity=None):
        spans = [span(tuple(labels[i] for i in block)) for block in p.blocks if len(block) > 1]
        ok = True
        for a, b in itertools.combinations(spans, 2):
            if a & b:
                ok = False
                break
        if ok:
            out.append(p)
    return out


# -- Moebius weights without the order ---------------------------------------

Weights = tuple[tuple[tuple[tuple[int, ...], ...], int], ...]

# Weight tables live for the whole process, keyed by (family, ground), so
# a session's later calls on the same family and sizes reuse them.
WEIGHT_CACHE_SIZE = 512

# The recursion is exact for these families too, but it visits Bell(k)
# merges per element of k blocks; for the full lattice at d = 10 that is
# about twenty times the cost of enumerating the elements.
_CLOSED_FORMS: dict[str, Callable[[int, int], int]] = {
    FULL: lambda k, d: (-1) ** (k - 1) * factorial(k - 1),
    INTERVAL: lambda k, d: (-1) ** (k - 1),
    # Above any element but the bottom the one-cluster lattice is Boolean:
    # the points outside the cluster join it one at a time.
    ONECLUSTER: lambda k, d: (-1) ** (d - 1) * (d - 1) if k == d >= 2 else (-1) ** (k - 1),
}


def mobius_weights(
    fam: Family,
    ground: int | Sequence[int],
    capacity: int | None = DEFAULT_CAPACITY,
) -> Weights:
    """``(blocks, mu(pi, top))`` for every element pi of the family lattice.

    The pairs come in :attr:`PartitionLattice.elements` order (finest
    first) and agree with ``build(fam, ground).mobius_to_top``, but no
    order is built: full, interval and one-cluster lattices have closed
    forms, and the others recurse over generated coarsenings.  Tables are
    cached per size for size-indexed families and per leaf tuple for trees.

    The transforms do not read these tables; they run the first-block
    recursion of :func:`first_blocks`.  ``lcumulant.cumulant_tensor`` and
    ``lcumulant.conditional_collapse`` still sum over the weights.
    """
    labels = _ground_labels(fam, ground, capacity)
    return _cached_weights(fam, len(labels) if fam.size_indexed else labels)


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _cached_weights(fam: Family, ground: int | tuple[int, ...]) -> Weights:
    labels = tuple(range(1, ground + 1)) if isinstance(ground, int) else ground
    elements = _elements(fam, labels)
    closed = _CLOSED_FORMS.get(fam.kind)
    if closed is not None:
        weights = [closed(p.num_blocks, len(labels)) for p in elements]
    else:
        weights = _weights_from_coarsenings(elements)
    return tuple((p.blocks, w) for p, w in zip(elements, weights))


def _weights_from_coarsenings(elements: Sequence[SetPartition]) -> list[int]:
    """Moebius weights to the top by recursion down from the top.

    mu(pi, top) is minus the sum of mu(sigma, top) over the proper
    coarsenings sigma of pi in the family.  The coarsenings of pi are the
    partitions of its blocks, so they are generated and looked up among
    the elements already done; no pair of elements is compared.
    """
    mu: dict[tuple[int, ...], int] = {}
    merges: dict[int, list[tuple[int, ...]]] = {}
    for p in reversed(elements):  # coarsest first
        k = p.num_blocks
        if k not in merges:
            merges[k] = [beta.rgs for beta in all_partitions(k, capacity=None)[1:]]
        total = 0
        for beta in merges[k]:
            total += mu.get(tuple(beta[b] for b in p.rgs), 0)
        mu[p.rgs] = -total if k > 1 else 1
    return [mu[p.rgs] for p in elements]


# -- first blocks ---------------------------------------------------------------

FirstBlocks = tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]

# Keyed like the weight tables: per size for size-indexed families, per
# leaf tuple for trees.
FIRST_BLOCK_CACHE_SIZE = 512


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
    * ``tree``: the leaves of each component left when the span of B is
      removed from the tree.

    Position tuples are increasing.  The top block (all positions) is left
    out.  The cap is checked before the cached table is read.
    """
    labels = _ground_labels(fam, ground, capacity)
    return _cached_first_blocks(fam, len(labels) if fam.size_indexed else labels)


@lru_cache(maxsize=FIRST_BLOCK_CACHE_SIZE)
def _cached_first_blocks(fam: Family, ground: int | tuple[int, ...]) -> FirstBlocks:
    d = ground if isinstance(ground, int) else len(ground)
    if fam.kind == INTERVAL:
        return tuple((tuple(range(k)), (tuple(range(k, d)),)) for k in range(1, d))
    if fam.kind == TREE:
        assert fam.tree is not None and isinstance(ground, tuple)
        rest_of = _tree_rest(fam.tree, ground)
    else:
        rest_of = _REST[fam.kind]
    out = []
    for size in range(d - 1):
        for tail in itertools.combinations(range(1, d), size):
            block = (0, *tail)
            others = tuple(j for j in range(1, d) if j not in tail)
            out.append((block, rest_of(block, others)))
    return tuple(out)


def _noncrossing_rest(block: tuple[int, ...], others: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    gaps = []
    for lo, hi in zip(block, block[1:] + (len(block) + len(others),)):
        gap = tuple(range(lo + 1, hi))
        if gap:
            gaps.append(gap)
    return tuple(gaps)


_REST: dict[str, Callable[[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], ...]]] = {
    FULL: lambda block, others: (others,),
    NONCROSSING: _noncrossing_rest,
    ONECLUSTER: lambda block, others: (others,) if len(block) == 1 else tuple((j,) for j in others),
}


def _tree_rest(tree: TreeTopology, labels: tuple[int, ...]) -> Callable:
    """The rest rule of a tree family on one leaf tuple.

    The span of B is the union of the paths from its first leaf to the
    others.  Two other leaves share a component exactly when the path
    between them avoids that span; each component is found by one search
    of the tree that does not enter the span.
    """
    paths = [frozenset(tree.path(labels[0], leaf)) for leaf in labels]
    position = {leaf: j for j, leaf in enumerate(labels)}

    def rest(block: tuple[int, ...], others: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        seen = set().union(*(paths[j] for j in block))  # the span of B
        parts = []
        for start in others:
            if labels[start] in seen:
                continue
            part, stack = [], [labels[start]]
            seen.add(labels[start])
            while stack:
                node = stack.pop()
                if node in position:
                    part.append(position[node])
                for nxt in tree.neighbors(node):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            parts.append(tuple(sorted(part)))
        return tuple(parts)

    return rest


def custom_lattice(elements: Iterable[SetPartition], labels: Sequence[int] | None = None) -> PartitionLattice:
    """Wrap a user-supplied element list after validating lattice structure."""
    return PartitionLattice(list(elements), family_tag=None, labels=labels)


# -- structural conditions -------------------------------------------------


@dataclass
class ConditionReport:
    condition: str
    holds: bool | None
    witness: str | None = None
    checked_sizes: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        if self.holds is None:
            raise ValueError(f"condition {self.condition} was not checked: {self.witness}")
        return self.holds


CONDITION_CHECK_LIMIT = 6


def _subsets(labels: Sequence[int]) -> Iterable[tuple[int, ...]]:
    for r in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, r)


def _lattice_family_sizes(fam: Family, max_size: int) -> list[int]:
    if fam.kind == TREE:
        assert fam.tree is not None
        return [fam.tree.num_leaves]
    return list(range(1, max_size + 1))


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

    Verification is exhaustive for the given sizes and never extrapolates:
    sizes above :data:`CONDITION_CHECK_LIMIT` return ``holds=None``.
    """
    which = which.upper()
    if which not in {"C0", "C1", "C2", "C3"}:
        raise ValueError(f"unknown condition {which!r}")
    if max_size > CONDITION_CHECK_LIMIT:
        return ConditionReport(which, None, f"size {max_size} above the exhaustive-check limit", ())
    sizes = _lattice_family_sizes(fam, max_size)
    if any(n > max_size for n in sizes):
        # A tree family cannot be truncated to a smaller ground set, so a
        # tree wider than the requested size is reported unchecked rather
        # than vacuously true.
        return ConditionReport(
            which, None, f"tree with {max(sizes)} leaves exceeds the requested size {max_size}", ()
        )
    checker = {"C0": _check_c0, "C1": _check_c1, "C2": _check_c2, "C3": _check_c3}[which]
    for n in sizes:
        witness = checker(fam, n, capacity)
        if witness is not None:
            return ConditionReport(which, False, witness, tuple(sizes))
    return ConditionReport(which, True, None, tuple(sizes))


def _check_c1(fam: Family, n: int, capacity) -> str | None:
    labels = _root_labels(fam, n)
    for ground in _subsets(labels):
        if len(ground) < 2:
            continue
        lat = build(fam, ground, capacity)
        d = len(ground)
        for i in range(d):
            split = SetPartition.from_blocks([[i], [j for j in range(d) if j != i]], size=d)
            if split not in lat:
                return f"split {format_partition(split, ground)} missing from the lattice on {ground}"
    return None


def _root_labels(fam: Family, n: int) -> tuple[int, ...]:
    if fam.kind == TREE:
        assert fam.tree is not None
        return fam.tree.leaves[:n]
    return tuple(range(1, n + 1))


def _check_c0(fam: Family, n: int, capacity) -> str | None:
    root_labels = _root_labels(fam, n)
    sub_cache: dict[tuple[int, ...], PartitionLattice] = {}

    def sub_lattice(block_labels: tuple[int, ...]) -> PartitionLattice:
        if block_labels not in sub_cache:
            sub_cache[block_labels] = build(fam, block_labels, capacity)
        return sub_cache[block_labels]

    # Size-indexed families are covered by the initial segment; tree
    # lattices differ per leaf subset, so every ground set is visited.
    grounds: list[tuple[int, ...]] = (
        list(_subsets(root_labels)) if fam.kind == TREE else [root_labels]
    )
    for labels in grounds:
        lat = sub_lattice(labels)
        for hi in lat.elements:
            blocks = [tuple(labels[i] for i in block) for block in hi.blocks]
            for lo in lat.elements:
                if not refines(lo, hi):
                    continue
                inside = lat.interval(lo, hi)
                factor_sets = []
                for block, block_labels in zip(hi.blocks, blocks):
                    sub = sub_lattice(block_labels)
                    lo_b = restrict(lo, block)
                    hi_b = restrict(hi, block)
                    factor_sets.append({q.rgs for q in sub.interval(lo_b, hi_b)})
                product = set(itertools.product(*factor_sets))
                image = {tuple(restrict(delta, block).rgs for block in hi.blocks) for delta in inside}
                if len(image) != len(inside) or image != product:
                    return (
                        f"interval [{format_partition(lo, labels)}, {format_partition(hi, labels)}] "
                        "does not restrict bijectively onto the blockwise product"
                    )
    return None


def _check_c2(fam: Family, n: int, capacity) -> str | None:
    labels = _root_labels(fam, n)
    for ground in _subsets(labels):
        lat = build(fam, ground, capacity)
        ref = build(fam, labels[: len(ground)], capacity)
        if {p.rgs for p in lat.elements} != {p.rgs for p in ref.elements}:
            return (
                f"lattice on {ground} does not match the lattice on "
                f"{labels[: len(ground)]} under the order bijection"
            )
    return None


def _check_c3(fam: Family, n: int, capacity) -> str | None:
    labels = _root_labels(fam, n)
    lat = build(fam, labels, capacity)
    for pi in lat.elements:
        m = pi.num_blocks
        if fam.kind == TREE:
            assert fam.tree is not None
            if m > fam.tree.num_leaves:
                return f"cannot form a block lattice of size {m}"
            ref = build(fam, fam.tree.leaves[:m], capacity)
        else:
            ref = build(fam, m, capacity)
        above = lat.interval(pi, lat.top)
        image = set()
        for nu in above:
            image.add(_blocks_partition(pi, nu).rgs)
        if image != {p.rgs for p in ref.elements}:
            missing = {p.rgs for p in ref.elements} - image
            extra = image - {p.rgs for p in ref.elements}
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
