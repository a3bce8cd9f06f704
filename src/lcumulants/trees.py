"""Tree-indexed cumulants and the two-state latent tree parametrization.

The partitions of a leaf subset I induced by cutting edges of the minimal
subtree over I form a lattice; the associated cumulants are the
coordinates in which marginal independence across any edge split of the
tree shows up as vanishing.  From central moments only the singleton-free
tree partitions contribute, since a centred singleton is 0 (C1).  So the
forward first-block recursion of :mod:`lcumulant`, run on the central
moments, gives that singleton-free sum on every leaf subset; it reads the
tree's first-block tables and builds no lattice or weight table.

For a tree whose inner nodes are binary latent variables (the general
Markov construction), every coordinate of the observed leaf vector is,
up to a variance factor at the meeting point, a monomial in per-edge
regression slopes and per-node mean offsets.  One pass up from the
leaves evaluates that closed form on any rooted tree; the latent tree,
its contraction onto a trivalent refinement, and the mixture chart and
hidden chain of :mod:`models` differ only in the tree and the parameters
they hand it.  Variance-normalized coordinates live here too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Mapping, Sequence

from .lattice import TREE, Family
from .lcumulant import _first_block_solve, to_lcumulants
from .moments import (
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _box,
    _fractions,
    _Graded,
    _strides,
    central_moments,
    moments_from_distribution,
)
from .partition import DEFAULT_CAPACITY, CapacityError, _Frozen
from .topology import TreeTopology

TREE_CUMULANTS = LCUMULANTS  # tree cumulants are the lattice cumulants of a tree family


def tree_cumulants(mv: CoordinateVector, tree: TreeTopology, capacity: int | None = DEFAULT_CAPACITY) -> CoordinateVector:
    """Tree cumulants of a binary vector from its raw moments."""
    return to_lcumulants(mv, Family(TREE, tree), capacity)


def _singleton_free_sums(
    tree: TreeTopology, cm: CoordinateVector, capacity: int | None
) -> dict[tuple[int, ...], Fraction]:
    """Sum over the singleton-free tree partitions of every leaf subset.

    Each partition contributes its Moebius weight to the top times the
    central moments ``cm`` of its blocks.  The forward recursion on ``cm``
    gives the sum over all tree partitions, and every term with a
    singleton block holds a centred first moment, which is 0.  The
    subsets are the 0/1 exponents of ``cm``'s box, read as a binary box.
    """
    space = StateSpace.binary(cm.space.n)
    nums, _, d, c = cm._integers()
    strides = _strides(cm.space.arities)
    states, sizes = _box(space)
    given = _Graded([nums[sum(map(mul, x, strides))] for x in states], sizes, d, c)
    sums = _fractions(states, _first_block_solve(space, given, Family(TREE, tree), capacity, forward=True))
    return {tuple(i + 1 for i, e in enumerate(x) if e): v for x, v in sums.items() if sum(x) > 1}


def subset_tree_cumulants(
    dist: DiscreteDistribution, tree: TreeTopology, capacity: int | None = DEFAULT_CAPACITY
) -> dict[tuple[int, ...], Fraction]:
    """Tree cumulants of plain leaf subsets for arbitrary observed arities.

    Only simple (repeat-free) indices make sense against a leaf tree, so
    this works for any finite emission alphabet: the value at I is the
    alternating central-moment sum over singleton-free tree partitions.
    The means and the central moments come from one moment pass.
    """
    mv = moments_from_distribution(dist)
    out = {(i,): mv.of_multiset((i,)) for i in range(1, dist.space.n + 1)}
    out.update(_singleton_free_sums(tree, central_moments(mv), capacity))
    return out


# -- the two-state latent tree parametrization -------------------------------


class GMMParams(_Frozen):
    """Root distribution plus one conditional row pair per directed edge.

    ``tables[(u, v)]`` holds ``(p(X_v=1 | X_u=0), p(X_v=1 | X_u=1))`` for
    the edge directed from parent u to child v; all nodes are binary.
    """

    _fields = ("root_dist", "tables")

    def __init__(
        self,
        root_dist: tuple[Fraction, Fraction],
        tables: Mapping[tuple[object, object], tuple[Fraction, Fraction]],
    ):
        p0, p1 = root_dist
        if p0 + p1 != 1:
            raise ValueError("root distribution must sum to one")
        object.__setattr__(self, "root_dist", root_dist)
        object.__setattr__(self, "tables", tables)

    def eta(self, u: object, v: object) -> Fraction:
        """Regression slope of the child on the parent along a directed edge."""
        t = self.tables[(u, v)]
        return t[1] - t[0]

    def node_means(self, tree: TreeTopology) -> dict[object, Fraction]:
        """Marginal one-probabilities of every node, walked from the root."""
        if tree.root is None:
            raise ValueError("parameter propagation needs a rooted tree")
        means: dict[object, Fraction] = {tree.root: Fraction(self.root_dist[1])}
        for v, u in tree.parent_map().items():  # each parent before its children
            t = self.tables[(u, v)]
            means[v] = means[u] * t[1] + (1 - means[u]) * t[0]
        return means


def _closed_form(tree: TreeTopology, params: GMMParams) -> dict[int, Fraction]:
    """The latent tree closed form of every nonempty leaf set, keyed by bitmask.

    Bit v-1 stands for leaf v, and a single leaf gets its mean.  A larger
    set gets (1 - bar(r)^2) / 4 at the top node r of its span (a leaf root
    steps to its child), bar(v)^(k-2) = (1 - 2 mean(v))^(k-2) at each node v
    with k span edges, and the slope of each span edge (Zwiernik & Smith
    2012).  One pass, leaves up: each node maps every leaf set below it to
    the product over the set's span down from it, counting its edge up.
    Joining its children one at a time, the node meets a set held from j
    children with a set of the next: the join's top is the node, closed
    with (1 - bar^2) / 4 and the j - 1 factors of bar the entry holds, and
    passed up with one more.  Any inner degree works: the copies of a node
    in a trivalent refinement share its mean, are joined by slope-one
    edges, and their exponents k - 2 add up to the node's own.
    """
    means = params.node_means(tree)
    parents = tree.parent_map()  # each parent before its children
    children: dict[object, list[object]] = {v: [] for v in tree.nodes}
    for v, u in parents.items():
        children[u].append(v)
    values = {1 << (v - 1): means[v] for v in tree.leaves}
    tables: dict[object, dict[int, Fraction]] = {}
    for v in reversed([tree.root, *parents]):
        # A leaf starts from its own set.  A leaf root joins it to its
        # child's sets, and the child is the top of the joined sets.
        table = {1 << (v - 1): Fraction(1)} if isinstance(v, int) else {}
        top = children[v][0] if isinstance(v, int) and children[v] else v
        bar = 1 - 2 * means[top]
        quarter = (1 - bar * bar) / 4
        for c in children[v]:
            eta = params.eta(v, c)
            up = {mask: eta * value for mask, value in tables.pop(c).items()}
            for mask, value in list(table.items()):
                closing, passing = quarter * value, bar * value
                for child_mask, child_value in up.items():
                    values[mask | child_mask] = closing * child_value
                    table[mask | child_mask] = passing * child_value
            table.update(up)
        tables[v] = table
    return values


def trivalent_refinement(tree: TreeTopology) -> tuple[TreeTopology, dict[object, object]]:
    """Resolve every inner node of degree above three into a left comb.

    Neighbours are processed in label order: the first new node keeps the
    first two, each following node takes one more, and the last keeps the
    final two.  Returns the refined tree and the map from each new node to
    the original node it refines (identity on untouched nodes).
    """
    edges = {tuple(sorted(e, key=str)) for e in tree.edges}
    origin: dict[object, object] = {v: v for v in tree.nodes}
    adj: dict[object, list[object]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    counter = itertools.count(1)
    root = tree.root
    for node in sorted((v for v in tree.nodes if not isinstance(v, int)), key=str):
        while len(adj[node]) > 3:
            neighbours = sorted(adj[node], key=str)
            split_off = neighbours[:2]
            fresh = f"{node}_{next(counter)}"
            origin[fresh] = node
            for w in split_off:
                adj[w].remove(node)
                adj[w].append(fresh)
                adj[node].remove(w)
            adj[fresh] = split_off + [node]
            adj[node].append(fresh)
    out_edges = set()
    for u, ws in adj.items():
        for w in ws:
            out_edges.add(tuple(sorted((u, w), key=str)))
    return TreeTopology(out_edges, root=root), origin


def contracted_tree_cumulants(
    tree: TreeTopology, params: GMMParams, capacity: int | None = DEFAULT_CAPACITY
) -> tuple[TreeTopology, CoordinateVector]:
    """Tree cumulants of a (possibly unresolved) model in refined coordinates.

    The model distribution is unchanged by the refinement since contracted
    edges copy states with probability one; the returned coordinates are
    the refined tree's cumulants of that distribution, which
    :func:`_closed_form` reads off the unresolved tree itself.  A tree
    whose inner degrees are at most three is its own refinement.
    """
    if tree.root is None:
        raise ValueError("closed form needs the rooted parametrization")
    n = tree.num_leaves
    if capacity is not None and n > capacity:
        raise CapacityError(f"ground set of size {n} exceeds the cap of {capacity}")
    refined, _ = trivalent_refinement(tree)
    space = StateSpace.binary(n)
    values = _closed_form(tree, params)
    values[0] = Fraction(0)
    entries = {x: values[sum(e << i for i, e in enumerate(x))] for x in space.states()}
    return refined, CoordinateVector(space, TREE_CUMULANTS, entries, family=Family(TREE, refined))


# -- normalization ------------------------------------------------------------


def exact_sqrt(value: Fraction) -> Fraction | None:
    """The exact square root when the fraction is a perfect square."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def variances_from_moments(mv: CoordinateVector) -> list[Fraction]:
    """Per-variable variances read off an aliased moment vector.

    A second moment outside the box is recovered through the aliasing of
    powers: a two-valued variable satisfies v^2 = (a+b) v - ab for its two
    values a, b, so its variance is computable from the mean alone.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    out = []
    for i in range(1, space.n + 1):
        mean = mv.of_multiset((i,))
        if space.arities[i - 1] >= 3:
            second = mv.of_multiset((i, i))
        else:
            a, b = space.values[i - 1]
            second = (a + b) * mean - a * b
        out.append(second - mean * mean)
    return out


def normalized_tree_cumulants(
    tree_cums: Mapping[tuple[int, ...], Fraction] | CoordinateVector,
    variances: Sequence[Fraction],
):
    """Divide each coordinate by the standard deviations of its variables.

    Order-2 values become correlations.  When every variance is a rational
    square the result stays exact; otherwise it degrades to floats.  Zero
    variances are degenerate and rejected.
    """
    if isinstance(tree_cums, CoordinateVector):
        items = {
            tree_cums.space.index_multiset(x): v for x, v in tree_cums.entries.items()
        }
    else:
        items = dict(tree_cums)
    variances = [Fraction(v) for v in variances]
    if any(v <= 0 for v in variances):
        raise ValueError("normalization needs strictly positive variances")
    roots = [exact_sqrt(v) for v in variances]
    exact = all(r is not None for r in roots)
    out: dict[tuple[int, ...], Fraction | float] = {}
    for multiset, value in items.items():
        if not multiset:
            continue
        if exact:
            scale = Fraction(1)
            for i in multiset:
                scale *= roots[i - 1]  # type: ignore[operator]
            out[multiset] = value / scale
        else:
            scale_f = 1.0
            for i in multiset:
                scale_f *= float(variances[i - 1]) ** 0.5
            out[multiset] = float(value) / scale_f
    return out
