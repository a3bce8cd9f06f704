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
regression slopes and per-node mean offsets.  That closed form, its
extension to unresolved trees by contracting edges of a canonical
trivalent refinement, and variance-normalized coordinates live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Mapping, Sequence

from .lattice import TREE, Family, first_blocks
from .lcumulant import _first_block_solve, to_lcumulants
from .moments import (
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    central_moments,
    central_moments_direct,
)
from .partition import DEFAULT_CAPACITY
from .topology import TreeTopology, induced_subtree

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
    fam = Family(TREE, tree)
    space = StateSpace.binary(cm.space.n)
    given = {x: cm.entries[x] for x in space.states()}
    sums = _first_block_solve(space, given, lambda leaves: first_blocks(fam, leaves, capacity), forward=True)
    return {tuple(i + 1 for i, e in enumerate(x) if e): v for x, v in sums.items() if sum(x) > 1}


def tree_cumulants_via_central(
    mv: CoordinateVector, tree: TreeTopology, capacity: int | None = DEFAULT_CAPACITY
) -> CoordinateVector:
    """Tree cumulants through central moments; must agree with the direct sum.

    Centering kills every term with a singleton block, so only the
    singleton-free tree partitions contribute.
    """
    if mv.system != MOMENTS:
        raise ValueError(f"expected moments, got {mv.system}")
    space = mv.space
    if any(r != 2 for r in space.arities):
        raise ValueError("tree cumulants need a binary state space")
    sums = _singleton_free_sums(tree, central_moments(mv), capacity)
    entries: dict[tuple[int, ...], Fraction] = {}
    for x in space.states():
        support = tuple(i + 1 for i, e in enumerate(x) if e)
        if len(support) > 1:
            entries[x] = sums[support]
        elif support:
            entries[x] = mv.entries[x]
        else:
            entries[x] = Fraction(0)
    return CoordinateVector(space, TREE_CUMULANTS, entries, family=Family(TREE, tree))


def subset_tree_cumulants(
    dist: DiscreteDistribution, tree: TreeTopology, capacity: int | None = DEFAULT_CAPACITY
) -> dict[tuple[int, ...], Fraction]:
    """Tree cumulants of plain leaf subsets for arbitrary observed arities.

    Only simple (repeat-free) indices make sense against a leaf tree, so
    this works for any finite emission alphabet: the value at I is the
    alternating central-moment sum over singleton-free tree partitions.
    """
    out = {(i,): dist.raw_moment((i,)) for i in range(1, dist.space.n + 1)}
    out.update(_singleton_free_sums(tree, central_moments_direct(dist), capacity))
    return out


# -- the two-state latent tree parametrization -------------------------------


@dataclass(frozen=True)
class GMMParams:
    """Root distribution plus one conditional row pair per directed edge.

    ``tables[(u, v)]`` holds ``(p(X_v=1 | X_u=0), p(X_v=1 | X_u=1))`` for
    the edge directed from parent u to child v; all nodes are binary.
    """

    root_dist: tuple[Fraction, Fraction]
    tables: Mapping[tuple[object, object], tuple[Fraction, Fraction]]

    def __post_init__(self):
        p0, p1 = self.root_dist
        if p0 + p1 != 1:
            raise ValueError("root distribution must sum to one")

    def eta(self, u: object, v: object) -> Fraction:
        """Regression slope of the child on the parent along a directed edge."""
        t = self.tables[(u, v)]
        return t[1] - t[0]

    def node_means(self, tree: TreeTopology) -> dict[object, Fraction]:
        """Marginal one-probabilities of every node, walked from the root."""
        if tree.root is None:
            raise ValueError("parameter propagation needs a rooted tree")
        means: dict[object, Fraction] = {tree.root: Fraction(self.root_dist[1])}
        parents = tree.parent_map()
        order = sorted(parents, key=lambda v: len(tree.path(tree.root, v)))
        for v in order:
            u = parents[v]
            t = self.tables[(u, v)]
            means[v] = means[u] * t[1] + (1 - means[u]) * t[0]
        return means


def _bar(mean: Fraction) -> Fraction:
    return 1 - 2 * mean


def _meeting_root(tree: TreeTopology, sub: TreeTopology, support: Sequence[int]) -> object:
    """The reference node of the induced subtree.

    For a rooted tree this is the subtree node nearest the root (already
    tracked by the induced subtree); unrooted trees use the inner node
    adjacent to the smallest chosen leaf.  A leaf result steps to its
    unique inner neighbour.
    """
    node = sub.root
    if node is None:
        node = sub.neighbors(min(support))[0]
    if isinstance(node, int):
        node = sub.neighbors(node)[0]
    return node


def gmm_tree_cumulants(
    tree: TreeTopology, params: GMMParams, capacity: int | None = DEFAULT_CAPACITY
) -> CoordinateVector:
    """Closed-form tree cumulants of the latent tree model on its own tree.

    Every inner node of the tree must have degree at most three; inner
    nodes of higher degree need the contraction route through a trivalent
    refinement.  Degree-2 nodes of an induced subtree contribute no mean
    factor and their two edge slopes compose, so keeping them changes
    nothing.
    """
    if any(tree.degree(v) > 3 for v in tree.inner_nodes()):
        raise ValueError("inner degree above three; use contracted_tree_cumulants")
    if tree.root is None:
        raise ValueError("closed form needs the rooted parametrization")
    n = tree.num_leaves
    space = StateSpace.binary(n)
    means = params.node_means(tree)
    parents = tree.parent_map()
    entries: dict[tuple[int, ...], Fraction] = {}
    for x in space.states():
        support = tuple(i + 1 for i, e in enumerate(x) if e)
        d = len(support)
        if d == 0:
            entries[x] = Fraction(0)
            continue
        if d == 1:
            entries[x] = means[support[0]]
            continue
        sub = induced_subtree(tree, support)
        r_node = _meeting_root(tree, sub, support)
        value = Fraction(1, 4) * (1 - _bar(means[r_node]) ** 2)
        for v in sub.nodes:
            if isinstance(v, int):
                continue
            exponent = sub.degree(v) - 2
            if exponent:
                value *= _bar(means[v]) ** exponent
        for e in sub.edges:
            a, b = tuple(e)
            if parents.get(a) == b:
                parent, child = b, a
            else:
                parent, child = a, b
            value *= params.eta(parent, child)
        entries[x] = value
    return CoordinateVector(space, TREE_CUMULANTS, entries, family=Family(TREE, tree))


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


def lift_params(
    refined: TreeTopology,
    origin: Mapping[object, object],
    params: GMMParams,
) -> GMMParams:
    """Parameters on the refinement: cloned nodes copy their source.

    Edges between two copies of one original node carry the identity
    table (slope one, equal means); every original edge keeps its table,
    reattached to whichever copies it now joins.
    """
    if refined.root is None:
        raise ValueError("refined tree must stay rooted")
    identity = (Fraction(0), Fraction(1))
    tables: dict[tuple[object, object], tuple[Fraction, Fraction]] = {}
    parents = refined.parent_map()
    for child, parent in parents.items():
        src_c, src_p = origin.get(child, child), origin.get(parent, parent)
        if src_c == src_p:
            tables[(parent, child)] = identity
        elif (src_p, src_c) in params.tables:
            tables[(parent, child)] = tuple(params.tables[(src_p, src_c)])  # type: ignore[assignment]
        else:
            # The original edge pointed the other way; slope tables are not
            # direction-symmetric, so reversed edges are rejected here.
            raise ValueError(f"edge {(src_p, src_c)} missing from the parameter tables")
    return GMMParams(params.root_dist, tables)


def contracted_tree_cumulants(
    tree: TreeTopology, params: GMMParams, capacity: int | None = DEFAULT_CAPACITY
) -> tuple[TreeTopology, CoordinateVector]:
    """Tree cumulants of a (possibly unresolved) model in refined coordinates.

    The model distribution is unchanged by the refinement since contracted
    edges copy states with probability one; the returned coordinates are
    the refined tree's cumulants of that distribution.
    """
    refined, origin = trivalent_refinement(tree)
    lifted = lift_params(refined, origin, params)
    return refined, gmm_tree_cumulants(refined, lifted, capacity)


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


def variances_from_distribution(dist: DiscreteDistribution) -> list[Fraction]:
    out = []
    for i in range(1, dist.space.n + 1):
        mean = dist.raw_moment([i])
        out.append(dist.raw_moment([i, i]) - mean * mean)
    return out


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
