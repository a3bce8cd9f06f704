"""Slow paths kept as the oracles of the fast ones that replaced them.

The library defines each family once, by its first-block rule
(``lattice.first_blocks``).  The second definitions live here:
``all_partitions`` lists every partition of a ground set by
restricted-growth sequences (``bell_number`` sizes its cap message), and
``is_noncrossing``, ``is_interval`` and ``is_one_cluster`` filter them
into the size-indexed families.  ``induced_subtree`` is the smallest
subtree spanning a leaf set, which ``tree_elements`` and
``gmm_tree_cumulants_by_subtree`` walk.  ``first_block_positions``
decodes the bitmask table of ``lattice.first_blocks`` into position
tuples, the form ``first_block_solve`` and ``tree_first_blocks`` use.

``lcumulant._first_block_solve``, ``moments._per_axis`` and the minor walk
of ``models.split_binomials`` compute on integers.  ``first_block_solve``, ``per_axis`` and
``split_minors`` here are the same loops on ``Fraction`` entries, as they
ran before; the kernels must return the same values.  The recursion
reads its tables through a cached plan, and ``first_block_solve`` reads
them per index (``first_block_tables``).  The plan derives each state's
stride and table key from its head's; ``solve_plan_by_tables`` builds it
state by state through ``lattice.first_blocks``, as it was built
before, with every stride of each state's positions.  The per-axis pass
rotates one flat list, and ``per_axis`` indexes the box state by state.
The one-cluster transforms run the per-axis centring shift in place of
the recursion; ``first_block_solve`` on the one-cluster tables is their
oracle.  ``split_binomials`` walks a split's minors only when its
rank-one test fails; ``split_minors`` walks them always.

``lattice._elements`` derives a family's elements from its first-block
table, and ``lattice.mobius_weights`` gives mu(pi, top) in closed form.
``tree_elements`` is the route the elements replaced: a span test on
every partition of a tree's leaves.  ``pushed_weights`` and
``weights_from_coarsenings`` are the routes the non-crossing and tree
closed forms replaced: mu pushed up through every first block, and the
recursion down from the top over coarsenings.

``lattice.check_condition`` checks C0..C3 on the element lists of
``lattice.mobius_weights``, with ``refines`` filters for the intervals
and coarsenings.  ``check_condition`` here gives the same ``(holds,
witness)`` by the checks it replaced, ``check_c0`` to ``check_c3``, which
read explicit lattices: ``build`` wraps a family's elements in a
``lattice.PartitionLattice``, with its up/down sets and Moebius
recursion, and ``custom_lattice`` wraps any element list after checking
that every pair has a meet.  The tests use them as the oracle of the
weights too.

``lattice.first_blocks`` reads a tree's table off the splits of the
subtree its leaves induce, one table per shape.  ``tree_first_blocks``
builds it per leaf tuple, as it was built before, with ``tree_rest``: a
search of the whole tree for each (leaf tuple, first block).

``lcumulant.detect_independence_structure`` descends the first-block
tables to the least family element above the components of the nonzero
supports.  ``detect_independence_structure`` here is the scan it
replaced: every element of the weight table, finest first, each checked
entry by entry with ``vanishes_outside``.

``lcumulant.l_from_classical``, ``lcumulant.conditional_collapse``,
``lcumulant.cumulant_tensor`` and ``lcumulant.brillinger`` run the
first-block transforms.  The functions of those names here are the
paper's sums they replaced: products of classical cumulants over the
partitions with only the top above them in the family; the Moebius weight
table summed against moments of the conditional means, and against
moments of the tensor's index tuple; and Brillinger's nested sum over the
comparable pairs of elements, whose coarser partition groups the
conditional cumulants of the finer one's blocks into expectations over Y.

``eager_vectors`` builds what the moment map, the two transforms, the
classical cumulants, the centring and the affine change return, with every
entry built at once by the Fraction loops above.  The library's vectors
build their entries from their integer forms on the first read, and must
give the same value.

``tree_cumulants_via_central`` and ``central_moments_direct`` are second
routes to ``trees.tree_cumulants`` and ``moments.central_moments``: the
singleton-free sum over central moments, and the per-axis pass of the
centred values over the probability table.

``trees._closed_form`` evaluates the latent tree closed form in one
pass up from the leaves, for the latent tree, its contraction, the
mixture chart and the hidden chain alike.  ``gmm_tree_cumulants_by_states``
is the loop it replaced: for each leaf set, a walk over every edge that
reads the span off one bitmask per node; it takes inner nodes of any
degree.  ``gmm_tree_cumulants_by_subtree`` is the route before that: an
induced subtree per leaf set, with its path walks.  ``lift_params`` is
how unresolved trees reached the closed form before: it copies the
parameters onto a trivalent refinement, with slope-one edges between the
copies of a node.  ``secant_tree_cumulants`` is the mixture chart's
formula, t(1-t)(1-2t)^(d-2) times the product of the mean gaps.

``models.hmm_distribution`` and ``models.secant_moments`` run the upward
pass that ``models.gmm_distribution`` runs.  ``hmm_distribution_by_states``
and ``secant_moments_by_states`` are the per-state loops they replaced: the
forward recursion from the first position for each joint state, and one
product of component means per state of the mixture.  ``models._upward_pass``
runs on integer rows and weights, each scaled by the lcm of its
denominators.  ``upward_pass`` here is the same pass on ``Fraction`` rows,
keyed by leaf tuple, as it ran before; ``gmm_distribution_by_fractions``,
``hmm_distribution_by_fractions`` and ``secant_moments_by_fractions``
build the three model laws through it.  It is the oracle at 12 leaves,
where no per-state loop goes.

``models.hmm_tree_cumulants_closed`` extends each support's products from
its prefix's.  ``hmm_tree_cumulants_closed`` here rebuilds every support's
numerator and denominator from scratch, as it did before.

``topology.is_caterpillar`` reads the shape off the edge splits.
``is_caterpillar`` here builds the tree with its degree-2 nodes
suppressed (``suppress_degree_two``) and checks that it is trivalent with
its inner nodes on a path, as it did before.
``models._conditionally_independent`` compares each cell of a slice of
the joint table with the product of its block marginals, each summed in
one pass.  ``conditionally_independent`` here divides the slice by its
mass and rescans the whole conditional table for every cell and block.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from lcumulants.lattice import (
    FULL,
    TREE,
    Family,
    PartitionLattice,
    _blocks_partition,
    _cached_first_blocks,
    _elements,
    _ground_labels,
    _positions,
    _root_labels,
    _sub_ground,
    _subsets,
    first_blocks,
    mobius_weights,
)
from lcumulants.lcumulant import (
    _BRILLINGER_FAMILIES,
    CumulantTensor,
    UnsupportedFamilyError,
    _brillinger_supported,
    _ground_of,
    _moment_function,
    _y_table,
)
from lcumulants.moments import (
    CENTRAL_MOMENTS,
    CLASSICAL_CUMULANTS,
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _per_axis,
    _scaled_integers,
    _scaled_matrix,
    _shift_matrix,
    _strides,
    _vandermonde,
    central_moments,
    marginal,
)
from lcumulants.partition import (
    DEFAULT_CAPACITY,
    CapacityError,
    SetPartition,
    _canonical,
    format_partition,
    refines,
    restrict,
)
from lcumulants.topology import TreeTopology
from lcumulants.trees import TREE_CUMULANTS, GMMParams, _singleton_free_sums


@functools.cache
def bell_number(d):
    if d < 0:
        raise ValueError("negative ground set size")
    if d == 0:
        return 1
    # Bell triangle recurrence.
    row = [1]
    for _ in range(d - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def all_partitions(d, capacity=DEFAULT_CAPACITY):
    """All partitions of ``0..d-1``, finest first, then lexicographic by RGS.

    The order is deterministic: the all-singletons partition leads, the
    one-block partition closes, and within a fixed block count RGS compare
    lexicographically.
    """
    if d < 1:
        raise ValueError("ground set must be nonempty")
    if capacity is not None and d > capacity:
        raise CapacityError(
            f"partition enumeration for d={d} exceeds the cap of {capacity} "
            f"(Bell({d})={bell_number(d)}); raise the capacity explicitly to proceed"
        )
    out = [SetPartition(rgs) for rgs in _rgs_iter(d)]
    out.sort(key=lambda p: (-p.num_blocks, p.rgs))
    return out


def _rgs_iter(d):
    rgs = [0] * d
    maxes = [0] * d

    def rec(i):
        if i == d:
            yield tuple(rgs)
            return
        top = maxes[i - 1]
        for value in range(top + 2):
            rgs[i] = value
            maxes[i] = max(top, value)
            yield from rec(i + 1)

    if d == 1:
        yield (0,)
    else:
        yield from rec(1)


def is_noncrossing(pi):
    """No quadruple i<j<k<l with i~k, j~l and i~/j."""
    rgs = pi.rgs
    for i, j, k, l in itertools.combinations(range(pi.size), 4):
        if rgs[i] == rgs[k] and rgs[j] == rgs[l] and rgs[i] != rgs[j]:
            return False
    return True


def is_interval(pi):
    """Every block is a contiguous run of positions."""
    return all(block[-1] - block[0] == len(block) - 1 for block in pi.blocks)


def is_one_cluster(pi):
    """At most one block of size greater than one."""
    return sum(1 for block in pi.blocks if len(block) > 1) <= 1


def induced_subtree(tree, leaf_subset):
    """Smallest subtree spanning the given leaves; degree-2 nodes are kept.

    The root of the result, when the input is rooted, is the node of the
    subtree closest to the original root.
    """
    chosen = sorted(set(leaf_subset))
    if not chosen:
        raise ValueError("need at least one leaf")
    if not set(chosen) <= set(tree.leaves):
        raise ValueError("unknown leaf labels")
    if len(chosen) == 1:
        # A single leaf induces the one-node tree; keep its pendant edge so
        # the structure stays a tree with that leaf.
        leaf = chosen[0]
        anchor = tree.neighbors(leaf)[0]
        return TreeTopology([(leaf, anchor)], root=anchor)
    keep_nodes = set()
    keep_edges = set()
    for u, v in ((u, v) for u in chosen for v in chosen if u < v):
        path = tree.path(u, v)
        keep_nodes.update(path)
        keep_edges.update(zip(path, path[1:]))
    sub_root = None
    if tree.root is not None:
        node = tree.root
        while node not in keep_nodes:
            # Walk towards the subtree along the unique path to a kept leaf.
            node = tree.path(node, chosen[0])[1]
        sub_root = node
    return TreeTopology([tuple(e) for e in keep_edges], root=sub_root)


def first_block_positions(fam, ground, capacity=DEFAULT_CAPACITY):
    """``lattice.first_blocks`` with each bitmask decoded into its increasing positions."""
    return tuple(
        (_positions(block), tuple(map(_positions, rest))) for block, rest in first_blocks(fam, ground, capacity)
    )


def first_block_tables(fam, space, capacity):
    """The ``(B, rest)`` table of an index multiset, read per index.

    ``_first_block_solve`` reads the same tables through its cached plan.
    """
    ground = _ground_of(fam, space)
    return lambda multiset: first_block_positions(fam, ground(multiset), capacity=capacity)


def solve_plan_by_tables(fam, arities, capacity):
    """The plan of ``lcumulant._cached_plan``, built as it was before.

    Returns ``(sizes, order)``, with ``(code, step, table)`` in ``order``:
    each state's step holds the stride of every one of its positions, where
    the plan keeps the last one, and its length is the index size.  Each
    state's multiset, step and table are derived from scratch, its labels
    checked and its table key computed over every split, through
    ``lattice.first_blocks``.
    """
    space = StateSpace.of(arities)
    ground = _ground_of(fam, space)
    largest = space.index_multiset(tuple(r - 1 for r in arities))
    if largest:
        first_blocks(fam, ground(largest), capacity)
    states = list(space.states())
    strides = _strides(arities)
    sizes = tuple(map(sum, states))
    order = []
    for code in sorted(range(1, len(states)), key=sizes.__getitem__):
        multiset = space.index_multiset(states[code])
        step = tuple(strides[i - 1] for i in multiset)
        order.append((code, step, first_blocks(fam, ground(multiset), capacity)))
    return sizes, tuple(order)


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


def eager_vectors(dist, fam, scale, shift):
    """What six producers return on ``dist``, every entry built at once on Fractions.

    Keyed by producer: the moments of ``dist``; ``to_lcumulants`` under
    ``fam``, ``classical_cumulants``, ``central_moments`` and
    ``transform_values`` by ``scale`` and ``shift`` of those moments; and
    ``from_lcumulants`` of the cumulants.  Each vector is made with the
    public constructor, so its entries are a plain field from the start.
    """
    space, full = dist.space, Family(FULL)
    moments = per_axis(space, dist.table, [_vandermonde(vm) for vm in space.values])
    tables = first_block_tables(fam, space, None)
    kappa = first_block_solve(space, moments, tables, True)
    classical = first_block_solve(space, moments, first_block_tables(full, space, None), True)
    units = [tuple(int(j == i) for j in range(space.n)) for i in range(space.n)]
    centring = [_shift_matrix(r, Fraction(1), -moments[u]) for r, u in zip(space.arities, units)]
    centred = per_axis(space, moments, centring)
    centred[(0,) * space.n] = Fraction(1)
    centred.update(dict.fromkeys(units, Fraction(0)))
    moved = per_axis(space, moments, [_shift_matrix(r, a, b) for r, a, b in zip(space.arities, scale, shift)])
    return {
        "moments_from_distribution": CoordinateVector(space, MOMENTS, moments),
        "to_lcumulants": CoordinateVector(space, LCUMULANTS, kappa, family=fam),
        "classical_cumulants": CoordinateVector(space, CLASSICAL_CUMULANTS, classical, family=full),
        "from_lcumulants": CoordinateVector(space, MOMENTS, first_block_solve(space, kappa, tables, False)),
        "central_moments": CoordinateVector(space, CENTRAL_MOMENTS, centred),
        "transform_values": CoordinateVector(space, MOMENTS, moved),
    }


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


def build(fam, ground, capacity=DEFAULT_CAPACITY):
    """The explicit lattice of a family over a ground set (a size or labels)."""
    labels = _ground_labels(fam, ground, capacity)
    return PartitionLattice(_elements(fam.kind, _sub_ground(fam.splits, labels)), family_tag=fam, labels=labels)


def custom_lattice(elements, labels=None):
    """Wrap a user-supplied element list after validating lattice structure."""
    return PartitionLattice(list(elements), family_tag=None, labels=labels)


def check_condition(fam, which, max_size, capacity=DEFAULT_CAPACITY):
    """``(holds, witness)`` of ``lattice.check_condition`` at a checkable size, on explicit lattices."""
    sizes = [fam.tree.num_leaves] if fam.kind == TREE else range(1, max_size + 1)
    checker = {"C0": check_c0, "C1": check_c1, "C2": check_c2, "C3": check_c3}[which]
    for n in sizes:
        witness = checker(fam, n, capacity)
        if witness is not None:
            return False, witness
    return True, None


def check_c0(fam, n, capacity):
    root_labels = _root_labels(fam, n)
    sub_cache = {}

    def sub_lattice(block_labels):
        if block_labels not in sub_cache:
            sub_cache[block_labels] = build(fam, block_labels, capacity)
        return sub_cache[block_labels]

    grounds = list(_subsets(root_labels)) if fam.kind == TREE else [root_labels]
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


def check_c1(fam, n, capacity):
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


def check_c2(fam, n, capacity):
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


def check_c3(fam, n, capacity):
    labels = _root_labels(fam, n)
    lat = build(fam, labels, capacity)
    for pi in lat.elements:
        m = pi.num_blocks
        ref = build(fam, fam.tree.leaves[:m] if fam.kind == TREE else m, capacity)
        image = set()
        for nu in lat.interval(pi, lat.top):
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


def tree_elements(tree, labels):
    """Partitions of the leaf subset induced by cutting edges of the subtree.

    A partition qualifies exactly when the minimal subtrees spanning its
    non-singleton blocks are pairwise node-disjoint: the spanning subtrees
    then serve as the connected components, and a leaf never sits on the
    path between two other leaves, so no foreign leaf is swept in.
    """
    if len(labels) == 1:
        return [SetPartition.singletons(1)]
    sub = induced_subtree(tree, labels)

    def span(block_labels):
        nodes = set()
        for other in block_labels[1:]:
            nodes.update(sub.path(block_labels[0], other))
        return frozenset(nodes)

    out = []
    for p in all_partitions(len(labels), capacity=None):
        spans = [span([labels[i] for i in block]) for block in p.blocks if len(block) > 1]
        if not any(a & b for a, b in itertools.combinations(spans, 2)):
            out.append(p)
    return out


def tree_rest(tree, labels):
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


def tree_first_blocks(tree, labels):
    """The ``(B, rest)`` table of a tree family on one leaf tuple, by ``tree_rest``."""
    d = len(labels)
    rest_of = tree_rest(tree, labels)
    out = []
    for size in range(d - 1):
        for tail in itertools.combinations(range(1, d), size):
            block = (0, *tail)
            others = tuple(j for j in range(1, d) if j not in tail)
            out.append((block, rest_of(block, others)))
    return tuple(out)


@functools.cache  # shared by the keys of one family, which reuse each other's sub-keys
def pushed_weights(kind, key):
    """mu(pi, top) keyed by RGS, from the moment expansion of the forward recursion.

    ``kappa(A) = m(A) - sum over (B, rest) of kappa(B) * prod over S in rest of m(S)``.
    Writing kappa(B) as the sum of mu_B(sigma, top) times the block moments
    of sigma gives ``mu_A(pi) = [pi = top] - sum of mu_B(sigma)`` over the
    (B, sigma) for which pi is sigma on B with each rest part one block.
    By C0 every such pi is an element of the family.
    """
    d, sides = key
    mu, raw = {(0,) * d: 1}, [0] * d
    for block_mask, rest in _cached_first_blocks(kind, key):
        block = _positions(block_mask)
        for t, part in enumerate(rest):
            for j in _positions(part):
                raw[j] = d + t  # above every label of sigma
        for sigma, weight in pushed_weights(kind, _sub_ground(sides, block)).items():
            for j, v in zip(block, sigma):
                raw[j] = v
            rgs = _canonical(raw)
            mu[rgs] = mu.get(rgs, 0) - weight
    return mu


@functools.cache
def _merges(k):
    """The RGS of every partition of k blocks but the finest."""
    return [beta.rgs for beta in all_partitions(k, capacity=None)[1:]]


def weights_from_coarsenings(elements):
    """mu(pi, top) for elements listed finest first, by recursion down from the top.

    mu(pi, top) is minus the sum of mu(sigma, top) over the proper
    coarsenings sigma of pi in the family.  The coarsenings of pi are the
    partitions of its blocks, so they are generated and looked up among
    the elements already done.
    """
    mu = {}
    for p in reversed(elements):  # coarsest first
        k = p.num_blocks
        merged = operator.itemgetter(*p.rgs)  # beta read on the positions, a tuple for k > 1
        mu[p.rgs] = -sum(mu.get(merged(beta), 0) for beta in _merges(k)) if k > 1 else 1
    return [mu[p.rgs] for p in elements]


def _moment_of_blocks(values, multiset, blocks):
    out = Fraction(1)
    for block in blocks:
        out *= values.of_multiset(multiset[j] for j in block)
    return out


def l_from_classical(kv, fam, capacity=DEFAULT_CAPACITY):
    """Family cumulants as sums of products of classical cumulants.

    For each index, the partitions that see no family element between
    themselves and the top contribute the product of their blockwise
    classical cumulants.  The full family therefore returns its input.
    """
    if kv.system != CLASSICAL_CUMULANTS:
        raise ValueError(f"expected classical cumulants, got {kv.system}")
    ground = _ground_of(fam, kv.space)
    entries = {}
    for x in kv.space.states():
        multiset = kv.space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(0)
            continue
        weights = mobius_weights(fam, ground(multiset), capacity=capacity)
        total = Fraction(0)
        for pi in all_partitions(len(multiset), capacity=None):
            upper = [nu for nu, _ in weights if refines(pi, nu)]
            if len(upper) == 1:  # only the top block survives above pi
                total += _moment_of_blocks(kv, multiset, pi.blocks)
        entries[x] = total
    return CoordinateVector(kv.space, LCUMULANTS, entries, family=fam)


def conditional_collapse(y_dist, conditional_means, fam, capacity=DEFAULT_CAPACITY):
    """Top cumulant when all variables are independent given Y.

    Equals the family cumulant of the vector of conditional means, whose
    joint moments are plain expectations over Y; valid for every family.
    """
    ys = _y_table(y_dist)
    means = {y: [Fraction(v) for v in conditional_means[y]] for y, _ in ys}
    n = len(next(iter(means.values())))
    total = Fraction(0)
    for pi, weight in mobius_weights(fam, n, capacity=capacity):
        term = Fraction(weight)
        for block in pi.blocks:
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


def cumulant_tensor(source, fam, order, n=None, capacity=DEFAULT_CAPACITY):
    """Order-d tensor whose entry at (i1..id) sums over the size-d lattice."""
    if not fam.size_indexed:
        raise UnsupportedFamilyError(
            "cumulant tensors need one lattice per order; tree families are tied to leaf sets"
        )
    moment_fn, n = _moment_function(source, n)
    weights = mobius_weights(fam, order, capacity=capacity)
    entries = {}
    for idx in itertools.product(range(1, n + 1), repeat=order):
        total = Fraction(0)
        for pi, weight in weights:
            term = Fraction(weight)
            for block in pi.blocks:
                term *= moment_fn([idx[j] for j in block])
            total += term
        entries[idx] = total
    return CumulantTensor(order, n, entries)


def brillinger(y_dist, conditional_cumulants, fam, capacity=DEFAULT_CAPACITY):
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
    cond = {y: conditional_cumulants[y] for y, _ in ys}
    space = next(iter(cond.values())).space
    if any(vec.space != space for vec in cond.values()):
        raise ValueError("conditional cumulant vectors live on different state spaces")
    ground = _ground_of(fam, space)
    entries = {}
    for x in space.states():
        multiset = space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(0)
            continue
        weights = mobius_weights(fam, ground(multiset), capacity=capacity)
        total = Fraction(0)
        for delta, _ in weights:
            for nu, weight in weights:
                if not refines(delta, nu):
                    continue
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


def vanishes_outside(lv, pi0):
    """True iff every coordinate whose support leaves a block of pi0 is 0, entry by entry."""
    if pi0.size != lv.space.n:
        raise ValueError("partition size must match the number of variables")
    for x, value in lv.entries.items():
        support = [i for i, e in enumerate(x) if e]
        if value and any(pi0.rgs[i] != pi0.rgs[support[0]] for i in support[1:]):
            return False
    return True


def detect_independence_structure(lv, fam=None, capacity=DEFAULT_CAPACITY):
    """The first element of the weight table, finest first, that ``vanishes_outside`` certifies.

    Certification is monotone under coarsening and the certified set is
    closed under meets, so the first one found is the unique finest.
    """
    if lv.system not in (LCUMULANTS, CLASSICAL_CUMULANTS):
        raise ValueError(f"expected a cumulant system, got {lv.system}")
    fam = fam if fam is not None else lv.family
    if not isinstance(fam, Family):
        raise ValueError("the cumulant vector does not carry its family; pass one")
    ground = _ground_of(fam, lv.space)(tuple(range(1, lv.space.n + 1)))
    for pi0, _ in mobius_weights(fam, ground, capacity=capacity):  # finest first
        if vanishes_outside(lv, pi0):
            return pi0
    return SetPartition.one_block(lv.space.n)


def tree_cumulants_via_central(mv, tree, capacity=DEFAULT_CAPACITY):
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
    entries = {}
    for x in space.states():
        support = tuple(i + 1 for i, e in enumerate(x) if e)
        if len(support) > 1:
            entries[x] = sums[support]
        elif support:
            entries[x] = mv.entries[x]
        else:
            entries[x] = Fraction(0)
    return CoordinateVector(space, TREE_CUMULANTS, entries, family=Family(TREE, tree))


def central_moments_direct(dist):
    """Central moments as expectations of centred products over the table.

    The map is the raw-moment map with every level value centred at its
    mean: one Vandermonde matrix of the centred values per variable,
    applied one axis at a time.  It reads the distribution directly, for
    any arities, and takes each mean by its own scan of the table.
    """
    space = dist.space
    mean = [dist.raw_moment([i]) for i in range(1, space.n + 1)]
    matrices = [_scaled_matrix(_vandermonde([v - m for v in vm])) for vm, m in zip(space.values, mean)]
    states = list(space.states())
    flat, scale = _per_axis(*_scaled_integers((x, dist.table[x]) for x in states), matrices)
    return CoordinateVector(space, CENTRAL_MOMENTS, {x: Fraction(v, scale) for x, v in zip(states, flat)})


def gmm_tree_cumulants_by_subtree(tree, params):
    """The latent tree closed form with the span of each leaf set as its induced subtree.

    The top node is the subtree's root, the node nearest the tree's root,
    stepped to its neighbour when it is a leaf.
    """
    space = StateSpace.binary(tree.num_leaves)
    means = params.node_means(tree)
    parents = tree.parent_map()
    entries = {}
    for x in space.states():
        support = tuple(i + 1 for i, e in enumerate(x) if e)
        if len(support) < 2:
            entries[x] = means[support[0]] if support else Fraction(0)
            continue
        sub = induced_subtree(tree, support)
        top = sub.root if not isinstance(sub.root, int) else sub.neighbors(sub.root)[0]
        value = Fraction(1, 4) * (1 - (1 - 2 * means[top]) ** 2)
        for v in sub.nodes:
            if not isinstance(v, int) and sub.degree(v) != 2:
                value *= (1 - 2 * means[v]) ** (sub.degree(v) - 2)
        for e in sub.edges:
            a, b = tuple(e)
            value *= params.eta(b, a) if parents.get(a) == b else params.eta(a, b)
        entries[x] = value
    return CoordinateVector(space, TREE_CUMULANTS, entries, family=Family(TREE, tree))


def gmm_tree_cumulants_by_states(tree, params):
    """The latent tree closed form with one walk over every edge per leaf set.

    A leaf set of two or more leaves gets (1 - bar(r)^2) / 4 at the top
    node r of its span (a leaf root steps to its child), bar(v)^(k-2) at
    each node v with k span edges and the slope of each span edge: the
    edges u -> v with leaves of the set both below v and elsewhere.
    """
    space = StateSpace.binary(tree.num_leaves)
    means = params.node_means(tree)
    parents = tree.parent_map()  # each parent before its children
    below = {v: 1 << (v - 1) for v in tree.leaves}
    for v, u in reversed(parents.items()):
        below[u] = below.get(u, 0) | below.get(v, 0)
    edges = [(u, v, below.get(v, 0), params.eta(u, v)) for v, u in parents.items()]
    entries = {}
    for x in space.states():
        mask = sum(e << i for i, e in enumerate(x))
        if mask.bit_count() < 2:
            entries[x] = means[x.index(1) + 1] if mask else Fraction(0)
            continue
        value, degree, top = Fraction(1, 4), dict.fromkeys(means, 0), None
        for u, v, side, eta in edges:
            if mask & side and mask & ~side:
                if top is None:  # the first span edge leaves the top node
                    top = v if isinstance(u, int) else u
                value *= eta
                degree[u] += 1
                degree[v] += 1
        value *= 1 - (1 - 2 * means[top]) ** 2
        for v, k in degree.items():
            if k > 2:  # a leaf has one span edge at most
                value *= (1 - 2 * means[v]) ** (k - 2)
        entries[x] = value
    return CoordinateVector(space, TREE_CUMULANTS, entries, family=Family(TREE, tree))


def lift_params(refined, origin, params):
    """Parameters on the refinement: cloned nodes copy their source.

    Edges between two copies of one original node carry the identity
    table (slope one, equal means); every original edge keeps its table,
    reattached to whichever copies it now joins.
    """
    identity = (Fraction(0), Fraction(1))
    tables = {}
    for child, parent in refined.parent_map().items():
        src_c, src_p = origin.get(child, child), origin.get(parent, parent)
        tables[(parent, child)] = identity if src_c == src_p else tuple(params.tables[(src_p, src_c)])
    return GMMParams(params.root_dist, tables)


def secant_tree_cumulants(params):
    """The mixture chart's tree cumulants by their formula, support by support."""
    t = Fraction(params.t)
    out = {}
    for r in range(1, params.n + 1):
        for support in itertools.combinations(range(1, params.n + 1), r):
            if r == 1:
                i = support[0] - 1
                out[support] = (1 - t) * params.a[i] + t * params.b[i]
                continue
            value = t * (1 - t) * (1 - 2 * t) ** (r - 2)
            for i in support:
                value *= params.b[i - 1] - params.a[i - 1]
            out[support] = value
    return out


def upward_pass(children, rows, root, weights):
    """The leaf-state table of a rooted tree of binary latent nodes, on ``Fraction`` rows.

    A node's message maps each state of the leaves below it to its two
    weights; the keys list the leaves by label.
    """

    def message(v):
        leaves, msg = ((v,), {(0,): (1, 0), (1,): (0, 1)}) if isinstance(v, int) else ((), {(): (1, 1)})
        for c in children.get(v, ()):
            r0, r1 = rows[(v, c)]
            if isinstance(c, int):
                c_leaves, c_msg = (c,), {(s,): pair for s, pair in enumerate(zip(r0, r1))}
            else:
                c_leaves, c_msg = message(c)
                c_msg = {k: (r0[0] * q0 + r0[1] * q1, r1[0] * q0 + r1[1] * q1) for k, (q0, q1) in c_msg.items()}
            leaves += c_leaves
            msg = {k + ck: (a0 * b0, a1 * b1) for k, (a0, a1) in msg.items() for ck, (b0, b1) in c_msg.items()}
        return leaves, msg

    leaves, msg = message(root)
    perm = sorted(range(len(leaves)), key=leaves.__getitem__)
    w0, w1 = weights
    return {tuple(k[j] for j in perm): w0 * q0 + w1 * q1 for k, (q0, q1) in msg.items()}


def gmm_distribution_by_fractions(tree, params):
    """The latent tree law through the ``Fraction`` pass, with rows ``(1 - p, p)``."""
    children = {v: [] for v in tree.nodes}
    for child, parent in tree.parent_map().items():
        children[parent].append(child)
    rows = {edge: ((1 - p0, p0), (1 - p1, p1)) for edge, (p0, p1) in params.tables.items()}
    return DiscreteDistribution(StateSpace.binary(tree.num_leaves), upward_pass(children, rows, tree.root, params.root_dist))


def hmm_distribution_by_fractions(params):
    """The chain law through the ``Fraction`` pass: leaf i under h_i, h_(i+1) after it."""
    hidden = [f"h{i}" for i in range(1, params.n + 1)]
    children = {h: [i, *hidden[i : i + 1]] for i, h in enumerate(hidden, 1)}
    rows = {(h, i): em for i, (h, em) in enumerate(zip(hidden, params.emissions), 1)}
    for u, v, (a0, a1) in zip(hidden, hidden[1:], params.transitions):
        rows[(u, v)] = ((1 - a0, a0), (1 - a1, a1))
    return DiscreteDistribution(params.space, upward_pass(children, rows, hidden[0], params.initial))


def secant_moments_by_fractions(params):
    """The mixture moments through the ``Fraction`` pass on the star with rows ``(1, a_i)``, ``(1, b_i)``."""
    rows = {("h", i): ((1, a), (1, b)) for i, (a, b) in enumerate(zip(params.a, params.b), 1)}
    t = Fraction(params.t)
    table = upward_pass({"h": range(1, params.n + 1)}, rows, "h", (1 - t, t))
    return CoordinateVector(StateSpace.binary(params.n), MOMENTS, table)


def hmm_distribution_by_states(params):
    """The joint law of the chain by a forward recursion per joint state."""
    if any(m in (0, 1) for m in params.hidden_means()):
        raise ValueError("degenerate hidden state")
    space = params.space
    n = params.n
    table = {}
    for x in space.states():
        alpha = [params.initial[h] * params.emissions[0][h][x[0]] for h in (0, 1)]
        for i in range(1, n):
            a0, a1 = params.transitions[i - 1]
            step = ((1 - a0, a0), (1 - a1, a1))
            alpha = [
                sum((alpha[h] * step[h][h2] for h in (0, 1)), Fraction(0)) * params.emissions[i][h2][x[i]]
                for h2 in (0, 1)
            ]
        table[x] = alpha[0] + alpha[1]
    return DiscreteDistribution(space, table)


def secant_moments_by_states(params):
    """The mixture moments (1-t) prod a + t prod b, one product per state."""
    space = StateSpace.binary(params.n)
    t = Fraction(params.t)
    entries = {}
    for x in space.states():
        pa = Fraction(1)
        pb = Fraction(1)
        for i, e in enumerate(x):
            if e:
                pa *= params.a[i]
                pb *= params.b[i]
        entries[x] = (1 - t) * pa + t * pb
    return CoordinateVector(space, MOMENTS, entries)


def hmm_tree_cumulants_closed(params):
    """The chain's closed form with each support's products rebuilt from scratch."""
    v = params.hidden_variances()
    t3 = params.hidden_third_central()
    c = params.hidden_step_covariances()
    e = params.hidden_observed_covariances()
    x_means = params.observed_means()
    if any(val == 0 for val in v):
        raise ValueError("degenerate hidden state")
    out = {}
    n = params.n
    for r in range(1, n + 1):
        for support in itertools.combinations(range(1, n + 1), r):
            if r == 1:
                out[support] = x_means[support[0] - 1]
                continue
            first, last = support[0], support[-1]
            num = Fraction(1)
            for j in support[1:-1]:
                num *= t3[j - 1]
            for m in range(first, last):
                num *= c[m - 1]
            for i in support:
                num *= e[i - 1]
            den = v[first - 1] * v[last - 1]
            for j in support[1:-1]:
                den *= v[j - 1] ** 3
            for m in range(first + 1, last):
                if m not in support:
                    den *= v[m - 1]
            out[support] = num / den
    return out


def suppress_degree_two(tree):
    """Contract paths through non-root inner nodes of degree 2."""
    protected = {tree.root} if tree.root is not None else set()
    edges = {tuple(sorted(e, key=str)) for e in tree.edges}
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    changed = True
    while changed:
        changed = False
        for node in list(adj):
            if node in protected or isinstance(node, int):
                continue
            if len(adj[node]) == 2:
                a, b = sorted(adj[node], key=str)
                adj[a].discard(node)
                adj[b].discard(node)
                adj[a].add(b)
                adj[b].add(a)
                del adj[node]
                changed = True
    out_edges = {tuple(sorted((u, v), key=str)) for u in adj for v in adj[u]}
    return TreeTopology(out_edges, root=tree.root if tree.root in adj else None)


def is_caterpillar(tree):
    """Trivalent after suppressing degree-2 nodes, with inner nodes on a path."""
    core = suppress_degree_two(TreeTopology([tuple(e) for e in tree.edges], root=None))
    inner = [v for v in core.nodes if not isinstance(v, int)]
    if not inner:
        return True
    if any(core.degree(v) != 3 for v in inner):
        return False
    inner_degs = [sum(1 for w in core.neighbors(v) if not isinstance(w, int)) for v in inner]
    return all(d <= 2 for d in inner_degs)


def conditionally_independent(dist, blocks, r):
    """The blocks' independence given the binary r, one conditional table rescan per cell and block."""
    blocks = [tuple(b) for b in blocks if b]
    flat = tuple(sorted(v for b in blocks for v in b))
    joint = marginal(dist, flat + (r,))
    ordering = sorted(flat + (r,))
    pos = {v: ordering.index(v) + 1 for v in flat + (r,)}
    for level in range(2):
        # slice on r == level
        mass = Fraction(0)
        slice_table = {}
        for x, p in joint.table.items():
            if x[pos[r] - 1] == level:
                key = tuple(x[pos[v] - 1] for v in flat)
                slice_table[key] = slice_table.get(key, Fraction(0)) + p
                mass += p
        if mass == 0:
            continue
        conditional = {k: v / mass for k, v in slice_table.items()}
        # check product structure across blocks
        for assignment, p in conditional.items():
            prod = Fraction(1)
            for block in blocks:
                sub_mass = Fraction(0)
                for other, q in conditional.items():
                    if all(other[flat.index(v)] == assignment[flat.index(v)] for v in block):
                        sub_mass += q
                prod *= sub_mass
            if prod != p:
                return False
    return True
