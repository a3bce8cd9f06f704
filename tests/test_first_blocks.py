"""The first-block recursion against the Moebius-weight sums it replaced.

The transforms and the tree singleton-free sums run one first-block loop
(``lattice.first_blocks``).  The weight-table sums they used before are
kept here as oracles, and the tables themselves are checked against the
explicit lattices.  The elements derived from the tables and the
closed-form Moebius weights are checked against the routes they replaced
(``tests/oracles.py``), and so are the tree tables shared by the leaf
sets that induce one shape.
"""

import itertools
from fractions import Fraction

import pytest

import lcumulants.lattice
import oracles
from lcumulants.lattice import (
    FULL,
    INTERVAL,
    NONCROSSING,
    ONECLUSTER,
    TREE,
    Family,
    element_count,
    first_blocks,
    mobius_weights,
)
from lcumulants.lcumulant import (
    brillinger,
    conditional_collapse,
    cumulant_tensor,
    detect_independence_structure,
    from_lcumulants,
    to_lcumulants,
)
from lcumulants.moments import (
    LCUMULANTS,
    CoordinateVector,
    StateSpace,
    moments_from_distribution,
)
from lcumulants.partition import (
    CapacityError,
    SetPartition,
    meet,
)
from lcumulants.topology import caterpillar, from_newick
from lcumulants.trees import _singleton_free_sums, subset_tree_cumulants
from oracles import all_partitions, build, is_interval, is_noncrossing, is_one_cluster

from conftest import random_distribution

SIZE_INDEXED = [FULL, NONCROSSING, INTERVAL, ONECLUSTER]

TREES = {
    "caterpillar6": caterpillar(6),
    "relabelled-caterpillar": from_newick("(3,1,(5,(2,4)h3)h2)h1;"),
    "degree-four": from_newick("((1,2)a,3,4,(5,6)b)r;"),
    "relabelled-caterpillar6": from_newick("(4,2,(6,(1,(3,5)h4)h3)h2)h1;"),
    "balanced7": from_newick("(((1,2)a,(3,4)b)c,((5,6)d,7)e)r;"),
}
# A degree-six node and two cherries: every cut through its hub leaves
# several components, each a rest part of its own.
ORACLE_TREES = dict(TREES, hub8=from_newick("((1,2,3,4,5)a,6,(7,8)b)r;"))
# The relabelled caterpillar's 1023 leaf subsets induce 139 shapes.
SHAPE_TREES = {
    **ORACLE_TREES,
    "relabelled-caterpillar10": from_newick("(7,2,(9,(1,(10,(4,(3,(8,(5,6)h8)h7)h6)h5)h4)h3)h2)h1;"),
    "relabelled-balanced7": from_newick("((3,(1,5)d)e,((4,7)b,(2,6)a)c)r;"),
}

PREDICATES = {FULL: lambda p: True, NONCROSSING: is_noncrossing, INTERVAL: is_interval, ONECLUSTER: is_one_cluster}


def _ground(fam, multiset):
    return len(multiset) if fam.size_indexed else multiset


def _key(fam, labels):
    return lcumulants.lattice._sub_ground(fam.splits, labels)


def weight_sum_forward(mv, fam):
    """kappa(A) as the sum of mu(pi, top) times block moments over the lattice."""
    entries = {}
    for x in mv.space.states():
        multiset = mv.space.index_multiset(x)
        total = Fraction(0)
        if multiset:
            for pi, weight in mobius_weights(fam, _ground(fam, multiset)):
                term = Fraction(weight)
                for block in pi.blocks:
                    term *= mv.of_multiset(multiset[j] for j in block)
                total += term
        entries[x] = total
    return entries


def weight_sum_inverse(lv, fam):
    """m(A) by a triangular solve of the weight sums, by increasing size."""
    space = lv.space
    entries = {}
    for x in sorted(space.states(), key=lambda s: (sum(s), s)):
        multiset = space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(1)
            continue
        lower = Fraction(0)
        for pi, weight in mobius_weights(fam, _ground(fam, multiset))[:-1]:  # all but the top
            term = Fraction(weight)
            for block in pi.blocks:
                term *= entries[space.exponent_of(multiset[j] for j in block)]
            lower += term
        entries[x] = lv.entries[x] - lower
    return entries


def weight_sum_singleton_free(tree, cm):
    """Sum of mu(pi, top) times block central moments over singleton-free pi."""
    fam = Family(TREE, tree)
    n = cm.space.n
    out = {}
    for r in range(2, n + 1):
        for support in itertools.combinations(range(1, n + 1), r):
            total = Fraction(0)
            for pi, weight in mobius_weights(fam, support):
                if any(len(b) == 1 for b in pi.blocks):
                    continue
                term = Fraction(weight)
                for block in pi.blocks:
                    term *= cm.of_multiset(support[j] for j in block)
                total += term
            out[support] = total
    return out


def _round_trip_against_oracles(space, fam, rng, signed):
    mv = moments_from_distribution(random_distribution(space, rng, algebraic=signed))
    forward = weight_sum_forward(mv, fam)
    assert to_lcumulants(mv, fam).entries == forward
    lv = CoordinateVector(space, LCUMULANTS, forward, family=fam)
    assert from_lcumulants(lv).entries == weight_sum_inverse(lv, fam) == mv.entries


class TestAgainstWeightSums:
    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    @pytest.mark.parametrize("box", [(2,) * 6, (2,) * 7, (3, 3, 2, 2), (4, 3, 2)], ids=str)
    def test_size_indexed_families(self, box, kind, signed, rng):
        _round_trip_against_oracles(StateSpace.of(box), Family(kind), rng, signed)

    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_tree_families(self, name, signed, rng):
        tree = TREES[name]
        _round_trip_against_oracles(StateSpace.binary(tree.num_leaves), Family(TREE, tree), rng, signed)

    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_singleton_free_sums(self, name, signed, rng):
        tree = TREES[name]
        n = tree.num_leaves
        for arities in ([2] * n, [3] + [2] * (n - 2) + [4]):
            dist = random_distribution(StateSpace.of(arities), rng, algebraic=signed)
            cm = oracles.central_moments_direct(dist)
            assert _singleton_free_sums(tree, cm, None) == weight_sum_singleton_free(tree, cm)

    def test_no_weight_table_is_read(self, rng, monkeypatch):
        # The formulas' oracles read the weight table, so they run first.
        space = StateSpace.binary(4)
        mixtures = []
        for fam in [Family(FULL), Family(INTERVAL), Family(TREE, caterpillar(4))]:
            law = dict(enumerate(rng.weights(2)))
            cond = {y: to_lcumulants(moments_from_distribution(random_distribution(space, rng)), fam) for y in law}
            mixtures.append((law, cond, fam, oracles.brillinger(law, cond, fam).entries))
        dist = random_distribution(StateSpace.of([3, 2, 2]), rng)
        tensors = [(Family(kind), oracles.cumulant_tensor(dist, Family(kind), 3).entries) for kind in SIZE_INDEXED]
        y_dist = dict(enumerate(rng.weights(3)))
        means = {y: [rng.fraction(9, signed=True) for _ in range(5)] for y in y_dist}
        collapses = [
            (fam, oracles.conditional_collapse(y_dist, means, fam))
            for fam in [Family(NONCROSSING), Family(TREE, caterpillar(5))]
        ]
        detections = []
        for fam in [Family(NONCROSSING), Family(TREE, TREES["relabelled-caterpillar"])]:
            lv = to_lcumulants(moments_from_distribution(random_distribution(StateSpace.binary(5), rng)), fam)
            lv.entries.update({x: Fraction(0) for x in lv.entries if any(x[:2]) and any(x[2:])})
            detections.append((lv, oracles.detect_independence_structure(lv)))
        # Twelve variables, full family: 0 across the blocks of 1,4,7,10|2,5|3,6,8,9,11,12.
        pi12 = SetPartition([0, 1, 2, 0, 1, 2, 0, 2, 2, 0, 2, 2])
        space12 = StateSpace.binary(12)
        entries12 = {x: Fraction(len({pi12.rgs[i] for i, e in enumerate(x) if e}) == 1) for x in space12.states()}
        detections.append((CoordinateVector(space12, LCUMULANTS, entries12, family=Family(FULL)), pi12))

        def refuse(*args, **kwargs):
            raise AssertionError("the recursion must not read a Moebius weight table")

        monkeypatch.setattr(lcumulants.lattice, "mobius_weights", refuse)
        monkeypatch.setattr(lcumulants.lattice, "_cached_weights", refuse)
        for space, fam in [
            (StateSpace.of([3, 3, 2]), Family(NONCROSSING)),
            (StateSpace.binary(5), Family(TREE, TREES["relabelled-caterpillar"])),
        ]:
            mv = moments_from_distribution(random_distribution(space, rng))
            assert from_lcumulants(to_lcumulants(mv, fam)).entries == mv.entries
        dist4 = random_distribution(StateSpace.of([3, 2, 2, 2]), rng)
        assert len(subset_tree_cumulants(dist4, caterpillar(4))) == 15
        for law, cond, fam, want in mixtures:
            assert brillinger(law, cond, fam).entries == want, fam
        for fam, want in tensors:
            assert cumulant_tensor(dist, fam, 3).entries == want, fam
        for fam, want in collapses:
            assert conditional_collapse(y_dist, means, fam) == want, fam
        for lv, want in detections:
            assert detect_independence_structure(lv) == want, lv.family


class TestTables:
    """Each (B, rest) pair against the lattice elements whose first block is B."""

    @staticmethod
    def _check(fam, ground):
        lat = build(fam, ground)
        labels = tuple(range(1, ground + 1)) if isinstance(ground, int) else tuple(ground)
        d = len(labels)
        by_first: dict[tuple[int, ...], set] = {}
        for p in lat.elements:
            by_first.setdefault(p.blocks[0], set()).add(p.rgs)
        del by_first[tuple(range(d))]  # the top is left out of the table
        table = oracles.first_block_positions(fam, ground)
        assert len({block for block, _ in table}) == len(table)
        assert {block for block, _ in table} == set(by_first)
        for block, rest in table:
            assert sorted(j for part in rest for j in part) == [j for j in range(d) if j not in block]
            sub_lattices = [
                build(fam, len(part) if fam.size_indexed else tuple(labels[j] for j in part)).elements
                for part in rest
            ]
            products = set()
            for choice in itertools.product(*sub_lattices):
                blocks = [list(block)]
                for part, sigma in zip(rest, choice):
                    blocks += [[part[j] for j in b] for b in sigma.blocks]
                products.add(SetPartition.from_blocks(blocks, size=d).rgs)
            assert products == by_first[block], (ground, block)

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_size_indexed_families(self, kind, d):
        self._check(Family(kind), d)

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_every_leaf_subset_of_a_tree(self, name):
        tree = TREES[name]
        fam = Family(TREE, tree)
        for r in range(1, tree.num_leaves + 1):
            for support in itertools.combinations(tree.leaves, r):
                self._check(fam, support)

    @pytest.mark.parametrize(
        "fam", [Family(kind) for kind in SIZE_INDEXED] + [Family(TREE, TREES["balanced7"])], ids=str
    )
    def test_the_cache_holds_one_bitmask_copy(self, fam):
        ground = 6 if fam.size_indexed else (1, 2, 4, 5, 6, 7)
        masks = first_blocks(fam, ground, None)
        assert all(type(block) is int and all(type(part) is int for part in rest) for block, rest in masks)

        def bits(mask):
            return tuple(j for j in range(6) if mask >> j & 1)

        decoded = tuple((bits(block), tuple(map(bits, rest))) for block, rest in masks)
        assert oracles.first_block_positions(fam, ground) == decoded

    def test_cap_is_checked_before_a_cached_table(self):
        first_blocks(Family(FULL), 4)
        with pytest.raises(CapacityError):
            first_blocks(Family(FULL), 4, capacity=3)


class TestDerivedFromTheTables:
    """Elements derived from the tables and closed-form Moebius weights, against the old routes.

    ``build`` shares the element generator, so the checks of the tables
    against ``build`` above do not test membership on their own.
    """

    @staticmethod
    def _leaf_subsets(tree):
        for r in range(1, tree.num_leaves + 1):
            yield from itertools.combinations(tree.leaves, r)

    @staticmethod
    def _check_weights(fam, ground):
        labels = tuple(range(1, ground + 1)) if isinstance(ground, int) else ground
        elements = lcumulants.lattice._elements(fam.kind, _key(fam, labels))
        want = oracles.weights_from_coarsenings(elements)
        assert [mu for _, mu in mobius_weights(fam, ground)] == want, ground
        pushed = oracles.pushed_weights(fam.kind, _key(fam, labels))
        assert [pushed.get(p.rgs, 0) for p in elements] == want, ground
        assert set(pushed) <= {p.rgs for p in elements}, ground

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_size_indexed_elements_are_the_filtered_partitions(self, kind, d):
        want = [p for p in all_partitions(d) if PREDICATES[kind](p)]
        assert lcumulants.lattice._elements(kind, (d, ())) == want

    @pytest.mark.parametrize("name", sorted(ORACLE_TREES))
    def test_tree_elements_are_the_span_filtered_partitions(self, name):
        tree = ORACLE_TREES[name]
        fam = Family(TREE, tree)
        for support in self._leaf_subsets(tree):
            got = lcumulants.lattice._elements(TREE, _key(fam, support))
            assert got == oracles.tree_elements(tree, support), support

    @pytest.mark.parametrize(
        "kind, d", [(kind, d) for kind in SIZE_INDEXED for d in range(1, 9)] + [(NONCROSSING, 9), (NONCROSSING, 10)]
    )
    def test_size_indexed_weights(self, kind, d):
        self._check_weights(Family(kind), d)

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_tree_weights(self, name):
        # The tables depend on the leaf subset only through its key, so one
        # subset of each key covers them all.
        fam = Family(TREE, SHAPE_TREES[name])
        for support in {_key(fam, support): support for support in self._leaf_subsets(fam.tree)}.values():
            self._check_weights(fam, support)

    @staticmethod
    def _assert_closed_under_meets(kind, key):
        # A partition is its same-block relation, one bit per pair of
        # positions, and the meet of two is the intersection of theirs.
        elements = lcumulants.lattice._elements(kind, key)
        pairs = list(itertools.combinations(range(key[0]), 2))
        relations = [sum(1 << k for k, (i, j) in enumerate(pairs) if p.rgs[i] == p.rgs[j]) for p in elements]
        members = set(relations)
        for i, p in enumerate(relations):
            for j, q in enumerate(relations[i + 1 :], i + 1):
                if p & q not in members:
                    raise AssertionError(f"{key}: {meet(elements[i], elements[j])} escapes the lattice")

    @pytest.mark.parametrize(
        "kind, d", [(kind, d) for kind in SIZE_INDEXED for d in range(1, 7 if kind == FULL else 8)]
    )
    def test_size_indexed_elements_are_closed_under_meets(self, kind, d):
        self._assert_closed_under_meets(kind, (d, ()))

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_tree_elements_are_closed_under_meets(self, name):
        fam = Family(TREE, SHAPE_TREES[name])
        keys = {_key(fam, support) for support in self._leaf_subsets(fam.tree) if len(support) <= 7}
        for key in keys:
            self._assert_closed_under_meets(TREE, key)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_size_indexed_element_counts(self, kind, d):
        assert element_count(Family(kind), d) == len(mobius_weights(Family(kind), d))

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_tree_element_counts(self, name):
        fam = Family(TREE, SHAPE_TREES[name])
        assert element_count(fam, fam.tree.leaves) == len(mobius_weights(fam, fam.tree.leaves))


class TestShapeKeys:
    """Tree tables keyed by the splits of the induced subtree, one per shape."""

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_tables_equal_the_per_leaf_tuple_search(self, name):
        tree = SHAPE_TREES[name]
        fam = Family(TREE, tree)
        for r in range(1, tree.num_leaves + 1):
            for support in itertools.combinations(tree.leaves, r):
                assert oracles.first_block_positions(fam, support) == oracles.tree_first_blocks(tree, support), support

    def test_leaf_sets_of_one_shape_share_a_table(self, rng):
        # Every leaf subset of a caterpillar with leaves in spine order
        # induces the caterpillar of its size: 8 tables for 255 subsets.
        tree = caterpillar(8)
        mv = moments_from_distribution(random_distribution(StateSpace.binary(8), rng))
        cached = lcumulants.lattice._cached_first_blocks
        cached.cache_clear()
        to_lcumulants(mv, Family(TREE, tree))
        assert cached.cache_info().currsize == 8
        to_lcumulants(mv, Family(TREE, tree.rooted_at("h4")))
        assert cached.cache_info().currsize == 8
