"""The first-block recursion against the Moebius-weight sums it replaced.

The transforms and the tree singleton-free sums run one first-block loop
(``lattice.first_blocks``).  The weight-table sums they used before are
kept here as oracles, and the tables themselves are checked against the
explicit lattices.
"""

import itertools
from fractions import Fraction

import pytest

import lcumulants.lattice
import lcumulants.lcumulant
from lcumulants.lattice import (
    FULL,
    INTERVAL,
    NONCROSSING,
    ONECLUSTER,
    TREE,
    Family,
    build,
    first_blocks,
    mobius_weights,
)
from lcumulants.lcumulant import from_lcumulants, to_lcumulants
from lcumulants.moments import (
    LCUMULANTS,
    CoordinateVector,
    StateSpace,
    central_moments_direct,
    moments_from_distribution,
)
from lcumulants.partition import CapacityError, SetPartition
from lcumulants.topology import caterpillar, from_newick
from lcumulants.trees import _singleton_free_sums, subset_tree_cumulants

from conftest import random_distribution

SIZE_INDEXED = [FULL, NONCROSSING, INTERVAL, ONECLUSTER]

TREES = {
    "caterpillar6": caterpillar(6),
    "relabelled-caterpillar": from_newick("(3,1,(5,(2,4)h3)h2)h1;"),
    "degree-four": from_newick("((1,2)a,3,4,(5,6)b)r;"),
    "relabelled-caterpillar6": from_newick("(4,2,(6,(1,(3,5)h4)h3)h2)h1;"),
    "balanced7": from_newick("(((1,2)a,(3,4)b)c,((5,6)d,7)e)r;"),
}


def _ground(fam, multiset):
    return len(multiset) if fam.size_indexed else multiset


def weight_sum_forward(mv, fam):
    """kappa(A) as the sum of mu(pi, top) times block moments over the lattice."""
    entries = {}
    for x in mv.space.states():
        multiset = mv.space.index_multiset(x)
        total = Fraction(0)
        if multiset:
            for blocks, weight in mobius_weights(fam, _ground(fam, multiset)):
                term = Fraction(weight)
                for block in blocks:
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
        for blocks, weight in mobius_weights(fam, _ground(fam, multiset))[:-1]:  # all but the top
            term = Fraction(weight)
            for block in blocks:
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
            for blocks, weight in mobius_weights(fam, support):
                if any(len(b) == 1 for b in blocks):
                    continue
                term = Fraction(weight)
                for block in blocks:
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
            cm = central_moments_direct(dist)
            assert _singleton_free_sums(tree, cm, None) == weight_sum_singleton_free(tree, cm)

    def test_no_weight_table_is_read(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the recursion must not read a Moebius weight table")

        monkeypatch.setattr(lcumulants.lattice, "mobius_weights", refuse)
        monkeypatch.setattr(lcumulants.lattice, "_cached_weights", refuse)
        monkeypatch.setattr(lcumulants.lcumulant, "mobius_weights", refuse)
        for space, fam in [
            (StateSpace.of([3, 3, 2]), Family(NONCROSSING)),
            (StateSpace.binary(5), Family(TREE, TREES["relabelled-caterpillar"])),
        ]:
            mv = moments_from_distribution(random_distribution(space, rng))
            assert from_lcumulants(to_lcumulants(mv, fam)).entries == mv.entries
        dist = random_distribution(StateSpace.of([3, 2, 2, 2]), rng)
        assert len(subset_tree_cumulants(dist, caterpillar(4))) == 15


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
        table = first_blocks(fam, ground)
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

    def test_cap_is_checked_before_a_cached_table(self):
        first_blocks(Family(FULL), 4)
        with pytest.raises(CapacityError):
            first_blocks(Family(FULL), 4, capacity=3)
