"""The integer kernels against their Fraction oracles.

``_first_block_solve`` and ``_per_axis`` take and return integers: the
graded form of a coordinate vector, and a flat list over one scale.
Read back as Fractions, each must give the same canonical Fractions as
the Fraction loop it replaced (kept in ``oracles``), on probability and
signed tables, rational value maps, central moments, coprime and growing
denominators, zero and integer entries.  The split-binomial scan scales
its entries by a common denominator, and its witness must be one of the
minors that ``oracles.split_minors`` finds, with the same residual.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcumulants.lattice import FULL, INTERVAL, NONCROSSING, ONECLUSTER, TREE, Family
from lcumulants.lcumulant import (
    UnsupportedFamilyError,
    _cached_plan,
    _first_block_solve,
    from_lcumulants,
    to_lcumulants,
)
import lcumulants.models
from lcumulants.commands import _all_splits
from lcumulants.models import (
    SecantParams,
    _first_nonzero_minor,
    gmm_distribution,
    random_gmm_params,
    secant_tree_cumulants,
    split_binomials,
)
from lcumulants.moments import (
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _fractions,
    _graded_from_entries,
    _inverse_moment_matrix,
    _invert,
    _moment_matrix,
    _per_axis,
    _scaled_integers,
    _scaled_matrix,
    _shift_matrix,
    _vandermonde,
    central_moments,
    distribution_from_moments,
    moments_from_distribution,
    transform_values,
)
from lcumulants.partition import CapacityError
from lcumulants.topology import caterpillar, edge_splits, from_newick
from lcumulants.trees import _singleton_free_sums, contracted_tree_cumulants, tree_cumulants

from conftest import assert_witness, random_distribution
from test_first_blocks import SHAPE_TREES, TREES

SIZE_INDEXED = [FULL, NONCROSSING, INTERVAL, ONECLUSTER]
BOXES = [(2,) * 6, (2,) * 7, (3, 3, 2, 2), (4, 3, 2)]
VALUE_MAPS = [(Fraction(-1, 2), Fraction(3, 7)), (Fraction(0), Fraction(1, 3), Fraction(-5, 2)), (2, Fraction(7, 11))]


def unit(n, i):
    """The exponent of the i-th variable alone: its first moment's index."""
    return tuple(1 if j == i else 0 for j in range(n))


def _primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def solve(space, given, fam, forward):
    """``_first_block_solve`` on a dict of exact entries, read back as Fractions."""
    return _fractions(space.states(), _first_block_solve(space, _graded_from_entries(space, given), fam, None, forward))


def axis_pass(space, data, matrices):
    """``_per_axis`` on a dict of exact entries and Fraction matrices, read back as Fractions."""
    states = list(space.states())
    flat, scale = _per_axis(*_scaled_integers((x, data[x]) for x in states), [_scaled_matrix(m) for m in matrices])
    return {x: Fraction(v, scale) for x, v in zip(states, flat)}


def assert_same(got, want):
    """Same keys in the same order, each value the same Fraction."""
    assert list(got) == list(want)
    assert all(type(v) is Fraction for v in got.values())
    assert got == want


def _solve_both_ways(space, fam, given_moments):
    """Forward then inverse through the kernel, each against the oracle."""
    tables = oracles.first_block_tables(fam, space, None)
    kappa = solve(space, given_moments, fam, forward=True)
    assert_same(kappa, oracles.first_block_solve(space, given_moments, tables, forward=True))
    back = solve(space, kappa, fam, forward=False)
    assert_same(back, oracles.first_block_solve(space, kappa, tables, forward=False))
    return kappa, back


def _coprime_entries(space):
    """Entries over pairwise-coprime denominators, alternating in sign."""
    return {
        x: Fraction((-1) ** k * (k + 1), p)
        for k, (x, p) in enumerate(zip(space.states(), _primes(space.size)))
    }


def _moment_matrices(space, dist):
    """The matrices of the four moment maps of a distribution's box."""
    vandermonde = [_vandermonde(vm) for vm in space.values]
    mean = [dist.raw_moment([i]) for i in range(1, space.n + 1)]
    centred = [_vandermonde([v - m for v in vm]) for vm, m in zip(space.values, mean)]
    return vandermonde, [_invert(v) for v in vandermonde], centred


def _check_moment_maps(space, dist):
    """moments_from_distribution, its inverse and both central-moment maps."""
    vandermonde, inverses, centred = _moment_matrices(space, dist)
    mv = moments_from_distribution(dist)
    assert_same(dict(mv.entries), oracles.per_axis(space, dist.table, vandermonde))
    assert_same(
        dict(distribution_from_moments(mv, algebraic=True).table), oracles.per_axis(space, mv.entries, inverses)
    )
    assert_same(dict(oracles.central_moments_direct(dist).entries), oracles.per_axis(space, dist.table, centred))
    shifts = [_shift_matrix(r, Fraction(1), -mv.entries[unit(space.n, i)]) for i, r in enumerate(space.arities)]
    want = oracles.per_axis(space, mv.entries, shifts)
    want[(0,) * space.n] = Fraction(1)
    for i in range(space.n):
        want[unit(space.n, i)] = Fraction(0)
    assert_same(dict(central_moments(mv).entries), want)
    return mv


class TestFirstBlockSolve:
    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    @pytest.mark.parametrize("box", BOXES, ids=str)
    def test_size_indexed_families(self, box, kind, signed, rng):
        space = StateSpace.of(box)
        mv = moments_from_distribution(random_distribution(space, rng, algebraic=signed))
        _, back = _solve_both_ways(space, Family(kind), mv.entries)
        assert back == mv.entries

    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_tree_families(self, name, signed, rng):
        tree = TREES[name]
        space = StateSpace.binary(tree.num_leaves)
        mv = moments_from_distribution(random_distribution(space, rng, algebraic=signed))
        _solve_both_ways(space, Family(TREE, tree), mv.entries)

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_central_moments_into_singleton_free_sums(self, name, rng):
        tree = TREES[name]
        n = tree.num_leaves
        space = StateSpace.binary(n)
        fam = Family(TREE, tree)
        dist = random_distribution(StateSpace.of([3] + [2] * (n - 2) + [4]), rng, algebraic=True)
        cm = oracles.central_moments_direct(dist)
        given = {x: cm.entries[x] for x in space.states()}
        sums = oracles.first_block_solve(space, given, oracles.first_block_tables(fam, space, None), True)
        want = {tuple(i + 1 for i, e in enumerate(x) if e): v for x, v in sums.items() if sum(x) > 1}
        assert_same(_singleton_free_sums(tree, cm, None), want)

    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_pairwise_coprime_denominators(self, kind):
        space = StateSpace.of([3, 2, 2, 2])
        given = _coprime_entries(space)
        _solve_both_ways(space, Family(kind), given)
        tables = oracles.first_block_tables(Family(kind), space, None)
        assert_same(
            solve(space, given, Family(kind), forward=False),
            oracles.first_block_solve(space, given, tables, forward=False),
        )

    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_zero_and_integer_entries(self, kind):
        space = StateSpace.of([2, 3, 2])
        _solve_both_ways(space, Family(kind), {x: Fraction(0) for x in space.states()})
        _solve_both_ways(space, Family(kind), {x: 0 for x in space.states()})
        _solve_both_ways(space, Family(kind), {x: k % 5 - 2 for k, x in enumerate(space.states())})

    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_cumulant_denominators_that_grow_with_size(self, kind):
        space = StateSpace.of([3, 2, 2, 2])
        fam = Family(kind)
        kappa = {x: Fraction(k + 1, 3 ** (sum(x) ** 2) * 2 ** sum(x)) for k, x in enumerate(space.states())}
        kappa[(0,) * space.n] = Fraction(0)
        lv = CoordinateVector(space, LCUMULANTS, kappa, family=fam)
        tables = oracles.first_block_tables(fam, space, None)
        want = oracles.first_block_solve(space, kappa, tables, forward=False)
        assert_same(dict(from_lcumulants(lv, capacity=None).entries), want)

    @pytest.mark.parametrize("transform", ["forward", "inverse"])
    def test_a_float_entry_is_refused(self, transform):
        space = StateSpace.binary(2)
        entries = {(0, 0): Fraction(1), (0, 1): Fraction(1, 3), (1, 0): 0.5, (1, 1): Fraction(1, 4)}
        with pytest.raises(TypeError, match=r"floats are not allowed in exact mode.*\(1, 0\)"):
            if transform == "forward":
                to_lcumulants(CoordinateVector(space, MOMENTS, entries), Family(FULL))
            else:
                from_lcumulants(CoordinateVector(space, LCUMULANTS, entries, family=Family(FULL)))


# Every family on each box: the size-indexed ones, and a tree on the binary
# box.  The mixed boxes repeat a variable in their index multisets, so that
# many sub-multiset bitmasks of one state share a box position.
CODE_BOXES = [(3, 3, 2, 2), (4, 3, 2), (5,), (2, 5)]
PLAN_CASES = [
    (box, fam)
    for box in [(2,) * 7, *CODE_BOXES]
    for fam in [Family(kind) for kind in SIZE_INDEXED] + ([Family(TREE, TREES["balanced7"])] if set(box) == {2} else [])
]


def _warm_and_cold_against_the_oracle(space, fam, moments):
    """Forward and inverse, on a warm plan and a cold one, against the per-term loop."""
    tables = oracles.first_block_tables(fam, space, None)
    kappa = oracles.first_block_solve(space, moments, tables, forward=True)
    back = oracles.first_block_solve(space, kappa, tables, forward=False)
    assert back == dict(moments)
    for given, want, forward in ((moments, kappa, True), (kappa, back, False)):
        solve(space, given, fam, forward)
        warm = solve(space, given, fam, forward)
        _cached_plan.cache_clear()
        cold = solve(space, given, fam, forward)
        assert_same(warm, want)
        assert_same(cold, want)


def assert_plan_is_the_oracles(fam, arities, capacity):
    """The cold plan against ``oracles.solve_plan_by_tables``, entry by entry.

    The plan keeps each state's last stride where the oracle keeps every
    stride of the state's positions, and its index size in ``sizes``.
    """
    sizes, order = _cached_plan.__wrapped__(fam, arities)
    want_sizes, want_order = oracles.solve_plan_by_tables(fam, arities, capacity)
    assert sizes == want_sizes
    assert len(order) == len(want_order)
    for (code, stride, table), (want_code, step, want_table) in zip(order, want_order):
        assert code == want_code
        assert stride == step[-1]
        assert sizes[code] == len(step)
        assert table == want_table


class TestSolvePlan:
    """The cached plan of ``_first_block_solve`` against a cold one and the oracle.

    The kernel reads each term's entries from one list of sub-multiset box
    positions per state, indexed by the bitmasks of the cached table; the
    oracle sums one stride per position of the decoded position tuples.
    """

    @pytest.mark.parametrize("box, fam", PLAN_CASES, ids=lambda v: str(v) if isinstance(v, tuple) else v.kind)
    def test_warm_equals_cold_equals_oracle(self, box, fam, rng):
        space = StateSpace.of(box)
        moments = moments_from_distribution(random_distribution(space, rng, algebraic=True)).entries
        _warm_and_cold_against_the_oracle(space, fam, moments)

    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    @pytest.mark.parametrize("box", CODE_BOXES, ids=str)
    def test_central_moments_skip_every_singleton_block(self, box, kind, rng):
        space = StateSpace.of(box)
        cm = central_moments(moments_from_distribution(random_distribution(space, rng, algebraic=True)))
        assert all(cm.entries[unit(space.n, i)] == 0 for i in range(space.n))
        _warm_and_cold_against_the_oracle(space, Family(kind), cm.entries)

    def test_two_spellings_of_one_tree_share_a_plan(self, rng):
        one = from_newick("(((1,2)a,(3,4)b)c,((5,6)d,7)e)r;")
        other = from_newick("((7,(6,5)d)e,((4,3)b,(2,1)a)c)r;")
        space = StateSpace.binary(7)
        mv = moments_from_distribution(random_distribution(space, rng))
        first = to_lcumulants(mv, Family(TREE, one), capacity=None)
        hits = _cached_plan.cache_info().hits
        assert to_lcumulants(mv, Family(TREE, other), capacity=None).entries == first.entries
        assert _cached_plan.cache_info().hits == hits + 1

    def test_a_relabelled_tree_matches_its_own_oracle(self, rng):
        space = StateSpace.binary(7)
        mv = moments_from_distribution(random_distribution(space, rng))
        for newick in (
            "(((1,2)a,(3,4)b)c,((5,6)d,7)e)r;",
            "(((6,2)a,(7,4)b)c,((5,1)d,3)e)r;",
            "((3,(1,5)d)e,((4,7)b,(2,6)a)c)r;",
        ):
            fam = Family(TREE, from_newick(newick))
            want = oracles.first_block_solve(space, mv.entries, oracles.first_block_tables(fam, space, None), True)
            assert_same(dict(to_lcumulants(mv, fam, capacity=None).entries), want)
            _warm_and_cold_against_the_oracle(space, fam, mv.entries)

    @pytest.mark.parametrize("fam", [Family(FULL), Family(TREE, TREES["relabelled-caterpillar"])], ids=str)
    def test_a_plan_built_without_a_cap_does_not_pass_a_capped_call(self, fam, rng):
        space = StateSpace.binary(5)
        mv = moments_from_distribution(random_distribution(space, rng))
        lv = to_lcumulants(mv, fam, capacity=None)
        assert from_lcumulants(lv, capacity=None).entries == mv.entries
        size = _cached_plan.cache_info().currsize
        for _ in range(2):  # the refusal is not cached either
            with pytest.raises(CapacityError, match="size 5 exceeds the cap of 4"):
                to_lcumulants(mv, fam, capacity=4)
            with pytest.raises(CapacityError, match="size 5 exceeds the cap of 4"):
                from_lcumulants(lv, capacity=4)
        assert _cached_plan.cache_info().currsize == size

    @pytest.mark.parametrize(
        "arities, fam",
        [(box, Family(kind)) for box in CODE_BOXES for kind in SIZE_INDEXED]
        + [((2,) * tree.num_leaves, Family(TREE, tree)) for tree in SHAPE_TREES.values()]
        + [((2,) * 6, Family(TREE, TREES["balanced7"]))],  # leaf 7 is in the splits but names no variable
        ids=str,
    )
    def test_the_plan_equals_the_plan_built_table_by_table(self, arities, fam):
        assert_plan_is_the_oracles(fam, arities, None)

    @pytest.mark.parametrize("shape", ["({},{},({},({},({},{})h4)h3)h2)h1;", "((({},{})x,({},{})y)u,(({},{})z,{})w)r;"])
    def test_relabelled_plans_equal_the_plans_built_table_by_table(self, shape):
        n = shape.count("{}")
        for seed in range(12):
            labels = random.Random(seed).sample(range(1, n + 1), n)
            fam = Family(TREE, from_newick(shape.format(*labels)))
            for capacity in (None, n):
                assert_plan_is_the_oracles(fam, (2,) * n, capacity)

    def test_a_tree_family_is_checked_when_its_plan_is_warm(self, rng):
        fam = Family(TREE, TREES["caterpillar6"])
        binary = StateSpace.binary(6)
        to_lcumulants(moments_from_distribution(random_distribution(binary, rng)), fam)
        for box, message in (((3,) + (2,) * 5, "binary state space"), ((2,) * 7, "leaves must cover")):
            mv = moments_from_distribution(random_distribution(StateSpace.of(box), rng))
            with pytest.raises(UnsupportedFamilyError, match=message):
                to_lcumulants(mv, fam)


# One-variable and mixed boxes besides BOXES: the per-axis pass rotates the
# slowest axis to the fastest, once per variable.
AXIS_BOXES = BOXES + [(5,), (2, 5)]


def _rational_values(r):
    """r distinct rational level values, (3k - 2) / (k + 3)."""
    return [Fraction(3 * k - 2, k + 3) for k in range(r)]


class TestPerAxis:
    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("box", AXIS_BOXES, ids=str)
    def test_moment_maps(self, box, signed, rng):
        space = StateSpace.of(box)
        _check_moment_maps(space, random_distribution(space, rng, algebraic=signed))

    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    def test_rational_value_maps_and_affine_changes(self, signed, rng):
        space = StateSpace.of([2, 3, 2], VALUE_MAPS)
        mv = _check_moment_maps(space, random_distribution(space, rng, algebraic=signed))
        scale, shift = (Fraction(3, 2), Fraction(-2, 5), 7), (Fraction(1, 3), -4, Fraction(5, 9))
        matrices = [_shift_matrix(r, Fraction(a), Fraction(b)) for r, a, b in zip(space.arities, scale, shift)]
        moved = transform_values(mv, scale=scale, shift=shift)
        assert_same(dict(moved.entries), oracles.per_axis(space, mv.entries, matrices))

    @pytest.mark.parametrize("box", [(5,), (2, 5), (4, 3, 2)], ids=str)
    def test_rational_value_maps_on_rotated_boxes(self, box, rng):
        space = StateSpace.of(box, [_rational_values(r) for r in box])
        mv = _check_moment_maps(space, random_distribution(space, rng, algebraic=True))
        scale, shift = [Fraction(2 - k, 3 + k) for k in range(len(box))], [Fraction(k + 1, 5) for k in range(len(box))]
        matrices = [_shift_matrix(r, a, b) for r, a, b in zip(box, scale, shift)]
        moved = transform_values(mv, scale=scale, shift=shift)
        assert_same(dict(moved.entries), oracles.per_axis(space, mv.entries, matrices))

    @pytest.mark.parametrize("box", [(5,), (2, 5), (4, 3, 2)], ids=str)
    def test_general_matrices(self, box):
        # Zero, one and signed rational entries: every branch of the segment combination.
        space = StateSpace.of(box)
        data = _coprime_entries(space)
        matrices = [
            [[Fraction((k * r + l) % 5 - 1, 1 + (k + l) % 3) for l in range(r)] for k in range(r)] for r in box
        ]
        got = axis_pass(space, data, matrices)
        assert_same(got, oracles.per_axis(space, data, matrices))
        # Integer rows: a zero row, and rows that start with and go on to
        # -1, 0, 1 and larger coefficients, so that no scaling hides them.
        integral = [[[(k + 1) * (l + 2) % 4 - 1 if k else 0 for l in range(r)] for k in range(r)] for r in box]
        assert_same(axis_pass(space, data, integral), oracles.per_axis(space, data, integral))

    @pytest.mark.parametrize("values", VALUE_MAPS, ids=str)
    def test_cached_matrices_are_immutable_and_exact(self, values):
        values = tuple(Fraction(v) for v in values)
        vandermonde = _vandermonde(values)
        for cached, want in ((_moment_matrix, vandermonde), (_inverse_moment_matrix, _invert(vandermonde))):
            rows, scale = cached(values)
            assert cached(values) is cached(values)
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert all(type(v) is int for row in rows for v in row)
            assert [[Fraction(v, scale) for v in row] for row in rows] == want

    def test_a_non_injective_value_map_is_refused_before_the_cache(self):
        space = StateSpace.of([2, 3], [[0, 1], [0, Fraction(1, 2), 0]])
        mv = CoordinateVector(space, MOMENTS, {x: Fraction(int(not any(x))) for x in space.states()})
        info = _inverse_moment_matrix.cache_info()
        with pytest.raises(ValueError, match="variable 2 has a non-injective value map"):
            distribution_from_moments(mv)
        assert _inverse_moment_matrix.cache_info() == info

    def test_pairwise_coprime_zero_and_integer_data(self):
        space = StateSpace.of([3, 2, 2], VALUE_MAPS[1:] + [VALUE_MAPS[0]])
        vandermonde = [_vandermonde(vm) for vm in space.values]
        for data in (
            _coprime_entries(space),
            {x: Fraction(0) for x in space.states()},
            {x: k % 4 - 1 for k, x in enumerate(space.states())},
        ):
            assert_same(
                axis_pass(space, data, vandermonde),
                oracles.per_axis(space, data, vandermonde),
            )

    def test_a_float_entry_is_refused(self):
        space = StateSpace.binary(2)
        entries = {(0, 0): Fraction(1), (0, 1): 0.25, (1, 0): Fraction(1, 2), (1, 1): Fraction(1, 4)}
        mv = CoordinateVector(space, MOMENTS, entries)
        for call in (distribution_from_moments, central_moments, transform_values):
            with pytest.raises(TypeError, match=r"floats are not allowed in exact mode.*\(0, 1\)"):
                call(mv)


def _subsets(side):
    return [c for r in range(1, len(side) + 1) for c in itertools.combinations(side, r)]


def _minor(values, I, J, I2, J2):
    """t(I+J) t(I'+J') - t(I+J') t(I'+J), by four lookups."""

    def t(*sets):
        return values[tuple(sorted(itertools.chain(*sets)))]

    return t(I, J) * t(I2, J2) - t(I, J2) * t(I2, J)


def _assert_witnesses(values, splits, reports, perturbed):
    """A split whose flattening misses the perturbed index has no witness,
    as has a split with one leaf on a side: its flattening has one row.
    Every witness lies on its split's sides, with the residual that four
    lookups give."""
    for (side_a, side_b), report in zip(splits, reports, strict=True):
        straddles = set(perturbed) & set(side_a) and set(perturbed) & set(side_b)
        if not (straddles and min(len(side_a), len(side_b)) >= 2):
            assert report.witness is None
        if report.witness is None:
            continue
        (I, J, I2, J2), residual = report.witness
        assert set(I + I2) <= set(side_a) and set(J + J2) <= set(side_b)
        assert residual == _minor(values, I, J, I2, J2) != 0
        assert report.residual == abs(residual)


class TestSplitMinors:
    def test_perturbed_split_matrix(self, rng):
        tree = caterpillar(5)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(tree, random_gmm_params(tree, rng))), tree)
        values = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        split = ((1, 2), (3, 4, 5))
        report = split_binomials(values, [split])[0]
        assert_witness(report, oracles.split_minors(values, *split))
        assert report.witness is None
        values[(2, 4)] += Fraction(1, 7)
        values[(1, 3, 5)] -= Fraction(2, 13)
        report = split_binomials(values, [split])[0]
        assert_witness(report, oracles.split_minors(values, *split))
        assert report.witness is not None

    @pytest.mark.parametrize("name", ["caterpillar6", "relabelled-caterpillar6", "balanced7"])
    def test_perturbed_points_take_the_walk_of_the_oracle(self, name, rng):
        # Every inner edge split of a tree model point passes the rank test;
        # one or two perturbed entries, or a zeroed one, may make it fail, and
        # each report must then agree with the walk of the oracle.
        tree = TREES[name]
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(tree, random_gmm_params(tree, rng))), tree)
        point = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        failed = 0
        for split in (split for split in edge_splits(tree) if min(map(len, split)) >= 2):
            report = split_binomials(point, [split])[0]
            assert_witness(report, oracles.split_minors(point, *split))
            assert report.witness is None
            keys = sorted(tuple(sorted(I + J)) for I in _subsets(split[0]) for J in _subsets(split[1]))
            for changes in (
                [(keys[-1], Fraction(1, 7))],
                [(keys[0], Fraction(-2, 13)), (keys[len(keys) // 2], 1)],
                [(keys[0], -point[keys[0]])],
            ):
                values = dict(point)
                for key, delta in changes:
                    values[key] += delta
                report = split_binomials(values, [split])[0]
                assert_witness(report, oracles.split_minors(values, *split))
                failed += report.witness is not None
        assert failed

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=7, max_size=7),
        st.one_of(st.none(), st.tuples(st.integers(0, 20), st.integers(-2, 2))),
    )
    def test_rank_one_matrices_and_one_changed_cell(self, u, v, change):
        # The 3 x 7 flattening of the split (1, 2) | (3, 4, 5) is u v^T, with
        # zero rows and columns and a zero matrix among the draws, and at
        # most one cell changed; the report must be the oracle's.
        side_a, side_b = (1, 2), (3, 4, 5)
        cells = [tuple(sorted(I + J)) for I in _subsets(side_a) for J in _subsets(side_b)]
        values = {key: Fraction(u[k // 7] * v[k % 7], 5) for k, key in enumerate(cells)}
        if change is not None:
            values[cells[change[0]]] += change[1]
        report = split_binomials(values, [(side_a, side_b)])[0]
        checked, violations = oracles.split_minors(values, side_a, side_b)
        assert_witness(report, (checked, violations))
        rows = [[values[cells[7 * i + j]] * 5 for j in range(7)] for i in range(3)]
        found = _first_nonzero_minor(rows)
        assert (found is None) == (not violations)
        if found is not None:
            (i0, j0, i, j), r = found
            assert r == rows[i0][j0] * rows[i][j] - rows[i0][j] * rows[i][j0] != 0

    def test_every_bipartition_in_one_pass(self, rng):
        # Each of the 31 bipartitions of a perturbed 6-leaf point gets, in
        # order, the report the oracle gives it alone.
        tree = caterpillar(6)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(tree, random_gmm_params(tree, rng))), tree)
        values = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        values[(2, 5)] += Fraction(1, 7)
        values[(1, 3, 4, 6)] -= Fraction(2, 13)
        leaves = tuple(range(1, 7))
        splits = [(a, tuple(sorted(set(leaves) - set(a)))) for a in _subsets(leaves) if 1 in a and a != leaves]
        assert len(splits) == 31
        reports = split_binomials(values, splits)
        expected = [oracles.split_minors(values, *split) for split in splits]
        for report, oracle in zip(reports, expected, strict=True):
            assert_witness(report, oracle)
        assert [report.split for report in reports] == splits
        assert any(violations for _, violations in expected)

    def test_a_vector_with_higher_levels_reads_its_binary_states(self, rng):
        # An index with a repeated leaf, such as (1, 1, 3), must not stand in
        # for a set of leaves.
        space = StateSpace.of((3, 2, 2, 2))
        entries = {x: rng.fraction(11, signed=True) for x in space.states()}
        vector = CoordinateVector(space, LCUMULANTS, entries)
        values = {space.index_multiset(x): v for x, v in entries.items() if max(x) <= 1}
        splits = [((1,), (2, 3, 4)), ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)), ((2,), (1, 3, 4))]
        reports = split_binomials(vector, splits)
        for report, split in zip(reports, splits, strict=True):
            assert_witness(report, oracles.split_minors(values, *split))
        assert any(report.witness for report in reports)

    def test_a_failing_secant_map_at_ten_variables(self):
        # The mixture chart with t(12345) raised by 1/7 fails 475 of its 511
        # splits.  Each stops at its witness: the walk over every minor that
        # this replaced took 80 s on a 2-vCPU machine and stored up to
        # 1,565,520 of them.
        n = 10
        a = tuple(Fraction(k, 7) - Fraction(1, 3) for k in range(n))
        b = tuple(Fraction(2 * k + 1, 5) for k in range(n))
        values = secant_tree_cumulants(SecantParams(Fraction(2, 7), a, b))
        values[(1, 2, 3, 4, 5)] += Fraction(1, 7)
        splits = _all_splits(n)
        start = time.perf_counter()
        reports = split_binomials(values, splits)
        assert time.perf_counter() - start < 1.0
        _assert_witnesses(values, splits, reports, (1, 2, 3, 4, 5))
        assert sum(report.witness is not None for report in reports) == 475

    def test_a_perturbed_caterpillar12_map_over_its_edge_splits(self, rng):
        tree = caterpillar(12)
        _, closed = contracted_tree_cumulants(tree, random_gmm_params(tree, rng))
        values = {closed.space.index_multiset(x): v for x, v in closed.entries.items()}
        values[(1, 2, 3, 4, 5, 6)] += Fraction(1, 7)
        splits = edge_splits(tree)
        start = time.perf_counter()
        reports = split_binomials(values, splits)
        assert time.perf_counter() - start < 1.0
        _assert_witnesses(values, splits, reports, (1, 2, 3, 4, 5, 6))
        # Four inner edges separate leaves 1..6, but at this point the
        # flattening of 1234 | 5..12 is zero but for the raised cell, so it
        # keeps rank one.
        assert [report.split[0] for report in reports if report.witness] == [(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)]

    def test_the_map_is_scaled_once_per_call(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return _scaled_integers(*args, **kwargs)

        monkeypatch.setattr(lcumulants.models, "_scaled_integers", spy)
        values = {c: Fraction(sum(c), 1 + len(c)) for c in _subsets((1, 2, 3, 4, 5))}
        splits = [((1, 2), (3, 4, 5)), ((1, 3), (2, 4, 5)), ((4,), (1, 2, 3, 5))]
        for count in (0, 1, 3):
            calls.clear()
            assert len(split_binomials(values, splits[:count])) == count
            assert len(calls) == 1
        calls.clear()
        split_binomials(values, [splits[0]])[0]
        assert len(calls) == 1

    def test_a_float_entry_is_refused(self):
        values = {c: Fraction(1, 3) for r in range(1, 5) for c in itertools.combinations(range(1, 5), r)}
        values[(1, 3)] = 0.5
        with pytest.raises(TypeError, match=r"floats are not allowed in exact mode.*\(1, 3\)"):
            split_binomials(values, [((1, 2), (3, 4))])[0]


def _rationals(limit=12):
    return st.builds(Fraction, st.integers(-limit, limit), st.integers(1, limit))


@st.composite
def boxes_tables_and_value_maps(draw):
    arities = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    values = [draw(st.lists(_rationals(), min_size=r, max_size=r, unique=True)) for r in arities]
    space = StateSpace.of(arities, values)
    table = dict(zip(space.states(), draw(st.lists(_rationals(), min_size=space.size, max_size=space.size))))
    return space, table, draw(st.sampled_from(SIZE_INDEXED))


@given(case=boxes_tables_and_value_maps())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_kernels_match_oracles_property(case):
    space, table, kind = case
    vandermonde = [_vandermonde(vm) for vm in space.values]
    moments = axis_pass(space, table, vandermonde)
    assert_same(moments, oracles.per_axis(space, table, vandermonde))
    inverses = [_invert(v) for v in vandermonde]
    assert_same(
        axis_pass(space, moments, inverses), oracles.per_axis(space, moments, inverses)
    )
    _solve_both_ways(space, Family(kind), moments)
