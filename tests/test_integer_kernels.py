"""The integer kernels against their Fraction oracles.

``_first_block_solve``, ``_per_axis`` and the split-binomial minor walk
scale their exact inputs to integers by a common denominator and divide
once at the end.  Each must return the same canonical Fractions as the
Fraction loop it replaced (kept in ``oracles``), on probability and signed
tables, rational value maps, central moments, coprime and growing
denominators, zero and integer entries.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcumulants.lattice import FULL, INTERVAL, NONCROSSING, ONECLUSTER, TREE, Family, first_blocks
from lcumulants.lcumulant import _first_block_solve, _first_block_tables, from_lcumulants, to_lcumulants
from lcumulants.models import gmm_distribution, random_gmm_params, verify_split_binomials
from lcumulants.moments import (
    LCUMULANTS,
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _invert,
    _per_axis,
    _shift_matrix,
    _unit,
    _vandermonde,
    central_moments,
    distribution_from_moments,
    moments_from_distribution,
    transform_values,
)
from lcumulants.topology import caterpillar
from lcumulants.trees import _singleton_free_sums, tree_cumulants

from conftest import random_distribution
from test_first_blocks import TREES

SIZE_INDEXED = [FULL, NONCROSSING, INTERVAL, ONECLUSTER]
BOXES = [(2,) * 6, (2,) * 7, (3, 3, 2, 2), (4, 3, 2)]
VALUE_MAPS = [(Fraction(-1, 2), Fraction(3, 7)), (Fraction(0), Fraction(1, 3), Fraction(-5, 2)), (2, Fraction(7, 11))]


def _primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def assert_same(got, want):
    """Same keys in the same order, each value the same Fraction."""
    assert list(got) == list(want)
    assert all(type(v) is Fraction for v in got.values())
    assert got == want


def _solve_both_ways(space, fam, given_moments):
    """Forward then inverse through the kernel, each against the oracle."""
    tables = _first_block_tables(fam, space, None)
    kappa = _first_block_solve(space, given_moments, tables, forward=True)
    assert_same(kappa, oracles.first_block_solve(space, given_moments, tables, forward=True))
    back = _first_block_solve(space, kappa, tables, forward=False)
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
    shifts = [_shift_matrix(r, Fraction(1), -mv.entries[_unit(space.n, i)]) for i, r in enumerate(space.arities)]
    want = oracles.per_axis(space, mv.entries, shifts)
    want[(0,) * space.n] = Fraction(1)
    for i in range(space.n):
        want[_unit(space.n, i)] = Fraction(0)
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
        sums = oracles.first_block_solve(space, given, lambda leaves: first_blocks(fam, leaves, None), True)
        want = {tuple(i + 1 for i, e in enumerate(x) if e): v for x, v in sums.items() if sum(x) > 1}
        assert_same(_singleton_free_sums(tree, cm, None), want)

    @pytest.mark.parametrize("kind", SIZE_INDEXED)
    def test_pairwise_coprime_denominators(self, kind):
        space = StateSpace.of([3, 2, 2, 2])
        given = _coprime_entries(space)
        _solve_both_ways(space, Family(kind), given)
        tables = _first_block_tables(Family(kind), space, None)
        assert_same(
            _first_block_solve(space, given, tables, forward=False),
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
        tables = _first_block_tables(fam, space, None)
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


class TestPerAxis:
    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("box", BOXES, ids=str)
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

    def test_pairwise_coprime_zero_and_integer_data(self):
        space = StateSpace.of([3, 2, 2], VALUE_MAPS[1:] + [VALUE_MAPS[0]])
        vandermonde = [_vandermonde(vm) for vm in space.values]
        for data in (
            _coprime_entries(space),
            {x: Fraction(0) for x in space.states()},
            {x: k % 4 - 1 for k, x in enumerate(space.states())},
        ):
            assert_same(_per_axis(space, data, vandermonde), oracles.per_axis(space, data, vandermonde))

    def test_a_float_entry_is_refused(self):
        space = StateSpace.binary(2)
        entries = {(0, 0): Fraction(1), (0, 1): 0.25, (1, 0): Fraction(1, 2), (1, 1): Fraction(1, 4)}
        mv = CoordinateVector(space, MOMENTS, entries)
        for call in (distribution_from_moments, central_moments, transform_values):
            with pytest.raises(TypeError, match=r"floats are not allowed in exact mode.*\(0, 1\)"):
                call(mv)


class TestSplitMinors:
    def test_perturbed_split_matrix(self, rng):
        tree = caterpillar(5)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(tree, random_gmm_params(tree, rng))), tree)
        values = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        split = ((1, 2), (3, 4, 5))
        report = verify_split_binomials(values, *split)
        assert (report.checked, report.violations) == oracles.split_minors(values, *split)
        assert not report.violations
        values[(2, 4)] += Fraction(1, 7)
        values[(1, 3, 5)] -= Fraction(2, 13)
        report = verify_split_binomials(values, *split)
        checked, violations = oracles.split_minors(values, *split)
        assert violations
        assert (report.checked, report.violations) == (checked, violations)
        assert all(type(r) is Fraction for _, r in report.violations)

    def test_a_float_entry_is_refused(self):
        values = {c: Fraction(1, 3) for r in range(1, 5) for c in itertools.combinations(range(1, 5), r)}
        values[(1, 3)] = 0.5
        with pytest.raises(TypeError, match=r"floats are not allowed in exact mode.*\(1, 3\)"):
            verify_split_binomials(values, (1, 2), (3, 4))


def _fractions(limit=12):
    return st.builds(Fraction, st.integers(-limit, limit), st.integers(1, limit))


@st.composite
def boxes_tables_and_value_maps(draw):
    arities = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    values = [draw(st.lists(_fractions(), min_size=r, max_size=r, unique=True)) for r in arities]
    space = StateSpace.of(arities, values)
    table = dict(zip(space.states(), draw(st.lists(_fractions(), min_size=space.size, max_size=space.size))))
    return space, table, draw(st.sampled_from(SIZE_INDEXED))


@given(case=boxes_tables_and_value_maps())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_kernels_match_oracles_property(case):
    space, table, kind = case
    vandermonde = [_vandermonde(vm) for vm in space.values]
    moments = _per_axis(space, table, vandermonde)
    assert_same(moments, oracles.per_axis(space, table, vandermonde))
    inverses = [_invert(v) for v in vandermonde]
    assert_same(_per_axis(space, moments, inverses), oracles.per_axis(space, moments, inverses))
    _solve_both_ways(space, Family(kind), moments)
