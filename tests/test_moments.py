import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcumulants.moments import (
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    central_moments,
    conditional_moments,
    distribution_from_moments,
    factorizes_over,
    marginal,
    moments_from_distribution,
    transform_values,
)
from lcumulants.partition import SetPartition, parse_partition
from lcumulants.rng import SplitMix64

from conftest import random_distribution


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


class TestRawMoments:
    def test_point_mass_at_ones(self):
        space = StateSpace.binary(3)
        mv = moments_from_distribution(DiscreteDistribution.point_mass(space, (1, 1, 1)))
        assert all(v == 1 for v in mv.entries.values())

    def test_uniform_binary_pair(self):
        mv = moments_from_distribution(DiscreteDistribution.uniform(StateSpace.binary(2)))
        assert mv[(1, 0)] == Fraction(1, 2)
        assert mv[(0, 1)] == Fraction(1, 2)
        assert mv[(1, 1)] == Fraction(1, 4)
        assert mv[(0, 0)] == 1

    def test_mixed_arity_aliasing(self):
        # The exponent (1, 2) on a (2, 3) box is the multiset {1, 2, 2}.
        space = StateSpace.of([2, 3])
        assert space.index_multiset((1, 2)) == (1, 2, 2)
        rng = SplitMix64(5)
        dist = random_distribution(space, rng)
        mv = moments_from_distribution(dist)
        direct = sum(
            (p * space.value(1, x[0]) * space.value(2, x[1]) ** 2 for x, p in dist.table.items()),
            Fraction(0),
        )
        assert mv[(1, 2)] == direct

    def test_value_maps_enter_expectations(self):
        space = StateSpace.of([2], values=[[Fraction(-1), Fraction(1)]])
        dist = DiscreteDistribution(space, {(0,): Fraction(1, 4), (1,): Fraction(3, 4)})
        mv = moments_from_distribution(dist)
        assert mv[(1,)] == Fraction(1, 2)


def moments_by_double_loop(dist):
    """Raw moments as a sum over every pair of box states; the oracle."""
    space = dist.space
    entries = {}
    for x in space.states():
        total = Fraction(0)
        for y, p in dist.table.items():
            if p == 0:
                continue
            term = p
            for i, e in enumerate(x):
                if e:
                    term *= space.values[i][y[i]] ** e
            total += term
        entries[x] = total
    return entries


class TestPerAxisMoments:
    @pytest.mark.parametrize("arities", [(2,) * 6, (3, 3, 2, 2), (4, 3, 2)], ids=str)
    @pytest.mark.parametrize("algebraic", [False, True], ids=["probabilities", "signed"])
    def test_matches_double_loop(self, arities, algebraic, rng):
        dist = random_distribution(StateSpace.of(arities), rng, algebraic=algebraic)
        assert moments_from_distribution(dist).entries == moments_by_double_loop(dist)

    def test_matches_double_loop_with_value_maps(self, rng):
        space = StateSpace.of(
            [3, 2, 4],
            values=[[-1, 0, Fraction(5, 2)], [Fraction(1, 3), -2], [0, 1, Fraction(-3, 4), 7]],
        )
        dist = random_distribution(space, rng, algebraic=True)
        assert moments_from_distribution(dist).entries == moments_by_double_loop(dist)


def central_moments_by_expansion(mv):
    """Central moments from raw moments, summed over sub-exponents; the oracle."""
    space = mv.space
    mean = [mv.entries[unit(space.n, i)] for i in range(space.n)]
    entries = {}
    for x in space.states():
        d = sum(x)
        if d == 0:
            entries[x] = Fraction(1)
            continue
        if d == 1:
            entries[x] = Fraction(0)
            continue
        total = Fraction(0)
        for y in itertools.product(*[range(e + 1) for e in x]):
            weight = Fraction((-1) ** (d - sum(y)))
            for xi, yi in zip(x, y):
                weight *= comb(xi, yi)
            term = weight * mv.entries[tuple(y)]
            for i, (xi, yi) in enumerate(zip(x, y)):
                if xi - yi:
                    term *= mean[i] ** (xi - yi)
            total += term
        entries[x] = total
    return entries


def central_moments_by_double_loop(dist):
    """Central moments as a sum over every pair of box states; the oracle."""
    space = dist.space
    mean = [dist.raw_moment([i]) for i in range(1, space.n + 1)]
    entries = {}
    for x in space.states():
        if sum(x) == 0:
            entries[x] = Fraction(1)
            continue
        total = Fraction(0)
        for y, p in dist.table.items():
            if p == 0:
                continue
            term = p
            for i, e in enumerate(x):
                if e:
                    term *= (space.values[i][y[i]] - mean[i]) ** e
            total += term
        entries[x] = total
    return entries


def transform_values_by_expansion(mv, scale=None, shift=None):
    """Moments of scale*X + shift, summed over sub-exponents; the oracle."""
    space = mv.space
    lam = [Fraction(scale[i]) if scale is not None else Fraction(1) for i in range(space.n)]
    off = [Fraction(shift[i]) if shift is not None else Fraction(0) for i in range(space.n)]
    entries = {}
    for x in space.states():
        total = Fraction(0)
        for y in itertools.product(*[range(e + 1) for e in x]):
            coeff = Fraction(1)
            for xi, yi, l, a in zip(x, y, lam, off):
                coeff *= comb(xi, yi) * l**yi * a ** (xi - yi)
            if coeff:
                total += coeff * mv.entries[tuple(y)]
        entries[x] = total
    return entries


ORACLE_SPACES = {
    "3x2x2": StateSpace.of([3, 2, 2]),
    "2^5": StateSpace.binary(5),
    "3x2x2-values": StateSpace.of(
        [3, 2, 2], values=[[-1, Fraction(1, 2), 3], [0, 2], [Fraction(-2, 3), 5]]
    ),
    "2^5-values": StateSpace.binary(5, values=[[-1, 1], [0, 2], [Fraction(1, 3), -4], [5, 7], [-2, Fraction(3, 4)]]),
}


class TestPerAxisCentralAndAffine:
    """The per-axis central-moment and affine maps against the old loops."""

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    @pytest.mark.parametrize("algebraic", [False, True], ids=["probabilities", "signed"])
    def test_central_moments_match_expansion(self, name, algebraic, rng):
        for _ in range(3):
            dist = random_distribution(ORACLE_SPACES[name], rng, algebraic=algebraic)
            mv = moments_from_distribution(dist)
            assert central_moments(mv).entries == central_moments_by_expansion(mv)

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    @pytest.mark.parametrize("algebraic", [False, True], ids=["probabilities", "signed"])
    def test_direct_central_moments_match_double_loop(self, name, algebraic, rng):
        for _ in range(3):
            dist = random_distribution(ORACLE_SPACES[name], rng, algebraic=algebraic)
            assert oracles.central_moments_direct(dist).entries == central_moments_by_double_loop(dist)

    def test_central_conventions_on_an_arbitrary_vector(self, rng):
        # Neither the zero exponent nor the means come from a distribution.
        space = ORACLE_SPACES["3x2x2"]
        mv = CoordinateVector(space, MOMENTS, {x: rng.fraction(7, signed=True) for x in space.states()})
        cm = central_moments(mv)
        assert cm.entries == central_moments_by_expansion(mv)
        assert cm[(0, 0, 0)] == 1
        assert cm[(1, 0, 0)] == cm[(0, 1, 0)] == cm[(0, 0, 1)] == 0

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    @pytest.mark.parametrize(
        "scale, shift",
        [(None, None), ("zero", None), (None, "zero"), ("rational", "rational"), ("rational", None), (None, "rational")],
    )
    def test_transform_values_matches_expansion(self, name, scale, shift, rng):
        space = ORACLE_SPACES[name]
        n = space.n
        # Non-unit scales and shifts, with a zero and a unit among them.
        choices = {
            None: (None, None),
            "zero": ([0] * n, [0] * n),
            "rational": (
                [Fraction(3), 0, Fraction(-1, 2), 1, Fraction(5, 7)][:n],
                [Fraction(2, 7), Fraction(-3, 5), 0, 4, Fraction(-1, 9)][:n],
            ),
        }
        scale, shift = choices[scale][0], choices[shift][1]
        mv = moments_from_distribution(random_distribution(space, rng, algebraic=True))
        assert transform_values(mv, scale=scale, shift=shift).entries == transform_values_by_expansion(mv, scale, shift)


class TestMomentInversion:
    def test_single_binary_variable(self):
        space = StateSpace.binary(1)
        mv = CoordinateVector(space, MOMENTS, {(0,): Fraction(1), (1,): Fraction(1, 3)})
        dist = distribution_from_moments(mv)
        assert dist.p((0,)) == Fraction(2, 3)
        assert dist.p((1,)) == Fraction(1, 3)

    def test_point_mass_round_trip(self):
        space = StateSpace.of([2, 3])
        dist = DiscreteDistribution.point_mass(space, (1, 2))
        assert distribution_from_moments(moments_from_distribution(dist)) == dist

    @pytest.mark.parametrize("arities", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 2)])
    def test_random_round_trips(self, arities, rng):
        space = StateSpace.of(arities)
        for _ in range(10):
            dist = random_distribution(space, rng)
            assert distribution_from_moments(moments_from_distribution(dist)) == dist

    def test_round_trip_from_moment_side(self, rng):
        space = StateSpace.of([2, 3])
        for _ in range(10):
            dist = random_distribution(space, rng, algebraic=True)
            mv = moments_from_distribution(dist)
            again = moments_from_distribution(distribution_from_moments(mv, algebraic=True))
            assert again.entries == mv.entries

    def test_round_trip_at_the_size_limit(self, rng):
        # 64 states, quartic value-power systems per variable.
        space = StateSpace.of([4, 4, 4])
        dist = random_distribution(space, rng)
        assert distribution_from_moments(moments_from_distribution(dist)) == dist

    def test_non_injective_values_rejected(self):
        space = StateSpace.of([2], values=[[Fraction(1), Fraction(1)]])
        mv = CoordinateVector(space, MOMENTS, {(0,): Fraction(1), (1,): Fraction(1)})
        with pytest.raises(ValueError):
            distribution_from_moments(mv)


class TestCentralMoments:
    def test_pair_entry_is_covariance(self, rng):
        space = StateSpace.binary(2)
        dist = random_distribution(space, rng)
        mv = moments_from_distribution(dist)
        cm = central_moments(mv)
        assert cm[(1, 1)] == mv[(1, 1)] - mv[(1, 0)] * mv[(0, 1)]

    def test_conventions(self, rng):
        space = StateSpace.of([2, 3])
        cm = central_moments(moments_from_distribution(random_distribution(space, rng)))
        assert cm[(0, 0)] == 1
        assert cm[(1, 0)] == 0
        assert cm[(0, 1)] == 0

    def test_repeated_index_expansion(self, rng):
        # The seven-term expansion of the (2, 2) exponent on a (3, 3) box.
        space = StateSpace.of([3, 3])
        mv = moments_from_distribution(random_distribution(space, rng))
        cm = central_moments(mv)
        m = mv.of_multiset
        expected = (
            m((1, 1, 2, 2))
            - 2 * m((1,)) * m((1, 2, 2))
            - 2 * m((2,)) * m((1, 1, 2))
            + m((1, 1)) * m((2,)) ** 2
            + 4 * m((1, 2)) * m((1,)) * m((2,))
            + m((1,)) ** 2 * m((2, 2))
            - 3 * m((1,)) ** 2 * m((2,)) ** 2
        )
        assert cm[(2, 2)] == expected

    def test_point_mass_all_zero(self):
        space = StateSpace.binary(3)
        cm = oracles.central_moments_direct(DiscreteDistribution.point_mass(space, (0, 0, 0)))
        assert all(v == 0 for x, v in cm.entries.items() if sum(x) >= 1)

    def test_symmetric_two_point_odd_moments_vanish(self):
        space = StateSpace.of([4], values=[[Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)]])
        dist = DiscreteDistribution(space, {(k,): Fraction(1, 4) for k in range(4)})
        cm = oracles.central_moments_direct(dist)
        assert cm[(1,)] == 0
        assert cm[(3,)] == 0

    def test_uniform_binary_variance(self):
        space = StateSpace.binary(1)
        cm = oracles.central_moments_direct(DiscreteDistribution.uniform(space))
        # One central power is aliased out on a binary box, so check via raw moments.
        dist = DiscreteDistribution.uniform(space)
        mean = dist.raw_moment([1])
        assert dist.raw_moment([1, 1]) - mean * mean == Fraction(1, 4)

    @pytest.mark.parametrize("arities", [(2, 2, 2, 2), (3, 3)])
    def test_expansion_equals_direct_oracle(self, arities, rng):
        space = StateSpace.of(arities)
        for _ in range(100):
            dist = random_distribution(space, rng)
            assert central_moments(moments_from_distribution(dist)).entries == oracles.central_moments_direct(dist).entries


class TestMarginalsAndConditionals:
    def test_uniform_marginal(self):
        space = StateSpace.of([2, 3])
        m = marginal(DiscreteDistribution.uniform(space), [2])
        assert all(p == Fraction(1, 3) for p in m.table.values())

    def test_product_marginal_is_factor(self):
        space = StateSpace.binary(2)
        factors = [[Fraction(1, 4), Fraction(3, 4)], [Fraction(2, 5), Fraction(3, 5)]]
        dist = DiscreteDistribution.product(space, factors)
        m = marginal(dist, [1])
        assert m.p((0,)) == Fraction(1, 4)
        assert m.p((1,)) == Fraction(3, 4)

    def test_random_marginal_against_direct_sum(self, rng):
        space = StateSpace.of([2, 3, 2])
        dist = random_distribution(space, rng)
        m = marginal(dist, [1, 3])
        for x13, p in m.table.items():
            direct = sum(
                (dist.p((x13[0], mid, x13[1])) for mid in range(3)), Fraction(0)
            )
            assert p == direct

    def test_independent_conditional_is_constant(self, rng):
        space = StateSpace.binary(2)
        factors = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 5), Fraction(4, 5)]]
        dist = DiscreteDistribution.product(space, factors)
        cond = conditional_moments(dist, [1], [2])
        assert cond[(0,)] == cond[(1,)] == dist.raw_moment([1])

    def test_tower_rule(self, rng):
        # Conditional expectations integrate back to the raw moment.
        space = StateSpace.of([2, 2, 3])
        dist = random_distribution(space, rng)
        cond = conditional_moments(dist, [1, 2], [3])
        m3 = marginal(dist, [3])
        total = sum(
            (m3.p(key) * value for key, value in cond.items() if value is not None),
            Fraction(0),
        )
        assert total == dist.raw_moment([1, 2])

    def test_overlap_rejected(self, rng):
        dist = random_distribution(StateSpace.binary(2), rng)
        with pytest.raises(ValueError):
            conditional_moments(dist, [1], [1, 2])


class TestValueTransforms:
    def test_pair_shift_expansion(self, rng):
        space = StateSpace.binary(2)
        mv = moments_from_distribution(random_distribution(space, rng))
        b = (Fraction(2, 7), Fraction(-3, 5))
        shifted = transform_values(mv, shift=b)
        assert shifted[(1, 1)] == mv[(1, 1)] + b[0] * mv[(0, 1)] + mv[(1, 0)] * b[1] + b[0] * b[1]
        assert shifted[(1, 0)] == mv[(1, 0)] + b[0]

    def test_pure_scaling_is_monomial(self, rng):
        space = StateSpace.binary(3)
        mv = moments_from_distribution(random_distribution(space, rng))
        lam = (Fraction(3), Fraction(-1, 2), Fraction(5, 7))
        scaled = transform_values(mv, scale=lam)
        for x in space.states():
            coeff = Fraction(1)
            for i, e in enumerate(x):
                coeff *= lam[i] ** e
            assert scaled[x] == coeff * mv[x]

    def test_shift_then_unshift(self, rng):
        space = StateSpace.of([2, 3])
        mv = moments_from_distribution(random_distribution(space, rng))
        a = (Fraction(1, 3), Fraction(-2, 9))
        back = transform_values(transform_values(mv, shift=a), shift=tuple(-v for v in a))
        assert back.entries == mv.entries

    def test_shift_fixes_higher_central_moments(self, rng):
        space = StateSpace.of([3, 2])
        mv = moments_from_distribution(random_distribution(space, rng))
        a = (Fraction(5, 3), Fraction(-7, 11))
        before = central_moments(mv)
        after = central_moments(transform_values(mv, shift=a))
        for x in space.states():
            if sum(x) >= 2:
                assert after[x] == before[x]


class TestIndependence:
    def test_product_distribution_fully_independent(self):
        space = StateSpace.binary(3)
        factors = [[Fraction(1, 3), Fraction(2, 3)]] * 3
        mv = moments_from_distribution(DiscreteDistribution.product(space, factors))
        assert factorizes_over(mv, SetPartition.singletons(3))

    def test_mixed_arity_pair_conditions(self, rng):
        # Factorization over 1|2 on a (2, 3) box is exactly the two moment
        # equations mu_12 = mu_1 mu_2 and mu_122 = mu_1 mu_22.
        space = StateSpace.of([2, 3])
        d1 = random_distribution(StateSpace.of([2]), rng)
        d2 = random_distribution(StateSpace.of([3]), rng)
        table = {
            (x1, x2): d1.p((x1,)) * d2.p((x2,)) for x1 in range(2) for x2 in range(3)
        }
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        assert factorizes_over(mv, SetPartition.singletons(2))
        assert mv[(1, 1)] == mv[(1, 0)] * mv[(0, 1)]
        assert mv[(1, 2)] == mv[(1, 0)] * mv[(0, 2)]

    def test_perturbed_product_fails(self, rng):
        space = StateSpace.binary(2)
        factors = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 4), Fraction(3, 4)]]
        dist = DiscreteDistribution.product(space, factors)
        table = dict(dist.table)
        table[(0, 0)] += Fraction(1, 24)
        table[(1, 1)] -= Fraction(1, 24)
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        assert not factorizes_over(mv, SetPartition.singletons(2))

    def test_blockwise_factorization_matches_table_product(self, rng):
        # Moment factorization over a partition holds exactly when the table
        # is the product of its block marginals.
        space = StateSpace.binary(4)
        pi0 = parse_partition("13|24")
        b1 = random_distribution(StateSpace.binary(2), rng)
        b2 = random_distribution(StateSpace.binary(2), rng)
        table = {}
        for x in space.states():
            table[x] = b1.p((x[0], x[2])) * b2.p((x[1], x[3]))
        dist = DiscreteDistribution(space, table)
        mv = moments_from_distribution(dist)
        assert factorizes_over(mv, pi0)
        assert not factorizes_over(mv, parse_partition("12|34")) or _really_factorizes(dist)

    def test_factorization_equivalence_on_mixed_arities(self, rng):
        # Moment factorization over pi0 holds exactly when the table is the
        # product of the block marginals, here on a 36-state box.
        space = StateSpace.of([2, 3, 2, 3])
        pi0 = parse_partition("13|24")
        b1 = random_distribution(StateSpace.of([2, 2]), rng)
        b2 = random_distribution(StateSpace.of([3, 3]), rng)
        table = {
            x: b1.p((x[0], x[2])) * b2.p((x[1], x[3])) for x in space.states()
        }
        dist = DiscreteDistribution(space, table)
        mv = moments_from_distribution(dist)
        assert factorizes_over(mv, pi0)
        left, right = marginal(dist, [1, 3]), marginal(dist, [2, 4])
        assert all(
            dist.p(x) == left.p((x[0], x[2])) * right.p((x[1], x[3]))
            for x in space.states()
        )
        bad = dict(table)
        bad[(0, 0, 0, 0)] += Fraction(1, 73)
        bad[(1, 2, 1, 2)] -= Fraction(1, 73)
        mv_bad = moments_from_distribution(DiscreteDistribution(space, bad, algebraic=True))
        assert not factorizes_over(mv_bad, pi0)

    def test_distribution_modes(self):
        space = StateSpace.binary(1)
        with pytest.raises(ValueError):
            DiscreteDistribution(space, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})
        signed = DiscreteDistribution(
            space, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}, algebraic=True
        )
        assert signed.p((1,)) == Fraction(-1, 2)
        with pytest.raises(ValueError):
            DiscreteDistribution(space, {(0,): Fraction(1, 2), (1,): Fraction(1, 4)})


def _really_factorizes(dist):
    left = marginal(dist, [1, 2])
    right = marginal(dist, [3, 4])
    return all(
        dist.p(x) == left.p((x[0], x[1])) * right.p((x[2], x[3]))
        for x in dist.space.states()
    )


class TestSerialization:
    def test_distribution_json_round_trip_with_values(self, rng):
        space = StateSpace.of([2, 3], values=[[Fraction(-1), Fraction(1)], [Fraction(0), Fraction(1, 2), Fraction(2)]])
        dist = random_distribution(space, rng)
        again = DiscreteDistribution.from_json(dist.to_json())
        assert again == dist
        assert again.space.values == space.values

    def test_vector_json_round_trip(self, rng):
        space = StateSpace.of([2, 2])
        mv = moments_from_distribution(random_distribution(space, rng))
        again = type(mv).from_json(mv.to_json())
        assert again.entries == mv.entries
        assert again.system == mv.system

    def test_vector_rejects_states_outside_the_box(self):
        table = {"0,0": "1", "1,0": "0", "0,1": "0", "1,1": "0", "5,5": "1"}
        data = {"arities": [2, 2], "system": "moments", "table": table}
        with pytest.raises(ValueError, match="outside the box"):
            CoordinateVector.from_json(data)

    @pytest.mark.parametrize("cls", [CoordinateVector, DiscreteDistribution], ids=lambda c: c.__name__)
    def test_table_must_be_an_object(self, cls):
        with pytest.raises(ValueError, match="'table' must map states"):
            cls.from_json({"arities": [2], "system": "moments", "table": ["1", "0"]})

    def test_algebraic_flag_survives(self):
        space = StateSpace.binary(1)
        signed = DiscreteDistribution(
            space, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}, algebraic=True
        )
        data = signed.to_json()
        assert data["algebraic"] is True
        assert DiscreteDistribution.from_json(data) == signed

    def test_zero_mass_conditional_is_undefined(self):
        space = StateSpace.binary(2)
        dist = DiscreteDistribution(space, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        cond = conditional_moments(dist, [1], [2])
        assert cond[(1,)] is None
        assert cond[(0,)] == Fraction(1, 2)


class TestDistributionChecks:
    """The messages of ``DiscreteDistribution``'s table checks."""

    @pytest.mark.parametrize(
        "masses, total",
        [
            ([Fraction(1, 3), Fraction(1, 2)], "5/6"),
            ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)], "247/210"),
            ([Fraction(5, 4), Fraction(-1, 6), Fraction(-1, 9)], "35/36"),
            ([0, 0], "0"),
            ([Fraction(2, 3), 1], "5/3"),
        ],
        ids=["short", "coprime", "signed", "zero", "integer"],
    )
    def test_the_exact_total_is_named(self, masses, total):
        space = StateSpace.of([len(masses)])
        table = {(k,): m for k, m in enumerate(masses)}
        with pytest.raises(ValueError, match=rf"^table sums to {total}, not 1$"):
            DiscreteDistribution(space, table, algebraic=True)

    def test_the_first_negative_state_is_named(self):
        space = StateSpace.of([2, 3])
        masses = [Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(1, 4)]
        table = dict(zip(space.states(), masses))
        with pytest.raises(ValueError, match=r"^negative mass -1/4 at \(0, 2\); use algebraic=True"):
            DiscreteDistribution(space, table)
        assert DiscreteDistribution(space, table, algebraic=True).table[(1, 0)] == Fraction(-1, 4)

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_a_float_entry_is_refused(self, algebraic):
        space = StateSpace.binary(1)
        with pytest.raises(TypeError, match="floats are not allowed in exact mode"):
            DiscreteDistribution(space, {(0,): Fraction(1, 2), (1,): 0.5}, algebraic=algebraic)

    def test_states_outside_the_box_are_named(self):
        space = StateSpace.binary(1)
        table = {(0,): Fraction(1, 2), (1,): Fraction(1, 2), (5,): 0, (2,): 0, (0, 0): 0}
        with pytest.raises(ValueError, match=r"^states outside the box: \[\(0, 0\), \(2,\), \(5,\)\]$"):
            DiscreteDistribution(space, table)

    def test_the_box_is_checked_before_the_total(self):
        # Mass outside the box is the fault, not the total it leaves inside.
        space = StateSpace.of([2])
        with pytest.raises(ValueError, match=r"^states outside the box: \[\(5,\)\]$"):
            DiscreteDistribution(space, {(0,): Fraction(1, 2), (5,): Fraction(1, 2)})
        with pytest.raises(ValueError, match=r"^table sums to 1/2, not 1$"):
            DiscreteDistribution(space, {(0,): Fraction(1, 2)})


@given(
    weights=st.lists(st.integers(1, 50), min_size=6, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_moment_map_is_a_bijection_property(weights):
    space = StateSpace.of([2, 3])
    total = sum(weights)
    table = {x: Fraction(w, total) for x, w in zip(space.states(), weights)}
    dist = DiscreteDistribution(space, table)
    assert distribution_from_moments(moments_from_distribution(dist)) == dist
