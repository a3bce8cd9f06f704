import itertools
from fractions import Fraction

import pytest

from lcumulants.lattice import FULL, INTERVAL, NONCROSSING, ONECLUSTER, TREE, Family
from lcumulants.lcumulant import (
    LCumulantSystem,
    UnsupportedFamilyError,
    brillinger,
    classical_cumulants,
    conditional_collapse,
    cumulant_tensor,
    detect_independence_structure,
    from_lcumulants,
    l_from_classical,
    linear_image_moments,
    multilinear_action,
    shift_invariance_check,
    to_lcumulants,
    vanishes_outside,
)
from lcumulants.moments import (
    DiscreteDistribution,
    StateSpace,
    central_moments,
    factorizes_over,
    moments_from_distribution,
    transform_values,
)
from lcumulants.partition import CapacityError, SetPartition, parse_partition
from lcumulants.topology import caterpillar, from_newick, star

from conftest import random_distribution


def families_at(n):
    return [
        Family(FULL),
        Family(NONCROSSING),
        Family(INTERVAL),
        Family(ONECLUSTER),
        Family(TREE, caterpillar(n)),
    ]


def random_moments(space, rng, algebraic=False):
    return moments_from_distribution(random_distribution(space, rng, algebraic=algebraic))


def product_inverse(lv, fam):
    """Moments as zeta sums of blockwise cumulant products over the lattice.

    Valid when every lattice interval factors blockwise (condition C0);
    kept here as an independent oracle for the triangular solve.
    """
    sys_ = LCumulantSystem(fam, lv.space)
    entries = {}
    for x in lv.space.states():
        multiset = lv.space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(1)
            continue
        total = Fraction(0)
        for pi in sys_.lattice(multiset).elements:
            term = Fraction(1)
            for block in pi.blocks:
                term *= lv.of_multiset(multiset[j] for j in block)
            total += term
        entries[x] = total
    return entries


def mixture(weights, dists):
    space = dists[0].space
    table = {
        x: sum((w * d.p(x) for w, d in zip(weights, dists)), Fraction(0))
        for x in space.states()
    }
    return DiscreteDistribution(space, table)


class TestForward:
    def test_classical_triple(self, rng):
        mv = random_moments(StateSpace.binary(3), rng)
        kv = classical_cumulants(mv)
        m = mv.of_multiset
        expected = (
            m((1, 2, 3))
            - m((1,)) * m((2, 3))
            - m((2,)) * m((1, 3))
            - m((1, 2)) * m((3,))
            + 2 * m((1,)) * m((2,)) * m((3,))
        )
        assert kv.of_multiset((1, 2, 3)) == expected

    def test_classical_repeated_index(self, rng):
        mv = random_moments(StateSpace.of([3, 2]), rng)
        kv = classical_cumulants(mv)
        m = mv.of_multiset
        expected = m((1, 1, 2)) - 2 * m((1,)) * m((1, 2)) - m((1, 1)) * m((2,)) + 2 * m((1,)) ** 2 * m((2,))
        assert kv.of_multiset((1, 1, 2)) == expected

    def test_boolean_triple(self, rng):
        mv = random_moments(StateSpace.binary(3), rng)
        lv = to_lcumulants(mv, Family(INTERVAL))
        m = mv.of_multiset
        expected = m((1, 2, 3)) - m((1,)) * m((2, 3)) - m((1, 2)) * m((3,)) + m((1,)) * m((2,)) * m((3,))
        assert lv.of_multiset((1, 2, 3)) == expected

    def test_low_order_coordinates_are_universal(self, rng):
        mv = random_moments(StateSpace.binary(3), rng)
        for fam in families_at(3):
            lv = to_lcumulants(mv, fam)
            for i in range(1, 4):
                assert lv.of_multiset((i,)) == mv.of_multiset((i,))
            for i, j in itertools.combinations(range(1, 4), 2):
                cov = mv.of_multiset((i, j)) - mv.of_multiset((i,)) * mv.of_multiset((j,))
                assert lv.of_multiset((i, j)) == cov

    def test_one_cluster_gives_central_moments(self, rng):
        mv = random_moments(StateSpace.of([2, 3, 2]), rng)
        lv = to_lcumulants(mv, Family(ONECLUSTER))
        cm = central_moments(mv)
        for x in mv.space.states():
            if sum(x) >= 2:
                assert lv[x] == cm[x]

    def test_boolean_triple_under_middle_independence(self, rng):
        # With the middle variable independent of the outer pair, the
        # Boolean triple collapses to mu_2 mu_13 - mu_1 mu_2 mu_3, which
        # need not vanish: the certifying split is not an interval one.
        outer = random_distribution(StateSpace.binary(2), rng)
        mid = random_distribution(StateSpace.binary(1), rng)
        space = StateSpace.binary(3)
        table = {
            (x1, x2, x3): outer.p((x1, x3)) * mid.p((x2,))
            for x1, x2, x3 in space.states()
        }
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        lv = to_lcumulants(mv, Family(INTERVAL))
        m = mv.of_multiset
        assert lv.of_multiset((1, 2, 3)) == m((2,)) * m((1, 3)) - m((1,)) * m((2,)) * m((3,))


class TestInverse:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_every_family(self, n, rng):
        space = StateSpace.binary(n)
        for fam in families_at(n):
            for _ in range(3):
                mv = random_moments(space, rng)
                assert from_lcumulants(to_lcumulants(mv, fam)).entries == mv.entries

    def test_round_trip_mixed_arities(self, rng):
        space = StateSpace.of([2, 3, 2])
        for fam in families_at(3)[:4]:  # tree families need a binary box
            mv = random_moments(space, rng)
            assert from_lcumulants(to_lcumulants(mv, fam)).entries == mv.entries

    def test_product_and_triangular_inverses_agree(self, rng):
        cases = [(StateSpace.binary(4), fam) for fam in families_at(4)]
        cases += [(StateSpace.of([2, 3, 2]), fam) for fam in families_at(3)[:4]]  # trees need a binary box
        for space, fam in cases:
            mv = random_moments(space, rng)
            lv = to_lcumulants(mv, fam)
            assert product_inverse(lv, fam) == from_lcumulants(lv).entries == mv.entries

    def test_inverse_runs_no_condition_check(self, rng, monkeypatch):
        import lcumulants.lattice

        def refuse(*args):
            raise AssertionError("the inverse must not check C0")

        monkeypatch.setattr(lcumulants.lattice, "_check_c0", refuse)
        fam = Family(TREE, from_newick("((3,1)a,(4,2)b)r;"))
        mv = random_moments(StateSpace.binary(4), rng)
        assert from_lcumulants(to_lcumulants(mv, fam)).entries == mv.entries

    @pytest.mark.parametrize(
        "fam", [Family(NONCROSSING), Family(TREE, from_newick("((4,2)a,(1,3)b)r;"))], ids=str
    )
    def test_transforms_build_no_lattice(self, fam, rng, monkeypatch):
        import lcumulants.lattice
        import lcumulants.lcumulant

        def refuse(*args, **kwargs):
            raise AssertionError("the transforms must not build a lattice")

        lcumulants.lattice._cached_weights.cache_clear()
        lcumulants.lattice._cached_first_blocks.cache_clear()
        monkeypatch.setattr(lcumulants.lattice, "build", refuse)
        monkeypatch.setattr(lcumulants.lcumulant, "build", refuse)
        mv = random_moments(StateSpace.of([3, 2, 2, 2]) if fam.size_indexed else StateSpace.binary(4), rng)
        assert from_lcumulants(to_lcumulants(mv, fam)).entries == mv.entries

    def test_capacity_holds_once_weights_are_cached(self, rng):
        mv = random_moments(StateSpace.binary(4), rng)
        to_lcumulants(mv, Family(FULL))
        with pytest.raises(CapacityError):
            to_lcumulants(mv, Family(FULL), capacity=3)

    def test_vanishing_higher_coordinates_mean_independence(self):
        # With only first-order coordinates set, moments are products.
        space = StateSpace.binary(3)
        k = {(0, 0, 0): Fraction(0)}
        means = {1: Fraction(1, 3), 2: Fraction(2, 5), 3: Fraction(1, 7)}
        from lcumulants.moments import LCUMULANTS, CoordinateVector

        entries = {}
        for x in space.states():
            support = [i + 1 for i, e in enumerate(x) if e]
            if len(support) == 1:
                entries[x] = means[support[0]]
            else:
                entries[x] = Fraction(0)
        lv = CoordinateVector(space, LCUMULANTS, entries, family=Family(FULL))
        mv = from_lcumulants(lv)
        for x in space.states():
            expected = Fraction(1)
            for i, e in enumerate(x):
                if e:
                    expected *= means[i + 1]
            assert mv[x] == expected

    def test_tree_family_requires_binary_box(self):
        with pytest.raises(UnsupportedFamilyError):
            LCumulantSystem(Family(TREE, caterpillar(3)), StateSpace.of([2, 3, 2]))

    @pytest.mark.parametrize(
        "kind,terms",
        [
            # One variable, fourth moment in terms of its cumulants; the
            # coefficients count the lattice's partitions by block type.
            (FULL, {(4,): 1, (3, 1): 4, (2, 2): 3, (2, 1, 1): 6, (1, 1, 1, 1): 1}),
            (NONCROSSING, {(4,): 1, (3, 1): 4, (2, 2): 2, (2, 1, 1): 6, (1, 1, 1, 1): 1}),
            (INTERVAL, {(4,): 1, (3, 1): 2, (2, 2): 1, (2, 1, 1): 3, (1, 1, 1, 1): 1}),
        ],
    )
    def test_single_variable_fourth_moment_expansion(self, kind, terms):
        space = StateSpace.of([5])
        kappa = {1: Fraction(2, 3), 2: Fraction(-1, 5), 3: Fraction(3, 7), 4: Fraction(1, 2)}
        from lcumulants.moments import LCUMULANTS, CoordinateVector

        entries = {(0,): Fraction(0)}
        for d in range(1, 5):
            entries[(d,)] = kappa[d]
        lv = CoordinateVector(space, LCUMULANTS, entries, family=Family(kind))
        mv = from_lcumulants(lv)
        expected = Fraction(0)
        for shape, count in terms.items():
            term = Fraction(count)
            for block_size in shape:
                term *= kappa[block_size]
            expected += term
        assert mv[(4,)] == expected


class TestClassicalBridge:
    def test_full_family_is_identity(self, rng):
        kv = classical_cumulants(random_moments(StateSpace.binary(3), rng))
        assert l_from_classical(kv, Family(FULL)).entries == kv.entries

    def test_caterpillar_quadratic_correction(self, rng):
        mv = random_moments(StateSpace.binary(4), rng)
        kv = classical_cumulants(mv)
        tv = l_from_classical(kv, Family(TREE, caterpillar(4)))
        k = kv.of_multiset
        assert tv.of_multiset((1, 2, 3, 4)) == k((1, 2, 3, 4)) + k((1, 3)) * k((2, 4)) + k((1, 4)) * k((2, 3))
        for x in mv.space.states():
            if 0 < sum(x) <= 3:
                assert tv[x] == kv[x]

    def test_boolean_triple_bridge(self, rng):
        # For three variables, only 13|2 and the top see no interval
        # partition strictly above them, so the Boolean triple is
        # k_123 + k_13 k_2 in classical cumulants.
        mv = random_moments(StateSpace.binary(3), rng)
        kv = classical_cumulants(mv)
        lv = l_from_classical(kv, Family(INTERVAL))
        k = kv.of_multiset
        assert lv.of_multiset((1, 2, 3)) == k((1, 2, 3)) + k((1, 3)) * k((2,))

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_direct_transform(self, n, rng):
        space = StateSpace.binary(n)
        mv = random_moments(space, rng)
        kv = classical_cumulants(mv)
        for fam in families_at(n):
            assert l_from_classical(kv, fam).entries == to_lcumulants(mv, fam).entries


class TestTensors:
    def test_order_one_is_linear(self, rng):
        dist = random_distribution(StateSpace.of([2, 3]), rng)
        Q = [[Fraction(2), Fraction(-1)], [Fraction(1, 2), Fraction(3)]]
        t = cumulant_tensor(dist, Family(FULL), 1)
        qt = multilinear_action(Q, t)
        means = [dist.raw_moment([1]), dist.raw_moment([2])]
        for i in (1, 2):
            assert qt[(i,)] == Q[i - 1][0] * means[0] + Q[i - 1][1] * means[1]

    @pytest.mark.parametrize("kind", [FULL, INTERVAL])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_transformation_law(self, kind, order, rng):
        dist = random_distribution(StateSpace.of([2, 2, 3]), rng)
        Q = [
            [rng.fraction(12, signed=True) for _ in range(3)],
            [rng.fraction(12, signed=True) for _ in range(3)],
        ]
        acted = multilinear_action(Q, cumulant_tensor(dist, Family(kind), order))
        direct = cumulant_tensor(linear_image_moments(Q, dist), Family(kind), order, n=2)
        assert acted.entries == direct.entries

    def test_diagonal_homogeneity(self, rng):
        dist = random_distribution(StateSpace.binary(3), rng)
        lam = [Fraction(2), Fraction(-3, 4), Fraction(5)]
        Q = [[lam[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)]
        for kind in (FULL, NONCROSSING, INTERVAL, ONECLUSTER):
            t = cumulant_tensor(dist, Family(kind), 3)
            qt = multilinear_action(Q, t)
            for idx, value in t.entries.items():
                coeff = Fraction(1)
                for i in idx:
                    coeff *= lam[i - 1]
                assert qt[idx] == coeff * value

    def test_interval_tensor_is_order_sensitive(self, rng):
        dist = random_distribution(StateSpace.binary(3), rng)
        t = cumulant_tensor(dist, Family(INTERVAL), 3)
        assert t[(1, 2, 3)] != t[(2, 1, 3)]

    def test_full_tensor_is_symmetric(self, rng):
        dist = random_distribution(StateSpace.binary(3), rng)
        t = cumulant_tensor(dist, Family(FULL), 3)
        for idx in itertools.product((1, 2, 3), repeat=3):
            assert t[idx] == t[tuple(sorted(idx))]

    def test_tree_family_rejected(self, rng):
        dist = random_distribution(StateSpace.binary(4), rng)
        with pytest.raises(UnsupportedFamilyError):
            cumulant_tensor(dist, Family(TREE, caterpillar(4)), 2)


class TestShiftInvariance:
    def test_invariant_families(self, rng):
        mv = random_moments(StateSpace.binary(4), rng)
        a = [Fraction(1, 3), Fraction(-2, 7), Fraction(4), Fraction(-1)]
        for fam in [Family(FULL), Family(NONCROSSING), Family(ONECLUSTER), Family(TREE, caterpillar(4))]:
            report = shift_invariance_check(mv, fam, a)
            assert report.invariant and report.first_order_ok

    def test_interval_family_produces_witness(self, rng):
        # Endpoint splits 1|23 and 12|3 are interval partitions, so shifts
        # of the outer variables are absorbed; the middle variable's split
        # 13|2 is not, and shifting it moves the triple coordinate.
        mv = random_moments(StateSpace.binary(3), rng)
        outer = shift_invariance_check(mv, Family(INTERVAL), [Fraction(1), Fraction(0), Fraction(0)])
        assert outer.invariant
        report = shift_invariance_check(mv, Family(INTERVAL), [Fraction(0), Fraction(1), Fraction(0)])
        assert not report.invariant
        assert report.mismatches
        assert report.mismatches[0][0] == (1, 1, 1)

    def test_value_change_scales_monomially(self, rng):
        # Rescaling each variable multiplies a coordinate by its index gaps,
        # for every family; this is the torus action on higher coordinates.
        mv = random_moments(StateSpace.binary(3), rng)
        lam = [Fraction(3, 2), Fraction(-2), Fraction(7, 5)]
        scaled = transform_values(mv, scale=lam)
        for fam in families_at(3):
            before = to_lcumulants(mv, fam)
            after = to_lcumulants(scaled, fam)
            for x in mv.space.states():
                coeff = Fraction(1)
                for i, e in enumerate(x):
                    coeff *= lam[i] ** e
                assert after[x] == coeff * before[x]

    def test_relabelling_levels_is_scale_plus_shift(self, rng):
        # Moving the two levels of each bit to (b_i, a_i) composes a scale
        # by the gap with a shift; families with all singleton splits see
        # the pure monomial action on coordinates of order two and up.
        mv = random_moments(StateSpace.binary(3), rng)
        gaps = [Fraction(5, 4), Fraction(-3, 2), Fraction(2, 7)]
        offsets = [Fraction(1, 3), Fraction(0), Fraction(-2, 5)]
        moved = transform_values(mv, scale=gaps, shift=offsets)
        for fam in [Family(FULL), Family(NONCROSSING), Family(ONECLUSTER), Family(TREE, caterpillar(3))]:
            before = to_lcumulants(mv, fam)
            after = to_lcumulants(moved, fam)
            for x in mv.space.states():
                if sum(x) < 2:
                    continue
                coeff = Fraction(1)
                for i, e in enumerate(x):
                    coeff *= gaps[i] ** e
                assert after[x] == coeff * before[x]


class TestIndependenceDetection:
    def test_product_distribution_detects_singletons(self, rng):
        space = StateSpace.binary(3)
        factors = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 5), Fraction(4, 5)], [Fraction(1, 2), Fraction(1, 2)]]
        mv = moments_from_distribution(DiscreteDistribution.product(space, factors))
        lv = to_lcumulants(mv, Family(FULL))
        assert detect_independence_structure(lv) == SetPartition.singletons(3)

    def test_interval_family_misses_non_interval_split(self, rng):
        outer = random_distribution(StateSpace.binary(2), rng)
        mid = random_distribution(StateSpace.binary(1), rng)
        space = StateSpace.binary(3)
        table = {
            (x1, x2, x3): outer.p((x1, x3)) * mid.p((x2,))
            for x1, x2, x3 in space.states()
        }
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        assert detect_independence_structure(to_lcumulants(mv, Family(INTERVAL))) == SetPartition.one_block(3)
        assert str(detect_independence_structure(to_lcumulants(mv, Family(FULL)))) == "13|2"

    def test_vanishing_equivalence_on_factorizing_and_perturbed(self, rng):
        # Moment factorization over pi0 holds iff the cumulants vanish
        # outside pi0's blocks; perturbations break both at once.
        space = StateSpace.binary(5)
        parts = [parse_partition("12|345"), parse_partition("134|25"), parse_partition("1|2345")]
        for pi0 in parts:
            for _ in range(5):
                blocks = pi0.blocks
                factors = [random_distribution(StateSpace.binary(len(b)), rng) for b in blocks]
                table = {}
                for x in space.states():
                    p = Fraction(1)
                    for block, factor in zip(blocks, factors):
                        p *= factor.p(tuple(x[i] for i in block))
                    table[x] = p
                mv = moments_from_distribution(DiscreteDistribution(space, table))
                lv = to_lcumulants(mv, Family(FULL))
                assert factorizes_over(mv, pi0)
                assert vanishes_outside(lv, pi0)
                bad = dict(table)
                bad[(0,) * 5] += Fraction(1, 97)
                bad[(1,) * 5] -= Fraction(1, 97)
                mv_bad = moments_from_distribution(DiscreteDistribution(space, bad, algebraic=True))
                lv_bad = to_lcumulants(mv_bad, Family(FULL))
                assert not factorizes_over(mv_bad, pi0)
                assert not vanishes_outside(lv_bad, pi0)


class TestConditionalCumulants:
    def test_pair_reduces_to_covariance_decomposition(self, rng):
        # The order-two case is the law of total covariance.
        space = StateSpace.binary(2)
        weights = rng.weights(2)
        dists = [random_distribution(space, rng) for _ in range(2)]
        cond = {y: to_lcumulants(moments_from_distribution(d), Family(FULL)) for y, d in enumerate(dists)}
        out = brillinger(dict(enumerate(weights)), cond, Family(FULL))
        mean_cond_cov = sum((w * c.of_multiset((1, 2)) for w, c in zip(weights, cond.values())), Fraction(0))
        m1 = [d.raw_moment([1]) for d in dists]
        m2 = [d.raw_moment([2]) for d in dists]
        e1 = sum((w * v for w, v in zip(weights, m1)), Fraction(0))
        e2 = sum((w * v for w, v in zip(weights, m2)), Fraction(0))
        cov_cond_means = sum(
            (w * (a - e1) * (b - e2) for w, a, b in zip(weights, m1, m2)), Fraction(0)
        )
        assert out.of_multiset((1, 2)) == mean_cond_cov + cov_cond_means

    def test_degenerate_mixing_variable(self, rng):
        space = StateSpace.binary(3)
        d = random_distribution(space, rng)
        cond = {0: to_lcumulants(moments_from_distribution(d), Family(INTERVAL))}
        out = brillinger({0: Fraction(1)}, cond, Family(INTERVAL))
        assert out.entries == cond[0].entries

    @pytest.mark.parametrize("n", [3, 4])
    def test_mixture_oracle(self, n, rng):
        space = StateSpace.binary(n)
        for fam in [Family(FULL), Family(INTERVAL), Family(TREE, caterpillar(n))]:
            for _ in range(3):
                weights = rng.weights(3)
                dists = [random_distribution(space, rng) for _ in range(3)]
                cond = {y: to_lcumulants(moments_from_distribution(d), fam) for y, d in enumerate(dists)}
                out = brillinger(dict(enumerate(weights)), cond, fam)
                mixed = to_lcumulants(moments_from_distribution(mixture(weights, dists)), fam)
                assert out.entries == mixed.entries

    def test_one_cluster_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            brillinger({0: Fraction(1)}, {0: None}, Family(ONECLUSTER))

    def test_wide_star_tree_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            brillinger({0: Fraction(1)}, {0: None}, Family(TREE, star(4)))

    def test_collapse_with_constant_means_vanishes(self):
        means = {0: [Fraction(1, 3)] * 3, 1: [Fraction(1, 3)] * 3}
        for fam in families_at(3):
            assert conditional_collapse({0: Fraction(1, 2), 1: Fraction(1, 2)}, means, fam) == 0

    def test_collapse_on_one_latent_class_model(self, rng):
        # All variables independent given Y: the top coordinate equals the
        # family cumulant of the conditional mean vector, here checked for
        # the caterpillar, one-cluster and full routes against the mixture.
        from lcumulants.trees import tree_cumulants

        t = rng.probability(30)
        a = tuple(rng.probability(30) for _ in range(4))
        b = tuple(rng.probability(30) for _ in range(4))
        space = StateSpace.binary(4)
        table = {}
        for x in space.states():
            pa = Fraction(1)
            pb = Fraction(1)
            for i, e in enumerate(x):
                pa *= a[i] if e else 1 - a[i]
                pb *= b[i] if e else 1 - b[i]
            table[x] = (1 - t) * pa + t * pb
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        y_dist = {0: 1 - t, 1: t}
        means = {0: a, 1: b}
        cat = Family(TREE, caterpillar(4))
        assert conditional_collapse(y_dist, means, cat) == tree_cumulants(mv, caterpillar(4)).of_multiset((1, 2, 3, 4))
        assert conditional_collapse(y_dist, means, Family(ONECLUSTER)) == central_moments(mv)[(1, 1, 1, 1)]
        assert conditional_collapse(y_dist, means, Family(FULL)) == classical_cumulants(mv).of_multiset((1, 2, 3, 4))
