import itertools
from fractions import Fraction

import pytest

import oracles
from lcumulants.lattice import FULL, INTERVAL, NONCROSSING, ONECLUSTER, TREE, Family
from lcumulants.lcumulant import (
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
    LCUMULANTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    central_moments,
    factorizes_over,
    moments_from_distribution,
    transform_values,
)
from lcumulants.partition import CapacityError, SetPartition, all_partitions, parse_partition
from lcumulants.topology import caterpillar, from_newick, star
from oracles import build

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
    entries = {}
    for x in lv.space.states():
        multiset = lv.space.index_multiset(x)
        if not multiset:
            entries[x] = Fraction(1)
            continue
        total = Fraction(0)
        for pi in build(fam, len(multiset) if fam.size_indexed else multiset).elements:
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
    def test_transforms_build_no_lattice(self, fam, rng, no_lattice_order):
        import lcumulants.lattice

        lcumulants.lattice._cached_weights.cache_clear()
        lcumulants.lattice._cached_first_blocks.cache_clear()
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

    def test_tree_family_requires_binary_box(self, rng):
        mv = random_moments(StateSpace.of([2, 3, 2]), rng)
        with pytest.raises(UnsupportedFamilyError):
            to_lcumulants(mv, Family(TREE, caterpillar(3)))

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


class TestOneClusterCentring:
    """The one-cluster transforms are one per-axis centring shift: no plan, no table."""

    @pytest.mark.parametrize("box", [(2,) * 6, (3, 3, 2, 2), (4, 3, 2)], ids=str)
    def test_a_round_trip_builds_no_plan_and_reads_no_table(self, box, rng):
        import lcumulants.lattice
        import lcumulants.lcumulant

        caches = [lcumulants.lcumulant._cached_plan, lcumulants.lattice._cached_first_blocks]
        for cache in caches:
            cache.cache_clear()
        fam = Family(ONECLUSTER)
        space = StateSpace.of(box)
        pairs = []
        for algebraic in (False, True):
            mv = random_moments(space, rng, algebraic=algebraic)
            lv = to_lcumulants(mv, fam)
            assert from_lcumulants(lv).entries == mv.entries
            pairs.append((mv, lv))
        means = {0: [Fraction(1, 3)] * space.n, 1: [Fraction(-2, 5)] * space.n}
        conditional_collapse({0: Fraction(1, 4), 1: Fraction(3, 4)}, means, fam)
        cumulant_tensor(random_distribution(space, rng), fam, 2)
        for cache in caches:
            info = cache.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        tables = oracles.first_block_tables(fam, space, None)  # the oracle reads the tables
        for mv, lv in pairs:
            assert lv.entries == oracles.first_block_solve(space, mv.entries, tables, forward=True)

    def test_a_capped_call_raises_the_cap_message(self, rng):
        # The largest index of the (3, 2, 2) box has size 4.
        fam = Family(ONECLUSTER)
        dist = random_distribution(StateSpace.of([3, 2, 2]), rng)
        mv = moments_from_distribution(dist)
        lv = to_lcumulants(mv, fam, capacity=None)
        means = {0: [Fraction(1, 3)] * 4, 1: [Fraction(-2, 5)] * 4}
        calls = [
            lambda: to_lcumulants(mv, fam, capacity=3),
            lambda: from_lcumulants(lv, capacity=3),
            lambda: cumulant_tensor(dist, fam, 4, capacity=3),
            lambda: conditional_collapse({0: Fraction(1, 4), 1: Fraction(3, 4)}, means, fam, capacity=3),
        ]
        for call in calls:
            with pytest.raises(CapacityError, match=r"^ground set of size 4 exceeds the cap of 3$"):
                call()
        assert to_lcumulants(mv, fam, capacity=4).entries == lv.entries


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


# The families the bridge and the collapse are compared with their oracles
# on: the size-indexed ones, a caterpillar, a relabelled caterpillar and a
# tree with a degree-six node, each where its leaves cover the variables.
ORACLE_TREES = [from_newick("(3,1,(5,(2,4)h3)h2)h1;"), from_newick("((1,2,3,4,5)a,6,(7,8)b)r;")]


def oracle_families(n, binary=True):
    fams = [Family(kind) for kind in (FULL, NONCROSSING, INTERVAL, ONECLUSTER)]
    if binary:
        trees = [caterpillar(n)] if n >= 2 else []
        trees += [t for t in ORACLE_TREES if set(range(1, n + 1)) <= set(t.leaves)]
        fams += [Family(TREE, t) for t in trees]
    return fams


class TestClassicalBridgeOracle:
    @pytest.mark.parametrize("box", [(3, 2, 2), (2,) * 5, (2,) * 6], ids=["3x2x2", "2^5", "2^6"])
    def test_composition_equals_partition_formula(self, box, rng):
        space = StateSpace.of(box)
        kv = classical_cumulants(random_moments(space, rng, algebraic=True))
        for fam in oracle_families(space.n, binary=set(box) == {2}):
            got, want = l_from_classical(kv, fam), oracles.l_from_classical(kv, fam)
            assert (got.system, got.family) == (want.system, want.family)
            assert got.entries == want.entries, fam

    def test_same_errors(self, rng):
        kv = classical_cumulants(random_moments(StateSpace.of([3, 2, 2]), rng))
        tree = Family(TREE, caterpillar(3))
        for bridge in (l_from_classical, oracles.l_from_classical):
            with pytest.raises(UnsupportedFamilyError):
                bridge(kv, tree)
            with pytest.raises(CapacityError):
                bridge(kv, Family(NONCROSSING), capacity=2)
            with pytest.raises(ValueError, match="expected classical cumulants"):
                bridge(random_moments(StateSpace.binary(2), rng), Family(FULL))


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

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", [FULL, NONCROSSING, INTERVAL, ONECLUSTER])
    def test_equals_the_weight_table_sum(self, kind, order, rng):
        # Every index tuple, repeated and permuted ones included, from a
        # distribution, its moment vector and a bare moment function.
        dist = random_distribution(StateSpace.of([3, 2, 2]), rng, algebraic=True)
        mv = moments_from_distribution(dist)
        want = oracles.cumulant_tensor(dist, Family(kind), order).entries
        assert len(want) == 3**order
        for source, n in [(dist, None), (mv, None), (dist.raw_moment, 3)]:
            got = cumulant_tensor(source, Family(kind), order, n=n)
            assert (got.order, got.n) == (order, 3)
            assert got.entries == want

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order, rng):
        dist = random_distribution(StateSpace.binary(2), rng)
        with pytest.raises(ValueError):
            cumulant_tensor(dist, Family(FULL), order)

    def test_order_over_the_cap_is_refused_before_a_moment(self):
        def refuse(multiset):
            raise AssertionError("no moment may be read above the cap")

        with pytest.raises(CapacityError):
            cumulant_tensor(refuse, Family(FULL), 13, n=2)


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


# Trees with at least seven leaves, so each covers every box up to n = 7.
DETECTION_FAMILIES = {
    **{kind: Family(kind) for kind in (FULL, NONCROSSING, INTERVAL, ONECLUSTER)},
    "caterpillar7": Family(TREE, caterpillar(7)),
    "relabelled-balanced7": Family(TREE, from_newick("((3,(1,5)d)e,((4,7)b,(2,6)a)c)r;")),
    "hub8": Family(TREE, from_newick("((1,2,3,4,5)a,6,(7,8)b)r;")),
}


def random_partition(n, rng):
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(rng.randint(0, max(rgs) + 1))
    return SetPartition(rgs)


def product_table(space, pi0, rng, perturbed=False):
    """A law that factors over the blocks of pi0, or one moved off it by 1/97."""
    factors = [random_distribution(StateSpace.of([space.arities[i] for i in b]), rng) for b in pi0.blocks]
    table = {}
    for x in space.states():
        table[x] = Fraction(1)
        for block, factor in zip(pi0.blocks, factors):
            table[x] *= factor.p(tuple(x[i] for i in block))
    if perturbed:
        states = list(table)
        table[states[rng.randint(0, len(states) - 1)]] += Fraction(1, 97)
        table[states[rng.randint(0, len(states) - 1)]] -= Fraction(1, 97)
    return DiscreteDistribution(space, table, algebraic=perturbed)


def zero_pattern(space, fam, rng, pi0=None):
    """Cumulants that are 0 off a few random indices of two or more variables.

    Given pi0, they are instead 0 off the indices whose variables lie in
    one block of pi0, and on about one in four of those.
    """
    entries = {}
    for x in space.states():
        support = [i for i, e in enumerate(x) if e]
        if len(support) < 2:
            entries[x] = rng.fraction(5, signed=True)
        elif pi0 is None:
            scattered = rng.randint(1, 2**space.n) <= 2
            entries[x] = Fraction(rng.randint(1, 5), rng.randint(1, 4)) if scattered else Fraction(0)
        else:
            inside = len({pi0.rgs[i] for i in support}) == 1
            entries[x] = Fraction(rng.randint(-5, -1), 3) if inside and rng.randint(0, 3) else Fraction(0)
    return CoordinateVector(space, LCUMULANTS, entries, family=fam)


class TestDetectionAgainstTheScan:
    """The first-block descent against the weight-table scan it replaced."""

    @pytest.mark.parametrize("name", list(DETECTION_FAMILIES))
    def test_descent_matches_the_scan(self, name, rng):
        fam = DETECTION_FAMILIES[name]
        for n in range(1, 8):
            boxes = [StateSpace.binary(n)]
            if fam.size_indexed and n <= 5:  # mixed arities
                boxes.append(StateSpace.of([rng.randint(2, 3) for _ in range(n)]))
            for space in boxes:
                patterns = [None] * 3 + [random_partition(n, rng) for _ in range(3)]
                cases = [zero_pattern(space, fam, rng, pi0) for pi0 in patterns]
                for perturbed in (False, True):
                    for _ in range(2):
                        dist = product_table(space, random_partition(n, rng), rng, perturbed)
                        cases.append(to_lcumulants(moments_from_distribution(dist), fam))
                for lv in cases:
                    want = oracles.detect_independence_structure(lv)
                    assert detect_independence_structure(lv) == want, (n, space.arities, lv.entries)

    def test_vanishes_outside_matches_the_entry_check(self, rng):
        for n in range(1, 6):
            for space in (StateSpace.binary(n), StateSpace.of([3] + [2] * (n - 1))):
                for _ in range(4):
                    lv = zero_pattern(space, Family(FULL), rng)
                    for pi0 in all_partitions(n):
                        assert vanishes_outside(lv, pi0) == oracles.vanishes_outside(lv, pi0), (pi0, lv.entries)

    def test_cap_refuses_before_the_supports_are_read(self, monkeypatch):
        import lcumulants.lcumulant

        def refuse(*args, **kwargs):
            raise AssertionError("the supports were read before the cap")

        monkeypatch.setattr(lcumulants.lcumulant, "_support_components", refuse)
        space = StateSpace.binary(5)
        for fam in [Family(FULL), Family(TREE, caterpillar(5))]:
            lv = CoordinateVector(space, LCUMULANTS, dict.fromkeys(space.states(), Fraction(0)), family=fam)
            with pytest.raises(CapacityError):
                detect_independence_structure(lv, capacity=4)

    def test_empty_box(self):
        space = StateSpace.of(())
        for fam in [Family(FULL), Family(TREE, caterpillar(3))]:
            lv = CoordinateVector(space, LCUMULANTS, {(): Fraction(0)}, family=fam)
            with pytest.raises(ValueError) as new:
                detect_independence_structure(lv)
            with pytest.raises(ValueError) as old:
                oracles.detect_independence_structure(lv)
            assert type(new.value) is type(old.value) is ValueError
            assert str(new.value) == str(old.value) == "empty ground set"

    def test_tree_family_needs_a_binary_box(self):
        space = StateSpace.of([3, 2])
        lv = CoordinateVector(space, LCUMULANTS, dict.fromkeys(space.states(), Fraction(0)))
        with pytest.raises(UnsupportedFamilyError):
            detect_independence_structure(lv, Family(TREE, caterpillar(2)))


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
                assert oracles.brillinger(dict(enumerate(weights)), cond, fam).entries == mixed.entries

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_nested_sum(self, n, rng):
        # Signed conditional cumulants and a zero-weight state of Y: the
        # formula is an identity of the coordinates, not of laws alone.
        space = StateSpace.binary(n)
        for fam in [Family(FULL), Family(INTERVAL), Family(TREE, caterpillar(n))]:
            weights = rng.weights(3)
            law = {0: weights[0], 1: Fraction(0), 2: weights[1], 3: weights[2]}
            cond = {
                y: to_lcumulants(moments_from_distribution(random_distribution(space, rng, algebraic=True)), fam)
                for y in law
            }
            got, want = brillinger(law, cond, fam), oracles.brillinger(law, cond, fam)
            assert (got.system, got.family) == (want.system, want.family)
            assert got.entries == want.entries, fam

    def test_same_errors_as_the_nested_sum(self, rng):
        space = StateSpace.binary(3)
        cond = {0: to_lcumulants(moments_from_distribution(random_distribution(space, rng)), Family(FULL))}
        other = to_lcumulants(moments_from_distribution(random_distribution(StateSpace.binary(2), rng)), Family(FULL))
        for formula in (brillinger, oracles.brillinger):
            with pytest.raises(UnsupportedFamilyError):
                formula({0: Fraction(1)}, cond, Family(NONCROSSING))
            with pytest.raises(CapacityError):
                formula({0: Fraction(1)}, cond, Family(FULL), capacity=2)
            with pytest.raises(ValueError, match="different state spaces"):
                formula({0: Fraction(1, 2), 1: Fraction(1, 2)}, {**cond, 1: other}, Family(FULL))
            with pytest.raises(ValueError, match="sum to 1/2"):
                formula({0: Fraction(1, 2)}, cond, Family(FULL))

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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_collapse_equals_weight_table_sum(self, n, rng):
        weights = rng.weights(3)
        y_dist = {0: weights[0], 1: weights[1], 2: Fraction(0), 3: weights[2]}
        means = {y: [rng.fraction(9, signed=True) for _ in range(n)] for y in y_dist}
        for fam in oracle_families(n):
            want = oracles.conditional_collapse(y_dist, means, fam)
            assert conditional_collapse(y_dist, means, fam) == want, fam

    def test_collapse_over_the_cap_is_refused_before_the_box(self):
        # 2^30 moments would be filled if the cap were checked only by the transform.
        with pytest.raises(CapacityError):
            conditional_collapse({0: Fraction(1)}, {0: [Fraction(1, 2)] * 30}, Family(FULL))

    @pytest.mark.parametrize(
        "y_dist, means, message",
        [
            ({0: Fraction(3, 10), 1: Fraction(2, 5)}, {0: [1, 2], 1: [3, 4]}, "sum to 7/10"),
            ({}, {}, "empty mixing distribution"),
            ({0: Fraction(1, 2), 1: Fraction(1, 2)}, {0: [1, 2], 1: [3]}, "differ in length"),
        ],
        ids=["mass-7/10", "empty-law", "unequal-means"],
    )
    def test_collapse_rejects_a_bad_law(self, y_dist, means, message):
        with pytest.raises(ValueError, match=message):
            conditional_collapse(y_dist, means, Family(FULL))
