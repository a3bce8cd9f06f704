"""Acceptance checks, one per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines.  Everything is exact rational arithmetic unless a check explicitly
exercises the float fallback, whose tolerance is 1e-12.
"""

import itertools
import math
from fractions import Fraction

import pytest

import oracles
from lcumulants.lattice import (
    FULL,
    INTERVAL,
    NONCROSSING,
    ONECLUSTER,
    TREE,
    Family,
)
from lcumulants.lcumulant import (
    UnsupportedFamilyError,
    brillinger,
    classical_cumulants,
    cumulant_tensor,
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
    distribution_from_moments,
    factorizes_over,
    moments_from_distribution,
)
from lcumulants.models import (
    SecantParams,
    gmm_distribution,
    hmm_normalized_tree_cumulants,
    hmm_pipeline_tree_cumulants,
    hmm_tree_cumulants_closed,
    random_gmm_params,
    random_hmm_params,
    reroot_params,
    secant_moments,
    secant_tree_cumulants,
    split_binomials,
)
from lcumulants.rng import SplitMix64
from lcumulants.topology import caterpillar, quartet
from lcumulants.trees import (
    contracted_tree_cumulants,
    normalized_tree_cumulants,
    subset_tree_cumulants,
    tree_cumulants,
)
from oracles import all_partitions, build

from conftest import random_distribution


def _families(n):
    return {
        "full": Family(FULL),
        "noncrossing": Family(NONCROSSING),
        "interval": Family(INTERVAL),
        "onecluster": Family(ONECLUSTER),
        "tree": Family(TREE, caterpillar(n)),
    }


def _ground(fam, n):
    return tuple(range(1, n + 1)) if fam.kind == TREE else n


def test_c01_lattice_counts():
    expected = [
        (Family(FULL), 3, 5),
        (Family(FULL), 4, 15),
        (Family(NONCROSSING), 4, 14),
        (Family(INTERVAL), 4, 8),
        (Family(ONECLUSTER), 4, 12),
        (Family(TREE, caterpillar(4)), 4, 13),
    ]
    for fam, n, count in expected:
        assert len(build(fam, _ground(fam, n))) == count
    print("[PASS] criterion 1: lattice element counts (5, 15, 14, 8, 12, 13)")


def test_c02_mobius_closed_forms_up_to_six():
    for d in range(1, 7):
        lat = build(Family(FULL), d)
        for p in lat.elements:
            b = p.num_blocks
            assert lat.mobius_to_top(p) == (-1) ** (b - 1) * math.factorial(b - 1)
        lat = build(Family(INTERVAL), d)
        for p in lat.elements:
            assert lat.mobius_to_top(p) == (-1) ** (p.num_blocks - 1)
        lat = build(Family(ONECLUSTER), d)
        for p in lat.elements:
            if d > 1 and p.num_blocks == d:
                assert lat.mobius_to_top(p) == (-1) ** (d - 1) * (d - 1)
            else:
                assert lat.mobius_to_top(p) == (-1) ** (p.num_blocks - 1)
    print("[PASS] criterion 2: closed-form Moebius values match the recursion, d <= 6")


def test_c03_weisner_sums_vanish_up_to_five():
    checked = 0
    for d in range(2, 6):
        for fam in _families(d).values():
            lat = build(fam, _ground(fam, d))
            for pi0 in lat.elements:
                if pi0 == lat.top:
                    continue
                for delta in lat.elements:
                    assert lat.weisner_sum(pi0, delta) == 0
                    checked += 1
    print(f"[PASS] criterion 3: {checked} meet-fiber sums all vanish, five families, d <= 5")


def test_c04_round_trips_hundred_per_family():
    rng = SplitMix64(41)
    per_family = 0
    for name, make in [
        ("full", lambda n: Family(FULL)),
        ("noncrossing", lambda n: Family(NONCROSSING)),
        ("interval", lambda n: Family(INTERVAL)),
        ("onecluster", lambda n: Family(ONECLUSTER)),
        ("tree", lambda n: Family(TREE, caterpillar(n))),
    ]:
        per_family = 0
        for n in (2, 3, 4):
            space = StateSpace.binary(n)
            trials = 34 if n != 4 else 32
            for _ in range(trials):
                mv = moments_from_distribution(random_distribution(space, rng))
                assert from_lcumulants(to_lcumulants(mv, make(n))).entries == mv.entries
                per_family += 1
        assert per_family == 100
    print("[PASS] criterion 4: 100 exact round trips per family, n <= 4")


def test_c05_formula_goldens():
    rng = SplitMix64(43)
    space3 = StateSpace.binary(3)
    mv = moments_from_distribution(random_distribution(space3, rng))
    m = mv.of_multiset
    kv = classical_cumulants(mv)
    assert kv.of_multiset((1, 2, 3)) == (
        m((1, 2, 3)) - m((1,)) * m((2, 3)) - m((2,)) * m((1, 3)) - m((1, 2)) * m((3,))
        + 2 * m((1,)) * m((2,)) * m((3,))
    )
    lv = to_lcumulants(mv, Family(INTERVAL))
    assert lv.of_multiset((1, 2, 3)) == (
        m((1, 2, 3)) - m((1,)) * m((2, 3)) - m((1, 2)) * m((3,)) + m((1,)) * m((2,)) * m((3,))
    )
    space32 = StateSpace.of([3, 2])
    mv32 = moments_from_distribution(random_distribution(space32, rng))
    m = mv32.of_multiset
    assert classical_cumulants(mv32).of_multiset((1, 1, 2)) == (
        m((1, 1, 2)) - 2 * m((1,)) * m((1, 2)) - m((1, 1)) * m((2,)) + 2 * m((1,)) ** 2 * m((2,))
    )
    space4 = StateSpace.binary(4)
    mv4 = moments_from_distribution(random_distribution(space4, rng))
    cm = central_moments(mv4)
    tv = tree_cumulants(mv4, caterpillar(4))
    assert tv[(1, 1, 1, 1)] == cm[(1, 1, 1, 1)] - cm[(1, 1, 0, 0)] * cm[(0, 0, 1, 1)]
    kv4 = classical_cumulants(mv4)
    bridged = l_from_classical(kv4, Family(TREE, caterpillar(4)))
    k = kv4.of_multiset
    assert bridged.of_multiset((1, 2, 3, 4)) == (
        k((1, 2, 3, 4)) + k((1, 3)) * k((2, 4)) + k((1, 4)) * k((2, 3))
    )
    assert bridged.entries == tv.entries
    space33 = StateSpace.of([3, 3])
    mv33 = moments_from_distribution(random_distribution(space33, rng))
    m = mv33.of_multiset
    assert central_moments(mv33)[(2, 2)] == (
        m((1, 1, 2, 2))
        - 2 * m((1,)) * m((1, 2, 2))
        - 2 * m((2,)) * m((1, 1, 2))
        + m((1, 1)) * m((2,)) ** 2
        + 4 * m((1, 2)) * m((1,)) * m((2,))
        + m((1,)) ** 2 * m((2, 2))
        - 3 * m((1,)) ** 2 * m((2,)) ** 2
    )
    print("[PASS] criterion 5: six formula goldens, coefficient-exact on random input")


def test_c06_vanishing_characterizes_factorization():
    rng = SplitMix64(47)
    space = StateSpace.binary(5)
    candidates = [p for p in all_partitions(5) if 1 < p.num_blocks < 5]
    held = failed = 0
    for trial in range(50):
        pi0 = candidates[rng.randint(0, len(candidates) - 1)]
        factors = [random_distribution(StateSpace.binary(len(b)), rng) for b in pi0.blocks]
        table = {}
        for x in space.states():
            p = Fraction(1)
            for block, factor in zip(pi0.blocks, factors):
                p *= factor.p(tuple(x[i] for i in block))
            table[x] = p
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        lv = to_lcumulants(mv, Family(FULL))
        assert factorizes_over(mv, pi0) and vanishes_outside(lv, pi0)
        held += 1
        bad = dict(table)
        shift = Fraction(1, 101 + trial)
        bad[(0,) * 5] += shift
        bad[(1,) * 5] -= shift
        mv_bad = moments_from_distribution(DiscreteDistribution(space, bad, algebraic=True))
        lv_bad = to_lcumulants(mv_bad, Family(FULL))
        assert not factorizes_over(mv_bad, pi0) and not vanishes_outside(lv_bad, pi0)
        failed += 1
    assert held == failed == 50
    print("[PASS] criterion 6: factorization and vanishing agree on 50 + 50 instances")


def test_c07_semi_invariance_and_the_interval_witness():
    rng = SplitMix64(53)
    space = StateSpace.binary(4)
    mv = moments_from_distribution(random_distribution(space, rng))
    shift = [rng.fraction(17, signed=True) for _ in range(4)]
    shift = [s if s != 0 else Fraction(1, 17) for s in shift]
    for fam in [Family(FULL), Family(NONCROSSING), Family(ONECLUSTER), Family(TREE, caterpillar(4))]:
        report = shift_invariance_check(mv, fam, shift)
        assert report.invariant and report.first_order_ok
    witness = shift_invariance_check(mv, Family(INTERVAL), shift)
    assert not witness.invariant and witness.mismatches
    print(
        "[PASS] criterion 7: higher coordinates shift-invariant for four families; "
        f"interval family violated at index {witness.mismatches[0][0]}"
    )


def test_c08_tensor_transformation_law():
    rng = SplitMix64(59)
    dist = random_distribution(StateSpace.of([2, 2, 3]), rng)
    shapes = [(2, 3), (3, 3)]
    for rows, cols in shapes:
        Q = [[rng.fraction(12, signed=True) for _ in range(cols)] for _ in range(rows)]
        for fam in (Family(FULL), Family(INTERVAL)):
            for order in (1, 2, 3):
                acted = multilinear_action(Q, cumulant_tensor(dist, fam, order))
                direct = cumulant_tensor(linear_image_moments(Q, dist), fam, order, n=rows)
                assert acted.entries == direct.entries
    print("[PASS] criterion 8: contravariant tensor law, 2x3 and 3x3 maps, orders <= 3")


def test_c09_conditional_cumulant_mixtures():
    rng = SplitMix64(61)
    instances = 0
    for n in (3, 4):
        space = StateSpace.binary(n)
        fams = [Family(FULL), Family(INTERVAL), Family(TREE, caterpillar(n))]
        for fam in fams:
            for _ in range(20):
                weights = rng.weights(2)
                dists = [random_distribution(space, rng) for _ in range(2)]
                cond = {
                    y: to_lcumulants(moments_from_distribution(d), fam)
                    for y, d in enumerate(dists)
                }
                out = brillinger(dict(enumerate(weights)), cond, fam)
                mixed_table = {
                    x: weights[0] * dists[0].p(x) + weights[1] * dists[1].p(x)
                    for x in space.states()
                }
                mixed = to_lcumulants(
                    moments_from_distribution(DiscreteDistribution(space, mixed_table)), fam
                )
                assert out.entries == mixed.entries
                assert oracles.brillinger(dict(enumerate(weights)), cond, fam).entries == mixed.entries
                instances += 1
    with pytest.raises(UnsupportedFamilyError):
        brillinger({0: Fraction(1)}, {0: None}, Family(ONECLUSTER))
    assert instances == 120
    print("[PASS] criterion 9: 120 conditional-cumulant mixtures exact; one-cluster rejected")


def test_c10_rank_two_mixture_suite():
    rng = SplitMix64(67)
    for _ in range(5):
        t = rng.fraction(30, signed=True)
        a = tuple(rng.fraction(20, signed=True) for _ in range(4))
        b = tuple(rng.fraction(20, signed=True) for _ in range(4))
        params = SecantParams(t, a, b)
        kv = classical_cumulants(secant_moments(params))
        gap = [bi - ai for ai, bi in zip(a, b)]
        for i, j in itertools.combinations(range(1, 5), 2):
            assert kv.of_multiset((i, j)) == t * (1 - t) * gap[i - 1] * gap[j - 1]
        for i, j, k in itertools.combinations(range(1, 5), 3):
            assert kv.of_multiset((i, j, k)) == t * (1 - t) * (1 - 2 * t) * gap[i - 1] * gap[j - 1] * gap[k - 1]
        quartic = t * (1 - t) * (6 * t**2 - 6 * t + 1)
        for g in gap:
            quartic *= g
        assert kv.of_multiset((1, 2, 3, 4)) == quartic
        one_cluster = t * (1 - t) * (3 * t**2 - 3 * t + 1)
        for g in gap:
            one_cluster *= g
        assert central_moments(secant_moments(params))[(1, 1, 1, 1)] == one_cluster
    binomials = 0
    for n in (4, 5):
        t = rng.probability(24)
        a = tuple(rng.fraction(20) for _ in range(n))
        b = tuple(rng.fraction(20) for _ in range(n))
        params = SecantParams(t, a, b)
        closed = secant_tree_cumulants(params)
        dist = distribution_from_moments(secant_moments(params), algebraic=True)
        assert closed == subset_tree_cumulants(dist, caterpillar(n))
        universe = set(range(1, n + 1))
        for r in range(1, n // 2 + 1):
            for left in itertools.combinations(sorted(universe), r):
                right = tuple(sorted(universe - set(left)))
                if len(left) == len(right) and left > right:
                    continue
                report = split_binomials(closed, [(left, right)])[0]
                assert report.all_zero
                binomials += report.checked
    print(f"[PASS] criterion 10: rank-two mixture coefficients and {binomials} split binomials exact")


def test_c11_latent_tree_suite():
    rng = SplitMix64(71)
    for tree in (quartet(), caterpillar(5)):
        for _ in range(20):
            params = random_gmm_params(tree, rng)
            dist = gmm_distribution(tree, params)
            pipeline = tree_cumulants(moments_from_distribution(dist), tree)
            assert contracted_tree_cumulants(tree, params)[1].entries == pipeline.entries
        params = random_gmm_params(tree, rng)
        dist = gmm_distribution(tree, params)
        for node in tree.inner_nodes():
            retree, reparams = reroot_params(tree, params, node)
            assert gmm_distribution(retree, reparams) == dist
    print("[PASS] criterion 11: latent-tree closed form = pipeline (20 draws each) and rooting invariance")


def test_c12_hidden_chain_suite():
    rng = SplitMix64(73)
    draws = 0
    for n in (2, 3, 4, 5):
        for trial in range(5):
            arities = [2] * n if trial % 2 == 0 else [3 if i % 2 else 2 for i in range(n)]
            params = random_hmm_params(rng, n, arities)
            assert hmm_tree_cumulants_closed(params) == hmm_pipeline_tree_cumulants(params)
            draws += 1
    assert draws == 20
    n = 6
    params = random_hmm_params(rng, n, homogeneous=True)
    closed = hmm_tree_cumulants_closed(params)

    def pairs(gap):
        return [(i, i + gap) for i in range(1, n + 1 - gap)]

    for (i, i2), (j, j2) in itertools.product(pairs(2), repeat=2):
        for (k, k3), (l, l1) in itertools.product(pairs(3), pairs(1)):
            assert closed[(i, i2)] * closed[(j, j2)] == closed[(k, k3)] * closed[(l, l1)]
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        assert closed[(i, j)] * closed[(i, k)] * closed[(j, k)] >= 0
    params4 = random_hmm_params(rng, 4)
    norm = hmm_normalized_tree_cumulants(params4)
    pipe = normalized_tree_cumulants(
        hmm_pipeline_tree_cumulants(params4), params4.observed_variances()
    )
    for support, value in norm.items():
        assert abs(float(value) - float(pipe[support])) < 1e-12
    print("[PASS] criterion 12: hidden-chain closed form exact (20 draws), homogeneous identities exact, float route < 1e-12")
