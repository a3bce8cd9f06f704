import itertools
import random
from fractions import Fraction

import pytest

from lcumulants.lattice import FULL, Family
from lcumulants.lcumulant import classical_cumulants, detect_independence_structure, to_lcumulants
from lcumulants.moments import (
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    central_moments,
    moments_from_distribution,
)
from lcumulants.models import (
    _conditionally_independent,
    HMMParams,
    SecantParams,
    binary_regression_identity_check,
    gmm_distribution,
    hmm_distribution,
    hmm_normalized_tree_cumulants,
    hmm_pipeline_tree_cumulants,
    hmm_tree_cumulants_closed,
    random_gmm_params,
    random_hmm_params,
    regression_mean_check,
    reroot_params,
    secant_moments,
    secant_tree_cumulants,
    split_binomials,
)
from lcumulants.partition import CapacityError, SetPartition
from lcumulants.topology import caterpillar, edge_splits, from_newick, quartet, star
from lcumulants.trees import (
    GMMParams,
    contracted_tree_cumulants,
    normalized_tree_cumulants,
    subset_tree_cumulants,
    tree_cumulants,
)

import oracles
from conftest import random_distribution


def star_mixture_params(rng, n=4):
    t = rng.probability(24)
    a = [rng.probability(24) for _ in range(n)]
    b = [rng.probability(24) for _ in range(n)]
    params = GMMParams((1 - t, t), {("c", i + 1): (a[i], b[i]) for i in range(n)})
    return t, a, b, params


class TestLatentTreeDistribution:
    def test_table_sums_to_one(self, rng):
        for tree in (quartet(), caterpillar(5)):
            params = random_gmm_params(tree, rng)
            dist = gmm_distribution(tree, params)
            assert sum(dist.table.values()) == 1

    def test_zero_slopes_give_product_law(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        tables = {
            edge: (row[0], row[0]) for edge, row in params.tables.items()
        }
        flat = GMMParams(params.root_dist, tables)
        dist = gmm_distribution(q, flat)
        mv = moments_from_distribution(dist)
        lv = to_lcumulants(mv, Family(FULL))
        assert detect_independence_structure(lv) == SetPartition.singletons(4)

    def test_star_matches_mixture_chart(self, rng):
        t, a, b, params = star_mixture_params(rng)
        dist = gmm_distribution(star(4), params)
        chart = secant_moments(SecantParams(t, tuple(a), tuple(b)))
        assert moments_from_distribution(dist).entries == chart.entries

    def test_rerooting_preserves_the_law_and_coordinates(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        dist = gmm_distribution(q, params)
        coords = contracted_tree_cumulants(q, params)[1]
        for node in q.inner_nodes():
            retree, reparams = reroot_params(q, params, node)
            assert gmm_distribution(retree, reparams) == dist
            assert contracted_tree_cumulants(retree, reparams)[1].entries == coords.entries


def gmm_distribution_by_enumeration(tree, params):
    """Leaf law summed over all 2^(inner + leaves) joint states; the oracle."""
    parents = tree.parent_map()
    inner = [v for v in tree.nodes if not isinstance(v, int)]
    order = sorted(tree.nodes, key=lambda v: len(tree.path(tree.root, v)))
    n = tree.num_leaves
    space = StateSpace.binary(n)
    table = {x: Fraction(0) for x in space.states()}
    for hidden in itertools.product((0, 1), repeat=len(inner)):
        state = dict(zip(inner, hidden))
        for leaf_assign in itertools.product((0, 1), repeat=n):
            state.update({i + 1: leaf_assign[i] for i in range(n)})
            p = params.root_dist[state[tree.root]]
            for v in order:
                if v == tree.root or p == 0:
                    continue
                row = params.tables[(parents[v], v)]
                p1 = row[state[parents[v]]]
                p *= p1 if state[v] == 1 else 1 - p1
            table[leaf_assign] += p
    return DiscreteDistribution(space, table)


ORACLE_TREES = {
    "quartet": quartet(),
    "caterpillar6": caterpillar(6),
    "relabelled-caterpillar": from_newick("(4,2,(6,(1,(3,5)h4)h3)h2)h1;"),
    "balanced7": from_newick("(((1,2)a,(3,4)b)l,((5,6)c,7)d)r;"),
    "degree-four": from_newick("((1,2)a,3,4,(5,6)b)r;"),
}


class TestUpwardPass:
    """The sum-product GMM law against enumeration of every joint state."""

    @pytest.mark.parametrize("name", ORACLE_TREES)
    def test_matches_enumeration(self, name, rng):
        tree = ORACLE_TREES[name]
        params = random_gmm_params(tree, rng)
        assert gmm_distribution(tree, params) == gmm_distribution_by_enumeration(tree, params)

    @pytest.mark.parametrize("name", ["quartet", "caterpillar6", "relabelled-caterpillar", "degree-four"])
    def test_every_reroot_matches_enumeration(self, name, rng):
        tree = ORACLE_TREES[name]
        params = random_gmm_params(tree, rng)
        dist = gmm_distribution(tree, params)
        for node in sorted(tree.nodes, key=str):
            retree, reparams = reroot_params(tree, params, node)
            redist = gmm_distribution(retree, reparams)
            assert redist == gmm_distribution_by_enumeration(retree, reparams), node
            assert redist == dist, node

    def test_balanced_reroots_keep_the_law(self, rng):
        tree = ORACLE_TREES["balanced7"]
        params = random_gmm_params(tree, rng)
        dist = gmm_distribution(tree, params)
        for node in sorted(tree.nodes, key=str):
            assert gmm_distribution(*reroot_params(tree, params, node)) == dist, node

    @pytest.mark.parametrize("name", ORACLE_TREES)
    def test_tree_rooted_at_a_leaf(self, name, rng):
        # The root leaf has a child, so the pass must not stop at int nodes.
        tree = ORACLE_TREES[name].rooted_at(1)
        params = random_gmm_params(tree, rng)
        assert gmm_distribution(tree, params) == gmm_distribution_by_enumeration(tree, params)


TWELVE_LEAF_TREES = {
    "caterpillar12": caterpillar(12),
    "relabelled-balanced12": from_newick("(((7,2)a,(9,1)b)c,((10,4)d,(3,8)e)f,((5,6)g,(12,11)h)i)r;"),
}


def _same_table(fast, slow):
    """Equal tables in the same key order, held as the same integers."""
    assert list(fast.table.items()) == list(slow.table.items())
    assert fast._ints == slow._ints


class TestIntegerPass:
    """The integer upward pass against the ``Fraction`` pass it replaced."""

    @pytest.mark.parametrize("name", TWELVE_LEAF_TREES)
    def test_twelve_leaves_at_every_rooting(self, name, rng):
        tree = TWELVE_LEAF_TREES[name]
        params = random_gmm_params(tree, rng)
        for node in sorted(tree.nodes, key=str):
            retree, reparams = reroot_params(tree, params, node)
            _same_table(gmm_distribution(retree, reparams), oracles.gmm_distribution_by_fractions(retree, reparams))

    @pytest.mark.parametrize("name", ["quartet", "balanced7", "degree-four"])
    def test_rows_at_zero_and_one(self, name, rng):
        tree = ORACLE_TREES[name]
        drawn = random_gmm_params(tree, rng)
        ends = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
        for root_dist in [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), drawn.root_dist]:
            tables = {edge: ends[k % 4] if k % 3 else row for k, (edge, row) in enumerate(sorted(drawn.tables.items(), key=str))}
            params = GMMParams(root_dist, tables)
            for root in (tree.root, 1):
                retree = tree.rooted_at(root)
                reparams = params if root == tree.root else GMMParams(root_dist, _redirected(retree, tables))
                _same_table(gmm_distribution(retree, reparams), oracles.gmm_distribution_by_fractions(retree, reparams))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_three_level_chain_with_value_maps(self, n, rng):
        drawn = random_hmm_params(rng, n, [3] * n)
        values = [[Fraction(-1, i + 2), Fraction(i, 3), Fraction(2 * i + 3, 5)] for i in range(n)]
        zero = (Fraction(0), *drawn.emissions[0][0][1:-1], drawn.emissions[0][0][0] + drawn.emissions[0][0][-1])
        emissions = ((zero, drawn.emissions[0][1]),) + drawn.emissions[1:]
        params = HMMParams(StateSpace.of([3] * n, values), drawn.initial, drawn.transitions, emissions)
        _same_table(hmm_distribution(params), oracles.hmm_distribution_by_fractions(params))

    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(-3, 7), Fraction(5, 4), 0])
    def test_secant_points_with_signed_means_and_zero_gaps(self, t, rng, monkeypatch):
        import lcumulants.moments

        n = 7
        a = tuple(rng.fraction(24, signed=True) for _ in range(n))
        b = tuple(a[i] if i % 3 == 0 else rng.fraction(20, signed=True) for i in range(n))  # gaps 0 at 1, 4, 7
        params = SecantParams(t, a, b)
        slow = oracles.secant_moments_by_fractions(params)
        expected = classical_cumulants(CoordinateVector(slow.space, slow.system, slow.entries))

        def refuse(*args):
            raise AssertionError("the moments were taken apart again")

        monkeypatch.setattr(lcumulants.moments, "_graded_from_entries", refuse)
        fast = secant_moments(params)
        assert classical_cumulants(fast).entries == expected.entries
        assert list(fast.entries.items()) == list(slow.entries.items())

    def test_checks_run_before_the_pass(self, rng, monkeypatch):
        import lcumulants.models

        def refuse(*args):
            raise AssertionError("the pass ran")

        monkeypatch.setattr(lcumulants.models, "_upward_pass", refuse)
        q = quartet()
        params = random_gmm_params(q, rng)
        for row, error in [((0.25, Fraction(1, 2)), TypeError), ((Fraction(3, 2), Fraction(1, 2)), ValueError)]:
            tables = {**params.tables, ("a", 1): row}
            with pytest.raises(error):
                gmm_distribution(q, GMMParams(params.root_dist, tables))
        with pytest.raises(TypeError):
            gmm_distribution(q, GMMParams((0.5, 0.5), params.tables))
        chain = random_hmm_params(rng, 3)
        with pytest.raises(TypeError):
            hmm_distribution(HMMParams(chain.space, chain.initial, ((0.25, 0.5),) * 2, chain.emissions))
        with pytest.raises(ValueError):
            HMMParams(chain.space, chain.initial, ((Fraction(5, 4), Fraction(1, 2)),) * 2, chain.emissions)
        for t, a in [(Fraction(1, 3), (0.5, Fraction(1))), (0.25, (Fraction(1, 2), Fraction(1)))]:
            with pytest.raises(TypeError):
                secant_moments(SecantParams(t, a, (Fraction(1), Fraction(2))))


def _redirected(tree, tables):
    """Edge tables keyed along the tree's rooting; a flipped edge keeps its row."""
    by_pair = {frozenset(edge): row for edge, row in tables.items()}
    return {(parent, child): by_pair[frozenset((parent, child))] for child, parent in tree.parent_map().items()}


class TestChainAndChartOracles:
    """The HMM law and the mixture moments against their per-state loops, key order included."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_binary_chain(self, n, rng):
        params = random_hmm_params(rng, n)
        fast, slow = hmm_distribution(params), oracles.hmm_distribution_by_states(params)
        assert list(fast.table.items()) == list(slow.table.items())

    @pytest.mark.parametrize("arities", [[3, 2, 4, 2], [2, 5], [4, 3, 2, 3, 2], [3]])
    def test_mixed_arity_chain_with_values_and_a_zero_emission(self, arities, rng):
        drawn = random_hmm_params(rng, len(arities), arities)
        values = [[Fraction(2 * k - 1, k + 2) for k in range(r)] for r in arities]
        dead_level = (Fraction(0),) + tuple(rng.weights(arities[-1] - 1))
        emissions = drawn.emissions[:-1] + ((dead_level, drawn.emissions[-1][1]),)
        params = HMMParams(StateSpace.of(arities, values), drawn.initial, drawn.transitions, emissions)
        fast, slow = hmm_distribution(params), oracles.hmm_distribution_by_states(params)
        assert list(fast.table.items()) == list(slow.table.items())

    @pytest.mark.parametrize("t", [0, 1, "random"])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_secant_points(self, t, n, rng):
        t = rng.fraction(30, signed=True) if t == "random" else t
        ints = tuple(rng.randint(-4, 4) for _ in range(n))
        signed = tuple(rng.fraction(20, signed=True) for _ in range(n))
        for a, b in ((ints, signed), (signed, ints), (signed, signed[::-1])):
            params = SecantParams(t, a, b)
            fast, slow = secant_moments(params), oracles.secant_moments_by_states(params)
            assert list(fast.entries.items()) == list(slow.entries.items())


class TestSecant:
    def test_rank_one_point(self):
        params = SecantParams(Fraction(0), (Fraction(1, 2), Fraction(1, 3)), (Fraction(9), Fraction(9)))
        mv = secant_moments(params)
        assert mv[(1, 1)] == Fraction(1, 2) * Fraction(1, 3)

    def test_constant_third_golden(self):
        params = SecantParams(Fraction(1, 3), (Fraction(0),) * 4, (Fraction(1),) * 4)
        mv = secant_moments(params)
        assert all(v == Fraction(1, 3) for x, v in mv.entries.items() if sum(x) > 0)
        closed = secant_tree_cumulants(params)
        assert closed[(1, 2, 3, 4)] == Fraction(2, 81)
        kv = classical_cumulants(mv)
        assert kv.of_multiset((1, 2, 3, 4)) == Fraction(-2, 27)
        assert kv.of_multiset((1, 3)) == Fraction(2, 9)

    def test_cumulants_match_mixture_formulas(self, rng):
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

    @pytest.mark.parametrize("n", [4, 5])
    def test_closed_form_equals_pipeline(self, n, rng):
        from lcumulants.moments import distribution_from_moments

        t = rng.probability(24)
        a = tuple(rng.fraction(20) for _ in range(n))
        b = tuple(rng.fraction(20) for _ in range(n))
        params = SecantParams(t, a, b)
        dist = distribution_from_moments(secant_moments(params), algebraic=True)
        pipeline = subset_tree_cumulants(dist, caterpillar(n))
        assert secant_tree_cumulants(params) == pipeline

    @pytest.mark.parametrize("n", [2, 5, 12])
    @pytest.mark.parametrize("t", [Fraction(2, 7), Fraction(1, 2), 0, 1, "random"], ids=["2/7", "1/2", "0", "1", "random"])
    def test_star_pass_equals_the_formula(self, t, n, rng):
        # The chart is the star with one hidden node; at t = 1/2 every
        # coordinate of order three or more vanishes, and a zero gap kills
        # every coordinate through its variable.
        t = rng.fraction(30, signed=True) if t == "random" else t
        a = tuple(rng.fraction(20, signed=True) for _ in range(n))
        b = tuple(rng.fraction(20, signed=True) for _ in range(n))
        zero_gap = a[:1] + b[1:]
        for params in (SecantParams(t, a, b), SecantParams(t, a, zero_gap), SecantParams(t, a, a)):
            got, want = secant_tree_cumulants(params), oracles.secant_tree_cumulants(params)
            assert list(got.items()) == list(want.items())
        got = secant_tree_cumulants(SecantParams(t, a, zero_gap))
        assert all(v == 0 for ms, v in got.items() if 1 in ms and len(ms) > 1)
        if t == Fraction(1, 2):
            assert all(v == 0 for ms, v in secant_tree_cumulants(SecantParams(t, a, b)).items() if len(ms) > 2)

    def test_star_pass_equals_pipeline_at_a_half_with_a_zero_gap(self, rng):
        from lcumulants.moments import distribution_from_moments

        a = tuple(rng.fraction(20) for _ in range(5))
        b = (Fraction(0),) + tuple(rng.fraction(20) for _ in range(4))
        params = SecantParams(Fraction(1, 2), (Fraction(0),) + a[1:], b)
        dist = distribution_from_moments(secant_moments(params), algebraic=True)
        assert secant_tree_cumulants(params) == subset_tree_cumulants(dist, caterpillar(5))

    def test_one_cluster_coordinate_is_messier(self, rng):
        t = rng.probability(24)
        a = tuple(rng.fraction(20) for _ in range(4))
        b = tuple(rng.fraction(20) for _ in range(4))
        mv = secant_moments(SecantParams(t, a, b))
        quartic = t * (1 - t) * (3 * t**2 - 3 * t + 1)
        for ai, bi in zip(a, b):
            quartic *= bi - ai
        assert central_moments(mv)[(1, 1, 1, 1)] == quartic

    def test_balanced_mixture_kills_higher_coordinates(self):
        params = SecantParams(Fraction(1, 2), (Fraction(0),) * 4, (Fraction(1),) * 4)
        closed = secant_tree_cumulants(params)
        assert all(v == 0 for ms, v in closed.items() if len(ms) >= 3)


class TestSplitBinomials:
    def test_quartet_model_point_is_rank_one(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(q, params)), q)
        report = split_binomials(tv, [((1, 2), (3, 4))])[0]
        assert report.all_zero
        assert report.checked == 81
        assert report.max_abs_residual == 0

    def test_worked_pairs(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(q, params)), q)
        t = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        assert t[(1, 3)] * t[(2, 4)] - t[(1, 4)] * t[(2, 3)] == 0
        assert t[(1, 2, 3, 4)] * t[(1, 3)] - t[(1, 2, 3)] * t[(1, 3, 4)] == 0

    def test_off_model_point_is_caught(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(q, params)), q)
        values = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        values[(1, 3)] += Fraction(1, 9)
        report = split_binomials(values, [((1, 2), (3, 4))])[0]
        assert not report.all_zero
        assert report.max_abs_residual > 0

    def test_product_point_vanishes_trivially(self):
        space = StateSpace.binary(4)
        factors = [[Fraction(2, 5), Fraction(3, 5)]] * 4
        mv = moments_from_distribution(DiscreteDistribution.product(space, factors))
        tv = tree_cumulants(mv, caterpillar(4))
        report = split_binomials(tv, [((1, 2), (3, 4))])[0]
        assert report.all_zero

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError):
            split_binomials({}, [((1, 2), (2, 3))])[0]


def split_binomials_by_lookup(values, side_a, side_b):
    """Every 2x2 minor with four sorted lookups each; the oracle."""

    def t(*sets):
        return values[tuple(sorted(itertools.chain(*sets)))]

    violations = []
    checked = 0
    subsets_a = [c for r in range(1, len(side_a) + 1) for c in itertools.combinations(side_a, r)]
    subsets_b = [c for r in range(1, len(side_b) + 1) for c in itertools.combinations(side_b, r)]
    for I, I2 in itertools.product(subsets_a, repeat=2):
        for J, J2 in itertools.product(subsets_b, repeat=2):
            residual = t(I, J) * t(I2, J2) - t(I, J2) * t(I2, J)
            checked += 1
            if residual != 0:
                violations.append(((I, J, I2, J2), residual))
    return checked, violations


class TestSplitBinomialMatrix:
    """The flattening-matrix walk against four lookups per minor."""

    @pytest.mark.parametrize("split", [((1, 2), (3, 4, 5)), ((2, 5), (1, 3, 4)), ((1, 3), (2, 4, 5))], ids=str)
    def test_off_model_violations_in_order(self, split, rng):
        values = {
            c: rng.fraction(11, signed=True)
            for r in range(1, 6)
            for c in itertools.combinations(range(1, 6), r)
        }
        report = split_binomials(values, [split])[0]
        checked, violations = split_binomials_by_lookup(values, *split)
        assert violations
        assert (report.checked, report.violations) == (checked, violations)

    def test_model_point_and_perturbed_point(self, rng):
        tree = caterpillar(5)
        tv = tree_cumulants(moments_from_distribution(gmm_distribution(tree, random_gmm_params(tree, rng))), tree)
        values = {tv.space.index_multiset(x): v for x, v in tv.entries.items()}
        for split in edge_splits(tree):
            report = split_binomials(tv, [split])[0]
            assert (report.checked, report.violations) == split_binomials_by_lookup(values, *split)
        values[(2, 4)] += Fraction(1, 7)
        report = split_binomials(values, [((1, 2), (3, 4, 5))])[0]
        assert report.violations
        assert (report.checked, report.violations) == split_binomials_by_lookup(values, (1, 2), (3, 4, 5))


class TestHiddenChainDistribution:
    def test_single_step_is_emission_mixture(self, rng):
        params = random_hmm_params(rng, 1)
        dist = hmm_distribution(params)
        p1 = params.initial[1]
        for level in range(params.space.arities[0]):
            expected = (1 - p1) * params.emissions[0][0][level] + p1 * params.emissions[0][1][level]
            assert dist.p((level,)) == expected

    def test_table_sums_to_one(self, rng):
        params = random_hmm_params(rng, 4, arities=[2, 3, 2, 2])
        assert sum(hmm_distribution(params).table.values()) == 1

    def test_degenerate_chain_rejected(self, rng):
        em = ((tuple(rng.weights(2)), tuple(rng.weights(2))),) * 2
        dead = HMMParams(
            StateSpace.binary(2),
            (Fraction(1), Fraction(0)),
            ((Fraction(0), Fraction(0)),),
            em,
        )
        with pytest.raises(ValueError):
            hmm_distribution(dead)

    def test_invalid_conditional_table_rejected(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        tables = dict(params.tables)
        tables[("a", 1)] = (Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            gmm_distribution(q, GMMParams(params.root_dist, tables))

    def test_constant_transitions_make_observations_independent(self, rng):
        n = 4
        p1 = rng.probability(24)
        a = rng.probability(24)
        em = tuple((tuple(rng.weights(2)), tuple(rng.weights(2))) for _ in range(n))
        params = HMMParams(StateSpace.binary(n), (1 - p1, p1), ((a, a),) * (n - 1), em)
        lv = to_lcumulants(moments_from_distribution(hmm_distribution(params)), Family(FULL))
        assert detect_independence_structure(lv) == SetPartition.singletons(n)


class TestHiddenChainClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_pipeline(self, n, rng):
        for trial in range(4):
            arities = [2] * n if trial % 2 == 0 else [3 if i % 2 else 2 for i in range(n)]
            params = random_hmm_params(rng, n, arities)
            assert hmm_tree_cumulants_closed(params) == hmm_pipeline_tree_cumulants(params)

    def test_pipeline_takes_a_cap(self, rng):
        params = random_hmm_params(rng, 13)
        with pytest.raises(CapacityError, match="size 13 exceeds the cap of 12"):
            hmm_pipeline_tree_cumulants(params)
        assert hmm_pipeline_tree_cumulants(params, capacity=None) == hmm_tree_cumulants_closed(params)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_running_products_equal_the_rebuilt_ones(self, n, rng):
        for params in (
            random_hmm_params(rng, n),
            random_hmm_params(rng, n, [3 if i % 2 else 2 for i in range(n)]),
            random_hmm_params(rng, n, homogeneous=True),
        ):
            got, want = hmm_tree_cumulants_closed(params), oracles.hmm_tree_cumulants_closed(params)
            assert list(got) == list(want)
            assert got == want

    @pytest.mark.parametrize(
        "arities", [[3, 2, 4, 2], [2, 5], [4, 3, 2, 3, 2, 4], [3], [2, 3, 2, 3, 2, 3, 2, 3]]
    )
    def test_chain_pass_with_a_value_map_equals_the_rebuilt_products(self, arities, rng):
        drawn = random_hmm_params(rng, len(arities), arities)
        values = [[Fraction(2 * k - 1, k + 2) for k in range(r)] for r in arities]
        params = HMMParams(StateSpace.of(arities, values), drawn.initial, drawn.transitions, drawn.emissions)
        got, want = hmm_tree_cumulants_closed(params), oracles.hmm_tree_cumulants_closed(params)
        assert list(got.items()) == list(want.items())
        if 2 <= len(arities) <= 6:
            assert got == hmm_pipeline_tree_cumulants(params)

    def test_degenerate_hidden_state_is_refused(self, rng):
        drawn = random_hmm_params(rng, 3)
        stuck = HMMParams(drawn.space, (Fraction(1), Fraction(0)), ((Fraction(0), Fraction(1, 2)),) * 2, drawn.emissions)
        with pytest.raises(ValueError, match="degenerate hidden state"):
            hmm_tree_cumulants_closed(stuck)

    def test_pair_value_factorizes_through_the_chain(self, rng):
        params = random_hmm_params(rng, 4)
        closed = hmm_tree_cumulants_closed(params)
        v = params.hidden_variances()
        c = params.hidden_step_covariances()
        e = params.hidden_observed_covariances()
        # Distant pair: the chain covariance telescopes over skipped steps.
        expected = (c[0] * c[1] * c[2] / (v[1] * v[2])) * e[0] * e[3] / (v[0] * v[3])
        assert closed[(1, 4)] == expected

    def test_normalized_route_against_pipeline(self, rng):
        from lcumulants.moments import within_tolerance

        params = random_hmm_params(rng, 4)
        norm = hmm_normalized_tree_cumulants(params)
        pipe = normalized_tree_cumulants(
            hmm_pipeline_tree_cumulants(params), params.observed_variances()
        )
        for support, value in norm.items():
            assert within_tolerance(value, pipe[support])

    def test_normalized_route_exact_on_square_variances(self):
        initial = (Fraction(1, 2), Fraction(1, 2))
        transitions = ((Fraction(1, 5), Fraction(4, 5)),) * 3
        rows = ((Fraction(4, 5), Fraction(1, 5)), (Fraction(1, 5), Fraction(4, 5)))
        params = HMMParams(StateSpace.binary(4), initial, transitions, (rows,) * 4)
        norm = hmm_normalized_tree_cumulants(params)
        assert all(isinstance(v, Fraction) for v in norm.values())
        pipe = normalized_tree_cumulants(
            hmm_pipeline_tree_cumulants(params), params.observed_variances()
        )
        for support, value in norm.items():
            assert pipe[support] == value

    def test_homogeneous_monomial_parametrization(self):
        # A stationary chain with mean 1/5 has variance 4/25, a rational
        # square, and emissions p(X=1|h) in {1/8, 1/2} keep the observed
        # mean at 1/5 too, so every standard deviation is rational: the
        # normalized coordinate of an index set of size d spanning s steps
        # is exactly b^d rho^s gamma^(d-2) with b = rho = 3/8, gamma = 3/2.
        n = 5
        params = HMMParams(
            StateSpace.binary(n),
            (Fraction(4, 5), Fraction(1, 5)),
            ((Fraction(1, 8), Fraction(1, 2)),) * (n - 1),
            (((Fraction(7, 8), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 2))),) * n,
        )
        norm = hmm_normalized_tree_cumulants(params)
        b = rho = Fraction(3, 8)
        gamma = Fraction(3, 2)
        for support, value in norm.items():
            d = len(support)
            span = support[-1] - support[0]
            assert value == b**d * rho**span * gamma ** (d - 2)

    def test_homogeneous_identities_exact(self, rng):
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

    def test_chain_correlation_telescopes(self, rng):
        params = random_hmm_params(rng, 5)
        m = params.hidden_means()
        v = params.hidden_variances()
        c = params.hidden_step_covariances()
        a01, a11 = params.transitions[0]
        a02, a12 = params.transitions[1]
        p_h3_given_h1_1 = a11 * a12 + (1 - a11) * a02
        cov13 = m[0] * p_h3_given_h1_1 - m[0] * m[2]
        assert cov13 == c[0] * c[1] / v[1]


def _conditional_independence_case(rng):
    """A table over a binary r and two or three blocks, with its build.

    Each slice of r is a product of block weights, random weights or
    empty; a table built independent has no random slice.  Weights of 0
    leave empty cells, and arities are 2 or 3 off r.
    """
    count = rng.choice((3, 3, 4, 4, 5))
    order = rng.sample(range(1, count + 1), count)
    r, blocks = order[0], [order[1:2], order[2:3], order[3:]]
    space = StateSpace.of([2 if v == r else rng.choice((2, 3)) for v in range(1, count + 1)])
    built = rng.random() < 0.5
    while True:
        modes = [rng.choice(("product", "product", "empty") if built else ("product", "random")) for _ in (0, 1)]
        if not built and "random" not in modes:
            continue
        factors = {}
        table = {}
        for x in space.states():
            level = x[r - 1]
            if modes[level] == "random":
                table[x] = rng.randint(0, 4)
            else:
                table[x] = modes[level] == "product"
                for k, block in enumerate(blocks):
                    key = (level, k, tuple(x[v - 1] for v in block))
                    table[x] *= factors.setdefault(key, rng.randint(0, 3))
        total = sum(table.values())
        if total:
            return DiscreteDistribution(space, {x: Fraction(w, total) for x, w in table.items()}), blocks, r, built


class TestConditionalIndependence:
    def test_block_marginals_equal_the_conditional_table_rescan(self):
        rng = random.Random(3)
        independent = built = 0
        for _ in range(1000):
            dist, blocks, r, was_built = _conditional_independence_case(rng)
            got = _conditionally_independent(dist, blocks, r)
            assert got == oracles.conditionally_independent(dist, blocks, r), (dist.table, blocks, r)
            assert got or not was_built
            independent += got
            built += was_built
        assert 400 <= built <= 600
        assert built <= independent <= built + 100


class TestRegressionIdentities:
    @pytest.fixture
    def star_model(self, rng):
        # Three observed children of an observed binary regressor.
        pr = rng.probability(24)
        rows = {v: (tuple(rng.weights(2)), tuple(rng.weights(2))) for v in (1, 2, 3)}
        space = StateSpace.binary(4)
        table = {}
        for x in space.states():
            p = pr if x[3] == 1 else 1 - pr
            for v in (1, 2, 3):
                p *= rows[v][x[3]][x[v - 1]]
            table[x] = p
        return DiscreteDistribution(space, table)

    def test_identity_holds_with_block(self, star_model):
        report = binary_regression_identity_check(star_model, 1, 2, (3,), 4)
        assert report.applicable
        assert report.residual == 0

    def test_identity_holds_with_empty_block(self, star_model):
        report = binary_regression_identity_check(star_model, 1, 2, (), 4)
        assert report.applicable
        assert report.residual == 0

    def test_violated_premise_reported(self, star_model):
        table = dict(star_model.table)
        table[(0, 0, 0, 0)] += Fraction(1, 40)
        table[(1, 1, 1, 1)] -= Fraction(1, 40)
        bad = DiscreteDistribution(star_model.space, table, algebraic=True)
        report = binary_regression_identity_check(bad, 1, 2, (3,), 4)
        assert not report.applicable
        assert report.residual != 0

    def test_conditional_mean_is_linear_in_binary_regressor(self, star_model):
        assert regression_mean_check(star_model, 1, 4) == 0

    def test_conditional_mean_linear_on_any_table(self, rng):
        # Linearity in a binary regressor is distribution-free.
        dist = random_distribution(StateSpace.of([3, 2]), rng)
        assert regression_mean_check(dist, 1, 2) == 0

    def test_perfectly_coupled_child(self, rng):
        # A child equal to the regressor has slope one.
        pr = rng.probability(24)
        space = StateSpace.binary(2)
        table = {
            (0, 0): 1 - pr,
            (1, 1): pr,
            (0, 1): Fraction(0),
            (1, 0): Fraction(0),
        }
        dist = DiscreteDistribution(space, table)
        var = dist.raw_moment([2, 2]) - dist.raw_moment([2]) ** 2
        cov = dist.raw_moment([1, 2]) - dist.raw_moment([1]) * dist.raw_moment([2])
        assert cov / var == 1
