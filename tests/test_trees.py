import itertools
import random
from fractions import Fraction

import pytest

import oracles
from lcumulants.lattice import ONECLUSTER, TREE, Family, mobius_weights
from lcumulants.moments import (
    DiscreteDistribution,
    StateSpace,
    central_moments,
    moments_from_distribution,
)
from lcumulants.models import gmm_distribution, random_gmm_params
from lcumulants.partition import CapacityError
from lcumulants.rng import SplitMix64
from lcumulants.topology import (
    TreeTopology,
    caterpillar,
    edge_splits,
    from_newick,
    is_caterpillar,
    quartet,
    star,
    to_newick,
)
from lcumulants.trees import (
    GMMParams,
    contracted_tree_cumulants,
    exact_sqrt,
    normalized_tree_cumulants,
    subset_tree_cumulants,
    tree_cumulants,
    trivalent_refinement,
    variances_from_moments,
)
from oracles import all_partitions, build, induced_subtree, is_interval

from conftest import random_distribution
from test_first_blocks import SHAPE_TREES


def _random_tree(rng):
    """A random tree on 2..9 leaves labelled 1..n, rooted or not."""
    n = rng.randint(2, 9)
    edges = [(leaf, "h") for leaf in range(1, min(n, 3) + 1)]
    for leaf in range(4, n + 1):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, f"h{leaf}"), (f"h{leaf}", v), (leaf, f"h{leaf}")]
    for _ in range(rng.choice((0, 0, 1, 2))):
        inner = [e for e in edges if not any(isinstance(v, int) for v in e)]
        if inner:
            u, v = inner[rng.randrange(len(inner))]
            edges = [tuple(u if w == v else w for w in e) for e in edges if e != (u, v)]
    for k in range(rng.choice((0, 0, 1, 2))):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, f"s{k}"), (f"s{k}", v)]
    if rng.random() < 0.1:
        edges.append((rng.choice([w for e in edges for w in e if not isinstance(w, int)]), "x"))
    nodes = sorted({w for e in edges for w in e}, key=str)
    return TreeTopology(edges, root=rng.choice([None, *nodes]))


class TestTopology:
    def test_newick_round_trip(self):
        for tree in [quartet(), caterpillar(5), star(4)]:
            again = from_newick(to_newick(tree))
            assert again.edges == tree.edges

    def test_parse_named_inner_nodes(self):
        tree = from_newick("((1,2)a,(3,4)b)r;")
        assert tree.root == "r"
        assert tree.num_leaves == 4
        assert tree.degree("r") == 2

    def test_caterpillar_shapes(self):
        assert is_caterpillar(caterpillar(4))
        assert is_caterpillar(caterpillar(6))
        assert is_caterpillar(star(3))
        assert not is_caterpillar(star(4))
        assert not is_caterpillar(star(5))

    def test_subdivided_spine_still_counts(self):
        # A chain of degree-2 inner nodes suppresses to the trivalent shape.
        tree = TreeTopology(
            [(1, "a"), (2, "b"), (3, "c"), (4, "d"), ("a", "b"), ("b", "c"), ("c", "d")],
            root="a",
        )
        assert is_caterpillar(tree)
        core = oracles.suppress_degree_two(tree)
        assert all(core.degree(v) == 3 or isinstance(v, int) for v in core.nodes if v != "a")

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_caterpillar_shape_equals_the_suppressed_tree(self, name):
        tree = SHAPE_TREES[name]
        for root in (None, *sorted(tree.nodes, key=str)):
            rooted = TreeTopology([tuple(e) for e in tree.edges], root=root)
            assert is_caterpillar(rooted) == oracles.is_caterpillar(rooted), root

    def test_caterpillar_shape_on_random_trees(self):
        # Leaves inserted on random edges give trivalent trees, caterpillars
        # among them; contracting inner edges adds multifurcations,
        # subdividing edges adds degree-2 nodes, and a few trees keep a
        # named node of degree one.
        rng = random.Random(20240)
        seen = {"caterpillar": 0, "degree two": 0, "multifurcation": 0, "rooted": 0, "named leaf": 0}
        for _ in range(6000):
            tree = _random_tree(rng)
            got = is_caterpillar(tree)
            assert got == oracles.is_caterpillar(tree), tree.edges
            inner_degrees = [tree.degree(v) for v in tree.inner_nodes()]
            seen["caterpillar"] += got
            seen["degree two"] += 2 in inner_degrees
            seen["multifurcation"] += any(d > 3 for d in inner_degrees)
            seen["rooted"] += tree.root is not None
            seen["named leaf"] += 1 in inner_degrees
        assert all(count >= 300 for count in seen.values()), seen
        assert seen["caterpillar"] <= 4000, seen

    def test_induced_subtree_full_set(self):
        q = quartet()
        sub = induced_subtree(q, [1, 2, 3, 4])
        assert sub.edges == q.edges

    def test_induced_subtree_cherry(self):
        sub = induced_subtree(quartet(), [1, 2])
        assert {str(v) for v in sub.nodes} == {"1", "2", "a"}

    def test_induced_subtree_spans_inner_path(self):
        sub = induced_subtree(caterpillar(4), [1, 4])
        assert {str(v) for v in sub.nodes} == {"1", "4", "h1", "h2"}

    def test_edge_splits_quartet(self):
        splits = edge_splits(quartet())
        assert ((1, 2), (3, 4)) in splits
        assert all(len(a) + len(b) == 4 for a, b in splits)


class TestTreePartitionLattices:
    def test_caterpillar4_is_the_known_thirteen(self):
        lat = build(Family(TREE, caterpillar(4)), (1, 2, 3, 4))
        assert len(lat) == 13

    def test_star_matches_one_cluster(self):
        for n in (4, 5):
            st_lat = build(Family(TREE, star(n)), tuple(range(1, n + 1)))
            oc_lat = build(Family(ONECLUSTER), n)
            assert {p.rgs for p in st_lat.elements} == {p.rgs for p in oc_lat.elements}

    def test_pairs_give_two_chains(self):
        lat = build(Family(TREE, quartet()), (2, 3))
        assert len(lat) == 2

    def test_subset_lattice_consistency(self):
        # Restriction of any member to a leaf subset lands in the subset lattice.
        from lcumulants.partition import restrict

        big = build(Family(TREE, caterpillar(5)), (1, 2, 3, 4, 5))
        small = build(Family(TREE, caterpillar(5)), (1, 3, 4))
        positions = [0, 2, 3]
        images = {restrict(p, positions).rgs for p in big.elements}
        assert images == {p.rgs for p in small.elements}

    @pytest.mark.parametrize(
        "tree, spine",
        [(caterpillar(n), tuple(range(1, n + 1))) for n in range(2, 8)]
        + [(from_newick("(3,1,(5,(2,4)h3)h2)h1;"), (3, 1, 5, 2, 4))],
        ids=[f"caterpillar{n}" for n in range(2, 8)] + ["relabelled"],
    )
    def test_caterpillar_weights_are_spine_intervals(self, tree, spine):
        # On a caterpillar the singleton-free tree partitions of a leaf
        # subset are its singleton-free interval partitions in spine order,
        # each with the Boolean weight (-1)^(k-1).
        fam = Family(TREE, tree)
        for r in range(2, len(spine) + 1):
            for support in itertools.combinations(sorted(spine), r):
                got = {
                    frozenset(frozenset(support[j] for j in b) for b in pi.blocks): weight
                    for pi, weight in mobius_weights(fam, support)
                    if all(len(b) > 1 for b in pi.blocks)
                }
                ordered = [leaf for leaf in spine if leaf in support]
                expected = {
                    frozenset(frozenset(ordered[j] for j in b) for b in pi.blocks): (-1) ** (pi.num_blocks - 1)
                    for pi in all_partitions(r)
                    if is_interval(pi) and all(len(b) > 1 for b in pi.blocks)
                }
                assert got == expected, support


def shuffled_caterpillar():
    """Five-leaf caterpillar whose spine order 3,1,5,2,4 is not index order."""
    return from_newick("(3,1,(5,(2,4)h3)h2)h1;")


class TestTreeCumulants:
    @pytest.mark.parametrize(
        "tree_builder",
        [lambda: caterpillar(3), lambda: caterpillar(4), lambda: caterpillar(5), lambda: star(4), lambda: star(5), quartet, shuffled_caterpillar],
    )
    def test_direct_and_central_paths_agree(self, tree_builder, rng):
        tree = tree_builder()
        space = StateSpace.binary(tree.num_leaves)
        mv = moments_from_distribution(random_distribution(space, rng))
        assert tree_cumulants(mv, tree).entries == oracles.tree_cumulants_via_central(mv, tree).entries

    def test_caterpillar4_goldens(self, rng):
        space = StateSpace.binary(4)
        mv = moments_from_distribution(random_distribution(space, rng))
        cm = central_moments(mv)
        tv = tree_cumulants(mv, caterpillar(4))
        for x in space.states():
            if 2 <= sum(x) <= 3:
                assert tv[x] == cm[x]
        assert tv[(1, 1, 1, 1)] == cm[(1, 1, 1, 1)] - cm[(1, 1, 0, 0)] * cm[(0, 0, 1, 1)]

    def test_independent_product_vanishes(self):
        space = StateSpace.binary(4)
        factors = [[Fraction(1, 3), Fraction(2, 3)]] * 4
        mv = moments_from_distribution(DiscreteDistribution.product(space, factors))
        tv = tree_cumulants(mv, caterpillar(4))
        assert all(v == 0 for x, v in tv.entries.items() if sum(x) >= 2)

    def test_subset_variant_matches_binary_vector(self, rng):
        for tree in (caterpillar(4), shuffled_caterpillar()):
            dist = random_distribution(StateSpace.binary(tree.num_leaves), rng)
            tv = tree_cumulants(moments_from_distribution(dist), tree)
            for support, value in subset_tree_cumulants(dist, tree).items():
                assert tv.of_multiset(support) == value

    def test_subset_variant_accepts_wide_alphabets(self, rng):
        space = StateSpace.of([3, 2, 4])
        dist = random_distribution(space, rng)
        out = subset_tree_cumulants(dist, caterpillar(3))
        cov = dist.raw_moment([1, 2]) - dist.raw_moment([1]) * dist.raw_moment([2])
        assert out[(1, 2)] == cov


def snowflake():
    """Balanced trivalent six-leaf tree: three cherries around a hub."""
    return TreeTopology(
        [
            (1, "a"), (2, "a"), (3, "b"), (4, "b"), (5, "c"), (6, "c"),
            ("a", "z"), ("b", "z"), ("c", "z"),
        ],
        root="z",
    )


class TestLatentTreeClosedForm:
    @pytest.mark.parametrize(
        "tree_builder",
        [quartet, lambda: caterpillar(3), lambda: caterpillar(4), lambda: caterpillar(5), snowflake],
    )
    def test_closed_form_equals_pipeline(self, tree_builder, rng):
        tree = tree_builder()
        for _ in range(3):
            params = random_gmm_params(tree, rng)
            dist = gmm_distribution(tree, params)
            pipeline = tree_cumulants(moments_from_distribution(dist), tree)
            assert contracted_tree_cumulants(tree, params)[1].entries == pipeline.entries

    def test_snowflake_is_not_a_caterpillar(self):
        assert not is_caterpillar(snowflake())

    def test_quartet_monomials(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        means = params.node_means(q)
        bar = {v: 1 - 2 * means[v] for v in means}
        eta = params.eta
        tv = contracted_tree_cumulants(q, params)[1]
        quarter = Fraction(1, 4)
        assert tv.of_multiset((1, 2)) == quarter * (1 - bar["a"] ** 2) * eta("a", 1) * eta("a", 2)
        assert tv.of_multiset((1, 3)) == quarter * (1 - bar["a"] ** 2) * eta("a", 1) * eta("a", "b") * eta("b", 3)
        assert tv.of_multiset((3, 4)) == quarter * (1 - bar["b"] ** 2) * eta("b", 3) * eta("b", 4)
        assert tv.of_multiset((1, 2, 3, 4)) == (
            quarter
            * (1 - bar["a"] ** 2)
            * bar["a"]
            * bar["b"]
            * eta("a", 1)
            * eta("a", 2)
            * eta("a", "b")
            * eta("b", 3)
            * eta("b", 4)
        )

    def test_cut_inner_edge_kills_cross_coordinates(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        flat = Fraction(2, 5)
        tables = dict(params.tables)
        tables[("a", "b")] = (flat, flat)  # slope zero across the inner edge
        cut = GMMParams(params.root_dist, tables)
        tv = contracted_tree_cumulants(q, cut)[1]
        for x in StateSpace.binary(4).states():
            support = {i + 1 for i, e in enumerate(x) if e}
            if support & {1, 2} and support & {3, 4}:
                assert tv[x] == 0

    @pytest.mark.parametrize(
        "tree",
        [
            caterpillar(6).rooted_at(1),
            from_newick("((1,2)a,(3,4)b)r;"),  # a degree-2 root
            star(3),
            from_newick("(((1,2)a,(3,4)b)c,((5,6)d,7)e)r;"),
            from_newick("(7,2,(9,(1,(10,(4,(3,(8,(5,(6,11)h9)h8)h7)h6)h5)h4)h3)h2)h1;"),
        ],
        ids=["caterpillar6-leaf-root", "degree-two-root", "star3", "balanced7", "relabelled-caterpillar11"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_span_masks_equal_the_induced_subtrees(self, tree, seed):
        params = random_gmm_params(tree, SplitMix64(seed))
        got = contracted_tree_cumulants(tree, params)[1]
        assert got.entries == oracles.gmm_tree_cumulants_by_subtree(tree, params).entries

    def test_capacity(self, rng):
        q = quartet()
        params = random_gmm_params(q, rng)
        with pytest.raises(CapacityError):
            contracted_tree_cumulants(q, params, capacity=3)[1]
        assert contracted_tree_cumulants(q, params, capacity=None)[1].entries == contracted_tree_cumulants(q, params)[1].entries
        with pytest.raises(CapacityError):
            contracted_tree_cumulants(caterpillar(13), random_gmm_params(caterpillar(13), rng))[1]


class TestContraction:
    def test_refinement_is_trivalent_and_preserves_leaves(self):
        refined, origin = trivalent_refinement(star(5))
        assert refined.is_trivalent()
        assert refined.leaves == (1, 2, 3, 4, 5)
        assert {origin[v] for v in refined.nodes if not isinstance(v, int)} == {"c"}

    def test_star_contraction_matches_mixture_coordinates(self, rng):
        st4 = star(4)
        t = rng.probability(24)
        a = [rng.probability(24) for _ in range(4)]
        b = [rng.probability(24) for _ in range(4)]
        params = GMMParams((1 - t, t), {("c", i + 1): (a[i], b[i]) for i in range(4)})
        refined, tv = contracted_tree_cumulants(st4, params)
        for r in range(2, 5):
            for support in itertools.combinations(range(1, 5), r):
                expected = t * (1 - t) * (1 - 2 * t) ** (r - 2)
                for i in support:
                    expected *= b[i - 1] - a[i - 1]
                assert tv.of_multiset(support) == expected

    def test_contracted_coordinates_come_from_the_same_law(self, rng):
        st5 = star(5)
        params = random_gmm_params(st5, rng)
        refined, tv = contracted_tree_cumulants(st5, params)
        dist = gmm_distribution(st5, params)
        pipeline = tree_cumulants(moments_from_distribution(dist), refined)
        assert tv.entries == pipeline.entries

    def test_contracted_coordinates_equal_the_induced_subtrees(self, rng):
        st5 = star(5)
        params = random_gmm_params(st5, rng)
        refined, tv = contracted_tree_cumulants(st5, params)
        lifted = oracles.lift_params(*trivalent_refinement(st5), params)
        assert tv.entries == oracles.gmm_tree_cumulants_by_subtree(refined, lifted).entries

    def test_degenerate_mixture_collapses(self):
        st4 = star(4)
        a = [Fraction(1, 3)] * 4
        b = [Fraction(3, 4)] * 4
        params = GMMParams((Fraction(1), Fraction(0)), {("c", i + 1): (a[i], b[i]) for i in range(4)})
        _, tv = contracted_tree_cumulants(st4, params)
        assert all(v == 0 for x, v in tv.entries.items() if sum(x) >= 2)


UNRESOLVED_TREES = ["(1,2,3,4,5)c;", "((1,2,3)a,4,(5,6)b)r;", "((1,2,3,4)a,(5,6,7)b)r;", "(1,(2,3,4,5)a,6)r;"]


class TestOnePass:
    """The leaves-up closed form against the per-state loop it replaced."""

    @pytest.mark.parametrize("name", sorted(SHAPE_TREES))
    def test_every_rooting_equals_the_per_state_loop(self, name):
        tree = SHAPE_TREES[name]
        for seed, node in enumerate(sorted(tree.nodes, key=str)):
            rooted = tree.rooted_at(node)
            params = random_gmm_params(rooted, SplitMix64(seed))
            want = oracles.gmm_tree_cumulants_by_states(rooted, params).entries
            _, contracted = contracted_tree_cumulants(rooted, params)
            assert contracted.entries == want, node
            if all(rooted.degree(v) <= 3 for v in rooted.inner_nodes()):
                assert contracted.family == Family(TREE, rooted), node

    def test_childless_inner_node(self):
        # "d" is an inner node with no leaf below it: no span reaches it.
        tree = TreeTopology([(1, "a"), (2, "a"), ("a", "b"), (3, "c"), ("c", "b"), ("c", "d")], root="a")
        for seed in range(3):
            params = random_gmm_params(tree, SplitMix64(seed))
            got = contracted_tree_cumulants(tree, params)[1]
            assert got.entries == oracles.gmm_tree_cumulants_by_states(tree, params).entries
            assert got.entries == oracles.gmm_tree_cumulants_by_subtree(tree, params).entries
            pipeline = tree_cumulants(moments_from_distribution(gmm_distribution(tree, params)), tree)
            assert got.entries == pipeline.entries

    @pytest.mark.parametrize("text", UNRESOLVED_TREES)
    def test_unresolved_tree_without_lifting(self, text):
        tree = from_newick(text)
        for seed, node in enumerate(sorted(tree.nodes, key=str)):
            rooted = tree.rooted_at(node)
            params = random_gmm_params(rooted, SplitMix64(seed))
            refined, got = contracted_tree_cumulants(rooted, params)
            assert got.family == Family(TREE, refined)
            assert got.entries == oracles.gmm_tree_cumulants_by_states(rooted, params).entries, node
            lifted = oracles.lift_params(*trivalent_refinement(rooted), params)
            assert got.entries == oracles.gmm_tree_cumulants_by_subtree(refined, lifted).entries, node


class TestNormalization:
    def test_exact_square_roots(self):
        assert exact_sqrt(Fraction(4, 25)) == Fraction(2, 5)
        assert exact_sqrt(Fraction(1, 2)) is None
        assert exact_sqrt(Fraction(-1, 4)) is None

    def test_unit_variances_change_nothing(self, rng):
        space = StateSpace.binary(3)
        mv = moments_from_distribution(random_distribution(space, rng))
        tv = tree_cumulants(mv, caterpillar(3))
        normalized = normalized_tree_cumulants(tv, [Fraction(1)] * 3)
        for support, value in normalized.items():
            assert value == tv.of_multiset(support)

    def test_pair_value_is_the_correlation(self, rng):
        space = StateSpace.binary(2)
        dist = random_distribution(space, rng)
        variances = variances_from_moments(moments_from_distribution(dist))
        tv = subset_tree_cumulants(dist, caterpillar(2))
        normalized = normalized_tree_cumulants(tv, variances)
        cov = dist.raw_moment([1, 2]) - dist.raw_moment([1]) * dist.raw_moment([2])
        expected = float(cov) / (float(variances[0]) ** 0.5 * float(variances[1]) ** 0.5)
        assert abs(float(normalized[(1, 2)]) - expected) < 1e-12

    def test_symmetric_binary_skewness_vanishes(self):
        space = StateSpace.binary(1)
        dist = DiscreteDistribution.uniform(space)
        mean = dist.raw_moment([1])
        third = dist.expectation(lambda x: (Fraction(x[0]) - mean) ** 3)
        assert third == 0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            normalized_tree_cumulants({(1, 2): Fraction(1)}, [Fraction(0), Fraction(1)])

    def test_variances_from_aliased_moments(self, rng):
        space = StateSpace.of(
            [2, 3], values=[[Fraction(-1), Fraction(2)], [Fraction(0), Fraction(1), Fraction(3)]]
        )
        dist = random_distribution(space, rng)
        mv = moments_from_distribution(dist)
        assert variances_from_moments(mv) == [dist.raw_moment([i, i]) - dist.raw_moment([i]) ** 2 for i in (1, 2)]
