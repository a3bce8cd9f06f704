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
    check_condition,
    mobius_weights,
)
from lcumulants.partition import (
    SetPartition,
    parse_partition,
    refines,
    restrict,
)
from lcumulants.rng import SplitMix64
from lcumulants.topology import caterpillar, from_newick, quartet, star
from oracles import build, custom_lattice

FAMILIES_AT = {
    FULL: lambda n: Family(FULL),
    NONCROSSING: lambda n: Family(NONCROSSING),
    INTERVAL: lambda n: Family(INTERVAL),
    ONECLUSTER: lambda n: Family(ONECLUSTER),
    TREE: lambda n: Family(TREE, caterpillar(n)),
}


def build_at(kind: str, n: int):
    fam = FAMILIES_AT[kind](n)
    ground = tuple(range(1, n + 1)) if kind == TREE else n
    return build(fam, ground)


class TestCounts:
    @pytest.mark.parametrize(
        "kind,n,count",
        [
            (FULL, 3, 5),
            (FULL, 4, 15),
            (NONCROSSING, 4, 14),
            (INTERVAL, 4, 8),
            (ONECLUSTER, 4, 12),
            (TREE, 4, 13),
        ],
    )
    def test_element_counts(self, kind, n, count):
        assert len(build_at(kind, n)) == count

    def test_caterpillar4_exact_elements(self):
        lat = build_at(TREE, 4)
        expected = {
            "1234",
            "1|234", "134|2", "12|34", "124|3", "123|4",
            "1|2|34", "1|24|3", "1|23|4", "14|2|3", "13|2|4", "12|3|4",
            "1|2|3|4",
        }
        assert {str(p) for p in lat.elements} == expected

    def test_four_star_equals_one_cluster(self):
        st_lat = build(Family(TREE, star(4)), (1, 2, 3, 4))
        oc_lat = build_at(ONECLUSTER, 4)
        assert {p.rgs for p in st_lat.elements} == {p.rgs for p in oc_lat.elements}

    def test_two_leaf_subsets_give_chains(self):
        for subset in [(1, 2), (1, 3), (2, 4)]:
            lat = build(Family(TREE, quartet()), subset)
            assert len(lat) == 2

    def test_bounds_present(self):
        for kind in FAMILIES_AT:
            lat = build_at(kind, 4)
            assert lat.bottom == SetPartition.singletons(4)
            assert lat.top == SetPartition.one_block(4)

    def test_tree_family_rejects_foreign_labels(self):
        with pytest.raises(ValueError):
            build(Family(TREE, quartet()), (1, 2, 5))

    def test_capacity_error_propagates(self):
        from lcumulants.partition import CapacityError

        with pytest.raises(CapacityError):
            build(Family(FULL), 13)


class TestMobius:
    def test_full_bottom_to_top_is_two(self):
        lat = build_at(FULL, 3)
        assert lat.mobius_to_top(SetPartition.singletons(3)) == 2

    def test_interval_bottom_to_top_is_one(self):
        lat = build_at(INTERVAL, 3)
        assert lat.mobius_to_top(SetPartition.singletons(3)) == 1

    def test_one_cluster_bottom_value(self):
        lat = build_at(ONECLUSTER, 4)
        assert lat.mobius_to_top(SetPartition.singletons(4)) == -3

    @pytest.mark.parametrize("n,signed_catalan", [(2, -1), (3, 2), (4, -5), (5, 14), (6, -42)])
    def test_noncrossing_bottom_values_are_signed_catalans(self, n, signed_catalan):
        lat = build_at(NONCROSSING, n)
        assert lat.mobius_to_top(SetPartition.singletons(n)) == signed_catalan

    def test_reflexive_value(self):
        lat = build_at(NONCROSSING, 4)
        for p in lat.elements:
            assert lat.mobius(p, p) == 1

    def test_incomparable_rejected(self):
        lat = build_at(FULL, 3)
        with pytest.raises(ValueError):
            lat.mobius(parse_partition("12|3"), parse_partition("13|2"))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_closed_forms_match_recursion(self, d):
        lat = build_at(FULL, d)
        for p in lat.elements:
            b = p.num_blocks
            assert lat.mobius_to_top(p) == (-1) ** (b - 1) * math.factorial(b - 1)
        lat = build_at(INTERVAL, d)
        for p in lat.elements:
            assert lat.mobius_to_top(p) == (-1) ** (p.num_blocks - 1)
        lat = build_at(ONECLUSTER, d)
        for p in lat.elements:
            if d > 1 and p.num_blocks == d:
                assert lat.mobius_to_top(p) == (-1) ** (d - 1) * (d - 1)
            else:
                assert lat.mobius_to_top(p) == (-1) ** (p.num_blocks - 1)

    @pytest.mark.parametrize("kind", list(FAMILIES_AT))
    def test_interval_sums_are_delta(self, kind):
        lat = build_at(kind, 4)
        for lo in lat.elements:
            for hi in lat.elements:
                if not refines(lo, hi):
                    continue
                total = sum(lat.mobius(lo, mid) for mid in lat.interval(lo, hi))
                assert total == (1 if lo == hi else 0)

    @pytest.mark.parametrize("kind", [FULL, INTERVAL])
    @pytest.mark.parametrize("d", range(2, 6))
    def test_blockwise_product_formula(self, kind, d):
        lat = build_at(kind, d)
        subs = {}
        for hi in lat.elements:
            for lo in lat.elements:
                if not refines(lo, hi):
                    continue
                product = 1
                for block in hi.blocks:
                    if len(block) not in subs:
                        subs[len(block)] = build_at(kind, len(block))
                    sub = subs[len(block)]
                    product *= sub.mobius(restrict(lo, block), restrict(hi, block))
                assert lat.mobius(lo, hi) == product

    def test_interval_moebius_is_intrinsic(self):
        # The Moebius value of a pair depends only on the order between
        # them: recomputing it from scratch on the interval sub-poset must
        # reproduce the big lattice's values.
        lat = build_at(NONCROSSING, 4)
        for lo in lat.elements:
            for hi in lat.elements:
                if not refines(lo, hi):
                    continue
                inside = lat.interval(lo, hi)
                local: dict[tuple[int, ...], int] = {}
                for mid in inside:  # enumeration order refines the poset order
                    if mid == lo:
                        local[mid.rgs] = 1
                    else:
                        local[mid.rgs] = -sum(
                            local[q.rgs] for q in inside if refines(q, mid) and q != mid
                        )
                # local now holds m(lo, .) on the sub-poset; compare the top.
                assert local[hi.rgs] == lat.mobius(lo, hi)

    @pytest.mark.parametrize("kind", list(FAMILIES_AT))
    def test_mobius_inversion_round_trip(self, kind):
        lat = build_at(kind, 4)
        rng = SplitMix64(2024)
        f = {p.rgs: rng.fraction(37, signed=True) for p in lat.elements}
        g = {
            p.rgs: sum((f[q.rgs] for q in lat.elements if refines(q, p)), Fraction(0))
            for p in lat.elements
        }
        for p in lat.elements:
            recovered = sum(
                (lat.mobius(q, p) * g[q.rgs] for q in lat.elements if refines(q, p)),
                Fraction(0),
            )
            assert recovered == f[p.rgs]


class TestMobiusWeights:
    """The order-free weights against the lattice's own Moebius recursion."""

    @staticmethod
    def oracle(fam, ground):
        lat = build(fam, ground)
        return tuple((p, lat.mobius_to_top(p)) for p in lat.elements)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("kind", [FULL, NONCROSSING, INTERVAL, ONECLUSTER])
    def test_size_indexed_families(self, kind, n):
        assert mobius_weights(Family(kind), n) == self.oracle(Family(kind), n)

    @pytest.mark.parametrize(
        "newick",
        [
            "((1,2)a,((3,4)c,(5,6)d)b)r;",
            "(3,1,(5,(2,4)h3)h2)h1;",
            "(((4,1)x,(7,3)y)u,((2,6)z,5)w)r;",
        ],
    )
    def test_every_leaf_subset_of_a_tree(self, newick):
        fam = Family(TREE, from_newick(newick))
        for r in range(1, fam.tree.num_leaves + 1):
            for support in itertools.combinations(fam.tree.leaves, r):
                assert mobius_weights(fam, support) == self.oracle(fam, support), support

    def test_ground_given_as_labels_or_size(self):
        assert mobius_weights(Family(FULL), (2, 5, 7)) == mobius_weights(Family(FULL), 3)


class TestClosureAndMeet:
    def test_tree_closure_of_excluded_pairings(self):
        # Neither 13|24 nor 14|23 is induced by the four-leaf caterpillar;
        # the only element above either one is the top.
        lat = build(Family(TREE, caterpillar(4)), (1, 2, 3, 4))
        assert str(lat.closure(parse_partition("13|24"))) == "1234"
        assert str(lat.closure(parse_partition("14|23"))) == "1234"

    def test_closure_of_member_is_itself(self):
        lat = build_at(ONECLUSTER, 4)
        for p in lat.elements:
            assert lat.closure(p) == p

    def test_interval_closure(self):
        lat = build_at(INTERVAL, 3)
        assert str(lat.closure(parse_partition("13|2"))) == "123"

    def test_meet_goldens(self):
        nc = build_at(NONCROSSING, 4)
        assert str(nc.meet(parse_partition("12|34"), parse_partition("14|23"))) == "1|2|3|4"
        tr = build(Family(TREE, caterpillar(4)), (1, 2, 3, 4))
        assert str(tr.meet(parse_partition("1|234"), parse_partition("123|4"))) == "1|23|4"

    def test_meet_with_top(self):
        lat = build_at(FULL, 4)
        for p in lat.elements:
            assert lat.meet(p, lat.top) == p

    @pytest.mark.parametrize("kind", list(FAMILIES_AT))
    def test_meet_agrees_with_common_refinement(self, kind):
        from lcumulants.partition import meet as full_meet

        lat = build_at(kind, 4)
        for p, q in itertools.product(lat.elements, repeat=2):
            assert lat.meet(p, q) == full_meet(p, q)


class TestWeisner:
    def test_full_golden(self):
        lat = build_at(FULL, 3)
        assert lat.weisner_sum(parse_partition("1|23"), SetPartition.singletons(3)) == 0

    def test_interval_golden(self):
        lat = build_at(INTERVAL, 4)
        assert lat.weisner_sum(parse_partition("12|3|4"), SetPartition.singletons(4)) == 0

    def test_tree_golden(self):
        lat = build(Family(TREE, caterpillar(4)), (1, 2, 3, 4))
        assert lat.weisner_sum(parse_partition("12|34"), SetPartition.singletons(4)) == 0

    def test_top_rejected(self):
        lat = build_at(FULL, 3)
        with pytest.raises(ValueError):
            lat.weisner_sum(lat.top, lat.bottom)

    @pytest.mark.parametrize("kind", list(FAMILIES_AT))
    def test_all_fibers_vanish_d4(self, kind):
        lat = build_at(kind, 4)
        for pi0 in lat.elements:
            if pi0 == lat.top:
                continue
            for delta in lat.elements:
                assert lat.weisner_sum(pi0, delta) == 0


class TestConditions:
    def test_interval_fails_singleton_splits(self):
        report = check_condition(Family(INTERVAL), "C1", 3)
        assert report.holds is False
        assert "13|2" in report.witness  # the split separating the middle element

    @pytest.mark.parametrize("kind", [FULL, NONCROSSING, ONECLUSTER])
    def test_others_satisfy_singleton_splits(self, kind):
        assert check_condition(Family(kind), "C1", 4).holds is True

    def test_tree_satisfies_singleton_splits(self):
        assert check_condition(Family(TREE, caterpillar(4)), "C1", 4).holds is True

    @pytest.mark.parametrize("kind", list(FAMILIES_AT))
    def test_interval_factorization_holds_everywhere(self, kind):
        fam = FAMILIES_AT[kind](4)
        assert check_condition(fam, "C0", 4).holds is True

    def test_full_coarsening_condition_holds(self):
        assert check_condition(Family(FULL), "C3", 4).holds is True

    def test_interval_coarsening_condition_holds(self):
        assert check_condition(Family(INTERVAL), "C3", 4).holds is True

    def test_one_cluster_coarsening_condition_fails(self):
        report = check_condition(Family(ONECLUSTER), "C3", 4)
        assert report.holds is False
        assert report.witness

    def test_noncrossing_coarsening_condition_fails(self):
        assert check_condition(Family(NONCROSSING), "C3", 4).holds is False

    def test_size_isomorphism_condition(self):
        assert check_condition(Family(NONCROSSING), "C2", 4).holds is True
        assert check_condition(Family(TREE, caterpillar(5)), "C2", 5).holds is True

    def test_above_limit_reports_unchecked(self):
        report = check_condition(Family(FULL), "C1", 9)
        assert report.holds is None
        with pytest.raises(ValueError):
            bool(report)

    def test_wide_tree_reports_unchecked_not_true(self):
        # A six-leaf tree cannot be verified at size four; that must not
        # silently read as a pass.
        report = check_condition(Family(TREE, caterpillar(6)), "C0", 4)
        assert report.holds is None
        assert "6" in report.witness


CONDITION_TREES = {
    **{f"caterpillar{k}": caterpillar(k) for k in range(3, 7)},
    "hub5": from_newick("(1,2,3,(4,5)a)r;"),
    "degree-four": from_newick("((1,2)a,3,4,(5,6)b)r;"),
    "snowflake": from_newick("((1,2)a,(3,4)b,(5,6)c)r;"),
    "relabelled-snowflake": from_newick("((1,4)a,(2,6)b,(3,5)c)r;"),
    "relabelled-caterpillar6": from_newick("(2,3,(1,(6,(5,4)h4)h3)h2)h1;"),
}


class TestConditionsAgainstTheOracle:
    """C0..C3 on the element lists against the explicit lattices they replaced."""

    @pytest.mark.parametrize("which", ["C0", "C1", "C2", "C3"])
    @pytest.mark.parametrize("max_size", range(1, 7))
    @pytest.mark.parametrize("kind", [FULL, NONCROSSING, INTERVAL, ONECLUSTER])
    def test_size_indexed_families(self, kind, max_size, which):
        report = check_condition(Family(kind), which, max_size)
        assert (report.holds, report.witness) == oracles.check_condition(Family(kind), which, max_size)

    @pytest.mark.parametrize("which", ["C0", "C1", "C2", "C3"])
    @pytest.mark.parametrize("name", sorted(CONDITION_TREES))
    def test_trees(self, name, which):
        fam = Family(TREE, CONDITION_TREES[name])
        report = check_condition(fam, which, fam.tree.num_leaves)
        assert (report.holds, report.witness) == oracles.check_condition(fam, which, fam.tree.num_leaves)

    def test_no_lattice_order_is_built(self, no_lattice_order):
        for fam in [Family(FULL), Family(NONCROSSING), Family(TREE, caterpillar(5))]:
            for which in ["C0", "C1", "C2", "C3"]:
                assert check_condition(fam, which, 5).holds is not None


class TestCustomLattices:
    def test_valid_subset_accepted(self):
        elements = [
            SetPartition.singletons(4),
            parse_partition("12|3|4"),
            parse_partition("12|34"),
            SetPartition.one_block(4),
        ]
        lat = custom_lattice(elements)
        assert len(lat) == 4
        assert lat.mobius_to_top(SetPartition.singletons(4)) == 0

    def test_missing_bottom_rejected(self):
        with pytest.raises(ValueError):
            custom_lattice([parse_partition("12|3"), SetPartition.one_block(3)])

    def test_ambiguous_meet_rejected(self):
        # Two coatom-like elements above two incomparable atoms, with their
        # join removed: the common lower bounds have two maximal elements.
        elements = [
            SetPartition.singletons(5),
            parse_partition("12|3|4|5"),
            parse_partition("13|2|4|5"),
            parse_partition("1234|5"),
            parse_partition("123|45"),
            SetPartition.one_block(5),
        ]
        with pytest.raises(ValueError):
            custom_lattice(elements)


class TestSerialization:
    def test_json_dump_shape(self):
        lat = build_at(FULL, 3)
        data = lat.to_json()
        assert data["ground_size"] == 3
        assert data["mobius_to_top"] == ["2", "-1", "-1", "-1", "1"]
        assert data["partitions"][0] == "1|2|3"
        assert len(data["elements"]) == 5


class TestConcurrentMobiusCache:
    def test_parallel_reads_agree_with_serial(self):
        # The memo table is filled idempotently, so concurrent readers may
        # duplicate work but must agree with a cold serial computation.
        from concurrent.futures import ThreadPoolExecutor

        serial = build_at(FULL, 5)
        expected = {p.rgs: serial.mobius_to_top(p) for p in serial.elements}
        shared = build_at(FULL, 5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(shared.mobius_to_top, p)
                for _ in range(4)
                for p in shared.elements
            ]
            results = [f.result() for f in futures]
        values = {p.rgs: shared.mobius_to_top(p) for p in shared.elements}
        assert values == expected
        assert all(isinstance(v, int) for v in results)
