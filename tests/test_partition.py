import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcumulants.partition import (
    CapacityError,
    SetPartition,
    format_partition,
    join,
    meet,
    parse_partition,
    refines,
    restrict,
)
from oracles import all_partitions, bell_number, is_interval, is_noncrossing, is_one_cluster


def bell_oracle(n: int) -> int:
    """Independent Bell-number recurrence over binomial coefficients."""
    from math import comb

    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m - 1, k) * values[k] for k in range(m)))
    return values[n]


def partitions_by_insertion(d: int):
    """Independent enumeration: insert element d into every block or alone."""
    if d == 1:
        yield ((0,),)
        return
    for smaller in partitions_by_insertion(d - 1):
        for i, block in enumerate(smaller):
            yield smaller[:i] + (block + (d - 1,),) + smaller[i + 1 :]
        yield smaller + ((d - 1,),)


class TestEnumeration:
    def test_single_element(self):
        assert [str(p) for p in all_partitions(1)] == ["1"]

    def test_three_elements_exact_order(self):
        assert [str(p) for p in all_partitions(3)] == ["1|2|3", "12|3", "13|2", "1|23", "123"]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_counts_match_bell(self, d):
        parts = all_partitions(d)
        assert len(parts) == bell_oracle(d) == bell_number(d)
        assert len({p.rgs for p in parts}) == len(parts)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_insertion_oracle(self, d):
        via_insertion = {
            SetPartition.from_blocks(blocks, size=d).rgs for blocks in partitions_by_insertion(d)
        }
        assert {p.rgs for p in all_partitions(d)} == via_insertion

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            all_partitions(13)

    def test_capacity_override(self):
        # No enumeration materialized here, just the gate logic for d=13
        # would be huge; check that a raised cap unlocks a small-but-gated d.
        assert len(all_partitions(5, capacity=5)) == 52
        with pytest.raises(CapacityError):
            all_partitions(6, capacity=5)

    def test_bad_rgs_rejected(self):
        with pytest.raises(ValueError):
            SetPartition((1, 0))
        with pytest.raises(ValueError):
            SetPartition((0, 2))
        with pytest.raises(ValueError):
            SetPartition(())


class TestOrder:
    def test_refinement_example(self):
        pi = parse_partition("13|4|25")
        nu = parse_partition("1235|4")
        assert refines(pi, nu)
        assert not refines(nu, pi)

    def test_reflexive(self):
        for p in all_partitions(4):
            assert refines(p, p)

    def test_incomparable_pair(self):
        assert not refines(parse_partition("12|3"), parse_partition("13|2"))

    def test_partial_order_axioms_exhaustive(self):
        parts = all_partitions(5)
        leq = {(p.rgs, q.rgs) for p in parts for q in parts if refines(p, q)}
        for p in parts:
            assert (p.rgs, p.rgs) in leq
        for a, b in leq:
            if a != b:
                assert (b, a) not in leq
        below = {}
        for a, b in leq:
            below.setdefault(a, set()).add(b)
        for a in below:
            for b in below[a]:
                assert below[b] <= below[a]

    def test_mismatched_ground_sets(self):
        with pytest.raises(ValueError):
            refines(parse_partition("12"), parse_partition("1|2|3"))


class TestMeetJoin:
    def test_meet_golden(self):
        assert str(meet(parse_partition("12|3"), parse_partition("13|2"))) == "1|2|3"

    def test_join_golden(self):
        assert str(join(parse_partition("12|3"), parse_partition("1|23"))) == "123"

    def test_idempotent(self):
        for p in all_partitions(4):
            assert meet(p, p) == p
            assert join(p, p) == p

    def test_lattice_axioms_exhaustive_d4(self):
        parts = all_partitions(4)
        for p, q in itertools.product(parts, repeat=2):
            assert meet(p, q) == meet(q, p)
            assert join(p, q) == join(q, p)
            assert meet(p, join(p, q)) == p
            assert join(p, meet(p, q)) == p
        for p, q, r in itertools.islice(itertools.product(parts, repeat=3), 0, None, 7):
            assert meet(meet(p, q), r) == meet(p, meet(q, r))
            assert join(join(p, q), r) == join(p, join(q, r))

    def test_meet_is_greatest_lower_bound(self):
        parts = all_partitions(4)
        for p, q in itertools.product(parts, repeat=2):
            m = meet(p, q)
            assert refines(m, p) and refines(m, q)
            for r in parts:
                if refines(r, p) and refines(r, q):
                    assert refines(r, m)

    def test_join_is_least_upper_bound(self):
        parts = all_partitions(4)
        for p, q in itertools.product(parts, repeat=2):
            j = join(p, q)
            assert refines(p, j) and refines(q, j)
            for r in parts:
                if refines(p, r) and refines(q, r):
                    assert refines(j, r)


class TestRestrict:
    def test_golden(self):
        assert str(restrict(parse_partition("1235|4"), [0, 3])) == "1|2"

    def test_single_block_stays_single(self):
        assert str(restrict(parse_partition("123"), [1, 2])) == "12"

    def test_singletons(self):
        p = SetPartition.singletons(4)
        assert restrict(p, [0, 2, 3]) == SetPartition.singletons(3)

    def test_composition(self):
        for p in all_partitions(5):
            outer = [0, 1, 3, 4]
            inner_in_outer = [0, 2, 3]  # positions within the restricted set
            once = restrict(restrict(p, outer), inner_in_outer)
            direct = restrict(p, [outer[i] for i in inner_in_outer])
            assert once == direct

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            restrict(parse_partition("12|3"), [])


class TestPredicates:
    @pytest.mark.parametrize(
        "text,expected",
        [("13|24", False), ("14|23", True), ("1|2|3|4", True), ("1234", True), ("134|2", True)],
    )
    def test_noncrossing(self, text, expected):
        assert is_noncrossing(parse_partition(text)) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [("12|34", True), ("13|2|4", False), ("1234", True), ("1|2|3|4", True), ("14|23", False)],
    )
    def test_interval(self, text, expected):
        assert is_interval(parse_partition(text)) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [("134|2", True), ("12|34", False), ("1|2|3|4", True), ("1234", True)],
    )
    def test_one_cluster(self, text, expected):
        assert is_one_cluster(parse_partition(text)) is expected

    def test_interval_implies_noncrossing_up_to_six(self):
        for d in range(1, 7):
            for p in all_partitions(d):
                if is_interval(p):
                    assert is_noncrossing(p)


class TestNotation:
    def test_round_trip_small(self):
        for d in range(1, 6):
            for p in all_partitions(d):
                assert parse_partition(format_partition(p), size=d) == p

    def test_round_trip_wide_ground_set(self):
        p = SetPartition.from_blocks([[0, 9, 10], [1, 11], list(range(2, 9))], size=12)
        text = format_partition(p)
        assert "," in text
        assert parse_partition(text, size=12) == p

    def test_parse_non_canonical_spelling(self):
        # Blocks may arrive in any order; the canonical form sorts by minimum.
        assert format_partition(parse_partition("3|24|1")) == "1|24|3"

    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, d, pick):
        parts = all_partitions(d)
        p = parts[pick % len(parts)]
        assert parse_partition(format_partition(p), size=d) == p
