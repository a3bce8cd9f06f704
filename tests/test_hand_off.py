"""The integer forms handed from one transform to the next.

Each transform keeps the integers it computed with the vector or table it
returns, and the next transform reads them.  A vector rebuilt through
``to_json``/``from_json`` carries no integer form, so it derives one from
its Fractions.  Both routes must give the same Fractions, and the form
must stay out of the value: ``==``, ``repr`` and ``to_json``.

A vector the library computes builds its ``entries`` from its form on the
first read, so a chained round trip never builds the moment vectors it
passes through.  Read or not, its value is that of the vector built with
every entry at once (``oracles.eager_vectors``).
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import oracles
from lcumulants.lattice import FULL, INTERVAL, NONCROSSING, ONECLUSTER, TREE, Family
from lcumulants.lcumulant import classical_cumulants, from_lcumulants, to_lcumulants
from lcumulants.moments import (
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _invert,
    _shift_matrix,
    _vandermonde,
    central_moments,
    distribution_from_moments,
    moments_from_distribution,
    transform_values,
)
from lcumulants.topology import caterpillar, from_newick
from lcumulants.trees import _singleton_free_sums

from conftest import random_distribution
from test_integer_kernels import unit

HAND_OFF_BOXES = [(2,) * 6, (3, 3, 2, 2), (4, 3, 2)]
TREE_FAMILIES = [Family(TREE, caterpillar(6)), Family(TREE, from_newick("(4,2,(6,(1,(3,5)h4)h3)h2)h1;"))]
FAMILIES = [Family(kind) for kind in (FULL, NONCROSSING, INTERVAL, ONECLUSTER)] + TREE_FAMILIES
CASES = [(box, fam) for box in HAND_OFF_BOXES for fam in FAMILIES if fam.size_indexed or set(box) == {2}]


def _space(box, values):
    """The box with the default value maps, or with distinct rational ones."""
    if values == "default":
        return StateSpace.of(box)
    return StateSpace.of(box, [[Fraction(3 * k - 2, k + 3) for k in range(r)] for r in box])


def rebuilt(vec):
    """The vector read back from its JSON, which carries no integer form."""
    out = CoordinateVector.from_json(vec.to_json(), family=vec.family)
    assert "_form" not in out.__dict__
    return out


def assert_same(got, want):
    """Same states in the same order, each value the same Fraction."""
    assert list(got) == list(want)
    assert all(type(v) is Fraction for v in got.values())
    assert dict(got) == dict(want)


def _affine(n):
    """A rational scale and shift per variable, none of them the identity."""
    return [Fraction(2 - k, 3 + k) or Fraction(1, 7) for k in range(n)], [Fraction(k + 1, 5) for k in range(n)]


@pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
@pytest.mark.parametrize("values", ["default", "rational"])
@pytest.mark.parametrize("box, fam", CASES, ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_chained_route_equals_the_rebuilt_route(box, fam, values, signed, rng):
    space = _space(box, values)
    dist = random_distribution(space, rng, algebraic=signed)
    mv = moments_from_distribution(dist)
    assert_same(mv.entries, moments_from_distribution(DiscreteDistribution.from_json(dist.to_json())).entries)
    lv = to_lcumulants(mv, fam, capacity=None)
    assert_same(lv.entries, to_lcumulants(rebuilt(mv), fam, capacity=None).entries)
    back = from_lcumulants(lv, capacity=None)
    assert_same(back.entries, from_lcumulants(rebuilt(lv), capacity=None).entries)
    assert_same(back.entries, mv.entries)
    table = distribution_from_moments(back, algebraic=signed).table
    assert_same(table, distribution_from_moments(rebuilt(back), algebraic=signed).table)
    assert_same(table, dist.table)


@pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
@pytest.mark.parametrize("values", ["default", "rational"])
@pytest.mark.parametrize("box", HAND_OFF_BOXES, ids=str)
def test_central_moments_and_affine_changes(box, values, signed, rng):
    space = _space(box, values)
    mv = moments_from_distribution(random_distribution(space, rng, algebraic=signed))
    cm = central_moments(mv)
    assert_same(cm.entries, central_moments(rebuilt(mv)).entries)
    scale, shift = _affine(space.n)
    moved = transform_values(mv, scale=scale, shift=shift)
    assert_same(moved.entries, transform_values(rebuilt(mv), scale=scale, shift=shift).entries)
    # The outputs hand on their own forms.
    for fam in (Family(FULL), Family(NONCROSSING)):
        assert_same(to_lcumulants(moved, fam).entries, to_lcumulants(rebuilt(moved), fam).entries)
    assert_same(central_moments(moved).entries, central_moments(rebuilt(moved)).entries)
    assert_same(
        distribution_from_moments(moved, algebraic=True).table,
        distribution_from_moments(rebuilt(moved), algebraic=True).table,
    )
    # On a binary box the central moments of every leaf subset feed the tree sums.
    tree = caterpillar(space.n)
    assert _singleton_free_sums(tree, cm, None) == _singleton_free_sums(tree, rebuilt(cm), None)


def test_the_integer_form_is_not_part_of_the_value(rng):
    space = _space((3, 2, 2), "rational")
    dist = random_distribution(space, rng, algebraic=True)
    mv = moments_from_distribution(dist)
    vectors = [mv, to_lcumulants(mv, Family(NONCROSSING)), central_moments(mv), transform_values(mv, shift=[1, 2, 3])]
    for vec in vectors:
        other = rebuilt(vec)
        assert "_form" in vec.__dict__
        assert vec == other and other == vec
        assert repr(vec) == repr(other)
        assert vec.to_json() == other.to_json()
        other._integers()  # a derived form changes none of the three either
        assert vec == other and repr(vec) == repr(other) and vec.to_json() == other.to_json()
    again = DiscreteDistribution.from_json(dist.to_json())
    assert dist == again and dist.to_json() == again.to_json()
    assert distribution_from_moments(mv, algebraic=True) == dist


def _produced(dist, fam, scale, shift):
    """The six producers' vectors on ``dist``, keyed as ``oracles.eager_vectors`` keys them."""
    mv = moments_from_distribution(dist)
    lv = to_lcumulants(mv, fam)
    return {
        "moments_from_distribution": mv,
        "to_lcumulants": lv,
        "classical_cumulants": classical_cumulants(mv),
        "from_lcumulants": from_lcumulants(lv),
        "central_moments": central_moments(mv),
        "transform_values": transform_values(mv, scale=scale, shift=shift),
    }


def _lazy_case(box, values, signed, rng):
    """A table on the box, a family for it, an affine change, and the eager vectors."""
    space = _space(box, values)
    dist = random_distribution(space, rng, algebraic=signed)
    fam = TREE_FAMILIES[1] if set(box) == {2} else Family(NONCROSSING)
    scale, shift = _affine(space.n)
    return (dist, fam, scale, shift), oracles.eager_vectors(dist, fam, scale, shift)


class TestEntriesOnFirstRead:
    """A computed vector holds only its form until its entries are read."""

    @pytest.mark.parametrize("signed", [False, True], ids=["probability", "signed"])
    @pytest.mark.parametrize("values", ["default", "rational"])
    @pytest.mark.parametrize("box", HAND_OFF_BOXES, ids=str)
    def test_the_first_read_builds_the_eager_fractions(self, box, values, signed, rng):
        args, eager = _lazy_case(box, values, signed, rng)
        produced = _produced(*args)
        # No producer read the entries of the vector it was given either.
        assert not [name for name, vec in produced.items() if "entries" in vec.__dict__]
        for name, vec in produced.items():
            entries = vec.entries
            assert vec.__dict__["entries"] is entries and vec.entries is entries, name
            assert_same(entries, eager[name].entries)

    @pytest.mark.parametrize("read", ["read-before", "unread"])
    @pytest.mark.parametrize(
        "operation",
        [
            lambda vec: vec,
            repr,
            lambda vec: vec.to_json(),
            dataclasses.replace,
            lambda vec: dataclasses.replace(vec, family=None),
            copy.copy,
            copy.deepcopy,
            lambda vec: pickle.loads(pickle.dumps(vec)),
        ],
        ids=["eq", "repr", "to_json", "replace", "replace-family", "copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("box", HAND_OFF_BOXES, ids=str)
    def test_the_value_is_the_eager_vector(self, box, operation, read, rng):
        args, eager = _lazy_case(box, "rational", True, rng)
        for name, vec in _produced(*args).items():
            if read == "read-before":
                vec.entries
            got, want = operation(vec), operation(eager[name])
            assert got == want and want == got, name
            if isinstance(got, CoordinateVector):
                assert_same(got.entries, want.entries)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("box, fam", CASES, ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_a_round_trip_leaves_both_moment_vectors_unbuilt(self, box, fam, rng):
        dist = random_distribution(_space(box, "rational"), rng, algebraic=True)
        mv = moments_from_distribution(dist)
        lv = to_lcumulants(mv, fam, capacity=None)
        back = from_lcumulants(lv, capacity=None)
        assert distribution_from_moments(back, algebraic=True).table == dist.table
        assert "entries" not in mv.__dict__ and "entries" not in back.__dict__
        assert "entries" not in lv.__dict__
        assert lv.to_json() == rebuilt(lv).to_json()

    def test_an_unknown_attribute_raises_attribute_error(self, rng):
        mv = moments_from_distribution(random_distribution(StateSpace.of([3, 2]), rng))
        with pytest.raises(AttributeError, match="^'CoordinateVector' object has no attribute 'x'$"):
            mv.x
        assert getattr(mv, "x", None) is None
        assert "entries" not in mv.__dict__  # a missing name other than entries builds nothing
        caller = rebuilt(mv)
        with pytest.raises(AttributeError, match="^'CoordinateVector' object has no attribute 'x'$"):
            caller.x
        with pytest.raises(AttributeError, match="_form"):
            caller._form
        # A vector made from a caller's entries holds them as given.
        entries = dict(mv.entries)
        assert CoordinateVector(mv.space, MOMENTS, entries).entries is entries


def _tables_from(mv):
    """The table the inverse moment map gives, on Fractions."""
    return oracles.per_axis(mv.space, mv.entries, [_invert(_vandermonde(vm)) for vm in mv.space.values])


def _message(call, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


class TestErrorContract:
    """``distribution_from_moments`` checks its integers as ``DiscreteDistribution`` checks a table."""

    @pytest.mark.parametrize("route", ["caller", "affine", "rebuilt-affine"])
    def test_moments_whose_zero_entry_is_not_one(self, route, rng):
        space = StateSpace.of([3, 2])
        entries = dict(moments_from_distribution(random_distribution(space, rng)).entries)
        entries[(0, 0)] = Fraction(1, 2)
        mv = CoordinateVector(space, MOMENTS, entries)
        if route != "caller":  # the zero entry is kept by an affine change, and so is its common scale
            mv = transform_values(mv, shift=[Fraction(1, 3), -2])
            mv = rebuilt(mv) if route == "rebuilt-affine" else mv
        want = _message(DiscreteDistribution, space, _tables_from(mv), algebraic=True)
        assert want == "table sums to 1/2, not 1"
        assert _message(distribution_from_moments, mv, algebraic=True) == want
        assert _message(distribution_from_moments, mv) == _message(DiscreteDistribution, space, _tables_from(mv))

    def test_a_zero_entry_that_is_not_an_integer(self, rng):
        # The common scale of the graded form is then not 1: it is carried
        # through the affine change and the centring, and folded into the
        # grading by the recursion.
        space = StateSpace.of([3, 2, 2])
        entries = dict(moments_from_distribution(random_distribution(space, rng)).entries)
        entries[(0, 0, 0)] = Fraction(2, 3)
        caller = CoordinateVector(space, MOMENTS, entries)
        scale, shift = [2, Fraction(1, 2), 1], [Fraction(-1, 5), 0, 3]
        mv = transform_values(caller, scale=scale, shift=shift)
        matrices = [_shift_matrix(r, Fraction(a), Fraction(b)) for r, a, b in zip(space.arities, scale, shift)]
        assert_same(mv.entries, oracles.per_axis(space, entries, matrices))
        units = [unit(space.n, i) for i in range(space.n)]
        for vec in (caller, mv):
            centring = [_shift_matrix(r, Fraction(1), -vec.entries[u]) for r, u in zip(space.arities, units)]
            want = oracles.per_axis(space, vec.entries, centring)
            want[(0,) * space.n] = Fraction(1)
            want.update(dict.fromkeys(units, Fraction(0)))
            assert_same(central_moments(vec).entries, want)
            fam = Family(NONCROSSING)
            tables = oracles.first_block_tables(fam, space, None)
            assert_same(to_lcumulants(vec, fam).entries, oracles.first_block_solve(space, vec.entries, tables, True))

    def test_a_negative_mass_without_algebraic(self, rng):
        space = StateSpace.of([2, 3])
        mv = moments_from_distribution(random_distribution(space, rng, algebraic=True))
        table = _tables_from(mv)
        assert any(p < 0 for p in table.values())
        want = _message(DiscreteDistribution, space, table)
        first = next(x for x, p in table.items() if p < 0)
        assert want == f"negative mass {table[first]} at {first}; use algebraic=True for signed tables"
        assert _message(distribution_from_moments, mv) == want
        assert _message(distribution_from_moments, rebuilt(mv)) == want
        assert distribution_from_moments(mv, algebraic=True).table == table
