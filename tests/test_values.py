"""The library's value classes: construction, checks, equality, hashing and repr.

Eleven classes carry the library's parameters, vectors and reports.  Each
is built by an explicit ``__init__`` with the parameter names and defaults
below, and compares, hashes and prints by its fields in that order.  The
seven parameter and vector classes are frozen; the four reports can be
changed and so cannot be hashed.  The reprs are pinned to the strings the
classes printed when they were dataclasses.
"""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest

import lcumulants.lattice
from lcumulants.lattice import FULL, TREE, ConditionReport, Family
from lcumulants.lcumulant import CumulantTensor, ShiftReport
from lcumulants.models import BinomialReport, HMMParams, RegressionReport, SecantParams
from lcumulants.moments import LCUMULANTS, MOMENTS, CoordinateVector, StateSpace
from lcumulants.topology import caterpillar, quartet
from lcumulants.trees import GMMParams

SPACE = StateSpace.binary(2)
ONE = StateSpace.binary(1)
EMISSIONS = (((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))), ((F(1), F(0)), (F(0), F(1))))

# (class, keyword arguments in parameter order, the repr the dataclass printed)
CASES = {
    "family": (Family, {"kind": FULL}, "Family(kind='full', tree=None)"),
    "family-tree": (
        Family,
        {"kind": TREE, "tree": caterpillar(3)},
        "Family(kind='tree', tree=TreeTopology('(1,2,3)h1;'))",
    ),
    "condition": (
        ConditionReport,
        {"condition": "C1", "holds": False, "witness": "1|2"},
        "ConditionReport(condition='C1', holds=False, witness='1|2')",
    ),
    "condition-default": (
        ConditionReport,
        {"condition": "C0", "holds": True},
        "ConditionReport(condition='C0', holds=True, witness=None)",
    ),
    "tensor": (
        CumulantTensor,
        {"order": 1, "n": 2, "entries": {(1,): F(1, 2), (2,): F(-1, 3)}},
        "CumulantTensor(order=1, n=2, entries={(1,): Fraction(1, 2), (2,): Fraction(-1, 3)})",
    ),
    "shift": (
        ShiftReport,
        {
            "family": Family(FULL),
            "shift": (F(1), F(1, 2)),
            "first_order_ok": True,
            "invariant": False,
            "mismatches": [((1, 1), F(0), F(1, 4))],
        },
        "ShiftReport(family=Family(kind='full', tree=None), shift=(Fraction(1, 1), Fraction(1, 2)), "
        "first_order_ok=True, invariant=False, mismatches=[((1, 1), Fraction(0, 1), Fraction(1, 4))])",
    ),
    "secant": (
        SecantParams,
        {"t": F(2, 7), "a": (F(1, 3), F(1, 2)), "b": (F(1), F(0))},
        "SecantParams(t=Fraction(2, 7), a=(Fraction(1, 3), Fraction(1, 2)), b=(Fraction(1, 1), Fraction(0, 1)))",
    ),
    "binomial": (
        BinomialReport,
        {"split": ((1,), (2, 3)), "checked": 9, "witness": (((1,), (2,), (1,), (3,)), F(1, 8))},
        "BinomialReport(split=((1,), (2, 3)), checked=9, witness=(((1,), (2,), (1,), (3,)), Fraction(1, 8)))",
    ),
    "hmm": (
        HMMParams,
        {"space": SPACE, "initial": (F(1, 2), F(1, 2)), "transitions": ((F(1, 3), F(2, 3)),), "emissions": EMISSIONS},
        "HMMParams(space=StateSpace(arities=(2, 2), values=((Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(0, 1), Fraction(1, 1)))), initial=(Fraction(1, 2), Fraction(1, 2)), "
        "transitions=((Fraction(1, 3), Fraction(2, 3)),), emissions=(((Fraction(1, 2), Fraction(1, 2)), "
        "(Fraction(1, 4), Fraction(3, 4))), ((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))))",
    ),
    "regression-default": (
        RegressionReport,
        {"applicable": True, "residual": F(0), "lhs": F(1, 3), "rhs": F(1, 3)},
        "RegressionReport(applicable=True, residual=Fraction(0, 1), lhs=Fraction(1, 3), rhs=Fraction(1, 3), "
        "eta_ri=Fraction(0, 1), eta_rj=Fraction(0, 1), tau=Fraction(0, 1))",
    ),
    "regression": (
        RegressionReport,
        {
            "applicable": False,
            "residual": F(1),
            "lhs": F(2),
            "rhs": F(1),
            "eta_ri": F(1, 2),
            "eta_rj": F(-1, 2),
            "tau": F(3),
        },
        "RegressionReport(applicable=False, residual=Fraction(1, 1), lhs=Fraction(2, 1), rhs=Fraction(1, 1), "
        "eta_ri=Fraction(1, 2), eta_rj=Fraction(-1, 2), tau=Fraction(3, 1))",
    ),
    "space": (
        StateSpace,
        {"arities": (2, 3), "values": ((F(-1, 3), F(1)), (F(0), F(1, 2), F(2)))},
        "StateSpace(arities=(2, 3), values=((Fraction(-1, 3), Fraction(1, 1)), "
        "(Fraction(0, 1), Fraction(1, 2), Fraction(2, 1))))",
    ),
    "vector": (
        CoordinateVector,
        {"space": ONE, "system": MOMENTS, "entries": {(0,): F(1), (1,): F(1, 3)}},
        "CoordinateVector(space=StateSpace(arities=(2,), values=((Fraction(0, 1), Fraction(1, 1)),)), "
        "system='moments', entries={(0,): Fraction(1, 1), (1,): Fraction(1, 3)}, family=None)",
    ),
    "vector-family": (
        CoordinateVector,
        {"space": ONE, "system": LCUMULANTS, "entries": {(0,): F(0), (1,): F(1, 3)}, "family": Family(FULL)},
        "CoordinateVector(space=StateSpace(arities=(2,), values=((Fraction(0, 1), Fraction(1, 1)),)), "
        "system='lcumulants', entries={(0,): Fraction(0, 1), (1,): Fraction(1, 3)}, "
        "family=Family(kind='full', tree=None))",
    ),
    "gmm": (
        GMMParams,
        {"root_dist": (F(1, 3), F(2, 3)), "tables": {("r", 1): (F(1, 4), F(1, 2)), ("r", 2): (F(0), F(1))}},
        "GMMParams(root_dist=(Fraction(1, 3), Fraction(2, 3)), tables={('r', 1): (Fraction(1, 4), Fraction(1, 2)), "
        "('r', 2): (Fraction(0, 1), Fraction(1, 1))})",
    ),
}
FROZEN = (Family, CumulantTensor, SecantParams, HMMParams, StateSpace, CoordinateVector, GMMParams)
REPORTS = (ConditionReport, ShiftReport, BinomialReport, RegressionReport)
# Frozen classes with a mapping field: hashing one fails as hashing the mapping does.
HOLDS_A_MAPPING = (CumulantTensor, CoordinateVector, GMMParams)


def _build(name):
    cls, kwargs, _ = CASES[name]
    return cls(**copy.deepcopy(kwargs))


def test_every_value_class_has_a_case():
    assert {cls for cls, _, _ in CASES.values()} == set(FROZEN + REPORTS)


@pytest.mark.parametrize("name", CASES)
class TestValue:
    def test_positional_and_keyword_construction_agree(self, name):
        cls, kwargs, _ = CASES[name]
        by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
        assert by_position == by_keyword
        for field, value in kwargs.items():
            assert getattr(by_position, field) is value and getattr(by_keyword, field) is value, field

    def test_repr_is_the_dataclass_repr(self, name):
        assert repr(_build(name)) == CASES[name][2]

    def test_equality(self, name):
        obj = _build(name)
        assert obj == _build(name) and not obj != _build(name)
        assert obj != object() and obj != CASES[name][1]
        for other in CASES:
            if other != name:
                assert obj != _build(other), other

    def test_hash(self, name):
        cls, kwargs, _ = CASES[name]
        obj = _build(name)
        if cls in REPORTS or cls in HOLDS_A_MAPPING:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(obj)
        else:
            assert hash(obj) == hash(_build(name))
            assert {obj: 1}[_build(name)] == 1

    def test_fields_are_frozen_or_settable(self, name):
        cls, kwargs, _ = CASES[name]
        obj = _build(name)
        field = next(iter(kwargs))
        if cls in FROZEN:
            for target in (field, "unknown"):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{target}'"):
                    setattr(obj, target, None)
                with pytest.raises(AttributeError, match=f"cannot delete field '{target}'"):
                    delattr(obj, target)
            assert obj == _build(name)
        else:
            setattr(obj, field, None)
            assert getattr(obj, field) is None and obj != _build(name)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trips(self, name, round_trip):
        obj = _build(name)
        back = round_trip(obj)
        assert back is not obj and type(back) is type(obj)
        assert back == obj and repr(back) == repr(obj)
        if type(obj) in FROZEN:
            with pytest.raises(AttributeError):
                setattr(back, next(iter(CASES[name][1])), None)

    def test_replace(self, name):
        cls, kwargs, _ = CASES[name]
        obj = _build(name)
        same = obj.__replace__()
        assert same == obj and same is not obj
        field = list(kwargs)[-1]
        changed = obj.__replace__(**{field: kwargs[field]})
        assert getattr(changed, field) is kwargs[field] and changed == obj
        with pytest.raises(TypeError, match="no_such_field"):
            obj.__replace__(no_such_field=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Family("bogus"), "unknown family kind 'bogus'"),
        (lambda: Family(TREE), "tree family needs a topology"),
        (lambda: Family(FULL, quartet()), "only tree families carry a topology"),
        (lambda: Family(FULL).__replace__(kind=TREE), "tree family needs a topology"),
        (lambda: SecantParams(F(1, 2), (F(1),), (F(1), F(0))), "component mean vectors must have equal length"),
        (lambda: GMMParams((F(1, 2), F(1, 3)), {}), "root distribution must sum to one"),
        (lambda: CoordinateVector(ONE, MOMENTS, {(0,): F(1)}), "missing entries, e.g. (1,)"),
        (
            lambda: CoordinateVector(ONE, MOMENTS, {(0,): F(1), (1,): F(0), (2,): F(0)}),
            "states outside the box: [(2,)]",
        ),
        (lambda: HMMParams(SPACE, (F(1, 2), F(1, 2)), (), EMISSIONS), "need n-1 transition rows and n emission tables"),
        (
            lambda: HMMParams(SPACE, (F(1),), ((F(1, 3), F(2, 3)),), EMISSIONS),
            "the initial distribution has 1 entries, not 2",
        ),
        (
            lambda: HMMParams(SPACE, (F(1, 2), F(1, 2)), ((F(1, 3), F(4, 3)),), EMISSIONS),
            "entry 1 of the transition row 1 is 4/3, outside [0, 1]",
        ),
        (
            lambda: HMMParams(SPACE, (F(1, 2), F(1, 2)), ((F(1, 3), F(2, 3)),), (EMISSIONS[0], ((F(1), F(0)), (0, 0)))),
            "the emission row 1 of variable 2 does not sum to one",
        ),
    ],
    ids=[
        "family-kind",
        "family-no-tree",
        "family-stray-tree",
        "family-replace",
        "secant-lengths",
        "gmm-root",
        "vector-missing",
        "vector-extra",
        "hmm-row-counts",
        "hmm-row-length",
        "hmm-entry-range",
        "hmm-row-sum",
    ],
)
def test_construction_checks(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_family_splits_are_computed_once(monkeypatch):
    calls = []
    edge_splits = lcumulants.lattice.edge_splits

    def counting(tree):
        calls.append(tree)
        return edge_splits(tree)

    monkeypatch.setattr(lcumulants.lattice, "edge_splits", counting)
    fam = Family(TREE, quartet())
    first = fam.splits
    assert fam.splits is first and first == (0b110,)
    assert len(calls) == 1
    assert fam == Family(TREE, quartet()) and hash(fam) == hash((TREE, quartet()))
    assert Family(FULL).splits == () and len(calls) == 1
