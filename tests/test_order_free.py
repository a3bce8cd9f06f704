"""The readers of mu(pi, top) against the explicit lattice order.

``lattice.mobius_weights`` is the one source of mu(pi, top) for the
built-in families.  The ``lattice`` dump and the Weisner meet fibres are
checked here against ``build(...).to_json()`` and
``PartitionLattice.weisner_sum``.  With the order refused, the verbs and
every library reader of the weights still run and still give the values
that independent routes give.
"""

import json
from fractions import Fraction

import pytest

import oracles
from lcumulants.cli import main
from lcumulants.lattice import (
    FULL,
    INTERVAL,
    NONCROSSING,
    ONECLUSTER,
    TREE,
    Family,
    build,
    mobius_weights,
    weights_json,
    weisner_fibres,
)
from lcumulants.lcumulant import (
    brillinger,
    classical_cumulants,
    conditional_collapse,
    cumulant_tensor,
    detect_independence_structure,
    l_from_classical,
    to_lcumulants,
)
from lcumulants.moments import DiscreteDistribution, StateSpace, moments_from_distribution
from lcumulants.partition import SetPartition
from lcumulants.topology import caterpillar, to_newick

from conftest import random_distribution
from test_first_blocks import TREES

SIZE_INDEXED = [FULL, NONCROSSING, INTERVAL, ONECLUSTER]
CASES = [(Family(kind), n) for kind in SIZE_INDEXED for n in range(1, 7)] + [
    (Family(TREE, tree), tree.leaves) for _, tree in sorted(TREES.items())
]
IDS = [f"{kind}-{n}" for kind in SIZE_INDEXED for n in range(1, 7)] + sorted(TREES)


def _family_args(fam, ground):
    if fam.kind == TREE:
        return ["--family", TREE, "--tree", to_newick(fam.tree)]
    return ["--family", fam.kind, "--n", str(ground)]


def _labels(ground):
    return tuple(range(1, ground + 1)) if isinstance(ground, int) else ground


@pytest.mark.parametrize("fam, ground", CASES, ids=IDS)
def test_dump_from_the_weights_is_the_lattice_dump(fam, ground, capsys):
    want = build(fam, ground).to_json()
    assert weights_json(fam, _labels(ground), mobius_weights(fam, ground)) == want
    assert main(["lattice", *_family_args(fam, ground)]) == 0
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("fam, ground", CASES, ids=IDS)
def test_meet_fibres_are_the_weisner_sums(fam, ground, capsys):
    # A meet with pi0 lies below pi0, so weisner_sum(pi0, delta) has an
    # empty fibre at every other delta; those deltas must have no bucket.
    lat = build(fam, ground)
    weights = mobius_weights(fam, ground)
    for pi0 in lat.elements:
        if pi0 == lat.top:
            continue
        fibres = weisner_fibres(weights, pi0)
        below = lat.interval(lat.bottom, pi0)
        assert set(fibres) <= set(below)
        for delta in below:
            assert fibres.get(delta, 0) == lat.weisner_sum(pi0, delta), (pi0, delta)
    b = len(lat)
    if b == 1:  # no fibre to sum, so the verb reports a usage error
        assert main(["verify", "weisner", *_family_args(fam, ground)]) == 2
        return
    assert main(["verify", "weisner", *_family_args(fam, ground)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == [{"check": f"all {(b - 1) * b} meet-fiber sums vanish", "pass": True, "residual": "0"}]


class TestNoOrderIsBuilt:
    """Every reader of the weights runs with ``build`` and the class refused."""

    @pytest.mark.parametrize(
        "argv, size", [(["--family", NONCROSSING, "--n", "5"], 42), (["--family", TREE, "--tree", "caterpillar5"], 34)]
    )
    def test_lattice_verb(self, argv, size, capsys, no_lattice_order):
        assert main(["lattice", *argv]) == 0
        assert len(json.loads(capsys.readouterr().out)["elements"]) == size

    @pytest.mark.parametrize("argv", [["--family", FULL, "--n", "5"], ["--family", TREE, "--tree", "caterpillar5"]])
    def test_weisner_verb(self, argv, capsys, no_lattice_order):
        assert main(["verify", "weisner", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_brillinger(self, rng, no_lattice_order):
        space = StateSpace.binary(4)
        for fam in [Family(FULL), Family(INTERVAL), Family(TREE, caterpillar(4))]:
            weights = rng.weights(2)
            dists = [random_distribution(space, rng) for _ in range(2)]
            cond = {y: to_lcumulants(moments_from_distribution(d), fam) for y, d in enumerate(dists)}
            mixed = DiscreteDistribution(
                space, {x: sum((w * d.p(x) for w, d in zip(weights, dists)), Fraction(0)) for x in space.states()}
            )
            want = to_lcumulants(moments_from_distribution(mixed), fam).entries
            assert brillinger(dict(enumerate(weights)), cond, fam).entries == want
            assert oracles.brillinger(dict(enumerate(weights)), cond, fam).entries == want

    def test_l_from_classical(self, rng, no_lattice_order):
        mv = moments_from_distribution(random_distribution(StateSpace.binary(4), rng))
        kv = classical_cumulants(mv)
        for fam in [Family(NONCROSSING), Family(INTERVAL), Family(ONECLUSTER), Family(TREE, caterpillar(4))]:
            assert l_from_classical(kv, fam).entries == to_lcumulants(mv, fam).entries

    def test_detect_independence_structure(self, rng, no_lattice_order):
        space = StateSpace.binary(4)
        left, right = (random_distribution(StateSpace.binary(2), rng) for _ in range(2))
        table = {x: left.p(x[:2]) * right.p(x[2:]) for x in space.states()}
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        for fam in [Family(FULL), Family(NONCROSSING), Family(TREE, caterpillar(4))]:
            assert str(detect_independence_structure(to_lcumulants(mv, fam))) == "12|34"
        uniform = moments_from_distribution(DiscreteDistribution.uniform(space))
        assert detect_independence_structure(to_lcumulants(uniform, Family(INTERVAL))) == SetPartition.singletons(4)

    def test_cumulant_tensor(self, rng, no_lattice_order):
        dist = random_distribution(StateSpace.of([3, 2, 2]), rng)
        mv = moments_from_distribution(dist)
        for kind in SIZE_INDEXED:
            lv = to_lcumulants(mv, Family(kind))
            tensor = cumulant_tensor(dist, Family(kind), 3)
            assert tensor[(1, 2, 3)] == lv.of_multiset((1, 2, 3))
            assert tensor[(1, 1, 2)] == lv.of_multiset((1, 1, 2))

    def test_conditional_collapse(self, rng, no_lattice_order):
        # Independent given Y: the top coordinate is the family cumulant of
        # the conditional means, for every family.
        t = rng.probability(30)
        a, b = (tuple(rng.probability(30) for _ in range(4)) for _ in range(2))
        space = StateSpace.binary(4)
        table = {}
        for x in space.states():
            pa = pb = Fraction(1)
            for i, e in enumerate(x):
                pa *= a[i] if e else 1 - a[i]
                pb *= b[i] if e else 1 - b[i]
            table[x] = (1 - t) * pa + t * pb
        mv = moments_from_distribution(DiscreteDistribution(space, table))
        for fam in [Family(kind) for kind in SIZE_INDEXED] + [Family(TREE, caterpillar(4))]:
            top = to_lcumulants(mv, fam).of_multiset((1, 2, 3, 4))
            assert conditional_collapse({0: 1 - t, 1: t}, {0: a, 1: b}, fam) == top
