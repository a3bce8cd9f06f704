from __future__ import annotations

from fractions import Fraction

import pytest

from lcumulants import DiscreteDistribution, SplitMix64, StateSpace


@pytest.fixture
def rng():
    return SplitMix64(0xC0FFEE)


def random_distribution(space: StateSpace, rng: SplitMix64, algebraic: bool = False) -> DiscreteDistribution:
    if algebraic:
        weights = rng.signed_unit_sum(space.size)
    else:
        weights = rng.weights(space.size)
    return DiscreteDistribution(space, dict(zip(space.states(), weights)), algebraic=algebraic)


def frac(text) -> Fraction:
    return Fraction(text)


@pytest.fixture
def no_lattice_order(monkeypatch):
    """Make building a lattice order fail: every route to one constructs the class."""
    import lcumulants.lattice

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice order was built")

    monkeypatch.setattr(lcumulants.lattice.PartitionLattice, "__init__", refuse)
