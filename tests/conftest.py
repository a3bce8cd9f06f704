from __future__ import annotations

from fractions import Fraction

import pytest

from lcumulants import DiscreteDistribution, SplitMix64, StateSpace


@pytest.fixture
def rng():
    return SplitMix64(0xC0FFEE)


def signed_unit_sum(rng: SplitMix64, count: int, top: int = 9) -> list[Fraction]:
    """Signed rationals summing to one (an algebraic table)."""
    raw = [rng.randint(-top, top) for _ in range(count - 1)]
    total = sum(raw)
    denom = 2 * top * count + 1
    out = [Fraction(w, denom) for w in raw]
    out.append(1 - Fraction(total, denom))
    return out


def random_distribution(space: StateSpace, rng: SplitMix64, algebraic: bool = False) -> DiscreteDistribution:
    if algebraic:
        weights = signed_unit_sum(rng, space.size)
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
