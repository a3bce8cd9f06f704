"""Set partitions of a finite ordered ground set.

A partition of positions ``0..d-1`` is stored canonically as a
restricted-growth sequence (RGS): ``rgs[0] == 0`` and each later entry is
at most ``1 + max`` of the prefix.  Two partitions are equal iff their RGS
are equal, so equality and hashing are cheap and representation-free.

The ground set is always a run of positions.  When a partition describes a
partition of an index multiset ``{i_1 <= ... <= i_d}``, position ``j``
aliases index ``i_j``; the alias tuple is kept by the caller, which lets
one machinery serve plain sets and multisets alike.

Position order is total, which is what the non-crossing and interval
first-block rules of :mod:`lattice` read.  Everything here is immutable
and side-effect free.  The base of the library's value classes lives here
too, since every layer imports this module.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

DEFAULT_CAPACITY = 12


class CapacityError(ValueError):
    """Raised when an enumeration would exceed the configured size cap."""


class _Value:
    """A record whose ``==``, ``hash`` and ``repr`` read the fields named in ``_fields``.

    The library's records subclass this and set their fields in an explicit
    ``__init__``.  Two records are equal when they are of the same class and
    their field tuples are equal, and the hash is the hash of that tuple.
    The repr is ``Name(field=value, ...)``.  A record that may be mutated
    sets ``__hash__ = None``.  Instances keep a ``__dict__``, so a
    ``cached_property`` or a lazily set attribute works on them.  Every
    subclass names at least two fields, so ``_key`` returns a tuple.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __replace__(self, **changes):
        """A copy built by ``__init__`` from the fields, with ``changes`` in place of some."""
        kept = {name: getattr(self, name) for name in self._fields if name not in changes}
        return type(self)(**kept, **changes)


class _Frozen(_Value):
    """A :class:`_Value` whose attributes cannot be set or deleted once built.

    ``__init__`` sets the fields with ``object.__setattr__``.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SetPartition:
    """A set partition of positions ``0..size-1`` in canonical RGS form."""

    __slots__ = ("rgs", "_blocks")

    def __init__(self, rgs: Sequence[int]):
        rgs = tuple(rgs)
        if not rgs:
            raise ValueError("partition of an empty ground set is not supported")
        top = -1
        for value in rgs:
            if value < 0 or value > top + 1:
                raise ValueError(f"not a restricted-growth sequence: {rgs!r}")
            if value == top + 1:
                top = value
        self.rgs = rgs
        self._blocks: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], size: int | None = None) -> SetPartition:
        """Build from blocks of 0-based positions; blocks must tile 0..size-1."""
        blocks = [tuple(sorted(block)) for block in blocks]
        if any(not block for block in blocks):
            raise ValueError("empty block")
        positions = sorted(p for block in blocks for p in block)
        d = positions[-1] + 1 if size is None else size
        if positions != list(range(d)):
            raise ValueError(f"blocks do not tile 0..{d - 1}: {blocks!r}")
        rgs = [0] * d
        label = 0
        seen: dict[int, int] = {}
        for block in sorted(blocks):
            seen[block[0]] = label
            for p in block:
                rgs[p] = seen[block[0]]
            label += 1
        # Relabel in first-occurrence order to restore canonical RGS.
        return cls(_canonical(rgs))

    @classmethod
    def singletons(cls, size: int) -> SetPartition:
        return cls(range(size))

    @classmethod
    def one_block(cls, size: int) -> SetPartition:
        return cls([0] * size)

    @property
    def size(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as position tuples, ordered by their minimum element."""
        if self._blocks is None:
            groups: dict[int, list[int]] = {}
            for pos, label in enumerate(self.rgs):
                groups.setdefault(label, []).append(pos)
            self._blocks = tuple(tuple(groups[label]) for label in sorted(groups))
        return self._blocks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetPartition) and self.rgs == other.rgs

    def __hash__(self) -> int:
        return hash(self.rgs)

    def __repr__(self) -> str:
        return f"SetPartition({format_partition(self)!r})"

    def __str__(self) -> str:
        return format_partition(self)


def _canonical(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel an arbitrary block-label sequence into RGS form."""
    relabel: dict[int, int] = {}
    out = []
    for label in labels:
        if label not in relabel:
            relabel[label] = len(relabel)
        out.append(relabel[label])
    return tuple(out)


def refines(pi: SetPartition, nu: SetPartition) -> bool:
    """True iff ``pi <= nu`` in refinement order (same ground set)."""
    if pi.size != nu.size:
        raise ValueError("partitions live on different ground sets")
    seen: dict[int, int] = {}
    for p_label, n_label in zip(pi.rgs, nu.rgs):
        if p_label in seen:
            if seen[p_label] != n_label:
                return False
        else:
            seen[p_label] = n_label
    return True


def meet(pi: SetPartition, nu: SetPartition) -> SetPartition:
    """Common refinement: blockwise intersections."""
    if pi.size != nu.size:
        raise ValueError("partitions live on different ground sets")
    return SetPartition(_canonical([label for label in zip(pi.rgs, nu.rgs)]))  # type: ignore[arg-type]


def join(pi: SetPartition, nu: SetPartition) -> SetPartition:
    """Transitive closure of the union of both block relations."""
    if pi.size != nu.size:
        raise ValueError("partitions live on different ground sets")
    d = pi.size
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for part in (pi, nu):
        for block in part.blocks:
            for p in block[1:]:
                union(block[0], p)
    return SetPartition(_canonical([find(p) for p in range(d)]))


def restrict(pi: SetPartition, positions: Iterable[int]) -> SetPartition:
    """Constrain ``pi`` to a nonempty subset of positions.

    The result lives on positions ``0..k-1`` following the increasing order
    of the selected original positions.
    """
    positions = sorted(set(positions))
    if not positions:
        raise ValueError("cannot restrict to the empty set")
    if positions[0] < 0 or positions[-1] >= pi.size:
        raise ValueError("positions outside the ground set")
    return SetPartition(_canonical([pi.rgs[p] for p in positions]))


def format_partition(pi: SetPartition, labels: Sequence[int] | None = None) -> str:
    """Render blocks sorted by minimum, elements ascending, separated by ``|``.

    Position ``p`` prints as ``labels[p]`` (default ``p + 1``).  Elements of
    a block are concatenated when every label is a single character and
    comma-separated otherwise, so the notation stays unambiguous past 9.
    """
    if labels is None:
        labels = [p + 1 for p in range(pi.size)]
    names = [str(labels[p]) for p in range(pi.size)]
    sep = "" if all(len(name) == 1 for name in names) else ","
    return "|".join(sep.join(names[p] for p in block) for block in pi.blocks)


def parse_partition(text: str, size: int | None = None) -> SetPartition:
    """Inverse of :func:`format_partition` with default 1-based labels."""
    blocks: list[list[int]] = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty block in partition text {text!r}")
        if "," in chunk:
            elems = [int(piece) for piece in chunk.split(",")]
        else:
            elems = [int(ch) for ch in chunk]
        blocks.append([e - 1 for e in elems])
    return SetPartition.from_blocks(blocks, size=size)
