"""Spans around the program's public functions, installed from outside it.

``Tracer.install()`` wraps every public function defined in each layer
module of ``lcumulants`` and rebinds the wrapper in every namespace that
imported the function by name (``build`` lives in ``lattice`` but is also
bound in ``lcumulant`` and ``trees``; ``classical_cumulants`` is bound in
``cli``).  Two methods of ``PartitionLattice`` are wrapped on the class.

Hot leaves such as ``refines``, ``meet`` or ``mobius_to_top`` are left
alone: a wrapper on them would cost more than the work it measures.  The
work they do is counted from the objects the wrapped functions return
(``len(lattice)``, ``report.checked``, ``space.size``).

Each span records its name, start, end and parent span.  Spans stay in
memory; ``summary()`` reduces them to per-function call counts and self
time (duration minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("partition", "lattice", "lcumulant", "moments", "trees", "models", "topology", "cli")

# Public functions that run too often to wrap.
_HOT_LEAVES = {
    "partition": {"refines", "meet", "join", "restrict", "is_noncrossing", "is_interval",
                  "is_one_cluster", "format_partition", "parse_partition"},
    "topology": {"is_caterpillar", "suppress_degree_two"},
}
_METHODS = {"lattice": {"PartitionLattice": ("weisner_sum", "to_json")}}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {
            "partition.partitions_enumerated": 0,
            "lattice.elements_built": 0,
            "lattice.order_pairs": 0,
            "moments.moments_from_distribution.box_pairs": 0,
            "models.gmm_joint_states": 0,
            "models.split_minors_checked": 0,
        }
        self.build_keys: set = set()
        self._installed: list[tuple] = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"lcumulants.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                    and attr not in _HOT_LEAVES.get(layer, ())
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._rebind(cls, method, self._wrap(f"{layer}.{method}", vars(cls)[method]))
        for name, module in list(sys.modules.items()):
            if name == "lcumulants" or name.startswith("lcumulants."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._rebind(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        """Put the original functions back; the spans recorded so far stay."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    # -- counts taken from returned objects ------------------------------------

    def _count_partition_all_partitions(self, args, result) -> None:
        self.counts["partition.partitions_enumerated"] += len(result)

    def _count_lattice_build(self, args, result) -> None:
        size = len(result)
        self.counts["lattice.elements_built"] += size
        self.counts["lattice.order_pairs"] += size * size
        self.build_keys.add((result.family, result.labels))

    def _count_moments_moments_from_distribution(self, args, result) -> None:
        self.counts["moments.moments_from_distribution.box_pairs"] += result.space.size ** 2

    def _count_models_gmm_distribution(self, args, result) -> None:
        tree = args[0]
        self.counts["models.gmm_joint_states"] += 2 ** (len(tree.inner_nodes()) + tree.num_leaves)

    def _count_models_verify_split_binomials(self, args, result) -> None:
        self.counts["models.split_minors_checked"] += result.checked

    # -- reduction --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self time and counts of everything traced so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        c0_check_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
            if name == "lattice.check_condition" and _has_ancestor(spans, parent, "lcumulant.from_lcumulants"):
                c0_check_s += end - start
        return {
            "calls": calls,
            "self_s": self_s,
            "counts": dict(self.counts),
            "c0_check_s": c0_check_s,
            "build_keys": len(self.build_keys),
        }


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes (or several passes)."""
    total: dict = {"calls": {}, "self_s": {}, "counts": {}, "c0_check_s": 0.0, "build_keys": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["c0_check_s"] += s["c0_check_s"]
        total["build_keys"] += s["build_keys"]
    return total
