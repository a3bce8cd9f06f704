"""The verbs of the command line, loaded once :mod:`lcumulants.cli` has parsed.

Each ``cmd_*`` function takes the parsed arguments and returns the exit
code; a usage or parse problem raises :class:`lcumulants.cli.SystemExit2`,
which the entry maps to exit code 2.  The ``verify`` suites, their trial
helpers, the ground-set cap read from ``LCUM_CAPACITY`` and the lattice
dump limit live here too, so that ``--help`` and a usage error load none
of the library.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable

from . import lattice as lat_mod
from .cli import VERIFY_DEFAULTS, SystemExit2
from .lattice import (
    FULL,
    INTERVAL,
    NONCROSSING,
    ONECLUSTER,
    TREE,
    Family,
    check_condition,
)
from .lcumulant import (
    classical_cumulants,
    from_lcumulants,
    to_lcumulants,
)
from .moments import (
    CENTRAL_MOMENTS,
    CLASSICAL_CUMULANTS,
    LCUMULANTS,
    MOMENTS,
    PROBABILITIES,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    central_moments,
    distribution_from_moments,
    moments_from_distribution,
)
from .models import (
    GMMParams,
    HMMParams,
    SecantParams,
    gmm_distribution,
    hmm_distribution,
    hmm_normalized_tree_cumulants,
    hmm_pipeline_tree_cumulants,
    hmm_tree_cumulants_closed,
    random_gmm_params,
    random_hmm_params,
    reroot_params,
    secant_moments,
    secant_tree_cumulants,
    split_binomials,
)
from .partition import DEFAULT_CAPACITY, CapacityError
from .rng import SplitMix64
from .topology import TreeTopology, caterpillar, edge_splits, from_newick, quartet, star
from .trees import (
    contracted_tree_cumulants,
    subset_tree_cumulants,
    tree_cumulants,
)

TREECUMULANTS = "treecumulants"

# The largest lattice the ``lattice`` verb dumps.  ``--family full --n 11``
# (678570 elements) took 18.8 s and 832 MB on a 2-vCPU host; ``--n 12`` has
# 4213597.
DUMP_ELEMENT_LIMIT = 1_000_000

# The most meet-fiber sums ``verify weisner`` checks: (B - 1) * B for a
# lattice of B elements, about 4-7 us each on a 2-vCPU host.  ``--family
# interval --n 12`` (4192256 sums) took 28.4 s and ``--family onecluster
# --n 11`` (4147332) 26.5 s; ``--family full --n 8`` (17135460) took 113 s.
WEISNER_FIBRE_LIMIT = 5_000_000


def _capacity() -> int:
    """The ground-set cap: ``LCUM_CAPACITY`` when set, which must be a positive integer."""
    raw = os.environ.get("LCUM_CAPACITY")
    if not raw:
        return DEFAULT_CAPACITY
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SystemExit2(f"LCUM_CAPACITY must be a positive integer, not {raw!r}")
    return cap


def _within_capacity(size: int, what: str) -> None:
    """Refuse a suite or model whose ground set is over the cap before any work."""
    cap = _capacity()
    if size > cap:
        raise CapacityError(f"{what} of {size} exceeds the cap of {cap}")


def _family_from_args(name: str, tree_file: str | None, tree_text: str | None = None) -> Family:
    name = name.lower()
    if name in (FULL, NONCROSSING, INTERVAL, ONECLUSTER):
        return Family(name)
    if name == TREE:
        return Family(TREE, _load_tree(tree_file, tree_text))
    raise SystemExit2(f"unknown family {name!r}")


def _load_tree(tree_file: str | None, tree_text: str | None = None) -> TreeTopology:
    if tree_text:
        return _named_tree(tree_text)
    if not tree_file:
        raise SystemExit2("a tree family needs --tree")
    if os.path.exists(tree_file):
        with open(tree_file) as fh:
            return _parse_newick(fh.read())
    return _named_tree(tree_file)


def _named_tree(text: str) -> TreeTopology:
    text = text.strip()
    if text.startswith("caterpillar"):
        return caterpillar(int(text[len("caterpillar") :]))
    if text.startswith("star"):
        return star(int(text[len("star") :]))
    if text == "quartet":
        return quartet()
    return _parse_newick(text)


def _parse_newick(text: str) -> TreeTopology:
    try:
        return from_newick(text)
    except (ValueError, IndexError, RecursionError) as exc:
        raise SystemExit2(f"cannot parse tree {text.strip()!r}: {exc}") from None


def _read_json_object(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise SystemExit2(f"{path} must hold a JSON object, not a {type(data).__name__}")
    return data


def _floatify(payload: dict) -> dict:
    """Replace rational strings with floats; only for --float output."""

    def conv(value):
        if isinstance(value, str):
            try:
                return float(Fraction(value))
            except (ValueError, ZeroDivisionError):
                return value
        return value

    out = dict(payload)
    if isinstance(out.get("table"), dict):
        out["table"] = {k: conv(v) for k, v in out["table"].items()}
    if isinstance(out.get("mobius_to_top"), list):
        out["mobius_to_top"] = [conv(v) for v in out["mobius_to_top"]]
    return out


def _emit(payload: dict, out: str | None, float_mode: bool = False) -> None:
    if float_mode:
        payload = _floatify(payload)
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _digest(*parts: object) -> str:
    import hashlib  # only verify reports carry a digest; OpenSSL stays out of the other verbs

    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return "sha256:" + h.hexdigest()[:16]


# -- lattice ------------------------------------------------------------------


def _n_counts_leaves(tree: TreeTopology, n: int | None) -> None:
    """Refuse a given ``--n`` that does not count the tree's leaves."""
    if n is not None and n != tree.num_leaves:
        raise SystemExit2(f"--n {n} does not match the {tree.num_leaves} leaves of the tree")


def _labels(fam: Family, n: int | None) -> tuple[int, ...]:
    """The ground labels of a family: a tree's leaves, which a given n must count, or 1..n."""
    if fam.kind == TREE:
        assert fam.tree is not None
        _n_counts_leaves(fam.tree, n)
        return fam.tree.leaves
    if n is None:
        raise SystemExit2("--n is required for size-indexed families")
    return tuple(range(1, n + 1))


def cmd_lattice(args) -> int:
    fam = _family_from_args(args.family, args.tree)
    labels = _labels(fam, args.n)
    count = lat_mod.element_count(fam, labels, capacity=_capacity())
    if count > DUMP_ELEMENT_LIMIT:
        raise SystemExit2(f"the {fam} lattice has {count} elements, above the dump limit of {DUMP_ELEMENT_LIMIT}")
    weights = lat_mod.mobius_weights(fam, labels, capacity=_capacity())
    _emit(lat_mod.weights_json(fam, labels, weights), args.output, args.float_mode)
    return 0


# -- transform ----------------------------------------------------------------

_SYSTEMS = (PROBABILITIES, MOMENTS, CENTRAL_MOMENTS, CLASSICAL_CUMULANTS, LCUMULANTS, TREECUMULANTS)


def _to_moments_hub(vec: CoordinateVector, source: str, fam: Family | None) -> CoordinateVector:
    if source == PROBABILITIES:
        return moments_from_distribution(DiscreteDistribution(vec.space, vec.entries, algebraic=True))
    if source == MOMENTS:
        return vec
    if source == CLASSICAL_CUMULANTS:
        return from_lcumulants(
            CoordinateVector(vec.space, CLASSICAL_CUMULANTS, vec.entries, family=Family(FULL)), capacity=_capacity()
        )
    if source in (LCUMULANTS, TREECUMULANTS):
        if fam is None:
            raise SystemExit2("inverting lattice cumulants needs --family (and --tree)")
        return from_lcumulants(
            CoordinateVector(vec.space, LCUMULANTS, vec.entries, family=fam), capacity=_capacity()
        )
    raise SystemExit2(f"cannot start a transform from {source!r}")


def _from_moments_hub(mv: CoordinateVector, target: str, fam: Family | None) -> CoordinateVector:
    if target == MOMENTS:
        return mv
    if target == PROBABILITIES:
        dist = distribution_from_moments(mv, algebraic=True)
        return CoordinateVector(dist.space, PROBABILITIES, dist.table)
    if target == CENTRAL_MOMENTS:
        return central_moments(mv)
    if target == CLASSICAL_CUMULANTS:
        return classical_cumulants(mv, _capacity())
    if target in (LCUMULANTS, TREECUMULANTS):
        if fam is None:
            raise SystemExit2(f"target {target!r} needs --family (and --tree)")
        return to_lcumulants(mv, fam, _capacity())
    raise SystemExit2(f"unknown target system {target!r}")


def cmd_transform(args) -> int:
    data = _read_json_object(args.input)
    source = args.source or data.get("system")
    if source not in _SYSTEMS:
        raise SystemExit2(f"--from must be one of {_SYSTEMS}")
    if args.target not in _SYSTEMS:
        raise SystemExit2(f"--to must be one of {_SYSTEMS}")
    fam = None
    if args.family or args.target == TREECUMULANTS or source == TREECUMULANTS:
        fam_name = args.family or TREE
        fam = _family_from_args(fam_name, args.tree)
    vec = CoordinateVector.from_json({**data, "system": source})
    mv = _to_moments_hub(vec, source, fam)
    out = _from_moments_hub(mv, args.target, fam)
    payload = out.to_json()
    if args.target == TREECUMULANTS:
        payload["system"] = TREECUMULANTS
    _emit(payload, args.output, args.float_mode)
    return 0


# -- model --------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit2(f"cannot parse rational {text!r}: {exc}") from None


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


# What reading a parameter field of the wrong JSON type or length raises.
_MALFORMED = (TypeError, IndexError, ZeroDivisionError, OverflowError)


def _node(label: object) -> object:
    """A tree node named in a parameter file; digit strings name leaves."""
    if not isinstance(label, (str, int)):
        raise TypeError(f"node {label!r} is neither a string nor an integer")
    return int(label) if isinstance(label, str) and label.isdigit() else label


def _load_gmm_params(path: str) -> tuple[GMMParams, object]:
    data = _read_json_object(path)
    try:
        tables = {}
        for edge in data["edges"]:
            rows = edge["table"]
            tables[(_node(edge["u"]), _node(edge["v"]))] = (Fraction(rows[0][1]), Fraction(rows[1][1]))
        root_dist = tuple(Fraction(p) for p in data["root_dist"])
        root = None if data.get("root") is None else _node(data["root"])
    except _MALFORMED as exc:
        raise SystemExit2(f"malformed parameters in {path}: {exc}") from None
    return GMMParams(root_dist, tables), root


def cmd_model_gmm(args) -> int:
    tree = _load_tree(args.tree)
    _within_capacity(tree.num_leaves, "the tree's leaf count")
    params, root = _load_gmm_params(args.params)
    if root is not None:
        tree = tree.rooted_at(root)
    dist = gmm_distribution(tree, params)
    if args.emit == "distribution":
        _emit(dist.to_json(), args.output, args.float_mode)
    elif args.emit == "moments":
        _emit(moments_from_distribution(dist).to_json(), args.output, args.float_mode)
    elif args.emit == TREECUMULANTS:
        payload = tree_cumulants(moments_from_distribution(dist), tree, _capacity()).to_json()
        payload["system"] = TREECUMULANTS
        _emit(payload, args.output, args.float_mode)
    else:
        raise SystemExit2(f"unknown --emit {args.emit!r}")
    return 0


def _caterpillar_payload(closed: dict, n: int) -> dict:
    """Closed-form tree cumulants of a chart or chain on caterpillar{n}."""
    table = {",".join(map(str, ms)): str(v) for ms, v in sorted(closed.items())}
    return {"system": TREECUMULANTS, "tree": f"caterpillar{n}", "table": table}


def cmd_model_secant(args) -> int:
    _within_capacity(args.n, "--n")
    a = _fraction_list(args.a)
    b = _fraction_list(args.b)
    if args.n != len(a) or args.n != len(b):
        raise SystemExit2("--a and --b must list exactly n rationals")
    params = SecantParams(_fraction(args.t), a, b)
    if args.emit == "moments":
        _emit(secant_moments(params).to_json(), args.output, args.float_mode)
    elif args.emit == TREECUMULANTS:
        _emit(_caterpillar_payload(secant_tree_cumulants(params), args.n), args.output, args.float_mode)
    else:
        raise SystemExit2(f"unknown --emit {args.emit!r}")
    return 0


def _load_hmm_params(path: str) -> HMMParams:
    data = _read_json_object(path)
    try:
        _within_capacity(len(data["arities"]), "the length of arities")
        space = StateSpace.of(
            data["arities"],
            [[Fraction(v) for v in vm] for vm in data["values"]] if "values" in data else None,
        )
        initial = tuple(Fraction(p) for p in data["initial"])
        transitions = tuple(tuple(Fraction(p) for p in row) for row in data["transitions"])
        emissions = tuple(
            (tuple(Fraction(p) for p in rows[0]), tuple(Fraction(p) for p in rows[1]))
            for rows in data["emissions"]
        )
    except _MALFORMED as exc:
        raise SystemExit2(f"malformed parameters in {path}: {exc}") from None
    return HMMParams(space, initial, transitions, emissions)


def cmd_model_hmm(args) -> int:
    params = _load_hmm_params(args.params)
    if args.emit == "distribution":
        _emit(hmm_distribution(params).to_json(), args.output, args.float_mode)
    elif args.emit == TREECUMULANTS:
        _emit(_caterpillar_payload(hmm_tree_cumulants_closed(params), params.n), args.output, args.float_mode)
    elif args.emit == "normalized":
        norm = hmm_normalized_tree_cumulants(params)
        payload = {
            "system": "normalized_treecumulants",
            "table": {
                ",".join(map(str, ms)): (str(v) if isinstance(v, Fraction) else repr(v))
                for ms, v in sorted(norm.items())
            },
        }
        _emit(payload, args.output, args.float_mode)
    else:
        raise SystemExit2(f"unknown --emit {args.emit!r}")
    return 0


# -- verify -------------------------------------------------------------------

# The size of a verify suite over 1..n when --n is not given; the report
# shows it as the n option, also for a suite that reads a tree.
VERIFY_N = 4


def _size(args) -> int:
    """The given --n of a verify suite, else :data:`VERIFY_N`."""
    return VERIFY_N if args.n is None else args.n


def _report(command: str, options: dict, results: list[dict], timing: float | None) -> dict:
    failed = sum(1 for r in results if not r["pass"])
    payload = {
        "command": command,
        "options": options,
        "inputs_digest": _digest(command, options),
        "results": results,
        "counts": {"total": len(results), "failed": failed},
        "passed": failed == 0,
    }
    if timing is not None:
        payload["timing_seconds"] = round(timing, 3)
    return payload


def _check(name: str, residual: Fraction | int | None = None, ok: bool | None = None, **extra) -> dict:
    if ok is None:
        ok = residual == 0
    row = {"check": name, "pass": bool(ok)}
    if residual is not None:
        row["residual"] = str(residual)
    row.update(extra)
    return row


def _max_diff(left: dict, right: dict) -> Fraction:
    """The largest |left[k] - right[k]|; only the pairs that differ are subtracted."""
    worst = Fraction(0)
    for key, value in left.items():
        other = right[key]
        if value != other:
            worst = max(worst, abs(value - other))
    return worst


def _trial_seeds(seed: int, trials: int) -> list[int]:
    base = SplitMix64(seed)
    return [base.next_u64() for _ in range(trials)]


def _run_trials(fn: Callable, items: list, jobs: int | None) -> list[dict]:
    """Map a picklable trial over its inputs, merging in index order.

    The worker count is capped at the CPUs this process may run on: its
    affinity mask where the platform has one, else the machine's CPU
    count.  The per-trial seeds are derived up front, so the report is
    byte-identical whatever the worker count.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs or 1, usable)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(fn, items)
    else:
        chunks = [fn(item) for item in items]
    return [row for chunk in chunks for row in chunk]


def _bernoulli_cumulants(t: Fraction, n: int) -> list[Fraction]:
    """kappa_1 .. kappa_n of a Bernoulli(t) variable, from kappa_1 = t and
    kappa_(d+1) = t(1-t) d(kappa_d)/dt on integer coefficient lists."""
    poly, out = [0, 1], []
    for _ in range(n):
        out.append(sum(c * t**k for k, c in enumerate(poly)))
        slope = [k * c for k, c in enumerate(poly)][1:]
        poly = [x - y for x, y in zip([0, *slope, 0], [0, 0, *slope])]
    return out


def _secant_trial(item: tuple[int, int, int]) -> list[dict]:
    trial, seed, n = item
    rng = SplitMix64(seed)
    t = rng.probability(30)
    a = tuple(rng.fraction(24, signed=True) for _ in range(n))
    b = tuple(rng.fraction(24, signed=True) for _ in range(n))
    params = SecantParams(t, a, b)
    mv = secant_moments(params)
    kv = classical_cumulants(mv, _capacity())
    # The chart is X_i = a_i + H (b_i - a_i) with H ~ Bernoulli(t), so the
    # cumulant of a set S of two or more variables is kappa_|S| times the
    # product of their gaps.
    gaps = [bi - ai for ai, bi in zip(a, b)]
    kappa = _bernoulli_cumulants(t, n)
    expected = {}
    for x in kv.entries:
        support = [i for i, level in enumerate(x) if level]
        if len(support) == 1:
            expected[x] = a[support[0]] + t * gaps[support[0]]
        elif support:
            expected[x] = kappa[len(support) - 1] * math.prod(gaps[i] for i in support)
    results = [_check(f"trial {trial}: cumulant coefficients", _max_diff(expected, kv.entries))]
    closed = secant_tree_cumulants(params)
    pipeline = subset_tree_cumulants(
        distribution_from_moments(mv, algebraic=True), caterpillar(n), _capacity()
    )
    results.append(_check(f"trial {trial}: closed form vs pipeline", _max_diff(closed, pipeline)))
    binom_worst = max((rep.residual for rep in split_binomials(closed, _all_splits(n))), default=Fraction(0))
    results.append(_check(f"trial {trial}: split binomials", binom_worst))
    return results


def _positive_trials(suite: str, trials: int) -> None:
    if trials < 1:
        raise SystemExit2(f"verify {suite} needs a positive --trials")


def _suite_secant(args) -> list[dict]:
    _positive_trials("secant", args.trials)
    n = _size(args)
    _within_capacity(n, "--n")
    seeds = _trial_seeds(args.seed, args.trials)
    items = [(trial, s, n) for trial, s in enumerate(seeds)]
    return _run_trials(_secant_trial, items, args.jobs)


def _all_splits(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    import itertools as it

    out = []
    universe = set(range(1, n + 1))
    for r in range(1, n // 2 + 1):
        for left in it.combinations(sorted(universe), r):
            right = tuple(sorted(universe - set(left)))
            if len(left) < len(right) or (len(left) == len(right) and left < right):
                out.append((left, right))
    return out


def _gmm_trial(item: tuple[int, int, str | None]) -> list[dict]:
    trial, seed, tree_arg = item
    tree = _load_tree(tree_arg) if tree_arg else quartet()
    rng = SplitMix64(seed)
    params = random_gmm_params(tree, rng)
    dist = gmm_distribution(tree, params)
    mv = moments_from_distribution(dist)
    # An unresolved tree's closed form is in the coordinates of its
    # trivalent refinement; a trivalent tree is its own refinement.
    refined, closed = contracted_tree_cumulants(tree, params, _capacity())
    pipeline = tree_cumulants(mv, refined, _capacity())
    worst = _max_diff(dict(closed.entries), dict(pipeline.entries))
    results = [_check(f"trial {trial}: closed form vs pipeline", worst)]
    reroot_worst = Fraction(0)
    for node in tree.inner_nodes():
        retree, reparams = reroot_params(tree, params, node)
        redist = gmm_distribution(retree, reparams)
        # Both tables are held as integers over the lcm of their denominators,
        # so equal tables have equal integers and a residual of 0.
        if redist._ints != dist._ints:
            reroot_worst = max(reroot_worst, _max_diff(dist.table, redist.table))
    results.append(_check(f"trial {trial}: rooting invariance", reroot_worst))
    split_worst = max(rep.residual for rep in split_binomials(pipeline, edge_splits(refined)))
    results.append(_check(f"trial {trial}: edge split binomials", split_worst))
    return results


def _suite_tree(suite: str, args) -> TreeTopology:
    """The tree of a model suite, the quartet by default, checked against --n and the cap."""
    tree = _load_tree(args.tree) if args.tree else quartet()
    if tree.num_leaves < 2:
        raise SystemExit2(f"verify {suite} needs a tree with at least two leaves")
    _n_counts_leaves(tree, args.n)
    _within_capacity(tree.num_leaves, "the tree's leaf count")
    return tree


def _suite_gmm(args) -> list[dict]:
    _positive_trials("gmm", args.trials)
    _suite_tree("gmm", args)
    seeds = _trial_seeds(args.seed, args.trials)
    items = [(trial, s, args.tree) for trial, s in enumerate(seeds)]
    return _run_trials(_gmm_trial, items, args.jobs)


def _hmm_trial(item: tuple[int, int, int]) -> list[dict]:
    trial, seed, n = item
    params = random_hmm_params(SplitMix64(seed), n)
    closed = hmm_tree_cumulants_closed(params)
    pipeline = hmm_pipeline_tree_cumulants(params, _capacity())
    return [_check(f"trial {trial}: closed form vs pipeline", _max_diff(closed, pipeline))]


def _suite_hmm(args) -> list[dict]:
    import itertools as it

    n = _size(args)
    if n < 2 or args.trials < 0:
        raise SystemExit2("verify hmm needs --n of at least 2 and a nonnegative --trials")
    _within_capacity(n, "--n")
    seeds = _trial_seeds(args.seed, args.trials + 1)
    items = [(trial, s, n) for trial, s in enumerate(seeds[:-1])]
    results = _run_trials(_hmm_trial, items, args.jobs)
    params = random_hmm_params(SplitMix64(seeds[-1]), n, homogeneous=True)
    closed = hmm_tree_cumulants_closed(params)
    worst = Fraction(0)
    sign_ok = True

    def pairs(gap: int) -> list[tuple[int, int]]:
        return [(i, i + gap) for i in range(1, n + 1 - gap)]

    for i, i2 in pairs(2):
        for j, j2 in pairs(2):
            for k, k3 in pairs(3):
                for l, l1 in pairs(1):
                    worst = max(
                        worst,
                        abs(closed[(i, i2)] * closed[(j, j2)] - closed[(k, k3)] * closed[(l, l1)]),
                    )
    for i, j, k in it.combinations(range(1, n + 1), 3):
        if closed[(i, j)] * closed[(i, k)] * closed[(j, k)] < 0:
            sign_ok = False
    results.append(_check("homogeneous two-index identities", worst))
    results.append(_check("homogeneous triple products nonnegative", ok=sign_ok))
    return results


def _suite_weisner(args) -> list[dict]:
    fam = _family_from_args(args.family, args.tree)
    labels = _labels(fam, args.n if fam.kind == TREE else _size(args))
    count = lat_mod.element_count(fam, labels, capacity=_capacity())
    if count < 2:
        raise SystemExit2("a one-element lattice has no meet-fiber sum to check")
    checked = (count - 1) * count
    if checked > WEISNER_FIBRE_LIMIT:
        raise SystemExit2(
            f"the {fam} lattice has {checked} meet-fiber sums to check, above the limit of {WEISNER_FIBRE_LIMIT}"
        )
    weights = lat_mod.mobius_weights(fam, labels, capacity=_capacity())
    worst = 0
    for pi0, _ in weights[:-1]:  # the top comes last; empty fibres sum to 0
        worst = max(worst, *map(abs, lat_mod.weisner_fibres(weights, pi0).values()))
    return [_check(f"all {checked} meet-fiber sums vanish", Fraction(worst))]


def _suite_conditions(args) -> list[dict]:
    fam = _family_from_args(args.family, args.tree)
    which = args.which.upper() if args.which else None
    names = [which] if which else ["C0", "C1", "C2", "C3"]
    results = []
    for name in names:
        report = check_condition(fam, name, max_size=_size(args), capacity=_capacity())
        if report.holds is None:  # nothing was checked, so nothing passed or failed
            raise SystemExit2(report.witness)
        expected = args.expect
        if expected is None:
            ok = bool(report.holds)
        else:
            ok = report.holds is (expected == "true")
        results.append(
            _check(
                f"{name} on {args.family}",
                ok=ok,
                holds=report.holds,
                witness=report.witness,
            )
        )
    return results


def _suite_split_binomials(args) -> list[dict]:
    tree = _suite_tree("split-binomials", args)
    if args.params:
        params, root = _load_gmm_params(args.params)
        if root is not None:
            tree = tree.rooted_at(root)
    else:
        params = random_gmm_params(tree, SplitMix64(args.seed))
    dist = gmm_distribution(tree, params)
    tv = tree_cumulants(moments_from_distribution(dist), tree, _capacity())
    results = []
    for rep in split_binomials(tv, edge_splits(tree)):
        side_a, side_b = rep.split
        name = f"split {'|'.join(map(str, side_a))} / {'|'.join(map(str, side_b))}"
        results.append(
            _check(name, rep.residual, checked=rep.checked)
        )
    return results


# Each suite and the options it reads, besides --timing and -o.
_SUITES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "secant": (_suite_secant, ("n", "seed", "trials", "jobs")),
    "gmm": (_suite_gmm, ("tree", "n", "seed", "trials", "jobs")),
    "hmm": (_suite_hmm, ("n", "seed", "trials", "jobs")),
    "weisner": (_suite_weisner, ("family", "tree", "n")),
    "conditions": (_suite_conditions, ("family", "tree", "n", "which", "expect")),
    "split-binomials": (_suite_split_binomials, ("tree", "n", "params", "seed")),
}


def _refuse_unread(args, reads: tuple[str, ...]) -> None:
    """Refuse an option the suite does not read, unless it is given at its default."""
    read_by_any = {option for _, options in _SUITES.values() for option in options}
    unread = [
        k for k, v in vars(args).items() if k in read_by_any and k not in reads and v != VERIFY_DEFAULTS.get(k)
    ]
    if unread:
        raise SystemExit2(f"verify {args.suite} does not read {', '.join('--' + k for k in unread)}")


def cmd_verify(args) -> int:
    import time

    if args.suite not in _SUITES:
        raise SystemExit2(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}")
    suite, reads = _SUITES[args.suite]
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit2(f"--jobs must be at least 1, not {args.jobs}")
    _refuse_unread(args, reads)
    start = time.perf_counter()
    results = suite(args)
    elapsed = time.perf_counter() - start if args.timing else None
    # jobs and timing shape the run, not the results; keep them out so the
    # report bytes depend only on the inputs and the seed.
    options = {
        k: v
        for k, v in sorted({**vars(args), "n": _size(args)}.items())
        if k not in {"func", "output", "timing", "jobs"} and v is not None
    }
    payload = _report(f"verify {args.suite}", options, results, elapsed)
    _emit(payload, args.output)
    return 0 if payload["passed"] else 1
