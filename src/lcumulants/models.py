"""Model builders and exact identity verifiers.

Three constructions are covered: the two-state latent tree model (a
Bayesian network on a rooted binary tree, marginalized to the leaves),
its one-latent-class special case written as a rank-two mixture chart,
and processes whose observations are independent given an unobserved
two-state Markov chain.  All three are latent tree models with the
observed variables at the leaves: their laws come from one upward
sum-product pass over the binary latent nodes, and their tree cumulants
from the one closed form of :mod:`trees`, on the star with one hidden
node for the chart and on the hidden chain for the process.  The pass
runs on integers: each builder scales its rows and root weights to
integers after checking them, and hands the result to the table or the
moment vector as integers, which neither takes apart again.  Verifiers
return exact residuals rather than booleans so that callers in float
mode can apply their own tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .moments import (
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
    _box,
    _exact_parts,
    _Graded,
    _scaled_integers,
    _strides,
)
from .partition import DEFAULT_CAPACITY, _Frozen, _Value
from .topology import TreeTopology, caterpillar, star
from .trees import GMMParams, _closed_form, exact_sqrt, subset_tree_cumulants


# -- the upward pass -------------------------------------------------------------


def _upward_pass(space: StateSpace, children: Mapping, rows: Mapping, root: object, weights: Sequence[int]) -> list[int]:
    """Leaf-state table of a rooted tree of binary latent nodes, on integers.

    Integer nodes are the observed leaves, leaf i the variable i of
    ``space``.  ``rows[(u, v)]`` weighs each state of v given u in state 0
    and in state 1: two states for a latent child, one per level for a
    leaf.  A node's message lists, for each state of the leaves below it,
    the state's offset in the product order of ``space`` and its two
    weights: the product of the children's messages, each summed over the
    child's state through its rows.  The root's ``weights`` close the
    pass, which returns the table in product order.  Rows and weights are
    integers, each row pair and the weights over their own scale, so the
    table is over the product of those scales.  Every entry is a sum of
    products, one factor per edge, so the pass never divides.
    """
    strides = _strides(space.arities)

    def message(v: object) -> list[tuple[int, int, int]]:
        # A leaf shows its own state, also when it is the root.
        msg = [(0, 1, 0), (strides[v - 1], 0, 1)] if isinstance(v, int) else [(0, 1, 1)]
        for c in children.get(v, ()):
            r0, r1 = rows[(v, c)]
            if isinstance(c, int):
                c_msg = [(s * strides[c - 1], q0, q1) for s, (q0, q1) in enumerate(zip(r0, r1))]
            else:
                (a, b), (e, f) = r0, r1
                c_msg = [(k, a * q0 + b * q1, e * q0 + f * q1) for k, q0, q1 in message(c)]
            msg = [(k + ck, a0 * b0, a1 * b1) for k, a0, a1 in msg for ck, b0, b1 in c_msg]
        return msg

    w0, w1 = weights
    table = [0] * space.size
    for k, q0, q1 in message(root):
        table[k] = w0 * q0 + w1 * q1
    return table


def _law(space: StateSpace, children: Mapping, rows: Mapping, root: object, weights: Sequence) -> DiscreteDistribution:
    """The leaf law of the upward pass from exact rows and root weights.

    Each edge's row pair, and the root weights, are scaled to integers over
    the lcm of their denominators, so the table is over the product of
    those lcms; it is reduced and checked as a caller's table is.  A float
    entry raises ``TypeError`` naming its edge.
    """
    ints, scale = {}, 1
    for edge, (r0, r1) in rows.items():
        row_ints, row_scale = _scaled_integers(((edge, p) for p in (*r0, *r1)), "edge")
        ints[edge] = (tuple(row_ints[: len(r0)]), tuple(row_ints[len(r0) :]))
        scale *= row_scale
    weights, root_scale = _scaled_integers(enumerate(weights), "root weight")
    table = _upward_pass(space, children, ints, root, weights)
    return DiscreteDistribution._of_integers(space, table, scale * root_scale, algebraic=False)


def _by_support(values: Mapping[int, Fraction], n: int) -> dict[tuple[int, ...], Fraction]:
    """Bitmask-keyed values by leaf tuple, by size and then lexicographically."""
    leaves = range(1, n + 1)
    return {s: values[sum(1 << (i - 1) for i in s)] for r in leaves for s in itertools.combinations(leaves, r)}


# -- latent tree distributions -------------------------------------------------


def gmm_distribution(tree: TreeTopology, params: GMMParams) -> DiscreteDistribution:
    """Leaf marginal of the binary Bayesian network on a rooted tree: the
    upward pass with rows ``(1 - p, p)`` read from the edge tables.

    The pass runs on integers (:func:`_law`).
    """
    if tree.root is None:
        raise ValueError("the model is parametrized from a root")
    n = tree.num_leaves
    for label in tree.leaves:
        if not 1 <= label <= n:
            raise ValueError(f"leaf {label} is not in 1..{n}: the leaves of an n-leaf tree must be labelled 1..n")
    if not all(0 <= p <= 1 for p in params.root_dist):
        raise ValueError("root distribution outside [0, 1]")
    for edge, row in params.tables.items():
        if not all(0 <= p <= 1 for p in row):
            raise ValueError(f"conditional table of edge {edge} outside [0, 1]")
    children: dict[object, list[object]] = {v: [] for v in tree.nodes}
    rows = {}
    for child, parent in tree.parent_map().items():
        if (parent, child) not in params.tables:
            raise ValueError(f"no conditional table for the edge {parent} -> {child}")
        children[parent].append(child)
        p0, p1 = params.tables[(parent, child)]
        rows[(parent, child)] = ((1 - p0, p0), (1 - p1, p1))
    return _law(StateSpace.binary(n), children, rows, tree.root, params.root_dist)


def random_gmm_params(tree: TreeTopology, rng, denominator: int = 24) -> GMMParams:
    """Random interior parameters (every conditional strictly inside (0,1))."""
    if tree.root is None:
        raise ValueError("need a rooted tree")
    root_p1 = rng.probability(denominator)
    tables = {}
    for child, parent in tree.parent_map().items():
        tables[(parent, child)] = (rng.probability(denominator), rng.probability(denominator))
    return GMMParams((1 - root_p1, root_p1), tables)


def reroot_params(
    tree: TreeTopology, params: GMMParams, new_root: object
) -> tuple[TreeTopology, GMMParams]:
    """The same joint law parametrized from another root.

    Edges on the path from the old root to the new one flip direction and
    are inverted through the edge joint; the rest keep their tables.  The
    inversion needs the flipped edges' parents to be non-degenerate.
    """
    if tree.root is None:
        raise ValueError("need a rooted tree")
    means = params.node_means(tree)
    path = tree.path(tree.root, new_root)
    flipped = set(zip(path, path[1:]))
    tables: dict[tuple[object, object], tuple[Fraction, Fraction]] = {}
    for (u, v), row in params.tables.items():
        if (u, v) not in flipped:
            tables[(u, v)] = row
            continue
        mu = means[u]
        j11, j10 = mu * row[1], mu * (1 - row[1])
        j01, j00 = (1 - mu) * row[0], (1 - mu) * (1 - row[0])
        if j10 + j00 == 0 or j11 + j01 == 0:
            raise ValueError(f"cannot invert the degenerate edge {(u, v)}")
        tables[(v, u)] = (j10 / (j10 + j00), j11 / (j11 + j01))
    mu_new = means[new_root]
    return tree.rooted_at(new_root), GMMParams((1 - mu_new, mu_new), tables)


# -- rank-two mixture chart -----------------------------------------------------


class SecantParams(_Frozen):
    """Mixing weight t and the two component mean vectors a, b.

    The chart is affine (the empty-index coordinate is one); nothing
    constrains the entries to be probabilities, so algebraic points are
    fine.
    """

    _fields = ("t", "a", "b")

    def __init__(self, t: Fraction, a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
        if len(a) != len(b):
            raise ValueError("component mean vectors must have equal length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.a)


def secant_moments(params: SecantParams) -> CoordinateVector:
    """Moments of the two-component mixture: (1-t) prod a + t prod b.

    The upward pass on a star whose leaf rows are the component moments
    ``(1, a_i)`` and ``(1, b_i)``, with weights ``(1-t, t)``.  The means
    are scaled by the lcm d of their denominators and the weights by
    theirs, c, so the pass returns graded numerators: the moment of x is
    its entry over c * d^|x|, the form the transforms read.
    """
    n = params.n
    means, d = _scaled_integers(enumerate((*params.a, *params.b)), "component mean")
    rows = {("h", i): ((1, a), (1, b)) for i, a, b in zip(range(1, n + 1), means, means[n:])}
    weights, c = _scaled_integers(enumerate((1 - params.t, params.t)), "weight")
    space = StateSpace.binary(n)
    nums = _upward_pass(space, {"h": range(1, n + 1)}, rows, "h", weights)
    return CoordinateVector._of_integers(space, MOMENTS, _Graded(nums, _box(space)[1], d, c))


def secant_tree_cumulants(params: SecantParams) -> dict[tuple[int, ...], Fraction]:
    """Closed-form caterpillar tree cumulants of the mixture chart.

    The chart is the latent tree model on the star with one hidden node:
    root weights ``(1-t, t)`` and rows ``(a_i, b_i)``.  So order one gives
    the mixed means, and an index set of size d >= 2 gives
    t(1-t)(1-2t)^(d-2) times the product of the component mean gaps.
    """
    if params.n < 2:
        raise ValueError("need at least two variables")
    _exact_parts(enumerate((params.t, *params.a, *params.b)), "parameter")  # a float raises TypeError
    t = Fraction(params.t)
    rows = {("c", i): (a, b) for i, (a, b) in enumerate(zip(params.a, params.b), 1)}
    return _by_support(_closed_form(star(params.n), GMMParams((1 - t, t), rows)), params.n)


# -- split binomials --------------------------------------------------------------


class BinomialReport(_Value):
    """The minors of one split A|B: how many, and a witness ``((I, J, I', J'), r)``
    whose residual r is not 0, or None when every minor vanishes."""

    _fields = ("split", "checked", "witness")
    __hash__ = None

    def __init__(self, split: tuple[tuple[int, ...], ...], checked: int, witness: tuple[tuple, Fraction] | None):
        self.split = split
        self.checked = checked
        self.witness = witness

    @property
    def residual(self) -> Fraction:
        return Fraction(0) if self.witness is None else abs(self.witness[1])

    @property
    def all_zero(self) -> bool:
        return self.witness is None


def _nonempty_subsets(pool: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    return [(c, sum(1 << i for i in c)) for r in range(1, len(pool) + 1) for c in itertools.combinations(pool, r)]


def _first_nonzero_minor(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, int, int, int], int] | None:
    """The first 2x2 minor of the matrix that does not vanish, and its value, in O(rows * cols).

    With p = M[i0][j0] its first nonzero entry, M has rank at most one
    exactly when M[i][j] * p = M[i][j0] * M[i0][j] for every cell.  The
    first cell (i, j) where that fails spans with the pivot the minor
    ``(i0, j0, i, j)``, of value p M[i][j] - M[i0][j] M[i][j0].  A rank of
    at most one, the zero matrix's too, gives None.
    """
    for i0, pivot_row in enumerate(rows):
        for j0, p in enumerate(pivot_row):
            if p:
                for i, row in enumerate(rows):
                    q = row[j0]
                    for j, (v, w) in enumerate(zip(row, pivot_row)):
                        if v * p != q * w:
                            return (i0, j0, i, j), v * p - q * w
                return None
    return None


def split_binomials(
    tree_cums: Mapping[tuple[int, ...], Fraction] | CoordinateVector,
    splits: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> list[BinomialReport]:
    """Check the rank-one 2x2 determinants attached to each split A|B.

    For nonempty I, I' in A and J, J' in B the residual is
    t(I+J) t(I'+J') - t(I+J') t(I'+J); all vanish exactly when the
    flattening t(I+J) has rank at most one, as on points of a tree model
    realizing the split across an edge.  The map is read once, scaled by
    the lcm L of its denominators and keyed by leaf bitmask; an index with
    a repeated leaf would alias a set and is left out.  Each split takes
    one pass over its flattening (:func:`_first_nonzero_minor`), which
    stops at the first minor whose integer value r is not 0: the witness,
    with residual r / L^2.  ``checked`` counts every minor either way.
    """
    if isinstance(tree_cums, CoordinateVector):
        tree_cums = {tree_cums.space.index_multiset(x): v for x, v in tree_cums.entries.items()}
    entries = [(key, v) for key, v in tree_cums.items() if len(set(key)) == len(key)]
    ints, scale = _scaled_integers(entries, "index")
    values = {sum(1 << i for i in key): v for (key, _), v in zip(entries, ints)}
    reports = []
    for side_a, side_b in splits:
        side_a, side_b = tuple(sorted(side_a)), tuple(sorted(side_b))
        if set(side_a) & set(side_b):
            raise ValueError("split sides overlap")
        subsets_a, subsets_b = _nonempty_subsets(side_a), _nonempty_subsets(side_b)
        flat = [[values[mask_i | mask_j] for _, mask_j in subsets_b] for _, mask_i in subsets_a]
        witness = None
        if found := _first_nonzero_minor(flat):
            (i0, j0, i, j), r = found
            sets = (subsets_a[i0][0], subsets_b[j0][0], subsets_a[i][0], subsets_b[j][0])
            witness = (sets, Fraction(r, scale * scale))
        reports.append(BinomialReport((side_a, side_b), len(subsets_a) ** 2 * len(subsets_b) ** 2, witness))
    return reports


# -- hidden two-state chains --------------------------------------------------------


class HMMParams(_Frozen):
    """A binary hidden chain with per-position emissions.

    ``initial`` is the distribution of the first hidden state;
    ``transitions[i]`` holds ``(p(H_{i+2}=1 | H_{i+1}=0), p(.. | 1))``.
    ``emissions[i]`` is a pair of rows, one per hidden state, each a
    distribution over the levels of the observed variable; the observed
    state space carries the value maps.
    """

    _fields = ("space", "initial", "transitions", "emissions")

    def __init__(
        self,
        space: StateSpace,
        initial: tuple[Fraction, Fraction],
        transitions: tuple[tuple[Fraction, Fraction], ...],
        emissions: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...],
    ):
        n = space.n
        if len(transitions) != n - 1 or len(emissions) != n:
            raise ValueError("need n-1 transition rows and n emission tables")
        rows = [("initial distribution", initial, 2, True)]
        rows += [(f"transition row {i + 1}", row, 2, False) for i, row in enumerate(transitions)]
        for i, (pair, r) in enumerate(zip(emissions, space.arities), 1):
            rows += [(f"emission row {h} of variable {i}", pair[h], r, True) for h in (0, 1)]
        for name, row, size, total in rows:
            if len(row) != size:
                raise ValueError(f"the {name} has {len(row)} entries, not {size}")
            for j, p in enumerate(row):
                if not 0 <= p <= 1:
                    raise ValueError(f"entry {j} of the {name} is {p}, outside [0, 1]")
            if total and sum(row) != 1:
                raise ValueError(f"the {name} does not sum to one")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "emissions", emissions)

    @property
    def n(self) -> int:
        return self.space.n

    # -- hidden chain statistics, all exact --------------------------------

    def hidden_means(self) -> list[Fraction]:
        means = [Fraction(self.initial[1])]
        for a0, a1 in self.transitions:
            prev = means[-1]
            means.append(prev * a1 + (1 - prev) * a0)
        return means

    def hidden_variances(self) -> list[Fraction]:
        return [m * (1 - m) for m in self.hidden_means()]

    def hidden_third_central(self) -> list[Fraction]:
        # E(H - m)^3 = m(1-m)(1-2m) for a 0/1 variable.
        return [m * (1 - m) * (1 - 2 * m) for m in self.hidden_means()]

    def hidden_step_covariances(self) -> list[Fraction]:
        means = self.hidden_means()
        out = []
        for i, (a0, a1) in enumerate(self.transitions):
            # E[H_i H_{i+1}] = P(H_i = 1) P(H_{i+1} = 1 | H_i = 1)
            out.append(means[i] * a1 - means[i] * means[i + 1])
        return out

    def emission_value_moment(self, i: int, h: int, power: int = 1) -> Fraction:
        row = self.emissions[i - 1][h]
        return sum(
            (p * self.space.values[i - 1][level] ** power for level, p in enumerate(row)),
            Fraction(0),
        )

    def observed_means(self) -> list[Fraction]:
        means = self.hidden_means()
        return [
            (1 - means[i - 1]) * self.emission_value_moment(i, 0)
            + means[i - 1] * self.emission_value_moment(i, 1)
            for i in range(1, self.n + 1)
        ]

    def observed_variances(self) -> list[Fraction]:
        means = self.hidden_means()
        x_means = self.observed_means()
        out = []
        for i in range(1, self.n + 1):
            second = (1 - means[i - 1]) * self.emission_value_moment(i, 0, 2) + means[
                i - 1
            ] * self.emission_value_moment(i, 1, 2)
            out.append(second - x_means[i - 1] * x_means[i - 1])
        return out

    def hidden_observed_covariances(self) -> list[Fraction]:
        means = self.hidden_means()
        x_means = self.observed_means()
        out = []
        for i in range(1, self.n + 1):
            # E[H_i v(X_i)] = P(H_i = 1) E[v(X_i) | H_i = 1]
            cross = means[i - 1] * self.emission_value_moment(i, 1)
            out.append(cross - means[i - 1] * x_means[i - 1])
        return out


def random_hmm_params(
    rng,
    n: int,
    arities: Sequence[int] | None = None,
    denominator: int = 24,
    homogeneous: bool = False,
) -> HMMParams:
    """Random non-degenerate chain; the homogeneous flag ties all positions.

    Homogeneous chains start from the stationary distribution of their
    transition row pair, so every hidden marginal coincides.
    """
    arities = list(arities) if arities is not None else [2] * n
    space = StateSpace.of(arities)
    if homogeneous:
        a0 = rng.probability(denominator)
        a1 = rng.probability(denominator)
        while a0 + (1 - a1) == 0:
            a1 = rng.probability(denominator)
        # Stationary point of the two-state chain.
        pi1 = a0 / (a0 + (1 - a1))
        if pi1 == 0 or pi1 == 1:
            pi1 = Fraction(1, 2)
        initial = (1 - pi1, pi1)
        transitions = tuple((a0, a1) for _ in range(n - 1))
        r = arities[0]
        row0 = tuple(rng.weights(r))
        row1 = tuple(rng.weights(r))
        emissions = tuple((row0, row1) for _ in range(n))
    else:
        p1 = rng.probability(denominator)
        initial = (1 - p1, p1)
        transitions = tuple(
            (rng.probability(denominator), rng.probability(denominator)) for _ in range(n - 1)
        )
        emissions = tuple(
            (tuple(rng.weights(r)), tuple(rng.weights(r))) for r in arities
        )
    return HMMParams(space, initial, transitions, emissions)


def _hidden_chain(params: HMMParams) -> tuple[list[str], dict[str, list[object]]]:
    """The chain h1 ... hn and the children of each h_i: leaf i, then h_(i+1)."""
    if any(m in (0, 1) for m in params.hidden_means()):
        raise ValueError("degenerate hidden state")
    hidden = [f"h{i}" for i in range(1, params.n + 1)]
    return hidden, {h: [i, *hidden[i : i + 1]] for i, h in enumerate(hidden, 1)}


def hmm_distribution(params: HMMParams) -> DiscreteDistribution:
    """Exact joint law of the observations: the upward pass on the hidden
    chain from the initial distribution, on integers (:func:`_law`).
    """
    hidden, children = _hidden_chain(params)
    rows = {(h, i): em for i, (h, em) in enumerate(zip(hidden, params.emissions), 1)}
    for u, v, (a0, a1) in zip(hidden, hidden[1:], params.transitions):
        rows[(u, v)] = ((1 - a0, a0), (1 - a1, a1))
    return _law(params.space, children, rows, hidden[0], params.initial)


def hmm_tree_cumulants_closed(params: HMMParams) -> dict[tuple[int, ...], Fraction]:
    """Rational closed form for the caterpillar tree cumulants of the chain.

    The chain is the latent tree model on h1 ... hn, from the initial
    distribution through the transition rows, with leaf rows
    ``(E[v(X_i) | h_i = 0], E[v(X_i) | h_i = 1])``: a leaf's slope is the
    regression slope of its value on h_i, and its mean the observed mean.
    """
    hidden, children = _hidden_chain(params)
    tree = TreeTopology([(h, c) for h, cs in children.items() for c in cs], root=hidden[0])
    emission_mean = params.emission_value_moment
    tables = {(h, i): (emission_mean(i, 0), emission_mean(i, 1)) for i, h in enumerate(hidden, 1)}
    for u, v, row in zip(hidden, hidden[1:], params.transitions):
        tables[(u, v)] = row
    return _by_support(_closed_form(tree, GMMParams(params.initial, tables)), params.n)


def hmm_normalized_tree_cumulants(params: HMMParams) -> dict[tuple[int, ...], Fraction | float]:
    """Correlation/skewness parametrization of the normalized coordinates.

    The value at an ordered index set is the product of hidden skewnesses
    at the inner indices, hidden step correlations across the span, and
    hidden-observed correlations at the members.  Exact when every
    variance involved is a rational square, float otherwise.
    """
    v = params.hidden_variances()
    vx = params.observed_variances()
    t3 = params.hidden_third_central()
    c = params.hidden_step_covariances()
    e = params.hidden_observed_covariances()
    if any(val == 0 for val in v) or any(val == 0 for val in vx):
        raise ValueError("degenerate variable")
    sv = [exact_sqrt(val) for val in v]
    svx = [exact_sqrt(val) for val in vx]
    exact = all(s is not None for s in sv) and all(s is not None for s in svx)

    def root(value: Fraction, cache) -> Fraction | float:
        return cache if exact and cache is not None else float(value) ** 0.5

    out: dict[tuple[int, ...], Fraction | float] = {}
    n = params.n
    for r in range(2, n + 1):
        for support in itertools.combinations(range(1, n + 1), r):
            first, last = support[0], support[-1]
            gamma = Fraction(1) if exact else 1.0
            for j in support[1:-1]:
                gamma = gamma * t3[j - 1] / (v[j - 1] * root(v[j - 1], sv[j - 1]))
            rho = Fraction(1) if exact else 1.0
            for m in range(first, last):
                rho = rho * c[m - 1] / (root(v[m - 1], sv[m - 1]) * root(v[m], sv[m]))
            b = Fraction(1) if exact else 1.0
            for i in support:
                b = b * e[i - 1] / (root(v[i - 1], sv[i - 1]) * root(vx[i - 1], svx[i - 1]))
            out[support] = gamma * rho * b
    return out


def hmm_pipeline_tree_cumulants(
    params: HMMParams, capacity: int | None = DEFAULT_CAPACITY
) -> dict[tuple[int, ...], Fraction]:
    """Oracle route: joint law, then caterpillar tree cumulants of subsets."""
    return subset_tree_cumulants(hmm_distribution(params), caterpillar(params.n), capacity)


# -- conditional regression identities ------------------------------------------


class RegressionReport(_Value):
    """Both sides of the binary regression identity, their residual and the terms it read."""

    _fields = ("applicable", "residual", "lhs", "rhs", "eta_ri", "eta_rj", "tau")
    __hash__ = None

    def __init__(
        self,
        applicable: bool,
        residual: Fraction,
        lhs: Fraction,
        rhs: Fraction,
        eta_ri: Fraction = Fraction(0),
        eta_rj: Fraction = Fraction(0),
        tau: Fraction = Fraction(0),
    ):
        self.applicable = applicable
        self.residual = residual
        self.lhs = lhs
        self.rhs = rhs
        self.eta_ri = eta_ri
        self.eta_rj = eta_rj
        self.tau = tau


def binary_regression_identity_check(
    dist: DiscreteDistribution,
    i: int,
    j: int,
    given: Sequence[int],
    r: int,
) -> RegressionReport:
    """Check the central-moment factorization through a binary regressor.

    With i, j and the block C jointly independent given the binary
    variable r, the centered product over {i, j} + C splits into two
    terms driven by the regression slopes on r, its variance, and its
    third cumulant.  The report carries the exact residual; when the
    conditional independence premise fails the identity generally breaks
    and the report is marked not applicable.
    """
    given = tuple(sorted(given))
    if len({i, j, r} | set(given)) != 3 + len(given):
        raise ValueError("indices must be distinct")
    if dist.space.arities[r - 1] != 2:
        raise ValueError("the regressor must be binary")
    mean_r = dist.raw_moment([r])
    k_rr = dist.raw_moment([r, r]) - mean_r * mean_r
    if k_rr == 0:
        raise ValueError("degenerate regressor")
    k_rrr = (
        dist.raw_moment([r, r, r])
        - 3 * dist.raw_moment([r, r]) * mean_r
        + 2 * mean_r**3
    )
    tau = k_rrr / k_rr

    def central(ms: Iterable[int]) -> Fraction:
        ms = tuple(sorted(ms))
        if not ms:
            return Fraction(1)
        mean = {v: dist.raw_moment([v]) for v in set(ms)}
        total = Fraction(0)
        for x, p in dist.table.items():
            if p == 0:
                continue
            term = p
            for v in ms:
                term *= dist.space.values[v - 1][x[v - 1]] - mean[v]
            total += term
        return total

    eta_ri = central((r, i)) / k_rr
    eta_rj = central((r, j)) / k_rr
    lhs = central((i, j) + given)
    rhs = eta_ri * eta_rj * k_rr * central(given) + eta_ri * eta_rj * central(
        (r,) + given
    ) * tau
    # Conditional independence of i, j and the block given r.
    applicable = _conditionally_independent(dist, [di for di in ([i], [j], list(given)) if di], r)
    return RegressionReport(applicable, lhs - rhs, lhs, rhs, eta_ri, eta_rj, tau)


def _conditionally_independent(
    dist: DiscreteDistribution, blocks: Sequence[Sequence[int]], r: int
) -> bool:
    """Whether the blocks are jointly independent given the variable r.

    Each level of r cuts a slice of mass m from the joint table of the
    blocks.  On a slice with mass, the k blocks are independent when every
    cell p has p * m^(k-1) equal to the product of its blocks' marginals,
    each marginal summed in one pass over the slice.
    """
    blocks = [tuple(b) for b in blocks if b]
    slices: dict[int, dict[tuple, Fraction]] = {}
    for x, p in dist.table.items():
        cells = slices.setdefault(x[r - 1], {})
        key = tuple(tuple(x[v - 1] for v in block) for block in blocks)
        cells[key] = cells.get(key, 0) + p
    for cells in slices.values():
        mass = sum(cells.values())
        if mass == 0:
            continue
        marginals: list[dict[tuple, Fraction]] = [{} for _ in blocks]
        for key, p in cells.items():
            for table, part in zip(marginals, key):
                table[part] = table.get(part, 0) + p
        scale = mass ** (len(blocks) - 1)
        for key, p in cells.items():
            if p * scale != math.prod(table[part] for table, part in zip(marginals, key)):
                return False
    return True


def regression_mean_check(dist: DiscreteDistribution, x_var: int, y_var: int) -> Fraction:
    """Max residual of the linear conditional-mean identity for binary Y.

    E[X | Y = y] must equal EX + Cov(X,Y)/Var(Y) (y - EY) at both levels
    of a binary Y; the return value is the largest absolute gap.
    """
    from .moments import conditional_moments

    if dist.space.arities[y_var - 1] != 2:
        raise ValueError("the conditioning variable must be binary")
    mean_x = dist.raw_moment([x_var])
    mean_y = dist.raw_moment([y_var])
    var_y = dist.raw_moment([y_var, y_var]) - mean_y * mean_y
    cov = dist.raw_moment([x_var, y_var]) - mean_x * mean_y
    if var_y == 0:
        raise ValueError("degenerate conditioning variable")
    slope = cov / var_y
    cond = conditional_moments(dist, [x_var], [y_var])
    worst = Fraction(0)
    for (level,), value in cond.items():
        if value is None:
            continue
        y_val = dist.space.values[y_var - 1][level]
        predicted = mean_x + slope * (y_val - mean_y)
        worst = max(worst, abs(value - predicted))
    return worst
