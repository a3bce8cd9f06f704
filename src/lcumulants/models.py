"""Model builders and exact identity verifiers.

Three constructions are covered: the two-state latent tree model (a
Bayesian network on a rooted binary tree, marginalized to the leaves),
its one-latent-class special case written as a rank-two mixture chart,
and processes whose observations are independent given an unobserved
two-state Markov chain.  Verifiers return exact residuals rather than
booleans so that callers in float mode can apply their own tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .moments import (
    MOMENTS,
    CoordinateVector,
    DiscreteDistribution,
    StateSpace,
)
from .topology import TreeTopology, caterpillar
from .trees import GMMParams, exact_sqrt, subset_tree_cumulants


# -- latent tree distributions -------------------------------------------------


def gmm_distribution(tree: TreeTopology, params: GMMParams) -> DiscreteDistribution:
    """Leaf marginal of the binary Bayesian network on a rooted tree.

    One upward (sum-product) pass: a node's message maps each state of the
    leaves below it to their probabilities given the node in state 0 and
    in state 1.  It is the outer product of the children's messages, each
    summed over the child's state through its edge table, and the root
    distribution closes the pass.
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
    for child, parent in tree.parent_map().items():
        children[parent].append(child)

    def upward(v: object) -> tuple[tuple[int, ...], dict]:
        # A leaf shows its own state, also when it is the root.
        leaves, msg = ((v,), {(0,): (1, 0), (1,): (0, 1)}) if isinstance(v, int) else ((), {(): (1, 1)})
        for c in children[v]:
            c_leaves, c_msg = upward(c)
            p0, p1 = params.tables[(v, c)]
            c_msg = {k: ((1 - p0) * q0 + p0 * q1, (1 - p1) * q0 + p1 * q1) for k, (q0, q1) in c_msg.items()}
            leaves += c_leaves
            msg = {
                k + ck: (a0 * b0, a1 * b1) for k, (a0, a1) in msg.items() for ck, (b0, b1) in c_msg.items()
            }
        return leaves, msg

    leaves, msg = upward(tree.root)
    perm = sorted(range(len(leaves)), key=lambda j: leaves[j])
    r0, r1 = params.root_dist
    table = {tuple(key[j] for j in perm): r0 * q0 + r1 * q1 for key, (q0, q1) in msg.items()}
    return DiscreteDistribution(StateSpace.binary(n), table)


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


@dataclass(frozen=True)
class SecantParams:
    """Mixing weight t and the two component mean vectors a, b.

    The chart is affine (the empty-index coordinate is one); nothing
    constrains the entries to be probabilities, so algebraic points are
    fine.
    """

    t: Fraction
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("component mean vectors must have equal length")

    @property
    def n(self) -> int:
        return len(self.a)


def secant_moments(params: SecantParams) -> CoordinateVector:
    """Moments of the two-component mixture: (1-t) prod a + t prod b."""
    n = params.n
    space = StateSpace.binary(n)
    t = Fraction(params.t)
    entries: dict[tuple[int, ...], Fraction] = {}
    for x in space.states():
        pa = Fraction(1)
        pb = Fraction(1)
        for i, e in enumerate(x):
            if e:
                pa *= params.a[i]
                pb *= params.b[i]
        entries[x] = (1 - t) * pa + t * pb
    return CoordinateVector(space, MOMENTS, entries)


def secant_tree_cumulants(params: SecantParams) -> dict[tuple[int, ...], Fraction]:
    """Closed-form caterpillar tree cumulants of the mixture chart.

    Order one gives the mixed means; an index set of size d >= 2 gives
    t(1-t)(1-2t)^(d-2) times the product of the component mean gaps.
    """
    if params.n < 2:
        raise ValueError("need at least two variables")
    t = Fraction(params.t)
    out: dict[tuple[int, ...], Fraction] = {}
    for r in range(1, params.n + 1):
        for support in itertools.combinations(range(1, params.n + 1), r):
            if r == 1:
                i = support[0] - 1
                out[support] = (1 - t) * params.a[i] + t * params.b[i]
                continue
            value = t * (1 - t) * (1 - 2 * t) ** (r - 2)
            for i in support:
                value *= params.b[i - 1] - params.a[i - 1]
            out[support] = value
    return out


# -- split binomials --------------------------------------------------------------


@dataclass
class BinomialReport:
    split: tuple[tuple[int, ...], tuple[int, ...]]
    checked: int
    violations: list[tuple[tuple[tuple[int, ...], ...], Fraction]]

    @property
    def max_abs_residual(self) -> Fraction:
        return max((abs(r) for _, r in self.violations), default=Fraction(0))

    @property
    def all_zero(self) -> bool:
        return not self.violations


def _nonempty_subsets(pool: Sequence[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for r in range(1, len(pool) + 1):
        out.extend(itertools.combinations(pool, r))
    return out


def verify_split_binomials(
    tree_cums: Mapping[tuple[int, ...], Fraction] | CoordinateVector,
    side_a: Sequence[int],
    side_b: Sequence[int],
) -> BinomialReport:
    """Evaluate every rank-one 2x2 determinant attached to a split A|B.

    For nonempty I, I' in A and J, J' in B the residual is
    t(I+J) t(I'+J') - t(I+J') t(I'+J); all residuals vanish exactly on
    points of a tree model realizing the split across an edge.  The
    flattening matrix of t(I+J) is read once, then every minor in turn.
    """
    if isinstance(tree_cums, CoordinateVector):
        values = {
            tree_cums.space.index_multiset(x): v for x, v in tree_cums.entries.items()
        }
    else:
        values = dict(tree_cums)
    side_a, side_b = tuple(sorted(side_a)), tuple(sorted(side_b))
    if set(side_a) & set(side_b):
        raise ValueError("split sides overlap")
    subsets_a = _nonempty_subsets(side_a)
    subsets_b = _nonempty_subsets(side_b)
    flat = [[values[tuple(sorted(I + J))] for J in subsets_b] for I in subsets_a]
    violations = []
    for (I, row), (I2, row2) in itertools.product(zip(subsets_a, flat), repeat=2):
        for j, j2 in itertools.product(range(len(subsets_b)), repeat=2):
            residual = row[j] * row2[j2] - row[j2] * row2[j]
            if residual != 0:
                violations.append(((I, subsets_b[j], I2, subsets_b[j2]), residual))
    checked = len(subsets_a) ** 2 * len(subsets_b) ** 2
    return BinomialReport((side_a, side_b), checked, violations)


# -- hidden two-state chains --------------------------------------------------------


@dataclass(frozen=True)
class HMMParams:
    """A binary hidden chain with per-position emissions.

    ``initial`` is the distribution of the first hidden state;
    ``transitions[i]`` holds ``(p(H_{i+2}=1 | H_{i+1}=0), p(.. | 1))``.
    ``emissions[i]`` is a pair of rows, one per hidden state, each a
    distribution over the levels of the observed variable; the observed
    state space carries the value maps.
    """

    space: StateSpace
    initial: tuple[Fraction, Fraction]
    transitions: tuple[tuple[Fraction, Fraction], ...]
    emissions: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]

    def __post_init__(self):
        n = self.space.n
        if len(self.transitions) != n - 1 or len(self.emissions) != n:
            raise ValueError("need n-1 transition rows and n emission tables")
        if sum(self.initial) != 1:
            raise ValueError("initial distribution must sum to one")
        for i, (row0, row1) in enumerate(self.emissions):
            if len(row0) != self.space.arities[i] or len(row1) != self.space.arities[i]:
                raise ValueError(f"emission table {i} does not match the arity")
            if sum(row0) != 1 or sum(row1) != 1:
                raise ValueError(f"emission rows of variable {i + 1} must sum to one")

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


def hmm_distribution(params: HMMParams) -> DiscreteDistribution:
    """Exact joint law of the observations by forward recursion."""
    if any(m in (0, 1) for m in params.hidden_means()):
        raise ValueError("degenerate hidden state")
    space = params.space
    n = params.n
    table: dict[tuple[int, ...], Fraction] = {}
    for x in space.states():
        alpha = [
            params.initial[h] * params.emissions[0][h][x[0]] for h in (0, 1)
        ]
        for i in range(1, n):
            a0, a1 = params.transitions[i - 1]
            step = ((1 - a0, a0), (1 - a1, a1))
            alpha = [
                sum(
                    (alpha[h] * step[h][h2] for h in (0, 1)),
                    Fraction(0),
                )
                * params.emissions[i][h2][x[i]]
                for h2 in (0, 1)
            ]
        table[x] = alpha[0] + alpha[1]
    return DiscreteDistribution(space, table)


def hmm_tree_cumulants_closed(params: HMMParams) -> dict[tuple[int, ...], Fraction]:
    """Rational closed form for the caterpillar tree cumulants of the chain.

    Collecting the variance normalizations of the correlation/skewness
    parametrization onto one denominator leaves a square-root-free
    expression: the numerator multiplies the chain's third central moments
    over the inner indices, its step covariances across the whole index
    span, and the hidden-observed covariances; the denominator multiplies
    cubed hidden variances at inner indices, plain ones at the endpoints
    and at skipped positions, and nothing else.
    """
    v = params.hidden_variances()
    t3 = params.hidden_third_central()
    c = params.hidden_step_covariances()
    e = params.hidden_observed_covariances()
    x_means = params.observed_means()
    if any(val == 0 for val in v):
        raise ValueError("degenerate hidden state")
    out: dict[tuple[int, ...], Fraction] = {}
    n = params.n
    for r in range(1, n + 1):
        for support in itertools.combinations(range(1, n + 1), r):
            if r == 1:
                out[support] = x_means[support[0] - 1]
                continue
            first, last = support[0], support[-1]
            num = Fraction(1)
            for j in support[1:-1]:
                num *= t3[j - 1]
            for m in range(first, last):
                num *= c[m - 1]
            for i in support:
                num *= e[i - 1]
            den = v[first - 1] * v[last - 1]
            for j in support[1:-1]:
                den *= v[j - 1] ** 3
            for m in range(first + 1, last):
                if m not in support:
                    den *= v[m - 1]
            out[support] = num / den
    return out


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


def hmm_pipeline_tree_cumulants(params: HMMParams) -> dict[tuple[int, ...], Fraction]:
    """Oracle route: joint law, then caterpillar tree cumulants of subsets."""
    dist = hmm_distribution(params)
    return subset_tree_cumulants(dist, caterpillar(params.n))


# -- conditional regression identities ------------------------------------------


@dataclass
class RegressionReport:
    applicable: bool
    residual: Fraction
    lhs: Fraction
    rhs: Fraction
    eta_ri: Fraction = Fraction(0)
    eta_rj: Fraction = Fraction(0)
    tau: Fraction = Fraction(0)


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
    from .moments import marginal

    blocks = [tuple(b) for b in blocks if b]
    flat = tuple(sorted(v for b in blocks for v in b))
    joint = marginal(dist, flat + (r,))
    ordering = sorted(flat + (r,))
    pos = {v: ordering.index(v) + 1 for v in flat + (r,)}
    for level in range(2):
        # slice on r == level
        mass = Fraction(0)
        slice_table: dict[tuple[int, ...], Fraction] = {}
        for x, p in joint.table.items():
            if x[pos[r] - 1] == level:
                key = tuple(x[pos[v] - 1] for v in flat)
                slice_table[key] = slice_table.get(key, Fraction(0)) + p
                mass += p
        if mass == 0:
            continue
        conditional = {k: v / mass for k, v in slice_table.items()}
        # check product structure across blocks
        for assignment, p in conditional.items():
            prod = Fraction(1)
            for block in blocks:
                sub_mass = Fraction(0)
                for other, q in conditional.items():
                    if all(
                        other[flat.index(v)] == assignment[flat.index(v)] for v in block
                    ):
                        sub_mass += q
                prod *= sub_mass
            if prod != p:
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
