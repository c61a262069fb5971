"""Reference computations for the benchmark's checks, made from CPT rows alone.

Nothing here calls bnras's inference code. A :class:`Model` multiplies the
CPT rows into the joint over the evidence-consistent states, one tensor axis
per free node in declaration order, and derives from it with numpy:

* posteriors and P(evidence);
* the full conditional of every free node, as ratios of joint entries;
* the lazy random-scan kernel (hold 1/2, else redraw one uniformly chosen
  free node) and the cyclic-scan kernel, applied to a law over states as
  tensor operations (dense matrices only for the eigendecomposition and for
  PATH2's four-state dynamic program);
* the exact law of a trial's final state (the uniform start times P^t);
* the exact mean-squared error of a cyclic-scan time average;
* the relative pointwise distance by eigendecomposition of the symmetrised
  lazy kernel (the chain is reversible, so D^1/2 P D^-1/2 is symmetric).
"""

from __future__ import annotations

import functools
import math

import numpy as np


class Model:
    """CPT rows of a network with evidence applied.

    ``rows[i]`` lists node i's CPT rows, the last declared parent varying
    fastest; ``evidence`` maps node names to outcome indices.
    """

    def __init__(self, names, outcomes, parents, rows, evidence):
        index = {name: i for i, name in enumerate(names)}
        arity = [len(o) for o in outcomes]
        n = len(names)
        joint = np.ones(arity)
        for i in range(n):
            axes = [index[p] for p in parents[i]] + [i]
            table = np.asarray(rows[i], dtype=float).reshape([arity[a] for a in axes])
            shape = [1] * n
            for a in axes:
                shape[a] = arity[a]
            joint = joint * table.transpose(np.argsort(axes)).reshape(shape)
        clamp = tuple(evidence.get(name, slice(None)) for name in names)
        self.joint = joint[clamp]
        self.free = [name for name in names if name not in evidence]
        self.outcomes = [outcomes[index[name]] for name in self.free]
        self.evidence_probability = float(self.joint.sum())
        self.pi = self.joint / self.evidence_probability
        self.cond = [self.joint / self.joint.sum(axis=a, keepdims=True)
                     for a in range(len(self.free))]

    @property
    def size(self) -> int:
        return self.joint.size

    def marginals(self, law: np.ndarray) -> list[np.ndarray]:
        """Per free node, the marginal of a law over the free states."""
        axes = range(law.ndim)
        return [law.sum(axis=tuple(b for b in axes if b != a)) for a in axes]

    def posteriors(self) -> list[np.ndarray]:
        return self.marginals(self.pi)

    def errors(self, marginals) -> tuple[float, float]:
        """(avg_error, max_error) of marginals against the posteriors, over
        every free (node, outcome) pair, as bnras's CSV defines them."""
        diffs = np.concatenate([np.abs(m - p) for m, p in zip(marginals, self.posteriors())])
        return float(diffs.mean()), float(diffs.max())

    # -- mixing inputs -------------------------------------------------------

    @property
    def pi_min(self) -> float:
        return float(self.pi.min())

    @property
    def p0(self) -> float:
        """Smallest off-diagonal one-step probability of the lazy kernel.
        Every conditional entry q_a(v | rest) is the probability of moving
        to value v from each other value of node a, times 1/(2n)."""
        return min(float(c.min()) for c in self.cond) / (2 * len(self.free))

    # -- kernels -------------------------------------------------------------

    def uniform(self) -> np.ndarray:
        return np.full(self.joint.shape, 1.0 / self.size)

    def redraw(self, law: np.ndarray, a: int) -> np.ndarray:
        """Law after redrawing free node a from its full conditional. A
        trailing axis beyond the state axes is carried along."""
        cond = self.cond[a]
        if law.ndim > cond.ndim:
            cond = cond[..., None]
        return cond * law.sum(axis=a, keepdims=True)

    def lazy_step(self, law: np.ndarray) -> np.ndarray:
        n = len(self.free)
        moved = sum(self.redraw(law, a) for a in range(n))
        return 0.5 * law + (0.5 / n) * moved

    def trial_law(self, t: int) -> np.ndarray:
        """Exact law of a trial's final state: uniform start, t lazy steps."""
        law = self.uniform()
        for _ in range(t):
            law = self.lazy_step(law)
        return law

    def cyclic_mse(self, total: int) -> np.ndarray:
        """Exact mean-squared error of each (node, outcome) time average of
        cyclic-scan simulation after `total` scored steps (one outcome per
        binary node).

        The chain starts uniform, redraws free node (s-1) mod n at step s and
        scores the state after every step. With g = indicator - posterior,
        the recursion carries the law mu_s and nu_s(x) = E[(sum of g up to
        s) 1{X_s = x}], so E[(sum of g)^2] accumulates exactly in one
        forward pass.
        """
        n = len(self.free)
        shape = self.joint.shape
        columns = []
        for a, post in enumerate(self.posteriors()):
            # a binary node's two errors are equal; one column stands for both
            for v in range(1 if len(post) == 2 else len(post)):
                column = np.zeros(shape)
                np.moveaxis(column, a, 0)[v] = 1.0
                columns.append(column - post[v])
        g = np.stack(columns, axis=-1)
        mu = self.uniform()
        nu = np.zeros(g.shape)
        square = np.zeros(g.shape[-1])
        state_axes = tuple(range(len(shape)))
        for s in range(total):
            a = s % n
            mu = self.redraw(mu, a)
            nu = self.redraw(nu, a)
            weighted = mu[..., None] * g
            square += ((2.0 * nu + weighted) * g).sum(axis=state_axes)
            nu += weighted
        return square / (total * total)

    def cyclic_kernel(self, a: int) -> np.ndarray:
        """Dense matrix of the redraw of free node a (small state spaces)."""
        m = self.size
        return np.stack([self.redraw(row.reshape(self.joint.shape), a).ravel()
                         for row in np.eye(m)])

    def lazy_matrix(self) -> np.ndarray:
        """Dense lazy kernel, rows indexed like the flattened state tensor."""
        n = len(self.free)
        flat = np.arange(self.size).reshape(self.joint.shape)
        matrix = 0.5 * np.eye(self.size)
        for a, cond in enumerate(self.cond):
            for v in range(self.joint.shape[a]):
                target = np.broadcast_to(np.take(flat, [v], axis=a), flat.shape)
                weight = np.broadcast_to(np.take(cond, [v], axis=a), flat.shape)
                matrix[flat.ravel(), target.ravel()] += (0.5 / n) * weight.ravel()
        return matrix

    def rpd(self, ts) -> dict[int, float]:
        """max over (x, y) of |P^t(x, y) / pi(y) - 1| for each t, from one
        eigendecomposition of D^1/2 P D^-1/2."""
        pi = self.pi.ravel()
        root = np.sqrt(pi)
        sym = root[:, None] * self.lazy_matrix() / root[None, :]
        values, vectors = np.linalg.eigh((sym + sym.T) / 2)
        top = np.argmax(values)  # the eigenvalue 1, eigenvector sqrt(pi)
        keep = np.arange(len(values)) != top
        values, vectors = values[keep], vectors[:, keep]
        scaled = vectors / root[:, None]
        return {t: float(np.abs((scaled * values**t) @ scaled.T).max()) for t in ts}


def network_tables(net) -> tuple:
    """(names, outcomes, parents, CPT rows) read off a parsed bnras network."""
    return ([nd.name for nd in net.nodes], [nd.outcomes for nd in net.nodes],
            [nd.parents for nd in net.nodes], [nd.cpt.rows for nd in net.nodes])


# -- closed-form bounds, written out from their definitions ---------------------


def trials_bound(alpha, delta):
    return math.ceil(1.0 / (4.0 * delta * alpha * alpha))


def mixing_ratio(gamma, pi_min, p0):
    return (math.log(gamma) + math.log(pi_min)) / math.log(1.0 - p0 * p0 / 8.0)


def t_per_trial(alpha, delta, gamma, pi_min, p0):
    first = math.ceil(4.0 * (1.0 + gamma) ** 3 / (3.0 * alpha * alpha))
    second = 12 * math.ceil(-math.log(delta)) + 1
    return math.ceil(first * second * mixing_ratio(gamma, pi_min, p0))


def factored_inputs(names, parents, rows, evidence) -> tuple[float, float]:
    """The certified lower bounds (pi_lb, p0_lb) from table entries alone:
    pi_lb multiplies every node's least entry; p0_lb takes, over free nodes,
    the least m / (k M) with m and M the products of least and greatest
    entries over the node and its children, divided by 2n."""
    least = {name: min(min(r) for r in rws) for name, rws in zip(names, rows)}
    most = {name: max(max(r) for r in rws) for name, rws in zip(names, rows)}
    arity = {name: len(rws[0]) for name, rws in zip(names, rows)}
    children = {name: [c for c, ps in zip(names, parents) if name in ps] for name in names}
    free = [name for name in names if name not in evidence]
    worst = min(
        math.prod(least[m] for m in [name] + children[name])
        / (arity[name] * math.prod(most[m] for m in [name] + children[name]))
        for name in free
    )
    return math.prod(least.values()), worst / (2 * len(free))


# -- exact laws for PATH2-style small chains --------------------------------------


def cyclic_average_pmfs(model: Model, total: int) -> list[np.ndarray]:
    """Per free node, the exact pmf of how many of the `total` scored
    cyclic-scan states give it its first outcome. Dynamic programming over
    (state, count); meant for chains of a few states."""
    kernels = [model.cyclic_kernel(a) for a in range(len(model.free))]
    start = model.uniform().ravel()
    pmfs = []
    for a in range(len(model.free)):
        hit = (np.indices(model.joint.shape)[a] == 0).ravel()
        prob = np.zeros((model.size, total + 1))
        prob[:, 0] = start
        for s in range(total):
            live = prob[:, : s + 2]
            live[:] = kernels[s % len(kernels)].T @ live
            live[hit, 1:] = live[hit, :-1]
            live[hit, 0] = 0.0
        pmfs.append(prob.sum(axis=0))
    return pmfs


def error_law(pmf: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of |c/total - p| ascending, with their probabilities
    (values equal up to rounding merged)."""
    total = len(pmf) - 1
    err = np.round(np.abs(np.arange(total + 1) / total - p), 12)
    values, inverse = np.unique(err, return_inverse=True)
    return values, np.bincount(inverse, weights=pmf)


def sweep_flip_probability(model: Model, a: int, warm_sweeps: int) -> float:
    """Probability that free node a changes value during one cyclic sweep,
    the sweep starting after `warm_sweeps` sweeps from the uniform start."""
    sweep = functools.reduce(np.matmul, [model.cyclic_kernel(b) for b in range(len(model.free))])
    law = model.uniform().ravel()
    for _ in range(warm_sweeps):
        law = law @ sweep
    value = np.indices(model.joint.shape)[a].ravel()
    changed = value[:, None] != value[None, :]
    return float(law @ (sweep * changed).sum(axis=1))


# -- tail probabilities -----------------------------------------------------------


def binomial_pmf(trials: int, p: float) -> np.ndarray:
    k = np.arange(trials + 1)
    log = (np.array([math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                     for j in k]) + k * math.log(p) + (trials - k) * math.log1p(-p))
    return np.exp(log)


def binomial_band(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2
    for X ~ Binomial(trials, p)."""
    pmf = binomial_pmf(trials, p)
    below = np.cumsum(pmf)
    lo = int(np.searchsorted(below, alpha / 2, side="right"))
    above = np.cumsum(pmf[::-1])
    hi = trials - int(np.searchsorted(above, alpha / 2, side="right"))
    return lo, hi


def binomial_tail(trials: int, p: float, k: int) -> float:
    """P(Binomial(trials, p) >= k)."""
    return float(binomial_pmf(trials, p)[k:].sum())


def hoeffding_epsilon(trials: int, pairs: int, delta: float) -> float:
    """Half-width that every one of `pairs` empirical frequencies over
    `trials` independent trials stays within, with probability >= 1-delta
    (Hoeffding's inequality and a union bound)."""
    return math.sqrt(math.log(2 * pairs / delta) / (2 * trials))
