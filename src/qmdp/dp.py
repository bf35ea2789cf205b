"""Functional backward induction and functional value iteration.

Instead of scalar state values, every state carries a step function of
wealth: ``V_t(s, .)`` is the best probability of ending with wealth above
the target, as a function of the wealth accumulated so far.  The backward
update pulls each successor slice through the wealth accumulation (shift),
mixes successors with the kernel (combine), and takes the per-action upper
envelope (pointwise_max); the envelope's argmax, an integer-valued step
function of wealth, is exactly the greedy wealth-Markovian decision rule.

Finite horizons run T sweeps (:func:`backward_induction`).  Infinite
horizons with uniformly signed rewards and undiscounted additive wealth
iterate the same sweep to convergence (:func:`value_iteration`) and return
a stationary policy.  Wealth then moves one way from ``w0``, so the slices
are clipped to the reachable side of it (:func:`reachable_window`), where
the clip is exact.  By translation, one clipped run at target t holds the
value at ``w0`` of every target above t (nonpositive rewards) or below t
(nonnegative rewards).

Ordinal wealth over n classes also has a dense form: a slice is a
length-n vector, and the slices of many targets stack into one array, so
one batched backward induction gives the optimal exceedance probability
of every class threshold, and one at a single threshold the policy
(:class:`OrdinalSweep`).
"""

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .stepfun import (StepFunction, combine, pointwise_max, restrict, shift,
                      sup_distance, target_utility)
from .wealth import AdditiveWealth, OrdinalWealth


class ValueFunction:
    """Per-timestep, per-state wealth slices.

    ``slices[t][s]`` for t in 0..T; layer T is the terminal target utility.
    A value-iteration result holds one stationary layer, ``slices[0]``, and
    the number of sweeps that produced it.
    """

    def __init__(self, slices, sweeps=None):
        self.slices = slices
        self.sweeps = sweeps


class WealthMarkovPolicy:
    """Deterministic policy whose decision rules map (state, wealth) to actions.

    ``rules[t][s]`` is an integer-valued :class:`StepFunction` over wealth
    keys; stationary policies store a single per-state list and ignore ``t``.
    """

    def __init__(self, rules, stationary=False):
        self.rules = rules
        self.stationary = stationary

    @classmethod
    def from_markov(cls, actions, stationary=False):
        """Wrap a plain (wealth-independent) Markov policy.

        ``actions`` is a per-timestep list of per-state action indices, or
        a single per-state list when stationary.
        """
        if stationary:
            return cls([StepFunction.constant(int(a)) for a in actions],
                       stationary=True)
        return cls([[StepFunction.constant(int(a)) for a in row]
                    for row in actions])

    def rule(self, t, s):
        return self.rules[s] if self.stationary else self.rules[t][s]

    def action(self, t, s, w_key):
        return self.rule(t, s)(w_key)

    def action_many(self, t, s, w_keys):
        return self.rule(t, s).eval_many(w_keys)

    def __repr__(self):
        if self.stationary:
            return f"WealthMarkovPolicy(stationary, {len(self.rules)} states)"
        return (f"WealthMarkovPolicy({len(self.rules)} steps x "
                f"{len(self.rules[0]) if self.rules else 0} states)")


def _greedy_update(m, space, nxt, t):
    """One backward sweep at timestep t against the layer-(t+1) slices.

    Returns (slices, rules): the layer-t value slices and the greedy
    argmax decision rule per state (lowest action index on ties).
    """
    slices = []
    rules = []
    sa_rewards = m.reward_kind == "sa"
    for s in range(m.n_states):
        qs = []
        for a in range(m.n_actions):
            succ = m.successors(s, a)
            prob = m.probabilities(s, a)
            if sa_rewards:
                mixed = combine([(prob[i], nxt[succ[i]])
                                 for i in range(len(succ))])
                qs.append(shift(mixed, m.reward(s, a), t, space))
            else:
                rs = m.edge_rewards(s, a)
                qs.append(combine([(prob[i], shift(nxt[succ[i]], rs[i], t, space))
                                   for i in range(len(succ))]))
        env, rule = pointwise_max(qs)
        slices.append(env)
        rules.append(rule)
    return slices, rules


def backward_induction(m, space, w, strict):
    """Maximize the probability of terminal wealth above ``w``.

    ``strict`` selects the strict indicator target (lower-quantile mode);
    non-strict is the upper-quantile mode.  Returns ``(policy, p, vf)``
    where p is the optimal exceedance probability from the initial state
    and vf the full per-timestep value table.
    """
    if m.horizon is None:
        raise ConfigurationError(
            "backward_induction needs a finite horizon; "
            "use value_iteration for infinite-horizon problems")
    T = m.horizon
    terminal = target_utility(space.key(w), strict)
    slices = [None] * (T + 1)
    slices[T] = [terminal] * m.n_states
    rules = [None] * T
    for t in range(T - 1, -1, -1):
        slices[t], rules[t] = _greedy_update(m, space, slices[t + 1], t)
    p = slices[0][m.initial_state](space.key(space.w0))
    return (WealthMarkovPolicy(rules), float(p), ValueFunction(slices))


# Float64 entries in one gather of the dense ordinal sweep: (s, a) pairs x
# edges per pair x classes x thresholds.  OrdinalSweep.exceedance processes
# the thresholds in blocks that stay under it.
ORDINAL_BLOCK_FLOATS = 1 << 20


class OrdinalSweep:
    """Dense backward induction over the n classes of an ordinal space.

    A slice over n classes is a length-n vector, so the slices of J
    targets stack into one (S * n, J) array.  Each layer gathers the
    successor values through the class-transition table, mixes them per
    (s, a) and takes the max over actions.  The gather tables are built
    once, from every edge of m: ``idx[sa, i, k]`` is the flat
    (state, class) row that edge i of pair sa reaches from class k, and
    ``prob[sa, i]`` its probability.  Pairs with fewer edges than the
    widest one are padded with zero-probability edges, so a plain sum over
    edge slots mixes the successors.
    """

    def __init__(self, m, space):
        if m.horizon is None:
            raise ConfigurationError("the dense ordinal sweep needs a finite horizon")
        if not isinstance(space, OrdinalWealth):
            raise ConfigurationError("the dense ordinal sweep needs ordinal wealth")
        self.m = m
        self.n = n = len(space.classes)
        self.row0 = m.initial_state * n + space.index(space.w0)
        counts = np.diff(m.starts)
        real = np.arange(counts.max()) < counts[:, None]
        rows = {r: i for i, r in enumerate(dict.fromkeys(m.rewards))}
        moves = np.array([space.move_table(r) for r in rows], dtype=np.intp)
        self.idx = np.zeros(real.shape + (n,), dtype=np.intp)
        self.idx[real] = m.succ[:, None] * n + moves[[rows[r] for r in m.rewards]]
        self.prob = np.zeros(real.shape + (1, 1))
        self.prob[real, 0, 0] = m.prob

    def _terminal(self, targets, strict):
        """Terminal slices (S * n, J): 1 on the classes above each target."""
        k = np.arange(self.n)[:, None]
        hit = (k > targets) if strict else (k >= targets)
        return np.tile(hit.astype(np.float64), (self.m.n_states, 1))

    def _q(self, V):
        """Action values (S, A, n, J) of one backward step from slices V."""
        g = V[self.idx]
        g *= self.prob
        return g.sum(axis=1).reshape(self.m.n_states, self.m.n_actions, -1,
                                     V.shape[1])

    def exceedance(self, targets, strict):
        """Optimal exceedance probability from (s0, w0) at every class target.

        Entry j equals ``backward_induction(m, space, class targets[j],
        strict)[1]``.
        """
        targets = np.asarray(targets, dtype=np.intp)
        block = max(1, ORDINAL_BLOCK_FLOATS // self.idx.size)
        p = np.empty(len(targets))
        for b in range(0, len(targets), block):
            V = self._terminal(targets[b:b + block], strict)
            for _ in range(self.m.horizon):
                V = self._q(V).max(axis=1).reshape(-1, V.shape[1])
            p[b:b + block] = V[self.row0]
        return p

    def backward_induction(self, target, strict, keep_value_function=False):
        """:func:`backward_induction` at one class target.

        Returns ``(policy, p, vf)``: the greedy argmax rows (lowest action
        on ties) become the integer rules; vf holds the slices as step
        functions when ``keep_value_function`` is set, and is None
        otherwise.
        """
        m, T = self.m, self.m.horizon
        V = self._terminal(np.array([target]), strict)
        slices = [None] * (T + 1)
        slices[T] = [target_utility(target, strict)] * m.n_states
        rules = [None] * T
        for t in range(T - 1, -1, -1):
            q = self._q(V)[..., 0]
            rules[t] = [StepFunction.on_classes(row) for row in q.argmax(axis=1)]
            V = q.max(axis=1)
            if keep_value_function:
                slices[t] = [StepFunction.on_classes(row) for row in V]
            V = V.reshape(-1, 1)
        return (WealthMarkovPolicy(rules), float(V[self.row0, 0]),
                ValueFunction(slices) if keep_value_function else None)


def reachable_window(m, space):
    """``(lo, hi)`` keys bounding the wealth an infinite run can reach.

    Uniformly signed rewards move wealth one way from ``w0``: never above
    it when they are nonpositive (or zero), never below it when they are
    nonnegative.  The open side is None; ``restrict(f, lo, hi)`` collapses
    the cut structure of ``f`` outside the window.
    """
    sign = m.reward_sign()
    if sign == "mixed":
        raise ConfigurationError(
            "infinite-horizon solves need uniformly signed rewards "
            "(all <= 0 or all >= 0)")
    w0_key = space.key(space.w0)
    return (w0_key, None) if sign == "nonnegative" else (None, w0_key)


def value_iteration(m, space, w, strict, eps_conv=1e-6, max_sweeps=10000):
    """Infinite-horizon variant: iterate the sweep until the slices settle.

    Requires undiscounted additive wealth and uniformly signed rewards
    (all <= 0, or all >= 0 — the two cases in which stationary
    deterministic wealth-Markovian optima exist).  Stops when
    ``max_s sup_distance(V_k(s,.), V_{k-1}(s,.)) <= eps_conv`` and returns
    ``(stationary_policy, p, vf)``: ``vf.slices[0]`` holds the converged
    slices, clipped to :func:`reachable_window`, and ``vf.sweeps`` the
    number of sweeps.  The policy is the greedy rule of the last sweep,
    taken against the iterate within ``eps_conv`` of the returned slices.
    """
    if m.horizon is not None:
        raise ConfigurationError(
            "value_iteration is for infinite-horizon problems; "
            "use backward_induction for finite horizons")
    if not isinstance(space, AdditiveWealth):
        raise ConfigurationError(
            "the stationary sweep needs a time-homogeneous wealth update: "
            "only undiscounted additive wealth is supported")
    # Slices only ever get evaluated on the reachable side of w0;
    # collapsing the other side is exact there and is what makes the
    # sup-residual converge.
    window = reachable_window(m, space)
    V = [restrict(target_utility(space.key(w), strict), *window)] * m.n_states
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        new_V, rules = _greedy_update(m, space, V, 0)
        new_V = [restrict(f, *window) for f in new_V]
        residual = max(sup_distance(new_V[s], V[s]) for s in range(m.n_states))
        V = new_V
        if residual <= eps_conv:
            policy = WealthMarkovPolicy(rules, stationary=True)
            p = V[m.initial_state](space.key(space.w0))
            return policy, float(p), ValueFunction([V], sweeps=sweep)
    raise ConvergenceError(
        f"no convergence after {max_sweeps} sweeps "
        f"(last residual {residual:.3g} > {eps_conv:.3g})",
        residual=residual, sweeps=max_sweeps)
