"""Exact and simulated policy evaluation, the brute-force oracle, and the
expectation baseline.

These are the tools the solver is verified against: forward passes compute
a policy's exact terminal-wealth distribution, from which cumulatives,
decumulatives and both quantile variants follow by partial sums; the
brute-force oracle enumerates every deterministic wealth-Markovian policy
of a small instance; and classic backward induction supplies the
expectation-optimal baseline policy.
"""

import itertools
from collections import defaultdict

import numpy as np

from .dp import WealthMarkovPolicy
from .errors import ConfigurationError, ResourceLimitError
from .stepfun import StepFunction
from .wealth import WEALTH_TOL

QUANT_ATOL = 1e-12   # slack when comparing partial sums against tau


class WealthDistribution:
    """Finite terminal-wealth distribution of a policy.

    Support is held as sorted wealth keys with positive probabilities;
    atoms closer than the wealth tolerance are merged onto the smaller
    representative.
    """

    def __init__(self, space, keys, probs):
        self.space = space
        self.keys = np.asarray(keys, dtype=np.float64)
        self.probs = np.asarray(probs, dtype=np.float64)
        self._prefix = np.cumsum(self.probs)

    @classmethod
    def from_atoms(cls, space, atoms):
        """Build from (wealth key, mass) pairs (any iterable or dict)."""
        if isinstance(atoms, dict):
            atoms = atoms.items()
        pairs = sorted((float(k), float(p)) for k, p in atoms)
        keys, probs = [], []
        for k, p in pairs:
            if p < 0:
                raise ValueError(f"negative probability {p!r} at wealth {k!r}")
            if p == 0.0:
                continue
            if keys and k - keys[-1] <= WEALTH_TOL:
                probs[-1] += p
            else:
                keys.append(k)
                probs.append(p)
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        return cls(space, keys, probs)

    @property
    def support(self):
        """[(wealth, probability)] in increasing wealth order."""
        return [(self.space.unkey(k), float(p))
                for k, p in zip(self.keys, self.probs)]

    def __len__(self):
        return len(self.keys)

    def total(self):
        return float(self._prefix[-1]) if len(self.keys) else 0.0

    # -- cumulatives ----------------------------------------------------

    def cdf(self, w):
        """P[wealth <= w] (exact partial sum)."""
        k = self.space.key(w)
        idx = np.searchsorted(self.keys, k + WEALTH_TOL)
        return float(self._prefix[idx - 1]) if idx else 0.0

    def decumulative(self, w):
        """P[wealth >= w]."""
        k = self.space.key(w)
        idx = np.searchsorted(self.keys, k - WEALTH_TOL)
        below = float(self._prefix[idx - 1]) if idx else 0.0
        return self.total() - below

    def strict_decumulative(self, w):
        """P[wealth > w] = 1 - cdf(w)."""
        return 1.0 - self.cdf(w)

    # -- quantiles --------------------------------------------------------

    def quantile(self, tau, criterion):
        """Lower or upper tau-quantile of the distribution.

        lower: least wealth with cdf >= tau (tau in (0, 1]);
        upper: greatest wealth with decumulative >= 1 - tau (tau in [0, 1)).
        """
        if criterion == "lower":
            if not 0.0 < tau <= 1.0:
                raise ValueError(f"lower quantile needs tau in (0, 1], got {tau}")
            idx = int(np.searchsorted(self._prefix, tau - QUANT_ATOL))
            idx = min(idx, len(self.keys) - 1)
            return self.space.unkey(self.keys[idx])
        if criterion == "upper":
            if not 0.0 <= tau < 1.0:
                raise ValueError(f"upper quantile needs tau in [0, 1), got {tau}")
            g = self.total() - self._prefix + self.probs
            hits = np.flatnonzero(g >= (1.0 - tau) - QUANT_ATOL)
            return self.space.unkey(self.keys[hits[-1]])
        raise ValueError(f"criterion must be 'lower' or 'upper', got {criterion!r}")

    def mean(self):
        if self.space.kind == "ordinal":
            raise ConfigurationError("mean is not defined on ordinal wealth")
        return float(self.keys @ self.probs)


def _merge_state_atoms(masses):
    """Per-state tolerance merge of (state, wealth-key) -> mass maps."""
    by_state = defaultdict(list)
    for (s, k), mass in masses.items():
        by_state[s].append((k, mass))
    out = {}
    for s, atoms in by_state.items():
        atoms.sort()
        rep = None
        for k, mass in atoms:
            if rep is not None and k - rep <= WEALTH_TOL:
                out[(s, rep)] += mass
            else:
                rep = k
                out[(s, rep)] = mass
    return out


def exact_distribution(m, space, policy, atom_cap=10_000_000):
    """Forward pass over reachable (t, state, wealth) atoms under a policy.

    Exact atom bookkeeping with tolerance merging per state; raises
    :class:`ResourceLimitError` when the reachable atom count exceeds
    ``atom_cap`` (use :func:`simulate` for a Monte Carlo estimate then).
    """
    if m.horizon is None:
        raise ConfigurationError("exact_distribution needs a finite horizon")
    layer = {(m.initial_state, space.key(space.w0)): 1.0}
    for t in range(m.horizon):
        nxt = defaultdict(float)
        for (s, wk), mass in layer.items():
            a = policy.action(t, s, wk)
            succ = m.successors(s, a)
            prob = m.probabilities(s, a)
            rs = m.edge_rewards(s, a)
            for i in range(len(succ)):
                p = prob[i]
                if p == 0.0:
                    continue
                nxt[(int(succ[i]), space.accumulate_key(wk, rs[i], t))] += mass * p
        layer = _merge_state_atoms(nxt)
        if len(layer) > atom_cap:
            raise ResourceLimitError(
                f"{len(layer)} reachable atoms at step {t + 1} exceed the cap "
                f"{atom_cap}; use simulate() for a Monte Carlo estimate")
    final = defaultdict(float)
    for (_, wk), mass in layer.items():
        final[wk] += mass
    return WealthDistribution.from_atoms(space, final)


def simulate(m, space, policy, n, seed=0):
    """Sample n terminal wealth keys under a policy; deterministic per seed.

    Episodes are advanced in lockstep, grouped by (state, action) so each
    group draws from its own cumulative transition row.  Returns a float
    array of wealth keys (class indices for ordinal spaces).
    """
    if m.horizon is None:
        raise ConfigurationError("simulate needs a finite horizon")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    states = np.full(n, m.initial_state, dtype=np.int64)
    wk = np.full(n, space.key(space.w0), dtype=np.float64)
    for t in range(m.horizon):
        actions = np.empty(n, dtype=np.int64)
        for s in np.unique(states):
            mask = states == s
            actions[mask] = policy.action_many(t, int(s), wk[mask])
        new_states = np.empty_like(states)
        pairs = np.unique(np.stack([states, actions], axis=1), axis=0)
        for s, a in pairs:
            mask = (states == s) & (actions == a)
            cum = np.cumsum(m.probabilities(s, a))
            pick = np.searchsorted(cum, rng.random(int(mask.sum())), side="right")
            pick = np.minimum(pick, len(cum) - 1)
            new_states[mask] = m.successors(s, a)[pick]
            rs = m.edge_rewards(s, a)
            if m.reward_kind == "sa":
                wk[mask] = space.accumulate_keys(wk[mask], rs[0], t)
            elif m.numeric_rewards:
                wk[mask] = space.accumulate_keys(
                    wk[mask], np.asarray(rs, dtype=np.float64)[pick], t)
            else:
                sub = wk[mask]
                for label in set(rs):
                    sel = np.asarray([rs[i] for i in pick]) == label
                    sub[sel] = space.accumulate_keys(sub[sel], label, t)
                wk[mask] = sub
        states = new_states
    return wk


# -- brute-force oracle -----------------------------------------------------

def brute_force_distributions(m, space, policy_cap=1_000_000):
    """All terminal distributions achievable by deterministic wealth-Markovian
    policies, with the action assignments that realize them.

    Enumerates actions per reachable (t, state, wealth) atom, expanding
    only atoms actually reached under the choices made so far; that is the
    full set of realized deterministic wealth-Markovian behaviours.
    Returns a list of ``(atoms_dict, assignment_dict)`` pairs where
    assignment maps (t, state, wealth_key) to an action.
    """
    if m.horizon is None:
        raise ConfigurationError("the brute-force oracle needs a finite horizon")
    T = m.horizon
    results = []

    def expand(atoms, choices, t):
        nxt = defaultdict(float)
        for (s, wk), mass in atoms.items():
            a = choices[(s, wk)]
            succ = m.successors(s, a)
            prob = m.probabilities(s, a)
            rs = m.edge_rewards(s, a)
            for i in range(len(succ)):
                if prob[i] == 0.0:
                    continue
                nk = space.accumulate_key(wk, rs[i], t)
                nxt[(int(succ[i]), nk)] += mass * prob[i]
        return _merge_state_atoms(nxt)

    def rec(t, atoms, assignment):
        if t == T:
            results.append((dict(atoms), dict(assignment)))
            if len(results) > policy_cap:
                raise ResourceLimitError(
                    f"more than {policy_cap} realizable deterministic "
                    "wealth-Markovian policies; instance too large for the "
                    "brute-force oracle")
            return
        points = sorted(atoms.keys())
        for combo in itertools.product(range(m.n_actions), repeat=len(points)):
            choices = dict(zip(points, combo))
            for (s, wk), a in choices.items():
                assignment[(t, s, wk)] = a
            rec(t + 1, expand(atoms, choices, t), assignment)
            for (s, wk) in choices:
                del assignment[(t, s, wk)]

    rec(0, {(m.initial_state, space.key(space.w0)): 1.0}, {})
    return results


def _assignment_to_policy(m, assignment):
    """Interval policy from per-atom actions (atoms become inclusive cuts)."""
    T = m.horizon
    per_ts = defaultdict(list)
    for (t, s, wk), a in assignment.items():
        per_ts[(t, s)].append((wk, a))
    rules = []
    for t in range(T):
        row = []
        for s in range(m.n_states):
            atoms = sorted(per_ts.get((t, s), []))
            if not atoms:
                row.append(StepFunction.constant(0))
                continue
            base = atoms[0][1]
            cuts = [(wk, True, a) for wk, a in atoms[1:]]
            row.append(StepFunction(base, [c[0] for c in cuts],
                                    [c[1] for c in cuts], [c[2] for c in cuts]))
        rules.append(row)
    return WealthMarkovPolicy(rules)


def brute_force_optimal_quantile(m, space, tau, criterion, policy_cap=1_000_000):
    """Exhaustive optimal quantile over deterministic wealth-Markovian policies.

    Returns ``(wealth, policy)`` — the best achievable tau-quantile and a
    policy attaining it.  Only viable on small instances; the enumeration
    is capped at ``policy_cap`` realizable policies.
    """
    best_key = None
    best_assignment = None
    for atoms, assignment in brute_force_distributions(m, space, policy_cap):
        final = defaultdict(float)
        for (_, wk), mass in atoms.items():
            final[wk] += mass
        dist = WealthDistribution.from_atoms(space, final)
        qk = space.key(dist.quantile(tau, criterion))
        if best_key is None or qk > best_key:
            best_key = qk
            best_assignment = assignment
    return space.unkey(best_key), _assignment_to_policy(m, best_assignment)


# -- expectation baseline ---------------------------------------------------

def standard_backward_induction(m):
    """Classic expected-total-reward backward induction.

    Returns ``(actions, values)``: the deterministic Markovian policy as a
    (T, S) action array (lowest index on ties) and the (T+1, S) optimal
    value table with the terminal layer zero.
    """
    if m.horizon is None:
        raise ConfigurationError("standard_backward_induction needs a finite horizon")
    if not m.numeric_rewards:
        raise ConfigurationError("expected-reward induction needs numeric rewards")
    T, S, A = m.horizon, m.n_states, m.n_actions
    rbar = np.empty((S, A))
    for s in range(S):
        for a in range(A):
            if m.reward_kind == "sa":
                rbar[s, a] = m.reward(s, a)
            else:
                rbar[s, a] = float(m.probabilities(s, a)
                                   @ np.asarray(m.edge_rewards(s, a), dtype=np.float64))
    values = np.zeros((T + 1, S))
    actions = np.zeros((T, S), dtype=np.int64)
    q = np.empty(A)
    for t in range(T - 1, -1, -1):
        for s in range(S):
            for a in range(A):
                q[a] = rbar[s, a] + m.probabilities(s, a) @ values[t + 1][m.successors(s, a)]
            actions[t, s] = int(np.argmax(q))
            values[t, s] = q[actions[t, s]]
    return actions, values
