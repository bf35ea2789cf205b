"""Finite MDP data model, validation, and the two benchmark generators.

An :class:`Mdp` stores a sparse transition kernel (per state-action list of
successor/probability pairs) plus either state-action rewards ("sa") or
per-edge rewards ("sas", needed when rewards depend on next states).
Reward values are numeric for additive/discounted wealth, or string labels
for ordinal wealth spaces.

Generators:

* :func:`generate_garnet` — random MDPs with a constrained branching
  factor: every state-action pair has exactly ``b`` distinct successors,
  probabilities from the sorted-uniform-cuts construction, i.i.d. uniform
  rewards.
* :func:`generate_datacenter` — a server-farm control problem: the state
  is (servers on, pending jobs), the action picks next step's server
  count, arrivals follow a truncated Poisson whose rate depends on the
  current load regime, and the reward is the negated power + QoS cost.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ConfigurationError, ValidationError

PROB_TOL = 1e-9


def _is_number(x):
    return isinstance(x, (int, float, np.integer, np.floating))


def _transition_row(i, row, n_states, n_actions):
    """Parse flat transition row ``i`` as ``(s, a, s', p)``.

    The three indices must be integers and p a number (booleans are
    neither).  The successor is range-checked later by :func:`validate`;
    the origin (s, a) is checked here because it indexes the nested table.
    """
    try:
        s, a, sp, p = row
    except (TypeError, ValueError):
        s = a = sp = p = None
    fields = (s, a, sp, p)
    if (any(isinstance(v, bool) for v in fields)
            or not all(isinstance(v, numbers.Integral) for v in fields[:3])
            or not isinstance(p, numbers.Real)):
        raise ValidationError(
            f"transition row {i} {row!r} is not [s, a, s', p] with integer "
            f"indices and a numeric probability")
    if not (0 <= s < n_states and 0 <= a < n_actions):
        raise ValidationError(
            f"transition row {i} {row!r} starts outside the "
            f"{n_states} x {n_actions} state-action table")
    return int(s), int(a), int(sp), float(p)


class Mdp:
    """Finite state/action MDP with a sparse kernel.

    Parameters
    ----------
    transitions:
        Nested per-state, per-action successor lists: ``transitions[s][a]``
        is either a sequence of ``(next_state, probability)`` pairs or a
        ``(successor_array, probability_array)`` tuple (arrays may be
        shared between rows).
    rewards:
        ``{"kind": "sa", "values": <S x A>}`` or ``{"kind": "sas",
        "values": <per (s, a) list aligned with the successor list>}``.
    horizon:
        Positive integer, or None for the infinite-horizon problem.
    """

    def __init__(self, n_states, n_actions, transitions, rewards,
                 initial_state, horizon):
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.initial_state = int(initial_state)
        self.horizon = None if horizon is None else int(horizon)

        self._succ = []
        self._prob = []
        for s in range(self.n_states):
            row_s, row_p = [], []
            for a in range(self.n_actions):
                entry = transitions[s][a]
                if (isinstance(entry, tuple) and len(entry) == 2
                        and isinstance(entry[0], np.ndarray)):
                    succ, prob = entry
                else:
                    pairs = list(entry)
                    succ = np.array([int(sp) for sp, _ in pairs], dtype=np.int64)
                    prob = np.array([float(p) for _, p in pairs], dtype=np.float64)
                row_s.append(succ)
                row_p.append(prob)
            self._succ.append(row_s)
            self._prob.append(row_p)

        self.reward_kind = rewards["kind"]
        if self.reward_kind == "sa":
            values = rewards["values"]
            try:
                lengths = [len(row) for row in values]
            except TypeError:      # not a nested table
                lengths = None
            if lengths != [self.n_actions] * self.n_states:
                raise ValidationError(
                    f"'sa' rewards must be an n_states x n_actions = {self.n_states} "
                    f"x {self.n_actions} table, got row lengths {lengths}")
            numeric = all(_is_number(v) for row in values for v in row)
            if numeric:
                self._rew = np.asarray(values, dtype=np.float64)
            else:
                self._rew = [list(row) for row in values]
            self._numeric = numeric
        elif self.reward_kind == "sas":
            values = rewards["values"]
            self._rew = [[list(values[s][a]) for a in range(self.n_actions)]
                         for s in range(self.n_states)]
            self._numeric = all(_is_number(v)
                                for plane in self._rew for row in plane for v in row)
        else:
            raise ConfigurationError(
                f"reward kind must be 'sa' or 'sas', got {rewards['kind']!r}")

    @classmethod
    def from_rows(cls, n_states, n_actions, rows, rewards, initial_state,
                  horizon):
        """Build from flat transition rows ``[s, a, s', p]``.

        For "sas" rewards, ``rewards["values"]`` is a flat list aligned
        with ``rows``.
        """
        nested = [[[] for _ in range(n_actions)] for _ in range(n_states)]
        kind = rewards["kind"]
        if kind == "sas":
            values = rewards["values"]
            n_values = len(values) if isinstance(values, list) else None
            if n_values != len(rows):
                raise ValidationError(
                    f"'sas' rewards need a list of {len(rows)} values, one per "
                    f"transition row, got {n_values}")
            edge_vals = [[[] for _ in range(n_actions)] for _ in range(n_states)]
            for i, (row, r) in enumerate(zip(rows, values)):
                s, a, sp, p = _transition_row(i, row, n_states, n_actions)
                nested[s][a].append((sp, p))
                edge_vals[s][a].append(r)
            rewards = {"kind": "sas", "values": edge_vals}
        else:
            for i, row in enumerate(rows):
                s, a, sp, p = _transition_row(i, row, n_states, n_actions)
                nested[s][a].append((sp, p))
        return cls(n_states, n_actions, nested, rewards, initial_state, horizon)

    # -- accessors -------------------------------------------------------

    def successors(self, s, a):
        return self._succ[s][a]

    def probabilities(self, s, a):
        return self._prob[s][a]

    @property
    def numeric_rewards(self):
        return self._numeric

    def reward(self, s, a):
        """State-action reward ('sa' kind only)."""
        if self.reward_kind != "sa":
            raise ConfigurationError("reward(s, a) is only defined for 'sa' rewards")
        return self._rew[s][a]

    def edge_rewards(self, s, a):
        """Rewards aligned with the successor list of (s, a)."""
        if self.reward_kind == "sa":
            r = self._rew[s][a]
            return [r] * len(self._succ[s][a])
        return self._rew[s][a]

    def all_rewards(self):
        """Flat iterator over every reward value in the model."""
        if self.reward_kind == "sa":
            if self._numeric:
                yield from self._rew.ravel().tolist()
            else:
                for row in self._rew:
                    yield from row
        else:
            for plane in self._rew:
                for row in plane:
                    yield from row

    def reward_bounds(self):
        if not self._numeric:
            raise ConfigurationError(
                "reward bounds are only defined for numeric rewards")
        vals = list(self.all_rewards())
        return (min(vals), max(vals)) if vals else (0.0, 0.0)

    def reward_sign(self):
        """'nonpositive', 'nonnegative' (zero counts as both -> 'zero'), or 'mixed'."""
        lo, hi = self.reward_bounds()
        if lo == hi == 0.0:
            return "zero"
        if hi <= 0.0:
            return "nonpositive"
        if lo >= 0.0:
            return "nonnegative"
        return "mixed"

    def rewards_payload(self):
        """The rewards dict in constructor form (values as nested lists)."""
        if self.reward_kind == "sa":
            values = (self._rew.tolist() if self._numeric
                      else [list(row) for row in self._rew])
        else:
            values = [[list(row) for row in plane] for plane in self._rew]
        return {"kind": self.reward_kind, "values": values}

    def with_horizon(self, horizon):
        """Copy sharing kernel/reward storage, with a different horizon."""
        clone = object.__new__(Mdp)
        clone.n_states = self.n_states
        clone.n_actions = self.n_actions
        clone.initial_state = self.initial_state
        clone.horizon = None if horizon is None else int(horizon)
        clone._succ = self._succ
        clone._prob = self._prob
        clone.reward_kind = self.reward_kind
        clone._rew = self._rew
        clone._numeric = self._numeric
        return clone

    def __repr__(self):
        h = "inf" if self.horizon is None else self.horizon
        return (f"Mdp(n_states={self.n_states}, n_actions={self.n_actions}, "
                f"rewards='{self.reward_kind}', horizon={h})")


def validate(m):
    """Check every structural invariant; returns a list of violations.

    An empty list means the MDP is well formed.  Violations are data, not
    errors: callers decide whether to raise.
    """
    out = []
    if m.n_states < 1:
        out.append(f"n_states must be positive, got {m.n_states}")
    if m.n_actions < 1:
        out.append(f"n_actions must be positive, got {m.n_actions}")
    if not 0 <= m.initial_state < m.n_states:
        out.append(f"initial_state {m.initial_state} out of range")
    if m.horizon is not None and m.horizon < 1:
        out.append(f"horizon must be positive or None, got {m.horizon}")
    for s in range(m.n_states):
        for a in range(m.n_actions):
            succ = m.successors(s, a)
            prob = m.probabilities(s, a)
            if len(succ) == 0:
                out.append(f"(s={s}, a={a}): empty transition row")
                continue
            if np.any(prob < 0):
                out.append(f"(s={s}, a={a}): negative probability "
                           f"{prob.min():.3g}")
            total = float(prob.sum())
            if abs(total - 1.0) > PROB_TOL:
                out.append(f"(s={s}, a={a}): probabilities sum to {total!r}")
            if np.any((succ < 0) | (succ >= m.n_states)):
                out.append(f"(s={s}, a={a}): successor index out of range")
            if len(np.unique(succ)) != len(succ):
                out.append(f"(s={s}, a={a}): duplicate successor state")
    if m.numeric_rewards:
        for r in m.all_rewards():
            if not math.isfinite(r):
                out.append(f"non-finite reward {r!r}")
                break
    return out


# -- Garnet random MDPs ---------------------------------------------------

@dataclass
class GarnetConfig:
    """Random MDP family G(n_states, n_actions, branching)."""
    n_states: int
    n_actions: int
    branching: int
    reward_low: float = 0.0
    reward_high: float = 1.0
    seed: int = 0

    def check(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise ConfigurationError("n_states and n_actions must be positive")
        if not 1 <= self.branching <= self.n_states:
            raise ConfigurationError(
                f"branching must be in [1, n_states], got {self.branching} "
                f"with n_states={self.n_states}")
        if self.reward_low > self.reward_high:
            raise ConfigurationError("reward_low must be <= reward_high")


def default_branching(n_states):
    """The ceil(log2 n_states) branching used by the benchmark grid."""
    return max(1, math.ceil(math.log2(n_states)))


def generate_garnet(cfg, horizon=5):
    """Sample a Garnet instance; deterministic given cfg.seed.

    Each (s, a) gets exactly ``branching`` distinct successors chosen
    uniformly, with probabilities given by the gaps between sorted uniform
    cut points; rewards are i.i.d. uniform on [reward_low, reward_high].
    """
    cfg.check()
    rng = np.random.default_rng(cfg.seed)
    b = cfg.branching
    transitions = []
    for s in range(cfg.n_states):
        row = []
        for a in range(cfg.n_actions):
            succ = np.sort(rng.choice(cfg.n_states, size=b, replace=False))
            cuts = np.sort(rng.random(b - 1))
            prob = np.diff(np.concatenate(([0.0], cuts, [1.0])))
            row.append((succ.astype(np.int64), prob))
        transitions.append(row)
    rewards = rng.uniform(cfg.reward_low, cfg.reward_high,
                          size=(cfg.n_states, cfg.n_actions))
    return Mdp(cfg.n_states, cfg.n_actions, transitions,
               {"kind": "sa", "values": rewards.tolist()},
               initial_state=0, horizon=horizon)


def skew_rewards(m, fraction=0.8, scale=0.05, seed=0):
    """Push a seeded fraction of state-action rewards toward 0.

    Returns a copy of ``m`` where each reward is multiplied by ``scale``
    with probability ``fraction``.  This makes the wealth distribution of
    good policies right-skewed: most rewards become small, a few stay
    large.  It is a documented knob, not a reproduction of any particular
    published instance.
    """
    if m.reward_kind != "sa" or not m.numeric_rewards:
        raise ConfigurationError("skew_rewards needs numeric 'sa' rewards")
    rng = np.random.default_rng(seed)
    r = np.array(m._rew, dtype=np.float64, copy=True)
    mask = rng.random(r.shape) < fraction
    r[mask] *= scale
    clone = m.with_horizon(m.horizon)
    clone._rew = r
    return clone


# -- data-center control problem ------------------------------------------

@dataclass
class DataCenterConfig:
    """Server-farm sizing problem: n servers, jobs capped at 3n per step.

    Defaults follow the benchmark setup: arrival rates ceil(n/2),
    ceil(3n/2), ceil(5n/2) for the low/mid/high regimes, regime thresholds
    at n and 2n jobs, cost = alpha * servers_on + beta * unserved jobs with
    each server handling up to kappa jobs per step.
    """
    n_servers: int
    lambda_low: float = None
    lambda_mid: float = None
    lambda_high: float = None
    threshold_low_mid: int = None
    threshold_mid_high: int = None
    alpha: float = 1.0
    beta: float = 10.0
    kappa: float = 3.0

    def resolved(self):
        n = self.n_servers
        lam = (self.lambda_low if self.lambda_low is not None else math.ceil(n / 2),
               self.lambda_mid if self.lambda_mid is not None else math.ceil(3 * n / 2),
               self.lambda_high if self.lambda_high is not None else math.ceil(5 * n / 2))
        t1 = self.threshold_low_mid if self.threshold_low_mid is not None else n
        t2 = self.threshold_mid_high if self.threshold_mid_high is not None else 2 * n
        return lam, (t1, t2)

    def check(self):
        if self.n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        lam, (t1, t2) = self.resolved()
        if any(v <= 0 for v in lam):
            raise ConfigurationError(f"arrival rates must be positive, got {lam}")
        if not 0 <= t1 <= t2 <= 3 * self.n_servers:
            raise ConfigurationError(
                f"regime thresholds ({t1}, {t2}) must partition the job "
                f"range [0, {3 * self.n_servers})")

    @property
    def n_jobs(self):
        return 3 * self.n_servers

    def state_index(self, servers_on, jobs):
        return (servers_on - 1) * self.n_jobs + jobs

    def decode_state(self, s):
        return s // self.n_jobs + 1, s % self.n_jobs


def generate_datacenter(cfg, horizon=5):
    """Build the data-center MDP; n * 3n states, n actions.

    State (m, j): m servers currently on, j pending jobs.  Action a turns
    on m' = a + 1 servers for the next step; the next job count is
    Poisson(rate(j)) truncated to {0, ..., 3n - 1} and renormalized.
    Rewards are negated costs so that higher wealth is better.
    """
    cfg.check()
    n = cfg.n_servers
    J = cfg.n_jobs
    lam, (t1, t2) = cfg.resolved()

    ks = np.arange(J)
    pmf = []
    for rate in lam:
        p = stats.poisson.pmf(ks, rate)
        pmf.append(p / p.sum())

    def regime(j):
        return 0 if j < t1 else (1 if j < t2 else 2)

    # successor blocks shared per action, arrival rows shared per regime
    succ_for_action = [np.arange(J, dtype=np.int64) + a * J for a in range(n)]

    n_states = n * J
    transitions = []
    rewards = np.empty((n_states, n))
    for s in range(n_states):
        m_on, j = cfg.decode_state(s)
        p_row = pmf[regime(j)]
        row = []
        for a in range(n):
            m_next = a + 1
            row.append((succ_for_action[a], p_row))
            rewards[s, a] = -(cfg.alpha * m_next
                              + cfg.beta * max(0.0, j - cfg.kappa * m_next))
        transitions.append(row)

    start = cfg.state_index(1, 0)
    return Mdp(n_states, n, transitions,
               {"kind": "sa", "values": rewards.tolist()},
               initial_state=start, horizon=horizon)
