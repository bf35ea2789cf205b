"""Finite MDP data model, validation, and the two benchmark generators.

An :class:`Mdp` stores its transition kernel once, as one flat edge
table: every edge (s, a, s') is an entry of a successor array, a
probability array and a reward array, and each state-action pair owns one
contiguous span of them.  Rewards are per edge ("sas", needed when rewards
depend on next states) or per state-action pair ("sa", repeated along each
pair's edges).  Reward values are numeric (a float64 array) for
additive/discounted wealth, or labels (an object array) for ordinal
wealth spaces.

Generators:

* :func:`generate_garnet` — random MDPs with a constrained branching
  factor: every state-action pair has exactly ``b`` distinct successors,
  probabilities from the sorted-uniform-cuts construction, i.i.d. uniform
  rewards.
* :func:`generate_datacenter` — a server-farm control problem: the state
  is (servers on, pending jobs), the action picks next step's server
  count, arrivals follow a truncated Poisson whose rate depends on the
  current load regime, and the reward is the negated power + QoS cost.
  Each arrival row is computed in log space with numpy and
  :func:`math.lgamma`, so it does not underflow at large rates.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError

PROB_TOL = 1e-9
# Longest horizon a problem may have.  A finite-horizon solve keeps one
# table of slices and one of rules per timestep, so a horizon read from a
# file must not decide that allocation alone.
MAX_HORIZON = 100_000
# Most edges a generated data-center problem may have: n servers give 9n^4,
# so n = 30 (7.29M edges, about 350 MB to build) is the largest admitted.
MAX_DATACENTER_EDGES = 8_000_000


def _is_number(x):
    return isinstance(x, (int, float, np.integer, np.floating))


def _transition_row(i, row, n_states, n_actions):
    """Parse flat transition row ``i`` as ``(s, a, s', p)``.

    The three indices must be integers inside the state-action table and
    p a number that fits a float (booleans are neither).
    """
    try:
        s, a, sp, p = row
        fields = (s, a, sp, p)
        ok = (not any(isinstance(v, bool) for v in fields)
              and all(isinstance(v, numbers.Integral) for v in fields[:3])
              and isinstance(p, numbers.Real))
        p = float(p) if ok else None
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(
            f"transition row {i} {row!r} is not [s, a, s', p] with integer "
            f"indices and a numeric probability")
    if not (0 <= s < n_states and 0 <= a < n_actions and 0 <= sp < n_states):
        raise ValidationError(
            f"transition row {i} {row!r} leaves the "
            f"{n_states} x {n_actions} state-action table")
    return int(s), int(a), int(sp), p


def _check_integer(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} {value!r} is not an integer")


def _horizon(horizon):
    """``horizon`` as an int (None for infinite), at most MAX_HORIZON."""
    if horizon is None:
        return None
    horizon = int(horizon)
    if horizon > MAX_HORIZON:
        raise ValidationError(
            f"horizon {horizon} is above the cap of {MAX_HORIZON} steps")
    return horizon


class EdgeSlots(NamedTuple):
    """The edge table laid out one row per pair, padded to the widest.

    Row i of the (pairs, K) tables ``succ``, ``prob`` and ``edge`` holds
    the successor, probability and index of each edge of pair i, in edge
    order, then successor 0, edge 0 and probability 0.0 in the slots past
    its ``degree[i]`` edges, up to K, the widest pair's degree.  A pad
    weighs exactly 0.0, so a sum over a pair's slots adds its edges'
    terms in edge order and then zeros, which change no sum of
    nonnegative terms.
    """

    succ: np.ndarray
    prob: np.ndarray
    edge: np.ndarray
    degree: np.ndarray

    @classmethod
    def of(cls, m):
        degree = np.diff(m.starts)
        real = np.arange(degree.max(initial=0)) < degree[:, None]
        edge = np.zeros(real.shape, dtype=np.intp)
        edge[real] = np.arange(len(m.succ))
        succ = np.zeros(real.shape, dtype=np.int64)
        succ[real] = m.succ
        prob = np.zeros(real.shape)
        prob[real] = m.prob
        slots = cls(succ, prob, edge, degree)
        for table in slots:
            table.flags.writeable = False
        return slots


# Every instance attribute of an Mdp, in the order __init__ sets them
_FIELDS = ("n_states", "n_actions", "initial_state", "horizon", "succ", "prob",
           "starts", "pair", "reward_kind", "reward_table", "numeric_rewards",
           "rewards", "_memo")


class Mdp:
    """Finite state/action MDP whose kernel is one flat edge table.

    Pair ``i = s * n_actions + a`` owns the edges ``starts[i]:starts[i + 1]``
    of ``succ`` (int64 successor states), ``prob`` (float64 probabilities)
    and ``rewards`` (float64 edge rewards, or an object array of labels);
    ``pair[e]`` is the pair that edge e belongs to.  "sa" problems also
    keep their n_states x n_actions ``reward_table`` (a float64 array when
    numeric, nested lists of labels otherwise); "sas" problems have none.
    The per-pair accessors slice the edge arrays on demand.

    An ``Mdp`` is immutable once built: every array above is read-only and
    setting or deleting an attribute raises ``AttributeError``.  So the
    set-up that depends on the problem alone, never on a query, is worked
    out on first use and kept on the object (:meth:`_kept`): the
    :func:`validate` result, the padded edge layout (:meth:`slots`) that
    the dense sweep and exact evaluation both read, the reach mask of a
    finite horizon, the dense sweep of the last fit (``qmdp.dp``) and the
    wealth grid of the last evaluation fit (``qmdp.evaluate``).  Nothing
    of a query is kept: no target's values, no policy and nothing read
    from one.  :meth:`with_horizon` gives its copy an empty memo of its
    own.

    Parameters
    ----------
    transitions:
        Nested per-state, per-action successor lists: ``transitions[s][a]``
        is either a sequence of ``(next_state, probability)`` pairs or a
        ``(successor_array, probability_array)`` tuple.  The entries are
        copied into the edge table once, so rows that share an input array
        do not share storage here.
    rewards:
        ``{"kind": "sa", "values": <S x A>}`` or ``{"kind": "sas",
        "values": <per (s, a) list aligned with the successor list>}``.
    horizon:
        Positive integer up to ``MAX_HORIZON``, or None for the
        infinite-horizon problem.
    """

    # None until __init__ ends; a class attribute, so that no check reads
    # the instance's __dict__, which would leave its attributes slower to
    # read from then on
    _memo = None

    def __init__(self, n_states, n_actions, transitions, rewards,
                 initial_state, horizon):
        self.n_states = S = int(n_states)
        self.n_actions = A = int(n_actions)
        self.initial_state = int(initial_state)
        self.horizon = _horizon(horizon)

        # the empty heads keep the concatenations typed when S * A is 0
        succ = [np.empty(0, dtype=np.int64)]
        prob = [np.empty(0)]
        for s in range(S):
            for a in range(A):
                entry = transitions[s][a]
                if (isinstance(entry, tuple) and len(entry) == 2
                        and isinstance(entry[0], np.ndarray)):
                    succ.append(entry[0])
                    prob.append(entry[1])
                else:
                    pairs = list(entry)
                    succ.append(np.array([int(sp) for sp, _ in pairs], dtype=np.int64))
                    prob.append(np.array([float(p) for _, p in pairs], dtype=np.float64))
                if len(prob[-1]) != len(succ[-1]):
                    raise ValidationError(
                        f"(s={s}, a={a}): {len(prob[-1])} probabilities for "
                        f"{len(succ[-1])} successors")
        counts = [len(x) for x in succ[1:]]
        self.succ = np.concatenate(succ).astype(np.int64, copy=False)
        self.prob = np.concatenate(prob).astype(np.float64, copy=False)
        self.starts = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        self.pair = np.repeat(np.arange(len(counts)), counts)

        self.reward_kind = rewards["kind"]
        self.reward_table = None
        if self.reward_kind == "sa":
            values = rewards["values"]
            try:
                lengths = [len(row) for row in values]
            except TypeError:      # not a nested table
                lengths = None
            if lengths != [A] * S:
                raise ValidationError(
                    f"'sa' rewards must be an n_states x n_actions = {S} "
                    f"x {A} table, got row lengths {lengths}")
            self.reward_table = [list(row) for row in values]
            # one value per pair here; repeated along the edges below
            edge = [v for row in self.reward_table for v in row]
        elif self.reward_kind == "sas":
            values = rewards["values"]
            edge = []
            for i, n in enumerate(counts):
                s, a = divmod(i, A)
                row = list(values[s][a])
                if len(row) != n:
                    raise ValidationError(
                        f"(s={s}, a={a}): {len(row)} 'sas' rewards for "
                        f"{n} successors")
                edge.extend(row)
        else:
            raise ConfigurationError(
                f"reward kind must be 'sa' or 'sas', got {rewards['kind']!r}")
        self.numeric_rewards = all(_is_number(v) for v in edge)
        if self.numeric_rewards:
            try:
                edge = np.array(edge, dtype=np.float64)
            except OverflowError:
                raise ValidationError("a reward does not fit a float") from None
            if self.reward_table is not None:
                self.reward_table = edge.reshape(S, A)
        else:
            # fromiter keeps a tuple label one element
            edge = np.fromiter(edge, dtype=object, count=len(edge))
        if self.reward_kind == "sa":
            edge = np.repeat(edge, counts)
        self.rewards = edge
        # the per-pair accessors hand out views of these
        for edges in (self.succ, self.prob, self.rewards, self.starts,
                      self.pair):
            edges.flags.writeable = False
        if self.numeric_rewards and self.reward_table is not None:
            self.reward_table.flags.writeable = False
        # set last: from here on the object is frozen (__setattr__)
        self._memo = {}

    def __setattr__(self, name, value):
        if self._memo is not None:
            raise AttributeError(f"an Mdp is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"an Mdp is immutable: cannot delete {name!r}")

    @classmethod
    def from_rows(cls, n_states, n_actions, rows, rewards, initial_state,
                  horizon):
        """Build from flat transition rows ``[s, a, s', p]``.

        For "sas" rewards, ``rewards["values"]`` is a flat list aligned
        with ``rows``.  Every state-action pair needs a row, which also
        bounds the table this allocates by the input's length.
        """
        for name, value in (("n_states", n_states), ("n_actions", n_actions),
                            ("initial_state", initial_state)):
            _check_integer(name, value)
        if horizon is not None:
            _check_integer("horizon", horizon)
        if not isinstance(rows, list):
            raise ValidationError("transitions must be a list of rows")
        if min(n_states, n_actions) < 1:
            raise ValidationError(f"n_states and n_actions must be positive, "
                                  f"got {n_states} and {n_actions}")
        if n_states * n_actions > len(rows):
            raise ValidationError(
                f"{len(rows)} transition rows cannot cover all {n_states} x "
                f"{n_actions} state-action pairs")
        sas = rewards["kind"] == "sas"
        if sas:
            values = rewards["values"]
            n_values = len(values) if isinstance(values, list) else None
            if n_values != len(rows):
                raise ValidationError(
                    f"'sas' rewards need a list of {len(rows)} values, one per "
                    f"transition row, got {n_values}")
            edge_vals = [[[] for _ in range(n_actions)] for _ in range(n_states)]
        nested = [[[] for _ in range(n_actions)] for _ in range(n_states)]
        for i, row in enumerate(rows):
            s, a, sp, p = _transition_row(i, row, n_states, n_actions)
            nested[s][a].append((sp, p))
            if sas:
                edge_vals[s][a].append(values[i])
        if sas:
            rewards = {"kind": "sas", "values": edge_vals}
        return cls(n_states, n_actions, nested, rewards, initial_state, horizon)

    # -- accessors -------------------------------------------------------

    def _span(self, s, a):
        i = s * self.n_actions + a
        return slice(self.starts[i], self.starts[i + 1])

    def successors(self, s, a):
        return self.succ[self._span(s, a)]

    def probabilities(self, s, a):
        return self.prob[self._span(s, a)]

    def reward(self, s, a):
        """State-action reward ('sa' kind only)."""
        if self.reward_kind != "sa":
            raise ConfigurationError("reward(s, a) is only defined for 'sa' rewards")
        return self.reward_table[s][a]

    def edge_rewards(self, s, a):
        """Rewards aligned with the successor list of (s, a), as a list."""
        return self.rewards[self._span(s, a)].tolist()

    def reward_bounds(self):
        """Least and greatest reward, skipping NaN (:func:`validate`
        reports it), so that a NaN reward reads the same at every edge."""
        if not self.numeric_rewards:
            raise ConfigurationError(
                "reward bounds are only defined for numeric rewards")
        if not len(self.rewards):
            return 0.0, 0.0
        return (float(np.fmin.reduce(self.rewards)),
                float(np.fmax.reduce(self.rewards)))

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

    def _kept(self, name, build):
        """``build()``, made on the first call for ``name`` and kept on the
        object; it may depend on the problem alone, never on a query."""
        memo = self._memo
        if name not in memo:
            memo[name] = build()
        return memo[name]

    def _kept_last(self, name, key, build):
        """``build()``, kept with ``key`` (what it reads besides the
        problem) until a call for ``name`` under another key replaces it."""
        kept = self._memo.get(name)
        if kept is None or kept[0] != key:
            kept = self._memo[name] = key, build()
        return kept[1]

    def slots(self):
        """The :class:`EdgeSlots` of the edge table, read-only; built on
        the first call and kept."""
        return self._kept("slots", lambda: EdgeSlots.of(self))

    def with_horizon(self, horizon):
        """Copy sharing the edge table, with a different horizon and an
        empty memo: nothing kept for this horizon holds for another.

        The fields are set one by one, in the order of ``__init__``, past
        ``__setattr__``: a copy that read the source's ``__dict__``
        (``copy.copy``) would leave attribute reads on both about three
        times slower from then on."""
        clone = object.__new__(type(self))
        for name in _FIELDS:
            object.__setattr__(clone, name, getattr(self, name))
        object.__setattr__(clone, "horizon", _horizon(horizon))
        object.__setattr__(clone, "_memo", {})
        return clone

    def __repr__(self):
        h = "inf" if self.horizon is None else self.horizon
        return (f"Mdp(n_states={self.n_states}, n_actions={self.n_actions}, "
                f"rewards='{self.reward_kind}', horizon={h})")


def validate(m):
    """Check every structural invariant; returns a list of violations.

    An empty list means the MDP is well formed.  Violations are data, not
    errors: callers decide whether to raise.  The checks run once per
    :class:`Mdp`, whose result is kept on it; each call returns a new list.
    """
    return list(m._kept("violations", lambda: tuple(_violations(m))))


def _violations(m):
    out = []
    if m.n_states < 1:
        out.append(f"n_states must be positive, got {m.n_states}")
    if m.n_actions < 1:
        out.append(f"n_actions must be positive, got {m.n_actions}")
    if not 0 <= m.initial_state < m.n_states:
        out.append(f"initial_state {m.initial_state} out of range")
    if m.horizon is not None and m.horizon < 1:
        out.append(f"horizon must be positive or None, got {m.horizon}")
    # (pair, check, message) of every per-pair violation; an empty row
    # reports nothing else
    found = []

    def on_hit(check, hit, pair, what):
        """The message ``what(i)`` of every distinct ``pair[hit]``, built
        only when the mask ``hit`` has a hit."""
        if hit.any():
            found.extend((i, check, what(i)) for i in np.unique(pair[hit]))

    counts = np.diff(m.starts)
    filled = counts > 0
    pairs = np.arange(len(counts))

    def row(i):
        return m.prob[m.starts[i]:m.starts[i + 1]]

    on_hit(0, ~filled, pairs, lambda i: "empty transition row")
    on_hit(1, m.prob < 0, m.pair,
           lambda i: f"negative probability {np.nanmin(row(i)):.3g}")
    # NaN fails every comparison, so neither the sign test above nor the
    # sum test below sees it
    on_hit(2, np.isnan(m.prob), m.pair, lambda i: "probability is NaN")
    totals = np.bincount(m.pair, weights=m.prob, minlength=len(counts))
    # the message reports the sum as the pair's own row gives it
    on_hit(3, filled & (np.abs(totals - 1.0) > PROB_TOL), pairs,
           lambda i: f"probabilities sum to {float(row(i).sum())!r}")
    on_hit(4, (m.succ < 0) | (m.succ >= m.n_states), m.pair,
           lambda i: "successor index out of range")
    order = np.lexsort((m.succ, m.pair))
    pair, succ = m.pair[order], m.succ[order]
    on_hit(5, (pair[1:] == pair[:-1]) & (succ[1:] == succ[:-1]), pair[1:],
           lambda i: "duplicate successor state")
    for i, _, what in sorted(found):
        s, a = divmod(int(i), m.n_actions)
        out.append(f"(s={s}, a={a}): {what}")
    if m.numeric_rewards:
        finite = np.isfinite(m.rewards)
        if not finite.all():
            bad = m.rewards[finite.argmin()].item()
            out.append(f"non-finite reward {bad!r}")
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
        if not (math.isfinite(self.reward_low)
                and math.isfinite(self.reward_high)):
            raise ConfigurationError(
                f"reward_low and reward_high must be finite, got "
                f"{self.reward_low} and {self.reward_high}")
        if self.reward_low > self.reward_high:
            raise ConfigurationError("reward_low must be <= reward_high")


def _check_generated_horizon(horizon):
    """Reject a generator's horizon below 1.  ``Mdp`` itself takes one, so
    that :func:`validate` reports it, but a generated problem with it
    would be one that no later command accepts."""
    if horizon is not None and horizon < 1:
        raise ConfigurationError(
            f"horizon must be positive or None, got {horizon}")


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
    _check_generated_horizon(horizon)
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
        if 9 * self.n_servers ** 4 > MAX_DATACENTER_EDGES:
            raise ConfigurationError(
                f"{self.n_servers} servers give {9 * self.n_servers ** 4} "
                f"edges, above the cap of {MAX_DATACENTER_EDGES}")
        lam, (t1, t2) = self.resolved()
        if not all(map(math.isfinite, (*lam, self.alpha, self.beta,
                                       self.kappa))):
            raise ConfigurationError(
                f"arrival rates, alpha, beta and kappa must be finite, got "
                f"rates {lam}, alpha {self.alpha}, beta {self.beta}, "
                f"kappa {self.kappa}")
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

    Each arrival row is built in log space, ``k log(rate) - log k!``,
    shifted by its maximum before exponentiating and then renormalized;
    the renormalization cancels the ``-rate`` term and the shift.  The
    largest entry is exactly 1 before the division, so the row's sum
    cannot underflow and every rate gives a finite, normalized row.
    """
    cfg.check()
    _check_generated_horizon(horizon)
    n = cfg.n_servers
    J = cfg.n_jobs
    lam, (t1, t2) = cfg.resolved()

    ks = np.arange(J)
    log_fact = np.array([math.lgamma(k + 1) for k in range(J)])
    pmf = []
    for rate in lam:
        logp = ks * math.log(rate) - log_fact
        p = np.exp(logp - logp.max())
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
