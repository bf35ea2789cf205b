"""Exact and simulated policy evaluation, the brute-force oracle, and the
expectation baseline.

These are the tools the solver is verified against: an exact forward pass
over arrays of reachable (state, wealth key, mass) atoms gives a policy's
terminal-wealth distribution, whose cumulatives and quantiles follow by
partial sums; the brute-force oracle enumerates every deterministic
wealth-Markovian policy of a small instance through the same forward step;
and classic backward induction supplies the expectation-optimal baseline.
A policy whose wealth lives on a small grid (ordinal classes, or additive
rewards on one lattice: the :class:`~qmdp.wealth.Grid` the dense DP reads
too) is a Markov chain on (state, wealth cell), and exact evaluation
pushes a mass vector through it instead (:class:`_WealthChain`), over the
rows that hold mass unless the policy is stationary; discounted wealth and
rewards off any lattice keep the atom path.
The forward step and the chain read the kernel's edges through its kept
slot layout (:meth:`~qmdp.mdp.Mdp.slots`: each pair's edges padded to the
widest pair with zero-probability slots, the layout the dense sweep of
``qmdp.dp`` reads too), and :func:`simulate` reads the edge table
(``succ``, ``prob``, ``starts``); all three read one per-edge wealth move
and the policy's cut table (:mod:`qmdp.stepfun`).  This module imports
nothing from the functional DP of ``qmdp.dp``, so it checks the DP.

What depends on the problem alone is kept on the immutable
:class:`~qmdp.mdp.Mdp` and reused by every later evaluation on it: the
slot layout and the chain's last grid fit (:meth:`_WealthChain.fit`).
Nothing of a policy is ever kept: its cut positions, actions and mass
entries are worked out on every call.
"""

import itertools

import numpy as np

from .errors import ConfigurationError, ResourceLimitError, ValidationError
from .stepfun import WealthMarkovPolicy, _threshold_runs
from .wealth import BLOCK_FLOATS, WEALTH_TOL, Grid, _signed

QUANT_ATOL = 1e-12   # slack when comparing partial sums against tau


def merge_atoms(states, keys, masses):
    """Collapse (state, wealth key, mass) atom arrays; returns the three arrays.

    Atoms of zero mass are dropped and the rest sorted by (state, key).
    Within one state, a run of keys that :func:`stepfun._threshold_runs`
    finds equal becomes one atom at the run's smallest key carrying the
    run's total mass, as a run of cuts becomes one cut.
    """
    live = masses != 0
    states, keys, masses = states[live], keys[live], masses[live]
    if not len(keys):
        return states, keys, masses
    order = np.lexsort((keys, states))
    states, keys, masses = states[order], keys[order], masses[order]
    first, _ = _threshold_runs(keys, np.zeros(len(keys), dtype=np.uint8),
                               states)
    return states[first], keys[first], np.add.reduceat(masses, first)


def _nonnegative(probs):
    if np.any(probs < 0):
        raise ValueError(f"negative probability {probs.min()!r}")
    return probs


class WealthDistribution:
    """Finite terminal-wealth distribution of a policy.

    Built from wealth keys and nonnegative masses summing to 1, merged by
    :func:`merge_atoms` into sorted keys with positive probabilities.
    """

    def __init__(self, space, keys, probs):
        probs = _nonnegative(np.asarray(probs, dtype=np.float64).ravel())
        _, keys, probs = merge_atoms(np.zeros(len(probs), dtype=np.int64),
                                     np.asarray(keys, dtype=np.float64).ravel(),
                                     probs)
        self._fill(space, keys, probs)

    @classmethod
    def _of_merged(cls, space, keys, probs):
        """From atoms that :func:`merge_atoms` keeps as they are: keys
        increasing, more than ``WEALTH_TOL`` apart, and positive
        probabilities."""
        dist = cls.__new__(cls)
        dist._fill(space, keys, probs)
        return dist

    def _fill(self, space, keys, probs):
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self.space, self.keys, self.probs = space, keys, probs
        self._prefix = np.cumsum(probs)

    @classmethod
    def from_atoms(cls, space, atoms):
        """Build from (wealth key, mass) pairs (any iterable or dict)."""
        if isinstance(atoms, dict):
            atoms = atoms.items()
        pairs = np.array([(float(k), float(p)) for k, p in atoms]).reshape(-1, 2)
        return cls(space, pairs[:, 0], pairs[:, 1])
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


def _actions(policy, t, states, keys):
    """Each atom's action under the policy, from one merged sort.

    The cuts of the step-t rules and the atoms are sorted together by
    (rule, key, side), where an inclusive cut sorts before an atom at its
    key and an exclusive cut after it.  The cuts of the table are already
    in that order, so a running max of their positions gives every atom
    the last cut at or below it; a cut of another rule, or none, leaves
    the atom on its own rule's base.
    """
    c, S = policy.table, policy.n_states
    first = 0 if policy.stationary else t * S
    lo, hi = c.off[first], c.off[first + S]
    seg = first + states
    if lo == hi:
        return c.base[seg]
    n_cut = hi - lo
    order = np.lexsort((
        np.concatenate((2 * c.e[lo:hi], np.ones(len(keys), dtype=np.uint8))),
        np.concatenate((c.x[lo:hi], keys)),
        np.concatenate((np.repeat(np.arange(first, first + S),
                                  np.diff(c.off[first:first + S + 1])), seg))))
    last = np.maximum.accumulate(np.where(order < n_cut, order, -1))
    atom = order >= n_cut
    at = np.empty(len(keys), dtype=np.intp)
    at[order[atom] - n_cut] = last[atom]
    own = at >= c.off[seg] - lo
    return np.where(own, c.v[lo + np.maximum(at, 0)], c.base[seg])


def _edge_move(m, space):
    """``move(keys, edges, t)``: each key after its edge's reward at step t."""
    if space.kind == "ordinal":
        grid = Grid.of_classes(space, m.rewards)
        table = grid.keys[grid.moves][grid.row]
        return lambda keys, edges, t: table[edges, keys.astype(np.int64)]
    return lambda keys, edges, t: space.accumulate_keys(keys, m.rewards[edges], t)


def _empty_row_error(m, pair, t):
    s, a = divmod(int(pair), m.n_actions)
    return ValidationError(
        f"(s={s}, a={a}): empty transition row, taken at t={t}")


def _check_taken(m, pair, degree, t):
    """Reject step t if a pair it takes has no edges (``degree`` of each
    pair of ``pair``), naming the first such pair."""
    if not degree.all():
        raise _empty_row_error(m, pair[degree.argmin()], t)


def _step(m, move, t, states, keys, masses, actions):
    """Advance atoms one timestep under per-atom actions; returns merged atoms.

    Every atom takes each slot of its (state, action) pair
    (:meth:`~qmdp.mdp.Mdp.slots`); the entries, in (edge, atom) order,
    carry the edge's successor, the atom's key moved by the edge and the
    slot's probability times the atom's mass.  A pad's entry (edge 0,
    probability 0.0) has no mass, and :func:`merge_atoms` drops it."""
    slots = m.slots()
    pair = states * m.n_actions + actions
    _check_taken(m, pair, slots.degree[pair], t)
    edge = slots.edge[pair].ravel()
    order = np.argsort(edge, kind="stable")
    atom, edge = order // slots.edge.shape[1], edge[order]
    return merge_atoms(m.succ[edge], move(keys[atom], edge, t),
                       slots.prob[pair].ravel()[order] * masses[atom])


def _initial_atoms(m, space):
    return (np.array([m.initial_state], dtype=np.int64),
            np.array([space.key(space.w0)]), np.ones(1))


def _check_policy_fits(m, policy):
    """Reject a policy with another state count, too few steps or an
    action the problem lacks."""
    if policy.n_states != m.n_states:
        raise ConfigurationError(
            f"policy has {policy.n_states} states, the problem has "
            f"{m.n_states}")
    if not policy.stationary and m.horizon is not None and policy.steps < m.horizon:
        raise ConfigurationError(
            f"policy has {policy.steps} steps, the problem's horizon is "
            f"{m.horizon}")
    c = policy.table
    low = min(c.base.min(), c.v.min(initial=0))
    high = max(c.base.max(), c.v.max(initial=0))
    if low < 0 or high >= m.n_actions:
        raise ConfigurationError(
            f"policy action {low if low < 0 else high} does not fit a problem "
            f"with {m.n_actions} actions")


def exact_distribution(m, space, policy, atom_cap=10_000_000):
    """Forward pass over reachable (t, state, wealth) atoms under a policy.

    Exact atom bookkeeping with tolerance merging per state; raises
    :class:`ResourceLimitError` when the reachable atom count exceeds
    ``atom_cap`` (use :func:`simulate` for a Monte Carlo estimate then),
    and :class:`ConfigurationError` when the policy does not fit m
    (:func:`_check_policy_fits`).

    The policy runs on a wealth grid when it has one
    (:meth:`_WealthChain.fit`): the n classes of ordinal wealth, or, for
    additive wealth, the multiples of one δ > ``WEALTH_TOL`` that the
    rewards and w0 share, where every key within T rewards of w0 is exact
    in float64 and the grid has no more cells than the wealth sums of T
    steps (:meth:`~qmdp.wealth.Grid.over_horizon`, the tests finite
    backward induction makes too).  What one step holds must fit
    ``BLOCK_FLOATS``: a stationary policy's operator, a non-stationary
    one's mass vector.  Then each step is one gather of the live rows'
    slots and one ``np.bincount`` of the mass vector, and the terminal law
    is summed per cell, with the same keys, the same errors at the same
    step and probabilities within float rounding of the atom path.
    Discounted wealth and rewards off any lattice do not fit.

    m keeps its slot layout and the chain's last grid fit, so a second
    evaluation on m, of any policy, starts from them; the result is bit
    for bit that of a fresh m.  Nothing of the policy is kept.
    """
    _check_policy_fits(m, policy)
    if m.horizon is None:
        raise ConfigurationError("exact_distribution needs a finite horizon")
    chain = _WealthChain.fit(m, space, policy)
    if chain is None:
        return _atom_distribution(m, space, policy, atom_cap)
    return chain.distribution(space, atom_cap)


def _atom_cap_error(count, t, atom_cap):
    return ResourceLimitError(
        f"{count} reachable atoms at step {t + 1} exceed the cap "
        f"{atom_cap}; use simulate() for a Monte Carlo estimate")


def _atom_distribution(m, space, policy, atom_cap):
    """:func:`exact_distribution` on the atom path: T forward steps of the
    reachable atoms."""
    move = _edge_move(m, space)
    states, keys, masses = _initial_atoms(m, space)
    for t in range(m.horizon):
        actions = _actions(policy, t, states, keys)
        states, keys, masses = _step(m, move, t, states, keys, masses, actions)
        if len(keys) > atom_cap:
            raise _atom_cap_error(len(keys), t, atom_cap)
    return WealthDistribution(space, keys, masses)


class _WealthChain:
    """A policy as a Markov chain on (state, wealth cell).

    Row ``s * C + c`` of the mass vector is the mass at state s in cell c
    of C.  A step sends each row's mass along the slots of the pair of its
    action (:meth:`actions`): slot k of pair i takes the share
    ``slots.prob[i, k]`` to row ``succ * C + moves[row, c]`` of its
    successor and grid move row, and one ``np.bincount`` adds the entries
    up in (row, slot) order.  A stationary policy builds the entries of
    every row once; a non-stationary one gathers those of the live rows,
    the ones that hold mass, at each step.  The atom path adds the same
    masses in another order, so probabilities agree within rounding.

    What depends on the problem alone is kept on m: the slot layout
    (:meth:`~qmdp.mdp.Mdp.slots`) and the last fit's grid and slot tables
    (:meth:`_layout`).  Nothing of the policy is kept: its cut positions,
    actions and entries are worked out on every call."""

    @classmethod
    def fit(cls, m, space, policy):
        """The chain of ``policy`` on m, or None where the atom path runs
        (see :func:`exact_distribution`).

        The layout, or None, depends on m and on the key of everything
        else the fit reads: the space (by identity), its w0 key (a zero
        with its sign), whether the policy is stationary (which sets the
        budget) and ``BLOCK_FLOATS``.  m keeps the last fit and its key
        (:meth:`~qmdp.mdp.Mdp._kept_last`)."""
        key = (space, _signed(space.key(space.w0)), policy.stationary,
               BLOCK_FLOATS)
        layout = m._kept_last("chain", key, lambda: cls._layout(
            m, space, policy.stationary))
        return None if layout is None else cls(m, policy, layout)

    @staticmethod
    def _layout(m, space, stationary):
        """:meth:`fit`'s layout, without the memo: the ``grid`` of C cells
        and, for each slot of m's :meth:`~qmdp.mdp.Mdp.slots`, the first
        row ``succ * C`` of its successor and the offset ``row * C`` of its
        grid move row in ``moves``, the grid's moves laid flat."""
        slots = m.slots()
        # a step holds the operator (every slot of every row) or the masses
        size = m.n_states * (slots.edge.shape[1] if stationary else 1)
        if space.kind == "ordinal":
            fits = size * len(space.classes) <= BLOCK_FLOATS
            grid = Grid.of_classes(space, m.rewards) if fits else None
        elif space.kind == "additive":
            # T steps from w0 either way, every key exact and a merge of
            # atoms never joining two cells: the atom path's keys exactly
            grid = Grid.over_horizon([space.key(space.w0)], m.rewards,
                                     m.horizon, BLOCK_FLOATS // max(size, 1))
        else:
            return None
        if grid is None:
            return None
        C = len(grid.keys)
        return grid, slots.succ * C, grid.row[slots.edge] * C, grid.moves.ravel()

    def __init__(self, m, policy, layout):
        self.m, self.policy = m, policy
        self.grid, self.succ, self.move, self.moves = layout
        grid = self.grid
        S, C = m.n_states, len(grid.keys)
        self.start = m.initial_state * C + grid.w0
        # a cut's grid position is the first cell it covers: an inclusive
        # cut covers a cell at its threshold, an exclusive one does not
        c = policy.table
        at = np.where(c.e == 0, np.searchsorted(grid.keys, c.x, "left"),
                      np.searchsorted(grid.keys, c.x, "right"))
        self.cuts = c.seg() * (C + 1) + at
        if policy.stationary:
            states, cells = np.divmod(np.arange(S * C), C)
            self.pair = states * m.n_actions + self.actions(0, states, cells)
            self.empty = np.flatnonzero(m.slots().degree[self.pair] == 0)
            self.operator = self._entries(self.pair, cells)

    def actions(self, t, states, cells):
        """The action at step t in each of the rows of ``states`` and
        ``cells``: the last cut at or below ``rule * (C + 1) + cell``
        among the cuts' ``rule * (C + 1) + position``, unless it is
        another rule's, or else the base."""
        c, C = self.policy.table, len(self.grid.keys)
        rule = states if self.policy.stationary else t * self.m.n_states + states
        if not len(self.cuts):
            return c.base[rule]
        at = np.searchsorted(self.cuts, rule * (C + 1) + cells, "right") - 1
        return np.where(at >= c.off[rule], c.v[at], c.base[rule])

    def _entries(self, pair, cells):
        """``(dest, prob)`` of every slot of the pairs taken from the
        cells, flat in (row, slot) order: the row each slot sends mass to
        and its share."""
        # a move clips only from a cell of an additive grid that w0 does not
        # reach in T - 1 steps; such a cell first gets mass at step T, which
        # no step moves on, so a clipped entry carries none
        dest = self.succ.take(pair, 0) + self.moves.take(
            self.move.take(pair, 0) + cells[:, None])
        return dest.ravel(), self.m.slots().prob.take(pair, 0).ravel()

    def distribution(self, space, atom_cap):
        """The terminal-wealth distribution after T steps from (s0, w0),
        with the atom path's errors at the same step."""
        m, C = self.m, len(self.grid.keys)
        slots = m.slots()
        K = slots.edge.shape[1]
        mass = np.zeros(m.n_states * C)
        mass[self.start] = 1.0
        for t in range(m.horizon):
            if self.policy.stationary:
                if len(self.empty) and mass[self.empty].any():
                    row = self.empty[np.flatnonzero(mass[self.empty])[0]]
                    raise _empty_row_error(m, self.pair[row], t)
                dest, prob = self.operator
                weight = prob * mass.repeat(K)
            else:
                live = np.flatnonzero(mass)
                states, cells = np.divmod(live, C)
                pair = states * m.n_actions + self.actions(t, states, cells)
                _check_taken(m, pair, slots.degree.take(pair), t)
                dest, prob = self._entries(pair, cells)
                weight = prob * mass.take(live).repeat(K)
            mass = np.bincount(dest, weight, len(mass))
            count = np.count_nonzero(mass)
            if count > atom_cap:
                raise _atom_cap_error(count, t, atom_cap)
        return self._law(space, mass)

    def _law(self, space, mass):
        """The distribution of the mass vector's cells: per cell, one
        ``np.add.reduceat`` of its nonzero masses in state order, read
        from the cell-major transpose.  That is what :func:`merge_atoms`
        adds, in its order, since cells lie more than ``WEALTH_TOL``
        apart; so no merge runs."""
        S = self.m.n_states
        by_cell = mass.reshape(S, -1).T.ravel()
        hit = np.flatnonzero(by_cell)
        cell = hit // S
        first = np.flatnonzero(np.diff(cell, prepend=-1))
        return WealthDistribution._of_merged(
            space, self.grid.keys[cell[first]],
            np.add.reduceat(_nonnegative(by_cell[hit]), first))


def _pick_edges(m, pair, u):
    """Each episode's edge: ``np.searchsorted(np.cumsum(row), u, "right")``
    over its pair's row, clamped to the last edge.

    The cumulative rows are built one rank of every row at a time, so they
    add the probabilities in ``np.cumsum``'s order and are the same floats;
    a binary search over each episode's row then takes log2(degree)
    passes."""
    degree = np.diff(m.starts)
    cum = m.prob.copy()
    for r in range(1, degree.max(initial=0)):
        at = m.starts[:-1][degree > r] + r
        cum[at] += cum[at - 1]
    # the answer is lo plus the count of the n cumulative sums from lo on
    # that are <= u: every row but its last entry, which is the clamp
    lo = m.starts[pair]
    n = m.starts[pair + 1] - lo - 1
    for _ in range(int(n.max(initial=0)).bit_length()):
        half = n // 2
        right = (n > 0) & (cum[lo + half] <= u)
        lo = np.where(right, lo + half + 1, lo)
        n = np.where(right, n - half - 1, half)
    return lo


def simulate(m, space, policy, n, seed=0):
    """Sample n terminal wealth keys under a policy; deterministic per seed.

    Episodes are advanced in lockstep.  Each step draws one uniform per
    episode, handed out in stable (state, action) pair order, and moves
    each episode along the edge its draw picks (:func:`_pick_edges`).
    Returns a float array of wealth keys (class indices for ordinal spaces).
    A pair without edges fails only when an episode takes it, with the
    error exact evaluation raises there.
    """
    _check_policy_fits(m, policy)
    if m.horizon is None:
        raise ConfigurationError("simulate needs a finite horizon")
    if n < 1:
        raise ValueError("n must be >= 1")
    move, rng = _edge_move(m, space), np.random.default_rng(seed)
    states = np.full(n, m.initial_state, dtype=np.int64)
    wk = np.full(n, space.key(space.w0), dtype=np.float64)
    for t in range(m.horizon):
        pair = states * m.n_actions + _actions(policy, t, states, wk)
        _check_taken(m, pair, m.starts[pair + 1] - m.starts[pair], t)
        u = np.empty(n)
        u[np.argsort(pair, kind="stable")] = rng.random(n)
        edge = _pick_edges(m, pair, u)
        wk, states = move(wk, edge, t), m.succ[edge]
    return wk


# -- brute-force oracle -----------------------------------------------------

def brute_force_distributions(m, space, policy_cap=1_000_000):
    """All terminal distributions achievable by deterministic wealth-Markovian
    policies, with the action assignments that realize them.

    Enumerates actions per reachable (t, state, wealth) atom, expanding
    only atoms actually reached under the choices made so far; that is the
    full set of realized deterministic wealth-Markovian behaviours.
    Returns a list of ``(atoms_dict, assignment_dict)`` pairs where
    atoms_dict maps (state, wealth_key) to a mass and assignment maps
    (t, state, wealth_key) to an action.
    """
    if m.horizon is None:
        raise ConfigurationError("the brute-force oracle needs a finite horizon")
    T = m.horizon
    move = _edge_move(m, space)
    results = []

    def rec(t, atoms, assignment):
        states, keys, masses = atoms
        if t == T:
            points = zip(states.tolist(), keys.tolist())
            results.append((dict(zip(points, masses.tolist())), dict(assignment)))
            if len(results) > policy_cap:
                raise ResourceLimitError(
                    f"more than {policy_cap} realizable deterministic "
                    "wealth-Markovian policies; instance too large for the "
                    "brute-force oracle")
            return
        points = [(t, s, wk) for s, wk in zip(states.tolist(), keys.tolist())]
        for combo in itertools.product(range(m.n_actions), repeat=len(points)):
            assignment.update(zip(points, combo))
            rec(t + 1, _step(m, move, t, states, keys, masses, np.array(combo)),
                assignment)
        for point in points:
            del assignment[point]

    rec(0, _initial_atoms(m, space), {})
    return results


def _assignment_to_policy(m, assignment):
    """Interval policy from per-atom actions (atoms become inclusive cuts).

    The lowest atom of each (t, state) sets its rule's base; a (t, state)
    with no atom takes action 0.
    """
    points = sorted(assignment.items())
    seg = np.array([t * m.n_states + s for (t, s, _), _ in points],
                   dtype=np.intp)
    keys = np.array([wk for (_, _, wk), _ in points], dtype=np.float64)
    acts = np.array([a for _, a in points], dtype=np.int64)
    head = np.ones(len(seg), dtype=bool)
    head[1:] = seg[1:] != seg[:-1]
    base = np.zeros(m.horizon * m.n_states, dtype=np.int64)
    base[seg[head]] = acts[head]
    cut = ~head
    return WealthMarkovPolicy.from_cuts(base, seg[cut], keys[cut],
                                        np.ones(cut.sum(), dtype=bool),
                                        acts[cut], m.n_states)


def brute_force_optimal_quantile(m, space, tau, criterion, policy_cap=1_000_000):
    """Exhaustive optimal quantile over deterministic wealth-Markovian policies.

    Returns ``(wealth, policy)`` — the best achievable tau-quantile and a
    policy attaining it.  Only viable on small instances; the enumeration
    is capped at ``policy_cap`` realizable policies.
    """
    best_key = None
    best_assignment = None
    for atoms, assignment in brute_force_distributions(m, space, policy_cap):
        dist = WealthDistribution.from_atoms(
            space, ((wk, mass) for (_, wk), mass in atoms.items()))
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

    def pair_sums(x):
        """Sum of per-edge values x over each pair's edges, as (S, A)."""
        return np.bincount(m.pair, weights=x, minlength=S * A).reshape(S, A)

    # "sa" reads the table: summing p * r over a pair's edges rounds
    rbar = (m.reward_table if m.reward_kind == "sa" else
            pair_sums(m.prob * m.rewards))
    values = np.zeros((T + 1, S))
    actions = np.zeros((T, S), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        q = rbar + pair_sums(m.prob * values[t + 1][m.succ])
        actions[t] = q.argmax(axis=1)
        values[t] = q.max(axis=1)
    return actions, values
