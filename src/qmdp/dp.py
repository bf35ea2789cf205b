"""Functional backward induction and functional value iteration.

Instead of scalar state values, every state carries a step function of
wealth: ``V_t(s, .)`` is the best probability of ending with wealth above
the target, as a function of the wealth accumulated so far.  The backward
update pulls each successor slice through the wealth accumulation (shift),
mixes successors with the kernel (combine), and takes the per-action upper
envelope (pointwise_max); the envelope's argmax, an integer-valued step
function of wealth, is exactly the greedy wealth-Markovian decision rule.

One layer kernel (:func:`_layer`) makes that update for every state at
once, on flat arrays rather than per (state, action) pair, in the cut-table
format of :mod:`qmdp.stepfun`.  Every edge of the kernel's edge table
gathers its successor's cuts, shifted by its wealth move; one sort per
state by (threshold, side) merges the cut partitions of all actions, and
one cumulative sum per action along the sorted cuts gives every action's
value on every merged piece.  The max and argmax over actions, after the
format's segmented merges, are the slice and the rule: the per-slice
composition of :func:`~qmdp.stepfun.shift`, :func:`~qmdp.stepfun.combine`
and :func:`~qmdp.stepfun.pointwise_max` (identical cuts, values within
float rounding).  A run hands out a policy
(:class:`~qmdp.stepfun.WealthMarkovPolicy`) and one value table per layer
(:class:`ValueFunction`).

Each layer is computed on a sorted set of states; a state reads only
its own edges, so its slice and rule do not depend on the set.  One
kernel call writes the layer's S-state value and rule tables in one
pass, every state outside the set holding the constant 0.  Finite
horizons run T layers (:func:`backward_induction`), on every state by
default.  With ``reachable_only`` layer t holds only the states reachable
from the initial state in exactly t steps (one frontier step gathers
``succ`` over the ``starts`` spans of the frontier's pairs): they read
only reachable successors, and the initial-state slice and their rules
are all a quantile solve reads.  The other (t, s) are not computed.
:func:`~qmdp.stepfun.translate` moves a table of rules or slices to another
target, as the solver does with its policy.

Infinite horizons with uniformly signed rewards and undiscounted additive
wealth iterate the same kernel to convergence (:func:`value_iteration`)
and return a stationary policy.  A sweep carries only the value table,
a cut table across sweeps; the stationary rule is built once, from the
iterate the converged sweep read.  Wealth then moves one way from
``w0``, so the slices are clipped to the reachable side of it
(:func:`reachable_window`), where the clip is exact.  By translation,
one clipped run at target t holds the value at ``w0`` of every target
above t (nonpositive rewards) or below t (nonnegative rewards).

So there are two loops: the cut loop, and one dense sweep
(:class:`_DenseSweep`) where slices are vectors over the cells of a
:class:`~qmdp.wealth.Grid`.  States whose slot rows are bit-equal hold
bit-equal values at every layer, so they form one class and share one
value row.  A dense step mixes each distinct (successor class,
probability) row once over every cell, in one gather and a sum over
slots; each (class, action) reads its row at its own wealth move, in a
second gather, and a max over actions ends the step.  Where that would
gather more floats than one gather per edge, the move folds into the row
gather and the second gather disappears: the per-edge step, which the
ordinal sweep always takes.  Both add the same products in the same
order, so they give the same bits.  :meth:`_DenseSweep.fit` picks the
dense sweep, and states once when a grid is admitted, over one of three
grids:

* the n classes of ordinal wealth (:class:`OrdinalSweep`).  The slices of
  many targets stack into one array, so one batched backward induction
  gives the optimal exceedance probability of every class threshold;
  ordinal :func:`backward_induction` runs it too, at one threshold over
  every class, so :func:`_layer` is numeric-only.  The batched sweep
  reads only (s0, w0) at t = 0, so layer t computes only the classes w0
  reaches in t steps, and targets that split those terminal classes alike
  share one column: the same sums of the same products.  It keeps each
  layer's input slices, so a solve's policy is one rule pass over them at
  the column it picks, the full sweep's rules on every reached class;
* the multiples of a lattice step δ of the rewards and the target from
  which T steps can reach the target, for a finite run on additive
  wealth;
* the multiples of δ from the target to ``w0`` and a few past it, for an
  infinite run.

A finite dense run tables the greedy rows of all its layers at once; its
value rows are tabled on first read (:class:`ValueFunction`), a single
slice alone and once.  On a lattice the dense sweep gives the cut loop's
rules and cuts, values within float rounding, and on an infinite run its
sweep count, except where δ is within ``WEALTH_TOL``: there the infinite
grid is exactly scale-free and the cut loop's absolute merge of cuts is
not.

What a run works out from the problem alone is kept on the immutable
:class:`~qmdp.mdp.Mdp` and reused by every later run on it: the reach
mask of a finite horizon (:func:`_reachable`) and the last
:meth:`_DenseSweep.fit`, a sweep with its grid, state classes, mix rows
and gather tables or the None that sends a run to the cut loop; an
ordinal sweep also keeps the classes w0 reaches and their gather tables,
laid end to end for the rule pass too.  No value rows, rules or
probabilities are kept: every run steps and tables afresh.
"""

import functools
import math
import numbers

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .stepfun import (VALUE_TOL, WealthMarkovPolicy, _join, _offsets,
                      _on_classes, _ranks, _restrict, _segment, _segments,
                      _target, _threshold_runs, _tol_merged, _unpack,
                      _value_merged)
# bound here for the callers that reach them through this module: the
# benchmark's tracer (the per-slice algebra) and the tests (_Cuts, translate)
from .stepfun import (_Cuts, combine, pointwise_max, restrict, shift,
                      sup_distance, translate)
from .wealth import BLOCK_FLOATS, AdditiveWealth, Grid, OrdinalWealth, _signed

# What one entry of the layer kernel holds besides its value for every
# action: keys, indices, sort order and sorted copies.
_ENTRY_FLOATS = 16

# The largest per-edge gather (edge slots x pairs x cells) of one step of a
# finite lattice sweep, whatever the state classes and mix rows save.  Its time grows with the gather, the cut loop's with the
# pieces per slice.  Measured in one process on a 2-core VM (Python 3.11,
# numpy 2.4), one reachable-only backward induction on a dense grid against
# the cut loop: data centers with 2 servers took 0.68x the cut loop's time
# at H=4 (12,528 floats per step), 0.65x at H=8 (24,624), 0.92x at H=12
# (36,720) and 1.12x at H=16 (48,816); with 3 servers, 2.6x at H=2
# (76,545) and 3.1x at H=4 (150,903).
DENSE_FLOATS = 1 << 15


class ValueFunction:
    """Per-timestep, per-state wealth slices, one table per layer.

    ``tables[t]`` (a :class:`~qmdp.stepfun._Cuts` table, float values)
    holds the slice of every state at timestep t, for t in 0..T; layer T
    is the terminal target utility.  A value-iteration result holds one
    stationary layer, ``tables[0]``, and the number of sweeps that made it.

    A dense sweep hands over its first L layers untabled: ``rows`` is a
    (k, n) array of value rows over the cells of its grid, ``at`` the (L,
    S) array of the row each (t, s) takes (states of one class share a
    row), ``table`` tables any (j, n) run of rows, and the ``tables`` given
    are the layers after them.  The rows are tabled on the first read of
    ``tables`` or ``slices``, one per (t, s); :meth:`slice` before that
    tables only its own row.  A row tables alone as it does among the
    others, so either read gives the same bits, and :meth:`slice` keeps
    each row it tabled, so a second read of one slice tables nothing.
    """

    def __init__(self, tables, sweeps=None, rows=None, at=None, table=None):
        self.sweeps = sweeps
        if rows is None:
            self.tables = tables
        else:
            self._rows, self._at, self._table = rows, at, table
            self._tail, self._tabled = tables, {}

    @functools.cached_property
    def tables(self):
        L, S = self._at.shape
        flat = self._table(self._rows.take(self._at.ravel(), axis=0))
        return [_segments(flat, t * S, S) for t in range(L)] + self._tail

    @functools.cached_property
    def slices(self):
        """``slices[t][s]``: every slice as a step function."""
        return [_unpack(c) for c in self.tables]

    def slice(self, t, s):
        if "tables" not in vars(self) and 0 <= t < len(self._at):
            f = self._tabled.get((t, s))
            if f is None:
                i = self._at[t, s]
                f = self._tabled[t, s] = _segment(
                    self._table(self._rows[i:i + 1]), 0)
            return f
        return _segment(self.tables[t], s)


def _edges(m, states):
    """The edges of the sorted, distinct ``states``, in pair order.

    A state's pairs are consecutive in the edge table, so its edges are
    one span; a run of consecutive states (every state, or a single one)
    is one span too, gathered by a single ``arange``.
    """
    A = m.n_actions
    if states[-1] - states[0] == len(states) - 1:
        return np.arange(m.starts[states[0] * A],
                         m.starts[(states[-1] + 1) * A])
    first = m.starts[states * A]
    degree = m.starts[(states + 1) * A] - first
    return np.repeat(first, degree) + _ranks(degree)


def _layer(m, space, nxt, t, states, greedy=True):
    """One backward step of the sorted ``states``, from the layer-(t+1) table.

    Numeric wealth only: every cut of every edge's successor slice, moved
    down by the edge's ``accumulate_keys`` increment, becomes an entry: its
    threshold and side, the action of its edge, and the value step
    ``prob * (v - previous v)``.  Sorting the entries of a state by
    (threshold, side) merges the cut partitions of all its actions, and a
    cumulative sum of the steps along each action's row gives that
    action's value on every merged piece.  The max and the argmax (the
    lowest action within ``VALUE_TOL`` of the max) over the rows are the
    slice and the greedy rule.  The segmented merges of :mod:`qmdp.stepfun`
    put them in canonical form.  Slice and rule share their keys, so one
    threshold merge serves both; it collapses each run of identical keys
    onto its last entry, the one past every step at that key.

    A state reads only its own edges, so its slice and rule do not depend
    on which other states are in ``states``.  Returns ``(values, rules)``,
    the S-state tables of the slices and of the greedy rules; a state not
    in ``states`` gets the constant 0 in both.  Without ``greedy`` no rule
    is computed and ``rules`` is None.
    """
    S, A = m.n_states, m.n_actions
    if not m.numeric_rewards:
        raise ConfigurationError(
            f"{space.kind} wealth spaces accumulate numeric rewards")
    delta = space.accumulate_keys(0.0, m.rewards, t)
    count = (nxt.off[1:] - nxt.off[:-1])[m.succ]
    steps = nxt.steps()
    base_sa = np.bincount(m.pair, weights=m.prob * nxt.base[m.succ],
                          minlength=S * A).reshape(S, A)
    per_state = np.bincount(m.pair // A, weights=count,
                            minlength=S).astype(np.intp)[states]
    base_q = base_sa[states]
    best = base_q.max(axis=1)
    top = np.zeros(S)
    top[states] = best
    # the working arrays of one pass hold about BLOCK_FLOATS floats
    width = max(1, per_state.max(initial=0))
    block = max(1, BLOCK_FLOATS // ((A + _ENTRY_FLOATS) * width))
    parts = []
    for b0 in range(0, len(states), block):
        chunk = states[b0:b0 + block]
        n = len(chunk)
        span = _edges(m, chunk)
        cnt = count[span]
        edge = span.repeat(cnt)
        idx = nxt.off[m.succ[span]].repeat(cnt) + _ranks(cnt)
        # edges come in pair order, so the entries of a state are one run
        n_ent = per_state[b0:b0 + block]
        w = max(1, n_ent.max())
        state, pos = np.arange(n).repeat(n_ent), _ranks(n_ent)
        # entry i sits at column pos[i] of row state[i]; once sorted, the
        # entries of a state fill the first columns of its row in order
        at = state * w + pos
        x, e = nxt.x[idx] - delta[edge], nxt.e[idx]
        order = _sort_rows(x, e, at, pos, (n, w))
        x, e, edge, idx = x[order], e[order], edge[order], idx[order]
        # D[a, s, k]: the value of action a in state s from sorted key k on
        D = np.zeros((A, n * w))
        D[m.pair[edge] % A, at] = m.prob[edge] * steps[idx]
        D = D.reshape(A, n, w)
        D[:, :, 0] += base_q[b0:b0 + block].T
        D.cumsum(axis=2, out=D)
        first, last = _threshold_runs(x, e, state)
        # q[a, i]: the value of action a on merged piece i
        q = D.reshape(A, -1).take(at[last], axis=1)
        env = q.max(axis=0)
        parts.append((x[first], e[first], chunk[state[first]], env,
                      _first_best(q, env) if greedy else None))
    x, e, seg, env, arg = (
        parts[0] if len(parts) == 1
        else [None if p[0] is None else np.concatenate(p)
              for p in zip(*parts)])
    values = _value_merged(top, x, e, env, seg, VALUE_TOL)
    if not greedy:
        return values, None
    rule = np.zeros(S, dtype=np.intp)
    rule[states] = _first_best(base_q.T, best)
    return values, _value_merged(rule, x, e, arg, seg, 0)


def _first_best(q, best):
    """The lowest index along axis 0 whose value is within VALUE_TOL of best.

    Summation order moves an action's value by float rounding, so actions
    tied within the value tolerance count as tied.
    """
    return (q >= best - VALUE_TOL).argmax(axis=0)


def _sort_rows(x, e, at, pos, shape):
    """The stable order that sorts the entries of each row by (threshold,
    side), rows kept in order.

    The entries of a row are one run, and entry i sits at column ``pos[i]``
    of its row: flat position ``at[i]`` of a grid of ``shape``.  A single
    row is one sort; several sort in the grid, whose padding has the key
    (inf, 2), which sorts last.
    """
    if shape[0] == 1:
        return np.lexsort((e, x))
    X = np.full(shape, np.inf)
    X.put(at, x)
    E = np.full(shape, 2, dtype=np.uint8)
    E.put(at, e)
    # the grid's sort gives each row's order by column; entry i's row
    # starts at entry i - pos[i]
    return np.lexsort((E, X)).ravel().take(at) + (np.arange(len(at)) - pos)


def _reachable(m):
    """The (T, S) mask of the states reachable from the initial state in
    exactly t steps, for t = 0..T-1, over every edge of the kernel.  Built
    once per :class:`~qmdp.mdp.Mdp` and kept on it, read-only."""
    def build():
        live = np.zeros((m.horizon, m.n_states), dtype=bool)
        live[0, m.initial_state] = True
        for t in range(1, m.horizon):
            live[t, m.succ[_edges(m, np.flatnonzero(live[t - 1]))]] = True
        live.flags.writeable = False
        return live

    return m._kept("reachable", build)


def backward_induction(m, space, w, strict, reachable_only=False):
    """Maximize the probability of terminal wealth above ``w``.

    ``strict`` selects the strict indicator target (lower-quantile mode);
    non-strict is the upper-quantile mode.  Returns ``(policy, p, vf)``
    where p is the optimal exceedance probability from the initial state
    and vf the per-timestep value tables, ``vf.slices[t][s]`` for t in
    0..T.  The policy's table holds the T·S greedy rules.  A ``w`` that
    ``space.key`` rejects, NaN included, raises :class:`ConfigurationError`.

    By default layer t < T keeps every state.  With ``reachable_only``,
    layer t keeps only the states reachable from the initial state in
    exactly t steps; every other (t, s) gets the constant rule 0 and the
    constant slice 0.0.  Reachable states read only reachable successors,
    so p, the initial-state slice and every reachable rule are identical
    to the full run's.

    Two loops make the layers, picked from the input.  Where
    :meth:`_DenseSweep.fit` finds a grid (the classes of ordinal wealth,
    or a lattice of the rewards and the target key), the dense sweep
    steps every state and tables the rules of all layers at once, the
    rows of unreachable (t, s) zeroed; its value rows are tabled on first
    read (:class:`ValueFunction`), and its p is the sweep's own value at
    (s0, w0).  Otherwise each layer is one :func:`_layer` call on cut
    tables over the states the layer keeps (numeric wealth computes no
    other), as for discounted wealth and rewards off any lattice.  On a
    lattice both give the same rules and the same cuts, values within
    float rounding.
    """
    if m.horizon is None:
        raise ConfigurationError(
            "backward_induction needs a finite horizon; "
            "use value_iteration for infinite-horizon problems")
    if m.horizon < 1:
        raise ConfigurationError(
            f"backward_induction needs a horizon of at least 1, got {m.horizon}")
    T, S = m.horizon, m.n_states
    target = space.key(w)
    live = _reachable(m) if reachable_only else None
    terminal = _target(target, strict, S)
    sweep = _DenseSweep.fit(m, space, target)
    if sweep is not None:
        rules, p, rows, at = sweep._tables(target, strict, live)
        return (WealthMarkovPolicy(rules, S), p,
                sweep._value_function(rows, at, strict, [terminal]))
    tables, rules, every = [terminal], [], np.arange(S)
    for t in range(T - 1, -1, -1):
        states = every if live is None else np.flatnonzero(live[t])
        value, rule = _layer(m, space, tables[0], t, states)
        tables.insert(0, value)
        rules.insert(0, rule)
    vf = ValueFunction(tables)
    p = vf.slice(0, m.initial_state)(space.key(space.w0))
    return WealthMarkovPolicy(_join(rules), S), float(p), vf


class _DenseSweep:
    """Dense backward steps over the n cells of a wealth grid per state class.

    A slice over n cells is a length-n vector, so the slices of J targets
    stack into one (C * n, J) array: one row of n cells per class of
    states.  States whose slot rows (the successor, probability and move
    row of every slot of every action, read from m's kept slot layout,
    :meth:`~qmdp.mdp.Mdp.slots`; a slot's move row is ``grid.row`` of its
    edge) are bit-equal form one class (:meth:`_lump`).  The terminal
    target is the same for every state, so the states of a class hold
    bit-equal values at every layer, and one row serves them all:
    ``cls[s]`` is the class of state s, and a class steps through the
    pairs of its first state, its successors read as their classes.

    A step mixes each pair's successor values in slot order and takes the
    max over actions.  The (successor class, probability) rows of the
    classes' pairs repeat, so a step mixes each distinct row r once, on
    every cell: ``W[r, c] = Σ_i p_i V[class_i * n + c]``, in one gather
    through ``idx[i, r, c]`` and a multiply by ``prob[i, r]``; each (class,
    action) then reads its row at its own move, ``W[row, move(c)]``, in a
    second gather through ``mix``.  A pair whose edges move wealth
    differently keeps each slot's move in its row and reads it in place.
    Pairs with fewer edges than the widest one (K) are padded with
    zero-probability slots, so a plain sum over slots mixes the
    successors; the slot is the outer axis, so the sum adds edges in slot
    order whatever the other axes hold.  The step takes the R distinct
    rows only where that gathers fewer floats (R·K + C·A < C·A·K).
    Otherwise ``mix`` is None and the move folds into the one gather:
    ``idx[i, ca, c]`` is the flat (class, cell) row that slot i of class
    pair ca reaches from cell c, the per-edge step.  Either way a value is
    the same sum of the same products as over states and edges, bit for
    bit.

    Cell c stands for the wealth ``keys[c]``; a table cuts where a row
    changes, on the criterion's side (:func:`_on_classes`), as the cut
    loop's tables do.  Backward induction runs T steps (:meth:`_sweep`);
    value iteration runs :meth:`_step` until the change on the grid's
    clip range (:meth:`residual`) passes, and tables the iterate there.
    Class rows become state rows only where a table reads states: the
    rules, and the value rows of a :class:`ValueFunction`.
    """

    # whether a strict table cuts on the exclusive side; class cuts are
    # inclusive at every class key, strict or not
    strict_cuts = True

    @classmethod
    def fit(cls, m, space, target, window=None):
        """The dense sweep of a run at the ``target`` key, or None where
        the cut loop runs.

        Ordinal wealth sweeps its classes (:class:`OrdinalSweep`).
        Additive wealth with numeric rewards has a grid when the rewards
        and the w0 and target keys lie on one lattice of step δ = g / 2^k
        (:class:`~qmdp.wealth.Lattice`), the target is not -0.0 (a sign
        no cell key keeps) and:

        1. every key of the grid times 2^k is an integer below 2^53, so
           that every key is exact in float64, as every threshold of the
           cut loop then is;
        2. the cells are no more than ``math.comb(n + k, k)``, the count
           of wealth sums of at most n of the k distinct nonzero rewards,
           which bounds the cuts of a slice of the cut loop;
        3. one step's gather (edge slots x pairs x cells) fits the budget.

        A finite run (no ``window``) takes the cells from T steps of the
        largest reward below the target to T of the smallest above it,
        and one more each side, whose values are 0 and 1 at every layer
        under either criterion, so clipping moves into them is exact
        (:meth:`~qmdp.wealth.Grid.over_horizon`); n = T, the budget is
        ``DENSE_FLOATS``, and δ must be above ``WEALTH_TOL``, within which
        the cut loop would merge two cuts a cell apart.  An infinite run,
        given its :func:`reachable_window`, takes the cells from one past
        the target to w0 and ``max|r| / δ`` more past w0
        (:meth:`~qmdp.wealth.Grid.over_window`); the target must lie on
        the reachable side of w0, n = ⌊|w0 - t| / min nonzero |r|⌋ counts
        the cells from the target to w0, the budget is ``BLOCK_FLOATS``,
        and any δ is kept.

        The result, a sweep or None, depends on m and on the key of
        everything else the fit reads: the space (by identity), its w0
        key, the target (but not for ordinal wealth, whose sweep serves
        every target), which side ``window`` leaves open, and the two
        budgets in force.  Keys keep the sign of a zero.  m keeps the last
        fit and its key (:meth:`~qmdp.mdp.Mdp._kept_last`).
        """
        ordinal = isinstance(space, OrdinalWealth)
        key = (space, _signed(space.key(space.w0)),
               None if ordinal else _signed(target),
               None if window is None else window[0] is None,
               DENSE_FLOATS, BLOCK_FLOATS)
        return m._kept_last("dense", key,
                            lambda: cls._fit(m, space, target, window))

    @classmethod
    def _fit(cls, m, space, target, window):
        """:meth:`fit` without the memo."""
        if isinstance(space, OrdinalWealth):
            return OrdinalSweep(m, space)
        if not (isinstance(space, AdditiveWealth) and m.numeric_rewards):
            return None
        gather = m.n_states * m.n_actions * int(np.diff(m.starts).max(initial=1))
        anchors = [space.key(space.w0), target]
        if window is None:
            grid = Grid.over_horizon(anchors, m.rewards, m.horizon,
                                     DENSE_FLOATS // gather, backward=True)
        else:
            grid = Grid.over_window(anchors, m.rewards, window[0] is None,
                                    BLOCK_FLOATS // gather)
        return None if grid is None else cls(m, grid)

    def __init__(self, m, grid):
        # m's sizes, not m: m keeps its sweep, and a sweep holding m would
        # make a cycle that only the cyclic collector frees
        self.horizon, self.initial_state = m.horizon, m.initial_state
        self.n_states, self.n_actions = S, A = m.n_states, m.n_actions
        self.grid = grid
        self.n = n = len(grid.keys)
        slots = m.slots()
        K = slots.succ.shape[1]
        move = grid.row[slots.edge]
        bits = slots.prob.view(np.int64)
        self.cls, first = self._lump(np.hstack(
            [t.reshape(S, A * K) for t in (slots.succ, bits, move)]))
        self.n_classes = C = len(first)
        pairs = (first[:, None] * A + np.arange(A)).ravel()
        succ, prob, move = self.cls[slots.succ[pairs]], bits[pairs], move[pairs]
        # a pair whose real slots share one move mixes on the cells in place
        # (the identity row, past grid.moves) and reads its mix at that move
        real = np.arange(K) < slots.degree[pairs, None]
        one = ((move == move[:, :1]) | ~real).all(axis=1)
        inner = np.where(one[:, None], len(grid.moves), move)
        row, lead = self._lump(np.hstack((succ, prob, inner)))
        if len(lead) * K + C * A < C * A * K:
            moves = np.vstack((grid.moves, np.arange(n)))
            self.mix = row[:, None] * n + moves[
                np.where(one, move[:, 0], len(grid.moves))]
            succ, prob, move = succ[lead], prob[lead], inner[lead]
        else:
            moves, self.mix = grid.moves, None
        self.idx = succ.T[:, :, None] * n + moves[move.T]
        self.prob = np.ascontiguousarray(
            prob.view(np.float64).T)[:, :, None, None]

    @staticmethod
    def _lump(key):
        """``(cls, first)``: row i of the (N, W) integer array ``key`` is
        in class ``cls[i]`` with every row bit-equal to it; the classes are
        numbered in the order of their first rows, ``first``."""
        if key.shape[1] == 0:
            return np.zeros(len(key), dtype=np.intp), np.zeros(1, dtype=np.intp)
        order = np.lexsort(key.T[::-1])
        ranked = key[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        # a stable sort puts each class's first row at the head of its run
        heads = order[new]
        first = np.sort(heads)
        cls = np.empty(len(key), dtype=np.intp)
        cls[order] = np.searchsorted(first, heads)[np.cumsum(new) - 1]
        return cls, first

    def _step(self, V, rule=None, idx=None):
        """One backward step of the class slices V; the greedy rule (the
        lowest action within ``VALUE_TOL`` of the best, as in
        :func:`_layer`) goes into ``rule`` unless it is None; ``idx``
        replaces ``self.idx``.

        No array of a step outlives it: with two steps' arrays alive at
        once, malloc returns the memory to the system after every step and
        faults it back in (about 500 page faults per ordinal solve).
        """
        J = V.shape[1]
        g = V.take(self.idx if idx is None else idx, axis=0)
        g *= self.prob
        q = g.sum(axis=0)
        if self.mix is not None:
            q = q.reshape(-1, J).take(self.mix, axis=0)
        q = q.reshape(self.n_classes, self.n_actions, -1, J)
        top = q.max(axis=1)
        if rule is not None:
            rule[:] = _first_best(q[..., 0].swapaxes(0, 1), top[..., 0])
        return top.reshape(-1, J)

    def _sweep(self, splits, reach=None, best=None, values=None, inputs=None):
        """The layer-0 class slices of the terminal columns 1 from position
        ``splits[j]`` of the cells of ``reach`` (:meth:`OrdinalSweep._reach`)
        or of all.  With ``best``, a (T, C, n) array for one column,
        ``best[t]`` gets layer t's rule, and with ``values``, a (T, C * n,
        J) array, its slices (all cells).  With ``inputs``, a list, each
        layer's input slices are appended to it, layer T - 1's first: the
        arrays the steps read, kept as they are."""
        cells, gathers = reach or (range(self.n), [None] * self.horizon)
        V = self._start(len(cells), splits)
        for t in range(self.horizon - 1, -1, -1):
            if inputs is not None:
                inputs.append(V)
            V = self._step(V, None if best is None else best[t], gathers[t])
            if values is not None:
                values[t] = V
        return V

    def _start(self, n, splits):
        """The terminal slices over n cells per class: column j is 1 from
        cell ``splits[j]`` on."""
        hit = np.arange(n)[:, None] >= np.asarray(splits)
        return np.tile(hit.astype(np.float64), (self.n_classes, 1))

    def _split(self, target, strict):
        """The first cell above the ``target`` key (at or above it without
        ``strict``): where the terminal value turns 1."""
        return np.searchsorted(self.grid.keys, target,
                               "right" if strict else "left")

    def _table(self, rows, strict, cells=slice(None)):
        """The table of ``rows`` over the cells ``cells``, one function per
        row, cut on the criterion's side."""
        return _on_classes(rows[:, cells], self.grid.keys[cells],
                           strict and self.strict_cuts)

    def residual(self, new, old):
        """``max |new - old|`` over the clip range: over the classes, as
        the states of a class change alike."""
        gap = (new - old).reshape(self.n_classes, -1)[:, self.grid.clip]
        return float(np.abs(gap).max())

    def _value_function(self, rows, at, strict, tail, sweeps=None,
                        cells=slice(None)):
        """The :class:`ValueFunction` of the value ``rows`` (k, n), the
        row of layer t's state s at ``at[t, s]``, followed by the tables
        ``tail``: a run of rows tables over the cells ``cells`` on first
        read, each value change within ``VALUE_TOL`` merged."""
        return ValueFunction(
            tail, sweeps, rows, at,
            lambda run: _tol_merged(self._table(run, strict, cells)))

    def _tables(self, target, strict, live=None):
        """``(rules, p, rows, at)`` of :func:`backward_induction` at the
        ``target`` key: the table of the T·S greedy rules, tabled over the
        rows of all layers at once, p at (s0, w0), and the value rows,
        untabled, with the (T, S) array ``at`` of the row of each (t, s).
        Row t·C + c holds layer t's rule and value row of class c, and row
        T·C zeros: the row of every (t, s) where the (T, S) mask ``live``
        is False."""
        T, C, n = self.horizon, self.n_classes, self.n
        best = np.empty((T * C + 1, n), dtype=np.intp)
        rows = np.empty((T * C + 1, n))
        best[-1], rows[-1] = 0, 0.0
        top = self._sweep([self._split(target, strict)],
                          best=best[:-1].reshape(T, C, n),
                          values=rows[:-1].reshape(T, C * n, 1))
        # w0 below (above) the grid holds its first (last) cell's value
        p = float(top[self.cls[self.initial_state] * n
                      + min(max(self.grid.w0, 0), n - 1), 0])
        at = np.arange(0, T * C, C)[:, None] + self.cls
        if live is not None:
            at[~live] = T * C
        return self._table(best.take(at.ravel(), axis=0), strict), p, rows, at


class OrdinalSweep(_DenseSweep):
    """Dense backward induction over the n classes of an ordinal space.

    The cells are the classes, moved through the class-transition table
    (:meth:`~qmdp.wealth.Grid.of_classes`).  One loop
    (:meth:`_DenseSweep._sweep`) serves the batched exceedance curve and
    ordinal :func:`backward_induction`.  The curve's sweep skips the
    classes w0 cannot reach (:meth:`_reach`); a solve's sweep
    (:meth:`policy`) also keeps each layer's input slices and reads the
    greedy rules of one column off them in one pass.  Strict at class j is
    non-strict at j + 1, so every table cuts inclusively at class keys.
    """

    strict_cuts = False

    def __init__(self, m, space):
        if m.horizon is None:
            raise ConfigurationError("the dense ordinal sweep needs a finite horizon")
        if not isinstance(space, OrdinalWealth):
            raise ConfigurationError("the dense ordinal sweep needs ordinal wealth")
        super().__init__(m, Grid.of_classes(space, m.rewards))

    @staticmethod
    def _lump(key):
        """Every row its own class: every state steps on its own row and
        every pair mixes per edge, the layout that the reach-restricted
        gathers (:meth:`_reach`) and the rule pass (:meth:`_rules`) read."""
        every = np.arange(len(key))
        return every, every

    def _reach(self):
        """``(R_T, gathers)``: ``R_0 = {w0}``, ``R_{t+1}`` every class a
        real edge moves a class of ``R_t`` to (in any state), and layer t's
        gather table over ``R_t``: row (s, k) reads row ``succ * |R_{t+1}|``
        plus the position of ``move(k)`` in ``R_{t+1}``; padding, row 0.
        Built on the first call and kept: it reads no target."""
        reach, gathers = self._reached
        return reach[-1], gathers

    @functools.cached_property
    def _reached(self):
        """``(R_0..R_T, gathers)`` of :meth:`_reach`."""
        T = self.horizon
        reach = [np.array([self.grid.w0])]
        hit = np.empty(self.n, dtype=bool)
        for _ in range(T):
            hit[:] = False
            hit[self.grid.moves[:, reach[-1]]] = True
            reach.append(np.flatnonzero(hit))
        succ, move = np.divmod(self.idx, self.n)
        gathers = []
        for here, there in zip(reach, reach[1:]):
            # fresh each layer: padding's class 0 may lie outside R_{t+1},
            # and its zero-probability gather must still read a real row
            pos = np.zeros(self.n, dtype=np.intp)
            pos[there] = np.arange(len(there))
            gathers.append(succ[:, :, here] * len(there)
                           + pos[move[:, :, here]])
        return reach, tuple(gathers)

    @functools.cached_property
    def _rule_layout(self):
        """The entries (t, s, k), k in R_t, of a rule pass, in table order
        (t, then s, then k): ``(gather, prob, rule, key, first)``.

        ``gather[i, a, e]`` is the row that slot i of action a of entry e
        reads among the inputs a sweep keeps (:meth:`_sweep`), laid end to
        end, and ``prob[i, a, e]`` its probability; ``rule`` is each
        entry's rule t * S + s, ``key`` its class key, ``first`` the first
        entry of every rule.  Built on the first call and kept: it reads no
        target."""
        reach, gathers = self._reached
        T, S, A = self.horizon, self.n_states, self.n_actions
        # layer t reads V_{t+1}, kept after the inputs of the T - 1 - t
        # layers above it
        at = np.cumsum([0] + [S * len(r) for r in reach[:0:-1]])[::-1]
        prob = self.prob.reshape(-1, S, A).swapaxes(1, 2)
        parts = [(gathers[t].reshape(-1, S, A, len(reach[t])).swapaxes(1, 2)
                  .reshape(-1, A, S * len(reach[t])) + at[t + 1],
                  prob.repeat(len(reach[t]), axis=2),
                  np.arange(S).repeat(len(reach[t])) + t * S,
                  np.tile(self.grid.keys[reach[t]], S)) for t in range(T)]
        gather, prob, rule, key = (np.concatenate(x, axis=-1)
                                   for x in zip(*parts))
        first = np.flatnonzero(np.diff(rule, prepend=-1))
        return gather, prob, rule, key, first

    def exceedance(self, targets, strict):
        """Optimal exceedance probability from (s0, w0) at every class target.

        Entry j is :meth:`backward_induction`'s p at class ``targets[j]``
        bit for bit (:func:`backward_induction`'s within ``VALUE_TOL``):
        the sweep keeps only the classes w0 reaches (:meth:`_reach`), one
        column per distinct ``np.searchsorted`` split of them, in blocks
        whose largest gather holds about ``BLOCK_FLOATS`` floats.
        """
        return self.policy(targets, strict)[0]

    def policy(self, targets, strict, passes=None):
        """``(p, i, policy)``: p as :meth:`exceedance` gives it, from the
        same sweep, and with ``passes`` (a test on an array of
        probabilities) the greedy policy at the last target i whose p
        passes, or at i = 0 when none does; without it i and the policy
        are None.  With ``passes`` the targets must ascend.

        Every layer's input slices are the sweep's own, kept as it made
        them, for at most two column blocks at once: the last one holding
        a passing column and, until a column passes, the first, which
        holds target 0's.  Ascending targets put target i's column in the
        block kept, and one rule pass reads it off them (:meth:`_rules`).
        """
        if passes is not None and np.any(np.diff(targets) < 0):
            raise ValueError("the targets of a policy sweep must ascend")
        reach = self._reach()
        splits, col = _distinct(np.searchsorted(
            reach[0], targets, side="right" if strict else "left"))
        block = max(1, BLOCK_FLOATS // max((g.size for g in reach[1]),
                                           default=1))
        p = np.empty(len(splits))
        kept, kept_at = None, 0
        for b in range(0, len(p), block):
            inputs = None if passes is None else []
            # layer 0 holds w0 alone, so the row of (s0, w0) is s0
            p[b:b + block] = self._sweep(splits[b:b + block], reach,
                                         inputs=inputs)[self.initial_state]
            if passes is not None and (b == 0 or passes(p[b:b + block]).any()):
                kept, kept_at = inputs, b
        p = p[col]
        if passes is None:
            return p, None, None
        hit = np.flatnonzero(passes(p))
        i = hit[-1] if len(hit) else 0
        rules = self._rules(kept, col[i] - kept_at)
        return p, i, WealthMarkovPolicy(rules, self.n_states)

    def _rules(self, inputs, j):
        """The table of column j's greedy rules for all T layers, from the
        ``inputs`` a restricted sweep kept.

        One gather through the entries of :meth:`_rule_layout`, one
        multiply and one sum over slots, one max and one
        :func:`_first_best`: on (t, s, k) with k in R_t the same sums of
        the same products as a full sweep's, so the same rule.  A rule cuts
        inclusively at each class of R_t whose action differs from the
        reached class before it, so every other class takes the action of
        the largest class of R_t below it, or of R_t's smallest when none
        is, as :func:`_on_classes` tables such filled rows.
        """
        gather, prob, rule, key, first = self._rule_layout
        g = np.concatenate([V[:, j] for V in inputs]).take(gather)
        g *= prob
        q = g.sum(axis=0)
        best = _first_best(q, q.max(axis=0))
        cut = 1 + np.flatnonzero((best[1:] != best[:-1])
                                 & (rule[1:] == rule[:-1]))
        return _Cuts(best[first], _offsets(rule[cut], len(first)), key[cut],
                     np.zeros(len(cut), dtype=np.uint8), best[cut])


def _distinct(a):
    """``(values, inverse)`` of the integer array ``a``, as ``np.unique``
    gives them: its distinct values ascending, and the position of each
    entry's value among them."""
    order = np.argsort(a, kind="stable")
    ranked = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


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


def _residual(f, g):
    """``max_s sup_distance(f[s], g[s])`` over two tables, in one pass.

    Each table is laid out (:meth:`~qmdp.stepfun._Cuts.laid_out`) from
    its own segment ids, and the cuts of both are sorted together by
    (state, threshold, side).  A cut of one table leaves the other's value
    where it was, so a running max of each table's positions gives its
    value on every merged piece; as in :func:`~qmdp.stepfun.sup_distance`,
    a run of identical keys keeps its last cut.
    """
    sf, sg = f.seg(), g.seg()
    (ef, hf, pf), (eg, hg, pg) = f.laid_out(sf), g.laid_out(sg)
    state = np.concatenate((sf, sg))
    x = np.concatenate((f.x, g.x))
    e = np.concatenate((f.e, g.e))
    order = np.lexsort((e, x, state))
    at_f = np.maximum.accumulate(np.concatenate((pf, hf[sg]))[order])
    at_g = np.maximum.accumulate(np.concatenate((hg[sf], pg))[order])
    state, x, e = state[order], x[order], e[order]
    last = np.ones(len(x), dtype=bool)
    last[:-1] = (state[1:] != state[:-1]) | (x[1:] != x[:-1]) | (e[1:] != e[:-1])
    gap = np.abs(ef[at_f[last]] - eg[at_g[last]])
    return float(max(np.abs(f.base - g.base).max(), gap.max(initial=0.0)))


def check_convergence(eps_conv, max_sweeps):
    """Reject an ``eps_conv`` that is not a real number in [0, inf) or a
    ``max_sweeps`` that is not an integer of at least 1 (bools are
    neither)."""
    if (isinstance(eps_conv, bool) or not isinstance(eps_conv, numbers.Real)
            or not 0.0 <= eps_conv < math.inf):
        raise ConfigurationError(
            f"eps_conv must be a finite number of at least 0, got {eps_conv!r}")
    if (isinstance(max_sweeps, bool)
            or not isinstance(max_sweeps, numbers.Integral) or max_sweeps < 1):
        raise ConfigurationError(
            f"max_sweeps must be an integer of at least 1, got {max_sweeps!r}")


def _iterate(step, residual, V, eps_conv, max_sweeps):
    """Apply ``step`` until ``residual(new, old) <= eps_conv``.

    Returns ``(V_{k-1}, V_k, k)`` for the first sweep k that passes;
    raises :class:`ConvergenceError` after ``max_sweeps`` sweeps.
    """
    for sweep in range(1, max_sweeps + 1):
        new = step(V)
        gap = residual(new, V)
        if gap <= eps_conv:
            return V, new, sweep
        V = new
    raise ConvergenceError(
        f"no convergence after {max_sweeps} sweeps "
        f"(last residual {gap:.3g} > {eps_conv:.3g})",
        residual=gap, sweeps=max_sweeps)


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
    ``eps_conv`` must be finite and at least 0 (lattice iterates can
    reach an exact fixpoint), ``max_sweeps`` at least 1, and ``w`` a
    wealth value (``space.key``), not NaN.

    The sweeps compute the value table only.  Once the residual passes,
    one more step on the iterate the converged sweep read builds the
    rules; the step is deterministic in its inputs, so they are that
    sweep's own.

    Two loops make the sweeps, picked from the input.  Where
    :meth:`_DenseSweep.fit` finds a grid over the reachable window, each
    sweep is one dense gather, sum and max (:meth:`_DenseSweep._step`),
    and the residual is the largest cell change on the clip range.
    Otherwise the cut loop runs :func:`_layer` without ``greedy`` on cut
    tables, as for rewards off any lattice.  With δ above ``WEALTH_TOL``
    both give the same rules and the same cuts, values within float
    rounding, and the same sweep count.  With δ within it the grid is
    still taken and is exactly scale-free, while the cut loop merges cuts
    a cell apart and differs: at δ = 2^-34, costs -δ, -2δ and -3δ and a
    strict target -8δ, the grid gives p 0.9803 in 9 sweeps and the cut
    loop 1.0 in 4.
    """
    if m.horizon is not None:
        raise ConfigurationError(
            "value_iteration is for infinite-horizon problems; "
            "use backward_induction for finite horizons")
    if not isinstance(space, AdditiveWealth):
        raise ConfigurationError(
            "the stationary sweep needs a time-homogeneous wealth update: "
            "only undiscounted additive wealth is supported")
    check_convergence(eps_conv, max_sweeps)
    target = space.key(w)
    # Slices only ever get evaluated on the reachable side of w0;
    # collapsing the other side is exact there and is what makes the
    # sup-residual converge.
    window = reachable_window(m, space)
    sweep = _DenseSweep.fit(m, space, target, window)
    if sweep is None:
        states = np.arange(m.n_states)

        def step(V):
            values, _ = _layer(m, space, V, 0, states, greedy=False)
            return _restrict(values, *window)

        V, new_V, sweeps = _iterate(
            step, _residual, _restrict(_target(target, strict, m.n_states),
                                       *window), eps_conv, max_sweeps)
        # the rules of the converged sweep: the kernel again, on its input
        rules = _layer(m, space, V, 0, states)[1]
        vf = ValueFunction([new_V], sweeps=sweeps)
    else:
        start = sweep._start(sweep.n, [sweep._split(target, strict)])
        V, new_V, sweeps = _iterate(sweep._step, sweep.residual, start,
                                    eps_conv, max_sweeps)
        rule = np.empty((sweep.n_classes, sweep.n), dtype=np.intp)
        sweep._step(V, rule)
        rules = sweep._table(rule[sweep.cls], strict)
        vf = sweep._value_function(new_V.reshape(sweep.n_classes, -1),
                                   sweep.cls[None], strict, [], sweeps,
                                   sweep.grid.clip)
    p = vf.slice(0, m.initial_state)(space.key(space.w0))
    return (WealthMarkovPolicy(rules, m.n_states, stationary=True), float(p),
            vf)
