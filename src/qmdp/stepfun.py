"""Piecewise-constant functions of wealth: the one encoding, its cut table,
and the per-slice algebra.

A :class:`StepFunction` maps wealth keys (floats; class indices for ordinal
spaces) to values.  It is encoded as a base value plus an ordered list of
cuts ``(threshold, inclusive, value)``: the function takes ``value`` from
the threshold (at it when inclusive, strictly after it otherwise) up to the
next cut.  Cuts are ordered by the composite key ``(threshold, side)`` with
the inclusive side sorting first, so an atom — a distinct value at a single
wealth — is two cuts at the same threshold.  Value slices hold
probabilities (float values), decision rules action indices (integer
values): integer base and values give an integer function, anything else
a float one.

Canonical form: thresholds within ``WEALTH_TOL`` of the same side merge
(first position, last value wins), then cuts whose value matches the
preceding piece are dropped — within ``VALUE_TOL`` for float values,
exactly for integer ones.  Two functions that are pointwise equal have
identical encodings.

A cut table (:class:`_Cuts`) lays many functions end to end: function i is
``base[i]`` below its cuts ``off[i]:off[i + 1]`` of ``x`` (float64
thresholds), ``e`` (uint8 sides: 0 inclusive, 1 exclusive) and ``v``
(values), each in canonical form.  One function, :func:`_canonical`, sorts
any cuts by (function, threshold, side) and merges them segment-wise
(:func:`_threshold_runs`, :func:`_merge_values`); a :class:`StepFunction`
is its one-function case and a view of one segment (:func:`_segment`).
The DP's value layers and a policy's rules (:class:`WealthMarkovPolicy`)
are such tables, so exact evaluation and policy files need nothing else.

Indicator targets, shift, convex combination and upper envelope add no
slopes, so piecewise-constant functions are closed under the backward
update; the per-slice operations below are the reference the DP's layer
kernel is tested against.
"""

from typing import NamedTuple

import numpy as np

from .wealth import WEALTH_TOL

VALUE_TOL = 1e-12   # adjacent-piece value merge (float values)


def _ranks(counts):
    """The rank of every element within its group, for groups of ``counts``."""
    return np.arange(counts.sum()) - (counts.cumsum() - counts).repeat(counts)


def _threshold_runs(x, e, seg):
    """The runs of sorted keys each at most WEALTH_TOL above the one before
    it on the same side (single pass): the one rule for equal wealth keys.

    A run of cuts merges into one cut: the first (smallest) threshold and
    side of the run and the value after its last cut; a run of atoms into
    one atom (:func:`qmdp.evaluate.merge_atoms`, all sides equal).  A
    run's successor sits more than WEALTH_TOL above the kept
    representative, so one pass reaches a fixpoint.  Equal keys, ±inf
    too, are 0 apart; finite keys whose gap overflows are inf apart.

    ``seg`` holds the nondecreasing segment id of every key (the cuts of
    many functions, laid end to end); no run crosses a segment boundary.
    Returns ``(first, last)``, the index of every run's first and last
    cut; ``x[first], e[first], v[last], seg[first]`` are the merged cuts.
    """
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    hi, lo = x[1:], x[:-1]
    with np.errstate(over="ignore"):
        gap = np.subtract(hi, lo, out=np.zeros(len(lo)), where=hi != lo)
    keep[1:] = ((gap > WEALTH_TOL) | (e[1:] != e[:-1])
                | (seg[1:] != seg[:-1]))
    first = keep.nonzero()[0]
    last = np.empty_like(first)
    last[:-1] = first[1:] - 1
    last[-1:] = len(x) - 1
    return first, last


def _merge_values(base, x, e, v, tol, seg):
    """Drop cuts that do not change the value by more than tol (to fixpoint).

    ``base`` holds one value per segment id (as in
    :func:`_threshold_runs`), and each segment's first cut compares
    against its own base.  With ``tol == 0`` one pass is the fixpoint: a
    dropped cut carries its predecessor's value, so every kept cut still
    differs from the value before it.  Returns ``(x, e, v, seg)``.
    """
    while len(v):
        prev = np.empty_like(v)
        prev[1:] = v[:-1]
        first = np.empty(len(v), dtype=bool)
        first[0] = True
        first[1:] = seg[1:] != seg[:-1]
        prev[first] = base[seg[first]]
        keep = np.abs(v - prev) > tol
        if keep.all():
            break
        x, e, v, seg = x[keep], e[keep], v[keep], seg[keep]
        if tol == 0:
            break
    return x, e, v, seg


# -- the cut table ------------------------------------------------------------

class _Cuts(NamedTuple):
    """One step function per segment, laid end to end (see the module
    docstring): segment s is ``base[s]`` below its cuts
    ``off[s]:off[s + 1]`` of ``x``, ``e`` and ``v``."""
    base: np.ndarray
    off: np.ndarray
    x: np.ndarray
    e: np.ndarray
    v: np.ndarray

    def seg(self):
        """The segment of every cut."""
        return np.repeat(np.arange(len(self.base)), np.diff(self.off))

    def laid_out(self, seg):
        """Each function as [base, values...], end to end, from the
        segment of every cut (:meth:`seg`).

        Returns the values and the positions of each base and of each
        cut's value; both only grow along a function's cuts and from
        function to function.
        """
        head = self.off[:-1] + np.arange(len(self.base))
        spot = np.arange(len(self.x)) + seg + 1
        ext = np.empty(len(self.x) + len(self.base),
                       np.result_type(self.base, self.v))
        ext[head] = self.base
        ext[spot] = self.v
        return ext, head, spot

    def steps(self):
        """The value change at every cut."""
        prev = np.empty_like(self.v)
        prev[1:] = self.v[:-1]
        opened = self.off[:-1] < self.off[1:]
        prev[self.off[:-1][opened]] = self.base[opened]
        return self.v - prev


def _offsets(seg, n):
    """Offsets of n segments from the segment id of every element."""
    off = np.zeros(n + 1, dtype=np.intp)
    np.bincount(seg, minlength=n).cumsum(out=off[1:])
    return off


def _canonical(base, seg, x, e, v, tol):
    """The table of the cuts of the segments ``seg``, in canonical form.

    The cuts come in any order: one sort by (segment, threshold, side)
    precedes the segmented threshold and value merges.
    """
    order = np.lexsort((e, x, seg))
    seg, x, e, v = seg[order], x[order], e[order], v[order]
    first, last = _threshold_runs(x, e, seg)
    return _value_merged(base, x[first], e[first], v[last], seg[first], tol)


def _value_merged(base, x, e, v, seg, tol):
    """The table of sorted cuts whose threshold runs are merged already
    (:func:`_canonical` without its threshold merge)."""
    x, e, v, seg = _merge_values(base, x, e, v, tol, seg)
    return _Cuts(base, _offsets(seg, len(base)), x, e, v)


def _segment(c, i):
    """Step function i of the table c, sharing its arrays."""
    j, k = c.off[i], c.off[i + 1]
    return StepFunction._trusted(c.base[i].item(), c.x[j:k], c.e[j:k],
                                 c.v[j:k])


def _segments(c, i, n):
    """The table of segments i to i + n of c, sharing its arrays."""
    j, k = c.off[i], c.off[i + n]
    return _Cuts(c.base[i:i + n], c.off[i:i + n + 1] - j, c.x[j:k], c.e[j:k],
                 c.v[j:k])


def _unpack(c):
    """The step functions of the table c; they share its arrays."""
    cuts = c.off.tolist()
    return [StepFunction._trusted(b, c.x[i:j], c.e[i:j], c.v[i:j])
            for b, i, j in zip(c.base.tolist(), cuts, cuts[1:])]


def _join(tables):
    """One table from consecutive tables."""
    if len(tables) == 1:
        return tables[0]
    base, x, e, v = (np.concatenate(f) for f in zip(
        *((c.base, c.x, c.e, c.v) for c in tables)))
    off = np.zeros(len(base) + 1, dtype=np.intp)
    np.concatenate([c.off[1:] - c.off[:-1] for c in tables]).cumsum(
        out=off[1:])
    return _Cuts(base, off, x, e, v)


def _on_classes(rows, keys=None, strict=False):
    """The table of the rows of ``rows``: row i takes ``rows[i, k]`` at
    the key ``keys[k]`` (the class key k by default).

    A value change between columns k - 1 and k is an inclusive cut at
    ``keys[k]``, so that column k holds the value on
    ``[keys[k], keys[k + 1])``; with ``strict`` it is an exclusive cut at
    ``keys[k - 1]``, and column k holds the value on
    ``(keys[k - 1], keys[k]]``.  Integer rows are canonical as built;
    float rows are after :func:`_tol_merged`.
    """
    seg, k = np.nonzero(rows[:, 1:] != rows[:, :-1])
    at = k if strict else k + 1
    return _Cuts(rows[:, 0], _offsets(seg, len(rows)),
                 at.astype(np.float64) if keys is None else keys[at],
                 np.full(len(k), strict, dtype=np.uint8), rows[seg, k + 1])


def _tol_merged(c):
    """The float table c in canonical form: every cut whose value change
    is within ``VALUE_TOL`` merged into the piece before it."""
    return _value_merged(c.base, c.x, c.e, c.v, c.seg(), VALUE_TOL)


def _target(target, strict, n):
    """The table of n copies of :func:`target_utility`."""
    return _Cuts(np.zeros(n), np.arange(n + 1, dtype=np.intp),
                 np.full(n, target, dtype=np.float64),
                 np.full(n, strict, dtype=np.uint8), np.ones(n))


def _restrict(c, lo, hi):
    """:func:`restrict` of every function of c to [lo, hi].

    The ``hi`` side trims a suffix of each function's cuts; the ``lo``
    side makes the value at lo the new base and keeps the cuts above it.
    A canonical table stays canonical; the result is a plain
    :class:`_Cuts`.
    """
    seg = c.seg()
    keep = np.ones(len(c.x), dtype=bool)
    if hi is not None:
        keep &= (c.x < hi) | ((c.x == hi) & (c.e == 0))
    base = c.base
    if lo is not None:
        below = (c.x < lo) | ((c.x == lo) & (c.e == 0))
        n_below = np.bincount(seg[below], minlength=len(base))
        moved = n_below > 0
        base = base.copy()
        base[moved] = c.v[c.off[:-1][moved] + n_below[moved] - 1]
        keep &= ~below
    return _Cuts(base, _offsets(seg[keep], len(base)),
                 c.x[keep], c.e[keep], c.v[keep])


def translate(table, c, lo=None, hi=None):
    """Every function of the table moved up by c, ``g(x) = f(x - c)``.

    :func:`_canonical` sorts the moved cuts, whose order the shift can
    break where a cut and one of the other side less than an ulp above it
    round onto the same threshold, and merges them (exactly for an integer
    table of rules, within ``VALUE_TOL`` for slices); :func:`_restrict` to
    ``[lo, hi]`` follows.  Each function of the result equals
    ``restrict(StepFunction(f.base, f.x + c, f.e == 0, f.v), lo, hi)``
    (no restrict without a window) bit for bit.
    """
    exact = table.base.dtype.kind in "iu"
    moved = _canonical(table.base, table.seg(), table.x + c, table.e, table.v,
                       0 if exact else VALUE_TOL)
    if lo is not None or hi is not None:
        moved = _restrict(moved, lo, hi)
    return moved


class StepFunction:
    """Canonical piecewise-constant map from wealth keys to values."""

    __slots__ = ("base", "x", "e", "v")

    def __init__(self, base, thresholds=(), inclusive=(), values=()):
        x = np.asarray(thresholds, dtype=np.float64).ravel()
        e = np.where(np.asarray(inclusive).ravel(), 0, 1).astype(np.uint8)
        v = np.asarray(values).ravel()
        if not (len(x) == len(e) == len(v)):
            raise ValueError("threshold/inclusive/value arrays must have equal length")
        exact = (isinstance(base, (int, np.integer))
                 and (len(v) == 0 or v.dtype.kind in "iu"))
        dtype = np.int64 if exact else np.float64
        c = _canonical(np.array([base], dtype=dtype),
                       np.zeros(len(x), dtype=np.intp), x, e,
                       v.astype(dtype, copy=False), 0 if exact else VALUE_TOL)
        self.base, self.x, self.e, self.v = c.base[0].item(), c.x, c.e, c.v

    @classmethod
    def _trusted(cls, base, x, e, v):
        """Wrap arrays already in canonical form, without sorting or merging.

        ``base`` is a Python int or float, ``x`` float64, ``e`` uint8 and
        ``v`` int64 (integer base) or float64 (float base).
        """
        f = cls.__new__(cls)
        f.base, f.x, f.e, f.v = base, x, e, v
        return f

    @classmethod
    def on_classes(cls, values):
        """The function taking ``values[k]`` at class key k, k = 0..n-1.

        Cuts are inclusive, at the keys where the value changes; the base
        piece holds ``values[0]`` (:func:`_on_classes` of the one row).
        """
        row = np.asarray(values)
        exact = row.dtype.kind in "iu"
        c = _on_classes(row.astype(np.int64 if exact else np.float64,
                                   copy=False)[None])
        return _segment(c if exact else _tol_merged(c), 0)

    # -- introspection --------------------------------------------------

    def intervals(self):
        """[(from_key_or_None, inclusive_from, value)], the bottom piece first."""
        out = [(None, True, self.base)]
        out.extend(zip(self.x.tolist(), (self.e == 0).tolist(), self.v.tolist()))
        return out

    def __len__(self):
        return len(self.x)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self.base == other.base
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.e, other.e)
                and np.array_equal(self.v, other.v))

    __hash__ = None

    def __repr__(self):
        return f"StepFunction({self.intervals()})"

    # -- evaluation ------------------------------------------------------

    def _locate(self, w):
        """Index into [base]+values of the piece active at each wealth in w.

        Counts the cuts below w and the inclusive cut at w, of which
        canonical form holds at most one, sorted first.
        """
        w = np.asarray(w, dtype=np.float64)
        idx = np.searchsorted(self.x, w, side="left")
        if not len(self.x):
            return idx
        at = np.minimum(idx, len(self.x) - 1)
        return idx + ((self.x[at] == w) & (self.e[at] == 0))

    def __call__(self, w):
        """Value at one wealth key, as a Python int or float."""
        return self._ext_values()[self._locate(w)].item()

    def eval_many(self, w):
        return self._ext_values()[self._locate(w)]

    def _ext_values(self):
        return np.concatenate(([self.base], self.v))


def target_utility(w, strict):
    """Indicator utility of wealths above ``w``.

    ``strict=True`` gives the lower-quantile target (1 exactly on wealths
    strictly above w); ``strict=False`` the upper-quantile target (1 on
    wealths at or above w).
    """
    return _segment(_target(w, strict, 1), 0)


class WealthMarkovPolicy:
    """Deterministic policy whose decision rules map (state, wealth) to actions.

    The rules are integer-valued step functions over wealth keys, laid end
    to end in one cut table (:class:`_Cuts`, int64 values): the rule of
    (t, s) is segment ``t * n_states + s`` of ``table``.  A stationary
    policy holds one segment per state and ignores t.  :meth:`rule` hands
    out one rule as a :class:`StepFunction` view of its segment.
    """

    def __init__(self, table, n_states, stationary=False):
        self.table = table
        self.n_states = n_states
        self.stationary = stationary

    @classmethod
    def from_markov(cls, actions, stationary=False):
        """Wrap a plain (wealth-independent) Markov policy.

        ``actions`` is a per-timestep list of per-state action indices, or
        a single per-state list when stationary.
        """
        actions = np.asarray(actions, dtype=np.int64)
        base = actions.ravel()
        return cls(_Cuts(base, np.zeros(len(base) + 1, dtype=np.intp),
                         np.empty(0), np.empty(0, dtype=np.uint8),
                         np.empty(0, dtype=np.int64)),
                   actions.shape[-1], stationary)

    @classmethod
    def from_cuts(cls, base, seg, x, inclusive, actions, n_states,
                  stationary=False):
        """The policy whose rule i is ``base[i]`` below the cuts ``seg == i``.

        The cuts (thresholds ``x``, ``inclusive`` flags, ``actions``) come
        in any order; :func:`_canonical` gives every rule the encoding the
        :class:`StepFunction` constructor would.
        """
        e = np.where(inclusive, 0, 1).astype(np.uint8)
        return cls(_canonical(base, seg, x, e, actions, 0), n_states,
                   stationary)

    @property
    def steps(self):
        """The number of timesteps the rules cover (1 when stationary)."""
        return len(self.table.base) // self.n_states

    def rule(self, t, s):
        return _segment(self.table,
                        s if self.stationary else t * self.n_states + s)

    def action(self, t, s, w_key):
        return self.rule(t, s)(w_key)

    def __repr__(self):
        if self.stationary:
            return f"WealthMarkovPolicy(stationary, {self.n_states} states)"
        return (f"WealthMarkovPolicy({self.steps} steps x "
                f"{self.n_states} states)")


# -- the per-slice algebra ----------------------------------------------------

def _sweep(fs):
    """Merged cut partition of several step functions.

    Returns ``(x, e, vals)`` where vals has shape (len(fs), n_cuts + 1):
    column 0 is each function's value on the base segment (below every
    cut), column k+1 its value on the segment opened by merged cut k.
    """
    xs = np.concatenate([f.x for f in fs])
    es = np.concatenate([f.e for f in fs])
    origin = np.concatenate([np.full(len(f.x), j, dtype=np.intp)
                             for j, f in enumerate(fs)])
    order = np.lexsort((origin, es, xs))
    xs, es, origin = xs[order], es[order], origin[order]
    n = len(xs)
    vals = np.empty((len(fs), n + 1))
    for j, f in enumerate(fs):
        idx = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(origin == j, out=idx[1:])
        vals[j] = f._ext_values()[idx]
    if n:
        # identical cut keys from different inputs open empty segments;
        # keep only the last of each run (all inputs counted past it)
        last = np.empty(n, dtype=bool)
        last[:-1] = (xs[1:] != xs[:-1]) | (es[1:] != es[:-1])
        last[-1] = True
        if not last.all():
            cols = np.concatenate(([0], np.flatnonzero(last) + 1))
            return xs[last], es[last], vals[:, cols]
    return xs, es, vals


def combine(terms):
    """Pointwise convex combination of step functions.

    ``terms`` is an iterable of (weight, StepFunction).  Weights must be
    nonnegative and sum to 1 within 1e-9.
    """
    terms = list(terms)
    weights = np.array([t[0] for t in terms], dtype=np.float64)
    fs = [t[1] for t in terms]
    if np.any(weights < -1e-12):
        raise ValueError(f"combine weights must be nonnegative, got {weights}")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"combine weights must sum to 1, got {weights.sum()!r}")
    x, e, vals = _sweep(fs)
    out = weights @ vals
    return StepFunction(out[0], x, e == 0, out[1:])


def pointwise_max(fs):
    """Upper envelope of step functions plus its argmax structure.

    Returns ``(envelope, argmax)``: the envelope has float values; argmax
    has integer values, on each maximal interval of constancy the smallest
    input index attaining the maximum.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("pointwise_max needs at least one function")
    x, e, vals = _sweep(fs)
    env = vals.max(axis=0)
    arg = vals.argmax(axis=0)   # first (lowest) index on ties
    return (StepFunction(env[0], x, e == 0, env[1:]),
            StepFunction(arg[0], x, e == 0, arg[1:]))


def sup_distance(f, g):
    """Exact sup-norm distance over the merged threshold partition."""
    _, _, vals = _sweep([f, g])
    if vals.shape[1] == 0:
        return abs(f.base - g.base)
    return float(np.abs(vals[0] - vals[1]).max())


def restrict(f, lo=None, hi=None):
    """Collapse cut structure outside [lo, hi].

    The result agrees with f on [lo, hi] and is constant beyond it; use it
    when callers are known never to evaluate outside the window (e.g. the
    reachable wealth range of a sweep).
    """
    x, e, v, base = f.x, f.e, f.v, f.base
    if hi is not None:
        keep = (x < hi) | ((x == hi) & (e == 0))
        x, e, v = x[keep], e[keep], v[keep]
    if lo is not None:
        base = f(lo)
        keep = (x > lo) | ((x == lo) & (e == 1))
        x, e, v = x[keep], e[keep], v[keep]
    return StepFunction(base, x, e == 0, v)


def shift(f, r, t, space):
    """Pull back f through wealth accumulation: g(w) = f(accumulate(w, r, t)).

    Numeric spaces translate every threshold by the accumulation increment
    (inclusivity preserved); ordinal spaces evaluate f through the
    class-transition table.
    """
    delta = space.shift_delta(r, t)
    if delta is None:
        moves = np.asarray(space.move_table(r), dtype=np.float64)
        return StepFunction.on_classes(f.eval_many(moves))
    if delta == 0.0:
        return f
    return StepFunction(f.base, f.x - delta, f.e == 0, f.v)
