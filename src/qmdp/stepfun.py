"""Piecewise-constant functions of wealth and the algebra the functional DP needs.

A :class:`StepFunction` maps wealth keys (floats; class indices for ordinal
spaces) to values.  It is encoded as a base value plus an ordered list of
cuts ``(threshold, inclusive, value)``: the function takes ``value`` from
the threshold (at it when inclusive, strictly after it otherwise) up to the
next cut.  Cuts are ordered by the composite key ``(threshold, side)`` with
the inclusive side sorting first, so an atom — a distinct value at a single
wealth — is two cuts at the same threshold.

Value slices hold probabilities (float values); decision rules hold action
indices (integer values).  The value dtype follows the inputs: integer base
and values give an integer function, anything else a float one.

All target utilities are indicators, and none of the operations below
(shift, convex combination, upper envelope) introduce slopes, so the
piecewise-constant subclass of piecewise-linear functions is closed under
the whole backward-induction update.

Canonical form: thresholds within ``WEALTH_TOL`` of the same side merge
(first position, last value wins), then cuts whose value matches the
preceding piece are dropped — within ``VALUE_TOL`` for float values,
exactly for integer ones.  Two functions that are pointwise equal have
identical encodings.
"""

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
        v = v.astype(dtype, copy=False)
        base = dtype(base).item()
        if len(x):
            order = np.lexsort((e, x))
            x, e, v = x[order], e[order], v[order]
        seg = np.zeros(len(x), dtype=np.intp)
        first, last = _threshold_runs(x, e, seg)
        x, e, v, seg = x[first], e[first], v[last], seg[first]
        x, e, v, _ = _merge_values(np.array([base], dtype=dtype), x, e, v,
                                   0 if exact else VALUE_TOL, seg)
        self.base = base
        self.x = x
        self.e = e
        self.v = v

    @classmethod
    def _trusted(cls, base, x, e, v):
        """Wrap arrays already in canonical form, without sorting or merging.

        ``base`` is a Python int or float, ``x`` float64, ``e`` uint8 and
        ``v`` int64 (integer base) or float64 (float base).
        """
        f = cls.__new__(cls)
        f.base = base
        f.x = x
        f.e = e
        f.v = v
        return f

    @classmethod
    def on_classes(cls, values):
        """The function taking ``values[k]`` at class key k, k = 0..n-1.

        Cuts are inclusive, at the keys where the value changes; the base
        piece holds ``values[0]``.  Integer rows are canonical as built;
        float rows still merge values within ``VALUE_TOL``.
        """
        values = np.asarray(values)
        change = np.flatnonzero(values[1:] != values[:-1]) + 1
        x = change.astype(np.float64)
        if values.dtype.kind in "iu":
            return cls._trusted(int(values[0]), x,
                                np.zeros(len(change), dtype=np.uint8),
                                values[change].astype(np.int64, copy=False))
        return cls(values[0], x, np.ones(len(change), dtype=bool), values[change])

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
    return StepFunction(0.0, [w], [not strict], [1.0])


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
