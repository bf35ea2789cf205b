"""Wealth-level algebra: how history values accumulate, compare, and measure distance.

A wealth space fixes the set of values histories can take, the accumulation
operation that folds a reward into the running wealth, a total order, a
distance, and bounds for the terminal wealth range.  Three kinds are
supported:

* ``AdditiveWealth`` — wealth is the running sum of numeric rewards.
* ``DiscountedWealth`` — wealth is the running gamma-discounted sum; the
  accumulation of reward ``r`` at (0-based) timestep ``t`` adds ``gamma**t * r``.
* ``OrdinalWealth`` — wealth is one of finitely many ordered classes
  ``w_1 < ... < w_m``; accumulation is a user-supplied class-transition table
  over (class, reward-label) pairs, distance is the index gap ``|j - i|``.

Internally every wealth value maps to a float *key* (:func:`numeric_key`
for numeric kinds, the class index for the ordinal kind) so that downstream
code can compare and sort wealths uniformly.  ``accumulate``, ``compare``
and ``distance`` accept and return public values (class labels for ordinal
spaces); the key protocol works on keys.  It also says how each edge of
an edge table moves wealth (``accumulate_keys``, or a :class:`Grid` of
a few cells: ordinal classes, or multiples of one step, :class:`Lattice`)
for the functional DP of ``qmdp.dp`` and the forward step of
``qmdp.evaluate`` alike, so the forward step needs nothing from
``qmdp.dp``; the dense engines of both read one grid type.
"""

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

# The one tolerance within which wealth keys are equal, for step-function cuts
# and distribution atoms alike (``stepfun._threshold_runs``).
WEALTH_TOL = 1e-9

# Float64-sized values in the working arrays of one block: the layer
# kernel's entries of a block of states, the (pairs x edges per pair x
# cells x thresholds) gather of a dense sweep for a block of thresholds,
# the entries of a stationary policy's forward operator, and the
# (state, cell) mass vector of a non-stationary policy's forward step.
BLOCK_FLOATS = 1 << 20


def numeric_key(w):
    """The key of numeric wealth value ``w``, a Python float: ``w`` must be
    a real number in float range, not a bool and not NaN; ±inf stay valid."""
    if type(w) is not float:
        if isinstance(w, bool) or not isinstance(w, numbers.Real):
            raise ConfigurationError(
                f"a numeric wealth value must be a real number, got {w!r}")
        try:
            w = float(w)
        except OverflowError:
            raise ConfigurationError(f"a numeric wealth value must be a real "
                                     f"number in float range, got {w!r}") from None
    if w != w:
        raise ConfigurationError("a numeric wealth value must not be NaN")
    return w


def _signed(x):
    """``x`` as part of a dict key that tells -0.0 from 0.0."""
    return x, math.copysign(1.0, x)


class Lattice(NamedTuple):
    """Anchor keys and rewards as integer multiples of one step δ.

    Every finite float is n / 2^j, so the keys times 2^``shift``, the
    largest j, are integers; δ = ``scale`` / 2^``shift`` with ``scale``
    their gcd.  ``anchors`` and ``units`` are those integers divided by
    ``scale``: the keys in steps of δ, as Python integers of any size.
    """

    scale: int
    shift: int
    anchors: tuple
    units: tuple

    @classmethod
    def of(cls, anchors, rewards):
        """The coarsest lattice of the anchor keys and the rewards (floats),
        or None when one of them is not finite."""
        exact = [*anchors, *rewards]
        if not all(map(math.isfinite, exact)):
            return None
        ratios = [x.as_integer_ratio() for x in exact]
        k = max(d.bit_length() for _, d in ratios) - 1
        scaled = [n << (k + 1 - d.bit_length()) for n, d in ratios]
        g = math.gcd(*scaled) or 1
        steps = [n // g for n in scaled]
        return cls(g, k, tuple(steps[:len(anchors)]), tuple(steps[len(anchors):]))

    @property
    def step(self):
        """δ as a float; exact once :meth:`exact` holds for any reach."""
        return math.ldexp(self.scale, -self.shift)

    def exact(self, reach):
        """Whether every multiple of δ at most ``reach`` steps from 0 is
        exact in float64: times 2^shift, an integer below 2^53.  Sums of
        such keys are then exact too, wherever they stay in that range."""
        return reach * self.scale < 1 << 53

    def dense(self, cells, n):
        """Whether ``cells`` cells are no more than ``math.comb(n + k, k)``,
        the count of wealth sums of at most n of the k distinct nonzero
        units: a dense grid then holds no more values than the sums that
        step functions or atoms over the same wealth could."""
        k = len({u for u in self.units if u})
        fewest = min(n, k)
        # comb(n + k, k) >= 2^min(n, k), so the first test skips big combs
        return (fewest >= cells.bit_length()
                or math.comb(n + k, fewest) >= cells)


class Grid(NamedTuple):
    """Wealth on a few cells: cell c has the key ``keys[c]``, increasing,
    and w0 is cell ``w0``.  Row r of ``moves`` takes each cell to its cell
    after the r-th distinct reward (or label), clipped into the cells of
    the slice ``clip``; ``row[e]`` is the row of edge e."""

    keys: np.ndarray
    w0: int
    moves: np.ndarray
    row: np.ndarray
    clip: slice

    @classmethod
    def of_classes(cls, space, labels):
        """The classes of the ordinal ``space``, for the reward labels of
        every edge (``Mdp.rewards``): row r is ``move_table`` of label r."""
        labels = labels.tolist()
        rows = {r: i for i, r in enumerate(dict.fromkeys(labels))}
        n = len(space.classes)
        moves = np.array([space.move_table(r) for r in rows], dtype=np.intp)
        return cls(np.arange(n, dtype=np.float64), space.index(space.w0),
                   moves.reshape(len(rows), n),
                   np.array([rows[r] for r in labels], dtype=np.intp),
                   slice(0, n))

    @classmethod
    def on_lattice(cls, anchors, rewards, cells):
        """Multiples ``first`` to ``last`` of the step of the :class:`Lattice`
        of ``anchors`` (keys, w0's first) and the ``rewards`` of every edge,
        moves clipped to ``lo`` to ``hi``: ``cells(lattice)`` gives the four,
        or None for no grid, as does a missing lattice or a -0.0 target (an
        anchor past w0): its cuts keep the sign, and a cell's key 0 is +0.0.
        A step from w0 adds a reward, which drops a -0.0 sign."""
        if any(a == 0 and math.copysign(1.0, a) < 0 for a in anchors[1:]):
            return None
        rewards, row = np.unique(rewards, return_inverse=True)
        lattice = Lattice.of(anchors, rewards.tolist())
        if lattice is None or (span := cells(lattice)) is None:
            return None
        first, last, lo, hi = span
        c = np.arange(first, last + 1)
        to = np.minimum(np.maximum(c + np.array(lattice.units)[:, None], lo), hi)
        return cls(c * lattice.step, lattice.anchors[0] - first, to - first,
                   row, slice(lo - first, hi - first + 1))

    @classmethod
    def over_horizon(cls, anchors, rewards, horizon, max_cells,
                     backward=False):
        """The lattice grid of T = ``horizon`` steps of the ``rewards``
        (:meth:`on_lattice`), moves clipped into it, or None.

        Forward, its cells are the wealth T steps reach from the last of
        the ``anchors``; ``backward``, the wealth from which T steps reach
        it, and one cell more at each end, past which T steps cannot
        cross it.  No grid holds more than ``max_cells`` cells, a key
        not exact in float64, a step δ of at most ``WEALTH_TOL`` (where
        cuts and atoms a cell apart would merge) or more cells than
        :meth:`Lattice.dense` allows; a horizon below 1 has none.
        """
        if horizon < 1 or max_cells < 1:
            return None
        # a mantissa with fewer than log2(T) trailing zeros fails
        # Lattice.exact (T times its odd part reaches 2^53): no lattice
        if np.modf(np.ldexp(np.frexp(rewards)[0],
                            54 - horizon.bit_length()))[0].any():
            return None

        def cells(lattice):
            x, units = lattice.anchors[-1], lattice.units
            lo, hi = horizon * min((0, *units)), horizon * max((0, *units))
            first, last = (x - hi - 1, x - lo + 1) if backward else (x + lo, x + hi)
            n = last - first + 1
            # every key lies within T rewards of x, or an end cell past them
            reach = abs(x) + max(-lo, hi) + (1 if backward else 0)
            if (n <= max_cells and lattice.exact(reach)
                    and lattice.step > WEALTH_TOL and lattice.dense(n, horizon)):
                return first, last, first, last

        return cls.on_lattice(anchors, rewards, cells)

    @classmethod
    def over_window(cls, anchors, rewards, downward, max_cells):
        """The lattice grid of an infinite run from w0 (the first of the
        ``anchors``) towards the target (the last), on the side of w0 that
        wealth moves to (below it when ``downward``), or None.

        Moves clip to the cells from w0 to one past the target, whose value
        under uniformly signed rewards never changes; the grid runs
        ``max|r| / δ`` cells on past w0, where greedy rules still change
        (past them every edge reads w0's cell).  The tests are those of
        :meth:`over_horizon`, with :meth:`Lattice.dense` over the cells
        from the target to w0 and ⌊|w0 - t| / min nonzero |r|⌋ rewards,
        and a target on the reachable side; any step δ is kept.
        """
        def cells(lattice):
            (x0, t), units = lattice.anchors, lattice.units
            reach = max(map(abs, units))
            lo, hi = (t - 1, x0) if downward else (x0, t + 1)
            steps = hi - lo - 1
            nonzero = [abs(u) for u in units if u]
            if (steps >= 0 and steps + 2 + reach <= max_cells
                    and lattice.exact(max(abs(t), abs(x0), reach) + reach + 1)
                    and lattice.dense(steps + 1, steps // min(nonzero)
                                      if nonzero else 0)):
                return lo - reach * (x0 == lo), hi + reach * (x0 == hi), lo, hi

        return cls.on_lattice(anchors, rewards, cells)


class WealthSpace:
    """Base class; concrete kinds implement the abstract hooks."""

    kind = None

    # -- public algebra ------------------------------------------------

    def accumulate(self, w, r, t=0):
        """Fold reward ``r`` taken at timestep ``t`` into wealth ``w``."""
        raise NotImplementedError

    def compare(self, w, w2):
        """Total order: -1 if w < w2, 0 if equal, +1 if w > w2."""
        k, k2 = self.key(w), self.key(w2)
        return (k > k2) - (k < k2)

    def distance(self, w, w2):
        """Order-consistent distance between two wealth values."""
        return abs(self.key(w) - self.key(w2))

    # -- key protocol (internal, used by the DP machinery) -------------

    def key(self, w):
        """Sortable float key of a public wealth value."""
        raise NotImplementedError

    def unkey(self, k):
        """Public wealth value of a key."""
        raise NotImplementedError

    def accumulate_keys(self, karr, r, t=0):
        """accumulate() on an array of keys (numeric kinds).

        ``r`` is a scalar reward or an array aligned with ``karr``.
        Ordinal spaces move keys through :meth:`Grid.of_classes`.
        """
        raise NotImplementedError

    def shift_delta(self, r, t):
        """Numeric kinds: the key increment of accumulating r at timestep t.

        Returns None for table-based (ordinal) spaces.
        """
        return None

    def _check_numeric_reward(self, r):
        try:
            return numeric_key(r)
        except ConfigurationError:
            raise ConfigurationError(f"{self.kind} wealth spaces accumulate "
                                     f"numeric rewards, got {r!r}") from None


class AdditiveWealth(WealthSpace):
    """Wealth = undiscounted sum of numeric rewards."""

    kind = "additive"

    def __init__(self, w_min=-math.inf, w_max=math.inf):
        self.w_min, self.w_max = numeric_key(w_min), numeric_key(w_max)
        if not self.w_min <= self.w_max:
            raise ConfigurationError(f"w_min {w_min} > w_max {w_max}")
        self.w0 = 0.0

    @classmethod
    def for_mdp(cls, mdp):
        """Bounds [T*r_min, T*r_max] of the terminal wealth range.

        Infinite-horizon MDPs get a half-infinite range depending on the
        reward sign (all-nonpositive rewards cannot push wealth above 0,
        all-nonnegative cannot push it below 0).
        """
        r_min, r_max = mdp.reward_bounds()
        if mdp.horizon is None:
            lo = 0.0 if r_min >= 0 else -math.inf
            hi = 0.0 if r_max <= 0 else math.inf
            return cls(lo, hi)
        return cls(mdp.horizon * r_min, mdp.horizon * r_max)

    def accumulate(self, w, r, t=0):
        return numeric_key(w) + self._check_numeric_reward(r)

    def key(self, w):
        return numeric_key(w)

    def unkey(self, k):
        return float(k)

    def accumulate_keys(self, karr, r, t=0):
        return karr + np.asarray(r, dtype=np.float64)

    def shift_delta(self, r, t):
        return self._check_numeric_reward(r)

    def __repr__(self):
        return f"AdditiveWealth(w_min={self.w_min}, w_max={self.w_max})"


class DiscountedWealth(WealthSpace):
    """Wealth = gamma-discounted sum; reward at timestep t contributes gamma**t * r."""

    kind = "discounted"

    def __init__(self, gamma, w_min=-math.inf, w_max=math.inf):
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
        self.w_min, self.w_max = numeric_key(w_min), numeric_key(w_max)
        if not self.w_min <= self.w_max:
            raise ConfigurationError(f"w_min {w_min} > w_max {w_max}")
        self.gamma = float(gamma)
        self.w0 = 0.0

    @classmethod
    def for_mdp(cls, mdp, gamma):
        """Bounds from the geometric sum of T discounted extreme rewards."""
        if mdp.horizon is None:
            raise ConfigurationError(
                "discounted wealth bounds need a finite horizon; the "
                "infinite-horizon solver only supports undiscounted wealth"
            )
        r_min, r_max = mdp.reward_bounds()
        if gamma == 1.0:
            geo = float(mdp.horizon)
        else:
            geo = (1.0 - gamma ** mdp.horizon) / (1.0 - gamma)
        return cls(gamma, geo * r_min, geo * r_max)

    def accumulate(self, w, r, t=0):
        return numeric_key(w) + self.gamma ** t * self._check_numeric_reward(r)

    def key(self, w):
        return numeric_key(w)

    def unkey(self, k):
        return float(k)

    def accumulate_keys(self, karr, r, t=0):
        return karr + self.gamma ** t * np.asarray(r, dtype=np.float64)

    def shift_delta(self, r, t):
        return self.gamma ** t * self._check_numeric_reward(r)

    def __repr__(self):
        return (f"DiscountedWealth(gamma={self.gamma}, w_min={self.w_min}, "
                f"w_max={self.w_max})")


class OrdinalWealth(WealthSpace):
    """Finitely many ordered wealth classes with table-based accumulation.

    ``classes`` lists the labels from least to most preferred.  The
    transition table maps (current class, reward label) to the next class;
    it must be total over the labels it is ever queried with.  Distance is
    the index gap.
    """

    kind = "ordinal"

    def __init__(self, classes, transition_table=None, w0=None):
        classes = list(classes)
        if not classes:
            raise ConfigurationError("ordinal wealth space needs at least one class")
        if len(set(classes)) != len(classes):
            raise ConfigurationError("ordinal wealth classes must be distinct")
        self.classes = classes
        self._index = {c: i for i, c in enumerate(classes)}
        # whether a bool would find a class 0 or 1 that is not a bool
        self._bool_hits = (0 in self._index or 1 in self._index) and not any(
            isinstance(c, (bool, np.bool_)) for c in classes)
        self.transition_table = transition_table
        if w0 is None:
            w0 = classes[0]
        if w0 not in self._index:
            raise ConfigurationError(f"w0 {w0!r} is not a wealth class")
        self.w0 = w0
        self.w_min = classes[0]
        self.w_max = classes[-1]
        # index-level table, compiled lazily per reward label
        self._moves = {}

    def index(self, w):
        if self._bool_hits and isinstance(w, (bool, np.bool_)):
            raise ConfigurationError(f"{w!r} is not a wealth class")
        try:
            return self._index[w]
        except KeyError:
            raise ConfigurationError(f"{w!r} is not a wealth class") from None

    def label(self, i):
        i = int(i)
        if not 0 <= i < len(self.classes):
            raise ConfigurationError(f"class index {i} is outside the space")
        return self.classes[i]

    def move_table(self, r):
        """Index -> index map for reward label ``r`` (cached)."""
        if self.transition_table is None:
            raise ConfigurationError(
                "ordinal accumulation needs a class-transition table"
            )
        if r not in self._moves:
            moves = []
            for c in self.classes:
                row = self.transition_table.get(c)
                if row is None or r not in row:
                    raise ConfigurationError(
                        f"transition table has no entry for class {c!r}, "
                        f"reward label {r!r}"
                    )
                moves.append(self.index(row[r]))
            self._moves[r] = moves
        return self._moves[r]

    def accumulate(self, w, r, t=0):
        return self.label(self.move_table(r)[self.index(w)])

    def key(self, w):
        return float(self.index(w))

    def unkey(self, k):
        return self.label(int(round(k)))

    def __repr__(self):
        return f"OrdinalWealth({self.classes!r})"
