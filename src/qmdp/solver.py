"""Quantile-optimal policies: the optimal quantile read off one sweep.

A threshold test solves one indicator-utility MDP: for the lower
criterion the subroutine maximizes P[wealth > w] and the test is
p > 1 - tau; for the upper criterion it maximizes P[wealth >= w] and the
test is p >= 1 - tau.  The optimal quantile is the largest threshold that
passes.

Additive and discounted wealth need one sweep.  Accumulation adds a
wealth-independent increment, so ``V_w(s, x) = V_t(s, x + t - w)`` for
any two targets w and t, and the initial-state slice ``f`` of one sweep at
target t is the whole optimal exceedance curve ``p(w) = f(x0 + t - w)``.
The first piece of ``f`` that passes the test opens at a cut ``x*``, so
the optimal quantile is ``x0 + t - x*`` exactly; the policy is the
target-t policy translated to a target just below it, inside the passing
piece.  Finite horizons make one backward induction at t = 0.  Infinite
horizons make one value iteration at the bracket end farthest along the
reward sign (the bottom for nonpositive rewards, the top for nonnegative
ones): its slices are clipped to the wealth reachable from w0, and every
threshold in the bracket maps onto that side.

Ordinal wealth has no translation, but over m classes a slice is a dense
length-m vector, so one batched backward induction over every class
threshold j of the bracket gives the exceedance curve p(j) directly
(:meth:`~qmdp.dp.OrdinalSweep.exceedance`), on only the classes w0 reaches
and one column per distinct split of them.  The lower quantile is one
above the largest passing j below the bracket top, the upper quantile the
largest passing j above the bracket bottom; both are exact.  That sweep
is the solve's only one (:meth:`~qmdp.dp.OrdinalSweep.policy`): it keeps
each layer's input slices, and one rule pass reads the greedy rules of
the largest passing j, or of the bracket bottom when no j passes, off
them.  On the classes w0 reaches in t steps they are the rules of a sweep
over every class, so the policy attains the optimum; every other class
takes the rule of the nearest reached class below it (above it when none
is below), which no evaluation from (s0, w0) reads.

A solve returns a policy and its quantile, and keeps no value function;
:func:`value_function` reruns the sweep a solve ran and moves its tables
to the policy's target, as ``qmdp solve --dump-slices`` writes them.

A problem pays its set-up once.  An :class:`~qmdp.mdp.Mdp` is immutable,
so what depends on it alone is kept on it for every later query: the
:func:`~qmdp.mdp.validate` result, the reach mask of a finite horizon and
the dense sweep of the last fit (its grid and gather tables, or the
decision that the cut loop runs; on ordinal wealth the class sweep, the
classes w0 reaches and their gather tables).  Nothing that depends on the
query is kept: no value rows, rules, probabilities or reports.  Every
query runs its full sweep and translation.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dp import (OrdinalSweep, ValueFunction, backward_induction,
                 check_convergence, reachable_window, value_iteration)
from .errors import ConfigurationError, ValidationError
from .evaluate import QUANT_ATOL, exact_distribution
from .mdp import validate
from .stepfun import WealthMarkovPolicy, translate
from .wealth import DiscountedWealth, OrdinalWealth


@dataclass
class QuantileQuery:
    """What to optimize: tau, criterion, tolerance, optional bracket override."""
    tau: float
    criterion: str = "lower"
    epsilon: float = 1e-3
    quantile_bounds: tuple = None     # (w_lo, w_hi) bracket override

    def check(self):
        """Reject a setting no solve can answer: a criterion other than
        'lower' or 'upper', a ``tau`` or ``epsilon`` that is not a real
        number (bools are not), a ``tau`` outside the criterion's range, an
        ``epsilon`` that is not finite and positive, or ``quantile_bounds``
        that are not a (w_lo, w_hi) tuple or list."""
        if self.criterion not in ("lower", "upper"):
            raise ConfigurationError(
                f"criterion must be 'lower' or 'upper', got {self.criterion!r}")
        for name in ("tau", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(
                    f"{name} must be a real number, got {value!r}")
        if self.criterion == "lower" and not 0.0 < self.tau <= 1.0:
            raise ConfigurationError(
                f"the lower criterion needs tau in (0, 1], got {self.tau}")
        if self.criterion == "upper" and not 0.0 <= self.tau < 1.0:
            raise ConfigurationError(
                f"the upper criterion needs tau in [0, 1), got {self.tau}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigurationError(
                f"epsilon must be a finite positive number, got {self.epsilon}")
        bounds = self.quantile_bounds
        if bounds is not None and not (isinstance(bounds, (tuple, list))
                                       and len(bounds) == 2):
            raise ConfigurationError(
                f"quantile_bounds must be a (w_lo, w_hi) pair, got {bounds!r}")


@dataclass
class IterationRecord:
    """One threshold test: threshold, achieved probability, outcome."""
    w: object
    p: float
    accepted: bool


@dataclass
class SolveReport:
    """Everything a solve produced, including the per-iteration audit trail."""
    policy: object
    quantile: object           # the certified quantile estimate
    bracket: tuple             # final (w_lo, w_hi)
    iterations: int            # sweeps that read q* off an exceedance curve: 1
    log: list = field(default_factory=list)   # the policy's threshold test
    at_bottom: bool = False    # the sweep found q* at or below the range bottom
    extra_solves: int = 0      # solves besides that sweep: always 0
    sweeps: int = None         # value-iteration sweeps (infinite horizons)
    stationary: bool = False
    criterion: str = "lower"
    tau: float = None
    epsilon: float = None


def solve_quantile(m, space, query, *, eps_conv=1e-6, max_sweeps=10000):
    """Find a tau-quantile-optimal policy and return a :class:`SolveReport`.

    Numeric problems read the quantile off one sweep: a backward induction
    at target 0 for finite horizons, a functional value iteration at the
    far end of ``quantile_bounds`` for infinite ones (uniformly signed
    rewards, undiscounted additive wealth), which return a stationary
    policy.  Ordinal problems make one batched dense backward induction
    over every class threshold of the bracket, whose kept layers give the
    policy's rules.
    """
    query.check()
    check_convergence(eps_conv, max_sweeps)
    violations = validate(m)
    if violations:
        raise ValidationError(violations)

    if m.horizon is None:
        _check_infinite(m, space, query)
    lo_k, hi_k = _bracket(m, space, query)
    strict = query.criterion == "lower"
    thr = 1.0 - query.tau
    if isinstance(space, OrdinalWealth):
        return _solve_ordinal(m, space, query, strict, thr, lo_k, hi_k)
    return _solve_by_one_sweep(m, space, query, strict, thr, lo_k, hi_k,
                               eps_conv, max_sweeps)


def value_function(m, space, query, report, *, eps_conv=1e-6,
                   max_sweeps=10000):
    """The value function behind ``report``'s policy, on every state.

    Numeric wealth reruns the sweep :func:`solve_quantile` ran, at the
    same target (0 for a finite horizon, the bracket end for an infinite
    one) on the same engine, with every state in every layer, and moves
    each table to the policy's target ``report.log[0].w`` with
    :func:`~qmdp.stepfun.translate`, as the solve moved the policy.  Ordinal
    wealth runs :func:`~qmdp.dp.backward_induction` at that target: the
    class sweep over every class, whose rules on the classes w0 reaches
    are the policy's.
    """
    w, strict = report.log[0].w, query.criterion == "lower"
    if isinstance(space, OrdinalWealth):
        return backward_induction(m, space, w, strict)[2]
    t, window, _, vf = _sweep(m, space, *_bracket(m, space, query), strict,
                              False, eps_conv, max_sweeps)
    c = space.key(w) - t
    return ValueFunction([translate(table, c, *window) for table in vf.tables],
                         vf.sweeps)


def _check_infinite(m, space, query):
    if isinstance(space, (OrdinalWealth, DiscountedWealth)):
        raise ConfigurationError(
            "infinite-horizon solves need undiscounted additive wealth")
    if m.reward_sign() == "mixed":
        raise ConfigurationError(
            "infinite-horizon solves need uniformly signed rewards")
    if query.quantile_bounds is None:
        raise ConfigurationError(
            "infinite-horizon solves need explicit quantile_bounds: no finite "
            "bracket exists a priori, a bound on the optimal quantile must "
            "be supplied")
    if query.tau == (1.0 if query.criterion == "lower" else 0.0):
        # the test compares p against exactly 0 or 1, and value iteration
        # stops at an iterate whose error alone would decide it
        raise ConfigurationError(
            f"infinite-horizon solves cannot decide the {query.criterion} "
            f"{query.tau}-quantile: its test compares a limit probability "
            "against exactly 0 or 1; use tau in (0, 1)")


def _bracket(m, space, query):
    """The keys ``(lo_k, hi_k)`` of the query's bracket, which an infinite
    horizon needs finite."""
    bounds = query.quantile_bounds or (space.w_min, space.w_max)
    lo_k, hi_k = space.key(bounds[0]), space.key(bounds[1])
    if not lo_k <= hi_k:
        raise ConfigurationError(f"empty wealth bracket {bounds!r}")
    if m.horizon is None and not (math.isfinite(lo_k) and math.isfinite(hi_k)):
        raise ConfigurationError(
            f"wealth bracket {bounds!r} is not finite; pass finite "
            "quantile_bounds")
    return lo_k, hi_k


def _sweep(m, space, lo_k, hi_k, strict, reachable_only, eps_conv,
           max_sweeps):
    """``(t, window, policy, vf)`` of a numeric solve's one sweep: its
    target key t, the window its tables are clipped to (both ends None
    when finite), its policy and its value function."""
    if m.horizon is not None:
        # reachable_only by position: wrappers of this name may take no
        # keywords
        policy, _, vf = backward_induction(m, space, 0.0, strict,
                                           reachable_only)
        return 0.0, (None, None), policy, vf
    window = reachable_window(m, space)
    t = lo_k if window[0] is None else hi_k
    policy, _, vf = value_iteration(m, space, space.unkey(t), strict,
                                    eps_conv=eps_conv, max_sweeps=max_sweeps)
    return t, window, policy, vf


def _passes(p, thr, strict):
    """The threshold test, on one probability or an array of them, with the
    slack ``QUANT_ATOL`` that a quantile allows a partial sum at a tie."""
    return p > thr + QUANT_ATOL if strict else p >= thr - QUANT_ATOL


def _solve_by_one_sweep(m, space, query, strict, thr, lo_k, hi_k,
                        eps_conv, max_sweeps):
    """Numeric wealth: every threshold from one sweep at target t.

    f(x0 + t - w), with f the initial-state slice, is the optimal
    exceedance probability at threshold w; f is nondecreasing, so the first
    passing piece opens at the cut x* of q* = x0 + t - x* (the whole
    bracket passes when the base piece does).  q* is clamped into
    [lo_k, hi_k].  The policy targets w_pol = q* - min(piece width,
    epsilon) / 2, strictly inside the passing piece, where float noise in
    a cut cannot flip the test.  The policy's table of rules moves to
    w_pol in one :func:`~qmdp.stepfun.translate`.

    A finite sweep computes only the states reachable from the initial
    state, all that the solve reads.  Infinite horizons sweep at the
    bracket end farthest along the reward sign, so x0 + t - w stays on the
    reachable side of w0, where the clipped slices are exact; w_pol
    therefore never drops below lo_k.  No passing piece there means q* is
    below the bracket: the report is at_bottom with the policy that
    targets lo_k.
    """
    infinite = m.horizon is None
    t, window, policy, vf = _sweep(m, space, lo_k, hi_k, strict, True,
                                   eps_conv, max_sweeps)
    f = vf.slice(0, m.initial_state)
    x0 = space.key(space.w0)
    starts = np.concatenate(([-math.inf], f.x))   # piece k opens at starts[k]
    hits = np.flatnonzero(_passes(np.concatenate(([f.base], f.v)), thr, strict))
    if len(hits):
        k = hits[0]
    elif infinite:
        k = None
    else:
        # a finite slice's top piece is 1 in exact arithmetic and passes
        # every test, but float noise can leave it just below the upper
        # test's 1.0 at tau = 0 (a clipped infinite slice's can truly be
        # below 1)
        k = len(starts) - 1
    if k is None:
        q = w_pol = lo_k
    else:
        width = (f.x[k] if k < len(f.x) else math.inf) - starts[k]
        q = min(max(x0 + t - float(starts[k]), lo_k), hi_k)
        w_pol = q - min(width, query.epsilon) / 2.0
        if infinite:
            w_pol = max(w_pol, lo_k)
    p = f(x0 + t - w_pol)
    return SolveReport(
        policy=WealthMarkovPolicy(translate(policy.table, w_pol - t, *window),
                                  m.n_states, stationary=infinite),
        quantile=space.unkey(q),
        bracket=(space.unkey(w_pol), space.unkey(q)),
        iterations=1,
        log=[IterationRecord(space.unkey(w_pol), p, _passes(p, thr, strict))],
        at_bottom=q <= lo_k,
        sweeps=vf.sweeps,
        stationary=infinite,
        criterion=query.criterion,
        tau=query.tau,
        epsilon=query.epsilon,
    )


def _solve_ordinal(m, space, query, strict, thr, lo_k, hi_k):
    """Ordinal wealth: every class threshold of the bracket from one sweep.

    One batched dense backward induction gives p(j) at the thresholds
    that decide q*: j in [lo_k, hi_k) for lower queries, where q* is one
    above the largest passing j, and j in (lo_k, hi_k] for upper ones,
    where q* is the largest passing j.  The bracket top is taken to fail
    the lower test and the bottom to pass the upper one: true at the ends
    of the class range (no wealth exceeds the top class, every wealth
    reaches the bottom one), and what clamps q* into narrower
    quantile_bounds.  Without a passing j the report is at_bottom at
    lo_k.  The policy is the greedy one at the largest passing threshold
    (at lo_k when at_bottom), which attains q*: the same sweep tables it
    from the layers it kept, with lo_k as target 0, the one it falls back
    to (for upper queries an extra column).
    """
    lo, hi = int(lo_k), int(hi_k)
    # the class sweep serves every target: the one m keeps
    sweep = OrdinalSweep.fit(m, space, lo_k)
    # target 0 is lo, the policy's target when no threshold passes
    targets = np.r_[lo, np.arange(lo, hi) + (0 if strict else 1)]
    p, i, policy = sweep.policy(targets, strict,
                                lambda p: _passes(p, thr, strict))
    at_bottom, target, p = i == 0, int(targets[i]), float(p[i])
    q = target + 1 if strict and not at_bottom else target
    bracket = (q - 1, q) if strict else (q, q + 1)
    return SolveReport(
        policy=policy,
        quantile=space.unkey(q),
        bracket=tuple(space.unkey(min(max(k, lo), hi)) for k in bracket),
        iterations=1,
        log=[IterationRecord(space.unkey(target), p, _passes(p, thr, strict))],
        at_bottom=at_bottom,
        criterion=query.criterion,
        tau=query.tau,
        epsilon=query.epsilon,
    )


def quantile_certificate(m, space, report, query):
    """Check the sufficient epsilon-optimality condition on a solve report.

    Recomputes the returned policy's exact wealth distribution and checks
    the bracket width together with F(w_lo) < tau (lower) or
    G(w_lo) >= 1 - tau (upper), each with the slack ``QUANT_ATOL`` that
    :meth:`WealthDistribution.quantile` allows a partial sum, so that the
    test holds exactly when the policy's own quantile clears w_lo: a total
    mass of 1 - 1e-16 neither fails the upper test at tau = 0 nor passes
    the lower one at tau = 1.  Reports flagged ``at_bottom`` carry no
    successful test to certify against; for those every policy's quantile
    lies inside the final bracket, so the check degrades to bracket width
    plus containment of the policy's own quantile.  A query that
    :meth:`QuantileQuery.check` rejects raises :class:`ConfigurationError`.
    """
    query.check()
    if m.horizon is None:
        raise ConfigurationError(
            "the certificate recomputes an exact distribution and therefore "
            "needs a finite horizon")
    dist = exact_distribution(m, space, report.policy)
    lo, hi = report.bracket
    # ordinal distances are integers: a bracket never shrinks below 1
    eps = (max(query.epsilon, 1.0) if isinstance(space, OrdinalWealth)
           else query.epsilon)
    if space.distance(lo, hi) > eps:
        return False
    if report.at_bottom:
        qk = space.key(dist.quantile(query.tau, query.criterion))
        return space.key(lo) <= qk <= space.key(hi)
    if query.criterion == "lower":
        return dist.cdf(lo) < query.tau - QUANT_ATOL
    return dist.decumulative(lo) >= 1.0 - query.tau - QUANT_ATOL
