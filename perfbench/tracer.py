"""Spans recorded from outside the program, by wrapping the names callers bind.

A traced run replaces, for its duration, each public function at the
module attribute (or class attribute, for wealth-space methods) through
which its callers reach it, e.g. ``qmdp.solver.backward_induction`` and
``qmdp.dp.combine``.  Every call made while a trace id is active records a
span: name, start, end, parent span and the trace id, plus two optional
counters the wrapper reads off the arguments and the result.  Spans stay in
memory; :meth:`Tracer.save` writes them out when the run ends.  Leaving the
``with`` block restores every wrapped attribute.
"""

import contextlib
import functools
import time
from array import array

import numpy as np

from qmdp import dp, evaluate, mdp, serialize, solver, wealth


def _pieces(f):
    return len(f.x)


def _count_combine(args, kwargs, out):
    terms = args[0] if args else kwargs["terms"]
    return sum(_pieces(f) for _, f in terms), _pieces(out)


def _count_pointwise_max(args, kwargs, out):
    fs = args[0] if args else kwargs["fs"]
    return sum(_pieces(f) for f in fs), _pieces(out[0])


def _count_unary(args, kwargs, out):
    return _pieces(args[0]), _pieces(out)


def _count_sup_distance(args, kwargs, out):
    # the result is a scalar: no pieces come out
    return _pieces(args[0]) + _pieces(args[1]), 0


def _count_distribution(args, kwargs, out):
    return len(out), 0


def instrumentation():
    """(owner, attribute, span name, counter) for every wrapped name."""
    points = [
        (solver, "solve_quantile", "solver.solve_quantile", None),
        (solver, "backward_induction", "dp.backward_induction", None),
        (solver, "value_iteration", "dp.value_iteration", None),
        (solver, "validate", "mdp.validate", None),
        (mdp, "validate", "mdp.validate", None),
        (mdp, "generate_garnet", "mdp.generate", None),
        (mdp, "generate_datacenter", "mdp.generate", None),
        (dp, "shift", "stepfun.shift", _count_unary),
        (dp, "combine", "stepfun.combine", _count_combine),
        (dp, "pointwise_max", "stepfun.pointwise_max", _count_pointwise_max),
        (dp, "restrict", "stepfun.restrict", _count_unary),
        (dp, "sup_distance", "stepfun.sup_distance", _count_sup_distance),
        (evaluate, "exact_distribution", "evaluate.exact_distribution",
         _count_distribution),
        (serialize, "save_problem", "serialize.save_problem", None),
        (serialize, "load_problem", "serialize.load_problem", None),
        (serialize, "save_policy", "serialize.save_policy", None),
        (serialize, "load_policy", "serialize.load_policy", None),
    ]
    for cls in (wealth.WealthSpace, wealth.AdditiveWealth,
                wealth.DiscountedWealth, wealth.OrdinalWealth):
        for method in ("shift_delta", "move_table", "key"):
            if method in vars(cls):
                points.append((cls, method, f"wealth.{method}", None))
    return points


class Tracer:
    """In-memory span recorder; a context manager that installs the wrappers.

    Spans are recorded only while :attr:`trace_id` is set (see
    :meth:`active`), so answer checks and other benchmark bookkeeping that
    call the same functions leave no spans.
    """

    def __init__(self):
        self.points = instrumentation()
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.trace = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("q")
        self.count_b = array("q")
        self.trace_id = None
        self._stack = []
        self._saved = []
        # span name -> hook(result), run after the span closes, outside its time
        self.on_result = {}

    # -- installing and restoring -------------------------------------------

    def __enter__(self):
        for owner, attr, span, counter in self.points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._name_id(span),
                                            span, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.trace_id = None
        return False

    @contextlib.contextmanager
    def active(self, trace_id):
        """Record spans under ``trace_id`` inside the ``with`` block."""
        self.trace_id = trace_id
        try:
            yield self
        finally:
            self.trace_id = None

    def _name_id(self, span):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        return self._name_ids[span]

    def _wrap(self, fn, name_id, span, counter):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.trace_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.trace.append(tracer.trace_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.count_a.append(0)
            tracer.count_b.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                tracer.count_a[idx], tracer.count_b[idx] = counter(args, kwargs, out)
            hook = tracer.on_result.get(span)
            if hook is not None:
                hook(out)
            return out

        return traced

    # -- reading spans back ----------------------------------------------------

    def columns(self):
        """Spans as numpy columns, with each span's self time."""
        n = len(self.start)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros(n)
        has_parent = parent >= 0
        # spans run one at a time, so children of one parent never overlap:
        # the part of a span its children cover is the sum of their lengths
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name, dtype=np.int32),
            "trace": np.array(self.trace, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - covered,
            "count_a": np.array(self.count_a, dtype=np.int64),
            "count_b": np.array(self.count_b, dtype=np.int64),
        }

    def save(self, path):
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)
