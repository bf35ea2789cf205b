"""The benchmark proper: set-up, the closed query loop, answer checks, metrics.

Import it only after :func:`bootstrap.use_source_tree` has run; ``run.py``
does that and then calls :func:`main`.
"""

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import bootstrap
from qmdp import errors, evaluate, mdp, serialize, solver
from qmdp.wealth import OrdinalWealth
from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPS = 3       # fresh-interpreter set-ups per run; setup_s is their median
EVAL_MIN_S = 0.03    # an untraced query repeats its evaluation this long
CHECK_TOL = 1e-9     # float slack on top of epsilon in the answer check
MAX_LAYERS = 8       # dp.pieces_*.t<k> are reported for k < MAX_LAYERS
STEPFUN_OPS = ("shift", "combine", "pointwise_max", "restrict", "sup_distance")
CUT_BYTES = 17       # one cut: float64 threshold, uint8 side, float64 value

CAL_REF_S = 0.0125   # calibrate() on an unloaded core of the build host; see README
CAL_ARRAYS = [np.sort(np.random.default_rng(0).random(n)) for n in (40, 90, 160, 300)]

END_TO_END_UNITS = {"solve_s": "s", "solves_per_min": "1/min", "eval_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


# -- environment ----------------------------------------------------------------

def git_commit(root):
    """HEAD commit read from the checkout's own .git, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "seed": seed,
        "commit": git_commit(bootstrap.ROOT),
    }


def solve_percentiles(times):
    """Sample count, median and the highest 5% step with ten samples beyond."""
    n = len(times)
    out = {"n": n, "median_s": statistics.median(times)}
    k = 5 * int(20 * (1 - 10 / n)) if n >= 20 else 0    # percent
    if k > 50:
        out[f"p{k}_s"] = statistics.quantiles(times, n=20)[k // 5 - 1]
    return out


# -- one query ------------------------------------------------------------------

def set_up(workload, workdir):
    """Generate, validate and round-trip every problem of the workload."""
    problems = []
    for i, instance in enumerate(workload.instances):
        m, space = workload.build(instance)
        violations = mdp.validate(m)
        if violations:
            raise errors.ValidationError(violations)
        path = str(workdir / f"problem-{i}.json")
        serialize.save_problem(path, m, space)
        problems.append(serialize.load_problem(path))
    return problems


def calibrate():
    """Wall seconds of a fixed loop of small numpy and dict operations.

    The loop calls nothing in qmdp, so a change to the program leaves it
    alone, while load from other tenants of the host slows it much as it
    slows a query.  A run scales its timings by CAL_REF_S over the mean of
    the calibration times taken around them.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        for a in CAL_ARRAYS:
            b = np.concatenate((a, a[::2] + 0.5))
            c = np.maximum.accumulate(b[np.argsort(b, kind="stable")])
            acc += float(c[np.searchsorted(c, 0.5) - 1])
        d = {}
        for i in range(300):
            d[i % 17] = d.get(i % 17, 0.0) + i * 0.5
        acc += sum(d.values())
    return time.perf_counter() - t0


def time_set_up(workload, workdir):
    """Wall seconds of one set-up in a fresh interpreter (see setup_once.py)."""
    script = Path(__file__).with_name("setup_once.py")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(script), workload.name, str(workdir)],
                   check=True)
    return time.perf_counter() - t0


def run_query(workload, problem, q, workdir, eval_min_s=0.0):
    """Solve, then hand the policy off and evaluate it; returns timings too.

    The evaluation (save, load, exact distribution) is repeated until
    ``eval_min_s`` have passed; the time of each repetition is returned.
    """
    m, space = problem
    t0 = time.perf_counter()
    report = solver.solve_quantile(m, space, q.to_query())
    t1 = time.perf_counter()
    path = str(workdir / "policy.json")
    m_eval = m if m.horizon is not None else m.with_horizon(workload.eval_horizon)
    evals = []
    while not evals or time.perf_counter() - t1 < eval_min_s:
        t2 = time.perf_counter()
        serialize.save_policy(path, report.policy, space)
        policy = serialize.load_policy(path, space, m.n_states)
        dist = evaluate.exact_distribution(m_eval, space, policy)
        evals.append(time.perf_counter() - t2)
    return report, dist, t1 - t0, evals, os.path.getsize(path)


def check_answer(problem, q, report, dist, reference):
    """Reasons the answer is wrong; empty when it passes.

    * ``quantile_certificate`` holds (finite horizons: it needs an exact
      distribution).
    * The quantile is within epsilon of the pinned reference; ordinal
      answers must match it exactly.
    * The handed-off policy's own exact tau-quantile is no worse than the
      reported quantile minus epsilon.  A stationary policy is evaluated on
      a finite truncation: with nonpositive rewards wealth only falls, so
      the truncated quantile bounds the true one from above and the test
      is a necessary condition.
    """
    m, space = problem
    ordinal = isinstance(space, OrdinalWealth)
    slack = 0.0 if ordinal else q.epsilon + CHECK_TOL
    wrong = []
    if m.horizon is not None and not solver.quantile_certificate(
            m, space, report, q.to_query()):
        wrong.append("quantile_certificate failed")
    got = space.key(report.quantile)
    ref = space.key(reference)
    if abs(got - ref) > slack:
        wrong.append(f"quantile {report.quantile!r} vs reference {reference!r}")
    own = space.key(dist.quantile(q.tau, q.criterion))
    if own < got - slack:
        wrong.append(f"policy's own quantile {own!r} below reported {got!r}")
    return wrong


# -- reachability probe ------------------------------------------------------------

def reachable_slices(m):
    """(slices reachable from the initial state, slices of a full sweep).

    Finite horizons: a (t, s) slice with t < T is reachable when some
    action sequence reaches s in exactly t steps, out of T * S.  Infinite
    horizons: a state is reachable in any number of steps, out of S.
    """
    def step(states):
        return {int(sp) for s in states for a in range(m.n_actions)
                for sp in m.successors(s, a)}

    frontier = {m.initial_state}
    if m.horizon is None:
        seen = set(frontier)
        while frontier:
            frontier = step(frontier) - seen
            seen |= frontier
        return len(seen), m.n_states
    reached = 0
    for _ in range(m.horizon):
        reached += len(frontier)
        frontier = step(frontier)
    return reached, m.horizon * m.n_states


# -- per-layer metrics from spans ----------------------------------------------------

class LayerPieces:
    """Mean and max pieces per backward-induction layer, from returned tables."""

    def __init__(self):
        self.total = [0] * MAX_LAYERS
        self.count = [0] * MAX_LAYERS
        self.max = [0] * MAX_LAYERS

    def __call__(self, result):
        vf = result[2]
        for t, layer in enumerate(vf.slices[:MAX_LAYERS]):
            if t == len(vf.slices) - 1:
                break   # the terminal layer is the target, not computed
            sizes = [len(f) for f in layer]
            self.total[t] += sum(sizes)
            self.count[t] += len(sizes)
            self.max[t] = max(self.max[t], max(sizes))


def layer_metrics(tracer, setup_ids, query_ids, reports, pieces, reach,
                  policy_bytes, overhead):
    """Per-layer metrics of a traced run; see README.md for each definition.

    Counts and seconds are totals per traced query, except the set-up
    ones (per set-up) and the medians named as such.
    """
    cols = tracer.columns()
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_query = np.isin(cols["trace"], query_ids)
    in_setup = np.isin(cols["trace"], setup_ids)
    n_q = len(query_ids)

    def sel(*names, within=in_query):
        wanted = [ids[n] for n in names if n in ids]
        return within & np.isin(cols["name"], wanted)

    def per_query(col, *names):
        return float(cols[col][sel(*names)].sum()) / n_q

    def calls(*names):
        return float(sel(*names).sum()) / n_q

    def per_set_up(name):
        return float(cols["dur"][sel(name, within=in_setup)].sum()) / len(setup_ids)

    def median(col, *names, within=in_query):
        vals = cols[col][sel(*names, within=within)]
        return float(np.median(vals)) if len(vals) else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    dp_names = ("dp.backward_induction", "dp.value_iteration")
    put("solver.tests", statistics.fmean(r.iterations + r.extra_solves
                                         for r in reports), "count")
    put("solver.test_s", median("dur", *dp_names), "s")
    put("solver.self_s", median("self", "solver.solve_quantile"), "s")
    for name in dp_names:
        put(f"{name}.s", per_query("dur", name), "s")
        put(f"{name}.calls", calls(name), "count")
    put("dp.vi_sweeps", statistics.fmean(r.sweeps or 0 for r in reports), "count")
    put("dp.self_s", per_query("self", *dp_names), "s")
    for t in range(MAX_LAYERS):
        mean = pieces.total[t] / pieces.count[t] if pieces.count[t] else 0.0
        put(f"dp.pieces_mean.t{t}", mean, "count")
        put(f"dp.pieces_max.t{t}", pieces.max[t], "count")
    # a backward induction computes one envelope per (t, s) slice it builds
    bi = sel("dp.backward_induction")
    if bi.any():
        envelopes = sel("stepfun.pointwise_max") & np.isin(cols["parent"],
                                                           np.flatnonzero(bi))
        computed = envelopes.sum() / bi.sum()
    else:
        computed = reach[1]   # value iteration: every state, every sweep
    put("dp.reachable_ratio", reach[0] / computed if computed else 0.0, "ratio")

    cuts_total = 0
    for op in STEPFUN_OPS:
        name = f"stepfun.{op}"
        cuts = per_query("count_a", name)
        cuts_total += cuts
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.s", per_query("dur", name), "s")
        put(f"{name}.cuts_in", cuts, "count")
        put(f"{name}.pieces_out", per_query("count_b", name), "count")
    for op in ("combine", "pointwise_max"):
        cuts = out[f"stepfun.{op}.cuts_in"]["value"]
        ratio = out[f"stepfun.{op}.pieces_out"]["value"] / cuts if cuts else 0.0
        put(f"stepfun.{op}.merge_ratio", ratio, "ratio")
    put("stepfun.us_per_call",
        1e6 * median("dur", *(f"stepfun.{op}" for op in STEPFUN_OPS)), "us")
    put("stepfun.bytes_computed", CUT_BYTES * cuts_total, "B")

    wealth_names = ("wealth.shift_delta", "wealth.move_table", "wealth.key")
    put("wealth.calls", calls(*wealth_names), "count")
    put("wealth.s", per_query("dur", *wealth_names), "s")

    put("evaluate.exact_distribution.s",
        per_query("dur", "evaluate.exact_distribution"), "s")
    put("evaluate.atoms", per_query("count_a", "evaluate.exact_distribution"),
        "count")

    put("serialize.load_problem.s", per_set_up("serialize.load_problem"), "s")
    put("serialize.save_policy.s", per_query("dur", "serialize.save_policy"), "s")
    put("serialize.load_policy.s", per_query("dur", "serialize.load_policy"), "s")
    put("serialize.policy_bytes", statistics.fmean(policy_bytes), "B")
    put("mdp.generate.s", per_set_up("mdp.generate"), "s")
    put("mdp.validate.s",
        median("dur", "mdp.validate", within=in_setup | in_query), "s")
    put("trace.overhead_ratio", overhead, "ratio")
    return out


# -- the run ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, workdir, references):
    """Run the closed loop; returns (result dict, info dict)."""
    instances = workload.instances
    pairs = workload.pairs()
    order = workload.schedule(seed)
    refs = references[workload.name]
    tracer = Tracer() if trace else None
    setup_ids, query_ids = [], []

    def span_scope(ids):
        """Record spans under a fresh trace id appended to ``ids``."""
        if ids is None:
            return contextlib.nullcontext()
        ids.append(len(setup_ids) + len(query_ids))
        return tracer.active(ids[-1])

    setup_s, setup_cal = [], [calibrate()]   # a calibration on each side
    for _ in range(SETUP_REPS):
        setup_s.append(time_set_up(workload, workdir))
        setup_cal.append(calibrate())
    with tracer if trace else contextlib.nullcontext():
        with span_scope(setup_ids if trace else None):
            problems = set_up(workload, workdir)

        pieces = LayerPieces()
        if trace:
            tracer.on_result["dp.backward_induction"] = pieces

        attempted = failed = 0
        failures = []
        solve_s, eval_s, ratios = [], [], []
        cal_s = []         # one calibrate() before each query
        by_pair = {}       # pair index -> (solve times, evaluation times)
        reports, policy_bytes = [], []

        def one(inst, q, ids=None):
            nonlocal attempted, failed
            reference = refs[str(instances[inst])][q.key]["quantile"]
            attempted += 1
            try:
                with span_scope(ids):
                    report, dist, t_solve, t_eval, size = run_query(
                        workload, problems[inst], q, workdir,
                        0.0 if ids is not None else EVAL_MIN_S)
                wrong = check_answer(problems[inst], q, report, dist, reference)
            except Exception as exc:   # a failed query is counted, not fatal
                wrong = [f"{type(exc).__name__}: {exc}"]
            if wrong:
                failed += 1
                failures.append({"instance": instances[inst], "query": q.key,
                                 "why": wrong})
                return None
            return report, t_solve, t_eval, size

        t_warm = time.perf_counter()
        one(*pairs[0])                  # warm-up: checked, not timed
        warmup_s = time.perf_counter() - t_warm

        # every pair at least once, so that each has a solve time
        asked = set()
        start = time.perf_counter()
        while len(asked) < len(pairs) or time.perf_counter() - start < seconds:
            pair = next(order)
            asked.add(pair)
            cal_s.append(calibrate())
            plain = one(*pairs[pair])
            if plain is not None:
                solve_s.append(plain[1])
                eval_s.extend(plain[2])
                solves, evals = by_pair.setdefault(pair, ([], []))
                solves.append(plain[1])
                evals.extend(plain[2])
            if trace:
                got = one(*pairs[pair], query_ids)
                if got is not None:
                    reports.append(got[0])
                    policy_bytes.append(got[3])
                    if plain is not None:
                        ratios.append(got[1] / plain[1])

    info = {
        "workload": workload.name,
        "instances": instances,
        "env": environment(seed),
        "warmup_s": warmup_s,
        "samples": {"solve_s": len(solve_s), "solves_per_min": len(solve_s),
                    "eval_s": len(eval_s), "setup_s": len(setup_s),
                    "peak_rss_mb": 1},
        "error_rate": failed / attempted,
        "solve_pairs": {f"{instances[pairs[k][0]]}/{pairs[k][1].key}":
                        solve_percentiles(v[0]) for k, v in sorted(by_pair.items())},
        "solve_samples": solve_s, "eval_samples": eval_s, "setup_samples": setup_s,
        "cal_samples": cal_s, "setup_cal_samples": setup_cal,
        "failures": failures[:5],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(by_pair) < len(pairs):
        result["metrics"] = {}
        return result, info

    if trace:
        reach = np.mean([reachable_slices(m) for m, _ in problems], axis=0)
        overhead = statistics.median(ratios) if ratios else 0.0
        metrics = layer_metrics(tracer, setup_ids, query_ids, reports, pieces,
                                reach, policy_bytes, overhead)
        info["samples"]["traced_queries"] = len(query_ids)
        info["spans"] = len(tracer.start)
        trace_path = workdir.parent / f"trace-{workload.name}-seed{seed}.npz"
        tracer.save(trace_path)
        info["trace_file"] = os.path.relpath(trace_path, bootstrap.ROOT)
    else:
        # host load slows the calibration loop and the program alike
        speed = CAL_REF_S / statistics.fmean(cal_s)
        unscaled = {
            "solve_s": statistics.geometric_mean(
                statistics.fmean(solves) for solves, _ in by_pair.values()),
            "eval_s": statistics.geometric_mean(
                statistics.fmean(evals) for _, evals in by_pair.values()),
            "setup_s": statistics.median(setup_s),
        }
        # a set-up is scaled by the calibrations on either side of it
        setup_scaled = [CAL_REF_S * t / statistics.fmean(cals) for t, cals
                        in zip(setup_s, zip(setup_cal, setup_cal[1:]))]
        info["host_speed"] = speed
        info["unscaled"] = unscaled
        values = {
            "solve_s": speed * unscaled["solve_s"],
            "solves_per_min": 60.0 * len(solve_s) / (speed * sum(solve_s)),
            "eval_s": speed * unscaled["eval_s"],
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    result["metrics"] = metrics
    return result, info


def main(args):
    """Run one workload and print the environment line and the result line."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((Path(__file__).parent / "references.json").read_text())
    out_dir = bootstrap.ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        result, info = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                               args.trace, workdir, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0
