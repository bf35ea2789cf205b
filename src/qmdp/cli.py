"""Command-line front end.

Subcommands: ``generate garnet|datacenter``, ``solve``, ``eval`` (alias
``dist``), ``oracle-check``.  Problems and policies are JSON;
anything meant for plotting is CSV.  Exit codes: 0 success, 2 usage error,
3 validation error, 4 resource-cap error, 5 non-convergence.  The env var
``QMDP_SEED`` supplies the default seed.
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, QmdpError,
                     ResourceLimitError, ValidationError)
from .evaluate import (WealthDistribution, brute_force_optimal_quantile,
                       exact_distribution, simulate)
from .mdp import (DataCenterConfig, GarnetConfig, default_branching,
                  generate_datacenter, generate_garnet, validate)
from .serialize import (atomic_write_text, load_policy, load_problem,
                        save_policy, save_problem, space_from_dict,
                        space_to_dict)
from .solver import (QuantileQuery, quantile_certificate, solve_quantile,
                     value_function)
from .wealth import AdditiveWealth


def _default_seed():
    return int(os.environ.get("QMDP_SEED", "0"))


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_taus(text):
    """``--taus``, where a NaN or a tau outside [0, 1] would check nothing."""
    taus = _parse_floats(text)
    for tau in taus:
        if not 0.0 <= tau <= 1.0:
            raise ConfigurationError(f"--taus: tau {tau!r} is not in [0, 1]")
    return taus


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


# -- generate ----------------------------------------------------------------

def cmd_generate_garnet(args):
    seed = args.seed if args.seed is not None else _default_seed()
    branching = (default_branching(args.states) if args.branching is None
                 else args.branching)
    cfg = GarnetConfig(args.states, args.actions, branching,
                       args.reward_low, args.reward_high, seed)
    m = generate_garnet(cfg, horizon=args.horizon)
    space = AdditiveWealth.for_mdp(m)
    save_problem(args.out, m, space)
    print(f"garnet G({cfg.n_states}, {cfg.n_actions}, {cfg.branching}) "
          f"seed={seed} horizon={args.horizon} -> {args.out}")
    return 0


def cmd_generate_datacenter(args):
    lambdas = _parse_floats(args.lambdas) if args.lambdas else [None] * 3
    thresholds = _parse_ints(args.thresholds) if args.thresholds else [None] * 2
    if len(lambdas) != 3:
        raise ConfigurationError("--lambdas needs three comma-separated rates")
    if len(thresholds) != 2:
        raise ConfigurationError("--thresholds needs two comma-separated job counts")
    cfg = DataCenterConfig(args.servers, *lambdas,
                           threshold_low_mid=thresholds[0],
                           threshold_mid_high=thresholds[1],
                           alpha=args.alpha, beta=args.beta, kappa=args.kappa)
    m = generate_datacenter(cfg, horizon=args.horizon)
    space = AdditiveWealth.for_mdp(m)
    save_problem(args.out, m, space)
    print(f"datacenter n={cfg.n_servers} states={m.n_states} "
          f"horizon={args.horizon} -> {args.out}")
    return 0


# -- solve ---------------------------------------------------------------

def cmd_solve(args):
    m, space = load_problem(args.problem)
    if args.horizon is not None:
        m = m.with_horizon(None if args.horizon in ("inf", "infinite")
                           else int(args.horizon))
        # a horizon below 1 would give the rebuilt space an empty range
        violations = validate(m)
        if violations:
            raise ValidationError(violations)
        space = space_from_dict(space_to_dict(space), m)
    bounds = None
    if args.bounds:
        lo, hi = _parse_floats(args.bounds)
        bounds = (lo, hi)
    query = QuantileQuery(tau=args.tau, criterion=args.criterion,
                          epsilon=args.epsilon, quantile_bounds=bounds)
    report = solve_quantile(m, space, query, eps_conv=args.eps_conv,
                            max_sweeps=args.max_sweeps)
    if args.out:
        save_policy(args.out, report.policy, space)
    if args.log:
        _write_csv(args.log, ["w", "p", "accepted"],
                   [(rec.w, rec.p, int(rec.accepted)) for rec in report.log])
    if args.dump_slices:
        # the solve keeps no value function: rerun its sweep on every state
        vf = value_function(m, space, query, report, eps_conv=args.eps_conv,
                            max_sweeps=args.max_sweeps)
        rows = []
        for t, layer in enumerate(vf.slices):
            for s, fn in enumerate(layer):
                for frm, inclusive, value in fn.intervals():
                    rows.append((t, s, "", "", value) if frm is None
                                else (t, s, frm, int(inclusive), value))
        _write_csv(args.dump_slices, ["t", "s", "threshold", "inclusive", "value"],
                   rows)
    flag = " (quantile at bottom of range)" if report.at_bottom else ""
    print(f"{report.criterion} {report.tau}-quantile estimate: "
          f"{report.quantile}{flag}")
    print(f"bracket: [{report.bracket[0]}, {report.bracket[1]}]  "
          f"iterations: {report.iterations}")
    if report.sweeps is not None:
        print(f"sweeps: {report.sweeps}")
    return 0


# -- eval -----------------------------------------------------------------

def cmd_eval(args):
    # a cap below 1 would switch to Monte Carlo at once, and no episodes
    # sample nothing
    for name in ("atom_cap", "mc_episodes"):
        if getattr(args, name) < 1:
            raise ConfigurationError(f"--{name.replace('_', '-')} must be at "
                                     f"least 1, got {getattr(args, name)}")
    taus = _parse_taus(args.taus)
    m, space = load_problem(args.problem)
    violations = validate(m)
    if violations:
        raise ValidationError(violations)
    policy = load_policy(args.policy, space, m.n_states)
    seed = args.seed if args.seed is not None else _default_seed()
    mode = "exact"
    episodes = None
    try:
        dist = exact_distribution(m, space, policy, atom_cap=args.atom_cap)
    except ResourceLimitError:
        mode = "monte-carlo"
        episodes = args.mc_episodes
        samples = simulate(m, space, policy, episodes, seed=seed)
        dist = WealthDistribution(space, samples, np.full(episodes, 1.0 / episodes))
    rows = []
    for w, p in dist.support:
        rows.append((w, p, dist.cdf(w), dist.decumulative(w)))
    if args.out:
        _write_csv(args.out, ["wealth", "probability", "F", "G"], rows)
    summary = {"mode": mode, "support_size": len(dist)}
    if episodes:
        summary["episodes"] = episodes
        summary["stderr_note"] = ("empirical probabilities have std error "
                                  "<= 0.5/sqrt(episodes)")
    if space.kind != "ordinal":
        summary["mean"] = dist.mean()
    quantiles = {}
    for tau in taus:
        entry = {}
        entry["lower"] = dist.quantile(tau, "lower") if 0 < tau <= 1 else None
        entry["upper"] = dist.quantile(tau, "upper") if 0 <= tau < 1 else None
        quantiles[repr(tau)] = entry
    summary["quantiles"] = quantiles
    if args.summary:
        atomic_write_text(args.summary, json.dumps(summary, indent=2))
    print(f"{mode} distribution over {len(dist)} wealth atoms"
          + (f" (mean {summary['mean']:.6g})" if "mean" in summary else ""))
    return 0


# -- oracle-check -------------------------------------------------------------

def cmd_oracle_check(args):
    seed = args.seed if args.seed is not None else _default_seed()
    taus = _parse_taus(args.taus)
    # no instance or no tau would check nothing and still report agreement
    if args.instances < 1:
        raise ConfigurationError(
            f"--instances: {args.instances} checks no instance; give 1 or more")
    if not taus:
        raise ConfigurationError(f"--taus: {args.taus!r} lists no tau")
    failures = 0
    for i in range(args.instances):
        cfg = GarnetConfig(4, 2, 2, seed=seed + i)
        m = generate_garnet(cfg, horizon=3)
        space = AdditiveWealth.for_mdp(m)
        worst = 0.0
        for tau in taus:
            for criterion in ("lower", "upper"):
                if criterion == "lower" and not 0 < tau <= 1:
                    continue
                if criterion == "upper" and not 0 <= tau < 1:
                    continue
                oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
                query = QuantileQuery(tau=tau, criterion=criterion,
                                      epsilon=args.epsilon)
                report = solve_quantile(m, space, query)
                gap = space.distance(report.quantile, oracle_q)
                certified = quantile_certificate(m, space, report, query)
                worst = max(worst, gap)
                if gap > args.epsilon or not certified:
                    failures += 1
                    print(f"FAIL seed={seed + i} tau={tau} {criterion}: "
                          f"solver={report.quantile!r} oracle={oracle_q!r} "
                          f"gap={gap:.3g} certified={certified}")
        print(f"instance seed={seed + i}: worst gap {worst:.3g}")
    if failures:
        print(f"oracle-check: {failures} failures")
        return 1
    print(f"oracle-check: all {args.instances} instances agree within "
          f"{args.epsilon}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmdp",
        description="Quantile-optimal MDP policies from functional backward "
                    "induction over wealth thresholds")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark problem file")
    gsub = gen.add_subparsers(dest="generator", required=True)

    gg = gsub.add_parser("garnet", help="random MDP with fixed branching")
    gg.add_argument("--states", type=int, required=True)
    gg.add_argument("--actions", type=int, default=5)
    gg.add_argument("--branching", type=int, default=None,
                    help="defaults to ceil(log2 states)")
    gg.add_argument("--reward-low", type=float, default=0.0)
    gg.add_argument("--reward-high", type=float, default=1.0)
    gg.add_argument("--seed", type=int, default=None)
    gg.add_argument("--horizon", type=int, default=5)
    gg.add_argument("--out", required=True)
    gg.set_defaults(func=cmd_generate_garnet)

    gd = gsub.add_parser("datacenter", help="server-farm control problem")
    gd.add_argument("--servers", type=int, required=True)
    gd.add_argument("--lambdas", default=None,
                    help="low,mid,high arrival rates (default ceil(n/2) etc.)")
    gd.add_argument("--thresholds", default=None,
                    help="regime thresholds t1,t2 (default n,2n)")
    gd.add_argument("--alpha", type=float, default=1.0)
    gd.add_argument("--beta", type=float, default=10.0)
    gd.add_argument("--kappa", type=float, default=3.0)
    gd.add_argument("--horizon", type=int, default=5)
    gd.add_argument("--out", required=True)
    gd.set_defaults(func=cmd_generate_datacenter)

    sv = sub.add_parser("solve", help="find a quantile-optimal policy")
    sv.add_argument("--problem", required=True)
    sv.add_argument("--tau", type=float, required=True)
    sv.add_argument("--criterion", choices=["lower", "upper"], default="lower")
    sv.add_argument("--epsilon", type=float, default=1e-3)
    sv.add_argument("--horizon", default=None,
                    help="override the problem horizon (an integer or 'inf')")
    sv.add_argument("--bounds", default=None,
                    help="quantile bracket lo,hi (a negative lo works as "
                         "written: --bounds -3,0)")
    sv.add_argument("--eps-conv", type=float, default=1e-6)
    sv.add_argument("--max-sweeps", type=int, default=10000)
    sv.add_argument("--out", default=None, help="policy JSON path")
    sv.add_argument("--log", default=None,
                    help="CSV path: the (w, p, accepted) row of the threshold "
                         "the policy targets")
    sv.add_argument("--dump-slices", default=None,
                    help="debug CSV of value-function pieces per (t, s) of "
                         "the solve's sweep, moved to the threshold the "
                         "policy targets; infinite horizons write the "
                         "stationary slices as t=0")
    sv.set_defaults(func=cmd_solve)

    for name in ("eval", "dist"):
        ev = sub.add_parser(name, help="evaluate a policy's wealth distribution")
        ev.add_argument("--problem", required=True)
        ev.add_argument("--policy", required=True)
        ev.add_argument("--out", default=None, help="distribution CSV path")
        ev.add_argument("--summary", default=None, help="summary JSON path")
        ev.add_argument("--taus", default="0.1,0.5,0.9")
        ev.add_argument("--atom-cap", type=int, default=10_000_000)
        ev.add_argument("--mc-episodes", type=int, default=100_000)
        ev.add_argument("--seed", type=int, default=None)
        ev.set_defaults(func=cmd_eval)

    oc = sub.add_parser("oracle-check",
                        help="compare the solver against brute force on "
                             "small random instances")
    oc.add_argument("--instances", type=int, default=20)
    oc.add_argument("--taus", default="0.1,0.5,0.9")
    oc.add_argument("--epsilon", type=float, default=1e-6)
    oc.add_argument("--seed", type=int, default=None)
    oc.set_defaults(func=cmd_oracle_check)

    return parser


def _attach_bounds(argv):
    """Join ``--bounds LO,HI`` into ``--bounds=LO,HI``.

    argparse takes a separate ``-3,0`` for an unknown option rather than a
    value, yet nonpositive infinite-horizon problems need negative brackets.
    """
    out = []
    it = iter(argv)
    for arg in it:
        value = next(it, None) if arg == "--bounds" else None
        out.append(arg if value is None else f"--bounds={value}")
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(
        _attach_bounds(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args) or 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 5
    except (ConfigurationError, ValueError) as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
