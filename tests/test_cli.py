import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmdp
from qmdp import (QuantileQuery, backward_induction, load_problem,
                  save_problem, solve_quantile, validate, value_iteration)
from qmdp.cli import main
from qmdp.solver import value_function
from conftest import two_policy_ordinal_instance


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_generate_garnet_branching(tmp_path):
    out = tmp_path / "g.json"
    assert run("generate", "garnet", "--states", 250, "--actions", 5,
               "--seed", 1, "--out", out) == 0
    m, space = load_problem(out)
    assert m.n_states == 250
    for a in range(5):
        assert len(m.successors(0, a)) == 8    # ceil(log2 250)


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("generate", "garnet", "--states", 12, "--actions", 2,
                   "--seed", 9, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_datacenter(tmp_path):
    out = tmp_path / "dc.json"
    assert run("generate", "datacenter", "--servers", 3, "--out", out) == 0
    m, _ = load_problem(out)
    assert m.n_states == 3 * 9
    assert m.n_actions == 3


def test_solve_writes_artifacts(tmp_path):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--seed", 3,
        "--out", problem)
    policy = tmp_path / "pol.json"
    log = tmp_path / "iters.csv"
    code = run("solve", "--problem", problem, "--tau", 0.2, "--criterion",
               "lower", "--epsilon", 1e-3, "--out", policy, "--log", log)
    assert code == 0
    rows = read_csv(log)
    assert rows[0] == ["w", "p", "accepted"]
    assert 1 <= len(rows) - 1 <= 13
    payload = json.loads(policy.read_text())
    assert {e["t"] for e in payload} == {0, 1, 2, 3, 4}
    # determinism: identical rerun produces identical bytes
    policy2 = tmp_path / "pol2.json"
    run("solve", "--problem", problem, "--tau", 0.2, "--criterion", "lower",
        "--epsilon", 1e-3, "--out", policy2)
    assert policy.read_bytes() == policy2.read_bytes()


def test_solve_tau_out_of_range_usage_error(tmp_path, capsys):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 4, "--actions", 2, "--out", problem)
    code = run("solve", "--problem", problem, "--tau", 1.5)
    assert code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "tau" in err


def write_infinite_problem(path):
    """A 2-state chain with nonpositive rewards and an infinite horizon."""
    path.write_text(json.dumps({
        "mdp": {"n_states": 2, "n_actions": 1,
                "transitions": [[0, 0, 0, 0.3], [0, 0, 1, 0.7], [1, 0, 1, 1.0]],
                "rewards": {"kind": "sa", "values": [[-0.25], [0.0]]},
                "initial_state": 0, "horizon": "infinite"},
        "wealth_space": {"kind": "additive"}}))


def test_solve_dump_slices(tmp_path):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 4, "--actions", 2, "--seed", 2,
        "--out", problem)
    slices = tmp_path / "slices.csv"
    assert run("solve", "--problem", problem, "--tau", 0.5,
               "--dump-slices", slices) == 0
    rows = read_csv(slices)
    assert rows[0] == ["t", "s", "threshold", "inclusive", "value"]
    assert len(rows) > 1


def test_solve_infinite_dumps_stationary_slices(tmp_path, capsys):
    problem = tmp_path / "p.json"
    write_infinite_problem(problem)
    slices = tmp_path / "slices.csv"
    assert run("solve", "--problem", problem, "--tau", 0.5, "--bounds=-3,0",
               "--dump-slices", slices) == 0
    sweeps = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("sweeps: ")]
    assert len(sweeps) == 1 and int(sweeps[0].split()[1]) > 0
    rows = read_csv(slices)
    assert rows[0] == ["t", "s", "threshold", "inclusive", "value"]
    assert {row[0] for row in rows[1:]} == {"0"}
    assert {row[1] for row in rows[1:]} == {"0", "1"}


def dump_rows(vf):
    """The rows ``--dump-slices`` writes for the value function vf."""
    return [[str(t), str(s), "", "", str(v)] if frm is None
            else [str(t), str(s), str(frm), str(int(inclusive)), str(v)]
            for t, layer in enumerate(vf.slices) for s, f in enumerate(layer)
            for frm, inclusive, v in f.intervals()]


@pytest.mark.parametrize("case", ["finite", "infinite", "ordinal"])
def test_dump_slices_equal_the_dp_at_the_policy_threshold(tmp_path, case):
    # the solve keeps no value function: the dump reruns the solve's own
    # sweep on every state and moves each table to the threshold the
    # policy targets, as the policy was moved.  That is the DP run at the
    # threshold itself, but for rounding in the moved cuts; ordinal wealth
    # runs the DP there
    problem, bounds = tmp_path / "p.json", None
    if case == "finite":
        run("generate", "garnet", "--states", 5, "--actions", 2, "--seed", 3,
            "--horizon", 3, "--out", problem)
    elif case == "infinite":
        write_infinite_problem(problem)
        bounds = (-3.0, 0.0)
    else:
        save_problem(problem, *two_policy_ordinal_instance())
    slices = tmp_path / "slices.csv"
    extra = [] if bounds is None else ["--bounds=%s,%s" % bounds]
    assert run("solve", "--problem", problem, "--tau", 0.5, *extra,
               "--dump-slices", slices) == 0
    m, space = load_problem(problem)
    query = QuantileQuery(0.5, quantile_bounds=bounds)
    report = solve_quantile(m, space, query)
    got = read_csv(slices)[1:]
    assert got == dump_rows(value_function(m, space, query, report))
    w = report.log[0].w
    if m.horizon is None:
        _, _, vf = value_iteration(m, space, w, True)
    else:
        _, _, vf = backward_induction(m, space, w, True)
    want = dump_rows(vf)
    assert [r[:2] + r[3:4] for r in got] == [r[:2] + r[3:4] for r in want]
    for g, r in zip(got, want):
        assert (g[2] == "") == (r[2] == "")
        for a, b in zip(g[2::2], r[2::2]):    # threshold, value
            if b:
                assert abs(float(a) - float(b)) <= 1e-12, (g, r)
    if case == "ordinal":
        assert got == want
    layers = 1 if m.horizon is None else m.horizon + 1
    assert {(int(r[0]), int(r[1])) for r in want} == {
        (t, s) for t in range(layers) for s in range(m.n_states)}


def test_solve_negative_bounds_as_written(tmp_path, capsys):
    # argparse would take a separate "-3,0" for an option
    problem = tmp_path / "p.json"
    write_infinite_problem(problem)
    outputs = []
    for bounds in (["--bounds", "-3,0"], ["--bounds=-3,0"], ["--bounds", "0,3"]):
        assert run("solve", "--problem", problem, *bounds, "--tau", 0.5) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "estimate: -0.25" in outputs[0]
    assert "estimate: 0.0 (quantile at bottom of range)" in outputs[2]


def test_solve_without_convergence_exits_5(tmp_path, capsys):
    # one sweep cannot settle the slices: exit 5 with the last residual
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--seed", 1,
        "--out", problem)
    capsys.readouterr()
    assert run("solve", "--problem", problem, "--tau", 0.5, "--horizon",
               "inf", "--bounds", "0,3", "--max-sweeps", 1) == 5
    err = capsys.readouterr().err
    assert err.startswith("no convergence:")
    assert "last residual 1 > 1e-06" in err


@pytest.mark.parametrize("flag", ["--eps-conv=nan", "--eps-conv=-1",
                                  "--eps-conv=inf", "--max-sweeps=0",
                                  "--max-sweeps=-3"])
def test_solve_bad_convergence_settings_exit_2(tmp_path, capsys, flag):
    problem = tmp_path / "p.json"
    write_infinite_problem(problem)
    assert run("solve", "--problem", problem, "--tau", 0.5, "--horizon",
               "inf", "--bounds", "-3,0", flag) == 2
    assert flag[2:].split("=")[0].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--eps-conv=nan"], ["--eps-conv=-1"],
                                   ["--max-sweeps=0"],
                                   ["--eps-conv=nan", "--max-sweeps=-3"]])
def test_finite_solve_bad_convergence_settings_exit_2(tmp_path, capsys, flags):
    # a finite solve never iterates, but it still rejects the settings
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--seed", 1,
        "--horizon", 5, "--out", problem)
    capsys.readouterr()
    assert run("solve", "--problem", problem, "--tau", 0.5, *flags) == 2
    assert flags[0][2:].split("=")[0].replace("-", "_") in capsys.readouterr().err


def _write_ordinal_problem(path, table):
    path.write_text(json.dumps({
        "mdp": {"n_states": 2, "n_actions": 1,
                "transitions": [[0, 0, 1, 1.0], [1, 0, 1, 1.0]],
                "rewards": {"kind": "sa", "values": [["up"], ["down"]]},
                "initial_state": 0, "horizon": 2},
        "wealth_space": {"kind": "ordinal", "classes": ["a", "b"],
                         "transition_table": table}}))


def test_ordinal_table_checked_against_reward_labels(tmp_path, capsys):
    problem = tmp_path / "p.json"
    table = {"a": {"up": "b", "down": "a"}, "b": {"up": "b", "down": "a"}}
    _write_ordinal_problem(problem, table)
    assert run("solve", "--problem", problem, "--tau", 0.5) == 0
    capsys.readouterr()
    del table["a"]["down"]
    _write_ordinal_problem(problem, table)
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    err = capsys.readouterr().err
    assert "validation error" in err and "'a'" in err and "'down'" in err
    table["a"]["down"] = "c"
    _write_ordinal_problem(problem, table)
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    assert "'c'" in capsys.readouterr().err
    policy = tmp_path / "pol.json"
    policy.write_text(json.dumps(
        [{"t": t, "s": s, "intervals": [{"from": None, "inclusive_from": True,
                                         "action": 0}]}
         for t in range(2) for s in range(2)]))
    assert run("eval", "--problem", problem, "--policy", policy) == 3


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    problem = {
        "mdp": {"n_states": 2, "n_actions": 1,
                "transitions": [[0, 0, 0, 0.5], [0, 0, 1, 0.4],
                                [1, 0, 1, 1.0]],
                "rewards": {"kind": "sa", "values": [[0.0], [0.0]]},
                "initial_state": 0, "horizon": 2},
        "wealth_space": {"kind": "additive"},
    }
    bad.write_text(json.dumps(problem))
    assert run("solve", "--problem", bad, "--tau", 0.5) == 3
    policy = tmp_path / "pol.json"
    policy.write_text(json.dumps(
        [{"t": t, "s": s, "intervals": [{"from": None, "inclusive_from": True,
                                         "action": 0}]}
         for t in range(2) for s in range(2)]))
    assert run("eval", "--problem", bad, "--policy", policy) == 3


def test_nan_probability_exit_code(tmp_path, capsys):
    problem = tmp_path / "p.json"
    assert run("generate", "garnet", "--states", 4, "--actions", 2,
               "--seed", 1, "--out", problem) == 0
    payload = json.loads(problem.read_text())
    payload["mdp"]["transitions"][0][3] = float("nan")
    problem.write_text(json.dumps(payload))
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    assert "probability is NaN" in capsys.readouterr().err


@pytest.mark.parametrize("s, a", [(0, 0), (3, 1)])
def test_nan_reward_exit_code(tmp_path, capsys, s, a):
    # a NaN reward is a validation error at the first edge as at any other
    problem = tmp_path / "p.json"
    assert run("generate", "garnet", "--states", 4, "--actions", 2,
               "--seed", 1, "--out", problem) == 0
    payload = json.loads(problem.read_text())
    payload["mdp"]["rewards"]["values"][s][a] = float("nan")
    problem.write_text(json.dumps(payload))
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    assert "non-finite reward nan" in capsys.readouterr().err


def test_generate_datacenter_large_rate(tmp_path):
    out = tmp_path / "dc.json"
    assert run("generate", "datacenter", "--servers", 1, "--lambdas",
               "1,2,800", "--out", out) == 0
    assert "NaN" not in out.read_text()
    m, _ = load_problem(out)
    assert validate(m) == []


@pytest.mark.parametrize("generator, flags", [
    ("garnet", ["--states", 4, "--reward-low", "nan"]),
    ("garnet", ["--states", 4, "--reward-high", "inf"]),
    ("datacenter", ["--servers", 2, "--lambdas", "1,nan,3"]),
    ("datacenter", ["--servers", 2, "--lambdas", "1,inf,3"]),
    ("datacenter", ["--servers", 2, "--beta", "inf"])])
def test_generate_non_finite_setting_exit_2(tmp_path, capsys, generator, flags):
    out = tmp_path / "p.json"
    assert run("generate", generator, *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
def test_solve_epsilon_not_finite_positive_exit_2(tmp_path, capsys, epsilon):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 5, "--actions", 2, "--branching", 2,
        "--horizon", 2, "--out", problem)
    capsys.readouterr()
    assert run("solve", "--problem", problem, "--tau", 0.1,
               f"--epsilon={epsilon}") == 2
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("generator, flags, message", [
    ("garnet", ["--states", 4, "--horizon", 0], "horizon must be positive"),
    ("garnet", ["--states", 4, "--horizon", -3], "horizon must be positive"),
    ("datacenter", ["--servers", 2, "--horizon", 0], "horizon must be positive"),
    ("datacenter", ["--servers", 2, "--horizon", -1], "horizon must be positive"),
    ("garnet", ["--states", 4, "--branching", 0], "branching must be in [1,"),
    ("garnet", ["--states", 4, "--branching", 9], "branching must be in [1,")])
def test_generate_bad_horizon_or_branching_exit_2(tmp_path, capsys, generator,
                                                  flags, message):
    # a horizon below 1 used to write a problem every later command rejects
    # (or fail on the wealth range it gave), and --branching 0 to take the
    # default branching, each exiting 0
    out = tmp_path / "p.json"
    assert run("generate", generator, *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("horizon", [0, -2])
def test_solve_horizon_below_one_is_a_validation_error(tmp_path, capsys,
                                                       horizon):
    # -2 used to fail on the wealth range it gives, "w_min 21.0 > w_max 1.0"
    problem = tmp_path / "p.json"
    run("generate", "datacenter", "--servers", 2, "--out", problem)
    capsys.readouterr()
    assert run("solve", "--problem", problem, "--tau", 0.5,
               "--horizon", horizon) == 3
    err = capsys.readouterr().err
    assert f"horizon must be positive or None, got {horizon}" in err


@pytest.mark.parametrize("flag, value", [
    ("--atom-cap", 0), ("--atom-cap", -1), ("--mc-episodes", 0),
    ("--mc-episodes", -4)])
def test_eval_limits_below_one_are_usage_errors(tmp_path, capsys, flag, value):
    # an atom cap below 1 used to switch to Monte Carlo at once, and a
    # negative episode count went unread whenever exact evaluation worked
    problem, policy = tmp_path / "p.json", tmp_path / "pol.json"
    run("generate", "garnet", "--states", 4, "--actions", 2, "--seed", 1,
        "--out", problem)
    run("solve", "--problem", problem, "--tau", 0.5, "--out", policy)
    summary = tmp_path / "s.json"
    capsys.readouterr()
    assert run("eval", "--problem", problem, "--policy", policy,
               "--summary", summary, flag, value) == 2
    out, err = capsys.readouterr()
    assert f"{flag} must be at least 1, got {value}" in err
    assert out == "" and not summary.exists()
    # raised before anything loads
    assert run("eval", "--problem", tmp_path / "missing.json", "--policy",
               policy, flag, value) == 2


def test_generate_datacenter_above_the_edge_cap(tmp_path, capsys):
    out = tmp_path / "dc.json"
    assert run("generate", "datacenter", "--servers", 100, "--out", out) == 2
    assert "cap" in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_no_scipy():
    code = ("import sys, qmdp, qmdp.cli; "
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    src = Path(qmdp.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _write_problem(path, transitions, rewards, n_actions=2):
    path.write_text(json.dumps({
        "mdp": {"n_states": 2, "n_actions": n_actions,
                "transitions": transitions, "rewards": rewards,
                "initial_state": 0, "horizon": 2},
        "wealth_space": {"kind": "additive"}}))


def test_sas_rewards_one_short_exit_code(tmp_path, capsys):
    problem = tmp_path / "p.json"
    rows = [[s, a, 1, 1.0] for s in range(2) for a in range(2)]
    _write_problem(problem, rows, {"kind": "sas", "values": [1.0, 0.0, 0.5]})
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    err = capsys.readouterr().err
    assert "4 values" in err and "got 3" in err


def test_sa_rewards_wrong_shape_exit_code(tmp_path, capsys):
    problem = tmp_path / "p.json"
    rows = [[s, a, 1, 1.0] for s in range(2) for a in range(2)]
    _write_problem(problem, rows, {"kind": "sa", "values": [[1.0], [0.0]]})
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    assert "2 x 2" in capsys.readouterr().err


@pytest.mark.parametrize("row,shown", [
    ([0, 0, 1], "[0, 0, 1]"),                   # a field short
    ([0, 0, 1, "half"], "'half'"),              # a non-numeric probability
    ([1, 1, 1.6, 1.0], "1.6"),                  # a fractional successor
    ([2, 0, 1, 1.0], "[2, 0, 1, 1.0]"),         # an origin state outside
])
def test_malformed_transition_row_exit_code(tmp_path, capsys, row, shown):
    problem = tmp_path / "p.json"
    rows = [[s, a, 1, 1.0] for s in range(2) for a in range(2)]
    rows[3] = row
    _write_problem(problem, rows, {"kind": "sa", "values": [[1.0, 0.0],
                                                            [0.5, 0.0]]})
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    err = capsys.readouterr().err
    assert "transition row 3" in err and shown in err


def test_eval_csv_monotone(tmp_path):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--seed", 5,
        "--out", problem)
    policy = tmp_path / "pol.json"
    run("solve", "--problem", problem, "--tau", 0.3, "--out", policy)
    dist = tmp_path / "dist.csv"
    summary = tmp_path / "summary.json"
    assert run("eval", "--problem", problem, "--policy", policy,
               "--out", dist, "--summary", summary,
               "--taus", "0.1,0.5,0.9") == 0
    rows = read_csv(dist)
    assert rows[0] == ["wealth", "probability", "F", "G"]
    F = [float(r[2]) for r in rows[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(F, F[1:]))
    assert F[-1] == pytest.approx(1.0, abs=1e-9)
    data = json.loads(summary.read_text())
    assert data["mode"] == "exact"
    assert "mean" in data and "0.5" in data["quantiles"]


def test_eval_point_mass_single_row(tmp_path):
    problem = tmp_path / "p.json"
    d = {
        "mdp": {"n_states": 2, "n_actions": 1,
                "transitions": [[0, 0, 1, 1.0], [1, 0, 1, 1.0]],
                "rewards": {"kind": "sa", "values": [[1.0], [-1.0]]},
                "initial_state": 0, "horizon": 2},
        "wealth_space": {"kind": "additive"},
    }
    problem.write_text(json.dumps(d))
    policy = tmp_path / "pol.json"
    run("solve", "--problem", problem, "--tau", 0.5, "--out", policy)
    dist = tmp_path / "dist.csv"
    assert run("eval", "--problem", problem, "--policy", policy,
               "--out", dist) == 0
    assert len(read_csv(dist)) == 2    # header + single atom


def test_eval_monte_carlo_fallback(tmp_path):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--seed", 5,
        "--out", problem)
    policy = tmp_path / "pol.json"
    run("solve", "--problem", problem, "--tau", 0.3, "--out", policy)
    summary = tmp_path / "summary.json"
    assert run("eval", "--problem", problem, "--policy", policy,
               "--summary", summary, "--atom-cap", 2,
               "--mc-episodes", 2000, "--seed", 1) == 0
    data = json.loads(summary.read_text())
    assert data["mode"] == "monte-carlo"
    assert data["episodes"] == 2000


def test_eval_mismatched_policy(tmp_path):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 4, "--actions", 2, "--seed", 1,
        "--out", problem)
    big = tmp_path / "big.json"
    run("generate", "garnet", "--states", 9, "--actions", 2, "--seed", 1,
        "--out", big)
    policy = tmp_path / "pol.json"
    run("solve", "--problem", big, "--tau", 0.5, "--out", policy)
    assert run("eval", "--problem", problem, "--policy", policy) == 2


def test_problem_missing_key_exit_code(tmp_path, capsys):
    problem = tmp_path / "p.json"
    d = {
        "mdp": {"n_states": 2, "n_actions": 1,
                "transitions": [[0, 0, 1, 1.0], [1, 0, 1, 1.0]],
                "rewards": {"kind": "sa", "values": [[1.0], [0.0]]},
                "initial_state": 0},
        "wealth_space": {"kind": "additive"},
    }
    problem.write_text(json.dumps(d))
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    assert "horizon" in capsys.readouterr().err
    d["mdp"]["horizon"] = 2
    del d["mdp"]["rewards"]["kind"]
    problem.write_text(json.dumps(d))
    assert run("solve", "--problem", problem, "--tau", 0.5) == 3
    assert "kind" in capsys.readouterr().err


def _solved_policy(tmp_path):
    """A problem with 2 actions and horizon 5, and a policy solved for it."""
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 4, "--actions", 2, "--seed", 1,
        "--out", problem)
    policy = tmp_path / "pol.json"
    run("solve", "--problem", problem, "--tau", 0.5, "--out", policy)
    return problem, policy, json.loads(policy.read_text())


def test_eval_policy_without_intervals(tmp_path, capsys):
    problem, policy, payload = _solved_policy(tmp_path)
    del payload[3]["intervals"]
    policy.write_text(json.dumps(payload))
    assert run("eval", "--problem", problem, "--policy", policy) == 2
    assert "intervals" in capsys.readouterr().err


def test_eval_policy_action_out_of_range(tmp_path, capsys):
    problem, policy, payload = _solved_policy(tmp_path)
    payload[0]["intervals"][0]["action"] = 2
    policy.write_text(json.dumps(payload))
    assert run("eval", "--problem", problem, "--policy", policy) == 2
    assert "action 2" in capsys.readouterr().err


def test_eval_policy_fractional_action(tmp_path, capsys):
    problem, policy, payload = _solved_policy(tmp_path)
    payload[0]["intervals"][0]["action"] = 0.7
    policy.write_text(json.dumps(payload))
    assert run("eval", "--problem", problem, "--policy", policy) == 2
    assert "0.7" in capsys.readouterr().err


def test_eval_policy_shorter_than_horizon(tmp_path, capsys):
    problem, policy, payload = _solved_policy(tmp_path)
    policy.write_text(json.dumps([e for e in payload if e["t"] < 3]))
    assert run("eval", "--problem", problem, "--policy", policy) == 2
    assert "3 steps" in capsys.readouterr().err


def test_dist_alias(tmp_path):
    problem = tmp_path / "p.json"
    run("generate", "garnet", "--states", 4, "--actions", 2, "--seed", 1,
        "--out", problem)
    policy = tmp_path / "pol.json"
    run("solve", "--problem", problem, "--tau", 0.5, "--out", policy)
    out = tmp_path / "d.csv"
    assert run("dist", "--problem", problem, "--policy", policy,
               "--out", out) == 0
    assert out.exists()


def test_oracle_check_passes():
    assert run("oracle-check", "--instances", 2, "--taus", "0.5",
               "--seed", 0) == 0


@pytest.mark.parametrize("argv, message", [
    (("--instances", 0), "--instances: 0 checks no instance"),
    (("--instances", -3), "--instances: -3 checks no instance"),
    (("--taus", ","), "--taus: ',' lists no tau"),
    (("--taus", ""), "--taus: '' lists no tau"),
])
def test_an_oracle_check_of_nothing_is_a_usage_error(capsys, argv, message):
    # it used to print "all 0 instances agree" (or run no query) and exit 0
    capsys.readouterr()
    assert run("oracle-check", *argv) == 2
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    assert out == ""    # raised before any instance is built


@pytest.mark.parametrize("tau", ["nan", "1.5", "-0.2"])
@pytest.mark.parametrize("command", ["eval", "oracle-check"])
def test_a_tau_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys,
                                                          command, tau):
    # such a tau used to check nothing: oracle-check skipped it and reported
    # agreement, eval wrote null for both of its quantiles, both exiting 0
    summary = tmp_path / "s.json"
    if command == "eval":
        problem, policy = tmp_path / "p.json", tmp_path / "pol.json"
        run("generate", "garnet", "--states", 4, "--actions", 2, "--seed", 1,
            "--out", problem)
        run("solve", "--problem", problem, "--tau", 0.5, "--out", policy)
        argv = ("eval", "--problem", problem, "--policy", policy,
                "--taus", f"0.5,{tau}", "--summary", summary)
    else:
        argv = ("oracle-check", "--instances", 1, "--taus", tau)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"tau {tau} " in err and "Traceback" not in err
    assert not summary.exists()


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("QMDP_SEED", "123")
    a = tmp_path / "a.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--out", a)
    b = tmp_path / "b.json"
    run("generate", "garnet", "--states", 6, "--actions", 2, "--seed", 123,
        "--out", b)
    assert a.read_bytes() == b.read_bytes()
