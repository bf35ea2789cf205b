"""Fuzz the file boundary: malformed problem and policy files.

Each example starts from a small valid problem ("sa" rewards on additive
wealth, or "sas" labels on ordinal wealth) and a policy solved for it,
breaks one to three things in the problem or in the policy (drops a key
or an element, swaps a value for one of another type, NaN, or a negative
or huge index, grows or shrinks a list), writes both files and runs
``qmdp solve`` and ``qmdp eval`` on them.  Whatever the damage, the CLI
must answer with an exit code that README documents; an exception that
escapes ``main`` fails the test.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qmdp import QuantileQuery, policy_to_payload, problem_from_dict, solve_quantile
from qmdp.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

SA_ADDITIVE = {
    "mdp": {"n_states": 2, "n_actions": 2,
            "transitions": [[0, 0, 0, 0.5], [0, 0, 1, 0.5], [0, 1, 1, 1.0],
                            [1, 0, 0, 1.0], [1, 1, 1, 1.0]],
            "rewards": {"kind": "sa", "values": [[1.0, 0.5], [0.0, 2.0]]},
            "initial_state": 0, "horizon": 2},
    "wealth_space": {"kind": "additive"},
}

SAS_ORDINAL = {
    "mdp": {"n_states": 2, "n_actions": 2,
            "transitions": [[0, 0, 0, 0.5], [0, 0, 1, 0.5], [0, 1, 1, 1.0],
                            [1, 0, 1, 1.0], [1, 1, 0, 1.0]],
            "rewards": {"kind": "sas",
                        "values": ["up", "down", "up", "down", "up"]},
            "initial_state": 0, "horizon": 2},
    "wealth_space": {"kind": "ordinal", "classes": ["a", "b", "c"],
                     "transition_table": {
                         "a": {"up": "b", "down": "a"},
                         "b": {"up": "c", "down": "a"},
                         "c": {"up": "c", "down": "b"}},
                     "w0": "b"},
}

BASES = {"sa-additive": SA_ADDITIVE, "sas-ordinal": SAS_ORDINAL}

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(),
    st.text(max_size=2), st.builds(list), st.builds(dict),
    st.lists(st.integers(-1, 2), max_size=4))
HUGE_OR_NEGATIVE = st.sampled_from([-1, -7, 2**31, 2**63, 10**8, 10**400])


def _policy_for(problem):
    m, space = problem_from_dict(copy.deepcopy(problem))
    report = solve_quantile(m, space, QuantileQuery(tau=0.5, epsilon=1.0))
    return policy_to_payload(report.policy, space)


POLICIES = {name: _policy_for(base) for name, base in BASES.items()}


def _mutate(data, doc):
    """Break one spot of the JSON document ``doc`` in place."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.integers(0, 3))):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return
    op = data.draw(st.sampled_from(["drop", "swap", "grow", "shrink"]))
    if op == "drop":
        del parent[key]
    elif op == "swap":
        index_like = isinstance(node, int) and not isinstance(node, bool)
        parent[key] = data.draw(
            st.one_of(SCALARS, HUGE_OR_NEGATIVE) if index_like else SCALARS)
    elif isinstance(node, list) and op == "grow":
        extra = copy.deepcopy(node[0]) if node else data.draw(SCALARS)
        node.append(extra)
    elif isinstance(node, list) and node:
        node.pop()


def _run_both(tmp_path, problem, policy):
    problem_path = tmp_path / "problem.json"
    policy_path = tmp_path / "policy.json"
    problem_path.write_text(json.dumps(problem))
    policy_path.write_text(json.dumps(policy))
    codes = (main(["solve", "--problem", str(problem_path), "--tau", "0.5"]),
             main(["eval", "--problem", str(problem_path),
                   "--policy", str(policy_path)]))
    assert set(codes) <= DOCUMENTED_EXIT_CODES, codes


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(BASES))
@FUZZ
@given(data=st.data())
def test_malformed_problem_file(tmp_path, name, data):
    problem = copy.deepcopy(BASES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, problem)
    _run_both(tmp_path, problem, POLICIES[name])


@pytest.mark.parametrize("name", sorted(BASES))
@FUZZ
@given(data=st.data())
def test_malformed_policy_file(tmp_path, name, data):
    policy = copy.deepcopy(POLICIES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, policy)
    _run_both(tmp_path, BASES[name], policy)


@pytest.mark.parametrize("name", sorted(BASES))
def test_unbroken_files_solve_and_evaluate(tmp_path, name, capsys):
    _run_both(tmp_path, BASES[name], POLICIES[name])
    assert "validation error" not in capsys.readouterr().err


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# Each of these escaped main as a traceback, or (huge counts) allocated
# without bound, before the parsing boundary checked it.
@pytest.mark.parametrize("name,path,value,code", [
    ("sa-additive", ["mdp"], 0.5, 3),
    ("sa-additive", ["wealth_space"], [], 3),
    ("sa-additive", ["mdp", "n_states"], None, 3),
    ("sa-additive", ["mdp", "n_states"], 2**31, 3),
    ("sa-additive", ["mdp", "horizon"], float("inf"), 3),
    ("sa-additive", ["mdp", "transitions"], 0.0, 3),
    ("sa-additive", ["mdp", "transitions", 0, 2], 2**63, 3),
    ("sa-additive", ["mdp", "transitions", 0, 3], 10**400, 3),
    ("sa-additive", ["mdp", "rewards", "values", 0, 0], 10**400, 3),
    ("sa-additive", ["wealth_space"], {"kind": "discounted", "gamma": "x"}, 2),
    ("sas-ordinal", ["wealth_space", "classes"], [["a"]], 2),
    ("sas-ordinal", ["wealth_space", "w0"], [], 2),
    ("sas-ordinal", ["wealth_space", "transition_table"], [], 2),
    ("sa-additive", ["mdp", "horizon"], 2**63, 3),
    ("sas-ordinal", ["mdp", "horizon"], 10**8, 3),
])
def test_found_problem_tracebacks(tmp_path, name, path, value, code):
    problem = copy.deepcopy(BASES[name])
    _set(problem, path, value)
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(problem))
    assert main(["solve", "--problem", str(problem_path), "--tau", "0.5"]) == code


# A path that starts here indexes the first policy entry whose rule has a
# cut: which (t, s) that is depends on the solve.
FIRST_CUT = "first entry with a cut"


@pytest.mark.parametrize("name,path,value", [
    ("sa-additive", [0], 3),
    ("sa-additive", [0, "t"], 10**9),
    ("sa-additive", [0, "t"], -1),
    ("sa-additive", [0, "s"], "0"),
    ("sa-additive", [0, "intervals"], 3),
    ("sa-additive", [0, "intervals", 1, "from"], 10**400),
    ("sa-additive", [0, "intervals", 1, "from"], float("nan")),
    ("sa-additive", [0, "intervals", 0, "action"], 2**63),
    ("sas-ordinal", [FIRST_CUT, "intervals", 1, "from"], [1]),
    ("sa-additive", [0, "intervals", 1, "from"], "0.5"),
    ("sa-additive", [0, "intervals", 1, "from"], True),
    # these two loaded as a constant action-0 rule
    ("sa-additive", [0, "intervals"], ""),
    ("sa-additive", [0, "intervals"], {}),
])
def test_found_policy_tracebacks(tmp_path, name, path, value):
    policy = copy.deepcopy(POLICIES[name])
    if path[0] == FIRST_CUT:
        path = [next(i for i, entry in enumerate(policy)
                     if len(entry["intervals"]) > 1), *path[1:]]
    _set(policy, path, value)
    problem_path = tmp_path / "problem.json"
    policy_path = tmp_path / "policy.json"
    problem_path.write_text(json.dumps(BASES[name]))
    policy_path.write_text(json.dumps(policy))
    assert main(["eval", "--problem", str(problem_path),
                 "--policy", str(policy_path)]) == 2


def test_bool_is_not_an_integer_class(tmp_path, monkeypatch, capsys):
    # on integer class labels a dict lookup would read true as class 1.  A
    # problem file's table is keyed by strings, so the integer-class
    # problem is built here and handed to the CLI in place of the file's
    from qmdp import Mdp, OrdinalWealth, cli
    table = {0: {"up": 1, "down": 0}, 1: {"up": 2, "down": 0},
             2: {"up": 2, "down": 1}}
    space = OrdinalWealth([0, 1, 2], table, w0=1)
    m = Mdp(2, 2, [[[(0, 0.5), (1, 0.5)], [(1, 1.0)]],
                   [[(1, 1.0)], [(0, 1.0)]]],
            {"kind": "sas", "values": [[["up", "down"], ["up"]],
                                       [["down"], ["up"]]]}, 0, 2)
    monkeypatch.setattr(cli, "load_problem", lambda path: (m, space))
    report = solve_quantile(m, space, QuantileQuery(tau=0.5, epsilon=1.0))
    policy = policy_to_payload(report.policy, space)
    policy[0]["intervals"].append(
        dict(policy[0]["intervals"][-1], **{"from": 2}))
    policy_path = tmp_path / "policy.json"
    args = ["eval", "--problem", "unused.json", "--policy", str(policy_path)]
    policy_path.write_text(json.dumps(policy))
    assert main(args) == 0
    policy[0]["intervals"][-1]["from"] = True
    policy_path.write_text(json.dumps(policy))
    assert main(args) == 2
    assert "Traceback" not in capsys.readouterr().err
