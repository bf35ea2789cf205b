import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmdp import (AdditiveWealth, ConfigurationError, DiscountedWealth,
                  GarnetConfig, Mdp, OrdinalWealth, QuantileQuery,
                  StepFunction, WealthMarkovPolicy, exact_distribution,
                  generate_garnet, load_policy, load_problem,
                  policy_from_payload, policy_to_payload,
                  problem_to_dict, save_policy, save_problem, solve_quantile)
from qmdp.wealth import WEALTH_TOL
from conftest import two_policy_ordinal_instance, two_state_discounted_mdp


def test_problem_round_trip_exact(tmp_path):
    m = generate_garnet(GarnetConfig(8, 3, 3, seed=2), horizon=4)
    space = AdditiveWealth.for_mdp(m)
    path = tmp_path / "p.json"
    save_problem(path, m, space)
    m2, space2 = load_problem(path)
    assert problem_to_dict(m, space) == problem_to_dict(m2, space2)
    assert (space2.w_min, space2.w_max) == (space.w_min, space.w_max)
    path2 = tmp_path / "p2.json"
    save_problem(path2, m2, space2)
    assert path.read_bytes() == path2.read_bytes()


def test_problem_round_trip_sas_discounted(tmp_path):
    m = two_state_discounted_mdp()
    space = DiscountedWealth.for_mdp(m, 0.9)
    path = tmp_path / "p.json"
    save_problem(path, m, space)
    m2, space2 = load_problem(path)
    assert m2.reward_kind == "sas"
    assert m2.edge_rewards(0, 0) == [1.0, -1.0]
    assert space2.gamma == 0.9
    assert space2.w_max == space.w_max


def test_problem_round_trip_ordinal(tmp_path):
    m, space = two_policy_ordinal_instance()
    path = tmp_path / "p.json"
    save_problem(path, m, space)
    m2, space2 = load_problem(path)
    assert space2.classes == ["w1", "w2", "w3"]
    assert m2.edge_rewards(0, 1) == ["to_w2", "to_w3"]
    assert space2.accumulate("w1", "to_w2") == "w2"
    # string classes and labels re-save to the same bytes
    save_problem(tmp_path / "p2.json", m2, space2)
    assert path.read_bytes() == (tmp_path / "p2.json").read_bytes()


@pytest.mark.parametrize("case", ["int classes", "int reward labels"])
def test_a_problem_file_that_would_not_load_is_not_written(tmp_path, case):
    # JSON object keys are strings: a table keyed by int classes or labels
    # would come back keyed by "0", "1", ... and fail to load
    classes, labels = ([0, 1, 2], ["up", "stay"]) if case == "int classes" \
        else (["w1", "w2", "w3"], [1, 0])
    table = {c: {labels[0]: classes[min(i + 1, 2)], labels[1]: c}
             for i, c in enumerate(classes)}
    m = Mdp(1, 2, [[[(0, 1.0)], [(0, 1.0)]]],
            {"kind": "sa", "values": [labels]}, 0, 2)
    path = tmp_path / "p.json"
    with pytest.raises(ConfigurationError, match="strings"):
        save_problem(path, m, OrdinalWealth(classes, table))
    assert list(tmp_path.iterdir()) == []


def test_infinite_horizon_round_trip(tmp_path):
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=0), horizon=None)
    space = AdditiveWealth.for_mdp(m)
    path = tmp_path / "p.json"
    save_problem(path, m, space)
    m2, _ = load_problem(path)
    assert m2.horizon is None
    assert json.loads(path.read_text())["mdp"]["horizon"] == "infinite"


def test_policy_round_trip(tmp_path):
    m = generate_garnet(GarnetConfig(5, 3, 2, seed=6), horizon=3)
    space = AdditiveWealth.for_mdp(m)
    report = solve_quantile(m, space, QuantileQuery(tau=0.4, criterion="upper",
                                                    epsilon=1e-4))
    path = tmp_path / "pol.json"
    save_policy(path, report.policy, space)
    loaded = load_policy(path, space, m.n_states)
    d1 = exact_distribution(m, space, report.policy)
    d2 = exact_distribution(m, space, loaded)
    assert d1.support == d2.support


def test_stationary_policy_payload_omits_t():
    m, = [two_state_discounted_mdp(horizon=None)]
    pol = WealthMarkovPolicy.from_markov([1, 0], stationary=True)
    space = AdditiveWealth(-5, 5)
    payload = policy_to_payload(pol, space)
    assert all("t" not in entry for entry in payload)
    loaded = policy_from_payload(payload, space, 2)
    assert loaded.stationary
    assert loaded.action(7, 0, 0.0) == 1    # t is ignored


@pytest.mark.parametrize("first_stationary", [True, False])
def test_policy_entries_agree_with_the_first_on_t(first_stationary):
    # a stationary entry before per-step ones, or after them: either way
    # the file mixes two kinds of policy and loads as neither
    space = AdditiveWealth(-5, 5)
    stationary = {"s": 0, "intervals": [
        {"from": None, "inclusive_from": True, "action": 0}]}
    steps = [_entry(2, 0, 1), _entry(0, 1, 1)]
    payload = [stationary] + steps if first_stationary else steps + [stationary]
    with pytest.raises(ConfigurationError, match="'t'"):
        policy_from_payload(payload, space, 2)


def test_policy_payload_state_mismatch():
    space = AdditiveWealth(-1, 1)
    payload = [{"t": 0, "s": 5, "intervals": [
        {"from": None, "inclusive_from": True, "action": 0}]}]
    with pytest.raises(ConfigurationError):
        policy_from_payload(payload, space, 2)


def test_ordinal_policy_payload_uses_labels(tmp_path):
    m, space = two_policy_ordinal_instance()
    report = solve_quantile(m, space, QuantileQuery(tau=0.5, criterion="lower",
                                                    epsilon=1.0))
    payload = policy_to_payload(report.policy, space)
    froms = {item["from"] for entry in payload for item in entry["intervals"]}
    assert froms <= {None, "w1", "w2", "w3"}
    loaded = policy_from_payload(payload, space, m.n_states)
    assert exact_distribution(m, space, loaded).support == \
        exact_distribution(m, space, report.policy).support


def test_atomic_write_leaves_no_temp(tmp_path):
    from qmdp.serialize import atomic_write_text
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello")
    assert path.read_text() == "hello"
    atomic_write_text(path, "world")
    assert path.read_text() == "world"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# -- the policy table ---------------------------------------------------------

def _entry(t, s, base, cuts=()):
    intervals = [{"from": None, "inclusive_from": True, "action": base}]
    intervals += [{"from": frm, "inclusive_from": inc, "action": a}
                  for frm, inc, a in cuts]
    return {"t": t, "s": s, "intervals": intervals}


def test_repeated_entry_last_copy_wins():
    space = AdditiveWealth(-5, 5)
    payload = [_entry(0, 0, 1, [(0.5, True, 2)]), _entry(0, 1, 1),
               _entry(0, 0, 0, [(1.0, False, 2)])]
    policy = policy_from_payload(payload, space, 2)
    assert policy.rule(0, 0).intervals() == [(None, True, 0), (1.0, False, 2)]
    assert policy.rule(0, 1).intervals() == [(None, True, 1)]
    # the file keeps one entry per (t, s): the last copy's
    assert policy_to_payload(policy, space) == payload[1:][::-1]


def test_replaced_entry_is_still_checked():
    space = AdditiveWealth(-5, 5)
    payload = [_entry(0, 0, 2**63), _entry(0, 0, 1)]
    with pytest.raises(ConfigurationError, match="int64"):
        policy_from_payload(payload, space, 1)


def test_missing_entry_takes_action_zero():
    space = AdditiveWealth(-5, 5)
    payload = [_entry(1, 1, 1, [(0.0, True, 2)]), _entry(1, 0, 2)]
    policy = policy_from_payload(payload, space, 2)
    assert policy.steps == 2
    for s in range(2):
        assert policy.rule(0, s).intervals() == [(None, True, 0)]
        assert policy.action(0, s, 3.0) == 0
    assert policy.rule(1, 1).intervals() == [(None, True, 1), (0.0, True, 2)]
    assert policy.rule(1, 0).intervals() == [(None, True, 2)]


def test_cuts_at_infinity_load_without_warnings():
    # two cuts at Infinity in one rule are 0 apart: one run, no inf - inf
    payload = json.loads(
        '[{"t": 0, "s": 0, "intervals": ['
        '{"from": null, "inclusive_from": true, "action": 0}, '
        '{"from": Infinity, "inclusive_from": true, "action": 1}, '
        '{"from": Infinity, "inclusive_from": true, "action": 2}, '
        '{"from": -Infinity, "inclusive_from": false, "action": 3}]}]')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        policy = policy_from_payload(payload, AdditiveWealth(), 1)
    assert policy.rule(0, 0).intervals() == [
        (None, True, 0), (-float("inf"), False, 3), (float("inf"), True, 2)]


# thresholds on a coarse grid, some moved by less than WEALTH_TOL
FROMS = st.builds(lambda x, nudge: x + nudge * WEALTH_TOL / 3,
                  st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                  st.integers(-4, 4))
INTERVAL = st.tuples(st.one_of(st.none(), FROMS), st.booleans(),
                     st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_loaded_rules_equal_the_step_function_constructor(data):
    # interval lists out of order, with repeated "from" values, cuts within
    # WEALTH_TOL of each other and null "from" anywhere in the list
    space = AdditiveWealth()
    S, T = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    payload, want = [], {}
    for t in range(T):
        for s in range(S):
            items = data.draw(st.lists(INTERVAL, max_size=6))
            payload.append({"t": t, "s": s, "intervals": [
                {"from": frm, "inclusive_from": inc, "action": a}
                for frm, inc, a in items]})
            base = ([a for frm, _, a in items if frm is None] or [0])[-1]
            cuts = [item for item in items if item[0] is not None]
            want[t, s] = StepFunction(base, [c[0] for c in cuts],
                                      [c[1] for c in cuts], [c[2] for c in cuts])
    payload = data.draw(st.permutations(payload))
    policy = policy_from_payload(payload, space, S)
    for (t, s), f in want.items():
        got = policy.rule(t, s)
        assert type(got.base) is int and got.base == f.base
        for a, b in ((got.x, f.x), (got.e, f.e), (got.v, f.v)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}, 0.0])
def test_inclusive_from_is_a_bool(flag):
    # bool() used to read "false" as an inclusive cut, 0, null and [] as
    # exclusive ones
    space = AdditiveWealth(-5, 5)
    payload = [_entry(0, 0, 1, [(0.5, flag, 2)])]
    with pytest.raises(ConfigurationError, match="inclusive_from"):
        policy_from_payload(payload, space, 1)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_inclusive_from_takes_python_and_numpy_bools(flag):
    policy = policy_from_payload([_entry(0, 0, 1, [(0.5, flag, 2)])],
                                 AdditiveWealth(-5, 5), 1)
    assert policy.rule(0, 0).intervals() == [(None, True, 1), (0.5, bool(flag), 2)]


# -- the policy encoder -------------------------------------------------------

def _reference_payload(policy, space):
    """The policy file's entry list, one dict per interval."""
    c, S = policy.table, policy.n_states
    froms = [space.unkey(k) for k in c.x.tolist()]
    inclusive = (c.e == 0).tolist()
    actions = c.v.tolist()
    cuts = c.off.tolist()
    entries = []
    for i, (base, j, k) in enumerate(zip(c.base.tolist(), cuts, cuts[1:])):
        intervals = [{"from": None, "inclusive_from": True, "action": base}]
        intervals.extend({"from": f, "inclusive_from": inc, "action": a}
                         for f, inc, a in zip(froms[j:k], inclusive[j:k],
                                              actions[j:k]))
        t, s = divmod(i, S)
        entries.append({"s": s, "intervals": intervals} if policy.stationary
                       else {"t": t, "s": s, "intervals": intervals})
    return entries


NUMERIC_KEYS = st.one_of(
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                     -1e300, 0.1, 1 / 3, 1e16, 1e-7]),
    st.floats(allow_nan=False))
# labels needing JSON escapes, and labels only a space held in memory has
LABELS = st.one_of(
    st.text(alphabet=st.sampled_from('a"\\\n\t\x00\x1f\x7fé€\U0001f600 '),
            max_size=4),
    st.text(max_size=3), st.integers(-10**20, 10**20), st.none(),
    st.floats(allow_nan=False))


@st.composite
def _spaces_and_keys(draw):
    kind = draw(st.sampled_from(["additive", "discounted", "ordinal"]))
    if kind == "additive":
        return AdditiveWealth(), NUMERIC_KEYS
    if kind == "discounted":
        return DiscountedWealth(0.9), NUMERIC_KEYS
    # distinct as a dict sees them: 1 and 1.0 are one class
    classes = list(dict.fromkeys(draw(st.lists(LABELS, min_size=1,
                                               max_size=6))))
    return OrdinalWealth(classes), st.integers(
        0, len(classes) - 1).map(float)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_written_file_is_json_dumps_of_the_reference_payload(
        tmp_path_factory, data):
    space, keys = data.draw(_spaces_and_keys())
    stationary = data.draw(st.booleans())
    S = data.draw(st.integers(1, 3))
    n = S * (1 if stationary else data.draw(st.integers(1, 3)))
    base = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n,
                              max_size=n))
    # rules with no cuts, and keys repeated across rules
    cuts = data.draw(st.lists(st.tuples(st.integers(0, n - 1), keys,
                                        st.booleans(), st.integers(0, 5)),
                              max_size=12))
    seg, x, inclusive, actions = (list(col) for col in zip(*cuts)) \
        if cuts else ([], [], [], [])
    policy = WealthMarkovPolicy.from_cuts(
        np.array(base, dtype=np.int64), np.array(seg, dtype=np.intp),
        np.array(x, dtype=np.float64), np.array(inclusive, dtype=bool),
        np.array(actions, dtype=np.int64), S, stationary)
    path = tmp_path_factory.mktemp("policy") / "policy.json"
    save_policy(path, policy, space)
    text = path.read_bytes().decode("ascii")
    assert text == json.dumps(_reference_payload(policy, space))
    assert policy_to_payload(policy, space) == json.loads(text)
