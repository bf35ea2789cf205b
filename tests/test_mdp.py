import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qmdp import (ConfigurationError, DataCenterConfig, GarnetConfig, Mdp,
                  ValidationError, default_branching, generate_datacenter,
                  generate_garnet, validate)
from qmdp.mdp import MAX_HORIZON
from conftest import two_state_discounted_mdp


def kernels_equal(a, b):
    if (a.n_states, a.n_actions, a.initial_state, a.horizon) != \
            (b.n_states, b.n_actions, b.initial_state, b.horizon):
        return False
    for s in range(a.n_states):
        for x in range(a.n_actions):
            if not np.array_equal(a.successors(s, x), b.successors(s, x)):
                return False
            if not np.array_equal(a.probabilities(s, x), b.probabilities(s, x)):
                return False
            if a.edge_rewards(s, x) != b.edge_rewards(s, x):
                return False
    return True


# -- validate -----------------------------------------------------------------

def test_validate_well_formed():
    assert validate(two_state_discounted_mdp()) == []


def test_validate_bad_row_sum():
    m = Mdp(2, 1, [[[(0, 0.4), (1, 0.5)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 3)
    violations = validate(m)
    assert len(violations) == 1
    assert "(s=0, a=0)" in violations[0]


def test_validate_negative_probability():
    m = Mdp(2, 1, [[[(0, 1.1), (1, -0.1)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 3)
    assert any("negative" in v for v in validate(m))


def test_validate_duplicate_successor():
    m = Mdp(2, 1, [[[(1, 0.5), (1, 0.5)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 3)
    assert any("duplicate" in v for v in validate(m))


def test_validate_bad_successor_index():
    m = Mdp(2, 1, [[[(5, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 3)
    assert any("out of range" in v for v in validate(m))


def test_validate_nonfinite_reward():
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[float("inf")], [0.0]]}, 0, 3)
    # the value reads as a Python float, not as a numpy scalar's repr
    assert validate(m) == ["non-finite reward inf"]


def test_validate_reports_each_violation_in_order():
    # one of each violation; (s=0, a=1) breaks four checks at once, and an
    # empty row reports nothing besides being empty
    m = Mdp(3, 2,
            [[[], [(1, -0.5), (1, 0.5), (9, 0.25)]],
             [[(2, 1.0)], [(0, 0.7)]],
             [[(0, 1.5), (1, -0.5)], [(2, 1.0)]]],
            {"kind": "sa", "values": [[0.0, 1.0], [float("inf"), 0.0],
                                      [0.0, float("nan")]]},
            initial_state=7, horizon=0)
    assert validate(m) == [
        "initial_state 7 out of range",
        "horizon must be positive or None, got 0",
        "(s=0, a=0): empty transition row",
        "(s=0, a=1): negative probability -0.5",
        "(s=0, a=1): probabilities sum to 0.25",
        "(s=0, a=1): successor index out of range",
        "(s=0, a=1): duplicate successor state",
        "(s=1, a=1): probabilities sum to 0.7",
        "(s=2, a=0): negative probability -0.5",
        "non-finite reward inf",
    ]


def test_validate_nan_probability():
    # NaN passes both the sign and the sum test; its check sits between
    # them, and the row's negative entry is still the one reported
    m = Mdp(2, 2,
            [[[(0, float("nan")), (1, -0.5), (3, 0.5)], [(1, 1.0)]],
             [[(0, 0.5)], [(1, float("nan"))]]],
            {"kind": "sa", "values": [[0.0, 0.0], [0.0, 0.0]]}, 0, 3)
    assert validate(m) == [
        "(s=0, a=0): negative probability -0.5",
        "(s=0, a=0): probability is NaN",
        "(s=0, a=0): successor index out of range",
        "(s=1, a=0): probabilities sum to 0.5",
        "(s=1, a=1): probability is NaN",
    ]



SA0 = {"kind": "sa", "values": [[0.0, 0.0], [0.0, 0.0]]}


def two_by_two(row, rewards=SA0, initial_state=0, horizon=2):
    """Two states, two actions; ``row`` is the successor list of (0, 0)."""
    return Mdp(2, 2, [[row, [(1, 1.0)]], [[(0, 0.5), (1, 0.5)], [(1, 1.0)]]],
               rewards, initial_state, horizon)


NAN, INF = math.nan, math.inf
# each violation alone, then all at once, with its messages pinned
VALIDATE_CASES = {
    "empty row": (lambda: two_by_two([]),
                  ["(s=0, a=0): empty transition row"]),
    "negative probability": (
        lambda: two_by_two([(0, 1.25), (1, -0.25)]),
        ["(s=0, a=0): negative probability -0.25"]),
    "NaN probability": (lambda: two_by_two([(0, NAN), (1, 1.0)]),
                        ["(s=0, a=0): probability is NaN"]),
    "bad sum": (lambda: two_by_two([(0, 0.5), (1, 0.25)]),
                ["(s=0, a=0): probabilities sum to 0.75"]),
    "successor out of range": (
        lambda: two_by_two([(0, 0.5), (2, 0.5)]),
        ["(s=0, a=0): successor index out of range"]),
    "negative successor": (
        lambda: two_by_two([(-1, 0.5), (1, 0.5)]),
        ["(s=0, a=0): successor index out of range"]),
    "duplicate successor": (
        lambda: two_by_two([(1, 0.5), (1, 0.5)]),
        ["(s=0, a=0): duplicate successor state"]),
    "non-finite reward": (
        lambda: two_by_two([(1, 1.0)], {"kind": "sa",
                                        "values": [[0.0, -INF], [NAN, 0.0]]}),
        ["non-finite reward -inf"]),
    "no states": (
        lambda: Mdp(0, 1, [], {"kind": "sa", "values": []}, 0, 2),
        ["n_states must be positive, got 0", "initial_state 0 out of range"]),
    "no actions": (
        lambda: Mdp(1, 0, [[]], {"kind": "sa", "values": [[]]}, 0, 2),
        ["n_actions must be positive, got 0"]),
    "initial state": (lambda: two_by_two([(1, 1.0)], initial_state=-1),
                      ["initial_state -1 out of range"]),
    "horizon": (lambda: two_by_two([(1, 1.0)], horizon=0),
                ["horizon must be positive or None, got 0"]),
    "all together": (
        lambda: Mdp(3, 2,
                    [[[], [(1, -0.5), (1, 0.5), (3, NAN)]],
                     [[(2, 0.25), (0, 0.25)], [(0, 1.0), (-2, 0.5)]],
                     [[(0, 1.5), (1, -0.5), (0, 0.0)], [(2, 1.0)]]],
                    {"kind": "sas", "values": [[[], [0.0, 1.0, INF]],
                                               [[0.0, 0.0], [NAN, 0.0]],
                                               [[0.0, 0.0, 0.0], [0.0]]]},
                    initial_state=3, horizon=-1),
        ["initial_state 3 out of range",
         "horizon must be positive or None, got -1",
         "(s=0, a=0): empty transition row",
         "(s=0, a=1): negative probability -0.5",
         "(s=0, a=1): probability is NaN",
         "(s=0, a=1): successor index out of range",
         "(s=0, a=1): duplicate successor state",
         "(s=1, a=0): probabilities sum to 0.5",
         "(s=1, a=1): probabilities sum to 1.5",
         "(s=1, a=1): successor index out of range",
         "(s=2, a=0): negative probability -0.5",
         "(s=2, a=0): duplicate successor state",
         "non-finite reward inf"]),
}


@pytest.mark.parametrize("case", list(VALIDATE_CASES))
def test_validate_messages_are_pinned(case):
    make, want = VALIDATE_CASES[case]
    assert validate(make()) == want


@pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 10**8, 2**31, 2**63])
def test_horizon_above_cap_is_rejected(horizon):
    rows = [[[(0, 1.0)]]]
    rewards = {"kind": "sa", "values": [[0.0]]}
    with pytest.raises(ValidationError, match="above the cap"):
        Mdp(1, 1, rows, rewards, 0, horizon)
    m = Mdp(1, 1, rows, rewards, 0, MAX_HORIZON)
    assert m.horizon == MAX_HORIZON
    with pytest.raises(ValidationError, match="above the cap"):
        m.with_horizon(horizon)


@pytest.mark.parametrize("row", [[1.0, -1.0, 5.0], [1.0]])
def test_sas_rewards_misaligned_with_successors(row):
    # (s=0, a=0) has two successors; a stray or missing value would shift
    # the rewards of every later pair in the edge table
    transitions = [[[(0, 0.1), (1, 0.9)], [(1, 1.0)]],
                   [[(1, 1.0)], [(1, 1.0)]]]
    values = [[row, [1.0]], [[0.0], [0.0]]]
    with pytest.raises(ValidationError,
                       match=rf"\(s=0, a=0\): {len(row)} 'sas' rewards for "
                             r"2 successors"):
        Mdp(2, 2, transitions, {"kind": "sas", "values": values}, 0, 2)


def test_array_rows_misaligned():
    transitions = [[(np.array([0, 1]), np.array([1.0]))], [[(1, 1.0)]]]
    with pytest.raises(ValidationError,
                       match=r"\(s=0, a=0\): 1 probabilities for 2 successors"):
        Mdp(2, 1, transitions, {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 2)


# -- edge table ------------------------------------------------------------------

def labelled_mdp(kind):
    """Two states with label rewards of ``kind``; one label is a tuple."""
    transitions = [[[(0, 0.5), (1, 0.5)], [(1, 1.0)]], [[(1, 1.0)], [(0, 1.0)]]]
    values = ([[("up", 1), "down"], ["up", "down"]] if kind == "sa" else
              [[[("up", 1), "down"], ["up"]], [["down"], [("up", 1)]]])
    return Mdp(2, 2, transitions, {"kind": kind, "values": values}, 0, 2)


@pytest.mark.parametrize("m", [
    generate_garnet(GarnetConfig(6, 3, 2, seed=1)),
    generate_datacenter(DataCenterConfig(2)),
    two_state_discounted_mdp(),
    labelled_mdp("sa"),
    labelled_mdp("sas"),
], ids=["garnet", "datacenter", "sas", "sa-labels", "sas-labels"])
def test_edge_table_matches_accessors(m):
    assert isinstance(m.rewards, np.ndarray)
    assert m.rewards.shape == (len(m.succ),)
    assert m.rewards.dtype == (np.float64 if m.numeric_rewards else object)
    assert not m.rewards.flags.writeable
    if not m.numeric_rewards:
        # a tuple label stays one element
        assert m.rewards[0] == ("up", 1)
    for s in range(m.n_states):
        for a in range(m.n_actions):
            i = s * m.n_actions + a
            span = slice(m.starts[i], m.starts[i + 1])
            assert np.array_equal(m.succ[span], m.successors(s, a))
            assert np.array_equal(m.prob[span], m.probabilities(s, a))
            assert np.shares_memory(m.successors(s, a), m.succ)
            assert np.shares_memory(m.probabilities(s, a), m.prob)
            assert type(m.edge_rewards(s, a)) is list
            assert m.rewards[span].tolist() == m.edge_rewards(s, a)
            assert (m.pair[span] == i).all()
            if m.reward_kind == "sa":
                assert m.edge_rewards(s, a) == [m.reward(s, a)] * len(
                    m.successors(s, a))
    assert m.starts[-1] == len(m.succ) == len(m.prob) == len(m.rewards)


def test_edge_table_copies_shared_rows():
    # the generator passes one arrival row per regime to many pairs
    m = generate_datacenter(DataCenterConfig(2))
    assert not np.shares_memory(m.probabilities(0, 0), m.probabilities(1, 0))
    with pytest.raises(ValueError):
        m.probabilities(0, 0)[0] = 1.0
    assert np.shares_memory(m.probabilities(0, 0), m.prob)


# -- garnet ------------------------------------------------------------------

def test_garnet_branching_rule():
    assert default_branching(250) == 8
    assert default_branching(100) == 7
    assert default_branching(4) == 2


def test_garnet_paper_grid_point():
    m = generate_garnet(GarnetConfig(250, 5, 8, seed=1))
    assert m.n_states == 250 and m.n_actions == 5
    for s in range(m.n_states):
        for a in range(m.n_actions):
            succ = m.successors(s, a)
            assert len(succ) == 8
            assert len(np.unique(succ)) == 8
    assert validate(m) == []


def test_garnet_full_support_when_b_equals_n():
    m = generate_garnet(GarnetConfig(4, 2, 4, seed=0))
    for s in range(4):
        for a in range(2):
            assert sorted(m.successors(s, a).tolist()) == [0, 1, 2, 3]


def test_garnet_deterministic():
    a = generate_garnet(GarnetConfig(30, 3, 5, seed=77))
    b = generate_garnet(GarnetConfig(30, 3, 5, seed=77))
    assert kernels_equal(a, b)
    c = generate_garnet(GarnetConfig(30, 3, 5, seed=78))
    assert not kernels_equal(a, c)


def test_garnet_reward_range():
    m = generate_garnet(GarnetConfig(20, 3, 4, reward_low=-2.0,
                                     reward_high=-1.0, seed=5))
    lo, hi = m.reward_bounds()
    assert -2.0 <= lo <= hi <= -1.0


def test_garnet_config_validation():
    with pytest.raises(ConfigurationError):
        generate_garnet(GarnetConfig(4, 2, 5, seed=0))   # b > n_states
    with pytest.raises(ConfigurationError):
        generate_garnet(GarnetConfig(4, 2, 0, seed=0))
    with pytest.raises(ConfigurationError):
        generate_garnet(GarnetConfig(4, 2, 2, reward_low=1.0, reward_high=0.0))
    # a non-finite reward bound is a usage error, not a numpy OverflowError
    for low, high in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                      (-math.inf, 0.0), (-math.inf, math.inf)):
        with pytest.raises(ConfigurationError, match="finite"):
            generate_garnet(GarnetConfig(4, 2, 2, reward_low=low,
                                         reward_high=high))


# -- data center ---------------------------------------------------------------

def test_datacenter_state_count():
    m = generate_datacenter(DataCenterConfig(30))
    assert m.n_states == 2700        # 30 * 3 * 30
    assert m.n_actions == 30


def test_datacenter_default_rates():
    lam, (t1, t2) = DataCenterConfig(30).resolved()
    assert lam == (15, 45, 75)
    assert (t1, t2) == (30, 60)


def test_datacenter_rows_renormalized():
    m = generate_datacenter(DataCenterConfig(1, lambda_low=1.0))
    assert validate(m) == []
    cfg = DataCenterConfig(1, lambda_low=1.0)
    s = cfg.state_index(1, 0)
    assert m.probabilities(s, 0).sum() == pytest.approx(1.0, abs=1e-12)


def _exact_arrivals(n_jobs, rate):
    """Poisson(rate) truncated to {0, ..., n_jobs - 1}, exact until the end."""
    terms = [Fraction(rate) ** k / math.factorial(k) for k in range(n_jobs)]
    total = sum(terms)
    return np.array([float(x / total) for x in terms])


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("rate", [1, 2, 3, 7, 30, 150, 745, 746, 800, 5000])
def test_datacenter_rows_match_exact_poisson(n, rate):
    # past a rate of about 745, e^-rate underflows: a row computed as
    # e^-rate rate^k / k! drops its first successors, or all of them and
    # then divides 0 by 0
    cfg = DataCenterConfig(n, lambda_low=rate, lambda_mid=rate,
                           lambda_high=rate)
    m = generate_datacenter(cfg, horizon=2)
    assert validate(m) == []
    want = _exact_arrivals(cfg.n_jobs, rate)
    assert np.all(want > 0)
    for s in (0, m.n_states - 1):
        got = m.probabilities(s, 0)
        assert np.max(np.abs(got - want) / want) <= 1e-12


def test_datacenter_kernel_factorization():
    # next-state row depends on the action only through m' and on the
    # state only through j
    cfg = DataCenterConfig(3)
    m = generate_datacenter(cfg)
    j = 2
    rows = []
    for m_on in (1, 2, 3):
        s = cfg.state_index(m_on, j)
        rows.append((m.successors(s, 1), m.probabilities(s, 1)))
    for succ, prob in rows[1:]:
        assert np.array_equal(succ, rows[0][0])
        assert np.array_equal(prob, rows[0][1])
    # and the successor block is determined by the action
    s = cfg.state_index(2, j)
    for a in range(3):
        succ = m.successors(s, a)
        m_next = a + 1
        assert succ[0] == cfg.state_index(m_next, 0)
        assert succ[-1] == cfg.state_index(m_next, cfg.n_jobs - 1)


def test_datacenter_reward_formula():
    cfg = DataCenterConfig(2, alpha=1.0, beta=10.0, kappa=3.0)
    m = generate_datacenter(cfg)
    s = cfg.state_index(1, 5)       # 5 pending jobs
    # action 0 -> one server on: cost 1 + 10 * max(0, 5 - 3) = 21
    assert m.reward(s, 0) == -21.0
    # action 1 -> two servers: cost 2 + 10 * max(0, 5 - 6) = 2
    assert m.reward(s, 1) == -2.0


def test_datacenter_config_validation():
    with pytest.raises(ConfigurationError):
        generate_datacenter(DataCenterConfig(0))
    with pytest.raises(ConfigurationError):
        generate_datacenter(DataCenterConfig(2, lambda_low=-1.0))
    with pytest.raises(ConfigurationError):
        generate_datacenter(DataCenterConfig(2, threshold_low_mid=5,
                                             threshold_mid_high=3))
    # every float setting must be finite: a NaN or infinite rate or cost
    # gives a problem that fails validation
    for bad in ({"lambda_mid": math.nan}, {"lambda_mid": math.inf},
                {"lambda_low": math.nan}, {"alpha": math.nan},
                {"beta": math.inf}, {"kappa": -math.inf}):
        with pytest.raises(ConfigurationError, match="finite"):
            generate_datacenter(DataCenterConfig(2, **bad))


def test_datacenter_edge_cap():
    # n servers give 9 n^4 edges; 30 servers is the largest size admitted
    DataCenterConfig(30).check()
    with pytest.raises(ConfigurationError, match="cap"):
        DataCenterConfig(31).check()
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="cap"):
        generate_datacenter(DataCenterConfig(100))
    assert time.perf_counter() - start < 1.0


def test_generators_validate_clean():
    assert validate(generate_garnet(GarnetConfig(12, 3, 3, seed=9))) == []
    assert validate(generate_datacenter(DataCenterConfig(2))) == []


# -- reward helpers -----------------------------------------------------------

def test_reward_sign():
    m = generate_garnet(GarnetConfig(6, 2, 2, reward_low=0.1, reward_high=1.0,
                                     seed=0))
    assert m.reward_sign() == "nonnegative"
    m2 = generate_garnet(GarnetConfig(6, 2, 2, reward_low=-1.0,
                                      reward_high=-0.1, seed=0))
    assert m2.reward_sign() == "nonpositive"
    m3 = generate_garnet(GarnetConfig(6, 2, 2, reward_low=-1.0,
                                      reward_high=1.0, seed=0))
    assert m3.reward_sign() == "mixed"


def test_with_horizon_shares_kernel():
    m = generate_garnet(GarnetConfig(5, 2, 2, seed=0), horizon=5)
    m2 = m.with_horizon(None)
    assert m2.horizon is None
    assert m.horizon == 5
    assert m2.succ is m.succ and m2.rewards is m.rewards


# -- immutability ------------------------------------------------------------


@pytest.mark.parametrize("m", [
    generate_garnet(GarnetConfig(6, 3, 2, seed=1)),
    generate_datacenter(DataCenterConfig(2), horizon=None),
    two_state_discounted_mdp(),
    labelled_mdp("sa"),
    labelled_mdp("sas"),
], ids=["garnet", "datacenter-inf", "sas", "sa-labels", "sas-labels"])
def test_an_mdp_is_immutable(m):
    # what a problem keeps across queries is sound only if nothing moves
    for name in ("succ", "prob", "rewards", "starts", "pair"):
        edges = getattr(m, name)
        assert not edges.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            edges[:1] = edges[:1]
    if isinstance(m.reward_table, np.ndarray):
        assert not m.reward_table.flags.writeable
    before = dict(vars(m))
    for name in [*before, "fresh"]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, before.get(name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(m, name)
    assert vars(m) == before
    clone = m.with_horizon(7)
    with pytest.raises(AttributeError, match="immutable"):
        clone.horizon = 3
    assert (clone.horizon, m.horizon) == (7, before["horizon"])


def test_a_horizon_copy_starts_with_an_empty_memo():
    m = generate_garnet(GarnetConfig(5, 2, 2, seed=0), horizon=5)
    validate(m)
    clone = m.with_horizon(None)
    assert "violations" in m._memo and clone._memo == {}
    validate(clone)
    assert clone._memo is not m._memo


@pytest.mark.parametrize("m", [
    generate_garnet(GarnetConfig(6, 3, 2, seed=1)),
    generate_datacenter(DataCenterConfig(2), horizon=None),
    labelled_mdp("sas"),
], ids=["garnet", "datacenter-inf", "sas-labels"])
def test_a_horizon_copy_is_built_field_by_field(m):
    # every field of the source, the read-only edge arrays shared, the new
    # horizon, an empty memo of its own, frozen, and the source unchanged
    validate(m)
    before = dict(vars(m))
    clone = m.with_horizon(3)
    fields = vars(clone)
    assert list(fields) == list(before)
    for name, value in before.items():
        if name == "horizon":
            assert fields[name] == 3
        elif name == "_memo":
            assert fields[name] == {} and fields[name] is not value
        else:
            assert fields[name] is value, name
    for name in ("succ", "prob", "rewards", "starts", "pair"):
        assert not getattr(clone, name).flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        clone.n_states = 1
    assert type(clone) is type(m) and vars(m) == before
    assert "violations" in m._memo and "violations" not in clone._memo


def test_the_slot_layout_pads_each_pair_to_the_widest():
    m = Mdp(2, 2, [[[(1, 0.25), (0, 0.75)], [(1, 1.0)]],
                   [[(0, 0.5), (1, 0.0), (0, 0.5)], []]],
            {"kind": "sa", "values": [[1.0, 2.0], [3.0, 4.0]]}, 0, 2)
    slots = m.slots()
    assert slots.succ.tolist() == [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert slots.prob.tolist() == [[0.25, 0.75, 0.0], [1.0, 0.0, 0.0],
                                   [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]
    assert slots.edge.tolist() == [[0, 1, 0], [2, 0, 0], [3, 4, 5], [0, 0, 0]]
    assert slots.degree.tolist() == [2, 1, 3, 0]
    assert all(not table.flags.writeable for table in slots)
    assert m.slots() is slots and m._memo["slots"] is slots


def test_an_invalid_mdp_reports_on_every_call():
    m = Mdp(2, 1, [[[(0, 0.5), (1, 0.6)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 2)
    want = ["(s=0, a=0): probabilities sum to 1.1"]
    assert validate(m) == want
    validate(m).append("a caller's own list")
    assert validate(m) == want


@pytest.mark.parametrize("horizon", [0, -1])
def test_generators_reject_a_horizon_below_one(horizon):
    # Mdp itself keeps such a horizon, for validate to report
    with pytest.raises(ConfigurationError, match="horizon must be positive"):
        generate_garnet(GarnetConfig(4, 2, 2), horizon=horizon)
    with pytest.raises(ConfigurationError, match="horizon must be positive"):
        generate_datacenter(DataCenterConfig(2), horizon=horizon)
    m = Mdp(1, 1, [[[(0, 1.0)]]], {"kind": "sa", "values": [[0.0]]}, 0, horizon)
    assert validate(m) == [f"horizon must be positive or None, got {horizon}"]
    for h in (None, 1):
        assert generate_garnet(GarnetConfig(4, 2, 2), horizon=h).horizon == h
