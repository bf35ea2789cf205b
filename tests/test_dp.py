import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmdp import (AdditiveWealth, ConfigurationError, ConvergenceError,
                  DataCenterConfig, DiscountedWealth, GarnetConfig, Mdp,
                  OrdinalWealth, QuantileQuery, StepFunction,
                  backward_induction, exact_distribution, generate_datacenter,
                  generate_garnet, solve_quantile, value_iteration)
from qmdp import dp
from qmdp.serialize import _policy_text
from qmdp.stepfun import (VALUE_TOL, combine, pointwise_max, restrict, shift,
                          sup_distance, target_utility)
from conftest import pack, random_lattice_mdp, two_state_discounted_mdp


# -- backward induction on the two-state discounted example --------------------

def test_discounted_example_value(paper_mdp, paper_space):
    # brute force over the four deterministic Markovian policies gives
    # exceedance probabilities {0, 0.01, 0.1} for target 1.5; the best is
    # 0.1, achieved by playing the risky action first and the safe one next
    policy, p, _ = backward_induction(paper_mdp, paper_space, 1.5, strict=False)
    assert p == pytest.approx(0.1, abs=1e-12)
    assert policy.action(0, 0, 0.0) == 0
    assert policy.action(1, 0, 1.0) == 1


def test_discounted_example_policy_distribution(paper_mdp, paper_space):
    policy, _, _ = backward_induction(paper_mdp, paper_space, 1.5, strict=False)
    d = exact_distribution(paper_mdp, paper_space, policy)
    assert d.support == [(-1.0, pytest.approx(0.9)), (1.9, pytest.approx(0.1))]


def test_target_below_range_gives_one(paper_mdp, paper_space):
    _, p, _ = backward_induction(paper_mdp, paper_space,
                                 paper_space.w_min - 1.0, strict=False)
    assert p == 1.0


def test_target_at_max_strict_gives_zero(paper_mdp):
    # dyadic wealth spaces keep the threshold arithmetic exact, so the
    # "nothing strictly exceeds the maximum" claim holds with equality
    additive = AdditiveWealth.for_mdp(paper_mdp)
    _, p, _ = backward_induction(paper_mdp, additive, additive.w_max,
                                 strict=True)
    assert p == 0.0
    half = DiscountedWealth.for_mdp(paper_mdp, 0.5)
    _, p, _ = backward_induction(paper_mdp, half, half.w_max, strict=True)
    assert p == 0.0


def test_terminal_layer_is_target(paper_mdp, paper_space):
    _, _, vf = backward_induction(paper_mdp, paper_space, 1.5, strict=True)
    terminal = vf.slices[-1][0]
    assert terminal(1.5) == 0.0
    assert terminal(1.5 + 1e-9) == 1.0


def test_single_action_policy_constant():
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(0, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [0.0]]}, 0, 3)
    sp = AdditiveWealth.for_mdp(m)
    policy, _, _ = backward_induction(m, sp, 1.0, strict=False)
    for t in range(3):
        for s in range(2):
            assert policy.rule(t, s).intervals() == [(None, True, 0)]


def test_identical_actions_tie_break_to_zero():
    m = Mdp(2, 3, [[[(1, 1.0)]] * 3, [[(0, 1.0)]] * 3],
            {"kind": "sa", "values": [[0.5] * 3, [0.0] * 3]}, 0, 2)
    sp = AdditiveWealth.for_mdp(m)
    policy, _, _ = backward_induction(m, sp, 0.4, strict=False)
    for t in range(2):
        for s in range(2):
            assert policy.rule(t, s).intervals() == [(None, True, 0)]


def test_backward_induction_requires_finite_horizon():
    m = two_state_discounted_mdp(horizon=None)
    with pytest.raises(ConfigurationError):
        backward_induction(m, DiscountedWealth(0.9, -10, 10), 1.0, False)


# -- consistency and monotonicity on random instances -----------------------------

@pytest.mark.parametrize("seed", range(8))
def test_value_equals_policy_exceedance(seed):
    rng = np.random.default_rng(seed)
    m = generate_garnet(GarnetConfig(5, 3, 3, seed=seed), horizon=4)
    sp = AdditiveWealth.for_mdp(m)
    w = float(rng.uniform(sp.w_min, sp.w_max))
    for strict in (True, False):
        policy, p, _ = backward_induction(m, sp, w, strict)
        d = exact_distribution(m, sp, policy)
        achieved = d.strict_decumulative(w) if strict else d.decumulative(w)
        assert abs(p - achieved) <= 1e-9


def test_monotone_in_target_and_strictness():
    m = generate_garnet(GarnetConfig(6, 2, 3, seed=11), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    ws = np.linspace(sp.w_min, sp.w_max, 12)
    last = {True: 1.0 + 1e-12, False: 1.0 + 1e-12}
    for w in ws:
        for strict in (True, False):
            _, p, _ = backward_induction(m, sp, float(w), strict)
            assert p <= last[strict] + 1e-12
            last[strict] = p
        _, p_s, _ = backward_induction(m, sp, float(w), True)
        _, p_n, _ = backward_induction(m, sp, float(w), False)
        assert p_s <= p_n + 1e-12


def test_slices_monotone_and_within_unit_interval():
    m = generate_garnet(GarnetConfig(5, 2, 2, seed=3), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    _, _, vf = backward_induction(m, sp, 1.2, strict=False)
    for layer in vf.slices:
        for f in layer:
            ext = np.concatenate(([f.base], f.v))
            assert np.all(np.diff(ext) >= -1e-12)
            assert ext.min() >= -1e-12 and ext.max() <= 1 + 1e-12


def test_small_instance_matches_policy_enumeration():
    # exhaustive max over realizable deterministic wealth-Markovian policies
    from qmdp import brute_force_distributions, WealthDistribution
    m = generate_garnet(GarnetConfig(3, 2, 2, seed=21), horizon=2)
    sp = AdditiveWealth.for_mdp(m)
    w = 0.8
    for strict in (True, False):
        _, p, _ = backward_induction(m, sp, w, strict)
        best = 0.0
        for atoms, _ in brute_force_distributions(m, sp):
            final = {}
            for (_, wk), mass in atoms.items():
                final[wk] = final.get(wk, 0.0) + mass
            d = WealthDistribution.from_atoms(sp, final)
            v = d.strict_decumulative(w) if strict else d.decumulative(w)
            best = max(best, v)
        assert p == pytest.approx(best, abs=1e-12)


# -- value iteration ----------------------------------------------------------------

def test_value_iteration_zero_rewards_one_sweep():
    m = Mdp(2, 2, [[[(1, 1.0)], [(0, 1.0)]], [[(0, 1.0)], [(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0, 0.0], [0.0, 0.0]]}, 0, None)
    policy, p, vf = value_iteration(m, AdditiveWealth(-1, 1), 0.5, False)
    assert p == 0.0
    assert vf.sweeps == 1
    assert policy.stationary
    assert len(vf.slices) == 1 and len(vf.slices[0]) == m.n_states


def test_value_iteration_absorbing_chain():
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[-1.0], [0.0]]}, 0, None)
    _, p, _ = value_iteration(m, AdditiveWealth(-5, 0), -0.5, False)
    assert p == 0.0


def test_value_iteration_escape_chain_closed_form():
    # loop on s0 (prob 0.3, each step pays -0.25) until escaping to the
    # zero-reward sink; wealth >= -0.6 iff at most one loop happened
    m = Mdp(2, 1, [[[(0, 0.3), (1, 0.7)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[-0.25], [0.0]]}, 0, None)
    _, p, _ = value_iteration(m, AdditiveWealth(-5, 0), -0.6, False)
    assert p == pytest.approx(1.0 - 0.3 ** 2, abs=1e-12)


def greedy_update(m, space, nxt, t):
    """One layer of every state from the list of slices ``nxt``: the
    slices and the greedy rules, as lists of step functions."""
    values, rules = dp._layer(m, space, pack(nxt), t, np.arange(m.n_states))
    return dp._unpack(values), dp._unpack(rules)


@pytest.mark.parametrize("seed", range(6))
def test_value_iteration_matches_long_horizon(seed):
    m = random_lattice_mdp(seed)
    sp = AdditiveWealth(-10.0, 0.0)
    policy, p_inf, _ = value_iteration(m, sp, -1.3, False, eps_conv=1e-6)
    _, p_200, _ = backward_induction(m.with_horizon(200), sp, -1.3, False)
    assert abs(p_inf - p_200) <= 1e-6
    assert policy.stationary


def test_value_iteration_residuals_nonincreasing():
    from qmdp.stepfun import restrict, sup_distance, target_utility
    m = random_lattice_mdp(2)
    sp = AdditiveWealth(-10.0, 0.0)
    V = [restrict(target_utility(-1.3, False), hi=0.0)] * m.n_states
    residuals = []
    for _ in range(30):
        new_V, _ = greedy_update(m, sp, V, 0)
        new_V = [restrict(f, hi=0.0) for f in new_V]
        residuals.append(max(sup_distance(new_V[s], V[s])
                             for s in range(m.n_states)))
        V = new_V
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_value_iteration_preconditions():
    m_mixed = generate_garnet(GarnetConfig(4, 2, 2, reward_low=-1,
                                           reward_high=1, seed=0),
                              horizon=None)
    with pytest.raises(ConfigurationError):
        value_iteration(m_mixed, AdditiveWealth(-5, 5), 0.0, False)
    m = random_lattice_mdp(0)
    with pytest.raises(ConfigurationError):
        value_iteration(m.with_horizon(5), AdditiveWealth(-5, 0), -1.0, False)
    with pytest.raises(ConfigurationError):
        value_iteration(m, DiscountedWealth(0.9, -5, 0), -1.0, False)


def test_value_iteration_non_convergence_reports_residual():
    m = Mdp(2, 1, [[[(0, 0.5), (1, 0.5)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[-0.25], [0.0]]}, 0, None)
    with pytest.raises(ConvergenceError) as exc:
        value_iteration(m, AdditiveWealth(-5, 0), -2.0, False, max_sweeps=2)
    assert exc.value.sweeps == 2
    assert exc.value.residual > 0


# -- the flat layer kernel against the step-function algebra ----------------------

# thresholds, rewards and values on dyadic grids keep every shifted cut
# exact, so the kernel and the per-pair composition see the same keys
GRID = st.integers(-8, 24).map(lambda k: k / 4)
LABELS = {"down": -1, "stay": 0, "up": 1, "up2": 2}


def ordinal_space(n):
    classes = [f"c{i}" for i in range(n)]
    table = {c: {label: classes[min(n - 1, max(0, i + step))]
                 for label, step in LABELS.items()}
             for i, c in enumerate(classes)}
    return OrdinalWealth(classes, table)


@st.composite
def step_functions(draw):
    k = draw(st.integers(0, 4))
    xs = draw(st.lists(GRID, min_size=k, max_size=k))
    sides = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    # grid values make exact ties between actions, float ones near ties
    value = st.one_of(st.integers(0, 8).map(lambda v: v / 8), st.floats(0, 1))
    values = draw(st.lists(value, min_size=k + 1, max_size=k + 1))
    return StepFunction(values[0], xs, sides, values[1:])


@st.composite
def layer_cases(draw, case):
    """(m, space, nxt, t): a random kernel, wealth space and next layer."""
    S, A = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    transitions, rewards = [], []
    for _ in range(S):
        trow, rrow = [], []
        for _ in range(A):
            succ = draw(st.lists(st.integers(0, S - 1), min_size=1,
                                 max_size=3, unique=True))
            w = draw(st.lists(st.integers(1, 4), min_size=len(succ),
                              max_size=len(succ)))
            trow.append([(sp, wi / sum(w)) for sp, wi in zip(succ, w)])
            rrow.append(draw(st.lists(GRID, min_size=len(succ),
                                      max_size=len(succ)))
                        if case.startswith("sas") else draw(GRID))
        transitions.append(trow)
        rewards.append(rrow)
    kind = "sas" if case.startswith("sas") else "sa"
    m = Mdp(S, A, transitions, {"kind": kind, "values": rewards}, 0, 3)
    space = {"sa-additive": AdditiveWealth(),
             "sa-discounted": DiscountedWealth(0.75),
             "sas-additive": AdditiveWealth()}[case]
    nxt = [draw(step_functions()) for _ in range(S)]
    return m, space, nxt, draw(st.integers(0, 2))


def per_pair_update(m, space, nxt, t):
    """The layer as S * A compositions of shift, combine and pointwise_max."""
    envelopes, qs = [], []
    for s in range(m.n_states):
        row = []
        for a in range(m.n_actions):
            succ, prob = m.successors(s, a), m.probabilities(s, a)
            if m.reward_kind == "sa":
                mixed = combine(zip(prob, (nxt[i] for i in succ)))
                row.append(shift(mixed, m.reward(s, a), t, space))
            else:
                row.append(combine(
                    (p, shift(nxt[i], r, t, space))
                    for p, i, r in zip(prob, succ, m.edge_rewards(s, a))))
        envelopes.append(pointwise_max(row)[0])
        qs.append(row)
    return envelopes, qs


@pytest.mark.parametrize("case", ["sa-additive", "sa-discounted",
                                  "sas-additive"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flat_layer_matches_per_pair_algebra(case, data):
    m, space, nxt, t = data.draw(layer_cases(case))
    slices, rules = greedy_update(m, space, nxt, t)
    envelopes, qs = per_pair_update(m, space, nxt, t)
    for f, g, rule, row in zip(slices, envelopes, rules, qs):
        assert np.array_equal(f.x, g.x) and np.array_equal(f.e, g.e)
        assert abs(f.base - g.base) <= 1e-12
        assert np.abs(f.v - g.v).max(initial=0.0) <= 1e-12
        assert isinstance(rule.base, int) and rule.v.dtype == np.int64
        keys = np.concatenate([q.x for q in row] + [rule.x])
        for w in np.concatenate((keys, keys - 1e-6, keys + 1e-6, [-1e9])):
            assert row[rule(w)](w) >= g(w) - VALUE_TOL


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flat_restrict_and_residual_match_per_slice(data):
    S = data.draw(st.integers(1, 4))
    f = [data.draw(step_functions()) for _ in range(S)]
    g = [data.draw(step_functions()) for _ in range(S)]
    assert dp._residual(pack(f), pack(g)) == max(
        sup_distance(a, b) for a, b in zip(f, g))
    lo, hi = sorted(data.draw(st.lists(GRID, min_size=2, max_size=2)))
    for window in ((lo, None), (None, hi), (lo, hi)):
        clipped = dp._unpack(dp._restrict(pack(f), *window))
        assert clipped == [restrict(a, *window) for a in f]


@pytest.mark.parametrize("seed", range(4))
def test_value_iteration_residual_is_max_sup_distance(monkeypatch, seed):
    flat = dp._residual
    seen = []

    def checked(new, old):
        r = flat(new, old)
        assert r == max(sup_distance(a, b) for a, b in
                        zip(dp._unpack(new), dp._unpack(old)))
        seen.append(r)
        return r

    monkeypatch.setattr(dp, "_residual", checked)
    _, _, vf = value_iteration(random_lattice_mdp(seed), AdditiveWealth(-10, 0),
                               -1.3, False)
    assert len(seen) == vf.sweeps
    assert seen[-1] <= 1e-6 < seen[-2]


def value_iteration_every_sweep_greedy(m, space, w, strict, eps_conv=1e-6):
    """Value iteration whose every sweep is the full layer, rules included;
    the converged sweep's rules are the policy.  Returns the policy table,
    p, the converged table and the sweep count."""
    window = dp.reachable_window(m, space)
    V = pack([restrict(target_utility(space.key(w), strict), *window)]
             * m.n_states)
    sweep = 0
    while True:
        sweep += 1
        values, rules = dp._layer(m, space, V, 0, np.arange(m.n_states))
        new_V = dp._restrict(values, *window)
        done = dp._residual(new_V, V) <= eps_conv
        V = new_V
        if done:
            p = dp._segment(V, m.initial_state)(space.key(space.w0))
            return rules, float(p), V, sweep


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("sign", ["nonpositive", "nonnegative"])
# at the loose tolerance, the rules of seed 19's last two iterates differ
@pytest.mark.parametrize("seed, eps_conv", [(s, 1e-6) for s in range(6)]
                         + [(19, 0.1)])
def test_value_iteration_builds_the_converged_sweeps_rules_once(
        monkeypatch, seed, eps_conv, sign, strict):
    # the sweeps carry only the value table; the rules, built once from
    # the iterate the converged sweep read, are that sweep's own
    if sign == "nonpositive":
        m = random_lattice_mdp(seed)
        space, w = AdditiveWealth(-10.0, 0.0), -1.3
    else:
        m = random_lattice_mdp(seed, lattice=(0.25, 0.5, 0.75, 1.0))
        space, w = AdditiveWealth(0.0, 10.0), 1.3
    table, p, V, sweeps = value_iteration_every_sweep_greedy(
        m, space, w, strict, eps_conv)
    calls = []
    first_best = dp._first_best
    monkeypatch.setattr(dp, "_first_best", lambda q, best: calls.append(1)
                        or first_best(q, best))
    policy, p_vi, vf = value_iteration(m, space, w, strict, eps_conv)
    assert same_table(policy.table, table)
    assert same_table(vf.tables[0], V)
    assert p_vi == p and vf.sweeps == sweeps > 1
    # as many rule steps as one layer with rules makes
    in_solve = len(calls)
    calls.clear()
    dp._layer(m, space, V, 0, np.arange(m.n_states))
    assert in_solve == len(calls) > 0


@pytest.mark.parametrize("build", ["garnet", "discounted", "infinite"])
def test_layer_blocks_give_the_same_tables(monkeypatch, build):
    solve = backward_induction
    if build == "infinite":
        m, space, w = random_lattice_mdp(3), AdditiveWealth(-10.0, 0.0), -1.3
        solve = value_iteration
    else:
        m = generate_garnet(GarnetConfig(12, 3, 4, seed=5), horizon=4)
        space = (AdditiveWealth.for_mdp(m) if build == "garnet"
                 else DiscountedWealth.for_mdp(m, 0.9))
        w = 1.0
    whole = solve(m, space, w, True)
    monkeypatch.setattr(dp, "BLOCK_FLOATS", 1)
    # every layer, value sweep and rule pass alike, goes one state a block
    # (one edge gather each) and returns the tables of every state
    blocks = []
    layer, edges = dp._layer, dp._edges

    def counted(m, space, nxt, t, states, greedy=True):
        chunks = []
        monkeypatch.setattr(dp, "_edges", lambda m, chunk: chunks.append(
            len(chunk)) or edges(m, chunk))
        values, rules = layer(m, space, nxt, t, states, greedy)
        monkeypatch.setattr(dp, "_edges", edges)
        blocks.append((greedy, len(states), chunks, len(values.base),
                       None if rules is None else len(rules.base)))
        return values, rules

    monkeypatch.setattr(dp, "_layer", counted)
    blocked = solve(m, space, w, True)
    assert any(greedy for greedy, *_ in blocks)
    S = m.n_states
    assert all(chunks == [1] * n and k == S and r == (S if greedy else None)
               for greedy, n, chunks, k, r in blocks)
    assert blocked[1] == whole[1]
    assert same_table(blocked[0].table, whole[0].table)
    assert blocked[2].slices == whole[2].slices
    assert blocked[2].sweeps == whole[2].sweeps


# -- backward induction on the reachable states only ---------------------------

def same_table(a, b):
    """Two cut tables holding the same arrays."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def same_bits(f, g):
    """Identical encodings: the base's type and value, every array's dtype
    and bytes."""
    return (type(f.base) is type(g.base)
            and np.array(f.base).tobytes() == np.array(g.base).tobytes()
            and all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    for a, b in ((f.x, g.x), (f.e, g.e), (f.v, g.v))))


def reachable_by_walking(m):
    """The states reachable in exactly t steps, t < T, through the accessors."""
    layers = [{m.initial_state}]
    for _ in range(m.horizon - 1):
        layers.append({sp for s in layers[-1] for a in range(m.n_actions)
                       for sp in m.successors(s, a)})
    return layers


@st.composite
def horizon_cases(draw, kind, wealth):
    """(m, space, w): a random finite MDP whose successors leave states out."""
    S, A = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    T = draw(st.integers(1, 4))
    reward = st.sampled_from(sorted(LABELS)) if wealth == "ordinal" else GRID
    transitions, rewards = [], []
    for _ in range(S):
        trow, rrow = [], []
        for _ in range(A):
            succ = draw(st.lists(st.integers(0, S - 1), min_size=1,
                                 max_size=2, unique=True))
            w = draw(st.lists(st.integers(1, 4), min_size=len(succ),
                              max_size=len(succ)))
            trow.append([(sp, wi / sum(w)) for sp, wi in zip(succ, w)])
            rrow.append(draw(st.lists(reward, min_size=len(succ),
                                      max_size=len(succ)))
                        if kind == "sas" else draw(reward))
        transitions.append(trow)
        rewards.append(rrow)
    m = Mdp(S, A, transitions, {"kind": kind, "values": rewards},
            draw(st.integers(0, S - 1)), T)
    if wealth == "ordinal":
        space = ordinal_space(draw(st.integers(2, 5)))
        return m, space, draw(st.sampled_from(space.classes))
    space = AdditiveWealth() if wealth == "additive" else DiscountedWealth(0.75)
    return m, space, draw(GRID)


@pytest.mark.parametrize("wealth", ["additive", "discounted", "ordinal"])
@pytest.mark.parametrize("kind", ["sa", "sas"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reachable_only_matches_the_full_run(kind, wealth, data):
    m, space, w = data.draw(horizon_cases(kind, wealth))
    reach = reachable_by_walking(m)
    for strict in (True, False):
        full_policy, full_p, full_vf = backward_induction(m, space, w, strict)
        policy, p, vf = backward_induction(m, space, w, strict,
                                           reachable_only=True)
        assert p == full_p
        s0 = m.initial_state
        assert same_bits(vf.slices[0][s0], full_vf.slices[0][s0])
        for t in range(m.horizon):
            for s in range(m.n_states):
                rule, f = policy.rule(t, s), vf.slices[t][s]
                if s in reach[t]:
                    assert same_bits(rule, full_policy.rule(t, s))
                    assert same_bits(f, full_vf.slices[t][s])
                else:
                    assert same_bits(rule, StepFunction(0))
                    assert same_bits(f, StepFunction(0.0))
        got = exact_distribution(m, space, policy)
        want = exact_distribution(m, space, full_policy)
        assert got.keys.tobytes() == want.keys.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()


@pytest.mark.parametrize("kind", ["sa", "sas"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ordinal_backward_induction_matches_per_slice_algebra(kind, data):
    # the dense class sweep against T layers of shift, combine and
    # pointwise_max composed from the target utility
    m, space, w = data.draw(horizon_cases(kind, "ordinal"))
    strict = data.draw(st.booleans())
    policy, p, vf = backward_induction(m, space, w, strict)
    nxt = [target_utility(space.key(w), strict)] * m.n_states
    keys = np.arange(-1.0, len(space.classes) + 1)
    keys = np.concatenate((keys, keys + 0.5))
    for t in range(m.horizon - 1, -1, -1):
        nxt, qs = per_pair_update(m, space, nxt, t)
        for s, (g, row) in enumerate(zip(nxt, qs)):
            f, rule = vf.slices[t][s], policy.rule(t, s)
            assert np.array_equal(f.x, g.x) and np.array_equal(f.e, g.e)
            assert abs(f.base - g.base) <= 1e-12
            assert np.abs(f.v - g.v).max(initial=0.0) <= 1e-12
            assert isinstance(rule.base, int) and rule.v.dtype == np.int64
            for x in keys:
                assert row[rule(x)](x) >= g(x) - VALUE_TOL
    assert abs(p - nxt[m.initial_state](space.key(space.w0))) <= 1e-12


def test_label_rewards_on_numeric_wealth_are_rejected():
    m = Mdp(1, 1, [[[(0, 1.0)]]], {"kind": "sa", "values": [["up"]]}, 0, 2)
    for space in (AdditiveWealth(), DiscountedWealth(0.75)):
        with pytest.raises(ConfigurationError, match="numeric rewards"):
            backward_induction(m, space, 0.0, True)


@pytest.mark.parametrize("build", ["garnet", "discounted", "ordinal"])
def test_reachable_layer_blocks_give_the_same_tables(monkeypatch, build):
    if build == "ordinal":
        from conftest import two_policy_ordinal_instance
        m, space = two_policy_ordinal_instance()
        w = "w2"
    else:
        m = generate_garnet(GarnetConfig(12, 3, 2, seed=5), horizon=4)
        space = (AdditiveWealth.for_mdp(m) if build == "garnet"
                 else DiscountedWealth.for_mdp(m, 0.9))
        w = 1.0
    whole = backward_induction(m, space, w, True, reachable_only=True)
    monkeypatch.setattr(dp, "BLOCK_FLOATS", 1)
    blocked = backward_induction(m, space, w, True, reachable_only=True)
    assert blocked[1] == whole[1]
    assert same_table(blocked[0].table, whole[0].table)
    assert blocked[2].slices == whole[2].slices


def test_the_solver_computes_only_the_reachable_states():
    from qmdp import QuantileQuery, solve_quantile
    m = generate_garnet(GarnetConfig(12, 3, 2, seed=5), horizon=4)
    space = AdditiveWealth.for_mdp(m)
    reach = reachable_by_walking(m)
    assert len(reach[1]) < m.n_states
    report = solve_quantile(m, space, QuantileQuery(tau=0.3, criterion="lower"))
    # the solve sweeps at target 0 and moves the rules to the target w
    full, _, _ = backward_induction(m, space, 0.0, True)
    w = report.log[0].w
    moved = dp.WealthMarkovPolicy(dp.translate(full.table, w), m.n_states)
    for t in range(m.horizon):
        for s in range(m.n_states):
            rule = report.policy.rule(t, s)
            if s in reach[t]:
                assert same_bits(rule, moved.rule(t, s))
            else:
                assert same_bits(rule, StepFunction(0))


# -- translating many step functions as one table ------------------------------

from qmdp.wealth import WEALTH_TOL  # noqa: E402


def translated(fs, c, lo=None, hi=None):
    """:func:`dp.translate` of the table of fs, as step functions."""
    dtype = np.int64 if isinstance(fs[0].base, int) else np.float64
    return dp._unpack(dp.translate(pack(fs, dtype), c, lo, hi))


def translated_one_by_one(fs, c, lo, hi):
    moved = [StepFunction(f.base, f.x + c, f.e == 0, f.v) for f in fs]
    if lo is None and hi is None:
        return moved
    return [restrict(g, lo, hi) for g in moved]


@st.composite
def near_cuts(draw, exact):
    """A step function whose cuts come in pairs that a shift can bring
    together: one ulp apart on opposite sides, or just over WEALTH_TOL
    apart on one side."""
    xs, sides = [], []
    for x in draw(st.lists(GRID, max_size=3)):
        side = draw(st.booleans())
        xs.append(x)
        sides.append(side)
        partner = draw(st.sampled_from(["none", "ulp", "tol"]))
        if partner == "ulp":
            xs.append(np.nextafter(x, np.inf))
            sides.append(not side)
        elif partner == "tol":
            xs.append(x + WEALTH_TOL * 1.000001)
            sides.append(side)
    value = (st.integers(0, 3) if exact else
             st.one_of(st.integers(0, 8).map(lambda v: v / 8), st.floats(0, 1)))
    values = draw(st.lists(value, min_size=len(xs) + 1, max_size=len(xs) + 1))
    return StepFunction(values[0], xs, sides, values[1:])


SHIFTS = st.one_of(st.sampled_from([0.0, 0.25, -1.5, 1e6 + 0.1, 1e3 / 3,
                                    -12345.678, 2.0 ** 40]),
                   st.floats(-1e7, 1e7))


@pytest.mark.parametrize("exact", [True, False])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_translate_equals_the_per_function_constructor(exact, data):
    fs = data.draw(st.lists(near_cuts(exact), min_size=1, max_size=4))
    c = data.draw(SHIFTS)
    lo, hi = data.draw(st.sampled_from([(None, None), ("lo", None),
                                        (None, "hi")]))
    if lo:
        lo = data.draw(GRID) + c
    if hi:
        hi = data.draw(GRID) + c
    got = translated(fs, c, lo, hi)
    want = translated_one_by_one(fs, c, lo, hi)
    assert len(got) == len(want)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("exact", [True, False])
def test_translate_sorts_cuts_that_collide(exact):
    # an exclusive cut one ulp below an inclusive one lands on the same
    # float after the shift, where the inclusive side sorts first
    one, two = (1, 2) if exact else (0.25, 0.75)
    x = 0.1
    f = StepFunction(0 if exact else 0.0, [x, np.nextafter(x, 1)],
                     [False, True], [one, two])
    c = 1e6
    assert x + c == np.nextafter(x, 1) + c
    got, = translated([f, f], c)[1:]
    want, = translated_one_by_one([f], c, None, None)
    assert same_bits(got, want)
    assert got.e.tolist() == [0, 1]


@pytest.mark.parametrize("exact", [True, False])
def test_translate_merges_cuts_the_shift_brings_within_tolerance(exact):
    a, b = (1, 2) if exact else (0.25, 0.75)
    gap = WEALTH_TOL * 1.000001
    f = StepFunction(0 if exact else 0.0, [0.5, 0.5 + gap], [True, True], [a, b])
    assert len(f) == 2
    merged = False
    for c in (0.0, 1e3 / 3, 1e6 + 0.1, -12345.678):
        got = translated([f], c)
        assert same_bits(got[0], translated_one_by_one([f], c, None, None)[0])
        merged |= len(got[0]) == 1
    assert merged


@pytest.mark.parametrize("exact", [True, False])
def test_translate_clips_to_infinite_windows(exact):
    vals = [1, 0, 2, 1] if exact else [0.5, 0.125, 1.0, 0.75]
    f = StepFunction(vals[0], [-1.0, 0.0, 0.0], [True, True, False], vals[1:])
    for c in (0.0, 0.5, -0.25):
        for lo, hi in ((c, None), (None, c), (-0.5 + c, None), (None, -2.0 + c)):
            got = translated([f, f], c, lo, hi)
            want = translated_one_by_one([f, f], c, lo, hi)
            assert all(same_bits(a, b) for a, b in zip(got, want))


# -- tables of class rows ------------------------------------------------------

@pytest.mark.parametrize("exact", [True, False])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_class_rows_table_equals_on_classes(exact, data):
    # the dense sweeps' rules (integer argmax rows) and value rows (float
    # rows, some steps below VALUE_TOL) as one table; float rows keep every
    # change, and ordinal backward induction merges them afterwards
    n = data.draw(st.integers(1, 5))
    value = (st.integers(0, 2) if exact else
             st.sampled_from([0.0, 1e-13, 2e-13, 0.5, 0.5 + 1e-13, 1.0]))
    rows = np.array(data.draw(st.lists(
        st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4)))
    for f, row in zip(dp._unpack(dp._on_classes(rows)), rows):
        assert f.eval_many(np.arange(n)).tolist() == row.tolist()
        if exact:
            assert same_bits(f, StepFunction.on_classes(row))
        else:
            assert len(f) == np.count_nonzero(row[1:] != row[:-1])


# -- value iteration on a reward lattice ------------------------------------------

POSITIVE_LATTICE = (0.25, 0.5, 0.75, 1.0)


def lattice_case(seed, sign):
    """(m, space, sign of the targets): a lattice instance of either sign."""
    if sign == "nonpositive":
        return random_lattice_mdp(seed), AdditiveWealth(-10.0, 0.0), -1
    return (random_lattice_mdp(seed, lattice=POSITIVE_LATTICE),
            AdditiveWealth(0.0, 10.0), 1)


def by_both_loops(monkeypatch, solve):
    """``solve()`` as it runs, then with the dense sweep switched off;
    a ConvergenceError is returned rather than raised."""
    def outcome():
        try:
            return solve()
        except ConvergenceError as exc:
            return exc

    dense = outcome()
    with monkeypatch.context() as mp:
        mp.setattr(dp._DenseSweep, "fit", classmethod(lambda cls, *a: None))
        return dense, outcome()


def takes_the_lattice_sweep(m, space, w):
    return dp._DenseSweep.fit(m, space, space.key(w),
                              dp.reachable_window(m, space)) is not None


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("sign", ["nonpositive", "nonnegative"])
@pytest.mark.parametrize("seed", range(6))
def test_lattice_sweep_matches_the_cut_loop(monkeypatch, seed, sign, strict):
    m, space, sign = lattice_case(seed, sign)
    for target in (1.25, 3.5, 10.0):
        w = sign * target
        assert takes_the_lattice_sweep(m, space, w)
        dense, cut = by_both_loops(
            monkeypatch, lambda: value_iteration(m, space, w, strict))
        assert same_table(dense[0].table, cut[0].table)
        assert dense[0].table.base.dtype == cut[0].table.base.dtype
        a, b = dense[2].tables[0], cut[2].tables[0]
        for field in ("off", "x", "e"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.abs(a.base - b.base).max() <= 1e-12
        assert np.abs(a.v - b.v).max(initial=0.0) <= 1e-12
        assert abs(dense[1] - cut[1]) <= 1e-12
        assert dense[2].sweeps == cut[2].sweeps
    # out of sweeps: the same error from both
    dense, cut = by_both_loops(monkeypatch, lambda: value_iteration(
        m, space, sign * 3.5, strict, max_sweeps=2))
    assert isinstance(dense, ConvergenceError) and isinstance(cut, ConvergenceError)
    assert dense.sweeps == cut.sweeps == 2
    assert abs(dense.residual - cut.residual) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_lattice_iterates_reach_an_exact_fixpoint(monkeypatch, seed):
    # eps_conv = 0 is a valid setting: nonpositive lattice costs settle
    m, space, _ = lattice_case(seed, "nonpositive")
    dense, cut = by_both_loops(
        monkeypatch, lambda: value_iteration(m, space, -3.5, True, eps_conv=0.0))
    assert same_table(dense[0].table, cut[0].table)
    assert dense[2].sweeps == cut[2].sweeps


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_lattice_sweep_is_scale_free_within_wealth_tol(seed, strict):
    # costs and target times 2^-40, a step far within WEALTH_TOL: the grid
    # is still taken (the cut loop would merge cuts a cell apart), and its
    # answer is the unscaled one bit for bit, with every cut times 2^-40
    scale = math.ldexp(1.0, -40)
    m, space, _ = lattice_case(seed, "nonpositive")
    tiny = random_lattice_mdp(seed, lattice=tuple(
        scale * r for r in (-0.25, -0.5, -0.75, -1.0)))
    assert np.array_equal(tiny.rewards, m.rewards * scale)
    assert np.abs(tiny.rewards).max() <= WEALTH_TOL
    tiny_space = AdditiveWealth(-10.0 * scale, 0.0)
    for w in (-1.25, -3.5, -10.0):
        assert takes_the_lattice_sweep(tiny, tiny_space, w * scale)
        big = value_iteration(m, space, w, strict)
        small = value_iteration(tiny, tiny_space, w * scale, strict)
        assert small[1] == big[1]
        assert small[2].sweeps == big[2].sweeps
        for a, b in ((small[0].table, big[0].table),
                     (small[2].tables[0], big[2].tables[0])):
            assert np.array_equal(a.x, b.x * scale)
            for field in ("base", "off", "e", "v"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@pytest.mark.parametrize("case, dense", [
    ("quarter lattice", True),
    ("target off the lattice", False),
    ("sparse lattice", False),
    ("target above w0", False),
    ("decimal rewards", False),
    ("gather above BLOCK_FLOATS", False),
])
def test_lattice_sweep_is_picked_from_the_input(monkeypatch, case, dense):
    m, space, w = random_lattice_mdp(0), AdditiveWealth(-10.0, 0.0), -1.25
    if case == "target off the lattice":
        w = -1.3
    elif case == "sparse lattice":
        # 40,002 cells of 0.25 to w0 against at most 715 wealth sums
        m = random_lattice_mdp(0, lattice=(-1000.25, -1000.5, -1000.75, -1001.0))
        space, w = AdditiveWealth(-20000.0, 0.0), -10000.0
    elif case == "target above w0":
        space, w = AdditiveWealth(-10.0, 1.0), 0.5
    elif case == "decimal rewards":
        m = random_lattice_mdp(0, lattice=(-0.1, -0.2, -0.3))
        w = -1.0
    elif case == "gather above BLOCK_FLOATS":
        monkeypatch.setattr(dp, "BLOCK_FLOATS", 100)
    assert takes_the_lattice_sweep(m, space, w) == dense
    layers = []
    layer = dp._layer
    monkeypatch.setattr(dp, "_layer", lambda *a, **kw: layers.append(1)
                        or layer(*a, **kw))
    value_iteration(m, space, w, False)
    assert (len(layers) == 0) == dense


@pytest.mark.parametrize("setting", [
    {"eps_conv": float("nan")}, {"eps_conv": -1e-9}, {"eps_conv": float("inf")},
    {"max_sweeps": 0}, {"max_sweeps": -3}, {"max_sweeps": float("nan")},
    {"max_sweeps": 2.5}, {"max_sweeps": True},
    {"eps_conv": None}, {"eps_conv": "1e-6"}, {"eps_conv": True}])
def test_value_iteration_rejects_bad_convergence_settings(setting):
    with pytest.raises(ConfigurationError, match=next(iter(setting))):
        value_iteration(random_lattice_mdp(0), AdditiveWealth(-10.0, 0.0),
                        -1.25, False, **setting)


NOT_REAL_TARGETS = [None, "0.5", "x", True]


def test_nan_target_raises():
    # no wealth exceeds NaN, so an answer of p = 0.0 would hide the mistake
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=0), horizon=2)
    with pytest.raises(ConfigurationError, match="NaN"):
        backward_induction(m, AdditiveWealth.for_mdp(m), float("nan"), True)
    # a target that is not a real number is a usage error, even one that
    # float() would read as a number
    discounted = two_state_discounted_mdp()
    for m_w, space in ((m, AdditiveWealth.for_mdp(m)),
                       (discounted, DiscountedWealth.for_mdp(discounted, 0.9))):
        for w in NOT_REAL_TARGETS:
            with pytest.raises(ConfigurationError, match="real number"):
                backward_induction(m_w, space, w, True)
    m = generate_garnet(GarnetConfig(4, 2, 2, reward_low=-1.0, reward_high=0.0,
                                     seed=0), horizon=None)
    with pytest.raises(ConfigurationError, match="NaN"):
        value_iteration(m, AdditiveWealth.for_mdp(m), float("nan"), True)
    for w in NOT_REAL_TARGETS:
        with pytest.raises(ConfigurationError, match="real number"):
            value_iteration(m, AdditiveWealth.for_mdp(m), w, True)


def test_infinite_targets_stay_valid():
    # +-inf are real targets: no wealth exceeds +inf, every wealth -inf.
    # Cuts at an infinite target are 0 apart in the run rule, with no
    # inf - inf on the way
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=0), horizon=2)
    space = AdditiveWealth.for_mdp(m)
    m_inf = generate_garnet(GarnetConfig(4, 2, 2, reward_low=-1.0,
                                         reward_high=0.0, seed=0), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strict in (True, False):
            assert backward_induction(m, space, np.inf, strict)[1] == 0.0
            assert backward_induction(m, space, -np.inf, strict)[1] == 1.0
            assert value_iteration(m_inf, AdditiveWealth.for_mdp(m_inf),
                                   -np.inf, strict)[1] == 1.0


def test_the_dp_hands_out_one_table_class(monkeypatch):
    # every table the DP hands out is a plain cut table, whichever loop or
    # path made it
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=0), horizon=3)
    space = AdditiveWealth.for_mdp(m)
    tables = [solve_quantile(m, space, QuantileQuery(0.5)).policy.table]
    # infinite solves through the cut loop (rewards off any lattice) and
    # through the lattice sweep
    off_lattice = generate_garnet(GarnetConfig(4, 2, 2, reward_low=-1.0,
                                               reward_high=0.0, seed=0), None)
    for m_inf in (off_lattice, random_lattice_mdp(0)):
        tables.append(solve_quantile(
            m_inf, AdditiveWealth(-10.0, 0.0),
            QuantileQuery(0.5, quantile_bounds=(-3.0, 0.0))).policy.table)
    m_inf, space_inf = random_lattice_mdp(0), AdditiveWealth(-10.0, 0.0)
    dense, cut = by_both_loops(
        monkeypatch, lambda: value_iteration(m_inf, space_inf, -1.25, False))
    tables += [dense[2].tables[0], cut[2].tables[0]]
    policy = backward_induction(m, space, 0.0, True)[0]
    tables.append(dp.translate(policy.table, -0.5, -1.0, 1.0))
    tables.append(dp.WealthMarkovPolicy.from_cuts(
        np.array([0, 1]), np.array([1, 0, 1]), np.array([2.0, 1.0, 0.5]),
        np.array([True, False, True]), np.array([0, 1, 1]), 2).table)
    assert [type(t) for t in tables] == [dp._Cuts] * len(tables)


# -- finite backward induction on a reward lattice ---------------------------------

def by_finite_loops(solve):
    """``solve()`` as it runs, then with the finite lattice sweep switched
    off (the cut loop on every layer)."""
    dense = solve()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp._DenseSweep, "fit", classmethod(lambda cls, *a: None))
        return dense, solve()


def takes_the_finite_grid(m, space, w):
    return dp._DenseSweep.fit(m, space, space.key(w)) is not None


@st.composite
def finite_lattice_cases(draw):
    """(m, space, target, on_lattice): random rewards g * 2^-k of either sign
    or both, zeros among them, and a target on their lattice, off it or
    infinite."""
    S, A, T = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    lo, hi = draw(st.sampled_from([(-6, 0), (0, 6), (-6, 6), (-2, 5)]))
    reward = st.integers(lo, hi).map(lambda g: math.ldexp(g, -k))
    kind = draw(st.sampled_from(["sa", "sas"]))
    transitions, rewards = [], []
    for _ in range(S):
        trow, rrow = [], []
        for _ in range(A):
            succ = draw(st.lists(st.integers(0, S - 1), min_size=1,
                                 max_size=3, unique=True))
            w = draw(st.lists(st.integers(1, 4), min_size=len(succ),
                              max_size=len(succ)))
            trow.append([(sp, wi / sum(w)) for sp, wi in zip(succ, w)])
            rrow.append(draw(st.lists(reward, min_size=len(succ),
                                      max_size=len(succ)))
                        if kind == "sas" else draw(reward))
        transitions.append(trow)
        rewards.append(rrow)
    m = Mdp(S, A, transitions, {"kind": kind, "values": rewards},
            draw(st.integers(0, S - 1)), T)
    where = draw(st.sampled_from(["on", "on", "on", "off", "inf"]))
    on = math.ldexp(draw(st.integers(-6 * T, 6 * T)), -k)
    target = {"on": on, "off": on + math.ldexp(1.0, -k) / 3,
              "inf": draw(st.sampled_from([-math.inf, math.inf]))}[where]
    return m, AdditiveWealth.for_mdp(m), target, where == "on"


@settings(max_examples=300, deadline=None)
@given(case=finite_lattice_cases(), strict=st.booleans(),
       reachable_only=st.booleans(), tau=st.sampled_from([0.1, 0.5, 0.9]))
def test_finite_lattice_sweep_matches_the_cut_loop(case, strict,
                                                    reachable_only, tau):
    m, space, w, on_lattice = case
    if not on_lattice:
        assert not takes_the_finite_grid(m, space, w)
    dense, cut = by_finite_loops(
        lambda: backward_induction(m, space, w, strict, reachable_only))
    assert dense[0].table.base.dtype == cut[0].table.base.dtype
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(dense[0].table, cut[0].table))
    assert abs(dense[1] - cut[1]) <= 1e-12
    assert len(dense[2].tables) == len(cut[2].tables) == m.horizon + 1
    for a, b in zip(dense[2].tables, cut[2].tables):
        for field in ("off", "x", "e"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert np.abs(a.base - b.base).max() <= 1e-12
        assert np.abs(a.v - b.v).max(initial=0.0) <= 1e-12
    # the solver sweeps at target 0, on the grid wherever one fits
    query = QuantileQuery(tau, "lower" if strict else "upper")
    dense, cut = by_finite_loops(lambda: solve_quantile(m, space, query))
    assert dense.quantile == cut.quantile
    assert dense.bracket == cut.bracket
    assert dense.at_bottom == cut.at_bottom
    assert _policy_text(dense.policy, space) == _policy_text(cut.policy, space)


@pytest.mark.parametrize("case, grid", [
    ("benchmark data center", True),
    ("data center, H=5", True),
    ("float Garnet", False),
    ("data center n=3, H=4", False),
    ("sparse lattice", False),
    ("target off the lattice", False),
    ("infinite target", False),
    ("discounted wealth", False),
    ("gather above DENSE_FLOATS", False),
    ("quarter lattice", True),
    ("step within WEALTH_TOL", False),
])
def test_finite_lattice_sweep_is_picked_from_the_input(monkeypatch, case, grid):
    # the data-center instance of the benchmark: n=2 servers, H=4
    m = generate_datacenter(DataCenterConfig(
        2, lambda_low=1, lambda_mid=3, lambda_high=6, alpha=2.0, beta=5.0,
        kappa=2.0), horizon=4)
    w = 0.0
    if case == "data center, H=5":
        # `qmdp generate datacenter --servers 2`: 108 cells, 15,552 floats
        m = generate_datacenter(DataCenterConfig(2), horizon=5)
    elif case == "float Garnet":
        m = generate_garnet(GarnetConfig(10, 2, 4, seed=1), horizon=5)
    elif case == "data center n=3, H=4":
        # 207 cells, 150,903 floats per step
        m = generate_datacenter(DataCenterConfig(3), horizon=4)
    elif case == "sparse lattice":
        # 87 cells against comb(4 + 4, 4) = 70 wealth sums
        m = generate_datacenter(DataCenterConfig(2), horizon=4)
    elif case == "target off the lattice":
        w = 0.3
    elif case == "infinite target":
        w = -math.inf
    elif case == "gather above DENSE_FLOATS":
        monkeypatch.setattr(dp, "DENSE_FLOATS", 1000)
    elif case == "quarter lattice":
        m = random_lattice_mdp(0, horizon=4)
    elif case == "step within WEALTH_TOL":
        # the same instance in steps of 2^-32: the cut loop merges cuts a
        # cell apart, which a grid would keep
        m = random_lattice_mdp(0, horizon=4, lattice=tuple(
            math.ldexp(k, -32) for k in (-1, -2, -3, -4)))
    space = (DiscountedWealth.for_mdp(m, 0.9) if case == "discounted wealth"
             else AdditiveWealth.for_mdp(m))
    assert takes_the_finite_grid(m, space, w) == grid
    layers = []
    layer = dp._layer
    monkeypatch.setattr(dp, "_layer", lambda *a, **kw: layers.append(1)
                        or layer(*a, **kw))
    for reachable_only in (False, True):
        backward_induction(m, space, w, True, reachable_only)
    assert len(layers) == (0 if grid else 2 * m.horizon)


def test_a_negative_zero_target_keeps_the_cut_loops_bits(monkeypatch):
    # at -0.0 the cut loop's thresholds along zero-reward paths are -0.0,
    # and a grid's cell key 0 is +0.0: both lattice engines decline it
    def same(dense, cut):
        tables = [(dense[0].table, cut[0].table),
                  *zip(dense[2].tables, cut[2].tables)]
        assert all(x.tobytes() == y.tobytes()
                   for a, b in tables for x, y in zip(a, b))
        return any(np.signbit(b.x[b.x == 0]).any() for _, b in tables)

    m = random_lattice_mdp(0, horizon=4)
    space = AdditiveWealth.for_mdp(m)
    assert takes_the_finite_grid(m, space, 0.0)
    assert not takes_the_finite_grid(m, space, -0.0)
    assert any([same(*by_finite_loops(
        lambda: backward_induction(m, space, -0.0, strict)))
        for strict in (True, False)])
    m, space = random_lattice_mdp(0), AdditiveWealth(-10.0, 0.0)
    assert takes_the_lattice_sweep(m, space, 0.0)
    assert not takes_the_lattice_sweep(m, space, -0.0)
    assert any([same(*by_both_loops(
        monkeypatch, lambda: value_iteration(m, space, -0.0, strict)))
        for strict in (True, False)])


def test_a_kept_fit_is_keyed_on_every_input_it_reads():
    # one problem asked in turn for fits that differ in one input each
    # (target, its sign, the window, the space, its w0) gets from each the
    # grid that a fit on a fresh copy gives
    m = random_lattice_mdp(0, horizon=4)
    space = AdditiveWealth(-10.0, 0.0)
    shifted = AdditiveWealth(-10.0, 0.0)
    shifted.w0 = -1.0
    window = dp.reachable_window(m, space)
    asks = [(space, -2.0), (space, -2.0, window), (space, -3.0),
            (space, 0.0), (space, -0.0), (shifted, 0.0), (space, 0.0, window),
            (shifted, -2.0, window)]

    def grid(m, space, *args):
        sweep = dp._DenseSweep.fit(m, space, *args)
        return None if sweep is None else (sweep.grid.keys.tolist(),
                                           int(sweep.grid.w0))

    want = [grid(m.with_horizon(m.horizon), *ask) for ask in asks]
    assert None in want and len({repr(k) for k in want}) == len(asks)
    assert [grid(m, *ask) for ask in asks * 2] == want * 2
    assert grid(m, space, 0.0) == want[asks.index((space, 0.0))]
    space.w0 = -1.0      # the same space object, started elsewhere
    assert grid(m, space, 0.0) == want[asks.index((shifted, 0.0))]


# -- a bit-identity pin for the cut loop ---------------------------------------

import hashlib  # noqa: E402


def cut_loop_digest(policy, p, vf):
    """sha256 of the rule table, every value table (each array's dtype and
    bytes), p and the sweep count."""
    h = hashlib.sha256()
    for table in (policy.table, *vf.tables):
        for a in table:
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    h.update(np.float64(p).tobytes())
    h.update(repr(vf.sweeps).encode())
    return h.hexdigest()


def cut_loop_case(seed, kind):
    """A float Garnet on the cut loop, and its wealth space and target."""
    m = generate_garnet(GarnetConfig(10, 3, 3, seed=seed), horizon=4)
    if kind == "additive":
        space, w = AdditiveWealth.for_mdp(m), 2.0
    else:
        space, w = DiscountedWealth.for_mdp(m, 0.9), 1.5
    return m, space, w


# digests of the cut loop's tables, bit for bit, before its layer kernel
# wrote S-state tables in one pass; keyed (seed, kind, strict, reachable_only)
CUT_LOOP_DIGESTS = {
    (0, 'additive', False, False):
        "010132482b57be8baeda7a8dfc89e9fefd79c82dfc8b02d5980a9feb16697e11",
    (0, 'additive', False, True):
        "342a2183eb5e8a3da0eb277f64622619e5e922aface95c06b0c6a83ddb9b91f9",
    (0, 'additive', True, False):
        "ccae7113e1b829bb51ef5c9877742916ab8c94d57e798374a794014619dd76fe",
    (0, 'additive', True, True):
        "e0838dbf53151260f1aac071eab62537d9cf62699f661b36ac351530e23b8569",
    (0, 'discounted', False, False):
        "03ed064e5de9d716f80ee6e8faf79fcfe9f5e163fd185bd28ccfdd47a821863f",
    (0, 'discounted', False, True):
        "53c3d99252d21207c50871d82f825ef4ee02050171df9d1722ff7e4019428c49",
    (0, 'discounted', True, False):
        "a824c2006ac943d9bfb463adca8315d9a67bcebec31fecb691a11b5649bee9f9",
    (0, 'discounted', True, True):
        "6fdc078da389b09cf2cba6b81944505cdb7c22abe743cf92e35e1aa6727b47f2",
    (1, 'additive', False, False):
        "9a16ff9c031334f48cb26338c5d4baa2f758b4904b70eae6148038f957970b2e",
    (1, 'additive', False, True):
        "082896f63026fae4fd42a4acb099a6f572f9645d783fab302f8021a0ea6aad37",
    (1, 'additive', True, False):
        "7dcdee6c2c102f89541b08271376b3cbf5dfcd4cd376d57dfe2058d1497636d7",
    (1, 'additive', True, True):
        "939aa221a2c24151c946ce8de3955aa499ee2d6e4fb70a57c1436386148c354c",
    (1, 'discounted', False, False):
        "1da82bf80f69be85356d9e123bd7cf381051768972fa512595f92af73c60794c",
    (1, 'discounted', False, True):
        "741f49e5eaf52495ff6388b3a7cbb41359aa559af0ee2d39a4f78e0a6c22d000",
    (1, 'discounted', True, False):
        "44b1d04492f9dbd7c9ec25edd840e2dacab8414539d2177357faa88a702eb8e6",
    (1, 'discounted', True, True):
        "0e36d7411a3aa76bb8ee450399932d926c371e2df30e4a2cb544f56183e6dab6",
}

# the same for one cut-loop value iteration
CUT_LOOP_VI_DIGEST = (
    "610d3ee1b54aea2931593f6eb91688725fae187acfc20aed71fadc538ee7082b")


@pytest.mark.parametrize("seed, kind, strict, reachable_only",
                         sorted(CUT_LOOP_DIGESTS))
def test_cut_loop_tables_keep_their_bits(seed, kind, strict, reachable_only):
    m, space, w = cut_loop_case(seed, kind)
    assert dp._DenseSweep.fit(m, space, space.key(w)) is None
    got = backward_induction(m, space, w, strict, reachable_only)
    assert cut_loop_digest(*got) == CUT_LOOP_DIGESTS[
        seed, kind, strict, reachable_only]


def test_cut_loop_value_iteration_keeps_its_bits():
    # decimal costs lie on no dyadic lattice: the cut loop runs
    m = random_lattice_mdp(2, n_states=6, lattice=(-0.3, -0.55, -0.8))
    space = AdditiveWealth(-10.0, 0.0)
    window = dp.reachable_window(m, space)
    assert dp._DenseSweep.fit(m, space, -1.3, window) is None
    got = value_iteration(m, space, -1.3, True)
    assert got[2].sweeps == 5
    assert cut_loop_digest(*got) == CUT_LOOP_VI_DIGEST


# -- horizon 0 ------------------------------------------------------------------

def finite_engine_case(engine):
    """An instance that ``engine`` solves at horizon 4, its space and target."""
    if engine == "cut loop":
        m = generate_garnet(GarnetConfig(5, 2, 2, seed=0), horizon=4)
        space, w = AdditiveWealth.for_mdp(m), 0.5
        assert not takes_the_finite_grid(m, space, w)
    elif engine == "finite grid":
        m = random_lattice_mdp(0, horizon=4)
        space, w = AdditiveWealth.for_mdp(m), -1.0
        assert takes_the_finite_grid(m, space, w)
    else:
        from conftest import two_policy_ordinal_instance
        m, space = two_policy_ordinal_instance()
        w = "w2"
    return m, space, w


@pytest.mark.parametrize("reachable_only", [False, True])
@pytest.mark.parametrize("engine", ["cut loop", "finite grid", "ordinal"])
def test_horizon_zero_is_a_configuration_error(engine, reachable_only):
    m, space, w = finite_engine_case(engine)
    backward_induction(m, space, w, True, reachable_only)
    with pytest.raises(ConfigurationError, match="horizon of at least 1"):
        backward_induction(m.with_horizon(0), space, w, True, reachable_only)


# -- a bit-identity pin for the dense sweep ------------------------------------

def dense_case(case):
    """``(m, solve)``: an instance the dense sweep takes, and
    ``solve(strict, reachable_only)``, which solves it at its target."""
    if case == "lattice":
        m = random_lattice_mdp(0, horizon=4)
        space, w = AdditiveWealth.for_mdp(m), -1.0
    elif case == "datacenter":
        m = generate_datacenter(DataCenterConfig(2), horizon=5)
        space, w = AdditiveWealth.for_mdp(m), -8.0
    elif case == "ordinal":
        g = generate_garnet(GarnetConfig(6, 2, 3, seed=1), horizon=3)
        labels = sorted(LABELS)
        m = Mdp(6, 2, [[list(zip(g.successors(s, a).tolist(),
                                 g.probabilities(s, a).tolist()))
                        for a in range(2)] for s in range(6)],
                {"kind": "sa", "values": [[labels[int(4 * g.reward(s, a))]
                                           for a in range(2)]
                                          for s in range(6)]}, 0, 3)
        space, w = ordinal_space(5), "c2"
    else:
        m = random_lattice_mdp(0)
        space, w = AdditiveWealth(-10.0, 0.0), -1.25
        assert takes_the_lattice_sweep(m, space, w)
        return m, lambda strict, _: value_iteration(m, space, w, strict)
    assert dp._DenseSweep.fit(m, space, space.key(w)) is not None
    return m, lambda strict, reach: backward_induction(m, space, w, strict,
                                                       reach)


# digests of the dense sweep's results, bit for bit, from when it tabled
# every value row at once; keyed (case, strict, reachable_only)
DENSE_DIGESTS = {
    ('datacenter', False, False):
        "a3eedc2664a78ad309152c0c340206315e6b0bca352894281faf417550dd5057",
    ('datacenter', False, True):
        "1338bb3cab13585653547249c41f68577c0fae87811215805152fe88dfcf7e74",
    ('datacenter', True, False):
        "c5609ed7ab55992c715012448e686bf4bab6e587d3b9c29fec9f497f5065fed8",
    ('datacenter', True, True):
        "db1917db75c9230a47657b79469603296a9e85db2be1fb63512c0f09652c851b",
    ('lattice', False, False):
        "86cd5a9e061afc962c24e9e8260e9e180f3c459ec8396834a099ad8c76588770",
    ('lattice', False, True):
        "a6a9819b8e5069ad04cd4617b822ac38a0f0ad6435efd33bbfbc295eeca08804",
    ('lattice', True, False):
        "228a5250ee79baa61ee388d32444d604e1eb3f09202884f4168ef3b39bbb2fb4",
    ('lattice', True, True):
        "4d1b9c935f0f58ca310b0d3c2691288d262bfbbb917274d310899eaf6310ad30",
    ('ordinal', False, False):
        "a0739fe3aef5201389b5fd41e356cbf197151fa9ed08287681d4cf0fa165b4fa",
    ('ordinal', False, True):
        "feeb2853c99cccac4ab6dfc959d862e4e6c00c918055661e5175d3dd1ee7c199",
    ('ordinal', True, False):
        "c55e9a7e1d63a1dbf839916b74fe4b642d0d9e504fb0f3328583135da3ab76ff",
    ('ordinal', True, True):
        "7c84c51ed5ea0f3397b88a11b1c575ff364e5710752b59a4298ce8338d9bf8e0",
    ('value iteration', False, False):
        "1f27b216945b6ac8f0d456d72e2cb2fd49f59d4a22c86eb3fc3c11688a41b5dd",
    ('value iteration', True, False):
        "3f65f5d09203c643827ac7cf600e9443354824ad596a7298f0e5f73231d341f9",
}


@pytest.mark.parametrize("case, strict, reachable_only", sorted(DENSE_DIGESTS))
def test_dense_tables_keep_their_bits(case, strict, reachable_only):
    m, solve = dense_case(case)
    policy, p, vf = solve(strict, reachable_only)
    assert cut_loop_digest(policy, p, vf) == DENSE_DIGESTS[
        case, strict, reachable_only]


@pytest.mark.parametrize("case", ["lattice", "datacenter", "ordinal",
                                  "value iteration"])
def test_a_dense_slice_read_first_is_its_tabled_segment(case):
    m, solve = dense_case(case)
    for strict, reachable_only in itertools.product((False, True), repeat=2):
        vf = solve(strict, reachable_only)[2]
        layers = 1 if m.horizon is None else m.horizon + 1
        # every row alone first; a negative t reads the tabled layers
        early = {(t, s): vf.slice(t, s)
                 for t in [*range(layers), *range(-layers, 0)]
                 for s in range(m.n_states)}
        assert len(vf.tables) == layers
        for (t, s), f in early.items():
            assert same_bits(f, vf.slice(t, s))
            assert same_bits(f, vf.slices[t][s])


@pytest.mark.parametrize("case", ["lattice", "datacenter", "ordinal",
                                  "value iteration"])
def test_a_dense_slice_is_tabled_once(case):
    # a value-iteration solve reads the initial-state slice for p and the
    # solver reads it again: the second read tables nothing, same bits
    m, solve = dense_case(case)
    s0 = m.initial_state
    for strict in (False, True):
        vf = solve(strict, True)[2]
        rows, table = [], vf._table
        vf._table = lambda run: rows.append(len(run)) or table(run)
        f = vf.slice(0, s0)
        assert vf.slice(0, s0) is f
        assert rows == ([] if m.horizon is None else [1])
        assert same_bits(f, vf.slices[0][s0])
        assert rows[-1] == m.n_states * (1 if m.horizon is None
                                         else m.horizon)
