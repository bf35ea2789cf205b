import math

import numpy as np
import pytest

from qmdp import (AdditiveWealth, ConfigurationError, DiscountedWealth,
                  GarnetConfig, Mdp, OrdinalWealth, QuantileQuery, SolveReport,
                  StepFunction, WealthMarkovPolicy,
                  brute_force_distributions, brute_force_optimal_quantile,
                  backward_induction, exact_distribution, generate_garnet,
                  quantile_certificate, solve_quantile,
                  validate, value_iteration)
from qmdp.dp import OrdinalSweep
from conftest import (pack, random_lattice_mdp, two_policy_ordinal_instance,
                      two_state_discounted_mdp)


NEG_LATTICE = (-0.25, -0.5, -0.75, -1.0)
POS_LATTICE = (0.25, 0.5, 0.75, 1.0)   # the reward-negated twins


def small_instance(seed):
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=seed), horizon=3)
    return m, AdditiveWealth.for_mdp(m)


# -- query validation -----------------------------------------------------------

def test_query_tau_ranges():
    QuantileQuery(tau=1.0, criterion="lower").check()
    QuantileQuery(tau=0.0, criterion="upper").check()
    with pytest.raises(ConfigurationError):
        QuantileQuery(tau=0.0, criterion="lower").check()
    with pytest.raises(ConfigurationError):
        QuantileQuery(tau=1.0, criterion="upper").check()
    with pytest.raises(ConfigurationError):
        QuantileQuery(tau=0.5, criterion="median").check()
    with pytest.raises(ConfigurationError):
        QuantileQuery(tau=0.5, epsilon=0.0).check()


@pytest.mark.parametrize("setting, match", [
    ({"epsilon": math.inf}, "epsilon"), ({"epsilon": math.nan}, "epsilon"),
    ({"epsilon": -1.0}, "epsilon"), ({"epsilon": None}, "epsilon"),
    ({"epsilon": "1e-3"}, "epsilon"), ({"epsilon": True}, "epsilon"),
    ({"tau": "0.5"}, "tau"), ({"tau": None}, "tau"), ({"tau": True}, "tau"),
    ({"tau": math.nan}, "tau"),
    ({"quantile_bounds": 5}, "quantile_bounds"),
    ({"quantile_bounds": (1.0,)}, "quantile_bounds"),
    ({"quantile_bounds": "ab"}, "quantile_bounds")])
def test_query_rejects_bad_settings(setting, match):
    # with an infinite epsilon the policy sits far below the quantile the
    # report claims, so neither the solve nor the certificate may take it
    query = QuantileQuery(**{"tau": 0.1, **setting})
    with pytest.raises(ConfigurationError, match=match):
        query.check()
    m, space = small_instance(0)
    with pytest.raises(ConfigurationError, match=match):
        solve_quantile(m, space, query)
    report = solve_quantile(m, space, QuantileQuery(tau=0.1))
    with pytest.raises(ConfigurationError, match=match):
        quantile_certificate(m, space, report, query)


def test_query_accepts_numpy_numbers():
    QuantileQuery(tau=np.float64(0.5), epsilon=np.float32(1e-3),
                  quantile_bounds=[0.0, 1.0]).check()
    QuantileQuery(tau=1, epsilon=1).check()


def test_invalid_mdp_rejected():
    m = Mdp(2, 1, [[[(0, 0.5), (1, 0.4)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 2)
    from qmdp import ValidationError
    with pytest.raises(ValidationError):
        solve_quantile(m, AdditiveWealth(-1, 1), QuantileQuery(tau=0.5))


# -- iteration bound ---------------------------------------------------------------

def test_solver_respects_iteration_bound():
    m, space = small_instance(5)
    query = QuantileQuery(tau=0.3, criterion="lower", epsilon=1e-3)
    report = solve_quantile(m, space, query)
    bisection = math.ceil(math.log2(space.distance(space.w_min, space.w_max)
                                    / 1e-3))
    assert report.iterations == 1
    assert report.iterations <= bisection
    assert space.distance(*report.bracket) <= 1e-3


# -- small-instance agreement with the oracle ---------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("criterion,tau", [("lower", 0.25), ("lower", 0.75),
                                           ("upper", 0.25), ("upper", 0.75)])
def test_matches_brute_force(seed, criterion, tau):
    m, space = small_instance(seed)
    oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
    query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1e-6)
    report = solve_quantile(m, space, query)
    assert abs(report.quantile - oracle_q) <= 1e-6
    assert quantile_certificate(m, space, report, query)


def kernel(m):
    """The transition table of m, as the Mdp constructor takes it."""
    return [[(m.successors(s, a), m.probabilities(s, a))
             for a in range(m.n_actions)] for s in range(m.n_states)]


def sas_garnet(seed):
    """G(5,2,2), horizon 3, with i.i.d. uniform per-edge ("sas") rewards."""
    m = generate_garnet(GarnetConfig(5, 2, 2, seed=seed), horizon=3)
    rng = np.random.default_rng(seed)
    transitions = kernel(m)
    values = [[rng.uniform(0.0, 1.0, len(succ)).tolist() for succ, _ in row]
              for row in transitions]
    return Mdp(m.n_states, m.n_actions, transitions,
               {"kind": "sas", "values": values}, 0, 3)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("rewards,gamma", [("sa", 0.9), ("sas", 1.0),
                                           ("sas", 0.9)])
@pytest.mark.parametrize("criterion,tau", [
    ("lower", 0.1), ("lower", 0.5), ("lower", 1.0),
    ("upper", 0.0), ("upper", 0.5), ("upper", 0.9)])
def test_one_sweep_matches_oracle(seed, rewards, gamma, criterion, tau):
    m = (sas_garnet(seed) if rewards == "sas"
         else generate_garnet(GarnetConfig(5, 2, 2, seed=seed), horizon=3))
    space = (AdditiveWealth.for_mdp(m) if gamma == 1.0
             else DiscountedWealth.for_mdp(m, gamma))
    oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
    query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1e-6)
    report = solve_quantile(m, space, query)
    assert abs(report.quantile - oracle_q) <= 1e-6
    assert quantile_certificate(m, space, report, query)
    own = exact_distribution(m, space, report.policy).quantile(tau, criterion)
    assert own >= report.quantile - 1e-6


def test_finite_numeric_solve_needs_no_bounds():
    # one sweep reads q* without a bracket, so an unbounded space works
    m, space = small_instance(4)
    for criterion, tau in (("lower", 0.3), ("upper", 0.7)):
        query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1e-6)
        report = solve_quantile(m, AdditiveWealth(), query)
        assert report.quantile == solve_quantile(m, space, query).quantile
        assert quantile_certificate(m, AdditiveWealth(), report, query)


@pytest.mark.parametrize("criterion,tau", [("lower", 0.3), ("upper", 0.7)])
def test_reward_offset_moves_quantile_by_horizon_times_offset(criterion, tau):
    # every history collects T rewards, so adding c to each "sa" reward
    # moves every terminal wealth, and the optimal quantile, by T * c
    query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1e-3)
    for seed in range(4):
        m = generate_garnet(GarnetConfig(6, 2, 3, seed=seed), horizon=4)
        q = solve_quantile(m, AdditiveWealth.for_mdp(m), query).quantile
        for c in (0.37, -1.25, 10.0):
            values = [[m.reward(s, a) + c for a in range(m.n_actions)]
                      for s in range(m.n_states)]
            moved = Mdp(m.n_states, m.n_actions, kernel(m),
                        {"kind": "sa", "values": values}, 0, m.horizon)
            q_moved = solve_quantile(moved, AdditiveWealth.for_mdp(moved),
                                     query).quantile
            assert abs(q_moved - (q + m.horizon * c)) <= 1e-9, (seed, c)


def test_bracket_always_contains_optimum():
    m, space = small_instance(9)
    tau, criterion = 0.4, "lower"
    oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
    report = solve_quantile(m, space,
                            QuantileQuery(tau=tau, criterion=criterion,
                                          epsilon=1e-6))
    # replay the bracket evolution from the log
    lo, hi = space.w_min, space.w_max
    for rec in report.log:
        assert lo - 1e-12 <= oracle_q <= hi + 1e-12
        if rec.accepted:
            lo = rec.w
        else:
            hi = rec.w
    assert lo - 1e-12 <= oracle_q <= hi + 1e-12


def test_lower_le_upper_and_tau_monotone():
    m, space = small_instance(13)
    dists = []
    for atoms, _ in brute_force_distributions(m, space):
        final = {}
        for (_, wk), mass in atoms.items():
            final[wk] = final.get(wk, 0.0) + mass
        from qmdp import WealthDistribution
        dists.append(WealthDistribution.from_atoms(space, final))
    last = {"lower": -np.inf, "upper": -np.inf}
    for tau in (0.2, 0.4, 0.6, 0.8):
        best = {c: max(d.quantile(tau, c) for d in dists)
                for c in ("lower", "upper")}
        assert best["lower"] <= best["upper"] + 1e-12
        for c in ("lower", "upper"):
            assert best[c] >= last[c] - 1e-12
            last[c] = best[c]


# -- ordinal exactness ---------------------------------------------------------------

def test_prec_extraction_scenario(prec_instance):
    m, space = prec_instance
    query = QuantileQuery(tau=0.5, criterion="lower", epsilon=1.0)
    report = solve_quantile(m, space, query)
    assert report.quantile == "w2"
    d = exact_distribution(m, space, report.policy)
    assert d.quantile(0.5, "lower") == "w2"
    assert quantile_certificate(m, space, report, query)


def test_ordinal_iterations_within_log2_m(prec_instance):
    m, space = prec_instance
    report = solve_quantile(m, space, QuantileQuery(tau=0.5, criterion="lower",
                                                    epsilon=1.0))
    assert report.iterations <= math.ceil(math.log2(len(space.classes)))


def test_ordinal_small_epsilon_still_terminates(prec_instance):
    # integer bracket distances cannot go below 1; epsilon is clamped
    m, space = prec_instance
    report = solve_quantile(m, space, QuantileQuery(tau=0.5, criterion="lower",
                                                    epsilon=0.25))
    assert report.quantile == "w2"


def test_ordinal_upper_exact(prec_instance):
    m, space = prec_instance
    for tau in (0.2, 0.5, 0.8):
        oracle_q, _ = brute_force_optimal_quantile(m, space, tau, "upper")
        report = solve_quantile(m, space,
                                QuantileQuery(tau=tau, criterion="upper",
                                              epsilon=1.0))
        assert report.quantile == oracle_q


def random_ordinal_instance(seed):
    """Random 2-step ordinal MDP driven by a monotone transition table."""
    classes = ["w1", "w2", "w3", "w4", "w5"]
    table = {}
    for i, c in enumerate(classes):
        table[c] = {"up2": classes[min(i + 2, 4)],
                    "up1": classes[min(i + 1, 4)],
                    "stay": c}
    labels = ["up2", "up1", "stay"]
    rng = np.random.default_rng(seed)
    space = OrdinalWealth(classes, table)
    n_s, n_a = 3, 2
    transitions, values = [], []
    for s in range(n_s):
        trow, vrow = [], []
        for a in range(n_a):
            succ = np.sort(rng.choice(n_s, 2, replace=False))
            p = float(rng.uniform(0.2, 0.8))
            trow.append([(int(succ[0]), p), (int(succ[1]), 1.0 - p)])
            vrow.append([labels[rng.integers(0, 3)] for _ in range(2)])
        transitions.append(trow)
        values.append(vrow)
    m = Mdp(n_s, n_a, transitions, {"kind": "sas", "values": values}, 0, 2)
    return m, space


def test_ordinal_random_instances_exact():
    for seed in range(8):
        m, space = random_ordinal_instance(seed)
        assert validate(m) == []
        for tau, criterion in ((0.3, "lower"), (0.7, "lower"),
                               (0.3, "upper"), (0.7, "upper")):
            oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
            report = solve_quantile(
                m, space, QuantileQuery(tau=tau, criterion=criterion, epsilon=1.0))
            assert report.quantile == oracle_q, (seed, tau, criterion)


ORDINAL_QUERIES = [("lower", tau) for tau in (0.2, 0.3, 0.5, 0.7, 0.8, 1.0)] + [
    ("upper", tau) for tau in (0.0, 0.2, 0.3, 0.5, 0.7, 0.8)]


@pytest.mark.parametrize("seed", [None, *range(30)])
def test_ordinal_sweep_matches_oracle(seed):
    # seed None: the two-policy instance
    m, space = (two_policy_ordinal_instance() if seed is None
                else random_ordinal_instance(seed))
    classes = np.arange(len(space.classes))
    for strict in (True, False):
        # the batched sweep's p(j) is the backward induction's at class j
        p = OrdinalSweep(m, space).exceedance(classes, strict)
        expected = [backward_induction(m, space, space.unkey(j), strict)[1]
                    for j in classes]
        np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)
    for criterion, tau in ORDINAL_QUERIES:
        query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1.0)
        report = solve_quantile(m, space, query)
        oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
        assert report.quantile == oracle_q, (criterion, tau)
        assert quantile_certificate(m, space, report, query), (criterion, tau)
        own = exact_distribution(m, space, report.policy).quantile(tau, criterion)
        assert own == report.quantile, (criterion, tau)


def test_ordinal_narrow_bounds_clamp_the_quantile():
    # a bracket inside the class range clamps q*: a q* at or below the
    # bottom (or a one-class bracket) is reported at_bottom, one above the
    # top reads as the top
    m, space = random_ordinal_instance(3)
    keys = range(len(space.classes))
    for criterion, tau in ORDINAL_QUERIES:
        full = space.key(solve_quantile(m, space, QuantileQuery(
            tau=tau, criterion=criterion, epsilon=1.0)).quantile)
        for lo in keys:
            for hi in keys[lo:]:
                query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1.0,
                                      quantile_bounds=(space.unkey(lo),
                                                       space.unkey(hi)))
                report = solve_quantile(m, space, query)
                q = space.key(report.quantile)
                assert q == min(max(full, lo), hi), (criterion, tau, lo, hi)
                assert report.at_bottom == (min(full, hi) <= lo)
                b_lo, b_hi = map(space.key, report.bracket)
                assert lo <= b_lo <= q <= b_hi <= hi
                if not report.at_bottom:
                    assert quantile_certificate(m, space, report, query)
                    own = exact_distribution(m, space, report.policy).quantile(
                        tau, criterion)
                    assert space.key(own) >= q


def test_ordinal_one_class_space():
    space = OrdinalWealth(["only"], {"only": {"r": "only"}})
    m = Mdp(2, 2, [[[(0, 0.5), (1, 0.5)], [(1, 1.0)]], [[(1, 1.0)], [(0, 1.0)]]],
            {"kind": "sa", "values": [["r", "r"], ["r", "r"]]}, 0, 3)
    for criterion, tau in (("lower", 0.5), ("lower", 1.0), ("upper", 0.0),
                           ("upper", 0.5)):
        query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1.0)
        report = solve_quantile(m, space, query)
        assert report.quantile == "only"
        assert report.bracket == ("only", "only")
        assert report.at_bottom
        assert quantile_certificate(m, space, report, query)


def test_ordinal_at_bottom():
    # every history stays in the bottom class: no threshold above it passes
    m, space = two_policy_ordinal_instance()
    stuck = Mdp(2, 2, [[[(1, 1.0)], [(1, 1.0)]], [[(1, 1.0)], [(1, 1.0)]]],
                {"kind": "sa", "values": [["to_w1", "to_w1"],
                                          ["to_w1", "to_w1"]]}, 0, 2)
    for criterion, bracket in (("lower", ("w1", "w1")), ("upper", ("w1", "w2"))):
        query = QuantileQuery(tau=0.5, criterion=criterion, epsilon=1.0)
        report = solve_quantile(stuck, space, query)
        assert report.at_bottom
        assert report.quantile == "w1"
        assert report.bracket == bracket
        assert report.extra_solves == 0
        # the policy is the one at the bottom class
        assert report.log[0].w == "w1"
        assert quantile_certificate(stuck, space, report, query)


def test_ordinal_policy_pass_matches_backward_induction():
    for seed in range(4):
        m, space = random_ordinal_instance(seed)
        for criterion, tau in (("lower", 0.3), ("upper", 0.7)):
            report = solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, epsilon=1.0))
            policy, p, _ = backward_induction(m, space, report.log[0].w,
                                              criterion == "lower")
            assert report.log[0].p == pytest.approx(p, abs=1e-12)
            assert all(np.array_equal(a, b)
                       for a, b in zip(report.policy.table, policy.table))


def many_class_instance(n_classes=300, seed=0):
    """Random 3-step ordinal MDP whose labels jump by up to 60 classes."""
    steps = {"down40": -40, "down3": -3, "stay": 0, "up7": 7, "up60": 60}
    classes = [f"c{i:03d}" for i in range(n_classes)]
    top = n_classes - 1
    table = {c: {label: classes[min(top, max(0, i + d))]
                 for label, d in steps.items()} for i, c in enumerate(classes)}
    space = OrdinalWealth(classes, table, w0=classes[n_classes // 2])
    rng = np.random.default_rng(seed)
    labels = list(steps)
    n_s, n_a = 5, 3
    transitions, values = [], []
    for s in range(n_s):
        trow, vrow = [], []
        for a in range(n_a):
            k = int(rng.integers(1, 4))
            succ = np.sort(rng.choice(n_s, k, replace=False)).astype(np.int64)
            prob = rng.dirichlet(np.ones(k))
            trow.append((succ, prob))
            vrow.append([labels[i] for i in rng.integers(0, len(labels), k)])
        transitions.append(trow)
        values.append(vrow)
    m = Mdp(n_s, n_a, transitions, {"kind": "sas", "values": values}, 0, 3)
    return m, space


def restricted_sweep_instance(seed):
    """Random ordinal MDP on 10 classes whose start reaches only some of
    them: "sa" or "sas" labels by seed parity, w0 at the bottom, middle or
    top class, T from 1 to 6, pairs of 1 to 3 successors (so the gather
    table has padding), saturating steps of -2..+2 and, on most seeds, a
    label that maps the classes in no order."""
    rng = np.random.default_rng(seed)
    n = 10
    classes = [f"k{i}" for i in range(n)]
    maps = {f"step{d}": [min(n - 1, max(0, i + d)) for i in range(n)]
            for d in (-2, -1, 0, 1, 2)}
    if seed % 4:
        maps["shuffle"] = rng.integers(0, n, n).tolist()
    table = {c: {label: classes[to[i]] for label, to in maps.items()}
             for i, c in enumerate(classes)}
    w0 = classes[(0, n // 2, n - 1)[seed // 2 % 3]]
    space = OrdinalWealth(classes, table, w0=w0)
    labels = list(maps)
    n_s, n_a = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    transitions, values = [], []
    for s in range(n_s):
        trow, vrow = [], []
        for a in range(n_a):
            k = int(rng.integers(1, min(3, n_s) + 1))
            succ = np.sort(rng.choice(n_s, k, replace=False)).astype(np.int64)
            trow.append((succ, rng.dirichlet(np.ones(k))))
            vrow.append([labels[i] for i in rng.integers(0, len(labels), k)])
        transitions.append(trow)
        values.append(vrow)
    if seed % 2:
        rewards = {"kind": "sas", "values": values}
    else:
        rewards = {"kind": "sa", "values": [[row[0] for row in vrow]
                                            for vrow in values]}
    return Mdp(n_s, n_a, transitions, rewards, 0, 1 + seed % 6), space


def test_restricted_sweep_equals_backward_induction(monkeypatch):
    # the sweep computes only the classes w0 reaches, one column per
    # distinct terminal split, in blocks of two columns; every p(j) is
    # bit-identical to the single-target pass over every class, and so to
    # backward_induction's p, which it reads off the same sweep
    from qmdp import dp
    seen = set()
    for seed in range(48):
        m, space = restricted_sweep_instance(seed)
        assert validate(m) == []
        classes = np.arange(len(space.classes))
        reach, gathers = OrdinalSweep(m, space)._reach()
        monkeypatch.setattr(dp, "BLOCK_FLOATS",
                            2 * max(g.size for g in gathers))
        for strict in (True, False):
            sweep = OrdinalSweep(m, space)
            full = [sweep.backward_induction(j, strict)[1] for j in classes]
            # targets in any order, repeats included
            twice = sweep.exceedance(np.r_[classes[::-1], classes], strict)
            assert twice.tolist() == full[::-1] + full, (seed, strict)
            p = twice[len(classes):]
            for j in classes:
                p_j = backward_induction(m, space, space.unkey(j), strict)[1]
                assert p[j] == p_j, (seed, strict, j)
            splits = np.searchsorted(reach, classes,
                                     side="right" if strict else "left")
            if len(np.unique(splits)) > 2:
                seen.add("blocks")
        seen.update(where for where, hit in (
            ("below", classes[0] < reach[0]), ("above", reach[-1] < classes[-1]),
            ("gap", len(reach) < reach[-1] - reach[0] + 1)) if hit)
    assert seen == {"blocks", "below", "above", "gap"}


def test_ordinal_backward_induction_p_is_the_sweeps():
    # backward_induction reads p off its dense class sweep, not off the
    # merged slice table (where a class within VALUE_TOL of the one below
    # it carries that class's value): the float OrdinalSweep hands out
    for seed in range(200):
        m, space = restricted_sweep_instance(seed)
        sweep = OrdinalSweep(m, space)
        for strict in (True, False):
            for j, c in enumerate(space.classes):
                want = sweep.backward_induction(j, strict)[1]
                got = backward_induction(m, space, c, strict)[1]
                assert got.hex() == want.hex(), (seed, strict, j)


@pytest.mark.parametrize("block_floats", [1, 100_000])
def test_ordinal_blocks_give_the_same_report(monkeypatch, block_floats):
    from qmdp import dp
    m, space = many_class_instance()
    classes = np.arange(len(space.classes))

    def solve_all():
        out = []
        for criterion, tau in (("lower", 0.3), ("lower", 0.7),
                               ("upper", 0.3), ("upper", 0.7)):
            report = solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, epsilon=1.0))
            out.append((report.quantile, report.bracket, report.at_bottom,
                        [(r.w, r.p, r.accepted) for r in report.log],
                        [a.tolist() for a in report.policy.table]))
        return out, [OrdinalSweep(m, space).exceedance(classes, strict)
                     for strict in (True, False)]

    monkeypatch.setattr(dp, "BLOCK_FLOATS", 1 << 40)
    one_block, p_one = solve_all()
    monkeypatch.setattr(dp, "BLOCK_FLOATS", block_floats)
    blocked, p_blocked = solve_all()
    assert blocked == one_block
    for a, b in zip(p_blocked, p_one):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
    for quantile, *_ in one_block:
        assert 0 < space.key(quantile) < len(classes) - 1
    for strict, p in zip((True, False), p_one):
        for j in classes[::37]:
            _, p_j, _ = backward_induction(m, space, space.unkey(j), strict)
            assert abs(p[j] - p_j) <= 1e-12


@pytest.mark.parametrize("strict", [True, False])
def test_dense_policy_table_equals_backward_induction(strict):
    # both take the lowest action within VALUE_TOL of the best, so a tie
    # at rounding level does not go to whichever action summed higher
    m, space = many_class_instance()
    sweep = OrdinalSweep(m, space)
    for target in range(len(space.classes)):
        dense, p_dense = sweep.backward_induction(target, strict)
        policy, p, _ = backward_induction(m, space, space.unkey(target), strict)
        assert abs(p_dense - p) <= 1e-12
        assert all(np.array_equal(a, b)
                   for a, b in zip(dense.table, policy.table)), target


@pytest.mark.parametrize("criterion", ["lower", "upper"])
def test_ordinal_solve_count(monkeypatch, criterion):
    # one batched sweep over the bracket and one policy pass: no
    # functional backward induction, no bisection
    from qmdp import solver
    calls = []
    real_bi = solver.backward_induction
    real_sweep = OrdinalSweep.exceedance
    real_policy = OrdinalSweep.backward_induction

    def counting_bi(*args):
        calls.append("backward_induction")
        return real_bi(*args)

    def counting_sweep(self, *args):
        calls.append("exceedance")
        return real_sweep(self, *args)

    def counting_policy(self, *args):
        calls.append("policy")
        return real_policy(self, *args)

    monkeypatch.setattr(solver, "backward_induction", counting_bi)
    monkeypatch.setattr(OrdinalSweep, "exceedance", counting_sweep)
    monkeypatch.setattr(OrdinalSweep, "backward_induction", counting_policy)
    instances = ([two_policy_ordinal_instance()]
                 + [random_ordinal_instance(seed) for seed in range(8)])
    for m, space in instances:
        for tau in (0.2, 0.3, 0.5, 0.7, 0.8):
            calls.clear()
            report = solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, epsilon=1.0))
            assert calls == ["exceedance", "policy"]
            assert report.iterations == len(report.log) == 1
            assert report.extra_solves == 0


def test_solve_counts_per_wealth_kind(monkeypatch):
    # finite numeric: one backward induction; ordinal: the dense sweep, no
    # backward induction; infinite horizon: one value iteration
    from qmdp import solver
    calls = []
    real_bi, real_vi = solver.backward_induction, solver.value_iteration

    def counting_bi(*args):
        calls.append("backward_induction")
        return real_bi(*args)

    def counting_vi(*args, **kwargs):
        calls.append("value_iteration")
        return real_vi(*args, **kwargs)

    monkeypatch.setattr(solver, "backward_induction", counting_bi)
    monkeypatch.setattr(solver, "value_iteration", counting_vi)
    m = generate_garnet(GarnetConfig(6, 2, 3, seed=4), horizon=4)
    for space in (AdditiveWealth.for_mdp(m), DiscountedWealth.for_mdp(m, 0.9)):
        for criterion, tau in (("lower", 0.3), ("upper", 0.7)):
            calls.clear()
            report = solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, epsilon=1e-6))
            assert calls == ["backward_induction"]
            assert report.iterations == len(report.log) == 1
            assert report.extra_solves == 0

    m, space = random_ordinal_instance(2)
    for criterion, tau in (("lower", 0.3), ("upper", 0.7)):
        calls.clear()
        report = solve_quantile(m, space, QuantileQuery(
            tau=tau, criterion=criterion, epsilon=1.0))
        assert calls == []
        assert report.iterations == len(report.log) == 1
        assert report.extra_solves == 0

    for lattice, bounds in ((NEG_LATTICE, (-10.0, 0.0)), (POS_LATTICE, (0.0, 10.0))):
        m = random_lattice_mdp(1, lattice=lattice)
        for criterion, tau in (("lower", 0.3), ("upper", 0.7)):
            calls.clear()
            report = solve_quantile(m, AdditiveWealth.for_mdp(m), QuantileQuery(
                tau=tau, criterion=criterion, epsilon=1e-3,
                quantile_bounds=bounds))
            assert calls == ["value_iteration"]
            assert report.iterations == len(report.log) == 1
            assert report.extra_solves == 0


# -- degenerate paths -----------------------------------------------------------------

def test_at_bottom_flag():
    # single policy, point mass at 1.0; bracket forced wider by the override
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [0.0]]}, 0, 1)
    space = AdditiveWealth.for_mdp(m)
    query = QuantileQuery(tau=0.5, criterion="lower", epsilon=1e-2,
                          quantile_bounds=(1.0, 2.0))
    report = solve_quantile(m, space, query)
    assert report.at_bottom
    assert report.quantile == 1.0
    assert quantile_certificate(m, space, report, query)


def test_tau_one_lower_returns_max_support():
    m, space = small_instance(3)
    query = QuantileQuery(tau=1.0, criterion="lower", epsilon=1e-6)
    report = solve_quantile(m, space, query)
    d = exact_distribution(m, space, report.policy)
    assert d.quantile(1.0, "lower") == d.support[-1][0]
    assert quantile_certificate(m, space, report, query)
    oracle_q, _ = brute_force_optimal_quantile(m, space, 1.0, "lower")
    assert abs(report.quantile - oracle_q) <= 1e-6


def test_certificate_rejects_bad_policy():
    m, space = small_instance(2)
    tau, criterion = 0.6, "lower"
    query = QuantileQuery(tau=tau, criterion=criterion, epsilon=1e-6)
    report = solve_quantile(m, space, query)
    assert quantile_certificate(m, space, report, query)
    # flip every action at every decision point of the first step
    flipped = [_flip(report.policy.rule(t, s), m.n_actions)
               for t in range(m.horizon) for s in range(m.n_states)]
    report.policy = WealthMarkovPolicy(pack(flipped, np.int64), m.n_states)
    d = exact_distribution(m, space, report.policy)
    lo = report.bracket[0]
    should_hold = d.cdf(lo) < tau
    assert quantile_certificate(m, space, report, query) == should_hold


def test_certificate_uses_the_quantile_slack():
    # the masses 0.7, 0.2 and 0.1 of wealths 0, 1 and 2 sum to 1 - 1.1e-16
    m = Mdp(3, 1, [[[(0, 0.7), (1, 0.2), (2, 0.1)]], [[(1, 1.0)]], [[(2, 1.0)]]],
            {"kind": "sas", "values": [[[0.0, 1.0, 2.0]], [[0.0]], [[0.0]]]},
            0, 1)
    space = AdditiveWealth.for_mdp(m)
    policy = WealthMarkovPolicy.from_markov([[0, 0, 0]])

    def certified(tau, criterion, lo):
        report = SolveReport(policy=policy, quantile=lo, bracket=(lo, lo),
                             iterations=1)
        return quantile_certificate(m, space, report, QuantileQuery(
            tau=tau, criterion=criterion, epsilon=1e-6))

    # the policy's own upper 0-quantile is 0 and its lower 1-quantile is 2
    assert certified(0.0, "upper", 0.0)
    assert certified(1.0, "lower", 1.5)
    assert not certified(1.0, "lower", 2.0)


def one_step_instance(probs, rewards):
    """Horizon 1, one action: state 0 moves to state i with probability
    probs[i] and reward rewards[i]; every other state loops on itself."""
    transitions = [[list(enumerate(probs))]] + [[[(s, 1.0)]]
                                                for s in range(1, len(probs))]
    values = [[list(rewards)]] + [[[r]] for r in rewards[1:]]
    return Mdp(len(probs), 1, transitions, {"kind": "sas", "values": values},
               0, 1)


@pytest.mark.parametrize("probs, rewards, tau, criterion", [
    ([0.3, 0.7], [1.0, 0.0], 0.7, "upper"),
    ([0.1, 0.2, 0.4, 0.3], [1.0, 1.0, 1.0, 0.0], 0.3, "lower"),
    ([0.3, 0.7], ["up", "stay"], 0.7, "upper"),
], ids=["upper", "lower", "ordinal-upper"])
def test_threshold_test_at_exact_ties(probs, rewards, tau, criterion):
    # the exceedance probability equals 1 - tau but sums a rounding step
    # off it, so the test needs the slack that quantile() allows
    m = one_step_instance(probs, rewards)
    if isinstance(rewards[0], str):
        space = OrdinalWealth(["lo", "hi"], {
            c: {"up": "hi", "stay": c} for c in ("lo", "hi")})
    else:
        space = AdditiveWealth.for_mdp(m)
    query = QuantileQuery(tau=tau, criterion=criterion)
    report = solve_quantile(m, space, query)
    oracle_q, _ = brute_force_optimal_quantile(m, space, tau, criterion)
    assert report.quantile == oracle_q
    assert quantile_certificate(m, space, report, query)


def _flip(rule, n_actions):
    return StepFunction(n_actions - 1 - rule.base, rule.x, rule.e == 0,
                        n_actions - 1 - rule.v)


@pytest.mark.parametrize("bounds", [("-1", "3"), (True, 3.0), (None, 1.0),
                                    (-1.0, math.nan), (0.0, 10**400)],
                         ids=lambda bounds: repr(bounds)[:16])
def test_quantile_bounds_are_wealth_values(bounds):
    # numeric bounds are wealth values: a string float() would parse, a
    # bool, None, NaN and an integer past float range are usage errors
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=0), horizon=2)
    discounted = two_state_discounted_mdp()
    for m_w, space in ((m, AdditiveWealth.for_mdp(m)),
                       (discounted, DiscountedWealth.for_mdp(discounted, 0.9))):
        with pytest.raises(ConfigurationError, match="real number|NaN"):
            solve_quantile(m_w, space, QuantileQuery(0.5, quantile_bounds=bounds))


# -- infinite horizon ---------------------------------------------------------------

def test_infinite_requires_bounds():
    m = random_lattice_mdp(1)
    space = AdditiveWealth.for_mdp(m)
    with pytest.raises(ConfigurationError):
        solve_quantile(m, space, QuantileQuery(tau=0.3, criterion="upper"))


def test_infinite_solve_stationary():
    m = random_lattice_mdp(1)
    space = AdditiveWealth.for_mdp(m)
    query = QuantileQuery(tau=0.3, criterion="upper",
                          epsilon=1e-3, quantile_bounds=(-10.0, 0.0))
    report = solve_quantile(m, space, query)
    assert report.policy.stationary
    assert report.stationary
    assert report.sweeps > 0
    assert space.distance(*report.bracket) <= 1e-3


# the twins of seeds 1, 5, 10 and 13 keep most quantiles inside (0, 10);
# most others can avoid the sink forever and pass every threshold
@pytest.mark.parametrize("lattice,bounds,seed", [
    *((NEG_LATTICE, (-10.0, 0.0), seed) for seed in range(4)),
    *((POS_LATTICE, (0.0, 10.0), seed) for seed in (1, 5, 10, 13))])
def test_infinite_quantile_is_largest_passing_threshold(lattice, bounds, seed):
    # a direct value iteration at the policy's target passes the test and
    # one at q* + epsilon fails, unless q* is at the top of the bracket
    m = random_lattice_mdp(seed, lattice=lattice)
    space = AdditiveWealth.for_mdp(m)
    eps = 1e-3
    for criterion in ("lower", "upper"):
        strict = criterion == "lower"
        for tau in (0.1, 0.5, 0.9):
            report = solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, epsilon=eps,
                quantile_bounds=bounds))
            test = (lambda p: p > 1 - tau) if strict else (lambda p: p >= 1 - tau)
            w_pol, q = report.bracket
            assert report.log[0].w == w_pol
            assert q - eps <= w_pol <= q
            _, p_pol, _ = value_iteration(m, space, w_pol, strict)
            assert test(p_pol) == (not report.at_bottom)
            assert report.log[0].accepted == (not report.at_bottom)
            if q < bounds[1]:
                _, p_above, _ = value_iteration(m, space, q + eps, strict)
                assert not test(p_above)
            # every unabsorbed history has moved more than 10 by step 41,
            # so 44 steps give the policy's exact exceedance in the bracket
            own = exact_distribution(m.with_horizon(44), space,
                                     report.policy).quantile(tau, criterion)
            assert own >= q - eps
            if q < bounds[1]:
                assert own <= q


def test_infinite_base_piece_passes_gives_bracket_top():
    # nonnegative rewards: one step pays 1, then the sink; every threshold
    # in (0, 0.5) passes, including the bracket top
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [0.0]]}, 0, None)
    space = AdditiveWealth.for_mdp(m)
    for criterion in ("lower", "upper"):
        report = solve_quantile(m, space, QuantileQuery(
            tau=0.5, criterion=criterion, epsilon=1e-3,
            quantile_bounds=(0.0, 0.5)))
        assert report.quantile == 0.5
        assert not report.at_bottom
        assert report.log[0].accepted
        assert report.policy.stationary


def test_infinite_quantile_at_or_below_bracket_is_at_bottom():
    # one step costs 1 for sure: q* = -1 lies below the bracket (-0.5, 0)
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[-1.0], [0.0]]}, 0, None)
    space = AdditiveWealth.for_mdp(m)
    report = solve_quantile(m, space, QuantileQuery(
        tau=0.5, criterion="upper", epsilon=1e-3, quantile_bounds=(-0.5, 0.0)))
    assert report.at_bottom
    assert report.quantile == -0.5
    assert report.bracket == (-0.5, -0.5)
    assert not report.log[0].accepted
    # q* = -1 at the bracket bottom: the policy still targets the bottom,
    # the lowest wealth the clipped slices hold exactly
    report = solve_quantile(m, space, QuantileQuery(
        tau=0.5, criterion="upper", epsilon=1e-3, quantile_bounds=(-1.0, 0.0)))
    assert report.at_bottom
    assert report.quantile == -1.0
    assert report.bracket == (-1.0, -1.0)
    assert report.log[0].accepted


def test_infinite_policy_has_no_cuts_beyond_reachable_wealth():
    for lattice, bounds in ((NEG_LATTICE, (-10.0, 0.0)), (POS_LATTICE, (0.0, 10.0))):
        m = random_lattice_mdp(3, lattice=lattice)
        report = solve_quantile(m, AdditiveWealth.for_mdp(m), QuantileQuery(
            tau=0.5, criterion="lower", epsilon=1e-3, quantile_bounds=bounds))
        for rule in map(report.policy.rule, [0] * m.n_states,
                        range(m.n_states)):
            if lattice is NEG_LATTICE:
                assert np.all((rule.x < 0) | ((rule.x == 0) & (rule.e == 0)))
            else:
                assert np.all((rule.x > 0) | ((rule.x == 0) & (rule.e == 1)))


@pytest.mark.parametrize("seed", [13, 16])
def test_infinite_rejects_degenerate_taus(seed):
    # these tests compare p against exactly 1 or 0, which the stopped
    # iterate's error decides: seed 13's upper 0-quantile used to read
    # -7.2504 while its policy's own 0-quantile is -12.25
    m = random_lattice_mdp(seed)
    space = AdditiveWealth.for_mdp(m)
    for criterion, tau in (("upper", 0.0), ("lower", 1.0)):
        with pytest.raises(ConfigurationError):
            solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, quantile_bounds=(-10.0, 0.0)))


def test_infinite_rejects_mixed_signs():
    m = generate_garnet(GarnetConfig(4, 2, 2, reward_low=-1, reward_high=1,
                                     seed=0), horizon=None)
    space = AdditiveWealth(-5, 5)
    with pytest.raises(ConfigurationError):
        solve_quantile(m, space, QuantileQuery(tau=0.3, criterion="upper",
                                               quantile_bounds=(-5.0, 5.0)))


@pytest.mark.parametrize("horizon", [5, None])
@pytest.mark.parametrize("setting", [
    {"eps_conv": float("nan")}, {"eps_conv": -1.0}, {"eps_conv": float("inf")},
    {"max_sweeps": 0}, {"max_sweeps": -3},
    {"eps_conv": None}, {"eps_conv": "1e-6"}, {"eps_conv": True}])
def test_bad_convergence_settings_rejected_at_every_horizon(setting, horizon):
    # finite solves never iterate, yet a bad setting is a usage error there too
    m = random_lattice_mdp(0, horizon=horizon)
    query = QuantileQuery(tau=0.5, quantile_bounds=(-3.0, 0.0))
    with pytest.raises(ConfigurationError, match=next(iter(setting))):
        solve_quantile(m, AdditiveWealth(-10.0, 0.0), query, **setting)


def test_zero_convergence_tolerance_is_valid_at_every_horizon():
    m = random_lattice_mdp(0)
    query = QuantileQuery(tau=0.5, quantile_bounds=(-3.0, 0.0))
    for horizon in (5, None):
        report = solve_quantile(m.with_horizon(horizon), AdditiveWealth(-10.0, 0.0),
                                query, eps_conv=0.0, max_sweeps=1000)
        assert report.stationary == (horizon is None)


# -- a problem keeps its set-up across queries ---------------------------------

import hashlib  # noqa: E402

from qmdp import ValidationError, dp, load_problem, save_problem  # noqa: E402
from qmdp.serialize import save_policy  # noqa: E402
from conftest import benchmark_workloads  # noqa: E402

TAUS_BY_CRITERION = [(tau, criterion) for tau in (0.1, 0.5, 0.9)
                     for criterion in ("lower", "upper")]


def answer(m, space, query, path):
    """A solve's quantile, bracket, at_bottom flag and log, and the sha256
    of its policy file."""
    report = solve_quantile(m, space, query)
    save_policy(path, report.policy, space)
    return (report.quantile, report.bracket, report.at_bottom,
            [(r.w, r.p, r.accepted) for r in report.log],
            hashlib.sha256(path.read_bytes()).hexdigest())


def fresh(m, space, path):
    """A freshly loaded copy of the problem (m, space)."""
    save_problem(path, m, space)
    return load_problem(path)


def assert_answers_as_fresh_loads(m, space, queries, tmp_path, rounds=2):
    """Every query, asked ``rounds`` times of m, answers as it does on a
    fresh load of the problem."""
    problem = tmp_path / "problem.json"
    save_problem(problem, m, space)
    for _ in range(rounds):
        for query in queries:
            assert (answer(m, space, query, tmp_path / "kept.json")
                    == answer(*load_problem(problem), query,
                              tmp_path / "fresh.json")), query


def test_the_benchmark_queries_answer_on_a_kept_problem_as_on_fresh_loads(
        tmp_path):
    engines = {}
    for name, workload in benchmark_workloads().items():
        m, space = fresh(*workload.build(1), tmp_path / f"{name}.json")
        assert_answers_as_fresh_loads(
            m, space, [q.to_query() for q in workload.queries], tmp_path)
        engines[name] = type(m._memo.get("dense", (None, None))[1]).__name__
    assert engines == {"garnet": "NoneType", "datacenter": "_DenseSweep",
                       "ordinal": "OrdinalSweep", "lattice-inf": "_DenseSweep"}


def engine_instance(engine, seed):
    """(m, space, bounds) of a random problem that ``engine`` solves."""
    if engine == "cut loop":
        m, space = small_instance(seed)
        return m, space, None
    if engine == "dense finite":
        m = random_lattice_mdp(seed, horizon=4)
        return m, AdditiveWealth.for_mdp(m), None
    if engine == "ordinal":
        return (*restricted_sweep_instance(seed), None)
    return random_lattice_mdp(seed), AdditiveWealth(-10.0, 0.0), (-10.0, 0.0)


@pytest.mark.parametrize("engine", ["cut loop", "dense finite", "ordinal",
                                    "dense lattice"])
def test_repeated_queries_answer_as_fresh_loads_on_every_engine(tmp_path,
                                                                 engine):
    for seed in range(3):
        m, space, bounds = engine_instance(engine, seed)
        queries = [QuantileQuery(tau, criterion, quantile_bounds=bounds)
                   for tau, criterion in TAUS_BY_CRITERION]
        assert_answers_as_fresh_loads(m, space, queries, tmp_path)
        sweep = m._memo["dense"][1]
        assert {"cut loop": sweep is None,
                "dense finite": type(sweep) is dp._DenseSweep,
                "ordinal": type(sweep) is OrdinalSweep,
                "dense lattice": type(sweep) is dp._DenseSweep
                }[engine], (engine, seed)
        assert ("reachable" in m._memo) == (m.horizon is not None
                                            and engine != "ordinal")


def test_a_horizon_copy_neither_sees_nor_fills_the_memo_of_its_source(
        tmp_path):
    m = random_lattice_mdp(2, horizon=4)
    space = AdditiveWealth(-10.0, 0.0)
    query = QuantileQuery(0.5, quantile_bounds=(-10.0, 0.0))
    for h in (4, 6, None):
        clone = m.with_horizon(h)
        want = answer(*fresh(clone, space, tmp_path / "p.json"), query,
                      tmp_path / "b.json")
        assert answer(clone, space, query, tmp_path / "a.json") == want, h
        assert answer(m, space, query, tmp_path / "a.json") == answer(
            *fresh(m, space, tmp_path / "p.json"), query, tmp_path / "b.json")
        assert clone._memo["dense"][1] is not m._memo["dense"][1]


@pytest.mark.parametrize("budget", ["DENSE_FLOATS", "BLOCK_FLOATS"])
def test_a_budget_set_after_a_solve_takes_effect(monkeypatch, tmp_path,
                                                 budget):
    m, space, bounds = engine_instance(
        "dense finite" if budget == "DENSE_FLOATS" else "dense lattice", 0)
    query = QuantileQuery(0.5, quantile_bounds=bounds)
    target = 0.0 if bounds is None else bounds[0]
    window = None if bounds is None else dp.reachable_window(m, space)
    answer(m, space, query, tmp_path / "a.json")
    assert dp._DenseSweep.fit(m, space, target, window) is not None
    monkeypatch.setattr(dp, budget, 1)
    assert dp._DenseSweep.fit(m, space, target, window) is None
    layers = []
    kernel = dp._layer
    monkeypatch.setattr(dp, "_layer", lambda *a, **kw: layers.append(1)
                        or kernel(*a, **kw))
    assert answer(m, space, query, tmp_path / "a.json") == answer(
        *fresh(m, space, tmp_path / "p.json"), query, tmp_path / "b.json")
    assert layers


def test_two_ordinal_spaces_on_one_mdp_get_their_own_sweeps(tmp_path):
    # another start class, and another class table from the same start
    m, space = restricted_sweep_instance(0)
    classes = space.classes
    moved = OrdinalWealth(classes, space.transition_table,
                          w0=classes[-1 - space.index(space.w0)])
    flipped = OrdinalWealth(classes, {c: {r: classes[-1 - space.index(x)]
                                          for r, x in row.items()}
                                      for c, row in space.transition_table.items()},
                            w0=space.w0)
    assert moved.w0 != space.w0
    queries = [QuantileQuery(tau, criterion)
               for tau, criterion in TAUS_BY_CRITERION]
    for _ in range(2):
        for sp in (space, moved, flipped):
            assert_answers_as_fresh_loads(m, sp, queries, tmp_path, rounds=1)
    moves = [OrdinalSweep.fit(m, sp, 0.0).grid.moves.tolist()
             for sp in (space, moved, flipped)]
    assert moves[0] == moves[1] != moves[2]


def test_an_invalid_problem_raises_on_every_call():
    m = Mdp(2, 1, [[[(0, 0.5), (1, 0.6)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.0], [0.0]]}, 0, 2)
    for _ in range(3):
        with pytest.raises(ValidationError, match="sum to 1.1"):
            solve_quantile(m, AdditiveWealth.for_mdp(m), QuantileQuery(0.5))
