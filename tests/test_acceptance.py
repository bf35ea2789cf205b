"""End-to-end acceptance checks.

Each test covers one gate criterion and prints a one-line PASS summary
with the measured numbers (run with ``pytest -v -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest

from qmdp import (AdditiveWealth, GarnetConfig, Mdp, OrdinalWealth,
                  QuantileQuery, WealthDistribution, WealthMarkovPolicy,
                  backward_induction, brute_force_distributions,
                  exact_distribution, generate_garnet, quantile_certificate,
                  simulate, solve_quantile,
                  standard_backward_induction, value_iteration)
from qmdp.stepfun import combine, pointwise_max, shift, sup_distance
from conftest import (random_lattice_mdp, two_policy_ordinal_instance,
                      two_state_discounted_mdp)
from test_stepfun import random_step, sample_points

DiscountedWealth = pytest.importorskip("qmdp").DiscountedWealth


def marginal(space, atoms):
    final = {}
    for (_, wk), mass in atoms.items():
        final[wk] = final.get(wk, 0.0) + mass
    return WealthDistribution.from_atoms(space, final)


@pytest.fixture(scope="module")
def garnet_oracle_runs():
    """100 seeded G(4,2,2) horizon-3 instances solved at eps=1e-6 against
    the exhaustive policy-enumeration oracle (shared by criteria 4 and 5)."""
    records = []
    for seed in range(100):
        m = generate_garnet(GarnetConfig(4, 2, 2, seed=seed), horizon=3)
        space = AdditiveWealth.for_mdp(m)
        dists = [marginal(space, atoms)
                 for atoms, _ in brute_force_distributions(m, space)]
        # the worst-case bisection count ceil(log2(d(w_min, w_max) / eps))
        bound = math.ceil(math.log2(space.distance(space.w_min, space.w_max)
                                    / 1e-6))
        for tau in (0.1, 0.5, 0.9):
            for criterion in ("lower", "upper"):
                oracle_q = max(space.key(d.quantile(tau, criterion))
                               for d in dists)
                query = QuantileQuery(tau=tau, criterion=criterion,
                                      epsilon=1e-6)
                report = solve_quantile(m, space, query)
                records.append({
                    "seed": seed, "tau": tau, "criterion": criterion,
                    "gap": abs(space.key(report.quantile) - oracle_q),
                    "certified": quantile_certificate(m, space, report, query),
                    "iterations": report.iterations, "bound": bound,
                })
    return records


def test_criterion_01_example1_quantiles():
    start = time.perf_counter()
    space = OrdinalWealth(["w1", "w2", "w3"])
    d = WealthDistribution.from_atoms(space, {0.0: 0.5, 1.0: 0.2, 2.0: 0.3})
    assert d.quantile(0.5, "lower") == "w1"
    assert d.quantile(0.5, "upper") == "w2"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: Example-1 quantiles (w1, w2) in {elapsed:.3f}s")


def test_criterion_02_discounted_example_quantiles():
    start = time.perf_counter()
    m = two_state_discounted_mdp(horizon=2)
    space = DiscountedWealth.for_mdp(m, 0.9)
    policies = {
        "risky-always": WealthMarkovPolicy.from_markov([[0, 0], [0, 0]]),
        "safe-always": WealthMarkovPolicy.from_markov([[1, 0], [1, 0]]),
        "risky-then-safe": WealthMarkovPolicy.from_markov([[0, 0], [1, 0]]),
    }
    q = {name: exact_distribution(m, space, pol).quantile(0.95, "lower")
         for name, pol in policies.items()}
    # exact up to one float addition: 1 + 0.9*(-1) rounds to 0.1 - 5.6e-17
    assert q["risky-always"] == pytest.approx(0.1, abs=1e-12)
    assert q["safe-always"] == 1.0
    assert q["risky-then-safe"] == 1.9
    # no stationary Markovian policy reaches 1.9
    stationary_best = max(q["risky-always"], q["safe-always"])
    assert stationary_best < 1.9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: 0.95-quantiles (0.1, 1, 1.9); stationary best "
          f"{stationary_best} < 1.9; {elapsed:.3f}s")


def test_criterion_03_prec_extraction():
    start = time.perf_counter()
    m, space = two_policy_ordinal_instance()
    query = QuantileQuery(tau=0.5, criterion="lower", epsilon=1.0)
    report = solve_quantile(m, space, query)
    assert report.quantile == "w2"
    own = exact_distribution(m, space, report.policy).quantile(0.5, "lower")
    assert own == "w2"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: ordinal lower policy attains w2 in {elapsed:.3f}s")


def test_criterion_04_oracle_equivalence(garnet_oracle_runs):
    worst = max(r["gap"] for r in garnet_oracle_runs)
    uncertified = [r for r in garnet_oracle_runs if not r["certified"]]
    assert worst <= 1e-6
    assert not uncertified
    print(f"\nPASS criterion 4: {len(garnet_oracle_runs)} solves, worst "
          f"|solver - oracle| = {worst:.2e}, all certificates hold")


def test_criterion_05_iteration_bound(garnet_oracle_runs):
    over = [r for r in garnet_oracle_runs if r["iterations"] > r["bound"]]
    assert not over
    assert all(r["iterations"] == 1 for r in garnet_oracle_runs)
    worst = max(r["iterations"] for r in garnet_oracle_runs)
    bound = garnet_oracle_runs[0]["bound"]
    # ordinal instances never exceed ceil(log2 m)
    m, space = two_policy_ordinal_instance()
    for tau in (0.2, 0.5, 0.8):
        for criterion in ("lower", "upper"):
            rep = solve_quantile(m, space, QuantileQuery(
                tau=tau, criterion=criterion, epsilon=1.0))
            assert rep.iterations <= math.ceil(math.log2(len(space.classes)))
            assert rep.iterations == 1
    print(f"\nPASS criterion 5: iterations <= bound on every run "
          f"(worst {worst}, numeric bound {bound}); ordinal <= ceil(log2 m)")


def test_criterion_06_quantile_vs_expectation():
    start = time.perf_counter()
    # demo 03's instance: a seeded 80% of the rewards shrink 20-fold, so
    # most are small and a few stay large
    base = generate_garnet(GarnetConfig(100, 5, 7, seed=3), horizon=5)
    rewards = base.reward_table.copy()
    rewards[np.random.default_rng(3).random(rewards.shape) < 0.8] *= 0.05
    m = Mdp(base.n_states, base.n_actions,
            [[(base.successors(s, a), base.probabilities(s, a))
              for a in range(base.n_actions)] for s in range(base.n_states)],
            {"kind": "sa", "values": rewards.tolist()}, base.initial_state,
            base.horizon)
    space = AdditiveWealth.for_mdp(m)
    report = solve_quantile(m, space, QuantileQuery(tau=0.1,
                                                    criterion="lower",
                                                    epsilon=1e-3))
    actions, _ = standard_backward_induction(m)
    std_policy = WealthMarkovPolicy.from_markov(actions.tolist())
    d_qnt = exact_distribution(m, space, report.policy)
    d_std = exact_distribution(m, space, std_policy)
    q_qnt, q_std = d_qnt.quantile(0.1, "lower"), d_std.quantile(0.1, "lower")
    assert q_qnt >= q_std - 1e-12
    assert d_std.mean() >= d_qnt.mean() - 1e-12
    assert q_qnt > q_std or d_std.mean() > d_qnt.mean()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 6: 0.1-quantile {q_qnt:.4f} >= {q_std:.4f}, "
          f"mean {d_std.mean():.4f} >= {d_qnt.mean():.4f} (both strict); "
          f"{elapsed:.1f}s")


def test_criterion_07_monte_carlo_consistency():
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(2024)
    worst_sigma = 0.0
    for trial in range(10):
        m = generate_garnet(GarnetConfig(5, 2, 3, seed=300 + trial), horizon=3)
        space = AdditiveWealth.for_mdp(m)
        w = float(rng.uniform(space.w_min, space.w_max))
        strict = bool(rng.integers(0, 2))
        policy, p, _ = backward_induction(m, space, w, strict)
        samples = simulate(m, space, policy, n, seed=600 + trial)
        emp = float(np.mean(samples > w)) if strict else float(np.mean(samples >= w))
        band = 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
        assert abs(emp - p) <= band + 1e-9
        if band > 0:
            worst_sigma = max(worst_sigma, abs(emp - p) / (band / 3.0))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 7: 10 pairs within 3 sigma of the DP value "
          f"(worst {worst_sigma:.2f} sigma); {elapsed:.1f}s")


def test_criterion_08_infinite_horizon_truncation():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        m = random_lattice_mdp(seed)
        space = AdditiveWealth(-10.0, 0.0)
        w = -1.3
        policy, p_inf, _ = value_iteration(m, space, w, strict=False,
                                           eps_conv=1e-6)
        _, p_200, _ = backward_induction(m.with_horizon(200), space, w,
                                         strict=False)
        worst = max(worst, abs(p_inf - p_200))
        assert policy.stationary
        assert abs(p_inf - p_200) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(f"\nPASS criterion 8: 20 instances, worst |p_inf - p_200| = "
          f"{worst:.2e}, all policies stationary; {elapsed:.1f}s")


def test_criterion_09_scaling_budget():
    m = generate_garnet(GarnetConfig(250, 5, 8, seed=1), horizon=5)
    space = AdditiveWealth.for_mdp(m)
    start = time.perf_counter()
    report = solve_quantile(m, space, QuantileQuery(tau=0.1,
                                                    criterion="lower",
                                                    epsilon=1e-3))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    assert report.iterations <= math.ceil(
        math.log2(space.distance(space.w_min, space.w_max) / 1e-3))
    assert report.iterations == 1
    # runtime trend over the state grid: reported, not asserted
    trend = []
    for n in (50, 100, 250):
        cfg = GarnetConfig(n, 5, max(1, math.ceil(math.log2(n))), seed=1)
        mg = generate_garnet(cfg, horizon=5)
        sg = AdditiveWealth.for_mdp(mg)
        w = 0.5 * (sg.w_min + sg.w_max)
        reps = []
        for _ in range(2):
            t0 = time.perf_counter()
            backward_induction(mg, sg, w, strict=False)
            reps.append(time.perf_counter() - t0)
        trend.append((n, sum(reps) / len(reps)))
    monotone = all(b[1] >= a[1] for a, b in zip(trend, trend[1:]))
    print(f"\nPASS criterion 9: full G(250,5,8) solve in {elapsed:.1f}s "
          f"(< 600s), {report.iterations} iterations; runtime trend "
          f"{[(n, round(s, 3)) for n, s in trend]} "
          f"{'monotone' if monotone else 'NOT monotone (reported only)'}")


def test_criterion_10_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    sp = AdditiveWealth()

    # step-function algebra, >= 1000 randomized cases per operation
    for case in range(1000):
        f, g = random_step(rng, max_pieces=4), random_step(rng, max_pieces=4)
        pts = sample_points(rng, [f, g], n=10)
        r = float(rng.uniform(-2, 2))
        shifted = shift(f, r, 0, sp)
        direct = f.eval_many(pts + r)
        assert np.abs(shifted.eval_many(pts) - direct).max() < 1e-12
        lam = float(rng.uniform(0.0, 1.0))
        c = combine([(lam, f), (1.0 - lam, g)])
        mix = lam * f.eval_many(pts) + (1.0 - lam) * g.eval_many(pts)
        assert np.abs(c.eval_many(pts) - mix).max() < 1e-12
        env, _ = pointwise_max([f, g])
        hi = np.maximum(f.eval_many(pts), g.eval_many(pts))
        assert np.abs(env.eval_many(pts) - hi).max() < 1e-12
        d = sup_distance(f, g)
        assert np.abs(f.eval_many(pts) - g.eval_many(pts)).max() <= d + 1e-12

    # distribution invariants, >= 1000 randomized distributions
    for case in range(1000):
        n = int(rng.integers(1, 10))
        raw = rng.random(n) + 1e-3
        d = WealthDistribution.from_atoms(
            sp, zip(rng.normal(size=n) * 2, raw / raw.sum()))
        assert d.total() == pytest.approx(1.0, abs=1e-9)
        pts = np.sort(np.concatenate([d.keys, rng.normal(size=5) * 2]))
        F = np.array([d.cdf(w) for w in pts])
        G = np.array([d.decumulative(w) for w in pts])
        assert np.all(np.diff(F) >= -1e-12)
        assert np.all(np.diff(G) <= 1e-12)
        for w in pts:
            assert d.strict_decumulative(w) == 1.0 - d.cdf(w)
        tau = float(rng.uniform(0.05, 0.95))
        assert d.quantile(tau, "lower") <= d.quantile(tau, "upper")

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 10: 1000 algebra cases x 4 ops and 1000 "
          f"distribution cases, zero failures; {elapsed:.1f}s")
