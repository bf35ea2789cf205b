import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmdp import (AdditiveWealth, ConfigurationError, DiscountedWealth,
                  GarnetConfig, Mdp, OrdinalWealth, QuantileQuery,
                  ResourceLimitError, StepFunction, WealthDistribution,
                  WealthMarkovPolicy, backward_induction,
                  brute_force_optimal_quantile, exact_distribution,
                  generate_garnet, simulate, solve_quantile,
                  standard_backward_induction, validate, ValidationError)
from qmdp.evaluate import merge_atoms
from qmdp.wealth import WEALTH_TOL
from conftest import pack, random_lattice_mdp, two_state_discounted_mdp


def example1_distribution():
    space = OrdinalWealth(["w1", "w2", "w3"])
    d = WealthDistribution.from_atoms(space, {0.0: 0.5, 1.0: 0.2, 2.0: 0.3})
    return space, d


def random_markov_policy(m, seed):
    rng = np.random.default_rng(seed)
    acts = rng.integers(0, m.n_actions, size=(m.horizon, m.n_states))
    return WealthMarkovPolicy.from_markov(acts.tolist())


# -- distributions ------------------------------------------------------------

def test_paper_policy_distribution(paper_mdp, paper_space):
    # risky action first, then the safe one
    pol = WealthMarkovPolicy.from_markov([[0, 0], [1, 0]])
    d = exact_distribution(paper_mdp, paper_space, pol)
    assert d.support == [(-1.0, pytest.approx(0.9)), (1.9, pytest.approx(0.1))]


def test_deterministic_chain_point_mass():
    m = Mdp(3, 1, [[[(1, 1.0)]], [[(2, 1.0)]], [[(2, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [-1.0], [0.0]]}, 0, 2)
    sp = AdditiveWealth.for_mdp(m)
    d = exact_distribution(m, sp, WealthMarkovPolicy.from_markov([[0] * 3] * 2))
    assert d.support == [(0.0, 1.0)]


@pytest.mark.parametrize("seed", range(10))
def test_distribution_normalization(seed):
    m = generate_garnet(GarnetConfig(6, 3, 3, seed=seed), horizon=4)
    sp = AdditiveWealth.for_mdp(m)
    d = exact_distribution(m, sp, random_markov_policy(m, seed))
    assert d.total() == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.probs > 0)
    assert np.all(np.diff(d.keys) > 0)


def test_atom_cap():
    m = generate_garnet(GarnetConfig(6, 2, 3, seed=0), horizon=4)
    sp = AdditiveWealth.for_mdp(m)
    with pytest.raises(ResourceLimitError):
        exact_distribution(m, sp, random_markov_policy(m, 0), atom_cap=5)


def test_infinite_horizon_rejected():
    m = two_state_discounted_mdp(horizon=None)
    sp = AdditiveWealth(-5, 5)
    with pytest.raises(ConfigurationError):
        exact_distribution(m, sp, WealthMarkovPolicy.from_markov([0, 0],
                                                                 stationary=True))


LABEL_STEPS = {"down": -1, "stay": 0, "up": 1}


def relabelled_garnet(seed, reward_kind, ordinal):
    """G(5,2,3) with horizon 4 and fresh "sa" or "sas" rewards.

    Ordinal instances draw reward labels that move one class down, stay or
    move up on five classes, saturating at both ends, starting mid-range.
    """
    g = generate_garnet(GarnetConfig(5, 2, 3, seed=seed), horizon=4)
    rng = np.random.default_rng(seed)

    def draw(n):
        if ordinal:
            return rng.choice(sorted(LABEL_STEPS), n).tolist()
        return rng.uniform(-1, 1, n).tolist()

    transitions = [[(g.successors(s, a), g.probabilities(s, a))
                    for a in range(g.n_actions)] for s in range(g.n_states)]
    if reward_kind == "sa":
        values = [draw(g.n_actions) for _ in range(g.n_states)]
    else:
        values = [[draw(len(g.successors(s, a))) for a in range(g.n_actions)]
                  for s in range(g.n_states)]
    m = Mdp(g.n_states, g.n_actions, transitions,
            {"kind": reward_kind, "values": values}, 0, g.horizon)
    if ordinal:
        classes = [f"w{i}" for i in range(5)]
        table = {c: {label: classes[min(4, max(0, i + step))]
                     for label, step in LABEL_STEPS.items()}
                 for i, c in enumerate(classes)}
        return m, OrdinalWealth(classes, table, w0="w2")
    if reward_kind == "sa":
        return m, AdditiveWealth.for_mdp(m)
    return m, DiscountedWealth.for_mdp(m, 0.9)


def random_wealth_policy(m, space, rng, stationary=False):
    """Decision rules with random cuts, some exactly on reachable keys: one
    per (t, s), or one per state when ``stationary``."""
    lo, hi = (0, 4) if space.kind == "ordinal" else (-2, 2)
    rules = []
    for _ in range(1 if stationary else m.horizon):
        row = []
        for _ in range(m.n_states):
            n = int(rng.integers(0, 4))
            x = rng.integers(lo, hi + 1, n) + rng.choice([0.0, 0.5], n)
            row.append(StepFunction(int(rng.integers(m.n_actions)), x,
                                    rng.random(n) < 0.5,
                                    rng.integers(0, m.n_actions, n)))
        rules.append(row)
    return WealthMarkovPolicy(pack([f for row in rules for f in row], np.int64),
                              m.n_states, stationary)


def reshaped(m, seed, ragged_rows, quarters):
    """m with "sas" rewards, rebuilt.  ``ragged_rows`` cuts each pair to
    its first 1 to 3 edges, renormalized, and gives about a third of the
    pairs left with two or more a zero-probability first edge: rows of
    every degree up to the widest, padded in the slot layout, and edges
    that carry no mass.  ``quarters`` rounds numeric rewards to multiples
    of 0.25, a lattice that additive wealth evaluates as a chain."""
    rng = np.random.default_rng(seed)
    transitions, values = [], []
    for s in range(m.n_states):
        rows, labels = [], []
        for a in range(m.n_actions):
            succ, prob = m.successors(s, a), m.probabilities(s, a)
            rewards = m.edge_rewards(s, a)
            if ragged_rows:
                n = int(rng.integers(1, len(succ) + 1))
                succ, prob, rewards = succ[:n], prob[:n] / prob[:n].sum(), rewards[:n]
                if n > 1 and rng.random() < 1 / 3:
                    prob[1] += prob[0]
                    prob[0] = 0.0
            if quarters:
                rewards = [round(4 * r) / 4 for r in rewards]
            rows.append((succ, prob))
            labels.append(rewards)
        transitions.append(rows)
        values.append(labels)
    return Mdp(m.n_states, m.n_actions, transitions,
               {"kind": "sas", "values": values}, m.initial_state, m.horizon)


def enumerated_distribution(m, space, policy):
    """Terminal distribution from every history, folded with space.accumulate."""
    leaves = []

    def walk(t, s, w, p):
        if t == m.horizon:
            leaves.append((space.key(w), p))
            return
        a = policy.action(t, s, space.key(w))
        for sp, q, r in zip(m.successors(s, a), m.probabilities(s, a),
                            m.edge_rewards(s, a)):
            walk(t + 1, int(sp), space.accumulate(w, r, t), p * q)

    walk(0, m.initial_state, space.w0, 1.0)
    return WealthDistribution.from_atoms(space, leaves)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("reward_kind, ordinal", [
    ("sa", False), ("sas", False), ("sas", True), ("sa", True)],
    ids=["sa-additive", "sas-discounted", "sas-ordinal", "sa-ordinal"])
def test_exact_distribution_matches_history_enumeration(reward_kind, ordinal,
                                                         seed):
    m, space = relabelled_garnet(seed, reward_kind, ordinal)
    policy = random_wealth_policy(m, space, np.random.default_rng(seed))
    d = exact_distribution(m, space, policy)
    ref = enumerated_distribution(m, space, policy)
    assert len(d) == len(ref)
    np.testing.assert_allclose(d.keys, ref.keys, rtol=0, atol=1e-9)
    np.testing.assert_allclose(d.probs, ref.probs, rtol=0, atol=1e-12)


def exact_by_pairs(m, space, policy):
    """Reference forward pass: each (state, action) group in ascending pair
    order moves along its edges through the accessors, edge-major."""
    states = np.array([m.initial_state])
    keys, masses = np.array([space.key(space.w0)]), np.ones(1)
    for t in range(m.horizon):
        pair = states * m.n_actions + np.array(
            [policy.action(t, s, k) for s, k in zip(states, keys)])
        out = []
        for p in np.unique(pair).tolist():
            idx = np.flatnonzero(pair == p)
            s, a = divmod(p, m.n_actions)
            for sp, q, r in zip(m.successors(s, a), m.probabilities(s, a),
                                m.edge_rewards(s, a)):
                out.extend((sp, space.key(space.accumulate(
                    space.unkey(keys[i]), r, t)), q * masses[i]) for i in idx)
        s_, k_, p_ = zip(*out)
        states, keys, masses = merge_atoms(np.array(s_), np.array(k_),
                                           np.array(p_))
    return WealthDistribution(space, keys, masses)


def chain_by_rows(m, space, policy, grid):
    """Reference chain on ``grid``: each step visits the (state, cell) rows
    that hold mass in row order, and each edge of a row's pair in edge
    order, adding its share to the destination row's mass in turn; the
    terminal rows become atoms, merged as the atom path merges them."""
    C = len(grid.keys)
    mass = np.zeros(m.n_states * C)
    mass[m.initial_state * C + grid.w0] = 1.0
    for t in range(m.horizon):
        nxt = np.zeros_like(mass)
        for row in np.flatnonzero(mass).tolist():
            s, c = divmod(row, C)
            a = policy.action(t, s, grid.keys[c])
            for sp, q, r in zip(m.successors(s, a), m.probabilities(s, a),
                                m.edge_rewards(s, a)):
                k = space.key(space.accumulate(space.unkey(grid.keys[c]), r, t))
                cell = int(np.searchsorted(grid.keys, k))
                assert grid.keys[cell] == k
                nxt[sp * C + cell] += q * mass[row]
        mass = nxt
    rows = np.flatnonzero(mass)
    return WealthDistribution(space, grid.keys[rows % C], mass[rows])


PAIR_LOOP_CASES = [(reward_kind, kind, stationary, ragged_rows)
                   for reward_kind, kind in [
                       ("sa", "additive"), ("sas", "discounted"),
                       ("sas", "lattice"), ("sas", "ordinal"), ("sa", "ordinal")]
                   for stationary in (False, True)
                   for ragged_rows in (False, True)]


@pytest.mark.parametrize(
    "reward_kind, kind, stationary, ragged_rows", PAIR_LOOP_CASES,
    ids=["-".join([f"{r}-{k}"] + ["stationary"] * s + ["ragged"] * g)
         for r, k, s, g in PAIR_LOOP_CASES])
def test_exact_distribution_matches_pair_loop_bit_for_bit(
        reward_kind, kind, stationary, ragged_rows):
    # each path adds the same masses in the same order as its reference,
    # whatever each pair's degree, and the pads of the slot layout and the
    # zero-probability edges add none: the atom path as the loop over
    # pairs, the chain as the loop over its rows
    from qmdp.evaluate import _atom_distribution, _WealthChain
    m, space = relabelled_garnet(6, reward_kind, kind == "ordinal")
    if ragged_rows or kind == "lattice":
        m = reshaped(m, 6, ragged_rows, kind == "lattice")
    if kind == "lattice":
        space = AdditiveWealth.for_mdp(m)
    if ragged_rows:
        assert len(set(np.diff(m.starts).tolist())) == 3 and (m.prob == 0).any()
    policy = random_wealth_policy(m, space, np.random.default_rng(6),
                                  stationary)
    ref = exact_by_pairs(m, space, policy)
    atoms = _atom_distribution(m, space, policy, 10_000_000)
    assert atoms.keys.tobytes() == ref.keys.tobytes()
    assert atoms.probs.tobytes() == ref.probs.tobytes()
    chain = _WealthChain.fit(m, space, policy)
    assert (chain is None) == (kind in ("additive", "discounted"))
    if chain is not None:
        ref = chain_by_rows(m, space, policy, chain.grid)
    d = exact_distribution(m, space, policy)
    assert d.keys.tobytes() == ref.keys.tobytes()
    assert d.probs.tobytes() == ref.probs.tobytes()


# -- cumulatives ---------------------------------------------------------------

def test_example1_cumulatives():
    _, d = example1_distribution()
    assert d.cdf("w1") == 0.5
    assert d.decumulative("w2") == 0.5
    assert d.cdf("w3") == 1.0
    assert d.decumulative("w1") == 1.0


def test_strict_decumulative_identity():
    space, d = example1_distribution()
    for w in space.classes:
        assert d.strict_decumulative(w) == 1.0 - d.cdf(w)


def test_cumulative_monotonicity_random():
    rng = np.random.default_rng(5)
    sp = AdditiveWealth()
    for _ in range(50):
        n = int(rng.integers(1, 12))
        raw = rng.random(n) + 1e-3
        d = WealthDistribution.from_atoms(
            sp, zip(rng.normal(size=n) * 3, raw / raw.sum()))
        pts = np.sort(np.concatenate([d.keys, rng.normal(size=20) * 3]))
        F = [d.cdf(w) for w in pts]
        G = [d.decumulative(w) for w in pts]
        assert all(b >= a - 1e-12 for a, b in zip(F, F[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(G, G[1:]))


def test_atom_merge_keeps_smaller_representative():
    sp = AdditiveWealth()
    d = WealthDistribution.from_atoms(sp, [(1.0, 0.5), (1.0 + 1e-10, 0.5)])
    assert len(d) == 1
    assert d.keys[0] == 1.0
    assert d.probs[0] == 1.0


@pytest.mark.parametrize("gap,n", [(WEALTH_TOL * 1.000001, 2),
                                   (0.5 * WEALTH_TOL, 1)])
def test_atoms_and_cuts_share_one_tolerance(gap, n):
    # just over WEALTH_TOL apart stays two atoms, half of it merges into
    # the smaller one, as for two cuts on one side
    keys = np.array([0.5, 0.5 + gap])
    states, merged, masses = merge_atoms(np.zeros(2, dtype=np.int64), keys,
                                         np.array([0.25, 0.75]))
    assert merged.tolist() == keys[:n].tolist()
    assert masses.tolist() == ([0.25, 0.75] if n == 2 else [1.0])
    d = WealthDistribution(AdditiveWealth(), keys, [0.25, 0.75])
    assert len(d) == n
    assert len(StepFunction(0.0, keys, [True, True], [0.25, 0.75])) == n


def test_infinite_atoms_merge_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, keys, masses = merge_atoms(
            np.array([0, 0, 0, 1, 1]),
            np.array([np.inf, -np.inf, np.inf, -np.inf, -np.inf]),
            np.full(5, 0.2))
    assert states.tolist() == [0, 0, 1]
    assert keys.tolist() == [-np.inf, np.inf, -np.inf]
    assert masses.tolist() == [0.2, 0.4, 0.4]


def test_keys_whose_gap_overflows_stay_apart_without_warnings():
    # 1.7e308 - -1.7e308 overflows to inf: two cuts, two atoms
    keys = np.array([-1.7e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = StepFunction(0.0, keys, [True, True], [0.5, 1.0])
        _, merged, masses = merge_atoms(np.zeros(2, dtype=np.int64), keys,
                                        np.array([0.5, 0.5]))
    assert f.x.tolist() == keys.tolist()
    assert merged.tolist() == keys.tolist()
    assert masses.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("w", ["0.5", None, True, float("nan")], ids=repr)
def test_cumulatives_read_wealth_values_only(w):
    # a string float() would parse and a bool are not wealth values
    d = WealthDistribution.from_atoms(AdditiveWealth(), {0.0: 0.5, 1.0: 0.5})
    for f in (d.cdf, d.decumulative, d.strict_decumulative):
        with pytest.raises(ConfigurationError, match="real number|NaN"):
            f(w)


def test_from_atoms_validation():
    sp = AdditiveWealth()
    with pytest.raises(ValueError):
        WealthDistribution.from_atoms(sp, {0.0: 0.5})          # mass missing
    with pytest.raises(ValueError):
        WealthDistribution.from_atoms(sp, {0.0: 1.5, 1.0: -0.5})


# -- quantiles --------------------------------------------------------------------

def test_example1_quantiles():
    _, d = example1_distribution()
    assert d.quantile(0.5, "lower") == "w1"
    assert d.quantile(0.5, "upper") == "w2"


def test_point_mass_quantiles():
    sp = AdditiveWealth()
    d = WealthDistribution.from_atoms(sp, {1.5: 1.0})
    for tau in (0.1, 0.5, 0.9):
        assert d.quantile(tau, "lower") == 1.5
        assert d.quantile(tau, "upper") == 1.5


def test_paper_policies_095_quantiles(paper_mdp, paper_space):
    risky = WealthMarkovPolicy.from_markov([[0, 0], [0, 0]])
    safe = WealthMarkovPolicy.from_markov([[1, 0], [1, 0]])
    mixed = WealthMarkovPolicy.from_markov([[0, 0], [1, 0]])
    q = {}
    for name, pol in (("risky", risky), ("safe", safe), ("mixed", mixed)):
        d = exact_distribution(paper_mdp, paper_space, pol)
        q[name] = d.quantile(0.95, "lower")
    assert q["risky"] == pytest.approx(0.1, abs=1e-12)
    assert q["safe"] == 1.0
    assert q["mixed"] == 1.9


def test_quantile_range_validation():
    _, d = example1_distribution()
    with pytest.raises(ValueError):
        d.quantile(0.0, "lower")
    with pytest.raises(ValueError):
        d.quantile(1.0, "upper")
    with pytest.raises(ValueError):
        d.quantile(0.5, "median")


def test_lower_le_upper_random():
    rng = np.random.default_rng(9)
    sp = AdditiveWealth()
    for _ in range(100):
        n = int(rng.integers(1, 10))
        raw = rng.random(n) + 1e-3
        d = WealthDistribution.from_atoms(
            sp, zip(rng.normal(size=n) * 2, raw / raw.sum()))
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert d.quantile(tau, "lower") <= d.quantile(tau, "upper")


def test_mean_on_ordinal_rejected():
    _, d = example1_distribution()
    with pytest.raises(ConfigurationError):
        d.mean()


# -- simulate ----------------------------------------------------------------------

def test_simulate_deterministic_history():
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[0.75], [0.25]]}, 0, 2)
    sp = AdditiveWealth.for_mdp(m)
    samples = simulate(m, sp, WealthMarkovPolicy.from_markov([[0, 0]] * 2),
                       200, seed=1)
    assert np.all(samples == 1.0)


def test_simulate_rejects_a_pair_without_transitions():
    # validate() reports the empty row; simulate must not borrow the next
    # pair's edges for it
    m = Mdp(2, 2, [[[(1, 1.0)], []], [[(1, 1.0)], [(1, 1.0)]]],
            {"kind": "sas", "values": [[[1.0], []], [[0.0], [0.0]]]}, 0, 2)
    policy = WealthMarkovPolicy.from_markov([[1, 0], [0, 0]])
    with pytest.raises(ValidationError):
        simulate(m, AdditiveWealth(-5, 5), policy, 10)


def test_simulate_rejects_only_an_empty_row_it_takes():
    # pair (s=0, a=1) has no edges; pair (s=1, a=1) has no edges either
    m = Mdp(2, 2, [[[(1, 1.0)], []], [[(1, 1.0)], []]],
            {"kind": "sas", "values": [[[1.0], []], [[0.0], []]]}, 0, 2)
    space = AdditiveWealth(-5, 5)
    # a policy that never takes an empty pair samples, as it evaluates
    never = WealthMarkovPolicy.from_markov([[0, 1], [0, 0]])
    assert exact_distribution(m, space, never).support == [(1.0, 1.0)]
    assert simulate(m, space, never, 10).tolist() == [1.0] * 10
    # one that takes one gets exact evaluation's error, at the same step
    for acts, message in (([[1, 0], [0, 0]], r"\(s=0, a=1\): .* at t=0"),
                          ([[0, 0], [0, 1]], r"\(s=1, a=1\): .* at t=1")):
        policy = WealthMarkovPolicy.from_markov(acts)
        for run in (exact_distribution, lambda *a: simulate(*a, 10)):
            with pytest.raises(ValidationError, match=f"^{message}$") as err:
                run(m, space, policy)
            assert "empty transition row, taken" in str(err.value)


def test_exact_distribution_names_a_pair_without_transitions():
    # the atom taking the empty row used to vanish, and the lost mass
    # failed later as a bare "probabilities sum to 0.0"
    m = Mdp(3, 2, [[[(1, 1.0)], []], [[(2, 1.0)], [(2, 1.0)]],
                   [[(2, 1.0)], [(2, 1.0)]]],
            {"kind": "sas", "values": [[[1.0], []], [[0.0], [0.0]],
                                       [[0.0], [0.0]]]}, 0, 2)
    policy = WealthMarkovPolicy.from_markov([[1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValidationError, match=r"\(s=0, a=1\).*t=0"):
        exact_distribution(m, AdditiveWealth(-5, 5), policy)


def test_simulate_seed_determinism(paper_mdp, paper_space):
    pol = WealthMarkovPolicy.from_markov([[0, 0], [1, 0]])
    a = simulate(paper_mdp, paper_space, pol, 500, seed=42)
    b = simulate(paper_mdp, paper_space, pol, 500, seed=42)
    assert np.array_equal(a, b)
    c = simulate(paper_mdp, paper_space, pol, 500, seed=43)
    assert not np.array_equal(a, c)


def test_simulate_matches_backward_induction():
    m = generate_garnet(GarnetConfig(5, 2, 3, seed=17), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    w = 0.5 * (sp.w_min + sp.w_max)
    pol, p, _ = backward_induction(m, sp, w, strict=False)
    samples = simulate(m, sp, pol, 100_000, seed=3)
    emp = float(np.mean(samples >= w))
    assert abs(emp - p) <= 3 * np.sqrt(max(p * (1 - p), 1e-12) / 100_000) + 1e-9


def test_simulate_matches_exact_distribution_ks():
    m = generate_garnet(GarnetConfig(5, 2, 3, seed=23), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    pol = random_markov_policy(m, 23)
    d = exact_distribution(m, sp, pol)
    n = 100_000
    samples = np.sort(simulate(m, sp, pol, n, seed=5))
    # one-sample KS at 99%: critical value 1.628 / sqrt(n)
    prefix = np.cumsum(d.probs)
    worst = 0.0
    for i, k in enumerate(d.keys):
        emp_at = np.searchsorted(samples, k + 1e-12) / n
        emp_before = np.searchsorted(samples, k - 1e-12) / n
        worst = max(worst, abs(emp_at - prefix[i]),
                    abs(emp_before - (prefix[i] - d.probs[i])))
    assert worst <= 1.628 / np.sqrt(n)


@pytest.mark.parametrize("reward_kind, ordinal", [
    ("sa", False), ("sas", False), ("sas", True), ("sa", True)],
    ids=["sa-additive", "sas-discounted", "sas-ordinal", "sa-ordinal"])
def test_simulate_matches_exact_distribution_every_kind(reward_kind, ordinal):
    m, space = relabelled_garnet(3, reward_kind, ordinal)
    policy = random_wealth_policy(m, space, np.random.default_rng(3))
    d = exact_distribution(m, space, policy)
    n = 50_000
    samples = np.sort(simulate(m, space, policy, n, seed=11))
    # one-sample KS at 99% over the atoms: critical value 1.628 / sqrt(n)
    below = np.searchsorted(samples, d.keys - 1e-9) / n
    at = np.searchsorted(samples, d.keys + 1e-9) / n
    prefix = np.cumsum(d.probs)
    worst = max(np.abs(at - prefix).max(), np.abs(below - prefix + d.probs).max())
    assert worst <= 1.628 / np.sqrt(n)


def test_pick_edges_is_a_clamped_searchsorted():
    # draws on and next to every cumulative sum, and past the row's total
    from qmdp.evaluate import _pick_edges
    m = generate_garnet(GarnetConfig(5, 2, 4, seed=3), horizon=2)
    pairs, draws, want = [], [], []
    for p in range(m.n_states * m.n_actions):
        cum = np.cumsum(m.prob[m.starts[p]:m.starts[p + 1]])
        u = np.concatenate(([0.0, 0.5], cum, np.nextafter(cum, 0),
                            np.nextafter(cum, 2)))
        pairs += [p] * len(u)
        draws += u.tolist()
        want += (m.starts[p] + np.minimum(
            np.searchsorted(cum, u, side="right"), len(cum) - 1)).tolist()
    assert _pick_edges(m, np.array(pairs), np.array(draws)).tolist() == want


def simulate_by_pairs(m, space, policy, n, seed):
    """Reference: each (state, action) group in ascending pair order draws
    its uniforms and searches its own cumulative row through the accessors."""
    rng = np.random.default_rng(seed)
    states = np.full(n, m.initial_state)
    wk = np.full(n, space.key(space.w0))
    for t in range(m.horizon):
        pair = states * m.n_actions + np.array(
            [policy.action(t, s, k) for s, k in zip(states, wk)])
        nxt = states.copy()
        for p in np.unique(pair).tolist():
            idx = np.flatnonzero(pair == p)
            s, a = divmod(p, m.n_actions)
            cum = np.cumsum(m.probabilities(s, a))
            picks = np.minimum(np.searchsorted(cum, rng.random(len(idx)),
                                               side="right"), len(cum) - 1)
            for i, j in zip(idx, picks):
                w = space.accumulate(space.unkey(wk[i]), m.edge_rewards(s, a)[j], t)
                wk[i], nxt[i] = space.key(w), m.successors(s, a)[j]
        states = nxt
    return wk


@pytest.mark.parametrize("reward_kind, ordinal", [
    ("sa", False), ("sas", False), ("sas", True), ("sa", True)],
    ids=["sa-additive", "sas-discounted", "sas-ordinal", "sa-ordinal"])
def test_simulate_matches_pair_loop_sample_for_sample(reward_kind, ordinal):
    # the same random stream, the same edge searches, the same wealth sums
    m, space = relabelled_garnet(5, reward_kind, ordinal)
    policy = random_wealth_policy(m, space, np.random.default_rng(5))
    assert np.array_equal(simulate(m, space, policy, 3000, seed=2),
                          simulate_by_pairs(m, space, policy, 3000, seed=2))


# -- brute force oracle ----------------------------------------------------------

def test_brute_force_single_action():
    m = Mdp(2, 1, [[[(0, 0.5), (1, 0.5)]], [[(1, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [0.0]]}, 0, 2)
    sp = AdditiveWealth.for_mdp(m)
    q, pol = brute_force_optimal_quantile(m, sp, 0.5, "lower")
    d = exact_distribution(m, sp, WealthMarkovPolicy.from_markov([[0, 0]] * 2))
    assert q == d.quantile(0.5, "lower")


def test_brute_force_paper_example(paper_mdp, paper_space):
    q, pol = brute_force_optimal_quantile(paper_mdp, paper_space, 0.95, "lower")
    assert q == 1.9
    d = exact_distribution(paper_mdp, paper_space, pol)
    assert d.quantile(0.95, "lower") == 1.9


def test_brute_force_policy_cap():
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=1), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    with pytest.raises(ResourceLimitError):
        brute_force_optimal_quantile(m, sp, 0.5, "lower", policy_cap=3)


# -- standard backward induction -----------------------------------------------------

def test_standard_bi_one_step_greedy():
    m = Mdp(2, 2, [[[(1, 1.0)], [(1, 1.0)]], [[(1, 1.0)], [(1, 1.0)]]],
            {"kind": "sa", "values": [[0.2, 0.9], [0.0, 0.0]]}, 0, 1)
    actions, values = standard_backward_induction(m)
    assert actions[0][0] == 1
    assert values[0][0] == pytest.approx(0.9)


def test_standard_bi_zero_rewards():
    m = generate_garnet(GarnetConfig(4, 2, 2, reward_low=0, reward_high=0,
                                     seed=0), horizon=3)
    actions, values = standard_backward_induction(m)
    assert np.all(values == 0.0)
    assert np.all(actions == 0)    # ties break to the lowest index


@pytest.mark.parametrize("seed", range(50))
def test_standard_bi_mean_matches_distribution(seed):
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=1000 + seed), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    actions, values = standard_backward_induction(m)
    d = exact_distribution(m, sp, WealthMarkovPolicy.from_markov(actions.tolist()))
    assert d.mean() == pytest.approx(values[0][m.initial_state], abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_dominance_between_criteria(seed):
    # the expectation-optimal policy wins on means, the quantile-optimal
    # policy wins on the tau-quantile, on every instance
    from qmdp import QuantileQuery, solve_quantile
    m = generate_garnet(GarnetConfig(5, 3, 2, seed=40 + seed), horizon=3)
    sp = AdditiveWealth.for_mdp(m)
    tau = 0.25
    report = solve_quantile(m, sp, QuantileQuery(tau=tau, criterion="lower",
                                                 epsilon=1e-6))
    actions, _ = standard_backward_induction(m)
    d_qnt = exact_distribution(m, sp, report.policy)
    d_std = exact_distribution(m, sp,
                               WealthMarkovPolicy.from_markov(actions.tolist()))
    assert d_std.mean() >= d_qnt.mean() - 1e-9
    assert d_qnt.quantile(tau, "lower") >= d_std.quantile(tau, "lower") - 1e-9


def test_standard_bi_expected_sas_rewards(paper_mdp):
    actions, values = standard_backward_induction(paper_mdp)
    # expectation-optimal play in s0 is the sure reward both steps:
    # a1 yields 0.1*1 + 0.9*(-1) = -0.8 per step, a2 yields 1
    assert actions[0][0] == 1 and actions[1][0] == 1
    assert values[0][0] == pytest.approx(1.0)


def _standard_bi_by_pairs(m):
    """Reference: the expected-reward recursion one (s, a) pair at a time."""
    T, S, A = m.horizon, m.n_states, m.n_actions
    values = np.zeros((T + 1, S))
    actions = np.zeros((T, S), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        for s in range(S):
            q = [(m.reward(s, a) if m.reward_kind == "sa" else
                  m.probabilities(s, a) @ np.asarray(m.edge_rewards(s, a)))
                 + m.probabilities(s, a) @ values[t + 1][m.successors(s, a)]
                 for a in range(A)]
            actions[t, s] = int(np.argmax(q))
            values[t, s] = q[actions[t, s]]
    return actions, values


@pytest.mark.parametrize("make", [
    lambda: generate_garnet(GarnetConfig(30, 4, 5, seed=7), horizon=6),
    lambda: two_state_discounted_mdp(horizon=5),
], ids=["garnet-sa", "sas"])
def test_standard_bi_matches_pair_loop(make):
    # the edge-table sums add in another order than a per-pair dot product
    m = make()
    actions, values = standard_backward_induction(m)
    ref_actions, ref_values = _standard_bi_by_pairs(m)
    assert np.array_equal(actions, ref_actions)
    assert np.allclose(values, ref_values, rtol=0, atol=1e-12)


# -- actions from the policy table --------------------------------------------

def actions_per_state(policy, t, states, keys):
    """Reference: one boolean mask and one ``eval_many`` per distinct state."""
    actions = np.empty(len(states), dtype=np.int64)
    for s in np.unique(states).tolist():
        mask = states == s
        actions[mask] = policy.rule(t, s).eval_many(keys[mask])
    return actions


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("stationary", [False, True])
def test_table_actions_equal_per_rule_lookup(seed, stationary):
    from qmdp.evaluate import _actions
    rng = np.random.default_rng(seed)
    S, T = 5, 1 if stationary else 3
    grid = np.array([-1.0, 0.0, 0.5, 2.0])
    rows = []
    for _ in range(T):
        # an atom (both sides at one key) and an exclusive cut, then rules
        # with no cut or random ones
        row = [StepFunction(1, [0.0, 0.0, 2.0], [True, False, False], [2, 3, 0])]
        for _ in range(S - 1):
            n = int(rng.integers(0, 6))
            row.append(StepFunction(int(rng.integers(4)), rng.choice(grid, n),
                                    rng.random(n) < 0.5,
                                    rng.integers(0, 4, n)))
        rows.append(row)
    policy = WealthMarkovPolicy(pack([f for row in rows for f in row], np.int64),
                                S, stationary)
    cuts = np.unique(np.concatenate([f.x for row in rows for f in row]))
    # on every cut, between cuts, just off them and at both infinities
    keys = np.concatenate((cuts, (cuts[1:] + cuts[:-1]) / 2,
                           np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf),
                           [-np.inf, np.inf]))
    states = np.repeat(np.arange(S), len(keys))
    keys = np.tile(keys, S)
    order = rng.permutation(len(keys))
    states, keys = states[order], keys[order]
    for t in range(T + 1 if stationary else T):
        want = actions_per_state(policy, t, states, keys)
        assert _actions(policy, t, states, keys).tolist() == want.tolist()


@pytest.mark.parametrize("reward_kind, ordinal", [
    ("sa", False), ("sas", False), ("sas", True), ("sa", True)],
    ids=["sa-additive", "sas-discounted", "sas-ordinal", "sa-ordinal"])
def test_simulate_matches_the_per_state_lookup(monkeypatch, reward_kind, ordinal):
    from qmdp import evaluate
    m, space = relabelled_garnet(4, reward_kind, ordinal)
    policy = random_wealth_policy(m, space, np.random.default_rng(4))
    got = simulate(m, space, policy, 20_000, seed=9)
    # the ordinal policy takes the chain in exact_distribution; the atom
    # path is the one that reads _actions
    exact = evaluate._atom_distribution(m, space, policy, 10_000_000)
    monkeypatch.setattr(evaluate, "_actions", actions_per_state)
    assert got.tobytes() == simulate(m, space, policy, 20_000, seed=9).tobytes()
    want = evaluate._atom_distribution(m, space, policy, 10_000_000)
    assert exact.keys.tobytes() == want.keys.tobytes()
    assert exact.probs.tobytes() == want.probs.tobytes()


# -- a policy as one Markov chain on a wealth grid ----------------------------

def random_grid_policy(m, rng, keys, stationary=True):
    """A stationary or a per-(t, s) policy whose rules cut at random
    ``keys``, on either side."""
    rules = []
    for _ in range(m.n_states if stationary else m.horizon * m.n_states):
        n = int(rng.integers(0, 4))
        rules.append(StepFunction(int(rng.integers(m.n_actions)),
                                  rng.choice(keys, n), rng.random(n) < 0.5,
                                  rng.integers(0, m.n_actions, n)))
    return WealthMarkovPolicy(pack(rules, np.int64), m.n_states, stationary)


def draw_grid_policy(data, m, space, rng, keys):
    """A policy for the chain tests: random cuts at ``keys`` or none,
    stationary or per (t, s), or the solver's policy, whose cuts translate
    has moved off the grid (when m has no empty row)."""
    kind = data.draw(st.sampled_from(["markov", "stationary markov", "per step",
                                      "stationary", "solver"]))
    stationary = kind.startswith("stationary")
    if kind == "solver" and not validate(m):
        query = QuantileQuery(data.draw(st.sampled_from([0.1, 0.5, 0.9])),
                              data.draw(st.sampled_from(["lower", "upper"])),
                              1e-3)
        return solve_quantile(m, space, query).policy
    if kind.endswith("markov"):
        shape = m.n_states if stationary else (m.horizon, m.n_states)
        return WealthMarkovPolicy.from_markov(
            rng.integers(0, m.n_actions, shape).tolist(), stationary)
    return random_grid_policy(m, rng, keys, stationary)


@pytest.mark.parametrize("kind", ["cuts", "stationary cuts", "no cuts"])
@pytest.mark.parametrize("ordinal", [False, True], ids=["lattice", "ordinal"])
def test_cell_actions_equal_per_rule_lookup(kind, ordinal):
    from qmdp.evaluate import _WealthChain
    rng = np.random.default_rng(5)
    if ordinal:
        m, space = relabelled_garnet(5, "sas", ordinal=True)
    else:
        m = random_lattice_mdp(1, horizon=5)
        space = AdditiveWealth.for_mdp(m)
    stationary = kind == "stationary cuts"
    markov = WealthMarkovPolicy.from_markov(
        rng.integers(0, m.n_actions, (m.horizon, m.n_states)).tolist())
    keys = _WealthChain.fit(m, space, markov).grid.keys
    rules = []
    for i in range(m.n_states if stationary else m.horizon * m.n_states):
        # cuts at cell k - 1 (exclusive), between k - 1 and k, just below
        # and at k all cover cell k first; past both ends and at both
        # infinities they cover every cell or none
        k = int(rng.integers(1, len(keys)))
        pool = [keys[k - 1], (keys[k - 1] + keys[k]) / 2,
                np.nextafter(keys[k], -np.inf), keys[k],
                np.nextafter(keys[k], np.inf), keys[0] - 1, keys[-1] + 1,
                -np.inf, np.inf]
        if i % m.n_states == 0:
            rules.append(StepFunction(0, pool[:4], [False, True, True, True],
                                      [1, 0, 1, 0]))
            continue
        n = int(rng.integers(0, 7))
        rules.append(StepFunction(int(rng.integers(m.n_actions)),
                                  rng.choice(pool, n), rng.random(n) < 0.5,
                                  rng.integers(0, m.n_actions, n)))
    policy = (markov if kind == "no cuts" else
              WealthMarkovPolicy(pack(rules, np.int64), m.n_states, stationary))
    chain = _WealthChain.fit(m, space, policy)
    C = len(keys)
    rows = np.arange(m.n_states * C)
    for t in range(m.horizon):
        want = actions_per_state(policy, t, rows // C, keys[rows % C])
        got = chain.actions(t, *np.divmod(rows, C))
        assert got.tolist() == want.tolist()


def outcome(evaluate):
    try:
        return evaluate()
    except (ValidationError, ResourceLimitError) as exc:
        return exc


def assert_same_outcome(m, space, policy, atom_cap):
    """The chain and the atom path give the same keys, probabilities within
    float rounding and the same quantiles, or the same error at one step."""
    from qmdp.evaluate import _atom_distribution, _WealthChain
    chain = _WealthChain.fit(m, space, policy)
    assert chain is not None
    got = outcome(lambda: chain.distribution(space, atom_cap))
    want = outcome(lambda: _atom_distribution(m, space, policy, atom_cap))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert np.array_equal(got.keys, want.keys)
    assert np.abs(got.probs - want.probs).max() <= 1e-15
    for tau in (0.1, 0.25, 0.5, 0.75, 0.9):
        for criterion in ("lower", "upper"):
            assert got.quantile(tau, criterion) == want.quantile(tau, criterion)


UNITS = {"nonpositive": [-3, -2, -1], "nonnegative": [1, 2, 3],
         "mixed": [-2, -1, 1, 2]}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_matches_the_atom_path_on_a_reward_lattice(data):
    sign = data.draw(st.sampled_from(sorted(UNITS)))
    delta = data.draw(st.sampled_from([0.25, 0.375, 3.0]))
    units = data.draw(st.lists(st.sampled_from(UNITS[sign] + [0]), min_size=1,
                               max_size=4, unique=True))
    if sign == "mixed":
        units += [-1, 1]
    S, A = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3))
    T = data.draw(st.integers(3, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    transitions, rewards = [], []
    for s in range(S):
        rows, values = [], []
        for _ in range(A):
            n = int(rng.integers(1, min(3, S) + 1))
            cuts = np.sort(rng.random(n - 1))
            rows.append((np.sort(rng.choice(S, n, replace=False)),
                         np.diff(np.concatenate(([0.0], cuts, [1.0])))))
            values.append((delta * rng.choice(units, n)).tolist())
        transitions.append(rows)
        rewards.append(values)
    if data.draw(st.booleans()):
        # an empty row, which the chain and the atom path name at one step
        s, a = int(rng.integers(S)), int(rng.integers(A))
        transitions[s][a], rewards[s][a] = [], []
    m = Mdp(S, A, transitions, {"kind": "sas", "values": rewards}, 0, T)
    # cuts on cells, between them, past both ends of the grid and at both
    # infinities
    reach = T * max(map(abs, units)) + 2
    keys = np.concatenate((delta * np.arange(-reach, reach + 0.5, 0.5),
                           [-np.inf, np.inf]))
    policy = draw_grid_policy(data, m, AdditiveWealth.for_mdp(m), rng, keys)
    atom_cap = data.draw(st.sampled_from([1, 5, 20, 10_000_000]))
    assert_same_outcome(m, AdditiveWealth(-np.inf, np.inf), policy, atom_cap)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_matches_the_atom_path_on_ordinal_wealth(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    reward_kind = data.draw(st.sampled_from(["sa", "sas"]))
    m, space = relabelled_garnet(seed % 1000, reward_kind, ordinal=True)
    rng = np.random.default_rng(seed)
    keys = np.concatenate((np.arange(-1.0, 6.0, 0.5), [-np.inf, np.inf]))
    policy = draw_grid_policy(data, m, space, rng, keys)
    atom_cap = data.draw(st.sampled_from([1, 2, 8, 10_000_000]))
    assert_same_outcome(m, space, policy, atom_cap)


def test_exact_distribution_takes_the_chain_on_a_lattice(monkeypatch):
    # the control for the cases below: a stationary policy on the quarter
    # lattice of random_lattice_mdp never reaches the atom path
    from qmdp import evaluate
    m = random_lattice_mdp(0, horizon=6)
    policy = random_grid_policy(m, np.random.default_rng(0),
                                -0.25 * np.arange(20))
    monkeypatch.setattr(evaluate, "_atom_distribution", None)
    assert exact_distribution(m, AdditiveWealth.for_mdp(m), policy).total() == \
        pytest.approx(1.0)


def test_a_negative_zero_w0_keeps_the_chain():
    # a step adds a reward to w0, which drops its sign: only a -0.0 target
    # declines a grid, so the chain still runs from -0.0, with the atom
    # path's keys bit for bit
    from qmdp.evaluate import _atom_distribution
    m = random_lattice_mdp(0, horizon=6)
    space = AdditiveWealth.for_mdp(m)
    space.w0 = -0.0
    policy = random_grid_policy(m, np.random.default_rng(0),
                                -0.25 * np.arange(20))
    assert_same_outcome(m, space, policy, 10_000_000)
    got = exact_distribution(m, space, policy)
    assert got.keys.tobytes() == \
        _atom_distribution(m, space, policy, 10_000_000).keys.tobytes()


@pytest.mark.parametrize("ordinal", [False, True], ids=["lattice", "ordinal"])
def test_exact_distribution_takes_the_chain_for_a_non_stationary_policy(
        monkeypatch, ordinal):
    # the same control for per-(t, s) rules, which a finite solve returns
    from qmdp import evaluate
    rng = np.random.default_rng(0)
    if ordinal:
        m, space = relabelled_garnet(0, "sas", ordinal=True)
        policy = random_wealth_policy(m, space, rng)
    else:
        m = random_lattice_mdp(0, horizon=6)
        space = AdditiveWealth.for_mdp(m)
        policy = random_grid_policy(m, rng, -0.25 * np.arange(20),
                                    stationary=False)
    monkeypatch.setattr(evaluate, "_atom_distribution", None)
    assert exact_distribution(m, space, policy).total() == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2**52 - 1, 2**52 + 1])
def test_the_cheap_lattice_test_agrees_with_lattice_exact(monkeypatch, n):
    # one reward n * 2^-52 over T = 2 steps: the grid is exact while 2 * n
    # stays below 2^53; past it, float rewards stop before the lattice
    from qmdp import evaluate
    m = Mdp(1, 1, [[[(0, 1.0)]]], {"kind": "sa", "values": [[n * 2.0**-52]]},
            0, 2)
    calls = []
    on_lattice = evaluate.Grid.on_lattice
    monkeypatch.setattr(evaluate.Grid, "on_lattice",
                        lambda *a: calls.append(1) or on_lattice(*a))
    policy = WealthMarkovPolicy.from_markov([[0]] * 2)
    chain = evaluate._WealthChain.fit(m, AdditiveWealth.for_mdp(m), policy)
    assert (chain is not None) == (2 * n < 2**53) == (calls == [1])


@pytest.mark.parametrize("case", ["float rewards", "discounted wealth",
                                  "cells past the sums",
                                  "cells within WEALTH_TOL",
                                  "operator above BLOCK_FLOATS",
                                  "mass vector above BLOCK_FLOATS"])
def test_these_inputs_keep_the_atom_path(monkeypatch, case):
    from qmdp import evaluate
    m = random_lattice_mdp(0, horizon=6)
    space = AdditiveWealth.for_mdp(m)
    policy = WealthMarkovPolicy.from_markov([0] * m.n_states, stationary=True)
    if case == "float rewards":
        m = generate_garnet(GarnetConfig(5, 2, 3, seed=0), horizon=6)
        space = AdditiveWealth.for_mdp(m)
    elif case == "discounted wealth":
        space = DiscountedWealth(0.5)
    elif case == "mass vector above BLOCK_FLOATS":
        # a step of per-(t, s) rules holds the 5 x 19 mass vector
        policy = WealthMarkovPolicy.from_markov([[0] * m.n_states] * 6)
        monkeypatch.setattr(evaluate, "BLOCK_FLOATS", 94)
    elif case == "cells past the sums":
        # 4,001 cells of 0.25 against the 7 sums of up to 6 steps of -1000
        m = random_lattice_mdp(0, lattice=(-1000.0, -0.25), horizon=6)
    elif case == "cells within WEALTH_TOL":
        # the atom path merges keys 2^-31 apart; the grid would keep them
        m = random_lattice_mdp(0, lattice=(-2.0**-31, -2.0**-30), horizon=6)
    else:
        # the 5 x 2 x 19 operator; the mass vector alone would fit
        monkeypatch.setattr(evaluate, "BLOCK_FLOATS", 189)
    assert evaluate._WealthChain.fit(m, space, policy) is None
    calls = []
    atoms = evaluate._atom_distribution
    monkeypatch.setattr(evaluate, "_atom_distribution",
                        lambda *a: calls.append(1) or atoms(*a))
    exact_distribution(m, space, policy)
    assert calls == [1]


# -- what a problem keeps across evaluations ----------------------------------

import hashlib  # noqa: E402

from qmdp import load_policy, load_problem, save_policy, save_problem  # noqa: E402
from conftest import benchmark_workloads  # noqa: E402


def digest(dist):
    """sha256 of a distribution's keys and probabilities, bit for bit."""
    return hashlib.sha256(dist.keys.tobytes() + dist.probs.tobytes()).hexdigest()


# digests of the exact distribution of each benchmark query's policy, as
# the chain and the atom path gave them before they stepped through the
# kept slot layout; keyed (workload, query)
BENCHMARK_DIGESTS = {
    ("garnet", "0.1/lower/0.001"):
        "e7245c706ff1e370cb09762b86f7eef1fa325edb36d4227c64d48cee2cb1130f",
    ("garnet", "0.5/upper/0.001"):
        "aa0df0cc8f3139ce0d8bd8d77fb33c6dac996b0a82f18de286343868e6b2a2ef",
    ("datacenter", "0.1/lower/0.001"):
        "ce7f670251170833cbf42da972362199dea4ac155dd44c0b6d770ca952a923a2",
    ("datacenter", "0.9/upper/0.001"):
        "c933c739e6845dd0205508402717f4d9684b32ce0f1b4577b6b88987885a2bd0",
    ("ordinal", "0.25/lower/0.001"):
        "d991886f5bfbbd6ef16113483ea3a1870120aab86791e763141c4318ab79e6f7",
    ("ordinal", "0.75/upper/0.001"):
        "7a92693321db9088fafbf8be886544a0455c0e4044db2fd86ebbe0552fb6ebda",
    ("lattice-inf", "0.25/upper/0.001"):
        "014fc3de89b49271b77ecf1028c6f35669cc9b1cd3f5508741419794abd3b69e",
    ("lattice-inf", "0.5/lower/0.001"):
        "014fc3de89b49271b77ecf1028c6f35669cc9b1cd3f5508741419794abd3b69e",
}


def test_the_benchmark_policies_evaluate_on_a_kept_problem_as_on_fresh_loads(
        tmp_path):
    # each query's policy file, evaluated twice on one loaded problem (a
    # stationary one on one 20-step copy of it), gives the distribution of
    # a fresh load bit for bit
    def loaded(path, horizon):
        m, space = load_problem(path)
        return (m if m.horizon is not None else m.with_horizon(horizon)), space

    chains = {}
    for name, workload in benchmark_workloads().items():
        problem, policy_file = tmp_path / f"{name}.json", tmp_path / "policy.json"
        save_problem(problem, *workload.build(1))
        m, space = load_problem(problem)
        kept, _ = loaded(problem, workload.eval_horizon)
        for q in workload.queries:
            save_policy(policy_file, solve_quantile(m, space, q.to_query()).policy,
                        space)
            policy = load_policy(policy_file, space, m.n_states)
            want = digest(exact_distribution(
                *loaded(problem, workload.eval_horizon), policy))
            assert want == BENCHMARK_DIGESTS[name, q.key]
            for _ in range(2):
                assert digest(exact_distribution(kept, space, policy)) == want
        chains[name] = kept._memo["chain"][1] is not None
        assert "chain" not in m._memo or m is kept
    assert chains == {"garnet": False, "datacenter": True, "ordinal": True,
                      "lattice-inf": True}


def test_a_kept_chain_fit_is_keyed_on_every_input_it_reads(monkeypatch):
    # one problem asked in turn for fits that differ in one input each
    # (the space, its w0 and the sign of a zero w0, the policy's kind, the
    # budget) gets from each the grid that a fit on a fresh copy gives,
    # and reuses the kept layout for a repeated ask
    from qmdp import evaluate
    m = random_lattice_mdp(0, horizon=6)
    space, other, shifted, signed = (AdditiveWealth(-10.0, 0.0)
                                     for _ in range(4))
    shifted.w0, signed.w0 = -0.5, -0.0
    per_step = WealthMarkovPolicy.from_markov([[0] * m.n_states] * 6)
    stationary = WealthMarkovPolicy.from_markov([0] * m.n_states, True)
    asks = [(space, per_step), (space, stationary), (other, per_step),
            (shifted, per_step), (signed, per_step)]

    def grid(m, space, policy):
        chain = evaluate._WealthChain.fit(m, space, policy)
        return None if chain is None else (chain.grid.keys.tolist(),
                                           int(chain.grid.w0))

    want = [grid(m.with_horizon(m.horizon), *ask) for ask in asks]
    assert want[3] != want[0] and None not in want
    for ask, grid_ in zip(asks * 2, want * 2):
        assert grid(m, *ask) == grid_
        kept = m._memo["chain"]
        assert grid(m, *ask) == grid_ and m._memo["chain"][1] is kept[1]
    # the 5 x 2 x 19 operator of a stationary policy no longer fits, the
    # 5 x 19 mass vector of a per-step one still does
    monkeypatch.setattr(evaluate, "BLOCK_FLOATS", 189)
    assert grid(m, space, stationary) is None
    assert grid(m, space, per_step) == want[0]
    monkeypatch.undo()
    assert grid(m, space, stationary) == want[1]
    clone = m.with_horizon(m.horizon)
    assert clone._memo == {}
    assert grid(clone, space, stationary) == want[1]
    assert clone._memo["chain"][1] is not m._memo["chain"][1]
    assert clone._memo["slots"] is not m._memo["slots"]


@pytest.mark.parametrize("stationary", [False, True],
                         ids=["per step", "stationary"])
def test_an_empty_row_and_the_atom_cap_raise_at_the_same_step(stationary):
    # s0 -> s1 -> s2 or back to s0, and action 1 of s2 has no edges: the
    # chain and the atom path name that row at the step it is first taken,
    # t = 2, and an atom cap at the step the count first passes it
    from qmdp.evaluate import _atom_distribution, _WealthChain
    m = Mdp(3, 2, [[[(1, 1.0)], [(1, 1.0)]], [[(0, 0.5), (2, 0.5)], [(2, 1.0)]],
                   [[(2, 1.0)], []]],
            {"kind": "sas", "values": [[[-1.0], [-1.0]], [[0.0, -1.0], [-1.0]],
                                       [[-0.5], []]]}, 0, 6)
    space = AdditiveWealth.for_mdp(m)
    rules = [0, 0, 1]
    policy = WealthMarkovPolicy.from_markov(
        rules if stationary else [rules] * m.horizon, stationary)
    chain = _WealthChain.fit(m, space, policy)
    assert chain is not None
    for evaluate_ in (lambda cap: chain.distribution(space, cap),
                      lambda cap: _atom_distribution(m, space, policy, cap),
                      lambda cap: exact_distribution(m, space, policy, cap)):
        with pytest.raises(ValidationError,
                           match=r"^\(s=2, a=1\): empty transition row, "
                                 r"taken at t=2$"):
            evaluate_(10)
        # two atoms (s0 at -1, s2 at -2) after step 2
        with pytest.raises(ResourceLimitError,
                           match=r"^2 reachable atoms at step 2 exceed the cap 1;"):
            evaluate_(1)


# -- a policy that does not fit its problem -----------------------------------

@pytest.mark.parametrize("case", ["action past the last", "too few steps",
                                  "another state count"])
def test_a_policy_that_does_not_fit_raises(case):
    m = generate_garnet(GarnetConfig(4, 2, 2, seed=1), horizon=1)
    space = AdditiveWealth.for_mdp(m)
    if case == "action past the last":
        # (s0, action 2) used to read the edges of (s1, action 0)
        policy = WealthMarkovPolicy.from_markov([[2, 0, 0, 0]])
    elif case == "too few steps":
        # used to escape as a bare IndexError
        m = m.with_horizon(3)
        policy = WealthMarkovPolicy.from_markov([[0] * 4] * 2)
    else:
        policy = WealthMarkovPolicy.from_markov([[0] * 3])
    with pytest.raises(ConfigurationError):
        exact_distribution(m, space, policy)
    with pytest.raises(ConfigurationError):
        simulate(m, space, policy, 10)


# -- exact evaluation and policy files stand apart from the DP ------------------

import ast  # noqa: E402
from pathlib import Path  # noqa: E402

from qmdp import (DataCenterConfig, dp, generate_datacenter,  # noqa: E402
                  load_policy, save_policy)
from qmdp.evaluate import _atom_distribution, _WealthChain  # noqa: E402
from conftest import two_policy_ordinal_instance  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "qmdp"


def dp_imports(text):
    """The imports of ``qmdp.dp`` in a module of the package, in any
    spelling: ``from .dp import``, ``from . import dp``, ``from qmdp import
    dp``, ``import qmdp.dp`` and ``__import__`` or ``import_module`` of it."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["qmdp" if node.level else None,
                                            node.module]))
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [a.value.lstrip(".") for a in node.args
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            names += [f"qmdp.{n}" for n in names]
        else:
            continue
        found += [n for n in names if n == "qmdp.dp" or n.startswith("qmdp.dp.")]
    return found


@pytest.mark.parametrize("spelling", [
    "from .dp import backward_induction", "from . import dp",
    "from .dp import (_layer,\n    value_iteration)", "from qmdp import dp",
    "from qmdp.dp import _DenseSweep", "import qmdp.dp",
    "import qmdp.dp as engine", "importlib.import_module('qmdp.dp')",
    "importlib.import_module('.dp', 'qmdp')", "__import__('qmdp.dp')",
    "def f():\n    from .dp import translate"])
def test_the_import_check_sees_every_spelling(spelling):
    assert dp_imports(spelling)
    assert not dp_imports(spelling.replace("dp", "stepfun"))


@pytest.mark.parametrize("module", ["evaluate.py", "serialize.py"])
def test_the_referee_and_the_policy_files_import_nothing_from_the_dp(module):
    assert dp_imports((SRC / module).read_text()) == []
    # the solver does import it
    assert dp_imports((SRC / "solver.py").read_text())


def test_the_referee_runs_with_every_dp_engine_broken(monkeypatch, tmp_path):
    garnet = generate_garnet(GarnetConfig(3, 2, 2, seed=0), horizon=2)
    center = generate_datacenter(DataCenterConfig(2, beta=2.0), horizon=2)
    problems = {"garnet": (garnet, AdditiveWealth.for_mdp(garnet)),
                "datacenter": (center, AdditiveWealth.for_mdp(center)),
                "ordinal": two_policy_ordinal_instance()}
    # the policies come from the solver, before the engines break
    solved = {name: solve_quantile(m, space, QuantileQuery(0.5)).policy
              for name, (m, space) in problems.items()}

    def broken(*args, **kwargs):
        raise AssertionError("the referee reached qmdp.dp")

    monkeypatch.setattr(dp, "_layer", broken)
    monkeypatch.setattr(dp._DenseSweep, "fit", classmethod(broken))
    monkeypatch.setattr(dp, "backward_induction", broken)
    monkeypatch.setattr(dp, "value_iteration", broken)
    for name, (m, space) in problems.items():
        policy = solved[name]
        path = str(tmp_path / f"{name}.json")
        save_policy(path, policy, space)
        loaded = load_policy(path, space, m.n_states)
        assert (_WealthChain.fit(m, space, loaded) is None) == (name == "garnet")
        d = exact_distribution(m, space, loaded)
        atoms = _atom_distribution(m, space, loaded, 10**6)
        assert d.keys.tolist() == atoms.keys.tolist()
        assert set(simulate(m, space, loaded, 50).tolist()) <= set(d.keys.tolist())
        best, witness = brute_force_optimal_quantile(m, space, 0.5, "lower")
        assert space.key(exact_distribution(m, space, witness).quantile(
            0.5, "lower")) == space.key(best)
