"""
Infinite horizons: functional value iteration
=============================================

With uniformly signed rewards and undiscounted wealth, stationary
wealth-aware policies are enough, and the finite-horizon sweep can simply
be iterated until the per-state slices stop moving.  The model here is a
maintenance problem: every transient action costs something, and the
system can retire into a free absorbing state -- so each run freezes at
some total cost, and we ask for the probability of finishing cheaply.

The script checks the fixed point against a long finite horizon, then
runs a full infinite-horizon quantile solve (which needs an explicit
bracket: no finite wealth bounds exist a priori).  The solve makes one
value iteration, at the bracket bottom, and reads the quantile off its
initial-state slice: costs only lower wealth, so every threshold in the
bracket maps onto wealth at or below the start, where the slice is exact.
"""

import numpy as np

from qmdp import (AdditiveWealth, Mdp, QuantileQuery, backward_induction,
                  solve_quantile, value_iteration)


def maintenance_mdp(seed, n_states=5, n_actions=2, branching=2):
    """Strictly negative lattice costs; the last state retires for free."""
    rng = np.random.default_rng(seed)
    done = n_states - 1
    transitions = []
    for s in range(n_states):
        row = []
        for _ in range(n_actions):
            if s == done:
                row.append((np.array([done], dtype=np.int64), np.array([1.0])))
                continue
            succ = np.sort(rng.choice(n_states, branching, replace=False))
            cuts = np.sort(rng.random(branching - 1))
            prob = np.diff(np.concatenate(([0.0], cuts, [1.0])))
            row.append((succ.astype(np.int64), prob))
        transitions.append(row)
    rewards = rng.choice([-0.25, -0.5, -0.75, -1.0],
                         size=(n_states, n_actions))
    rewards[done, :] = 0.0
    return Mdp(n_states, n_actions, transitions,
               {"kind": "sa", "values": rewards.tolist()},
               initial_state=0, horizon=None)


m = maintenance_mdp(seed=9)
space = AdditiveWealth(-10.0, 0.0)
budget = 1.5

policy, p_inf, vf = value_iteration(m, space, -budget, strict=False,
                                    eps_conv=1e-6)
_, p_200, _ = backward_induction(m.with_horizon(200), space, -budget,
                                 strict=False)
print(f"P[total cost <= {budget}]: value iteration {p_inf:.9f} "
      f"({vf.sweeps} sweeps), horizon-200 truncation {p_200:.9f}")
print("stationary policy:", policy.stationary)

# A full quantile solve: what cost cap holds with 70% confidence?
report = solve_quantile(
    m, space,
    QuantileQuery(tau=0.3, criterion="upper", epsilon=1e-3,
                  quantile_bounds=(-10.0, 0.0)))
print(f"\nupper 0.3-quantile of wealth: {report.quantile:.4f} "
      f"(i.e. cost cap {-report.quantile:.4f}; bracket width "
      f"{space.distance(*report.bracket):.2e}, one value iteration of "
      f"{report.sweeps} sweeps)")
