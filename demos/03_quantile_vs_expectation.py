"""
Quantile-optimal vs expectation-optimal policies
================================================

On a random MDP with a right-skewed reward profile, the
expectation-optimal policy chases a small chance of large wealth, while
the quantile-optimal policy lifts the guaranteed floor: its cumulative
distribution sits to the right at the low quantiles.

Writes both CDFs to ``cdf_comparison.csv`` (columns: policy, wealth,
probability, F, G) for plotting with any tool.
"""

import csv

import numpy as np

from qmdp import (AdditiveWealth, GarnetConfig, Mdp, QuantileQuery,
                  WealthMarkovPolicy, exact_distribution, generate_garnet,
                  solve_quantile, standard_backward_induction)

TAU = 0.1

base = generate_garnet(GarnetConfig(100, 5, 7, seed=3), horizon=5)
# a seeded 80% of the state-action rewards shrink 20-fold: most rewards
# become small, a few stay large
rewards = base.reward_table.copy()
rewards[np.random.default_rng(3).random(rewards.shape) < 0.8] *= 0.05
m = Mdp(base.n_states, base.n_actions,
        [[(base.successors(s, a), base.probabilities(s, a))
          for a in range(base.n_actions)] for s in range(base.n_states)],
        {"kind": "sa", "values": rewards.tolist()}, base.initial_state,
        base.horizon)
space = AdditiveWealth.for_mdp(m)

print("solving the lower 0.1-quantile (epsilon = 1e-3) ...")
report = solve_quantile(m, space, QuantileQuery(tau=TAU, criterion="lower",
                                                epsilon=1e-3))
actions, values = standard_backward_induction(m)
std_policy = WealthMarkovPolicy.from_markov(actions.tolist())

d_quantile = exact_distribution(m, space, report.policy)
d_standard = exact_distribution(m, space, std_policy)

print(f"quantile policy : {TAU}-quantile "
      f"{d_quantile.quantile(TAU, 'lower'):.4f}, mean {d_quantile.mean():.4f}")
print(f"standard policy : {TAU}-quantile "
      f"{d_standard.quantile(TAU, 'lower'):.4f}, mean {d_standard.mean():.4f}")
print("the quantile policy guarantees more wealth with probability "
      f"{1 - TAU:.0%}; the standard policy wins on average")

with open("cdf_comparison.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["policy", "wealth", "probability", "F", "G"])
    for name, dist in (("quantile", d_quantile), ("standard", d_standard)):
        for w, p in dist.support:
            writer.writerow([name, w, p, dist.cdf(w), dist.decumulative(w)])
print("wrote cdf_comparison.csv "
      f"({len(d_quantile)} + {len(d_standard)} support points)")
