"""
Why quantile optimization needs wealth-aware policies
=====================================================

A two-state chain with discounted wealth (gamma = 0.9).  From the start
state, the risky action stays put with probability 0.1 for reward +1 and
otherwise falls into a zero-reward sink for reward -1; the safe action
banks +1 and moves to the sink.

Measured by the 0.95-quantile, neither stationary rule is optimal: the
best plan is risky first, then safe -- a policy that switches based on
the wealth accumulated so far.
"""

from qmdp import (DiscountedWealth, Mdp, QuantileQuery, WealthMarkovPolicy,
                  exact_distribution, solve_quantile)

transitions = [
    [[(0, 0.1), (1, 0.9)], [(1, 1.0)]],    # start: risky, safe
    [[(1, 1.0)], [(1, 1.0)]],              # sink
]
rewards = {"kind": "sas", "values": [
    [[1.0, -1.0], [1.0]],
    [[0.0], [0.0]],
]}
m = Mdp(2, 2, transitions, rewards, initial_state=0, horizon=2)
space = DiscountedWealth.for_mdp(m, 0.9)

for name, actions in [("risky always ", [[0, 0], [0, 0]]),
                      ("safe always  ", [[1, 0], [1, 0]]),
                      ("risky -> safe", [[0, 0], [1, 0]])]:
    policy = WealthMarkovPolicy.from_markov(actions)
    d = exact_distribution(m, space, policy)
    print(f"{name}: support {d.support}  "
          f"0.95-quantile {d.quantile(0.95, 'lower')}")

# The solver discovers the wealth-aware plan on its own.
report = solve_quantile(m, space,
                        QuantileQuery(tau=0.95, criterion="lower",
                                      epsilon=1e-4))
print(f"\nsolver: 0.95-quantile {report.quantile:.4f}, read off one "
      f"backward induction ({report.iterations} test)")
# a decision rule is a step function of wealth with integer (action) values
print("decision rule at step 2 in the start state:")
for frm, inclusive, action in report.policy.rule(1, 0).intervals():
    bracket = "[" if inclusive else "("
    region = "everything" if frm is None else f"wealth {bracket}{frm:.3f}, ...)"
    print(f"  {region} -> action {action}")
