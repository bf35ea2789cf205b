"""
Wealth spaces and the step-function algebra
===========================================

The solver never manipulates scalar state values: every state carries a
piecewise-constant function of accumulated wealth.  This script walks
through the three wealth-space kinds and the four operations the backward
induction is built from.
"""

import numpy as np

from qmdp import (AdditiveWealth, DiscountedWealth, OrdinalWealth,
                  combine, pointwise_max, shift, sup_distance, target_utility)

# Three ways histories accumulate value -----------------------------------

additive = AdditiveWealth(w_min=0.0, w_max=5.0)
print("additive:   0 then +1 then -1 ->", additive.accumulate(
    additive.accumulate(0.0, 1.0, 0), -1.0, 1))

discounted = DiscountedWealth(gamma=0.9)
w = discounted.accumulate(0.0, 1.0, 0)     # first reward, undiscounted
w = discounted.accumulate(w, 1.0, 1)       # second reward, worth 0.9
print("discounted: two unit rewards at gamma=0.9 ->", w)

# Ordinal wealth: classes ordered w1 < w2 < w3, accumulation by table
table = {c: {"gain": "w3" if c != "w1" else "w2", "hold": c}
         for c in ("w1", "w2", "w3")}
ordinal = OrdinalWealth(["w1", "w2", "w3"], table)
print("ordinal:    w1 after 'gain' ->", ordinal.accumulate("w1", "gain"))
# the solver works on keys; an ordinal key is the class index, and the
# distance between two classes is their index gap
print("ordinal:    key(w3) =", ordinal.key("w3"),
      " distance(w1, w3) =", ordinal.distance("w1", "w3"))

# Target utilities turn quantile tests into expected utility ----------------

u_upper = target_utility(1.9, strict=False)   # 1 on wealths >= 1.9
u_lower = target_utility(1.9, strict=True)    # 1 on wealths  > 1.9
print("\nindicator of [1.9, inf): at 1.9 ->", u_upper(1.9),
      "  strictly above: at 1.9 ->", u_lower(1.9))

# The three operations of one Bellman update --------------------------------

# shift: pull a successor's slice back through the wealth accumulation
shifted = shift(u_upper, 1.0, 0, additive)
print("\nafter earning reward 1, the target moves to",
      shifted.intervals()[1][0])

# combine: mix successor slices with the transition kernel
mixed = combine([(0.5, target_utility(1.0, False)),
                 (0.5, target_utility(2.0, False))])
print("0.5/0.5 mix of two indicators:", mixed.intervals())

# pointwise max: the greedy action choice; its argmax is the same kind of
# step function, with integer values (the index of the winning input)
f_risky = combine([(0.9, target_utility(3.0, False)),
                   (0.1, target_utility(0.5, False))])
f_safe = target_utility(1.0, False)
envelope, choice = pointwise_max([f_safe, f_risky])
print("\nupper envelope pieces:", envelope.intervals())
print("which input wins on each wealth interval:", choice.intervals())

# sup distance drives the value-iteration stopping rule
print("\nsup distance between the two inputs:",
      sup_distance(f_safe, f_risky))

# Everything stays exact: evaluating the mix at random points agrees with
# mixing the evaluations.
rng = np.random.default_rng(0)
pts = rng.uniform(-1, 4, 10000)
direct = 0.5 * target_utility(1.0, False).eval_many(pts) \
    + 0.5 * target_utility(2.0, False).eval_many(pts)
print("max pointwise error of combine over 10k points:",
      np.abs(mixed.eval_many(pts) - direct).max())
