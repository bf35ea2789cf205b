"""Quantile-optimal policies for finite and infinite horizon MDPs.

Each wealth threshold poses an indicator-utility MDP, solved by
functional backward induction (or functional value iteration in the
infinite-horizon case).  For numeric wealth one such solve yields every
threshold's answer; for ordinal wealth one batched dense sweep solves
every class threshold at once.  Either way the solver reads the optimal
quantile off one exceedance curve, and the returned greedy
wealth-Markovian policy is epsilon-optimal for the lower or upper
tau-quantile criterion.
"""

__version__ = "0.1.0"

from .dp import ValueFunction, backward_induction, value_iteration
from .errors import (ConfigurationError, ConvergenceError, QmdpError,
                     ResourceLimitError, ValidationError)
from .evaluate import (WealthDistribution, brute_force_distributions,
                       brute_force_optimal_quantile, exact_distribution,
                       simulate, standard_backward_induction)
from .mdp import (DataCenterConfig, GarnetConfig, Mdp, default_branching,
                  generate_datacenter, generate_garnet, validate)
from .serialize import (load_policy, load_problem, policy_from_payload,
                        policy_to_payload, problem_from_dict, problem_to_dict,
                        save_policy, save_problem)
from .solver import (IterationRecord, QuantileQuery, SolveReport,
                     quantile_certificate, solve_quantile)
from .stepfun import (StepFunction, WealthMarkovPolicy, combine,
                      pointwise_max, shift, sup_distance, target_utility)
from .wealth import (AdditiveWealth, DiscountedWealth, OrdinalWealth,
                     WealthSpace, WEALTH_TOL)

__all__ = [
    "AdditiveWealth", "ConfigurationError", "ConvergenceError",
    "DataCenterConfig", "DiscountedWealth", "GarnetConfig", "IterationRecord",
    "Mdp", "OrdinalWealth", "QmdpError", "QuantileQuery", "ResourceLimitError",
    "SolveReport", "StepFunction", "ValidationError", "ValueFunction",
    "WealthDistribution", "WealthMarkovPolicy", "WealthSpace", "WEALTH_TOL",
    "backward_induction", "brute_force_distributions",
    "brute_force_optimal_quantile", "combine", "default_branching",
    "exact_distribution", "generate_datacenter", "generate_garnet",
    "load_policy", "load_problem", "pointwise_max", "policy_from_payload",
    "policy_to_payload",
    "problem_from_dict", "problem_to_dict", "quantile_certificate",
    "save_policy", "save_problem", "shift", "simulate", "solve_quantile",
    "standard_backward_induction", "sup_distance", "target_utility",
    "validate", "value_iteration",
]
