"""The four pinned workloads: how each instance is built and which queries run on it.

Every instance comes from the program's own Garnet or data-center
generator, called through its module attribute so that a traced run sees
the call.  The ordinal and infinite-horizon workloads relabel a Garnet's
rewards on the benchmark side; the program only ever receives the
finished problem.

Each workload runs the same instance in every run, because each
(instance, query) pair carries a reference answer pinned at the commit
that defined the benchmark (``references.json``), and because instances of
one family differ in cost by up to threefold, which would otherwise swamp
run-to-run comparisons.  A run's ``--seed`` fixes the order in which it
asks the (instance, query) pairs.  The instances are small so that one
query takes 0.2 to 0.4 s and a run times dozens of them.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qmdp import mdp as qmdp_mdp
from qmdp.solver import QuantileQuery
from qmdp.wealth import AdditiveWealth, OrdinalWealth


@dataclass(frozen=True)
class Query:
    """One quantile question asked of an instance."""
    tau: float
    criterion: str
    epsilon: float = 1e-3
    quantile_bounds: tuple = None

    @property
    def key(self):
        return f"{self.tau:g}/{self.criterion}/{self.epsilon:g}"

    def to_query(self):
        return QuantileQuery(tau=self.tau, criterion=self.criterion,
                             epsilon=self.epsilon,
                             quantile_bounds=self.quantile_bounds)


INSTANCES = (1,)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable       # instance seed -> (Mdp, wealth space)
    queries: tuple        # Query per question asked of each instance
    eval_horizon: int = None   # truncation used to evaluate stationary policies
    instances: tuple = INSTANCES   # instance seeds, each with pinned references

    def pairs(self):
        """Every (instance position, Query) pair the workload asks."""
        return [(i, q) for i in range(len(self.instances)) for q in self.queries]

    def schedule(self, seed):
        """Indices into :meth:`pairs` in the order a run asks them.

        Endless; each cycle is a fresh permutation of all pairs drawn from
        ``seed``, so the same seed gives the same sequence.
        """
        rng = np.random.default_rng(seed)
        while True:
            yield from (int(k) for k in rng.permutation(len(self.pairs())))


# -- instances -------------------------------------------------------------

GARNET_SHAPE = dict(n_states=10, n_actions=2, branching=4)
GARNET_HORIZON = 5


def build_garnet(seed):
    """G(10,2,4), T=5, uniform [0, 1) rewards, additive wealth."""
    m = qmdp_mdp.generate_garnet(qmdp_mdp.GarnetConfig(seed=seed, **GARNET_SHAPE),
                                 horizon=GARNET_HORIZON)
    return m, AdditiveWealth.for_mdp(m)


DATACENTER_SERVERS = 2
DATACENTER_HORIZON = 4


def build_datacenter(seed):
    """n=2 servers (12 states, 2 actions, branching up to 6), H=4, integer costs.

    The seed moves the arrival rates by at most one job and draws integer
    power and QoS prices, so every reward stays on the integer lattice.
    """
    rng = np.random.default_rng(seed)
    n = DATACENTER_SERVERS
    base = (math.ceil(n / 2), math.ceil(3 * n / 2), math.ceil(5 * n / 2))
    rates = [int(r + rng.integers(-1, 2)) for r in base]
    cfg = qmdp_mdp.DataCenterConfig(
        n, lambda_low=max(1, rates[0]), lambda_mid=rates[1],
        lambda_high=rates[2], alpha=float(rng.integers(1, 3)),
        beta=float(rng.integers(5, 13)), kappa=float(rng.integers(2, 4)))
    m = qmdp_mdp.generate_datacenter(cfg, horizon=DATACENTER_HORIZON)
    return m, AdditiveWealth.for_mdp(m)


def _relabelled(m, values, horizon, absorbing=None):
    """Copy of a Garnet's kernel with new state-action reward values.

    Every action of state ``absorbing``, if given, loops back to it.
    """
    def row(s, a):
        if s == absorbing:
            return np.array([s], dtype=np.int64), np.array([1.0])
        return m.successors(s, a), m.probabilities(s, a)

    transitions = [[row(s, a) for a in range(m.n_actions)]
                   for s in range(m.n_states)]
    return qmdp_mdp.Mdp(m.n_states, m.n_actions, transitions,
                        {"kind": "sa", "values": values},
                        initial_state=m.initial_state, horizon=horizon)


ORDINAL_SHAPE = dict(n_states=12, n_actions=3, branching=4)
ORDINAL_HORIZON = 6
ORDINAL_CLASSES = 32
ORDINAL_START = 8
# reward label -> class step; steps saturate at both ends of the class range
ORDINAL_STEPS = {"down": -1, "stay": 0, "up": 1, "up2": 2}


def ordinal_space():
    classes = [f"c{i:02d}" for i in range(ORDINAL_CLASSES)]
    top = ORDINAL_CLASSES - 1
    table = {c: {label: classes[min(top, max(0, i + step))]
                 for label, step in ORDINAL_STEPS.items()}
             for i, c in enumerate(classes)}
    return OrdinalWealth(classes, table, w0=classes[ORDINAL_START])


def build_ordinal(seed):
    """Garnet G(12,3,4) kernel, H=6, rewards bucketed into four step labels.

    Starting at class 8 of 32, six steps of -1..+2 keep the optimal class
    interior, so the search runs its full ceil(log2 32) iterations.
    """
    m = qmdp_mdp.generate_garnet(qmdp_mdp.GarnetConfig(seed=seed, **ORDINAL_SHAPE),
                                 horizon=ORDINAL_HORIZON)
    labels = list(ORDINAL_STEPS)
    values = [[labels[min(3, int(4 * m.reward(s, a)))]
               for a in range(m.n_actions)] for s in range(m.n_states)]
    return _relabelled(m, values, ORDINAL_HORIZON), ordinal_space()


LATTICE_SHAPE = dict(n_states=8, n_actions=3, branching=2)
LATTICE_BOUNDS = (-10.0, 0.0)
LATTICE_EVAL_HORIZON = 20


def build_lattice(seed):
    """Infinite-horizon MDP on an 8-state Garnet kernel with lattice costs.

    Rewards are the Garnet's, bucketed onto {-1, -0.75, -0.5, -0.25}; the
    last state is made absorbing at zero cost, so histories either retire
    there (freezing their wealth) or lose wealth on every step.
    """
    m = qmdp_mdp.generate_garnet(qmdp_mdp.GarnetConfig(seed=seed, **LATTICE_SHAPE),
                                 horizon=None)
    done = m.n_states - 1
    values = [[-(1 + min(3, int(4 * m.reward(s, a)))) / 4.0
               for a in range(m.n_actions)] for s in range(m.n_states)]
    values[done] = [0.0] * m.n_actions
    lattice = _relabelled(m, values, None, absorbing=done)
    return lattice, AdditiveWealth.for_mdp(lattice)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="garnet",
        why="G(10,2,4) T=5: layer-0 envelopes hold about 250 pieces and 9 "
            "of 10 layer-0 slices are unreachable; the time is stepfun sort "
            "and merge",
        build=build_garnet,
        queries=(Query(0.1, "lower"), Query(0.5, "upper"))),
    Workload(
        name="datacenter",
        why="n=2 servers, H=4, integer costs: slices stay at 10 pieces or "
            "fewer, so the time is per-call overhead across (s, a) pairs and "
            "layers",
        build=build_datacenter,
        queries=(Query(0.1, "lower"), Query(0.9, "upper"))),
    Workload(
        name="ordinal",
        why="ordinal labels through a saturating class table: the only "
            "workload on OrdinalWealth, table shifts and predecessor solves",
        build=build_ordinal,
        queries=(Query(0.25, "lower"), Query(0.75, "upper"))),
    Workload(
        name="lattice-inf",
        why="infinite-horizon value iteration: about 70 sweeps per solve of "
            "tiny slices through restrict and sup_distance, no backward "
            "induction",
        build=build_lattice,
        queries=(Query(0.25, "upper", quantile_bounds=LATTICE_BOUNDS),
                 Query(0.5, "lower", quantile_bounds=LATTICE_BOUNDS)),
        eval_horizon=LATTICE_EVAL_HORIZON),
)}
