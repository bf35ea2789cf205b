import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qmdp import Mdp, DiscountedWealth, OrdinalWealth
from qmdp.stepfun import _Cuts


def two_state_discounted_mdp(horizon=2):
    """Two states, two actions, rewards on next states, gamma-0.9 wealth.

    In s0: action 0 stays with prob 0.1 (reward 1) or falls to the sink
    with prob 0.9 (reward -1); action 1 moves to the sink for reward 1.
    The sink is absorbing with zero rewards.
    """
    transitions = [
        [[(0, 0.1), (1, 0.9)], [(1, 1.0)]],
        [[(1, 1.0)], [(1, 1.0)]],
    ]
    rewards = {"kind": "sas", "values": [
        [[1.0, -1.0], [1.0]],
        [[0.0], [0.0]],
    ]}
    return Mdp(2, 2, transitions, rewards, initial_state=0, horizon=horizon)


def two_policy_ordinal_instance():
    """One decision, three wealth classes, two achievable cumulatives.

    Action 0 realizes cumulative (0.5, 0.5, 1); action 1 realizes
    (0, 0.6, 1).  The optimal lower 0.5-quantile is the middle class and
    only action 1 attains it.
    """
    table = {c: {"to_w1": "w1", "to_w2": "w2", "to_w3": "w3"}
             for c in ("w1", "w2", "w3")}
    space = OrdinalWealth(["w1", "w2", "w3"], table)
    transitions = [
        [[(1, 0.5), (3, 0.5)], [(2, 0.6), (3, 0.4)]],
        [[(1, 1.0)], [(1, 1.0)]],
        [[(2, 1.0)], [(2, 1.0)]],
        [[(3, 1.0)], [(3, 1.0)]],
    ]
    rewards = {"kind": "sas", "values": [
        [["to_w1", "to_w3"], ["to_w2", "to_w3"]],
        [["to_w1"], ["to_w1"]],
        [["to_w1"], ["to_w1"]],
        [["to_w1"], ["to_w1"]],
    ]}
    m = Mdp(4, 2, transitions, rewards, initial_state=0, horizon=1)
    return m, space


def random_lattice_mdp(seed, n_states=5, n_actions=2, branching=2,
                       lattice=(-0.25, -0.5, -0.75, -1.0), horizon=None):
    """Random nonpositive-reward MDP with a zero-cost absorbing last state.

    Transient actions pay a strictly negative lattice cost, so every cycle
    outside the absorbing state loses wealth; histories either retire into
    the absorbing state (wealth freezes, giving nontrivial limit
    probabilities) or sink below any fixed target in boundedly many steps.
    """
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
    rewards = rng.choice(np.asarray(lattice, dtype=np.float64),
                         size=(n_states, n_actions))
    rewards[done, :] = 0.0
    return Mdp(n_states, n_actions, transitions,
               {"kind": "sa", "values": rewards.tolist()},
               initial_state=0, horizon=horizon)


def pack(fs, dtype=np.float64):
    """The cut table of a list of step functions, with values of ``dtype``:
    function i is segment i, as the DP lays out its slices and rules."""
    off = np.zeros(len(fs) + 1, dtype=np.intp)
    np.cumsum([len(f.x) for f in fs], out=off[1:])
    return _Cuts(np.array([f.base for f in fs], dtype=dtype), off,
                 np.concatenate([f.x for f in fs]),
                 np.concatenate([f.e for f in fs]),
                 np.concatenate([f.v for f in fs]).astype(dtype, copy=False))


@pytest.fixture
def paper_mdp():
    return two_state_discounted_mdp()


@pytest.fixture
def paper_space(paper_mdp):
    return DiscountedWealth.for_mdp(paper_mdp, 0.9)


@pytest.fixture
def prec_instance():
    return two_policy_ordinal_instance()


def benchmark_workloads():
    """The benchmark's workloads (``perfbench/workloads.py``) by name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS
