import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmdp import (AdditiveWealth, ConfigurationError, DiscountedWealth, Mdp,
                  OrdinalWealth, WealthMarkovPolicy, dp, evaluate)
from qmdp.wealth import Grid, Lattice
from conftest import random_lattice_mdp

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def make_space(kind):
    if kind == "additive":
        return AdditiveWealth(-10, 10)
    if kind == "discounted":
        return DiscountedWealth(0.9, -10, 10)
    table = {c: {"up": "w%d" % min(int(c[1]) + 1, 5), "stay": c}
             for c in ("w1", "w2", "w3", "w4", "w5")}
    return OrdinalWealth(["w1", "w2", "w3", "w4", "w5"], table)


# -- accumulate -------------------------------------------------------------

def test_additive_accumulate_cancels():
    sp = AdditiveWealth(-5, 5)
    assert sp.accumulate(sp.accumulate(0.0, 1.0, 0), -1.0, 1) == 0.0


def test_discounted_accumulate_two_steps():
    sp = DiscountedWealth(0.9)
    assert sp.accumulate(sp.accumulate(0.0, 1.0, 0), 1.0, 1) == 1.9


def test_additive_bounds_from_mdp():
    # horizon 5 with rewards spanning [0, 1] gives w_max = 5
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(0, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [0.0]]}, 0, 5)
    sp = AdditiveWealth.for_mdp(m)
    assert sp.w_max == 5.0
    assert sp.w_min == 0.0


def test_discounted_bounds_geometric():
    m = Mdp(2, 1, [[[(1, 1.0)]], [[(0, 1.0)]]],
            {"kind": "sa", "values": [[1.0], [1.0]]}, 0, 3)
    sp = DiscountedWealth.for_mdp(m, 0.5)
    assert sp.w_max == pytest.approx(1 + 0.5 + 0.25)


def test_ordinal_accumulate_table():
    sp = make_space("ordinal")
    assert sp.accumulate("w2", "up") == "w3"
    assert sp.accumulate("w5", "up") == "w5"
    assert sp.accumulate("w3", "stay") == "w3"


def test_ordinal_accumulate_needs_table():
    sp = OrdinalWealth(["a", "b"])
    with pytest.raises(ConfigurationError):
        sp.accumulate("a", "up")


def test_ordinal_accumulate_rejects_unknown_label():
    sp = make_space("ordinal")
    with pytest.raises(ConfigurationError):
        sp.accumulate("w1", "sideways")


def test_numeric_accumulate_rejects_labels():
    with pytest.raises(ConfigurationError):
        AdditiveWealth(-1, 1).accumulate(0.0, "up")
    with pytest.raises(ConfigurationError):
        DiscountedWealth(0.5).accumulate(0.0, "up")


@pytest.mark.parametrize("kind", ["sa", "sas"])
def test_ordinal_grid_rows_are_move_tables(kind):
    # the class grid the dense sweeps, the chain and the atom path all read
    sp = make_space("ordinal")
    transitions = [[[(0, 0.5), (1, 0.5)], [(1, 1.0)]],
                   [[(0, 1.0)], [(0, 0.25), (1, 0.75)]]]
    values = ([["up", "stay"], ["stay", "up"]] if kind == "sa" else
              [[["up", "stay"], ["stay"]], [["up"], ["stay", "up"]]])
    m = Mdp(2, 2, transitions, {"kind": kind, "values": values}, 0, 2)
    grid = Grid.of_classes(sp, m.rewards)
    assert grid.keys.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert grid.w0 == sp.index(sp.w0)
    assert grid.clip == slice(0, len(sp.classes))
    assert grid.moves.shape == (2, len(sp.classes))
    assert len(grid.row) == len(m.succ)
    for e, r in enumerate(m.rewards):
        assert grid.moves[grid.row[e]].tolist() == sp.move_table(r)


def assert_lattice_grid(grid, anchors, rewards):
    """Every key of a lattice grid is (first + c) * δ exactly, for the step
    δ of the lattice of ``anchors`` (w0's first) and the ``rewards`` of
    every edge; w0's cell holds w0's key; every move lands in the clip
    range, on the key of its cell plus the edge's reward, clipped."""
    lattice = Lattice.of(anchors, np.unique(rewards).tolist())
    step = Fraction(lattice.step)
    first = Fraction(grid.keys[0]) / step
    assert first.denominator == 1
    keys = [Fraction(k) for k in grid.keys]
    assert keys == [(first + c) * step for c in range(len(keys))]
    assert grid.keys[grid.w0] == anchors[0]
    lo, hi = grid.clip.start, grid.clip.stop - 1
    assert 0 <= lo <= grid.w0 <= hi < len(keys)
    assert lo <= grid.moves.min() and grid.moves.max() <= hi
    for e, r in enumerate(rewards.tolist()):
        for c, k in enumerate(keys):
            want = min(max(k + Fraction(r), keys[lo]), keys[hi])
            assert keys[grid.moves[grid.row[e], c]] == want


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("seed", range(3))
def test_lattice_sweep_grid_keys_and_moves(seed, sign, strict):
    # the value-iteration grid: from just past the target to w0 and
    # max|r| / δ cells on past w0, for either reward sign.  The grid does
    # not depend on the criterion; the terminal split on it does
    lattice = (-0.25, -0.5, -0.75, -1.0) if sign < 0 else (0.25, 0.5, 1.0)
    m = random_lattice_mdp(seed, lattice=lattice)
    space = AdditiveWealth(*sorted((0.0, 10.0 * sign)))
    for w in (0.0, 1.25 * sign, 3.5 * sign):
        sweep = dp._DenseSweep.fit(m, space, w, dp.reachable_window(m, space))
        grid, anchors = sweep.grid, [space.key(space.w0), w]
        assert_lattice_grid(grid, anchors, m.rewards)
        # the clip range ends one cell past the target, on the side away
        # from w0, and the grid runs max|r| / δ cells on past w0
        step = Lattice.of(anchors, np.unique(m.rewards).tolist()).step
        lo, hi = grid.clip.start, grid.clip.stop - 1
        assert grid.keys[hi if sign > 0 else lo] == w + sign * step
        assert grid.w0 == (lo if sign > 0 else hi)
        assert len(grid.keys) == hi - lo + 1 + round(
            np.abs(m.rewards).max() / step)
        # the terminal value turns 1 at the target's own cell, or at the
        # next one up under the strict criterion
        split = sweep._split(w, strict)
        assert grid.keys[split] == w + (step if strict else 0.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chain_grid_keys_and_moves(data):
    # the exact-evaluation grid: T steps from w0 either way, any sign
    units = data.draw(st.sampled_from([[-3, -1, 0], [1, 2], [-2, 1], [0]]))
    delta = data.draw(st.sampled_from([0.25, 0.375, 3.0]))
    T = data.draw(st.integers(1, 5))
    labels = data.draw(st.lists(st.sampled_from(units), min_size=4,
                                max_size=4))
    rewards = (delta * np.array(labels, dtype=np.float64)).reshape(2, 2)
    m = Mdp(2, 2, [[[(0, 0.5), (1, 0.5)], [(1, 1.0)]],
                   [[(0, 1.0)], [(0, 0.25), (1, 0.75)]]],
            {"kind": "sa", "values": rewards.tolist()}, 0, T)
    space = AdditiveWealth()
    chain = evaluate._WealthChain.fit(
        m, space, WealthMarkovPolicy.from_markov([0, 1], stationary=True))
    # a grid with more cells than the wealth sums of T steps is not built
    assume(chain is not None)
    grid = chain.grid
    assert_lattice_grid(grid, [space.key(space.w0)], m.rewards)
    assert grid.clip == slice(0, len(grid.keys))
    units = Lattice.of([0.0], np.unique(m.rewards).tolist()).units
    lo, hi = min(0, *units), max(0, *units)
    assert len(grid.keys) == T * (hi - lo) + 1
    assert grid.w0 == T * -lo


@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_additive_fold_matches_sum(rewards):
    sp = AdditiveWealth()
    w = sp.w0
    for t, r in enumerate(rewards):
        w = sp.accumulate(w, r, t)
    assert w == pytest.approx(sum(rewards), abs=1e-6)


# -- compare / distance ------------------------------------------------------

@pytest.mark.parametrize("kind", ["additive", "discounted", "ordinal"])
def test_compare_reflexive_and_total(kind):
    sp = make_space(kind)
    if kind == "ordinal":
        values = sp.classes
    else:
        values = [-1.0, 0.0, 1.9, 3.5]
    for w in values:
        assert sp.compare(w, w) == 0
    for w in values:
        for w2 in values:
            assert sp.compare(w, w2) == -sp.compare(w2, w)
            assert sp.compare(w, w2) in (-1, 0, 1)


def test_compare_examples():
    sp = make_space("ordinal")
    assert sp.compare("w1", "w2") == -1
    assert AdditiveWealth().compare(-1.0, 1.9) == -1


@pytest.mark.parametrize("kind", ["additive", "ordinal"])
def test_distance_symmetry_identity(kind):
    sp = make_space(kind)
    values = sp.classes if kind == "ordinal" else [-2.0, 0.0, 1.5]
    for w in values:
        assert sp.distance(w, w) == 0
        for w2 in values:
            assert sp.distance(w, w2) == sp.distance(w2, w)


def test_ordinal_distance_is_index_gap():
    sp = make_space("ordinal")
    for i, w in enumerate(sp.classes):
        for j, w2 in enumerate(sp.classes):
            assert sp.distance(w, w2) == abs(j - i)


@given(st.lists(finite_floats, min_size=3, max_size=3))
def test_distance_consistent_with_order(ws):
    sp = AdditiveWealth()
    a, b, c = sorted(ws)
    assert sp.distance(a, c) >= max(sp.distance(a, b), sp.distance(b, c)) - 1e-12


# -- configuration ---------------------------------------------------------------

def test_ordinal_space_validation():
    with pytest.raises(ConfigurationError):
        OrdinalWealth([])
    with pytest.raises(ConfigurationError):
        OrdinalWealth(["a", "a"])
    with pytest.raises(ConfigurationError):
        OrdinalWealth(["a", "b"], w0="c")


def test_gamma_validation():
    with pytest.raises(ConfigurationError):
        DiscountedWealth(0.0)
    with pytest.raises(ConfigurationError):
        DiscountedWealth(1.5)
    DiscountedWealth(1.0)   # gamma = 1 is allowed


def test_bounds_validation():
    with pytest.raises(ConfigurationError):
        AdditiveWealth(1.0, 0.0)


# -- numeric wealth values ---------------------------------------------------------

NOT_WEALTH = [None, "0.5", "x", True, math.nan]
WEALTH = [1, 1.5, np.float64(0.25), np.int64(3), math.inf, -math.inf]


def bounded(kind, w_min, w_max):
    if kind == "additive":
        return AdditiveWealth(w_min, w_max)
    return DiscountedWealth(0.9, w_min, w_max)


@pytest.mark.parametrize("kind", ["additive", "discounted"])
@pytest.mark.parametrize("w", NOT_WEALTH, ids=repr)
def test_numeric_wealth_values_are_real_numbers(kind, w):
    # one definition of a numeric wealth value: key, accumulate and both
    # bounds reject a string float() would parse, a bool and NaN alike
    sp = make_space(kind)
    for use in (sp.key, lambda w: sp.accumulate(w, 1.0, 1),
                lambda w: bounded(kind, w, 10.0),
                lambda w: bounded(kind, -10.0, w)):
        with pytest.raises(ConfigurationError, match="real number|NaN"):
            use(w)


@pytest.mark.parametrize("kind", ["additive", "discounted"])
@pytest.mark.parametrize("w", WEALTH, ids=repr)
def test_numeric_wealth_accepts_real_numbers(kind, w):
    sp = make_space(kind)
    k = sp.key(w)
    assert type(k) is float and k == w
    assert sp.accumulate(w, 0.0, 1) == w
    b = bounded(kind, w, w)
    assert type(b.w_min) is float and type(b.w_max) is float
    assert b.w_min == b.w_max == w


@pytest.mark.parametrize("kind", ["additive", "discounted"])
def test_numeric_wealth_values_fit_a_float(kind):
    # float() of an integer past float range raises OverflowError; a key
    # names the value in a usage error instead
    sp = make_space(kind)
    for w in (10**400, -(10**400)):
        for use in (sp.key, lambda w: sp.accumulate(w, 1.0, 1),
                    lambda w: bounded(kind, w, 10.0)):
            with pytest.raises(ConfigurationError, match="float range") as err:
                use(w)
            assert str(w) in str(err.value)


@pytest.mark.parametrize("kind", ["additive", "discounted"])
@pytest.mark.parametrize("r", [True, False, math.nan, "1", None, 10**400],
                         ids=lambda r: repr(r)[:8])
def test_numeric_rewards_are_wealth_values(kind, r):
    # a reward is held to the same rule as a wealth value
    sp = make_space(kind)
    for use in (lambda r: sp.accumulate(0.0, r, 1),
                lambda r: sp.shift_delta(r, 1)):
        with pytest.raises(ConfigurationError, match="numeric rewards"):
            use(r)


@pytest.mark.parametrize("kind", ["additive", "discounted"])
@pytest.mark.parametrize("r", [1, -2.5, np.int64(1), np.int32(-3),
                               np.float64(0.25), np.float32(0.5), math.inf],
                         ids=repr)
def test_numeric_rewards_accept_real_numbers(kind, r):
    sp = make_space(kind)
    step = 0.9 if kind == "discounted" else 1.0
    assert sp.accumulate(0.0, r, 1) == step * float(r)
    delta = sp.shift_delta(r, 1)
    assert type(delta) is float and delta == step * float(r)


def test_ordinal_bools_are_not_integer_classes():
    # a dict lookup reads True as 1 and False as 0
    sp = OrdinalWealth([0, 1, 2])
    for w in (True, False, np.True_):
        with pytest.raises(ConfigurationError, match="not a wealth class"):
            sp.key(w)
        with pytest.raises(ConfigurationError, match="not a wealth class"):
            sp.index(w)
    assert sp.key(1) == 1.0 and sp.index(2) == 2
    assert sp.key(np.int64(2)) == 2.0
    assert OrdinalWealth([False, True]).key(True) == 1.0
    assert OrdinalWealth(["a", "b"]).key("b") == 1.0


def test_ordinal_unkey_rejects_keys_outside_the_classes():
    # a negative index must not wrap around to the top class
    sp = make_space("ordinal")
    assert sp.unkey(4.0) == "w5"
    for k in (-1.0, 5.0):
        with pytest.raises(ConfigurationError):
            sp.unkey(k)


def test_ordinal_w0_default_and_override():
    table = {"a": {"r": "b"}, "b": {"r": "b"}}
    sp = OrdinalWealth(["a", "b"], table)
    assert sp.w0 == "a"
    sp2 = OrdinalWealth(["a", "b"], table, w0="b")
    assert sp2.w0 == "b"
