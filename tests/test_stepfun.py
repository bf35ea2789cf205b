import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmdp import (AdditiveWealth, DiscountedWealth, OrdinalWealth,
                  StepFunction, combine, pointwise_max, shift, sup_distance,
                  target_utility)
from qmdp.stepfun import _merge_values, restrict


def random_step(rng, max_pieces=6, lo=-5.0, hi=5.0):
    n = rng.integers(0, max_pieces + 1)
    x = np.sort(rng.uniform(lo, hi, n))
    inc = rng.random(n) < 0.5
    v = rng.random(n)
    return StepFunction(rng.random(), x, inc, v)


def random_monotone_step(rng, max_pieces=6, lo=-5.0, hi=5.0):
    n = int(rng.integers(0, max_pieces + 1))
    x = np.sort(rng.uniform(lo, hi, n))
    inc = rng.random(n) < 0.5
    levels = np.sort(rng.random(n + 1))
    return StepFunction(levels[0], x, inc, levels[1:])


def sample_points(rng, fs, n=50):
    """Random evaluation points plus every threshold of every input."""
    pts = [rng.uniform(-6, 6, n)]
    for f in fs:
        if len(f.x):
            pts.append(f.x)
            pts.append(f.x - 1e-7)
            pts.append(f.x + 1e-7)
    return np.concatenate(pts)


# -- target utilities -----------------------------------------------------------

def test_target_utility_at_threshold():
    assert target_utility(1.0, strict=False)(1.0) == 1.0
    assert target_utility(1.0, strict=True)(1.0) == 0.0


def test_target_utility_indicator():
    f = target_utility(1.9, strict=False)
    assert f(1.0) == 0.0
    assert f(2.0) == 1.0


# -- eval ----------------------------------------------------------------------

def test_eval_constant():
    f = StepFunction(0.25)
    assert f(-100.0) == 0.25
    assert f(100.0) == 0.25


def test_eval_exclusive_threshold():
    f = target_utility(0.5, strict=True)
    assert f(0.5) == 0.0
    assert f(0.5 + 1e-12) == 1.0


def test_eval_between_thresholds_uses_left_piece():
    f = StepFunction(0.0, [1.0, 2.0], [True, True], [0.4, 0.9])
    assert f(1.5) == 0.4


def test_atom_encoding():
    # distinct value at exactly one wealth: inclusive + exclusive cut pair
    f = StepFunction(0.0, [1.0, 1.0], [True, False], [0.5, 1.0])
    assert f(1.0 - 1e-9) == 0.0
    assert f(1.0) == 0.5
    assert f(1.0 + 1e-9) == 1.0


def test_locate_counts_cuts_below_and_inclusive_cuts_at():
    # the piece index is #cuts below w plus #inclusive cuts at w, here taken
    # from a cumulative count, on thresholds that repeat or nearly repeat
    rng = np.random.default_rng(8)
    for _ in range(5_000):
        n = int(rng.integers(0, 7))
        x = (rng.integers(-3, 4, n)
             + rng.choice([0.0, 0.0, 5e-10, 2e-9, 0.5], n)).astype(np.float64)
        f = StepFunction(float(rng.random()), x, rng.random(n) < 0.5,
                         rng.integers(0, 3, n) / 2.0)
        w = np.concatenate((f.x, f.x - 5e-10, f.x + 5e-10, rng.uniform(-4, 4, 4)))
        n_lt = np.searchsorted(f.x, w, side="left")
        n_le = np.searchsorted(f.x, w, side="right")
        pinc = np.concatenate(([0], np.cumsum(f.e == 0)))
        expected = n_lt + (pinc[n_le] - pinc[n_lt])
        assert np.array_equal(f._locate(w), expected)
        assert f._locate(w[0]) == expected[0]


# -- shift ------------------------------------------------------------------------

def test_shift_by_zero_is_identity():
    sp = AdditiveWealth()
    f = target_utility(1.9, strict=False)
    assert shift(f, 0.0, 0, sp) == f


def test_shift_translates_thresholds():
    sp = AdditiveWealth()
    f = target_utility(1.9, strict=False)
    g = shift(f, 1.0, 0, sp)
    assert g(0.9) == 1.0
    assert g(0.9 - 1e-9) == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_shift_matches_direct_evaluation(seed):
    # g(w) = f(accumulate(w, r, t)) at random points; exact thresholds are
    # excluded because (x - delta) + delta round-trips to a different float
    rng = np.random.default_rng(seed)
    for sp, t in ((AdditiveWealth(), 0), (DiscountedWealth(0.9), 2)):
        for _ in range(5):
            f = random_step(rng)
            r = float(rng.uniform(-2, 2))
            g = shift(f, r, t, sp)
            for w in rng.uniform(-8, 8, 100):
                assert g(w) == pytest.approx(f(sp.accumulate(w, r, t)),
                                             abs=1e-12)


def test_shift_exact_at_thresholds_for_representable_deltas():
    sp = AdditiveWealth()
    f = StepFunction(0.0, [1.5, 2.25], [True, False], [0.5, 1.0])
    g = shift(f, 0.5, 0, sp)   # thresholds move to 1.0, 1.75 exactly
    for w in (1.0, 1.75, 1.0 - 1e-9, 1.75 + 1e-9):
        assert g(w) == f(w + 0.5)


def test_ordinal_shift_is_table_pullback():
    table = {"w1": {"r": "w2"}, "w2": {"r": "w3"}, "w3": {"r": "w3"}}
    sp = OrdinalWealth(["w1", "w2", "w3"], table)
    f = target_utility(sp.key("w3"), strict=False)   # 1 exactly on w3
    g = shift(f, "r", 0, sp)
    assert g(sp.key("w1")) == 0.0
    assert g(sp.key("w2")) == 1.0   # w2 ∘ r = w3
    assert g(sp.key("w3")) == 1.0


def test_ordinal_shift_without_table_errors():
    sp = OrdinalWealth(["w1", "w2"])
    from qmdp import ConfigurationError
    with pytest.raises(ConfigurationError):
        shift(target_utility(1.0, False), "r", 0, sp)


# -- combine -------------------------------------------------------------------------

def test_combine_single_term_identity():
    f = StepFunction(0.2, [0.0, 1.0], [True, False], [0.5, 0.9])
    assert combine([(1.0, f)]) == f


def test_combine_two_indicators():
    c = combine([(0.5, target_utility(1.0, False)),
                 (0.5, target_utility(2.0, False))])
    assert c.intervals() == [(None, True, 0.0), (1.0, True, 0.5),
                             (2.0, True, 1.0)]


def test_combine_weight_validation():
    f = StepFunction(0.5)
    with pytest.raises(ValueError):
        combine([(0.7, f), (0.7, f)])
    with pytest.raises(ValueError):
        combine([(-0.2, f), (1.2, f)])


@pytest.mark.parametrize("seed", range(10))
def test_combine_pointwise_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    k = int(rng.integers(2, 5))
    fs = [random_step(rng) for _ in range(k)]
    raw = rng.random(k)
    weights = raw / raw.sum()
    c = combine(list(zip(weights, fs)))
    pts = sample_points(rng, fs + [c], n=100)
    direct = sum(w * f.eval_many(pts) for w, f in zip(weights, fs))
    assert np.abs(c.eval_many(pts) - direct).max() < 1e-12


# -- pointwise max ----------------------------------------------------------------------

def test_max_singleton():
    f = StepFunction(0.1, [1.0], [True], [0.8])
    env, amap = pointwise_max([f])
    assert env == f
    assert amap.intervals() == [(None, True, 0)]


def test_max_dominance_and_tiebreak():
    env, amap = pointwise_max([target_utility(1.0, False),
                               target_utility(2.0, False)])
    assert env == target_utility(1.0, False)
    # ties everywhere resolve to the lowest index
    assert amap.intervals() == [(None, True, 0)]


def test_max_argmax_structure():
    f = StepFunction(0.0, [1.0], [True], [1.0])
    g = StepFunction(0.5)
    env, amap = pointwise_max([f, g])
    assert env.intervals() == [(None, True, 0.5), (1.0, True, 1.0)]
    assert amap(0.0) == 1
    assert amap(1.0) == 0


@pytest.mark.parametrize("seed", range(10))
def test_max_pointwise_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    k = int(rng.integers(2, 5))
    fs = [random_step(rng) for _ in range(k)]
    env, amap = pointwise_max(fs)
    pts = sample_points(rng, fs + [env], n=100)
    stacked = np.stack([f.eval_many(pts) for f in fs])
    assert np.abs(env.eval_many(pts) - stacked.max(axis=0)).max() < 1e-12
    # argmax value is attained and is the first attaining index
    picked = amap.eval_many(pts)
    for j, w in enumerate(pts):
        vals = stacked[:, j]
        assert vals[picked[j]] == vals.max()
        assert picked[j] == int(np.argmax(vals))


# -- sup distance ----------------------------------------------------------------------------

def test_sup_distance_identity():
    f = StepFunction(0.3, [1.0], [False], [0.9])
    assert sup_distance(f, f) == 0.0


def test_sup_distance_indicators():
    assert sup_distance(target_utility(1.0, False),
                        target_utility(2.0, False)) == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_sup_distance_sampling_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    f, g = random_step(rng), random_step(rng)
    d = sup_distance(f, g)
    pts = sample_points(rng, [f, g], n=500)
    sampled = np.abs(f.eval_many(pts) - g.eval_many(pts)).max()
    assert sampled <= d + 1e-12
    assert d <= sampled + 1e-9   # thresholds are included in the samples


# -- canonical form ---------------------------------------------------------------------------

def test_canonical_form_unique():
    a = StepFunction(0.0, [1.0, 2.0], [True, True], [0.5, 0.5])
    b = StepFunction(0.0, [1.0], [True], [0.5])
    assert a == b     # redundant piece merged
    c = StepFunction(0.2, [3.0], [True], [0.2])
    assert c == StepFunction(0.2)


def test_threshold_merge_tolerance():
    f = StepFunction(0.0, [1.0, 1.0 + 1e-12], [True, True], [0.4, 0.8])
    assert len(f) == 1
    assert f(1.0) == 0.8    # last value of the merged run wins


def merge_values_to_fixpoint(base, v, seg):
    """The value merge written out: drop every cut equal to the value
    before it, and repeat until nothing drops."""
    keep = np.arange(len(v))
    while True:
        kept_v, kept_seg = v[keep], seg[keep]
        prev = np.where(np.r_[True, kept_seg[1:] != kept_seg[:-1]],
                        base[kept_seg], np.r_[0, kept_v[:-1]])
        if (kept_v != prev).all():
            return keep
        keep = keep[kept_v != prev]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 1),
                          st.lists(st.integers(-1, 1), max_size=8)),
                min_size=1, max_size=5))
def test_exact_value_merge_takes_one_pass(rows):
    # integer rules merge with tol 0 in a single pass; it must reach the
    # fixpoint the repeated pass reaches
    base = np.array([b for b, _ in rows], dtype=np.int64)
    seg = np.repeat(np.arange(len(rows)), [len(v) for _, v in rows])
    v = np.array([x for _, vs in rows for x in vs], dtype=np.int64)
    x = np.arange(len(v), dtype=np.float64)
    e = np.zeros(len(v), dtype=np.uint8)
    keep = merge_values_to_fixpoint(base, v, seg)
    mx, me, mv, mseg = _merge_values(base, x, e, v, 0, seg)
    assert np.array_equal(mx, x[keep]) and np.array_equal(me, e[keep])
    assert np.array_equal(mv, v[keep]) and np.array_equal(mseg, seg[keep])


def test_adjacent_values_distinct_invariant():
    rng = np.random.default_rng(7)
    for _ in range(200):
        f = random_step(rng)
        ext = np.concatenate(([f.base], f.v))
        assert np.all(np.abs(np.diff(ext)) > 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_ops_preserve_unit_interval(seed):
    rng = np.random.default_rng(400 + seed)
    fs = [random_step(rng) for _ in range(3)]
    raw = rng.random(3)
    c = combine(list(zip(raw / raw.sum(), fs)))
    env, _ = pointwise_max(fs)
    for f in (c, env):
        assert f.base >= -1e-12 and (len(f.v) == 0 or f.v.min() >= -1e-12)
        assert f.base <= 1 + 1e-12 and (len(f.v) == 0 or f.v.max() <= 1 + 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_ops_preserve_monotonicity(seed):
    rng = np.random.default_rng(500 + seed)
    fs = [random_monotone_step(rng) for _ in range(3)]
    raw = rng.random(3)
    outputs = [combine(list(zip(raw / raw.sum(), fs))),
               pointwise_max(fs)[0],
               shift(fs[0], float(rng.uniform(-2, 2)), 0, AdditiveWealth())]
    for f in outputs:
        ext = np.concatenate(([f.base], f.v))
        assert np.all(np.diff(ext) >= -1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_piece_count_bound(seed):
    rng = np.random.default_rng(600 + seed)
    fs = [random_step(rng) for _ in range(4)]
    raw = rng.random(4)
    total = sum(len(f) for f in fs)
    assert len(combine(list(zip(raw / raw.sum(), fs)))) <= total
    assert len(pointwise_max(fs)[0]) <= total


# -- restrict -----------------------------------------------------------------------------------

def test_restrict_window():
    f = StepFunction(0.0, [-1.0, 1.0, 3.0], [True, True, True], [0.2, 0.5, 0.9])
    g = restrict(f, lo=0.0, hi=2.0)
    for w in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert g(w) == f(w)
    assert g(-5.0) == f(0.0)
    assert g(5.0) == f(2.0)


# -- integer-valued functions (decision rules) -------------------------------------------

def test_action_map_lookup_and_merge():
    rule = StepFunction(0, [1.0, 2.0, 3.0], [True, True, True], [1, 1, 2])
    assert rule(0.5) == 0
    assert rule(1.0) == 1
    assert rule(2.5) == 1
    assert rule(3.0) == 2
    assert rule.intervals() == [(None, True, 0), (1.0, True, 1), (3.0, True, 2)]


def test_action_map_exclusive_cut():
    rule = StepFunction(0, [1.0], [False], [1])
    assert rule(1.0) == 0
    assert rule(1.0 + 1e-12) == 1


def test_value_dtype_follows_inputs():
    rule = StepFunction(0, [1.0, 2.0], [True, False], [2, 1])
    assert rule.v.dtype == np.int64
    assert type(rule(0.0)) is int and type(rule(1.5)) is int
    assert all(type(a) is int for _, _, a in rule.intervals())
    assert type(StepFunction(3)(0.0)) is int
    # integers merge exactly: a change of 1 survives, no tolerance applies
    assert len(StepFunction(0, [1.0, 2.0], [True, True], [0, 1])) == 1
    # whole-number float values stay float
    whole = [target_utility(1.0, strict=False), target_utility(2.0, strict=True),
             StepFunction(1.0, [0.0], [True], [0.0])]
    env, arg = pointwise_max(whole)
    mixed = combine([(0.5, whole[0]), (0.5, whole[1])])
    for f in whole + [env, mixed, shift(whole[0], 1.0, 0, AdditiveWealth())]:
        assert f.v.dtype == np.float64
        assert type(f(1.0)) is float
    assert arg.v.dtype == np.int64 and type(arg(1.0)) is int
    # integer inputs still give a float envelope
    env_int, _ = pointwise_max([StepFunction(1), StepFunction(0, [0.0], [True], [2])])
    assert env_int.v.dtype == np.float64 and type(env_int.base) is float
    # a float anywhere makes the whole function float
    assert StepFunction(0, [1.0], [True], [0.5]).v.dtype == np.float64
    assert StepFunction(0.0, [1.0], [True], [1]).v.dtype == np.float64


@pytest.mark.parametrize("seed", range(20))
def test_on_classes_integer_rows_match_the_full_constructor(seed):
    # integer rows skip the sort and the merges; the result must be the
    # canonical function all the same
    rng = np.random.default_rng(seed)
    row = rng.integers(-2, 3, int(rng.integers(1, 12)))
    change = np.flatnonzero(row[1:] != row[:-1]) + 1
    f = StepFunction.on_classes(row)
    assert f == StepFunction(int(row[0]), change, np.ones(len(change), bool),
                             row[change])
    assert isinstance(f.base, int)
    assert (f.x.dtype, f.e.dtype, f.v.dtype) == (np.float64, np.uint8, np.int64)
    # float rows still merge values within VALUE_TOL
    floats = StepFunction.on_classes(np.array([0.0, 1e-13, 1.0]))
    assert floats == StepFunction(0.0, [2.0], [True], [1.0])
