"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qmdp import (AdditiveWealth, GarnetConfig, QuantileQuery, generate_garnet,
                  problem_to_dict)
from qmdp import solver

import bench
from tracer import Tracer, instrumentation
from workloads import WORKLOADS, Query, Workload

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _head(schedule, n=16):
    return list(itertools.islice(schedule, n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_given_its_seed(name):
    w = WORKLOADS[name]
    first = w.instances[0]
    assert problem_to_dict(*w.build(first)) == problem_to_dict(*w.build(first))
    assert problem_to_dict(*w.build(first)) != problem_to_dict(*w.build(first + 1))
    assert _head(w.schedule(7)) == _head(w.schedule(7))
    assert _head(w.schedule(7)) != _head(w.schedule(8))
    assert sorted(_head(w.schedule(7), len(w.pairs()))) == list(range(len(w.pairs())))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_query_has_a_pinned_reference(name):
    w = WORKLOADS[name]
    pinned = REFERENCES[name]
    for instance in w.instances:
        assert set(pinned[str(instance)]) == {q.key for q in w.queries}


def _bound_names():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _, _ in instrumentation()}


def test_tracer_restores_every_wrapped_name():
    originals = _bound_names()
    with pytest.raises(RuntimeError):
        with Tracer():
            for (owner, attr), fn in originals.items():
                assert vars(owner)[attr] is not fn
            raise RuntimeError("leave the block early")
    for (owner, attr), fn in _bound_names().items():
        assert fn is originals[(owner, attr)], (owner, attr)


def _build_tiny(seed):
    m = generate_garnet(GarnetConfig(6, 2, 2, seed=seed), horizon=3)
    return m, AdditiveWealth.for_mdp(m)


def _tiny_problem():
    return _build_tiny(3)


def test_self_times_sum_to_the_traced_solve_span():
    m, space = _tiny_problem()
    with Tracer() as tracer:
        for trace_id in (1, 2):
            with tracer.active(trace_id):
                solver.solve_quantile(m, space, QuantileQuery(0.5, "lower", 1e-2))
    cols = tracer.columns()
    solve_id = tracer.names.index("solver.solve_quantile")
    for trace_id in (1, 2):
        mine = cols["trace"] == trace_id
        root = np.flatnonzero(mine & (cols["name"] == solve_id))
        assert len(root) == 1 and cols["parent"][root[0]] == -1
        # every other span of the query descends from the solve span
        assert (cols["parent"][mine] >= 0).sum() == mine.sum() - 1
        assert cols["self"][mine].min() >= 0.0
        assert cols["self"][mine].sum() == pytest.approx(
            cols["dur"][root[0]], rel=1e-9, abs=1e-9)
        child = mine & (cols["parent"] >= 0)
        parents = cols["parent"][child]
        assert np.all(cols["start"][child] >= cols["start"][parents])
        assert np.all(cols["end"][child] <= cols["end"][parents])


def test_calls_outside_a_trace_id_leave_no_spans():
    m, space = _tiny_problem()
    with Tracer() as tracer:
        solver.solve_quantile(m, space, QuantileQuery(0.5, "lower", 1e-2))
    assert len(tracer.start) == 0


def test_answer_gate_rejects_a_wrong_quantile(tmp_path):
    problem = _tiny_problem()
    q = Query(0.5, "lower", 1e-2)
    w = WORKLOADS["garnet"]
    report, dist, *_ = bench.run_query(w, problem, q, tmp_path)
    assert bench.check_answer(problem, q, report, dist, report.quantile) == []
    off = report.quantile + 3 * q.epsilon
    assert bench.check_answer(problem, q, report, dist, off)


def test_reachable_slices_counts_states_per_layer():
    m, _ = _tiny_problem()
    reached, computed = bench.reachable_slices(m)
    assert computed == m.horizon * m.n_states
    assert m.horizon <= reached <= computed
    layer1 = {int(s) for a in range(m.n_actions)
              for s in m.successors(m.initial_state, a)}
    assert reached >= 1 + len(layer1)


TINY = Workload(name="tiny", why="self-test", build=_build_tiny,
                queries=(Query(0.5, "lower", 1e-2), Query(0.5, "upper", 1e-2)))


def _tiny_references(shift=0.0):
    refs = {}
    for instance in TINY.instances:
        m, space = TINY.build(instance)
        refs[str(instance)] = {
            q.key: {"quantile": solver.solve_quantile(m, space, q.to_query())
                    .quantile + shift}
            for q in TINY.queries}
    return {TINY.name: refs}


@pytest.fixture
def tiny_set_up_time(monkeypatch):
    # the fresh-interpreter set-up only knows the real workloads
    monkeypatch.setattr(bench, "time_set_up", lambda workload, workdir: 0.5)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_reports_every_declared_metric(tmp_path, tiny_set_up_time, trace,
                                             kind):
    workdir = tmp_path / "run"
    workdir.mkdir()
    result, info = bench.measure(TINY, 0, 0.0, trace, workdir, _tiny_references())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + len(TINY.pairs()) * (1 + trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert info["error_rate"] == 0.0


def test_wrong_answers_count_as_failed(tmp_path, tiny_set_up_time):
    workdir = tmp_path / "run"
    workdir.mkdir()
    result, info = bench.measure(TINY, 0, 0.0, 0, workdir,
                                 _tiny_references(shift=1.0))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert info["error_rate"] == 1.0


def test_set_up_in_a_fresh_interpreter_writes_every_problem(tmp_path):
    w = WORKLOADS["lattice-inf"]
    assert bench.time_set_up(w, tmp_path) > 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"problem-{i}.json" for i in range(len(w.instances))]
