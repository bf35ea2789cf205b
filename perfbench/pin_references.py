"""Pin the reference answer of every (instance, query) pair of each workload.

Usage (from the root of a checkout)::

    python3 perfbench/pin_references.py [workload ...]

Writes ``perfbench/references.json``: per workload, per instance, per
query key, the solver's quantile and final bracket.  The answer check in
``run.py`` compares every benchmark answer against these, so run this only
at a commit whose answers are trusted (the committed file was made at the
commit that defined the benchmark) and never to make a failing check pass.
Each pinned answer must carry a ``quantile_certificate`` (finite horizons)
and lie strictly inside the searched range, so that no query degenerates
to a bracket end.
"""

import json
import sys
import tempfile
from pathlib import Path

import bootstrap

OUT = Path(__file__).resolve().parent / "references.json"


def pin(workload, workdir):
    from qmdp import solver
    from bench import set_up
    entries = {}
    for instance, (m, space) in zip(workload.instances, set_up(workload, workdir)):
        answers = {}
        for q in workload.queries:
            query = q.to_query()
            report = solver.solve_quantile(m, space, query)
            if m.horizon is not None and not solver.quantile_certificate(
                    m, space, report, query):
                raise SystemExit(f"{workload.name} {instance} {q.key}: "
                                 "no certificate")
            lo, hi = q.quantile_bounds or (space.w_min, space.w_max)
            if report.at_bottom or report.quantile in (lo, hi):
                raise SystemExit(f"{workload.name} {instance} {q.key}: answer "
                                 f"{report.quantile!r} at the range end")
            answers[q.key] = {
                "quantile": report.quantile,
                "bracket": list(report.bracket),
                "tests": report.iterations + report.extra_solves,
            }
            print(workload.name, instance, q.key, answers[q.key], flush=True)
        entries[str(instance)] = answers
    return entries


def main(names):
    bootstrap.use_source_tree()
    from workloads import WORKLOADS
    pinned = json.loads(OUT.read_text()) if OUT.exists() else {}
    work_dir = bootstrap.ROOT / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        for name in names or list(WORKLOADS):
            pinned[name] = pin(WORKLOADS[name], Path(tmp))
            OUT.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
