"""
Benchmark domains and runtime scaling
=====================================

The two benchmark families: random MDPs with a fixed branching factor,
and a server-farm sizing problem with Poisson arrivals.  Times one
functional backward induction per grid point (small sizes so the script
stays quick; push the grids up to reproduce full-scale numbers).
"""

import time

from qmdp import (AdditiveWealth, DataCenterConfig, GarnetConfig,
                  backward_induction, default_branching, generate_datacenter,
                  generate_garnet, validate)

print("Garnet scaling (actions = 5, branching = ceil(log2 n), horizon 5)")
for n in (50, 100, 250):
    cfg = GarnetConfig(n, 5, default_branching(n), seed=1)
    m = generate_garnet(cfg, horizon=5)
    assert validate(m) == []
    space = AdditiveWealth.for_mdp(m)
    w = 0.5 * (space.w_min + space.w_max)
    start = time.perf_counter()
    _, p, _ = backward_induction(m, space, w, strict=False)
    print(f"  n_states {n:4d}: {time.perf_counter() - start:6.2f}s "
          f"(p = {p:.3f} at the midpoint target)")

print("\nData-center scaling (4 servers, horizon sweep)")
cfg = DataCenterConfig(4)
lam, thresholds = cfg.resolved()
print(f"  arrival rates {lam}, regime thresholds {thresholds}, "
      f"{cfg.n_servers * cfg.n_jobs} states")
for horizon in (2, 4, 6):
    m = generate_datacenter(cfg, horizon=horizon)
    space = AdditiveWealth.for_mdp(m)
    w = 0.5 * (space.w_min + space.w_max)
    start = time.perf_counter()
    backward_induction(m, space, w, strict=False)
    print(f"  horizon {horizon}: {time.perf_counter() - start:6.2f}s")
