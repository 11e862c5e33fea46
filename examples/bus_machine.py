#!/usr/bin/env python
"""The Section-V bus machine: half the ports, bus faults included.

Builds the bus implementation of ``B^1_{2,3}`` (the paper's Figs. 4-5),
shows the 2k+3 = 5 port count against the 4k+4 = 8 of point-to-point,
drives real traffic through the bus simulator, then kills first a node
and then an entire *bus* and reconfigures through both.

Run:  python examples/bus_machine.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    bus_degree_bound,
    bus_ft_debruijn,
    debruijn,
    ft_degree_bound,
    reconfigure_with_bus_faults,
    verify_bus_embedding,
)
from repro.core.debruijn import debruijn_directed_successors
from repro.routing import shift_route
from repro.simulator import BusNetworkSimulator
from repro.viz import bus_listing


def main() -> int:
    h, k = 3, 1
    bg = bus_ft_debruijn(h, k)
    target = debruijn(2, h)
    succ = debruijn_directed_successors(2, h)

    print(f"bus implementation of B^{k}_{{2,{h}}} (paper Fig. 4):\n")
    print(bus_listing(bg))
    print(
        f"\nports per node: {bg.max_bus_degree()} (= 2k+3 = {bus_degree_bound(k)}) "
        f"vs point-to-point degree {ft_degree_bound(2, k)} — almost halved"
    )

    # -- drive traffic over buses -------------------------------------------
    sim = BusNetworkSimulator(bg)
    rng = np.random.default_rng(3)
    phi0, _ = reconfigure_with_bus_faults(h, k)  # identity: no faults yet
    pairs = [(int(s), int(d)) for s in range(8) for d in rng.integers(0, 8, 2) if s != d]
    for s, d in pairs:
        logical = shift_route(s, d, 2, h)
        sim.inject_route([int(phi0[v]) for v in logical])
    sim.run()
    print(f"\nfault-free traffic: {sim.stats()}")

    # -- a node fault ---------------------------------------------------------
    fault = 4
    phi, eff = reconfigure_with_bus_faults(h, k, node_faults=[fault])
    healthy = [b for b in range(bg.bus_count) if b != fault]
    ok = verify_bus_embedding(bg, target, phi, healthy_buses=healthy,
                              directed_successors=succ)
    print(f"\nnode {fault} fails -> remap hosts logical machine on "
          f"{sorted(set(int(p) for p in phi))}; drivable over healthy buses: {ok}")

    # -- a BUS fault (the §V rule: owner is declared faulty) -------------------
    dead_bus = 7
    phi2, eff2 = reconfigure_with_bus_faults(h, k, bus_faults=[dead_bus])
    healthy2 = [b for b in range(bg.bus_count) if b != dead_bus]
    ok2 = verify_bus_embedding(bg, target, phi2, healthy_buses=healthy2,
                               directed_successors=succ)
    print(f"bus {dead_bus} fails -> node {list(eff2)} treated as faulty; "
          f"drivable without bus {dead_bus}: {ok2}")
    return 0 if (ok and ok2) else 1


if __name__ == "__main__":
    raise SystemExit(main())
