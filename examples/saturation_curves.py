"""Saturation-throughput curves under open-loop streaming traffic.

The paper's machines are meant to run *continuously* — so instead of
draining a fixed batch, stream Poisson arrivals per cycle at a ladder of
offered loads and watch where delivered throughput stops keeping up.
Three machines, same traffic: the fault-free FT machine, the same
machine after a fault (reconfigured — the paper's zero-dilation claim
says nothing should change), and the spare-less baseline detouring
around the dead node.

Run:  PYTHONPATH=src python examples/saturation_curves.py
CLI:  the reconfigured machine's spec is saved as saturation_ladder.json
      PYTHONPATH=src python -m repro run examples/saturation_ladder.json \
          --rates 2,4,8,12,16
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import ExperimentSpec  # noqa: E402
from repro.simulator import find_saturation  # noqa: E402

M, H, K = 2, 5, 1
FAULT = ((0, 9),)
RATES = [2, 4, 8, 12, 16]

machines = {
    "FT fault-free": ExperimentSpec(
        m=M, h=H, k=K, loop="stream", cycles=600, warmup=100
    ),
    "FT 1 fault (reconfig)": ExperimentSpec(
        m=M, h=H, k=K, loop="stream", cycles=600, warmup=100, faults=FAULT
    ),
    "bare 1 fault (detours)": ExperimentSpec(
        m=M, h=H, k=K, loop="stream", cycles=600, warmup=100, faults=FAULT,
        controller="detour",
    ),
}

for label, base in machines.items():
    res = find_saturation(base, RATES, bisect=3, workers=0)
    print(f"\n=== {label} ===")
    print(f"{'offered':>10} {'delivered':>10} {'ratio':>7} {'backlog':>8}")
    for p in res.points:
        s = p.stats
        print(f"{s.offered_rate:>10.2f} {s.delivered_rate:>10.2f} "
              f"{s.delivery_ratio:>7.3f} {s.final_occupancy:>8}")
    if res.bracketed:
        print(f"saturation throughput ~ {res.saturation_rate:.2f} pkt/cycle")
    else:
        print(f"not bracketed (bound ~ {res.saturation_rate:.2f} pkt/cycle)")

print(
    "\nReading: the reconfigured machine saturates exactly where the "
    "fault-free one does\n(zero dilation under sustained load); the "
    "spare-less baseline is capped near the\nunreachable-traffic "
    "ceiling (~94% here) at every rate — the dead node's traffic\nis "
    "unroutable, whatever the load."
)
