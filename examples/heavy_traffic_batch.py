"""Heavy traffic on a reconfiguring machine — the batch engine at work.

The paper's claim is that after a fault, reconfiguration restores
*full-speed* routing: same hop counts, same latency profile as the
fault-free machine.  Demonstrating that at scale means draining hundreds
of thousands of packets, which is what the vectorized ``BatchEngine`` is
for.  This example pushes 200k uniform-traffic packets through a
``B^2_{2,9}`` machine that loses two processors mid-run, then checks the
zero-dilation claim on the delivered traffic.
"""

from __future__ import annotations

import time

import numpy as np

from repro.simulator import (
    FaultScenario,
    ReconfigurationController,
    make_pattern,
)


def main() -> None:
    m, h, k = 2, 9, 2
    n = m ** h
    rng = np.random.default_rng(42)

    # -- 200k packets, two mid-run faults, batch engine ---------------------
    pairs = make_pattern(n, "uniform", 200_000, rng)
    ctrl = ReconfigurationController(m, h, k)
    ctrl.schedule(FaultScenario([(40, 100), (80, 333)]))
    batches = np.array_split(pairs, 4)
    t0 = time.perf_counter()
    stats = ctrl.run_workload(batches, cycles_per_batch=5)
    elapsed = time.perf_counter() - t0
    print(f"B^{k}_{{2,{h}}} ({n} logical nodes), {len(pairs)} packets, "
          f"faults fired at {ctrl.fault_log}")
    print(f"batch engine drained the workload in {elapsed:.2f} s: {stats}")
    print(f"packets lost inside failing routers: {ctrl.lost_to_faults}; "
          f"conservation holds: "
          f"{stats.delivered + stats.dropped == stats.injected}")

    # -- zero dilation: post-fault hops match the fault-free machine --------
    probe = make_pattern(n, "uniform", 20_000, np.random.default_rng(7))
    clean = ReconfigurationController(m, h, k)
    s_clean = clean.run_workload([probe.copy()])
    post = ReconfigurationController(m, h, k)
    post.rec.fail_node(100)
    post.rec.fail_node(333)
    s_post = post.run_workload([probe.copy()])
    print(f"\nzero dilation after reconfiguration: mean hops "
          f"{s_clean.mean_hops:.3f} (clean) vs {s_post.mean_hops:.3f} "
          f"(2 faults) — identical: {s_clean.mean_hops == s_post.mean_hops}")


if __name__ == "__main__":
    main()
