"""Set-up probe: one fresh process that becomes ready for a workload.

``python3 perfbench/probe.py <workload>`` imports ``repro``, starts the
workload's warm pool (and, for ``service-jobs``, the HTTP service),
prints ``ready`` and waits until its standard input closes, then shuts
down.  ``run.py`` times several probes from launch to ``ready`` and
reports their median as ``setup_s``.
"""

import sys

from workloads import WORKLOADS


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]()
    ctx = workload.start()
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        workload.close(ctx)


if __name__ == "__main__":
    main()
