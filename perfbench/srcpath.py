"""Put the checkout's ``src/`` first on ``sys.path`` so the benchmark
always measures the code next to it.  Imported for that effect before
anything imports ``repro``; exits non-zero when there is no source tree.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit(f"perfbench: no repro package under {SRC}")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
