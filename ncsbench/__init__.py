"""ncsbench: one four-workload end-to-end benchmark of the NCS runtime.

Run from the repository root as ``python3 -m ncsbench run``; see
``ncsbench/README.md`` for the workloads, the metrics and how to read
them, and ``BENCHMARK.json`` for the driver-facing contract.
"""

import sys
from pathlib import Path

#: The checkout this package sits in.
ROOT = Path(__file__).resolve().parent.parent

# The program under test is run from source.  The benchmark command
# cannot set PYTHONPATH, so put <checkout>/src on the path here; when
# the program is absent, importing it fails and the command exits
# non-zero.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
