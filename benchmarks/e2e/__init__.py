"""The repo benchmark: five calibrated closed-loop workloads.

``python -m benchmarks.e2e`` (from the repo root) runs them; see
``README.md`` beside this file for the workloads, the metrics and how
to read a result, and ``BENCHMARK.json`` at the repo root for the
contract the CI driver runs it under.  Later PRs cite a number as
``<workload>/<metric>`` and never edit this directory.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from time import perf_counter

#: earliest clock reading of the process: ``setup_s`` counts from here
STARTED_AT = perf_counter()

ROOT = Path(__file__).resolve().parents[2]

# the driver's command carries no PYTHONPATH; the library lives in src/
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))
