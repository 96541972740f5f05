"""One cold set-up of a workload in a fresh interpreter; ``run.py`` times it.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <sizes-json>

Imports the package, generates the workload's data and builds its problems,
then exits. The parent times it from process start to exit, which is the
benchmark's ``setup_s``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, sizes = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
sizes["exp1_caps"] = tuple(sizes["exp1_caps"])
workloads.WORKLOADS[name]().prepare(seed, workloads.Sizes(**sizes), Path("."))
