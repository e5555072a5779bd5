"""No simulating process loads numpy.

numpy is a test-only dependency: the dataset generators draw from
:mod:`repro.workloads.rng`.  A fresh interpreter imports the package
and the benchmark's import probe modules, runs a mixed batch (every
RMS kernel plus a Fig 7 microbenchmark spec) and one observed
``execute_spec``, and must end with numpy absent from ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import repro
import perfbench.tracing, perfbench.workloads
from repro.obs import EventBus, MetricsSink
from repro.sim.batch import BatchRunner
from repro.sim.executor import RunSpec, execute_spec

kernels = ("hip", "tms", "fs", "gps", "smc", "gbc", "mfp")
specs = [RunSpec(kernel, "tiny", "1x2", 4) for kernel in kernels]
specs.append(RunSpec.micro("A", "1x2", 4))
assert len(BatchRunner(specs).run()) == len(specs)
bus = EventBus()
bus.attach(MetricsSink())
execute_spec(RunSpec("hip", "tiny", "1x2", 4), obs=bus)
bus.close()
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_simulating_never_imports_numpy():
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([path] if path else [])
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
