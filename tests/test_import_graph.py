"""The simulator's import path does not load numpy.

numpy is an optional accelerator of ``repro.analysis.fluid`` and nothing
else.  The schedulers, the simulator, service mode, the sharded driver,
observability, fault injection, the experiments and the CLI must start
without it, so their start-up time and memory do not depend on it.  The
check runs in a fresh interpreter because the pytest process may already
have imported numpy.
"""

import os
import subprocess
import sys

import repro

MODULES = ("repro", "repro.sim", "repro.serve", "repro.shard", "repro.obs",
           "repro.faults", "repro.experiments", "repro.cli")


def test_simulator_import_path_does_not_load_numpy():
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
