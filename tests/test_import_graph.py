"""What each entry point loads.

Every start of the program — a benchmark child, ``repro serve`` after a
crash, each spawned ``repro sim --shards N`` worker — pays for the modules
it imports, and without cached bytecode it compiles each of them.  So
every entry point loads only what its run uses: the packages export their
names lazily (:mod:`repro._lazy`), a serve or shard cell imports only the
scheduler class its spec names, the CLI parser loads neither the shard
driver nor ``multiprocessing``, and Figure 2 runs inline.  Everything a
run needs still loads while it is built, never for the first time inside
its loop.

The package has no third-party dependency, so no entry point may load
numpy, ``repro.analysis`` included.

Each check runs in a fresh interpreter, because the pytest process has
already imported most of the package.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

MODULES = ("repro", "repro.sim", "repro.serve", "repro.shard", "repro.obs",
           "repro.faults", "repro.experiments", "repro.analysis", "repro.cli")

#: The package ``__init__``s that export their names lazily.
LAZY_PACKAGES = ("repro", "repro.core", "repro.obs", "repro.sim",
                 "repro.experiments", "repro.serve", "repro.shard",
                 "repro.faults")

#: The modules defining the flat (one-level) schedulers.
FLAT_SCHEDULER_MODULES = frozenset(
    f"repro.core.{name}" for name in (
        "fifo", "wrr", "drr", "scfq", "sfq", "virtual_clock", "ffq", "wfq",
        "wf2q", "wf2qplus"))

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def fresh(code):
    """Run ``code`` in a fresh interpreter on this source tree and return
    the JSON value of the last line it prints."""
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    return json.loads(out.stdout.splitlines()[-1])


def under(loaded, package):
    """The loaded modules that are ``package`` or inside it."""
    return {m for m in loaded
            if m == package or m.startswith(package + ".")}


def test_simulator_import_path_does_not_load_numpy():
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.strip() == "False"


def test_flat_run_loads_one_scheduler_and_no_subsystem():
    loaded = set(fresh("""
        import json, sys
        from repro import WF2QPlusScheduler
        from repro.sim.engine import Simulator
        from repro.sim.link import Link
        from repro.traffic import CBRSource

        sim = Simulator()
        sched = WF2QPlusScheduler(1e6)
        sched.add_flow("a", 1)
        link = Link(sim, sched)
        CBRSource("a", 5e5, 8000).attach(sim, link).start()
        sim.run(until=0.1)
        assert link.packets_sent > 0
        print(json.dumps(sorted(sys.modules)))
    """))
    assert under(loaded, "repro.core") == {
        "repro.core", "repro.core.flow", "repro.core.packet",
        "repro.core.scheduler", "repro.core.wf2qplus"}
    assert under(loaded, "repro.obs") == {"repro.obs", "repro.obs.events"}
    for package in ("serve", "shard", "faults", "experiments", "analysis",
                    "tcp"):
        assert not under(loaded, f"repro.{package}"), package


SERVE_START = """
    import json, sys, tempfile
    from repro.serve import ServiceRunner, build_service_spec

    directory = tempfile.mkdtemp()
    runner = ServiceRunner(build_service_spec(flows=16, duration=0.5),
                           checkpoint_dir=directory, checkpoint_every=0.01,
                           idle_ttl=0.05)
"""


def test_service_runner_start_loads_no_shard_driver_or_bench():
    loaded = set(fresh(SERVE_START + """
    print(json.dumps(sorted(sys.modules)))
    """))
    assert loaded & FLAT_SCHEDULER_MODULES == {"repro.core.wf2qplus"}
    assert not {"multiprocessing", "concurrent.futures"} & loaded
    assert not {"repro.shard.driver", "repro.shard.merge",
                "repro.shard.partition", "repro.shard.scenarios"} & loaded
    assert not {"repro.faults.chaos", "repro.faults.plan"} & loaded


def test_serving_through_checkpoints_imports_nothing_new():
    result = fresh(SERVE_START + """
    before = set(sys.modules)
    for k in range(12):
        runner.submit("set_share", flow=f"f{k % 4:04d}", share=1 + k % 3)
        runner.advance(0.002)
    print(json.dumps({"checkpoints": runner.checkpoints_written,
                      "new": sorted(set(sys.modules) - before)}))
    """)
    assert result["checkpoints"] >= 2
    assert result["new"] == []


def test_cli_parser_loads_no_shard_driver_or_multiprocessing():
    loaded = set(fresh("""
        import json, sys
        from repro.cli import build_parser

        build_parser()
        print(json.dumps(sorted(sys.modules)))
    """))
    assert not {"multiprocessing", "concurrent.futures",
                "repro.shard.driver"} & loaded


def test_fig2_runs_inline():
    loaded = set(fresh("""
        import json, sys
        from repro.core.wf2q import WF2QScheduler
        from repro.core.wf2qplus import WF2QPlusScheduler
        from repro.core.wfq import WFQScheduler
        from repro.experiments.fig2 import run_fig2

        out = run_fig2([WFQScheduler, WF2QScheduler, WF2QPlusScheduler])
        assert len(out) == 4
        print(json.dumps(sorted(sys.modules)))
    """))
    assert not {"multiprocessing", "concurrent.futures"} & loaded


@pytest.fixture(scope="module")
def exports():
    """For every lazy package, in one fresh interpreter: what ``dir()``
    lists before any name is read, each ``__all__`` name's resolution,
    and what an unknown name gives.

    Every ``repro`` submodule is imported before any package attribute
    is read, so a submodule bound to its package's namespace cannot
    shadow a public name of the same spelling.
    """
    return fresh(f"""
        import importlib, json, pkgutil, sys, types

        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        report = {{}}
        for name in {LAZY_PACKAGES!r}:
            package = sys.modules[name]
            listed = dir(package)
            names = {{}}
            for attr in package.__all__:
                value = getattr(package, attr)
                if isinstance(value, (type, types.FunctionType)):
                    owners = [value.__module__]
                else:
                    owners = [m for m, module in list(sys.modules.items())
                              if m.startswith("repro.")
                              and not hasattr(module, "__path__")
                              and getattr(module, attr, None) is value]
                names[attr] = {{
                    "owners": owners,
                    "same": [getattr(sys.modules[m], attr, None) is value
                             for m in owners],
                    "cached": vars(package).get(attr) is value,
                }}
            try:
                getattr(package, "no_such_name")
                unknown = "no error"
            except AttributeError as exc:
                unknown = str(exc)
            report[name] = {{"names": names, "dir": listed,
                             "unknown": unknown}}
        print(json.dumps(report))
    """)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_name_is_the_defining_modules_object(self, exports,
                                                       package):
        for attr, info in exports[package]["names"].items():
            if attr == "__version__":
                continue
            assert info["owners"], attr
            assert all(info["same"]), (attr, info)
            assert info["cached"], attr

    def test_every_name_is_listed_by_dir(self, exports, package):
        listed = set(exports[package]["dir"])
        assert set(exports[package]["names"]) <= listed

    def test_unknown_name_raises_attribute_error(self, exports, package):
        assert exports[package]["unknown"] == (
            f"module {package!r} has no attribute 'no_such_name'")
