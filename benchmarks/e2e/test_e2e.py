"""Self-test of the end-to-end benchmark, at a tiny scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import copy
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

#: Small enough that a repeat takes well under a second.
SCALE = 0.02
SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload, trace, cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def pairs():
    """One untraced and one traced repeat of every workload."""
    return run.run_plan(run.make_plan(NAMES, 0, 1), seed=1, scale=SCALE,
                        progress=False)


def test_workloads_match_spec():
    assert list(workloads.WORKLOADS) == NAMES
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    human = lines[:-1]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[2] == m["unit"] for line in human), \
            m["name"]


def test_window_minimum_estimator():
    walls = [[5, 1, 9, 4], [3, 4, 2, 4], [7, 2, 8, 1]]
    assert run.window_minimums(walls) == [3, 1, 2, 1]

    def repeat(walls_ns, setup_s, rss_kib):
        return {"walls_ns": walls_ns, "counts": [10, 20, 30, 40],
                "setup_s": setup_s, "rss_kib": rss_kib}

    runs = [repeat(w, s, k) for w, s, k in
            zip([[v * 10**6 for v in w] for w in walls],
                (0.3, 0.1, 0.2), (2048, 1024, 4096))]
    values = run.e2e_values(runs)
    assert values["pkts_per_s"] == pytest.approx(40 / 7e-3)
    assert values["setup_s"] == 0.2
    assert values["peak_rss_mib"] == 2.0
    assert values["slice_p50_ms"] == 1.0
    assert values["slice_p99_ms"] == 3.0
    assert run.percentile(range(1, 101), 0.99) == 99
    assert run.percentile([4.0], 0.5) == 4.0


def test_traced_and_untraced_outputs_are_equal(pairs):
    for name in NAMES:
        untraced, traced = pairs[name]
        assert "error" not in untraced and "error" not in traced, name
        assert not untraced["errors"] and not traced["errors"], name
        for key in run.AGREE_KEYS:
            assert untraced[key] == traced[key], (name, key)
        assert traced["layers"], name


def test_corrupted_reference_digest_fails_every_repeat(pairs):
    name = "hier_cbr"
    good = {k: pairs[name][0][k] for k in run.REFERENCE_KEYS}
    bad = dict(good, digest="0" * 64)
    ok = run.summarize(SPEC, name, 1, 1.0, copy.deepcopy(pairs[name]),
                       {name: {"1": good}})
    assert ok["correct"] and ok["failed_frac"] == 0
    broken = run.summarize(SPEC, name, 1, 1.0, copy.deepcopy(pairs[name]),
                           {name: {"1": bad}})
    assert not broken["correct"]
    assert broken["failed_frac"] == 1
    assert broken["failed"] == broken["attempted"] == 2
    assert broken["metrics"] == {}


def test_repeats_that_disagree_fail():
    runs = [{"errors": [], **{k: 1 for k in run.AGREE_KEYS}}
            for _ in range(3)]
    runs[2]["digest"] = 2
    run.check_runs(runs, None)
    assert [r["ok"] for r in runs] == [True, True, False]


@pytest.mark.parametrize("workload", NAMES)
def test_setup_never_falls_inside_a_timed_window(workload, tmp_path,
                                                 monkeypatch):
    from repro.core.scheduler import PacketScheduler
    from repro.serve import ServiceRunner
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    from repro.traffic import Source

    stamps = []

    def stamped(cls, method):
        original = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            stamps.append(time.perf_counter_ns())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    for cls, method in ((Simulator, "__init__"), (Link, "__init__"),
                        (PacketScheduler, "add_flow"),
                        (Source, "__init__"), (Source, "start"),
                        (ServiceRunner, "__init__")):
        stamped(cls, method)
    result = child.run_repeat(workload, 1, SCALE, False, str(tmp_path),
                              time.perf_counter())
    assert stamps
    assert max(stamps) < result["first_window_ns"]
    assert result["setup_s"] > 0
    assert not result["errors"]


def _side(value, spread, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"],
                           "spread": spread} for m in SPEC["end_to_end"]}
    return {"workloads": {n: {"failed": failed, "metrics": metrics}
                          for n in NAMES}}


def test_compare_verdicts():
    out = io.StringIO()
    assert run.compare(SPEC, _side(100.0, 0.01), _side(101.0, 0.01), out)
    assert "worse" not in out.getvalue()
    out = io.StringIO()
    # 30% more on every metric: worse for the lower-is-better ones.
    assert not run.compare(SPEC, _side(100.0, 0.01), _side(130.0, 0.01), out)
    assert " worse" in out.getvalue() and " better" in out.getvalue()
    out = io.StringIO()
    assert run.compare(SPEC, _side(100.0, 0.5), _side(130.0, 0.01), out)
    assert "unresolved" in out.getvalue()
    assert not run.compare(SPEC, _side(100.0, 0.01),
                           _side(100.0, 0.01, failed=1), io.StringIO())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(NAMES[0], 0, cwd=tmp_path,
                   script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
