"""Self-test of the benchmark: wrapping, the layer map, digests, bare checkout.

    python3 -m pytest perfbench/tests -q

Each workload runs two operations, untraced and traced, on seed 2.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.layers import (  # noqa: E402
    ALL_WORKLOADS, EXERCISED_ON, NEVER_ON, UNMEASURED_LAYERS, WORKLOADS, WRAPPED,
)

OPS = 2


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    run.load_library()
    from perfbench import workloads
    from perfbench.tracer import Tracer

    out = {}
    for name in ALL_WORKLOADS:
        wl = workloads.make(name, 2, str(tmp_path_factory.mktemp(name)))
        wl.digest_ops = OPS
        tracer = Tracer()
        untraced, traced = run.measure(wl, 0.0, OPS, tracer)
        failures = run.evaluate(wl, untraced) + run.evaluate(wl, traced)
        out[name] = {
            "totals": tracer.layer_totals(),
            "failures": failures,
            "digests": [run.quality(wl, untraced), run.quality(wl, traced)],
        }
    return out


def test_gated_workloads_are_the_ones_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_map_covers_every_wrapped_function():
    assert set(EXERCISED_ON) == {f"{m}.{a}" for m, a in WRAPPED}
    assert not {m for m, _ in WRAPPED} & set(UNMEASURED_LAYERS)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_outputs_pass_their_checks(runs, workload):
    assert runs[workload]["failures"] == []


@pytest.mark.parametrize("name", sorted(EXERCISED_ON))
def test_wrapped_function_is_called_where_the_map_says(runs, name):
    for workload in EXERCISED_ON[name]:
        assert runs[workload]["totals"][name]["calls"] > 0, workload


@pytest.mark.parametrize("name", sorted(NEVER_ON))
def test_bypassed_function_is_never_called(runs, name):
    for workload in NEVER_ON[name]:
        assert runs[workload]["totals"][name]["calls"] == 0, workload


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_tracing_leaves_designs_unchanged(runs, workload):
    untraced, traced = runs[workload]["digests"]
    assert untraced["sha256"] is not None
    assert untraced == traced


def test_self_time_never_exceeds_busy_time(runs):
    for totals in (r["totals"] for r in runs.values()):
        for t in totals.values():
            assert -1e-9 <= t["self_s"] <= t["busy_s"] + 1e-9


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
