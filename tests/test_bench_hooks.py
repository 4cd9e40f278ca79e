"""The benchmark's hook targets exist in the package and are reached.

``perfbench/hooks.py`` wraps functions and methods by name.  A rename
that drops a phase mark stops the benchmark, and one that drops a layer
target, or moves the work out of the call path it is looked up in,
silently blanks a per-layer metric; either fails here first.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


@pytest.fixture(scope="module")
def hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(hooks):
    missing = [f"{t.module}.{t.attr}" for t in hooks.PHASE_MARKS + hooks.LAYERS
               if hooks.resolve(t) is None]
    assert missing == []


def test_every_hook_target_is_reached(hooks):
    from hdivwave import driver
    from hdivwave.mesh import MeshFamily

    # a given tau with snapshots, then "auto"; each run calls stable_tau
    family = MeshFamily("perturbed", base_divisions=4, seed=3)
    with hooks.installed(hooks.Recorder(), traced=True) as recorder:
        driver.run_benchmark(family, 1, driver.PlaneWave(), 0.001, 0.05,
                             snapshot_every=10, snapshot_n=10)
        driver.run_benchmark(family, 0, driver.PlaneWave(), "auto", 0.05)
    assert recorder.absent == []
    reached = {span[0] for span in recorder.spans}
    assert [t.name for t in hooks.PHASE_MARKS + hooks.LAYERS
            if t.name not in reached] == []
