"""The benchmark's hook targets exist in the package.

``perfbench/hooks.py`` wraps functions and methods by name.  A rename
that drops a phase mark stops the benchmark, and one that drops a layer
target silently blanks a per-layer metric; either fails here first.
"""
import importlib.util
import sys
from pathlib import Path

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def test_every_hook_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = hooks
    spec.loader.exec_module(hooks)
    missing = [f"{t.module}.{t.attr}" for t in hooks.PHASE_MARKS + hooks.LAYERS
               if hooks.resolve(t) is None]
    assert missing == []
