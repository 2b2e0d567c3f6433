"""The benchmark's hooks into the program still resolve.

``perfbench/`` is the repo's end-to-end benchmark and must not change
with the program, so its traced run (``--trace 1``) depends on names
the program keeps: the layer entry points ``perfbench/layers.py``
patches, the two measurement registries it wraps, and the profiler API
``serve_boot.py`` and ``workloads.py`` use.  A rename that breaks one
of them would otherwise only show up as a failed benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

from repro.obs.profile import Profiler, activate, active_profiler, prof_count

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("target, attr, layer", layers.PATCHES,
                         ids=[f"{t}.{a}" for t, a, _ in layers.PATCHES])
def test_patch_target_resolves(target, attr, layer):
    owner = layers._resolve(target)
    # install() reads a class attribute from the class __dict__ (so a
    # static or inherited lookup is not what it wraps) and a module
    # attribute with getattr.
    if isinstance(owner, type):
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module, name", layers.MEASURE_REGISTRIES)
def test_measure_registry_resolves(module, name):
    registry = getattr(importlib.import_module(module), name)
    assert isinstance(registry, dict) and registry
    assert all(callable(fn) for fn in registry.values())


def test_profiler_api_used_by_the_traced_run():
    # workloads.py: ``with profiler.activate():`` then the counts.
    profiler = Profiler()
    with profiler.activate() as armed:
        assert armed is profiler and active_profiler() is profiler
        prof_count("perfbench.contract", 2)
    assert active_profiler() is None
    assert profiler.snapshot()["counts"] == {"perfbench.contract": 2}

    # serve_boot.py: module-level ``activate(p)`` for the process.
    boot = Profiler()
    previous = activate(boot)
    try:
        prof_count("perfbench.contract")
        assert boot.snapshot()["counts"] == {"perfbench.contract": 1}
    finally:
        activate(previous)
    assert active_profiler() is None
