"""The maxvar names the benchmark reaches still resolve.

`bench/tracing.py` wraps public functions by (module, attribute) and every
workload item calls `module.attr` by name, so a deleted or renamed function
breaks the benchmark only when it runs; these tests catch it with the unit
tests.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from maxvar import lattice

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", [(t[1], t[2]) for t in tracing.TARGETS],
                         ids=[f"{t[1].__name__}.{t[2]}" for t in tracing.TARGETS])
def test_traced_targets_resolve(module, attr):
    assert callable(getattr(module, attr))


def test_shell_table_build_is_a_classmethod():
    # the tracer rewraps lattice.ShellTable.__dict__["build"].__func__
    assert callable(lattice.ShellTable.__dict__["build"].__func__)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_items_resolve(name):
    # the bench seeds each workload's generator with "<name>:<seed>"
    items = workloads.WORKLOADS[name].items(random.Random(f"{name}:1"))
    assert items
    for item in items:
        assert callable(getattr(item.module, item.attr)), item.id
